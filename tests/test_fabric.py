import math
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from queuemc.clocks import VirtualClock, WallClock
from queuemc.errors import (ConfigurationError, DuplicateQueueError,
                            SimulationStalledError, WireFormatError)
from queuemc.fabric import (NO_REQUEST, Message, MessageKind, QueueFabric,
                            decode_message, encode_message)


def msg(i, kind=MessageKind.LIKELIHOOD_REQUEST, payload=b""):
    return Message(msg_id=i, kind=kind, payload=payload)


@pytest.fixture
def fabric():
    return QueueFabric(WallClock())


def test_create_queue_starts_empty(fabric):
    q = fabric.create_queue("input")
    assert q.pending_count == 0
    assert q.delivered_count == 0


def test_duplicate_queue_name_rejected(fabric):
    fabric.create_queue("input")
    with pytest.raises(DuplicateQueueError):
        fabric.create_queue("input")


def test_pending_counts_pushes(fabric):
    q = fabric.create_queue("q")
    for i in range(3):
        q.push(msg(i))
    assert q.pending_count == 3


def test_fifo_order(fabric):
    q = fabric.create_queue("q")
    q.push(msg(7))
    q.push(msg(3), msg(9), msg(1))
    q.push(msg(4))
    assert [q.pop(0)[0].msg_id for _ in range(5)] == [7, 3, 9, 1, 4]
    assert q.pop(0) is None


def test_pop_empty_times_out(fabric):
    q = fabric.create_queue("q")
    assert q.pop(timeout=0) is None


@pytest.mark.parametrize("clock", [VirtualClock, WallClock])
def test_pop_rejects_a_nan_timeout(clock):
    # A NaN deadline is never reached, so a pop that waited on one would
    # never return: the pop runs on a thread the test gives up on.
    q = QueueFabric(clock()).create_queue("q")
    raised = []

    def pop_nan():
        try:
            q.pop(timeout=math.nan)
        except ConfigurationError as exc:
            raised.append(exc)

    popper = threading.Thread(target=pop_nan, daemon=True)
    popper.start()
    popper.join(timeout=5.0)
    assert not popper.is_alive()
    assert len(raised) == 1
    # A timeout of 0 or below still polls.
    assert q.pop(timeout=0.0) is None
    assert q.pop(timeout=-1.0) is None
    q.push(msg(4))
    assert q.pop(timeout=-1.0)[0].msg_id == 4


def test_push_pop_round_trip(fabric):
    q = fabric.create_queue("q")
    sent = msg(5, payload=b"\x00\x01data")
    ts = q.push(sent)
    got, got_ts = q.pop(0)
    assert got is sent and got_ts == ts


def test_push_stamps_are_non_decreasing():
    clock = VirtualClock()
    fabric = QueueFabric(clock)
    q = fabric.create_queue("q")
    stamps = [q.push(msg(i)) for i in range(5)]
    assert stamps == sorted(stamps)
    popped = [q.pop(0) for _ in range(5)]
    assert [ts for _, ts in popped] == stamps


def test_thousand_messages_delivered_exactly_once(fabric):
    q = fabric.create_queue("q")
    ids = set(range(1000))
    for i in range(1000):
        q.push(Message(msg_id=i, kind=MessageKind.CONTROL, payload=b""))
    seen = []
    while (got := q.pop(0)) is not None:
        seen.append(got[0].msg_id)
    assert len(seen) == 1000
    assert set(seen) == ids


def test_concurrent_consumers_partition_messages(fabric):
    q = fabric.create_queue("q")
    for i in range(100):
        q.push(msg(i))
    got_a, got_b = [], []

    def drain(sink):
        while (got := q.pop(timeout=0.05)) is not None:
            sink.append(got[0].msg_id)

    ta = threading.Thread(target=drain, args=(got_a,))
    tb = threading.Thread(target=drain, args=(got_b,))
    ta.start(); tb.start(); ta.join(); tb.join()
    assert set(got_a) | set(got_b) == set(range(100))
    assert set(got_a) & set(got_b) == set()


def test_push_stamps_its_messages_once():
    clock = VirtualClock()
    q = QueueFabric(clock).create_queue("q")
    stamps = [q.push(msg(0))]
    clock.schedule(2.5, lambda: stamps.append(q.push(msg(1), msg(2), msg(3))))
    assert q.pop(0)[1] == 0.0
    # The queue is empty, so the pop runs the clock to the push at 2.5.
    got = [q.pop(timeout=5.0), q.pop(0), q.pop(0)]
    assert stamps == [0.0, 2.5]
    assert [(m.msg_id, ts) for m, ts in got] == [(1, 2.5), (2, 2.5), (3, 2.5)]


def test_empty_push_changes_nothing(fabric):
    q = fabric.create_queue("q")
    q.push()
    assert fabric.stats() == {"q": {"pushed": 0, "delivered": 0, "pending": 0}}
    calls = []
    q.register_trigger(lambda ms, ts: calls.append(ms))
    q.push()
    assert calls == []
    assert fabric.stats() == {"q": {"pushed": 0, "delivered": 0, "pending": 0}}


def test_trigger_invoked_once_per_push(fabric):
    q = fabric.create_queue("q")
    calls = []
    q.register_trigger(lambda ms, ts: calls.append(([m.msg_id for m in ms], ts)))
    ts = q.push(msg(3), msg(1), msg(2))
    ts2 = q.push(msg(0))
    assert calls == [([3, 1, 2], ts), ([0], ts2)]


def test_trigger_gets_the_pushed_messages_themselves(fabric):
    q = fabric.create_queue("q")
    calls = []
    q.register_trigger(lambda ms, ts: calls.append(ms))
    sent = [msg(0), msg(1, payload=b"x")]
    q.push(*sent)
    ((a, b),) = calls
    assert a is sent[0] and b is sent[1]


def test_trigger_runs_in_the_pushing_thread_outside_the_lock(fabric):
    q = fabric.create_queue("q")
    seen = []

    def action(ms, ts):
        # Another thread can take the queue's lock while the trigger runs.
        reader = threading.Thread(target=lambda: seen.append(q.pending_count))
        reader.start()
        reader.join(timeout=5.0)
        seen.append(threading.current_thread() is threading.main_thread())

    q.register_trigger(action)
    q.push(msg(0), msg(1))
    assert seen == [0, True]


def test_trigger_on_empty_queue_no_invocations(fabric):
    q = fabric.create_queue("q")
    seen = []
    q.register_trigger(lambda ms, ts: seen.append(ms))
    assert seen == []


def test_trigger_drains_backlog(fabric):
    q = fabric.create_queue("q")
    q.push(msg(0))
    q.push(msg(1), msg(2))
    calls = []
    q.register_trigger(lambda ms, ts: calls.extend(m.msg_id for m in ms))
    assert calls == [0, 1, 2]
    assert q.pending_count == 0 and q.delivered_count == 3


def test_trigger_gets_a_backlog_with_each_push_stamp():
    clock = VirtualClock()
    fabric = QueueFabric(clock)
    q, idle = fabric.create_queue("q"), fabric.create_queue("idle")
    clock.schedule(1.0, q.push, msg(0), msg(1))
    clock.schedule(2.0, q.push, msg(2))
    assert idle.pop(timeout=5.0) is None  # runs the clock through both pushes
    calls = []
    q.register_trigger(lambda ms, ts: calls.append(([m.msg_id for m in ms], ts)))
    assert calls == [([0, 1], 1.0), ([2], 2.0)]


def test_second_trigger_rejected(fabric):
    q = fabric.create_queue("q")
    calls = []
    q.register_trigger(lambda ms, ts: calls.append([m.msg_id for m in ms]))
    with pytest.raises(ConfigurationError):
        q.register_trigger(lambda ms, ts: None)
    q.push(msg(0))
    assert calls == [[0]]


def test_trigger_multiset_matches_pushes(fabric):
    q = fabric.create_queue("q")
    seen = []
    q.register_trigger(lambda ms, ts: seen.extend(m.msg_id for m in ms))
    pushed = []
    for i in range(0, 200, 4):
        wave = [msg(j % 50, payload=bytes([j % 256])) for j in range(i, i + i % 3)]
        q.push(*wave)
        pushed.extend(m.msg_id for m in wave)
    assert sorted(seen) == sorted(pushed)


def test_conservation_counters(fabric):
    q = fabric.create_queue("q")
    q.push(*[msg(i) for i in range(5)])
    for i in range(5, 10):
        q.push(msg(i))
    q.pop(0)
    q.pop(0)
    assert (q.pushed_count, q.delivered_count, q.pending_count) == (10, 2, 8)
    t = fabric.create_queue("t")
    t.register_trigger(lambda ms, ts: None)
    t.push(*[msg(i) for i in range(3)])
    assert (t.pushed_count, t.delivered_count, t.pending_count) == (3, 3, 0)


# Due pushes


def drain_now(q):
    """Every (msg_id, stamp) a virtual-clock queue delivers until it stalls."""
    out = []
    while True:
        try:
            m, ts = q.pop()
        except SimulationStalledError:
            return out
        out.append((m.msg_id, ts))


def test_due_push_delivers_each_message_at_its_own_stamp():
    clock = VirtualClock()
    q = QueueFabric(clock).create_queue("q")
    assert q.push(msg(0), msg(1), msg(2), due=[3.0, 1.0, 2.0]) == 0.0
    assert q.pending_count == 3
    assert drain_now(q) == [(1, 1.0), (2, 2.0), (0, 3.0)]
    assert clock.now() == 3.0


def test_equal_stamps_across_two_pushes_come_out_in_push_order():
    clock = VirtualClock()
    q = QueueFabric(clock).create_queue("q")
    q.push(msg(0), msg(1), due=[2.0, 1.0])
    q.push(msg(2), msg(3), due=[1.0, 2.0])
    q.push(msg(4))  # a plain push is due at once
    q.push(msg(5), due=[0.0])
    assert drain_now(q) == [(4, 0.0), (5, 0.0), (1, 1.0), (2, 1.0), (0, 2.0), (3, 2.0)]


def test_clock_event_between_two_due_stamps_fires_before_the_later_answer():
    clock = VirtualClock()
    q = QueueFabric(clock).create_queue("q")
    fired = []
    q.push(msg(0), msg(1), due=[1.0, 3.0])
    clock.schedule(2.0, q.push, msg(2))
    clock.schedule(3.0, lambda: fired.append(q.pending_count))
    assert q.pop() == (msg(0), 1.0)
    assert q.pop() == (msg(2), 2.0)
    # An event due at the answer's own stamp fires first too.
    assert q.pop() == (msg(1), 3.0)
    assert fired == [1]


def test_pop_times_out_before_a_later_due_stamp():
    clock = VirtualClock()
    q = QueueFabric(clock).create_queue("q")
    clock.schedule(1.1, lambda: None)
    q.push(msg(0), due=[7.3])
    assert q.pop(timeout=2.0) is None  # fires the event at 1.1, then times out
    assert clock.now() == 2.0
    assert q.pop(timeout=1.0) is None
    assert clock.now() == 3.0
    assert q.pop(timeout=0) is None
    assert (q.pushed_count, q.delivered_count, q.pending_count) == (1, 0, 1)
    # The answer arrives later with its own stamp, not one the wait rounded.
    assert q.pop(timeout=10.0) == (msg(0), 7.3)
    assert clock.now() == 7.3


def test_pop_stalls_when_nothing_is_due_and_no_event_is_left():
    clock = VirtualClock()
    q = QueueFabric(clock).create_queue("q")
    with pytest.raises(SimulationStalledError):
        q.pop()
    q.push(msg(0), due=[4.0])
    assert q.pop() == (msg(0), 4.0)  # a held message is worth waiting for
    with pytest.raises(SimulationStalledError):
        q.pop()
    assert clock.now() == 4.0


def test_due_push_on_a_wall_clock():
    clock = WallClock()
    q = QueueFabric(clock).create_queue("q")
    at = clock.now() + 0.05
    q.push(msg(0), due=[at])
    assert q.pop(timeout=0) is None
    assert q.pop(timeout=5.0) == (msg(0), at)
    assert clock.now() >= at


@pytest.mark.parametrize("due", [
    pytest.param([math.nan, 2.0, 3.0], id="nan-first"),
    pytest.param([2.0, math.nan, 3.0], id="nan-inside"),
    pytest.param([2.0, 3.0, 0.5], id="before-the-push"),
    pytest.param([2.0, -math.inf, 3.0], id="minus-inf"),
    pytest.param([2.0, 3.0], id="too-few"),
])
def test_due_push_refuses_bad_stamps_before_queuing_anything(due):
    clock = VirtualClock()
    fabric = QueueFabric(clock)
    q = fabric.create_queue("q")
    clock.schedule(1.0, lambda: None)
    assert q.pop(timeout=1.0) is None  # the clock is at 1.0
    with pytest.raises(ValueError):
        q.push(msg(0), msg(1), msg(2), due=due)
    assert fabric.stats() == {"q": {"pushed": 0, "delivered": 0, "pending": 0}}
    q.push(msg(3), msg(4), msg(5), due=[1.0, math.inf, 2.0])
    assert [q.pop() for _ in range(2)] == [(msg(3), 1.0), (msg(5), 2.0)]


def test_due_push_onto_a_trigger_queue_is_refused():
    clock = VirtualClock()
    fabric = QueueFabric(clock)
    q = fabric.create_queue("q")
    calls = []
    q.register_trigger(lambda ms, ts: calls.append(ms))
    with pytest.raises(ConfigurationError):
        q.push(msg(0), due=[1.0])
    assert calls == []
    assert fabric.stats() == {"q": {"pushed": 0, "delivered": 0, "pending": 0}}


def test_trigger_refused_while_a_message_is_not_due():
    clock = VirtualClock()
    q = QueueFabric(clock).create_queue("q")
    q.push(msg(0), msg(1), due=[0.0, 1.0])
    with pytest.raises(ConfigurationError):
        q.register_trigger(lambda ms, ts: None)
    assert q.pop() == (msg(0), 0.0)
    assert q.pop() == (msg(1), 1.0)
    calls = []
    q.register_trigger(lambda ms, ts: calls.append(ms))
    q.push(msg(2))
    assert calls == [(msg(2),)]


def test_stats_conserve_counts_across_due_pushes():
    clock = VirtualClock()
    fabric = QueueFabric(clock)
    q = fabric.create_queue("q")

    def conserved():
        (s,) = fabric.stats().values()
        assert s["pushed"] == s["delivered"] + s["pending"]
        return s["pushed"], s["delivered"], s["pending"]

    q.push(msg(0), msg(1), msg(2), due=[5.0, 1.0, 5.0])
    q.push(msg(3))
    assert conserved() == (4, 0, 4)
    assert q.pop() == (msg(3), 0.0)
    assert q.pop(timeout=0.5) is None
    assert conserved() == (4, 1, 3)
    clock.schedule(2.0, q.push, msg(4), msg(5))
    assert [q.pop() for _ in range(3)] == [(msg(1), 1.0), (msg(4), 2.0), (msg(5), 2.0)]
    assert conserved() == (6, 4, 2)
    assert drain_now(q) == [(0, 5.0), (2, 5.0)]
    assert conserved() == (6, 6, 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(max_size=32), max_size=40))
def test_fifo_and_conservation_property(payloads):
    fabric = QueueFabric(WallClock())
    q = fabric.create_queue("q")
    for i, payload in enumerate(payloads):
        q.push(msg(i, payload=payload))
    out = []
    while (got := q.pop(0)) is not None:
        out.append(got[0])
    assert [m.msg_id for m in out] == list(range(len(payloads)))
    assert [m.payload for m in out] == payloads
    n = len(payloads)
    assert fabric.stats() == {"q": {"pushed": n, "delivered": n, "pending": 0}}


# Wire format


INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(INT64, st.sampled_from(MessageKind), st.binary())
@example(0, MessageKind.LIKELIHOOD_REQUEST, b"")
@example(NO_REQUEST, MessageKind.CONTROL, b"")
@example(2**63 - 1, MessageKind.LIKELIHOOD_RESPONSE, b"\x00\xffbinary")
@example(-2**63, MessageKind.CONTROL, b"ERR:x:y")
def test_wire_round_trip(msg_id, kind, payload):
    m = Message(msg_id=msg_id, kind=kind, payload=payload)
    back = decode_message(encode_message(m))
    assert back == m
    assert back.kind is kind


def test_wire_frame_bytes_are_fixed():
    # kind u8 | msg_id i64 | payload, little-endian.
    m = Message(msg_id=258, kind=MessageKind.CONTROL, payload=b"hi")
    assert encode_message(m) == b"\x02\x02\x01\x00\x00\x00\x00\x00\x00hi"
    fault = Message(msg_id=NO_REQUEST, kind=MessageKind.CONTROL, payload=b"")
    assert encode_message(fault) == b"\x02" + b"\xff" * 8


@pytest.mark.parametrize("msg_id", [2**63, -2**63 - 1, "req-1", 1.0, None])
def test_wire_refuses_an_id_that_is_no_int64(msg_id):
    with pytest.raises(WireFormatError):
        encode_message(Message(msg_id=msg_id, kind=MessageKind.CONTROL, payload=b""))


@pytest.mark.parametrize("bad", [
    pytest.param(b"", id="empty"),
    pytest.param(b"\x00" * 8, id="short-header"),
    pytest.param(b"\x07" + b"\x00" * 8, id="unknown-kind"),
])
def test_wire_rejects_malformed(bad):
    with pytest.raises(WireFormatError):
        decode_message(bad)
