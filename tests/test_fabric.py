import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from queuemc.clocks import VirtualClock, WallClock
from queuemc.errors import ConfigurationError, DuplicateQueueError, WireFormatError
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
    q.push(msg(3))
    assert q.pop(0).msg_id == 7
    assert q.pop(0).msg_id == 3


def test_pop_empty_times_out(fabric):
    q = fabric.create_queue("q")
    assert q.pop(timeout=0) is None


def test_push_pop_round_trip(fabric):
    q = fabric.create_queue("q")
    sent = msg(5, payload=b"\x00\x01data")
    q.push(sent)
    got = q.pop(0)
    assert got.msg_id == sent.msg_id and got.payload == sent.payload


def test_enqueue_ts_stamped_and_non_decreasing():
    clock = VirtualClock()
    fabric = QueueFabric(clock)
    q = fabric.create_queue("q")
    acks = [q.push(msg(i)) for i in range(5)]
    stamps = [a.enqueue_ts for a in acks]
    assert stamps == sorted(stamps)
    popped = [q.pop(0) for _ in range(5)]
    got = [m.enqueue_ts for m in popped]
    assert got == sorted(got)


def test_thousand_messages_delivered_exactly_once(fabric):
    q = fabric.create_queue("q")
    ids = set(range(1000))
    for i in range(1000):
        q.push(Message(msg_id=i, kind=MessageKind.CONTROL, payload=b""))
    seen = []
    while (m := q.pop(0)) is not None:
        seen.append(m.msg_id)
    assert len(seen) == 1000
    assert set(seen) == ids


def test_concurrent_consumers_partition_messages(fabric):
    q = fabric.create_queue("q")
    for i in range(100):
        q.push(msg(i))
    got_a, got_b = [], []

    def drain(sink):
        while (m := q.pop(timeout=0.05)) is not None:
            sink.append(m.msg_id)

    ta = threading.Thread(target=drain, args=(got_a,))
    tb = threading.Thread(target=drain, args=(got_b,))
    ta.start(); tb.start(); ta.join(); tb.join()
    assert set(got_a) | set(got_b) == set(range(100))
    assert set(got_a) & set(got_b) == set()


def test_trigger_invoked_once_per_message(fabric):
    q = fabric.create_queue("q")
    seen = []
    q.register_trigger(lambda m: seen.append(m.msg_id))
    for i in range(5):
        q.push(msg(i))
    assert seen == list(range(5))


def test_trigger_on_empty_queue_no_invocations(fabric):
    q = fabric.create_queue("q")
    seen = []
    q.register_trigger(lambda m: seen.append(m))
    assert seen == []


def test_trigger_drains_backlog(fabric):
    q = fabric.create_queue("q")
    q.push(msg(0))
    q.push(msg(1))
    seen = []
    q.register_trigger(lambda m: seen.append(m.msg_id))
    assert seen == [0, 1]
    assert q.pending_count == 0


def test_second_trigger_rejected(fabric):
    q = fabric.create_queue("q")
    seen = []
    q.register_trigger(lambda m: seen.append(m.msg_id))
    with pytest.raises(ConfigurationError):
        q.register_trigger(lambda m: None)
    q.push(msg(0))
    assert seen == [0]


def test_trigger_multiset_matches_pushes(fabric):
    q = fabric.create_queue("q")
    seen = []
    q.register_trigger(lambda m: seen.append(m.msg_id))
    pushed = []
    for i in range(200):
        q.push(msg(i % 50, payload=bytes([i % 256])))
        pushed.append(i % 50)
    assert sorted(seen) == sorted(pushed)


def test_conservation_counters(fabric):
    q = fabric.create_queue("q")
    for i in range(10):
        q.push(msg(i))
    q.pop(0)
    q.pop(0)
    assert q.pushed_count == 10
    assert q.delivered_count + q.pending_count == q.pushed_count


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(max_size=32), max_size=40))
def test_fifo_and_conservation_property(payloads):
    fabric = QueueFabric(WallClock())
    q = fabric.create_queue("q")
    for i, payload in enumerate(payloads):
        q.push(msg(i, payload=payload))
    out = []
    while (m := q.pop(0)) is not None:
        out.append(m)
    assert [m.msg_id for m in out] == list(range(len(payloads)))
    assert [m.payload for m in out] == payloads
    n = len(payloads)
    assert fabric.stats() == {"q": {"pushed": n, "delivered": n, "pending": 0}}


# Wire format


INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(INT64, st.sampled_from(MessageKind), st.binary(), st.floats(allow_nan=False))
@example(0, MessageKind.LIKELIHOOD_REQUEST, b"", 0.0)
@example(NO_REQUEST, MessageKind.CONTROL, b"", 0.0)
@example(2**63 - 1, MessageKind.LIKELIHOOD_RESPONSE, b"\x00\xffbinary", 1.5)
@example(-2**63, MessageKind.CONTROL, b"ERR:x:y", 2.0)
def test_wire_round_trip(msg_id, kind, payload, enqueue_ts):
    m = Message(msg_id=msg_id, kind=kind, payload=payload, enqueue_ts=enqueue_ts)
    back = decode_message(encode_message(m))
    assert back == m._replace(enqueue_ts=0.0)
    assert back.kind is kind


def test_wire_frame_bytes_are_fixed():
    # kind u8 | msg_id i64 | payload, little-endian.
    m = Message(msg_id=258, kind=MessageKind.CONTROL, payload=b"hi", enqueue_ts=2.0)
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
