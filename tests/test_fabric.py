import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuemc.clocks import VirtualClock, WallClock
from queuemc.errors import (ConfigurationError, DuplicateQueueError, QueueClosedError,
                            WireFormatError)
from queuemc.fabric import (Message, MessageKind, QueueFabric, decode_message,
                            encode_message)


def msg(i, kind=MessageKind.LIKELIHOOD_REQUEST, payload=b""):
    return Message(msg_id=f"m{i}", kind=kind, payload=payload)


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
    q.push(msg("A"))
    q.push(msg("B"))
    assert q.pop(0).msg_id == "mA"
    assert q.pop(0).msg_id == "mB"


def test_pop_empty_times_out(fabric):
    q = fabric.create_queue("q")
    assert q.pop(timeout=0) is None


def test_push_pop_round_trip(fabric):
    q = fabric.create_queue("q")
    sent = msg("X", payload=b"\x00\x01data")
    q.push(sent)
    got = q.pop(0)
    assert got.msg_id == sent.msg_id and got.payload == sent.payload


def test_push_to_closed_queue_raises(fabric):
    q = fabric.create_queue("q")
    q.close()
    with pytest.raises(QueueClosedError):
        q.push(msg(1))


def test_closed_queue_drains_then_raises(fabric):
    q = fabric.create_queue("q")
    q.push(msg(1))
    q.close()
    assert q.pop(0).msg_id == "m1"
    with pytest.raises(QueueClosedError):
        q.pop(0)


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
    ids = {f"id-{i}" for i in range(1000)}
    for i in range(1000):
        q.push(Message(msg_id=f"id-{i}", kind=MessageKind.CONTROL, payload=b""))
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
    assert set(got_a) | set(got_b) == {f"m{i}" for i in range(100)}
    assert set(got_a) & set(got_b) == set()


def test_trigger_invoked_once_per_message(fabric):
    q = fabric.create_queue("q")
    seen = []
    q.register_trigger(lambda m: seen.append(m.msg_id))
    for i in range(5):
        q.push(msg(i))
    assert seen == [f"m{i}" for i in range(5)]


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
    assert seen == ["m0", "m1"]
    assert q.pending_count == 0


def test_second_trigger_rejected(fabric):
    q = fabric.create_queue("q")
    seen = []
    q.register_trigger(lambda m: seen.append(m.msg_id))
    with pytest.raises(ConfigurationError):
        q.register_trigger(lambda m: None)
    q.push(msg(0))
    assert seen == ["m0"]


def test_trigger_multiset_matches_pushes(fabric):
    q = fabric.create_queue("q")
    seen = []
    q.register_trigger(lambda m: seen.append(m.msg_id))
    pushed = []
    for i in range(200):
        q.push(msg(i % 50, payload=bytes([i % 256])))
        pushed.append(f"m{i % 50}")
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
    fabric = QueueFabric(WallClock(), record_deliveries=True)
    q = fabric.create_queue("q")
    for i, payload in enumerate(payloads):
        q.push(msg(i, payload=payload))
    out = []
    while (m := q.pop(0)) is not None:
        out.append(m)
    assert [m.msg_id for m in out] == [f"m{i}" for i in range(len(payloads))]
    assert [m.payload for m in out] == payloads
    assert q.delivered_count == q.pushed_count == len(payloads)
    assert q.delivery_log == q.push_log


def test_message_validation():
    assert Message(msg_id="x", kind="control", payload=b"").kind is MessageKind.CONTROL
    with pytest.raises(ValueError):
        Message(msg_id="x", kind="no_such_kind", payload=b"")


# Wire format


def test_wire_round_trip():
    m = Message(msg_id="abc", kind=MessageKind.LIKELIHOOD_RESPONSE,
                payload=b"\x00\xffbinary", enqueue_ts=1.5)
    line = encode_message(m)
    assert "\n" not in line
    back = decode_message(line)
    assert back == m


def test_wire_key_order_is_fixed():
    m = Message(msg_id="a", kind=MessageKind.CONTROL, payload=b"hi", enqueue_ts=2.0)
    line = encode_message(m)
    keys = list(json.loads(line).keys())
    assert keys == ["msg_id", "kind", "enqueue_ts", "payload_b64"]
    assert line == '{"msg_id":"a","kind":"control","enqueue_ts":2.0,"payload_b64":"aGk="}'


def test_wire_rejects_unknown_keys():
    m = Message(msg_id="a", kind=MessageKind.CONTROL, payload=b"")
    record = json.loads(encode_message(m))
    record["extra"] = 1
    with pytest.raises(WireFormatError):
        decode_message(json.dumps(record))


def test_wire_rejects_missing_keys():
    m = Message(msg_id="a", kind=MessageKind.CONTROL, payload=b"")
    record = json.loads(encode_message(m))
    del record["payload_b64"]
    with pytest.raises(WireFormatError):
        decode_message(json.dumps(record))


@pytest.mark.parametrize("bad", ["not json", "[1,2]", '{"msg_id": 1}'])
def test_wire_rejects_malformed(bad):
    with pytest.raises(WireFormatError):
        decode_message(bad)

