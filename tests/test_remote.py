import math
import socket
import struct
import threading
import time

import numpy as np
import pytest

from queuemc.clocks import WallClock
from queuemc.datasets import make_synthetic, write_container
from queuemc.engine import ChainConfig, run_chains
from queuemc.errors import (ConfigurationError, NotFoundError, WireFormatError,
                            WorkerCrashError)
from queuemc.fabric import (NO_REQUEST, Message, MessageKind, QueueFabric,
                            decode_message, encode_message)
from queuemc.kernel import evaluate
from queuemc.payloads import pack_request, parse_error, unpack_response
from queuemc.plane import attach_backend, make_stub_key, respond
from queuemc.remote import _WorkerHandler, parse_addr, write_frame
from queuemc.store import DirectoryObjectStore, MemoryObjectStore
from tests.conftest import worker_server

HEADER = struct.Struct(">I")


@pytest.fixture
def worker_env(tmp_path):
    """A running worker server over a disk store holding one 2-cluster bundle."""
    datasets, truths = make_synthetic(2, grid_size=32, seed=17, noise_level=0.05)
    store = DirectoryObjectStore(tmp_path / "objects")
    store.put("bundle", write_container(datasets))
    with worker_server(store) as server:
        yield server.server_address, datasets, truths


def request_message(msg_id, params, key):
    payload = pack_request(np.asarray(params, dtype=np.float64), key)
    return Message(msg_id=msg_id, kind=MessageKind.LIKELIHOOD_REQUEST, payload=payload)


def send_raw(addr, data: bytes, framed=True) -> bytes:
    with socket.create_connection(addr, timeout=5) as sock:
        if framed:
            sock.sendall(HEADER.pack(len(data)) + data)
        else:
            sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def parse_frames(raw: bytes):
    frames = []
    off = 0
    while off < len(raw):
        (length,) = HEADER.unpack_from(raw, off)
        off += 4
        frames.append(raw[off:off + length])
        off += length
    return frames


def test_response_echoes_request_id(worker_env):
    addr, datasets, truths = worker_env
    msg = request_message(1, truths.ravel(), "bundle")
    raw = send_raw(addr, encode_message(msg))
    (frame,) = parse_frames(raw)
    resp = decode_message(frame)
    assert resp.msg_id == 1
    assert resp.kind is MessageKind.LIKELIHOOD_RESPONSE


def test_truncated_frame_gets_error_and_close(worker_env):
    addr, _, _ = worker_env
    raw = send_raw(addr, HEADER.pack(100) + b"abc", framed=False)
    (frame,) = parse_frames(raw)
    resp = decode_message(frame)
    assert resp.kind is MessageKind.CONTROL
    code, _ = parse_error(resp.payload)
    assert code == "malformed-frame"


def test_garbage_frame_body_rejected(worker_env):
    addr, _, _ = worker_env
    raw = send_raw(addr, b"this is not a wire message")
    (frame,) = parse_frames(raw)
    code, _ = parse_error(decode_message(frame).payload)
    assert code == "malformed-frame"


def test_frame_with_id_past_its_end_gets_error_and_close(worker_env):
    addr, _, truths = worker_env
    good = encode_message(request_message(3, truths.ravel(), "bundle"))
    # The frame ends halfway through the 8-byte id; the worker closes
    # without answering the valid request sent after it.
    bad = good[:5]
    raw = send_raw(addr, b"".join(HEADER.pack(len(b)) + b for b in (bad, good)),
                   framed=False)
    (frame,) = parse_frames(raw)
    resp = decode_message(frame)
    assert resp.kind is MessageKind.CONTROL and resp.msg_id == NO_REQUEST
    code, _ = parse_error(resp.payload)
    assert code == "malformed-frame"


def test_missing_dataset_error_frame(worker_env):
    addr, _, truths = worker_env
    msg = request_message(2, truths.ravel(), "no-such-bundle")
    raw = send_raw(addr, encode_message(msg))
    (frame,) = parse_frames(raw)
    resp = decode_message(frame)
    assert resp.kind is MessageKind.CONTROL
    code, _ = parse_error(resp.payload)
    assert code == "dataset-not-found"
    assert resp.msg_id == 2


def test_fault_after_the_task_is_answered_and_the_connection_serves_on(
        worker_env, monkeypatch):
    # Packing the first response raises: the worker answers that request
    # with worker-crash and then answers the next one on the same connection.
    addr, datasets, truths = worker_env
    calls = []

    def first_call_fails(*args):
        calls.append(args)
        if len(calls) == 1:
            raise RuntimeError("deliberate")
        return respond(*args)

    monkeypatch.setattr("queuemc.plane.respond", first_call_fails)
    frames = [encode_message(request_message(i, truths.ravel(), "bundle")) for i in (5, 6)]
    raw = send_raw(addr, b"".join(HEADER.pack(len(f)) + f for f in frames), framed=False)
    first, second = (decode_message(frame) for frame in parse_frames(raw))
    assert first.msg_id == 5 and first.kind is MessageKind.CONTROL
    code, detail = parse_error(first.payload)
    assert code == "worker-crash" and "deliberate" in detail
    assert second.msg_id == 6 and second.kind is MessageKind.LIKELIHOOD_RESPONSE
    assert unpack_response(second.payload)[0] == evaluate(truths, datasets)


def test_remote_matches_local_and_in_process(worker_env, local_setup):
    addr, datasets, truths = worker_env
    rng = np.random.default_rng(5)
    params = truths + 0.02 * rng.standard_normal(truths.shape)

    expected = evaluate(params, datasets)

    # local pool route
    mem = MemoryObjectStore()
    mem.put("bundle", write_container(datasets))
    fabric, input_q, output_q, plane = local_setup(store=mem)
    input_q.push(request_message(0, params.ravel(), "bundle"))
    local_val = unpack_response(output_q.pop(timeout=30.0)[0].payload)[0]

    # remote route
    fabric2 = QueueFabric(WallClock())
    rin, rout = fabric2.create_queue("in"), fabric2.create_queue("out")
    client = attach_backend(rin, rout, "remote", remote_addr=addr)
    rin.push(request_message(0, params.ravel(), "bundle"))
    remote_val = unpack_response(rout.pop(timeout=30.0)[0].payload)[0]
    client.close()

    assert local_val == pytest.approx(expected, rel=1e-12)
    assert remote_val == pytest.approx(expected, rel=1e-12)


def test_remote_pipelines_multiple_requests(worker_env):
    addr, datasets, truths = worker_env
    fabric = QueueFabric(WallClock())
    rin, rout = fabric.create_queue("in"), fabric.create_queue("out")
    client = attach_backend(rin, rout, "remote", remote_addr=addr)
    for i in range(8):
        rin.push(request_message(i, truths.ravel(), "bundle"))
    got = {rout.pop(timeout=30.0)[0].msg_id for _ in range(8)}
    assert got == set(range(8))
    assert len(client.records) == 8
    # The dispatch stamps stay with the coordinator, on its own clock.
    assert all(math.isnan(r.dispatch_ts) for r in client.records)
    client.close()


def test_remote_stub_tasks(worker_env):
    addr, _, _ = worker_env
    fabric = QueueFabric(WallClock())
    rin, rout = fabric.create_queue("in"), fabric.create_queue("out")
    client = attach_backend(rin, rout, "remote", remote_addr=addr)
    rin.push(request_message(0, [], make_stub_key(0.01)))
    resp, _ = rout.pop(timeout=10.0)
    assert unpack_response(resp.payload)[0] == 0.0
    client.close()
    assert rout.pending_count == 0  # closing the client reports no lost connection


def test_dropped_connection_fails_fast():
    listener = socket.create_server(("127.0.0.1", 0))

    def accept_and_close():
        conn, _ = listener.accept()
        conn.close()

    acceptor = threading.Thread(target=accept_and_close, daemon=True)
    acceptor.start()
    fabric = QueueFabric(WallClock())
    rin, rout = fabric.create_queue("in"), fabric.create_queue("out")
    client = attach_backend(rin, rout, "remote", remote_addr=listener.getsockname())
    config = ChainConfig(n_walkers=4, n_iterations=3, proposal_scale=1.0, seed=0)
    t0 = time.monotonic()
    try:
        with pytest.raises(WorkerCrashError, match="connection-lost"):
            run_chains(config, client, rin, rout, init_positions=np.zeros((4, 1)),
                       dataset_key=make_stub_key(0.01), response_timeout_s=30.0)
        elapsed = time.monotonic() - t0
    finally:
        client.close()
        listener.close()
        acceptor.join(timeout=5)
    assert not acceptor.is_alive()
    assert elapsed < 2.0


def test_error_frames_answer_every_request_of_failed_runs(remote_setup):
    # Each run stops at its first error; the answers still owed arrive
    # afterwards, and the next run drops them before meeting its own error.
    fabric, rin, rout, client = remote_setup(store=MemoryObjectStore())
    config = ChainConfig(n_walkers=2, n_iterations=1, proposal_scale=1.0, seed=0)
    for _ in range(3):
        with pytest.raises(NotFoundError) as err:
            run_chains(config, client, rin, rout, init_positions=np.zeros((2, 1)),
                       dataset_key="no-such-bundle", response_timeout_s=30.0)
        assert err.value.partial_output.n_iterations == 0
    while rout.pushed_count < rin.pushed_count:
        assert rout.pop(timeout=30.0) is not None


@pytest.mark.parametrize("answer", [
    pytest.param(b"\x09" + bytes(8), id="unknown-kind"),
    pytest.param(encode_message(Message(0, MessageKind.LIKELIHOOD_RESPONSE, b"abc")),
                 id="short-response"),
])
def test_undecodable_response_fails_fast(answer):
    # A worker that answers every request with a frame the client cannot
    # decode or unpack: the client counts it as a broken connection and
    # stops sending.
    listener = socket.create_server(("127.0.0.1", 0))

    def answer_badly():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as rfile:
            while (head := rfile.read(HEADER.size)) and len(head) == HEADER.size:
                rfile.read(HEADER.unpack(head)[0])
                try:
                    conn.sendall(HEADER.pack(len(answer)) + answer)
                except OSError:
                    return

    worker = threading.Thread(target=answer_badly, daemon=True)
    worker.start()
    fabric = QueueFabric(WallClock())
    rin, rout = fabric.create_queue("in"), fabric.create_queue("out")
    client = attach_backend(rin, rout, "remote", remote_addr=listener.getsockname())
    config = ChainConfig(n_walkers=2, n_iterations=1, proposal_scale=1.0, seed=0)
    t0 = time.monotonic()
    try:
        # The run fails on the reader's fault or, if the reader shut the
        # socket first, on the next send; either way the error names the
        # bad frame, not the broken pipe it left, and one fault is pushed.
        with pytest.raises(WorkerCrashError,
                           match="connection-lost: connection failed") as run_err:
            run_chains(config, client, rin, rout, init_positions=np.zeros((2, 1)),
                       dataset_key=make_stub_key(0.01), response_timeout_s=30.0)
        elapsed = time.monotonic() - t0
        client._reader.join(timeout=5)
        with pytest.raises(WorkerCrashError) as err:
            rin.push(request_message(99, [], make_stub_key(0.01)))
        assert str(err.value) == str(run_err.value)
        assert rout.pushed_count == 1
    finally:
        client.close()
        listener.close()
        worker.join(timeout=5)
    assert not worker.is_alive()
    assert elapsed < 1.0


@pytest.mark.parametrize("msg_id", [2**63, -2**63 - 1])
def test_send_refuses_an_id_that_is_no_int64(remote_setup, msg_id):
    fabric, rin, rout, client = remote_setup()
    # No frame of a push leaves before every frame of it is encoded.
    with pytest.raises(WireFormatError):
        rin.push(request_message(0, [], make_stub_key(0.01)),
                 request_message(msg_id, [], make_stub_key(0.01)))
    rin.push(request_message(1, [], make_stub_key(0.01)))  # the connection still serves
    assert rout.pop(timeout=10.0)[0].msg_id == 1
    assert rout.pop(timeout=0.2) is None


def test_parse_addr_takes_host_and_port():
    assert parse_addr("127.0.0.1:0") == ("127.0.0.1", 0)
    assert parse_addr("localhost:65535") == ("localhost", 65535)
    assert parse_addr(("127.0.0.1", 9)) == ("127.0.0.1", 9)
    for addr in ("nonsense", ":80", "host:", "host:-1", "host:²", "host:65536",
                 "127.0.0.1:99999"):
        with pytest.raises(ConfigurationError):
            parse_addr(addr)


def test_write_frame_is_one_sendall():
    class RecordingSocket:
        def __init__(self):
            self.writes = []

        def sendall(self, data):
            self.writes.append(bytes(data))

    sock = RecordingSocket()
    body = encode_message(request_message(5, [1.0, 2.0], "bundle"))
    write_frame(sock, body)
    assert sock.writes == [HEADER.pack(len(body)) + body]
    bodies = [encode_message(request_message(i, [1.0], "k" * i)) for i in range(3)]
    write_frame(sock, *bodies)
    assert sock.writes[1:] == [b"".join(HEADER.pack(len(b)) + b for b in bodies)]


def test_a_push_leaves_in_one_sendall(remote_setup):
    fabric, rin, rout, client = remote_setup()
    writes = []

    class RecordingSocket:
        def __init__(self, sock):
            self._sock = sock

        def sendall(self, data):
            writes.append(bytes(data))
            self._sock.sendall(data)

        def __getattr__(self, name):
            return getattr(self._sock, name)

    client._sock = RecordingSocket(client._sock)
    requests = [request_message(i, [], make_stub_key(0.0)) for i in range(5)]
    rin.push(*requests)
    assert sorted(rout.pop(timeout=10.0)[0].msg_id for _ in requests) == list(range(5))
    assert writes == [b"".join(HEADER.pack(len(b)) + b
                               for b in map(encode_message, requests))]


def test_client_on_a_queue_with_a_trigger_leaves_nothing_open(worker_env, monkeypatch):
    addr, _, _ = worker_env
    opened = []
    create_connection = socket.create_connection

    def recording_create_connection(*args, **kwargs):
        opened.append(create_connection(*args, **kwargs))
        return opened[-1]

    def readers():
        return {t for t in threading.enumerate() if t.name == "qmc-remote-reader"}

    monkeypatch.setattr(socket, "create_connection", recording_create_connection)
    fabric = QueueFabric(WallClock())
    rin, rout = fabric.create_queue("in"), fabric.create_queue("out")
    rin.register_trigger(lambda msgs, ts: None)
    before = readers()
    with pytest.raises(ConfigurationError):
        attach_backend(rin, rout, "remote", remote_addr=addr)
    assert len(opened) == 1 and opened[0].fileno() == -1
    assert readers() == before


def test_both_ends_disable_nagle(remote_setup, monkeypatch):
    accepted = []
    handle = _WorkerHandler.handle

    def recording_handle(self):
        accepted.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        handle(self)

    monkeypatch.setattr(_WorkerHandler, "handle", recording_handle)
    fabric, rin, rout, client = remote_setup()
    rin.push(request_message(0, [], make_stub_key(0.0)))
    rout.pop(timeout=10.0)  # the worker has accepted and served
    assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    assert len(accepted) == 1 and accepted[0]


def test_lockstep_iteration_is_not_held_by_delayed_acks(remote_setup):
    # With Nagle's algorithm on the worker, every response after the first
    # waited for the client's delayed ACK: about 44 ms per iteration of
    # four 1 ms stubs, against about 5 ms without it.
    fabric, rin, rout, client = remote_setup()
    config = ChainConfig(n_walkers=4, n_iterations=10, proposal_scale=1.0, seed=0)
    out = run_chains(config, client, rin, rout, init_positions=np.zeros((4, 1)),
                     dataset_key=make_stub_key(0.001), response_timeout_s=30.0)
    spans = out.complete_ts.max(axis=0) - out.dispatch_ts.min(axis=0)
    assert np.median(spans) < 0.020
