import socket
import struct
import threading
import time

import numpy as np
import pytest

from queuemc.clocks import WallClock
from queuemc.datasets import make_synthetic, write_container
from queuemc.engine import ChainConfig, run_chains
from queuemc.errors import NotFoundError, WireFormatError, WorkerCrashError
from queuemc.fabric import (NO_REQUEST, Message, MessageKind, QueueFabric,
                            decode_message, encode_message)
from queuemc.kernel import evaluate
from queuemc.payloads import (LikelihoodRequest, pack_request, parse_error,
                              unpack_response)
from queuemc.plane import attach_backend, make_stub_key
from queuemc.remote import WorkerServer
from queuemc.store import DirectoryObjectStore

HEADER = struct.Struct(">I")


@pytest.fixture
def worker_env(tmp_path):
    """A running worker server over a disk store holding one 2-cluster bundle."""
    datasets, truths = make_synthetic(2, grid_size=32, seed=17, noise_level=0.05)
    store = DirectoryObjectStore(tmp_path / "objects")
    store.put("bundle", write_container(datasets))
    server = WorkerServer(("127.0.0.1", 0), store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address, datasets, truths
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def request_message(msg_id, params, key):
    payload = pack_request(LikelihoodRequest(
        params=np.asarray(params, dtype=np.float64), dataset_key=key))
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


def test_remote_matches_local_and_in_process(worker_env, local_setup):
    addr, datasets, truths = worker_env
    rng = np.random.default_rng(5)
    params = truths + 0.02 * rng.standard_normal(truths.shape)

    expected = evaluate(params, datasets)

    # local pool route
    from queuemc.store import MemoryObjectStore
    mem = MemoryObjectStore()
    mem.put("bundle", write_container(datasets))
    fabric, input_q, output_q, plane = local_setup(store=mem)
    input_q.push(request_message(0, params.ravel(), "bundle"))
    local_val = unpack_response(output_q.pop(timeout=30.0).payload).log_likelihood
    plane.close()

    # remote route
    fabric2 = QueueFabric(WallClock())
    rin, rout = fabric2.create_queue("in"), fabric2.create_queue("out")
    client = attach_backend(rin, rout, "remote", remote_addr=addr)
    rin.push(request_message(0, params.ravel(), "bundle"))
    remote_val = unpack_response(rout.pop(timeout=30.0).payload).log_likelihood
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
    got = {rout.pop(timeout=30.0).msg_id for _ in range(8)}
    assert got == set(range(8))
    assert len(client.records) == 8
    client.close()


def test_remote_stub_tasks(worker_env):
    addr, _, _ = worker_env
    fabric = QueueFabric(WallClock())
    rin, rout = fabric.create_queue("in"), fabric.create_queue("out")
    client = attach_backend(rin, rout, "remote", remote_addr=addr)
    rin.push(request_message(0, [], make_stub_key(0.01)))
    resp = rout.pop(timeout=10.0)
    assert unpack_response(resp.payload).log_likelihood == 0.0
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


def test_error_frames_release_dispatch_stamps(worker_env):
    # Each run stops at its first error; the answers still owed arrive
    # afterwards, and the next run drops them before meeting its own error.
    addr, _, _ = worker_env
    fabric = QueueFabric(WallClock())
    rin, rout = fabric.create_queue("in"), fabric.create_queue("out")
    client = attach_backend(rin, rout, "remote", remote_addr=addr)
    config = ChainConfig(n_walkers=2, n_iterations=1, proposal_scale=1.0, seed=0)
    try:
        for _ in range(3):
            with pytest.raises(NotFoundError) as err:
                run_chains(config, client, rin, rout, init_positions=np.zeros((2, 1)),
                           dataset_key="no-such-bundle", response_timeout_s=30.0)
            assert err.value.partial_output.n_iterations == 0
        while rout.pushed_count < rin.pushed_count:
            rout.pop(timeout=30.0)
    finally:
        client.close()
    assert client._dispatch_ts == {}


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
        with pytest.raises(WorkerCrashError, match="connection-lost"):
            run_chains(config, client, rin, rout, init_positions=np.zeros((2, 1)),
                       dataset_key=make_stub_key(0.01), response_timeout_s=30.0)
        elapsed = time.monotonic() - t0
        client._reader.join(timeout=5)
        with pytest.raises(WorkerCrashError, match="connection-lost"):
            rin.push(request_message(99, [], make_stub_key(0.01)))
        # The run fails on the reader's fault or, if the reader shut the
        # socket first, on the next send; either way one fault is pushed.
        assert rout.pushed_count == 1
    finally:
        client.close()
        listener.close()
        worker.join(timeout=5)
    assert not worker.is_alive()
    assert elapsed < 1.0


@pytest.mark.parametrize("msg_id", [2**63, -2**63 - 1])
def test_send_refuses_an_id_that_is_no_int64(worker_env, msg_id):
    addr, _, _ = worker_env
    fabric = QueueFabric(WallClock())
    rin, rout = fabric.create_queue("in"), fabric.create_queue("out")
    client = attach_backend(rin, rout, "remote", remote_addr=addr)
    try:
        with pytest.raises(WireFormatError):
            rin.push(request_message(msg_id, [], make_stub_key(0.01)))
        assert client._dispatch_ts == {}
        rin.push(request_message(1, [], make_stub_key(0.01)))  # the connection still serves
        assert rout.pop(timeout=10.0).msg_id == 1
    finally:
        client.close()
