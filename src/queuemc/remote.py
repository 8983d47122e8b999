"""Remote worker protocol: framed messages over a byte stream.

Cloud-agnostic stand-in for running likelihood workers on other machines.
Frames are a 4-byte big-endian unsigned length followed by that many
bytes of one message in the fabric's binary layout, ``kind u8 | msg_id i64
| payload`` (see :func:`queuemc.fabric.encode_message`). The client writes
the frames of a push in one ``sendall`` and the worker each response
frame in one. A push stamp does not cross the wire: it belongs to the
queue, and each side's queue stamps its own clock. Workers answer each
request frame with one response frame, produced by the same executor as
the local pool (:func:`queuemc.plane.execute`), whose records take a NaN
``dispatch_ts``; errors are control messages with payload
``ERR:<code>:<detail>``. A malformed frame draws an error frame and closes
the connection.

Both ends disable Nagle's algorithm (``TCP_NODELAY``). With it on, the
worker held each response frame until the client ACKed the one before,
and the client delays that ACK by up to 40 ms, so a lockstep iteration of
1 ms tasks took about 45 ms. Whole frames always leave in one write, so
Nagle never had a partial frame to coalesce, only whole frames to delay.

A response frame carries the msg_id of the request it answers and nothing
else of its identity. A fault of the connection itself answers no request
and carries msg_id :data:`~queuemc.fabric.NO_REQUEST`. There are two: a
malformed frame, and a connection that breaks other than through the
client's own ``close()``. The client counts a response frame it cannot
decode or unpack as a broken connection. It reports the break as one
``connection-lost`` control message on the output queue, so a run fails at
once instead of waiting out its timeout, and shuts the socket, so a later
send fails at once too, naming the same cause. The client keeps no
state per request, so its records' ``dispatch_ts`` is NaN. A worker fault
outside the task draws a ``worker-crash`` frame and the connection serves
on.
"""

from __future__ import annotations

import logging
import math
import socket
import socketserver
import struct
import threading
from typing import Callable, Sequence

from .clocks import WallClock
from .errors import ConfigurationError, WireFormatError, WorkerCrashError
from .fabric import (NO_REQUEST, Message, MessageKind, decode_message,
                     encode_message)
from .payloads import pack_error, unpack_response
from .plane import InvocationRecord, TaskRunner, _PlaneBase, execute
from .store import DirectoryObjectStore

log = logging.getLogger(__name__)

_HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 16 * 1024 * 1024


def parse_addr(addr: str | tuple[str, int]) -> tuple[str, int]:
    if isinstance(addr, tuple):
        return addr
    host, _, port = addr.rpartition(":")
    if not (host and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ConfigurationError(
            f"address must be host:port with a port of at most 65535, got {addr!r}")
    return host, int(port)


def write_frame(sock: socket.socket, *bodies: bytes) -> None:
    """Send one frame per body, all in a single ``sendall``.

    Headers and bodies go out together: on a ``TCP_NODELAY`` socket a
    separate header write would leave as its own 4-byte segment.
    """
    sock.sendall(b"".join([_HEADER.pack(len(body)) + body for body in bodies]))


def read_frame(rfile) -> bytes | None:
    """Read one frame; returns None on clean EOF, raises on truncation."""
    head = rfile.read(_HEADER.size)
    if head == b"":
        return None
    if len(head) < _HEADER.size:
        raise WireFormatError("truncated frame header")
    (length,) = _HEADER.unpack(head)
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(f"frame of {length} bytes exceeds limit")
    body = rfile.read(length)
    if len(body) < length:
        raise WireFormatError(f"truncated frame body: {len(body)} of {length} bytes")
    return body


def _connection_fault(code: str, detail: str) -> Message:
    """A control message that answers no request."""
    return Message(NO_REQUEST, MessageKind.CONTROL, pack_error(code, detail))


class _WorkerHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True  # setup() sets TCP_NODELAY on the connection

    def handle(self) -> None:
        try:
            while (frame := read_frame(self.rfile)) is not None:
                self._try_send(self.server.process(decode_message(frame)))
        except WireFormatError as exc:
            self._try_send(_connection_fault("malformed-frame", str(exc)))

    def _try_send(self, msg: Message) -> None:
        try:
            write_frame(self.connection, encode_message(msg))
        except OSError:
            pass


class WorkerServer(socketserver.ThreadingTCPServer):
    """Serves likelihood requests; connections are handled concurrently,
    each connection serially. Each accepted connection has ``TCP_NODELAY``
    set, so a response frame is not held back until the client ACKs the
    one before, which its delayed ACK can put off by up to 40 ms."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr: str | tuple[str, int], store, *,
                 likelihood_fn: Callable | None = None):
        super().__init__(parse_addr(addr), _WorkerHandler)
        self._runner = TaskRunner(store, likelihood_fn)
        self._clock = WallClock()

    def process(self, msg: Message) -> Message:
        ((resp, _),) = execute(self._runner, self._clock, (msg,), math.nan)
        return resp


def serve(listen_addr: str | tuple[str, int], dataset_root) -> None:
    """Run a worker server until interrupted (the CLI entry point)."""
    store = DirectoryObjectStore(dataset_root)
    with WorkerServer(listen_addr, store) as server:
        log.info("worker serving on %s:%d", *server.server_address)
        server.serve_forever()


class RemoteWorkerClient(_PlaneBase):
    """Compute-plane backend that forwards requests to a worker server.

    Requests are pipelined over one connection; a reader thread pushes the
    returned messages onto the output queue as they arrive.
    """

    backend = "remote"

    def __init__(self, input_q, output_q, addr: str | tuple[str, int]):
        super().__init__()
        self._output_q = output_q
        self._sock = socket.create_connection(parse_addr(addr))
        # A request written behind an unacknowledged one leaves at once.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")
        self._send_lock = threading.Lock()
        self._closing = threading.Event()
        self._lost: str | None = None  # why the reader gave up the connection
        self._reader = threading.Thread(target=self._read_loop, daemon=True,
                                        name="qmc-remote-reader")
        try:
            input_q.register_trigger(self._send)
        except BaseException:
            self._rfile.close()
            self._sock.close()
            raise
        self._reader.start()

    def _send(self, msgs: Sequence[Message], ts: float) -> None:
        # Every frame is encoded before any is written, so an id that is
        # not an int64 fails the push before any of it leaves.
        bodies = [encode_message(msg) for msg in msgs]
        try:
            with self._send_lock:
                write_frame(self._sock, *bodies)
        except OSError as exc:
            raise WorkerCrashError(f"connection-lost: {self._lost or exc}") from exc

    def _read_loop(self) -> None:
        detail = "worker closed the connection"
        try:
            while (frame := read_frame(self._rfile)) is not None:
                msg = decode_message(frame)
                if msg.kind is MessageKind.LIKELIHOOD_RESPONSE:
                    _, cold, start, end = unpack_response(msg.payload)
                    self._record(InvocationRecord(msg.msg_id, "remote", math.nan,
                                                  start, end, cold))
                self._output_q.push(msg)
        except (WireFormatError, OSError, ValueError) as exc:
            detail = f"connection failed: {exc}"
        if self._closing.is_set():
            return
        self._lost = detail
        self._output_q.push(_connection_fault("connection-lost", detail))
        self._shutdown()

    def _shutdown(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def close(self) -> None:
        self._closing.set()
        self._shutdown()
        self._reader.join(timeout=5)
        self._rfile.close()
        self._sock.close()
