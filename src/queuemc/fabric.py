"""FIFO message queues with trigger semantics.

The fabric connects the coordinator to the compute plane. Producers push
immutable :class:`Message` values, one or several per push; each message
is delivered exactly once, in push order, either to a blocking consumer
(:meth:`Queue.pop`) or to a registered trigger callback, mirroring a queue
service that invokes a function with the batch of messages one push
delivered.

A message's only identity is its ``msg_id``, an int: the sequence number
of the request it is or answers, and all a consumer matches on. A control
message with msg_id :data:`NO_REQUEST` answers no request: it reports a
fault of the transport itself.

Messages serialize to the binary body of one remote worker frame
(little-endian): ``kind u8 | msg_id i64 | payload``, a fixed 9-byte header
whose kind byte is the :class:`MessageKind` value. ``enqueue_ts`` does not
cross the wire: the receiving queue stamps its own clock on push.
"""

from __future__ import annotations

import enum
import struct
import threading
from collections import deque
from typing import Callable, NamedTuple, Sequence

from .clocks import Clock
from .errors import ConfigurationError, DuplicateQueueError, WireFormatError

NO_REQUEST = -1
"""The msg_id of a control message that answers no request."""


class MessageKind(enum.IntEnum):
    LIKELIHOOD_REQUEST = 0
    LIKELIHOOD_RESPONSE = 1
    CONTROL = 2


class Message(NamedTuple):
    """One unit of work or one result crossing a queue.

    ``enqueue_ts`` is stamped by the queue at push time from the fabric's
    clock; the value passed at construction is a placeholder. A control
    message with ``msg_id`` :data:`NO_REQUEST` answers no request: it
    reports a fault of the transport itself, such as a lost worker
    connection.
    """

    msg_id: int
    kind: MessageKind
    payload: bytes
    enqueue_ts: float = 0.0


_WIRE_HEAD = struct.Struct("<Bq")


def encode_message(m: Message) -> bytes:
    """Serialize one message to a frame body; ``enqueue_ts`` is not sent.

    Raises :class:`WireFormatError` for a msg_id that is not an int64.
    """
    try:
        return _WIRE_HEAD.pack(m.kind, m.msg_id) + m.payload
    except struct.error as exc:
        raise WireFormatError(f"msg_id {m.msg_id!r} is not an int64: {exc}") from exc


def decode_message(frame: bytes) -> Message:
    """Parse one frame body back into a :class:`Message` with ``enqueue_ts`` 0.0.

    Raises :class:`WireFormatError` on a short header or an unknown kind.
    """
    if len(frame) < _WIRE_HEAD.size:
        raise WireFormatError(f"frame of {len(frame)} bytes has no message header")
    code, msg_id = _WIRE_HEAD.unpack_from(frame)
    try:
        kind = MessageKind(code)
    except ValueError as exc:
        raise WireFormatError(f"unknown message kind {code}") from exc
    return Message(msg_id, kind, frame[_WIRE_HEAD.size:])


class Queue:
    """A named FIFO queue, safe for concurrent producers and consumers.

    Delivery is exactly-once: a message goes either to one ``pop`` caller
    or to the queue's trigger callback. A queue has at most one trigger,
    which takes over delivery once registered; messages already pending at
    registration are handed to it in one call, matching platform trigger
    semantics for a backlog.
    """

    def __init__(self, name: str, clock: Clock) -> None:
        self._name = name
        self._clock = clock
        # Holding the lock directly skips the condition's Python-level
        # __enter__/__exit__ on every push and pop.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._items: deque[Message] = deque()
        self._trigger: Callable[[Sequence[Message]], None] | None = None
        self._pushed = 0
        self._delivered = 0

    @property
    def name(self) -> str:
        return self._name

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._items)

    @property
    def pushed_count(self) -> int:
        with self._lock:
            return self._pushed

    @property
    def delivered_count(self) -> int:
        with self._lock:
            return self._delivered

    def push(self, *msgs: Message) -> float:
        """Append ``msgs`` in order, each stamped with one reading of the clock.

        Returns that stamp (the acknowledgment). If a trigger is
        registered the messages are handed to it in one call instead of
        being queued; the callback runs in the pushing thread, outside the
        queue lock. A push of no messages changes nothing and calls no
        trigger.
        """
        with self._lock:
            ts = self._clock.now()
            stamped = [Message(m.msg_id, m.kind, m.payload, ts) for m in msgs]
            self._pushed += len(stamped)
            action = self._trigger
            if action is not None:
                self._delivered += len(stamped)
            else:
                self._items.extend(stamped)
                self._cond.notify(len(stamped))
        if action is not None and stamped:
            action(stamped)
        return ts

    def pop(self, timeout: float | None = None) -> Message | None:
        """Remove and return the head message.

        Returns ``None`` (the timeout signal) if nothing arrives within
        ``timeout`` seconds on the queue's clock; a timeout of 0 or below
        polls once. ``timeout=None`` blocks indefinitely, and a NaN
        timeout raises :class:`ConfigurationError` before any wait.
        """
        if timeout != timeout:  # only NaN differs from itself
            raise ConfigurationError("queue pop timeout must not be NaN")
        clock = self._clock
        deadline = None if timeout is None else clock.now() + timeout
        with self._lock:
            while True:
                if self._items:
                    self._delivered += 1
                    return self._items.popleft()
                remaining = None if deadline is None else deadline - clock.now()
                if remaining is not None and remaining <= 0:
                    return None
                clock.wait(self._cond, remaining)

    def register_trigger(self, action: Callable[[Sequence[Message]], None]) -> None:
        """Invoke ``action`` once per push from now on, with the push's messages.

        Pending messages are handed to the trigger at once, in one call. A
        queue takes one trigger; registering a second raises
        :class:`ConfigurationError`.
        """
        with self._lock:
            if self._trigger is not None:
                raise ConfigurationError(f"queue {self._name!r} already has a trigger")
            self._trigger = action
            backlog = list(self._items)
            self._items.clear()
            self._delivered += len(backlog)
        if backlog:
            action(backlog)


class QueueFabric:
    """Registry of named queues sharing one clock."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self._queues: dict[str, Queue] = {}
        self._lock = threading.Lock()

    def create_queue(self, name: str) -> Queue:
        with self._lock:
            if name in self._queues:
                raise DuplicateQueueError(f"queue {name!r} already exists")
            q = Queue(name, self.clock)
            self._queues[name] = q
            return q

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-queue pushed/delivered/pending counters (conservation check)."""
        with self._lock:
            queues = list(self._queues.values())
        return {
            q.name: {
                "pushed": q.pushed_count,
                "delivered": q.delivered_count,
                "pending": q.pending_count,
            }
            for q in queues
        }
