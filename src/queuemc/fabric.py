"""FIFO message queues with trigger semantics.

The fabric connects the coordinator to the compute plane. Producers push
immutable :class:`Message` values, one or several per push; each message
is delivered exactly once, in stamp order, either to a blocking consumer
(:meth:`Queue.pop`) or to a registered trigger callback, mirroring a queue
service that invokes a function with the batch of messages one push
delivered.

A message's only identity is its ``msg_id``, an int: the sequence number
of the request it is or answers, and all a consumer matches on. A control
message with msg_id :data:`NO_REQUEST` answers no request: it reports a
fault of the transport itself.

A message's stamp belongs to the queue, not to the message: the queue
reads its clock once per push and hands that stamp beside the messages,
to the trigger with the push's messages and to ``pop`` with each message.
A push may instead give each of its messages a due stamp of its own, at
or after the push's stamp: the queue holds such a message until its
clock reaches that stamp and then hands it to ``pop`` with it, so one
push can deliver answers that fall due at many times. A plain push is a
due push at the push's stamp. Pending messages come out in the order of
their stamps, and messages of equal stamps in push order.

Messages serialize to the binary body of one remote worker frame
(little-endian): ``kind u8 | msg_id i64 | payload``, a fixed 9-byte header
whose kind byte is the :class:`MessageKind` value. A message is exactly
what crosses the wire.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import struct
import threading
from operator import itemgetter
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

    A control message with ``msg_id`` :data:`NO_REQUEST` answers no
    request: it reports a fault of the transport itself, such as a lost
    worker connection.
    """

    msg_id: int
    kind: MessageKind
    payload: bytes


_WIRE_HEAD = struct.Struct("<Bq")


def encode_message(m: Message) -> bytes:
    """Serialize one message to a frame body.

    Raises :class:`WireFormatError` for a msg_id that is not an int64.
    """
    try:
        return _WIRE_HEAD.pack(m.kind, m.msg_id) + m.payload
    except struct.error as exc:
        raise WireFormatError(f"msg_id {m.msg_id!r} is not an int64: {exc}") from exc


def decode_message(frame: bytes) -> Message:
    """Parse one frame body back into a :class:`Message`.

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
    """A named queue, safe for concurrent producers and consumers.

    Delivery is exactly-once: a message goes either to one ``pop`` caller
    or to the queue's trigger callback, always with its stamp. Pending
    messages wait in one heap ordered by (stamp, push order), so a queue
    of plain pushes is FIFO. A queue has at most one trigger, which takes
    over delivery once registered; messages already pending at
    registration are handed to it at once, matching platform trigger
    semantics for a backlog. A trigger delivers at push time, so a queue
    with a trigger takes no due push.
    """

    def __init__(self, name: str, clock: Clock) -> None:
        self._name = name
        self._clock = clock
        # Holding the lock directly skips the condition's Python-level
        # __enter__/__exit__ on every push and pop.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        # (stamp, push order, message); the order number makes keys unique.
        self._items: list[tuple[float, int, Message]] = []
        self._order = itertools.count()
        self._trigger: Callable[[Sequence[Message], float], None] | None = None
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
        """Messages held for ``pop``, whether due yet or not."""
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

    def push(self, *msgs: Message, due: Sequence[float] | None = None) -> float:
        """Add ``msgs`` in order, under one reading of the clock.

        Returns that stamp (the acknowledgment). Each message is stamped
        with it, or, given ``due``, a sequence in step with ``msgs``, with
        its own due stamp, and ``pop`` hands it out once the clock reaches
        that stamp. A due stamp that is NaN or before the push's stamp, or
        a ``due`` of another length, raises ``ValueError``, and a due push
        onto a queue with a trigger :class:`ConfigurationError`, before
        anything is queued. If a
        trigger is registered the messages and the stamp are handed to it
        in one call instead of being queued; the callback runs in the
        pushing thread, outside the queue lock. A push of no messages
        changes nothing and calls no trigger.
        """
        with self._lock:
            ts = self._clock.now()
            action = self._trigger
            if due is not None:
                if len(due) != len(msgs):
                    raise ValueError(f"{len(due)} due stamps for {len(msgs)} messages")
                entries = sorted(zip(due, self._order, msgs))
                # A NaN can sort anywhere, but it makes the sum NaN.
                total = sum(due)
                if entries and not (entries[0][0] >= ts and total == total):
                    raise ValueError(
                        f"due stamps must be numbers at or after the push's stamp {ts}")
                if action is not None:
                    raise ConfigurationError(
                        f"queue {self._name!r} has a trigger and takes no due push")
            self._pushed += len(msgs)
            if action is not None:
                self._delivered += len(msgs)
            else:
                if due is None:
                    entries = zip(itertools.repeat(ts), self._order, msgs)
                items = self._items
                if items:
                    for entry in entries:
                        heapq.heappush(items, entry)
                else:
                    items.extend(entries)  # a sorted list is a heap
                self._cond.notify(len(msgs))
        if action is not None and msgs:
            action(msgs, ts)
        return ts

    def pop(self, timeout: float | None = None) -> tuple[Message, float] | None:
        """Remove the head message once it is due; return it with its stamp.

        Until the head is due, waits on the clock until the earlier of the
        head's stamp and the deadline, firing any clock event due by then
        first. Returns ``None`` (the timeout signal) if nothing falls due
        within ``timeout`` seconds on the queue's clock, and leaves the
        clock at the deadline; a timeout of 0 or below polls once.
        ``timeout=None`` blocks indefinitely, and a NaN timeout raises
        :class:`ConfigurationError` before any wait.
        """
        if timeout != timeout:  # only NaN differs from itself
            raise ConfigurationError("queue pop timeout must not be NaN")
        clock = self._clock
        deadline = None if timeout is None else clock.now() + timeout
        items = self._items
        with self._lock:
            while True:
                until = None
                if items:
                    until = items[0][0]
                    if until <= clock.now():
                        _, _, msg = heapq.heappop(items)
                        self._delivered += 1
                        return msg, until
                if deadline is not None:
                    if deadline <= clock.now():
                        return None
                    if until is None or deadline < until:
                        until = deadline
                clock.wait(self._cond, until)

    def register_trigger(self, action: Callable[[Sequence[Message], float], None]) -> None:
        """Invoke ``action(msgs, ts)`` once per push from now on, with the
        push's messages and its stamp.

        Pending messages are handed to the trigger at once, in order, in
        one call per run of messages that share a stamp. A queue takes one
        trigger; registering a second, or one while a message is pending
        that is not due yet, raises :class:`ConfigurationError`.
        """
        with self._lock:
            if self._trigger is not None:
                raise ConfigurationError(f"queue {self._name!r} already has a trigger")
            backlog = sorted(self._items)
            if backlog and backlog[-1][0] > self._clock.now():
                raise ConfigurationError(
                    f"queue {self._name!r} holds a message that is not due yet")
            self._trigger = action
            self._items.clear()
            self._delivered += len(backlog)
        for ts, run in itertools.groupby(backlog, key=itemgetter(0)):
            action(tuple(msg for _, _, msg in run), ts)


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
