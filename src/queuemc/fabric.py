"""FIFO message queues with trigger semantics.

The fabric connects the coordinator to the compute plane. Producers push
immutable :class:`Message` values; each message is delivered exactly once,
in push order, either to a blocking consumer (:meth:`Queue.pop`) or to a
registered trigger callback, mirroring a queue service that instantiates
a function per delivered message.

A message's only identity is its ``msg_id``: a response carries the id of
the request it answers, and that id is all a consumer matches on.

Messages serialize to a line-oriented wire format used by the remote worker
protocol: one flat JSON object per line with the keys ``msg_id``, ``kind``,
``enqueue_ts`` and ``payload_b64`` (the payload in base64), in that order.
"""

from __future__ import annotations

import base64
import enum
import json
import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

from .clocks import Clock, WallClock
from .errors import (ConfigurationError, DuplicateQueueError, QueueClosedError,
                     WireFormatError)


class MessageKind(str, enum.Enum):
    LIKELIHOOD_REQUEST = "likelihood_request"
    LIKELIHOOD_RESPONSE = "likelihood_response"
    CONTROL = "control"


@dataclass(frozen=True, slots=True)
class Message:
    """One unit of work or one result crossing a queue.

    ``enqueue_ts`` is stamped by the queue at push time from the fabric's
    clock; the value passed at construction is a placeholder. A control
    message with an empty ``msg_id`` answers no request: it reports a fault
    of the transport itself, such as a lost worker connection.
    """

    msg_id: str
    kind: MessageKind
    payload: bytes
    enqueue_ts: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.kind, MessageKind):
            object.__setattr__(self, "kind", MessageKind(self.kind))


# Wire field order is fixed; decoders reject unknown keys.
_WIRE_KEYS = ("msg_id", "kind", "enqueue_ts", "payload_b64")


def encode_message(m: Message) -> str:
    """Serialize one message to a single UTF-8 line (no trailing newline)."""
    record = {
        "msg_id": m.msg_id,
        "kind": m.kind.value,
        "enqueue_ts": m.enqueue_ts,
        "payload_b64": base64.b64encode(m.payload).decode("ascii"),
    }
    return json.dumps(record, separators=(",", ":"))


def decode_message(line: str | bytes) -> Message:
    """Parse one wire line back into a :class:`Message`.

    Raises :class:`WireFormatError` on malformed JSON, missing fields, or
    unknown keys.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireFormatError(f"wire line is not UTF-8: {exc}") from exc
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise WireFormatError(f"wire line is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise WireFormatError("wire record must be a flat object")
    if set(record) != set(_WIRE_KEYS):
        unknown = set(record) - set(_WIRE_KEYS)
        missing = set(_WIRE_KEYS) - set(record)
        raise WireFormatError(f"bad wire keys: unknown={sorted(unknown)} missing={sorted(missing)}")
    try:
        return Message(
            msg_id=str(record["msg_id"]),
            kind=MessageKind(record["kind"]),
            payload=base64.b64decode(record["payload_b64"], validate=True),
            enqueue_ts=float(record["enqueue_ts"]),
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise WireFormatError(f"bad wire field: {exc}") from exc


class Queue:
    """A named FIFO queue, safe for concurrent producers and consumers.

    Delivery is exactly-once: a message goes either to one ``pop`` caller
    or to the queue's trigger callback. A queue has at most one trigger,
    which takes over delivery once registered; messages already pending at
    registration are drained into it, matching platform trigger semantics
    for a backlog.
    """

    def __init__(self, name: str, clock: Clock, record_deliveries: bool = False) -> None:
        self._name = name
        self._clock = clock
        self._cond = threading.Condition()
        self._items: deque[Message] = deque()
        self._trigger: Callable[[Message], None] | None = None
        self._closed = False
        self._pushed = 0
        self._delivered = 0
        self.push_log: list[str] | None = [] if record_deliveries else None
        self.delivery_log: list[str] | None = [] if record_deliveries else None

    @property
    def name(self) -> str:
        return self._name

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def pending_count(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def pushed_count(self) -> int:
        with self._cond:
            return self._pushed

    @property
    def delivered_count(self) -> int:
        with self._cond:
            return self._delivered

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def push(self, m: Message) -> Message:
        """Append ``m``, stamped with the current clock time.

        Returns the stamped message (the acknowledgment). If a trigger is
        registered the message is handed to it instead of being queued;
        the callback runs in the pushing thread, outside the queue lock.
        """
        with self._cond:
            if self._closed:
                raise QueueClosedError(f"queue {self._name!r} is closed")
            stamped = replace(m, enqueue_ts=self._clock.now())
            self._pushed += 1
            if self.push_log is not None:
                self.push_log.append(stamped.msg_id)
            action = self._trigger
            if action is not None:
                self._delivered += 1
                if self.delivery_log is not None:
                    self.delivery_log.append(stamped.msg_id)
            else:
                self._items.append(stamped)
                self._cond.notify()
        if action is not None:
            action(stamped)
        return stamped

    def pop(self, timeout: float | None = None) -> Message | None:
        """Remove and return the head message.

        Returns ``None`` (the timeout signal) if nothing arrives within
        ``timeout`` seconds on the queue's clock. ``timeout=None`` blocks
        indefinitely. Raises :class:`QueueClosedError` once the queue is
        closed and drained.
        """
        deadline = None if timeout is None else self._clock.now() + timeout
        with self._cond:
            while True:
                if self._items:
                    m = self._items.popleft()
                    self._delivered += 1
                    if self.delivery_log is not None:
                        self.delivery_log.append(m.msg_id)
                    return m
                if self._closed:
                    raise QueueClosedError(f"queue {self._name!r} is closed")
                remaining = None if deadline is None else deadline - self._clock.now()
                if remaining is not None and remaining <= 0:
                    return None
                self._clock.wait(self._cond, remaining)

    def register_trigger(self, action: Callable[[Message], None]) -> None:
        """Invoke ``action`` exactly once for every message delivered from now on.

        Pending messages are drained into the trigger immediately. A queue
        takes one trigger; registering a second raises
        :class:`ConfigurationError`.
        """
        with self._cond:
            if self._closed:
                raise QueueClosedError(f"queue {self._name!r} is closed")
            if self._trigger is not None:
                raise ConfigurationError(f"queue {self._name!r} already has a trigger")
            self._trigger = action
            backlog = list(self._items)
            self._items.clear()
            self._delivered += len(backlog)
            if self.delivery_log is not None:
                self.delivery_log.extend(m.msg_id for m in backlog)
        for m in backlog:
            action(m)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class QueueFabric:
    """Registry of named queues sharing one clock."""

    def __init__(self, clock: Clock | None = None, record_deliveries: bool = False) -> None:
        self.clock = clock if clock is not None else WallClock()
        self._record = record_deliveries
        self._queues: dict[str, Queue] = {}
        self._lock = threading.Lock()

    def create_queue(self, name: str) -> Queue:
        with self._lock:
            if name in self._queues:
                raise DuplicateQueueError(f"queue {name!r} already exists")
            q = Queue(name, self.clock, record_deliveries=self._record)
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
