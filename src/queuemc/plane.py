"""Compute plane: executes likelihood invocations delivered by queue triggers.

Three interchangeable backends sit behind the same queue contract (every
request message on the input queue yields exactly one response message on
the output queue):

* ``sim``    a deterministic discrete-event model of an elastic
             function-as-a-service platform running on a virtual clock;
             task math still runs for real, but all timestamps are modeled.
* ``local``  a fixed-size thread pool on the wall clock, used for
             correctness tests and small fits.
* ``remote`` a socket client that forwards requests to worker processes
             speaking the framed wire protocol (see ``queuemc.remote``).

All three execute a request the same way: :meth:`TaskRunner.run` unpacks
it, runs a stub or the kernel and classifies any failure, and
:func:`respond` packs the response or error message. ``local`` and the
remote worker stamp, run, sleep out a stub and stamp again on the wall
clock (:func:`execute`); ``sim`` takes the stamps from its scheduler.

The simulated platform provisions warm instances along a doubling ramp:
instance n becomes available ``scale_doubling_interval_s * log2(n / c0)``
seconds after the first request arrives (the first ``c0`` are immediate),
so the time to reach N instances grows logarithmically in N. Each
invocation occupies one instance for a cold-start penalty on first use,
plus a warm invocation latency, plus the task duration.
"""

from __future__ import annotations

import heapq
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import kernel
from .clocks import VirtualClock
from .datasets import read_container
from .errors import ConfigurationError, NotFoundError
from .fabric import Message, MessageKind, Queue
from .payloads import (LikelihoodResponse, pack_error, pack_response,
                       unpack_request)

log = logging.getLogger(__name__)

STUB_KEY_PREFIX = "stub:"


@dataclass(frozen=True)
class BackendModel:
    """Latency parameters of the simulated elastic platform.

    Only the ``sim`` backend reads a model; ``local`` and ``remote`` run
    on the wall clock and take none. Invalid values raise
    :class:`ConfigurationError` at construction.
    """

    cold_start_s: float = 2.0
    warm_invoke_s: float = 0.05
    initial_capacity: int = 3
    scale_doubling_interval_s: float = 7.0
    max_concurrency: int | None = None
    likelihood_duration_s: float = 100.0
    jitter_std_s: float = 0.0

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not (0 <= self.cold_start_s < math.inf and 0 <= self.warm_invoke_s < math.inf):
            raise ConfigurationError("latencies must be finite and non-negative")
        if self.initial_capacity < 1:
            raise ConfigurationError("initial_capacity must be at least 1")
        if not 0 < self.scale_doubling_interval_s < math.inf:
            raise ConfigurationError("scale_doubling_interval_s must be finite and positive")
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ConfigurationError("max_concurrency must be at least 1 or None")
        if not 0 < self.likelihood_duration_s < math.inf:
            raise ConfigurationError("likelihood_duration_s must be finite and positive")
        if not 0 <= self.jitter_std_s < math.inf:
            raise ConfigurationError("jitter_std_s must be finite and non-negative")

    def ramp_delay(self, n: int) -> float:
        """Seconds after the ramp origin at which instance ``n`` (1-based)
        becomes available."""
        if n <= self.initial_capacity:
            return 0.0
        return self.scale_doubling_interval_s * math.log2(n / self.initial_capacity)


@dataclass(frozen=True, slots=True)
class InvocationRecord:
    """One executed request: when it was dispatched, started and finished.

    On ``sim`` every stamp is on the virtual clock and on ``local`` every
    stamp is on the fabric's wall clock. On ``remote`` ``dispatch_ts`` is
    on the coordinator's clock, while ``start_ts`` and ``end_ts`` are on the
    worker's, which has its own origin: compare them only with each other.
    ``msg_id`` is the request's sequence number (see :mod:`queuemc.engine`).
    """

    msg_id: int
    worker_id: str
    dispatch_ts: float
    start_ts: float
    end_ts: float
    cold: bool


def make_stub_key(duration_s: float) -> str:
    """Dataset-key spelling that marks a request as a timed stub task."""
    return f"{STUB_KEY_PREFIX}{duration_s!r}"


class TaskRunner:
    """Runs request messages against the object store, caching parsed datasets.

    The cache models container reuse on a warm instance: the first kernel
    task touching a key pays the parse (reported as a cold invocation),
    later ones reuse the in-memory datasets.
    """

    def __init__(self, store=None,
                 likelihood_fn: Callable[[np.ndarray, list | None], float] | None = None):
        self._store = store
        self._fn = likelihood_fn
        self._cache: dict[str, list] = {}
        self._lock = threading.Lock()

    def run(self, msg: Message) -> tuple[float | tuple[str, str], bool, float | None]:
        """Execute one request; return (result, cold, stub_s).

        ``result`` is the log-likelihood, or a ``(code, detail)`` pair when
        the task failed: ``dataset-not-found`` for an unresolvable key,
        ``non-finite-likelihood`` for a NaN or +inf log-likelihood (-inf is
        a legal zero likelihood), ``worker-crash`` for anything else. Keys
        of the form ``stub:<seconds>`` are stub tasks: they return a
        log-likelihood of 0 and ``stub_s``, the seconds the caller keeps the
        worker busy; a duration that is not finite and >= 0 is a
        ``worker-crash``.
        ``stub_s`` is None for every other task.
        """
        try:
            req = unpack_request(msg.payload)
            key = req.dataset_key
            if key.startswith(STUB_KEY_PREFIX):
                stub_s = float(key[len(STUB_KEY_PREFIX):])
                if not 0.0 <= stub_s < math.inf:
                    raise ValueError(f"stub duration {stub_s!r} is not finite and >= 0")
                return 0.0, False, stub_s
            datasets, cold = self._load(key) if key else (None, False)
            if self._fn is not None:
                value = float(self._fn(req.params, datasets))
            elif datasets is None:
                raise ConfigurationError(
                    "kernel task carries no dataset key and no likelihood override")
            else:
                n = len(datasets)
                if req.params.size % n != 0:
                    raise ValueError(
                        f"{req.params.size} parameters do not split over {n} clusters")
                value = kernel.evaluate(req.params.reshape(n, -1), datasets)
        except NotFoundError as exc:
            return ("dataset-not-found", str(exc)), False, None
        except Exception as exc:  # surfaced, never retried
            # The detail travels in the control message; a failing wave
            # would otherwise log one traceback per walker.
            log.debug("worker failed on %s", msg.msg_id, exc_info=True)
            return ("worker-crash", repr(exc)), False, None
        if math.isnan(value) or value == math.inf:
            return ("non-finite-likelihood", repr(value)), False, None
        return value, cold, None

    def _load(self, key: str) -> tuple[list, bool]:
        with self._lock:
            if key in self._cache:
                return self._cache[key], False
        if self._store is None:
            raise NotFoundError(f"no object store attached; cannot resolve {key!r}")
        datasets = read_container(self._store.get(key))
        with self._lock:
            self._cache.setdefault(key, datasets)
            return self._cache[key], True


def respond(msg: Message, result: float | tuple[str, str],
            rec: InvocationRecord) -> Message:
    """The one response to ``msg``: a likelihood response stamped from
    ``rec``, or a control message carrying the ``(code, detail)`` error."""
    if isinstance(result, tuple):
        return Message(msg.msg_id, MessageKind.CONTROL, pack_error(*result))
    return Message(msg.msg_id, MessageKind.LIKELIHOOD_RESPONSE, pack_response(
        LikelihoodResponse(result, rec.cold, rec.start_ts, rec.end_ts)))


def execute(runner: TaskRunner, clock, msg: Message) -> tuple[Message, InvocationRecord]:
    """Run one request on a wall clock: stamp, run, sleep out a stub, stamp.

    Returns the response and the invocation record of the calling thread.
    """
    start = clock.now()
    result, cold, stub_s = runner.run(msg)
    if stub_s is not None:
        time.sleep(stub_s)
    rec = InvocationRecord(msg_id=msg.msg_id, worker_id=threading.current_thread().name,
                           dispatch_ts=msg.enqueue_ts, start_ts=start,
                           end_ts=clock.now(), cold=cold)
    return respond(msg, result, rec), rec


class SimScheduler:
    """Assigns invocations to simulated instances.

    Greedy earliest-completion choice between reusing the
    earliest-available existing instance and provisioning the next one on
    the doubling ramp (ties prefer reuse, which skips the cold start).
    Optional Gaussian start jitter, truncated at zero, is drawn per
    invocation from a seeded stream.
    """

    def __init__(self, model: BackendModel, seed: int = 0):
        self._model = model
        self._rng = np.random.default_rng(seed)
        # (next_free_ts, instance number, worker id)
        self._free: list[tuple[float, int, str]] = []
        self._provisioned = 0
        self._origin: float | None = None
        self._next_ramp: float | None = None  # when the next instance is provisioned

    def assign(self, msg_id: int, dispatch_ts: float, duration: float) -> InvocationRecord:
        m = self._model
        if self._origin is None:
            self._origin = dispatch_ts
        jitter = 0.0
        if m.jitter_std_s > 0:
            jitter = max(0.0, m.jitter_std_s * float(self._rng.standard_normal()))

        free = self._free
        reuse_ready = max(dispatch_ts, free[0][0]) + m.warm_invoke_s if free else math.inf
        fresh_ready = math.inf
        if m.max_concurrency is None or self._provisioned < m.max_concurrency:
            if self._next_ramp is None:
                self._next_ramp = self._origin + m.ramp_delay(self._provisioned + 1)
            fresh_ready = max(dispatch_ts, self._next_ramp) + m.cold_start_s + m.warm_invoke_s
        if not math.isfinite(reuse_ready) and not math.isfinite(fresh_ready):
            raise ConfigurationError("no instance available and concurrency limit reached")

        if reuse_ready <= fresh_ready:
            _, wid, worker_id = heapq.heappop(free)
            start, cold = reuse_ready + jitter, False
        else:
            self._provisioned += 1
            self._next_ramp = None
            wid = self._provisioned
            worker_id = f"sim-{wid:05d}"
            start, cold = fresh_ready + jitter, True
        end = start + duration
        heapq.heappush(free, (end, wid, worker_id))
        return InvocationRecord(msg_id, worker_id, dispatch_ts, start, end, cold)


def simulate(requests: Iterable[tuple[int, float, float]], model: BackendModel,
             seed: int = 0) -> list[InvocationRecord]:
    """Schedule a set of pending requests on a fresh simulated platform.

    ``requests`` yields ``(msg_id, dispatch_ts, duration_s)`` triples;
    they are processed in dispatch order (stable for ties). Each msg_id is
    copied to its record unchanged, whatever its type: the schedule never
    reads it. Deterministic given the model, the request set, and the
    jitter seed.
    """
    sched = SimScheduler(model, seed=seed)
    ordered = sorted(enumerate(requests), key=lambda kv: (kv[1][1], kv[0]))
    return [sched.assign(msg_id, ts, dur) for _, (msg_id, ts, dur) in ordered]


class _PlaneBase:
    backend = "?"

    def __init__(self):
        self._records: list[InvocationRecord] = []
        self._records_lock = threading.Lock()

    @property
    def records(self) -> list[InvocationRecord]:
        with self._records_lock:
            return list(self._records)

    def _record(self, rec: InvocationRecord) -> None:
        with self._records_lock:
            self._records.append(rec)

    def close(self) -> None:
        pass


class SimulatedPlane(_PlaneBase):
    """Deterministic virtual-time backend.

    Stub results are produced instantly in wall time; kernel tasks run
    their math for real, but all timestamps (including the response's
    arrival on the output queue) come from the virtual clock plus the
    modeled latency.
    """

    backend = "sim"

    def __init__(self, input_q: Queue, output_q: Queue, model: BackendModel, *,
                 store=None, likelihood_fn=None, seed: int = 0):
        super().__init__()
        clock = input_q.clock
        if not isinstance(clock, VirtualClock):
            raise ConfigurationError("simulated backend requires a VirtualClock fabric")
        self._model = model
        self._clock = clock
        self._output_q = output_q
        self._runner = TaskRunner(store, likelihood_fn)
        self._sched = SimScheduler(model, seed=seed)
        input_q.register_trigger(self._on_message)

    def _on_message(self, msg: Message) -> None:
        result, _, stub_s = self._runner.run(msg)
        rec = self._sched.assign(
            msg.msg_id, msg.enqueue_ts,
            self._model.likelihood_duration_s if stub_s is None else stub_s)
        self._record(rec)
        self._clock.schedule(rec.end_ts, self._output_q.push, respond(msg, result, rec))


class LocalPoolPlane(_PlaneBase):
    """Fixed-size thread pool on the wall clock."""

    backend = "local"

    def __init__(self, input_q: Queue, output_q: Queue, *,
                 store=None, likelihood_fn=None, pool_size: int = 4):
        super().__init__()
        if pool_size < 1:
            raise ConfigurationError("pool_size must be at least 1")
        self._clock = output_q.clock
        self._output_q = output_q
        self._runner = TaskRunner(store, likelihood_fn)
        self._pool = ThreadPoolExecutor(max_workers=pool_size,
                                        thread_name_prefix="qmc-worker")
        input_q.register_trigger(self._dispatch)

    def _dispatch(self, msg: Message) -> None:
        self._pool.submit(self._work, msg)

    def _work(self, msg: Message) -> None:
        resp, rec = execute(self._runner, self._clock, msg)
        self._record(rec)
        self._output_q.push(resp)

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def attach_backend(input_q: Queue, output_q: Queue, backend: str,
                   model: BackendModel | None = None, *, store=None, likelihood_fn=None,
                   pool_size: int = 4, remote_addr=None, seed: int = 0):
    """Wire a compute backend to a queue pair.

    After this call every message delivered on ``input_q`` produces
    exactly one message on ``output_q``: a likelihood response carrying
    the request's msg_id, or a control message surfacing a worker error.

    ``model`` and ``seed`` configure the simulated platform and reach
    ``sim`` only, where ``model`` defaults to ``BackendModel()``; the
    wall-clock backends ignore them.
    """
    if backend == "sim":
        model = BackendModel() if model is None else model
        return SimulatedPlane(input_q, output_q, model, store=store,
                              likelihood_fn=likelihood_fn, seed=seed)
    if backend == "local":
        return LocalPoolPlane(input_q, output_q, store=store,
                              likelihood_fn=likelihood_fn, pool_size=pool_size)
    if backend == "remote":
        if remote_addr is None:
            raise ConfigurationError("remote backend requires remote_addr")
        from .remote import RemoteWorkerClient
        return RemoteWorkerClient(input_q, output_q, remote_addr)
    raise ConfigurationError(f"unknown backend {backend!r}")
