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
    """Latency parameters of the simulated elastic platform."""

    cold_start_s: float = 2.0
    warm_invoke_s: float = 0.05
    initial_capacity: int = 3
    scale_doubling_interval_s: float = 7.0
    max_concurrency: int | None = None
    likelihood_duration_s: float = 100.0
    jitter_std_s: float = 0.0

    def validate(self) -> None:
        if self.cold_start_s < 0 or self.warm_invoke_s < 0:
            raise ConfigurationError("latencies must be non-negative")
        if self.initial_capacity < 1:
            raise ConfigurationError("initial_capacity must be at least 1")
        if self.scale_doubling_interval_s <= 0:
            raise ConfigurationError("scale_doubling_interval_s must be positive")
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ConfigurationError("max_concurrency must be at least 1 or None")
        if self.likelihood_duration_s <= 0:
            raise ConfigurationError("likelihood_duration_s must be positive")
        if self.jitter_std_s < 0:
            raise ConfigurationError("jitter_std_s must be non-negative")

    def ramp_delay(self, n: int) -> float:
        """Seconds after the ramp origin at which instance ``n`` (1-based)
        becomes available."""
        if n <= self.initial_capacity:
            return 0.0
        return self.scale_doubling_interval_s * math.log2(n / self.initial_capacity)


@dataclass(frozen=True)
class InvocationRecord:
    msg_id: str
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
        ``worker-crash`` for anything else. Keys of the form
        ``stub:<seconds>`` are stub tasks: they return a log-likelihood of
        0 and ``stub_s``, the seconds the caller keeps the worker busy;
        ``stub_s`` is None for every other task.
        """
        try:
            req = unpack_request(msg.payload)
            key = req.dataset_key
            if key.startswith(STUB_KEY_PREFIX):
                return 0.0, False, float(key[len(STUB_KEY_PREFIX):])
            datasets, cold = self._load(key) if key else (None, False)
            if self._fn is not None:
                return float(self._fn(req.params, datasets)), cold, None
            if datasets is None:
                raise ConfigurationError(
                    "kernel task carries no dataset key and no likelihood override")
            n = len(datasets)
            if req.params.size % n != 0:
                raise ValueError(f"{req.params.size} parameters do not split over {n} clusters")
            return kernel.evaluate(req.params.reshape(n, -1), datasets), cold, None
        except NotFoundError as exc:
            return ("dataset-not-found", str(exc)), False, None
        except Exception as exc:  # surfaced, never retried
            log.exception("worker failed on %s", msg.msg_id)
            return ("worker-crash", repr(exc)), False, None

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
        kind, payload = MessageKind.CONTROL, pack_error(*result)
    else:
        kind = MessageKind.LIKELIHOOD_RESPONSE
        payload = pack_response(LikelihoodResponse(
            log_likelihood=result, cold=rec.cold,
            compute_start_ts=rec.start_ts, compute_end_ts=rec.end_ts))
    return Message(msg_id=msg.msg_id, kind=kind, payload=payload)


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
        model.validate()
        self._model = model
        self._rng = np.random.default_rng(seed)
        self._free: list[tuple[float, int]] = []  # (next_free_ts, instance number)
        self._provisioned = 0
        self._origin: float | None = None

    def assign(self, msg_id: str, dispatch_ts: float, duration: float) -> InvocationRecord:
        m = self._model
        if self._origin is None:
            self._origin = dispatch_ts
        jitter = 0.0
        if m.jitter_std_s > 0:
            jitter = max(0.0, m.jitter_std_s * float(self._rng.standard_normal()))

        reuse_ready = math.inf
        if self._free:
            free_at, _ = self._free[0]
            reuse_ready = max(dispatch_ts, free_at) + m.warm_invoke_s
        fresh_ready = math.inf
        if m.max_concurrency is None or self._provisioned < m.max_concurrency:
            n = self._provisioned + 1
            avail = max(dispatch_ts, self._origin + m.ramp_delay(n))
            fresh_ready = avail + m.cold_start_s + m.warm_invoke_s
        if not math.isfinite(reuse_ready) and not math.isfinite(fresh_ready):
            raise ConfigurationError("no instance available and concurrency limit reached")

        if reuse_ready <= fresh_ready:
            _, wid = heapq.heappop(self._free)
            ready, cold = reuse_ready, False
        else:
            self._provisioned += 1
            wid = self._provisioned
            ready, cold = fresh_ready, True

        start = ready + jitter
        end = start + duration
        heapq.heappush(self._free, (end, wid))
        return InvocationRecord(msg_id=msg_id, worker_id=f"sim-{wid:05d}",
                                dispatch_ts=dispatch_ts, start_ts=start,
                                end_ts=end, cold=cold)


def simulate(requests: Iterable[tuple[str, float, float]], model: BackendModel,
             seed: int = 0) -> list[InvocationRecord]:
    """Schedule a set of pending requests on a fresh simulated platform.

    ``requests`` yields ``(msg_id, dispatch_ts, duration_s)`` triples;
    they are processed in dispatch order (stable for ties). Deterministic
    given the model, the request set, and the jitter seed.
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
        model.validate()
        clock = input_q.clock
        if not isinstance(clock, VirtualClock):
            raise ConfigurationError("simulated backend requires a VirtualClock fabric")
        self.model = model
        self._clock = clock
        self._output_q = output_q
        self._runner = TaskRunner(store, likelihood_fn)
        self._sched = SimScheduler(model, seed=seed)
        input_q.register_trigger(self._on_message)

    def _on_message(self, msg: Message) -> None:
        result, _, stub_s = self._runner.run(msg)
        duration = self.model.likelihood_duration_s if stub_s is None else stub_s
        rec = self._sched.assign(msg.msg_id, msg.enqueue_ts, duration)
        self._record(rec)
        resp = respond(msg, result, rec)
        self._clock.schedule(rec.end_ts, lambda: self._output_q.push(resp))


class LocalPoolPlane(_PlaneBase):
    """Fixed-size thread pool on the wall clock."""

    backend = "local"

    def __init__(self, input_q: Queue, output_q: Queue, model: BackendModel, *,
                 store=None, likelihood_fn=None, pool_size: int = 4):
        super().__init__()
        model.validate()
        if pool_size < 1:
            raise ConfigurationError("pool_size must be at least 1")
        self.model = model
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
                   model: BackendModel, *, store=None, likelihood_fn=None,
                   pool_size: int = 4, remote_addr=None, seed: int = 0):
    """Wire a compute backend to a queue pair.

    After this call every message delivered on ``input_q`` produces
    exactly one message on ``output_q``: a likelihood response carrying
    the request's msg_id, or a control message surfacing a worker error.
    """
    model.validate()
    if backend == "sim":
        return SimulatedPlane(input_q, output_q, model, store=store,
                              likelihood_fn=likelihood_fn, seed=seed)
    if backend == "local":
        return LocalPoolPlane(input_q, output_q, model, store=store,
                              likelihood_fn=likelihood_fn, pool_size=pool_size)
    if backend == "remote":
        if remote_addr is None:
            raise ConfigurationError("remote backend requires remote_addr")
        from .remote import RemoteWorkerClient
        return RemoteWorkerClient(input_q, output_q, model, remote_addr)
    raise ConfigurationError(f"unknown backend {backend!r}")
