"""Compute plane: executes likelihood invocations delivered by queue triggers.

Three interchangeable backends sit behind the same queue contract (every
request message on the input queue yields exactly one response message on
the output queue):

* ``sim``    a deterministic discrete-event model of an elastic
             function-as-a-service platform running on a virtual clock;
             task math still runs for real, but all timestamps are modeled.
* ``local``  a fixed-size thread pool on the wall clock, used for
             correctness tests and small fits; it evaluates the kernel
             requests of one push in batches.
* ``remote`` a socket client that forwards requests to worker processes
             speaking the framed wire protocol (see ``queuemc.remote``).

All three execute requests the same way: :meth:`TaskRunner.run` takes a
batch of them, a single request being a batch of one, unpacks them, runs
a stub or the kernel and classifies any failure, and :func:`respond`
packs the batch's responses, in one :func:`pack_response` call, and its
error messages. ``local`` and the remote worker stamp, run, sleep out a
stub and stamp again on the wall clock (:func:`execute`), which answers
every request of its pass with ``worker-crash`` on a fault outside the
task; ``sim`` takes the stamps from its scheduler, for a whole push in
one :meth:`SimScheduler.assign` call.

A queue trigger hands its function all the messages of one push with the
push's stamp, which ``sim`` and ``local`` record as each request's
``dispatch_ts``, and the coordinator pushes each iteration's requests in
one push. The remote worker runs each request alone. ``sim`` and
``local`` cut a push, in order, into passes of
:meth:`TaskRunner.batch_limit` requests on the key of its first request,
as many as keep their model maps within ``PASS_MAP_BYTES``, and give each
pass one :meth:`TaskRunner.run` (on ``local``, one pool task) and one
:func:`kernel.evaluate` pass, which costs less per request than one pass
each and gives each request the same bits. ``likelihood_fn`` requests, and the requests of a push whose
first key is not loaded yet, run alone. So do stub requests on
``local``, where a stub holds its worker for its full duration; ``sim``
runs a stub push in one pass, as its stubs take no wall time. Once its
passes have run, ``sim`` answers the push as one unit: one
:meth:`SimScheduler.assign`, one :func:`respond`, and one virtual-clock
event for each run of answers, adjacent in push order, that fall due at
one time.

The simulated platform provisions warm instances along a doubling ramp:
instance n becomes available ``scale_doubling_interval_s * log2(n / c0)``
seconds after the first request arrives (the first ``c0`` are immediate),
so the time to reach N instances grows logarithmically in N. Each
invocation occupies one instance for a cold-start penalty on first use,
plus a warm invocation latency, plus the task duration.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kernel
from .clocks import VirtualClock
from .datasets import read_container
from .errors import ConfigurationError, NotFoundError, WireFormatError
from .fabric import Message, MessageKind, Queue
from .payloads import pack_error, pack_response, unpack_request

log = logging.getLogger(__name__)

STUB_KEY_PREFIX = "stub:"
# The model maps one local-pool kernel pass may hold for its batch of
# requests. A request of 8 clusters on a 64 × 64 grid takes 8·64²·8 bytes
# (256 KiB), so a pass takes two such requests.
PASS_MAP_BYTES = 2 * 8 * 64 * 64 * 8
# The local pool's thread count unless a caller picks one. The kernel runs
# under the interpreter lock: on 2 vCPUs, 8 clusters at grid 64 ran about
# 1750-1910 evaluations/s on 2 threads and 1550-1680 on 4.
DEFAULT_POOL_SIZE = 2


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


@dataclass(slots=True)
class InvocationRecord:
    """One executed request: when it was dispatched, started and finished.

    On ``sim`` every stamp is on the virtual clock and on ``local`` every
    stamp is on the fabric's wall clock. On ``remote`` ``dispatch_ts`` is
    NaN (the coordinator keeps it, in ``ChainOutput.dispatch_ts``), and
    ``start_ts`` and ``end_ts`` are on the worker's clock, which has its
    own origin: compare them only with each other. ``msg_id`` is the
    request's sequence number (see :mod:`queuemc.engine`). The requests
    of one ``local`` batch share its ``start_ts``, ``end_ts`` and
    ``worker_id``, so summing record intervals counts a batch's interval
    once per request in it. At most one record of a dataset is ``cold``:
    that of the request whose call parsed it, unless it failed. Records
    are not frozen, as a frozen one takes twice as long to build: treat
    them as read-only.
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
    later ones reuse the parsed bundle, whose clusters were grouped and
    whose maps were stacked once, by the parse. A key is fetched and
    parsed under the runner's lock, so it is parsed once.
    """

    def __init__(self, store=None,
                 likelihood_fn: Callable[[np.ndarray, tuple | None], float] | None = None):
        self._store = store
        self._fn = likelihood_fn
        self._cache: dict[str, kernel.DatasetBundle] = {}
        self._lock = threading.Lock()

    def run(self, msgs: Sequence[Message],
            ) -> list[tuple[float | tuple[str, str], bool, float | None]]:
        """Execute a batch of requests; return one (result, cold, stub_s)
        per message, in order.

        ``result`` is the log-likelihood, or a ``(code, detail)`` pair when
        the task failed: ``dataset-not-found`` for an unresolvable key,
        ``non-finite-likelihood`` for a NaN or +inf log-likelihood (-inf is
        a legal zero likelihood), ``worker-crash`` for anything else. Keys
        of the form ``stub:<seconds>`` are stub tasks: they return a
        log-likelihood of 0 and ``stub_s``, the seconds the caller keeps the
        worker busy; a duration that a thread cannot sleep out, one that is
        not between 0 and ``threading.TIMEOUT_MAX``, is a ``worker-crash``.
        ``stub_s`` is None for every other task.

        A single request is a batch of one. The requests of a larger batch
        share a dataset key and a parameter count, and parse as one
        ``(B, n)`` view (:func:`unpack_request` on their payloads); its
        kernel requests take one :func:`kernel.evaluate` pass, whose values
        are bit for bit those of one pass each. If the batch raises, also
        on requests that differ in key or count, each request runs again
        alone, so that each gets the result it gets alone; the first
        request of a batch whose load parsed the container is cold, as it
        would be alone.
        """
        cold = False
        try:
            params, key = unpack_request([msg.payload for msg in msgs])
            if key.startswith(STUB_KEY_PREFIX):
                stub_s = float(key[len(STUB_KEY_PREFIX):])
                if not 0.0 <= stub_s <= threading.TIMEOUT_MAX:
                    raise ValueError(f"stub duration {stub_s!r} cannot be slept out")
                return [(0.0, False, stub_s)] * len(msgs)
            datasets, cold = self._load(key) if key else (None, False)
            if self._fn is not None:
                values = [float(self._fn(row, datasets)) for row in params]
            elif datasets is None:
                raise ConfigurationError(
                    "kernel task carries no dataset key and no likelihood override")
            else:
                n = len(datasets)
                if params.shape[1] % n != 0:
                    raise ValueError(
                        f"{params.shape[1]} parameters do not split over {n} clusters")
                thetas = params.reshape(len(params), n, -1)
                values = kernel.evaluate(thetas, datasets).tolist()
        except Exception as exc:  # surfaced; only a batch's requests run again
            if len(msgs) > 1:
                log.debug("batch of %d failed; running its requests alone", len(msgs),
                          exc_info=True)
                results = [self.run([msg])[0] for msg in msgs]
                result, _, stub_s = results[0]
                if cold and not isinstance(result, tuple):
                    results[0] = (result, True, stub_s)
                return results
            if isinstance(exc, NotFoundError):
                return [(("dataset-not-found", str(exc)), False, None)]
            # The detail travels in the control message; a failing wave
            # would otherwise log one traceback per walker.
            log.debug("worker failed on %s", msgs[0].msg_id, exc_info=True)
            return [(("worker-crash", repr(exc)), False, None)]
        results = []
        for value in values:
            if math.isnan(value) or value == math.inf:
                results.append((("non-finite-likelihood", repr(value)), False, None))
            else:
                results.append((value, cold, None))
            cold = False
        return results

    def batch_limit(self, key: str) -> int:
        """How many requests on ``key`` one kernel pass may take: as many
        as fit their model maps in ``PASS_MAP_BYTES``, at least one. Until
        the key's bundle is loaded, and for stub and ``likelihood_fn``
        requests, it is one."""
        bundle = self._cache.get(key)
        if bundle is None or self._fn is not None:
            return 1
        # A request's model maps take as many bytes as its observed maps.
        per_request = sum(obs.nbytes for *_, obs, _ in bundle.groups)
        return max(1, PASS_MAP_BYTES // max(per_request, 1))

    def _load(self, key: str) -> tuple[kernel.DatasetBundle, bool]:
        """The key's bundle, and whether this call parsed it."""
        with self._lock:
            if key in self._cache:
                return self._cache[key], False
            if self._store is None:
                raise NotFoundError(f"no object store attached; cannot resolve {key!r}")
            bundle = self._cache[key] = read_container(self._store.get(key))
        return bundle, True


def respond(msgs: Sequence[Message],
            results: Sequence[tuple[float | tuple[str, str], bool, float | None]],
            recs: Sequence[InvocationRecord]) -> list[Message]:
    """The one response to each of ``msgs``, in order, given its
    :meth:`TaskRunner.run` result and its record: a likelihood response
    stamped from the record, or a control message carrying the result's
    ``(code, detail)`` error. The payloads take one :func:`pack_response`
    call, in which a failed request packs a log-likelihood of 0 that is
    not sent."""
    payloads = pack_response([0.0 if isinstance(result, tuple) else result
                              for result, _, _ in results],
                             [rec.cold for rec in recs], [rec.start_ts for rec in recs],
                             [rec.end_ts for rec in recs])
    return [Message(msg.msg_id, MessageKind.CONTROL, pack_error(*result))
            if isinstance(result, tuple)
            else Message(msg.msg_id, MessageKind.LIKELIHOOD_RESPONSE, payload)
            for msg, (result, _, _), payload in zip(msgs, results, payloads)]


def execute(runner: TaskRunner, clock, msgs: Sequence[Message], dispatch_ts: float,
            ) -> list[tuple[Message, InvocationRecord | None]]:
    """Run a batch of requests on a wall clock: stamp, run, sleep out the
    stubs, stamp.

    Returns one response and invocation record per message, in order.
    The records share ``dispatch_ts``, the stamp of the push that brought
    the batch, the batch's start and end stamps and the name of the
    calling thread. A fault that :meth:`TaskRunner.run` does not
    classify, such as one while packing a response, answers every request
    of the batch with ``worker-crash`` and no record.
    """
    try:
        start = clock.now()
        results = runner.run(msgs)
        stub_s = sum(s for _, _, s in results if s is not None)
        if stub_s:
            time.sleep(stub_s)
        end = clock.now()
        worker = threading.current_thread().name
        recs = [InvocationRecord(msg.msg_id, worker, dispatch_ts, start, end, cold)
                for msg, (_, cold, _) in zip(msgs, results)]
        return list(zip(respond(msgs, results, recs), recs))
    except Exception as exc:
        log.debug("worker failed on %s", [msg.msg_id for msg in msgs], exc_info=True)
        error = pack_error("worker-crash", repr(exc))
        return [(Message(msg.msg_id, MessageKind.CONTROL, error), None) for msg in msgs]


class SimScheduler:
    """Assigns invocations to simulated instances.

    Greedy earliest-completion choice between reusing the
    earliest-available existing instance and provisioning the next one on
    the doubling ramp (ties prefer reuse, which skips the cold start).
    Optional Gaussian start jitter, truncated at zero, is drawn per
    invocation, in assignment order, from a seeded stream.
    """

    def __init__(self, model: BackendModel, seed: int = 0):
        self._model = model
        self._rng = np.random.default_rng(seed) if model.jitter_std_s > 0 else None
        # (next_free_ts, instance number, worker id)
        self._free: list[tuple[float, int, str]] = []
        self._provisioned = 0
        self._origin: float | None = None
        self._next_ramp: float | None = None  # when the next instance is provisioned

    def assign(self, ids: Sequence, dispatch_ts: Sequence[float],
               durations: Sequence[float]) -> list[InvocationRecord]:
        """Assign invocations in order; return one record each.

        ``ids``, ``dispatch_ts`` and ``durations`` run in step. Each
        invocation is placed after those before it, whether they came in
        this call or an earlier one, so the records do not depend on how
        the invocations are split across calls.
        """
        m = self._model
        warm, cold_start, ramp_delay = m.warm_invoke_s, m.cold_start_s, m.ramp_delay
        if self._rng is None:
            jitters = itertools.repeat(0.0)
        else:
            std = m.jitter_std_s
            jitters = [max(0.0, std * z) for z in self._rng.standard_normal(len(ids)).tolist()]
        free, heappop, heappush = self._free, heapq.heappop, heapq.heappush
        origin, next_ramp, provisioned = self._origin, self._next_ramp, self._provisioned
        records = []
        for msg_id, ts, duration, jitter in zip(ids, dispatch_ts, durations, jitters):
            if origin is None:
                origin = ts
            # Each ``b if b > a else a`` is ``max(a, b)``, NaN included,
            # without the call, which took a fifth of this loop.
            if free:
                free_ts = free[0][0]
                reuse_ready = (free_ts if free_ts > ts else ts) + warm
            else:
                reuse_ready = math.inf
            if next_ramp is None:
                next_ramp = origin + ramp_delay(provisioned + 1)
            fresh_ready = (next_ramp if next_ramp > ts else ts) + cold_start + warm
            if reuse_ready <= fresh_ready:
                _, wid, worker_id = heappop(free)
                start, cold = reuse_ready + jitter, False
            else:
                provisioned += 1
                next_ramp = None
                wid = provisioned
                worker_id = f"sim-{wid:05d}"
                start, cold = fresh_ready + jitter, True
            end = start + duration
            heappush(free, (end, wid, worker_id))
            records.append(InvocationRecord(msg_id, worker_id, ts, start, end, cold))
        self._origin, self._next_ramp, self._provisioned = origin, next_ramp, provisioned
        return records


def simulate(requests: Iterable[tuple[int, float, float]], model: BackendModel,
             seed: int = 0) -> list[InvocationRecord]:
    """Schedule a set of pending requests on a fresh simulated platform.

    ``requests`` yields ``(msg_id, dispatch_ts, duration_s)`` triples;
    they are processed in dispatch order (stable for ties). Each msg_id is
    copied to its record unchanged, whatever its type: the schedule never
    reads it. Deterministic given the model, the request set, and the
    jitter seed.
    """
    ordered = sorted(requests, key=lambda req: req[1])
    return SimScheduler(model, seed=seed).assign([req[0] for req in ordered],
                                                 [req[1] for req in ordered],
                                                 [req[2] for req in ordered])


class _PlaneBase:
    backend = "?"

    def __init__(self):
        self._records: list[InvocationRecord] = []
        self._records_lock = threading.Lock()

    @property
    def records(self) -> list[InvocationRecord]:
        with self._records_lock:
            return list(self._records)

    def _record(self, *recs: InvocationRecord) -> None:
        with self._records_lock:
            self._records.extend(recs)

    def close(self) -> None:
        pass


class SimulatedPlane(_PlaneBase):
    """Deterministic virtual-time backend.

    Stub results are produced instantly in wall time; kernel tasks run
    their math for real, but all timestamps (including the response's
    arrival on the output queue) come from the virtual clock plus the
    modeled latency. A push runs in passes (see the module docstring).
    Its requests are then assigned, recorded and answered in one call
    each, in push order, and each run of adjacent answers that share an
    end stamp arrives in one push, from one clock event at that stamp.
    Events at one time fire in the order they were scheduled, so every
    stamp and the order of the answers are those of one event per answer.
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

    def _on_message(self, msgs: Sequence[Message], ts: float) -> None:
        limit = len(msgs)
        if limit > 1:
            try:
                key = unpack_request(msgs[0].payload)[1]
            except WireFormatError:
                limit = 1
            else:
                if not key.startswith(STUB_KEY_PREFIX):
                    limit = self._runner.batch_limit(key)
        results = []
        for i in range(0, len(msgs), limit):
            results += self._runner.run(msgs[i:i + limit])
        duration = self._model.likelihood_duration_s
        recs = self._sched.assign([msg.msg_id for msg in msgs], [ts] * len(msgs),
                                  [duration if stub_s is None else stub_s
                                   for _, _, stub_s in results])
        self._record(*recs)
        answers = respond(msgs, results, recs)
        schedule, push = self._clock.schedule, self._output_q.push
        # One event per run of adjacent answers that share an end stamp.
        first, end = 0, recs[0].end_ts
        for i, rec in enumerate(recs):
            if rec.end_ts != end:
                schedule(end, push, *answers[first:i])
                first, end = i, rec.end_ts
        schedule(end, push, *answers[first:])


class LocalPoolPlane(_PlaneBase):
    """Fixed-size thread pool on the wall clock, running each push in passes.

    The trigger reads the dataset key of the push's first request and cuts
    the push, in order, into passes of :meth:`TaskRunner.batch_limit`
    requests on that key (``PASS_MAP_BYTES`` of model maps), one pool task
    each; a pass takes one :func:`execute` and pushes its responses in one
    push. Stub requests, ``likelihood_fn`` requests, a malformed first
    request and a key that is not loaded yet make passes of one, so a stub
    holds its worker for its full duration. A pass whose requests do not
    share a key is answered request by request (:meth:`TaskRunner.run`).
    :func:`execute` answers every request of a pass whatever fails, so
    nothing reads the pool's futures.
    """

    backend = "local"

    def __init__(self, input_q: Queue, output_q: Queue, *,
                 store=None, likelihood_fn=None, pool_size: int = DEFAULT_POOL_SIZE):
        super().__init__()
        if pool_size < 1:
            raise ConfigurationError("pool_size must be at least 1")
        self._clock = output_q.clock
        self._output_q = output_q
        self._runner = TaskRunner(store, likelihood_fn)
        self._pool = ThreadPoolExecutor(max_workers=pool_size,
                                        thread_name_prefix="qmc-worker")
        input_q.register_trigger(self._dispatch)

    def _dispatch(self, msgs: Sequence[Message], ts: float) -> None:
        try:
            limit = self._runner.batch_limit(unpack_request(msgs[0].payload)[1])
        except WireFormatError:
            limit = 1
        for i in range(0, len(msgs), limit):
            self._pool.submit(self._work, msgs[i:i + limit], ts)

    def _work(self, batch: Sequence[Message], dispatch_ts: float) -> None:
        done = execute(self._runner, self._clock, batch, dispatch_ts)
        self._record(*[rec for _, rec in done if rec is not None])
        self._output_q.push(*[resp for resp, _ in done])

    def close(self) -> None:
        self._pool.shutdown(wait=True)


def attach_backend(input_q: Queue, output_q: Queue, backend: str,
                   model: BackendModel | None = None, *, store=None, likelihood_fn=None,
                   pool_size: int = DEFAULT_POOL_SIZE, remote_addr=None, seed: int = 0):
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
