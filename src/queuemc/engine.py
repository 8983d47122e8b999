"""MCMC coordinator.

Holds every walker's state as arrays: positions ``(W, dim)`` and cached
log-posteriors ``(W,)``. Each iteration it proposes symmetric Gaussian
random-walk moves, dispatches one likelihood request per walker through
the queue fabric, applies Metropolis-Hastings acceptance to the returned
values, and optionally permutes walker states between iterations.

Iterations are lockstep: all walkers' responses are collected before any
acceptance decision, which keeps the total likelihood budget at exactly
n_walkers * n_iterations and makes the sampler bit-reproducible for a
fixed seed on any backend computing identical likelihood values. Walker w
draws its proposal and its acceptance uniform from its own RNG stream w;
exchange draws from one further stream. Exchange runs between iterations, when no
request is in flight.

Walker log-posteriors start at -inf, so the first proposal is always
accepted and doubles as the initialization evaluation.

A request's only identity is its msg_id, ``req-<n>``, where n counts on
from ``input_q.pushed_count`` at the start of the run, so no id repeats
across runs on one queue pair. Responses are matched to walkers through a
per-iteration msg_id map, so arrival order is irrelevant. A response that
matches no pending request, such as a leftover from an aborted earlier
run, raises :class:`DuplicateResponseError` and is never used; a control
message with an empty msg_id reports a transport fault and aborts the run.
Any package error that aborts a run carries the iterations completed
before it as ``partial_output``.

On a virtual clock a run with no ``response_timeout_s`` waits until its
responses arrive; if the clock runs out of events first, no response can
arrive any more and the run raises :class:`MissingResponseError`.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .clocks import VirtualClock
from .errors import (DuplicateResponseError, MissingResponseError,
                     NotFoundError, QueueMCError, SimulationStalledError,
                     WorkerCrashError)
from .fabric import Message, MessageKind, Queue
from .payloads import (LikelihoodRequest, pack_request, parse_error,
                       unpack_response)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChainConfig:
    n_walkers: int
    n_iterations: int
    proposal_scale: float | Sequence[float] = 1.0
    exchange_period: int = 0  # 0 disables exchange
    seed: int = 0

    def validate(self) -> None:
        if self.n_walkers < 1 or self.n_iterations < 1:
            raise ValueError("n_walkers and n_iterations must be at least 1")
        if np.any(np.asarray(self.proposal_scale, dtype=np.float64) <= 0):
            raise ValueError("proposal_scale entries must be positive")
        if self.exchange_period < 0:
            raise ValueError("exchange_period must be >= 0")


@dataclass(frozen=True)
class TimelineRecord:
    walker_id: int
    iteration: int
    dispatch_ts: float
    complete_ts: float


@dataclass
class ChainOutput:
    """Everything a run produced: samples, acceptance, and the timeline."""

    samples: np.ndarray          # (n_walkers, n_iterations, dim)
    log_posts: np.ndarray        # (n_walkers, n_iterations)
    accepted: np.ndarray         # (n_walkers, n_iterations) bool
    timeline: list[TimelineRecord]
    exchange_log: list[tuple[int, np.ndarray]] = field(default_factory=list)
    backend: str = "?"
    complete: bool = True

    @property
    def accept_counts(self) -> np.ndarray:
        return self.accepted.sum(axis=1)

    @property
    def n_walkers(self) -> int:
        return self.samples.shape[0]

    @property
    def n_iterations(self) -> int:
        return self.samples.shape[1]


def mh_step(log_post: float, proposed_log_post: float, u: float) -> bool:
    """One Metropolis-Hastings decision for a symmetric proposal.

    Accepts iff ln(u) < proposed_log_post - log_post.
    """
    log_u = math.log(u) if u > 0.0 else -math.inf
    return log_u < (proposed_log_post - log_post)


def propose(position: np.ndarray, proposal_scale: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    """Symmetric Gaussian random-walk proposal from the walker's own stream."""
    return position + rng.normal(0.0, proposal_scale)


def exchange_step(positions: np.ndarray, log_posts: np.ndarray,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Swap (position, log_post) between uniformly random walker pairs.

    A pure permutation of identical-target walkers leaves the joint
    posterior invariant, so every sampled pair swaps. Returns the new
    positions, the new log-posteriors and the applied permutation p, where
    row i now holds the state formerly in row p[i].
    """
    n = len(log_posts)
    order = rng.permutation(n)
    perm = np.arange(n)
    for i in range(0, n - 1, 2):
        a, b = order[i], order[i + 1]
        perm[a], perm[b] = b, a
    return positions[perm], log_posts[perm], perm


def run_chains(config: ChainConfig, plane, input_q: Queue, output_q: Queue, *,
               init_positions: np.ndarray,
               dataset_key: str = "",
               data_param_count: int | None = None,
               log_prior: Callable[[np.ndarray], float] | None = None,
               response_timeout_s: float | None = None) -> ChainOutput:
    """Run the full lockstep sampler against an attached compute plane.

    Parameters
    ----------
    init_positions : (n_walkers, dim) starting points (never emitted as
        samples; the first accepted proposal is the first sample).
    dataset_key : object-store key of the cluster container, or a
        ``stub:<seconds>`` key for timing runs.
    data_param_count : how many leading position coordinates are sent to
        the workers (hierarchical hyperparameters stay coordinator-side);
        defaults to the full position.
    log_prior : coordinator-side log prior over the full position vector
        (default flat).
    response_timeout_s : per-iteration collection timeout; on a virtual
        clock the default is to wait until the responses arrive, elsewhere
        ten times the backend's modeled likelihood duration.
    """
    config.validate()
    w_count, n_iter = config.n_walkers, config.n_iterations
    init = np.asarray(init_positions, dtype=np.float64)
    if init.ndim == 1:
        init = init[:, None]
    if init.shape[0] != w_count:
        raise ValueError(f"init_positions rows ({init.shape[0]}) != n_walkers ({w_count})")
    dim = init.shape[1]
    scale = np.broadcast_to(
        np.asarray(config.proposal_scale, dtype=np.float64), (dim,)).copy()
    n_send = dim if data_param_count is None else int(data_param_count)
    if not 0 < n_send <= dim:
        raise ValueError("data_param_count must be in [1, dim]")
    prior = log_prior if log_prior is not None else (lambda pos: 0.0)
    clock = output_q.clock
    timeout = response_timeout_s
    if timeout is None and not isinstance(clock, VirtualClock):
        timeout = 10.0 * plane.model.likelihood_duration_s

    root = np.random.SeedSequence(config.seed)
    streams = root.spawn(w_count + 1)
    rngs = [np.random.default_rng(s) for s in streams[:w_count]]
    exchange_rng = np.random.default_rng(streams[w_count])

    positions = init.copy()
    current_lp = np.full(w_count, -math.inf)
    proposals = np.empty_like(positions)
    samples = np.empty((w_count, n_iter, dim))
    log_posts = np.empty((w_count, n_iter))
    accepted = np.zeros((w_count, n_iter), dtype=bool)
    timeline: list[TimelineRecord] = []
    exchange_log: list[tuple[int, np.ndarray]] = []
    first_id = input_q.pushed_count

    try:
        for it in range(n_iter):
            for w in range(w_count):
                proposals[w] = propose(positions[w], scale, rngs[w])
            walker_of: dict[str, int] = {}
            dispatch_ts = [0.0] * w_count
            for w in range(w_count):
                msg_id = f"req-{first_id + it * w_count + w}"
                payload = pack_request(LikelihoodRequest(
                    params=proposals[w, :n_send], dataset_key=dataset_key))
                ack = input_q.push(Message(
                    msg_id=msg_id, kind=MessageKind.LIKELIHOOD_REQUEST, payload=payload))
                walker_of[msg_id] = w
                dispatch_ts[w] = ack.enqueue_ts

            replies: list[Message | None] = [None] * w_count
            deadline = None if timeout is None else clock.now() + timeout
            while walker_of:
                try:
                    msg = output_q.pop(
                        timeout=None if deadline is None else deadline - clock.now())
                except SimulationStalledError:  # no event left can answer
                    msg = None
                if msg is None:
                    raise MissingResponseError(walker_of)
                w = walker_of.pop(msg.msg_id, None)
                if msg.kind is MessageKind.CONTROL and (w is not None or not msg.msg_id):
                    err = parse_error(msg.payload)
                    code, detail = err if err else ("worker-crash", "unexpected control message")
                    if code == "dataset-not-found":
                        raise NotFoundError(detail)
                    raise WorkerCrashError(f"{code}: {detail}")
                if w is None:
                    raise DuplicateResponseError(
                        f"response {msg.msg_id!r} matches no pending request")
                replies[w] = msg

            for w, msg in enumerate(replies):
                resp = unpack_response(msg.payload)
                proposed_lp = resp.log_likelihood + float(prior(proposals[w]))
                u = float(rngs[w].random())
                if mh_step(current_lp[w], proposed_lp, u):
                    positions[w] = proposals[w]
                    current_lp[w] = proposed_lp
                    accepted[w, it] = True
                timeline.append(TimelineRecord(
                    walker_id=w, iteration=it, dispatch_ts=dispatch_ts[w],
                    complete_ts=msg.enqueue_ts))
            samples[:, it] = positions
            log_posts[:, it] = current_lp

            if config.exchange_period and (it + 1) % config.exchange_period == 0:
                positions, current_lp, perm = exchange_step(positions, current_lp, exchange_rng)
                exchange_log.append((it, perm))
    except QueueMCError as exc:
        exc.partial_output = ChainOutput(
            samples=samples[:, :it].copy(), log_posts=log_posts[:, :it].copy(),
            accepted=accepted[:, :it].copy(), timeline=timeline[:it * w_count],
            exchange_log=exchange_log, backend=plane.backend, complete=False)
        raise

    return ChainOutput(samples=samples, log_posts=log_posts, accepted=accepted,
                       timeline=timeline, exchange_log=exchange_log,
                       backend=plane.backend)


def write_chain_csv(output: ChainOutput, path) -> None:
    """Chain CSV: one row per (walker, iteration), shortest-roundtrip floats."""
    dim = output.samples.shape[2]
    header = "walker,iteration,accepted,log_post," + ",".join(
        f"param_{d}" for d in range(dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for w in range(output.n_walkers):
            for it in range(output.n_iterations):
                cells = [str(w), str(it), str(int(output.accepted[w, it])),
                         repr(float(output.log_posts[w, it]))]
                cells.extend(repr(float(v)) for v in output.samples[w, it])
                fh.write(",".join(cells) + "\n")


def write_timeline_csv(output: ChainOutput, path) -> None:
    """Timeline CSV: dispatch and completion stamps per request."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("walker,iteration,dispatch_ts,complete_ts\n")
        for rec in output.timeline:
            fh.write(f"{rec.walker_id},{rec.iteration},"
                     f"{rec.dispatch_ts!r},{rec.complete_ts!r}\n")
