"""MCMC coordinator.

Holds every walker's state as arrays: positions ``(W, dim)`` and cached
log-posteriors ``(W,)``. Each iteration it proposes symmetric Gaussian
random-walk moves, dispatches one likelihood request per walker through
the queue fabric, applies Metropolis-Hastings acceptance to the returned
values, and optionally permutes walker states between iterations.

Iterations are lockstep: all walkers' responses are collected before any
acceptance decision, which keeps the total likelihood budget at exactly
n_walkers * n_iterations and makes the sampler bit-reproducible for a
fixed seed on any backend computing identical likelihood values. A run
draws from one stream, child 0 of ``SeedSequence(seed)`` (not
``default_rng(seed)``, which ``qmc fit`` draws start points from), in a
fixed order per iteration: all proposals as one ``(W, dim)`` draw, then W
acceptance uniforms, then on an exchange iteration the permutation, so
``exchange_period`` changes every later draw. Exchange runs between
iterations, when no request is in flight.

Walker log-posteriors start at -inf, so the first proposal is always
accepted and doubles as the initialization evaluation. A log-likelihood or
log-prior of -inf is a legal zero density and is rejected; NaN or +inf (a
worker's ``non-finite-likelihood`` answer, or the prior evaluated on the
coordinator) aborts the run with :class:`NonFiniteDensityError`.

A request's only identity is its msg_id, the int ``first_id + it * W + w``
for walker w of iteration it, where ``first_id`` is ``input_q.pushed_count``
at the start of the run, so no id repeats across runs on one queue pair.
A response's walker is its msg_id minus the iteration's first id, so
arrival order is irrelevant. An answer with ``0 <= msg_id < first_id`` is
owed to an earlier run that aborted before collecting it: it is logged,
dropped and never used. Any other response that matches no pending request
raises :class:`DuplicateResponseError`; a control message with msg_id
:data:`~queuemc.fabric.NO_REQUEST` reports a transport fault and aborts the
run. Any package error that aborts a run carries the iterations completed
before it as ``partial_output``.

With no ``response_timeout_s`` a run waits for every response, on any
clock. On a virtual clock that wait is finite: once the clock runs out of
events, no response can arrive any more and the run raises
:class:`MissingResponseError`. On the wall clock a worker that never
answers stalls the run, so callers that must finish pass a timeout.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigurationError, DuplicateResponseError,
                     MissingResponseError, NonFiniteDensityError, NotFoundError,
                     QueueMCError, SimulationStalledError, WorkerCrashError)
from .fabric import NO_REQUEST, Message, MessageKind, Queue
from .payloads import (LikelihoodRequest, pack_request, parse_error,
                       unpack_response)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChainConfig:
    """Sampler settings; invalid values raise :class:`ConfigurationError`
    at construction."""

    n_walkers: int
    n_iterations: int
    proposal_scale: float | Sequence[float] = 1.0
    exchange_period: int = 0  # 0 disables exchange
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_walkers < 1 or self.n_iterations < 1:
            raise ConfigurationError("n_walkers and n_iterations must be at least 1")
        scale = np.asarray(self.proposal_scale, dtype=np.float64)
        if not np.all((0 < scale) & (scale < np.inf)):
            raise ConfigurationError("proposal_scale entries must be finite and positive")
        if self.exchange_period < 0:
            raise ConfigurationError("exchange_period must be >= 0")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigurationError("seed must be a non-negative integer")


@dataclass(frozen=True, slots=True)
class TimelineRecord:
    walker_id: int
    iteration: int
    dispatch_ts: float
    complete_ts: float


@dataclass
class ChainOutput:
    """Everything a run produced: samples, acceptance, and request stamps."""

    samples: np.ndarray          # (n_walkers, n_iterations, dim)
    log_posts: np.ndarray        # (n_walkers, n_iterations)
    accepted: np.ndarray         # (n_walkers, n_iterations) bool
    dispatch_ts: np.ndarray      # (n_walkers, n_iterations) request push stamps
    complete_ts: np.ndarray      # (n_walkers, n_iterations) response arrival stamps
    exchange_log: list[tuple[int, np.ndarray]] = field(default_factory=list)
    backend: str = "?"
    complete: bool = True

    @property
    def timeline(self) -> tuple[TimelineRecord, ...]:
        """One record per request, iteration-major then walker, built on each access."""
        dispatch, complete = self.dispatch_ts.T.tolist(), self.complete_ts.T.tolist()
        return tuple(TimelineRecord(w, it, d, c)
                     for it, (d_row, c_row) in enumerate(zip(dispatch, complete))
                     for w, (d, c) in enumerate(zip(d_row, c_row)))

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

    Accepts iff ln(u) < proposed_log_post - log_post. A proposal of zero
    density (-inf) is rejected, also from a state of zero density.
    """
    if proposed_log_post == -math.inf:
        return False
    log_u = math.log(u) if u > 0.0 else -math.inf
    return log_u < (proposed_log_post - log_post)


def propose(position: np.ndarray, proposal_scale: np.ndarray,
            rng: np.random.Generator) -> np.ndarray:
    """Symmetric Gaussian random-walk proposal for one position or a
    ``(W, dim)`` array of them, one row per walker, drawn in row order.

    The same draws and bits as ``position + rng.normal(0.0, scale)`` with
    ``scale`` the ``proposal_scale`` broadcast to ``position``'s shape,
    without ``normal``'s per-call check of the scale's sign. The ``+ 0.0``
    is ``normal``'s zero location: it turns a step of -0.0 into +0.0.
    """
    return position + (rng.standard_normal(position.shape) * proposal_scale + 0.0)


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
    response_timeout_s : per-iteration collection timeout; None waits for
        every response (see the module docstring).
    """
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
    clock = output_q.clock
    push, pop = input_q.push, output_q.pop

    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))

    positions = init.copy()
    current_lp = np.full(w_count, -math.inf)
    samples = np.empty((w_count, n_iter, dim))
    log_posts = np.empty((w_count, n_iter))
    accepted = np.zeros((w_count, n_iter), dtype=bool)
    dispatch_ts = np.empty((w_count, n_iter))
    complete_ts = np.empty((w_count, n_iter))
    exchange_log: list[tuple[int, np.ndarray]] = []
    first_id = input_q.pushed_count

    try:
        for it in range(n_iter):
            proposals = propose(positions, scale, rng)
            base = first_id + it * w_count
            dispatched: list[float] = []
            for w, proposal in enumerate(proposals):
                payload = pack_request(LikelihoodRequest(proposal[:n_send], dataset_key))
                dispatched.append(push(Message(
                    base + w, MessageKind.LIKELIHOOD_REQUEST, payload)).enqueue_ts)

            replies: list[Message | None] = [None] * w_count
            owed = w_count
            deadline = (None if response_timeout_s is None
                        else clock.now() + response_timeout_s)
            while owed:
                try:
                    msg = pop(None if deadline is None else deadline - clock.now())
                except SimulationStalledError:  # no event left can answer
                    msg = None
                if msg is None:
                    raise MissingResponseError(
                        [base + w for w, reply in enumerate(replies) if reply is None])
                if 0 <= msg.msg_id < first_id:
                    log.info("dropping response %d, owed to an earlier run", msg.msg_id)
                    continue
                w = msg.msg_id - base
                pending = 0 <= w < w_count and replies[w] is None
                if msg.kind is MessageKind.CONTROL and (pending or msg.msg_id == NO_REQUEST):
                    err = parse_error(msg.payload)
                    code, detail = err if err else ("worker-crash", "unexpected control message")
                    if code == "dataset-not-found":
                        raise NotFoundError(detail)
                    if code == "non-finite-likelihood":
                        raise NonFiniteDensityError(f"log-likelihood {detail}")
                    raise WorkerCrashError(f"{code}: {detail}")
                if not pending:
                    raise DuplicateResponseError(
                        f"response {msg.msg_id} matches no pending request")
                replies[w] = msg
                owed -= 1

            uniforms = rng.random(w_count).tolist()
            for w, msg in enumerate(replies):
                log_lik = unpack_response(msg.payload).log_likelihood
                lp_prior = 0.0 if log_prior is None else float(log_prior(proposals[w]))
                proposed_lp = log_lik + lp_prior
                if math.isnan(proposed_lp) or proposed_lp == math.inf:
                    raise NonFiniteDensityError(
                        f"log-posterior {proposed_lp!r} for walker {w}: log-likelihood "
                        f"{log_lik!r}, log-prior {lp_prior!r}")
                if mh_step(current_lp[w], proposed_lp, uniforms[w]):
                    positions[w] = proposals[w]
                    current_lp[w] = proposed_lp
                    accepted[w, it] = True
            samples[:, it] = positions
            log_posts[:, it] = current_lp
            dispatch_ts[:, it] = dispatched
            complete_ts[:, it] = [msg.enqueue_ts for msg in replies]

            if config.exchange_period and (it + 1) % config.exchange_period == 0:
                positions, current_lp, perm = exchange_step(positions, current_lp, rng)
                exchange_log.append((it, perm))
    except QueueMCError as exc:
        exc.partial_output = ChainOutput(
            samples=samples[:, :it].copy(), log_posts=log_posts[:, :it].copy(),
            accepted=accepted[:, :it].copy(), dispatch_ts=dispatch_ts[:, :it].copy(),
            complete_ts=complete_ts[:, :it].copy(), exchange_log=exchange_log,
            backend=plane.backend, complete=False)
        raise

    return ChainOutput(samples=samples, log_posts=log_posts, accepted=accepted,
                       dispatch_ts=dispatch_ts, complete_ts=complete_ts,
                       exchange_log=exchange_log, backend=plane.backend)


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
