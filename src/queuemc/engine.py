"""MCMC coordinator.

Holds every walker's state as arrays: positions ``(W, dim)`` and cached
log-posteriors ``(W,)``. Each iteration it proposes symmetric Gaussian
random-walk moves, dispatches one likelihood request per walker through
the queue fabric, all of an iteration's requests in one push, and applies
Metropolis-Hastings acceptance to the returned values. Row w of the
output is walker w's own Markov chain.

Iterations are lockstep: all walkers' responses are collected before any
acceptance decision, which keeps the total likelihood budget at exactly
n_walkers * n_iterations and makes the sampler bit-reproducible for a
fixed seed on any backend computing identical likelihood values. A run
draws from one stream, child 0 of ``SeedSequence(seed)`` (not
``default_rng(seed)``, which ``qmc fit`` draws start points from), in a
fixed order per iteration: all proposals as one ``(W, dim)`` draw, then W
acceptance uniforms. An iteration's requests are packed from one stack,
and its responses are decoded and its acceptance is decided for all
walkers at once, with the same arithmetic as one :func:`mh_step` per
walker.

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

With no ``response_timeout_s``, or an infinite one, a run waits for every
response, on any clock. On a virtual clock that wait is finite: once the
output queue holds no answer and the clock runs out of events, no response
can arrive any more and the run raises :class:`MissingResponseError`. On the wall clock a worker that never
answers stalls the run, so callers that must finish pass a timeout.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (ConfigurationError, DuplicateResponseError,
                     MissingResponseError, NonFiniteDensityError, NotFoundError,
                     QueueMCError, SimulationStalledError, WorkerCrashError)
from .fabric import NO_REQUEST, Message, MessageKind, Queue
from .payloads import pack_request, parse_error, unpack_response

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChainConfig:
    """Sampler settings; invalid values raise :class:`ConfigurationError`
    at construction."""

    n_walkers: int
    n_iterations: int
    proposal_scale: float | Sequence[float] = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_walkers < 1 or self.n_iterations < 1:
            raise ConfigurationError("n_walkers and n_iterations must be at least 1")
        # Written so that NaN fails it. A scale has few entries, and on
        # Python floats a scalar's check takes a quarter of the array form's.
        scale = np.asarray(self.proposal_scale, dtype=np.float64)
        if not all(0 < s < math.inf for s in scale.ravel().tolist()):
            raise ConfigurationError("proposal_scale entries must be finite and positive")
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
    dispatch_ts: np.ndarray      # (n_walkers, n_iterations) push stamp of each iteration's wave
    complete_ts: np.ndarray      # (n_walkers, n_iterations) response arrival stamps
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


def mh_step(log_post: float | np.ndarray, proposed_log_post: float | np.ndarray,
            u: float | Sequence[float]) -> bool | np.ndarray:
    """One Metropolis-Hastings decision for a symmetric proposal, or one per
    walker for arrays of log-posteriors and a sequence of uniforms.

    Accepts iff ln(u) < proposed_log_post - log_post. A proposal of zero
    density (-inf) is rejected, also from a state of zero density. The
    array form returns a bool array from the same IEEE subtraction and
    comparison per walker, with ln(u) from :func:`math.log`, and no
    warning where the difference overflows or, from -inf to -inf, is NaN,
    which rejects.
    """
    if isinstance(proposed_log_post, np.ndarray):
        try:
            log_u = np.fromiter(map(math.log, u), np.float64, len(u))
        except ValueError:  # math.log refuses u = 0, whose ln is -inf
            log_u = np.array([math.log(x) if x > 0.0 else -math.inf for x in u])
        with np.errstate(over="ignore", invalid="ignore"):
            diff = proposed_log_post - log_post
        return log_u < diff
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
    response_timeout_s : per-iteration collection timeout, above 0 (inf
        is allowed); None waits for every response (see the module
        docstring).
    """
    w_count, n_iter = config.n_walkers, config.n_iterations
    init = np.asarray(init_positions, dtype=np.float64)
    if init.ndim == 1:
        init = init[:, None]
    if init.shape[0] != w_count:
        raise ValueError(f"init_positions rows ({init.shape[0]}) != n_walkers ({w_count})")
    dim = init.shape[1]
    scale = np.empty(dim)
    scale[...] = np.asarray(config.proposal_scale, dtype=np.float64)
    n_send = dim if data_param_count is None else int(data_param_count)
    if not 0 < n_send <= dim:
        raise ConfigurationError("data_param_count must be in [1, dim]")
    # Written so that NaN fails it.
    if response_timeout_s is not None and not response_timeout_s > 0:
        raise ConfigurationError(
            f"response_timeout_s must be above 0 or None, got {response_timeout_s!r}")
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
    first_id = input_q.pushed_count
    kinds = itertools.repeat(MessageKind.LIKELIHOOD_REQUEST)
    zeros = np.zeros(w_count)

    try:
        for it in range(n_iter):
            proposals = propose(positions, scale, rng)
            base = first_id + it * w_count
            dispatched = push(*map(Message, range(base, base + w_count), kinds,
                                   pack_request(proposals[:, :n_send], dataset_key)))

            replies: list[tuple[Message, float] | None] = [None] * w_count
            owed = w_count
            deadline = (None if response_timeout_s is None
                        else clock.now() + response_timeout_s)
            while owed:
                try:
                    reply = pop(None if deadline is None else deadline - clock.now())
                except SimulationStalledError:  # no event left can answer
                    reply = None
                if reply is None:
                    raise MissingResponseError(
                        [base + w for w, got in enumerate(replies) if got is None])
                msg = reply[0]
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
                replies[w] = reply
                owed -= 1

            uniforms = rng.random(w_count).tolist()
            log_lik = unpack_response([msg.payload for msg, _ in replies])
            if log_prior is None:
                lp_prior = zeros
                proposed_lp = log_lik + zeros
            else:
                lp_prior = np.array([float(log_prior(p)) for p in proposals])
                # As with floats: an overflow gives ±inf, -inf + inf NaN, silently.
                with np.errstate(over="ignore", invalid="ignore"):
                    proposed_lp = log_lik + lp_prior
            if not proposed_lp.max() < math.inf:  # NaN fails it too
                w = int(np.flatnonzero(~(proposed_lp < math.inf))[0])
                raise NonFiniteDensityError(
                    f"log-posterior {float(proposed_lp[w])!r} for walker {w}: "
                    f"log-likelihood {float(log_lik[w])!r}, "
                    f"log-prior {float(lp_prior[w])!r}")
            acc = mh_step(current_lp, proposed_lp, uniforms)
            np.copyto(positions, proposals, where=acc[:, None])
            np.copyto(current_lp, proposed_lp, where=acc)
            accepted[:, it] = acc
            samples[:, it] = positions
            log_posts[:, it] = current_lp
            dispatch_ts[:, it] = dispatched
            complete_ts[:, it] = [ts for _, ts in replies]
    except QueueMCError as exc:
        exc.partial_output = ChainOutput(
            samples=samples[:, :it].copy(), log_posts=log_posts[:, :it].copy(),
            accepted=accepted[:, :it].copy(), dispatch_ts=dispatch_ts[:, :it].copy(),
            complete_ts=complete_ts[:, :it].copy(), backend=plane.backend,
            complete=False)
        raise

    return ChainOutput(samples=samples, log_posts=log_posts, accepted=accepted,
                       dispatch_ts=dispatch_ts, complete_ts=complete_ts,
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
    """Timeline CSV: dispatch and completion stamps per request,
    iteration-major then walker."""
    dispatch, complete = output.dispatch_ts.T.tolist(), output.complete_ts.T.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("walker,iteration,dispatch_ts,complete_ts\n")
        for it, (d_row, c_row) in enumerate(zip(dispatch, complete)):
            fh.writelines(f"{w},{it},{d!r},{c!r}\n"
                          for w, (d, c) in enumerate(zip(d_row, c_row)))
