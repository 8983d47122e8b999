import argparse
import functools
import itertools
import logging
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuemc import kernel
from queuemc.bench import run_stub_chain
from queuemc.cli import _initial_positions
from queuemc.clocks import VirtualClock
from queuemc.datasets import POPULATION_MEAN, make_synthetic, write_container
from queuemc.diagnostics import discard_burn_in
from queuemc.engine import (ChainConfig, exchange_step, mh_step, propose,
                            run_chains, write_chain_csv)
from queuemc.errors import (ConfigurationError, DuplicateResponseError,
                            MissingResponseError, NonFiniteDensityError,
                            NotFoundError, WorkerCrashError)
from queuemc.fabric import NO_REQUEST, Message, MessageKind, QueueFabric
from queuemc.kernel import hierarchical_log_prior
from queuemc.payloads import LikelihoodResponse, pack_response, parse_error
from queuemc.plane import BackendModel, make_stub_key
from queuemc.store import MemoryObjectStore, content_digest
from tests import kernel_oracle as oracle
from tests.conftest import gaussian_target

# -------------------------------------------------------------- mh_step


def test_equal_density_accepted_at_half():
    assert mh_step(-3.0, -3.0, u=0.5)


def test_minus_inf_proposal_rejected():
    for u in (1e-12, 0.5, 0.999999):
        assert not mh_step(-1.0, -math.inf, u=u)


def test_first_step_from_minus_inf_always_accepts():
    assert mh_step(-math.inf, -1e9, u=0.999999)


def test_acceptance_frequency_matches_ratio():
    # P(accept) = exp(ln 0.3 - 0) = 0.3; Monte Carlo over 1e5 fixed-seed draws.
    rng = np.random.default_rng(2024)
    target = math.log(0.3)
    hits = sum(mh_step(0.0, target, float(rng.random())) for _ in range(100_000))
    assert abs(hits / 100_000 - 0.3) < 0.005


# -------------------------------------------------------------- propose


def test_propose_degenerate_scale_is_identity():
    rng = np.random.default_rng(0)
    position = np.array([2.0, -1.0])
    prop = propose(position, np.array([1e-300, 1e-300]), rng)
    assert np.max(np.abs(prop - position)) < 1e-12


def test_propose_deterministic_given_stream():
    a = propose(np.zeros(3), np.ones(3), np.random.default_rng(42))
    b = propose(np.zeros(3), np.ones(3), np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_propose_moments():
    rng = np.random.default_rng(77)
    position = np.array([1.0, -2.0, 3.0])
    scale = np.array([0.5, 1.0, 2.0])
    draws = np.array([propose(position, scale, rng) for _ in range(100_000)])
    stds = draws.std(axis=0, ddof=1)
    assert np.all(np.abs(stds - scale) / scale < 0.01)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_propose_matches_reference_bit_for_bit(seed, data):
    # The reference draw is position + rng.normal(0.0, scale), the scale
    # broadcast to one position or to a (W, dim) array of them; -0.0
    # positions and subnormal scales are in range.
    dim = data.draw(st.integers(1, 6))
    walkers = data.draw(st.integers(0, 5))  # 0: a single position
    shape = (dim,) if walkers == 0 else (walkers, dim)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    size = math.prod(shape)
    position = np.array(data.draw(st.lists(finite, min_size=size, max_size=size))).reshape(shape)
    scale = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1e300, exclude_min=True),
        min_size=dim, max_size=dim)))
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        for _ in range(3):
            got = propose(position, scale, rng)
            want = position + ref.normal(0.0, np.broadcast_to(scale, shape))
            assert got.tobytes() == want.tobytes()
    assert rng.random() == ref.random()  # both streams advanced alike


# -------------------------------------------------------------- exchange


def test_exchange_two_walkers_swap():
    positions, log_posts = np.array([[1.0], [2.0]]), np.array([-1.0, -2.0])
    new_pos, new_lp, perm = exchange_step(positions, log_posts, np.random.default_rng(0))
    assert perm.tolist() == [1, 0]
    assert new_pos[:, 0].tolist() == [2.0, 1.0]
    assert new_lp.tolist() == [-2.0, -1.0]
    assert positions[:, 0].tolist() == [1.0, 2.0]  # inputs are left as they were


def test_exchange_preserves_state_multiset():
    rng = np.random.default_rng(3)
    positions, log_posts = rng.random((9, 1)), rng.random(9)
    new_pos, new_lp, perm = exchange_step(positions, log_posts, rng)
    assert sorted(perm.tolist()) == list(range(9))
    assert np.array_equal(new_pos, positions[perm])
    assert np.array_equal(new_lp, log_posts[perm])
    before = sorted(zip(positions[:, 0], log_posts))
    after = sorted(zip(new_pos[:, 0], new_lp))
    assert before == after


def test_exchange_permutation_deterministic():
    positions, log_posts = np.arange(100.0)[:, None], np.zeros(100)
    _, _, p1 = exchange_step(positions, log_posts, np.random.default_rng(11))
    _, _, p2 = exchange_step(positions, log_posts, np.random.default_rng(11))
    assert np.array_equal(p1, p2)


# -------------------------------------------------------------- run_chains


def run_gaussian(setup, w, n, seed=0, backend_kwargs=None, **kwargs):
    fabric, input_q, output_q, plane = setup(likelihood_fn=gaussian_target,
                                             **(backend_kwargs or {}))
    config = ChainConfig(n_walkers=w, n_iterations=n,
                         proposal_scale=kwargs.pop("proposal_scale", 1.0),
                         exchange_period=kwargs.pop("exchange_period", 0),
                         seed=seed)
    init = kwargs.pop("init", np.zeros((w, 1)))
    out = run_chains(config, plane, input_q, output_q, init_positions=init,
                     dataset_key="", **kwargs)
    plane.close()
    return out, plane


def test_minimal_run_single_walker(sim_setup):
    def constant(params, datasets):
        return -1.5

    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=constant)
    config = ChainConfig(n_walkers=1, n_iterations=1, proposal_scale=1.0, seed=0)
    out = run_chains(config, plane, input_q, output_q,
                     init_positions=np.zeros((1, 1)), dataset_key="")
    assert out.samples.shape == (1, 1, 1)
    assert out.accepted[0, 0]  # first step always accepts from -inf
    assert out.log_posts[0, 0] == -1.5
    assert out.complete


def test_iteration_increments_on_reject(sim_setup):
    # The first wave is accepted from -inf; every later proposal is -inf and
    # rejected, yet each iteration still records the kept state.
    calls = itertools.count()

    def first_wave_only(params, datasets):
        return 0.0 if next(calls) < 3 else -math.inf

    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=first_wave_only)
    config = ChainConfig(n_walkers=3, n_iterations=4, proposal_scale=1.0, seed=2)
    out = run_chains(config, plane, input_q, output_q,
                     init_positions=np.zeros((3, 1)), dataset_key="")
    assert out.accepted[:, 0].all() and not out.accepted[:, 1:].any()
    assert np.all(out.samples == out.samples[:, :1])
    assert np.all(out.log_posts == 0.0)


def test_timeline_counts_events(sim_setup):
    out, _ = run_gaussian(sim_setup, w=10, n=100)
    assert len(out.timeline) == 1000
    for rec in out.timeline:
        assert rec.complete_ts >= rec.dispatch_ts


def test_likelihood_budget_is_walkers_times_iterations(sim_setup):
    out, plane = run_gaussian(sim_setup, w=7, n=23)
    assert len(plane.records) == 7 * 23
    assert np.all(out.accept_counts <= 23)


def test_request_response_bijection(sim_setup):
    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=gaussian_target)
    config = ChainConfig(n_walkers=5, n_iterations=4, proposal_scale=1.0, seed=3)
    run_chains(config, plane, input_q, output_q, init_positions=np.zeros((5, 1)),
               dataset_key="")
    # The trigger runs requests in push order, which is msg_id order.
    assert [r.msg_id for r in plane.records] == list(range(20))
    stats = fabric.stats()
    for name in ("input", "output"):
        assert stats[name] == {"pushed": 20, "delivered": 20, "pending": 0}


def test_fixed_seed_reproducible_on_sim(sim_setup):
    a, _ = run_gaussian(sim_setup, w=6, n=30, seed=9)
    b, _ = run_gaussian(sim_setup, w=6, n=30, seed=9)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.log_posts, b.log_posts)
    assert np.array_equal(a.accepted, b.accepted)


def test_sim_and_local_backends_sample_identically(sim_setup, local_setup):
    a, _ = run_gaussian(sim_setup, w=4, n=25, seed=5)
    b, _ = run_gaussian(local_setup, w=4, n=25, seed=5)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.accepted, b.accepted)
    assert a.backend == "sim" and b.backend == "local"


def test_exchange_period_runs_and_logs(sim_setup):
    out, _ = run_gaussian(sim_setup, w=6, n=10, exchange_period=2, seed=1)
    assert [it for it, _ in out.exchange_log] == [1, 3, 5, 7, 9]
    for _, perm in out.exchange_log:
        assert sorted(perm.tolist()) == list(range(6))


def test_exchange_disabled_produces_no_log(sim_setup):
    out, _ = run_gaussian(sim_setup, w=6, n=10, exchange_period=0, seed=1)
    assert out.exchange_log == []


# -------------------------------------------------------------- random stream


def test_chain_draws_from_one_stream_in_a_fixed_order(sim_setup):
    # Per iteration: all proposals, then the acceptance uniforms, then the
    # exchange permutation, all from child 0 of SeedSequence(seed).
    w_count, n_iter, period, seed = 5, 7, 2, 13
    scale = np.array([0.5, 2.0])
    init = np.arange(2.0 * w_count).reshape(w_count, 2)
    out, _ = run_gaussian(sim_setup, w=w_count, n=n_iter, seed=seed, proposal_scale=scale,
                          exchange_period=period, init=init)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    positions, current = init.copy(), np.full(w_count, -math.inf)
    for it in range(n_iter):
        proposals = positions + rng.normal(0.0, np.broadcast_to(scale, positions.shape))
        uniforms = rng.random(w_count)
        for w in range(w_count):
            proposed = gaussian_target(proposals[w], None)
            if mh_step(current[w], proposed, uniforms[w]):
                positions[w], current[w] = proposals[w], proposed
        assert np.array_equal(out.samples[:, it], positions)
        assert np.array_equal(out.log_posts[:, it], current)
        if (it + 1) % period == 0:
            positions, current, _ = exchange_step(positions, current, rng)


def test_one_walker_chain_without_exchange_keeps_its_digest():
    # Child 0 of SeedSequence(seed): one normal and one uniform per iteration.
    out = run_stub_chain(1, 5, BackendModel(), seed=3)
    assert chain_digest(out) == "6d6ccc6706f960e2"


def test_chain_stream_is_not_the_start_point_stream(sim_setup):
    # qmc fit draws start points from default_rng(seed). Were the chain's
    # stream the same, its first step would repeat the start noise.
    seed, w_count, dim = 4, 6, 3
    config = ChainConfig(n_walkers=w_count, n_iterations=1, proposal_scale=1.0, seed=seed)
    center = np.zeros(dim)
    init = _initial_positions(argparse.Namespace(init=None), 1, dim, dim, config)
    fabric, input_q, output_q, plane = sim_setup()
    out = run_chains(config, plane, input_q, output_q, init_positions=init,
                     dataset_key=make_stub_key(1.0))
    assert out.accepted[:, 0].all()
    assert not np.allclose(out.samples[:, 0] - init, init - center)


def test_unexpected_response_rejected(sim_setup):
    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=gaussian_target)
    rogue = Message(msg_id=99, kind=MessageKind.LIKELIHOOD_RESPONSE,
                    payload=pack_response(LikelihoodResponse(0.0, False, 0, 0)))
    output_q.push(rogue)
    config = ChainConfig(n_walkers=2, n_iterations=1, proposal_scale=1.0, seed=0)
    with pytest.raises(DuplicateResponseError) as err:
        run_chains(config, plane, input_q, output_q,
                   init_positions=np.zeros((2, 1)), dataset_key="")
    assert err.value.partial_output.n_iterations == 0


class BlackHolePlane:
    """A plane attached to nothing: requests pushed to its queues vanish."""

    backend = "hole"

    def close(self):
        pass


def test_missing_response_times_out_with_partial_output(local_setup):
    fabric, input_q, output_q, _ = local_setup()
    # A fresh queue pair with no compute attached: requests vanish.
    dead_in = fabric.create_queue("dead-in")
    dead_out = fabric.create_queue("dead-out")
    config = ChainConfig(n_walkers=3, n_iterations=2, proposal_scale=1.0, seed=0)
    with pytest.raises(MissingResponseError) as err:
        run_chains(config, BlackHolePlane(), dead_in, dead_out,
                   init_positions=np.zeros((3, 1)), dataset_key="",
                   response_timeout_s=0.1)
    assert err.value.missing_ids == {0, 1, 2}
    assert err.value.partial_output is not None
    assert not err.value.partial_output.complete
    assert err.value.partial_output.samples.shape == (3, 0, 1)


def test_unanswered_request_on_virtual_time_fails_fast():
    # With no timeout a virtual-time run waits for its responses; once the
    # clock has no event left, none can arrive and the run fails at once.
    fabric = QueueFabric(VirtualClock())
    dead_in, dead_out = fabric.create_queue("dead-in"), fabric.create_queue("dead-out")
    config = ChainConfig(n_walkers=3, n_iterations=2, proposal_scale=1.0, seed=0)
    with pytest.raises(MissingResponseError) as err:
        run_chains(config, BlackHolePlane(), dead_in, dead_out,
                   init_positions=np.zeros((3, 1)), dataset_key="")
    assert len(err.value.missing_ids) == 3
    assert err.value.partial_output.samples.shape == (3, 0, 1)


def test_sim_waits_out_the_provisioning_ramp():
    # Ramping to 64 instances takes about 31 virtual seconds, three times
    # the old default timeout of ten likelihood durations.
    out = run_stub_chain(64, 10, BackendModel(likelihood_duration_s=1.0))
    assert out.complete and out.n_iterations == 10


def test_worker_crash_carries_partial_output(sim_setup):
    calls = itertools.count(1)

    def ninth_call_fails(params, datasets):
        if next(calls) == 9:
            raise RuntimeError("deliberate")
        return gaussian_target(params, datasets)

    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=ninth_call_fails)
    config = ChainConfig(n_walkers=4, n_iterations=5, proposal_scale=1.0, seed=0)
    with pytest.raises(WorkerCrashError) as err:
        run_chains(config, plane, input_q, output_q,
                   init_positions=np.zeros((4, 1)), dataset_key="")
    partial = err.value.partial_output
    assert partial.n_iterations == 2 and not partial.complete
    assert len(partial.timeline) == 8


def test_partial_timeline_keeps_length_and_order(sim_setup):
    # An aborted run's timeline is the full run's, cut before the failed
    # iteration: iteration-major, then walker.
    def stamps(output):
        return [(r.walker_id, r.iteration, r.dispatch_ts, r.complete_ts)
                for r in output.timeline]

    calls = itertools.count(1)

    def ninth_call_fails(params, datasets):
        if next(calls) == 9:
            raise RuntimeError("deliberate")
        return gaussian_target(params, datasets)

    full, _ = run_gaussian(sim_setup, w=4, n=5, seed=0)
    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=ninth_call_fails)
    config = ChainConfig(n_walkers=4, n_iterations=5, proposal_scale=1.0, seed=0)
    with pytest.raises(WorkerCrashError) as err:
        run_chains(config, plane, input_q, output_q,
                   init_positions=np.zeros((4, 1)), dataset_key="")
    partial = stamps(err.value.partial_output)
    assert [(w, it) for w, it, _, _ in partial] == [(w, it) for it in range(2)
                                                     for w in range(4)]
    assert partial == stamps(full)[:8]
    assert len({ts for _, _, ts, _ in partial}) > 1


def test_missing_dataset_carries_partial_output(sim_setup):
    fabric, input_q, output_q, plane = sim_setup(store=MemoryObjectStore())
    config = ChainConfig(n_walkers=2, n_iterations=3, proposal_scale=1.0, seed=0)
    with pytest.raises(NotFoundError) as err:
        run_chains(config, plane, input_q, output_q,
                   init_positions=np.zeros((2, 1)), dataset_key="absent")
    assert err.value.partial_output.n_iterations == 0


def boom(params, datasets):
    raise RuntimeError("deliberate")


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("backend", ["sim", "local"])
def test_non_finite_likelihood_aborts_with_partial_output(backend, value, sim_setup,
                                                         local_setup):
    calls = itertools.count(1)

    def fifth_call_non_finite(params, datasets):
        return value if next(calls) == 5 else gaussian_target(params, datasets)

    setup = sim_setup if backend == "sim" else local_setup
    fabric, input_q, output_q, plane = setup(likelihood_fn=fifth_call_non_finite)
    config = ChainConfig(n_walkers=4, n_iterations=3, proposal_scale=1.0, seed=0)
    try:
        with pytest.raises(NonFiniteDensityError, match=f"log-likelihood {value!r}") as err:
            run_chains(config, plane, input_q, output_q,
                       init_positions=np.zeros((4, 1)), dataset_key="")
    finally:
        plane.close()
    partial = err.value.partial_output
    assert partial.n_iterations == 1 and not partial.complete
    assert np.all(np.isfinite(partial.log_posts))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_prior_aborts_with_partial_output(value, sim_setup):
    calls = itertools.count(1)

    def prior(position):
        return value if next(calls) == 7 else 0.0

    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=gaussian_target)
    config = ChainConfig(n_walkers=3, n_iterations=4, proposal_scale=1.0, seed=0)
    with pytest.raises(NonFiniteDensityError, match=f"log-prior {value!r}") as err:
        run_chains(config, plane, input_q, output_q, init_positions=np.zeros((3, 1)),
                   dataset_key="", log_prior=prior)
    assert err.value.partial_output.n_iterations == 2


def test_minus_inf_prior_is_a_legal_zero_density(sim_setup):
    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=gaussian_target)
    config = ChainConfig(n_walkers=3, n_iterations=4, proposal_scale=1.0, seed=0)
    out = run_chains(config, plane, input_q, output_q, init_positions=np.zeros((3, 1)),
                     dataset_key="", log_prior=lambda position: -math.inf)
    assert out.complete and not out.accepted.any()
    assert np.all(out.log_posts == -math.inf)


def test_failed_wave_logs_no_traceback_per_request(sim_setup, caplog):
    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=boom)
    config = ChainConfig(n_walkers=8, n_iterations=2, proposal_scale=1.0, seed=0)
    with caplog.at_level(logging.DEBUG):
        with pytest.raises(WorkerCrashError, match="deliberate"):
            run_chains(config, plane, input_q, output_q,
                       init_positions=np.zeros((8, 1)), dataset_key="")
    # All eight requests failed, each traceback at DEBUG only.
    assert len([r for r in caplog.records if r.exc_info]) == 8
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING and r.exc_info]


# -------------------------------------------------------------- request identity


@pytest.mark.parametrize("backend", ["sim", "local"])
def test_leftover_responses_are_never_used(backend, sim_setup, local_setup):
    # The first run aborts on a crash with two answers still owed; they
    # carry -123, every later answer -1. Later runs drop them unused.
    calls = itertools.count()

    def crash_then_constant(params, datasets):
        n = next(calls)
        if n == 0:
            raise RuntimeError("deliberate")
        return -123.0 if n < 3 else -1.0

    setup = sim_setup if backend == "sim" else local_setup
    fabric, input_q, output_q, plane = setup(likelihood_fn=crash_then_constant)
    config = ChainConfig(n_walkers=3, n_iterations=1, proposal_scale=1.0, seed=0)

    def run():
        return run_chains(config, plane, input_q, output_q,
                          init_positions=np.zeros((3, 1)), dataset_key="")

    try:
        with pytest.raises(WorkerCrashError):
            run()
        outs = [run(), run()]
    finally:
        plane.close()
    for out in outs:
        assert np.all(out.log_posts == -1.0)


def test_late_response_after_timeout_is_dropped_on_local(local_setup, caplog):
    # One pool thread runs requests in push order, so the first run's two
    # answers, late past its timeout, reach the output queue before any
    # answer of the second run; the second run drops them and uses its own.
    calls = itertools.count()

    def slow_first_run(params, datasets):
        if next(calls) < 2:
            time.sleep(0.3)
            return -123.0
        return -1.0

    fabric, input_q, output_q, plane = local_setup(likelihood_fn=slow_first_run,
                                                   pool_size=1)
    config = ChainConfig(n_walkers=2, n_iterations=1, proposal_scale=1.0, seed=0)

    def run(timeout):
        return run_chains(config, plane, input_q, output_q,
                          init_positions=np.zeros((2, 1)), dataset_key="",
                          response_timeout_s=timeout)

    try:
        with pytest.raises(MissingResponseError) as err:
            run(0.05)
        assert err.value.missing_ids == {0, 1}
        with caplog.at_level(logging.INFO, logger="queuemc.engine"):
            out = run(30.0)
    finally:
        plane.close()
    assert np.all(out.log_posts == -1.0)
    dropped = [r.getMessage() for r in caplog.records if "earlier run" in r.getMessage()]
    assert dropped == [f"dropping response {n}, owed to an earlier run" for n in (0, 1)]


def test_stale_response_dropped_on_sim(sim_setup, caplog):
    # On virtual time the aborted run's answers arrive before the next
    # run's; the next run drops them and completes with its own.
    calls = itertools.count()

    def crash_first(params, datasets):
        if next(calls) == 0:
            raise RuntimeError("deliberate")
        return -1.0

    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=crash_first)
    config = ChainConfig(n_walkers=3, n_iterations=1, proposal_scale=1.0, seed=0)
    with pytest.raises(WorkerCrashError):
        run_chains(config, plane, input_q, output_q,
                   init_positions=np.zeros((3, 1)), dataset_key="")
    with caplog.at_level(logging.INFO, logger="queuemc.engine"):
        out = run_chains(config, plane, input_q, output_q,
                         init_positions=np.zeros((3, 1)), dataset_key="")
    assert np.all(out.log_posts == -1.0)
    dropped = [r.getMessage() for r in caplog.records if "earlier run" in r.getMessage()]
    assert dropped == [f"dropping response {n}, owed to an earlier run" for n in (1, 2)]


def test_duplicate_within_a_run_still_raises(sim_setup):
    # An id at or above the run's first id that matches no pending request
    # is not an earlier run's leftover: id 0 is answered first by the
    # rogue, then by the plane; id 5 is never sent.
    config = ChainConfig(n_walkers=2, n_iterations=1, proposal_scale=1.0, seed=0)
    for rogue_id in (0, 5):
        fabric, input_q, output_q, plane = sim_setup(likelihood_fn=gaussian_target)
        output_q.push(Message(msg_id=rogue_id, kind=MessageKind.LIKELIHOOD_RESPONSE,
                              payload=pack_response(LikelihoodResponse(0.0, False, 0, 0))))
        with pytest.raises(DuplicateResponseError, match=f"response {rogue_id} "):
            run_chains(config, plane, input_q, output_q,
                       init_positions=np.zeros((2, 1)), dataset_key="")


def test_missing_ids_are_the_unanswered_numbers(local_setup):
    # One pool thread answers in push order; the second iteration's last
    # request, id 5, outlasts the timeout while 3 and 4 are answered.
    calls = itertools.count()

    def last_call_slow(params, datasets):
        if next(calls) == 5:
            time.sleep(0.5)
        return -1.0

    fabric, input_q, output_q, plane = local_setup(likelihood_fn=last_call_slow,
                                                   pool_size=1)
    config = ChainConfig(n_walkers=3, n_iterations=2, proposal_scale=1.0, seed=0)
    try:
        with pytest.raises(MissingResponseError) as err:
            run_chains(config, plane, input_q, output_q, init_positions=np.zeros((3, 1)),
                       dataset_key="", response_timeout_s=0.25)
    finally:
        plane.close()
    assert err.value.missing_ids == {5}
    assert err.value.partial_output.n_iterations == 1


@pytest.mark.parametrize("backend", ["sim", "local"])
def test_msg_ids_never_repeat_across_runs(backend, sim_setup, local_setup):
    setup = sim_setup if backend == "sim" else local_setup
    fabric, input_q, output_q, plane = setup(likelihood_fn=gaussian_target)
    config = ChainConfig(n_walkers=3, n_iterations=2, proposal_scale=1.0, seed=0)
    for _ in range(2):
        run_chains(config, plane, input_q, output_q,
                   init_positions=np.zeros((3, 1)), dataset_key="")
    plane.close()
    ids = [r.msg_id for r in plane.records]
    assert sorted(ids) == list(range(12))
    stats = fabric.stats()
    for name in ("input", "output"):
        assert stats[name] == {"pushed": 12, "delivered": 12, "pending": 0}


def test_gaussian_target_moments_small(local_setup):
    out, _ = run_gaussian(local_setup, w=8, n=400, seed=12,
                          backend_kwargs={"pool_size": 4},
                          init=np.random.default_rng(0).standard_normal((8, 1)))
    kept = discard_burn_in(out.samples)
    pooled = kept.reshape(-1)
    assert abs(pooled.mean()) < 0.15
    assert abs(pooled.var() - 1.0) < 0.25


def test_acceptance_band_at_standard_scale(sim_setup):
    # Random-walk tuning heuristic: scale 2.4 on a unit normal target
    # should land in a broad mid-range acceptance band.
    out, _ = run_gaussian(sim_setup, w=16, n=500, seed=4, proposal_scale=2.4,
                          init=np.random.default_rng(1).standard_normal((16, 1)))
    rate = out.accept_counts.sum() / out.accepted.size
    assert 0.2 <= rate <= 0.6


def test_chain_csv_layout(tmp_path, sim_setup):
    out, _ = run_gaussian(sim_setup, w=2, n=3, seed=0)
    path = tmp_path / "chain.csv"
    write_chain_csv(out, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "walker,iteration,accepted,log_post,param_0"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] in {"0", "1"}


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ChainConfig(n_walkers=0, n_iterations=1)
    with pytest.raises(ConfigurationError):
        ChainConfig(n_walkers=1, n_iterations=0)
    for scale in (0.0, math.nan, math.inf, [1.0, math.nan]):
        with pytest.raises(ConfigurationError):
            ChainConfig(n_walkers=1, n_iterations=1, proposal_scale=scale)
    with pytest.raises(ConfigurationError):
        ChainConfig(n_walkers=1, n_iterations=1, exchange_period=-1)
    for seed in (-1, 1.5, "7"):
        with pytest.raises(ConfigurationError):
            ChainConfig(n_walkers=1, n_iterations=1, seed=seed)


# -------------------------------------------------------------- error payloads


@pytest.mark.parametrize("payload,expected", [
    (b"ERR:worker-crash:boom", ("worker-crash", "boom")),
    (b"ERR:worker-crash", ("worker-crash", "")),
    (b"ERR:", ("", "")),
    (b"ERR:worker-crash:\xff\xfe", ("worker-crash", "\ufffd\ufffd")),
    (b"\x00\x01", None),
])
def test_parse_error(payload, expected):
    assert parse_error(payload) == expected


@pytest.mark.parametrize("payload", [b"ERR:worker-crash", b"ERR:"])
def test_control_without_detail_raises_worker_crash(sim_setup, payload):
    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=gaussian_target)
    output_q.push(Message(msg_id=NO_REQUEST, kind=MessageKind.CONTROL, payload=payload))
    config = ChainConfig(n_walkers=2, n_iterations=1, proposal_scale=1.0, seed=0)
    with pytest.raises(WorkerCrashError):
        run_chains(config, plane, input_q, output_q,
                   init_positions=np.zeros((2, 1)), dataset_key="")


# -------------------------------------------------------------- golden output
#
# Digests of fixed-seed chain output, content_digest(samples ‖ log_posts ‖
# accepted); any change to proposal, acceptance or exchange order shows here.


def chain_digest(out):
    return content_digest(out.samples.tobytes() + out.log_posts.tobytes()
                          + out.accepted.tobytes())


@pytest.mark.parametrize("backend", ["sim", "local"])
def test_golden_gaussian_chain(backend, sim_setup, local_setup):
    setup = sim_setup if backend == "sim" else local_setup
    out, _ = run_gaussian(setup, w=6, n=40, seed=9, exchange_period=3)
    assert chain_digest(out) == "2d4309ba806e29c7"


def test_golden_stub_chain():
    assert chain_digest(run_stub_chain(64, 3, BackendModel())) == "0c2188b58722bcee"


def run_kernel_chain(setup, start_rows):
    """A fixed-seed hierarchical chain over two synthetic clusters from
    ``start_rows``; returns the output once every kept log-posterior has
    been checked against the FFT-beam reference pipeline."""
    n_clusters, n_coeffs, walkers = 2, 4, 4
    datasets, _ = make_synthetic(n_clusters, grid_size=32, seed=5)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    start = np.concatenate([np.ravel(start_rows), [1.0, -0.5, -0.5, 0.0],
                            np.full(n_coeffs, math.log(0.05))])
    dim = start.size
    fabric, input_q, output_q, plane = setup(store=store)
    config = ChainConfig(n_walkers=walkers, n_iterations=6,
                         proposal_scale=np.full(dim, 0.01), exchange_period=2, seed=21)
    out = run_chains(config, plane, input_q, output_q,
                     init_positions=np.tile(start, (walkers, 1)), dataset_key="bundle",
                     data_param_count=n_clusters * n_coeffs,
                     log_prior=functools.partial(hierarchical_log_prior,
                                                 n_clusters=n_clusters))
    plane.close()
    assert 0 < out.accepted.sum() < out.accepted.size
    expected = [[oracle.evaluate(pos[:n_clusters * n_coeffs].reshape(n_clusters, n_coeffs),
                                 datasets) + hierarchical_log_prior(pos, n_clusters)
                 for pos in walker] for walker in out.samples]
    np.testing.assert_allclose(out.log_posts, expected, rtol=1e-12, atol=0)
    return out


@pytest.mark.parametrize("backend", ["sim", "local"])
def test_golden_kernel_chain(backend, sim_setup, local_setup):
    truths = make_synthetic(2, grid_size=32, seed=5)[1]
    out = run_kernel_chain(sim_setup if backend == "sim" else local_setup, truths)
    # The walk itself, without the log-posteriors' last bits.
    assert content_digest(out.samples.tobytes() + out.accepted.tobytes()) == "c72225494935a790"
    assert chain_digest(out) == "e11fe10998bd3e48"


@pytest.mark.parametrize("backend", ["sim", "local"])
def test_golden_kernel_chain_from_a_clamp_free_point(backend, sim_setup, local_setup,
                                                     monkeypatch):
    # p(1) = 0.01 at the start, so the proposals fall on both sides of the
    # clamp: some rows take the monomial-map product, the others every stage.
    rows = {"all": [], "reference": []}

    def counted(path, fn):
        def wrapper(*args):
            rows[path].append(None)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kernel, "chi_square", counted("all", kernel.chi_square))
    monkeypatch.setattr(kernel, "cluster_log_likelihood",
                        counted("reference", kernel.cluster_log_likelihood))
    start = np.add(POPULATION_MEAN, (0.01, 0.0, 0.0, 0.0))
    out = run_kernel_chain(sim_setup if backend == "sim" else local_setup, [start, start])
    assert 0 < len(rows["reference"]) < len(rows["all"])
    # The walk is the one the five stages take for every row; the
    # log-posteriors differ from theirs in the last bits.
    assert content_digest(out.samples.tobytes() + out.accepted.tobytes()) == "c08d3687143cd43a"
    assert chain_digest(out) == "ee33ba94d6212290"
