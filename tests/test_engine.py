import argparse
import functools
import itertools
import logging
import math
import time
import warnings

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
from queuemc.engine import (ChainConfig, mh_step, propose, run_chains,
                            write_chain_csv)
from queuemc.errors import (ConfigurationError, DuplicateResponseError,
                            MissingResponseError, NonFiniteDensityError,
                            NotFoundError, WorkerCrashError)
from queuemc.fabric import NO_REQUEST, Message, MessageKind, QueueFabric
from queuemc.kernel import hierarchical_log_prior
from queuemc.payloads import pack_response, parse_error
from queuemc.plane import BackendModel, make_stub_key, respond
from queuemc.store import DirectoryObjectStore, MemoryObjectStore, content_digest
from tests import kernel_oracle as oracle
from tests.conftest import BACKENDS, TIMEOUT_S, WALL_BACKENDS, gaussian_target

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


def test_array_mh_step_matches_the_scalar_form_without_warnings():
    # Every pair of current and proposed log-posteriors drawn from finite
    # values and -inf, against uniforms of 0, ties (ln u equal to the
    # difference) and differences one ulp either side of ln u.
    lu = math.log(0.25)
    levels = [-math.inf, -1e308, -3.0, -1.0, 0.0, 2.5, 1e308]
    cases = [(c, p, u) for c in levels for p in levels for u in (0.0, 1e-300, 0.25, 0.999)]
    for c in (0.0, -2.0):
        for target in (math.nextafter(lu, -math.inf), lu, math.nextafter(lu, math.inf)):
            cases.append((c, c + target, 0.25))
    current, proposed, u = (np.array(col) for col in zip(*cases))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mh_step(current, proposed, u.tolist())
    assert got.dtype == bool
    assert got.tolist() == [mh_step(c, p, u) for c, p, u in cases]
    assert got.any() and not got.all()


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


# -------------------------------------------------------------- run_chains


def run_gaussian(setup, w, n, seed=0, backend_kwargs=None, **kwargs):
    fabric, input_q, output_q, plane = setup(likelihood_fn=gaussian_target,
                                             **(backend_kwargs or {}))
    config = ChainConfig(n_walkers=w, n_iterations=n,
                         proposal_scale=kwargs.pop("proposal_scale", 1.0),
                         seed=seed)
    init = kwargs.pop("init", np.zeros((w, 1)))
    out = run_chains(config, plane, input_q, output_q, init_positions=init,
                     dataset_key="", **kwargs)
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


# -------------------------------------------------------------- random stream


def test_chain_draws_from_one_stream_in_a_fixed_order(sim_setup):
    # Per iteration: all proposals, then the acceptance uniforms, both from
    # child 0 of SeedSequence(seed).
    w_count, n_iter, seed = 5, 7, 13
    scale = np.array([0.5, 2.0])
    init = np.arange(2.0 * w_count).reshape(w_count, 2)
    out, _ = run_gaussian(sim_setup, w=w_count, n=n_iter, seed=seed, proposal_scale=scale,
                          init=init)
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
                    payload=pack_response(0.0, False, 0, 0))
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
    # With no timeout, or an infinite one, a virtual-time run waits for its
    # responses; once the clock has no event left, none can arrive and the
    # run fails at once.
    for timeout in (None, math.inf):
        fabric = QueueFabric(VirtualClock())
        dead_in, dead_out = fabric.create_queue("dead-in"), fabric.create_queue("dead-out")
        config = ChainConfig(n_walkers=3, n_iterations=2, proposal_scale=1.0, seed=0)
        with pytest.raises(MissingResponseError) as err:
            run_chains(config, BlackHolePlane(), dead_in, dead_out,
                       init_positions=np.zeros((3, 1)), dataset_key="",
                       response_timeout_s=timeout)
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


@pytest.mark.parametrize("kwargs", [
    {"response_timeout_s": math.nan}, {"response_timeout_s": 0.0},
    {"response_timeout_s": -1.0}, {"data_param_count": 0}, {"data_param_count": 2},
])
def test_bad_run_arguments_fail_before_the_first_push(sim_setup, kwargs):
    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=gaussian_target)
    config = ChainConfig(n_walkers=2, n_iterations=1, proposal_scale=1.0, seed=0)
    with pytest.raises(ConfigurationError):
        run_chains(config, plane, input_q, output_q, init_positions=np.zeros((2, 1)),
                   dataset_key="", **kwargs)
    assert input_q.pushed_count == 0


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


def boom(params, datasets):
    raise RuntimeError("deliberate")


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


def test_posterior_sums_overflow_and_cancel_without_warnings(sim_setup):
    # As with Python floats: -1e308 twice is -inf, a legal zero density;
    # -inf plus an infinite prior is NaN, which aborts the run.
    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=lambda p, d: -1e308)
    config = ChainConfig(n_walkers=3, n_iterations=2, proposal_scale=1.0, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run_chains(config, plane, input_q, output_q, init_positions=np.zeros((3, 1)),
                         dataset_key="", log_prior=lambda position: -1e308)
        assert not out.accepted.any() and np.all(out.log_posts == -math.inf)
        fabric, input_q, output_q, plane = sim_setup(likelihood_fn=lambda p, d: -math.inf)
        with pytest.raises(NonFiniteDensityError,
                           match="log-posterior nan for walker 0: log-likelihood -inf, "
                                 "log-prior inf"):
            run_chains(config, plane, input_q, output_q, init_positions=np.zeros((3, 1)),
                       dataset_key="", log_prior=lambda position: math.inf)


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

    with pytest.raises(MissingResponseError) as err:
        run(0.05)
    assert err.value.missing_ids == {0, 1}
    with caplog.at_level(logging.INFO, logger="queuemc.engine"):
        out = run(30.0)
    assert np.all(out.log_posts == -1.0)
    dropped = [r.getMessage() for r in caplog.records if "earlier run" in r.getMessage()]
    assert dropped == [f"dropping response {n}, owed to an earlier run" for n in (0, 1)]


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
# accepted); any change to the proposal or acceptance draws or their order
# shows here.


def chain_digest(out):
    return content_digest(out.samples.tobytes() + out.log_posts.tobytes()
                          + out.accepted.tobytes())




def test_golden_stub_chain():
    assert chain_digest(run_stub_chain(64, 3, BackendModel())) == "0c2188b58722bcee"


# -------------------------------------------------------------- backend rows
#
# Each row runs on every backend against the contract that conftest.py
# states, through its make_backend factory; a row that was one test
# before the remote column came tries each backend in turn. Rows pass
# TIMEOUT_S, so that a lost answer fails a row instead of stalling it.


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_gaussian_chain(backend, make_backend):
    out, _ = run_gaussian(functools.partial(make_backend, backend), w=6, n=40, seed=9,
                          response_timeout_s=TIMEOUT_S)
    assert out.backend == backend
    assert chain_digest(out) == "6a6aa9f316aa5872"


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
                         proposal_scale=np.full(dim, 0.01), seed=21)
    out = run_chains(config, plane, input_q, output_q,
                     init_positions=np.tile(start, (walkers, 1)), dataset_key="bundle",
                     data_param_count=n_clusters * n_coeffs,
                     log_prior=functools.partial(hierarchical_log_prior,
                                                 n_clusters=n_clusters),
                     response_timeout_s=TIMEOUT_S)
    assert 0 < out.accepted.sum() < out.accepted.size
    expected = [[oracle.evaluate(pos[:n_clusters * n_coeffs].reshape(n_clusters, n_coeffs),
                                 datasets) + hierarchical_log_prior(pos, n_clusters)
                 for pos in walker] for walker in out.samples]
    np.testing.assert_allclose(out.log_posts, expected, rtol=1e-12, atol=0)
    return out


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_kernel_chain(backend, make_backend):
    truths = make_synthetic(2, grid_size=32, seed=5)[1]
    out = run_kernel_chain(functools.partial(make_backend, backend), truths)
    # The walk itself, without the log-posteriors' last bits.
    assert content_digest(out.samples.tobytes() + out.accepted.tobytes()) == "49304fbdc4540f44"
    assert chain_digest(out) == "6486440934bcde96"


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_kernel_chain_from_a_clamp_free_point(backend, make_backend, monkeypatch):
    # p(1) = 0.01 at the start, so the proposals fall on both sides of the
    # clamp: some rows take the monomial-map product, the others every stage.
    free_rows = []
    clamp_free = kernel._clamp_free

    def counted(thetas):
        free = clamp_free(thetas)
        free_rows.extend(free.tolist())
        return free

    monkeypatch.setattr(kernel, "_clamp_free", counted)
    start = np.add(POPULATION_MEAN, (0.01, 0.0, 0.0, 0.0))
    out = run_kernel_chain(functools.partial(make_backend, backend), [start, start])
    assert 0 < free_rows.count(False) < len(free_rows)
    # The walk is the one the five stages take for every row; the
    # log-posteriors differ from theirs in the last bits.
    assert content_digest(out.samples.tobytes() + out.accepted.tobytes()) == "1ae1a02c7605e46c"
    assert chain_digest(out) == "73cb689bf5423eb0"


@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_three_cluster_chain(backend, make_backend, tmp_path):
    # A longer kernel chain over three clusters from a disk store.
    datasets, truths = make_synthetic(3, grid_size=32, seed=11, noise_level=0.05)
    store = DirectoryObjectStore(tmp_path / "objects")
    store.put("bundle", write_container(datasets))
    fabric, input_q, output_q, plane = make_backend(backend, store=store)
    config = ChainConfig(n_walkers=8, n_iterations=15, proposal_scale=0.02, seed=3)
    out = run_chains(config, plane, input_q, output_q, dataset_key="bundle",
                     init_positions=np.tile(truths.ravel(), (8, 1)),
                     response_timeout_s=TIMEOUT_S)
    assert 0 < out.accepted.sum() < out.accepted.size
    assert chain_digest(out) == "b8c0a17a83b8f250"


def test_missing_dataset_carries_partial_output(make_backend):
    config = ChainConfig(n_walkers=2, n_iterations=3, proposal_scale=1.0, seed=0)
    for backend in BACKENDS:
        fabric, input_q, output_q, plane = make_backend(backend, store=MemoryObjectStore())
        with pytest.raises(NotFoundError) as err:
            run_chains(config, plane, input_q, output_q, init_positions=np.zeros((2, 1)),
                       dataset_key="absent", response_timeout_s=TIMEOUT_S)
        assert err.value.partial_output.n_iterations == 0


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("backend", BACKENDS)
def test_non_finite_likelihood_aborts_with_partial_output(backend, value, make_backend):
    calls = itertools.count(1)

    def fifth_call_non_finite(params, datasets):
        return value if next(calls) == 5 else gaussian_target(params, datasets)

    fabric, input_q, output_q, plane = make_backend(backend, likelihood_fn=fifth_call_non_finite)
    config = ChainConfig(n_walkers=4, n_iterations=3, proposal_scale=1.0, seed=0)
    with pytest.raises(NonFiniteDensityError, match=f"log-likelihood {value!r}") as err:
        run_chains(config, plane, input_q, output_q, init_positions=np.zeros((4, 1)),
                   dataset_key="", response_timeout_s=TIMEOUT_S)
    partial = err.value.partial_output
    assert partial.n_iterations == 1 and not partial.complete
    assert np.all(np.isfinite(partial.log_posts))


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_outside_the_task_fails_the_run_at_once(backend, make_backend, monkeypatch):
    # Packing the answer to request 9 raises after its task ran, here in
    # the third wave. The backend still answers every request, 9 (on sim,
    # its whole push) with worker-crash, so the run fails at once with two
    # iterations and the output queue ends with one answer per request.
    def fails_on_request_9(msgs, *args):
        if any(msg.msg_id == 9 for msg in msgs):
            raise RuntimeError("deliberate")
        return respond(msgs, *args)

    monkeypatch.setattr("queuemc.plane.respond", fails_on_request_9)
    fabric, input_q, output_q, plane = make_backend(backend, likelihood_fn=gaussian_target)
    config = ChainConfig(n_walkers=4, n_iterations=3, proposal_scale=1.0, seed=0)
    start = time.monotonic()
    with pytest.raises(WorkerCrashError, match="worker-crash: RuntimeError") as err:
        run_chains(config, plane, input_q, output_q, init_positions=np.zeros((4, 1)),
                   dataset_key="", response_timeout_s=TIMEOUT_S)
    assert time.monotonic() - start < 1.0
    assert err.value.partial_output.n_iterations == 2
    while output_q.pushed_count < 12 and time.monotonic() - start < 5.0:
        time.sleep(0.01)  # on the wall clock the wave's other answers may trail
    stats = fabric.stats()
    assert stats["input"]["delivered"] == stats["output"]["pushed"] == 12


@pytest.mark.parametrize("backend", BACKENDS)
def test_leftover_responses_are_never_used(backend, make_backend, caplog):
    # The first run aborts on a crash with two answers still owed; they
    # carry -123, every later answer -1. The next run drops them, as the
    # engine logs, and no later run uses them. A pool of one thread
    # answers in push order, as sim and a remote connection do.
    calls = itertools.count()

    def crash_then_constant(params, datasets):
        n = next(calls)
        if n == 0:
            raise RuntimeError("deliberate")
        return -123.0 if n < 3 else -1.0

    fabric, input_q, output_q, plane = make_backend(backend, likelihood_fn=crash_then_constant,
                                                    pool_size=1)
    config = ChainConfig(n_walkers=3, n_iterations=1, proposal_scale=1.0, seed=0)

    def run():
        return run_chains(config, plane, input_q, output_q, init_positions=np.zeros((3, 1)),
                          dataset_key="", response_timeout_s=TIMEOUT_S)

    with pytest.raises(WorkerCrashError):
        run()
    with caplog.at_level(logging.INFO, logger="queuemc.engine"):
        outs = [run(), run()]
    for out in outs:
        assert np.all(out.log_posts == -1.0)
    dropped = [r.getMessage() for r in caplog.records if "earlier run" in r.getMessage()]
    assert dropped == [f"dropping response {n}, owed to an earlier run" for n in (1, 2)]


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


def test_duplicate_within_a_run_still_raises(make_backend):
    # An id at or above the run's first id that matches no pending request
    # is not an earlier run's leftover: id 0 is answered first by the
    # rogue, then by the plane, before id 1 (one pool thread); id 5 is
    # never sent.
    config = ChainConfig(n_walkers=2, n_iterations=1, proposal_scale=1.0, seed=0)
    for backend, rogue_id in itertools.product(BACKENDS, (0, 5)):
        fabric, input_q, output_q, plane = make_backend(backend, likelihood_fn=gaussian_target,
                                                        pool_size=1)
        output_q.push(Message(msg_id=rogue_id, kind=MessageKind.LIKELIHOOD_RESPONSE,
                              payload=pack_response(0.0, False, 0, 0)))
        with pytest.raises(DuplicateResponseError, match=f"response {rogue_id} "):
            run_chains(config, plane, input_q, output_q, init_positions=np.zeros((2, 1)),
                       dataset_key="", response_timeout_s=TIMEOUT_S)


@pytest.mark.parametrize("backend", BACKENDS)
def test_msg_ids_never_repeat_across_runs(backend, make_backend, monkeypatch):
    fabric, input_q, output_q, plane = make_backend(backend, likelihood_fn=gaussian_target)
    popped, pop = [], output_q.pop

    def recording_pop(timeout=None):
        got = pop(timeout)
        if got is not None:
            popped.append(got[0].msg_id)
        return got

    monkeypatch.setattr(output_q, "pop", recording_pop)
    config = ChainConfig(n_walkers=3, n_iterations=2, proposal_scale=1.0, seed=0)
    for _ in range(2):
        run_chains(config, plane, input_q, output_q, init_positions=np.zeros((3, 1)),
                   dataset_key="", response_timeout_s=TIMEOUT_S)
    assert sorted(popped) == list(range(12))
    stats = fabric.stats()
    for name in ("input", "output"):
        assert stats[name] == {"pushed": 12, "delivered": 12, "pending": 0}


def slow_on_call(slow_call, sleep_s):
    """A likelihood of -1 whose call number ``slow_call`` first sleeps."""
    calls = itertools.count()

    def likelihood(params, datasets):
        if next(calls) == slow_call:
            time.sleep(sleep_s)
        return -1.0
    return likelihood


def test_missing_ids_are_the_unanswered_numbers(make_backend):
    # One worker answers in push order (a pool of one thread, or a remote
    # connection); the second iteration's last request, id 5, outlasts the
    # timeout while 3 and 4 are answered.
    config = ChainConfig(n_walkers=3, n_iterations=2, proposal_scale=1.0, seed=0)
    for backend in WALL_BACKENDS:
        fabric, input_q, output_q, plane = make_backend(
            backend, likelihood_fn=slow_on_call(5, 0.5), pool_size=1)
        with pytest.raises(MissingResponseError) as err:
            run_chains(config, plane, input_q, output_q, init_positions=np.zeros((3, 1)),
                       dataset_key="", response_timeout_s=0.25)
        assert err.value.missing_ids == {5}
        assert err.value.partial_output.n_iterations == 1
