import math

import numpy as np
import pytest

from queuemc.diagnostics import (discard_burn_in, effective_sample_size, split_rhat,
                                 summarize)
from queuemc.engine import ChainConfig, run_chains
from tests.conftest import gaussian_target


def test_rhat_degenerate_constant_chains():
    samples = np.ones((4, 100))
    assert split_rhat(samples)[0] == math.inf


def test_rhat_converged_iid_chains():
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((8, 1000))
    assert split_rhat(samples)[0] < 1.01


def test_rhat_detects_separated_chains():
    rng = np.random.default_rng(1)
    samples = rng.standard_normal((4, 500))
    samples[:2] += 0.0
    samples[2:] += 10.0
    assert split_rhat(samples)[0] > 2.0


def test_rhat_detects_within_chain_drift():
    # Split construction: a trend inside each chain inflates the statistic
    # even when the full-chain means agree.
    n = 400
    trend = np.linspace(-3, 3, n)
    rng = np.random.default_rng(2)
    samples = trend[None, :] + 0.1 * rng.standard_normal((4, n))
    assert split_rhat(samples)[0] > 1.5


def test_rhat_shapes_and_validation():
    rng = np.random.default_rng(3)
    three = rng.standard_normal((4, 100, 2))
    vals = split_rhat(three)
    assert vals.shape == (2,)
    with pytest.raises(ValueError):
        split_rhat(rng.standard_normal((1, 100)))
    with pytest.raises(ValueError):
        split_rhat(rng.standard_normal((4, 3)))


def test_ess_iid_close_to_sample_count():
    rng = np.random.default_rng(4)
    samples = rng.standard_normal((4, 2000))
    ess = effective_sample_size(samples)[0]
    assert 0.5 * 8000 <= ess <= 8000


def test_ess_detects_strong_autocorrelation():
    # AR(1) with phi = 0.95 has integrated autocorrelation time
    # (1 + phi) / (1 - phi) = 39.
    rng = np.random.default_rng(5)
    w, n, phi = 4, 5000, 0.95
    chains = np.empty((w, n))
    x = rng.standard_normal(w)
    for t in range(n):
        x = phi * x + math.sqrt(1 - phi * phi) * rng.standard_normal(w)
        chains[:, t] = x
    ess = effective_sample_size(chains)[0]
    implied_tau = w * n / ess
    assert 20 <= implied_tau <= 80


def test_burn_in_helpers():
    samples = np.arange(40.0).reshape(2, 20)
    kept = discard_burn_in(samples, burn_in=0.2)
    assert kept.shape == (2, 16, 1)
    assert kept.min() == 4.0


def test_unconverged_ensemble_is_not_reported_converged(sim_setup):
    # 16 walkers spread over [-20, 20] on an N(0, 1) target have not mixed
    # after 200 steps of scale 0.5. Each output row is one walker's chain,
    # so split R-hat sees the spread between them.
    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=gaussian_target)
    config = ChainConfig(n_walkers=16, n_iterations=200, proposal_scale=0.5, seed=0)
    out = run_chains(config, plane, input_q, output_q,
                     init_positions=np.linspace(-20, 20, 16), dataset_key="")
    assert summarize(out)["split_rhat"][0] > 1.2
