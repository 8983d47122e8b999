import dataclasses
import gc
import math
import sys
import time
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuemc import kernel
from queuemc.datasets import (POPULATION_MEAN, ClusterDataset, make_synthetic, read_container,
                              write_container)
from queuemc.errors import ClusterEvalError, InvalidGridError, ShapeMismatchError
from queuemc.fabric import Message, MessageKind
from queuemc.kernel import (DEFAULT_N_QUAD, chi_square, convolve_beam, evaluate,
                            forward_abel, hierarchical_log_prior, project_to_map,
                            split_position)
from queuemc.payloads import pack_request
from queuemc.plane import TaskRunner
from queuemc.store import MemoryObjectStore
from tests import kernel_oracle as oracle
from tests.kernel_oracle import gaussian_beam_kernel

# ---------------------------------------------------------------- profile


def test_constant_profile():
    assert oracle.eval_profile((1.0, 0.0, 0.0, 0.0), 2.0, np.array([1.0])) == pytest.approx(
        1.0, abs=0)


def test_negative_polynomial_clamped_to_zero():
    r = np.linspace(0.01, 1.0, 25)
    assert np.all(oracle.eval_profile((0.0, -1.0, 0.0, 0.0), 1.0, r) == 0.0)


def test_linear_profile_hand_value():
    # p(r) = 1 - r/r_max at r = 0.25 r_max is 0.75
    assert oracle.eval_profile((1.0, -1.0, 0.0, 0.0), 4.0, np.array([1.0]))[0] == pytest.approx(
        0.75, rel=1e-15)


def test_profile_zero_beyond_support():
    assert np.all(oracle.eval_profile((1.0, 1.0, 1.0, 1.0), 1.0,
                                      np.array([1.0 + 1e-12, 5.0])) == 0.0)


# ---------------------------------------------------------------- Abel


def test_abel_zero_profile():
    y = np.linspace(0.0, 0.9, 10)
    assert np.all(forward_abel((0.0, 0.0), 1.0, y, n_quad=64) == 0.0)


def test_abel_constant_profile_closed_form():
    # p = 1 on [0, R] projects to 2 sqrt(R^2 - y^2).
    r_cap = 1.5
    y = np.linspace(0.0, 0.99 * r_cap, 40)
    expected = 2.0 * np.sqrt(r_cap ** 2 - y ** 2)
    got = forward_abel((1.0, 0.0, 0.0, 0.0), r_cap, y, n_quad=1024)
    assert np.max(np.abs(got - expected)) < 1e-6
    assert got[0] == pytest.approx(2.0 * r_cap, abs=1e-9)


def test_abel_gaussian_analytic_pair():
    # exp(-r^2) projects to sqrt(pi) exp(-y^2); truncation at r=8 is negligible.
    y = np.array([0.0, 0.5, 1.0])
    got = oracle.abel_quadrature(lambda r: np.exp(-r * r), 8.0, y, n_quad=1024)
    expected = math.sqrt(math.pi) * np.exp(-y * y)
    rel = np.abs(got - expected) / expected
    assert np.max(rel) < 1e-3


def test_abel_rejects_grid_at_or_beyond_support():
    with pytest.raises(InvalidGridError):
        forward_abel((1.0,), 1.0, np.array([0.0, 1.0]), n_quad=64)
    with pytest.raises(InvalidGridError):
        forward_abel((1.0,), 1.0, np.array([0.5, 0.4]), n_quad=64)
    with pytest.raises(InvalidGridError):
        forward_abel((1.0,), 1.0, np.array([-0.1, 0.4]), n_quad=64)


@pytest.mark.parametrize("r_max, y", [
    (1.0, [0.0, math.nan, 0.5]), (1.0, [math.nan, 0.5]), (1.0, [0.0, math.nan]),
    (math.nan, [0.0, 0.5]), (math.inf, [0.0, 0.5]), (0.0, [0.0])])
def test_abel_rejects_nan_geometry(r_max, y):
    with pytest.raises(ValueError):
        forward_abel((1.0,), r_max, np.array(y), n_quad=64)


def test_abel_rejects_tiny_quadrature():
    with pytest.raises(ValueError):
        forward_abel((1.0,), 1.0, np.array([0.0, 0.5]), n_quad=8)


def test_abel_rejects_empty_profile():
    with pytest.raises(ValueError):
        forward_abel(np.empty((2, 0)), 1.0, np.array([0.0, 0.5]), n_quad=64)


coeff = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(t1=st.tuples(coeff, coeff, coeff), t2=st.tuples(coeff, coeff, coeff),
       a=st.floats(min_value=0.0, max_value=3.0),
       b=st.floats(min_value=0.0, max_value=3.0))
def test_abel_linearity_on_clamp_free_profiles(t1, t2, a, b):
    # Non-negative coefficients keep the clamp inactive, where the
    # transform is linear in the profile.
    y = np.linspace(0.0, 0.9, 12)
    combined = a * np.asarray(t1) + b * np.asarray(t2)
    f_comb = forward_abel(combined, 1.0, y, n_quad=128)
    f_sum = a * forward_abel(t1, 1.0, y, n_quad=128) + b * forward_abel(t2, 1.0, y, n_quad=128)
    assert np.allclose(f_comb, f_sum, rtol=1e-12, atol=1e-12)


def test_abel_zero_beyond_profile_support():
    # p(r) = max(0, 1 - 2 r/r_max) vanishes for r >= r_max/2, so the
    # projection is exactly zero there too.
    y = np.array([0.5, 0.7, 0.95])
    assert np.all(forward_abel((1.0, -2.0, 0.0, 0.0), 1.0, y, n_quad=256) == 0.0)


# ---------------------------------------------------------------- projection


def test_project_constant_field_full_coverage():
    grid = np.linspace(0.0, 1.2, 30)
    values = np.ones_like(grid)
    image = project_to_map(grid, values, grid_size=16, pixel_size=0.1)
    # max rho = 0.1 * hypot(7.5, 7.5) ~ 1.06 < 1.2, fully covered
    assert np.allclose(image, 1.0, atol=0)


def test_project_zero_beyond_radial_grid():
    grid = np.linspace(0.0, 0.2, 10)
    values = np.ones_like(grid)
    image = oracle.unfold(project_to_map(grid, values, grid_size=16, pixel_size=0.1))
    center = (16 - 1) / 2.0
    idx = np.arange(16) - center
    rho = 0.1 * np.hypot(idx[:, None], idx[None, :])
    assert np.all(image[rho > 0.2] == 0.0)
    assert np.all(image[rho <= 0.2] == 1.0)


def test_project_point_symmetry():
    # The fold rests on this: the full map is exactly symmetric about both
    # axes, so its quadrant unfolds into it.
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 5.0, 40)
    values = rng.random(40)
    full = oracle.full_grid_gather(grid, values, grid_size=12, pixel_size=0.3)
    assert np.array_equal(full, full[::-1, ::-1])
    assert np.array_equal(full, full[::-1, :]) and np.array_equal(full, full[:, ::-1])
    image = oracle.unfold(project_to_map(grid, values, grid_size=12, pixel_size=0.3))
    assert np.array_equal(image, full)


def test_project_linear_field_hand_picked_pixels():
    slope = 3.0
    grid = np.linspace(0.0, 10.0, 51)
    values = slope * grid
    g, pixel = 8, 0.5
    image = oracle.unfold(project_to_map(grid, values, grid_size=g, pixel_size=pixel))
    c = (g - 1) / 2.0
    for i, j in [(0, 0), (3, 4), (7, 7), (2, 5), (4, 4)]:
        rho = pixel * math.hypot(i - c, j - c)
        assert image[i, j] == pytest.approx(slope * rho, rel=1e-12)


@pytest.mark.parametrize("stack", [(), (3,)])
def test_unfolded_quadrant_is_the_full_grid_gather_bit_for_bit(stack):
    rng = np.random.default_rng(len(stack))
    for ds in GEOMETRIES:
        values = rng.standard_normal(stack + (ds.n_radial,))
        quadrant = project_to_map(ds.radial_grid, values, ds.grid_size, ds.pixel_size)
        assert quadrant.shape == stack + (ds.grid_size // 2, ds.grid_size // 2)
        full = [oracle.full_grid_gather(ds.radial_grid, v, ds.grid_size, ds.pixel_size)
                for v in values.reshape(-1, ds.n_radial)]
        assert oracle.unfold(quadrant).tobytes() == np.array(full).tobytes(), ds.cluster_id


def test_project_requires_even_grid():
    with pytest.raises(ValueError):
        project_to_map(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                       grid_size=7, pixel_size=1.0)


@pytest.mark.parametrize("radial, pixel_size", [
    ([0.0, 1.0], math.nan), ([0.0, 1.0], 0.0), ([0.0, 1.0], math.inf),
    ([0.0, math.nan], 1.0), ([1.0, 0.5], 1.0)])
def test_project_rejects_nan_geometry(radial, pixel_size):
    with pytest.raises(ValueError):
        project_to_map(np.array(radial), np.array([1.0, 1.0]), grid_size=8,
                       pixel_size=pixel_size)


# ---------------------------------------------------------------- convolution


def direct_convolve(img: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Spatial-domain oracle: explicit shift-and-add linear convolution,
    cropped to the same centered region as the FFT path."""
    g = img.shape[0]
    half = g // 2
    pad = g
    padded = np.zeros((g + 2 * pad, g + 2 * pad))
    padded[pad:pad + g, pad:pad + g] = img
    out = np.zeros((g, g))
    for u in range(g):
        for v in range(g):
            w = kern[u, v]
            r0 = pad + half - u
            c0 = pad + half - v
            out += w * padded[r0:r0 + g, c0:c0 + g]
    return out


def test_convolve_delta_kernel_is_identity():
    rng = np.random.default_rng(0)
    quadrant = rng.standard_normal((8, 8))
    out = convolve_beam(quadrant, beam_fwhm=0.01, pixel_size=1.0)
    assert np.max(np.abs(out - oracle.unfold(quadrant))) < 1e-6


def test_convolve_constant_map_near_delta_kernel():
    img = np.full((16, 16), 2.5)
    out = convolve_beam(img, beam_fwhm=0.2, pixel_size=1.0)
    assert np.max(np.abs(out - 2.5)) < 1e-10


def test_convolve_constant_map_interior_with_wide_kernel():
    # Zero padding starves edge pixels, so the constant is only preserved
    # away from the border: with fwhm 2 px an 8 px margin is ample.
    img = np.ones((32, 32))
    out = convolve_beam(img, beam_fwhm=2.0, pixel_size=1.0)
    interior = out[8:-8, 8:-8]
    assert np.max(np.abs(interior - 1.0)) < 1e-10
    assert out[0, 0] < 1.0  # edge deficit is real


def test_convolve_preserves_sum_of_compact_map():
    # A centrally supported map loses no mass to the crop.
    grid = np.linspace(0.0, 5.0, 30)
    values = np.maximum(0.0, 1.0 - grid / 5.0)
    quadrant = project_to_map(grid, values, grid_size=32, pixel_size=1.0)
    out = convolve_beam(quadrant, beam_fwhm=2.0, pixel_size=1.0)
    assert out.sum() == pytest.approx(oracle.unfold(quadrant).sum(), rel=1e-8)


def test_beam_kernel_unit_sum_and_fwhm():
    # The beam's response to a point at the kernel centre is the kernel,
    # B·δ·Bᵀ for the 1-D beam matrix B that the folded beam is built from.
    beam = kernel._beam_matrix(64, beam_fwhm=4.0, pixel_size=1.0)
    kern = np.outer(beam[:, 32], beam[:, 32])
    assert kern.sum() == pytest.approx(1.0, rel=1e-12)
    # Half maximum at half the FWHM from the center.
    center = kern[32, 32]
    assert kern[32, 34] == pytest.approx(center / 2.0, rel=1e-12)
    assert np.max(np.abs(kern - gaussian_beam_kernel(64, 4.0, 1.0))) <= 1e-12 * center
    # A point is not mirror-symmetric, so through convolve_beam it comes
    # with its three mirror images: four points around the centre.
    quadrant = np.zeros((32, 32))
    quadrant[31, 31] = 1.0
    smoothed = convolve_beam(quadrant, beam_fwhm=4.0, pixel_size=1.0)
    assert smoothed.sum() == pytest.approx(4.0, rel=1e-12)
    expected = oracle.convolve_beam(oracle.unfold(quadrant), 4.0, 1.0)
    assert np.max(np.abs(smoothed - expected)) <= 1e-12 * np.max(expected)


@pytest.mark.parametrize("fwhm", [1.5, 3.0])
def test_convolve_matches_direct_oracle(fwhm):
    rng = np.random.default_rng(42)
    quadrant = rng.standard_normal((8, 8))
    kern = gaussian_beam_kernel(16, beam_fwhm=fwhm, pixel_size=1.0)
    fft_out = convolve_beam(quadrant, beam_fwhm=fwhm, pixel_size=1.0)
    direct = direct_convolve(oracle.unfold(quadrant), kern)
    assert np.max(np.abs(fft_out - direct)) < 1e-10


@pytest.mark.parametrize("fwhm, pixel_size", [
    (math.nan, 1.0), (1.0, math.nan), (0.0, 1.0), (math.inf, 1.0)])
def test_beam_rejects_nan_geometry(fwhm, pixel_size):
    with pytest.raises(ValueError):
        convolve_beam(np.ones((4, 4)), fwhm, pixel_size)


# ---------------------------------------------------------------- chi-square


def test_chi_square_perfect_fit():
    obs = np.arange(16.0).reshape(4, 4)
    sigma = np.ones((4, 4))
    assert chi_square(obs, obs, sigma) == 0.0


def test_chi_square_single_pixel():
    assert chi_square(np.array([[1.0]]), np.array([[2.0]]), np.array([[1.0]])) == 1.0


def test_chi_square_matches_scalar_loop():
    rng = np.random.default_rng(7)
    model = rng.standard_normal((4, 4))
    obs = rng.standard_normal((4, 4))
    sigma = 0.5 + rng.random((4, 4))
    expected = 0.0
    for i in range(4):
        for j in range(4):
            expected += ((obs[i, j] - model[i, j]) / sigma[i, j]) ** 2
    assert chi_square(model, obs, sigma) == pytest.approx(expected, rel=1e-12)


def test_chi_square_scale_invariance():
    rng = np.random.default_rng(8)
    model = rng.standard_normal((6, 6))
    obs = rng.standard_normal((6, 6))
    sigma = 0.5 + rng.random((6, 6))
    base = chi_square(model, obs, sigma)
    scaled = chi_square(3.7 * model, 3.7 * obs, 3.7 * sigma)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_chi_square_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        chi_square(np.zeros((2, 2)), np.zeros((3, 3)), np.ones((3, 3)))


@pytest.mark.parametrize("model, obs, sigma", [
    ((2, 3, 3), (4, 3, 3), (4, 3, 3)),   # more maps than the model stack holds
    ((2, 3, 3), (3, 3), (2, 3, 3)),      # obs and sigma of different shapes
    ((3, 3), (), ()),
])
def test_chi_square_broadcast_shape_mismatch(model, obs, sigma):
    # obs and sigma may hold fewer leading axes than the model, not more,
    # and always the same shape as each other.
    with pytest.raises(ShapeMismatchError):
        chi_square(np.zeros(model), np.zeros(obs), np.ones(sigma))


# ---------------------------------------------------------------- evaluate


def test_evaluate_perfect_fit_zero_noise():
    datasets, truths = make_synthetic(1, grid_size=32, seed=5, noise_level=0.0)
    assert evaluate(truths, datasets) == 0.0


def test_evaluate_additive_over_clusters():
    datasets, truths = make_synthetic(2, grid_size=32, seed=6, noise_level=0.05)
    both = evaluate(truths, datasets)
    first = evaluate(truths[:1], datasets[:1])
    second = evaluate(truths[1:], datasets[1:])
    assert both == first + second  # fixed summation order, exact


@pytest.mark.parametrize("where", ["first", "middle", "last", "own-geometry"])
def test_evaluate_attaches_cluster_id_on_failure(where):
    datasets, truths = make_synthetic(3, grid_size=32, seed=6)
    other, other_truths = make_synthetic(1, grid_size=24, seed=6)
    ref, row = (other[0], other_truths[0]) if where == "own-geometry" else (datasets[1], truths[1])
    # A duck-typed dataset whose noise map is smaller than its model map;
    # ClusterDataset itself would refuse it, so it fails only at chi-square.
    # Its shapes give it a group of its own, apart from the good clusters.
    broken = types.SimpleNamespace(
        cluster_id="broken", obs_map=ref.obs_map, sigma_map=ref.sigma_map[1:, 1:],
        pixel_size=ref.pixel_size, beam_fwhm=ref.beam_fwhm, r_max=ref.r_max,
        radial_grid=ref.radial_grid, grid_size=ref.grid_size)
    at = {"first": 0, "middle": 1, "last": 2, "own-geometry": 1}[where]
    with pytest.raises(ClusterEvalError) as err:
        evaluate(np.insert(truths, at, row, axis=0), datasets[:at] + [broken] + datasets[at:])
    assert err.value.cluster_id == "broken"
    # The good clusters alone still sum to their contributions, in list order.
    alone = 0.0
    for i, ds in enumerate(datasets):
        alone += evaluate(truths[i:i + 1], [ds])
    assert evaluate(truths, datasets) == alone


def test_evaluate_shape_checks():
    datasets, truths = make_synthetic(1, grid_size=32, seed=6)
    with pytest.raises(ValueError):
        evaluate(truths[0], datasets)  # 1-d thetas
    with pytest.raises(ValueError):
        evaluate(truths, [])
    with pytest.raises(ClusterEvalError):
        evaluate(np.empty((1, 0)), datasets)  # no coefficients: no profile


def test_single_cluster_loglik_is_half_chi_square():
    datasets, truths = make_synthetic(1, grid_size=32, seed=9, noise_level=0.1)
    ds = datasets[0]
    ll = evaluate(truths, datasets)
    assert ll <= 0.0
    assert ll == pytest.approx(-0.5 * chi_square(oracle.model_map(truths[0], ds),
                                                 ds.obs_map, ds.sigma_map), rel=1e-12, abs=0)


def test_evaluate_200_clusters_runtime_reported():
    datasets, truths = make_synthetic(200, grid_size=128, n_radial=256, seed=11,
                                      noise_level=0.05)
    t0 = time.perf_counter()
    value = evaluate(truths, datasets)
    elapsed = time.perf_counter() - t0
    print(f"\n200-cluster evaluation: {elapsed:.2f} s, log-likelihood {value:.1f}")
    assert math.isfinite(value)
    assert elapsed < 100.0


# ---------------------------------------------------------------- hierarchy


def test_split_position_layout():
    position = np.arange(8.0)
    thetas, mu, log_s = split_position(position, n_clusters=2)
    assert thetas.shape == (2, 2)
    assert np.array_equal(thetas, [[0.0, 1.0], [2.0, 3.0]])
    assert np.array_equal(mu, [4.0, 5.0])
    assert np.array_equal(log_s, [6.0, 7.0])


def test_hierarchical_prior_matches_scalar_formula():
    theta = np.array([[1.0, 2.0]])
    mu = np.array([0.5, 1.0])
    log_s = np.array([0.0, math.log(2.0)])
    position = np.concatenate([theta.ravel(), mu, log_s])
    expected = 0.0
    for c in range(1):
        for k in range(2):
            s = math.exp(log_s[k])
            expected += -((theta[c, k] - mu[k]) ** 2) / (2 * s * s) - log_s[k]
    expected += -0.5 * float(np.sum(log_s ** 2))
    assert hierarchical_log_prior(position, n_clusters=1) == pytest.approx(
        expected, rel=1e-14)


def test_hierarchical_prior_rejects_bad_length():
    with pytest.raises(ValueError):
        hierarchical_log_prior(np.zeros(7), n_clusters=2)


# ---------------------------------------------------------------- fast path
#
# The kernel builds each geometry's quadrature nodes, pixel radii and beam
# matrix once and caches them by value. Several geometries alternate in
# one process, each differing from the first in one value, so an entry
# keyed on too little would hand one cluster another's geometry.


def geometry_dataset(name, *, r_max=1.0, radial_grid=None, grid_size=32,
                     pixel_size=0.075, beam_fwhm=0.225, seed=0):
    """A cluster whose observed map is the reference model at the
    population mean plus 5% noise."""
    if radial_grid is None:
        radial_grid = np.linspace(0.0, 0.97 * r_max, 64)
    unit = np.ones((grid_size, grid_size))
    template = ClusterDataset(cluster_id=name, obs_map=unit, sigma_map=unit,
                              pixel_size=pixel_size, beam_fwhm=beam_fwhm, r_max=r_max,
                              radial_grid=radial_grid)
    model = oracle.model_map(np.asarray(POPULATION_MEAN), template)
    sigma = np.full_like(model, 0.05 * np.max(np.abs(model)))
    obs = model + sigma * np.random.default_rng(seed).standard_normal(model.shape)
    return dataclasses.replace(template, obs_map=obs, sigma_map=sigma)


GEOMETRIES = [
    geometry_dataset("base"),
    geometry_dataset("radial-grid", radial_grid=np.linspace(0.0, 0.9, 64)),
    geometry_dataset("r-max", r_max=1.2, radial_grid=np.linspace(0.0, 0.97, 64)),
    geometry_dataset("pixel-size", pixel_size=0.06, seed=1),
    geometry_dataset("beam-fwhm", beam_fwhm=0.4, seed=2),
    geometry_dataset("grid-size", grid_size=24, pixel_size=0.1, seed=3),
    geometry_dataset("log-grid", r_max=2.5, seed=4,
                     radial_grid=np.concatenate([[0.0], np.geomspace(0.01, 2.4, 40)])),
]


def node_fraction(ds, n_quad, row, col):
    """x = r / r_max at one Simpson node of the reference quadrature."""
    seen = []
    oracle.abel_quadrature(lambda r: seen.append(r) or r, ds.r_max, ds.radial_grid, n_quad)
    return seen[0][row, col] / ds.r_max


unit_coeff = st.floats(min_value=0.05, max_value=2.0)
clamp_rows = st.one_of(
    # Clamp-free: positive coefficients keep the profile above zero.
    st.tuples(st.just("free"), st.tuples(unit_coeff, unit_coeff, unit_coeff, unit_coeff)),
    # Clamp-active: negative at the centre.
    st.tuples(st.just("active"), st.tuples(unit_coeff.map(lambda c: -c), unit_coeff,
                                           unit_coeff, unit_coeff)),
    # Clamp boundary: (x0 - x) q(x) with q > 0 has its root on a node x0
    # and is clamped beyond it.
    st.tuples(st.just("boundary"),
              st.tuples(unit_coeff, unit_coeff, unit_coeff,
                        st.integers(0, 47), st.integers(1, 512))),
    # Zero leading coefficient: the root finder takes the true degree.
    st.tuples(st.just("lower"), st.tuples(unit_coeff.map(lambda c: -c), unit_coeff,
                                          st.one_of(st.just(0.0), unit_coeff), st.just(0.0))),
)


def profile_row(kind, values, ds, n_quad):
    if kind != "boundary":
        return np.asarray(values)
    q0, q1, q2, row, col = values
    x0 = node_fraction(ds, n_quad, row % ds.n_radial, col % (n_quad + 1))
    return np.array([x0 * q0, x0 * q1 - q0, x0 * q2 - q1, -q2])


def abel_bound(theta, ds, n_quad):
    """A float64 rounding bound on the prefix-sum Abel stage, per radius.

    Each side sums at most n + 2 terms bounded by w_i sum_j |theta_j| x_i**j,
    the reference node by node, the prefix form through each of its k
    breaks. So each is within (n + 2)·k·eps of A, the quadrature of
    sum_j |theta_j| x**j, and the two are within twice that of each other.
    A node that a root's rounding puts on the wrong side holds p within
    rounding of 0, inside the same bound.
    """
    n = n_quad + n_quad % 2
    magnitude = np.abs(np.asarray(theta))
    scale = oracle.abel_quadrature(
        lambda r: np.polynomial.polynomial.polyval(r / ds.r_max, magnitude),
        ds.r_max, ds.radial_grid, n_quad)
    return 2 * (n + 2) * magnitude.size * np.finfo(np.float64).eps * scale


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(clamp_rows, min_size=len(GEOMETRIES), max_size=len(GEOMETRIES)),
       n_quad=st.sampled_from([16, 64, 511, 512]))
def test_abel_prefix_sums_match_reference_within_rounding(rows, n_quad):
    for (kind, values), ds in zip(rows, GEOMETRIES):
        theta = profile_row(kind, values, ds, n_quad)
        got = forward_abel(theta, ds.r_max, ds.radial_grid, n_quad=n_quad)
        expected = oracle.forward_abel(theta, ds.r_max, ds.radial_grid, n_quad=n_quad)
        assert np.all(np.abs(got - expected) <= abel_bound(theta, ds, n_quad)), (
            kind, ds.cluster_id)


@pytest.mark.parametrize("row", [(-0.5, 1.0, 1.0, 5e-324), (0.3, -1.0, 0.0, 1e-310),
                                 (-1.0, 2.0, 1.8762734065372046e-119)])
def test_abel_row_without_usable_roots_runs_horner(row):
    # A leading coefficient this small leaves the companion matrix's
    # eigenvalues inaccurate, so the row takes Horner's rule on every node,
    # as the reference does.
    for ds in GEOMETRIES:
        got = forward_abel(row, ds.r_max, ds.radial_grid)
        assert got.tobytes() == oracle.forward_abel(row, ds.r_max, ds.radial_grid).tobytes()


finite_coeff = st.floats(min_value=-2.0, max_value=2.0)
odd_leading = st.sampled_from([math.inf, -math.inf, math.nan, 5e-324, -5e-324])


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(finite_coeff, finite_coeff, finite_coeff, finite_coeff),
                     min_size=1, max_size=6),
       odd=st.lists(st.tuples(finite_coeff, finite_coeff, finite_coeff, odd_leading),
                    max_size=2))
def test_root_paths_agree_bit_for_bit(rows, odd):
    # A stack whose rows all have full degree takes one companion stack;
    # a zero-leading row sends the same rows through the per-degree loop.
    # Rows with a leading coefficient of ±inf, NaN or 5e-324 take the
    # loop on either side.
    y = np.linspace(0.0, 0.9, 24)
    stack = np.array(rows + odd)
    mixed = np.vstack([stack, (-1.0, 0.5, 1.0, 0.0)])
    alone = forward_abel(stack, 1.0, y, n_quad=64)
    looped = forward_abel(mixed, 1.0, y, n_quad=64)
    assert looped[:-1].tobytes() == alone.tobytes()
    # The roots themselves, not only the node counts they round to.
    for a, b in zip(kernel._clamp_breaks(stack)[:3], kernel._clamp_breaks(mixed)[:3]):
        assert a.tobytes() == b[:-1].tobytes()


def count_calls(monkeypatch, module, name) -> list:
    """The shape of the first argument of each call of ``module.name``."""
    calls = []
    real = getattr(module, name)

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_full_degree_stack_takes_one_eigvals_call(monkeypatch):
    # The per-degree loop also makes one call on a stack of one degree;
    # it alone finds each row's degree with argmax.
    eigvals = count_calls(monkeypatch, np.linalg, "eigvals")
    argmax = count_calls(monkeypatch, np, "argmax")
    y = np.linspace(0.0, 0.9, 24)
    full = np.array([(-1.0, 0.5, 1.0, 0.25), (0.3, -2.0, 0.1, 1.0), (-0.2, 0.0, 0.0, -1.0)])
    forward_abel(full, 1.0, y, n_quad=64)
    assert (eigvals, argmax) == ([(3, 3, 3)], [])
    eigvals.clear()
    # Degrees 3, 2, 1 and 2: one call per distinct degree.
    mixed = np.vstack([full, (-1.0, 0.5, 1.0, 0.0), (-1.0, 2.0, 0.0, 0.0),
                       (0.5, -1.0, 3.0, 0.0)])
    forward_abel(mixed, 1.0, y, n_quad=64)
    assert sorted(eigvals) == [(1, 1, 1), (2, 2, 2), (3, 3, 3)]
    assert len(argmax) == 1


def test_stages_on_a_stack_match_each_row_bit_for_bit():
    # A row's result does not depend on the other rows of its stack, so a
    # cluster's term in evaluate does not depend on the clusters batched with it.
    rng = np.random.default_rng(0)
    thetas = np.asarray(POPULATION_MEAN) + 0.3 * rng.standard_normal((6, 4))
    thetas[0, 3] = 0.0
    for ds in GEOMETRIES:
        projected = forward_abel(thetas, ds.r_max, ds.radial_grid)
        images = project_to_map(ds.radial_grid, projected, ds.grid_size, ds.pixel_size)
        maps = convolve_beam(images, ds.beam_fwhm, ds.pixel_size)
        assert maps.shape == (6, ds.grid_size, ds.grid_size)
        for i, theta in enumerate(thetas):
            one = forward_abel(theta, ds.r_max, ds.radial_grid)
            image = project_to_map(ds.radial_grid, one, ds.grid_size, ds.pixel_size)
            smoothed = convolve_beam(image, ds.beam_fwhm, ds.pixel_size)
            assert one.tobytes() == projected[i].tobytes()
            assert image.tobytes() == images[i].tobytes()
            assert smoothed.tobytes() == maps[i].tobytes()
        obs = np.stack([ds.obs_map] * 6)
        sigma = np.stack([ds.sigma_map] * 6)
        chi = chi_square(maps, obs, sigma)
        assert chi.tolist() == [chi_square(m, ds.obs_map, ds.sigma_map) for m in maps]
        # One obs and sigma map against every map of a stack of stacks, and
        # the residuals formed in the model's own buffer.
        stack = maps.reshape(2, 3, ds.grid_size, ds.grid_size).copy()
        assert chi_square(stack, ds.obs_map, ds.sigma_map).tobytes() == chi.tobytes()
        in_place = chi_square(stack, obs[:3], sigma[:3], overwrite_model=True)
        assert in_place.tobytes() == chi.reshape(2, 3).tobytes()
        assert stack.tobytes() == ((obs[:3] - maps.reshape(2, 3, *maps.shape[1:]))
                                   / sigma[:3]).tobytes()
    stacked = forward_abel(thetas.reshape(2, 3, 4), ds.r_max, ds.radial_grid)
    assert stacked.tobytes() == forward_abel(thetas, ds.r_max, ds.radial_grid).tobytes()


def on_the_clamp_free_boundary(rng, k, count):
    """Rows whose Bernstein coefficients, computed alone, are all >= 0 and
    one of them exactly 0."""
    to_monomial = np.linalg.inv(kernel._bernstein_matrix(k))
    rows = []
    while len(rows) < count:
        bern = rng.uniform(0.1, 2.0, k)
        bern[rng.integers(k)] = 0.0
        row = to_monomial @ bern
        alone = kernel._bernstein(row[None])[0]
        if (alone >= 0).all() and (alone == 0).any():
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_clamp_free_test_does_not_depend_on_the_stack(k):
    # A row's Bernstein coefficients, and so its path through evaluate, are
    # the same alone and inside any stack: a 2-D product rounds a row's
    # coefficients by its stack mates, and a row on the boundary, with a
    # coefficient of exactly 0, then changes path.
    rng = np.random.default_rng(k)
    boundary = on_the_clamp_free_boundary(rng, k, 64)
    for size in range(1, 65):
        stack = rng.uniform(-2.0, 2.0, (size, k))
        mates = rng.random(size) < 0.5
        stack[mates] = boundary[rng.integers(len(boundary), size=mates.sum())]
        bern = kernel._bernstein(stack)
        free = kernel._clamp_free(stack)
        for i, row in enumerate(stack):
            assert bern[i].tobytes() == kernel._bernstein(row[None])[0].tobytes()
            assert free[i] == kernel._clamp_free(row[None])[0]
    assert kernel._clamp_free(boundary).all()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_horner_fallback_is_silent(bad):
    # A row with a NaN or infinite coefficient takes Horner's rule on every
    # node, which meets inf - inf or NaN; like the root path, it warns of
    # nothing.
    y = np.linspace(0.0, 0.9, 24)
    rows = np.array([(1.0, bad, 0.5, 0.25), (0.3, -1.0, 1.0, bad), (bad, 0.0, 0.0, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forward_abel(rows, 1.0, y, n_quad=64)
        for row in rows:
            kernel._clamped_polynomial(row, np.linspace(0.0, 1.0, 9))


def duck_typed_broken(template):
    """A duck-typed cluster whose noise map is smaller than its model map:
    it fails at chi-square, in a group of its own."""
    return types.SimpleNamespace(
        cluster_id="broken", obs_map=template.obs_map, sigma_map=template.sigma_map[1:, 1:],
        pixel_size=template.pixel_size, beam_fwhm=template.beam_fwhm, r_max=template.r_max,
        radial_grid=template.radial_grid, grid_size=template.grid_size)


batch_coeff = st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                        st.sampled_from([0.0, math.nan, math.inf, -math.inf]))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), k=st.integers(1, 5), count=st.integers(1, 5),
       broken=st.booleans())
def test_batched_evaluate_matches_each_request_bit_for_bit(data, k, count, broken):
    # Requests of clamp-free, clamp-active, boundary and non-finite rows
    # over two geometries, degrees 0 to 4: value b of a batch is the bytes
    # of request b evaluated alone, and a batch holding a failing cluster
    # raises as each request does alone.
    datasets = two_geometries()
    if broken:
        datasets.insert(1, duck_typed_broken(datasets[0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    boundary = on_the_clamp_free_boundary(rng, k, 4) if k > 1 else np.zeros((4, 1))
    thetas = np.array(data.draw(st.lists(
        st.lists(st.lists(batch_coeff, min_size=k, max_size=k),
                 min_size=len(datasets), max_size=len(datasets)),
        min_size=count, max_size=count)))
    for b, i in rng.integers((count, len(datasets)), size=(count, 2)):
        thetas[b, i] = boundary[rng.integers(4)]
    thetas[0, 0] = np.append(POPULATION_MEAN, 0.0)[:k]
    with np.errstate(all="ignore"):
        if broken:
            for theta in [*thetas, thetas]:
                with pytest.raises(ClusterEvalError) as err:
                    evaluate(theta, datasets)
                assert err.value.cluster_id == "broken"
            return
        batched = evaluate(thetas, datasets)
        alone = [evaluate(theta, datasets) for theta in thetas]
    assert batched.shape == (count,)
    assert batched.tobytes() == np.array(alone).tobytes()


def test_evaluate_stops_at_the_first_failing_group(monkeypatch):
    # [broken, good, broken', good], each broken cluster in a group of its
    # own: the call ends at the first group, before it models the good
    # clusters or the second broken one, and names the first.
    good, truths = make_synthetic(2, grid_size=32, seed=4)
    first = duck_typed_broken(good[0])
    second = types.SimpleNamespace(**{**vars(first), "cluster_id": "broken-2",
                                      "sigma_map": good[0].sigma_map[2:, 2:]})
    datasets = [first, good[0], second, good[1]]
    assert len(kernel.DatasetBundle(datasets).groups) == 3
    clamp_free, calls = kernel._clamp_free, []

    def counted(rows):
        calls.append(len(rows))
        return clamp_free(rows)

    monkeypatch.setattr(kernel, "_clamp_free", counted)
    with pytest.raises(ClusterEvalError) as err:
        evaluate(truths[[0, 0, 1, 1]], datasets)
    assert err.value.cluster_id == "broken"
    assert calls == [1]


def test_bundle_names_a_dataset_whose_geometry_cannot_be_read():
    good, _ = make_synthetic(2, grid_size=32, seed=4)
    no_geometry = types.SimpleNamespace(**{**vars(duck_typed_broken(good[0])),
                                           "cluster_id": "no-geometry", "r_max": "far"})
    with pytest.raises(ClusterEvalError, match="no-geometry") as err:
        kernel.DatasetBundle([good[0], no_geometry, good[1]])
    assert err.value.cluster_id == "no-geometry"
    assert isinstance(err.value.__cause__, ValueError)


def test_geometry_tables_of_fit_local_stay_within_budget():
    # fit-local's geometry: grid 64, 128 radial points, cubic profiles. The
    # tables are charged to the process's peak memory, so they are held to
    # 2.2 MB: the Abel prefix sums, the quadrant's map gather, the folded
    # beam, the monomial maps.
    datasets, _ = make_synthetic(2, grid_size=64, seed=1)
    ds = datasets[0]
    evaluate(np.array([POPULATION_MEAN, np.add(POPULATION_MEAN, (-0.1, 0, 0, 0))]), datasets)
    caches = (kernel._abel_tables, kernel._map_gather, kernel._folded_beam,
              kernel._monomial_maps)
    misses = [cache.cache_info().misses for cache in caches]
    r_max, y, g, pixel, fwhm = kernel._geometry(ds)
    tables = [*kernel._abel_tables(r_max, y, DEFAULT_N_QUAD, 4),
              *kernel._map_gather(y, g, pixel), kernel._folded_beam(g, fwhm, pixel),
              kernel._monomial_maps(r_max, y, g, pixel, fwhm, 4)]
    assert [cache.cache_info().misses for cache in caches] == misses  # evaluate's own entries
    held = sum((t if t.base is None else t.base).nbytes for t in tables)
    assert held <= 2.2e6


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_beam_matches_fft_reference(seed):
    rng = np.random.default_rng(seed)
    for ds in GEOMETRIES:
        quadrant = rng.standard_normal((ds.grid_size // 2, ds.grid_size // 2))
        got = convolve_beam(quadrant, ds.beam_fwhm, ds.pixel_size)
        expected = oracle.convolve_beam(oracle.unfold(quadrant), ds.beam_fwhm, ds.pixel_size)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@settings(max_examples=20, deadline=None)
@given(rows=st.lists(clamp_rows, min_size=len(GEOMETRIES), max_size=len(GEOMETRIES)),
       order=st.permutations(range(len(GEOMETRIES))))
def test_evaluate_matches_reference_across_geometries(rows, order):
    clusters = [GEOMETRIES[i] for i in order]
    thetas = np.array([profile_row(kind, values, ds, DEFAULT_N_QUAD)
                       for (kind, values), ds in zip(rows, clusters)])
    got = evaluate(thetas, clusters)
    expected = oracle.evaluate(thetas, clusters)
    assert got == pytest.approx(expected, rel=1e-12, abs=0)


# ---------------------------------------------------------------- clamp-free rows
#
# A row whose Bernstein coefficients on [0, 1] are all >= 0 never trips the
# clamp, and evaluate prices it as one product with the cached model maps
# of the monomials x**j. Every other row runs the five stages. Both must
# agree with the reference pipeline, including rows on the boundary.


def non_uniform_synthetic(degree, noise):
    """Three synthetic clusters of the given degree, each sigma scaled
    pixel by pixel into [0.5, 2) of itself, and their truths."""
    datasets, truths = make_synthetic(3, grid_size=32, seed=degree, noise_level=noise,
                                      degree=degree)
    rng = np.random.default_rng(degree)
    scaled = [dataclasses.replace(ds, sigma_map=ds.sigma_map * rng.uniform(0.5, 2.0, (32, 32)))
              for ds in datasets]
    return scaled, truths


SYNTHETIC = {(degree, noise): non_uniform_synthetic(degree, noise)
             for degree in range(5) for noise in (0.05, 1e-3)}


def boundary_row(degree):
    """A profile with p(1) = 0 and one zero Bernstein coefficient:
    ``POPULATION_MEAN`` for the cubic, 1 - x**degree otherwise."""
    if degree == 3:
        return np.asarray(POPULATION_MEAN)
    row = np.zeros(degree + 1)
    row[0] = 1.0
    row[-1] -= 1.0
    return row


def degree_rows(degree):
    k = degree + 1
    coeffs = st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k)
    positive = st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k)
    # p(1) moves by the offset: 0 is the boundary, -1e-12 just clamps.
    at_boundary = st.sampled_from([0.0, 1e-12, -1e-12]).map(
        lambda off: boundary_row(degree) + np.eye(k)[0] * off)
    return st.one_of(coeffs.map(np.array), positive.map(np.array), at_boundary)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 4), noise=st.sampled_from([0.05, 1e-3]), data=st.data())
def test_evaluate_matches_reference_on_both_paths(degree, noise, data):
    datasets, _ = SYNTHETIC[degree, noise]
    thetas = np.array(data.draw(st.lists(degree_rows(degree), min_size=len(datasets),
                                         max_size=len(datasets))))
    got = evaluate(thetas, datasets)
    expected = oracle.evaluate(thetas, datasets)
    assert got == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("degree", range(5))
@pytest.mark.parametrize("noise", [0.05, 1e-3])
def test_evaluate_matches_reference_near_the_truth(degree, noise):
    # Close to the truth, chi-square is smallest, so its relative error is largest.
    datasets, truths = SYNTHETIC[degree, noise]
    rng = np.random.default_rng(degree)
    for _ in range(5):
        thetas = truths + 1e-4 * rng.standard_normal(truths.shape)
        assert evaluate(thetas, datasets) == pytest.approx(
            oracle.evaluate(thetas, datasets), rel=1e-12, abs=0)


# (0.5, 1, -1, 0.25) has a negative coefficient and no negative Bernstein
# coefficient. (0.3, -1, 1, 0) is >= 0 on [0, 1] and has one, so it runs
# the stages: the criterion is sufficient, not necessary.
CLAMP_FREE_ROWS = [POPULATION_MEAN, np.add(POPULATION_MEAN, (1e-12, 0, 0, 0)),
                   (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.5, 1.0, -1.0, 0.25)]
CLAMP_ACTIVE_ROWS = [np.add(POPULATION_MEAN, (-1e-12, 0, 0, 0)), (-0.1, 1.0, 0.0, 0.0),
                     (1.0, -1.5, 0.0, 0.0), (0.3, -1.0, 1.0, 0.0)]


def stage_calls(monkeypatch, fail=()):
    """Count calls to the kernel's stages through its module attributes;
    the stages named in ``fail`` raise instead."""
    calls = {name: 0 for name in ("forward_abel", "project_to_map", "convolve_beam",
                                  "chi_square")}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name in fail:
                raise AssertionError(f"{name} called on the clamp-free path")
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(kernel, name, counted(name, getattr(kernel, name)))
    return calls


def two_geometries():
    """Two clusters of one geometry and a third of another."""
    return (make_synthetic(2, grid_size=32, seed=4)[0]
            + make_synthetic(1, grid_size=24, seed=4)[0])


@pytest.mark.parametrize("row", CLAMP_FREE_ROWS)
def test_clamp_free_row_skips_the_stages(row, monkeypatch):
    datasets = two_geometries()
    thetas = np.array([row, POPULATION_MEAN, row], dtype=np.float64)
    expected = oracle.evaluate(thetas, datasets)
    evaluate(thetas, datasets)  # builds the geometries' monomial maps
    calls = stage_calls(monkeypatch, fail=("forward_abel", "project_to_map", "convolve_beam"))
    assert evaluate(thetas, datasets) == pytest.approx(expected, rel=1e-12, abs=0)
    assert calls["chi_square"] == 2  # once per geometry, on its stack


@pytest.mark.parametrize("row", CLAMP_ACTIVE_ROWS)
def test_clamp_active_row_runs_every_stage(row, monkeypatch):
    # Each geometry holds a clamp-active row, the first also a clamp-free
    # one: the stages run once per geometry on its clamp-active rows, and
    # chi-square once per geometry, on the stack of its clusters' maps.
    datasets = two_geometries()
    thetas = np.array([row, POPULATION_MEAN, row], dtype=np.float64)
    evaluate(thetas, datasets)  # builds the geometries' monomial maps
    calls = stage_calls(monkeypatch)
    assert evaluate(thetas, datasets) == pytest.approx(
        oracle.evaluate(thetas, datasets), rel=1e-12, abs=0)
    assert calls == {"forward_abel": 2, "project_to_map": 2, "convolve_beam": 2,
                     "chi_square": 2}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("col", range(4))
def test_non_finite_coefficients_keep_their_outcome(bad, col):
    # Non-finite rows run the five stages: NaN and +inf end in a NaN
    # likelihood, which the runner reports, and -inf clamps to a zero
    # profile with a finite likelihood.
    datasets, _ = make_synthetic(2, grid_size=32, seed=5)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    row = np.array(POPULATION_MEAN)
    row[col] = bad
    params = np.concatenate([row, np.add(POPULATION_MEAN, (0.01, 0, 0, 0))])
    msg = Message(0, MessageKind.LIKELIHOOD_REQUEST,
                  pack_request(params, "bundle"))
    with np.errstate(all="ignore"):
        ((result, _, _),) = TaskRunner(store=store).run([msg])
        expected = oracle.evaluate(params.reshape(2, 4), datasets)
    if bad == -math.inf:
        assert result == pytest.approx(expected, rel=1e-12, abs=0)
    else:
        assert result == ("non-finite-likelihood", "nan")


@pytest.mark.parametrize("row", [
    (1e308, 1e308, 0, 0), (1e306, -1e306, 0, 0),       # clamp-free
    (1e308, -1.5e308, 0, 0), (1e307, -3e307, 0, 0),    # clamp-active
    (1e308, -1.7e308, 1e308, 0),                        # clamp-free, inf - inf in the product
])
def test_overflowing_finite_row_is_a_zero_density(row, monkeypatch):
    # A finite row whose model overflows ends in inf - inf on the way to
    # the model map; on either path it is -inf, not a NaN that aborts the run.
    datasets, _ = make_synthetic(1, grid_size=32, seed=5)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    theta = np.array(row, dtype=np.float64)
    msg = Message(0, MessageKind.LIKELIHOOD_REQUEST,
                  pack_request(theta, "bundle"))
    with np.errstate(all="ignore"):
        assert TaskRunner(store=store).run([msg])[0][0] == -math.inf
        # Every row through the stages, the path evaluate skips for clamp-free rows.
        monkeypatch.setattr(kernel, "_clamp_free", lambda thetas: np.zeros(len(thetas), bool))
        assert evaluate(theta[None], datasets) == -math.inf


# ---------------------------------------------------------------- dataset bundles
#
# A DatasetBundle groups its datasets once, when it is built: each group's
# maps are copied once into read-only obs and noise stacks, and each item
# is a shallow copy of its dataset whose maps are rows of those stacks.
# read_container returns one.


def interleaved_clusters():
    """Three groups, two of them on grid 32 and one on grid 24,
    interleaved in list order."""
    return [geometry_dataset("a"),
            geometry_dataset("g24-a", grid_size=24, pixel_size=0.1, seed=3),
            geometry_dataset("fwhm", beam_fwhm=0.4, seed=2),
            geometry_dataset("b", seed=5),
            geometry_dataset("g24-b", grid_size=24, pixel_size=0.1, seed=6)]


def mixed_rows(rng, n):
    """Rows around the population mean, on both sides of the clamp."""
    return np.asarray(POPULATION_MEAN) + 0.2 * rng.standard_normal((n, 4))


def test_evaluate_on_a_bundle_matches_the_list_bit_for_bit():
    clusters = interleaved_clusters()
    maps = [(ds.obs_map, ds.sigma_map) for ds in clusters]
    bundle = kernel.DatasetBundle(clusters)
    read = read_container(write_container(clusters))
    rng = np.random.default_rng(12)
    for _ in range(8):
        thetas = mixed_rows(rng, len(clusters))
        got = evaluate(thetas, bundle)
        assert got == evaluate(thetas, read) == evaluate(thetas, clusters)
        assert got == evaluate(thetas, list(read))
        assert got == pytest.approx(oracle.evaluate(thetas, clusters), rel=1e-12, abs=0)
    # The given datasets keep their own maps; each item's maps are its
    # rows of its group's stacks, with the same bytes.
    assert all(ds.obs_map is obs and ds.sigma_map is sigma
               for ds, (obs, sigma) in zip(clusters, maps))
    for b in (bundle, read):
        assert [g[2].tolist() for g in b.groups] == [[0, 3], [1, 4], [2]]
        for _, _, members, obs, sigma in b.groups:
            for row, i in enumerate(members):
                item = b[i]
                assert item is not clusters[i] and item.cluster_id == clusters[i].cluster_id
                assert item.obs_map.base is obs and item.sigma_map.base is sigma
                assert np.shares_memory(item.obs_map, obs[row])
                assert np.shares_memory(item.sigma_map, sigma[row])
                assert item.obs_map.tobytes() == clusters[i].obs_map.tobytes()
                assert item.sigma_map.tobytes() == clusters[i].sigma_map.tobytes()


def test_bundle_is_grouped_once(monkeypatch):
    builds = []

    class CountedBundle(kernel.DatasetBundle):
        def __new__(cls, datasets):
            builds.append(datasets)
            return super().__new__(cls, datasets)

    monkeypatch.setattr(kernel, "DatasetBundle", CountedBundle)
    clusters = interleaved_clusters()
    bundle = read_container(write_container(clusters))
    thetas = mixed_rows(np.random.default_rng(13), len(clusters))
    values = {evaluate(thetas, bundle) for _ in range(3)}
    assert len(builds) == 1 and isinstance(bundle, CountedBundle)
    # Any other sequence is grouped into one new bundle per call, to the
    # same value.
    values |= {evaluate(thetas, list(bundle)) for _ in range(2)}
    assert len(builds) == 3 and len(values) == 1


def test_bundle_holds_no_reference_to_the_container():
    clusters = interleaved_clusters()
    blob = write_container(clusters)
    refs = sys.getrefcount(blob)
    bundle = read_container(blob)
    gc.collect()
    assert sys.getrefcount(blob) == refs
    # Each stack owns its bytes, and each item's maps are rows of a stack.
    stacks = [stack for group in bundle.groups for stack in group[3:]]
    assert all(stack.base is None for stack in stacks)
    for ds in bundle:
        assert any(ds.obs_map.base is stack for stack in stacks)
        assert any(ds.sigma_map.base is stack for stack in stacks)


def test_bundle_maps_are_read_only():
    clusters = interleaved_clusters()
    bundle = read_container(write_container(clusters))
    assert isinstance(bundle, tuple) and len(bundle) == len(clusters)
    assert [ds.cluster_id for ds in bundle] == [ds.cluster_id for ds in clusters]
    stacks = [stack for group in bundle.groups for stack in group[3:]]
    for stack in [*(ds.obs_map for ds in bundle), *(ds.sigma_map for ds in bundle),
                  *stacks]:
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0, 0] = 1.0
