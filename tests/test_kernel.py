import dataclasses
import math
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from queuemc import kernel
from queuemc.datasets import POPULATION_MEAN, ClusterDataset, make_synthetic, write_container
from queuemc.errors import ClusterEvalError, InvalidGridError, ShapeMismatchError
from queuemc.fabric import Message, MessageKind
from queuemc.kernel import (DEFAULT_N_QUAD, ProfileParams, chi_square,
                            cluster_log_likelihood, convolve_beam, evaluate,
                            forward_abel, hierarchical_log_prior, project_to_map,
                            split_position)
from queuemc.payloads import LikelihoodRequest, pack_request
from queuemc.plane import TaskRunner
from queuemc.store import MemoryObjectStore
from tests import kernel_oracle as oracle
from tests.kernel_oracle import gaussian_beam_kernel

# ---------------------------------------------------------------- profile


def test_constant_profile():
    p = ProfileParams(theta=(1.0, 0.0, 0.0, 0.0), r_max=2.0)
    assert oracle.eval_profile(p, np.array([1.0])) == pytest.approx(1.0, abs=0)


def test_negative_polynomial_clamped_to_zero():
    p = ProfileParams(theta=(0.0, -1.0, 0.0, 0.0), r_max=1.0)
    r = np.linspace(0.01, 1.0, 25)
    assert np.all(oracle.eval_profile(p, r) == 0.0)


def test_linear_profile_hand_value():
    # p(r) = 1 - r/r_max at r = 0.25 r_max is 0.75
    p = ProfileParams(theta=(1.0, -1.0, 0.0, 0.0), r_max=4.0)
    assert oracle.eval_profile(p, np.array([1.0]))[0] == pytest.approx(0.75, rel=1e-15)


def test_profile_zero_beyond_support():
    p = ProfileParams(theta=(1.0, 1.0, 1.0, 1.0), r_max=1.0)
    assert np.all(oracle.eval_profile(p, np.array([1.0 + 1e-12, 5.0])) == 0.0)


# ---------------------------------------------------------------- Abel


def test_abel_zero_profile():
    p = ProfileParams(theta=(0.0, 0.0), r_max=1.0)
    y = np.linspace(0.0, 0.9, 10)
    assert np.all(forward_abel(p, y, n_quad=64) == 0.0)


def test_abel_constant_profile_closed_form():
    # p = 1 on [0, R] projects to 2 sqrt(R^2 - y^2).
    r_cap = 1.5
    p = ProfileParams(theta=(1.0, 0.0, 0.0, 0.0), r_max=r_cap)
    y = np.linspace(0.0, 0.99 * r_cap, 40)
    expected = 2.0 * np.sqrt(r_cap ** 2 - y ** 2)
    got = forward_abel(p, y, n_quad=1024)
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
    p = ProfileParams(theta=(1.0,), r_max=1.0)
    with pytest.raises(InvalidGridError):
        forward_abel(p, np.array([0.0, 1.0]), n_quad=64)
    with pytest.raises(InvalidGridError):
        forward_abel(p, np.array([0.5, 0.4]), n_quad=64)
    with pytest.raises(InvalidGridError):
        forward_abel(p, np.array([-0.1, 0.4]), n_quad=64)


def test_abel_rejects_tiny_quadrature():
    p = ProfileParams(theta=(1.0,), r_max=1.0)
    with pytest.raises(ValueError):
        forward_abel(p, np.array([0.0, 0.5]), n_quad=8)


coeff = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(t1=st.tuples(coeff, coeff, coeff), t2=st.tuples(coeff, coeff, coeff),
       a=st.floats(min_value=0.0, max_value=3.0),
       b=st.floats(min_value=0.0, max_value=3.0))
def test_abel_linearity_on_clamp_free_profiles(t1, t2, a, b):
    # Non-negative coefficients keep the clamp inactive, where the
    # transform is linear in the profile.
    y = np.linspace(0.0, 0.9, 12)
    p1 = ProfileParams(theta=t1, r_max=1.0)
    p2 = ProfileParams(theta=t2, r_max=1.0)
    combined = ProfileParams(theta=a * np.asarray(t1) + b * np.asarray(t2), r_max=1.0)
    f_comb = forward_abel(combined, y, n_quad=128)
    f_sum = a * forward_abel(p1, y, n_quad=128) + b * forward_abel(p2, y, n_quad=128)
    assert np.allclose(f_comb, f_sum, rtol=1e-12, atol=1e-12)


def test_abel_zero_beyond_profile_support():
    # p(r) = max(0, 1 - 2 r/r_max) vanishes for r >= r_max/2, so the
    # projection is exactly zero there too.
    p = ProfileParams(theta=(1.0, -2.0, 0.0, 0.0), r_max=1.0)
    y = np.array([0.5, 0.7, 0.95])
    assert np.all(forward_abel(p, y, n_quad=256) == 0.0)


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
    image = project_to_map(grid, values, grid_size=16, pixel_size=0.1)
    center = (16 - 1) / 2.0
    idx = np.arange(16) - center
    rho = 0.1 * np.hypot(idx[:, None], idx[None, :])
    assert np.all(image[rho > 0.2] == 0.0)
    assert np.all(image[rho <= 0.2] == 1.0)


def test_project_point_symmetry():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 5.0, 40)
    values = rng.random(40)
    image = project_to_map(grid, values, grid_size=12, pixel_size=0.3)
    assert np.array_equal(image, image[::-1, ::-1])


def test_project_linear_field_hand_picked_pixels():
    slope = 3.0
    grid = np.linspace(0.0, 10.0, 51)
    values = slope * grid
    g, pixel = 8, 0.5
    image = project_to_map(grid, values, grid_size=g, pixel_size=pixel)
    c = (g - 1) / 2.0
    for i, j in [(0, 0), (3, 4), (7, 7), (2, 5), (4, 4)]:
        rho = pixel * math.hypot(i - c, j - c)
        assert image[i, j] == pytest.approx(slope * rho, rel=1e-12)


def test_project_requires_even_grid():
    with pytest.raises(ValueError):
        project_to_map(np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                       grid_size=7, pixel_size=1.0)


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
    img = rng.standard_normal((16, 16))
    out = convolve_beam(img, beam_fwhm=0.01, pixel_size=1.0)
    assert np.max(np.abs(out - img)) < 1e-6


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
    img = project_to_map(grid, values, grid_size=32, pixel_size=1.0)
    out = convolve_beam(img, beam_fwhm=2.0, pixel_size=1.0)
    assert out.sum() == pytest.approx(img.sum(), rel=1e-8)


def test_beam_kernel_unit_sum_and_fwhm():
    # The beam's response to a point at the kernel centre is the kernel.
    point = np.zeros((64, 64))
    point[32, 32] = 1.0
    kern = convolve_beam(point, beam_fwhm=4.0, pixel_size=1.0)
    assert kern.sum() == pytest.approx(1.0, rel=1e-12)
    # Half maximum at half the FWHM from the center.
    center = kern[32, 32]
    assert kern[32, 34] == pytest.approx(center / 2.0, rel=1e-12)


@pytest.mark.parametrize("fwhm", [1.5, 3.0])
def test_convolve_matches_direct_oracle(fwhm):
    rng = np.random.default_rng(42)
    img = rng.standard_normal((16, 16))
    kern = gaussian_beam_kernel(16, beam_fwhm=fwhm, pixel_size=1.0)
    fft_out = convolve_beam(img, beam_fwhm=fwhm, pixel_size=1.0)
    direct = direct_convolve(img, kern)
    assert np.max(np.abs(fft_out - direct)) < 1e-10


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


def test_evaluate_attaches_cluster_id_on_failure():
    datasets, truths = make_synthetic(2, grid_size=32, seed=6)
    ref = datasets[1]
    # A duck-typed dataset whose noise map is smaller than its model map;
    # ClusterDataset itself would refuse it, so it fails only at chi-square.
    broken = types.SimpleNamespace(
        cluster_id="broken", obs_map=ref.obs_map, sigma_map=ref.sigma_map[1:, 1:],
        pixel_size=ref.pixel_size, beam_fwhm=ref.beam_fwhm, r_max=ref.r_max,
        radial_grid=ref.radial_grid, grid_size=ref.grid_size)
    with pytest.raises(ClusterEvalError) as err:
        evaluate(truths, [datasets[0], broken])
    assert err.value.cluster_id == "broken"


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
    ll = cluster_log_likelihood(truths[0], datasets[0])
    assert ll <= 0.0
    assert evaluate(truths, datasets) == ll


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
)


def profile_row(kind, values, ds, n_quad):
    if kind != "boundary":
        return np.asarray(values)
    q0, q1, q2, row, col = values
    x0 = node_fraction(ds, n_quad, row % ds.n_radial, col % (n_quad + 1))
    return np.array([x0 * q0, x0 * q1 - q0, x0 * q2 - q1, -q2])


@settings(max_examples=30, deadline=None)
@given(rows=st.lists(clamp_rows, min_size=len(GEOMETRIES), max_size=len(GEOMETRIES)),
       n_quad=st.sampled_from([16, 64, 511, 512]))
def test_abel_fast_path_is_bit_identical_to_reference(rows, n_quad):
    for (kind, values), ds in zip(rows, GEOMETRIES):
        params = ProfileParams(theta=profile_row(kind, values, ds, n_quad), r_max=ds.r_max)
        got = forward_abel(params, ds.radial_grid, n_quad=n_quad)
        expected = oracle.forward_abel(params, ds.radial_grid, n_quad=n_quad)
        assert got.tobytes() == expected.tobytes(), (kind, ds.cluster_id)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_beam_matches_fft_reference(seed):
    rng = np.random.default_rng(seed)
    for ds in GEOMETRIES:
        image = rng.standard_normal((ds.grid_size, ds.grid_size))
        got = convolve_beam(image, ds.beam_fwhm, ds.pixel_size)
        expected = oracle.convolve_beam(image, ds.beam_fwhm, ds.pixel_size)
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


@pytest.mark.parametrize("row", CLAMP_FREE_ROWS)
def test_clamp_free_row_skips_the_stages(row, monkeypatch):
    datasets, _ = make_synthetic(1, grid_size=32, seed=4)
    thetas = np.array([row], dtype=np.float64)
    expected = oracle.evaluate(thetas, datasets)
    evaluate(thetas, datasets)  # builds the geometry's monomial maps
    calls = stage_calls(monkeypatch, fail=("forward_abel", "project_to_map", "convolve_beam"))
    assert evaluate(thetas, datasets) == pytest.approx(expected, rel=1e-12, abs=0)
    assert calls["chi_square"] == 1


@pytest.mark.parametrize("row", CLAMP_ACTIVE_ROWS)
def test_clamp_active_row_runs_every_stage(row, monkeypatch):
    datasets, _ = make_synthetic(1, grid_size=32, seed=4)
    thetas = np.array([row], dtype=np.float64)
    calls = stage_calls(monkeypatch)
    assert evaluate(thetas, datasets) == pytest.approx(
        oracle.evaluate(thetas, datasets), rel=1e-12, abs=0)
    assert calls == {"forward_abel": 1, "project_to_map": 1, "convolve_beam": 1,
                     "chi_square": 1}


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
                  pack_request(LikelihoodRequest(params, "bundle")))
    with np.errstate(all="ignore"):
        result, _, _ = TaskRunner(store=store).run(msg)
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
def test_overflowing_finite_row_is_a_zero_density(row):
    # A finite row whose model overflows ends in inf - inf on the way to
    # the model map; on either path it is -inf, not a NaN that aborts the run.
    datasets, _ = make_synthetic(1, grid_size=32, seed=5)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    theta = np.array(row, dtype=np.float64)
    msg = Message(0, MessageKind.LIKELIHOOD_REQUEST,
                  pack_request(LikelihoodRequest(theta, "bundle")))
    with np.errstate(all="ignore"):
        assert TaskRunner(store=store).run(msg)[0] == -math.inf
        assert cluster_log_likelihood(theta, datasets[0]) == -math.inf
