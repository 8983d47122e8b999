"""Galaxy-cluster likelihood pipeline.

The expensive model-vs-data evaluation at the heart of each sampler step,
in five stages per cluster: a clamped polynomial radial pressure profile,
a line-of-sight projection (forward Abel transform), interpolation of the
projected profile onto a square pixel grid, smoothing with the instrument
beam, and a chi-square comparison against the observed map. The
per-cluster contributions are summed in list order so the total is
bit-reproducible across backends.

Each stage does only the work that depends on the profile coefficients.
What depends on a dataset's geometry alone is built on first use and
reused: the Abel quadrature nodes per ``(r_max, radial grid, n_quad)``,
the pixel radii per ``(grid_size, pixel_size)`` and the beam matrix per
``(grid_size, beam_fwhm, pixel_size)``. The caches are keyed on those
values, not on dataset objects, so clusters that share a geometry share
one entry, and each cache holds its ``GEOMETRY_CACHE_SIZE`` most recently
used entries. An Abel entry holds about 8·m·(n + 1) bytes for m radial
points and n Simpson intervals, a map or beam entry 8·G² bytes for a
G × G map. So the caches hold at most 32 × (8·m·(n + 1) + 16·G²) bytes,
taking the largest m, n and G in use: 19 MB at m = 128, n = 512, G = 64
(one entry, 0.6 MB, when all clusters share that geometry) and 42 MB at
m = 256, G = 128. A process that cycles through more geometries than
that rebuilds an entry on each miss.

Where the clamp is inactive the first four stages are linear in the
coefficients, so the model map is sum_j theta_j times the model map of
the monomial x**j. :func:`evaluate` tests every row once per call: it
takes the row's coefficients to the Bernstein basis of its degree on
[0, 1], and if none of them is negative, the polynomial is >= 0 on
[0, 1], where every Abel node r / r_max lies, so the clamp is inactive.
Such a row costs one product with its geometry's monomial maps and a
chi-square against the data. The maps are built by the stages
themselves and cached per ``(r_max, radial grid, grid_size, pixel_size,
beam_fwhm, k)`` for k coefficients: 8·G²·k bytes per entry, so at most
32 × 8·G²·k bytes, 128 KB per entry and 4 MB in all at G = 64, k = 4.
Every other row, and any row with a NaN or infinite coefficient, runs
the five stages. The two paths agree to the last few bits, not bit for
bit. A row with finite coefficients whose model overflows is a zero
density (-inf) on either path.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ClusterEvalError, InvalidGridError, ShapeMismatchError

DEFAULT_N_QUAD = 512
GEOMETRY_CACHE_SIZE = 32

_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only: every caller shares it."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ProfileParams:
    """Coefficients of the radial profile p(r).

    p(r) = max(0, sum_k theta[k] * (r / r_max)**k) on [0, r_max] and 0
    beyond, so the profile is non-negative with compact support. theta has
    degree + 1 entries (default cubic).
    """

    theta: np.ndarray
    r_max: float

    def __post_init__(self) -> None:
        theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        object.__setattr__(self, "theta", theta)
        if theta.ndim != 1 or theta.size == 0:
            raise ValueError("theta must be a non-empty vector")
        if not self.r_max > 0:
            raise ValueError("r_max must be positive")


def _clamped_polynomial(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """max(0, sum_k theta[k] x**k) by Horner's rule in a fixed order, so the
    arithmetic is identical across platforms and call sites."""
    if theta.size == 1:
        acc = np.full_like(x, theta[0])
    else:
        acc = np.multiply(x, theta[-1], out=np.empty_like(x))
        for k in range(theta.size - 2, 0, -1):
            acc += theta[k]
            acc *= x
        acc += theta[0]
    return np.maximum(acc, 0.0, out=acc)


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _abel_nodes(r_max: float, y_bytes: bytes, n_quad: int,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simpson quadrature of the Abel transform on one projected grid.

    Returns the node radii as fractions x = r / r_max, shape
    (len(y), n + 1), the step over three per projected radius, and the
    Simpson weights.
    """
    y = np.frombuffer(y_bytes, dtype=np.float64)
    if np.any(np.diff(y) <= 0):
        raise InvalidGridError("y_grid must be strictly increasing")
    if y[0] < 0:
        raise InvalidGridError("y_grid must be non-negative")
    if y[-1] >= r_max:
        raise InvalidGridError(f"y_grid reaches {y[-1]}, beyond support r_max={r_max}")
    if n_quad < 16:
        raise ValueError("n_quad must be at least 16")
    n = n_quad + (n_quad % 2)

    t_upper = np.sqrt(r_max * r_max - y * y)
    # Nodes per y value: shape (len(y), n + 1).
    frac = np.linspace(0.0, 1.0, n + 1)
    t = t_upper[:, None] * frac[None, :]
    r = np.sqrt(y[:, None] ** 2 + t ** 2)
    # Guard rounding: t <= t_upper implies r <= r_max mathematically.
    np.minimum(r, r_max, out=r)
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return _read_only(r / r_max), _read_only((t_upper / n) / 3.0), _read_only(weights)


def _simpson_nodes(r_max: float, y_grid: np.ndarray, n_quad: int,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cached :func:`_abel_nodes` of ``y_grid``, keyed by value."""
    y = np.asarray(y_grid, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise InvalidGridError("y_grid must be a non-empty vector")
    return _abel_nodes(float(r_max), y.tobytes(), int(n_quad))


def forward_abel(params: ProfileParams, y_grid: np.ndarray,
                 n_quad: int = DEFAULT_N_QUAD) -> np.ndarray:
    """Forward Abel transform of the polynomial profile on ``y_grid``.

    Computes F(y) = 2 * integral_y^r_max p(r) r dr / sqrt(r^2 - y^2).
    The substitution r = sqrt(y^2 + t^2) removes the inverse-square-root
    endpoint singularity exactly, leaving
    F(y) = 2 * integral_0^sqrt(r_max^2 - y^2) p(sqrt(y^2 + t^2)) dt,
    which is evaluated with composite Simpson quadrature on ``n_quad``
    intervals (forced even, at least 16). The profile is evaluated on the
    cached node fractions r / r_max of ``(r_max, y_grid, n_quad)``;
    ``y_grid`` must be strictly increasing in [0, r_max).
    """
    x, h3, weights = _simpson_nodes(params.r_max, y_grid, n_quad)
    return 2.0 * (h3 * (_clamped_polynomial(params.theta, x) @ weights))


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _pixel_radii(grid_size: int, pixel_size: float) -> np.ndarray:
    c = (grid_size - 1) / 2.0
    idx = np.arange(grid_size, dtype=np.float64) - c
    return _read_only(pixel_size * np.sqrt(idx[:, None] ** 2 + idx[None, :] ** 2))


def project_to_map(radial_grid: np.ndarray, values: np.ndarray,
                   grid_size: int, pixel_size: float) -> np.ndarray:
    """Expand a radial function to a square map by linear interpolation.

    Pixel (i, j) takes the value of the radial function at
    rho = pixel_size * sqrt((i - c)^2 + (j - c)^2) with c = (grid_size - 1) / 2.
    Radii beyond the last grid point map to 0; radii inside the first grid
    point clamp to the first value.
    """
    if grid_size % 2 != 0:
        raise ValueError("grid_size must be even")
    radial = np.asarray(radial_grid, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if radial.shape != vals.shape:
        raise ShapeMismatchError("radial_grid and values must have the same length")
    rho = _pixel_radii(int(grid_size), float(pixel_size))
    return np.interp(rho, radial, vals, right=0.0)


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _beam_matrix(grid_size: int, beam_fwhm: float, pixel_size: float) -> np.ndarray:
    """The 1-D beam as a banded (grid_size, grid_size) matrix B.

    B[i, j] = k[i - j + grid_size // 2] for the unit-sum 1-D Gaussian k
    centred at index grid_size // 2, and 0 where that index leaves
    [0, grid_size): one axis of the zero-padded linear convolution,
    cropped to the centred grid_size window.
    """
    if beam_fwhm <= 0:
        raise ValueError("beam_fwhm must be positive")
    sigma_pix = beam_fwhm * _FWHM_TO_SIGMA / pixel_size
    half = grid_size // 2
    idx = np.arange(grid_size, dtype=np.float64) - half
    kern = np.exp(-0.5 * idx * idx / (sigma_pix * sigma_pix))
    kern /= kern.sum()
    offset = np.arange(grid_size)[:, None] - np.arange(grid_size)[None, :] + half
    inside = (offset >= 0) & (offset < grid_size)
    return _read_only(np.where(inside, kern[np.clip(offset, 0, grid_size - 1)], 0.0))


def convolve_beam(image: np.ndarray, beam_fwhm: float, pixel_size: float) -> np.ndarray:
    """Smooth a map with the instrument beam.

    Linear (not circular) convolution with a unit-sum Gaussian kernel of
    the given FWHM, centred at pixel (G/2, G/2) of a G × G map, keeping
    the centred G × G window of the result: what lies beyond the map's
    edge counts as zero. The Gaussian is separable, so the convolution is
    B · image · Bᵀ with the banded 1-D beam matrix B.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ShapeMismatchError("image must be a square matrix")
    beam = _beam_matrix(img.shape[0], float(beam_fwhm), float(pixel_size))
    return beam @ img @ beam.T


def chi_square(model: np.ndarray, obs_map: np.ndarray, sigma_map: np.ndarray) -> float:
    """Sum of squared noise-weighted residuals over all pixels."""
    model = np.asarray(model, dtype=np.float64)
    if model.shape != obs_map.shape or model.shape != sigma_map.shape:
        raise ShapeMismatchError(
            f"shape mismatch: model {model.shape}, obs {obs_map.shape}, sigma {sigma_map.shape}")
    resid = (obs_map - model) / sigma_map
    return float(np.sum(resid * resid))


def cluster_model_map(theta: np.ndarray, dataset) -> np.ndarray:
    """Run stages one to four for a single cluster: profile, projection,
    map expansion, beam smoothing."""
    params = ProfileParams(theta=np.asarray(theta, dtype=np.float64), r_max=dataset.r_max)
    projected = forward_abel(params, dataset.radial_grid)
    image = project_to_map(dataset.radial_grid, projected,
                           dataset.grid_size, dataset.pixel_size)
    return convolve_beam(image, dataset.beam_fwhm, dataset.pixel_size)


def _log_likelihood(model: np.ndarray, theta: np.ndarray, dataset) -> float:
    """-chi^2 / 2 of ``model``, or -inf where finite ``theta`` overflowed.

    Finite coefficients and data reach NaN only through an overflow
    (inf - inf) on the way to the model map, which is then infinitely far
    from the data: a zero density. A non-finite row keeps its NaN.
    """
    value = -0.5 * chi_square(model, dataset.obs_map, dataset.sigma_map)
    if math.isnan(value) and np.isfinite(theta).all():
        return -math.inf
    return value


def cluster_log_likelihood(theta: np.ndarray, dataset) -> float:
    """-chi^2 / 2 for one cluster."""
    return _log_likelihood(cluster_model_map(theta, dataset), theta, dataset)


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _bernstein_matrix(k: int) -> np.ndarray:
    """Change of basis from the k monomials x**j to the Bernstein basis of
    degree k - 1 on [0, 1]: b_i = sum_{j <= i} C(i, j) / C(k - 1, j) theta_j."""
    return _read_only(np.array([[math.comb(i, j) / math.comb(k - 1, j) for j in range(k)]
                                for i in range(k)]))


def _clamp_free(thetas: np.ndarray) -> np.ndarray:
    """Rows whose profile polynomial is >= 0 on all of [0, 1].

    A polynomial is a convex combination of its Bernstein coefficients at
    every x in [0, 1], so if none is negative, neither is the polynomial,
    and the clamp changes no Abel node. The criterion is sufficient, not
    necessary: a row it misses only takes the slower path. A row with a
    NaN or infinite coefficient, or with no coefficient at all, is never
    clamp-free.
    """
    n, k = thetas.shape
    if k == 0:
        return np.zeros(n, dtype=bool)
    with np.errstate(all="ignore"):
        bern = thetas @ _bernstein_matrix(k).T
    return np.isfinite(thetas).all(axis=1) & (bern >= 0.0).all(axis=1)


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _monomial_maps(r_max: float, y_bytes: bytes, grid_size: int, pixel_size: float,
                   beam_fwhm: float, k: int) -> np.ndarray:
    """Model maps of the k monomial profiles x**j as the columns of a
    (grid_size**2, k) matrix, built by stages one to four.

    Where the clamp is inactive the model map is linear in theta, so it
    is this matrix times theta.
    """
    geometry = types.SimpleNamespace(
        r_max=r_max, radial_grid=np.frombuffer(y_bytes, dtype=np.float64),
        grid_size=grid_size, pixel_size=pixel_size, beam_fwhm=beam_fwhm)
    maps = np.empty((grid_size * grid_size, k))
    for j, unit in enumerate(np.eye(k)):
        maps[:, j] = cluster_model_map(unit, geometry).ravel()
    return _read_only(maps)


def _clamp_free_log_likelihood(theta: np.ndarray, dataset) -> float:
    """:func:`cluster_log_likelihood` of a clamp-free row, from the cached
    monomial maps of the dataset's geometry."""
    g = dataset.grid_size
    maps = _monomial_maps(float(dataset.r_max),
                          np.asarray(dataset.radial_grid, dtype=np.float64).tobytes(),
                          int(g), float(dataset.pixel_size), float(dataset.beam_fwhm),
                          theta.size)
    return _log_likelihood((maps @ theta).reshape(g, g), theta, dataset)


def evaluate(thetas: np.ndarray, datasets: Sequence) -> float:
    """Joint data log-likelihood over all clusters.

    Parameters
    ----------
    thetas : array of shape (n_clusters, n_coefficients), one parameter row
        per cluster, matched to ``datasets`` by position.
    datasets : sequence of ClusterDataset.

    A clamp-free row costs one product with its geometry's monomial maps
    and a chi-square; every other row runs the five stages. Cluster
    contributions are accumulated in list order; a failure inside one
    cluster raises :class:`ClusterEvalError` naming it.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim != 2:
        raise ValueError("thetas must be a 2-d array (clusters x coefficients)")
    if len(datasets) < 1:
        raise ValueError("at least one cluster dataset is required")
    if thetas.shape[0] != len(datasets):
        raise ValueError(
            f"{thetas.shape[0]} parameter rows for {len(datasets)} datasets")
    total = 0.0
    for row, ds, free in zip(thetas, datasets, _clamp_free(thetas).tolist()):
        try:
            if free:
                total += _clamp_free_log_likelihood(row, ds)
            else:
                total += cluster_log_likelihood(row, ds)
        except Exception as exc:
            raise ClusterEvalError(ds.cluster_id, exc) from exc
    return total


def split_position(position: np.ndarray, n_clusters: int,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a flat sampler position into (thetas, mu, log_s).

    Layout: n_clusters * k cluster coefficients, then k population means
    ``mu``, then k population log-scales ``log_s``, where k divides the
    length accordingly.
    """
    position = np.asarray(position, dtype=np.float64)
    if position.size % (n_clusters + 2) != 0:
        raise ValueError(
            f"position length {position.size} does not factor as "
            f"(n_clusters + 2) * k with n_clusters={n_clusters}")
    k = position.size // (n_clusters + 2)
    thetas = position[: n_clusters * k].reshape(n_clusters, k)
    mu = position[n_clusters * k: (n_clusters + 1) * k]
    log_s = position[(n_clusters + 1) * k:]
    return thetas, mu, log_s


def hierarchical_log_prior(position: np.ndarray, n_clusters: int) -> float:
    """Two-level Gaussian prior on a flat position vector.

    Per-cluster coefficients are Gaussian around the population mean with
    per-coefficient scale s = exp(log_s); the mean carries a flat prior and
    log_s a standard normal one. Normalization constants independent of the
    parameters are dropped.
    """
    thetas, mu, log_s = split_position(position, n_clusters)
    s = np.exp(log_s)
    resid = (thetas - mu[None, :]) / s[None, :]
    level_two = -0.5 * float(np.sum(resid * resid)) - n_clusters * float(np.sum(log_s))
    hyper_prior = -0.5 * float(np.sum(log_s ** 2))
    return level_two + hyper_prior
