"""Galaxy-cluster likelihood pipeline.

The expensive model-vs-data evaluation at the heart of each sampler step,
in five stages per cluster: a clamped polynomial radial pressure profile,
a line-of-sight projection (forward Abel transform), interpolation of the
projected profile onto a square pixel grid, smoothing with the instrument
beam, and a chi-square comparison against the observed map. The
per-cluster contributions are summed in list order so the total is
bit-reproducible across backends.

Every model map is exactly mirror-symmetric about both of its axes: the
pixel offsets ``arange(G) - (G - 1) / 2`` are exact in float64, so a
pixel and its mirror images lie at the same radius. :func:`forward_abel`
takes a stack of coefficient rows along its leading axes (a single row
is a stack of one) and returns their projected profiles;
:func:`project_to_map` expands them onto the top-left G/2 × G/2 quadrant
Q of each map only; :func:`convolve_beam` takes such quadrants and
returns the full smoothed G × G maps, as C·Q·Cᵀ with C = B·E for the 1-D
beam matrix B and E = [I; J] (J reverses order), which unfolds Q into
its map E·Q·Eᵀ. Each stage does only the work that depends on the
profile coefficients. :func:`evaluate` groups its clusters by geometry
and map shapes and makes one pass per group: the group's model maps fill
one stack in cluster order, and one :func:`chi_square` takes that stack
against its clusters' maps, one value per cluster, forming the residuals
in the stack's own buffer. The first group that raises ends the call.

:func:`evaluate` also takes a batch of requests, a (B, n, k) stack of
parameter arrays against one set of clusters, and then makes the same
one pass per group over the group's rows of all B requests, returning B
values. Every step of a pass treats each row apart from the rows stacked
with it: the clamp-free test and the monomial product are one (1, k)
product per row, every stage and chi-square run per row or per map, and
each request's contributions are added in list order. So value b is bit
for bit the value of request b alone, and a row's path does not depend
on its batch. The pass costs less per request than B passes, since much
of a pass's cost does not grow with its rows.

A :class:`DatasetBundle` does that grouping, once, when it is built:
it copies each group's maps once into a read-only obs stack and a σ
stack, and its datasets are shallow copies whose maps are rows of those
stacks. ``datasets.read_container`` returns one, so a worker that keeps
it groups its clusters once; on any other sequence of datasets
:func:`evaluate` builds a bundle on every call.

What depends on a dataset's geometry alone is built on first use and
reused. The caches are keyed on values, not on dataset objects, so
clusters that share a geometry share one entry, and each cache holds its
``GEOMETRY_CACHE_SIZE`` most recently used entries; a process that
cycles through more geometries rebuilds an entry on each miss. For m
radial points, n Simpson intervals, k coefficients and a G × G map, an
entry takes:

- Abel tables, per ``(r_max, radial grid, n_quad, k)``:
  8·((k - 1)·m·(n + 2) + (n + 2) + 4·m) bytes, the last m for the
  offsets of each radius's prefix sums;
- the quadrant's map gather, per ``(radial grid, grid_size,
  pixel_size)``: 4·G²;
- the folded beam C, per ``(grid_size, beam_fwhm, pixel_size)``: 4·G²;
- the monomial maps, per ``(r_max, radial grid, grid_size, pixel_size,
  beam_fwhm, k)``: 8·k·G².

At m = 128, n = 512, k = 4 and G = 64 that is 1.59 MB + 16 KB + 16 KB +
128 KB = 1.75 MB for one geometry, and at most 32 × 1.75 = 56 MB when
every cache is full of such entries. A bundle holds each of its maps
once, 16·G² bytes per cluster for its obs and σ rows, and its groups'
member indices. A pass holds 8·G² bytes of model maps per cluster row,
so a batch's memory grows with B.

The profile is p(x) = max(0, sum_j theta_j x**j) at x = r / r_max. For
each projected radius y the Simpson nodes x_i = sqrt(y² + t_i²) / r_max
increase with i, so the nodes where p > 0 form index ranges bounded by
p's real roots in (0, 1), which batched ``eigvals`` of the companion
matrices give: one call on the whole stack when every row has full
degree, as a sampler's rows do, and otherwise one per degree. Over
such a range [lo, hi),
sum_i w_i p(x_i) = sum_j theta_j (S_j[y, hi] - S_j[y, lo]) for the
cached prefix sums S_j of w_i x_i**j, and x_i <= c exactly when
i <= n·sqrt(c² - (y / r_max)²)·r_max / t_up(y). That is the clamped
Simpson sum up to rounding, not a new quadrature: it agrees with Horner's
rule on every node to a few ulps of the terms summed, and a node that a
root's rounding puts on the wrong side holds p ≈ 0. A row with a NaN or
infinite coefficient, or whose leading coefficient is below 1e-6 of
another (where the companion matrix's eigenvalues lose their accuracy),
runs Horner's rule on every node, as the quadrature is defined.

Where the clamp is inactive the first four stages are linear in the
coefficients, so the model map is sum_j theta_j times the model map of
the monomial x**j. :func:`evaluate` tests every row once per call: it
takes the row's coefficients to the Bernstein basis of its degree on
[0, 1], and if none of them is negative, the polynomial is >= 0 on
[0, 1], where every Abel node lies, so the clamp is inactive. Such rows
cost one product per geometry with its monomial maps, which the stages
build. Every other row, and any row with a NaN or infinite coefficient,
runs the stages. The two paths agree to the last few bits, not bit for
bit. A row with finite coefficients whose model overflows is a zero
density (-inf) on either path.
"""

from __future__ import annotations

import copy
import functools
import math
from typing import Sequence

import numpy as np

from .errors import ClusterEvalError, InvalidGridError, ShapeMismatchError

DEFAULT_N_QUAD = 512
GEOMETRY_CACHE_SIZE = 32
_MONIC_LIMIT = 1e6

_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only: every caller shares it."""
    a.flags.writeable = False
    return a


def _positive(name: str, value: float) -> float:
    """``value``, checked to be finite and positive, so that NaN fails."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, not {value}")
    return value


@np.errstate(all="ignore")
def _clamped_polynomial(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """max(0, sum_k theta[k] x**k) by Horner's rule in a fixed order, so the
    arithmetic is identical across platforms and call sites. A NaN or
    infinite coefficient gives NaN nodes silently, as in
    :func:`_clamp_breaks`."""
    if theta.size == 1:
        acc = np.full_like(x, theta[0])
    else:
        acc = np.multiply(x, theta[-1], out=np.empty_like(x))
        for k in range(theta.size - 2, 0, -1):
            acc += theta[k]
            acc *= x
        acc += theta[0]
    return np.maximum(acc, 0.0, out=acc)


def _simpson_nodes(r_max: float, y: np.ndarray, n_quad: int,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simpson quadrature of the Abel transform on one projected grid.

    Returns the node radii as fractions x = r / r_max, shape
    (len(y), n + 1), the step over three per projected radius, and the
    Simpson weights. Every check fails on NaN.
    """
    _positive("r_max", r_max)
    if not np.all(np.diff(y) > 0):
        raise InvalidGridError("y_grid must be strictly increasing")
    if not y[0] >= 0:
        raise InvalidGridError("y_grid must be non-negative")
    if not y[-1] < r_max:
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
    return r / r_max, (t_upper / n) / 3.0, weights


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _abel_tables(r_max: float, y_bytes: bytes, n_quad: int, k: int,
                 ) -> tuple[np.ndarray, ...]:
    """Prefix sums of the Simpson terms on one projected grid, for
    profiles of k coefficients.

    Returns ``(s0, s, offsets, h3, y2, scale)``: ``s0[i]`` is the sum of
    the first i weights, shape (n + 2,); ``s[j - 1, y·(n + 2) + i]`` the
    sum of the first i terms w x**j at radius y, for j = 1 .. k - 1, so
    ``offsets = y·(n + 2)`` turns a node count of radius y into its
    index; ``h3`` the step over three; and ``y2 = (y / r_max)**2`` and
    ``scale = n·r_max / t_up(y)``, which count the nodes of y at or below
    a fraction c.
    """
    y = np.frombuffer(y_bytes, dtype=np.float64)
    x, h3, weights = _simpson_nodes(r_max, y, n_quad)
    m, nodes = x.shape
    s0 = np.zeros(nodes + 1)
    np.cumsum(weights, out=s0[1:])
    s = np.zeros((k - 1, m, nodes + 1))
    term = weights * x
    for j in range(k - 1):
        np.cumsum(term, axis=1, out=s[j, :, 1:])
        term *= x
    offsets = np.arange(0, m * (nodes + 1), nodes + 1)
    scale = (nodes - 1) * r_max / np.sqrt(r_max * r_max - y * y)
    return tuple(_read_only(a) for a in (s0, s.reshape(k - 1, m * (nodes + 1)), offsets, h3,
                                         (y / r_max) ** 2, scale))


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _companion_template(d: int) -> np.ndarray:
    """The d × d companion matrix of a monic polynomial of degree d, with
    its top row, which carries the coefficients, left zero."""
    return _read_only(np.eye(d, k=-1))


def _real_roots(monic: np.ndarray) -> np.ndarray:
    """The roots of x**d + sum_j monic[r, j] x**j for each row r, by one
    batched ``eigvals``, with 1 in place of each complex one."""
    count, d = monic.shape
    # The companion matrix in numpy.roots' layout: the top row carries
    # the coefficients, which eigvals' balancing handles better when
    # they span many orders of magnitude.
    companion = np.repeat(_companion_template(d)[None], count, axis=0)
    np.negative(monic[:, ::-1], out=companion[:, 0, :])
    eig = np.linalg.eigvals(companion)
    return np.where(eig.imag == 0, eig.real, 1.0)


@np.errstate(all="ignore")
def _clamp_breaks(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """Where each row's profile changes sign on [0, 1].

    Returns ``(breaks, steps, theta, unrooted)`` for rows of k
    coefficients. ``breaks`` holds k + 1 sorted fractions from 0 to 1:
    the row's real roots, clipped to [0, 1], with 1 in the slots of the
    roots it lacks; p keeps one sign between neighbours. Let on(b) be 1
    when p > 0 at the midpoint of breaks b and b + 1, and 0 past the last
    break; then ``steps[b - 1]`` is on(b - 1) - on(b) for b = 1 .. k, so
    the clamped sum of any prefix-summed term is the sum of
    ``steps[b - 1]`` times that term's prefix sum up to break b.

    When every row has a finite leading coefficient and a monic form
    within ``_MONIC_LIMIT``, every row has full degree k - 1 and all of
    them take one companion stack. Otherwise each row takes the
    companion matrix of its true degree, one stack per degree, and
    ``unrooted`` lists the rows with a NaN or infinite coefficient, or
    whose monic form has a coefficient beyond ``_MONIC_LIMIT`` (a leading
    coefficient tiny next to the others, where the eigenvalues lose
    their accuracy, or an all-zero row's 0 / 0); their breaks and steps
    mean nothing, and ``theta``, the rows themselves, holds zeros in
    their place.
    """
    count, k = rows.shape
    monic = rows[:, :-1] / rows[:, -1:]
    # A leading coefficient of -inf passes the limit with a monic form of
    # -0.0, so it is checked itself.
    if np.isfinite(rows[:, -1]).all() and (np.abs(monic) <= _MONIC_LIMIT).all():
        theta, unrooted = rows, ()
        roots = _real_roots(monic) if k > 1 else monic
    else:
        roots = np.ones((count, k - 1))
        rooted = np.isfinite(rows).all(axis=1)
        degree = k - 1 - np.argmax(rows[:, ::-1] != 0, axis=1)
        for d in set(degree[rooted].tolist()) - {0}:
            sel = rooted & (degree == d)
            monic = rows[sel, :d] / rows[sel, d, None]
            finite = (np.abs(monic) <= _MONIC_LIMIT).all(axis=1)
            rooted[sel] = finite
            sel[sel] = finite
            roots[sel, :d] = _real_roots(monic[finite])
        theta = np.where(rooted[:, None], rows, 0.0)
        unrooted = np.flatnonzero(~rooted)
    breaks = np.ones((count, k + 1))
    breaks[:, 0] = 0.0
    np.clip(roots, 0.0, 1.0, out=breaks[:, 1:-1])
    breaks[:, 1:-1].sort(axis=1)
    mids = breaks[:, :-1] + breaks[:, 1:]
    mids *= 0.5
    on = np.einsum("rbj,rj->rb", np.power.outer(mids, np.arange(k)), theta) > 0
    steps = on.astype(np.float64)
    steps[:, :-1] -= on[:, 1:]
    return breaks, steps, theta, unrooted


def forward_abel(thetas: np.ndarray, r_max: float, y_grid: np.ndarray,
                 n_quad: int = DEFAULT_N_QUAD) -> np.ndarray:
    """Forward Abel transform of polynomial profiles on ``y_grid``.

    ``thetas`` holds profile coefficients along its last axis, one
    profile p(r) = max(0, sum_j theta_j (r / r_max)**j) per row; the
    result replaces that axis with one of ``len(y_grid)``. Computes
    F(y) = 2 * integral_y^r_max p(r) r dr / sqrt(r^2 - y^2). The
    substitution r = sqrt(y^2 + t^2) removes the inverse-square-root
    endpoint singularity exactly, leaving
    F(y) = 2 * integral_0^sqrt(r_max^2 - y^2) p(sqrt(y^2 + t^2)) dt,
    which is evaluated with composite Simpson quadrature on ``n_quad``
    intervals (forced even, at least 16), by the cached prefix sums of
    ``(r_max, y_grid, n_quad, k)``; ``y_grid`` must be strictly
    increasing in [0, r_max).
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim == 0 or thetas.shape[-1] == 0:
        raise ValueError("each profile needs at least one coefficient")
    y = np.asarray(y_grid, dtype=np.float64)
    if y.ndim != 1 or y.size == 0:
        raise InvalidGridError("y_grid must be a non-empty vector")
    k = thetas.shape[-1]
    rows = thetas.reshape(-1, k)
    s0, s, offsets, h3, y2, scale = _abel_tables(float(r_max), y.tobytes(), int(n_quad), k)
    n, m = s0.size - 2, y.size
    breaks, steps, theta, unrooted = _clamp_breaks(rows)
    # The nodes of each radius at or below each interior break: the count
    # is 0 short of the radius, else floor(sqrt(c^2 - y2)·scale) + 1, at
    # most n + 1 as c <= 1; the last break, 1, is past every node (the
    # first, 0, has none). Then the prefix sums up to them: terms[0] from
    # s0, terms[j] from s[j - 1].
    gap = np.square(breaks[:, 1:-1, None]) - y2
    reached = gap >= 0
    np.maximum(gap, 0.0, out=gap)
    np.sqrt(gap, out=gap)
    gap *= scale
    nodes = np.empty((rows.shape[0], k, m), dtype=np.intp)
    nodes[:, :-1] = gap  # truncated, as gap.astype(intp)
    nodes[:, :-1] += reached
    nodes[:, -1] = n + 1
    # Every index is in range, so mode="clip" changes no value; it only
    # spares take its buffered bounds check.
    terms = np.empty((k,) + nodes.shape)
    np.take(s0, nodes, out=terms[0], mode="clip")
    nodes += offsets
    np.take(s, nodes, axis=1, out=terms[1:], mode="clip")
    # Summed along the small axes in a fixed order, so a row's result does
    # not depend on the other rows of the stack; rows without roots count
    # as zero here and take Horner's rule below.
    terms *= (theta[:, :, None] * steps[:, None, :]).swapaxes(0, 1)[..., None]
    out = terms.sum(axis=0).sum(axis=1)
    out *= 2.0 * h3
    if len(unrooted):
        x, _, weights = _simpson_nodes(float(r_max), y, int(n_quad))
        for i in unrooted:
            out[i] = 2.0 * (h3 * (_clamped_polynomial(rows[i], x) @ weights))
    return out.reshape(thetas.shape[:-1] + (m,))


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _map_gather(y_bytes: bytes, grid_size: int, pixel_size: float,
                ) -> tuple[np.ndarray, np.ndarray]:
    """``np.interp(rho, radial, v, right=0)`` at the radius rho of every
    pixel of the map's top-left quadrant, as a two-point gather.

    Returns ``(lo, w)``, flat over the quadrant's pixels: the quadrant is
    v[lo] + w·(v[lo + 1] - v[lo]) for v padded with two zeros. Inside
    the first grid point lo = 0 and w = 0, at the last one lo = m - 1 and
    w = 0, and beyond it lo = m, a padding zero.
    """
    radial = np.frombuffer(y_bytes, dtype=np.float64)
    _positive("pixel_size", pixel_size)
    if radial.size == 0 or not np.all(np.diff(radial) > 0):
        raise InvalidGridError("radial_grid must be non-empty and strictly increasing")
    idx = np.arange(grid_size // 2, dtype=np.float64) - (grid_size - 1) / 2.0
    rho = (pixel_size * np.sqrt(idx[:, None] ** 2 + idx[None, :] ** 2)).ravel()
    lo = np.searchsorted(radial, rho, side="right") - 1
    inside = (lo >= 0) & (lo < radial.size - 1)
    left = lo[inside]
    w = np.zeros_like(rho)
    w[inside] = (rho[inside] - radial[left]) / (radial[left + 1] - radial[left])
    lo[lo < 0] = 0
    lo[rho > radial[-1]] = radial.size
    return _read_only(lo), _read_only(w)


def project_to_map(radial_grid: np.ndarray, values: np.ndarray,
                   grid_size: int, pixel_size: float) -> np.ndarray:
    """Expand radial functions, by linear interpolation, to the top-left
    quadrants of square maps.

    ``values`` holds one radial function per row along its last axis,
    which the result replaces with the quadrant's two axes, each of
    ``grid_size // 2`` pixels. Pixel (i, j) of the grid_size × grid_size
    map takes the value of the radial function at
    rho = pixel_size * sqrt((i - c)^2 + (j - c)^2) with c = (grid_size - 1) / 2.
    Radii beyond the last grid point map to 0; radii inside the first grid
    point clamp to the first value. The map is its quadrant Q mirrored
    about both axes, E·Q·Eᵀ with E = [I; J], bit for bit.
    """
    if grid_size % 2 != 0:
        raise ValueError("grid_size must be even")
    radial = np.asarray(radial_grid, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if radial.ndim != 1 or vals.shape[-1:] != radial.shape:
        raise ShapeMismatchError("values must end in an axis as long as radial_grid")
    lo, w = _map_gather(radial.tobytes(), int(grid_size), float(pixel_size))
    padded = np.zeros(vals.shape[:-1] + (radial.size + 2,))
    padded[..., :-2] = vals
    out = np.take(padded, lo, axis=-1)
    upper = np.take(padded[..., 1:], lo, axis=-1)
    upper -= out
    upper *= w
    out += upper
    half = grid_size // 2
    return out.reshape(vals.shape[:-1] + (half, half))


def _beam_matrix(grid_size: int, beam_fwhm: float, pixel_size: float) -> np.ndarray:
    """The 1-D beam as a banded (grid_size, grid_size) matrix B.

    B[i, j] = k[i - j + grid_size // 2] for the unit-sum 1-D Gaussian k
    centred at index grid_size // 2, and 0 where that index leaves
    [0, grid_size): one axis of the zero-padded linear convolution,
    cropped to the centred grid_size window.
    """
    sigma_pix = (_positive("beam_fwhm", beam_fwhm) * _FWHM_TO_SIGMA
                 / _positive("pixel_size", pixel_size))
    half = grid_size // 2
    idx = np.arange(grid_size, dtype=np.float64) - half
    kern = np.exp(-0.5 * idx * idx / (sigma_pix * sigma_pix))
    kern /= kern.sum()
    offset = np.arange(grid_size)[:, None] - np.arange(grid_size)[None, :] + half
    inside = (offset >= 0) & (offset < grid_size)
    return np.where(inside, kern[np.clip(offset, 0, grid_size - 1)], 0.0)


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _folded_beam(grid_size: int, beam_fwhm: float, pixel_size: float) -> np.ndarray:
    """C = B·E, the beam matrix B applied to a quadrant's unfolding
    E = [I; J]: C[:, j] = B[:, j] + B[:, grid_size - 1 - j], shape
    (grid_size, grid_size // 2). B need not be centrosymmetric."""
    beam = _beam_matrix(grid_size, beam_fwhm, pixel_size)
    half = grid_size // 2
    return _read_only(beam[:, :half] + beam[:, ::-1][:, :half])


def convolve_beam(quadrant: np.ndarray, beam_fwhm: float, pixel_size: float) -> np.ndarray:
    """Smooth mirror-symmetric maps, given by their quadrants, with the
    instrument beam.

    ``quadrant`` is the top-left G/2 × G/2 quadrant Q of a G × G map
    that is mirror-symmetric about both axes (as :func:`project_to_map`
    gives), or a stack of them along its leading axes; the result is the
    full smoothed G × G map for each. Linear (not circular) convolution
    with a unit-sum Gaussian kernel of the given FWHM, centred at pixel
    (G/2, G/2) of a G × G map, keeping the centred G × G window of the
    result: what lies beyond the map's edge counts as zero. The Gaussian
    is separable, so the convolution of the map E·Q·Eᵀ is B·E·Q·Eᵀ·Bᵀ =
    C·Q·Cᵀ with the banded 1-D beam matrix B and the cached C = B·E, one
    product per map of a stack, so a map's result does not depend on the
    others.
    """
    img = np.asarray(quadrant, dtype=np.float64)
    if img.ndim < 2 or img.shape[-1] != img.shape[-2]:
        raise ShapeMismatchError("quadrant must be a square matrix or a stack of them")
    fold = _folded_beam(2 * img.shape[-1], float(beam_fwhm), float(pixel_size))
    return fold @ img @ fold.T


def chi_square(model: np.ndarray, obs_map: np.ndarray, sigma_map: np.ndarray, *,
               overwrite_model: bool = False):
    """Sum of squared noise-weighted residuals over all pixels: a float for
    one map, and one per map, as an array, for stacks of maps along the
    leading axes. ``obs_map`` and ``sigma_map`` may hold fewer leading
    axes than ``model``, whose stacks along the extra axes are then each
    compared with them. Each map's sum runs along its own pixels only, so
    it does not depend on the other maps of the stack. With
    ``overwrite_model`` the residuals are formed in ``model``'s buffer,
    which then holds them."""
    model = np.asarray(model, dtype=np.float64)
    if (model.ndim < 2 or obs_map.ndim < 2 or sigma_map.shape != obs_map.shape
            or model.shape[model.ndim - obs_map.ndim:] != obs_map.shape):
        raise ShapeMismatchError(
            f"shape mismatch: model {model.shape}, obs {obs_map.shape}, sigma {sigma_map.shape}")
    resid = np.subtract(obs_map, model, out=model if overwrite_model else None)
    resid /= sigma_map
    resid = resid.reshape(model.shape[:-2] + (-1,))
    total = np.vecdot(resid, resid)
    return float(total) if model.ndim == 2 else total


def cluster_model_map(thetas: np.ndarray, r_max: float, radial_grid: np.ndarray,
                      grid_size: int, pixel_size: float, beam_fwhm: float) -> np.ndarray:
    """Run stages one to four on the rows of ``thetas`` in one geometry:
    profile, projection, map expansion onto the quadrant, beam smoothing
    to the full map. One row gives one map, a stack of rows a stack of
    maps."""
    projected = forward_abel(thetas, r_max, radial_grid)
    quadrant = project_to_map(radial_grid, projected, grid_size, pixel_size)
    return convolve_beam(quadrant, beam_fwhm, pixel_size)


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _bernstein_matrix(k: int) -> np.ndarray:
    """Change of basis from the k monomials x**j to the Bernstein basis of
    degree k - 1 on [0, 1]: b_i = sum_{j <= i} C(i, j) / C(k - 1, j) theta_j."""
    return _read_only(np.array([[math.comb(i, j) / math.comb(k - 1, j) for j in range(k)]
                                for i in range(k)]))


def _bernstein(thetas: np.ndarray) -> np.ndarray:
    """The Bernstein coefficients of each row of ``thetas``, shape (n, k),
    k >= 1, by one (1, k) @ (k, k) product per row: a 2-D product's last
    bits depend on the rows stacked with it, and a row with a coefficient
    on 0 would then change path with them."""
    with np.errstate(all="ignore"):
        return (thetas[:, None, :] @ _bernstein_matrix(thetas.shape[1]).T)[:, 0]


def _clamp_free(thetas: np.ndarray) -> np.ndarray:
    """Rows whose profile polynomial is >= 0 on all of [0, 1].

    A polynomial is a convex combination of its Bernstein coefficients at
    every x in [0, 1], so if none is negative, neither is the polynomial,
    and the clamp changes no Abel node. The criterion is sufficient, not
    necessary: a row it misses only takes the slower path. A row with a
    NaN or infinite coefficient, or with no coefficient at all, is never
    clamp-free. A row's answer does not depend on the other rows.
    """
    n, k = thetas.shape
    if k == 0:
        return np.zeros(n, dtype=bool)
    return np.isfinite(thetas).all(axis=1) & (_bernstein(thetas) >= 0.0).all(axis=1)


@functools.lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def _monomial_maps(r_max: float, y_bytes: bytes, grid_size: int, pixel_size: float,
                   beam_fwhm: float, k: int) -> np.ndarray:
    """Model maps of the k monomial profiles x**j as the rows of a
    (k, grid_size**2) matrix, built by stages one to four.

    Where the clamp is inactive the model map is linear in theta, so it
    is theta times this matrix.
    """
    maps = cluster_model_map(np.eye(k), r_max, np.frombuffer(y_bytes, dtype=np.float64),
                             grid_size, pixel_size, beam_fwhm)
    return _read_only(maps.reshape(k, grid_size * grid_size))


def _geometry(dataset) -> tuple:
    """The values a cluster's model map depends on besides its row."""
    return (float(dataset.r_max),
            np.asarray(dataset.radial_grid, dtype=np.float64).tobytes(),
            int(dataset.grid_size), float(dataset.pixel_size), float(dataset.beam_fwhm))


class DatasetBundle(tuple):
    """An immutable sequence of cluster datasets, grouped once for
    :func:`evaluate`.

    The constructor takes any sequence of datasets and groups them by
    geometry and the shapes of their maps, in order of first member.
    ``groups`` holds one ``(geometry, radial_grid, members, obs, sigma)``
    per group: ``members`` is an index array in list order, and ``obs``
    and ``sigma`` stack the members' maps, copied once, read-only. A
    dataset whose geometry or map shapes cannot be read raises
    :class:`ClusterEvalError` naming it. Each item is a shallow copy of
    the given dataset whose maps are its rows of those stacks, so the
    bundle holds each map once and the given datasets are left as they
    are.
    """

    def __new__(cls, datasets: Sequence) -> DatasetBundle:
        items = list(datasets)
        keys: dict[tuple, list[int]] = {}
        for i, ds in enumerate(items):
            try:
                key = (_geometry(ds), np.shape(ds.obs_map), np.shape(ds.sigma_map))
            except Exception as exc:
                raise ClusterEvalError(ds.cluster_id, exc) from exc
            keys.setdefault(key, []).append(i)
        groups = []
        for (geometry, _, _), members in keys.items():
            obs = _read_only(np.array([items[i].obs_map for i in members]))
            sigma = _read_only(np.array([items[i].sigma_map for i in members]))
            for i, obs_map, sigma_map in zip(members, obs, sigma):
                items[i] = copy.copy(items[i])
                object.__setattr__(items[i], "obs_map", obs_map)
                object.__setattr__(items[i], "sigma_map", sigma_map)
            groups.append((geometry, np.frombuffer(geometry[1]),
                           np.array(members, dtype=np.intp), obs, sigma))
        bundle = super().__new__(cls, items)
        bundle.groups = groups
        return bundle


def evaluate(thetas: np.ndarray, datasets: Sequence):
    """Joint data log-likelihood over all clusters.

    Parameters
    ----------
    thetas : array of shape (n_clusters, n_coefficients), one parameter row
        per cluster, matched to ``datasets`` by position; or a stack of
        such arrays, shape (B, n_clusters, n_coefficients), one per request.
    datasets : sequence of ClusterDataset; a :class:`DatasetBundle` is
        used as it is, any other sequence is grouped into a new bundle on
        every call, with bit-identical results.

    Returns a float for one request, and an array of B floats for a stack
    of B, where value b is bit for bit ``evaluate(thetas[b], datasets)``.

    Clusters that share a geometry and the shapes of their maps form a
    group, modelled in one pass over the group's rows of every request:
    the clamp-free rows as one product with the geometry's monomial maps,
    the rest through the stages, both into one stack of model maps in
    request and cluster order, then one chi-square on that stack, whose
    residuals overwrite it. Cluster contributions, -chi^2 / 2, are
    accumulated in list order. Finite coefficients and data reach NaN only
    through an overflow (inf - inf) on the way to the model map, which is
    then infinitely far from the data: such a cluster contributes -inf, a
    zero density, while a non-finite row keeps its NaN. The first group
    that raises ends the call with :class:`ClusterEvalError` naming its
    first member. Groups are in order of first member and each holds its
    members in list order, so that is the first failed cluster in list
    order.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim not in (2, 3):
        raise ValueError("thetas must be a 2-d array (clusters x coefficients) "
                         "or a stack of them")
    if len(datasets) < 1:
        raise ValueError("at least one cluster dataset is required")
    if thetas.shape[-2] != len(datasets):
        raise ValueError(
            f"{thetas.shape[-2]} parameter rows for {len(datasets)} datasets")
    batch = thetas[None] if thetas.ndim == 2 else thetas
    count, _, k = batch.shape
    bundle = datasets if isinstance(datasets, DatasetBundle) else DatasetBundle(datasets)
    chi = np.empty((count, len(datasets)))
    for geometry, radial, members, obs, sigma in bundle.groups:
        r_max, _, g, pixel, fwhm = geometry
        rows = batch[:, members].reshape(count * len(members), k)
        try:
            free = _clamp_free(rows)
            models = np.empty((len(rows), g, g))
            if free.any():
                # One (1, k) @ (k, G²) product per row, as for a stack of one.
                maps = _monomial_maps(*geometry, k)
                models[free] = np.matmul(rows[free, None, :], maps).reshape(-1, g, g)
            if not free.all():
                models[~free] = cluster_model_map(rows[~free], r_max, radial,
                                                  g, pixel, fwhm)
            chi[:, members] = chi_square(models.reshape(count, len(members), g, g),
                                         obs, sigma, overwrite_model=True)
        except Exception as exc:
            raise ClusterEvalError(datasets[members[0]].cluster_id, exc) from exc
    totals = []
    for b, row in enumerate((-0.5 * chi).tolist()):
        total = 0.0
        for i, value in enumerate(row):
            if math.isnan(value) and np.isfinite(batch[b, i]).all():
                value = -math.inf
            total += value
        totals.append(total)
    return totals[0] if thetas.ndim == 2 else np.array(totals)


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
