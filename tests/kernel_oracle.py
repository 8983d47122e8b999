"""Reference implementations of the kernel stages, for the tests only.

Here the quadrature and the map expansion rebuild their geometry on every
call and work on full maps, and the beam is the zero-padded FFT
convolution with the full 2-D Gaussian. ``queuemc.kernel`` builds each
geometry once, expands profiles onto a map's top-left quadrant only,
applies the beam to that quadrant as two matrix products, and sums the
clamped Abel quadrature from cached prefix sums; the tests unfold its
quadrants with :func:`unfold` and hold it to these references within
tolerances set from float64 rounding.
"""

import numpy as np

from queuemc.kernel import chi_square

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def eval_profile(theta, r_max, radii):
    """The clamped polynomial profile by Horner's rule, out of place."""
    theta = np.asarray(theta, dtype=np.float64)
    r = np.asarray(radii, dtype=np.float64)
    x = r / r_max
    acc = np.full_like(x, theta[-1])
    for k in range(theta.size - 2, -1, -1):
        acc = acc * x + theta[k]
    acc = np.maximum(acc, 0.0)
    return np.where(r <= r_max, acc, 0.0)


def abel_quadrature(profile, r_max, y_grid, n_quad):
    """Composite Simpson quadrature of the Abel transform, nodes rebuilt
    on every call."""
    y = np.asarray(y_grid, dtype=np.float64)
    n = n_quad + (n_quad % 2)
    t_upper = np.sqrt(r_max * r_max - y * y)
    frac = np.linspace(0.0, 1.0, n + 1)
    t = t_upper[:, None] * frac[None, :]
    r = np.sqrt(y[:, None] ** 2 + t ** 2)
    np.minimum(r, r_max, out=r)
    f = profile(r)
    h = t_upper / n
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = (h / 3.0) * (f @ weights)
    return 2.0 * integral


def forward_abel(theta, r_max, y_grid, n_quad=512):
    return abel_quadrature(lambda r: eval_profile(theta, r_max, r), r_max, y_grid, n_quad)


def project_to_map(radial_grid, values, grid_size, pixel_size):
    """Linear interpolation of the radial function at each pixel's radius."""
    c = (grid_size - 1) / 2.0
    idx = np.arange(grid_size, dtype=np.float64) - c
    rho = pixel_size * np.sqrt(idx[:, None] ** 2 + idx[None, :] ** 2)
    return np.interp(rho, radial_grid, values, right=0.0)


def full_grid_gather(radial_grid, values, grid_size, pixel_size):
    """The map expansion as a two-point gather over every pixel of the
    full map, v[lo] + w·(v[lo + 1] - v[lo]) for v padded with two zeros,
    in the kernel's own arithmetic: the same interpolation as
    :func:`project_to_map`, but not rounded as ``np.interp`` rounds it."""
    radial = np.asarray(radial_grid, dtype=np.float64)
    c = (grid_size - 1) / 2.0
    idx = np.arange(grid_size, dtype=np.float64) - c
    rho = pixel_size * np.sqrt(idx[:, None] ** 2 + idx[None, :] ** 2)
    lo = np.searchsorted(radial, rho, side="right") - 1
    inside = (lo >= 0) & (lo < radial.size - 1)
    left = lo[inside]
    w = np.zeros_like(rho)
    w[inside] = (rho[inside] - radial[left]) / (radial[left + 1] - radial[left])
    lo[lo < 0] = 0
    lo[rho > radial[-1]] = radial.size
    v = np.concatenate([np.asarray(values, dtype=np.float64), [0.0, 0.0]])
    return v[lo] + w * (v[lo + 1] - v[lo])


def unfold(quadrant):
    """The maps whose top-left quadrants are ``quadrant`` (along its last
    two axes), mirrored about both axes: E·Q·Eᵀ with E = [I; J]."""
    q = np.asarray(quadrant)
    top = np.concatenate([q, q[..., ::-1]], axis=-1)
    return np.concatenate([top, top[..., ::-1, :]], axis=-2)


def gaussian_beam_kernel(grid_size, beam_fwhm, pixel_size):
    """Unit-sum 2D Gaussian kernel sampled on the map grid, centered at
    (grid_size/2, grid_size/2)."""
    sigma_pix = beam_fwhm * FWHM_TO_SIGMA / pixel_size
    center = grid_size // 2
    idx = np.arange(grid_size, dtype=np.float64) - center
    d2 = idx[:, None] ** 2 + idx[None, :] ** 2
    kern = np.exp(-0.5 * d2 / (sigma_pix * sigma_pix))
    return kern / kern.sum()


def convolve_beam(image, beam_fwhm, pixel_size):
    """Linear convolution by zero-padded FFT, cropped to the centred window."""
    img = np.asarray(image, dtype=np.float64)
    g = img.shape[0]
    kern = gaussian_beam_kernel(g, beam_fwhm, pixel_size)
    size = 2 * g
    fa = np.fft.rfft2(img, s=(size, size))
    fb = np.fft.rfft2(kern, s=(size, size))
    full = np.fft.irfft2(fa * fb, s=(size, size))
    half = g // 2
    return full[half:half + g, half:half + g]


def model_map(theta, ds):
    """Profile, projection, map expansion and beam for one cluster."""
    projected = forward_abel(theta, ds.r_max, ds.radial_grid)
    image = project_to_map(ds.radial_grid, projected, ds.grid_size, ds.pixel_size)
    return convolve_beam(image, ds.beam_fwhm, ds.pixel_size)


def evaluate(thetas, datasets):
    """Joint log-likelihood through the reference stages, in list order."""
    total = 0.0
    for theta, ds in zip(np.asarray(thetas, dtype=np.float64), datasets):
        total += -0.5 * chi_square(model_map(theta, ds), ds.obs_map, ds.sigma_map)
    return total
