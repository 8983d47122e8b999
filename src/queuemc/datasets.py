"""Cluster datasets: container format and synthetic generation.

A dataset bundle is the object-store payload every worker reads: per
cluster an observed map, a per-pixel noise map, beam and grid geometry,
and the radial grid the projected profile is evaluated on.

Binary container layout (little-endian): magic ``QMC1``, cluster count as
u32, then per cluster: id length u32 + UTF-8 id, grid size u32, radial
point count u32, pixel_size f64, beam_fwhm f64, r_max f64, radial grid
(f64 each), observed map then noise map (grid_size^2 f64, row-major).
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel
from .errors import WireFormatError

CONTAINER_MAGIC = b"QMC1"

_U32 = struct.Struct("<I")
_F64 = struct.Struct("<d")

# Population used by the synthetic generator: a decreasing cubic profile
# with unit central value, p(1) = 0 at the truncation radius r_max = 1.
POPULATION_MEAN = (1.0, -0.5, -0.5, 0.0)
POPULATION_STD = 0.05


@dataclass(frozen=True, eq=False)
class ClusterDataset:
    """Observed data and geometry for one cluster."""

    cluster_id: str
    obs_map: np.ndarray
    sigma_map: np.ndarray
    pixel_size: float
    beam_fwhm: float
    r_max: float
    radial_grid: np.ndarray

    def __post_init__(self) -> None:
        obs = np.asarray(self.obs_map, dtype=np.float64)
        sig = np.asarray(self.sigma_map, dtype=np.float64)
        radial = np.asarray(self.radial_grid, dtype=np.float64)
        object.__setattr__(self, "obs_map", obs)
        object.__setattr__(self, "sigma_map", sig)
        object.__setattr__(self, "radial_grid", radial)
        if obs.ndim != 2 or obs.shape[0] != obs.shape[1]:
            raise ValueError("obs_map must be square")
        if obs.shape[0] < 2:
            raise ValueError("grid size must be at least 2")
        if obs.shape[0] % 2 != 0:
            raise ValueError("grid size must be even")
        # Every check below is written so that NaN fails it.
        if sig.shape != obs.shape:
            raise ValueError("sigma_map must match obs_map shape")
        if not np.all(np.isfinite(obs)):
            raise ValueError("obs_map entries must be finite")
        if not np.all((0 < sig) & (sig < np.inf)):
            raise ValueError("sigma_map entries must be finite and positive")
        if not all(0 < v < math.inf for v in (self.pixel_size, self.beam_fwhm, self.r_max)):
            raise ValueError("pixel_size, beam_fwhm and r_max must be finite and positive")
        if radial.ndim != 1 or radial.size < 2:
            raise ValueError("radial_grid must have at least two points")
        if not np.all(np.diff(radial) > 0):
            raise ValueError("radial_grid must be strictly increasing")
        if not (0 <= radial[0] and radial[-1] < self.r_max):
            # The projection of the profile is defined only inside r_max.
            raise ValueError("radial_grid must lie in [0, r_max)")

    @property
    def grid_size(self) -> int:
        return self.obs_map.shape[0]

    @property
    def n_radial(self) -> int:
        return self.radial_grid.size


def write_container(datasets: Sequence[ClusterDataset]) -> bytes:
    """Serialize datasets to the binary container format."""
    buf = io.BytesIO()
    buf.write(CONTAINER_MAGIC)
    buf.write(_U32.pack(len(datasets)))
    for ds in datasets:
        ident = ds.cluster_id.encode("utf-8")
        buf.write(_U32.pack(len(ident)))
        buf.write(ident)
        buf.write(_U32.pack(ds.grid_size))
        buf.write(_U32.pack(ds.n_radial))
        buf.write(_F64.pack(ds.pixel_size))
        buf.write(_F64.pack(ds.beam_fwhm))
        buf.write(_F64.pack(ds.r_max))
        buf.write(np.ascontiguousarray(ds.radial_grid, dtype="<f8").tobytes())
        buf.write(np.ascontiguousarray(ds.obs_map, dtype="<f8").tobytes())
        buf.write(np.ascontiguousarray(ds.sigma_map, dtype="<f8").tobytes())
    return buf.getvalue()


def read_container(data: bytes) -> kernel.DatasetBundle:
    """Parse a binary container back into datasets.

    Returns a :class:`kernel.DatasetBundle` of the datasets in container
    order: the bundle copies each map once into its group's read-only
    stacks and keeps no reference to ``data``. A container with no
    clusters is refused.
    """
    view = memoryview(data)
    if bytes(view[:4]) != CONTAINER_MAGIC:
        raise WireFormatError("bad container magic")
    off = 4
    try:
        (count,) = _U32.unpack_from(view, off)
        off += 4
        out = []
        for _ in range(count):
            (id_len,) = _U32.unpack_from(view, off)
            off += 4
            ident = bytes(view[off:off + id_len]).decode("utf-8")
            off += id_len
            grid, n_radial = struct.unpack_from("<II", view, off)
            off += 8
            pixel_size, beam_fwhm, r_max = struct.unpack_from("<ddd", view, off)
            off += 24
            radial = np.frombuffer(view, dtype="<f8", count=n_radial, offset=off).copy()
            off += 8 * n_radial
            obs, sigma = np.frombuffer(view, dtype="<f8", count=2 * grid * grid,
                                       offset=off).reshape(2, grid, grid)
            off += 16 * grid * grid
            out.append(ClusterDataset(cluster_id=ident, obs_map=obs, sigma_map=sigma,
                                      pixel_size=pixel_size, beam_fwhm=beam_fwhm,
                                      r_max=r_max, radial_grid=radial))
    except (struct.error, ValueError) as exc:
        raise WireFormatError(f"truncated or invalid container: {exc}") from exc
    if count == 0:
        raise WireFormatError("container holds no clusters")
    if off != len(data):
        raise WireFormatError(f"{len(data) - off} trailing bytes after container")
    return kernel.DatasetBundle(out)


def make_synthetic(n_clusters: int, grid_size: int = 64, seed: int = 0, *,
                   n_radial: int | None = None, noise_level: float = 0.05,
                   degree: int = 3) -> tuple[list[ClusterDataset], np.ndarray]:
    """Generate clusters with known ground truth.

    Each cluster's true coefficient vector is drawn from a Gaussian
    population around a decreasing cubic profile with r_max = 1 (its
    leading ``degree + 1`` coefficients, zero-padded); the observed map is
    the full forward pipeline at the truth plus Gaussian pixel noise with
    standard deviation ``noise_level`` times the peak model value
    (``noise_level=0`` gives noise-free maps with unit sigma).

    Returns the dataset list and the (n_clusters, degree + 1) truth matrix.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if grid_size % 2 != 0:
        raise ValueError("grid_size must be even")
    rng = np.random.default_rng(seed)
    n_coeff = degree + 1
    mean = np.zeros(n_coeff)
    base = np.asarray(POPULATION_MEAN)
    mean[: min(n_coeff, base.size)] = base[: min(n_coeff, base.size)]
    r_max = 1.0

    # Map half-width 1.2 r_max leaves margin for the beam wings.
    pixel_size = 2.4 * r_max / grid_size
    beam_fwhm = 3.0 * pixel_size
    m = n_radial if n_radial is not None else 2 * grid_size
    radial_grid = np.linspace(0.0, 0.97 * r_max, m)

    truths = mean[None, :] + POPULATION_STD * rng.standard_normal((n_clusters, n_coeff))
    geometry = dict(pixel_size=pixel_size, beam_fwhm=beam_fwhm, r_max=r_max,
                    radial_grid=radial_grid)
    models = kernel.cluster_model_map(truths, r_max, radial_grid, grid_size,
                                      pixel_size, beam_fwhm)
    datasets: list[ClusterDataset] = []
    for c, probe in enumerate(models):
        peak = float(np.max(np.abs(probe)))
        if noise_level > 0 and peak > 0:
            sigma = np.full_like(probe, noise_level * peak)
            obs = probe + sigma * rng.standard_normal(probe.shape)
        else:
            sigma = np.ones_like(probe)
            obs = probe
        datasets.append(ClusterDataset(
            cluster_id=f"synth-{seed:04d}-{c:04d}", obs_map=obs, sigma_map=sigma,
            **geometry))
    return datasets, truths
