import dataclasses
import math
import struct

import numpy as np
import pytest

from queuemc.datasets import (CONTAINER_MAGIC, ClusterDataset, make_synthetic, read_container,
                              write_container)
from queuemc.errors import WireFormatError


def tiny_dataset(cluster_id="t0", grid=4):
    rng = np.random.default_rng(0)
    return ClusterDataset(
        cluster_id=cluster_id,
        obs_map=rng.random((grid, grid)),
        sigma_map=0.1 + rng.random((grid, grid)),
        pixel_size=0.25,
        beam_fwhm=0.5,
        r_max=1.0,
        radial_grid=np.linspace(0.0, 0.9, 6))


def test_container_round_trip():
    datasets = [tiny_dataset("a"), tiny_dataset("b", grid=6)]
    back = read_container(write_container(datasets))
    assert len(back) == 2
    for orig, copy in zip(datasets, back):
        assert copy.cluster_id == orig.cluster_id
        assert np.array_equal(copy.obs_map, orig.obs_map)
        assert np.array_equal(copy.sigma_map, orig.sigma_map)
        assert np.array_equal(copy.radial_grid, orig.radial_grid)
        assert (copy.pixel_size, copy.beam_fwhm, copy.r_max) == (
            orig.pixel_size, orig.beam_fwhm, orig.r_max)


def test_container_binary_layout():
    ds = tiny_dataset("ab", grid=4)
    blob = write_container([ds])
    assert blob[:4] == b"QMC1"
    (count,) = struct.unpack_from("<I", blob, 4)
    assert count == 1
    (id_len,) = struct.unpack_from("<I", blob, 8)
    assert id_len == 2
    assert blob[12:14] == b"ab"
    grid, n_radial = struct.unpack_from("<II", blob, 14)
    assert (grid, n_radial) == (4, 6)
    pixel, fwhm, r_max = struct.unpack_from("<ddd", blob, 22)
    assert (pixel, fwhm, r_max) == (0.25, 0.5, 1.0)
    radial = np.frombuffer(blob, dtype="<f8", count=6, offset=46)
    assert np.array_equal(radial, ds.radial_grid)
    obs = np.frombuffer(blob, dtype="<f8", count=16, offset=46 + 48)
    assert np.array_equal(obs.reshape(4, 4), ds.obs_map)
    expected_size = 46 + 48 + 2 * 16 * 8
    assert len(blob) == expected_size


def test_container_rejects_bad_magic():
    blob = write_container([tiny_dataset()])
    with pytest.raises(WireFormatError):
        read_container(b"XXXX" + blob[4:])


def test_container_rejects_truncation_and_trailing():
    blob = write_container([tiny_dataset()])
    with pytest.raises(WireFormatError):
        read_container(blob[:-8])
    with pytest.raises(WireFormatError):
        read_container(blob + b"junk")


def test_container_rejects_zero_clusters():
    blob = write_container([])
    assert blob == CONTAINER_MAGIC + bytes(4)
    with pytest.raises(WireFormatError, match="no clusters"):
        read_container(blob)
    with pytest.raises(WireFormatError, match="no clusters"):
        read_container(blob + b"junk")


def test_dataset_validation():
    good = tiny_dataset()
    with pytest.raises(ValueError):
        ClusterDataset(cluster_id="x", obs_map=np.zeros((5, 5)),
                       sigma_map=np.ones((5, 5)), pixel_size=1.0,
                       beam_fwhm=1.0, r_max=1.0,
                       radial_grid=good.radial_grid)  # odd grid
    with pytest.raises(ValueError):
        ClusterDataset(cluster_id="x", obs_map=np.zeros((4, 4)),
                       sigma_map=np.zeros((4, 4)), pixel_size=1.0,
                       beam_fwhm=1.0, r_max=1.0,
                       radial_grid=good.radial_grid)  # sigma not positive
    with pytest.raises(ValueError):
        ClusterDataset(cluster_id="x", obs_map=np.zeros((4, 4)),
                       sigma_map=np.ones((4, 4)), pixel_size=1.0,
                       beam_fwhm=1.0, r_max=0.5,
                       radial_grid=good.radial_grid)  # grid beyond r_max
    with pytest.raises(ValueError):
        ClusterDataset(cluster_id="x", obs_map=np.zeros((4, 4)),
                       sigma_map=np.ones((4, 4)), pixel_size=1.0,
                       beam_fwhm=1.0, r_max=good.radial_grid[-1],
                       radial_grid=good.radial_grid)  # grid reaching r_max
    with pytest.raises(ValueError, match="at least 2"):
        ClusterDataset(cluster_id="x", obs_map=np.zeros((0, 0)),
                       sigma_map=np.ones((0, 0)), pixel_size=1.0,
                       beam_fwhm=1.0, r_max=1.0,
                       radial_grid=good.radial_grid)  # empty map


def zero_grid(blob: bytes, ds: ClusterDataset) -> bytes:
    """``blob`` (a one-cluster container of ``ds``) with grid size 0 and
    so no map bytes: well-formed, but a 0 × 0 map."""
    out = bytearray(blob[:len(blob) - 16 * ds.grid_size ** 2])
    struct.pack_into("<I", out, 4 + 4 + 4 + len(ds.cluster_id.encode("utf-8")), 0)
    return bytes(out)


def test_container_with_zero_grid_is_rejected():
    # Every evaluation of a 0 × 0 map would fail; reading it is the error.
    ds = tiny_dataset()
    with pytest.raises(WireFormatError, match="grid size must be at least 2"):
        read_container(zero_grid(write_container([ds]), ds))


def corrupt(blob: bytes, ds: ClusterDataset, field: str) -> bytes:
    """``blob`` (a one-cluster container of ``ds``) with NaN in ``field``."""
    geometry = 4 + 4 + 4 + len(ds.cluster_id.encode("utf-8")) + 4 + 4
    offsets = {"pixel_size": geometry, "beam_fwhm": geometry + 8, "r_max": geometry + 16,
               "obs_map": geometry + 24 + 8 * ds.n_radial + 8 * 5,
               "sigma_map": geometry + 24 + 8 * ds.n_radial + 8 * ds.grid_size ** 2}
    out = bytearray(blob)
    struct.pack_into("<d", out, offsets[field], math.nan)
    return bytes(out)


@pytest.mark.parametrize("field", ["pixel_size", "beam_fwhm", "r_max", "obs_map",
                                   "sigma_map"])
def test_container_with_nan_is_rejected(field):
    ds = tiny_dataset()
    with pytest.raises(WireFormatError, match="finite"):
        read_container(corrupt(write_container([ds]), ds, field))


@pytest.mark.parametrize("radial", [[0.0, math.nan, 0.9], [math.nan, 0.5, 0.9],
                                    [0.0, 0.5, math.nan]])
def test_nan_radial_grid_is_rejected(radial):
    good = tiny_dataset()
    with pytest.raises(ValueError):
        dataclasses.replace(good, radial_grid=np.array(radial))


def test_infinite_sigma_is_rejected():
    good = tiny_dataset()
    sigma = good.sigma_map.copy()
    sigma[0, 0] = math.inf
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(good, sigma_map=sigma)


def test_synthetic_generator_deterministic():
    a_sets, a_truth = make_synthetic(3, grid_size=32, seed=21)
    b_sets, b_truth = make_synthetic(3, grid_size=32, seed=21)
    assert np.array_equal(a_truth, b_truth)
    for a, b in zip(a_sets, b_sets):
        assert np.array_equal(a.obs_map, b.obs_map)
        assert np.array_equal(a.sigma_map, b.sigma_map)
    c_sets, c_truth = make_synthetic(3, grid_size=32, seed=22)
    assert not np.array_equal(a_truth, c_truth)


def test_synthetic_radial_grid_strictly_inside_support():
    datasets, _ = make_synthetic(1, grid_size=32, seed=0)
    ds = datasets[0]
    assert ds.radial_grid[0] == 0.0
    assert ds.radial_grid[-1] < ds.r_max


def test_synthetic_zero_noise_unit_sigma():
    datasets, _ = make_synthetic(1, grid_size=32, seed=0, noise_level=0.0)
    assert np.all(datasets[0].sigma_map == 1.0)


def test_synthetic_respects_degree():
    _, truths = make_synthetic(2, grid_size=32, seed=0, degree=2)
    assert truths.shape == (2, 3)
