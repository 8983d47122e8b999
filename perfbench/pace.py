"""The host's pace: how fast it runs a fixed piece of reference work now.

On a shared host the speed of a CPU drifts by tens of percent over
minutes, and a run of tens of seconds does not average that away: in
runs of several minutes, the medians of 25-second windows of back-to-back
chains spread 0.09 (``fit-local``) to 0.21 (``sim-stub``), as quartile
distance over median. Timing a fixed reference just before and after each
chain measures the host's pace at that moment, as the reference's time
over its nominal time; a chain's wall time divided by the mean of the two
paces around it is what it would have taken on a host at the nominal
pace. On the same runs the scaled medians spread 0.03-0.04.

That holds only when the reference uses the host as the workload does.
Each reference here mimics one workload's kind of work; scaling by the
other one made the spread worse, not better. The references are
benchmark code, so a change to the program moves a scaled time exactly as
it moves the wall time.
"""

from __future__ import annotations

import heapq
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Nominal times are medians over runs of several minutes on a 2-vCPU Intel
# Xeon VM (Python 3.11.7, numpy 2.4.6, one BLAS thread); that host's own
# pace ranged over 0.7-1.0 of them from hour to hour.
INTERPRETER_NOMINAL_S = 0.0105
POOL_NOMINAL_S = 0.0159
RUNS = 3
ITEMS = 2048

# Shapes of fit-local's kernel: 128 projected radii, 512 Simpson intervals,
# a 64-pixel map, a beam convolution padded to 128, and 8 clusters.
_Y = np.linspace(0.0, 0.99, 128)
_T = np.linspace(0.0, 1.0, 513)
_W = np.ones(513)
_IDX = np.arange(64) - 31.5
_RHO = 0.015 * np.sqrt(_IDX[:, None] ** 2 + _IDX[None, :] ** 2)
_CLUSTERS = 8


def _interpreter_work() -> None:
    """A coordinator's work: small dicts and arrays per walker, a heap, bytes out."""
    rng = np.random.default_rng(0)
    items = [{"id": i, "pos": rng.standard_normal(1), "tag": f"w{i}"} for i in range(ITEMS)]
    heap: list[tuple[float, int]] = []
    for item in items:
        heapq.heappush(heap, (float(item["pos"][0]), item["id"]))
    out = {}
    while heap:
        _, i = heapq.heappop(heap)
        out[i] = items[i]["pos"].tobytes()


def _array_work() -> None:
    """A likelihood's work: quadrature on a node grid, interpolation, FFTs."""
    for k in range(_CLUSTERS):
        r = np.sqrt(_Y[:, None] ** 2 + (_T[None, :] * (1.0 - 0.001 * k)) ** 2)
        f = np.maximum(1.0 - r + 0.5 * r * r - 0.3 * r ** 3, 0.0)
        img = np.interp(_RHO, _Y, f @ _W, right=0.0)
        spec = np.fft.rfft2(img, s=(128, 128))
        full = np.fft.irfft2(spec * spec, s=(128, 128))
        float(((full[32:96, 32:96] - img) ** 2).sum())


def _median_time(work) -> float:
    """Median wall seconds of RUNS runs of ``work``.

    The median drops a run that an interrupt, a neighbour or the first
    call's lazy set-up stretched.
    """
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def interpreter() -> float:
    """Pace of single-thread interpreter work on the calling thread."""
    return _median_time(_interpreter_work) / INTERPRETER_NOMINAL_S


def pool(threads: int) -> float:
    """Pace of numpy kernel work on ``threads`` pool threads, one task each."""
    with ThreadPoolExecutor(threads) as executor:
        def work() -> None:
            for future in [executor.submit(_array_work) for _ in range(threads)]:
                future.result()
        return _median_time(work) / POOL_NOMINAL_S
