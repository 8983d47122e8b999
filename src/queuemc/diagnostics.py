"""Convergence and efficiency diagnostics for ensembles of chains."""

from __future__ import annotations

import math

import numpy as np

DEFAULT_BURN_IN = 0.2


def _as_3d(samples: np.ndarray) -> np.ndarray:
    s = np.asarray(samples, dtype=np.float64)
    if s.ndim == 2:
        return s[:, :, None]
    if s.ndim == 3:
        return s
    raise ValueError("samples must have shape (walkers, iterations[, dim])")


def split_rhat(samples: np.ndarray) -> np.ndarray:
    """Split potential scale reduction factor per coordinate.

    Each chain is halved, doubling the chain count, and the usual
    between/within variance ratio is formed. Coordinates whose within-chain
    variance is exactly zero get the sentinel value ``inf`` (no variance to
    compare against).
    """
    s = _as_3d(samples)
    n_walkers, n_iter, dim = s.shape
    if n_walkers < 2:
        raise ValueError("split_rhat needs at least 2 walkers")
    if n_iter < 4:
        raise ValueError("split_rhat needs at least 4 iterations")
    half = n_iter // 2
    halves = np.concatenate([s[:, :half], s[:, half:2 * half]], axis=0)
    out = np.empty(dim)
    for d in range(dim):
        chains = halves[:, :, d]
        within = chains.var(axis=1, ddof=1).mean()
        if within == 0.0:
            out[d] = math.inf
            continue
        means = chains.mean(axis=1)
        between = half * means.var(ddof=1)
        var_plus = (half - 1) / half * within + between / half
        out[d] = math.sqrt(var_plus / within)
    return out


def effective_sample_size(samples: np.ndarray) -> np.ndarray:
    """Autocorrelation-based effective sample size per coordinate.

    Chain autocovariances are averaged across walkers and the integrated
    autocorrelation time is truncated with the initial-positive-sequence
    rule on paired lag sums.
    """
    s = _as_3d(samples)
    n_walkers, n_iter, dim = s.shape
    total = n_walkers * n_iter
    out = np.empty(dim)
    size = 1 << (2 * n_iter - 1).bit_length()
    for d in range(dim):
        chains = s[:, :, d]
        centered = chains - chains.mean(axis=1, keepdims=True)
        f = np.fft.rfft(centered, n=size, axis=1)
        acov = np.fft.irfft(f * np.conj(f), n=size, axis=1)[:, :n_iter] / n_iter
        c = acov.mean(axis=0)
        if c[0] <= 0:
            out[d] = float(total)
            continue
        rho = c / c[0]
        running = 0.0
        k = 0
        while 2 * k + 1 < n_iter:
            pair = rho[2 * k] + rho[2 * k + 1]
            if pair <= 0:
                break
            running += pair
            k += 1
        tau = max(2.0 * running - 1.0, 1.0)
        out[d] = min(float(total), total / tau)
    return out


def discard_burn_in(samples: np.ndarray, burn_in: float = DEFAULT_BURN_IN) -> np.ndarray:
    s = _as_3d(samples)
    drop = int(burn_in * s.shape[1])
    return s[:, drop:, :]


def summarize(output, burn_in: float = DEFAULT_BURN_IN) -> dict:
    """Plain-type diagnostic summary of a chain output, JSON-friendly.

    ``split_rhat`` is null for a coordinate whose chains have no variance,
    and for every coordinate when fewer than 2 walkers or 4 kept
    iterations leave nothing to compare.
    """
    kept = discard_burn_in(output.samples, burn_in)
    n_walkers, n_kept, dim = kept.shape
    if n_walkers >= 2 and n_kept >= 4:
        rhat = [None if math.isinf(v) else float(v) for v in split_rhat(kept)]
    else:
        rhat = [None] * dim
    ess = effective_sample_size(kept)
    counts = output.accept_counts
    return {
        "n_walkers": int(output.n_walkers),
        "n_iterations": int(output.n_iterations),
        "burn_in_fraction": burn_in,
        "backend": output.backend,
        "complete": bool(output.complete),
        "acceptance_rate": float(counts.sum() / output.accepted.size),
        "per_walker_acceptance": [float(c) / output.n_iterations for c in counts],
        "split_rhat": rhat,
        "ess": [float(v) for v in ess],
    }
