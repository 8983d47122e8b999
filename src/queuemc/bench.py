"""Benchmark harness for the simulated backend.

Two experiments, both on the virtual clock and both emitting CSV:

* overhead: one independent wave of n simultaneous stub likelihoods per
  requested n; the overhead of a wave is the interval between the arrival
  of its first and last outputs. With the default doubling-ramp model the
  overhead grows logarithmically in n.
* timeline: full lockstep sampler runs (stub target) for several walker
  counts, recording per-walker per-iteration completion stamps; near-
  vertical iteration bands mean adding walkers barely stretches the run.

Every emitted overhead row is cross-checked against the raw invocation
records before it is written. The events CSV lists those records; its
``msg_id`` column is each request's sequence number on its chain's queues.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .clocks import VirtualClock
from .engine import ChainConfig, ChainOutput, run_chains
from .errors import ConfigurationError
from .fabric import QueueFabric
from .plane import BackendModel, InvocationRecord, SimulatedPlane, make_stub_key

log = logging.getLogger(__name__)

OVERHEAD_CSV_HEADER = "n_parallel,overhead_s,overhead_ratio,seed"

JITTER_REPEAT_SEEDS = 5


@dataclass(frozen=True)
class OverheadReport:
    n_parallel: int
    overhead_s: float
    overhead_ratio: float
    seed: int


def reference_total_time(model: BackendModel, ref_iterations: int = 100) -> float:
    """Denominator for the overhead ratio: the time of a whole run,
    ``ref_iterations`` times one likelihood duration. ``ref_iterations``
    must be at least 1; at 1 the ratio compares a wave's overhead against
    one likelihood duration.
    """
    if ref_iterations < 1:
        raise ConfigurationError(f"ref_iterations must be at least 1, got {ref_iterations}")
    return ref_iterations * model.likelihood_duration_s


def run_overhead_wave(n: int, model: BackendModel, seed: int = 0,
                      ) -> tuple[float, list[InvocationRecord], list[float]]:
    """One independent wave of n simultaneous stub requests.

    The wave is the single iteration of an n-walker stub chain. Returns
    (overhead_s, invocation records, output arrival times by walker).
    """
    output, plane = _stub_chain(n, 1, model, seed)
    records = plane.records
    arrivals = output.complete_ts[:, 0].tolist()
    overhead = max(arrivals) - min(arrivals)
    recomputed = max(r.end_ts for r in records) - min(r.end_ts for r in records)
    if abs(recomputed - overhead) > 1e-9:
        raise RuntimeError(
            f"overhead cross-check failed: arrivals give {overhead}, "
            f"records give {recomputed}")
    return overhead, records, arrivals


def bench_overhead(n_list: list[int], model: BackendModel, seed: int = 0, *,
                   ref_iterations: int = 100,
                   ) -> tuple[list[OverheadReport], dict[tuple[int, int], list[InvocationRecord]]]:
    """Overhead sweep, one independent run per wave size.

    With jitter enabled each wave size is repeated over a fixed set of
    seeds so cross-run spread can be reported.
    """
    if not n_list:
        raise ConfigurationError("n_list must not be empty")
    reference = reference_total_time(model, ref_iterations)
    seeds = [seed] if model.jitter_std_s == 0 else [seed + k for k in range(JITTER_REPEAT_SEEDS)]
    reports: list[OverheadReport] = []
    records: dict[tuple[int, int], list[InvocationRecord]] = {}
    for n in n_list:
        per_seed = []
        for s in seeds:
            overhead, recs, _ = run_overhead_wave(n, model, seed=s)
            reports.append(OverheadReport(n_parallel=n, overhead_s=overhead,
                                          overhead_ratio=overhead / reference, seed=s))
            records[(n, s)] = recs
            per_seed.append(overhead)
        if len(per_seed) > 1:
            log.info("n=%d overhead %.3f +/- %.3f s over %d seeds",
                     n, float(np.mean(per_seed)), float(np.std(per_seed)), len(per_seed))
    return reports, records


def write_overhead_csv(path, reports: list[OverheadReport]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(OVERHEAD_CSV_HEADER + "\n")
        for r in reports:
            fh.write(f"{r.n_parallel},{r.overhead_s!r},{r.overhead_ratio!r},{r.seed}\n")


def write_events_csv(path, records: dict[tuple[int, int], list[InvocationRecord]]) -> None:
    """Raw invocation log backing an overhead CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n_parallel,seed,msg_id,worker_id,dispatch_ts,start_ts,end_ts,cold\n")
        for (n, s), recs in records.items():
            for r in recs:
                fh.write(f"{n},{s},{r.msg_id},{r.worker_id},"
                         f"{r.dispatch_ts!r},{r.start_ts!r},{r.end_ts!r},{int(r.cold)}\n")


def _stub_chain(n_walkers: int, n_iterations: int, model: BackendModel,
                seed: int) -> tuple[ChainOutput, SimulatedPlane]:
    """A stub-target chain on a fresh simulated plane; returns the chain
    and the plane, which builds its invocation records only if read."""
    fabric = QueueFabric(VirtualClock())
    input_q = fabric.create_queue("input")
    output_q = fabric.create_queue("output")
    plane = SimulatedPlane(input_q, output_q, model, seed=seed)
    config = ChainConfig(n_walkers=n_walkers, n_iterations=n_iterations,
                         proposal_scale=1.0, seed=seed)
    init = np.zeros((n_walkers, 1))
    output = run_chains(config, plane, input_q, output_q, init_positions=init,
                        dataset_key=make_stub_key(model.likelihood_duration_s))
    return output, plane


def run_stub_chain(n_walkers: int, n_iterations: int, model: BackendModel,
                   seed: int = 0) -> ChainOutput:
    """Full lockstep sampler on the simulated backend with a stub target."""
    return _stub_chain(n_walkers, n_iterations, model, seed)[0]


def total_time(output: ChainOutput) -> float:
    return float(output.complete_ts.max())


def iteration_spreads(output: ChainOutput) -> np.ndarray:
    """Per-iteration completion spread (max - min) across walkers."""
    complete = output.complete_ts
    return complete.max(axis=0) - complete.min(axis=0)


def verticality(output: ChainOutput) -> float:
    """Worst per-iteration completion spread as a fraction of run time.

    Small values mean the per-iteration completion bands are nearly
    vertical when plotted against time.
    """
    return float(iteration_spreads(output).max() / total_time(output))


def quartile_times(output: ChainOutput, fractions=(0.25, 0.5, 0.75)) -> dict[float, float]:
    """Virtual time at which the given fractions of iterations completed."""
    last = output.complete_ts.max(axis=0)
    n = output.n_iterations
    return {f: float(last[max(0, int(np.ceil(f * n)) - 1)]) for f in fractions}


def bench_timeline(w_list: list[int], n_iterations: int, model: BackendModel,
                   seed: int = 0) -> dict[int, ChainOutput]:
    """Timeline runs for each walker count, same model and seed."""
    if not w_list:
        raise ConfigurationError("w_list must not be empty")
    return {w: run_stub_chain(w, n_iterations, model, seed=seed) for w in w_list}


def write_timeline_summary_csv(path, outputs: dict[int, ChainOutput]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("walkers,total_time_s,time_25pct,time_50pct,time_75pct,"
                 "verticality,max_iteration_spread_s\n")
        for w in sorted(outputs):
            out = outputs[w]
            q = quartile_times(out)
            fh.write(f"{w},{total_time(out)!r},{q[0.25]!r},{q[0.5]!r},{q[0.75]!r},"
                     f"{verticality(out)!r},{float(iteration_spreads(out).max())!r}\n")
