"""Timed phases, set-up timing, per-layer metrics and the result record."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time

import numpy as np

from queuemc.errors import MissingResponseError, QueueMCError
from queuemc.store import content_digest

from spans import Tracer
from workloads import (ROOT, SRC, WORKLOADS, chain_digest, chain_seed,
                       clamp_active_fraction, kernel_replay, min_ess)

# Chains a phase runs however long they take, so medians have a middle.
MIN_CHAINS = 2
ESS_TARGET = "diagnostics.effective_sample_size"


def load_spec() -> dict:
    """BENCHMARK.json: the workloads' reasons and every metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class Phase:
    """What one timed phase ran and measured."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.chain_walls: list[float] = []
        # Per chain: 1 over the host's mean pace around it, or 1 (see pace.py).
        self.chain_scale: list[float] = []
        self.paces: list[float] = []
        self.chain_ess: list[float] = []
        self.iter_ms: list[float] = []
        self.latency_ms: list[float] = []
        self.iter_span_s = 0.0
        self.first = None
        self.first_session = None
        self.records: list = []
        # Per chain: (pushed, delivered, pending after, invocations, cold).
        self.per_chain: list[tuple[int, int, int, int, int]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def chains(self) -> int:
        return len(self.chain_walls)

    def walls(self) -> list[float]:
        """Chain wall times, scaled to the nominal pace on a paced workload."""
        return [w * k for w, k in zip(self.chain_walls, self.chain_scale)]

    def evals_per_s(self, scaled: bool = True) -> float:
        per_chain = self.workload.walkers * self.workload.iterations
        walls = self.walls() if scaled else self.chain_walls
        return statistics.median(per_chain / w for w in walls)

    def ess_per_s(self) -> float:
        return statistics.median(e / w for e, w in zip(self.chain_ess, self.walls()))

    def per_chain_median(self, index: int) -> float | None:
        if not self.per_chain:
            return None
        return float(statistics.median(c[index] for c in self.per_chain))


def timed_phase(workload, session, seconds: float) -> Phase:
    """Run chains, each from its own seed, until ``seconds`` have passed.

    On a paced workload the host's pace is taken before the first chain and
    after every chain, and each chain's times are divided by the mean of
    the two paces around it.
    """
    phase = Phase(workload)
    w_count, n_iter = workload.walkers, workload.iterations
    deadline = time.perf_counter() + seconds
    pace_before = workload.host_pace()
    while phase.chains < MIN_CHAINS or time.perf_counter() < deadline:
        before = session.totals()
        n_before = len(session.plane.records)
        t0 = time.perf_counter()
        try:
            output, used = workload.chain(session, chain_seed(workload.seed, phase.chains))
        except MissingResponseError as exc:
            done = exc.partial_output.n_iterations if exc.partial_output is not None else 0
            phase.attempted += w_count * (done + 1)
            phase.failed += len(exc.missing_ids)
            phase.problems.append(f"chain {phase.chains}: {exc}")
            break
        except (QueueMCError, OSError) as exc:
            phase.attempted += w_count
            phase.failed += w_count
            phase.problems.append(f"chain {phase.chains}: {type(exc).__name__}: {exc}")
            break
        wall = time.perf_counter() - t0
        scale = 1.0
        if pace_before is not None:
            pace_after = workload.host_pace()
            phase.paces.append(pace_after)
            scale = 2.0 / (pace_before + pace_after)
            pace_before = pace_after
        phase.chain_walls.append(wall)
        phase.chain_scale.append(scale)
        phase.attempted += w_count * n_iter
        phase.chain_ess.append(min_ess(output))

        if used is not session:
            before, n_before = (0, 0, 0), 0
            phase.problems.extend(used.check())
        after = used.totals()
        records = used.plane.records[n_before:]
        phase.per_chain.append((after[0] - before[0], after[1] - before[1], after[2],
                                len(records), sum(r.cold for r in records)))
        if workload.wall_timeline:
            phase.records.extend(records)
            by_iter: dict[int, list] = {}
            for rec in output.timeline:
                by_iter.setdefault(rec.iteration, []).append(rec)
                phase.latency_ms.append(1e3 * (rec.complete_ts - rec.dispatch_ts))
            for recs in by_iter.values():
                span = max(r.complete_ts for r in recs) - min(r.dispatch_ts for r in recs)
                phase.iter_span_s += span
                phase.iter_ms.append(1e3 * span * scale)
        else:
            phase.iter_ms.append(1e3 * wall * scale / n_iter)
        if phase.first is None:
            phase.first, phase.first_session = output, used
    return phase


def check_output(phase: Phase, session) -> list[str]:
    """Checks on the phase's first chain, which is run again from its seed.

    Run with no spans installed, before ``session`` closes.
    """
    if phase.first is None:
        return []
    workload = phase.workload
    again, used = workload.chain(session, chain_seed(workload.seed, 0))
    problems = [] if used is session else used.check()
    if chain_digest(again) != chain_digest(phase.first):
        problems.append("the first chain differs when run again from its seed")
    return problems + workload.check_output(phase.first, phase.first_session)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], math.floor(100.0 * (n - 10) / n), n


def measure_setup(workload, repeats: int):
    """Median set-up time over fresh sessions; returns (median, last session, problems).

    On a paced workload the median is divided by the mean of the host's
    paces before and after the set-ups.
    """
    times, problems, session = [], [], None
    pace_before = workload.host_pace()
    for _ in range(repeats):
        if session is not None:
            problems.extend(session.check())
            session.close()
        t0 = time.perf_counter()
        session = workload.setup()
        times.append(time.perf_counter() - t0)
    scale = 1.0
    if pace_before is not None:
        scale = 2.0 / (pace_before + workload.host_pace())
    return statistics.median(times) * scale, session, problems


def run_e2e(workload, seconds: float):
    setup_s, session, problems = measure_setup(workload, workload.setup_repeats)
    try:
        phase = timed_phase(workload, session, seconds)
        problems += phase.problems + check_output(phase, session) + session.check()
    finally:
        session.close()
    completed = phase.attempted - phase.failed
    metrics = {"setup_s": setup_s, "success_frac": completed / max(phase.attempted, 1),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    notes = []
    if phase.chains:
        wall = statistics.median(phase.chain_walls)
        iter_tail, pct, n = tail(phase.iter_ms)
        metrics.update(evals_per_s=phase.evals_per_s(),
                       iter_p50_ms=statistics.median(phase.iter_ms), iter_tail_ms=iter_tail,
                       ess_per_s=phase.ess_per_s())
        notes.append(f"iter_tail_ms is p{pct:g} of {n} iteration samples; "
                     f"{phase.chains} chains, median chain {wall:.4f} s wall")
        if phase.paces:
            notes.append(f"times scaled to the nominal pace; the host's pace was "
                         f"{statistics.median(phase.paces):.4f} (median of {len(phase.paces)}); "
                         f"unscaled evals_per_s {phase.evals_per_s(scaled=False):.6g}")
    return metrics, [phase], problems, notes


def run_traced(workload, seconds: float):
    """An untraced half, a traced half, then the serial kernel replay."""
    session = workload.setup()
    try:
        plain = timed_phase(workload, session, seconds / 2)
        problems = plain.problems + check_output(plain, session) + session.check()
    finally:
        session.close()

    tracer = Tracer()
    tracer.install(workload.targets + (ESS_TARGET,))
    session = None
    try:
        session = workload.setup()
        tracer.reset()
        traced = timed_phase(workload, session, seconds / 2)
        tracer.uninstall()
        problems += traced.problems + check_output(traced, session) + session.check()
    finally:
        tracer.uninstall()
        if session is not None:
            session.close()

    replay = Tracer()
    rows = kernel_replay(workload.seed, replay)
    absent = {**tracer.guard(), **replay.guard()}
    metrics = layer_metrics(workload, plain, traced, tracer, replay, rows, absent)
    notes = [f"absent: {target} ({reason})" for target, reason in sorted(absent.items())]
    notes.append(f"untraced half ran {plain.chains} chains, traced half {traced.chains}; "
                 "a layer the workload does not reach reads 0")
    return metrics, [plain, traced], problems, notes


def layer_metrics(workload, plain: Phase, traced: Phase, tracer, replay, rows, absent) -> dict:
    reached = set(workload.targets) | {ESS_TARGET}
    requests = max(traced.chains * workload.walkers * workload.iterations, 1)
    iterations = max(traced.chains * workload.iterations, 1)
    chains = max(traced.chains, 1)

    def span(target, field="incl", scale=1e6, per=None, source=None):
        """Mean per call (or per ``per``) of a target's inclusive or self time."""
        source = source or tracer
        if target in absent:
            return None
        if source is tracer and target not in reached:
            return 0.0
        calls, incl, self_s = source.stats(target)
        return scale * (incl if field == "incl" else self_s) / (per or max(calls, 1))

    def clock_wait_us():
        targets = [t for t in ("clocks.VirtualClock.wait", "clocks.WallClock.wait")
                   if t in reached]
        if any(t in absent for t in targets):
            return None
        stats = [tracer.stats(t) for t in targets]
        return 1e6 * sum(s[2] for s in stats) / max(sum(s[0] for s in stats), 1)

    def calls_per_chain(target):
        if target in absent:
            return None
        return tracer.stats(target)[0] / chains if target in reached else 0.0

    m = {
        "kernel.evaluate_ms": span("kernel.evaluate", scale=1e3, source=replay),
        "kernel.abel_ms": span("kernel.forward_abel", scale=1e3, source=replay),
        "kernel.map_ms": span("kernel.project_to_map", scale=1e3, source=replay),
        "kernel.beam_ms": span("kernel.convolve_beam", scale=1e3, source=replay),
        "kernel.chi2_ms": span("kernel.chi_square", scale=1e3, source=replay),
        "kernel.clamp_active_frac": clamp_active_fraction(rows),
        "engine.self_us_per_req": span("engine.run_chains", "self", per=requests),
        "engine.propose_us": span("engine.propose"),
        "engine.mh_step_us": span("engine.mh_step"),
        "engine.wait_ms_per_iter": span("fabric.Queue.pop", scale=1e3, per=iterations),
        "fabric.pushed": plain.per_chain_median(0),
        "fabric.delivered": plain.per_chain_median(1),
        "fabric.pending_end": plain.per_chain_median(2),
        "fabric.push_self_us": span("fabric.Queue.push", "self"),
        "fabric.pop_self_us": span("fabric.Queue.pop", "self"),
        "fabric.encode_us": span("fabric.encode_message"),
        "fabric.decode_us": span("fabric.decode_message"),
        "payloads.pack_request_us": span("payloads.pack_request"),
        "payloads.unpack_request_us": span("payloads.unpack_request"),
        "payloads.pack_response_us": span("payloads.pack_response"),
        "payloads.unpack_response_us": span("payloads.unpack_response"),
        "plane.sim_assign_us": span("plane.SimScheduler.assign"),
        "plane.task_run_ms": span("plane.TaskRunner.run", "self", scale=1e3),
        "plane.invocations": plain.per_chain_median(3),
        "plane.cold": plain.per_chain_median(4),
        "clocks.events": calls_per_chain("clocks.VirtualClock.schedule"),
        "clocks.wait_us": clock_wait_us(),
        "remote.frame_write_us": span("remote.write_frame"),
        "datasets.read_container_ms": span("datasets.read_container", scale=1e3, source=replay),
        "store.get_ms": span("store.MemoryObjectStore.get", scale=1e3, source=replay),
        "diagnostics.ess_ms": span(ESS_TARGET, scale=1e3),
    }
    m.update(pool_metrics(workload, plain))
    m.update(remote_metrics(workload, plain))
    if plain.chains and traced.chains:
        m["trace.overhead_frac"] = 1.0 - traced.evals_per_s() / plain.evals_per_s()
    return m


def pool_metrics(workload, phase: Phase) -> dict:
    """Pool wait and use from fit-local's invocation records, all on one wall clock."""
    if workload.backend != "local":
        return {"plane.queue_wait_ms": 0.0, "plane.busy_frac": 0.0, "plane.parallel_eff": 0.0}
    if not phase.records:
        return {}
    busy = sum(r.end_ts - r.start_ts for r in phase.records)
    capacity = workload.pool_size
    return {
        "plane.queue_wait_ms": 1e3 * statistics.median(r.start_ts - r.dispatch_ts
                                                       for r in phase.records),
        "plane.busy_frac": busy / (capacity * sum(phase.chain_walls)),
        "plane.parallel_eff": busy / (capacity * phase.iter_span_s),
    }


def remote_metrics(workload, phase: Phase) -> dict:
    """Waits from client timeline stamps; server busy time and overlap from server stamps."""
    if workload.backend != "remote":
        return {"remote.roundtrip_ms": 0.0, "remote.server_busy_ms": 0.0,
                "remote.server_concurrency": 0.0}
    if not phase.records:
        return {}
    edges = sorted([(r.start_ts, 1) for r in phase.records]
                   + [(r.end_ts, -1) for r in phase.records])
    level = peak = 0
    for _, step in edges:
        level += step
        peak = max(peak, level)
    return {
        "remote.roundtrip_ms": statistics.median(phase.latency_ms),
        "remote.server_busy_ms": 1e3 * statistics.median(r.end_ts - r.start_ts
                                                         for r in phase.records),
        "remote.server_concurrency": float(peak),
    }


def manifest(workload, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = sorted((SRC / "queuemc").glob("*.py"))
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "commit": commit,
        "source_digest": content_digest(b"".join(p.name.encode() + p.read_bytes()
                                                 for p in sources)),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": workload.name, "seed": seed, "params": workload.params(),
        "input_digest": workload.input_digest(),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    workload = WORKLOADS[name](seed)
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == name))
    run = run_traced if trace else run_e2e
    metrics, phases, problems, notes = run(workload, seconds)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"metrics not computed: {missing}")
    for metric, unit in units.items():
        value = metrics.get(metric)
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"metric {metric} = {shown} {unit}")
    for note in notes:
        print(f"note: {note}")
    for problem in dict.fromkeys(problems):
        repeats = problems.count(problem)
        print(f"check failed: {problem}" + (f" (x{repeats})" if repeats > 1 else ""))
    if not problems:
        print("checks: all passed")
    print("manifest " + json.dumps(manifest(workload, seed), sort_keys=True))
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps({
        "correct": not problems, "attempted": max(attempted, 1), "failed": failed,
        "metrics": {metric: {"value": metrics.get(metric), "unit": unit}
                    for metric, unit in units.items()}}))
    return 0
