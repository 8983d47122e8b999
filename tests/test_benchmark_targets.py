"""The benchmark's span targets name functions that exist and are called.

perfbench times layers by wrapping named functions of the package (see
``perfbench/spans.py``). A target that is renamed or removed in the
package, or that its workload no longer calls, leaves its per-layer
metric empty, so installing every target here makes that a test failure
instead, and so do a workload's chain that no longer reaches one of its
targets and a kernel call that no longer passes through one of its stage
targets.
"""

import importlib
import json
import math
from pathlib import Path

import numpy as np

from queuemc import datasets, kernel
from queuemc.store import MemoryObjectStore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Targets known to be stale: perfbench still lists them, the package no
# longer has them.
STALE = {"plane.parse_task"}


def test_every_span_target_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    measure = importlib.import_module("measure")
    targets = {t for workload in workloads.WORKLOADS.values() for t in workload.targets}
    targets |= {*workloads.KERNEL_TARGETS, measure.ESS_TARGET}
    tracer = spans.Tracer()
    try:
        tracer.install(sorted(targets))
    finally:
        tracer.uninstall()
    assert set(tracer.absent) == STALE


def test_every_workload_calls_each_of_its_span_targets(monkeypatch):
    # As perfbench's traced run does: install a workload's targets, build
    # its session, run a chain. remote-stub starts its own worker process.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    uncalled = {}
    for name, workload_cls in workloads.WORKLOADS.items():
        workload = workload_cls(7)
        tracer = spans.Tracer()
        tracer.install(workload.targets)
        session = used = None
        try:
            session = workload.setup()
            _, used = workload.chain(session, workloads.chain_seed(7, 0))
        finally:
            tracer.uninstall()
            for opened in {session, used} - {None}:
                opened.close()
        uncalled[name] = set(tracer.guard()) - STALE
    assert uncalled == {name: set() for name in workloads.WORKLOADS}


def test_kernel_spans_record_a_fit_local_call(monkeypatch):
    # perfbench's kernel.*_ms metrics come from spans on the stage
    # functions; a kernel that bypassed a stage would leave its metric
    # empty. One fit-local-shaped call on a bundle, with a clamp-active
    # row so that every stage runs, must reach every kernel target.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    clusters, _ = datasets.make_synthetic(workloads.FIT_CLUSTERS, grid_size=workloads.FIT_GRID,
                                          seed=7)
    store = MemoryObjectStore()
    store.put("bundle", datasets.write_container(clusters))
    thetas = np.tile(workloads.FIT_INIT, (workloads.FIT_CLUSTERS, 1))
    thetas[0, 0] -= 0.1  # p(1) < 0: the clamp is active
    tracer = spans.Tracer()
    tracer.install(workloads.KERNEL_TARGETS)
    try:
        bundle = datasets.read_container(store.get("bundle"))
        assert math.isfinite(kernel.evaluate(thetas, bundle))
    finally:
        tracer.uninstall()
    assert tracer.guard() == {}


def test_traced_run_of_every_workload_ends_in_a_strict_result(monkeypatch, capsys):
    # perfbench's traced run, briefly: its last stdout line is the result,
    # and it must parse as strict JSON (no NaN or Infinity) with every
    # metric present and every check passed.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    measure = importlib.import_module("measure")
    workloads = importlib.import_module("workloads")

    def refuse(constant):
        raise ValueError(f"{constant} in a result line")

    for name in workloads.WORKLOADS:
        assert measure.run_one(name, 7, 0.2, True) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        result = json.loads(last, parse_constant=refuse)
        assert result["correct"] is True, name
        assert result["failed"] == 0, name
        assert [m for m, v in result["metrics"].items() if v["value"] is None] == [], name
