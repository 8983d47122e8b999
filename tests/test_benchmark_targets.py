"""The benchmark's span targets name functions that exist.

perfbench times layers by wrapping named functions of the package (see
``perfbench/spans.py``). A target that is renamed or removed in the
package leaves its per-layer metric empty, so installing every target
here makes that a test failure instead.
"""

import importlib
from pathlib import Path

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
