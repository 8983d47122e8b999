import math
import re

import numpy as np
import pytest

from queuemc.bench import (OVERHEAD_CSV_HEADER, bench_overhead, bench_timeline,
                           iteration_spreads, quartile_times,
                           reference_total_time, run_overhead_wave,
                           run_stub_chain, total_time, verticality,
                           write_events_csv, write_overhead_csv,
                           write_timeline_summary_csv)
from queuemc.engine import write_timeline_csv
from queuemc.errors import ConfigurationError
from queuemc.plane import BackendModel
from queuemc.store import content_digest


def overheads(reports):
    return [r.overhead_s for r in reports]


def test_single_output_has_zero_overhead():
    reports, _ = bench_overhead([1], BackendModel())
    assert reports[0].overhead_s == 0.0


def test_capacity_sufficient_wave_zero_overhead():
    model = BackendModel()
    reports, _ = bench_overhead([model.initial_capacity], model)
    assert reports[0].overhead_s == 0.0


def test_sweep_successive_differences_equal_tau():
    reports, _ = bench_overhead([250, 500, 1000, 2000, 4000], BackendModel())
    diffs = np.diff(overheads(reports))
    assert np.all(np.abs(diffs - 7.0) < 1e-9)


def test_overhead_monotone_in_wave_size():
    reports, _ = bench_overhead([1, 2, 3, 5, 10, 50, 100, 400], BackendModel())
    vals = overheads(reports)
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_overhead_fits_logarithm():
    ns = [24, 48, 96, 192, 384, 768]
    reports, _ = bench_overhead(ns, BackendModel())
    vals = np.asarray(overheads(reports))
    x = np.log2(ns)
    a, b = np.polyfit(x, vals, 1)
    resid = np.abs(vals - (a * x + b))
    assert resid.max() < 0.05 * (vals.max() - vals.min())


def test_report_ratio_references():
    model = BackendModel()
    assert reference_total_time(model, "chain", 100) == 10_000.0
    assert reference_total_time(model, "single") == 100.0
    with pytest.raises(ConfigurationError):
        reference_total_time(model, "bogus")
    chain_reports, _ = bench_overhead([100], model, ratio_reference="chain")
    single_reports, _ = bench_overhead([100], model, ratio_reference="single")
    assert single_reports[0].overhead_ratio == pytest.approx(
        100.0 * chain_reports[0].overhead_ratio)


def test_overhead_recomputes_from_records():
    overhead, records, arrivals = run_overhead_wave(64, BackendModel(), seed=2)
    assert overhead == max(r.end_ts for r in records) - min(r.end_ts for r in records)
    assert len(records) == len(arrivals) == 64


def test_jitter_runs_fixed_seed_set():
    model = BackendModel(jitter_std_s=0.5)
    reports, records = bench_overhead([20], model, seed=10)
    assert [r.seed for r in reports] == [10, 11, 12, 13, 14]
    assert set(records) == {(20, s) for s in range(10, 15)}
    spread = np.std([r.overhead_s for r in reports])
    assert spread > 0.0


def test_overhead_csv_format(tmp_path):
    reports, records = bench_overhead([4, 8], BackendModel(), seed=1)
    path = tmp_path / "overhead.csv"
    write_overhead_csv(path, reports)
    lines = path.read_text().splitlines()
    assert lines[0] == OVERHEAD_CSV_HEADER == "n_parallel,overhead_s,overhead_ratio,seed"
    assert len(lines) == 3
    n, ov, ratio, seed = lines[1].split(",")
    assert int(n) == 4 and float(ov) >= 0 and int(seed) == 1
    events = tmp_path / "events.csv"
    write_events_csv(events, records)
    event_lines = events.read_text().splitlines()
    assert event_lines[0].startswith("n_parallel,seed,msg_id")
    assert len(event_lines) == 1 + 4 + 8


def test_empty_n_list_rejected():
    with pytest.raises(ConfigurationError):
        bench_overhead([], BackendModel())


# ---------------------------------------------------------------- timeline


@pytest.fixture(scope="module")
def timeline_outputs():
    return bench_timeline([10, 100], 100, BackendModel(), seed=1)


def test_timeline_totals_comparable(timeline_outputs):
    t10 = total_time(timeline_outputs[10])
    t100 = total_time(timeline_outputs[100])
    assert abs(t100 - t10) / t10 < 0.10


def test_timeline_verticality(timeline_outputs):
    assert verticality(timeline_outputs[100]) < 0.02


def test_timeline_quartiles_ordered(timeline_outputs):
    q = quartile_times(timeline_outputs[100])
    assert set(q) == {0.25, 0.5, 0.75}
    assert 0 < q[0.25] < q[0.5] < q[0.75] <= total_time(timeline_outputs[100])
    # Iterations cost about the same after the first, so quartile stamps
    # land near the matching fractions of the run.
    total = total_time(timeline_outputs[100])
    assert q[0.5] / total == pytest.approx(0.5, abs=0.05)


def test_timeline_spreads_concentrated_in_first_iteration(timeline_outputs):
    spreads = iteration_spreads(timeline_outputs[100])
    assert spreads[0] > 0
    assert np.all(spreads[1:] <= spreads[0])


def test_timeline_summary_csv(tmp_path, timeline_outputs):
    path = tmp_path / "summary.csv"
    write_timeline_summary_csv(path, timeline_outputs)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("walkers,total_time_s,time_25pct")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "10"
    assert lines[2].split(",")[0] == "100"
    for line in lines[1:]:
        assert all(math.isfinite(float(cell)) for cell in line.split(","))


def test_timeline_budget(timeline_outputs):
    out = timeline_outputs[10]
    assert len(out.timeline) == 10 * 100
    assert out.samples.shape == (10, 100, 1)


# ---------------------------------------------------------------- pinned bytes
#
# Digests of the CSV files the bench commands write, for fixed seeds and a
# jittered model, so every stamp differs. Any change to a stamp, to the row
# order or to the float spelling shows here.


def file_digest(path):
    return content_digest(path.read_bytes())


def test_timeline_csv_bytes_pinned(tmp_path):
    out = run_stub_chain(40, 5, BackendModel(jitter_std_s=0.3), seed=3)
    write_timeline_csv(out, tmp_path / "timeline.csv")
    assert file_digest(tmp_path / "timeline.csv") == "3a184e83d6f0831f"


def test_timeline_summary_csv_bytes_pinned(tmp_path):
    outputs = bench_timeline([5, 30], 12, BackendModel(jitter_std_s=0.3), seed=2)
    write_timeline_summary_csv(tmp_path / "summary.csv", outputs)
    assert file_digest(tmp_path / "summary.csv") == "c6f304c1f3c372eb"


def test_overhead_and_events_csv_bytes_pinned(tmp_path):
    reports, records = bench_overhead([4, 16, 64], BackendModel(jitter_std_s=0.5), seed=5)
    write_overhead_csv(tmp_path / "overhead.csv", reports)
    write_events_csv(tmp_path / "events.csv", records)
    assert file_digest(tmp_path / "overhead.csv") == "531185156847c951"
    assert file_digest(tmp_path / "events.csv") == "67349e3db2f8b8ba"
    # The msg_id column once held "req-<n>". With that prefix put back, the
    # file has the bytes of the earlier pin, so only the ids changed.
    header, _, body = (tmp_path / "events.csv").read_text().partition("\n")
    before = header + "\n" + re.sub(r"^(\d+,\d+,)", r"\1req-", body, flags=re.M)
    assert content_digest(before.encode()) == "9839e79ae719bf6d"
