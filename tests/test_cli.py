import json
import math
import struct
import threading

import pytest

from queuemc import cli, plane
from queuemc.datasets import make_synthetic, write_container
from queuemc.remote import WorkerServer
from queuemc.store import DirectoryObjectStore
from tests.test_datasets import corrupt, zero_grid


@pytest.fixture
def dataset_path(tmp_path):
    datasets, _ = make_synthetic(1, grid_size=16, seed=0)
    path = tmp_path / "one.qmc"
    path.write_bytes(write_container(datasets))
    return path


def fit(dataset_path, out_dir, *extra):
    return cli.main(["fit", "--dataset", str(dataset_path), "--out-dir", str(out_dir),
                     "--backend", "sim", *extra])


@pytest.mark.parametrize("extra", [
    ["--walkers", "0", "--iterations", "2"],
    ["--walkers", "2", "--iterations", "2", "--exchange-period", "3"],  # unknown option
    ["--walkers", "2", "--iterations", "2", "--proposal-scale", "0"],
    ["--walkers", "2", "--iterations", "2", "--proposal-scale", "nan"],
    ["--walkers", "two", "--iterations", "2"],
])
def test_fit_config_errors_are_classified(dataset_path, tmp_path, capsys, extra):
    assert fit(dataset_path, tmp_path / "out", *extra) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error (config): ") and "Traceback" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["fit", "--help"])
    assert info.value.code == 0
    assert "--pool-size" in capsys.readouterr().out


def test_pool_size_has_one_default():
    args = cli.build_parser().parse_args(
        ["fit", "--dataset", "d", "--out-dir", "o", "--walkers", "1", "--iterations", "1"])
    assert args.pool_size == plane.DEFAULT_POOL_SIZE == 2


@pytest.mark.parametrize("argv", [
    *(f"fit --backend {backend} --timeout {timeout}"
      for backend in ("sim", "local") for timeout in ("nan", "0", "-1")),
    "fit --degree -1",
    "dataset synth --clusters 1 --grid 0 --out {tmp}/c.qmc",
    "dataset synth --clusters 1 --grid -2 --out {tmp}/c.qmc",
    "bench overhead --n 2 --tau 0 --out {tmp}/o.csv",
    "bench overhead --n 4 --ref-iterations 0 --out {tmp}/o.csv",
    "bench overhead --n 4 --ref-iterations -3 --out {tmp}/o.csv",
    "bench timeline --walkers 2 --iterations 0 --out-dir {tmp}/t",
    "worker serve --listen nonsense --data-root {tmp}/objects",
    "worker serve --listen 127.0.0.1:99999 --data-root {tmp}/objects",
])
def test_bad_run_inputs_are_config_errors(dataset_path, tmp_path, capsys, argv):
    args = argv.format(tmp=tmp_path).split()
    if args[0] == "fit":
        args += ["--dataset", str(dataset_path), "--out-dir", str(tmp_path / "out"),
                 "--walkers", "2", "--iterations", "1", "--pool-size", "1"]
    code = cli.main(args)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error (config): ") and "Traceback" not in err


def test_fit_bad_init_fails_before_attaching_a_backend(dataset_path, tmp_path, capsys,
                                                      monkeypatch):
    attached = []
    monkeypatch.setattr(cli, "attach_backend", lambda *a, **k: attached.append(a))
    code = cli.main(["fit", "--dataset", str(dataset_path), "--out-dir", str(tmp_path / "out"),
                     "--backend", "remote", "--remote-addr", "127.0.0.1:9",
                     "--walkers", "2", "--iterations", "1", "--init", "1,2"])
    assert code == cli.EXIT_CONFIG and attached == []
    assert capsys.readouterr().err.startswith("error (config): --init needs 4")


@pytest.mark.parametrize("walkers,iterations", [(1, 5), (2, 3)])
def test_fit_with_few_walkers_or_iterations_writes_diagnostics(
        dataset_path, tmp_path, walkers, iterations):
    out = tmp_path / "out"
    assert fit(dataset_path, out, "--walkers", str(walkers),
               "--iterations", str(iterations)) == 0
    summary = json.loads((out / "diagnostics.json").read_text())
    assert summary["n_walkers"] == walkers
    assert summary["split_rhat"] == [None] * (3 * 4)


@pytest.mark.parametrize("backend,extra,expected", [
    ("sim", [], None),
    ("local", [], cli.FIT_WALL_TIMEOUT_S),
    ("local", ["--timeout", "5"], 5.0),
    ("local", ["--timeout", "inf"], math.inf),
])
def test_fit_response_timeout(dataset_path, tmp_path, monkeypatch, backend, extra, expected):
    seen = []
    real = cli.run_chains

    def spy(*args, **kwargs):
        seen.append(kwargs["response_timeout_s"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_chains", spy)
    code = cli.main(["fit", "--dataset", str(dataset_path), "--out-dir", str(tmp_path / "out"),
                     "--backend", backend, "--walkers", "2", "--iterations", "1",
                     "--pool-size", "1", *extra])
    assert code == 0
    assert seen == [expected]
    assert cli.FIT_WALL_TIMEOUT_S == 1000.0


def test_fit_rejects_grid_reaching_r_max_as_data_error(tmp_path, capsys):
    # The container format can carry a radial grid that reaches r_max,
    # where no projection is defined; reading it is a data error.
    (ds,), _ = make_synthetic(1, grid_size=16, seed=0)
    blob = bytearray(write_container([ds]))
    r_max_at = 4 + 4 + 4 + len(ds.cluster_id) + 4 + 4 + 8 + 8
    struct.pack_into("<d", blob, r_max_at, ds.radial_grid[-1])
    path = tmp_path / "edge.qmc"
    path.write_bytes(bytes(blob))
    code = fit(path, tmp_path / "out", "--walkers", "2", "--iterations", "1")
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("error (data): ")


def test_fit_nan_in_observed_map_is_a_data_error(tmp_path, capsys):
    # The container format can carry a NaN pixel; reading it is a data
    # error, before any likelihood runs.
    (ds,), _ = make_synthetic(1, grid_size=16, seed=0)
    path = tmp_path / "nan.qmc"
    path.write_bytes(corrupt(write_container([ds]), ds, "obs_map"))
    code = fit(path, tmp_path / "out", "--walkers", "2", "--iterations", "1")
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(
        "error (data): cannot read dataset: truncated or invalid container: "
        "obs_map entries must be finite")


def test_fit_empty_container_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "empty.qmc"
    path.write_bytes(write_container([]))
    code = fit(path, tmp_path / "out", "--walkers", "2", "--iterations", "1")
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(
        "error (data): cannot read dataset: container holds no clusters")


def test_fit_zero_grid_is_a_data_error(tmp_path, capsys):
    # A 0 × 0 map is refused when the container is read, not by a worker
    # crash in the first likelihood.
    (ds,), _ = make_synthetic(1, grid_size=16, seed=0)
    path = tmp_path / "zero.qmc"
    path.write_bytes(zero_grid(write_container([ds]), ds))
    code = fit(path, tmp_path / "out", "--walkers", "2", "--iterations", "1")
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(
        "error (data): cannot read dataset: truncated or invalid container: "
        "grid size must be at least 2")


@pytest.mark.parametrize("field", ["r_max", "beam_fwhm", "pixel_size"])
def test_fit_nan_geometry_is_a_data_error(tmp_path, capsys, field):
    (ds,), _ = make_synthetic(1, grid_size=16, seed=0)
    path = tmp_path / "nan.qmc"
    path.write_bytes(corrupt(write_container([ds]), ds, field))
    code = fit(path, tmp_path / "out", "--walkers", "2", "--iterations", "1")
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith("error (data): cannot read dataset: ")


def synth(out, *extra):
    return cli.main(["dataset", "synth", "--clusters", "1", "--grid", "16",
                     "--out", str(out), *extra])


def test_synth_output_serves_a_remote_fit(tmp_path):
    assert synth(tmp_path / "c.qmc") == 0
    server = WorkerServer(("127.0.0.1", 0), DirectoryObjectStore(tmp_path))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    out = tmp_path / "out"
    try:
        code = cli.main(["fit", "--dataset", str(tmp_path / "c.qmc"), "--out-dir", str(out),
                         "--backend", "remote", "--remote-addr", f"{host}:{port}",
                         "--walkers", "2", "--iterations", "2"])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert code == 0
    assert (out / "chain.csv").is_file()


@pytest.mark.parametrize("name,message", [
    ("c.qmc", "error (config): key 'c.qmc' already written"),
    ("my data.qmc", "error (config): --out file name 'my data.qmc' must use only"),
])
def test_synth_refuses_an_unpublishable_output(tmp_path, capsys, name, message):
    assert synth(tmp_path / "c.qmc") == 0
    before = (tmp_path / "c.qmc").read_bytes()
    capsys.readouterr()
    assert synth(tmp_path / name, "--seed", "1") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert (tmp_path / "c.qmc").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.qmc", "c.qmc.sha", "c.qmc.truth.csv"]
