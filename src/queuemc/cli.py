"""Command-line entry point.

Subcommands: ``fit`` (run the sampler against a dataset), ``bench
overhead`` and ``bench timeline`` (simulated-backend experiments),
``dataset synth`` (synthetic cluster generator), ``worker serve`` (remote
likelihood worker). The ``QMC_LOG`` environment variable selects log
verbosity (error, info, debug).

Exit codes classify failures: 1 config (a usage error included), 2 data,
3 backend, 4 timeout.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import bench, datasets, diagnostics, remote
from .clocks import VirtualClock, WallClock
from .engine import ChainConfig, run_chains, write_chain_csv, write_timeline_csv
from .errors import (ConfigurationError, KeyExistsError, MissingResponseError,
                     NonFiniteDensityError, NotFoundError, QueueMCError,
                     WireFormatError)
from .fabric import QueueFabric
from .kernel import hierarchical_log_prior
from .plane import DEFAULT_POOL_SIZE, BackendModel, attach_backend
from .store import DirectoryObjectStore, MemoryObjectStore

log = logging.getLogger(__name__)

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_BACKEND = 3
EXIT_TIMEOUT = 4

# fit's response timeout on the wall-clock backends when --timeout is not
# given: a worker that never answers would otherwise stall the run for
# good. 1000 s is far above one kernel evaluation and is the bound fit has
# always applied there.
FIT_WALL_TIMEOUT_S = 1000.0

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _fail(category: str, code: int, message: str) -> int:
    print(f"error ({category}): {message}", file=sys.stderr)
    return code


def _csv_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _csv_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _model_from_args(args) -> BackendModel:
    return BackendModel(
        cold_start_s=args.cold_start, warm_invoke_s=args.warm,
        initial_capacity=args.c0, scale_doubling_interval_s=args.tau,
        likelihood_duration_s=args.duration, jitter_std_s=args.jitter)


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau", type=float, default=7.0,
                        help="capacity doubling interval, seconds")
    parser.add_argument("--c0", type=int, default=3, help="initial warm capacity")
    parser.add_argument("--cold-start", type=float, default=2.0,
                        help="cold-start latency, seconds")
    parser.add_argument("--warm", type=float, default=0.05,
                        help="warm invocation latency, seconds")
    parser.add_argument("--jitter", type=float, default=0.0,
                        help="start jitter std, seconds (0 disables)")
    parser.add_argument("--duration", type=float, default=100.0,
                        help="modeled likelihood duration, seconds")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a config error: argparse's own exit
    status for it, 2, is this CLI's data code."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmc",
        description="Parallel MCMC over queue-dispatched likelihood workers.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="sample a dataset's posterior")
    fit.add_argument("--dataset", required=True, help="cluster container file")
    fit.add_argument("--walkers", type=int, required=True)
    fit.add_argument("--iterations", type=int, required=True)
    fit.add_argument("--backend", choices=("sim", "local", "remote"), default="local")
    fit.add_argument("--remote-addr", default=None, help="host:port of a worker server")
    fit.add_argument("--proposal-scale", type=_csv_floats, default=[0.02],
                     help="per-coordinate proposal std (single value broadcasts)")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--out-dir", required=True)
    fit.add_argument("--degree", type=int, default=3, help="profile polynomial degree")
    fit.add_argument("--init", type=_csv_floats, default=None,
                     help="initial coefficient vector (one cluster row, broadcast)")
    fit.add_argument("--pool-size", type=int, default=DEFAULT_POOL_SIZE,
                     help="local backend threads; 8 clusters at grid 64 ran about 1800 "
                          "evaluations/s on 2 threads and 1600 on 4 (2 vCPUs)")
    fit.add_argument("--timeout", type=float, default=None,
                     help="response collection timeout per iteration, seconds "
                          f"(default: none on sim, {FIT_WALL_TIMEOUT_S:g} elsewhere)")
    fit.set_defaults(func=_cmd_fit)

    bench_parser = sub.add_parser("bench", help="simulated-backend benchmarks")
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)

    overhead = bench_sub.add_parser("overhead", help="parallel-wave overhead sweep")
    overhead.add_argument("--n", type=_csv_ints, required=True,
                          help="comma list of wave sizes")
    _add_model_args(overhead)
    overhead.add_argument("--seed", type=int, default=0)
    overhead.add_argument("--out", required=True, help="output CSV path")
    overhead.add_argument("--ref-iterations", type=int, default=100,
                          help="denominator of the overhead ratio, in likelihood "
                               "durations: a whole chain of this many iterations "
                               "(1 compares against one likelihood)")
    overhead.set_defaults(func=_cmd_bench_overhead)

    timeline = bench_sub.add_parser("timeline", help="per-walker completion timelines")
    timeline.add_argument("--walkers", type=_csv_ints, required=True,
                          help="comma list of walker counts")
    timeline.add_argument("--iterations", type=int, required=True)
    _add_model_args(timeline)
    timeline.add_argument("--seed", type=int, default=0)
    timeline.add_argument("--out-dir", required=True)
    timeline.set_defaults(func=_cmd_bench_timeline)

    dataset = sub.add_parser("dataset", help="dataset utilities")
    dataset_sub = dataset.add_subparsers(dest="dataset_command", required=True)
    synth = dataset_sub.add_parser("synth", help="generate synthetic clusters")
    synth.add_argument("--clusters", type=int, required=True)
    synth.add_argument("--grid", type=int, default=64, help="map side length (even)")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.add_argument("--noise", type=float, default=0.05,
                       help="noise std as a fraction of the peak signal")
    synth.add_argument("--radial-points", type=int, default=None)
    synth.add_argument("--degree", type=int, default=3)
    synth.set_defaults(func=_cmd_dataset_synth)

    worker = sub.add_parser("worker", help="remote worker")
    worker_sub = worker.add_subparsers(dest="worker_command", required=True)
    serve = worker_sub.add_parser("serve", help="serve likelihood requests")
    serve.add_argument("--listen", required=True, help="host:port to bind")
    serve.add_argument("--data-root", required=True, help="object store directory")
    serve.set_defaults(func=_cmd_worker_serve)

    return parser


def _cmd_fit(args) -> int:
    if args.degree < 0:
        raise ConfigurationError(f"--degree must be at least 0, got {args.degree}")
    path = Path(args.dataset)
    if not path.is_file():
        return _fail("data", EXIT_DATA, f"dataset file not found: {path}")
    try:
        blob = path.read_bytes()
        cluster_list = datasets.read_container(blob)
    except (OSError, WireFormatError) as exc:
        return _fail("data", EXIT_DATA, f"cannot read dataset: {exc}")

    n_clusters = len(cluster_list)
    n_coeff = args.degree + 1
    dim = (n_clusters + 2) * n_coeff
    data_params = n_clusters * n_coeff
    key = path.name

    try:
        config = ChainConfig(n_walkers=args.walkers, n_iterations=args.iterations,
                             proposal_scale=_broadcast_scale(args.proposal_scale, dim),
                             seed=args.seed)
        init = _initial_positions(args, n_clusters, n_coeff, dim, config)
        clock = VirtualClock() if args.backend == "sim" else WallClock()
        fabric = QueueFabric(clock)
        input_q = fabric.create_queue("input")
        output_q = fabric.create_queue("output")
        store = MemoryObjectStore()
        store.put(key, blob)
        plane = attach_backend(input_q, output_q, args.backend, store=store,
                               pool_size=args.pool_size, remote_addr=args.remote_addr)
    except (ConnectionError, OSError) as exc:
        return _fail("backend", EXIT_BACKEND, f"cannot attach backend: {exc}")

    prior = functools.partial(hierarchical_log_prior, n_clusters=n_clusters)
    timeout = args.timeout
    if timeout is None and args.backend != "sim":
        timeout = FIT_WALL_TIMEOUT_S

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        output = run_chains(config, plane, input_q, output_q,
                            init_positions=init, dataset_key=key,
                            data_param_count=data_params,
                            log_prior=prior,
                            response_timeout_s=timeout)
    except ConfigurationError:
        raise
    except MissingResponseError as exc:
        return _fail("timeout", EXIT_TIMEOUT, str(exc))
    except (NotFoundError, NonFiniteDensityError) as exc:
        return _fail("data", EXIT_DATA, str(exc))
    except (ConnectionError, OSError, QueueMCError) as exc:
        return _fail("backend", EXIT_BACKEND, str(exc))
    finally:
        plane.close()

    write_chain_csv(output, out_dir / "chain.csv")
    write_timeline_csv(output, out_dir / "timeline.csv")
    summary = diagnostics.summarize(output)
    (out_dir / "diagnostics.json").write_text(json.dumps(summary, indent=2) + "\n",
                                              encoding="utf-8")
    log.info("fit complete: %d samples, pooled acceptance %.3f",
             output.accepted.size, summary["acceptance_rate"])
    print(f"wrote {out_dir / 'chain.csv'}")
    return 0


def _broadcast_scale(scale: list[float], dim: int) -> np.ndarray:
    arr = np.asarray(scale, dtype=np.float64)
    if arr.size == 1:
        return np.full(dim, arr[0])
    if arr.size != dim:
        raise ConfigurationError(
            f"proposal scale has {arr.size} entries; expected 1 or {dim}")
    return arr


def _initial_positions(args, n_clusters, n_coeff, dim, config) -> np.ndarray:
    rng = np.random.default_rng(config.seed)
    center = np.zeros(dim)
    if args.init is not None:
        row = np.asarray(args.init, dtype=np.float64)
        if row.size != n_coeff:
            raise ConfigurationError(
                f"--init needs {n_coeff} coefficients, got {row.size}")
        center[: n_clusters * n_coeff] = np.tile(row, n_clusters)
        center[n_clusters * n_coeff: (n_clusters + 1) * n_coeff] = row
    scale = np.broadcast_to(np.asarray(config.proposal_scale, dtype=np.float64), (dim,))
    return center[None, :] + scale[None, :] * rng.standard_normal((config.n_walkers, dim))


def _cmd_bench_overhead(args) -> int:
    reports, records = bench.bench_overhead(
        args.n, _model_from_args(args), seed=args.seed, ref_iterations=args.ref_iterations)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    bench.write_overhead_csv(out, reports)
    bench.write_events_csv(out.with_suffix(out.suffix + ".events.csv"), records)
    for r in reports:
        print(f"n={r.n_parallel} overhead={r.overhead_s:.3f}s "
              f"ratio={100 * r.overhead_ratio:.3f}% seed={r.seed}")
    return 0


def _cmd_bench_timeline(args) -> int:
    outputs = bench.bench_timeline(args.walkers, args.iterations,
                                   _model_from_args(args), seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for w, output in outputs.items():
        write_timeline_csv(output, out_dir / f"timeline_w{w}.csv")
    bench.write_timeline_summary_csv(out_dir / "timeline_summary.csv", outputs)
    for w in sorted(outputs):
        print(f"walkers={w} total={bench.total_time(outputs[w]):.2f}s "
              f"verticality={100 * bench.verticality(outputs[w]):.3f}%")
    return 0


def _cmd_dataset_synth(args) -> int:
    try:
        cluster_list, truths = datasets.make_synthetic(
            args.clusters, grid_size=args.grid, seed=args.seed,
            noise_level=args.noise, n_radial=args.radial_points,
            degree=args.degree)
    except ValueError as exc:
        return _fail("config", EXIT_CONFIG, str(exc))
    # The file is published as an object-store key, its own name, so a
    # worker serving the directory resolves the key that fit sends.
    out = Path(args.out)
    store = DirectoryObjectStore(out.parent)
    if store.path(out.name) != out:
        return _fail("config", EXIT_CONFIG,
                     f"--out file name {out.name!r} must use only letters, digits and '_.-~'")
    try:
        store.put(out.name, datasets.write_container(cluster_list))
    except KeyExistsError as exc:
        return _fail("config", EXIT_CONFIG, str(exc))
    truth_path = out.with_suffix(out.suffix + ".truth.csv")
    with open(truth_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"theta_{k}" for k in range(truths.shape[1])) + "\n")
        for row in truths:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    print(f"wrote {out} ({out.stat().st_size} bytes, {args.clusters} clusters) "
          f"and {truth_path}")
    return 0


def _cmd_worker_serve(args) -> int:
    try:
        remote.serve(args.listen, args.data_root)
    except OSError as exc:
        return _fail("backend", EXIT_BACKEND, str(exc))
    return 0


def main(argv=None) -> int:
    level = _LOG_LEVELS.get(os.environ.get("QMC_LOG", "error").lower())
    if level is None:
        print("error (config): QMC_LOG must be one of error, info, debug",
              file=sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(level=level,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        return _fail("config", EXIT_CONFIG, str(exc))


if __name__ == "__main__":
    sys.exit(main())
