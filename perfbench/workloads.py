"""The benchmark's workloads, driven through queuemc's public API.

All three are closed loops: one coordinator thread sends one request per
walker per lockstep iteration and waits for all of them before the next.
A workload's inputs come from the seed alone: its data and model from the
seed itself, and the i-th chain of a run from ``chain_seed(seed, i)``, so
medians over a run's chains do not hang on one draw of the sampler.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from queuemc import bench, datasets, diagnostics, engine, kernel
from queuemc.cli import _initial_positions
from queuemc.clocks import VirtualClock, WallClock
from queuemc.engine import ChainConfig
from queuemc.fabric import QueueFabric
from queuemc.plane import BackendModel, attach_backend, make_stub_key, simulate
from queuemc.store import MemoryObjectStore, content_digest

import pace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

FIT_CLUSTERS = 8
FIT_GRID = 64
FIT_COEFFS = 4
FIT_INIT = (1.0, -0.5, -0.5, 0.0)
FIT_SCALE = 0.02
LOG_POST_RTOL = 1e-9
REMOTE_STUB_S = 0.001
# Far above a serial iteration (16 requests of ~3 ms), far below the
# 180 s a run may take: a dropped connection fails the run in bounded time.
REMOTE_TIMEOUT_S = 20.0

_ADDR_RE = re.compile(r"worker serving on (\S+):(\d+)")


def chain_seed(seed: int, index: int) -> int:
    """Sampler seed of the ``index``-th chain of a run on ``seed``."""
    return seed * 1_000_000 + index


def chain_digest(output) -> str:
    """Digest of what a chain sampled; wall-clock stamps are left out."""
    return content_digest(output.samples.tobytes() + output.log_posts.tobytes()
                          + output.accepted.tobytes())


class Session:
    """One backend attached to a fresh queue pair."""

    def __init__(self, clock, backend: str, model: BackendModel, **attach) -> None:
        self.fabric = QueueFabric(clock)
        self.input_q = self.fabric.create_queue("input")
        self.output_q = self.fabric.create_queue("output")
        self.plane = attach_backend(self.input_q, self.output_q, backend, model, **attach)
        self.requests = 0
        self.worker = None

    def run(self, config: ChainConfig, init: np.ndarray, **kwargs):
        self.requests += config.n_walkers * config.n_iterations
        return engine.run_chains(config, self.plane, self.input_q, self.output_q,
                                 init_positions=init, **kwargs)

    def totals(self) -> tuple[int, int, int]:
        """(pushed, delivered, pending) summed over the fabric's queues."""
        stats = self.fabric.stats().values()
        return (sum(s["pushed"] for s in stats), sum(s["delivered"] for s in stats),
                sum(s["pending"] for s in stats))

    def check(self) -> list[str]:
        problems = [f"queue {name} not conserved: {s}"
                    for name, s in self.fabric.stats().items()
                    if s["pushed"] != s["delivered"] or s["pending"] != 0]
        n_records = len(self.plane.records)
        if n_records != self.requests:
            problems.append(f"{n_records} invocation records for {self.requests} requests")
        return problems

    def close(self) -> None:
        try:
            self.plane.close()
        finally:
            if self.worker is not None:
                self.worker.stop()


class WorkerProcess:
    """A ``qmc worker serve`` process on a loopback port the OS picks."""

    def __init__(self) -> None:
        WORK.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="worker-", dir=WORK))
        self._log_path = self.dir / "worker.log"
        self._log = open(self._log_path, "wb")
        env = dict(os.environ, QMC_LOG="info",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "queuemc", "worker", "serve",
             "--listen", "127.0.0.1:0", "--data-root", str(self.dir / "store")],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log,
            env=env, cwd=ROOT)
        try:
            self.addr = self._wait_for_address(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_for_address(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = self._log_path.read_text(encoding="utf-8", errors="replace")
            match = _ADDR_RE.search(text)
            if match:
                return match.group(1), int(match.group(2))
            if self.proc.poll() is not None:
                raise RuntimeError(f"worker exited with code {self.proc.returncode}: {text[-500:]}")
            time.sleep(0.002)
        raise RuntimeError("worker did not report its address")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


class FitInputs:
    """fit-local's generated data and start point, as ``qmc fit`` builds them."""

    def __init__(self, seed: int) -> None:
        cluster_list, _ = datasets.make_synthetic(FIT_CLUSTERS, grid_size=FIT_GRID, seed=seed)
        blob = datasets.write_container(cluster_list)
        self.key = f"synth-{seed}.qmc"
        self.store = MemoryObjectStore()
        self.digest = self.store.put(self.key, blob)
        self.datasets = datasets.read_container(blob)
        self.dim = (FIT_CLUSTERS + 2) * FIT_COEFFS
        self.data_params = FIT_CLUSTERS * FIT_COEFFS
        self.prior = functools.partial(kernel.hierarchical_log_prior, n_clusters=FIT_CLUSTERS)

    def config(self, walkers: int, iterations: int, seed: int) -> ChainConfig:
        return ChainConfig(n_walkers=walkers, n_iterations=iterations,
                           proposal_scale=np.full(self.dim, FIT_SCALE), seed=seed)

    def init(self, config: ChainConfig) -> np.ndarray:
        args = argparse.Namespace(init=list(FIT_INIT))
        return _initial_positions(args, FIT_CLUSTERS, FIT_COEFFS, self.dim, config)

    def run(self, session: Session, config: ChainConfig, init: np.ndarray):
        return session.run(config, init, dataset_key=self.key,
                           data_param_count=self.data_params, log_prior=self.prior)


class Workload:
    name = ""
    backend = ""
    walkers = 0
    iterations = 0
    setup_repeats = 15
    # Iteration times come from wall-clock timeline stamps; the sim
    # timeline is virtual, so sim-stub times whole one-iteration chains.
    wall_timeline = True
    # Span targets this workload's path calls; see spans.Tracer.
    targets: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def params(self) -> dict:
        return {"backend": self.backend, "walkers": self.walkers,
                "iterations_per_chain": self.iterations}

    def host_pace(self) -> float | None:
        """The host's pace now at this workload's kind of work (pace.py).

        None leaves the workload's times unscaled.
        """
        return None

    def input_digest(self) -> str:
        raise NotImplementedError

    def setup(self) -> Session:
        """Attach the backend and make one warm-up call (timed as setup_s)."""
        raise NotImplementedError

    def chain(self, session: Session, seed: int):
        """Run one chain from sampler seed ``seed``; returns (output, session it ran on)."""
        raise NotImplementedError

    def check_output(self, output, session: Session) -> list[str]:
        """Correctness checks on the run's first chain and its session."""
        return []


ENGINE_TARGETS = ("engine.run_chains", "engine.propose", "engine.mh_step",
                  "payloads.pack_request", "payloads.unpack_response",
                  "fabric.Queue.push", "fabric.Queue.pop")


class FitLocal(Workload):
    name = "fit-local"
    backend = "local"
    walkers = 16
    iterations = 10
    pool_size = 2
    targets = ENGINE_TARGETS + (
        "payloads.unpack_request", "payloads.pack_response",
        "plane.parse_task", "plane.TaskRunner.run", "plane.LocalPoolPlane._dispatch",
        "clocks.WallClock.wait", "kernel.evaluate")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.inputs = FitInputs(seed)

    def params(self) -> dict:
        return dict(super().params(), pool_size=self.pool_size, clusters=FIT_CLUSTERS,
                    grid=FIT_GRID, proposal_scale=FIT_SCALE, init=list(FIT_INIT),
                    hierarchical_prior=True)

    def input_digest(self) -> str:
        return self.inputs.digest

    def host_pace(self) -> float:
        return pace.pool(self.pool_size)

    def setup(self) -> Session:
        session = Session(WallClock(), "local", BackendModel(), store=self.inputs.store,
                          pool_size=self.pool_size)
        warm = self.inputs.config(1, 1, self.seed)
        self.inputs.run(session, warm, self.inputs.init(warm))
        return session

    def chain(self, session: Session, seed: int):
        config = self.inputs.config(self.walkers, self.iterations, seed)
        return self.inputs.run(session, config, self.inputs.init(config)), session

    def check_output(self, output, session: Session) -> list[str]:
        problems = []
        for w in range(output.n_walkers):
            pos = output.samples[w, -1]
            thetas = pos[:self.inputs.data_params].reshape(FIT_CLUSTERS, FIT_COEFFS)
            expected = kernel.evaluate(thetas, self.inputs.datasets) + self.inputs.prior(pos)
            got = output.log_posts[w, -1]
            if not abs(got - expected) <= LOG_POST_RTOL * abs(expected):
                problems.append(f"walker {w}: final log_post {got!r} != recomputed {expected!r}")
        return problems


class SimStub(Workload):
    name = "sim-stub"
    backend = "sim"
    walkers = 4096
    # One wide lockstep wave per chain: the timeline is virtual, so each
    # chain's wall time is one iteration sample.
    iterations = 1
    setup_repeats = 60
    wall_timeline = False
    targets = ENGINE_TARGETS + (
        "payloads.unpack_request", "payloads.pack_response",
        "plane.parse_task", "plane.TaskRunner.run", "plane.SimulatedPlane._on_message",
        "plane.SimScheduler.assign", "clocks.VirtualClock.wait",
        "clocks.VirtualClock.schedule")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.model = BackendModel()
        self.key = make_stub_key(self.model.likelihood_duration_s)
        self.init = np.zeros((self.walkers, 1))

    def params(self) -> dict:
        return dict(super().params(), model="BackendModel()", stub_key=self.key)

    def input_digest(self) -> str:
        return content_digest(self.key.encode("utf-8"))

    def host_pace(self) -> float:
        # Wall time here is this thread's interpreter time: the clock is virtual.
        return pace.interpreter()

    def setup(self) -> Session:
        session = Session(VirtualClock(), "sim", self.model, seed=self.seed)
        session.run(ChainConfig(n_walkers=1, n_iterations=1, seed=self.seed),
                    self.init[:1], dataset_key=self.key)
        return session

    def chain(self, session: Session, seed: int):
        # The same construction as bench.run_stub_chain, which keeps its fabric
        # and plane to itself; check_output compares the two chains.
        fresh = Session(VirtualClock(), "sim", self.model, seed=seed)
        config = ChainConfig(n_walkers=self.walkers, n_iterations=self.iterations,
                             proposal_scale=1.0, seed=seed)
        return fresh.run(config, self.init, dataset_key=self.key), fresh

    def check_output(self, output, session: Session) -> list[str]:
        problems = []
        if not output.accepted.all():
            problems.append(f"{int((~output.accepted).sum())} stub proposals rejected")
        if np.any(output.log_posts != 0.0):
            problems.append("stub chain has non-zero log posteriors")
        reference = bench.run_stub_chain(self.walkers, self.iterations, self.model,
                                         seed=chain_seed(self.seed, 0))
        if chain_digest(reference) != chain_digest(output):
            problems.append("chain differs from bench.run_stub_chain on the same seed")
        completions = sorted(r.complete_ts for r in output.timeline)
        if completions != sorted(r.end_ts for r in session.plane.records):
            problems.append("plane records' completion times differ from the timeline")
        replay = simulate([(f"{r.walker_id}/{r.iteration}", r.dispatch_ts,
                            self.model.likelihood_duration_s) for r in output.timeline],
                          self.model, seed=chain_seed(self.seed, 0))
        ends = {rec.msg_id: rec.end_ts for rec in replay}
        if any(ends[f"{r.walker_id}/{r.iteration}"] != r.complete_ts for r in output.timeline):
            problems.append("a fresh scheduler replay disagrees with the timeline")
        if bench.total_time(output) != max(ends.values()):
            problems.append("bench.total_time disagrees with the scheduler replay")
        return problems


class RemoteStub(Workload):
    name = "remote-stub"
    backend = "remote"
    walkers = 16
    iterations = 20
    setup_repeats = 7
    targets = ENGINE_TARGETS + (
        "fabric.encode_message", "fabric.decode_message", "remote.write_frame",
        "remote.RemoteWorkerClient._send", "clocks.WallClock.wait")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.model = BackendModel()
        self.key = make_stub_key(REMOTE_STUB_S)
        self.init = np.zeros((self.walkers, 1))

    def params(self) -> dict:
        return dict(super().params(), stub_key=self.key, workers=1, connections=1,
                    response_timeout_s=REMOTE_TIMEOUT_S)

    def input_digest(self) -> str:
        return content_digest(self.key.encode("utf-8"))

    def setup(self) -> Session:
        worker = WorkerProcess()
        try:
            session = Session(WallClock(), "remote", self.model, remote_addr=worker.addr)
        except BaseException:
            worker.stop()
            raise
        session.worker = worker
        try:
            session.run(ChainConfig(n_walkers=1, n_iterations=1, seed=self.seed),
                        self.init[:1], dataset_key=self.key,
                        response_timeout_s=REMOTE_TIMEOUT_S)
        except BaseException:
            session.close()
            raise
        return session

    def chain(self, session: Session, seed: int):
        config = ChainConfig(n_walkers=self.walkers, n_iterations=self.iterations,
                             proposal_scale=1.0, seed=seed)
        return session.run(config, self.init, dataset_key=self.key,
                           response_timeout_s=REMOTE_TIMEOUT_S), session

    def check_output(self, output, session: Session) -> list[str]:
        problems = []
        if np.any(output.log_posts != 0.0):
            problems.append("stub chain has non-zero log posteriors")
        # Server stamps come from the worker's clock: compare them only with each other.
        short = [r for r in session.plane.records if r.end_ts - r.start_ts < REMOTE_STUB_S]
        if short:
            problems.append(f"{len(short)} stub requests finished in under {REMOTE_STUB_S} s")
        return problems


WORKLOADS = {w.name: w for w in (FitLocal, SimStub, RemoteStub)}


def kernel_replay(seed: int, tracer, repeats: int = 3) -> np.ndarray:
    """Re-run fit-local's first lockstep iteration serially, kernel spans on.

    The sim backend evaluates each request on the calling thread, so this
    is a single-thread replay of fit-local's first proposed rows. It runs
    on every workload's traced run, so the kernel layer is always recorded.
    Returns the replayed cluster rows, (walkers * clusters, coefficients).
    """
    inputs = FitInputs(seed)
    config = inputs.config(FitLocal.walkers, 1, chain_seed(seed, 0))
    init = inputs.init(config)
    tracer.install(KERNEL_TARGETS)
    try:
        for _ in range(repeats):
            session = Session(VirtualClock(), "sim", BackendModel(), store=inputs.store)
            try:
                output = inputs.run(session, config, init)
            finally:
                session.close()
    finally:
        tracer.uninstall()
    # Every walker's first proposal is accepted, so it is the first sample.
    return output.samples[:, 0, :inputs.data_params].reshape(-1, FIT_COEFFS)


KERNEL_TARGETS = ("kernel.evaluate", "kernel.forward_abel", "kernel.project_to_map",
                  "kernel.convolve_beam", "kernel.chi_square",
                  "datasets.read_container", "store.MemoryObjectStore.get")


def clamp_active_fraction(rows: np.ndarray, points: int = 4097) -> float:
    """Share of rows whose unclamped profile polynomial dips below 0 on [0, r_max]."""
    x = np.linspace(0.0, 1.0, points)
    values = np.polynomial.polynomial.polyval(x, rows.T)
    return float(np.mean(values.min(axis=1) < 0.0))


def min_ess(output) -> float:
    return float(diagnostics.effective_sample_size(
        diagnostics.discard_burn_in(output.samples)).min())
