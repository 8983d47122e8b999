import math
import threading
import time

import numpy as np
import pytest

from queuemc.clocks import VirtualClock, WallClock
from queuemc.datasets import make_synthetic, write_container
from queuemc.errors import ConfigurationError
from queuemc.fabric import Message, MessageKind, QueueFabric
from queuemc.kernel import evaluate
from queuemc.payloads import (LikelihoodRequest, pack_request, parse_error,
                              unpack_response)
from queuemc.plane import (BackendModel, SimScheduler, TaskRunner,
                           attach_backend, make_stub_key, simulate)
from queuemc.remote import WorkerServer
from queuemc.store import MemoryObjectStore


def request_msg(i, key, params=()):
    payload = pack_request(LikelihoodRequest(
        params=np.asarray(params, dtype=np.float64), dataset_key=key))
    return Message(msg_id=i, kind=MessageKind.LIKELIHOOD_REQUEST,
                   payload=payload)


def push_stub_wave(input_q, n, duration):
    key = make_stub_key(duration)
    for i in range(n):
        input_q.push(request_msg(i, key))


def drain(output_q, n, timeout=None):
    out = []
    for _ in range(n):
        m = output_q.pop(timeout=timeout)
        assert m is not None
        out.append(m)
    return out


# -------------------------------------------------------------- model


def test_model_validation():
    with pytest.raises(ConfigurationError):
        BackendModel(scale_doubling_interval_s=0.0)
    with pytest.raises(ConfigurationError):
        BackendModel(scale_doubling_interval_s=-1.0)
    with pytest.raises(ConfigurationError):
        BackendModel(initial_capacity=0)
    with pytest.raises(ConfigurationError):
        BackendModel(cold_start_s=-1.0)
    for field in ("cold_start_s", "scale_doubling_interval_s",
                  "likelihood_duration_s", "jitter_std_s"):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                BackendModel(**{field: value})
    BackendModel()


def test_ramp_delay_doubling():
    m = BackendModel(initial_capacity=4, scale_doubling_interval_s=3.0)
    assert m.ramp_delay(1) == 0.0
    assert m.ramp_delay(4) == 0.0
    assert m.ramp_delay(8) == pytest.approx(3.0, abs=1e-12)
    assert m.ramp_delay(16) == pytest.approx(6.0, abs=1e-12)


def test_task_runner_stub_and_kernel():
    runner = TaskRunner(likelihood_fn=lambda params, datasets: float(params.sum()))
    assert runner.run(request_msg(0, make_stub_key(2.5))) == (0.0, False, 2.5)
    assert runner.run(request_msg(0, "", params=(1.0, 2.0))) == (3.0, False, None)
    (code, detail), cold, stub_s = runner.run(request_msg(0, "bundle.qmc"))
    assert code == "dataset-not-found" and "bundle.qmc" in detail
    assert not cold and stub_s is None


# -------------------------------------------------------------- simulated


def test_sim_single_invocation_timing(sim_setup):
    fabric, input_q, output_q, plane = sim_setup()
    push_stub_wave(input_q, 1, duration=1.0)
    (resp,) = drain(output_q, 1)
    rec = plane.records[0]
    assert rec.cold
    assert rec.end_ts - rec.dispatch_ts >= 1.0 + 2.0 + 0.05
    assert resp.enqueue_ts == rec.end_ts
    assert resp.msg_id == 0


def test_sim_zero_requests_zero_responses(sim_setup):
    fabric, input_q, output_q, plane = sim_setup()
    assert output_q.pop(timeout=0) is None
    assert plane.records == []


def test_sim_capacity_sufficient_wave_zero_overhead(sim_setup):
    fabric, input_q, output_q, plane = sim_setup()
    push_stub_wave(input_q, 3, duration=1.0)          # c0 = 3
    ends = [m.enqueue_ts for m in drain(output_q, 3)]
    assert max(ends) - min(ends) == 0.0
    assert all(r.start_ts == 2.05 for r in plane.records)


def test_sim_two_wave_overhead_equals_tau(sim_setup):
    model = BackendModel(likelihood_duration_s=100.0)
    fabric, input_q, output_q, plane = sim_setup(model=model)
    push_stub_wave(input_q, 6, duration=100.0)        # 2 c0
    ends = [m.enqueue_ts for m in drain(output_q, 6)]
    assert max(ends) - min(ends) == pytest.approx(7.0, abs=1e-12)


def test_sim_thousand_wave_matches_log_ramp(sim_setup):
    model = BackendModel()
    fabric, input_q, output_q, plane = sim_setup(model=model)
    push_stub_wave(input_q, 1000, duration=100.0)
    ends = [m.enqueue_ts for m in drain(output_q, 1000)]
    overhead = max(ends) - min(ends)
    closed_form = 7.0 * math.log2(1000 / 3)
    assert abs(overhead - closed_form) / closed_form < 0.25
    assert overhead == pytest.approx(closed_form, rel=1e-12)


def brute_force_wave_overhead(n, model, dt):
    """Independent time-stepping oracle for a simultaneous wave at t=0.

    Capacity at time t is floor(c0 * 2^(t / tau)); pending requests claim
    idle instances, new instances appear as capacity grows, and each task
    holds its instance for (cold if new) + warm + duration.
    """
    tau = model.scale_doubling_interval_s
    c0 = model.initial_capacity
    pending = n
    busy_until = []
    ends = []
    t = 0.0
    while len(ends) < n:
        capacity = math.floor(c0 * 2.0 ** (t / tau))
        while pending > 0 and len(busy_until) < capacity:
            end = t + model.cold_start_s + model.warm_invoke_s + model.likelihood_duration_s
            busy_until.append(end)
            ends.append(end)
            pending -= 1
        if pending > 0:
            for i, free_at in enumerate(busy_until):
                if free_at <= t:
                    end = t + model.warm_invoke_s + model.likelihood_duration_s
                    busy_until[i] = end
                    ends.append(end)
                    pending -= 1
                    if pending == 0:
                        break
        t += dt
    return max(ends) - min(ends)


def test_sim_matches_brute_force_event_stepping(sim_setup):
    model = BackendModel()
    dt = 0.01
    for n in (5, 32, 128):
        fabric, input_q, output_q, plane = sim_setup(model=model)
        push_stub_wave(input_q, n, duration=model.likelihood_duration_s)
        ends = [m.enqueue_ts for m in drain(output_q, n)]
        overhead = max(ends) - min(ends)
        brute = brute_force_wave_overhead(n, model, dt)
        assert abs(overhead - brute) <= 2 * dt + 1e-9


def test_sim_doubling_invariant(sim_setup):
    # overhead(2N) - overhead(N) is exactly one doubling interval.
    model = BackendModel()

    def overhead(n):
        fabric, input_q, output_q, plane = sim_setup(model=model)
        push_stub_wave(input_q, n, duration=100.0)
        ends = [m.enqueue_ts for m in drain(output_q, n)]
        return max(ends) - min(ends)

    for n in (24, 48, 96):  # n >= 8 c0
        assert overhead(2 * n) - overhead(n) == pytest.approx(7.0, abs=1e-9)


def test_sim_jittered_doubling_within_three_sigma(sim_setup):
    model = BackendModel(jitter_std_s=0.5)
    seeds = range(5)

    def overheads(n):
        vals = []
        for s in seeds:
            fabric, input_q, output_q, plane = sim_setup(model=model, seed=s)
            push_stub_wave(input_q, n, duration=100.0)
            ends = [m.enqueue_ts for m in drain(output_q, n)]
            vals.append(max(ends) - min(ends))
        return np.asarray(vals)

    a, b = overheads(48), overheads(96)
    diff = b.mean() - a.mean()
    combined = math.hypot(a.std(ddof=1), b.std(ddof=1))
    assert abs(diff - 7.0) <= 3 * combined


def test_sim_deterministic_records(sim_setup):
    def run():
        fabric, input_q, output_q, plane = sim_setup(
            model=BackendModel(jitter_std_s=0.3), seed=9)
        push_stub_wave(input_q, 40, duration=5.0)
        drain(output_q, 40)
        return plane.records

    assert run() == run()


def test_sim_record_causality(sim_setup):
    fabric, input_q, output_q, plane = sim_setup()
    push_stub_wave(input_q, 20, duration=2.0)
    drain(output_q, 20)
    for rec in plane.records:
        assert rec.dispatch_ts <= rec.start_ts <= rec.end_ts
        if rec.cold:
            assert rec.start_ts - rec.dispatch_ts >= 2.0


def test_sim_response_completeness(sim_setup):
    fabric, input_q, output_q, plane = sim_setup()
    push_stub_wave(input_q, 25, duration=1.0)
    responses = drain(output_q, 25)
    assert {m.msg_id for m in responses} == set(range(25))
    assert output_q.pop(timeout=0) is None


def test_sim_max_concurrency_forces_reuse(sim_setup):
    model = BackendModel(max_concurrency=2, likelihood_duration_s=1.0)
    fabric, input_q, output_q, plane = sim_setup(model=model)
    push_stub_wave(input_q, 6, duration=1.0)
    drain(output_q, 6)
    workers = {r.worker_id for r in plane.records}
    assert len(workers) == 2
    assert sum(r.cold for r in plane.records) == 2


def test_sim_requires_virtual_clock(fast_model):
    fabric = QueueFabric(WallClock())
    a_in = fabric.create_queue("input")
    a_out = fabric.create_queue("output")
    from queuemc.plane import SimulatedPlane
    with pytest.raises(ConfigurationError):
        SimulatedPlane(a_in, a_out, fast_model)


def test_standalone_simulate_matches_queue_wave(sim_setup):
    model = BackendModel()
    records = simulate(((i, 0.0, 100.0) for i in range(50)), model)
    fabric, input_q, output_q, plane = sim_setup(model=model)
    push_stub_wave(input_q, 50, duration=100.0)
    drain(output_q, 50)
    assert records == plane.records
    # simulate copies each id unchanged, whatever its type.
    replay = simulate(((f"{i}/0", 0.0, 100.0) for i in range(50)), model)
    assert [r.msg_id for r in replay] == [f"{i}/0" for i in range(50)]
    assert [r.end_ts for r in replay] == [r.end_ts for r in records]


def test_scheduler_capacity_exhaustion():
    sched = SimScheduler(BackendModel(max_concurrency=1))
    rec = sched.assign("a", 0.0, 1.0)
    assert rec.cold
    rec2 = sched.assign("b", 0.0, 1.0)
    assert not rec2.cold and rec2.worker_id == rec.worker_id


# -------------------------------------------------------------- local pool


def test_local_stub_smoke(local_setup):
    fabric, input_q, output_q, plane = local_setup()
    push_stub_wave(input_q, 1, duration=0.01)
    (resp,) = drain(output_q, 1, timeout=5.0)
    assert resp.kind is MessageKind.LIKELIHOOD_RESPONSE
    assert unpack_response(resp.payload).log_likelihood == 0.0


def test_local_pool_pigeonhole(local_setup):
    fabric, input_q, output_q, plane = local_setup(pool_size=4)
    t0 = time.monotonic()
    push_stub_wave(input_q, 16, duration=0.1)
    drain(output_q, 16, timeout=10.0)
    assert time.monotonic() - t0 >= 0.4
    plane.close()


def test_local_kernel_matches_in_process(local_setup):
    datasets, truths = make_synthetic(2, grid_size=32, seed=3, noise_level=0.05)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    fabric, input_q, output_q, plane = local_setup(store=store)
    rng = np.random.default_rng(0)
    params = truths + 0.01 * rng.standard_normal(truths.shape)
    input_q.push(request_msg(0, "bundle", params=params.ravel()))
    (resp,) = drain(output_q, 1, timeout=30.0)
    got = unpack_response(resp.payload).log_likelihood
    expected = evaluate(params, datasets)
    assert got == pytest.approx(expected, rel=1e-12)
    plane.close()


def test_local_dataset_cache_cold_flag(local_setup):
    datasets, truths = make_synthetic(1, grid_size=32, seed=3)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    fabric, input_q, output_q, plane = local_setup(store=store, pool_size=1)
    input_q.push(request_msg(0, "bundle", params=truths.ravel()))
    input_q.push(request_msg(1, "bundle", params=truths.ravel()))
    responses = drain(output_q, 2, timeout=30.0)
    colds = sorted(unpack_response(m.payload).cold for m in responses)
    assert colds == [False, True]
    plane.close()


def test_local_missing_dataset_surfaces_error(local_setup):
    fabric, input_q, output_q, plane = local_setup(store=MemoryObjectStore())
    input_q.push(request_msg(0, "absent", params=(1.0,)))
    (msg,) = drain(output_q, 1, timeout=5.0)
    assert msg.kind is MessageKind.CONTROL
    code, _ = parse_error(msg.payload)
    assert code == "dataset-not-found"
    plane.close()


def test_local_worker_crash_surfaces_error(local_setup):
    def boom(params, datasets):
        raise RuntimeError("deliberate")

    fabric, input_q, output_q, plane = local_setup(likelihood_fn=boom)
    input_q.push(request_msg(0, "", params=(1.0,)))
    (msg,) = drain(output_q, 1, timeout=5.0)
    assert msg.kind is MessageKind.CONTROL
    code, detail = parse_error(msg.payload)
    assert code == "worker-crash" and "deliberate" in detail
    plane.close()


def test_attach_backend_rejects_unknown(fast_model):
    fabric = QueueFabric(WallClock())
    q1, q2 = fabric.create_queue("a"), fabric.create_queue("b")
    with pytest.raises(ConfigurationError):
        attach_backend(q1, q2, "gpu", fast_model)


# -------------------------------------------------------------- backend contract
#
# Every backend answers each request with exactly one message, of the same
# kind and with the same error code.


def boom(params, datasets):
    raise RuntimeError("deliberate")


def constant(value):
    def likelihood(params, datasets):
        return value
    return likelihood


CONTRACT_CASES = {
    # case: (dataset key, likelihood_fn, payload override, kind, error code)
    "kernel": ("bundle", None, None, MessageKind.LIKELIHOOD_RESPONSE, None),
    "stub": (make_stub_key(0.01), None, None, MessageKind.LIKELIHOOD_RESPONSE, None),
    # A stub duration that is not finite and >= 0 cannot be slept out.
    "stub-negative": (make_stub_key(-1.0), None, None, MessageKind.CONTROL, "worker-crash"),
    "stub-nan": (make_stub_key(math.nan), None, None, MessageKind.CONTROL, "worker-crash"),
    "stub-inf": (make_stub_key(math.inf), None, None, MessageKind.CONTROL, "worker-crash"),
    "missing-dataset": ("absent", None, None, MessageKind.CONTROL, "dataset-not-found"),
    "crashing-likelihood": ("bundle", boom, None, MessageKind.CONTROL, "worker-crash"),
    # -inf is a legal zero likelihood; NaN and +inf are not likelihoods.
    "minus-inf": ("bundle", constant(-math.inf), None, MessageKind.LIKELIHOOD_RESPONSE, None),
    "nan": ("bundle", constant(math.nan), None, MessageKind.CONTROL, "non-finite-likelihood"),
    "+inf": ("bundle", constant(math.inf), None, MessageKind.CONTROL, "non-finite-likelihood"),
    "malformed-payload": ("bundle", None, b"\x00\x01", MessageKind.CONTROL, "worker-crash"),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
@pytest.mark.parametrize("backend", ["sim", "local", "remote"])
def test_backends_answer_alike(backend, case):
    key, fn, payload, kind, code = CONTRACT_CASES[case]
    datasets, truths = make_synthetic(2, grid_size=32, seed=3)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    request = request_msg(0, key, params=truths.ravel())
    if payload is not None:
        request = Message(msg_id=request.msg_id, kind=request.kind, payload=payload)

    server = thread = None
    if backend == "remote":
        server = WorkerServer(("127.0.0.1", 0), store, likelihood_fn=fn)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
    fabric = QueueFabric(VirtualClock() if backend == "sim" else WallClock())
    input_q, output_q = fabric.create_queue("input"), fabric.create_queue("output")
    plane = attach_backend(input_q, output_q, backend, BackendModel(likelihood_duration_s=1.0),
                           store=store, likelihood_fn=fn,
                           remote_addr=server.server_address if server else None)
    try:
        input_q.push(request)
        resp = output_q.pop(timeout=30.0)
        extra = output_q.pop(timeout=0.2)
    finally:
        plane.close()
        if server is not None:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
    assert resp is not None and extra is None
    assert resp.msg_id == request.msg_id and resp.kind is kind
    if code is not None:
        assert parse_error(resp.payload)[0] == code
    elif case == "kernel":
        got = unpack_response(resp.payload).log_likelihood
        assert got == pytest.approx(evaluate(truths, datasets), rel=1e-12)
    else:
        expected = 0.0 if fn is None else fn(truths.ravel(), datasets)
        assert unpack_response(resp.payload).log_likelihood == expected
