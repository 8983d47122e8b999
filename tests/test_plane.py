import heapq
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from queuemc.clocks import WallClock
from queuemc import kernel
from queuemc.datasets import make_synthetic, read_container, write_container
from queuemc.engine import ChainConfig, run_chains
from queuemc.errors import ConfigurationError
from queuemc.fabric import Message, MessageKind, QueueFabric
from queuemc.kernel import evaluate
from queuemc.payloads import pack_request, pack_response, parse_error, unpack_response
from queuemc.plane import (PASS_MAP_BYTES, BackendModel, InvocationRecord, LocalPoolPlane,
                           SimScheduler, TaskRunner, attach_backend, make_stub_key,
                           respond, simulate)
from queuemc.store import MemoryObjectStore
from tests.conftest import BACKENDS, gaussian_target


def request_msg(i, key, params=()):
    payload = pack_request(np.asarray(params, dtype=np.float64), key)
    return Message(msg_id=i, kind=MessageKind.LIKELIHOOD_REQUEST,
                   payload=payload)


def push_stub_wave(input_q, n, duration):
    key = make_stub_key(duration)
    for i in range(n):
        input_q.push(request_msg(i, key))


def drain_stamped(output_q, n, timeout=None):
    """The next ``n`` (message, push stamp) pairs of ``output_q``."""
    out = []
    for _ in range(n):
        got = output_q.pop(timeout=timeout)
        assert got is not None
        out.append(got)
    return out


def drain(output_q, n, timeout=None):
    return [m for m, _ in drain_stamped(output_q, n, timeout)]


def answer_times(output_q, n):
    return [ts for _, ts in drain_stamped(output_q, n)]


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
    assert runner.run([request_msg(0, make_stub_key(2.5))]) == [(0.0, False, 2.5)]
    assert runner.run([request_msg(0, "", params=(1.0, 2.0))]) == [(3.0, False, None)]
    (((code, detail), cold, stub_s),) = runner.run([request_msg(0, "bundle.qmc")])
    assert code == "dataset-not-found" and "bundle.qmc" in detail
    assert not cold and stub_s is None


def test_task_runner_parses_a_key_once_across_threads():
    # Two threads ask for one key while its fetch is slow: the second waits
    # for the first one's parse instead of parsing it again, and only the
    # call that parsed it is cold.
    datasets, truths = make_synthetic(1, grid_size=32, seed=3)
    gets = []

    class SlowStore(MemoryObjectStore):
        def get(self, key):
            gets.append(key)
            time.sleep(0.05)
            return super().get(key)

    store = SlowStore()
    store.put("bundle", write_container(datasets))
    runner = TaskRunner(store=store)
    results = []
    start = threading.Barrier(2, timeout=30)

    def run_one(i):
        start.wait()
        results.extend(runner.run([request_msg(i, "bundle", params=truths.ravel())]))

    threads = [threading.Thread(target=run_one, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert gets == ["bundle"]
    assert sorted(cold for _, cold, _ in results) == [False, True]
    assert results[0][0] == results[1][0] == evaluate(truths, datasets)


# -------------------------------------------------------------- simulated


def test_sim_single_invocation_timing(sim_setup):
    fabric, input_q, output_q, plane = sim_setup()
    push_stub_wave(input_q, 1, duration=1.0)
    ((resp, ts),) = drain_stamped(output_q, 1)
    rec = plane.records[0]
    assert rec.cold
    assert rec.end_ts - rec.dispatch_ts >= 1.0 + 2.0 + 0.05
    assert ts == rec.end_ts
    assert resp.msg_id == 0


def test_sim_zero_requests_zero_responses(sim_setup):
    fabric, input_q, output_q, plane = sim_setup()
    assert output_q.pop(timeout=0) is None
    assert plane.records == []


def test_sim_capacity_sufficient_wave_zero_overhead(sim_setup):
    fabric, input_q, output_q, plane = sim_setup()
    push_stub_wave(input_q, 3, duration=1.0)          # c0 = 3
    ends = answer_times(output_q, 3)
    assert max(ends) - min(ends) == 0.0
    assert all(r.start_ts == 2.05 for r in plane.records)


def test_sim_two_wave_overhead_equals_tau(sim_setup):
    model = BackendModel(likelihood_duration_s=100.0)
    fabric, input_q, output_q, plane = sim_setup(model=model)
    push_stub_wave(input_q, 6, duration=100.0)        # 2 c0
    ends = answer_times(output_q, 6)
    assert max(ends) - min(ends) == pytest.approx(7.0, abs=1e-12)


def test_sim_thousand_wave_matches_log_ramp(sim_setup):
    model = BackendModel()
    fabric, input_q, output_q, plane = sim_setup(model=model)
    push_stub_wave(input_q, 1000, duration=100.0)
    ends = answer_times(output_q, 1000)
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
        ends = answer_times(output_q, n)
        overhead = max(ends) - min(ends)
        brute = brute_force_wave_overhead(n, model, dt)
        assert abs(overhead - brute) <= 2 * dt + 1e-9


def test_sim_doubling_invariant(sim_setup):
    # overhead(2N) - overhead(N) is exactly one doubling interval.
    model = BackendModel()

    def overhead(n):
        fabric, input_q, output_q, plane = sim_setup(model=model)
        push_stub_wave(input_q, n, duration=100.0)
        ends = answer_times(output_q, n)
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
            ends = answer_times(output_q, n)
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


def reference_schedule(model, requests, seed=0):
    """The scheduler's greedy, one request at a time, as the class
    documents it: reuse the earliest-free instance or provision the next
    one on the ramp, whichever starts the request sooner (a tie reuses),
    with jitter drawn per request when it is on."""
    rng = np.random.default_rng(seed)
    free, provisioned, origin, records = [], 0, None, []
    for msg_id, ts, duration in requests:
        origin = ts if origin is None else origin
        jitter = 0.0
        if model.jitter_std_s > 0:
            jitter = max(0.0, model.jitter_std_s * float(rng.standard_normal()))
        reuse = max(ts, free[0][0]) + model.warm_invoke_s if free else math.inf
        fresh = (max(ts, origin + model.ramp_delay(provisioned + 1))
                 + model.cold_start_s + model.warm_invoke_s)
        if reuse <= fresh:
            _, wid = heapq.heappop(free)
            start, cold = reuse + jitter, False
        else:
            provisioned += 1
            wid = provisioned
            start, cold = fresh + jitter, True
        heapq.heappush(free, (start + duration, wid))
        records.append(InvocationRecord(msg_id, f"sim-{wid:05d}", ts, start,
                                        start + duration, cold))
    return records


def staggered_requests():
    """A ramp-up wave at 0, then later waves that reuse its instances."""
    rng = np.random.default_rng(21)
    requests = [(i, 0.0, 1.0 + 0.5 * (i % 3)) for i in range(40)]
    for t in (3.0, 3.0, 9.5, 30.0):
        requests += [(len(requests) + i, t, float(d))
                     for i, d in enumerate(rng.uniform(0.5, 4.0, 15))]
    return requests


def schedule_of(records):
    """The four lists that ``SimScheduler.assign`` returns for the
    invocations of ``records``: start and end stamps, cold flags and
    instance numbers."""
    return ([r.start_ts for r in records], [r.end_ts for r in records],
            [r.cold for r in records], [int(r.worker_id.removeprefix("sim-")) for r in records])


@pytest.mark.parametrize("jitter", [0.0, 0.4])
def test_assign_matches_a_request_by_request_reference(jitter):
    model = BackendModel(likelihood_duration_s=1.0, jitter_std_s=jitter)
    requests = staggered_requests()
    expected = schedule_of(reference_schedule(model, requests, seed=3))
    assert set(expected[2]) == {True, False}  # ramp-up and reuse
    _, stamps, durations = (list(column) for column in zip(*requests))
    schedule = SimScheduler(model, seed=3).assign(stamps, durations)
    assert schedule == expected
    assert [type(v) for column in schedule for v in column] == [
        type(v) for column in expected for v in column]
    # However the requests are split across calls.
    sched, split = SimScheduler(model, seed=3), ([], [], [], [])
    for lo, hi in ((0, 1), (1, 8), (8, 9), (9, len(requests))):
        for column, part in zip(split, sched.assign(stamps[lo:hi], durations[lo:hi])):
            column += part
    assert split == expected


@pytest.mark.parametrize("jitter", [0.0, 0.4])
def test_simulate_schedules_string_ids_in_stable_dispatch_order(jitter):
    model = BackendModel(likelihood_duration_s=1.0, jitter_std_s=jitter)
    requests = [(f"w{i}/{int(ts)}", ts, d) for i, (_, ts, d) in enumerate(staggered_requests())]
    shuffled = [requests[i] for i in np.random.default_rng(4).permutation(len(requests))]
    in_order = sorted(shuffled, key=lambda req: req[1])  # stable for ties
    assert simulate(iter(shuffled), model, seed=8) == reference_schedule(model, in_order, seed=8)


def test_respond_packs_a_pass_and_answers_its_failures_with_errors():
    msgs = [request_msg(i, "bundle", [0.5]) for i in (4, 5, 6)]
    results = [(-1.5, False, None), (("non-finite-likelihood", "nan"), False, None),
               (-math.inf, True, None)]
    answers = respond(msgs, results, [False, False, True], [5.0, 6.0, 7.0], [6.0, 7.0, 8.0])
    assert [m.msg_id for m in answers] == [4, 5, 6]
    assert [m.kind for m in answers] == [MessageKind.LIKELIHOOD_RESPONSE, MessageKind.CONTROL,
                                         MessageKind.LIKELIHOOD_RESPONSE]
    assert answers[0].payload == pack_response(-1.5, False, 5.0, 6.0)
    assert parse_error(answers[1].payload) == ("non-finite-likelihood", "nan")
    assert answers[2].payload == pack_response(-math.inf, True, 7.0, 8.0)


def test_sim_schedules_one_clock_event_per_push(sim_setup, fast_model, monkeypatch):
    fabric, input_q, output_q, plane = sim_setup()
    clock, times = fabric.clock, []
    schedule = clock.schedule

    def counted(when, action, *args):
        times.append(when)
        return schedule(when, action, *args)

    monkeypatch.setattr(clock, "schedule", counted)
    config = ChainConfig(n_walkers=64, n_iterations=3, proposal_scale=1.0, seed=0)
    out = run_chains(config, plane, input_q, output_q, init_positions=np.zeros((64, 1)),
                     dataset_key=make_stub_key(fast_model.likelihood_duration_s))
    # One event per iteration's push, at the push's earliest end stamp.
    assert times == [min(r.end_ts for r in plane.records[it * 64:(it + 1) * 64])
                     for it in range(3)]
    assert len({r.end_ts for r in plane.records}) > 3
    replay = simulate([(it * 64 + w, out.dispatch_ts[w, it], fast_model.likelihood_duration_s)
                       for it in range(3) for w in range(64)], fast_model)
    by_id = {rec.msg_id: rec.end_ts for rec in replay}
    assert out.complete_ts.tolist() == [[by_id[it * 64 + w] for it in range(3)]
                                        for w in range(64)]


def test_sim_output_reads_empty_until_the_first_answer_is_due(sim_setup):
    fabric, input_q, output_q, plane = sim_setup()
    input_q.push(*[request_msg(i, make_stub_key(1.0)) for i in range(6)])
    ends = {r.msg_id: r.end_ts for r in plane.records}
    assert len(set(ends.values())) > 1
    idle = {"pushed": 0, "delivered": 0, "pending": 0}
    assert fabric.stats()["output"] == idle
    assert output_q.pop(timeout=min(ends.values()) / 2) is None
    assert fabric.stats()["output"] == idle
    got = drain_stamped(output_q, 6)
    # Each answer comes at its own end stamp, in stamp order, then push order.
    assert [(m.msg_id, ts) for m, ts in got] == sorted(ends.items(), key=lambda e: e[1])
    assert fabric.stats()["output"] == {"pushed": 6, "delivered": 6, "pending": 0}


def test_sim_builds_no_record_until_records_is_read(sim_setup, monkeypatch):
    built = []

    def counted(*fields):
        built.append(fields[0])
        return InvocationRecord(*fields)

    monkeypatch.setattr("queuemc.plane.InvocationRecord", counted)
    fabric, input_q, output_q, plane = sim_setup()
    config = ChainConfig(n_walkers=16, n_iterations=3, proposal_scale=1.0, seed=0)
    run_chains(config, plane, input_q, output_q, init_positions=np.zeros((16, 1)),
               dataset_key=make_stub_key(1.0))
    assert built == []
    assert [r.msg_id for r in plane.records] == built == list(range(48))


def test_sim_records_equal_a_simulate_replay_field_for_field(sim_setup):
    model = BackendModel(likelihood_duration_s=1.0, jitter_std_s=0.3)
    fabric, input_q, output_q, plane = sim_setup(model=model, seed=5)
    config = ChainConfig(n_walkers=32, n_iterations=4, proposal_scale=1.0, seed=0)
    out = run_chains(config, plane, input_q, output_q, init_positions=np.zeros((32, 1)),
                     dataset_key=make_stub_key(1.0))
    dispatch = out.dispatch_ts.tolist()
    replay = simulate([(it * 32 + w, dispatch[w][it], 1.0)
                       for it in range(4) for w in range(32)], model, seed=5)
    records = plane.records
    assert len({r.worker_id for r in records}) < len(records)  # instances are reused
    assert len({r.end_ts for r in records}) > 4  # the jitter spreads each wave
    assert records == replay
    assert plane.records == records


def test_assign_places_new_instances_on_the_ramp():
    # A wave that provisions an instance per request starts instance n at
    # its ramp_delay(n) after the origin, to the bit.
    model = BackendModel()
    starts, _, cold, instances = SimScheduler(model).assign([5.5] * 4096, [1e6] * 4096)
    assert all(cold) and instances == list(range(1, 4097))
    assert starts == [5.5 + model.ramp_delay(n) + model.cold_start_s + model.warm_invoke_s
                      for n in instances]


def spy_on_runs(plane, monkeypatch):
    """The size of each batch the plane's task runner runs, in order."""
    sizes, run = [], plane._runner.run

    def counted(msgs):
        sizes.append(len(msgs))
        return run(msgs)

    monkeypatch.setattr(plane._runner, "run", counted)
    return sizes


def test_sim_runs_each_stub_push_in_one_task_run(sim_setup, monkeypatch):
    fabric, input_q, output_q, plane = sim_setup()
    sizes = spy_on_runs(plane, monkeypatch)
    config = ChainConfig(n_walkers=64, n_iterations=3, proposal_scale=1.0, seed=0)
    out = run_chains(config, plane, input_q, output_q, init_positions=np.zeros((64, 1)),
                     dataset_key=make_stub_key(1.0))
    assert sizes == [64, 64, 64]
    assert out.accepted.all() and len(plane.records) == 192


def test_sim_cuts_a_loaded_kernel_push_at_its_batch_limit(sim_setup, monkeypatch):
    # The first wave runs request by request, as its key is not loaded when
    # it is cut; later waves take passes of batch_limit requests.
    datasets, truths, store = bundle_store(2, 32)
    monkeypatch.setattr("queuemc.plane.PASS_MAP_BYTES", 3 * len(datasets) * 32 * 32 * 8)
    fabric, input_q, output_q, plane = sim_setup(store=store)
    sizes = spy_on_runs(plane, monkeypatch)
    config = ChainConfig(n_walkers=8, n_iterations=2, proposal_scale=0.01, seed=0)
    out = run_chains(config, plane, input_q, output_q, dataset_key="bundle",
                     init_positions=np.tile(truths.ravel(), (8, 1)))
    assert plane._runner.batch_limit("bundle") == 3
    assert sizes == [1] * 8 + [3, 3, 2]
    final = out.samples[:, -1].reshape(8, len(datasets), -1)
    assert out.log_posts[:, -1].tolist() == [evaluate(theta, datasets) for theta in final]


def test_sim_runs_likelihood_fn_requests_one_per_call(sim_setup, monkeypatch):
    fabric, input_q, output_q, plane = sim_setup(likelihood_fn=gaussian_target)
    sizes = spy_on_runs(plane, monkeypatch)
    config = ChainConfig(n_walkers=8, n_iterations=2, proposal_scale=1.0, seed=0)
    run_chains(config, plane, input_q, output_q, init_positions=np.zeros((8, 1)),
               dataset_key="")
    assert sizes == [1] * 16


# -------------------------------------------------------------- local pool


def test_local_stub_smoke(local_setup):
    fabric, input_q, output_q, plane = local_setup()
    push_stub_wave(input_q, 1, duration=0.01)
    (resp,) = drain(output_q, 1, timeout=5.0)
    assert resp.kind is MessageKind.LIKELIHOOD_RESPONSE
    assert unpack_response(resp.payload)[0] == 0.0


def test_local_pool_pigeonhole(local_setup):
    fabric, input_q, output_q, plane = local_setup(pool_size=4)
    t0 = time.monotonic()
    push_stub_wave(input_q, 16, duration=0.1)
    drain(output_q, 16, timeout=10.0)
    assert time.monotonic() - t0 >= 0.4


def test_local_kernel_matches_in_process(local_setup):
    datasets, truths = make_synthetic(2, grid_size=32, seed=3, noise_level=0.05)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    fabric, input_q, output_q, plane = local_setup(store=store)
    rng = np.random.default_rng(0)
    params = truths + 0.01 * rng.standard_normal(truths.shape)
    input_q.push(request_msg(0, "bundle", params=params.ravel()))
    (resp,) = drain(output_q, 1, timeout=30.0)
    got = unpack_response(resp.payload)[0]
    expected = evaluate(params, datasets)
    assert got == pytest.approx(expected, rel=1e-12)


def test_local_dataset_cache_cold_flag(local_setup):
    datasets, truths = make_synthetic(1, grid_size=32, seed=3)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    fabric, input_q, output_q, plane = local_setup(store=store, pool_size=1)
    stamps = [input_q.push(request_msg(i, "bundle", params=truths.ravel())) for i in (0, 1)]
    responses = drain(output_q, 2, timeout=30.0)
    colds = sorted(unpack_response(m.payload)[1] for m in responses)
    assert colds == [False, True]
    plane.close()
    # Each record's dispatch stamp is the stamp of the push that brought it.
    assert [(r.msg_id, r.dispatch_ts) for r in plane.records] == list(enumerate(stamps))


def test_local_missing_dataset_surfaces_error(local_setup):
    fabric, input_q, output_q, plane = local_setup(store=MemoryObjectStore())
    input_q.push(request_msg(0, "absent", params=(1.0,)))
    (msg,) = drain(output_q, 1, timeout=5.0)
    assert msg.kind is MessageKind.CONTROL
    code, _ = parse_error(msg.payload)
    assert code == "dataset-not-found"


def test_local_worker_crash_surfaces_error(local_setup):
    def boom(params, datasets):
        raise RuntimeError("deliberate")

    fabric, input_q, output_q, plane = local_setup(likelihood_fn=boom)
    input_q.push(request_msg(0, "", params=(1.0,)))
    (msg,) = drain(output_q, 1, timeout=5.0)
    assert msg.kind is MessageKind.CONTROL
    code, detail = parse_error(msg.payload)
    assert code == "worker-crash" and "deliberate" in detail


def bundle_store(n_clusters, grid_size, seed=3):
    datasets, truths = make_synthetic(n_clusters, grid_size=grid_size, seed=seed)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    return datasets, truths, store


def queue_behind_a_stub(input_q, output_q, first, requests, stub_s=0.3):
    """On a pool of one: answer ``first``, which loads its key, then hold
    the worker with a stub while ``requests``, pushed in one push, queue up
    behind it."""
    input_q.push(first)
    drain(output_q, 1, timeout=30.0)
    input_q.push(request_msg(-1, make_stub_key(stub_s)))
    input_q.push(*requests)
    return {m.msg_id: m for m in drain(output_q, len(requests) + 1, timeout=30.0)}


def test_task_runner_batch_answers_each_request_as_alone():
    # A batch that raises, here on a request that does not split over the
    # clusters or on a second key, runs each request again alone; the
    # first request still reports the parse the batch paid for.
    datasets, truths, store = bundle_store(2, 32)
    good = [request_msg(i, "bundle", params=truths.ravel() + 0.01 * i) for i in range(3)]
    short = request_msg(3, "bundle", params=truths.ravel()[:-1])
    stub = request_msg(4, make_stub_key(0.0))
    for batch in ([good[0], short, good[1]], [good[0], stub, good[2]], good):
        alone = TaskRunner(store)
        expected = [alone.run([msg])[0] for msg in batch]
        assert TaskRunner(store).run(batch) == expected
        assert expected[0][1] and not any(cold for _, cold, _ in expected[1:])


def test_task_runner_pass_of_mixed_keys_answers_each_request_as_alone():
    # Payloads of one length that differ outside their parameters, in the
    # key alone or in the parameter count and the key, cannot share a pass.
    datasets, truths, store = bundle_store(2, 32)
    store.put("bundlf", store.get("bundle"))
    params = truths.ravel()
    a = request_msg(0, "bundle", params=params)
    b = request_msg(1, "bundlf", params=params + 0.01)
    c = request_msg(2, "bundle" + "x" * 8, params=params[:-1])
    for batch in ([a, b], [a, c], [b, a, c], [a, b, a]):
        assert len({len(msg.payload) for msg in batch}) == 1
        alone = TaskRunner(store)
        expected = [alone.run([msg])[0] for msg in batch]
        assert TaskRunner(store).run(batch) == expected
    assert isinstance(expected[0][0], float) and isinstance(expected[2][0], float)


def test_local_stubs_run_alone_and_overlap(local_setup):
    # Stub requests are never batched: each holds its own worker for its
    # full duration, so two stubs on a pool of two overlap in wall time.
    fabric, input_q, output_q, plane = local_setup(pool_size=2)
    push_stub_wave(input_q, 2, duration=0.2)
    drain(output_q, 2, timeout=10.0)
    plane.close()
    a, b = plane.records
    assert a.worker_id != b.worker_id
    assert a.start_ts < b.end_ts and b.start_ts < a.end_ts
    assert min(a.end_ts - a.start_ts, b.end_ts - b.start_ts) >= 0.2


@pytest.mark.parametrize("bad", ["does-not-split", "non-finite"])
def test_local_batch_answers_each_request_as_alone(local_setup, bad):
    # A batch holding one bad request answers every request with what it
    # gets alone: the bad one its error code, the others their values.
    datasets, truths, store = bundle_store(2, 32)
    rng = np.random.default_rng(0)
    params = [truths.ravel() + 0.01 * rng.standard_normal(truths.size) for _ in range(5)]
    if bad == "does-not-split":
        params[2] = params[2][:-1]
    else:
        params[2][5] = math.nan
    fabric, input_q, output_q, plane = local_setup(store=store, pool_size=1)
    requests = [request_msg(i, "bundle", params=p) for i, p in enumerate(params)]
    answers = queue_behind_a_stub(input_q, output_q, requests[0], requests[1:])
    plane.close()
    # The four queued requests took one pass: one start and one end stamp.
    batch = [r for r in plane.records if r.msg_id >= 1]
    assert len(batch) == 4 and len({(r.start_ts, r.end_ts) for r in batch}) == 1
    alone = TaskRunner(store)
    for msg in requests[1:]:
        ((expected, _, _),) = alone.run([msg])
        got = answers[msg.msg_id]
        if isinstance(expected, tuple):
            assert got.kind is MessageKind.CONTROL
            assert parse_error(got.payload) == expected
        else:
            assert got.kind is MessageKind.LIKELIHOOD_RESPONSE
            assert unpack_response(got.payload)[0] == expected
    expected_code = "worker-crash" if bad == "does-not-split" else "non-finite-likelihood"
    assert parse_error(answers[2].payload)[0] == expected_code


def test_local_batches_keep_one_record_and_one_cold_start_per_key(local_setup):
    # More pool threads than cores and a short switch interval, over pushes
    # of kernel requests mixed with stubs: every request is answered once
    # and recorded once, and one record of the key is cold, though a slow
    # store lets the first requests on each thread parse it at once.
    datasets, truths, store = bundle_store(2, 32)
    get = store.get
    store.get = lambda key: time.sleep(0.05) or get(key)
    kinds = np.random.default_rng(0).random(200) < 0.25
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fabric, input_q, output_q, plane = local_setup(store=store, pool_size=4)
        requests = [request_msg(i, make_stub_key(0.0)) if stub
                    else request_msg(i, "bundle", params=truths.ravel())
                    for i, stub in enumerate(kinds)]
        for i in range(0, len(requests), 8):
            input_q.push(*requests[i:i + 8])
        answers = drain(output_q, len(kinds), timeout=60.0)
        plane.close()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(m.msg_id for m in answers) == list(range(len(kinds)))
    assert all(m.kind is MessageKind.LIKELIHOOD_RESPONSE for m in answers)
    assert sorted(r.msg_id for r in plane.records) == list(range(len(kinds)))
    assert sum(r.cold for r in plane.records) == 1
    assert sum(unpack_response(m.payload)[1] for m in answers) == 1


def test_local_pass_stays_within_its_map_budget(local_setup, monkeypatch):
    # fit-local's shape: 8 clusters on a 64 × 64 grid, 256 KiB of model
    # maps per request. Each kernel pass holds at most PASS_MAP_BYTES of
    # them; the first request of a key runs alone.
    datasets, truths, store = bundle_store(8, 64)
    passes = []
    real = kernel.evaluate

    def counted(thetas, bundle):
        passes.append(thetas.shape[0])
        return real(thetas, bundle)

    monkeypatch.setattr(kernel, "evaluate", counted)
    fabric, input_q, output_q, plane = local_setup(store=store, pool_size=1)
    requests = [request_msg(i, "bundle", params=truths.ravel()) for i in range(8)]
    queue_behind_a_stub(input_q, output_q, requests[0], requests[1:])
    plane.close()
    per_request = len(datasets) * 64 * 64 * 8
    assert passes[0] == 1 and sum(passes) == 8
    assert all(b * per_request <= PASS_MAP_BYTES for b in passes)
    assert max(passes) == PASS_MAP_BYTES // per_request


def test_local_chain_makes_one_push_and_full_passes_per_iteration(local_setup, monkeypatch):
    # fit-local's shape: 8 clusters at grid 64, 16 walkers, a pool of two.
    # Each iteration's wave reaches the pool in one trigger call. The first
    # wave runs request by request, since its key is not loaded when it is
    # cut; every later wave takes 8 passes of 2 requests.
    datasets, truths, store = bundle_store(8, 64, seed=7)
    waves, passes = [], []
    dispatch, evaluate_ = LocalPoolPlane._dispatch, kernel.evaluate

    def counted_dispatch(self, msgs, ts):
        waves.append(len(msgs))
        return dispatch(self, msgs, ts)

    def counted_evaluate(thetas, bundle):
        passes.append(thetas.shape[0])
        return evaluate_(thetas, bundle)

    monkeypatch.setattr(LocalPoolPlane, "_dispatch", counted_dispatch)
    monkeypatch.setattr(kernel, "evaluate", counted_evaluate)
    fabric, input_q, output_q, plane = local_setup(store=store, pool_size=2)
    config = ChainConfig(n_walkers=16, n_iterations=3, proposal_scale=0.02, seed=1)
    run_chains(config, plane, input_q, output_q, dataset_key="bundle",
               init_positions=np.tile(truths.ravel(), (16, 1)), response_timeout_s=60.0)
    assert waves == [16, 16, 16]
    assert passes == [1] * 16 + [2] * 16


def test_full_budget_pass_memory_stays_within_a_stated_multiple():
    # numpy reports its buffers to tracemalloc. At fit-local's shape a
    # full-budget pass may peak at no more than 2.5 times the peak of one
    # request's pass; a larger budget spends the benchmark's memory margin.
    datasets, truths, store = bundle_store(8, 64, seed=7)
    runner = TaskRunner(store)
    runner.run([request_msg(0, "bundle", params=truths.ravel())])
    limit = runner.batch_limit("bundle")
    bundle = read_container(store.get("bundle"))
    rng = np.random.default_rng(1)
    thetas = np.array([1.0, -0.5, -0.5, 0.0]) + 0.02 * rng.standard_normal((limit, 8, 4))
    evaluate(thetas, bundle)  # the geometry's tables, built once

    def peak(x):
        tracemalloc.start()
        try:
            evaluate(x, bundle)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single = max(peak(theta) for theta in thetas)
    assert peak(thetas) <= 2.5 * single


def test_attach_backend_rejects_unknown(fast_model):
    fabric = QueueFabric(WallClock())
    q1, q2 = fabric.create_queue("a"), fabric.create_queue("b")
    with pytest.raises(ConfigurationError):
        attach_backend(q1, q2, "gpu", fast_model)


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
    # A stub duration outside [0, threading.TIMEOUT_MAX] cannot be slept out.
    "stub-negative": (make_stub_key(-1.0), None, None, MessageKind.CONTROL, "worker-crash"),
    "stub-nan": (make_stub_key(math.nan), None, None, MessageKind.CONTROL, "worker-crash"),
    "stub-inf": (make_stub_key(math.inf), None, None, MessageKind.CONTROL, "worker-crash"),
    "stub-unsleepable": (make_stub_key(1e300), None, None, MessageKind.CONTROL, "worker-crash"),
    "missing-dataset": ("absent", None, None, MessageKind.CONTROL, "dataset-not-found"),
    "crashing-likelihood": ("bundle", boom, None, MessageKind.CONTROL, "worker-crash"),
    # -inf is a legal zero likelihood; NaN and +inf are not likelihoods.
    "minus-inf": ("bundle", constant(-math.inf), None, MessageKind.LIKELIHOOD_RESPONSE, None),
    "nan": ("bundle", constant(math.nan), None, MessageKind.CONTROL, "non-finite-likelihood"),
    "+inf": ("bundle", constant(math.inf), None, MessageKind.CONTROL, "non-finite-likelihood"),
    "malformed-payload": ("bundle", None, b"\x00\x01", MessageKind.CONTROL, "worker-crash"),
}


@pytest.mark.parametrize("case", sorted(CONTRACT_CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_backends_answer_alike(backend, case, make_backend):
    # One request draws exactly one message, of the same kind and error
    # code on every backend, and closing the plane pushes nothing more.
    key, fn, payload, kind, code = CONTRACT_CASES[case]
    datasets, truths = make_synthetic(2, grid_size=32, seed=3)
    store = MemoryObjectStore()
    store.put("bundle", write_container(datasets))
    request = request_msg(0, key, params=truths.ravel())
    if payload is not None:
        request = Message(msg_id=request.msg_id, kind=request.kind, payload=payload)
    fabric, input_q, output_q, plane = make_backend(backend, store=store, likelihood_fn=fn)
    input_q.push(request)
    got = output_q.pop(timeout=30.0)
    assert got is not None and output_q.pop(timeout=0.2) is None
    plane.close()
    assert output_q.pop(timeout=0) is None
    resp, _ = got
    assert resp.msg_id == request.msg_id and resp.kind is kind
    if code is not None:
        assert parse_error(resp.payload)[0] == code
    elif case == "kernel":
        got = unpack_response(resp.payload)[0]
        assert got == pytest.approx(evaluate(truths, datasets), rel=1e-12)
    else:
        expected = 0.0 if fn is None else fn(truths.ravel(), datasets)
        assert unpack_response(resp.payload)[0] == expected
