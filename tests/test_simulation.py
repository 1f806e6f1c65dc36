import dataclasses
import importlib.util
import json
import math
import os
import sys
import tempfile
import tracemalloc
from operator import attrgetter, itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svsim.cli import load_sweep_spec, sweep_configs
from svsim.costs import layer_cost, mem_transfer_cycles, systolic_cycles, task_cycles
from svsim.hardware import PhysicalModel, load_hw_config, peak_performance
from svsim.models import ModelError, OpType, builtin_model, ingest_graph
from svsim.scheduling import (_TEMPLATES, SCHEDULERS, CapacityDeadlock, ClusterTable,
                              MemAction, NoReadyTask, Placement, Processor, ResidencyEntry,
                              StalledRun, SubLayerTask, UnpartitionableLayer)
from svsim import simulation
from svsim.simulation import (ResidencyEvent, compute_report, energy_from_trace,
                              export_trace, run, trace_digest, verify_trace,
                              write_decisions)
from svsim.workloads import (RATIO_GRID, Request, Workload, generate, load_manifest,
                             standard_suite)

from support import (REFERENCE_SCHEDULERS, make_cluster, make_hw, reference_decisions,
                     reference_digest, reference_trace_json, reference_verify_trace)

PHYS = PhysicalModel()
DESK_HW = os.path.join(os.path.dirname(__file__), "..", "configs", "desk_hw.json")
PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def single_model_workload(name="tiny", n=1):
    return Workload(name=f"wl-{name}", seed=0, cnn_ratio=0.0, request_count=n,
                    requests=tuple(Request(i, name, 0) for i in range(n)),
                    model_params={})


def tiny_gemm_graph(m=16, k=16, n=16):
    return ingest_graph({
        "name": "tiny", "class": "cnn", "precision": "int8",
        "inputs": [{"name": "x", "shape": [m, k]}],
        "layers": [{"name": "fc", "op": "GEMM", "inputs": ["x"],
                    "out_features": n, "bias": False}],
    })


def test_single_gemm_makespan_composes_oracles():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    g = tiny_gemm_graph()
    trace, report = run(single_model_workload(), hw, scheduler="has",
                        graphs={"tiny": g})
    fetch = mem_transfer_cycles(16 * 16, hw)   # int8 weight tensor
    act_read = mem_transfer_cycles(16 * 16, hw)
    compute = systolic_cycles(layer_cost(g.layers[0]), hw.clusters[0].arrays[0])
    assert compute == 48
    assert report.makespan_cycles == fetch + act_read + compute
    assert len(trace.executions) == 1
    assert verify_trace(trace, hw) == []


def test_empty_workload():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    w = Workload(name="empty", seed=0, cnn_ratio=0.0, request_count=0,
                 requests=(), model_params={})
    trace, report = run(w, hw)
    assert report.makespan_cycles == 0
    assert report.tops == 0.0
    assert report.joules == 0.0
    assert trace.executions == []


def test_same_inputs_identical_trace_digest():
    hw = make_hw(1, make_cluster(1, 32, 2, 64, 45))
    w = generate(0.5, 4, seed=3)
    d1 = trace_digest(run(w, hw, scheduler="has")[0])
    d2 = trace_digest(run(w, hw, scheduler="has")[0])
    assert d1 == d2


def test_report_recomputable_from_trace_alone():
    hw = make_hw(1, make_cluster(1, 32, 2, 64, 45))
    w = generate(0.5, 4, seed=3)
    trace, report = run(w, hw)
    assert energy_from_trace(trace, PHYS) == pytest.approx(report.joules, rel=0, abs=0)
    again = compute_report(trace, hw, PHYS)
    assert again == report


def test_throughput_never_exceeds_peak():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    w = generate(1.0, 2, seed=5)
    _, report = run(w, hw)
    assert report.tops * 1000 <= peak_performance(hw)
    for v in report.utilization.values():
        assert 0.0 <= v <= 100.0


def test_utilization_fraction():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    g = tiny_gemm_graph()
    trace, report = run(single_model_workload(), hw, graphs={"tiny": g})
    p = trace.executions[0]
    busy = p.t_end - p.t_start
    assert report.utilization["cluster0/array0"] == pytest.approx(
        100.0 * busy / report.makespan_cycles)


def test_causality_and_request_records():
    hw = make_hw(1, make_cluster(1, 32, 2, 64, 45))
    w = generate(0.5, 4, seed=3)
    trace, _ = run(w, hw)
    ends = {p.task.task_id: p.t_end for p in trace.executions}
    for p in trace.executions:
        assert p.t_end >= p.t_start
        for d in p.task.deps:
            assert p.t_start >= ends[d]
    for r in trace.requests:
        assert r.completed >= r.dispatched >= r.arrival
        req_ends = [p.t_end for p in trace.executions if p.task.request_id == r.request_id]
        assert r.completed == max(req_ends)
    assert verify_trace(trace, hw) == []


def _desk_trace():
    hw = load_hw_config(DESK_HW)
    trace, _ = run(generate(0.5, 6, 1), hw, scheduler="has")
    assert verify_trace(trace, hw) == []
    return trace, hw


def test_verify_trace_catches_overlapping_transfers():
    trace, hw = _desk_trace()
    p, a = next((p, a) for p in trace.executions for a in p.actions if a.kind != "flush")
    # no bytes, so shared-memory residency stays as it was
    p.actions += (dataclasses.replace(a, start=a.start + 1, end=a.end + 1, bytes=0),)
    problems = verify_trace(trace, hw)
    assert problems and all("/hbm: " in p for p in problems)


def test_verify_trace_catches_completion_off_last_task():
    trace, hw = _desk_trace()
    r = trace.requests[0]
    r.completed += 1
    problems = verify_trace(trace, hw)
    assert len(problems) == 1 and problems[0].startswith(f"request {r.request_id}:")


def test_verify_trace_catches_vector_work_on_an_array():
    trace, hw = _desk_trace()
    i, p = next((i, p) for i, p in enumerate(trace.executions)
                if p.proc.kind == "vector" and p.task.cost.op.name in ("ACTIVATION", "POOL"))
    trace.executions[i] = dataclasses.replace(p, proc=dataclasses.replace(p.proc, kind="array"))
    assert verify_trace(trace, hw) == [
        f"cluster0/{p.proc.name}: {p.task.task_id} runs non-matrix {p.task.cost.op.name}"]


def test_verify_trace_catches_two_tasks_on_one_processor():
    trace, hw = _desk_trace()
    a, b = sorted((p for p in trace.executions if p.proc.name == "array0"),
                  key=attrgetter("t_start"))[:2]
    start = a.t_end - 1
    trace.executions[trace.executions.index(b)] = dataclasses.replace(
        b, t_start=start, t_end=start + b.t_end - b.t_start)
    assert (f"cluster0/array0: {b.task.task_id} starts at {start} before {a.task.task_id} "
            f"ends at {a.t_end}") in verify_trace(trace, hw)


def test_verify_trace_catches_a_memory_action_ending_after_its_task_starts():
    trace, hw = _desk_trace()
    p = trace.executions[-1]
    # no bytes and no channel time, so no other check sees it
    p.actions += (MemAction("flush", p.t_start, p.t_start + 1, 0, ("w", "late")),)
    assert verify_trace(trace, hw) == [
        f"{p.task.task_id}: flush of ('w', 'late') ends at {p.t_start + 1}, "
        f"after the task starts at {p.t_start}"]


def test_verify_trace_catches_a_task_whose_duration_is_off_its_cost():
    trace, hw = _desk_trace()
    p = trace.executions[0]
    took = p.t_end - p.t_start
    # the task's own cycle dict agrees with the tampered duration; the check
    # recomputes the cycles, so it is not fooled
    task = dataclasses.replace(p.task, _cycles={p.proc.cycle_key: took - 1})
    trace.executions[0] = dataclasses.replace(p, task=task, t_start=p.t_start + 1)
    assert verify_trace(trace, hw) == [
        f"{task.task_id}: runs {took - 1} cycles on {p.proc.name}, its cost takes {took}"]


def test_verify_trace_times_a_task_by_its_processors_kind_and_size():
    trace, hw = _desk_trace()
    p = trace.executions[0]
    # the cycle key stays the old processor's, so a lookup by it finds nothing wrong
    proc = dataclasses.replace(p.proc, size=2 * p.proc.size)
    want = task_cycles(p.task.cost, proc.kind, proc.size)
    assert want != p.t_end - p.t_start
    trace.executions[0] = dataclasses.replace(p, proc=proc)
    assert verify_trace(trace, hw) == [
        f"{p.task.task_id}: runs {p.t_end - p.t_start} cycles on {proc.name}, "
        f"its cost takes {want}"]


def _with_deps(p, deps):
    """A copy of placement ``p`` whose task has ``deps``."""
    return dataclasses.replace(p, task=dataclasses.replace(p.task, deps=deps))


def test_verify_trace_catches_a_dependency_that_never_executed():
    trace, hw = _desk_trace()
    p = trace.executions[-1]
    trace.executions[-1] = _with_deps(p, p.task.deps + ("r99/L0/s0",))
    assert verify_trace(trace, hw) == [f"{p.task.task_id}: dependency r99/L0/s0 never executed"]


def test_verify_trace_catches_a_task_starting_before_its_dependency_ends():
    trace, hw = _desk_trace()
    p = trace.executions[0]
    later = next(f for f in trace.executions if f.t_end > p.t_start and f is not p)
    trace.executions[0] = _with_deps(p, (later.task.task_id,))
    assert verify_trace(trace, hw) == [
        f"{p.task.task_id} starts at {p.t_start} before dependency {later.task.task_id} "
        f"ends at {later.t_end}"]


@pytest.mark.parametrize("cluster", [-1, 5])
def test_verify_trace_names_a_cluster_the_config_does_not_have(cluster):
    trace, hw = _desk_trace()
    for p in trace.executions:
        p.cluster = cluster
    # one violation; no other cluster's capacity stands in for the missing one
    assert verify_trace(trace, hw) == [f"cluster{cluster}: not one of the config's 1 clusters"]
    trace, hw = _desk_trace()
    trace.executions[0].cluster = cluster
    problems = verify_trace(trace, hw)
    assert [m for m in problems if m.startswith(f"cluster{cluster}: ")] == [
        f"cluster{cluster}: not one of the config's 1 clusters"]


def _residency_tail(trace):
    """The last residency cycle on cluster 0 and the level it ends at."""
    return (max(r.time for r in trace.residency),
            sum(r.delta for r in trace.residency))


def test_verify_trace_catches_shared_memory_over_capacity():
    trace, hw = _desk_trace()
    cap = hw.clusters[0].shared_mem_bytes
    t, level = _residency_tail(trace)
    # a fetch holds its bytes from its start; past every task start, it also
    # ends after its own task starts
    p = trace.executions[-1]
    p.actions += (MemAction("fetch_param", t + 1, t + 1, cap + 1 - level, "extra"),)
    assert verify_trace(trace, hw) == [
        f"{p.task.task_id}: fetch_param of extra ends at {t + 1}, "
        f"after the task starts at {p.t_start}",
        f"cluster0: shared memory at {cap + 1} B > {cap} B at cycle {t + 1} (extra)"]


def test_verify_trace_catches_negative_residency_at_the_end():
    trace, hw = _desk_trace()
    t, level = _residency_tail(trace)
    # a flush frees its bytes at its end; past every task start, it also ends
    # after its own task starts
    p = trace.executions[-1]
    p.actions += (MemAction("flush", t + 1, t + 1, level + 1, "extra"),)
    assert verify_trace(trace, hw) == [
        f"{p.task.task_id}: flush of extra ends at {t + 1}, after the task starts at "
        f"{p.t_start}", "cluster0: negative residency at end (-1)"]


def test_verify_trace_orders_the_changes_of_one_cycle_by_delta():
    trace, hw = _desk_trace()
    cap = hw.clusters[0].shared_mem_bytes
    t, level = _residency_tail(trace)
    assert level + 1 <= cap
    # in record order the big fetch fills the scratchpad to cap and the small
    # one passes it; at one cycle the smaller change comes first, so the big
    # fetch is the one that passes cap, and the one named
    p = trace.executions[-1]
    p.actions += (MemAction("fetch_param", t + 1, t + 1, cap - level, "big"),
                  MemAction("fetch_param", t + 1, t + 1, 1, "small"))
    assert verify_trace(trace, hw) == [
        f"{p.task.task_id}: fetch_param of big ends at {t + 1}, "
        f"after the task starts at {p.t_start}",
        f"{p.task.task_id}: fetch_param of small ends at {t + 1}, "
        f"after the task starts at {p.t_start}",
        f"cluster0: shared memory at {cap + 1} B > {cap} B at cycle {t + 1} (big)"]


def _cold_digests(runs):
    """Digest of each ``run`` call with the template cache emptied first."""
    digests = []
    for args, kwargs in runs:
        _TEMPLATES.clear()
        digests.append(trace_digest(run(*args, **kwargs)[0]))
    return digests


def _warm_digests(runs):
    """Digests of the ``run`` calls in turn, sharing one template cache."""
    _TEMPLATES.clear()
    return [trace_digest(run(*args, **kwargs)[0]) for args, kwargs in runs]


def test_templates_never_shared_between_graphs_under_one_model_key():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    w = single_model_workload("tiny", n=2)
    runs = [((w, hw), {"graphs": {"tiny": g}})
            for g in (tiny_gemm_graph(), tiny_gemm_graph(64, 32, 48))]
    cold = _cold_digests(runs)
    assert cold[0] != cold[1]
    assert _warm_digests(runs) == cold


@pytest.mark.parametrize("scheduler", ["rr", "has"])
def test_templates_repeat_a_desk_run_digest_for_digest(scheduler):
    runs = [((standard_suite(16, seeds=(1,))[5], load_hw_config(DESK_HW)),
             {"scheduler": scheduler})] * 2
    cold = _cold_digests(runs)
    assert _warm_digests(runs) == cold


@pytest.mark.parametrize("scheduler", ["rr", "has"])
def test_request_tasks_carry_no_state_from_one_run_to_the_next(scheduler):
    with open(DESK_HW) as f:
        doc = json.load(f)
    hw = load_hw_config(doc)
    smaller = load_hw_config(dict(doc, clusters=[dict(doc["clusters"][0], shared_mem_mb=16)]))
    first, other = generate(0.5, 6, 1), generate(0.5, 6, 2)
    # the same request ids name other models in the second workload
    assert [r.model for r in first.requests] != [r.model for r in other.requests]
    runs = [((w, h), {"scheduler": scheduler})
            for w, h in ((first, hw), (other, hw), (first, hw), (first, smaller))]
    cold = _cold_digests(runs)
    assert cold[2] == cold[0] and len({cold[0], cold[1], cold[3]}) == 3
    assert _warm_digests(runs) == cold
    # and a repeated run does place the first run's task objects
    a, b = (run(first, hw, scheduler=scheduler)[0] for _ in range(2))
    assert all(p.task is q.task for p, q in zip(a.executions, b.executions))


def test_export_trace_reparse_busy_intervals(tmp_path):
    hw = make_hw(1, make_cluster(1, 32, 2, 64, 45))
    w = generate(0.5, 3, seed=2)
    trace, _ = run(w, hw)
    path = tmp_path / "trace.json"
    export_trace(trace, str(path))
    doc = json.loads(path.read_text())
    to_us = 1e6 / hw.clock_hz
    want = sorted((p.cluster, p.proc.name, p.t_start * to_us,
                   (p.t_end - p.t_start) * to_us) for p in trace.executions)
    got = sorted((ev["pid"], ev["tid"], ev["ts"], ev["dur"])
                 for ev in doc["traceEvents"] if ev["tid"] != "hbm")
    assert len(got) == len(want)
    for (c1, r1, s1, d1), (c2, r2, s2, d2) in zip(got, want):
        assert (c1, r1) == (c2, r2)
        assert s1 == pytest.approx(s2)
        assert d1 == pytest.approx(d2)


def test_export_keeps_the_order_of_events_tied_on_time_and_lane(tmp_path):
    # same-cycle HBM chunks split across keys tie on (ts, pid, tid): they go
    # by name, and those whose names tie too keep their record order
    trace, hw = _desk_trace()
    path = tmp_path / "trace.json"
    export_trace(trace, str(path))
    got, want = {}, {}
    for ev in json.loads(path.read_text())["traceEvents"]:
        if ev["tid"] == "hbm":
            got.setdefault((ev["pid"], ev["ts"]), []).append((ev["name"], ev["args"]["key"]))
    to_us = 1e6 / hw.clock_hz
    for p in trace.executions:
        for a in p.actions:
            if a.kind != "flush":
                want.setdefault((p.cluster, a.start * to_us), []).append(
                    (f"{a.kind} {a.bytes}B", str(a.key)))
    for events in want.values():
        events.sort(key=itemgetter(0))  # stable
    assert got == want
    assert any(len({name for name, _ in events}) < len(events) for events in want.values())


def test_per_placement_classes_are_slotted(monkeypatch):
    # an instance __dict__ on these would take back the trace writer's speed-up
    entries = []
    policy = SCHEDULERS["has"]

    def spy(table, now):
        p = policy(table, now)
        entries.extend(table.residency.values())
        return p

    monkeypatch.setitem(SCHEDULERS, "has", spy)
    trace, _ = _desk_trace()
    p = trace.executions[0]
    built = {Placement: p, ResidencyEvent: trace.residency[0], SubLayerTask: p.task,
             Processor: p.proc, ResidencyEntry: entries[0],
             MemAction: next(a for p in trace.executions for a in p.actions)}
    for cls, obj in built.items():
        assert "__slots__" in vars(cls), cls.__name__
        assert type(obj) is cls and not hasattr(obj, "__dict__"), cls.__name__


def test_recorded_placements_keep_their_memory_actions(monkeypatch):
    planned = []
    policy = SCHEDULERS["has"]

    def spy(table, now):
        p = policy(table, now)
        planned.append((p, p.actions))
        return p

    monkeypatch.setitem(SCHEDULERS, "has", spy)
    trace, _ = _desk_trace()
    assert len(planned) == len(trace.executions)
    for (p, actions), recorded in zip(planned, trace.executions):
        assert recorded is p and p.actions is actions
    kept = [a for p in trace.executions for a in p.actions]
    assert any(a.kind == "flush" for a in kept)
    assert trace.transfers == [a for a in kept if a.kind != "flush"]


def test_export_empty_trace_is_valid(tmp_path):
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    w = Workload(name="empty", seed=0, cnn_ratio=0.0, request_count=0,
                 requests=(), model_params={})
    trace, _ = run(w, hw)
    path = tmp_path / "empty.json"
    export_trace(trace, str(path))
    doc = json.loads(path.read_text())
    assert doc["traceEvents"] == []


def test_single_task_single_duration_event(tmp_path):
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    g = tiny_gemm_graph()
    trace, _ = run(single_model_workload(), hw, graphs={"tiny": g})
    path = tmp_path / "one.json"
    export_trace(trace, str(path))
    doc = json.loads(path.read_text())
    lanes = [ev for ev in doc["traceEvents"] if ev["tid"] != "hbm"]
    assert len(lanes) == 1
    ev = lanes[0]
    p = trace.executions[0]
    assert ev["ph"] == "X"
    assert ev["ts"] == pytest.approx(p.t_start * 1e6 / hw.clock_hz)
    assert ev["dur"] == pytest.approx((p.t_end - p.t_start) * 1e6 / hw.clock_hz)


def test_energy_accounting_matches_independent_count():
    # round-robin keeps matrix work on arrays and the rest on vectors, so an
    # independent per-op count over the graph pins the exact joules
    hw = make_hw(1, make_cluster(1, 16, 2, 32, 256))
    phys = PhysicalModel(sram_pj_per_byte=0.0, dram_pj_per_byte=0.0)
    g = builtin_model("alexnet", depth_reduction=4)
    trace, _ = run(single_model_workload("alexnet"), hw, scheduler="rr",
                   graphs={"alexnet": g})
    report = compute_report(trace, hw, phys)
    expected = 0.0
    for layer in g.layers:
        c = layer_cost(layer)
        if c.matrix is not None:
            expected += c.macs * phys.systolic_mac_pj[16] * 1e-12
        row = {OpType.POOL: "pooling", OpType.ACTIVATION: "lut", OpType.SOFTMAX: "softmax",
               OpType.LAYERNORM: "etc", OpType.ELEMENTWISE_ADD: "etc"}.get(c.op)
        if row is not None:
            expected += c.vector_ops * phys.vector_pj[row][32] * 1e-12
    assert report.joules == expected  # zero tolerance


def test_unpartitionable_layer_surfaces_as_error():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 1))  # 1 MiB shared memory
    w = single_model_workload("vgg16")
    with pytest.raises(UnpartitionableLayer):
        run(w, hw, graphs={"vgg16": builtin_model("vgg16", depth_reduction=4)})


# trace digests of the scheduling core on the desk config; a change that
# moves one changes which task runs where and when
PINNED_DIGESTS = {
    ((0.5, 6, 1), "rr"): "fc739260d7add05be4b5ce828c1d85a06a383b55b4f74e9a7f48c7faca3ddbd6",
    ((0.5, 6, 1), "has"): "4b95eaf295bf4e92dc2f8811d3959ace2b77a6a5f33466b2e910e2edc269cb29",
    ((1.0, 6, 2), "rr"): "36476c9c4f7751ca2cbdb8a09b6c086bb41229e5c49c4d7abe18c27ed01dfc58",
    ((1.0, 6, 2), "has"): "6f7d91a350f6b1e52fdf850a7c969bb9dadaab115e43faaee940423a06b18b50",
}


@pytest.mark.parametrize("args,scheduler", sorted(PINNED_DIGESTS))
def test_desk_trace_digests_pinned(args, scheduler):
    hw = load_hw_config(DESK_HW)
    trace, _ = run(generate(*args), hw, scheduler=scheduler)
    assert verify_trace(trace, hw) == []
    assert trace_digest(trace) == PINNED_DIGESTS[(args, scheduler)]


# the same pins on two desk clusters: the trace's decision rows take the
# clusters in cluster order, so a change to that order moves these digests
TWO_CLUSTER_DIGESTS = {
    "rr": "fc23334838c5e289560ee67690637a985a7ced6a73a097333bcf13b96a7819e6",
    "has": "e343ef129419588f8e237b1b6c8580abb76ed52e25f5e56e391079d542501568",
}


@pytest.mark.parametrize("scheduler", sorted(TWO_CLUSTER_DIGESTS))
def test_two_cluster_trace_digests_pinned(scheduler):
    with open(DESK_HW) as f:
        doc = json.load(f)
    doc["clusters"] = doc["clusters"] * 2
    hw = load_hw_config(doc)
    trace, _ = run(generate(0.5, 12, 1), hw, scheduler=scheduler)
    assert verify_trace(trace, hw) == []
    assert {r.cluster for r in trace.requests} == {0, 1}
    assert trace_digest(trace) == TWO_CLUSTER_DIGESTS[scheduler]


# four desk clusters, where executions and transfers interleave the clusters'
# records cycle by cycle: a change to which events drain a cluster, or in
# what order, moves these digests
FOUR_CLUSTER_DIGESTS = {
    ("rate", "rr"): "4f98f565e81a8024ab11dbe33aa86309a3f3a20277234c79e705a7e3431b1030",
    ("rate", "has"): "0ccec4f26663793abc4f88003ff63c210377a7848b7a118f3b54bd4db6730803",
    ("batch", "rr"): "5e3fed0f9efdc0b0fcf23f6a25b7e1df751ec822a738cdc91d83eba192f52979",
    ("batch", "has"): "19386d2cbb4fe6b2f4b32d1c893356fbd65d49416ce4131165c90124c6ad4690",
}


@pytest.mark.parametrize("arrivals,scheduler", sorted(FOUR_CLUSTER_DIGESTS))
def test_four_cluster_trace_digests_pinned(arrivals, scheduler):
    with open(DESK_HW) as f:
        doc = json.load(f)
    doc["clusters"] = doc["clusters"] * 4
    hw = load_hw_config(doc)
    workload = (generate(0.5, 16, 1, arrival_model="rate", arrival_interval=3_000_000)
                if arrivals == "rate" else generate(0.5, 24, 1))
    trace, _ = run(workload, hw, scheduler=scheduler)
    assert verify_trace(trace, hw) == []
    assert {r.cluster for r in trace.requests} == {0, 1, 2, 3}
    assert trace_digest(trace) == FOUR_CLUSTER_DIGESTS[(arrivals, scheduler)]


# two 45 MB corners of the sweep space on its 50% workload, where most
# placements flush or spill residents to make room: a change to the
# eviction order moves these digests
SWEEP_CORNER_DIGESTS = {
    ("a4x64_v8x16_sm45_c1", "rr"):
        "0460e4680b734f6ea0e0770aed04a8a0443851705212faf79999537f87a8a336",
    ("a4x64_v8x16_sm45_c1", "has"):
        "50cf9ea794d977d389f5f259b826a9c2584fa89ccd6de752b07473eb25cc19af",
    ("a8x16_v8x64_sm45_c1", "rr"):
        "e0cf0d20e2cafbb0322e204d19eca64d28e6448ac0bbb39ebe3c539f97c29bbf",
    ("a8x16_v8x64_sm45_c1", "has"):
        "503eacfd7c1b4ee4e9ce9a4b40703e7f917ddc02039f0c48a218a6ae7de7bc00",
}


@pytest.mark.parametrize("label,scheduler", sorted(SWEEP_CORNER_DIGESTS))
def test_sweep_corner_trace_digests_pinned(label, scheduler):
    spec = load_sweep_spec({"arrays": [[8, 16], [4, 64]], "vectors": [[8, 16], [8, 64]],
                            "shared_mem_mb": [45]})
    cfg = next(c for c in sweep_configs(spec) if c["label"] == label)
    hw = load_hw_config(cfg["hw"])
    workload = next(w for w in standard_suite(8, seeds=(1,)) if w.cnn_ratio == 0.5)
    trace, _ = run(workload, hw, scheduler=scheduler)
    assert verify_trace(trace, hw) == []
    assert sum(1 for t in trace.transfers if t.kind == "write_act") > 10  # spills happen
    assert trace_digest(trace) == SWEEP_CORNER_DIGESTS[(label, scheduler)]


@pytest.mark.parametrize("scheduler", ["rr", "has"])
def test_request_arriving_before_cycle_zero_completes(scheduler):
    # the policy names cycle 0 as its earliest placement; only an event the
    # engine queues at that cycle lets the run go on
    hw = load_hw_config(DESK_HW)
    workload = Workload(name="early", seed=0, cnn_ratio=1.0, request_count=1,
                        requests=(Request(0, "alexnet", -5),),
                        model_params={"depth_reduction": 8})
    trace, _ = run(workload, hw, scheduler=scheduler)
    assert verify_trace(trace, hw) == []
    assert trace.requests[0].completed > 0


@pytest.mark.parametrize("queues", [(8, 2), (2, 8)])
@pytest.mark.parametrize("scheduler", ["rr", "has"])
def test_clusters_with_different_queue_counts(queues, scheduler):
    # a batch of 12 fills each cluster up to its own queue count at cycle 0
    with open(DESK_HW) as f:
        doc = json.load(f)
    doc["clusters"] = [dict(doc["clusters"][0], num_task_queues=n) for n in queues]
    hw = load_hw_config(doc)
    trace, _ = run(generate(0.5, 12, 1), hw, scheduler=scheduler)
    assert verify_trace(trace, hw) == []
    at_start = [sum(1 for r in trace.requests if r.cluster == ci and r.dispatched == 0)
                for ci in range(len(queues))]
    assert at_start == list(queues)


def test_run_that_never_places_raises_stalled(monkeypatch):
    def never(table, now):
        raise NoReadyTask("never places", math.inf)

    monkeypatch.setitem(SCHEDULERS, "has", never)
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    with pytest.raises(StalledRun, match="2 requests never completed"):
        run(single_model_workload(n=2), hw, graphs={"tiny": tiny_gemm_graph()})


def test_builtin_name_case_keeps_its_size_parameter():
    # a transformer named in capitals still runs at seq_len, not image_size
    hw = load_hw_config(DESK_HW)
    reports = [run(Workload(name, 0, 0.0, 1, (Request(0, name, 0),),
                            model_params={"depth_reduction": 12}), hw)[1]
               for name in ("BERT_BASE", "bert_base")]
    assert reports[0] == reports[1]


def test_a_missing_model_param_takes_its_default(tmp_path):
    # naming one parameter leaves the others at DEFAULT_MODEL_PARAMS, as naming
    # none does: depth_reduction 4 places 121 tasks, where 1 would place 237
    hw = load_hw_config(DESK_HW)
    doc = dataclasses.asdict(generate(1.0, 4, 1))
    del doc["model_params"]
    traces = []
    for params in ({}, {"model_params": {"batch": 1}}):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({**doc, **params}))
        traces.append(run(load_manifest(str(path)), hw)[0])
    assert len(traces[0].executions) == 121
    assert trace_digest(traces[1]) == trace_digest(traces[0])


def test_builtin_name_case_shares_one_graph_and_its_weights(monkeypatch):
    # "BERT_BASE" is "bert_base": one graph build and one copy of its weights
    hw = load_hw_config(DESK_HW)
    built = []
    monkeypatch.setattr(simulation, "builtin_model",
                        lambda *a, **kw: built.append(a) or builtin_model(*a, **kw))

    def pair(*names):
        simulation._cached_builtin.cache_clear()
        built.clear()
        w = Workload("pair", 0, 0.0, 2, tuple(Request(i, n, 0) for i, n in enumerate(names)),
                     model_params={"depth_reduction": 12})
        trace, _ = run(w, hw)
        assert len(built) == 1
        assert [r.model for r in trace.requests] == list(names)  # as written
        return sum(t.bytes for t in trace.transfers if t.kind == "fetch_param")

    assert pair("bert_base", "BERT_BASE") == pair("bert_base", "bert_base") == 14_175_744


def test_distinct_graphs_of_one_name_are_refused():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    w = Workload("two", 0, 0.0, 2, (Request(0, "a", 0), Request(1, "b", 0)), model_params={})
    with pytest.raises(ValueError, match="share a name"):
        run(w, hw, graphs={"a": tiny_gemm_graph(), "b": tiny_gemm_graph(64, 32, 48)})


def _perfbench_module(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_probes_read_a_run(tmp_path, monkeypatch):
    # the benchmark patches svsim's names and reads its trace; a refactor
    # that breaks either fails here, not only in a traced benchmark run
    probes, cases = (_perfbench_module(n, monkeypatch) for n in ("probes", "cases"))
    m = cases.Modules()
    hw = load_hw_config(DESK_HW)
    tracer = probes.Tracer(m)
    probe = probes.RunProbe(m.simulation, str(tmp_path), sample_speed=False)
    with tracer.installed(), probe.installed():
        trace, _ = m.simulation.run(generate(0.5, 6, 1), hw, scheduler="has")
    placed = tracer.counters["scheduling.policy.placements"]
    assert placed > 0 and tracer.stats["simulation.run"][0] == 1
    assert cases.sim_counts(trace)["sim.placements"] == len(trace.executions) == placed
    actions = [a for p in trace.executions for a in p.actions]
    assert cases.sim_counts(trace) == {
        "sim.placements": placed,
        "sim.fetch_param_bytes": sum(a.bytes for a in actions if a.kind == "fetch_param"),
        "sim.spill_bytes": sum(a.bytes for a in actions if a.kind == "write_act"),
        "sim.flushes": sum(1 for a in actions if a.kind == "flush")}
    sims, calls = probe.take()
    assert [(s.tasks, s.done) for s in sims] == [(placed, True)]
    assert calls[0][1] is trace


def test_unknown_scheduler_rejected():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    with pytest.raises(ValueError):
        run(single_model_workload(), hw, scheduler="fifo",
            graphs={"tiny": tiny_gemm_graph()})


# --- random hardware x workload --------------------------------------------------

SIZES = st.sampled_from([16, 32, 64])
clusters = st.fixed_dictionaries({
    "arrays": st.lists(st.builds(lambda d: {"dim": d}, SIZES), min_size=1, max_size=2),
    "vectors": st.lists(st.builds(lambda n: {"lanes": n}, SIZES), min_size=1, max_size=4),
    "shared_mem_mb": st.sampled_from([2, 8, 16, 45]),
    "num_task_queues": st.integers(1, 4),
})
hw_docs = st.fixed_dictionaries({
    "clock_mhz": st.just(800),
    "hbm_gbps": st.sampled_from([8, 64, 256]),
    "hbm_latency_cycles": st.integers(0, 200),
    "clusters": st.lists(clusters, min_size=1, max_size=3),
})


@st.composite
def workloads(draw):
    params = {"depth_reduction": 8, "image_size": draw(st.sampled_from([32, 64, 224])),
              "seq_len": draw(st.sampled_from([16, 64, 128]))}
    interval = draw(st.sampled_from([None, 0, 1_000, 300_000, 3_000_000]))
    return generate(draw(st.sampled_from(RATIO_GRID)), draw(st.integers(1, 5)),
                    draw(st.integers(0, 100)), model_params=params,
                    arrival_model="batch" if interval is None else "rate",
                    arrival_interval=interval or 0)


@settings(max_examples=60, deadline=None)
@given(hw_docs, workloads(), st.sampled_from(["rr", "has"]))
def test_random_runs_complete_clean_or_raise_a_typed_error(doc, workload, scheduler):
    # a run either completes every request with a clean replay or ends in an
    # error naming why; it never stalls and never escapes as anything else
    hw = load_hw_config(doc)
    try:
        trace, _ = run(workload, hw, scheduler=scheduler)
    except (UnpartitionableLayer, CapacityDeadlock, ModelError):
        return
    assert all(r.completed >= 0 for r in trace.requests)
    assert verify_trace(trace, hw) == []


@settings(max_examples=30, deadline=None)
@given(hw_docs, workloads(), st.sampled_from(["rr", "has"]))
def test_random_runs_repeat_with_the_task_cache_warm_and_cleared(doc, workload, scheduler):
    hw = load_hw_config(doc)

    def outcome():
        try:
            return trace_digest(run(workload, hw, scheduler=scheduler)[0])
        except (UnpartitionableLayer, CapacityDeadlock, ModelError) as e:
            return type(e), str(e)

    warm = [outcome(), outcome()]
    _TEMPLATES.clear()
    assert warm == [outcome()] * 2


@pytest.mark.parametrize("scheduler", ["rr", "has"])
@settings(max_examples=30, deadline=None)
@given(doc=hw_docs, workload=workloads())
def test_each_kinds_earliest_free_processor_never_goes_stale(scheduler, doc, workload):
    # only commit moves a processor's busy_until, so after every commit the
    # table's entry per kind is what a scan of that kind's processors finds
    commits = []
    real = ClusterTable.commit

    def commit(table, placement):
        real(table, placement)
        for kind in ("array", "vector"):
            assert table.free[kind] is min(table.of_kind[kind], key=attrgetter("busy_until"))
        commits.append(placement)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ClusterTable, "commit", commit)
        try:
            trace, _ = run(workload, load_hw_config(doc), scheduler=scheduler)
        except (UnpartitionableLayer, CapacityDeadlock, ModelError):
            return
    assert len(commits) == len(trace.executions)


def _assert_eviction_order_kept(table):
    # one live tuple per resident activation and per resident parameter no
    # queued task wants, at its entry's latest user end, and none for
    # anything else
    live = [(avail, key, e) for avail, key, seq, e in table.evictable if e.seq == seq]
    assert all(table.residency.get(key) is e for _, key, e in live)
    pairs = [(avail, key) for avail, key, _ in live]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {(e.avail, e.key) for e in table.residency.values()
                          if e.kind == "act" or e.key not in table.pending_uses}


@pytest.mark.parametrize("scheduler", ["rr", "has"])
@settings(max_examples=30, deadline=None)
@given(doc=hw_docs, workload=workloads())
def test_the_eviction_order_is_kept_through_commits_and_admissions(scheduler, doc, workload):
    calls = []
    real_commit, real_enqueue = ClusterTable.commit, ClusterTable.enqueue_request

    def commit(table, placement):
        real_commit(table, placement)
        _assert_eviction_order_kept(table)
        calls.append("commit")

    def enqueue_request(table, request_id, tasks):
        q = real_enqueue(table, request_id, tasks)
        _assert_eviction_order_kept(table)
        calls.append("enqueue")
        return q

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ClusterTable, "commit", commit)
        mp.setattr(ClusterTable, "enqueue_request", enqueue_request)
        try:
            trace, _ = run(workload, load_hw_config(doc), scheduler=scheduler)
        except (UnpartitionableLayer, CapacityDeadlock, ModelError):
            return
    assert calls.count("commit") == len(trace.executions)
    assert calls.count("enqueue") == len(trace.requests)


def _run_checking_the_order_is_sorted_and_left_alone_by_plans(workload, hw, scheduler):
    """Run with the eviction order checked sorted after every commit and
    admission, and unchanged (the same list, equal contents) by every
    ``plan_memory`` call; returns how many plans were of a task not
    committed next on its table (heads that lost the has ranking), or None
    if the run ends in a typed error."""
    real_plan, real_commit = ClusterTable.plan_memory, ClusterTable.commit
    real_enqueue = ClusterTable.enqueue_request
    planned = {}  # table -> ids of the tasks planned since its last commit
    lost = 0

    def assert_sorted(table):
        assert table.evictable == sorted(table.evictable, key=itemgetter(0, 1, 2))

    def plan_memory(table, task, now):
        order = table.evictable
        before = order.copy()
        try:
            return real_plan(table, task, now)
        finally:
            assert table.evictable is order and order == before
            planned.setdefault(table, []).append(task.task_id)

    def commit(table, placement):
        nonlocal lost
        real_commit(table, placement)
        assert_sorted(table)
        ids = planned.pop(table, [])
        lost += len(ids) - ids.count(placement.task.task_id)

    def enqueue_request(table, request_id, tasks):
        q = real_enqueue(table, request_id, tasks)
        assert_sorted(table)
        return q

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ClusterTable, "plan_memory", plan_memory)
        mp.setattr(ClusterTable, "commit", commit)
        mp.setattr(ClusterTable, "enqueue_request", enqueue_request)
        try:
            run(workload, hw, scheduler=scheduler)
        except (UnpartitionableLayer, CapacityDeadlock, ModelError):
            return None
    return lost


@pytest.mark.parametrize("scheduler", ["rr", "has"])
@settings(max_examples=30, deadline=None)
@given(doc=hw_docs, workload=workloads())
def test_the_eviction_order_stays_sorted_and_planning_leaves_it_alone(scheduler, doc, workload):
    _run_checking_the_order_is_sorted_and_left_alone_by_plans(
        workload, load_hw_config(doc), scheduler)


def test_plans_of_heads_that_lose_the_has_ranking_leave_the_order_alone():
    hw = load_hw_config(DESK_HW)
    lost = _run_checking_the_order_is_sorted_and_left_alone_by_plans(
        generate(0.5, 16, 1), hw, "has")
    assert lost > 0


def _digest_or_error(workload, hw, scheduler):
    try:
        return trace_digest(run(workload, hw, scheduler=scheduler)[0])
    except (UnpartitionableLayer, CapacityDeadlock, ModelError) as e:
        return repr(e)


@pytest.mark.parametrize("scheduler", ["rr", "has"])
@settings(max_examples=30, deadline=None)
@given(doc=hw_docs, workload=workloads())
def test_policies_place_as_the_reference_policies_on_random_runs(scheduler, doc, workload):
    # the reference policies of tests/support.py scan every processor per call
    hw = load_hw_config(doc)
    shipped = _digest_or_error(workload, hw, scheduler)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(SCHEDULERS, scheduler, REFERENCE_SCHEDULERS[scheduler])
        assert _digest_or_error(workload, hw, scheduler) == shipped


@settings(max_examples=30, deadline=None)
@given(doc=hw_docs, workload=workloads())
def test_the_wake_has_sets_is_the_one_a_second_call_would_raise(doc, workload):
    # a has placement that leaves now < table.wake stands for the dry call the
    # engine no longer makes: that call would raise with not_before == wake.
    # One that leaves the wake cycle at -inf is followed by a placement at the
    # same now.  Until an admission clears the wake cycle, no call comes before
    # it, so no dry call follows a placement at its now; the check below stops
    # at the table's next admission.  A release leaves the wake cycle as it
    # was, so the check runs on through releases.
    has = SCHEDULERS["has"]
    log = []  # (table, now, wake after the placement, or None: dry), or (table,): an admission

    def policy(table, now):
        try:
            p = has(table, now)
        except NoReadyTask:
            log.append((table, now, None))
            raise
        log.append((table, now, table.wake))
        if now < table.wake:
            with pytest.raises(NoReadyTask) as dry:
                has(table, now)
            assert dry.value.not_before == table.wake
        return p

    def changed(real):
        def change(table, *args):
            log.append((table,))
            return real(table, *args)
        return change

    failed = False
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(SCHEDULERS, "has", policy)
        mp.setattr(ClusterTable, "enqueue_request", changed(ClusterTable.enqueue_request))
        try:
            run(workload, load_hw_config(doc), scheduler="has")
        except (UnpartitionableLayer, CapacityDeadlock, ModelError):
            failed = True
    for i, (table, *entry) in enumerate(log):
        if not entry or entry[1] is None:
            continue
        now, wake = entry
        after = next((e for e in log[i + 1:] if e[0] is table), None)
        if after is None:
            # the last placement on its table; the engine calls again at once
            # unless it left the wake cycle set
            assert now < wake or failed
        elif wake == -math.inf:  # the drain's next call, which places
            assert len(after) == 3 and after[1] == now and after[2] is not None
        elif len(after) > 1:
            assert after[1] >= wake


# --- output text against the encoder ---------------------------------------------

def _assert_outputs_match_the_encoder(trace):
    # export_trace and write_decisions write the bytes the dict writers of
    # tests/support.py write through the JSON encoder
    with tempfile.TemporaryDirectory() as d:
        trace_path, decisions_path = os.path.join(d, "t.json"), os.path.join(d, "d.jsonl")
        export_trace(trace, trace_path)
        write_decisions(trace, decisions_path)
        with open(trace_path, "rb") as f:
            assert f.read() == reference_trace_json(trace)
        with open(decisions_path, "rb") as f:
            assert f.read() == reference_decisions(trace)


def _renamed_alexnet(name):
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "alexnet.json")) as f:
        return dataclasses.replace(ingest_graph(f.read()), name=name)


ODD_NAME = 'al"ex\\é☃'


@pytest.mark.parametrize("case,scheduler", [("desk", "rr"), ("desk", "has"),
                                            ("desk4_rate", "has"), ("empty", "has")])
def test_output_text_matches_the_encoder(tmp_path, case, scheduler):
    with open(DESK_HW) as f:
        doc = json.load(f)
    if case == "desk":  # the desk suite's ratio050 workload
        w = standard_suite(16, seeds=(1,))[5]
    elif case == "desk4_rate":  # the four-cluster stream of test_cli's OUTPUT_PINS
        doc["clusters"] *= 4
        w = generate(0.5, 16, 1, arrival_model="rate", arrival_interval=3_000_000)
    else:
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"requests": []}))
        w = load_manifest(str(path))
    trace, _ = run(w, load_hw_config(doc), scheduler=scheduler)
    _assert_outputs_match_the_encoder(trace)
    assert trace_digest(trace) == reference_digest(trace)
    if case == "empty":
        assert reference_trace_json(trace).endswith(b'"traceEvents":[]}')
        assert reference_decisions(trace) == b""
    else:
        assert len(trace.executions) + len(trace.transfers) > 1024  # several chunks


@pytest.mark.parametrize("clock_mhz", [800, 933, 1000])
@pytest.mark.parametrize("scheduler", ["rr", "has"])
def test_output_text_escapes_names_as_the_encoder(clock_mhz, scheduler):
    # the graph's name reaches the trace through every parameter key
    graph = _renamed_alexnet(ODD_NAME)
    w = Workload(name=ODD_NAME, seed=0, cnn_ratio=1.0, request_count=2,
                 requests=(Request(0, ODD_NAME, 0), Request(1, ODD_NAME, 0)),
                 model_params={})
    with open(DESK_HW) as f:
        doc = json.load(f)
    trace, _ = run(w, load_hw_config({**doc, "clock_mhz": clock_mhz}),
                   scheduler=scheduler, graphs={ODD_NAME: graph})
    assert any(repr(ODD_NAME) in str(a.key) for a in trace.transfers)
    _assert_outputs_match_the_encoder(trace)
    # and into the document trace_digest hashes, through each request's model
    # and the parameter keys of its transfer and residency rows
    assert trace_digest(trace) == reference_digest(trace)


@settings(max_examples=30, deadline=None)
@given(hw_docs, workloads(), st.sampled_from(["rr", "has"]),
       st.integers(1, 3000) | st.floats(1, 3000))
def test_output_text_matches_the_encoder_on_random_runs(doc, workload, scheduler, clock_mhz):
    # a clock that is not round makes every ts and dur a float with a long repr
    hw = load_hw_config({**doc, "clock_mhz": clock_mhz})
    try:
        trace, _ = run(workload, hw, scheduler=scheduler)
    except (UnpartitionableLayer, CapacityDeadlock, ModelError):
        return
    _assert_outputs_match_the_encoder(trace)


@settings(max_examples=30, deadline=None)
@given(hw_docs, workloads(), st.sampled_from(["rr", "has"]))
def test_trace_digest_streams_the_reference_document_on_random_runs(doc, workload, scheduler):
    try:
        trace, _ = run(workload, load_hw_config(doc), scheduler=scheduler)
    except (UnpartitionableLayer, CapacityDeadlock, ModelError):
        return
    assert trace_digest(trace) == reference_digest(trace)


def _tamper(draw, trace, hw, tamper):
    """Apply ``tamper`` in place to one drawn placement or request of ``trace``."""
    ex = trace.executions
    i = draw(st.integers(0, len(ex) - 1))
    p = ex[i]
    if tamper == "shift":  # its duration kept
        k = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        ex[i] = dataclasses.replace(p, t_start=p.t_start + k, t_end=p.t_end + k)
    elif tamper == "action":  # at a cycle the cluster's residency changes at
        changes = [r for r in trace.residency if r.cluster == p.cluster]
        start = draw(st.sampled_from([r.time for r in changes] or [p.t_start]))
        # sizes that fill the scratchpad up to, or just past, its capacity at that cycle
        room = hw.clusters[p.cluster].shared_mem_bytes - sum(
            r.delta for r in changes if r.time < start)
        extra = MemAction(draw(st.sampled_from(["fetch_param", "read_act", "write_act", "flush"])),
                          start, start + draw(st.sampled_from([0, 1, 64])),
                          draw(st.sampled_from([0, 1, room // 2, room, room + 1])), ("w", "extra"))
        ex[i] = dataclasses.replace(p, actions=p.actions + (extra,))
    elif tamper == "dependency":
        dep = draw(st.sampled_from([q.task.task_id for q in ex] + ["r99/L0/s0"]))
        ex[i] = dataclasses.replace(p, task=dataclasses.replace(p.task, deps=p.task.deps + (dep,)))
    elif tamper == "completed":
        draw(st.sampled_from(trace.requests)).completed += draw(st.sampled_from([-1, 1]))


@pytest.mark.parametrize("tamper", ["shift", "action", "dependency", "completed", "clean"])
@settings(max_examples=60, deadline=None)
@given(doc=hw_docs, workload=workloads(), scheduler=st.sampled_from(["rr", "has"]),
       data=st.data())
def test_verify_trace_returns_the_reference_list_on_tampered_random_runs(tamper, doc, workload,
                                                                         scheduler, data):
    hw = load_hw_config(doc)
    try:
        trace, _ = run(workload, hw, scheduler=scheduler)
    except (UnpartitionableLayer, CapacityDeadlock, ModelError):
        return
    _tamper(data.draw, trace, hw, tamper)
    assert verify_trace(trace, hw) == reference_verify_trace(trace, hw)


def test_trace_digest_holds_a_chunk_of_rows_not_the_document():
    # the desk suite's ratio050 workload under has (867 placements)
    trace, _ = run(standard_suite(16, seeds=(1,))[5], load_hw_config(DESK_HW), scheduler="has")
    peaks = {}
    for digest in (trace_digest, reference_digest):
        tracemalloc.start()
        try:
            digest(trace)
            peaks[digest] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[trace_digest] < peaks[reference_digest] / 4
