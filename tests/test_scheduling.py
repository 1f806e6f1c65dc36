import dataclasses
import gc
import random
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svsim.costs import mem_transfer_cycles
from svsim.hardware import MB, ClusterConfig
from svsim.models import builtin_model, ingest_graph
from svsim.scheduling import (_TEMPLATES, CapacityDeadlock, ClusterTable, MemAction,
                              NoReadyTask, ResidencyEntry, UnpartitionableLayer,
                              build_request_tasks, has_schedule, load_balance,
                              partition_layer, rr_schedule)
from svsim.umf import OpType

from support import (SMALL_HW, exhaustive_min_makespan, fresh_table,
                     gemm_cost, make_cluster, make_hw, make_task, run_policy,
                     synth_chain_instance, vector_cost)


def fc_layer(in_features, out_features, precision="int8"):
    g = ingest_graph({
        "name": "fc", "class": "cnn", "precision": precision,
        "inputs": [{"name": "x", "shape": [in_features]}],
        "layers": [{"name": "fc", "op": "GEMM", "inputs": ["x"],
                    "out_features": out_features, "bias": False}],
    })
    return g.layers[0]


# --- partitioning -------------------------------------------------------------

def test_small_layer_is_single_subtask():
    cluster = make_cluster(1, 16, 1, 16, 45)
    layer = fc_layer(512, 2048)  # 1 MiB of parameters
    assert len(partition_layer(layer, cluster)) == 1


def test_large_fc_sliced_along_output_columns():
    cluster = make_cluster(1, 16, 1, 16, 45)
    layer = fc_layer(10240, 10240)  # 100 MiB of int8 parameters
    slices = [s.cost for s in partition_layer(layer, cluster)]
    assert len(slices) >= 5
    cap = 0.5 * 45 * MB
    for s in slices:
        assert s.param_bytes <= cap
        assert s.param_bytes + s.act_in_bytes + s.act_out_bytes <= cap
    # conservation: slices reassemble the layer exactly
    assert sum(s.macs for s in slices) == 10240 * 10240
    assert sum(s.param_bytes for s in slices) == 10240 * 10240
    assert sum(s.act_out_bytes for s in slices) == 10240


def test_unpartitionable_layer_raises():
    cluster = make_cluster(1, 16, 1, 16, 1)  # 1 MiB shared memory
    layer = fc_layer(2 * MB, 4)  # a single output column exceeds the budget
    with pytest.raises(UnpartitionableLayer):
        partition_layer(layer, cluster)


def test_vector_layer_sliced_by_elements():
    cluster = make_cluster(1, 16, 1, 16, 1)
    g = ingest_graph({
        "name": "big-act", "class": "transformer", "precision": "fp16",
        "inputs": [{"name": "x", "shape": [1024, 1024]}],
        "layers": [{"name": "a", "op": "Activation", "inputs": ["x"]}],
    })
    slices = [s.cost for s in partition_layer(g.layers[0], cluster)]
    assert len(slices) > 1
    assert sum(s.vector_ops for s in slices) == 1024 * 1024


def test_partition_memo_only_rekeys_requests():
    cluster = make_cluster(1, 16, 1, 16, 45)
    g = builtin_model("alexnet", depth_reduction=4)
    for rid in (0, 1):
        # a copy is another graph to the template cache: partitioned afresh
        fresh = build_request_tasks(dataclasses.replace(g), rid, cluster)
        templated = build_request_tasks(g, rid, cluster)
        assert templated == fresh
        assert not any(a.cost is b.cost for a, b in zip(templated, fresh))
    t0 = build_request_tasks(g, 0, cluster)
    t1 = build_request_tasks(g, 1, cluster)
    # two requests of one model share its slice costs and cycle counts
    assert all(a.cost is b.cost and a._cycles is b._cycles for a, b in zip(t0, t1))


def test_templates_are_dropped_with_their_graph():
    cluster = make_cluster(1, 16, 1, 16, 45)
    g = builtin_model("alexnet", depth_reduction=8)
    tasks = build_request_tasks(g, 0, cluster)
    gc.collect()  # so only this graph's entry can go below
    entries = len(_TEMPLATES)
    graph = weakref.ref(g)
    del g
    gc.collect()
    # the tasks outlive their graph; the template does not hold it
    assert tasks and graph() is None and len(_TEMPLATES) == entries - 1


def test_request_tasks_share_weight_keys_across_requests():
    cluster = make_cluster(1, 16, 1, 16, 45)
    g = builtin_model("alexnet", depth_reduction=4)
    t0 = build_request_tasks(g, 0, cluster)
    t1 = build_request_tasks(g, 1, cluster)
    assert [t.param_keys for t in t0] == [t.param_keys for t in t1]
    assert all(k[0][0][0] == "w" for k in (t.param_keys for t in t0) if k)
    # activations are private per request
    a0 = {t.act_out_key[0] for t in t0 if t.act_out_key}
    a1 = {t.act_out_key[0] for t in t1 if t.act_out_key}
    assert not a0 & a1


# --- external memory access scheduling -----------------------------------------

def memory_table(sm_mb=45):
    hw = make_hw(1, make_cluster(1, 16, 1, 16, sm_mb))
    return ClusterTable(hw.clusters[0], hw), hw


def test_plan_resident_parameters_are_free():
    table, hw = memory_table()
    a = make_task("a", 0, gemm_cost(1, 1024, 1024, param_bytes=MB),
                  param_keys=((("w", "m", 1, 0), MB),))
    b = make_task("b", 0, gemm_cost(1, 1024, 1024, param_bytes=MB),
                  param_keys=((("w", "m", 1, 0), MB),))
    table2 = fresh_table(hw, [[a, b]])
    p1 = has_schedule(table2, 0)
    assert sum(a.bytes for a in p1.actions if a.kind == "fetch_param") == MB
    p2 = has_schedule(table2, 0)
    # second request hits residency
    assert sum(a.bytes for a in p2.actions if a.kind == "fetch_param") == 0
    assert p2.actions == ()
    assert p2.t_mem == p1.actions[0].end


def test_plan_empty_memory_single_fetch_arithmetic():
    table, hw = memory_table()
    t = make_task("t", 0, gemm_cost(1, 512, 512, param_bytes=4 * MB, act_in=4096),
                  param_keys=((("w", "m", 1, 0), 4 * MB),),
                  act_in_keys=((("a", "r0", -1, 0), 4096),))
    table2 = fresh_table(hw, [[t]])
    p = has_schedule(table2, 0)
    expected = mem_transfer_cycles(4 * MB, hw) + mem_transfer_cycles(4096, hw)
    assert p.t_mem == expected
    kinds = [a.kind for a in p.actions]
    assert kinds == ["fetch_param", "read_act"]


def test_plan_waits_for_flushable_holder():
    # 45 MiB shared memory, 30 MiB held by a running task until cycle 10^6;
    # a 40 MiB fetch must take 15 MiB now, wait, flush, then fetch the rest
    table, hw = memory_table(45)
    blocker = make_task("old", 0, gemm_cost(1, 64, 64, param_bytes=30 * MB),
                        param_keys=((("w", "m", 9, 0), 30 * MB),))
    table2 = fresh_table(hw, [[blocker]])
    p_old = has_schedule(table2, 0)
    # force the holder to end at 10^6 for the scenario
    e = table2.residency[("w", "m", 9, 0)]
    e.avail = 10**6
    incoming = make_task("new", 0, gemm_cost(1, 64, 64, param_bytes=40 * MB),
                         param_keys=((("w", "n", 1, 0), 40 * MB),))
    table2.queues[0].append(incoming)
    table2.pending_uses[("w", "n", 1, 0)] = 1
    _, actions = table2.plan_memory(incoming, now=p_old.t_end)
    fetches = [a for a in actions if a.kind == "fetch_param"]
    flushes = [a for a in actions if a.kind == "flush"]
    assert [f.bytes for f in fetches] == [15 * MB, 25 * MB]
    assert len(flushes) == 1 and flushes[0].bytes == 30 * MB
    assert flushes[0].start == 10**6
    assert fetches[1].start == 10**6


def test_capacity_deadlock_when_nothing_flushable():
    table, hw = memory_table(1)
    t = make_task("t", 0, gemm_cost(1, 64, 64, param_bytes=2 * MB),
                  param_keys=((("w", "m", 1, 0), 2 * MB),))
    table2 = fresh_table(hw, [[t]])
    with pytest.raises(CapacityDeadlock,
                       match=r"^task t: cannot free 2097152 B of shared memory "
                             r"\(short 1048576 B\)$"):
        has_schedule(table2, 0)


def sorted_walk_plan(table, task, now):
    """``plan_memory`` as a sorted walk: every unprotected resident sorted by
    (latest user end, key), with the parameters queued tasks still want
    moved after all the rest.  Leaves the table as it was."""
    res = table.residency
    protected = {k for k, _ in task.param_keys} | {k for k, _ in task.act_in_keys}
    missing_params = [[k, b] for k, b in task.param_keys if k not in res]
    param_ready = max((res[k].ready for k, _ in task.param_keys if k in res), default=0)
    missing_acts = [(k, b) for k, b in task.act_in_keys if k not in res]
    fetch_total = sum(b for _, b in missing_params)
    a_size = sum(b for _, b in missing_acts)
    out_bytes = task.act_out_key[1] if task.act_out_key else 0
    releases = [r for r in table.pending_releases if r[0] > now]
    free = table.cluster.shared_mem_bytes - table.used_bytes
    need = fetch_total + a_size + out_bytes
    if fetch_total == 0 and a_size == 0:
        still_held = sum(b for _, b in releases)
        ready = param_ready
        if need <= free - still_held:
            return ready, ()
        for t_rel, b in releases:
            still_held -= b
            ready = max(ready, t_rel)
            if need <= free - still_held:
                return ready, ()
    actions = []
    t = max(table.channel_free, now)
    remaining = fetch_total
    goal_extra = a_size + out_bytes

    def fetch(t, free):
        nonlocal remaining
        amt = min(free, remaining)
        if amt <= 0:
            return t, free
        dt = mem_transfer_cycles(amt, table.hw)
        left = amt
        while left:
            k, b = missing_params[0]
            take = min(b, left)
            actions.append(MemAction("fetch_param", t, t + dt, take, k))
            left -= take
            if take == b:
                missing_params.pop(0)
            else:
                missing_params[0][1] = b - take
        remaining -= amt
        return t + dt, free - amt

    t, free = fetch(t, free)
    if remaining > 0 or free < goal_extra:
        order = sorted((e for e in res.values() if e.key not in protected),
                       key=lambda e: (e.avail, e.key))
        wanted = [e for e in order if e.kind == "param" and e.key in table.pending_uses]
        for e in [e for e in order if e not in wanted] + wanted:
            t = max(t, e.avail)
            if e.kind == "act" and e.key in table.pending_uses:
                dt = mem_transfer_cycles(e.bytes, table.hw)
                actions.append(MemAction("write_act", t, t + dt, e.bytes, e.key))
                t += dt
            else:
                actions.append(MemAction("flush", t, t, e.bytes, e.key))
            free += e.bytes
            if remaining:
                t, free = fetch(t, free)
            if remaining == 0 and free >= goal_extra:
                break
        else:
            raise CapacityDeadlock(
                f"task {task.task_id}: cannot free {need} B of shared "
                f"memory (short {remaining + max(goal_extra - free, 0)} B)")
    if a_size:
        dt = mem_transfer_cycles(a_size, table.hw)
        actions.extend(MemAction("read_act", t, t + dt, b, k) for k, b in missing_acts)
        t += dt
    return max(t, param_ready), tuple(actions)


@st.composite
def residency_scenarios(draw):
    """A table whose residents tie on their latest user end, some of them
    still wanted, and a task with resident (protected) and missing operands;
    the capacity ranges from ample to too small for the task."""
    n = draw(st.integers(0, 10))
    entries = []
    for i in range(n):
        kind = draw(st.sampled_from(["param", "act"]))
        key = ("w", draw(st.sampled_from(["m", "n"])), i, 0) if kind == "param" \
            else ("a", "r1", i, 0)
        entries.append((ResidencyEntry(key, draw(st.integers(1, 300)), kind,
                                       draw(st.integers(0, 100)),
                                       draw(st.sampled_from([0, 40, 80]))),
                        draw(st.booleans())))
    used = sum(e.bytes for e, _ in entries)
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 1), hbm_latency_cycles=draw(st.integers(0, 20)))
    cluster = ClusterConfig((16,), (16,), max(1, used + draw(st.integers(-used, 600))), 1)
    table = ClusterTable(cluster, hw)
    for e, wanted in entries:
        table.residency[e.key] = e
        if wanted:
            table.pending_uses[e.key] = 1
    table.used_bytes = used
    table.channel_free = draw(st.integers(0, 120))
    table.pending_releases = sorted(draw(st.lists(
        st.tuples(st.integers(0, 150), st.integers(1, 200)), max_size=3)))
    resident = [e for e, _ in entries]
    mine = draw(st.lists(st.sampled_from(resident), unique_by=lambda e: e.key)) if resident else []
    param_keys = [(e.key, e.bytes) for e in mine if e.kind == "param"]
    act_in_keys = [(e.key, e.bytes) for e in mine if e.kind == "act"]
    param_keys += [(("w", "x", j, 0), draw(st.integers(1, 400)))
                   for j in range(draw(st.integers(0, 3)))]
    act_in_keys += [(("a", "r2", -1, j), draw(st.integers(1, 200)))
                    for j in range(draw(st.integers(0, 2)))]
    out = draw(st.one_of(st.none(), st.integers(1, 300)))
    task = make_task("t", 0, gemm_cost(1, 16, 16), param_keys=param_keys,
                     act_in_keys=act_in_keys,
                     act_out=None if out is None else (("a", "r2", 0, 0), out))
    return table, task, draw(st.integers(0, 150))


@settings(max_examples=400, deadline=None)
@given(residency_scenarios())
def test_plan_memory_matches_a_sorted_eviction_walk(scenario):
    table, task, now = scenario
    try:
        expected = sorted_walk_plan(table, task, now)
    except CapacityDeadlock as e:
        with pytest.raises(CapacityDeadlock, match=f"^{re.escape(str(e))}$"):
            table.plan_memory(task, now)
    else:
        assert table.plan_memory(task, now) == expected


# --- round-robin ----------------------------------------------------------------

def two_array_hw():
    return make_hw(1, make_cluster(2, 16, 1, 16, 1 << 30))


def test_rr_serves_queues_in_circular_order():
    hw = two_array_hw()
    a = make_task("a", 0, gemm_cost(16, 16, 16))
    b = make_task("b", 1, gemm_cost(16, 16, 16))
    table = fresh_table(hw, [[a], [b]])
    p1 = rr_schedule(table, 0)
    p2 = rr_schedule(table, 0)
    assert (p1.task.task_id, p2.task.task_id) == ("a", "b")
    assert p1.proc.kind == p2.proc.kind == "array"


def test_rr_dedicated_processor_rule_skips_vector_head():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 1 << 30))
    v = make_task("v", 0, vector_cost(OpType.ACTIVATION, 4096))
    g = make_task("g", 1, gemm_cost(16, 16, 16))
    table = fresh_table(hw, [[v], [g]])
    # occupy the only vector processor
    first = rr_schedule(table, 0)
    assert first.task.task_id == "v"
    v2 = make_task("v2", 0, vector_cost(OpType.ACTIVATION, 4096))
    table.queues[0].append(v2)
    # vector busy: queue 0's head is skipped, the array op is placed instead
    p = rr_schedule(table, 0)
    assert p.task.task_id == "g"
    with pytest.raises(NoReadyTask):
        rr_schedule(table, 0)  # v2 blocked until the vector frees


def test_rr_single_queue_degenerates_to_fifo():
    hw = two_array_hw()
    tasks = [make_task(f"t{i}", 0, gemm_cost(16, 16, 16)) for i in range(3)]
    order, _ = [], None
    table = fresh_table(hw, [tasks])
    now = 0
    while any(table.queues):
        try:
            while True:
                order.append(rr_schedule(table, now).task.task_id)
        except NoReadyTask:
            pass
        pending = [p.t_end for p in table.placed.values() if p.t_end > now]
        if not pending:
            break
        now = min(pending)
    assert order == ["t0", "t1", "t2"]


def test_rr_binds_processor_while_memory_fetches():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    t = make_task("t", 0, gemm_cost(16, 16, 16, param_bytes=MB),
                  param_keys=((("w", "m", 1, 0), MB),))
    table = fresh_table(hw, [[t]])
    p = rr_schedule(table, 0)
    assert p.t_start == p.t_mem > 0  # processor reserved, idles during fetch
    assert p.t_idle == p.t_start


# --- heterogeneity-aware ----------------------------------------------------------

def test_has_single_candidate_prefers_faster_processor():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 1 << 30))
    t = make_task("t", 0, gemm_cost(16, 16, 16))  # 48 array vs 256 vector cycles
    table = fresh_table(hw, [[t]])
    p = has_schedule(table, 0)
    assert p.proc.kind == "array"
    assert p.t_comp == 48
    assert p.t_idle == 0


def test_has_offloads_matrix_work_when_array_backlogged():
    hw = make_hw(1, make_cluster(1, 16, 1, 64, 1 << 30))
    big = make_task("big", 0, gemm_cost(4096, 256, 256))
    gemv = make_task("gemv", 1, gemm_cost(1, 4096, 1024))
    table = fresh_table(hw, [[big], [gemv]])
    p1 = has_schedule(table, 0)
    assert (p1.task.task_id, p1.proc.kind) == ("big", "array")
    p2 = has_schedule(table, 0)
    # queueing behind the array is worse than running on the vector
    assert (p2.task.task_id, p2.proc.kind) == ("gemv", "vector")


def test_has_selects_queue_with_smaller_memory_idle():
    # q0's head waits on a parameter fetch; q1's head is ready: pick q1.
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    t0 = make_task("t0", 0, gemm_cost(64, 64, 64, param_bytes=8 * MB),
                   param_keys=((("w", "m", 1, 0), 8 * MB),))
    t1 = make_task("t1", 1, gemm_cost(64, 64, 64))
    table = fresh_table(hw, [[t0], [t1]])
    p = has_schedule(table, 0)
    assert p.task.task_id == "t1"
    assert p.t_idle == 0
    assert p.t_mem == 0
    # the alternative order is strictly worse for the array
    mk_ab = run_policy(hw, [[t0], [t1]], "has")[0]
    hw2 = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    table2 = fresh_table(hw2, [[t0], [t1]])
    # force the bad order by scheduling q0 first
    table2.queues[1].clear()
    first = has_schedule(table2, 0)
    assert first.task.task_id == "t0"
    assert first.t_idle > 0


def test_has_reduces_makespan_on_three_request_scenario():
    # three requests over one array and one vector; request 3 owns work that
    # can move to the vector while request 1's chain keeps the array busy
    hw = make_hw(1, make_cluster(1, 16, 1, 64, 1 << 30))
    r1 = [make_task("r1a", 0, gemm_cost(512, 256, 256)),
          make_task("r1b", 0, vector_cost(OpType.ACTIVATION, 65536), deps=("r1a",)),
          make_task("r1c", 0, gemm_cost(512, 256, 256), deps=("r1b",))]
    r2 = [make_task("r2a", 1, vector_cost(OpType.SOFTMAX, 16384)),
          make_task("r2b", 1, gemm_cost(256, 256, 256), deps=("r2a",))]
    r3 = [make_task("r3a", 2, gemm_cost(1, 8192, 1024)),
          make_task("r3b", 2, vector_cost(OpType.LAYERNORM, 65536), deps=("r3a",)),
          make_task("r3c", 2, gemm_cost(1, 8192, 1024), deps=("r3b",))]
    mk_has, _ = run_policy(hw, [r1, r2, r3], "has")
    mk_rr, _ = run_policy(hw, [r1, r2, r3], "rr")
    assert mk_has < mk_rr


def test_has_tie_breaks_in_round_robin_order():
    hw = two_array_hw()
    a = make_task("a", 0, gemm_cost(16, 16, 16))
    b = make_task("b", 1, gemm_cost(16, 16, 16))
    table = fresh_table(hw, [[a], [b]])
    assert has_schedule(table, 0).queue == 0
    assert has_schedule(table, 0).queue == 1


def test_no_ready_task_when_queues_empty():
    table = fresh_table(SMALL_HW, [[]])
    with pytest.raises(NoReadyTask):
        has_schedule(table, 0)
    with pytest.raises(NoReadyTask):
        rr_schedule(table, 0)


def test_head_readiness_recomputed_after_commit():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 1 << 30))
    a = make_task("a", 0, gemm_cost(16, 16, 16))
    b = make_task("b", 0, gemm_cost(16, 16, 16), deps=("a",))
    table = fresh_table(hw, [[a, b]])
    assert table.head_bounds[0] == (0, 0)  # a has no dependencies
    placed = rr_schedule(table, 0)
    # b is head now: its bounds are a's committed start and end
    assert table.head_bounds[0] == (placed.t_start, placed.t_end) == (0, 48)
    with pytest.raises(NoReadyTask) as exc:
        rr_schedule(table, 0)  # the only array runs a until 48
    assert exc.value.not_before == 48
    assert has_schedule(table, 0).t_task == 48  # a has started: b may bind


def test_no_ready_task_names_earliest_dependency_start():
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 45))
    a = make_task("a", 0, gemm_cost(16, 16, 16, param_bytes=MB),
                  param_keys=((("w", "m", 1, 0), MB),))
    b = make_task("b", 0, vector_cost(OpType.ACTIVATION, 4096), deps=("a",))
    table = fresh_table(hw, [[a, b]])
    placed = has_schedule(table, 0)
    assert placed.t_start > 0  # a waits for its weights
    with pytest.raises(NoReadyTask) as exc:
        has_schedule(table, 0)
    assert exc.value.not_before == placed.t_start
    assert has_schedule(table, placed.t_start).task.task_id == "b"


# --- properties -------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_chains_dependency_safety_and_argmin(seed):
    rng = random.Random(seed)
    queues = synth_chain_instance(rng, max_tasks=10)
    for name in ("rr", "has"):
        mk, placements = run_policy(SMALL_HW, queues, name)
        start = {p.task.task_id: p.t_start for p in placements}
        end = {p.task.task_id: p.t_end for p in placements}
        for q in queues:
            for t in q:
                for d in t.deps:
                    assert start[t.task_id] >= end[d]
        # per-processor exclusivity
        by_proc = {}
        for p in placements:
            by_proc.setdefault(p.proc.name, []).append((p.t_start, p.t_end))
        for windows in by_proc.values():
            windows.sort()
            for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
                assert s2 >= e1
        # the estimate: start once memory, dependencies and the processor are
        # ready; each decision's idle is the true gap
        for p in placements:
            assert p.t_start >= max(p.t_mem, p.t_task, p.t_proc)
            assert p.t_end == p.t_start + p.t_comp
            assert p.t_idle == p.t_start - p.t_proc


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_has_never_slower_than_rr_on_random_chains(seed):
    rng = random.Random(seed)
    queues = synth_chain_instance(rng, max_tasks=20, nq_range=(2, 4))
    mk_has, _ = run_policy(SMALL_HW, queues, "has")
    mk_rr, _ = run_policy(SMALL_HW, queues, "rr")
    assert mk_has <= mk_rr


def test_exhaustive_bound_on_small_instances():
    rng = random.Random(7)
    for _ in range(15):
        queues = synth_chain_instance(rng, max_tasks=7)
        opt = exhaustive_min_makespan(SMALL_HW, queues)
        mk_has, _ = run_policy(SMALL_HW, queues, "has")
        mk_rr, _ = run_policy(SMALL_HW, queues, "rr")
        assert opt <= mk_has <= mk_rr


def test_scheduling_is_deterministic():
    rng = random.Random(11)
    queues = synth_chain_instance(rng, max_tasks=12)
    logs = []
    for _ in range(2):
        _, placements = run_policy(SMALL_HW, queues, "has")
        logs.append([(p.queue, p.task.task_id, p.proc.name, p.t_mem, p.t_task,
                      p.t_proc, p.t_start, p.t_comp, p.t_end, p.t_idle)
                     for p in placements])
    assert logs[0] == logs[1]


# --- load balancer ------------------------------------------------------------------

def test_load_balance_single_cluster():
    assert load_balance([0], [8]) == 0
    assert load_balance([5], [8]) == 0


def test_load_balance_fewest_in_flight_lowest_index():
    assert load_balance([2, 0, 1], [8, 8, 8]) == 1
    assert load_balance([1, 1, 1], [8, 8, 8]) == 0


def test_load_balance_respects_capacity():
    assert load_balance([8, 8], capacity=[8, 8]) is None
    assert load_balance([1, 0], capacity=[8, 0]) == 0
    # each cluster is held to its own queue count, in either order
    for capacity in ([8, 2], [2, 8]):
        in_flight = [0, 0]
        for _ in range(10):
            in_flight[load_balance(in_flight, capacity)] += 1
        assert in_flight == capacity
        assert load_balance(in_flight, capacity) is None


def test_load_balance_spreads_batch_evenly():
    in_flight = [0, 0, 0, 0]
    for _ in range(8):
        c = load_balance(in_flight, [8] * 4)
        in_flight[c] += 1
    assert in_flight == [2, 2, 2, 2]
