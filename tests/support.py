"""Shared test helpers: hardware builders, synthetic task instances, a
bare cluster-table driver, the exhaustive-search makespan oracle, the
reference policies, the reference writers of trace.json, decisions.jsonl
and the document trace_digest hashes, and the reference replay checker."""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
import random
from itertools import groupby
from operator import attrgetter, itemgetter

from svsim.costs import VECTOR_OPS, TaskCost, task_cycles
from svsim.hardware import MB, ClusterConfig, HardwareConfig
from svsim.models import MATRIX_OPS
from svsim.scheduling import (ClusterTable, MemAction, NoReadyTask, ResidencyEntry,
                              SCHEDULERS, SubLayerTask, _estimate)
from svsim.simulation import _residency_deltas
from svsim.umf import OpType


def make_cluster(num_arrays: int, array_dim: int, num_vectors: int,
                 vector_lanes: int, shared_mem_mb: float, *,
                 num_task_queues: int = 8) -> ClusterConfig:
    return ClusterConfig(
        arrays=(array_dim,) * num_arrays,
        vectors=(vector_lanes,) * num_vectors,
        shared_mem_bytes=int(shared_mem_mb * MB),
        num_task_queues=num_task_queues)


def make_hw(num_clusters: int, cluster: ClusterConfig, *,
            hbm_gbps: float = 256, hbm_latency_cycles: int = 100,
            clock_hz: float = 800e6) -> HardwareConfig:
    return HardwareConfig(clusters=tuple(cluster for _ in range(num_clusters)),
                          hbm_bandwidth_bytes_per_s=hbm_gbps * 1e9,
                          hbm_latency_cycles=hbm_latency_cycles,
                          clock_hz=clock_hz)


def hw_config_to_dict(config: HardwareConfig) -> dict:
    """The ``load_hw_config`` document of a config."""
    return {
        "clock_mhz": config.clock_hz / 1e6,
        "hbm_gbps": config.hbm_bandwidth_bytes_per_s / 1e9,
        "hbm_latency_cycles": config.hbm_latency_cycles,
        "clusters": [
            {"arrays": [{"dim": d} for d in cl.arrays],
             "vectors": [{"lanes": lanes} for lanes in cl.vectors],
             "shared_mem_mb": cl.shared_mem_bytes / MB,
             "num_task_queues": cl.num_task_queues}
            for cl in config.clusters
        ],
    }


DESK_HW = os.path.join(os.path.dirname(__file__), "..", "configs", "desk_hw.json")


def desk_hw_doc_with(path: tuple, value) -> dict:
    """The desk config's document with the entry at ``path`` set to ``value``."""
    with open(DESK_HW) as f:
        doc = json.load(f)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


# one value of each JSON type, and a non-empty list and object
RETYPES = (None, True, 0, 1, -1, 1.5, "x", [], {}, [1], {"a": 1})
ADDED_KEY = "no_such_key"


def _copy_at(doc, path):
    """A deep copy of ``doc`` and the copy's node at ``path``."""
    bad = copy.deepcopy(doc)
    return bad, functools.reduce(operator.getitem, path, bad)


def doc_mutations(doc, path=()):
    """(label, copy of ``doc``, the added key or None) for each way to break
    ``doc`` at one place: the whole document or one value in it replaced by
    each of RETYPES, NaN and Infinity, one object key dropped, or ADDED_KEY
    added to one object."""
    for value in RETYPES + (math.nan, math.inf):
        bad = value
        if path:
            bad, parent = _copy_at(doc, path[:-1])
            parent[path[-1]] = value
        yield f"{list(path)} = {value!r}", bad, None
    if path and isinstance(functools.reduce(operator.getitem, path[:-1], doc), dict):
        bad, parent = _copy_at(doc, path[:-1])
        del parent[path[-1]]
        yield f"{list(path)} dropped", bad, None
    node = functools.reduce(operator.getitem, path, doc)
    if isinstance(node, dict):
        bad, copied = _copy_at(doc, path)
        copied[ADDED_KEY] = 1
        yield f"{list(path)} + {ADDED_KEY!r}", bad, ADDED_KEY
    children = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in children:
        yield from doc_mutations(doc, path + (key,))


def chain_description(n: int, *, reverse: bool = False) -> dict:
    """A model description of ``n`` activations in a chain, listed from the
    first layer or, with ``reverse``, from the last."""
    layers = [{"name": f"l{i}", "op": "Activation", "inputs": [f"l{i - 1}" if i else "x"]}
              for i in range(n)]
    return {"name": "chain", "class": "cnn", "inputs": [{"name": "x", "shape": [8]}],
            "layers": layers[::-1] if reverse else layers}


def make_task(tid, queue, cost, deps=(), param_keys=(), act_in_keys=(),
              act_out=None):
    return SubLayerTask(tid, queue, 0, cost, tuple(deps), tuple(param_keys),
                        tuple(act_in_keys), act_out, {})


def gemm_cost(m, k, n, param_bytes=0, act_in=0, act_out=0):
    return TaskCost(OpType.GEMM, macs=m * k * n, matrix=(m, k, n, 1),
                    param_bytes=param_bytes, act_in_bytes=act_in,
                    act_out_bytes=act_out)


def vector_cost(op, n):
    if op == OpType.SOFTMAX:
        return TaskCost(op, vector_ops=n, softmax_rows=max(1, n // 128),
                        softmax_width=min(n, 128))
    return TaskCost(op, vector_ops=n)


def fresh_table(hw, queues_by_request):
    """Cluster table with one queue per entry of ``queues_by_request``."""
    cl = dataclasses.replace(hw.clusters[0],
                             num_task_queues=max(len(queues_by_request), 1))
    table = ClusterTable(cl, hw)
    for rid, tasks in enumerate(queues_by_request):
        table.enqueue_request(rid, [dataclasses.replace(t, _cycles={}) for t in tasks])
    return table


def add_resident(table, key, nbytes, kind, ready, avail):
    """Make ``key`` resident in ``table`` as commits leave it: its entry and
    bytes, and its live tuple in the eviction heap unless it is a parameter
    a queued task wants.  Returns the entry."""
    e = table.residency[key] = ResidencyEntry(key, nbytes, kind, ready, avail)
    table.used_bytes += nbytes
    if kind == "act" or key not in table.pending_uses:
        table._push(e)
    return e


def run_policy(hw, queues_by_request, name):
    """Drive a policy over a bare table to completion; returns (makespan,
    placements in commit order)."""
    table = fresh_table(hw, queues_by_request)
    policy = SCHEDULERS[name]
    placements = []
    now = 0
    guard = 0
    while any(table.queues):
        try:
            while True:
                placements.append(policy(table, now))
        except NoReadyTask:
            pass
        pending = [t for p in table.placed.values() for t in (p.t_end, p.t_start)
                   if t > now]
        if not pending:
            if any(table.queues):
                raise RuntimeError("driver stalled with tasks still queued")
            break
        now = min(pending)
        guard += 1
        if guard > 100000:
            raise RuntimeError("driver did not converge")
    return max((p.t_end for p in table.placed.values()), default=0), placements


def synth_chain_instance(rng: random.Random, max_tasks=8, nq_range=(2, 3)):
    """Random per-request chains shaped like real layer streams.

    Chains alternate matrix layers with the vector layers that follow them
    (activation, normalization, softmax), with vector work a realistic
    fraction of the neighbouring matrix work.
    """
    nq = rng.randint(*nq_range)
    total = rng.randint(max(4, nq), max_tasks)
    queues = [[] for _ in range(nq)]
    for i in range(total):
        q = i if i < nq else rng.randrange(nq)
        chain = queues[q]
        prev_matrix = chain and chain[-1].cost.matrix is not None
        if not prev_matrix or rng.random() < 0.25:
            m = rng.choice([1, 1, 4, 16, 64, 128])
            k = rng.choice([64, 256, 1024, 4096])
            n = rng.choice([64, 256, 1024])
            cost = gemm_cost(m, k, n)
        else:
            op = rng.choice([OpType.ACTIVATION, OpType.SOFTMAX, OpType.LAYERNORM,
                             OpType.POOL])
            cost = vector_cost(op, rng.choice([4096, 16384, 65536]))
        deps = (chain[-1].task_id,) if chain else ()
        chain.append(make_task(f"q{q}t{len(chain)}", q, cost, deps))
    return queues


def exhaustive_min_makespan(hw, queues_by_request):
    """Minimal makespan over every queue interleaving and every legal
    processor-class assignment, with list placement (memory-free)."""
    size = {"array": hw.clusters[0].arrays[0], "vector": hw.clusters[0].vectors[0]}
    n_arrays = len(hw.clusters[0].arrays)
    n_vectors = len(hw.clusters[0].vectors)
    per_q = [list(q) for q in queues_by_request]
    counts = [len(q) for q in per_q]

    def interleavings(remaining):
        if not any(remaining):
            yield []
            return
        for q in range(len(remaining)):
            if remaining[q]:
                r2 = list(remaining)
                r2[q] -= 1
                for rest in interleavings(r2):
                    yield [q] + rest

    best = None
    for order in interleavings(counts):
        ptr = [0] * len(per_q)
        seq = []
        for q in order:
            seq.append(per_q[q][ptr[q]])
            ptr[q] += 1
        n_matrix = sum(1 for t in seq if t.cost.matrix is not None)
        for bits in range(1 << n_matrix):
            free = {"array": [0] * n_arrays, "vector": [0] * n_vectors}
            ends = {}
            mi = 0
            for t in seq:
                if t.cost.matrix is not None:
                    kind = "array" if (bits >> mi) & 1 else "vector"
                    mi += 1
                else:
                    kind = "vector"
                c = task_cycles(t.cost, kind, size[kind])
                dep_end = max((ends[d] for d in t.deps), default=0)
                slot = min(range(len(free[kind])), key=lambda i: free[kind][i])
                s = max(free[kind][slot], dep_end)
                ends[t.task_id] = s + c
                free[kind][slot] = s + c
            mk = max(ends.values())
            if best is None or mk < best:
                best = mk
    return best


SMALL_HW = make_hw(1, make_cluster(1, 16, 1, 64, 1 << 40))


# --- reference policies: a min scan per kind and the eligible kinds per call ----------

def _earliest_free(table, kind):
    return min(table.of_kind[kind], key=attrgetter("busy_until"))  # ties: lowest index


def _eligible_kinds(op, vector_slack):
    if op in MATRIX_OPS:
        return ("vector", "array") if vector_slack else ("array",)
    return ("vector",)


def reference_has_schedule(table, now):
    """``has_schedule`` as it was before the table kept each kind's
    earliest-free processor: it scans every processor on each call."""
    heads = []
    not_before = math.inf
    for q, queue in enumerate(table.queues):
        if queue:
            dep_start, dep_end = table.head_bounds[q]
            if dep_start <= now:
                task = queue[0]
                heads.append((q, task, task.cost.op, dep_end))
            elif dep_start < not_before:
                not_before = dep_start
    if not heads:
        raise NoReadyTask("no candidate tasks", not_before)
    nq = len(table.queues)
    vector_only = sum(1 for _, _, op, _ in heads if op in VECTOR_OPS)
    vector_slack = vector_only < len(table.of_kind["vector"])
    free = {kind: _earliest_free(table, kind) for kind in table.of_kind}
    best = None
    best_rank = None
    for q, task, op, t_task in heads:
        plan = table.plan_memory(task, now)
        nominated = None
        for kind in _eligible_kinds(op, vector_slack):
            p = _estimate(table, q, task, free[kind], plan, t_task, now)
            if nominated is None or p.t_end <= nominated.t_end:
                nominated = p
        rank = (nominated.t_idle, (q - table.rr_ptr) % nq)
        if best_rank is None or rank < best_rank:
            best_rank = rank
            best = nominated
    table.commit(best)
    return best


def reference_rr_schedule(table, now):
    """``rr_schedule`` as it was before the table kept each kind's
    earliest-free processor: it scans every processor on each call."""
    nq = len(table.queues)
    free = {kind: _earliest_free(table, kind) for kind in table.of_kind}
    not_before = math.inf
    for i in range(nq):
        q = (table.rr_ptr + i) % nq
        queue = table.queues[q]
        if not queue:
            continue
        task = queue[0]
        proc = free[_eligible_kinds(task.cost.op, False)[0]]
        if proc.busy_until > now:
            not_before = min(not_before, proc.busy_until)
            continue
        placement = _estimate(table, q, task, proc, table.plan_memory(task, now),
                              table.head_bounds[q][1], now)
        table.commit(placement)
        return placement
    raise NoReadyTask("all queue heads blocked", not_before)


REFERENCE_SCHEDULERS = {"rr": reference_rr_schedule, "has": reference_has_schedule}


# --- reference output writers: a dict per event or row through the encoder ----------

def _reference_event(ts, tid, name, ci, r, to_us) -> dict:
    if isinstance(r, MemAction):
        cat, args, cycles = "memory", {"bytes": r.bytes, "key": str(r.key)}, r.end - r.start
    else:
        task, cycles = r.task, r.t_end - r.t_start
        cat, args = task.cost.op.name, {"request": task.request_id, "layer": task.layer_id,
                                        "macs": task.cost.macs, "cycles": cycles}
    return {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": cycles * to_us,
            "pid": ci, "tid": tid, "args": args}


def reference_trace_json(trace) -> bytes:
    """The bytes ``export_trace`` must write: its rows and stable sort, each
    event a dict, chunks through ``JSONEncoder(sort_keys=True,
    separators=(",", ":"))``."""
    to_us = 1e6 / trace.meta["clock_hz"]
    rows = [((p.t_start * to_us, str(p.cluster), p.proc.name,
              f"{p.task.task_id} {p.task.cost.op.name}"), p.cluster, p)
            for p in trace.executions]
    rows += [((a.start * to_us, str(p.cluster), "hbm", f"{a.kind} {a.bytes}B"), p.cluster, a)
             for p in trace.executions for a in p.actions if a.kind != "flush"]
    rows.sort(key=itemgetter(0))
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    other = {k: str(v) for k, v in trace.meta.items()}
    parts = [f'{{"displayTimeUnit":"ms","otherData":{encode(other)},"traceEvents":[']
    for i in range(0, len(rows), 1024):
        events = [_reference_event(ts, tid, name, ci, r, to_us)
                  for (ts, _, tid, name), ci, r in rows[i:i + 1024]]
        parts.append(("," if i else "") + encode(events)[1:-1])
    parts.append("]}")
    return "".join(parts).encode()


def decision_rows(trace) -> list[dict]:
    """The scheduler's estimates behind each placement, one row each:
    clusters in cluster order, each in commit order."""
    return [{"time": p.t_start, "queue": p.queue, "task": p.task.task_id,
             "processor": p.proc.name, "t_mem": p.t_mem, "t_task": p.t_task,
             "t_proc": p.t_proc, "t_start": p.t_start, "t_comp": p.t_comp,
             "t_end": p.t_end, "t_idle": p.t_idle}
            for p in sorted(trace.executions, key=attrgetter("cluster"))]


def reference_decisions(trace) -> bytes:
    """The bytes ``write_decisions`` must write: ``json.dumps(row,
    sort_keys=True)`` per ``decision_rows`` row, one a line."""
    return "".join(json.dumps(row, sort_keys=True) + "\n"
                   for row in decision_rows(trace)).encode()


def _execution_row(p) -> dict:
    task, proc, cost = p.task, p.proc, p.task.cost
    vec = VECTOR_OPS.get(cost.op)
    return {"cluster": p.cluster, "resource": proc.name, "resource_kind": proc.kind,
            "resource_size": proc.size, "task_id": task.task_id,
            "request_id": task.request_id, "layer_id": task.layer_id,
            "op": cost.op.name, "queue": p.queue, "t_start": p.t_start, "t_end": p.t_end,
            "macs": cost.macs, "vector_counts": {vec.name: cost.vector_ops} if vec else {},
            "param_bytes": cost.param_bytes, "act_in_bytes": cost.act_in_bytes,
            "act_out_bytes": cost.act_out_bytes, "deps": task.deps}


def trace_to_dict(trace) -> dict:
    """The document ``trace_digest`` hashes, built as dicts."""
    return {
        "meta": trace.meta,
        "executions": [_execution_row(p) for p in trace.executions],
        "transfers": [{"cluster": p.cluster, "kind": a.kind, "t_start": a.start,
                       "t_end": a.end, "bytes": a.bytes, "key": str(a.key)}
                      for p in trace.executions for a in p.actions if a.kind != "flush"],
        "residency": [{"cluster": ci, "time": t, "delta": delta, "key": str(key)}
                      for ci, t, delta, key in _residency_deltas(trace.executions)],
        "requests": [dataclasses.asdict(r) for r in trace.requests],
        "decisions": decision_rows(trace),
    }


def reference_digest(trace) -> str:
    """The digest ``trace_digest`` must return: sha256 of
    ``json.dumps(trace_to_dict(trace), sort_keys=True)``."""
    return hashlib.sha256(json.dumps(trace_to_dict(trace), sort_keys=True).encode()).hexdigest()


# --- reference replay checker ------------------------------------------------------

def reference_verify_trace(trace, hw) -> list[str]:
    """Replay checker: processor exclusivity, HBM channel serialisation,
    class eligibility (arrays run only matrix work), each task's duration
    on its processor, memory actions ending by their task's start,
    dependency ordering, a dependency that never executed, request
    completion at its last task's end, shared-memory capacity, and a
    negative residency at the end.  Returns a list of violations (empty = clean).
    The list ``verify_trace`` must return, message for message and in order."""
    problems: list[str] = []

    by_resource: dict[tuple[int, str], list] = {}
    for p in trace.executions:
        by_resource.setdefault((p.cluster, p.proc.name), []).append(p)
    for (ci, res), placed in sorted(by_resource.items()):
        placed = sorted(placed, key=attrgetter("t_start", "t_end"))
        for a, b in zip(placed, placed[1:]):
            if b.t_start < a.t_end:
                problems.append(
                    f"cluster{ci}/{res}: {b.task.task_id} starts at {b.t_start} "
                    f"before {a.task.task_id} ends at {a.t_end}")

    # one channel per cluster; records sharing (t_start, t_end) are one
    # fetch chunk split across keys, so only distinct intervals must not
    # overlap, and in sorted order an overlap shows between neighbours
    spans = sorted((p.cluster, a.start, a.end) for p in trace.executions
                   for a in p.actions if a.kind != "flush")
    for (c1, s1, e1), (c2, s2, e2) in zip(spans, spans[1:]):
        if s2 < e1 and c1 == c2 and (s1, e1) != (s2, e2):
            problems.append(f"cluster{c1}/hbm: transfer [{s2}, {e2}) "
                            f"overlaps [{s1}, {e1})")

    end_by_task = {p.task.task_id: p.t_end for p in trace.executions}
    cycles: dict[tuple, int] = {}  # recomputed here, never read from the tasks
    for p in trace.executions:
        task, kind, size = p.task, p.proc.kind, p.proc.size
        if kind == "array" and task.cost.op not in MATRIX_OPS:
            problems.append(f"cluster{p.cluster}/{p.proc.name}: {task.task_id} "
                            f"runs non-matrix {task.cost.op.name}")
        else:  # an array has no cycle count for non-matrix work
            key = (task.cost, kind, size)
            want = cycles.get(key)
            if want is None:
                want = cycles[key] = task_cycles(task.cost, kind, size)
            if p.t_end - p.t_start != want:
                problems.append(f"{task.task_id}: runs {p.t_end - p.t_start} cycles on "
                                f"{p.proc.name}, its cost takes {want}")
        for a in p.actions:
            if a.end > p.t_start:
                problems.append(f"{task.task_id}: {a.kind} of {a.key} ends at {a.end}, "
                                f"after the task starts at {p.t_start}")
        for dep in task.deps:
            dep_end = end_by_task.get(dep)
            if dep_end is None:
                problems.append(f"{task.task_id}: dependency {dep} never executed")
            elif p.t_start < dep_end:
                problems.append(
                    f"{task.task_id} starts at {p.t_start} before dependency "
                    f"{dep} ends at {dep_end}")
    last_end = {p.task.request_id: p.t_end
                for p in sorted(trace.executions, key=attrgetter("t_end"))}
    for r in trace.requests:
        if r.completed >= 0 and r.completed != last_end.get(r.request_id):
            problems.append(f"request {r.request_id}: completed at {r.completed}, "
                            f"its last task ends at {last_end.get(r.request_id)}")

    # clusters in order, each in time order, releases before allocations at
    # equal times: stable sorts on delta, time, then cluster (no key tuples)
    changes = list(_residency_deltas(trace.executions))
    for i in (2, 1, 0):
        changes.sort(key=itemgetter(i))
    for ci, cluster_changes in groupby(changes, key=itemgetter(0)):
        cap = hw.clusters[ci].shared_mem_bytes
        level = 0
        for _, t, delta, key in cluster_changes:
            level += delta
            if level > cap:
                problems.append(
                    f"cluster{ci}: shared memory at {level} B > {cap} B "
                    f"at cycle {t} ({key})")
        if level < 0:
            problems.append(f"cluster{ci}: negative residency at end ({level})")

    return problems
