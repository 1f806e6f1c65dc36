"""Deterministic discrete-event simulation of multi-tenant inference.

The engine binds workloads, the hardware config, and a scheduling policy
into timed execution.  Requests arrive at their workload timestamps, the
load balancer admits them to systolic-vector clusters (FIFO, fewest
in-flight first, one task queue per in-flight request), and a cluster's
scheduler places tasks until it runs dry on every admission, task completion
and request completion on it, and at a wake event: the cycle its policy named
as the earliest it could place anything when it last ran dry.
Cost-model estimates are exact in this model, so committed reservations are
the execution; the event loop paces decisions and records the trace.

Everything is cycle-quantized at the global clock and fully deterministic:
event ties break on (kind rank, sequence number), and a repeated run of the
same inputs produces a byte-identical trace.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import groupby
from operator import attrgetter, itemgetter

from .costs import VECTOR_OPS
from .hardware import (DEFAULT_PHYSICAL, HardwareConfig, PhysicalModel,
                       energy_of, peak_performance, total_area)
from .models import MATRIX_OPS, TRANSFORMER_MODELS, ModelGraph, builtin_model
from .scheduling import (ALPHA, ClusterTable, MemAction, NoReadyTask, Placement,
                         SCHEDULERS, StalledRun, build_request_tasks, load_balance)
from .workloads import DEFAULT_MODEL_PARAMS

# event kinds in tie-break order: completions are observed before new work
_RANK = {"task_complete": 0, "wake": 1, "request_complete": 2, "request_arrival": 3}


@dataclass(slots=True)
class ResidencyEvent:
    cluster: int
    time: int
    delta: int
    key: str


@dataclass
class RequestRecord:
    request_id: int
    model: str
    arrival: int
    cluster: int = -1
    dispatched: int = -1
    completed: int = -1


@dataclass
class TraceLog:
    meta: dict
    executions: list[Placement] = field(default_factory=list)  # in commit order
    requests: list[RequestRecord] = field(default_factory=list)

    @property
    def transfers(self) -> list[MemAction]:
        """Every HBM transfer (each memory action but a flush), in commit order."""
        return [a for p in self.executions for a in p.actions if a.kind != "flush"]

    @property
    def residency(self) -> list[ResidencyEvent]:
        """Every shared-memory allocation and release, in commit order."""
        return [ResidencyEvent(ci, t, delta, str(key))
                for ci, t, delta, key in _residency_deltas(self.executions)]

    def makespan(self) -> int:
        # every memory action ends by its task's start (verify_trace checks it)
        return max((p.t_end for p in self.executions), default=0)


def _residency_deltas(executions):
    """(cluster, time, bytes delta, key) per residency change, per placement
    its actions then its output: a flush or spill frees its bytes at its end,
    a fetch or read holds them from its start, an output from its task's start."""
    for p in executions:
        for a in p.actions:
            if a.kind in ("flush", "write_act"):
                yield p.cluster, a.end, -a.bytes, a.key
            else:
                yield p.cluster, a.start, a.bytes, a.key
        if p.task.act_out_key:
            key, b = p.task.act_out_key
            yield p.cluster, p.t_start, b, key


@dataclass(frozen=True)
class PerfReport:
    total_ops: int
    makespan_cycles: int
    seconds: float
    tops: float
    joules: float
    watts: float
    tops_per_watt: float
    area_mm2: float
    peak_gops: float
    utilization: dict
    request_latency: dict


@lru_cache(maxsize=64)
def _cached_builtin(name: str, size: int, batch: int, depth: int) -> ModelGraph:
    return builtin_model(name, size, batch=batch, depth_reduction=depth)


def _graph_for(name: str, params: dict) -> ModelGraph:
    """A builtin model by name; a key missing from ``params`` takes its default."""
    name = name.lower()  # a builtin's name is its lowercase name, whatever its case
    params = {**DEFAULT_MODEL_PARAMS, **params}
    size = params["seq_len"] if name in TRANSFORMER_MODELS else params["image_size"]
    return _cached_builtin(name, size, params["batch"], params["depth_reduction"])


def run(workload, hw: HardwareConfig, scheduler: str = "has", *,
        graphs: dict[str, ModelGraph] | None = None) -> tuple[TraceLog, PerfReport]:
    """Simulate a workload and return its trace and performance report."""
    if scheduler not in SCHEDULERS:
        raise ValueError(f"unknown scheduler {scheduler!r}; pick from "
                         f"{sorted(SCHEDULERS)}")
    policy = SCHEDULERS[scheduler]
    if graphs is None:
        graphs = {r.model: _graph_for(r.model, workload.model_params)
                  for r in workload.requests}
    elif len({g.name for g in graphs.values()}) < len(set(graphs.values())):
        raise ValueError("two graphs share a name, so they would share weights")

    trace = TraceLog(meta={
        # "seed" is fixed: every pinned digest and perfbench/reference.json
        # were recorded with it in the meta
        "scheduler": scheduler, "seed": 0, "clock_hz": hw.clock_hz,
        "workload": workload.name,
        "num_clusters": len(hw.clusters),
        "shared_mem_bytes": [cl.shared_mem_bytes for cl in hw.clusters],
        "alpha": ALPHA,
    })
    tables = [ClusterTable(cl, hw) for cl in hw.clusters]
    capacity = [cl.num_task_queues for cl in hw.clusters]
    in_flight = [0] * len(tables)
    waiting: deque[int] = deque()
    remaining: dict[int, int] = {}
    records: dict[int, RequestRecord] = {}

    heap: list = []
    seq = 0

    def push(time: int, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (time, _RANK[kind], seq, kind, payload))
        seq += 1

    for req in workload.requests:
        rec = RequestRecord(req.request_id, req.model, req.arrival_cycle)
        records[req.request_id] = rec
        trace.requests.append(rec)
        push(req.arrival_cycle, "request_arrival", req.request_id)

    def dispatch(rid: int, target: int, now: int) -> None:
        rec = records[rid]
        table = tables[target]
        tasks = build_request_tasks(graphs[rec.model], rid, table.cluster)
        table.enqueue_request(rid, tasks)
        in_flight[target] += 1
        remaining[rid] = len(tasks)
        rec.cluster = target
        rec.dispatched = now

    def record_placement(ci: int, p: Placement) -> None:
        p.cluster = ci
        trace.executions.append(p)
        push(p.t_end, "task_complete", (ci, p.task.request_id))

    def drain(ci: int, now: int) -> None:
        # place until the policy runs dry, then wake the cluster at the cycle
        # the policy named; a dry call changes nothing, so until the table
        # changes a drain before that cycle would find the same nothing
        table = tables[ci]
        if now < table.wake:
            return
        while True:
            try:
                placement = policy(table, now)
            except NoReadyTask as e:
                table.wake = e.not_before
                if e.not_before < math.inf:
                    push(e.not_before, "wake", ci)
                return
            record_placement(ci, placement)

    def admit_waiting(now: int) -> None:
        # strict FIFO admission: the oldest waiter goes to the least-loaded
        # cluster with a free task-queue slot
        while waiting:
            target = load_balance(in_flight, capacity)
            if target is None:
                break
            dispatch(waiting.popleft(), target, now)
            drain(target, now)

    while heap:
        now, _, _, kind, payload = heapq.heappop(heap)
        if kind == "request_arrival":
            waiting.append(payload)
            admit_waiting(now)
        elif kind == "task_complete":
            ci, rid = payload
            remaining[rid] -= 1
            if remaining[rid] == 0:
                push(now, "request_complete", (ci, rid))
            drain(ci, now)
        elif kind == "request_complete":
            ci, rid = payload
            records[rid].completed = now
            in_flight[ci] -= 1
            tables[ci].release_request(rid)
            admit_waiting(now)
            drain(ci, now)
        else:  # wake
            drain(payload, now)

    queued = sum(len(q) for table in tables for q in table.queues)
    stalled = [r.request_id for r in trace.requests if r.completed < 0]
    if queued or stalled:
        raise StalledRun(
            f"run ended with {queued} queued tasks and {len(stalled)} "
            f"requests never completed (first: {stalled[:3]})")
    report = compute_report(trace, hw)
    return trace, report


# ---------------------------------------------------------------------------
# report

def energy_from_trace(trace: TraceLog, physical: PhysicalModel = DEFAULT_PHYSICAL) -> float:
    """Joules, recomputable from the trace alone: op counts times the
    per-op table plus byte-transfer energies."""
    joules = 0.0
    for p in trace.executions:
        cost, kind, size = p.task.cost, p.proc.kind, p.proc.size
        joules += energy_of("mac", cost.macs, kind, size, physical)
        vec = VECTOR_OPS.get(cost.op)
        if vec:
            joules += energy_of(vec.energy_row, cost.vector_ops, kind, size, physical)
        sram_bytes = cost.param_bytes + cost.act_in_bytes + cost.act_out_bytes
        joules += sram_bytes * physical.sram_pj_per_byte * 1e-12
    for t in trace.transfers:
        joules += t.bytes * physical.dram_pj_per_byte * 1e-12
    return joules


def compute_report(trace: TraceLog, hw: HardwareConfig,
                   physical: PhysicalModel = DEFAULT_PHYSICAL) -> PerfReport:
    total_ops = sum(2 * p.task.cost.macs + p.task.cost.vector_ops
                    for p in trace.executions)
    makespan = trace.makespan()
    seconds = makespan / hw.clock_hz
    joules = energy_from_trace(trace, physical)
    tops = total_ops / seconds / 1e12 if seconds else 0.0
    watts = joules / seconds if seconds else 0.0
    busy = {f"cluster{ci}/{kind}{i}": 0 for ci, cl in enumerate(hw.clusters)
            for kind, sizes in (("array", cl.arrays), ("vector", cl.vectors))
            for i in range(len(sizes))}
    for p in trace.executions:
        busy[f"cluster{p.cluster}/{p.proc.name}"] += p.t_end - p.t_start
    utilization = {name: (100.0 * b / makespan if makespan else 0.0)
                   for name, b in sorted(busy.items())}
    latency = {r.request_id: r.completed - r.arrival
               for r in trace.requests if r.completed >= 0}
    return PerfReport(
        total_ops=total_ops, makespan_cycles=makespan, seconds=seconds,
        tops=tops, joules=joules, watts=watts,
        tops_per_watt=tops / watts if watts else 0.0,
        area_mm2=total_area(hw, physical), peak_gops=peak_performance(hw),
        utilization=utilization, request_latency=latency)


# ---------------------------------------------------------------------------
# trace export and verification

def decision_rows(trace: TraceLog) -> list[dict]:
    """The scheduler's estimates behind each placement, one row each:
    clusters in cluster order, each in commit order."""
    return [{"time": p.t_start, "queue": p.queue, "task": p.task.task_id,
             "processor": p.proc.name, "t_mem": p.t_mem, "t_task": p.t_task,
             "t_proc": p.t_proc, "t_start": p.t_start, "t_comp": p.t_comp,
             "t_end": p.t_end, "t_idle": p.t_idle}
            for p in sorted(trace.executions, key=attrgetter("cluster"))]


def _execution_row(p: Placement) -> dict:
    task, proc, cost = p.task, p.proc, p.task.cost
    vec = VECTOR_OPS.get(cost.op)
    return {"cluster": p.cluster, "resource": proc.name, "resource_kind": proc.kind,
            "resource_size": proc.size, "task_id": task.task_id,
            "request_id": task.request_id, "layer_id": task.layer_id,
            "op": cost.op.name, "queue": p.queue, "t_start": p.t_start, "t_end": p.t_end,
            "macs": cost.macs, "vector_counts": {vec.name: cost.vector_ops} if vec else {},
            "param_bytes": cost.param_bytes, "act_in_bytes": cost.act_in_bytes,
            "act_out_bytes": cost.act_out_bytes, "deps": task.deps}


def trace_to_dict(trace: TraceLog) -> dict:
    return {
        "meta": trace.meta,
        "executions": [_execution_row(p) for p in trace.executions],
        "transfers": [{"cluster": p.cluster, "kind": a.kind, "t_start": a.start,
                       "t_end": a.end, "bytes": a.bytes, "key": str(a.key)}
                      for p in trace.executions for a in p.actions if a.kind != "flush"],
        "residency": [{"cluster": ci, "time": t, "delta": delta, "key": str(key)}
                      for ci, t, delta, key in _residency_deltas(trace.executions)],
        "requests": [asdict(r) for r in trace.requests],
        "decisions": decision_rows(trace),
    }


def trace_digest(trace: TraceLog) -> str:
    blob = json.dumps(trace_to_dict(trace), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


# trace events export_trace builds per write
_EXPORT_CHUNK = 1024


def export_trace(trace: TraceLog, path: str) -> None:
    """Write the trace in Trace Event Format (one duration event per task
    per resource lane, plus memory-channel lanes), loadable in standard
    trace viewers."""
    to_us = 1e6 / trace.meta["clock_hz"]
    # (sort key, record) rows; a stable sort keeps full ties in record order,
    # and event texts exist one chunk at a time
    rows = [((p.t_start * to_us, str(p.cluster), p.proc.name,
              f"{p.task.task_id} {p.task.cost.op.name}"), p.cluster, p)
            for p in trace.executions]
    rows += [((a.start * to_us, str(p.cluster), "hbm", f"{a.kind} {a.bytes}B"), p.cluster, a)
             for p in trace.executions for a in p.actions if a.kind != "flush"]
    rows.sort(key=itemgetter(0))
    # the bytes json.dump(doc, sort_keys=True, separators=(",", ":")) writes,
    # through the C encoder
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    other = {k: str(v) for k, v in trace.meta.items()}
    with open(path, "w") as f:
        f.write(f'{{"displayTimeUnit":"ms","otherData":{encode(other)},"traceEvents":[')
        for i in range(0, len(rows), _EXPORT_CHUNK):
            events = [_trace_event(ts, tid, name, ci, r, to_us)
                      for (ts, _, tid, name), ci, r in rows[i:i + _EXPORT_CHUNK]]
            f.write(("," if i else "") + ",".join(events))
        f.write("]}")


# The encoder's text for an event or a decision row, keys in sorted order:
# strings through its escaper, numbers through %r (int.__repr__ and
# float.__repr__, as the encoder writes them; %d would truncate a float).
# tests/support.py keeps the dict writers these must match byte for byte.
_esc = json.encoder.encode_basestring_ascii
_TASK_EVENT = ('{"args":{"cycles":%r,"layer":%r,"macs":%r,"request":%r},"cat":%s,'
               '"dur":%r,"name":%s,"ph":"X","pid":%r,"tid":%s,"ts":%r}')
_MEMORY_EVENT = ('{"args":{"bytes":%r,"key":%s},"cat":"memory","dur":%r,"name":%s,'
                 '"ph":"X","pid":%r,"tid":%s,"ts":%r}')
_DECISION = ('{"processor": %s, "queue": %r, "t_comp": %r, "t_end": %r, "t_idle": %r, '
             '"t_mem": %r, "t_proc": %r, "t_start": %r, "t_task": %r, "task": %s, '
             '"time": %r}\n')


def _trace_event(ts: float, tid: str, name: str, ci: int, r, to_us: float) -> str:
    if isinstance(r, MemAction):
        return _MEMORY_EVENT % (r.bytes, _esc(str(r.key)), (r.end - r.start) * to_us,
                                _esc(name), ci, _esc(tid), ts)
    task, cycles = r.task, r.t_end - r.t_start
    return _TASK_EVENT % (cycles, task.layer_id, task.cost.macs, task.request_id,
                          _esc(task.cost.op.name), cycles * to_us, _esc(name), ci,
                          _esc(tid), ts)


def write_decisions(trace: TraceLog, path: str) -> None:
    """Write ``decision_rows`` as JSON lines, each the text
    ``json.dumps(row, sort_keys=True)`` gives."""
    with open(path, "w") as f:
        f.writelines(_DECISION % (_esc(p.proc.name), p.queue, p.t_comp, p.t_end, p.t_idle,
                                  p.t_mem, p.t_proc, p.t_start, p.t_task,
                                  _esc(p.task.task_id), p.t_start)
                     for p in sorted(trace.executions, key=attrgetter("cluster")))


def verify_trace(trace: TraceLog, hw: HardwareConfig) -> list[str]:
    """Replay checker: processor exclusivity, HBM channel serialisation,
    class eligibility (arrays run only matrix work), memory actions ending
    by their task's start, dependency ordering, request completion at its
    last task's end, and shared-memory capacity.
    Returns a list of violations (empty = clean)."""
    problems: list[str] = []

    by_resource: dict[tuple[int, str], list[Placement]] = {}
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
    for p in trace.executions:
        task = p.task
        if p.proc.kind == "array" and task.cost.op not in MATRIX_OPS:
            problems.append(f"cluster{p.cluster}/{p.proc.name}: {task.task_id} "
                            f"runs non-matrix {task.cost.op.name}")
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
