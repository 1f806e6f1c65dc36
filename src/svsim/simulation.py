"""Deterministic discrete-event simulation of multi-tenant inference.

The engine binds workloads, the hardware config, and a scheduling policy
into timed execution.  Requests arrive at their workload timestamps, the
load balancer admits them to systolic-vector clusters (FIFO, fewest
in-flight first, one task queue per in-flight request), and a cluster's
scheduler places tasks until it runs dry on every admission, task completion
and request completion on it, and at a wake event: the cycle its policy named
as the earliest it could place anything when it last ran dry, or when its
last placement left nothing ready.
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
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, islice
from operator import attrgetter, itemgetter

from .costs import VECTOR_OPS, task_cycles
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
        # place until the policy runs dry, or until a placement sets the wake
        # cycle itself (has does when it leaves nothing ready), then wake the
        # cluster at that cycle; a dry call changes nothing, so until the
        # table changes a drain before that cycle would find the same nothing
        table = tables[ci]
        if now < table.wake:
            return
        while True:
            try:
                placement = policy(table, now)
            except NoReadyTask as e:
                table.wake = e.not_before
            else:
                record_placement(ci, placement)
                if now >= table.wake:
                    continue
            if table.wake < math.inf:
                push(table.wake, "wake", ci)
            return

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
            # no drain(ci): its wake stays past now but for an admission, which admit_waiting drains
            admit_waiting(now)
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
    other = json.dumps({k: str(v) for k, v in trace.meta.items()}, sort_keys=True,
                       separators=(",", ":"))
    with open(path, "w") as f:
        f.write(f'{{"displayTimeUnit":"ms","otherData":{other},"traceEvents":[')
        for i in range(0, len(rows), _EXPORT_CHUNK):
            events = [_trace_event(ts, tid, name, ci, r, to_us)
                      for (ts, _, tid, name), ci, r in rows[i:i + _EXPORT_CHUNK]]
            f.write(("," if i else "") + ",".join(events))
        f.write("]}")


# The encoder's text for an event (compact separators) or a row (json.dumps's
# default ones), keys sorted: strings through its escaper, numbers through %r
# (int.__repr__ and float.__repr__, as the encoder writes them; %d would
# truncate a float).  tests/support.py keeps the dict writers these must match.
_esc = json.encoder.encode_basestring_ascii
_EXPORT_CHUNK = 1024  # event or row texts export_trace and trace_digest build at a time
_TASK_EVENT = ('{"args":{"cycles":%r,"layer":%r,"macs":%r,"request":%r},"cat":%s,'
               '"dur":%r,"name":%s,"ph":"X","pid":%r,"tid":%s,"ts":%r}')
_MEMORY_EVENT = ('{"args":{"bytes":%r,"key":%s},"cat":"memory","dur":%r,"name":%s,'
                 '"ph":"X","pid":%r,"tid":%s,"ts":%r}')
_DECISION = ('{"processor": %s, "queue": %r, "t_comp": %r, "t_end": %r, "t_idle": %r, '
             '"t_mem": %r, "t_proc": %r, "t_start": %r, "t_task": %r, "task": %s, '
             '"time": %r}')
_EXECUTION = ('{"act_in_bytes": %r, "act_out_bytes": %r, "cluster": %r, "deps": [%s], '
              '"layer_id": %r, "macs": %r, "op": %s, "param_bytes": %r, "queue": %r, '
              '"request_id": %r, "resource": %s, "resource_kind": %s, "resource_size": %r, '
              '"t_end": %r, "t_start": %r, "task_id": %s, "vector_counts": {%s}}')
_TRANSFER = '{"bytes": %r, "cluster": %r, "key": %s, "kind": %s, "t_end": %r, "t_start": %r}'
_RESIDENCY = '{"cluster": %r, "delta": %r, "key": %s, "time": %r}'
_REQUEST = ('{"arrival": %r, "cluster": %r, "completed": %r, "dispatched": %r, '
            '"model": %s, "request_id": %r}')


def _trace_event(ts: float, tid: str, name: str, ci: int, r, to_us: float) -> str:
    if isinstance(r, MemAction):
        return _MEMORY_EVENT % (r.bytes, _esc(str(r.key)), (r.end - r.start) * to_us,
                                _esc(name), ci, _esc(tid), ts)
    task, cycles = r.task, r.t_end - r.t_start
    return _TASK_EVENT % (cycles, task.layer_id, task.cost.macs, task.request_id,
                          _esc(task.cost.op.name), cycles * to_us, _esc(name), ci,
                          _esc(tid), ts)


def _decision_texts(trace: TraceLog):
    for p in sorted(trace.executions, key=attrgetter("cluster")):
        yield _DECISION % (_esc(p.proc.name), p.queue, p.t_comp, p.t_end, p.t_idle, p.t_mem,
                           p.t_proc, p.t_start, p.t_task, _esc(p.task.task_id), p.t_start)


def _execution_text(p: Placement) -> str:
    task, proc, cost = p.task, p.proc, p.task.cost
    vec = VECTOR_OPS.get(cost.op)
    return _EXECUTION % (
        cost.act_in_bytes, cost.act_out_bytes, p.cluster, ", ".join(map(_esc, task.deps)),
        task.layer_id, cost.macs, _esc(cost.op.name), cost.param_bytes, p.queue,
        task.request_id, _esc(proc.name), _esc(proc.kind), proc.size, p.t_end, p.t_start,
        _esc(task.task_id), f"{_esc(vec.name)}: {cost.vector_ops!r}" if vec else "")


def write_decisions(trace: TraceLog, path: str) -> None:
    """Write the scheduler's estimates behind each placement as JSON lines,
    clusters in order, each in commit order, as ``json.dumps(row, sort_keys=True)``."""
    with open(path, "w") as f:
        f.writelines(text + "\n" for text in _decision_texts(trace))


def trace_digest(trace: TraceLog) -> str:
    """sha256 of ``json.dumps(trace_to_dict(trace), sort_keys=True)`` (see tests/support.py),
    streamed from the row templates a chunk of rows at a time."""
    ex = trace.executions
    h = hashlib.sha256()
    for head, texts in (
            ('{"decisions": [', _decision_texts(trace)),
            ('], "executions": [', map(_execution_text, ex)),
            (f'], "meta": {json.dumps(trace.meta, sort_keys=True)}, "requests": [',
             (_REQUEST % (r.arrival, r.cluster, r.completed, r.dispatched, _esc(r.model),
                          r.request_id) for r in trace.requests)),
            ('], "residency": [', (_RESIDENCY % (ci, delta, _esc(str(key)), t)
                                   for ci, t, delta, key in _residency_deltas(ex))),
            ('], "transfers": [', (_TRANSFER % (a.bytes, p.cluster, _esc(str(a.key)),
                                                _esc(a.kind), a.end, a.start)
                                   for p in ex for a in p.actions if a.kind != "flush"))):
        h.update(head.encode())
        sep = ""
        while chunk := list(islice(texts, _EXPORT_CHUNK)):
            h.update((sep + ", ".join(chunk)).encode())
            sep = ", "
    h.update(b"]}")
    return h.hexdigest()


def verify_trace(trace: TraceLog, hw: HardwareConfig) -> list[str]:
    """Replay checker: processor exclusivity, HBM channel serialisation, then per
    placement in record order class eligibility (arrays run only matrix work), its
    duration on its processor, memory actions ending by its start and dependencies
    executed and ended by then; then request completion at its last task's end, a
    cluster the config has, shared-memory capacity and a negative final residency,
    clusters in order.
    Returns the violations in that order (empty = clean)."""
    busy, channel, placed, memory = [], [], [], []  # returned in this order
    ex = trace.executions
    end_by_task = {p.task.task_id: p.t_end for p in ex}
    last_end: dict[int, int] = {}
    by_cluster: dict[int, list[Placement]] = {}
    for p in ex:
        task, proc, t_start, t_end = p.task, p.proc, p.t_start, p.t_end
        by_cluster.setdefault(p.cluster, []).append(p)
        if last_end.get(task.request_id, t_end) <= t_end:
            last_end[task.request_id] = t_end
        if proc.kind == "array" and task.cost.op not in MATRIX_OPS:
            placed.append(f"cluster{p.cluster}/{proc.name}: {task.task_id} "
                          f"runs non-matrix {task.cost.op.name}")
        else:  # an array has no cycle count for non-matrix work; the cycles are
            # recomputed, never read from the task (a cache would cost more than it saves)
            want = task_cycles(task.cost, proc.kind, proc.size)
            if t_end - t_start != want:
                placed.append(f"{task.task_id}: runs {t_end - t_start} cycles on "
                              f"{proc.name}, its cost takes {want}")
        for a in p.actions:
            if a.end > t_start:
                placed.append(f"{task.task_id}: {a.kind} of {a.key} ends at {a.end}, "
                              f"after the task starts at {t_start}")
        for dep in task.deps:
            dep_end = end_by_task.get(dep)
            if dep_end is None:
                placed.append(f"{task.task_id}: dependency {dep} never executed")
            elif t_start < dep_end:
                placed.append(f"{task.task_id} starts at {t_start} before dependency "
                              f"{dep} ends at {dep_end}")
    for r in trace.requests:
        if r.completed >= 0 and r.completed != last_end.get(r.request_id):
            placed.append(f"request {r.request_id}: completed at {r.completed}, "
                          f"its last task ends at {last_end.get(r.request_id)}")

    for ci, cluster in sorted(by_cluster.items()):  # one walk of each cluster's actions
        by_proc: dict[str, list[Placement]] = {}
        spans, order, deltas = [], [], []  # order: time << 1 | allocation
        for p in cluster:  # the changes _residency_deltas yields, in its order
            by_proc.setdefault(p.proc.name, []).append(p)
            for a in p.actions:
                if a.kind == "flush":
                    t, d = a.end, -a.bytes
                else:
                    spans.append((a.start, a.end))
                    t, d = (a.end, -a.bytes) if a.kind == "write_act" else (a.start, a.bytes)
                order.append(t << 1 | (d > 0))
                deltas.append(d)
            if out := p.task.act_out_key:
                order.append(p.t_start << 1 | (out[1] > 0))
                deltas.append(out[1])
        for res, on_proc in sorted(by_proc.items()):
            on_proc.sort(key=attrgetter("t_start", "t_end"))
            busy += [f"cluster{ci}/{res}: {b.task.task_id} starts at {b.t_start} before "
                     f"{a.task.task_id} ends at {a.t_end}"
                     for a, b in zip(on_proc, on_proc[1:]) if b.t_start < a.t_end]
        # records sharing (start, end) are one fetch chunk split across keys, so
        # only distinct intervals must not overlap; sorted, overlaps are neighbours
        spans.sort()
        channel += [f"cluster{ci}/hbm: transfer [{s2}, {e2}) overlaps [{s1}, {e1})"
                    for (s1, e1), (s2, e2) in zip(spans, spans[1:])
                    if s2 < e1 and (s1, e1) != (s2, e2)]
        if not 0 <= ci < len(hw.clusters):  # no capacity to check against
            memory.append(f"cluster{ci}: not one of the config's {len(hw.clusters)} clusters")
            continue
        if not deltas:
            continue
        cap = hw.clusters[ci].shared_mem_bytes
        # a cycle's level falls through its releases, then rises through its allocations,
        # so it passes cap here iff in the order reported: cycle, delta, record order
        if max(accumulate(map(deltas.__getitem__,
                              sorted(range(len(order)), key=order.__getitem__)))) > cap:
            level = 0
            for _, t, delta, key in sorted(_residency_deltas(cluster), key=itemgetter(1, 2)):
                level += delta
                if level > cap:
                    memory.append(f"cluster{ci}: shared memory at {level} B > {cap} B "
                                  f"at cycle {t} ({key})")
        if sum(deltas) < 0:
            memory.append(f"cluster{ci}: negative residency at end ({sum(deltas)})")
    return busy + channel + placed + memory
