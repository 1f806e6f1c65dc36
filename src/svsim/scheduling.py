"""Task queues, sub-layer partitioning, and the cluster schedulers.

A cluster owns a scheduling table: per-processor reservations, per-queue
task lists (one queue per in-flight request), a shared-memory residency map,
and the external-memory channel horizon.  Two policies operate on it:

* round-robin: circular scan over the queues; a head task is bound to an
  idle processor of its dedicated class without consulting any task
  characteristics, so array work never runs on vector processors and the
  bound processor waits in place for operands.
* heterogeneity-aware: for every ready queue head, estimate memory-ready
  time, dependency time and processor availability, nominate the processor
  class with the earliest finish (vector processors may take matrix work
  while spare), and place the candidate whose nominated processor would
  idle least.  Ties fall back to round-robin order.

External memory accesses are planned against the residency map: parameters
already resident are reused (keyed by model, so requests sharing a DNN share
weights), otherwise the plan fetches into free space, waiting on and
flushing entries whose users have finished, spilling unconsumed activations
back to external memory when space is still short.  All transfers serialize
on the cluster's channel.
"""

from __future__ import annotations

import bisect
import itertools
import math
import weakref
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

from .costs import (VECTOR_OPS, TaskCost, layer_cost, mem_transfer_cycles,
                    task_cycles)
from .hardware import ClusterConfig, HardwareConfig
from .models import MATRIX_OPS, LayerNode, ModelGraph, OpType


class SchedulingError(Exception):
    pass


class NoReadyTask(SchedulingError):
    """No queue head can be placed now.  ``not_before`` is the earliest
    cycle at which one could be if the table stays unchanged (``math.inf``:
    not until it changes); the engine wakes the cluster at that cycle.
    ``has_schedule`` whose placement leaves nothing ready sets
    ``ClusterTable.wake`` to that cycle instead of raising on a second call."""

    def __init__(self, message: str, not_before: float):
        super().__init__(message)
        self.not_before = not_before


class UnpartitionableLayer(SchedulingError):
    pass


class CapacityDeadlock(SchedulingError):
    pass


class StalledRun(SchedulingError):
    """A run ended with queued tasks or requests that never completed."""


# ---------------------------------------------------------------------------
# sub-layer tasks

@dataclass(frozen=True, slots=True)
class SubLayerTask:
    task_id: str
    request_id: int
    layer_id: int
    cost: TaskCost
    deps: tuple[str, ...]
    param_keys: tuple[tuple[tuple, int], ...]   # (residency key, bytes)
    act_in_keys: tuple[tuple[tuple, int], ...]
    act_out_key: tuple[tuple, int] | None
    # cycles per Processor.cycle_key; the template slice's dict, shared by all its tasks
    _cycles: dict = field(repr=False, compare=False)

    def cycles_on(self, proc: Processor) -> int:
        cycles = self._cycles.get(proc.cycle_key)
        if cycles is None:
            cycles = self._cycles[proc.cycle_key] = task_cycles(self.cost, proc.kind, proc.size)
        return cycles


def _split_units(total: int, n: int) -> list[int]:
    base, rem = divmod(total, n)
    return [base + (1 if i < rem else 0) for i in range(n)]


def _split_bytes(total: int, units: list[int]) -> list[int]:
    whole = sum(units)
    out = [total * u // whole for u in units]
    out[-1] += total - sum(out)
    return out


@dataclass(frozen=True)
class LayerSlice:
    cost: TaskCost
    weight_bytes: tuple[int, ...]  # per weight tensor of the parent layer


def _slice_layer(layer: LayerNode, cost: TaskCost, n: int) -> list[LayerSlice]:
    """Split a layer into n slices; MACs, element counts and bytes are conserved."""
    if n == 1:
        return [LayerSlice(cost, tuple(t.byte_size for t in layer.weight_inputs))]
    if cost.matrix is not None:
        m, k, nn, groups = cost.matrix
        axis_total = groups if groups > 1 else nn
        units = _split_units(axis_total, n)
        w_shares = [_split_bytes(t.byte_size, units) for t in layer.weight_inputs]
        outs = _split_bytes(cost.act_out_bytes, units)
        # grouped convolutions also split their input channels per slice
        ins = (_split_bytes(cost.act_in_bytes, units) if groups > 1
               else [cost.act_in_bytes] * n)
        slices = []
        for i, u in enumerate(units):
            dims = (m, k, u, 1) if groups == 1 else (m, k, nn, u)
            params = sum(w[i] for w in w_shares)
            slices.append(LayerSlice(
                TaskCost(cost.op, macs=m * k * dims[2] * dims[3], matrix=dims,
                         param_bytes=params, act_in_bytes=ins[i],
                         act_out_bytes=outs[i]),
                tuple(w[i] for w in w_shares)))
        return slices
    total_units = max(cost.softmax_rows, cost.vector_ops, cost.act_out_bytes, 1)
    units = _split_units(total_units, n)
    ins = _split_bytes(cost.act_in_bytes, units)
    outs = _split_bytes(cost.act_out_bytes, units)
    op_shares = _split_bytes(cost.vector_ops, units)
    rows = _split_units(cost.softmax_rows, n) if cost.softmax_rows else [0] * n
    w_bytes = tuple(t.byte_size for t in layer.weight_inputs)
    slices = []
    for i in range(n):
        # small per-channel parameters are shared by every slice
        slices.append(LayerSlice(
            TaskCost(cost.op, vector_ops=op_shares[i],
                     softmax_rows=rows[i], softmax_width=cost.softmax_width,
                     param_bytes=cost.param_bytes, act_in_bytes=ins[i],
                     act_out_bytes=outs[i]),
            w_bytes))
    return slices


# the working-set budget of a task, as a fraction of its cluster's shared memory
ALPHA = 0.5


def partition_layer(layer: LayerNode, cluster: ClusterConfig) -> list[LayerSlice]:
    """Split a layer until every slice's working set fits ALPHA * SM_SIZE.

    Matrix layers slice along output columns/channels (weights split, input
    shared) so each slice keeps its weights resident for its whole run;
    grouped convolutions slice along groups; vector and data layers slice
    along their elements.
    """
    cost = layer_cost(layer)
    cap = int(ALPHA * cluster.shared_mem_bytes)
    ws = cost.param_bytes + cost.act_in_bytes + cost.act_out_bytes
    if ws <= cap:
        return _slice_layer(layer, cost, 1)

    if cost.matrix is not None and cost.matrix[3] == 1:
        shared = cost.act_in_bytes
        split = cost.param_bytes + cost.act_out_bytes
        if cap <= shared:
            raise UnpartitionableLayer(
                f"layer {layer.name}: shared input of {shared} B exceeds "
                f"the {cap} B working-set budget")
        n_min = math.ceil(split / (cap - shared))
        axis_limit = cost.matrix[2]
    elif cost.matrix is not None:
        n_min = math.ceil(ws / cap)
        axis_limit = cost.matrix[3]
    else:
        if cap <= cost.param_bytes:
            raise UnpartitionableLayer(
                f"layer {layer.name}: parameters alone exceed the budget")
        n_min = math.ceil((cost.act_in_bytes + cost.act_out_bytes)
                          / (cap - cost.param_bytes))
        axis_limit = max(cost.act_out_bytes, 1)

    n = min(max(n_min, 2), axis_limit)
    while True:
        slices = _slice_layer(layer, cost, n)
        if all(s.cost.param_bytes + s.cost.act_in_bytes + s.cost.act_out_bytes <= cap
               for s in slices):
            return slices
        if n >= axis_limit:
            raise UnpartitionableLayer(
                f"layer {layer.name}: a minimal slice still exceeds "
                f"{cap} B of shared memory")
        n = min(n * 2, axis_limit)


# per graph object, dropped with it: shared-memory size -> (layer templates,
# request id -> that request's tasks)
_TEMPLATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def build_request_tasks(graph: ModelGraph, request_id: int,
                        cluster: ClusterConfig) -> tuple[SubLayerTask, ...]:
    """Partition every layer of a request into dependency-wired tasks.

    Parameter residency keys are a pure function of (graph name, tensor,
    slice), so repeated requests of the same model hit the same shared-memory
    entries; activations are keyed per request.

    Each layer's slices, parameter keys and cycle counts are a template
    built once per process for (graph object, shared-memory size),
    everything the partitioner reads, and dropped with the graph.  So is
    each request id's task tuple: a run never writes to a task, and every
    run in the process shares it.
    """
    plans = _TEMPLATES.setdefault(graph, {})
    entry = plans.get(cluster.shared_mem_bytes)
    if entry is None:
        entry = plans[cluster.shared_mem_bytes] = (
            [_layer_plan(layer, cluster, graph) for layer in graph.layers], {})
    layers, requests = entry
    if request_id in requests:
        return requests[request_id]
    rtag = f"r{request_id}"
    tasks: list[SubLayerTask] = []
    layer_task_ids: dict[int, list[str]] = {}
    layer_act_keys: dict[int, list[tuple[tuple, int]]] = {}

    for layer, ext_in, slices in layers:
        dep_ids: list[str] = []
        in_keys: list[tuple[tuple, int]] = []
        for p in layer.predecessors:
            dep_ids.extend(layer_task_ids[p])
            in_keys.extend(layer_act_keys[p])
        in_keys.extend((("a", rtag, -1, x), b) for x, b in ext_in)
        deps = tuple(dep_ids)
        act_in = tuple(in_keys)
        out_keys: list[tuple[tuple, int]] = []
        ids: list[str] = []
        for i, (cost, pk, cycles) in enumerate(slices):
            task_id = f"{rtag}/L{layer.layer_id}/s{i}"
            out_key = None
            if cost.act_out_bytes:
                out_key = (("a", rtag, layer.layer_id, i), cost.act_out_bytes)
                out_keys.append(out_key)
            tasks.append(SubLayerTask(task_id, request_id, layer.layer_id, cost,
                                      deps, pk, act_in, out_key, cycles))
            ids.append(task_id)
        layer_task_ids[layer.layer_id] = ids
        layer_act_keys[layer.layer_id] = out_keys
    built = requests[request_id] = tuple(tasks)
    return built


def _layer_plan(layer: LayerNode, cluster: ClusterConfig, graph: ModelGraph) -> tuple:
    """A layer's template: its graph inputs as (input index, bytes), and per
    slice its cost, parameter residency keys and cycle counts."""
    slices = partition_layer(layer, cluster)
    n = len(slices)
    weight_ids = [t.tensor_id for t in layer.weight_inputs]
    ext_ids = {t.tensor_id: i for i, t in enumerate(graph.inputs)}
    ext_in = tuple((ext_ids[t.tensor_id], t.byte_size)
                   for t in layer.activation_inputs if t.tensor_id in ext_ids)
    return layer, ext_in, [
        (sl.cost, tuple((("w", graph.name, tid, i if n > 1 else 0), b)
                        for tid, b in zip(weight_ids, sl.weight_bytes) if b), {})
        for i, sl in enumerate(slices)]


# ---------------------------------------------------------------------------
# scheduling table

@dataclass(slots=True)
class Processor:
    name: str
    kind: str  # "array" | "vector"
    size: int  # PE dim of an array, lane count of a vector processor
    cycle_key: tuple  # (kind, size): all a task's cycles read
    busy_until: int = 0


@dataclass(slots=True)
class ResidencyEntry:
    key: tuple
    bytes: int
    kind: str  # "param" | "act"
    ready: int
    avail: int  # latest end among scheduled users
    seq: int = -1  # the seq of its live tuple in the table's eviction order (-1: none)


@dataclass(slots=True)
class MemAction:
    kind: str  # fetch_param | read_act | write_act | flush
    start: int
    end: int
    bytes: int
    key: tuple


@dataclass(slots=True)
class Placement:
    task: SubLayerTask
    proc: Processor
    queue: int
    t_mem: int
    t_task: int
    t_proc: int
    t_start: int
    t_comp: int
    t_end: int
    t_idle: int
    actions: tuple[MemAction, ...]  # memory actions, in channel order
    cluster: int = -1  # set when the engine records the placement


class ClusterTable:
    """Scheduling table of one cluster: reservations, queues, residency."""

    def __init__(self, cluster: ClusterConfig, hw: HardwareConfig):
        self.cluster = cluster
        self.hw = hw
        self.of_kind = {kind: [Processor(f"{kind}{i}", kind, size, (kind, size))
                               for i, size in enumerate(sizes)]
                        for kind, sizes in (("array", cluster.arrays),
                                            ("vector", cluster.vectors))}
        # per kind: the processor that frees first (ties: lowest index); kept by commit
        self.free = {kind: procs[0] for kind, procs in self.of_kind.items()}
        nq = cluster.num_task_queues
        self.queues: list[deque[SubLayerTask]] = [deque() for _ in range(nq)]
        self.queue_request: list[int | None] = [None] * nq
        # per queue: latest start and latest end among its head's
        # dependencies, taken when the task became head
        self.head_bounds: list[tuple[int, int]] = [(0, 0)] * nq
        # the cycle before which a policy call finds nothing to place: the
        # engine sets it from a dry call, has_schedule from a placement that
        # leaves nothing ready; every change a policy reads (admission,
        # commit) clears it, and a release changes nothing a policy reads
        self.wake = -math.inf
        self.rr_ptr = 0
        self.residency: dict[tuple, ResidencyEntry] = {}
        self.used_bytes = 0
        # committed releases whose bytes stay physically occupied until a
        # future timestamp; planning must not hand them out early
        self.pending_releases: list[tuple[int, int]] = []
        self.channel_free = 0
        self.pending_uses: dict[tuple, int] = {}
        # the eviction order, kept between placements: a list of (latest user
        # end, key, seq, entry) sorted as tuples, with one live tuple, the one
        # whose seq is its entry's, for each resident activation and each
        # resident parameter no queued task wants; planning reads it in place,
        # and commit drops the dead tuples once it holds over twice the residents
        self.evictable: list[tuple] = []
        self._seq = itertools.count()
        self.placed: dict[str, Placement] = {}  # task id -> its committed placement

    # -- request admission ---------------------------------------------------

    def enqueue_request(self, request_id: int, tasks: list[SubLayerTask]) -> int:
        q = self.queue_request.index(None)
        self.queue_request[q] = request_id
        res, uses = self.residency, self.pending_uses
        for t in tasks:
            self.queues[q].append(t)
            for key, _ in t.param_keys + t.act_in_keys:
                n = uses[key] = uses.get(key, 0) + 1
                if n == 1:
                    e = res.get(key)
                    if e is not None and e.kind == "param":
                        e.seq = -1  # a wanted parameter leaves the eviction order
        self._take_head_bounds(q)
        self.wake = -math.inf
        return q

    def release_request(self, request_id: int) -> None:
        q = self.queue_request.index(request_id)
        self.queue_request[q] = None

    # -- table lookups ---------------------------------------------------------

    def _take_head_bounds(self, q: int) -> None:
        """Store the latest start and latest end among the dependencies of
        queue ``q``'s head.  A task's dependencies come before it in its own
        queue, so they are committed by the time it is head, and the two
        bounds are taken once, when it becomes head."""
        queue = self.queues[q]
        if queue:
            start = end = 0
            placed = self.placed
            for d in queue[0].deps:
                p = placed[d]
                if p.t_start > start:
                    start = p.t_start
                if p.t_end > end:
                    end = p.t_end
            self.head_bounds[q] = (start, end)

    # -- external memory access scheduling ------------------------------------

    def plan_memory(self, task: SubLayerTask, now: int) -> tuple[int, tuple[MemAction, ...]]:
        """Ready time for a task's parameters and activations, and the
        memory actions that make them ready, in channel order.

        Follows the residency-first rule: parameters already in shared
        memory are reused; otherwise fetch into free capacity, then walk the
        scheduled users in end-time order, flushing dead entries and
        spilling unconsumed activations until the remaining bytes fit.
        """
        res = self.residency
        missing_params: list[tuple[tuple, int]] = []
        fetch_total = param_ready = 0
        for k, b in task.param_keys:
            e = res.get(k)
            if e is None:
                missing_params.append((k, b))
                fetch_total += b
            elif e.ready > param_ready:
                param_ready = e.ready
        missing_acts = []
        a_size = 0
        for k, b in task.act_in_keys:
            if k not in res:
                missing_acts.append((k, b))
                a_size += b
        out_bytes = task.act_out_key[1] if task.act_out_key else 0

        releases = self.pending_releases
        if releases and releases[0][0] <= now:
            del releases[:bisect.bisect_right(releases, (now, math.inf))]
        free = self.cluster.shared_mem_bytes - self.used_bytes
        need = fetch_total + a_size + out_bytes
        actions: list[MemAction] = []

        if fetch_total == 0 and a_size == 0:
            # no transfers: only the output needs space, which may have to
            # wait for already-committed releases to take effect
            still_held = sum(b for _, b in releases)
            if need <= free - still_held:
                return param_ready, ()
            ready = param_ready
            for t_rel, b in releases:
                still_held -= b
                ready = max(ready, t_rel)
                if need <= free - still_held:
                    return ready, ()
            # falls through: eviction is required to place the output

        # transfers start no earlier than the policy call that requests them
        t = max(self.channel_free, now)
        remaining = fetch_total
        goal_extra = a_size + out_bytes
        i = part = 0  # the next missing parameter, and its bytes already fetched
        victims = wanted = None
        while True:
            # fetch what fits, then evict the next resident until all fits
            amt = min(free, remaining)
            if amt > 0:
                dt = mem_transfer_cycles(amt, self.hw)
                free -= amt
                remaining -= amt
                while amt:  # the chunk's bytes go to the missing keys in order
                    k, b = missing_params[i]
                    b -= part
                    if b > amt:  # the rest of this key goes in a later chunk
                        part += amt
                        b = amt
                    else:
                        i += 1
                        part = 0
                    actions.append(MemAction("fetch_param", t, t + dt, b, k))
                    amt -= b
                t += dt
            if remaining == 0 and free >= goal_extra:
                break
            if victims is None:
                protected = {k for k, _ in task.param_keys} | {k for k, _ in task.act_in_keys}
                victims = iter(self.evictable)
                uses = self.pending_uses
            # the next unprotected resident: live tuples of the kept order in
            # place, then the still wanted parameters in that order
            for _, key, seq, e in victims:
                if e.seq == seq and key not in protected:
                    break
            else:
                if wanted is not None:
                    raise CapacityDeadlock(
                        f"task {task.task_id}: cannot free {need} B of shared "
                        f"memory (short {remaining + max(goal_extra - free, 0)} B)")
                wanted = sorted((e.avail, e.key, e.seq, e) for e in res.values()
                                if e.kind == "param" and e.key in uses)
                victims = iter(wanted)
                continue
            t = max(t, e.avail)
            if e.kind == "act" and key in uses:
                dt = mem_transfer_cycles(e.bytes, self.hw)
                actions.append(MemAction("write_act", t, t + dt, e.bytes, e.key))
                t += dt
            else:
                actions.append(MemAction("flush", t, t, e.bytes, e.key))
            free += e.bytes
        if a_size:
            dt = mem_transfer_cycles(a_size, self.hw)
            for k, b in missing_acts:
                actions.append(MemAction("read_act", t, t + dt, b, k))
            t += dt
        return max(t, param_ready), tuple(actions)

    def _push(self, e: ResidencyEntry) -> None:
        """Give ``e`` a live tuple in the eviction order, inserted in place;
        seqs are unique, so no comparison reaches the entry."""
        e.seq = seq = next(self._seq)
        bisect.insort(self.evictable, (e.avail, e.key, seq, e))

    def commit(self, placement: Placement) -> None:
        task = placement.task
        res, uses = self.residency, self.pending_uses
        t_end = placement.t_end
        for a in placement.actions:
            if a.kind in ("flush", "write_act"):  # frees its bytes at its end
                e = res.pop(a.key)
                e.seq = -1
                self.used_bytes -= e.bytes
                bisect.insort(self.pending_releases, (a.end, e.bytes))
            else:
                e = res.get(a.key)
                if e is None:
                    res[a.key] = ResidencyEntry(
                        a.key, a.bytes, "param" if a.kind == "fetch_param" else "act",
                        a.end, t_end)
                else:  # a split fetch of one tensor accumulates
                    e.bytes += a.bytes
                    if a.end > e.ready:
                        e.ready = a.end
                self.used_bytes += a.bytes
        if task.act_out_key:
            key, b = task.act_out_key
            res[key] = e = ResidencyEntry(key, b, "act", t_end, t_end)
            self.used_bytes += b
            self._push(e)
        for keys in (task.param_keys, task.act_in_keys):
            for key, _ in keys:
                n = uses[key] = uses.get(key, 1) - 1
                if n <= 0:
                    del uses[key]
                e = res.get(key)
                if e is not None:
                    if e.avail < t_end:
                        e.avail = t_end
                        e.seq = -1
                    # new, moved or no longer wanted: it takes a new tuple
                    if e.seq < 0 and (n <= 0 or e.kind == "act"):
                        self._push(e)
        if len(self.evictable) > 2 * len(res):
            self.evictable = [t for t in self.evictable if t[3].seq == t[2]]
        # actions are in channel order: the last one ends latest
        if placement.actions and placement.actions[-1].end > self.channel_free:
            self.channel_free = placement.actions[-1].end

        proc = placement.proc
        proc.busy_until = t_end
        self.free[proc.kind] = min(self.of_kind[proc.kind], key=attrgetter("busy_until"))
        self.placed[task.task_id] = placement
        self.queues[placement.queue].popleft()
        self._take_head_bounds(placement.queue)
        self.rr_ptr = (placement.queue + 1) % len(self.queues)
        self.wake = -math.inf


# ---------------------------------------------------------------------------
# policies

# kinds that may run an op, without and with vector slack: vector processors emulate
# matrix work, arrays run only matrix work; without slack, only the dedicated class
_KINDS = {op: ((("array",), ("vector", "array")) if op in MATRIX_OPS
               else (("vector",), ("vector",)))
          for op in OpType}


def _start(t_mem: int, t_task: int, proc: Processor, now: int) -> int:
    """The start rule: a task starts once its operands are in shared memory
    (``t_mem``), its dependencies have ended (``t_task``) and ``proc`` is
    free, and never before ``now``."""
    return max(t_mem, t_task, proc.busy_until, now)


def _estimate(table: ClusterTable, q: int, task: SubLayerTask, proc: Processor,
              plan: tuple, t_task: int, now: int) -> Placement:
    """Placement of queue ``q``'s head on ``proc`` by the start rule, its
    operands made ready by ``plan_memory``'s ``plan``."""
    t_mem, actions = plan
    t_proc = proc.busy_until
    t_start = _start(t_mem, t_task, proc, now)
    t_comp = task.cycles_on(proc)
    return Placement(task, proc, q, t_mem, t_task, t_proc, t_start,
                     t_comp, t_start + t_comp, t_start - t_proc, actions)


def has_schedule(table: ClusterTable, now: int) -> Placement:
    """One heterogeneity-aware placement: estimate, nominate, pick min idle.

    A head joins the candidate group once every dependency has started, so
    a successor can be bound (and its parameters prefetched) while its
    producer still runs, but the scheduler never reserves processors more
    than one dependency hop ahead of execution.

    Matrix work is offered to the vector class only while the candidate
    group's native vector demand leaves vector processors to spare;
    otherwise pending vector operations keep their dedicated processors and
    matrix work stays on the arrays.

    Candidates are ranked as plain numbers; only the winner's ``Placement``
    is built.  A placement that leaves nothing ready sets ``table.wake`` to
    the ``not_before`` a second call would raise, so no such call is made.
    """
    heads = []  # (queue, head, its op, latest end among its dependencies)
    not_before = math.inf
    vector_only = 0
    bounds = table.head_bounds
    for q, queue in enumerate(table.queues):
        if queue:
            dep_start, dep_end = bounds[q]
            if dep_start <= now:
                task = queue[0]
                op = task.cost.op
                heads.append((q, task, op, dep_end))
                if op in VECTOR_OPS:
                    vector_only += 1
            elif dep_start < not_before:
                not_before = dep_start
    if not heads:
        raise NoReadyTask("no candidate tasks", not_before)
    nq = len(table.queues)
    vector_slack = vector_only < len(table.of_kind["vector"])
    free, rr_ptr = table.free, table.rr_ptr
    best_idle = best_order = math.inf
    for q, task, op, t_task in heads:
        plan = table.plan_memory(task, now)
        t_mem = plan[0]
        t_end = math.inf
        for kind in _KINDS[op][vector_slack]:
            p = free[kind]
            s = _start(t_mem, t_task, p, now)
            e = s + task.cycles_on(p)
            if e <= t_end:  # the dedicated class, listed last, wins end-time ties
                proc, t_start, t_end = p, s, e
        idle = t_start - proc.busy_until
        order = (q - rr_ptr) % nq
        if idle < best_idle or (idle == best_idle and order < best_order):
            best_idle, best_order = idle, order
            best = (q, task, proc, plan, t_task)
    placement = _estimate(table, *best, now)
    table.commit(placement)
    if len(heads) == 1:
        # the one ready head was placed: a second call now finds nothing
        # ready unless the queue's new head is
        q = placement.queue
        dep_start = bounds[q][0] if table.queues[q] else math.inf
        if dep_start > now:
            table.wake = min(not_before, dep_start)
    return placement


def rr_schedule(table: ClusterTable, now: int) -> Placement:
    """One round-robin placement at ``now``.

    Scans queues circularly and binds the first head whose dedicated
    processor class has an idle instance; task characteristics are never
    consulted, so the bound processor simply waits in place for operands
    that are still being fetched or produced.
    """
    nq = len(table.queues)
    not_before = math.inf
    for i in range(nq):
        q = (table.rr_ptr + i) % nq
        queue = table.queues[q]
        if not queue:
            continue
        task = queue[0]
        proc = table.free[_KINDS[task.cost.op][False][0]]
        if proc.busy_until > now:
            not_before = min(not_before, proc.busy_until)
            continue
        placement = _estimate(table, q, task, proc, table.plan_memory(task, now),
                              table.head_bounds[q][1], now)
        table.commit(placement)
        return placement
    raise NoReadyTask("all queue heads blocked", not_before)


SCHEDULERS = {"rr": rr_schedule, "has": has_schedule}


def load_balance(in_flight: list[int], capacity: list[int]) -> int | None:
    """FIFO dispatch target: among the clusters below their own ``capacity``,
    the one with the fewest in-flight requests, ties to the lowest index.

    Returns None when every cluster is full (the request waits).
    """
    free = [i for i, n in enumerate(in_flight) if n < capacity[i]]
    return min(free, key=in_flight.__getitem__, default=None)  # min keeps the first tie
