"""Outside-in instrumentation of svsim: nothing here edits ``src/``.

``RunProbe`` times every ``simulation.run`` call.  It is on in every pass,
traced or not, because it is how the benchmark sees per-simulation host
time; its bookkeeping is one clock pair and one append per call.  Calls made
in forked sweep pool workers append a line to a spool file instead, which
the parent reads after the pass.  In untraced runs it also times one
``speed_chunk`` right after each call, in the same process, so that every
call has a sample of the host's speed on either side of it.

``Tracer`` wraps the public functions of ``svsim.models``, ``svsim.costs``,
``svsim.scheduling``, ``svsim.simulation`` and ``svsim.cli`` at the module
globals, dict entries and class attributes through which the simulator
looks them up at call time.  It keeps per-name aggregates (calls, inclusive
time, self time = inclusive minus child spans) and the coarse spans in
memory, and the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import heapq
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

# spans kept individually (the rest are aggregated only)
RECORDED_SPANS = frozenset({
    "models.builtin_model", "simulation.run", "simulation.compute_report",
    "simulation.export_trace", "simulation.verify_trace", "cli.run_sweep",
    "cli.simulate"})


# speed_chunk() on the host that recorded perfbench/recorded_runs.json
SPEED_CHUNK_REF_S = 0.0134


def speed_chunk() -> float:
    """Seconds a fixed pure-Python job takes now.  It does dict, tuple and
    heap work like the simulator's but shares none of its code, so it moves
    only with the host's speed."""
    t0 = perf_counter()
    counts: dict[int, int] = {}
    heap: list[tuple[int, int]] = []
    for i in range(15_000):
        key = i * 7919 % 10007
        counts[key] = counts.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    return perf_counter() - t0


class Sim(NamedTuple):
    """One ``simulation.run`` call as the probe saw it."""
    host_s: float
    tasks: int
    done: bool  # every request completed
    speed: float  # reference-host seconds per host second around the call
    chunk_s: float  # time of the speed chunk, spent inside the caller's timing


class RunProbe:
    """Records a ``Sim`` per ``simulation.run`` call (speed 1.0 and no
    chunk when the host's speed is not sampled)."""

    def __init__(self, simulation, spool_dir: str, sample_speed: bool):
        self.simulation = simulation
        self.spool_dir = spool_dir
        self.sample_speed = sample_speed
        self.owner = os.getpid()
        self.records: list[Sim] = []
        self.last_chunk = 0.0
        self.calls: list[tuple[tuple, object]] = []  # (args, trace), in-process only

    @contextmanager
    def installed(self):
        inner = self.simulation.run
        probe = self
        if self.sample_speed:
            self.last_chunk = speed_chunk()

        @functools.wraps(inner)
        def run(*args, **kwargs):
            t0 = perf_counter()
            trace, report = inner(*args, **kwargs)
            dt = perf_counter() - t0
            done = all(r.completed >= 0 for r in trace.requests)
            speed, chunk = 1.0, 0.0
            if probe.sample_speed:
                chunk = speed_chunk()
                speed = 2 * SPEED_CHUNK_REF_S / (probe.last_chunk + chunk)
                probe.last_chunk = chunk
            sim = Sim(dt, len(trace.executions), done, speed, chunk)
            if os.getpid() == probe.owner:
                probe.records.append(sim)
                probe.calls.append((args, trace))
            else:
                path = os.path.join(probe.spool_dir, f"{os.getpid()}.txt")
                with open(path, "a") as f:
                    f.write(" ".join(repr(v) for v in sim) + "\n")
            return trace, report

        self.simulation.run = run
        try:
            yield self
        finally:
            self.simulation.run = inner

    def take(self) -> tuple[list[Sim], list[tuple[tuple, object]]]:
        """Records and in-process calls since the last take, spool included."""
        records, calls = self.records, self.calls
        self.records, self.calls = [], []
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path) as f:
                for line in f:
                    dt, tasks, done, speed, chunk = line.split()
                    records.append(Sim(float(dt), int(tasks), done == "True",
                                       float(speed), float(chunk)))
            os.remove(path)
        return records, calls


class Tracer:
    def __init__(self, m):
        self.m = m
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counters: Counter = Counter()
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []  # [child_s, span_id or None]

    def reset(self) -> tuple[dict, Counter]:
        """Hand over the aggregates so far and start new ones."""
        out = (self.stats, self.counters)
        self.stats, self.counters = {}, Counter()
        return out

    def timed(self, name: str, fn, on_exit=None):
        stack = self._stack
        record = name in RECORDED_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, len(self.spans) if record else None]
            if record:
                self.spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                st = self.stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if record:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    self.spans[frame[1]] = (frame[1], name, t0, t1, parent)
            if on_exit is not None:
                on_exit(args, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _policy(self, fn, no_ready_error):
        counters = self.counters

        @functools.wraps(fn)
        def policy(*args, **kwargs):
            try:
                placement = fn(*args, **kwargs)
            except no_ready_error:
                counters["scheduling.policy.no_ready"] += 1
                raise
            counters["scheduling.policy.placements"] += 1
            return placement
        return self.timed("scheduling.policy", policy)

    def _export_bytes(self, args, _result):
        self.counters["simulation.export_trace.bytes"] += os.path.getsize(args[1])

    @contextmanager
    def installed(self):
        m = self.m
        sim, sch, cli = m.simulation, m.scheduling, m.cli
        builtin = self.timed("models.builtin_model", m.models.builtin_model)
        patches = [
            (m.models, "builtin_model", builtin),
            (sim, "builtin_model", builtin),
            (sch, "layer_cost", self.timed("costs.layer_cost", sch.layer_cost)),
            (sch, "task_cycles", self.counted("costs.task_cycles", sch.task_cycles)),
            (sch, "mem_transfer_cycles",
             self.counted("costs.mem_transfer_cycles", sch.mem_transfer_cycles)),
            (sch.ClusterTable, "plan_memory",
             self.timed("scheduling.plan_memory", sch.ClusterTable.plan_memory)),
            (sch.ClusterTable, "commit",
             self.timed("scheduling.commit", sch.ClusterTable.commit)),
            (sim, "build_request_tasks",
             self.timed("scheduling.build_request_tasks", sim.build_request_tasks)),
            (sim, "load_balance", self.counted("scheduling.load_balance", sim.load_balance)),
            (sim, "run", self.timed("simulation.run", sim.run)),
            (sim, "compute_report", self.timed("simulation.compute_report", sim.compute_report)),
            (sim, "export_trace", self.timed("simulation.export_trace", sim.export_trace,
                                             self._export_bytes)),
            (sim, "verify_trace", self.timed("simulation.verify_trace", sim.verify_trace)),
            (sim, "trace_digest", self.timed("simulation.trace_digest", sim.trace_digest)),
            (cli, "run_sweep", self.timed("cli.run_sweep", cli.run_sweep)),
            (cli, "main", self.timed("cli.simulate", cli.main)),
        ]
        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
        # the engine reads SCHEDULERS[name] on every run; the dict is shared
        policies = dict(sch.SCHEDULERS)
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            for name, fn in policies.items():
                sch.SCHEDULERS[name] = self._policy(fn, sch.NoReadyTask)
            yield self
        finally:
            sch.SCHEDULERS.update(policies)
            for obj, attr, old in saved:
                setattr(obj, attr, old)
