"""Host-time benchmark of svsim.

    python3 perfbench/run.py --workload suite|sweep|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; svsim is imported from ``src/``.
Every time reported is host (wall-clock) time of the simulator; simulated
cycles, TOPS and energy only enter the correctness checks.

With ``--trace 0`` the run sets svsim up several times (``setup_s`` is the
median), then repeats closed-loop passes over the seed's inputs until S
seconds of passes and at least MIN_PASSES passes are done, and prints the
end-to-end metrics.  With ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics of perfbench/probes.py.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

Correctness: every simulation replays clean and completes every request;
each item's digest (suite trace digests, sweep result rows, serve output
files) repeats across passes and, at REFERENCE_SEED, equals the value
recorded in perfbench/reference.json; traced and untraced passes agree on
digests and simulated-machine counts.  A failed or mismatching item counts
in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import Counter
from time import perf_counter

import cases
from probes import SPEED_CHUNK_REF_S, RunProbe, Tracer, speed_chunk

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(cases.ROOT, ".perfbench_out")
REFERENCE_SEED = 1
SETUP_REPS = 11
MIN_PASSES = 4
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
SWEEP_WORKERS = min(2, os.cpu_count() or 1)

E2E_UNITS = {"wall_s": "s", "tasks_per_s": "1/s", "points_per_s": "1/s",
             "sim_p50_ms": "ms", "sim_tail_ms": "ms", "setup_s": "s",
             "peak_rss_mb": "MB"}




def tail_percentile(case) -> int:
    """Highest percentile with TAIL_BEYOND samples beyond it at the fewest
    samples a run can have; fixed per workload so runs compare."""
    n = MIN_PASSES * case.items_per_pass
    return math.floor(100 * (1 - TAIL_BEYOND / n))


def set_up(name: str, seed: int, work: str, reps: int):
    """Import svsim, load config, generate inputs, build graphs; ``reps``
    times from a cold import cache.  Returns the last case and, per set-up,
    its host time and the host's speed around it (from speed chunks)."""
    times, speeds = [], []
    before = speed_chunk()
    for rep in range(reps):
        cases.forget_svsim()
        t0 = perf_counter()
        m = cases.Modules()
        case = cases.CASES[name](m, seed, os.path.join(work, f"setup{rep}"))
        case.prepare()
        times.append(perf_counter() - t0)
        after = speed_chunk()
        speeds.append(2 * SPEED_CHUNK_REF_S / (before + after))
        before = after
    return case, times, speeds


class Checker:
    """Item digests against the first pass, and against the reference."""

    def __init__(self, name: str, seed: int):
        self.expected = None
        if seed == REFERENCE_SEED and os.path.exists(REFERENCE):
            with open(REFERENCE) as f:
                self.expected = json.load(f).get(name)
        self.reference_missing = seed == REFERENCE_SEED and self.expected is None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, case, res) -> None:
        if self.expected is None:
            self.expected = res.items
        mismatched = sum(1 for a, b in zip(res.items, self.expected) if a != b)
        mismatched += abs(len(res.items) - len(self.expected))
        if mismatched:
            self.problems.append(f"{mismatched} item digests differ from the expected ones")
        self.problems += res.failures
        self.attempted += case.items_per_pass
        self.failed += min(case.items_per_pass, len(res.failures) + mismatched)

    @property
    def correct(self) -> bool:
        return not self.problems and not self.reference_missing


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_end_to_end(name: str, seed: int, seconds: float, work: str):
    case, setup_times, setup_speeds = set_up(name, seed, work, SETUP_REPS)
    checker = Checker(name, seed)
    spool = os.path.join(work, "spool")
    os.makedirs(spool)
    probe = RunProbe(case.m.simulation, spool, sample_speed=True)
    parallelism = SWEEP_WORKERS if name == "sweep" else 1
    walls, sim_ms, tasks, raw_walls = [], [], [], []
    while len(walls) < MIN_PASSES or sum(raw_walls) < seconds:
        with probe.installed():
            res = case.run_pass(probe, parallelism)
        checker.add(case, res)
        # the speed chunks ran inside the timed calls, spread over the workers
        raw = res.wall_s - sum(s.chunk_s for s in res.sims) / parallelism
        # each call scales by the speed around it; the whole pass by the
        # time-weighted mean of those
        factor = (sum(s.host_s * s.speed for s in res.sims)
                  / sum(s.host_s for s in res.sims)) if res.sims else 1.0
        raw_walls.append(raw)
        walls.append(raw * factor)
        sim_ms += [s.host_s * s.speed * 1e3 for s in res.sims]
        tasks.append(sum(s.tasks for s in res.sims))
    wall = statistics.median(walls)
    pct = tail_percentile(case)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "wall_s": wall,
        "tasks_per_s": statistics.median(tasks) / wall,
        "points_per_s": case.items_per_pass / wall,
        "sim_p50_ms": statistics.median(sim_ms),
        "sim_tail_ms": percentile(sim_ms, pct),
        "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_speeds)),
        "peak_rss_mb": rss_kb / 1024,
    }
    notes = [f"{name}: seed {seed}, {len(walls)} passes, parallelism {parallelism}, "
             f"sim_tail_ms = p{pct} of {len(sim_ms)} samples",
             f"unscaled host time: wall_s {statistics.median(raw_walls):.4f}, "
             f"setup_s {statistics.median(setup_times):.4f}; host speed factor "
             f"per pass {[round(w / r, 3) for w, r in zip(walls, raw_walls)]}"]
    return checker, {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, notes


def layer_metrics(setup, passes, counts, resume_s, overhead) -> dict:
    """Per-layer values: the traced set-up plus the mean traced pass."""
    n = len(passes)
    stats: dict[str, list] = {}
    counters = Counter()
    for i, (st, ct) in enumerate([setup] + passes):
        w = 1 if i == 0 else 1 / n
        for name, (calls, incl, self_s) in st.items():
            acc = stats.setdefault(name, [0.0, 0.0, 0.0])
            acc[0] += calls * w
            acc[1] += incl * w
            acc[2] += self_s * w
        for name, c in ct.items():
            counters[name] += c * w

    def calls(name):
        return stats.get(name, (0, 0, 0))[0]

    def incl(name):
        return stats.get(name, (0, 0, 0))[1]

    def self_s(name):
        return stats.get(name, (0, 0, 0))[2]

    policy_calls = calls("scheduling.policy")
    values = {
        "models.builtin_model.s": (incl("models.builtin_model"), "s"),
        "models.builtin_model.calls": (calls("models.builtin_model"), "count"),
        "costs.layer_cost.s": (incl("costs.layer_cost"), "s"),
        "costs.layer_cost.calls": (calls("costs.layer_cost"), "count"),
        "costs.task_cycles.calls": (counters["costs.task_cycles"], "count"),
        "costs.mem_transfer_cycles.calls": (counters["costs.mem_transfer_cycles"], "count"),
        "scheduling.policy.self_s": (self_s("scheduling.policy"), "s"),
        "scheduling.policy.calls": (policy_calls, "count"),
        "scheduling.policy.no_ready": (counters["scheduling.policy.no_ready"], "count"),
        "scheduling.policy.useful_ratio": (
            counters["scheduling.policy.placements"] / policy_calls if policy_calls else 0.0,
            "ratio"),
        "scheduling.plan_memory.s": (incl("scheduling.plan_memory"), "s"),
        "scheduling.plan_memory.calls": (calls("scheduling.plan_memory"), "count"),
        "scheduling.commit.s": (incl("scheduling.commit"), "s"),
        "scheduling.commit.calls": (calls("scheduling.commit"), "count"),
        "scheduling.build_request_tasks.s": (incl("scheduling.build_request_tasks"), "s"),
        "scheduling.build_request_tasks.calls": (calls("scheduling.build_request_tasks"), "count"),
        "scheduling.load_balance.calls": (counters["scheduling.load_balance"], "count"),
        "simulation.run.self_s": (self_s("simulation.run"), "s"),
        "simulation.compute_report.s": (incl("simulation.compute_report"), "s"),
        "simulation.export_trace.s": (incl("simulation.export_trace"), "s"),
        "simulation.export_trace.bytes": (counters["simulation.export_trace.bytes"], "bytes"),
        "simulation.verify_trace.s": (incl("simulation.verify_trace"), "s"),
        "simulation.trace_digest.s": (incl("simulation.trace_digest"), "s"),
        "cli.run_sweep.self_s": (self_s("cli.run_sweep"), "s"),
        "cli.sweep.resume_s": (resume_s, "s"),
        "cli.simulate.self_s": (self_s("cli.simulate"), "s"),
    }
    for name in cases.SIM_COUNTS:
        values[name] = (counts[name], "bytes" if name.endswith("_bytes") else "count")
    values["trace.overhead_frac"] = (overhead, "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def run_traced(name: str, seed: int, seconds: float, work: str):
    case, _, _ = set_up(name, seed, work, 1)
    checker = Checker(name, seed)
    spool = os.path.join(work, "spool")
    os.makedirs(spool)
    probe = RunProbe(case.m.simulation, spool, sample_speed=False)
    tracer = Tracer(case.m)
    with tracer.installed():
        case.prepare()
    setup = tracer.reset()
    plain, traced, layer_passes = [], [], []
    elapsed = 0.0
    parallelism = 1  # timers do not cross pool processes
    while not traced or elapsed < seconds:
        with probe.installed():
            res = case.run_pass(probe, parallelism)
        checker.add(case, res)
        plain.append(res)
        with tracer.installed(), probe.installed():
            res = case.run_pass(probe, parallelism)
        checker.add(case, res)
        traced.append(res)
        layer_passes.append(tracer.reset())
        elapsed += plain[-1].wall_s + traced[-1].wall_s
    for p in plain + traced:
        if p.counts != plain[0].counts:
            checker.problems.append("sim.* counts differ between passes")
            break
    overhead = (statistics.median(p.wall_s for p in traced)
                / statistics.median(p.wall_s for p in plain) - 1)
    resume_s = statistics.mean(p.resume_s for p in traced)
    metrics = layer_metrics(setup, layer_passes, plain[0].counts, resume_s, overhead)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
    with open(spans_path, "w") as f:
        json.dump({"workload": name, "seed": seed, "metrics": metrics,
                   "spans": [dict(zip(("id", "name", "start", "end", "parent"), s))
                             for s in tracer.spans]}, f)
    notes = [f"{name}: seed {seed}, {len(plain)} untraced + {len(traced)} traced "
             f"passes at sweep parallelism {parallelism}; spans in {spans_path}"]
    return checker, metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(cases.CASES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for needed in (os.path.join(cases.SRC, "svsim"), cases.DESK_HW):
        if not os.path.exists(needed):
            print(f"error: {needed} is missing; run from an svsim source checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, cases.SRC)
    work = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        measure = run_traced if args.trace else run_end_to_end
        checker, metrics, notes = measure(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(notes))
    print(f"host: nproc {os.cpu_count()}, python {platform.python_version()}")
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}")
    if checker.reference_missing:
        print(f"check failed: no reference digests for {args.workload} in {REFERENCE}")
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
