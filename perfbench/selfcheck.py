"""Self-check of the benchmark: every workload on one seed, both modes.

    python3 perfbench/selfcheck.py
    python3 perfbench/selfcheck.py --record-reference

The check runs perfbench/run.py for each workload at the reference seed,
untraced and traced, and exits 1 on any correctness failure, a missing or
extra metric name, or a wrong unit against BENCHMARK.json.

``--record-reference`` runs one pass of each workload at the reference seed
and rewrites perfbench/reference.json with its item digests.  Do that only
for a change that is meant to move the simulated outputs (a model change).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import cases
import run

BENCHMARK = os.path.join(cases.ROOT, "BENCHMARK.json")
SECONDS = 1.0  # a run still makes its minimum passes


def record_reference() -> int:
    sys.path.insert(0, cases.SRC)
    reference = {}
    for name in sorted(cases.CASES):
        work = os.path.join(run.OUT_DIR, f"reference-{name}-{os.getpid()}")
        os.makedirs(work)
        try:
            case, _, _ = run.set_up(name, run.REFERENCE_SEED, work, 1)
            spool = os.path.join(work, "spool")
            os.makedirs(spool)
            probe = run.RunProbe(case.m.simulation, spool, sample_speed=False)
            with probe.installed():
                res = case.run_pass(probe, run.SWEEP_WORKERS)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if res.failures:
            print(f"{name}: {res.failures[:5]}", file=sys.stderr)
            return 1
        reference[name] = res.items
        print(f"{name}: {len(res.items)} item digests")
    with open(run.REFERENCE, "w") as f:
        json.dump({"seed": run.REFERENCE_SEED, **reference}, f, indent=1)
        f.write("\n")
    return 0


def check() -> int:
    with open(BENCHMARK) as f:
        bench = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", w["name"], "--seed",
                                      str(run.REFERENCE_SEED), "--seconds",
                                      str(SECONDS), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=cases.ROOT, capture_output=True,
                                  text=True, timeout=600)
            label = f"{w['name']} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: incorrect: " + " | ".join(lines[:-1]))
            if got != wanted[trace]:
                errors.append(f"{label}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                              f"or their units differ from BENCHMARK.json")
            print(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    return record_reference() if args.record_reference else check()


if __name__ == "__main__":
    sys.exit(main())
