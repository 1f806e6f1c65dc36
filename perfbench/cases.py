"""The benchmark's workloads: what a pass runs and how its output is checked.

Each case builds its inputs from the seed in ``prepare`` (timed as set-up)
and runs one closed-loop pass from a single caller in ``run_pass``.  Only
the calls into svsim are timed; digests, replay checks and counts are taken
between them, off the clock.  ``simulation._cached_builtin`` is cleared at
the start of every set-up and never between passes, so the first graph
builds are paid in ``setup_s``; sweep pool workers fork from the warm
parent and inherit it.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import shutil
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DESK_HW = os.path.join(ROOT, "configs", "desk_hw.json")

SIM_COUNTS = ("sim.placements", "sim.fetch_param_bytes", "sim.spill_bytes",
              "sim.flushes")


class Modules:
    """The svsim modules one set-up imported."""

    def __init__(self):
        for name in ("cli", "costs", "hardware", "models", "scheduling",
                     "simulation", "workloads"):
            setattr(self, name, importlib.import_module(f"svsim.{name}"))


def forget_svsim() -> None:
    """Drop svsim from the import cache so the next import pays module set-up."""
    for name in [n for n in sys.modules if n == "svsim" or n.startswith("svsim.")]:
        del sys.modules[name]


def sim_counts(trace) -> Counter:
    """Simulated-machine counts; a change that moves them changes the model."""
    spill = [t for t in trace.transfers if t.kind == "write_act"]
    releases = sum(1 for r in trace.residency if r.delta < 0)
    return Counter({
        "sim.placements": len(trace.executions),
        "sim.fetch_param_bytes": sum(t.bytes for t in trace.transfers
                                     if t.kind == "fetch_param"),
        "sim.spill_bytes": sum(t.bytes for t in spill),
        # every spill also releases its entry; the other releases are flushes
        "sim.flushes": releases - len(spill),
    })


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def shuffled(workloads, seed: int):
    """The same workloads with each one's requests in the seed's order.

    Request ids and arrival cycles keep their positions, so only which model
    comes when changes; that decides queue assignment and dispatch.  Every
    seed thus simulates the same requests, and host times compare across
    seeds: with independent draws per seed, a suite pass's placed tasks
    ranged over 9%, and a sweep's median run over 10%."""
    rng = random.Random(seed)
    out = []
    for w in workloads:
        order = list(w.requests)
        rng.shuffle(order)
        requests = tuple(replace(r, request_id=slot.request_id,
                                 arrival_cycle=slot.arrival_cycle)
                         for r, slot in zip(order, w.requests))
        out.append(replace(w, requests=requests))
    return out


@dataclass
class PassResult:
    wall_s: float = 0.0
    items: list[str] = field(default_factory=list)  # one digest per item
    failures: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    sims: list = field(default_factory=list)  # probes.Sim records
    resume_s: float = 0.0

    def check_trace(self, label, trace, problems) -> bool:
        if problems:
            self.failures.append(f"{label}: replay check: {problems[0]}")
        elif any(r.completed < 0 for r in trace.requests):
            self.failures.append(f"{label}: a request never completed")
        else:
            return True
        return False


class Case:
    name = ""
    items_per_pass = 0

    def __init__(self, m: Modules, seed: int, work_dir: str):
        self.m = m
        self.seed = seed
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        # off-the-clock checks use the functions as imported, never a traced copy
        self.verify_trace = m.simulation.verify_trace
        self.passes = 0

    def build_graphs(self, workloads) -> None:
        for w in workloads:
            for req in w.requests:
                self.m.simulation._graph_for(req.model, dict(w.model_params))

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, probe, parallelism: int) -> PassResult:
        raise NotImplementedError


# one of standard_suite's three seeds: 11 workloads a pass, not 33, so a run
# of four passes takes under a minute
SUITE_SEEDS = (1,)


class Suite(Case):
    """Desk suite: 11 CNN:transformer ratios x 16 batched requests, each run
    under rr then has via ``simulation.run``, followed by ``verify_trace``.
    The requests are ``standard_suite``'s at its first seed, shuffled."""

    name = "suite"
    items_per_pass = 22

    def prepare(self):
        m = self.m
        m.simulation._cached_builtin.cache_clear()
        self.hw = m.hardware.load_hw_config(DESK_HW)
        self.suite = shuffled(m.workloads.standard_suite(16, seeds=SUITE_SEEDS), self.seed)
        self.build_graphs(self.suite)

    def run_pass(self, probe, parallelism):
        sim = self.m.simulation
        res = PassResult()
        for w in self.suite:
            for policy in ("rr", "has"):
                label = f"{w.name}/{policy}"
                t0 = perf_counter()
                try:
                    trace, _ = sim.run(w, self.hw, scheduler=policy)
                    problems = sim.verify_trace(trace, self.hw)
                except Exception as e:  # noqa: BLE001 - counted as a failed item
                    res.wall_s += perf_counter() - t0
                    res.sims += probe.take()[0]
                    res.failures.append(f"{label}: {type(e).__name__}: {e}")
                    res.items.append(f"error:{type(e).__name__}")
                    continue
                res.wall_s += perf_counter() - t0
                # drop the probe's reference, so no trace outlives its item
                res.sims += probe.take()[0]
                res.check_trace(label, trace, problems)
                res.counts += sim_counts(trace)
                res.items.append(sim.trace_digest(trace))
        return res


# corners of the 108-config space: smallest and largest arrays, vector units
# and scratchpads
SWEEP_AXES = {"arrays": [[8, 16], [4, 64]], "vectors": [[8, 16], [8, 64]],
              "shared_mem_mb": [45, 105]}


class Sweep(Case):
    """``cli.run_sweep`` over 8 corner configs x 11 ratios x 8 requests into
    a fresh directory, then one resume of the same directory.  The requests
    are ``standard_suite``'s at its first seed, shuffled, and handed to
    ``run_sweep`` in place of its own unshuffled draw."""

    name = "sweep"
    items_per_pass = 88

    def prepare(self):
        m = self.m
        m.simulation._cached_builtin.cache_clear()
        self.spec = m.cli.load_sweep_spec(dict(SWEEP_AXES))
        self.configs = m.cli.sweep_configs(self.spec)
        self.suite = shuffled(m.workloads.standard_suite(8, seeds=SUITE_SEEDS), self.seed)
        self.build_graphs(self.suite)

    def run_pass(self, probe, parallelism):
        cli = self.m.cli
        res = PassResult()
        self.passes += 1
        out = os.path.join(self.work_dir, f"sweep{self.passes}")  # always a fresh dir
        # run_sweep asks sweep_workloads for its requests; hand it this seed's
        drawn = cli.sweep_workloads
        cli.sweep_workloads = lambda spec: self.suite
        try:
            t0 = perf_counter()
            rows, failures = cli.run_sweep(self.spec, out, parallelism=parallelism)
            t1 = perf_counter()
            resumed, resume_failures = cli.run_sweep(self.spec, out, parallelism=parallelism)
            t2 = perf_counter()
        finally:
            cli.sweep_workloads = drawn
        res.wall_s, res.resume_s = t2 - t0, t2 - t1
        res.failures += failures + resume_failures
        if resumed != rows:
            res.failures.append("resume returned different rows")
        with open(os.path.join(out, "results.csv"), "rb") as f:
            lines = f.read().splitlines()
        res.items = sorted(sha256(line) for line in lines[1:])
        expected = len(self.configs) * len(self.suite)
        if len(res.items) != expected:
            res.failures.append(f"{len(res.items)} result rows, expected {expected}")
        res.sims, calls = probe.take()
        if len(res.sims) != expected or not all(sim.done for sim in res.sims):
            res.failures.append("a sweep point left a request incomplete")
        for args, trace in calls:  # only at parallelism 1
            ok = res.check_trace(trace.meta["workload"], trace,
                                 self.verify_trace(trace, args[1]))
            if ok:
                res.counts += sim_counts(trace)
        shutil.rmtree(out)
        return res


SERVE_CALLS = 16
SERVE_REQUESTS = 16
SERVE_INTERVAL = 3_000_000


class Serve(Case):
    """``svsim simulate`` in-process on a 4-cluster desk copy, once per
    16-request stream (rate arrivals, 50% CNN, 3M-cycle interval), writing
    report.json, trace.json and decisions.jsonl each time."""

    name = "serve"
    items_per_pass = SERVE_CALLS

    def prepare(self):
        m = self.m
        m.simulation._cached_builtin.cache_clear()
        inputs = os.path.join(self.work_dir, "inputs")
        os.makedirs(inputs, exist_ok=True)
        with open(DESK_HW) as f:
            doc = json.load(f)
        doc["clusters"] = doc["clusters"] * 4
        self.hw_path = os.path.join(inputs, "hw4.json")
        with open(self.hw_path, "w") as f:
            json.dump(doc, f)
        self.hw = m.hardware.load_hw_config(self.hw_path)
        streams = shuffled([m.workloads.generate(0.5, SERVE_REQUESTS, k, arrival_model="rate",
                                                 arrival_interval=SERVE_INTERVAL)
                            for k in range(1, SERVE_CALLS + 1)], self.seed)
        self.manifests = []
        for w in streams:
            path = os.path.join(inputs, f"{w.name}.json")
            m.workloads.save_manifest(w, path)
            self.manifests.append(path)
        self.build_graphs(streams)

    def run_pass(self, probe, parallelism):
        cli = self.m.cli
        res = PassResult()
        self.passes += 1
        for i, manifest in enumerate(self.manifests):
            out = os.path.join(self.work_dir, f"serve{self.passes}_{i}")
            argv = ["simulate", "--workload", manifest, "--hw", self.hw_path,
                    "--scheduler", "has", "--out", out]
            t0 = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            res.wall_s += perf_counter() - t0
            sims, calls = probe.take()
            res.sims += sims
            if rc != 0 or len(calls) != 1:
                res.failures.append(f"stream {i}: exit code {rc}")
                res.items.append(f"error:{rc}")
                continue
            trace = calls[0][1]
            if res.check_trace(f"stream {i}", trace, self.verify_trace(trace, self.hw)):
                res.counts += sim_counts(trace)
            blobs = []
            for name in ("report.json", "trace.json", "decisions.jsonl"):
                with open(os.path.join(out, name), "rb") as f:
                    blobs.append(f.read())
            res.items.append(sha256(*blobs))
            shutil.rmtree(out)
        return res


CASES = {c.name: c for c in (Suite, Sweep, Serve)}
