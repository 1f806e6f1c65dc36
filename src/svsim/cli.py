"""Command-line front end: model conversion, simulation runs, DSE sweeps.

Subcommands::

    svsim convert  model.json -o model.umf     # description -> binary frame
    svsim inspect  model.umf                   # dump a frame
    svsim simulate --workload w.json --hw hw.json --scheduler has --out DIR
    svsim sweep    --spec sweep.json --out DIR [--parallelism N] [--sample F]
    svsim compare  a.csv b.csv [-o ratios.csv]

Exit codes: 0 success, 1 runtime error, 2 bad usage or config,
3 shared-memory capacity deadlock.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import random
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor

from . import hardware, models, simulation, umf, workloads
from .fields import OMIT, List, Rule, check, integer, one_of
from .scheduling import CapacityDeadlock, StalledRun, UnpartitionableLayer

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DEADLOCK = 3

RESULT_FIELDS = ("config", "workload", "cnn_ratio", "seed", "scheduler",
                 "tops", "watts", "tops_per_watt", "area_mm2",
                 "makespan_cycles", "total_ops", "joules")


def _cmd_convert(args) -> int:
    try:
        with open(args.model, "rb") as f:
            graph = models.ingest_graph(f.read())
        buf = umf.encode_frame(models.to_umf(
            graph, user_id=args.user_id, model_id=args.model_id,
            transaction_id=args.transaction_id, include_payloads=args.payloads))
    except OSError as e:
        print(f"error: cannot read {args.model}: {e}", file=sys.stderr)
        return EXIT_ERROR
    except (models.ModelError, umf.UmfError) as e:
        print(f"error: {args.model}: {e}", file=sys.stderr)
        return EXIT_USAGE
    out = args.output or os.path.splitext(args.model)[0] + ".umf"
    with open(out, "wb") as f:
        f.write(buf)
    print(f"wrote {out}: {len(graph.layers)} layers, "
          f"{graph.total_param_bytes} parameter bytes")
    return EXIT_OK


def _cmd_inspect(args) -> int:
    try:
        with open(args.file, "rb") as f:
            buf = f.read()
        print(umf.inspect_frame(buf))
    except OSError as e:
        print(f"error: cannot read {args.file}: {e}", file=sys.stderr)
        return EXIT_ERROR
    except umf.UmfError as e:
        print(f"error: {args.file}: {e}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _cmd_simulate(args) -> int:
    try:
        workload = workloads.load_manifest(args.workload)
        hw = hardware.load_hw_config(args.hw)
    except (OSError, ValueError, hardware.ConfigError) as e:
        print(f"error: bad input: {e}", file=sys.stderr)
        return EXIT_USAGE
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        print(f"error: --out {args.out} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    try:
        trace, report = simulation.run(workload, hw, scheduler=args.scheduler)
    except models.ModelError as e:  # a model name or parameter in the manifest
        print(f"error: bad input: {e}", file=sys.stderr)
        return EXIT_USAGE
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "report.json"), "w") as f:
        json.dump({**report.__dict__,
                   "request_latency": {str(k): v for k, v in
                                       report.request_latency.items()}},
                  f, indent=2, sort_keys=True)
    simulation.export_trace(trace, os.path.join(args.out, "trace.json"))
    simulation.write_decisions(trace, os.path.join(args.out, "decisions.jsonl"))
    print(f"workload={workload.name} scheduler={args.scheduler} "
          f"makespan={report.makespan_cycles} cycles "
          f"tops={report.tops:.4f} tops_per_watt={report.tops_per_watt:.4f} "
          f"area={report.area_mm2:.1f}mm2")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

_PAIRS = List(Rule("a [count, size] pair, the count an integer >= 1",
                   lambda p: type(p) is list and len(p) == 2 and type(p[0]) is int and p[0] >= 1),
              "a non-empty list of [count, size] pairs, each count an integer >= 1", 1)

# defaults: the full single-cluster space; configs/sweep_single_cluster.json
# spells it out.  Sizes, memory and clock values follow the hardware config's
# rules, and every config is loaded by load_sweep_spec.
SWEEP_FIELDS = {
    "arrays": (_PAIRS, [[8, 16], [2, 32], [4, 32], [8, 32], [2, 64], [4, 64]]),
    "vectors": (_PAIRS, [[8, 16], [4, 32], [8, 32], [2, 64], [4, 64], [8, 64]]),
    "shared_mem_mb": (List(hardware.CLUSTER_FIELDS["shared_mem_mb"][0], "a non-empty list", 1),
                      [45, 65, 105]),
    "clusters": (List(integer(1), "a non-empty list of integers >= 1", 1), [1]),
    **{key: hardware.HW_FIELDS[key] for key in ("clock_mhz", "hbm_gbps", "hbm_latency_cycles")},
    "scheduler": (one_of(simulation.SCHEDULERS), "has"),
    "workload_suite": ({
        "request_count": (integer(1), 8),
        "seeds": (List(integer(0), "a non-empty list of distinct integers >= 0", 1, True),
                  [1, 2, 3]),
        "model_params": (workloads.MODEL_PARAM_FIELDS, OMIT),
    }, {}),
}


def load_sweep_spec(source) -> dict:
    """A checked sweep spec from a JSON path or dict (which is left as it
    was), filled in from ``SWEEP_FIELDS``.  Every config it spans must pass
    ``load_hw_config``; ``spec["configs"]`` keeps them, the ``sweep_configs``
    entries (a repeated axis value once) each with its loaded ``"config"``.
    A bad document raises ValueError naming the key, or ConfigError."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as f:
            source = json.load(f)
    spec = check(source, SWEEP_FIELDS, ValueError, "sweep spec")
    configs = {cfg["label"]: cfg for cfg in sweep_configs(spec)}
    spec["configs"] = [{**cfg, "config": hardware.load_hw_config(cfg["hw"])}
                       for cfg in configs.values()]
    return spec


def sweep_configs(spec: dict) -> list[dict]:
    """Cartesian product of the hardware axes; 6 x 6 x 3 = 108 per cluster
    count.  Each point is a label and its ``load_hw_config`` document."""
    out = []
    for nc in spec["clusters"]:
        for na, dim in spec["arrays"]:
            for nv, lanes in spec["vectors"]:
                for sm in spec["shared_mem_mb"]:
                    cluster = {"arrays": [{"dim": dim}] * na,
                               "vectors": [{"lanes": lanes}] * nv,
                               "shared_mem_mb": sm}
                    out.append({
                        "label": f"a{na}x{dim}_v{nv}x{lanes}_sm{sm}_c{nc}",
                        "hw": {"clock_mhz": spec["clock_mhz"],
                               "hbm_gbps": spec["hbm_gbps"],
                               "hbm_latency_cycles": spec["hbm_latency_cycles"],
                               "clusters": [cluster] * nc},
                    })
    return out


def sweep_workloads(spec: dict) -> list[workloads.Workload]:
    """The workloads of a loaded spec's ``workload_suite``."""
    ws = spec["workload_suite"]
    return workloads.standard_suite(request_count=ws["request_count"], seeds=tuple(ws["seeds"]),
                                    model_params=ws.get("model_params"))


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """sha256 over the bytes of every ``svsim/*.py`` module, once per process."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(name.encode() + hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def point_keys(configs: list[dict], suite: list[workloads.Workload], scheduler: str):
    """(config, workload, key) per sweep point, configs outermost.  The key
    is the sha256 of everything that determines the point's row, as the
    compact sorted-key JSON text of {"code": the code digest, "hw": the
    hardware document, "scheduler": ..., "workload": the workload's fields};
    each part is encoded once and the texts are spliced."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    texts = [encode(dataclasses.asdict(w)) for w in suite]
    code, sched = encode(code_digest()), encode(scheduler)
    for cfg in configs:
        head = f'{{"code":{code},"hw":{encode(cfg["hw"])},"scheduler":{sched},"workload":'
        for w, text in zip(suite, texts):
            yield cfg, w, hashlib.sha256(f"{head}{text}}}".encode()).hexdigest()


def run_sweep_point(label: str, hw: hardware.HardwareConfig, workload: workloads.Workload,
                    scheduler: str) -> dict:
    _, report = simulation.run(workload, hw, scheduler=scheduler)
    return {"config": label, "workload": workload.name,
            "cnn_ratio": workload.cnn_ratio, "seed": workload.seed,
            "scheduler": scheduler, "tops": report.tops,
            "watts": report.watts, "tops_per_watt": report.tops_per_watt,
            "area_mm2": report.area_mm2,
            "makespan_cycles": report.makespan_cycles,
            "total_ops": report.total_ops, "joules": report.joules}


def _point_worker(job):
    """Run one point and write its record; returns (row, None) or (None, error)."""
    label, hw, workload, scheduler, key, path = job
    try:
        row = {**run_sweep_point(label, hw, workload, scheduler), "key": key}
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(row, f, sort_keys=True)
        os.replace(tmp, path)
        return row, None
    except Exception as e:  # noqa: BLE001 - reported in the failure table
        return None, f"{type(e).__name__}: {e}"


def _load_point(path: str, key: str) -> dict | None:
    """The cached record at ``path`` if it was computed for ``key``."""
    try:
        with open(path) as f:
            row = json.load(f)
    except (OSError, ValueError):
        return None
    return row if isinstance(row, dict) and row.get("key") == key else None


def run_sweep(spec: dict, out_dir: str, *, parallelism: int = 1,
              sample: float = 1.0) -> tuple[list[dict], list[str]]:
    """Run (or resume) a sweep of a spec from ``load_sweep_spec``, over its
    ``spec["configs"]``; returns (rows, failures).

    Every point is cached as a JSON record named and stamped with its key
    from ``point_keys``, so an interrupted sweep resumes, a point whose inputs
    changed is recomputed, and merged results are independent of the
    worker count.  A sample is drawn from the points before any is read.
    Point files of other code (another code-digest tag) are deleted first.
    """
    scheduler = spec["scheduler"]
    points_dir = os.path.join(out_dir, "points")
    os.makedirs(points_dir, exist_ok=True)
    tag = f"__{code_digest()[:8]}_"
    for name in os.listdir(points_dir):
        if "__" in name and tag not in name:
            os.remove(os.path.join(points_dir, name))
    points = [(cfg, w, key,
               os.path.join(points_dir, f"{cfg['label']}__{w.name}{tag}{key[:16]}.json"))
              for cfg, w, key in point_keys(spec["configs"], sweep_workloads(spec), scheduler)]
    if sample < 1.0:
        keep = random.Random(1234).sample(range(len(points)), max(1, int(len(points) * sample)))
        points = [points[i] for i in sorted(keep)]
    cached = [_load_point(path, key) for _, _, key, path in points]  # each file read once
    rows = [row for row in cached if row is not None]
    jobs = [(cfg["label"], cfg["config"], w, scheduler, key, path)
            for (cfg, w, key, path), row in zip(points, cached) if row is None]
    if parallelism <= 1:
        results = list(map(_point_worker, jobs))
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_point_worker, jobs, chunksize=4))
    rows += [row for row, err in results if err is None]
    failures = [f"{os.path.basename(job[5])}: {err}"
                for job, (_, err) in zip(jobs, results) if err is not None]
    rows.sort(key=lambda r: (r["config"], r["workload"]))
    write_results_csv(rows, os.path.join(out_dir, "results.csv"))
    return rows, failures


def write_results_csv(rows: list[dict], path: str, fields: tuple = RESULT_FIELDS) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})


def read_results_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _cmd_sweep(args) -> int:
    try:
        spec = load_sweep_spec(args.spec or {})
    except (OSError, hardware.ConfigError, ValueError) as e:  # JSONDecodeError is a ValueError
        print(f"error: bad sweep spec: {e}", file=sys.stderr)
        return EXIT_USAGE
    if args.scheduler:
        spec["scheduler"] = args.scheduler
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        print(f"error: --out {args.out} is not a directory", file=sys.stderr)
        return EXIT_USAGE
    rows, failures = run_sweep(spec, args.out, parallelism=args.parallelism,
                               sample=args.sample)
    print(f"sweep complete: {len(rows)} rows -> {args.out}/results.csv")
    if failures:
        print(f"{len(failures)} failed points:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _positive(row: dict, key: str) -> float:
    try:
        value = float(row.get(key))  # a missing column or a short row reads None
    except (TypeError, ValueError):
        value = math.nan
    if not 0 < value < math.inf:
        raise ValueError(f"{key} of {row['config']}/{row['workload']} is "
                         f"{row.get(key)!r}, not a positive number")
    return value


def _index_results(rows: list[dict]) -> dict[tuple, dict]:
    index = {}
    for r in rows:
        missing = [c for c in ("config", "workload") if r.get(c) is None]  # or a short row
        if missing:
            raise ValueError(f"results have no {missing[0]!r} column")
        key = (r["config"], r["workload"])
        if index.setdefault(key, r) is not r:
            raise ValueError(f"result key {key} appears more than once")
    return index


def compare_results(rows_a: list[dict], rows_b: list[dict]) -> list[dict]:
    """Per-(config, workload) B/A ratios plus geometric-mean summary rows.
    Differing keys raise KeyError; a missing key column, a repeated key, no
    rows, or a ``tops`` or ``tops_per_watt`` that is not a positive number,
    raise ValueError."""
    index_a, index_b = _index_results(rows_a), _index_results(rows_b)
    if set(index_a) != set(index_b):
        missing = set(index_a) ^ set(index_b)
        raise KeyError(f"result keys differ on {len(missing)} entries, "
                       f"e.g. {sorted(missing)[:3]}")
    if not index_a:
        raise ValueError("no result rows to compare")

    def ratio(key: tuple, field: str) -> float:  # B over A
        return _positive(index_b[key], field) / _positive(index_a[key], field)
    out = [{"config": key[0], "workload": key[1], "speedup": ratio(key, "tops"),
            "efficiency_ratio": ratio(key, "tops_per_watt")} for key in sorted(index_a)]
    out.append({"config": "geomean", "workload": "*",
                "speedup": statistics.geometric_mean(r["speedup"] for r in out),
                "efficiency_ratio": statistics.geometric_mean(r["efficiency_ratio"] for r in out)})
    return out


def _cmd_compare(args) -> int:
    try:
        rows = compare_results(read_results_csv(args.a), read_results_csv(args.b))
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KeyError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    if args.output:
        write_results_csv(rows, args.output,
                          ("config", "workload", "speedup", "efficiency_ratio"))
    g = rows[-1]  # compare_results ends with the geomean row
    print(f"geomean speedup={g['speedup']:.4f} efficiency_ratio={g['efficiency_ratio']:.4f}")
    return EXIT_OK


def _fraction(name: str):
    """An argparse type for a fraction in (0, 1], named ``name`` in errors."""
    def parse(text: str) -> float:
        value = float(text)
        if not 0 < value <= 1:  # also rejects nan
            raise argparse.ArgumentTypeError(f"{name} must be in (0, 1], got {text}")
        return value
    parse.__name__ = name  # argparse names the type in "invalid <name> value"
    return parse


def _workers(text: str) -> int:
    """An argparse type for ``--parallelism``: a whole number of workers, at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"parallelism must be an integer >= 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="svsim",
                                description="systolic-vector accelerator simulator")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convert", help="model description JSON -> .umf")
    c.add_argument("model")
    c.add_argument("-o", "--output")
    c.add_argument("--user-id", type=int, default=0)
    c.add_argument("--model-id", type=int, default=0)
    c.add_argument("--transaction-id", type=int, default=0)
    c.add_argument("--payloads", action="store_true",
                   help="emit zero-filled tensor bodies")
    c.set_defaults(fn=_cmd_convert)

    i = sub.add_parser("inspect", help="dump a .umf file")
    i.add_argument("file")
    i.set_defaults(fn=_cmd_inspect)

    s = sub.add_parser("simulate", help="run one workload")
    s.add_argument("--workload", required=True)
    s.add_argument("--hw", required=True)
    s.add_argument("--scheduler", choices=tuple(simulation.SCHEDULERS), default="has")
    s.add_argument("--out", default="out")
    s.set_defaults(fn=_cmd_simulate)

    w = sub.add_parser("sweep", help="design-space exploration sweep")
    w.add_argument("--spec", help="sweep spec JSON (defaults to the full single-cluster space)")
    w.add_argument("--scheduler", choices=tuple(simulation.SCHEDULERS))
    w.add_argument("--parallelism", type=_workers, default=1)
    w.add_argument("--sample", type=_fraction("sample"), default=1.0,
                   help="run a deterministic sample, a fraction in (0, 1], of the points")
    w.add_argument("--out", default="sweep_out")
    w.set_defaults(fn=_cmd_sweep)

    m = sub.add_parser("compare", help="speedup table of results B over A")
    m.add_argument("a")
    m.add_argument("b")
    m.add_argument("-o", "--output")
    m.set_defaults(fn=_cmd_compare)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CapacityDeadlock, StalledRun, UnpartitionableLayer) as e:
        print(f"deadlock: {e}", file=sys.stderr)
        return EXIT_DEADLOCK
    except OSError as e:  # every command reads its inputs under its own handler
        print(f"error: cannot write {e.filename or 'output'}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
