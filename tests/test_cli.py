import copy
import functools
import hashlib
import json
import math
import os
import shutil

import pytest

from svsim import cli
from svsim.cli import (compare_results, load_sweep_spec, main, read_results_csv,
                       run_sweep, sweep_configs, sweep_workloads)
from svsim.hardware import ConfigError
from svsim.models import builtin_model, to_umf
from svsim.scheduling import SCHEDULERS, NoReadyTask
from svsim.umf import FRAME_HEADER_SIZE, INFO_HEADER_SIZE, encode_frame
from svsim.workloads import generate, save_manifest

from support import (DESK_HW, chain_description, desk_hw_doc_with, hw_config_to_dict,
                     make_cluster, make_hw)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SWEEP_SPEC = os.path.join(os.path.dirname(__file__), "..", "configs",
                          "sweep_single_cluster.json")
ALEXNET = os.path.join(FIXTURES, "alexnet.json")


def small_hw_file(tmp_path):
    hw = make_hw(1, make_cluster(1, 32, 2, 64, 45))
    path = tmp_path / "hw.json"
    path.write_text(json.dumps(hw_config_to_dict(hw)))
    return str(path)


def small_workload_file(tmp_path, n=2):
    w = generate(0.5, n, seed=1,
                 model_params={"image_size": 224, "seq_len": 128,
                               "depth_reduction": 8, "batch": 1})
    path = tmp_path / "w.json"
    save_manifest(w, str(path))
    return str(path)


# --- convert / inspect --------------------------------------------------------

def test_convert_then_inspect(tmp_path, capsys):
    out = str(tmp_path / "alexnet.umf")
    assert main(["convert", ALEXNET, "-o", out]) == 0
    assert os.path.exists(out)
    assert main(["inspect", out]) == 0
    text = capsys.readouterr().out
    assert "MODEL_LOAD" in text
    assert "CONV" in text and "SOFTMAX" in text


def test_convert_byte_sizes_match_graph(tmp_path):
    from svsim.models import ingest_graph
    from svsim.umf import decode_frame
    out = str(tmp_path / "a.umf")
    main(["convert", ALEXNET, "-o", out])
    with open(out, "rb") as f:
        frame = decode_frame(f.read())
    with open(ALEXNET) as f:
        g = ingest_graph(f.read())
    assert sum(p.payload_size for p in frame.data_packets) == g.total_param_bytes


def test_convert_long_chain_listed_last_first(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(chain_description(1100, reverse=True)))
    assert main(["convert", str(path), "-o", str(tmp_path / "chain.umf")]) == 0


def test_convert_unwritable_output_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.umf"
    assert main(["convert", ALEXNET, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_convert_rejects_unknown_op(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad", "inputs": [{"name": "x", "shape": [4]}],
        "layers": [{"name": "l", "op": "Wavelet", "inputs": ["x"]}]}))
    assert main(["convert", str(bad)]) == 2
    assert "unknown op" in capsys.readouterr().err


@pytest.mark.parametrize("layer,shape,why", [
    ({"op": "GEMM", "out_features": 70000}, [4, 8], "u16 range"),
    ({"op": "Reshape", "target": [1, 1, 1, 1, 4]}, [4], "at most 4 dims"),
    ({"op": "Conv", "out_features": 4, "kernel": "x"}, [4, 8, 8], "integers"),
    # a packet carries one input shape, so concat's output would decode as (8, 8)
    ({"op": "Concat", "inputs": ["x", "y"]}, [[4, 8], [2, 8]], "one input shape"),
    ({"op": "Conv", "out_features": 4, "kernel": 3, "groups": 0}, [4, 8, 8],
     "layer 'l': groups"),
])
def test_convert_rejects_unencodable_model(tmp_path, capsys, layer, shape, why):
    shapes = shape if isinstance(shape[0], list) else [shape]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "inputs": [{"name": n, "shape": s} for n, s in zip("xy", shapes)],
        "layers": [{"name": "l", "inputs": ["x"], **layer}]}))
    assert main(["convert", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and why in err[0]
    assert not (tmp_path / "bad.umf").exists()


def test_inspect_corrupted_file(tmp_path, capsys):
    path = tmp_path / "junk.umf"
    path.write_bytes(b"NOPE" + bytes(14))
    assert main(["inspect", str(path)]) == 1
    assert "offset" in capsys.readouterr().err


def test_inspect_bad_tensor_kind_one_error_line(tmp_path, capsys):
    buf = bytearray(encode_frame(to_umf(builtin_model("alexnet", depth_reduction=4))))
    buf[FRAME_HEADER_SIZE + 2 + INFO_HEADER_SIZE + 4] = 9  # first input's kind
    path = tmp_path / "bad.umf"
    path.write_bytes(bytes(buf))
    assert main(["inspect", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "offset" in err[0]


# --- simulate -------------------------------------------------------------------

def test_simulate_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run1"
    rc = main(["simulate", "--workload", small_workload_file(tmp_path),
               "--hw", small_hw_file(tmp_path), "--scheduler", "has",
               "--out", str(out)])
    assert rc == 0
    assert (out / "report.json").exists()
    assert (out / "trace.json").exists()
    assert (out / "decisions.jsonl").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["tops"] > 0
    line = capsys.readouterr().out
    assert "makespan" in line and "tops" in line
    # decision log is line-delimited records with the estimate fields
    first = json.loads((out / "decisions.jsonl").read_text().splitlines()[0])
    for key in ("time", "queue", "task", "processor", "t_mem", "t_task",
                "t_proc", "t_idle"):
        assert key in first


def test_simulate_rerun_is_bit_identical(tmp_path):
    w = small_workload_file(tmp_path)
    hw = small_hw_file(tmp_path)
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["simulate", "--workload", w, "--hw", hw, "--out", str(out)])
        hashes.append(hashlib.sha256((out / "trace.json").read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]


def test_simulate_deadlock_exit_code(tmp_path):
    hw = make_hw(1, make_cluster(1, 16, 1, 16, 1))
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(hw_config_to_dict(hw)))
    rc = main(["simulate", "--workload", small_workload_file(tmp_path),
               "--hw", str(path), "--out", str(tmp_path / "d")])
    assert rc == 3


def test_simulate_bad_config_exit_code(tmp_path):
    rc = main(["simulate", "--workload", small_workload_file(tmp_path),
               "--hw", "/nonexistent/hw.json", "--out", str(tmp_path / "x")])
    assert rc == 2


def test_simulate_bad_model_exit_code(tmp_path, capsys):
    hw = small_hw_file(tmp_path)
    with open(small_workload_file(tmp_path)) as f:
        doc = json.load(f)
    bad_name = copy.deepcopy(doc)
    bad_name["requests"][0]["model"] = "nosuchnet"
    bad_depth = copy.deepcopy(doc)
    bad_depth["model_params"]["depth_reduction"] = 0
    for bad, word in ((bad_name, "nosuchnet"), (bad_depth, "depth_reduction")):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(bad))
        rc = main(["simulate", "--workload", str(path), "--hw", hw,
                   "--out", str(tmp_path / "u")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and word in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("model,param", [("alexnet", "image_size"),
                                         ("bert_base", "seq_len")])
def test_simulate_zero_model_size_exit_code(tmp_path, capsys, model, param):
    doc = {"requests": [{"request_id": 0, "model": model, "arrival_cycle": 0}],
           "model_params": {param: 0, "depth_reduction": 8}}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    rc = main(["simulate", "--workload", str(path), "--hw", small_hw_file(tmp_path),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad input:") and err.count("\n") == 1
    assert "must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("path,value", [
    (("hbm_latency_cycles",), -1000), (("cycle_constants",), {"activation": -3}),
    (("cycle_constants",), {"activation": 1.5}), (("clusters", 0, "num_task_queues"), 2.5),
    (("clusters", 0, "arrays", 0, "dim"), "32"),
    # each a traceback or a silent run before the clock, HBM speed and
    # shared-memory size had to be finite numbers > 0
    (("clock_mhz",), math.nan), (("hbm_gbps",), math.nan), (("clock_mhz",), math.inf),
    (("clusters", 0, "shared_mem_mb"), math.inf), (("hbm_gbps",), math.inf),
    (("clock_mhz",), True), (("hbm_gbps",), True), (("hbm_gbps",), "64"),
])
def test_simulate_bad_hw_value_exit_code(tmp_path, capsys, path, value):
    doc = desk_hw_doc_with(path, value)
    hw = tmp_path / "hw.json"
    hw.write_text(json.dumps(doc))
    out = tmp_path / "never"
    rc = main(["simulate", "--workload", small_workload_file(tmp_path), "--hw", str(hw),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad input:") and err.count("\n") == 1
    assert not out.exists()


def _requests(*ids_and_arrivals):
    return [{"request_id": rid, "model": "alexnet", "arrival_cycle": t}
            for rid, t in ids_and_arrivals]


@pytest.mark.parametrize("doc,word", [
    ([], "object"),
    ({"requests": 5}, "list of requests"),
    ({"requests": _requests(("x", 0))}, "request_id"),
    ({"requests": _requests((0, 0)), "model_params": {"batch": "x"}}, "batch"),
    ({"requests": _requests((0, 0), (0, 0))}, "unique"),
    ({"requests": _requests((0, -5))}, "arrival_cycle"),
    ({"requests": _requests((0, 0)), "model_params": {"seq_length": 256}}, "seq_length"),
    # each ran, and a list name reached the trace meta as its repr
    ({"requests": _requests((0, 0)), "name": ["x"]}, "name"),
    ({"requests": _requests((0, 0)), "arrival_model": "poisson"}, "arrival_model"),
])
def test_simulate_bad_manifest_exit_code(tmp_path, capsys, doc, word):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    rc = main(["simulate", "--workload", str(path), "--hw", small_hw_file(tmp_path),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad input:") and err.count("\n") == 1 and word in err
    assert not out.exists()


def test_simulate_stall_exit_code(tmp_path, monkeypatch, capsys):
    def never(table, now):
        raise NoReadyTask("never places", math.inf)

    monkeypatch.setitem(SCHEDULERS, "has", never)
    out = tmp_path / "stalled"
    rc = main(["simulate", "--workload", small_workload_file(tmp_path),
               "--hw", small_hw_file(tmp_path), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("deadlock:") and err.count("\n") == 1
    assert not out.exists()


def test_simulate_failure_leaves_no_output_dir(tmp_path):
    with open(small_workload_file(tmp_path)) as f:
        doc = json.load(f)
    doc["requests"][0]["model"] = "nosuchnet"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    rc = main(["simulate", "--workload", str(path), "--hw", small_hw_file(tmp_path),
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_simulate_out_naming_a_file_exit_code(tmp_path, capsys):
    out = tmp_path / "afile"
    out.write_text("")
    rc = main(["simulate", "--workload", small_workload_file(tmp_path),
               "--hw", small_hw_file(tmp_path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --out")


def test_simulate_unwritable_output_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    rc = main(["simulate", "--workload", small_workload_file(tmp_path),
               "--hw", small_hw_file(tmp_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'report.json'}: ")
    assert err.count("\n") == 1


# sha256 of report.json, trace.json and decisions.jsonl: a change to how
# svsim simulate writes its outputs that moves a byte moves these
OUTPUT_PINS = {
    "small": ("f7a3a04cfb5f3c7d3d7f33915946e3240ec4168f27694ea9a2b4efb699ac0243",
              "22c0b9010a509b50d2ec36e4bc1f4007500d81fdd4a6708586a598b5a262f6f3",
              "4fcdc6fa65bfd9819e1f007751c05737eae31ac93d23cab36efd3ddc1f337e12"),
    "desk4_rate": ("670419dd4993ffe4a5432dfb65eb2c43c568b0daea7fca9581e8b1f7b8b328e1",
                   "48eeed8c8c9ac27af9588714229cf4219ce7f938687f47aeb8227ac75f5f4989",
                   "ed47ed170c51643c095e507b412f920d7a25b065cf4df310604871041f7850f0"),
    "desk4_rate_rr": ("5ca1b11e6ea83ee841615f246076ab02a9d8bf69e98f65829a2d8dc0e81fbf01",
                      "be5e82165945063fcabf1f9d8efc99e0edcc9bbb595ecf727d8141b344de8cae",
                      "a1531e5245dcbaecaae59472f770c5ec9c30278ece7b4b2888632ab734df6ace"),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_PINS))
def test_simulate_output_bytes_pinned(tmp_path, name):
    if name == "small":
        w, hw = small_workload_file(tmp_path), small_hw_file(tmp_path)
    else:  # perfbench's serve stream 1 unshuffled: 3,032 events, several export chunks
        with open(DESK_HW) as f:
            doc = json.load(f)
        doc["clusters"] = doc["clusters"] * 4
        hw = tmp_path / "hw4.json"
        hw.write_text(json.dumps(doc))
        w = tmp_path / "rate.json"
        save_manifest(generate(0.5, 16, 1, arrival_model="rate",
                               arrival_interval=3_000_000), str(w))
    out = tmp_path / "out"
    scheduler = "rr" if name.endswith("_rr") else "has"
    assert main(["simulate", "--workload", str(w), "--hw", str(hw), "--scheduler", scheduler,
                 "--out", str(out)]) == 0
    got = tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                for f in ("report.json", "trace.json", "decisions.jsonl"))
    assert got == OUTPUT_PINS[name]


# --- sweep ----------------------------------------------------------------------

def tiny_spec():
    return {
        "arrays": [[1, 16]], "vectors": [[1, 64]], "shared_mem_mb": [45],
        "clusters": [1],
        "workload_suite": {"request_count": 2, "seeds": [1],
                           "model_params": {"depth_reduction": 8}},
    }


def test_sweep_spec_cardinality():
    spec = load_sweep_spec({})
    assert len(sweep_configs(spec)) == 108
    doc = {"clusters": [1, 2, 4]}
    spec3 = load_sweep_spec(doc)
    assert len(sweep_configs(spec3)) == 324
    assert doc == {"clusters": [1, 2, 4]}  # the caller's dict is not filled in


def test_shipped_sweep_spec_matches_code_defaults():
    shipped, default = load_sweep_spec(SWEEP_SPEC), load_sweep_spec({})
    assert sweep_configs(shipped) == sweep_configs(default)
    assert sweep_workloads(shipped) == sweep_workloads(default)


def test_single_point_sweep(tmp_path):
    spec = load_sweep_spec(tiny_spec())
    rows, failures = run_sweep(spec, str(tmp_path / "out"))
    assert failures == []
    assert len(rows) == 11  # one config x 11 ratios x 1 seed
    assert {r["config"] for r in rows} == {"a1x16_v1x64_sm45_c1"}


def test_sweep_resumes_and_parallelism_invariant(tmp_path):
    spec = load_sweep_spec(tiny_spec())
    out1 = str(tmp_path / "serial")
    rows1, _ = run_sweep(spec, out1)
    # delete one point; a resumed sweep recomputes only that point
    points = sorted(os.listdir(os.path.join(out1, "points")))
    os.remove(os.path.join(out1, "points", points[0]))
    rows1b, _ = run_sweep(spec, out1)
    assert rows1b == rows1
    out2 = str(tmp_path / "parallel")
    rows2, _ = run_sweep(spec, out2, parallelism=2)
    assert rows2 == rows1


def test_sweep_cache_keyed_by_scheduler(tmp_path):
    spec = load_sweep_spec(tiny_spec())
    out = str(tmp_path / "shared")
    run_sweep({**spec, "scheduler": "has"}, out)
    rows, failures = run_sweep({**spec, "scheduler": "rr"}, out)
    assert failures == []
    assert {r["scheduler"] for r in rows} == {"rr"}
    assert rows == run_sweep({**spec, "scheduler": "rr"}, str(tmp_path / "fresh"))[0]


def test_sweep_cache_keyed_by_hardware(tmp_path):
    out = str(tmp_path / "shared")
    run_sweep(load_sweep_spec({**tiny_spec(), "hbm_gbps": 256}), out)
    slow = load_sweep_spec({**tiny_spec(), "hbm_gbps": 8})
    rows, _ = run_sweep(slow, out)
    assert rows == run_sweep(slow, str(tmp_path / "fresh"))[0]
    assert len(rows) == 11


def test_sweep_recomputes_points_after_code_change(tmp_path, monkeypatch):
    spec = load_sweep_spec(tiny_spec())
    out = str(tmp_path / "shared")
    rows, _ = run_sweep(spec, out)
    ran = []
    real = cli.run_sweep_point
    monkeypatch.setattr(cli, "run_sweep_point", lambda *a: ran.append(a) or real(*a))
    assert run_sweep(spec, out)[0] == rows and ran == []
    monkeypatch.setattr(cli, "code_digest", lambda: "another cost model")
    rows2, failures = run_sweep(spec, out)
    assert failures == [] and len(ran) == len(rows) == 11
    assert not {r.pop("key") for r in rows} & {r.pop("key") for r in rows2}
    assert rows2 == rows


@pytest.mark.parametrize("doc,word", [({"arrays": [[1, 8]]}, "dim 8"),
                                      ({"arrays": 5}, "int"),
                                      ({"workload_suite": {"request_count": 0}},
                                       "request_count"),
                                      ({"hbm_gbps": math.inf}, "hbm_gbps"),
                                      # each ran a sweep that ignored the key
                                      ({"shared_mem": [45]}, "'shared_mem'"),
                                      ({"workload_suite": {"request_cnt": 2}},
                                       "'request_cnt'"),
                                      ({"workload_suite": {"model_params":
                                                           {"seq_length": 256}}},
                                       "'seq_length'"),
                                      ({"workload_suite": {"seeds": []}}, "seeds"),
                                      # each ran, or ended in a TypeError text
                                      ({"workload_suite": {"seeds": [1.5]}}, "seeds"),
                                      ({"workload_suite": {"seeds": [True]}}, "seeds"),
                                      ({"workload_suite": {"seeds": [1, 1]}}, "seeds"),
                                      ({"workload_suite": {"seeds": [-1]}}, "seeds"),
                                      ({"workload_suite": {"seeds": "ab"}}, "seeds"),
                                      ({"workload_suite": {"request_count": True}},
                                       "request_count"),
                                      ({"workload_suite": {"request_count": 1.5}},
                                       "request_count"),
                                      # each ran with a bool count, as config aTruex32_...
                                      ({"arrays": [[True, 32]]}, "arrays"),
                                      # ... and as config ..._cTrue
                                      ({"clusters": [True]}, "clusters")])
def test_sweep_rejects_bad_spec_before_any_point(tmp_path, capsys, doc, word):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**tiny_spec(), **doc}))
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad sweep spec:") and word in err
    assert "Traceback" not in err
    assert not (out / "points").exists()


def _spec_mutations(doc):
    """(label, copy of ``doc``) with one top-level, ``workload_suite`` or
    ``model_params`` key dropped or retyped, or one axis element retyped."""
    for path in ((), ("workload_suite",), ("workload_suite", "model_params")):
        for key in functools.reduce(dict.get, path, doc):
            for value in ("drop", 5, "x", [], None, True, 1.5, {}):
                bad = copy.deepcopy(doc)
                node = functools.reduce(dict.get, path, bad)
                if value == "drop":
                    del node[key]
                else:
                    node[key] = value
                yield f"{'.'.join(path + (key,))} {value!r}", bad
    for axis in ("arrays", "vectors", "shared_mem_mb", "clusters"):
        for i in range(len(doc[axis])):
            for value in (5, "x", [], None, True, 1.5, [True, 32], [2, 32, 1], [2.0, 32]):
                bad = copy.deepcopy(doc)
                bad[axis][i] = value
                yield f"{axis}[{i}] {value!r}", bad


def test_sweep_spec_mutations_load_or_raise_value_or_config_error():
    # the sweep-spec counterpart of test_models' ingest mutations: no Python
    # error escapes the one check and no bool count reaches a config label
    with open(SWEEP_SPEC) as f:
        doc = json.load(f)
    count = 0
    for label, bad in _spec_mutations(doc):
        count += 1
        try:
            spec = load_sweep_spec(bad)
        except (ValueError, ConfigError):
            continue
        except Exception as e:
            pytest.fail(f"{label} escaped load_sweep_spec as {e!r}")
        labels = [cfg["label"] for cfg in sweep_configs(spec)]
        assert not [x for x in labels if "True" in x or "False" in x], label
    assert count == 272


def _one_request_spec(tmp_path, **changes):
    spec = {**tiny_spec(), "workload_suite": {"request_count": 1, "seeds": [1],
                                              "model_params": {"depth_reduction": 8}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, **changes}))
    return str(path)


def test_sweep_cli_one_config_one_seed_one_request(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--spec", _one_request_spec(tmp_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("sweep complete: 11 rows")
    assert len(read_results_csv(str(out / "results.csv"))) == 11


def test_sweep_cli_lists_failed_points(tmp_path, capsys):
    out = tmp_path / "out"
    spec = _one_request_spec(tmp_path, shared_mem_mb=[1])
    assert main(["sweep", "--spec", spec, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("sweep complete: 1 rows")
    err = captured.err.splitlines()
    assert err[0] == "10 failed points:"
    assert len(err) == 11
    kinds = [line.split(": ")[1] for line in err[1:]]
    assert all(line.startswith("  a1x16_v1x64_sm1_c1__") for line in err[1:])
    assert (kinds.count("UnpartitionableLayer"), kinds.count("CapacityDeadlock")) == (7, 3)


def test_sweep_cli_rejects_unknown_scheduler(tmp_path, capsys):
    out = tmp_path / "out"
    spec = _one_request_spec(tmp_path, scheduler="fifo")
    assert main(["sweep", "--spec", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad sweep spec:") and err.count("\n") == 1
    assert "fifo" in err and not out.exists()


def test_sweep_cli_scheduler_overrides_the_spec(tmp_path):
    out = tmp_path / "out"
    spec = _one_request_spec(tmp_path, scheduler="has")
    assert main(["sweep", "--spec", spec, "--scheduler", "rr", "--out", str(out)]) == 0
    rows = read_results_csv(str(out / "results.csv"))
    assert len(rows) == 11 and {r["scheduler"] for r in rows} == {"rr"}


def test_sweep_cli_rejects_unknown_scheduler_in_spec_under_override(tmp_path, capsys):
    # the spec is checked as written; --scheduler does not excuse a bad one
    out = tmp_path / "out"
    spec = _one_request_spec(tmp_path, scheduler="fifo")
    assert main(["sweep", "--spec", spec, "--scheduler", "rr", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad sweep spec:") and err.count("\n") == 1
    assert "fifo" in err and not out.exists()


def test_sweep_out_naming_a_file_exit_code(tmp_path, capsys):
    out = tmp_path / "afile"
    out.write_text("")
    assert main(["sweep", "--spec", _one_request_spec(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {out} is not a directory\n"


def test_sweep_unwritable_points_dir_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "points").write_text("")
    assert main(["sweep", "--spec", _one_request_spec(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out / 'points'}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("sample", ["nan", "0", "-0.5", "1.5"])
def test_sweep_rejects_sample_outside_unit_interval(tmp_path, capsys, sample):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--spec", _one_request_spec(tmp_path), "--sample", sample,
              "--out", str(out)])
    assert exc.value.code == 2
    assert f"sample must be in (0, 1], got {sample}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("parallelism", ["-3", "0", "1.5", "two"])
def test_sweep_rejects_parallelism_below_one(tmp_path, capsys, parallelism):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--spec", _one_request_spec(tmp_path), "--parallelism", parallelism,
              "--out", str(out)])
    assert exc.value.code == 2
    assert f"parallelism must be an integer >= 1, got {parallelism}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_sample_fraction(tmp_path):
    spec = load_sweep_spec(tiny_spec())
    rows, _ = run_sweep(spec, str(tmp_path / "s"), sample=0.3)
    assert 1 <= len(rows) < 11


# --- compare --------------------------------------------------------------------

def test_compare_identity_ratios(tmp_path):
    spec = load_sweep_spec(tiny_spec())
    rows, _ = run_sweep(spec, str(tmp_path / "cmp"))
    path = os.path.join(str(tmp_path / "cmp"), "results.csv")
    out = compare_results(read_results_csv(path), read_results_csv(path))
    assert all(r["speedup"] == pytest.approx(1.0) for r in out)
    assert out[-1]["config"] == "geomean"


def test_compare_hand_computed_ratio():
    a = [{"config": "c", "workload": "w", "tops": "2.0", "tops_per_watt": "1.0"}]
    b = [{"config": "c", "workload": "w", "tops": "3.0", "tops_per_watt": "1.5"}]
    out = compare_results(a, b)
    assert out[0]["speedup"] == pytest.approx(1.5)
    assert out[0]["efficiency_ratio"] == pytest.approx(1.5)


def test_compare_key_mismatch():
    a = [{"config": "c", "workload": "w", "tops": "2.0", "tops_per_watt": "1.0"}]
    with pytest.raises(KeyError):
        compare_results(a, [])


def test_compare_cli_exit_codes(tmp_path):
    a = tmp_path / "a.csv"
    a.write_text("config,workload,cnn_ratio,seed,scheduler,tops,watts,"
                 "tops_per_watt,area_mm2,makespan_cycles,total_ops,joules\n"
                 "c,w,0.5,1,has,2.0,1.0,2.0,10,100,200,1.0\n")
    b = tmp_path / "b.csv"
    b.write_text("config,workload,cnn_ratio,seed,scheduler,tops,watts,"
                 "tops_per_watt,area_mm2,makespan_cycles,total_ops,joules\n"
                 "c,other,0.5,1,has,2.0,1.0,2.0,10,100,200,1.0\n")
    assert main(["compare", str(a), str(a)]) == 0
    assert main(["compare", str(a), str(b)]) == 1


RESULTS_HEADER = ("config,workload,cnn_ratio,seed,scheduler,tops,watts,"
                  "tops_per_watt,area_mm2,makespan_cycles,total_ops,joules\n")
GOOD_ROW = "c,w,0.5,1,has,2.0,1.0,2.0,10,100,200,1.0\n"


@pytest.mark.parametrize("text_a,row_b,message", [
    (RESULTS_HEADER + "c,w,0.5,1,has,fast,1.0,2.0,10,100,200,1.0\n", GOOD_ROW,
     "tops of c/w is 'fast'"),
    (RESULTS_HEADER + "c,w,0.5,1,has,0,1.0,2.0,10,100,200,1.0\n", GOOD_ROW,
     "tops of c/w is '0'"),
    (RESULTS_HEADER, "", "no result rows"),  # every point of a sweep failed
    ("workload,tops,tops_per_watt\nw,2.0,2.0\n", GOOD_ROW, "no 'config' column"),
    (RESULTS_HEADER + GOOD_ROW + GOOD_ROW, GOOD_ROW,
     "result key ('c', 'w') appears more than once"),
], ids=["non_numeric_tops", "zero_tops", "header_only", "missing_config_column",
        "repeated_key"])
def test_compare_bad_results_exit_2_with_one_error_line(tmp_path, capsys, text_a, row_b,
                                                        message):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(text_a)
    b.write_text(RESULTS_HEADER + row_b)
    assert main(["compare", str(a), str(b)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_compare_unwritable_output_one_error_line(tmp_path, capsys):
    a = tmp_path / "a.csv"
    a.write_text(RESULTS_HEADER + GOOD_ROW)
    out = tmp_path / "missing" / "r.csv"
    assert main(["compare", str(a), str(a), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_compare_cli_writes_one_row_per_key_and_the_geomean(tmp_path, capsys):
    header = ("config,workload,cnn_ratio,seed,scheduler,tops,watts,"
              "tops_per_watt,area_mm2,makespan_cycles,total_ops,joules\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(header + "c,w1,0.5,1,has,2.0,1.0,2.0,10,100,200,1.0\n"
                          "c,w2,0.5,1,has,4.0,1.0,4.0,10,100,200,1.0\n")
    b.write_text(header + "c,w1,0.5,1,has,4.0,1.0,4.0,10,100,200,1.0\n"
                          "c,w2,0.5,1,has,2.0,1.0,2.0,10,100,200,1.0\n")
    out = tmp_path / "out.csv"
    assert main(["compare", str(a), str(b), "-o", str(out)]) == 0
    rows = read_results_csv(str(out))
    assert [(r["config"], r["workload"]) for r in rows] == [("c", "w1"), ("c", "w2"),
                                                          ("geomean", "*")]
    assert [float(r["speedup"]) for r in rows] == pytest.approx([2.0, 0.5, 1.0])
    assert capsys.readouterr().out == "geomean speedup=1.0000 efficiency_ratio=1.0000\n"
