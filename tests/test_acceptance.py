"""Acceptance suite.

One test per criterion; each prints a PASS line on success (run with
``pytest tests/test_acceptance.py -v -s``).  The scheduler-comparison
criteria run the 33-workload desk-scale suite on the desk hardware config;
the design-space criterion runs the full 108-config x 33-workload sweep
(set SVSIM_ACCEPT_SMOKE=1 for the 10% sampled variant).
"""

import os
import random
import statistics
import time

import pytest

from svsim.cli import load_sweep_spec, run_sweep, sweep_configs
from svsim.costs import TaskCost, systolic_cycles, layer_cost
from svsim.hardware import PhysicalModel, load_hw_config, peak_gops
from svsim.models import builtin_model, ingest_graph
from svsim.simulation import compute_report, run, verify_trace
from svsim.umf import (Attr, DataPacket, DataType, FrameHeader, InfoPacket,
                       OpType, PacketType, Precision, TensorKind,
                       UmfDecodeError, UmfFrame, decode_frame, encode_frame,
                       make_attrs)
from svsim.workloads import Request, Workload, standard_suite

from support import (SMALL_HW, exhaustive_min_makespan, make_cluster, make_hw,
                     run_policy, synth_chain_instance)

HERE = os.path.dirname(__file__)
DESK_HW = load_hw_config(os.path.join(HERE, "..", "configs", "desk_hw.json"))
MID_RATIOS = (0.3, 0.4, 0.5, 0.6, 0.7)


def _ok(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion:2d} PASS: {message}")


# ---------------------------------------------------------------------------
# criterion 1: UMF codec soundness

def _random_frame(rng: random.Random) -> UmfFrame:
    ptype = rng.choice(list(PacketType))
    header = FrameHeader(ptype, rng.randrange(2**32), rng.randrange(2**32),
                         rng.randrange(2**32))
    info, data = [], []
    if ptype == PacketType.MODEL_LOAD:
        for layer in range(rng.randint(1, 4)):
            inputs = tuple((rng.randrange(2**32), rng.choice(list(TensorKind)))
                           for _ in range(rng.randint(0, 4)))
            attrs = make_attrs({a: rng.randrange(2**16)
                                for a in rng.sample(list(Attr), rng.randint(0, 5))})
            info.append(InfoPacket(layer, rng.choice(list(OpType)), inputs,
                                   rng.randint(0, 3), attrs))
    if ptype != PacketType.CHECK and ptype != PacketType.ACK:
        lo = 1 if ptype in (PacketType.REQUEST, PacketType.RETURN) else 0
        for t in range(rng.randint(lo, 4)):
            size = rng.randrange(64)
            body = bytes(rng.getrandbits(8) for _ in range(size)) \
                if rng.random() < 0.5 else None
            data.append(DataPacket(t, rng.choice(list(DataType)),
                                   rng.choice(list(Precision)), size, body))
    return UmfFrame(header, tuple(info), tuple(data))


def test_criterion_1_codec_soundness():
    t0 = time.time()
    rng = random.Random(20260809)
    encodings = []
    for _ in range(1000):
        frame = _random_frame(rng)
        buf = encode_frame(frame)
        assert decode_frame(buf) == frame
        assert encode_frame(decode_frame(buf)) == buf
        encodings.append(buf)
    for _ in range(100):
        buf = rng.choice(encodings)
        cut = rng.randrange(len(buf))
        with pytest.raises(UmfDecodeError):
            decode_frame(buf[:cut])
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _ok(1, f"1000 frame round-trips + 100 truncations, 0 failures "
           f"({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# criterion 2: cost-model fidelity against the PE-level reference

def test_criterion_2_cost_model_fidelity():
    from systolic_reference import reference_gemm
    t0 = time.time()
    rng = random.Random(42)
    worst = 0.0
    for i in range(50):
        m, k, n = (rng.randint(1, 256) for _ in range(3))
        d = rng.choice([16, 32, 64])
        oracle_cycles, _ = reference_gemm(m, k, n, d, seed=i)
        formula = systolic_cycles(
            TaskCost(OpType.GEMM, macs=m * k * n, matrix=(m, k, n, 1)), d)
        rel = abs(formula - oracle_cycles) / oracle_cycles
        worst = max(worst, rel)
        assert rel <= 0.01, f"shape ({m},{k},{n}) d={d}: {rel:.4f}"
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _ok(2, f"50 random shapes within 1% of the PE-level reference "
           f"(worst {worst:.4f}, {elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# criterion 3: peak-rate reproduction and sustained dense GEMM

def test_criterion_3_peak_performance():
    table = {("array", 16): 409.6, ("array", 32): 1638.4, ("array", 64): 6553.6,
             ("vector", 16): 25.6, ("vector", 32): 51.2, ("vector", 64): 102.4}
    for (kind, size), gops in table.items():
        assert peak_gops(kind, size, 800e6) == gops

    sustained = {}
    for d in (16, 32, 64):
        hw = make_hw(1, make_cluster(1, d, 1, 16, 256))
        g = ingest_graph({
            "name": "dense", "class": "cnn", "precision": "int8",
            "inputs": [{"name": "x", "shape": [4096, 2048]}],
            "layers": [{"name": "mm", "op": "GEMM", "inputs": ["x"],
                        "out_features": 2048, "bias": False}]})
        w = Workload("dense", 0, 0.0, 1, (Request(0, "dense", 0),), model_params={})
        _, report = run(w, hw, graphs={"dense": g})
        frac = report.tops * 1000 / peak_gops("array", d, hw.clock_hz)
        sustained[d] = frac
        assert frac >= 0.90, f"{d}x{d}: {frac:.3f}"
    _ok(3, "all 6 peak cells exact; sustained dense GEMM fraction "
           + ", ".join(f"{d}x{d}={f:.3f}" for d, f in sustained.items()))


# ---------------------------------------------------------------------------
# criterion 4: energy accounting exactness

def test_criterion_4_energy_exactness():
    hw = make_hw(1, make_cluster(1, 32, 2, 64, 256))
    phys = PhysicalModel(sram_pj_per_byte=0.0, dram_pj_per_byte=0.0)
    # a constructed mixed workload covering every op-energy row in use:
    # convolution, pooling, activation, normalization, add, matmul, softmax
    g = ingest_graph({
        "name": "mixed", "class": "cnn", "precision": "int8",
        "inputs": [{"name": "x", "shape": [8, 64, 64]}],
        "layers": [
            {"name": "c1", "op": "Conv", "inputs": ["x"], "out_features": 16,
             "kernel": 3, "stride": 1, "padding": 1, "bias": True},
            {"name": "n1", "op": "LayerNorm", "inputs": ["c1"]},
            {"name": "a1", "op": "Activation", "inputs": ["n1"]},
            {"name": "c2", "op": "Conv", "inputs": ["a1"], "out_features": 16,
             "kernel": 3, "stride": 1, "padding": 1, "bias": True},
            {"name": "s1", "op": "ElementwiseAdd", "inputs": ["c2", "a1"]},
            {"name": "p1", "op": "Pool", "inputs": ["s1"], "kernel": 2, "stride": 2},
            {"name": "r1", "op": "Reshape", "inputs": ["p1"], "target": [1024, 16]},
            {"name": "m1", "op": "GEMM", "inputs": ["r1"], "out_features": 32,
             "bias": False},
            {"name": "sm", "op": "Softmax", "inputs": ["m1"]},
        ]})
    w = Workload("mixed", 0, 1.0, 2,
                 (Request(0, "mixed", 0), Request(1, "mixed", 0)), model_params={})
    # round-robin pins matrix work to arrays and the rest to vectors, so an
    # independent per-layer count over the graph fixes the exact joules
    trace, _ = run(w, hw, scheduler="rr", graphs={"mixed": g})
    report = compute_report(trace, hw, phys)
    for p in trace.executions:
        assert (p.proc.kind == "array") == (p.task.cost.op.name in ("CONV", "GEMM", "MATMUL"))
    expected = 0.0
    row_for = {OpType.POOL: "pooling", OpType.ACTIVATION: "lut", OpType.SOFTMAX: "softmax",
               OpType.LAYERNORM: "etc", OpType.ELEMENTWISE_ADD: "etc"}
    for layer in g.layers:
        c = layer_cost(layer)
        expected += c.macs * phys.systolic_mac_pj[32] * 1e-12
        if c.op in row_for:
            expected += c.vector_ops * phys.vector_pj[row_for[c.op]][64] * 1e-12
    expected *= 2  # two identical requests
    assert report.joules == expected  # zero tolerance
    _ok(4, f"simulated joules equal the op-count ledger exactly "
           f"({report.joules * 1e6:.3f} uJ)")


# ---------------------------------------------------------------------------
# criteria 5, 6, 9: the desk-scale suite under both schedulers

@pytest.fixture(scope="module")
def suite_results():
    t0 = time.time()
    suite = standard_suite(request_count=24)
    rows = []
    total_violations = 0
    for w in suite:
        tr_rr, rep_rr = run(w, DESK_HW, scheduler="rr")
        tr_has, rep_has = run(w, DESK_HW, scheduler="has")
        total_violations += len(verify_trace(tr_rr, DESK_HW))
        total_violations += len(verify_trace(tr_has, DESK_HW))
        rows.append({"name": w.name, "ratio": w.cnn_ratio,
                     "rr": rep_rr, "has": rep_has,
                     "speedup": rep_has.tops / rep_rr.tops})
    return rows, total_violations, time.time() - t0


def test_criterion_5_has_vs_rr(suite_results):
    rows, _, elapsed = suite_results
    assert len(rows) == 33
    worst = min(r["speedup"] for r in rows)
    assert worst >= 1.0, \
        f"HAS slower than RR on {[r['name'] for r in rows if r['speedup'] < 1.0]}"
    mid = statistics.geometric_mean(
        [r["speedup"] for r in rows if r["ratio"] in MID_RATIOS])
    assert mid >= 1.3
    assert elapsed < 600.0
    _ok(5, f"HAS >= RR on all 33 workloads (min {worst:.3f}); "
           f"mid-ratio geomean {mid:.3f} >= 1.3 ({elapsed:.0f} s)")


def test_criterion_6_gain_declines_with_transformer_share(suite_results):
    rows, _, _ = suite_results
    xs = [1.0 - r["ratio"] for r in rows]  # transformer fraction
    ys = [r["speedup"] for r in rows]
    slope = statistics.linear_regression(xs, ys).slope
    assert slope < 0
    _ok(6, f"speedup-vs-transformer-fraction regression slope {slope:.3f} < 0")


def test_criterion_9_invariants_hold_across_suite(suite_results):
    rows, violations, _ = suite_results
    assert violations == 0
    _ok(9, f"trace replay over {2 * len(rows)} runs: 0 capacity/exclusivity/"
           f"dependency violations")


# ---------------------------------------------------------------------------
# criterion 7: cluster scalability

def test_criterion_7_cluster_scalability():
    w = Workload("saturate", 0, 1.0, 32,
                 tuple(Request(i, "resnet50", 0) for i in range(32)),
                 model_params={"depth_reduction": 4})
    reports = {}
    for nc in (1, 2, 4):
        hw = make_hw(nc, DESK_HW.clusters[0],
                     hbm_gbps=DESK_HW.hbm_bandwidth_bytes_per_s / 1e9)
        _, reports[nc] = run(w, hw)
    speedup = reports[4].tops / reports[1].tops
    assert speedup >= 3.5
    tw = [reports[nc].tops_per_watt for nc in (1, 2, 4)]
    spread = (max(tw) - min(tw)) / min(tw)
    assert spread <= 0.10
    _ok(7, f"4-cluster speedup {speedup:.2f}x >= 3.5x; TOPS/W spread "
           f"{100 * spread:.1f}% within 10%")


# ---------------------------------------------------------------------------
# criterion 8: scheduler optimality sanity

def test_criterion_8_optimality_sanity():
    t0 = time.time()
    rng = random.Random(1234)
    strict_wins = 0
    for _ in range(100):
        queues = synth_chain_instance(rng, max_tasks=8)
        optimum = exhaustive_min_makespan(SMALL_HW, queues)
        mk_has, _ = run_policy(SMALL_HW, queues, "has")
        mk_rr, _ = run_policy(SMALL_HW, queues, "rr")
        assert optimum <= mk_has <= mk_rr
        if mk_has < mk_rr:
            strict_wins += 1
    elapsed = time.time() - t0
    assert strict_wins >= 30
    assert elapsed < 120.0
    _ok(8, f"100 instances: optimum <= HAS <= RR everywhere; HAS strictly "
           f"faster on {strict_wins} ({elapsed:.1f} s)")


# ---------------------------------------------------------------------------
# criterion 10: design-space sweep shape and the area-efficiency observation

def test_criterion_10_dse_sweep(tmp_path):
    t0 = time.time()
    smoke = os.environ.get("SVSIM_ACCEPT_SMOKE") == "1"
    spec = load_sweep_spec({})
    assert len(sweep_configs(spec)) == 108
    expected_rows = 108 * 33
    assert expected_rows == 3564
    sample = 0.1 if smoke else 1.0
    workers = min(8, os.cpu_count() or 1)
    rows, failures = run_sweep(spec, str(tmp_path / "dse"),
                               parallelism=workers, sample=sample)
    assert failures == []
    if smoke:
        assert len(rows) == int(3564 * 0.1)
    else:
        assert len(rows) == 3564

    # large-but-few arrays beat small-but-many on performance per area
    def mean_ppa(prefix):
        sel = [r for r in rows if r["config"].startswith(prefix)
               and "_v4x64_sm45" in r["config"]]
        if not sel:  # smoke sample may miss the matched pair; widen
            sel = [r for r in rows if r["config"].startswith(prefix)]
        return statistics.mean(r["tops"] / r["area_mm2"] for r in sel)

    big = mean_ppa("a2x64")
    small = mean_ppa("a8x16")
    assert big > small
    elapsed = time.time() - t0
    _ok(10, f"{len(rows)} rows ({'10% smoke' if smoke else 'full'}); "
            f"2x(64x64) perf/mm2 {1000 * big:.2f} > 8x(16x16) "
            f"{1000 * small:.2f} mTOPS/mm2 ({elapsed:.0f} s)")
