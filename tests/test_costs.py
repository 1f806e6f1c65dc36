import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svsim.costs import (VECTOR_OPS, TaskCost, UnsupportedOp, layer_cost,
                         mem_transfer_cycles, systolic_cycles, task_cycles,
                         vector_cycles)
from svsim.hardware import PhysicalModel
from svsim.models import DATA_OPS, MATRIX_OPS, builtin_model
from svsim.umf import OpType

from support import make_cluster, make_hw
from systolic_reference import reference_gemm

def matrix_cost(m, k, n, groups=1):
    return TaskCost(OpType.GEMM, macs=m * k * n * groups, matrix=(m, k, n, groups))


# --- systolic timing ---------------------------------------------------------

def test_single_tile_16():
    assert systolic_cycles(matrix_cost(16, 16, 16), 16) == 48


def test_tall_skinny_amortizes_fill_drain():
    cycles = systolic_cycles(matrix_cost(4096, 16, 16), 16)
    assert cycles == 4128
    # effective rate within 1% of peak MAC rate
    assert 4096 * 16 * 16 / (cycles * 256) > 0.99


def test_tiling_counts():
    for m in (1, 7, 100):
        assert systolic_cycles(matrix_cost(m, 64, 64), 16) == 16 * (m + 32)


def test_grouped_matrix_sums_group_passes():
    # depthwise-style: 8 groups of K=9, N=1
    c = matrix_cost(100, 9, 1, groups=8)
    assert systolic_cycles(c, 16) == 8 * (100 + 32)


@pytest.mark.parametrize("m,k,n,d", [
    (16, 16, 16, 16), (1, 64, 64, 16), (100, 30, 70, 32),
    (33, 65, 129, 64), (5, 5, 5, 16),
])
def test_matches_pe_level_reference(m, k, n, d):
    cycles, _ = reference_gemm(m, k, n, d, seed=m + k + n)
    formula = systolic_cycles(matrix_cost(m, k, n), d)
    assert abs(formula - cycles) <= 0.01 * cycles


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 512), st.integers(1, 512), st.integers(1, 512),
       st.sampled_from([16, 32, 64]))
def test_systolic_cycles_monotone(m, k, n, d):
    base = systolic_cycles(matrix_cost(m, k, n), d)
    assert systolic_cycles(matrix_cost(m + 1, k, n), d) >= base
    assert systolic_cycles(matrix_cost(m, k + 1, n), d) >= base
    assert systolic_cycles(matrix_cost(m, k, n + 1), d) >= base


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 512), st.integers(1, 512), st.integers(1, 512),
       st.sampled_from([16, 32, 64]))
def test_mac_rate_never_exceeds_array_capacity(m, k, n, d):
    cycles = systolic_cycles(matrix_cost(m, k, n), d)
    assert m * k * n / cycles <= d * d


def test_vector_only_op_unsupported_on_array():
    pool = TaskCost(OpType.POOL, vector_ops=100)
    with pytest.raises(UnsupportedOp):
        systolic_cycles(pool, 16)
    with pytest.raises(UnsupportedOp):
        task_cycles(pool, "array", 16)


# --- vector timing -----------------------------------------------------------

def test_elementwise_cycles():
    relu = TaskCost(OpType.ACTIVATION, vector_ops=4096)
    assert vector_cycles(relu, 16) == 256


def test_vector_matrix_one_mac_per_lane():
    gemm = TaskCost(OpType.GEMM, macs=8192, matrix=(8, 32, 32, 1))
    assert vector_cycles(gemm, 16) == 512


def test_softmax_stage_cycles():
    sm = TaskCost(OpType.SOFTMAX, vector_ops=1024, softmax_rows=1, softmax_width=1024)
    assert vector_cycles(sm, 16) == 832


def test_softmax_matches_unit_occupancy_reference():
    # scalar reference: walk each row in lane-wide chunks through the
    # exponent, accumulate, and divide units, counting occupied cycles
    def reference(rows, width, lanes):
        total = 0
        for _ in range(rows):
            remaining = width
            while remaining > 0:
                remaining -= min(lanes, remaining)
                total += 4 + 1 + 8  # exponent, accumulate, divide
        return total

    for rows, width, lanes in ((1, 1024, 16), (128, 128, 64), (7, 33, 32)):
        sm = TaskCost(OpType.SOFTMAX, vector_ops=rows * width,
                      softmax_rows=rows, softmax_width=width)
        assert vector_cycles(sm, lanes) == reference(rows, width, lanes)


def test_vector_op_table_covers_every_vector_op():
    # one entry per op that is neither matrix nor data work, each naming an
    # energy row
    assert set(VECTOR_OPS) == set(OpType) - MATRIX_OPS - DATA_OPS
    rows = PhysicalModel().vector_pj
    for v in VECTOR_OPS.values():
        assert v.energy_row in rows


# softmax's are its row stages: exponent 4, accumulate 1, divide 8
@pytest.mark.parametrize("op,cycles", [(OpType.POOL, 1), (OpType.ACTIVATION, 1),
                                       (OpType.LAYERNORM, 4), (OpType.ELEMENTWISE_ADD, 1),
                                       (OpType.SOFTMAX, 13)])
def test_vector_op_cycles_per_element(op, cycles):
    assert VECTOR_OPS[op].cycles == cycles
    one_row = TaskCost(op, vector_ops=64, softmax_rows=1, softmax_width=64)
    assert vector_cycles(one_row, 64) == cycles  # one lane-wide step


def test_data_ops_take_no_compute_cycles():
    c = TaskCost(OpType.RESHAPE, act_in_bytes=1024, act_out_bytes=1024)
    assert vector_cycles(c, 16) == 0


def test_systolic_wins_at_scale_vector_owns_special_functions():
    big = matrix_cost(512, 512, 512)
    assert systolic_cycles(big, 16) < vector_cycles(big, 64)


# --- memory transfers ----------------------------------------------------------

HW = make_hw(1, make_cluster(1, 16, 1, 16, 45))  # 256 GB/s, 100 cycles, 800 MHz


def test_zero_bytes_is_latency_only():
    assert mem_transfer_cycles(0, HW) == 100


def test_256mb_transfer():
    assert mem_transfer_cycles(256 * 2**20, HW) == 100 + 838861


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9))
def test_transfer_monotone_and_asymptotically_linear(nbytes):
    a = mem_transfer_cycles(nbytes, HW)
    b = mem_transfer_cycles(2 * nbytes, HW)
    assert b >= a
    if nbytes > 10**6:  # doubling the payload doubles the bandwidth term
        lat = HW.hbm_latency_cycles
        assert (b - lat) / (a - lat) == pytest.approx(2.0, rel=0.001)


# --- layer costs ---------------------------------------------------------------

def test_layer_cost_conv_dims():
    g = builtin_model("alexnet")
    conv1 = g.layers[0]
    c = layer_cost(conv1)
    assert c.matrix == (55 * 55, 3 * 11 * 11, 96, 1)
    assert c.macs == 55 * 55 * 363 * 96
    assert c.param_bytes == 96 * 363 + 96
    assert c.act_in_bytes == 3 * 224 * 224


def test_layer_cost_pool_scans_window():
    g = builtin_model("alexnet")
    pool1 = g.layers[2]
    c = layer_cost(pool1)
    assert (c.op, c.vector_ops) == (OpType.POOL, 96 * 27 * 27 * 9)
