"""Analytical time and work estimators for layers and sub-layer tasks.

Systolic timing models a weight-stationary array with double-buffered
weights: a d x d array computes an M x K . K x N product in

    ceil(N/d) * ceil(K/d) * (M + 2d)   cycles

where each tile pass streams M skewed input rows and drains through d rows
of accumulation plus d columns of output skew (the 2d term).  Weight loads
for later tiles are hidden behind the running pass; partial sums across K
tiles stay in the accumulation units.  Convolution lowers to the im2col
product M = output positions, K = flattened kernel volume, N = output
channels (per group).

Vector processors run one MAC per lane per cycle for matrix work, and other
work at the fixed per-element cycles of ``VECTOR_OPS``.  A processor enters as
its kind and size (PE dim d or lane count): nothing else of it sets the cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .hardware import HardwareConfig
from .models import (DATA_OPS, MATRIX_OPS, LayerNode, OpType, layer_macs,
                     matrix_dims)


class UnsupportedOp(Exception):
    pass


@dataclass(frozen=True)
class TaskCost:
    """Work and footprint of a layer or sub-layer slice."""

    op: OpType
    macs: int = 0
    matrix: tuple[int, int, int, int] | None = None  # (M, K, N, groups)
    vector_ops: int = 0  # element operations of a vector op
    softmax_rows: int = 0
    softmax_width: int = 0
    param_bytes: int = 0
    act_in_bytes: int = 0
    act_out_bytes: int = 0


class VectorOp(NamedTuple):
    name: str  # its key in a trace row's vector_counts
    cycles: int  # per lane-wide step of elements (of one row, for softmax)
    energy_row: str  # its PhysicalModel.vector_pj row


# every op that is neither matrix nor data work; normalization and
# element-wise add land on the catch-all energy row
VECTOR_OPS = {
    OpType.POOL: VectorOp("pool", 1, "pooling"),
    OpType.ACTIVATION: VectorOp("activation", 1, "lut"),
    OpType.SOFTMAX: VectorOp("softmax", 13, "softmax"),  # exponent 4, accumulate 1, divide 8
    OpType.LAYERNORM: VectorOp("layernorm", 4, "etc"),
    OpType.ELEMENTWISE_ADD: VectorOp("add", 1, "etc"),
}


def layer_cost(layer: LayerNode) -> TaskCost:
    """Full-layer cost; sub-layer slices are derived by the partitioner."""
    param = sum(t.byte_size for t in layer.weight_inputs)
    act_in = sum(t.byte_size for t in layer.activation_inputs)
    act_out = sum(t.byte_size for t in layer.outputs)
    if layer.op in MATRIX_OPS:
        dims = matrix_dims(layer)
        return TaskCost(layer.op, macs=layer_macs(layer), matrix=dims,
                        param_bytes=param, act_in_bytes=act_in,
                        act_out_bytes=act_out)
    if layer.op in DATA_OPS:
        return TaskCost(layer.op, param_bytes=param, act_in_bytes=act_in,
                        act_out_bytes=act_out)
    out = layer.outputs[0]
    ops = out.elements
    if layer.op == OpType.POOL:
        # the window reduction streams kernel^2 operands per output element
        ops *= layer.attrs["kernel"] ** 2
    elif layer.op == OpType.SOFTMAX:
        rows = math.prod(out.shape[:-1])
        return TaskCost(layer.op, vector_ops=ops,
                        softmax_rows=rows, softmax_width=out.shape[-1],
                        param_bytes=param, act_in_bytes=act_in,
                        act_out_bytes=act_out)
    return TaskCost(layer.op, vector_ops=ops, param_bytes=param,
                    act_in_bytes=act_in, act_out_bytes=act_out)


def systolic_cycles(cost: TaskCost, d: int) -> int:
    """Cycles for a matrix task on a weight-stationary d x d array."""
    if cost.matrix is None:
        raise UnsupportedOp(f"{cost.op.name} cannot run on a systolic array")
    m, k, n, groups = cost.matrix
    passes = math.ceil(n / d) * math.ceil(k / d)
    return groups * passes * (m + 2 * d)


def vector_cycles(cost: TaskCost, lanes: int) -> int:
    """Cycles for any task on a SIMD vector processor with ``lanes`` lanes."""
    if cost.op in MATRIX_OPS:
        return math.ceil(cost.macs / lanes)
    if cost.op in DATA_OPS:
        return 0  # data movement only; transfer time is accounted separately
    steps = (cost.softmax_rows * math.ceil(cost.softmax_width / lanes)
             if cost.op == OpType.SOFTMAX else math.ceil(cost.vector_ops / lanes))
    return steps * VECTOR_OPS[cost.op].cycles


def task_cycles(cost: TaskCost, kind: str, size: int) -> int:
    if kind == "array":
        return systolic_cycles(cost, size)
    return vector_cycles(cost, size)


def mem_transfer_cycles(num_bytes: int, hw: HardwareConfig) -> int:
    """External-memory transfer latency in cycles; one channel serializes."""
    if num_bytes < 0:
        raise ValueError("transfer size must be non-negative")
    return hw.hbm_latency_cycles + math.ceil(
        num_bytes * hw.clock_hz / hw.hbm_bandwidth_bytes_per_s)
