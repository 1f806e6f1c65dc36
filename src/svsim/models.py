"""DNN graph representation, builtin benchmark models, and UMF conversion.

Graphs are immutable DAGs of operation layers.  Only shapes are modeled;
weight values never exist (timing and scheduling depend on sizes alone).
Tensor ids follow a fixed convention so frames can be decoded without
carrying explicit output ids:

    weights / biases     1 .. 0x7fff, in declaration order
    external inputs      0x8000 + input index
    layer outputs        ((layer_id + 1) << 16) | output slot

Builtins, JSON ingest and UMF decode all build through
``GraphBuilder.layer``, which infers every shape and checks each layer once,
as it is added (the wire carries only op parameters, never intermediate
shapes).  A frame decodes only if its weights follow the id convention
above and share one precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from .fields import ANY, BOOL, OMIT, REQUIRED, STRING, List, Rule, check
from .umf import (Attr, DataPacket, DataType, FrameHeader, InfoPacket, OpType,
                  PacketType, Precision, TensorKind, UmfFrame, make_attrs)

EXTERNAL_ID_BASE = 0x8000
_ACT_ID_SHIFT = 16

MATRIX_OPS = frozenset({OpType.CONV, OpType.GEMM, OpType.MATMUL})
DATA_OPS = frozenset({OpType.RESHAPE, OpType.CONCAT, OpType.TRANSPOSE})


class ModelClass(Enum):
    CNN = "cnn"
    TRANSFORMER = "transformer"


class ModelError(Exception):
    pass


class SchemaError(ModelError):
    pass


class CycleDetected(ModelError):
    pass


class ShapeMismatch(ModelError):
    pass


class UnknownModel(ModelError):
    pass


class DanglingTensorRef(ModelError):
    pass


class WrongPacketType(ModelError):
    pass


@dataclass(frozen=True)
class TensorInfo:
    tensor_id: int
    kind: TensorKind
    shape: tuple[int, ...]
    precision: Precision
    bias: bool = False

    @property
    def elements(self) -> int:
        return math.prod(self.shape)

    @property
    def byte_size(self) -> int:
        return self.elements * self.precision.width


@dataclass(frozen=True)
class LayerNode:
    layer_id: int
    name: str
    op: OpType
    inputs: tuple[TensorInfo, ...]
    outputs: tuple[TensorInfo, ...]
    attrs: dict
    predecessors: tuple[int, ...]

    @property
    def weight_inputs(self) -> tuple[TensorInfo, ...]:
        return tuple(t for t in self.inputs if t.kind == TensorKind.WEIGHT)

    @property
    def activation_inputs(self) -> tuple[TensorInfo, ...]:
        return tuple(t for t in self.inputs if t.kind == TensorKind.ACTIVATION)


@dataclass(frozen=True, eq=False)  # compared by identity; see structure_equal
class ModelGraph:
    name: str
    model_class: ModelClass
    precision: Precision
    inputs: tuple[TensorInfo, ...]
    layers: tuple[LayerNode, ...]

    @property
    def total_param_bytes(self) -> int:
        return sum(t.byte_size for l in self.layers for t in l.weight_inputs)

    @property
    def total_macs(self) -> int:
        return sum(layer_macs(l) for l in self.layers)


def layer_macs(layer: LayerNode) -> int:
    """Multiply-accumulate count of a matrix layer, 0 for everything else."""
    if layer.op not in MATRIX_OPS:
        return 0
    m, k, n, groups = matrix_dims(layer)
    return m * k * n * groups


def matrix_dims(layer: LayerNode) -> tuple[int, int, int, int]:
    """(M, K, N, groups) of the product a matrix layer lowers to.

    Conv lowers to an im2col product: M = output positions, K = flattened
    kernel volume and N = output channels, per group.
    """
    if layer.op == OpType.CONV:
        x = layer.activation_inputs[0].shape
        batch = x[0] if len(x) == 4 else 1
        out = layer.outputs[0].shape
        spatial = out[-2] * out[-1]
        cin = x[-3]
        g = layer.attrs.get("groups", 1)
        k = layer.attrs["kernel"]
        f = out[-3]
        return batch * spatial, (cin // g) * k * k, f // g, g
    if layer.op in (OpType.GEMM, OpType.MATMUL):
        a = layer.activation_inputs[0].shape
        out = layer.outputs[0].shape
        m = math.prod(a[:-1]) if len(a) > 1 else 1
        return m, a[-1], out[-1], 1
    raise ShapeMismatch(f"{layer.op.name} has no matrix form")


# ---------------------------------------------------------------------------
# shape inference

def _conv_spatial(size: int, kernel: int, stride: int, padding: int) -> int:
    if stride < 1:
        raise SchemaError(f"stride must be >= 1, got {stride}")
    out = (size + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise ShapeMismatch(
            f"kernel {kernel}/stride {stride}/padding {padding} does not fit "
            f"input extent {size}")
    return out


def infer_output_shape(op: OpType, in_shapes: list[tuple[int, ...]],
                       attrs: dict) -> tuple[int, ...]:
    """Output shape of a layer given its activation input shapes."""
    if not in_shapes:
        raise SchemaError(f"{op.name} needs an activation input")
    x = in_shapes[0]
    if op == OpType.CONV:
        if len(x) not in (3, 4):
            raise ShapeMismatch(f"Conv input must be (C,H,W) or (B,C,H,W), got {x}")
        k, s, p = attrs["kernel"], attrs.get("stride", 1), attrs.get("padding", 0)
        f = attrs["out_features"]
        g = attrs.get("groups", 1)
        if g < 1:
            raise SchemaError(f"groups must be >= 1, got {g}")
        if x[-3] % g or f % g:
            raise ShapeMismatch(f"channels {x[-3]}->{f} not divisible by groups {g}")
        h, w = _conv_spatial(x[-2], k, s, p), _conv_spatial(x[-1], k, s, p)
        return x[:-3] + (f, h, w)
    if op == OpType.GEMM:
        return x[:-1] + (attrs["out_features"],)
    if op == OpType.MATMUL:
        if "out_features" in attrs:
            return x[:-1] + (attrs["out_features"],)
        if len(in_shapes) != 2:
            raise SchemaError("MatMul needs a weight or two activations")
        b = in_shapes[1]
        if len(x) != 2 or len(b) != 2 or x[1] != b[0]:
            raise ShapeMismatch(f"MatMul inner dims disagree: {x} x {b}")
        return (x[0], b[1])
    if op == OpType.POOL:
        if len(x) not in (3, 4):
            raise ShapeMismatch(f"Pool input must be (C,H,W) or (B,C,H,W), got {x}")
        k = attrs["kernel"]
        s = attrs.get("stride", k)
        p = attrs.get("padding", 0)
        return x[:-2] + (_conv_spatial(x[-2], k, s, p), _conv_spatial(x[-1], k, s, p))
    if op in (OpType.SOFTMAX, OpType.LAYERNORM, OpType.ACTIVATION):
        return x
    if op == OpType.ELEMENTWISE_ADD:
        if len(in_shapes) != 2:
            raise SchemaError(f"Add needs two operands, got {len(in_shapes)}")
        if in_shapes[0] != in_shapes[1]:
            raise ShapeMismatch(f"Add operands differ: {in_shapes[0]} vs {in_shapes[1]}")
        return x
    if op == OpType.RESHAPE:
        target = tuple(attrs["target"])
        if math.prod(target) != math.prod(x):
            raise ShapeMismatch(f"Reshape {x} -> {target} changes element count")
        return target
    if op == OpType.CONCAT:
        axis = attrs.get("axis", 0)
        if not 0 <= axis < len(x):
            raise SchemaError(f"Concat axis {axis} out of range for {len(x)} dims")
        base = list(x)
        for other in in_shapes[1:]:
            if len(other) != len(x) or any(
                    other[i] != x[i] for i in range(len(x)) if i != axis):
                raise ShapeMismatch(f"Concat shapes incompatible: {in_shapes}")
            base[axis] += other[axis]
        return tuple(base)
    if op == OpType.TRANSPOSE:
        perm = tuple(attrs["perm"])
        if sorted(perm) != list(range(len(x))):
            raise ShapeMismatch(f"bad permutation {perm} for shape {x}")
        return tuple(x[i] for i in perm)
    raise SchemaError(f"unhandled op {op}")


def infer_weight_shapes(op: OpType, in_shapes: list[tuple[int, ...]],
                        attrs: dict, with_bias: bool) -> list[tuple[tuple[int, ...], bool]]:
    """[(shape, is_bias)] of the parameter tensors a layer owns."""
    x = in_shapes[0]
    if op == OpType.LAYERNORM:
        # per-channel scale/shift on feature maps, per-feature on sequences
        d = x[0] if len(x) >= 3 else x[-1]
        return [((d,), False), ((d,), True)]
    if op == OpType.CONV:
        n, k = attrs["out_features"], attrs["kernel"]
        weight = (n, x[-3] // attrs.get("groups", 1), k, k)
    elif op == OpType.GEMM or (op == OpType.MATMUL and "out_features" in attrs):
        n = attrs["out_features"]
        weight = (x[-1], n)
    else:
        return []
    return [(weight, False)] + ([((n,), True)] if with_bias else [])


# ---------------------------------------------------------------------------
# graph construction

class GraphBuilder:
    """Incrementally builds a ModelGraph in topological order; the one
    place a LayerNode is made."""

    def __init__(self, name: str, model_class: ModelClass, precision: Precision):
        self.name = name
        self.model_class = model_class
        self.precision = precision
        self.layers: list[LayerNode] = []
        self.activations: dict[int, TensorInfo] = {}  # inputs and layer outputs
        self._inputs: list[TensorInfo] = []
        self._next_weight_id = 1

    def input(self, shape: tuple[int, ...], tensor_id: int | None = None) -> TensorInfo:
        """A graph input, by default with the next external id."""
        shape = tuple(shape)
        if not shape or min(shape) < 1:
            raise ShapeMismatch(f"degenerate input shape {shape}")
        if tensor_id is None:
            tensor_id = EXTERNAL_ID_BASE + len(self._inputs)
        t = TensorInfo(tensor_id, TensorKind.ACTIVATION, shape, self.precision)
        self._inputs.append(t)
        self.activations[tensor_id] = t
        return t

    def layer(self, op: OpType, acts: list[TensorInfo], attrs: dict | None = None,
              with_bias: bool = False, name: str | None = None) -> TensorInfo:
        """Add a layer reading ``acts`` and return its output.  Unknown
        activations, bad attributes or arity and degenerate weight or
        output shapes raise a ModelError naming the layer."""
        attrs = dict(attrs or {})
        layer_id = len(self.layers)
        name = name or f"layer{layer_id}"
        try:
            for t in acts:
                if self.activations.get(t.tensor_id) != t:
                    raise DanglingTensorRef(f"unknown activation ref {t.tensor_id}")
            in_shapes = [t.shape for t in acts]
            out_shape = infer_output_shape(op, in_shapes, attrs)
            w_shapes = infer_weight_shapes(op, in_shapes, attrs, with_bias)
            for shape in [s for s, _ in w_shapes] + [out_shape]:
                if not shape or min(shape) < 1:
                    raise ShapeMismatch(f"degenerate tensor shape {shape}")
            if self._next_weight_id + len(w_shapes) > EXTERNAL_ID_BASE:
                raise SchemaError("too many weight tensors for the id space")
        except KeyError as e:
            raise SchemaError(f"layer {name!r}: missing attribute {e}") from None
        except ModelError as e:
            raise type(e)(f"layer {name!r}: {e}") from None
        weights = tuple(TensorInfo(self._next_weight_id + i, TensorKind.WEIGHT, s,
                                   self.precision, bias=b)
                        for i, (s, b) in enumerate(w_shapes))
        self._next_weight_id += len(weights)
        out = TensorInfo(((layer_id + 1) << _ACT_ID_SHIFT), TensorKind.ACTIVATION,
                         out_shape, self.precision)
        # a layer output's id names its producer; graph inputs sit below 1 << 16
        preds = tuple(sorted({(t.tensor_id >> _ACT_ID_SHIFT) - 1 for t in acts
                              if t.tensor_id >> _ACT_ID_SHIFT}))
        self.layers.append(LayerNode(layer_id, name, op, tuple(acts) + weights,
                                     (out,), attrs, preds))
        self.activations[out.tensor_id] = out
        return out

    # convenience wrappers used by the builtin definitions
    def conv(self, x, out_channels, kernel, stride=1, padding=0, groups=1,
             bias=True, name=None):
        return self.layer(OpType.CONV, [x],
                          {"kernel": kernel, "stride": stride, "padding": padding,
                           "groups": groups, "out_features": out_channels},
                          with_bias=bias, name=name)

    def gemm(self, x, out_features, bias=True, name=None):
        return self.layer(OpType.GEMM, [x], {"out_features": out_features},
                          with_bias=bias, name=name)

    def matmul(self, a, b, name=None):
        return self.layer(OpType.MATMUL, [a, b], name=name)

    def pool(self, x, kernel, stride=None, padding=0, name=None):
        return self.layer(OpType.POOL, [x],
                          {"kernel": kernel, "stride": stride or kernel,
                           "padding": padding}, name=name)

    def softmax(self, x, name=None):
        return self.layer(OpType.SOFTMAX, [x], name=name)

    def layer_norm(self, x, name=None):
        return self.layer(OpType.LAYERNORM, [x], name=name)

    def activation(self, x, name=None):
        return self.layer(OpType.ACTIVATION, [x], name=name)

    def add(self, a, b, name=None):
        return self.layer(OpType.ELEMENTWISE_ADD, [a, b], name=name)

    def reshape(self, x, target, name=None):
        return self.layer(OpType.RESHAPE, [x], {"target": tuple(target)}, name=name)

    def flatten(self, x, name=None):
        if len(x.shape) == 4:
            return self.reshape(x, (x.shape[0], math.prod(x.shape[1:])), name=name)
        return self.reshape(x, (math.prod(x.shape),), name=name)

    def transpose(self, x, perm, name=None):
        return self.layer(OpType.TRANSPOSE, [x], {"perm": tuple(perm)}, name=name)

    def build(self) -> ModelGraph:
        return ModelGraph(self.name, self.model_class, self.precision,
                          tuple(sorted(self._inputs, key=attrgetter("tensor_id"))),
                          tuple(self.layers))


def structure_signature(graph: ModelGraph):
    """Canonical structural form: everything except display names."""
    def tsig(t: TensorInfo):
        return (t.tensor_id, int(t.kind), t.shape, int(t.precision), t.bias)
    return (graph.model_class, int(graph.precision),
            tuple(tsig(t) for t in graph.inputs),
            tuple((l.layer_id, int(l.op), tuple(sorted(l.attrs.items())),
                   tuple(tsig(t) for t in l.inputs),
                   tuple(tsig(t) for t in l.outputs), l.predecessors)
                  for l in graph.layers))


def structure_equal(a: ModelGraph, b: ModelGraph) -> bool:
    return structure_signature(a) == structure_signature(b)


# ---------------------------------------------------------------------------
# text-format ingestion

_OP_NAMES = {
    "conv": OpType.CONV, "gemm": OpType.GEMM, "matmul": OpType.MATMUL,
    "pool": OpType.POOL, "softmax": OpType.SOFTMAX, "layernorm": OpType.LAYERNORM,
    "activation": OpType.ACTIVATION, "elementwiseadd": OpType.ELEMENTWISE_ADD,
    "add": OpType.ELEMENTWISE_ADD, "reshape": OpType.RESHAPE,
    "concat": OpType.CONCAT, "transpose": OpType.TRANSPOSE,
}

# scalar layer attributes and their UMF bits: JSON ingest reads these keys,
# to_umf writes one u16 per key a layer carries and from_umf reads it back.
# "perm" (packed nibbles) and "target" (TARGET_DIM* slots) have their own rules.
_SCALAR_ATTRS = (("kernel", Attr.KERNEL), ("stride", Attr.STRIDE),
                 ("padding", Attr.PADDING), ("out_features", Attr.OUT_FEATURES),
                 ("groups", Attr.GROUPS), ("axis", Attr.AXIS))


_INTEGER = Rule("an integer (layer attributes are JSON integers)", lambda v: type(v) is int)
_INTEGERS = List(_INTEGER, "a list of JSON integers")
MODEL_FIELDS = {
    "name": (STRING, REQUIRED),
    "class": (ANY, OMIT),  # _parse_class and _parse_precision read these two
    "precision": (ANY, OMIT),
    "inputs": (List({"name": (STRING, REQUIRED), "shape": (_INTEGERS, REQUIRED)},
                    "a list of inputs"), REQUIRED),
    "layers": (List({"name": (STRING, OMIT), "op": (STRING, REQUIRED),
                     "inputs": (List(STRING, "a list of names"), REQUIRED),
                     **{key: (_INTEGER, OMIT) for key, _ in _SCALAR_ATTRS},
                     "perm": (_INTEGERS, OMIT), "target": (_INTEGERS, OMIT),
                     "bias": (BOOL, False)}, "a list of layers"), REQUIRED),
}


def ingest_graph(text) -> ModelGraph:
    """Build a graph from the JSON model description.

    Expected document shape::

        {"name": ..., "class": "cnn"|"transformer", "precision": "int8",
         "inputs": [{"name": ..., "shape": [...]}],
         "layers": [{"name": ..., "op": ..., "inputs": [names],
                     "kernel": ..., "stride": ..., "bias": true, ...}]}

    Layers may reference any other layer by name; the list is topologically
    sorted during ingestion.  A document that breaks ``MODEL_FIELDS``
    raises SchemaError naming the path.
    """
    doc = text
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise SchemaError(f"not valid JSON: {e}") from None
    doc = check(doc, MODEL_FIELDS, SchemaError, "model description")

    specs: dict[str, tuple[OpType, dict]] = {}
    for i, spec in enumerate(doc["layers"]):
        op = _OP_NAMES.get(spec["op"].lower())
        if op is None:
            raise SchemaError(f"layer {i}: unknown op {spec['op']!r}")
        name = spec.get("name", f"layer{i}")
        if name in specs:
            raise SchemaError(f"duplicate layer name {name!r}")
        specs[name] = (op, spec)
    input_names = {spec["name"] for spec in doc["inputs"]}

    # topological sort over name references (forward references allowed)
    for name, (_, spec) in specs.items():
        for ref in spec["inputs"]:
            if ref not in specs and ref not in input_names:
                raise SchemaError(f"layer {name!r}: unknown input {ref!r}")
    # depth-first post-order over each layer's inputs, on a stack of its own
    order: list[str] = []
    state: dict[str, int] = {}  # 1 on the stack, 2 done
    stack = [(None, iter(specs))]  # a root whose inputs are all layers, in order
    while stack:
        name, refs = stack[-1]
        for ref in refs:
            if ref in specs and state.get(ref) != 2:
                if ref in state:
                    raise CycleDetected(" -> ".join([n for n, _ in stack[1:]] + [ref]))
                state[ref] = 1
                stack.append((ref, iter(specs[ref][1]["inputs"])))
                break
        else:
            stack.pop()
            state[name] = 2
            order.append(name)
    order.pop()  # the root

    mclass = _parse_class(doc.get("class"), (op for op, _ in specs.values()))
    precision = _parse_precision(doc.get("precision"), mclass)
    b = GraphBuilder(doc["name"], mclass, precision)
    produced: dict[str, TensorInfo] = {spec["name"]: b.input(spec["shape"])
                                       for spec in doc["inputs"]}
    for name in order:
        op, spec = specs[name]
        acts = [produced[ref] for ref in spec["inputs"]]
        attrs = {k: spec[k] for k, _ in _SCALAR_ATTRS if k in spec}
        attrs.update((k, tuple(spec[k])) for k in ("perm", "target") if k in spec)
        produced[name] = b.layer(op, acts, attrs, with_bias=spec["bias"], name=name)
    return b.build()


def _parse_class(value, ops) -> ModelClass:
    if value is not None:
        try:
            return ModelClass(str(value).lower())
        except ValueError:
            raise SchemaError(f"unknown model class {value!r}") from None
    ops = set(ops)
    return ModelClass.CNN if (OpType.CONV in ops or OpType.POOL in ops) \
        else ModelClass.TRANSFORMER


def _parse_precision(value, mclass: ModelClass) -> Precision:
    if value is None:
        return Precision.INT8 if mclass == ModelClass.CNN else Precision.FP16
    try:
        return Precision[str(value).upper()]
    except KeyError:
        raise SchemaError(f"unknown precision {value!r}") from None


# ---------------------------------------------------------------------------
# builtin benchmark models

CNN_MODELS = ("resnet50", "vgg16", "mobilenetv2", "alexnet")
TRANSFORMER_MODELS = ("bert_base", "bert_large", "gpt2", "gpt2_medium")
BUILTIN_MODELS = CNN_MODELS + TRANSFORMER_MODELS


def builtin_model(name: str, size: int | None = None, *, batch: int = 1,
                  depth_reduction: int = 1) -> ModelGraph:
    """Shape table of a published architecture as a schedulable graph.

    ``size`` is the image edge for CNNs and the sequence length for
    transformers; None means 224 and 128, and a size below 1 is refused.
    ``depth_reduction`` divides the repeat count of repeated stages/blocks
    (never touching layer shapes) so big models stay cheap to simulate.
    Transformers are single forward passes at batch 1.
    """
    key = name.lower()
    if key not in _BUILDERS:
        raise UnknownModel(f"unknown builtin model {name!r} "
                           f"(available: {', '.join(BUILTIN_MODELS)})")
    if depth_reduction < 1:
        raise SchemaError("depth_reduction must be >= 1")
    if batch < 1:
        raise SchemaError("batch must be >= 1")
    if size is not None and size < 1:
        raise SchemaError(f"image size or sequence length must be >= 1, got {size}")
    if key in TRANSFORMER_MODELS and batch != 1:
        raise SchemaError("transformer builtins run at batch 1")
    return _BUILDERS[key](size, batch, depth_reduction)


def _repeat(count: int, k: int) -> int:
    return max(1, count // k)


def _cnn_builder(name):
    def outer(fn):
        def build(size, batch, k):
            img = 224 if size is None else size
            b = GraphBuilder(name, ModelClass.CNN, Precision.INT8)
            shape = (batch, 3, img, img) if batch > 1 else (3, img, img)
            fn(b, b.input(shape), k)
            return b.build()
        _BUILDERS[name] = build
        return fn
    return outer


_BUILDERS: dict = {}


@_cnn_builder("alexnet")
def _alexnet(b, x, k):
    x = b.conv(x, 96, 11, stride=4, padding=2, name="conv1")
    x = b.activation(x)
    x = b.pool(x, 3, stride=2)
    x = b.conv(x, 256, 5, padding=2, name="conv2")
    x = b.activation(x)
    x = b.pool(x, 3, stride=2)
    x = b.conv(x, 384, 3, padding=1, name="conv3")
    x = b.activation(x)
    if k == 1:  # conv4 repeats conv3's 384-channel shape
        x = b.conv(x, 384, 3, padding=1, name="conv4")
        x = b.activation(x)
    x = b.conv(x, 256, 3, padding=1, name="conv5")
    x = b.activation(x)
    x = b.pool(x, 3, stride=2)
    x = b.flatten(x)
    x = b.gemm(x, 4096, name="fc6")
    x = b.activation(x)
    if k == 1:
        x = b.gemm(x, 4096, name="fc7")
        x = b.activation(x)
    x = b.gemm(x, 1000, name="fc8")
    b.softmax(x)


@_cnn_builder("vgg16")
def _vgg16(b, x, k):
    for stage, (ch, n) in enumerate(((64, 2), (128, 2), (256, 3), (512, 3), (512, 3))):
        for i in range(1 + (n - 1) // k):
            x = b.conv(x, ch, 3, padding=1, name=f"conv{stage + 1}_{i + 1}")
            x = b.activation(x)
        x = b.pool(x, 2, stride=2)
    x = b.flatten(x)
    x = b.gemm(x, 4096, name="fc1")
    x = b.activation(x)
    if k == 1:
        x = b.gemm(x, 4096, name="fc2")
        x = b.activation(x)
    x = b.gemm(x, 1000, name="fc3")
    b.softmax(x)


@_cnn_builder("resnet50")
def _resnet50(b, x, k):
    def block(x, mid, out, stride, downsample, tag):
        y = b.conv(x, mid, 1, bias=False, name=f"{tag}_c1")
        y = b.layer_norm(y)
        y = b.activation(y)
        y = b.conv(y, mid, 3, stride=stride, padding=1, bias=False, name=f"{tag}_c2")
        y = b.layer_norm(y)
        y = b.activation(y)
        y = b.conv(y, out, 1, bias=False, name=f"{tag}_c3")
        y = b.layer_norm(y)
        if downsample:
            x = b.conv(x, out, 1, stride=stride, bias=False, name=f"{tag}_down")
            x = b.layer_norm(x)
        y = b.add(y, x)
        return b.activation(y)

    x = b.conv(x, 64, 7, stride=2, padding=3, bias=False, name="stem")
    x = b.layer_norm(x)
    x = b.activation(x)
    x = b.pool(x, 3, stride=2, padding=1)
    for stage, (mid, out, n, stride) in enumerate(
            ((64, 256, 3, 1), (128, 512, 4, 2), (256, 1024, 6, 2), (512, 2048, 3, 2))):
        for i in range(_repeat(n, k)):
            x = block(x, mid, out, stride if i == 0 else 1, i == 0,
                      f"s{stage + 1}b{i + 1}")
    x = b.pool(x, x.shape[-1])  # global average pool
    x = b.flatten(x)
    x = b.gemm(x, 1000, name="fc")
    b.softmax(x)


@_cnn_builder("mobilenetv2")
def _mobilenetv2(b, x, k):
    def block(x, expand, out, stride, tag):
        cin = x.shape[-3]
        y = x
        if expand != 1:
            y = b.conv(y, cin * expand, 1, bias=False, name=f"{tag}_expand")
            y = b.layer_norm(y)
            y = b.activation(y)
        y = b.conv(y, cin * expand, 3, stride=stride, padding=1,
                   groups=cin * expand, bias=False, name=f"{tag}_dw")
        y = b.layer_norm(y)
        y = b.activation(y)
        y = b.conv(y, out, 1, bias=False, name=f"{tag}_project")
        y = b.layer_norm(y)
        if stride == 1 and cin == out:
            y = b.add(y, x)
        return y

    x = b.conv(x, 32, 3, stride=2, padding=1, bias=False, name="stem")
    x = b.layer_norm(x)
    x = b.activation(x)
    for stage, (t, c, n, s) in enumerate(
            ((1, 16, 1, 1), (6, 24, 2, 2), (6, 32, 3, 2), (6, 64, 4, 2),
             (6, 96, 3, 1), (6, 160, 3, 2), (6, 320, 1, 1))):
        for i in range(_repeat(n, k)):
            x = block(x, t, c, s if i == 0 else 1, f"s{stage + 1}b{i + 1}")
    x = b.conv(x, 1280, 1, bias=False, name="head")
    x = b.layer_norm(x)
    x = b.activation(x)
    x = b.pool(x, x.shape[-1])
    x = b.flatten(x)
    x = b.gemm(x, 1000, name="fc")
    b.softmax(x)


def _transformer_block(b: GraphBuilder, x, hidden: int, ffn: int, tag: str):
    # attention is modeled at whole-matrix granularity; heads are folded into
    # the hidden dimension, which preserves MAC and element counts
    q = b.gemm(x, hidden, name=f"{tag}_q")
    kk = b.gemm(x, hidden, name=f"{tag}_k")
    v = b.gemm(x, hidden, name=f"{tag}_v")
    kt = b.transpose(kk, (1, 0))
    scores = b.matmul(q, kt, name=f"{tag}_qk")
    probs = b.softmax(scores)
    ctx = b.matmul(probs, v, name=f"{tag}_av")
    proj = b.gemm(ctx, hidden, name=f"{tag}_proj")
    x = b.add(proj, x)
    x = b.layer_norm(x)
    f = b.gemm(x, ffn, name=f"{tag}_ffn1")
    f = b.activation(f)
    f = b.gemm(f, hidden, name=f"{tag}_ffn2")
    x = b.add(f, x)
    return b.layer_norm(x)


def _transformer_builder(name, hidden, blocks, ffn, lm_vocab=None):
    def build(size, batch, k):
        seq = 128 if size is None else size
        b = GraphBuilder(name, ModelClass.TRANSFORMER, Precision.FP16)
        x = b.input((seq, hidden))
        for i in range(_repeat(blocks, k)):
            x = _transformer_block(b, x, hidden, ffn, f"blk{i + 1}")
        if lm_vocab:
            x = b.gemm(x, lm_vocab, bias=False, name="lm_head")
            b.softmax(x)
        return b.build()
    _BUILDERS[name] = build


_transformer_builder("bert_base", 768, 12, 3072)
_transformer_builder("bert_large", 1024, 24, 4096)
_transformer_builder("gpt2", 768, 12, 3072, lm_vocab=50257)
_transformer_builder("gpt2_medium", 1024, 24, 4096, lm_vocab=50257)


# ---------------------------------------------------------------------------
# UMF conversion

def _dim_slots(first: Attr, ndim: int = 4) -> tuple[Attr, ...]:
    """The first ``ndim`` bits of a 4-slot dims group (TARGET_DIM*, INPUT_DIM*)."""
    if ndim > 4:
        raise SchemaError(f"{first.name[:-1]} holds at most 4 dims, got {ndim}")
    return tuple(Attr(int(first) + i) for i in range(ndim))


def _encode_attrs(layer: LayerNode) -> tuple[tuple[Attr, int], ...]:
    """Exactly the attributes the layer carries, plus the shape of an
    external input it reads (the decoder's only source for that shape)."""
    a = layer.attrs
    attrs = {bit: a[key] for key, bit in _SCALAR_ATTRS if key in a}
    if "perm" in a:
        attrs[Attr.PERM] = sum(p << (4 * i) for i, p in enumerate(a["perm"]))
    if "target" in a:
        attrs.update(zip(_dim_slots(Attr.TARGET_DIM0, len(a["target"])), a["target"]))
    ext = [t for t in layer.activation_inputs if t.tensor_id < 1 << _ACT_ID_SHIFT]
    if any(t.shape != ext[0].shape for t in ext):
        raise SchemaError(f"layer {layer.name!r}: a frame carries one input shape "
                          f"per layer, but its graph inputs have "
                          f"{sorted({t.shape for t in ext})}")
    if ext:
        attrs.update(zip(_dim_slots(Attr.INPUT_DIM0, len(ext[0].shape)), ext[0].shape))
    return make_attrs(attrs)


def to_umf(graph: ModelGraph, *, user_id: int = 0, transaction_id: int = 0,
           model_id: int = 0, include_payloads: bool = False) -> UmfFrame:
    """Pack a graph into a model-load frame, one info packet per layer."""
    info = []
    data = []
    for layer in graph.layers:
        inputs = tuple((t.tensor_id, t.kind) for t in layer.inputs)
        info.append(InfoPacket(layer.layer_id, layer.op, inputs,
                               len(layer.outputs), _encode_attrs(layer)))
        for t in layer.weight_inputs:
            data.append(DataPacket(
                t.tensor_id, DataType.BIAS if t.bias else DataType.WEIGHT,
                t.precision, t.byte_size,
                bytes(t.byte_size) if include_payloads else None))
    header = FrameHeader(PacketType.MODEL_LOAD, user_id, transaction_id, model_id)
    return UmfFrame(header, tuple(info), tuple(data))


def from_umf(frame: UmfFrame) -> ModelGraph:
    """Rebuild a graph from a model-load frame through ``GraphBuilder.layer``.

    The builder re-infers every shape; the weights it infers must match the
    frame's data packets in tensor id, payload size and precision.
    """
    if PacketType(frame.header.packet_type) != PacketType.MODEL_LOAD:
        raise WrongPacketType(
            f"expected MODEL_LOAD, got {PacketType(frame.header.packet_type).name}")
    data_by_id = {p.tensor_id: p for p in frame.data_packets}
    precisions = {Precision(p.precision) for p in frame.data_packets}
    if len(precisions) > 1:
        raise ShapeMismatch(f"weights mix precisions "
                            f"{sorted(p.name for p in precisions)}")
    ops = [OpType(p.op_type) for p in frame.info_packets]
    mclass = _parse_class(None, ops)  # a frame without weights is at its class default
    b = GraphBuilder(f"model_{frame.header.model_id}", mclass,
                     precisions.pop() if precisions else _parse_precision(None, mclass))

    for i, (pkt, op) in enumerate(zip(frame.info_packets, ops)):
        if pkt.layer_id != i:
            raise SchemaError(f"layer ids must be dense, got {pkt.layer_id} at {i}")
        wire = pkt.attr_dict()
        acts: list[TensorInfo] = []
        weight_refs: list[int] = []
        for ref, kind in pkt.inputs:
            if kind == TensorKind.WEIGHT:
                if ref not in data_by_id:
                    raise DanglingTensorRef(f"layer {i}: weight {ref} has no data packet")
                weight_refs.append(ref)
            elif ref in b.activations:
                acts.append(b.activations[ref])
            elif ref >= 1 << _ACT_ID_SHIFT:
                raise DanglingTensorRef(f"layer {i}: activation {ref} has no producer")
            else:
                dims = tuple(wire[s] for s in _dim_slots(Attr.INPUT_DIM0) if s in wire)
                if not dims:
                    raise DanglingTensorRef(f"layer {i}: external input {ref} "
                                            f"carries no shape attributes")
                acts.append(b.input(dims, tensor_id=ref))

        attrs = {key: wire[bit] for key, bit in _SCALAR_ATTRS if bit in wire}
        if Attr.PERM in wire:
            nd = len(acts[0].shape) if acts else 0
            attrs["perm"] = tuple((wire[Attr.PERM] >> (4 * j)) & 0xF for j in range(nd))
        target = tuple(wire[s] for s in _dim_slots(Attr.TARGET_DIM0) if s in wire)
        if target:
            attrs["target"] = target

        b.layer(op, acts, attrs, with_bias=len(weight_refs) > 1)
        want = [(t.tensor_id, t.byte_size) for t in b.layers[-1].weight_inputs]
        got = [(ref, data_by_id[ref].payload_size) for ref in weight_refs]
        if got != want:
            raise ShapeMismatch(f"layer {i}: frame weights (id, bytes) {got}, "
                                f"inferred {want}")
    return b.build()
