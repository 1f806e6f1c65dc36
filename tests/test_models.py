import copy
import dataclasses
import hashlib
import json
import math
import os
import random

import pytest

from svsim.models import (BUILTIN_MODELS, CNN_MODELS, CycleDetected,
                          DanglingTensorRef, ModelClass, ModelError, SchemaError,
                          ShapeMismatch, TRANSFORMER_MODELS, UnknownModel,
                          WrongPacketType, builtin_model, from_umf,
                          ingest_graph, layer_macs,
                          structure_equal, to_umf)
from svsim.umf import (Attr, DataType, FrameHeader, OpType, PacketType, Precision,
                       UmfFrame, decode_frame, encode_frame)

from support import chain_description

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_doc(name):
    with open(os.path.join(FIXTURES, name)) as f:
        return json.load(f)


# --- ingestion ---------------------------------------------------------------

def test_ingest_two_layer_description():
    g = ingest_graph({
        "name": "tiny", "class": "cnn", "precision": "int8",
        "inputs": [{"name": "x", "shape": [4, 8, 8]}],
        "layers": [
            {"name": "c", "op": "Conv", "inputs": ["x"], "out_features": 16,
             "kernel": 3, "stride": 1, "padding": 1, "bias": False},
            {"name": "f", "op": "GEMM", "inputs": ["c"], "out_features": 10,
             "bias": False},
        ],
    })
    conv, fc = g.layers
    assert conv.outputs[0].shape == (16, 8, 8)
    # conv weight: 16 x 4 x 3 x 3 int8
    assert conv.weight_inputs[0].byte_size == 16 * 4 * 9
    assert layer_macs(conv) == 64 * 36 * 16
    # GEMM consumes the flattened-free conv output feature dim
    assert fc.weight_inputs[0].byte_size == 8 * 10  # (..., 8) x (8, 10)
    assert g.total_param_bytes == 16 * 4 * 9 + 8 * 10


def test_ingest_cycle_detected():
    with pytest.raises(CycleDetected, match="^a -> b -> a$"):
        ingest_graph({
            "name": "loop",
            "inputs": [{"name": "x", "shape": [8]}],
            "layers": [
                {"name": "a", "op": "Activation", "inputs": ["b"]},
                {"name": "b", "op": "Activation", "inputs": ["a"]},
            ],
        })


def test_ingest_long_chain_listed_last_first():
    forward = ingest_graph(chain_description(1100))
    backward = ingest_graph(chain_description(1100, reverse=True))
    assert structure_equal(forward, backward)


def _reference_order(layers):
    """Layer names in recursive depth-first post-order over each layer's
    inputs, in description order."""
    by_name = {spec["name"]: spec for spec in layers}
    order = []

    def visit(name):
        if name not in order:
            for ref in by_name[name]["inputs"]:
                if ref in by_name:
                    visit(ref)
            order.append(name)

    for spec in layers:
        visit(spec["name"])
    return order


def test_ingest_orders_layers_as_a_recursive_depth_first_walk():
    for seed in range(40):
        rng = random.Random(seed)
        layers = []
        for i in range(rng.randint(1, 12)):
            refs = rng.sample(["x"] + [f"l{j}" for j in range(i)], min(i + 1, rng.randint(1, 2)))
            layers.append({"name": f"l{i}", "inputs": refs,
                           "op": "ElementwiseAdd" if len(refs) == 2 else "Activation"})
        rng.shuffle(layers)
        g = ingest_graph({"name": "dag", "class": "cnn",
                          "inputs": [{"name": "x", "shape": [8]}], "layers": layers})
        assert [layer.name for layer in g.layers] == _reference_order(layers), seed


def test_ingest_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        ingest_graph({
            "name": "bad",
            "inputs": [{"name": "a", "shape": [4, 8]}, {"name": "b", "shape": [9, 4]}],
            "layers": [{"name": "m", "op": "MatMul", "inputs": ["a", "b"]}],
        })


def one_layer(**layer):
    """A description of one layer named ``l`` over a (4, 8, 8) input ``x``."""
    return {"name": "x", "inputs": [{"name": "x", "shape": [4, 8, 8]}],
            "layers": [{"name": "l", "inputs": ["x"], **layer}]}


@pytest.mark.parametrize("doc,expect", [
    ({"name": "x"}, SchemaError),  # missing keys
    ({"name": "x", "inputs": [], "layers": [{"op": "Frobnicate", "inputs": []}]},
     SchemaError),
    ({"name": "x", "inputs": [], "layers": [{"op": "Conv", "inputs": ["nope"]}]},
     SchemaError),
    (one_layer(op="Conv", out_features=4, kernel=3, groups=0), SchemaError),
    (one_layer(op="Pool", kernel=2, stride=0), SchemaError),
    (one_layer(op="Activation", inputs=[]), SchemaError),
    (one_layer(op="Concat", inputs=["x", "x"], axis=7), SchemaError),
    (one_layer(op="Add"), SchemaError),
    ({"name": "x", "inputs": [{"name": "x", "shape": ["a"]}], "layers": []}, SchemaError),
    ({"name": "x", "inputs": [{"name": "x", "shape": [4]}], "layers": 5}, SchemaError),
    ({"name": "x", "inputs": 5, "layers": []}, SchemaError),
    # JSON integers only: each of these used to go through int() or bool()
    (one_layer(op="Conv", out_features=4, kernel=3.7), SchemaError),
    (one_layer(op="Pool", kernel=2, stride=1.9), SchemaError),
    (one_layer(op="Conv", out_features=4, kernel="3"), SchemaError),
    (one_layer(op="Pool", kernel=2, stride=True), SchemaError),
    (one_layer(op="Conv", out_features=4, kernel=3, bias="false"), SchemaError),
    (one_layer(op="Conv", out_features=4, kernel=3, bias=1), SchemaError),
    (one_layer(op="Transpose", perm=[0, 2.0, 1]), SchemaError),
    (one_layer(op="Transpose", perm="021"), SchemaError),
    (one_layer(op="Reshape", target=[4, True, 64]), SchemaError),
    # a model's name is a string, as a manifest's is
    ({**one_layer(op="Activation"), "name": []}, SchemaError),
    ({**one_layer(op="Activation"), "name": None}, SchemaError),
    ({**one_layer(op="Activation"), "name": 5}, SchemaError),
])
def test_ingest_schema_errors(doc, expect):
    with pytest.raises(expect):
        ingest_graph(doc)


def _mutations(doc):
    """(label, copy of ``doc``) with one top-level, input or layer key
    dropped, or its value retyped to 5, "x", [] or null."""
    paths = [()] + [(group, i) for group in ("inputs", "layers")
                    for i in range(len(doc[group]))]
    for path in paths:
        where = f"{path[0]}[{path[1]}]." if path else ""
        for key in (doc[path[0]][path[1]] if path else doc):
            for value in ("drop", 5, "x", [], None):
                bad = copy.deepcopy(doc)
                node = bad[path[0]][path[1]] if path else bad
                if value == "drop":
                    del node[key]
                else:
                    node[key] = value
                yield f"{where}{key} {value!r}", bad


def test_ingest_mutations_end_in_graph_or_model_error():
    # the JSON counterpart of the UMF one-byte corruption test
    with open(os.path.join(FIXTURES, "alexnet.json")) as f:
        doc = json.load(f)
    count = 0
    for label, bad in _mutations(doc):
        count += 1
        try:
            ingest_graph(bad)
        except ModelError:
            pass
        except Exception as e:
            pytest.fail(f"{label} escaped ingest_graph as {e!r}")
    assert count == 565


def _fixture_param_bytes(doc):
    """Independent shape-arithmetic over the description text."""
    shapes = {i["name"]: tuple(i["shape"]) for i in doc["inputs"]}
    total = 0
    for spec in doc["layers"]:
        x = shapes[spec["inputs"][0]]
        op = spec["op"].lower()
        if op == "conv":
            f, k, g = spec["out_features"], spec["kernel"], spec.get("groups", 1)
            s, p = spec.get("stride", 1), spec.get("padding", 0)
            total += f * (x[0] // g) * k * k + (f if spec.get("bias") else 0)
            h = (x[1] + 2 * p - k) // s + 1
            shapes[spec["name"]] = (f, h, h)
        elif op == "gemm":
            n = spec["out_features"]
            total += x[-1] * n + (n if spec.get("bias") else 0)
            shapes[spec["name"]] = x[:-1] + (n,)
        elif op == "pool":
            k, s = spec["kernel"], spec.get("stride", spec["kernel"])
            h = (x[1] - k) // s + 1
            shapes[spec["name"]] = (x[0], h, h)
        elif op == "reshape":
            shapes[spec["name"]] = tuple(spec["target"])
        else:
            shapes[spec["name"]] = x
    return total  # int8: one byte per element


def test_alexnet_fixture_parameter_bytes_match_oracle():
    doc = fixture_doc("alexnet.json")
    g = ingest_graph(doc)
    assert g.total_param_bytes == _fixture_param_bytes(doc)
    assert g.layers[-1].op == OpType.SOFTMAX
    assert g.layers[-2].outputs[0].shape == (1000,)


def test_flop_count_stable_across_ingestion_paths():
    doc = fixture_doc("alexnet.json")
    via_text = ingest_graph(doc)
    via_builtin = builtin_model("alexnet")
    assert structure_equal(via_text, via_builtin)
    assert via_text.total_macs == via_builtin.total_macs
    for a, b in zip(via_text.layers, via_builtin.layers):
        assert layer_macs(a) == layer_macs(b)


# --- builtin models ----------------------------------------------------------

def test_vgg16_conv_and_fc_counts():
    g = builtin_model("vgg16")
    assert sum(1 for l in g.layers if l.op == OpType.CONV) == 13
    assert sum(1 for l in g.layers if l.op == OpType.GEMM) == 3


def test_bert_base_block_structure():
    g = builtin_model("bert_base", 128)
    assert sum(1 for l in g.layers if l.op == OpType.SOFTMAX) == 12
    # each block: q/k/v + output projection + two feed-forward layers
    assert sum(1 for l in g.layers if l.op == OpType.GEMM) == 12 * 6
    assert sum(1 for l in g.layers if l.op == OpType.MATMUL) == 12 * 2
    # blocks appear as fully-connected -> attention -> feed-forward
    ops = [l.op for l in g.layers]
    first = ops[:13]
    assert first[:3] == [OpType.GEMM] * 3
    assert OpType.SOFTMAX in first and first.index(OpType.SOFTMAX) > 3


def test_class_tags():
    for name in CNN_MODELS:
        assert builtin_model(name, depth_reduction=4).model_class == ModelClass.CNN
    for name in TRANSFORMER_MODELS:
        assert builtin_model(name, depth_reduction=4).model_class == ModelClass.TRANSFORMER


def test_unknown_model():
    with pytest.raises(UnknownModel):
        builtin_model("lenet9000")


@pytest.mark.parametrize("name,default_shape", [("alexnet", (3, 224, 224)),
                                                ("bert_base", (128, 768))])
def test_builtin_model_refuses_size_below_one(name, default_shape):
    # None is the only way to ask for the default size
    assert builtin_model(name, depth_reduction=8).inputs[0].shape == default_shape
    for size in (0, -3):
        with pytest.raises(SchemaError, match="must be >= 1"):
            builtin_model(name, size, depth_reduction=8)


def test_depth_reduction_shrinks_but_validates():
    for name in BUILTIN_MODELS:
        full = builtin_model(name)
        small = builtin_model(name, depth_reduction=4)
        assert len(small.layers) < len(full.layers)
        assert small.total_macs < full.total_macs


def test_batched_cnn_shapes():
    g = builtin_model("alexnet", 224, batch=4)
    assert g.inputs[0].shape == (4, 3, 224, 224)
    conv1 = g.layers[0]
    assert conv1.outputs[0].shape == (4, 96, 55, 55)
    assert layer_macs(conv1) == 4 * layer_macs(builtin_model("alexnet").layers[0])


# --- UMF conversion ----------------------------------------------------------

@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_umf_round_trip_all_builtins(name):
    g = builtin_model(name, depth_reduction=4)
    frame = to_umf(g, model_id=11)
    assert decode_frame(encode_frame(frame)) == frame
    assert structure_equal(from_umf(frame), g)


# sha256 of each builtin's encoded model-load frame at depth_reduction 4
# and 1; a change that moves one changes what a decoder receives
PINNED_FRAMES = {
    "resnet50": ("9359c4ea4b661fc18dd8e04f738cc8b80a03907b3064066c68b6c0de596bab83",
                 "0867c8928196aef38618b08fbf0b837ea6f0f6b93c104deb652985f7d09fd83a"),
    "vgg16": ("1b7ca6b3c7ad28ebd343c783ec18eb50640303c28eab923f07f31d2a6f9e5332",
              "7ba6b6bc015ada1844da422881df1f45f266ae03232e83bc1e23483fe0da413c"),
    "mobilenetv2": ("687a36d1f0c8c985540d2f5c398a1eb31d92a1ca9d51b2ea37839422a8fcfd70",
                    "b14ef095bd0ca3ed27a5268999aeeca1eba0913547aa606c3f0ad8cfd1a722ea"),
    "alexnet": ("1daa67e280a3ef133bf881370d53c559e285240d30db43c57f1cd9a2ab50de06",
                "71d3472b311340649d4e6e63e217cb4a2b59ea3e717093a44f7d31a04da96bd7"),
    "bert_base": ("9458d94da7c44c0983e8da0545e2003761f9546b5fa1339297b30fd161c1668c",
                  "e901212bb04cbd4477a40eace458d55bddde661aa0e349c0fc83200065169384"),
    "bert_large": ("1ba0d1d25b1e56733efbc161c15a6f690a6a9a155cf5c4258b901e66f8ad4fdf",
                   "3117dc46b71c8099c377cc050fccf315be1396101911514979e8b964ac13a9ec"),
    "gpt2": ("40eb001969608d44abfcf29f271bb273c43d8aaff45bfb03c8c0609edc17da42",
             "f971fd447f029b312b42d71ce08dc3b4d110b8982238a58a6766eed5d6e37f1d"),
    "gpt2_medium": ("37cfad17e083500c186fa2e1d18140d09ceca2c5d25b80f6b56b7aaabe033615",
                    "809696cf2cbf469130182fe99a8eab510c03cebba8b98e7c06290e5fa19d6f63"),
}


@pytest.mark.parametrize("name", BUILTIN_MODELS)
def test_builtin_frames_pinned(name):
    for depth, want in zip((4, 1), PINNED_FRAMES[name]):
        buf = encode_frame(to_umf(builtin_model(name, depth_reduction=depth),
                                  model_id=7))
        assert hashlib.sha256(buf).hexdigest() == want, depth


def test_umf_round_trip_conv_without_groups():
    g = ingest_graph({
        "name": "nogroups", "inputs": [{"name": "x", "shape": [4, 8, 8]}],
        "layers": [{"name": "c", "op": "Conv", "inputs": ["x"],
                    "out_features": 8, "kernel": 3}],
    })
    frame = to_umf(g)
    assert Attr.GROUPS not in frame.info_packets[0].attr_dict()
    assert structure_equal(from_umf(decode_frame(encode_frame(frame))), g)


def test_umf_round_trip_inputs_read_out_of_order():
    # layer 0 reads input b, layer 1 input a: inputs keep their frame ids
    g = ingest_graph({
        "name": "two_inputs",  # weightless: decodes at its class default, fp16
        "inputs": [{"name": "a", "shape": [4, 8]}, {"name": "b", "shape": [4, 8]}],
        "layers": [{"name": "r", "op": "Activation", "inputs": ["b"]},
                   {"name": "s", "op": "Add", "inputs": ["r", "a"]}],
    })
    back = from_umf(decode_frame(encode_frame(to_umf(g))))
    assert [t.tensor_id for t in back.inputs] == [t.tensor_id for t in g.inputs]
    assert structure_equal(back, g)


def test_umf_round_trip_weightless_graph_at_its_class_default():
    # no weight carries a precision: the frame decodes at the class default
    g = ingest_graph({
        "name": "weightless", "class": "transformer", "precision": "fp16",
        "inputs": [{"name": "x", "shape": [4, 8]}],
        "layers": [{"name": "s", "op": "Softmax", "inputs": ["x"]}],
    })
    back = from_umf(decode_frame(encode_frame(to_umf(g))))
    assert back.precision == Precision.FP16
    assert back.layers[0].outputs[0].byte_size == g.layers[0].outputs[0].byte_size == 64
    assert structure_equal(back, g)


def _renumber_first_weight(frame):
    """The frame with weight 1 sent as tensor 100, ids otherwise kept."""
    pkt = frame.info_packets[0]
    inputs = tuple((100 if ref == 1 else ref, kind) for ref, kind in pkt.inputs)
    data = tuple(dataclasses.replace(d, tensor_id=100) if d.tensor_id == 1 else d
                 for d in frame.data_packets)
    return UmfFrame(frame.header, (dataclasses.replace(pkt, inputs=inputs),)
                    + frame.info_packets[1:], data)


def _mix_precisions(frame):
    """The frame with its last weight sent at twice the width."""
    *rest, last = frame.data_packets
    wide = dataclasses.replace(last, precision=Precision.FP16,
                               payload_size=2 * last.payload_size)
    return UmfFrame(frame.header, frame.info_packets, tuple(rest) + (wide,))


@pytest.mark.parametrize("tamper", [_renumber_first_weight, _mix_precisions])
def test_from_umf_rejects_weights_off_convention(tamper):
    frame = to_umf(builtin_model("alexnet", depth_reduction=4))
    with pytest.raises(ShapeMismatch):
        from_umf(tamper(frame))


def test_to_umf_payload_sizes_match_parameter_bytes():
    doc = fixture_doc("alexnet.json")
    g = ingest_graph(doc)
    frame = to_umf(g)
    assert sum(p.payload_size for p in frame.data_packets) == _fixture_param_bytes(doc)
    assert len(frame.info_packets) == len(g.layers)
    bias_count = sum(1 for p in frame.data_packets if p.data_type == DataType.BIAS)
    assert bias_count == 8  # five convolutions and three classifier layers


def test_from_umf_wrong_packet_type():
    with pytest.raises(WrongPacketType):
        from_umf(UmfFrame(FrameHeader(PacketType.CHECK)))


def test_from_umf_dangling_weight_ref():
    g = builtin_model("alexnet", depth_reduction=4)
    frame = to_umf(g)
    broken = UmfFrame(frame.header, frame.info_packets, frame.data_packets[1:])
    with pytest.raises(DanglingTensorRef):
        from_umf(broken)
