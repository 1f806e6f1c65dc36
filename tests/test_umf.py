import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svsim.models import ModelError, builtin_model, from_umf, to_umf
from svsim.umf import (Attr, BadMagic, DataPacket, DataType, FrameHeader,
                       InfoPacket, InvariantViolation, OpType, PacketType,
                       Precision, SizeChainMismatch, TensorKind, TrailingBytes,
                       TruncatedFrame, UmfDecodeError, UmfError, UmfFrame,
                       UnknownPacketType, UnknownVersion, FRAME_HEADER_SIZE,
                       INFO_HEADER_SIZE, decode_frame, encode_frame,
                       inspect_frame, make_attrs)


def check_frame(user=7, txn=9, model=3):
    return UmfFrame(FrameHeader(PacketType.CHECK, user, txn, model))


def model_load_frame():
    info1 = InfoPacket(0, OpType.CONV, ((0x8000, TensorKind.ACTIVATION),
                                        (1, TensorKind.WEIGHT)),
                       1, make_attrs({Attr.KERNEL: 3, Attr.STRIDE: 1,
                                      Attr.PADDING: 1, Attr.OUT_FEATURES: 8,
                                      Attr.GROUPS: 1, Attr.INPUT_DIM0: 4,
                                      Attr.INPUT_DIM1: 8, Attr.INPUT_DIM2: 8}))
    info2 = InfoPacket(1, OpType.ACTIVATION, ((1 << 16, TensorKind.ACTIVATION),), 1)
    data = DataPacket(1, DataType.WEIGHT, Precision.INT8, 288)
    return UmfFrame(FrameHeader(PacketType.MODEL_LOAD, model_id=5),
                    (info1, info2), (data,))


# --- strategies ------------------------------------------------------------

ids = st.integers(0, 2**32 - 1)


@st.composite
def info_packets(draw, layer_id):
    n_in = draw(st.integers(0, 4))
    inputs = tuple((draw(ids), draw(st.sampled_from(list(TensorKind))))
                   for _ in range(n_in))
    attrs = draw(st.dictionaries(st.sampled_from(list(Attr)),
                                 st.integers(0, 2**16 - 1), max_size=6))
    return InfoPacket(layer_id, draw(st.sampled_from(list(OpType))), inputs,
                      draw(st.integers(0, 3)), make_attrs(attrs))


@st.composite
def data_packets(draw, tensor_id):
    size = draw(st.integers(0, 64))
    body = draw(st.one_of(st.none(), st.just(bytes(size))))
    return DataPacket(tensor_id, draw(st.sampled_from(list(DataType))),
                      draw(st.sampled_from(list(Precision))), size, body)


@st.composite
def frames(draw):
    ptype = draw(st.sampled_from(list(PacketType)))
    header = FrameHeader(ptype, draw(ids), draw(ids), draw(ids))
    info: tuple = ()
    data: tuple = ()
    if ptype == PacketType.MODEL_LOAD:
        info = tuple(draw(info_packets(i)) for i in range(draw(st.integers(1, 4))))
        data = tuple(draw(data_packets(t)) for t in range(draw(st.integers(0, 4))))
    elif ptype in (PacketType.REQUEST, PacketType.RETURN):
        data = tuple(draw(data_packets(t)) for t in range(draw(st.integers(1, 4))))
    return UmfFrame(header, info, data)


# --- encode ----------------------------------------------------------------

def test_check_frame_is_header_only():
    buf = encode_frame(check_frame())
    assert len(buf) == FRAME_HEADER_SIZE == 18
    assert buf[:4] == b"UMF1"


def test_model_load_length_recomputable_from_size_fields():
    buf = encode_frame(model_load_frame())
    # walk the buffer using only declared counts and sizes
    pos = FRAME_HEADER_SIZE
    (n_info,) = struct.unpack_from("<H", buf, pos)
    pos += 2
    declared = []
    for _ in range(n_info):
        cur, nxt = struct.unpack_from("<II", buf, pos)
        declared.append((cur, nxt))
        pos += 15 + cur
    (n_data,) = struct.unpack_from("<H", buf, pos)
    pos += 2
    for _ in range(n_data):
        tid, dtype, prec, psize, has_body = struct.unpack_from("<IBBIB", buf, pos)
        pos += 11 + (psize if has_body else 0)
    assert pos == len(buf)
    # size chain: next of packet i equals current of packet i+1, 0 at the end
    for i, (cur, nxt) in enumerate(declared):
        if i + 1 < len(declared):
            assert nxt == declared[i + 1][0]
        else:
            assert nxt == 0


@pytest.mark.parametrize("bad", [
    UmfFrame(FrameHeader(PacketType.CHECK), (InfoPacket(0, OpType.CONV),), ()),
    UmfFrame(FrameHeader(PacketType.REQUEST)),
    UmfFrame(FrameHeader(PacketType.MODEL_LOAD)),
    UmfFrame(FrameHeader(PacketType.REQUEST),
             (InfoPacket(0, OpType.CONV),),
             (DataPacket(0, DataType.WEIGHT, Precision.INT8, 0),)),
    UmfFrame(FrameHeader(PacketType.RETURN), (),
             (DataPacket(1, DataType.WEIGHT, Precision.INT8, 0),
              DataPacket(1, DataType.BIAS, Precision.INT8, 0))),
])
def test_packet_count_rules_enforced(bad):
    with pytest.raises(InvariantViolation):
        encode_frame(bad)


def test_payload_length_must_match_declared_size():
    bad = UmfFrame(FrameHeader(PacketType.REQUEST), (),
                   (DataPacket(1, DataType.ACTIVATION, Precision.FP16, 8, b"xx"),))
    with pytest.raises(InvariantViolation):
        encode_frame(bad)


# --- decode ----------------------------------------------------------------

def test_round_trip_example_frames():
    for frame in (check_frame(), model_load_frame()):
        buf = encode_frame(frame)
        assert decode_frame(buf) == frame
        assert encode_frame(decode_frame(buf)) == buf


@settings(max_examples=200, deadline=None)
@given(frames())
def test_round_trip_random_frames(frame):
    buf = encode_frame(frame)
    assert decode_frame(buf) == frame
    assert encode_frame(decode_frame(buf)) == buf


def test_all_strict_prefixes_fail():
    buf = encode_frame(model_load_frame())
    for cut in range(len(buf)):
        with pytest.raises(UmfDecodeError):
            decode_frame(buf[:cut])


def test_truncation_mid_data_packet():
    frame = UmfFrame(FrameHeader(PacketType.MODEL_LOAD),
                     (InfoPacket(0, OpType.GEMM),),
                     (DataPacket(1, DataType.WEIGHT, Precision.INT8, 16, bytes(16)),))
    buf = encode_frame(frame)
    with pytest.raises(TruncatedFrame):
        decode_frame(buf[:-4])


def test_bad_magic():
    buf = bytearray(encode_frame(check_frame()))
    buf[0] = ord("X")
    with pytest.raises(BadMagic) as e:
        decode_frame(bytes(buf))
    assert e.value.offset == 0


def test_unknown_version():
    buf = bytearray(encode_frame(check_frame()))
    buf[4] = 99
    with pytest.raises(UnknownVersion):
        decode_frame(bytes(buf))


def test_unknown_packet_type():
    buf = bytearray(encode_frame(check_frame()))
    buf[5] = 200
    with pytest.raises(UnknownPacketType):
        decode_frame(bytes(buf))


def test_size_chain_mismatch_detected():
    buf = bytearray(encode_frame(model_load_frame()))
    # corrupt the first packet's next_payload_size field
    pos = FRAME_HEADER_SIZE + 2 + 4
    struct.pack_into("<I", buf, pos, 9999)
    with pytest.raises(SizeChainMismatch):
        decode_frame(bytes(buf))


def test_trailing_bytes_rejected():
    buf = encode_frame(check_frame()) + b"\x00"
    with pytest.raises(TrailingBytes):
        decode_frame(buf)


def test_unknown_tensor_kind_reports_offset():
    buf = bytearray(encode_frame(model_load_frame()))
    kind_at = FRAME_HEADER_SIZE + 2 + INFO_HEADER_SIZE + 4  # first input's kind
    buf[kind_at] = 9
    with pytest.raises(UmfDecodeError) as e:
        decode_frame(bytes(buf))
    assert e.value.offset == kind_at


def test_unknown_attr_bit_reports_offset():
    buf = bytearray(encode_frame(model_load_frame()))
    mask_at = FRAME_HEADER_SIZE + 2 + 13  # first info packet's attr_mask
    buf[mask_at + 1] |= 0x80  # bit 15, past the last Attr
    with pytest.raises(UmfDecodeError) as e:
        decode_frame(bytes(buf))
    assert e.value.offset == mask_at


@pytest.mark.parametrize("name", ["alexnet", "bert_base"])
def test_single_byte_corruption_decodes_or_raises_umf_error(name):
    # a frame that decodes either rebuilds a graph or raises ModelError
    buf = encode_frame(to_umf(builtin_model(name, depth_reduction=4)))
    for i in range(len(buf)):
        for v in (0, 1, 3, 0x80, 0xFF):
            bad = bytearray(buf)
            bad[i] = v
            try:
                frame = decode_frame(bytes(bad))
            except UmfError:
                continue
            except Exception as e:
                pytest.fail(f"byte {i} set to {v:#x} escaped as {e!r}")
            try:
                from_umf(frame)
            except ModelError:
                pass
            except Exception as e:
                pytest.fail(f"byte {i} set to {v:#x} escaped from_umf as {e!r}")


# --- inspect ---------------------------------------------------------------

def test_inspect_check_frame_one_line():
    text = inspect_frame(encode_frame(check_frame(user=7, model=3)))
    assert len(text.splitlines()) == 1
    assert "user=7" in text and "model=3" in text and "CHECK" in text


def test_inspect_model_load_lists_packets():
    text = inspect_frame(encode_frame(model_load_frame()))
    lines = text.splitlines()
    assert sum(1 for l in lines if "layer" in l) == 2
    assert sum(1 for l in lines if "tensor" in l) == 1
    assert "CONV" in text


def test_inspect_corrupted_frame_reports_offset():
    buf = bytearray(encode_frame(model_load_frame()))
    buf[1] = ord("?")  # corrupt one octet of the magic
    with pytest.raises(UmfDecodeError) as e:
        inspect_frame(bytes(buf))
    assert "offset 0" in str(e.value)
