"""Unified model format (UMF) binary codec.

UMF is the compact model-description container exchanged between a host and
the accelerator.  A frame is a header plus two packet sections, all fields
little-endian with fixed widths so a hardware decoder can walk the buffer
with fixed offsets.

Frame layout (v1)::

    frame header (18 B):
        magic        4s   b"UMF1"
        version      u8   currently 1
        packet_type  u8   1 model_load / 2 request / 3 return / 4 check / 5 ack
        user_id      u32
        transaction_id u32
        model_id     u32
    check/ack frames end here (header only).
    model_load/request/return frames continue:
        info_count   u16
        info packets ...
        data_count   u16
        data packets ...

    info packet (15 B header + payload):
        current_payload_size u32   byte length of this packet's payload
        next_payload_size    u32   payload size of the following packet, 0 for last
        layer_id             u16
        op_type              u8
        input_count          u8
        output_count         u8
        attr_mask            u16
    info payload:
        input_count x { tensor_ref u32, kind u8 }   kind: 1 weight / 2 activation
        one u16 value per set attr_mask bit (bits 0-14), ascending bit order

    data packet (11 B header + optional body):
        tensor_id    u32
        data_type    u8   1 weight / 2 activation / 3 bias
        precision    u8   1 int8 / 2 fp16 / 3 fp32
        payload_size u32  logical tensor size in bytes
        has_body     u8   1 if payload_size body bytes follow, else 0

Bodies may be elided (has_body=0) because scheduling only consumes sizes;
payload_size always records the logical tensor size either way.

Packet-count rules per frame type: model_load needs >=1 info packet,
request/return carry only data packets (>=1), check/ack carry none.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

MAGIC = b"UMF1"
VERSION = 1

_FRAME_HEADER = struct.Struct("<4sBBIII")
_INFO_HEADER = struct.Struct("<IIHBBBH")
_INPUT_SPEC = struct.Struct("<IB")
_DATA_HEADER = struct.Struct("<IBBIB")
_U16 = struct.Struct("<H")

FRAME_HEADER_SIZE = _FRAME_HEADER.size  # 18
INFO_HEADER_SIZE = _INFO_HEADER.size  # 15
DATA_HEADER_SIZE = _DATA_HEADER.size  # 11


class PacketType(IntEnum):
    MODEL_LOAD = 1
    REQUEST = 2
    RETURN = 3
    CHECK = 4
    ACK = 5


class OpType(IntEnum):
    # compute operations
    CONV = 1
    GEMM = 2
    MATMUL = 3
    POOL = 4
    SOFTMAX = 5
    LAYERNORM = 6
    ACTIVATION = 7
    ELEMENTWISE_ADD = 8
    # data operations
    RESHAPE = 9
    CONCAT = 10
    TRANSPOSE = 11


class TensorKind(IntEnum):
    WEIGHT = 1
    ACTIVATION = 2


class DataType(IntEnum):
    WEIGHT = 1
    ACTIVATION = 2
    BIAS = 3


class Precision(IntEnum):
    INT8 = 1
    FP16 = 2
    FP32 = 3

    @property
    def width(self) -> int:
        return {Precision.INT8: 1, Precision.FP16: 2, Precision.FP32: 4}[self]


class Attr(IntEnum):
    """Attribute bit positions; each present attribute is one u16 value."""

    KERNEL = 0
    STRIDE = 1
    PADDING = 2
    OUT_FEATURES = 3
    GROUPS = 4
    AXIS = 5
    PERM = 6  # permutation packed as 4-bit fields, low nibble = dim 0
    TARGET_DIM0 = 7
    TARGET_DIM1 = 8
    TARGET_DIM2 = 9
    TARGET_DIM3 = 10
    INPUT_DIM0 = 11
    INPUT_DIM1 = 12
    INPUT_DIM2 = 13
    INPUT_DIM3 = 14


# header-only frame types
_BARE_TYPES = (PacketType.CHECK, PacketType.ACK)
_DATA_ONLY_TYPES = (PacketType.REQUEST, PacketType.RETURN)


class UmfError(Exception):
    pass


class InvariantViolation(UmfError):
    pass


class UmfDecodeError(UmfError):
    """Decode failure; ``offset`` is the byte position where it was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class BadMagic(UmfDecodeError):
    pass


class UnknownVersion(UmfDecodeError):
    pass


class UnknownPacketType(UmfDecodeError):
    pass


class TruncatedFrame(UmfDecodeError):
    pass


class SizeChainMismatch(UmfDecodeError):
    pass


class TrailingBytes(UmfDecodeError):
    pass


@dataclass(frozen=True)
class FrameHeader:
    packet_type: PacketType
    user_id: int = 0
    transaction_id: int = 0
    model_id: int = 0
    version: int = VERSION


@dataclass(frozen=True)
class InfoPacket:
    """One operation layer. ``attrs`` is kept sorted by attribute bit."""

    layer_id: int
    op_type: OpType
    inputs: tuple[tuple[int, TensorKind], ...] = ()
    output_count: int = 1
    attrs: tuple[tuple[Attr, int], ...] = ()

    @property
    def payload_size(self) -> int:
        return _INPUT_SPEC.size * len(self.inputs) + 2 * len(self.attrs)

    def attr_dict(self) -> dict[Attr, int]:
        return dict(self.attrs)


def make_attrs(mapping: dict[Attr, int]) -> tuple[tuple[Attr, int], ...]:
    return tuple(sorted(mapping.items(), key=lambda kv: int(kv[0])))


@dataclass(frozen=True)
class DataPacket:
    tensor_id: int
    data_type: DataType
    precision: Precision
    payload_size: int
    payload: bytes | None = None  # None = body elided on the wire


@dataclass(frozen=True)
class UmfFrame:
    header: FrameHeader
    info_packets: tuple[InfoPacket, ...] = ()
    data_packets: tuple[DataPacket, ...] = ()


def _check_u(value: int, bits: int, what: str) -> None:
    if not 0 <= value < (1 << bits):
        raise InvariantViolation(f"{what} out of u{bits} range: {value}")


def validate_frame(frame: UmfFrame) -> None:
    """Raise InvariantViolation if the frame breaks the format rules."""
    h = frame.header
    ptype = PacketType(h.packet_type)
    for what, v in (("user_id", h.user_id), ("transaction_id", h.transaction_id),
                    ("model_id", h.model_id)):
        _check_u(v, 32, what)
    _check_u(h.version, 8, "version")

    n_info, n_data = len(frame.info_packets), len(frame.data_packets)
    if ptype in _BARE_TYPES and (n_info or n_data):
        raise InvariantViolation(f"{ptype.name} frames carry no packets")
    if ptype in _DATA_ONLY_TYPES:
        if n_info:
            raise InvariantViolation(f"{ptype.name} frames carry no info packets")
        if n_data < 1:
            raise InvariantViolation(f"{ptype.name} frames need >=1 data packet")
    if ptype == PacketType.MODEL_LOAD and n_info < 1:
        raise InvariantViolation("MODEL_LOAD frames need >=1 info packet")
    _check_u(n_info, 16, "info packet count")
    _check_u(n_data, 16, "data packet count")

    for pkt in frame.info_packets:
        _check_u(pkt.layer_id, 16, "layer_id")
        _check_u(len(pkt.inputs), 8, "input count")
        _check_u(pkt.output_count, 8, "output_count")
        OpType(pkt.op_type)
        bits = [int(a) for a, _ in pkt.attrs]
        if bits != sorted(set(bits)):
            raise InvariantViolation("attrs must be unique and sorted by bit")
        for a, v in pkt.attrs:
            _check_u(v, 16, f"attr {Attr(a).name}")
        for ref, kind in pkt.inputs:
            _check_u(ref, 32, "tensor_ref")
            TensorKind(kind)

    seen: set[int] = set()
    for pkt in frame.data_packets:
        _check_u(pkt.tensor_id, 32, "tensor_id")
        _check_u(pkt.payload_size, 32, "payload_size")
        DataType(pkt.data_type)
        Precision(pkt.precision)
        if pkt.tensor_id in seen:
            raise InvariantViolation(f"duplicate tensor_id {pkt.tensor_id} in frame")
        seen.add(pkt.tensor_id)
        if pkt.payload is not None and len(pkt.payload) != pkt.payload_size:
            raise InvariantViolation(
                f"tensor {pkt.tensor_id}: payload length {len(pkt.payload)} "
                f"!= payload_size {pkt.payload_size}")


def encode_frame(frame: UmfFrame) -> bytes:
    validate_frame(frame)
    h = frame.header
    out = bytearray(_FRAME_HEADER.pack(MAGIC, h.version, int(h.packet_type),
                                       h.user_id, h.transaction_id, h.model_id))
    if PacketType(h.packet_type) in _BARE_TYPES:
        return bytes(out)

    out += _U16.pack(len(frame.info_packets))
    for i, pkt in enumerate(frame.info_packets):
        nxt = frame.info_packets[i + 1].payload_size if i + 1 < len(frame.info_packets) else 0
        mask = 0
        for a, _ in pkt.attrs:
            mask |= 1 << int(a)
        out += _INFO_HEADER.pack(pkt.payload_size, nxt, pkt.layer_id,
                                 int(pkt.op_type), len(pkt.inputs),
                                 pkt.output_count, mask)
        for ref, kind in pkt.inputs:
            out += _INPUT_SPEC.pack(ref, int(kind))
        for _, v in pkt.attrs:
            out += _U16.pack(v)

    out += _U16.pack(len(frame.data_packets))
    for pkt in frame.data_packets:
        has_body = pkt.payload is not None
        out += _DATA_HEADER.pack(pkt.tensor_id, int(pkt.data_type),
                                 int(pkt.precision), pkt.payload_size,
                                 1 if has_body else 0)
        if has_body:
            out += pkt.payload
    return bytes(out)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, fmt: struct.Struct, what: str):
        if self.pos + fmt.size > len(self.buf):
            raise TruncatedFrame(f"buffer ends inside {what}", self.pos)
        vals = fmt.unpack_from(self.buf, self.pos)
        self.pos += fmt.size
        return vals

    def take_bytes(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedFrame(f"buffer ends inside {what}", self.pos)
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out


def decode_frame(buf: bytes) -> UmfFrame:
    """Decode exactly one frame; the buffer must contain nothing else."""
    r = _Reader(buf)
    start = r.pos
    magic, version, ptype_raw, user_id, txn_id, model_id = r.take(_FRAME_HEADER, "frame header")
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}", start)
    if version != VERSION:
        raise UnknownVersion(f"unsupported version {version}", start + 4)
    try:
        ptype = PacketType(ptype_raw)
    except ValueError:
        raise UnknownPacketType(f"unknown packet type {ptype_raw}", start + 5) from None
    header = FrameHeader(ptype, user_id, txn_id, model_id, version)

    info_packets: list[InfoPacket] = []
    data_packets: list[DataPacket] = []
    if ptype not in _BARE_TYPES:
        (n_info,) = r.take(_U16, "info message header")
        expected_cur: int | None = None
        for i in range(n_info):
            at = r.pos
            cur, nxt, layer_id, op_raw, n_in, n_out, mask = r.take(_INFO_HEADER, "info packet header")
            try:
                op = OpType(op_raw)
            except ValueError:
                raise UmfDecodeError(f"unknown op type {op_raw}", at + 10) from None
            if expected_cur is not None and cur != expected_cur:
                raise SizeChainMismatch(
                    f"info packet {i}: payload size {cur} != previous "
                    f"next_payload_size {expected_cur}", at)
            if mask >> len(Attr):
                raise UmfDecodeError(f"attr mask {mask:#06x} sets an unknown bit", at + 13)
            inputs = []
            for _ in range(n_in):
                ref, kind = r.take(_INPUT_SPEC, "input spec")
                try:
                    inputs.append((ref, TensorKind(kind)))
                except ValueError:
                    raise UmfDecodeError(f"unknown tensor kind {kind}", r.pos - 1) from None
            attrs = []
            for a in Attr:
                if mask & (1 << a):
                    (v,) = r.take(_U16, "attr value")
                    attrs.append((a, v))
            pkt = InfoPacket(layer_id, op, tuple(inputs), n_out, tuple(attrs))
            if pkt.payload_size != cur:
                raise SizeChainMismatch(
                    f"info packet {i}: declared payload {cur} != encoded "
                    f"payload {pkt.payload_size}", at)
            expected_cur = nxt
            info_packets.append(pkt)
        if info_packets and expected_cur != 0:
            raise SizeChainMismatch(
                f"last info packet declares next_payload_size {expected_cur}, expected 0",
                r.pos)

        (n_data,) = r.take(_U16, "data message header")
        for _ in range(n_data):
            at = r.pos
            tid, dtype_raw, prec_raw, psize, has_body = r.take(_DATA_HEADER, "data packet header")
            try:
                dtype = DataType(dtype_raw)
                prec = Precision(prec_raw)
            except ValueError as e:
                raise UmfDecodeError(f"bad data packet field: {e}", at + 4) from None
            payload = r.take_bytes(psize, "data packet payload") if has_body else None
            data_packets.append(DataPacket(tid, dtype, prec, psize, payload))

    if r.pos != len(buf):
        raise TrailingBytes(f"{len(buf) - r.pos} bytes after frame end", r.pos)
    frame = UmfFrame(header, tuple(info_packets), tuple(data_packets))
    try:
        validate_frame(frame)
    except InvariantViolation as e:
        raise UmfDecodeError(f"decoded frame violates format rules: {e}", 0) from e
    return frame


def inspect_frame(buf: bytes) -> str:
    """Human-readable dump of an encoded frame; decode errors propagate."""
    f = decode_frame(buf)
    h = f.header
    lines = [
        f"{PacketType(h.packet_type).name} frame v{h.version}: "
        f"user={h.user_id} txn={h.transaction_id} model={h.model_id} "
        f"({len(buf)} bytes, {len(f.info_packets)} info / {len(f.data_packets)} data packets)"
    ]
    for pkt in f.info_packets:
        ins = ", ".join(f"{ref}:{TensorKind(k).name[0]}" for ref, k in pkt.inputs)
        attrs = " ".join(f"{Attr(a).name.lower()}={v}" for a, v in pkt.attrs)
        lines.append(f"  layer {pkt.layer_id:4d} {OpType(pkt.op_type).name:<16}"
                     f" in=[{ins}] out={pkt.output_count}"
                     + (f" {attrs}" if attrs else ""))
    for pkt in f.data_packets:
        body = "body" if pkt.payload is not None else "size-only"
        lines.append(f"  tensor {pkt.tensor_id:6d} {DataType(pkt.data_type).name.lower():<10}"
                     f" {Precision(pkt.precision).name.lower():<5} {pkt.payload_size} B ({body})")
    return "\n".join(lines)
