"""Hardware topology configuration and the 28nm physical PPA model.

A processor is its kind ("array" or "vector") and size (PE dim or lane count);
``HardwareConfig.clock_hz`` is the one clock.  Peak rates, die areas and per-op
energies come from post-layout characterization of the 16x16 array / 16-lane
vector baseline at 800 MHz, extrapolated to 32 and 64.  Shared-memory area
uses a per-MiB constant calibrated so the 4-cluster reference configuration
(4x 64x64 arrays + 8x 64-lane vectors + 40 MiB per cluster) lands on 633.8
mm2.  Memory energies are generic 28nm SRAM / HBM2 constants, in PhysicalModel.

Capacities use MiB (2**20 bytes); bandwidths use GB/s (1e9 bytes/s).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .fields import ANY, REQUIRED, List, check, positive

MB = 1 << 20
SUPPORTED_DIMS = (16, 32, 64)


class ConfigError(Exception):
    pass


class UndefinedOpForProcessor(Exception):
    pass


@dataclass(frozen=True)
class ClusterConfig:
    arrays: tuple[int, ...]  # PE dim of each systolic array
    vectors: tuple[int, ...]  # lane count of each vector processor
    shared_mem_bytes: int
    num_task_queues: int = 8

    def __post_init__(self):
        if not self.arrays or not self.vectors:
            raise ConfigError("a cluster needs >=1 systolic array and >=1 vector processor")
        for what, sizes in (("systolic array dim", self.arrays),
                            ("vector lane count", self.vectors)):
            for size in sizes:
                if type(size) is not int or size not in SUPPORTED_DIMS:
                    raise ConfigError(f"unsupported {what} {size!r}")
        if self.shared_mem_bytes <= 0:
            raise ConfigError("shared_mem_bytes must be positive")
        if type(self.num_task_queues) is not int or self.num_task_queues < 1:
            raise ConfigError("num_task_queues must be an integer >= 1")


@dataclass(frozen=True)
class HardwareConfig:
    clusters: tuple[ClusterConfig, ...]
    hbm_bandwidth_bytes_per_s: float = 256e9  # per cluster-attached channel
    hbm_latency_cycles: int = 100
    clock_hz: float = 800e6

    def __post_init__(self):
        if not self.clusters:
            raise ConfigError("need >=1 cluster")
        if self.hbm_bandwidth_bytes_per_s <= 0:
            raise ConfigError("hbm bandwidth must be positive")
        if self.clock_hz <= 0:
            raise ConfigError("clock must be positive")
        if type(self.hbm_latency_cycles) is not int or self.hbm_latency_cycles < 0:
            raise ConfigError("hbm_latency_cycles must be an integer >= 0")


@dataclass(frozen=True)
class PhysicalModel:
    """Area [mm2] and energy [pJ/op] lookup tables."""

    systolic_mac_pj: dict = field(default_factory=lambda: {16: 2.07, 32: 1.33, 64: 0.38})
    vector_pj: dict = field(default_factory=lambda: {
        "mac": {16: 6.11, 32: 6.16, 64: 6.19},
        "pooling": {16: 17.9, 32: 18.0, 64: 18.1},
        "lut": {16: 21.7, 32: 21.9, 64: 22.0},
        "reduction": {16: 27.3, 32: 27.6, 64: 27.7},
        "softmax": {16: 155.8, 32: 157.3, 64: 158.0},
        "etc": {16: 33.7, 32: 34.0, 64: 34.1},
    })
    systolic_area_mm2: dict = field(default_factory=lambda: {16: 1.69, 32: 4.35, 64: 13.00})
    vector_area_mm2: dict = field(default_factory=lambda: {16: 1.25, 32: 2.53, 64: 5.08})
    shared_mem_mm2_per_mb: float = 1.645  # calibrated against the reference die
    sram_pj_per_byte: float = 0.2
    dram_pj_per_byte: float = 31.2


DEFAULT_PHYSICAL = PhysicalModel()


def peak_gops(kind: str, size: int, clock_hz: float) -> float:
    """Peak rate in GOPS (2 ops per MAC) of one processor."""
    if kind == "array":
        return size * size * 2 * clock_hz / 1e9
    return size * 2 * clock_hz / 1e9


def peak_performance(config: HardwareConfig) -> float:
    """Aggregate peak rate in GOPS at the config's clock."""
    return sum(peak_gops(kind, size, config.clock_hz)
               for cl in config.clusters
               for kind, sizes in (("array", cl.arrays), ("vector", cl.vectors))
               for size in sizes)


def total_area(config: HardwareConfig, physical: PhysicalModel = DEFAULT_PHYSICAL) -> float:
    """Die area in mm2: processors plus shared memories."""
    area = 0.0
    for cl in config.clusters:
        area += sum(physical.systolic_area_mm2[d] for d in cl.arrays)
        area += sum(physical.vector_area_mm2[lanes] for lanes in cl.vectors)
        area += physical.shared_mem_mm2_per_mb * (cl.shared_mem_bytes / MB)
    return area


def energy_of(op_kind: str, count: int, kind: str, size: int,
              physical: PhysicalModel = DEFAULT_PHYSICAL) -> float:
    """Joules for ``count`` operations of ``op_kind`` on a (kind, size) processor."""
    if count < 0:
        raise ValueError("op count must be non-negative")
    if kind == "array":
        if op_kind != "mac":
            raise UndefinedOpForProcessor(
                f"systolic arrays only run MACs, not {op_kind!r}")
        return count * physical.systolic_mac_pj[size] * 1e-12
    if op_kind not in physical.vector_pj:
        raise UndefinedOpForProcessor(f"no vector energy entry for {op_kind!r}")
    return count * physical.vector_pj[op_kind][size] * 1e-12


# ---------------------------------------------------------------------------
# config file handling

# ANY: the config dataclasses check the value when they are built
CLUSTER_FIELDS = {
    "arrays": (List({"dim": (ANY, REQUIRED)}, "a list of objects"), REQUIRED),
    "vectors": (List({"lanes": (ANY, REQUIRED)}, "a list of objects"), REQUIRED),
    "shared_mem_mb": (positive(MB), REQUIRED),
    "num_task_queues": (ANY, 8),
}
HW_FIELDS = {
    "clock_mhz": (positive(1e6), 800),
    "hbm_gbps": (positive(1e9), 256),
    "hbm_latency_cycles": (ANY, 100),
    "clusters": (List(CLUSTER_FIELDS, "a list of clusters"), REQUIRED),
}


def load_hw_config(source: str | os.PathLike | dict) -> HardwareConfig:
    """Parse a hardware config from a JSON file path or a parsed dict, by
    ``HW_FIELDS``: the clock, HBM speed and shared-memory size are JSON
    numbers > 0 that stay finite in Hz, bytes/s and bytes.  Raises
    ConfigError on an unreadable file or a bad document."""
    doc = source
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source) as f:
                doc = json.load(f)
        except OSError as e:
            raise ConfigError(f"cannot read hardware config: {e}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"hardware config is not valid JSON: {e}") from None
    elif not isinstance(source, dict):
        raise ConfigError(f"hardware config source must be a path or a dict, "
                          f"not {type(source).__name__}")
    doc = check(doc, HW_FIELDS, ConfigError, "hardware config")
    return HardwareConfig(
        clusters=tuple(ClusterConfig(tuple(a["dim"] for a in cl["arrays"]),
                                     tuple(v["lanes"] for v in cl["vectors"]),
                                     int(cl["shared_mem_mb"] * MB), cl["num_task_queues"])
                       for cl in doc["clusters"]),
        hbm_bandwidth_bytes_per_s=doc["hbm_gbps"] * 1e9,
        hbm_latency_cycles=doc["hbm_latency_cycles"],
        clock_hz=doc["clock_mhz"] * 1e6)
