import copy
import functools
import json
import operator
import os
import re

import pytest

from svsim.hardware import (ClusterConfig, ConfigError, HardwareConfig,
                            PhysicalModel, UndefinedOpForProcessor, energy_of,
                            load_hw_config, peak_gops, peak_performance,
                            total_area)

from support import (DESK_HW, RETYPES, desk_hw_doc_with, hw_config_to_dict, make_cluster,
                     make_hw)

PHYS = PhysicalModel()


# peak-rate characterization table at 800 MHz
PEAK_TABLE = {
    ("vector", 16): 25.6, ("vector", 32): 51.2, ("vector", 64): 102.4,
    ("array", 16): 409.6, ("array", 32): 1638.4, ("array", 64): 6553.6,
}


@pytest.mark.parametrize("kind,size", sorted(PEAK_TABLE))
def test_peak_rate_cells_exact(kind, size):
    assert peak_gops(kind, size, 800e6) == pytest.approx(PEAK_TABLE[(kind, size)], abs=0)


def test_peak_performance_single_processors():
    hw = make_hw(1, make_cluster(1, 16, 1, 64, 45))
    assert peak_performance(hw) == pytest.approx(409.6 + 102.4)


def test_peak_performance_reference_scale_config():
    hw = make_hw(4, make_cluster(4, 64, 8, 64, 40))
    assert peak_performance(hw) == pytest.approx(108134.4)


def test_peak_performance_at_hardware_clock():
    # a processor has no clock of its own: at 1 GHz, 16x16x2 + 64x2 GOPS
    hw = make_hw(1, make_cluster(1, 16, 1, 64, 45), clock_hz=1e9)
    assert peak_performance(hw) == pytest.approx(640.0)


def test_area_lookups():
    hw = make_hw(1, make_cluster(1, 32, 1, 16, 1))
    assert total_area(hw) - PHYS.shared_mem_mm2_per_mb == pytest.approx(4.35 + 1.25)


def test_area_reference_config_calibration():
    # 4 clusters x (4x 64x64 arrays + 8x 64-lane vectors + 40 MiB) -> 633.8 mm2
    hw = make_hw(4, make_cluster(4, 64, 8, 64, 40))
    assert total_area(hw) == pytest.approx(633.8, rel=0.05)


def test_area_monotone_in_size_and_count():
    base = total_area(make_hw(1, make_cluster(1, 16, 1, 16, 45)))
    assert total_area(make_hw(1, make_cluster(2, 16, 1, 16, 45))) > base
    assert total_area(make_hw(1, make_cluster(1, 32, 1, 16, 45))) > base
    assert total_area(make_hw(1, make_cluster(1, 16, 2, 16, 45))) > base
    assert total_area(make_hw(1, make_cluster(1, 16, 1, 32, 45))) > base
    assert total_area(make_hw(1, make_cluster(1, 16, 1, 16, 65))) > base
    assert total_area(make_hw(2, make_cluster(1, 16, 1, 16, 45))) > base


def test_energy_macs_on_16x16_array():
    assert energy_of("mac", 10**6, "array", 16) == pytest.approx(2.07e-6)


def test_energy_softmax_on_16_lane_vector():
    assert energy_of("softmax", 10**3, "vector", 16) == pytest.approx(155.8e-9)


def test_energy_pooling_undefined_on_array():
    with pytest.raises(UndefinedOpForProcessor):
        energy_of("pooling", 10, "array", 16)


def test_energy_linear_and_zero():
    one = energy_of("mac", 1, "vector", 64)
    assert energy_of("mac", 0, "vector", 64) == 0.0
    assert energy_of("mac", 1000, "vector", 64) == pytest.approx(1000 * one)


def test_energy_table_covers_all_vector_rows():
    for row in ("mac", "pooling", "lut", "reduction", "softmax", "etc"):
        for lanes in (16, 32, 64):
            assert energy_of(row, 1, "vector", lanes) > 0


# --- config validation -------------------------------------------------------

def test_unsupported_dim_rejected():
    for arrays, vectors, message in (((24,), (16,), "systolic array dim 24"),
                                     ((True,), (16,), "systolic array dim True"),
                                     ((32.0,), (16,), "systolic array dim 32.0"),
                                     ((16,), (128,), "vector lane count 128")):
        with pytest.raises(ConfigError, match=f"unsupported {message}$"):
            ClusterConfig(arrays=arrays, vectors=vectors, shared_mem_bytes=1 << 20)


def test_cluster_needs_both_processor_kinds():
    with pytest.raises(ConfigError):
        ClusterConfig(arrays=(), vectors=(16,),
                      shared_mem_bytes=1 << 20)
    with pytest.raises(ConfigError):
        ClusterConfig(arrays=(16,), vectors=(),
                      shared_mem_bytes=1 << 20)


def test_hw_needs_cluster_and_positive_bandwidth():
    with pytest.raises(ConfigError):
        HardwareConfig(clusters=())
    with pytest.raises(ConfigError):
        make_hw(1, make_cluster(1, 16, 1, 16, 45), hbm_gbps=0)


def test_config_file_round_trip(tmp_path):
    hw = make_hw(2, make_cluster(2, 32, 4, 64, 65), hbm_gbps=128)
    path = tmp_path / "hw.json"
    path.write_text(json.dumps(hw_config_to_dict(hw)))
    loaded = load_hw_config(str(path))
    assert loaded == hw
    assert load_hw_config(path) == hw  # an os.PathLike


def test_config_rejects_garbage(tmp_path):
    path = tmp_path / "hw.json"
    path.write_text('{"clusters": [{"arrays": []}]}')
    with pytest.raises(ConfigError):
        load_hw_config(str(path))
    path.write_text("not json {")
    with pytest.raises(ConfigError):
        load_hw_config(str(path))


def test_hw_refuses_negative_latency():
    with pytest.raises(ConfigError, match="hbm_latency_cycles"):
        make_hw(1, make_cluster(1, 16, 1, 16, 45), hbm_latency_cycles=-1)


def test_config_that_does_not_decode_is_bad_json(tmp_path):
    # bytes that are not UTF-8 escaped as UnicodeDecodeError
    path = tmp_path / "hw.json"
    path.write_bytes(b'{"clock_mhz": 800\xff}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_hw_config(str(path))


# each a key no field table names, with a value that would be valid under it
@pytest.mark.parametrize("path,value,key", [
    (("cycle_constants",), {"activation": 1}, "cycle_constants"),
    (("clock_hz",), 800e6, "clock_hz"),
    (("clusters", 0, "lanes"), 64, "lanes"),
])
def test_config_refuses_unknown_keys(path, value, key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        load_hw_config(desk_hw_doc_with(path, value))


def test_readme_hardware_config_example_loads():
    # the example under README's "Hardware config (JSON)" heading
    with open(os.path.join(os.path.dirname(DESK_HW), "..", "README.md")) as f:
        readme = f.read()
    section = readme[readme.index("**Hardware config (JSON)**"):]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    assert isinstance(load_hw_config(json.loads(example)), HardwareConfig)


# each a JSON value that is not an integer, or an integer out of range
@pytest.mark.parametrize("path,value", [
    (("hbm_latency_cycles",), -1000), (("hbm_latency_cycles",), 100.0),
    (("hbm_latency_cycles",), "100"), (("cycle_constants",), {"activation": -3}),
    (("cycle_constants",), {"activation": 1.5}), (("clusters", 0, "num_task_queues"), 2.5),
    (("clusters", 0, "num_task_queues"), True), (("clusters", 0, "arrays", 0, "dim"), "32"),
    (("clusters", 0, "arrays", 0, "dim"), 32.0), (("clusters", 0, "vectors", 0, "lanes"), 64.0),
])
def test_config_integers_must_be_json_integers(path, value):
    with pytest.raises(ConfigError):
        load_hw_config(desk_hw_doc_with(path, value))


@pytest.mark.parametrize("source", [1, 2.5, None, [DESK_HW]])
def test_config_source_is_a_path_or_a_dict(source):
    # an int went to open() as a file descriptor, which the read then closed
    with pytest.raises(ConfigError, match="path or a dict"):
        load_hw_config(source)


def _hw_mutations(doc, path=()):
    """(label, copy of ``doc``) with the whole document or one value in it
    replaced by each of RETYPES, or one object key dropped."""
    for value in RETYPES:
        yield f"{list(path)} = {json.dumps(value)}", desk_hw_doc_with(path, value) if path else value
    if path and isinstance(functools.reduce(operator.getitem, path[:-1], doc), dict):
        bad = copy.deepcopy(doc)
        del functools.reduce(operator.getitem, path[:-1], bad)[path[-1]]
        yield f"{list(path)} dropped", bad
    node = functools.reduce(operator.getitem, path, doc)
    children = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in children:
        yield from _hw_mutations(doc, path + (key,))


def test_config_mutations_load_or_raise_config_error(tmp_path):
    # the hardware counterpart of test_models' ingest mutations, each read
    # back from a file: a document that is not an object escaped as
    # AttributeError
    with open(DESK_HW) as f:
        doc = json.load(f)
    path = tmp_path / "hw.json"
    count = 0
    for label, bad in _hw_mutations(doc):
        count += 1
        path.write_text(json.dumps(bad))
        try:
            config = load_hw_config(str(path))
        except ConfigError:
            continue
        except Exception as e:
            pytest.fail(f"{label} escaped load_hw_config as {e!r}")
        assert isinstance(config, HardwareConfig), label
    assert count == 325
