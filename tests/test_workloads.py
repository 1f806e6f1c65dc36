import pytest

from svsim.models import CNN_MODELS, TRANSFORMER_MODELS
from svsim.workloads import (RATIO_GRID, Workload, generate, load_manifest,
                             save_manifest, standard_suite)


def test_all_cnn_boundary():
    w = generate(1.0, 20, seed=1)
    assert w.cnn_requests == 20
    assert all(r.model in CNN_MODELS for r in w.requests)


def test_all_transformer_boundary():
    w = generate(0.0, 20, seed=1)
    assert w.cnn_requests == 0
    assert all(r.model in TRANSFORMER_MODELS for r in w.requests)


def test_even_split():
    w = generate(0.5, 20, seed=1)
    assert w.cnn_requests == 10


def test_ratio_within_one_request_everywhere():
    for ratio in RATIO_GRID:
        for n in (7, 16, 24):
            w = generate(ratio, n, seed=2)
            assert abs(w.cnn_requests - ratio * n) < 1 or \
                w.cnn_requests == round(ratio * n)


def test_seed_determinism():
    a = generate(0.5, 16, seed=9)
    b = generate(0.5, 16, seed=9)
    assert a.requests == b.requests
    c = generate(0.5, 16, seed=10)
    assert a.requests != c.requests


def test_arrivals_batch_and_rate():
    batch = generate(0.5, 8, seed=1)
    assert all(r.arrival_cycle == 0 for r in batch.requests)
    rate = generate(0.5, 8, seed=1, arrival_model="rate", arrival_interval=1000)
    arrivals = [r.arrival_cycle for r in rate.requests]
    assert arrivals == sorted(arrivals)
    assert arrivals[-1] == 7000


def test_off_grid_ratio_rejected():
    with pytest.raises(ValueError):
        generate(0.55, 8, seed=1)
    with pytest.raises(ValueError):
        generate(0.5, 0, seed=1)


def test_standard_suite_shape():
    suite = standard_suite()
    assert len(suite) == 33
    assert sorted({w.cnn_ratio for w in suite}) == list(RATIO_GRID)
    names = [w.name for w in suite]
    assert len(set(names)) == 33
    for w in suite:
        assert abs(w.cnn_requests - w.cnn_ratio * w.request_count) <= 1


def test_manifest_round_trip(tmp_path):
    path = tmp_path / "w.json"
    for w in (generate(0.3, 12, seed=4),
              generate(0.5, 4, seed=0, arrival_model="rate", arrival_interval=10)):
        save_manifest(w, str(path))
        assert load_manifest(str(path)) == w
