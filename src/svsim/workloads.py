"""Synthetic multi-tenant workload generation.

Workloads mix requests for the four builtin CNNs and four builtin
transformers at a controlled CNN:transformer ratio; the 10% ratio grid from
0% to 100% with a few seeds each forms the standard evaluation suite.
Model picks within a class are uniform and fully seed-determined.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

from .models import CNN_MODELS, TRANSFORMER_MODELS

RATIO_GRID = tuple(round(r / 10, 1) for r in range(11))

ARRIVAL_MODELS = ("batch", "rate")

DEFAULT_MODEL_PARAMS = {"image_size": 224, "seq_len": 128,
                        "depth_reduction": 4, "batch": 1}


@dataclass(frozen=True)
class Request:
    request_id: int
    model: str
    arrival_cycle: int


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    cnn_ratio: float
    request_count: int
    requests: tuple[Request, ...]
    arrival_model: str = "batch"
    model_params: dict = field(default_factory=lambda: dict(DEFAULT_MODEL_PARAMS))

    @property
    def cnn_requests(self) -> int:
        return sum(1 for r in self.requests if r.model in CNN_MODELS)


def generate(cnn_ratio: float, request_count: int, seed: int, *,
             arrival_model: str = "batch", arrival_interval: int = 0,
             model_params: dict | None = None) -> Workload:
    """Draw a request mix at the given CNN ratio (within one request)."""
    if request_count < 1:
        raise ValueError("request_count must be >= 1")
    if not any(abs(cnn_ratio - g) < 1e-9 for g in RATIO_GRID):
        raise ValueError(f"cnn_ratio must be on the 10% grid, got {cnn_ratio}")
    if arrival_model not in ARRIVAL_MODELS:
        raise ValueError(f"unknown arrival model {arrival_model!r}")
    rng = random.Random(seed * 1_000_003
                        + round(cnn_ratio * 10) * 1_009 + request_count)
    n_cnn = round(cnn_ratio * request_count)
    labels = ["cnn"] * n_cnn + ["transformer"] * (request_count - n_cnn)
    rng.shuffle(labels)
    requests = []
    for i, label in enumerate(labels):
        pool = CNN_MODELS if label == "cnn" else TRANSFORMER_MODELS
        arrival = i * arrival_interval if arrival_model == "rate" else 0
        requests.append(Request(i, rng.choice(pool), arrival))
    return Workload(
        name=f"ratio{int(round(cnn_ratio * 100)):03d}_s{seed}",
        seed=seed, cnn_ratio=cnn_ratio, request_count=request_count,
        requests=tuple(requests), arrival_model=arrival_model,
        model_params=dict(model_params or DEFAULT_MODEL_PARAMS))


def standard_suite(request_count: int = 16, seeds: tuple[int, ...] = (1, 2, 3),
                   *, model_params: dict | None = None) -> list[Workload]:
    """The evaluation suite: every ratio on the grid times each seed."""
    return [generate(ratio, request_count, seed, model_params=model_params)
            for ratio in RATIO_GRID for seed in seeds]


def save_manifest(workload: Workload, path: str) -> None:
    doc = asdict(workload)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)


def _non_negative(field: str, value, types=(int,)):
    if type(value) not in types or value < 0:
        kinds = " or ".join(t.__name__ for t in types)
        raise ValueError(f"manifest {field} must be a non-negative {kinds}, got {value!r}")
    return value


def check_model_params(params, where: str) -> dict:
    """``params`` if it is an object holding only keys of
    ``DEFAULT_MODEL_PARAMS``, each an integer >= 0; otherwise ValueError
    naming ``where`` (the document it came from) and the key."""
    if not isinstance(params, dict):
        raise ValueError(f"{where} model_params must be an object, got {params!r}")
    for key, value in params.items():
        if key not in DEFAULT_MODEL_PARAMS:
            raise ValueError(f"unknown {where} model_params key {key!r} (known: "
                             f"{', '.join(DEFAULT_MODEL_PARAMS)})")
        if type(value) is not int or value < 0:
            raise ValueError(f"{where} model_params.{key} must be a non-negative int, "
                             f"got {value!r}")
    return params


def load_manifest(path: str) -> Workload:
    """Read a manifest file; a bad document raises ValueError naming the
    field.  Requests need unique integer ``request_id``s, string ``model``s
    and integer ``arrival_cycle``s; counts and ``model_params`` are >= 0, and
    ``model_params`` holds only the keys of ``DEFAULT_MODEL_PARAMS``.  The
    ``name`` is a string and the ``arrival_model`` one of ``ARRIVAL_MODELS``."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or not isinstance(doc.get("requests"), list):
        raise ValueError("a manifest is an object with a list of requests")
    if not all(isinstance(r, dict) and isinstance(r.get("model"), str)
               for r in doc["requests"]):
        raise ValueError("each manifest request is an object with a string model")
    requests = tuple(Request(_non_negative("request_id", r.get("request_id")), r["model"],
                             _non_negative("arrival_cycle", r.get("arrival_cycle")))
                     for r in doc["requests"])
    if len({r.request_id for r in requests}) < len(requests):
        raise ValueError("manifest request_id values must be unique")
    params = check_model_params(doc.get("model_params", DEFAULT_MODEL_PARAMS), "manifest")
    seed = _non_negative("seed", doc.get("seed", 0))
    cnn_ratio = float(_non_negative("cnn_ratio", doc.get("cnn_ratio", 0.0), (int, float)))
    count = _non_negative("request_count", doc.get("request_count", len(requests)))
    name = doc.get("name", "workload")
    if not isinstance(name, str):
        raise ValueError(f"manifest name must be a string, got {name!r}")
    arrival_model = doc.get("arrival_model", "batch")
    if arrival_model not in ARRIVAL_MODELS:
        raise ValueError(f"manifest arrival_model must be one of {ARRIVAL_MODELS}, "
                         f"got {arrival_model!r}")
    return Workload(name, seed, cnn_ratio, count, requests, arrival_model, dict(params))
