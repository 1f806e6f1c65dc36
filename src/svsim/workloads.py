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

from .fields import OMIT, REQUIRED, STRING, List, Rule, check, integer, one_of
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


_NATURAL = integer(0)
MODEL_PARAM_FIELDS = {key: (_NATURAL, OMIT) for key in DEFAULT_MODEL_PARAMS}
MANIFEST_FIELDS = {
    "name": (STRING, "workload"),
    "seed": (_NATURAL, 0),
    "cnn_ratio": (Rule("a number in [0, 1]", lambda v: type(v) in (int, float) and 0 <= v <= 1),
                  0.0),
    "request_count": (_NATURAL, OMIT),  # when absent, the number of requests
    "requests": (List({"request_id": (_NATURAL, REQUIRED), "model": (STRING, REQUIRED),
                       "arrival_cycle": (_NATURAL, REQUIRED)}, "a list of requests"),
                 REQUIRED),
    "arrival_model": (one_of(ARRIVAL_MODELS), "batch"),
    "model_params": (MODEL_PARAM_FIELDS, DEFAULT_MODEL_PARAMS),
}


def load_manifest(path: str) -> Workload:
    """Read a manifest file checked against ``MANIFEST_FIELDS``, whose
    requests have unique ``request_id``s; a bad document raises ValueError
    naming the field."""
    with open(path) as f:
        doc = check(json.load(f), MANIFEST_FIELDS, ValueError, "manifest")
    requests = tuple(Request(**r) for r in doc["requests"])
    if len({r.request_id for r in requests}) < len(requests):
        raise ValueError("manifest request_id values must be unique")
    return Workload(doc["name"], doc["seed"], float(doc["cnn_ratio"]),
                    doc.get("request_count", len(requests)), requests,
                    doc["arrival_model"], doc["model_params"])
