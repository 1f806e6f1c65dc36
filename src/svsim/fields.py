"""Field tables for the JSON documents svsim reads, and the one checker.

A table maps each key of a JSON object to ``(rule, default)``; the default
is a value, ``REQUIRED`` or ``OMIT`` (an absent key stays absent).  A rule
is a ``Rule``, a ``List`` or a nested table.  ``check`` returns a copy of a
document with its defaults filled in, or raises the loader's error naming
the failing path (``clusters[0].shared_mem_mb``); every object refuses a
key its table does not name.
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable, NamedTuple

REQUIRED, OMIT = object(), object()


class Rule(NamedTuple):
    what: str  # completes "<path> must be ..."
    ok: Callable[[Any], bool]


class List(NamedTuple):
    item: Any  # the rule of every element
    what: str
    min_len: int = 0
    distinct: bool = False


ANY = Rule("anything", lambda v: True)  # for a value a config dataclass checks
STRING = Rule("a string", lambda v: type(v) is str)
BOOL = Rule("true or false", lambda v: type(v) is bool)


def integer(low: int) -> Rule:
    """A JSON integer >= ``low``; a bool is none."""
    return Rule(f"an integer >= {low}", lambda v: type(v) is int and v >= low)


def one_of(choices) -> Rule:
    return Rule(f"one of {', '.join(choices)}", lambda v: type(v) is str and v in choices)


def positive(scale: float) -> Rule:
    """A JSON number > 0 that stays finite times ``scale`` (so never NaN,
    Infinity or a bool)."""
    return Rule(f"a number > 0 and at most {sys.float_info.max / scale:.4g}",
                lambda v: type(v) in (int, float) and 0 < v * scale < math.inf)


def check(doc, table: dict, error: type[Exception], name: str):
    """``doc`` checked against ``table``, its objects and lists copied and
    its defaults filled in; a violation raises ``error``, whose text starts
    with ``name`` (the document's) and the failing path."""
    def walk(value, rule, path):
        where = f"{name} {path}" if path else name
        if isinstance(rule, dict):
            if not isinstance(value, dict):
                raise error(f"{where} must be a JSON object, got {value!r:.60}")
            out = {}  # the given keys in the document's order, then the defaults
            for key, given in value.items():
                if key not in rule:
                    raise error(f"{where} has an unknown key {key!r} (known: {', '.join(rule)})")
                out[key] = walk(given, rule[key][0], f"{path}.{key}" if path else key)
            for key, (sub, default) in rule.items():
                if key not in out and default is REQUIRED:
                    raise error(f"{where} needs the key {key!r}")
                if key not in out and default is not OMIT:
                    out[key] = walk(default, sub, f"{path}.{key}" if path else key)
            return out
        if isinstance(rule, List):
            if isinstance(value, list) and len(value) >= rule.min_len:
                out = [walk(v, rule.item, f"{path}[{i}]") for i, v in enumerate(value)]
                if not rule.distinct or len(set(out)) == len(out):
                    return out
        elif rule.ok(value):
            return value
        raise error(f"{where} must be {rule.what}, got {value!r:.60}")

    return walk(doc, table, "")
