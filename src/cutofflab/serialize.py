"""JSON-shaped serialization for points, hypotheses, classes and distributions.

Exact rationals travel as "p/q" strings, points as {"nat": 3} or {"pair": [4, 2]}.
All readers raise ParseError on malformed input, a number they would have to
round included, so the CLI can map it to a stable exit code.  Files are read
through `read_text`, so an unreadable or undecodable file, or JSON nested past
the decoder's recursion limit, is a ParseError too.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import core
from .errors import ParseError


def rational_to_str(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def rational_from_str(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r} (use p/q)") from exc


def coerce(default, value, key: str):
    """Read a raw JSON or command-line value as the type of `default`.

    Numbers are never rounded: an int refuses a non-integral number, and no
    number takes a bool.  Raises ParseError for anything it cannot read.
    """
    try:
        if isinstance(default, Fraction):
            return rational_from_str(value)
        if isinstance(default, tuple):
            if not isinstance(value, list):
                raise ParseError(f"{key!r} must be a list, got {value!r}")
            return tuple(coerce(default[0], v, key) for v in value)
        if isinstance(default, (int, float)):
            if isinstance(value, bool):
                raise ValueError("bool is not a number")
            if isinstance(default, int) and isinstance(value, float) and not value.is_integer():
                raise ValueError("not an integer")
            return type(default)(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad value {key}={value!r}") from exc
    return value


def point_to_json(point: core.Point):
    if point.kind == "nat":
        return {"nat": point.n}
    return {"pair": [point.block, point.index]}


def point_from_json(obj) -> core.Point:
    if not isinstance(obj, dict):
        raise ParseError(f"bad point {obj!r}")
    try:
        if "nat" in obj:
            return core.Point.nat(coerce(0, obj["nat"], "nat"))
        if "pair" in obj:
            k, x = obj["pair"]
            return core.Point.pair(coerce(0, k, "pair"), coerce(0, x, "pair"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad point {obj!r}") from exc
    raise ParseError(f"bad point {obj!r}")


def hypothesis_to_json(h):
    if isinstance(h, core.CantorHypothesis):
        return {
            "kind": "cantor_hypothesis",
            "members": sorted(h.members),
            "value": rational_to_str(h.value),
        }
    if isinstance(h, core.SplitCantorHypothesis):
        return {
            "kind": "split_cantor_hypothesis",
            "k": h.k,
            "members": sorted(h.members),
            "zero_on": h.zero_on,
            "value": rational_to_str(h.value),
        }
    if isinstance(h, core.TableHypothesis):
        return {
            "kind": "table_hypothesis",
            "entries": [[point_to_json(p), rational_to_str(v)] for p, v in h.table],
            "default": rational_to_str(h.default),
        }
    raise ParseError(f"unknown hypothesis {h!r}")


def hypothesis_from_json(obj):
    try:
        kind = obj["kind"]
        if kind == "cantor_hypothesis":
            return core.CantorHypothesis(
                frozenset(coerce((0,), obj["members"], "members")),
                rational_from_str(obj["value"]),
            )
        if kind == "split_cantor_hypothesis":
            if obj["zero_on"] not in ("members", "complement"):
                raise ParseError(f"zero_on {obj['zero_on']!r} is not 'members' or 'complement'")
            return core.SplitCantorHypothesis(
                coerce(0, obj["k"], "k"),
                frozenset(coerce((0,), obj["members"], "members")),
                obj["zero_on"],
                rational_from_str(obj["value"]),
            )
        if kind == "table_hypothesis":
            entries = tuple(
                (point_from_json(p), rational_from_str(v)) for p, v in obj["entries"]
            )
            return core.TableHypothesis(entries, rational_from_str(obj["default"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad hypothesis record: {exc}") from exc
    raise ParseError(f"unknown hypothesis kind {obj!r}")


def class_to_json(cls):
    if isinstance(cls, core.CantorClass):
        return {
            "kind": "cantor",
            "gamma": rational_to_str(cls.gamma),
            "d": cls.d,
            "universe": cls.universe,
        }
    if isinstance(cls, core.SplitCantorClass):
        return {
            "kind": "split_cantor",
            "gamma": rational_to_str(cls.gamma),
            "variant": cls.variant,
            "size_param": cls.size_param,
            "universe_cap": cls.universe_cap,
        }
    if isinstance(cls, core.FiniteClass):
        return {
            "kind": "finite",
            "hypotheses": [hypothesis_to_json(h) for h in cls.hypotheses],
        }
    raise ParseError(f"unknown class {cls!r}")


def class_from_json(obj):
    try:
        kind = obj["kind"]
        if kind == "cantor":
            return core.CantorClass(
                rational_from_str(obj["gamma"]),
                coerce(0, obj["d"], "d"),
                coerce(0, obj["universe"], "universe"),
            )
        if kind == "split_cantor":
            size_param = obj.get("size_param")
            return core.SplitCantorClass(
                rational_from_str(obj["gamma"]),
                str(obj["variant"]),
                None if size_param is None else coerce(0, size_param, "size_param"),
                coerce(0, obj["universe_cap"], "universe_cap"),
            )
        if kind == "finite":
            return core.FiniteClass(tuple(hypothesis_from_json(h) for h in obj["hypotheses"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad class record: {exc}") from exc
    raise ParseError(f"unknown class kind {obj!r}")


def distribution_from_json(obj) -> core.FiniteDistribution:
    try:
        triples = [
            (
                point_from_json(a["point"]),
                rational_from_str(a["label"]),
                rational_from_str(a["mass"]),
            )
            for a in obj["atoms"]
        ]
        witness = obj.get("witness")
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad distribution record: {exc}") from exc
    return core.FiniteDistribution.from_triples(
        triples, None if witness is None else hypothesis_from_json(witness)
    )


def read_text(path) -> str:
    """The UTF-8 text of the file at `path`; ParseError if it cannot be read
    or does not decode."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def load_json(path):
    try:
        return json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
