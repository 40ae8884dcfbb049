"""JSON-shaped serialization for points, hypotheses, classes and distributions.

Exact rationals travel as "p/q" strings, points as {"nat": 3} or {"pair": [4, 2]}.
Each hypothesis and class record kind is one row of `_HYPOTHESES` or `_CLASSES`,
read and written by walking that row.  Every reader raises ParseError on bad
input, so the CLI exits 2: a number it would round, NaN or an infinity, and a
file that `read_text` cannot read or decode, or nested past the recursion limit.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from functools import partial

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

    Numbers are never rounded: an int refuses a non-integral number, a float
    refuses NaN and the infinities (JSON's NaN, Infinity and 1e400 included),
    and no number takes a bool.  Raises ParseError for anything it cannot read.
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
            number = type(default)(value)
            if isinstance(number, float) and not math.isfinite(number):
                raise ValueError("not a finite number")
            return number
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


#: One key of a record: `write` turns its attribute into JSON and `read(value,
#: key)` turns the JSON value back.  An optional key may be missing or null.
_Field = namedtuple("_Field", "key write read attr optional", defaults=("", False))


def _zero_on(value, key):
    if value not in ("members", "complement"):
        raise ParseError(f"{key} {value!r} is not 'members' or 'complement'")
    return value


_RATIONAL = (rational_to_str, lambda value, key: rational_from_str(value))
_INT = (lambda value: value, partial(coerce, 0))
_MEMBERS = (sorted, lambda value, key: frozenset(coerce((0,), value, key)))

#: Every hypothesis and class record: its "kind", the type it holds, and its
#: keys in the order that type's constructor takes them.
_HYPOTHESES = (
    ("cantor_hypothesis", core.CantorHypothesis,
     (_Field("members", *_MEMBERS), _Field("value", *_RATIONAL))),
    ("split_cantor_hypothesis", core.SplitCantorHypothesis,
     (_Field("k", *_INT), _Field("members", *_MEMBERS), _Field("zero_on", str, _zero_on),
      _Field("value", *_RATIONAL))),
    ("table_hypothesis", core.TableHypothesis,
     (_Field("entries", lambda table: [[point_to_json(p), rational_to_str(v)] for p, v in table],
             lambda value, key: tuple((point_from_json(p), rational_from_str(v)) for p, v in value),
             attr="table"),
      _Field("default", *_RATIONAL))),
)
_CLASSES = (
    ("cantor", core.CantorClass,
     (_Field("gamma", *_RATIONAL), _Field("d", *_INT), _Field("universe", *_INT))),
    # an unknown variant is read as text and refused by the class itself
    ("split_cantor", core.SplitCantorClass,
     (_Field("gamma", *_RATIONAL), _Field("variant", str, lambda value, key: str(value)),
      _Field("size_param", *_INT, optional=True), _Field("universe_cap", *_INT))),
    ("finite", core.FiniteClass,
     (_Field("hypotheses", lambda hs: [hypothesis_to_json(h) for h in hs],
             lambda value, key: tuple(hypothesis_from_json(h) for h in value)),)),
)


def _to_json(records, obj, what):
    for kind, type_, fields in records:
        if type(obj) is type_:
            return {"kind": kind, **{f.key: f.write(getattr(obj, f.attr or f.key)) for f in fields}}
    raise ParseError(f"unknown {what} {obj!r}")


def _from_json(records, obj, what):
    try:
        kind = obj["kind"]
        for name, type_, fields in records:
            if kind == name:
                return type_(*(None if f.optional and obj.get(f.key) is None
                               else f.read(obj[f.key], f.key) for f in fields))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {what} record: {exc}") from exc
    raise ParseError(f"unknown {what} kind {obj!r}")


def hypothesis_to_json(h):
    return _to_json(_HYPOTHESES, h, "hypothesis")


def hypothesis_from_json(obj):
    return _from_json(_HYPOTHESES, obj, "hypothesis")


def class_to_json(cls):
    return _to_json(_CLASSES, cls, "class")


def class_from_json(obj):
    return _from_json(_CLASSES, obj, "class")


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
