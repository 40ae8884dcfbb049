"""The hypothesis and class record format: pinned texts and round trips."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cutofflab import core, serialize

P = core.Point
_CANTOR_H = core.CantorHypothesis(frozenset({3, 1}), F(3, 4))
_TABLE_H = core.TableHypothesis(((P.nat(1), F(1, 3)), (P.pair(4, 1), F(0))), F(1))


@pytest.mark.parametrize(
    ("write", "read", "value", "text"),
    [
        pytest.param(
            serialize.hypothesis_to_json, serialize.hypothesis_from_json, _CANTOR_H,
            '{"kind": "cantor_hypothesis", "members": [1, 3], "value": "3/4"}',
            id="cantor_hypothesis",
        ),
        pytest.param(
            serialize.hypothesis_to_json, serialize.hypothesis_from_json,
            core.SplitCantorHypothesis(4, frozenset({2, 1}), "complement", F(5, 6)),
            '{"kind": "split_cantor_hypothesis", "k": 4, "members": [1, 2], '
            '"zero_on": "complement", "value": "5/6"}',
            id="split_cantor_hypothesis",
        ),
        pytest.param(
            serialize.hypothesis_to_json, serialize.hypothesis_from_json, _TABLE_H,
            '{"kind": "table_hypothesis", "entries": [[{"nat": 1}, "1/3"], '
            '[{"pair": [4, 1]}, "0/1"]], "default": "1/1"}',
            id="table_hypothesis",
        ),
        pytest.param(
            serialize.class_to_json, serialize.class_from_json, core.CantorClass(F(1, 2), 2, 6),
            '{"kind": "cantor", "gamma": "1/2", "d": 2, "universe": 6}',
            id="cantor",
        ),
        pytest.param(
            serialize.class_to_json, serialize.class_from_json,
            core.SplitCantorClass(F(1, 3), core.SQRT_SIZE, None, 9),
            '{"kind": "split_cantor", "gamma": "1/3", "variant": "sqrt_size", '
            '"size_param": null, "universe_cap": 9}',
            id="split_cantor-sqrt",
        ),
        pytest.param(
            serialize.class_to_json, serialize.class_from_json,
            core.SplitCantorClass(F(1, 2), core.D_MINUS_ONE_COMPLEMENT, 3, 7),
            '{"kind": "split_cantor", "gamma": "1/2", "variant": "d_minus_one_complement", '
            '"size_param": 3, "universe_cap": 7}',
            id="split_cantor-complement",
        ),
        pytest.param(
            serialize.class_to_json, serialize.class_from_json,
            core.FiniteClass((_CANTOR_H, _TABLE_H)),
            '{"kind": "finite", "hypotheses": ['
            '{"kind": "cantor_hypothesis", "members": [1, 3], "value": "3/4"}, '
            '{"kind": "table_hypothesis", "entries": [[{"nat": 1}, "1/3"], '
            '[{"pair": [4, 1]}, "0/1"]], "default": "1/1"}]}',
            id="finite",
        ),
    ],
)
def test_record_text_is_pinned(write, read, value, text):
    # the key order too: json.dumps keeps the order the writer gives
    assert json.dumps(write(value)) == text
    assert read(json.loads(text)) == value


def test_size_param_may_be_missing():
    record = {"kind": "split_cantor", "gamma": "1/3", "variant": "sqrt_size", "universe_cap": 9}
    assert serialize.class_from_json(record) == core.SplitCantorClass(
        F(1, 3), core.SQRT_SIZE, None, 9
    )


_gamma = st.sampled_from([F(1, 2), F(1, 3), F(2, 5)])
_value = st.fractions(0, 1, max_denominator=12)
_index = st.integers(1, 9)
_members = st.frozensets(_index, max_size=4)
_point = st.one_of(
    st.builds(P.nat, _index),
    _index.flatmap(lambda k: st.builds(P.pair, st.just(k), st.integers(1, k))),
)
_hypothesis = st.one_of(
    st.builds(core.CantorHypothesis, _members, _value),
    st.builds(
        core.SplitCantorHypothesis, _index, _members,
        st.sampled_from(["members", "complement"]), _value,
    ),
    st.builds(
        core.TableHypothesis,
        st.dictionaries(_point, _value, max_size=4).map(lambda table: tuple(table.items())),
        _value,
    ),
)


@st.composite
def _classes(draw):
    kind = draw(st.sampled_from(["cantor", "sqrt", "complement", "finite"]))
    gamma = draw(_gamma)
    if kind == "cantor":
        d = draw(st.integers(1, 3))
        return core.CantorClass(gamma, d, draw(st.integers(d, 6)))
    if kind == "sqrt":
        return core.SplitCantorClass(gamma, core.SQRT_SIZE, None, draw(st.integers(1, 9)))
    if kind == "complement":
        d = draw(st.integers(2, 3))
        cap = draw(st.integers(d - 1, 6))
        return core.SplitCantorClass(gamma, core.D_MINUS_ONE_COMPLEMENT, d, cap)
    return core.FiniteClass(tuple(draw(st.lists(_hypothesis, max_size=4))))


def _through_text(write, read, value):
    return read(json.loads(json.dumps(write(value))))


@settings(max_examples=60, deadline=None)
@given(cls=_classes())
def test_classes_and_members_round_trip(cls):
    assert _through_text(serialize.class_to_json, serialize.class_from_json, cls) == cls
    for h in cls.hypotheses:
        assert _through_text(serialize.hypothesis_to_json, serialize.hypothesis_from_json, h) == h
