"""The package's value records behave as the frozen dataclasses they replace.

Each record class is checked against a reference dataclass built here with
the same fields: equality, hash, repr and refused assignment agree on sample
instances, and points order as an ``order=True`` dataclass orders them.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from cutofflab import adversaries, core, dims, experiments, learners, mc
from cutofflab import partial as pc

HALF = F(1, 2)
NAT, PAIR = core.Point.nat, core.Point.pair
CANTOR = core.CantorClass(HALF, 2, 5)
H12, H13 = CANTOR.hypothesis({1, 2}), CANTOR.hypothesis({1, 3})
LAW = core.IntegerLaw((F(1, 4), F(3, 4)))
DIST = core.FiniteDistribution.from_triples([(NAT(1), 0, F(1, 4)), (NAT(2), 0, F(3, 4))])
FAMILY = dict(theorem="t", cls=CANTOR, epsilon=None, d=2, universe=5, n_max=None, law=LAW,
              pinned_first=False, point=NAT, witness=CANTOR.hypothesis)

#: per record class, builders of sample instances: two distinct ones, the
#: first built twice so that equal records are not the same object
SAMPLES = {
    core.Point: [lambda: NAT(3), lambda: PAIR(4, 2), lambda: NAT(12)],
    core.LabeledExample: [lambda: core.LabeledExample(NAT(1), HALF),
                          lambda: core.LabeledExample(NAT(1), F(1, 3))],
    core.TableHypothesis: [lambda: core.TableHypothesis(((NAT(1), HALF),)),
                           lambda: core.TableHypothesis(((NAT(1), HALF),), core.ONE)],
    core.CantorHypothesis: [lambda: core.CantorHypothesis(frozenset({1, 2}), F(3, 4)),
                            lambda: core.CantorHypothesis(frozenset({1}), F(3, 4))],
    core.SplitCantorHypothesis: [
        lambda: core.SplitCantorHypothesis(4, frozenset({1, 2}), "members", F(3, 4)),
        lambda: core.SplitCantorHypothesis(4, frozenset({1, 2}), "complement", F(3, 4))],
    core.FiniteClass: [lambda: core.FiniteClass((H12, H13)), lambda: core.FiniteClass((H12,))],
    core.CantorClass: [lambda: core.CantorClass(HALF, 2, 5), lambda: core.CantorClass(HALF, 2, 6)],
    core.SplitCantorClass: [lambda: core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 9),
                            lambda: core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 3, 5)],
    core.IntegerLaw: [lambda: core.IntegerLaw((F(1, 4), F(3, 4))),
                      lambda: core.IntegerLaw((F(3, 4), F(1, 4)))],
    core.FiniteDistribution: [lambda: core.FiniteDistribution(DIST.atoms, LAW),
                              lambda: core.FiniteDistribution(DIST.atoms, LAW, H12)],
    learners.OrderStatistic: [lambda: learners.OrderStatistic(1), lambda: learners.OrderStatistic(2)],
    learners.Median: [learners.Median],
    learners.Mean: [learners.Mean],
    learners.DisjointBlocks: [lambda: learners.DisjointBlocks(3), lambda: learners.DisjointBlocks(1)],
    learners.OverlappingWindows: [lambda: learners.OverlappingWindows(3, 2),
                                  lambda: learners.OverlappingWindows(2, 3)],
    learners.Bootstrap: [lambda: learners.Bootstrap(3, 2), lambda: learners.Bootstrap(3, 2, 17)],
    learners.InterpolatorAggregation: [
        lambda: learners.InterpolatorAggregation(len),
        lambda: learners.InterpolatorAggregation(len, learners.DisjointBlocks(1), sample_arity=3)],
    adversaries.HardInstance: [
        lambda: adversaries.HardInstance("t", CANTOR, DIST, H12, HALF, None, 2, 5, None),
        lambda: adversaries.HardInstance("t", CANTOR, DIST, H12, HALF, F(1, 8), 2, 5, 4)],
    adversaries.InstanceFamily: [lambda: adversaries.InstanceFamily(**FAMILY),
                                 lambda: adversaries.InstanceFamily(**{**FAMILY, "universe": 6})],
    mc.LossEstimate: [lambda: mc.LossEstimate(0.5, 0.1, 0.3, 0.7, 2, (HALF, HALF)),
                      lambda: mc.LossEstimate(0.5, 0.1, 0.3, 0.7, 2, (HALF, core.ZERO))],
    mc.ScalingFit: [lambda: mc.ScalingFit(-1.0, 0.99), lambda: mc.ScalingFit(-0.5, 0.99)],
    # a dict field: equal records compare equal, and hashing fails as it does for the dataclass
    dims.ShatterCertificate: [lambda: dims.ShatterCertificate((NAT(1),), H12, {(0,): H12}),
                              lambda: dims.ShatterCertificate((NAT(2),), H12, {(0,): H12})],
    dims.OneInclusionGraph: [lambda: dims.OneInclusionGraph((NAT(1),), 4, ((0,), (3,)), {}),
                             lambda: dims.OneInclusionGraph((NAT(1),), 2, ((0,), (1,)), {})],
    pc.PartialClass: [lambda: pc.PartialClass(2, ("0*", "11")), lambda: pc.PartialClass(2, ("11",))],
    experiments.Report: [lambda: experiments.Report("thm1", {"d": 2}),
                         lambda: experiments.Report("thm1", {"d": 2}, seed=3)],
}


def _record_classes():
    modules = (core, learners, adversaries, mc, dims, pc, experiments)
    return [value for module in modules for value in vars(module).values()
            if inspect.isclass(value) and issubclass(value, core.Record)
            and value.__module__ == module.__name__ and value is not core.Record]


def test_every_record_class_has_samples():
    assert len(_record_classes()) == 25
    assert set(_record_classes()) == set(SAMPLES)


def _reference(cls):
    """A dataclass with the record's fields and qualified name: frozen unless
    the record is mutable, and ordered for points."""
    mutable = cls.__setattr__ is object.__setattr__
    ref = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=not mutable,
                                     order=cls is core.Point)
    ref.__qualname__ = cls.__qualname__
    return ref


def _as_reference(ref, record):
    return ref(*(getattr(record, name) for name in record._fields))


def _refusal(action, *args):
    """The message of the AttributeError the action raises, or None."""
    try:
        action(*args)
    except AttributeError as exc:
        return str(exc)
    return None


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__qualname__)
def test_record_agrees_with_its_reference_dataclass(cls):
    ref = _reference(cls)
    records = [build() for build in SAMPLES[cls]] + [SAMPLES[cls][0]()]
    refs = [_as_reference(ref, r) for r in records]
    assert records[0] is not records[-1] and records[0] == records[-1]
    for a, ra in zip(records, refs):
        for b, rb in zip(records, refs):
            assert (a == b) is (ra == rb) and (a != b) is (ra != rb)
        assert a != ra and a.__eq__(ra) is NotImplemented
        assert _hash_or_error(a) == _hash_or_error(ra)
        if cls is not core.Point:  # a point shows as Nat(n) or Pair(k, x)
            assert repr(a) == repr(ra)
    for a, ra in zip(records, refs):
        for name in (*cls._fields, "other"):
            assert _refusal(setattr, a, name, 1) == _refusal(setattr, ra, name, 1)
            assert _refusal(delattr, a, name) == _refusal(delattr, ra, name)
    # a report is filled in as its check runs; every other record is frozen
    assert (_refusal(setattr, records[0], "seed", 1) is None) is (cls is experiments.Report)


def test_points_order_as_an_ordered_dataclass():
    ref = _reference(core.Point)
    points = [NAT(12), PAIR(4, 2), NAT(3), PAIR(4, 1), PAIR(9, 9), NAT(1), PAIR(1, 1)]
    refs = {id(p): _as_reference(ref, p) for p in points}
    for a in points:
        for b in points:
            ra, rb = refs[id(a)], refs[id(b)]
            assert (a < b, a <= b, a > b, a >= b) == (ra < rb, ra <= rb, ra > rb, ra >= rb)
    assert [refs[id(p)] for p in sorted(points)] == sorted(refs.values())
    with pytest.raises(TypeError):
        NAT(1) < (1,)


def test_partition_defaults_come_from_init():
    # `cli._partition_from_config` reads `_fields` and the `__init__` defaults
    assert learners.Bootstrap._fields == ("m", "size", "seed")
    assert learners.Bootstrap.__init__.__defaults__ == (0,)
    assert learners.DisjointBlocks.__init__.__defaults__ is None


def test_default_partitioner_is_built_per_learner():
    a, b = learners.InterpolatorAggregation(len), learners.InterpolatorAggregation(len)
    assert a.partitioner == learners.DisjointBlocks(3) and a.partitioner is not b.partitioner
    assert a.rule is b.rule == learners.Median()


def test_instance_for_carries_the_witness():
    family = adversaries.InstanceFamily(**FAMILY)
    instance = family.instance_for((1, 2))
    assert instance.distribution.witness == instance.witness == CANTOR.hypothesis((1, 2))
    assert instance.distribution.atoms == family.distribution_for((1, 2)).atoms


def test_importing_the_cli_leaves_dataclasses_unimported():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(core.__file__)))
    code = "import sys, cutofflab.cli; print(sorted(m for m in sys.modules if 'dataclass' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
