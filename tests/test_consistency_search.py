"""Randomized cross-checks of the constructive consistency searches.

The structured classes find their colex-first consistent member without
enumerating (zero labels pin the member set or block; a nonzero label inverts
the unique-value rank).  These tests replay random samples against the
brute-force enumeration answer on universes small enough to enumerate.
"""

import math
import random
from fractions import Fraction as F

import pytest

from cutofflab import core, learners, mc, adversaries

import helpers

NAT = core.Point.nat
PAIR = core.Point.pair
HALF = F(1, 2)


def enumeration_first_consistent(cls, sample):
    for h in cls.hypotheses:
        try:
            if all(h.value_at(ex.point) == ex.label for ex in sample):
                return h
        except core.DomainMismatchError:
            continue
    return None


def random_sample(rng, cls, points, max_len=4):
    """Random mix of zeros, class unique values, and junk labels."""
    members = list(cls.hypotheses)
    out = []
    for _ in range(rng.randrange(0, max_len + 1)):
        point = rng.choice(points)
        roll = rng.random()
        if roll < 0.5:
            label = F(0)
        elif roll < 0.85:
            label = rng.choice(members).value
        else:
            label = F(rng.randrange(1, 5), 7)
        out.append(core.LabeledExample(point, label))
    return tuple(out)


@pytest.mark.parametrize(
    "cls,points",
    [
        (core.CantorClass(HALF, 2, 6), [NAT(i) for i in range(1, 7)]),
        (core.CantorClass(F(1, 3), 3, 7), [NAT(i) for i in range(1, 8)]),
        (
            core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 9),
            [PAIR(1, 1)] + [PAIR(4, x) for x in range(1, 5)] + [PAIR(9, x) for x in range(1, 10)],
        ),
        (
            core.SplitCantorClass(F(1, 4), core.D_MINUS_ONE_COMPLEMENT, 3, 7),
            [PAIR(k, x) for k in range(2, 8) for x in range(1, k + 1)],
        ),
        (core.CantorClass(HALF, 1, 3), [NAT(i) for i in range(1, 4)]),
        (core.CantorClass(F(1, 3), 3, 3), [NAT(i) for i in range(1, 4)]),
        (
            # block 1 only; blocks 2 and 3 are inside the cap but not squares
            core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 3),
            [PAIR(k, x) for k in range(1, 4) for x in range(1, k + 1)],
        ),
        (
            core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 2, 3),
            [PAIR(k, x) for k in range(1, 4) for x in range(1, k + 1)],
        ),
    ],
    ids=[
        "cantor26",
        "cantor37",
        "split_sqrt9",
        "split_comp37",
        "cantor13",
        "cantor33_one_member",
        "split_sqrt3_block1_only",
        "split_comp23_m1",
    ],
)
def test_first_consistent_matches_enumeration(cls, points):
    rng = random.Random(99)
    for _ in range(300):
        sample = random_sample(rng, cls, points)
        assert cls.first_consistent(sample) == enumeration_first_consistent(cls, sample)


def test_unique_value_inversion_round_trip_large_blocks():
    # value -> (block, members) recovery must work even for the huge blocks
    # the ensembles use, where enumeration is impossible
    cls = core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 784)
    rng = random.Random(5)
    for _ in range(20):
        block = rng.choice([1, 4, 9, 729, 784])
        m = cls.member_size(block)
        members = tuple(sorted(rng.sample(range(1, block + 1), m)))
        h = cls.hypothesis(block, members)
        recovered = cls._from_value(h.value)
        assert recovered == h

    comp = core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 4, 64)
    for _ in range(20):
        block = rng.randrange(3, 65)
        members = tuple(sorted(rng.sample(range(1, block + 1), 3)))
        h = comp.hypothesis(block, members)
        assert comp._from_value(h.value) == h

    cantor = core.CantorClass(HALF, 4, 5000)
    for _ in range(20):
        h = cantor.hypothesis(rng.sample(range(1, 5001), 4))
        assert cantor._from_value(h.value) == h


def test_large_universe_fit_is_colex_minimal_superset():
    cls = core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 784)
    sample = helpers.training_sequence(
        [(PAIR(784, 300), 0), (PAIR(784, 7), 0), (PAIR(784, 501), 0)]
    )
    h = learners.generic_interpolator(cls, sample)
    assert h.k == 784
    # fill = 25 smallest indices not already observed
    fill = []
    x = 1
    while len(fill) < 28 - 3:
        if x not in (300, 7, 501):
            fill.append(x)
        x += 1
    assert h.members == frozenset({300, 7, 501, *fill})
    assert all(h.value_at(ex.point) == ex.label for ex in sample)


def test_nonzero_label_pins_unique_hypothesis_large_universe():
    cls = core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 4, 64)
    target = cls.hypothesis(64, {10, 20, 30})
    sample = helpers.training_sequence(
        [(PAIR(64, 10), target.value), (PAIR(64, 1), 0)]
    )
    assert cls.first_consistent(sample) == target
    # contradicting the pinned hypothesis yields no match
    bad = helpers.training_sequence(
        [(PAIR(64, 10), target.value), (PAIR(64, 20), 0)]
    )
    assert cls.first_consistent(bad) is None


def test_mc_family_prefix_stable_thm5():
    # trial t draws from stream t of the seed alone, so a longer run extends
    # a shorter one instead of reshuffling it
    fam = adversaries.thm5_family(HALF, 4, F(1, 256))
    learner = learners.ProperERM(fam.cls)
    short = mc.mc_expected_loss(learner, fam, 5, 30, seed=8)
    long = mc.mc_expected_loss(learner, fam, 5, 60, seed=8)
    assert long.losses[:30] == short.losses


@pytest.mark.parametrize(
    "cls,point",
    [
        (core.CantorClass(HALF, 2, 6), NAT(3)),
        (core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 9), PAIR(4, 2)),
    ],
    ids=["cantor26", "split_sqrt9"],
)
def test_shared_and_repeated_examples_scan_alike(cls, point):
    # the scan reads each distinct example object once; repeating one object,
    # repeating equal objects and a contradicting duplicate must all give the
    # brute-force answer
    value = cls.first_consistent(()).value
    zero = core.LabeledExample(point, F(0))
    shared = (zero, zero, zero)
    equal = tuple(core.LabeledExample(point, F(0)) for _ in range(3))
    contradicting = (zero, zero, core.LabeledExample(point, value), zero)
    for sample in (shared, equal):
        assert cls.first_consistent(sample) == enumeration_first_consistent(cls, sample)
        assert cls.first_consistent(sample) == cls.first_consistent((zero,))
    assert enumeration_first_consistent(cls, contradicting) is None
    assert cls.first_consistent(contradicting) is None


def _walked_member_size(cls, k):
    """Member-set size of block k by a walk over every block."""
    return next((m for block, m in cls.blocks() if block == k), None)


@pytest.mark.parametrize(
    "variant,d,first_cap",
    [(core.SQRT_SIZE, None, 1), (core.D_MINUS_ONE_COMPLEMENT, 2, 1),
     (core.D_MINUS_ONE_COMPLEMENT, 3, 2), (core.D_MINUS_ONE_COMPLEMENT, 5, 4)],
    ids=["sqrt", "comp2", "comp3", "comp5"],
)
def test_member_size_matches_the_block_walk(variant, d, first_cap):
    for cap in range(first_cap, 41):
        cls = core.SplitCantorClass(HALF, variant, d, cap)
        for k in range(-1, cap + 3):
            assert cls.member_size(k) == _walked_member_size(cls, k), (cap, k)


@pytest.mark.parametrize(
    "variant,d,cap",
    [(core.SQRT_SIZE, None, 1), (core.SQRT_SIZE, None, 8), (core.SQRT_SIZE, None, 30),
     (core.D_MINUS_ONE_COMPLEMENT, 2, 40), (core.D_MINUS_ONE_COMPLEMENT, 3, 40),
     (core.D_MINUS_ONE_COMPLEMENT, 4, 20)],
    ids=["sqrt1", "sqrt8", "sqrt30", "comp2_40", "comp3_40", "comp4_20"],
)
def test_block_offsets_give_the_enumeration_rank(variant, d, cap):
    # a member's unique value carries its 1-based position in the
    # block-then-colex enumeration, whatever order the blocks are asked in
    gamma = F(1, 3)
    listed = list(core.SplitCantorClass(gamma, variant, d, cap).hypotheses)
    for position, h in enumerate(listed, 1):
        assert h.value == core._value_of_rank(gamma, position)
    fresh = core.SplitCantorClass(gamma, variant, d, cap)
    assert [fresh.hypothesis(h.k, h.members) for h in reversed(listed)] == listed[::-1]


@pytest.mark.parametrize(("d", "universe"), [(1, 1), (1, 9), (2, 7), (3, 9), (5, 10)])
def test_colex_positions_give_the_enumeration_rank(d, universe):
    # a Cantor member's unique value carries its 1-based position in the
    # colex enumeration, whatever order the members are asked in
    gamma = F(1, 3)
    listed = list(core.CantorClass(gamma, d, universe).hypotheses)
    assert len(listed) == math.comb(universe, d)
    for position, h in enumerate(listed, 1):
        assert h.value == core._value_of_rank(gamma, position)
    fresh = core.CantorClass(gamma, d, universe)
    assert [fresh.hypothesis(h.members) for h in reversed(listed)] == listed[::-1]
