"""Partial concept classes, shattering strength, greedy disambiguation."""

import math
import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from cutofflab import core, dims
from cutofflab import partial as pc
from cutofflab.errors import BudgetExceededError, PreconditionError

import helpers

NAT = core.Point.nat
HALF = F(1, 2)


def brute_force_shattered_subsets(cls):
    """Independent oracle: test every subset directly from the definition."""
    n = cls.domain_size
    out = []
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            patterns = set()
            for concept in cls.concepts:
                sig = tuple(concept[i] for i in subset)
                if pc.STAR not in sig:
                    patterns.add(sig)
            if cls.concepts and len(patterns) == 2 ** size:
                out.append(subset)
    return out


class TestMasks:
    def test_masks_follow_the_strings(self):
        rng = random.Random(5)
        rows = tuple("".join(rng.choice("01*") for _ in range(6)) for _ in range(12))
        cls = pc.PartialClass(6, rows)
        for concept, (star, value) in zip(cls.concepts, cls.masks):
            assert [star >> i & 1 for i in range(6)] == [int(ch == pc.STAR) for ch in concept]
            assert [value >> i & 1 for i in range(6)] == [int(ch == "1") for ch in concept]

    def test_family_is_searched_once_per_class(self, monkeypatch):
        cls = pc.PartialClass(4, ("01*0", "1**1", "0110", "*001"))
        total = pc.disambiguate(cls)

        def must_not_search(*args):
            raise AssertionError("the shattered family was searched again")

        monkeypatch.setattr(pc, "_is_shattered", must_not_search)
        assert pc.partial_vc_dimension(cls) == 1
        assert helpers.shattering_strength(cls) == len(brute_force_shattered_subsets(cls))
        assert total.size() <= cls.size()


class TestVcDimension:
    def test_empty_class_is_zero_by_convention(self):
        assert pc.partial_vc_dimension(pc.PartialClass(3, ())) == 0

    def test_all_star_concept_is_zero(self):
        assert pc.partial_vc_dimension(pc.PartialClass(3, ("***",))) == 0

    def test_full_cube(self):
        cube = tuple("".join(bits) for bits in product("01", repeat=3))
        assert pc.partial_vc_dimension(pc.PartialClass(3, cube)) == 3

    def test_against_brute_force_oracle(self):
        rng = random.Random(2)
        for _ in range(20):
            rows = tuple(
                "".join(rng.choice("01*") for _ in range(5)) for _ in range(6)
            )
            cls = pc.PartialClass(5, rows)
            oracle = brute_force_shattered_subsets(cls)
            expected = max((len(s) for s in oracle), default=0)
            assert pc.partial_vc_dimension(cls) == expected

    def test_domain_budget(self):
        with pytest.raises(BudgetExceededError):
            pc.partial_vc_dimension(pc.PartialClass(17, ("0" * 17,)))


class TestShatteringStrength:
    def test_nonempty_class_shattering_nothing_else(self):
        assert helpers.shattering_strength(pc.PartialClass(2, ("**",))) == 1

    def test_empty_class(self):
        assert helpers.shattering_strength(pc.PartialClass(2, ())) == 0

    def test_full_cube_n2(self):
        cube = tuple("".join(bits) for bits in product("01", repeat=2))
        assert helpers.shattering_strength(pc.PartialClass(2, cube)) == 4

    def test_against_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(20):
            rows = tuple(
                "".join(rng.choice("01*") for _ in range(5)) for _ in range(7)
            )
            cls = pc.PartialClass(5, rows)
            assert helpers.shattering_strength(cls) == len(brute_force_shattered_subsets(cls))

    def test_sauer_style_ceiling(self):
        rng = random.Random(9)
        for _ in range(10):
            rows = tuple(
                "".join(rng.choice("01*") for _ in range(6)) for _ in range(10)
            )
            cls = pc.PartialClass(6, rows)
            d = pc.partial_vc_dimension(cls)
            ceiling = sum(math.comb(6, i) for i in range(d + 1))
            assert helpers.shattering_strength(cls) <= ceiling

    @given(st.lists(st.text(alphabet="01*", min_size=4, max_size=4), min_size=1, max_size=12),
           st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_restriction_superadditivity(self, rows, x, y):
        cls = pc.PartialClass(4, tuple(rows))
        kept0 = tuple(c for c in cls.concepts if c[x] == "0")
        kept1 = tuple(c for c in cls.concepts if c[x] == "1")
        s = helpers.shattering_strength(cls)
        s0 = helpers.shattering_strength(pc.PartialClass(4, kept0))
        s1 = helpers.shattering_strength(pc.PartialClass(4, kept1))
        assert s >= s0 + s1


class TestBound:
    def test_floor_case(self):
        assert pc.ln_disambiguation_bound(1, 1) == 8.0

    def test_formula_value(self):
        # direct evaluation: 2*2*ln(50e)^2
        expected = 4 * math.log(50 * math.e) ** 2
        assert math.isclose(pc.ln_disambiguation_bound(2, 100), expected)
        assert math.isclose(expected, 96.5119, rel_tol=1e-4)

    def test_monotone_in_n(self):
        values = [pc.ln_disambiguation_bound(2, n) for n in (1, 5, 25, 125, 625)]
        assert values == sorted(values)

    def test_pass_rule_vc_zero_needs_one_concept(self):
        assert pc.within_disambiguation_bound(1, 0, 10)
        assert not pc.within_disambiguation_bound(2, 0, 10)

    def test_pass_rule_compares_ln_size_with_the_bound(self):
        # ln_disambiguation_bound(1, 1) == 8 and e**8 lies in (2980, 2981)
        assert pc.within_disambiguation_bound(2980, 1, 1)
        assert not pc.within_disambiguation_bound(2981, 1, 1)


class TestDisambiguate:
    def test_total_class_unchanged(self):
        rows = ("010", "110", "001")
        total = pc.disambiguate(pc.PartialClass(3, rows))
        assert set(total.concepts) == set(rows)

    def test_output_is_a_star_free_partial_class(self):
        rng = random.Random(17)
        rows = tuple("".join(rng.choice("01*") for _ in range(6)) for _ in range(10))
        total = pc.disambiguate(pc.PartialClass(6, rows))
        assert isinstance(total, pc.PartialClass) and total.domain_size == 6
        assert all(pc.STAR not in bar for bar in total.concepts)
        assert all(star == 0 for star, _ in total.masks)

    def test_single_partial_concept(self):
        total = pc.disambiguate(pc.PartialClass(2, ("1*",)))
        assert total.size() == 1
        assert total.concepts[0][0] == "1"

    def test_empty_class_rejected(self):
        with pytest.raises(PreconditionError):
            pc.disambiguate(pc.PartialClass(2, ()))

    def test_disambiguation_property_and_size(self):
        rng = random.Random(31)
        for _ in range(25):
            rows = tuple(
                "".join(rng.choice("01*") for _ in range(8))
                for _ in range(rng.randrange(1, 20))
            )
            cls = pc.PartialClass(8, rows)
            total = pc.disambiguate(cls)
            assert total.size() <= cls.size()
            for concept in cls.concepts:
                assert any(
                    all(a == b for a, b in zip(concept, bar) if a != pc.STAR)
                    for bar in total.concepts
                )

    def test_ln_size_bound(self):
        rng = random.Random(13)
        for _ in range(25):
            rows = tuple(
                "".join(rng.choice("01*") for _ in range(10))
                for _ in range(rng.randrange(1, 30))
            )
            cls = pc.PartialClass(10, rows)
            d = pc.partial_vc_dimension(cls)
            total = pc.disambiguate(cls)
            if d == 0:
                assert total.size() == 1
            else:
                assert math.log(total.size()) <= pc.ln_disambiguation_bound(d, 10)


class TestLossPatternReduction:
    def test_exact_labeling_gives_all_zeros(self):
        cls = core.CantorClass(HALF, 2, 4)
        h = cls.hypothesis({1, 2})
        examples = [core.LabeledExample(NAT(i), h.value_at(NAT(i))) for i in (1, 2, 3)]
        reduced = helpers.loss_pattern_reduction(core.FiniteClass((h,)), examples, HALF)
        assert reduced.concepts == ("000",)

    def test_within_gamma_gives_stars(self):
        h = helpers.table_hypothesis({NAT(1): F(1, 4), NAT(2): F(1, 4)})
        examples = [core.LabeledExample(NAT(1), F(1, 8)), core.LabeledExample(NAT(2), F(1, 2))]
        reduced = helpers.loss_pattern_reduction(core.FiniteClass((h,)), examples, HALF)
        assert reduced.concepts == ("**",)

    def test_cantor_class_on_own_support_is_total(self):
        cls = core.CantorClass(HALF, 2, 5)
        examples = [core.LabeledExample(NAT(i), F(0)) for i in range(1, 6)]
        reduced = helpers.loss_pattern_reduction(cls, examples, HALF)
        assert all(pc.STAR not in c for c in reduced.concepts)

    def test_vc_dimension_bounded_by_graph_dimension(self):
        # The bound is attained: a set is gamma-graph shattered with witness w
        # exactly when it is VC shattered by the loss patterns on w's labels,
        # so the best witness labelling of the pool gives the graph dimension.
        # This cross-checks partial's layered search against dims' bitmask one.
        classes = [core.CantorClass(HALF, d, u) for d, u in ((2, 5), (2, 6), (3, 7))]
        classes.append(core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 9))
        for cls in classes:
            pool = cls.default_pool()
            best = max(
                pc.partial_vc_dimension(helpers.loss_pattern_reduction(
                    cls, [core.LabeledExample(x, w.value_at(x)) for x in pool], HALF
                ))
                for w in cls.hypotheses
            )
            assert best == dims.gamma_graph_dimension(cls, pool, HALF)


class TestRowFormat:
    def test_roundtrip(self):
        cls = pc.PartialClass(4, ("01*0", "1**1"))
        assert pc.read_rows(pc.write_rows(cls)) == cls

    def test_rejects_ragged_rows(self):
        from cutofflab.errors import ParseError

        with pytest.raises(ParseError):
            pc.read_rows("01*\n0101\n")

    def test_rejects_empty(self):
        from cutofflab.errors import ParseError

        with pytest.raises(ParseError):
            pc.read_rows("\n\n")
