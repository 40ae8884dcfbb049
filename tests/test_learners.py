"""Interpolators, aggregation rules, partitioners, and composite learners."""

from fractions import Fraction as F
from functools import partial as bind

import pytest
from hypothesis import given, settings, strategies as st

from cutofflab import adversaries, core, dims, learners
from cutofflab.errors import BudgetExceededError, NotRealizableError, PreconditionError

import helpers

NAT = core.Point.nat
PAIR = core.Point.pair
HALF = F(1, 2)


class TestGenericInterpolator:
    def test_empty_sample_returns_first_in_enumeration(self):
        cls = core.CantorClass(HALF, 2, 4)
        h = learners.generic_interpolator(cls, ())
        assert sorted(h.members) == [1, 2]

    def test_unique_consistent_hypothesis(self):
        cls = core.CantorClass(HALF, 2, 4)
        target = cls.hypothesis({2, 4})
        sample = helpers.training_sequence(
            [(NAT(2), 0), (NAT(4), 0), (NAT(1), target.value)]
        )
        assert learners.generic_interpolator(cls, sample) == target

    def test_smallest_colex_superset(self):
        cls = core.CantorClass(HALF, 2, 4)
        sample = helpers.training_sequence([(NAT(1), 0)])
        h = learners.generic_interpolator(cls, sample)
        assert sorted(h.members) == [1, 2]

    def test_not_realizable_raises(self):
        cls = core.CantorClass(HALF, 2, 4)
        sample = helpers.training_sequence([(NAT(1), 0), (NAT(2), 0), (NAT(3), 0)])
        with pytest.raises(NotRealizableError):
            learners.generic_interpolator(cls, sample)

    def test_interpolation_invariant(self):
        cls = core.CantorClass(HALF, 3, 7)
        dist = core.FiniteDistribution.from_triples(
            [(NAT(5), 0, F(1, 2)), (NAT(6), 0, F(1, 4)), (NAT(7), 0, F(1, 4))],
            witness=cls.hypothesis({5, 6, 7}),
        )
        for seed in range(5):
            sample = core.sample_iid(dist, 6, seed)
            h = learners.generic_interpolator(cls, sample)
            assert all(h.value_at(ex.point) == ex.label for ex in sample)


class TestAdversarialInterpolator:
    @pytest.fixture
    def cert(self):
        cls = core.CantorClass(HALF, 2, 5)
        return dims.find_shattered_set(cls, cls.default_pool(), HALF, 2)

    def test_full_sample_returns_witness(self, cert):
        sample = tuple(
            core.LabeledExample(x, cert.witness.value_at(x)) for x in cert.points
        )
        assert learners.adversarial_interpolator(cert, sample) == cert.witness

    def test_empty_sample_far_everywhere(self, cert):
        h = learners.adversarial_interpolator(cert, ())
        for x in cert.points:
            assert abs(h.value_at(x) - cert.witness.value_at(x)) > HALF

    def test_missing_point_far_exactly_there(self, cert):
        x_seen, x_missing = cert.points
        sample = (core.LabeledExample(x_seen, cert.witness.value_at(x_seen)),)
        h = learners.adversarial_interpolator(cert, sample)
        assert h.value_at(x_seen) == cert.witness.value_at(x_seen)
        assert abs(h.value_at(x_missing) - cert.witness.value_at(x_missing)) > HALF

    def test_foreign_point_rejected(self, cert):
        sample = (core.LabeledExample(NAT(99), F(0)),)
        with pytest.raises(PreconditionError):
            learners.adversarial_interpolator(cert, sample)

    def test_wrong_label_rejected(self, cert):
        x = cert.points[0]
        sample = (core.LabeledExample(x, cert.witness.value_at(x) + F(1, 8)),)
        with pytest.raises(PreconditionError):
            learners.adversarial_interpolator(cert, sample)


class TestAggregationRules:
    def test_median_of_three_values(self):
        hs = [
            helpers.table_hypothesis({NAT(1): F(v)})
            for v in (F(1, 5), F(1, 2), F(9, 10))
        ]
        agg = learners.aggregate(learners.Median(), hs)
        assert agg(NAT(1)) == F(1, 2)

    def test_mean_inside_unit_interval(self):
        hs = [helpers.table_hypothesis({NAT(1): F(v)}) for v in (0, 1)]
        agg = learners.aggregate(learners.Mean(), hs)
        assert agg(NAT(1)) == F(1, 2)

    def test_order_statistic_one_is_minimum(self):
        hs = [helpers.table_hypothesis({NAT(1): F(v)}) for v in (F(2, 3), F(1, 3))]
        agg = learners.aggregate(learners.OrderStatistic(1), hs)
        assert agg(NAT(1)) == F(1, 3)

    def test_median_even_arity_rejected(self):
        hs = [helpers.table_hypothesis({NAT(1): F(0)})] * 2
        with pytest.raises(PreconditionError):
            learners.aggregate(learners.Median(), hs)

    @pytest.mark.parametrize(
        ("partitioner", "rule", "message"),
        [
            (learners.DisjointBlocks(2), learners.Median(), "odd number of hypotheses"),
            (learners.OverlappingWindows(4, 2), learners.Median(), "odd number of hypotheses"),
            (learners.Bootstrap(2, 3), learners.Median(), "odd number of hypotheses"),
            (learners.DisjointBlocks(3), learners.OrderStatistic(4), "order statistic 4 out of range"),
            (learners.DisjointBlocks(3), learners.OrderStatistic(0), "order statistic 0 out of range"),
        ],
    )
    def test_rule_the_blocks_cannot_feed_is_refused_when_built(self, partitioner, rule, message):
        interp = bind(learners.generic_interpolator, core.CantorClass(HALF, 2, 4))
        with pytest.raises(PreconditionError, match=message):
            learners.InterpolatorAggregation(interp, partitioner, rule)

    @given(
        st.lists(
            st.one_of(
                st.fractions(),
                st.builds(F, st.integers(-(2**70), 2**70), st.integers(2**64 + 1, 2**72)),
            ),
            min_size=1,
            max_size=4,
        ).flatmap(
            lambda pool: st.integers(min_value=0, max_value=4).flatmap(
                lambda k: st.lists(st.sampled_from(pool), min_size=2 * k + 1, max_size=2 * k + 1)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_median_matches_sorted_definition(self, values):
        # values drawn from a pool of at most four, so ties are common
        assert learners.Median().combine(values) == sorted(values)[len(values) // 2]

    @given(
        st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=7),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_properness_and_range(self, values, rank_pick):
        hs = [helpers.table_hypothesis({NAT(1): v}) for v in values]
        rank = rank_pick % len(values) + 1
        out = learners.aggregate(learners.OrderStatistic(rank), hs)(NAT(1))
        assert out in set(values)
        if len(values) % 2 == 1:
            out = learners.aggregate(learners.Median(), hs)(NAT(1))
            assert out in set(values)
        mean_out = learners.aggregate(learners.Mean(), hs)(NAT(1))
        assert min(values) <= mean_out <= max(values)


class TestPartitioners:
    def test_disjoint_blocks_cover_and_pad_early(self):
        sample = helpers.training_sequence([(NAT(i), 0) for i in range(1, 8)])
        blocks = learners.DisjointBlocks(3).split(sample)
        assert [len(b) for b in blocks] == [3, 2, 2]
        assert tuple(ex for b in blocks for ex in b) == sample

    def test_disjoint_blocks_allow_empty(self):
        sample = helpers.training_sequence([(NAT(1), 0)])
        blocks = learners.DisjointBlocks(3).split(sample)
        assert [len(b) for b in blocks] == [1, 0, 0]

    def test_overlapping_windows_stay_inside_sample(self):
        sample = helpers.training_sequence([(NAT(i), 0) for i in range(1, 10)])
        blocks = learners.OverlappingWindows(4, 3).split(sample)
        assert len(blocks) == 4
        for block in blocks:
            assert len(block) == 3
            for ex in block:
                assert ex in sample

    def test_bootstrap_is_seeded_and_from_sample(self):
        sample = helpers.training_sequence([(NAT(i), 0) for i in range(1, 6)])
        part = learners.Bootstrap(2, 4, seed=5)
        a = part.split(sample)
        b = part.split(sample)
        assert a == b
        for block in a:
            assert len(block) == 4
            for ex in block:
                assert ex in sample

    @pytest.mark.parametrize(
        "build",
        [
            lambda: learners.DisjointBlocks(0),
            lambda: learners.OverlappingWindows(0, 3),
            lambda: learners.OverlappingWindows(3, 0),
            lambda: learners.Bootstrap(0, 2),
            lambda: learners.Bootstrap(2, -1),
        ],
        ids=["disjoint-m-0", "windows-m-0", "windows-width-0", "bootstrap-m-0",
             "bootstrap-size-negative"],
    )
    def test_bad_fields_are_refused_when_built(self, build):
        with pytest.raises(PreconditionError):
            build()

    @pytest.mark.parametrize(
        ("build", "what", "size"),
        [
            (lambda: learners.DisjointBlocks(11), "partition", 11),
            (lambda: learners.OverlappingWindows(11, 1), "partition", 11),
            (lambda: learners.Bootstrap(11, 0), "partition", 11),
            (lambda: learners.Bootstrap(3, 4), "bootstrap draws", 12),
        ],
        ids=["disjoint", "windows", "bootstrap-blocks", "bootstrap-draws"],
    )
    def test_blocks_past_the_budget_are_refused_when_built(self, monkeypatch, build, what, size):
        monkeypatch.setenv("CUTOFFLAB_BUDGET", str(size))
        build()
        monkeypatch.setenv("CUTOFFLAB_BUDGET", str(size - 1))
        with pytest.raises(BudgetExceededError, match=f"{what} of size {size} exceeds"):
            build()


class TestComposites:
    def setup_method(self):
        self.cls = core.CantorClass(HALF, 2, 6)
        self.witness = self.cls.hypothesis({5, 6})
        self.dist = core.FiniteDistribution.from_triples(
            [(NAT(5), 0, F(3, 4)), (NAT(6), 0, F(1, 4))], witness=self.witness
        )
        self.interp = bind(learners.generic_interpolator, self.cls)

    def test_single_block_equals_single_interpolator(self):
        sample = core.sample_iid(self.dist, 4, 3)
        direct = self.interp(sample)
        agg = learners.InterpolatorAggregation(
            self.interp, learners.DisjointBlocks(1), learners.Median()
        ).predictor((sample,))
        for i in range(1, 7):
            assert agg(NAT(i)) == direct.value_at(NAT(i))

    def test_three_blocks_median_is_a_median_of_three(self):
        sample = core.sample_iid(self.dist, 6, 4)
        blocks = learners.DisjointBlocks(3).split(sample)
        hs = [self.interp(b) for b in blocks]
        agg = learners.InterpolatorAggregation(
            self.interp, learners.DisjointBlocks(3), learners.Median()
        ).predictor((sample,))
        for i in range(1, 7):
            assert agg(NAT(i)) == sorted(h.value_at(NAT(i)) for h in hs)[1]

    def test_median_of_three_same_stream_collapses(self):
        sample = core.sample_iid(self.dist, 5, 9, stream=2)
        med = learners.MedianOfThree(self.interp).predictor((sample, sample, sample))
        single = self.interp(sample)
        for i in range(1, 7):
            assert med(NAT(i)) == single.value_at(NAT(i))

    @pytest.mark.parametrize(
        "partitioner",
        [learners.DisjointBlocks(3), learners.OverlappingWindows(3, 2), learners.Bootstrap(3, 2, 17)],
        ids=["disjoint", "windows", "bootstrap"],
    )
    def test_predictor_fits_exactly_its_seen_blocks(self, partitioner):
        calls = []

        def recording(sample):
            calls.append(sample)
            return self.interp(sample)

        samples = tuple(core.sample_iid(self.dist, 5, 6, stream=j) for j in (1, 2, 3))
        for learner in (
            learners.SingleInterpolator(recording),
            learners.MedianOfThree(recording),
            learners.InterpolatorAggregation(recording, partitioner, learners.Mean()),
        ):
            calls.clear()
            arity_samples = samples[: learner.sample_arity]
            learner.predictor(arity_samples)
            assert calls == list(learner.seen_blocks(arity_samples))

    def test_two_of_three_correct_wins(self):
        h_good = self.witness
        h_bad = self.cls.hypothesis({1, 2})
        med = learners.aggregate(learners.Median(), [h_good, h_good, h_bad])
        for atom in self.dist.atoms:
            assert abs(med(atom.point) - atom.label) <= HALF

    def test_median_of_three_errs_only_when_two_err(self):
        for seed in range(10):
            samples = [core.sample_iid(self.dist, 3, seed, s) for s in (1, 2, 3)]
            hs = [self.interp(s) for s in samples]
            med = learners.aggregate(learners.Median(), hs)
            for atom in self.dist.atoms:
                errs = sum(
                    1 for h in hs if abs(h.value_at(atom.point) - atom.label) > HALF
                )
                med_err = abs(med(atom.point) - atom.label) > HALF
                if med_err:
                    assert errs >= 2


class TestProperErm:
    def test_realizable_gives_consistent(self):
        cls = core.CantorClass(HALF, 2, 5)
        sample = helpers.training_sequence([(NAT(3), 0)])
        h = learners.ProperERM(cls).predictor((sample,))
        assert all(h(ex.point) == ex.label for ex in sample)

    def test_thm5_class_avoids_observed_points(self):
        fam = adversaries.thm5_family(HALF, 4, F(1, 256))
        sample = helpers.training_sequence(
            [(PAIR(64, 10), 0), (PAIR(64, 20), 0), (PAIR(64, 30), 0)]
        )
        h = learners.ProperERM(fam.cls).predictor((sample,))
        # colex-first member set of block 64 avoiding the observations
        nonzero = [x for x in range(1, 65) if h(PAIR(64, x)) != 0]
        assert nonzero == [1, 2, 3]

    def test_empty_class_rejected(self):
        with pytest.raises(NotRealizableError):
            learners.ProperERM(core.FiniteClass(())).predictor(((),))
