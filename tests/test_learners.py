"""Interpolators, aggregation rules, partitioners, and composite learners."""

import random
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
            drawn = core.sample_iid(dist.law, 6, core.stream_seed(seed, 0))
            sample = helpers.examples_of(dist, drawn)
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
        st.lists(
            st.one_of(
                st.fractions(),
                st.builds(F, st.integers(-(2**70), 2**70), st.integers(2**64 + 1, 2**72)),
            ),
            min_size=1,
            max_size=4,
        ).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=9))
    )
    @settings(max_examples=200, deadline=None)
    def test_order_statistic_matches_sorted_definition_at_every_rank(self, values):
        # values drawn from a pool of at most four, so ties are common
        for rank in range(1, len(values) + 1):
            assert learners.OrderStatistic(rank).combine(values) == sorted(values)[rank - 1]

    @given(
        pool=st.lists(
            st.builds(
                core.CantorHypothesis,
                st.frozensets(st.integers(1, 4), max_size=3),
                # shared value objects, so equal values are often one object
                st.sampled_from([F(1, 2), F(3, 4), F(1)]),
            ),
            min_size=1,
            max_size=3,
        ),
        picks=st.lists(st.integers(0, 2), min_size=1, max_size=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_aggregate_is_the_pointwise_rule(self, pool, picks):
        # a pool of at most three objects over up to five inputs, so one
        # object often fills enough inputs to decide a rank rule, and often not
        hs = [pool[p % len(pool)] for p in picks]
        m = len(hs)
        rules = [learners.Mean(), *map(learners.OrderStatistic, range(1, m + 1))]
        if m % 2:
            rules.append(learners.Median())
        points = [NAT(i) for i in range(1, 6)] * 2  # each point twice, to hit the memo
        for rule in rules:
            got, want = learners.aggregate(rule, hs), helpers.reference_aggregate(rule, hs)
            assert [got(x) for x in points] == [want(x) for x in points]

    @pytest.mark.parametrize(
        ("rule", "picks", "winner"),
        [
            (learners.Median(), (0, 1, 1), 1),
            (learners.Median(), (0, 1, 0, 2, 0), 0),
            (learners.OrderStatistic(1), (1, 1, 1), 1),
            (learners.OrderStatistic(2), (0, 1, 1, 1), 1),
            (learners.Mean(), (2, 2), 2),
        ],
    )
    def test_a_hypothesis_that_decides_the_rule_is_the_predictor(self, rule, picks, winner):
        pool = [core.CantorHypothesis(frozenset({i}), F(3, 4)) for i in (1, 2, 3)]
        agg = learners.aggregate(rule, [pool[p] for p in picks])
        assert agg == pool[winner].value_at

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

    @pytest.mark.parametrize(("m", "size", "seed"), [
        (1, 0, 0), (1, 5, 0), (3, 2, 17), (4, 7, 5), (2, 3, -9), (5, 1, 2**64 + 3),
    ])
    def test_bootstrap_positions_are_randrange_on_each_block_stream(self, m, size, seed):
        # block j draws its positions from stream j of the partitioner's seed
        for n in range(65):
            expected = []
            for j in range(m):
                rng = random.Random(core.stream_seed(seed, j))
                expected.append(tuple(rng.randrange(n) for _ in range(size)) if n else ())
            assert learners.Bootstrap(m, size, seed).split(tuple(range(n))) == expected

    @given(
        partitioner=st.one_of(
            st.builds(learners.DisjointBlocks, st.integers(1, 4)),
            st.builds(learners.OverlappingWindows, st.integers(1, 4), st.integers(1, 12)),
            st.builds(
                learners.Bootstrap, st.integers(1, 4), st.integers(0, 12), st.integers(0, 2**32)
            ),
        ),
        sample=st.lists(st.integers(0, 5), max_size=9).map(tuple),
    )
    @settings(max_examples=200, deadline=None)
    def test_split_picks_positions_from_the_length_alone(self, partitioner, sample):
        # widths and bootstrap sizes reach past the sample's length
        positions = partitioner.split(tuple(range(len(sample))))
        assert partitioner.split(sample) == [tuple(sample[p] for p in b) for b in positions]

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

    def draw(self, n, seed, stream=0):
        return core.sample_iid(self.dist.law, n, core.stream_seed(seed, stream))

    def examples(self, sample):
        return helpers.examples_of(self.dist, sample)

    def test_single_block_equals_single_interpolator(self):
        sample = self.draw(4, 3)
        direct = self.interp(self.examples(sample))
        agg = learners.InterpolatorAggregation(
            self.interp, learners.DisjointBlocks(1), learners.Median()
        ).predictor((sample,), learners.FitTable(self.dist))
        for i in range(1, 7):
            assert agg(NAT(i)) == direct.value_at(NAT(i))

    def test_three_blocks_median_is_a_median_of_three(self):
        sample = self.draw(6, 4)
        blocks = learners.DisjointBlocks(3).split(self.examples(sample))
        hs = [self.interp(b) for b in blocks]
        agg = learners.InterpolatorAggregation(
            self.interp, learners.DisjointBlocks(3), learners.Median()
        ).predictor((sample,), learners.FitTable(self.dist))
        for i in range(1, 7):
            assert agg(NAT(i)) == sorted(h.value_at(NAT(i)) for h in hs)[1]

    def test_median_of_three_same_stream_collapses(self):
        sample = self.draw(5, 9, stream=2)
        med = learners.MedianOfThree(self.interp).predictor(
            (sample, sample, sample), learners.FitTable(self.dist)
        )
        single = self.interp(self.examples(sample))
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

        # whatever the interpolator reads, each distinct seen set is fitted
        # once, on its examples in ascending atom order: the recording sees
        # no repeat and no draw order
        samples = tuple(self.draw(5, 6, stream=j) for j in (1, 2, 3))
        for learner in (
            learners.SingleInterpolator(recording),
            learners.MedianOfThree(recording),
            learners.InterpolatorAggregation(recording, partitioner, learners.Mean()),
        ):
            calls.clear()
            arity_samples = samples[: learner.sample_arity]
            learner.predictor(arity_samples, learners.FitTable(self.dist))
            keys = dict.fromkeys(map(frozenset, learner.seen_blocks(arity_samples)))
            assert calls == [self.examples(sorted(key)) for key in keys]

        # one draw over m = 3 blocks: the disjoint blocks are the draw and
        # two empty blocks, so the empty seen set, though it decides the
        # median, is fitted like any other; every window is the whole
        # sample, and the three bootstrap blocks draw the one index twice;
        # each seen set is fitted once, in block order, and the predictor is
        # the rule over a fit per block
        sample = self.draw(1, 6, stream=1)
        learner = learners.InterpolatorAggregation(recording, partitioner, learners.Median())
        blocks = learner.seen_blocks((sample,))
        keys = list(dict.fromkeys(map(frozenset, blocks)))
        expected = {
            learners.DisjointBlocks: [frozenset(sample), frozenset()],
            learners.OverlappingWindows: [frozenset(sample)],
            learners.Bootstrap: [frozenset(sample)],
        }
        assert keys == expected[type(partitioner)]
        calls.clear()
        predictor = learner.predictor((sample,), learners.FitTable(self.dist))
        assert calls == [self.examples(sorted(key)) for key in keys]
        hs = [self.interp(self.examples(b)) for b in blocks]
        per_block = helpers.reference_aggregate(learner.rule, hs)
        for i in range(1, 7):
            assert predictor(NAT(i)) == per_block(NAT(i))

    @given(
        m=st.sampled_from([1, 3, 5]),
        pick=st.integers(0, 6),
        # None for disjoint blocks, else the window width
        width=st.one_of(st.none(), st.integers(1, 7)),
        ns=st.lists(st.integers(0, 6), min_size=5, max_size=5),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=150, deadline=None)
    def test_predictor_fits_each_block_key_once_per_table(self, m, pick, width, ns, seed):
        # n from 0 to m + 1 over m disjoint blocks, so empty blocks often
        # repeat and often decide the rule; windows at least as wide as the
        # sample are all the one sample
        rules = [learners.Median(), learners.Mean(), *map(learners.OrderStatistic, range(1, m + 1))]
        rule = rules[pick % len(rules)]
        partitioner = learners.DisjointBlocks(m) if width is None else learners.OverlappingWindows(m, width)
        calls = []

        def recording(sample):
            calls.append(sample)
            return self.interp(sample)

        learner = learners.InterpolatorAggregation(recording, partitioner, rule)
        shared = learners.FitTable(self.dist)
        fitted = set()
        for j, n in enumerate(n % (m + 2) for n in ns):
            sample = self.draw(n, seed, stream=j)
            blocks = learner.seen_blocks((sample,))
            keys = list(dict.fromkeys(map(frozenset, blocks)))
            # a new table fits every seen set, the empty one included: the
            # learner keeps no fit of its own
            calls.clear()
            predictor = learner.predictor((sample,), learners.FitTable(self.dist))
            assert calls == [self.examples(sorted(key)) for key in keys]
            # a table kept across calls fits only the seen sets it lacks
            calls.clear()
            kept = learner.predictor((sample,), shared)
            assert calls == [self.examples(sorted(key)) for key in keys if key not in fitted]
            fitted.update(keys)
            hs = [self.interp(self.examples(b)) for b in blocks]
            per_block = helpers.reference_aggregate(rule, hs)
            for i in range(1, 7):
                assert predictor(NAT(i)) == kept(NAT(i)) == per_block(NAT(i))

    @pytest.mark.parametrize("refuses", [len, lambda sample: not sample], ids=["nonempty", "empty"])
    @pytest.mark.parametrize("n", range(4))
    def test_a_block_that_raises_raises_whatever_the_other_blocks_are(self, refuses, n):
        def refusing(sample):
            if refuses(sample):
                raise NotRealizableError("refused")
            return self.interp(sample)

        # n draws over three disjoint blocks: at n = 1 the two empty blocks
        # decide the median, yet a refused draw still raises, as does a
        # refused empty block beside the draw
        learner = learners.InterpolatorAggregation(refusing, learners.DisjointBlocks(3), learners.Median())
        sample = self.draw(n, 6, stream=1)
        blocks = learner.seen_blocks((sample,))
        if any(refuses(block) for block in blocks):
            with pytest.raises(NotRealizableError, match="refused"):
                learner.predictor((sample,), learners.FitTable(self.dist))
        else:
            predictor = learner.predictor((sample,), learners.FitTable(self.dist))
            per_block = helpers.reference_aggregate(
                learner.rule, [self.interp(self.examples(b)) for b in blocks])
            for i in range(1, 7):
                assert predictor(NAT(i)) == per_block(NAT(i))

    def test_two_of_three_correct_wins(self):
        h_good = self.witness
        h_bad = self.cls.hypothesis({1, 2})
        med = learners.aggregate(learners.Median(), [h_good, h_good, h_bad])
        for atom in self.dist.atoms:
            assert abs(med(atom.point) - atom.label) <= HALF

    def test_median_of_three_errs_only_when_two_err(self):
        for seed in range(10):
            samples = [self.examples(self.draw(3, seed, s)) for s in (1, 2, 3)]
            hs = [self.interp(s) for s in samples]
            med = learners.aggregate(learners.Median(), hs)
            for atom in self.dist.atoms:
                errs = sum(
                    1 for h in hs if abs(h.value_at(atom.point) - atom.label) > HALF
                )
                med_err = abs(med(atom.point) - atom.label) > HALF
                if med_err:
                    assert errs >= 2


def _labelled_by(witness, points):
    """The uniform distribution on `points`, each labelled by the witness."""
    return core.FiniteDistribution.from_triples(
        [(p, witness.value_at(p), F(1, len(points))) for p in points], witness)


def _interpolator_cases():
    """Every interpolator in `learners`, bound to a class or certificate,
    with a distribution that class realizes: nonzero labels as well as
    zeros, so the fit is pinned by a value as often as filled."""
    cantor = core.CantorClass(HALF, 3, 7)
    sqrt = core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 9)
    complement = core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 3, 6)
    points = [NAT(i) for i in range(1, 6)]
    tables = [helpers.table_hypothesis(dict(zip(points, values)), 1)
              for values in ([0, 0, 1, 1, 0], [0, 1, 0, 1, 0], [0, 0, 1, 0, 0], [1, 0, 1, 1, 0])]
    finite = core.FiniteClass(tuple(tables))
    thm1, cert = adversaries.thm1_instance(core.CantorClass(HALF, 3, 7), HALF, F(1, 32))
    return {
        "cantor": (bind(learners.generic_interpolator, cantor),
                   _labelled_by(cantor.hypothesis({2, 4, 6}), [NAT(i) for i in range(1, 8)])),
        "sqrt_size": (bind(learners.generic_interpolator, sqrt), _labelled_by(
            sqrt.hypothesis(4, {1, 3}), [PAIR(k, x) for k in (4, 9) for x in range(1, 5)])),
        "complement": (bind(learners.generic_interpolator, complement), _labelled_by(
            complement.hypothesis(6, {2, 5}), [PAIR(k, x) for k in (5, 6) for x in range(1, 6)])),
        "finite": (bind(learners.generic_interpolator, finite), _labelled_by(tables[2], points)),
        "thm1": (bind(learners.adversarial_interpolator, cert), thm1.distribution),
    }


_INTERPOLATOR_CASES = _interpolator_cases()


@given(case=st.sampled_from(sorted(_INTERPOLATOR_CASES)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_an_interpolator_reads_only_the_seen_set(case, data):
    # every block is fitted on its seen set in atom order, so each
    # interpolator must give the fit of any draw order and repetition there
    interp, dist = _INTERPOLATOR_CASES[case]
    drawn = data.draw(st.lists(st.integers(0, len(dist.atoms) - 1), max_size=10))
    seen = helpers.examples_of(dist, sorted(set(drawn)))
    assert interp(helpers.examples_of(dist, drawn)) == interp(seen)


def _drawn_once(pairs):
    """The sample that draws each example of (point, label) pairs once, in
    order, and a fit table of their uniform distribution."""
    dist = core.FiniteDistribution.from_triples([(p, y, F(1, len(pairs))) for p, y in pairs])
    return tuple(range(len(pairs))), learners.FitTable(dist)


class TestProperErm:
    def test_realizable_gives_consistent(self):
        cls = core.CantorClass(HALF, 2, 5)
        sample, table = _drawn_once([(NAT(3), 0)])
        h = learners.ProperERM(cls).predictor((sample,), table)
        assert all(h(ex.point) == ex.label for ex in table.atoms)

    def test_thm5_class_avoids_observed_points(self):
        fam = adversaries.thm5_family(HALF, 4, F(1, 256))
        sample, table = _drawn_once([(PAIR(64, 10), 0), (PAIR(64, 20), 0), (PAIR(64, 30), 0)])
        h = learners.ProperERM(fam.cls).predictor((sample,), table)
        # colex-first member set of block 64 avoiding the observations
        nonzero = [x for x in range(1, 65) if h(PAIR(64, x)) != 0]
        assert nonzero == [1, 2, 3]

    def test_empty_class_rejected(self):
        _, table = _drawn_once([(NAT(1), 0)])
        with pytest.raises(NotRealizableError):
            learners.ProperERM(core.FiniteClass(())).predictor(((),), table)
