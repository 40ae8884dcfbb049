"""Exact oracles, Monte Carlo estimation, scaling fits, envelope checks."""

import collections
import dataclasses
import itertools
import math
from fractions import Fraction as F
from functools import partial as bind

import pytest
from hypothesis import given, settings, strategies as st

from cutofflab import adversaries, core, learners, mc
from cutofflab.errors import BudgetExceededError, PreconditionError

import helpers

NAT = core.Point.nat
HALF = F(1, 2)


def fixed_instance(gamma=HALF):
    cls = core.CantorClass(gamma, 2, 6)
    witness = cls.hypothesis({5, 6})
    dist = core.FiniteDistribution.from_triples(
        [(NAT(5), 0, F(3, 4)), (NAT(6), 0, F(1, 4))], witness=witness
    )
    return adversaries.HardInstance(
        theorem="test", cls=cls, distribution=dist, witness=witness,
        gamma=gamma, epsilon=None, d=2, universe=6, n_max=None,
    )


class ConstantLearner:
    """Learner ignoring its samples; used for degenerate oracles."""

    sample_arity = 1

    def __init__(self, value):
        self.value = F(value)

    def predictor(self, samples, table):
        return lambda x: self.value


class WitnessLearner:
    sample_arity = 1

    def __init__(self, witness):
        self.witness = witness

    def predictor(self, samples, table):
        return self.witness.value_at


def reference_expected_loss(learner, instance, n):
    pairs = helpers.reference_loss_distribution(learner, instance, n)
    return sum((w * l for w, l in pairs), core.ZERO)


def _no_fit(*args):
    raise AssertionError("the oracle scored a fit")


class TestExactOracle:
    def test_witness_learner_zero(self):
        inst = fixed_instance()
        assert reference_expected_loss(WitnessLearner(inst.witness), inst, 3) == 0

    def test_constant_far_predictor_one(self):
        inst = fixed_instance()
        assert reference_expected_loss(ConstantLearner(1), inst, 2) == 1

    def test_learner_without_a_seen_set_interpolator_is_refused(self, monkeypatch):
        inst = fixed_instance()
        monkeypatch.setattr(core, "cutoff_loss", _no_fit)
        for learner in (WitnessLearner(inst.witness), ConstantLearner(1)):
            for oracle in (
                mc.exact_loss_distribution,
                mc.exact_expected_loss,
                bind(mc.exact_exceed_probability, threshold=core.ZERO),
            ):
                with pytest.raises(PreconditionError, match="only an InterpolatorAggregation"):
                    oracle(learner, inst, 2)

    def test_thm1_reference_value(self):
        # hand-checkable: single block, min rule; sequences (5,5),(5,6),(6,5),(6,6)
        cls = core.CantorClass(HALF, 2, 5)
        inst, cert = adversaries.thm1_instance(cls, HALF, F(1, 32))
        adversary = bind(learners.adversarial_interpolator, cert)
        learner = learners.InterpolatorAggregation(
            adversary, learners.DisjointBlocks(1), learners.Median()
        )
        value = mc.exact_expected_loss(learner, inst, 2)
        # missing light point w.p. (7/8)^2 costs 1/8; missing heavy w.p.
        # (1/8)^2 costs 7/8; mixed sequences interpolate everything
        assert value == F(49, 64) * F(1, 8) + F(1, 64) * F(7, 8)

    def test_budget_refusal(self):
        inst = fixed_instance()
        with pytest.raises(BudgetExceededError):
            mc.exact_expected_loss(ConstantLearner(0), inst, 30)

    def test_median_learner_enumerates_triple_product(self):
        inst = fixed_instance()
        interp = bind(learners.generic_interpolator, inst.cls)
        value = mc.exact_expected_loss(learners.MedianOfThree(interp), inst, 1)
        # with n=1 each fit errs exactly on the atom it did not see, so the
        # median errs at an atom iff at least two samples drew the other one
        def at_least_two(p):
            return 3 * p**2 * (1 - p) + p**3

        expected = F(3, 4) * at_least_two(F(1, 4)) + F(1, 4) * at_least_two(F(3, 4))
        assert value == expected == F(21, 64)


def _thm1_oracle_cases():
    """thm1's three aggregations at epsilon = 1/128 (n = 8)."""
    epsilon = F(1, 128)
    inst, cert = adversaries.thm1_instance(core.CantorClass(HALF, 2, 5), HALF, epsilon)
    adversary = bind(learners.adversarial_interpolator, cert)
    rules = {
        "min": learners.OrderStatistic(1),
        "max": learners.OrderStatistic(3),
        "median3": learners.Median(),
    }
    return [
        pytest.param(
            learners.InterpolatorAggregation(adversary, learners.DisjointBlocks(3), rule),
            inst,
            inst.n_max,
            id=f"thm1-{name}",
        )
        for name, rule in rules.items()
    ]


def _benchmark_oracle_cases():
    """The four exactly enumerable instances the benchmark's exact-dims
    workload scores."""
    nat = core.Point.nat
    cls6 = core.CantorClass(HALF, 2, 6)
    w6 = cls6.hypothesis({5, 6})
    dist6 = core.FiniteDistribution.from_triples([(nat(5), 0, F(3, 4)), (nat(6), 0, F(1, 4))], w6)
    inst6 = adversaries.HardInstance("cantor6", cls6, dist6, w6, HALF, None, 2, 6, None)
    generic6 = bind(learners.generic_interpolator, cls6)
    split = core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 2, 4)
    w_split = split.hypothesis(4, {4})
    dist_split = core.FiniteDistribution.from_triples(
        [(core.Point.pair(4, i), 0, F(1, 3)) for i in (1, 2, 3)], w_split
    )
    inst_split = adversaries.HardInstance("split4", split, dist_split, w_split, HALF, None, 2, 4, None)
    bootstrap = learners.Bootstrap(3, 2, seed=17)
    return [
        pytest.param(learners.MedianOfThree(generic6), inst6, 3, id="median3"),
        pytest.param(
            learners.InterpolatorAggregation(generic6, learners.DisjointBlocks(2), learners.Mean()),
            inst6, 8, id="mean2",
        ),
        pytest.param(
            learners.InterpolatorAggregation(generic6, bootstrap, learners.OrderStatistic(1)),
            inst6, 8, id="bootstrap",
        ),
        pytest.param(learners.ProperERM(split), inst_split, 5, id="proper_erm"),
    ]


#: The exact mean of each case above, as the sequence oracle gave it when
#: each learner still had a class of its own, so a learner that fits
#: differently fails here.
_PINNED_MEANS = {
    "thm1-min": F(26652844921, 1099511627776),
    "thm1-max": F(35447424889, 1099511627776),
    "thm1-median3": F(16863496839, 549755813888),
    "median3": F(25293, 262144),
    "mean2": F(1641, 65536),
    "bootstrap": F(21, 256),
    "proper_erm": F(31, 243),
}


@pytest.mark.parametrize(("learner", "inst", "n"), _thm1_oracle_cases() + _benchmark_oracle_cases())
def test_exact_mean_is_pinned(request, learner, inst, n):
    expected = _PINNED_MEANS[request.node.callspec.id]
    assert mc.exact_expected_loss(learner, inst, n) == expected


@pytest.mark.parametrize(("learner", "inst", "n"), _thm1_oracle_cases() + _benchmark_oracle_cases())
def test_loss_sums_equal_the_plain_fraction_sums(learner, inst, n):
    pairs = mc.exact_loss_distribution(learner, inst, n)
    assert mc.exact_expected_loss(learner, inst, n) == sum((w * l for w, l in pairs), core.ZERO)
    thresholds = {core.ZERO, *(l for _, l in pairs), F(2, 128)}
    for threshold in thresholds:
        plain = sum((w for w, l in pairs if l > threshold), core.ZERO)
        assert mc.exact_exceed_probability(learner, inst, n, threshold) == plain


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(("learner", "inst", "n"), _thm1_oracle_cases() + _benchmark_oracle_cases())
def test_monte_carlo_mean_lies_within_four_exact_sigmas(learner, inst, n, seed):
    # sigma is the exact law's, not the sample's: thm1's max rule can draw
    # one loss in all 400 trials, a sample stderr of 0, off the exact mean
    trials = 400
    masses = mc._mass_by_loss(mc.exact_loss_distribution(learner, inst, n))
    mean, variance = _moments(masses)
    estimate = mc.mc_expected_loss(learner, inst, n, trials, seed)
    assert abs(estimate.mean - float(mean)) <= 4 * math.sqrt(variance) / math.sqrt(trials)
    _assert_exceed_shares_are_binomial(estimate, masses)


def _moments(masses) -> tuple[F, F]:
    """The exact mean and variance of a {loss: probability} law."""
    mean = sum((mass * loss for loss, mass in masses.items()), core.ZERO)
    variance = sum((mass * (loss - mean) ** 2 for loss, mass in masses.items()), core.ZERO)
    return mean, variance


def _assert_exceed_shares_are_binomial(estimate, masses):
    """At every loss l of the law, the share of trials that lose more than
    l lies within four binomial sigmas of the exact p = P(loss > l): it
    equals p when p is 0 or 1."""
    for level in masses:
        p = sum((mass for loss, mass in masses.items() if loss > level), core.ZERO)
        share = estimate.exceed_fraction(level)
        assert abs(share - p) <= 4 * math.sqrt(p * (1 - p) / estimate.trials)


def test_mass_by_loss_reads_a_stream_of_new_objects():
    # every pair is dropped once read, so an id not held could be reused
    pairs = ((F(1, 8), F(k % 3, 4)) for k in range(8))
    assert mc._mass_by_loss(pairs) == {F(0): F(3, 8), F(1, 4): F(3, 8), F(1, 2): F(1, 4)}


def zero_mass_instance():
    """Three atoms, the middle one of mass zero, labelled by the witness."""
    inst = fixed_instance()
    w = inst.witness
    dist = core.FiniteDistribution.from_triples(
        [(NAT(5), 0, F(1, 2)), (NAT(3), w.value_at(NAT(3)), F(0)), (NAT(6), 0, F(1, 2))],
        witness=w,
    )
    return adversaries.HardInstance(
        theorem="test", cls=inst.cls, distribution=dist, witness=w,
        gamma=HALF, epsilon=None, d=2, universe=6, n_max=None,
    )


def thm1_setup(epsilon=F(1, 128)):
    cls = core.CantorClass(HALF, 2, 5)
    inst, cert = adversaries.thm1_instance(cls, HALF, epsilon)
    return inst, bind(learners.adversarial_interpolator, cert)


def _oracle_cases():
    for make, label in ((fixed_instance, "fixed"), (zero_mass_instance, "zero_mass")):
        inst = make()
        interp = bind(learners.generic_interpolator, inst.cls)

        def aggregation(partitioner, rule):
            return learners.InterpolatorAggregation(interp, partitioner, rule)

        for name, learner, n in (
            ("single", learners.SingleInterpolator(interp), 4),
            ("median3", learners.MedianOfThree(interp), 2),
            ("disjoint_median", aggregation(learners.DisjointBlocks(3), learners.Median()), 5),
            ("windows_mean", aggregation(learners.OverlappingWindows(3, 2), learners.Mean()), 4),
            ("bootstrap_min", aggregation(learners.Bootstrap(3, 2, 17), learners.OrderStatistic(1)),
             4),
            ("disjoint_max", aggregation(learners.DisjointBlocks(2), learners.OrderStatistic(2)),
             4),
            ("proper_erm", learners.ProperERM(inst.cls), 3),
        ):
            yield pytest.param(learner, inst, n, id=f"{label}-{name}")
    inst, adversary = thm1_setup()
    for name, rule in (
        ("min", learners.OrderStatistic(1)),
        ("max", learners.OrderStatistic(3)),
        ("median3", learners.Median()),
    ):
        learner = learners.InterpolatorAggregation(adversary, learners.DisjointBlocks(3), rule)
        yield pytest.param(learner, inst, inst.n_max, id=f"thm1-{name}")


class TestSeenSetSharing:
    """The oracle fits each distinct tuple of seen sets once, and its pairs
    equal the plain per-sequence enumeration's, in order."""

    @pytest.mark.parametrize(("learner", "instance", "n"), list(_oracle_cases()))
    def test_pairs_equal_the_plain_enumeration(self, learner, instance, n):
        reference = helpers.reference_loss_distribution(learner, instance, n)
        assert mc.exact_loss_distribution(learner, instance, n) == reference

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pairs_equal_the_plain_enumeration_on_random_instances(self, data):
        arity = data.draw(st.sampled_from((1, 3)), label="arity")
        n = data.draw(st.integers(0, 4), label="n")
        # at most 729 sequences: one atom at arity 3 past n = 3
        most = max(k for k in range(1, 5) if k ** (n * arity) <= 729)
        count = data.draw(st.integers(1, most), label="atoms")
        weights = data.draw(st.lists(st.integers(1, 4), min_size=count, max_size=count))
        if count > 1 and data.draw(st.booleans(), label="zero mass"):
            weights[data.draw(st.integers(0, count - 1))] = 0
        cls = core.CantorClass(HALF, 2, 6)
        witness = cls.hypothesis(set(data.draw(st.sampled_from(((5, 6), (1, 4), (2, 3))))))
        points = data.draw(st.lists(st.integers(1, 6), min_size=count, max_size=count, unique=True))
        dist = core.FiniteDistribution.from_triples(
            [(NAT(p), witness.value_at(NAT(p)), F(w, sum(weights))) for p, w in zip(points, weights)],
            witness=witness,
        )
        inst = adversaries.HardInstance(
            theorem="test", cls=cls, distribution=dist, witness=witness,
            gamma=HALF, epsilon=None, d=2, universe=6, n_max=None,
        )
        m = data.draw(st.integers(1, 3), label="m")
        partitioner = data.draw(st.sampled_from((
            learners.DisjointBlocks(m),
            learners.OverlappingWindows(m, data.draw(st.integers(1, 5), label="width")),
            learners.Bootstrap(m, data.draw(st.integers(0, 5), label="size"), 17),
        )))
        rank = data.draw(st.integers(1, m * arity), label="rank")
        rule = data.draw(st.sampled_from(
            (learners.Mean(), learners.OrderStatistic(rank))
            + ((learners.Median(),) if m * arity % 2 else ())
        ))
        learner = learners.InterpolatorAggregation(
            bind(learners.generic_interpolator, cls), partitioner, rule, arity
        )
        reference = helpers.reference_loss_distribution(learner, inst, n)
        assert mc.exact_loss_distribution(learner, inst, n) == reference

    @pytest.mark.parametrize(("arity", "n"), [(1, 2), (1, 8), (3, 1), (3, 2)])
    def test_blocks_are_split_once_per_call_and_per_fit(self, monkeypatch, arity, n):
        inst = fixed_instance()
        learner = learners.InterpolatorAggregation(
            bind(learners.generic_interpolator, inst.cls),
            learners.Bootstrap(3, 2, 17),
            learners.OrderStatistic(1),
            arity,
        )
        counts = collections.Counter()

        def counted(name, real):
            def wrapper(*args):
                counts[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(learners.Bootstrap, "split", counted("split", learners.Bootstrap.split))
        monkeypatch.setattr(
            learners.InterpolatorAggregation, "predictor",
            counted("predictor", learners.InterpolatorAggregation.predictor),
        )
        pairs = mc.exact_loss_distribution(learner, inst, n)
        assert len(pairs) == 2 ** (n * arity)
        assert counts["split"] == arity * (1 + counts["predictor"])

    @pytest.mark.parametrize(("learner", "instance", "n"), list(_oracle_cases()))
    def test_one_probability_object_per_weight(self, learner, instance, n):
        pairs = mc.exact_loss_distribution(learner, instance, n)
        assert len({id(w) for w, _ in pairs}) == len({w for w, _ in pairs})

    def test_zero_mass_atom_is_skipped(self):
        inst = zero_mass_instance()
        learner = learners.SingleInterpolator(bind(learners.generic_interpolator, inst.cls))
        pairs = mc.exact_loss_distribution(learner, inst, 3)
        assert len(pairs) == 2**3
        assert sum(w for w, _ in pairs) == 1

    def test_order_reading_interpolator_is_fitted_on_seen_sets(self):
        inst = fixed_instance()
        cls = inst.cls

        def first_only(sample):
            return cls.first_consistent(sample[:1])

        for interp in (first_only, bind(lambda c, s: c.first_consistent(s[:1]), cls)):
            learner = learners.InterpolatorAggregation(
                interp, learners.DisjointBlocks(1), learners.Median()
            )
            pairs = mc.exact_loss_distribution(learner, inst, 3)
            assert pairs == helpers.reference_loss_distribution(learner, inst, 3)
            # (5, 6, 6) and (6, 5, 5) share a seen set, fitted on (5, 6):
            # both read the first example 5, and share its loss
            assert (pairs[3][1], pairs[4][1]) == (F(1, 4), F(1, 4))

    def test_seen_blocks_gate(self):
        inst, adversary = thm1_setup()
        generic = bind(learners.generic_interpolator, inst.cls)
        samples = ((1, 0, 1, 1),)
        three = (samples[0], (0, 1, 1, 0), (1, 1, 0, 0))
        order_reader = learners.SingleInterpolator(inst.cls.first_consistent)
        # one block per sample, each the sample itself, not a copy
        for learner, whole in (
            (learners.SingleInterpolator(generic), samples),
            (learners.MedianOfThree(adversary), three),
            (learners.ProperERM(inst.cls), samples),
            (order_reader, samples),
        ):
            blocks = learner.seen_blocks(whole)
            assert blocks == list(whole)
            assert all(block is sample for block, sample in zip(blocks, whole))
        assert learners.InterpolatorAggregation(generic, learners.DisjointBlocks(3)).seen_blocks(
            samples
        ) == [(1, 0), (1,), (1,)]
        # the oracle takes every InterpolatorAggregation, whatever its
        # interpolator reads, and no other learner
        for learner in (
            learners.SingleInterpolator(generic),
            learners.MedianOfThree(adversary),
            learners.InterpolatorAggregation(generic, learners.DisjointBlocks(3)),
            learners.ProperERM(inst.cls),
            order_reader,
        ):
            assert mc.exact_loss_distribution(learner, inst, 1)
        with pytest.raises(PreconditionError, match="only an InterpolatorAggregation"):
            mc.exact_loss_distribution(ConstantLearner(0), inst, 1)

    def test_thm1_fits_each_seen_set_tuple_once(self, monkeypatch):
        inst, adversary = thm1_setup()
        assert inst.n_max == 8
        learner = learners.InterpolatorAggregation(
            adversary, learners.DisjointBlocks(3), learners.OrderStatistic(1)
        )
        calls = []
        real = core.cutoff_loss

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(core, "cutoff_loss", counting)
        pairs = mc.exact_loss_distribution(learner, inst, 8)
        # blocks of sizes 3, 3, 2 over two atoms: 3^3 tuples of seen sets
        assert len(pairs) == 256
        assert len(calls) <= 27

    def test_one_atom_draws_past_the_budget_refused_at_once(self):
        inst = fixed_instance()
        dist = core.FiniteDistribution.from_triples([(NAT(5), 0, F(1))], witness=inst.witness)
        one_atom = adversaries.HardInstance(
            theorem="test", cls=inst.cls, distribution=dist, witness=inst.witness,
            gamma=HALF, epsilon=None, d=2, universe=6, n_max=None,
        )
        learner = learners.SingleInterpolator(bind(learners.generic_interpolator, inst.cls))
        with pytest.raises(BudgetExceededError, match="draws per trial"):
            mc.exact_expected_loss(learner, one_atom, 10**9)

    def test_oracle_budget_is_its_exact_size(self, monkeypatch):
        # three samples of 2 over two atoms: 6 draws per trial, 2^6 sequences
        inst = fixed_instance()
        learner = learners.MedianOfThree(bind(learners.generic_interpolator, inst.cls))
        monkeypatch.setattr(core, "cutoff_loss", _no_fit)
        for budget, message in ((5, "draws per trial of size 6"), (63, "oracle sequences of size 64")):
            monkeypatch.setenv("CUTOFFLAB_BUDGET", str(budget))
            with pytest.raises(BudgetExceededError, match=f"{message} exceeds budget {budget}"):
                mc.exact_loss_distribution(learner, inst, 2)
        monkeypatch.undo()
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "64")
        pairs = mc.exact_loss_distribution(learner, inst, 2)
        assert len(pairs) == 64 and sum(w for w, _ in pairs) == 1


class TestMcEstimator:
    @pytest.mark.parametrize(
        ("build", "fits"),
        [
            (learners.MedianOfThree, 90),  # three samples, one block each
            (bind(learners.InterpolatorAggregation, partitioner=learners.DisjointBlocks(3)), 90),
            (lambda interp: ConstantLearner(0), 30),  # no partitioner: one block per sample
        ],
        ids=["median3", "disjoint3", "no-partitioner"],
    )
    def test_fits_per_run_are_trials_times_blocks(self, monkeypatch, build, fits):
        inst = fixed_instance()
        learner = build(bind(learners.generic_interpolator, inst.cls))
        monkeypatch.setenv("CUTOFFLAB_BUDGET", str(fits - 1))
        with pytest.raises(
            BudgetExceededError, match=f"blocks per run of size {fits} exceeds budget {fits - 1}"
        ):
            mc.mc_expected_loss(learner, inst, 2, 30, seed=1)
        monkeypatch.setenv("CUTOFFLAB_BUDGET", str(fits))
        assert mc.mc_expected_loss(learner, inst, 2, 30, seed=1).trials == 30

    def test_constant_loss_degenerate(self):
        inst = fixed_instance()
        est = mc.mc_expected_loss(ConstantLearner(1), inst, 2, 50, seed=1)
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.ci_lo == est.ci_hi == 1.0

    def test_agrees_with_exact_oracle(self):
        inst = fixed_instance()
        interp = bind(learners.generic_interpolator, inst.cls)
        for learner, n in (
            (learners.SingleInterpolator(interp), 2),
            (learners.MedianOfThree(interp), 1),
            (
                learners.InterpolatorAggregation(
                    interp, learners.DisjointBlocks(2), learners.Mean()
                ),
                3,
            ),
        ):
            exact = mc.exact_expected_loss(learner, inst, n)
            est = mc.mc_expected_loss(learner, inst, n, 400, seed=3)
            tol = max(3 * est.stderr, 1e-12)
            assert abs(est.mean - float(exact)) <= tol

    def test_reproducible_and_thread_independent(self):
        inst = fixed_instance()
        interp = bind(learners.generic_interpolator, inst.cls)
        learner = learners.SingleInterpolator(interp)
        a = mc.mc_expected_loss(learner, inst, 2, 60, seed=5)
        b = mc.mc_expected_loss(learner, inst, 2, 60, seed=5)
        assert a.losses == b.losses

    def test_family_redraws_support(self):
        fam = adversaries.thm2_family(HALF, 2, F(1, 64), 3)
        interp = bind(learners.generic_interpolator, fam.cls)
        learner = learners.InterpolatorAggregation(
            interp, learners.DisjointBlocks(3), learners.Median()
        )
        est = mc.mc_expected_loss(learner, fam, 1, 200, seed=9)
        # ensemble mixes losses 0 and 1/4, so the variance is positive
        assert est.stderr > 0
        assert set(est.losses) <= {F(0), F(1, 4)}

    def test_minimum_trials(self):
        inst = fixed_instance()
        with pytest.raises(PreconditionError):
            mc.mc_expected_loss(ConstantLearner(0), inst, 1, 10, seed=0)

    def test_ci_coverage_bernoulli(self):
        # synthetic Bernoulli(1/4) losses: 95% CI covers 1/4 in >= 90/100 seeds
        dist = core.FiniteDistribution.from_triples(
            [(NAT(1), 0, F(1, 4)), (NAT(2), 0, F(3, 4))]
        )
        witness = helpers.table_hypothesis({NAT(1): F(0), NAT(2): F(0)})
        inst = adversaries.HardInstance(
            theorem="bern", cls=None, distribution=dist, witness=witness,
            gamma=HALF, epsilon=None, d=None, universe=None, n_max=None,
        )

        class FirstPointLearner:
            # loss 1 exactly when the first draw hits the 1/4-mass atom
            sample_arity = 1

            def predictor(self, samples, table):
                bad = table.atoms[samples[0][0]].point == NAT(1)
                return lambda x: F(1) if bad else F(0)

        covered = 0
        for seed in range(100):
            est = mc.mc_expected_loss(FirstPointLearner(), inst, 1, 200, seed=seed)
            if est.ci_lo <= 0.25 <= est.ci_hi:
                covered += 1
        assert covered >= 90


def _with_generic(source):
    return source, bind(learners.generic_interpolator, source.cls)


def _thm4_instance():
    return _with_generic(adversaries.thm4_instance(core.CantorClass(HALF, 4, 12), 16))


#: (source, interpolator) builders: small fixed instances, and the thm2 and
#: thm5 families, whose trials each draw a new distribution
_SOURCES = {
    "fixed": lambda: _with_generic(fixed_instance()),
    "zero_mass": lambda: _with_generic(zero_mass_instance()),
    "thm1": thm1_setup,
    "thm4": _thm4_instance,
    "thm2": lambda: _with_generic(adversaries.thm2_family(HALF, 2, F(1, 64), 3)),
    "thm5": lambda: _with_generic(adversaries.thm5_family(HALF, 2, F(1, 256))),
}


def _record_fits(monkeypatch) -> list:
    """The seen set of every fit a Cantor class makes from now on, in order."""
    fitted = []
    real = core.CantorClass.first_consistent

    def counting(cls, sample):
        fitted.append(frozenset(sample))
        return real(cls, sample)

    monkeypatch.setattr(core.CantorClass, "first_consistent", counting)
    return fitted


@st.composite
def _mc_cases(draw):
    """A seen-set reading learner of arity 1 or 3 over every partitioner and
    rule, a source, a sample size and a seed."""
    arity = draw(st.sampled_from([1, 3]))
    n = draw(st.integers(0, 6))
    m = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["disjoint", "windows", "bootstrap"]))
    if kind == "disjoint":
        partitioner = learners.DisjointBlocks(m)
    elif kind == "windows":  # widths up to and past n
        partitioner = learners.OverlappingWindows(m, draw(st.integers(1, n + 2)))
    else:
        partitioner = learners.Bootstrap(m, draw(st.integers(0, 4)), draw(st.integers(0, 99)))
    inputs = m * arity
    rules = [learners.Mean(), *(learners.OrderStatistic(r) for r in range(1, inputs + 1))]
    if inputs % 2:
        rules.append(learners.Median())
    rule = draw(st.sampled_from(rules))
    source, interp = _SOURCES[draw(st.sampled_from(sorted(_SOURCES)))]()
    learner = learners.InterpolatorAggregation(interp, partitioner, rule, arity)
    return learner, source, n, draw(st.integers(0, 2**64 - 1))


def _reference_losses(learner, source, n, trials, seed):
    return tuple(helpers.reference_trial_loss(learner, source, n, seed, t) for t in range(trials))


def _record_tables(monkeypatch) -> list:
    """(samples, table) of every predictor call from now on, in order."""
    calls = []
    real = learners.InterpolatorAggregation.predictor

    def recording(self, samples, table):
        calls.append((samples, table))
        return real(self, samples, table)

    monkeypatch.setattr(learners.InterpolatorAggregation, "predictor", recording)
    return calls


def _record_distributions(monkeypatch) -> list:
    """(support, distribution) of every family distribution built from now
    on, in order."""
    built = []
    real = adversaries.InstanceFamily.distribution_for

    def recording(self, support):
        built.append((support, real(self, support)))
        return built[-1][1]

    monkeypatch.setattr(adversaries.InstanceFamily, "distribution_for", recording)
    return built


def _trial_pairs(learner, family, n, trials, seed) -> list:
    """The distinct (support, samples) of a family run, in order of first
    draw, drawn as `mc` draws them."""
    pairs = {}
    for t in range(trials):
        base = core.stream_seed(seed, t)
        support = family.draw_support(core.stream_seed(base, 0))
        samples = tuple(
            core.sample_iid(family.law, n, core.stream_seed(base, j))
            for j in range(1, learner.sample_arity + 1))
        pairs.setdefault((support, samples), None)
    return list(pairs)


def _record_memos(monkeypatch) -> list:
    """Every `core.BoundedTable` built from now on but a `FitTable`, whose
    base class is bound when it is defined: `mc`'s memo of family trials."""
    memos = []

    class Recorded(core.BoundedTable):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(core, "BoundedTable", Recorded)
    return memos


class TestFitTable:
    """Trials draw atom indices and fit through a table of one
    distribution's fits, and give the losses of blocks of examples fitted
    by the interpolator afresh, trial by trial."""

    @settings(max_examples=200, deadline=None)
    @given(case=_mc_cases())
    def test_losses_equal_the_example_path(self, case):
        learner, source, n, seed = case
        est = mc.mc_expected_loss(learner, source, n, 30, seed)
        assert est.losses == _reference_losses(learner, source, n, 30, seed)

    @pytest.mark.parametrize("name", ["thm2", "thm5", "fixed", "thm4"])
    def test_a_table_serves_one_distribution(self, monkeypatch, name):
        # equal index sets name different points in different supports, so a
        # family run builds a distribution and a table for each distinct
        # (support, samples) it draws, once per run; the learners run one
        # after the other, so a memo kept across runs fails the reference
        source, interp = _SOURCES[name]()
        calls = _record_tables(monkeypatch)
        built = _record_distributions(monkeypatch)
        family = isinstance(source, adversaries.InstanceFamily)
        for learner in (
            learners.SingleInterpolator(interp),
            learners.MedianOfThree(interp),
            learners.InterpolatorAggregation(interp, learners.DisjointBlocks(3)),
        ):
            for n in (3, source.n_max) if family else (3,):
                calls.clear()
                built.clear()
                est = mc.mc_expected_loss(learner, source, n, 200, seed=11)
                tables = [table for _, table in calls]
                if family:
                    pairs = _trial_pairs(learner, source, n, 200, 11)
                    assert [(support, samples) for (support, _), (samples, _)
                            in zip(built, calls)] == pairs
                    assert len({id(table) for table in tables}) == len(built) == len(pairs)
                    for table, (_, dist) in zip(tables, built):
                        assert table.atoms is dist.atoms
                        assert dist.witness is None
                    if name == "thm2" and n == source.n_max:
                        # 13 supports of 2 atoms, n = 1: 26 pairs for one sample
                        assert len(pairs) <= 13 * 2**learner.sample_arity
                else:
                    assert len(tables) == 200
                    assert built == []
                    assert all(table is tables[0] for table in tables)
                    assert tables[0].atoms is source.distribution.atoms
                drawn = [k for samples, _ in calls for s in samples for k in s]
                assert drawn and all(type(k) is int for k in drawn)
                assert est.losses == _reference_losses(learner, source, n, 200, 11)

    @pytest.mark.parametrize("name", ["thm2", "thm5"])
    def test_trial_memo_stops_at_the_budget(self, monkeypatch, name):
        # a thm2 pair counts 2 + 3 indices and a thm5 pair 31 + 3, so 60
        # indices hold a few pairs of the run's first draws and no more
        source, interp = _SOURCES[name]()
        learner = learners.SingleInterpolator(interp)
        memos = _record_memos(monkeypatch)
        built = _record_distributions(monkeypatch)
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "60")
        est = mc.mc_expected_loss(learner, source, 3, 60, seed=3)
        (memo,) = memos
        stored = [len(support) + len(samples[0]) for support, samples in memo]
        assert stored and sum(stored) <= 60 < sum(stored) + stored[0]
        pairs = _trial_pairs(learner, source, 3, 60, 3)
        assert len(memo) < len(pairs) <= len(built)
        assert est.losses == _reference_losses(learner, source, 3, 60, 3)

    @pytest.mark.parametrize("name", ["fixed", "thm2", "thm5"])
    def test_order_reading_interpolator_is_exact(self, name):
        # the fit reads the first example of each block, which is its
        # smallest atom, as a block is fitted on its seen set in atom order
        source, _ = _SOURCES[name]()
        cls = source.cls

        def first_only(sample):
            return cls.first_consistent(sample[:1])

        for interp in (first_only, bind(lambda c, s: c.first_consistent(s[:1]), cls)):
            for learner in (
                learners.SingleInterpolator(interp),
                learners.MedianOfThree(interp),
                learners.InterpolatorAggregation(interp, learners.DisjointBlocks(3)),
            ):
                est = mc.mc_expected_loss(learner, source, 6, 100, seed=5)
                assert est.losses == _reference_losses(learner, source, 6, 100, 5)

    def test_fixed_instance_fits_each_seen_set_once(self, monkeypatch):
        inst, interp = _thm4_instance()
        fitted = _record_fits(monkeypatch)
        for learner in (
            learners.MedianOfThree(interp),
            learners.InterpolatorAggregation(interp, learners.DisjointBlocks(3)),
        ):
            fitted.clear()
            est = mc.mc_expected_loss(learner, inst, 8, 100, seed=4)
            nonempty = [seen for seen in fitted if seen]
            assert nonempty and len(nonempty) == len(set(nonempty))
            assert est.losses == _reference_losses(learner, inst, 8, 100, 4)

    def test_table_stops_at_the_budget(self, monkeypatch):
        # eight atoms, seen sets of up to five: 40 indices hold a few of them
        cls = core.CantorClass(HALF, 8, 16)
        witness = cls.hypothesis(range(1, 9))
        dist = core.FiniteDistribution.from_triples(
            [(NAT(i), 0, F(1, 8)) for i in range(1, 9)], witness
        )
        inst = adversaries.HardInstance(
            theorem="test", cls=cls, distribution=dist, witness=witness,
            gamma=HALF, epsilon=None, d=8, universe=16, n_max=None,
        )
        learner = learners.SingleInterpolator(bind(learners.generic_interpolator, cls))
        unbounded = mc.mc_expected_loss(learner, inst, 5, 40, seed=2)
        tables = []

        class Recorded(learners.FitTable):
            def __init__(self, dist):
                super().__init__(dist)
                tables.append(self)

        monkeypatch.setattr(learners, "FitTable", Recorded)
        fitted = _record_fits(monkeypatch)
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "40")
        bounded = mc.mc_expected_loss(learner, inst, 5, 40, seed=2)
        (table,) = tables
        assert sum(map(len, table)) <= 40 < sum(map(len, set(fitted)))
        assert len(fitted) > len(set(fitted))  # a seen set past the bound is fitted again
        assert bounded.losses == unbounded.losses


class TestFamilyMean:
    """A Monte Carlo mean against exact values: the exact mean of its own
    trials, and for the thm2 family, which is uniform over its supports,
    the average of the exact oracle over them."""

    @pytest.mark.parametrize("name", ["fixed", "thm4", "thm2", "thm5"])
    def test_mean_is_the_exact_mean_of_every_trial(self, name):
        # family trials share loss objects, which the mean sums once each
        source, interp = _SOURCES[name]()
        for learner in (learners.SingleInterpolator(interp), learners.MedianOfThree(interp)):
            est = mc.mc_expected_loss(learner, source, 3, 300, seed=9)
            assert est.mean == float(sum(est.losses, 0) / est.trials)

    #: epsilon: the exact mean and P(loss > 2 epsilon) of thm2's median of
    #: three blocks at n_max (1 at epsilon 1/64, 4 at 1/256)
    THM2_EXACT = {
        F(1, 64): (F(3, 13), F(12, 13)),
        F(1, 256): (F(7425, 131072), F(7425, 8192)),
    }

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("epsilon", sorted(THM2_EXACT), ids=str)
    def test_thm2_family_is_within_four_standard_errors(self, epsilon, seed):
        family = adversaries.thm2_family(HALF, 2, epsilon, 3)
        learner = learners.InterpolatorAggregation(
            bind(learners.generic_interpolator, family.cls), learners.DisjointBlocks(3),
            learners.Median())
        n, threshold = family.n_max, 2 * epsilon
        # the heavy index 1 is pinned and the other entry is uniform, so the
        # family law is the average of the 13 supports' exact laws
        instances = [family.instance_for((1, a)) for a in range(2, family.universe + 1)]
        assert len(instances) == 13
        law = collections.Counter()
        for inst in instances:
            for loss, mass in mc._mass_by_loss(mc.exact_loss_distribution(learner, inst, n)).items():
                law[loss] += mass / 13
        mean, variance = _moments(law)
        exceed = sum((mass for loss, mass in law.items() if loss > threshold), core.ZERO)
        assert (mean, exceed) == self.THM2_EXACT[epsilon]
        trials = 400
        est = mc.mc_expected_loss(learner, family, n, trials, seed)
        # sigma is the exact family law's, not the sample's
        assert abs(est.mean - mean) <= 4 * math.sqrt(variance / trials)
        binomial = math.sqrt(exceed * (1 - exceed) / trials)
        assert abs(est.exceed_fraction(threshold) - exceed) <= 4 * binomial
        _assert_exceed_shares_are_binomial(est, law)


def _complement_family(u, d):
    """thm5's family on a universe of u with d - 1 witness members, at any
    size: uniform mass on a random support of u - d + 1 indices."""
    cls = core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, d, u)
    atoms = u - d + 1
    return adversaries.InstanceFamily(
        theorem="thm5", cls=cls, epsilon=None, d=d, universe=u, n_max=None,
        law=core.IntegerLaw((F(1, atoms),) * atoms), pinned_first=False,
        point=bind(core.Point.pair, u),
        witness=bind(adversaries._complement_witness, cls, u))


def _largest_unseen_fill(cls, universe, sample):
    """A consistent proper rule other than ERM's: on a zero-labelled sample,
    the member whose d - 1 indices are the largest unseen ones."""
    seen = {ex.point.index for ex in sample}
    free = [x for x in range(universe, 0, -1) if x not in seen]
    return cls.hypothesis(universe, free[: cls.size_param - 1])


class TestThm5FamilyLaw:
    """`mc.complement_family_law` is the exact law of proper ERM on
    thm5's family, and of every consistent proper rule."""

    @staticmethod
    def _brute_force(learner, family, n):
        """The exact oracle's law averaged over every support."""
        indices = range(1, family.universe + 1)
        supports = list(itertools.combinations(indices, len(family.law.masses)))
        law = collections.Counter()
        for support in supports:
            pairs = helpers.reference_loss_distribution(learner, family.instance_for(support), n)
            for loss, mass in mc._mass_by_loss(pairs).items():
                law[loss] += mass / len(supports)
        return dict(law)

    @pytest.mark.parametrize(("u", "d", "n"), [(6, 2, 3), (7, 3, 3), (8, 3, 4)])
    def test_law_equals_the_average_over_every_support(self, u, d, n):
        family = _complement_family(u, d)
        law = mc.complement_family_law(family, n)
        assert sum(law.values()) == 1
        assert self._brute_force(learners.ProperERM(family.cls), family, n) == law

    @pytest.mark.parametrize(("u", "d", "n"), [(6, 2, 3), (7, 3, 3)])
    def test_every_consistent_proper_rule_has_the_law(self, u, d, n):
        family = _complement_family(u, d)
        largest = learners.SingleInterpolator(bind(_largest_unseen_fill, family.cls, u))
        erm = learners.ProperERM(family.cls)
        # the two rules differ on some sample, and still share the law
        sample = (core.LabeledExample(core.Point.pair(u, 1), core.ZERO),)
        assert largest.interpolator(sample) != erm.interpolator(sample)
        assert self._brute_force(largest, family, n) == \
            mc.complement_family_law(family, n)

    def test_other_families_and_sizes_are_refused(self, monkeypatch):
        family = _complement_family(6, 2)
        two_tier = core.IntegerLaw(adversaries.two_tier_masses(5, F(1, 6)))
        for other in (
            adversaries.thm2_family(HALF, 2, F(1, 64), 3),
            dataclasses.replace(family, law=two_tier),
            dataclasses.replace(family, pinned_first=True),
            # a uniform law on one atom too many for d = 2
            dataclasses.replace(family, law=core.IntegerLaw((F(1, 6),) * 6)),
            fixed_instance(),
        ):
            with pytest.raises(PreconditionError, match="complement family"):
                mc.complement_family_law(other, 3)
        with pytest.raises(PreconditionError, match="n >= 1"):
            mc.complement_family_law(family, 0)
        # n draws over 5 atoms charge 5n before the recurrence
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "15")
        assert sum(mc.complement_family_law(family, 3).values()) == 1
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "14")
        with pytest.raises(BudgetExceededError, match="complement law of size 15"):
            mc.complement_family_law(family, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_monte_carlo_at_the_defaults_is_within_four_exact_sigmas(self, seed):
        family = adversaries.thm5_family(HALF, 4, F(1, 256))
        assert (family.universe, family.d, family.n_max) == (64, 4, 12)
        law = mc.complement_family_law(family, 12)
        mean, variance = _moments(law)
        exceed = sum((mass for loss, mass in law.items() if loss > family.epsilon), core.ZERO)
        assert round(float(mean), 7) == 0.0463971 and round(float(exceed), 5) == 0.99996
        trials = 400
        est = mc.mc_expected_loss(learners.ProperERM(family.cls), family, 12, trials, seed)
        assert abs(est.mean - mean) <= 4 * math.sqrt(variance / trials)
        binomial = math.sqrt(exceed * (1 - exceed) / trials)
        assert abs(est.exceed_fraction(family.epsilon) - exceed) <= 4 * binomial


class TestScalingFit:
    def test_inverse_n_slope(self):
        points = [(n, 3.0 / n) for n in (8, 16, 32, 64, 128)]
        fit = mc.scaling_fit(points)
        assert math.isclose(fit.slope, -1.0, abs_tol=1e-9)
        assert math.isclose(fit.r_squared, 1.0, abs_tol=1e-12)

    def test_inverse_n_squared_slope(self):
        points = [(n, 5.0 / n**2) for n in (8, 16, 32, 64)]
        fit = mc.scaling_fit(points)
        assert math.isclose(fit.slope, -2.0, abs_tol=1e-9)

    def test_default_thm4_curve_fit_is_pinned(self):
        # the median-of-three means `reproduce thm4` fits at its defaults;
        # fsum makes the digits the same on every Python version
        curve = [
            (32, 0.0284375),
            (64, 0.0146484375),
            (128, 0.0072578125),
            (256, 0.003482421875),
            (512, 0.001744140625),
            (1024, 0.0009189453125),
        ]
        fit = mc.scaling_fit(curve)
        assert fit.slope == -1.0008079558855263
        assert fit.r_squared == 0.9996584997936397

    def test_zero_losses_rejected(self):
        with pytest.raises(PreconditionError):
            mc.scaling_fit([(8, 0.1), (16, 0.0), (32, 0.01), (64, 0.001)])

    def test_needs_four_points(self):
        with pytest.raises(PreconditionError):
            mc.scaling_fit([(8, 1.0), (16, 0.5), (32, 0.25)])

    def test_needs_two_distinct_sample_sizes(self):
        # one n leaves no spread in ln n to fit a slope on
        with pytest.raises(PreconditionError, match="two distinct sample sizes"):
            mc.scaling_fit([(32, 0.03), (32, 0.02), (32, 0.025), (32, 0.028)])


class TestEnvelope:
    def test_bound_values(self):
        # direct evaluations of 8 (d Ln^2(2 e n / d) + ln(2/delta)) / n
        b64 = mc.interpolator_envelope_bound(2, 64, 0.1)
        assert math.isclose(
            b64, 8 * (2 * math.log(64 * math.e) ** 2 + math.log(20)) / 64
        )
        assert b64 > 1  # vacuous at small n
        b4096 = mc.interpolator_envelope_bound(2, 4096, 0.1)
        assert math.isclose(
            b4096, 8 * (2 * math.log(4096 * math.e) ** 2 + math.log(20)) / 4096
        )
        assert 0.3 < b4096 < 0.4

    def test_all_zero_losses_pass_with_full_margin(self):
        ok, margin = mc.quantile_envelope_check([F(0)] * 20, 0.1, 0.5)
        assert ok and margin == 0.5

    def test_vacuous_bound_clamps_and_passes(self):
        losses = [F(1)] * 20
        ok, margin = mc.quantile_envelope_check(losses, 0.1, 7.0)
        assert ok and margin == 0.0

    def test_quantile_violation_detected(self):
        losses = [F(0)] * 10 + [F(1)] * 10
        ok, _ = mc.quantile_envelope_check(losses, 0.1, 0.5)
        assert not ok

    def test_sample_floor(self):
        with pytest.raises(PreconditionError):
            mc.quantile_envelope_check([F(0)] * 5, 0.1, 0.5)

    @pytest.mark.parametrize(("delta", "count"), [(0.7, 10), (0.7, 30), (0.45, 100)])
    def test_index_reads_the_decimal_delta(self, delta, count):
        # 1 - 0.7 is 0.30000000000000004 in floats, whose ceiling at T = 30
        # is 10, where ceil(3/10 * 30) = 9 names the 9th smallest loss
        losses = [F(k, 100) for k in range(count)]
        index = math.ceil((1 - F(str(delta))) * count) - 1
        ok, margin = mc.quantile_envelope_check(losses, delta, float(losses[index]))
        assert ok and margin == 0.0
        assert mc.quantile_envelope_check([k / 100 for k in range(30)], 0.7, 0.085)[0]

    @given(
        delta=st.decimals(min_value="0.001", max_value="0.999", places=3),
        count=st.integers(1, 3000),
    )
    @settings(max_examples=300, deadline=None)
    def test_quantile_and_floor_match_a_fraction_reference(self, delta, count):
        exact = F(delta)
        losses = [F(k, count) for k in range(count)]
        if count < 1 / exact:
            with pytest.raises(PreconditionError, match="need at least"):
                mc.check_quantile_samples(count, float(delta))
            return
        mc.check_quantile_samples(count, float(delta))
        index = math.ceil((1 - exact) * count) - 1
        ok, margin = mc.quantile_envelope_check(losses, float(delta), 1.0)
        assert ok and margin == 1.0 - float(losses[index])

    def test_sample_floor_reads_the_decimal_delta(self):
        # 1 / 0.7 and 1 / (7/10) both need 2 samples; at 1e-320 the floor is
        # named as 1/delta
        mc.check_quantile_samples(2, 0.7)
        with pytest.raises(PreconditionError, match="need at least 2 samples"):
            mc.check_quantile_samples(1, 0.7)
        with pytest.raises(PreconditionError, match="need at least 1/1e-320 samples"):
            mc.check_quantile_samples(400, 1e-320)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, True, None])
    def test_delta_with_no_decimal_is_refused_as_a_precondition(self, delta):
        with pytest.raises(PreconditionError, match="need 0 < delta < 1"):
            mc.check_quantile_samples(100, delta)
        with pytest.raises(PreconditionError, match="need 0 < delta < 1"):
            mc.quantile_envelope_check([F(0)] * 100, delta, 0.5)
