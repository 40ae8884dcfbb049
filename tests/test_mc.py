"""Exact oracles, Monte Carlo estimation, scaling fits, envelope checks."""

import math
from fractions import Fraction as F
from functools import partial as bind

import pytest

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

    def predictor(self, samples):
        return lambda x: self.value


class WitnessLearner:
    sample_arity = 1

    def __init__(self, witness):
        self.witness = witness

    def predictor(self, samples):
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
            assert not learners.reads_seen_sets(learner)
            for oracle in (
                mc.exact_loss_distribution,
                mc.exact_expected_loss,
                bind(mc.exact_exceed_probability, threshold=core.ZERO),
            ):
                with pytest.raises(PreconditionError, match="reads only seen sets"):
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


@pytest.mark.parametrize(("learner", "inst", "n"), _thm1_oracle_cases() + _benchmark_oracle_cases())
def test_loss_sums_equal_the_plain_fraction_sums(learner, inst, n):
    pairs = mc.exact_loss_distribution(learner, inst, n)
    assert mc.exact_expected_loss(learner, inst, n) == sum((w * l for w, l in pairs), core.ZERO)
    thresholds = {core.ZERO, *(l for _, l in pairs), F(2, 128)}
    for threshold in thresholds:
        plain = sum((w for w, l in pairs if l > threshold), core.ZERO)
        assert mc.exact_exceed_probability(learner, inst, n, threshold) == plain


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

    def test_zero_mass_atom_is_skipped(self):
        inst = zero_mass_instance()
        learner = learners.SingleInterpolator(bind(learners.generic_interpolator, inst.cls))
        pairs = mc.exact_loss_distribution(learner, inst, 3)
        assert len(pairs) == 2**3
        assert sum(w for w, _ in pairs) == 1

    def test_order_reading_interpolator_is_refused(self, monkeypatch):
        inst = fixed_instance()
        cls = inst.cls

        def first_only(sample):
            return cls.first_consistent(sample[:1])

        for interp in (first_only, bind(lambda c, s: c.first_consistent(s[:1]), cls)):
            learner = learners.InterpolatorAggregation(
                interp, learners.DisjointBlocks(1), learners.Median()
            )
            assert not learners.reads_seen_sets(learner)
            pairs = helpers.reference_loss_distribution(learner, inst, 3)
            # (5, 6, 6) and (6, 5, 5) share a seen set but not a first example,
            # so no loss could be keyed by seen sets
            assert (pairs[3][1], pairs[4][1]) == (F(1, 4), F(3, 4))
            with monkeypatch.context() as patched:
                patched.setattr(core, "cutoff_loss", _no_fit)
                with pytest.raises(PreconditionError, match="reads only seen sets"):
                    mc.exact_loss_distribution(learner, inst, 3)

    def test_seen_blocks_gate(self):
        inst, adversary = thm1_setup()
        generic = bind(learners.generic_interpolator, inst.cls)
        samples = ((1, 0, 1, 1),)
        assert learners.SingleInterpolator(generic).seen_blocks(samples) is samples
        three = (samples[0], samples[0], samples[0])
        assert learners.MedianOfThree(adversary).seen_blocks(three) is three
        assert learners.InterpolatorAggregation(generic, learners.DisjointBlocks(3)).seen_blocks(
            samples
        ) == [(1, 0), (1,), (1,)]
        assert learners.ProperERM(inst.cls).seen_blocks(samples) == samples
        order_reader = learners.SingleInterpolator(inst.cls.first_consistent)
        assert order_reader.seen_blocks(samples) is samples
        for learner in (
            learners.SingleInterpolator(generic),
            learners.MedianOfThree(adversary),
            learners.InterpolatorAggregation(generic, learners.DisjointBlocks(3)),
            learners.ProperERM(inst.cls),
        ):
            assert learners.reads_seen_sets(learner)
        assert not learners.reads_seen_sets(order_reader)
        assert not learners.reads_seen_sets(ConstantLearner(0))

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


class TestMcEstimator:
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

            def predictor(self, samples):
                bad = samples[0][0].point == NAT(1)
                return lambda x: F(1) if bad else F(0)

        covered = 0
        for seed in range(100):
            est = mc.mc_expected_loss(FirstPointLearner(), inst, 1, 200, seed=seed)
            if est.ci_lo <= 0.25 <= est.ci_hi:
                covered += 1
        assert covered >= 90


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
