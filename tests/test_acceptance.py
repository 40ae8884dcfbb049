"""Acceptance suite: every quantitative threshold at its stated tolerance.

One test per criterion; each prints a single pass/fail line (visible with
pytest -s or in the -v test report) and asserts the criterion's thresholds.
All runs are seeded, so results are reproducible bit for bit.
"""

import math
import random
import time
from fractions import Fraction as F
from functools import partial as bind

import pytest

from cutofflab import adversaries, core, dims, experiments, learners, mc
from cutofflab import partial as pc

import helpers

NAT = core.Point.nat
HALF = F(1, 2)
SEED = 20260809


def report(criterion, passed, detail, elapsed, limit):
    status = "PASS" if passed and elapsed <= limit else "FAIL"
    print(f"[criterion {criterion}] {status}  ({elapsed:.1f}s/{limit}s)  {detail}")
    assert passed, detail
    assert elapsed <= limit, f"runtime {elapsed:.1f}s exceeded {limit}s"


def test_criterion_1_thm1_exact_oracle():
    start = time.perf_counter()
    rep = experiments.run_thm1(
        gamma=HALF, d=2, universe=5, epsilon=F(1, 32), seed=SEED
    )
    checks = dict((name, ok) for name, ok, _ in rep.verdicts)
    passed = rep.passed and set(checks) == {
        "exact_mean_min",
        "exceed_prob_min",
        "exact_mean_max",
        "exceed_prob_max",
        "exact_mean_median3",
        "exceed_prob_median3",
    }
    detail = "; ".join(d for _, _, d in rep.verdicts)
    report(1, passed, detail, time.perf_counter() - start, limit=1.0)


def test_criterion_2_thm2_ensemble():
    start = time.perf_counter()
    rep = experiments.run_thm2(
        gamma=HALF, d=2, epsilon=F(1, 64), m_bound=3, trials=4000, seed=SEED
    )
    assert rep.config["universe"] == 14
    assert rep.config["n"] == 1
    detail = "; ".join(d for _, _, d in rep.verdicts)
    report(2, rep.passed, detail, time.perf_counter() - start, limit=120.0)


def test_criterion_3_thm3_ensemble():
    start = time.perf_counter()
    rep = experiments.run_thm3(
        gamma=HALF,
        epsilon=HALF,
        n_prime=4,
        m_bound=3,
        universe=784,
        trials=1000,
        seed=SEED,
    )
    assert rep.config["universe"] == 784
    detail = "; ".join(d for _, _, d in rep.verdicts)
    report(3, rep.passed, detail, time.perf_counter() - start, limit=300.0)


def test_criterion_4_thm4_scaling():
    start = time.perf_counter()
    rep = experiments.run_thm4(
        gamma=HALF,
        d=4,
        universe=12,
        ns=(32, 64, 128, 256, 512, 1024),
        trials=2000,
        seed=SEED,
    )
    detail = "; ".join(d for _, _, d in rep.verdicts)
    report(4, rep.passed, detail, time.perf_counter() - start, limit=600.0)


def test_criterion_5_thm5_proper_erm():
    start = time.perf_counter()
    rep = experiments.run_thm5(
        gamma=HALF, d=4, epsilon=F(1, 256), trials=4000, seed=SEED
    )
    assert rep.config["universe"] == 64
    assert rep.config["n"] == 12
    detail = "; ".join(d for _, _, d in rep.verdicts)
    report(5, rep.passed, detail, time.perf_counter() - start, limit=300.0)


def test_criterion_6_single_interpolator_envelope():
    start = time.perf_counter()
    rep = experiments.run_lemma_interp(
        gamma=HALF, d=2, universe=6, n=4096, delta=0.1, trials=400, seed=SEED
    )
    bound = mc.interpolator_envelope_bound(2, 4096, 0.1)
    detail = "; ".join(d for _, _, d in rep.verdicts) + f"; formula bound={bound:.4f}"
    report(6, rep.passed, detail, time.perf_counter() - start, limit=180.0)


def test_criterion_6b_quantile_under_quoted_figure():
    # tighter reading: the empirical 90th percentile also sits under 0.116
    cls = core.CantorClass(HALF, 2, 6)
    witness = cls.hypothesis({5, 6})
    points = (NAT(5), NAT(6))
    instance = experiments.thm4_instance_at(cls, witness, points, 4096)
    interp = bind(learners.generic_interpolator, cls)
    est = mc.mc_expected_loss(
        learners.SingleInterpolator(interp), instance, 4096, 400, SEED
    )
    ok, margin = mc.quantile_envelope_check(est.losses, 0.1, 0.116)
    print(f"[criterion 6b] {'PASS' if ok else 'FAIL'}  quantile margin under 0.116: {margin:.4f}")
    assert ok


def test_criterion_7_disambiguation_suite():
    start = time.perf_counter()
    rep = experiments.run_lemma_disamb(
        domain_size=10, max_size=40, classes=50, max_vc=3, seed=SEED
    )
    detail = "; ".join(d for _, _, d in rep.verdicts)
    report(7, rep.passed, detail, time.perf_counter() - start, limit=30.0)


def test_criterion_8_dimensions_and_orientations():
    start = time.perf_counter()
    problems = []
    for d, universe in ((2, 5), (2, 6), (3, 8)):
        cls = core.CantorClass(HALF, d, universe)
        found = dims.gamma_graph_dimension(cls, cls.default_pool(), HALF, d + 1)
        if found != d:
            problems.append(f"cantor({d},{universe}) dim={found}")
    classes = [
        core.CantorClass(HALF, 2, 5),
        core.CantorClass(HALF, 2, 6),
        core.CantorClass(HALF, 3, 8),
        core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 9),
        core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 3, 6),
    ]
    rng = random.Random(SEED)
    for cls in classes:
        pool = list(cls.default_pool())
        for n in (3, 4, 5):
            for _ in range(20):
                points = rng.sample(pool, n)
                graph = dims.build_oig(cls, points)
                out = dims.max_gamma_outdegree(
                    graph, dims.orient_smallest_value(graph), HALF
                )
                if out > 1:
                    problems.append(f"{cls}: out-degree {out} on {points}")
    passed = not problems
    detail = "; ".join(problems) or "dims exact, all orientations out-degree <= 1"
    report(8, passed, detail, time.perf_counter() - start, limit=120.0)


def _small_instances():
    """Ten deterministic-learner instances with enumerable oracles."""
    out = []
    cls5 = core.CantorClass(HALF, 2, 5)
    inst1, cert = adversaries.thm1_instance(cls5, HALF, F(1, 32))
    adversary = bind(learners.adversarial_interpolator, cert)
    for rule in (learners.OrderStatistic(1), learners.OrderStatistic(3), learners.Median()):
        out.append(
            (
                inst1,
                learners.InterpolatorAggregation(
                    adversary, learners.DisjointBlocks(3), rule
                ),
                2,
            )
        )

    cls4 = core.CantorClass(HALF, 2, 4)
    w4 = cls4.hypothesis({3, 4})
    dist4 = core.FiniteDistribution.from_triples(
        [(NAT(3), 0, HALF), (NAT(4), 0, HALF)], witness=w4
    )
    inst4 = adversaries.HardInstance(
        "small4", cls4, dist4, w4, HALF, None, 2, 4, None
    )
    generic4 = bind(learners.generic_interpolator, cls4)
    out.append((inst4, learners.SingleInterpolator(generic4), 2))

    cls6 = core.CantorClass(HALF, 2, 6)
    w6 = cls6.hypothesis({5, 6})
    dist6 = core.FiniteDistribution.from_triples(
        [(NAT(5), 0, F(3, 4)), (NAT(6), 0, F(1, 4))], witness=w6
    )
    inst6 = adversaries.HardInstance(
        "small6", cls6, dist6, w6, HALF, None, 2, 6, None
    )
    generic6 = bind(learners.generic_interpolator, cls6)
    out.append((inst6, learners.MedianOfThree(generic6), 1))
    out.append(
        (
            inst6,
            learners.InterpolatorAggregation(
                generic6, learners.DisjointBlocks(2), learners.Mean()
            ),
            3,
        )
    )
    out.append(
        (
            inst6,
            learners.InterpolatorAggregation(
                generic6, learners.Bootstrap(3, 2, seed=17), learners.OrderStatistic(1)
            ),
            2,
        )
    )

    split = core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 2, 4)
    w_split = split.hypothesis(4, {4})
    dist_split = core.FiniteDistribution.from_triples(
        [
            (core.Point.pair(4, 1), 0, F(1, 3)),
            (core.Point.pair(4, 2), 0, F(1, 3)),
            (core.Point.pair(4, 3), 0, F(1, 3)),
        ],
        witness=w_split,
    )
    inst_split = adversaries.HardInstance(
        "small_split", split, dist_split, w_split, HALF, None, 2, 4, None
    )
    out.append((inst_split, learners.ProperERM(split), 2))

    class WitnessLearner:
        sample_arity = 1

        def __init__(self, witness):
            self.witness = witness

        def predictor(self, samples):
            return self.witness.value_at

    class ConstantOne:
        sample_arity = 1

        def predictor(self, samples):
            return lambda x: F(1)

    out.append((inst6, WitnessLearner(w6), 2))
    out.append((inst6, ConstantOne(), 2))
    assert len(out) == 10
    return out


def test_criterion_9_oracle_agreement_and_coupling():
    start = time.perf_counter()
    problems = []
    for idx, (instance, learner, n) in enumerate(_small_instances()):
        if learners.reads_seen_sets(learner):
            exact = mc.exact_expected_loss(learner, instance, n)
        else:  # the oracle refuses these, so the plain enumeration scores them
            pairs = helpers.reference_loss_distribution(learner, instance, n)
            exact = sum((w * l for w, l in pairs), F(0))
        est = mc.mc_expected_loss(learner, instance, n, 200, seed=SEED + idx)
        tol = max(3 * est.stderr, 1e-12)
        if abs(est.mean - float(exact)) > tol:
            problems.append(
                f"instance {idx}: |{est.mean:.5f} - {float(exact):.5f}| > 3se={tol:.5f}"
            )

    # the index coupling's pmf equals the product pmf on all support <= 4, n <= 3
    from itertools import product as iproduct

    for d in (2, 3, 4):
        fam = adversaries.thm2_family(HALF, d, F(1, 64), 1)
        support = fam.draw_support(core.rng_for(SEED, d))
        inst = fam.instance_for(support)
        for n in (1, 2, 3):
            coupling = {}
            for t_vec in iproduct(range(d), repeat=n):
                seq = tuple(support[t] for t in t_vec)
                w = math.prod((fam.law.masses[t] for t in t_vec), start=F(1))
                coupling[seq] = coupling.get(seq, F(0)) + w
            direct = {}
            weighted = zip(inst.distribution.atoms, inst.distribution.masses)
            for combo in iproduct(list(weighted), repeat=n):
                seq = tuple(ex.point.n for ex, _ in combo)
                w = math.prod((mass for _, mass in combo), start=F(1))
                direct[seq] = direct.get(seq, F(0)) + w
            if coupling != direct:
                problems.append(f"coupling pmf mismatch d={d} n={n}")
    passed = not problems
    detail = "; ".join(problems) or "10/10 oracle agreements, all pmfs equal"
    report(9, passed, detail, time.perf_counter() - start, limit=60.0)
