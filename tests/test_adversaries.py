"""Hard-instance constructions: parameters, realizability, coupling laws."""

import math
from fractions import Fraction as F
from itertools import product

import pytest

from cutofflab import adversaries, core, learners
from cutofflab.errors import PreconditionError

NAT = core.Point.nat
PAIR = core.Point.pair
HALF = F(1, 2)


class TestThm1Instance:
    def test_reference_parameters(self):
        cls = core.CantorClass(HALF, 2, 5)
        inst, cert = adversaries.thm1_instance(cls, HALF, F(1, 32))
        assert inst.distribution.masses == (F(7, 8), F(1, 8))
        assert inst.n_max == 2
        assert cert.verify(HALF)

    def test_boundary_epsilon(self):
        cls = core.CantorClass(HALF, 2, 5)
        inst, _ = adversaries.thm1_instance(cls, HALF, F(63, 256))
        assert sum(inst.distribution.masses) == 1
        assert inst.distribution.masses[0] == 1 - 4 * F(63, 256) >= 0

    def test_total_mass_one(self):
        cls = core.CantorClass(HALF, 3, 8)
        inst, _ = adversaries.thm1_instance(cls, HALF, F(1, 16))
        assert sum(inst.distribution.masses) == 1

    def test_witness_interpolates_distribution(self):
        cls = core.CantorClass(HALF, 2, 5)
        inst, _ = adversaries.thm1_instance(cls, HALF, F(1, 32))
        assert core.cutoff_loss(inst.witness, inst.distribution, HALF) == 0

    def test_epsilon_range_enforced(self):
        cls = core.CantorClass(HALF, 2, 5)
        with pytest.raises(PreconditionError):
            adversaries.thm1_instance(cls, HALF, F(1, 4))

    def test_dimension_below_two_rejected(self):
        cls = core.CantorClass(HALF, 1, 3)
        with pytest.raises(PreconditionError):
            adversaries.thm1_instance(cls, HALF, F(1, 32))

    @pytest.mark.parametrize(
        ("epsilon", "masses", "n_max"),
        [(F(1, 32), (F(7, 8), F(1, 8)), 2), (F(1, 128), (F(31, 32), F(1, 32)), 8)],
    )
    def test_pinned_instance(self, epsilon, masses, n_max):
        cls = core.CantorClass(HALF, 2, 5)
        inst, cert = adversaries.thm1_instance(cls, HALF, epsilon)
        dist = inst.distribution
        assert [a.point for a in dist.atoms] == [NAT(1), NAT(2)] == list(cert.points)
        assert dist.masses == masses and inst.n_max == n_max
        assert all(a.label == 0 for a in dist.atoms)
        assert (inst.theorem, inst.d, inst.universe, inst.epsilon) == ("thm1", 2, None, epsilon)


class TestThm4Instance:
    def test_pinned_instance(self):
        cls = core.CantorClass(HALF, 4, 12)
        inst = adversaries.thm4_instance(cls, 1024)
        dist = inst.distribution
        assert [a.point for a in dist.atoms] == [NAT(i) for i in range(9, 13)]
        assert dist.masses == (F(1021, 1024),) + (F(1, 1024),) * 3
        assert all(a.label == 0 for a in dist.atoms)
        assert inst.witness == dist.witness == cls.hypothesis({9, 10, 11, 12})
        assert (inst.theorem, inst.cls, inst.gamma) == ("thm4", cls, HALF)
        assert (inst.d, inst.universe, inst.epsilon, inst.n_max) == (4, 12, None, None)

    def test_n_below_one_rejected(self):
        with pytest.raises(PreconditionError, match="need n >= 1"):
            adversaries.thm4_instance(core.CantorClass(HALF, 4, 12), 0)


class TestThm2Family:
    def test_reference_parameters(self):
        fam = adversaries.thm2_family(HALF, 2, F(1, 64), 3)
        assert fam.universe == 14
        assert fam.n_max == 1
        assert fam.law.masses == (F(3, 4), F(1, 4))

    def test_universe_formula(self):
        # ceil(2 d m + d/4 + 1) for a few parameter sets
        for d, m in ((2, 3), (3, 2), (4, 5)):
            fam = adversaries.thm2_family(HALF, d, F(1, 64), m)
            assert fam.universe == math.ceil(2 * d * m + F(d, 4) + 1)

    def test_draws_are_pinned_distinct_and_realizable(self):
        fam = adversaries.thm2_family(HALF, 3, F(1, 64), 2)
        for t in range(20):
            support = fam.draw_support(core.stream_seed(5, t))
            inst = fam.instance_for(support)
            assert support[0] == 1
            assert len(set(support)) == 3
            assert all(2 <= e <= fam.universe for e in support[1:])
            assert core.cutoff_loss(inst.witness, inst.distribution, HALF) == 0

    def test_zero_region_bound_and_aggregate_above_gamma(self):
        # any aggregation run touches <= d * m_bound zero points; the
        # interpolating aggregate exceeds gamma everywhere else in [k_u]
        fam = adversaries.thm2_family(HALF, 2, F(1, 64), 3)
        inst = fam.instance_for(fam.draw_support(core.stream_seed(1, 0)))
        drawn = core.sample_iid(inst.distribution.law, fam.n_max, core.stream_seed(2, 0))
        sample = tuple(inst.distribution.atoms[k] for k in drawn)
        blocks = learners.DisjointBlocks(3).split(sample)
        interp = lambda s: learners.generic_interpolator(fam.cls, s)
        hs = [interp(b) for b in blocks]
        zero_region = set().union(*(h.members for h in hs))
        assert len(zero_region) <= fam.d * 3
        agg = learners.aggregate(learners.Median(), hs)
        for x in range(1, fam.universe + 1):
            if x not in zero_region:
                assert agg(NAT(x)) > HALF

    def test_epsilon_range(self):
        with pytest.raises(PreconditionError):
            adversaries.thm2_family(HALF, 2, F(1, 32), 3)


class TestThm3Family:
    def test_universe_condition_exact(self):
        # (1 - 4/i)(1 - 3/i) crosses 3/4 between i=26 and i=27
        assert not adversaries.thm3_universe_condition(26, 4, 3, HALF)
        assert adversaries.thm3_universe_condition(27, 4, 3, HALF)
        assert adversaries.thm3_universe_condition(28, 4, 3, HALF)

    def test_smallest_square(self):
        assert adversaries.thm3_universe_size(4, 3, HALF) == 729
        # None and 0 alone derive the universe
        for universe in (None, 0):
            assert adversaries.thm3_family(HALF, HALF, 4, 3, universe=universe).universe == 729

    @pytest.mark.parametrize("epsilon", [F(1, 2), F(2, 3), F(99, 100), F(1, 7), F(5, 17),
                                         F(1, 64), F(3, 100)])
    def test_size_equals_the_scan(self, epsilon):
        for n_prime, m_bound in product(range(1, 8), repeat=2):
            i = n_prime + 1
            while not adversaries.thm3_universe_condition(i, n_prime, m_bound, epsilon):
                i += 1
            assert adversaries.thm3_universe_size(n_prime, m_bound, epsilon) == i * i

    @pytest.mark.parametrize("epsilon", [F(1, 10**12), F(1, 10**6), F(1, 1000), F(1, 100),
                                         F(1, 16), F(1, 8), F(1, 4), F(1, 3), F(1, 2),
                                         F(3, 4), F(99, 100)])
    def test_size_is_minimal(self, epsilon):
        # the returned root meets the condition and the root below it does not
        for n_prime, m_bound in product(range(1, 9), repeat=2):
            size = adversaries.thm3_universe_size(n_prime, m_bound, epsilon)
            i = math.isqrt(size)
            assert i * i == size
            assert adversaries.thm3_universe_condition(i, n_prime, m_bound, epsilon)
            assert not adversaries.thm3_universe_condition(i - 1, n_prime, m_bound, epsilon)

    def test_size_refuses_inputs_outside_its_domain(self):
        # where the search would not end, too: at epsilon <= 0 no i meets the
        # condition, and at n' = m = 0 the doubling stays at 0
        for args in [(4, 3, F(0)), (4, 3, F(-1, 2)), (4, 3, F(1)), (0, 0, HALF), (4, 0, HALF)]:
            with pytest.raises(PreconditionError, match="need 0 < epsilon < 1, n' >= 1"):
                adversaries.thm3_universe_size(*args)

    def test_explicit_universe_override(self):
        fam = adversaries.thm3_family(HALF, HALF, 4, 3, universe=784)
        assert fam.universe == 784
        assert len(fam.law.masses) == 28
        assert sum(fam.law.masses) == 1
        assert fam.law.masses == (F(1, 28),) * 28

    def test_invalid_override_rejected(self):
        with pytest.raises(PreconditionError):
            adversaries.thm3_family(HALF, HALF, 4, 3, universe=676)
        with pytest.raises(PreconditionError):
            adversaries.thm3_family(HALF, HALF, 4, 3, universe=730)
        for universe in (-1, -729):  # refused, not derived
            with pytest.raises(PreconditionError, match=f"need universe >= 0 .*got {universe}$"):
                adversaries.thm3_family(HALF, HALF, 4, 3, universe=universe)

    def test_draws_realizable(self):
        fam = adversaries.thm3_family(HALF, HALF, 4, 3, universe=729)
        for t in range(5):
            support = fam.draw_support(core.stream_seed(8, t))
            inst = fam.instance_for(support)
            assert len(set(support)) == 27
            assert core.cutoff_loss(inst.witness, inst.distribution, HALF) == 0


class TestThm5Family:
    def test_reference_parameters(self):
        fam = adversaries.thm5_family(HALF, 4, F(1, 256))
        assert fam.universe == 64
        assert fam.n_max == 12
        assert len(fam.law.masses) == 61
        assert fam.law.masses[0] == F(1, 61)
        assert fam.law.masses == (F(1, 61),) * 61

    def test_universe_exceeds_2d_plus_1(self):
        for d, eps in ((2, F(1, 200)), (4, F(1, 256)), (3, F(1, 300))):
            fam = adversaries.thm5_family(HALF, d, eps)
            assert fam.universe > 2 * d + 1

    def test_witness_zero_on_every_atom(self):
        fam = adversaries.thm5_family(HALF, 4, F(1, 256))
        inst = fam.instance_for(fam.draw_support(core.stream_seed(2, 0)))
        for atom in inst.distribution.atoms:
            assert inst.witness.value_at(atom.point) == 0

    def test_epsilon_range(self):
        with pytest.raises(PreconditionError):
            adversaries.thm5_family(HALF, 4, F(1, 64))

    def test_first_entry_marginal_uniform_chi_square(self):
        # 10^4 draws; 92.0100 is the 1% critical value of chi2 with df=63
        fam = adversaries.thm5_family(HALF, 4, F(1, 256))
        counts = [0] * fam.universe
        draws = 10_000
        for t in range(draws):
            support = fam.draw_support(core.stream_seed(77, t))
            counts[support[0] - 1] += 1
        expected = draws / fam.universe
        statistic = sum((c - expected) ** 2 / expected for c in counts)
        assert statistic < 92.0100


FAMILIES = {
    "thm2": lambda: adversaries.thm2_family(HALF, 3, F(1, 64), 2),
    "thm3": lambda: adversaries.thm3_family(HALF, HALF, 4, 3, universe=784),
    "thm5": lambda: adversaries.thm5_family(HALF, 4, F(1, 256)),
}


@pytest.mark.parametrize("theorem", sorted(FAMILIES))
class TestFamilyLaw:
    def test_instances_equal_their_triples(self, theorem):
        # a drawn instance shares the family's law and examples; built from
        # its own triples it is the same distribution, law and draws
        fam = FAMILIES[theorem]()
        for t in range(50):
            support = fam.draw_support(core.stream_seed(21, t))
            dist = fam.instance_for(support).distribution
            triples = [(fam.point(a), 0, m) for a, m in zip(support, fam.law.masses)]
            ref = core.FiniteDistribution.from_triples(triples, fam.witness(support))
            assert dist == ref
            assert dist.law.weights == ref.law.weights
            assert dist.law.denominator == ref.law.denominator
            assert dist.law.thresholds == ref.law.thresholds
            drawn = core.sample_iid(dist.law, 40, core.stream_seed(9, t))
            assert drawn == core.sample_iid(ref.law, 40, core.stream_seed(9, t))
            assert [dist.atoms[k] for k in drawn] == [ref.atoms[k] for k in drawn]

    def test_trial_distribution_is_the_instance_distribution(self, theorem):
        # what a Monte Carlo trial scores against: the instance's atoms and
        # law, without the witness, which still realizes every atom
        fam = FAMILIES[theorem]()
        for t in range(300):
            support = fam.draw_support(core.stream_seed(31, t))
            dist = fam.distribution_for(support)
            inst = fam.instance_for(support)
            assert dist.witness is None and inst.distribution.witness is inst.witness
            assert dist.atoms == inst.distribution.atoms
            assert dist.law is inst.distribution.law is fam.law
            assert all(inst.witness.value_at(ex.point) == ex.label for ex in dist.atoms)

    def test_drawn_distribution_shares_the_family_law(self, theorem):
        fam = FAMILIES[theorem]()
        for t in range(5):
            inst = fam.instance_for(fam.draw_support(core.stream_seed(22, t)))
            assert inst.distribution.law is fam.law

    def test_support_outside_the_universe_refused(self, theorem):
        fam = FAMILIES[theorem]()
        support = fam.draw_support(core.stream_seed(3, 0))
        bad = [(*support[:-1], 0), (*support[:-1], fam.universe + 1),
               (*support, fam.universe + 1)]
        for entries in bad:
            with pytest.raises(PreconditionError):
                fam.instance_for(entries)
            with pytest.raises(PreconditionError, match="must lie in"):
                fam.distribution_for(entries)
        with pytest.raises(PreconditionError, match="distinct"):
            fam.distribution_for((*support[:-1], support[0]))


class TestCoupledSampling:
    def _coupling_pmf(self, support, masses, n):
        """Oracle: sum over index vectors mapping to each point sequence."""
        pmf = {}
        for t_vec in product(range(len(support)), repeat=n):
            seq = tuple(support[t] for t in t_vec)
            weight = math.prod((masses[t] for t in t_vec), start=F(1))
            pmf[seq] = pmf.get(seq, F(0)) + weight
        return pmf

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_law_equality_exhaustive(self, d):
        eps = F(1, 64)
        fam = adversaries.thm2_family(HALF, d, eps, 1)
        support = fam.draw_support(core.stream_seed(4, d))
        inst = fam.instance_for(support)
        masses = fam.law.masses
        for n in (1, 2, 3):
            coupling = self._coupling_pmf(support, masses, n)
            prod_pmf = {}
            weighted = zip(inst.distribution.atoms, inst.distribution.masses)
            for combo in product(list(weighted), repeat=n):
                seq = tuple(ex.point.n for ex, _ in combo)
                weight = math.prod((mass for _, mass in combo), start=F(1))
                prod_pmf[seq] = prod_pmf.get(seq, F(0)) + weight
            assert coupling == prod_pmf


class TestMissingIndices:
    def test_coupon_collector_regime(self):
        # n_max = 12 draws over 61 uniform atoms, sampled the way mc samples
        # a trial, leave at least 61 - 12 >= d = 4 atoms unseen in every trial
        fam = adversaries.thm5_family(HALF, 4, F(1, 256))
        for t in range(2000):
            inst = fam.instance_for(fam.draw_support(core.stream_seed(13, t)))
            sample = core.sample_iid(
                inst.distribution.law, fam.n_max, core.stream_seed(core.stream_seed(13, t), 1)
            )
            seen = {inst.distribution.atoms[k].point for k in sample}
            unseen = [a for a in inst.distribution.atoms if a.point not in seen]
            assert len(unseen) >= fam.d


class TestTwoTier:
    def test_light_mass_overflow_rejected(self):
        cls = core.CantorClass(HALF, 2, 5)
        witness = cls.hypothesis({4, 5})
        with pytest.raises(PreconditionError):
            adversaries.two_tier_instance(
                "two-tier", cls, witness, (NAT(4), NAT(5)), F(3, 2), gamma=HALF
            )

    def test_labels_follow_witness(self):
        cls = core.CantorClass(HALF, 2, 5)
        witness = cls.hypothesis({4, 5})
        dist = adversaries.two_tier_instance(
            "two-tier", cls, witness, (NAT(4), NAT(5), NAT(1)), F(1, 8), gamma=HALF
        ).distribution
        assert dist.masses == (F(3, 4), F(1, 8), F(1, 8))
        for atom in dist.atoms:
            assert atom.label == witness.value_at(atom.point)
