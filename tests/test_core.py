"""Core types: exact evaluation, losses, sampling, canonical enumeration."""

import bisect
import hashlib
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from cutofflab import adversaries, core, serialize
from cutofflab.errors import (
    DomainMismatchError,
    PreconditionError,
)

import helpers

NAT = core.Point.nat
PAIR = core.Point.pair
SQRT9 = core.SplitCantorClass(F(1, 2), core.SQRT_SIZE, None, 9)
COMPLEMENT36 = core.SplitCantorClass(F(1, 2), core.D_MINUS_ONE_COMPLEMENT, 3, 6)


def two_point_predictor(values):
    table = {NAT(i + 1): F(v) for i, v in enumerate(values)}
    return helpers.table_hypothesis(table)


class TestEval:
    def test_cantor_membership_case(self):
        h = core.CantorHypothesis(frozenset({1, 3}), F(3, 4))
        assert h.value_at(NAT(1)) == 0

    def test_cantor_non_membership_case(self):
        h = core.CantorHypothesis(frozenset({1, 3}), F(3, 4))
        assert h.value_at(NAT(2)) == F(3, 4)

    def test_split_cantor_zero_on_members(self):
        h = core.SplitCantorHypothesis(4, frozenset({2}), "members", F(2, 3))
        assert h.value_at(PAIR(4, 2)) == 0
        assert h.value_at(PAIR(4, 1)) == F(2, 3)
        assert h.value_at(PAIR(9, 1)) == F(2, 3)  # off-block

    def test_split_cantor_zero_on_complement(self):
        h = core.SplitCantorHypothesis(4, frozenset({2}), "complement", F(2, 3))
        assert h.value_at(PAIR(4, 2)) == F(2, 3)
        assert h.value_at(PAIR(4, 1)) == 0

    def test_domain_mismatch_is_typed(self):
        h = core.SplitCantorHypothesis(4, frozenset({2}), "members", F(2, 3))
        with pytest.raises(DomainMismatchError):
            h.value_at(NAT(1))
        with pytest.raises(DomainMismatchError):
            core.CantorHypothesis(frozenset({1}), F(3, 4)).value_at(PAIR(2, 1))


class TestCutoffLoss:
    def test_interpolating_predictor_has_zero_loss(self):
        cls = core.CantorClass(F(1, 2), 2, 5)
        h = cls.hypothesis({1, 2})
        dist = core.FiniteDistribution.from_triples(
            [(NAT(1), 0, F(1, 2)), (NAT(2), 0, F(1, 2))]
        )
        for gamma in (F(0), F(1, 4), F(1, 2)):
            assert core.cutoff_loss(h, dist, gamma) == 0

    def test_half_mass_strictly_exceeds_gamma(self):
        dist = core.FiniteDistribution.from_triples(
            [(NAT(1), 0, F(1, 2)), (NAT(2), 0, F(1, 2))]
        )
        p = two_point_predictor([0, 1])
        assert core.cutoff_loss(p.value_at, dist, F(1, 2)) == F(1, 2)

    def test_constant_above_gamma_on_all_zero_labels(self):
        # a constant prediction strictly above gamma misses every 0 label
        dist = core.FiniteDistribution.from_triples(
            [(NAT(1), 0, F(3, 4)), (NAT(2), 0, F(1, 4))]
        )
        gamma_a = F(5, 8)
        assert core.cutoff_loss(lambda x: gamma_a, dist, F(1, 2)) == 1

    def test_boundary_is_strict(self):
        dist = core.FiniteDistribution.from_triples([(NAT(1), 0, F(1))])
        # |p - y| == gamma exactly: not counted
        assert core.cutoff_loss(lambda x: F(1, 2), dist, F(1, 2)) == 0

    @given(
        st.lists(st.fractions(min_value=0, max_value=1), min_size=2, max_size=2),
        st.fractions(min_value=0, max_value=1),
        st.fractions(min_value=0, max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_gamma_and_mass_partition(self, values, g1, g2):
        lo, hi = min(g1, g2), max(g1, g2)
        dist = core.FiniteDistribution.from_triples(
            [(NAT(1), F(1, 3), F(2, 5)), (NAT(2), F(1, 7), F(3, 5))]
        )
        p = two_point_predictor(values).value_at
        assert core.cutoff_loss(p, dist, lo) >= core.cutoff_loss(p, dist, hi)

    @given(
        gamma=st.fractions(min_value=F(1, 100), max_value=F(1, 4), max_denominator=100),
        picks=st.lists(st.tuples(st.integers(0, 2), st.integers(-2, 2)), min_size=1, max_size=12),
        fresh=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_each_pair_tested_once_equals_the_reference(self, gamma, picks, fresh):
        # each atom takes one of three shared label objects, the first and
        # last equal in value, and predicts label + step * gamma: not far for
        # |step| <= 1 (label +- gamma exactly at 1), far for |step| = 2
        labels = (F(1, 2), F(1, 3), F(1, 2))
        dist = core.FiniteDistribution.from_triples(
            [(NAT(i + 1), labels[l], F(1, len(picks))) for i, (l, _) in enumerate(picks)]
        )
        steps = {ex.point: (ex.label, step) for ex, (_, step) in zip(dist.atoms, picks)}
        shared = {key: key[0] + key[1] * gamma for key in set(steps.values())}

        def predictor(x):
            label, step = steps[x]
            if fresh:  # a new object each call, freed once the atom is scored
                y = label + step * gamma
                return F(y.numerator, y.denominator)
            return shared[label, step]

        expected = helpers.reference_cutoff_loss(predictor, dist, gamma)
        assert core.cutoff_loss(predictor, dist, gamma) == expected


_TINY = F(1, 2**70)
#: values in [0, 1] over small denominators and over denominators above 2**64
_unit = st.fractions(min_value=0, max_value=1, max_denominator=12) | st.integers(
    2**64 + 1, 2**72
).flatmap(lambda q: st.integers(0, q).map(lambda p: F(p, q)))


class TestGammaFar:
    @given(
        a=_unit,
        b=_unit | st.none(),  # None: b is a - gamma or a + gamma exactly
        gamma=_unit.filter(lambda g: g > 0),
        sign=st.sampled_from((-1, 1)),
        nudge=st.sampled_from((0, _TINY, -_TINY)),
    )
    @example(a=F(1, 3), b=None, gamma=F(1, 2**64 + 1), sign=1, nudge=0)
    @example(a=F(1, 3), b=None, gamma=F(1, 2**64 + 1), sign=-1, nudge=-_TINY)
    @settings(max_examples=300, deadline=None)
    def test_is_the_strict_fraction_distance(self, a, b, gamma, sign, nudge):
        if b is None:
            b = a + sign * gamma
        gamma += nudge
        assert core.gamma_far(a, b, gamma) == (abs(a - b) > gamma)


@st.composite
def scored_distributions(draw):
    """(distribution, predictions by atom, gamma): masses over denominators up
    to 2**64 + 3 with zero masses among them, gamma down to multiples of
    2**-70, and predictions exactly at label +- gamma among the others."""
    denominator = draw(st.sampled_from([1, 3, 2**64, 2**64 + 3]) | st.integers(1, 2**64 + 3))
    size = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, denominator), min_size=size - 1, max_size=size - 1)))
    weights = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, denominator])]
    if draw(st.booleans()):
        weights.insert(draw(st.integers(0, size)), 0)
    gamma = draw(
        st.integers(0, 2**70).map(lambda k: F(k, 2**70))
        | st.fractions(min_value=0, max_value=1, max_denominator=10**6)
    )
    unit = st.fractions(min_value=0, max_value=1, max_denominator=2**66)
    triples, predictions = [], {}
    for i, w in enumerate(weights):
        label = draw(unit)
        triples.append((NAT(i + 1), label, F(w, denominator)))
        predictions[NAT(i + 1)] = draw(st.sampled_from([label + gamma, label - gamma]) | unit)
    return core.FiniteDistribution.from_triples(triples), predictions, gamma


class TestIntegerLaw:
    """Masses over one integer denominator give the Fraction results."""

    @given(scored_distributions())
    @settings(max_examples=300, deadline=None)
    def test_cutoff_loss_equals_fraction_sum(self, case):
        dist, predictions, gamma = case
        loss = core.cutoff_loss(predictions.__getitem__, dist, gamma)
        expected = sum(
            (
                mass
                for ex, mass in zip(dist.atoms, dist.masses)
                if abs(predictions[ex.point] - ex.label) > gamma
            ),
            F(0),
        )
        assert type(loss) is F and loss == expected

    def test_predictions_at_label_plus_minus_gamma_do_not_err(self):
        gamma = F(1, 2**70)
        dist = core.FiniteDistribution.from_triples(
            [(NAT(1), F(1, 3), F(1, 2**64 + 3)), (NAT(2), F(2, 3), F(2**64 + 2, 2**64 + 3))]
        )
        at_edge = {NAT(1): F(1, 3) + gamma, NAT(2): F(2, 3) - gamma}
        assert core.cutoff_loss(at_edge.__getitem__, dist, gamma) == 0
        past_edge = {NAT(1): F(1, 3) + 2 * gamma, NAT(2): F(2, 3)}
        assert core.cutoff_loss(past_edge.__getitem__, dist, gamma) == F(1, 2**64 + 3)

    @pytest.mark.parametrize("excess", [F(1, 2**70), -F(1, 2**70)])
    def test_masses_off_one_by_2_pow_minus_70_are_refused(self, excess):
        with pytest.raises(PreconditionError, match="^atom masses must sum exactly to 1$"):
            core.FiniteDistribution.from_triples(
                [(NAT(1), 0, F(1, 3)), (NAT(2), 0, F(2, 3) + excess)]
            )

    def test_unit_interval_edges(self):
        assert core.ensure_unit(0, "x") == 0 and core.ensure_unit(F(1), "x") == 1
        for value in (-F(1, 2**70), 1 + F(1, 2**70)):
            with pytest.raises(PreconditionError, match="must lie in"):
                core.ensure_unit(value, "x")

    def test_negative_mass_is_refused(self):
        with pytest.raises(PreconditionError, match="mass must be >= 0"):
            core.FiniteDistribution.from_triples(
                [(NAT(1), 0, -F(1, 2**70)), (NAT(2), 0, 1 + F(1, 2**70))]
            )

    @given(
        st.fractions(min_value=0, max_value=1, max_denominator=2**64).filter(lambda g: 0 < g < 1),
        st.integers(1, 10**12),
    )
    @settings(max_examples=200, deadline=None)
    def test_value_of_rank_round_trips(self, gamma, rank):
        value = core._value_of_rank(gamma, rank)
        assert value == gamma + (1 - gamma) / rank
        assert core._rank_of_value(gamma, value) == rank


@st.composite
def sampled_laws(draw):
    """(weights, denominator) of a law of 1 to 600 atoms (603 with the zero
    masses): denominators up to 2**64 + 3, masses that are multiples of 1/256
    so thresholds sit on top-byte bucket edges, and, over 2**64, cumulative
    masses one below, at and one above such an edge."""
    denominator = draw(st.sampled_from([1, 256, 2**64, 2**64 + 3]) | st.integers(1, 2**64 + 3))
    size = draw(st.integers(1, 600))
    rng = draw(st.randoms(use_true_random=False))

    def cut():
        if denominator == 2**64 and rng.random() < 0.5:
            edge = (rng.randrange(257) << 56) + rng.choice((-1, 0, 1))
            return min(max(edge, 0), denominator)
        return rng.randint(0, denominator)

    cuts = sorted(cut() for _ in range(size - 1))
    weights = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, denominator])]
    # zero masses at the end, the middle and the start
    for where in sorted(draw(st.sets(st.sampled_from([0, size // 2, size]))), reverse=True):
        weights.insert(where, 0)
    return weights, denominator


def randrange_fisher_yates(rng, pool, k):
    """The first k entries of the partial Fisher-Yates that swaps entry i
    with ``rng.randrange(i, len(pool))``."""
    work = list(pool)
    for i in range(k):
        j = rng.randrange(i, len(work))
        work[i], work[j] = work[j], work[i]
    return work[:k]


class FixedVariates:
    """Stands in for the sampler's RNG: serves `variates` as the one
    getrandbits(64 * n) call, packed little-endian, that draws them."""

    def __init__(self, variates):
        self.variates = variates

    def getrandbits(self, bits):
        assert bits == 64 * len(self.variates)
        return sum(r << (64 * j) for j, r in enumerate(self.variates))


class TestSampling:
    @given(law=sampled_laws(), seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bulk_draws_equal_per_draw_bisect(self, law, seed):
        weights, denominator = law
        dist = core.FiniteDistribution.from_triples(
            [(NAT(i + 1), 0, F(w, denominator)) for i, w in enumerate(weights)]
        )
        # T_k = ceil(cum_k * 2**64), from the exact cumulative masses
        cumulative = itertools.accumulate(weights)
        thresholds = [math.ceil(F(total, denominator) * 2**64) for total in cumulative]

        def atom(r):
            return bisect.bisect_right(thresholds, r)

        # the table: the atom of a whole top-byte bucket, 255 where the atom
        # changes inside the bucket or is 255 or more
        for t, entry in enumerate(dist.law.top_byte_atoms):
            low, high = atom(t << 56), atom(((t + 1) << 56) - 1)
            assert entry == (low if low == high and low < 255 else 255)
        # the reference sampler: one getrandbits(64) and one bisect per draw
        for n in (0, 1, 2, 255, 1024):
            getrandbits = random.Random(core.stream_seed(seed, n)).getrandbits
            expected = [atom(getrandbits(64)) for _ in range(n)]
            assert list(core.sample_iid(dist.law, n, core.stream_seed(seed, n))) == expected
        # variates at both edges of, and just below, every bucket a threshold
        # falls strictly inside
        straddled = sorted({threshold >> 56 for threshold in thresholds if threshold % 2**56})
        variates = [
            r for t in straddled
            for r in ((t << 56) - 1, t << 56, ((t + 1) << 56) - 1) if r >= 0
        ]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "bits_for", lambda seed: FixedVariates(variates))
            sample = core.sample_iid(dist.law, len(variates), seed=0)
        assert list(sample) == [atom(r) for r in variates]

    @pytest.mark.parametrize(
        "seed,digest",
        # sha256 prefixes of the comma-joined atom indices drawn by the
        # one-getrandbits(64)-per-draw sampler
        [(1, "2c5ce05a06de1fe8"), (2, "dadd65526324be42"), (3, "561539f0b33aaab6")],
    )
    def test_thm4_draws_pinned(self, seed, digest):
        # the thm4 law at d = 4, n = 1024: masses 1021/1024 and 3 x 1/1024
        dist = adversaries.thm4_instance(core.CantorClass(F(1, 2), 4, 12), 1024).distribution
        text = ",".join(map(str, core.sample_iid(dist.law, 1024, core.stream_seed(seed, 0))))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_zero_draws(self):
        dist = core.FiniteDistribution.from_triples([(NAT(1), 0, F(1))])
        assert core.sample_iid(dist.law, 0, core.stream_seed(1, 0)) == ()

    def test_single_atom(self):
        dist = core.FiniteDistribution.from_triples([(NAT(3), F(1, 3), F(1))])
        assert core.sample_iid(dist.law, 5, core.stream_seed(9, 0)) == (0, 0, 0, 0, 0)

    def test_determinism_contract(self):
        dist = core.FiniteDistribution.from_triples(
            [(NAT(1), 0, F(1, 3)), (NAT(2), 0, F(2, 3))]
        )
        a = core.sample_iid(dist.law, 50, core.stream_seed(123, 7))
        b = core.sample_iid(dist.law, 50, core.stream_seed(123, 7))
        assert a == b
        c = core.sample_iid(dist.law, 50, core.stream_seed(123, 8))
        assert a != c  # different stream decouples

    def test_empirical_frequencies_converge(self):
        # 5-sigma band per atom must hold in >= 99 of 100 seeds
        dist = core.FiniteDistribution.from_triples(
            [(NAT(1), 0, F(1, 4)), (NAT(2), 0, F(3, 4))]
        )
        n = 10_000
        good = 0
        for seed in range(100):
            sample = core.sample_iid(dist.law, n, core.stream_seed(seed, 0))
            ok = True
            for k, exact_mass in enumerate(dist.masses):
                mass = float(exact_mass)
                tol = 5 * math.sqrt(mass * (1 - mass) / n)
                if abs(sample.count(k) / n - mass) > tol:
                    ok = False
            good += ok
        assert good >= 99

    def test_bit_exact_recomputation(self):
        dist = core.FiniteDistribution.from_triples(
            [(NAT(1), F(1, 7), F(2, 7)), (NAT(2), F(3, 7), F(5, 7))]
        )
        p = two_point_predictor([F(1, 7), F(1, 2)]).value_at
        # |1/2 - 3/7| = 1/14 > 1/20, so exactly the second atom's mass counts
        values = {core.cutoff_loss(p, dist, F(1, 20)) for _ in range(5)}
        assert values == {F(5, 7)}

    @pytest.mark.parametrize(
        "masses",
        [
            [F(1, 3)] * 3,
            [F(1, 3), F(0), F(1, 6), F(1, 2), F(0)],
            [F(1, 2**64 + 3), F(1, 2**64), 1 - F(1, 2**64 + 3) - F(1, 2**64)],
            [F(0), F(1, 1_000_003), F(0), F(1_000_002, 1_000_003)],
        ],
        ids=["thirds", "zero_mass_mid_and_end", "near_2_pow_minus_64", "zero_mass_first"],
    )
    def test_variates_at_thresholds_pick_the_exact_atom(self, masses, monkeypatch):
        # feed the variates r = T_k - 1 and r = T_k, T_k = ceil(cum_k * 2**64),
        # and compare with bisecting the exact cumulative masses at r / 2**64
        cumulative = [sum(masses[: k + 1], F(0)) for k in range(len(masses))]
        variates = []
        for cum in cumulative:
            threshold = math.ceil(cum * 2**64)
            variates += [r for r in (threshold - 1, threshold) if 0 <= r < 2**64]
        expected = [bisect.bisect_right(cumulative, F(r, 2**64)) for r in variates]
        dist = core.FiniteDistribution.from_triples(
            [(NAT(i + 1), 0, m) for i, m in enumerate(masses)]
        )
        monkeypatch.setattr(core, "bits_for", lambda seed: FixedVariates(variates))
        sample = core.sample_iid(dist.law, len(variates), seed=0)
        assert list(sample) == expected
        assert all(masses[k] > 0 for k in expected)

    @pytest.mark.parametrize(
        "seed,stream,indices",
        [
            # atom indices drawn by the Fraction-comparison sampler; a sampler
            # that consumes the RNG differently fails here
            (0, 0, [3, 2, 3, 0, 3, 0, 0, 0, 3, 3, 2, 3]),
            (1, 3, [3, 0, 3, 3, 0, 3, 0, 3, 0, 3, 0, 3]),
            (2**64 - 1, 7, [3, 2, 3, 2, 3, 3, 0, 0, 0, 3, 2, 3]),
            (302, 1, [0, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 3, 2, 0, 3, 3, 3, 3, 0, 3]),
        ],
    )
    def test_golden_draws(self, seed, stream, indices):
        dist = core.FiniteDistribution.from_triples(
            [(NAT(1), 0, F(1, 3)), (NAT(2), 0, F(0)), (NAT(3), 0, F(1, 6)),
             (NAT(4), 0, F(1, 2)), (NAT(5), 0, F(0))]
        )
        assert core.sample_iid(dist.law, len(indices), core.stream_seed(seed, stream)) == \
            tuple(indices)

    def test_fisher_yates_draws_as_randrange_does(self):
        # every support stream must be the one rng.randrange(i, len(pool))
        # gives; a reference step leaves the entries before i alone, so its
        # k-subset is the prefix of its full draw
        # every k of the small pools; at the thm3 universe, the thm3 and
        # thm5 support sizes, both sides of the power-of-two widths, and all
        for size in (*range(1, 71), 784):
            pool = tuple(range(2, size + 2))
            ks = range(size + 1) if size <= 70 else (0, 1, 2, 28, 61, 272, 273, 783, 784)
            for seed in range(200):
                rng = random.Random(core.stream_seed(seed, 0))
                start = rng.getstate()
                full = randrange_fisher_yates(rng, pool, size)
                after = rng.getrandbits(64)
                for k in ks:
                    rng.setstate(start)
                    assert core.sample_without_replacement(rng, pool, k) == full[:k]
                # the last k is the whole pool: the stream ends where it ends
                assert rng.getrandbits(64) == after

    #: seeds and streams that are negative, small, 64-bit, and past 2^64
    WIDE = st.one_of(
        st.integers(-(2**70), -1), st.integers(0, 2048), st.integers(0, 2**64 - 1),
        st.integers(2**64, 2**70),
    )
    #: a family whose support starts at the pinned index 1, and one without
    FAMILIES = (adversaries.thm2_family(F(1, 2), 3, F(1, 64), 2),
                adversaries.thm3_family(F(1, 2), F(1, 2), 4, 3, universe=784))

    @given(seed=WIDE)
    @example(seed=core.stream_seed(83, 0))
    @settings(max_examples=100, deadline=None)
    def test_c_seeded_streams_draw_as_random_does(self, seed):
        # a stream's seed drawn through `bits_for` against `random.Random`:
        # the bits of every width the sampler reads, and each family's
        # support draw against the randrange Fisher-Yates
        fast, reference = core.bits_for(seed), random.Random(seed)
        for bits in (0, 1, 7, 64, 64 * 5, 1000):
            assert fast.getrandbits(bits) == reference.getrandbits(bits)
        for fam in self.FAMILIES:
            assert fam.pinned_first == (fam is self.FAMILIES[0])
            pinned = (1,) if fam.pinned_first else ()
            pool = range(len(pinned) + 1, fam.universe + 1)
            k = len(fam.law.masses) - len(pinned)
            assert fam.draw_support(seed) == \
                (*pinned, *randrange_fisher_yates(random.Random(seed), pool, k))

    @given(a=WIDE, b=WIDE, stream=WIDE)
    @example(a=83, b=2**40, stream=3)
    @example(a=2**40, b=2**40 + 2**64, stream=2**64 + 1)
    @settings(max_examples=200, deadline=None)
    def test_stream_seed_is_the_mix_of_the_two_mixes(self, a, b, stream):
        # called for a, b, then a again, so that a memo of the last seed
        # mixed cannot answer for another seed
        mask, mix = core._MASK64, core._splitmix64
        for seed in (a, b, a):
            expected = mix(mix(seed & mask) ^ mix(stream & mask))
            assert core.stream_seed(seed, stream) == expected
            assert core.bits_for(core.stream_seed(seed, stream)).getrandbits(64) == \
                random.Random(expected).getrandbits(64)

    @given(seed=WIDE, trials=st.integers(0, 40),
           streams=st.lists(WIDE, max_size=5) | st.sampled_from([range(2), range(1, 4)]))
    @example(seed=83, trials=3, streams=range(2))
    @settings(max_examples=100, deadline=None)
    def test_trial_seeds_are_the_streams_of_each_trial_seed(self, seed, trials, streams):
        assert list(core.trial_seeds(seed, trials, streams)) == [
            [core.stream_seed(core.stream_seed(seed, t), s) for s in streams]
            for t in range(trials)]

    def test_golden_draws_of_a_three_atom_law(self):
        law = core.IntegerLaw((F(1, 3), F(1, 6), F(1, 2)))
        # the draws the sampler made when a draw was the atom's example
        assert core.sample_iid(law, 24, core.stream_seed(11, 2)) == (
            1, 2, 2, 2, 1, 2, 2, 0, 1, 1, 0, 2, 2, 0, 0, 0, 2, 2, 0, 1, 0, 2, 0, 0
        )


class TestPointHash:
    """A point hashes once, when built, to the value the dataclass's own
    hash gives: the hash of (kind, coords)."""

    @given(k=st.integers(1, 2**70), x=st.integers(1, 2**70))
    @settings(max_examples=60, deadline=None)
    def test_hash_is_the_hash_of_kind_and_coords(self, k, x):
        assert hash(NAT(k)) == hash(("nat", (k,)))
        x = min(x, k)
        assert hash(PAIR(k, x)) == hash(("pair", (k, x)))

    @pytest.mark.parametrize("point", [NAT(7), PAIR(9, 2)], ids=repr)
    def test_equal_points_built_apart_are_one_point(self, point):
        again = core.Point(point.kind, tuple(list(point.coords)))
        assert again is not point and again == point and hash(again) == hash(point)
        assert len({point, again}) == 1
        with pytest.raises(PreconditionError, match="distinct"):
            core.FiniteDistribution.from_triples([(point, 0, F(1, 2)), (again, 0, F(1, 2))])

    def test_a_pickled_point_hashes_as_a_new_one(self):
        # str hashes differ between processes, so a point from another one
        # must not bring its hash along
        here = os.environ.get("PYTHONHASHSEED")
        env = dict(os.environ, PYTHONHASHSEED="2" if here == "1" else "1",
                   PYTHONPATH=os.path.dirname(os.path.dirname(core.__file__)))
        code = ("import pickle, sys; from cutofflab import core; "
                "sys.stdout.buffer.write(pickle.dumps([core.Point.pair(9, 2), core.Point.nat(7)]))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             check=True).stdout
        pair, nat = pickle.loads(out)
        assert {PAIR(9, 2): "pair", NAT(7): "nat"}[pair] == "pair"
        assert hash(pair) == hash(PAIR(9, 2)) and hash(nat) == hash(NAT(7))


def _first_listed(cls, sample):
    """The first member in the class's listing that is exact on the sample."""
    return next(
        (h for h in cls.hypotheses if all(h.value_at(ex.point) == ex.label for ex in sample)),
        None)


class TestScanLabels:
    """The canonical fit of both unique-value classes reads a repeated
    point's labels, and a zero label, by value, whatever objects carry them."""

    CASES = [
        pytest.param(core.CantorClass(F(1, 2), 2, 6), NAT(4), id="cantor"),
        pytest.param(SQRT9, PAIR(4, 3), id="split-sqrt"),
        pytest.param(COMPLEMENT36, PAIR(5, 3), id="split-complement"),
    ]

    @staticmethod
    def nonzero_values(cls, point):
        """Two members' distinct nonzero values at the point."""
        values = [h.value_at(point) for h in cls.hypotheses if h.value_at(point)]
        return values[0], values[1]

    @pytest.mark.parametrize(("cls", "point"), CASES)
    def test_equal_labels_as_distinct_objects_fit(self, cls, point):
        value, _ = self.nonzero_values(cls, point)
        for label in (value, F(0)):
            copy = F(label.numerator, label.denominator)
            assert copy is not label and copy == label
            sample = (core.LabeledExample(point, label), core.LabeledExample(point, copy))
            fit = cls.first_consistent(sample)
            assert fit is not None and fit == _first_listed(cls, sample)

    @pytest.mark.parametrize(("cls", "point"), CASES)
    def test_unequal_labels_at_one_point_are_refused(self, cls, point):
        value, other = self.nonzero_values(cls, point)
        for first, second in ((value, other), (value, core.ZERO), (core.ZERO, value)):
            sample = (core.LabeledExample(point, first), core.LabeledExample(point, second))
            assert cls.first_consistent(sample) is None

    @pytest.mark.parametrize(("cls", "point"), CASES)
    def test_a_zero_label_not_the_shared_zero_counts_as_zero(self, cls, point):
        sample = (core.LabeledExample(point, F(0, 9)),)
        assert sample[0].label is not core.ZERO
        fit = cls.first_consistent(sample)
        assert fit is not None and fit.value_at(point) == 0
        assert fit == _first_listed(cls, sample)


class TestCanonicalEnumeration:
    def test_cantor_unique_values_distinct_and_above_gamma(self):
        for universe in (5, 6):
            cls = core.CantorClass(F(1, 2), 2, universe)
            values = [h.value for h in cls.hypotheses]
            assert len(set(values)) == len(values)
            assert all(v > F(1, 2) for v in values)
            assert all(F(1, 2) < v <= 1 for v in values)

    def test_split_unique_values_distinct(self):
        cls = core.SplitCantorClass(F(1, 2), core.SQRT_SIZE, None, 9)
        values = [h.value for h in cls.hypotheses]
        assert len(values) == cls.size() == 1 + 6 + 84
        assert len(set(values)) == len(values)

    @pytest.mark.parametrize(("d", "cap"), [(2, 1), (2, 7), (3, 2), (3, 6), (4, 9), (5, 30)])
    def test_complement_size_is_the_block_sum(self, d, cap):
        # the closed form must count every member the blocks list
        cls = core.SplitCantorClass(F(1, 2), core.D_MINUS_ONE_COMPLEMENT, d, cap)
        assert cls.size() == sum(math.comb(k, m) for k, m in cls.blocks())

    def test_sqrt_size_is_the_block_sum_computed_once(self, monkeypatch):
        # size() reads the block prefix the member ranks cache, so a second
        # call computes no binomial
        comb, calls = math.comb, []
        monkeypatch.setattr(math, "comb", lambda k, m: calls.append((k, m)) or comb(k, m))
        for cap in range(1, 401):
            cls = core.SplitCantorClass(F(1, 2), core.SQRT_SIZE, None, cap)
            calls.clear()
            assert cls.size() == cls.size() == sum(comb(k, m) for k, m in cls.blocks())
            assert calls == list(cls.blocks())

    def test_unique_value_formula(self):
        # gamma + (1-gamma)/rank with rank the 1-based colex position
        cls = core.CantorClass(F(1, 2), 2, 5)
        ordered = list(cls.hypotheses)
        for idx, h in enumerate(ordered):
            assert h.value == F(1, 2) + F(1, 2) / (idx + 1)

    @pytest.mark.parametrize("universe", range(10))
    def test_iter_colex_is_the_colex_order(self, universe):
        for size in range(universe + 2):
            expected = sorted(
                itertools.combinations(range(1, universe + 1), size), key=lambda s: s[::-1]
            )
            assert list(core.iter_colex(universe, size)) == expected

    def test_iter_colex_takes_no_stack_per_element(self):
        # a size past the recursion limit once raised RecursionError
        subsets = list(core.iter_colex(1501, 1500))
        assert len(subsets) == 1501
        assert subsets[0] == tuple(range(1, 1501)) and subsets[-1] == tuple(range(2, 1502))

    @pytest.mark.parametrize(
        "cls",
        [core.CantorClass(F(1, 2), 2, 6), core.CantorClass(F(1, 3), 3, 7), SQRT9, COMPLEMENT36],
        ids=["cantor-2-6", "cantor-3-7", "sqrt-9", "complement-3-6"],
    )
    def test_from_value_is_the_member_at_its_rank(self, cls):
        # every rank decodes to the member listed there; past the last rank,
        # and at gamma itself, there is no member
        for rank, h in enumerate(cls.hypotheses, 1):
            assert cls._from_value(core._value_of_rank(cls.gamma, rank)) == h
        assert cls._from_value(core._value_of_rank(cls.gamma, cls.size() + 1)) is None
        assert cls._from_value(cls.gamma) is None

    def test_colex_rank_roundtrip(self):
        for size in (1, 2, 3):
            for rank, subset in enumerate(core.iter_colex(7, size)):
                assert core.colex_rank(subset) == rank
                assert core.colex_unrank(rank, size) == subset


class TestIsRealizable:
    def test_present_when_labeled_by_member(self):
        cls = core.CantorClass(F(1, 2), 2, 5)
        h = cls.hypothesis({2, 4})
        sample = helpers.training_sequence(
            [(NAT(2), 0), (NAT(1), h.value), (NAT(4), 0)]
        )
        found = cls.first_consistent(sample)
        assert found == h

    def test_absent_on_conflicting_labels(self):
        cls = core.CantorClass(F(1, 2), 2, 5)
        sample = helpers.training_sequence([(NAT(1), 0), (NAT(1), F(3, 4))])
        assert cls.first_consistent(sample) is None

    def test_first_in_enumeration_matches_exhaustive_oracle(self):
        # oracle: scan all C(4,2) hypotheses explicitly
        cls = core.CantorClass(F(1, 2), 2, 4)
        sample = helpers.training_sequence([(NAT(1), 0)])
        oracle = None
        for members in sorted(combinations(range(1, 5), 2), key=lambda t: t[::-1]):
            h = cls.hypothesis(members)
            if all(h.value_at(ex.point) == ex.label for ex in sample):
                oracle = h
                break
        found = cls.first_consistent(sample)
        assert found == oracle
        assert 1 in found.members

    def test_split_complement_realizability(self):
        cls = core.SplitCantorClass(F(1, 2), core.D_MINUS_ONE_COMPLEMENT, 3, 6)
        witness = cls.hypothesis(6, {5, 6})
        sample = helpers.training_sequence([(PAIR(6, 1), 0), (PAIR(6, 2), 0)])
        found = cls.first_consistent(sample)
        # oracle: first consistent hypothesis over the full enumeration
        oracle = next(
            h for h in cls.hypotheses
            if all(h.value_at(ex.point) == ex.label for ex in sample)
        )
        assert found == oracle
        assert core.cutoff_loss(
            witness,
            core.FiniteDistribution.from_triples(
                [(PAIR(6, 1), 0, F(1, 2)), (PAIR(6, 2), 0, F(1, 2))]
            ),
            F(1, 2),
        ) == 0

    def test_sqrt_size_first_consistent_matches_enumeration(self):
        cls = core.SplitCantorClass(F(1, 2), core.SQRT_SIZE, None, 9)
        for sample in (
            (),
            helpers.training_sequence([(PAIR(9, 4), 0)]),
            helpers.training_sequence([(PAIR(4, 1), 0), (PAIR(4, 2), 0)]),
            helpers.training_sequence([(PAIR(4, 1), 0), (PAIR(9, 2), 0)]),
        ):
            found = cls.first_consistent(sample)
            oracle = next(
                (
                    h
                    for h in cls.hypotheses
                    if all(h.value_at(ex.point) == ex.label for ex in sample)
                ),
                None,
            )
            assert found == oracle


class TestFiniteClass:
    """A mixed finite class: a Cantor member, defined on nat points only, and
    table members, defined everywhere.  Members are tried in list order."""

    CANTOR = core.CantorHypothesis(frozenset({1}), F(3, 4))
    PAIR_TABLE = helpers.table_hypothesis({PAIR(4, 1): F(0)}, default=F(1))
    NAT_TABLE = helpers.table_hypothesis({NAT(1): F(0), NAT(2): F(1, 2)}, default=F(1))
    MIXED = core.FiniteClass((CANTOR, PAIR_TABLE, NAT_TABLE))

    @pytest.mark.parametrize(
        ("labels", "expected"),
        [
            pytest.param([], CANTOR, id="empty-sample"),
            pytest.param([(NAT(1), 0)], CANTOR, id="first-member"),
            pytest.param([(NAT(2), F(1, 2))], NAT_TABLE, id="last-member"),
            pytest.param([(PAIR(4, 1), 0)], PAIR_TABLE, id="cantor-off-its-domain"),
            pytest.param([(NAT(1), 0), (PAIR(4, 1), 0)], None, id="no-member"),
        ],
    )
    def test_first_consistent(self, labels, expected):
        sample = helpers.training_sequence(labels)
        assert self.MIXED.first_consistent(sample) == expected
        # oracle: the first member defined and exact on every example
        def fits(h):
            try:
                return all(h.value_at(ex.point) == ex.label for ex in sample)
            except DomainMismatchError:
                return False

        assert expected == next((h for h in self.MIXED.hypotheses if fits(h)), None)

    def test_default_pool_is_the_table_points_once_each(self):
        twice = core.FiniteClass((self.CANTOR, self.NAT_TABLE, self.PAIR_TABLE, self.NAT_TABLE))
        pool = twice.default_pool()
        assert sorted(pool) == list(pool)
        assert set(pool) == {NAT(1), NAT(2), PAIR(4, 1)} and len(pool) == 3

    def test_json_round_trip_keeps_the_member_tuple(self):
        record = serialize.class_to_json(self.MIXED)
        assert [h["kind"] for h in record["hypotheses"]] == [
            "cantor_hypothesis", "table_hypothesis", "table_hypothesis"
        ]
        again = serialize.class_from_json(json.loads(json.dumps(record)))
        assert again == self.MIXED
        assert again.hypotheses == (self.CANTOR, self.PAIR_TABLE, self.NAT_TABLE)
        assert serialize.class_to_json(again) == record


class TestValidation:
    def test_distribution_masses_must_sum_to_one(self):
        with pytest.raises(PreconditionError):
            core.FiniteDistribution.from_triples(
                [(NAT(1), 0, F(1, 2)), (NAT(2), 0, F(1, 3))]
            )

    def test_distribution_points_distinct(self):
        with pytest.raises(PreconditionError):
            core.FiniteDistribution.from_triples(
                [(NAT(1), 0, F(1, 2)), (NAT(1), 0, F(1, 2))]
            )

    def test_labels_in_unit_interval(self):
        with pytest.raises(PreconditionError):
            core.LabeledExample(NAT(1), F(3, 2))

    @pytest.mark.parametrize("masses", [(F(1),), (F(1, 2), F(1, 4), F(1, 4))])
    def test_one_mass_per_atom(self, masses):
        atoms = (core.LabeledExample(NAT(1), F(0)), core.LabeledExample(NAT(2), F(0)))
        with pytest.raises(PreconditionError, match="one mass per atom"):
            core.FiniteDistribution(atoms, core.IntegerLaw(masses))

    @pytest.mark.parametrize(
        "build,digest",
        [
            (
                lambda: adversaries.thm1_instance(
                    core.CantorClass(F(1, 2), 2, 5), F(1, 2), F(1, 32)
                )[0],
                "2b8d581a86d1f319a7ebf4f3a811a03687cd99f82406209cecfa39c1d296da9b",
            ),
            (
                lambda: (fam := adversaries.thm5_family(F(1, 2), 4, F(1, 256))).instance_for(
                    fam.draw_support(core.stream_seed(2, 0))
                ),
                "754eb66bbfc5117a574bdc8416efd1cd48a61b36a10358c812edd9f3de967119",
            ),
        ],
        ids=["thm1-two-tier", "thm5-draw"],
    )
    def test_distribution_json_round_trip_is_byte_identical(self, build, digest):
        dist = build().distribution
        text = json.dumps(helpers.distribution_to_json(dist), sort_keys=True)
        # the bytes this record had when each atom carried its own mass
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        again = serialize.distribution_from_json(json.loads(text))
        assert again == dist
        assert json.dumps(helpers.distribution_to_json(again), sort_keys=True) == text

    def test_pair_point_range(self):
        with pytest.raises(PreconditionError):
            core.Point.pair(4, 5)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: core.SplitCantorClass(F(1, 2), "cubes", None, 9),
            lambda: core.SplitCantorClass(F(1, 2), core.D_MINUS_ONE_COMPLEMENT, None, 9),
            lambda: core.SplitCantorClass(F(1, 2), core.D_MINUS_ONE_COMPLEMENT, 1, 9),
            lambda: core.SplitCantorClass(F(1, 2), core.D_MINUS_ONE_COMPLEMENT, 4, 2),
            lambda: core.SplitCantorClass(F(1, 2), core.SQRT_SIZE, None, 0),
            lambda: SQRT9.hypothesis(2, {1}),
            lambda: SQRT9.hypothesis(16, {1, 2, 3, 4}),
            lambda: SQRT9.hypothesis(4, {1}),
            lambda: SQRT9.hypothesis(4, {1, 5}),
            lambda: COMPLEMENT36.hypothesis(1, {1}),
            lambda: SQRT9.hypothesis(9, {0, 1, 2}),
        ],
        ids=[
            "unknown-variant",
            "complement-size-param-none",
            "complement-size-param-1",
            "cap-below-first-block",
            "sqrt-cap-0",
            "non-square-block",
            "block-above-cap",
            "wrong-member-count",
            "member-outside-block",
            "complement-block-below-m",
            "member-below-one",
        ],
    )
    def test_split_class_preconditions(self, build):
        with pytest.raises(PreconditionError):
            build()

    @pytest.mark.parametrize("members", [{0, 1}, {-1, 3}], ids=["zero", "negative"])
    def test_cantor_member_below_one(self, members):
        with pytest.raises(PreconditionError):
            core.CantorClass(F(1, 2), 2, 5).hypothesis(members)


class TestBudgetEnv:
    @pytest.mark.parametrize(
        "cls",
        [
            core.CantorClass(F(1, 2), 2, 5),
            core.SplitCantorClass(F(1, 2), core.SQRT_SIZE, None, 4),
        ],
        ids=["cantor", "split"],
    )
    def test_env_override(self, monkeypatch, cls):
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "5")
        assert core.enumeration_budget() == 5
        with pytest.raises(core.BudgetExceededError):
            list(cls.hypotheses)
        monkeypatch.delenv("CUTOFFLAB_BUDGET")
        assert core.enumeration_budget() == 200_000

    @pytest.mark.parametrize(
        ("build", "size"),
        [
            (lambda: core.CantorClass(F(1, 2), 2, 5), 10),
            (lambda: core.SplitCantorClass(F(1, 2), core.SQRT_SIZE, None, 4), 7),
            (lambda: core.SplitCantorClass(F(1, 2), core.D_MINUS_ONE_COMPLEMENT, 3, 4), 10),
        ],
        ids=["cantor", "sqrt", "complement"],
    )
    def test_refused_listing_caches_nothing(self, monkeypatch, build, size):
        cls = build()
        assert cls.size() == size
        monkeypatch.setenv("CUTOFFLAB_BUDGET", str(size - 1))
        with pytest.raises(core.BudgetExceededError, match=f"class of size {size}"):
            cls.hypotheses
        # the same object lists its members once the ceiling admits them
        monkeypatch.setenv("CUTOFFLAB_BUDGET", str(size))
        members = cls.hypotheses
        assert type(members) is tuple and len(members) == size
        assert members == tuple(build().hypotheses)
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "1")
        assert cls.hypotheses is members  # listed once, not again

    def test_sqrt_block_walk_is_charged_its_largest_block(self, monkeypatch):
        # the size walks blocks 1, 4, ..., 100 (i < 11), charged 10^2 before it starts
        cls = core.SplitCantorClass(F(1, 2), core.SQRT_SIZE, None, 120)
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "99")
        with pytest.raises(core.BudgetExceededError, match="sqrt-size block walk of size 100 "):
            cls.size()
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "100")
        size = cls.size()
        assert size == sum(math.comb(i * i, i) for i in range(1, 11))
        # the walked prefix is kept: a member of a block below it is charged nothing
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "1")
        assert cls.hypothesis(100, range(1, 11)).value == core._value_of_rank(
            F(1, 2), size - math.comb(100, 10) + 1)

    @pytest.mark.parametrize(
        "cls",
        [
            core.CantorClass(F(1, 2), 2, 7),
            SQRT9,
            core.SplitCantorClass(F(1, 2), core.SQRT_SIZE, None, 15),
            COMPLEMENT36,
        ],
        ids=["cantor", "sqrt-9", "sqrt-15", "complement"],
    )
    def test_default_pool_budget_is_its_exact_size(self, monkeypatch, cls):
        # the size is worked out before the pool is built, so it must be exact
        size = len(cls.default_pool())
        monkeypatch.setenv("CUTOFFLAB_BUDGET", str(size))
        assert len(cls.default_pool()) == size
        monkeypatch.setenv("CUTOFFLAB_BUDGET", str(size - 1))
        with pytest.raises(core.BudgetExceededError, match="default pool"):
            cls.default_pool()

    @pytest.mark.parametrize(
        ("size", "named"),
        [(2**64 - 1, str(2**64 - 1)), (2**64, str(2**64)), (2**64 + 1, "at least 2^64"),
         (3 * 2**70, "at least 2^71"), (2**125_000, "at least 2^125000")],
        ids=["2^64-1", "2^64", "2^64+1", "3*2^70", "2^125000"],
    )
    def test_refusal_names_any_size_on_one_line(self, monkeypatch, size, named):
        # a size past 2^64 is named by its bit length: printed in full, one
        # past 4,300 digits would raise ValueError instead of refusing
        monkeypatch.delenv("CUTOFFLAB_BUDGET", raising=False)
        with pytest.raises(core.BudgetExceededError) as err:
            core._budgeted("things", size)
        assert str(err.value) == f"things of size {named} exceeds budget 200000"

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "lots")
        with pytest.raises(PreconditionError):
            core.enumeration_budget()
