"""Learners: interpolators, aggregation rules, partitioners, and composites.

A learner consumes one or more training samples and produces a predictor
(callable Point -> Fraction).  Proper rules return one of their inputs;
interpolating rules stay inside the input range.  Everything is deterministic
given its inputs and seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import core
from .errors import NotRealizableError, PreconditionError

Interpolator = Callable[[core.TrainingSequence], core.Hypothesis]


# ---------------------------------------------------------------------------
# Aggregation rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderStatistic:
    """j-th smallest input (1-based); proper."""

    rank: int

    is_proper = True

    def combine(self, values: Sequence[Fraction]) -> Fraction:
        if not 1 <= self.rank <= len(values):
            raise PreconditionError(f"order statistic {self.rank} out of range for m={len(values)}")
        return sorted(values)[self.rank - 1]


@dataclass(frozen=True)
class Median:
    """Middle value of the sorted inputs; proper, requires odd arity."""

    is_proper = True

    def combine(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) % 2 == 0:
            raise PreconditionError("median aggregation needs an odd number of inputs")
        return sorted(values)[len(values) // 2]


@dataclass(frozen=True)
class Mean:
    """Arithmetic mean; interpolating but not proper."""

    is_proper = False

    def combine(self, values: Sequence[Fraction]) -> Fraction:
        if not values:
            raise PreconditionError("mean of an empty list")
        return sum(values, core.ZERO) / len(values)


@dataclass(frozen=True)
class Convex:
    """Fixed convex combination; interpolating."""

    weights: tuple[Fraction, ...]

    is_proper = False

    def __post_init__(self):
        weights = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if any(w < 0 for w in weights) or sum(weights, core.ZERO) != core.ONE:
            raise PreconditionError("convex weights must be nonnegative and sum to 1")

    def combine(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != len(self.weights):
            raise PreconditionError("weight/value length mismatch")
        return sum((w * v for w, v in zip(self.weights, values)), core.ZERO)


AggregationRule = OrderStatistic | Median | Mean | Convex


def aggregate(rule: AggregationRule, hypotheses: Sequence) -> core.Predictor:
    """Pointwise application of the rule to the hypotheses' values."""
    hs = tuple(hypotheses)
    if not hs:
        raise PreconditionError("cannot aggregate zero hypotheses")
    if isinstance(rule, Median) and len(hs) % 2 == 0:
        raise PreconditionError("median aggregation needs an odd number of hypotheses")

    def predictor(x: core.Point) -> Fraction:
        return rule.combine([h(x) for h in hs])

    return predictor


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisjointBlocks:
    """m contiguous blocks; earlier blocks take the leftover examples."""

    m: int

    def split(self, sample: core.TrainingSequence):
        if self.m < 1:
            raise PreconditionError("need at least one block")
        n = len(sample)
        base, extra = divmod(n, self.m)
        blocks, start = [], 0
        for j in range(self.m):
            size = base + (1 if j < extra else 0)
            blocks.append(tuple(sample[start : start + size]))
            start += size
        return blocks


@dataclass(frozen=True)
class OverlappingWindows:
    """m windows of a fixed width, evenly spread (and clipped) over the sample."""

    m: int
    width: int

    def split(self, sample: core.TrainingSequence):
        if self.m < 1 or self.width < 1:
            raise PreconditionError("windows need m >= 1 and width >= 1")
        n = len(sample)
        width = min(self.width, n)
        if n == 0:
            return [() for _ in range(self.m)]
        span = n - width
        starts = [
            (j * span) // (self.m - 1) if self.m > 1 else 0 for j in range(self.m)
        ]
        return [tuple(sample[s : s + width]) for s in starts]


@dataclass(frozen=True)
class Bootstrap:
    """m blocks of `size` examples drawn with replacement, seeded."""

    m: int
    size: int
    seed: int

    def split(self, sample: core.TrainingSequence):
        if self.m < 1 or self.size < 0:
            raise PreconditionError("bootstrap needs m >= 1 and size >= 0")
        n = len(sample)
        blocks = []
        for j in range(self.m):
            rng = core.rng_for(self.seed, j)
            if n == 0:
                blocks.append(())
            else:
                blocks.append(tuple(sample[rng.randrange(n)] for _ in range(self.size)))
        return blocks


Partitioner = DisjointBlocks | OverlappingWindows | Bootstrap


# ---------------------------------------------------------------------------
# Interpolators
# ---------------------------------------------------------------------------


def generic_interpolator(cls, sample: core.TrainingSequence) -> core.Hypothesis:
    """First consistent hypothesis in the class's canonical enumeration."""
    h = cls.first_consistent(tuple(sample))
    if h is None:
        raise NotRealizableError("no class member interpolates the sample")
    return h


def adversarial_interpolator(cert, sample: core.TrainingSequence) -> core.Hypothesis:
    """Worst-case interpolator for a shattered set: consistent with the sample
    and gamma-far from the witness on every shattered point the sample misses.

    The sample must consist of (x_i, witness(x_i)) pairs over the
    certificate's points.
    """
    sample = tuple(sample)
    point_index = {x: i for i, x in enumerate(cert.points)}
    seen = [False] * len(cert.points)
    for ex in sample:
        i = point_index.get(ex.point)
        if i is None:
            raise PreconditionError(f"{ex.point} lies outside the certificate's support")
        if cert.witness.value_at(ex.point) != ex.label:
            raise PreconditionError(f"label at {ex.point} disagrees with the witness")
        seen[i] = True
    pattern = tuple(0 if s else 1 for s in seen)
    h = cert.pattern_witnesses[pattern]
    for i, x in enumerate(cert.points):
        diff = abs(h.value_at(x) - cert.witness.value_at(x))
        ok = diff == 0 if seen[i] else diff != 0
        if not ok:  # pragma: no cover - certificate is pre-verified
            raise AssertionError("adversarial interpolator output failed its contract")
    return h


def interpolator_aggregation(
    interpolator: Interpolator,
    partitioner: Partitioner,
    rule: AggregationRule,
    sample: core.TrainingSequence,
) -> core.Predictor:
    """Partition, interpolate per block, aggregate pointwise."""
    blocks = partitioner.split(tuple(sample))
    hypotheses = [interpolator(block) for block in blocks]
    return aggregate(rule, hypotheses)


def proper_erm(cls, sample: core.TrainingSequence, gamma: Optional[Fraction] = None):
    """Consistent hypothesis if one exists (canonical order); otherwise the
    enumeration-first minimizer of the empirical cutoff loss."""
    sample = tuple(sample)
    h = cls.first_consistent(sample)
    if h is not None:
        return h
    if gamma is None:
        gamma = cls.gamma
    if gamma is None:
        raise PreconditionError("ERM fallback needs a gamma (class carries none)")
    best, best_loss = None, None
    for candidate in cls.hypotheses():
        try:
            loss = core.empirical_cutoff_loss(candidate.value_at, sample, gamma)
        except core.DomainMismatchError:
            continue
        if best_loss is None or loss < best_loss:
            best, best_loss = candidate, loss
    if best is None:
        raise PreconditionError("empty hypothesis class")
    return best


# ---------------------------------------------------------------------------
# Learner objects (uniform interface for the estimators)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleInterpolator:
    interpolator: Interpolator

    sample_arity = 1

    def predictor(self, samples) -> core.Predictor:
        (sample,) = samples
        return self.interpolator(sample).value_at


@dataclass(frozen=True)
class MedianOfThree:
    interpolator: Interpolator

    sample_arity = 3

    def predictor(self, samples) -> core.Predictor:
        s1, s2, s3 = samples
        return aggregate(Median(), [self.interpolator(s) for s in (s1, s2, s3)])


@dataclass(frozen=True)
class InterpolatorAggregation:
    interpolator: Interpolator
    partitioner: Partitioner
    rule: AggregationRule

    sample_arity = 1

    def predictor(self, samples) -> core.Predictor:
        (sample,) = samples
        return interpolator_aggregation(self.interpolator, self.partitioner, self.rule, sample)


@dataclass(frozen=True)
class ProperERM:
    cls: object
    gamma: Optional[Fraction] = None

    sample_arity = 1

    def predictor(self, samples) -> core.Predictor:
        (sample,) = samples
        return proper_erm(self.cls, sample, self.gamma).value_at
