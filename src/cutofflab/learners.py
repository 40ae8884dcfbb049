"""Learners: interpolators, aggregation rules, partitioners, and composites.

The learner classes at the end of this module are the learner interface: each
declares its ``sample_arity`` and turns that many training samples into a
predictor (callable Point -> Fraction) through ``predictor(samples)``, which
fits its interpolator on exactly the blocks ``seen_blocks(samples)`` gives.
``reads_seen_sets(learner)`` says whether that interpolator reads each block
only through its set of distinct examples; the exact oracle in ``mc`` admits
only such learners, and fits each distinct tuple of seen sets once.  An
interpolator is a ``sample -> hypothesis`` fitter.  Proper rules (order
statistics, the median) return one of their inputs; the mean stays inside the
input range.  Everything is deterministic given its inputs and seeds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

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

    def combine(self, values: Sequence[Fraction]) -> Fraction:
        if not 1 <= self.rank <= len(values):
            raise PreconditionError(f"order statistic {self.rank} out of range for m={len(values)}")
        return sorted(values)[self.rank - 1]


@dataclass(frozen=True)
class Median:
    """Middle value of the sorted inputs; proper, requires odd arity.

    The inputs are insertion-sorted on integers: p/q > r/s exactly when
    p*s > r*q, as every denominator is positive.
    """

    def combine(self, values: Sequence[Fraction]) -> Fraction:
        ordered = []
        for v in values:
            n, d = v.numerator, v.denominator
            i = len(ordered)
            while i and ordered[i - 1][0] * d > n * ordered[i - 1][1]:
                i -= 1
            ordered.insert(i, (n, d, v))
        return ordered[len(values) // 2][2]


@dataclass(frozen=True)
class Mean:
    """Arithmetic mean; interpolating but not proper."""

    def combine(self, values: Sequence[Fraction]) -> Fraction:
        return sum(values, core.ZERO) / len(values)


AggregationRule = OrderStatistic | Median | Mean


def _check_arity(rule: AggregationRule, m: int) -> None:
    """Refuse a rule that cannot combine m values: a median of an even count,
    or an order statistic outside 1..m."""
    if isinstance(rule, Median) and m % 2 == 0:
        raise PreconditionError("median aggregation needs an odd number of hypotheses")
    if isinstance(rule, OrderStatistic) and not 1 <= rule.rank <= m:
        raise PreconditionError(f"order statistic {rule.rank} out of range for m={m}")


def aggregate(rule: AggregationRule, hypotheses: Sequence) -> core.Predictor:
    """Pointwise application of the rule to the hypotheses' values."""
    hs = tuple(hypotheses)
    if not hs:
        raise PreconditionError("cannot aggregate zero hypotheses")
    _check_arity(rule, len(hs))

    def predictor(x: core.Point) -> Fraction:
        return rule.combine([h(x) for h in hs])

    return predictor


# ---------------------------------------------------------------------------
# Partitioners: each checks its fields once, when it is built, and refuses
# more blocks, or bootstrap draws, than enumeration_budget()
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisjointBlocks:
    """m contiguous blocks; earlier blocks take the leftover examples."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise PreconditionError("need at least one block")
        core._budgeted("partition", self.m)

    def split(self, sample: core.TrainingSequence):
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

    def __post_init__(self):
        if self.m < 1 or self.width < 1:
            raise PreconditionError("windows need m >= 1 and width >= 1")
        core._budgeted("partition", self.m)

    def split(self, sample: core.TrainingSequence):
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
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.size < 0:
            raise PreconditionError("bootstrap needs m >= 1 and size >= 0")
        core._budgeted("partition", self.m)
        core._budgeted("bootstrap draws", self.m * self.size)

    def split(self, sample: core.TrainingSequence):
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
        matches = h.value_at(x) == cert.witness.value_at(x)
        if matches != seen[i]:  # pragma: no cover - certificate is pre-verified
            raise AssertionError("adversarial interpolator output failed its contract")
    return h


def reads_seen_sets(learner) -> bool:
    """Whether the learner's interpolator reads a sample only through its set
    of distinct examples: the two interpolators above, bound or not.  A
    learner with no `interpolator` does not."""
    interpolator = getattr(learner, "interpolator", None)
    if isinstance(interpolator, functools.partial):
        interpolator = interpolator.func
    return interpolator in (generic_interpolator, adversarial_interpolator)


# ---------------------------------------------------------------------------
# Learner objects (uniform interface for the estimators)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingleInterpolator:
    interpolator: Interpolator

    sample_arity = 1

    def seen_blocks(self, samples):
        return samples

    def predictor(self, samples) -> core.Predictor:
        (sample,) = self.seen_blocks(samples)
        return self.interpolator(sample).value_at


@dataclass(frozen=True)
class MedianOfThree:
    interpolator: Interpolator

    sample_arity = 3

    def seen_blocks(self, samples):
        return samples

    def predictor(self, samples) -> core.Predictor:
        s1, s2, s3 = self.seen_blocks(samples)
        return aggregate(Median(), [self.interpolator(s) for s in (s1, s2, s3)])


@dataclass(frozen=True)
class InterpolatorAggregation:
    """Partition, interpolate per block, aggregate pointwise."""

    interpolator: Interpolator
    # built per learner, so that importing the module reads no budget
    partitioner: Partitioner = field(default_factory=lambda: DisjointBlocks(3))
    rule: AggregationRule = Median()

    sample_arity = 1

    def __post_init__(self):
        # every partitioner splits a sample into exactly m blocks
        _check_arity(self.rule, self.partitioner.m)

    def seen_blocks(self, samples):
        (sample,) = samples
        return self.partitioner.split(tuple(sample))

    def predictor(self, samples) -> core.Predictor:
        return aggregate(self.rule, [self.interpolator(block) for block in self.seen_blocks(samples)])


def ProperERM(cls, gamma=None) -> SingleInterpolator:
    """Proper ERM on realizable samples: the first consistent member of
    ``cls``, as the canonical interpolator gives it.  ``gamma`` is unread, as
    a consistent member has empirical loss zero at every cutoff; it is still
    accepted because ``perfbench/workloads.py`` calls ``ProperERM(cls, gamma)``."""
    return SingleInterpolator(functools.partial(generic_interpolator, cls))
