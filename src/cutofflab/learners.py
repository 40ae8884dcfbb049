"""Learners: interpolators, aggregation rules, partitioners, and composites.

``InterpolatorAggregation``, at the end of this module, is the one learner
class: it declares its ``sample_arity`` and turns that many training samples
into a predictor (callable Point -> Fraction) through
``predictor(samples, table)``.  A sample is a tuple of atom indices, as
``core.sample_iid`` draws it, and ``table`` is a ``FitTable`` of the
distribution whose ``atoms`` they index: the fits made so far, each keyed by
a block's seen set, the set of its distinct atom indices.  A learner is a
function of its blocks' seen sets: each is fitted on its atoms in ascending
index order, so no interpolator sees how often, or in what order, a block
drew them.  The predictor fits every block ``seen_blocks(samples)`` gives,
once per seen set per table, and ``aggregate`` decides the rule on the fits.
The single interpolator, median-of-three and proper ERM are functions that
build it.  An interpolator is a ``sample -> hypothesis`` fitter on examples.
Proper rules (order statistics, the median) return one of their inputs; the
mean stays inside the input range.  Everything is deterministic given its
inputs and seeds.

``aggregate`` does its repeated work once, through a memo keyed on ``id()``
that holds every object whose id it keys on and lives as long as the
predictor, so no id is freed and reused while the memo can still read it.
A learner holds no fit: the one piece of state that outlives a predictor
call is the ``FitTable`` its caller keeps; ``mc`` keeps one per oracle call,
per Monte Carlo run on a fixed instance, and per distinct (support, samples)
of a family run.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import core
from .errors import NotRealizableError, PreconditionError

Interpolator = Callable[[core.TrainingSequence], core.Hypothesis]


# ---------------------------------------------------------------------------
# Aggregation rules
# ---------------------------------------------------------------------------


def _select(values: Sequence[Fraction], index: int) -> Fraction:
    """The value at 0-based `index` of the inputs, insertion-sorted on integers:
    p/q > r/s exactly when p*s > r*q, as every denominator is positive."""
    ordered = []
    for v in values:
        n, d = v.numerator, v.denominator
        i = len(ordered)
        while i and ordered[i - 1][0] * d > n * ordered[i - 1][1]:
            i -= 1
        ordered.insert(i, (n, d, v))
    return ordered[index][2]


@dataclass(frozen=True)
class OrderStatistic:
    """j-th smallest input (1-based); proper.  `_check_arity` refuses a rank
    outside 1..m when a learner or `aggregate` is built."""

    rank: int

    def combine(self, values: Sequence[Fraction]) -> Fraction:
        return _select(values, self.rank - 1)


@dataclass(frozen=True)
class Median:
    """Middle value of the sorted inputs; proper, requires odd arity."""

    def combine(self, values: Sequence[Fraction]) -> Fraction:
        return _select(values, len(values) // 2)


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


def _constant_winner(rule: AggregationRule, hs: Sequence):
    """The hypothesis whose value the rule returns at every point, or None.

    That is one object filling `need` of the m inputs: all of them for the
    mean, and max(r, m + 1 - r) for a rank rule taking the r-th smallest
    value, as then at most r - 1 values lie strictly below its value and at
    most m - r strictly above.  As need > m / 2, such an object holds the
    middle place of the inputs sorted by id.
    """
    m = len(hs)
    if isinstance(rule, Mean):
        need = m
    else:
        r = rule.rank if isinstance(rule, OrderStatistic) else m // 2 + 1
        need = max(r, m + 1 - r)
    order = list(map(id, hs))
    ids = sorted(order)
    winner = ids[m // 2]
    return hs[order.index(winner)] if ids.count(winner) >= need else None


def aggregate(rule: AggregationRule, hypotheses: Sequence) -> core.Predictor:
    """Pointwise application of the rule to the hypotheses' values.

    Where one hypothesis decides the rule at every point (`_constant_winner`)
    the predictor is its `value_at`.  Otherwise the predictor combines each
    tuple of input value objects once: hypotheses return a few shared
    Fractions, so points repeat tuples.  The memo keys on the values' ids
    and holds the values, and lives as long as the predictor.
    """
    hs = tuple(hypotheses)
    if not hs:
        raise PreconditionError("cannot aggregate zero hypotheses")
    _check_arity(rule, len(hs))
    winner = _constant_winner(rule, hs)
    if winner is not None:
        return winner.value_at
    combined: dict[tuple[int, ...], tuple] = {}

    def predictor(x: core.Point) -> Fraction:
        values = [h(x) for h in hs]
        key = tuple(map(id, values))
        hit = combined.get(key)
        if hit is None:
            hit = combined[key] = (values, rule.combine(values))
        return hit[1]

    return predictor


# ---------------------------------------------------------------------------
# Partitioners: each checks its fields once, when it is built, and refuses
# more blocks, or bootstrap draws, than enumeration_budget().  `split` picks
# block positions from len(sample) alone, so splitting
# tuple(range(len(sample))) gives the positions of every sample of that
# length; `mc.exact_loss_distribution` splits once per call on that.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DisjointBlocks:
    """m contiguous blocks; earlier blocks take the leftover examples."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise PreconditionError("need at least one block")
        core._budgeted("partition", self.m)

    def split(self, sample: tuple):
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

    def split(self, sample: tuple):
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

    def split(self, sample: tuple):
        n = len(sample)
        blocks = []
        for j in range(self.m):
            rng = random.Random(core.stream_seed(self.seed, j))
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


class FitTable(core.BoundedTable):
    """One learner's fits on one distribution, whose `atoms` it holds, by
    seen set: the frozenset of a block's atom indices (see
    `InterpolatorAggregation.predictor`).  Interpolators are deterministic,
    so a stored fit is the fit a new call would make.

    As a `core.BoundedTable` it stores at most `core.enumeration_budget()`
    atom indices in all, a key's length each; a key past that is fitted
    without being stored, so its memory stays bounded for large supports
    and long samples.
    """

    def __init__(self, dist: core.FiniteDistribution):
        super().__init__()
        self.atoms = dist.atoms


# ---------------------------------------------------------------------------
# The learner: one class, and constructors for its named members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterpolatorAggregation:
    """Partition each of `sample_arity` samples, interpolate per block,
    aggregate pointwise over the blocks of all the samples."""

    interpolator: Interpolator
    # built per learner, so that importing the module reads no budget
    partitioner: Partitioner = field(default_factory=lambda: DisjointBlocks(3))
    rule: AggregationRule = Median()
    sample_arity: int = 1

    def __post_init__(self):
        # every partitioner splits a sample into exactly m blocks
        _check_arity(self.rule, self.partitioner.m * self.sample_arity)

    def seen_blocks(self, samples):
        return [block for sample in samples for block in self.partitioner.split(tuple(sample))]

    def _fit(self, table: FitTable, block) -> core.Hypothesis:
        """The fit of a block of atom indices, once per seen set in `table`."""
        seen = frozenset(block)
        h = table.get(seen)
        if h is None:
            h = table[seen] = self.interpolator(tuple([table.atoms[k] for k in sorted(seen)]))
        return h

    def predictor(self, samples, table: FitTable) -> core.Predictor:
        """The rule over one fit per block of `seen_blocks(samples)`.

        The samples are atom indices into `table.atoms`, and `table`, which
        the caller keeps across calls, holds the fits made so far.  A block
        is fitted through its seen set, the set of its distinct atoms: each
        seen set, the empty one included, is fitted once per table, on its
        atoms in ascending index order, so every block is fitted and a block
        the interpolator refuses always raises.  `aggregate` then decides
        the rule once on the fits: blocks of one seen set share one fit,
        which decides it where it fills enough inputs.
        """
        return aggregate(self.rule, [self._fit(table, b) for b in self.seen_blocks(samples)])


def SingleInterpolator(interpolator: Interpolator) -> InterpolatorAggregation:
    """One interpolator fitted on the whole sample."""
    return InterpolatorAggregation(interpolator, DisjointBlocks(1))


def MedianOfThree(interpolator: Interpolator) -> InterpolatorAggregation:
    """The median of one interpolator fitted on each of three samples."""
    return InterpolatorAggregation(interpolator, DisjointBlocks(1), sample_arity=3)


def ProperERM(cls, gamma=None) -> InterpolatorAggregation:
    """Proper ERM on realizable samples: the first consistent member of
    ``cls``, as the canonical interpolator gives it.  ``gamma`` is unread, as
    a consistent member has empirical loss zero at every cutoff; it is still
    accepted because ``perfbench/workloads.py`` calls ``ProperERM(cls, gamma)``."""
    return SingleInterpolator(functools.partial(generic_interpolator, cls))
