"""Domain types and exact arithmetic for realizable regression under the cutoff loss.

Everything that a strict comparison like |h(x) - y| > gamma touches is a
`fractions.Fraction`, so every loss value, mass, and threshold comparison in
the package is exact, and `gamma_far` is the one test of that comparison.  A
distribution holds one `LabeledExample` per atom, and its masses once, as
its `law`: integers over one common denominator, on which validation,
sampling thresholds and cutoff losses are integer arithmetic, while a loss
is still returned as an exact `Fraction`.
Distributions drawn from one family share one law.
Randomness is counter-based: a stream is named by one integer, its seed,
which only `stream_seed` and `trial_seeds` derive, so trials are order
independent and bit-reproducible.  Every draw takes its stream's seed and
seeds a Mersenne Twister in C (`bits_for`), as `random.Random` seeds it.
`sample_iid` draws from a law, and a draw is an atom index: a sample is a
tuple of indices into the distribution's `atoms`.  A `Point` hashes once,
when it is built, so label maps and the distinct-point check of every
family trial hash no point again.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
from _random import Random as _CRandom
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import (
    BudgetExceededError,
    DomainMismatchError,
    PreconditionError,
)

ZERO = Fraction(0)
ONE = Fraction(1)

#: Hypothesis-class variants over split (block, index) input spaces.
SQRT_SIZE = "sqrt_size"
D_MINUS_ONE_COMPLEMENT = "d_minus_one_complement"

_DEFAULT_ENUMERATION_BUDGET = 200_000


def enumeration_budget() -> int:
    """Ceiling on exhaustive class enumerations; CUTOFFLAB_BUDGET overrides."""
    raw = os.environ.get("CUTOFFLAB_BUDGET")
    if raw is None:
        return _DEFAULT_ENUMERATION_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise PreconditionError(f"CUTOFFLAB_BUDGET must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise PreconditionError("CUTOFFLAB_BUDGET must be positive")
    return value


class BoundedTable(dict):
    """A memo that stores at most `enumeration_budget()` atom indices in
    all, counting `size(key)` for each key: a key past that is not stored,
    so its caller computes that value again, and memory stays bounded
    whatever the keys are."""

    def __init__(self, size: Callable[[object], int] = len):
        super().__init__()
        self.size = size
        self.room = enumeration_budget()

    def __setitem__(self, key, value):
        size = self.size(key)
        if size <= self.room:
            self.room -= size
            super().__setitem__(key, value)


def _exact(value) -> Fraction:
    """`value` as a Fraction, without a copy when it already is one."""
    return value if type(value) is Fraction else Fraction(value)


def ensure_unit(value: Fraction, what: str) -> Fraction:
    value = _exact(value)
    if not 0 <= value.numerator <= value.denominator:
        raise PreconditionError(f"{what} must lie in [0, 1], got {value}")
    return value


def read_gamma(value) -> Fraction:
    """The loss cutoff as a Fraction, refused outside (0, 1)."""
    gamma = _exact(value)
    if not ZERO < gamma < ONE:
        raise PreconditionError("gamma must lie in (0, 1)")
    return gamma


# ---------------------------------------------------------------------------
# Points and examples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Point:
    """Domain point: ``nat(n)`` for single-index domains, ``pair(k, x)`` with
    1 <= x <= k for split domains.  Total order is (kind, coords)."""

    kind: str
    coords: tuple[int, ...]

    def __post_init__(self):
        # the dataclass's own hash, computed once: label maps and the
        # distinct-point check hash every atom's point on every trial
        object.__setattr__(self, "_hash", hash((self.kind, self.coords)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt, not restored: a str hash differs from process to process
        return Point, (self.kind, self.coords)

    @staticmethod
    def nat(n: int) -> "Point":
        if n < 1:
            raise PreconditionError(f"nat point index must be >= 1, got {n}")
        return Point("nat", (n,))

    @staticmethod
    def pair(k: int, x: int) -> "Point":
        if not 1 <= x <= k:
            raise PreconditionError(f"pair point needs 1 <= x <= k, got ({k}, {x})")
        return Point("pair", (k, x))

    @property
    def n(self) -> int:
        if self.kind != "nat":
            raise DomainMismatchError(f"{self} is not a nat point")
        return self.coords[0]

    @property
    def block(self) -> int:
        if self.kind != "pair":
            raise DomainMismatchError(f"{self} is not a pair point")
        return self.coords[0]

    @property
    def index(self) -> int:
        if self.kind != "pair":
            raise DomainMismatchError(f"{self} is not a pair point")
        return self.coords[1]

    def __repr__(self):
        if self.kind == "nat":
            return f"Nat({self.coords[0]})"
        return f"Pair{self.coords}"


@dataclass(frozen=True)
class LabeledExample:
    point: Point
    label: Fraction

    def __post_init__(self):
        object.__setattr__(self, "label", ensure_unit(self.label, "label"))


#: Ordered training sequence; duplicates allowed.
TrainingSequence = tuple[LabeledExample, ...]


# ---------------------------------------------------------------------------
# Colexicographic enumeration of fixed-size subsets
# ---------------------------------------------------------------------------


def iter_colex(universe: int, size: int) -> Iterator[tuple[int, ...]]:
    """All size-`size` subsets of {1..universe} in ascending colex order,
    iteratively: each step raises the lowest element that can move up by one
    and resets the elements below it to 1, 2, ...."""
    subset = [*range(1, size + 1), universe + 1]  # the last entry caps the top element
    if size and size > universe:
        return
    while True:
        yield tuple(subset[:size])
        for i in range(size):
            if subset[i] + 1 < subset[i + 1]:
                subset[i] += 1
                subset[:i] = range(1, i + 1)
                break
        else:
            return


def colex_rank(subset) -> int:
    """0-based colex rank among same-size subsets of the positive integers.

    The rank does not depend on any ambient universe, so unique values
    assigned by rank stay stable when a class's universe cap grows.
    """
    return sum(math.comb(a - 1, i + 1) for i, a in enumerate(sorted(subset)))


def colex_unrank(rank: int, size: int) -> tuple[int, ...]:
    out = []
    remaining = rank
    for slot in range(size, 0, -1):
        a = slot
        while math.comb(a, slot) <= remaining:
            a += 1
        out.append(a)
        remaining -= math.comb(a - 1, slot)
    return tuple(reversed(out))


def colex_min_superset(base: set[int], size: int, universe: int) -> tuple[int, ...]:
    """Colex-smallest size-`size` subset of [universe] containing `base`."""
    if len(base) > size or (base and max(base) > universe):
        raise PreconditionError("no superset of the requested size exists")
    chosen = sorted(base)
    fill = []
    candidate = 1
    while len(chosen) + len(fill) < size:
        if candidate > universe:
            raise PreconditionError("universe too small for requested superset")
        if candidate not in base:
            fill.append(candidate)
        candidate += 1
    return tuple(sorted(chosen + fill))


# ---------------------------------------------------------------------------
# Hypotheses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TableHypothesis:
    """Finite lookup table with a default value off the table."""

    table: tuple[tuple[Point, Fraction], ...]
    default: Fraction = ZERO

    def value_at(self, point: Point) -> Fraction:
        for p, v in self.table:
            if p == point:
                return v
        return self.default

    __call__ = value_at


@dataclass(frozen=True)
class CantorHypothesis:
    """Zero on a size-d set of naturals, a unique value > gamma elsewhere."""

    members: frozenset[int]
    value: Fraction

    def value_at(self, point: Point) -> Fraction:
        if point.kind != "nat":
            raise DomainMismatchError(f"Cantor hypothesis is defined on nat points, got {point}")
        return ZERO if point.coords[0] in self.members else self.value

    __call__ = value_at


@dataclass(frozen=True)
class SplitCantorHypothesis:
    """Block hypothesis on pair points.

    With ``zero_on == "members"`` it is 0 on {(k, x): x in members} and its
    unique value elsewhere; with ``zero_on == "complement"`` it is 0 on
    {(k, x): x in [k] \\ members} and its unique value elsewhere.
    """

    k: int
    members: frozenset[int]
    zero_on: str
    value: Fraction

    def value_at(self, point: Point) -> Fraction:
        if point.kind != "pair":
            raise DomainMismatchError(f"split hypothesis is defined on pair points, got {point}")
        block, index = point.coords
        if block != self.k:
            return self.value
        inside = index in self.members
        if self.zero_on == "members":
            return ZERO if inside else self.value
        return self.value if inside else ZERO

    __call__ = value_at


Hypothesis = Union[TableHypothesis, CantorHypothesis, SplitCantorHypothesis]

#: A predictor is any callable Point -> Fraction with range inside [0, 1].
Predictor = Callable[[Point], Fraction]


# ---------------------------------------------------------------------------
# Hypothesis classes
# ---------------------------------------------------------------------------


def _budgeted(what: str, size: int) -> None:
    """Refuse to enumerate `size` items past enumeration_budget(), naming a
    size past 2^64 as at least 2^k so that any size prints on one line."""
    budget = enumeration_budget()
    if size > budget:
        named = size if size <= 1 << 64 else f"at least 2^{size.bit_length() - 1}"
        raise BudgetExceededError(f"{what} of size {named} exceeds budget {budget}")


def _value_of_rank(gamma: Fraction, rank: int) -> Fraction:
    """Unique value gamma + (1 - gamma) / rank of the member at 1-based
    enumeration position `rank`, as (p*rank + q - p) / (q*rank) for gamma = p/q."""
    p, q = gamma.numerator, gamma.denominator
    return Fraction(p * rank + q - p, q * rank)


def _rank_of_value(gamma: Fraction, value: Fraction) -> Optional[int]:
    """Inverse of `_value_of_rank`, or None when no rank carries `value`."""
    step = value - gamma
    if step <= ZERO:
        return None
    rank = (ONE - gamma) / step
    return int(rank) if rank.denominator == 1 and rank >= 1 else None


def _scan(
    sample: TrainingSequence, on_domain: Callable[[Point], bool]
) -> Optional[tuple[dict[Point, Fraction], list[Point], Optional[Fraction]]]:
    """A sample's point -> label map, its zero-labelled points and its one
    nonzero label (None if all are 0).  None when the sample contradicts
    itself, leaves the domain, or carries two distinct nonzero labels."""
    labels: dict[Point, Fraction] = {}
    for ex in sample:
        # a repeated point mostly repeats its label object
        label = labels.setdefault(ex.point, ex.label)
        if label is not ex.label and label != ex.label:
            return None
    zeros: list[Point] = []
    value: Fraction | None = None
    for point, label in labels.items():
        if not on_domain(point):
            return None
        if not label.numerator:
            zeros.append(point)
        elif value is None:
            value = label
        elif value != label:
            return None
    return labels, zeros, value


def _first_by_value(cls, sample: TrainingSequence):
    """Colex-first member of a unique-value class matching the sample.

    A nonzero label pins the member through its unique value; an all-zero
    sample leaves the class's own fill rule to choose among the members that
    vanish on the zero-labelled points.
    """
    scan = _scan(sample, cls._on_domain)
    if scan is None:
        return None
    labels, zeros, value = scan
    if value is None:
        return cls._fill(zeros)
    h = cls._from_value(value)
    if h is None or any(h.value_at(p) != y for p, y in labels.items()):
        return None
    return h


def _consistent(h, sample: TrainingSequence) -> bool:
    try:
        return all(h.value_at(ex.point) == ex.label for ex in sample)
    except DomainMismatchError:
        return False


@dataclass(frozen=True)
class FiniteClass:
    hypotheses: tuple[Hypothesis, ...]

    def size(self) -> int:
        return len(self.hypotheses)

    def first_consistent(self, sample: TrainingSequence) -> Optional[Hypothesis]:
        for h in self.hypotheses:
            if _consistent(h, sample):
                return h
        return None

    def default_pool(self) -> tuple[Point, ...]:
        points = set()
        for h in self.hypotheses:
            if isinstance(h, TableHypothesis):
                points.update(p for p, _ in h.table)
        return tuple(sorted(points))


@dataclass(frozen=True)
class CantorClass:
    """All h_A for A a size-d subset of {1..universe}: h_A is 0 on A and a
    unique value gamma + (1-gamma)/rank(A) elsewhere, rank(A) the 1-based
    colex rank of A.  `hypotheses` lists them once, in ascending colex order."""

    gamma: Fraction
    d: int
    universe: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", read_gamma(self.gamma))
        if self.d < 1 or self.universe < self.d:
            raise PreconditionError("need universe >= d >= 1")

    def size(self) -> int:
        return math.comb(self.universe, self.d)

    def hypothesis(self, members) -> CantorHypothesis:
        members = frozenset(members)
        in_range = not members or (min(members) >= 1 and max(members) <= self.universe)
        if len(members) != self.d or not in_range:
            raise PreconditionError(f"invalid member set {sorted(members)} for {self}")
        return CantorHypothesis(members, _value_of_rank(self.gamma, colex_rank(members) + 1))

    @functools.cached_property
    def hypotheses(self) -> tuple[CantorHypothesis, ...]:
        _budgeted("class", self.size())
        # a member's 1-based place in the listing is its colex rank plus one
        return tuple(
            CantorHypothesis(frozenset(a), _value_of_rank(self.gamma, rank))
            for rank, a in enumerate(iter_colex(self.universe, self.d), 1)
        )

    def _on_domain(self, point: Point) -> bool:
        return point.kind == "nat" and point.coords[0] <= self.universe

    def _from_value(self, value: Fraction) -> Optional[CantorHypothesis]:
        rank = _rank_of_value(self.gamma, value)
        if rank is None or rank > self.size():
            return None
        return self.hypothesis(colex_unrank(rank - 1, self.d))

    def _fill(self, zeros: list[Point]) -> Optional[CantorHypothesis]:
        """Colex-smallest member set containing every zero-labelled point."""
        indices = {p.coords[0] for p in zeros}
        if len(indices) > self.d:
            return None
        return self.hypothesis(colex_min_superset(indices, self.d, self.universe))

    def first_consistent(self, sample: TrainingSequence) -> Optional[CantorHypothesis]:
        return _first_by_value(self, sample)

    def default_pool(self) -> tuple[Point, ...]:
        _budgeted("default pool", self.universe)
        return tuple(Point.nat(i) for i in range(1, self.universe + 1))


@dataclass(frozen=True)
class SplitCantorClass:
    """Block classes over pair points, listed once in `hypotheses` by block then colex.

    ``sqrt_size``: blocks k = i*i <= universe_cap, zero sets A with
    |A| = i and value elsewhere.  ``d_minus_one_complement``: blocks
    d-1 <= k <= universe_cap, zero on [k] \\ A for |A| = size_param - 1.
    Unique values are gamma + (1-gamma)/rank with rank the 1-based position
    in the block-then-colex enumeration, hence distinct across the class.
    """

    gamma: Fraction
    variant: str
    size_param: int | None
    universe_cap: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", read_gamma(self.gamma))
        if self.variant not in (SQRT_SIZE, D_MINUS_ONE_COMPLEMENT):
            raise PreconditionError(f"unknown split variant {self.variant!r}")
        if self.variant == D_MINUS_ONE_COMPLEMENT:
            if self.size_param is None or self.size_param < 2:
                raise PreconditionError("complement variant needs size_param d >= 2")
        if next(self.blocks(), None) is None:
            raise PreconditionError("universe_cap below the first block")
        object.__setattr__(self, "_sqrt_prefix", [0])

    def blocks(self) -> Iterator[tuple[int, int]]:
        """(block k, zero/member set size within the block) pairs, ascending."""
        if self.variant == SQRT_SIZE:
            i = 1
            while i * i <= self.universe_cap:
                yield i * i, i
                i += 1
        else:
            m = self.size_param - 1
            for k in range(m, self.universe_cap + 1):
                yield k, m

    def member_size(self, k: int) -> Optional[int]:
        """Member-set size of block k, or None when k is not a block."""
        if self.variant == SQRT_SIZE:
            m = math.isqrt(k) if k >= 1 else 0
            return m if m >= 1 and m * m == k and k <= self.universe_cap else None
        m = self.size_param - 1
        return m if m <= k <= self.universe_cap else None

    def _offset(self, k: int, m: int) -> int:
        """Members of the blocks before block k, whose member sets have size m."""
        if self.variant == D_MINUS_ONE_COMPLEMENT:
            return math.comb(k, m + 1)  # hockey stick: sum of C(j, m) for m <= j < k
        # blocks i*i for i < m, summed once per class as far as any caller
        # asked; the walk is charged its largest block, (m - 1)^2, first
        prefix = self._sqrt_prefix
        if len(prefix) < m:
            _budgeted("sqrt-size block walk", (m - 1) ** 2)
        while len(prefix) < m:
            i = len(prefix)
            prefix.append(prefix[-1] + math.comb(i * i, i))
        return prefix[m - 1]

    def size(self) -> int:
        if self.variant == D_MINUS_ONE_COMPLEMENT:
            return math.comb(self.universe_cap + 1, self.size_param)  # hockey stick, as in _offset
        # the members before the block past the last one: the cached prefix
        m = math.isqrt(self.universe_cap) + 1
        return self._offset(m * m, m)

    def hypothesis(self, k: int, members) -> SplitCantorHypothesis:
        members = frozenset(members)
        m = self.member_size(k)
        in_range = not members or (min(members) >= 1 and max(members) <= k)
        if m is None or len(members) != m or not in_range:
            raise PreconditionError(f"invalid block/member set ({k}, {sorted(members)})")
        zero_on = "members" if self.variant == SQRT_SIZE else "complement"
        value = _value_of_rank(self.gamma, self._offset(k, m) + colex_rank(members) + 1)
        return SplitCantorHypothesis(k, members, zero_on, value)

    @functools.cached_property
    def hypotheses(self) -> tuple[SplitCantorHypothesis, ...]:
        _budgeted("class", self.size())
        zero_on = "members" if self.variant == SQRT_SIZE else "complement"
        # a member's 1-based place in the listing is its block offset plus colex rank plus one
        listed = ((k, a) for k, m in self.blocks() for a in iter_colex(k, m))
        return tuple(
            SplitCantorHypothesis(k, frozenset(a), zero_on, _value_of_rank(self.gamma, rank))
            for rank, (k, a) in enumerate(listed, 1)
        )

    def _on_domain(self, point: Point) -> bool:
        return point.kind == "pair" and point.coords[0] <= self.universe_cap

    def _from_value(self, value: Fraction) -> Optional[SplitCantorHypothesis]:
        rank = _rank_of_value(self.gamma, value)
        if rank is None:
            return None
        remaining = rank - 1
        for k, m in self.blocks():
            count = math.comb(k, m)
            if remaining < count:
                return self.hypothesis(k, colex_unrank(remaining, m))
            remaining -= count
        return None

    def _fill(self, zeros: list[Point]) -> Optional[SplitCantorHypothesis]:
        """First member vanishing on every zero-labelled point: all of them
        must share one block (the first block when there are none)."""
        block = zeros[0].coords[0] if zeros else next(self.blocks())[0]
        m = self.member_size(block)
        if m is None or any(p.coords[0] != block for p in zeros):
            return None
        indices = {p.coords[1] for p in zeros}
        if self.variant == SQRT_SIZE:
            if len(indices) > m:
                return None
            return self.hypothesis(block, colex_min_superset(indices, m, block))
        # complement variant: members must avoid every observed index
        free = [x for x in range(1, block + 1) if x not in indices]
        return self.hypothesis(block, free[:m]) if len(free) >= m else None

    def first_consistent(self, sample: TrainingSequence) -> Optional[SplitCantorHypothesis]:
        return _first_by_value(self, sample)

    def default_pool(self) -> tuple[Point, ...]:
        """Every (k, x) with k a block; refused past enumeration_budget()
        before any block is listed, since sum(k) is known in closed form."""
        if self.variant == SQRT_SIZE:
            top = math.isqrt(self.universe_cap)  # blocks 1, 4, ..., top**2
            size = top * (top + 1) * (2 * top + 1) // 6
        else:
            first = self.size_param - 1  # blocks first..universe_cap
            size = (first + self.universe_cap) * (self.universe_cap - first + 1) // 2
        _budgeted("default pool", size)
        return tuple(Point.pair(k, x) for k, _ in self.blocks() for x in range(1, k + 1))


# ---------------------------------------------------------------------------
# Distributions and losses
# ---------------------------------------------------------------------------


#: The `IntegerLaw.top_byte_atoms` entry that sends a draw to the threshold bisect.
_FALLBACK = 255


@dataclass(frozen=True)
class IntegerLaw:
    """Masses summing to one, held once more as integers over one common
    denominator: mass k is weights[k] / denominator, the lcm of the masses'
    denominators, so sums of masses are integer sums.  Validated once when
    built, so every distribution that shares a law shares its checks, its
    weights and its sampling thresholds.  `thresholds` and `top_byte_atoms`,
    the atom of each top byte of a 64-bit variate that decides it alone (see
    `sample_iid`), are built on first use.
    """

    masses: tuple[Fraction, ...]

    def __post_init__(self):
        masses = tuple(_exact(m) for m in self.masses)
        for mass in masses:
            if mass.numerator < 0:
                raise PreconditionError(f"mass must be >= 0, got {mass}")
        denominator = math.lcm(*(m.denominator for m in masses))
        weights = tuple(m.numerator * (denominator // m.denominator) for m in masses)
        if sum(weights) != denominator:
            raise PreconditionError("atom masses must sum exactly to 1")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "weights", weights)

    @functools.cached_property
    def thresholds(self) -> list[int]:
        """ceil(cum_k * 2**64) for each cumulative mass cum_k, in integers."""
        denominator = self.denominator
        return [-((-total << 64) // denominator) for total in itertools.accumulate(self.weights)]

    @functools.cached_property
    def top_byte_atoms(self) -> bytes:
        """Entry t is the atom of every variate r in [t << 56, (t + 1) << 56),
        or _FALLBACK when a threshold lies in (t << 56, (t + 1) << 56), so
        that the atom changes inside the bucket, or when the atom is
        _FALLBACK or above.  One walk over the thresholds: the atom of r is
        the number of thresholds <= r."""
        thresholds = self.thresholds
        table = bytearray()
        k = 0
        for t in range(256):
            low = t << 56
            while thresholds[k] <= low:  # the last threshold, 2**64, ends the walk
                k += 1
            straddled = thresholds[k] < low + (1 << 56)
            table.append(_FALLBACK if straddled else min(k, _FALLBACK))
        return bytes(table)


@dataclass(frozen=True)
class FiniteDistribution:
    """Finite support of distinct-point examples with masses summing to one.

    The k-th atom is the example atoms[k] with mass law.masses[k].  A sample
    drawn from the distribution is a tuple of indices into `atoms`, drawn
    from its `law`, which the distributions drawn from one family share.
    """

    atoms: tuple[LabeledExample, ...]
    law: IntegerLaw
    witness: Optional[Hypothesis] = None

    def __post_init__(self):
        atoms, masses = tuple(self.atoms), self.law.masses
        if len(masses) != len(atoms):
            raise PreconditionError(f"need one mass per atom, got {len(masses)} for {len(atoms)}")
        object.__setattr__(self, "atoms", atoms)
        points = [ex.point for ex in atoms]
        if len(set(points)) != len(points):
            raise PreconditionError("atom points must be distinct")

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return self.law.masses

    @staticmethod
    def from_triples(triples, witness=None) -> "FiniteDistribution":
        triples = tuple(triples)
        atoms = tuple(LabeledExample(p, y) for p, y, _ in triples)
        return FiniteDistribution(atoms, IntegerLaw(tuple(m for _, _, m in triples)), witness)


def gamma_far(a: Fraction, b: Fraction, gamma: Fraction) -> bool:
    """|a - b| > gamma, the one far test of the package, decided in integers.

    With a, b and gamma as reduced fractions, |a - b| > gamma holds exactly
    when |a_n b_d - b_n a_d| g_d > g_n a_d b_d, as every denominator is
    positive.
    """
    a_d, b_d = a.denominator, b.denominator
    gap = abs(a.numerator * b_d - b.numerator * a_d)
    return gap * gamma.denominator > gamma.numerator * a_d * b_d


def cutoff_loss(predictor: Predictor, dist: FiniteDistribution, gamma: Fraction) -> Fraction:
    """Probability mass on which the prediction is `gamma_far` from the label,
    summed as integer weights over the distribution's common denominator.

    Predictors return a few shared Fractions and labels repeat, so each
    (prediction, label) pair of objects is tested once.  The memo keys on
    their ids and holds both objects, so a fresh prediction freed after its
    atom cannot lend its id to the next; it lives for this call only.
    """
    gamma = _exact(gamma)
    law = dist.law
    far: dict[tuple[int, int], tuple] = {}
    total = 0
    for ex, weight in zip(dist.atoms, law.weights):
        y, label = predictor(ex.point), ex.label
        key = (id(y), id(label))
        hit = far.get(key)
        if hit is None:
            hit = far[key] = (y, label, gamma_far(y, label, gamma))
        if hit[2]:
            total += weight
    return Fraction(total, law.denominator)


# ---------------------------------------------------------------------------
# Seeded sampling
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_seed(seed: int, stream: int) -> int:
    """The 64-bit seed of stream `stream` of `seed`."""
    return _splitmix64(_splitmix64(seed & _MASK64) ^ _splitmix64(stream & _MASK64))


def trial_seeds(seed: int, trials: int, streams: Sequence[int]) -> Iterator[list[int]]:
    """For each trial t below `trials`, the seeds of its `streams`:
    ``stream_seed(stream_seed(seed, t), s)`` for each s of `streams`.  The
    seed and each stream index are mixed once, and each trial's seed once,
    where `stream_seed` mixes both of its arguments on every call."""
    seed_mix = _splitmix64(seed & _MASK64)
    mixes = [_splitmix64(stream & _MASK64) for stream in streams]
    for t in range(trials):
        trial_mix = _splitmix64(_splitmix64(seed_mix ^ _splitmix64(t)))
        yield [_splitmix64(trial_mix ^ mix) for mix in mixes]


def bits_for(seed: int) -> _CRandom:
    """The generator of the stream whose seed is `seed`: the C type that
    `random.Random` extends, whose C seed ``random.Random(seed)`` also
    calls on Python 3.10 to 3.13, so both draw the same bits."""
    return _CRandom(seed)


def sample_without_replacement(rng: _CRandom, pool: Sequence[int], k: int) -> list[int]:
    """Uniform k-subset as an ordered vector, via a partial Fisher-Yates.

    Step i swaps entry i with entry i + r for r uniform below the width
    len(pool) - i, drawn as ``rng.randrange(i, len(pool))`` draws it on
    Python 3.10 to 3.13: ``getrandbits(width.bit_length())`` until the
    draw falls below the width.  So every stream is the one that
    ``randrange`` gives, without its argument checks on each draw.  It
    reads only ``rng.getrandbits``, so a `bits_for` generator serves.
    """
    size = len(pool)
    if k > size:
        raise PreconditionError("cannot sample more entries than the pool holds")
    work = list(pool)
    getrandbits = rng.getrandbits
    for i in range(k):
        width = size - i
        bits = width.bit_length()
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        j = i + r
        work[i], work[j] = work[j], work[i]
    return work[:k]


def sample_iid(law: IntegerLaw, n: int, seed: int) -> tuple[int, ...]:
    """The atom indices of n i.i.d. draws from `law`, by inverse CDF over
    the exact cumulative masses.

    Each draw takes a 64-bit integer r, i.e. the uniform variate r / 2**64,
    and picks the first atom k with r / 2**64 < cum_k.  For integer r that
    holds exactly when r < ceil(cum_k * 2**64) = T_k, so bisecting r into the
    integer thresholds T_k picks the atom the exact Fraction comparison
    picks, and atom selection never rounds.  The masses sum to 1, so the last
    threshold is 2**64 and every r lands on an atom.

    The n variates come from one ``getrandbits(64 * n)`` call: from Python
    3.9 on, its 64-bit chunk j (least significant first) is the j-th of n
    ``getrandbits(64)`` calls, so the bytes ``to_bytes(8 * n, "little")``
    hold r_j in bytes 8j..8j+7 and its top byte at 8j+7.  The atom of r is
    the number of thresholds <= r.  When no threshold lies in (t << 56,
    (t + 1) << 56), every r with top byte t has one atom, the law's
    `top_byte_atoms` entry t, so a bytes translate picks it; every other draw
    (entry 255) is settled by the bisect above, so no draw changes.  The
    interpreter loops only over those others.

    The variates come from `bits_for(seed)`, the generator of the stream
    whose seed is `seed`.
    """
    if n < 0:
        raise PreconditionError("sample size must be >= 0")
    raw = bits_for(seed).getrandbits(64 * n).to_bytes(8 * n, "little")
    tops = raw[7::8].translate(law.top_byte_atoms)
    picks = list(tops)
    j = tops.find(_FALLBACK)
    while j >= 0:
        r = int.from_bytes(raw[8 * j : 8 * j + 8], "little")
        picks[j] = bisect.bisect_right(law.thresholds, r)
        j = tops.find(_FALLBACK, j + 1)
    return tuple(picks)
