"""Domain types and exact arithmetic for realizable regression under the cutoff loss.

Everything that a strict comparison like |h(x) - y| > gamma touches is a
`fractions.Fraction`, so every loss value, mass, and threshold comparison in
the package is exact.  Randomness is counter-based: every draw derives from a
64-bit master seed plus a stream index, so parallel trials are order
independent and bit-reproducible.
"""

from __future__ import annotations

import bisect
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from .errors import (
    BudgetExceededError,
    DomainMismatchError,
    EmptySampleError,
    PreconditionError,
)

Rational = Fraction
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


def ensure_unit(value: Fraction, what: str) -> Fraction:
    value = Fraction(value)
    if not ZERO <= value <= ONE:
        raise PreconditionError(f"{what} must lie in [0, 1], got {value}")
    return value


# ---------------------------------------------------------------------------
# Points and examples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Point:
    """Domain point: ``nat(n)`` for single-index domains, ``pair(k, x)`` with
    1 <= x <= k for split domains.  Total order is (kind, coords)."""

    kind: str
    coords: tuple[int, ...]

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


def training_sequence(pairs) -> TrainingSequence:
    return tuple(LabeledExample(p, Fraction(y)) for p, y in pairs)


# ---------------------------------------------------------------------------
# Colexicographic enumeration of fixed-size subsets
# ---------------------------------------------------------------------------


def iter_colex(universe: int, size: int) -> Iterator[tuple[int, ...]]:
    """All size-`size` subsets of {1..universe} in ascending colex order."""
    if size == 0:
        yield ()
        return
    for top in range(size, universe + 1):
        for rest in iter_colex(top - 1, size - 1):
            yield rest + (top,)


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

    @staticmethod
    def from_dict(mapping, default=ZERO) -> "TableHypothesis":
        items = tuple(sorted((p, Fraction(v)) for p, v in mapping.items()))
        return TableHypothesis(items, Fraction(default))

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
        return ZERO if point.n in self.members else self.value

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
        if point.block != self.k:
            return self.value
        inside = point.index in self.members
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


def _consistent(h, sample: TrainingSequence) -> bool:
    try:
        return all(h.value_at(ex.point) == ex.label for ex in sample)
    except DomainMismatchError:
        return False


def _labels_by_point(sample: TrainingSequence) -> Optional[dict[Point, Fraction]]:
    """Point -> label map, or None when the sample self-contradicts."""
    seen: dict[Point, Fraction] = {}
    for ex in sample:
        if seen.setdefault(ex.point, ex.label) != ex.label:
            return None
    return seen


@dataclass(frozen=True)
class FiniteClass:
    hypotheses_list: tuple[Hypothesis, ...]

    @property
    def gamma(self):
        return None

    def size(self) -> int:
        return len(self.hypotheses_list)

    def hypotheses(self, budget: int | None = None) -> Iterator[Hypothesis]:
        budget = enumeration_budget() if budget is None else budget
        if self.size() > budget:
            raise BudgetExceededError(f"class of size {self.size()} exceeds budget {budget}")
        return iter(self.hypotheses_list)

    def first_consistent(self, sample: TrainingSequence) -> Optional[Hypothesis]:
        for h in self.hypotheses_list:
            if _consistent(h, sample):
                return h
        return None

    def default_pool(self) -> tuple[Point, ...]:
        points = set()
        for h in self.hypotheses_list:
            if isinstance(h, TableHypothesis):
                points.update(p for p, _ in h.table)
        return tuple(sorted(points))


@dataclass(frozen=True)
class CantorClass:
    """All h_A for A a size-d subset of {1..universe}: h_A is 0 on A and a
    unique value gamma + (1-gamma)/rank(A) elsewhere, rank(A) the 1-based
    colex rank of A.  Enumeration order is ascending colex."""

    gamma: Fraction
    d: int
    universe: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if not ZERO < self.gamma < ONE:
            raise PreconditionError("gamma must lie in (0, 1)")
        if self.d < 1 or self.universe < self.d:
            raise PreconditionError("need universe >= d >= 1")

    def size(self) -> int:
        return math.comb(self.universe, self.d)

    def unique_value(self, members) -> Fraction:
        return self.gamma + (ONE - self.gamma) / (colex_rank(members) + 1)

    def hypothesis(self, members) -> CantorHypothesis:
        members = frozenset(members)
        if len(members) != self.d or (members and max(members) > self.universe):
            raise PreconditionError(f"invalid member set {sorted(members)} for {self}")
        return CantorHypothesis(members, self.unique_value(members))

    def hypotheses(self, budget: int | None = None) -> Iterator[CantorHypothesis]:
        budget = enumeration_budget() if budget is None else budget
        if self.size() > budget:
            raise BudgetExceededError(f"class of size {self.size()} exceeds budget {budget}")
        return (self.hypothesis(a) for a in iter_colex(self.universe, self.d))

    def first_consistent(self, sample: TrainingSequence) -> Optional[CantorHypothesis]:
        labels = _labels_by_point(sample)
        if labels is None:
            return None
        zeros: set[int] = set()
        off_value: Fraction | None = None
        off_points: set[int] = set()
        for point, label in labels.items():
            if point.kind != "nat" or point.n > self.universe:
                return None
            if label == ZERO:
                zeros.add(point.n)
            else:
                if off_value is not None and off_value != label:
                    return None
                off_value = label
                off_points.add(point.n)
        if off_value is not None:
            # the unique value pins the member set exactly
            step = off_value - self.gamma
            if step <= ZERO:
                return None
            rank = (ONE - self.gamma) / step
            if rank.denominator != 1 or rank < 1:
                return None
            members = colex_unrank(int(rank) - 1, self.d)
            if max(members) > self.universe:
                return None
            member_set = set(members)
            if not zeros <= member_set or member_set & off_points:
                return None
            return self.hypothesis(members)
        if len(zeros) > self.d:
            return None
        return self.hypothesis(colex_min_superset(zeros, self.d, self.universe))

    def default_pool(self) -> tuple[Point, ...]:
        return tuple(Point.nat(i) for i in range(1, self.universe + 1))


@dataclass(frozen=True)
class SplitCantorClass:
    """Block classes over pair points, enumerated by block then colex.

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
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if not ZERO < self.gamma < ONE:
            raise PreconditionError("gamma must lie in (0, 1)")
        if self.variant not in (SQRT_SIZE, D_MINUS_ONE_COMPLEMENT):
            raise PreconditionError(f"unknown split variant {self.variant!r}")
        if self.variant == D_MINUS_ONE_COMPLEMENT:
            if self.size_param is None or self.size_param < 2:
                raise PreconditionError("complement variant needs size_param d >= 2")
        if self.universe_cap < self._first_block():
            raise PreconditionError("universe_cap below the first block")

    def _first_block(self) -> int:
        return 1 if self.variant == SQRT_SIZE else self.size_param - 1

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

    def member_size(self, k: int) -> int:
        if self.variant == SQRT_SIZE:
            i = math.isqrt(k)
            if i * i != k:
                raise PreconditionError(f"{k} is not a perfect-square block")
            return i
        return self.size_param - 1

    def is_block(self, k: int) -> bool:
        if k > self.universe_cap:
            return False
        if self.variant == SQRT_SIZE:
            return math.isqrt(k) ** 2 == k
        return k >= self.size_param - 1

    def size(self) -> int:
        return sum(math.comb(k, m) for k, m in self.blocks())

    def _block_offset(self, block: int) -> int:
        offset = 0
        for k, m in self.blocks():
            if k == block:
                return offset
            offset += math.comb(k, m)
        raise PreconditionError(f"{block} is not a block of {self}")

    def unique_value(self, k: int, members) -> Fraction:
        rank = self._block_offset(k) + colex_rank(members) + 1
        return self.gamma + (ONE - self.gamma) / rank

    def hypothesis(self, k: int, members) -> SplitCantorHypothesis:
        members = frozenset(members)
        if not self.is_block(k) or len(members) != self.member_size(k):
            raise PreconditionError(f"invalid block/member set ({k}, {sorted(members)})")
        if members and max(members) > k:
            raise PreconditionError("members must lie inside the block")
        zero_on = "members" if self.variant == SQRT_SIZE else "complement"
        return SplitCantorHypothesis(k, members, zero_on, self.unique_value(k, members))

    def hypotheses(self, budget: int | None = None) -> Iterator[SplitCantorHypothesis]:
        budget = enumeration_budget() if budget is None else budget
        if self.size() > budget:
            raise BudgetExceededError(f"class of size {self.size()} exceeds budget {budget}")

        def gen():
            for k, m in self.blocks():
                for members in iter_colex(k, m):
                    yield self.hypothesis(k, members)

        return gen()

    def _from_value(self, value: Fraction) -> Optional[SplitCantorHypothesis]:
        step = value - self.gamma
        if step <= ZERO:
            return None
        rank = (ONE - self.gamma) / step
        if rank.denominator != 1 or rank < 1:
            return None
        remaining = int(rank) - 1
        for k, m in self.blocks():
            count = math.comb(k, m)
            if remaining < count:
                return self.hypothesis(k, colex_unrank(remaining, m))
            remaining -= count
        return None

    def first_consistent(self, sample: TrainingSequence) -> Optional[SplitCantorHypothesis]:
        labels = _labels_by_point(sample)
        if labels is None:
            return None
        zeros: list[Point] = []
        off_value: Fraction | None = None
        off_points: list[Point] = []
        for point, label in labels.items():
            if point.kind != "pair" or point.block > self.universe_cap:
                return None
            if label == ZERO:
                zeros.append(point)
            else:
                if off_value is not None and off_value != label:
                    return None
                off_value = label
                off_points.append(point)
        if off_value is not None:
            h = self._from_value(off_value)
            if h is None or not _consistent(h, sample):
                return None
            return h
        if not zeros:
            # empty (or all off-domain-free) sample: first hypothesis overall
            k, m = next(iter(self.blocks()))
            return self.hypothesis(k, tuple(range(1, m + 1)))
        block = zeros[0].block
        if any(p.block != block for p in zeros) or not self.is_block(block):
            return None
        indices = {p.index for p in zeros}
        m = self.member_size(block)
        if self.variant == SQRT_SIZE:
            if len(indices) > m:
                return None
            return self.hypothesis(block, colex_min_superset(indices, m, block))
        # complement variant: members must avoid every observed index
        free = [x for x in range(1, block + 1) if x not in indices]
        if len(free) < m:
            return None
        return self.hypothesis(block, free[:m])

    def default_pool(self) -> tuple[Point, ...]:
        pool = []
        for k, _ in self.blocks():
            pool.extend(Point.pair(k, x) for x in range(1, k + 1))
        return tuple(pool)


HypothesisClass = Union[FiniteClass, CantorClass, SplitCantorClass]


def is_realizable(sample: TrainingSequence, cls: HypothesisClass) -> Optional[Hypothesis]:
    """First class member (canonical enumeration) matching every example, if any."""
    return cls.first_consistent(tuple(sample))


# ---------------------------------------------------------------------------
# Distributions and losses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    point: Point
    label: Fraction
    mass: Fraction

    def __post_init__(self):
        object.__setattr__(self, "label", ensure_unit(self.label, "label"))
        mass = Fraction(self.mass)
        if mass < ZERO:
            raise PreconditionError(f"mass must be >= 0, got {mass}")
        object.__setattr__(self, "mass", mass)


@dataclass(frozen=True)
class FiniteDistribution:
    """Finite support over (point, label) pairs with masses summing to one."""

    atoms: tuple[Atom, ...]
    witness: Optional[Hypothesis] = None

    def __post_init__(self):
        atoms = tuple(self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if sum((a.mass for a in atoms), ZERO) != ONE:
            raise PreconditionError("atom masses must sum exactly to 1")
        points = [a.point for a in atoms]
        if len(set(points)) != len(points):
            raise PreconditionError("atom points must be distinct")

    @staticmethod
    def from_triples(triples, witness=None) -> "FiniteDistribution":
        return FiniteDistribution(
            tuple(Atom(p, Fraction(y), Fraction(m)) for p, y, m in triples), witness
        )

    def cumulative(self) -> list[Fraction]:
        out, total = [], ZERO
        for atom in self.atoms:
            total += atom.mass
            out.append(total)
        return out

    def support_size(self) -> int:
        return len(self.atoms)


def cutoff_loss(predictor: Predictor, dist: FiniteDistribution, gamma: Fraction) -> Fraction:
    """Probability mass on which the prediction is more than gamma from the label."""
    gamma = Fraction(gamma)
    total = ZERO
    for atom in dist.atoms:
        if abs(predictor(atom.point) - atom.label) > gamma:
            total += atom.mass
    return total


def cutoff_within(predictor: Predictor, dist: FiniteDistribution, gamma: Fraction) -> Fraction:
    """Complementary mass, |prediction - label| <= gamma; partitions 1 exactly."""
    gamma = Fraction(gamma)
    total = ZERO
    for atom in dist.atoms:
        if abs(predictor(atom.point) - atom.label) <= gamma:
            total += atom.mass
    return total


def empirical_cutoff_loss(predictor: Predictor, sample: TrainingSequence, gamma: Fraction) -> Fraction:
    gamma = Fraction(gamma)
    if not sample:
        raise EmptySampleError("empirical cutoff loss needs a nonempty sample")
    bad = sum(1 for ex in sample if abs(predictor(ex.point) - ex.label) > gamma)
    return Fraction(bad, len(sample))


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
    """Derive an independent 64-bit seed for (seed, stream)."""
    return _splitmix64(_splitmix64(seed & _MASK64) ^ _splitmix64(stream & _MASK64))


def rng_for(seed: int, stream: int = 0) -> random.Random:
    return random.Random(stream_seed(seed, stream))


def sample_without_replacement(rng: random.Random, pool: list[int], k: int) -> list[int]:
    """Uniform k-subset as an ordered vector, via a partial Fisher-Yates."""
    if k > len(pool):
        raise PreconditionError("cannot sample more entries than the pool holds")
    work = list(pool)
    for i in range(k):
        j = rng.randrange(i, len(work))
        work[i], work[j] = work[j], work[i]
    return work[:k]


def sample_iid(
    dist: FiniteDistribution, n: int, seed: int, stream: int = 0
) -> TrainingSequence:
    """n i.i.d. draws by inverse CDF over the exact cumulative masses.

    The uniform variate is r / 2**64 for a 64-bit integer r, compared against
    the exact cumulative fractions, so atom selection never rounds.
    """
    if n < 0:
        raise PreconditionError("sample size must be >= 0")
    rng = rng_for(seed, stream)
    cum = dist.cumulative()
    out = []
    for _ in range(n):
        u = Fraction(rng.getrandbits(64), 1 << 64)
        idx = bisect.bisect_right(cum, u)
        atom = dist.atoms[min(idx, len(cum) - 1)]
        out.append(LabeledExample(atom.point, atom.label))
    return tuple(out)
