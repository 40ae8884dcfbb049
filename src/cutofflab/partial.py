"""Partial concept classes: VC dimension, shattering strength, disambiguation.

Concepts are strings over the alphabet "01*" ('*' = undefined), which is also
the row file format the CLI reads and writes.  A class turns its strings into
bitmasks once, on first use: a (star, value) mask over the domain per concept,
and per domain point the bitsets of the concepts labelled 0 and 1 there.  Its
realizer table maps every shattered domain subset to one concept bitset per
pattern on it.  The table is searched once per class, and it serves the VC
dimension and every restriction of the greedy disambiguation, whose working
classes are concept bitsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import core
from .errors import BudgetExceededError, PreconditionError

STAR = "*"
MAX_DOMAIN = 16
# a row's characters labelled 0, labelled 1 and undefined, as the 1s of a bit string
_ZERO = str.maketrans("01*", "100")
_ONE = str.maketrans("01*", "010")
_STARS = str.maketrans("01*", "001")


@dataclass(frozen=True)
class PartialClass:
    """Deduplicated set of partial concepts over a shared indexed domain.
    A star-free class is total; `disambiguate` returns one."""

    domain_size: int
    concepts: tuple[str, ...]

    def __post_init__(self):
        concepts = tuple(sorted(set(self.concepts)))
        object.__setattr__(self, "concepts", concepts)
        for c in concepts:
            if len(c) != self.domain_size or c.strip("01*"):
                raise PreconditionError(f"bad concept row {c!r} for domain size {self.domain_size}")

    def size(self) -> int:
        return len(self.concepts)

    @functools.cached_property
    def masks(self) -> tuple[tuple[int, int], ...]:
        """(star_mask, value_mask) per concept; bit i = domain index i."""
        return tuple((_bits(c, _STARS), _bits(c, _ONE)) for c in self.concepts)

    @functools.cached_property
    def sides(self) -> tuple[tuple[int, int], ...]:
        """(zero_at, one_at) per domain point: the bitsets of the concepts
        labelled 0 and 1 there; bit k = concept k."""
        columns = map("".join, zip(*self.concepts))
        return tuple((_bits(c, _ZERO), _bits(c, _ONE)) for c in columns)

    @functools.cached_property
    def realizers(self) -> dict[int, tuple[int, ...]]:
        """Every shattered domain subset S as a bitmask (the empty set counts
        for a nonempty class), mapped to its 2^|S| pattern bitsets: entry k
        holds the concepts defined on S whose labels, read in point order as
        the bits of k from the lowest, spell k."""
        check_domain_size(self.domain_size)
        return _realizer_table(self.sides, len(self.concepts))


def _bits(text: str, table: dict) -> int:
    """The int whose bit i is text[i] mapped through `table` to 0 or 1; 0 for
    empty text."""
    return int("0" + text[::-1].translate(table), 2)


def check_domain_size(domain_size: int) -> None:
    """Refuse a domain of more than MAX_DOMAIN points, the cap of every
    search over a partial class's domain subsets."""
    if domain_size > MAX_DOMAIN:
        raise BudgetExceededError(f"domain size {domain_size} exceeds the cap of {MAX_DOMAIN}")


def _realizer_table(sides, size):
    """The realizer table of `size` concepts with these sides, by size layers.

    A set grows only by points above its largest, so each shattered set is
    reached once, from itself less its largest point.  S | {i} is shattered
    exactly when every pattern bitset of S meets both sides of i, and its
    pattern bitsets are those ANDs.  Each layer is charged to the enumeration
    ceiling before it is stored, each pattern bitset once per 1,024 concepts
    (128 bytes), so a class of up to 1,024 concepts is charged its pattern
    count."""
    if not size:
        return {}
    budget = core.enumeration_budget()
    units = -(-size // 1024)
    table = {}
    charged = 0
    layer = {0: ((1 << size) - 1,)}
    width = 1
    while layer:
        charged += len(layer) * width * units
        if charged > budget:  # the ceiling is read once; _budgeted phrases the refusal
            core._budgeted("partial-class realizer table", charged)
        table.update(layer)
        grown = {}
        for subset, patterns in layer.items():
            for i in range(subset.bit_length(), len(sides)):
                zero, one = sides[i]
                low = tuple(map(zero.__and__, patterns))
                if all(low):
                    high = tuple(map(one.__and__, patterns))
                    if all(high):
                        grown[subset | 1 << i] = low + high
        layer = grown
        width *= 2
    return table


def partial_vc_dimension(cls: PartialClass) -> int:
    """Largest shattered-set size; 0 for the empty class (flagged convention)."""
    return max((subset.bit_count() for subset in cls.realizers), default=0)


def ln_disambiguation_bound(d: int, n: int) -> float:
    """2 d Ln^2(e n / d) with Ln(x) = max(2, ln x); upper-bounds ln of the
    disambiguation size produced by the greedy procedure."""
    if d < 1 or n < 1:
        raise PreconditionError("bound needs d >= 1 and n >= 1")
    return 2.0 * d * max(2.0, math.log(math.e * n / d)) ** 2


def within_disambiguation_bound(size: int, d: int, n: int) -> bool:
    """The lemma's pass rule for a disambiguation of `size` concepts of a
    class of VC dimension d on n points: ln size <= ln_disambiguation_bound(d,
    n) for d >= 1, and size == 1 for d = 0."""
    if d == 0:
        return size == 1
    return math.log(size) <= ln_disambiguation_bound(d, n)


def disambiguate(cls: PartialClass) -> PartialClass:
    """Greedy completion of every concept into a total one; the result is a
    star-free class.

    Scanning the domain in index order, each coordinate is written with the
    restriction-strength-maximizing label M (ties toward 1) unless the concept
    itself is defined and disagrees, in which case the concept's label is
    written and the working class restricts to the concepts sharing it.  The
    output disambiguates the input: it agrees with every concept wherever that
    concept is defined.

    A working class is a concept bitset, and its children at a coordinate are
    its ANDs with that coordinate's two sides.  A working class's family holds
    each set it shatters as the set's pattern bitsets in the class's realizer
    table.  Restriction can only shrink the family, so a child keeps the sets
    of its parent's family whose every pattern bitset it meets, and each
    working class is split at each coordinate once, however many concepts
    pass through it.
    """
    check_domain_size(cls.domain_size)
    if not cls.concepts:
        raise PreconditionError("disambiguation needs a nonempty class")
    sides = cls.sides
    root = (1 << len(cls.concepts)) - 1
    families = {root: tuple(cls.realizers.values())}

    @functools.cache
    def split(kept, coord):
        """The majority label at coord (ties toward 1), and the bitsets of
        the concepts of `kept` labelled 0 and 1 there."""
        zero, one = (kept & side for side in sides[coord])
        for sub in (zero, one):
            if sub not in families:
                families[sub] = [p for p in families[kept] if all(map(sub.__and__, p))]
        return int(len(families[one]) >= len(families[zero])), (zero, one)

    out = []
    for concept, (star, value) in zip(cls.concepts, cls.masks):
        kept = root
        bar = 0
        written = []
        for coord, ch in enumerate(concept):
            label, branches = split(kept, coord)
            if ch != STAR and int(ch) != label:
                label = int(ch)
                kept = branches[label]
            bar |= label << coord
            written.append("01"[label])
        if (value ^ bar) & ~star:  # pragma: no cover - internal check
            raise AssertionError("greedy disambiguation violated agreement")
        out.append("".join(written))
    return PartialClass(cls.domain_size, tuple(out))


# ---------------------------------------------------------------------------
# Row file format: one concept per line, characters in {0, 1, *}
# ---------------------------------------------------------------------------


def read_rows(text: str) -> PartialClass:
    from .errors import ParseError

    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty partial-class file")
    width = len(lines[0])
    for line in lines:
        if len(line) != width or line.strip("01*"):
            raise ParseError(f"bad row {line!r}")
    return PartialClass(width, tuple(lines))


def write_rows(cls) -> str:
    return "\n".join(cls.concepts) + "\n"
