"""Partial concept classes: VC dimension, shattering strength, disambiguation.

Concepts are strings over the alphabet "01*" ('*' = undefined), which is also
the row file format the CLI reads and writes.  A class turns its strings into
bitmasks, and searches its shattered family, once, on first use.  The search
prunes hereditarily: a set can only be shattered if all of its subsets are, so
candidates grow one element at a time from the shattered family of the
previous size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import BudgetExceededError, PreconditionError

STAR = "*"
MAX_DOMAIN = 16


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
            if len(c) != self.domain_size or any(ch not in "01*" for ch in c):
                raise PreconditionError(f"bad concept row {c!r} for domain size {self.domain_size}")

    def size(self) -> int:
        return len(self.concepts)

    @functools.cached_property
    def masks(self) -> tuple[tuple[int, int], ...]:
        """(star_mask, value_mask) per concept; bit i = domain index i."""
        def bits(concept, ch):
            return sum(1 << i for i, c in enumerate(concept) if c == ch)

        return tuple((bits(c, STAR), bits(c, "1")) for c in self.concepts)

    @functools.cached_property
    def shattered_family(self) -> tuple[int, ...]:
        """Bitmasks of every shattered domain subset (the empty set counts for
        a nonempty class), found by size-layered search with hereditary
        pruning."""
        check_domain_size(self.domain_size)
        if not self.concepts:
            return ()
        masks = self.masks
        family = [0]
        layer = {0}
        size = 0
        n = self.domain_size
        while layer:
            size += 1
            candidates = set()
            for base in layer:
                for i in range(n):
                    bit = 1 << i
                    if not base & bit:
                        candidates.add(base | bit)
            prev = layer
            layer = set()
            for cand in candidates:
                # hereditary filter: every (size-1)-subset must be shattered
                if size > 1 and any((cand & ~(1 << i)) not in prev for i in range(n) if cand & (1 << i)):
                    continue
                if _is_shattered(cand, size, masks):
                    layer.add(cand)
            family.extend(layer)
        return tuple(family)


def check_domain_size(domain_size: int) -> None:
    """Refuse a domain of more than MAX_DOMAIN points, the cap of every
    search over a partial class's domain subsets."""
    if domain_size > MAX_DOMAIN:
        raise BudgetExceededError(f"domain size {domain_size} exceeds the cap of {MAX_DOMAIN}")


def _is_shattered(subset_mask, subset_size, masks):
    need = 1 << subset_size
    seen = set()
    for star, val in masks:
        if star & subset_mask:
            continue
        seen.add(val & subset_mask)
        if len(seen) == need:
            return True
    return len(seen) == need


def partial_vc_dimension(cls: PartialClass) -> int:
    """Largest shattered-set size; 0 for the empty class (flagged convention)."""
    family = cls.shattered_family
    if not family:
        return 0
    return max(mask.bit_count() for mask in family)


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

    A working class is its tuple of concept indices.  Restriction can only
    shrink the shattered family, so a new working class's family is filtered
    from its parent's, and each working class is split at each coordinate
    once, however many concepts pass through it.
    """
    check_domain_size(cls.domain_size)
    if not cls.concepts:
        raise PreconditionError("disambiguation needs a nonempty class")
    masks = cls.masks
    root = tuple(range(len(cls.concepts)))
    families = {root: cls.shattered_family}

    @functools.cache
    def split(kept, coord):
        """The majority label at coord (ties toward 1), and the concepts of
        `kept` labelled 0 and 1 there."""
        bit = 1 << coord
        zero, one = (
            tuple(i for i in kept if not masks[i][0] & bit and masks[i][1] & bit == want)
            for want in (0, bit)
        )
        for sub in (zero, one):
            if sub not in families:
                sub_masks = [masks[i] for i in sub]
                families[sub] = [m for m in families[kept] if _is_shattered(m, m.bit_count(), sub_masks)]
        return int(len(families[one]) >= len(families[zero])), (zero, one)

    out = []
    for concept in cls.concepts:
        kept = root
        written = []
        for coord, ch in enumerate(concept):
            majority, branches = split(kept, coord)
            if ch == STAR or int(ch) == majority:
                written.append(str(majority))
            else:
                written.append(ch)
                kept = branches[int(ch)]
        out.append("".join(written))
    for concept, bar in zip(cls.concepts, out):
        agrees = all(a in (STAR, b) for a, b in zip(concept, bar))
        if STAR in bar or not agrees:  # pragma: no cover - internal check
            raise AssertionError("greedy disambiguation left a star or violated agreement")
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
        if len(line) != width or any(ch not in "01*" for ch in line):
            raise ParseError(f"bad row {line!r}")
    return PartialClass(width, tuple(lines))


def write_rows(cls) -> str:
    return "\n".join(cls.concepts) + "\n"
