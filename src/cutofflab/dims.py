"""Brute-force combinatorial dimensions: graph shattering and one-inclusion graphs.

Every search here is exhaustive within an explicit budget and refuses (typed
error) rather than returning a truncated answer.  Every gamma must lie in (0, 1).

Every table of values is read as integers with one scale: every value is
multiplied by the lcm of the table's denominators, so gamma-farness is one
integer comparison against floor(scale * gamma) at every coordinate.

The shattering search restricts the class to the pool once and gives each
witness two bitmasks per hypothesis over the pool: ``far`` marks where
`core.gamma_far(h, w, gamma)` holds and ``near`` where h != w but not far.  A
subset S of the pool, itself a bitmask, gets the pattern ``far & S`` from a
hypothesis, or no pattern when ``near & S`` is nonzero.  Certificates are
still re-verified on the hypotheses' own values, through `core.gamma_far`,
before they leave this module.

The one-inclusion graphs are integer-coded by the same scaling: a vertex is a
restriction times the graph's scale, and an out-degree counts the coordinates
whose scaled difference exceeds the threshold.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import core
from .errors import BudgetExceededError, PreconditionError

DEFAULT_POINT_CAP = 12


@dataclass(frozen=True)
class ShatterCertificate:
    """Witnessed shattering of a point sequence.

    For every bit pattern b over the points, ``pattern_witnesses[b]`` agrees
    with the witness where b_i = 0 and is strictly gamma-far where b_i = 1.
    """

    points: tuple[core.Point, ...]
    witness: core.Hypothesis
    pattern_witnesses: dict[tuple[int, ...], core.Hypothesis]

    def verify(self, gamma: Fraction) -> bool:
        gamma = Fraction(gamma)
        for pattern, h in self.pattern_witnesses.items():
            if len(pattern) != len(self.points):
                return False
            for bit, x in zip(pattern, self.points):
                value, target = h.value_at(x), self.witness.value_at(x)
                if not (core.gamma_far(value, target, gamma) if bit else value == target):
                    return False
        return len(self.pattern_witnesses) == 2 ** len(self.points)


def _value_vectors(cls, points):
    """(hypothesis, restriction tuple) pairs over the given points."""
    out = []
    for h in cls.hypotheses:
        try:
            out.append((h, tuple(map(h.value_at, points))))
        except core.DomainMismatchError:
            continue
    return out


def _scaled(vectors, width: int):
    """The ``width``-wide vectors as integer rows, every value times one
    scale, and the scale: the lcm of the values' denominators (1 when there
    are none).  A positive scale keeps equality and lexicographic order."""
    ratios = [v.as_integer_ratio() for v in itertools.chain.from_iterable(vectors)]
    scale = math.lcm(*{d for _, d in ratios})
    flat = iter([n * (scale // d) for n, d in ratios])
    # each row cut from the one stream of scaled cells
    table = list(zip(*[flat] * width)) if width else [()] * len(vectors)
    return table, scale


def _threshold(scale: int, gamma: Fraction) -> int:
    """The largest scaled difference that is not gamma-far: for scale s,
    `core.gamma_far(v, w, gamma)` holds iff |s*v - s*w| > floor(s*gamma)."""
    return gamma.numerator * scale // gamma.denominator


def _masks(table, witness_row, threshold: int) -> list[tuple[int, int]]:
    """(far, near) bitmasks of each row against the witness row: bit j of
    ``far`` marks `core.gamma_far` at coordinate j, the definition this
    integer test must agree with, and bit j of ``near`` an inexact value
    that is not far."""
    out = []
    for row in table:
        far = near = 0
        bit = 1
        for a, b in zip(row, witness_row):
            diff = abs(a - b)
            if diff > threshold:
                far |= bit
            elif diff:
                near |= bit
            bit <<= 1
        out.append((far, near))
    return out


def _certify(points, idx, witness, rows, masks, gamma) -> Optional[ShatterCertificate]:
    """Certificate iff the witness's masks realize all 2^d patterns on the
    coordinates ``idx``.

    A hypothesis gives the subset S (as a bitmask) the pattern ``far & S``,
    or none when ``near & S`` is nonzero.  The witness takes the all-zeros
    pattern; every other pattern goes to its first hypothesis in ``rows``.
    """
    subset = sum(1 << i for i in idx)
    # count the patterns before naming witnesses: most pairs tried fail
    realized = {far & subset for far, near in masks if not near & subset}
    realized.add(0)
    if len(realized) != 1 << len(idx):
        return None
    found = {0: witness}
    for (h, _), (far, near) in zip(rows, masks):
        if not near & subset:
            found.setdefault(far & subset, h)
    cert = ShatterCertificate(
        points,
        witness,
        {tuple((p >> i) & 1 for i in idx): h for p, h in found.items()},
    )
    if not cert.verify(gamma):  # pragma: no cover - internal consistency check
        raise AssertionError("shattering certificate failed self-verification")
    return cert


class _ShatterSearch:
    """The class restricted to one pool at one gamma: its rows as integers,
    built on the first search the budget admits (class size times pool size
    within enumeration_budget()), and each witness row's masks, built on the
    witness's first use."""

    def __init__(self, cls, pool, gamma: Fraction):
        self.cls, self.pool, self.gamma = cls, pool, gamma
        self.rows = None

    def first(self, size: int) -> Optional[ShatterCertificate]:
        """First (in pool order, then enumeration order) shattered size-set;
        refused when the pool has more size-sets than enumeration_budget()."""
        if size > DEFAULT_POINT_CAP:
            raise BudgetExceededError(f"size {size} exceeds the point cap {DEFAULT_POINT_CAP}")
        core._budgeted(f"family of candidate {size}-point sets", math.comb(len(self.pool), size))
        if self.rows is None:
            core._budgeted("class restricted to the pool", self.cls.size() * len(self.pool))
            self.rows = _value_vectors(self.cls, self.pool)
            self.table, scale = _scaled([vec for _, vec in self.rows], len(self.pool))
            self.threshold = _threshold(scale, self.gamma)
            self.masks = [None] * len(self.rows)
        for idx in itertools.combinations(range(len(self.pool)), size):
            points = tuple(self.pool[i] for i in idx)
            for k, (witness, _) in enumerate(self.rows):
                if self.masks[k] is None:
                    self.masks[k] = _masks(self.table, self.table[k], self.threshold)
                cert = _certify(points, idx, witness, self.rows, self.masks[k], self.gamma)
                if cert is not None:
                    return cert
        return None


def check_graph_shattered(points, cls, witness, gamma: Fraction) -> Optional[ShatterCertificate]:
    """Certificate iff every one of the 2^d match/far patterns is realized.

    The witness must be a member of the class (it serves as the all-zeros
    pattern's witness directly); pattern witnesses are the first matches in
    the class's canonical enumeration.
    """
    points = tuple(points)
    gamma = core.read_gamma(gamma)
    if len(set(points)) != len(points):
        raise PreconditionError("shattering points must be distinct")
    if len(points) > DEFAULT_POINT_CAP:
        raise BudgetExceededError(f"{len(points)} points exceed the cap of {DEFAULT_POINT_CAP}")
    if not points:
        return ShatterCertificate(points, witness, {(): witness})
    core._budgeted("class restricted to the points", cls.size() * len(points))
    witness_vec = tuple(map(witness.value_at, points))
    rows = _value_vectors(cls, points)
    (witness_row, *table), scale = _scaled([witness_vec] + [vec for _, vec in rows], len(points))
    masks = _masks(table, witness_row, _threshold(scale, gamma))
    return _certify(points, range(len(points)), witness, rows, masks, gamma)


def find_shattered_set(cls, pool, gamma, size):
    """First (in pool order, then enumeration order) shattered size-set."""
    gamma = core.read_gamma(gamma)
    if size == 0:
        members = cls.hypotheses
        return check_graph_shattered((), cls, members[0], gamma) if members else None
    return _ShatterSearch(cls, tuple(pool), gamma).first(size)


def gamma_graph_dimension(cls, pool, gamma, cap_d: int = DEFAULT_POINT_CAP) -> int:
    """Largest d <= cap_d with a shattered d-sequence in the pool (exhaustive).

    Shattering is monotone under taking subsets, so the search stops at the
    first size with no shattered set.  If every size up to cap_d is shattered
    the true dimension may exceed the cap and we refuse, reporting cap_d as a
    certified lower bound.
    """
    if cap_d < 1:
        raise PreconditionError(f"the dimension search cap must be at least 1, got {cap_d}")
    pool = tuple(pool)
    search = _ShatterSearch(cls, pool, core.read_gamma(gamma))
    best = 0
    for d in range(1, min(cap_d, len(pool)) + 1):
        if search.first(d) is None:
            return best
        best = d
    if best == cap_d < len(pool):
        raise BudgetExceededError(f"dimension is at least {best} but the search cap is {cap_d}")
    return best


# ---------------------------------------------------------------------------
# One-inclusion graphs
# ---------------------------------------------------------------------------

Vertex = tuple[int, ...]  # a restriction times the graph's scale
EdgeKey = tuple[int, Vertex]  # (free coordinate, scaled values elsewhere)


@dataclass(frozen=True)
class OneInclusionGraph:
    """Hypergraph on class restrictions: edge (f, i) groups the vertices that
    agree with f on every coordinate except i.

    A vertex holds the restriction's value at points[i] times the graph's one
    scale, the lcm of the denominators of the class's values on the points,
    so the value is ``Fraction(vertex[i], scale)``.  Vertices are sorted, in
    the order of the restrictions they scale, and so are the members of each
    edge.
    """

    points: tuple[core.Point, ...]
    scale: int
    vertices: tuple[Vertex, ...]
    edges: dict[EdgeKey, tuple[Vertex, ...]]


Orientation = dict[EdgeKey, Vertex]


def _graph_on(points, scale, vertices) -> OneInclusionGraph:
    """One-inclusion graph on sorted vertices: an edge joins the vertices
    that agree off one coordinate."""
    edges: dict[EdgeKey, list[Vertex]] = {}
    for v in vertices:
        for i in range(len(points)):
            edges.setdefault((i, v[:i] + v[i + 1 :]), []).append(v)
    return OneInclusionGraph(
        points, scale, tuple(vertices), {k: tuple(ms) for k, ms in edges.items()}
    )


def build_oig(cls, points) -> OneInclusionGraph:
    """One-inclusion graph of the class's restrictions to the points,
    refused when class size times points squared, which bounds the graph's
    size, exceeds enumeration_budget()."""
    points = tuple(points)
    if not points:
        raise PreconditionError("one-inclusion graph needs at least one point")
    if len(set(points)) != len(points):
        raise PreconditionError("points must be distinct")
    core._budgeted("one-inclusion graph", cls.size() * len(points) ** 2)
    table, scale = _scaled([vec for _, vec in _value_vectors(cls, points)], len(points))
    return _graph_on(points, scale, sorted(set(table)))


def induced_subgraph(graph: OneInclusionGraph, vertices) -> OneInclusionGraph:
    """Sub-hypergraph on a vertex subset; edges regroup among the survivors.

    The out-degree condition quantifies over finite subgraphs, so orientation
    evidence is collected on the full induced graph and on random vertex
    subsets of it.
    """
    kept = sorted(set(vertices))
    missing = set(kept) - set(graph.vertices)
    if missing:
        raise PreconditionError(f"{len(missing)} vertices are not in the graph")
    if not kept:
        raise PreconditionError("subgraph needs at least one vertex")
    return _graph_on(graph.points, graph.scale, kept)


def orient_smallest_value(graph: OneInclusionGraph) -> Orientation:
    """Point each edge at its member with the smallest value in the free
    coordinate: its first member, as the members of an edge are sorted and
    differ only in that coordinate."""
    return {key: members[0] for key, members in graph.edges.items()}


def _max_outdegree(graph: OneInclusionGraph, orientation: Orientation, threshold: int) -> int:
    """Most edges any vertex loses to a target whose scaled value differs by
    more than the threshold (0 on a graph with no vertices).  Each edge is
    walked once, as each (vertex, coordinate) pair lies in exactly one edge:
    the one free in that coordinate.  An edge whose one member is its target
    loses nothing and is skipped."""
    degrees = dict.fromkeys(graph.vertices, 0)
    for key, members in graph.edges.items():
        target = orientation[key]
        if len(members) == 1 and target is members[0]:
            continue
        i = key[0]
        value = target[i]
        for v in members:
            if abs(value - v[i]) > threshold:
                degrees[v] += 1
    return max(degrees.values(), default=0)


def max_gamma_outdegree(graph: OneInclusionGraph, orientation: Orientation, gamma) -> int:
    """Most edges any vertex loses to a `core.gamma_far` target (0 on a graph
    with no vertices), decided on the scaled values against `_threshold`."""
    threshold = _threshold(graph.scale, core.read_gamma(gamma))
    missing = graph.edges.keys() - orientation.keys()
    if missing:
        raise PreconditionError(f"orientation leaves {len(missing)} edges unoriented")
    return _max_outdegree(graph, orientation, threshold)


def exhaustive_orientation_min(graph: OneInclusionGraph, gamma) -> tuple[Orientation, int]:
    """Orientation minimizing the max gamma-out-degree, by product search over
    the multi-member edges, refused past enumeration_budget() orientations."""
    threshold = _threshold(graph.scale, core.read_gamma(gamma))
    fixed = {k: ms[0] for k, ms in graph.edges.items() if len(ms) == 1}
    multi = [(k, ms) for k, ms in sorted(graph.edges.items()) if len(ms) > 1]
    # equal sizes as one power each: exact, and instant on many small edges
    sizes = collections.Counter(len(ms) for _, ms in multi)
    core._budgeted("orientation search space", math.prod(s**c for s, c in sizes.items()))
    keys = [k for k, _ in multi]
    best_orientation, best_value = None, None
    for choice in itertools.product(*(ms for _, ms in multi)):
        orientation = dict(fixed)
        orientation.update(zip(keys, choice))
        value = _max_outdegree(graph, orientation, threshold)
        if best_value is None or value < best_value:
            best_orientation, best_value = orientation, value
            if best_value == 0:
                break
    return best_orientation, best_value
