"""Brute-force combinatorial dimensions: graph shattering and one-inclusion graphs.

Every search here is exhaustive within an explicit budget and refuses (typed
error) rather than returning a truncated answer.  Every gamma must lie in (0, 1).

Every table of values is read as integers with one scale: every value is
multiplied by the lcm of the table's denominators, so gamma-farness is one
integer comparison against floor(scale * gamma) at every coordinate.

A set is gamma-graph shattered with witness w exactly when the loss patterns
on w's values (0 where a member equals w, 1 where it is gamma-far from w)
VC-shatter it, so the shattering search grows each witness's sets with
`partial._realizer_table` from its sides at each pool point.  Certificates
are still re-verified on the hypotheses' own values, through
`core.gamma_far`, before they leave this module.

The one-inclusion graphs are integer-coded by the same scaling: a vertex is a
restriction times the graph's scale, and an out-degree counts the coordinates
whose scaled difference exceeds the threshold.
"""

from __future__ import annotations

import collections
import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Optional

from . import core, partial
from .errors import BudgetExceededError, PreconditionError

DEFAULT_POINT_CAP = 12


class ShatterCertificate(core.Record):
    """Witnessed shattering of a point sequence.

    For every bit pattern b over the points, ``pattern_witnesses[b]`` agrees
    with the witness where b_i = 0 and is strictly gamma-far where b_i = 1.
    """

    _fields = ("points", "witness", "pattern_witnesses")

    def __init__(self, points: tuple[core.Point, ...], witness: core.Hypothesis,
                 pattern_witnesses: dict[tuple[int, ...], core.Hypothesis]):
        self._set(points=points, witness=witness, pattern_witnesses=pattern_witnesses)

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


def _sides(column, threshold: int):
    """A map from a value v of the integer column to v's sides: the bitsets
    of the rows whose value is v and of those more than the threshold from v.
    With the distinct values sorted and ``below[j]`` the rows of the j
    smallest, the rows whose values lie in a range are found by bisection."""
    values = sorted(set(column))
    below = [0] * (len(values) + 1)
    for k, v in enumerate(column):
        below[bisect_right(values, v)] |= 1 << k
    below = list(itertools.accumulate(below))  # disjoint groups: sums are unions

    def within(low, high):
        return below[bisect_right(values, high)] ^ below[bisect_left(values, low)]

    return lambda v: (within(v, v), below[-1] ^ within(v - threshold, v + threshold))


def _certificate(points, witness, members, patterns, gamma: Fraction) -> ShatterCertificate:
    """The certificate of 2^d pattern bitsets over the members, entry k for
    the pattern whose bit i is bit i of k.  The witness takes the all-zeros
    pattern, and every other pattern its first member, the lowest bit of its
    bitset; they are listed in the order of those members."""
    found = {(0,) * len(points): witness}
    for i, k in sorted(((p & -p).bit_length() - 1, k) for k, p in enumerate(patterns) if k):
        found[tuple(k >> t & 1 for t in range(len(points)))] = members[i]
    cert = ShatterCertificate(points, witness, found)
    if not cert.verify(gamma):  # pragma: no cover - internal consistency check
        raise AssertionError("shattering certificate failed self-verification")
    return cert


def check_graph_shattered(points, cls, witness, gamma: Fraction) -> Optional[ShatterCertificate]:
    """Certificate iff every one of the 2^d match/far patterns is realized.

    The witness serves as the all-zeros pattern's witness directly; pattern
    witnesses are the first matches in the class's canonical enumeration.
    The witness's values are read as one more row, after the class's, and
    the points are folded in order as in `partial._realizer_table`, from the
    one pattern bitset of all rows to the 2^d of the points.
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
    rows = _value_vectors(cls, points)
    vectors = [vec for _, vec in rows] + [tuple(map(witness.value_at, points))]
    table, scale = _scaled(vectors, len(points))
    threshold = _threshold(scale, gamma)
    patterns = ((1 << len(table)) - 1,)
    for column, v in zip(zip(*table), table[-1]):
        # one value's sides, so no `_sides` table: the loss-pattern row partial reads
        labels = "".join("0" if a == v else "1" if abs(a - v) > threshold else "*" for a in column)
        zero, one = partial._bits(labels, partial._ZERO), partial._bits(labels, partial._ONE)
        patterns = tuple(zero & p for p in patterns) + tuple(one & p for p in patterns)
        if not all(patterns):
            return None
    return _certificate(points, witness, [h for h, _ in rows], patterns, gamma)


def _witness_tables(cls, pool, gamma: Fraction, most: int):
    """The class's members defined on the pool, in enumeration order, and an
    iterator of each one's `partial._realizer_table` up to sets of `most`
    points, from its sides at each pool point.  The `_sides` bitsets are
    charged as realizer tables are, each once per 1,024 members, and on the
    unscaled values, before any is scaled: scaling is one-to-one, so the
    count is the same, and a refused pool builds no scaled cell."""
    core._budgeted("class restricted to the pool", cls.size() * len(pool))
    rows = _value_vectors(cls, pool)
    vectors = [vec for _, vec in rows]
    bitsets = sum(len(set(column)) + 1 for column in zip(*vectors))
    core._budgeted("side bitsets of the pool", -(-len(vectors) // 1024) * bitsets)
    table, scale = _scaled(vectors, len(pool))
    columns = [_sides(column, _threshold(scale, gamma)) for column in zip(*table)]
    tables = (
        partial._realizer_table([side(v) for side, v in zip(columns, row)], len(table), most)
        for row in table
    )
    return [h for h, _ in rows], tables


def find_shattered_set(cls, pool, gamma, size):
    """First (in pool-combination order) shattered size-set, certified with
    the first witness in enumeration order that shatters it."""
    gamma = core.read_gamma(gamma)
    if size == 0:
        members = cls.hypotheses
        return check_graph_shattered((), cls, members[0], gamma) if members else None
    if size > DEFAULT_POINT_CAP:
        raise BudgetExceededError(f"size {size} exceeds the point cap {DEFAULT_POINT_CAP}")
    pool = tuple(pool)
    members, tables = _witness_tables(cls, pool, gamma, size)
    # spelled from the lowest bit, the earlier of two sets of one size reads larger
    best = ("",)
    for witness, table in zip(members, tables):
        for subset, patterns in table.items():
            if subset.bit_count() == size and (key := format(subset, "b")[::-1]) > best[0]:
                best = key, witness, patterns
        if best[0] == "1" * size:  # the first set of all
            break
    if len(best) == 1:
        return None
    key, witness, patterns = best
    points = tuple(x for x, bit in zip(pool, key) if bit == "1")
    return _certificate(points, witness, members, patterns, gamma)


def gamma_graph_dimension(cls, pool, gamma, cap_d: int = DEFAULT_POINT_CAP) -> int:
    """Largest d <= cap_d with a shattered d-sequence in the pool (exhaustive).

    Each witness's realizer table is grown up to cap_d points, or the point
    cap.  If every size up to cap_d is shattered the true dimension may
    exceed the cap and we refuse, reporting cap_d as a certified lower bound.
    """
    if cap_d < 1:
        raise PreconditionError(f"the dimension search cap must be at least 1, got {cap_d}")
    pool = tuple(pool)
    gamma = core.read_gamma(gamma)
    reach = min(cap_d, len(pool))
    if not reach:
        return 0
    _, tables = _witness_tables(cls, pool, gamma, min(reach, DEFAULT_POINT_CAP))
    best = max((max(map(int.bit_count, table)) for table in tables), default=0)
    if best == DEFAULT_POINT_CAP < reach:
        raise BudgetExceededError(f"size {best + 1} exceeds the point cap {DEFAULT_POINT_CAP}")
    if best == cap_d < len(pool):
        raise BudgetExceededError(f"dimension is at least {best} but the search cap is {cap_d}")
    return best


# ---------------------------------------------------------------------------
# One-inclusion graphs
# ---------------------------------------------------------------------------

Vertex = tuple[int, ...]  # a restriction times the graph's scale
EdgeKey = tuple[int, Vertex]  # (free coordinate, scaled values elsewhere)


class OneInclusionGraph(core.Record):
    """Hypergraph on class restrictions: edge (f, i) groups the vertices that
    agree with f on every coordinate except i.

    A vertex holds the restriction's value at points[i] times the graph's one
    scale, the lcm of the denominators of the class's values on the points,
    so the value is ``Fraction(vertex[i], scale)``.  Vertices are sorted, in
    the order of the restrictions they scale, and so are the members of each
    edge.
    """

    _fields = ("points", "scale", "vertices", "edges")

    def __init__(self, points: tuple[core.Point, ...], scale: int, vertices: tuple[Vertex, ...],
                 edges: dict[EdgeKey, tuple[Vertex, ...]]):
        self._set(points=points, scale=scale, vertices=vertices, edges=edges)


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
