"""Brute-force combinatorial dimensions: graph shattering and one-inclusion graphs.

Every search here is exhaustive within an explicit budget and refuses (typed
error) rather than returning a truncated answer.  Certificates returned by the
shattering search are re-verified by direct evaluation before they leave this
module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import core
from .errors import BudgetExceededError, PreconditionError

DEFAULT_POINT_CAP = 12
DEFAULT_MULTI_EDGE_CAP = 20
_ORIENTATION_COMBO_CAP = 200_000


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
                diff = abs(h.value_at(x) - self.witness.value_at(x))
                if bit == 0 and diff != 0:
                    return False
                if bit == 1 and diff <= gamma:
                    return False
        return len(self.pattern_witnesses) == 2 ** len(self.points)


def _value_vectors(cls, points):
    """(hypothesis, restriction tuple) pairs over the given points."""
    out = []
    for h in cls.hypotheses():
        try:
            out.append((h, tuple(h.value_at(x) for x in points)))
        except core.DomainMismatchError:
            continue
    return out


def _pattern_of(vec, witness_vec, gamma):
    """Unique pattern a restriction realizes against a witness, or None."""
    bits = []
    for v, w in zip(vec, witness_vec):
        diff = abs(v - w)
        if diff == 0:
            bits.append(0)
        elif diff > gamma:
            bits.append(1)
        else:
            return None
    return tuple(bits)


def check_graph_shattered(points, cls, witness, gamma: Fraction) -> Optional[ShatterCertificate]:
    """Certificate iff every one of the 2^d match/far patterns is realized.

    The witness must be a member of the class (it serves as the all-zeros
    pattern's witness directly); pattern witnesses are the first matches in
    the class's canonical enumeration.
    """
    points = tuple(points)
    gamma = Fraction(gamma)
    if len(set(points)) != len(points):
        raise PreconditionError("shattering points must be distinct")
    if len(points) > DEFAULT_POINT_CAP:
        raise BudgetExceededError(f"{len(points)} points exceed the cap of {DEFAULT_POINT_CAP}")
    if not points:
        return ShatterCertificate(points, witness, {(): witness})
    witness_vec = tuple(witness.value_at(x) for x in points)
    found: dict[tuple[int, ...], core.Hypothesis] = {(0,) * len(points): witness}
    need = 2 ** len(points)
    for h, vec in _value_vectors(cls, points):
        pattern = _pattern_of(vec, witness_vec, gamma)
        if pattern is not None and pattern not in found:
            found[pattern] = h
            if len(found) == need:
                break
    if len(found) != need:
        return None
    cert = ShatterCertificate(points, witness, found)
    if not cert.verify(gamma):  # pragma: no cover - internal consistency check
        raise AssertionError("shattering certificate failed self-verification")
    return cert


def find_shattered_set(cls, pool, gamma, size):
    """First (in pool order, then enumeration order) shattered size-set."""
    pool = tuple(pool)
    gamma = Fraction(gamma)
    if size > DEFAULT_POINT_CAP:
        raise BudgetExceededError(f"size {size} exceeds the point cap {DEFAULT_POINT_CAP}")
    if size == 0:
        for h in cls.hypotheses():
            return check_graph_shattered((), cls, h, gamma)
        return None
    vectors = _value_vectors(cls, pool)
    need = 2 ** size
    for idx in itertools.combinations(range(len(pool)), size):
        points = tuple(pool[i] for i in idx)
        for witness, wvec in vectors:
            witness_sub = tuple(wvec[i] for i in idx)
            found = {(0,) * size: witness}
            for h, vec in vectors:
                pattern = _pattern_of(tuple(vec[i] for i in idx), witness_sub, gamma)
                if pattern is not None and pattern not in found:
                    found[pattern] = h
                    if len(found) == need:
                        break
            if len(found) == need:
                cert = ShatterCertificate(points, witness, found)
                if not cert.verify(gamma):  # pragma: no cover
                    raise AssertionError("certificate failed self-verification")
                return cert
    return None


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
    gamma = Fraction(gamma)
    best = 0
    for d in range(1, min(cap_d, len(pool)) + 1):
        if find_shattered_set(cls, pool, gamma, d) is None:
            return best
        best = d
    if best == cap_d < len(pool):
        raise BudgetExceededError(
            f"dimension is at least {best} but the search cap is {cap_d}",
            lower_bound=best,
        )
    return best


# ---------------------------------------------------------------------------
# One-inclusion graphs
# ---------------------------------------------------------------------------

Vertex = tuple[Fraction, ...]
EdgeKey = tuple[int, tuple[Fraction, ...]]  # (free coordinate, values elsewhere)


@dataclass(frozen=True)
class OneInclusionGraph:
    """Hypergraph on class restrictions: edge (f, i) groups the vertices that
    agree with f on every coordinate except i."""

    points: tuple[core.Point, ...]
    vertices: tuple[Vertex, ...]
    edges: dict[EdgeKey, tuple[Vertex, ...]]

    def edge_key(self, vertex: Vertex, coord: int) -> EdgeKey:
        return (coord, vertex[:coord] + vertex[coord + 1 :])


Orientation = dict[EdgeKey, Vertex]


def _graph_on(points, vertices) -> OneInclusionGraph:
    """One-inclusion graph on sorted vertices: an edge joins the vertices
    that agree off one coordinate."""
    edges: dict[EdgeKey, list[Vertex]] = {}
    for v in vertices:
        for i in range(len(points)):
            edges.setdefault((i, v[:i] + v[i + 1 :]), []).append(v)
    return OneInclusionGraph(
        points, tuple(vertices), {k: tuple(sorted(ms)) for k, ms in edges.items()}
    )


def build_oig(cls, points) -> OneInclusionGraph:
    points = tuple(points)
    if not points:
        raise PreconditionError("one-inclusion graph needs at least one point")
    if len(set(points)) != len(points):
        raise PreconditionError("points must be distinct")
    vertices = sorted({vec for _, vec in _value_vectors(cls, points)})
    return _graph_on(points, vertices)


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
    return _graph_on(graph.points, kept)


def orient_smallest_value(graph: OneInclusionGraph) -> Orientation:
    """Point each edge at its member with the smallest value in the free
    coordinate, ties toward the lexicographically smallest vertex."""
    return {
        key: min(members, key=lambda m: (m[key[0]], m))
        for key, members in graph.edges.items()
    }


def max_gamma_outdegree(graph: OneInclusionGraph, orientation: Orientation, gamma) -> int:
    gamma = Fraction(gamma)
    missing = set(graph.edges) - set(orientation)
    if missing:
        raise PreconditionError(f"orientation leaves {len(missing)} edges unoriented")
    worst = 0
    for v in graph.vertices:
        away = 0
        for i in range(len(graph.points)):
            target = orientation[graph.edge_key(v, i)]
            if abs(target[i] - v[i]) > gamma:
                away += 1
        worst = max(worst, away)
    return worst


def exhaustive_orientation_min(graph: OneInclusionGraph, gamma) -> tuple[Orientation, int]:
    """Orientation minimizing the max gamma-out-degree, by product search."""
    gamma = Fraction(gamma)
    fixed = {k: ms[0] for k, ms in graph.edges.items() if len(ms) == 1}
    multi = [(k, ms) for k, ms in sorted(graph.edges.items()) if len(ms) > 1]
    if len(multi) > DEFAULT_MULTI_EDGE_CAP:
        raise BudgetExceededError(
            f"{len(multi)} multi-member edges exceed the cap of {DEFAULT_MULTI_EDGE_CAP}"
        )
    combos = 1
    for _, ms in multi:
        combos *= len(ms)
        if combos > _ORIENTATION_COMBO_CAP:
            raise BudgetExceededError(
                f"orientation search space exceeds {_ORIENTATION_COMBO_CAP}"
            )
    best_orientation, best_value = None, None
    for choice in itertools.product(*(ms for _, ms in multi)):
        orientation = dict(fixed)
        orientation.update({k: c for (k, _), c in zip(multi, choice)})
        value = max_gamma_outdegree(graph, orientation, gamma)
        if best_value is None or value < best_value:
            best_orientation, best_value = orientation, value
            if best_value == 0:
                break
    return best_orientation, best_value
