"""Graph shattering, graph dimension, one-inclusion graph orientations."""

import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from cutofflab import core, dims, experiments
from cutofflab.errors import BudgetExceededError, PreconditionError

import helpers

NAT = core.Point.nat
PAIR = core.Point.pair
HALF = F(1, 2)


def table_class(vectors, pool):
    """Finite class of table hypotheses over a fixed pool of points."""
    hs = tuple(
        helpers.table_hypothesis({p: F(v) for p, v in zip(pool, vec)})
        for vec in vectors
    )
    return core.FiniteClass(hs)


@dataclass(frozen=True)
class PartialTable:
    """Table hypothesis that is undefined off its table."""

    table: tuple

    def value_at(self, point):
        for p, v in self.table:
            if p == point:
                return v
        raise core.DomainMismatchError(f"{point} is off the table")

    __call__ = value_at


def brute_rows(cls, pool):
    rows = []
    for h in cls.hypotheses:
        try:
            rows.append((h, [h.value_at(x) for x in pool]))
        except core.DomainMismatchError:
            pass
    return rows


def brute_patterns(points_idx, witness, wvec, rows, gamma):
    """First hypothesis per match/far pattern on the indexed points, from the
    Fraction definition; the witness takes the all-zeros pattern."""
    found = {(0,) * len(points_idx): witness}
    for h, vec in rows:
        bits = []
        for i in points_idx:
            diff = abs(vec[i] - wvec[i])
            if diff == 0:
                bits.append(0)
            elif diff > gamma:
                bits.append(1)
            else:
                break
        else:
            found.setdefault(tuple(bits), h)
    return found


def brute_find(cls, pool, gamma, size):
    rows = brute_rows(cls, pool)
    for idx in combinations(range(len(pool)), size):
        for witness, wvec in rows:
            found = brute_patterns(idx, witness, wvec, rows, gamma)
            if len(found) == 2**size:
                return tuple(pool[i] for i in idx), witness, found
    return None


def brute_dimension(cls, pool, gamma):
    d = 0
    while d < len(pool) and brute_find(cls, pool, gamma, d + 1) is not None:
        d += 1
    return d


def same_certificate(cert, expected):
    """Same points, the same witness object and the same pattern witnesses,
    in the same order."""
    if expected is None:
        return cert is None
    points, witness, found = expected
    return (
        cert is not None
        and cert.points == points
        and cert.witness is witness
        and [(p, id(h)) for p, h in cert.pattern_witnesses.items()]
        == [(p, id(h)) for p, h in found.items()]
    )


def values(graph, v):
    """A graph vertex mapped back to the restriction's Fraction values."""
    return tuple(F(x, s) for x, s in zip(v, graph.scales))


def vertex(graph, *restriction):
    """The graph vertex of a restriction given by its values."""
    scaled = tuple(F(x) * s for x, s in zip(restriction, graph.scales))
    assert all(x.denominator == 1 for x in scaled)
    return tuple(x.numerator for x in scaled)


_TINY = F(1, 2**70)


def random_class(rng, pool, gamma, partial_share=0.0):
    """Table class whose value differences include 0, exactly gamma and gamma
    plus or minus a hair; a share of its members is undefined off a subset."""
    values = (F(0), gamma, gamma + _TINY, 2 * gamma, F(1), 1 - _TINY)
    hs = []
    for _ in range(rng.randrange(1, 13)):
        table = {p: rng.choice(values) for p in pool}
        if rng.random() < partial_share:
            kept = rng.sample(sorted(table), rng.randrange(0, len(table) + 1))
            hs.append(PartialTable(tuple(sorted((p, table[p]) for p in kept))))
        else:
            hs.append(helpers.table_hypothesis(table))
    return core.FiniteClass(tuple(hs))


class TestAgainstFractionDefinition:
    """The bitmask search and the integer out-degree test against the
    Fraction definitions, on classes where differences equal gamma exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_shattering_search(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            gamma = rng.choice((F(1, 4), F(1, 3), HALF))
            points = [NAT(i) for i in range(1, rng.randrange(1, 7) + 1)]
            cls = random_class(rng, points, gamma, partial_share=0.25)
            pool = list(points)
            if rng.random() < 0.3:  # a duplicate pool point
                pool.insert(rng.randrange(len(pool) + 1), rng.choice(points))
            pool = tuple(pool)
            assert dims.gamma_graph_dimension(cls, pool, gamma) == brute_dimension(
                cls, pool, gamma
            )
            for size in range(1, len(pool) + 1):
                assert same_certificate(
                    dims.find_shattered_set(cls, pool, gamma, size),
                    brute_find(cls, pool, gamma, size),
                )
            rows = brute_rows(cls, points)
            for witness, wvec in rows[:3]:
                idx = tuple(range(len(points)))
                found = brute_patterns(idx, witness, wvec, rows, gamma)
                expected = (tuple(points), witness, found) if len(found) == 2 ** len(idx) else None
                assert same_certificate(
                    dims.check_graph_shattered(points, cls, witness, gamma), expected
                )

    @pytest.mark.parametrize("seed", range(3))
    def test_orientation_and_outdegree(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(30):
            gamma = rng.choice((F(1, 4), F(1, 3), HALF))
            pool = tuple(NAT(i) for i in range(1, rng.randrange(1, 6) + 1))
            graph = dims.build_oig(random_class(rng, pool, gamma), pool)
            for _ in range(4):
                kept = rng.sample(list(graph.vertices), rng.randrange(1, len(graph.vertices) + 1))
                sub = dims.induced_subgraph(graph, kept)
                assert {
                    key: values(sub, target)
                    for key, target in dims.orient_smallest_value(sub).items()
                } == {
                    key: min((values(sub, m) for m in members), key=lambda m: (m[key[0]], m))
                    for key, members in sub.edges.items()
                }
                orientation = {key: rng.choice(ms) for key, ms in sub.edges.items()}
                expected = max(
                    sum(
                        1
                        for i in range(len(pool))
                        if abs(values(sub, orientation[helpers.edge_key(v, i)])[i] - values(sub, v)[i])
                        > gamma
                    )
                    for v in sub.vertices
                )
                assert dims.max_gamma_outdegree(sub, orientation, gamma) == expected


def fraction_graph(vectors, width):
    """Sorted vertices and edge groups of the one-inclusion graph on Fraction
    restrictions, from the definition."""
    vertices = sorted(set(vectors))
    edges = {}
    for v in vertices:
        for i in range(width):
            edges.setdefault((i, v[:i] + v[i + 1 :]), []).append(v)
    return vertices, {key: tuple(members) for key, members in edges.items()}


def fraction_key(graph, key):
    """An edge key mapped back to Fraction values off its free coordinate."""
    i, rest = key
    return (i, tuple(F(x, s) for x, s in zip(rest, graph.scales[:i] + graph.scales[i + 1 :])))


class TestIntegerGraph:
    """The integer-coded graph against the one on Fraction restrictions."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_same_graph_orientation_and_outdegree(self, seed):
        rng = random.Random(seed)
        gamma = rng.choice((F(1, 4), F(1, 3), HALF))
        pool = tuple(NAT(i) for i in range(1, rng.randrange(1, 6) + 1))
        cls = random_class(rng, pool, gamma, partial_share=0.3)
        graph = dims.build_oig(cls, pool)
        cases = [(graph, [tuple(vec) for _, vec in brute_rows(cls, pool)])]
        for _ in range(3 if graph.vertices else 0):
            kept = rng.sample(graph.vertices, rng.randrange(1, len(graph.vertices) + 1))
            cases.append((dims.induced_subgraph(graph, kept), [values(graph, v) for v in kept]))
        for sub, restrictions in cases:
            vertices, edges = fraction_graph(restrictions, len(pool))
            assert [values(sub, v) for v in sub.vertices] == vertices
            assert {
                fraction_key(sub, key): tuple(values(sub, m) for m in members)
                for key, members in sub.edges.items()
            } == edges
            assert {
                fraction_key(sub, key): values(sub, target)
                for key, target in dims.orient_smallest_value(sub).items()
            } == {key: min(members, key=lambda m: m[key[0]]) for key, members in edges.items()}
            orientation = {key: rng.choice(ms) for key, ms in sub.edges.items()}
            for g in (gamma - _TINY, gamma, gamma + _TINY):
                expected = max(
                    (
                        sum(
                            core.gamma_far(
                                values(sub, orientation[helpers.edge_key(v, i)])[i],
                                values(sub, v)[i],
                                g,
                            )
                            for i in range(len(pool))
                        )
                        for v in sub.vertices
                    ),
                    default=0,
                )
                assert dims.max_gamma_outdegree(sub, orientation, g) == expected


class TestShatterCertificates:
    def test_cantor_pair_is_shattered_with_its_own_witness(self):
        cls = core.CantorClass(HALF, 2, 5)
        witness = cls.hypothesis({1, 2})
        cert = dims.check_graph_shattered([NAT(1), NAT(2)], cls, witness, HALF)
        assert cert is not None
        assert cert.verify(HALF)
        assert cert.pattern_witnesses[(0, 0)] == witness

    def test_singleton_class_cannot_shatter(self):
        pool = (NAT(1),)
        cls = table_class([(0,)], pool)
        witness = cls.hypotheses[0]
        assert dims.check_graph_shattered(pool, cls, witness, HALF) is None

    def test_empty_point_list_is_vacuous(self):
        cls = core.CantorClass(HALF, 2, 5)
        witness = cls.hypothesis({1, 2})
        cert = dims.check_graph_shattered([], cls, witness, HALF)
        assert cert is not None and cert.verify(HALF)

    def test_certificate_revalidates_by_direct_evaluation(self):
        cls = core.CantorClass(HALF, 3, 8)
        cert = dims.find_shattered_set(cls, cls.default_pool(), HALF, 3)
        assert cert is not None
        # independent re-check against the definition
        for pattern, h in cert.pattern_witnesses.items():
            for bit, x in zip(pattern, cert.points):
                diff = abs(h.value_at(x) - cert.witness.value_at(x))
                assert (diff == 0) if bit == 0 else (diff > HALF)

    def test_point_cap_refusal(self):
        cls = core.CantorClass(HALF, 2, 5)
        witness = cls.hypothesis({1, 2})
        points = [NAT(i) for i in range(1, 15)]
        with pytest.raises(BudgetExceededError):
            dims.check_graph_shattered(points, cls, witness, HALF)


class TestGraphDimension:
    def test_singleton_class_has_dimension_zero(self):
        pool = (NAT(1), NAT(2))
        cls = table_class([(0, 0)], pool)
        assert dims.gamma_graph_dimension(cls, pool, HALF) == 0

    @pytest.mark.parametrize("d,universe", [(2, 5), (2, 6), (3, 8)])
    def test_cantor_dimension_equals_d(self, d, universe):
        cls = core.CantorClass(HALF, d, universe)
        assert dims.gamma_graph_dimension(cls, cls.default_pool(), HALF, d + 2) == d

    def test_split_complement_dimension_on_one_block(self):
        cls = core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 2, 4)
        pool = tuple(PAIR(4, x) for x in range(1, 5))
        assert dims.gamma_graph_dimension(cls, pool, HALF, 4) == 2

    def test_no_d_plus_one_set_shattered(self):
        # exhaustive over all (d+1)-subsets and witnesses, d=2, universes 5-6
        for universe in (5, 6):
            cls = core.CantorClass(HALF, 2, universe)
            pool = cls.default_pool()
            for idx in combinations(range(len(pool)), 3):
                points = tuple(pool[i] for i in idx)
                for witness in cls.hypotheses:
                    assert dims.check_graph_shattered(points, cls, witness, HALF) is None

    def test_monotone_under_class_growth(self):
        rng = random.Random(5)
        pool = tuple(NAT(i) for i in range(1, 5))
        values = (0, F(3, 4))
        for _ in range(10):
            big = [tuple(rng.choice(values) for _ in pool) for _ in range(8)]
            small = big[: rng.randrange(1, 8)]
            d_small = dims.gamma_graph_dimension(table_class(small, pool), pool, HALF)
            d_big = dims.gamma_graph_dimension(table_class(big, pool), pool, HALF)
            assert d_small <= d_big

    @pytest.mark.parametrize("d", [2, 3])
    def test_colex_last_construction_has_dimension_d(self, d):
        # the matching upper bound for the thm4 construction's shattered set
        cls, _, _ = experiments._colex_last_shattered(HALF, d, 3 * d)
        assert dims.gamma_graph_dimension(cls, cls.default_pool(), HALF) == d

    def test_class_size_times_pool_size_is_budgeted(self, monkeypatch):
        # 10 members on 3 points: 30 against the budget, whether the class
        # lists its members on first use or is its tuple of tables
        pool = (NAT(1), NAT(2), NAT(3))
        cantor = core.CantorClass(HALF, 2, 5)
        tables = table_class([[h(p) for p in pool] for h in cantor.hypotheses], pool)
        for cls in (core.CantorClass(HALF, 2, 5), tables):  # a Cantor class not yet listed
            monkeypatch.setenv("CUTOFFLAB_BUDGET", "29")
            with pytest.raises(BudgetExceededError, match="class restricted to the pool"):
                dims.gamma_graph_dimension(cls, pool, HALF)
            monkeypatch.setenv("CUTOFFLAB_BUDGET", "30")
            assert dims.gamma_graph_dimension(cls, pool, HALF) == 2

    def test_cap_refusal_carries_lower_bound(self):
        cls = core.CantorClass(HALF, 3, 8)
        with pytest.raises(BudgetExceededError) as err:
            dims.gamma_graph_dimension(cls, cls.default_pool(), HALF, cap_d=2)
        assert err.value.lower_bound == 2

    @pytest.mark.parametrize("cap_d", [0, -1])
    def test_cap_below_one_refused(self, cap_d):
        cls = core.CantorClass(HALF, 2, 5)
        with pytest.raises(PreconditionError):
            dims.gamma_graph_dimension(cls, cls.default_pool(), HALF, cap_d=cap_d)


class TestOneInclusionGraph:
    def test_single_hypothesis_graph(self):
        pool = (NAT(1), NAT(2))
        cls = table_class([(0, F(3, 4))], pool)
        graph = dims.build_oig(cls, pool)
        assert len(graph.vertices) == 1
        assert len(graph.edges) == 2
        assert all(len(ms) == 1 for ms in graph.edges.values())

    def test_cantor_d1_universe2_by_hand(self):
        # two hypotheses: zero set {1} (value 1) and zero set {2} (value 3/4)
        cls = core.CantorClass(HALF, 1, 2)
        graph = dims.build_oig(cls, (NAT(1), NAT(2)))
        assert {values(graph, v) for v in graph.vertices} == {(F(0), F(1)), (F(3, 4), F(0))}
        assert graph.scales == (4, 1) and graph.vertices == ((0, 1), (3, 0))
        # restrictions differ in both coordinates: all edges are singletons
        assert all(len(ms) == 1 for ms in graph.edges.values())

    def test_one_coordinate_difference_shares_an_edge(self):
        pool = (NAT(1), NAT(2))
        cls = table_class([(0, 0), (0, F(3, 4))], pool)
        graph = dims.build_oig(cls, pool)
        sizes = sorted(len(ms) for ms in graph.edges.values())
        assert sizes == [1, 1, 2]  # shared edge in coordinate 2

    def test_class_size_times_points_squared_is_budgeted(self, monkeypatch):
        # 10 members on 3 points: 90 against the budget
        cls = core.CantorClass(HALF, 2, 5)
        points = (NAT(1), NAT(2), NAT(3))
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "89")
        with pytest.raises(BudgetExceededError):
            dims.build_oig(cls, points)
        monkeypatch.setenv("CUTOFFLAB_BUDGET", "90")
        assert len(dims.build_oig(cls, points).vertices) == 10

    @pytest.mark.parametrize(
        "cls",
        [
            core.CantorClass(HALF, 2, 5),
            core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 2, 4),
        ],
        ids=["cantor", "split"],
    )
    def test_repeated_graphs_list_the_class_once(self, monkeypatch, cls):
        # an orientation sweep restricts one class object over and over
        built = []
        build = type(cls).hypothesis

        def counted(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(type(cls), "hypothesis", counted)
        points = cls.default_pool()[:3]
        graphs = [dims.build_oig(cls, points) for _ in range(24)]
        assert len(built) == cls.size()
        assert all(graph == graphs[0] for graph in graphs)


class TestOrientations:
    def test_all_zero_vertex_gets_every_edge(self):
        pool = (NAT(1), NAT(2))
        cls = table_class([(0, 0), (0, F(3, 4)), (F(3, 4), 0)], pool)
        graph = dims.build_oig(cls, pool)
        orientation = dims.orient_smallest_value(graph)
        zero_vec = vertex(graph, 0, 0)
        for i in range(2):
            key = helpers.edge_key(zero_vec, i)
            assert orientation[key] == zero_vec
        assert dims.max_gamma_outdegree(graph, orientation, HALF) <= 1

    def test_singleton_edge_oriented_to_member(self):
        pool = (NAT(1),)
        cls = table_class([(F(3, 4),)], pool)
        graph = dims.build_oig(cls, pool)
        orientation = dims.orient_smallest_value(graph)
        assert [values(graph, v) for v in orientation.values()] == [(F(3, 4),)]

    def test_tie_break_toward_lexicographic_smallest(self):
        pool = (NAT(1), NAT(2))
        # edge free in coordinate 2 with members (0, a) and (0, b), a < b
        cls = table_class([(0, F(1, 4)), (0, F(3, 4))], pool)
        graph = dims.build_oig(cls, pool)
        orientation = dims.orient_smallest_value(graph)
        key = helpers.edge_key(vertex(graph, 0, F(3, 4)), 1)
        assert [values(graph, m) for m in graph.edges[key]] == [(F(0), F(1, 4)), (F(0), F(3, 4))]
        assert values(graph, orientation[key]) == (F(0), F(1, 4))

    def test_self_orientation_gives_zero_outdegree(self):
        pool = (NAT(1), NAT(2))
        cls = table_class([(0, 0), (0, F(3, 4))], pool)
        graph = dims.build_oig(cls, pool)
        for v in graph.vertices:
            orientation = {
                key: (v if v in members else members[0])
                for key, members in graph.edges.items()
            }
            away = sum(
                1
                for i in range(2)
                if abs(values(graph, orientation[helpers.edge_key(v, i)])[i] - values(graph, v)[i])
                > HALF
            )
            assert away == 0

    def test_losing_vertex_outdegree_one(self):
        pool = (NAT(1), NAT(2))
        cls = table_class([(0, 0), (0, F(3, 4))], pool)
        graph = dims.build_oig(cls, pool)
        far = vertex(graph, 0, F(3, 4))
        near = vertex(graph, 0, 0)
        key = helpers.edge_key(far, 1)
        orientation = dims.orient_smallest_value(graph)
        orientation[key] = near  # points away from the gamma-far member
        # the far vertex loses its shared edge to a gamma-far target
        away = sum(
            1
            for i in range(2)
            if abs(values(graph, orientation[helpers.edge_key(far, i)])[i] - values(graph, far)[i])
            > HALF
        )
        assert away == 1

    @pytest.mark.parametrize(
        "cls",
        [
            core.CantorClass(HALF, 2, 5),
            core.CantorClass(HALF, 2, 6),
            core.CantorClass(HALF, 3, 8),
            core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 9),
            core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 3, 6),
        ],
        ids=["cantor25", "cantor26", "cantor38", "split_sqrt9", "split_comp36"],
    )
    def test_smallest_value_orientation_outdegree_at_most_one(self, cls):
        rng = random.Random(11)
        pool = list(cls.default_pool())
        for n in (3, 4, 5):
            for _ in range(5):
                points = rng.sample(pool, n)
                graph = dims.build_oig(cls, points)
                orientation = dims.orient_smallest_value(graph)
                assert dims.max_gamma_outdegree(graph, orientation, HALF) <= 1

    def test_exhaustive_min_never_beats_zero_and_bounds_greedy(self):
        rng = random.Random(3)
        pool = tuple(NAT(i) for i in range(1, 5))
        values = (0, F(3, 4), F(7, 8))
        for _ in range(10):
            vectors = {tuple(rng.choice(values) for _ in pool) for _ in range(5)}
            cls = table_class(sorted(vectors), pool)
            graph = dims.build_oig(cls, pool)
            greedy = dims.max_gamma_outdegree(
                graph, dims.orient_smallest_value(graph), HALF
            )
            _, best = dims.exhaustive_orientation_min(graph, HALF)
            assert best <= greedy

    def test_all_singleton_graph_min_zero(self):
        pool = (NAT(1), NAT(2))
        cls = table_class([(0, F(3, 4))], pool)
        graph = dims.build_oig(cls, pool)
        _, best = dims.exhaustive_orientation_min(graph, HALF)
        assert best == 0

    def test_thm3_class_random_point_sets_min_at_most_one(self):
        cls = core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 9)
        rng = random.Random(23)
        pool = list(cls.default_pool())
        for _ in range(5):
            points = rng.sample(pool, 4)
            graph = dims.build_oig(cls, points)
            _, best = dims.exhaustive_orientation_min(graph, HALF)
            assert best <= 1

    def test_cube_past_the_orientation_budget_is_refused(self):
        # all 32 0/1 vectors on 5 points: 80 edges of two members each
        pool = tuple(NAT(i) for i in range(1, 6))
        graph = dims.build_oig(table_class(list(product((0, 1), repeat=5)), pool), pool)
        assert len(graph.edges) == 80
        assert {len(members) for members in graph.edges.values()} == {2}
        with pytest.raises(BudgetExceededError):
            dims.exhaustive_orientation_min(graph, HALF)

    def test_graph_without_vertices_has_outdegree_zero(self):
        # every member leaves its domain on a pair point
        graph = dims.build_oig(core.CantorClass(HALF, 2, 5), (PAIR(1, 1),))
        assert graph.vertices == () and graph.edges == {}
        assert dims.max_gamma_outdegree(graph, {}, HALF) == 0

    def test_unoriented_edge_rejected(self):
        pool = (NAT(1), NAT(2))
        cls = table_class([(0, 0), (0, F(3, 4))], pool)
        graph = dims.build_oig(cls, pool)
        with pytest.raises(PreconditionError):
            dims.max_gamma_outdegree(graph, {}, HALF)


class TestInducedSubgraphs:
    def test_subgraph_edges_regroup(self):
        pool = (NAT(1), NAT(2))
        cls = table_class([(0, 0), (0, F(3, 4)), (F(3, 4), 0)], pool)
        graph = dims.build_oig(cls, pool)
        sub = dims.induced_subgraph(graph, [vertex(graph, 0, 0), vertex(graph, 0, F(3, 4))])
        assert [values(sub, v) for v in sub.vertices] == [(F(0), F(0)), (F(0), F(3, 4))]
        assert sorted(len(ms) for ms in sub.edges.values()) == [1, 1, 2]

    def test_orientation_evidence_on_random_subgraphs(self):
        # the out-degree <= 1 guarantee must survive on arbitrary finite
        # subgraphs, which is what the dimension condition quantifies over
        rng = random.Random(7)
        for cls in (
            core.CantorClass(HALF, 2, 6),
            core.SplitCantorClass(HALF, core.SQRT_SIZE, None, 9),
            core.SplitCantorClass(HALF, core.D_MINUS_ONE_COMPLEMENT, 3, 6),
        ):
            pool = list(cls.default_pool())
            for _ in range(5):
                points = rng.sample(pool, 4)
                graph = dims.build_oig(cls, points)
                for _ in range(5):
                    size = rng.randrange(1, len(graph.vertices) + 1)
                    kept = rng.sample(list(graph.vertices), size)
                    sub = dims.induced_subgraph(graph, kept)
                    orientation = dims.orient_smallest_value(sub)
                    assert dims.max_gamma_outdegree(sub, orientation, HALF) <= 1

    def test_foreign_vertex_rejected(self):
        pool = (NAT(1), NAT(2))
        cls = table_class([(0, 0)], pool)
        graph = dims.build_oig(cls, pool)
        with pytest.raises(PreconditionError):
            dims.induced_subgraph(graph, [vertex(graph, 1, 1)])
