import hashlib
import itertools
import random
import time

import pytest

import oracles
from helpers import relabel_to_positions
from chordalrig import certify, graphs
from chordalrig.framework import Framework, random_general_position_framework
from chordalrig.graphs import (
    Graph,
    GraphError,
    InvalidParameters,
    NotAPeo,
    Ordering,
    chordal_connectivity,
    components_after_removal,
    find_chordless_cycle,
    gen_ktree,
    higher_neighbors,
    is_chordal,
    is_peo,
    mcs_order,
    vertex_cut_of_size_at_most,
)


def assert_valid_chordless_cycle(g, cycle):
    assert len(cycle) >= 4
    assert len(set(cycle)) == len(cycle)
    k = len(cycle)
    for i in range(k):
        assert g.has_edge(cycle[i], cycle[(i + 1) % k])
    for i, j in itertools.combinations(range(k), 2):
        if (j - i) % k in (1, k - 1):
            continue
        assert not g.has_edge(cycle[i], cycle[j])


class TestGraph:
    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 4)])

    def test_duplicates_collapse(self):
        g = Graph(3, [(1, 2), (2, 1), (1, 2)])
        assert g.edges == ((1, 2),)

    def test_edges_sorted(self):
        g = Graph(4, [(3, 4), (1, 2), (2, 3)])
        assert g.edges == ((1, 2), (2, 3), (3, 4))

    def test_builders(self):
        assert Graph.complete(4).edge_count == 6
        assert Graph.path(4).edges == ((1, 2), (2, 3), (3, 4))
        assert Graph.cycle(4).edges == ((1, 2), (1, 4), (2, 3), (3, 4))
        with pytest.raises(GraphError):
            Graph.cycle(2)

    def test_adjacency(self):
        g = Graph(3, [(1, 2)])
        assert g.neighbors(1) == frozenset({2})
        assert g.degree(3) == 0
        assert g.has_edge(2, 1)
        assert not g.has_edge(1, 3)

    def test_connectivity_flag(self):
        assert Graph.path(3).is_connected()
        assert not Graph(3, [(1, 2)]).is_connected()
        assert Graph(1).is_connected()


class TestOrdering:
    def test_permutation_enforced(self):
        with pytest.raises(ValueError):
            Ordering([1, 1, 2])
        with pytest.raises(ValueError):
            Ordering([0, 1])

    def test_lookup(self):
        o = Ordering([2, 3, 1])
        assert o.vertex_at(1) == 2
        assert o.position_of(1) == 3
        with pytest.raises(ValueError):
            o.vertex_at(4)
        with pytest.raises(ValueError):
            o.position_of(9)

    def test_identity(self):
        assert list(Ordering.identity(3)) == [1, 2, 3]


class TestMcsOrder:
    def test_triangle_tie_breaking(self):
        # Start vertex 3 takes the last slot; the lowest-label tie rule then
        # places vertex 1 before the remaining vertex 2.
        assert mcs_order(Graph.complete(3), 3) == Ordering([2, 1, 3])

    def test_default_start_is_last_vertex(self):
        g = Graph.complete(3)
        assert mcs_order(g) == mcs_order(g, 3)

    def test_hexagon_gives_peo(self, hexagon):
        order = mcs_order(hexagon.fw.graph, 6)
        assert order == Ordering([1, 2, 5, 4, 3, 6])
        assert is_peo(hexagon.fw.graph, order) == (True, None)

    def test_cycle_orders_are_rejected_later(self):
        order = mcs_order(Graph.cycle(4), 4)
        ok, triple = is_peo(Graph.cycle(4), order)
        assert not ok and triple is not None

    def test_start_range(self):
        with pytest.raises(GraphError):
            mcs_order(Graph.path(3), 4)

    def test_visits_every_vertex_once(self):
        g = gen_ktree(40, 3, 9)
        order = mcs_order(g)
        assert sorted(order) == list(range(1, 41))

    def test_large_graph_fast(self):
        g = gen_ktree(10_000, 3, 1)
        begin = time.perf_counter()
        order = mcs_order(g)
        assert time.perf_counter() - begin < 5.0
        assert len(order) == 10_000


class TestIsPeo:
    def test_path_identity(self):
        assert is_peo(Graph.path(3), Ordering.identity(3)) == (True, None)

    def test_cycle4_has_no_peo(self):
        g = Graph.cycle(4)
        for perm in itertools.permutations(range(1, 5)):
            ok, triple = is_peo(g, Ordering(perm))
            assert not ok
            v, a, b = triple
            pos = Ordering(perm).position_of
            assert g.has_edge(v, a) and g.has_edge(v, b)
            assert not g.has_edge(a, b)
            assert pos(a) > pos(v) and pos(b) > pos(v)

    def test_hexagon_identity(self, hexagon):
        g = hexagon.fw.graph
        assert is_peo(g, Ordering.identity(6)) == (True, None)
        ident = Ordering.identity(6)
        assert higher_neighbors(g, ident, 1) == frozenset({2, 3, 4})
        assert higher_neighbors(g, ident, 2) == frozenset({3, 4, 5})
        assert higher_neighbors(g, ident, 3) == frozenset({4, 5, 6})

    def test_length_mismatch(self):
        with pytest.raises(GraphError):
            is_peo(Graph.path(3), Ordering.identity(2))


class TestIsChordal:
    def test_k5_minus_edge(self, k5_minus_edge):
        result = is_chordal(k5_minus_edge.graph)
        assert result.chordal and bool(result)
        assert is_peo(k5_minus_edge.graph, result.peo) == (True, None)

    def test_prism_cycle(self, prism):
        result = is_chordal(prism.graph)
        assert not result.chordal
        assert result.chordless_cycle == (1, 2, 4, 3)
        assert_valid_chordless_cycle(prism.graph, result.chordless_cycle)

    def test_hexagon(self, hexagon):
        assert is_chordal(hexagon.fw.graph).chordal

    def test_trees_and_cycles(self):
        assert is_chordal(Graph.path(6)).chordal
        for m in range(4, 9):
            result = is_chordal(Graph.cycle(m))
            assert not result.chordal
            assert_valid_chordless_cycle(Graph.cycle(m), result.chordless_cycle)

    def test_agrees_with_simplicial_oracle(self):
        rng = random.Random(17)
        for trial in range(60):
            n = rng.randint(2, 8)
            edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                     if rng.random() < 0.5]
            g = Graph(n, edges)
            assert is_chordal(g).chordal == oracles.is_chordal_simplicial(n, edges)

    def test_cycle_finder_none_on_chordal(self):
        assert find_chordless_cycle(gen_ktree(8, 2, 4)) is None

    def test_cycle_finder_on_c5(self):
        assert find_chordless_cycle(Graph.cycle(5)) == (1, 2, 3, 4, 5)

    def test_cycle_finder_starts_at_its_minimum_toward_the_smaller_neighbour(self):
        """The cycle found at v starts at v, its smallest vertex, and runs
        toward the smaller of its two neighbours, with no rotation. The
        sha256 of the outputs on these seeded graphs pins them."""
        rng = random.Random("chordless-cycles")
        found = []
        for _ in range(400):
            n = rng.randint(4, 11)
            p = rng.choice((0.25, 0.4, 0.55, 0.7))
            g = Graph(n, [e for e in itertools.combinations(range(1, n + 1), 2)
                          if rng.random() < p])
            cycle = find_chordless_cycle(g)
            assert (cycle is None) == is_peo(g, mcs_order(g, n))[0]
            if cycle is not None:
                assert_valid_chordless_cycle(g, cycle)
                assert cycle[0] == min(cycle) and cycle[1] < cycle[-1]
            found.append(cycle)
        assert sum(c is not None for c in found) == 218
        assert hashlib.sha256(repr(found).encode()).hexdigest() == (
            "c8da2f6ea07cbe33c34d1ef303421cfc6219d0d63643d61797e22a73e67294b9")


class TestHigherNeighbors:
    def test_path_middle(self):
        assert higher_neighbors(Graph.path(3), Ordering.identity(3), 2) == frozenset({3})

    def test_last_position_empty(self):
        g = Graph.complete(4)
        assert higher_neighbors(g, Ordering.identity(4), 4) == frozenset()


class TestChordalConnectivity:
    def test_hexagon(self, hexagon):
        assert chordal_connectivity(hexagon.fw.graph, Ordering.identity(6)) == 3

    def test_path(self):
        assert chordal_connectivity(Graph.path(3), Ordering.identity(3)) == 1

    def test_complete(self):
        assert chordal_connectivity(Graph.complete(4), Ordering.identity(4)) == 3
        assert chordal_connectivity(Graph.complete(2), Ordering.identity(2)) == 1

    def test_k5_minus_edge(self, k5_minus_edge):
        g = k5_minus_edge.graph
        peo = is_chordal(g).peo
        assert chordal_connectivity(g, peo) == 3
        assert oracles.brute_connectivity(g.n, g.edges) == 3

    def test_rejects_non_peo(self):
        g = Graph.cycle(4)
        with pytest.raises(NotAPeo):
            chordal_connectivity(g, Ordering.identity(4))

    def test_matches_brute_force_on_random_chordal_graphs(self):
        rng = random.Random(23)
        for trial in range(40):
            n = rng.randint(2, 9)
            k = rng.randint(1, n)
            g = gen_ktree(n, k, rng.randrange(10_000))
            # sprinkle extra edges that keep the graph chordal
            for _ in range(3):
                non_edges = [e for e in itertools.combinations(range(1, n + 1), 2)
                             if not g.has_edge(*e)]
                rng.shuffle(non_edges)
                for e in non_edges:
                    h = Graph(n, list(g.edges) + [e])
                    if is_chordal(h).chordal:
                        g = h
                        break
            peo = is_chordal(g).peo
            assert chordal_connectivity(g, peo) == oracles.brute_connectivity(g.n, g.edges)


class TestComponentsAfterRemoval:
    def test_path_split(self):
        assert components_after_removal(Graph.path(3), {2}) == ((1,), (3,))

    def test_connected_whole(self, hexagon):
        assert components_after_removal(hexagon.fw.graph, ()) == ((1, 2, 3, 4, 5, 6),)

    def test_complete_stays_connected(self):
        assert components_after_removal(Graph.complete(4), {1, 2}) == ((3, 4),)

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            components_after_removal(Graph.path(3), {5})


class TestVertexCut:
    def test_path_cut_vertex(self):
        cut = vertex_cut_of_size_at_most(Graph.path(3), Ordering.identity(3), 1)
        assert cut == frozenset({2})

    def test_hexagon_none(self, hexagon):
        assert vertex_cut_of_size_at_most(
            hexagon.fw.graph, Ordering.identity(6), 2) is None

    def test_k5_minus_edge_none(self, k5_minus_edge):
        g = k5_minus_edge.graph
        peo = is_chordal(g).peo
        assert vertex_cut_of_size_at_most(g, peo, 2) is None

    def test_complete_graph_none(self):
        assert vertex_cut_of_size_at_most(Graph.complete(4), Ordering.identity(4), 3) is None

    def test_rejects_non_peo(self):
        with pytest.raises(NotAPeo):
            vertex_cut_of_size_at_most(Graph.cycle(4), Ordering.identity(4), 1)

    def test_cut_always_separates(self):
        rng = random.Random(31)
        found = 0
        for trial in range(40):
            n = rng.randint(4, 9)
            k = rng.randint(1, 3)
            g = gen_ktree(n, k, rng.randrange(10_000))
            peo = is_chordal(g).peo
            r = rng.randint(k, 3)
            cut = vertex_cut_of_size_at_most(g, peo, r)
            if cut is None:
                assert chordal_connectivity(g, peo) >= r + 1 or g.n <= r + 1
                continue
            found += 1
            assert len(cut) <= r
            assert len(components_after_removal(g, cut)) >= 2
            assert not oracles.is_connected_without(g.n, g.edges, cut)
        assert found > 0


class TestGenKtree:
    def test_base_case_complete(self):
        for k in (1, 2, 3):
            assert gen_ktree(k + 1, k, 0) == Graph.complete(k + 1)

    def test_one_tree_is_tree(self):
        g = gen_ktree(4, 1, 5)
        assert g.edge_count == 3 and g.is_connected()
        assert is_chordal(g).chordal

    def test_chordal_and_k_connected(self):
        g = gen_ktree(6, 3, 1)
        result = is_chordal(g)
        assert result.chordal
        assert chordal_connectivity(g, result.peo) == 3

    def test_edge_count(self):
        for n, k, seed in [(8, 2, 3), (10, 3, 4), (5, 4, 0)]:
            g = gen_ktree(n, k, seed)
            assert g.edge_count == k * (k - 1) // 2 + (n - k) * k

    def test_reverse_construction_order_is_peo(self):
        g = gen_ktree(9, 2, 12)
        reverse = Ordering(range(9, 0, -1))
        assert is_peo(g, reverse) == (True, None)

    def test_deterministic(self):
        assert gen_ktree(9, 2, 7) == gen_ktree(9, 2, 7)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameters):
            gen_ktree(2, 3, 0)
        with pytest.raises(InvalidParameters):
            gen_ktree(3, 0, 0)


class TestRelabel:
    def test_identity_becomes_peo(self):
        g = gen_ktree(8, 2, 2)
        peo = is_chordal(g).peo
        h = relabel_to_positions(g, peo)
        assert h.edge_count == g.edge_count
        assert is_peo(h, Ordering.identity(8)) == (True, None)


class TestPeoFactsOnce:
    def test_later_neighbour_lists_match_higher_neighbors(self):
        rng = random.Random("later-lists")
        for i in range(20):
            g = gen_ktree(rng.randint(2, 12), rng.randint(1, 4), i) if i % 2 else Graph.path(5)
            peo = is_chordal(g).peo
            later = graphs._later_neighbors(g, peo)
            for j, nbrs in enumerate(later, 1):
                assert frozenset(nbrs) == higher_neighbors(g, peo, j)
                assert [peo.position_of(u) for u in nbrs] == sorted(
                    peo.position_of(u) for u in nbrs)
            assert graphs._connectivity(later) == chordal_connectivity(g, peo)
            for r in range(4):
                assert graphs._small_cut(g, later, r) == vertex_cut_of_size_at_most(g, peo, r)

    def test_certify_checks_the_peo_once_and_lists_it_once(self, monkeypatch):
        """is_chordal's check is the one is_peo call of certify_chordal, and
        its later-neighbour lists are built once, on UR and NGR inputs."""
        checks, lists = [], []
        real_peo, real_lists = graphs.is_peo, certify._later_neighbors
        monkeypatch.setattr(graphs, "is_peo", lambda *a: checks.append(1) or real_peo(*a))
        monkeypatch.setattr(certify, "is_peo", graphs.is_peo)
        monkeypatch.setattr(certify, "_later_neighbors",
                            lambda *a: lists.append(1) or real_lists(*a))
        ur = random_general_position_framework(12, 2, 5)
        ngr = Framework(gen_ktree(12, 2, 5), 2, ur.points)
        for fw, verdict in ((ur, certify.Verdict.UNIVERSALLY_RIGID),
                            (ngr, certify.Verdict.NOT_GLOBALLY_RIGID)):
            checks.clear()
            lists.clear()
            assert certify.certify_chordal(fw).verdict is verdict
            assert checks == lists == [1]
