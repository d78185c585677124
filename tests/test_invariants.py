"""Matching, covering, and connectivity against brute-force oracles."""

import itertools
import random

import networkx as nx
import pytest

from bipartite_estrada import invariants, search
from bipartite_estrada.families import complete_bipartite, join_family
from bipartite_estrada.graph import Graph, from_biadjacency
from bipartite_estrada.invariants import (ClassDescriptor, _connected_rows,
                                          _edge_conn_rows, _unit_flow,
                                          _vertex_conn_rows, _vertex_flow,
                                          class_member, edge_connectivity,
                                          matching_number, vertex_connectivity)
from oracles import (all_graphs, bf_edge_connectivity,
                     bf_local_vertex_connectivity, bf_matching_number,
                     bf_min_vertex_cover, bf_vertex_connectivity,
                     bipartite_graphs)

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


class TestMatching:
    def test_complete_bipartite(self):
        assert matching_number(complete_bipartite(2, 3)) == 2
        assert matching_number(complete_bipartite(4, 4)) == 4

    def test_path(self):
        assert matching_number(PATH4) == 2

    def test_empty(self):
        assert matching_number(Graph(5, [0] * 5)) == 0

    def test_exhaustive_all_graphs(self):
        # includes non-bipartite inputs, which take the branching fallback
        for n in range(1, 6):
            for g in all_graphs(n):
                assert matching_number(g) == bf_matching_number(g)

    @pytest.mark.slow
    def test_exhaustive_order6(self):
        for g in all_graphs(6):
            assert matching_number(g) == bf_matching_number(g)

    def test_large_non_bipartite_rejected(self):
        triangles = [(3 * i + a, 3 * i + b) for i in range(7)
                     for a, b in ((0, 1), (1, 2), (0, 2))]
        g = Graph.from_edges(21, triangles)
        with pytest.raises(ValueError):
            matching_number(g)


class TestCovering:
    def test_konig_equality_exhaustive(self):
        # Konig-Egervary: on every bipartite graph with n <= 7 the matching
        # number equals the minimum vertex cover found by subset search
        for n in range(2, 8):
            for g in bipartite_graphs(n):
                assert matching_number(g) == bf_min_vertex_cover(g)


class TestConnectivity:
    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert vertex_connectivity(g) == 3
        # independently pinned by the subset-removal oracle on this instance
        assert bf_vertex_connectivity(g) == 3
        assert edge_connectivity(g) == 3
        assert bf_edge_connectivity(g) == 3

    def test_path(self):
        assert vertex_connectivity(PATH4) == 1
        assert edge_connectivity(PATH4) == 1

    def test_join_family_instance(self):
        g = join_family(2, 3, 2)  # order 8
        assert bf_vertex_connectivity(g) == 2
        assert vertex_connectivity(g) == 2

    def test_complete_graphs_capped(self):
        k2 = Graph.from_edges(2, [(0, 1)])
        assert vertex_connectivity(k2) == 1
        k4 = Graph.from_edges(4, list(itertools.combinations(range(4), 2)))
        assert vertex_connectivity(k4) == 3

    def test_single_vertex_and_disconnected(self):
        assert vertex_connectivity(Graph(1, [0])) == 0
        assert edge_connectivity(Graph(1, [0])) == 0
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert vertex_connectivity(g) == 0
        assert edge_connectivity(g) == 0

    def test_exhaustive_all_graphs(self):
        # the capped flow loops vs subset-removal oracles, n <= 5
        for n in range(1, 6):
            for g in all_graphs(n):
                assert vertex_connectivity(g) == bf_vertex_connectivity(g)
                assert edge_connectivity(g) == bf_edge_connectivity(g)

    @pytest.mark.slow
    def test_exhaustive_connected_order6(self):
        # the full (non-bipartite included) order-6 sweep
        for g in all_graphs(6):
            if not g.m:
                continue
            assert vertex_connectivity(g) == bf_vertex_connectivity(g)
            assert edge_connectivity(g) == bf_edge_connectivity(g)

    def test_exhaustive_bipartite_order6(self):
        for g in bipartite_graphs(6, connected_only=True):
            assert vertex_connectivity(g) == bf_vertex_connectivity(g)
            assert edge_connectivity(g) == bf_edge_connectivity(g)

    def test_whitney_chain(self):
        # vertex connectivity <= edge connectivity <= min degree, connected n <= 6
        for n in range(2, 7):
            for g in bipartite_graphs(n, connected_only=True):
                k = vertex_connectivity(g)
                kp = edge_connectivity(g)
                assert k <= kp <= min(g.degree(v) for v in range(g.n))

    def test_against_networkx_large(self):
        # the flows at orders far beyond the brute-force oracles' reach
        rng = random.Random(41)
        # two K_{3,3} sharing vertex 0 have vertex connectivity 1 and edge
        # connectivity 3; on the 12-vertex graph some pair has two
        # vertex-disjoint paths but the first shortest augmenting path blocks
        # the second unless a residual back arc reroutes it; the last graph
        # is disconnected
        shared = [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)] \
            + [(u, v) for u in (0, 6, 7) for v in (8, 9, 10)]
        reroute = [(0, 6), (0, 7), (1, 6), (1, 9), (2, 10), (2, 11), (3, 7),
                   (3, 8), (3, 10), (3, 11), (4, 6), (4, 8), (5, 8), (5, 9),
                   (5, 10)]
        graphs = [complete_bipartite(31, 31), Graph.from_edges(11, shared),
                  Graph.from_edges(12, reroute),
                  Graph.from_edges(20, [(0, 1), (1, 2), (5, 6), (6, 7), (7, 8)])]
        for n in (12, 20, 30, 62):
            for p in (0.3, 0.6, 0.9):
                a = rng.randint(n // 4, n // 2)
                bits = [[rng.random() < p for _ in range(n - a)] for _ in range(a)]
                graphs.append(from_biadjacency(a, n - a, bits))
        for g in graphs:
            ref = nx.Graph(g.edges())
            ref.add_nodes_from(range(g.n))
            assert vertex_connectivity(g) == nx.node_connectivity(ref)
            assert edge_connectivity(g) == nx.edge_connectivity(ref)
            if g.n < 30:
                continue
            # local flows of a few non-adjacent pairs, uncapped
            pairs = [(s, t) for s in range(g.n) for t in range(s + 1, g.n)
                     if not g.has_edge(s, t)]
            for s, t in rng.sample(pairs, 4):
                assert _vertex_flow(g.rows, g.n, s, t, g.n) == \
                    nx.node_connectivity(ref, s, t)

    @pytest.mark.parametrize("n, connected", [(7, 44), (8, 239)])
    def test_orbit_representatives_against_networkx(self, n, connected):
        # every connected S_a x S_b representative the scan meets at this
        # order, labelled as the scan labels it; the brute-force oracles
        # stop at n = 6, and many of these graphs have kappa or lambda 1,
        # where both loops stop
        seen = 0
        for a in range(1, n // 2 + 1):
            b = n - a
            columns, _ = search._orbits(a, b, 0, len(search._prefixes(a, b)[0]))
            for cols in columns.tolist():
                g = from_biadjacency(a, b, [[(c >> i) & 1 for c in cols]
                                            for i in range(a)])
                if not _connected_rows(g.rows, n):
                    continue
                seen += 1
                ref = nx.Graph(g.edges())
                assert _vertex_conn_rows(g.rows, n) == nx.node_connectivity(ref)
                assert _edge_conn_rows(g.rows, n) == nx.edge_connectivity(ref)
        assert seen == connected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_local_vertex_flow_every_cap(self, n):
        # min(kappa(s, t), cap) for every non-adjacent pair and every cap,
        # so both the early return at |N(s) & N(t)| >= cap and the reduced
        # flow on G - C are met
        for g in all_graphs(n):
            for s, t in itertools.combinations(range(n), 2):
                if g.has_edge(s, t):
                    continue
                k = bf_local_vertex_connectivity(g, s, t)
                for cap in range(1, n + 1):
                    assert _vertex_flow(g.rows, n, s, t, cap) == min(k, cap)

    def test_unit_flow_against_networkx(self):
        # seeded digraphs on 4..40 nodes with no pair of opposite arcs, so a
        # path can undo a unit of flow only over a back arc; every cap up to
        # the order.  Odd trials are layered from s = 0 to t = size - 1, with
        # arcs only from one layer to the next: every s-t path has the same
        # length, and the first paths found often block the others until a
        # later path cancels flow
        rng = random.Random(67)
        for trial in range(200):
            size = rng.randint(4, 40)
            density = rng.uniform(0.05, 0.5)
            depth = rng.randint(1, 4)
            layer = ([0] + sorted(rng.randint(1, depth) for _ in range(size - 2))
                     + [depth + 1])
            s, t = 0, size - 1
            arcs = [0] * size
            ref = nx.DiGraph()
            ref.add_nodes_from(range(size))
            for u, v in itertools.combinations(range(size), 2):
                if trial % 2:
                    if layer[v] - layer[u] != 1:
                        continue
                    if rng.random() < (0.9 if s in (u, v) or t in (u, v) else density):
                        arcs[u] |= 1 << v
                        ref.add_edge(u, v, capacity=1)
                elif rng.random() < density:
                    if rng.random() < 0.5:
                        u, v = v, u
                    arcs[u] |= 1 << v
                    ref.add_edge(u, v, capacity=1)
            want = nx.maximum_flow_value(ref, s, t)
            for cap in range(size):
                assert _unit_flow(arcs, s, t, cap) == min(want, cap)

    def test_complete_bipartite_needs_no_flow(self, monkeypatch):
        # every pair of K_{p,q} that a flow would run on has min(p, q) or
        # more common neighbours, so the reduction settles it
        calls = []
        unit_flow = invariants._unit_flow

        def counted(*args):
            calls.append(args)
            return unit_flow(*args)

        monkeypatch.setattr(invariants, "_unit_flow", counted)
        assert vertex_connectivity(complete_bipartite(31, 31)) == 31
        assert calls == []
        for p, q in ((2, 5), (5, 2), (3, 7), (9, 4), (1, 6)):
            assert vertex_connectivity(complete_bipartite(p, q)) == min(p, q)


class TestClassDescriptor:
    def test_matching_range_validated(self):
        ClassDescriptor("matching", 6, 3)
        with pytest.raises(ValueError):
            ClassDescriptor("matching", 6, 4)
        with pytest.raises(ValueError):
            ClassDescriptor("matching", 6, 0)

    def test_connectivity_positive(self):
        ClassDescriptor("vertex-connectivity", 6, 1)
        with pytest.raises(ValueError):
            ClassDescriptor("edge-connectivity", 6, 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ClassDescriptor("girth", 6, 3)

    def test_membership(self):
        assert class_member(complete_bipartite(2, 4), ClassDescriptor("matching", 6, 2))
        assert class_member(join_family(1, 3, 2),
                            ClassDescriptor("vertex-connectivity", 7, 1))
        assert not class_member(PATH4, ClassDescriptor("vertex-connectivity", 4, 2))
