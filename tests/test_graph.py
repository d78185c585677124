"""Graph construction, bipartition discovery, and graph6 round trips."""

import random

import networkx as nx
import pytest

from bipartite_estrada.graph import (Graph, Graph6Error, bit_indices,
                                     colour_classes, emit_graph6,
                                     find_bipartition, from_biadjacency,
                                     parse_graph6)
from bipartite_estrada.search import _canonical_key
from oracles import all_graphs, bf_is_bipartite, random_graph


class TestConstruction:
    def test_complete_pattern(self):
        g = from_biadjacency(2, 3, [[1, 1, 1], [1, 1, 1]])
        assert g.n == 5 and g.m == 6

    def test_single_isolated_vertex(self):
        g = from_biadjacency(1, 0, [[]])
        assert g.n == 1 and g.m == 0

    def test_identity_pattern_two_disjoint_edges(self):
        g = from_biadjacency(2, 2, [[1, 0], [0, 1]])
        assert g.m == 2
        assert g.has_edge(0, 2) and g.has_edge(1, 3)

    def test_size_overflow_rejected(self):
        with pytest.raises(ValueError):
            from_biadjacency(31, 32, [[0] * 32 for _ in range(31)])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            from_biadjacency(0, 0, [])

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            Graph(2, [0b10, 0b00])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [0b01, 0b10])

    def test_immutable(self):
        g = from_biadjacency(1, 1, [[1]])
        with pytest.raises(AttributeError):
            g.n = 3


class TestBipartition:
    def test_complete_bipartite_sides(self):
        g = from_biadjacency(2, 3, [[1, 1, 1], [1, 1, 1]])
        bip = find_bipartition(g)
        assert bip.side_x == frozenset({0, 1})
        assert bip.side_y == frozenset({2, 3, 4})

    def test_triangle_has_none(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert find_bipartition(g) is None

    def test_two_disjoint_edges_lowest_index_rule(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        bip = find_bipartition(g)
        assert bip.side_x == frozenset({0, 2})
        assert bip.side_y == frozenset({1, 3})

    def test_exhaustive_against_two_coloring(self):
        # odd-closed-walk existence <-> no valid 2-coloring, all graphs n <= 5
        for n in range(1, 6):
            for g in all_graphs(n):
                assert (find_bipartition(g) is not None) == bf_is_bipartite(g)

    @pytest.mark.slow
    def test_exhaustive_against_two_coloring_order6(self):
        for g in all_graphs(6):
            assert (find_bipartition(g) is not None) == bf_is_bipartite(g)

    def test_sides_are_valid(self):
        rng = random.Random(11)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10), 0.3)
            bip = find_bipartition(g)
            if bip is None:
                continue
            assert bip.side_x | bip.side_y == set(range(g.n))
            assert not bip.side_x & bip.side_y
            for u, v in g.edges():
                assert (u in bip.side_x) != (v in bip.side_x)

    def test_colour_classes_per_component(self):
        # isolated 0 and 3, the edge 1-4, the path 2-5-6-7
        g = Graph.from_edges(8, [(1, 4), (2, 5), (5, 6), (6, 7)])
        assert colour_classes(g) == [(0b1, 0), (0b10, 0b10000),
                                     (0b1000100, 0b10100000), (0b1000, 0)]
        bip = find_bipartition(g)
        assert bip.side_x == frozenset({0, 1, 2, 3, 6})
        assert bip.side_y == frozenset({4, 5, 7})
        assert colour_classes(Graph(1, [0])) == [(1, 0)]
        assert colour_classes(Graph(3, [0, 0, 0])) == [(1, 0), (2, 0), (4, 0)]

    def test_odd_cycle_in_a_later_component(self):
        # a bipartite path 0-1-2 and isolated 3 before a 5-cycle on 4..8
        cycle = [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
        g = Graph.from_edges(10, [(0, 1), (1, 2)] + cycle)
        assert colour_classes(g) is None
        assert find_bipartition(g) is None
        with pytest.raises(ValueError, match="not bipartite"):
            _canonical_key(g)

    def test_colour_classes_against_networkx(self):
        rng = random.Random(17)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 14), rng.choice((0.1, 0.2, 0.35)))
            classes = colour_classes(g)
            graph = nx.Graph(g.edges())
            graph.add_nodes_from(range(g.n))
            assert (classes is not None) == nx.is_bipartite(graph)
            if classes is None:
                continue
            components = sorted(nx.connected_components(graph), key=min)
            assert len(classes) == len(components)
            for (x, y), component in zip(classes, components):
                assert x & y == 0 and x & (1 << min(component))
                assert set(bit_indices(x | y)) == component
                for side in (x, y):
                    assert all(g.rows[v] & side == 0 for v in bit_indices(side))


class TestGraph6:
    def test_single_vertex(self):
        # frozen from the published format: 63 + 1 = '@', no data bytes
        g = parse_graph6("@")
        assert g.n == 1 and g.m == 0
        assert emit_graph6(g) == "@"

    def test_single_edge(self):
        # frozen: n=2 -> 'A'; one bit set -> 100000 -> 63+32 = '_'
        g = Graph.from_edges(2, [(0, 1)])
        assert emit_graph6(g) == "A_"
        assert parse_graph6("A_") == g

    def test_round_trip_all_small_graphs(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert parse_graph6(emit_graph6(g)) == g

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(10_000):
            g = random_graph(rng, rng.randint(1, 40), rng.random())
            assert parse_graph6(emit_graph6(g)) == g

    def test_against_reference_tool(self):
        rng = random.Random(13)
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 30), 0.35)
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges())
            expected = nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert emit_graph6(g) == expected
            back = nx.from_graph6_bytes(expected.encode())
            assert set(back.edges()) == {tuple(e) for e in g.edges()}

    @pytest.mark.parametrize("text,offset", [
        ("", 0),              # empty
        ("~??", 0),           # multi-byte header
        (">>graph6<<@", 0),   # explicit format header
        ("\x1f", 0),          # non-printable size byte
        ("B", 1),             # truncated: n=3 needs one data byte
        ("A_X", 2),           # trailing garbage
        ("A" + chr(10), 1),   # non-printable data byte
    ])
    def test_parse_errors_carry_offsets(self, text, offset):
        with pytest.raises(Graph6Error) as err:
            parse_graph6(text)
        assert err.value.offset == offset

    def test_nonzero_padding_rejected(self):
        # n=2 has one data bit; set a padding bit below it
        with pytest.raises(Graph6Error):
            parse_graph6("A" + chr(63 + 0b010000))
