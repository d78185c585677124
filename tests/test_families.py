"""Family constructors: shapes, degenerate cases, and side properties."""

import math

import pytest

from bipartite_estrada import families
from bipartite_estrada.families import (CoverPartition, JoinFamilyParams,
                                        build_cli_family, collapsed_cover_graph,
                                        complete_bipartite, join_family,
                                        join_family_double,
                                        saturated_cover_graph)
from bipartite_estrada.graph import Graph, find_bipartition
from bipartite_estrada.invariants import edge_connectivity, vertex_connectivity
from bipartite_estrada.search import is_isomorphic
from bipartite_estrada.spectral import eigenvalues, estrada

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])

# one instance of each CLI family at an order of a few hundred
OVERSIZED = [
    ("complete-bipartite", dict(p=150, q=150)),
    ("join", dict(s=1, p=150, q=150)),
    ("join-double", dict(s=1, n1=100, n2=100, m1=50, m2=50)),
    ("g-star", dict(x1=100, x2=100, y1=1, y2=100)),
    ("g-double-star", dict(x1=100, x2=100, y1=1, y2=100)),
]


class TestCompleteBipartite:
    def test_single_edge(self):
        assert complete_bipartite(1, 1) == Graph.from_edges(2, [(0, 1)])

    def test_two_three(self):
        g = complete_bipartite(2, 3)
        assert g.n == 5 and g.m == 6
        spectrum = eigenvalues(g)
        assert spectrum.eigenvalues[0] == pytest.approx(math.sqrt(6), abs=1e-10)
        assert spectrum.nullity == 3

    def test_degenerate_empty_side(self):
        g = complete_bipartite(0, 3)
        assert g.n == 3 and g.m == 0


class TestJoinFamily:
    def test_smallest_is_path(self):
        assert join_family(1, 1, 1) == PATH4

    def test_connectivity_instance(self):
        g = join_family(2, 3, 2)
        assert vertex_connectivity(g) == 2

    def test_degenerate_no_tail(self):
        for s in (1, 2, 3):
            for p in (0, 1, 2, 4):
                assert is_isomorphic(join_family(s, p, 0),
                                     complete_bipartite(s, p + 1))

    def test_edge_count_and_bipartite(self):
        for s in (1, 2, 3):
            for p in (0, 1, 3):
                for q in (0, 1, 2):
                    g = join_family(s, p, q)
                    assert g.n == s + p + q + 1
                    assert g.m == s + s * p + p * q
                    assert find_bipartition(g) is not None

    def test_params_validation(self):
        with pytest.raises(ValueError):
            JoinFamilyParams(0, 1, 1)
        with pytest.raises(ValueError):
            JoinFamilyParams(1, -1, 0)
        assert JoinFamilyParams(2, 3, 1).n == 7

    def test_predicted_family_connectivity_grid(self):
        # the family instance used as the class prediction has both
        # connectivities exactly s
        for n in range(4, 13):
            ceil_half = -(-(n - 1) // 2)
            for s in range(1, ceil_half + 1):
                g = join_family(s, (n - 1) // 2, ceil_half - s)
                assert vertex_connectivity(g) == s
                assert edge_connectivity(g) == s


class TestJoinFamilyDouble:
    def test_consistency_with_single(self):
        for s in (1, 2):
            for p in (1, 2):
                for q in (0, 2):
                    assert join_family_double(s, 1, 0, p, q) == join_family(s, p, q)

    def test_spider(self):
        g = join_family_double(1, 1, 1, 1, 1)
        assert g.n == 5 and g.m == 4
        # a tree: connected with n-1 edges
        assert vertex_connectivity(g) == 1

    def test_bipartite_grid(self):
        for s in (1, 2):
            for n1 in (0, 1, 2):
                for n2 in (0, 1):
                    for m1 in (0, 2):
                        for m2 in (0, 1):
                            if s + n1 + n2 + m1 + m2 < 1:
                                continue
                            g = join_family_double(s, n1, n2, m1, m2)
                            assert find_bipartition(g) is not None


class TestCoverGraphs:
    def test_no_uncovered_block_means_equal(self):
        part = CoverPartition(2, 0, 1, 3)
        assert saturated_cover_graph(part) == collapsed_cover_graph(part)

    def test_small_instance_strictly_improves(self):
        part = CoverPartition(2, 1, 1, 1)
        lo = estrada(saturated_cover_graph(part)).value
        hi = estrada(collapsed_cover_graph(part)).value
        assert lo < hi

    def test_collapsed_is_complete_bipartite(self):
        for x1 in (1, 2, 3):
            for x2 in (0, 1, 2):
                for y1 in range(0, x1 + 1):
                    for y2 in (0, 2):
                        part = CoverPartition(x1, x2, y1, y2)
                        assert is_isomorphic(collapsed_cover_graph(part),
                                             complete_bipartite(x1, x2 + y1 + y2))

    def test_saturated_edge_set(self):
        part = CoverPartition(2, 1, 1, 1)
        g = saturated_cover_graph(part)
        # X1 = {0,1}, X2 = {2}, Y1 = {3}, Y2 = {4}
        assert sorted(g.edges()) == [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3)]

    def test_normalisation_enforced(self):
        with pytest.raises(ValueError):
            CoverPartition(1, 0, 2, 0)
        with pytest.raises(ValueError):
            CoverPartition(0, 1, 0, 0)


class TestCliFamilies:
    def test_dispatch(self):
        assert build_cli_family("complete-bipartite", p=2, q=4) == complete_bipartite(2, 4)
        assert build_cli_family("join", s=1, p=3, q=2) == join_family(1, 3, 2)
        assert build_cli_family("join-double", s=1, n1=1, n2=1, m1=1, m2=1) \
            == join_family_double(1, 1, 1, 1, 1)
        part = CoverPartition(2, 1, 1, 1)
        assert build_cli_family("g-star", x1=2, x2=1, y1=1, y2=1) \
            == saturated_cover_graph(part)
        assert build_cli_family("g-double-star", x1=2, x2=1, y1=1, y2=1) \
            == collapsed_cover_graph(part)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_cli_family("hypercube", p=1, q=1)

    @pytest.mark.parametrize("name, sizes", OVERSIZED)
    def test_order_above_62_rejected_before_any_graph(self, name, sizes,
                                                       monkeypatch):
        def build(*args):
            raise AssertionError("an edge list was handed to a graph constructor")
        monkeypatch.setattr(families.Graph, "from_edges", build)
        monkeypatch.setattr(families, "from_biadjacency", build)
        with pytest.raises(ValueError, match="maximum 62"):
            build_cli_family(name, **sizes)

    def test_order_62_still_built(self):
        assert build_cli_family("join", s=1, p=30, q=30).n == 62
        assert build_cli_family("complete-bipartite", p=31, q=31).n == 62
        with pytest.raises(ValueError, match="order 63"):
            build_cli_family("complete-bipartite", p=31, q=32)
