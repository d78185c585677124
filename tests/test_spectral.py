"""Eigensolver, exact nullity, exact moments, and the three index routes."""

import math
import random

import numpy as np
import pytest

from bipartite_estrada.families import complete_bipartite, join_family
from bipartite_estrada.graph import Graph, find_bipartition, from_biadjacency
from bipartite_estrada.quartic import quartic_roots
from bipartite_estrada.spectral import (SPECTRUM_TOLERANCE, _char_poly,
                                        _moment_run, _spectrum, eigenvalues,
                                        estrada, moment_series, nullity_exact)
from oracles import (bf_closed_walks, bipartite_graphs, char_poly_big_integer,
                     ee_lapack, fraction_rank, power_moments, random_bipartite,
                     random_graph, spectrum_lapack)

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
# K_{1,4} plus two isolated vertices: the smaller colour class {0, 5, 6}
# holds the isolated vertices
STAR_PLUS_TWO = Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 4)])
GOLDEN = (1 + math.sqrt(5)) / 2


class TestEigenvalues:
    def test_single_edge(self):
        res = eigenvalues(Graph.from_edges(2, [(0, 1)]))
        assert res.eigenvalues == pytest.approx((1.0, -1.0), abs=1e-12)
        assert res.nullity == 0

    def test_complete_bipartite(self):
        res = eigenvalues(complete_bipartite(2, 3))
        root6 = math.sqrt(6)
        assert res.eigenvalues[0] == pytest.approx(root6, abs=1e-10)
        assert res.eigenvalues[-1] == pytest.approx(-root6, abs=1e-10)
        assert all(abs(x) < 1e-10 for x in res.eigenvalues[1:4])
        assert res.nullity == 3

    def test_path4_golden_ratio(self):
        # roots of x**4 - 3x**2 + 1: +/-phi and +/-(phi - 1)
        res = eigenvalues(PATH4)
        expected = (GOLDEN, GOLDEN - 1, 1 - GOLDEN, -GOLDEN)
        assert res.eigenvalues == pytest.approx(expected, abs=1e-10)

    def test_trace_near_zero(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng, rng.randint(2, 20), 0.4)
            res = eigenvalues(g)
            assert abs(sum(res.eigenvalues)) < g.n * 1e-10

    def test_closed_forms(self):
        # K_{p,q} has spectrum +-sqrt(pq) and n - 2 zeros; the apex join has
        # +-x1, +-x2 (x2 only when q > 0) from quartic_roots and zeros.  Every
        # K_{p,q} up to the graph6 limit n = 62; every apex join of order
        # n <= 16 and of order 62 (all 37,820 joins with n <= 62 agree to
        # 4.2e-14 but take about 18 s on a 2-vCPU host).  The float route is
        # called directly: the exact nullity of eigenvalues() is not under test
        def check(g, roots):
            zeros = [0.0] * (g.n - 2 * len(roots))
            want = np.sort([-x for x in roots] + zeros + list(roots))
            assert np.abs(_spectrum(g) - want).max() <= SPECTRUM_TOLERANCE

        for n in range(2, 63):
            for p in range(1, n // 2 + 1):
                check(complete_bipartite(p, n - p), [math.sqrt(p * (n - p))])
        for n in list(range(3, 17)) + [62]:
            for s in range(1, n - 1):
                for p in range(1, n - s):
                    form = quartic_roots(p, n - 1 - s - p, s)
                    check(join_family(s, p, n - 1 - s - p),
                          [form.x1, form.x2] if form.q else [form.x1])

    def test_power_sums_match_exact_moments(self):
        # sum lambda^k against the exact M_k for k <= 6, to within 1e-12 of
        # sum |lambda|^k (measured: 1e-14); odd M_k of a bipartite graph is 0
        rng = random.Random(5)
        for i in range(200):
            if i % 2:
                g = random_bipartite(rng, 25, rng.uniform(0.1, 0.9))
            else:
                g = random_graph(rng, rng.randint(1, 25), rng.uniform(0.1, 0.9))
            vals = np.array(eigenvalues(g).eigenvalues)
            for k, m_k in enumerate(_moment_run(g, 6)):
                scale = float((np.abs(vals) ** k).sum())
                assert abs(float((vals ** k).sum()) - m_k) <= 1e-12 * scale

    def test_bipartite_pairing(self):
        rng = random.Random(9)
        for _ in range(100):
            g = random_bipartite(rng, 12)
            vals = eigenvalues(g).eigenvalues
            for i in range(g.n):
                assert abs(vals[i] + vals[g.n - 1 - i]) < 1e-8


class TestNullity:
    def test_complete_bipartite(self):
        assert nullity_exact(complete_bipartite(3, 3)) == 4
        assert nullity_exact(complete_bipartite(1, 1)) == 0

    def test_path4(self):
        # adjacency determinant is 1, so full rank
        assert nullity_exact(PATH4) == 0

    def test_empty(self):
        assert nullity_exact(Graph(6, [0] * 6)) == 6

    def test_nullity_vs_fraction_rank(self):
        rng = random.Random(17)
        graphs = [random_graph(rng, rng.randint(1, 12), rng.uniform(0.1, 0.9))
                  for _ in range(100)]
        graphs += [random_bipartite(rng, 12, rng.uniform(0.1, 0.9))
                   for _ in range(100)]
        graphs += [
            Graph(1, [0]),
            Graph(6, [0] * 6),
            STAR_PLUS_TWO,
            # two equal left rows, so rank B < a
            from_biadjacency(3, 3, [[1, 1, 0], [1, 1, 0], [0, 1, 1]]),
        ]
        for g in graphs:
            assert nullity_exact(g) == g.n - fraction_rank(g.adjacency_int_rows())
        assert nullity_exact(complete_bipartite(31, 31)) == 60

    def test_float_hint_agrees_at_desk_scale(self):
        # the float spectrum's near-zero count matches the exact nullity
        rng = random.Random(23)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 12), 0.4)
            res = eigenvalues(g)
            assert sum(abs(x) < 1e-6 for x in res.eigenvalues) == res.nullity


class TestCharPoly:
    """The coefficients rebuilt from prime residues against the big-integer
    oracle; K_n, odd cycles and other non-bipartite graphs have negative
    coefficients."""

    @staticmethod
    def check(g, bipartite):
        e, flag = _char_poly(g)
        assert flag == bipartite
        assert list(e) == char_poly_big_integer(g)
        return e

    def test_complete_bipartite(self):
        # d = min(p, q), e_1 = pq and every later e_k is 0
        for p, q in ((1, 1), (1, 6), (2, 5), (7, 3), (20, 42), (31, 31)):
            e = self.check(complete_bipartite(p, q), True)
            assert e == (1, p * q) + (0,) * (min(p, q) - 1)

    def test_apex_join(self):
        # e_1 = c2 and e_2 = c0 of the biquadratic; c0 = 0 when q = 0
        joins = [(s, p, q) for s in range(1, 4) for p in range(1, 5)
                 for q in range(0, 4)] + [(4, 30, 27), (20, 21, 20)]
        for s, p, q in joins:
            form = quartic_roots(p, q, s)
            e = self.check(join_family(s, p, q), True)
            assert e[:3] == (1, form.c2, form.c0)[:len(e)]
            assert set(e[3:]) <= {0}
            assert len(e) > 2 or form.c0 == 0

    def test_complete_graphs(self):
        # spectrum n - 1 once and -1 n - 1 times
        for n in (3, 4, 5, 8, 17, 62):
            complete = Graph(n, [((1 << n) - 1) ^ (1 << v) for v in range(n)])
            e, bipartite = _char_poly(complete)
            assert not bipartite
            assert e == (1,) + tuple(
                (-1) ** k * (math.comb(n - 1, k) - (n - 1) * math.comb(n - 1, k - 1))
                for k in range(1, n + 1))
            if n <= 17:
                self.check(complete, False)

    def test_odd_cycles(self):
        for n in (3, 5, 7, 9, 15, 31, 61):
            cycle = Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])
            e = self.check(cycle, False)
            assert min(e) < 0

    def test_edgeless(self):
        for n in (1, 2, 6):
            assert self.check(Graph(n, [0] * n), True) == (1,)

    def test_seeded_graphs_to_order_62(self):
        rng = random.Random(61)
        for n in (8, 20, 33, 47, 62, 62):
            for density in (0.1, 0.5, 0.9):
                a = rng.randint(1, n // 2)
                bits = [[int(rng.random() < density) for _ in range(n - a)]
                        for _ in range(a)]
                self.check(from_biadjacency(a, n - a, bits), True)
        for n in (6, 13, 29, 45, 62):
            g = random_graph(rng, n, rng.uniform(0.2, 0.8))
            self.check(g, find_bipartition(g) is not None)


class TestMoments:
    def test_second_moment_is_twice_edges(self):
        rng = random.Random(29)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 10), 0.5)
            assert moment_series(g, 2).moments[2] == 2 * g.m

    def test_complete_bipartite_fourth(self):
        assert moment_series(complete_bipartite(2, 3), 4).moments[4] == 72

    def test_path4_fourth(self):
        assert bf_closed_walks(PATH4, 4) == 14
        assert moment_series(PATH4, 4).moments[4] == 14

    def test_against_walk_enumeration(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_graph(rng, rng.randint(1, 6), 0.5)
            for k in range(6):
                assert moment_series(g, k).moments[k] == bf_closed_walks(g, k)

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            moment_series(PATH4, 65)
        with pytest.raises(ValueError):
            moment_series(PATH4, -1)

    def test_series_shape(self):
        series = moment_series(complete_bipartite(2, 2), 6)
        assert series.moments[0] == 4 and series.moments[1] == 0
        assert series.moments[2] == 2 * 4
        assert all(series.moments[k] == 0 for k in (1, 3, 5))

    def test_agrees_with_float_powers(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 10), 0.4)
            vals = spectrum_lapack(g)
            for k in range(1, 9):
                exact = moment_series(g, k).moments[k]
                approx = float((vals ** k).sum())
                assert abs(exact - approx) <= k * g.n * 1e-6 * max(1.0, exact)

    def test_kernel_matches_power_oracle(self):
        # the Gram-matrix kernel against the full adjacency power loop
        rng = random.Random(47)
        non_bipartite = []
        while len(non_bipartite) < 40:
            g = random_graph(rng, rng.randint(3, 12), rng.uniform(0.2, 0.8))
            if find_bipartition(g) is None:
                non_bipartite.append(g)
        edge_cases = [
            Graph(1, [0]),
            Graph(5, [0] * 5),
            STAR_PLUS_TWO,
        ]
        graphs = [g for n in range(2, 7) for g in bipartite_graphs(n)]
        for g in graphs + non_bipartite + edge_cases:
            want = power_moments(g, 64)
            for k in (0, 1, 2, 3, 64):
                assert _moment_run(g, k) == want[:k + 1]

    def test_complete_bipartite_closed_form_at_large_k(self):
        # K_{p,q} has M_2j = 2 (pq)^j for j >= 1; K_{31,31} runs to K = 128
        moments = _moment_run(complete_bipartite(31, 31), 128)
        assert moments[0] == 62
        assert moments[1::2] == [0] * 64
        assert moments[2::2] == [2 * 961 ** j for j in range(1, 65)]


class TestEstrada:
    def test_single_edge_cosh_value(self):
        expected = 2 * math.cosh(1)
        for method in ("eigen", "cosh", "moment-series"):
            got = estrada(Graph.from_edges(2, [(0, 1)]), method).value
            assert got == pytest.approx(expected, abs=1e-10)

    def test_square_value(self):
        expected = 2 + 2 * math.cosh(2)
        assert estrada(complete_bipartite(2, 2)).value == pytest.approx(expected, abs=1e-10)

    def test_empty_graph(self):
        g = Graph(7, [0] * 7)
        assert estrada(g).value == pytest.approx(7.0, abs=1e-12)
        series = estrada(g, "moment-series")
        assert series.value == 7.0 and series.error_bound == 0.0

    def test_cosh_requires_bipartite(self):
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            estrada(triangle, "cosh")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            estrada(PATH4, "expm")

    def test_triangle_eigen(self):
        triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        expected = math.exp(2) + 2 * math.exp(-1)
        assert estrada(triangle).value == pytest.approx(expected, abs=1e-12)

    def test_moment_series_complete_bipartite_31_31(self):
        # spectrum of K_{31,31}: +-31 and 60 zeros
        value = estrada(complete_bipartite(31, 31), "moment-series").value
        assert value == pytest.approx(60 + 2 * math.cosh(31), rel=1e-14)

    def test_series_bound_is_honest(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_bipartite(rng, 8)
            series = estrada(g, "moment-series")
            assert series.error_bound < 1e-10
            assert abs(series.value - ee_lapack(g)) <= series.error_bound + 1e-10

    def test_methods_agree_random_bipartite(self):
        rng = random.Random(43)
        for _ in range(500):
            g = random_bipartite(rng, 8)
            eigen = estrada(g, "eigen").value
            cosh = estrada(g, "cosh").value
            series = estrada(g, "moment-series").value
            assert abs(eigen - cosh) < 1e-10
            assert abs(eigen - series) < 1e-8


class TestCompareExact:
    def test_cospectral_mates_detected(self):
        # the classic pair: a 4-star and a 4-cycle plus isolated vertex
        star = complete_bipartite(1, 4)
        square_plus_point = Graph.from_edges(5, [(0, 2), (0, 3), (1, 2), (1, 3)])
        expected = [5, 0, 8, 0, 32, 0, 128, 0, 512]
        for k, want in enumerate(expected):
            assert moment_series(star, k).moments[k] == want
            assert moment_series(square_plus_point, k).moments[k] == want
