"""Scan stream, isomorphism, and the class maximizer scans."""

import itertools
import math
import random

import networkx as nx
import numpy as np

import pytest

from bipartite_estrada import invariants, search
from bipartite_estrada.families import complete_bipartite, join_family
from bipartite_estrada.graph import (Graph, emit_graph6, find_bipartition,
                                     from_biadjacency)
from bipartite_estrada.invariants import ClassDescriptor, class_member
from bipartite_estrada.search import (find_maximizers, is_isomorphic,
                                      predicted_maximizer)
from oracles import (adjacency_scan_graphs, adjacency_scan_index,
                     bipartite_graphs, connected_after_removal,
                     corrected_connectivity_prediction, ee_lapack,
                     labelled_maximizers, random_bipartite,
                     row_multiset_maximizers, row_multisets)

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


class TestEnumeration:
    def test_order2(self):
        graphs = list(bipartite_graphs(2))
        assert len(graphs) == 2
        assert {g.m for g in graphs} == {0, 1}
        report = find_maximizers("matching", 2)[0]
        assert (report.graphs_scanned, report.class_size) == (2, 1)

    def test_stream_sizes(self):
        assert find_maximizers("matching", 5)[0].graphs_scanned == 2 ** 4 + 2 ** 6
        assert find_maximizers("matching", 6)[1].graphs_scanned \
            == 2 ** 5 + 2 ** 8 + 2 ** 9

    def test_connected_order4_contents(self):
        graphs = list(bipartite_graphs(4, connected_only=True))
        assert all(find_bipartition(g) is not None for g in graphs)
        assert any(is_isomorphic(g, PATH4) for g in graphs)
        assert any(is_isomorphic(g, complete_bipartite(1, 3)) for g in graphs)
        assert any(is_isomorphic(g, complete_bipartite(2, 2)) for g in graphs)
        # nothing with an odd cycle can appear
        assert all(g.m <= 4 for g in graphs)
        # the scan's connectivity classes partition the same connected stream
        reports = find_maximizers("vertex-connectivity", 4, values=[1, 2, 3])
        assert sum(r.class_size for r in reports) == len(graphs)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            find_maximizers("matching", 1)
        with pytest.raises(ValueError):
            find_maximizers("matching", 13, allow_n12=True)


def _orbit_key(a, b, bits):
    """The least labelled mask over S_a x S_b, by brute force."""
    return min(sum(bits[r][c] << (i * b + j)
                   for i, r in enumerate(rows) for j, c in enumerate(cols))
               for rows in itertools.permutations(range(a))
               for cols in itertools.permutations(range(b)))


class TestOrbitGenerator:
    # S_a x S_b orbits of the splits (a, n - a), 1 <= a <= n/2
    ORBITS = {2: 2, 3: 3, 4: 11, 5: 18, 6: 64, 7: 128, 8: 565, 9: 1518,
              10: 9713}

    @staticmethod
    def orbits(a, b):
        return search._orbits(a, b, 0, len(search._prefixes(a, b)[0]))

    @pytest.mark.parametrize("n", sorted(ORBITS))
    def test_orbit_counts_and_weights(self, n):
        total = 0
        for a in range(1, n // 2 + 1):
            columns, weights = self.orbits(a, n - a)
            assert int(weights.sum()) == 2 ** (a * (n - a))
            total += len(columns)
        assert total == self.ORBITS[n]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_representatives_pairwise_inequivalent(self, n):
        for a in range(1, n // 2 + 1):
            b = n - a
            columns, weights = self.orbits(a, b)
            assert (np.diff(columns, axis=1) >= 0).all()
            keys = []
            for cols, weight in zip(columns.tolist(), weights.tolist()):
                bits = [[(c >> i) & 1 for c in cols] for i in range(a)]
                keys.append(_orbit_key(a, b, bits))
                # the weight is the number of distinct labelled masks
                orbit = {sum(bits[r][c] << (i * b + j)
                             for i, r in enumerate(rows) for j, c in enumerate(perm))
                         for rows in itertools.permutations(range(a))
                         for perm in itertools.permutations(range(b))}
                assert weight == len(orbit)
            assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_least_mask_is_orbit_minimum(self, n):
        rng = random.Random(n)
        for a in range(1, n // 2 + 1):
            b = n - a
            for _ in range(20):
                mask = rng.randrange(1 << (a * b))
                bits = [[(mask >> (i * b + j)) & 1 for j in range(b)]
                        for i in range(a)]
                want = _orbit_key(a, b, bits)
                if a == b:
                    want = min(want, _orbit_key(a, b, [list(r) for r in zip(*bits)]))
                assert search._least_mask(n, a, mask) == want

    def test_prefix_range_checked(self):
        total = len(search._prefixes(3, 3)[0])
        search._orbits(3, 3, 0, total)
        for lo, hi in ((0, total + 1), (-1, 2), (5, 4)):
            with pytest.raises(ValueError):
                search._orbits(3, 3, lo, hi)


class TestRowMultisets:
    """The row-multiset oracle: one mask per multiset of left rows."""

    SPLITS = [(a, b) for a in range(1, 5) for b in range(a, 21) if a * b <= 20]

    @pytest.mark.parametrize("a,b", SPLITS)
    def test_ranks_cover_every_left_orbit_once(self, a, b):
        total = math.comb(2 ** b + a - 1, a)
        rows, weights = row_multisets(a, b, 0, total)
        shifts = b * np.arange(a, dtype=np.int64)
        masks = (rows << shifts).sum(axis=1)
        assert len(np.unique(masks)) == total
        assert ((0 <= rows) & (rows < 2 ** b)).all()
        orbit = np.stack([(rows[:, list(perm)] << shifts).sum(axis=1)
                          for perm in itertools.permutations(range(a))], axis=1)
        # the scanned mask is the least of its left-row permutations ...
        assert (masks == orbit.min(axis=1)).all()
        # ... and its weight is the number of distinct permuted masks
        orbit.sort(axis=1)
        sizes = 1 + (np.diff(orbit, axis=1) != 0).sum(axis=1)
        assert (weights == sizes).all()
        assert int(weights.sum()) == 2 ** (a * b)
        rng = random.Random(a * 100 + b)
        for _ in range(3):
            lo = rng.randrange(total)
            hi = rng.randrange(lo, total) + 1
            part_rows, part_weights = row_multisets(a, b, lo, hi)
            assert (part_rows == rows[lo:hi]).all()
            assert (part_weights == weights[lo:hi]).all()

    def test_rank_range_checked(self):
        # (3, 3) has C(2**3 + 2, 3) = 120 row multisets
        row_multisets(3, 3, 0, 120)
        for lo, hi in ((0, 512), (0, 121), (-1, 5), (7, 6)):
            with pytest.raises(ValueError):
                row_multisets(3, 3, lo, hi)


class TestLabelledOracle:
    @pytest.mark.parametrize("kind", ["matching", "vertex-connectivity",
                                      "edge-connectivity"])
    def test_orbit_scan_matches_labelled_scan(self, kind):
        for n in range(2, 9):
            assert_same_reports(find_maximizers(kind, n),
                                labelled_maximizers(kind, n))

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", ["matching", "vertex-connectivity",
                                      "edge-connectivity"])
    def test_orbit_scan_matches_row_multiset_scan_n9(self, kind):
        assert_same_reports(find_maximizers(kind, 9),
                            row_multiset_maximizers(kind, 9))


def assert_same_reports(got_reports, want_reports):
    """Equal on every payload field, floats bit for bit."""
    fields = ("class_size", "graphs_scanned", "near_tie_count", "empty",
              "unique", "uniqueness_undecided", "matches_prediction",
              "max_ee", "runner_up_gap")
    assert len(got_reports) == len(want_reports)
    for got, want in zip(got_reports, want_reports):
        assert got.descriptor == want.descriptor
        for field in fields:
            assert getattr(got, field) == getattr(want, field), \
                (got.descriptor, field)
        if want.empty:
            assert got.maximizer is None
        else:
            assert emit_graph6(got.maximizer) == emit_graph6(want.maximizer)


class TestGramIndex:
    """The scan's index comes from the ``a x a`` Gram matrices ``B B^T``; the
    ``n x n`` adjacency route of the oracles is its reference."""

    def test_matches_adjacency_route_on_every_representative(self, monkeypatch):
        # each graph is its own matching class, so each class maximum is the
        # scan's index of one graph, all taken in one batch per split
        total = 0
        for n in range(2, 11):
            for a in range(1, n // 2 + 1):
                columns, weights = TestOrbitGenerator.orbits(a, n - a)
                values = range(len(columns))
                monkeypatch.setattr(search, "_kuhn_matching",
                                    lambda rows, left, ids=iter(values): next(ids))
                partials = search._scan_graphs("matching", n, a, columns,
                                               weights, values)
                got = np.array([partials[v].best for v in values])
                biadj = (columns[:, None, :] >> np.arange(a)[:, None]) & 1
                want = adjacency_scan_index(n, a, biadj)
                assert (np.abs(got - want) <= 1e-13 * want).all(), (n, a)
                total += len(columns)
        assert total == sum(TestOrbitGenerator.ORBITS.values())

    @pytest.mark.parametrize("kind", ["matching", "vertex-connectivity",
                                      "edge-connectivity"])
    def test_reports_equal_adjacency_route(self, kind, monkeypatch):
        gram = [find_maximizers(kind, n) for n in range(2, 10)]
        monkeypatch.setattr(search, "_scan_graphs", adjacency_scan_graphs)
        for n, got in zip(range(2, 10), gram):
            assert_same_reports(got, find_maximizers(kind, n))


class TestHaloRule:
    """``_finalize`` decides a halo by isomorphism and cospectrality alone."""

    @staticmethod
    def finalize(descriptor, halo):
        # halo entries are (ee, a, mask) with weight 1
        entries = [(ee, a, mask, 1) for ee, a, mask in halo]
        partial = search._Partial(len(entries), max(e[0] for e in entries),
                                  entries)
        return search._finalize(descriptor, partial, len(entries), 0.0)

    def test_isomorphic_copies_are_unique(self):
        # the 6-cycle in three labellings of the (3, 3) split
        masks = [0b011_110_101, 0b101_011_110, 0b110_101_011]
        ee = ee_lapack(search._graph_from_split(6, 3, masks[0]))
        report = self.finalize(ClassDescriptor("matching", 6, 3),
                               [(ee, 3, mask) for mask in masks])
        assert (report.unique, report.uniqueness_undecided) == (True, False)
        # the leader is the least labelled mask of the 6-cycle, which none
        # of the three scanned copies is
        least = 0b011_101_110
        assert least < min(masks)
        assert emit_graph6(report.maximizer) \
            == emit_graph6(search._graph_from_split(6, 3, least))

    def test_cospectral_rival_is_decided_not_unique(self):
        # the Saltire pair: K_{1,4} and C_4 + K_1 share the spectrum (+-2, 0^3)
        star = search._graph_from_split(5, 1, 15)
        square = search._graph_from_split(5, 2, 27)
        assert is_isomorphic(star, complete_bipartite(1, 4))
        assert not is_isomorphic(star, square)
        ee = ee_lapack(star)
        report = self.finalize(ClassDescriptor("matching", 5, 1),
                               [(ee, 2, 27), (ee, 1, 15)])
        assert report.maximizer == star
        assert (report.unique, report.uniqueness_undecided) == (False, False)

    def test_non_cospectral_rival_is_undecided(self):
        # the lexicographic moment order ranked FBjC? (m = 7) above the
        # star K_{1,6} (m = 6), whose index is larger
        star = search._graph_from_split(7, 1, 63)
        rival = search._graph_from_split(7, 3, 862)
        assert (emit_graph6(star), emit_graph6(rival)) == ("FsaC?", "FBjC?")
        assert ee_lapack(star) > ee_lapack(rival)
        report = self.finalize(ClassDescriptor("vertex-connectivity", 7, 1),
                               [(ee_lapack(rival), 3, 862),
                                (ee_lapack(star), 1, 63)])
        assert emit_graph6(report.maximizer) == "FsaC?"
        assert report.max_ee == ee_lapack(star)
        assert (report.unique, report.uniqueness_undecided) == (False, True)


def _nx(g: Graph) -> nx.Graph:
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    return ref


class TestIsomorphism:
    def test_relabeling_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_bipartite(rng, 12, rng.choice([0.0, 0.2, 0.4, 0.7]))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert is_isomorphic(g, g.relabel(perm))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_keys_complete_exhaustive(self, n):
        # keys split every labelled bipartite graph on n vertices into
        # exactly the networkx isomorphism classes
        classes: dict = {}
        for g in bipartite_graphs(n):
            classes.setdefault(search._canonical_key(g), []).append(g)
        for members in classes.values():
            assert all(nx.is_isomorphic(_nx(members[0]), _nx(g))
                       for g in members[1:])
        leaders = [_nx(members[0]) for members in classes.values()]
        for i, j in itertools.combinations(range(len(leaders)), 2):
            assert not nx.is_isomorphic(leaders[i], leaders[j])

    def test_keys_complete_random_pairs(self):
        # relabelled copies, and copies with one edge flipped that stay
        # bipartite, up to n = 12; p = 0 and small p give edgeless and
        # disconnected graphs
        rng = random.Random(16)
        outcomes = set()
        for _ in range(2000):
            g = random_bipartite(rng, 12, rng.choice([0.0, 0.15, 0.3, 0.5, 0.7, 0.9]))
            h = g
            if rng.random() < 0.5:
                h = None
                while h is None or find_bipartition(h) is None:
                    u, v = rng.sample(range(g.n), 2)
                    rows = list(g.rows)
                    rows[u] ^= 1 << v
                    rows[v] ^= 1 << u
                    h = Graph(g.n, rows)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = h.relabel(perm)
            want = nx.is_isomorphic(_nx(g), _nx(h))
            assert is_isomorphic(g, h) == want
            outcomes.add((want, g.m == 0, connected_after_removal(g, set())))
        # isomorphic or not, by edgeless, disconnected with edges, connected
        assert len(outcomes) == 6

    def test_degree_sequence_mismatch(self):
        assert not is_isomorphic(complete_bipartite(1, 3), PATH4)

    def test_same_degrees_different_graphs(self):
        # both 2-regular and bipartite, so no degree-based invariant splits them
        octagon = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
        two_squares = Graph.from_edges(
            8, [(i + k, (i + 1) % 4 + k) for k in (0, 4) for i in range(4)])
        assert not is_isomorphic(octagon, two_squares)
        assert not is_isomorphic(two_squares, octagon)
        hexagon = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        two_triangles = Graph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(ValueError):
            is_isomorphic(hexagon, two_triangles)

    def test_hexagon_from_two_masks(self):
        # two labelings of the 6-cycle inside the (3, 3) split
        first = from_biadjacency(3, 3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        second = from_biadjacency(3, 3, [[1, 0, 1], [1, 1, 0], [0, 1, 1]])
        assert is_isomorphic(first, second)
        # invariant fingerprints agree too
        from bipartite_estrada.spectral import moment_series
        for k in range(9):
            assert moment_series(first, k).moments[k] == moment_series(second, k).moments[k]

    def test_size_guard(self):
        # a component's a * b must fit the 63 bits of an int64 mask
        widest = complete_bipartite(7, 9)
        perm = list(range(16))
        random.Random(7).shuffle(perm)
        assert is_isomorphic(widest, widest.relabel(perm))
        assert not is_isomorphic(widest, complete_bipartite(6, 10))
        big = complete_bipartite(8, 8)
        with pytest.raises(ValueError):
            is_isomorphic(big, big)


class TestPrediction:
    def test_matching_prediction(self):
        assert predicted_maximizer(ClassDescriptor("matching", 6, 2)) \
            == complete_bipartite(2, 4)

    def test_connectivity_prediction_formula(self):
        # stated formula: p = floor((n-1)/2), q = ceil((n-1)/2) - s
        assert predicted_maximizer(ClassDescriptor("vertex-connectivity", 6, 2)) \
            == join_family(2, 2, 1)
        assert predicted_maximizer(ClassDescriptor("edge-connectivity", 7, 3)) \
            == join_family(3, 3, 0)


class TestFindMaximizer:
    def test_matching_six_two(self):
        report = find_maximizers("matching", 6, [2])[0]
        assert is_isomorphic(report.maximizer, complete_bipartite(2, 4))
        assert report.unique and report.matches_prediction
        assert report.max_ee == pytest.approx(4 + 2 * math.cosh(math.sqrt(8)),
                                              abs=1e-9)
        assert report.runner_up_gap > 0

    def test_matching_runner_up_gap(self):
        report = find_maximizers("matching", 4, [2])[0]
        # best is the 4-cycle, runner-up the path
        assert is_isomorphic(report.maximizer, complete_bipartite(2, 2))
        expected_gap = ee_lapack(complete_bipartite(2, 2)) - ee_lapack(PATH4)
        assert report.runner_up_gap == pytest.approx(expected_gap, abs=1e-9)

    def test_connectivity_seven_one(self):
        report = find_maximizers("vertex-connectivity", 7, [1])[0]
        assert is_isomorphic(report.maximizer, join_family(1, 3, 2))
        assert report.unique and report.matches_prediction

    def test_edge_connectivity_six_two_beats_stated_prediction(self):
        # the scan refutes the stated formula here: the complete split wins
        report = find_maximizers("edge-connectivity", 6, [2])[0]
        assert is_isomorphic(report.maximizer, complete_bipartite(2, 4))
        assert report.unique
        assert report.matches_prediction is False
        assert ee_lapack(complete_bipartite(2, 4)) \
            > ee_lapack(join_family(2, 2, 1))

    def test_empty_class(self):
        report = find_maximizers("vertex-connectivity", 5, [3])[0]
        assert report.empty and report.class_size == 0
        assert report.maximizer is None

    def test_corrected_formula_wins_small(self):
        for n in range(4, 8):
            for report in find_maximizers("vertex-connectivity", n):
                s = report.descriptor.value
                assert report.unique
                assert is_isomorphic(report.maximizer,
                                     corrected_connectivity_prediction(n, s))

    def test_maximizer_revalidated_in_class(self):
        for report in find_maximizers("matching", 5):
            assert class_member(report.maximizer, report.descriptor)

    def test_descriptor_order_guard(self):
        with pytest.raises(ValueError):
            find_maximizers("matching", 12, [2])[0]


class TestDeterminism:
    def test_worker_counts_agree(self):
        for kind in ("matching", "vertex-connectivity"):
            serial = find_maximizers(kind, 6, workers=1)
            parallel = find_maximizers(kind, 6, workers=2)
            for a, b in zip(serial, parallel):
                assert a.descriptor == b.descriptor
                assert a.maximizer == b.maximizer
                assert a.max_ee == b.max_ee  # bitwise
                assert a.runner_up_gap == b.runner_up_gap
                assert (a.unique, a.class_size, a.near_tie_count) \
                    == (b.unique, b.class_size, b.near_tie_count)

    def test_pool_capped_at_task_count(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, tasks):
                return map(func, tasks)

        monkeypatch.setattr(search, "Pool", RecordingPool)
        pooled = find_maximizers("matching", 5, workers=64)
        # (1, 4) has 3 two-column prefixes (one task), (2, 3) has 7 (two)
        assert started == [3]
        serial = find_maximizers("matching", 5, workers=1)
        assert started == [3]
        assert [(r.max_ee, r.maximizer) for r in pooled] \
            == [(r.max_ee, r.maximizer) for r in serial]

    @pytest.mark.parametrize("kind", ["matching", "vertex-connectivity",
                                      "edge-connectivity"])
    def test_batch_splits_do_not_change_partial(self, kind):
        values = (1, 2, 3)

        def scan(lo, hi):
            return search._scan_batch((kind, 6, 3, lo, hi, values))

        def merged(*parts):
            total = {v: search._Partial() for v in values}
            for part in parts:
                for v in values:
                    total[v].merge(part[v])
            return total

        # (3, 3) has 13 canonical two-column prefixes
        assert len(search._prefixes(3, 3)[0]) == 13
        whole = scan(0, 13)
        left_fold = merged(scan(0, 1), scan(1, 4), scan(4, 4), scan(4, 9),
                           scan(9, 10), scan(10, 13))
        tree = merged(merged(scan(0, 6), scan(6, 7)),
                      merged(scan(7, 12), scan(12, 13)))
        for grouped in (left_fold, tree):
            for v in values:
                a, b = whole[v], grouped[v]
                assert (a.count, a.best, a.runner, sorted(a.halo)) \
                    == (b.count, b.best, b.runner, sorted(b.halo))
        assert sum(whole[v].count for v in values) > 0

    @pytest.mark.parametrize("kind", ["vertex-connectivity", "edge-connectivity"])
    def test_one_connectivity_bfs_per_graph(self, kind, monkeypatch):
        calls = {"search": 0, "invariants": 0}
        for name, module in (("search", search), ("invariants", invariants)):
            def counting(rows, n, name=name, original=module._connected_rows):
                calls[name] += 1
                return original(rows, n)
            monkeypatch.setattr(module, "_connected_rows", counting)
        reports = find_maximizers(kind, 6)
        # one BFS per scanned S_a x S_b orbit representative
        assert calls["search"] == TestOrbitGenerator.ORBITS[6]
        # only _finalize's class_member check on each non-empty class
        assert calls["invariants"] == sum(not r.empty for r in reports)

    def test_repeat_runs_bitwise_identical(self):
        first = find_maximizers("matching", 5)
        second = find_maximizers("matching", 5)
        for a, b in zip(first, second):
            assert a.max_ee == b.max_ee and a.maximizer == b.maximizer


class TestExactRankingAgreement:
    def test_lapack_index_maximum_selects_same_class(self):
        # the class member of largest LAPACK index, taken over the labelled
        # stream, must lie in the isomorphism class the scan reports
        for n in (4, 5):
            for kind in ("matching", "vertex-connectivity"):
                reports = find_maximizers(kind, n)
                for report in reports:
                    if report.empty or not report.unique:
                        continue
                    members = [g for g in bipartite_graphs(n)
                               if class_member(g, report.descriptor)]
                    best_graph = max(members, key=ee_lapack)
                    assert is_isomorphic(best_graph, report.maximizer)
