"""Walk-count tables, twins, identification unions, moment dominance."""

import itertools
import random

import pytest

from bipartite_estrada import walks
from bipartite_estrada.families import complete_bipartite, join_family
from bipartite_estrada.graph import Graph, from_biadjacency
from bipartite_estrada.spectral import moment_series
from bipartite_estrada.walks import (IdentificationScheme, _anchor_rows,
                                     dominance_check, identify_union, twin_check,
                                     walk_counts)
from bipartite_estrada.search import is_isomorphic
from oracles import (bf_walk_count, dominance_reference, random_bipartite,
                     twin_reference)

PATH4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])


class TestWalkCounts:
    def test_identity_and_adjacency_layers(self):
        g = complete_bipartite(2, 3)
        table = walk_counts(g, 3)
        assert table.count(0, 0, 0) == 1 and table.count(0, 0, 1) == 0
        for u in range(g.n):
            for v in range(g.n):
                assert table.count(1, u, v) == int(g.has_edge(u, v))

    def test_closed_two_walks_are_degrees(self):
        g = join_family(2, 3, 1)
        table = walk_counts(g, 2)
        for u in range(g.n):
            assert table.count(2, u, u) == g.degree(u)

    def test_complete_bipartite_anchored_values(self):
        # left pair of K_{2,3} at length 4: 2**1 * 3**2 = 18
        table = walk_counts(complete_bipartite(2, 3), 4)
        assert table.count(4, 0, 1) == 18
        assert table.count(4, 0, 0) == 18
        # right pair at length 4: 3**1 * 2**2 = 12
        assert table.count(4, 2, 3) == 12

    def test_complete_bipartite_closed_forms_small(self):
        for n1 in range(1, 5):
            for n2 in range(1, 5):
                g = complete_bipartite(n1, n2)
                table = walk_counts(g, 12)
                for k in range(1, 7):
                    assert table.count(2 * k, 0, n1 - 1 if n1 > 1 else 0) \
                        == n1 ** (k - 1) * n2 ** k
                    assert table.count(2 * k, n1, n1 + n2 - 1) \
                        == n2 ** (k - 1) * n1 ** k
                    assert table.closed_total(2 * k) == 2 * (n1 * n2) ** k
                    assert table.closed_total(2 * k - 1) == 0
                    assert table.count(2 * k - 1, 0, n1 - 1 if n1 > 1 else 0) == 0

    def test_against_dfs_enumeration(self):
        rng = random.Random(3)
        for _ in range(15):
            g = random_bipartite(rng, 6)
            table = walk_counts(g, 5)
            for k in range(6):
                for u in range(g.n):
                    for v in range(g.n):
                        assert table.count(k, u, v) == bf_walk_count(g, u, v, k)

    def test_trace_consistency(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_bipartite(rng, 8)
            table = walk_counts(g, 10)
            for k in range(11):
                assert table.closed_total(k) == moment_series(g, k).moments[k]

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            walk_counts(PATH4, 65)


class TestAnchorRows:
    def test_rows_match_walk_count_tables(self):
        rng = random.Random(31)
        for _ in range(60):
            g = random_bipartite(rng, 14)
            k_max = rng.randint(0, 24)
            anchors = rng.sample(range(g.n), rng.randint(1, min(3, g.n)))
            table = walk_counts(g, k_max)
            rows = _anchor_rows(g, anchors, k_max)
            assert len(rows) == len(anchors)
            for a, anchor_rows in zip(anchors, rows):
                assert anchor_rows == [[table.count(k, a, w) for w in range(g.n)]
                                       for k in range(k_max + 1)]

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            _anchor_rows(PATH4, (0,), 65)
        with pytest.raises(ValueError):
            twin_check(complete_bipartite(2, 3), 0, 1, k_max=65)

    def test_checks_match_references_without_tables(self, monkeypatch):
        # neither check builds a walk-count table; the references do
        rng = random.Random(37)
        twins, schemes = [], []
        while len(twins) < 60:
            g = random_bipartite(rng, 13)
            v = rng.randrange(g.n)
            rows = [r | (((r >> v) & 1) << g.n) for r in g.rows]
            twinned = Graph(g.n + 1, rows + [g.rows[v]])
            k_max = rng.randint(0, 24)
            twins.append(((twinned, v, g.n, k_max),
                          twin_reference(twinned, v, g.n, k_max)))
        while len(schemes) < 60:
            parts = [random_bipartite(rng, 7) for _ in range(4)]
            anchors = [_independent_set(part, rng) for part in parts]
            s = min(3, *map(len, anchors))
            scheme = IdentificationScheme(parts[0], anchors[0][:s], parts[1],
                                          anchors[1][:s])
            other = IdentificationScheme(parts[2], anchors[2][:s], parts[3],
                                         anchors[3][:s])
            k_max = rng.randint(0, 24)
            schemes.append(((scheme, other, k_max),
                            dominance_reference(scheme, other, k_max)))

        def no_tables(*args):
            raise AssertionError("walk_counts called")

        monkeypatch.setattr(walks, "walk_counts", no_tables)
        for args, want in twins:
            result = twin_check(*args[:3], k_max=args[3])
            assert (result.ok, result.checked_up_to, result.first_violation) == want
        for args, want in schemes:
            report = dominance_check(*args[:2], k_max=args[2])
            assert {key: getattr(report, key) for key in want} == want, args
        for key in ("part_moments_ok", "anchored_ok", "conclusion_ok"):
            assert 5 <= sum(want[key] for _, want in schemes) <= 55, key


class TestTwins:
    def test_complete_bipartite_left_pair(self):
        result = twin_check(complete_bipartite(2, 3), 0, 1, k_max=12)
        assert result.ok and result.first_violation is None

    def test_star_leaves(self):
        result = twin_check(complete_bipartite(1, 5), 1, 2, k_max=12)
        assert result.ok

    def test_path_ends_rejected(self):
        with pytest.raises(ValueError, match="not twins"):
            twin_check(PATH4, 0, 3)

    def test_adjacent_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            twin_check(PATH4, 0, 1)

    def test_random_twin_pairs(self):
        # duplicate one vertex of a random bipartite graph to manufacture twins
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            g = random_bipartite(rng, 9)
            v = rng.randrange(g.n)
            if g.rows[v] == 0:
                continue
            rows = [r | (((r >> v) & 1) << g.n) for r in g.rows]
            rows.append(g.rows[v])
            twinned = Graph(g.n + 1, rows)
            assert twin_check(twinned, v, g.n, k_max=20).ok
            checked += 1


class TestIdentifyUnion:
    def test_two_edges_make_path(self):
        edge = Graph.from_edges(2, [(0, 1)])
        scheme = IdentificationScheme(edge, (1,), edge, (0,))
        merged = identify_union(scheme)
        assert merged == Graph.from_edges(3, [(0, 1), (1, 2)])

    def test_order_formula(self):
        rng = random.Random(11)
        for _ in range(50):
            g1 = random_bipartite(rng, 8)
            g2 = random_bipartite(rng, 8)
            s1 = _independent_set(g1, rng)
            s2 = _independent_set(g2, rng)
            s = min(len(s1), len(s2))
            if s == 0:
                continue
            scheme = IdentificationScheme(g1, s1[:s], g2, s2[:s])
            assert identify_union(scheme).n == g1.n + g2.n - s

    def test_star_onto_complete_bipartite_gives_join_family(self):
        for s in (1, 2, 3):
            for p in (1, 2, 3):
                for q in (0, 1, 2):
                    star = complete_bipartite(1, s)      # apex 0, leaves 1..s
                    block = complete_bipartite(s + q, p)  # anchors in the big side
                    scheme = IdentificationScheme(star, tuple(range(1, s + 1)),
                                                  block, tuple(range(s)))
                    merged = identify_union(scheme)
                    assert is_isomorphic(merged, join_family(s, p, q))

    def test_dependent_anchor_set_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            IdentificationScheme(PATH4, (0, 1), PATH4, (0, 2))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IdentificationScheme(PATH4, (0, 2), PATH4, (0,))


def _independent_set(g, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    chosen: list[int] = []
    mask = 0
    for v in order:
        if g.rows[v] & mask == 0:
            chosen.append(v)
            mask |= 1 << v
    return tuple(chosen)


class TestDominance:
    def test_identical_schemes_all_equal(self):
        g = complete_bipartite(3, 2)
        scheme = IdentificationScheme(g, (0, 1), g, (0, 1))
        report = dominance_check(scheme, scheme, k_max=12)
        assert report.premises_hold and not report.strict_premise
        assert report.conclusion_ok and report.first_conclusion_violation is None

    def test_cover_rewiring_instance(self):
        # blocks of the (x1, x2, y1, y2) = (2, 1, 1, 1) cover rewiring:
        # shared part K_{2,1}; covered part K_{3,1} versus K_{2,2}
        shared = complete_bipartite(2, 1)
        covered = complete_bipartite(3, 1)
        rebalanced = complete_bipartite(2, 2)
        scheme = IdentificationScheme(shared, (0, 1), covered, (0, 1))
        other = IdentificationScheme(shared, (0, 1), rebalanced, (0, 1))
        report = dominance_check(scheme, other, k_max=12)
        assert report.premises_hold and report.strict_premise
        assert report.conclusion_ok
        # strict gain appears at some even length
        diffs = [walk_counts(report.merged_other, 8).closed_total(k)
                 - walk_counts(report.merged, 8).closed_total(k)
                 for k in range(1, 9)]
        assert any(d > 0 for d in diffs) and all(d >= 0 for d in diffs)

    def test_side_swap_instance(self):
        # s=1, p=2, q=2 against the swapped block (q+s, p-s) = (3, 1)
        star = complete_bipartite(1, 1)
        scheme = IdentificationScheme(star, (1,), complete_bipartite(3, 2), (0,))
        other = IdentificationScheme(star, (1,), complete_bipartite(2, 3), (0,))
        report = dominance_check(scheme, other, k_max=12)
        assert report.premises_hold and report.strict_premise
        assert report.conclusion_ok
        assert is_isomorphic(report.merged, join_family(1, 2, 2))
        assert is_isomorphic(report.merged_other, join_family(1, 3, 1))
        # anchored strictness: (s+q)^(k-1) p^k < (s+q)^k p^(k-1) for p < s+q
        g2 = walk_counts(complete_bipartite(3, 2), 8)
        h2 = walk_counts(complete_bipartite(2, 3), 8)
        for k in (1, 2, 3, 4):
            assert g2.count(2 * k, 0, 0) == 3 ** (k - 1) * 2 ** k
            assert h2.count(2 * k, 0, 0) == 2 ** (k - 1) * 3 ** k
            assert g2.count(2 * k, 0, 0) < h2.count(2 * k, 0, 0)

    def test_random_nested_schemes_never_violate(self):
        # supergraph pairs satisfy the premises by walk-set inclusion
        rng = random.Random(13)
        checked = 0
        while checked < 100:
            g1 = random_bipartite(rng, 7)
            g2 = random_bipartite(rng, 7)
            s1 = _independent_set(g1, rng)
            s2 = _independent_set(g2, rng)
            s = min(len(s1), len(s2), 3)
            if s == 0:
                continue
            h1 = _add_random_edges(g1, s1[:s], rng)
            h2 = _add_random_edges(g2, s2[:s], rng)
            scheme = IdentificationScheme(g1, s1[:s], g2, s2[:s])
            other = IdentificationScheme(h1, s1[:s], h2, s2[:s])
            report = dominance_check(scheme, other, k_max=20)
            assert report.premises_hold
            assert report.conclusion_ok, (scheme, other)
            checked += 1

    def test_matches_reference_on_seeded_pairs(self):
        # three shapes: independent random parts, the same parts anchored
        # elsewhere (equal part moments, so strictness comes from the
        # anchored counts alone), and nested supergraph parts
        rng = random.Random(29)
        seen = {"part": 0, "anchored": 0, "conclusion": 0, "strict": 0,
                "lax": 0, "clean": 0}
        checked = 0
        while checked < 360:
            shape = checked % 3
            g1, g2 = random_bipartite(rng, 7), random_bipartite(rng, 7)
            if shape == 1:
                h1, h2 = g1, g2
            elif shape == 2:
                s1, s2 = _independent_set(g1, rng), _independent_set(g2, rng)
                h1 = _add_random_edges(g1, s1, rng)
                h2 = _add_random_edges(g2, s2, rng)
            else:
                h1, h2 = random_bipartite(rng, 7), random_bipartite(rng, 7)
            if shape != 2:
                s1, s2 = _independent_set(g1, rng), _independent_set(g2, rng)
            t1, t2 = _independent_set(h1, rng), _independent_set(h2, rng)
            s = min(len(s1), len(s2), len(t1), len(t2), 3)
            if shape == 2:
                t1, t2 = s1, s2
            scheme = IdentificationScheme(g1, s1[:s], g2, s2[:s])
            other = IdentificationScheme(h1, t1[:s], h2, t2[:s])
            k_max = rng.choice((0, 1, 2, 3, 4, 6, 9, 14, 20))
            want = dominance_reference(scheme, other, k_max)
            report = dominance_check(scheme, other, k_max=k_max)
            assert {key: getattr(report, key) for key in want} == want, \
                (scheme, other, k_max)
            seen["part"] += not report.part_moments_ok
            seen["anchored"] += not report.anchored_ok
            seen["conclusion"] += not report.conclusion_ok
            seen["strict"] += report.strict_premise
            seen["lax"] += not report.strict_premise and k_max > 0
            seen["clean"] += report.premises_hold and report.conclusion_ok
            checked += 1
        assert min(seen.values()) >= 20, seen

    def test_anchor_count_mismatch_rejected(self):
        edge = Graph.from_edges(2, [(0, 1)])
        a = IdentificationScheme(edge, (0,), edge, (0,))
        b = IdentificationScheme(PATH4, (0, 3), PATH4, (0, 3))
        with pytest.raises(ValueError):
            dominance_check(a, b)


def _add_random_edges(g, anchors, rng):
    anchor_mask = 0
    for v in anchors:
        anchor_mask |= 1 << v
    rows = list(g.rows)
    for u, v in itertools.combinations(range(g.n), 2):
        # keep anchor sets independent; otherwise add edges freely
        if g.has_edge(u, v) or (anchor_mask >> u) & 1 and (anchor_mask >> v) & 1:
            continue
        if rng.random() < 0.25:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(g.n, rows)
