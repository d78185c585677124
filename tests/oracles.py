"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's production algorithms: connectivity is
decided by subset removal, matchings by recursion over raw edge subsets, walk
counts by explicit DFS enumeration, closed-walk counts by powers of the full
adjacency matrix (production uses the bipartite Gram matrix), characteristic
polynomials by big-integer power traces (production works modulo primes), and
class
maximizer scans over every labelled biadjacency mask or over one mask per
multiset of left rows (production scans one representative per
``S_a x S_b`` orbit, from an orderly generator), with the scan index from
the ``n x n`` adjacency matrices (production uses the ``a x a`` Gram
matrices ``B B^T``).  The
corrected connectivity-class maximizer is derived from the paper's own
comparison lemmas rather than taken from ``search.predicted_maximizer``.
The moment-dominance report and the comparison sweeps are rebuilt by
explicit loops with flags (production searches each for its first
violation, and builds verdicts only at applicable points); the closed-form
index is rebuilt from the ``QuarticForm`` of ``quartic_roots``.  Anchored
walk counts come from full walk-count tables (production follows the rows
of the anchors alone), and CSV text from one formatted cell at a time
(production formats a line at once from per-column specs).
Spectra come from numpy's LAPACK ``eigvalsh``, the production eigensolver
too; the check independent of it is the exact ``moment-series`` route, and
the tests hold the float spectrum to closed forms and exact power sums.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from bipartite_estrada import search
from bipartite_estrada.families import join_family
from bipartite_estrada.quartic import (complete_split_deficit, quartic_roots,
                                       side_swap_gain, transfer_gain)
from bipartite_estrada.walks import identify_union, walk_counts
from bipartite_estrada.graph import (Graph, bit_indices, find_bipartition,
                                     from_biadjacency)
from bipartite_estrada.invariants import (ClassDescriptor, _connected_rows,
                                          _edge_conn_rows, _kuhn_matching,
                                          _vertex_conn_rows)


def ee_lapack(g: Graph) -> float:
    """Index via numpy's ``eigvalsh``, the production ``eigen`` route itself;
    the independent check of it is ``moment-series``."""
    return float(np.exp(np.linalg.eigvalsh(g.adjacency_matrix())).sum())


def spectrum_lapack(g: Graph) -> np.ndarray:
    return np.linalg.eigvalsh(g.adjacency_matrix())[::-1]


def corrected_connectivity_prediction(n: int, s: int) -> Graph:
    """The apex join that maximizes the index over the connectivity-``s``
    class of order ``n``: ``join_family(s, p, q)`` with ``p + q = n - s - 1``.

    Lemma 4.1 (side swap) strictly gains whenever ``p < q + s`` and
    ``p >= s``, so a maximizer with ``p >= s`` has ``p >= q + s``.  Lemma 4.2
    (transfer) strictly gains whenever ``p > q + s + 1`` and ``q > 0``, so a
    maximizer with ``q > 0`` has ``p <= q + s + 1``.  Substituting
    ``q = n - s - 1 - p`` turns ``q + s <= p <= q + s + 1`` into
    ``(n - 1)/2 <= p <= n/2``, whose only integer is ``p = ceil((n - 1)/2)``.
    The ``q = 0`` end is the complete split ``K_{s,n-s}``, which loses to the
    apex join on ``K_{n-s-2,1}`` by Lemma 4.3 when ``n >= 2s + 3`` and is the
    instance above when ``n = 2s + 2``.  When ``p = ceil((n - 1)/2)`` would
    leave ``q < 0`` (``s = n/2`` at even n) the only instance is
    ``p = n - s - 1, q = 0``.  At odd n this is the stated
    ``p = floor((n - 1)/2)``; at even n with ``s < n/2`` it is its mirror.
    """
    p = min(-(-(n - 1) // 2), n - s - 1)
    return join_family(s, p, n - 1 - s - p)


def connected_after_removal(g: Graph, removed: set[int]) -> bool:
    alive = [v for v in range(g.n) if v not in removed]
    if not alive:
        return True
    seen = {alive[0]}
    stack = [alive[0]]
    while stack:
        v = stack.pop()
        for w in bit_indices(g.rows[v]):
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(alive)


def bf_vertex_connectivity(g: Graph) -> int:
    if not connected_after_removal(g, set()):
        return 0
    for size in range(g.n - 1):
        for subset in itertools.combinations(range(g.n), size):
            if not connected_after_removal(g, set(subset)):
                return size
    return g.n - 1


def _separates(g: Graph, removed: int, s: int, t: int) -> bool:
    alive = ((1 << g.n) - 1) & ~removed
    seen = frontier = 1 << s
    while frontier:
        reach = 0
        for v in bit_indices(frontier):
            reach |= g.rows[v]
        frontier = reach & alive & ~seen
        seen |= frontier
    return not (seen >> t) & 1


def bf_local_vertex_connectivity(g: Graph, s: int, t: int) -> int:
    """Size of the smallest vertex set separating non-adjacent ``s`` and
    ``t``, by enumerating the subsets of the other vertices by size."""
    others = [v for v in range(g.n) if v not in (s, t)]
    for size in range(len(others) + 1):
        for subset in itertools.combinations(others, size):
            if _separates(g, sum(1 << v for v in subset), s, t):
                return size
    raise ValueError("s and t are adjacent")


def _rows_connected(rows, n: int) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in bit_indices(rows[v]):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def bf_edge_connectivity(g: Graph) -> int:
    edges = g.edges()
    if not connected_after_removal(g, set()):
        return 0
    for size in range(len(edges) + 1):
        for subset in itertools.combinations(edges, size):
            rows = list(g.rows)
            for u, v in subset:
                rows[u] &= ~(1 << v)
                rows[v] &= ~(1 << u)
            if not _rows_connected(rows, g.n):
                return size
    return len(edges)


def bf_matching_number(g: Graph) -> int:
    edges = g.edges()

    def rec(idx: int, used: int) -> int:
        if idx == len(edges):
            return 0
        best = rec(idx + 1, used)
        u, v = edges[idx]
        if not (used >> u) & 1 and not (used >> v) & 1:
            best = max(best, 1 + rec(idx + 1, used | (1 << u) | (1 << v)))
        return best

    return rec(0, 0)


def bf_min_vertex_cover(g: Graph) -> int:
    edges = g.edges()
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return size
    return g.n


def bf_is_bipartite(g: Graph) -> bool:
    """Try all 2**n side assignments."""
    for mask in range(1 << g.n):
        if all(((mask >> u) & 1) != ((mask >> v) & 1) for u, v in g.edges()):
            return True
    return g.m == 0


def bf_walk_count(g: Graph, u: int, v: int, k: int) -> int:
    """Number of u-v walks of length k by explicit DFS enumeration."""
    if k == 0:
        return int(u == v)
    total = 0
    stack = [(u, 0)]
    while stack:
        vertex, steps = stack.pop()
        if steps == k - 1:
            total += (g.rows[vertex] >> v) & 1
            continue
        for w in bit_indices(g.rows[vertex]):
            stack.append((w, steps + 1))
    return total


def bf_closed_walks(g: Graph, k: int) -> int:
    return sum(bf_walk_count(g, v, v, k) for v in range(g.n))


def power_moments(g: Graph, k: int) -> list[int]:
    """Closed-walk counts ``M_0 .. M_k`` as traces of successive integer
    powers ``A, A^2, ..., A^k`` of the full adjacency matrix."""
    adjacency = np.array(g.adjacency_int_rows(), dtype=object)
    power = np.identity(g.n, dtype=object)
    moments = [g.n]
    for _ in range(k):
        power = power @ adjacency
        moments.append(int(np.trace(power)))
    return moments


def dominance_reference(scheme, other, k_max: int) -> dict:
    """The fields of ``walks.dominance_check(scheme, other, k_max)``, from
    three separate loops with explicit flags over walk-count tables of all
    six graphs (production reads the identified graphs' moments from the
    characteristic polynomial).  Strictness counts ``a < b`` for both anchored
    pairs at the length where a violation stops an ``(i, j)`` sequence."""
    if scheme.s != other.s:
        raise ValueError("schemes must identify the same number of anchors")
    s = scheme.s
    tables = {
        "g1": walk_counts(scheme.g1, k_max),
        "g2": walk_counts(scheme.g2, k_max),
        "h1": walk_counts(other.g1, k_max),
        "h2": walk_counts(other.g2, k_max),
    }

    part_ok = True
    first_part = None
    strict = False
    for part, (lo, hi) in enumerate((("g1", "h1"), ("g2", "h2")), start=1):
        for k in range(1, k_max + 1):
            a = tables[lo].closed_total(k)
            b = tables[hi].closed_total(k)
            if a > b:
                part_ok = False
                if first_part is None:
                    first_part = (part, k)
                break
            if a < b:
                strict = True

    anchored_ok = True
    first_anchored = None
    for i in range(s):
        for j in range(s):
            for k in range(1, k_max + 1):
                pairs = (
                    (tables["g1"].count(k, scheme.anchors1[i], scheme.anchors1[j]),
                     tables["h1"].count(k, other.anchors1[i], other.anchors1[j])),
                    (tables["g2"].count(k, scheme.anchors2[i], scheme.anchors2[j]),
                     tables["h2"].count(k, other.anchors2[i], other.anchors2[j])),
                )
                violated = False
                for a, b in pairs:
                    if a > b:
                        anchored_ok = False
                        if first_anchored is None:
                            first_anchored = (i, j, k)
                        violated = True
                    elif a < b:
                        strict = True
                if violated:
                    break

    merged = identify_union(scheme)
    merged_other = identify_union(other)
    conclusion_ok = True
    first_conclusion = None
    merged_tab = walk_counts(merged, k_max)
    other_tab = walk_counts(merged_other, k_max)
    for k in range(1, k_max + 1):
        if merged_tab.closed_total(k) > other_tab.closed_total(k):
            conclusion_ok = False
            first_conclusion = k
            break

    return {"k_max": k_max, "part_moments_ok": part_ok,
            "first_part_violation": first_part, "anchored_ok": anchored_ok,
            "first_anchored_violation": first_anchored, "strict_premise": strict,
            "conclusion_ok": conclusion_ok,
            "first_conclusion_violation": first_conclusion,
            "merged": merged, "merged_other": merged_other}


def twin_reference(g: Graph, u: int, v: int, k_max: int) -> tuple:
    """``(ok, checked_up_to, first_violation)`` of ``walks.twin_check`` for a
    twin pair, from the walk-count tables of the whole graph."""
    table = walk_counts(g, k_max)
    first = None
    for k in range(1, k_max + 1):
        counts = {table.count(k, x, y) for x, y in ((u, u), (v, v), (u, v), (v, u))}
        if len(counts) > 1:
            first = k
            break
    return first is None, k_max, first


def csv_reference(header: list[str], rows: list) -> str:
    """CSV text joined cell by cell: ``None`` empty, bools ``true``/``false``,
    floats (numpy's included) with 17 significant digits, the rest by
    ``str``."""
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return format(value, ".17g")
        return str(value)

    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def ee_reference(p: int, q: int, s: int) -> float:
    """``n - 4 + 2cosh(x1) + 2cosh(x2)`` from the roots of ``quartic_roots``,
    with the evaluation order of ``quartic.ee_closed_form``."""
    form = quartic_roots(p, q, s)
    n = s + p + q + 1
    index = n - 4 + 2.0 * math.cosh(form.x1) + 2.0 * math.cosh(form.x2)
    if math.isinf(index):
        raise OverflowError("index exceeds the float range")
    return index


def sweep_reference(comparison: str, *, max_p: int = 12, max_q: int = 12,
                    max_s: int = 12, max_n: int = 40) -> list:
    """The applicable verdicts of ``quartic.sweep`` over the same grid, in the
    same order, from one explicit loop nest per comparison."""
    out = []
    if comparison == "side-swap":
        for s in range(1, max_s + 1):
            for p in range(1, max_p + 1):
                for q in range(0, max_q + 1):
                    v = side_swap_gain(p, q, s)
                    if v.applicable:
                        out.append(v)
    elif comparison == "transfer":
        for s in range(1, max_s + 1):
            for p in range(1, max_p + 1):
                for q in range(1, max_q + 1):
                    v = transfer_gain(p, q, s)
                    if v.applicable:
                        out.append(v)
    elif comparison == "complete-split":
        for n in range(4, max_n + 1):
            for s in range(1, max_s + 1):
                v = complete_split_deficit(n, s)
                if v.applicable:
                    out.append(v)
    return out


def char_poly_big_integer(g: Graph) -> list[int]:
    """Coefficients ``e_0 .. e_d`` of ``det(xI - S) = sum (-1)^k e_k x^(d-k)``
    for ``S`` the Gram matrix ``B B^T`` over the smaller colour class of a
    bipartite graph, else ``S = A``: the traces ``tr(S^j)``, ``j <= d``, of
    object-dtype (Python int) powers, then Newton's identities
    ``k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) t_i`` with exact division."""
    split = find_bipartition(g)
    if split is None:
        s = np.array(g.adjacency_int_rows(), dtype=object)
    else:
        side = sorted(min(split.side_x, split.side_y, key=len))
        s = np.array([[(g.rows[u] & g.rows[v]).bit_count() for v in side]
                      for u in side], dtype=object).reshape(len(side), len(side))
    power = np.identity(len(s), dtype=object)
    traces = [len(s)]
    for _ in range(len(s)):
        power = power @ s
        traces.append(int(np.trace(power)))
    e = [1]
    for k in range(1, len(traces)):
        total = sum(e[k - i] * traces[i] * (1 if i % 2 else -1)
                    for i in range(1, k + 1))
        e.append(total // k)
    return e


def adjacency_scan_index(n: int, a: int, biadj: np.ndarray) -> np.ndarray:
    """Index of each graph of a ``(count, a, n - a)`` stack of biadjacency
    matrices, from one batched ``eigvalsh`` of the ``n x n`` adjacency
    matrices (production takes it from the ``a x a`` Gram matrices)."""
    mats = np.zeros((len(biadj), n, n))
    mats[:, :a, a:] = biadj
    mats[:, a:, :a] = biadj.transpose(0, 2, 1)
    return np.exp(np.linalg.eigvalsh(mats)).sum(axis=1)


def adjacency_scan_graphs(kind: str, n: int, a: int, columns: np.ndarray,
                          weights: np.ndarray, values) -> dict:
    """``search._scan_graphs`` with the index from ``adjacency_scan_index``:
    class partials of the split-``(a, n - a)`` graphs given as columns (bit
    ``i`` for left vertex ``i``)."""
    b = n - a
    row = np.arange(a, dtype=np.int64)[:, None]
    biadj = (columns[:, None, :] >> row) & 1
    left = (biadj << np.arange(b, dtype=np.int64)).sum(axis=2)
    masks = (biadj << (b * row + np.arange(b, dtype=np.int64))).sum(axis=(1, 2))
    return _scan_rows(kind, n, a, left, masks, weights, values)


def _scan_rows(kind: str, n: int, a: int, left: np.ndarray, masks: np.ndarray,
               weights: np.ndarray, values) -> dict:
    """Class partials of split-``(a, n - a)`` graphs given by their left rows
    (bit ``j`` for right vertex ``j``), biadjacency masks and weights."""
    b = n - a
    biadj = (left[:, :, None] >> np.arange(b, dtype=np.int64)) & 1
    ee = adjacency_scan_index(n, a, biadj)

    right = (biadj << np.arange(a, dtype=np.int64)[:, None]).sum(axis=1)
    all_rows = np.concatenate([left << a, right], axis=1).tolist()
    if kind == "matching":
        invariant = [_kuhn_matching(rows, range(a)) for rows in all_rows]
    else:
        conn = _vertex_conn_rows if kind == "vertex-connectivity" else _edge_conn_rows
        invariant = [conn(rows, n) if _connected_rows(rows, n) else 0
                     for rows in all_rows]
    invariant = np.array(invariant)

    partials = {}
    for value in values:
        idx = np.flatnonzero(invariant == value)
        if not len(idx):
            partials[value] = search._Partial()
            continue
        sel = ee[idx]
        best = sel.max()
        near = sel >= best - search.NEAR_TIE
        halo = [(x, a, mask, w) for x, mask, w in zip(
            sel[near].tolist(), masks[idx[near]].tolist(), weights[idx[near]].tolist())]
        far = idx[~near]
        runner = max(zip(ee[far].tolist(), [a] * len(far), masks[far].tolist()),
                     default=None)
        partials[value] = search._Partial(int(weights[idx].sum()), float(best),
                                          halo, runner)
    return partials


def _merged_maximizers(kind: str, n: int, values, batches) -> list:
    """Merge the partials of ``batches`` (``(a, left, masks, weights)``) with
    the engine's ``_Partial`` and finalize them with its ``_finalize``."""
    values = list(range(1, n // 2 + 1)) if values is None else list(values)
    merged = {value: search._Partial() for value in values}
    for a, left, masks, weights in batches:
        for value, part in _scan_rows(kind, n, a, left, masks, weights,
                                      values).items():
            merged[value].merge(part)
    scanned = sum(1 << (a * (n - a)) for a in range(1, n // 2 + 1))
    return [search._finalize(ClassDescriptor(kind, n, value), merged[value],
                             scanned, 0.0)
            for value in values]


def labelled_maximizers(kind: str, n: int, values=None) -> list:
    """``search.find_maximizers`` by the labelled scan: every biadjacency
    mask of every split ``(a, n - a)``, ``1 <= a <= n/2``, each with weight
    1, in batches of ``search.BATCH_SIZE`` masks."""
    def batches():
        for a in range(1, n // 2 + 1):
            b = n - a
            total = 1 << (a * b)
            for lo in range(0, total, search.BATCH_SIZE):
                masks = np.arange(lo, min(lo + search.BATCH_SIZE, total),
                                  dtype=np.int64)
                left = ((masks[:, None] >> (b * np.arange(a, dtype=np.int64)))
                        & ((1 << b) - 1))
                yield a, left, masks, np.ones(len(masks), dtype=np.int64)
    return _merged_maximizers(kind, n, values, batches())


def row_multisets(a: int, b: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and orbit weights of the multisets of ``a`` rows out of ``2**b``
    with colex ranks ``lo .. hi - 1``.

    Rank ``r`` is unranked in the combinatorial number system: the sorted
    rows ``c_0 <= ... <= c_(a-1)`` map to the ``a``-subset ``d_i = c_i + i``
    of ``2**b + a - 1`` points, with ``r = sum C(d_i, i + 1)``.  Rows come
    back non-increasing from row 0, so ``sum rows[i] << (i * b)`` is the least
    mask of the left-permutation orbit.  The weight ``a!/prod(mult!)`` is
    ``a!`` over the product of the running run lengths.  Ranks outside
    ``0 .. C(2**b + a - 1, a)`` raise ``ValueError``.
    """
    if not 0 <= lo <= hi <= math.comb((1 << b) + a - 1, a):
        raise ValueError(f"multiset ranks {lo}..{hi} out of range for split ({a}, {b})")
    x = np.arange((1 << b) + a - 1, dtype=np.int64)
    binom = [np.ones_like(x)]
    for k in range(1, a + 1):
        binom.append(binom[-1] * (x - k + 1) // k)   # C(x, k), exact
    ranks = np.arange(lo, hi, dtype=np.int64)
    rows = np.empty((hi - lo, a), dtype=np.int64)
    for i in range(a - 1, -1, -1):
        d = np.searchsorted(binom[i + 1], ranks, side="right") - 1
        ranks -= binom[i + 1][d]
        rows[:, a - 1 - i] = d - i
    run = np.ones(hi - lo, dtype=np.int64)
    repeats = np.ones(hi - lo, dtype=np.int64)
    for i in range(1, a):
        run = np.where(rows[:, i] == rows[:, i - 1], run + 1, 1)
        repeats *= run
    return rows, math.factorial(a) // repeats


def row_multiset_maximizers(kind: str, n: int, values=None) -> list:
    """``search.find_maximizers`` by the row-multiset scan: one biadjacency
    mask per multiset of left rows (the least of its left-permutation
    orbit), weighted by the orbit size, in batches of ``search.BATCH_SIZE``
    multiset ranks."""
    def batches():
        for a in range(1, n // 2 + 1):
            b = n - a
            total = math.comb((1 << b) + a - 1, a)
            for lo in range(0, total, search.BATCH_SIZE):
                left, weights = row_multisets(a, b, lo, min(lo + search.BATCH_SIZE, total))
                masks = (left << (b * np.arange(a, dtype=np.int64))).sum(axis=1)
                yield a, left, masks, weights
    return _merged_maximizers(kind, n, values, batches())


def bipartite_graphs(n: int, connected_only: bool = False):
    """Every bipartite graph on n vertices at least once: each biadjacency
    mask of each split ``(a, n - a)``, ``1 <= a <= n/2``, so the stream holds
    duplicate isomorphism classes.  ``connected_only`` keeps the graphs that
    ``connected_after_removal`` finds connected."""
    for a in range(1, n // 2 + 1):
        b = n - a
        for mask in range(1 << (a * b)):
            g = from_biadjacency(a, b, [[(mask >> (i * b + j)) & 1 for j in range(b)]
                                        for i in range(a)])
            if not connected_only or connected_after_removal(g, set()):
                yield g


def bipartite_supergraphs(g: Graph):
    """``((u, v), g + uv)`` for each non-edge ``uv`` of ``g`` whose addition
    leaves the graph bipartite, in increasing ``(u, v)`` order."""
    for u, v in itertools.combinations(range(g.n), 2):
        if not g.has_edge(u, v):
            bigger = Graph.from_edges(g.n, g.edges() + [(u, v)])
            if find_bipartition(bigger) is not None:
                yield (u, v), bigger


def all_graphs(n: int):
    """Every labeled simple graph on n vertices (use only for n <= 6)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[t] for t in range(len(pairs))
                                   if (mask >> t) & 1])


def fraction_rank(mat) -> int:
    """Rank over exact rationals by Gauss-Jordan elimination; cross-check for
    the nullity read off the characteristic polynomial."""
    from fractions import Fraction
    m = [[Fraction(x) for x in row] for row in mat]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def random_graph(rng, n: int, p: float = 0.4) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_bipartite(rng, n_max: int, p: float = 0.5) -> Graph:
    n = rng.randint(2, n_max)
    a = rng.randint(1, n - 1)
    b = n - a
    bits = [[1 if rng.random() < p else 0 for _ in range(b)] for _ in range(a)]
    return from_biadjacency(a, b, bits)
