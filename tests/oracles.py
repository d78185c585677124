"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the library's production algorithms: connectivity is
decided by subset removal, matchings by recursion over raw edge subsets, walk
counts by explicit DFS enumeration, closed-walk counts by powers of the full
adjacency matrix (production uses the bipartite Gram matrix), spectra by
numpy's LAPACK wrapper (the production eigensolver is a hand-rolled Jacobi
sweep), and class maximizer scans over every labelled biadjacency mask
(production scans one mask per left-row multiset, weighted by its orbit
size).  The corrected connectivity-class maximizer is derived from the
paper's own comparison lemmas rather than taken from
``search.predicted_maximizer``.
"""

from __future__ import annotations

import itertools

import numpy as np

from bipartite_estrada import search
from bipartite_estrada.families import join_family
from bipartite_estrada.graph import (Graph, bit_indices, find_bipartition,
                                     from_biadjacency)
from bipartite_estrada.invariants import (ClassDescriptor, _connected_rows,
                                          _edge_conn_rows, _kuhn_matching,
                                          _vertex_conn_rows)


def ee_lapack(g: Graph) -> float:
    """Index via numpy's eigensolver; independent of the Jacobi route."""
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


def _labelled_scan_batch(kind: str, n: int, a: int, lo: int, hi: int,
                         values) -> dict:
    """Class partials of the biadjacency masks ``lo .. hi - 1`` of split
    ``(a, n - a)``, each mask scanned as its own graph with weight 1."""
    b = n - a
    masks = np.arange(lo, hi, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(a * b, dtype=np.int64)) & 1
    biadj = bits.reshape(-1, a, b)
    mats = np.zeros((len(masks), n, n))
    mats[:, :a, a:] = biadj
    mats[:, a:, :a] = biadj.transpose(0, 2, 1)
    ee = np.exp(np.linalg.eigvalsh(mats)).sum(axis=1)

    left = ((masks[:, None] >> (b * np.arange(a, dtype=np.int64)))
            & ((1 << b) - 1)) << a
    right = (biadj << np.arange(a, dtype=np.int64)[:, None]).sum(axis=1)
    all_rows = np.concatenate([left, right], axis=1).tolist()
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
        halo = [(x, a, lo + i, 1)
                for x, i in zip(sel[near].tolist(), idx[near].tolist())]
        runner = float(sel[~near].max()) if not near.all() else None
        partials[value] = search._Partial(len(idx), float(best), halo, runner)
    return partials


def labelled_maximizers(kind: str, n: int, values=None) -> list:
    """``search.find_maximizers`` by the labelled scan: every biadjacency
    mask of every split ``(a, n - a)``, ``1 <= a <= n/2``, in batches of
    ``search.BATCH_SIZE`` masks, merged and finalized by the engine's own
    ``_Partial`` and ``_finalize``."""
    values = list(range(1, n // 2 + 1)) if values is None else list(values)
    merged = {value: search._Partial() for value in values}
    scanned = 0
    for a in range(1, n // 2 + 1):
        total = 1 << (a * (n - a))
        scanned += total
        for lo in range(0, total, search.BATCH_SIZE):
            hi = min(lo + search.BATCH_SIZE, total)
            for value, part in _labelled_scan_batch(kind, n, a, lo, hi,
                                                    values).items():
                merged[value].merge(part)
    return [search._finalize(ClassDescriptor(kind, n, value), merged[value],
                             scanned, 0.0)
            for value in values]


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
