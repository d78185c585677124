"""Independent oracles for the correctness gate.

None of these reuse the library's algorithms: spectra and indices come from
LAPACK ``eigvalsh`` (on the adjacency matrix, or on the symmetrized quotient
matrix of a family's equitable partition), isomorphism, matching and
connectivity from ``networkx``, ranks from exact rational elimination, moments
from Newton-type recurrences of the quotient's characteristic polynomial, and
walk counts from matrix-vector iteration over Python integers.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9


def close(a: float, b: float, scale: float | None = None) -> bool:
    """Floats agree within ``REL_TOL`` relative to ``scale`` (default the
    larger magnitude); used for every float behind a reported value."""
    if a is None or b is None:
        return a is b
    ref = max(abs(a), abs(b)) if scale is None else abs(scale)
    return abs(a - b) <= REL_TOL * max(ref, 1e-300)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode one graph6 line into ``(n, edges)`` with networkx."""
    import networkx as nx
    g = nx.from_graph6_bytes(text.encode("ascii"))
    return g.number_of_nodes(), list(g.edges())


def nx_graph(n: int, edges):
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def isomorphic(line_a: str, line_b: str) -> bool:
    import networkx as nx
    return nx.is_isomorphic(nx_graph(*decode_graph6(line_a)),
                            nx_graph(*decode_graph6(line_b)))


def adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    return a


def spectrum(n: int, edges) -> np.ndarray:
    """Adjacency eigenvalues, descending (LAPACK)."""
    return np.linalg.eigvalsh(adjacency(n, edges))[::-1]


def estrada(n: int, edges) -> float:
    return float(np.exp(spectrum(n, edges)).sum())


def invariant(kind: str, n: int, edges) -> int:
    """Matching number or vertex/edge connectivity (networkx)."""
    import networkx as nx
    g = nx_graph(n, edges)
    if kind == "matching":
        return len(nx.max_weight_matching(g, maxcardinality=True))
    if kind == "vertex-connectivity":
        return nx.node_connectivity(g) if n > 1 else 0
    return nx.edge_connectivity(g) if n > 1 else 0


def bipartite_matching(n: int, edges, left) -> int:
    import networkx as nx
    g = nx_graph(n, edges)
    return len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=set(left))) // 2


def exact_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals by Gauss-Jordan elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead = m[rank][col]
        m[rank] = [x / lead for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def bipartite_nullity(n: int, edges, left) -> int:
    """``n - rank(A)`` with ``rank(A) = 2 rank(B)`` for the biadjacency B."""
    left = sorted(left)
    right = sorted(set(range(n)) - set(left))
    col = {v: j for j, v in enumerate(right)}
    row = {v: i for i, v in enumerate(left)}
    b = [[0] * len(right) for _ in left]
    for u, v in edges:
        if u in row:
            b[row[u]][col[v]] = 1
        else:
            b[row[v]][col[u]] = 1
    return n - 2 * exact_rank(b) if left and right else n


# ---------------------------------------------------------------------------
# closed forms through the equitable partition of the apex join
# ---------------------------------------------------------------------------

def join_quotient(s: int, p: int, q: int) -> list[list[int]]:
    """Integer quotient matrix of the apex join on cells (core, apex, P, Q):
    entry (i, j) is the number of neighbours in cell j of a cell-i vertex."""
    return [[0, 1, p, 0],
            [s, 0, 0, 0],
            [s, 0, 0, q],
            [0, 0, p, 0]]


def join_ee(points) -> np.ndarray:
    """Indices of apex joins ``(s, p, q)``: the nonzero spectrum is that of
    the (symmetrized) quotient, the remaining ``n - 4`` eigenvalues are 0."""
    pts = np.array(points, dtype=np.float64).reshape(-1, 3)
    s, p, q = pts[:, 0], pts[:, 1], pts[:, 2]
    mats = np.zeros((len(pts), 4, 4))
    mats[:, 0, 1] = mats[:, 1, 0] = np.sqrt(s)
    mats[:, 0, 2] = mats[:, 2, 0] = np.sqrt(s * p)
    mats[:, 2, 3] = mats[:, 3, 2] = np.sqrt(p * q)
    eig = np.linalg.eigvalsh(mats)
    return (s + p + q + 1 - 4) + np.exp(eig).sum(axis=1)


def split_ee(pairs) -> np.ndarray:
    """Indices of complete splits ``K_{a,b}`` from 2x2 quotients."""
    pts = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    mats = np.zeros((len(pts), 2, 2))
    mats[:, 0, 1] = mats[:, 1, 0] = np.sqrt(pts[:, 0] * pts[:, 1])
    return (pts.sum(axis=1) - 2) + np.exp(np.linalg.eigvalsh(mats)).sum(axis=1)


def _det(m: list[list[int]]) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def biquadratic(s: int, p: int, q: int) -> tuple[int, int]:
    """``(c2, c0)`` with char. polynomial ``x^4 - c2 x^2 + c0`` of the
    quotient: ``c2`` is minus the sum of principal 2x2 minors, ``c0`` the
    determinant."""
    m = join_quotient(s, p, q)
    c2 = sum(m[i][j] * m[j][i] for i in range(4) for j in range(i + 1, 4))
    return c2, _det(m)


def split_sign(n: int, s: int) -> int:
    """Exact value of the block-``K_{n-s-2,1}`` quartic at ``x^2 = s(n-s)``."""
    c2, c0 = biquadratic(s, n - s - 2, 1)
    t = s * (n - s)
    return t * t - c2 * t + c0


def transfer_sign(s: int, p: int, q: int) -> int:
    """Sign of the ``(p-1, q+1, s)`` quartic at the larger root of the
    ``(p, q, s)`` one, in 80-digit decimal arithmetic."""
    getcontext().prec = 80
    c2, c0 = biquadratic(s, p, q)
    c2n, c0n = biquadratic(s, p - 1, q + 1)
    t1 = (Decimal(c2) + Decimal(c2 * c2 - 4 * c0).sqrt()) / 2
    value = t1 * t1 - c2n * t1 + c0n
    if abs(value) < Decimal(10) ** -60:
        return 0
    return 1 if value > 0 else -1


def join_moments(s: int, p: int, q: int, k_max: int) -> list[int]:
    """Closed-walk counts of the apex join from the power sums of the roots
    of ``t^2 - c2 t + c0``: ``M_2j = 2 (t1^j + t2^j)``, odd moments 0."""
    c2, c0 = biquadratic(s, p, q)
    return _even_moments(s + p + q + 1, c2, c0, k_max)


def split_moments(a: int, b: int, k_max: int) -> list[int]:
    return _even_moments(a + b, a * b, 0, k_max)


def _even_moments(n: int, c2: int, c0: int, k_max: int) -> list[int]:
    power_sums = [2, c2]
    while len(power_sums) <= k_max // 2:
        power_sums.append(c2 * power_sums[-1] - c0 * power_sums[-2])
    return [n if k == 0 else (0 if k % 2 else 2 * power_sums[k // 2])
            for k in range(k_max + 1)]


# ---------------------------------------------------------------------------
# walks
# ---------------------------------------------------------------------------

def walk_rows(n: int, edges, start: int, k_max: int) -> list[list[int]]:
    """``rows[k][v]`` = number of walks of length k from ``start`` to v."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    vec = [0] * n
    vec[start] = 1
    rows = [vec]
    for _ in range(k_max):
        vec = [sum(vec[u] for u in nbrs[v]) for v in range(n)]
        rows.append(vec)
    return rows


def closed_walks(n: int, edges, k_max: int) -> list[int]:
    per_vertex = [walk_rows(n, edges, v, k_max) for v in range(n)]
    return [sum(per_vertex[v][k][v] for v in range(n)) for k in range(k_max + 1)]


def glue(n1: int, edges1, anchors1, n2: int, edges2, anchors2):
    """Identification union, labelled as documented: the first graph keeps
    its labels, the non-anchor vertices of the second follow in order."""
    mapping = dict(zip(anchors2, anchors1))
    fresh = n1
    for v in range(n2):
        if v not in mapping:
            mapping[v] = fresh
            fresh += 1
    edges = {tuple(sorted(e)) for e in edges1}
    edges |= {tuple(sorted((mapping[u], mapping[v]))) for u, v in edges2}
    return fresh, sorted(edges)


def dominance(parts, k_max: int) -> dict:
    """Expected dominance report of ``(g1, a1, g2, a2)`` against
    ``(h1, b1, h2, b2)``; each graph is ``(n, edges)``."""
    (g1, a1, g2, a2), (h1, b1, h2, b2) = parts
    s = len(a1)
    part_ok, first_part, strict = True, None, False
    for part, (lo, hi) in enumerate(((g1, h1), (g2, h2)), start=1):
        mlo, mhi = closed_walks(*lo, k_max), closed_walks(*hi, k_max)
        for k in range(1, k_max + 1):
            if mlo[k] > mhi[k]:
                part_ok = False
                first_part = first_part or (part, k)
                break
            strict = strict or mlo[k] < mhi[k]
    walks = {name: {v: walk_rows(*graph, v, k_max) for v in anchors}
             for name, graph, anchors in (("g1", g1, a1), ("g2", g2, a2),
                                          ("h1", h1, b1), ("h2", h2, b2))}
    anchored_ok, first_anchored = True, None
    for i in range(s):
        for j in range(s):
            for k in range(1, k_max + 1):
                violated = False
                for x, y, ax, ay in (("g1", "h1", a1, b1), ("g2", "h2", a2, b2)):
                    lhs = walks[x][ax[i]][k][ax[j]]
                    rhs = walks[y][ay[i]][k][ay[j]]
                    if lhs > rhs:
                        anchored_ok, violated = False, True
                        first_anchored = first_anchored or (i, j, k)
                    elif lhs < rhs:
                        strict = True
                if violated:
                    break
    merged = glue(*g1, a1, *g2, a2)
    merged_other = glue(*h1, b1, *h2, b2)
    mg, mh = closed_walks(*merged, k_max), closed_walks(*merged_other, k_max)
    first_conclusion = next((k for k in range(1, k_max + 1) if mg[k] > mh[k]), None)
    return {"part_moments_ok": part_ok, "first_part_violation": first_part,
            "anchored_ok": anchored_ok, "first_anchored_violation": first_anchored,
            "strict_premise": strict, "conclusion_ok": first_conclusion is None,
            "first_conclusion_violation": first_conclusion,
            "merged": merged, "merged_other": merged_other}


def twins_agree(n: int, edges, u: int, v: int, k_max: int) -> int | None:
    """First k where the four anchored counts of a twin pair differ."""
    ru, rv = walk_rows(n, edges, u, k_max), walk_rows(n, edges, v, k_max)
    for k in range(1, k_max + 1):
        if not ru[k][u] == rv[k][v] == ru[k][v] == rv[k][u]:
            return k
    return None


def series_bound_ok(bound: float) -> bool:
    return bound is not None and 0.0 <= bound < 1e-10 and not math.isnan(bound)
