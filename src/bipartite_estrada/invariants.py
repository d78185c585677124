"""Matching number and vertex/edge connectivity.

The public functions take :class:`~bipartite_estrada.graph.Graph` values; the
underscore-prefixed helpers work on raw bitmask rows so that the exhaustive
search can call them without constructing Graph objects per candidate.  All
arithmetic is integer, and both connectivities count disjoint paths with one
unit-capacity flow routine, by blocking flows over BFS level masks (Dinic;
Even and Tarjan, SIAM J. Comput. 4, 1975), with no articulation or bridge
pass.  ``_vertex_conn_rows`` and ``_edge_conn_rows`` need a connected graph:
there every flow is at least 1, so each stops as soon as its least flow is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .graph import Graph, bit_indices, find_bipartition

BRUTE_FORCE_MATCHING_LIMIT = 20  # non-bipartite inputs above this are rejected

CLASS_KINDS = ("matching", "vertex-connectivity", "edge-connectivity")


@dataclass(frozen=True)
class ClassDescriptor:
    """A constrained family of bipartite graphs: fixed order and invariant.

    ``matching`` classes fix the matching number (disconnected members
    allowed); the connectivity kinds fix vertex or edge connectivity, which
    forces connectedness for ``value >= 1``.
    """

    kind: str
    n: int
    value: int

    def __post_init__(self):
        if self.kind not in CLASS_KINDS:
            raise ValueError(f"unknown class kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("order must be positive")
        if self.kind == "matching":
            if not 1 <= self.value <= self.n // 2:
                raise ValueError(f"matching number must be in 1..{self.n // 2}")
        elif self.value < 1:
            raise ValueError("connectivity classes require value >= 1")


# ---------------------------------------------------------------------------
# raw bitmask helpers
# ---------------------------------------------------------------------------

def _connected_rows(rows, n: int) -> bool:
    """Connectivity of the graph on vertices ``0..n-1``, by a frontier walk."""
    seen = frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= rows[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _kuhn_matching(rows, left) -> int:
    """Maximum matching of a bipartite graph given one side's vertices."""
    match_to: dict[int, int] = {}

    def try_augment(u: int, seen: list[int]) -> bool:
        cand = rows[u] & ~seen[0]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            seen[0] |= low
            if v not in match_to or try_augment(match_to[v], seen):
                match_to[v] = u
                return True
        return False

    size = 0
    for u in left:
        if try_augment(u, [0]):
            size += 1
    return size


def _brute_matching(rows, alive: int, memo: dict[int, int]) -> int:
    """Branching maximum matching for small general graphs."""
    while alive and not (rows[(alive & -alive).bit_length() - 1] & alive):
        alive ^= alive & -alive  # drop isolated-in-remainder vertices
    if alive == 0:
        return 0
    cached = memo.get(alive)
    if cached is not None:
        return cached
    low = alive & -alive
    v = low.bit_length() - 1
    rest = alive ^ low
    best = _brute_matching(rows, rest, memo)  # v left unmatched
    cand = rows[v] & rest
    while cand:
        lowu = cand & -cand
        u = lowu.bit_length() - 1
        cand ^= lowu
        best = max(best, 1 + _brute_matching(rows, rest ^ lowu, memo))
    memo[alive] = best
    return best


def _unit_flow(arcs, s: int, t: int, cap: int) -> int:
    """Arc-disjoint s-t path count in a unit-capacity digraph, stopping at ``cap``.

    ``arcs[u]`` is the bitmask of heads of the arcs out of ``u``.  ``flow[u]``
    holds the arcs out of ``u`` that carry a unit of flow and ``back`` is its
    transpose, so the residual arcs out of ``u`` are
    ``(arcs[u] & ~flow[u]) | back[u]``; augmenting over a ``back`` arc cancels
    the opposite unit.  A symmetric ``arcs`` (the rows of an undirected graph)
    gives edge-disjoint paths.

    Blocking flows (Dinic; Even and Tarjan for unit networks): each phase
    runs one BFS that records the bitmask ``levels[i]`` of the nodes at
    residual distance ``i`` from ``s``, then a DFS that follows only
    residual arcs from level ``i`` to level ``i + 1`` and augments until no
    such path is left.  A node with no arc onward is a dead end for the rest
    of the phase and leaves its level mask.  Augmenting only removes arcs of
    the level graph or adds arcs back towards ``s``, so the next phase's
    distance to ``t`` is longer.
    """
    size = len(arcs)
    flow = [0] * size
    back = [0] * size
    target = 1 << t
    total = 0
    while total < cap:
        seen = 1 << s
        levels = [seen]
        while not levels[-1] & target:
            reach = 0
            f = levels[-1]
            while f:
                low = f & -f
                u = low.bit_length() - 1
                reach |= (arcs[u] & ~flow[u]) | back[u]
                f ^= low
            reach &= ~seen
            if not reach:  # no augmenting path is left
                return total
            seen |= reach
            levels.append(reach)
        levels[-1] = target
        path = [s]
        while path:
            u = path[-1]
            nxt = ((arcs[u] & ~flow[u]) | back[u]) & levels[len(path)]
            if not nxt:  # dead end
                levels[len(path) - 1] ^= 1 << u
                path.pop()
                continue
            path.append((nxt & -nxt).bit_length() - 1)
            if path[-1] != t:
                continue
            for u, v in zip(path, path[1:]):
                if (back[u] >> v) & 1:
                    back[u] ^= 1 << v
                    flow[v] ^= 1 << u
                else:
                    flow[u] |= 1 << v
                    back[v] |= 1 << u
            total += 1
            if total == cap:
                break
            path = [s]
    return total


def _vertex_flow(rows, n: int, s: int, t: int, cap: int) -> int:
    """``min(kappa(s, t), cap)``: the internally vertex-disjoint s-t path
    count for non-adjacent ``s, t``, stopping at ``cap``.

    Every s-t vertex separator contains each common neighbour ``w`` of
    ``s`` and ``t``, since ``s-w-t`` is a path on its own.  So with
    ``C = N(s) & N(t)``, ``kappa(s, t) = |C| + kappa_{G-C}(s, t)``: the flow
    runs only when ``|C| < cap``, with ``C`` removed and ``cap - |C|`` left.

    Node splitting (Even-Tarjan): in-copy ``v`` has the single arc to its
    out-copy ``v + n``, and out-copy ``u + n`` has arcs to the in-copies of
    the neighbours of ``u``.  Unit arc capacities then bound every vertex to
    one path; a vertex of ``C`` gets no in-out arc, which removes it.
    """
    common = rows[s] & rows[t]
    k = common.bit_count()
    if k >= cap:
        return cap
    arcs = [0 if (common >> v) & 1 else 1 << (v + n) for v in range(n)] + list(rows)
    return k + _unit_flow(arcs, s + n, t, cap - k)


def _edge_flow(rows, n: int, s: int, t: int, cap: int) -> int:
    """Edge-disjoint s-t path count with early exit at ``cap``."""
    return _unit_flow(rows, s, t, cap)


def _least_flow(flow, rows, n: int, best: int, pairs) -> int:
    """The least of ``best`` and the flows over ``pairs``, each capped at the
    least so far; it stops at 1, below which no flow of a connected graph goes."""
    for s, t in pairs:
        if best <= 1:
            break
        best = min(best, flow(rows, n, s, t, best))
    return best


def _vertex_conn_rows(rows, n: int) -> int:
    """Vertex connectivity of a connected graph given as rows: the least of
    the minimum degree and the vertex flows from one minimum-degree vertex
    ``v0`` to its non-neighbours and between the non-adjacent pairs of its
    neighbours (Esfahanian and Hakimi), stopping at 1.  A complete graph
    keeps its minimum degree ``n - 1``; the one-vertex graph gets 0."""
    best, v0 = min((rows[v].bit_count(), v) for v in range(n))
    nb = tuple(bit_indices(rows[v0]))
    far = bit_indices(((1 << n) - 1) & ~rows[v0] & ~(1 << v0))
    pairs = chain(((v0, u) for u in far),
                  ((x, y) for i, x in enumerate(nb) for y in nb[i + 1:]
                   if not (rows[x] >> y) & 1))
    return _least_flow(_vertex_flow, rows, n, best, pairs)


def _edge_conn_rows(rows, n: int) -> int:
    """Edge connectivity of a connected graph given as rows: the least of the
    minimum degree and the edge flows from one minimum-degree vertex to every
    other vertex, stopping at 1."""
    best, v0 = min((rows[v].bit_count(), v) for v in range(n))
    pairs = ((v0, u) for u in range(n) if u != v0)
    return _least_flow(_edge_flow, rows, n, best, pairs)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    return _connected_rows(g.rows, g.n)


def matching_number(g: Graph) -> int:
    """Size of a maximum matching.

    Bipartite graphs use augmenting-path search on the canonical bipartition;
    other graphs fall back to exact branching for n <= 20 and are rejected
    beyond that.
    """
    bip = find_bipartition(g)
    if bip is not None:
        return _kuhn_matching(g.rows, sorted(bip.side_x))
    if g.n > BRUTE_FORCE_MATCHING_LIMIT:
        raise ValueError(
            f"non-bipartite matching supported only for n <= {BRUTE_FORCE_MATCHING_LIMIT}")
    return _brute_matching(g.rows, (1 << g.n) - 1, {})


def vertex_connectivity(g: Graph) -> int:
    """Vertex connectivity; 0 for disconnected graphs and the one-vertex graph,
    capped at n - 1 (attained only by complete graphs)."""
    return _vertex_conn_rows(g.rows, g.n) if is_connected(g) else 0


def edge_connectivity(g: Graph) -> int:
    """Edge connectivity via minimum s-t cuts from a fixed min-degree vertex;
    0 for disconnected graphs."""
    return _edge_conn_rows(g.rows, g.n) if is_connected(g) else 0


def class_member(g: Graph, descriptor: ClassDescriptor) -> bool:
    """Membership test for the constrained graph classes."""
    if g.n != descriptor.n:
        return False
    if descriptor.kind == "matching":
        return matching_number(g) == descriptor.value
    if descriptor.kind == "vertex-connectivity":
        return vertex_connectivity(g) == descriptor.value
    return edge_connectivity(g) == descriptor.value
