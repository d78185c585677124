"""Constructors for the bipartite families used by the extremal analysis.

Every constructor fixes a canonical vertex ordering so that graph6 output is
reproducible.  All outputs are bipartite by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import MAX_VERTICES, Graph, from_biadjacency


def _order(n: int) -> int:
    """``n``, checked against ``MAX_VERTICES`` from the sizes alone, before
    an edge list of up to ``n**2 / 4`` entries is built."""
    if n > MAX_VERTICES:
        raise ValueError(f"order {n} exceeds the supported maximum {MAX_VERTICES}")
    return n


@dataclass(frozen=True)
class JoinFamilyParams:
    """Parameters of the apex join family: an independent core of size ``s``
    joined to a single apex vertex and to the ``p``-side of a complete
    bipartite block ``K_{p,q}``.  Order is ``s + p + q + 1``.

    With ``q = 0`` the family degenerates to ``K_{s, p+1}``.
    """

    s: int
    p: int
    q: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError("core size s must be >= 1")
        if self.p < 0 or self.q < 0:
            raise ValueError("side sizes p, q must be >= 0")

    @property
    def n(self) -> int:
        return self.s + self.p + self.q + 1


@dataclass(frozen=True)
class CoverPartition:
    """Sizes of the four blocks of a minimum-cover split of a bipartite graph.

    ``x1 + x2`` and ``y1 + y2`` are the two sides; ``x1 + y1`` vertices form
    the cover.  The standing normalisation ``x1 >= y1`` is required, and the
    cover must be nonempty (so ``x1 >= 1``): a graph with a nonzero matching
    number always has one.
    """

    x1: int
    x2: int
    y1: int
    y2: int

    def __post_init__(self):
        if min(self.x1, self.x2, self.y1, self.y2) < 0:
            raise ValueError("block sizes must be nonnegative")
        if self.x1 < self.y1:
            raise ValueError("normalisation requires x1 >= y1")
        if self.x1 < 1:
            raise ValueError("the cover side x1 must be nonempty")

    @property
    def n(self) -> int:
        return self.x1 + self.x2 + self.y1 + self.y2

    # canonical vertex layout: X1, X2, Y1, Y2 in consecutive ranges
    @property
    def x1_vertices(self) -> range:
        return range(0, self.x1)

    @property
    def x2_vertices(self) -> range:
        return range(self.x1, self.x1 + self.x2)

    @property
    def y1_vertices(self) -> range:
        return range(self.x1 + self.x2, self.x1 + self.x2 + self.y1)

    @property
    def y2_vertices(self) -> range:
        return range(self.x1 + self.x2 + self.y1, self.n)


def complete_bipartite(p: int, q: int) -> Graph:
    """``K_{p,q}`` with left vertices ``0..p-1``; ``p*q`` edges."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need nonnegative sides and at least one vertex")
    _order(p + q)
    ones = [[1] * q for _ in range(p)]
    return from_biadjacency(p, q, ones)


def join_family(s: int, p: int, q: int) -> Graph:
    """Apex join: independent core of size ``s`` joined to an apex vertex and
    to the ``p``-side of ``K_{p,q}``.

    Canonical order: apex, core, p-side, q-side.  Edge count is
    ``s + s*p + p*q``; the sides are {apex} + p-side versus core + q-side.
    """
    n = _order(JoinFamilyParams(s, p, q).n)
    apex = 0
    core = range(1, 1 + s)
    p_side = range(1 + s, 1 + s + p)
    q_side = range(1 + s + p, n)
    edges = [(apex, o) for o in core]
    edges += [(o, x) for o in core for x in p_side]
    edges += [(x, y) for x in p_side for y in q_side]
    return Graph.from_edges(n, edges)


def join_family_double(s: int, n1: int, n2: int, m1: int, m2: int) -> Graph:
    """Independent core of size ``s`` joined to the ``n1``-side of
    ``K_{n1,n2}`` and the ``m1``-side of ``K_{m1,m2}``.

    Canonical order: n1-side, n2-side, core, m1-side, m2-side, so that the
    ``(s, 1, 0, p, q)`` instance coincides vertex-for-vertex with
    ``join_family(s, p, q)``.
    """
    if s < 1:
        raise ValueError("core size s must be >= 1")
    if min(n1, n2, m1, m2) < 0:
        raise ValueError("side sizes must be nonnegative")
    n = _order(s + n1 + n2 + m1 + m2)
    side_n1 = range(0, n1)
    side_n2 = range(n1, n1 + n2)
    core = range(n1 + n2, n1 + n2 + s)
    side_m1 = range(n1 + n2 + s, n1 + n2 + s + m1)
    side_m2 = range(n1 + n2 + s + m1, n)
    edges = [(a, b) for a in side_n1 for b in side_n2]
    edges += [(a, b) for a in side_m1 for b in side_m2]
    edges += [(o, a) for o in core for a in side_n1]
    edges += [(o, a) for o in core for a in side_m1]
    return Graph.from_edges(n, edges)


def saturated_cover_graph(partition: CoverPartition) -> Graph:
    """Largest bipartite graph covered by X1 + Y1: X1 joined to all of Y,
    X2 joined to Y1, and no X2-Y2 edges."""
    p = partition
    _order(p.n)
    edges = [(x, y) for x in p.x1_vertices
             for y in list(p.y1_vertices) + list(p.y2_vertices)]
    edges += [(x, y) for x in p.x2_vertices for y in p.y1_vertices]
    return Graph.from_edges(p.n, edges)


def collapsed_cover_graph(partition: CoverPartition) -> Graph:
    """Rewire the saturated cover graph: drop the X2-Y1 edges and join X2 to
    X1 instead.  The result is complete bipartite between X1 and the rest."""
    p = partition
    _order(p.n)
    others = list(p.x2_vertices) + list(p.y1_vertices) + list(p.y2_vertices)
    edges = [(x, v) for x in p.x1_vertices for v in others]
    return Graph.from_edges(p.n, edges)


# family name on the command line -> (parameter names in order, constructor)
CLI_FAMILY_TABLE = {
    "complete-bipartite": (("p", "q"), complete_bipartite),
    "join": (("s", "p", "q"), join_family),
    "join-double": (("s", "n1", "n2", "m1", "m2"), join_family_double),
    "g-star": (("x1", "x2", "y1", "y2"),
               lambda *sizes: saturated_cover_graph(CoverPartition(*sizes))),
    "g-double-star": (("x1", "x2", "y1", "y2"),
                      lambda *sizes: collapsed_cover_graph(CoverPartition(*sizes))),
}
CLI_FAMILIES = tuple(CLI_FAMILY_TABLE)


def build_cli_family(name: str, **kw) -> Graph:
    """Construct a family instance from CLI-style keyword parameters."""
    if name not in CLI_FAMILY_TABLE:
        raise ValueError(f"unknown family {name!r}")
    params, construct = CLI_FAMILY_TABLE[name]
    return construct(*(kw[p] for p in params))
