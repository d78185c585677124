"""Anchored walk counting, twin vertices, identification unions, and the
moment-dominance checker.

Everything here is exact: counts are arbitrary-precision integers and no
floating point is used, because the claims being checked are integer
identities and inequalities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, bit_indices
from .spectral import moment_series

WALK_BUDGET = 64


@dataclass(frozen=True, eq=False)
class WalkCountTable:
    """Tables ``counts[k][u, v]`` = number of u-v walks of length k <= k_max."""

    n: int
    k_max: int
    counts: tuple  # tuple of (n, n) object ndarrays of Python ints

    def count(self, k: int, u: int, v: int) -> int:
        return int(self.counts[k][u, v])

    def closed_total(self, k: int) -> int:
        """All closed walks of length k (the k-th spectral moment)."""
        return int(np.trace(self.counts[k]))


def _check_budget(k_max: int) -> None:
    if not 0 <= k_max <= WALK_BUDGET:
        raise ValueError(f"walk length cutoff must be in 0..{WALK_BUDGET}")


def walk_counts(g: Graph, k_max: int) -> WalkCountTable:
    """Exact walk-count tables for all lengths up to ``k_max``."""
    _check_budget(k_max)
    adjacency = np.array(g.adjacency_int_rows(), dtype=object)
    tables = [np.eye(g.n, dtype=int).astype(object)]
    for _ in range(k_max):
        tables.append(tables[-1] @ adjacency)
    return WalkCountTable(g.n, k_max, tuple(tables))


def _anchor_rows(g: Graph, anchors, k_max: int) -> list[list[list[int]]]:
    """``rows[i][k][w]``, the number of walks of length ``k <= k_max`` from
    ``anchors[i]`` to ``w``: row ``k`` of ``A^k`` for each anchor alone, by
    ``row_{k+1}[w] = sum of row_k[x] over the neighbours x of w``."""
    _check_budget(k_max)
    neighbours = [tuple(bit_indices(r)) for r in g.rows]
    out = []
    for a in anchors:
        row = [0] * g.n
        row[a] = 1
        rows = [row]
        for _ in range(k_max):
            row = [sum(map(row.__getitem__, nb)) for nb in neighbours]
            rows.append(row)
        out.append(rows)
    return out


@dataclass(frozen=True)
class TwinCheck:
    ok: bool
    checked_up_to: int
    first_violation: int | None


def twin_check(g: Graph, u: int, v: int, k_max: int = 20) -> TwinCheck:
    """Verify the four-way walk-count equality for a twin pair.

    Twins are distinct vertices with identical neighbourhoods (which forces
    them to be non-adjacent in a loopless graph).  For every k the counts
    ``M_k(u,u) = M_k(v,v) = M_k(u,v) = M_k(v,u)`` must agree; the first
    violating k is reported (expected: none).
    """
    if u == v:
        raise ValueError("twin check needs two distinct vertices")
    if g.has_edge(u, v):
        raise ValueError(f"vertices {u} and {v} are adjacent, hence not twins")
    if g.rows[u] != g.rows[v]:
        witness = next(bit_indices(g.rows[u] ^ g.rows[v]))
        raise ValueError(
            f"vertices {u} and {v} are not twins: vertex {witness} is adjacent "
            f"to exactly one of them")
    from_u, from_v = _anchor_rows(g, (u, v), k_max)
    # length 0 is excluded: the empty walk exists only from a vertex to itself
    first = next((k for k in range(1, k_max + 1)
                  if len({from_u[k][u], from_v[k][v], from_u[k][v],
                          from_v[k][u]}) > 1), None)
    return TwinCheck(first is None, k_max, first)


def _is_independent(g: Graph, vertices: tuple[int, ...]) -> bool:
    mask = sum(1 << v for v in vertices)
    return all(g.rows[v] & mask == 0 for v in vertices)


@dataclass(frozen=True)
class IdentificationScheme:
    """Input to the vertex-identification union.

    ``anchors1``/``anchors2`` are equal-length independent sets; vertex
    ``anchors2[i]`` of ``g2`` is merged onto ``anchors1[i]`` of ``g1``.
    """

    g1: Graph
    anchors1: tuple[int, ...]
    g2: Graph
    anchors2: tuple[int, ...]

    def __post_init__(self):
        s = len(self.anchors1)
        if s < 1 or len(self.anchors2) != s:
            raise ValueError("anchor sets must have equal positive size")
        if len(set(self.anchors1)) != s or len(set(self.anchors2)) != s:
            raise ValueError("anchor vertices must be distinct")
        if not all(0 <= v < self.g1.n for v in self.anchors1):
            raise ValueError("anchors1 out of range")
        if not all(0 <= v < self.g2.n for v in self.anchors2):
            raise ValueError("anchors2 out of range")
        if not _is_independent(self.g1, self.anchors1):
            raise ValueError("anchors1 is not an independent set")
        if not _is_independent(self.g2, self.anchors2):
            raise ValueError("anchors2 is not an independent set")

    @property
    def s(self) -> int:
        return len(self.anchors1)


def identify_union(scheme: IdentificationScheme) -> Graph:
    """Glue ``g2`` onto ``g1`` by merging the anchor vertices pairwise.

    ``g1`` keeps its labels; the non-anchor vertices of ``g2`` are appended
    in their original order.  Independence of both anchor sets guarantees no
    multi-edges arise.
    """
    g1, g2 = scheme.g1, scheme.g2
    mapping = dict(zip(scheme.anchors2, scheme.anchors1))
    rest = [v for v in range(g2.n) if v not in mapping]
    mapping.update(zip(rest, range(g1.n, g1.n + len(rest))))
    edges = g1.edges() + [(mapping[u], mapping[v]) for u, v in g2.edges()]
    return Graph.from_edges(g1.n + len(rest), edges)


@dataclass(frozen=True)
class DominanceReport:
    """Outcome of checking the identification-union comparison on an instance.

    Premises: the whole-graph moments of each part are dominated, and the
    anchored walk counts between every anchor pair are dominated.  The
    conclusion checked is moment dominance of the identified graphs.  This is
    a falsification harness on instances, not a proof.
    """

    k_max: int
    first_part_violation: tuple[int, int] | None     # (part, k)
    first_anchored_violation: tuple[int, int, int] | None  # (i, j, k)
    strict_premise: bool
    first_conclusion_violation: int | None
    merged: Graph
    merged_other: Graph

    @property
    def part_moments_ok(self) -> bool:
        return self.first_part_violation is None

    @property
    def anchored_ok(self) -> bool:
        return self.first_anchored_violation is None

    @property
    def conclusion_ok(self) -> bool:
        return self.first_conclusion_violation is None

    @property
    def premises_hold(self) -> bool:
        return self.part_moments_ok and self.anchored_ok


def _first_violation(sequences: dict) -> tuple[tuple | None, bool]:
    """The first ``(*label, k)`` at which some pair of ``sequences[label]``
    has ``a > b``, and whether any pair read has ``a < b``.

    ``sequences[label][k - 1]`` holds the ``(a, b)`` pairs compared at
    length ``k``.  A sequence is read up to its first violated length, whose
    pairs still count toward strictness.
    """
    first, strict = None, False
    for label, steps in sequences.items():
        for k, pairs in enumerate(steps, start=1):
            strict = strict or any(a < b for a, b in pairs)
            if any(a > b for a, b in pairs):
                first = first or (*label, k)
                break
    return first, strict


def dominance_check(scheme: IdentificationScheme,
                    other: IdentificationScheme,
                    k_max: int = 20) -> DominanceReport:
    """Check, with exact integers, the premise and conclusion inequalities.

    The anchored counts come from the walk rows of the anchors alone; the
    moments of the parts and of the identified graphs come from
    :func:`~bipartite_estrada.spectral.moment_series`.  Requires both
    schemes to use the same number of anchors.
    """
    if scheme.s != other.s:
        raise ValueError("schemes must identify the same number of anchors")
    sides = ((scheme.g1, scheme.anchors1, other.g1, other.anchors1),
             (scheme.g2, scheme.anchors2, other.g2, other.anchors2))
    lengths = range(1, k_max + 1)
    anchored = [(_anchor_rows(g, a, k_max), a, _anchor_rows(h, b, k_max), b)
                for g, a, h, b in sides]
    first_part, strict_parts = _first_violation({
        (part,): [[pair] for pair in zip(moment_series(g, k_max).moments[1:],
                                         moment_series(h, k_max).moments[1:])]
        for part, (g, _, h, _) in enumerate(sides, start=1)})
    first_anchored, strict_anchored = _first_violation({
        (i, j): [[(from_g[i][k][a[j]], from_h[i][k][b[j]])
                  for from_g, a, from_h, b in anchored] for k in lengths]
        for i in range(scheme.s) for j in range(scheme.s)})

    merged, merged_other = identify_union(scheme), identify_union(other)
    lo = moment_series(merged, k_max).moments
    hi = moment_series(merged_other, k_max).moments
    return DominanceReport(
        k_max=k_max,
        first_part_violation=first_part,
        first_anchored_violation=first_anchored,
        strict_premise=strict_parts or strict_anchored,
        first_conclusion_violation=next(
            (k for k in lengths if lo[k] > hi[k]), None),
        merged=merged,
        merged_other=merged_other,
    )
