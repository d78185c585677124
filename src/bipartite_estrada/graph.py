"""Immutable bitmask graphs, bipartition discovery, and graph6 text I/O.

Vertices are dense 0-based integers.  The adjacency matrix is stored as one
integer bitmask per row, which keeps every graph hashable and makes the
set-algebra style traversals used elsewhere in the package cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_VERTICES = 62  # largest order representable with a one-byte graph6 header


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Instances are immutable after construction and safe to share across
    workers; all operations on them are pure functions.  ``rows[i]`` has bit
    ``j`` set iff ``ij`` is an edge.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int]):
        rows = tuple(int(r) for r in rows)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for i, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {i} has bits outside 0..{n - 1}")
            if (row >> i) & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(n):
            for j in range(i + 1, n):
                if ((rows[i] >> j) & 1) != ((rows[j] >> i) & 1):
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, graph6={emit_graph6(self)!r})"

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(r.bit_count() for r in self.rows) // 2

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def max_degree(self) -> int:
        return max(self.degree(v) for v in range(self.n))

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if (self.rows[i] >> j) & 1]

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Return the graph with vertex ``v`` renamed to ``perm[v]``."""
        rows = [0] * self.n
        for v in range(self.n):
            for w in bit_indices(self.rows[v]):
                rows[perm[v]] |= 1 << perm[w]
        return Graph(self.n, rows)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense float64 adjacency matrix."""
        a = np.zeros((self.n, self.n))
        for i in range(self.n):
            for j in bit_indices(self.rows[i]):
                a[i, j] = 1.0
        return a

    def adjacency_int_rows(self) -> list[list[int]]:
        """Adjacency matrix as nested lists of Python ints (for exact work)."""
        return [[(self.rows[i] >> j) & 1 for j in range(self.n)] for i in range(self.n)]


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Bipartition:
    """A proper two-sided split; no edge joins two vertices of one side."""

    side_x: frozenset[int]
    side_y: frozenset[int]


def from_biadjacency(a: int, b: int, bits) -> Graph:
    """Bipartite graph with left vertices ``0..a-1`` and right ``a..a+b-1``.

    ``bits`` is any a-by-b indexable of 0/1 values; edge ``(i, a + j)`` is
    present iff ``bits[i][j]``.
    """
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("side sizes must be nonnegative with at least one vertex")
    if a + b > MAX_VERTICES:
        raise ValueError(f"order {a + b} exceeds the supported maximum {MAX_VERTICES}")
    n = a + b
    rows = [0] * n
    for i in range(a):
        for j in range(b):
            if bits[i][j]:
                rows[i] |= 1 << (a + j)
                rows[a + j] |= 1 << i
    return Graph(n, rows)


def colour_classes(g: Graph) -> list[tuple[int, int]] | None:
    """The two colour classes of each connected component of ``g`` as
    bitmasks, or ``None`` if ``g`` has an odd cycle.

    Components come in order of their lowest-index vertex, and the class
    holding that vertex comes first.  Each component is walked by bitmask
    frontiers from its lowest vertex; the layer parity gives the class, and
    an edge from a frontier into its own class closes an odd cycle.
    """
    classes = []
    rest = (1 << g.n) - 1
    while rest:
        seen = frontier = rest & -rest
        sides, parity = [seen, 0], 0
        while frontier:
            reach = 0
            for v in bit_indices(frontier):
                reach |= g.rows[v]
            if reach & sides[parity]:
                return None
            parity ^= 1
            frontier = reach & ~seen
            sides[parity] |= frontier
            seen |= frontier
        rest &= ~seen
        classes.append((sides[0], sides[1]))
    return classes


def find_bipartition(g: Graph) -> Bipartition | None:
    """Canonical two-colouring of ``g``, or ``None`` if an odd cycle exists.

    Within each connected component the side containing the component's
    lowest-index vertex goes to ``side_x``, so the result is deterministic.
    """
    classes = colour_classes(g)
    if classes is None:
        return None
    side_x = sum(x for x, _ in classes)  # the classes are disjoint
    side_y = sum(y for _, y in classes)
    return Bipartition(frozenset(bit_indices(side_x)), frozenset(bit_indices(side_y)))


def _upper_triangle_pairs(n: int) -> Iterator[tuple[int, int]]:
    # graph6 bit order: columns j = 1..n-1, rows i < j
    for j in range(1, n):
        for i in range(j):
            yield i, j


def emit_graph6(g: Graph) -> str:
    """Standard graph6 encoding (single size byte, n <= 62)."""
    out = [chr(63 + g.n)]
    buf = 0
    nbits = 0
    for i, j in _upper_triangle_pairs(g.n):
        buf = (buf << 1) | ((g.rows[i] >> j) & 1)
        nbits += 1
        if nbits == 6:
            out.append(chr(63 + buf))
            buf = 0
            nbits = 0
    if nbits:
        out.append(chr(63 + (buf << (6 - nbits))))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    """Parse one graph6 line.  Rejects headers, bad bytes, and bad lengths."""
    if not text:
        raise Graph6Error("empty graph6 string", 0)
    first = ord(text[0])
    if text.startswith(">>"):
        raise Graph6Error("format header not supported", 0)
    if first == 126:
        raise Graph6Error("multi-byte size header not supported (n > 62)", 0)
    if not 63 <= first <= 125:
        raise Graph6Error(f"invalid size byte {first}", 0)
    n = first - 63
    if n == 0:
        raise Graph6Error("graphs on 0 vertices are not supported", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(text) < 1 + need:
        raise Graph6Error(f"truncated adjacency data, expected {1 + need} bytes", len(text))
    if len(text) > 1 + need:
        raise Graph6Error("trailing data after adjacency bits", 1 + need)
    rows = [0] * n
    pairs = _upper_triangle_pairs(n)
    bit_pos = 0
    for offset in range(1, len(text)):
        value = ord(text[offset]) - 63
        if not 0 <= value <= 63:
            raise Graph6Error(f"byte {ord(text[offset])} outside graph6 range", offset)
        for shift in range(5, -1, -1):
            bit = (value >> shift) & 1
            if bit_pos < nbits:
                if bit:
                    i, j = next(pairs)
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                else:
                    next(pairs)
                bit_pos += 1
            elif bit:
                raise Graph6Error("nonzero padding bits", offset)
    return Graph(n, rows)
