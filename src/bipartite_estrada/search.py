"""Exhaustive enumeration of small bipartite graphs and class-constrained
index maximizer searches.

The enumeration substrate iterates, for each side split ``(a, b)`` with
``a <= b``, every multiset of ``a`` left rows out of the ``2**b`` row masks,
once.  Permuting the left rows gives the same graph, so each multiset stands
for its whole left-permutation orbit: it is scanned as the least biadjacency
mask of that orbit (rows in non-increasing order from row 0) and weighted by
the orbit size ``a!/prod(mult!)``, so class sizes and ``graphs_scanned``
equal the counts of the labelled masks (Read 1978; McKay 1998).  Duplicates
across splits and right-side labelings remain: the index is
isomorphism-invariant, so they cannot change any maximum, and isomorphism
handling is applied only to the tiny set of near-maximal candidates.  Graphs
within ``NEAR_TIE`` of a class maximum form its halo, which is decided by
exact checks only.  The leader is the halo entry with the least ``(a, mask)``;
the class is ``unique`` when every entry is isomorphic to it.  An entry that
is not isomorphic but has the leader's moments ``M_0 .. M_n`` is cospectral
with it (Newton's identities turn the power sums into the characteristic
polynomial), so the two indices are equal and the class is decidedly not
unique.  Any other non-isomorphic entry leaves the class undecided.

Scans are deterministic by construction: work is split into fixed batches
aligned to absolute multiset ranks (colex order of the combinatorial number
system), per-graph spectra do not depend on batch grouping, and merging is
associative, so reports are bit-identical for any worker count.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import Pool
from typing import Sequence

import numpy as np

from .families import complete_bipartite, join_family
from .graph import Graph, bit_indices, from_biadjacency
from .invariants import (ClassDescriptor, _connected_rows, _edge_conn_rows,
                         _kuhn_matching, _vertex_conn_rows, class_member)
from .spectral import _moment_run

NEAR_TIE = 1e-6
BATCH_SIZE = 1 << 14
N_DEFAULT_MAX = 9
N_HARD_MAX = 10
ISO_LIMIT = 12


def _graph_from_split(n: int, a: int, mask: int) -> Graph:
    b = n - a
    bits = [[(mask >> (i * b + j)) & 1 for j in range(b)] for i in range(a)]
    return from_biadjacency(a, b, bits)


def predicted_maximizer(descriptor: ClassDescriptor) -> Graph | None:
    """The family instance predicted to maximize the index over the class.

    ``matching``: the complete split ``K_{p, n-p}``.  Connectivity kinds: the
    apex join ``join_family(s, floor((n-1)/2), ceil((n-1)/2) - s)``; ``None``
    when the formula's block sizes are negative (class expected empty).
    """
    n, value = descriptor.n, descriptor.value
    if descriptor.kind == "matching":
        return complete_bipartite(value, n - value)
    q = -(-(n - 1) // 2) - value
    if q < 0:
        return None
    return join_family(value, (n - 1) // 2, q)


# ---------------------------------------------------------------------------
# isomorphism by colour refinement + backtracking
# ---------------------------------------------------------------------------

def _refined_colors(g: Graph) -> list[int]:
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        signatures = [
            (colors[v], tuple(sorted(colors[w] for w in bit_indices(g.rows[v]))))
            for v in range(g.n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [palette[sig] for sig in signatures]
        if new_colors == colors:
            return colors
        colors = new_colors


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism decision for graphs on at most 12 vertices."""
    if max(g.n, h.n) > ISO_LIMIT:
        raise ValueError(f"isomorphism supported only for n <= {ISO_LIMIT}")
    if g.n != h.n or g.m != h.m:
        return False
    gc = _refined_colors(g)
    hc = _refined_colors(h)
    if sorted(gc) != sorted(hc):
        return False
    candidates = {v: [w for w in range(h.n) if hc[w] == gc[v]] for v in range(g.n)}
    order = sorted(range(g.n), key=lambda v: len(candidates[v]))
    mapping: dict[int, int] = {}
    used = [False] * h.n

    def extend(idx: int) -> bool:
        if idx == g.n:
            return True
        v = order[idx]
        for w in candidates[v]:
            if used[w]:
                continue
            if any(((g.rows[v] >> u) & 1) != ((h.rows[w] >> mapping[u]) & 1)
                   for u in mapping):
                continue
            mapping[v] = w
            used[w] = True
            if extend(idx + 1):
                return True
            del mapping[v]
            used[w] = False
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# scan engine
# ---------------------------------------------------------------------------

class _Partial:
    """Per-class scan state: max index, near-tie halo, runner-up, count.

    ``count`` and the halo weights count labelled graphs (orbit sizes)."""

    __slots__ = ("count", "best", "halo", "runner")

    def __init__(self, count: int = 0, best: float | None = None,
                 halo: list[tuple[float, int, int, int]] | None = None,
                 runner: float | None = None):
        self.count = count
        self.best = best
        self.halo = halo or []   # (ee, a, mask, weight) within NEAR_TIE of best
        self.runner = runner     # largest ee outside the halo

    def merge(self, other: "_Partial") -> None:
        self.count += other.count
        if other.best is None:
            return
        best = other.best if self.best is None else max(self.best, other.best)
        entries = self.halo + other.halo
        self.halo = [e for e in entries if e[0] >= best - NEAR_TIE]
        outside = [e[0] for e in entries if e[0] < best - NEAR_TIE]
        outside += [r for r in (self.runner, other.runner) if r is not None]
        self.runner = max(outside, default=None)
        self.best = best


def _row_multisets(a: int, b: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
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


def _scan_batch(task) -> dict[int, _Partial]:
    kind, n, a, lo, hi, values = task
    b = n - a
    left, weights = _row_multisets(a, b, lo, hi)
    masks = (left << (b * np.arange(a, dtype=np.int64))).sum(axis=1)
    biadj = (left[:, :, None] >> np.arange(b, dtype=np.int64)) & 1
    mats = np.zeros((len(left), n, n))
    mats[:, :a, a:] = biadj
    mats[:, a:, :a] = biadj.transpose(0, 2, 1)
    ee = np.exp(np.linalg.eigvalsh(mats)).sum(axis=1)
    del mats

    right = (biadj << np.arange(a, dtype=np.int64)[:, None]).sum(axis=1)
    all_rows = np.concatenate([left << a, right], axis=1).tolist()

    if kind == "matching":
        invariant = [_kuhn_matching(rows, range(a)) for rows in all_rows]
    else:
        conn = _vertex_conn_rows if kind == "vertex-connectivity" else _edge_conn_rows
        # class values are >= 1, so disconnected graphs (0) drop out
        invariant = [conn(rows, n) if _connected_rows(rows, n) else 0
                     for rows in all_rows]
    invariant = np.array(invariant)

    partials = {}
    for value in values:
        idx = np.flatnonzero(invariant == value)
        if not len(idx):
            partials[value] = _Partial()
            continue
        sel = ee[idx]
        best = sel.max()
        near = sel >= best - NEAR_TIE
        halo = [(x, a, mask, w) for x, mask, w in zip(
            sel[near].tolist(), masks[idx[near]].tolist(), weights[idx[near]].tolist())]
        runner = float(sel[~near].max()) if not near.all() else None
        partials[value] = _Partial(int(weights[idx].sum()), float(best), halo, runner)
    return partials


@dataclass
class ExtremalReport:
    """Verification record for one class scan."""

    descriptor: ClassDescriptor
    empty: bool
    graphs_scanned: int
    class_size: int
    duration: float
    predicted: Graph | None
    maximizer: Graph | None = None
    max_ee: float | None = None
    runner_up_gap: float | None = None
    unique: bool | None = None
    uniqueness_undecided: bool = False
    matches_prediction: bool | None = None
    near_tie_count: int = 0

    @property
    def verified(self) -> bool:
        """True when the scan confirms the predicted unique maximizer."""
        return bool(self.matches_prediction) and bool(self.unique)


def _finalize(descriptor: ClassDescriptor, partial: _Partial, scanned: int,
              duration: float) -> ExtremalReport:
    predicted = predicted_maximizer(descriptor)
    if partial.count == 0:
        return ExtremalReport(descriptor, True, scanned, 0, duration, predicted)
    entries = sorted(partial.halo, key=lambda e: (e[1], e[2]))
    n = descriptor.n
    graphs = [_graph_from_split(n, a, mask) for _, a, mask, _ in entries]
    maximizer = graphs[0]
    rivals = [g for g in graphs[1:] if not is_isomorphic(maximizer, g)]
    moments = _moment_run(maximizer, n) if rivals else None
    unique = not rivals
    undecided = any(_moment_run(g, n) != moments for g in rivals)
    if not class_member(maximizer, descriptor):
        raise AssertionError("scan produced a maximizer outside its class")
    max_ee = entries[0][0]
    runner_gap = None if partial.runner is None else max_ee - partial.runner
    matches = None if predicted is None else is_isomorphic(maximizer, predicted)
    return ExtremalReport(
        descriptor, False, scanned, partial.count, duration, predicted,
        maximizer, max_ee, runner_gap, unique, undecided, matches,
        near_tie_count=sum(e[3] for e in entries))


def _default_values(n: int) -> list[int]:
    return list(range(1, n // 2 + 1))


def find_maximizers(kind: str, n: int, values: Sequence[int] | None = None,
                    workers: int = 1, allow_n10: bool = False) -> list[ExtremalReport]:
    """Scan the order-``n`` stream once and report every requested class.

    One enumeration pass feeds all class values of the same kind, so the
    invariants are computed once per scanned left-row multiset.
    """
    limit = N_HARD_MAX if allow_n10 else N_DEFAULT_MAX
    if not 2 <= n <= limit:
        raise ValueError(f"order must be in 2..{limit} (n = 10 needs allow_n10)")
    if values is None:
        values = _default_values(n)
    values = list(values)
    descriptors = [ClassDescriptor(kind, n, v) for v in values]

    tasks = []
    scanned = 0
    for a in range(1, n // 2 + 1):
        b = n - a
        scanned += 1 << (a * b)
        total = math.comb((1 << b) + a - 1, a)
        for lo in range(0, total, BATCH_SIZE):
            tasks.append((kind, n, a, lo, min(lo + BATCH_SIZE, total), tuple(values)))

    started = time.perf_counter()
    merged = {value: _Partial() for value in values}
    with Pool(processes=min(workers, len(tasks))) if workers > 1 else nullcontext() as pool:
        results = map(_scan_batch, tasks) if pool is None else pool.imap(_scan_batch, tasks)
        for result in results:
            for value, part in result.items():
                merged[value].merge(part)
    duration = time.perf_counter() - started

    return [_finalize(d, merged[d.value], scanned, duration) for d in descriptors]

