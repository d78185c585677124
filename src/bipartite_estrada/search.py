"""Exhaustive enumeration of small bipartite graphs and class-constrained
index maximizer searches.

The enumeration substrate is an orderly generator of ``S_a x S_b`` orbit
representatives (Read 1978; McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998).  For each side split ``(a, b)`` with ``a <= b``, a
graph is written as ``b`` columns, each an ``a``-bit mask over the smaller
side, sorted non-decreasing.  Such a tuple is canonical iff no row
permutation ``s`` in ``S_a`` gives a lexicographically smaller sorted image.
Dropping the last (largest) column of a canonical tuple leaves a canonical
tuple, so the tuples grow one column at a time, each new column at least the
last, and a non-canonical prefix is dropped at once.  The test runs on an
``a! x 2**a`` table of permuted columns, built once per ``a`` on first use.
Each representative is weighted by its orbit size ``(a!/|stab|) *
(b!/prod(mult!))``, where ``|stab|`` counts the ``s`` whose sorted image is
the tuple itself and ``mult`` are the column multiplicities, so class sizes,
``near_tie_count`` and ``graphs_scanned`` equal the counts of the labelled
biadjacency masks.  When ``a = b`` a graph and its transpose are two orbits
and both are scanned.  Duplicates across splits remain: the index is
isomorphism-invariant, so they cannot change any maximum, and isomorphism
is decided only for the tiny set of near-maximal candidates, by equal
canonical keys: the sorted least labelled masks of the connected components.

The scan's index of a graph is ``n - 2a + 2 sum cosh(sqrt(mu))`` over the
eigenvalues ``mu`` (clamped at 0) of its ``a x a`` Gram matrix ``B B^T``,
from one batched ``eigvalsh``.  Graphs within ``NEAR_TIE`` of a class
maximum form its halo.  Halo membership and the choice of runner-up rest on
these floats, which differ from those of the ``n x n`` adjacency matrices by
at most 5.1e-15 relative at ``n <= 10`` (8.6e-15 at ``n = 12``), against a
halo width of 1e-6.  The payload floats do not depend on the scan:
``_finalize`` maps each halo entry and the runner-up to the least row-major
labelled mask of its graph (the least over the ``a!`` row orders of the mask
with its columns sorted non-increasing, row ``a - 1`` most significant, and
over the transpose too when ``a = b``) and evaluates the index of the leader
and of the runner-up by one ``eigvalsh`` call on the ``n x n`` adjacency
matrix.  The halo is decided by exact checks only.  The leader is the entry
with the least ``(a, mask)``; the class is ``unique`` when every entry is
isomorphic to it.  An entry that is not isomorphic but has the leader's
moments ``M_0..M_n`` is cospectral with it (Newton's identities turn the
power sums into the characteristic polynomial), so the two indices are equal
and the class is decidedly not unique.  Any other non-isomorphic entry
leaves the class undecided.

Scans are deterministic by construction: each task is the subtree under a
fixed range of canonical prefixes of one split, the tasks are merged in
task order, per-graph spectra do not depend on batch grouping, and merging
is associative, so reports are bit-identical for any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .families import complete_bipartite, join_family
from .graph import Graph, bit_indices, colour_classes, from_biadjacency
from .invariants import (ClassDescriptor, _connected_rows, _edge_conn_rows,
                         _kuhn_matching, _vertex_conn_rows, class_member)
from .spectral import _moment_run, estrada

NEAR_TIE = 1e-6
BATCH_SIZE = 1 << 14
N_DEFAULT_MAX = 11
N_HARD_MAX = 12
PREFIX_DEPTH = 2          # columns fixed by a task's prefixes
PREFIXES_PER_TASK = 4
_CHUNK_ELEMENTS = 1 << 20  # permuted columns held at once by the canonicity test


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
# isomorphism by canonical keys
# ---------------------------------------------------------------------------

def _canonical_key(g: Graph) -> tuple[tuple[int, int, int], ...]:
    """Sorted ``(order, a, _least_mask)`` over the connected components of
    ``g``, each written in its one bipartition with the smaller side (``a``
    vertices) as rows.

    Raises ``ValueError`` when ``g`` has an odd cycle, or when a component's
    ``a * b`` exceeds 63, the bits of the int64 mask ``_least_mask`` builds.
    """
    classes = colour_classes(g)
    if classes is None:
        raise ValueError("graph is not bipartite")
    keys = []
    for sides in classes:
        small, large = sorted(sides, key=int.bit_count)
        a, b = small.bit_count(), large.bit_count()
        if a * b > 63:
            raise ValueError(f"component with sides {a} x {b} exceeds 63 "
                             f"biadjacency bits")
        mask = sum(1 << (i * b + j)
                   for i, u in enumerate(bit_indices(small))
                   for j, w in enumerate(bit_indices(large))
                   if (g.rows[u] >> w) & 1)
        keys.append((a + b, a, _least_mask(a + b, a, mask)))
    return tuple(sorted(keys))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism decision for bipartite graphs: equality of their
    ``_canonical_key``.  The key is complete because a connected bipartite
    graph has one bipartition and ``_least_mask`` is the least mask over
    ``S_a x S_b``, and over the transpose too when ``a = b``.  Raises
    ``ValueError`` where ``_canonical_key`` does."""
    return _canonical_key(g) == _canonical_key(h)


# ---------------------------------------------------------------------------
# orderly generation of S_a x S_b orbit representatives
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _row_perms(a: int) -> np.ndarray:
    """``table[s, c]``: column mask ``c`` with its ``a`` bits (rows) moved by
    the ``s``-th permutation of ``S_a``; row 0 is the identity.  Entries fit
    in ``uint8`` for ``a <= 8``, which keeps the canonicity test cheap."""
    cols = np.arange(1 << a, dtype=np.int64)
    table = np.zeros((math.factorial(a), 1 << a), dtype=np.int64)
    for s, perm in enumerate(itertools.permutations(range(a))):
        for i, p in enumerate(perm):
            table[s] |= ((cols >> i) & 1) << p
    return table.astype(np.uint8)


def _insert_last(images: list[np.ndarray]) -> None:
    """Move the last of ``images`` down to its place among the others, which
    are sorted elementwise (one compare-exchange pass)."""
    for i in range(len(images) - 1, 0, -1):
        low, high = images[i - 1], images[i]
        images[i - 1], images[i] = np.minimum(low, high), np.maximum(low, high)


def _extend(tuples: np.ndarray, a: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical one-column extensions of canonical column tuples, in
    lexicographic order, and ``|stab|`` of each.

    A tuple is compared with each sorted image as one integer key, first
    column most significant.  A parent's sorted images are built once; each
    child's image inserts the permuted new column into them.
    """
    table = _row_perms(a)
    count, k = tuples.shape
    shifts = a * np.arange(k, -1, -1, dtype=np.int64)
    per_chunk = max(1, _CHUNK_ELEMENTS // (len(table) << a))
    children, stabs = [np.empty((0, k + 1), dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for start in range(0, count, per_chunk):
        parents = tuples[start:start + per_chunk]
        images: list[np.ndarray] = []
        for j in range(k):
            images.append(table[:, parents[:, j]])
            _insert_last(images)
        last = parents[:, -1] if k else np.zeros(len(parents), dtype=np.int64)
        width = (1 << a) - last
        owner = np.repeat(np.arange(len(parents)), width)
        offset = np.repeat(np.cumsum(width) - width - last, width)
        col = np.arange(len(owner)) - offset
        child = np.concatenate([parents[owner], col[:, None]], axis=1)
        images = [image[:, owner] for image in images] + [table[:, col]]
        _insert_last(images)
        image_keys = sum(image.astype(np.int64) << shift
                         for image, shift in zip(images, shifts))
        keys = (child << shifts).sum(axis=1)
        keep = (image_keys >= keys).all(axis=0)
        children.append(child[keep])
        stabs.append((image_keys == keys).sum(axis=0)[keep])
    return np.concatenate(children), np.concatenate(stabs)


@functools.lru_cache(maxsize=None)
def _prefixes(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical tuples of ``min(PREFIX_DEPTH, b)`` columns, with ``|stab|``."""
    tuples = np.zeros((1, 0), dtype=np.int64)
    stab = np.array([math.factorial(a)])
    for _ in range(min(PREFIX_DEPTH, b)):
        tuples, stab = _extend(tuples, a)
    return tuples, stab


def _orbits(a: int, b: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns and orbit weights of the canonical ``b``-column tuples under
    the prefixes ``lo .. hi - 1`` of split ``(a, b)``, in lexicographic order.

    Prefix indices outside ``0 .. len(_prefixes(a, b))`` raise ``ValueError``.
    """
    prefixes, stab = _prefixes(a, b)
    if not 0 <= lo <= hi <= len(prefixes):
        raise ValueError(f"prefixes {lo}..{hi} out of range for split ({a}, {b})")
    columns, stab = prefixes[lo:hi], stab[lo:hi]
    for _ in range(b - prefixes.shape[1]):
        columns, stab = _extend(columns, a)
    run = np.ones(len(columns), dtype=np.int64)
    repeats = np.ones(len(columns), dtype=np.int64)
    for j in range(1, b):
        run = np.where(columns[:, j] == columns[:, j - 1], run + 1, 1)
        repeats *= run
    return columns, (math.factorial(a) // stab) * (math.factorial(b) // repeats)


# ---------------------------------------------------------------------------
# scan engine
# ---------------------------------------------------------------------------

class _Partial:
    """Per-class scan state: max index, near-tie halo, runner-up, count.

    ``count`` and the halo weights count labelled graphs (orbit sizes)."""

    __slots__ = ("count", "best", "halo", "runner")

    def __init__(self, count: int = 0, best: float | None = None,
                 halo: list[tuple[float, int, int, int]] | None = None,
                 runner: tuple[float, int, int] | None = None):
        self.count = count
        self.best = best
        self.halo = halo or []   # (ee, a, mask, weight) within NEAR_TIE of best
        self.runner = runner     # largest (ee, a, mask) outside the halo

    def merge(self, other: "_Partial") -> None:
        self.count += other.count
        if other.best is None:
            return
        best = other.best if self.best is None else max(self.best, other.best)
        entries = self.halo + other.halo
        self.halo = [e for e in entries if e[0] >= best - NEAR_TIE]
        outside = [e[:3] for e in entries if e[0] < best - NEAR_TIE]
        outside += [r for r in (self.runner, other.runner) if r is not None]
        self.runner = max(outside, default=None)
        self.best = best


def _scan_graphs(kind: str, n: int, a: int, columns: np.ndarray,
                 weights: np.ndarray, values) -> dict[int, _Partial]:
    """Class partials of the split-``(a, n - a)`` graphs given as columns."""
    b = n - a
    row = np.arange(a, dtype=np.int64)[:, None]
    biadj = (columns[:, None, :] >> row) & 1
    masks = (biadj << (b * row + np.arange(b, dtype=np.int64))).sum(axis=(1, 2))
    mu = np.linalg.eigvalsh(biadj @ biadj.transpose(0, 2, 1))
    ee = (n - 2 * a) + 2 * np.cosh(np.sqrt(np.maximum(mu, 0))).sum(axis=1)

    left = (biadj << np.arange(b, dtype=np.int64)).sum(axis=2)
    all_rows = np.concatenate([left << a, columns], axis=1).tolist()
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
        runner = None
        if not near.all():
            top = sel[~near].max()
            runner = (float(top), a, int(masks[idx[sel == top]].max()))
        partials[value] = _Partial(int(weights[idx].sum()), float(best), halo, runner)
    return partials


def _scan_batch(task) -> dict[int, _Partial]:
    """Class partials of the subtree under one range of prefixes of a split."""
    kind, n, a, lo, hi, values = task
    columns, weights = _orbits(a, n - a, lo, hi)
    partials = {value: _Partial() for value in values}
    for start in range(0, len(columns), BATCH_SIZE):
        part = _scan_graphs(kind, n, a, columns[start:start + BATCH_SIZE],
                            weights[start:start + BATCH_SIZE], values)
        for value in values:
            partials[value].merge(part[value])
    return partials


def _least_mask(n: int, a: int, mask: int) -> int:
    """The least row-major labelled mask of the split-``(a, n - a)`` graph
    with mask ``mask``: over the ``a!`` row orders, the mask with columns
    sorted non-increasing (row ``a - 1`` most significant), and over the
    transpose too when ``a = b``."""
    b = n - a
    row = np.arange(a, dtype=np.int64)[:, None]
    bits = (mask >> (b * row + np.arange(b, dtype=np.int64))) & 1
    place = b * row + np.arange(b, dtype=np.int64)
    least = None
    for view in ([bits, bits.T] if a == b else [bits]):
        columns = (view << row).sum(axis=0)
        images = -np.sort(-_row_perms(a)[:, columns].astype(np.int64), axis=1)
        masks = (((images[:, None, :] >> row) & 1) << place).sum(axis=(1, 2))
        least = int(masks.min()) if least is None else min(least, int(masks.min()))
    return least


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
    n = descriptor.n
    keys = sorted({(a, _least_mask(n, a, mask)) for _, a, mask, _ in partial.halo})
    graphs = [_graph_from_split(n, a, mask) for a, mask in keys]
    maximizer = graphs[0]
    leader = _canonical_key(maximizer)
    rivals = [g for g in graphs[1:] if _canonical_key(g) != leader]
    moments = _moment_run(maximizer, n) if rivals else None
    unique = not rivals
    undecided = any(_moment_run(g, n) != moments for g in rivals)
    if not class_member(maximizer, descriptor):
        raise AssertionError("scan produced a maximizer outside its class")
    max_ee = estrada(maximizer).value
    runner_gap = None
    if partial.runner is not None:
        _, a, mask = partial.runner
        runner = _graph_from_split(n, a, _least_mask(n, a, mask))
        runner_gap = max_ee - estrada(runner).value
    matches = None if predicted is None else _canonical_key(predicted) == leader
    return ExtremalReport(
        descriptor, False, scanned, partial.count, duration, predicted,
        maximizer, max_ee, runner_gap, unique, undecided, matches,
        near_tie_count=sum(e[3] for e in partial.halo))


def Pool(processes: int):
    """``multiprocessing.Pool``, imported by the first pooled scan, so that
    a serial run never loads ``multiprocessing``."""
    from multiprocessing import Pool as pool
    return pool(processes=processes)


def _default_values(n: int) -> list[int]:
    return list(range(1, n // 2 + 1))


def find_maximizers(kind: str, n: int, values: Sequence[int] | None = None,
                    workers: int = 1) -> list[ExtremalReport]:
    """Scan the order-``n`` stream once and report every requested class.

    One enumeration pass feeds all class values of the same kind, so the
    invariants are computed once per scanned orbit representative.
    """
    if not 2 <= n <= N_HARD_MAX:
        raise ValueError(f"order must be in 2..{N_HARD_MAX}")
    if values is None:
        values = _default_values(n)
    values = list(values)
    descriptors = [ClassDescriptor(kind, n, v) for v in values]

    tasks = []
    scanned = 0
    for a in range(1, n // 2 + 1):
        b = n - a
        scanned += 1 << (a * b)
        total = len(_prefixes(a, b)[0])
        for lo in range(0, total, PREFIXES_PER_TASK):
            tasks.append((kind, n, a, lo, min(lo + PREFIXES_PER_TASK, total),
                          tuple(values)))

    started = time.perf_counter()
    merged = {value: _Partial() for value in values}
    with Pool(processes=min(workers, len(tasks))) if workers > 1 else nullcontext() as pool:
        results = map(_scan_batch, tasks) if pool is None else pool.imap(_scan_batch, tasks)
        for result in results:
            for value, part in result.items():
                merged[value].merge(part)
    duration = time.perf_counter() - started

    return [_finalize(d, merged[d.value], scanned, duration) for d in descriptors]
