"""Eigenvalues, exact spectral moments, and the Estrada index three ways.

The index of a graph is the sum of the exponentials of its adjacency
eigenvalues.  Three evaluation routes are provided:

* ``eigen``: ``sum exp`` over the spectrum from LAPACK ``eigvalsh``, the
  one float eigensolver (``verify`` takes its payload floats from it too);
* ``cosh``: the bipartite identity ``n0 + 2 * sum cosh(positive eigenvalues)``
  with the nullity ``n0`` read off the exact integer characteristic
  polynomial, never from floats;
* ``moment-series``: the truncated series ``sum M_k / k!`` over exact integer
  closed-walk counts, with a rigorous tail bound.

Every exact quantity comes from one primitive, the power traces
``tr(S^j)`` of a symmetric integer matrix ``S``.  For a bipartite graph ``S``
is the Gram matrix ``B B^T`` of its biadjacency matrix ``B`` over the smaller
colour class: odd moments vanish and ``M_2j = 2 tr((B B^T)^j)`` for
``j >= 1``, while ``M_0 = n`` (Cvetkovic, Doob and Sachs, *Spectra of
Graphs*).  Other graphs take ``S = A``.  Newton's identities turn the traces
``j <= d`` (``d`` the order of ``S``) into the characteristic polynomial,
which gives the rank of ``S`` and, by Cayley-Hamilton, every later trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graph import Graph, find_bipartition

SPECTRUM_TOLERANCE = 1e-12
"""Absolute accuracy to which the tests hold every float eigenvalue, against
closed forms and exact power sums; ``compute`` reports it as ``tolerance``."""
MOMENT_BUDGET = 64
SERIES_TARGET = 1e-10


@dataclass(frozen=True)
class SpectrumResult:
    """Descending eigenvalue list with exact nullity."""

    eigenvalues: tuple[float, ...]
    nullity: int


@dataclass(frozen=True)
class MomentSeries:
    """Exact closed-walk counts ``M_0 .. M_k_max`` (arbitrary precision)."""

    moments: tuple[int, ...]
    k_max: int


@dataclass(frozen=True)
class EstradaValue:
    value: float
    method: str
    error_bound: float | None = None


def _spectrum(g: Graph) -> np.ndarray:
    """The adjacency spectrum in ascending order, by one LAPACK ``eigvalsh``."""
    return np.linalg.eigvalsh(g.adjacency_matrix())


def _exp_sum(ascending: np.ndarray) -> float:
    """The ``eigen`` index ``sum exp(lambda)`` of an ascending spectrum:
    ``np.exp`` over the array, then its ``.sum()``.  ``compute`` and
    ``verify`` both sum here, so they round alike."""
    return float(np.exp(ascending).sum())


def eigenvalues(g: Graph) -> SpectrumResult:
    """Adjacency spectrum sorted descending, with exact nullity.

    The nullity comes from the exact characteristic polynomial and is never
    read off the float spectrum.
    """
    return SpectrumResult(tuple(float(x) for x in _spectrum(g)[::-1]),
                          nullity_exact(g))


def _power_traces(s: np.ndarray, jmax: int) -> list[int]:
    """``tr(S^j)`` for ``j = 0..jmax`` of a symmetric object-dtype integer matrix.

    With ``P_i = S^i`` and symmetric ``S``, ``tr(S^(2i)) = sum(P_i * P_i)`` and
    ``tr(S^(2i+1)) = sum(P_i * P_(i+1))`` (elementwise products), so only the
    two powers in flight are held and about ``jmax / 2`` products are taken.
    """
    power = np.identity(len(s), dtype=object)
    traces = []
    for j in range(jmax + 1):
        if j % 2:
            previous, power = power, power @ s
            traces.append(int((previous * power).sum()))
        else:
            traces.append(int((power * power).sum()))
    return traces


def _trace_kernel(g: Graph) -> tuple[np.ndarray, bool]:
    """The symmetric integer matrix ``S`` whose power traces give the moments.

    For a bipartite graph ``S = B B^T`` over the smaller colour class (any
    proper colouring gives the same traces, since ``tr((B B^T)^j) =
    tr((B^T B)^j)``), with entries ``(rows[u] & rows[v]).bit_count()``;
    otherwise ``S = A``.  The flag says which.
    """
    split = find_bipartition(g)
    if split is None:
        return np.array(g.adjacency_int_rows(), dtype=object), False
    rows = [g.rows[u] for u in sorted(min(split.side_x, split.side_y, key=len))]
    # reshape keeps the Gram matrix of an empty class (edgeless graphs) 0 x 0
    gram = np.array([[(r & t).bit_count() for t in rows] for r in rows],
                    dtype=object).reshape(len(rows), len(rows))
    return gram, True


_last_run: list = [None, None, False, []]  # graph, S, flag, traces


def _kernel_traces(g: Graph, k_max: int) -> tuple[list[int], bool, int]:
    """``tr(S^j)`` for ``j <= min(jmax, d)`` of the graph's trace kernel
    ``S`` of order ``d``, with the kernel flag and ``d``; ``jmax`` is
    ``k_max // 2`` for a bipartite graph (its odd moments vanish), else
    ``k_max``.

    The longest run of the last graph asked for is kept.  ``compute`` takes
    the nullity (every trace up to ``d``) and then the moment series of the
    same graph, so it multiplies the traces out once.  Every value depends
    on ``g`` alone, so the kept run changes no result.
    """
    if _last_run[0] != g:
        s, bipartite = _trace_kernel(g)
        _last_run[:] = [g, s, bipartite, []]
    _, s, bipartite, traces = _last_run
    jmax = min(k_max // 2 if bipartite else k_max, len(s))
    if len(traces) <= jmax:
        traces = _last_run[3] = _power_traces(s, jmax)
    return traces[:jmax + 1], bipartite, len(s)


def _char_poly(traces: list[int]) -> list[int]:
    """Coefficients ``e_0 .. e_j`` from power traces ``t_0 .. t_j``.

    ``e_k`` is the k-th elementary symmetric function of the eigenvalues, so
    ``det(xI - S) = sum (-1)^k e_k x^(d-k)``; Newton's identities
    ``k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) t_i`` divide exactly.
    """
    e = [1]
    for k in range(1, len(traces)):
        total = sum(e[k - i] * traces[i] * (1 if i % 2 else -1)
                    for i in range(1, k + 1))
        e.append(total // k)
    return e


def nullity_exact(g: Graph) -> int:
    """Multiplicity of eigenvalue zero, from the exact characteristic polynomial.

    ``S`` is symmetric, so its rank is the largest ``k`` with ``e_k != 0``.
    A bipartite graph has ``rank(A) = 2 rank(B) = 2 rank(B B^T)``.
    """
    traces, bipartite, _ = _kernel_traces(g, 2 * g.n)
    e = _char_poly(traces)
    rank = max(k for k, c in enumerate(e) if c)
    return g.n - (2 * rank if bipartite else rank)


def _moment_run(g: Graph, k_max: int) -> list[int]:
    """Exact closed-walk counts ``M_0 .. M_k_max``, ``M_k = tr(A^k)``.

    A bipartite graph has ``A = [[0, B], [B^T, 0]]``, so every odd moment is
    0 and ``M_2j = 2 tr((B B^T)^j)`` for ``j >= 1``; ``M_0 = n``, not twice
    the size of the Gram matrix's colour class.  Other graphs take the traces
    of ``A`` itself.  Traces are multiplied out only up to the order ``d`` of
    ``S``; later ones follow from Cayley-Hamilton,
    ``t_k = sum_{i=1..d} (-1)^(i-1) e_i t_(k-i)``.
    """
    traces, bipartite, d = _kernel_traces(g, k_max)
    jmax = k_max // 2 if bipartite else k_max
    e = _char_poly(traces)
    for k in range(len(traces), jmax + 1):
        traces.append(sum(e[i] * traces[k - i] * (1 if i % 2 else -1)
                          for i in range(1, d + 1)))
    if not bipartite:
        return traces
    moments = [g.n] + [0] * k_max
    moments[2::2] = [2 * t for t in traces[1:]]
    return moments


def moment_series(g: Graph, k_max: int) -> MomentSeries:
    if not 0 <= k_max <= MOMENT_BUDGET:
        raise ValueError(f"moment cutoff must be in 0..{MOMENT_BUDGET}")
    return MomentSeries(tuple(_moment_run(g, k_max)), k_max)


def _series_cutoff(n: int, lam_bound: float, target: float) -> int:
    """Smallest K with ``n * lam^(K+1) * e^lam / (K+1)! < target``."""
    if lam_bound <= 0:
        return 0
    log_target = math.log(target)
    k = 1
    while True:
        log_bound = (math.log(n) + (k + 1) * math.log(lam_bound) + lam_bound
                     - math.lgamma(k + 2))
        if log_bound < log_target:
            return k
        k += 1
        if k > 2000:
            raise RuntimeError("series cutoff search did not terminate")


def index_from_spectrum(spectrum: SpectrumResult, method: str) -> float:
    """The index from a computed spectrum by the ``eigen`` or ``cosh`` route.

    ``cosh`` is ``n0 + 2 * sum cosh`` over the positive eigenvalues, which
    holds only when the spectrum is that of a bipartite graph.
    """
    if method == "eigen":
        return _exp_sum(np.array(spectrum.eigenvalues[::-1]))
    positive = (len(spectrum.eigenvalues) - spectrum.nullity) // 2
    total = float(spectrum.nullity)
    for x in spectrum.eigenvalues[:positive]:
        total += 2.0 * math.cosh(x)
    return total


def estrada(g: Graph, method: str = "eigen", *,
            series_target: float = SERIES_TARGET) -> EstradaValue:
    """Estrada index by the requested method.

    ``cosh`` is only defined for bipartite graphs.  ``moment-series`` reports
    a rigorous truncation bound computed from the max-degree bound on the
    spectral radius; the cutoff is chosen so the bound is below
    ``series_target``.
    """
    if method == "eigen":
        return EstradaValue(_exp_sum(_spectrum(g)), "eigen")
    if method == "cosh":
        if find_bipartition(g) is None:
            raise ValueError("the cosh identity requires a bipartite graph")
        return EstradaValue(index_from_spectrum(eigenvalues(g), "cosh"), "cosh")
    if method == "moment-series":
        lam_bound = float(g.max_degree())
        cutoff = _series_cutoff(g.n, lam_bound, series_target)
        moments = _moment_run(g, cutoff)
        acc = Fraction(0)
        factorial = 1
        for k, m_k in enumerate(moments):
            if k > 0:
                factorial *= k
            acc += Fraction(m_k, factorial)
        if lam_bound == 0:
            bound = 0.0
        else:
            bound = math.exp(math.log(g.n) + (cutoff + 1) * math.log(lam_bound)
                             + lam_bound - math.lgamma(cutoff + 2))
        return EstradaValue(float(acc), "moment-series", bound)
    raise ValueError(f"unknown method {method!r}")
