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

Every exact quantity comes from one primitive, the characteristic
polynomial of a symmetric integer matrix ``S``.  For a bipartite graph ``S``
is the Gram matrix ``B B^T`` of its biadjacency matrix ``B`` over the smaller
colour class: odd moments vanish and ``M_2j = 2 tr((B B^T)^j)`` for
``j >= 1``, while ``M_0 = n`` (Cvetkovic, Doob and Sachs, *Spectra of
Graphs*).  Other graphs take ``S = A``.  The polynomial comes from the power
traces ``tr(S^j)``, ``j <= d`` (``d`` the order of ``S``), taken modulo
primes below ``2^20`` in int64 and joined by the Chinese remainder theorem
under Newton's identities; a bound on the coefficients fixes how many primes.
It gives the rank of ``S`` and, by Newton's identities in Python integers
(Cayley-Hamilton past ``d``), every trace.
"""

from __future__ import annotations

import functools
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


def _trace_kernel(g: Graph) -> tuple[np.ndarray, bool]:
    """The symmetric integer matrix ``S`` whose power traces give the moments.

    For a bipartite graph ``S = B B^T`` over the smaller colour class (any
    proper colouring gives the same traces, since ``tr((B B^T)^j) =
    tr((B^T B)^j)``), with entries ``(rows[u] & rows[v]).bit_count()``;
    otherwise ``S = A``.  The flag says which.
    """
    split = find_bipartition(g)
    if split is None:
        return np.array(g.adjacency_int_rows(), dtype=np.int64), False
    rows = [g.rows[u] for u in sorted(min(split.side_x, split.side_y, key=len))]
    # reshape keeps the Gram matrix of an empty class (edgeless graphs) 0 x 0
    gram = np.array([[(r & t).bit_count() for t in rows] for r in rows],
                    dtype=np.int64).reshape(len(rows), len(rows))
    return gram, True


# primes below 2^20: a product of two residues summed over d <= 62 terms stays
# below 2^46, so a matrix product modulo any of them is exact in int64; their
# product exceeds twice the coefficient bound of every graph with n <= 62
_PRIMES = (1048573, 1048571, 1048559, 1048549, 1048517, 1048507, 1048447,
           1048433, 1048423, 1048391)


def _coefficient_bound(s: np.ndarray, bipartite: bool) -> int:
    """An integer ``b`` with ``|e_k| <= b`` for every coefficient of ``S``.

    ``e_k`` is the sum of the ``C(d, k)`` principal ``k x k`` minors of ``S``.
    The Gram matrix is positive semidefinite, so Maclaurin's inequality
    gives ``e_k <= C(d, k) (t_1 / d)^k`` with ``t_1 = tr(S) = m``.  For
    ``S = A`` each minor has 0/1 rows of at most ``Delta`` ones, so
    Hadamard's inequality gives ``|e_k| <= C(d, k) Delta^(k/2)``.
    """
    d = len(s)
    if bipartite:
        t1 = int(s.trace())
        return max(-(-math.comb(d, k) * t1 ** k // d ** k) for k in range(d + 1))
    delta = int(s.sum(axis=1).max())
    return max(math.comb(d, k) * (math.isqrt(delta ** k) + 1)
               for k in range(d + 1))


@functools.lru_cache(maxsize=1)
def _char_poly(g: Graph) -> tuple[tuple[int, ...], bool]:
    """Coefficients ``e_0 .. e_d`` of the trace kernel ``S`` of order ``d``,
    with the kernel flag.

    ``e_k`` is the k-th elementary symmetric function of the eigenvalues of
    ``S``, so ``det(xI - S) = sum (-1)^k e_k x^(d-k)``.  The power traces
    ``tr(S^j)``, ``j <= d``, are taken modulo the first ``r`` primes of
    ``_PRIMES`` in one batched int64 product per step: with ``P_i = S^i``
    and symmetric ``S``, ``tr(S^(2i)) = sum(P_i * P_i)`` and
    ``tr(S^(2i+1)) = sum(P_i * P_(i+1))``, so about ``d / 2`` products are
    taken.  The Chinese remainder theorem joins the residues modulo the
    product ``P`` of the primes, and Newton's identities
    ``k e_k = sum_{i=1..k} (-1)^(i-1) e_(k-i) t_i`` run modulo ``P``: every
    ``k <= d`` is below each prime, so it is invertible.  ``r`` is the least
    count with ``P > 2 b`` for the bound ``b`` of ``_coefficient_bound``, so
    the symmetric residue of each ``e_k`` is ``e_k`` itself.

    ``compute`` asks for the polynomial of one graph twice, for the nullity
    and for the moment series; the one-entry cache shares it.
    """
    s, bipartite = _trace_kernel(g)
    d = len(s)
    limit = 2 * _coefficient_bound(s, bipartite)
    modulus, r = 1, 0
    while modulus <= limit:
        modulus *= _PRIMES[r]
        r += 1
    primes = np.array(_PRIMES[:r], dtype=np.int64)
    base = s % primes[:, None, None]
    power = np.broadcast_to(np.identity(d, dtype=np.int64), base.shape)
    residues = []  # residues[j - 1][i] = tr(S^j) mod primes[i]
    for j in range(1, d + 1):
        if j % 2:
            previous, power = power, power @ base % primes[:, None, None]
            residues.append((previous * power).sum(axis=(1, 2)) % primes)
        else:
            residues.append((power * power).sum(axis=(1, 2)) % primes)
    # CRT basis: basis[i] is 1 modulo primes[i] and 0 modulo the others
    basis = [modulus // p * pow(modulus // p, -1, p) for p in _PRIMES[:r]]
    traces = [sum(int(x) * c for x, c in zip(row, basis)) for row in residues]
    e = [1]
    for k in range(1, d + 1):
        total = sum(e[k - i] * traces[i - 1] * (1 if i % 2 else -1)
                    for i in range(1, k + 1))
        e.append(total * pow(k, -1, modulus) % modulus)
    return tuple(c - modulus if 2 * c > modulus else c for c in e), bipartite


def nullity_exact(g: Graph) -> int:
    """Multiplicity of eigenvalue zero, from the exact characteristic polynomial.

    ``S`` is symmetric, so its rank is the largest ``k`` with ``e_k != 0``.
    A bipartite graph has ``rank(A) = 2 rank(B) = 2 rank(B B^T)``.
    """
    e, bipartite = _char_poly(g)
    rank = max(k for k, c in enumerate(e) if c)
    return g.n - (2 * rank if bipartite else rank)


def _moment_run(g: Graph, k_max: int) -> list[int]:
    """Exact closed-walk counts ``M_0 .. M_k_max``, ``M_k = tr(A^k)``.

    A bipartite graph has ``A = [[0, B], [B^T, 0]]``, so every odd moment is
    0 and ``M_2j = 2 tr((B B^T)^j)`` for ``j >= 1``; ``M_0 = n``, not twice
    the size of the Gram matrix's colour class.  Other graphs take the traces
    of ``A`` itself.  The traces ``t_k = tr(S^k)`` come from the
    characteristic polynomial of ``S`` by Newton's identities,
    ``t_k = sum_{i=1..k-1} (-1)^(i-1) e_i t_(k-i) + (-1)^(k-1) k e_k``, with
    ``e_k = 0`` for ``k > d``; past ``d`` this is Cayley-Hamilton.
    """
    e, bipartite = _char_poly(g)
    d = len(e) - 1
    traces = [d]
    for k in range(1, (k_max // 2 if bipartite else k_max) + 1):
        total = sum(e[i] * traces[k - i] * (1 if i % 2 else -1)
                    for i in range(1, min(k - 1, d) + 1))
        if k <= d:
            total += k * e[k] * (1 if k % 2 else -1)
        traces.append(total)
    if not bipartite:
        return traces
    moments = [g.n] + [0] * k_max
    moments[2::2] = [2 * t for t in traces[1:]]
    return moments


def moment_series(g: Graph, k_max: int) -> MomentSeries:
    if not 0 <= k_max <= MOMENT_BUDGET:
        raise ValueError(f"moment cutoff must be in 0..{MOMENT_BUDGET}")
    return MomentSeries(tuple(_moment_run(g, k_max)), k_max)


def _series_cutoff(n: int, lam_bound: float) -> tuple[int, float]:
    """Smallest K with tail bound ``n * lam^(K+1) * e^lam / (K+1)!`` below
    ``SERIES_TARGET``, and that bound."""
    if lam_bound <= 0:
        return 0, 0.0
    log_target = math.log(SERIES_TARGET)
    k = 1
    while True:
        log_bound = (math.log(n) + (k + 1) * math.log(lam_bound) + lam_bound
                     - math.lgamma(k + 2))
        if log_bound < log_target:
            return k, math.exp(log_bound)
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


def estrada(g: Graph, method: str = "eigen") -> EstradaValue:
    """Estrada index by the requested method.

    ``cosh`` is only defined for bipartite graphs.  ``moment-series`` reports
    a rigorous truncation bound computed from the max-degree bound on the
    spectral radius; the cutoff is chosen so the bound is below
    ``SERIES_TARGET``.
    """
    if method == "eigen":
        return EstradaValue(_exp_sum(_spectrum(g)), "eigen")
    if method == "cosh":
        if find_bipartition(g) is None:
            raise ValueError("the cosh identity requires a bipartite graph")
        return EstradaValue(index_from_spectrum(eigenvalues(g), "cosh"), "cosh")
    if method == "moment-series":
        cutoff, bound = _series_cutoff(g.n, float(g.max_degree()))
        moments = _moment_run(g, cutoff)
        acc = Fraction(0)
        factorial = 1
        for k, m_k in enumerate(moments):
            if k > 0:
                factorial *= k
            acc += Fraction(m_k, factorial)
        return EstradaValue(float(acc), "moment-series", bound)
    raise ValueError(f"unknown method {method!r}")
