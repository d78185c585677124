"""Closed-form spectral analysis of the apex join family.

For the family built by :func:`bipartite_estrada.families.join_family`, the
nonzero eigenvalues are the roots of a biquadratic: ``x**4 - c2*x**2 + c0``
with ``c2 = s + p*q + p*s`` and ``c0 = p*q*s``.  This module extracts the
positive roots stably, evaluates the closed-form index, and implements the
three pairwise index comparisons used by the extremal characterisation.
Each verdict is decided by one exact integer witness; the float indices
``lhs`` and ``rhs`` are only displayed, and a display index beyond the
float range is written empty (``None``), with its ``gap``.

One lemma proves all three comparisons.  With ``t = x**2``, the squared
roots ``t1 >= t2 >= 0`` are the roots of ``g(t) = t**2 - c2*t + c0``, and an
apex join on ``n`` vertices has index ``n - 4 + 2f(t1) + 2f(t2)``, where
``f(t) = cosh(sqrt(t)) = sum t**k / (2k)!`` is increasing and strictly
convex on ``t >= 0``.  ``K_{s,n-s}`` is the case ``t1 = s(n-s)``, ``t2 = 0``.

Lemma.  Take two such graphs of one order; a prime marks the second one's
quantities, except on ``f``, whose ``f'`` is its derivative.  If
``t1' > t1`` and ``c2' >= c2``, the second index is strictly larger.
(``g'(t1) < 0`` gives ``t1' > t1``: ``t1`` then lies strictly between the
roots of ``g'``.)  Write ``d1 = t1' - t1 > 0`` and ``d2 = t2' - t2``, so
``d1 + d2 = c2' - c2 >= 0``.  By the tangent bound of a convex function and
``f'(t1) >= f'(t2) > 0``, half the index difference is at least
``f'(t1) d1 + f'(t2) d2 >= f'(t2) (d1 + d2) >= 0``, and the first step is
strict because ``f`` is strictly convex and ``d1 != 0``.

* Lemma 4.1, side swap ``(p, q, s) -> (q + s, p - s, s)`` at
  ``s <= p < q + s``: ``c2' = c2`` and ``c0 - c0' = s**2 (q + s - p) > 0``,
  so ``t1`` rises.  The witness ``s**2 (q + s - p)`` is positive at every
  applicable point.
* Lemma 4.2, transfer ``(p, q, s) -> (p - 1, q + 1, s)`` at
  ``p > q + s + 1``, ``q > 0``: with ``r = p - q - 1 - s >= 1``,
  ``c2' = c2 + r`` and ``g'(t1) = (r + s) s - r t1``.  At
  ``u = s (r + s) / r``, ``r**2 g(u) = s**2 [s (r + s) - p r (p - 1)]``,
  which is negative because ``p - 1 >= r + s`` and ``p > s``.  So
  ``t1 > u`` and ``g'(t1) < 0``: :func:`transfer_root_shift_sign` is ``-1``
  at every applicable point.
* Lemma 4.3, ``K_{s,n-s}`` against the join on ``(n - s - 2, 1, s)``:
  ``c2' = c2 + n - 2s - 2`` and ``g'(s(n - s)) = -s((n - 2s - 3)(n - s) + 2)``,
  negative at the applicable points with ``n >= 2s + 3``, where the join
  wins.  At ``n = 2s + 2`` the witness is ``+s**2`` and ``c2' = c2``, so
  the lemma with the two graphs exchanged makes the complete split win:
  the stated strict inequality is false there, and provably so.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def _coefficients(p: int, q: int, s: int) -> tuple[int, int]:
    """``(c2, c0)`` of the biquadratic ``x**4 - c2 x**2 + c0`` at ``(p, q, s)``."""
    return s + p * q + p * s, p * q * s


def _roots(p: int, q: int, s: int) -> tuple[float, float]:
    """``(x1, x2)``, the positive roots of ``x**4 - c2 x**2 + c0``, evaluated
    stably.

    The larger squared root uses the explicit formula; the smaller one is
    recovered as ``c0 / t1`` to avoid cancellation when ``c0 << c2**2``.
    """
    if s < 1 or p < 1 or q < 0:
        raise ValueError("require s >= 1, p >= 1, q >= 0")
    c2, c0 = _coefficients(p, q, s)
    disc = c2 * c2 - 4 * c0
    if disc < 0:
        raise AssertionError("biquadratic discriminant cannot be negative here")
    t1 = (c2 + math.sqrt(disc)) / 2.0
    t2 = c0 / t1 if t1 > 0 else 0.0
    return math.sqrt(t1), math.sqrt(t2)


def complete_bipartite_ee(n1: int, n2: int) -> float:
    """Closed-form index of ``K_{n1,n2}``: ``n1+n2-2+2cosh(sqrt(n1*n2))``."""
    if n1 < 0 or n2 < 0 or n1 + n2 < 1:
        raise ValueError("need nonnegative sides and at least one vertex")
    if n1 == 0 or n2 == 0:
        return float(n1 + n2)  # empty graph
    return _finite(n1 + n2 - 2 + 2.0 * math.cosh(math.sqrt(n1 * n2)))


def ee_closed_form(p: int, q: int, s: int) -> float:
    """Closed-form index of the apex join family on ``s + p + q + 1`` vertices:
    ``n - 4 + 2cosh(x1) + 2cosh(x2)``."""
    x1, x2 = _roots(p, q, s)
    n = s + p + q + 1
    return _finite(n - 4 + 2.0 * math.cosh(x1) + 2.0 * math.cosh(x2))


def _finite(index: float) -> float:
    """``index``, or ``OverflowError`` when it is not finite.  ``math.cosh``
    raises only above 710.48, but ``2 cosh(x)`` is already ``inf`` from
    709.78 on."""
    if math.isinf(index):
        raise OverflowError("index exceeds the float range")
    return index


def quartic_value_at_integer_square(x_squared: int, p: int, q: int, s: int) -> int:
    """Exact value of ``g(x) = x^4 - x^2 c2 + c0`` when ``x^2`` is an integer."""
    c2, c0 = _coefficients(p, q, s)
    return x_squared * x_squared - x_squared * c2 + c0


def _sign_p_plus_q_sqrt(p_int: int, q_int: int, d: int) -> int:
    """Exact sign of ``p_int + q_int * sqrt(d)`` for integer d >= 0."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if q_int == 0 or d == 0:
        return (p_int > 0) - (p_int < 0)
    if q_int > 0:
        if p_int >= 0:
            return 1
        # p < 0: compare q^2 d with p^2
        lhs, rhs = q_int * q_int * d, p_int * p_int
        return (lhs > rhs) - (lhs < rhs)
    if p_int <= 0:
        return -1
    lhs, rhs = p_int * p_int, q_int * q_int * d
    return (lhs > rhs) - (lhs < rhs)


def transfer_root_shift_sign(p: int, q: int, s: int) -> int:
    """Exact sign of ``g(x1; p-1, q+1, s)`` where x1 is the larger root for
    ``(p, q, s)``.

    With ``r = p - q - 1 - s`` the shift raises ``c2`` by ``r`` and ``c0`` by
    ``s (r + s)``, so at ``t1 = x1**2 = (c2 + sqrt(disc)) / 2`` the value is
    ``(r + s) s - r t1``: half of ``2 (r + s) s - r c2 - r sqrt(disc)``,
    whose sign is decided without floating point.
    """
    c2, c0 = _coefficients(p, q, s)
    r = p - q - 1 - s
    return _sign_p_plus_q_sqrt(2 * (r + s) * s - r * c2, -r, c2 * c2 - 4 * c0)


class ComparisonVerdict(NamedTuple):
    """Result of one closed-form index comparison at a parameter point.

    The first ten fields are the columns of the ``compare`` CSV, in order;
    the parameters a comparison does not use, and the display indices
    beyond the float range, are ``None``.
    """

    name: str
    n: int | None
    s: int
    p: int | None
    q: int | None
    lhs: float | None = None
    rhs: float | None = None
    gap: float | None = None     # rhs - lhs
    holds: bool | None = None    # decided by an exact integer witness
    sign_value: int | None = None   # exact integer sign witness, when one exists
    applicable: bool = True
    reason: str | None = None

    @property
    def params(self) -> dict:
        """The arguments of the comparison function, by name, in its order."""
        if self.n is None:
            return {"p": self.p, "q": self.q, "s": self.s}
        return {"n": self.n, "s": self.s}


def _side_swap_blocker(p: int, q: int, s: int) -> str | None:
    """Why :func:`side_swap_gain` is not applicable at ``(p, q, s)``, or
    ``None`` when it is."""
    if s < 1 or p < 1 or q < 0:
        return "require s>=1, p>=1, q>=0"
    if p < s:
        return "swapped block needs p >= s"
    if not p < q + s:
        return "requires p < q + s"
    return None


def side_swap_gain(p: int, q: int, s: int) -> ComparisonVerdict:
    """Strict index gain of swapping the block ``K_{p,q}`` to ``K_{q+s,p-s}``.

    Applicable when ``p < q + s`` (and ``p >= s`` so the swapped block
    exists).  ``holds`` is the exact witness ``s**2 (q + s - p)``, the fall
    of ``c0``, being positive.
    """
    reason = _side_swap_blocker(p, q, s)
    if reason is not None:
        return ComparisonVerdict("side-swap", None, s, p, q, applicable=False,
                                 reason=reason)
    try:
        lhs = ee_closed_form(p, q, s)
        rhs = ee_closed_form(q + s, p - s, s)
        gap = rhs - lhs
    except OverflowError:
        lhs = rhs = gap = None
    return ComparisonVerdict("side-swap", None, s, p, q, lhs, rhs, gap,
                             s * s * (q + s - p) > 0)


def _transfer_blocker(p: int, q: int, s: int) -> str | None:
    """Why :func:`transfer_gain` is not applicable at ``(p, q, s)``, or
    ``None`` when it is."""
    if s < 1 or p < 1 or q < 0:
        return "require s>=1, p>=1, q>=0"
    if not (p > q + s + 1 and q > 0):
        return "requires p > q+s+1 and q > 0"
    return None


def transfer_gain(p: int, q: int, s: int) -> ComparisonVerdict:
    """Strict index gain of moving one vertex: ``K_{p,q}`` to ``K_{p-1,q+1}``.

    Applicable when ``p > q + s + 1`` and ``q > 0``.  ``holds`` is the
    exact root-shift sign ``sign_value`` being negative.
    """
    reason = _transfer_blocker(p, q, s)
    if reason is not None:
        return ComparisonVerdict("transfer", None, s, p, q, applicable=False,
                                 reason=reason)
    try:
        lhs = ee_closed_form(p, q, s)
        rhs = ee_closed_form(p - 1, q + 1, s)
        gap = rhs - lhs
    except OverflowError:
        lhs = rhs = gap = None
    sign = transfer_root_shift_sign(p, q, s)
    return ComparisonVerdict("transfer", None, s, p, q, lhs, rhs, gap,
                             sign < 0, sign)


def _complete_split_blocker(n: int, s: int) -> str | None:
    """Why :func:`complete_split_deficit` is not applicable at ``(n, s)``, or
    ``None`` when it is."""
    ceil_half = -(-(n - 1) // 2)
    if not 1 <= s <= ceil_half - 1:
        return "requires 1 <= s <= ceil((n-1)/2) - 1"
    if n - s - 2 < 1:
        return "join block needs n - s - 2 >= 1"
    return None


def complete_split_deficit(n: int, s: int) -> ComparisonVerdict:
    """Compare ``K_{s,n-s}`` with the apex join on ``K_{n-s-2,1}``.

    Applicable for ``1 <= s <= ceil((n-1)/2) - 1``.  The claimed strict
    inequality says the complete split loses; ``holds`` is the exact
    integer ``sign_value = -s((n-2s-3)(n-s)+2)`` being negative.  At
    ``n = 2s + 2`` it is ``+s**2`` and the complete split wins.
    """
    reason = _complete_split_blocker(n, s)
    if reason is not None:
        return ComparisonVerdict("complete-split", n, s, None, None,
                                 applicable=False, reason=reason)
    try:
        lhs = complete_bipartite_ee(s, n - s)
        rhs = ee_closed_form(n - s - 2, 1, s)
        gap = rhs - lhs
    except OverflowError:
        lhs = rhs = gap = None
    sign_value = -s * ((n - 2 * s - 3) * (n - s) + 2)
    if quartic_value_at_integer_square(s * (n - s), n - s - 2, 1, s) != sign_value:
        raise AssertionError("exact quartic evaluation disagrees with the factored form")
    return ComparisonVerdict("complete-split", n, s, None, None, lhs, rhs,
                             gap, sign_value < 0, sign_value)


# comparison identifiers accepted by the CLI
CLI_LEMMAS = {"4.1": "side-swap", "4.2": "transfer", "4.3": "complete-split"}


def sweep(comparison: str, *, max_p: int = 12, max_q: int = 12, max_s: int = 12,
          max_n: int = 40) -> list[ComparisonVerdict]:
    """All applicable verdicts of one comparison over a parameter grid.

    A verdict is built only where the comparison is applicable.
    """
    slices, ps = range(1, max_s + 1), range(1, max_p + 1)
    if comparison == "side-swap":
        return [side_swap_gain(p, q, s) for s in slices for p in ps
                for q in range(max_q + 1) if _side_swap_blocker(p, q, s) is None]
    if comparison == "transfer":
        return [transfer_gain(p, q, s) for s in slices for p in ps
                for q in range(1, max_q + 1) if _transfer_blocker(p, q, s) is None]
    if comparison == "complete-split":
        return [complete_split_deficit(n, s) for n in range(4, max_n + 1)
                for s in slices if _complete_split_blocker(n, s) is None]
    raise ValueError(f"unknown comparison {comparison!r}")
