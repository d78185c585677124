"""Closed-form spectral analysis of the apex join family.

For the family built by :func:`bipartite_estrada.families.join_family`, the
nonzero eigenvalues are the roots of a biquadratic: ``x**4 - c2*x**2 + c0``
with ``c2 = s + p*q + p*s`` and ``c0 = p*q*s``.  This module extracts the
positive roots stably, evaluates the closed-form index, and implements the
three pairwise index comparisons used by the extremal characterisation.
Sign claims about the quartic are evaluated in exact integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class QuarticForm:
    """Coefficients and positive roots of the family's biquadratic."""

    p: int
    q: int
    s: int
    c2: int           # coefficient of -x**2
    c0: int           # constant term
    x1: float         # larger positive root
    x2: float         # smaller positive root (0 when q == 0)


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


def quartic_roots(p: int, q: int, s: int) -> QuarticForm:
    """Coefficients and positive roots of the biquadratic at ``(p, q, s)``."""
    x1, x2 = _roots(p, q, s)
    return QuarticForm(p, q, s, *_coefficients(p, q, s), x1, x2)


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

    With ``t1 = (c2 + sqrt(D))/2`` the value is ``(P + Q sqrt(D)) / 4`` for
    integers ``P = c2^2 + D - 2 c2 c2' + 4 c0'`` and ``Q = 2 (c2 - c2')``,
    so the sign is decided without floating point.
    """
    c2, c0 = _coefficients(p, q, s)
    d = c2 * c2 - 4 * c0
    c2_shift, c0_shift = _coefficients(p - 1, q + 1, s)
    p_int = c2 * c2 + d - 2 * c2 * c2_shift + 4 * c0_shift
    q_int = 2 * (c2 - c2_shift)
    return _sign_p_plus_q_sqrt(p_int, q_int, d)


class ComparisonVerdict(NamedTuple):
    """Result of one closed-form index comparison at a parameter point.

    The first ten fields are the columns of the ``compare`` CSV, in order;
    the parameters a comparison does not use are ``None``.
    """

    name: str
    n: int | None
    s: int
    p: int | None
    q: int | None
    lhs: float | None = None
    rhs: float | None = None
    gap: float | None = None     # rhs - lhs
    holds: bool | None = None
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
    exists).  Expected: strict increase.
    """
    reason = _side_swap_blocker(p, q, s)
    if reason is not None:
        return ComparisonVerdict("side-swap", None, s, p, q, applicable=False,
                                 reason=reason)
    lhs = ee_closed_form(p, q, s)
    rhs = ee_closed_form(q + s, p - s, s)
    return ComparisonVerdict("side-swap", None, s, p, q, lhs, rhs, rhs - lhs,
                             lhs < rhs)


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

    Applicable when ``p > q + s + 1`` and ``q > 0``.  Expected: strict
    increase; the exact root-shift sign must be negative.
    """
    reason = _transfer_blocker(p, q, s)
    if reason is not None:
        return ComparisonVerdict("transfer", None, s, p, q, applicable=False,
                                 reason=reason)
    lhs = ee_closed_form(p, q, s)
    rhs = ee_closed_form(p - 1, q + 1, s)
    sign = transfer_root_shift_sign(p, q, s)
    return ComparisonVerdict("transfer", None, s, p, q, lhs, rhs, rhs - lhs,
                             lhs < rhs, sign)


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
    inequality says the complete split loses; ``sign_value`` carries the
    exact integer ``-s((n-2s-3)(n-s)+2)``, which the claim needs to be
    negative.  Both the inequality and the sign fail when ``n = 2s + 2``.
    """
    reason = _complete_split_blocker(n, s)
    if reason is not None:
        return ComparisonVerdict("complete-split", n, s, None, None,
                                 applicable=False, reason=reason)
    lhs = complete_bipartite_ee(s, n - s)
    rhs = ee_closed_form(n - s - 2, 1, s)
    sign_value = -s * ((n - 2 * s - 3) * (n - s) + 2)
    if quartic_value_at_integer_square(s * (n - s), n - s - 2, 1, s) != sign_value:
        raise AssertionError("exact quartic evaluation disagrees with the factored form")
    return ComparisonVerdict("complete-split", n, s, None, None, lhs, rhs,
                             rhs - lhs, lhs < rhs, sign_value)


# comparison identifiers accepted by the CLI
CLI_LEMMAS = {"4.1": "side-swap", "4.2": "transfer", "4.3": "complete-split"}


def _slice_corners(comparison: str, max_p: int, max_q: int, max_s: int,
                   max_n: int) -> list[ComparisonVerdict]:
    """The verdict at the largest point of each ``s`` of the grid.

    Every index compares graphs of the apex join family or ``K_{s,n-s}``,
    and each member is an induced subgraph of the member with ``p``, ``q``
    or ``n`` one larger, so no index falls as they grow.  For fixed ``s``
    the applicable points have ``p <= min(max_p, q + s - 1)`` (side-swap)
    or ``q <= min(max_q, p - s - 2)`` (transfer), and complete-split is
    applicable at ``max_n`` if it is at any ``n``.  So the point evaluated
    here is applicable when any point of its ``s`` is, and no index of
    that ``s`` exceeds its indices.
    """
    slices = range(1, max_s + 1)
    if comparison == "side-swap":
        return [side_swap_gain(min(max_p, max_q + s - 1), max_q, s) for s in slices]
    if comparison == "transfer":
        return [transfer_gain(max_p, min(max_q, max_p - s - 2), s) for s in slices]
    if comparison == "complete-split":
        return [complete_split_deficit(max_n, s) for s in slices]
    raise ValueError(f"unknown comparison {comparison!r}")


def sweep(comparison: str, *, max_p: int = 12, max_q: int = 12, max_s: int = 12,
          max_n: int = 40) -> list[ComparisonVerdict]:
    """All applicable verdicts of one comparison over a parameter grid.

    The largest point of each ``s`` is evaluated first, so an index beyond
    the float range raises ``OverflowError`` before the grid is swept.
    Then a verdict is built only where the comparison is applicable.
    """
    _slice_corners(comparison, max_p, max_q, max_s, max_n)
    slices, ps = range(1, max_s + 1), range(1, max_p + 1)
    if comparison == "side-swap":
        return [side_swap_gain(p, q, s) for s in slices for p in ps
                for q in range(max_q + 1) if _side_swap_blocker(p, q, s) is None]
    if comparison == "transfer":
        return [transfer_gain(p, q, s) for s in slices for p in ps
                for q in range(1, max_q + 1) if _transfer_blocker(p, q, s) is None]
    return [complete_split_deficit(n, s) for n in range(4, max_n + 1) for s in slices
            if _complete_split_blocker(n, s) is None]
