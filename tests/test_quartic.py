"""Biquadratic root extraction, closed-form index, and the comparison steps."""

import math
import random

import pytest

from bipartite_estrada import quartic
from bipartite_estrada.families import join_family
from bipartite_estrada.quartic import (_coefficients, _roots,
                                       complete_bipartite_ee,
                                       complete_split_deficit, ee_closed_form,
                                       quartic_value_at_integer_square,
                                       side_swap_gain, sweep, transfer_gain,
                                       transfer_root_shift_sign)
from bipartite_estrada.spectral import estrada, eigenvalues, nullity_exact
from oracles import (complete_bipartite_decimal, ee_decimal, ee_reference,
                     sweep_reference, transfer_root_shift_reference)

GOLDEN = (1 + math.sqrt(5)) / 2
EXACT_GRID = {"max_p": 30, "max_q": 30, "max_s": 30, "max_n": 200}
# applicable points of each comparison on EXACT_GRID
EXACT_GRID_POINTS = {"side-swap": 9455, "transfer": 3654, "complete-split": 5040}
COMPARISONS = {"side-swap": "side_swap_gain", "transfer": "transfer_gain",
               "complete-split": "complete_split_deficit"}
# c2 <= 700**2 keeps x1 = sqrt(t1) <= sqrt(c2) <= 700, inside the float range
FLOAT_C2 = 700 * 700


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestRoots:
    def test_path_roots_are_golden(self):
        x1, x2 = _roots(1, 1, 1)
        assert _coefficients(1, 1, 1) == (3, 1)
        assert x1 == pytest.approx(GOLDEN, abs=1e-12)
        assert x2 == pytest.approx(GOLDEN - 1, abs=1e-12)

    def test_no_tail_degenerates(self):
        x1, x2 = _roots(3, 0, 2)
        assert x2 == 0.0
        assert x1 == pytest.approx(math.sqrt(2 + 3 * 2), abs=1e-12)

    def test_product_is_sqrt_pqs(self):
        for p in range(1, 13):
            for q in range(0, 13):
                for s in range(1, 13):
                    x1, x2 = _roots(p, q, s)
                    assert abs(x1 * x2 - math.sqrt(p * q * s)) < 1e-10

    def test_preconditions(self):
        with pytest.raises(ValueError):
            _roots(0, 1, 1)
        with pytest.raises(ValueError):
            _roots(1, 1, 0)


class TestClosedForm:
    def test_path_value(self):
        assert ee_closed_form(1, 1, 1) == pytest.approx(
            estrada(join_family(1, 1, 1)).value, abs=1e-10)

    def test_no_tail_matches_complete_split_formula(self):
        for p in (1, 2, 5):
            for s in (1, 2, 4):
                assert ee_closed_form(p, 0, s) == pytest.approx(
                    complete_bipartite_ee(s, p + 1), abs=1e-9)

    def test_small_grid_against_eigensolver(self):
        for p in range(1, 7):
            for q in range(1, 7):
                for s in range(1, 7):
                    closed = ee_closed_form(p, q, s)
                    eigen = estrada(join_family(s, p, q)).value
                    assert _rel_close(closed, eigen, 1e-9)

    def test_nonzero_spectrum_is_quartic_small(self):
        for p in (1, 3):
            for q in (1, 2):
                for s in (1, 2):
                    g = join_family(s, p, q)
                    x1, x2 = _roots(p, q, s)
                    vals = eigenvalues(g).eigenvalues
                    assert vals[0] == pytest.approx(x1, abs=1e-8)
                    assert vals[1] == pytest.approx(x2, abs=1e-8)
                    assert vals[-1] == pytest.approx(-x1, abs=1e-8)
                    assert vals[-2] == pytest.approx(-x2, abs=1e-8)
                    assert nullity_exact(g) == g.n - 4


class TestComparisons:
    def test_side_swap_example(self):
        verdict = side_swap_gain(2, 2, 1)
        assert verdict.applicable and verdict.holds
        assert verdict.lhs == pytest.approx(estrada(join_family(1, 2, 2)).value, abs=1e-9)
        assert verdict.rhs == pytest.approx(estrada(join_family(1, 3, 1)).value, abs=1e-9)

    def test_side_swap_conditions(self):
        assert not side_swap_gain(3, 1, 1).applicable   # p >= q + s
        assert not side_swap_gain(1, 3, 2).applicable   # p < s

    def test_transfer_example(self):
        verdict = transfer_gain(4, 1, 1)
        assert verdict.applicable and verdict.holds
        assert verdict.lhs == pytest.approx(estrada(join_family(1, 4, 1)).value, abs=1e-9)
        assert verdict.rhs == pytest.approx(estrada(join_family(1, 3, 2)).value, abs=1e-9)
        assert verdict.sign_value < 0

    def test_transfer_conditions(self):
        assert not transfer_gain(3, 1, 1).applicable    # p <= q + s + 1
        assert not transfer_gain(5, 0, 1).applicable    # q = 0

    def test_transfer_sign_matches_float(self):
        for p in range(1, 9):
            for q in range(1, 9):
                for s in range(1, 9):
                    if not (p > q + s + 1 and q > 0):
                        continue
                    x = _roots(p, q, s)[0]
                    float_val = x ** 4 - x ** 2 * (s + (p - 1) * (q + 1)
                                                   + (p - 1) * s) \
                        + (p - 1) * (q + 1) * s
                    sign = transfer_root_shift_sign(p, q, s)
                    assert sign == (float_val > 0) - (float_val < 0)

    def test_complete_split_example(self):
        verdict = complete_split_deficit(7, 1)
        assert verdict.applicable and verdict.holds
        assert verdict.lhs == pytest.approx(5 + 2 * math.cosh(math.sqrt(6)), abs=1e-12)
        assert verdict.rhs == pytest.approx(estrada(join_family(1, 4, 1)).value, abs=1e-9)
        assert verdict.sign_value < 0

    def test_complete_split_even_boundary_reversal(self):
        # at n = 2s + 2 the complete split actually wins: the claimed strict
        # inequality and the negativity of the sign witness both fail
        for n, s in ((4, 1), (6, 2), (8, 3)):
            verdict = complete_split_deficit(n, s)
            assert verdict.applicable
            assert verdict.sign_value == s * s > 0
            assert not verdict.holds
            assert verdict.lhs > verdict.rhs

    def test_complete_split_conditions(self):
        assert not complete_split_deficit(5, 2).applicable
        assert not complete_split_deficit(4, 2).applicable

    def test_exact_quartic_value(self):
        assert quartic_value_at_integer_square(4, 1, 1, 1) == 16 - 12 + 1
        # factored form agreement is asserted inside complete_split_deficit
        for n in range(4, 41):
            for s in range(1, 20):
                v = complete_split_deficit(n, s)
                if v.applicable:
                    assert v.sign_value == -s * ((n - 2 * s - 3) * (n - s) + 2)


def _decimal_sides(v):
    """``(lhs, rhs)`` of a verdict in 60-digit decimal arithmetic."""
    if v.name == "side-swap":
        return ee_decimal(v.p, v.q, v.s), ee_decimal(v.q + v.s, v.p - v.s, v.s)
    if v.name == "transfer":
        return ee_decimal(v.p, v.q, v.s), ee_decimal(v.p - 1, v.q + 1, v.s)
    return (complete_bipartite_decimal(v.s, v.n - v.s),
            ee_decimal(v.n - v.s - 2, 1, v.s))


def _boundary_points(rng, offset):
    """``(p, q, s)`` with ``p = q + s + offset`` and ``q >= 1``: every point
    with ``q + s <= 20``, and 300 seeded ones with ``q + s <= 690``, those
    with ``q + s = 690`` among them, all inside the float range."""
    sums = [(m, s) for m in range(2, 21) for s in range(1, m)]
    sums += [(690, 1), (690, 689)]
    for _ in range(300):
        m = rng.randint(2, 690)
        sums.append((m, rng.randint(1, m - 1)))
    return [(m + offset, m - s, s) for m, s in sums]


class TestExactVerdicts:
    """``holds`` comes from an exact integer witness (module docstring)."""

    def check_against_decimal(self, verdicts):
        assert verdicts
        for v in verdicts:
            assert v.applicable
            lhs, rhs = _decimal_sides(v)
            # the decimal difference is far above its own rounding
            assert abs(rhs - lhs) > lhs.scaleb(-40), v
            assert v.holds == (rhs > lhs), v

    def test_side_swap_boundary_against_decimal(self):
        # p = q + s - 1, where the relative gap is smallest
        points = _boundary_points(random.Random(11), -1)
        self.check_against_decimal([side_swap_gain(*pqs) for pqs in points])

    def test_transfer_boundary_against_decimal(self):
        points = _boundary_points(random.Random(12), 2)
        self.check_against_decimal([transfer_gain(*pqs) for pqs in points])

    def test_random_points_against_decimal(self):
        rng = random.Random(13)
        verdicts = []
        while len(verdicts) < 900:
            s, q = rng.randint(1, 200), rng.randint(0, 400)
            p = rng.randint(1, 500)
            n = rng.choice([2 * s + 2, rng.randint(4, 1000)])
            candidates = [side_swap_gain(p, q, s), transfer_gain(p, q, s),
                          complete_split_deficit(n, s)]
            for v in candidates[:2]:
                if v.applicable and max(_coefficients(p, q, s)[0],
                                        _coefficients(p - 1, q + 1, s)[0],
                                        _coefficients(q + s, p - s, s)[0]
                                        ) <= FLOAT_C2:
                    verdicts.append(v)
            v = candidates[2]
            if v.applicable and s * (n - s) <= FLOAT_C2 \
                    and _coefficients(n - s - 2, 1, s)[0] <= FLOAT_C2:
                verdicts.append(v)
        assert {v.name for v in verdicts} == set(COMPARISONS)
        assert any(not v.holds for v in verdicts)
        self.check_against_decimal(verdicts)

    def test_transfer_sign_is_negative_at_large_points(self, monkeypatch):
        # integers only: the module's math is unreachable
        monkeypatch.setattr(quartic, "math", None)
        rng = random.Random(14)
        for _ in range(2000):
            p = rng.randint(4, 10 ** 9)
            s = rng.randint(1, p - 3)
            q = rng.randint(1, p - s - 2)
            assert transfer_root_shift_sign(p, q, s) == -1
            # the proof's witness: r**2 g(u) < 0 at u = s (r + s) / r
            r = p - q - 1 - s
            c2, c0 = _coefficients(p, q, s)
            u_r = s * (r + s)
            value = u_r * u_r - c2 * u_r * r + c0 * r * r
            assert value == s * s * (s * (r + s) - p * r * (p - 1)) < 0

    def test_transfer_sign_matches_reference(self):
        # applicable or not
        for s in range(1, 20):
            for p in range(1, 40):
                for q in range(0, 40):
                    assert (transfer_root_shift_sign(p, q, s)
                            == transfer_root_shift_reference(p, q, s)), (p, q, s)

    def test_complete_split_factored_form_on_exact_grid(self):
        verdicts = sweep("complete-split", **EXACT_GRID)
        assert len(verdicts) == EXACT_GRID_POINTS["complete-split"]
        for v in verdicts:
            n, s = v.n, v.s
            sign = -s * ((n - 2 * s - 3) * (n - s) + 2)
            assert quartic_value_at_integer_square(s * (n - s), n - s - 2, 1, s) == sign
            assert v.sign_value == sign and v.holds == (n >= 2 * s + 3)

    @pytest.mark.parametrize("comparison", sorted(COMPARISONS))
    def test_holds_reads_no_float(self, monkeypatch, comparison):
        want = [v.holds for v in sweep(comparison, **EXACT_GRID)]
        monkeypatch.setattr(quartic, "ee_closed_form", lambda p, q, s: 0.0)
        monkeypatch.setattr(quartic, "complete_bipartite_ee", lambda a, b: 0.0)
        got = sweep(comparison, **EXACT_GRID)
        assert [v.holds for v in got] == want
        assert all(v.lhs == v.rhs == 0.0 for v in got)
        assert all(want) == (comparison != "complete-split")


class TestSweeps:
    def test_side_swap_and_transfer_grids_hold(self):
        for verdict in sweep("side-swap", max_p=6, max_q=6, max_s=6):
            assert verdict.holds, verdict
        for verdict in sweep("transfer", max_p=6, max_q=6, max_s=6):
            assert verdict.holds and verdict.sign_value < 0

    def test_complete_split_grid_failures_are_exactly_even_boundary(self):
        failures = [(v.params["n"], v.params["s"])
                    for v in sweep("complete-split", max_s=19, max_n=40)
                    if not v.holds]
        assert failures == [(2 * s + 2, s) for s in range(1, 20)]

    def test_unknown_comparison(self):
        with pytest.raises(ValueError):
            sweep("rotation")

    def test_overflow_raises_instead_of_inf(self):
        # sqrt(709 * 711) = 709.9993: cosh is finite there, twice it is not
        assert math.isfinite(math.cosh(math.sqrt(709 * 711)))
        with pytest.raises(OverflowError):
            complete_bipartite_ee(709, 711)
        with pytest.raises(OverflowError):
            ee_closed_form(1, 504098, 1)  # x1 = 709.9993
        assert math.isfinite(complete_bipartite_ee(708, 709))
        # a verdict beyond the float range leaves its display cells empty;
        # the n = 2s + 2 reversal is still decided by its witness s**2
        verdict = complete_split_deficit(1420, 709)
        assert verdict.lhs is verdict.rhs is verdict.gap is None
        assert verdict.holds is False and verdict.sign_value == 709 ** 2

    def test_display_cells_empty_exactly_beyond_the_float_range(self):
        verdict = side_swap_gain(800, 800, 1)
        assert verdict.lhs is verdict.rhs is verdict.gap is None
        assert verdict.holds is True
        # rhs = EE(join(p - 1, 2, 1)) overflows from p = 167,932 on
        last = transfer_gain(167931, 1, 1)
        assert all(math.isfinite(x) for x in (last.lhs, last.rhs, last.gap))
        first = transfer_gain(167932, 1, 1)
        assert math.isfinite(ee_closed_form(167932, 1, 1))
        assert first.lhs is first.rhs is first.gap is None
        assert (last.holds, last.sign_value) == (first.holds, first.sign_value) == (True, -1)

    @pytest.mark.parametrize("comparison", sorted(COMPARISONS))
    def test_closed_form_matches_reference_on_exact_grid(self, monkeypatch,
                                                         comparison):
        # every (p, q, s) the sweep evaluates, on both sides of the comparison
        points = set()
        original = quartic.ee_closed_form

        def recording(p, q, s):
            points.add((p, q, s))
            return original(p, q, s)

        monkeypatch.setattr(quartic, "ee_closed_form", recording)
        sweep(comparison, **EXACT_GRID)
        assert points
        for p, q, s in points:
            assert original(p, q, s).hex() == ee_reference(p, q, s).hex()

    @pytest.mark.parametrize("comparison", sorted(COMPARISONS))
    def test_verdicts_built_only_at_applicable_points(self, monkeypatch,
                                                      comparison):
        # one call per applicable point, and no other
        calls = []
        name = COMPARISONS[comparison]
        original = getattr(quartic, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(quartic, name, counting)
        verdicts = sweep(comparison, **EXACT_GRID)
        assert len(verdicts) == EXACT_GRID_POINTS[comparison]
        assert all(v.applicable for v in verdicts)
        assert calls == [tuple(v.params.values()) for v in verdicts]

    def test_sweep_matches_reference(self):
        rng = random.Random(41)
        for _ in range(60):
            grid = {"max_p": rng.randint(0, 16), "max_q": rng.randint(0, 16),
                    "max_s": rng.randint(1, 9), "max_n": rng.randint(3, 45)}
            for comparison in ("side-swap", "transfer", "complete-split"):
                want = sweep_reference(comparison, **grid)
                got = sweep(comparison, **grid)
                assert [(v, v.params) for v in got] == [(v, v.params) for v in want]
