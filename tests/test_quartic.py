"""Biquadratic root extraction, closed-form index, and the comparison steps."""

import math
import random

import pytest

from bipartite_estrada import quartic
from bipartite_estrada.families import join_family
from bipartite_estrada.quartic import (_slice_corners, complete_bipartite_ee,
                                       complete_split_deficit, ee_closed_form,
                                       quartic_roots,
                                       quartic_value_at_integer_square,
                                       side_swap_gain, sweep, transfer_gain,
                                       transfer_root_shift_sign)
from bipartite_estrada.spectral import estrada, eigenvalues, nullity_exact
from oracles import ee_reference, sweep_reference

GOLDEN = (1 + math.sqrt(5)) / 2
EXACT_GRID = {"max_p": 30, "max_q": 30, "max_s": 30, "max_n": 200}
# applicable points of each comparison on EXACT_GRID
EXACT_GRID_POINTS = {"side-swap": 9455, "transfer": 3654, "complete-split": 5040}
COMPARISONS = {"side-swap": "side_swap_gain", "transfer": "transfer_gain",
               "complete-split": "complete_split_deficit"}


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestRoots:
    def test_path_roots_are_golden(self):
        form = quartic_roots(1, 1, 1)
        assert form.c2 == 3 and form.c0 == 1
        assert form.x1 == pytest.approx(GOLDEN, abs=1e-12)
        assert form.x2 == pytest.approx(GOLDEN - 1, abs=1e-12)

    def test_no_tail_degenerates(self):
        form = quartic_roots(3, 0, 2)
        assert form.x2 == 0.0
        assert form.x1 == pytest.approx(math.sqrt(2 + 3 * 2), abs=1e-12)

    def test_product_is_sqrt_pqs(self):
        for p in range(1, 13):
            for q in range(0, 13):
                for s in range(1, 13):
                    form = quartic_roots(p, q, s)
                    assert abs(form.x1 * form.x2 - math.sqrt(p * q * s)) < 1e-10

    def test_preconditions(self):
        with pytest.raises(ValueError):
            quartic_roots(0, 1, 1)
        with pytest.raises(ValueError):
            quartic_roots(1, 1, 0)


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
                    form = quartic_roots(p, q, s)
                    vals = eigenvalues(g).eigenvalues
                    assert vals[0] == pytest.approx(form.x1, abs=1e-8)
                    assert vals[1] == pytest.approx(form.x2, abs=1e-8)
                    assert vals[-1] == pytest.approx(-form.x1, abs=1e-8)
                    assert vals[-2] == pytest.approx(-form.x2, abs=1e-8)
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
                    form = quartic_roots(p, q, s)
                    x = form.x1
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
            complete_split_deficit(1420, 709)
        with pytest.raises(OverflowError):
            ee_closed_form(1, 504098, 1)  # x1 = 709.9993
        assert math.isfinite(complete_bipartite_ee(708, 709))

    def test_slice_corners_bound_the_grid(self):
        # the largest cosh argument at the corners is the grid's largest
        def arguments(v):
            p, q, s, n = (v.params.get(k) for k in "pqsn")
            if v.name == "side-swap":
                pairs = [(p, q, s), (q + s, p - s, s)]
            elif v.name == "transfer":
                pairs = [(p, q, s), (p - 1, q + 1, s)]
            else:
                return [math.sqrt(s * (n - s)), quartic_roots(n - s - 2, 1, s).x1]
            return [quartic_roots(*pqs).x1 for pqs in pairs]

        rng = random.Random(73)
        for _ in range(60):
            grid = {"max_p": rng.randint(0, 14), "max_q": rng.randint(0, 14),
                    "max_s": rng.randint(1, 8), "max_n": rng.randint(3, 40)}
            for comparison in ("side-swap", "transfer", "complete-split"):
                verdicts = sweep(comparison, **grid)
                corners = [v for v in _slice_corners(comparison, **grid)
                           if v.applicable]
                assert all(v in verdicts for v in corners)
                assert (max((x for v in corners for x in arguments(v)), default=None)
                        == max((x for v in verdicts for x in arguments(v)), default=None))

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
        # the corner of each s first, then one call per applicable point
        corners = [tuple(v.params.values())
                   for v in _slice_corners(comparison, **EXACT_GRID)]
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
        assert len(corners) == EXACT_GRID["max_s"]
        assert calls == corners + [tuple(v.params.values()) for v in verdicts]

    def test_sweep_matches_reference(self):
        rng = random.Random(41)
        for _ in range(60):
            grid = {"max_p": rng.randint(0, 16), "max_q": rng.randint(0, 16),
                    "max_s": rng.randint(1, 9), "max_n": rng.randint(3, 45)}
            for comparison in ("side-swap", "transfer", "complete-split"):
                want = sweep_reference(comparison, **grid)
                got = sweep(comparison, **grid)
                assert [(v, v.params) for v in got] == [(v, v.params) for v in want]
