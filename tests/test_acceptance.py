"""Desk-scale acceptance suite.

Each test exercises one acceptance check end to end at its stated tolerance
and prints a single PASS/FAIL line.  Three checks assert outcomes that differ
from the claims as stated, at the points where the exhaustive scans and the
exact sign computations prove those claims false:

* connectivity and edge-connectivity classes: the unique maximizer is the
  apex join with ``p = ceil((n-1)/2)`` (``corrected_connectivity_prediction``),
  and the stated ``p = floor((n-1)/2)`` instance is matched exactly where the
  two coincide (odd n, or ``s = n/2``); elsewhere Lemma 4.1 swaps the stated
  instance into the corrected one with a strict gain;
* the complete-split inequality holds with a negative sign witness for
  ``n >= 2s + 3`` and reverses with witness ``+s^2`` at ``n = 2s + 2``;
* cover rewiring gives equality when X2 is empty and at the corner
  ``x1 = y1, y2 = 0``, where both constructions are isomorphic complete
  splits, and a strict gain everywhere else.
"""

import json
import math
import random
from functools import lru_cache

import pytest

from bipartite_estrada.cli import main as cli_main
from bipartite_estrada.families import (CoverPartition, collapsed_cover_graph,
                                        complete_bipartite, join_family,
                                        saturated_cover_graph)
from bipartite_estrada.graph import emit_graph6
from bipartite_estrada.quartic import (_roots, complete_bipartite_ee,
                                       ee_closed_form, side_swap_gain, sweep)
from bipartite_estrada.search import find_maximizers, is_isomorphic
from bipartite_estrada.spectral import (eigenvalues, estrada, nullity_exact)
from bipartite_estrada.walks import walk_counts
from oracles import (bipartite_graphs, bipartite_supergraphs,
                     corrected_connectivity_prediction, ee_lapack,
                     random_bipartite)

NEAR = 1e-9


def _relative_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _verdict(label: str, failures: list) -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)} counterexamples)"
    print(f"ACCEPTANCE {label}: {status}")
    assert not failures, f"{label}: {failures[:8]}"


@lru_cache(maxsize=None)
def _complete_split_ee_eigen(n1: int, n2: int) -> float:
    return estrada(complete_bipartite(n1, n2)).value


# -- exhaustive class maximizers --------------------------------------------

def _scan_failures(kind: str, n: int) -> list:
    failures = []
    for report in find_maximizers(kind, n):
        if report.empty:
            failures.append((n, report.descriptor.value, "empty class"))
        elif not (report.matches_prediction and report.unique):
            failures.append((n, report.descriptor.value,
                             "found " + emit_graph6(report.maximizer),
                             "predicted " + emit_graph6(report.predicted)))
    return failures


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8,
                               pytest.param(9, marks=pytest.mark.slow)])
def test_matching_class_maximizers(n):
    """The complete split K_{p,n-p} is the unique matching-class maximizer."""
    _verdict(f"matching classes n={n}", _scan_failures("matching", n))


def _connectivity_failures(kind: str, n: int) -> list:
    """Every class has the corrected instance as its unique maximizer, the
    stated instance is matched exactly where it coincides with the corrected
    one, and wherever it does not, Lemma 4.1 swaps it into the corrected one
    with a strict gain."""
    failures = []
    for report in find_maximizers(kind, n):
        s = report.descriptor.value
        corrected = corrected_connectivity_prediction(n, s)
        if report.empty:
            failures.append((n, s, "empty class"))
            continue
        if not (report.unique and is_isomorphic(report.maximizer, corrected)):
            failures.append((n, s, "found " + emit_graph6(report.maximizer),
                             "corrected " + emit_graph6(corrected)))
        if not _relative_close(report.max_ee, ee_lapack(corrected), NEAR):
            failures.append((n, s, "max_ee", report.max_ee))
        stated_is_corrected = is_isomorphic(report.predicted, corrected)
        if report.matches_prediction != stated_is_corrected:
            failures.append((n, s, "matches_prediction",
                             report.matches_prediction))
        # the stated formula: p = floor((n-1)/2), q = ceil((n-1)/2) - s
        p, q = (n - 1) // 2, -(-(n - 1) // 2) - s
        if report.predicted != join_family(s, p, q):
            failures.append((n, s, "stated instance",
                             emit_graph6(report.predicted)))
        if n % 2 == 0 and s < n // 2:
            swap = side_swap_gain(p, q, s)
            if not (swap.applicable and swap.holds and is_isomorphic(
                    join_family(s, q + s, p - s), corrected)):
                failures.append((n, s, "side swap", swap.applicable,
                                 swap.holds))
    return failures


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8,
                               pytest.param(9, marks=pytest.mark.slow)])
def test_connectivity_class_maximizers(n):
    """The corrected apex join is the unique connectivity-class maximizer.

    It is the stated formula's instance at odd n and at s = n/2.  At even n
    with s < n/2 the stated instance (p = floor((n-1)/2)) is not the
    maximizer, and Lemma 4.1 swaps it to the one with p = ceil((n-1)/2).
    """
    _verdict(f"connectivity classes n={n}",
             _connectivity_failures("vertex-connectivity", n))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8,
                               pytest.param(9, marks=pytest.mark.slow)])
def test_edge_connectivity_class_maximizers(n):
    """Same check over edge-connectivity classes: the same corrected apex
    join is the unique maximizer, and the stated instance only where the
    two coincide."""
    _verdict(f"edge-connectivity classes n={n}",
             _connectivity_failures("edge-connectivity", n))


# -- closed forms ------------------------------------------------------------

@pytest.mark.slow
def test_complete_split_closed_form():
    """Eigensolver vs n1+n2-2+2cosh(sqrt(n1*n2)) for all n1+n2 <= 60.

    Tolerance 1e-9 is relative: the values reach ~1e13, far beyond any
    fixed absolute target representable in double precision.
    """
    failures = []
    for total in range(2, 61):
        for n1 in range(1, total // 2 + 1):
            n2 = total - n1
            closed = complete_bipartite_ee(n1, n2)
            eigen = _complete_split_ee_eigen(n1, n2)
            if not _relative_close(eigen, closed, NEAR):
                failures.append((n1, n2, eigen, closed))
    _verdict("complete split closed form (n <= 60)", failures)


@pytest.mark.slow
def test_complete_split_chain():
    """EE(K_{i,n-i}) strictly increases in i up to the balanced split."""
    failures = []
    for n in range(2, 61):
        values = [_complete_split_ee_eigen(i, n - i)
                  for i in range(1, n // 2 + 1)]
        for i in range(len(values) - 1):
            if not values[i] < values[i + 1]:
                failures.append((n, i + 1))
    _verdict("complete split chain (n <= 60)", failures)


def test_exact_walk_count_formulas():
    """Anchored and total even walk counts of complete splits, exactly.

    For sides n1, n2 <= 8 and k <= 12: anchored left pairs count
    n1^(k-1) n2^k, right pairs n2^(k-1) n1^k, closed total 2(n1 n2)^k, and
    every odd count vanishes.
    """
    failures = []
    for n1 in range(1, 9):
        for n2 in range(1, 9):
            g = complete_bipartite(n1, n2)
            table = walk_counts(g, 24)
            for k in range(1, 13):
                left = n1 ** (k - 1) * n2 ** k
                right = n2 ** (k - 1) * n1 ** k
                ok = (table.count(2 * k, 0, 0) == left
                      and table.count(2 * k, 0, n1 - 1) == left
                      and table.count(2 * k, n1, n1 + n2 - 1) == right
                      and table.closed_total(2 * k) == 2 * (n1 * n2) ** k
                      and table.closed_total(2 * k - 1) == 0
                      and table.count(2 * k - 1, 0, n1 - 1) == 0
                      and table.count(2 * k - 1, n1, n1 + n2 - 1) == 0)
                if not ok:
                    failures.append((n1, n2, k))
    _verdict("exact walk-count formulas (sides <= 8, k <= 12)", failures)


@pytest.mark.slow
def test_join_family_spectrum_consistency():
    """Apex join nonzero spectrum is {+-x1, +-x2}, nullity n-4, and the
    closed form matches the eigensolver, for all 1 <= p,q,s <= 12."""
    failures = []
    for p in range(1, 13):
        for q in range(1, 13):
            for s in range(1, 13):
                g = join_family(s, p, q)
                x1, x2 = _roots(p, q, s)
                spectrum = eigenvalues(g)
                vals = spectrum.eigenvalues
                spectral_ok = (
                    abs(vals[0] - x1) < 1e-8
                    and abs(vals[1] - x2) < 1e-8
                    and abs(vals[-1] + x1) < 1e-8
                    and abs(vals[-2] + x2) < 1e-8
                    and all(abs(x) < 1e-8 for x in vals[2:-2]))
                nullity_ok = spectrum.nullity == g.n - 4
                closed_ok = _relative_close(
                    ee_closed_form(p, q, s),
                    float(sum(math.exp(x) for x in vals)), NEAR)
                if not (spectral_ok and nullity_ok and closed_ok):
                    failures.append((p, q, s))
    _verdict("apex join spectrum and closed form (p,q,s <= 12)", failures)


# -- inequality grids ---------------------------------------------------------

def test_side_swap_and_transfer_grids():
    """Both rewrite steps strictly gain at every admissible point, p,q,s <= 12;
    the transfer step's exact root-shift sign is negative throughout."""
    failures = []
    for verdict in sweep("side-swap", max_p=12, max_q=12, max_s=12):
        if not verdict.holds:
            failures.append(verdict.params)
    for verdict in sweep("transfer", max_p=12, max_q=12, max_s=12):
        if not (verdict.holds and verdict.sign_value < 0):
            failures.append(verdict.params)
    _verdict("side-swap and transfer inequalities (p,q,s <= 12)", failures)


def test_complete_split_inequality_grid():
    """Complete split against the apex join on K_{n-s-2,1} at every
    admissible point (n <= 40), with the exact integer sign witness.

    The admissibility bound s <= ceil((n-1)/2) - 1 admits n >= 2s + 3, where
    the complete split loses with a negative witness, and also n = 2s + 2,
    where the witness is exactly +s^2 and the inequality reverses: there the
    complete split K_{s,s+2} is itself the class maximizer.
    """
    failures = []
    reversed_at = set()
    for verdict in sweep("complete-split", max_s=19, max_n=40):
        n, s = verdict.params["n"], verdict.params["s"]
        if n == 2 * s + 2:
            reversed_at.add((n, s))
            if not (verdict.holds is False and verdict.sign_value == s * s):
                failures.append(verdict.params)
        elif not (verdict.holds and verdict.sign_value < 0):
            failures.append(verdict.params)
    if reversed_at != {(2 * s + 2, s) for s in range(1, 20)}:
        failures.append(("n = 2s + 2 points", sorted(reversed_at)))
    _verdict("complete-split inequality grid (n <= 40)", failures)


# -- monotonicity and rewiring ------------------------------------------------

def test_edge_addition_monotonicity():
    """Adding any bipartiteness-preserving edge strictly raises the index,
    exhaustively over all bipartite graphs with n <= 6."""
    failures = []
    for n in range(2, 7):
        for g in bipartite_graphs(n):
            base = estrada(g).value
            for edge, bigger in bipartite_supergraphs(g):
                if not estrada(bigger).value > base:
                    failures.append((emit_graph6(g), edge))
    _verdict("edge addition monotonicity (n <= 6)", failures)


def test_cover_rewiring_comparison():
    """Rewiring the cover never lowers the index; equality iff X2 is empty or
    x1 = y1, y2 = 0.

    At that corner, with x2 > 0, the two constructions are complete splits
    with swapped sides, hence isomorphic, so equality holds with X2 nonempty.
    Everywhere else the rewiring strictly gains.
    """
    failures = []
    for x1 in range(1, 10):
        for x2 in range(0, 10 - x1):
            for y1 in range(0, min(x1, 10 - x1 - x2) + 1):
                for y2 in range(0, 10 - x1 - x2 - y1):
                    part = CoverPartition(x1, x2, y1, y2)
                    saturated = saturated_cover_graph(part)
                    collapsed = collapsed_cover_graph(part)
                    lo = estrada(saturated).value
                    hi = estrada(collapsed).value
                    if x2 == 0:
                        ok = abs(lo - hi) < 1e-9
                    elif x1 == y1 and y2 == 0:
                        ok = (abs(lo - hi) < 1e-9
                              and is_isomorphic(saturated, collapsed))
                    else:
                        ok = lo < hi - NEAR
                    if not ok:
                        failures.append((x1, x2, y1, y2))
    _verdict("cover rewiring comparison (orders <= 9)", failures)


# -- cross-validation and determinism -----------------------------------------

@pytest.mark.slow
def test_method_cross_validation():
    """Eigen, cosh, and moment-series evaluations agree within 1e-8 on 500
    random bipartite graphs of order at most 12."""
    rng = random.Random(2024)
    failures = []
    for _ in range(500):
        g = random_bipartite(rng, 12)
        eigen = estrada(g, "eigen").value
        cosh = estrada(g, "cosh").value
        series = estrada(g, "moment-series").value
        if abs(eigen - cosh) >= 1e-8 or abs(eigen - series) >= 1e-8:
            failures.append(emit_graph6(g))
    _verdict("three-method cross validation (500 random, n <= 12)", failures)


def test_report_determinism_across_workers(tmp_path, capsys):
    """verify reports are byte-identical for 1, 2, and 8 workers."""
    failures = []
    for theorem, lo, hi in (("matching", 2, 7), ("connectivity", 4, 6)):
        blobs = set()
        for workers in (1, 2, 8):
            out = tmp_path / f"{theorem}-{workers}.json"
            cli_main(["verify", "--theorem", theorem, "--n-min", str(lo),
                      "--n-max", str(hi), "--threads", str(workers),
                      "--out", str(out)])
            blobs.add(out.read_bytes() + out.with_suffix(".csv").read_bytes())
        capsys.readouterr()
        if len(blobs) != 1:
            failures.append(theorem)
    _verdict("report determinism across 1/2/8 workers", failures)


def test_verified_report_payload(tmp_path, capsys):
    """The matching verification exits 0 and its payload is well formed."""
    out = tmp_path / "matching.json"
    code = cli_main(["verify", "--theorem", "matching", "--n-min", "2",
                     "--n-max", "7", "--out", str(out)])
    capsys.readouterr()
    payload = json.loads(out.read_text())
    failures = []
    if code != 0 or not payload["all_verified"]:
        failures.append("matching verification did not pass")
    if len(payload["classes"]) != sum(n // 2 for n in range(2, 8)):
        failures.append("unexpected class count")
    _verdict("verification payload (matching n <= 7)", failures)
