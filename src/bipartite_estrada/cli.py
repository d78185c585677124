"""Command-line front end.

Commands: ``compute`` (invariants and the index of given graphs),
``construct`` (family constructors), ``moments`` (exact closed-walk counts),
``compare`` (closed-form index comparisons on parameter grids), ``verify``
(exhaustive class maximizer verification).

Reports are reproducible: floats are serialized with 17 significant digits
and the comparison payload carries no timestamps; durations go to a separate
timing sidecar.  Exit codes: 0 success/verified, 1 verification failure,
2 usage error, 3 input parse error, 4 an output file could not be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .families import CLI_FAMILIES, CLI_FAMILY_TABLE, build_cli_family
from .graph import Graph, Graph6Error, emit_graph6, find_bipartition, parse_graph6
from .invariants import (BRUTE_FORCE_MATCHING_LIMIT, edge_connectivity,
                         matching_number, vertex_connectivity)
from .quartic import CLI_LEMMAS, sweep
from .search import N_DEFAULT_MAX, N_HARD_MAX, NEAR_TIE, find_maximizers
from .spectral import (MOMENT_BUDGET, SPECTRUM_TOLERANCE, estrada, eigenvalues,
                       index_from_spectrum, moment_series)


class CliUsageError(Exception):
    pass


class CliWriteError(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    return format(x, ".17g")


def stable_json(obj, indent: int = 0) -> str:
    """JSON text with deterministic float formatting (17 significant digits)."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(k)}: {stable_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {stable_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    return json.dumps(obj)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    return str(value)


# format spec of a column whose cells are all of one of these types
_CSV_SPECS = {float: "%.17g", int: "%s", str: "%s"}
_CSV_BOOL = {True: "true", False: "false"}


def _csv_text(header: list[str], rows: list) -> str:
    """CSV text of equal-length rows, each line from one ``%`` operation.

    Each column gets one format spec from its cells' types.  A column that
    holds only ``None`` is written as empty cells; a column of bools is
    written as ``true``/``false``; a column of mixed or other types (numpy
    scalars among them) goes through :func:`_csv_cell` cell by cell.
    """
    specs, columns = [], []
    for column in zip(*rows):
        kinds = set(map(type, column))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is type(None):
            specs.append("")
            continue
        if kind is bool:
            column = list(map(_CSV_BOOL.__getitem__, column))
        elif kind not in _CSV_SPECS:
            column = list(map(_csv_cell, column))
        specs.append(_CSV_SPECS.get(kind, "%s"))
        columns.append(column)
    line = ",".join(specs)
    cells = zip(*columns) if columns else [()] * len(rows)
    return "\n".join([",".join(header), *[line % row for row in cells]]) + "\n"


def _write_file(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliWriteError(str(exc)) from exc


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        _write_file(Path(out), text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------

def _load_graphs(args) -> list[Graph]:
    if bool(args.graph6) == bool(args.file):
        raise CliUsageError("provide exactly one input: --graph6 or --file")
    if args.graph6:
        return [parse_graph6(args.graph6)]
    lines = Path(args.file).read_text(encoding="utf-8").split("\n")
    return [parse_graph6(line) for line in lines if line]


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _compute_report(g: Graph) -> dict:
    spectrum = eigenvalues(g)
    bipartite = find_bipartition(g) is not None
    report = {
        "graph6": emit_graph6(g),
        "n": g.n,
        "m": g.m,
        "eigenvalues": [float(x) for x in spectrum.eigenvalues],
        "nullity": spectrum.nullity,
        "estrada_eigen": index_from_spectrum(spectrum, "eigen"),
    }
    if bipartite:
        report["estrada_cosh"] = index_from_spectrum(spectrum, "cosh")
    series = estrada(g, "moment-series")
    report["estrada_moment_series"] = series.value
    report["error_bound"] = series.error_bound
    if bipartite or g.n <= BRUTE_FORCE_MATCHING_LIMIT:
        report["matching_number"] = matching_number(g)
    else:
        report["matching_number"] = None
    kappa = vertex_connectivity(g)
    report["vertex_connectivity"] = kappa
    # Whitney: kappa <= lambda <= delta, so kappa = delta settles lambda
    delta = min(g.degree(v) for v in range(g.n))
    report["edge_connectivity"] = delta if kappa == delta else edge_connectivity(g)
    report["tolerance"] = SPECTRUM_TOLERANCE
    if not bipartite:
        report["note"] = "cosh method omitted: graph is not bipartite"
    return report


_COMPUTE_FLAT = ["graph6", "n", "m", "nullity", "estrada_eigen", "estrada_cosh",
                 "estrada_moment_series", "error_bound", "matching_number",
                 "vertex_connectivity", "edge_connectivity", "tolerance"]


def _cmd_compute(args) -> int:
    reports = [_compute_report(g) for g in _load_graphs(args)]
    if args.format == "json":
        _write_or_print(stable_json({"graphs": reports}) + "\n", args.out)
    elif args.format == "csv":
        rows = [[r.get(k) for k in _COMPUTE_FLAT] for r in reports]
        _write_or_print(_csv_text(_COMPUTE_FLAT, rows), args.out)
    else:
        chunks = []
        for r in reports:
            lines = [f"graph {r['graph6']}: n={r['n']} m={r['m']}"]
            lines.append("  eigenvalues: " +
                         " ".join(_fmt_float(x) for x in r["eigenvalues"]))
            lines.append(f"  nullity (exact): {r['nullity']}")
            lines.append(f"  estrada (eigen): {_fmt_float(r['estrada_eigen'])}")
            if "estrada_cosh" in r:
                lines.append(f"  estrada (cosh): {_fmt_float(r['estrada_cosh'])}")
            else:
                lines.append("  estrada (cosh): not bipartite, omitted")
            lines.append(f"  estrada (moment-series): "
                         f"{_fmt_float(r['estrada_moment_series'])}"
                         f" +/- {_fmt_float(r['error_bound'])}")
            lines.append(f"  matching number: {r['matching_number']}")
            lines.append(f"  vertex connectivity: {r['vertex_connectivity']}")
            lines.append(f"  edge connectivity: {r['edge_connectivity']}")
            chunks.append("\n".join(lines))
        _write_or_print("\n".join(chunks) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _cmd_construct(args) -> int:
    needed, _ = CLI_FAMILY_TABLE[args.family]
    kw = {}
    for name in needed:
        value = getattr(args, name)
        if value is None:
            raise CliUsageError(f"family {args.family!r} needs --{name}")
        kw[name] = value
    try:
        g = build_cli_family(args.family, **kw)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    line = emit_graph6(g)
    if args.format == "text":
        params = " ".join(f"{k}={v}" for k, v in kw.items())
        _write_or_print(f"{line}\n# {args.family} {params}: n={g.n} m={g.m}\n",
                        args.out)
    else:
        _write_or_print(line + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def _cmd_moments(args) -> int:
    if not 0 <= args.k_max <= MOMENT_BUDGET:
        raise CliUsageError(f"--k-max must be in 0..{MOMENT_BUDGET}")
    graphs = _load_graphs(args)
    records = []
    for g in graphs:
        series = moment_series(g, args.k_max)
        records.append({"graph6": emit_graph6(g), "k_max": series.k_max,
                        "moments": list(series.moments)})
    if args.format == "json":
        _write_or_print(stable_json({"graphs": records}) + "\n", args.out)
    elif args.format == "csv":
        header = ["graph6", "k", "moment"]
        rows = [[r["graph6"], k, m] for r in records
                for k, m in enumerate(r["moments"])]
        _write_or_print(_csv_text(header, rows), args.out)
    else:
        lines = []
        for r in records:
            lines.append(f"graph {r['graph6']}: closed-walk counts up to k={r['k_max']}")
            lines += [f"  M_{k} = {m}" for k, m in enumerate(r["moments"])]
        _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _cmd_compare(args) -> int:
    comparison = CLI_LEMMAS[args.lemma]
    bounds = ("--max-n and --max-s" if comparison == "complete-split"
              else "--max-p, --max-q and --max-s")
    try:
        verdicts = sweep(comparison, max_p=args.max_p, max_q=args.max_q,
                         max_s=args.max_s, max_n=args.max_n)
    except OverflowError as exc:
        raise CliUsageError(f"an index on the grid set by {bounds} overflows "
                            f"a float (cosh above 710)") from exc
    if not verdicts:
        raise CliUsageError(f"the grid set by {bounds} holds no applicable point")
    header = ["comparison", "n", "s", "p", "q", "lhs", "rhs", "gap", "holds",
              "sign_value"]
    _write_or_print(_csv_text(header, [v[:10] for v in verdicts]), args.out)
    return 0 if all(v.holds for v in verdicts) else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_THEOREM_KINDS = {
    "matching": "matching",
    "connectivity": "vertex-connectivity",
    "edge-connectivity": "edge-connectivity",
}


def _class_record(report) -> dict:
    d = report.descriptor
    return {
        "kind": d.kind,
        "n": d.n,
        "value": d.value,
        "empty": report.empty,
        "predicted_graph6": None if report.predicted is None
        else emit_graph6(report.predicted),
        "maximizer_graph6": None if report.maximizer is None
        else emit_graph6(report.maximizer),
        "max_ee": report.max_ee,
        "runner_up_gap": report.runner_up_gap,
        "unique": report.unique,
        "uniqueness_undecided": report.uniqueness_undecided,
        "matches_prediction": report.matches_prediction,
        "class_size": report.class_size,
        "graphs_scanned": report.graphs_scanned,
        "near_tie_count": report.near_tie_count,
    }


def _cmd_verify(args) -> int:
    if args.n_min < 2:
        raise CliUsageError("--n-min must be at least 2")
    if args.n_max < args.n_min:
        raise CliUsageError("--n-max must be >= --n-min")
    if args.n_max > N_DEFAULT_MAX and not args.allow_n12:
        raise CliUsageError(f"orders above {N_DEFAULT_MAX} need --allow-n12")
    if args.n_max > N_HARD_MAX:
        raise CliUsageError(f"--n-max must be at most {N_HARD_MAX}")
    if args.threads < 1:
        raise CliUsageError("--threads must be at least 1")
    if args.out and not Path(args.out).parent.is_dir():
        # found before the scan, which can run for minutes
        raise CliWriteError(f"no directory {Path(args.out).parent} for {args.out}")
    if args.out and Path(args.out).suffix == ".csv":
        # the report's CSV sidecar would be --out itself (its timing sidecar
        # never is), and would overwrite the JSON
        raise CliUsageError(f"--out {args.out} is also its CSV sidecar path")
    kind = _THEOREM_KINDS[args.theorem]
    reports = []
    for n in range(args.n_min, args.n_max + 1):
        reports += find_maximizers(kind, n, workers=args.threads,
                                   allow_n12=args.allow_n12)
    failing = [r for r in reports if not r.empty and not r.verified]
    records = [_class_record(r) for r in reports]
    payload = {
        "theorem": args.theorem,
        "n_min": args.n_min,
        "n_max": args.n_max,
        "tolerances": {"near_tie": NEAR_TIE},
        "classes": records,
        "all_verified": not failing,
    }
    json_text = stable_json(payload) + "\n"
    csv_text = _csv_text(list(records[0]), [list(r.values()) for r in records])
    if args.out:
        out = Path(args.out)
        _write_file(out, json_text)
        _write_file(out.with_suffix(".csv"), csv_text)
        timing = {
            "classes": [{"kind": r.descriptor.kind, "n": r.descriptor.n,
                         "value": r.descriptor.value,
                         "duration_seconds": r.duration} for r in reports],
            "total_seconds": sum({(r.descriptor.kind, r.descriptor.n): r.duration
                                  for r in reports}.values()),
        }
        _write_file(out.with_suffix(".timing.json"), stable_json(timing) + "\n")
    else:
        sys.stdout.write(json_text)
    for r in failing:
        d = r.descriptor
        sys.stderr.write(f"verification failed: kind={d.kind} n={d.n} "
                         f"value={d.value}\n")
    return 1 if failing else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--graph6", help="one graph6 string")
    p.add_argument("--file", help="path to a file with one graph6 line each")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipartite-estrada",
        description="Estrada index computations and extremal verification "
                    "for bipartite graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="spectrum, index, and invariants of graphs")
    _add_input_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("construct", help="build a named family instance")
    _add_common_flags(p)
    p.add_argument("--family", choices=CLI_FAMILIES, required=True)
    for flag in ("s", "p", "q", "n1", "n2", "m1", "m2", "x1", "x2", "y1", "y2"):
        p.add_argument(f"--{flag}", type=int)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("moments", help="exact closed-walk counts")
    _add_input_flags(p)
    _add_common_flags(p)
    p.add_argument("--k-max", type=int, default=12,
                   help=f"largest walk length (max {MOMENT_BUDGET})")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("compare", help="closed-form index comparisons on a grid")
    p.add_argument("--lemma", choices=sorted(CLI_LEMMAS), required=True,
                   help="4.1 side swap, 4.2 vertex transfer, 4.3 complete split")
    p.add_argument("--max-p", type=int, default=12)
    p.add_argument("--max-q", type=int, default=12)
    p.add_argument("--max-s", type=int, default=12)
    p.add_argument("--max-n", type=int, default=40,
                   help="order bound for the complete-split grid")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify", help="exhaustive class maximizer verification")
    p.add_argument("--theorem", choices=sorted(_THEOREM_KINDS), required=True)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--allow-n12", action="store_true",
                   help="permit order-12 scans (416,032 S_a x S_b orbits, "
                        "against 39,379 at order 11)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", help="JSON report path; CSV and timing sidecars "
                                 "are written next to it")
    p.set_defaults(func=_cmd_verify)
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # built on the first call, then reused
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CliUsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except CliWriteError as exc:
        sys.stderr.write(f"write error: {exc}\n")
        return 4
    except (Graph6Error, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
