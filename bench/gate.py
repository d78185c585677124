"""Correctness gate: every operation of a pass is checked twice, against the
reference stored with the benchmark and against independent oracles.

An operation is one class record (scans), one input graph (compute-large),
or one grid point, moment record, dominance check or twin check
(exact-grid).  It fails if its command raised, exited with an unexpected
code, or disagrees with the reference or an oracle.  Integers, booleans and
exact sign certificates must match exactly; floats within ``REL_TOL``
relative.  A scan maximizer must be isomorphic to the reference one, not
byte-equal, and its index must match LAPACK.  The deliberately red verdicts
(connectivity classes at even n, the n = 2s + 2 points of lemma 4.3) pass
when they match the reference.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

import oracles as orc
from workloads import (LEMMAS, MOMENT_K_MAX, THEOREM_KINDS, WALK_K_MAX,
                       ComputeLarge, ScanWorkload, block_edges, encode_graph6,
                       grid_points, star_edges)

EXACT_CLASS_FIELDS = ("kind", "n", "value", "empty", "class_size", "graphs_scanned",
                      "near_tie_count", "unique", "uniqueness_undecided",
                      "matches_prediction")
EXACT_COMPUTE_FIELDS = ("graph6", "n", "m", "nullity", "matching_number",
                        "vertex_connectivity", "edge_connectivity", "tolerance")
FLOAT_COMPUTE_FIELDS = ("estrada_eigen", "estrada_cosh", "estrada_moment_series",
                        "error_bound")
LEMMA_NAMES = {"4.1": "side-swap", "4.2": "transfer", "4.3": "complete-split"}
TOLERANCE = 1e-12


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{label}: {'; '.join(problems[:3])}")

    def ops(self, labels, problem: str) -> None:
        for label in labels:
            self.op(label, [problem])


def moments_digest(moments) -> str:
    return hashlib.sha256(",".join(map(str, moments)).encode()).hexdigest()


def _command_problem(call, expected_code: int, needed=()) -> str | None:
    if call.error:
        return "raised: " + call.error.strip().splitlines()[-1]
    if call.code != expected_code:
        return f"exit code {call.code}, expected {expected_code}"
    for name in needed:
        if name not in call.files:
            return f"missing output {name}"
    return None


class Gate:
    """Checks the calls of one workload's passes; oracle results are cached,
    since every pass of a run sees the same inputs."""

    def __init__(self, workload, inputs, reference: dict):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.default_seed = inputs.seed == reference["default_seed"]
        self._cache: dict = {}
        self._verdicts: dict[str, Tally] = {}

    def _memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def check(self, calls, tally: Tally) -> None:
        """Check one pass.  A pass whose outputs repeat an earlier one byte for
        byte gets the same verdicts again without being parsed a second time."""
        key = hashlib.sha256(repr([(c.label, c.code, c.error, c.stdout, c.stderr,
                                    sorted(c.files.items()), repr(c.value))
                                   for c in calls]).encode()).hexdigest()
        if key not in self._verdicts:
            local = Tally()
            if isinstance(self.workload, ScanWorkload):
                self._check_scans(calls, local)
            elif isinstance(self.workload, ComputeLarge):
                self._check_compute(calls, local)
            else:
                self._check_exact(calls, local)
            self._verdicts[key] = local
        done = self._verdicts[key]
        tally.attempted += done.attempted
        tally.failed += done.failed
        tally.messages += done.messages[:max(0, 20 - len(tally.messages))]

    # -- scans ---------------------------------------------------------------

    def _check_scans(self, calls, tally):
        for (theorem, n_min, n_max, _threads), call in zip(self.inputs.data["commands"],
                                                           calls):
            kind = THEOREM_KINDS[theorem]
            ref = self.reference["scan"][kind]
            keys = [(n, v) for n in range(n_min, n_max + 1) for v in range(1, n // 2 + 1)]
            labels = [f"{kind} n={n} value={v}" for n, v in keys]
            refs = [ref.get(f"{n}:{v}") for n, v in keys]
            if None in refs:
                tally.ops(labels, "no reference record")
                continue
            red = [r for r in refs if not r["empty"] and not (
                r["matches_prediction"] and r["unique"])]
            stem = f"verify-{theorem}-{n_min}-{n_max}"
            problem = _command_problem(call, 1 if red else 0,
                                       (stem + ".json", stem + ".csv", stem + ".timing.json"))
            if problem is None:
                try:
                    payload = json.loads(call.files[stem + ".json"])
                    rows = list(csv.DictReader(io.StringIO(call.files[stem + ".csv"])))
                    timing = json.loads(call.files[stem + ".timing.json"])
                except ValueError as exc:
                    problem = f"unreadable output: {exc}"
            if problem is None:
                header = {"theorem": theorem, "n_min": n_min, "n_max": n_max,
                          "all_verified": not red}
                bad = [k for k, v in header.items() if payload.get(k) != v]
                records = payload.get("classes", [])
                if bad:
                    problem = f"payload header {bad} wrong"
                elif len(records) != len(keys) or len(rows) != len(keys):
                    problem = f"{len(records)} records / {len(rows)} csv rows, expected {len(keys)}"
                elif len(timing.get("classes", [])) != len(keys):
                    problem = "timing sidecar class count wrong"
            if problem is not None:
                tally.ops(labels, problem)
                continue
            for label, record, row, expected in zip(labels, records, rows, refs):
                tally.op(label, self._class_problems(record, row, expected))

    def _class_problems(self, rec: dict, row: dict, ref: dict) -> list[str]:
        problems = [f"{k}={rec.get(k)!r}, reference {ref[k]!r}"
                    for k in EXACT_CLASS_FIELDS if rec.get(k) != ref[k]]
        scale = ref["max_ee"]
        for key in ("max_ee", "runner_up_gap"):
            if not orc.close(rec.get(key), ref[key], scale):
                problems.append(f"{key}={rec.get(key)!r}, reference {ref[key]!r}")
        for key in ("predicted_graph6", "maximizer_graph6"):
            got, want = rec.get(key), ref[key]
            if (got is None) != (want is None) or (
                    got is not None and not self._memo(
                        ("iso", got, want), lambda: orc.isomorphic(got, want))):
                problems.append(f"{key} {got!r} not isomorphic to reference {want!r}")
        line = rec.get("maximizer_graph6")
        if line is not None and not problems:
            n, edges = orc.decode_graph6(line)
            if not orc.close(orc.estrada(n, edges), rec["max_ee"]):
                problems.append("max_ee disagrees with LAPACK")
            value = self._memo(("inv", rec["kind"], line),
                               lambda: orc.invariant(rec["kind"], n, edges))
            if value != rec["value"]:
                problems.append(f"maximizer invariant {value}, class {rec['value']}")
        for key, cell in row.items():
            if not _csv_matches(cell, rec.get(key)):
                problems.append(f"csv {key}={cell!r} differs from json {rec.get(key)!r}")
        return problems

    # -- compute-large -------------------------------------------------------

    def _check_compute(self, calls, tally):
        graphs = self.inputs.data["graphs"]
        labels = [f"compute {g['name']}" for g in graphs]
        call = calls[0]
        problem = _command_problem(call, 0, ("compute.json",))
        if problem is None:
            try:
                records = json.loads(call.files["compute.json"])["graphs"]
            except (ValueError, KeyError) as exc:
                problem = f"unreadable output: {exc}"
            else:
                if len(records) != len(graphs):
                    problem = f"{len(records)} records for {len(graphs)} graphs"
        if problem is not None:
            tally.ops(labels, problem)
            return
        refs = self.reference["compute"] if self.default_seed else [None] * len(graphs)
        for i, (label, graph, record) in enumerate(zip(labels, graphs, records)):
            expected = self._memo(("compute", i), lambda: _compute_oracle(graph))
            problems = _compute_problems(record, expected)
            if refs[i] is not None:
                problems += _reference_problems(record, refs[i])
            tally.op(label, problems)

    # -- exact-grid ----------------------------------------------------------

    def _check_exact(self, calls, tally):
        data = self.inputs.data
        by_label = {call.label: call for call in calls}
        for lemma in LEMMAS:
            self._check_compare(lemma, by_label[f"compare:{lemma}"], tally)
        self._check_moments(calls, by_label["moments"], tally)
        for i, spec in enumerate(data["dominance"]):
            tally.op(f"dominance {spec}", self._dominance_problems(
                i, spec, by_label[f"dominance:{i}"]))
        for i, spec in enumerate(data["twins"]):
            call = by_label[f"twin:{i}"]
            problems = [] if call.error is None else ["raised: " + call.error.splitlines()[-1]]
            if not problems:
                got = tuple(getattr(call.value, k, None)
                            for k in ("ok", "checked_up_to", "first_violation"))
                first = self._memo(("twin", i), lambda: orc.twins_agree(
                    spec["n"], spec["edges"], spec["u"], spec["v"], WALK_K_MAX))
                if got != (first is None, WALK_K_MAX, first):
                    problems.append(f"twin check {got}, oracle first violation {first}")
            tally.op(f"twin {i}", problems)

    def _check_compare(self, lemma, call, tally):
        grid = self.inputs.data["grid"]
        points = grid_points(lemma, grid)
        labels = [f"compare {lemma} n,s,p,q={pt}" for pt in points]
        ref = self.reference["compare"][lemma] if grid == self.reference["grid"] else None
        expected = self._memo(("compare", lemma), lambda: _compare_oracle(lemma, points))
        red = (ref["red"] if ref is not None
               else [pt for pt, e in zip(points, expected) if e["holds"] is False])
        name = f"compare-{lemma}.csv"
        problem = _command_problem(call, 1 if red else 0, (name,))
        rows = [] if problem else list(csv.DictReader(io.StringIO(call.files[name])))
        if problem is None and len(rows) != len(points):
            problem = f"{len(rows)} rows, expected {len(points)}"
        if problem is not None:
            tally.ops(labels, problem)
            return
        ref_red = None if ref is None else {tuple(pt) for pt in ref["red"]}
        ref_signs = None if ref is None else {tuple(pt) for pt in ref["transfer_sign_not_negative"]}
        for label, point, row, exp in zip(labels, points, rows, expected):
            problems = []
            cells = tuple(None if row[k] == "" else int(row[k]) for k in ("n", "s", "p", "q"))
            if row["comparison"] != LEMMA_NAMES[lemma] or cells != point:
                problems.append(f"row {row} is not point {point}")
            else:
                lhs, rhs = float(row["lhs"]), float(row["rhs"])
                scale = max(abs(exp["lhs"]), abs(exp["rhs"]))
                if not (orc.close(lhs, exp["lhs"]) and orc.close(rhs, exp["rhs"])
                        and orc.close(float(row["gap"]), exp["rhs"] - exp["lhs"], scale)):
                    problems.append(f"lhs/rhs/gap {lhs}, {rhs} vs LAPACK "
                                    f"{exp['lhs']}, {exp['rhs']}")
                holds = row["holds"] == "true"
                if exp["holds"] is not None and holds != exp["holds"]:
                    problems.append(f"holds={holds}, oracle {exp['holds']}")
                if ref_red is not None and holds == (point in ref_red):
                    problems.append(f"holds={holds} differs from reference")
                sign = None if row["sign_value"] == "" else int(row["sign_value"])
                if sign != exp["sign"]:
                    problems.append(f"sign_value={sign}, oracle {exp['sign']}")
                if ref_signs is not None and lemma == "4.2" and (
                        (sign is not None and sign >= 0) != (point in ref_signs)):
                    problems.append("transfer sign differs from reference")
            tally.op(label, problems)

    def _check_moments(self, calls, call, tally):
        specs = self.inputs.data["families"]
        labels = [f"moments {spec}" for spec in specs]
        lines = [c.stdout.strip() for c in calls if c.label.startswith("construct:")]
        construct_bad = [c for c in calls if c.label.startswith("construct:")
                         and _command_problem(c, 0) is not None]
        problem = _command_problem(call, 0, ("moments.json",))
        if problem is None and construct_bad:
            problem = "construct: " + _command_problem(construct_bad[0], 0)
        if problem is None:
            try:
                records = json.loads(call.files["moments.json"])["graphs"]
            except (ValueError, KeyError) as exc:
                problem = f"unreadable output: {exc}"
            else:
                if len(records) != len(specs):
                    problem = f"{len(records)} records for {len(specs)} graphs"
        if problem is not None:
            tally.ops(labels, problem)
            return
        refs = (self.reference["moments"] if self.default_seed else [None] * len(specs))
        for i, (label, spec, line, record) in enumerate(zip(labels, specs, lines, records)):
            problems = []
            family_line = self._memo(("family", i), lambda: _family_graph6(spec))
            if not self._memo(("iso", line, family_line),
                              lambda: orc.isomorphic(line, family_line)):
                problems.append(f"construct gave {line!r}, not the family graph")
            if record.get("graph6") != line or record.get("k_max") != MOMENT_K_MAX:
                problems.append("graph6 or k_max of the record wrong")
            want = self._memo(("moments", i), lambda: _family_moments(spec))
            if record.get("moments") != want:
                problems.append("moments differ from the recurrence")
            if refs[i] is not None and moments_digest(record.get("moments", [])) != refs[i]:
                problems.append("moments differ from the reference")
            tally.op(label, problems)

    def _dominance_problems(self, i, spec, call) -> list[str]:
        if call.error is not None:
            return ["raised: " + call.error.strip().splitlines()[-1]]
        want = self._memo(("dominance", i), lambda: _dominance_oracle(spec))
        report = call.value
        problems = [f"{k}={getattr(report, k, None)!r}, oracle {v!r}"
                    for k, v in want.items() if k not in ("merged", "merged_other")
                    and getattr(report, k, None) != v]
        for key in ("merged", "merged_other"):
            g = getattr(report, key, None)
            if g is None or (g.n, g.edges()) != want[key]:
                problems.append(f"{key} differs from the documented identification")
        if getattr(report, "k_max", None) != WALK_K_MAX:
            problems.append("k_max wrong")
        if self.default_seed:
            ref = self.reference["dominance"][i]
            got = dominance_record(report)
            if got != ref:
                problems.append("differs from the reference")
        return problems


def dominance_record(report) -> dict:
    """JSON-able form of a dominance report, for the reference."""
    record = {k: getattr(report, k) for k in (
        "part_moments_ok", "first_part_violation", "anchored_ok",
        "first_anchored_violation", "strict_premise", "conclusion_ok",
        "first_conclusion_violation")}
    record = {k: list(v) if isinstance(v, tuple) else v for k, v in record.items()}
    for key in ("merged", "merged_other"):
        g = getattr(report, key)
        record[key] = encode_graph6(g.n, g.edges())
    return record


def _csv_matches(cell: str, value) -> bool:
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, float):
        return cell != "" and float(cell) == value
    return cell == str(value)


def _compute_oracle(graph: dict) -> dict:
    n, edges, left = graph["n"], graph["edges"], graph["left"]
    eig = orc.spectrum(n, edges)
    return {"graph6": graph["graph6"], "n": n, "m": len(edges),
            "eigenvalues": [float(x) for x in eig],
            "ee": float(sum(orc.np.exp(eig))),
            "nullity": orc.bipartite_nullity(n, edges, left),
            "matching_number": orc.bipartite_matching(n, edges, left),
            "vertex_connectivity": orc.invariant("vertex-connectivity", n, edges),
            "edge_connectivity": orc.invariant("edge-connectivity", n, edges),
            "tolerance": TOLERANCE}


def _compute_problems(rec: dict, exp: dict) -> list[str]:
    problems = [f"{k}={rec.get(k)!r}, oracle {exp[k]!r}"
                for k in EXACT_COMPUTE_FIELDS if rec.get(k) != exp[k]]
    eig = rec.get("eigenvalues") or []
    scale = max(1.0, abs(exp["eigenvalues"][0]))
    if len(eig) != len(exp["eigenvalues"]) or not all(
            orc.close(a, b, scale) for a, b in zip(eig, exp["eigenvalues"])):
        problems.append("eigenvalues disagree with LAPACK")
    for key in ("estrada_eigen", "estrada_cosh", "estrada_moment_series"):
        if not orc.close(rec.get(key), exp["ee"]):
            problems.append(f"{key}={rec.get(key)!r}, LAPACK {exp['ee']!r}")
    if not orc.series_bound_ok(rec.get("error_bound")):
        problems.append(f"error_bound={rec.get('error_bound')!r} not below 1e-10")
    if "note" in rec:
        problems.append("bipartite input reported as not bipartite")
    return problems


def _reference_problems(rec: dict, ref: dict) -> list[str]:
    problems = [f"{k}={rec.get(k)!r}, reference {ref[k]!r}"
                for k in EXACT_COMPUTE_FIELDS if rec.get(k) != ref[k]]
    problems += [f"{k} differs from the reference" for k in FLOAT_COMPUTE_FIELDS
                 if not orc.close(rec.get(k), ref[k])]
    eig = rec.get("eigenvalues") or []
    scale = max(1.0, abs(ref["eigenvalues"][0]))
    if len(eig) != len(ref["eigenvalues"]) or not all(
            orc.close(a, b, scale) for a, b in zip(eig, ref["eigenvalues"])):
        problems.append("eigenvalues differ from the reference")
    return problems


def _compare_oracle(lemma: str, points) -> list[dict]:
    if lemma == "4.3":
        lhs = orc.split_ee([(s, n - s) for n, s, _p, _q in points])
        rhs = orc.join_ee([(s, n - s - 2, 1) for n, s, _p, _q in points])
        signs = [orc.split_sign(n, s) for n, s, _p, _q in points]
    else:
        lhs = orc.join_ee([(s, p, q) for _n, s, p, q in points])
        if lemma == "4.1":
            rhs = orc.join_ee([(s, q + s, p - s) for _n, s, p, q in points])
            signs = [None] * len(points)
        else:
            rhs = orc.join_ee([(s, p - 1, q + 1) for _n, s, p, q in points])
            signs = [orc.transfer_sign(s, p, q) for _n, s, p, q in points]
    out = []
    for a, b, sign in zip(lhs, rhs, signs):
        decided = abs(b - a) > 1e-12 * max(abs(a), abs(b))
        out.append({"lhs": float(a), "rhs": float(b), "sign": sign,
                    "holds": bool(a < b) if decided else None})
    return out


def _family_edges(spec: dict) -> tuple[int, list]:
    if spec["family"] == "complete-bipartite":
        return spec["p"] + spec["q"], block_edges(spec["p"], spec["q"])
    s, p, q = spec["s"], spec["p"], spec["q"]
    apex, core = s + p + q, range(s)          # any labelling: compared up to iso
    p_side, q_side = range(s, s + p), range(s + p, s + p + q)
    edges = [(o, apex) for o in core] + [(o, x) for o in core for x in p_side]
    edges += [(x, y) for x in p_side for y in q_side]
    return s + p + q + 1, edges


def _family_graph6(spec: dict) -> str:
    return encode_graph6(*_family_edges(spec))


def _family_moments(spec: dict) -> list[int]:
    if spec["family"] == "complete-bipartite":
        return orc.split_moments(spec["p"], spec["q"], MOMENT_K_MAX)
    return orc.join_moments(spec["s"], spec["p"], spec["q"], MOMENT_K_MAX)


def _dominance_oracle(spec: dict) -> dict:
    s, p, q = spec["s"], spec["p"], spec["q"]
    core = (s + 1, star_edges(s))
    anchors_core, anchors_block = tuple(range(1, s + 1)), tuple(range(s))
    parts = ((core, anchors_core, (p + q, block_edges(p, q)), anchors_block),
             (core, anchors_core, (p + q, block_edges(q, p)), anchors_block))
    return orc.dominance(parts, WALK_K_MAX)
