#!/usr/bin/env python3
"""Regenerate ``bench/reference.json`` from the program at the current commit.

    python3 bench/make_reference.py

Runs one pass of every workload at the default seed.  Before anything is
written, the outputs must pass every oracle check of the gate (and, for the
scans, LAPACK and networkx checks of each maximizer), so a reference can only
record verdicts the independent oracles agree with.  Regenerate only when a
change is meant to alter a verdict, and say so in the change.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import run  # program import and paths
import oracles as orc

SCAN_COMMANDS = (("matching", 2, 8, 1), ("matching", 9, 9, 2),
                 ("connectivity", 2, 8, 1), ("edge-connectivity", 2, 8, 1))


def main() -> int:
    pkg = run._import_program()
    from gate import Gate, Tally, dominance_record, moments_digest
    from workloads import GRID, LEMMAS, THEOREM_KINDS, WORKLOADS, ScanWorkload

    reference = {"default_seed": None, "grid": dict(GRID), "scan": {}, "compare": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        scans = ScanWorkload("reference-scans", "", SCAN_COMMANDS)
        inputs = scans.prepare(run.DEFAULT_SEED, workdir)
        for (theorem, n_min, n_max, _w), call in zip(SCAN_COMMANDS,
                                                     scans.run_pass(pkg, inputs)):
            payload = json.loads(call.files[f"verify-{theorem}-{n_min}-{n_max}.json"])
            records = reference["scan"].setdefault(THEOREM_KINDS[theorem], {})
            for rec in payload["classes"]:
                line = rec["maximizer_graph6"]
                if line is not None:
                    n, edges = orc.decode_graph6(line)
                    if orc.invariant(rec["kind"], n, edges) != rec["value"]:
                        raise SystemExit(f"maximizer outside its class: {rec}")
                    if not orc.close(orc.estrada(n, edges), rec["max_ee"]):
                        raise SystemExit(f"max_ee disagrees with LAPACK: {rec}")
                records[f"{rec['n']}:{rec['value']}"] = rec

        for name in ("compute-large", "exact-grid"):
            workload = WORKLOADS[name]
            inputs = workload.prepare(run.DEFAULT_SEED, workdir)
            calls = workload.run_pass(pkg, inputs)
            tally = Tally()
            if name == "exact-grid":
                by_label = {c.label: c for c in calls}
                for lemma in LEMMAS:
                    text = by_label[f"compare:{lemma}"].files[f"compare-{lemma}.csv"]
                    rows = list(csv.DictReader(io.StringIO(text)))
                    point = [tuple(None if r[k] == "" else int(r[k])
                                   for k in ("n", "s", "p", "q")) for r in rows]
                    reference["compare"][lemma] = {
                        "rows": len(rows),
                        "red": [pt for pt, r in zip(point, rows) if r["holds"] != "true"],
                        "transfer_sign_not_negative": [
                            pt for pt, r in zip(point, rows)
                            if lemma == "4.2" and int(r["sign_value"]) >= 0]}
                records = json.loads(by_label["moments"].files["moments.json"])["graphs"]
                reference["moments"] = [moments_digest(r["moments"]) for r in records]
                reference["dominance"] = [dominance_record(c.value) for c in calls
                                          if c.label.startswith("dominance:")]
            else:
                reference["compute"] = json.loads(calls[0].files["compute.json"])["graphs"]
            Gate(workload, inputs, reference).check(calls, tally)
            if tally.failed:
                print("\n".join(tally.messages), file=sys.stderr)
                raise SystemExit(f"{name}: {tally.failed} oracle disagreements")
    reference["default_seed"] = run.DEFAULT_SEED
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
