#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of the program).

    python3 bench/selftest.py

Checks that the gate reports failures on corrupted results, that the metric
names printed are those of ``BENCHMARK.json``, that seeds regenerate inputs
byte for byte, and that the benchmark refuses to run without the program.
Takes about a minute; exits 1 if any check failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

CHECKS: list[tuple[str, bool]] = []


def expect(name: str, ok: bool) -> None:
    CHECKS.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def _failed(gate, calls) -> int:
    from gate import Tally
    tally = Tally()
    gate.check(calls, tally)
    return tally.failed


def _edit(call, name: str, old: str, new: str, count: int = -1) -> None:
    if old not in call.files[name]:
        raise AssertionError(f"{old!r} not found in {name}")
    call.files[name] = call.files[name].replace(old, new, count)


def gate_checks(pkg, workdir: Path) -> None:
    from gate import Gate
    from workloads import (ComputeLarge, ExactGrid, Inputs, ScanWorkload,
                           biregular, encode_graph6, relabel)
    import random
    reference = json.loads((run.BENCH / "reference.json").read_text(encoding="utf-8"))

    scan = ScanWorkload("selftest-scan", "", (("matching", 2, 6, 1),))
    inputs = scan.prepare(0, workdir)
    gate = Gate(scan, inputs, reference)
    expect("scan: clean result passes", _failed(gate, scan.run_pass(pkg, inputs)) == 0)
    calls = scan.run_pass(pkg, inputs)
    _edit(calls[0], "verify-matching-2-6.json", '"class_size": 452', '"class_size": 453', 1)
    expect("scan: changed class_size fails", _failed(gate, calls) > 0)
    calls = scan.run_pass(pkg, inputs)
    k33 = encode_graph6(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    matching = encode_graph6(6, [(0, 3), (1, 4), (2, 5)])
    for name in ("verify-matching-2-6.json", "verify-matching-2-6.csv"):
        _edit(calls[0], name, k33, matching)
    expect("scan: non-isomorphic maximizer fails", _failed(gate, calls) > 0)

    rng = random.Random("selftest")
    graphs = [relabel(rng, 10, list(range(5)), biregular(rng, 5, 5, 2)),
              relabel(rng, 12, list(range(4)), biregular(rng, 4, 8, 4))]
    for i, g in enumerate(graphs):
        g["name"] = f"small-{i}"
    path = workdir / "small.g6"
    path.write_text("".join(g["graph6"] + "\n" for g in graphs), encoding="utf-8")
    compute = ComputeLarge()
    inputs = Inputs(1, workdir, {"graphs": graphs, "file": path})
    gate = Gate(compute, inputs, reference)
    calls = compute.run_pass(pkg, inputs)
    expect("compute: clean result passes", _failed(gate, calls) == 0)
    record = json.loads(calls[0].files["compute.json"])
    record["graphs"][0]["nullity"] += 1
    calls[0].files["compute.json"] = json.dumps(record)
    expect("compute: off-by-one nullity fails", _failed(gate, calls) > 0)

    exact = ExactGrid()
    data = {"grid": {"max_p": 6, "max_q": 6, "max_s": 6, "max_n": 16},
            "families": [{"family": "join", "s": 2, "p": 3, "q": 2},
                         {"family": "complete-bipartite", "p": 3, "q": 4}],
            "dominance": [{"s": 1, "p": 3, "q": 2}],
            "twins": [{"n": 5, "edges": [(0, 2), (1, 2), (0, 4), (1, 4), (1, 3)],
                       "u": 2, "v": 4}]}
    inputs = Inputs(1, workdir, data)
    gate = Gate(exact, inputs, reference)
    calls = exact.run_pass(pkg, inputs)
    expect("exact-grid: clean result passes", _failed(gate, calls) == 0)
    compare = next(c for c in calls if c.label == "compare:4.1")
    _edit(compare, "compare-4.1.csv", ",true,", ",false,", 1)
    expect("exact-grid: flipped holds fails", _failed(gate, calls) > 0)


def seed_checks(workdir: Path) -> None:
    from workloads import WORKLOADS
    for name in ("compute-large", "exact-grid"):
        files = []
        for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
            d = workdir / f"{name}-{sub}"
            d.mkdir()
            WORKLOADS[name].prepare(seed, d)
            files.append(sorted((p.name, p.read_bytes()) for p in d.iterdir()))
        expect(f"{name}: same seed gives byte-identical inputs", files[0] == files[1])
        expect(f"{name}: another seed changes the inputs", files[0] != files[2])


def _result(args: list[str], cwd: Path) -> tuple[int, str]:
    done = subprocess.run([sys.executable, "bench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, check=False, timeout=170)
    return done.returncode, done.stdout


def name_checks() -> None:
    from tracing import PER_LAYER_UNITS
    from workloads import WORKLOADS
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect("end-to-end names and units match BENCHMARK.json",
           end_to_end == run.END_TO_END_UNITS)
    expect("per-layer names and units match BENCHMARK.json", per_layer == PER_LAYER_UNITS)
    expect("workload names and reasons match BENCHMARK.json",
           {w["name"]: w["why"] for w in spec["workloads"]}
           == {name: w.why for name, w in WORKLOADS.items()})
    for trace, wanted in ((0, end_to_end), (1, per_layer)):
        code, out = _result(["--workload", "exact-grid", "--seed", "3", "--seconds", "1",
                             "--trace", str(trace)], run.ROOT)
        result = json.loads(out.strip().splitlines()[-1]) if code == 0 else {}
        printed = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
        expect(f"--trace {trace} prints exactly the BENCHMARK.json metrics",
               printed == wanted and result.get("correct") is True)


def missing_program_check(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, out = _result(["--workload", "exact-grid", "--seed", "0", "--seconds", "1",
                         "--trace", "0"], bare)
    expect("without the program: nonzero exit and no result line",
           code != 0 and '"correct"' not in out)


def main() -> int:
    pkg = run._import_program()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        gate_checks(pkg, workdir)
        seed_checks(workdir)
        missing_program_check(workdir)
    name_checks()
    failed = [name for name, ok in CHECKS if not ok]
    print(f"{len(CHECKS) - len(failed)} of {len(CHECKS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
