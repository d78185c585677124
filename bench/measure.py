#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize each metric.

    python3 bench/measure.py --workload scan-n8 --runs 10 [--first-seed 1]
                             [--trace 0|1] [--write-baseline]

Runs ``bench/run.py`` once per seed (one process at a time), then prints for
every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) / median``,
next to a third of the metric's bound from ``BENCHMARK.json`` for end-to-end
metrics.  ``--trace 1`` summarizes the per-layer metrics of traced runs.
With ``--write-baseline`` the summary is stored in ``bench/baseline.json``
under ``baseline/<workload>/end_to_end`` or ``.../per_layer``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False,
                          timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect result\n{done.stderr}")
    return result


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs = [run_once(args.workload, seed, spec["run_seconds"], args.trace) for seed in seeds]
    summary = {}
    for metric in metrics:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if not values:
            print(f"{args.workload:18s} {name}: missing")
            continue
        s = summary[name] = summarize(values)
        bound = (f" (bound/3 {metric['bound'] / 3:.4f})" if "bound" in metric else "")
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{args.workload:18s} {name:12s} median {s['median']:.6g} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} spread {spread}{bound}  values "
              + " ".join(f"{v:.4g}" for v in values))
    if args.write_baseline:
        path = BENCH / "baseline.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        entry = data["baseline"].setdefault(args.workload, {})
        entry["per_layer" if args.trace else "end_to_end"] = {
            "seeds": [seeds[0], seeds[-1]],
            "attempted_per_run": [r["attempted"] for r in runs],
            "metrics": summary}
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
