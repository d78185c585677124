#!/usr/bin/env python3
"""Benchmark of bipartite-estrada.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) from the root of a source checkout,
against the package under ``src/``.  Set-up generates the seeded inputs and
loads the stored reference; it is repeated and its median reported.  Then
whole passes of the workload run back to back until the next one would end
after ``--seconds``; every pass is timed with tracing off and every output is
checked by the gate (``gate.py``).  ``--trace 1`` spends half the time on
untraced passes and the rest on passes with the per-layer wrappers of
``tracing.py`` installed, and reports per-layer metrics instead.

End-to-end metrics (``--trace 0``):

* ``setup_s``: process start to the first timed call (imports, then the
  median of repeated input generation plus reference loading);
* ``wall_s``: median over passes of one pass's command time;
* ``items_per_s``: items of one pass over ``wall_s`` (labelled masks scanned,
  input graphs reported, or grid points + moment records + walk checks);
* ``cpu_s``: median over passes of user + system time of this process and
  its reaped pool workers;
* ``peak_rss_mb``: peak resident set of this process plus that of its largest
  reaped child, over set-up and the first pass (later passes keep their
  outputs in memory for the gate, which would inflate it).

The error rate is ``failed / attempted`` of the result line; it is printed
with the metrics but is not one of them, since a metric must never read 0.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2, with no
result line, when the program's sources or the reference are missing.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = "1"
SETUP_REPEATS = 5
DEFAULT_SEED = 0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
                    "cpu_s": "s", "peak_rss_mb": "MB"}


def _fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


def _import_program():
    """Import numpy (BLAS pinned) and the package from this checkout's src/."""
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    os.environ["OMP_NUM_THREADS"] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "bipartite_estrada" / "__init__.py").is_file():
        _fail(f"no package sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import bipartite_estrada as pkg
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        _fail(f"imported bipartite_estrada from {pkg.__file__}, not {src}")
    from bipartite_estrada import (cli, families, graph, invariants, quartic,  # noqa: F401
                                   search, spectral, walks)
    return pkg


def _label(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                             text=True, check=False).stdout.strip() or "unknown"
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                text=True, check=False).stdout
        dirty = bool(status.strip())
    return {"git_rev": rev, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "seed": seed}


def _cpu() -> float:
    """User plus system seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _measure(workload, pkg, inputs, budget: float, min_passes: int = 1) -> list[dict]:
    """Whole passes, back to back, while the next is expected to fit."""
    passes = []
    start = time.perf_counter()
    while True:
        cpu0 = _cpu()
        calls = workload.run_pass(pkg, inputs)
        cpu = _cpu() - cpu0
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        passes.append({"wall": sum(c.seconds for c in calls), "cpu": cpu,
                       "rss_kb": rss_kb, "calls": calls})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical > budget:
            return passes


def main(argv=None) -> int:
    from workloads import WORKLOADS  # noqa: E402  (needs sys.path set up)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pkg = _import_program()
    import_s = time.perf_counter() - T_START
    from gate import Gate, Tally
    workload = WORKLOADS[args.workload]
    reference_path = BENCH / "reference.json"
    if not reference_path.is_file():
        _fail(f"missing {reference_path}")

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    os.environ["TMPDIR"] = str(workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.prepare(args.seed, workdir)
            reference = json.loads(reference_path.read_text(encoding="utf-8"))
            setups.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            from tracing import OVERHEAD_METRIC, Tracer, install, layer_metrics
            plain = _measure(workload, pkg, inputs, args.seconds / 2)
            tracer = Tracer()
            install(tracer, pkg)
            try:
                traced = _measure(workload, pkg, inputs,
                                  args.seconds - sum(p["wall"] for p in plain))
            finally:
                tracer.uninstall()
            passes = plain + traced
        else:
            passes = _measure(workload, pkg, inputs, args.seconds)

        gate = Gate(workload, inputs, reference)
        tally = Tally()
        for p in passes:
            gate.check(p["calls"], tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass

    print(json.dumps({"label": _label(args.seed)}))
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    walls = [p["wall"] for p in passes]
    if args.trace:
        traced_wall = statistics.median(p["wall"] for p in traced)
        metrics, missing = layer_metrics(tracer, len(traced))
        metrics[OVERHEAD_METRIC] = {
            "value": traced_wall / statistics.median(p["wall"] for p in plain) - 1.0,
            "unit": "ratio"}
        for name in missing:
            print(f"missing per-layer metric {name}: a wrapped name is gone")
    else:
        wall = statistics.median(walls)
        values = {"setup_s": setup_s, "wall_s": wall,
                  "items_per_s": workload.items(inputs) / wall,
                  "cpu_s": statistics.median(p["cpu"] for p in passes),
                  "peak_rss_mb": passes[0]["rss_kb"] / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"workload {args.workload}: {len(passes)} passes, pass walls "
          + " ".join(f"{w:.3f}" for w in walls) + " s")
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':44s} {error_rate:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    print(json.dumps({"correct": tally.failed == 0 and tally.attempted > 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
