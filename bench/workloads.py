"""The four workloads: seeded inputs, the commands of one pass, item counts.

Every workload is a closed loop in one process: each command starts when
the previous one has returned.  Commands go through ``cli.main`` in-process;
the walk checks call the public ``walks`` functions.  A pass returns one
:class:`Call` per command with everything the correctness gate needs.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

SCAN_N8_THEOREMS = ("matching", "connectivity", "edge-connectivity")
THEOREM_KINDS = {"matching": "matching", "connectivity": "vertex-connectivity",
                 "edge-connectivity": "edge-connectivity"}
GRID = {"max_p": 30, "max_q": 30, "max_s": 30, "max_n": 200}
LEMMAS = ("4.1", "4.2", "4.3")
MOMENT_K_MAX = 64
JOIN_ORDERS = (14, 22, 30, 38, 45)
SPLIT_ORDERS = (12, 24, 36, 44)
DOMINANCE_INSTANCES = 16
TWIN_INSTANCES = 16
WALK_K_MAX = 20


@dataclass
class Call:
    """One timed operation of a pass and what it produced."""

    label: str
    seconds: float
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    files: dict = field(default_factory=dict)
    value: object = None
    error: str | None = None


def cli_call(pkg, label: str, argv: list[str], outputs=()) -> Call:
    """Run ``cli.main(argv)`` with captured streams; read its output files."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pkg.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    files = {Path(p).name: Path(p).read_text(encoding="utf-8")
             for p in outputs if Path(p).exists()}
    return Call(label, seconds, code, out.getvalue(), err.getvalue(), files,
                error=error)


def lib_call(label: str, fn, *args, **kwargs) -> Call:
    """Time one library call; an exception is recorded, not raised."""
    value, error = None, None
    t0 = time.perf_counter()
    try:
        value = fn(*args, **kwargs)
    except Exception:
        error = traceback.format_exc()
    return Call(label, time.perf_counter() - t0, value=value, error=error)


# ---------------------------------------------------------------------------
# seeded graph generation (independent of the library)
# ---------------------------------------------------------------------------

def encode_graph6(n: int, edges) -> str:
    """graph6 text of a simple graph with n <= 62 vertices."""
    adj = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chunks = [chr(63 + int("".join(map(str, bits[k:k + 6])), 2))
              for k in range(0, len(bits), 6)]
    return chr(63 + n) + "".join(chunks)


def biregular(rng: random.Random, a: int, b: int, da: int) -> list[tuple[int, int]]:
    """Random simple bipartite graph, left 0..a-1 of degree ``da``, right
    a..a+b-1 of degree ``a*da/b``: a circulant start randomized by
    degree-preserving double-edge swaps."""
    if (a * da) % b or da > b:
        raise ValueError("no circulant biregular graph with these sizes")
    right = list(range(b))
    rng.shuffle(right)
    edges = [(i, a + right[(i * da + t) % b]) for i in range(a) for t in range(da)]
    present = set(edges)
    for _ in range(10 * len(edges)):
        i, j = rng.randrange(len(edges)), rng.randrange(len(edges))
        (u1, v1), (u2, v2) = edges[i], edges[j]
        if u1 == u2 or v1 == v2 or (u1, v2) in present or (u2, v1) in present:
            continue
        present -= {(u1, v1), (u2, v2)}
        present |= {(u1, v2), (u2, v1)}
        edges[i], edges[j] = (u1, v2), (u2, v1)
    return sorted(edges)


def relabel(rng: random.Random, n: int, left: list[int], edges) -> dict:
    """Randomly permute vertex labels; keep track of the left side."""
    perm = list(range(n))
    rng.shuffle(perm)
    new_edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    new_left = sorted(perm[v] for v in left)
    return {"n": n, "edges": new_edges, "left": new_left,
            "graph6": encode_graph6(n, new_edges)}


def large_graphs(rng: random.Random) -> list[dict]:
    """K_{31,31} plus five random bipartite graphs at n = 30 and n = 62 with
    fixed degree sequences, so that every seed costs about the same."""
    specs = []
    k31 = [(i, 31 + j) for i in range(31) for j in range(31)]
    specs.append(("K31,31", 62, list(range(31)), k31))
    for name, a, b, da in (("n30-sparse", 15, 15, 4), ("n30-dense", 15, 15, 11),
                           ("n62-half", 31, 31, 16), ("n62-split20-42", 20, 42, 21)):
        specs.append((name, a + b, list(range(a)), biregular(rng, a, b, da)))
    first = biregular(rng, 8, 8, 3)
    second = [(16 + u, 16 + v) for u, v in biregular(rng, 7, 7, 5)]
    specs.append(("n30-disconnected", 30, list(range(8)) + list(range(16, 23)),
                  first + second))
    graphs = []
    for name, n, left, edges in specs:
        graph = relabel(rng, n, left, edges)
        graph["name"] = name
        graphs.append(graph)
    return graphs


def family_specs(rng: random.Random) -> list[dict]:
    """Seeded apex joins and complete splits of fixed orders."""
    specs = []
    for n in JOIN_ORDERS:
        s = rng.randint(2, 4)
        p = rng.randint(n // 3, n // 2)
        specs.append({"family": "join", "s": s, "p": p, "q": n - 1 - s - p})
    for n in SPLIT_ORDERS:
        p = rng.randint(n // 3, n // 2)
        specs.append({"family": "complete-bipartite", "p": p, "q": n - p})
    return specs


def dominance_specs(rng: random.Random) -> list[dict]:
    """Block swaps under a star core: K_{p,q} against K_{q,p}, s anchors."""
    specs = []
    for _ in range(DOMINANCE_INSTANCES):
        s = rng.randint(1, 3)
        specs.append({"s": s, "p": rng.randint(s, 6), "q": rng.randint(s, 6)})
    return specs


def twin_specs(rng: random.Random) -> list[dict]:
    """Random bipartite graphs on 5 + 6 vertices plus a copy of one vertex."""
    specs = []
    for _ in range(TWIN_INSTANCES):
        edges = [(i, 5 + j) for i in range(5) for j in range(6) if rng.random() < 0.5]
        v = rng.randrange(11)
        neighbours = [y if x == v else x for x, y in edges if v in (x, y)]
        specs.append({"n": 12, "edges": edges + [(w, 11) for w in neighbours],
                      "u": v, "v": 11})
    return specs


def grid_points(lemma: str, grid: dict) -> list[tuple]:
    """Applicable ``(n, s, p, q)`` points of one comparison, in sweep order,
    from the applicability conditions stated in the paper."""
    s_range = range(1, grid["max_s"] + 1)
    if lemma == "4.1":
        return [(None, s, p, q) for s in s_range for p in range(1, grid["max_p"] + 1)
                for q in range(0, grid["max_q"] + 1) if s <= p < q + s]
    if lemma == "4.2":
        return [(None, s, p, q) for s in s_range for p in range(1, grid["max_p"] + 1)
                for q in range(1, grid["max_q"] + 1) if p > q + s + 1]
    return [(n, s, None, None) for n in range(4, grid["max_n"] + 1) for s in s_range
            if s <= -(-(n - 1) // 2) - 1 and n - s - 2 >= 1]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def scanned_masks(n_min: int, n_max: int) -> int:
    return sum(1 << (a * (n - a)) for n in range(n_min, n_max + 1)
               for a in range(1, n // 2 + 1))


@dataclass
class Inputs:
    seed: int
    workdir: Path
    data: dict


class Workload:
    name = ""
    why = ""

    def prepare(self, seed: int, workdir: Path) -> Inputs:
        raise NotImplementedError

    def run_pass(self, pkg, inputs: Inputs) -> list[Call]:
        raise NotImplementedError

    def items(self, inputs: Inputs) -> int:
        raise NotImplementedError


class ScanWorkload(Workload):
    def __init__(self, name, why, commands):
        self.name, self.why = name, why
        self.commands = commands  # (theorem, n_min, n_max, threads)

    def prepare(self, seed, workdir):
        return Inputs(seed, workdir, {"commands": self.commands})

    def run_pass(self, pkg, inputs):
        calls = []
        for theorem, n_min, n_max, threads in self.commands:
            out = inputs.workdir / f"verify-{theorem}-{n_min}-{n_max}.json"
            argv = ["verify", "--theorem", theorem, "--n-max", str(n_max),
                    "--out", str(out)]
            if n_min != 2:
                argv[3:3] = ["--n-min", str(n_min)]
            if threads != 1:
                argv += ["--threads", str(threads)]
            calls.append(cli_call(pkg, f"verify:{theorem}:{n_min}:{n_max}", argv,
                                  [out, out.with_suffix(".csv"),
                                   out.with_suffix(".timing.json")]))
        return calls

    def items(self, inputs):
        return sum(scanned_masks(n_min, n_max)
                   for _t, n_min, n_max, _w in self.commands)


class ComputeLarge(Workload):
    name = "compute-large"
    why = ("compute --format json on K31,31 and five seeded bipartite graphs at "
           "n=30/62; bypasses search; loads spectral Jacobi+moments, invariants "
           "flows, graph, cli")

    def prepare(self, seed, workdir):
        graphs = large_graphs(random.Random(f"compute-large:{seed}"))
        path = workdir / "large.g6"
        path.write_text("".join(g["graph6"] + "\n" for g in graphs), encoding="utf-8")
        return Inputs(seed, workdir, {"graphs": graphs, "file": path})

    def run_pass(self, pkg, inputs):
        out = inputs.workdir / "compute.json"
        argv = ["compute", "--file", str(inputs.data["file"]), "--format", "json",
                "--out", str(out)]
        return [cli_call(pkg, "compute", argv, [out])]

    def items(self, inputs):
        return len(inputs.data["graphs"])


class ExactGrid(Workload):
    name = "exact-grid"
    why = ("exact-integer paths only: compare 4.1-4.3 on p,q,s<=30, n<=200, "
           "construct+moments k=64 up to n=45, seeded dominance and twin checks; "
           "loads quartic, walks, spectral moments, families")

    def prepare(self, seed, workdir):
        rng = random.Random(f"exact-grid:{seed}")
        data = {"grid": dict(GRID), "families": family_specs(rng),
                "dominance": dominance_specs(rng), "twins": twin_specs(rng)}
        (workdir / "exact-grid.inputs").write_text(repr(data), encoding="utf-8")
        return Inputs(seed, workdir, data)

    def run_pass(self, pkg, inputs):
        data, workdir = inputs.data, inputs.workdir
        grid = data["grid"]
        calls = []
        for lemma in LEMMAS:
            out = workdir / f"compare-{lemma}.csv"
            argv = ["compare", "--lemma", lemma, "--max-p", str(grid["max_p"]),
                    "--max-q", str(grid["max_q"]), "--max-s", str(grid["max_s"]),
                    "--max-n", str(grid["max_n"]), "--out", str(out)]
            calls.append(cli_call(pkg, f"compare:{lemma}", argv, [out]))
        lines = []
        for i, spec in enumerate(data["families"]):
            argv = ["construct", "--family", spec["family"], "--format", "json"]
            for key in ("s", "p", "q"):
                if key in spec:
                    argv += [f"--{key}", str(spec[key])]
            call = cli_call(pkg, f"construct:{i}", argv)
            calls.append(call)
            lines.append(call.stdout.strip())
        graphs = workdir / "families.g6"
        graphs.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        out = workdir / "moments.json"
        calls.append(cli_call(pkg, "moments",
                              ["moments", "--file", str(graphs), "--k-max",
                               str(MOMENT_K_MAX), "--format", "json", "--out", str(out)],
                              [out]))
        walks, from_edges = pkg.walks, pkg.graph.Graph.from_edges
        for i, spec in enumerate(data["dominance"]):
            scheme, other = _block_swap(walks, from_edges, spec)
            calls.append(lib_call(f"dominance:{i}", walks.dominance_check,
                                  scheme, other, k_max=WALK_K_MAX))
        for i, spec in enumerate(data["twins"]):
            g = from_edges(spec["n"], spec["edges"])
            calls.append(lib_call(f"twin:{i}", walks.twin_check, g, spec["u"],
                                  spec["v"], k_max=WALK_K_MAX))
        return calls

    def items(self, inputs):
        data = inputs.data
        return (sum(len(grid_points(lemma, data["grid"])) for lemma in LEMMAS)
                + len(data["families"]) + len(data["dominance"]) + len(data["twins"]))


def star_edges(s: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, s + 1)]


def block_edges(p: int, q: int) -> list[tuple[int, int]]:
    return [(i, p + j) for i in range(p) for j in range(q)]


def _block_swap(walks, from_edges, spec):
    s, p, q = spec["s"], spec["p"], spec["q"]
    core = from_edges(s + 1, star_edges(s))
    anchors_core = tuple(range(1, s + 1))
    anchors_block = tuple(range(s))
    scheme = walks.IdentificationScheme(core, anchors_core,
                                        from_edges(p + q, block_edges(p, q)),
                                        anchors_block)
    other = walks.IdentificationScheme(core, anchors_core,
                                       from_edges(p + q, block_edges(q, p)),
                                       anchors_block)
    return scheme, other


WORKLOADS = {
    w.name: w for w in (
        ScanWorkload(
            "scan-n8",
            "verify matching, connectivity, edge-connectivity for n<=8, one process: "
            "loads search scan+finalize, invariants flows, spectral moments; only "
            "place a fused scan pass shows",
            tuple((t, 2, 8, 1) for t in SCAN_N8_THEOREMS)),
        ScanWorkload(
            "scan-n9-matching",
            "verify matching at n=9 with 2 pool workers: loads search batched "
            "eigvalsh, mask decode, Pool/merge and Kuhn matching; no flows, so "
            "flow gains must not show",
            (("matching", 9, 9, 2),)),
        ComputeLarge(),
        ExactGrid(),
    )
}
