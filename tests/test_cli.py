"""End-to-end command-line behaviour, exit codes, and report determinism."""

import hashlib
import json
import math
import random

import networkx as nx
import numpy as np
import pytest

from bipartite_estrada import cli, families, quartic, spectral
from bipartite_estrada.cli import main
from bipartite_estrada.families import complete_bipartite, join_family
from bipartite_estrada.graph import Graph, emit_graph6, parse_graph6
from bipartite_estrada.search import is_isomorphic
from oracles import csv_reference

K23 = "D]o"       # complete split with sides 2 and 3
TRIANGLE = "Bw"


def _no_scan(*args, **kwargs):
    raise AssertionError("a rejected flag must stop before any scan")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_single_vertex(self, capsys):
        code, out, _ = run(capsys, "compute", "--graph6", "@", "--format", "json")
        assert code == 0
        data = json.loads(out)["graphs"][0]
        assert data["n"] == 1 and data["m"] == 0
        assert data["estrada_eigen"] == pytest.approx(1.0, abs=1e-12)

    def test_complete_bipartite_values(self, capsys):
        code, out, _ = run(capsys, "compute", "--graph6", K23, "--format", "json")
        assert code == 0
        data = json.loads(out)["graphs"][0]
        assert data["nullity"] == 3
        expected = 3 + 2 * math.cosh(math.sqrt(6))
        assert data["estrada_eigen"] == pytest.approx(expected, abs=1e-9)
        assert data["estrada_cosh"] == pytest.approx(expected, abs=1e-9)
        assert data["matching_number"] == 2
        assert data["vertex_connectivity"] == 2
        assert data["edge_connectivity"] == 2

    def test_edge_connectivity_by_whitney(self, capsys, monkeypatch):
        # kappa <= lambda <= delta: the edge flows run only when kappa < delta
        k33 = [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)]
        shared = k33 + [(u, v) for u in (0, 6, 7) for v in (8, 9, 10)]
        bridged = k33 + [(u + 6, v + 6) for u, v in k33] + [(0, 6)]
        c4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
        k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        graphs = [
            Graph.from_edges(11, shared),   # 1 = kappa < lambda = delta = 3
            Graph.from_edges(12, bridged),  # 1 = kappa = lambda < delta = 3
            complete_bipartite(31, 31),     # kappa = lambda = delta = 31
            Graph.from_edges(8, c4 + [(u + 4, v + 4) for u, v in c4]),  # disconnected
            Graph.from_edges(6, [(0, 2), (0, 3), (1, 2), (1, 3)]),     # vertex 5 isolated
            Graph.from_edges(5, k5),
            Graph(1, [0]),
        ]
        flows = []
        edge_connectivity = cli.edge_connectivity

        def counted(g):
            flows.append(g)
            return edge_connectivity(g)

        monkeypatch.setattr(cli, "edge_connectivity", counted)
        for g in graphs:
            flows.clear()
            code, out, _ = run(capsys, "compute", "--graph6", emit_graph6(g),
                               "--format", "json")
            assert code == 0
            data = json.loads(out)["graphs"][0]
            ref = nx.Graph(g.edges())
            ref.add_nodes_from(range(g.n))
            assert data["vertex_connectivity"] == nx.node_connectivity(ref)
            assert data["edge_connectivity"] == nx.edge_connectivity(ref)
            delta = min(g.degree(v) for v in range(g.n))
            assert len(flows) == (data["vertex_connectivity"] < delta)

    def test_triangle_omits_cosh(self, capsys):
        code, out, _ = run(capsys, "compute", "--graph6", TRIANGLE,
                           "--format", "json")
        assert code == 0
        data = json.loads(out)["graphs"][0]
        assert "estrada_cosh" not in data
        assert "not bipartite" in data["note"]
        expected = math.exp(2) + 2 * math.exp(-1)
        assert data["estrada_eigen"] == pytest.approx(expected, abs=1e-9)

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("@\nA_\n", encoding="utf-8")
        code, out, _ = run(capsys, "compute", "--file", str(path),
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)["graphs"]) == 2

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "compute", "--graph6", K23)
        assert code == 0
        assert "estrada (eigen)" in out

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "compute", "--graph6", K23, "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("graph6,n,m,nullity")
        assert row.startswith(f"{K23},5,6,3")

    def test_parse_error_exit3(self, capsys):
        code, _, err = run(capsys, "compute", "--graph6", "~oops")
        assert code == 3 and "parse error" in err

    @pytest.mark.parametrize("command", ["compute", "moments"])
    def test_unreadable_file_exit3(self, capsys, tmp_path, command):
        # a directory, a missing file and a file that is not UTF-8 are parse
        # errors, not tracebacks with the verification-failure code
        binary = tmp_path / "binary.g6"
        binary.write_bytes(b"D]o\n\xff\xfe\n")
        for path in (tmp_path, tmp_path / "missing.g6", binary):
            code, out, err = run(capsys, command, "--file", str(path))
            assert code == 3 and err.startswith("parse error:") and out == ""

    def test_missing_input_exit2(self, capsys):
        code, _, err = run(capsys, "compute")
        assert code == 2 and "usage error" in err

    def test_both_inputs_exit2(self, capsys, tmp_path):
        path = tmp_path / "g.g6"
        path.write_text("@\n", encoding="utf-8")
        code, _, _ = run(capsys, "compute", "--graph6", "@", "--file", str(path))
        assert code == 2

    def test_one_trace_run_per_graph(self, capsys, monkeypatch, tmp_path):
        # nullity and moment series share the characteristic polynomial of
        # each graph; the repeated K23 is a new graph after the triangle
        calls = []

        def counting(g, original=spectral._trace_kernel):
            calls.append(g.n)
            return original(g)

        monkeypatch.setattr(spectral, "_trace_kernel", counting)
        spectral._char_poly.cache_clear()
        path = tmp_path / "graphs.g6"
        path.write_text(f"{K23}\n{TRIANGLE}\n{K23}\n")
        code, out, _ = run(capsys, "compute", "--file", str(path),
                           "--format", "json")
        assert code == 0
        assert calls == [5, 3, 5]  # one polynomial per graph in turn
        records = json.loads(out)["graphs"]
        assert records[0] == records[2]


class TestConstruct:
    def test_join(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "join",
                           "--s", "1", "--p", "3", "--q", "2",
                           "--format", "json")
        assert code == 0
        assert parse_graph6(out.strip()) == join_family(1, 3, 2)

    def test_complete_bipartite(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "complete-bipartite",
                           "--p", "2", "--q", "4", "--format", "json")
        assert code == 0
        assert parse_graph6(out.strip()) == complete_bipartite(2, 4)

    def test_degenerate_join_is_complete_split(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "join",
                           "--s", "2", "--p", "2", "--q", "0", "--format", "json")
        assert code == 0
        assert is_isomorphic(parse_graph6(out.strip()), complete_bipartite(2, 3))

    def test_cover_families(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "g-double-star",
                           "--x1", "2", "--x2", "1", "--y1", "1", "--y2", "1",
                           "--format", "json")
        assert code == 0
        assert is_isomorphic(parse_graph6(out.strip()), complete_bipartite(2, 3))

    def test_text_summary(self, capsys):
        code, out, _ = run(capsys, "construct", "--family", "join",
                           "--s", "1", "--p", "1", "--q", "1")
        assert code == 0
        line, comment = out.strip().split("\n")
        assert comment.startswith("#") and "n=4" in comment
        assert parse_graph6(line).n == 4

    def test_missing_parameter_exit2(self, capsys):
        code, _, err = run(capsys, "construct", "--family", "join", "--s", "1")
        assert code == 2 and "needs --p" in err

    def test_invalid_parameter_exit2(self, capsys):
        code, _, _ = run(capsys, "construct", "--family", "join",
                         "--s", "0", "--p", "1", "--q", "1")
        assert code == 2

    @pytest.mark.parametrize("sizes", [
        "--family complete-bipartite --p 150 --q 150",
        "--family join --s 1 --p 150 --q 150",
        "--family join-double --s 1 --n1 100 --n2 100 --m1 50 --m2 50",
        "--family g-star --x1 100 --x2 100 --y1 1 --y2 100",
        "--family g-double-star --x1 100 --x2 100 --y1 1 --y2 100",
    ])
    def test_order_above_62_exit2_before_any_edge_list(self, capsys,
                                                         monkeypatch, sizes):
        def build(*args):
            raise AssertionError("an edge list was handed to a graph constructor")
        monkeypatch.setattr(families.Graph, "from_edges", build)
        monkeypatch.setattr(families, "from_biadjacency", build)
        code, out, err = run(capsys, "construct", *sizes.split())
        assert code == 2 and out == ""
        assert err.startswith("usage error:") and "maximum 62" in err


class TestMoments:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "moments", "--graph6", K23,
                           "--k-max", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)["graphs"][0]
        assert data["moments"] == [5, 0, 12, 0, 72, 0, 432]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "moments", "--graph6", "A_",
                           "--k-max", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "graph6,k,moment"
        assert lines[1:] == ["A_,0,2", "A_,1,0", "A_,2,2", "A_,3,0"]

    def test_k_max_out_of_budget_exit2(self, capsys):
        for k_max in ("65", "-1"):
            code, _, err = run(capsys, "moments", "--graph6", K23, "--k-max", k_max)
            assert code == 2 and "usage error" in err


class TestCompare:
    def test_side_swap_grid(self, capsys):
        code, out, _ = run(capsys, "compare", "--lemma", "4.1",
                           "--max-p", "4", "--max-q", "4", "--max-s", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("comparison,")
        assert len(lines) > 1
        assert all(",true," in line for line in lines[1:])

    def test_transfer_grid(self, capsys):
        code, out, _ = run(capsys, "compare", "--lemma", "4.2",
                           "--max-p", "6", "--max-q", "6", "--max-s", "6")
        assert code == 0

    def test_complete_split_grid_reports_failures(self, capsys):
        # the even-boundary points n = 2s + 2 genuinely fail; exit code says so
        code, out, _ = run(capsys, "compare", "--lemma", "4.3",
                           "--max-s", "12", "--max-n", "20")
        assert code == 1
        failing = [line for line in out.strip().split("\n")[1:]
                   if ",false," in line]
        assert failing  # n = 2s+2 rows
        for line in failing:
            fields = line.split(",")
            n, s = int(fields[1]), int(fields[2])
            assert n == 2 * s + 2

    def test_empty_grid_exit2(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        for argv in (["--lemma", "4.3", "--max-n", "3"],
                     ["--lemma", "4.1", "--max-s", "0"],
                     ["--lemma", "4.2", "--max-p", "-3"]):
            code, _, err = run(capsys, "compare", *argv, "--out", str(out))
            assert code == 2 and "usage error" in err
            assert "no applicable point" in err
            assert not out.exists()

    def test_out_in_missing_directory_exit4(self, capsys, tmp_path):
        out = tmp_path / "missing" / "grid.csv"
        code, stdout, err = run(capsys, "compare", "--lemma", "4.1", "--max-p", "4",
                                "--max-q", "4", "--max-s", "4", "--out", str(out))
        assert code == 4 and err.startswith("write error:") and stdout == ""

    def test_float_overflow_exit2(self, capsys, tmp_path):
        # EE(join(p - 1, 2, 1)) needs cosh above 710 from p = 168,259 on
        out = tmp_path / "grid.csv"
        code, _, err = run(capsys, "compare", "--lemma", "4.2", "--max-p", "170000",
                           "--max-q", "1", "--max-s", "1", "--out", str(out))
        assert code == 2 and "usage error" in err
        assert "--max-p, --max-q and --max-s" in err
        assert not out.exists()

    def test_float_overflow_found_before_the_sweep(self, capsys, monkeypatch):
        # the 640,800-point grid fails at its one corner, s = 1
        calls = []
        original = quartic.side_swap_gain

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(quartic, "side_swap_gain", counting)
        code, _, err = run(capsys, "compare", "--lemma", "4.1", "--max-p", "800",
                           "--max-q", "800", "--max-s", "1")
        assert code == 2 and "usage error" in err
        assert calls == [(800, 800, 1)]
        # 2 cosh(709.9993) is inf although cosh itself is finite
        code, _, err = run(capsys, "compare", "--lemma", "4.3", "--max-n", "1420",
                           "--max-s", "709")
        assert code == 2 and "--max-n and --max-s" in err


class TestVerify:
    def test_matching_rows_and_exit(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(capsys, "verify", "--theorem", "matching",
                         "--n-min", "2", "--n-max", "7",
                         "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["all_verified"]
        assert len(payload["classes"]) == sum(n // 2 for n in range(2, 8))
        csv_lines = (tmp_path / "report.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 1 + len(payload["classes"])
        timing = json.loads((tmp_path / "report.timing.json").read_text())
        assert timing["total_seconds"] > 0

    def test_connectivity_reports_refuted_classes(self, capsys, tmp_path):
        out_path = tmp_path / "conn.json"
        code, _, err = run(capsys, "verify", "--theorem", "connectivity",
                           "--n-min", "4", "--n-max", "6",
                           "--out", str(out_path))
        assert code == 1
        payload = json.loads(out_path.read_text())
        bad = [(c["n"], c["value"]) for c in payload["classes"]
               if not (c["matches_prediction"] and c["unique"])]
        # stated formula fails exactly at even n for s < n/2
        assert bad == [(4, 1), (6, 1), (6, 2)]
        assert "verification failed" in err

    def test_graph6_payloads_parse(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        run(capsys, "verify", "--theorem", "matching", "--n-min", "2",
            "--n-max", "5", "--out", str(out_path))
        payload = json.loads(out_path.read_text())
        for record in payload["classes"]:
            g = parse_graph6(record["maximizer_graph6"])
            assert g.n == record["n"]
            p = parse_graph6(record["predicted_graph6"])
            assert is_isomorphic(g, p) == record["matches_prediction"]

    def test_usage_errors(self, capsys):
        assert run(capsys, "verify", "--theorem", "matching",
                   "--n-min", "1", "--n-max", "4")[0] == 2
        assert run(capsys, "verify", "--theorem", "matching",
                   "--n-min", "4", "--n-max", "3")[0] == 2
        assert run(capsys, "verify", "--theorem", "matching",
                   "--n-min", "2", "--n-max", "12")[0] == 2

    def test_order_above_hard_max_exit2_before_scanning(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "find_maximizers", _no_scan)
        code, _, err = run(capsys, "verify", "--theorem", "matching",
                           "--n-max", "13", "--allow-n12")
        assert code == 2 and "usage error" in err

    def test_threads_below_one_exit2(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "find_maximizers", _no_scan)
        for threads in ("0", "-3"):
            code, _, err = run(capsys, "verify", "--theorem", "matching",
                               "--n-max", "4", "--threads", threads)
            assert code == 2 and "usage error" in err

    def test_out_in_missing_directory_exit4(self, capsys, tmp_path):
        # a failed write is neither malformed input (3) nor a refuted class (1)
        out = tmp_path / "missing" / "report.json"
        code, stdout, err = run(capsys, "verify", "--theorem", "matching",
                                "--n-min", "2", "--n-max", "2", "--out", str(out))
        assert code == 4 and err.startswith("write error:") and stdout == ""

    def test_out_in_missing_directory_exit4_before_scanning(self, capsys,
                                                             monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "find_maximizers", _no_scan)
        (tmp_path / "file").write_text("")
        for out in (tmp_path / "missing" / "report.json",
                    tmp_path / "file" / "report.json"):
            code, stdout, err = run(capsys, "verify", "--theorem", "connectivity",
                                    "--n-max", "10", "--out", str(out))
            assert code == 4 and err.startswith("write error:") and stdout == ""
            assert str(out) in err

    def test_out_equal_to_its_csv_sidecar_exit2_before_scanning(self, capsys,
                                                                monkeypatch,
                                                                tmp_path):
        # the CSV sidecar of report.csv is report.csv itself, and would
        # overwrite the JSON report
        monkeypatch.setattr(cli, "find_maximizers", _no_scan)
        code, stdout, err = run(capsys, "verify", "--theorem", "matching",
                                "--n-max", "10", "--out",
                                str(tmp_path / "report.csv"))
        assert code == 2 and err.startswith("usage error:") and stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "verify", "--theorem", "matching",
                           "--n-min", "2", "--n-max", "4")
        assert code == 0
        assert json.loads(out)["all_verified"]


class TestParserReuse:
    def test_outputs_match_a_fresh_parser(self, capsys):
        # one parser serves every call of the process; no option of one
        # call may leak into the next
        join = ["construct", "--family", "join", "--s", "1", "--p", "3", "--q", "2"]
        argvs = [join + ["--format", "json"], join + ["--format", "text"], join,
                 ["compare", "--lemma", "4.1", "--max-p", "3", "--max-q", "3",
                  "--max-s", "2"],
                 ["compute", "--graph6", K23]]
        main(argvs[0])
        parser = cli._parser
        capsys.readouterr()
        for argv in argvs:
            got = run(capsys, *argv)
            args = cli.build_parser().parse_args(argv)
            code = args.func(args)
            fresh = capsys.readouterr()
            assert got == (code, fresh.out, fresh.err)
        assert cli._parser is parser


class TestDeterministicSerialization:
    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run(capsys, "compute", "--graph6", K23, "--format", "json")
        value = json.loads(out)["graphs"][0]["estrada_eigen"]
        assert f"{value:.17g}" in out

    def test_verify_bytes_identical_across_workers(self, capsys, tmp_path):
        blobs = []
        for workers in ("1", "2"):
            out_path = tmp_path / f"w{workers}.json"
            code, _, _ = run(capsys, "verify", "--theorem", "connectivity",
                             "--n-min", "4", "--n-max", "6",
                             "--threads", workers, "--out", str(out_path))
            assert code == 1
            blobs.append((out_path.read_bytes(),
                          out_path.with_suffix(".csv").read_bytes()))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("theorem", ["matching", "connectivity",
                                         "edge-connectivity"])
    def test_verify_bytes_identical_for_threads_1_2_3(self, capsys, tmp_path,
                                                      theorem):
        blobs = set()
        for workers in ("1", "2", "3"):
            out_path = tmp_path / f"w{workers}.json"
            run(capsys, "verify", "--theorem", theorem, "--n-min", "7",
                "--n-max", "7", "--threads", workers, "--out", str(out_path))
            blobs.add((out_path.read_bytes(),
                       out_path.with_suffix(".csv").read_bytes()))
        assert len(blobs) == 1


# the benchmark's compare grid and the sha256 of each compare CSV on it
EXACT_GRID = {"max_p": 30, "max_q": 30, "max_s": 30, "max_n": 200}
EXACT_GRID_SHA256 = {
    "4.1": "4c1f785d8226308ccb360d627921a27650f07b545164656623bb6ec19ea844d2",
    "4.2": "58eebbaab5c55854fc1143a20b4209644ab4fbab8c5e67858311f936fec127d5",
    "4.3": "b95db783ace201de92e81dd3cb56a522035fb21a534371654c88a2e41c78810e",
}
COMPARE_HEADER = ["comparison", "n", "s", "p", "q", "lhs", "rhs", "gap", "holds",
                  "sign_value"]


class TestCsvText:
    @pytest.mark.parametrize("rows", [
        [[None, None, 1], [None, 2, None], [None, None, 3]],
        [[True, False, 1], [False, False, 0]],
        [[True, 1, 1.0], [0, False, None]],
        [[-0.0, math.inf, -math.inf], [math.nan, 5e-324, 1e308],
         [0.1, 1 / 3, 1.7976931348623157e308]],
        [[np.int64(7), np.float64(0.1), np.bool_(True)],
         [np.int64(-2), np.float64(-0.0), np.bool_(False)]],
        [[np.int64(7), 7, 0.5], [3, np.float64(0.1), np.float32(0.1)]],
        [["a", 10 ** 40, "%s"], ["b,c", -1, "%.3f"]],
        [[], []],
        [[None, None], [None, None]],
        [],
    ])
    def test_matches_cell_by_cell_reference(self, rows):
        header = [f"c{i}" for i in range(len(rows[0]) if rows else 3)]
        assert cli._csv_text(header, rows) == csv_reference(header, rows)

    def test_random_columns_match_reference(self):
        rng = random.Random(17)
        cells = [None, True, False, 0, -3, 2 ** 70, 0.5, -0.0, math.inf, math.nan,
                 1e-310, "x", np.int64(4), np.float64(2.5), np.bool_(False)]
        for _ in range(300):
            width, height = rng.randint(0, 6), rng.randint(0, 5)
            kinds = [rng.sample(cells, rng.randint(1, 3)) for _ in range(width)]
            rows = [[rng.choice(kind) for kind in kinds] for _ in range(height)]
            header = [f"c{i}" for i in range(width)]
            assert cli._csv_text(header, rows) == csv_reference(header, rows)

    @pytest.mark.parametrize("lemma", sorted(EXACT_GRID_SHA256))
    def test_compare_rows_on_exact_grid(self, capsys, lemma):
        # the verdict record is the row; the columns come from its fields
        verdicts = quartic.sweep(quartic.CLI_LEMMAS[lemma], **EXACT_GRID)
        rows = [[v.name, v.params.get("n"), v.params.get("s"), v.params.get("p"),
                 v.params.get("q"), v.lhs, v.rhs, v.rhs - v.lhs, v.holds,
                 v.sign_value] for v in verdicts]
        want = csv_reference(COMPARE_HEADER, rows)
        assert cli._csv_text(COMPARE_HEADER, [v[:10] for v in verdicts]) == want
        flags = [arg for key, value in EXACT_GRID.items()
                 for arg in ("--" + key.replace("_", "-"), str(value))]
        _, out, _ = run(capsys, "compare", "--lemma", lemma, *flags)
        assert out == want
        assert hashlib.sha256(out.encode()).hexdigest() == EXACT_GRID_SHA256[lemma]
