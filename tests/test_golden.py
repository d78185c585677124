"""Golden payloads: ``verify``, ``compute`` and ``moments`` output, byte for byte.

``golden/verify/`` holds the ``verify`` JSON report and its CSV sidecar for
each theorem at each order n = 2..12, one run per order (``--n-min n
--n-max n``), and each run's exit code in ``exit_codes.txt``.  The timing
sidecars are not pinned.  ``golden/compute.json`` and ``golden/moments.json``
are the ``compute --format json`` and ``moments --k-max 64 --format json``
output on ``golden/graphs.g6``: the six compute-large graphs of benchmark
seed 0 (K_{31,31} and five seeded bipartite graphs of order 30 and 62,
written out so that nothing here imports ``bench``), K_{1,1}, the path P_5,
the disconnected K_2 + P_3 and the 5-cycle, which is not bipartite.

These tests regenerate orders 2..10 through ``cli.main``; the CI workflow
checks orders 11 and 12.  Floats are written as ``%.17g`` of LAPACK and
libm results, so a platform whose eigensolver or ``cosh`` differs in the
last bits fails here loudly.  A change that alters a payload on purpose
updates the golden files and names each changed field.
"""

from pathlib import Path

import pytest

from bipartite_estrada import cli

GOLDEN = Path(__file__).parent / "golden"
THEOREMS = ("matching", "connectivity", "edge-connectivity")
ORDERS = range(2, 11)


def _exit_codes() -> dict:
    codes = {}
    for line in (GOLDEN / "verify" / "exit_codes.txt").read_text().splitlines():
        theorem, n, code = line.split()
        codes[theorem, int(n)] = int(code)
    return codes


def test_every_order_has_golden_files():
    codes = _exit_codes()
    assert sorted(codes) == sorted((t, n) for t in THEOREMS for n in range(2, 13))
    for theorem, n in codes:
        for suffix in (".json", ".csv"):
            assert (GOLDEN / "verify" / f"{theorem}-{n}{suffix}").is_file()


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("theorem", THEOREMS)
def test_verify_payload_bytes(tmp_path, capsys, theorem, n):
    out = tmp_path / f"{theorem}-{n}.json"
    code = cli.main(["verify", "--theorem", theorem, "--n-min", str(n),
                     "--n-max", str(n), "--out", str(out)])
    capsys.readouterr()
    assert code == _exit_codes()[theorem, n]
    for suffix in (".json", ".csv"):
        want = (GOLDEN / "verify" / f"{theorem}-{n}{suffix}").read_bytes()
        assert out.with_suffix(suffix).read_bytes() == want, suffix


@pytest.mark.parametrize("command", [["compute"], ["moments", "--k-max", "64"]])
def test_graph_payload_bytes(tmp_path, capsys, command):
    out = tmp_path / "out.json"
    code = cli.main(command + ["--file", str(GOLDEN / "graphs.g6"),
                               "--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{command[0]}.json").read_bytes()
