#!/usr/bin/env python3
"""Tour of the spectral toolkit: eigenvalues, exact nullity, and the index
computed by three routes.

The index of a graph is sum(exp(eigenvalue)) over the adjacency spectrum.
For bipartite graphs it can also be written as nullity + 2*sum(cosh) over the
positive eigenvalues, and as the everywhere-convergent series
sum_k (closed walks of length k) / k!.  The routes are not independent:
``eigen`` and ``cosh`` read the same LAPACK ``eigvalsh`` spectrum, and the
exact nullity that ``cosh`` adds comes from the same integer trace kernel as
the closed-walk counts of ``moment-series``.  Their agreement checks the
float spectrum against exact integer data.
"""

import math

from bipartite_estrada import (complete_bipartite, eigenvalues, emit_graph6,
                               estrada, moment_series, nullity_exact,
                               parse_graph6)

# ---------------------------------------------------------------------------
# a complete bipartite graph has spectrum {+sqrt(n1 n2), 0, ..., -sqrt(n1 n2)}
# ---------------------------------------------------------------------------
g = complete_bipartite(2, 3)
print(f"complete split with sides 2 and 3  (graph6: {emit_graph6(g)})")
spectrum = eigenvalues(g)
print("  eigenvalues:", [round(x, 6) for x in spectrum.eigenvalues])
print("  exact nullity:", nullity_exact(g))
print("  closed form 3 + 2cosh(sqrt(6)) =", 3 + 2 * math.cosh(math.sqrt(6)))

for method in ("eigen", "cosh", "moment-series"):
    value = estrada(g, method)
    bound = "" if value.error_bound is None else f"  (tail bound {value.error_bound:.2e})"
    print(f"  index via {value.method:>14}: {value.value:.12f}{bound}")

# ---------------------------------------------------------------------------
# the moment series is exact integer data: closed-walk counts
# ---------------------------------------------------------------------------
series = moment_series(g, 8)
print("\nclosed-walk counts M_0..M_8:", list(series.moments))
print("even counts follow 2*(2*3)**k; odd counts vanish on bipartite graphs")

# ---------------------------------------------------------------------------
# any graph6 line works as input; non-bipartite graphs lose the cosh route
# ---------------------------------------------------------------------------
path = parse_graph6("Ch")  # a path on four vertices
golden = (1 + math.sqrt(5)) / 2
print(f"\npath on 4 vertices: eigenvalues should be +-{golden:.6f}, +-{golden - 1:.6f}")
print("  computed:", [round(x, 6) for x in eigenvalues(path).eigenvalues])
print("  index:", estrada(path).value)
