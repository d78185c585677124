"""Estrada index machinery for bipartite graphs.

A numpy-based library for the index ``sum(exp(eigenvalue))`` on small
bipartite graphs: exact closed-walk counts and nullity, three index
evaluations, constructors for the extremal families, closed-form analysis of
the apex join family, and exhaustive verification of class-constrained
maximizers with uniqueness up to isomorphism.
"""

from .graph import (Bipartition, Graph, Graph6Error, emit_graph6,
                    find_bipartition, from_biadjacency, parse_graph6)
from .invariants import (ClassDescriptor, class_member, edge_connectivity,
                         is_connected, matching_number, vertex_connectivity)
from .spectral import (EstradaValue, MomentSeries, SpectrumResult, eigenvalues,
                       estrada, moment_series, nullity_exact)
from .walks import (DominanceReport, IdentificationScheme, TwinCheck,
                    WalkCountTable, dominance_check, identify_union,
                    twin_check, walk_counts)
from .families import (CoverPartition, JoinFamilyParams, collapsed_cover_graph,
                       complete_bipartite, join_family, join_family_double,
                       saturated_cover_graph)
from .quartic import (ComparisonVerdict, QuarticForm, complete_bipartite_ee,
                      complete_split_deficit, ee_closed_form, quartic_roots,
                      side_swap_gain, transfer_gain)
from .search import (ExtremalReport, find_maximizers, is_isomorphic,
                     predicted_maximizer)

__version__ = "0.1.0"

__all__ = [
    "Bipartition", "Graph", "Graph6Error", "emit_graph6", "find_bipartition",
    "from_biadjacency", "parse_graph6",
    "ClassDescriptor", "class_member", "edge_connectivity", "is_connected",
    "matching_number", "vertex_connectivity",
    "EstradaValue", "MomentSeries", "SpectrumResult",
    "eigenvalues", "estrada", "moment_series", "nullity_exact",
    "DominanceReport", "IdentificationScheme", "TwinCheck", "WalkCountTable",
    "dominance_check", "identify_union", "twin_check", "walk_counts",
    "CoverPartition", "JoinFamilyParams", "collapsed_cover_graph",
    "complete_bipartite", "join_family", "join_family_double",
    "saturated_cover_graph",
    "ComparisonVerdict", "QuarticForm", "complete_bipartite_ee",
    "complete_split_deficit", "ee_closed_form", "quartic_roots",
    "side_swap_gain", "transfer_gain",
    "ExtremalReport", "find_maximizers", "is_isomorphic",
    "predicted_maximizer",
]
