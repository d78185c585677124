"""Per-layer tracing installed from outside the program.

Wrappers replace the names that calling modules hold (for example
``search._kuhn_matching`` or ``cli.stable_json``) for the length of a traced
pass and are removed afterwards; nothing under ``src/`` is edited.  Spans
are aggregated per name (calls, busy seconds, self seconds) and never kept
per call.  Self time is busy time minus the time of child spans.

Scan batches that run in forked pool workers record into a fresh set of
counters, which travel back to the parent as an attribute of the batch
result; the parent folds them in when the pool hands the result over.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

LAYERS = ("graph", "invariants", "spectral", "walks", "families", "quartic",
          "search", "cli")


class BatchResult(dict):
    """A scan batch result carrying, as ``stats``, the counters its worker
    recorded; pickling keeps the attribute."""


class Tracer:
    """Aggregated span counters plus the wrappers that feed them."""

    def __init__(self):
        self.pid = os.getpid()
        self.stats: defaultdict[str, float] = defaultdict(float)
        self.stack: list[float] = []
        self.missing: set[str] = set()
        self._installed: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _wrapper(self, original, span: str, layer: str, on_return=None,
                 span_of=None):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = span if span_of is None else span_of(args, kwargs)
            stack = tracer.stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception:
                tracer.stats[layer + ".errors"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats = tracer.stats
                stats[name + ".calls"] += 1
                stats[name + ".busy"] += dt
                stats[name + ".self"] += dt - child
            if on_return is not None:
                try:
                    on_return(tracer.stats, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    tracer.missing.add(name)  # the program's data shapes changed
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, span: str, *, on_return=None,
             span_of=None) -> None:
        """Replace ``owner.attr`` by a timing wrapper; note it when absent."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(span)
            return
        layer = span.split(".", 1)[0]
        self._set(owner, attr, self._wrapper(original, span, layer, on_return,
                                             span_of))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- special cases -----------------------------------------------------

    def wrap_outermost(self, owner, attr: str, span: str, on_return) -> None:
        """Wrap a recursive function so only its outermost call is a span."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(span)
            return
        timed = self._wrapper(original, span, span.split(".", 1)[0], on_return)
        depth = [0]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return original(*args, **kwargs)
            depth[0] += 1
            try:
                return timed(*args, **kwargs)
            finally:
                depth[0] -= 1

        self._set(owner, attr, wrapper)

    def wrap_batch(self, owner, attr: str, span: str, on_return) -> None:
        """Wrap the scan batch so that a forked worker ships its counters."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(span)
            return
        timed = self._wrapper(original, span, "search", on_return)
        tracer = self

        @functools.wraps(original)
        def wrapper(task):
            if os.getpid() == tracer.pid:
                return timed(task)
            saved, tracer.stats = tracer.stats, defaultdict(float)
            tracer.stack = []
            try:
                result = BatchResult(timed(task))
                result.stats = dict(tracer.stats)
            finally:
                tracer.stats = saved
            return result

        self._set(owner, attr, wrapper)

    def wrap_pool(self, owner, attr: str, span: str) -> None:
        """Time the parent's waits on ``Pool.imap`` and fold worker counters."""
        pool_cls = getattr(owner, attr, None)
        if pool_cls is None:
            self.missing.add(span)
            return
        tracer = self

        class PoolProxy:
            def __init__(self, *args, **kwargs):
                self._pool = pool_cls(*args, **kwargs)

            def __enter__(self):
                self._pool.__enter__()
                return self

            def __exit__(self, *exc):
                return self._pool.__exit__(*exc)

            def __getattr__(self, name):
                return getattr(self._pool, name)

            def imap(self, *args, **kwargs):
                results = self._pool.imap(*args, **kwargs)
                while True:
                    t0 = time.perf_counter()
                    try:
                        result = next(results)
                    except StopIteration:
                        tracer.stats[span + ".busy"] += time.perf_counter() - t0
                        return
                    tracer.stats[span + ".busy"] += time.perf_counter() - t0
                    tracer.stats[span + ".calls"] += 1
                    for key, value in getattr(result, "stats", {}).items():
                        tracer.stats[key] += value
                    yield result

        self._set(owner, attr, PoolProxy)

    def wrap_module_attr(self, owner, attr: str, member: str, sub: str,
                         span: str) -> None:
        """Wrap ``owner.attr.member.sub`` (e.g. ``search.np.linalg.eigvalsh``)
        for ``owner`` alone, through proxies, leaving the real module alone."""
        module = getattr(owner, attr, None)
        inner = getattr(module, member, None)
        if getattr(inner, sub, None) is None:
            self.missing.add(span)
            return
        inner_proxy = _Proxy(inner)
        inner_proxy.__dict__[sub] = self._wrapper(getattr(inner, sub), span,
                                                  span.split(".", 1)[0])
        outer_proxy = _Proxy(module)
        outer_proxy.__dict__[member] = inner_proxy
        self._set(owner, attr, outer_proxy)


class _Proxy:
    """Attribute-forwarding stand-in for a module, with overrides."""

    def __init__(self, target):
        self.__dict__["_target"] = target

    def __getattr__(self, name):
        return getattr(self._target, name)


# ---------------------------------------------------------------------------
# the layer boundaries of bipartite_estrada
# ---------------------------------------------------------------------------

def _count_connected(stats, args, result):
    stats["search.connected_tests"] += 1
    stats["search.connected_true"] += bool(result)


def _count_invariant_eval(stats, args, result):
    stats["search.invariant_evals"] += 1


def _count_batch(stats, args, result):
    _kind, _n, _a, lo, hi, _values = args[0]
    stats["search.graphs"] += hi - lo
    stats["search.class_hits"] += sum(p.count for p in result.values())


def _count_halo(stats, args, result):
    stats["search.halo_entries"] += len(args[1].halo)


def _count_min_degree(stats, args, result):
    rows, n = args[0], args[1]
    if n and result == min(rows[v].bit_count() for v in range(n)):
        stats["invariants.edge_conn_min_degree"] += 1


def _count_moment_terms(stats, args, result):
    stats["spectral.moment_terms"] += args[1]


def _count_walk_products(stats, args, result):
    stats["walks.matrix_products"] += args[1]


def _count_points(stats, args, result):
    stats["quartic.points"] += len(result)


def _count_payload(stats, args, result):
    stats["cli.payload_bytes"] += len(result.encode("utf-8"))


def _estrada_span(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "eigen")
    return "spectral.moment_series" if method == "moment-series" else "spectral.estrada"


def install(tracer: Tracer, pkg) -> None:
    """Install every wrapper on the modules of the package ``pkg``."""
    cli, search, inv = pkg.cli, pkg.search, pkg.invariants
    spectral, walks, graph = pkg.spectral, pkg.walks, pkg.graph
    w = tracer.wrap

    w(cli, "main", "cli.main")
    tracer.wrap_outermost(cli, "stable_json", "cli.serialize", _count_payload)
    w(cli, "_csv_text", "cli.serialize", on_return=_count_payload)
    w(cli, "parse_graph6", "graph.parse_graph6")
    w(cli, "emit_graph6", "graph.emit_graph6")
    for owner in (cli, inv, spectral):
        w(owner, "find_bipartition", "graph.find_bipartition")
    for owner in (search, pkg.families):
        w(owner, "from_biadjacency", "graph.from_biadjacency")

    w(cli, "build_cli_family", "families.construct")
    w(search, "complete_bipartite", "families.construct")
    w(search, "join_family", "families.construct")

    w(cli, "sweep", "quartic.sweep", on_return=_count_points)

    w(cli, "eigenvalues", "spectral.eigenvalues")
    w(spectral, "eigenvalues", "spectral.eigenvalues")
    w(spectral, "nullity_exact", "spectral.nullity")
    w(spectral, "_moment_run", "spectral.moment_run", on_return=_count_moment_terms)
    w(search, "_moment_run", "spectral.moment_run", on_return=_count_moment_terms)
    w(cli, "estrada", "spectral.estrada", span_of=_estrada_span)
    w(cli, "moment_series", "spectral.moment_series")

    w(walks, "walk_counts", "walks.walk_counts", on_return=_count_walk_products)
    w(walks, "dominance_check", "walks.dominance")
    w(walks, "identify_union", "walks.identify_union")

    w(search, "_connected_rows", "invariants.connected", on_return=_count_connected)
    w(inv, "_connected_rows", "invariants.connected")
    w(search, "_kuhn_matching", "invariants.matching", on_return=_count_invariant_eval)
    w(inv, "_kuhn_matching", "invariants.matching")
    w(search, "_vertex_conn_rows", "invariants.vertex_conn",
      on_return=_count_invariant_eval)
    w(inv, "_vertex_conn_rows", "invariants.vertex_conn")
    w(search, "_edge_conn_rows", "invariants.edge_conn",
      on_return=lambda s, a, r: (_count_invariant_eval(s, a, r),
                                 _count_min_degree(s, a, r)))
    w(inv, "_edge_conn_rows", "invariants.edge_conn", on_return=_count_min_degree)
    w(inv, "_vertex_flow", "invariants.flow")
    w(inv, "_edge_flow", "invariants.flow")

    tracer.wrap_batch(search, "_scan_batch", "search.batch", _count_batch)
    tracer.wrap_module_attr(search, "np", "linalg", "eigvalsh", "search.eigvalsh")
    tracer.wrap_pool(search, "Pool", "search.pool_wait")
    partial_cls = getattr(search, "_Partial", None)
    if partial_cls is None:
        tracer.missing.add("search.merge")
    else:
        w(partial_cls, "merge", "search.merge")
    w(search, "_finalize", "search.finalize", on_return=_count_halo)
    w(search, "is_isomorphic", "search.iso")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric name -> (unit, spans it needs, value from the aggregated stats)
def _calls(span):
    return ("count", (span,), lambda s: s[span + ".calls"])


def _busy(span):
    return ("s", (span,), lambda s: s[span + ".busy"])


METRICS = {
    "search.graphs_scanned": ("count", ("search.batch",), lambda s: s["search.graphs"]),
    "search.batches": _calls("search.batch"),
    "search.batch_self_s": ("s", ("search.batch",), lambda s: s["search.batch.self"]),
    "search.eigvalsh_s": _busy("search.eigvalsh"),
    "search.connected_ratio": (
        "ratio", ("invariants.connected",),
        lambda s: _ratio(s["search.connected_true"], s["search.connected_tests"])),
    "search.class_hit_ratio": (
        "ratio", ("search.batch", "invariants.matching", "invariants.vertex_conn",
                  "invariants.edge_conn"),
        lambda s: _ratio(s["search.class_hits"], s["search.invariant_evals"])),
    "search.merge_calls": _calls("search.merge"),
    "search.merge_s": _busy("search.merge"),
    "search.pool_wait_s": _busy("search.pool_wait"),
    "search.finalize_calls": _calls("search.finalize"),
    "search.finalize_s": _busy("search.finalize"),
    "search.halo_size": ("count", ("search.finalize",), lambda s: s["search.halo_entries"]),
    "search.iso_calls": _calls("search.iso"),
    "search.iso_s": _busy("search.iso"),
    "invariants.connected_calls": _calls("invariants.connected"),
    "invariants.connected_s": _busy("invariants.connected"),
    "invariants.matching_calls": _calls("invariants.matching"),
    "invariants.matching_s": _busy("invariants.matching"),
    "invariants.vertex_conn_calls": _calls("invariants.vertex_conn"),
    "invariants.vertex_conn_s": _busy("invariants.vertex_conn"),
    "invariants.edge_conn_calls": _calls("invariants.edge_conn"),
    "invariants.edge_conn_s": _busy("invariants.edge_conn"),
    "invariants.flow_calls": _calls("invariants.flow"),
    "invariants.flow_s": _busy("invariants.flow"),
    "invariants.edge_conn_eq_min_degree_ratio": (
        "ratio", ("invariants.edge_conn",),
        lambda s: _ratio(s["invariants.edge_conn_min_degree"],
                         s["invariants.edge_conn.calls"])),
    "spectral.eigenvalues_calls": _calls("spectral.eigenvalues"),
    "spectral.eigenvalues_s": _busy("spectral.eigenvalues"),
    "spectral.nullity_calls": _calls("spectral.nullity"),
    "spectral.nullity_s": _busy("spectral.nullity"),
    "spectral.moment_run_calls": _calls("spectral.moment_run"),
    "spectral.moment_run_s": _busy("spectral.moment_run"),
    "spectral.moment_terms": ("count", ("spectral.moment_run",),
                              lambda s: s["spectral.moment_terms"]),
    "spectral.moment_series_s": _busy("spectral.moment_series"),
    "walks.walk_counts_calls": _calls("walks.walk_counts"),
    "walks.walk_counts_s": _busy("walks.walk_counts"),
    "walks.matrix_products": ("count", ("walks.walk_counts",),
                              lambda s: s["walks.matrix_products"]),
    "walks.dominance_calls": _calls("walks.dominance"),
    "walks.dominance_s": _busy("walks.dominance"),
    "walks.identify_union_s": _busy("walks.identify_union"),
    "quartic.sweep_s": _busy("quartic.sweep"),
    "quartic.points": ("count", ("quartic.sweep",), lambda s: s["quartic.points"]),
    "families.construct_calls": _calls("families.construct"),
    "families.construct_s": _busy("families.construct"),
    "graph.parse_graph6_calls": _calls("graph.parse_graph6"),
    "graph.parse_graph6_s": _busy("graph.parse_graph6"),
    "graph.emit_graph6_calls": _calls("graph.emit_graph6"),
    "graph.emit_graph6_s": _busy("graph.emit_graph6"),
    "graph.find_bipartition_s": _busy("graph.find_bipartition"),
    "graph.from_biadjacency_calls": _calls("graph.from_biadjacency"),
    "cli.serialize_s": _busy("cli.serialize"),
    "cli.payload_bytes": ("bytes", ("cli.serialize",), lambda s: s["cli.payload_bytes"]),
}
for _layer in LAYERS:
    METRICS[_layer + ".errors"] = ("count", (), lambda s, k=_layer + ".errors": s[k])
OVERHEAD_METRIC = "trace.overhead_ratio"
PER_LAYER_UNITS = {name: spec[0] for name, spec in METRICS.items()}
PER_LAYER_UNITS[OVERHEAD_METRIC] = "ratio"


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict, list[str]]:
    """Per-pass values of every metric whose spans were all installed."""
    stats = defaultdict(float, {k: v / passes for k, v in tracer.stats.items()})
    values, missing = {}, []
    for name, (unit, spans, value) in METRICS.items():
        if any(span in tracer.missing for span in spans):
            missing.append(name)
        else:
            values[name] = {"value": value(stats), "unit": unit}
    return values, missing
