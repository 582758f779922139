"""Per-layer tracing of macsums from outside the program.

A Tracer wraps the public functions and methods of each macsums module
(a layer) in spans before the CLI runs.  Module attributes are rebound, so
calls within a module through its globals are caught; names imported into
other modules, values of module-level dicts (such as the formula tables)
and fields of module-level frozen dataclasses (such as the umbral base
families) are rebound too.  Methods are patched on the class.

Spans are aggregated by name and by (parent, name) edge as they close, so
runs with tens of thousands of calls keep a small, fixed memory footprint.
A span's self time is its duration minus the durations of its child spans.
Counters sit at the same boundaries: work done, cache reuse and checked
coefficients.

`layer_metrics` turns the summed span and counter tables of one pass into
the per-layer metrics named in `LAYER_METRICS`.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from dataclasses import fields, is_dataclass
from types import FunctionType

LAYERS = ("series", "qcombo", "divisors", "macmahon", "identities", "congruences", "registry", "cli")

# Scalar reads and formatting run millions of times or never matter; a span
# around them would measure the tracer, not the program.
_SKIP_METHODS = {"__getitem__", "__repr__", "__hash__", "__setattr__", "__delattr__"}

# (name, unit, better, what it should move): the end-to-end metric and the
# workload each layer metric is expected to explain.
LAYER_METRICS = (
    ("series.construct_calls", "count", "lower", "wall_s on deep-tables (single-sum) and identity-catalog"),
    ("series.coeffs_built", "count", "lower", "wall_s on deep-tables (single-sum) and identity-catalog"),
    ("series.construct_s", "s", "lower", "wall_s on deep-tables (single-sum) and identity-catalog"),
    ("series.mul_calls", "count", "lower", "wall_s on deep-tables (andrews-rose, multisum) and identity-catalog"),
    ("series.mul_dense_calls", "count", "lower", "wall_s on deep-tables (andrews-rose, multisum) and identity-catalog"),
    ("series.mul_terms", "count", "lower", "wall_s on deep-tables (andrews-rose, multisum) and identity-catalog"),
    ("series.mul_s", "s", "lower", "wall_s on deep-tables (andrews-rose, multisum) and identity-catalog"),
    ("series.invert_calls", "count", "lower", "wall_s on deep-tables and identity-catalog"),
    ("series.invert_terms", "count", "lower", "wall_s on deep-tables and identity-catalog"),
    ("series.invert_s", "s", "lower", "wall_s on deep-tables and identity-catalog"),
    ("series.addsub_s", "s", "lower", "wall_s on deep-tables"),
    ("series.other_s", "s", "lower", "wall_s on deep-tables (geometric_pow) and congruence-scan (ModSeries set-up)"),
    ("series.mod_mul_terms", "count", "lower", "wall_s on congruence-scan only"),
    ("series.mod_mul_s", "s", "lower", "wall_s on congruence-scan only"),
    ("series.mod_invert_terms", "count", "lower", "wall_s on congruence-scan only"),
    ("series.mod_invert_s", "s", "lower", "wall_s on congruence-scan only"),
    ("macmahon.chain_series_calls", "count", "lower", "wall_s on identity-catalog (jacobi) and deep-tables (multisum)"),
    ("macmahon.chain_series_self_s", "s", "lower", "wall_s on identity-catalog (jacobi) and deep-tables (multisum)"),
    ("macmahon.route_self_s", "s", "lower", "wall_s on deep-tables"),
    ("macmahon.table_calls", "count", "lower", "wall_s on deep-tables"),
    ("macmahon.table_reuse_ratio", "ratio", "higher", "peak_rss_mb and wall_s on deep-tables"),
    ("congruences.stream_calls", "count", "lower", "wall_s on congruence-scan"),
    ("congruences.stream_builds", "count", "lower", "wall_s on congruence-scan"),
    ("congruences.stream_reuse_ratio", "ratio", "higher", "wall_s on congruence-scan"),
    ("congruences.stream_self_s", "s", "lower", "wall_s on congruence-scan"),
    ("congruences.scan_self_s", "s", "lower", "wall_s on congruence-scan"),
    ("congruences.coeffs_checked", "count", "higher", "wall_s on congruence-scan"),
    ("identities.calls", "count", "lower", "wall_s on identity-catalog"),
    ("identities.self_s", "s", "lower", "wall_s on identity-catalog"),
    ("qcombo.calls", "count", "lower", "wall_s on identity-catalog"),
    ("qcombo.self_s", "s", "lower", "wall_s on identity-catalog"),
    ("qcombo.cache_hit_ratio", "ratio", "higher", "wall_s on identity-catalog"),
    ("divisors.calls", "count", "lower", "wall_s on identity-catalog"),
    ("divisors.self_s", "s", "lower", "wall_s on identity-catalog"),
    ("registry.cases", "count", "higher", "identity-catalog; a silently replaced grid changes it"),
    ("registry.self_s", "s", "lower", "wall_s on identity-catalog"),
    ("cli.self_s", "s", "lower", "wall_s on deep-tables (formatting 1.6 MB of output)"),
    ("cli.stdout_bytes", "bytes", "lower", "wall_s on deep-tables"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced wall_s over untraced wall_s, minus 1"),
)

# series spans grouped into the operations the metrics name; every other
# series span (geometric_pow, euler_function, ModSeries set-up, ...) is "other"
_SERIES_GROUPS = {
    "construct": ("Series.__init__", "Series.zero", "Series.one", "Series.monomial"),
    "mul": ("Series.__mul__", "Series.__rmul__", "Series.__pow__"),
    "invert": ("Series.invert",),
    "addsub": ("Series.__add__", "Series.__radd__", "Series.__sub__", "Series.__rsub__",
               "Series.__neg__", "Series.shift"),
    "mod_mul": ("ModSeries.__mul__", "ModSeries.__rmul__"),
    "mod_invert": ("ModSeries.invert",),
}
_STREAM_FUNCS = ("m_mod_stream", "mo_mod_stream", "family_mod_stream")


def _nonzero(coeffs, n):
    return n + 1 - coeffs[: n + 1].count(0)


class Tracer:
    """Span and counter tables for one process; see the module docstring."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.edges = {}  # (parent name, name) -> [calls, total_s]
        self.counts = Counter()
        self._stack = [["<cli>", 0.0]]
        self._seen = {}  # counter key -> {id(result): result}, for reuse counts
        self._caches = []  # (layer, lru_cache function): cache_info is read at the end

    # ------------------------------------------------------------------
    # spans

    def wrap(self, name, fn, count=None):
        stack, clock = self._stack, time.perf_counter
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                parent = stack[-1]
                parent[1] += elapsed
                edge = edges.get((parent[0], name))
                if edge is None:
                    edges[(parent[0], name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
            if count is not None:
                count(args, result)
                # counting is tracer work: keep it out of the caller's self time
                parent[1] += clock() - end
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------------
    # counters attached to span boundaries

    def _reuse(self, key):
        seen = self._seen.setdefault(key, {})

        def count(args, result):
            self.counts[key + ".calls"] += 1
            if id(result) in seen:
                self.counts[key + ".reused"] += 1
            else:
                seen[id(result)] = result  # holding it keeps the id unique

        return count

    def _counter(self, name):
        counts = self.counts
        if name == "series.Series.__init__":
            def count(args, result):
                counts["series.coeffs_built"] += len(args[0].coeffs)
            return count
        if name in ("series.Series.__mul__", "series.Series.__rmul__",
                    "series.ModSeries.__mul__", "series.ModSeries.__rmul__"):
            prefix = "series.mod_mul" if ".ModSeries." in name else "series.mul"

            def count(args, result):
                if result is NotImplemented:
                    return
                a, b = args
                n = result.order
                counts[prefix + "_calls"] += 1
                if isinstance(b, type(a)):
                    na, nb = _nonzero(a.coeffs, n), _nonzero(b.coeffs, n)
                    counts[prefix + "_terms"] += min(na, nb) * (n + 1)
                    if 2 * na > n + 1 and 2 * nb > n + 1:
                        counts[prefix + "_dense_calls"] += 1
                else:  # a scalar is a one-term operand
                    counts[prefix + "_terms"] += n + 1
            return count
        if name in ("series.Series.invert", "series.ModSeries.invert"):
            key = "series.mod_invert_terms" if ".ModSeries." in name else "series.invert_terms"

            def count(args, result):
                counts[key] += _nonzero(args[0].coeffs, result.order) * (result.order + 1)
            return count
        if name == "macmahon.coefficient_table":
            return self._reuse("macmahon.table")
        if name in ("congruences.m_mod_stream", "congruences.mo_mod_stream"):
            return self._reuse("congruences.stream")
        if name == "congruences.check_claim":
            def count(args, result):
                counts["congruences.coeffs_checked"] += result.checked
            return count
        if name == "congruences.prospect":
            def count(args, result):
                counts["congruences.coeffs_checked"] += sum(c.checked for c in result.claims)
            return count
        if name == "registry.run_identity":
            def count(args, result):
                counts["registry.cases"] += len(result)
            return count
        return None

    # ------------------------------------------------------------------
    # installation

    def install(self):
        """Wrap every layer's public functions and methods, then rebind the
        originals wherever a macsums module refers to them."""
        modules = {layer: importlib.import_module(f"macsums.{layer}") for layer in LAYERS}
        replaced = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._patch_class(layer, obj)
                elif isinstance(obj, FunctionType) or hasattr(obj, "cache_info"):
                    if hasattr(obj, "cache_info"):
                        self._caches.append((layer, obj))
                    name = f"{layer}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, self._counter(name))
        package = importlib.import_module("macsums")
        for mod in (package, *modules.values()):
            _rebind(mod, replaced)

    def _patch_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr in _SKIP_METHODS or (attr.startswith("_") and not attr.endswith("__")):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, FunctionType):
                setattr(cls, attr, self.wrap(name, member, self._counter(name)))
            elif isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(name, member.__func__)))

    # ------------------------------------------------------------------
    # results

    def snapshot(self):
        """Plain-data tables for this process: spans, edges and counters."""
        counts = dict(self.counts)
        for layer, fn in self._caches:
            info = fn.cache_info()
            counts[f"{layer}.cache_hits"] = counts.get(f"{layer}.cache_hits", 0) + info.hits
            counts[f"{layer}.cache_misses"] = counts.get(f"{layer}.cache_misses", 0) + info.misses
        return {
            "spans": self.spans,
            "edges": [[parent, name, calls, total] for (parent, name), (calls, total) in self.edges.items()],
            "counts": counts,
        }


def _rebind(mod, replaced):
    for attr, value in list(vars(mod).items()):
        if id(value) in replaced:
            setattr(mod, attr, replaced[id(value)])
        elif isinstance(value, dict):
            for key, item in list(value.items()):
                if id(item) in replaced:
                    value[key] = replaced[id(item)]
        elif is_dataclass(value) and not isinstance(value, type):
            for f in fields(value):
                item = getattr(value, f.name)
                if id(item) in replaced:
                    object.__setattr__(value, f.name, replaced[id(item)])


def merge(snapshots):
    """Sum the span, edge and counter tables of several processes."""
    spans, edges, counts = {}, {}, Counter()
    for snap in snapshots:
        for name, (calls, total, self_s) in snap["spans"].items():
            rec = spans.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for parent, name, calls, total in snap["edges"]:
            rec = edges.setdefault((parent, name), [0, 0.0])
            rec[0] += calls
            rec[1] += total
        counts.update(snap["counts"])
    return spans, edges, counts


def layer_metrics(spans, counts, stdout_bytes):
    """Per-layer metrics of one pass from its summed span and counter tables
    (all of `LAYER_METRICS` except trace.overhead_ratio)."""

    def self_s(predicate):
        return sum(rec[2] for name, rec in spans.items() if predicate(name))

    def calls(predicate):
        return sum(rec[0] for name, rec in spans.items() if predicate(name))

    def layer_of(name):
        return name.split(".", 1)[0]

    def op(name):
        return name.split(".", 1)[1]

    def ratio(num, den):
        return num / den if den else 0.0

    grouped = {op_name for group in _SERIES_GROUPS.values() for op_name in group}
    out = {
        "series.construct_calls": spans.get("series.Series.__init__", [0])[0],
        "series.coeffs_built": counts["series.coeffs_built"],
        "series.mul_calls": counts["series.mul_calls"],
        "series.mul_dense_calls": counts["series.mul_dense_calls"],
        "series.mul_terms": counts["series.mul_terms"],
        "series.invert_calls": spans.get("series.Series.invert", [0])[0],
        "series.invert_terms": counts["series.invert_terms"],
        "series.mod_mul_terms": counts["series.mod_mul_terms"],
        "series.mod_invert_terms": counts["series.mod_invert_terms"],
        "series.other_s": self_s(lambda n: layer_of(n) == "series" and op(n) not in grouped),
    }
    for group, members in _SERIES_GROUPS.items():
        out[f"series.{group}_s"] = self_s(lambda n, m=members: layer_of(n) == "series" and op(n) in m)

    out["macmahon.chain_series_calls"] = spans.get("macmahon.chain_series", [0])[0]
    out["macmahon.chain_series_self_s"] = self_s(lambda n: n == "macmahon.chain_series")
    out["macmahon.route_self_s"] = self_s(lambda n: layer_of(n) == "macmahon" and n != "macmahon.chain_series")
    out["macmahon.table_calls"] = counts["macmahon.table.calls"]
    out["macmahon.table_reuse_ratio"] = ratio(counts["macmahon.table.reused"], counts["macmahon.table.calls"])

    stream_calls = counts["congruences.stream.calls"]
    out["congruences.stream_calls"] = stream_calls
    out["congruences.stream_builds"] = stream_calls - counts["congruences.stream.reused"]
    out["congruences.stream_reuse_ratio"] = ratio(counts["congruences.stream.reused"], stream_calls)
    out["congruences.stream_self_s"] = self_s(lambda n: layer_of(n) == "congruences" and op(n) in _STREAM_FUNCS)
    out["congruences.scan_self_s"] = self_s(lambda n: layer_of(n) == "congruences" and op(n) not in _STREAM_FUNCS)
    out["congruences.coeffs_checked"] = counts["congruences.coeffs_checked"]

    for layer in ("identities", "qcombo", "divisors"):
        out[f"{layer}.calls"] = calls(lambda n, lay=layer: layer_of(n) == lay)
        out[f"{layer}.self_s"] = self_s(lambda n, lay=layer: layer_of(n) == lay)
    hits, misses = counts["qcombo.cache_hits"], counts["qcombo.cache_misses"]
    out["qcombo.cache_hit_ratio"] = ratio(hits, hits + misses)
    out["registry.cases"] = counts["registry.cases"]
    out["registry.self_s"] = self_s(lambda n: layer_of(n) == "registry")
    out["cli.self_s"] = self_s(lambda n: layer_of(n) == "cli")
    out["cli.stdout_bytes"] = stdout_bytes
    return out
