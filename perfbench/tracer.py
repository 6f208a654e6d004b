"""Outside-in span recorder for the hdpart benchmark.

The tracer wraps public entry points of the hdpart modules (module functions
and class methods) so that every call records one span: name, start, end,
parent span and run id. Nothing in the package changes: the wrappers replace
the module and class attributes only while a traced run is in progress, and
every module that imported a function by name gets the wrapper too.

Spans are kept in memory; `summary()` turns them into the per-module metrics
and `dump_spans()` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import os
import sys
import time
from collections import Counter

LAYERS = ("lattice", "series", "refine", "socle", "mpart", "hydral", "macmahon", "cache", "cli")
KINDS = ("P", "Y", "C", "ALPHA")
PROVENANCES = ("oracle", "inversion", "recurrence", "closed-form", "search")


# --- hooks: counts recorded at the same boundary as the span ------------------
#
# A hook factory takes the original callable and returns (before, after).
# before(args) runs ahead of the call and returns a state; after(tracer, span,
# args, result, state) runs once the call has returned.


def _orbit_hook(orig):
    """Tell cold orbit enumerations from lru_cache hits; count their work."""

    def before(args):
        return orig.cache_info().misses

    def after(tracer, span, args, result, misses):
        if orig.cache_info().misses == misses:
            span[0] += ".warm"
            return
        k, q = args
        n = k * (k + 1) // 2
        # candidates are what the subset scan visits, computed, not counted
        tracer.counts["mpart.orbit_candidates"] += math.comb(n, q) if 1 <= q <= n else 0
        tracer.counts["mpart.orbit_reps_kept"] += len(result)

    return before, after


def _region_hook(orig):
    def after(tracer, span, args, result, state):
        tracer.counts["mpart.region_cells"] += len(result.cells)

    return None, after


def _search_hook(orig):
    def before(args):
        return args[0].nodes

    def after(tracer, span, args, result, nodes):
        tracer.counts["mpart.search_nodes"] += args[0].nodes - nodes

    return before, after


def _memo_hook(kind):
    def factory(orig):
        def before(args):
            resolver, *index = args
            return tuple(index) in resolver.tables[kind]

        def after(tracer, span, args, result, hit):
            tracer.counts["refine.calls"] += 1
            tracer.counts["refine.memo_hits"] += hit

        return before, after

    return factory


def _resolver_init_hook(orig):
    def after(tracer, span, args, result, state):
        tracer.resolvers.append(args[0])

    return None, after


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _get_hook(orig):
    def after(tracer, span, args, result, state):
        tracer.counts["cache.hits" if result is not None else "cache.misses"] += 1

    return None, after


def _put_hook(orig):
    def before(args):
        return _file_size(args[0].path)

    def after(tracer, span, args, result, size):
        tracer.counts["cache.bytes_written"] += _file_size(args[0].path) - size

    return before, after


def _flush_hook(orig):
    def after(tracer, span, args, result, state):
        tracer.counts["cache.checkpoint_flushes"] += 1
        tracer.counts["cache.bytes_written"] += _file_size(args[0].path)

    return None, after


# (layer, attribute, hook factory); "Class.method" targets patch the class
TARGETS = (
    ("lattice", "count_partitions", None),
    ("lattice", "count_constrained", None),
    ("series", "euler_product", None),
    ("series", "fit_numerator", None),
    ("series", "inverse_euler", None),
    ("refine", "Resolver.__init__", _resolver_init_hook),
    ("refine", "Resolver.p", _memo_hook("P")),
    ("refine", "Resolver.y", _memo_hook("Y")),
    ("refine", "Resolver.c", _memo_hook("C")),
    ("refine", "Resolver.alpha", _memo_hook("ALPHA")),
    ("refine", "Resolver.size_numerator", None),
    ("socle", "c_from_alpha", None),
    ("socle", "refined_count", None),
    ("mpart", "orbit_reps", _orbit_hook),
    ("mpart", "bounding_region", _region_hook),
    ("mpart", "_RegionSearch.__init__", None),
    ("mpart", "_RegionSearch.sweep", _search_hook),
    ("mpart", "_RegionSearch.count", _search_hook),
    ("mpart", "alpha", None),
    ("mpart", "alpha_targeted", None),
    ("hydral", "hydral_count", None),
    ("hydral", "hydral_series", None),
    ("hydral", "head_block_series", None),
    ("hydral", "profile_series_from_weights", None),
    ("macmahon", "product_series", None),
    ("macmahon", "ProductTable.value", None),
    ("macmahon", "ProductTable.refined", None),
    ("macmahon", "omega_exponents", None),
    ("macmahon", "check_refined_rationality", None),
    ("macmahon", "check_exponent_divisibility", None),
    ("macmahon", "search_value_collisions", None),
    ("macmahon", "partition_numbers", None),
    ("macmahon", "plane_partition_numbers", None),
    ("cache", "load_golden_records", None),
    ("cache", "load_golden_c6", None),
    ("cache", "CacheStore.__init__", None),
    ("cache", "CacheStore.get", _get_hook),
    ("cache", "CacheStore.put", _put_hook),
    ("cache", "CheckpointedAlphaRun.__init__", None),
    ("cache", "CheckpointedAlphaRun._flush", _flush_hook),
    ("cli", "main", None),
    ("cli", "cmd_count", None),
    ("cli", "cmd_series", None),
    ("cli", "cmd_conjecture", None),
)


class Tracer:
    """Span recorder. One instance per traced process."""

    def __init__(self):
        self.run_id = ""
        # span: [name, start, end, parent index, run id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.resolvers: list = []
        self._undo: list = []

    def _wrap(self, name, fn, hook):
        before, after = hook(fn) if hook is not None else (None, None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(self, span, args, result, state)
            return result

        return traced

    def install(self):
        """Wrap every target. hdpart.cli is imported first, so all modules exist."""
        import hdpart.cli  # noqa: F401  (loads every module)

        modules = [m for n, m in sys.modules.items() if n == "hdpart" or n.startswith("hdpart.")]
        for layer, target, hook in TARGETS:
            module = sys.modules["hdpart." + layer]
            name = f"{layer}.{target}"
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, orig, hook))
                self._undo.append((cls, attr, orig))
                continue
            orig = getattr(module, target)
            wrapper = self._wrap(name, orig, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def collect_resolvers(self):
        """Tally table entries per provenance of every Resolver made so far."""
        for resolver in self.resolvers:
            for kind, table in resolver.tables.items():
                for prov in table.provenance.values():
                    self.counts[f"refine.entries.{kind}.{prov}"] += 1
        self.resolvers.clear()

    def summary(self) -> dict:
        """Raw per-module figures of this process: summed times and counts."""
        self.collect_resolvers()
        return summarize(self.spans, self.counts)

    def dump_spans(self, path):
        """Append one JSON array per span, [pid, id, parent id, name, start,
        end, run id], to a gzip file; parent -1 marks a root span."""
        pid = os.getpid()
        with gzip.open(path, "at", encoding="utf-8", compresslevel=1) as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps([pid, i, parent, name, start, end, run]) + "\n")


def summarize(spans: list, counts: Counter) -> dict:
    """Additive figures (seconds and counts) from one process's spans.

    A module's self time is the duration of its spans minus the part covered
    by their child spans. An inclusive time over a set of span names counts
    each outermost span of the set once, so recursion is not double counted.
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter(counts)
    for i, (name, start, end, parent, _) in enumerate(spans):
        out[name.split(".", 1)[0] + ".self_s"] += end - start - child[i]
        out["calls." + name] += 1
    out["trace.spans"] += n

    def inclusive(names) -> float:
        inside = [False] * n  # span i or one of its ancestors is in names
        total = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            hit = name in names
            above = parent >= 0 and inside[parent]
            inside[i] = hit or above
            if hit and not above:
                total += end - start
        return total

    def prefixed(prefix):
        return {s[0] for s in spans if s[0].startswith(prefix)}

    out["mpart.orbit_s"] += inclusive({"mpart.orbit_reps"})
    out["mpart.region_s"] += inclusive({"mpart.bounding_region", "mpart._RegionSearch.__init__"})
    out["mpart.search_s"] += inclusive({"mpart._RegionSearch.sweep", "mpart._RegionSearch.count"})
    out["hydral.s"] += inclusive(prefixed("hydral."))
    out["lattice.oracle_s"] += inclusive(prefixed("lattice."))
    for fn in ("euler_product", "fit_numerator", "inverse_euler"):
        out[f"series.{fn}_s"] += inclusive({f"series.{fn}"})
    out["cache.get_s"] += inclusive({"cache.CacheStore.get"})
    out["cache.put_s"] += inclusive({"cache.CacheStore.put"})
    return dict(out)


def derive(raw: dict) -> dict:
    """Per-layer metrics from summed raw figures (one rep of a workload)."""
    def calls(*names):
        return sum(raw.get("calls." + n, 0) for n in names)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = raw.get(f"{layer}.self_s", 0.0)
    for key in ("mpart.orbit_s", "mpart.region_s", "mpart.search_s", "hydral.s",
                "lattice.oracle_s", "series.euler_product_s", "series.fit_numerator_s",
                "series.inverse_euler_s", "cache.get_s", "cache.put_s"):
        m[key] = raw.get(key, 0.0)
    for key in ("mpart.orbit_candidates", "mpart.orbit_reps_kept", "mpart.region_cells",
                "mpart.search_nodes", "refine.calls", "cache.hits", "cache.misses",
                "cache.bytes_written", "cache.checkpoint_flushes", "trace.spans"):
        m[key] = raw.get(key, 0)
    cand = m["mpart.orbit_candidates"]
    m["mpart.orbit_yield"] = m["mpart.orbit_reps_kept"] / cand if cand else 0.0
    m["mpart.nodes_per_s"] = m["mpart.search_nodes"] / m["mpart.search_s"] if m["mpart.search_s"] else 0.0
    m["mpart.alpha_calls"] = calls("mpart.alpha", "mpart.alpha_targeted")
    m["refine.memo_hit_ratio"] = raw.get("refine.memo_hits", 0) / m["refine.calls"] if m["refine.calls"] else 0.0
    for kind in KINDS:
        for prov in PROVENANCES:
            key = f"refine.entries.{kind}.{prov}"
            m[key] = raw.get(key, 0)
    m["socle.refined_count_calls"] = calls("socle.refined_count")
    m["hydral.calls"] = sum(v for k, v in raw.items() if k.startswith("calls.hydral."))
    m["series.euler_product_calls"] = calls("series.euler_product")
    m["lattice.oracle_calls"] = calls("lattice.count_partitions", "lattice.count_constrained")
    return m
