"""Layer tracing from outside the program.

The tracer wraps public entry points of each ``magtop`` layer while a traced
pass runs and restores them afterwards.  It records three kinds of probe:

* spans: name, start, end, parent span and command id, kept in memory;
* leaf timers: hot helpers that are timed and counted but leave no span;
* counters: the hottest helpers, counted only.

A layer's self time is its spans' durations minus the time their child
spans and leaf timers cover.  Module-level functions are found with
``importlib.import_module`` (the package attribute ``magtop.homology`` is
the re-exported function, not the module) and every ``from .x import y``
copy in a ``magtop`` module namespace is rebound.  Methods are patched on
their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, layer).  An attribute "Class.method" is patched on the
# class.  Layer "verify" collects the verifiers' own work.
SPANS = (
    ("magtop.cli", "main", "cli"),
    ("magtop.docs", "load_doc", "docs.load"),
    ("magtop.docs", "load_fixture", "docs.load"),
    ("magtop.docs", "space_from_doc", "docs.load"),
    ("magtop.docs", "gluing_from_doc", "docs.load"),
    ("magtop.docs", "twist_from_doc", "docs.load"),
    ("magtop.docs", "facets_from_doc", "docs.load"),
    ("magtop.metric", "MetricSpace.__post_init__", "metric.build"),
    ("magtop.metric", "from_distance_matrix", "metric.build"),
    ("magtop.metric", "from_weighted_graph", "metric.build"),
    ("magtop.metric", "glue", "metric.build"),
    ("magtop.metric", "product", "metric.build"),
    ("magtop.metric", "restriction", "metric.build"),
    ("magtop.metric", "four_cuts", "metric.four_cuts"),
    ("magtop.causal", "lightlike_sequences", "causal.enum"),
    ("magtop.causal", "achievable_lengths", "causal.lengths"),
    ("magtop.causal", "pair_achievable_lengths", "causal.lengths"),
    ("magtop.causal", "essential_poset", "causal.poset"),
    ("magtop.causal", "CausalPoset.chains", "causal.poset"),
    ("magtop.causal", "order_complex_pair", "causal.poset"),
    ("magtop.causal", "inner_pair", "causal.poset"),
    ("magtop.homology", "smith_normal_form", "homology.snf"),
    ("magtop.homology", "magnitude_chain_complex", "homology.build"),
    ("magtop.homology", "relative_chain_complex", "homology.build"),
    ("magtop.homology", "ChainComplex.validate", "homology.dd_check"),
    ("magtop.homology", "verify_chain_iso", "verify"),
    ("magtop.homology", "verify_suspension_shift", "verify"),
    ("magtop.homology", "verify_kunneth", "verify"),
    ("magtop.series", "z_inverse", "series.inverse"),
    ("magtop.series", "euler_check", "verify"),
    ("magtop.frames", "singular_sequences", "frames.singular"),
    ("magtop.frames", "framed_betti_prediction", "frames.predict"),
    ("magtop.frames", "thin_frames", "frames.thin"),
    ("magtop.frames", "hasse_graph", "frames.hasse"),
    ("magtop.mv", "interior_part_betti", "mv.interior"),
    ("magtop.mv", "verify_union", "verify"),
    ("magtop.mv", "verify_mv", "verify"),
    ("magtop.morse", "projecting_matching", "morse.matching"),
    ("magtop.morse", "verify_acyclic", "morse.acyclic"),
    ("magtop.morse", "verify_bounded", "morse.bounded"),
    ("magtop.morse", "critical_cells", "morse.critical"),
    ("magtop.morse", "verify_sycamore", "verify"),
)
LEAF_TIMERS = (
    ("magtop.morse", "classify_sequence", "morse.classify"),
)
COUNTERS = (
    ("magtop.causal", "seq_time_stamps"),
    ("magtop.series", "HahnPolynomial.__mul__"),
    ("magtop.series", "SeriesMatrix.__mul__"),
)

# Entry points each workload must reach.  A traced run that records zero
# calls on one of them fails, so a rename cannot silently zero a layer.
EXPECTED = {
    "homology-cycles": (
        "cli.main", "docs.space_from_doc", "causal.lightlike_sequences",
        "causal.pair_achievable_lengths", "homology.magnitude_chain_complex",
        "homology.ChainComplex.validate", "homology.smith_normal_form",
    ),
    "verify-mix": (
        "cli.main", "docs.load_fixture", "docs.load_doc", "docs.facets_from_doc",
        "docs.space_from_doc", "docs.twist_from_doc",
        "metric.MetricSpace.__post_init__", "metric.four_cuts", "metric.product",
        "metric.restriction", "metric.glue",
        "causal.lightlike_sequences", "causal.achievable_lengths",
        "causal.pair_achievable_lengths", "causal.seq_time_stamps",
        "causal.CausalPoset.chains", "causal.order_complex_pair", "causal.inner_pair",
        "homology.smith_normal_form", "homology.relative_chain_complex",
        "homology.ChainComplex.validate", "homology.verify_chain_iso",
        "homology.verify_suspension_shift", "homology.verify_kunneth",
        "series.z_inverse", "series.SeriesMatrix.__mul__",
        "series.HahnPolynomial.__mul__", "series.euler_check",
        "frames.singular_sequences", "frames.framed_betti_prediction",
        "frames.thin_frames", "frames.hasse_graph",
        "mv.interior_part_betti", "mv.verify_mv", "mv.verify_union",
        "morse.projecting_matching", "morse.critical_cells",
        "morse.classify_sequence", "morse.verify_acyclic", "morse.verify_bounded",
        "morse.verify_sycamore",
    ),
}


def _key(module, attr):
    return module.split(".", 1)[1] + "." + attr


class Tracer:
    """Collects spans and counts for one traced pass."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index, command id)
        self.stack = []        # open spans: [name, start, child time, index]
        self.calls = {}        # entry key -> calls
        self.self_time = {}    # layer -> self seconds
        self.tally = {}        # derived counts (sequences, cells, ...)
        self.distinct = {}     # entry key -> set of input keys
        self.space_ids = {}    # (labels, dist) -> small int
        self.space_of = {}     # id(space) -> (space, small int)
        self.command = -1
        self._restore = []

    # -- recording -------------------------------------------------------

    def _count(self, key):
        self.calls[key] = self.calls.get(key, 0) + 1

    def _add(self, name, amount):
        self.tally[name] = self.tally.get(name, 0) + amount

    def _enter(self, layer):
        if not self.stack:
            self.command += 1
        parent = self.stack[-1][3] if self.stack else -1
        index = len(self.spans)
        self.spans.append((layer, 0.0, 0.0, parent, self.command))
        self.stack.append([layer, time.perf_counter(), 0.0, index])

    def _leave(self):
        end = time.perf_counter()
        layer, start, child, index = self.stack.pop()
        name, _, _, parent, command = self.spans[index]
        self.spans[index] = (name, start, end, parent, command)
        duration = end - start
        self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - child
        if self.stack:
            self.stack[-1][2] += duration

    def _span(self, key, layer, fn):
        observe = OBSERVERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave()
            if observe is not None:
                # the observer's own time is charged to no layer
                start = time.perf_counter()
                observe(self, args, result)
                if self.stack:
                    self.stack[-1][2] += time.perf_counter() - start
            return result

        return wrapper

    def _leaf(self, key, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(key)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_time[layer] = self.self_time.get(layer, 0.0) + duration
                if self.stack:
                    self.stack[-1][2] += duration

        return wrapper

    def _counter(self, key, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every probe; raises LookupError if an entry point is gone."""
        probes = [(m, a, self._span, (l,)) for m, a, l in SPANS]
        probes += [(m, a, self._leaf, (l,)) for m, a, l in LEAF_TIMERS]
        probes += [(m, a, self._counter, ()) for m, a in COUNTERS]
        package = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "magtop" or name.startswith("magtop."))
        ]
        for module_name, attr, make, extra in probes:
            module = importlib.import_module(module_name)
            key = _key(module_name, attr)
            self.calls.setdefault(key, 0)
            cls_name, _, name = attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                raise LookupError("entry point %s.%s is gone" % (module_name, attr))
            wrapper = make(key, *extra, original)
            # a method lives on its class; a function may be imported anywhere
            for target in [owner] if cls_name else package:
                for binding, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, binding, wrapper)
                        self._restore.append((target, binding, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore = []

    # -- results -------------------------------------------------------------

    def missing(self, workload):
        return [k for k in EXPECTED[workload] if not self.calls.get(k)]

    def metrics(self):
        """Per-layer metrics of this pass, by name."""
        c = self.calls
        t = self.self_time.get
        n = self.tally.get

        def ratio(key):
            return len(self.distinct.get(key, ())) / c[key] if c.get(key) else 0.0

        return {
            "cli.self_s": t("cli", 0.0),
            "docs.load_s": t("docs.load", 0.0),
            "metric.build_s": t("metric.build", 0.0),
            "metric.spaces": c["metric.MetricSpace.__post_init__"],
            "metric.four_cuts_s": t("metric.four_cuts", 0.0),
            "metric.four_cuts_calls": c["metric.four_cuts"],
            "causal.enum_s": t("causal.enum", 0.0),
            "causal.enum_calls": c["causal.lightlike_sequences"],
            "causal.enum_distinct_ratio": ratio("causal.lightlike_sequences"),
            "causal.sequences": n("sequences", 0),
            "causal.stamp_calls": c["causal.seq_time_stamps"],
            "causal.lengths_s": t("causal.lengths", 0.0),
            "causal.lengths_calls": c["causal.achievable_lengths"]
            + c["causal.pair_achievable_lengths"],
            "causal.poset_s": t("causal.poset", 0.0),
            "causal.chains": n("chains", 0),
            "homology.snf_s": t("homology.snf", 0.0),
            "homology.snf_calls": c["homology.smith_normal_form"],
            "homology.snf_cells": n("snf_cells", 0),
            "homology.snf_nonzeros": n("snf_nonzeros", 0),
            "homology.snf_max_cells": n("snf_max_cells", 0),
            "homology.torsion_factors": n("torsion_factors", 0),
            "homology.build_s": t("homology.build", 0.0),
            "homology.generators": n("generators", 0),
            "homology.dd_check_s": t("homology.dd_check", 0.0),
            "series.inverse_s": t("series.inverse", 0.0),
            "series.inverse_calls": c["series.z_inverse"],
            "series.inverse_distinct_ratio": ratio("series.z_inverse"),
            "series.matmul_calls": c["series.SeriesMatrix.__mul__"],
            "series.poly_mul_calls": c["series.HahnPolynomial.__mul__"],
            "frames.singular_s": t("frames.singular", 0.0),
            "frames.predict_s": t("frames.predict", 0.0),
            "frames.thin_s": t("frames.thin", 0.0),
            "frames.hasse_s": t("frames.hasse", 0.0),
            "mv.interior_s": t("mv.interior", 0.0),
            "morse.matching_s": t("morse.matching", 0.0),
            "morse.matching_calls": c["morse.projecting_matching"],
            "morse.matched_pairs": n("matched_pairs", 0),
            "morse.acyclic_s": t("morse.acyclic", 0.0),
            "morse.acyclic_calls": c["morse.verify_acyclic"],
            "morse.bounded_s": t("morse.bounded", 0.0),
            "morse.critical_s": t("morse.critical", 0.0),
            "morse.critical_cells": n("critical_cells", 0),
            "morse.classify_s": t("morse.classify", 0.0),
            "morse.classify_calls": c["morse.classify_sequence"],
            "verify.self_s": t("verify", 0.0),
            "trace.spans": len(self.spans),
        }


# -- observers: counts read from a wrapped call's arguments and result --------

def _space_key(tracer, space):
    """Small int naming the space by value; hashed once per space object."""
    hit = tracer.space_of.get(id(space))
    if hit is None:
        value = (space.labels, space.dist)
        ident = tracer.space_ids.setdefault(value, len(tracer.space_ids))
        hit = tracer.space_of[id(space)] = (space, ident)
    return hit[1]


def _observe_enum(tracer, args, result):
    space, a, b, l = args[:4]
    tracer.distinct.setdefault("causal.lightlike_sequences", set()).add(
        (_space_key(tracer, space), a, b, l)
    )
    tracer._add("sequences", len(result))


def _observe_inverse(tracer, args, result):
    space, lmax = args[:2]
    tracer.distinct.setdefault("series.z_inverse", set()).add(
        (_space_key(tracer, space), lmax)
    )


def _observe_snf(tracer, args, result):
    matrix = args[0]
    rows = len(matrix)
    cells = rows * (len(matrix[0]) if rows else 0)
    tracer._add("snf_cells", cells)
    tracer._add("snf_nonzeros", sum(1 for row in matrix for v in row if v))
    tracer.tally["snf_max_cells"] = max(tracer.tally.get("snf_max_cells", 0), cells)
    tracer._add("torsion_factors", sum(1 for f in result.diag if f > 1))


def _observe_validate(tracer, args, result):
    tracer._add("generators", sum(len(v) for v in args[0].basis.values()))


OBSERVERS = {
    "causal.lightlike_sequences": _observe_enum,
    "causal.CausalPoset.chains": lambda tr, args, res: tr._add("chains", len(res)),
    "homology.smith_normal_form": _observe_snf,
    "homology.ChainComplex.validate": _observe_validate,
    "series.z_inverse": _observe_inverse,
    "morse.projecting_matching": lambda tr, args, res: tr._add("matched_pairs", len(res)),
    "morse.critical_cells": lambda tr, args, res: tr._add("critical_cells", len(res)),
}
