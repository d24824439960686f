"""Spans around the calls into each module of ``metric_pairs``, from outside.

``Tracer.install`` replaces every traced function in every namespace of the
package that refers to it (so ``gh_solver.glue_from_constraints``,
``chain_lab.gh_compact_pair`` and intra-module calls such as
``min_approx_eps -> approx_search`` all pass through the wrapper), and
``uninstall`` puts the originals back; both are plain attribute swaps, cheap
enough to toggle around every request. Spans stay in memory as
``[name, start, end, parent, request]`` and are written once, at exit.
"""

import importlib
import json
import time

import metric_pairs

LAYERS = ("metric_core", "hausdorff", "gluing", "gh_solver", "counting", "chain_lab", "formats", "cli")
# by module path: the package's ``hausdorff`` attribute is the function, not the module
MODULES = {layer: importlib.import_module(f"metric_pairs.{layer}") for layer in LAYERS}

TRACED = {
    "metric_core": ("validate_metric", "ball", "same_space", "shortest_path_closure", "restrict", "diam"),
    "hausdorff": ("hausdorff_of_matrix", "hausdorff", "hausdorff_between", "pair_hausdorff", "tuple_hausdorff"),
    "gluing": (
        "glue_from_constraints", "glue_from_approximation", "glue_from_rough_isometry",
        "glue_from_nets", "check_eps_admissible", "transfer_subset",
    ),
    "gh_solver": (
        "gh_compact_pair", "gh_compact_tuple", "gh_truncated_pair", "approx_search", "min_approx_eps",
        "validate_approximation", "complete_distortion_map", "rough_isometry_search",
        "pair_isometry_search", "verify_convergence",
    ),
    "counting": ("covering_outer", "covering_inner", "packing", "separation", "family_certificate", "check_count_transfer"),
    "chain_lab": ("build_chain", "limit_proxy", "chain_convergence_report"),
    "formats": ("_as_doc", "load_space", "load_pair", "load_tuple", "load_gluing", "load_chain", "bracket_doc", "dumps"),
    "cli": ("main", "build_parser"),
}

SETUP = "setup"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.request = SETUP
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def _find_patches(self):
        """(namespace, attribute, original, wrapper) for every traced reference."""
        patches = []
        namespaces = [metric_pairs, *MODULES.values()]
        for layer, names in TRACED.items():
            for fname in names:
                orig = getattr(MODULES[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for ns in namespaces:
                    patches += [(ns, attr, orig, wrapper) for attr, value in vars(ns).items() if value is orig]
        # CrossMetric validation reached through document loading
        formats = MODULES["formats"]
        patches.append((formats, "CrossMetric", formats.CrossMetric, self._wrap("gluing.CrossMetric", formats.CrossMetric)))
        return patches

    def install(self):
        if not self._patches:
            self._patches = self._find_patches()
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, orig, _ in self._patches:
            setattr(ns, attr, orig)

    def write(self, path, **meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, fields=["name", "start", "end", "parent", "request"], spans=self.spans), fh)


def _g(layer, *names):
    return frozenset(f"{layer}.{n}" for n in names)


HAUSDORFF = _g("hausdorff", *TRACED["hausdorff"])
CONSTRUCT = _g(
    "gluing", "glue_from_approximation", "glue_from_rough_isometry", "glue_from_nets",
    "check_eps_admissible", "transfer_subset", "CrossMetric",
)
COUNTING = _g("counting", *TRACED["counting"])
LOADS = _g("formats", "_as_doc", "load_space", "load_pair", "load_tuple", "load_gluing", "load_chain")
DUMPS = _g("formats", "bracket_doc", "dumps")


class SpanStats:
    """Durations, self times and group totals over one list of spans."""

    def __init__(self, spans, requests):
        self.spans = spans
        self.requests = max(requests, 1)
        n = len(spans)
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def _timed(self, i):
        return self.spans[i][4] != SETUP

    def _outermost(self, i, names):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return False
            p = self.spans[p][3]
        return True

    def self_ms(self, names):
        """Exclusive time of these functions per request, in ms."""
        total = sum(self.self_time[i] for i, s in enumerate(self.spans) if s[0] in names and self._timed(i))
        return 1e3 * total / self.requests

    def total_ms(self, names, setup=False):
        """Inclusive time of the outermost spans of these functions (per request
        for the timed phase; in total for set-up), in ms."""
        total = sum(
            self.dur[i] for i, s in enumerate(self.spans)
            if s[0] in names and self._timed(i) != setup and self._outermost(i, names)
        )
        return 1e3 * total / (1 if setup else self.requests)

    def count(self, names, parent=None, outermost=False):
        return sum(
            1 for i, s in enumerate(self.spans)
            if s[0] in names and self._timed(i)
            and (parent is None or (s[3] >= 0 and self.spans[s[3]][0] == parent))
            and (not outermost or self._outermost(i, names))
        )

    def per_call(self, child, parent):
        calls = self.count({parent}, outermost=True)
        return self.count({child}, parent=parent) / calls if calls else 0.0


def layer_metrics(spans, requests, overhead_ratio):
    """Every per-layer metric, keyed by name, as (value, unit)."""
    st = SpanStats(spans, requests)
    ms, per = "ms/req", "count/req"
    return {
        "gh_solver.compact_pair_self_ms": (st.self_ms({"gh_solver.gh_compact_pair"}), ms),
        "gh_solver.truncated_pair_self_ms": (st.self_ms({"gh_solver.gh_truncated_pair"}), ms),
        "metric_core.ball_calls_per_truncated": (
            st.per_call("metric_core.ball", "gh_solver.gh_truncated_pair"), "calls/call"),
        "gh_solver.compact_tuple_self_ms": (st.self_ms({"gh_solver.gh_compact_tuple"}), ms),
        "gh_solver.approx_self_ms": (st.self_ms({"gh_solver.approx_search"}), ms),
        "gh_solver.approx_calls_per_min_eps": (
            st.per_call("gh_solver.approx_search", "gh_solver.min_approx_eps"), "calls/call"),
        "gh_solver.rough_isom_ms": (st.total_ms({"gh_solver.rough_isometry_search"}), ms),
        "gh_solver.isometry_ms": (st.total_ms({"gh_solver.pair_isometry_search"}), ms),
        "gluing.certificate_ms": (st.total_ms({"gluing.glue_from_constraints"}), ms),
        "gluing.certificate_calls": (st.count({"gluing.glue_from_constraints"}) / st.requests, per),
        "gluing.construct_ms": (st.total_ms(CONSTRUCT), ms),
        "hausdorff.eval_ms": (st.total_ms(HAUSDORFF), ms),
        "metric_core.validate_ms": (st.total_ms({"metric_core.validate_metric"}), ms),
        "metric_core.setup_validate_ms": (st.total_ms({"metric_core.validate_metric"}, setup=True), "ms"),
        "counting.count_ms": (st.total_ms(COUNTING), ms),
        "chain_lab.build_chain_ms": (st.total_ms({"chain_lab.build_chain"}), ms),
        "chain_lab.report_self_ms": (
            st.self_ms({"chain_lab.chain_convergence_report", "chain_lab.limit_proxy"}), ms),
        "formats.load_ms": (st.self_ms(LOADS), ms),
        "formats.dumps_ms": (st.self_ms(DUMPS), ms),
        "cli.frontend_self_ms": (st.self_ms({"cli.main", "cli.build_parser"}), ms),
        "cli.build_parser_ms": (st.total_ms({"cli.build_parser"}), ms),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
