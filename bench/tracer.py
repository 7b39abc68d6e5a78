"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every binding of each public entry point below
(module attributes, re-exports in other modules, class attributes and their
aliases such as ``RingElement.__rmul__``) with a wrapper that records a
span, and ``uninstall`` puts the originals back.  No package source
changes.  A span is ``[name, start, end, parent, query, child_seconds]``;
spans live in memory and are written out once, when the run ends.  The
self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  These are the calls the per-layer
# metrics need; everything else a query does is self time of its callers.
TARGETS = [
    ("picard", "LineBundleClass.__mul__", "picard.mul"),
    ("picard", "LineBundleClass.__pow__", "picard.pow"),
    ("bundles", "BundleObject.__mul__", "bundles.tensor"),
    ("bundles", "BundleObject.__add__", "bundles.add"),
    ("bundles", "hom_dim", "bundles.hom"),
    ("kring", "RingElement.__mul__", "kring.ring_mul"),
    ("kring", "summand_closure", "kring.closure"),
    ("kring", "closed_form_S", "kring.closed_form"),
    ("kring", "tannakian_label", "kring.label"),
    ("jordan", "jordan_tensor", "jordan.jordan_tensor"),
    ("jordan", "exact_rank", "jordan.exact_rank"),
    ("jordan", "product_tensor", "jordan.product_tensor"),
    ("jordan", "phi_transport", "jordan.transport"),
    ("expr", "parse", "expr.parse"),
    ("expr", "evaluate", "expr.evaluate"),
    ("cli", "main", "cli.main"),
]

# Per-layer metrics: name, unit, better.  The ``cli.*`` timings come from
# child processes and the in-process CLI, ``trace.overhead_frac`` from
# comparing traced and untraced passes; the runner fills those in.
PER_LAYER = [
    ("picard.mul_calls", "count", "lower"),
    ("picard.mul_s", "s", "lower"),
    ("picard.pow_calls", "count", "lower"),
    ("picard.pow_s", "s", "lower"),
    ("picard.mul_per_twist_pair", "ratio", "lower"),
    ("bundles.tensor_calls", "count", "lower"),
    ("bundles.tensor_s", "s", "lower"),
    ("bundles.tensor_self_s", "s", "lower"),
    ("bundles.summand_pairs", "count", "lower"),
    ("bundles.twist_pairs", "count", "lower"),
    ("bundles.output_classes", "count", "lower"),
    ("bundles.hom_s", "s", "lower"),
    ("bundles.add_s", "s", "lower"),
    ("kring.ring_mul_calls", "count", "lower"),
    ("kring.ring_mul_s", "s", "lower"),
    ("kring.closure_calls", "count", "lower"),
    ("kring.closure_s", "s", "lower"),
    ("kring.closure_self_s", "s", "lower"),
    ("kring.closure_classes", "count", "lower"),
    ("kring.closure_stabilized_frac", "ratio", "higher"),
    ("kring.closed_form_s", "s", "lower"),
    ("kring.label_s", "s", "lower"),
    ("jordan.jordan_tensor_calls", "count", "lower"),
    ("jordan.jordan_tensor_s", "s", "lower"),
    ("jordan.cache_hit_frac", "ratio", "higher"),
    ("jordan.exact_rank_calls", "count", "lower"),
    ("jordan.exact_rank_s", "s", "lower"),
    ("jordan.rank_matrix_entries", "count", "lower"),
    ("jordan.matrix_dim_max", "count", "lower"),
    ("jordan.product_tensor_s", "s", "lower"),
    ("jordan.transport_s", "s", "lower"),
    ("expr.parse_calls", "count", "lower"),
    ("expr.parse_s", "s", "lower"),
    ("expr.evaluate_s", "s", "lower"),
    ("expr.evaluate_self_s", "s", "lower"),
    ("expr.input_chars", "count", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Spans and counters for the traced passes of one run."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list = []
        self.kept: list = []  # the first traced pass, written out at exit
        self.stack: list = []
        self.query = -1
        self.passes = 0
        self.totals: dict = defaultdict(float)
        self._pairs: set = set()  # ordered twist pairs multiplied in this query
        self._saved: list = []
        self._lru = pkg.jordan.jordan_tensor
        self._hooks = {
            "picard.mul": self._on_mul,
            "bundles.tensor": self._on_tensor,
            "kring.closure": self._on_closure,
            "jordan.exact_rank": self._on_rank,
            "jordan.jordan_tensor": self._on_jordan,
            "expr.parse": self._on_parse,
        }

    # -- counters, recorded at the same boundaries as the spans ---------------

    def _on_mul(self, args, result, token):
        self._pairs.add((args[0], args[1]))

    def _on_tensor(self, args, result, token):
        a, b = args
        t = self.totals
        t["summand_pairs"] += len(a.summands) * len(b.summands)
        t["twist_pairs"] += len({i.twist for i, _ in a.summands}) * len({i.twist for i, _ in b.summands})
        t["output_classes"] += len(result.summands)

    def _on_closure(self, args, result, token):
        self.totals["closure_classes"] += len(result.classes)
        self.totals["closure_stabilized"] += result.stabilized

    def _on_rank(self, args, result, token):
        rows = args[0]
        cols = len(rows[0]) if rows else 0
        self.totals["rank_matrix_entries"] += len(rows) * cols
        self.totals["matrix_dim_max"] = max(self.totals["matrix_dim_max"], len(rows), cols)

    def _on_jordan(self, args, result, token):
        hit = self._lru.cache_info().misses == token
        self.totals["jordan_hits" if hit else "jordan_misses"] += 1

    def _on_parse(self, args, result, token):
        self.totals["input_chars"] += len(args[0])

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self
        hook = self._hooks.get(name)
        lru = self._lru if name == "jordan.jordan_tensor" else None

        def traced(*args, **kwargs):
            token = lru.cache_info().misses if lru is not None else None
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, parent, tracer.query, 0.0]
            stack.append(rec)
            rec[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = clock()
                stack.pop()
                if parent is not None:
                    parent[5] += end - start
                spans.append(rec)
            if hook is not None:
                hook(args, result, token)
            return result

        if lru is not None:
            traced.cache_clear = lru.cache_clear
            traced.cache_info = lru.cache_info
        return traced

    def install(self) -> None:
        modules = [getattr(self.pkg, name) for name in vars(self.pkg)]
        modules.append(sys.modules[modules[0].__package__])
        owners = list(modules)
        for module in modules:
            owners.extend(v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__)
        for module_name, path, span in TARGETS:
            original = _resolve(getattr(self.pkg, module_name), path)
            wrapper = self._wrap(span, original)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._saved.append((owner, attr, original))
                        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- queries and passes -----------------------------------------------------

    def begin_query(self, query: int) -> None:
        self.end_query()
        self.query = query

    def end_query(self) -> None:
        self.totals["twist_pairs_distinct"] += len(self._pairs)
        self._pairs.clear()

    def end_pass(self) -> None:
        """Fold this pass's spans into the totals; keep the first pass's spans."""
        self.end_query()
        t = self.totals
        for rec in self.spans:
            name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
            duration = end - start
            t[name + ".calls"] += 1
            t[name + ".self_s"] += duration - rec[5]
            while parent is not None and parent[0] != name:
                parent = parent[3]
            if parent is None:  # outermost span of its name
                t[name + ".s"] += duration
        if not self.passes:
            self.kept = list(self.spans)
        self.spans.clear()
        self.passes += 1

    def metrics(self) -> dict:
        """Per-layer values per traced pass (times in s), except cli.* and trace.*."""
        t, n = self.totals, max(self.passes, 1)

        def ratio(num, den):
            return t[num] / t[den] if t[den] else 0.0

        hits, misses = t["jordan_hits"], t["jordan_misses"]
        values = {
            "picard.mul_calls": t["picard.mul.calls"] / n,
            "picard.mul_s": t["picard.mul.s"] / n,
            "picard.pow_calls": t["picard.pow.calls"] / n,
            "picard.pow_s": t["picard.pow.s"] / n,
            "picard.mul_per_twist_pair": ratio("picard.mul.calls", "twist_pairs_distinct"),
            "bundles.tensor_calls": t["bundles.tensor.calls"] / n,
            "bundles.tensor_s": t["bundles.tensor.s"] / n,
            "bundles.tensor_self_s": t["bundles.tensor.self_s"] / n,
            "bundles.summand_pairs": t["summand_pairs"] / n,
            "bundles.twist_pairs": t["twist_pairs"] / n,
            "bundles.output_classes": t["output_classes"] / n,
            "bundles.hom_s": t["bundles.hom.s"] / n,
            "bundles.add_s": t["bundles.add.s"] / n,
            "kring.ring_mul_calls": t["kring.ring_mul.calls"] / n,
            "kring.ring_mul_s": t["kring.ring_mul.s"] / n,
            "kring.closure_calls": t["kring.closure.calls"] / n,
            "kring.closure_s": t["kring.closure.s"] / n,
            "kring.closure_self_s": t["kring.closure.self_s"] / n,
            "kring.closure_classes": t["closure_classes"] / n,
            "kring.closure_stabilized_frac": ratio("closure_stabilized", "kring.closure.calls"),
            "kring.closed_form_s": t["kring.closed_form.s"] / n,
            "kring.label_s": t["kring.label.s"] / n,
            "jordan.jordan_tensor_calls": t["jordan.jordan_tensor.calls"] / n,
            "jordan.jordan_tensor_s": t["jordan.jordan_tensor.s"] / n,
            "jordan.cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
            "jordan.exact_rank_calls": t["jordan.exact_rank.calls"] / n,
            "jordan.exact_rank_s": t["jordan.exact_rank.s"] / n,
            "jordan.rank_matrix_entries": t["rank_matrix_entries"] / n,
            "jordan.matrix_dim_max": t["matrix_dim_max"],
            "jordan.product_tensor_s": t["jordan.product_tensor.s"] / n,
            "jordan.transport_s": t["jordan.transport.s"] / n,
            "expr.parse_calls": t["expr.parse.calls"] / n,
            "expr.parse_s": t["expr.parse.s"] / n,
            "expr.evaluate_s": t["expr.evaluate.s"] / n,
            "expr.evaluate_self_s": t["expr.evaluate.self_s"] / n,
            "expr.input_chars": t["input_chars"] / n,
        }
        return values

    def write(self, path) -> None:
        """Write the kept spans (parents as indices) and the totals as JSON."""
        index = {id(rec): i for i, rec in enumerate(self.kept)}
        spans = [
            [name, start, end, index.get(id(parent), -1), query, end - start - child]
            for name, start, end, parent, query, child in self.kept
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "query", "self_s"],
                    "spans": spans,
                    "totals": dict(self.totals),
                    "passes": self.passes,
                },
                handle,
            )
