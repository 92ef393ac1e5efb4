"""Tracing for the benchmark's traced run.

The tracer wraps public functions of the supcalc layers from the outside:
nothing inside ``src/supcalc`` changes.  Each wrapped name is replaced in
its defining module *and* in every other namespace that holds the same
function object (``supcalc.*`` re-exports, ``from .rewrite import ...`` in
``gen``, ``from .syntax import ...`` in ``corpus``), so calls made through
any binding are seen.

Entry points get spans (name, start, end, parent span, item id), kept in
memory and written out only when the run ends.  Hot inner calls only bump
counters, because a span per call would swamp the work being measured.
Span times are read from a clock that stands still while the tracer does
its own bookkeeping (counting the products of a ``compose``, walking a
derivation), so no span's duration includes that work.
A recursive function (``print_term``, ``replace_at``, ``subst_parallel``)
is recorded once, at its outermost call.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Layer -> functions that get a span.  Names with a dot are methods.
SPANS = {
    "syntax": ("parse_term", "print_term", "substitute", "subst_parallel",
               "alpha_eq", "canonical"),
    "checker": ("typecheck",),
    "rewrite": ("normalize", "normalize_random", "distribution", "step_all",
                "Distribution.aggregate"),
    "denote": ("denote", "check_step_soundness"),
    "matmodel": ("compose", "tensor_mat", "perm_mat", "check_laws"),
    "veccodec": ("encode_matrix", "from_vector", "to_vector",
                 "extract_linear_map"),
}

# Layer -> hot functions that only count calls.
COUNTERS = {
    "syntax": ("subterms", "replace_at"),
    "rewrite": ("contract",),
    "matmodel": ("identity",),
}

# Both substitution entry points report as one span name, so that
# ``substitute`` -> ``subst_parallel`` is a single substitution.
SPAN_NAME = {"syntax.subst_parallel": "syntax.substitute"}

# The layers each workload is predicted to use; the traced run fails if
# one of them records no call.
PREDICTED_LAYERS = {
    "laws": ("matmodel",),
    "confluence": ("syntax", "checker", "rewrite"),
    "forks": ("syntax", "checker", "rewrite"),
    "semantics": ("syntax", "checker", "rewrite", "denote", "matmodel",
                  "veccodec"),
}

# Per-layer metrics reported by the traced run: name -> unit.
METRICS = {
    "syntax.parse_term.s": "s",
    "syntax.parse_term.chars_per_s": "chars/s",
    "syntax.subterms.nodes": "count",
    "syntax.replace_at.calls": "count",
    "syntax.substitute.s": "s",
    "syntax.alpha_eq.s": "s",
    "rewrite.contract.calls": "count",
    "rewrite.contract.hits": "count",
    "rewrite.scan_hit_ratio": "ratio",
    "rewrite.normalize.s": "s",
    "rewrite.normalize_random.s": "s",
    "rewrite.distribution.s": "s",
    "rewrite.distribution.leaves": "count",
    "rewrite.distribution.distinct": "count",
    "rewrite.distinct_ratio": "ratio",
    "rewrite.step_all.s": "s",
    "checker.typecheck.calls": "count",
    "checker.typecheck.s": "s",
    "checker.typecheck.self_s": "s",
    "checker.derivation_nodes": "count",
    "denote.denote.calls": "count",
    "denote.denote.s": "s",
    "denote.denote.self_s": "s",
    "denote.out_entries": "count",
    "denote.check_step_soundness.s": "s",
    "matmodel.compose.calls": "count",
    "matmodel.compose.s": "s",
    "matmodel.compose.dense_cells": "count",
    "matmodel.compose.mults": "count",
    "matmodel.compose.useful_ratio": "ratio",
    "matmodel.check_laws.s": "s",
    "matmodel.tensor_mat.s": "s",
    "matmodel.perm_mat.s": "s",
    "matmodel.identity.calls": "count",
    "veccodec.encode_matrix.s": "s",
    "trace.overhead_ratio": "ratio",
}


def _derivation_nodes(d) -> int:
    n, stack = 0, [d]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


def _compose_mults(g, f) -> int:
    """Sum over k of nnz(column k of g) * nnz(row k of f): the products a
    zero-skipping matrix product cannot avoid."""
    zero = g.sr.zero
    col_nnz = [0] * g.cols
    ge = g.entries
    for i in range(g.rows):
        base = i * g.cols
        for k in range(g.cols):
            if ge[base + k] != zero:
                col_nnz[k] += 1
    fe, fc = f.entries, f.cols
    total = 0
    for k in range(f.rows):
        if col_nnz[k]:
            row = fe[k * fc:(k + 1) * fc]
            total += col_nnz[k] * (fc - row.count(zero))
    return total


class Tracer:
    """Spans and counters for one traced pass over a workload's items."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item]
        self.counts: dict[str, int] = defaultdict(int)
        self.item = -1
        self.hook_s = 0.0  # time spent in the tracer's own bookkeeping
        self._open: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        spans, open_, active, counts = (self.spans, self._open, self._active,
                                        self.counts)
        calls = name + ".calls"
        perf = time.perf_counter
        tracer = self

        def clock():
            return perf() - tracer.hook_s

        def wrapper(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            active[name] += 1
            counts[calls] += 1
            rec = [name, clock(), 0.0, open_[-1] if open_ else -1, self.item]
            idx = len(spans)
            spans.append(rec)
            open_.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
                active[name] -= 1
            if after is not None:
                # taken off the clock: it inflates no enclosing span
                start = perf()
                after(counts, args, out)
                tracer.hook_s += perf() - start
            return out

        return wrapper

    def _counter_wrapper(self, name, fn):
        counts = self.counts
        calls = name + ".calls"
        if name == "syntax.subterms":
            return _counting_generator(fn, counts, calls)
        if name == "rewrite.contract":
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[calls] += 1
                if out:
                    counts["rewrite.contract.hits"] += 1
                return out
            return wrapper
        active = self._active

        def wrapper(*args, **kwargs):
            if active[name]:
                return fn(*args, **kwargs)
            counts[calls] += 1
            active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                active[name] -= 1

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every listed function of ``package``'s layer modules in all
        namespaces that bind it."""
        prefix = package.__name__
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for layer, names in SPANS.items():
            module = sys.modules[f"{prefix}.{layer}"]
            for qual in names:
                full = f"{layer}.{qual.split('.')[-1]}"
                span_name = SPAN_NAME.get(full, full)
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(module, cls_name)
                    fn = cls.__dict__[meth]
                    self._set(cls, meth, self._span_wrapper(
                        span_name, fn, _AFTER.get(span_name)))
                    continue
                fn = getattr(module, qual)
                self._rebind(namespaces, fn, self._span_wrapper(
                    span_name, fn, _AFTER.get(span_name)))
        for layer, names in COUNTERS.items():
            module = sys.modules[f"{prefix}.{layer}"]
            for qual in names:
                fn = getattr(module, qual)
                self._rebind(namespaces, fn,
                             self._counter_wrapper(f"{layer}.{qual}", fn))

    def _rebind(self, namespaces, fn, wrapper) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is fn:
                    self._set(ns, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def layer_calls(self) -> dict[str, int]:
        out = defaultdict(int)
        for key, n in self.counts.items():
            if key.endswith(".calls"):
                out[key.split(".")[0]] += n
        return dict(out)

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        covered: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - covered.get(idx, 0.0)
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "syntax.parse_term.s": total["syntax.parse_term"],
            "syntax.parse_term.chars_per_s": ratio(
                c["syntax.parse_term.chars"], total["syntax.parse_term"]),
            "syntax.subterms.nodes": c["syntax.subterms.nodes"],
            "syntax.replace_at.calls": c["syntax.replace_at.calls"],
            "syntax.substitute.s": total["syntax.substitute"],
            "syntax.alpha_eq.s": total["syntax.alpha_eq"],
            "rewrite.contract.calls": c["rewrite.contract.calls"],
            "rewrite.contract.hits": c["rewrite.contract.hits"],
            "rewrite.scan_hit_ratio": ratio(c["rewrite.contract.hits"],
                                            c["rewrite.contract.calls"]),
            "rewrite.normalize.s": total["rewrite.normalize"],
            "rewrite.normalize_random.s": total["rewrite.normalize_random"],
            "rewrite.distribution.s": total["rewrite.distribution"],
            "rewrite.distribution.leaves": c["rewrite.distribution.leaves"],
            "rewrite.distribution.distinct": c["rewrite.distribution.distinct"],
            "rewrite.distinct_ratio": ratio(c["rewrite.distribution.distinct"],
                                            c["rewrite.distribution.leaves"]),
            "rewrite.step_all.s": total["rewrite.step_all"],
            "checker.typecheck.calls": c["checker.typecheck.calls"],
            "checker.typecheck.s": total["checker.typecheck"],
            "checker.typecheck.self_s": self_time["checker.typecheck"],
            "checker.derivation_nodes": c["checker.derivation_nodes"],
            "denote.denote.calls": c["denote.denote.calls"],
            "denote.denote.s": total["denote.denote"],
            "denote.denote.self_s": self_time["denote.denote"],
            "denote.out_entries": c["denote.out_entries"],
            "denote.check_step_soundness.s": total["denote.check_step_soundness"],
            "matmodel.compose.calls": c["matmodel.compose.calls"],
            "matmodel.compose.s": total["matmodel.compose"],
            "matmodel.compose.dense_cells": c["matmodel.compose.dense_cells"],
            "matmodel.compose.mults": c["matmodel.compose.mults"],
            "matmodel.compose.useful_ratio": ratio(
                c["matmodel.compose.mults"], c["matmodel.compose.dense_cells"]),
            "matmodel.check_laws.s": total["matmodel.check_laws"],
            "matmodel.tensor_mat.s": total["matmodel.tensor_mat"],
            "matmodel.perm_mat.s": total["matmodel.perm_mat"],
            "matmodel.identity.calls": c["matmodel.identity.calls"],
            "veccodec.encode_matrix.s": total["veccodec.encode_matrix"],
            "trace.overhead_ratio": overhead_ratio,
        }
        assert set(values) == set(METRICS)
        return values

    def dump(self, path, header: dict) -> None:
        """Write the spans and counters as one JSON document."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = dict(header)
        doc["span_names"] = names
        doc["spans"] = [[index[n], round(a, 7), round(b, 7), p, item]
                        for n, a, b, p, item in self.spans]
        doc["counts"] = dict(sorted(self.counts.items()))
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _counting_generator(fn, counts, calls):
    def wrapper(*args, **kwargs):
        counts[calls] += 1
        n = 0
        try:
            for pair in fn(*args, **kwargs):
                n += 1
                yield pair
        finally:
            counts["syntax.subterms.nodes"] += n
    return wrapper


def _after_parse(counts, args, out):
    counts["syntax.parse_term.chars"] += len(args[0])


def _after_distribution(counts, args, out):
    counts["rewrite.distribution.leaves"] += len(out.items)


def _after_aggregate(counts, args, out):
    counts["rewrite.distribution.distinct"] += len(out)


def _after_typecheck(counts, args, out):
    counts["checker.derivation_nodes"] += _derivation_nodes(out)


def _after_denote(counts, args, out):
    counts["denote.out_entries"] += out.matrix.rows * out.matrix.cols


def _after_compose(counts, args, out):
    g, f = args[0], args[1]
    counts["matmodel.compose.dense_cells"] += g.rows * g.cols * f.cols
    counts["matmodel.compose.mults"] += _compose_mults(g, f)


_AFTER = {
    "syntax.parse_term": _after_parse,
    "rewrite.distribution": _after_distribution,
    "rewrite.aggregate": _after_aggregate,
    "checker.typecheck": _after_typecheck,
    "denote.denote": _after_denote,
    "matmodel.compose": _after_compose,
}
