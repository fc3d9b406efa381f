"""Outside-in tracer for the benchmark's traced run.

The tracer patches, for the duration of one traced unit, every module-level
name through which one trishift module calls a public function of another
(for example ``trishift.cli.compact_isometry_split`` or
``trishift.analysis.build_shift``).  Each call becomes a span with a name,
start, end and parent span.  Spans are kept in memory; the caller writes them
out when the traced unit ends.

Counters are taken at the same boundaries:

* ``numpy.linalg`` dense factorizations (``svd``, ``eigh``, ``eigvalsh`` and
  ``norm`` with ``ord=2``), charged to the innermost open layer, with their
  time and a flop estimate computed from the operand shapes;
* sections, dense bytes and certified tail columns returned by ``operators``;
* kernel pairs, terms used and converged pairs returned by ``eval_kernel``;
* per-index expression evaluations (``SequenceExpr.evaluate``);
* bytes written by ``reporting`` writers, read back from the file size.

Nothing here is imported by trishift itself, and an untraced run never
installs the patches.
"""

from __future__ import annotations

import importlib
import os
import resource
import sys
import time
import types
from collections import Counter

LAYER_OF_MODULE = {
    "trishift.cli": "cli",
    "trishift.sequences": "sequences",
    "trishift.expr": "sequences",  # sequences calls expr once per index
    "trishift.operators": "operators",
    "trishift.analysis": "analysis",
    "trishift.kernels": "kernels",
    "trishift.reporting": "reporting",
}
LAYERS = ("cli", "sequences", "operators", "analysis", "kernels", "reporting")
ROOT_LAYER = "bench"  # the benchmark's own code around the calls it times

_LINALG = ("svd", "eigh", "eigvalsh", "norm")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def factorization_flops(kind: str, shape: tuple[int, ...], is_complex: bool,
                        vectors: bool) -> float:
    """Operation-count estimate (Golub & Van Loan, 4th ed., tables 8.6.1 and
    8.3.1) for one dense factorization; complex arithmetic counts 4x."""
    if kind in ("svd", "norm2"):
        m, n = max(shape[-2:]), min(shape[-2:])
        flops = 14.0 * m * n * n + 8.0 * n ** 3 if vectors else 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
    else:  # eigh / eigvalsh on an n x n Hermitian matrix
        n = shape[-1]
        flops = 9.0 * n ** 3 if vectors else 4.0 * n ** 3 / 3.0
    return flops * (4.0 if is_complex else 1.0)


class Tracer:
    """Spans and counters of one traced unit."""

    def __init__(self) -> None:
        # span records: [name, layer, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.rss_high: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()
        rss = _rss_mb()
        if rss > self.rss_high.get(rec[1], 0.0):
            self.rss_high[rec[1]] = rss

    def _current_layer(self) -> str:
        return self.spans[self._stack[-1]][1] if self._stack else ROOT_LAYER

    def run_root(self, fn, *args):
        """Run ``fn(*args)`` inside the root span of the traced unit."""
        rec = self._open("bench.unit", ROOT_LAYER)
        try:
            return fn(*args)
        finally:
            self._close(rec)

    # -- patching ------------------------------------------------------

    def _patch(self, owner: object, name: str, replacement: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap the cross-module call sites of every trishift layer."""
        import numpy as np

        from trishift.expr import SequenceExpr

        for mod_name in LAYER_OF_MODULE:
            module = importlib.import_module(mod_name)
            for name, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__
                if home not in LAYER_OF_MODULE:
                    continue
                if name not in getattr(sys.modules[home], "__all__", ()):
                    continue
                span_name = f"{home.rsplit('.', 1)[1]}.{name}"
                self._patch(module, name, self._wrap(obj, span_name, LAYER_OF_MODULE[home]))
        for name in _LINALG:
            self._patch(np.linalg, name, self._wrap_linalg(getattr(np.linalg, name), name))
        self._patch(SequenceExpr, "evaluate", self._wrap_evaluate(SequenceExpr.evaluate))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _wrap(self, fn, span_name: str, layer: str):
        tracer = self
        hook = _HOOKS.get(layer)

        def traced(*args, **kwargs):
            rec = tracer._open(span_name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            # count only where the call enters the layer, so nested calls
            # inside one layer are not counted twice
            parent = rec[4]
            if hook is not None and (parent < 0 or tracer.spans[parent][1] != layer):
                hook(tracer, span_name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_linalg(self, fn, kind: str):
        tracer = self

        def counted(a, *args, **kwargs):
            if kind == "norm":
                ord_ = args[0] if args else kwargs.get("ord")
                if ord_ != 2 or getattr(a, "ndim", 0) != 2:
                    return fn(a, *args, **kwargs)
                label, vectors = "norm2", False
            elif kind == "svd":
                label = kind
                vectors = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            else:
                label, vectors = kind, kind == "eigh"
            layer = tracer._current_layer()
            t0 = time.perf_counter()
            result = fn(a, *args, **kwargs)
            tracer.counts[f"{layer}.factorize_s"] += time.perf_counter() - t0
            tracer.counts[f"{layer}.factorizations"] += 1
            tracer.counts[f"{layer}.factorize_flops"] += factorization_flops(
                label, a.shape, a.dtype.kind == "c", bool(vectors)
            )
            return result

        counted.__wrapped__ = fn
        return counted

    def _wrap_evaluate(self, fn):
        counts = self.counts

        def evaluate(expr, n):
            counts["sequences.expr_evals"] += 1
            return fn(expr, n)

        evaluate.__wrapped__ = fn
        return evaluate

    # -- summaries -----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in (ROOT_LAYER,) + LAYERS}
        for (name, layer, start, end, parent), inner in zip(self.spans, child):
            out[layer] += (end - start) - inner
        return out

    def inclusive(self, span_name: str) -> float:
        return sum(end - start for name, _l, start, end, _p in self.spans if name == span_name)

    def span_counts(self) -> Counter:
        return Counter(rec[0] for rec in self.spans)

    def layer_metrics(self, untraced_median: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics the benchmark reports, as (value, unit)."""
        c = self.counts
        selfs = self.self_times()
        wall = self.spans[0][3] - self.spans[0][2]
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (selfs[layer], "s")
        out["analysis.factorize_s"] = (c["analysis.factorize_s"], "s")
        out["analysis.factorizations"] = (c["analysis.factorizations"], "count")
        out["analysis.factorize_flops"] = (c["analysis.factorize_flops"], "flop")
        out["operators.sections"] = (c["operators.sections"], "count")
        out["operators.dense_bytes"] = (c["operators.dense_bytes"], "B")
        cols = c["operators.columns"]
        out["operators.tail_certified_ratio"] = (
            c["operators.certified_columns"] / cols if cols else 0.0, "ratio")
        pairs = c["kernels.pairs"]
        out["kernels.pairs"] = (pairs, "count")
        out["kernels.terms_used"] = (c["kernels.terms_used"], "count")
        out["kernels.converged_ratio"] = (c["kernels.converged"] / pairs if pairs else 0.0, "ratio")
        out["kernels.residual_grid_s"] = (self.inclusive("kernels.adjoint_residual_grid"), "s")
        out["sequences.materialize_s"] = (self.inclusive("sequences.materialize"), "s")
        out["sequences.expr_evals"] = (c["sequences.expr_evals"], "count")
        out["reporting.bytes_written"] = (c["reporting.bytes_written"], "B")
        for layer in LAYERS:
            out[f"{layer}.rss_high_mb"] = (self.rss_high.get(layer, 0.0), "MB")
        out["bench.self_s"] = (selfs[ROOT_LAYER], "s")
        out["trace.wall_s"] = (wall, "s")
        out["trace.overhead_s"] = (wall - untraced_median, "s")
        out["trace.accounted_share"] = (sum(selfs[l] for l in LAYERS) / wall, "ratio")
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "layer": l, "start": s, "end": e, "parent": p}
                for n, l, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
            "rss_high_mb": dict(self.rss_high),
        }


# -- boundary hooks: counts taken where a call enters a layer ---------------

def _operators_hook(tracer: Tracer, name: str, args, kwargs, result) -> None:
    ops = result if isinstance(result, tuple) else (result,)
    for op in ops:
        if hasattr(op, "b1"):  # BlockSet
            ops_in = (op.b1, op.b2, op.b3, op.u)
        elif hasattr(op, "entries"):
            ops_in = (op,)
        else:
            continue
        for section in ops_in:
            tracer.counts["operators.sections"] += 1
            tracer.counts["operators.dense_bytes"] += section.entries.nbytes
            tracer.counts["operators.columns"] += section.order
            if section.tail_bound is not None:
                tracer.counts["operators.certified_columns"] += section.order


def _kernels_hook(tracer: Tracer, name: str, args, kwargs, result) -> None:
    if name == "kernels.eval_kernel":
        tracer.counts["kernels.pairs"] += 1
        tracer.counts["kernels.terms_used"] += result.terms_used
        tracer.counts["kernels.converged"] += int(result.converged)


def _reporting_hook(tracer: Tracer, name: str, args, kwargs, result) -> None:
    if name == "reporting.write_csv":
        path = args[0] if args else kwargs["path"]
    elif name in ("reporting.write_report", "reporting.write_json"):
        path = args[1] if len(args) > 1 else kwargs["path"]
    else:
        return
    tracer.counts["reporting.bytes_written"] += os.path.getsize(path)


_HOOKS = {
    "operators": _operators_hook,
    "kernels": _kernels_hook,
    "reporting": _reporting_hook,
}
