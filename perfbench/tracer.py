"""Spans and counts around the library's layers, recorded from outside.

:meth:`Tracer.install` replaces every public function of the layer
modules with a wrapper, at every module of the package that binds it (so
``spectral.build_complex`` and ``complexes.require_valid`` are caught as
well as ``complexes.build_complex``), and replaces the constructors and
arithmetic of ``IntMatrix`` with call counters.  :meth:`Tracer.remove`
puts the originals back.  No file of the library changes.

A span is ``(name, start, end, parent, document)``; spans are kept in a
list and written out at the end of the run.  A span's self time is its
duration minus the durations of its direct children, and a layer's self
time is the sum over its spans.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Timed layers, in the package's import order; intmat is only counted.
LAYERS = ("kgraph", "documents", "complexes", "snf", "homology", "spectral", "cli")
INTMAT_COUNTED = ("identity", "zeros", "from_rows", "block", "block_diagonal", "transpose",
                  "scaled", "det", "__matmul__", "__add__", "__sub__", "__neg__")
DOC_SPAN = "harness.document"


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list = []
        self.stack: list[int] = []
        self.doc = -1
        self.counts: Counter = Counter()
        self.work: Counter = Counter()  # d∘d multiply-adds, SNF input cells and nonzeros
        self.max_divisor_bits = 0
        self._patches: list = []

    # -- installing and removing the wrappers ------------------------------

    def install(self) -> None:
        wrappers = {}  # id of the original -> wrapper; the wrapper keeps the original alive
        for layer in LAYERS:
            mod = getattr(self.lib, layer)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        for mod in [m for n, m in sys.modules.items() if n == "evansk" or n.startswith("evansk.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        cls = self.lib.intmat.IntMatrix
        for attr in INTMAT_COUNTED:
            original = cls.__dict__.get(attr)
            if isinstance(original, classmethod):
                self._patch(cls, attr, classmethod(self._count(original.__func__, attr)))
            elif inspect.isfunction(original):
                self._patch(cls, attr, self._count(original, attr))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _count(self, fn, attr: str):
        counts = self.counts
        key = "intmat." + attr.strip("_")

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, fn, name: str):
        before = after = None
        if name == "complexes.differential_product_witness":
            before = self._dd_work
        elif name in ("snf.elementary_divisors", "snf.smith_normal_form"):
            before, after = self._snf_input, self._snf_output
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            counts[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.doc)
            if after is not None:
                after(result)
            return result

        return traced

    @contextlib.contextmanager
    def document(self, doc_id: int):
        """One document: a root span that all its layer spans hang from."""
        self.doc = doc_id
        depth = len(self.stack)
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            del self.stack[depth:]  # a timeout can cut a wrapper short
            self.spans[idx] = (DOC_SPAN, t0, t1, -1, doc_id)

    # -- work counters, computed outside the timed spans -------------------

    def _dd_work(self, cc, *_):
        self.work["dd_madds"] += sum(
            cc.boundary(p).rows * cc.boundary(p).cols * cc.boundary(p + 1).cols
            for p in range(1, cc.length)
        )

    def _snf_input(self, m, *_):
        self.work["snf_cells"] += m.rows * m.cols
        self.work["snf_nnz"] += sum(1 for i in range(m.rows) for x in m.row(i) if x)

    def _snf_output(self, result):
        divisors = getattr(result, "divisors", result)
        bits = max((abs(d).bit_length() for d in divisors), default=0)
        self.max_divisor_bits = max(self.max_divisor_bits, bits)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over the run."""
        spans = [s for s in self.spans if s is not None]  # None: cut short by a timeout
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for idx, span in enumerate(self.spans):
            if span is not None:
                out[span[0]] += span[2] - span[1] - child[idx]
        return out

    def layer_metrics(self, docs: int) -> dict[str, float]:
        """The per-layer metrics, each per document."""
        own = self.self_times()

        def layer(prefix: str, exclude: tuple[str, ...] = ()) -> float:
            return sum(v for n, v in own.items() if n.startswith(prefix) and n not in exclude)

        dd = "complexes.differential_product_witness"
        c = self.counts
        totals = {
            "documents.load_s": layer("documents."),
            "cli.self_s": layer("cli."),
            "kgraph.validate_s": own.get("kgraph.validate", 0.0) + own.get("kgraph.require_valid", 0.0),
            "kgraph.validate_calls": c["kgraph.validate"],
            "kgraph.coadjacencies_calls": c["kgraph.coadjacencies"],
            "complexes.build_complex_calls": c["complexes.build_complex"],
            "complexes.assemble_s": layer("complexes.", exclude=(dd,)),
            "complexes.dd_check_s": own.get(dd, 0.0),
            "complexes.dd_check_madds": self.work["dd_madds"],
            "homology.self_s": layer("homology."),
            "intmat.identity_calls": c["intmat.identity"],
            "intmat.block_calls": c["intmat.block"],
            "snf.divisors_s": layer("snf."),
            "snf.calls": c["snf.elementary_divisors"] + c["snf.smith_normal_form"],
            "snf.input_cells": self.work["snf_cells"],
            "snf.input_nnz": self.work["snf_nnz"],
            "spectral.verdict_self_s": layer("spectral."),
        }
        out = {name: value / docs for name, value in totals.items()}
        out["snf.max_divisor_bits"] = self.max_divisor_bits
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("name,start_s,end_s,parent,document\n")
            for span in filter(None, self.spans):
                name, t0, t1, parent, doc = span
                f.write(f"{name},{t0!r},{t1!r},{parent},{doc}\n")
