"""Spans and counters around braidalg's public functions, from outside the package.

Two instruments share one installer:

* ``SpanRecorder`` times every call into the wrapped functions.  Each span
  records its name, start, end, parent span and job id; spans stay in memory
  until the run ends.  A span's self time is its duration minus the time
  covered by its child spans.
* ``CallCounter`` counts calls and the work they are handed (nonzero cells,
  grid sizes, cache hits), and also counts the scalar operations of
  ``FieldSpec``.  It is installed only for passes whose time is not reported,
  because counting every scalar operation slows the run severalfold.

Modules such as ``cli`` and ``tensoralg`` use ``from .x import y``, so a
wrapped function is rebound in every ``braidalg`` module that holds it, not
only where it is defined.  Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, names of the module functions it covers)
FUNCTION_SPANS = {
    "cli.main": ("braidalg.cli", ("main",)),
    "serialize.to_json": ("braidalg.serialize",
                          ("matrix_to_json", "braiding_to_json", "bialgebra_to_json")),
    "serialize.from_json": ("braidalg.serialize",
                            ("matrix_from_json", "braiding_from_json", "bialgebra_from_json",
                             "field_from_json")),
    "serialize.kind_of_input": ("braidalg.serialize", ("kind_of_input",)),
    "tensoralg.build": ("braidalg.tensoralg", ("build_truncated",)),
    "tensoralg.axioms": ("braidalg.tensoralg", ("check_truncated_axioms",)),
    "braided.compare": ("braidalg.braided", ("compare",)),
    "braided.check_yang_baxter": ("braidalg.braided", ("check_yang_baxter",)),
    "braided.check_braided_bialgebra": ("braidalg.braided", ("check_braided_bialgebra",)),
    "primitives.primitives": ("braidalg.primitives", ("primitives",)),
    "primitives.primitives_of_tensor": ("braidalg.primitives", ("primitives_of_tensor",)),
    "primitives.restrict_braiding": ("braidalg.primitives", ("restrict_braiding",)),
    "adjunctions.check_triangles_T_Omega": ("braidalg.adjunctions", ("check_triangles_T_Omega",)),
    "adjunctions.check_triangles_Tbar_P": ("braidalg.adjunctions", ("check_triangles_Tbar_P",)),
    "adjunctions.check_zeta_coalgebra": ("braidalg.adjunctions", ("check_zeta_coalgebra",)),
    "adjunctions.primitive_counit_blocks": ("braidalg.adjunctions", ("primitive_counit_blocks",)),
    "transport.transport_bialgebra": ("braidalg.transport", ("transport_bialgebra",)),
    "transport.check_primfunct_square": ("braidalg.transport", ("check_primfunct_square",)),
    "transport.check_J_compatibility": ("braidalg.transport", ("check_J_compatibility",)),
    "transport.check_twist_coherence": ("braidalg.transport", ("check_twist_coherence",)),
}

# span name -> (module, class, names of the methods it covers)
METHOD_SPANS = {
    "braidrep.block": ("braidalg.braidrep", "BraidRepCache", ("block",)),
    "matrix.construct": ("braidalg.matrix", "ExactMatrix", ("__init__",)),
    "matrix.mul": ("braidalg.matrix", "ExactMatrix", ("__mul__",)),
    "matrix.kron": ("braidalg.matrix", "ExactMatrix", ("kron",)),
    "matrix.addsub": ("braidalg.matrix", "ExactMatrix", ("__add__", "__sub__")),
    "matrix.eq": ("braidalg.matrix", "ExactMatrix", ("__eq__",)),
    "matrix.rref": ("braidalg.matrix", "ExactMatrix", ("rref",)),
    "matrix.nullspace": ("braidalg.matrix", "ExactMatrix", ("nullspace",)),
    "matrix.solve": ("braidalg.matrix", "ExactMatrix", ("solve",)),
    "matrix.inverse": ("braidalg.matrix", "ExactMatrix", ("inverse",)),
}

FIELD_OPS = ("add", "sub", "mul", "inv", "neg", "element", "normalize")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


SPAN_NAMES = tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS)
LAYERS = tuple(dict.fromkeys(layer_of(name) for name in SPAN_NAMES))


class Patch:
    """Attribute assignments that ``restore`` undoes in reverse order."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


def rebind_everywhere(patch: Patch, original, replacement) -> int:
    """Point every ``braidalg`` module name bound to ``original`` at
    ``replacement``; returns how many names were rebound."""
    hits = 0
    for modname, module in list(sys.modules.items()):
        if modname != "braidalg" and not modname.startswith("braidalg."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patch.set(module, attr, replacement)
                hits += 1
    return hits


@contextmanager
def instrumented(wrap, field_ops=None):
    """Install ``wrap(span_name, fn)`` around every traced function and
    method, and ``field_ops(op, fn)`` around the ``FieldSpec`` operations;
    restore the originals on exit."""
    patch = Patch()
    try:
        for span, (modname, names) in FUNCTION_SPANS.items():
            module = importlib.import_module(modname)
            for fname in names:
                original = vars(module)[fname]
                if not rebind_everywhere(patch, original, wrap(span, original)):
                    raise RuntimeError(f"{modname}.{fname} is bound nowhere")
        for span, (modname, clsname, names) in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(modname), clsname)
            for mname in names:
                patch.set(cls, mname, wrap(span, vars(cls)[mname]))
        if field_ops is not None:
            from braidalg.fields import FieldSpec
            for op in FIELD_OPS:
                patch.set(FieldSpec, op, field_ops(op, vars(FieldSpec)[op]))
        yield
    finally:
        patch.restore()


# -- spans -----------------------------------------------------------------


class SpanRecorder:
    """Records ``(name, start, end, parent index, job)`` per call, in call order."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.job: str | None = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are nested and run on one thread, so children never overlap and
    the time they cover is the sum of their durations.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_metrics(spans) -> dict[str, float]:
    """``<span>.calls``, ``<span>.self_s`` and ``<layer>.self_s`` for every
    span and layer, plus ``trace.root_s``: the summed root span durations."""
    out: dict[str, float] = {f"{name}.calls": 0 for name in SPAN_NAMES}
    out.update({f"{name}.self_s": 0.0 for name in SPAN_NAMES})
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    root = 0.0
    for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[f"{layer_of(name)}.self_s"] += own
        if parent < 0:
            root += end - start
    out["trace.root_s"] = root
    return out


# -- counters ----------------------------------------------------------------


def nnz(m) -> int:
    return sum(len(row) - row.count(0) for row in m.data)


def _rref(counts, args, call):
    m = args[0]
    counts["matrix.rref.cells_in"] += m.rows * m.cols
    counts["matrix.rref.nnz_in"] += nnz(m)
    return call()


def _mul(counts, args, call):
    a, b = args
    if hasattr(b, "data"):
        counts["matrix.mul.nnz_in"] += nnz(a) + nnz(b)
    return call()


def _kron(counts, args, call):
    a, b = args
    counts["matrix.kron.cells_out"] += a.rows * b.rows * a.cols * b.cols
    counts["matrix.kron.identity_operand"] += a.is_identity() or b.is_identity()
    return call()


def _block(counts, args, call):
    cache, m, n = args
    counts["braidrep.block.hits"] += (m, n) in cache.table
    return call()


def _compare(counts, args, call):
    lhs = args[1]
    counts["braided.compare.cells"] += lhs.rows * lhs.cols
    item = call()
    counts["braided.checks.failed"] += not item.passed
    return item


def _to_json(counts, args, call):
    if hasattr(args[0], "data"):
        counts["serialize.cells"] += args[0].rows * args[0].cols
    return call()


def _from_json(counts, args, call):
    out = call()
    if hasattr(out, "data"):
        counts["serialize.cells"] += out.rows * out.cols
    return out


def _kernel(counts, args, call):
    out = call()
    counts["primitives.kernel_cols"] += out.cols if hasattr(out, "cols") else out.dim
    return out


MEASURES = {
    "matrix.rref": _rref,
    "matrix.mul": _mul,
    "matrix.kron": _kron,
    "braidrep.block": _block,
    "braided.compare": _compare,
    "serialize.to_json": _to_json,
    "serialize.from_json": _from_json,
    "primitives.primitives": _kernel,
    "primitives.primitives_of_tensor": _kernel,
}


class CallCounter:
    """Counts calls per span name, the work measured by ``MEASURES`` and the
    ``FieldSpec`` operations.  Install with ``instrumented(c.wrap, c.wrap_op)``
    and read the totals with ``totals()`` once the pass is over."""

    BINARY_OPS = ("add", "sub", "mul")

    def __init__(self):
        self.counts: Counter = Counter()
        self.op_ticks: dict[str, itertools.count] = {}

    def wrap(self, name: str, fn):
        counts, measure, key = self.counts, MEASURES.get(name), f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            if measure is None:
                return fn(*args, **kwargs)
            return measure(counts, args, lambda: fn(*args, **kwargs))
        return counted

    def wrap_op(self, op: str, fn):
        # Tens of millions of calls per pass on graded-primitives: a C-level
        # tick and a fixed signature keep the counting pass affordable.
        tick = self.op_ticks.setdefault(op, itertools.count()).__next__
        if op in self.BINARY_OPS:
            def counted(field, a, b):
                tick()
                return fn(field, a, b)
        else:
            def counted(field, x):
                tick()
                return fn(field, x)
        return functools.wraps(fn)(counted)

    def totals(self) -> Counter:
        """All counts; the field-operation ticks are consumed by reading."""
        out = Counter(self.counts)
        for op, ticks in self.op_ticks.items():
            out[f"fields.{op}.calls"] = next(ticks)
        self.op_ticks.clear()
        return out


def count_metrics(counts: Counter) -> dict[str, float]:
    """The per-layer count metrics of one counting pass."""
    def ratio(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts[whole] else 0.0

    out = {f"fields.{op}.calls": counts[f"fields.{op}.calls"] for op in FIELD_OPS}
    for key in ("matrix.rref.nnz_in", "matrix.rref.cells_in", "matrix.mul.nnz_in",
                "matrix.kron.cells_out", "braided.compare.cells", "braided.checks.failed",
                "serialize.cells", "primitives.kernel_cols", "cli.stdout_bytes"):
        out[key] = counts[key]
    out["matrix.kron.identity_operand_frac"] = ratio("matrix.kron.identity_operand",
                                                     "matrix.kron.calls")
    out["braidrep.block.hit_ratio"] = ratio("braidrep.block.hits", "braidrep.block.calls")
    return out
