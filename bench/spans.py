"""Span tracing of egb from outside the package.

`Tracer` wraps the public functions of every egb module (rebinding each name
wherever another egb module imported it), the `Matrix` methods and a few
named methods, so every call records a span: name, start, end, parent span
and operation id.  Spans stay in memory, in flat arrays, until `write`.
Per-element arithmetic (`Fraction`, `CyclotomicNumber` operators, element
constructors and formatters) is not wrapped: its time lands in the span that
called it.  Wrappers record nothing while the tracer is inactive, so input
generation and output checks stay out of the trace.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

MODULES = (
    "field", "persistence", "bottleneck", "equivariant", "freegroup",
    "eggbeater", "model", "serialize", "cli",
)

# Per-element helpers, called millions of times; their cost stays with the caller.
SKIP = {
    "field": {"is_prime", "cyclo_from_rational", "cyclo_zero", "cyclo_one",
              "cyclo_zeta", "primitive_roots", "cyclo_mul"},
    "persistence": {"is_inf", "shrink"},
    "eggbeater": {"u0", "h0", "eps_bar"},
    "serialize": {"frac_str", "parse_frac", "element_to_obj", "element_from_obj"},
}

# Methods wrapped besides the module-level functions: (module, class, method).
METHODS = (
    [("field", "Matrix", m) for m in (
        "from_rows", "zeros", "identity", "from_columns", "__add__", "__sub__",
        "__neg__", "__matmul__", "apply", "scale", "transpose", "matpow",
        "is_zero", "column", "hstack", "rank", "det", "kernel_basis", "solve",
        "solve_matrix", "inverse")]
    + [
        ("field", "CyclotomicNumber", "inverse"),
        ("persistence", "FinitePersistenceModule", "rank_table"),
        ("persistence", "FinitePersistenceModule", "composite"),
        ("equivariant", "ZpPersistenceModule", "__post_init__"),
        ("equivariant", "EquivariantComplex", "__post_init__"),
        ("equivariant", "_SpreadWindow", "__init__"),
        ("equivariant", "_SpreadWindow", "apply_chain_map"),
        ("equivariant", "_SpreadWindow", "induced_nonzero"),
    ]
)

ELIMINATIONS = {"rank", "kernel_basis", "solve", "det", "inverse"}

# Sub-layer groups: metric prefix -> span names whose self time it sums.  The
# first name is the group's entry function; `<prefix>.calls` counts its calls
# only, so a helper it calls (barcode_of_module -> rank_table) is not counted twice.
GROUPS = {
    "model.build": ("model.build_model",),
    "equivariant.eigenspace": ("equivariant.eigenspace_module",),
    "equivariant.module_check": ("equivariant.ZpPersistenceModule.__post_init__",),
    "equivariant.mu": ("equivariant.mu_p", "equivariant.mu_p_zeta",
                       "equivariant.mu_from_barcode", "equivariant.mu_p_of_family"),
    "equivariant.w_hat": ("equivariant.w_hat",),
    "equivariant.quotient": ("equivariant.quotient_fix_module",
                             "equivariant.w_hat_from_quotient"),
    "equivariant.w_spread": ("equivariant.w_spread",
                             "equivariant._SpreadWindow.__init__",
                             "equivariant._SpreadWindow.apply_chain_map",
                             "equivariant._SpreadWindow.induced_nonzero"),
    "persistence.barcode_module": ("persistence.barcode_of_module",
                                   "persistence.FinitePersistenceModule.rank_table"),
    "persistence.barcode_complex": ("persistence.barcode_of_complex",),
    "persistence.window": ("persistence.window_complex",),
    "persistence.les": ("persistence.les_check",),
}


class Tracer:
    """Installs span wrappers into the egb modules; `uninstall` restores them."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        mods = {name: importlib.import_module(f"egb.{name}") for name in MODULES}
        mods["__init__"] = importlib.import_module("egb")
        wrapped: dict[int, object] = {}
        for name in MODULES:
            mod = mods[name]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in SKIP.get(name, ())):
                    wrapped[id(fn)] = self._wrap(fn, f"{name}.{attr}", _hook(name, attr))
        # rebind every egb name bound to a wrapped function, imports included
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._set(mod, attr, wrapped[id(value)])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            raw = cls.__dict__[meth]
            span = f"{mod_name}.{cls_name}.{meth}"
            hook = _method_hook(cls_name, meth)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, span, hook))
            else:
                new = self._wrap(raw, span, hook)
            self._set(cls, meth, new)
        return self

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, fn, span: str, hook):
        name_id = self._name_ids[span] = len(self.names)
        self.names.append(span)
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.span_start)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_end.append(0.0)
            stack.append(index)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[index] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus the children's durations."""
        n = len(self.span_start)
        self_s = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                self_s[parent] -= self.span_end[i] - self.span_start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[name] = out.get(name, 0.0) + self_s[i]
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for i in self.span_name:
            name = self.names[i]
            out[name] = out.get(name, 0) + 1
        return out

    def write(self, path) -> None:
        """Spans as gzipped CSV: name,start,end,parent,op (parent -1 = root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.names[self.span_name[i]]},{self.span_start[i]!r},"
                    f"{self.span_end[i]!r},{self.span_parent[i]},{self.span_op[i]}\n"
                )


    def group_totals(self) -> dict[str, float]:
        """Inclusive seconds per group of GROUPS: the durations of its spans
        that have no ancestor span in the same group."""
        bit = {}
        for g, group in enumerate(GROUPS):
            for name in GROUPS[group]:
                if name in self._name_ids:
                    bit[self._name_ids[name]] = (g, 1 << g)
        totals = [0.0] * len(GROUPS)
        inside = []  # bitmask of the groups open at each span, itself included
        for i in range(len(self.span_start)):
            parent = self.span_parent[i]
            above = inside[parent] if parent >= 0 else 0
            g, mask = bit.get(self.span_name[i], (None, 0))
            if g is not None and not above & mask:
                totals[g] += self.span_end[i] - self.span_start[i]
            inside.append(above | mask)
        return dict(zip(GROUPS, totals))


def layer_metrics(tracer: Tracer, times: list[float], untraced: list[float]) -> dict:
    """Per-layer metrics of one traced pass, by the names BENCHMARK.json
    lists; `times` are the traced operation times and `untraced` those of
    the same operations run without the tracer."""
    selfs = tracer.self_times()
    calls = tracer.call_counts()
    c = tracer.counters
    out: dict[str, float] = {}
    for layer in MODULES:
        out[f"{layer}.self_s"] = sum(
            (v for k, v in selfs.items() if k.split(".")[0] == layer), 0.0)
    totals = tracer.group_totals()
    for group, names in GROUPS.items():
        out[f"{group}.self_s"] = sum((selfs.get(n, 0.0) for n in names), 0.0)
        out[f"{group}.total_s"] = totals[group]
        out[f"{group}.calls"] = calls.get(names[0], 0)
    records = c.get("eggbeater.records", 0)
    out["eggbeater.records"] = records
    out["eggbeater.valid_ratio"] = c.get("eggbeater.valid", 0) / records if records else 0.0
    out["freegroup.letters"] = c.get("freegroup.letters", 0)
    out["serialize.bytes"] = c.get("serialize.bytes", 0)
    out["model.tuples"] = c.get("model.tuples", 0)
    out["equivariant.w_spread.windows"] = calls.get("equivariant._SpreadWindow.__init__", 0)
    tests = calls.get("equivariant._SpreadWindow.induced_nonzero", 0)
    out["equivariant.w_spread.pair_tests"] = tests
    out["equivariant.w_spread.hit_ratio"] = c.get("w_spread.hits", 0) / tests if tests else 0.0
    out["bottleneck.calls"] = calls.get("bottleneck.bottleneck", 0)
    out["bottleneck.feasibility_calls"] = calls.get("bottleneck.hopcroft_karp", 0)
    for kind in ("q", "cyclo"):
        for key in ("calls", "cells", "max_n"):
            out[f"field.{kind}.elim.{key}"] = c.get(f"field.{kind}.elim.{key}", 0)
    out["field.matmul.calls"] = c.get("field.matmul.calls", 0)
    out["field.matmul.mults"] = c.get("field.matmul.mults", 0)
    out["field.cyclo_inverse.calls"] = calls.get("field.CyclotomicNumber.inverse", 0)
    spans = len(tracer.span_start)
    roots = sum(tracer.span_end[i] - tracer.span_start[i]
                for i in range(spans) if tracer.span_parent[i] < 0)
    out.update({
        "trace.spans": spans,
        "trace.traced_s": sum(times),
        "trace.untraced_s": sum(untraced),
        "trace.overhead_ratio": sum(times) / sum(untraced) - 1,
        "trace.unattributed_s": sum(times) - roots,
    })
    return out


# -- counters recorded at span exit ------------------------------------------


def _hook(module: str, func: str):
    if module == "eggbeater" and func == "enumerate_records":
        def count_records(counters, args, result):
            _add(counters, "eggbeater.records", len(result))
            _add(counters, "eggbeater.valid", sum(1 for r in result if r.valid))
        return count_records
    if module == "freegroup":
        def count_letters(counters, args, result):
            letters = getattr(result, "letters", None)
            if letters is not None:
                _add(counters, "freegroup.letters", len(letters))
        return count_letters
    if module == "serialize":
        def count_bytes(counters, args, result):
            if isinstance(result, str):
                _add(counters, "serialize.bytes", len(result.encode()))
        return count_bytes
    if module == "model" and func == "build_model":
        def count_tuples(counters, args, result):
            _add(counters, "model.tuples", len(args[0].tuples))
        return count_tuples
    return None


def _method_hook(cls: str, meth: str):
    if cls == "Matrix" and meth in ELIMINATIONS:
        def count_elimination(counters, args, result):
            m = args[0]
            kind = "cyclo" if hasattr(m.field, "p") else "q"
            _add(counters, f"field.{kind}.elim.calls", 1)
            _add(counters, f"field.{kind}.elim.cells", m.rows * m.cols)
            key = f"field.{kind}.elim.max_n"
            counters[key] = max(counters.get(key, 0), m.rows, m.cols)
        return count_elimination
    if cls == "Matrix" and meth == "__matmul__":
        def count_matmul(counters, args, result):
            a, b = args
            _add(counters, "field.matmul.calls", 1)
            _add(counters, "field.matmul.mults", a.rows * a.cols * b.cols)
        return count_matmul
    if cls == "_SpreadWindow" and meth == "induced_nonzero":
        def count_hit(counters, args, result):
            if result:
                _add(counters, "w_spread.hits", 1)
        return count_hit
    return None


def _add(counters: dict, key: str, n: int) -> None:
    counters[key] = counters.get(key, 0) + n
