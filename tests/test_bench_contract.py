"""The benchmark's tracer (`bench/spans.py`) wraps library methods by name.
A change to `src/egb` that removes one of them must fail here, in tier-1."""

import importlib
import importlib.util
import random
from pathlib import Path

from egb.field import CyclotomicField, QQ_FIELD

from conftest import random_equivariant_complex, scan_w_spread

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    spans = load_spans()

    def methods():
        return [vars(getattr(importlib.import_module(f"egb.{mod}"), cls))[name]
                for mod, cls, name in spans.METHODS]

    before = methods()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert all(new is not old for new, old in zip(methods(), before))
    finally:
        tracer.uninstall()
    assert all(new is old for new, old in zip(methods(), before))


def test_tracer_counts_the_spread_window_methods():
    """The window-scan oracle of `w_spread` under the active tracer gives the
    untraced values, and each `_SpreadWindow` method that the tracer wraps
    by name records spans, so `equivariant.w_spread.windows` and
    `pair_tests` count the methods they name."""
    complexes = [random_equivariant_complex(random.Random(seed), p, field)
                 for seed, p, field in ((10, 2, QQ_FIELD), (9, 3, CyclotomicField(3)),
                                        (6, 5, CyclotomicField(5)))]
    untraced = [scan_w_spread(eq) for eq in complexes]
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.active = True
        traced = [scan_w_spread(eq) for eq in complexes]
    finally:
        tracer.active = False
        tracer.uninstall()
    assert traced == untraced
    calls = tracer.call_counts()
    assert all(calls.get(f"equivariant._SpreadWindow.{name}")
               for name in ("__init__", "apply_chain_map", "induced_nonzero")), calls
    metrics = spans.layer_metrics(tracer, [1.0], [1.0])
    assert metrics["equivariant.w_spread.windows"] and metrics["equivariant.w_spread.pair_tests"]
