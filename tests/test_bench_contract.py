"""The benchmark's tracer (`bench/spans.py`) wraps library methods by name.
A change to `src/egb` that removes one of them must fail here, in tier-1."""

import importlib
import importlib.util
from pathlib import Path

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
