"""The benchmark harness wraps module attributes by name; they must stay."""

import importlib.util
import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"


def test_benchmark_tracer_installs_on_the_real_modules(monkeypatch):
    # `benchmarks/run.py --trace 1` wraps names such as heralding.norm_squared;
    # removing one of them as unused would break tracing, not the program
    spec = importlib.util.spec_from_file_location("benchmark_run", HARNESS)
    harness = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, harness)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(harness)
    hn = harness.import_heraldnet()
    originals = {name: getattr(hn.heralding, name) for name in ("apply", "norm_squared")}
    tracer = harness.Tracer(hn)
    tracer.install()
    assert all(getattr(hn.heralding, name) is not f for name, f in originals.items())
    tracer.uninstall()
    assert all(getattr(hn.heralding, name) is f for name, f in originals.items())
