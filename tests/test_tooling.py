"""The benchmark harness wraps module attributes by name and drives the CLI
with fixed arguments; both must stay."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heraldnet.cli import main

HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "run.py"


@pytest.fixture
def harness(monkeypatch):
    spec = importlib.util.spec_from_file_location("benchmark_run", HARNESS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_on_the_real_modules(harness):
    # `benchmarks/run.py --trace 1` wraps names such as heralding.norm_squared;
    # removing one of them as unused would break tracing, not the program
    hn = harness.import_heraldnet()
    originals = {name: getattr(hn.heralding, name) for name in ("apply", "norm_squared")}
    tracer = harness.Tracer(hn)
    tracer.install()
    assert all(getattr(hn.heralding, name) is not f for name, f in originals.items())
    tracer.uninstall()
    assert all(getattr(hn.heralding, name) is f for name, f in originals.items())


@pytest.mark.parametrize("scheme, stages, evolved", [("sd", 3, 1), ("sc", 4, 2)])
def test_benchmark_tracer_sees_one_apply_per_stage_of_each_evolved_party(harness, scheme,
                                                                         stages, evolved):
    # every other party's terms and blocks are its predecessor's, relabelled,
    # with no apply call: at N=4 the trace holds 3 x 1 optics.apply spans for
    # sd and 4 x 2 for sc, where evolving every party would give 3 x 4 and 4 x 4
    hn = harness.import_heraldnet()
    build = hn.schemes.build_scheme(scheme, 4, 0.9)
    tracer = harness.Tracer(hn)
    tracer.install()
    try:
        hn.heralding.compute_metrics(build)
    finally:
        tracer.uninstall()
    assert len(build.stages) == stages
    assert [span.name for span in tracer.spans].count("optics.apply") == stages * evolved


def test_oracle_gate_fails_a_perturbed_herald_rate(harness, monkeypatch, capsys):
    # the gate, not run_pass's exception path, must refuse every case
    hn = harness.import_heraldnet()
    exact = hn.heralding.compute_metrics
    monkeypatch.setattr(hn.heralding, "compute_metrics",
                        lambda build: (m := exact(build))._replace(p_hr=m.p_hr * (1 + 1e-6)))
    workload = harness.OracleWorkload((("bc", 2), ("sc", 2)))
    workload.prepare(seed=0)
    assert workload.run_pass(hn) == len(workload.cases) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_grid_argv_keeps_its_one_worker_flag(tmp_path, capsys):
    # `benchmarks/run.py`'s grid workload passes `--workers 1`; verify runs in one
    # process, so that is the flag's only value and it changes no byte
    with_flag, without = tmp_path / "with.json", tmp_path / "without.json"
    grid = ["verify", "--parties", "2..3", "--scheme", "all"]
    assert main(grid + ["--workers", "1", "--out", str(with_flag)]) == 1
    assert main(grid + ["--out", str(without)]) == 1
    assert with_flag.read_bytes() == without.read_bytes() != b""
    capsys.readouterr()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_more_than_one_worker_is_refused(tmp_path, capsys, source):
    config = tmp_path / "cfg.json"
    config.write_text('{"workers": 2}', encoding="utf-8")
    extra = ["--workers", "2"] if source == "flag" else ["--config", str(config)]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--parties", "2", "--scheme", "bc", "--eta", "1"] + extra)
    assert exc.value.code == 2
    assert "argument --workers: invalid choice: 2" in capsys.readouterr().err


@pytest.mark.parametrize("module, packages", [
    # verify has no worker path, so the CLI needs neither package
    ("heraldnet.cli", ("concurrent", "multiprocessing")),
    # the record types are named tuples: dataclasses and the inspect, ast and
    # dis modules behind it are most of a fresh interpreter's import time
    ("heraldnet", ("dataclasses", "inspect")),
    ("heraldnet.cli", ("dataclasses", "inspect")),
], ids=["cli-process-pool", "package-dataclasses", "cli-dataclasses"])
def test_import_loads_none_of(module, packages):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import sys, {module}; print(sorted(m for m in sys.modules"
            f" if m.split('.')[0] in {packages!r}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert done.stdout == "[]\n"
