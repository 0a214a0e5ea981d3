"""Fast self-test of the benchmark harness on bc and sc at N=2.

Run from the repository root::

    python3 -m pytest -q benchmarks/test_harness.py
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = run  # dataclasses resolve annotations through it
_spec.loader.exec_module(run)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def hn():
    return run.import_heraldnet()


def small_workload():
    return run.OracleWorkload((("bc", 2), ("sc", 2)))


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_output_names_every_metric(hn, trace, section):
    result, _, _ = run.measure(small_workload(), hn, seed=0, seconds=0.0, trace=trace)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    json.dumps(result, allow_nan=False)


def test_trace_counts_stages_and_herald(hn):
    result, _, _ = run.measure(small_workload(), hn, seed=0, seconds=0.0, trace=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["schemes.initial_terms"] == 4 + 1  # bc starts from 2^N terms, sc from one
    assert metrics["heralding.patterns"] == 2 * 2**2
    assert metrics["experiments.cases"] == 0
    assert 0 < metrics["heralding.heralded_terms"] < metrics["optics.final_terms"]
    assert metrics["fock.norm_drift"] < 1e-9
    assert metrics["optics.stage4.terms_out"] > 0  # sc has four stages, bc three


def test_gate_counts_a_perturbed_herald_rate(hn, monkeypatch):
    exact = hn.heralding.compute_metrics

    def perturbed(build):
        metrics = exact(build)
        return dataclasses.replace(metrics, p_hr=metrics.p_hr * (1 + 1e-6))

    monkeypatch.setattr(hn.heralding, "compute_metrics", perturbed)
    workload = small_workload()
    workload.prepare(seed=0)
    assert workload.run_pass(hn) == len(workload.cases)


def test_grid_fails_every_case_when_verify_raises(hn, monkeypatch):
    workload = run.GridWorkload(parties=range(2, 3))
    workload.prepare(seed=0)
    assert workload.run_pass(hn) == 0  # leaves a good --out file behind

    def inconsistent(*args, **kwargs):
        raise ValueError("inconsistent metrics")

    # cli.main turns the ValueError into exit code 1 without writing --out.
    monkeypatch.setattr(hn.experiments, "compute_metrics", inconsistent)
    assert workload.run_pass(hn) == len(workload.cases)


def test_default_seed_reproduces_eta_and_others_stay_in_range():
    assert run.draw_eta(run.DEFAULT_SEED) == run.DEFAULT_ETA
    low, high = run.ETA_RANGE
    assert all(low <= run.draw_eta(seed) <= high for seed in range(1, 50))
