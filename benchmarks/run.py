"""Benchmark harness for heraldnet's exact oracle (fock -> optics -> heralding).

Run from the repository root::

    python3 benchmarks/run.py --workload sd4 --seed 1 --seconds 30 --trace 0

``benchmarks/test_harness.py`` is a fast self-test of this file.

The harness imports heraldnet from ``src/`` of the checkout it sits in and
drives the public API from this one process, one case at a time (a closed
loop with a single client).  It repeats whole passes over the workload's
cases until ``--seconds`` have passed (at least ``MIN_PASSES`` of them),
checks every result against the closed forms, and prints one JSON object as
the last line of standard output:

* ``--trace 0`` gives the end-to-end metrics: ``wall_s`` (median pass; the
  sample count is ``attempted`` divided by the cases per pass, and with
  fewer than eleven passes no higher percentile has ten samples beyond it,
  so none is reported), ``peak_rss_mb`` (``ru_maxrss`` of this process),
  ``setup_s`` (median over fresh interpreters that import heraldnet and
  build every case) and ``pass_frac`` (cases that neither raised nor failed
  the correctness gate, over cases attempted; the failures themselves are
  the ``failed`` count).
* ``--trace 1`` gives the per-layer metrics of one traced pass, made first
  in the fresh process, followed by untraced passes; ``trace.overhead_s`` is
  the traced pass minus the median untraced one.  Tracing swaps timing shims
  into the module attributes that ``heralding``, ``experiments`` and ``cli``
  resolve at call time; nothing under ``src/`` is touched.  Spans stay in
  memory and are written to ``.bench_out/`` when the run ends.

Workloads (the reason for each is in ``BENCHMARK.json``):

* ``sd4``/``sc4``: ``heralding.compute_metrics(build_scheme(s, 4, eta))``;
  the seed draws eta from ``ETA_RANGE``, where the term counts do not change.
* ``grid``: ``cli.main(["verify", "--parties", "2..3", ...])``: 24 cases,
  72 rows.  verify takes no case order and no eta from its caller's seed, so
  the grid is the same for every seed.

Deliberately left out: tier-1 wall time and the full N<=4 verify grid (about
70 s, too long to repeat for every run and dominated by the sd4/sc4 cases),
N=5 (sc/sd do not finish within 300 s), and tracing inside ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
GRID_OUT = OUT_DIR / "grid-verify.json"

DEFAULT_SEED = 0
DEFAULT_ETA = 0.9
ETA_RANGE = (0.6, 0.95)
MIN_PASSES = 3
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 60
GATE_REL_TOL = 1e-9
MAX_STAGES = 4  # bc has 3 circuit stages, sc and sd have 4

GRID_SCHEMES = ("bc", "sc", "sd")
GRID_PARTIES = range(2, 4)
GRID_ETAS = (1.0, 0.9, 0.7, 0.5)

# Runs in a fresh interpreter: import heraldnet and build every case.
SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from heraldnet import schemes
for scheme, n, eta in json.loads(sys.argv[2]):
    schemes.build_scheme(scheme, n, eta)
elapsed = time.perf_counter() - t0
if not schemes.__file__.startswith(sys.argv[1]):
    raise SystemExit("imported heraldnet from " + schemes.__file__)
print(elapsed)
"""


class HarnessError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources, failed set-up)."""


def report_metrics(metrics: dict[str, float], section: str) -> dict[str, dict]:
    """``metrics`` with the units ``BENCHMARK.json`` declares in ``section``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise HarnessError(f"{section} metrics computed but not declared, or declared but not "
                           f"computed: {sorted(set(metrics) ^ set(units))}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def import_heraldnet():
    """Import heraldnet from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "heraldnet" / "__init__.py").is_file():
        raise HarnessError(f"no heraldnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import heraldnet
    from heraldnet import analytic, cli, experiments, fock, heralding, schemes

    if not Path(heraldnet.__file__).resolve().is_relative_to(SRC):
        raise HarnessError(f"heraldnet was imported from {heraldnet.__file__}, not {SRC}")
    return argparse.Namespace(analytic=analytic, cli=cli, experiments=experiments,
                              fock=fock, heralding=heralding, schemes=schemes)


def draw_eta(seed: int) -> float:
    if seed == DEFAULT_SEED:
        return DEFAULT_ETA
    return random.Random(seed).uniform(*ETA_RANGE)


def gate(hn, scheme: str, n: int, eta: float, p_suc: float, p_hr: float) -> bool:
    """Relative check of one case against the closed forms it must match."""
    return (math.isclose(p_suc, hn.analytic.closed_p_suc(scheme, n, eta), rel_tol=GATE_REL_TOL)
            and math.isclose(p_hr, hn.analytic.exact_p_hr(scheme, n, eta), rel_tol=GATE_REL_TOL))


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@dataclass
class OracleWorkload:
    """``compute_metrics(build_scheme(scheme, n, eta))`` for each (scheme, n)."""

    shapes: tuple[tuple[str, int], ...]
    cases: list[tuple[str, int, float]] = field(default_factory=list)

    def prepare(self, seed: int) -> None:
        eta = draw_eta(seed)
        self.cases = [(scheme, n, eta) for scheme, n in self.shapes]

    def run_pass(self, hn) -> int:
        failed = 0
        for scheme, n, eta in self.cases:
            try:
                metrics = hn.heralding.compute_metrics(hn.schemes.build_scheme(scheme, n, eta))
                ok = gate(hn, scheme, n, eta, metrics.p_suc, metrics.p_hr)
            except Exception:
                traceback.print_exc()
                ok = False
            failed += not ok
        return failed


@dataclass
class GridWorkload:
    """``heraldnet verify --parties LO..HI --scheme all`` through ``cli.main``."""

    parties: range = GRID_PARTIES
    cases: list[tuple[str, int, float]] = field(default_factory=list)
    first_bytes: bytes | None = None

    def prepare(self, seed: int) -> None:
        del seed  # verify's cases and output are the same for every seed
        OUT_DIR.mkdir(exist_ok=True)
        self.cases = [(s, n, e) for s in GRID_SCHEMES for n in self.parties for e in GRID_ETAS]
        self.first_bytes = None

    def run_pass(self, hn) -> int:
        argv = ["verify", "--parties", f"{self.parties.start}..{self.parties.stop - 1}",
                "--scheme", "all", "--workers", "1", "--out", str(GRID_OUT)]
        # verify can fail without opening --out; an earlier pass's file must not pass for it.
        GRID_OUT.unlink(missing_ok=True)
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                code = hn.cli.main(argv)
            data = GRID_OUT.read_bytes()
            report = json.loads(data)
        except Exception:
            traceback.print_exc()
            print(f"grid: verify wrote {stderr.getvalue().strip()!r} to stderr", file=sys.stderr)
            return len(self.cases)
        if self.first_bytes is None:
            self.first_bytes = data
        failed_rows = {(r["scheme"], r["n_parties"], r["eta"], r["metric"])
                       for r in report["rows"] if not r["passed"]}
        # The design herald-rate forms of the single-photon schemes disagree with
        # the exact amplitudes under loss; verify must fail exactly these rows.
        expected_failures = {(s, n, e, metric) for s, n, e in self.cases
                             if s in ("sc", "sd") and e < 1.0 for metric in ("p_hr", "h_eff")}
        rows = 3 * len(self.cases)
        summary = (f"verified {rows - len(expected_failures)}/{rows} comparisons within 1e-09; "
                   f"{len(expected_failures)} failed")
        if (data != self.first_bytes or code != 1 or failed_rows != expected_failures
                or len(report["rows"]) != rows or stderr.getvalue().splitlines()[-1:] != [summary]):
            print(f"grid: verify output is off (exit {code}, failed rows {len(failed_rows)}, "
                  f"same bytes as first pass: {data == self.first_bytes}, "
                  f"stderr {stderr.getvalue().strip()!r})", file=sys.stderr)
            return len(self.cases)
        simulated = {(r["scheme"], r["n_parties"], r["eta"], r["metric"]): r["simulated"]
                     for r in report["rows"]}
        failed = 0
        for scheme, n, eta in self.cases:
            p_suc = simulated.get((scheme, n, eta, "p_suc"), math.nan)
            p_hr = simulated.get((scheme, n, eta, "p_hr"), math.nan)
            failed += not gate(hn, scheme, n, eta, p_suc, p_hr)
        return failed


WORKLOADS = {
    "sd4": lambda: OracleWorkload((("sd", 4),)),
    "sc4": lambda: OracleWorkload((("sc", 4),)),
    "grid": GridWorkload,
}


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    case: str | None
    probe_at_start: float
    rss_before_mb: float
    end: float = 0.0
    net_s: float = 0.0  # duration minus the harness's own probes inside it
    attrs: dict = field(default_factory=dict)


def _case_id(scheme: str, n: int, eta: float) -> str:
    return f"{scheme}-n{n}-eta{eta:.12g}"


def _args_case(args) -> str:
    """Case of a call taking (scheme, n, eta, ...)."""
    return _case_id(*args[:3])


def _build_case(args) -> str:
    """Case of a call taking a SchemeBuild first."""
    spec = args[0].spec
    return _case_id(spec.scheme, spec.n_parties, spec.eta)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Timing shims around the module attributes the program resolves."""

    def __init__(self, hn) -> None:
        self.hn = hn
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._probe_s = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._norm_squared = hn.fock.norm_squared

    def install(self) -> None:
        hn = self.hn
        self._wrap(hn.cli, "main", "cli.main")
        self._wrap(hn.cli, "verify_suite", "experiments.verify_suite")
        for module in (hn.schemes, hn.experiments):
            self._wrap(module, "build_scheme", "schemes.build_scheme", _args_case,
                       lambda span, args, out: span.attrs.update(terms=len(out.state)))
        self._wrap(hn.heralding, "compute_metrics", "heralding.compute_metrics", _build_case)
        self._wrap(hn.experiments, "compute_metrics", "experiments.compute_metrics", _build_case)
        for name in ("closed_p_suc", "closed_p_hr", "closed_h_eff", "exact_p_hr",
                     "exact_h_eff", "sc_p_hr_uncorrected"):
            self._wrap(hn.experiments, name, "analytic.closed_form")
        self._wrap(hn.heralding, "analyze_patterns", "heralding.analyze_patterns", _build_case,
                   lambda span, args, out: span.attrs.update(patterns=len(out)))
        self._wrap(hn.heralding, "detection_ready_state", "heralding.detection_ready_state",
                   _build_case, self._probe_ready_state)
        self._wrap(hn.heralding, "apply", "optics.apply", after=self._probe_stage)
        self._wrap(hn.heralding, "norm_squared", "fock.norm_squared")
        self._wrap(hn.heralding, "inner_product", "fock.inner_product")

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, module, attr, name, case_of=None, after=None) -> None:
        """Swap ``module.attr`` for a shim that records a span per call.

        ``after(span, args, result)`` is a probe: its time is kept out of
        every enclosing span's ``net_s``.
        """
        original = getattr(module, attr)

        def shim(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if case_of is not None:
                case = case_of(args)
            else:
                case = self.spans[parent].case if parent is not None else None
            span = Span(name, 0.0, parent, case, self._probe_s, _peak_rss_mb())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                span.net_s = span.end - span.start - (self._probe_s - span.probe_at_start)
            if after is not None:
                probe_start = time.perf_counter()
                after(span, args, out)
                self._probe_s += time.perf_counter() - probe_start
            return out

        setattr(module, attr, shim)
        self._restore.append((module, attr, original))

    def _probe_stage(self, span: Span, args, out) -> None:
        # Every stage overwrites the final_* entries, so the last stage's stay.
        ready = self.spans[span.parent]
        ready.attrs["stages"] = ready.attrs.get("stages", 0) + 1
        span.attrs.update(stage=ready.attrs["stages"], terms_in=len(args[1]), terms_out=len(out))
        ready.attrs.update(final_stage_s=span.net_s,
                           final_rss_delta_mb=_peak_rss_mb() - span.rss_before_mb)

    def _probe_ready_state(self, span: Span, args, ready) -> None:
        spec = args[0].spec
        station_of = {m.index: i for i, pair in enumerate(spec.detector_stations) for m in pair}
        n_stations = len(spec.detector_stations)
        heralded = 0
        for monomial in ready.terms:
            clicks = [0] * n_stations
            for idx, occ in monomial:
                station = station_of.get(idx)
                if station is not None:
                    clicks[station] += occ
            heralded += clicks.count(1) == n_stations
        span.attrs.update(final_terms=len(ready), heralded_terms=heralded,
                          norm_drift=abs(self._norm_squared(ready) - 1.0))

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every case of the traced pass."""
        def total(name: str, key: str | None = None) -> float:
            return sum(s.attrs[key] if key else s.net_s for s in self.spans if s.name == name)

        def count(name: str) -> int:
            return sum(1 for s in self.spans if s.name == name)

        out: dict[str, float] = {
            "schemes.build_s": total("schemes.build_scheme"),
            "schemes.initial_terms": total("schemes.build_scheme", "terms"),
        }
        stages = [s for s in self.spans if s.name == "optics.apply"]
        for k in range(1, MAX_STAGES + 1):
            at_k = [s for s in stages if s.attrs["stage"] == k]
            out[f"optics.stage{k}.s"] = sum(s.net_s for s in at_k)
            out[f"optics.stage{k}.terms_in"] = sum(s.attrs["terms_in"] for s in at_k)
            out[f"optics.stage{k}.terms_out"] = sum(s.attrs["terms_out"] for s in at_k)
        ready = "heralding.detection_ready_state"
        final_terms = total(ready, "final_terms")
        final_s = total(ready, "final_stage_s")
        heralded = total(ready, "heralded_terms")
        evolve_s = total(ready)
        out |= {
            "optics.apply_s": total("optics.apply"),
            "optics.final_terms": final_terms,
            "optics.final_terms_per_s": final_terms / final_s if final_s else 0.0,
            "optics.final.rss_delta_mb": total(ready, "final_rss_delta_mb"),
            "heralding.evolve_s": evolve_s,
            "heralding.analysis_s": total("heralding.analyze_patterns") - evolve_s,
            "heralding.patterns": total("heralding.analyze_patterns", "patterns"),
            "heralding.heralded_terms": heralded,
            "heralding.herald_keep_frac": heralded / final_terms if final_terms else 0.0,
            "fock.norm_squared_s": total("fock.norm_squared"),
            "fock.norm_squared_calls": count("fock.norm_squared"),
            "fock.inner_product_s": total("fock.inner_product"),
            "fock.inner_product_calls": count("fock.inner_product"),
            "fock.norm_drift": max((s.attrs["norm_drift"] for s in self.spans if s.name == ready),
                                   default=0.0),
            "experiments.verify_suite_s": total("experiments.verify_suite"),
            "experiments.cases": count("experiments.compute_metrics"),
            "analytic.closed_forms_s": total("analytic.closed_form"),
            "analytic.closed_forms_calls": count("analytic.closed_form"),
            "cli.overhead_s": total("cli.main") - total("experiments.verify_suite"),
        }
        return out

    def dump(self, path: Path, facts: dict) -> None:
        spans = [{"name": s.name, "start": s.start, "end": s.end, "net_s": s.net_s,
                  "parent": s.parent, "case": s.case, **s.attrs} for s in self.spans]
        path.write_text(json.dumps({"facts": facts, "spans": spans}) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------

def measure_setup(cases: list[tuple[str, int, float]]) -> float:
    """Median seconds for a fresh interpreter to import heraldnet and build every case."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), json.dumps(cases)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise HarnessError(f"set-up interpreter failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def timed_passes(workload, hn, seconds: float, min_passes: int) -> tuple[list[float], int]:
    """Run passes until ``seconds`` have passed; returns pass walls and failed cases."""
    walls: list[float] = []
    failed = 0
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        failed += workload.run_pass(hn)
        walls.append(time.perf_counter() - t0)
    return walls, failed


def measure(workload, hn, seed: int, seconds: float,
            trace: bool) -> tuple[dict, list[float], Tracer | None]:
    """One benchmark run: the printed result, the untraced pass walls and the tracer."""
    workload.prepare(seed)
    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if trace:
        tracer = Tracer(hn)
        tracer.install()
        try:
            traced_wall, failed = timed_passes(workload, hn, 0.0, 1)
        finally:
            tracer.uninstall()
        walls, more_failed = timed_passes(workload, hn, seconds - traced_wall[0], 1)
        failed += more_failed
        attempted = (len(walls) + 1) * len(workload.cases)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced_wall[0] - statistics.median(walls)
        section = "per_layer"
    else:
        setup_s = measure_setup(workload.cases)
        walls, failed = timed_passes(workload, hn, seconds, MIN_PASSES)
        attempted = len(walls) * len(workload.cases)
        metrics = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": _peak_rss_mb(),
            "setup_s": setup_s,
            "pass_frac": (attempted - failed) / attempted,
        }
        section = "end_to_end"
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report_metrics(metrics, section),
    }
    return result, walls, tracer


# ----------------------------------------------------------------------
# Recorded facts
# ----------------------------------------------------------------------

def _commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    # The ceiling keeps git from reporting a repository that encloses the checkout.
    env = os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def recorded_facts() -> dict:
    """Machine, interpreter, commit and source size; recorded, not gated."""
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "heraldnet").rglob("*.py")))
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "cores": os.cpu_count(),
        "ram_gb": round(ram / 2**30, 1),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": _commit(),
        "src_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]()
    try:
        hn = import_heraldnet()
        result, walls, tracer = measure(workload, hn, args.seed, args.seconds, bool(args.trace))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    facts = recorded_facts() | {"workload": args.workload, "seed": args.seed,
                                "cases": workload.cases}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT_DIR / f"spans-{stem}.json", facts)
    record = {"facts": facts, "wall_samples_s": walls, "result": result}
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                                  encoding="utf-8")
    print("facts: " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
