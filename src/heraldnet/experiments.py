"""Parameter sweeps and the analytic-versus-simulation verification campaign.

Record streams are named tuples with stable ordering so that repeated
runs with the same inputs serialize byte for byte.  The verification
campaign simulates each distinct case once, in sorted order and in this
process, before it writes any row.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, NamedTuple, Sequence, TextIO

from .analytic import (
    chord_length,
    closed_h_eff,
    closed_p_hr,
    closed_p_suc,
    crossover_radius,
    exact_h_eff,
    exact_p_hr,
    lhv_threshold,
    sc_p_hr_uncorrected,
)
from .heralding import check_oracle_size, compute_metrics
from .schemes import DEFAULT_ALPHA, SCHEMES, NetworkGeometry, build_scheme, eta_for_geometry
from .schemes import _check_scheme

VERIFY_TOL = 1e-9  # relative; see agrees()

SWEEP_CSV_HEADER = "scheme,N,R_km,alpha,eta,p_suc,p_hr,h_eff,h_th,source"

DEFAULT_VERIFY_PARTIES = (2, 3, 4)
DEFAULT_VERIFY_ETAS = (1.0, 0.9, 0.7, 0.5)


def fmt(value: float) -> str:
    """Canonical 12-significant-digit rendering used in every output file."""
    return f"{value:.12g}"


def agrees(analytic: float, simulated: float) -> bool:
    """The verify criterion: equal to a relative ``VERIFY_TOL``, with no
    absolute floor to hide a tiny value's error; exact zeros are equal."""
    return math.isclose(analytic, simulated, rel_tol=VERIFY_TOL)


class SweepRecord(NamedTuple):
    scheme: str
    n_parties: int
    radius_km: float | None  # None when eta was given instead of a geometry
    alpha: float
    eta: float
    p_suc: float
    p_hr: float
    h_eff: float
    h_th: float
    source: str

    def csv_row(self) -> str:
        """The fields in order: floats through :func:`fmt`, ints and strings as
        they are, so a huge N keeps every digit, and no radius as ""."""
        return ",".join(fmt(v) if isinstance(v, float) else "" if v is None else str(v)
                        for v in self)


class VerificationRow(NamedTuple):
    case_id: str
    scheme: str
    n_parties: int
    eta: float
    metric: str
    analytic: float
    simulated: float
    note: str = ""

    @property
    def abs_diff(self) -> float:
        return abs(self.analytic - self.simulated)

    @property
    def passed(self) -> bool:
        return agrees(self.analytic, self.simulated)

    def as_dict(self) -> dict:
        row = self._asdict()
        row["abs_diff"], row["passed"], row["note"] = self.abs_diff, self.passed, row.pop("note")
        return row


def analytic_record(
    scheme: str, n: int, radius_km: float, alpha: float = DEFAULT_ALPHA
) -> SweepRecord:
    geometry = NetworkGeometry(n, radius_km, alpha)
    eta = eta_for_geometry(scheme, geometry)
    return SweepRecord(
        scheme=scheme,
        n_parties=n,
        radius_km=radius_km,
        alpha=alpha,
        eta=eta,
        p_suc=closed_p_suc(scheme, n, eta),
        p_hr=closed_p_hr(scheme, n, eta),
        h_eff=closed_h_eff(scheme, n, eta),
        h_th=lhv_threshold(n),
        source="analytic",
    )


def sweep_vs_radius(
    schemes: Sequence[str],
    n_list: Sequence[int],
    r_grid: Sequence[float],
    alpha: float = DEFAULT_ALPHA,
) -> list[SweepRecord]:
    """One analytic record per (scheme, N, R), in that nesting order."""
    if not schemes:
        raise ValueError("scheme list must not be empty")
    if not n_list:
        raise ValueError("party list must not be empty")
    if not r_grid:
        raise ValueError("radius grid must not be empty")
    if any(b < a for a, b in zip(r_grid, r_grid[1:])):
        raise ValueError("radius grid must be ascending")
    return [
        analytic_record(scheme, n, r, alpha)
        for scheme in schemes
        for n in n_list
        for r in r_grid
    ]


class CrossoverPoint(NamedTuple):
    n_parties: int
    radius_km: float
    chord_km: float


def crossover_curve(n_min: int, n_max: int, alpha: float = DEFAULT_ALPHA) -> list[CrossoverPoint]:
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    points = []
    for n in range(n_min, n_max + 1):
        radius = crossover_radius(n, alpha)
        points.append(CrossoverPoint(n, radius, chord_length(radius, n)))
    return points


def _exact_form_note(scheme: str, metric: str, n: int, eta: float, simulated: float) -> str:
    if scheme == "bc" or eta == 1.0:
        return ""
    if metric == "p_hr":
        reference = exact_p_hr(scheme, n, eta)
        label = "(2 eta^2 - eta^4)^N / 2^(2N-1)"
    elif metric == "h_eff":
        reference = exact_h_eff(scheme, n, eta)
        label = "(2 - eta^2)^-N" if scheme == "sc" else "eta^2N / (2 - eta^2)^N"
    else:
        return ""
    if agrees(reference, simulated):
        return f"simulation matches {label} = {fmt(reference)}"
    return ""


def verify_suite(
    n_list: Sequence[int] = DEFAULT_VERIFY_PARTIES,
    eta_list: Sequence[float] = DEFAULT_VERIFY_ETAS,
    schemes: Sequence[str] = SCHEMES,
    sc_phr_uncorrected: bool = False,
) -> list[VerificationRow]:
    """Compare closed-form metrics against brute-force simulation.

    Three rows (p_suc, p_hr, h_eff) per (scheme, N, eta) case.  A row
    passes when analytic and simulated agree to a relative 1e-9 (see
    :func:`agrees`).  Rows where the simulation instead matches the
    alternative exact-form expressions carry a note saying so.
    ``sc_phr_uncorrected`` swaps the sc herald-probability reference for its
    uncorrected variant (divisor 2^N instead of 2^2N).  Each distinct case
    is simulated once, in sorted order, before any row is written.
    """
    for scheme in schemes:
        _check_scheme(scheme)
        for n in n_list:
            check_oracle_size(scheme, n)
    for eta in eta_list:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"verification needs eta in (0, 1], got {eta}")

    cases = [(s, n, e) for s in schemes for n in n_list for e in eta_list]
    simulated = {case: compute_metrics(build_scheme(*case)) for case in sorted(set(cases))}

    rows = []
    for scheme, n, eta in cases:
        metrics = simulated[(scheme, n, eta)]
        case_id = f"{scheme}-n{n}-eta{fmt(eta)}"
        if scheme == "sc" and sc_phr_uncorrected:
            phr_ref = sc_p_hr_uncorrected(n, eta)
            phr_note = "reference is the uncorrected 2^-N-prefactor variant"
        else:
            phr_ref = closed_p_hr(scheme, n, eta)
            phr_note = ""
        # Metrics.h_eff raises for a zero herald probability, as simulate does.
        for metric, analytic, value in (
            ("p_suc", closed_p_suc(scheme, n, eta), metrics.p_suc),
            ("p_hr", phr_ref, metrics.p_hr),
            ("h_eff", closed_h_eff(scheme, n, eta), metrics.h_eff),
        ):
            note = phr_note if metric == "p_hr" and phr_note else _exact_form_note(
                scheme, metric, n, eta, value
            )
            rows.append(VerificationRow(case_id, scheme, n, eta, metric, analytic, value, note))
    return rows


def verification_report(rows: Sequence[VerificationRow]) -> dict:
    passed = sum(1 for r in rows if r.passed)
    return {
        "rows": [r.as_dict() for r in rows],
        "summary": {"total": len(rows), "passed": passed, "failed": len(rows) - passed},
    }


def write_sweep_csv(records: Iterable[SweepRecord], stream: TextIO) -> None:
    stream.write(SWEEP_CSV_HEADER + "\n")
    for record in records:
        stream.write(record.csv_row() + "\n")


def write_verification_json(rows: Sequence[VerificationRow], stream: TextIO) -> None:
    json.dump(verification_report(rows), stream, indent=2)
    stream.write("\n")
