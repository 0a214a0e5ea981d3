"""Acceptance suite: every contracted deliverable, one summary line each.

Each criterion records its sub-checks through the ``record_acceptance``
fixture and then asserts them, so a red test here always has a matching
FAIL line in the terminal summary.  Criteria 1 and 3 pin the simulator to
the forms the package documents as exact: the design success rate
everywhere, the design herald forms for ``bc`` and at eta = 1, and the
``exact_*`` herald forms for lossy ``sc``/``sd``.  Where a design form or a
quoted spot value is known to disagree with the simulation, the test
asserts that the gap is real and lists it through ``record_difference``,
so the summary shows every such difference without marking it FAIL.
"""

import json
import math

import pytest

from conftest import GRID_ETAS, GRID_PARTIES, GRID_SCHEMES, explicit_evolution, without_c1_plate
from heraldnet.analytic import (
    asymptotic_chord,
    closed_h_eff,
    closed_p_hr,
    closed_p_suc,
    crossover_margin,
    crossover_radius,
    exact_h_eff,
    exact_p_hr,
    lhv_threshold,
    p_suc_crossing_party_count,
)
from heraldnet.cli import main
from heraldnet.fock import norm_squared
from heraldnet.heralding import analyze_patterns, compute_metrics
from heraldnet.optics import is_isometry
from heraldnet.schemes import NetworkGeometry, build_bc, build_sc, build_scheme, eta_for_geometry

ALPHA = 0.023
# relative only, so no floor hides a small value's error (the smallest, p_suc
# at sd N=4 and eta=0.5, is about 1.2e-7)
REL_TOL = 1e-9

GRID_CASES = [
    (scheme, n, eta)
    for scheme in GRID_SCHEMES
    for n in GRID_PARTIES
    for eta in GRID_ETAS
]


def case_label(scheme, n, eta):
    return f"{scheme}-n{n}-eta{eta:g}"


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL)


class TestCriterion1:
    """Simulated metrics against the documented forms over the full grid.

    The success rate must equal ``closed_p_suc`` everywhere.  The herald
    rate and heralding efficiency must equal the design forms where those
    are documented exact (bc, eta = 1) and the ``exact_*`` forms elsewhere;
    for lossy sc/sd the design forms must differ, and the difference is
    listed in the summary.  ``test_herald_weights_follow_routing_count``
    is the evidence that the exact forms, not the design ones, are right.
    """

    TITLE = "oracle matches documented forms"

    @pytest.mark.parametrize("scheme, n, eta", GRID_CASES, ids=lambda v: str(v))
    def test_grid_case(self, scheme, n, eta, oracle, record_acceptance, record_difference):
        metrics = oracle(scheme, n, eta)
        design = {
            "p_suc": closed_p_suc(scheme, n, eta),
            "p_hr": closed_p_hr(scheme, n, eta),
            "h_eff": closed_h_eff(scheme, n, eta),
        }
        exact = {
            "p_suc": design["p_suc"],
            "p_hr": exact_p_hr(scheme, n, eta),
            "h_eff": exact_h_eff(scheme, n, eta),
        }
        # the design herald forms are documented exact for bc and at eta = 1
        design_exact = scheme == "bc" or eta == 1.0
        documented = design if design_exact else exact
        failures = []
        for metric in ("p_suc", "p_hr", "h_eff"):
            label = f"{case_label(scheme, n, eta)} {metric}"
            simulated = getattr(metrics, metric)
            ok = close(simulated, documented[metric])
            record_acceptance(
                1,
                self.TITLE,
                label,
                ok,
                "" if ok else f"sim {simulated:.10g} vs form {documented[metric]:.10g}",
            )
            if not ok:
                failures.append(
                    f"{metric}: {simulated:.10g} vs documented {documented[metric]:.10g}"
                )
            if not design_exact and metric != "p_suc":
                differs = not close(simulated, design[metric])
                record_acceptance(
                    1, self.TITLE, f"{label} design form differs", differs,
                    "" if differs else f"design {design[metric]:.10g} matches",
                )
                record_difference(1, self.TITLE, label, simulated, "design", design[metric])
                if not differs:
                    failures.append(f"{metric}: design form {design[metric]:.10g} no longer differs")
        assert not failures, "; ".join(failures)

    @pytest.mark.parametrize("scheme, n, eta", GRID_CASES, ids=lambda v: str(v))
    def test_grid_case_matches_observed_forms(self, scheme, n, eta, oracle):
        # companion regression: the simulation does follow one closed-form
        # family exactly; these expressions agree with the quoted ones at
        # eta = 1 and for the Bell-pair scheme everywhere
        metrics = oracle(scheme, n, eta)
        tol = {"rel": REL_TOL, "abs": 0.0}  # approx would otherwise allow 1e-12 absolute
        assert metrics.p_suc == pytest.approx(closed_p_suc(scheme, n, eta), **tol)
        assert metrics.p_hr == pytest.approx(exact_p_hr(scheme, n, eta), **tol)
        assert metrics.h_eff == pytest.approx(exact_h_eff(scheme, n, eta), **tol)

    @pytest.mark.parametrize("eta", [0.9, 0.7, 0.5])
    @pytest.mark.parametrize("scheme", ["sc", "sd"])
    def test_herald_weights_follow_routing_count(self, scheme, eta, record_acceptance):
        """Heralded probability per number of lost photons, counted by hand.

        Write t = eta^2 for the survival probability of one photon in one
        channel and x for a marker that counts photons lost to the
        environment.  In both schemes the heralded weight factorises into
        2 * 2^-N times a product of per-party (sc) or per-station (sd)
        weights, so at N = 2 the herald probability is
        ``2^-1 * w(x)^2`` and the coefficient of x^k is the probability of
        heralding with k photons lost (``environment_histogram``).

        sc: each party splits its H and its V photon 50:50 between home and
        its channel.  A photon reaching the central D/A splitter leaves
        towards station i (D) or station i+1 (A) with probability 1/2 each.
        If a party's H and V photons both arrive they leave together,
        H.V -> (D^2 - A^2)/2, and put two photons on one station, so no
        herald fires.  A herald therefore needs exactly one surviving
        photon from every party, and of the 2^N D/A choices
        only all-D and all-A put one photon on every station: factor
        2 * 2^-N.  Per party, "send one, it survives" has weight
        (1/2) t and loses nothing; "send both, exactly one survives" has
        weight (1/4) 2 t (1 - t) and loses one photon:
        w(x) = t/2 * (1 + (1 - t) x).  At N = 2 the branches are
        t^2/8, t^2 (1 - t)/4 and t^2 (1 - t)^2/8 for 0, 1 and 2 lost.

        sd: each party's H.V pair leaves its local D/A splitter as
        (D^2 - A^2)/2, so the pair goes home (D^2) or to the next party
        (A^2) with probability 1/2 each, both photons together.  Any mix of
        home-bound and neighbour-bound pairs has some party i sending to
        its neighbour while party i-1 keeps its pair at home, so station i
        receives nothing and no herald fires.  Only the all-home and
        all-cross routings herald: factor 2 * 2^-N.  At a station the
        arriving pair meets the H/V splitter; with both photons surviving
        (t^2) exactly one reaches the detector with probability 1/2, and
        with one lost (2 t (1 - t)) the survivor does so with probability
        1/2: w(x) = t^2/2 + t (1 - t) x.  At N = 2 the branches are t^4/8,
        t^3 (1 - t)/2 and t^2 (1 - t)^2/2.  The design form
        ((2 t - t^2)^N + t^2N) / 2^2N credits the all-cross routing only
        in its lossless branch.

        Distinct routings end in orthogonal states (they differ in the
        retained photons, the environment modes or the detected
        polarizations), so their weights add.
        The branches sum to ``exact_p_hr`` and the lossless branch is
        ``closed_p_suc``; ``closed_p_hr`` is neither.
        """
        n = 2
        t = eta**2
        if scheme == "sc":
            expected = {0: t**2 / 8, 1: t**2 * (1 - t) / 4, 2: t**2 * (1 - t) ** 2 / 8}
        else:
            expected = {0: t**4 / 8, 1: t**3 * (1 - t) / 2, 2: t**2 * (1 - t) ** 2 / 2}
        branches: dict[int, float] = {}
        for outcome in analyze_patterns(build_scheme(scheme, n, eta)):
            for lost, weight in outcome.environment_histogram:
                branches[lost] = branches.get(lost, 0.0) + weight
        checks = [
            ("same loss branches", sorted(branches) == sorted(expected), str(sorted(branches))),
            *(
                (f"{k} lost", math.isclose(branches.get(k, 0.0), w, rel_tol=1e-12),
                 f"sim {branches.get(k, 0.0):.15g} vs count {w:.15g}")
                for k, w in expected.items()
            ),
            ("sum is exact_p_hr", math.isclose(sum(expected.values()), exact_p_hr(scheme, n, eta),
                                               rel_tol=1e-12), ""),
            ("lossless branch is closed_p_suc",
             math.isclose(expected[0], closed_p_suc(scheme, n, eta), rel_tol=1e-12), ""),
            ("design p_hr is not the sum",
             not close(sum(expected.values()), closed_p_hr(scheme, n, eta)), ""),
        ]
        for label, ok, detail in checks:
            record_acceptance(
                1, self.TITLE, f"{case_label(scheme, n, eta)} routing count: {label}", ok,
                "" if ok else detail,
            )
        assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]


class TestCriterion2:
    TITLE = "ideal central heralding"

    @pytest.mark.parametrize("n", GRID_PARTIES)
    @pytest.mark.parametrize("eta", GRID_ETAS)
    def test_bell_heralds_are_always_faithful(self, n, eta, oracle, record_acceptance):
        h_eff = oracle("bc", n, eta).h_eff
        ok = abs(h_eff - 1.0) <= 1e-12
        record_acceptance(
            2,
            self.TITLE,
            f"bc-n{n}-eta{eta:g}",
            ok,
            "" if ok else f"h_eff {h_eff:.15g}",
        )
        assert ok


class TestCriterion3:
    """Spot values quoted for two parties at ninety percent transmission.

    The simulated value must equal the documented form for its metric.  A
    quote that agrees with that form must round to it; a quote documented
    to differ must miss the simulated value by more than its own printed
    precision, and the difference is listed in the summary (the same
    "discrepancy kept visible" rule as criterion 6).
    """

    TITLE = "quoted spot values"
    QUOTED = [
        ("sc", "p_suc", 0.0820125),
        ("sc", "h_eff", 0.688609),
        ("sd", "p_suc", 0.0538154),
        ("sd", "p_hr", 0.0849823),
        ("sd", "h_eff", 0.633240),
    ]
    # (scheme, metric) -> (documented form, decimals printed in the quote,
    # why the quote differs or None).  The h_eff quotes and the sd p_hr quote
    # are near the design-form values (0.6886104, 0.6332400, 0.0849732);
    # the sd p_suc quote is 1.3e-4 relative from eta^8/8 = 0.05380840125,
    # and no single eta fits both sd p_suc and sd p_hr quotes.
    DOCUMENTED = {
        ("sc", "p_suc"): (closed_p_suc, 7, None),
        ("sc", "h_eff"): (exact_h_eff, 6, "design-form value"),
        ("sd", "p_suc"): (closed_p_suc, 7, "matches no documented form"),
        ("sd", "p_hr"): (exact_p_hr, 7, "near the design-form value"),
        ("sd", "h_eff"): (exact_h_eff, 6, "design-form value"),
    }

    @pytest.mark.parametrize("scheme, metric, quoted", QUOTED)
    def test_quoted_value(self, scheme, metric, quoted, oracle, record_acceptance, record_difference):
        form, decimals, why_differs = self.DOCUMENTED[(scheme, metric)]
        label = f"{scheme}-2-0.9 {metric}"
        simulated = getattr(oracle(scheme, 2, 0.9), metric)
        expected = form(scheme, 2, 0.9)
        half_unit = 0.5 * 10.0 ** -decimals

        matches = close(simulated, expected)
        record_acceptance(
            3, self.TITLE, f"{label} equals {form.__name__}", matches,
            "" if matches else f"sim {simulated:.10g} vs form {expected:.10g}",
        )
        if why_differs is None:
            quote_ok = abs(quoted - expected) <= half_unit
            record_acceptance(
                3, self.TITLE, f"{label} quote rounds to the form", quote_ok,
                "" if quote_ok else f"quoted {quoted:.10g} vs form {expected:.10g}",
            )
        else:
            quote_ok = abs(quoted - simulated) > half_unit
            record_acceptance(
                3, self.TITLE, f"{label} quote differs ({why_differs})", quote_ok,
                "" if quote_ok else f"quoted {quoted:.10g} now matches sim {simulated:.10g}",
            )
            record_difference(3, self.TITLE, label, simulated, "quoted", quoted)
        assert matches, f"simulated {simulated:.10g} differs from {form.__name__} {expected:.10g}"
        assert quote_ok, f"quoted {quoted:.10g} vs form {expected:.10g} and sim {simulated:.10g}"


class TestCriterion4:
    TITLE = "success-rate crossing at 13 parties"

    def test_crossing_count_and_sweep(self, record_acceptance):
        checks = []
        count = p_suc_crossing_party_count()
        checks.append(("crossing count 13", count == 13, f"got {count}"))
        for radius in (1.0, 10.0, 50.0):
            for n, ring_wins in ((12, False), (13, True)):
                geometry = NetworkGeometry(n, radius, ALPHA)
                eta_central = eta_for_geometry("sc", geometry)
                eta_ring = eta_for_geometry("sd", geometry)
                ring = closed_p_suc("sd", n, eta_ring)
                central = closed_p_suc("sc", n, eta_central)
                ok = (ring > central) == ring_wins
                winner = "ring" if ring_wins else "central"
                checks.append(
                    (f"N={n} R={radius:g} {winner} wins", ok,
                     f"sd {ring:.3e} sc {central:.3e}")
                )
        for label, ok, detail in checks:
            record_acceptance(4, self.TITLE, label, ok, "" if ok else detail)
        assert all(ok for _, ok, _ in checks)


class TestCriterion5:
    TITLE = "crossover radius behavior"

    def test_crossover_radius_curve(self, record_acceptance):
        checks = []

        radii = {n: crossover_radius(n) for n in (*range(2, 31), 500)}
        small = all(radii[n] == 0.0 for n in range(2, 7))
        checks.append(("zero radius through six parties", small, str({n: radii[n] for n in range(2, 7)})))
        positive = all(radii[n] > 0.0 for n in range(7, 31))
        checks.append(("positive radius from seven parties", positive, ""))
        increasing = all(radii[n] < radii[n + 1] for n in range(7, 30))
        checks.append(("strictly increasing", increasing, ""))

        r7 = radii[7]
        checks.append(
            ("seven-party radius 3.30 +- 0.05 km", abs(r7 - 3.30) <= 0.05, f"got {r7:.6f}")
        )
        residual = max(abs(crossover_margin(radii[n], n, ALPHA)) for n in (7, 8, 13, 30, 500))
        checks.append(("root residual below 1e-14", residual <= 1e-14, f"residual {residual:.2e}"))

        # the efficiency ordering must flip when crossing the root
        r8 = radii[8]
        ordering = []
        for radius, ring_better in ((0.5 * r8, True), (2.0 * r8, False)):
            geometry = NetworkGeometry(8, radius, ALPHA)
            eta_central = eta_for_geometry("sc", geometry)
            eta_ring = eta_for_geometry("sd", geometry)
            ring = closed_h_eff("sd", 8, eta_ring)
            central = closed_h_eff("sc", 8, eta_central)
            ordering.append((ring > central) == ring_better)
        checks.append(
            ("efficiency ordering flips across the root", all(ordering), "")
        )
        # and must not flip where no positive root exists
        no_flip = []
        for radius in (1.0, 5.0, 20.0):
            geometry = NetworkGeometry(4, radius, ALPHA)
            eta_central = eta_for_geometry("sc", geometry)
            eta_ring = eta_for_geometry("sd", geometry)
            no_flip.append(
                closed_h_eff("sd", 4, eta_ring) <= closed_h_eff("sc", 4, eta_central)
            )
        checks.append(("no flip for four parties", all(no_flip), ""))

        for label, ok, detail in checks:
            record_acceptance(5, self.TITLE, label, ok, "" if ok else detail)
        assert all(ok for _, ok, _ in checks)


class TestCriterion6:
    TITLE = "chord asymptote"

    def test_large_ring_chord_limit(self, record_acceptance):
        report = asymptotic_chord(alpha=ALPHA, reference_n=500)
        limit = math.log(2.0) / (2.0 * ALPHA)
        checks = [
            ("analytic limit ln2/(2 alpha)", abs(report.analytic_limit_km - limit) < 1e-9,
             f"{report.analytic_limit_km:.6f}"),
            ("numeric chord within 0.1 km", abs(report.numeric_at_reference_n_km - limit) < 0.1,
             f"{report.numeric_at_reference_n_km:.6f}"),
            ("quoted figure reported alongside", report.quoted_reference_km == 15.71,
             str(report.quoted_reference_km)),
            ("discrepancy kept visible", abs(report.analytic_limit_km - report.quoted_reference_km) > 0.5,
             ""),
        ]
        for label, ok, detail in checks:
            record_acceptance(6, self.TITLE, label, ok, "" if ok else detail)
        assert all(ok for _, ok, _ in checks)


class TestCriterion7:
    TITLE = "structural invariants"

    def test_stage_isometries(self, record_acceptance):
        bad = []
        for scheme in GRID_SCHEMES:
            for n in (2, 3):
                for eta in (1.0, 0.8):
                    build = build_scheme(scheme, n, eta)
                    for k, stage in enumerate(build.stages):
                        if not is_isometry(stage):
                            bad.append(f"{scheme}-n{n}-eta{eta:g} stage {k}")
        record_acceptance(
            7, self.TITLE, "all stages isometric", not bad, "; ".join(bad[:3])
        )
        assert not bad

    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_norm_and_completeness(self, scheme, record_acceptance):
        build = build_scheme(scheme, 2, 0.8)
        norm = norm_squared(explicit_evolution(build))
        ok_norm = abs(norm - 1.0) <= 1e-10
        record_acceptance(
            7, self.TITLE, f"{scheme} norm preserved", ok_norm, f"norm {norm:.12g}"
        )
        outcomes = analyze_patterns(build)
        total = sum(o.probability for o in outcomes)
        metrics = compute_metrics(build)
        ok_sum = abs(total - metrics.p_hr) <= 1e-10 and total <= norm + 1e-10
        record_acceptance(
            7, self.TITLE, f"{scheme} pattern probabilities complete", ok_sum,
            f"sum {total:.12g} p_hr {metrics.p_hr:.12g}",
        )
        assert ok_norm and ok_sum

    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_branch_balance(self, scheme, n, record_acceptance):
        worst = 0.0
        for outcome in analyze_patterns(build_scheme(scheme, n, 0.9)):
            x, y = outcome.ghz_amplitudes
            worst = max(worst, abs(abs(x) - abs(y)))
        ok = worst <= 1e-10
        record_acceptance(
            7, self.TITLE, f"{scheme}-n{n} branch balance", ok, f"worst {worst:.2e}"
        )
        assert ok

    @pytest.mark.parametrize("scheme", ["bc", "sc"])
    def test_phase_plate_toggle(self, scheme, record_acceptance):
        builder = {"bc": build_bc, "sc": build_sc}[scheme]
        with_plates = compute_metrics(builder(2, 0.9))
        bare = compute_metrics(without_c1_plate(builder(2, 0.9)))
        diff = max(
            abs(with_plates.p_suc - bare.p_suc),
            abs(with_plates.p_hr - bare.p_hr),
        )
        ok = diff <= 1e-12
        record_acceptance(
            7, self.TITLE, f"{scheme} plate toggle invariant", ok, f"diff {diff:.2e}"
        )
        assert ok

    @pytest.mark.parametrize("scheme", GRID_SCHEMES)
    def test_cyclic_relabeling(self, scheme, record_acceptance):
        outcomes = {
            o.pattern: o.probability
            for o in analyze_patterns(build_scheme(scheme, 3, 0.9))
        }
        worst = 0.0
        for pattern, prob in outcomes.items():
            rotated = pattern[1:] + pattern[:1]
            worst = max(worst, abs(outcomes[rotated] - prob))
        ok = worst <= 1e-12
        record_acceptance(
            7, self.TITLE, f"{scheme} cyclic relabeling", ok, f"worst {worst:.2e}"
        )
        assert ok


class TestCriterion8:
    TITLE = "figure data reproduction"

    SWEEP_ARGS = [
        "sweep",
        "--scheme",
        "all",
        "--parties",
        "4..8",
        "--radius-grid",
        "0:12:0.5",
    ]

    def parse_sweep(self, text):
        rows = {}
        for line in text.splitlines()[1:]:
            fields = line.split(",")
            key = (fields[0], int(fields[1]))
            rows.setdefault(key, []).append(
                {
                    "r": float(fields[2]),
                    "p_suc": float(fields[5]),
                    "h_eff": float(fields[7]),
                    "h_th": float(fields[8]),
                }
            )
        return rows

    def test_sweep_and_crossover_tables(self, capsys, record_acceptance):
        checks = []

        assert main(self.SWEEP_ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.SWEEP_ARGS) == 0
        second = capsys.readouterr().out
        checks.append(("sweep re-run byte identical", first == second, ""))

        rows = self.parse_sweep(first)
        monotone = all(
            all(a["p_suc"] > b["p_suc"] for a, b in zip(series, series[1:]))
            for series in rows.values()
        )
        checks.append(("success rates decrease with radius", monotone, ""))

        thresholds = all(
            abs(entry["h_th"] - lhv_threshold(n)) < 1e-12
            for (_, n), series in rows.items()
            for entry in series
        )
        checks.append(("violation threshold column", thresholds, ""))

        def crossings(n):
            ring = rows[("sd", n)]
            central = rows[("sc", n)]
            signs = [
                r["h_eff"] - c["h_eff"] for r, c in zip(ring, central) if r["r"] > 0.0
            ]
            return sum(
                1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0)
            )

        checks.append(("no efficiency crossing at four parties", crossings(4) == 0, ""))
        for n in (7, 8):
            root = crossover_radius(n)
            inside = any(
                abs(entry["r"] - root) <= 0.5 for entry in rows[("sd", n)]
            )
            checks.append(
                (f"single crossing near the root for N={n}",
                 crossings(n) == 1 and inside, f"count {crossings(n)} root {root:.3f}")
            )

        cross_args = ["crossover", "--parties", "2..8", "--format", "csv"]
        assert main(cross_args) == 0
        cross_first = capsys.readouterr().out
        assert main(cross_args) == 0
        cross_second = capsys.readouterr().out
        checks.append(("crossover re-run byte identical", cross_first == cross_second, ""))

        values = {}
        for line in cross_first.splitlines()[1:]:
            n_text, radius_text, chord_text = line.split(",")
            values[int(n_text)] = (float(radius_text), float(chord_text))
        flat = all(values[n] == (0.0, 0.0) for n in range(2, 7))
        rising = all(values[n][0] < values[n + 1][0] for n in range(7, 8))
        checks.append(("crossover table zero then rising", flat and rising, str(values)))

        for label, ok, detail in checks:
            record_acceptance(8, self.TITLE, label, ok, "" if ok else detail)
        assert all(ok for _, ok, _ in checks)
