"""Tests for the sweep, crossover, and verification batch drivers."""

import io
import json
import math

import pytest

from heraldnet.analytic import (
    closed_h_eff,
    closed_p_suc,
    lhv_threshold,
    sc_p_hr_uncorrected,
)
from heraldnet.experiments import (
    DEFAULT_VERIFY_ETAS,
    DEFAULT_VERIFY_PARTIES,
    SWEEP_CSV_HEADER,
    VERIFY_TOL,
    CrossoverPoint,
    VerificationRow,
    analytic_record,
    crossover_curve,
    fmt,
    oracle_metrics_map,
    sweep_vs_radius,
    verification_report,
    verify_suite,
    worker_count,
    write_sweep_csv,
    write_verification_json,
)
from heraldnet.schemes import SCHEMES, NetworkGeometry, eta_for_geometry


class TestSweep:
    def test_csv_header(self):
        assert SWEEP_CSV_HEADER == "scheme,N,R_km,alpha,eta,p_suc,p_hr,h_eff,h_th,source"

    def test_record_grid_shape(self):
        records = sweep_vs_radius(["bc", "sd"], [2, 3], [0.0, 1.0, 2.0])
        assert len(records) == 2 * 2 * 3
        assert [r.scheme for r in records[:3]] == ["bc", "bc", "bc"]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_eta_matches_geometry(self, scheme):
        for record in sweep_vs_radius([scheme], [4], [0.0, 7.5, 30.0]):
            geometry = NetworkGeometry(4, record.radius_km, record.alpha)
            assert record.eta == pytest.approx(
                eta_for_geometry(scheme, geometry), abs=1e-12
            )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_radius_is_ideal(self, scheme):
        (record,) = sweep_vs_radius([scheme], [3], [0.0])
        assert record.eta == 1.0
        assert record.p_suc == pytest.approx(record.p_hr, abs=1e-14)
        assert record.h_eff == pytest.approx(1.0, abs=1e-14)

    def test_records_carry_violation_threshold(self):
        for record in sweep_vs_radius(["sc"], [5], [0.0, 10.0]):
            assert record.h_th == pytest.approx(lhv_threshold(5), abs=1e-14)

    def test_rates_decrease_with_radius(self):
        radii = [0.0, 5.0, 10.0, 20.0]
        records = sweep_vs_radius(["sd"], [3], radii)
        rates = [r.p_suc for r in records]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_analytic_record_consistency(self):
        record = analytic_record("sd", 4, 10.0)
        geometry = NetworkGeometry(4, 10.0)
        eta = eta_for_geometry("sd", geometry)
        assert record.eta == pytest.approx(eta, abs=1e-14)
        assert record.p_suc == pytest.approx(closed_p_suc("sd", 4, eta), abs=1e-14)
        assert record.h_eff == pytest.approx(closed_h_eff("sd", 4, eta), abs=1e-14)
        assert record.source == "analytic"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"schemes": [], "n_list": [3], "r_grid": [1.0]},
            {"schemes": ["bc"], "n_list": [], "r_grid": [1.0]},
            {"schemes": ["bc"], "n_list": [3], "r_grid": []},
            {"schemes": ["bc"], "n_list": [3], "r_grid": [2.0, 1.0]},
            {"schemes": ["qq"], "n_list": [3], "r_grid": [1.0]},
            {"schemes": ["bc"], "n_list": [1], "r_grid": [1.0]},
        ],
    )
    def test_sweep_validation(self, kwargs):
        with pytest.raises(ValueError):
            sweep_vs_radius(**kwargs)

    def test_csv_output_is_deterministic(self):
        first, second = io.StringIO(), io.StringIO()
        write_sweep_csv(sweep_vs_radius(["bc", "sc"], [2, 4], [0.0, 3.0]), first)
        write_sweep_csv(sweep_vs_radius(["bc", "sc"], [2, 4], [0.0, 3.0]), second)
        assert first.getvalue() == second.getvalue()
        lines = first.getvalue().splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 2


class TestCrossoverCurve:
    def test_curve_rows(self):
        curve = crossover_curve(2, 8)
        assert [p.n_parties for p in curve] == list(range(2, 9))
        for point in curve:
            assert isinstance(point, CrossoverPoint)
            if point.n_parties <= 6:
                assert point.radius_km == 0.0
                assert point.chord_km == 0.0
            else:
                assert point.radius_km > 0.0
                expected = 2.0 * point.radius_km * math.sin(math.pi / point.n_parties)
                assert point.chord_km == pytest.approx(expected, abs=1e-12)

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            crossover_curve(5, 4)
        with pytest.raises(ValueError):
            crossover_curve(1, 4)


class TestVerifySuite:
    def test_default_grid_constants(self):
        assert DEFAULT_VERIFY_PARTIES == (2, 3, 4)
        assert DEFAULT_VERIFY_ETAS == (1.0, 0.9, 0.7, 0.5)
        assert VERIFY_TOL == 1e-9

    def test_lossless_rows_all_pass(self):
        rows = verify_suite(n_list=[2], eta_list=[1.0])
        assert len(rows) == 9
        assert all(row.passed for row in rows)
        assert all(row.note == "" for row in rows)

    def test_bell_rows_pass_with_loss(self):
        rows = verify_suite(n_list=[2], eta_list=[0.9], schemes=["bc"])
        assert all(row.passed for row in rows)
        (h_eff_row,) = [r for r in rows if r.metric == "h_eff"]
        assert h_eff_row.simulated == pytest.approx(1.0, abs=1e-12)

    def test_splitter_rows_diverge_with_loss(self):
        # the success rate follows the quoted closed form, but the herald
        # rate and efficiency land on a different curve; the note names the
        # expression the simulation does match
        rows = {r.metric: r for r in verify_suite(n_list=[2], eta_list=[0.9], schemes=["sc"])}
        assert rows["p_suc"].passed
        assert not rows["p_hr"].passed
        assert not rows["h_eff"].passed
        assert "simulation matches" in rows["p_hr"].note
        assert "simulation matches" in rows["h_eff"].note

    def test_ring_rows_diverge_with_loss(self):
        rows = {r.metric: r for r in verify_suite(n_list=[2], eta_list=[0.9], schemes=["sd"])}
        assert rows["p_suc"].passed
        assert not rows["p_hr"].passed
        assert not rows["h_eff"].passed

    def test_case_id_format(self):
        rows = verify_suite(n_list=[2], eta_list=[0.9], schemes=["bc"])
        assert {r.case_id for r in rows} == {"bc-n2-eta0.9"}

    def test_abs_diff_property(self):
        rows = verify_suite(n_list=[2], eta_list=[0.9], schemes=["sc"])
        for row in rows:
            assert row.abs_diff == pytest.approx(
                abs(row.analytic - row.simulated), abs=1e-15
            )
            assert row.passed == (row.abs_diff <= VERIFY_TOL)

    def test_pass_criterion_is_relative(self):
        # at sd N=4, eta=0.5 the success rate is about 1.2e-7, so an absolute
        # 1e-9 would accept a 0.1% error; the relative check must not
        row = VerificationRow("sd-n4-eta0.5", "sd", 4, 0.5, "p_suc", 1.2e-7, 1.2e-7 * (1 + 1e-3))
        assert row.abs_diff < VERIFY_TOL
        assert not row.passed
        close = VerificationRow("sd-n4-eta0.5", "sd", 4, 0.5, "p_suc", 1.2e-7, 1.2e-7 * (1 + 1e-12))
        assert close.passed

    def test_uncorrected_reference_flag(self):
        rows = {
            r.metric: r
            for r in verify_suite(
                n_list=[2], eta_list=[0.9], schemes=["sc"], sc_phr_uncorrected=True
            )
        }
        assert rows["p_hr"].analytic == pytest.approx(
            sc_p_hr_uncorrected(2, 0.9), abs=1e-14
        )
        assert "uncorrected" in rows["p_hr"].note

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.3])
    def test_eta_validation(self, eta):
        with pytest.raises(ValueError):
            verify_suite(n_list=[2], eta_list=[eta])

    def test_report_summary(self):
        rows = verify_suite(n_list=[2], eta_list=[0.9], schemes=["bc", "sd"])
        report = verification_report(rows)
        summary = report["summary"]
        assert summary["total"] == len(rows) == 6
        assert summary["passed"] + summary["failed"] == summary["total"]
        assert summary["failed"] == sum(1 for r in rows if not r.passed) == 2

    def test_json_output_round_trips(self):
        rows = verify_suite(n_list=[2], eta_list=[1.0], schemes=["bc"])
        first, second = io.StringIO(), io.StringIO()
        write_verification_json(rows, first)
        write_verification_json(rows, second)
        assert first.getvalue() == second.getvalue()
        payload = json.loads(first.getvalue())
        assert payload["summary"]["total"] == 3
        assert {r["metric"] for r in payload["rows"]} == {"p_suc", "p_hr", "h_eff"}


class TestOracleHelpers:
    def test_oracle_metrics_map_values(self):
        cases = [("bc", 2, 1.0), ("bc", 2, 0.9)]
        table = oracle_metrics_map(cases, workers=1)
        p_suc, p_hr = table[("bc", 2, 1.0)]
        assert p_suc == pytest.approx(0.5, abs=1e-12)
        assert p_hr == pytest.approx(0.5, abs=1e-12)
        lossy_suc, lossy_hr = table[("bc", 2, 0.9)]
        assert lossy_suc == pytest.approx(lossy_hr, abs=1e-12)

    def test_worker_count_default_and_override(self, monkeypatch):
        monkeypatch.delenv("HERALDNET_THREADS", raising=False)
        assert worker_count() == 1
        assert worker_count(3) == 3
        monkeypatch.setenv("HERALDNET_THREADS", "2")
        assert worker_count() == 2
        # explicit request wins over the environment
        assert worker_count(5) == 5
        monkeypatch.setenv("HERALDNET_THREADS", "junk")
        assert worker_count() == 1

    def test_fmt_is_compact(self):
        assert fmt(0.5) == "0.5"
        assert fmt(1.0) == "1"
        assert fmt(0.0820125) == "0.0820125"
