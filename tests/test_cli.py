"""End-to-end tests that drive the command line entry point."""

import json

import pytest

from heraldnet.cli import CliError, main, parse_parties, parse_radius_grid
from heraldnet.experiments import SWEEP_CSV_HEADER


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_single_party_count(self):
        assert parse_parties("3") == [3]

    def test_party_range(self):
        assert parse_parties("2..5") == [2, 3, 4, 5]

    def test_radius_grid_is_inclusive(self):
        assert parse_radius_grid("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize("text", ["abc", "5..2", "1", "0..99"])
    def test_bad_party_specs(self, text):
        with pytest.raises(CliError):
            parse_parties(text)

    @pytest.mark.parametrize(
        "text", ["0:50", "5:1:1", "0:2:-1", "x:y:z", "0:inf:1", "nan:1:1", "0:1:nan"]
    )
    def test_bad_radius_grids(self, text):
        with pytest.raises(CliError):
            parse_radius_grid(text)


class TestSimulate:
    def test_eta_mode_reports_both_sources(self, capsys):
        code, out, _ = run(
            capsys, ["simulate", "--scheme", "bc", "--parties", "3", "--eta", "0.9"]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert "analytic" in lines[0] and "simulated" in lines[1]
        for line in lines:
            assert "p_suc=0.13286025" in line
            assert "h_eff=1" in line

    def test_radius_mode_uses_ring_chord(self, capsys):
        code, out, _ = run(
            capsys, ["simulate", "--scheme", "sd", "--parties", "2", "--radius", "10"]
        )
        assert code == 0
        # eta follows from the neighbour chord 2 R sin(pi/2) = 20 km
        assert "eta=0.631283645507" in out

    def test_lossy_splitter_shows_divergent_herald_rate(self, capsys):
        code, out, _ = run(
            capsys, ["simulate", "--scheme", "sc", "--parties", "2", "--eta", "0.9"]
        )
        assert code == 0
        analytic, simulated = out.splitlines()
        assert "p_hr=0.1190985525" in analytic
        assert "p_hr=0.11613790125" in simulated

    def test_csv_format_blanks_radius_in_eta_mode(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "simulate",
                "--scheme",
                "bc",
                "--parties",
                "2",
                "--eta",
                "0.9",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        for row in lines[1:]:
            fields = row.split(",")
            assert len(fields) == 10
            assert fields[2] == ""

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "simulate",
                "--scheme",
                "sd",
                "--parties",
                "2",
                "--eta",
                "0.9",
                "--format",
                "json",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert {r["source"] for r in payload} == {"analytic", "simulated"}

    def test_eta_zero_is_rejected(self, capsys):
        code, _, err = run(
            capsys, ["simulate", "--scheme", "sc", "--parties", "2", "--eta", "0"]
        )
        assert code == 1
        assert "heralding efficiency undefined at eta=0" in err

    def test_eta_and_radius_conflict(self, capsys):
        code, _, err = run(
            capsys,
            [
                "simulate",
                "--scheme",
                "bc",
                "--parties",
                "2",
                "--eta",
                "0.9",
                "--radius",
                "5",
            ],
        )
        assert code == 1
        assert err.startswith("error:")

    def test_missing_eta_and_radius(self, capsys):
        code, _, err = run(capsys, ["simulate", "--scheme", "bc", "--parties", "2"])
        assert code == 1
        assert err.startswith("error:")

    def test_simulation_cap(self, capsys):
        code, _, err = run(
            capsys, ["simulate", "--scheme", "bc", "--parties", "7", "--eta", "0.9"]
        )
        assert code == 1
        assert "capped at 6" in err

    def test_unknown_scheme_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--scheme", "qq", "--parties", "2", "--eta", "0.9"])
        capsys.readouterr()


class TestSweep:
    ARGS = ["sweep", "--scheme", "sd", "--parties", "3", "--radius-grid", "0:4:2"]

    def test_csv_default(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == SWEEP_CSV_HEADER
        assert len(lines) == 4
        assert lines[1].startswith("sd,3,0,")

    def test_reruns_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, self.ARGS)
        _, second, _ = run(capsys, self.ARGS)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, direct, _ = run(capsys, self.ARGS)
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, self.ARGS + ["--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == direct

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        assert payload[0]["scheme"] == "sd"
        assert payload[0]["h_eff"] == pytest.approx(1.0)

    def test_config_round_trip(self, capsys, tmp_path):
        _, dumped, _ = run(capsys, self.ARGS + ["--dump-config"])
        config = tmp_path / "cfg.json"
        config.write_text(dumped, encoding="utf-8")
        _, direct, _ = run(capsys, self.ARGS)
        code, via_config, _ = run(capsys, ["sweep", "--config", str(config)])
        assert code == 0
        assert via_config == direct

    def test_dump_config_is_json(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--dump-config"])
        assert code == 0
        config = json.loads(out)
        assert config["command"] == "sweep"
        assert config["parties"] == "3"
        assert config["radius_grid"] == "0:4:2"


class TestCrossover:
    def test_text_table_and_footer(self, capsys):
        code, out, _ = run(capsys, ["crossover", "--parties", "5..8"])
        assert code == 0
        assert "chord limit ln(2)/(2*alpha) = 15.0684169687 km" in out
        assert "quoted reference 15.71 km" in out

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, ["crossover", "--parties", "5..8", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,R_c_km,l_c_km"
        assert lines[1] == "5,0,0"
        assert lines[2] == "6,0,0"
        n7 = lines[3].split(",")
        assert n7[0] == "7"
        assert float(n7[1]) == pytest.approx(3.3071233372, abs=1e-5)

    def test_tight_tolerance_sharpens_root(self, capsys):
        code, out, _ = run(
            capsys,
            ["crossover", "--parties", "7", "--format", "csv", "--tol", "1e-9"],
        )
        assert code == 0
        value = float(out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(3.3071233372, abs=1e-8)


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["crossover", "--parties", "7", "--alpha", "nan"],
            ["crossover", "--parties", "7", "--alpha", "inf"],
            ["crossover", "--parties", "7..8", "--tol", "nan"],
            ["sweep", "--radius-grid", "0:inf:1"],
        ],
    )
    def test_non_finite_input_is_rejected(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestVerify:
    def test_clean_scheme_exits_zero(self, capsys):
        code, out, err = run(
            capsys, ["verify", "--scheme", "bc", "--parties", "2", "--eta", "0.9"]
        )
        assert code == 0
        assert "verified 3/3 comparisons within 1e-09; 0 failed" in err
        payload = json.loads(out)
        assert payload["summary"]["failed"] == 0

    def test_divergent_scheme_exits_nonzero(self, capsys):
        code, out, err = run(
            capsys, ["verify", "--scheme", "sd", "--parties", "2", "--eta", "0.9"]
        )
        assert code == 1
        assert "verified 1/3 comparisons within 1e-09; 2 failed" in err
        payload = json.loads(out)
        failing = [r["metric"] for r in payload["rows"] if not r["passed"]]
        assert failing == ["p_hr", "h_eff"]

    def test_uncorrected_flag_changes_reference(self, capsys):
        base = ["verify", "--scheme", "sc", "--parties", "2", "--eta", "0.9"]
        _, out_default, _ = run(capsys, base)
        _, out_flagged, _ = run(capsys, base + ["--sc-phr-uncorrected"])
        default_phr = [
            r for r in json.loads(out_default)["rows"] if r["metric"] == "p_hr"
        ][0]
        flagged_phr = [
            r for r in json.loads(out_flagged)["rows"] if r["metric"] == "p_hr"
        ][0]
        assert default_phr["analytic"] == pytest.approx(0.1190985525, abs=1e-10)
        assert flagged_phr["analytic"] == pytest.approx(0.47639421, abs=1e-10)
        assert "uncorrected" in flagged_phr["note"]
