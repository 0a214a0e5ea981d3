"""End-to-end tests that drive the command line entry point."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from heraldnet import cli, heralding
from heraldnet.cli import CliError, main, parse_parties, parse_radius_grid
from heraldnet.experiments import SWEEP_CSV_HEADER


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelp:
    @pytest.mark.parametrize(
        ("command", "constant", "value", "text"),
        [
            ("verify", "DEFAULT_VERIFY_PARTIES", (3, 4, 5), "MIN..MAX (default 3..5)"),
            ("verify", "DEFAULT_VERIFY_ETAS", (0.8, 0.6), "(default grid 0.8 0.6)"),
            ("sweep", "DEFAULT_SWEEP_PARTIES", (5, 9), "MIN..MAX (default 5, 9)"),
        ],
    )
    def test_defaults_in_help_follow_the_constants(
        self, capsys, monkeypatch, command, constant, value, text
    ):
        monkeypatch.setenv("COLUMNS", "200")  # one help line per option
        monkeypatch.setattr(cli, constant, value)
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert text in capsys.readouterr().out


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

    @pytest.mark.parametrize("eta", ["1.5", "-0.1", "nan"])
    def test_eta_out_of_range_is_rejected(self, capsys, eta):
        code, out, err = run(capsys, ["simulate", "--scheme", "all", "--parties", "2", "--eta", eta])
        assert code == 1
        assert out == ""
        assert err == f"error: transmission eta must lie in [0, 1], got {float(eta)}\n"

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
            capsys, ["simulate", "--scheme", "bc", "--parties", "8", "--eta", "0.9"]
        )
        assert code == 1
        assert "capped at 7" in err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["simulate", "--scheme", "sd", "--parties", "8", "--eta", "0.9"], "sd is capped at 7"),
            (["simulate", "--scheme", "all", "--parties", "7..8", "--eta", "0.9"], "bc is capped at 7"),
            (["verify", "--scheme", "sd", "--parties", "8"], "sd is capped at 7"),
            (["simulate", "--scheme", "sd", "--parties", "6..8", "--eta", "0.9"], "sd is capped at 7"),
            (["simulate", "--scheme", "sc", "--parties", "8", "--eta", "0.9"], "sc is capped at 7"),
            (["simulate", "--scheme", "bc", "--parties", "8", "--eta", "0.9"], "bc is capped at 7"),
        ],
    )
    def test_simulation_cap_is_per_scheme(self, capsys, monkeypatch, argv, message):
        # refused before any party is evolved: at N=8 every scheme needs more photons than a key holds
        def evolve(stage, state):
            raise AssertionError("a party was evolved")

        monkeypatch.setattr(heralding, "apply", evolve)
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_small_transmission_heralds(self, capsys):
        # eta = e^(-0.023 * 300 * sqrt(3)) ~ 6.5e-6: every amplitude is tiny
        code, out, err = run(
            capsys, ["simulate", "--scheme", "sd", "--parties", "3", "--radius", "300"]
        )
        assert code == 0
        assert err == ""
        assert "sd" in out

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

    def test_closed_forms_reach_past_512_parties(self, capsys):
        # 2^(2N) no longer converts to a float here; the forms scale by ldexp
        code, out, err = run(capsys, ["sweep", "--parties", "520", "--radius-grid", "0:1:1"])
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(r[0], r[2]) for r in rows] == [(s, r) for s in ("bc", "sc", "sd") for r in "01"]
        # lossless sc and sd herald 2^-1039, a subnormal float
        assert [r[6] for r in rows if r[2] == "0"][1:] == ["1.69759663277e-313"] * 2


def error_exit(capsys, argv):
    """``main(argv)``'s exit code and stderr, from a return or from argparse."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


class TestConfigFile:
    @staticmethod
    def config(tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--radius", "3", "--parties", "2", "--scheme", "bc", "--format", "json"],
        ["sweep", "--scheme", "sd", "--parties", "3", "--radius-grid", "0:4:2", "--alpha", "0.05"],
        ["crossover", "--parties", "6..8", "--format", "csv"],
        ["verify", "--scheme", "sc", "--parties", "2", "--eta", "0.5", "--sc-phr-uncorrected"],
    ])
    def test_dump_config_round_trips(self, capsys, tmp_path, argv):
        code, dumped, _ = run(capsys, argv + ["--dump-config"])
        assert code == 0
        config = self.config(tmp_path, dumped)
        assert run(capsys, [argv[0], "--config", config, "--dump-config"]) == (0, dumped, "")
        assert run(capsys, [argv[0], "--config", config]) == run(capsys, argv)

    def test_command_line_flags_win(self, capsys, tmp_path):
        config = self.config(tmp_path, '{"parties": "2", "scheme": "bc", "eta": 0.5}')
        via_config = run(capsys, ["simulate", "--config", config, "--parties", "3"])
        assert via_config == run(capsys, ["simulate", "--scheme", "bc", "--eta", "0.5",
                                          "--parties", "3"])

    # a file value meets the same type and choice checks as the flag
    @pytest.mark.parametrize(("stored", "flags"), [
        ('{"format": "xml"}', ["--format", "xml"]),
        ('{"eta": true}', ["--eta"]),
    ])
    def test_values_are_checked_as_on_the_command_line(self, capsys, tmp_path, stored, flags):
        argv = ["simulate", "--parties", "2", "--scheme", "bc"]
        direct = error_exit(capsys, argv + flags)
        assert direct[0] == 2 and "error: argument" in direct[1]
        assert error_exit(capsys, argv + ["--config", self.config(tmp_path, stored)]) == direct

    def test_an_int_value_is_parsed_as_its_text(self, capsys, tmp_path):
        config = self.config(tmp_path, '{"parties": 5}')
        argv = ["simulate", "--scheme", "bc", "--eta", "0.9"]
        assert run(capsys, argv + ["--config", config]) == run(capsys, argv + ["--parties", "5"])

    def test_an_int_out_names_a_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = self.config(tmp_path, '{"out": 3}')
        argv = ["simulate", "--scheme", "bc", "--parties", "2", "--eta", "0.9"]
        assert run(capsys, argv + ["--config", config]) == (0, "", "")
        via_config = (tmp_path / "3").read_text(encoding="utf-8")
        assert run(capsys, argv + ["--out", "3"]) == (0, "", "")
        assert via_config == (tmp_path / "3").read_text(encoding="utf-8") != ""

    @pytest.mark.parametrize("text", [None, "{not json"])
    def test_unreadable_config_is_an_error_line(self, capsys, tmp_path, text):
        path = str(tmp_path / "cfg.json") if text is None else self.config(tmp_path, text)
        code, err = error_exit(capsys, ["sweep", "--config", path])
        assert code == 1
        assert err.startswith(f"error: cannot read config {path}: ") and err.count("\n") == 1

    def test_config_must_hold_an_object(self, capsys, tmp_path):
        path = self.config(tmp_path, '["--parties", "3"]')
        assert error_exit(capsys, ["sweep", "--config", path]) == (
            1, f"error: config {path} must hold a JSON object\n")

    # verify has no --format, "color" is no option at all, and crossover has no --tol
    @pytest.mark.parametrize(("command", "text", "unknown"), [
        ("verify", '{"format": "csv", "color": 1, "command": "sweep"}', "['color', 'format']"),
        ("crossover", '{"tol": 1e-3}', "['tol']"),
    ])
    def test_unknown_keys_are_refused(self, capsys, tmp_path, command, text, unknown):
        path = self.config(tmp_path, text)
        assert error_exit(capsys, [command, "--config", path]) == (
            1, f"error: config {path} has unknown keys: {unknown}\n")


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

    @pytest.mark.parametrize(("alpha", "rows"), [
        ([], ["7,3.30712333722,2.86981407855", "8,6.62507818371,5.07061531806"]),
        (["--alpha", "1e300"], ["7,7.6063836756e-302,6.60057238067e-302",
                                "8,1.52376798225e-301,1.16624152315e-301"]),
    ])
    def test_roots_are_exact_to_every_printed_digit(self, capsys, alpha, rows):
        code, out, _ = run(capsys, ["crossover", "--parties", "7..8", "--format", "csv", *alpha])
        assert code == 0
        assert out.splitlines() == ["N,R_c_km,l_c_km", *rows]


class TestExtremeAttenuation:
    def test_huge_alpha_saturates_the_margin(self, capsys):
        code, out, err = run(capsys, ["crossover", "--parties", "2", "--alpha", "1e300"])
        assert code == 0
        assert err == ""
        assert out.splitlines()[1].split() == ["2", "0", "0"]

    def test_tiny_alpha_scales_the_bracket(self, capsys):
        code, out, err = run(
            capsys, ["crossover", "--parties", "7", "--alpha", "1e-10", "--format", "csv"]
        )
        assert code == 0
        assert err == ""
        # the margin depends on alpha*R alone: R_c scales as 1/alpha
        radius = float(out.splitlines()[1].split(",")[1])
        assert radius == pytest.approx(3.3071233372 * 0.023 / 1e-10, rel=1e-6)

    # at N = 50000 no root lies below the bracket limit, which is itself past the float range
    @pytest.mark.parametrize(("parties", "alpha"), [("7", "1e-320"), ("50000", "1e-310")])
    def test_crossover_beyond_float_range_is_an_error(self, capsys, parties, alpha):
        code, out, err = run(capsys, ["crossover", "--parties", parties, "--alpha", alpha])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "float range" in err


    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_rows_survive_an_asymptote_out_of_range(self, capsys, fmt):
        # the N=7 root is finite here; only the N=500 root of the asymptote is not
        code, out, err = run(
            capsys, ["crossover", "--parties", "7", "--alpha", "1e-309", "--format", fmt]
        )
        assert code == 1
        assert err.startswith("error: chord asymptote:") and "float range" in err
        if fmt == "json":
            doc = json.loads(out)
            assert doc["asymptote"] is None
            (point,) = doc["points"]
            assert point["n_parties"] == 7 and 0 < point["radius_km"] < float("inf")
        else:
            row = out.splitlines()[1].replace(",", " ").split()
            assert row[0] == "7" and 0 < float(row[1]) < float("inf")
            assert "chord limit" not in out


class TestErrorExits:
    def test_unwritable_out_is_an_error_line(self, capsys, tmp_path):
        target = tmp_path / "missing" / "sweep.csv"
        code, out, err = run(capsys, ["sweep", "--parties", "3", "--out", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    def test_root_bracket_failure_is_an_error_line(self, capsys):
        # the root's alpha*R grows like N ln(2)/(4 pi): past the bracket limit here
        code, out, err = run(capsys, ["crossover", "--parties", "50000..50000"])
        assert code == 1
        assert out == ""
        assert err == "error: no sign change of the crossover margin below 100000.0 km\n"

    @pytest.mark.parametrize("argv", [
        # about 1 MB, more than a pipe holds, so the writer meets the closed pipe
        ["sweep", "--scheme", "bc", "--parties", "2", "--radius-grid", "0:100:0.01"],
        ["simulate", "--scheme", "sc", "--parties", "2", "--eta", "0.5", "--format", "json"],
    ])
    def test_closed_stdout_stops_quietly(self, argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-m", "heraldnet.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        proc.wait(timeout=60)
        assert "Traceback" not in err and "Exception ignored" not in err, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--format", "json"],
            ["verify", "--alpha", "0.05"],
            ["verify", "--tol", "1e-3"],
            ["simulate", "--eta", "0.9", "--tol", "1e-3"],
            ["sweep", "--tol", "1e-3"],
            ["crossover", "--tol", "1e-3"],
            ["sweep", "--format", "text"],
        ],
    )
    def test_options_a_subcommand_ignores_are_refused(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()


class TestRowCap:
    @pytest.mark.parametrize("argv", [
        ["simulate", "--parties", "2..1000000000000", "--eta", "0.9"],
        ["sweep", "--parties", "2..1000000000000"],
        ["crossover", "--parties", "2..1000000000000"],
        ["sweep", "--radius-grid", "0:1e12:1"],
    ])
    def test_inputs_past_the_cap_exit_before_any_list(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"at most {cli.MAX_ROWS:,}" in err

    def test_sweep_rows_count_schemes_parties_and_radii(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ROWS", 6)
        code, out, _ = run(capsys, ["sweep", "--parties", "3..4", "--radius-grid", "0:0:1"])
        assert code == 0
        assert len(out.splitlines()) == 1 + 6
        code, out, err = run(capsys, ["sweep", "--parties", "3..4", "--radius-grid", "0:2:2"])
        assert code == 1
        assert out == ""
        assert err == "error: 12 rows requested; a table holds at most 6\n"
        code, _, err = run(capsys, ["crossover", "--parties", "2..8"])
        assert code == 1
        assert err == "error: 7 rows requested; a table holds at most 6\n"


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["crossover", "--parties", "7", "--alpha", "nan"],
            ["crossover", "--parties", "7", "--alpha", "inf"],
            ["sweep", "--radius-grid", "0:inf:1"],
        ],
    )
    def test_non_finite_input_is_rejected(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--radius", "nan"], "radius must be finite and non-negative, got nan"),
            (["--radius", "inf"], "radius must be finite and non-negative, got inf"),
            (["--radius", "10", "--alpha", "nan"],
             "attenuation must be finite and non-negative, got nan"),
            (["--radius", "10", "--alpha", "inf"],
             "attenuation must be finite and non-negative, got inf"),
            (["--eta", "0.5", "--alpha", "nan"],
             "attenuation must be finite and non-negative, got nan"),
            (["--eta", "0.5", "--alpha", "inf"],
             "attenuation must be finite and non-negative, got inf"),
            (["--eta", "0.5", "--alpha", "-1"],
             "attenuation must be finite and non-negative, got -1.0"),
        ],
    )
    def test_non_finite_geometry_names_its_field(self, capsys, flags, message):
        code, out, err = run(capsys, ["simulate", "--scheme", "sc", "--parties", "2"] + flags)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


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

    def test_no_herald_fails_as_simulate_does(self, capsys, tmp_path):
        # eta^2 underflows, so nothing heralds and h_eff is undefined: verify
        # refuses the case instead of writing NaN into its report
        target = tmp_path / "verify.json"
        code, out, err = run(capsys, ["verify", "--scheme", "sd", "--parties", "2",
                                      "--eta", "1e-100", "--out", str(target)])
        assert code == 1
        assert out == ""
        assert err == "error: heralding efficiency undefined: herald probability is zero\n"
        assert not target.exists()
        _, _, simulated = run(capsys, ["simulate", "--scheme", "sd", "--parties", "2",
                                       "--eta", "1e-100"])
        assert simulated == err

    def test_tiny_herald_rate_is_compared_relatively(self, capsys, tmp_path):
        # the design form gives p_hr ~ 4.4e-19 where the simulation gives 2.5e-19,
        # a gap that no absolute floor may hide
        target = tmp_path / "verify.json"
        code, _, _ = run(capsys, ["verify", "--scheme", "sc", "--parties", "3",
                                  "--eta", "0.001", "--out", str(target)])
        assert code == 1
        row = next(r for r in json.loads(target.read_text())["rows"] if r["metric"] == "p_hr")
        assert row["analytic"] < 1e-18 and row["simulated"] < 1e-18
        assert not row["passed"]
        assert row["note"].startswith("simulation matches (2 eta^2 - eta^4)^N / 2^(2N-1)")

    def test_subnormal_probabilities_fail_as_no_herald_does(self, capsys, tmp_path):
        # P_hr ~ 5.0e-321 keeps too few bits for h_eff, which would read 0.996 for bc
        target = tmp_path / "verify.json"
        for argv in (["simulate"], ["verify", "--out", str(target)]):
            code, out, err = run(capsys, argv + ["--scheme", "bc", "--parties", "2",
                                                 "--eta", "1e-80"])
            assert code == 1
            assert out == ""
            assert err == "error: heralding efficiency undefined: a probability is subnormal\n"
        assert not target.exists()

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
