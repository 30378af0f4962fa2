"""Command-line interface: artifacts, tables, exit codes, reproducibility."""

import io
import json
import logging
import math
import os
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simo_energy import cli
from simo_energy.cli import load_constellation_artifact, main
from helpers import time_cap


def run(args):
    return main(args)


def data_rows(path):
    """CSV rows below the comment block, header excluded."""
    lines = path.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    return body[0], body[1:]


class TestDesignCommand:
    def test_exact_two_levels(self, tmp_path):
        out = tmp_path / "design.json"
        code = run(
            [
                "design",
                "--out", str(out),
                "--channel.kind", "rayleigh",
                "--channel.gamma_dB", "10",
                "--design.method", "exact",
                "--design.L", "2",
            ]
        )
        assert code == 0
        record = json.loads(out.read_text())
        assert record["feasible"] is True
        assert record["levels"][0] == 0.0
        assert record["levels"][1] == pytest.approx(2.0, abs=1e-5)

    def test_min_distance_levels(self, tmp_path):
        out = tmp_path / "mindist.json"
        assert run(
            [
                "design",
                "--out", str(out),
                "--design.method", "mindist",
                "--design.L", "4",
                "--channel.gamma_dB", "10",
            ]
        ) == 0
        record = json.loads(out.read_text())
        assert record["levels"] == pytest.approx([0.0, 2 / 3, 4 / 3, 2.0])

    def test_robust_wide_noise_box_exits_2(self, tmp_path):
        out = tmp_path / "robust.json"
        code = run(
            [
                "design",
                "--out", str(out),
                "--channel.kind", "rayleigh",
                "--channel.gamma_dB", "0",
                "--design.method", "robust",
                "--design.L", "2",
                "--design.a_K_dB", "0",
                "--design.a_gamma_dB", "10",
            ]
        )
        assert code == 2
        record = json.loads(out.read_text())
        assert record["feasible"] is False
        # t = 1, then the downward bracket to the smallest normal float.
        assert record["iterations"] == 12

    @pytest.mark.parametrize("k_db", ["2000", "3000"])
    def test_a_huge_k_factor_designs(self, k_db, capsys):
        # (1 + K)^2 overflowed in alpha1 from K = 1541.3 dB on.
        code = run(["design", "--channel.kind", "rician", "--channel.K_dB", k_db])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True

    def test_low_snr_moments_design_is_feasible(self, capsys):
        # t* ~ 2.2e-7 lies far below the first exponent probed; the command
        # used to report this design infeasible and exit 2.
        code = run(
            [
                "design",
                "--channel.kind", "rayleigh",
                "--channel.gamma_dB", "-20",
                "--design.method", "moments",
                "--design.L", "16",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        record = json.loads(captured.out)
        assert record["feasible"] is True
        assert record["t_star"] == pytest.approx(2.19197e-7, rel=1e-6)
        assert captured.err == ""

    @pytest.mark.parametrize("method", ["exact", "moments"])
    @pytest.mark.parametrize(
        "args", [["--channel.gamma_dB", "-130"], ["--design.budget", "1e-14"]], ids=["-130dB", "1e-14"]
    )
    def test_a_tiny_total_snr_designs(self, method, args, capsys):
        # t* ~ 5.6e-28 lay below the old search range, eps * 2^-70 = 8.5e-28:
        # both exited 2 with "feasible": false.
        code = run(["design", "--design.method", method, "--design.L", "4", *args])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True

    @pytest.mark.parametrize(
        "args",
        [
            ["--channel.kind", "nakagami", "--channel.m", "1", "--channel.gamma_dB", "-1020",
             "--design.budget", "1e100"],
            ["--channel.kind", "rician", "--channel.K_dB", "0", "--channel.gamma_dB", "-1560",
             "--design.budget", "1e146"],
        ],
        ids=["nakagami-1e102", "rician-1e156"],
    )
    def test_a_huge_noise_power_designs(self, args, capsys):
        # Designs run in units of the noise power: the Nakagami saddle point
        # squared R * (A + sigma2) past float range, and the Rician inverse
        # rate reached an infinite deviation, both ending in a traceback.
        code = run(["design", "--design.L", "2", *args])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["feasible"] is True

    def test_artifact_round_trip(self, tmp_path):
        out = tmp_path / "artifact.json"
        run(
            [
                "design",
                "--out", str(out),
                "--channel.gamma_dB", "10",
                "--design.method", "exact",
                "--design.L", "4",
            ]
        )
        record = json.loads(out.read_text())
        con = load_constellation_artifact(str(out))
        assert list(con.levels) == record["levels"]
        assert list(con.boundaries) == record["boundaries"]


class TestConfigHandling:
    def test_malformed_json_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"channel": {')
        assert run(["design", "--config", str(bad)]) == 1
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [None, "directory", b"\xff\xfe", b'{"channel": {', b"[1, 2]"],
        ids=["missing", "directory", "not-utf8", "not-json", "array"],
    )
    def test_unreadable_config_names_the_field(self, content, tmp_path, capsys):
        # A directory and non-UTF-8 bytes used to end in a traceback.
        path = tmp_path / "cfg.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        assert run(["design", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config: {path}: ")
        assert "Traceback" not in err

    def test_unknown_field_exits_1(self, capsys):
        assert run(["design", "--channel.bogus", "1"]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "channel": {"kind": "rayleigh", "gamma_dB": 10.0},
                    "design": {"method": "mindist", "L": 2},
                }
            )
        )
        out = tmp_path / "out.json"
        assert run(
            ["design", "--config", str(cfg), "--out", str(out), "--design.L", "4"]
        ) == 0
        assert len(json.loads(out.read_text())["levels"]) == 4

    def test_missing_required_field(self, capsys):
        assert run(["design", "--channel.kind", "rician"]) == 1
        assert "K_dB" in capsys.readouterr().err

    def test_robust_a_dB_shorthand(self, tmp_path):
        out = tmp_path / "robust.json"
        code = run(
            [
                "design",
                "--out", str(out),
                "--channel.gamma_dB", "10",
                "--design.method", "robust",
                "--design.L", "4",
                "--design.a_dB", "1",
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["feasible"] is True

    @pytest.mark.parametrize(
        "args,field",
        [
            (["design", "--design.L", "1"], "design.L"),
            (["design", "--design.method", "mindist", "--design.L", "1"], "design.L"),
            (["simulate", "--design.method", "mindist", "--sim.n", "[0]"], "sim.n"),
            (["sweep-n", "--design.method", "mindist", "--sim.n", "[]"], "sim.n"),
            (["simulate", "--design.method", "mindist", "--sim.symbols", "10"], "sim.symbols"),
            (["simulate", "--design.method", "mindist", "--shards", "0"], "sim.shards"),
            (
                ["simulate", "--design.method", "mindist", "--sim.scheme", "pilot_pam",
                 "--sim.T", "4", "--sim.T_l", "4"],
                "sim.T_l",
            ),
            (
                ["simulate", "--design.method", "mindist", "--design.L", "3",
                 "--sim.scheme", "pilot_pam", "--sim.T", "4", "--sim.T_l", "1"],
                "design.L",
            ),
            (["design", "--channel.kind", "nakagami", "--channel.m", "0"], "channel.m"),
            (["histogram", "--design.method", "mindist", "--sim.bins", "0"], "sim.bins"),
            (["histogram", "--design.method", "mindist", "--sim.trials", "-5"], "sim.trials"),
            # One trial has no sample variance: it used to print two RuntimeWarnings.
            (["histogram", "--design.method", "mindist", "--sim.trials", "1"], "sim.trials"),
            (["histogram", "--design.method", "mindist", "--seed", "-1"], "sim.seed"),
            # Sizes whose arrays would not fit in memory: numpy used to raise
            # "Maximum allowed size exceeded" or "... dimension exceeded".
            (["histogram", "--design.method", "mindist", "--sim.bins", "1e20"], "sim.bins"),
            (["histogram", "--design.method", "mindist", "--sim.bins", "1e308"], "sim.bins"),
            (["histogram", "--design.method", "mindist", "--sim.trials", "1e20"], "sim.trials"),
            (["histogram", "--design.method", "mindist", "--sim.trials", "1e308"], "sim.trials"),
            # An L or a symbol budget that used to fill memory or run without end.
            (["design", "--design.method", "mindist", "--design.L", "1e20"], "design.L"),
            (["sweep-n", "--design.method", "ask", "--design.L", "1e20"], "design.L"),
            (["histogram", "--design.method", "mindist", "--design.L", "3000"], "design.L"),
            (["simulate", "--design.method", "mindist", "--sim.symbols", "1e20"], "sim.symbols"),
            (["sweep-n", "--design.method", "mindist", "--sim.symbols", "1e308"], "sim.symbols"),
            (["min-antennas", "--design.method", "mindist", "--sim.target_ber", "0.7"],
             "sim.target_ber"),
            (["min-antennas", "--design.method", "mindist", "--sim.target_ber", "0"],
             "sim.target_ber"),
            (["min-antennas", "--design.method", "mindist", "--sim.target_ber", "low"],
             "sim.target_ber"),
            (["min-antennas", "--design.method", "mindist", "--sim.target_ber", "[0.1]"],
             "sim.target_ber"),
            (["min-antennas", "--design.method", "mindist", "--sim.n_max", "0"], "sim.n_max"),
            (["min-antennas", "--design.method", "mindist", "--sim.n_max", "many"], "sim.n_max"),
            # Integer fields take whole numbers.
            (["simulate", "--design.method", "mindist", "--sim.n", "2.7"], "sim.n"),
            (["simulate", "--design.method", "mindist", "--sim.n", "[100, 2.7]"], "sim.n"),
            (["design", "--design.L", "4.6"], "design.L"),
            (["histogram", "--design.method", "mindist", "--sim.bins", "12.9"], "sim.bins"),
            (["simulate", "--design.method", "mindist", "--sim.symbols", "2000.5"], "sim.symbols"),
            (["simulate", "--design.method", "mindist", "--seed", "abc"], "sim.seed"),
            (["simulate", "--design.method", "mindist", "--format", "xml"], "output.format"),
            # The setter knows the config's shape, from flags and files alike.
            (["simulate", "--design.method", "mindist", "--sim.true.Kdb", "3"], "sim.true.Kdb"),
            (["design", "--channel.foo.bar", "1"], "channel.foo.bar"),
            (["design", "--config", {"channel": 5}], "channel"),
            (["design", "--config", {"channel.kind": "rician"}], "channel.kind"),
            (["simulate", "--design.method", "mindist", "--config", {"sim": {"true": {"Kdb": 3}}}],
             "sim.true.Kdb"),
            # Every channel has unit power, so omega is no field.
            (["design", "--channel.kind", "nakagami", "--channel.m", "2", "--channel.omega", "2",
              "--design.method", "moments"], "channel.omega"),
            (["design", "--channel.kind", "nakagami", "--channel.m", "2", "--channel.omega", "1"],
             "channel.omega"),
            (["evaluate", "--artifact", {"levels": [0.0, 1.0], "sigma2_design": 0.1,
                                         "boundaries": [0.5]},
              "--channel.kind", "nakagami", "--channel.m", "2", "--channel.omega", "2"],
             "channel.omega"),
            (["histogram", "--design.method", "mindist", "--channel.kind", "nakagami",
              "--channel.m", "2", "--sim.true.omega", "2"], "sim.true.omega"),
            (["design", "--channel.kind", "nakagami", "--channel.m", "inf"], "channel.m"),
            (["simulate", "--design.method", "mindist", "--channel.kind", "nakagami",
              "--channel.m", "inf"], "channel.m"),
            # A shape below the smallest normal float made alpha1 = 1/m infinite:
            # robust designs hung, moments ones ended in a traceback, and exact
            # ones answered infeasible.
            (["design", "--design.method", "robust", "--channel.kind", "nakagami",
              "--channel.m", "5e-324", "--design.a_dB", "1"], "channel.m"),
            (["design", "--design.method", "moments", "--channel.kind", "nakagami",
              "--channel.m", "5e-324"], "channel.m"),
            (["design", "--design.method", "exact", "--channel.kind", "nakagami",
              "--channel.m", "5e-324"], "channel.m"),
            # Shapes past the design's alpha1 bound or NakagamiReal's m bound: these
            # answered infeasible, ended in brentq's RuntimeError or, under simulate,
            # gave a row from an overflowed Gamma(n*m) shape.
            *[(["design", "--design.method", method, "--channel.kind", "nakagami",
                "--channel.m", m], "channel.m")
              for method in ("exact", "moments") for m in ("1e-300", "1e-50", "1e13", "1e20", "1e308")],
            (["design", "--design.method", "robust", "--channel.kind", "nakagami",
              "--channel.m", "1e-300", "--design.a_dB", "1"], "channel.m"),
            (["simulate", "--design.method", "mindist", "--channel.kind", "nakagami",
              "--channel.m", "1e308", "--sim.symbols", "2000"], "channel.m"),
            # Levels too close together for the noise power to resolve.
            (["design", "--channel.gamma_dB", "-200"], "design.budget"),
            (["simulate", "--design.method", "mindist", "--sim.true.kind", "nakagami",
              "--sim.true.m", "0"], "sim.true.m"),
            (["simulate", "--design.method", "mindist", "--sim.scheme", "noncoherent_ml",
              "--sim.assumed.kind", "nakagami", "--sim.assumed.m", "-1"], "sim.assumed.m"),
            (["simulate", "--design.method", "mindist", "--sim.scheme", "noncoherent_ml",
              "--sim.assumed.kind", "nakagami"], "sim.assumed.m"),
            (["simulate", "--design.method", "mindist", "--sim.true.kind", "rician"],
             "sim.true.K_dB"),
            (["simulate", "--design.method", "mindist", "--sim.assumed.gamma_dB", "inf"],
             "sim.assumed.gamma_dB"),
            (["simulate", "--design.method", "mindist", "--sim.true.kind", "awgn"],
             "sim.true.kind"),
            (["design", "--channel.gamma_dB", "abc"], "channel.gamma_dB"),
            # JSON true and false are not numbers: they used to be read as 1.0 and 0.0.
            (["design", "--channel.gamma_dB", "true"], "channel.gamma_dB"),
            (["design", "--channel.kind", "rician", "--channel.K_dB", "false"], "channel.K_dB"),
            (["design", "--channel.kind", "nakagami", "--channel.m", "true"], "channel.m"),
            (["design", "--design.budget", "true"], "design.budget"),
            # design.eps is no field: it steered nothing.
            (["design", "--design.eps", "true"], "design.eps"),
            (["design", "--design.method", "robust", "--design.a_dB", "true"], "design.a_dB"),
            (["design", "--design.method", "robust", "--channel.kind", "rician", "--channel.K_dB",
              "0", "--design.a_dB", "1", "--design.a_K_dB", "false"], "design.a_K_dB"),
            (["design", "--design.method", "robust", "--design.a_dB", "1",
              "--design.a_gamma_dB", "true"], "design.a_gamma_dB"),
            (["simulate", "--design.method", "mindist", "--sim.true.gamma_dB", "true"],
             "sim.true.gamma_dB"),
            (["simulate", "--design.method", "mindist", "--sim.scheme", "noncoherent_ml",
              "--sim.assumed.gamma_dB", "false"], "sim.assumed.gamma_dB"),
            (["simulate", "--design.method", "mindist", "--sim.true.kind", "rician",
              "--sim.true.K_dB", "true"], "sim.true.K_dB"),
            (["simulate", "--design.method", "mindist", "--sim.scheme", "pilot_pam",
              "--design.L", "2", "--sim.T", "2", "--sim.T_l", "1", "--sim.pilot_power", "true"],
             "sim.pilot_power"),
            (["min-antennas", "--design.method", "mindist", "--sim.target_ber", "true"],
             "sim.target_ber"),
            (["design", "--channel.kind", "rician", "--channel.K_dB", "abc"], "channel.K_dB"),
            # A K-factor is -inf, +inf or in [-3000, 3000] dB: NaN statistics
            # used to give a silent SER or a traceback.
            (["design", "--channel.kind", "rician", "--channel.K_dB", "nan"], "channel.K_dB"),
            (["design", "--channel.kind", "rician", "--channel.K_dB", "3500"], "channel.K_dB"),
            (["simulate", "--design.method", "mindist", "--channel.kind", "rician",
              "--channel.K_dB", "nan"], "channel.K_dB"),
            (["simulate", "--design.method", "mindist", "--sim.true.kind", "rician",
              "--sim.true.K_dB", "nan"], "sim.true.K_dB"),
            # An SNR whose noise power overflows or underflows in floating point.
            (["design", "--channel.gamma_dB", "-4000"], "channel.gamma_dB"),
            (["design", "--channel.gamma_dB", "4000"], "channel.gamma_dB"),
            (["design", "--channel.gamma_dB", "1e308"], "channel.gamma_dB"),
            (["simulate", "--design.method", "mindist", "--channel.gamma_dB", "4000"],
             "channel.gamma_dB"),
            (["simulate", "--design.method", "mindist", "--sim.true.gamma_dB", "-4000"],
             "sim.true.gamma_dB"),
            # A coherence block longer than the symbol budget.
            (["simulate", "--design.method", "mindist", "--sim.scheme", "pilot_pam",
              "--design.L", "2", "--sim.T", "5000", "--sim.symbols", "2000"], "sim.symbols"),
            (["min-antennas", "--design.method", "mindist", "--sim.scheme", "pilot_pam",
              "--design.L", "2", "--sim.T", "5000", "--sim.symbols", "2000"], "sim.symbols"),
            # Only a Rician channel with a finite K has a K-factor to widen;
            # elsewhere a_K_dB used to be ignored.
            (["design", "--design.method", "robust", "--channel.kind", "nakagami",
              "--channel.m", "2", "--design.a_K_dB", "5", "--design.a_gamma_dB", "0"],
             "design.a_K_dB"),
            (["design", "--design.method", "robust", "--design.a_K_dB", "1",
              "--design.a_gamma_dB", "0"], "design.a_K_dB"),
            (["design", "--design.method", "robust", "--channel.kind", "rician",
              "--channel.K_dB", "inf", "--design.a_K_dB", "1", "--design.a_gamma_dB", "0"],
             "design.a_K_dB"),
            # Robust half-widths, each named by its own field.
            (["design", "--design.method", "robust", "--design.a_dB", "abc"], "design.a_dB"),
            (["design", "--design.method", "robust", "--design.a_dB", "[1]"], "design.a_dB"),
            (["design", "--design.method", "robust", "--design.a_dB", "1",
              "--design.a_K_dB", "abc"], "design.a_K_dB"),
            (["design", "--design.method", "robust", "--design.a_gamma_dB", "[1]",
              "--design.a_K_dB", "1"], "design.a_gamma_dB"),
            (["design", "--design.method", "robust", "--design.a_dB", "nan"], "design.a_dB"),
            (["design", "--design.method", "robust", "--design.a_dB", "1e308"], "design.a_dB"),
            (["design", "--design.method", "robust", "--channel.kind", "rician", "--channel.K_dB",
              "0", "--design.a_dB", "1", "--design.a_K_dB", "1e308"], "design.a_K_dB"),
            # Pilot-PAM fields, each named by its own field.
            (["simulate", "--design.method", "mindist", "--sim.scheme", "pilot_pam",
              "--design.L", "2", "--sim.T", "2", "--sim.pilot_power", "abc"], "sim.pilot_power"),
            (["simulate", "--design.method", "mindist", "--sim.scheme", "pilot_pam",
              "--design.L", "2", "--sim.T", "2", "--sim.T_l", "1", "--sim.pilot_power", "-1"],
             "sim.pilot_power"),
            (["simulate", "--design.method", "mindist", "--sim.scheme", "pilot_pam",
              "--design.L", "2", "--sim.T", "2", "--sim.T_l", "1", "--sim.pilot_power", "inf"],
             "sim.pilot_power"),
            (["simulate", "--design.method", "mindist", "--sim.scheme", "pilot_pam",
              "--design.L", "2", "--sim.T", "2.5"], "sim.T"),
            # Paths from a config file must be strings.
            (["evaluate", "--config", {"artifact": 1}], "artifact"),
            (["simulate", "--design.method", "mindist", "--config", {"output": {"path": 1}}],
             "output.path"),
            # An empty or unwritable path names its field too.
            (["simulate", "--design.method", "mindist", "--artifact", "", "--sim.symbols", "2000"],
             "artifact"),
            (["evaluate", "--artifact", ""], "artifact"),
            # Level-only artifacts need finite levels and noise power: the
            # likelihood receivers used to simulate NaN or infinite levels.
            (["simulate", "--artifact", {"levels": [0.0, math.nan, 2.0], "sigma2_design": 0.1,
                                         "boundaries": None},
              "--sim.scheme", "noncoherent_ml", "--sim.symbols", "2000"], "artifact"),
            (["simulate", "--artifact", {"levels": [0.0, 1.0, math.inf], "sigma2_design": 0.1,
                                         "boundaries": None},
              "--sim.scheme", "ask_energy_ml", "--sim.symbols", "2000"], "artifact"),
            (["simulate", "--artifact", {"levels": [0.0, 1.0, 2.0], "sigma2_design": math.inf,
                                         "boundaries": None},
              "--sim.scheme", "noncoherent_ml", "--sim.symbols", "2000"], "artifact"),
            # Levels whose assumed variances sigma_h2 * p + sigma2 tie have no
            # zero-mean likelihood crossing: it divided by zero.
            (["simulate", "--artifact", {"levels": [0.0, 1e-300], "sigma2_design": 0.1,
                                         "boundaries": None},
              "--sim.scheme", "noncoherent_ml", "--sim.symbols", "2000"], "artifact"),
            (["min-antennas", "--artifact", {"levels": [0.0, 1e-300], "sigma2_design": 0.1,
                                             "boundaries": None},
              "--sim.scheme", "ask_energy_ml", "--sim.symbols", "2000"], "artifact"),
            (["sweep-n", "--artifact", {"levels": [0.0, 1e-300], "sigma2_design": 0.1,
                                        "boundaries": None},
              "--sim.scheme", "noncoherent_ml", "--sim.symbols", "2000"], "artifact"),
            # JSON true and false are not numbers in an artifact either: levels
            # (0.0, true) used to be evaluated as (0.0, 1.0).
            (["evaluate", "--artifact", {"levels": [0.0, True], "sigma2_design": 0.1,
                                         "boundaries": [0.6]}], "artifact"),
            (["evaluate", "--artifact", {"levels": [0.0, 1.0], "sigma2_design": True,
                                         "boundaries": [1.5]}], "artifact"),
            (["design", "--design.method", "mindist", "--out", ""], "output.path"),
            (["design", "--design.method", "mindist", "--out", "/nonexistent/dir/x.json"],
             "output.path"),
            (["design", "--design.method", "mindist", "--config", {"output": {"path": ""}}],
             "output.path"),
            # The design search needs a finite budget.
            (["design", "--design.method", "robust", "--design.a_dB", "1", "--design.budget",
              "1e999999"], "design.budget"),
            (["design", "--design.L", "2", "--design.budget", "1e999999"], "design.budget"),
            # design.eps is no field, whatever its value.
            (["design", "--design.L", "2", "--design.eps", "1e999"], "design.eps"),
            # A robust design needs its half-widths.
            (["design", "--design.method", "robust"], "design.a_dB"),
            # Only a feasible design can be simulated.
            (["simulate", "--design.L", "2", "--design.method", "robust", "--design.a_K_dB", "0",
              "--design.a_gamma_dB", "10", "--channel.gamma_dB", "0"], "design.method"),
            # design.eps is no field, whatever its value.
            (["design", "--design.L", "2", "--design.eps", "1e300"], "design.eps"),
            (["design", "--design.L", "2", "--design.eps", "1e-320"], "design.eps"),
            # Levels up to L * budget must square without overflow.
            (["design", "--design.method", "robust", "--design.a_dB", "1", "--design.budget",
              "1e300"], "design.budget"),
            # Above a total SNR L * budget / sigma2 of 1e9 the design search
            # reached its caps or failed to bracket a rate inverse.
            (["design", "--channel.kind", "nakagami", "--channel.m", "0.6", "--design.budget",
              "1e100", "--design.L", "16"], "design.budget"),
            (["design", "--channel.kind", "nakagami", "--channel.m", "0.6", "--design.budget",
              "1e100", "--design.L", "4"], "design.budget"),
            (["design", "--design.L", "2", "--channel.gamma_dB", "90"], "design.budget"),
            (["design", "--design.method", "moments", "--design.budget", "1e9"], "design.budget"),
            (["design", "--design.method", "robust", "--design.a_dB", "1", "--design.budget",
              "1e9"], "design.budget"),
            # One coherence block's antenna draws must fit in one logical block of
            # 2^18: n = 1e308 overflowed to infinite statistics, and the others filled
            # memory.
            (["simulate", "--design.method", "mindist", "--sim.symbols", "2000", "--sim.n",
              "1e308"], "sim.n"),
            (["simulate", "--design.method", "mindist", "--channel.kind", "nakagami",
              "--channel.m", "2", "--sim.scheme", "noncoherent_ml", "--sim.n", "1e9",
              "--sim.symbols", "2000"], "sim.n"),
            (["simulate", "--design.method", "mindist", "--channel.kind", "nakagami",
              "--channel.m", "2", "--sim.scheme", "pilot_pam", "--design.L", "2", "--sim.T", "2",
              "--sim.T_l", "1", "--sim.n", "1e9", "--sim.symbols", "2000"], "sim.n"),
            (["simulate", "--design.method", "mindist", "--sim.scheme", "pilot_pam", "--design.L",
              "2", "--sim.T", "1e9", "--sim.T_l", "1", "--sim.symbols", "1e9"], "sim.T"),
            (["min-antennas", "--design.method", "mindist", "--sim.n_max", "1e9"], "sim.n_max"),
            # An artifact above the L cap of designs used to build L x L tables.
            (["simulate", "--artifact", {"levels": [2.0 * k / 2999 for k in range(3000)],
                                         "sigma2_design": 0.1,
                                         "boundaries": [(2.0 * k - 1.0) / 2999 + 0.1
                                                        for k in range(1, 3000)]},
              "--sim.symbols", "2000", "--sim.n", "[16]"], "artifact"),
        ],
    )
    def test_bad_value_names_its_field(self, args, field, tmp_path, capsys):
        # A dict in args stands for a JSON file with that content.
        args = list(args)
        for i, arg in enumerate(args):
            if isinstance(arg, dict):
                path = tmp_path / f"arg{i}.json"
                path.write_text(json.dumps(arg))
                args[i] = str(path)
        with time_cap(CASE_SECONDS):
            code = run(args)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize(
        "args",
        [
            # design reads no sim field, so a value there that simulate would refuse passes.
            ["design", "--sim.seed", "abc"],
            # Pilot PAM reads design.L alone, so a design it would not use is not
            # run: these exited 1 on design.budget (-140 dB) and design.a_dB.
            *[["simulate", "--sim.scheme", "pilot_pam", "--sim.T", "2", "--sim.T_l", "1",
               "--design.L", "4", *method, "--channel.gamma_dB", "-140", "--sim.symbols", "2000"]
              for method in ([], ["--design.method", "robust"])],
        ],
        ids=["design-sim.seed", "pilot_pam-exact", "pilot_pam-robust"],
    )
    def test_a_field_the_command_does_not_read_is_not_checked(self, args, capsys):
        assert run(args) == 0

    # The field each command names for a constellation without decoding regions,
    # by where the constellation came from; None where the command succeeds.
    REGION_FREE_FIELDS = {
        "design": {"design.method": None, "artifact": None},
        "evaluate": {"design.method": "artifact", "artifact": "artifact"},
        "simulate": {"design.method": "sim.scheme", "artifact": "sim.scheme"},
        "sweep-n": {"design.method": "sim.scheme", "artifact": "sim.scheme"},
        "min-antennas": {"design.method": "sim.scheme", "artifact": "sim.scheme"},
        "histogram": {"design.method": "design.method", "artifact": "artifact"},
    }

    @pytest.mark.parametrize("source", ["design.method", "artifact"])
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_a_constellation_without_regions_names_its_field(
        self, command, source, tmp_path, capsys
    ):
        # An ASK design has levels only; energy-region decoding and its bounds
        # used to end in a traceback on simulate, sweep-n, min-antennas and evaluate.
        if source == "artifact":
            art = tmp_path / "ask.json"
            assert run(["design", "--design.method", "ask", "--out", str(art)]) == 0
            capsys.readouterr()
            args = ["--artifact", str(art)]
        else:
            args = ["--design.method", "ask"]
        code = run([command, *args, "--sim.symbols", "2000", "--out", str(tmp_path / "out")])
        field = self.REGION_FREE_FIELDS[command][source]
        assert code == (0 if field is None else 1)
        if field is not None:
            assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize(
        "command,config",
        [
            ("evaluate", {"artifact": 1}),
            ("simulate", {"artifact": False}),
            ("simulate", {"output": {"path": 1}}),
        ],
    )
    def test_non_string_path_opens_nothing(self, command, config, tmp_path, capsys):
        # A number would otherwise be opened as a file descriptor.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run([command, "--design.method", "mindist", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "must be a path or null" in err

    @pytest.mark.parametrize(
        "args,message",
        [
            ([], "the command comes first"),
            (["bogus"], "the command comes first"),
            (["--seed", "3", "design"], "the command comes first"),
            (["design", "stray"], "unrecognized argument 'stray'"),
            (["design", "--design.L"], "missing value for '--design.L'"),
            (["design", "--seed"], "missing value for '--seed'"),
            (["design", "--bogus", "1"], "unrecognized argument '--bogus'"),
            (["design", "--conf", "cfg.json"], "unrecognized argument '--conf'"),
        ],
    )
    def test_usage_error_exits_1(self, args, message, capsys):
        assert run(args) == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("args", [["--help"], ["-h"], ["design", "--help"]])
    def test_help_exits_0(self, args, capsys):
        assert run(args) == 0
        assert capsys.readouterr().out.startswith("Command-line front end")

    def test_config_file_and_flags_write_the_same_bytes(self, tmp_path):
        settings = {
            "channel": {"kind": "rician", "K_dB": 0, "gamma_dB": 10},
            "design": {"method": "mindist", "L": 4},
            "sim": {"n": [20, 40], "symbols": 5000, "seed": 3, "true": {"gamma_dB": 8}},
            "output": {"format": "json"},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        flags = [
            "--channel.kind", "rician", "--channel.K_dB", "0", "--channel.gamma_dB", "10",
            "--design.method", "mindist", "--design.L", "4",
            "--sim.n", "[20, 40]", "--sim.symbols", "5000", "--seed", "3",
            "--sim.true.gamma_dB", "8", "--format", "json",
        ]
        assert run(["sweep-n", "--config", str(cfg), "--out", str(tmp_path / "a.json")]) == 0
        assert run(["sweep-n", *flags, "--out", str(tmp_path / "b.json")]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize(
        "flags,seed",
        [(["--seed", "3", "--sim.seed", "4"], 4), (["--sim.seed", "4", "--seed", "3"], 3)],
    )
    def test_shorthand_resolves_by_position(self, flags, seed, tmp_path):
        out = tmp_path / "sim.csv"
        args = ["simulate", "--design.method", "mindist", "--sim.symbols", "1e5", *flags]
        assert run(args + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert f"# seed: {seed}" in lines
        assert lines[-1].split(",")[-2:] == ["100000", str(seed)]

    @pytest.mark.parametrize("command", ["simulate", "sweep-n", "evaluate"])
    def test_missing_artifact_file_names_the_field(self, command, tmp_path, capsys):
        assert run([command, "--artifact", str(tmp_path / "nope.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: artifact: ")
        assert "nope.json" in err

    @pytest.mark.parametrize(
        "content",
        [
            "{not json",
            '{"foo": 1}',
            "[1, 2]",
            '{"levels": 3}',
            '{"feasible": false, "levels": [0, 1], "sigma2_design": 0.1}',
        ],
    )
    def test_malformed_artifact_names_the_field(self, content, tmp_path, capsys):
        artifact = tmp_path / "bad.json"
        artifact.write_text(content)
        assert run(["evaluate", "--artifact", str(artifact)]) == 1
        assert capsys.readouterr().err.startswith("config error: artifact: ")


class TestEvaluateCommand:
    def test_two_level_bound_is_exponential(self, tmp_path):
        artifact = tmp_path / "a.json"
        run(
            [
                "design",
                "--out", str(artifact),
                "--channel.gamma_dB", "10",
                "--design.method", "exact",
                "--design.L", "2",
            ]
        )
        t_star = json.loads(artifact.read_text())["t_star"]
        out = tmp_path / "eval.csv"
        code = run(
            [
                "evaluate",
                "--artifact", str(artifact),
                "--out", str(out),
                "--channel.gamma_dB", "10",
                "--sim.n", "[25, 50, 100]",
            ]
        )
        assert code == 0
        header, rows = data_rows(out)
        assert header.split(",")[:3] == ["n", "chernoff_bound", "error_exponent"]
        bounds = [float(r.split(",")[1]) for r in rows]
        exps = [float(r.split(",")[2]) for r in rows]
        for n, bound in zip((25, 50, 100), bounds):
            assert bound == pytest.approx(math.exp(-n * t_star), rel=1e-6)
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))
        for i_e in exps:
            assert i_e == pytest.approx(t_star, abs=1e-8)

    def test_missing_artifact_exits_1(self, tmp_path, capsys):
        assert run(["evaluate", "--artifact", str(tmp_path / "nope.json")]) == 1


class TestSimulationCommands:
    def test_sweep_rows_and_determinism(self, tmp_path):
        args = [
            "sweep-n",
            "--channel.gamma_dB", "0",
            "--design.method", "exact",
            "--design.L", "4",
            "--sim.n", "[25, 50, 100]",
            "--sim.symbols", "20000",
            "--seed", "5",
        ]
        outs = []
        for shards in (1, 4, 16):
            out = tmp_path / f"sweep{shards}.csv"
            assert run(args + ["--shards", str(shards), "--out", str(out)]) == 0
            outs.append(data_rows(out))
        header, rows1 = outs[0]
        assert header.split(",")[0] == "n"
        sers = [float(r.split(",")[1]) for r in rows1]
        assert all(b < a for a, b in zip(sers, sers[1:]))
        for _, rows in outs[1:]:
            assert rows == rows1

    def test_simulate_single_row_json(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run(
            [
                "simulate",
                "--channel.gamma_dB", "0",
                "--design.L", "2",
                "--sim.n", "[50]",
                "--sim.symbols", "10000",
                "--format", "json",
                "--out", str(out),
            ]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["sim"]["n"] == [50]
        assert len(payload["rows"]) == 1
        assert 0 <= payload["rows"][0]["ser"] <= 1

    @pytest.mark.parametrize(
        "levels, gamma_db, max_ser",
        [
            ([0.0, 1e10], "3000", 0.0),
            ([0.0, 1e10], "3200", 0.0),
            ([0.0, 1.0], "3000", 0.0),
            ([0.0, 1.0], "3200", 0.0),
            # Subnormal variances 1e-320 and 2e-320, whose crossing was refused;
            # the ML SER at n = 100 is 2.8e-4.
            ([0.0, 1e-320], "3200", 1e-3),
        ],
    )
    @pytest.mark.parametrize("scheme", ["noncoherent_ml", "ask_energy_ml"])
    def test_zero_mean_ml_decides_at_extreme_noise(
        self, levels, gamma_db, max_ser, scheme, tmp_path
    ):
        # At sigma2 1e-300 and 1e-320 every symbol is told apart.  The
        # crossing read inf or nan, which decided one level for every symbol.
        artifact = tmp_path / "levels.json"
        artifact.write_text(
            json.dumps({"levels": levels, "sigma2_design": 0.1, "boundaries": None})
        )
        out = tmp_path / "sim.csv"
        assert run(
            [
                "simulate", "--artifact", str(artifact), "--sim.scheme", scheme,
                "--channel.gamma_dB", gamma_db, "--sim.symbols", "20000", "--out", str(out),
            ]
        ) == 0
        _, rows = data_rows(out)
        n, ser, ber = rows[0].split(",")[:3]
        assert n == "100" and float(ser) <= max_ser and float(ber) <= max_ser

    def test_min_antennas_not_reached_is_data(self, tmp_path):
        out = tmp_path / "minant.csv"
        code = run(
            [
                "min-antennas",
                "--channel.kind", "rayleigh",
                "--channel.gamma_dB", "10",
                "--design.L", "2",
                "--sim.scheme", "pilot_pam",
                "--sim.T", "2",
                "--sim.T_l", "0",
                "--sim.symbols", "5000",
                "--sim.n_max", "64",
                "--out", str(out),
            ]
        )
        assert code == 0
        _, rows = data_rows(out)
        scheme, rate, n_star = rows[0].split(",")
        assert scheme == "pilot_pam"
        assert float(rate) == pytest.approx(1.0)
        assert n_star == "NOT_REACHED"

    def test_min_antennas_energy_reaches(self, tmp_path):
        out = tmp_path / "minant2.csv"
        assert run(
            [
                "min-antennas",
                "--channel.gamma_dB", "10",
                "--design.method", "exact",
                "--design.L", "2",
                "--sim.symbols", "100000",
                "--sim.n_max", "2048",
                "--out", str(out),
            ]
        ) == 0
        _, rows = data_rows(out)
        n_star = int(rows[0].split(",")[2])
        assert 1 <= n_star <= 2048

    def test_min_antennas_debug_log_leaves_rows_alone(self, tmp_path, caplog):
        args = ["min-antennas", "--design.method", "mindist", "--design.L", "4",
                "--sim.symbols", "20000", "--sim.n_max", "256"]
        quiet, traced = tmp_path / "quiet.csv", tmp_path / "traced.csv"
        with caplog.at_level(logging.WARNING, logger="simo_energy"):
            assert run(args + ["--out", str(quiet)]) == 0
        assert not caplog.records
        with caplog.at_level(logging.DEBUG, logger="simo_energy"):
            assert run(args + ["--out", str(traced)]) == 0
        candidates = [r for r in caplog.records if "candidate n=" in r.getMessage()]
        assert candidates and caplog.records[-1].getMessage().startswith("min_antennas: ")
        assert traced.read_bytes() == quiet.read_bytes()

    def test_histogram_rows(self, tmp_path):
        out = tmp_path / "hist.csv"
        assert run(
            [
                "histogram",
                "--channel.gamma_dB", "10",
                "--design.method", "mindist",
                "--design.L", "4",
                "--sim.n", "[100]",
                "--sim.trials", "2000",
                "--sim.bins", "30",
                "--out", str(out),
            ]
        ) == 0
        header, rows = data_rows(out)
        kinds = {r.split(",")[0] for r in rows}
        assert kinds == {"hist", "boundary", "receiver_point"}
        hist_rows = [r for r in rows if r.startswith("hist")]
        assert len(hist_rows) == 4 * 30
        total = sum(int(r.split(",")[4]) for r in hist_rows)
        assert total <= 4 * 2000

    def test_histogram_takes_two_trials_without_warnings(self, tmp_path):
        # Two trials are the fewest that sim.trials takes: each level then has
        # a sample variance, where one trial printed two RuntimeWarnings.
        args = ["histogram", "--design.method", "mindist", "--sim.trials", "2",
                "--sim.n", "[4]", "--out", str(tmp_path / "hist.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 0

    def test_mismatch_override(self, tmp_path):
        # Designing for gamma=10 but running on gamma=7 must degrade SER.
        base = [
            "simulate",
            "--channel.gamma_dB", "10",
            "--design.L", "8",
            "--sim.n", "[100]",
            "--sim.symbols", "20000",
            "--format", "json",
        ]
        nominal = tmp_path / "nom.json"
        mismatched = tmp_path / "mis.json"
        assert run(base + ["--out", str(nominal)]) == 0
        assert run(base + ["--out", str(mismatched), "--sim.true.gamma_dB", "7"]) == 0
        ser_nom = json.loads(nominal.read_text())["rows"][0]["ser"]
        ser_mis = json.loads(mismatched.read_text())["rows"][0]["ser"]
        assert ser_mis > ser_nom


# Every leaf field of the config, as its dotted path.
LEAF_FIELDS = sorted(
    ".".join((*block, field))
    for block, fields in cli._FIELDS.items()
    for field in fields
    if (*block, field) not in cli._FIELDS
)
EDGE_VALUES = [
    "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1", "0", "0.5", "2.5", "3000",
    "1e20", "abc", "[]", "{}", "[1, 2]", "true", "null",
]
CASE_SECONDS = 10


@pytest.fixture(scope="module")
def edge_dir(tmp_path_factory):
    """A working directory holding a min-distance design artifact."""
    path = tmp_path_factory.mktemp("edges")
    assert main(["design", "--design.method", "mindist", "--out", str(path / "art.json")]) == 0
    return path


@settings(max_examples=600)
@given(
    command=st.sampled_from(list(cli._COMMANDS)),
    field=st.sampled_from(LEAF_FIELDS),
    value=st.sampled_from(EDGE_VALUES),
)
def test_every_field_survives_every_edge_value(edge_dir, command, field, value):
    """Each command, with one leaf field set to one edge value, exits 0, 1 or 2
    without a traceback, and an exit 1 names that field."""
    argv = [command]
    if field != "design.method":
        argv += ["--design.method", "mindist"]
    if field != "sim.symbols":
        argv += ["--sim.symbols", "2000"]
    if command == "evaluate" and field != "artifact":
        argv += ["--artifact", "art.json"]
    argv += [f"--{field}", value]
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(edge_dir)  # an output.path such as "abc" is written here
    try:
        with time_cap(CASE_SECONDS), redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith(f"config error: {field}: ")
