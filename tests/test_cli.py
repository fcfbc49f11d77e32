"""Command-line interface: output shape, JSON schemas, exit codes, file
artifacts, environment-controlled precision."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import gausskey
from gausskey.cli import cli

E_R_09_01 = 2.8384814092736977139


def _run(args, env=None):
    return CliRunner().invoke(cli, args, env=env)


def test_rates_text_output_pure_loss():
    result = _run(["rates", "--tau", "0.5", "--nbar", "0"])
    assert result.exit_code == 0
    assert "e_r    = 1" in result.output
    assert "r_rev  = 0.5" in result.output
    assert "class=C_att" in result.output
    assert "bound: K_rev >= E_R = 1 > 0" in result.output


def test_rates_text_no_bound_line_when_rate_zero():
    result = _run(["rates", "--tau", "-0.5", "--nbar", "0"])
    assert result.exit_code == 0
    assert "bound:" not in result.output


def test_rates_huge_temperature_has_no_false_bound():
    # g(1e300) is about 998 bits, so E_R = max(0, 1 - g) is zero; an entropy
    # that cancels to 0 at large nbar would report E_R = 1 here.
    result = _run(["rates", "--tau", "0.5", "--nbar", "1e300", "--json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["e_r"] == 0.0
    result = _run(["rates", "--tau", "0.5", "--nbar", "1e300"])
    assert result.exit_code == 0
    assert "bound:" not in result.output


def test_cli_import_skips_scipy_linalg():
    env = {**os.environ, "PYTHONPATH": str(Path(gausskey.__file__).resolve().parents[1])}
    probe = "import sys, gausskey.cli; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["gausskey", "gausskey.cli"])
def test_import_leaves_scipy_unloaded(module):
    # scipy.special loads only when simulate first runs.
    env = {**os.environ, "PYTHONPATH": str(Path(gausskey.__file__).resolve().parents[1])}
    probe = f"import sys, {module}; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_rates_json_schema_and_values():
    result = _run(["rates", "--tau", "0.5", "--nbar", "0", "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert set(payload) == {"tau", "nbar", "eps", "e_r", "q1g", "r_rev", "lambda", "w"}
    assert payload["e_r"] == 1.0
    assert payload["q1g"] == 0.0
    assert payload["r_rev"] == 0.5
    assert payload["lambda"] == 1.0
    assert payload["w"] == 1.0


def test_rates_accepts_eps_flag():
    by_nbar = json.loads(_run(["rates", "--tau", "0.5", "--nbar", "0.3", "--json"]).output)
    by_eps = json.loads(_run(["rates", "--tau", "0.5", "--eps", "0.3", "--json"]).output)
    assert by_eps["nbar"] == by_nbar["eps"] == 0.3
    assert by_eps["e_r"] == by_nbar["e_r"]


def test_rates_rejects_unit_transmission():
    result = _run(["rates", "--tau", "1", "--nbar", "0.1"])
    assert result.exit_code == 1
    assert "error: --tau: classes B1/B2 (tau=1) unsupported" in result.stderr


def test_rates_requires_exactly_one_noise_flag():
    both = _run(["rates", "--tau", "0.5", "--nbar", "0.1", "--eps", "0.1"])
    neither = _run(["rates", "--tau", "0.5"])
    assert both.exit_code == 2
    assert neither.exit_code == 2
    assert "exactly one of --nbar and --eps" in both.stderr


def test_rates_rejects_negative_temperature():
    result = _run(["rates", "--tau", "0.5", "--nbar", "-0.1"])
    assert result.exit_code == 1
    assert "--nbar" in result.stderr


def test_converge_text_table():
    result = _run(
        ["converge", "--tau", "0.9", "--nbar", "0.1", "--mu-list", "2,10,100", "--engine", "rci"]
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[1] == "mu value target gap"
    assert len(lines) == 5


def test_converge_json_rows():
    result = _run(
        ["converge", "--tau", "0.9", "--nbar", "0.1", "--mu-list", "2,10,100", "--json"]
    )
    payload = json.loads(result.output)
    assert set(payload) == {"tau", "nbar", "engine", "rows"}
    assert payload["engine"] == "rci"
    assert len(payload["rows"]) == 3
    for row in payload["rows"]:
        assert set(row) == {"mu", "value", "target", "gap"}
        assert abs(row["gap"] - (row["target"] - row["value"])) <= 1e-9
        assert abs(row["target"] - E_R_09_01) <= 1e-9
    assert payload["rows"][0]["gap"] > payload["rows"][2]["gap"]


def test_converge_rejects_malformed_mu_list():
    assert _run(["converge", "--tau", "0.9", "--nbar", "0.1", "--mu-list", ""]).exit_code == 2
    bad = _run(["converge", "--tau", "0.9", "--nbar", "0.1", "--mu-list", "2,abc"])
    assert bad.exit_code == 2
    assert "--mu-list" in bad.stderr


def test_converge_protocol_engine_domain_error():
    result = _run(
        ["converge", "--tau", "0.5", "--nbar", "0", "--mu-list", "0.5", "--engine", "protocol"]
    )
    assert result.exit_code == 1
    assert "--mu-list" in result.stderr


def test_verify_trusted_ports_match_closed_form():
    result = _run(
        ["verify", "--tau", "0.5", "--nbar", "0", "--mu", "1000", "--ports", "trusted", "--json"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert set(payload) == {
        "tau", "nbar", "mu", "ports", "numeric_rate", "closed_form", "abs_diff",
    }
    assert payload["closed_form"] == 0.5
    assert payload["abs_diff"] <= 1e-2


def test_verify_untrusted_ports_fall_short():
    trusted = json.loads(
        _run(["verify", "--tau", "0.5", "--nbar", "0", "--mu", "1000",
              "--ports", "trusted", "--json"]).output
    )
    untrusted = json.loads(
        _run(["verify", "--tau", "0.5", "--nbar", "0", "--mu", "1000",
              "--ports", "untrusted", "--json"]).output
    )
    assert untrusted["abs_diff"] > 0.05 > trusted["abs_diff"]


def test_verify_covers_channels_without_a_dilation():
    # Class A1 (tau = 0) gives no key: the finite-mu rate is negative, and
    # the closed form is 0.
    result = _run(["verify", "--tau", "0", "--nbar", "0.3", "--mu", "10", "--ports", "trusted",
                   "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["tau"] == 0.0 and payload["closed_form"] == 0.0
    assert payload["numeric_rate"] < 0.0
    assert payload["abs_diff"] == -payload["numeric_rate"]


def test_simulate_json_payload(tmp_path):
    args = ["simulate", "--tau", "0.5", "--nbar", "0", "--mu", "5", "--rounds", "400",
            "--seed", "42", "--mode", "memory"]
    result = _run(args)
    assert result.exit_code == 0
    payload = json.loads(result.output)
    for key in ("tau", "nbar", "mu", "rounds", "seed", "mode", "kept_rounds",
                "empirical_cov", "analytic_cov", "mi_empirical", "mi_analytic",
                "sift_ratio", "rng"):
        assert key in payload
    assert payload["sift_ratio"] == 1.0
    assert payload["kept_rounds"] == 400
    assert len(payload["empirical_cov"]) == 2
    # identical configuration, byte-identical output
    assert _run(args).output == result.output


def test_simulate_single_line_json():
    args = ["simulate", "--tau", "0.5", "--nbar", "0", "--mu", "5", "--rounds", "50",
            "--seed", "1", "--mode", "sifted", "--json"]
    result = _run(args)
    assert result.exit_code == 0
    assert "\n" not in result.output.strip()
    payload = json.loads(result.output)
    assert payload["mode"] == "sifted"
    assert 0 < payload["sift_ratio"] < 1


def test_simulate_writes_round_log(tmp_path):
    log = tmp_path / "rounds.csv"
    result = _run(["simulate", "--tau", "0.5", "--nbar", "0", "--mu", "5", "--rounds", "30",
                   "--seed", "3", "--mode", "memory", "--rounds-csv", str(log)])
    assert result.exit_code == 0
    lines = log.read_text().splitlines()
    assert lines[0] == "basis_b,basis_a,kept,x_a,x_b"
    assert len(lines) == 31


def test_simulate_flag_validation():
    base = ["simulate", "--tau", "0.5", "--nbar", "0", "--mu", "5", "--rounds", "10",
            "--seed", "0", "--mode", "memory"]
    for flag, value, named in [
        ("--tau", "1", "--tau"),
        ("--mu", "0.5", "--mu"),
        ("--rounds", "0", "--rounds"),
        ("--seed", "-1", "--seed"),
        ("--nbar", "-0.2", "--nbar"),
    ]:
        args = list(base)
        args[args.index(flag) + 1] = value
        result = _run(args)
        assert result.exit_code == 1
        assert named in result.stderr
    starved = _run(["simulate", "--tau", "0.5", "--nbar", "0", "--mu", "5", "--rounds", "1",
                    "--seed", "0", "--mode", "memory"])
    assert starved.exit_code == 1
    assert "rounds kept" in starved.stderr


def test_simulate_failed_run_leaves_no_round_log(tmp_path):
    log = tmp_path / "rounds.csv"
    result = _run(["simulate", "--tau", "0.5", "--nbar", "0", "--mu", "5", "--rounds", "1",
                   "--seed", "0", "--mode", "memory", "--rounds-csv", str(log)])
    assert result.exit_code == 1
    assert "rounds kept" in result.stderr
    assert not log.exists()


def test_simulate_run_failing_with_any_exception_leaves_no_round_log(tmp_path, monkeypatch):
    def failing_simulate(cfg, keep_rounds=False):
        raise RuntimeError("the run fails")

    monkeypatch.setattr(gausskey.cli, "simulate", failing_simulate)
    log = tmp_path / "rounds.csv"
    result = _run(["simulate", "--tau", "0.5", "--nbar", "0", "--mu", "5", "--rounds", "30",
                   "--seed", "3", "--mode", "memory", "--rounds-csv", str(log)])
    assert isinstance(result.exception, RuntimeError)
    assert not log.exists()


def test_thresholds_writes_csv_and_svg(tmp_path):
    csv_path = tmp_path / "curve.csv"
    svg_path = tmp_path / "curve.svg"
    result = _run(["thresholds", "--tau-min", "0.1", "--tau-max", "1.9", "--steps", "8",
                   "--out", str(csv_path), "--svg", str(svg_path)])
    assert result.exit_code == 0
    assert f"wrote 8 rows to {csv_path}" in result.output
    assert f"wrote plot to {svg_path}" in result.output
    assert "warning:" not in result.output
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "tau,eps_q,eps_r,eps_rev"
    assert len(lines) == 9
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") >= 3


def test_thresholds_svg_bytes_are_pinned(tmp_path):
    # A sweep across the excluded tau = 1 and through negative tau: each
    # curve is two polylines, one on each side of the gap.
    svg_path = tmp_path / "curve.svg"
    result = _run(["thresholds", "--tau-min", "-1.2", "--tau-max", "3", "--steps", "200",
                   "--out", str(tmp_path / "curve.csv"), "--svg", str(svg_path)])
    assert result.exit_code == 0
    svg = svg_path.read_bytes()
    assert svg.count(b"<polyline") == 6
    assert hashlib.sha256(svg).hexdigest() == (
        "cfbf8a1b21fb2b072c3d5f62795337050f6331f41d62c6c9005fe5d5d10a1113"
    )


def test_thresholds_svg_of_a_single_tau(tmp_path):
    # One row has no tau span; the plot widens it to tau +- 0.5.
    svg_path = tmp_path / "curve.svg"
    result = _run(["thresholds", "--tau-min", "0.5", "--tau-max", "0.5", "--steps", "1",
                   "--out", str(tmp_path / "curve.csv"), "--svg", str(svg_path)])
    assert result.exit_code == 0
    assert "wrote 1 rows to " in result.output
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert "<polyline" not in svg


def test_thresholds_flag_validation(tmp_path):
    out = str(tmp_path / "x.csv")
    for args, named in [
        (["--steps", "0", "--out", out], "--steps"),
        (["--tol", "0", "--out", out], "--tol"),
        (["--tau-min", "2", "--tau-max", "1", "--out", out], "--tau-min/--tau-max"),
    ]:
        result = _run(["thresholds"] + args)
        assert result.exit_code == 1
        assert named in result.stderr


def test_thresholds_rejects_an_overflowing_span(tmp_path):
    out = tmp_path / "x.csv"
    result = _run(["thresholds", "--tau-min", "-1e308", "--tau-max", "1e308", "--steps", "3",
                   "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: --tau-min/--tau-max: ")
    assert "Warning" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "1e-17"])
def test_thresholds_rejects_unreachable_tolerance(tmp_path, tol):
    out = tmp_path / "x.csv"
    args = ["thresholds", "--tau-min", "0.2", "--tau-max", "0.8", "--steps", "3"]
    result = _run(args + ["--tol", tol, "--out", str(out)])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: --tol: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_thresholds_unwritable_output_is_a_flag_error(tmp_path, flag):
    paths = {"--out": str(tmp_path / "x.csv"), "--svg": str(tmp_path / "x.svg")}
    paths[flag] = str(tmp_path / "missing" / "x")
    result = _run(["thresholds", "--tau-min", "0.2", "--tau-max", "0.8", "--steps", "3",
                   "--out", paths["--out"], "--svg", paths["--svg"]])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {flag}: cannot write ")
    assert "Traceback" not in result.stderr


def test_simulate_unwritable_round_log_fails_before_any_round(tmp_path, monkeypatch):
    runs = []
    monkeypatch.setattr("gausskey.cli.simulate", lambda *a, **k: runs.append(a))
    result = _run(["simulate", "--tau", "0.5", "--nbar", "0", "--mu", "5", "--rounds", "30",
                   "--seed", "3", "--mode", "memory",
                   "--rounds-csv", str(tmp_path / "missing" / "rounds.csv")])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: --rounds-csv: cannot write ")
    assert "Traceback" not in result.stderr
    assert runs == []


def test_classify_region_text():
    beats = _run(["classify", "--tau", "0.4", "--eps", "0.05"])
    assert beats.exit_code == 0
    assert "antidegradable; K_rev ≥ E_R > 0" in beats.output
    window = _run(["classify", "--tau", "0.4", "--eps", "0.2365"])
    assert "antidegradable; K_rev ≥ R_rev > 0" in window.output
    dead = _run(["classify", "--tau", "-0.5", "--eps", "0"])
    assert "all rate bounds zero" in dead.output


def test_classify_region_text_above_half_transmission():
    result = _run(["classify", "--tau", "0.8", "--eps", "0.1"])
    assert result.exit_code == 0
    assert "region: not antidegradable; E_R > 0; q1g > 0; R_rev > 0" in result.output
    window = _run(["classify", "--tau", "0.8", "--eps", "0.57"])
    assert "region: not antidegradable; R_rev > 0" in window.output


def test_json_keeps_non_finite_floats():
    from gausskey.cli import _jsonable

    out = _jsonable({"a": [math.inf, -math.inf], "b": math.nan, "c": 0.1234567}, 3)
    assert out["a"] == [math.inf, -math.inf]
    assert math.isnan(out["b"])
    assert out["c"] == 0.123


def test_classify_json_flags():
    payload = json.loads(_run(["classify", "--tau", "3", "--eps", "0", "--json"]).output)
    assert payload["antidegradable"] is False
    assert payload["e_r_positive"] is False
    assert payload["q1g_positive"] is True
    assert payload["r_rev_positive"] is False
    assert payload["reverse_beats_antidegradability"] is False
    assert "q1g > 0" in payload["region"]


def test_classify_flag_validation():
    assert _run(["classify", "--tau", "1", "--eps", "0.1"]).exit_code == 1
    result = _run(["classify", "--tau", "0.5", "--eps", "-0.1"])
    assert result.exit_code == 1
    assert "--eps" in result.stderr


def test_unknown_flag_is_usage_error():
    assert _run(["rates", "--tau", "0.5", "--nbar", "0", "--frobnicate"]).exit_code == 2


def test_precision_env_var_controls_json_digits():
    args = ["rates", "--tau", "0.9", "--nbar", "0.1", "--json"]
    coarse = json.loads(_run(args, env={"GAUSSKEY_PRECISION": "4"}).output)
    assert coarse["e_r"] == float(f"{E_R_09_01:.4g}")
    default = json.loads(_run(args, env={"GAUSSKEY_PRECISION": "not-a-number"}).output)
    assert default["e_r"] == float(f"{E_R_09_01:.12g}")
    assert math.isclose(default["e_r"], E_R_09_01, rel_tol=1e-11)


def test_version_flag():
    result = _run(["--version"])
    assert result.exit_code == 0
    assert "gausskey" in result.output


_SIMULATE = ["simulate", "--tau", "0.5", "--rounds", "10", "--seed", "0", "--mode", "memory"]


@pytest.mark.parametrize(
    "args, flag",
    [
        (["rates", "--tau", "0.5", "--nbar", "inf"], "--nbar"),
        (["rates", "--tau", "0.5", "--eps", "nan"], "--eps"),
        (["converge", "--tau", "0.5", "--nbar", "nan", "--mu-list", "10"], "--nbar"),
        (["verify", "--tau", "0.5", "--nbar", "inf", "--mu", "10", "--ports", "trusted"],
         "--nbar"),
        (_SIMULATE + ["--nbar", "inf", "--mu", "5"], "--nbar"),
        (_SIMULATE + ["--nbar", "0", "--mu", "nan"], "--mu"),
        (["rates", "--tau", "0.5", "--eps", "1e308", "--json"], "--eps"),
    ],
)
def test_domain_errors_name_the_flag_at_fault(args, flag):
    result = _run(args)
    assert result.exit_code == 1
    assert result.stderr.startswith(f"error: {flag}: ")
    assert result.stdout == ""


def test_missing_noise_flag_is_a_usage_error_at_unit_transmission():
    assert _run(["rates", "--tau", "1"]).exit_code == 2


def test_verify_refuses_rate_lost_to_cancellation():
    # at mu = 1e16 V_A|y reads 4.0 where it should be 3.2: the printed rate
    # would be 0.381 against a closed form of 0.263
    result = _run(["verify", "--tau", "0.5", "--nbar", "0.1", "--mu", "1e16", "--ports", "trusted"])
    assert result.exit_code == 1
    assert result.stderr.startswith("error: --tau/--mu: ")
    assert "float precision limit" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("mu", ["inf", "nan"])
def test_verify_rejects_non_finite_mu_without_a_warning(mu):
    # A separate process, so that a numpy RuntimeWarning would reach stderr
    # instead of the suite's warning filter.
    env = {**os.environ, "PYTHONPATH": str(Path(gausskey.__file__).resolve().parents[1])}
    args = ["verify", "--tau", "0.5", "--nbar", "0.1", "--mu", mu, "--ports", "trusted"]
    out = subprocess.run([sys.executable, "-m", "gausskey.cli", *args], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr == (
        f"error: --tau/--mu: source variance mu must be >= 1 and finite, got {mu}\n"
    )


def test_verify_reports_float_range_overflow_without_a_warning():
    # The untrusted port's homodyne update squares a cross entry of about
    # 3.9e154: a numpy RuntimeWarning once came before "covariance matrix has
    # non-finite entries".
    env = {**os.environ, "PYTHONPATH": str(Path(gausskey.__file__).resolve().parents[1])}
    args = ["verify", "--tau", "30", "--nbar", "0", "--mu", "1e154", "--ports", "untrusted"]
    out = subprocess.run([sys.executable, "-m", "gausskey.cli", *args], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("error: --tau/--mu: ")
    assert out.stderr.endswith("(float range limit)\n")
    assert out.stderr.count("\n") == 1


def test_rates_json_key_order():
    result = _run(["rates", "--tau", "0.9", "--nbar", "0.1", "--json"])
    assert list(json.loads(result.output)) == [
        "tau", "nbar", "eps", "e_r", "q1g", "r_rev", "lambda", "w",
    ]


def test_classify_json_key_order():
    result = _run(["classify", "--tau", "0.4", "--eps", "0.1", "--json"])
    assert list(json.loads(result.output)) == [
        "tau",
        "eps",
        "antidegradable",
        "e_r_positive",
        "q1g_positive",
        "r_rev_positive",
        "reverse_beats_antidegradability",
        "region",
    ]


def test_classify_text_layout():
    result = _run(["classify", "--tau", "0.4", "--eps", "0.1"])
    assert result.exit_code == 0
    assert result.output.splitlines() == [
        "tau=0.4 eps=0.1",
        "antidegradable                  = True",
        "e_r_positive                    = True",
        "q1g_positive                    = False",
        "r_rev_positive                  = True",
        "reverse_beats_antidegradability = True",
        "region: antidegradable; K_rev ≥ E_R > 0",
    ]


def test_converge_json_key_order():
    args = ["converge", "--tau", "0.6", "--nbar", "0.2", "--mu-list", "10,100", "--json"]
    payload = json.loads(_run(args).output)
    assert list(payload) == ["tau", "nbar", "engine", "rows"]
    for row in payload["rows"]:
        assert list(row) == ["mu", "value", "target", "gap"]


def test_simulate_json_key_order():
    args = ["simulate", "--tau", "0.6", "--nbar", "0.2", "--mu", "10", "--rounds", "200",
            "--seed", "7", "--mode", "sifted", "--json"]
    assert list(json.loads(_run(args).output)) == [
        "tau",
        "nbar",
        "mu",
        "rounds",
        "seed",
        "mode",
        "kept_rounds",
        "empirical_cov",
        "analytic_cov",
        "mi_empirical",
        "mi_analytic",
        "sift_ratio",
        "rng",
    ]


def test_name_value_text_layout():
    env = {"GAUSSKEY_PRECISION": "6"}
    rates = _run(["rates", "--tau", "0.5", "--nbar", "0"], env=env)
    assert rates.output.splitlines() == [
        "channel: tau=0.5 nbar=0 eps=0 class=C_att",
        "e_r    = 1",
        "q1g    = 0",
        "r_rev  = 0.5",
        "lambda = 1",
        "w      = 1",
        "bound: K_rev >= E_R = 1 > 0",
    ]
    verify = _run(
        ["verify", "--tau", "0.5", "--nbar", "0", "--mu", "1000", "--ports", "trusted"], env=env
    )
    assert verify.output.splitlines() == [
        "tau=0.5 nbar=0 mu=1000 ports=trusted",
        "numeric_rate = 0.499119",
        "closed_form  = 0.5",
        "abs_diff     = 0.000880626",
    ]
    converge = _run(["converge", "--tau", "0.5", "--nbar", "0", "--mu-list", "10,100"], env=env)
    assert converge.output.splitlines() == [
        "engine=rci tau=0.5 nbar=0",
        "mu value target gap",
        "10 0.868114 1 0.131886",
        "100 0.985715 1 0.014285",
    ]
