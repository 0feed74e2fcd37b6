import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import secrelay
from secrelay import cli, verify
from secrelay.cli import main
from secrelay.montecarlo import SweepRecord
from secrelay.verify import SuiteResult, solver_consistency

MC_SMALL = [
    "montecarlo",
    "--var-hd", "1",
    "--pr-stop", "4",
    "--pr-points", "3",
    "--n-samples", "400",
    "--seed", "11",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_af_reference_point(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--strategy", "af",
            "--alpha", "4", "--beta", "1", "--mu", "2", "--pr", "0.5",
        )
        assert code == 0
        assert "capacity        0.16096404744368117" in out
        assert "x_hat           0.25" in out
        assert "consumed_power  0.5" in out
        assert "genie_bound     0.160964" in out
        assert "solver_branch   endpoint" in out

    def test_df_reference_point(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--strategy", "df",
            "--alpha", "4", "--beta", "1", "--mu", "2", "--pr", "1",
        )
        assert code == 0
        assert "capacity        0.5" in out
        assert "genie_bound" not in out

    def test_weak_destination_zero(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--strategy", "af",
            "--alpha", "1", "--beta", "4", "--mu", "2", "--pr", "5",
        )
        assert code == 0
        assert "capacity        0.0" in out

    def test_df_without_first_hop_signal_consumes_no_power(self, capsys):
        # mu == 1: the second cut rounds to zero at this budget, and DF
        # printed the whole budget as its gain and consumed power.
        code, out, _ = run(
            capsys, "compute", "--strategy", "df",
            "--alpha", "1.25", "--beta", "1", "--mu", "1", "--pr", "5e-324",
        )
        assert code == 0
        assert "capacity        0.0 bits/channel use\n" in out
        assert "x_hat           0.0\n" in out
        assert "consumed_power  0.0 W\n" in out

    def test_genie_bound_of_huge_gains_prints_no_warning(self):
        # (1 + beta*x)*N(mu*x) overflowed: the line read nan, after numpy
        # RuntimeWarnings. In a child, so that a warning would reach its
        # stderr.
        done = run_in_child("compute", "--strategy", "af", "--alpha", "1e300",
                            "--beta", "1e299", "--mu", "2", "--pr", "1")
        assert done.returncode == 0 and done.stderr == ""
        assert math.isfinite(_field(done.stdout, "genie_bound"))

    def test_channel_gain_inputs(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--strategy", "af",
            "--hr", "1", "--hd", "2,0", "--he", "1", "--ps", "1", "--pr", "0.5",
        )
        assert code == 0
        assert "capacity        0.16096404744368117" in out

    def test_db_switch(self, capsys):
        # -3.0103 dBW is 0.5 W to five decimals; capacities must agree closely.
        code, out, _ = run(
            capsys, "compute", "--strategy", "af",
            "--alpha", "4", "--beta", "1", "--mu", "2",
            "--pr", str(10.0 * math.log10(0.5)), "--db",
        )
        assert code == 0
        assert "capacity        0.160964047443681" in out

    def test_conflicting_inputs_usage_error(self, capsys):
        code, _, err = run(
            capsys, "compute", "--strategy", "af",
            "--alpha", "4", "--hd", "2", "--pr", "0.5",
        )
        assert code == 1
        assert "error" in err

    def test_missing_inputs_usage_error(self, capsys):
        code, _, err = run(capsys, "compute", "--strategy", "af", "--pr", "0.5")
        assert code == 1

    def test_huge_db_value_usage_error(self, capsys):
        code, out, err = run(
            capsys, "compute", "--strategy", "af",
            "--alpha", "2", "--beta", "1", "--mu", "3", "--pr", "5000", "--db",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "5000" in err

    @pytest.mark.parametrize("strategy", ["af", "df"])
    def test_negative_zero_budget_prints_no_sign(self, capsys, strategy):
        code, out, _ = run(
            capsys, "compute", "--strategy", strategy,
            "--alpha", "4", "--beta", "1", "--mu", "2", "--pr", "-0.0",
        )
        assert code == 0
        assert "-0.0" not in out
        assert "p_r             0.0 W" in out
        assert "capacity        0.0 bits/channel use" in out
        assert "x_hat           0.0\n" in out
        assert "consumed_power  0.0 W" in out

    def test_invalid_params_usage_error(self, capsys):
        code, _, err = run(
            capsys, "compute", "--strategy", "af",
            "--alpha", "4", "--beta", "1", "--mu", "0.5", "--pr", "1",
        )
        assert code == 1
        assert "mu" in err


class TestSweep:
    def test_csv_contract(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--alpha", "4", "--beta", "1", "--mu", "2",
            "--pr-stop", "2", "--pr-step", "0.25",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "strategy,p_r,capacity,x_hat,consumed_power"
        rows = [line.split(",") for line in lines[1:]]
        af = [r for r in rows if r[0] == "af"]
        df = [r for r in rows if r[0] == "df"]
        assert len(af) == len(df) == 9
        # ascending budgets, zero-budget row has zero capacity
        assert [float(r[1]) for r in af] == sorted(float(r[1]) for r in af)
        assert float(af[0][2]) == 0.0
        caps = [float(r[2]) for r in af]
        assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))
        # saturation: beyond sqrt(mu/(alpha*beta)) ~ 0.7071 the value is constant
        assert caps[-1] == pytest.approx(caps[-2], abs=1e-12)
        assert caps[-2] == pytest.approx(caps[-3], abs=1e-12)
        # DF dominates AF row by row
        for a_row, d_row in zip(af, df):
            assert float(d_row[2]) >= float(a_row[2]) - 1e-12

    def test_single_strategy(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--strategy", "af", "--alpha", "4", "--beta", "1",
            "--mu", "2", "--pr-stop", "1", "--pr-step", "0.5",
        )
        assert code == 0
        assert "df," not in out

    def test_nonpositive_step_rejected(self, capsys):
        code, _, err = run(
            capsys, "sweep", "--alpha", "4", "--beta", "1", "--mu", "2",
            "--pr-stop", "1", "--pr-step", "0",
        )
        assert code == 1
        assert "step" in err

    @pytest.mark.parametrize("flags, message", [
        (["--pr-stop", "1e300", "--pr-step", "1e-300"], "points"),
        (["--pr-start=-1e308", "--pr-stop", "1e308", "--pr-step", "1"], "points"),
        (["--pr-stop", "inf", "--pr-step", "1"], "--pr-stop must be finite"),
        (["--pr-stop", "nan", "--pr-step", "1"], "--pr-stop must be finite"),
        (["--pr-start=-inf", "--pr-stop", "1", "--pr-step", "1"], "--pr-start must be finite"),
        (["--pr-stop", "1", "--pr-step", "nan"], "--pr-step must be finite"),
    ])
    def test_unbounded_grid_usage_error(self, capsys, flags, message):
        code, out, err = run(capsys, "sweep", "--alpha", "4", "--beta", "1", "--mu", "2", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("flags", [
        ["--alpha", "4", "--beta", "1", "--mu", "2", "--pr-stop", "3", "--pr-step", "0.01"],
        ["--alpha", "3.7", "--beta", "0", "--mu", "9.5", "--pr-stop", "3", "--pr-step", "0.01"],
        ["--alpha", "0.5", "--beta", "1", "--mu", "9.5", "--pr-stop", "3", "--pr-step", "0.5"],
        ["--alpha", "4", "--beta", "1", "--mu", "1", "--pr-stop", "3", "--pr-step", "0.5"],
        ["--alpha", "2", "--beta", "1", "--mu", "1e90", "--pr-start", "1e-148",
         "--pr-stop", "2e-147", "--pr-step", "1e-148"],  # exact-arithmetic lanes
        ["--alpha", "4", "--beta", "1", "--mu", "2", "--pr-start=-40", "--pr-stop", "40",
         "--pr-step", "0.25", "--db"],
    ])
    def test_rows_equal_the_scalar_functions(self, capsys, monkeypatch, flags):
        calls = []
        for strategy, (solver, kernel) in list(cli._STRATEGIES.items()):
            monkeypatch.setitem(cli._STRATEGIES, strategy, (
                solver, lambda *a, _k=kernel, **k: calls.append(a) or _k(*a, **k)))
        code, out, _ = run(capsys, "sweep", *flags)
        assert code == 0
        assert len(calls) == 2  # one kernel call per strategy
        args = dict(zip(flags[::2], flags[1::2]))
        params = cli.DerivedParams(*(float(args[f"--{k}"]) for k in ("alpha", "beta", "mu")))
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 2 * calls[0][3].size
        for strategy, p_r, *values in rows:
            pb = cli.PowerBudget(params.mu - 1.0, float(p_r))
            res = cli._STRATEGIES[cli.Strategy(strategy)][0](params, pb)
            assert values == [repr(v) for v in (res.capacity, res.x_hat, res.consumed_power)]

    @pytest.mark.parametrize("flags, message", [
        (["--pr-start=-1", "--pr-stop", "1", "--pr-step", "0.5"], "nonnegative"),
        (["--pr-start", "300", "--pr-stop", "4000", "--pr-step", "100", "--db"],
         "3100.0 dB overflows"),
    ])
    def test_bad_budget_usage_error(self, capsys, flags, message):
        code, out, err = run(capsys, "sweep", "--alpha", "4", "--beta", "1", "--mu", "2", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_point_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 5)
        argv = ["sweep", "--strategy", "af", "--alpha", "4", "--beta", "1", "--mu", "2",
                "--pr-step", "0.25"]
        code, out, _ = run(capsys, *argv, "--pr-stop", "1")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 5
        code, out, err = run(capsys, *argv, "--pr-stop", "1.25")
        assert code == 1
        assert "5 points" in err


class TestMonteCarlo:
    def test_csv_header_and_seed_echo(self, capsys):
        code, out, _ = run(capsys, *MC_SMALL)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "strategy,sigma2_hd,p_r,mean_capacity,stderr_capacity,"
            "mean_consumed_power,stderr_consumed_power,n_samples,seed"
        )
        assert len(lines) == 1 + 2 * 3  # af and df, three budgets
        assert all(line.endswith(",400,11") for line in lines[1:])

    def test_negative_zero_budget_prints_no_sign(self, capsys):
        code, out, _ = run(capsys, *MC_SMALL, "--pr-start=-0.0")
        assert code == 0
        assert "-0.0" not in out
        assert out.split("\n")[1].split(",")[2] == "0.0"

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(MC_SMALL + ["--out", str(out_a)]) == 0
        assert main(MC_SMALL + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_curves_share_one_sweep(self, capsys, monkeypatch):
        calls = []
        sweep = cli.ergodic_sweep
        monkeypatch.setattr(cli, "ergodic_sweep", lambda cfg: calls.append(cfg) or sweep(cfg))
        bodies = {}
        for var_hd in ("1", "2", "1,2"):
            code, out, _ = run(capsys, *MC_SMALL[:2], var_hd, *MC_SMALL[3:])
            assert code == 0
            bodies[var_hd] = out.split("\n", 1)[1]
        assert bodies["1,2"] == bodies["1"] + bodies["2"]
        assert [cfg.var_hd for cfg in calls] == [(1.0,), (2.0,), (1.0, 2.0)]

    def test_zero_samples_rejected(self, capsys):
        code, _, err = run(capsys, "montecarlo", "--n-samples", "0", "--pr-points", "2")
        assert code == 1

    def test_sample_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLES", 450)
        i = MC_SMALL.index("--n-samples")
        argv = MC_SMALL[:i] + MC_SMALL[i + 2:]
        code, out, _ = run(capsys, *argv, "--n-samples", "450")
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",450,11")
        code, out, err = run(capsys, *argv, "--n-samples", "451")
        assert code == 1 and out == ""
        assert err == "error: n_samples must be at most 450\n"

    @pytest.mark.parametrize("start, stop, bad", [
        ("1e160", "1e161", "p_r_grid"),  # the consumed power's M2 overflowed to nan
        ("1e308", "1.7e308", "p_r_grid"),  # its mean overflowed to inf too
        ("0", "inf", "pr_stop"),
        ("nan", "1", "pr_start"),
        ("-1.7e308", "1.7e308", "pr_start"),  # np.linspace's span overflows
    ])
    def test_unbounded_budget_gives_one_error_line(self, start, stop, bad):
        # In a child, so that a numpy RuntimeWarning would reach its stderr.
        done = run_in_child("montecarlo", "--var-hd", "1", "--n-samples", "1000",
                            "--pr-points", "2", f"--pr-start={start}", "--pr-stop", stop)
        assert done.returncode == 1 and done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert line.startswith(f"error: {bad} ")

    def test_values_far_below_the_budget_keep_their_standard_errors(self):
        # The AF consumed power is about 1e-300 at every budget here; its
        # standard error printed 0.0 when the moments' scale followed the
        # budget. In a child, so that a numpy RuntimeWarning would show.
        done = run_in_child("montecarlo", "--var-hd", "1e300", "--var-he", "1e300",
                            "--pr-start", "1e-200", "--pr-stop", "1", "--pr-points", "3",
                            "--n-samples", "1000")
        assert done.returncode == 0 and done.stderr == ""
        rows = [line.split(",") for line in done.stdout.splitlines()[1:]]
        assert len(rows) == 6
        assert all(float(row[4]) > 0.0 and float(row[6]) > 0.0 for row in rows)

    def test_huge_sample_count_rejected_before_drawing(self):
        # 10**14 samples would run for months without a line of output.
        done = run_in_child("montecarlo", "--var-hd", "1", "--pr-points", "1",
                            "--n-samples", str(10**14))
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == f"error: n_samples must be at most {cli.MAX_SAMPLES}\n"

    def test_huge_run_rejected_before_drawing(self):
        # Each flag within its own limit, together about a week of work.
        done = run_in_child("montecarlo", "--var-hd", "1", "--pr-points", "100000",
                            "--n-samples", str(10**9))
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == ("error: 1000000000 n_samples x 1 var_hd curves x 100000 "
                               f"pr_points exceed {cli.MAX_SAMPLE_POINTS}\n")

    def test_sample_point_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SAMPLE_POINTS", 400 * 2 * 3)
        argv = ["montecarlo", "--var-hd", "1,2", "--pr-stop", "4", "--pr-points", "3",
                "--seed", "11"]
        code, out, _ = run(capsys, *argv, "--n-samples", "400")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 2 * 2 * 3
        code, out, err = run(capsys, *argv, "--n-samples", "401")
        assert code == 1 and out == ""
        assert err == "error: 401 n_samples x 2 var_hd curves x 3 pr_points exceed 2400\n"

    def test_empty_var_hd_list_usage_error(self, capsys):
        code, out, err = run(capsys, "montecarlo", "--var-hd", ",", "--n-samples", "10")
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line.startswith("error: var_hd must be a non-empty tuple")

    def test_huge_source_power_usage_error(self, capsys):
        code, out, err = run(capsys, *MC_SMALL, "--ps-dbw", "4000")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "4000" in err

    def test_budget_count_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 5)
        i = MC_SMALL.index("--pr-points")
        argv = MC_SMALL[:i] + MC_SMALL[i + 2:]
        code, out, _ = run(capsys, *argv, "--pr-points", "5")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 2 * 5
        for count in ("6", "0"):
            code, out, err = run(capsys, *argv, "--pr-points", count)
            assert code == 1
            assert out == ""
            assert err.startswith("error:") and "between 1 and 5" in err

    def test_budget_count_limit_from_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 5)
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("var_hd = 1\npr_points = 6\nn_samples = 400\n")
        code, _, err = run(capsys, "montecarlo", "--config", str(cfg))
        assert code == 1
        assert "between 1 and 5" in err
        cfg.write_text("var_hd = 1\npr_points = 5\nn_samples = 400\n")
        code, out, _ = run(capsys, "montecarlo", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 2 * 5

    def test_run_point_limit_counts_curves_inclusively(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 6)
        argv = ["montecarlo", "--pr-stop", "4", "--n-samples", "10", "--seed", "11"]
        code, out, _ = run(capsys, *argv, "--var-hd", "1,2", "--pr-points", "3")
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 2 * 2 * 3
        for curves, points in (("1,2,4", "3"), ("1,2", "4")):
            code, out, err = run(capsys, *argv, "--var-hd", curves, "--pr-points", points)
            assert code == 1
            assert out == ""
            n = len(curves.split(","))
            assert err.startswith("error:")
            assert f"{n} var_hd curves x {points} pr_points exceed 6" in err

    def test_run_point_limit_from_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 6)
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("var_hd = 1,2,4\npr_points = 3\nn_samples = 10\n")
        code, out, err = run(capsys, "montecarlo", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "3 var_hd curves x 3 pr_points exceed 6" in err
        cfg.write_text("var_hd = 1,2,4\npr_points = 2\nn_samples = 10\n")
        code, out, _ = run(capsys, "montecarlo", "--config", str(cfg))
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 2 * 3 * 2

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# ensemble settings\n"
            "var_hd = 2\n"
            "pr_stop = 4  # watts\n"
            "pr_points = 3\n"
            "n_samples = 400\n"
            "seed = 11\n"
            "strategies = af\n"
        )
        code, out, _ = run(capsys, "montecarlo", "--config", str(cfg))
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 3
        assert all(line.startswith("af,2.0,") for line in lines[1:])

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_samples = 400\npr_points = 2\npr_stop = 1\nseed = 3\n")
        code, out, _ = run(capsys, "montecarlo", "--config", str(cfg), "--seed", "19")
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",19")

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run(capsys, "montecarlo", "--config", str(cfg))
        assert code == 1
        assert "bogus" in err

    def test_unreadable_config(self, capsys):
        code, _, err = run(capsys, "montecarlo", "--config", "/nonexistent/path.cfg")
        assert code == 1

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SECRELAY_SEED", "77")
        argv = [a for a in MC_SMALL if a not in ("--seed", "11")]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",77")

    def test_flag_beats_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SECRELAY_SEED", "77")
        code, out, _ = run(capsys, *MC_SMALL)
        assert code == 0
        assert out.strip().split("\n")[1].endswith(",11")

    def test_db_axis_option(self, capsys):
        code, out, _ = run(capsys, *MC_SMALL, "--pr-axis", "db")
        assert code == 0
        top = out.strip().split("\n")[-1].split(",")
        assert float(top[2]) == pytest.approx(10.0 * math.log10(4.0), rel=1e-12)

    # One value per setting that differs from both MC_TABLE_BASE and the default.
    MC_TABLE_VALUES = {
        "var_hr": "1.5", "var_hd": "1,3", "var_he": "0.5", "p_s_dbw": "7",
        "pr_start": "0.5", "pr_stop": "3", "pr_points": "2", "n_samples": "300",
        "seed": "5", "strategies": "df",
    }
    MC_TABLE_BASE = {"var_hd": "1", "pr_stop": "4", "pr_points": "3", "n_samples": "200",
                     "seed": "11"}

    def test_each_setting_reads_the_same_as_flag_and_config_key(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SECRELAY_SEED", raising=False)
        assert list(self.MC_TABLE_VALUES) == list(cli._MC_SETTINGS)
        for key, value in self.MC_TABLE_VALUES.items():
            flag = cli._MC_SETTINGS[key][0]
            base = ["montecarlo"]
            for other, v in self.MC_TABLE_BASE.items():
                if other != key:
                    base += [cli._MC_SETTINGS[other][0], v]
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"{key} = {value}\n")
            outs = {}
            for name, extra in (("base", []), ("flag", [flag, value]),
                                ("config", ["--config", str(cfg)])):
                outs[name] = tmp_path / f"{key}_{name}.csv"
                assert main(base + extra + ["--out", str(outs[name])]) == 0, (key, name)
            assert outs["flag"].read_bytes() == outs["config"].read_bytes(), key
            assert outs["flag"].read_bytes() != outs["base"].read_bytes(), key

    def test_csv_header_names_the_sweep_record_fields(self, tmp_path):
        # Each row is the record's fields in declaration order.
        out = tmp_path / "mc.csv"
        assert main(MC_SMALL + ["--out", str(out)]) == 0
        header = out.read_text().split("\n", 1)[0].split(",")
        names = [f.name for f in dataclasses.fields(SweepRecord)]
        assert header == ["sigma2_hd" if name == "var_hd" else name for name in names]


class TestSeed:
    """One rule for --seed, the seed config key and SECRELAY_SEED."""

    COMMANDS = {"verify": ["verify", "--draws", "1"],
                "montecarlo": [a for a in MC_SMALL if a not in ("--seed", "11")]}

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
    @pytest.mark.parametrize("command", ["verify", "montecarlo"])
    def test_bad_flag_seed_usage_error(self, capsys, monkeypatch, command, seed):
        monkeypatch.delenv("SECRELAY_SEED", raising=False)
        code, out, err = run(capsys, *self.COMMANDS[command], "--seed", seed)
        assert code == 1 and out == ""
        assert err == f"error: argument --seed: must be an integer from 0 to 2**64-1, got {seed!r}\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64), "1.5"])
    @pytest.mark.parametrize("command", ["verify", "montecarlo"])
    def test_bad_env_seed_usage_error(self, capsys, monkeypatch, command, seed):
        monkeypatch.setenv("SECRELAY_SEED", seed)
        code, out, err = run(capsys, *self.COMMANDS[command])
        assert code == 1 and out == ""
        assert err == f"error: SECRELAY_SEED must be an integer from 0 to 2**64-1, got {seed!r}\n"

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_bad_config_seed_usage_error(self, tmp_path, capsys, seed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {seed}\n")
        code, out, err = run(capsys, *self.COMMANDS["montecarlo"], "--config", str(cfg))
        assert code == 1 and out == ""
        assert err == f"error: bad value for 'seed': {seed!r}\n"

    @pytest.mark.parametrize("command", ["verify", "montecarlo"])
    def test_seed_limit_is_inclusive(self, capsys, monkeypatch, command):
        top = str(2**64 - 1)
        monkeypatch.setenv("SECRELAY_SEED", top)
        code, out, _ = run(capsys, *self.COMMANDS[command])
        assert code == 0
        code, flag_out, _ = run(capsys, *self.COMMANDS[command], "--seed", top)
        assert code == 0 and flag_out == out and top in out


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--draws", "5", "--seed", "3")
        assert code == 0
        assert "seed   3" in out
        assert out.count("PASS") >= 5
        assert "RESULT: PASS" in out

    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_nonpositive_draws_rejected(self, capsys, draws):
        code, out, err = run(capsys, "verify", "--draws", draws, "--seed", "3")
        assert code == 1
        assert "PASS" not in out
        assert "draws" in err

    def test_near_cancelling_bound_collapse_seed_passes(self, capsys):
        # This seed draws beta/alpha = 1 - 1.4e-5 in bound_collapse, where
        # phi's conditioning alpha/(alpha - beta) is 7e4.
        code, out, _ = run(capsys, "verify", "--draws", "200", "--seed", "9468588589655178845")
        assert "PASS  bound_collapse" in out
        assert code == 0

    def test_suite_without_evaluated_draws_fails(self):
        res = solver_consistency(0, np.random.default_rng(3))
        assert res.evaluated == 0
        assert not res.passed
        assert "no draw evaluated" in res.summary()

    def test_suites_report_the_tolerance_table(self):
        # No suite can report a residual or tolerance the table does not hold.
        results = verify.run_all(draws=1)
        assert [r.name for r in results] == list(verify.TOLERANCES)
        for r in results:
            assert list(r.tolerances.items()) == list(verify.TOLERANCES[r.name].items())
            assert list(r.residuals) == list(r.tolerances)

    def test_fault_injection_trips_gate(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "df_properties", lambda draws, rng: SuiteResult(
            "df_properties", {"min_cut_gap": 1e-3}, {"min_cut_gap": 1e-12}, draws))
        code, out, _ = run(capsys, "verify", "--draws", "5", "--seed", "3")
        assert code == 2
        assert "FAIL  df_properties" in out
        assert "RESULT: FAIL (4/5 suites)" in out

    @staticmethod
    def _nan_capacity(monkeypatch):
        real = verify.af_secrecy_capacity
        monkeypatch.setattr(verify, "af_secrecy_capacity", lambda params, pb: dataclasses.replace(
            real(params, pb), capacity=math.nan))

    def test_nan_capacity_fails_oracle_suite(self, monkeypatch):
        # The builtin max(worst, nan) keeps worst, so a NaN residual could vanish.
        self._nan_capacity(monkeypatch)
        res = verify.solver_vs_oracle(5, np.random.default_rng(3), n_points=1001)
        assert not res.passed
        assert "capacity_gap=nan" in res.summary()

    def test_nan_pi_fails_consistency_suite(self, monkeypatch):
        monkeypatch.setattr(verify, "pi_of_lambda", lambda prob, lam: math.nan)
        res = solver_consistency(5, np.random.default_rng(3))
        assert res.evaluated > 0
        assert not res.passed
        assert "pi_residual=nan" in res.summary()

    def test_nan_capacity_fails_verify_command(self, capsys, monkeypatch):
        self._nan_capacity(monkeypatch)
        code, out, _ = run(capsys, "verify", "--draws", "3", "--seed", "3")
        assert code == 2
        assert "FAIL  solver_vs_oracle" in out and "nan" in out
        assert "RESULT: FAIL" in out

    def test_draw_limit_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_VERIFY_DRAWS", 5)
        code, out, _ = run(capsys, "verify", "--draws", "5", "--seed", "3")
        assert code == 0 and "RESULT: PASS" in out
        code, out, err = run(capsys, "verify", "--draws", "6", "--seed", "3")
        assert code == 1 and out == ""
        assert err == "error: --draws must be between 1 and 5\n"

    def test_huge_draw_count_rejected_before_drawing(self):
        # Each suite draws its parameters for every draw at once: 10**9
        # draws would need 7.5 GiB per array.
        done = run_in_child("verify", "--draws", str(10**9))
        assert done.returncode == 1 and done.stdout == ""
        assert done.stderr == f"error: --draws must be between 1 and {cli.MAX_VERIFY_DRAWS}\n"


@pytest.mark.parametrize("argv", [
    ["compute", "--strategy", "af", "--alpha", "4", "--beta", "1", "--mu", "2", "--pr", "1"],
    ["sweep", "--alpha", "4", "--beta", "1", "--mu", "2", "--pr-stop", "1", "--pr-step", "0.5"],
    MC_SMALL,
    ["verify", "--draws", "1", "--seed", "3"],
])
def test_output_in_missing_directory_usage_error(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write output file") and str(path) in err
    assert not path.exists()


class TestParsing:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--bogus")
        assert code == 1

    def test_bad_complex_literal(self, capsys):
        code, _, err = run(
            capsys, "compute", "--strategy", "af",
            "--hr", "1,2,3", "--hd", "2", "--he", "1", "--ps", "1", "--pr", "1",
        )
        assert code == 1


def test_import_leaves_out_costly_stdlib_modules():
    # concurrent.futures pulls in logging; json and logging are for opt-in
    # output only. Each would add to every command's start-up time.
    costly = ("concurrent.futures", "logging", "json")
    code = f"import sys, secrelay.cli; print([m for m in {costly!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(secrelay.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.strip() == "[]"


# Address space of a child CLI run, about 3x what `montecarlo` maps at its
# defaults: an allocation that grows with a flag's value fails in the child.
CHILD_ADDRESS_SPACE = 2**30


def run_in_child(*argv):
    """The CLI in a child process under a timeout, so that a hang fails, and
    under CHILD_ADDRESS_SPACE."""
    env = {**os.environ, "PYTHONPATH": str(Path(secrelay.__file__).resolve().parents[1])}
    code = ("import resource, runpy; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({CHILD_ADDRESS_SPACE},) * 2); "
            "runpy.run_module('secrelay', run_name='__main__', alter_sys=True)")
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=30)


def _field(out, name):
    return float(next(line.split()[1] for line in out.splitlines() if line.startswith(name)))


@pytest.mark.parametrize("alpha, beta, mu, pr", [
    ("1", "0", "2", "20000"),
    ("1", "1e-9", "2", "1e5"),
    # The bracket ends near x_max = MAX: their sum overflowed, and the line read nan.
    ("1e-300", "0", "1.0000000000000002", "1.7976931348623157e308"),
], ids=["0-20000", "1e-9-1e5", "near_max"])
def test_genie_bound_with_its_peak_above_float_tolerance(alpha, beta, mu, pr):
    # The genie bound's section search peaks near x = 1e4, 2.2e4 and MAX,
    # where float spacing exceeds its 1e-12 tolerance.
    done = run_in_child("compute", "--strategy", "af", "--alpha", alpha, "--beta", beta,
                        "--mu", mu, "--pr", pr)
    assert done.returncode == 0, done.stderr
    capacity = _field(done.stdout, "capacity")
    assert abs(_field(done.stdout, "genie_bound") - capacity) <= 1e-9 * capacity


@pytest.mark.parametrize("argv, name", [
    (("--var-hr", "1e307", "--n-samples", "1000"), "var_hr"),
    (("--var-hd", "1e308", "--n-samples", "1000"), "var_hd"),
    (("--var-hd", "1e308", "--n-samples", "1000", "--pr-points", "3"), "var_hd"),
    # The first chunk is rejected before anything grows with --n-samples.
    (("--var-hd", "1e308", "--n-samples", str(cli.MAX_SAMPLES), "--pr-points", "1"), "var_hd"),
])
def test_montecarlo_overflowing_gains_usage_error(argv, name):
    done = run_in_child("montecarlo", *argv)
    assert done.returncode == 1
    assert done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith(f"error: {name}=") and "nan" not in line
