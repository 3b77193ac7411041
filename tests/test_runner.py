"""Sweep configs, CSV schema and determinism, CLI exit codes."""

import csv
import io
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mimopam
from mimopam import (
    CSV_COLUMNS,
    ConfigError,
    DecoderKind,
    LambdaPolicy,
    PowerConvention,
    SweepAxis,
    SweepSpec,
    SystemConfig,
    TPolicy,
    lambda_star_rls,
    load_config,
    predict,
    records_to_csv,
    resolve_decoder,
    run,
    write_config,
)
from mimopam.cli import main as cli_main
from mimopam.presets import PRESET_NAMES, preset_path
from mimopam.runner import apply_sweep_value
from mimopam.system import derive_params


def small_spec(**kw):
    base = SystemConfig(k=32, n=40, t_total=96, t_pilot=40, rho=10.0, alpha=0.5, m=2,
                        power_convention=PowerConvention.DIRECT_SPLIT)
    args = dict(base=base, sweep_axis=SweepAxis.RHO_DB, values=(0.0, 10.0),
                decoders=(DecoderKind.RLS,), trials=0, master_seed=7)
    args.update(kw)
    return SweepSpec(**args)


class TestConfigFile:
    def test_minimal_file_gets_documented_defaults(self, tmp_path):
        path = tmp_path / "min.cfg"
        path.write_text(
            "k = 32\nn = 40\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\nsweep_axis = rho_db\nvalues = 0,10\ndecoders = rls\n"
        )
        spec = load_config(str(path))
        assert spec.trials == 500
        assert spec.lambda_policy is LambdaPolicy.CLOSED_FORM_OPTIMAL
        assert spec.t_policy is TPolicy.MAX_SYMBOL
        assert spec.base.power_convention is PowerConvention.ENERGY_CONSERVING

    def test_short_training_names_the_constraint(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "k = 32\nn = 40\nt_total = 96\nt_pilot = 20\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\nsweep_axis = rho_db\nvalues = 0\ndecoders = rls\n"
        )
        with pytest.raises(ConfigError, match="t_pilot >= k"):
            load_config(str(path))

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("k = 32\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(str(path))

    def test_missing_key_is_reported_by_name(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("k = 32\n")
        with pytest.raises(ConfigError, match="missing required config key"):
            load_config(str(path))

    def test_round_trip(self, tmp_path):
        spec = small_spec(values=(0.0, 2.5, 10.0), trials=12,
                          decoders=(DecoderKind.LS, DecoderKind.BOX),
                          lambda_policy=LambdaPolicy.NUMERIC_OPTIMAL)
        path = tmp_path / "spec.cfg"
        write_config(spec, str(path))
        assert load_config(str(path)) == spec

    def test_fig2_preset_contents(self):
        spec = load_config(preset_path("fig2"))
        base = spec.base
        assert (base.k, base.n, base.t_total, base.t_pilot) == (400, 480, 1000, 456)
        assert base.alpha == 0.5
        assert base.power_convention is PowerConvention.DIRECT_SPLIT
        assert len(spec.values) == 36
        assert spec.trials == 500

    def test_all_presets_load(self):
        for name in PRESET_NAMES:
            spec = load_config(preset_path(name))
            assert spec.values


class TestSweepMechanics:
    def test_apply_rho_axis(self):
        cfg = apply_sweep_value(small_spec(), 20.0)
        assert cfg.rho == pytest.approx(100.0)

    def test_apply_tau_p_axis_requires_integer_pilots(self):
        spec = small_spec(sweep_axis=SweepAxis.TAU_P, values=(1.25, 1.5))
        cfg = apply_sweep_value(spec, 1.25)
        assert cfg.t_pilot == 40
        with pytest.raises(ConfigError, match="integer pilot count"):
            apply_sweep_value(spec, 1.3)

    def test_values_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            small_spec(values=(1.0, 1.0))

    def test_resolve_closed_form_lambda(self):
        spec = small_spec()
        cfg = apply_sweep_value(spec, 10.0)
        dspec = resolve_decoder(spec, cfg, DecoderKind.RLS)
        dp = derive_params(cfg)
        assert dspec.lam == pytest.approx(lambda_star_rls(dp.rho_d, dp.sigma_delta_sq))

    def test_resolve_box_threshold_default_is_largest_symbol(self):
        spec = small_spec(decoders=(DecoderKind.BOX,))
        cfg = apply_sweep_value(spec, 10.0)
        dspec = resolve_decoder(spec, cfg, DecoderKind.BOX)
        assert dspec.t_box == pytest.approx((cfg.m - 1) / math.sqrt((cfg.m**2 - 1) / 3))


class TestRunModes:
    def test_predict_has_theory_but_no_sim(self):
        result = run(small_spec(), "predict")
        assert len(result.records) == 2
        for rec in result.records:
            assert rec.mse_theory is not None
            assert rec.mse_sim is None
            assert rec.trials == 0

    def test_simulate_with_zero_trials_behaves_like_predict(self):
        result = run(small_spec(trials=0), "simulate")
        assert all(r.mse_sim is None for r in result.records)

    def test_compare_fills_sim_columns(self):
        result = run(small_spec(values=(10.0,), trials=8), "compare")
        rec = result.records[0]
        assert rec.mse_sim is not None and rec.stderr_mse is not None
        assert rec.trials == 8

    def test_csv_schema_and_determinism(self):
        result1 = run(small_spec(values=(10.0,), trials=6), "compare")
        result2 = run(small_spec(values=(10.0,), trials=6), "compare")
        csv1, csv2 = records_to_csv(result1.records), records_to_csv(result2.records)
        assert csv1 == csv2
        header = csv1.splitlines()[0].split(",")
        assert tuple(header) == CSV_COLUMNS
        assert csv1.endswith("\n") and "\r" not in csv1

    def test_csv_cells_parse_back_as_floats(self):
        # box rows carry solver outputs; every non-empty numeric cell must be
        # plain decimal text (no numpy scalar reprs)
        import csv as csv_mod
        import io

        spec = small_spec(values=(10.0,), trials=2, decoders=(DecoderKind.BOX,))
        text = records_to_csv(run(spec, "compare").records)
        row = next(csv_mod.DictReader(io.StringIO(text)))
        for col in ("theta_star", "beta_star", "b_norm", "mse_theory", "sep_theory",
                    "goodput_theory", "mse_sim", "ser_sim", "lambda", "t_box"):
            value = float(row[col])
            assert math.isfinite(value)

    def test_every_decoder_reports_its_ridge_coefficient(self):
        spec = small_spec(values=(10.0,), decoders=(DecoderKind.LS, DecoderKind.LMMSE))
        ls_row, lmmse_row = run(spec, "predict").records
        dp = derive_params(apply_sweep_value(spec, 10.0))
        assert ls_row.lam == 0.0
        assert lmmse_row.lam == lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)

    def test_theory_cells_are_the_predict_record(self):
        kinds = (DecoderKind.LS, DecoderKind.RLS, DecoderKind.BOX, DecoderKind.LMMSE)
        spec = small_spec(decoders=kinds)
        rows = csv.DictReader(io.StringIO(records_to_csv(run(spec, "predict").records)))
        cells = {"theta_star": "theta_star", "beta_star": "beta_star", "b_norm": "b_norm",
                 "mse_theory": "mse", "sep_theory": "sep", "goodput_theory": "goodput"}
        for value in spec.values:
            cfg = apply_sweep_value(spec, value)
            for kind in kinds:
                row = next(rows)
                assert row["decoder"] == kind.value
                pred = predict(cfg, resolve_decoder(spec, cfg, kind))
                for col, field in cells.items():
                    assert float(row[col]) == getattr(pred, field), (value, kind, col)

    def test_optimize_power_reports_reference_alpha(self):
        spec = load_config(preset_path("fig6"))
        result = run(spec, "optimize_power")
        assert "alpha_star=" in result.report
        assert all(abs(rec.alpha - 0.629) <= 1e-3 for rec in result.records)

    def test_optimize_goodput_pins_training_to_antenna_count(self):
        base = replace(small_spec().base, power_convention=PowerConvention.ENERGY_CONSERVING)
        spec = small_spec(base=base, values=(10.0,), decoders=(DecoderKind.RLS,))
        result = run(spec, "optimize_goodput")
        assert result.records[0].t_pilot == 32
        assert "t_pilot_star=32" in result.report

    def test_optimize_goodput_report_matches_rows(self):
        spec = load_config(preset_path("prop1"))
        result = run(spec, "optimize_goodput")
        reported = [float(g) for g in re.findall(r"goodput=(\S+)", result.report)]
        rows = [rec for rec in result.records if rec.decoder == "rls"]
        assert len(reported) == len(rows) == len(spec.values)
        for want, rec in zip(reported, rows):
            assert rec.goodput_theory == pytest.approx(want, abs=5e-7)

    def test_optimize_goodput_refuses_direct_split(self):
        with pytest.raises(ConfigError, match="energy-conserving"):
            run(small_spec(values=(10.0,)), "optimize_goodput")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            run(small_spec(), "dance")


class TestCli:
    def _write_cfg(self, tmp_path, trials=0):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "k = 32\nn = 40\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            f"m = 2\nsweep_axis = rho_db\nvalues = 5,10\ndecoders = rls\ntrials = {trials}\n"
            "power_convention = direct\nmaster_seed = 11\n"
        )
        return str(path)

    def test_predict_writes_csv(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "out.csv")
        assert cli_main(["predict", "--config", cfg, "--out", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0].split(",")[0] == "k"
        assert len(lines) == 3
        assert "wrote 2 rows" in capsys.readouterr().out

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the runtime needs numpy only; importing scipy would more than double
        # the CLI's start-up time
        code = ("import sys, mimopam.cli; "
                "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
        env = {**os.environ, "PYTHONPATH": str(Path(mimopam.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=120, check=True)
        assert out.stdout.strip() == "False"

    def test_optimize_goodput_on_direct_split_is_exit_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "goodput.csv")
        assert cli_main(["optimize-goodput", "--config", cfg, "--out", out]) == 2
        assert "energy-conserving" in capsys.readouterr().err

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert cli_main(["predict", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_bad_key_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 4\n")
        assert cli_main(["simulate", "--config", str(path)]) == 2

    def test_compare_runs_clean_on_consistent_sim(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, trials=30)
        out = str(tmp_path / "cmp.csv")
        code = cli_main(["compare", "--config", cfg, "--out", out, "--workers", "2"])
        assert code in (0, 4)  # 4 only if a 3-sigma excursion happens
        text = capsys.readouterr().out
        assert "mse_sim=" in text

    def test_trials_and_seed_overrides(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "sim.csv")
        assert cli_main(["simulate", "--config", cfg, "--out", out,
                         "--trials", "5", "--seed", "99"]) == 0
        body = Path(out).read_text()
        assert ",5,99," in body

    def test_solver_error_row_is_exit_3(self, tmp_path, capsys):
        # lambda = 0 makes the debias norm exactly 1, so t_box = 2/sqrt(5) for
        # 4-PAM sits on a decision boundary, where the SEP jumps, and the
        # predictor refuses
        path = tmp_path / "degen.cfg"
        path.write_text(
            "k = 32\nn = 40\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            "m = 4\nsweep_axis = rho_db\nvalues = 10\ndecoders = box\ntrials = 0\n"
            "power_convention = direct\nlambda_policy = fixed\nlambda = 0\n"
            f"t_policy = fixed\nt_box = {2.0 / math.sqrt(5.0)!r}\n"
        )
        out = str(tmp_path / "degen.csv")
        assert cli_main(["predict", "--config", str(path), "--out", out]) == 3
        body = Path(out).read_text()
        assert "degenerate" in body  # error column carries the reason

    @pytest.mark.parametrize("name", ["fig4", "fig5"])
    def test_knob_search_presets_predict_without_error_rows(self, name, tmp_path, capsys):
        out = str(tmp_path / f"{name}.csv")
        assert cli_main(["predict", "--config", str(preset_path(name)), "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and not any(r["error"] for r in rows)
        # the BPSK box decoder wants no ridge term from rho_d = 10 dB up
        box_lams = [float(r["lambda"]) for r in rows
                    if r["decoder"] == "box" and float(r["rho_db"]) > 13.0]
        assert box_lams and all(lam == 0.0 for lam in box_lams)

    def test_fat_system_runs_when_every_decoder_regularizes(self, tmp_path, capsys):
        # n < k is fine for ridge and box at the closed-form coefficient
        path = tmp_path / "fat.cfg"
        path.write_text(
            "k = 32\nn = 28\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\nsweep_axis = rho_db\nvalues = 10\ndecoders = rls,box\ntrials = 2\n"
            "power_convention = direct\nlambda_policy = closed_form_optimal\n"
        )
        out = str(tmp_path / "fat.csv")
        assert cli_main(["simulate", "--config", str(path), "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["decoder"] for r in rows] == ["rls", "box"]
        for row in rows:
            assert not row["error"]
            assert math.isfinite(float(row["mse_theory"])) and math.isfinite(float(row["mse_sim"]))

    @pytest.mark.parametrize("decoder_lines", [
        "decoders = ls\n",
        "decoders = rls\nlambda_policy = fixed\nlambda = 0\n",
    ])
    def test_unregularized_fat_system_is_exit_2(self, tmp_path, capsys, decoder_lines):
        path = tmp_path / "fat.cfg"
        path.write_text(
            "k = 32\nn = 28\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\nsweep_axis = rho_db\nvalues = 10\ntrials = 0\n" + decoder_lines
        )
        out = str(tmp_path / "fat.csv")
        assert cli_main(["predict", "--config", str(path), "--out", out]) == 2
        assert "n > k" in capsys.readouterr().err

    def test_flagged_compare_is_exit_4(self, tmp_path, capsys):
        # two trials give a noisy stderr estimate; this pinned seed is a known
        # 3-sigma excursion, exercising the gate deterministically
        path = tmp_path / "flag.cfg"
        path.write_text(
            "k = 32\nn = 40\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\nsweep_axis = rho_db\nvalues = 10\ndecoders = rls\ntrials = 2\n"
            "power_convention = direct\nmaster_seed = 1\n"
        )
        out = str(tmp_path / "flag.csv")
        assert cli_main(["compare", "--config", str(path), "--out", out]) == 4
        assert "FLAGGED" in capsys.readouterr().out
