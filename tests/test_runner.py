"""Sweep configs, CSV schema and determinism, CLI exit codes."""

import atexit
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from oracles import write_config

import mimopam
from mimopam import (
    CSV_COLUMNS,
    BatchStats,
    ConfigError,
    ConvergenceError,
    DecoderKind,
    DecoderSpec,
    PowerConvention,
    SweepSpec,
    SystemConfig,
    alpha_star,
    load_config,
    predict,
    run,
)
from mimopam.cli import BLAS_THREAD_VARS, main as cli_main
from mimopam.presets import PRESET_NAMES, preset_path
from mimopam.runner import (
    MODES, LambdaPolicy, SweepAxis, TPolicy, apply_sweep_value, records_to_csv, resolve_decoder,
)
from mimopam.system import derive_params, lambda_star_rls, largest_symbol

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_process(args, **env):
    """A fresh interpreter on this package run with args, stdout and stderr
    piped and block-buffered, with the BLAS thread variables taken from env
    only."""
    base = {k: v for k, v in os.environ.items()
            if k not in BLAS_THREAD_VARS and k != "PYTHONUNBUFFERED"}
    base["PYTHONPATH"] = str(Path(mimopam.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**base, **env}, timeout=300)


def run_python(code, **env):
    """stdout of code run by run_process, which must exit 0."""
    out = run_process(["-c", code], **env)
    out.check_returncode()
    return out.stdout


def small_spec(**kw):
    base = SystemConfig(k=32, n=40, t_total=96, t_pilot=40, rho_db=10.0, alpha=0.5, m=2,
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
        assert (spec.trials, spec.master_seed) == (500, 1729)
        assert spec.lam is LambdaPolicy.CLOSED_FORM_OPTIMAL
        assert spec.t_box is TPolicy.MAX_SYMBOL
        assert spec.base.power_convention is PowerConvention.ENERGY_CONSERVING

    def test_short_training_names_the_constraint(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "k = 32\nn = 40\nt_total = 96\nt_pilot = 20\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\nsweep_axis = rho_db\nvalues = 0\ndecoders = rls\n"
        )
        with pytest.raises(ConfigError, match="t_pilot >= k"):
            load_config(str(path))

    @pytest.mark.parametrize("key, choices", [
        ("power_convention", "energy|direct"),
        ("sweep_axis", "rho_db|alpha|lambda|t_box|tau_p"),
        ("decoders", "ls|rls|box|lmmse"),
        ("lambda_policy", "closed_form_optimal|numeric_optimal|a number"),
        ("t_policy", "max_symbol|numeric_optimal|a number"),
    ], ids=["power_convention", "sweep_axis", "decoders", "lambda_policy", "t_policy"])
    def test_unknown_enum_value_names_the_key_and_choices(self, tmp_path, capsys, key, choices):
        keys = {"k": "32", "n": "40", "t_total": "96", "t_pilot": "40", "rho_db": "10",
                "alpha": "0.5", "m": "2", "sweep_axis": "rho_db", "values": "0",
                "decoders": "rls", key: "Split"}
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
        message = f"key {key!r}: expected {choices}, got 'split'"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(str(path))
        assert cli_main(["predict", "--config", str(path), "--out", str(tmp_path / "p.csv")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("changes, extra, message", [
        ({"k": "x"}, "", "key 'k': expected an integer, got 'x'"),
        ({"alpha": "half"}, "", "key 'alpha': expected a number, got 'half'"),
        ({}, "trials 5\n", "{path}:11: expected key = value, got 'trials 5'"),
        ({}, "k = 32\n", "{path}:11: duplicate key 'k'"),
        ({"decoders": ","}, "", "decoders must be non-empty"),
        ({}, "trials = -1\n", "trials must be nonnegative"),
        ({"k": "0"}, "", "antenna counts and block length must be positive"),
        ({"values": "0,,10"}, "", "key 'values': empty entry in '0,,10'"),
        ({"values": "0,10,"}, "", "key 'values': empty entry in '0,10,'"),
        ({"values": ",0,10"}, "", "key 'values': empty entry in ',0,10'"),
        ({"values": "5, ten"}, "", "key 'values': expected a number, got 'ten'"),
        ({"decoders": "rls, box,rls"}, "", "decoders must not repeat"),
    ], ids=["int", "float", "no-equals", "duplicate", "decoders-empty", "negative-trials",
            "zero-k", "values-inner-empty", "values-trailing-empty", "values-leading-empty",
            "values-entry-stripped", "decoders-repeated"])
    def test_refusal_message_is_pinned(self, tmp_path, capsys, changes, extra, message):
        keys = {"k": "32", "n": "40", "t_total": "96", "t_pilot": "40", "rho_db": "10",
                "alpha": "0.5", "m": "2", "sweep_axis": "rho_db", "values": "0",
                "decoders": "rls", **changes}
        path = tmp_path / "bad.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()) + extra)
        message = message.format(path=path)
        with pytest.raises(ConfigError) as exc:
            load_config(str(path))
        assert str(exc.value) == message
        assert cli_main(["predict", "--config", str(path), "--out", str(tmp_path / "p.csv")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

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
        specs = {
            "numeric lambda": small_spec(values=(0.0, 2.5, 10.0), trials=12,
                                         decoders=(DecoderKind.LS, DecoderKind.BOX),
                                         lam=LambdaPolicy.NUMERIC_OPTIMAL),
            "fixed lambda": small_spec(decoders=(DecoderKind.RLS, DecoderKind.BOX), lam=0.37,
                                       t_box=TPolicy.NUMERIC_OPTIMAL),
            "fixed t": small_spec(decoders=(DecoderKind.BOX,), t_box=0.8),
            **{name: load_config(preset_path(name)) for name in PRESET_NAMES},
            **{name: load_config(str(BENCH / name))
               for name in ("theory_sweep.cfg", "monte_carlo.cfg")},
        }
        path = tmp_path / "spec.cfg"
        for name, spec in specs.items():
            write_config(spec, str(path))
            assert load_config(str(path)) == spec, name

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


    @pytest.mark.parametrize("record, changes, match", [
        (small_spec().base, {"t_pilot": 31}, "t_pilot >= k"),
        (small_spec().base, {"alpha": 1.0}, "alpha"),
        (small_spec(), {"values": (10.0, 0.0)}, "strictly increasing"),
        (small_spec(), {"t_box": math.inf}, "t_box must be finite and positive"),
        (DecoderSpec.box(1.0, 1.0), {"t_box": 0.0}, "t_box must be positive"),
        (DecoderSpec.lmmse(), {"lam_tilde": -0.5}, "lam~ must be finite and nonnegative"),
        (small_spec(), {"lam": -0.3}, "lambda must be finite and nonnegative"),
        (small_spec(), {"t_box": 0.0}, "t_box must be finite and positive"),
        (small_spec().base, {"rho_db": math.inf}, "rho must be positive and finite"),
        (small_spec(), {"values": (0.0, math.nan)}, "values must be finite"),
        (small_spec(), {"master_seed": -1}, "master_seed must be nonnegative"),
        (small_spec(), {"lam": None}, "SweepSpec has a field of the wrong type"),
        (small_spec(), {"t_box": "1.0"}, "SweepSpec has a field of the wrong type"),
        (small_spec(), {"trials": "5"}, "SweepSpec has a field of the wrong type"),
        (small_spec(), {"values": ("a",)}, "SweepSpec has a field of the wrong type"),
        (small_spec().base, {"k": "32"}, "SystemConfig has a field of the wrong type"),
        (small_spec().base, {"rho_db": math.nan}, "rho must be positive and finite"),
        (small_spec().base, {"rho_db": -math.inf}, "rho must be positive and finite"),
        (small_spec().base, {"rho_db": 4000.0}, "4000.0 dB is out of the float range"),
        (small_spec().base, {"rho_db": -4000.0}, "rho must be positive and finite"),
    ], ids=[
        # ids of the form recordN-changesN-... are the ones pytest generated, kept
        "record0-changes0-t_pilot >= k", "record1-changes1-alpha",
        "record2-changes2-strictly increasing",
        "record3-changes3-t_box must be finite and positive", "dspec-t_box-zero",
        "dspec-lam-negative", "record6-changes6-lambda must be finite and nonnegative",
        "record7-changes7-t_box must be finite and positive",
        "record8-changes8-rho must be positive and finite",
        "record9-changes9-values must be finite", "record10-changes10-master_seed must be nonnegative",
        "lam-none", "t_box-str", "trials-str", "values-str", "k-str",
        "rho_db-nan", "rho_db-minus-inf", "rho_db-4000", "rho_db-minus-4000",
    ])
    def test_replace_validates_like_the_constructor(self, record, changes, match):
        # namedtuple's _replace builds through _make, which skips __new__
        with pytest.raises(ConfigError, match=match):
            record._replace(**changes)
        with pytest.raises(ConfigError, match=match):
            type(record)._make({**record._asdict(), **changes}.values())
        valid = record._replace()
        assert type(valid) is type(record) and valid == record


class TestSweepMechanics:
    def test_apply_rho_axis(self):
        _, cfg = apply_sweep_value(small_spec(), 20.0)
        assert cfg.rho == pytest.approx(100.0)

    def test_apply_tau_p_axis_requires_integer_pilots(self):
        spec = small_spec(sweep_axis=SweepAxis.TAU_P, values=(1.25, 1.5))
        _, cfg = apply_sweep_value(spec, 1.25)
        assert cfg.t_pilot == 40
        with pytest.raises(ConfigError, match="integer pilot count"):
            apply_sweep_value(spec, 1.3)

    def test_values_must_increase(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            small_spec(values=(1.0, 1.0))

    def test_resolve_closed_form_lambda(self):
        spec = small_spec()
        _, cfg = apply_sweep_value(spec, 10.0)
        dspec = resolve_decoder(spec, cfg, DecoderKind.RLS)
        dp = derive_params(cfg)
        assert dspec.lam_tilde * dp.lambda_star == pytest.approx(
            lambda_star_rls(dp.rho_d, dp.sigma_delta_sq))

    def test_numeric_lambda_leaves_the_ridge_decoder_at_its_optimum(self, monkeypatch):
        # lambda* is the ridge optimum, so rls takes lam~ = 1 with no search;
        # only the box searches
        spec = small_spec(decoders=(DecoderKind.RLS, DecoderKind.BOX),
                          lam=LambdaPolicy.NUMERIC_OPTIMAL)
        _, cfg = apply_sweep_value(spec, 10.0)
        searched = []
        real = mimopam.runner.lambda_star_numeric
        monkeypatch.setattr(mimopam.runner, "lambda_star_numeric",
                            lambda point: searched.append(point) or real(point))
        assert resolve_decoder(spec, cfg, DecoderKind.RLS) == DecoderSpec.lmmse()
        assert not searched
        resolve_decoder(spec, cfg, DecoderKind.BOX)
        assert [point.t for point in searched] == [largest_symbol(cfg.m)]

    def test_resolve_box_threshold_default_is_largest_symbol(self):
        spec = small_spec(decoders=(DecoderKind.BOX,))
        _, cfg = apply_sweep_value(spec, 10.0)
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

    def test_compare_leaves_ls_mse_ungated_without_finite_variance(self):
        # at N <= K+3 the exact LS MSE has no finite variance, so a stderr z
        # says nothing about it; its SER is still scored
        spec = small_spec(base=small_spec().base._replace(n=33), values=(5.0, 10.0),
                          decoders=(DecoderKind.LS, DecoderKind.RLS), trials=30, master_seed=11)
        report = run(spec, "compare").report
        ls_rows = [line for line in report.splitlines() if " ls: " in line]
        rls_rows = [line for line in report.splitlines() if " rls: " in line]
        assert len(ls_rows) == len(rls_rows) == 2
        assert all(re.search(r" z_mse=n/a z_ser=-?\d", line) for line in ls_rows)
        assert all(re.search(r" z_mse=-?\d\S* z_ser=-?\d", line) for line in rls_rows)
        assert "over 6 z-scores" in report

    def test_compare_counts_one_theory_point_once(self):
        # closed_form_optimal puts rls at lam~ = 1, the lmmse point: the same
        # printed z-scores, and one entry in the gate's family, so
        # 2 points x (ls, rls = lmmse) x (z_mse, z_ser)
        spec = small_spec(values=(5.0, 10.0), trials=6,
                          decoders=(DecoderKind.LS, DecoderKind.RLS, DecoderKind.LMMSE))
        result = run(spec, "compare")
        lines = result.report.splitlines()
        rls = [line.partition(": ")[2] for line in lines if " rls: " in line]
        lmmse = [line.partition(": ")[2] for line in lines if " lmmse: " in line]
        assert len(rls) == 2 and rls == lmmse
        assert all(" z_mse=" in line for line in rls)
        assert "over 8 z-scores" in result.report
        rows = {(r.rho_db, r.decoder): r.row()[8:] for r in result.records}
        assert all(rows[rho, "rls"] == rows[rho, "lmmse"] for rho, _ in rows)

    def test_rows_at_one_theory_point_are_decoded_once(self, monkeypatch):
        # rls and lmmse are both at lam~ = 1 under closed_form_optimal, so a
        # trial index decodes ls, rls and box at each of the three points,
        # and the lmmse rows take the rls rows' statistics
        kinds = []
        real = mimopam.simulate.run_trial

        def counted(cfg, dspec, *args):
            kinds.append(dspec.kind)
            return real(cfg, dspec, *args)

        monkeypatch.setattr(mimopam.simulate, "run_trial", counted)
        spec = load_config(str(BENCH / "monte_carlo.cfg"))._replace(trials=2)
        assert spec.decoders == (
            DecoderKind.LS, DecoderKind.RLS, DecoderKind.BOX, DecoderKind.LMMSE)
        records = run(spec, "simulate").records
        assert len(kinds) == 9 * spec.trials
        assert set(kinds) == {DecoderKind.LS, DecoderKind.RLS, DecoderKind.BOX}
        rows = {(r.rho_db, r.decoder): r.row() for r in records}
        sim = slice(CSV_COLUMNS.index("mse_sim"), None)
        for rho_db in spec.values:
            assert rows[rho_db, "lmmse"][sim] == rows[rho_db, "rls"][sim]
            assert rows[rho_db, "lmmse"][CSV_COLUMNS.index("trials")] == 2

    def test_compare_predicts_and_scores_each_theory_point_once(self, monkeypatch):
        # three points x (ls, rls = lmmse, box): nine theory points for twelve rows
        calls = {"predict": 0, "consistency_z": 0}
        for name in calls:
            real = getattr(mimopam.runner, name)

            def counted(*args, name=name, real=real):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(mimopam.runner, name, counted)
        spec = load_config(str(BENCH / "monte_carlo.cfg"))._replace(trials=2)
        result = run(spec, "compare")
        assert len(result.records) == 12 and not any(r.error for r in result.records)
        assert calls == {"predict": 9, "consistency_z": 9}

    @pytest.mark.parametrize("axis, values", [
        (SweepAxis.RHO_DB, (0.0, 5.0, 10.0)),
        (SweepAxis.T_BOX, (0.5, 1.0, 1.5)),
        (SweepAxis.TAU_P, (1.25, 1.5)),
    ])
    def test_a_sweep_is_one_run_batch_call_with_b_from_its_theory(
            self, monkeypatch, axis, values):
        calls = []
        real = mimopam.runner.run_batch
        monkeypatch.setattr(mimopam.runner, "run_batch",
                            lambda points, *args, **kw: calls.append(points) or real(
                                points, *args, **kw))
        spec = small_spec(sweep_axis=axis, values=values, trials=3,
                          decoders=(DecoderKind.LS, DecoderKind.RLS, DecoderKind.BOX))
        records = run(spec, "simulate").records
        [points] = calls
        assert [b for _, specs in points for _, b in specs] == [r.b_norm for r in records]
        assert all(r.trials == 3 and not r.error for r in records)

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
        dp = derive_params(apply_sweep_value(spec, 10.0)[1])
        assert ls_row.lam == 0.0
        assert lmmse_row.lam == lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)

    def test_theory_cells_are_the_predict_record(self):
        kinds = (DecoderKind.LS, DecoderKind.RLS, DecoderKind.BOX, DecoderKind.LMMSE)
        spec = small_spec(decoders=kinds)
        rows = csv.DictReader(io.StringIO(records_to_csv(run(spec, "predict").records)))
        cells = {"theta_star": "theta_star", "beta_star": "beta_star", "b_norm": "b_norm",
                 "mse_theory": "mse", "sep_theory": "sep", "goodput_theory": "goodput"}
        for value in spec.values:
            point, cfg = apply_sweep_value(spec, value)
            for kind in kinds:
                row = next(rows)
                assert row["decoder"] == kind.value
                pred = predict(cfg, resolve_decoder(point, cfg, kind))
                for col, field in cells.items():
                    assert float(row[col]) == getattr(pred, field), (value, kind, col)

    def test_optimize_power_reports_reference_alpha(self):
        spec = load_config(preset_path("fig6"))
        result = run(spec, "optimize_power")
        assert "alpha_star=" in result.report
        assert all(abs(rec.alpha - 0.629) <= 1e-3 for rec in result.records)

    def test_optimize_power_header_reads_rho_eff_from_derive_params(self):
        # fig6 sweeps alpha, so its one optimum is at the base config's rho
        spec = load_config(preset_path("fig6"))
        header = run(spec, "optimize_power").report.splitlines()[1]
        best = spec.base._replace(alpha=alpha_star(spec.base))
        assert header.startswith(f"rho_db=15.0: alpha_star={best.alpha:.6f} ")
        assert header.endswith(f" rho_eff={derive_params(best).rho_eff:.6g}")

    def test_optimize_power_off_the_rho_axis_solves_at_the_configured_rho(self, tmp_path):
        # -5.8 dB maps to a linear power whose dB value reads back as
        # -5.800000000000001; the config file keeps the configured -5.8, so
        # the optimum is solved at the same float rho as in-process
        fig6 = load_config(preset_path("fig6"))
        spec = fig6._replace(base=fig6.base._replace(rho_db=-5.8))
        path = tmp_path / "fig6.cfg"
        write_config(spec, str(path))
        loaded = load_config(str(path))
        assert loaded == spec
        assert (loaded.base.rho_db, loaded.base.rho) == (-5.8, spec.base.rho)
        best = spec.base._replace(alpha=alpha_star(spec.base))
        records = run(loaded, "optimize_power").records
        assert [rec.decoder for rec in records] == [kind.value for kind in spec.decoders]
        for kind, rec in zip(spec.decoders, records):
            pred = predict(best, resolve_decoder(spec, best, kind))
            assert (rec.theta_star, rec.beta_star, rec.b_norm, rec.mse_theory, rec.sep_theory,
                    rec.goodput_theory) == (pred.theta_star, pred.beta_star, pred.b_norm,
                                            pred.mse, pred.sep, pred.goodput), kind

    @pytest.mark.parametrize("mode", ["predict", "optimize_power"])
    def test_rho_db_cells_print_the_configured_power_off_the_rho_axis(self, mode):
        # the cells print the stored -5.8, not -5.800000000000001, the dB
        # value of its linear power
        fig6 = load_config(preset_path("fig6"))
        spec = fig6._replace(base=fig6.base._replace(rho_db=-5.8))
        result = run(spec, mode)
        rows = list(csv.DictReader(io.StringIO(records_to_csv(result.records))))
        points = 1 if mode == "optimize_power" else len(spec.values)
        assert len(rows) == points * len(spec.decoders)
        assert {row["rho_db"] for row in rows} == {"-5.8"}
        if mode == "optimize_power":
            assert result.report.splitlines()[1].startswith("rho_db=-5.8: ")

    def test_rho_db_cells_print_the_sweep_value_on_the_rho_axis(self):
        # not the dB values of their linear powers, 1.0000000000000002,
        # 2.0000000000000004 and 2.999999999999999
        spec = small_spec(values=(1.0, 2.0, 3.0))
        assert [rec.rho_db for rec in run(spec, "predict").records] == [1.0, 2.0, 3.0]

    def test_optimize_goodput_pins_training_to_antenna_count(self):
        base = small_spec().base._replace(power_convention=PowerConvention.ENERGY_CONSERVING)
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

    @pytest.mark.parametrize("mode", [mode.replace("_", "-") for mode in MODES])
    def test_every_mode_takes_every_option(self, mode, tmp_path, capsys):
        # one parser: the mode is a positional, the five options follow it
        path = tmp_path / "energy.cfg"
        path.write_text(
            "k = 16\nn = 20\nt_total = 48\nt_pilot = 20\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\nsweep_axis = rho_db\nvalues = 5,10\ndecoders = rls\ntrials = 0\n"
        )
        out = tmp_path / "out.csv"
        assert cli_main([mode, "--config", str(path), "--out", str(out),
                         "--trials", "3", "--seed", "5", "--workers", "2"]) == 0
        spec = load_config(str(path))._replace(trials=3, master_seed=5)
        report = run(spec, mode.replace("-", "_"), workers=2).report
        assert capsys.readouterr().out == report + f"wrote 2 rows to {out}\n"
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        simulated = mode in ("simulate", "compare")
        assert all(r["trials"] == ("3" if simulated else "0") and r["master_seed"] == "5"
                   for r in rows)

    def test_help_names_every_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert all(mode.replace("_", "-") in text for mode in MODES)

    def test_unknown_mode_is_exit_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["optimize_power", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "invalid choice: 'optimize_power'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the runtime needs numpy only; importing scipy would more than double
        # the CLI's start-up time
        code = ("import sys, mimopam.cli; "
                "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
        assert run_python(code).strip() == "False"

    def test_theory_modes_never_load_numpy(self, tmp_path):
        # numpy is loaded by the first Monte Carlo trial, not by the package;
        # the simulate call at the end shows that the check can fail
        cfg = self._write_cfg(tmp_path, trials=2)
        code = f"""
import json, sys
from mimopam.cli import main
from mimopam.presets import PRESET_NAMES, preset_path
codes = {{f"{{name}} {{mode}}": main([mode, "--config", preset_path(name), "--out", {str(tmp_path / "t.csv")!r}])
         for name in PRESET_NAMES for mode in ("predict", "optimize-power", "optimize-goodput")}}
theory_numpy = "numpy" in sys.modules
main(["simulate", "--config", {cfg!r}, "--out", {str(tmp_path / "s.csv")!r}])
print(json.dumps([codes, theory_numpy, "numpy" in sys.modules]))
"""
        codes, theory_numpy, simulate_numpy = json.loads(run_python(code).splitlines()[-1])
        # optimize-power and optimize-goodput refuse a direct-split preset
        assert codes == {
            f"{name} {mode}": 0 if mode == "predict" or load_config(
                preset_path(name)).base.power_convention is PowerConvention.ENERGY_CONSERVING
            else 2
            for name in PRESET_NAMES for mode in ("predict", "optimize-power", "optimize-goodput")}
        assert not theory_numpy
        assert simulate_numpy

    def test_cli_start_loads_no_dataclasses_pool_or_numpy(self, tmp_path):
        # measured against a bare interpreter, so modules that site loads do
        # not count; numpy loaded by the parallel simulate call shows that the
        # check can fail, and that call runs no thread pool either
        cfg = self._write_cfg(tmp_path, trials=2)
        bare = set(run_python("import sys; print(*sys.modules)").split())
        code = f"""
import json, sys
import mimopam.cli
started = sorted(sys.modules)
mimopam.cli.main(["simulate", "--config", {cfg!r}, "--out", {str(tmp_path / "s.csv")!r},
                  "--workers", "2"])
print(json.dumps([started, sorted(sys.modules)]))
"""
        started, finished = json.loads(run_python(code).splitlines()[-1])
        heavy = {"dataclasses", "concurrent.futures", "numpy"}
        assert not heavy & (set(started) - bare)
        assert "numpy" in finished
        assert "concurrent.futures" not in finished

    def test_package_namespace_is_the_readme_api(self):
        exported = {name for name, value in vars(mimopam).items()
                    if not name.startswith("_") and not inspect.ismodule(value)}
        assert exported == {
            "SystemConfig", "PowerConvention", "derive_params", "DecoderKind",
            "DecoderSpec", "predict", "Prediction", "run_batch", "BatchStats", "alpha_star",
            "SweepSpec", "SweepRecord", "CSV_COLUMNS", "load_config", "run", "ConfigError",
            "ConvergenceError",
        }

    @pytest.mark.parametrize("env, want", [
        ({}, ["1", "1", "1"]),
        ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),
    ])
    def test_cli_caps_blas_threads_unless_set(self, env, want, tmp_path):
        # the cap must be in place when the first trial loads numpy
        cfg = self._write_cfg(tmp_path, trials=2)
        code = ("import os, sys; from mimopam.cli import main; "
                f"main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path / 's.csv')!r}]); "
                f"print(*(os.environ.get(v) for v in {BLAS_THREAD_VARS!r}), 'numpy' in sys.modules)")
        assert run_python(code, **env).splitlines()[-1].split() == want + ["True"]

    def test_optimize_goodput_on_direct_split_is_exit_2(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path)
        out = str(tmp_path / "goodput.csv")
        assert cli_main(["optimize-goodput", "--config", cfg, "--out", out]) == 2
        assert "energy-conserving" in capsys.readouterr().err

    def test_missing_config_is_exit_2(self, tmp_path, capsys):
        assert cli_main(["predict", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_is_exit_2(self, workers, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, trials=2)
        out = tmp_path / "sim.csv"
        assert cli_main(["simulate", "--config", cfg, "--out", str(out),
                         "--workers", workers]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_key_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 4\n")
        assert cli_main(["simulate", "--config", str(path)]) == 2

    def test_compare_runs_clean_on_consistent_sim(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, trials=30)
        out = str(tmp_path / "cmp.csv")
        assert cli_main(["compare", "--config", cfg, "--out", out, "--workers", "2"]) == 0
        text = capsys.readouterr().out
        assert len(re.findall(r"mse_sim=\S+ ser_sim=\S+ z_mse=\S+ z_ser=\S+\n", text)) == 2

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
            "power_convention = direct\nlambda_policy = 0\n"
            f"t_policy = {2.0 / math.sqrt(5.0)!r}\n"
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

    @pytest.mark.parametrize("decoder_lines, kept", [
        ("decoders = ls,rls\n", "rls"),
        ("decoders = rls,lmmse\nlambda_policy = 0\n", "lmmse"),
    ], ids=["ls", "fixed-lambda-0"])
    def test_unregularized_fat_system_fails_its_own_rows(self, tmp_path, capsys,
                                                         decoder_lines, kept):
        # lam = 0 at n <= k has no theory: its rows carry the error, the
        # regularized decoder's rows keep their values, and the run exits 3
        path = tmp_path / "fat.cfg"
        path.write_text(
            "k = 32\nn = 28\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\nsweep_axis = rho_db\nvalues = 10,20\ntrials = 0\n" + decoder_lines
        )
        out = str(tmp_path / "fat.csv")
        assert cli_main(["predict", "--config", str(path), "--out", out]) == 3
        printed = capsys.readouterr()
        assert "Traceback" not in printed.err
        assert "rows without a result: 2\n" in printed.out
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            if row["decoder"] == kept:
                assert not row["error"] and float(row["mse_theory"]) > 0
            else:
                assert "n > k" in row["error"] and row["mse_theory"] == ""

    @pytest.mark.parametrize("old, new, code", [
        ("alpha = 0.5", "alpha = 1e-200", 3),
        ("lambda_policy = closed_form_optimal", "lambda_policy = 1e300", 3),
        ("t_policy = max_symbol", "t_policy = 1e200", 0),
    ], ids=["alpha-1e-200", "lambda-1e300", "t-1e200"])
    def test_far_out_of_range_scenario_keeps_every_row(self, tmp_path, capsys, old, new, code):
        # lam~ / rho_eff beyond 1e154 squares past the float range in the
        # ridge closed form, and t = 1e200 in the box tails; every row still
        # gets its result or its own error
        text = (BENCH / "theory_sweep.cfg").read_text()
        assert f"\n{old}\n" in text
        path = tmp_path / "far.cfg"
        path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
        out = tmp_path / "far.csv"
        assert cli_main(["predict", "--config", str(path), "--out", str(out)]) == code
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        if code == 0:
            # so wide a box clips nothing: each box row is its ridge row
            for rls, box in zip(rows[::2], rows[1::2]):
                assert (rls["decoder"], box["decoder"], box["t_box"]) == ("rls", "box", "1e+200")
                for cell in ("theta_star", "beta_star", "b_norm", "mse_theory", "sep_theory",
                             "goodput_theory"):
                    assert float(box[cell]) == pytest.approx(float(rls[cell]), rel=1e-12)

    def _simulate_rows(self, tmp_path, lines):
        """Exit code and CSV rows of a two-trial simulate run on a small
        direct-split scenario with the given sweep and decoder lines."""
        path = tmp_path / "sim.cfg"
        path.write_text(
            "k = 32\nn = 40\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\ntrials = 2\npower_convention = direct\n" + lines
        )
        out = tmp_path / "sim.csv"
        code = cli_main(["simulate", "--config", str(path), "--out", str(out)])
        with open(out) as fh:
            return code, list(csv.DictReader(fh))

    def test_simulated_convergence_error_fails_only_its_theory_points_rows(
            self, tmp_path, capsys, monkeypatch):
        # the box solve fails at t = 0.5 only: run_batch returns its
        # ConvergenceError, which fills that row's error and keeps its theory
        real = mimopam.simulate.box_rls_solve

        def failing(gram, rhs, lam, t_box, ridge):
            if t_box == 0.5:
                raise ConvergenceError("box stalled at t = 0.5")
            return real(gram, rhs, lam, t_box, ridge)

        monkeypatch.setattr(mimopam.simulate, "box_rls_solve", failing)
        code, rows = self._simulate_rows(
            tmp_path, "sweep_axis = t_box\nvalues = 0.5,1.5\ndecoders = rls,box\n")
        assert code == 3
        assert [(r["t_box"], r["decoder"]) for r in rows] == [
            ("", "rls"), ("0.5", "box"), ("", "rls"), ("1.5", "box")]
        for row in rows:
            assert float(row["mse_theory"]) > 0 and float(row["sep_theory"]) > 0
            if row["t_box"] == "0.5":
                assert row["error"] == "box stalled at t = 0.5"
                assert (row["mse_sim"], row["ser_sim"], row["trials"]) == ("", "", "0")
            else:
                assert not row["error"] and float(row["mse_sim"]) > 0 and row["trials"] == "2"

    def test_unresolved_knob_fails_only_its_own_row(self, tmp_path, capsys, monkeypatch):
        # the t* search fails at the first sweep point: that box row has no
        # knob cells and no theory, and every other row is simulated
        calls = []
        real = mimopam.runner.t_star_numeric

        def failing(point):
            calls.append(point)
            if len(calls) == 1:
                raise ConvergenceError("t search stalled")
            return real(point)

        monkeypatch.setattr(mimopam.runner, "t_star_numeric", failing)
        code, rows = self._simulate_rows(
            tmp_path, "sweep_axis = rho_db\nvalues = 5,10\ndecoders = rls,box\n"
            "t_policy = numeric_optimal\n")
        assert code == 3 and len(calls) == 2
        [failed] = [r for r in rows if r["error"]]
        kept = [r for r in rows if not r["error"]]
        assert (failed["rho_db"], failed["decoder"], failed["error"]) == (
            "5.0", "box", "t search stalled")
        assert failed["lambda"] == failed["t_box"] == failed["mse_theory"] == ""
        assert failed["mse_sim"] == "" and failed["trials"] == "0"
        assert len(kept) == 3
        assert all(float(r["mse_sim"]) > 0 and r["trials"] == "2" for r in kept)

    @pytest.mark.parametrize("knob_lines, message", [
        ("sweep_axis = rho_db\nvalues = 10\nlambda_policy = -1\n",
         "lambda must be finite and nonnegative, got -1.0"),
        ("sweep_axis = lambda\nvalues = -0.1,0.5\n",
         "lambda must be finite and nonnegative, got -0.1"),
        ("sweep_axis = t_box\nvalues = 0,1\n", "t_box must be finite and positive, got 0.0"),
        ("sweep_axis = rho_db\nvalues = 10\nt_policy = inf\n",
         "t_box must be finite and positive, got inf"),
        ("sweep_axis = rho_db\nvalues = 10\nlambda = 0.3\n", "unknown config key 'lambda'"),
        ("sweep_axis = rho_db\nvalues = 10\nt_policy = numeric_optimal\nt_box = 1\n",
         "unknown config key 't_box'"),
        ("sweep_axis = rho_db\nvalues = 10\nlambda_policy = fixed\nlambda = 0.3\n",
         "unknown config key 'lambda'"),
        ("sweep_axis = rho_db\nvalues = 10\nlambda_policy = fixed\n",
         "key 'lambda_policy': expected closed_form_optimal|numeric_optimal|a number, "
         "got 'fixed'"),
        ("sweep_axis = rho_db\nvalues = 10\nt_policy = Fixed\n",
         "key 't_policy': expected max_symbol|numeric_optimal|a number, got 'fixed'"),
        ("sweep_axis = tau_p\nvalues = 1.25,nan\n", "values must be finite"),
        ("sweep_axis = rho_db\nvalues = 5,inf\n", "values must be finite"),
        ("sweep_axis = rho_db\nvalues = 10\nmaster_seed = -1\n",
         "master_seed must be nonnegative, got -1"),
        ("sweep_axis = rho_db\nvalues = ,\n", "values must be non-empty"),
        ("sweep_axis = rho_db\nvalues = 5,ten\n", "key 'values': expected a number, got 'ten'"),
    ], ids=["fixed-lambda", "lambda-axis", "t-axis", "fixed-t-inf", "lambda-unread",
            "t-box-unread", "old-fixed-form", "fixed-lambda-missing", "fixed-t-box-missing",
            "tau-p-nan", "rho-db-inf", "negative-seed", "values-empty", "values-not-a-number"])
    def test_bad_knob_value_is_exit_2(self, tmp_path, capsys, knob_lines, message):
        path = tmp_path / "knob.cfg"
        path.write_text(
            "k = 32\nn = 40\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\ndecoders = rls,box\ntrials = 0\n" + knob_lines
        )
        out = tmp_path / "knob.csv"
        assert cli_main(["predict", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ok.cfg"
        path.write_text(
            "k = 32\nn = 40\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\ndecoders = rls\ntrials = 0\nsweep_axis = rho_db\nvalues = 10\n"
        )
        # the CSV goes into a directory that does not exist
        argv = ["predict", "--config", str(path), "--out", str(tmp_path / "missing" / "out.csv")]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ok.cfg"]

    def test_report_option_is_refused(self, tmp_path, capsys, monkeypatch):
        # the report goes to stdout only; argparse refuses --report before anything is written
        monkeypatch.chdir(tmp_path)
        cfg = self._write_cfg(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["predict", "--config", cfg, "--report", str(tmp_path / "report.txt")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --report" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]

    @pytest.mark.parametrize("lines", [
        "rho_db = 4000\nsweep_axis = alpha\nvalues = 0.5\n",
        "rho_db = 10\nsweep_axis = rho_db\nvalues = 10,4000\n",
    ], ids=["key", "sweep-value"])
    def test_overflowing_rho_db_is_exit_2(self, tmp_path, capsys, lines):
        # 10^(4000/10) is beyond the float range
        path = tmp_path / "loud.cfg"
        path.write_text("k = 32\nn = 40\nt_total = 96\nt_pilot = 40\nalpha = 0.5\n"
                        "m = 2\ndecoders = rls\ntrials = 0\n" + lines)
        out = tmp_path / "loud.csv"
        assert cli_main(["predict", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("rho_db, code", [("3075", 3), ("3080", 2)])
    def test_optimal_split_refuses_an_overflowing_block_energy(
            self, tmp_path, capsys, rho_db, code):
        # on the fig6 block rho tau / tau_d overflows at 3080 dB; at 3075 dB alpha*
        # solves, and the box row alone fails its saddle search
        path = tmp_path / "loud.cfg"
        path.write_text(Path(preset_path("fig6")).read_text().replace(
            "rho_db = 15\n", f"rho_db = {rho_db}\n"))
        out = tmp_path / "loud.csv"
        assert cli_main(["optimize-power", "--config", str(path), "--out", str(out)]) == code
        printed = capsys.readouterr()
        assert "nan" not in printed.out + printed.err
        if code == 2:
            assert printed.err == (f"config error: alpha_star: rho tau / tau_d overflows "
                                   f"at rho_db={float(rho_db)!r}\n")
            assert not out.exists()
        else:
            assert f"rho_db={float(rho_db)}: alpha_star=0.630283" in printed.out

    @pytest.mark.parametrize("lines", [
        "rho_db = -3235\nalpha = 0.01\nsweep_axis = alpha\nvalues = 0.01\n",
        "rho_db = -170\nalpha = 0.5\nsweep_axis = rho_db\nvalues = -170\n",
    ], ids=["data-power", "pilot-energy"])
    def test_underflowing_effective_snr_is_exit_2(self, tmp_path, capsys, lines):
        # rho_d, or the pilot energy's share of rho_eff, rounds to 0
        path = tmp_path / "quiet.cfg"
        path.write_text("k = 400\nn = 480\nt_total = 1000\nt_pilot = 456\nm = 2\n"
                        "power_convention = direct\ndecoders = rls,box\ntrials = 0\n" + lines)
        out = tmp_path / "quiet.csv"
        assert cli_main(["predict", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert "rho_db=" in err and "alpha=" in err
        assert not out.exists()

    def test_fixed_lambda_is_echoed_exactly(self):
        # lambda = 0.37 is not lam~ lambda* / lambda* read back, it is the
        # configured value; ridge rows leave t_box empty
        spec = small_spec(decoders=(DecoderKind.RLS, DecoderKind.BOX), lam=0.37)
        rows = list(csv.DictReader(io.StringIO(records_to_csv(run(spec, "predict").records))))
        assert [r["lambda"] for r in rows] == ["0.37"] * 4
        assert [r["t_box"] == "" for r in rows] == [True, False, True, False]
        axis = small_spec(sweep_axis=SweepAxis.LAMBDA, values=(0.1, 0.37))
        assert [rec.lam for rec in run(axis, "predict").records] == [0.1, 0.37]

    def test_flagged_compare_is_exit_4(self, tmp_path, capsys, monkeypatch):
        # the simulation is replaced by stats far outside 3 sigma of theory,
        # so the gate's exit code is tested, not a lucky draw
        far = BatchStats(trials=2, mean_mse=10.0, mean_ser=0.5, stderr_mse=1e-3, stderr_ser=1e-3)
        monkeypatch.setattr(mimopam.runner, "run_batch", lambda points, *args, **kwargs: [
            [far] * len(specs) for _, specs in points])
        path = tmp_path / "flag.cfg"
        path.write_text(
            "k = 32\nn = 40\nt_total = 96\nt_pilot = 40\nrho_db = 10\nalpha = 0.5\n"
            "m = 2\nsweep_axis = rho_db\nvalues = 10\ndecoders = rls\ntrials = 2\n"
            "power_convention = direct\nmaster_seed = 1\n"
        )
        out = str(tmp_path / "flag.csv")
        assert cli_main(["compare", "--config", str(path), "--out", out]) == 4
        assert "FLAGGED" in capsys.readouterr().out

    def _compare_on(self, tmp_path, monkeypatch, batch_of, decoder, rho_db):
        """compare at K=32, N=48 with run_batch replaced by batch_of(cfg,
        spec, prediction) for each spec of each point; returns the exit code."""
        monkeypatch.setattr(mimopam.runner, "run_batch", lambda points, *args, **kwargs: [
            [batch_of(cfg, spec, predict(cfg, spec)) for spec, _ in specs]
            for cfg, specs in points])
        path = tmp_path / "gate.cfg"
        path.write_text(
            "k = 32\nn = 48\nt_total = 96\nt_pilot = 40\nrho_db = 0\nalpha = 0.5\n"
            f"m = 2\nsweep_axis = rho_db\nvalues = {rho_db}\ndecoders = {decoder}\n"
            "trials = 2\npower_convention = direct\nmaster_seed = 1\n"
        )
        return cli_main(["compare", "--config", str(path), "--out", str(tmp_path / "gate.csv")])

    def test_compare_refers_ls_to_its_exact_finite_k_mse(self, tmp_path, capsys, monkeypatch):
        # the batch mean is K/(rho_eff (N-K-1)), 6.25 standard errors above
        # the asymptote K/(rho_eff (N-K))
        def exact(cfg, spec, pred):
            mse = cfg.k / (derive_params(cfg).rho_eff * (cfg.n - cfg.k - 1))
            return BatchStats(trials=400, mean_mse=mse, mean_ser=pred.sep,
                              stderr_mse=0.01 * mse, stderr_ser=0.01)

        assert self._compare_on(tmp_path, monkeypatch, exact, "ls", 10) == 0
        assert "z_mse=0 z_ser=0" in capsys.readouterr().out

    def test_compare_scores_a_zero_error_batch_by_its_binomial_floor(
            self, tmp_path, capsys, monkeypatch):
        # no symbol error in 100 trials of 32 symbols at a predicted SEP of
        # 4.3e-5 is what the theory expects, although the SER stderr is 0
        def error_free(cfg, spec, pred):
            return BatchStats(trials=100, mean_mse=pred.mse, mean_ser=0.0,
                              stderr_mse=0.01 * pred.mse, stderr_ser=0.0)

        assert self._compare_on(tmp_path, monkeypatch, error_free, "rls", 20) == 0
        assert "z_ser=-0.369" in capsys.readouterr().out

    def test_compare_flags_a_ser_gap_alone(self, tmp_path, capsys, monkeypatch):
        def wrong_ser(cfg, spec, pred):
            return BatchStats(trials=100, mean_mse=pred.mse, mean_ser=pred.sep + 0.05,
                              stderr_mse=0.01 * pred.mse, stderr_ser=0.01)

        assert self._compare_on(tmp_path, monkeypatch, wrong_ser, "rls", 10) == 4
        assert "z_mse=0 z_ser=5 " in capsys.readouterr().out


class TestCliProcess:
    """python -m mimopam.cli as users run it, in a fresh interpreter whose
    stdout and stderr are pipes, so block-buffered: the outputs must be
    flushed before the process ends."""

    def test_piped_run_delivers_the_report_and_every_row(self, tmp_path):
        spec = load_config(preset_path("fig6"))
        out = tmp_path / "fig6.csv"
        proc = run_process(["-m", "mimopam.cli", "predict", "--config", str(preset_path("fig6")),
                            "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, "")
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(spec.values) * len(spec.decoders)
        report = (GOLDEN / "predict_fig6.txt").read_text(encoding="utf-8")
        assert proc.stdout == report + f"wrote {len(rows)} rows to {out}\n"

    def test_config_error_is_exit_2_with_its_whole_message(self, tmp_path):
        missing, out = tmp_path / "nope.cfg", tmp_path / "x.csv"
        proc = run_process(["-m", "mimopam.cli", "predict", "--config", str(missing),
                            "--out", str(out)])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == ("config error: [Errno 2] No such file or directory: "
                               f"{str(missing)!r}\n")
        assert not out.exists()

    def test_atexit_callbacks_run_and_their_output_arrives(self, tmp_path):
        out = tmp_path / "fig6.csv"
        code = ("import atexit; from mimopam.cli import run_and_exit; "
                "atexit.register(print, 'atexit ran'); "
                f"run_and_exit(['predict', '--config', {str(preset_path('fig6'))!r}, "
                f"'--out', {str(out)!r}])")
        proc = run_process(["-c", code])
        assert proc.returncode == 0
        assert proc.stdout.endswith(f" rows to {out}\natexit ran\n")

    def test_profiler_sees_the_process_end(self, tmp_path):
        # cProfile prints its table after the module returns, so the run must
        # end by SystemExit, not os._exit
        proc = run_process(["-m", "cProfile", "-m", "mimopam.cli", "predict", "--config",
                            str(preset_path("prop1")), "--out", str(tmp_path / "p.csv")])
        assert proc.returncode == 0
        assert "function calls" in proc.stdout


class TestRunAndExit:
    """run_and_exit in-process, with main replaced by one that returns a
    given code and os._exit and the atexit run recorded instead of done."""

    @pytest.fixture
    def ends(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "_exit", lambda code: calls.append(("os._exit", code)))
        monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: calls.append("atexit"))
        monkeypatch.setattr(mimopam.cli, "main", lambda argv=None: 3)
        return calls

    @pytest.mark.parametrize("code", [0, 2, 3, 4])
    def test_code_passes_to_os_exit_after_the_atexit_callbacks(self, ends, monkeypatch, code):
        monkeypatch.setattr(mimopam.cli, "main", lambda argv=None: code)
        # as if no tracer watched, so the case holds under a coverage run too
        monkeypatch.setattr(mimopam.cli, "_observed", lambda: False)
        mimopam.cli.run_and_exit([])
        assert ends == ["atexit", ("os._exit", code)]

    @pytest.mark.parametrize("getter, setter", [(sys.gettrace, sys.settrace),
                                                (sys.getprofile, sys.setprofile)],
                             ids=["trace", "profile"])
    def test_attached_tracer_takes_the_system_exit_path(self, ends, getter, setter):
        attached = getter()
        setter(lambda *args: None)
        try:
            with pytest.raises(SystemExit) as exc:
                mimopam.cli.run_and_exit([])
        finally:
            setter(attached)
        assert exc.value.code == 3 and ends == []

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring is new in 3.12")
    def test_monitoring_tool_takes_the_system_exit_path(self, ends):
        monitoring = sys.monitoring
        tool = next(t for t in range(6) if monitoring.get_tool(t) is None)
        monitoring.use_tool_id(tool, "mimopam-test")
        try:
            with pytest.raises(SystemExit) as exc:
                mimopam.cli.run_and_exit([])
        finally:
            monitoring.free_tool_id(tool)
        assert exc.value.code == 3 and ends == []

    def test_failed_flush_takes_the_system_exit_path(self, ends, monkeypatch):
        class ClosedPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(mimopam.cli, "_observed", lambda: False)
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(SystemExit) as exc:
            mimopam.cli.run_and_exit([])
        assert exc.value.code == 3 and ends == []
