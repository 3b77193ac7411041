"""Monte Carlo machinery: pilots, channel estimation, trials, batches."""

import math

import numpy as np
import pytest

from mimopam import (
    ConfigError,
    DecoderSpec,
    PowerConvention,
    SystemConfig,
    aggregate,
    decoders,
    derive_params,
    estimate_channel,
    lambda_star_rls,
    make_pilots,
    predict,
    run_batch,
    run_trial,
    trial_stream,
)

# Same antenna/training ratios as the published K=400 scenario, downsized for
# test runtime; every derived constant (delta, sigma_delta_sq, rho_eff) and
# hence every asymptotic value is unchanged.
SCALED = dict(k=200, n=240, t_total=500, t_pilot=228)


def batch_inputs(cfg, spec, seed):
    """The pilot matrix and debias constant run_batch hands to run_trial."""
    return make_pilots(cfg.k, cfg.t_pilot, seed), predict(cfg, spec).b_norm


def scaled_cfg(rho_db, **kw):
    args = dict(SCALED, rho=10 ** (rho_db / 10), alpha=0.5, m=2,
                power_convention=PowerConvention.DIRECT_SPLIT)
    args.update(kw)
    return SystemConfig(**args)


class TestMakePilots:
    def test_degenerate_one_by_one(self):
        x = make_pilots(1, 1, 0)
        assert x.shape == (1, 1)
        assert abs(x[0, 0]) == pytest.approx(1.0)

    def test_orthogonality(self):
        x = make_pilots(4, 8, 3)
        np.testing.assert_allclose(x @ x.T, 8 * np.eye(4), atol=1e-9)

    def test_row_norms(self):
        x = make_pilots(5, 12, 3)
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), math.sqrt(12) * np.ones(5))

    def test_deterministic_given_seed(self):
        np.testing.assert_array_equal(make_pilots(4, 8, 9), make_pilots(4, 8, 9))
        assert not np.array_equal(make_pilots(4, 8, 9), make_pilots(4, 8, 10))

    def test_cached_matrix_is_read_only_and_unchanged(self):
        fresh = make_pilots.__wrapped__(6, 9, 4)
        cached = make_pilots(6, 9, 4)
        assert make_pilots(6, 9, 4) is cached
        assert not cached.flags.writeable
        np.testing.assert_array_equal(cached, fresh)

    def test_rejects_short_block(self):
        with pytest.raises(ConfigError):
            make_pilots(8, 4, 0)


class TestEstimateChannel:
    def test_split_is_by_construction(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((24, 16))
        x_p = make_pilots(16, 20, 1)
        hhat, delta = estimate_channel(h, x_p, 0.8, 123)
        np.testing.assert_array_equal(delta, h - hhat)
        np.testing.assert_allclose(hhat + delta, h, rtol=0, atol=1e-13)

    def test_error_vanishes_at_high_training_power(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((48, 32))
        x_p = make_pilots(32, 40, 1)
        _, delta = estimate_channel(h, x_p, 1e12, 5)
        assert delta.var() < 1e-9

    def test_variances_match_training_model(self):
        # K=400-scenario constants: sigma_delta_sq = 400/628
        k, n, t_p, rho_p = 400, 480, 456, 0.5
        want = 1 / (1 + rho_p * t_p / k)
        x_p = make_pilots(k, t_p, 2)
        var_d, var_h, cross = [], [], []
        rng = np.random.default_rng(7)
        for _ in range(40):
            h = rng.standard_normal((n, k))
            hhat, delta = estimate_channel(h, x_p, rho_p, rng)
            var_d.append(delta.var())
            var_h.append(hhat.var())
            cross.append((hhat * delta).mean())
        for sample, target in ((var_d, want), (var_h, 1 - want), (cross, 0.0)):
            sample = np.asarray(sample)
            se = sample.std(ddof=1) / math.sqrt(len(sample))
            assert abs(sample.mean() - target) <= 5 * se

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ConfigError):
            estimate_channel(np.zeros((4, 2)), make_pilots(2, 4, 0), 0.0, 1)


class TestRunTrial:
    def test_exact_inversion_regime(self):
        # enormous power: near-perfect estimate, noise negligible after scaling
        cfg = scaled_cfg(300.0, lam=0.0)
        out = run_trial(cfg, DecoderSpec.ls(), 5, 0, *batch_inputs(cfg, DecoderSpec.ls(), 5))
        assert out.ser == 0.0
        assert out.mse <= 1e-18

    def test_deterministic_given_seed_path(self):
        cfg = scaled_cfg(10.0)
        spec = DecoderSpec.rls(0.5)
        inputs = batch_inputs(cfg, spec, 12)
        a = run_trial(cfg, spec, 12, 3, *inputs)
        b = run_trial(cfg, spec, 12, 3, *inputs)
        assert (a.mse, a.ser) == (b.mse, b.ser)
        c = run_trial(cfg, spec, 12, 4, *inputs)
        assert (a.mse, a.ser) != (c.mse, c.ser)

    def test_ser_is_integer_multiple_of_inverse_k(self):
        cfg = scaled_cfg(5.0)
        out = run_trial(cfg, DecoderSpec.lmmse(), 2, 0, *batch_inputs(cfg, DecoderSpec.lmmse(), 2))
        assert out.mse >= 0
        assert 0.0 <= out.ser <= 1.0
        assert (out.ser * cfg.k) == pytest.approx(round(out.ser * cfg.k), abs=1e-9)

    def test_trial_stream_independent_of_pilot_stream(self):
        # the pilot stream tag must not collide with small trial indices
        s = trial_stream(42, 0)
        t = trial_stream(42, 1)
        assert s.integers(0, 2**31) != t.integers(0, 2**31)


class TestTheoryAgreement:
    def test_rls_matches_reference_point(self):
        # scaled scenario at 20 dB keeps the published value 0.109182...
        cfg = scaled_cfg(20.0)
        dp = derive_params(cfg)
        lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
        pred = predict(cfg, DecoderSpec.rls(lam))
        assert pred.mse == pytest.approx(0.10918244834212, rel=1e-10)
        stats = run_batch(cfg, DecoderSpec.rls(lam), trials=150, master_seed=424)
        assert abs(stats.mean_mse - pred.mse) <= 3 * stats.stderr_mse
        assert abs(stats.mean_ser - pred.sep) <= 3 * max(
            stats.stderr_ser, math.sqrt(pred.sep * (1 - pred.sep) / (150 * cfg.k))
        )

    def test_box_agrees_with_saddle_prediction(self):
        cfg = scaled_cfg(10.0, k=100, n=120, t_total=250, t_pilot=114)
        dp = derive_params(cfg)
        spec = DecoderSpec.box(lambda_star_rls(dp.rho_d, dp.sigma_delta_sq), 1.0)
        pred = predict(cfg, spec)
        stats = run_batch(cfg, spec, trials=200, master_seed=77)
        assert abs(stats.mean_mse - pred.mse) <= 3 * stats.stderr_mse

    def test_debias_norm_lowers_ser_for_multilevel_symbols(self):
        # scaling cannot move a binary decision, so the normalization A/B
        # comparison is run at M=4 where the ridge shrinkage is destructive
        cfg = scaled_cfg(10.0, m=4, k=100, n=120, t_total=250, t_pilot=114)
        dp = derive_params(cfg)
        lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
        spec = DecoderSpec.rls(lam)
        pilots, b_norm = batch_inputs(cfg, spec, 3)
        debiased = [run_trial(cfg, spec, 3, i, pilots, b_norm) for i in range(40)]
        raw = [run_trial(cfg, spec, 3, i, pilots, 1.0) for i in range(40)]
        assert np.mean([o.ser for o in debiased]) < np.mean([o.ser for o in raw])

    def test_box_no_worse_than_ridge_at_shared_settings(self):
        # same seed, same lambda, box threshold at the largest symbol
        for rho_db in (5.0, 15.0):
            cfg = scaled_cfg(rho_db, k=100, n=120, t_total=250, t_pilot=114)
            dp = derive_params(cfg)
            lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
            rls_stats = run_batch(cfg, DecoderSpec.rls(lam), trials=150, master_seed=31)
            box_stats = run_batch(cfg, DecoderSpec.box(lam, 1.0), trials=150, master_seed=31)
            gate = 2 * math.hypot(rls_stats.stderr_mse, box_stats.stderr_mse)
            assert box_stats.mean_mse <= rls_stats.mean_mse + gate


class TestRunBatch:
    def test_single_trial_stats(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        stats = run_batch(cfg, DecoderSpec.lmmse(), trials=1, master_seed=9)
        single = run_trial(cfg, DecoderSpec.lmmse(), 9, 0, *batch_inputs(cfg, DecoderSpec.lmmse(), 9))
        assert stats.mean_mse == single.mse
        assert stats.stderr_mse == 0.0
        assert stats.stderr_ser == 0.0

    def test_reproducible_bitwise(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        a = run_batch(cfg, DecoderSpec.rls(0.4), trials=20, master_seed=5)
        b = run_batch(cfg, DecoderSpec.rls(0.4), trials=20, master_seed=5)
        assert a == b

    def test_parallel_reduction_matches_sequential(self, monkeypatch):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        for spec in (DecoderSpec.rls(0.4), DecoderSpec.box(0.4, 1.0)):
            seq = run_batch(cfg, spec, trials=16, master_seed=5, workers=1)
            par = run_batch(cfg, spec, trials=16, master_seed=5, workers=4)
            assert seq == par
        # the box decoder once more on its coordinate-descent fallback
        monkeypatch.setattr(decoders, "AS_MAX_ITER", 0)
        seq = run_batch(cfg, DecoderSpec.box(0.4, 1.0), trials=16, master_seed=5, workers=1)
        par = run_batch(cfg, DecoderSpec.box(0.4, 1.0), trials=16, master_seed=5, workers=4)
        assert seq == par

    def test_stderr_shrinks_with_more_trials(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        small = run_batch(cfg, DecoderSpec.rls(0.4), trials=40, master_seed=6)
        large = run_batch(cfg, DecoderSpec.rls(0.4), trials=160, master_seed=6)
        assert large.stderr_mse < small.stderr_mse

    def test_aggregate_order_invariance(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        inputs = batch_inputs(cfg, DecoderSpec.rls(0.4), 5)
        outs = [run_trial(cfg, DecoderSpec.rls(0.4), 5, i, *inputs) for i in range(8)]
        a = aggregate(outs)
        rng = np.random.default_rng(3)
        for _ in range(5):
            b = aggregate([outs[i] for i in rng.permutation(len(outs))])
            assert b.trials == a.trials
            for field in ("mean_mse", "mean_ser", "stderr_mse", "stderr_ser"):
                assert getattr(b, field) == pytest.approx(getattr(a, field), rel=1e-12, abs=1e-15)

    def test_rejects_zero_trials(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        with pytest.raises(ConfigError):
            run_batch(cfg, DecoderSpec.ls(), trials=0, master_seed=1)
