"""Monte Carlo machinery: the effective-model sampler against the explicit
training phase (pilots, channel estimation), trials, batches."""

import math
import sys
import threading

import numpy as np
import pytest
from oracles import (
    box_decode, draw_trial, explicit_training_trial, ls_bpsk_ser_exact, point_column,
    ridge_decode,
)
from scipy.integrate import quad
from scipy.special import erfc
from scipy.stats import chi2

from mimopam import (
    BatchStats,
    ConfigError,
    DecoderSpec,
    PowerConvention,
    SystemConfig,
    ConvergenceError,
    derive_params,
    predict,
    run_batch,
)
from mimopam import asymptotics, simulate
from mimopam.simulate import (
    TrialOutcome, aggregate, bonferroni_z, estimate_channel, make_pilots, run_trial,
    trial_stream,
)
from mimopam.system import lambda_star_rls, pam_points, slice_symbols

# Same antenna/training ratios as the published K=400 scenario, downsized for
# test runtime; every derived constant (delta, sigma_delta_sq, rho_eff) and
# hence every asymptotic value is unchanged.
SCALED = dict(k=200, n=240, t_total=500, t_pilot=228)


def tilde(cfg, lam):
    """lam~ = lam / lambda* of a raw ridge coefficient lam."""
    return lam / derive_params(cfg).lambda_star


def b_norm_of(cfg, spec):
    """The debias constant run_batch hands to run_trial."""
    return predict(cfg, spec).b_norm


def point_of(cfg, specs):
    """A run_batch point: cfg and its specs with B from predict."""
    return cfg, tuple((spec, b_norm_of(cfg, spec)) for spec in specs)


def batch(cfg, specs, trials, master_seed, workers=1):
    """run_batch on the single point (cfg, specs): one entry per spec."""
    [entries] = run_batch([point_of(cfg, specs)], trials, master_seed, workers=workers)
    return entries


def scaled_cfg(rho_db, **kw):
    args = dict(SCALED, rho_db=rho_db, alpha=0.5, m=2,
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
        cfg = scaled_cfg(300.0)
        out = run_trial(cfg, DecoderSpec.ls(), draw_trial(cfg, 5, 0),
                        b_norm_of(cfg, DecoderSpec.ls()))
        assert out.ser == 0.0
        assert out.mse <= 1e-18

    def test_deterministic_given_seed_path(self):
        cfg = scaled_cfg(10.0)
        spec = DecoderSpec.rls(tilde(cfg, 0.5))
        b_norm = b_norm_of(cfg, spec)
        a = run_trial(cfg, spec, draw_trial(cfg, 12, 3), b_norm)
        b = run_trial(cfg, spec, draw_trial(cfg, 12, 3), b_norm)
        assert (a.mse, a.ser) == (b.mse, b.ser)
        c = run_trial(cfg, spec, draw_trial(cfg, 12, 4), b_norm)
        assert (a.mse, a.ser) != (c.mse, c.ser)

    def test_ser_is_integer_multiple_of_inverse_k(self):
        cfg = scaled_cfg(5.0)
        out = run_trial(cfg, DecoderSpec.lmmse(), draw_trial(cfg, 2, 0),
                        b_norm_of(cfg, DecoderSpec.lmmse()))
        assert out.mse >= 0
        assert 0.0 <= out.ser <= 1.0
        assert (out.ser * cfg.k) == pytest.approx(round(out.ser * cfg.k), abs=1e-9)

    def test_trial_stream_independent_of_pilot_stream(self):
        # the pilot stream tag must not collide with small trial indices
        s = trial_stream(42, 0)
        t = trial_stream(42, 1)
        assert s.integers(0, 2**31) != t.integers(0, 2**31)


# The equivalence scenario: the published ratios at K=50.
EQUIV = dict(k=50, n=60, t_total=125, t_pilot=57)
# family-wise false-alarm budget of each equivalence test below
EQUIV_FALSE_ALARM = 1e-3


def effective_draw(cfg, seed, idx):
    """(A, x0, w) replayed from a trial stream in draw_trial's draw order."""
    dp = derive_params(cfg)
    rng = trial_stream(seed, idx)
    a = math.sqrt(dp.rho_eff / cfg.k) * rng.standard_normal((cfg.n, cfg.k))
    x0 = pam_points(cfg.m)[rng.integers(0, cfg.m, size=cfg.k)]
    c = dp.rho_d * dp.sigma_delta_sq
    w = math.sqrt((1.0 + c * float(x0 @ x0) / cfg.k) / (1.0 + c)) * rng.standard_normal(cfg.n)
    return a, x0, w


def explicit_draw(cfg, pilots, seed, idx):
    """(A, x0, w) of the training-phase model, divided by s = noise_std."""
    s = derive_params(cfg).noise_std
    a, y, x0 = explicit_training_trial(cfg, pilots, trial_stream(seed, idx))
    return a / s, x0, (y - a @ x0) / s


def z_of(samples, target):
    samples = np.asarray(samples)
    return (samples.mean() - target) / (samples.std(ddof=1) / math.sqrt(len(samples)))


class TestEffectiveModel:
    def test_run_trial_decodes_the_replayed_draw(self):
        # the decoder solves with its lam~, LMMSE's 1 exactly; the simulator
        # forms (G, r) from the unscaled channel, so the MSE agrees to
        # rounding, while a draw in another order would move it by O(1)
        cfg = scaled_cfg(5.0, m=4, **EQUIV)
        ridge = tilde(cfg, 0.3)
        for spec, lam_tilde in ((DecoderSpec.rls(ridge), ridge), (DecoderSpec.lmmse(), 1.0),
                                (DecoderSpec.box(ridge, 3 / math.sqrt(5)), ridge)):
            b_norm = b_norm_of(cfg, spec)
            for idx in range(3):
                a, x0, w = effective_draw(cfg, 8, idx)
                if spec.t_box == math.inf:
                    x_hat = ridge_decode(a, a @ x0 + w, lam_tilde)
                else:
                    x_hat, _ = box_decode(a, a @ x0 + w, lam_tilde, spec.t_box)
                draw = draw_trial(cfg, 8, idx)
                mse = run_trial(cfg, spec, draw, b_norm).mse
                assert mse == pytest.approx(float(np.mean((x_hat - x0) ** 2)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("draw", ["effective", "explicit"])
    def test_moments_of_the_effective_model(self, draw):
        # 4-PAM, energy split, 0 dB: c = rho_d sigma_delta^2 = 0.41, so the
        # noise variance moves with |x0|^2 by c / (1 + c) = 0.29 per unit
        cfg = scaled_cfg(0.0, m=4, power_convention=PowerConvention.ENERGY_CONSERVING, **EQUIV)
        dp = derive_params(cfg)
        c = dp.rho_d * dp.sigma_delta_sq
        var_a = dp.rho_eff / cfg.k
        pilots = make_pilots(cfg.k, cfg.t_pilot, 4)
        stats = {name: [] for name in ("a2", "a4", "w2", "cross", "slope")}
        for idx in range(2000):
            if draw == "effective":
                a, x0, w = effective_draw(cfg, 4, idx)
            else:
                a, x0, w = explicit_draw(cfg, pilots, 4, idx)
            q = float(x0 @ x0) / cfg.k
            w_var = (1.0 + c * q) / (1.0 + c)
            stats["a2"].append(np.mean(a * a) / var_a)
            stats["a4"].append(np.mean(a**4) / var_a**2)
            stats["w2"].append(np.mean(w * w) / w_var)
            stats["cross"].append(np.mean(a * w[:, None]) / math.sqrt(var_a))
            # a noise variance that ignored |x0|^2 would tilt this by -c/(1+c) var(q)
            stats["slope"].append((np.mean(w * w) - w_var) * (q - 1.0))
        targets = {"a2": 1.0, "a4": 3.0, "w2": 1.0, "cross": 0.0, "slope": 0.0}
        z_gate = bonferroni_z(EQUIV_FALSE_ALARM, len(targets))
        zs = {name: z_of(stats[name], targets[name]) for name in targets}
        assert all(abs(z) <= z_gate for z in zs.values()), zs

    @pytest.mark.slow
    def test_batch_means_match_the_training_phase(self):
        # LS is left out: at N - K = 10 its MSE is heavy-tailed, and a z on
        # a few thousand trials says little about it. Each cell and path has
        # its own master seed, so the cells are independent.
        trials = 2000
        cells = [(m, conv, spec_of)
                 for m in (2, 4) for conv in PowerConvention
                 for spec_of in ("rls", "box")]
        z_gate = bonferroni_z(EQUIV_FALSE_ALARM, 2 * len(cells))
        zs = {}
        for i, (m, conv, spec_of) in enumerate(cells):
            cfg = scaled_cfg(10.0, m=m, power_convention=conv, **EQUIV)
            dp = derive_params(cfg)
            points = pam_points(m)
            spec = (DecoderSpec.rls(1.0) if spec_of == "rls"
                    else DecoderSpec.box(1.0, points[-1]))
            b_norm = b_norm_of(cfg, spec)
            [effective] = batch(cfg, (spec,), trials=trials, master_seed=2 * i + 1)
            pilots = make_pilots(cfg.k, cfg.t_pilot, 2 * i + 2)
            lam_rho_d = spec.lam_tilde * dp.lambda_star * dp.rho_d
            outcomes = []
            for idx in range(trials):
                a, y, x0 = explicit_training_trial(cfg, pilots, trial_stream(2 * i + 2, idx))
                if spec.t_box == math.inf:
                    x_hat = ridge_decode(a, y, lam_rho_d)
                else:
                    x_hat, _ = box_decode(a, y, lam_rho_d, spec.t_box)
                x_star = slice_symbols(x_hat / b_norm, points)
                outcomes.append(TrialOutcome(mse=float(np.mean((x_hat - x0) ** 2)),
                                             ser=float(np.mean(x_star != x0))))
            explicit = aggregate(outcomes)
            for metric in ("mse", "ser"):
                gap = getattr(effective, f"mean_{metric}") - getattr(explicit, f"mean_{metric}")
                se = math.hypot(getattr(effective, f"stderr_{metric}"),
                                getattr(explicit, f"stderr_{metric}"))
                zs[(m, conv.value, spec_of, metric)] = gap / se
        assert all(abs(z) <= z_gate for z in zs.values()), zs


class TestTheoryAgreement:
    def test_rls_matches_reference_point(self):
        # scaled scenario at 20 dB keeps the published value 0.109182...
        cfg = scaled_cfg(20.0)
        dp = derive_params(cfg)
        lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
        pred = predict(cfg, DecoderSpec.rls(tilde(cfg, lam)))
        assert pred.mse == pytest.approx(0.10918244834212, rel=1e-10)
        [stats] = batch(cfg, (DecoderSpec.rls(tilde(cfg, lam)),), trials=150, master_seed=424)
        assert abs(stats.mean_mse - pred.mse) <= 3 * stats.stderr_mse
        assert abs(stats.mean_ser - pred.sep) <= 3 * max(
            stats.stderr_ser, math.sqrt(pred.sep * (1 - pred.sep) / (150 * cfg.k))
        )

    def test_box_agrees_with_saddle_prediction(self):
        cfg = scaled_cfg(10.0, k=100, n=120, t_total=250, t_pilot=114)
        dp = derive_params(cfg)
        spec = DecoderSpec.box(tilde(cfg, lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)), 1.0)
        pred = predict(cfg, spec)
        [stats] = batch(cfg, (spec,), trials=200, master_seed=77)
        assert abs(stats.mean_mse - pred.mse) <= 3 * stats.stderr_mse

    def test_debias_norm_lowers_ser_for_multilevel_symbols(self):
        # scaling cannot move a binary decision, so the normalization A/B
        # comparison is run at M=4 where the ridge shrinkage is destructive
        cfg = scaled_cfg(10.0, m=4, k=100, n=120, t_total=250, t_pilot=114)
        dp = derive_params(cfg)
        lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
        spec = DecoderSpec.rls(tilde(cfg, lam))
        b_norm = b_norm_of(cfg, spec)
        debiased = [run_trial(cfg, spec, draw_trial(cfg, 3, i), b_norm) for i in range(40)]
        raw = [run_trial(cfg, spec, draw_trial(cfg, 3, i), 1.0) for i in range(40)]
        assert np.mean([o.ser for o in debiased]) < np.mean([o.ser for o in raw])

    def test_box_no_worse_than_ridge_at_shared_settings(self):
        # same seed, same lambda, box threshold at the largest symbol
        for rho_db in (5.0, 15.0):
            cfg = scaled_cfg(rho_db, k=100, n=120, t_total=250, t_pilot=114)
            dp = derive_params(cfg)
            lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
            [rls_stats] = batch(cfg, (DecoderSpec.rls(tilde(cfg, lam)),), trials=150,
                                    master_seed=31)
            [box_stats] = batch(cfg, (DecoderSpec.box(tilde(cfg, lam), 1.0),), trials=150,
                                    master_seed=31)
            gate = 2 * math.hypot(rls_stats.stderr_mse, box_stats.stderr_mse)
            assert box_stats.mean_mse <= rls_stats.mean_mse + gate


class TestRunBatch:
    def test_single_trial_stats(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        [stats] = batch(cfg, (DecoderSpec.lmmse(),), trials=1, master_seed=9)
        single = run_trial(cfg, DecoderSpec.lmmse(), draw_trial(cfg, 9, 0),
                           b_norm_of(cfg, DecoderSpec.lmmse()))
        assert stats.mean_mse == single.mse
        assert stats.stderr_mse == 0.0
        assert stats.stderr_ser == 0.0

    def test_reproducible_bitwise(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        a = batch(cfg, (DecoderSpec.rls(tilde(cfg, 0.4)),), trials=20, master_seed=5)
        b = batch(cfg, (DecoderSpec.rls(tilde(cfg, 0.4)),), trials=20, master_seed=5)
        assert a == b

    def test_parallel_reduction_matches_sequential(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        for spec in (DecoderSpec.rls(tilde(cfg, 0.4)), DecoderSpec.box(tilde(cfg, 0.4), 1.0)):
            seq = batch(cfg, (spec,), trials=16, master_seed=5, workers=1)
            par = batch(cfg, (spec,), trials=16, master_seed=5, workers=4)
            assert seq == par

    def test_stderr_shrinks_with_more_trials(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        [small] = batch(cfg, (DecoderSpec.rls(tilde(cfg, 0.4)),), trials=40, master_seed=6)
        [large] = batch(cfg, (DecoderSpec.rls(tilde(cfg, 0.4)),), trials=160, master_seed=6)
        assert large.stderr_mse < small.stderr_mse

    def test_aggregate_order_invariance(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        spec = DecoderSpec.rls(tilde(cfg, 0.4))
        b_norm = b_norm_of(cfg, spec)
        outs = [run_trial(cfg, spec, draw_trial(cfg, 5, i), b_norm) for i in range(8)]
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
            batch(cfg, (DecoderSpec.ls(),), trials=0, master_seed=1)


def counting_threads(monkeypatch):
    """Patch threading.Thread to record every thread that run_batch starts."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    return started


class TestOneExecutionPath:
    """The calling thread and min(workers, trials) - 1 helpers share one
    counter of trial indices, for every worker count."""

    CFG = scaled_cfg(10.0, k=16, n=20, t_total=40, t_pilot=19)

    def test_the_calling_thread_decodes(self, monkeypatch):
        # a helper's first trial waits until the caller has decoded one, so
        # the helper cannot take every index before the caller asks
        caller = threading.get_ident()
        decoded_by = []
        caller_decoded = threading.Event()
        real_trial = simulate.run_trial

        def recording(cfg, spec, draw, b_norm):
            decoded_by.append(threading.get_ident())
            if threading.get_ident() == caller:
                caller_decoded.set()
            else:
                caller_decoded.wait(timeout=10.0)
            return real_trial(cfg, spec, draw, b_norm)

        monkeypatch.setattr(simulate, "run_trial", recording)
        batch(self.CFG, (DecoderSpec.lmmse(),), trials=8, master_seed=2, workers=2)
        assert caller in decoded_by
        assert len(decoded_by) == 8
        assert len(set(decoded_by)) <= 2

    @pytest.mark.parametrize("workers, trials, helpers", [(1, 4, 0), (8, 2, 1), (2, 5, 1)])
    def test_helpers_started(self, monkeypatch, workers, trials, helpers):
        started = counting_threads(monkeypatch)
        batch(self.CFG, (DecoderSpec.lmmse(),), trials=trials, master_seed=2, workers=workers)
        assert len(started) == helpers
        assert not any(thread.is_alive() for thread in started)

    def test_fewer_trials_than_workers_matches_one_worker(self):
        specs = joint_specs(self.CFG)
        assert (batch(self.CFG, specs, trials=3, master_seed=8, workers=5)
                == batch(self.CFG, specs, trials=3, master_seed=8, workers=1))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_fault_reaches_the_caller_after_the_helpers_end(self, monkeypatch, workers):
        # run_trial raising anything but ConvergenceError is a fault, not an
        # outcome: no later index is handed out, and it is raised once every
        # helper has joined
        started = counting_threads(monkeypatch)
        trials = 6
        index_of = {draw_trial(self.CFG, 4, idx).zw.tobytes(): idx for idx in range(trials)}
        decoded = []
        real_trial = simulate.run_trial

        def failing_at_2(cfg, spec, draw, b_norm):
            idx = index_of[draw.zw.tobytes()]
            decoded.append(idx)
            if idx == 2:
                raise RuntimeError("fault on trial 2")
            return real_trial(cfg, spec, draw, b_norm)

        monkeypatch.setattr(simulate, "run_trial", failing_at_2)
        with pytest.raises(RuntimeError, match="fault on trial 2"):
            batch(self.CFG, (DecoderSpec.lmmse(),), trials=trials, master_seed=4,
                  workers=workers)
        assert len(started) == workers - 1
        assert not any(thread.is_alive() for thread in started)
        if workers == 1:
            assert decoded == [0, 1, 2]


class TestExactLsSer:
    """The finite-K LS SER of BPSK, E[Q(s R)] with R^2 ~ chi2(N - K + 1)."""

    @pytest.mark.parametrize("rho_db, table", [(5, 0.35883), (15, 0.1009), (25, 4.481e-5)])
    def test_matches_scipy_quadrature_on_fig2(self, rho_db, table):
        cfg = scaled_cfg(rho_db, k=400, n=480, t_total=1000, t_pilot=456)
        rho_eff = derive_params(cfg).rho_eff
        nu = cfg.n - cfg.k + 1
        s = math.sqrt(rho_eff / cfg.k)
        ref, _ = quad(lambda x: 0.5 * erfc(s * math.sqrt(0.5 * x)) * chi2.pdf(x, nu),
                      0.0, nu + 60.0 * math.sqrt(2.0 * nu), points=[nu / (1.0 + s * s), nu],
                      epsabs=0.0, epsrel=1e-13, limit=500)
        exact = ls_bpsk_ser_exact(rho_eff, cfg.n, cfg.k)
        assert exact == pytest.approx(ref, rel=1e-10)
        # the values ROADMAP tabulates, to their printed digits
        assert exact == pytest.approx(table, rel=5e-4)

    def test_matches_ls_monte_carlo_at_small_k(self):
        # two z-gates under a 1% family-wise false-alarm budget; the seed is
        # the first one tried. At 20 dB the asymptotic SEP, 0.0103 against
        # the exact 0.0153, fails the same gate, so the gate can fail
        cfgs = [scaled_cfg(rho_db, k=64, n=77, t_total=160, t_pilot=73) for rho_db in (10.0, 20.0)]
        rows = run_batch([point_of(cfg, (DecoderSpec.ls(),)) for cfg in cfgs], 1000, 17)
        z_max = bonferroni_z(0.01, len(cfgs))
        for cfg, [stats] in zip(cfgs, rows):
            exact = ls_bpsk_ser_exact(derive_params(cfg).rho_eff, cfg.n, cfg.k)
            assert abs(stats.mean_ser - exact) <= z_max * stats.stderr_ser, cfg.rho_db
        asymptote = predict(cfgs[1], DecoderSpec.ls()).sep
        assert abs(rows[1][0].mean_ser - asymptote) > z_max * rows[1][0].stderr_ser


def joint_specs(cfg):
    """One spec of each decoder, the box at the largest symbol; rls off
    lam~ = 1, so the four specs solve three distinct ridge systems."""
    t_max = float(pam_points(cfg.m)[-1])
    return (DecoderSpec.ls(), DecoderSpec.rls(0.4), DecoderSpec.box(1.0, t_max),
            DecoderSpec.lmmse())


class TestJointBatch:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("m", [2, 4])
    def test_each_entry_equals_its_own_batch(self, m, workers):
        cfg = scaled_cfg(10.0, m=m, k=64, n=77, t_total=160, t_pilot=73)
        specs = joint_specs(cfg)
        joint = batch(cfg, specs, trials=12, master_seed=3, workers=workers)
        for spec, stats in zip(specs, joint):
            assert stats == batch(cfg, (spec,), trials=12, master_seed=3)[0], spec.kind

    @pytest.mark.parametrize("workers", [1, 2])
    def test_solver_error_marks_only_its_own_entry(self, monkeypatch, workers):
        # the box solver fails on trials 3 and 5; its entry is the error of
        # the lowest failing index, the ridge entries keep their stats
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        specs = joint_specs(cfg)
        alone = [batch(cfg, (spec,), trials=8, master_seed=4)[0] for spec in specs]
        index_of = {point_column(cfg, draw_trial(cfg, 4, idx)).tobytes(): idx for idx in range(8)}
        real_box = simulate.box_rls_solve
        decoded = []

        def box_failing_at(gram, rhs, lam, t_box, ridge):
            idx = index_of[rhs.tobytes()]
            decoded.append(idx)
            if idx in (3, 5):
                raise ConvergenceError(f"box fails on trial {idx}")
            return real_box(gram, rhs, lam, t_box, ridge)

        monkeypatch.setattr(simulate, "box_rls_solve", box_failing_at)
        joint = batch(cfg, specs, trials=8, master_seed=4, workers=workers)
        assert isinstance(joint[2], ConvergenceError)
        assert str(joint[2]) == "box fails on trial 3"
        assert [joint[j] for j in (0, 1, 3)] == [alone[j] for j in (0, 1, 3)]
        # every trial decodes every spec, failed entries included
        assert sorted(decoded) == list(range(8))

    def test_lowest_failure_under_many_workers(self, monkeypatch):
        # more workers than cores and a short switch interval, on a two-point
        # sweep whose first point's box fails: that entry is still the error
        # of its lowest failing trial, every other entry the sequential stats
        cfg = scaled_cfg(10.0, k=16, n=20, t_total=40, t_pilot=19)
        points = [point_of(cfg, joint_specs(cfg)),
                  point_of(cfg._replace(rho_db=20.0), joint_specs(cfg))]
        trials = 48
        index_of = {point_column(cfg, draw_trial(cfg, 6, idx)).tobytes(): idx
                    for idx in range(trials)}
        real_box = simulate.box_rls_solve

        def box_failing_at(gram, rhs, lam, t_box, ridge):
            idx = index_of.get(rhs.tobytes(), 0)
            if idx >= 5 and idx % 3 != 0:
                raise ConvergenceError(f"box fails on trial {idx}")
            return real_box(gram, rhs, lam, t_box, ridge)

        monkeypatch.setattr(simulate, "box_rls_solve", box_failing_at)
        sequential = run_batch(points, trials, 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = run_batch(points, trials, 6, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert str(parallel[0][2]) == str(sequential[0][2]) == "box fails on trial 5"
        assert [parallel[0][j] for j in (0, 1, 3)] == [sequential[0][j] for j in (0, 1, 3)]
        assert parallel[1] == sequential[1]
        assert all(isinstance(e, BatchStats) for e in parallel[1])

    def test_one_ridge_solve_per_distinct_lam_tilde(self, monkeypatch):
        # the closed-form sweep: ls at lam~ = 0; rls, box and lmmse at 1,
        # solved on the unscaled channel at the shift lam~ / s^2
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        specs = (DecoderSpec.ls(), DecoderSpec.rls(1.0), DecoderSpec.box(1.0, 1.0),
                 DecoderSpec.lmmse())
        solved = []
        real_rls = simulate.rls_solve

        def counting_rls(gram, rhs, lam, rows):
            solved.append(lam)
            return real_rls(gram, rhs, lam, rows)

        monkeypatch.setattr(simulate, "rls_solve", counting_rls)
        draw = draw_trial(cfg, 7, 0)
        for spec in specs:
            run_trial(cfg, spec, draw, b_norm_of(cfg, spec))
        assert solved == [0.0, cfg.k / derive_params(cfg).rho_eff]


def sweep_cfgs(k=64, n=77, **kw):
    """Three rho points of one (n, k, m): 4-PAM on the energy split, so the
    data noise w_std, and with it the ridge right-hand side, differs by point."""
    t_total, t_pilot = kw.pop("t_total", 160), kw.pop("t_pilot", 73)
    return [scaled_cfg(rho_db, m=4, k=k, n=n, t_total=t_total, t_pilot=t_pilot,
                       power_convention=PowerConvention.ENERGY_CONSERVING, **kw)
            for rho_db in (5.0, 15.0, 25.0)]


def counting_rls_solves(monkeypatch):
    """Patch simulate.rls_solve to record the shift and column count of each call."""
    calls = []
    real_rls = simulate.rls_solve

    def counting_rls(gram, rhs, lam, rows):
        calls.append((lam, rhs.shape[1]))
        return real_rls(gram, rhs, lam, rows)

    monkeypatch.setattr(simulate, "rls_solve", counting_rls)
    return calls


class TestSweepBatch:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_a_point_alone_equals_the_point_in_a_sweep(self, workers):
        # every ridge solve has the two columns [Z'Z x0, Z'z] whatever the
        # sweep: at K = 256 as they are, at K = 64 padded to eight for the GIL
        for shape in (dict(k=256, n=307, t_total=640, t_pilot=292), dict(k=64, n=77)):
            cfgs = sweep_cfgs(**shape)
            points = [point_of(cfg, joint_specs(cfg)) for cfg in cfgs]
            sweep = run_batch(points, 5, 11, workers=workers)
            for point, entries in zip(points, sweep):
                assert all(isinstance(e, BatchStats) for e in entries)
                assert run_batch([point], 5, 11) == [entries]

    def test_points_must_share_n_k_m(self):
        cfg = scaled_cfg(10.0, k=64, n=77, t_total=160, t_pilot=73)
        for other in (cfg._replace(n=78), cfg._replace(k=63, t_pilot=73), cfg._replace(m=4)):
            points = [point_of(cfg, (DecoderSpec.lmmse(),)),
                      point_of(other, (DecoderSpec.lmmse(),))]
            with pytest.raises(ConfigError, match="share"):
                run_batch(points, 2, 1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ls_below_square_fails_only_the_ls_rows(self, workers):
        # N < K: Z'Z is singular, so only the unregularized shift fails, at
        # every point with the row check's text, before any LU
        cfgs = sweep_cfgs(k=64, n=56)
        specs = joint_specs(cfgs[0])
        points = [(cfg, tuple((spec, 1.0) for spec in specs)) for cfg in cfgs]
        for entries in run_batch(points, 4, 2, workers=workers):
            assert type(entries[0]) is ConvergenceError
            assert str(entries[0]) == "unregularized solve needs at least as many rows as columns"
            assert all(isinstance(e, BatchStats) and e.trials == 4 for e in entries[1:])

    def test_a_failed_shift_fails_only_its_rows(self, monkeypatch):
        # the ridge solve fails at point 1's shift lam~ / s^2 = 1 / s^2: point
        # 1's rls, box and lmmse entries carry the error, its LS entry and the
        # other points equal their own batches
        cfgs = sweep_cfgs()
        specs = (DecoderSpec.ls(), DecoderSpec.rls(1.0), DecoderSpec.box(1.0, 1.0),
                 DecoderSpec.lmmse())
        points = [(cfg, tuple((spec, 1.0) for spec in specs)) for cfg in cfgs]
        poisoned = 1.0 / (derive_params(cfgs[1]).rho_eff / cfgs[1].k)
        real_rls = simulate.rls_solve

        def failing_rls(gram, rhs, lam, rows):
            if lam == poisoned:
                raise ConvergenceError("residual out of tolerance")
            return real_rls(gram, rhs, lam, rows)

        monkeypatch.setattr(simulate, "rls_solve", failing_rls)
        sweep = run_batch(points, 4, 3)
        assert [(type(e), str(e)) for e in sweep[1][1:]] == \
            [(ConvergenceError, "residual out of tolerance")] * 3
        assert sweep[1][0] == run_batch([(cfgs[1], points[1][1][:1])], 4, 3)[0][0]
        assert [sweep[0], sweep[2]] == [run_batch([points[p]], 4, 3)[0] for p in (0, 2)]

    def test_one_lu_per_distinct_shift_of_the_sweep(self, monkeypatch):
        # per trial, one two-column solve per distinct shift: a rho sweep
        # solves LS at 0 once for the sweep and rls / box / lmmse at lam~ = 1
        # once per point; a t_box sweep has one shift
        calls = counting_rls_solves(monkeypatch)
        cfgs = sweep_cfgs()
        specs = (DecoderSpec.ls(), DecoderSpec.rls(1.0), DecoderSpec.box(1.0, 1.0),
                 DecoderSpec.lmmse())
        run_batch([(cfg, tuple((spec, 1.0) for spec in specs)) for cfg in cfgs], 2, 3)
        assert sorted(calls) == sorted(
            [(0.0, 2)] * 2 + [(cfg.k / derive_params(cfg).rho_eff, 2) for cfg in cfgs] * 2)
        calls.clear()
        boxes = [((DecoderSpec.box(1.0, t), 1.0),) for t in (0.5, 1.0, 1.5)]
        run_batch([(cfgs[0], specs) for specs in boxes], 2, 3)
        assert calls == [(cfgs[0].k / derive_params(cfgs[0]).rho_eff, 2)] * 2

    def test_box_solves_the_shared_gram_at_its_point_shift(self, monkeypatch):
        # on a two-point sweep every box decode reads its trial's Z'Z itself,
        # not a scaled copy, at its point's shift lam~ / s^2
        cfgs = sweep_cfgs()[:2]
        points = [(cfg, ((DecoderSpec.box(0.5, 1.0), 1.0),)) for cfg in cfgs]
        events = []
        real_draw, real_box = simulate.draw_shared, simulate.box_rls_solve

        def recording_draw(*args):
            events.append(real_draw(*args))
            return events[-1]

        def recording_box(gram, rhs, lam, t_box, ridge):
            events.append((gram, lam))
            return real_box(gram, rhs, lam, t_box, ridge)

        monkeypatch.setattr(simulate, "draw_shared", recording_draw)
        monkeypatch.setattr(simulate, "box_rls_solve", recording_box)
        run_batch(points, 3, 2)
        shifts = [0.5 / (derive_params(cfg).rho_eff / cfg.k) for cfg in cfgs]
        step = 1 + len(points)  # per trial: one draw, then one box decode per point
        assert len(events) == 3 * step
        for idx in range(3):
            shared, *boxes = events[step * idx:step * (idx + 1)]
            assert [gram is shared.zz for gram, _ in boxes] == [True, True]
            assert [lam for _, lam in boxes] == shifts

    def test_point_view_matches_the_replayed_draw(self, monkeypatch):
        # run_trial hands the box decoder the shared Z'Z, its point's column
        # and shift; times s^2 they are the replayed draw's A'A, A'y and lam~
        given = []
        real_box = simulate.box_rls_solve

        def recording_box(gram, rhs, lam, t_box, ridge):
            given.append((gram, rhs, lam))
            return real_box(gram, rhs, lam, t_box, ridge)

        monkeypatch.setattr(simulate, "box_rls_solve", recording_box)
        spec = DecoderSpec.box(0.5, 1.0)
        for cfg in sweep_cfgs():
            s_sq = derive_params(cfg).rho_eff / cfg.k
            for idx in range(3):
                a, x0, w = effective_draw(cfg, 8, idx)
                draw = draw_trial(cfg, 8, idx)
                np.testing.assert_array_equal(draw.x0, x0)
                given.clear()
                run_trial(cfg, spec, draw, 1.0)
                [(view_gram, view_rhs, shift)] = given
                assert view_gram is draw.zz
                gram, rhs = a.T @ a, a.T @ (a @ x0 + w)
                assert np.abs(s_sq * view_gram - gram).max() <= 1e-13 * np.abs(gram).max()
                assert np.abs(s_sq * view_rhs - rhs).max() <= 1e-13 * np.abs(rhs).max()
                assert shift == 0.5 / s_sq

    def test_run_batch_takes_b_from_its_caller(self, monkeypatch):
        # predict raises wherever the package binds it, so a run_batch that
        # computed B itself would fail
        def no_theory(*args, **kwargs):
            raise AssertionError("run_batch called predict")

        cfgs = sweep_cfgs()
        points = [point_of(cfg, joint_specs(cfg)) for cfg in cfgs]
        real = asymptotics.predict
        for name, module in list(sys.modules.items()):
            if name == "mimopam" or name.startswith("mimopam."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, no_theory)
        entries = run_batch(points, 3, 5)
        assert all(isinstance(e, BatchStats) for point in entries for e in point)
