"""Acceptance suite: one test per exit criterion, printed as PASS/FAIL lines.

Published reference values are quoted at the precision of the source tables.
The full-size Monte Carlo gates use the pinned master seed 20260808 and take
under two minutes; each has a seconds-scale smoke variant on fixed seeds
where the criterion calls for one.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from oracles import (
    box_decode,
    box_objective,
    box_objective_quadrature,
    gauss_pdf,
    gaussian_partial_second_moment,
    projected_gradient_oracle,
    ridge_decode,
    rho_eff_of_alpha,
    rls_sep,
    rls_stationarity_residuals,
    theory_point,
)
from scipy.integrate import quad

import mimopam as mp
from mimopam.asymptotics import (
    box_saddle_solve, box_theta_min, lambda_star_numeric, mse_from_theta, optimize_goodput, qfunc,
    ridge_solution, t_star_numeric,
)
from mimopam.decoders import lmmse_decode
from mimopam.presets import preset_path
from mimopam.simulate import bonferroni_z, consistency_z
from mimopam.system import lambda_star_rls, pam_energy

MASTER_SEED = 20260808
FULL_TRIALS = 500
MPAM_TRIALS = 300  # the K=400 4-PAM cells
# The K=100 smoke gate runs on each of these seeds, fixed before any run.
SMOKE_SEEDS = (1, 2, 3)
SMOKE_TRIALS = 100
RHO_DB_CELLS = (5, 15, 25)
# Criterion 4 gates every (cell, metric, seed) with one z, set so that the
# whole family - 3 decoders x 3 rho x 2 metrics x 3 seeds at K=100 and
# 5 decoders x 3 rho x 2 metrics at K=400 - raises a false alarm with
# probability at most GATE_FALSE_ALARM (Bonferroni): z = 3.85.
GATE_FALSE_ALARM = 0.01
GATE_Z = bonferroni_z(GATE_FALSE_ALARM,
                      2 * len(RHO_DB_CELLS) * (3 * len(SMOKE_SEEDS) + 5))

# Published theory curve for the ridge decoder at its optimal coefficient
# (K=400, N=480, T=1000, T_p=456, alpha=0.5, BPSK, direct split), 0..35 dB.
FIG2_RLS_TABLE = [
    0.871446072678727, 0.83402783533993, 0.791568725279436, 0.745122063159603,
    0.695948460707339, 0.645332509678497, 0.594442537355299, 0.54425266239889,
    0.495519859221039, 0.448797037747719, 0.404463487622635, 0.36275967912656,
    0.323819403046235, 0.287696519183532, 0.254385987629118, 0.223839905167041,
    0.195979545129218, 0.170704321165657, 0.147898404716632, 0.127435538501213,
    0.10918244834212, 0.0930011715704469, 0.0787505839609838, 0.0662874020557637,
    0.0554669417298609, 0.0461439021455937, 0.0381733954740033, 0.0314123483189251,
    0.0257212726167438, 0.0209662738459123, 0.0170210722015505, 0.0137687861471301,
    0.0111032703921362, 0.00892988974130204, 0.00716571221438941, 0.00573918927522137,
]
FIG2_BOX_MSE_20DB = 0.042277


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num} ({title}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {num} ({title}): PASS")


def fig2_cfg(rho_db, **kw):
    args = dict(k=400, n=480, t_total=1000, t_pilot=456, rho_db=rho_db,
                alpha=0.5, m=2, power_convention=mp.PowerConvention.DIRECT_SPLIT)
    args.update(kw)
    return mp.SystemConfig(**args)


def smoke_cfg(rho_db):
    # K=100 variant of the reference scenario with identical ratios, so every
    # derived constant and theory value carries over unchanged
    return fig2_cfg(rho_db, k=100, n=120, t_total=250, t_pilot=114)


@pytest.fixture(scope="module")
def box_lambda_numeric():
    """Numerically optimal box coefficient lam~* = lam* / lambda* per rho
    point (t = largest symbol).

    Derived parameters depend only on the antenna/training ratios, so these
    values are shared by the full-size and smoke scenarios.
    """
    out = {}
    for rho_db in (5, 15, 20, 25):
        out[rho_db] = lambda_star_numeric(theory_point(fig2_cfg(rho_db), t=1.0))
    return out


def consistency_cells(cfg_of_rho, trials, box_lams, seed, mpam_trials=0):
    """(decoder, M, rho, metric) -> z of the simulation against its theory
    (consistency_z) for criterion 4.

    BPSK on the direct split for LS, RLS and box; with mpam_trials > 0 also
    4-PAM on the energy-conserving split for RLS and box at lambda* and
    t = 3/sqrt(5), the largest symbol. consistency_z refers LS to its exact
    finite-K MSE, the others to the asymptote. Each M and trial count is one
    sweep over RHO_DB_CELLS and one run_batch call, which draws each trial
    once for the sweep and gives each cell the stats of its own batch.
    """
    sweeps = [(trials, {rho_db: (cfg_of_rho(rho_db),
                                 {"ls": mp.DecoderSpec.ls(),
                                  "rls": mp.DecoderSpec.rls(1.0),
                                  "box": mp.DecoderSpec.box(box_lams[rho_db], 1.0)})
                        for rho_db in RHO_DB_CELLS})]
    if mpam_trials:
        sweeps.append((mpam_trials, {
            rho_db: (cfg_of_rho(rho_db)._replace(
                         m=4, power_convention=mp.PowerConvention.ENERGY_CONSERVING),
                     {"rls": mp.DecoderSpec.rls(1.0),
                      "box": mp.DecoderSpec.box(1.0, 3 / math.sqrt(5))})
            for rho_db in RHO_DB_CELLS}))
    cells = {}
    for n_trials, points in sweeps:
        preds = {(rho_db, name): mp.predict(c, spec)
                 for rho_db, (c, specs) in points.items() for name, spec in specs.items()}
        batch = mp.run_batch(
            [(c, tuple((spec, preds[rho_db, name].b_norm) for name, spec in specs.items()))
             for rho_db, (c, specs) in points.items()],
            trials=n_trials, master_seed=seed, workers=2)
        for (rho_db, (c, specs)), entries in zip(points.items(), batch):
            for (name, spec), stats in zip(specs.items(), entries):
                if isinstance(stats, mp.ConvergenceError):
                    raise stats
                z_mse, z_ser = consistency_z(c, spec, preds[rho_db, name], stats)
                cells[(name, c.m, rho_db, "mse")] = z_mse
                cells[(name, c.m, rho_db, "ser")] = z_ser
    return cells


def assert_consistency_gates(cells, seed):
    over = {key: round(z, 2) for key, z in cells.items() if not abs(z) <= GATE_Z}
    assert not over, f"seed {seed}: |z| > {GATE_Z:.3g}: {over}"


@pytest.fixture(scope="module")
def full_consistency(box_lambda_numeric):
    return consistency_cells(fig2_cfg, FULL_TRIALS, box_lambda_numeric, MASTER_SEED,
                             mpam_trials=MPAM_TRIALS)


class TestCriterion1:
    def test_rls_closed_form_regression(self):
        with criterion(1, "RLS closed-form regression"):
            anchors = {0: 0.871446, 10: 0.404463, 20: 0.109182, 30: 0.0170211, 35: 0.0057392}
            for rho_db, want in anchors.items():
                cfg = fig2_cfg(rho_db)
                dp = mp.derive_params(cfg)
                lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
                pred = mp.predict(cfg, mp.DecoderSpec.rls(lam / dp.lambda_star))
                assert pred.mse == pytest.approx(want, rel=1e-4)

    def test_full_table_through_runner(self):
        # the shipped preset reproduces the full 36-point published curve
        spec = mp.load_config(preset_path("fig2"))
        spec = spec._replace(decoders=(mp.DecoderKind.RLS,), trials=0)
        result = mp.run(spec, "predict")
        got = [rec.mse_theory for rec in result.records]
        np.testing.assert_allclose(got, FIG2_RLS_TABLE, rtol=1e-9)


class TestCriterion2:
    def test_box_reduces_to_ridge_for_huge_threshold(self):
        with criterion(2, "Box reduction to ridge at t = 1e6"):
            for rho_db in range(0, 36):
                cfg = fig2_cfg(rho_db)
                dp = mp.derive_params(cfg)
                lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
                params = theory_point(cfg, lam=lam, t=1e6)
                want = ridge_solution(params.rho_eff, params.lam_tilde, params.delta).theta_star
                sol = box_saddle_solve(params)
                assert sol.theta_star == pytest.approx(want, rel=1e-9), f"rho={rho_db}dB"


def box_soft_gate_holds(box_lambda_numeric):
    """Does the numerically optimal box coefficient reproduce the published
    20 dB point within 2%?"""
    pred = mp.predict(fig2_cfg(20), mp.DecoderSpec.box(box_lambda_numeric[20], 1.0))
    return abs(pred.mse - FIG2_BOX_MSE_20DB) <= 0.02 * FIG2_BOX_MSE_20DB


class TestCriterion3:
    def test_box_figure_target_soft_gate(self, box_lambda_numeric):
        with criterion(3, "Box figure target at 20 dB (soft gate)"):
            if not box_soft_gate_holds(box_lambda_numeric):
                # The numerically optimal coefficient does not reproduce the
                # published point; the curve turns out to be generated with
                # the closed-form ridge coefficient instead (criterion 4 is
                # the mandatory fallback and must hold, see the next test).
                cfg = fig2_cfg(20)
                dp = mp.derive_params(cfg)
                lam_cf = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
                params = theory_point(cfg, lam=lam_cf, t=1.0)
                sol = box_saddle_solve(params)
                mse_cf = mse_from_theta(sol.theta_star, params.rho_eff, params.delta)
                assert mse_cf == pytest.approx(FIG2_BOX_MSE_20DB, rel=2e-5)

    @pytest.mark.slow
    def test_box_figure_fallback_full_consistency(self, box_lambda_numeric, full_consistency):
        with criterion(3, "Box figure target at 20 dB (full-size fallback)"):
            if not box_soft_gate_holds(box_lambda_numeric):
                assert_consistency_gates(full_consistency, MASTER_SEED)


class TestCriterion4:
    def test_theory_simulation_smoke_k100(self, box_lambda_numeric):
        with criterion(4, "theory vs simulation self-consistency (K=100 smoke)"):
            for seed in SMOKE_SEEDS:
                cells = consistency_cells(smoke_cfg, SMOKE_TRIALS, box_lambda_numeric, seed)
                assert_consistency_gates(cells, seed)

    @pytest.mark.slow
    def test_theory_simulation_full_k400(self, full_consistency):
        with criterion(4, "theory vs simulation self-consistency (K=400 full)"):
            assert_consistency_gates(full_consistency, MASTER_SEED)


class TestCriterion5:
    def test_optimal_power_split(self):
        with criterion(5, "optimal data power ratio"):
            spec = mp.load_config(preset_path("fig6"))
            res = mp.alpha_star(spec.base)
            assert res == pytest.approx(0.629, abs=1e-3)

            tau, tau_d = 1000 / 256, 744 / 256
            grid = np.linspace(1e-4, 1 - 1e-4, 10_001)
            vals = [rho_eff_of_alpha(spec.base.rho, tau, tau_d, a) for a in grid]
            best = grid[int(np.argmax(vals))]
            assert abs(res - best) <= grid[1] - grid[0]

            low = mp.alpha_star(spec.base._replace(rho_db=-40.0))
            assert low == pytest.approx(0.5, abs=1e-3)
            high = mp.alpha_star(spec.base._replace(rho_db=60.0))
            assert high == pytest.approx(math.sqrt(tau_d) / (1 + math.sqrt(tau_d)), abs=1e-3)


class TestCriterion6:
    def test_goodput_training_floor(self):
        with criterion(6, "goodput-optimal training duration"):
            for k, t_total, n in ((400, 1000, 480), (256, 1000, 512)):
                for rho_db in (0, 10, 20):
                    cfg = mp.SystemConfig(k=k, n=n, t_total=t_total, t_pilot=k,
                                          rho_db=rho_db, alpha=0.5)
                    assert optimize_goodput(cfg).t_pilot_star == k, (k, rho_db)


class TestCriterion7:
    def test_oracle_equivalences(self):
        with criterion(7, "oracle equivalences"):
            rng = np.random.default_rng(701)

            # (a) covariance-optimal decode == optimally regularized ridge
            for _ in range(100):
                n, k = 10, 5
                hhat = rng.standard_normal((n, k))
                y = rng.standard_normal(n)
                rho_d = float(rng.uniform(0.2, 30.0))
                s_d2 = float(rng.uniform(0.0, 0.9))
                a = math.sqrt(rho_d / k) * hhat
                lam_star = lambda_star_rls(rho_d, s_d2)
                want = ridge_decode(a, y, lam_star * rho_d)
                got = lmmse_decode(hhat, y, rho_d, s_d2)
                np.testing.assert_allclose(got, want, atol=1e-10)

            # (b) partial second moment == adaptive quadrature
            for idx in range(100):
                a_c, b_c = rng.normal(size=2) * 2
                if idx % 5 == 0:
                    lo, hi = -np.inf, float(rng.normal())
                elif idx % 5 == 1:
                    lo, hi = float(rng.normal()), np.inf
                else:
                    lo, hi = np.sort(rng.normal(size=2) * 2)
                want, _ = quad(lambda h: (a_c + b_c * h) ** 2 * gauss_pdf(h), lo, hi,
                               epsabs=1e-13, epsrel=1e-13)
                got = gaussian_partial_second_moment(a_c, b_c, lo, hi)
                assert got == pytest.approx(want, abs=1e-10)

            # (c) box saddle objective == quadrature evaluation
            for _ in range(100):
                m = int(rng.choice([2, 4]))
                cfg = fig2_cfg(10, m=m)
                dp = mp.derive_params(cfg)
                s = math.sqrt(1 + dp.rho_d * dp.sigma_delta_sq)
                lam, t = float(rng.uniform(0, 2)), float(rng.uniform(0.3, 3))
                p = theory_point(cfg, lam=lam, t=t)
                theta = float(rng.uniform(0.1, 2.5))
                beta = float(rng.uniform(0.1, 2.5))
                want = box_objective_quadrature(theta, beta, dp.rho_d, dp.sigma_hhat_sq,
                                                dp.sigma_delta_sq, lam, dp.delta, t, m)
                got = s * s * box_objective(theta / s, beta / s, p)
                assert got == pytest.approx(want, abs=1e-9)

            # (d) active set == projected gradient
            for _ in range(50):
                n, k = 16, 8
                a = rng.standard_normal((n, k))
                y = rng.standard_normal(n) * 2
                lr = float(rng.uniform(0.0, 1.5))
                t = float(rng.uniform(0.3, 1.5))
                x_box, _ = box_decode(a, y, lr, t)
                np.testing.assert_allclose(x_box, projected_gradient_oracle(a, y, lr, t), atol=1e-8)

            # (e) SEP <-> MSE bridge across a lambda grid
            cfg = fig2_cfg(10)
            dp = mp.derive_params(cfg)
            for lam in np.geomspace(0.02, 8.0, 30):
                p = theory_point(cfg, lam=lam)
                theta = ridge_solution(p.rho_eff, p.lam_tilde, p.delta).theta_star
                mse = mse_from_theta(theta, p.rho_eff, p.delta)
                direct = rls_sep(theta, p.rho_eff, cfg.m)
                via_mse = 2 * (1 - 1 / cfg.m) * qfunc(
                    math.sqrt(dp.delta / (pam_energy(cfg.m) * (mse + 1 / dp.rho_eff))))
                assert direct == pytest.approx(via_mse, abs=1e-12, rel=1e-12)


class TestCriterion8:
    def test_stationarity_and_concavity_diagnostics(self):
        with criterion(8, "stationarity and uniqueness diagnostics"):
            cfg = fig2_cfg(10)
            for lam in (0.2, 0.8, 2.5):
                p = theory_point(cfg, lam=lam)
                theta, beta = ridge_solution(p.rho_eff, p.lam_tilde, p.delta)[:2]
                f_t, f_b = rls_stationarity_residuals(theta, beta, p.rho_eff, p.lam_tilde,
                                                      p.delta)
                assert max(abs(f_t), abs(f_b)) <= 1e-8

            params = theory_point(cfg, lam=0.4, t=1.0)
            sol = box_saddle_solve(params)
            assert sol.stationarity_residual <= 1e-6

            betas = np.linspace(0.5 * sol.beta_star, 1.5 * sol.beta_star, 50)
            profile = np.array([box_theta_min(params, b, theta_hint=sol.theta_star)[1]
                                for b in betas])
            second_diff = profile[:-2] - 2 * profile[1:-1] + profile[2:]
            assert np.all(second_diff <= 1e-8)


class TestCriterion9:
    def test_optimal_knob_searches(self, box_lambda_numeric):
        with criterion(9, "numeric coefficient and threshold optima"):
            # ridge: numeric argmin vs closed form
            cfg = fig2_cfg(10)
            dp = mp.derive_params(cfg)
            want = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
            got = lambda_star_numeric(theory_point(cfg)) * dp.lambda_star
            assert got == pytest.approx(want, abs=1e-4)

            # box BPSK coefficient collapses to zero at high data power
            # (the 15/25 dB reference cells have rho_d of 12 / 22 dB)
            for rho_db in (15, 25):
                lam_star = mp.derive_params(fig2_cfg(rho_db)).lambda_star
                assert box_lambda_numeric[rho_db] * lam_star < 1e-3
            fig4_cfg = mp.SystemConfig(
                k=400, n=480, t_total=1000, t_pilot=400, rho_db=10 * math.log10(20.0), alpha=0.5, m=2,
                power_convention=mp.PowerConvention.DIRECT_SPLIT)  # rho_d = 10 dB
            point = theory_point(fig4_cfg, t=1.0)
            point = point._replace(lam_tilde=lambda_star_numeric(point))
            assert point.lam_tilde * mp.derive_params(fig4_cfg).lambda_star < 1e-3

            # optimal threshold at rho_d = 10 dB, coefficient optimized first
            t_star = t_star_numeric(point)
            sqrt_e = 1.0  # BPSK
            assert sqrt_e * t_star == pytest.approx(0.9996, abs=1e-2)

