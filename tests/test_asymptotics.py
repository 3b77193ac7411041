"""Closed-form predictors and the box-decoder scalar saddle solver.

Reference values fall into two groups: published performance-table numbers
for the K=400, delta=1.2 scenario (quoted at full precision), and values
frozen from independent oracles computed in-repo (adaptive quadrature, dense
grid searches, back-substitution into defining equations).
"""

import math

import numpy as np
import pytest
from oracles import (
    box_objective,
    box_objective_quadrature,
    box_sep_by_indicators,
    gauss_pdf,
    gaussian_partial_second_moment,
    rls_sep,
    rls_stationarity_residuals,
    theory_point,
)
from scipy.integrate import quad
from scipy.optimize import brentq

from mimopam import (
    ConfigError,
    ConvergenceError,
    DecoderKind,
    DecoderSpec,
    PowerConvention,
    SweepSpec,
    SystemConfig,
    derive_params,
    predict,
)
from mimopam import asymptotics
from mimopam.asymptotics import (
    SCALAR_SEARCH_TOL,
    BoxObjectiveParams,
    _box_terms,
    _bracket_root,
    _find_root,
    _grid_argmin,
    box_saddle_solve,
    box_sep,
    box_theta_min,
    lambda_star_numeric,
    mse_from_theta,
    qfunc,
    ridge_solution,
    scalar_solution,
    t_star_numeric,
    upsilon,
)
from mimopam.errors import UndefinedTheoryError
from mimopam.runner import LambdaPolicy, SweepAxis, TPolicy, resolve_decoder
from mimopam.system import lambda_star_rls, largest_symbol, pam_points

# Published theory values for the K=400, N=480, T=1000, T_p=456, alpha=0.5,
# BPSK scenario under the direct power split, ridge decoder at the optimal
# coefficient.
FIG2_RLS_MSE = {
    0: 0.871446072678727,
    10: 0.404463487622635,
    20: 0.10918244834212,
    30: 0.0170210722015505,
    35: 0.00573918927522137,
}
# Same scenario, box decoder with t = 1 and the same closed-form coefficient.
FIG2_BOX_MSE_20DB = 0.0422767820546166
# The same box curve at 40 digits: D written in mpmath (mp.dps = 40) in the
# unsimplified partial-moment form of the quadrature oracle below, its
# gradient taken with mp.diff, and the saddle solved with mp.findroot from the
# double-precision solution.
FIG2_BOX_MSE_MPMATH = {
    5: 0.633901262880954,
    15: 0.141747458444321,
    20: 0.0422767820546167,
    25: 0.0115315743646758,
    35: 0.000945311881560561,
}


def fig2_cfg(rho_db):
    return SystemConfig(
        k=400, n=480, t_total=1000, t_pilot=456, rho_db=rho_db,
        alpha=0.5, m=2, power_convention=PowerConvention.DIRECT_SPLIT,
    )


def fig2_scalars(rho_db):
    dp = derive_params(fig2_cfg(rho_db))
    return dp.rho_d, dp.sigma_hhat_sq, dp.sigma_delta_sq, dp.delta, dp.rho_eff


# Closed forms in the effective SNR, kept here as oracles for predict.
def ls_mse_closed_form(rho_eff, delta):
    return 1.0 / ((delta - 1.0) * rho_eff)


def ls_sep_closed_form(rho_eff, delta, m):
    energy_e = (m * m - 1) / 3.0
    return 2.0 * (1.0 - 1.0 / m) * qfunc(math.sqrt((delta - 1.0) * rho_eff / energy_e))


def lmmse_mse_closed_form(rho_eff, delta):
    a = delta - 1.0 + 1.0 / rho_eff
    return 0.5 * (-a + math.sqrt(a * a + 4.0 / rho_eff))


def unit_ls(rho_eff, delta, m=2):
    theta = ridge_solution(rho_eff, 0.0, delta).theta_star
    return mse_from_theta(theta, rho_eff, delta), rls_sep(theta, rho_eff, m)


def box_params(rho_db, lam, t, m=2):
    return theory_point(fig2_cfg(rho_db)._replace(m=m), lam=lam, t=t)


def fig2_lambda_star(rho_db):
    return derive_params(fig2_cfg(rho_db)).lambda_star


class TestUpsilon:
    def test_vanishes_without_regularization_in_tall_systems(self):
        assert upsilon(0.0, 1.2) == 0.0

    def test_quadratic_root_value(self):
        # frozen from the quadratic formula; back-substitution residual ~1e-15
        u = upsilon(1.8, 1.2)
        assert u == pytest.approx(2.0611000442234593, rel=1e-12)
        assert 1.2 * u * u + (1.2 - 1.8 - 1.0) * u - 1.8 == pytest.approx(0.0, abs=1e-12)

    def test_large_regularization_asymptote(self):
        lp = 1e6
        assert upsilon(lp, 1.2) / (lp / 1.2) == pytest.approx(1.0, rel=1e-5)


class TestRlsClosedForms:
    @pytest.mark.parametrize("rho_db,want", sorted(FIG2_RLS_MSE.items()))
    def test_reference_mse_via_theta(self, rho_db, want):
        p = box_params(rho_db, lam=fig2_lambda_star(rho_db), t=math.inf)
        theta = ridge_solution(p.rho_eff, p.lam_tilde, p.delta).theta_star
        assert mse_from_theta(theta, p.rho_eff, p.delta) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("rho_db,want", sorted(FIG2_RLS_MSE.items()))
    def test_reference_mse_via_effective_snr(self, rho_db, want):
        _, _, _, delta, rho_eff = fig2_scalars(rho_db)
        assert lmmse_mse_closed_form(rho_eff, delta) == pytest.approx(want, rel=1e-10)

    def test_unit_plugin_matches_ls(self):
        # rho_eff = 1, lam~ = 0, delta = 2
        theta = ridge_solution(1.0, 0.0, 2.0).theta_star
        assert mse_from_theta(theta, 1.0, 2.0) == pytest.approx(1.0, rel=1e-12)
        assert ls_mse_closed_form(1.0, 2.0) == pytest.approx(1.0)

    def test_infeasible_square_system_without_regularization(self):
        with pytest.raises(ConfigError):
            ridge_solution(1.0, 0.0, 1.0)

    def test_sep_limits(self):
        assert rls_sep(1e12, 1.0, 4) == pytest.approx(2 * (1 - 0.25) * 0.5, rel=1e-9)
        assert rls_sep(1e-9, 1.0, 4) == pytest.approx(0.0, abs=1e-300)

    def test_mse_sep_bridge_across_lambda_grid(self):
        _, _, _, delta, rho_eff = fig2_scalars(10)
        for lam in np.geomspace(0.01, 10.0, 25):
            p = box_params(10, lam=lam, t=math.inf)
            theta = ridge_solution(p.rho_eff, p.lam_tilde, p.delta).theta_star
            mse = mse_from_theta(theta, p.rho_eff, p.delta)
            direct = rls_sep(theta, p.rho_eff, 2)
            via_mse = 2 * (1 - 0.5) * qfunc(math.sqrt(delta / (1.0 * (mse + 1.0 / rho_eff))))
            assert direct == pytest.approx(via_mse, abs=1e-12, rel=1e-12)

    def test_stationarity_system_at_closed_form_solution(self):
        for rho_db in (0, 10, 20):
            for lam in (0.3, 1.0, 2.7):
                p = box_params(rho_db, lam=lam, t=math.inf)
                theta, beta = ridge_solution(p.rho_eff, p.lam_tilde, p.delta)[:2]
                f_t, f_b = rls_stationarity_residuals(theta, beta, p.rho_eff, p.lam_tilde, p.delta)
                assert abs(f_t) <= 1e-8 and abs(f_b) <= 1e-8


class TestLambdaStar:
    def test_closed_form_examples(self):
        assert lambda_star_rls(1.0, 0.0) == pytest.approx(1.0)
        assert lambda_star_rls(0.5, 400 / 628) == pytest.approx(2.636942675159236, rel=1e-12)

    def test_effective_snr_identity(self):
        for rho_db in (0, 10, 25):
            rho_d, s_h2, s_d2, _, rho_eff = fig2_scalars(rho_db)
            assert lambda_star_rls(rho_d, s_d2) == pytest.approx(s_h2 / rho_eff, rel=1e-12)

    def test_matches_dense_grid_argmin(self):
        # 200k-point grid oracle gave 0.3492525 for the 10 dB scenario
        rho_d, _, s_d2, delta, rho_eff = fig2_scalars(10)
        lam_star = lambda_star_rls(rho_d, s_d2)
        grid = np.linspace(1e-4, 2.0, 20_001)
        thetas = [ridge_solution(rho_eff, l / lam_star, delta).theta_star for l in grid]
        assert grid[int(np.argmin(thetas))] == pytest.approx(lam_star, abs=2e-4)

    def test_numeric_search_agrees_with_closed_form(self):
        cfg = fig2_cfg(10)
        dp = derive_params(cfg)
        want = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
        got = lambda_star_numeric(theory_point(cfg)) * dp.lambda_star
        assert got == pytest.approx(want, abs=1e-4)

    def test_box_search_without_zero_when_n_below_k(self):
        # delta < 1: the box saddle at lam = 0 has no solution, so the grid must skip it
        cfg = SystemConfig(k=128, n=80, t_total=512, t_pilot=128, rho_db=20.0, alpha=0.5, m=16)
        t = float(pam_points(16)[-1])
        point = theory_point(cfg, t=t)
        lam_tilde = lambda_star_numeric(point)
        assert lam_tilde * derive_params(cfg).lambda_star == pytest.approx(0.00645, rel=1e-2)
        at_lam = box_saddle_solve(point._replace(lam_tilde=lam_tilde))
        for other in (0.5 * lam_tilde, 2.0 * lam_tilde):
            near = box_saddle_solve(point._replace(lam_tilde=other))
            assert at_lam.theta_star <= near.theta_star

    def test_optimal_mse_forms_agree_off_the_reference_grid(self):
        p = box_params(7, lam=fig2_lambda_star(7), t=math.inf)
        theta = ridge_solution(p.rho_eff, p.lam_tilde, p.delta).theta_star
        via_theta = mse_from_theta(theta, p.rho_eff, p.delta)
        assert lmmse_mse_closed_form(p.rho_eff, p.delta) == pytest.approx(via_theta, rel=1e-10)


def fig4_cfg(rho_db, m):
    return SystemConfig(
        k=400, n=480, t_total=1000, t_pilot=400, rho_db=rho_db,
        alpha=0.5, m=m, power_convention=PowerConvention.DIRECT_SPLIT,
    )


class TestKnobSearch:
    def test_grid_search_finds_the_global_of_two_minima(self):
        # local minima at 1 and 3, global at 3
        f = lambda x: min((x - 1.0) ** 2 + 0.2, (x - 3.0) ** 2)
        grid = np.linspace(0.0, 4.0, 33)
        assert _grid_argmin(f, grid) == pytest.approx(3.0, abs=1e-5)

    def test_grid_end_is_returned_as_is(self):
        grid = (0.0, 0.5, 1.0, 2.0)
        assert _grid_argmin(lambda x: x, grid) == 0.0
        assert _grid_argmin(lambda x: -x, grid) == 2.0

    def test_box_lambda_at_the_boundary_is_exactly_zero(self):
        # BPSK box decoding at high power wants no ridge term at all
        assert lambda_star_numeric(theory_point(fig2_cfg(15), t=1.0)) == 0.0

    @pytest.mark.parametrize("m", [4, 8])
    def test_threshold_search_where_theta_is_flat_in_t(self, m):
        # theta*(t) has its minimum near 0.4 t_ref here and is flat from about
        # 2 t_ref on, so no bracket that waits for theta* to rise would close
        t_ref = float(pam_points(m)[-1])
        point = theory_point(fig4_cfg(-5.0, m), t=t_ref)
        point = point._replace(lam_tilde=lambda_star_numeric(point))
        t = t_star_numeric(point)

        def theta(x):
            return box_saddle_solve(point._replace(t=x)).theta_star
        best = theta(t)
        assert all(best <= theta(r * t_ref) * (1 + 1e-12) for r in asymptotics.T_GRID)

    def test_threshold_search_goes_below_the_grid_floor(self):
        # theta*(t) still falls at t_ref/8, the low end of T_GRID: theta* at
        # t_ref/16 is 4.8e-5 lower (relative), and the minimum is near 0.083 t_ref
        point = BoxObjectiveParams(10**-1.5, 1e-3, 0.8, largest_symbol(8), 8)
        t_ref = largest_symbol(8)
        t = t_star_numeric(point)
        assert t < asymptotics.T_GRID[0] * t_ref

        def theta(x):
            return box_saddle_solve(point._replace(t=x)).theta_star
        best = theta(t)
        sampled = asymptotics.T_GRID + asymptotics.T_GRID_BELOW
        assert all(best <= theta(r * t_ref) for r in sampled)

    def test_threshold_search_ends_where_theta_is_flat_below_the_floor(self):
        # theta*(t) is flat from about t_ref/20 up, so the step below t_ref/8
        # does not fall and the search refines next to the floor
        point = BoxObjectiveParams(10**-0.63, 100.0, 1.2, largest_symbol(2), 2)
        t = t_star_numeric(point)
        assert asymptotics.T_GRID_BELOW[-1] <= t <= asymptotics.T_GRID[1]

    def test_grid_floor_extension_is_bounded(self):
        grid, below = (1.0, 2.0, 4.0), (0.5, 0.25)
        assert _grid_argmin(lambda x: abs(x - 0.5), grid, below) == pytest.approx(0.5, abs=1e-5)
        with pytest.raises(ConvergenceError, match="search floor 0.25"):
            _grid_argmin(lambda x: x, grid, below)


class TestLsForms:
    def test_unit_example(self):
        mse, sep = unit_ls(1.0, 2.0)
        assert mse == pytest.approx(1.0)
        # Q(1) frozen from the complementary error function
        assert sep == pytest.approx(0.15865525393145707, rel=1e-12)

    def test_limits(self):
        assert unit_ls(1e9, 2.0)[0] == pytest.approx(0.0, abs=1e-8)
        assert unit_ls(1e4, 2.0)[1] == pytest.approx(0.0, abs=1e-300)
        assert unit_ls(1.0, 1.0 + 1e-12)[0] > 1e11

    def test_sep_consistent_with_mse_form(self):
        energy_e = 5.0  # (M^2 - 1) / 3 for M = 4
        for rho_eff in (0.3, 2.0, 40.0):
            mse, sep = unit_ls(rho_eff, 1.5, m=4)
            via_mse = 2 * (1 - 0.25) * qfunc(math.sqrt(1.0 / (energy_e * mse)))
            assert sep == pytest.approx(via_mse, rel=1e-12)

    def test_rejects_delta_at_most_one(self):
        cfg = SystemConfig(k=100, n=100, t_total=400, t_pilot=100, rho_db=10.0, alpha=0.5)
        with pytest.raises(UndefinedTheoryError, match="n > k"):
            predict(cfg, DecoderSpec.ls())

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_closed_forms_match_predict(self, m):
        for rho_db in np.linspace(-5.0, 35.0, 41):
            cfg = SystemConfig(k=100, n=150, t_total=400, t_pilot=130,
                               rho_db=rho_db, alpha=0.5, m=m)
            dp = derive_params(cfg)
            ls = predict(cfg, DecoderSpec.ls())
            assert ls.mse == pytest.approx(ls_mse_closed_form(dp.rho_eff, dp.delta), rel=1e-10)
            assert ls.sep == pytest.approx(ls_sep_closed_form(dp.rho_eff, dp.delta, m), rel=1e-10)
            lmmse = predict(cfg, DecoderSpec.lmmse())
            assert lmmse.mse == pytest.approx(lmmse_mse_closed_form(dp.rho_eff, dp.delta),
                                              rel=1e-10)


class TestGaussianPartialMoment:
    def test_full_line_variance_and_mass(self):
        inf = float("inf")
        assert gaussian_partial_second_moment(0.0, 1.0, -inf, inf) == pytest.approx(1.0, abs=1e-12)
        assert gaussian_partial_second_moment(1.0, 0.0, -inf, inf) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_quadrature_value(self):
        # adaptive quadrature of (1 + 2h)^2 over [-1, 1] against the density
        want = 1.4776816645322828
        assert gaussian_partial_second_moment(1.0, 2.0, -1.0, 1.0) == pytest.approx(want, abs=1e-12)

    def test_random_instances_match_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            a, b = rng.normal(size=2) * 2
            lo, hi = np.sort(rng.normal(size=2) * 2)
            want, _ = quad(lambda h: (a + b * h) ** 2 * gauss_pdf(h), lo, hi,
                           epsabs=1e-13, epsrel=1e-13)
            got = gaussian_partial_second_moment(a, b, lo, hi)
            assert got == pytest.approx(want, abs=1e-10)

    def test_rejects_reversed_limits(self):
        with pytest.raises(ValueError):
            gaussian_partial_second_moment(0.0, 1.0, 1.0, -1.0)


class TestBoxObjective:
    def test_matches_quadrature_on_random_points(self):
        rho_d, s_h2, s_d2, delta, _ = fig2_scalars(10)
        s = math.sqrt(1 + rho_d * s_d2)
        rng = np.random.default_rng(33)
        for _ in range(25):
            m = int(rng.choice([2, 4, 8]))
            lam, t = float(rng.uniform(0, 2)), float(rng.uniform(0.3, 3))
            p = box_params(10, lam=lam, t=t, m=m)
            theta = float(rng.uniform(0.05, 3))
            beta = float(rng.uniform(0.05, 3))
            want = box_objective_quadrature(theta, beta, rho_d, s_h2, s_d2, lam, delta, t, m)
            assert s * s * box_objective(theta / s, beta / s, p) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_raw_objective_is_the_effective_snr_objective_scaled(self, m):
        # D_raw(s theta~, s beta~) = s^2 D(theta~, beta~; rho_eff, lam~) with
        # s^2 = 1 + rho_d sD2, for any variance split, also sH2 + sD2 != 1
        rng = np.random.default_rng(60 + m)
        for rho_d, s_h2, s_d2 in ((3.0, 0.5, 0.3), (0.7, 0.25, 0.35), (20.0, 0.9, 0.6)):
            s2 = 1 + rho_d * s_d2
            for _ in range(4):
                lam, t, delta = (float(v) for v in rng.uniform([0, 0.3, 0.8], [2, 3, 2]))
                p = BoxObjectiveParams(rho_d * s_h2 / s2, lam * rho_d / s2, delta, t, m)
                theta, beta = (float(v) for v in rng.uniform(0.1, 3, size=2))
                want = box_objective_quadrature(theta, beta, rho_d, s_h2, s_d2, lam, delta, t, m)
                got = s2 * box_objective(theta / math.sqrt(s2), beta / math.sqrt(s2), p)
                assert got == pytest.approx(want, abs=1e-9)

    def test_unboxed_limit_matches_closed_expression(self):
        # at t -> inf the objective collapses to the unconstrained saddle form
        p = box_params(10, lam=0.35, t=1e6, m=2)
        for theta, beta in ((0.6, 0.8), (1.4, 0.5), (0.9, 2.0)):
            unboxed = (beta * p.delta * theta / 2 + beta * (1 + p.rho_eff) / (2 * theta)
                       - beta**2 / 4
                       - beta**2 * (1 + p.rho_eff / theta**2)
                       / (2 * beta / theta + 4 * p.lam_tilde / p.rho_eff))
            assert box_objective(theta, beta, p) == pytest.approx(unboxed, abs=1e-6)

    def test_gradient_matches_central_differences(self):
        # relative 1e-6, with an absolute floor of 1e-6 where the slope is ~0
        rng = np.random.default_rng(41)
        for j in range(200):
            m = int(rng.choice([2, 4, 8]))
            lam = 0.0 if j % 4 == 0 else float(rng.uniform(0, 2))
            p = box_params(float(rng.uniform(0, 30)), lam=lam, t=float(rng.uniform(0.2, 3)), m=m)
            theta, beta = float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))
            val, d_theta, d_beta = _box_terms(theta, beta, p)
            assert val == box_objective(theta, beta, p)
            h_t, h_b = 1e-5 * theta, 1e-5 * beta
            fd_theta = (box_objective(theta + h_t, beta, p)
                        - box_objective(theta - h_t, beta, p)) / (2 * h_t)
            fd_beta = (box_objective(theta, beta + h_b, p)
                       - box_objective(theta, beta - h_b, p)) / (2 * h_b)
            assert d_theta == pytest.approx(fd_theta, rel=1e-6, abs=1e-6)
            assert d_beta == pytest.approx(fd_beta, rel=1e-6, abs=1e-6)

    def test_rejects_nonpositive_arguments(self):
        p = box_params(10, lam=0.5, t=1.0)
        with pytest.raises(ValueError):
            box_objective(0.0, 1.0, p)
        with pytest.raises(ValueError):
            box_objective(1.0, -0.5, p)


class TestBoxSaddle:
    def test_reduces_to_ridge_for_huge_threshold(self):
        for rho_db in (0, 20):
            p = box_params(rho_db, lam=fig2_lambda_star(rho_db), t=1e6)
            sol = box_saddle_solve(p)
            want = ridge_solution(p.rho_eff, p.lam_tilde, p.delta).theta_star
            assert sol.theta_star == pytest.approx(want, rel=1e-9)

    def test_reference_box_mse_at_20db(self):
        # the published box curve is generated with the closed-form ridge
        # coefficient, not with a per-point numeric optimum
        p = box_params(20, lam=fig2_lambda_star(20), t=1.0)
        sol = box_saddle_solve(p)
        mse = mse_from_theta(sol.theta_star, p.rho_eff, p.delta)
        assert mse == pytest.approx(FIG2_BOX_MSE_20DB, rel=1e-5)

    @pytest.mark.parametrize("rho_db,want", sorted(FIG2_BOX_MSE_MPMATH.items()))
    def test_box_mse_matches_mpmath_references(self, rho_db, want):
        p = box_params(rho_db, lam=fig2_lambda_star(rho_db), t=1.0)
        sol = box_saddle_solve(p)
        mse = mse_from_theta(sol.theta_star, p.rho_eff, p.delta)
        assert mse == pytest.approx(want, rel=1e-9)

    def test_inner_solves_are_bounded(self, monkeypatch):
        calls = []
        inner = asymptotics.box_theta_min

        def counted(*args, **kwargs):
            calls.append(args[1])
            return inner(*args, **kwargs)

        monkeypatch.setattr(asymptotics, "box_theta_min", counted)
        rho_d, _, s_d2, _, _ = fig2_scalars(20)
        box_saddle_solve(box_params(20, lam=lambda_star_rls(rho_d, s_d2), t=1.0))
        assert 0 < len(calls) <= 64

    def test_kernel_not_reevaluated_at_inner_roots(self, monkeypatch):
        # box_theta_min hands back the kernel terms at its root, so neither
        # the outer slope nor the residual evaluates a point twice
        calls = []
        kernel = asymptotics._box_terms

        def counted(theta, beta, p):
            calls.append((theta, beta))
            return kernel(theta, beta, p)

        monkeypatch.setattr(asymptotics, "_box_terms", counted)
        box_saddle_solve(box_params(20, lam=0.02, t=1.0))
        assert 0 < len(calls) <= 90
        assert len(set(calls)) == len(calls)

    def test_stationarity_and_norm_range(self):
        sol = box_saddle_solve(box_params(10, lam=0.4, t=1.0))
        assert sol.stationarity_residual <= 1e-6
        assert 0.0 < sol.b_norm <= 1.0

    def test_beta_profile_concave(self):
        p = box_params(10, lam=0.4, t=1.0)
        sol = box_saddle_solve(p)
        betas = np.linspace(0.6 * sol.beta_star, 1.4 * sol.beta_star, 21)
        profile = np.array([box_theta_min(p, b, theta_hint=sol.theta_star)[1] for b in betas])
        second_diff = profile[:-2] - 2 * profile[1:-1] + profile[2:]
        assert np.all(second_diff <= 1e-8)


class TestRootFinder:
    def test_brackets_outward_and_converges_to_ulps(self):
        for start in (1e-3, 1.0, 1e3):
            root = _bracket_root(lambda x: x * x * x - 2.0, start)
            assert root == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-15)

    def test_root_is_the_last_point_evaluated(self):
        # box_theta_min and box_saddle_solve keep the kernel terms of the
        # last evaluation as those of the root
        for f, want in ((lambda x: x * x - 3.0, math.sqrt(3.0)),
                        (lambda x: math.log(x) + 0.3, math.exp(-0.3))):
            for start in (1e-3, 0.7, 3.0, 1e3):
                seen = []
                root = _bracket_root(lambda x: seen.append(x) or f(x), start)
                assert root == seen[-1]
                assert root == pytest.approx(want, rel=1e-15)

    def test_stops_inside_rounding_noise(self):
        # the sine term stands for rounding noise of amplitude 1e-9 around
        # the root of x - 1; the search stops once values contradict the
        # direction of f instead of narrowing the bracket to two ulps
        seen = []

        def noisy(x):
            seen.append(x)
            return x - 1.0 + 1e-9 * math.sin(1e12 * x)

        root = _bracket_root(noisy, 0.3)
        assert root == seen[-1]
        assert abs(root - 1.0) <= 2e-9
        assert len(seen) <= 12

    def test_rejects_bracket_without_sign_change(self):
        with pytest.raises(ConvergenceError, match="no sign change"):
            _find_root(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "ROOT_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="3 steps"):
            _find_root(math.atan, -1.0, 1e3, -math.pi / 4, math.atan(1e3))

    def test_bracket_search_is_capped(self):
        with pytest.raises(ConvergenceError, match="bracket steps"):
            _bracket_root(lambda x: -1.0, 1.0)

    def test_unrepresentable_derivative_raises(self):
        with pytest.raises(ConvergenceError):
            _bracket_root(lambda x: x - 1.0 if x < 1.5 else math.nan, 0.1)


class TestBoxSep:
    def test_bpsk_collapses_to_single_q_term(self):
        p = box_params(10, lam=0.3, t=1.0, m=2)
        sol = box_saddle_solve(p)
        want = qfunc(math.sqrt(p.rho_eff) / sol.theta_star)
        assert box_sep(sol.theta_star, sol.b_norm, p) == pytest.approx(want, rel=1e-12)

    def test_small_threshold_floor_for_4pam(self):
        # edge symbols always clip when t/B < (M-2)/sqrt(E): 2/M floor appears
        p = box_params(10, lam=0.3, t=0.2, m=4)
        sep = box_sep(0.8, 1.0, p)
        assert sep >= 2.0 / 4.0

    def test_wide_threshold_matches_reduced_form(self):
        p = box_params(10, lam=0.3, t=3.0 / math.sqrt(5.0), m=4)
        theta = 0.7
        b_norm = 0.95
        want = 2 * (1 - 0.25) * qfunc(math.sqrt(p.rho_eff / 5.0) / theta)
        assert box_sep(theta, b_norm, p) == pytest.approx(want, abs=1e-12)

    def test_degenerate_lattice_threshold_rejected(self):
        # t / B on the decision boundary 2/sqrt(E), where the SEP jumps
        p = box_params(10, lam=0.3, t=2.0 / math.sqrt(5.0), m=4)
        with pytest.raises(UndefinedTheoryError):
            box_sep(0.8, 1.0, p)

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_continuous_across_the_odd_lattice(self, m):
        # no decision boundary sits at t / B = i / sqrt(E), i odd
        sqrt_e = math.sqrt((m * m - 1) / 3.0)
        for i in range(1, m, 2):
            seps = [box_sep(0.8, 1.0, box_params(10, lam=0.3, t=i / sqrt_e + d, m=m))
                    for d in (-1e-7, 0.0, 1e-7)]
            assert seps[0] == seps[1] == seps[2]

    def test_bpsk_has_no_degenerate_threshold(self):
        # t / B = 1 is the symbol itself, a legal threshold
        p = box_params(10, lam=0.0, t=1.0)
        assert box_sep(0.8, 1.0, p) == pytest.approx(qfunc(math.sqrt(p.rho_eff) / 0.8), rel=1e-12)

    @pytest.mark.parametrize("b_norm", [0.3, 1.0])
    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_closed_form_matches_the_indicator_sum(self, m, b_norm):
        # thresholds on and within 1e-8 of every lattice point j/sqrt(E), and t = inf
        sqrt_e = math.sqrt((m * m - 1) / 3.0)
        ratios = [j / sqrt_e * (1.0 + d) for j in range(1, m + 2)
                  for d in (0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-8, -1e-8)] + [math.inf]
        for ratio in ratios:
            p = box_params(10, lam=0.3, t=ratio * b_norm, m=m)
            try:
                want = box_sep_by_indicators(0.8, b_norm, p)
            except UndefinedTheoryError as exc:
                with pytest.raises(UndefinedTheoryError) as got:
                    box_sep(0.8, b_norm, p)
                assert str(got.value) == str(exc)
                continue
            if m == 2:
                assert box_sep(0.8, b_norm, p) == want
            else:
                assert box_sep(0.8, b_norm, p) == pytest.approx(want, rel=2e-15, abs=1e-300)


class TestPredict:
    def test_goodput_composition(self):
        cfg = fig2_cfg(10)
        dp = derive_params(cfg)
        pred = predict(cfg, DecoderSpec.rls(0.5 / dp.lambda_star))
        assert pred.goodput == pytest.approx((1 - dp.tau_p / dp.tau) * (1 - pred.sep), rel=1e-12)

    def test_lmmse_equals_optimal_ridge(self):
        cfg = fig2_cfg(10)
        dp = derive_params(cfg)
        lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
        a = predict(cfg, DecoderSpec.lmmse())
        b = predict(cfg, DecoderSpec.rls(lam / dp.lambda_star))
        assert a.mse == pytest.approx(b.mse, rel=1e-12)
        assert a.sep == pytest.approx(b.sep, rel=1e-12)

    def test_ridge_norm_identity(self):
        cfg = fig2_cfg(10)
        dp = derive_params(cfg)
        sol = scalar_solution(theory_point(cfg, lam=0.8))
        u = upsilon(0.8 / dp.sigma_hhat_sq, dp.delta)
        assert sol.b_norm == pytest.approx(1.0 / (1.0 + u), rel=1e-12)
        ls_sol = scalar_solution(theory_point(cfg, lam=0.0))
        assert ls_sol.b_norm == pytest.approx(1.0)

    @pytest.mark.parametrize("spec,most", [(DecoderSpec.ls(), 1), (DecoderSpec.rls(0.5), 1),
                                           (DecoderSpec.box(0.5, 1.0), 1),
                                           (DecoderSpec.lmmse(), 1)],
                             ids=["ls", "rls", "box", "lmmse"])
    def test_scenario_derived_once(self, monkeypatch, spec, most):
        # lmmse is lam~ = 1, so its lambda* is not derived a second time
        calls = []
        inner = asymptotics.derive_params

        def counted(cfg):
            calls.append(cfg)
            return inner(cfg)

        monkeypatch.setattr(asymptotics, "derive_params", counted)
        predict(fig2_cfg(10), spec)
        assert 0 < len(calls) <= most

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_depends_on_the_variance_split_only_through_rho_eff(self, m):
        # a direct-split and an energy-split config at one (rho_eff, lam~, delta)
        direct = SystemConfig(k=400, n=480, t_total=1000, t_pilot=456, rho_db=10.0, alpha=0.5,
                              m=m, power_convention=PowerConvention.DIRECT_SPLIT)
        target = derive_params(direct).rho_eff

        def energy(rho_db):
            return direct._replace(rho_db=rho_db,
                                   power_convention=PowerConvention.ENERGY_CONSERVING)
        rho_db = brentq(lambda r: derive_params(energy(r)).rho_eff - target, 0.0, 20.0,
                        xtol=1e-300, rtol=1e-15)
        cfgs = (direct, energy(rho_db))
        dps = [derive_params(c) for c in cfgs]
        assert dps[1].sigma_delta_sq != pytest.approx(dps[0].sigma_delta_sq, rel=1e-3)
        for lam_tilde, t in ((0.0, None), (0.4, None), (1.0, 1.0), (0.3, 0.8)):
            preds = []
            for cfg in cfgs:
                spec = DecoderSpec.rls(lam_tilde) if t is None else DecoderSpec.box(lam_tilde, t)
                preds.append(predict(cfg, spec))
            for field in ("mse", "sep", "b_norm"):
                a, b = (getattr(pr, field) for pr in preds)
                assert b == pytest.approx(a, rel=1e-12), (lam_tilde, t, field)
        a, b = (predict(cfg, DecoderSpec.lmmse()) for cfg in cfgs)
        assert (b.mse, b.sep, b.b_norm) == pytest.approx((a.mse, a.sep, a.b_norm), rel=1e-12)
        # so are the knob optima: the searches see the theory point only
        knobs = []
        for cfg in cfgs:
            sweep = SweepSpec(base=cfg, sweep_axis=SweepAxis.RHO_DB, values=(10.0,),
                              decoders=(DecoderKind.RLS, DecoderKind.BOX), trials=0,
                              lam=LambdaPolicy.NUMERIC_OPTIMAL, t_box=TPolicy.NUMERIC_OPTIMAL)
            rls = resolve_decoder(sweep, cfg, DecoderKind.RLS)
            box = resolve_decoder(sweep, cfg, DecoderKind.BOX)
            knobs.append((rls.lam_tilde, box.lam_tilde, box.t_box))
        assert knobs[1] == pytest.approx(knobs[0], rel=SCALAR_SEARCH_TOL, abs=SCALAR_SEARCH_TOL)

    def test_monotone_in_effective_snr_at_optimal_lambda(self):
        mses, seps = [], []
        for rho_db in range(0, 36, 5):
            cfg = fig2_cfg(rho_db)
            dp = derive_params(cfg)
            lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
            pred = predict(cfg, DecoderSpec.rls(lam / dp.lambda_star))
            mses.append(pred.mse)
            seps.append(pred.sep)
        assert all(b < a for a, b in zip(mses, mses[1:]))
        assert all(b < a for a, b in zip(seps, seps[1:]))

    def test_sep_bounds(self):
        for m, spec in ((2, DecoderSpec.rls(0.5)), (4, DecoderSpec.ls()),
                        (4, DecoderSpec.box(0.2, 1.5))):
            cfg = SystemConfig(k=400, n=480, t_total=1000, t_pilot=456, rho_db=3.0,
                               alpha=0.5, m=m, power_convention=PowerConvention.DIRECT_SPLIT)
            pred = predict(cfg, spec)
            assert 0.0 <= pred.sep <= 2 * (1 - 1 / m)
