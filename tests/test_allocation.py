"""Power-split optimum, goodput-optimal training duration, monotonicity."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from oracles import alpha_star_by_branches, rho_eff_of_alpha

from mimopam import (
    ConfigError,
    DecoderSpec,
    PowerConvention,
    SystemConfig,
    alpha_star,
    derive_params,
    predict,
)
from mimopam.asymptotics import optimize_goodput
from mimopam.system import lambda_star_rls, pam_points

FIG6 = dict(rho_db=15.0, tau=1000 / 256, tau_d=744 / 256)


def energy_cfg(rho_db, k, n, t_total, m=2, t_pilot=None):
    return SystemConfig(k=k, n=n, t_total=t_total, t_pilot=k if t_pilot is None else t_pilot,
                        rho_db=rho_db, alpha=0.5, m=m)


def block_cfg(rho_db, tau, tau_d, k=256):
    """energy_cfg at power rho_db with T = tau k and T_d = tau_d k symbols."""
    t_total = round(tau * k)
    return energy_cfg(rho_db, k=k, n=2 * k, t_total=t_total, t_pilot=t_total - round(tau_d * k))


class TestAlphaStar:
    def test_reference_annotation(self):
        assert alpha_star(block_cfg(**FIG6)) == pytest.approx(0.629, abs=1e-3)

    def test_matches_dense_grid_argmax(self):
        cfg = block_cfg(**FIG6)
        alpha = alpha_star(cfg)
        grid = np.linspace(1e-4, 1 - 1e-4, 10_001)
        vals = [rho_eff_of_alpha(cfg.rho, FIG6["tau"], FIG6["tau_d"], a) for a in grid]
        assert abs(alpha - grid[int(np.argmax(vals))]) <= (grid[1] - grid[0])

    def test_equal_split_when_one_data_symbol_per_antenna(self):
        assert alpha_star(block_cfg(rho_db=5.0, tau=2.0, tau_d=1.0)) == 0.5

    def test_low_power_limit_is_equal_split(self):
        alpha = alpha_star(block_cfg(rho_db=-40.0, tau=FIG6["tau"], tau_d=FIG6["tau_d"]))
        assert alpha == pytest.approx(0.5, abs=1e-3)

    def test_high_power_limit(self):
        tau_d = FIG6["tau_d"]
        want = math.sqrt(tau_d) / (1 + math.sqrt(tau_d))
        alpha = alpha_star(block_cfg(rho_db=60.0, tau=FIG6["tau"], tau_d=tau_d))
        assert alpha == pytest.approx(want, abs=1e-3)

    def test_branch_lattice_against_grid(self):
        # all three branches, several powers and block shapes
        grid = np.linspace(1e-4, 1 - 1e-4, 10_001)
        step = grid[1] - grid[0]
        for rho_db in (-10.0, 3.0, 17.0):
            for tau in (1.5, 3.0, 8.0):
                for tau_d in (0.5, 1.0, min(tau - 0.25, 2.5)):
                    if tau - tau_d < 1:
                        continue  # fewer pilots than antennas: no SystemConfig
                    cfg = block_cfg(rho_db, tau, tau_d)
                    alpha = alpha_star(cfg)
                    vals = [rho_eff_of_alpha(cfg.rho, tau, tau_d, a) for a in grid]
                    best = grid[int(np.argmax(vals))]
                    assert abs(alpha - best) <= step + 1e-12
                    assert 0.0 < alpha < 1.0

    def test_matches_the_three_branch_form(self):
        # seeded random blocks on both sides of tau_d = 1, and tau_d = 1 itself
        rng = np.random.default_rng(31)
        sides = set()
        for _ in range(300):
            k = int(rng.choice((16, 64, 256, 400)))
            t_total = int(rng.integers(k + 1, 4 * k + 1))
            t_pilot = int(rng.integers(k, t_total))
            cfg = energy_cfg(float(rng.uniform(-20.0, 40.0)), k=k, n=2 * k,
                             t_total=t_total, t_pilot=t_pilot)
            tau, tau_d = t_total / k, (t_total - t_pilot) / k
            want = alpha_star_by_branches(cfg.rho, tau, tau_d)
            assert alpha_star(cfg) == pytest.approx(want, rel=1e-12), cfg
            sides.add(np.sign(tau_d - 1.0))
        assert {-1.0, 1.0} <= sides
        for rho_db in (-20.0, 0.0, 17.0, 40.0):
            for k in (16, 400):
                assert alpha_star(energy_cfg(rho_db, k=k, n=2 * k, t_total=3 * k,
                                             t_pilot=2 * k)) == 0.5

    def test_within_a_few_ulps_of_a_50_digit_reference(self):
        # one data symbol more or fewer than antennas included, where the
        # three-branch form cancels
        rng = np.random.default_rng(32)
        for _ in range(200):
            k = int(rng.choice((16, 64, 256, 400)))
            t_total = int(rng.integers(k + 2, 4 * k + 1))
            t_data = int(rng.choice((k - 1, k + 1, rng.integers(1, t_total - k + 1))))
            t_data = min(max(t_data, 1), t_total - k)
            cfg = energy_cfg(float(rng.uniform(-20.0, 40.0)), k=k, n=2 * k,
                             t_total=t_total, t_pilot=t_total - t_data)
            with localcontext() as ctx:
                ctx.prec = 50
                b = Decimal(cfg.rho) * t_total / k
                a = b * k / t_data
                want = 1 / (1 + ((1 + a) / (1 + b)).sqrt())
            assert alpha_star(cfg) == pytest.approx(float(want), rel=1e-15), cfg

    def test_config_wrapper_requires_energy_conserving(self):
        cfg = SystemConfig(k=256, n=512, t_total=1000, t_pilot=256, rho_db=15.0,
                           alpha=0.5, power_convention=PowerConvention.DIRECT_SPLIT)
        with pytest.raises(ConfigError, match="energy-conserving"):
            alpha_star(cfg)

    def test_rejects_bad_domains(self):
        with pytest.raises(ConfigError):
            alpha_star(block_cfg(rho_db=-math.inf, tau=2.0, tau_d=1.0))
        with pytest.raises(ConfigError):
            alpha_star(block_cfg(rho_db=0.0, tau=2.0, tau_d=0.0))


class TestOptimizeGoodput:
    def test_training_floor_is_antenna_count(self):
        for rho_db in (0, 10, 20):
            best, _ = optimize_goodput(energy_cfg(rho_db, k=400, n=480, t_total=1000))
            assert best.t_pilot == 400

    def test_alpha_matches_power_only_optimum_at_the_floor(self):
        rho_db = 10.0
        cfg = energy_cfg(rho_db, k=400, n=480, t_total=1000)
        best, goodput = optimize_goodput(cfg)
        base = alpha_star(block_cfg(rho_db, 1000 / 400, (1000 - 400) / 400, k=400))
        assert best.alpha == pytest.approx(base, rel=1e-12)
        # the optimum is cfg at (T_p*, alpha*), scored by LMMSE there
        assert best == cfg._replace(t_pilot=best.t_pilot, alpha=best.alpha)
        assert goodput == predict(best, DecoderSpec.lmmse()).goodput

    def test_goodput_dominates_grid(self):
        cfg = energy_cfg(10.0, k=128, n=192, t_total=512)
        _, goodput = optimize_goodput(cfg)
        at_2k = cfg._replace(t_pilot=2 * 128)
        at_2k = at_2k._replace(alpha=alpha_star(at_2k))
        assert goodput >= predict(at_2k, DecoderSpec.lmmse()).goodput

    def test_tiny_block_goodput_vanishes(self):
        # only one data symbol available: goodput factor (1 - tau_p/tau) -> 0
        _, goodput = optimize_goodput(energy_cfg(10.0, k=128, n=192, t_total=130))
        assert goodput <= 2 / 130 + 1e-12

    def test_rejects_block_without_data(self):
        with pytest.raises(ConfigError):
            optimize_goodput(energy_cfg(10.0, k=128, n=192, t_total=128))


class TestMonotonicity:
    """MSE and SEP never increase with the power, for LS, LMMSE and box (at
    lambda* and the largest symbol). This is the conjecture behind evaluating
    box at the allocation that maximizes the effective SNR."""

    RHO_DB = np.linspace(-10.0, 40.0, 101)

    def assert_monotone(self, n, m):
        t_max = float(pam_points(m)[-1])
        for decoder in ("ls", "lmmse", "box"):
            mse, sep = [], []
            for rho_db in self.RHO_DB:
                cfg = energy_cfg(rho_db, k=100, n=n, t_total=400, m=m, t_pilot=130)
                if decoder == "ls":
                    spec = DecoderSpec.ls()
                elif decoder == "lmmse":
                    spec = DecoderSpec.lmmse()
                else:
                    dp = derive_params(cfg)
                    lam = lambda_star_rls(dp.rho_d, dp.sigma_delta_sq)
                    spec = DecoderSpec.box(lam / dp.lambda_star, t_max)
                pred = predict(cfg, spec)
                mse.append(pred.mse)
                sep.append(pred.sep)
            assert np.all(np.diff(mse) <= 0), decoder
            assert np.all(np.diff(sep) <= 0), decoder

    def test_wide_grid_low_delta(self):
        self.assert_monotone(n=120, m=2)

    def test_high_order_high_delta(self):
        self.assert_monotone(n=400, m=8)
