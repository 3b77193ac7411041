"""Scenario derivation, power conventions, and the PAM slicer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import rho_eff_of_alpha

from mimopam import (
    ConfigError,
    DecoderSpec,
    PowerConvention,
    SystemConfig,
    derive_params,
    predict,
)
from mimopam.errors import UndefinedTheoryError
from mimopam.system import largest_symbol, pam_points, slice_symbols

FIG2 = dict(k=400, n=480, t_total=1000, t_pilot=456)


def fig2_cfg(rho_db=0.0, **kw):
    args = dict(FIG2, rho_db=rho_db, alpha=0.5,
                power_convention=PowerConvention.DIRECT_SPLIT)
    args.update(kw)
    return SystemConfig(**args)


class TestDeriveParams:
    def test_direct_split_reference_point(self):
        dp = derive_params(fig2_cfg(0.0))
        assert dp.rho_d == pytest.approx(0.5)
        assert dp.rho_p == pytest.approx(0.5)
        # 1 / (1 + 0.5 * 456/400) = 400/628, exact rational value
        assert dp.sigma_delta_sq == pytest.approx(400 / 628, rel=1e-14)
        assert dp.sigma_delta_sq + dp.sigma_hhat_sq == pytest.approx(1.0, abs=1e-15)

    def test_vanishing_training_power_limit(self):
        cfg = fig2_cfg(0.0, alpha=1 - 1e-12)
        dp = derive_params(cfg)
        assert dp.sigma_delta_sq == pytest.approx(1.0, abs=1e-9)

    def test_energy_conserving_split(self):
        cfg = SystemConfig(k=256, n=512, t_total=1000, t_pilot=256,
                           rho_db=15.0, alpha=0.5)
        dp = derive_params(cfg)
        assert dp.tau == pytest.approx(3.90625)
        assert dp.tau_d == pytest.approx(2.90625)
        assert dp.rho_d == pytest.approx(0.5 * 10**1.5 * dp.tau / dp.tau_d, rel=1e-14)

    @given(
        rho_db=st.floats(-10, 30),
        alpha=st.floats(0.01, 0.99),
        t_pilot=st.integers(16, 99),
    )
    def test_energy_identity_property(self, rho_db, alpha, t_pilot):
        cfg = SystemConfig(k=16, n=24, t_total=100, t_pilot=t_pilot,
                           rho_db=rho_db, alpha=alpha)
        dp = derive_params(cfg)
        total = dp.rho_p * cfg.t_pilot + dp.rho_d * (cfg.t_total - cfg.t_pilot)
        assert total == pytest.approx(cfg.rho * cfg.t_total, rel=1e-12)

    def test_rho_eff_upper_bound(self):
        for rho_db in (-5, 0, 10, 25):
            dp = derive_params(fig2_cfg(rho_db))
            assert dp.rho_eff <= dp.rho_d * dp.sigma_hhat_sq + 1e-15

    def test_error_variance_decreasing_in_pilot_energy(self):
        values = [derive_params(fig2_cfg(db)).sigma_delta_sq for db in range(-5, 26, 5)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_short_training(self):
        with pytest.raises(ConfigError, match="t_pilot >= k"):
            fig2_cfg(t_pilot=399)

    def test_rejects_unregularized_fat_system(self):
        cfg = SystemConfig(k=400, n=400, t_total=1000, t_pilot=456, rho_db=0.0, alpha=0.5)
        for spec in (DecoderSpec.ls(), DecoderSpec.rls(0.0), DecoderSpec.box(0.0, 1.0)):
            with pytest.raises(UndefinedTheoryError, match="n > k"):
                predict(cfg, spec)
        assert predict(cfg, DecoderSpec.rls(0.3)).mse > 0

    @pytest.mark.parametrize("rho_db, alpha", [
        (-3235.0, 0.01),  # rho_d = alpha rho underflows to 0
        (-170.0, 0.5),  # rho_d > 0, but sigma_hhat^2 = 1 - 1/(1 + P) rounds to 0
    ])
    def test_rejects_power_whose_effective_snr_underflows(self, rho_db, alpha):
        with pytest.raises(ConfigError, match=f"rho_db={rho_db!r}, alpha={alpha!r}"):
            derive_params(fig2_cfg(rho_db, alpha=alpha))
        assert derive_params(fig2_cfg(-150.0, alpha=alpha)).rho_eff > 0

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigError, match="alpha"):
                fig2_cfg(alpha=alpha)

    @pytest.mark.parametrize("rho_db, match", [
        (math.nan, "rho must be positive and finite"),
        (math.inf, "rho must be positive and finite"),
        (-math.inf, "rho must be positive and finite"),
        (4000.0, "4000.0 dB is out of the float range"),
        (-4000.0, "rho must be positive and finite"),  # 10^-400 is 0.0 W
    ])
    def test_rejects_unusable_power(self, rho_db, match):
        with pytest.raises(ConfigError, match=match):
            fig2_cfg(rho_db)


class TestRhoEffOfAlpha:
    TAU, TAU_D = 1000 / 256, 744 / 256

    def test_vanishes_at_endpoints(self):
        rho = 10**1.5
        assert rho_eff_of_alpha(rho, self.TAU, self.TAU_D, 1e-9) == pytest.approx(0.0, abs=1e-6)
        assert rho_eff_of_alpha(rho, self.TAU, self.TAU_D, 1 - 1e-9) == pytest.approx(0.0, abs=1e-6)

    def test_matches_first_principles_composition(self):
        # recompose rho_eff from the pilot/data powers at several alphas
        rho, tau, tau_d = 10**1.5, self.TAU, self.TAU_D
        tau_p = tau - tau_d
        for alpha in (0.1, 0.3, 0.629, 0.9):
            rho_d = alpha * rho * tau / tau_d
            rho_p = (1 - alpha) * rho * tau / tau_p
            s_d2 = 1 / (1 + rho_p * tau_p)
            direct = rho_d * (1 - s_d2) / (1 + rho_d * s_d2)
            assert rho_eff_of_alpha(rho, tau, tau_d, alpha) == pytest.approx(direct, rel=1e-12)

    def test_derive_params_matches_closed_form(self):
        for t_pilot in (256, 500, 744):
            for alpha in (0.1, 0.3, 0.629, 0.9):
                cfg = SystemConfig(k=256, n=512, t_total=1000, t_pilot=t_pilot,
                                   rho_db=15.0, alpha=alpha)
                dp = derive_params(cfg)
                want = rho_eff_of_alpha(cfg.rho, dp.tau, dp.tau_d, alpha)
                assert dp.rho_eff == pytest.approx(want, rel=1e-12)

    def test_grid_maximum_near_theorem_value(self):
        rho = 10**1.5
        alphas = np.linspace(1e-4, 1 - 1e-4, 10_001)
        vals = [rho_eff_of_alpha(rho, self.TAU, self.TAU_D, a) for a in alphas]
        assert alphas[int(np.argmax(vals))] == pytest.approx(0.629, abs=1e-3)

    def test_tau_d_one_branch(self):
        rho, tau = 2.0, 3.0
        got = rho_eff_of_alpha(rho, tau, 1.0, 0.5)
        assert got == pytest.approx((rho * tau) ** 2 / (1 + rho * tau) * 0.25, rel=1e-14)


class TestConstellation:
    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_unit_variance_and_symmetry(self, m):
        points = pam_points(m)
        assert points.shape == (m,)
        assert np.mean(points**2) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(points, -points[::-1])
        assert np.all(np.diff(points) > 0)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            pam_points(6)
        with pytest.raises(ConfigError):
            largest_symbol(6)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
    def test_largest_symbol_is_the_last_point_bit_for_bit(self, m):
        # the theory's t_ref and the max_symbol policy read it without numpy
        got = largest_symbol(m)
        assert type(got) is float
        assert got.hex() == float(pam_points(m)[-1]).hex()


class TestSlicer:
    def test_four_pam_example(self):
        assert slice_symbols(0.8, pam_points(4)) == pytest.approx(1 / math.sqrt(5))

    def test_idempotent_on_constellation_points(self):
        for m in (2, 4, 8, 16):
            points = pam_points(m)
            assert np.array_equal(slice_symbols(points, points), points)

    def test_saturates_to_edge_symbol(self):
        points = pam_points(2)
        assert slice_symbols(1e6, points) == pytest.approx(1.0)
        assert slice_symbols(-1e6, points) == pytest.approx(-1.0)

    def test_tie_breaks_toward_smaller_point(self):
        # exact midpoint between the two inner symbols
        assert slice_symbols(0.0, pam_points(4)) == pytest.approx(-1 / math.sqrt(5))

    @given(st.lists(st.floats(-4, 4), min_size=2, max_size=16))
    def test_monotone(self, values):
        ordered = np.sort(np.array(values))
        sliced = slice_symbols(ordered, pam_points(8))
        assert np.all(np.diff(sliced) >= 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            slice_symbols(float("nan"), pam_points(2))
