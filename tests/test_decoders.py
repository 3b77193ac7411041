"""Linear/box solvers against independent oracles, KKT and feasibility."""

import math

import numpy as np
import pytest
from oracles import box_decode, projected_gradient_oracle, ridge_decode

from mimopam import (
    ConfigError,
    ConvergenceError,
    DecoderKind,
    DecoderSpec,
    PowerConvention,
    SystemConfig,
    decoders,
    run_batch,
)
from mimopam.decoders import box_rls_solve, lmmse_decode, rls_solve
from mimopam.system import pam_points


def box_objective_value(a, y, lam_rho_d, x):
    r = y - a @ x
    return float(r @ r + lam_rho_d * (x @ x))


class TestRlsSolve:
    def test_identity_matrix_passthrough(self):
        y = np.array([0.3, -1.2, 2.0])
        x = ridge_decode(np.eye(3), y, 0.0)
        np.testing.assert_allclose(x, y, atol=1e-12)

    def test_identity_matrix_shrinkage(self):
        y = np.array([0.3, -1.2, 2.0])
        x = ridge_decode(np.eye(3), y, 1.0)
        np.testing.assert_allclose(x, y / 2.0, atol=1e-12)

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a = rng.standard_normal((8, 4))
            y = rng.standard_normal(8)
            lr = rng.uniform(0.0, 2.0)
            want = np.linalg.pinv(a.T @ a + lr * np.eye(4)) @ (a.T @ y)
            got = ridge_decode(a, y, lr)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_singular_unregularized_system_fails(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 5))
        with pytest.raises(ConvergenceError):
            ridge_decode(a, rng.standard_normal(3), 0.0)


def ill_conditioned_instance(seed=1):
    """n just below k at 30 dB with 8-PAM symbols and a tiny ridge term, the
    box a tenth above the largest symbol: cond(G) is about 4e5, and on some
    seeds (3 and 7 among them) the predicted active sets repeat with period 3
    to 6, so the solver has to finish by single-index steps."""
    k, n, rho = 52, 50, 10**3.0
    rng = np.random.default_rng(seed)
    points = pam_points(8)
    a = math.sqrt(rho / k) * rng.standard_normal((n, k))
    y = a @ points[rng.integers(0, 8, size=k)] + rng.standard_normal(n)
    return a, y, 1e-2, 1.1 * float(np.abs(points).max())


class TestBoxRlsSolve:
    def test_one_dimensional_clip(self):
        # unconstrained optimum of (2 - x)^2 + x^2 is 1; the box ends at 0.5
        x, kkt = box_decode(np.array([[1.0]]), np.array([2.0]), 1.0, 0.5)
        assert x[0] == pytest.approx(0.5, abs=1e-12)
        assert kkt <= 1e-8

    def test_inactive_box_matches_ridge(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 6))
        y = rng.standard_normal(12)
        ridge = ridge_decode(a, y, 0.7)
        boxed, _ = box_decode(a, y, 0.7, 1e6)
        np.testing.assert_allclose(boxed, ridge, atol=1e-8)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((16, 8))
            y = rng.standard_normal(16) * 2.0
            lr = rng.uniform(0.0, 1.5)
            x_box, kkt = box_decode(a, y, lr, 1.0)
            x_pg = projected_gradient_oracle(a, y, lr, 1.0)
            np.testing.assert_allclose(x_box, x_pg, atol=1e-8)
            assert kkt <= 1e-8

    def test_feasibility_and_kkt_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, k = int(rng.integers(6, 30)), int(rng.integers(2, 12))
            a = rng.standard_normal((n, k))
            y = rng.standard_normal(n) * 3.0
            t = float(rng.uniform(0.2, 2.0))
            lr = float(rng.uniform(0.0, 1.0)) if n > k else float(rng.uniform(0.1, 1.0))
            x, kkt = box_decode(a, y, lr, t)
            assert np.abs(x).max() <= t + 1e-12
            assert kkt <= 1e-8

    def test_beats_clipped_ridge_objective(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = rng.standard_normal((10, 5))
            y = rng.standard_normal(10) * 2.0
            lr = 0.4
            x_box, _ = box_decode(a, y, lr, 0.6)
            clipped = np.clip(ridge_decode(a, y, lr), -0.6, 0.6)
            assert box_objective_value(a, y, lr, x_box) <= box_objective_value(a, y, lr, clipped) + 1e-10

    def test_rejects_missing_threshold(self):
        with pytest.raises(ValueError):
            box_rls_solve(np.eye(2), np.ones(2), 1.0, None, np.full(2, 0.5))

    def test_ill_conditioned_instance_meets_kkt(self):
        # seeds 3 and 7 cycle and finish by single-index steps
        for seed in (1, 3, 7):
            a, y, lr, t = ill_conditioned_instance(seed)
            x, kkt = box_decode(a, y, lr, t)
            assert kkt <= 1e-8
            np.testing.assert_allclose(x, projected_gradient_oracle(a, y, lr, t), atol=1e-8)

    def test_every_ill_conditioned_seed_meets_kkt(self):
        for seed in range(200):
            a, y, lr, t = ill_conditioned_instance(seed)
            x, kkt = box_decode(a, y, lr, t)
            assert np.abs(x).max() <= t, seed
            assert kkt <= 1e-8, seed

    def test_low_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(decoders, "AS_MAX_ITER", 0)
        rng = np.random.default_rng(23)
        for _ in range(5):
            a = rng.standard_normal((16, 8))
            y = rng.standard_normal(16) * 2.0
            with pytest.raises(ConvergenceError, match="cap with KKT residual"):
                box_decode(a, y, 0.3, 0.5)
        # seed 3 cycles and needs 13 steps, single-index ones included
        monkeypatch.setattr(decoders, "AS_MAX_ITER", 10)
        a, y, lr, t = ill_conditioned_instance(3)
        with pytest.raises(ConvergenceError, match="cap with KKT residual"):
            box_decode(a, y, lr, t)

    def test_unregularized_wide_system_fails(self):
        # lambda = 0 with fewer rows than columns: no ridge solution to start from
        rng = np.random.default_rng(29)
        a = rng.standard_normal((6, 10))
        with pytest.raises(ConvergenceError):
            box_decode(a, rng.standard_normal(6) * 3.0, 0.0, 0.5)


class TestGramForm:
    def test_solvers_leave_the_shared_gram_unchanged(self):
        # one draw's (G, r) is shared by every decoder of a batch
        rng = np.random.default_rng(31)
        a = rng.standard_normal((12, 6))
        y = rng.standard_normal(12) * 2.0
        gram, rhs = a.T @ a, a.T @ y
        before = gram.copy()
        ridge = rls_solve(gram, rhs, 0.5, a.shape[0])
        box_rls_solve(gram, rhs, 0.5, 0.4, ridge)
        np.testing.assert_array_equal(gram, before)


class TestGilFreeSolve:
    def test_every_trial_solve_is_large_enough_to_release_the_gil(self, monkeypatch):
        # numpy's linalg gufuncs release the GIL only above 500 core elements;
        # ls, rls at lam~ 0.4, lmmse and the box cover three ridge systems and
        # the box free blocks
        sizes = []
        solve = np.linalg.solve

        def recording_solve(a, b):
            x = solve(a, b)
            sizes.append(x.size)
            return x

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        cfg = SystemConfig(k=64, n=77, t_total=160, t_pilot=73, rho_db=10.0, alpha=0.5, m=2,
                           power_convention=PowerConvention.DIRECT_SPLIT)
        specs = (DecoderSpec.ls(), DecoderSpec.rls(0.4), DecoderSpec.box(1.0, 1.0),
                 DecoderSpec.lmmse())
        run_batch([(cfg, tuple((spec, 1.0) for spec in specs))], 6, 3, workers=2)
        assert len(sizes) > 6 * 3  # three ridge solves per trial plus the box's
        assert min(sizes) > 500

    @pytest.mark.parametrize("n", [0, 1, 250, 251, 501])
    def test_padded_solve_matches_the_vector_solve(self, n):
        # n = 0 is an empty free block
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n + 8, n))
        gram = a.T @ a + np.eye(n)
        b = rng.standard_normal(n)
        x = decoders._solve(gram, b)
        assert x.shape == (n,)
        np.testing.assert_allclose(x, np.linalg.solve(gram, b), rtol=1e-12, atol=0)


class TestLmmseDecode:
    def test_equals_optimally_regularized_ridge(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            hhat = rng.standard_normal((8, 4))
            y = rng.standard_normal(8)
            rho_d = float(rng.uniform(0.2, 20.0))
            s_d2 = float(rng.uniform(0.0, 0.9))
            a = np.sqrt(rho_d / 4) * hhat
            want = ridge_decode(a, y, 1.0 + rho_d * s_d2)
            got = lmmse_decode(hhat, y, rho_d, s_d2)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_perfect_csi_reduces_to_inverse_snr_ridge(self):
        rng = np.random.default_rng(6)
        hhat = rng.standard_normal((8, 4))
        y = rng.standard_normal(8)
        rho_d = 2.5
        a = np.sqrt(rho_d / 4) * hhat
        want = ridge_decode(a, y, (1.0 / rho_d) * rho_d)
        np.testing.assert_allclose(lmmse_decode(hhat, y, rho_d, 0.0), want, atol=1e-10)

    def test_matches_covariance_form_oracle(self):
        # direct C_xy C_yy^{-1} y, before any matrix-inversion identity
        rng = np.random.default_rng(9)
        for _ in range(5):
            k, n = 4, 8
            hhat = rng.standard_normal((n, k))
            y = rng.standard_normal(n)
            rho_d = float(rng.uniform(0.5, 10.0))
            s_d2 = float(rng.uniform(0.0, 0.8))
            c_xy = np.sqrt(rho_d / k) * hhat.T
            c_yy = (rho_d / k) * hhat @ hhat.T + (rho_d * s_d2 + 1.0) * np.eye(n)
            want = c_xy @ np.linalg.solve(c_yy, y)
            np.testing.assert_allclose(lmmse_decode(hhat, y, rho_d, s_d2), want, atol=1e-8)



class TestDecoderSpec:
    def test_constructors_are_theory_points(self):
        inf = math.inf
        assert DecoderSpec._fields == ("lam_tilde", "t_box")
        assert DecoderSpec.ls() == DecoderSpec(0.0, inf)
        assert DecoderSpec.lmmse() == DecoderSpec(1.0, inf)
        assert DecoderSpec.rls(0.4) == DecoderSpec(0.4, inf)
        assert DecoderSpec.box(0.4, 1.5) == DecoderSpec(0.4, 1.5)
        # one point is one decoder: equal, and one key of a dict
        assert DecoderSpec.lmmse() == DecoderSpec.rls(1.0) == (1.0, math.inf)
        assert hash(DecoderSpec.lmmse()) == hash(DecoderSpec.rls(1.0))

    @pytest.mark.parametrize("lam_tilde", [-0.5, -1e-300, math.inf, math.nan])
    def test_rejects_bad_ridge_coefficient(self, lam_tilde):
        with pytest.raises(ConfigError, match="lam~"):
            DecoderSpec.rls(lam_tilde)
        with pytest.raises(ConfigError, match="lam~"):
            DecoderSpec.box(lam_tilde, 1.0)

    @pytest.mark.parametrize("t_box", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_threshold(self, t_box):
        with pytest.raises(ConfigError, match="t_box"):
            DecoderSpec.box(0.3, t_box)

    def test_threshold_is_finite_exactly_for_the_box_decoder(self):
        # the kind is read off the point; an infinite box is the ridge decoder
        assert DecoderSpec.box(0.3, math.inf) == DecoderSpec.rls(0.3)
        assert DecoderSpec.box(0.3, math.inf).kind is DecoderKind.RLS
        for lam_tilde in (0.0, 0.3, 1.0):
            assert DecoderSpec.box(lam_tilde, 1.0).kind is DecoderKind.BOX

    def test_ls_and_lmmse_fix_their_coefficient(self):
        assert DecoderSpec.ls().lam_tilde == 0.0
        assert DecoderSpec.lmmse().lam_tilde == 1.0
        # the ridge decoder at lam~ = 0 is LS; LMMSE is a config label only
        assert DecoderSpec.rls(0.0) == DecoderSpec.ls()
        assert DecoderSpec.rls(0.0).kind is DecoderKind.LS
        assert {DecoderSpec.rls(x).kind for x in (1e-300, 0.999, 1.0)} == {DecoderKind.RLS}
        assert DecoderSpec.lmmse().kind is DecoderKind.RLS
