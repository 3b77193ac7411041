"""Linear/box solvers against independent oracles, KKT and feasibility."""

import numpy as np
import pytest

from mimopam import ConvergenceError, box_rls_solve, lmmse_decode, rls_solve


def projected_gradient_oracle(a, y, lam_rho_d, t, max_iter=500_000, tol=1e-15):
    """Fixed-step projected gradient on the same objective; independent of the
    coordinate-descent implementation under test."""
    gram = a.T @ a
    rhs = a.T @ y
    lip = 2.0 * (np.linalg.eigvalsh(gram)[-1] + lam_rho_d)
    x = np.zeros(a.shape[1])
    for _ in range(max_iter):
        grad = 2.0 * (gram @ x + lam_rho_d * x - rhs)
        x_new = np.clip(x - grad / lip, -t, t)
        if np.abs(x_new - x).max() < tol:
            return x_new
        x = x_new
    return x


def box_objective_value(a, y, lam_rho_d, x):
    r = y - a @ x
    return float(r @ r + lam_rho_d * (x @ x))


class TestRlsSolve:
    def test_identity_matrix_passthrough(self):
        y = np.array([0.3, -1.2, 2.0])
        x = rls_solve(np.eye(3), y, 0.0)
        np.testing.assert_allclose(x, y, atol=1e-12)

    def test_identity_matrix_shrinkage(self):
        y = np.array([0.3, -1.2, 2.0])
        x = rls_solve(np.eye(3), y, 1.0)
        np.testing.assert_allclose(x, y / 2.0, atol=1e-12)

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            a = rng.standard_normal((8, 4))
            y = rng.standard_normal(8)
            lr = rng.uniform(0.0, 2.0)
            want = np.linalg.pinv(a.T @ a + lr * np.eye(4)) @ (a.T @ y)
            got = rls_solve(a, y, lr)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_singular_unregularized_system_fails(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 5))
        with pytest.raises(ConvergenceError):
            rls_solve(a, rng.standard_normal(3), 0.0)


class TestBoxRlsSolve:
    def test_one_dimensional_clip(self):
        # unconstrained optimum of (2 - x)^2 + x^2 is 1; the box ends at 0.5
        x, kkt = box_rls_solve(np.array([[1.0]]), np.array([2.0]), 1.0, 0.5)
        assert x[0] == pytest.approx(0.5, abs=1e-12)
        assert kkt <= 1e-8

    def test_inactive_box_matches_ridge(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 6))
        y = rng.standard_normal(12)
        ridge = rls_solve(a, y, 0.7)
        boxed, _ = box_rls_solve(a, y, 0.7, 1e6)
        np.testing.assert_allclose(boxed, ridge, atol=1e-8)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.standard_normal((16, 8))
            y = rng.standard_normal(16) * 2.0
            lr = rng.uniform(0.0, 1.5)
            x_cd, kkt = box_rls_solve(a, y, lr, 1.0)
            x_pg = projected_gradient_oracle(a, y, lr, 1.0)
            np.testing.assert_allclose(x_cd, x_pg, atol=1e-8)
            assert kkt <= 1e-8

    def test_feasibility_and_kkt_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, k = int(rng.integers(6, 30)), int(rng.integers(2, 12))
            a = rng.standard_normal((n, k))
            y = rng.standard_normal(n) * 3.0
            t = float(rng.uniform(0.2, 2.0))
            lr = float(rng.uniform(0.0, 1.0)) if n > k else float(rng.uniform(0.1, 1.0))
            x, kkt = box_rls_solve(a, y, lr, t)
            assert np.abs(x).max() <= t + 1e-12
            assert kkt <= 1e-8

    def test_beats_clipped_ridge_objective(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = rng.standard_normal((10, 5))
            y = rng.standard_normal(10) * 2.0
            lr = 0.4
            x_box, _ = box_rls_solve(a, y, lr, 0.6)
            clipped = np.clip(rls_solve(a, y, lr), -0.6, 0.6)
            assert box_objective_value(a, y, lr, x_box) <= box_objective_value(a, y, lr, clipped) + 1e-10

    def test_rejects_missing_threshold(self):
        with pytest.raises(ValueError):
            box_rls_solve(np.eye(2), np.ones(2), 1.0, None)


class TestLmmseDecode:
    def test_equals_optimally_regularized_ridge(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            hhat = rng.standard_normal((8, 4))
            y = rng.standard_normal(8)
            rho_d = float(rng.uniform(0.2, 20.0))
            s_d2 = float(rng.uniform(0.0, 0.9))
            a = np.sqrt(rho_d / 4) * hhat
            want = rls_solve(a, y, 1.0 + rho_d * s_d2)
            got = lmmse_decode(hhat, y, rho_d, s_d2)
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_perfect_csi_reduces_to_inverse_snr_ridge(self):
        rng = np.random.default_rng(6)
        hhat = rng.standard_normal((8, 4))
        y = rng.standard_normal(8)
        rho_d = 2.5
        a = np.sqrt(rho_d / 4) * hhat
        want = rls_solve(a, y, (1.0 / rho_d) * rho_d)
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

