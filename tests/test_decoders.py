"""Linear/box solvers against independent oracles, KKT and feasibility."""

import math

import numpy as np
import pytest

from mimopam import ConvergenceError, box_rls_solve, decoders, lmmse_decode, pam_constellation, rls_solve


def projected_gradient_oracle(a, y, lam_rho_d, t, max_iter=500_000, tol=1e-15):
    """Fixed-step projected gradient on the same objective; independent of both
    box solvers under test."""
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


@pytest.fixture
def box_solvers(monkeypatch):
    """Both box solvers by name: the active set method with its hand-over to
    coordinate descent disabled, and coordinate descent alone."""
    coordinate_descent = decoders._box_cd

    def no_fallback(*args):
        raise AssertionError("the active set method handed over to coordinate descent")

    monkeypatch.setattr(decoders, "_box_cd", no_fallback)
    return {"active_set": box_rls_solve, "coordinate_descent": coordinate_descent}


@pytest.fixture
def fallback_calls(monkeypatch):
    """Records each hand-over from the active set method to coordinate descent."""
    calls = []
    coordinate_descent = decoders._box_cd

    def counted(*args):
        calls.append(args)
        return coordinate_descent(*args)

    monkeypatch.setattr(decoders, "_box_cd", counted)
    return calls


def ill_conditioned_instance(seed=1):
    """n just below k at 30 dB with 8-PAM symbols and a tiny ridge term, the
    box a tenth above the largest symbol: cond(G) is about 4e5 and coordinate
    descent exhausts its sweep cap without meeting the KKT condition."""
    k, n, rho = 52, 50, 10**3.0
    rng = np.random.default_rng(seed)
    points = pam_constellation(8).points
    a = math.sqrt(rho / k) * rng.standard_normal((n, k))
    y = a @ points[rng.integers(0, 8, size=k)] + rng.standard_normal(n)
    return a, y, 1e-2, 1.1 * float(np.abs(points).max())


class TestBoxRlsSolve:
    def test_one_dimensional_clip(self, box_solvers):
        # unconstrained optimum of (2 - x)^2 + x^2 is 1; the box ends at 0.5
        for solve in box_solvers.values():
            x, kkt = solve(np.array([[1.0]]), np.array([2.0]), 1.0, 0.5)
            assert x[0] == pytest.approx(0.5, abs=1e-12)
            assert kkt <= 1e-8

    def test_inactive_box_matches_ridge(self, box_solvers):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 6))
        y = rng.standard_normal(12)
        ridge = rls_solve(a, y, 0.7)
        for solve in box_solvers.values():
            boxed, _ = solve(a, y, 0.7, 1e6)
            np.testing.assert_allclose(boxed, ridge, atol=1e-8)

    def test_matches_projected_gradient_oracle(self, box_solvers):
        for solve in box_solvers.values():
            rng = np.random.default_rng(7)
            for _ in range(10):
                a = rng.standard_normal((16, 8))
                y = rng.standard_normal(16) * 2.0
                lr = rng.uniform(0.0, 1.5)
                x_box, kkt = solve(a, y, lr, 1.0)
                x_pg = projected_gradient_oracle(a, y, lr, 1.0)
                np.testing.assert_allclose(x_box, x_pg, atol=1e-8)
                assert kkt <= 1e-8

    def test_feasibility_and_kkt_invariants(self, box_solvers):
        for solve in box_solvers.values():
            rng = np.random.default_rng(11)
            for _ in range(20):
                n, k = int(rng.integers(6, 30)), int(rng.integers(2, 12))
                a = rng.standard_normal((n, k))
                y = rng.standard_normal(n) * 3.0
                t = float(rng.uniform(0.2, 2.0))
                lr = float(rng.uniform(0.0, 1.0)) if n > k else float(rng.uniform(0.1, 1.0))
                x, kkt = solve(a, y, lr, t)
                assert np.abs(x).max() <= t + 1e-12
                assert kkt <= 1e-8

    def test_beats_clipped_ridge_objective(self, box_solvers):
        for solve in box_solvers.values():
            rng = np.random.default_rng(19)
            for _ in range(10):
                a = rng.standard_normal((10, 5))
                y = rng.standard_normal(10) * 2.0
                lr = 0.4
                x_box, _ = solve(a, y, lr, 0.6)
                clipped = np.clip(rls_solve(a, y, lr), -0.6, 0.6)
                assert box_objective_value(a, y, lr, x_box) <= box_objective_value(a, y, lr, clipped) + 1e-10

    def test_rejects_missing_threshold(self, box_solvers):
        for solve in box_solvers.values():
            with pytest.raises(ValueError):
                solve(np.eye(2), np.ones(2), 1.0, None)

    def test_ill_conditioned_instance_meets_kkt(self, box_solvers):
        a, y, lr, t = ill_conditioned_instance()
        x, kkt = box_solvers["active_set"](a, y, lr, t)
        assert kkt <= 1e-8
        np.testing.assert_allclose(x, projected_gradient_oracle(a, y, lr, t), atol=1e-8)

    def test_fallback_at_zero_iteration_cap(self, monkeypatch, fallback_calls):
        monkeypatch.setattr(decoders, "AS_MAX_ITER", 0)
        rng = np.random.default_rng(23)
        for _ in range(5):
            a = rng.standard_normal((16, 8))
            y = rng.standard_normal(16) * 2.0
            x, kkt = box_rls_solve(a, y, 0.3, 0.5)
            np.testing.assert_allclose(x, projected_gradient_oracle(a, y, 0.3, 0.5), atol=1e-8)
            assert kkt <= 1e-8
        assert len(fallback_calls) == 5

    def test_no_ridge_warm_start_takes_coordinate_descent(self, fallback_calls):
        # lambda = 0 with fewer rows than columns: no ridge solution to start from
        rng = np.random.default_rng(29)
        a = rng.standard_normal((6, 10))
        y = rng.standard_normal(6) * 3.0
        x, kkt = box_rls_solve(a, y, 0.0, 0.5)
        assert len(fallback_calls) == 1
        assert np.abs(x).max() <= 0.5 + 1e-12
        assert kkt <= 1e-8


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

