"""Ridge and box-constrained ridge decoders.

LS and LMMSE are ridge at lambda = 0 and lambda = lambda*, so two solvers
cover all four decoders. All solvers are pure functions of their inputs. The
box-constrained solver is a primal-dual active set (semismooth Newton) method
(Hintermueller, Ito & Kunisch, SIAM J. Optim. 13(3), 2002): a few exact
free-block solves whose time is spent in LAPACK, outside the GIL. Cyclic
coordinate descent with exact per-coordinate minimization and clipping is
kept as its fallback and test oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError

RLS_RESIDUAL_RTOL = 1e-8
CD_STEP_TOL = 1e-10
CD_MAX_SWEEPS = 10_000
CD_FAIL_RESIDUAL = 1e-6
AS_MAX_ITER = 30
BOX_KKT_RTOL = 1e-12  # active-set stop: KKT residual relative to max(1, |A'y|)


class DecoderKind(str, enum.Enum):
    LS = "ls"
    RLS = "rls"
    BOX = "box"
    LMMSE = "lmmse"


@dataclass(frozen=True)
class DecoderSpec:
    """Which decoder to run and with what knobs.

    lam is the ridge coefficient of RLS and BOX (multiplied by rho_d inside
    the solvers); LS and LMMSE fix theirs at 0 and lambda*, see
    asymptotics.ridge_coefficient. t_box is the box half-width, set exactly
    for BOX.
    """

    kind: DecoderKind
    lam: float = 0.0
    t_box: float | None = None

    def __post_init__(self) -> None:
        if (self.kind is DecoderKind.BOX) != (self.t_box is not None):
            raise ConfigError("t_box must be set for the box decoder and only for it")

    @staticmethod
    def ls() -> "DecoderSpec":
        return DecoderSpec(DecoderKind.LS, lam=0.0)

    @staticmethod
    def rls(lam: float) -> "DecoderSpec":
        return DecoderSpec(DecoderKind.RLS, lam=lam)

    @staticmethod
    def box(lam: float, t_box: float) -> "DecoderSpec":
        return DecoderSpec(DecoderKind.BOX, lam=lam, t_box=t_box)

    @staticmethod
    def lmmse() -> "DecoderSpec":
        return DecoderSpec(DecoderKind.LMMSE)


def rls_solve(a: np.ndarray, y: np.ndarray, lam_rho_d: float) -> np.ndarray:
    """Solve (A'A + lam_rho_d I) x = A'y.

    Raises ConvergenceError if the system is singular (e.g. lam_rho_d = 0
    with a wide A) or if the solve residual is out of tolerance.
    """
    return _ridge_from_gram(a.T @ a, a.T @ y, lam_rho_d, a.shape[0])


def _ridge_from_gram(gram: np.ndarray, rhs: np.ndarray, lam_rho_d: float, rows: int) -> np.ndarray:
    """rls_solve from gram = A'A, rhs = A'y and A's row count; gram is
    regularized in place."""
    if lam_rho_d < 0:
        raise ValueError("lam_rho_d must be nonnegative")
    if lam_rho_d == 0 and rows < len(gram):
        raise ConvergenceError("unregularized solve needs at least as many rows as columns")
    gram[np.diag_indices_from(gram)] += lam_rho_d
    try:
        x = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"normal-equations matrix is singular: {exc}") from exc
    resid = np.abs(gram @ x - rhs).max()
    scale = max(np.abs(rhs).max(), 1e-300)
    if resid > RLS_RESIDUAL_RTOL * scale:
        raise ConvergenceError(f"linear solve residual {resid:.3e} exceeds tolerance")
    return x


def box_rls_solve(
    a: np.ndarray, y: np.ndarray, lam_rho_d: float, t_box: float
) -> tuple[np.ndarray, float]:
    """Minimize ||y - A x||^2 + lam_rho_d ||x||^2 over the box [-t, t]^K.

    Primal-dual active set method, handing over to coordinate descent
    (_box_cd) when it gives up; either way the solution is checked against
    the projected-gradient fixed-point condition. Returns (x_hat,
    kkt_residual).
    """
    if t_box is None or not t_box > 0:
        raise ValueError("box_rls_solve needs a positive t_box")
    solved = _box_active_set(a, y, float(lam_rho_d), float(t_box))
    return solved if solved is not None else _box_cd(a, y, lam_rho_d, t_box)


def _box_active_set(
    a: np.ndarray, y: np.ndarray, lr: float, t: float
) -> tuple[np.ndarray, float] | None:
    """Primal-dual active set iteration from the clipped ridge solution.

    Each step predicts the clipped coordinates from the Jacobi-scaled test
    z = x - grad/diag(G), G = A'A + lr I (unscaled, the sets cycle when most
    coordinates are clipped), pins them at +-t and solves the free block
    exactly. Returns None, for coordinate descent to take over, when the
    ridge warm start is unavailable (lr = 0 with fewer rows than columns), on
    a singular free block, on a repeated active-set pair (cycling) and after
    AS_MAX_ITER steps.
    """
    gram = a.T @ a
    rhs = a.T @ y
    try:
        # regularizes gram in place: from here on it is G
        x = np.clip(_ridge_from_gram(gram, rhs, lr, a.shape[0]), -t, t)
    except ConvergenceError:
        return None
    diag = np.diag(gram)
    tol = BOX_KKT_RTOL * max(1.0, float(np.abs(rhs).max()))
    seen: set[tuple[bytes, bytes]] = set()
    while True:
        half_grad = gram @ x - rhs
        kkt = _projected_gradient_residual(x, half_grad, t)
        if kkt <= tol:
            return x, kkt
        z = x - half_grad / diag
        upper, lower = z > t, z < -t
        pair = (upper.tobytes(), lower.tobytes())
        if pair in seen or len(seen) >= AS_MAX_ITER:
            return None
        seen.add(pair)
        free = np.flatnonzero(~(upper | lower))
        x = np.where(upper, t, np.where(lower, -t, 0.0))
        # numpy has no triangular solve and scipy is no runtime dependency,
        # so the SPD free block is factored by LU (LAPACK gesv)
        try:
            x[free] = np.linalg.solve(gram[np.ix_(free, free)], rhs[free] - (gram @ x)[free])
        except np.linalg.LinAlgError:
            return None


def _box_cd(
    a: np.ndarray, y: np.ndarray, lam_rho_d: float, t_box: float
) -> tuple[np.ndarray, float]:
    """box_rls_solve by cyclic coordinate descent with exact coordinate updates.

    The fallback of the active set method and its test oracle. The running
    objective must be non-increasing every sweep, and the solution is checked
    against the projected-gradient fixed-point condition on exit.
    """
    if t_box is None or not t_box > 0:
        raise ValueError("box_rls_solve needs a positive t_box")
    t, lr = float(t_box), float(lam_rho_d)
    k = a.shape[1]
    gram = a.T @ a
    rhs = a.T @ y
    diag = np.diag(gram) + lr
    if np.any(diag <= 0):
        raise ConvergenceError("objective is not strongly convex coordinate-wise")
    cols = [np.ascontiguousarray(gram[:, j]) for j in range(k)]

    # Warm start from the clipped unconstrained solution when it is available;
    # fall back to zero otherwise.
    try:
        x = np.clip(_ridge_from_gram(gram.copy(), rhs, lr, a.shape[0]), -t, t)
    except ConvergenceError:
        x = np.zeros(k)
    half_grad = gram @ x + lr * x - rhs

    def objective() -> float:
        # ||y - Ax||^2 + lr||x||^2 = y'y - x'rhs + x'half_grad
        return float(y @ y - x @ rhs + x @ half_grad)

    prev_obj = objective()
    converged = False
    for _ in range(CD_MAX_SWEEPS):
        largest_step = 0.0
        for j in range(k):
            xj = x[j] - half_grad[j] / diag[j]
            if xj > t:
                xj = t
            elif xj < -t:
                xj = -t
            step = xj - x[j]
            if step != 0.0:
                half_grad += step * cols[j]
                half_grad[j] += step * lr
                x[j] = xj
                if abs(step) > largest_step:
                    largest_step = abs(step)
        obj = objective()
        if obj > prev_obj + 1e-9 * max(1.0, abs(prev_obj)):
            raise ConvergenceError("coordinate-descent objective increased within a sweep")
        prev_obj = obj
        if largest_step < CD_STEP_TOL:
            converged = True
            break

    kkt = _projected_gradient_residual(x, half_grad, t)
    if not converged and kkt > CD_FAIL_RESIDUAL:
        raise ConvergenceError(
            f"coordinate descent hit the sweep cap with KKT residual {kkt:.3e}"
        )
    return x, kkt


def _projected_gradient_residual(x: np.ndarray, half_grad: np.ndarray, t: float) -> float:
    """Max-norm of x - clip(x - grad, -t, t); zero exactly at a KKT point."""
    grad = 2.0 * half_grad
    return float(np.abs(x - np.clip(x - grad, -t, t)).max())


def lmmse_decode(
    hhat: np.ndarray, y: np.ndarray, rho_d: float, sigma_delta_sq: float
) -> np.ndarray:
    """Linear MMSE estimate of the data vector given the channel estimate.

    Algebraically identical to ridge at lambda* = 1/rho_d + sigma_delta_sq,
    i.e. lam_rho_d = 1 + rho_d * sigma_delta_sq.
    """
    a = math.sqrt(rho_d / hhat.shape[1]) * hhat
    return rls_solve(a, y, 1.0 + rho_d * sigma_delta_sq)
