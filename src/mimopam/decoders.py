"""Ridge and box-constrained ridge decoders.

LS and LMMSE are ridge at lambda = 0 and lambda = lambda*, so two solvers
cover all four decoders, and a DecoderSpec names a decoder by its point
(lam~ = lambda / lambda*, t) of the theory, free of any scenario. Both
solvers read the data (A, y) only through its Gram form G = A'A, r = A'y,
and (c G, c r, c lam) has the minimizer of (G, r, lam) for any c > 0, so the
simulator gives both the one unscaled Gram of a trial at the shift of its
point, and the box solver starts from the ridge solution it is given. All
solvers are pure functions of their inputs and never write into G. The
box-constrained solver is a primal-dual active set (semismooth Newton)
method (Hintermueller, Ito & Kunisch, SIAM J. Optim. 13(3), 2002): a few
exact free-block solves whose time is spent in LAPACK, outside the GIL, with
single-index set changes once the predicted sets repeat. numpy is imported
inside the solvers, not at module level, so the theory, which imports
DecoderSpec from here, runs without loading it.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import Checked, ConfigError, ConvergenceError

if TYPE_CHECKING:
    import numpy as np

RLS_RESIDUAL_RTOL = 1e-8
AS_MAX_ITER = 500
BOX_KKT_RTOL = 1e-12  # active-set stop: KKT residual relative to max(1, |A'y|)
# numpy's linalg gufuncs release the GIL only when their core dimensions
# cover more than 500 elements, n * columns for solve. Measured with numpy
# 2.4.6, one BLAS thread and 2 cores: two threads ran a one-column solve at
# n = 400 at 0.7-1.0x the serial speed, and a (400, 2) right-hand side at
# 1.7-2.3x.
_GIL_FREE_SIZE = 501


# a decoder's name in configs and CSV rows; LMMSE, ridge at lam~ = 1, is no DecoderSpec's kind
class DecoderKind(str, enum.Enum):
    LS = "ls"
    RLS = "rls"
    BOX = "box"
    LMMSE = "lmmse"


class _DecoderSpecFields(NamedTuple):
    lam_tilde: float
    t_box: float = math.inf


class DecoderSpec(Checked, _DecoderSpecFields):
    """A decoder as its point (lam~, t) of the theory.

    lam_tilde = lam / lambda* is the ridge coefficient in units of LMMSE's,
    so LS is lam~ = 0 and LMMSE lam~ = 1 at every scenario; the simulator
    solves with lam~ and the raw coefficient is lam~ lambda*. t_box is the
    box half-width, inf (no box) for the ridge decoders: LS is
    DecoderSpec(0.0), LMMSE DecoderSpec(1.0) and the box decoder
    DecoderSpec(lam~, t). Equal points are one decoder.
    """

    __slots__ = ()

    def _check(self) -> None:
        if not 0.0 <= self.lam_tilde < math.inf:
            raise ConfigError(f"lam~ must be finite and nonnegative, got {self.lam_tilde!r}")
        if not self.t_box > 0:
            raise ConfigError(f"t_box must be positive, got {self.t_box!r}")

    @property
    def kind(self) -> DecoderKind:
        """BOX at a finite t, else LS at lam~ = 0 and RLS at any other lam~."""
        if math.isfinite(self.t_box):
            return DecoderKind.BOX
        return DecoderKind.LS if self.lam_tilde == 0.0 else DecoderKind.RLS


def rls_solve(gram: np.ndarray, rhs: np.ndarray, lam: float, rows: int) -> np.ndarray:
    """Solve (G + lam I) x = r from gram = G = A'A, rhs = r = A'y and the
    row count of A. rhs may be a K x c matrix, one right-hand side per
    column, solved with one LU; x has its shape. lam is the ridge
    coefficient of the model (A, y): the simulator passes the shift
    lam~ / s^2 of its unscaled channel. gram is left as it is.

    Raises ConvergenceError if the system is singular (e.g. lam = 0 with
    fewer rows than columns) or if the solve residual of any column is out
    of tolerance relative to that column of rhs.
    """
    import numpy as np

    if lam < 0:
        raise ValueError("the ridge coefficient lam must be nonnegative")
    if lam == 0 and rows < len(gram):
        raise ConvergenceError("unregularized solve needs at least as many rows as columns")
    reg = gram.copy()
    reg.flat[::len(reg) + 1] += lam
    try:
        x = _solve(reg, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"normal-equations matrix is singular: {exc}") from exc
    resid = np.abs(reg @ x - rhs).max(axis=0)
    scale = np.maximum(np.abs(rhs).max(axis=0), 1e-300)
    if np.any(resid > RLS_RESIDUAL_RTOL * scale):
        raise ConvergenceError(
            f"linear solve residual {np.max(resid / scale):.3e} (relative) exceeds tolerance"
        )
    return x


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a right-hand side b of one or more
    columns, padded with zero columns to at least _GIL_FREE_SIZE elements,
    above which the solve runs outside the GIL, so worker threads solve in
    parallel. On one thread the padded solve took 8-14% longer than the
    vector solve at n = 250-400, against the 1.6-2.1x that two threads then
    gain on rls_solve at n = 400."""
    import numpy as np

    n = len(b)
    cols = b[:, None] if b.ndim == 1 else b
    given = cols.shape[1]
    width = math.ceil(_GIL_FREE_SIZE / max(n, 1))
    if given < width:
        cols = np.concatenate([cols, np.zeros((n, width - given))], axis=1)
    x = np.linalg.solve(a, cols)[:, :given]
    return x[:, 0].copy() if b.ndim == 1 else x


def box_rls_solve(
    gram: np.ndarray, rhs: np.ndarray, lam: float, t_box: float, ridge: np.ndarray
) -> tuple[np.ndarray, float]:
    """Minimize ||y - A x||^2 + lam ||x||^2 over the box [-t, t]^K, given
    gram = A'A, rhs = A'y and ridge, the rls_solve solution at the same
    lam. gram is left as it is.

    Primal-dual active set iteration from the clipped ridge solution. Each
    step predicts the clipped coordinates from the Jacobi-scaled test
    z = x - grad/diag(G), G = A'A + lam I (unscaled, the sets cycle when
    most coordinates are clipped), pins them at +-t and solves the free block
    exactly. Once a predicted (upper, lower) pair repeats, the sets change by
    single-index steps instead (Murty's rule, Judice & Pires, Comput. Oper.
    Res. 21(5), 1994): the largest index that violates the sets of the last
    solve moves, a free coordinate outside the box to the bound it crossed, a
    pinned coordinate whose gradient points into the box to the free block.
    Returns (x_hat, kkt_residual) once the projected-gradient residual meets
    BOX_KKT_RTOL; raises ConvergenceError with the residual on a singular
    free block, after AS_MAX_ITER steps, or when no index violates the sets
    while the residual is above tolerance.
    """
    import numpy as np

    if t_box is None or not t_box > 0:
        raise ValueError("box_rls_solve needs a positive t_box")
    t = float(t_box)
    lam = float(lam)
    x = np.clip(ridge, -t, t)
    diag = np.diag(gram) + lam
    tol = BOX_KKT_RTOL * max(1.0, float(np.abs(rhs).max()))
    seen: set[tuple[bytes, bytes]] = set()
    single_index = False
    for step in range(AS_MAX_ITER + 1):
        half_grad = gram @ x + lam * x - rhs
        kkt = _projected_gradient_residual(x, half_grad, t)
        if kkt <= tol:
            return x, kkt
        if step == AS_MAX_ITER:
            raise ConvergenceError(
                f"box active set hit its {AS_MAX_ITER}-step cap with KKT residual {kkt:.3e}"
            )
        if not single_index:
            z = x - half_grad / diag
            predicted = (z > t, z < -t)
            pair = (predicted[0].tobytes(), predicted[1].tobytes())
            single_index = pair in seen
            seen.add(pair)
        if single_index:
            was_free = ~(upper | lower)
            violated = np.flatnonzero(
                np.where(was_free, np.abs(x) > t, np.where(upper, half_grad > 0, half_grad < 0))
            )
            if violated.size == 0:
                raise ConvergenceError(
                    f"box active set: no violated index with KKT residual {kkt:.3e}"
                )
            j = violated[-1]
            upper[j], lower[j] = was_free[j] and x[j] > t, was_free[j] and x[j] < -t
        else:
            upper, lower = predicted
        free = np.flatnonzero(~(upper | lower))
        x = np.where(upper, t, np.where(lower, -t, 0.0))
        # fancy indexing copies, so shifting the block's diagonal leaves gram as it is
        block = gram[np.ix_(free, free)]
        block.flat[::free.size + 1] += lam
        # numpy has no triangular solve and scipy is no runtime dependency,
        # so the SPD free block is factored by LU (LAPACK gesv); x is 0 on
        # the free set, where gram @ x therefore needs no lam x term
        try:
            x[free] = _solve(block, rhs[free] - (gram @ x)[free])
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"box active set: singular free block with KKT residual {kkt:.3e}"
            ) from exc


def _projected_gradient_residual(x: np.ndarray, half_grad: np.ndarray, t: float) -> float:
    """Max-norm of x - clip(x - grad, -t, t); zero exactly at a KKT point."""
    import numpy as np

    grad = 2.0 * half_grad
    return float(np.abs(x - np.clip(x - grad, -t, t)).max())


def lmmse_decode(
    hhat: np.ndarray, y: np.ndarray, rho_d: float, sigma_delta_sq: float
) -> np.ndarray:
    """Linear MMSE estimate of the data vector given the channel estimate.

    Algebraically identical to ridge at lambda* = 1/rho_d + sigma_delta_sq,
    i.e. rls_solve on A = sqrt(rho_d/K) Hhat with lam = lambda* rho_d =
    1 + rho_d sigma_delta_sq.
    """
    a = math.sqrt(rho_d / hhat.shape[1]) * hhat
    return rls_solve(a.T @ a, a.T @ y, 1.0 + rho_d * sigma_delta_sq, a.shape[0])
