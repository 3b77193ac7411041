"""Seeded Monte Carlo link simulation on the effective data model.

LMMSE training leaves an estimation error that is Gaussian and independent
of the estimate, so the data phase divided by s = sqrt(1 + c), c =
rho_d sigma_delta^2, is y = A x0 + w: A has iid N(0, rho_eff/K) entries and,
given x0, w has iid entries of variance (1 + c |x0|^2/K) / (1 + c), exactly 1
for BPSK (Hassibi & Hochwald, IEEE T-IT 49(4), 2003). Decoding (A, y) with
the spec's lam~ = lam / lambda* has the minimizer of the raw problem with
lam rho_d, so a trial never needs the raw coefficient.
make_pilots and estimate_channel are the explicit training phase it replaces.

Per-trial randomness comes from an independent stream keyed by
(master_seed, trial_index), so a batch is reproducible bit-for-bit and its
trials can be evaluated in any order or in parallel. Within a trial the draw
order is fixed: an N x K channel Z of unit variance, data symbols x0, unit
noise z. Every point of a sweep has the same (N, K, M), so its trial i is
the same (Z, x0, z), scaled: A = s Z with s^2 = rho_eff/K and w = w_std z.
run_batch is trial-major: it draws trial i once for the whole sweep and
reduces it to Z'Z, Z'Z x0 and Z'z (dropping Z). A point's ridge and box
problems on (A, y) are those of G = s^2 Z'Z, r = s^2 c at lam~, with the
column c = Z'Z x0 + (w_std / s) Z'z; divided by s^2 they have the same
minimizer on (Z'Z, c) at the shift mu = lam~/s^2, so both decoders solve
(Z'Z + mu I) x = c on the one shared Z'Z and no scaled copy is formed. As
c is linear in the trial's two vectors, the ridge solution is X[:, 0] +
(w_std / s) X[:, 1], X solving (Z'Z + mu I) X = [Z'Z x0, Z'z]: each trial
solves that one two-column system per distinct shift, on first request, so
LS (mu = 0) is one solve per trial for the whole sweep, and every solve has
the same right-hand side whatever the sweep around a point. The box decoder
starts from its point's ridge solution.

numpy is imported inside the functions that draw, decode and aggregate, not
at module level, so importing the package and the theory modes, which use
none of them, never load it; the theory (asymptotics) is not imported at
all: run_batch takes the debias constants B from its caller.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

from .decoders import DecoderSpec, box_rls_solve, rls_solve
from .errors import ConfigError, ConvergenceError
from .system import SystemConfig, derive_params, pam_points, slice_symbols

if TYPE_CHECKING:
    import numpy as np

    from .asymptotics import Prediction

PILOT_ORTH_TOL = 1e-9
_PILOT_STREAM_TAG = 0x50494C4F  # distinguishes the pilot stream from trial streams


class TrialOutcome(NamedTuple):
    mse: float
    ser: float


class BatchStats(NamedTuple):
    trials: int
    mean_mse: float
    mean_ser: float
    stderr_mse: float
    stderr_ser: float


def trial_stream(master_seed: int, trial_idx: int) -> np.random.Generator:
    """Independent per-trial generator keyed by (master_seed, trial index)."""
    import numpy as np

    return np.random.default_rng([int(master_seed), int(trial_idx)])


def make_pilots(k: int, t_pilot: int, seed: int) -> np.ndarray:
    """K x T_p pilot matrix with X X' = T_p I, deterministic given seed.

    Built as sqrt(T_p) times the first K rows of an orthonormal matrix
    obtained by orthonormalizing a seeded Gaussian square matrix; column signs
    are fixed from the factorization so the result does not depend on LAPACK
    sign choices.
    """
    import numpy as np

    if t_pilot < k:
        raise ConfigError(f"pilot orthogonality requires t_pilot >= k (got {t_pilot} < {k})")
    rng = np.random.default_rng([int(seed), _PILOT_STREAM_TAG])
    gauss = rng.standard_normal((t_pilot, t_pilot))
    q, r = np.linalg.qr(gauss)
    q = q * np.sign(np.diag(r))
    x_p = math.sqrt(t_pilot) * q[:k, :]
    err = np.abs(x_p @ x_p.T - t_pilot * np.eye(k)).max()
    if err > PILOT_ORTH_TOL:
        raise ConfigError(f"pilot orthogonalization residual {err:.3e} out of tolerance")
    return x_p


def estimate_channel(
    h: np.ndarray,
    x_p: np.ndarray,
    rho_p: float,
    noise_seed,
) -> tuple[np.ndarray, np.ndarray]:
    """Train over the pilot block and return (hhat, delta = h - hhat).

    With orthogonal pilots the linear MMSE channel estimate collapses to a
    scalar multiple of Y_p X_p'. noise_seed may be an int or a Generator.
    """
    import numpy as np

    if rho_p <= 0:
        raise ConfigError("rho_p must be positive")
    rng = np.random.default_rng(noise_seed)
    n, k = h.shape
    t_pilot = x_p.shape[1]
    z_p = rng.standard_normal((n, t_pilot))
    y_p = math.sqrt(rho_p / k) * h @ x_p + z_p
    scale = math.sqrt(k / rho_p) / (k / rho_p + t_pilot)
    hhat = scale * (y_p @ x_p.T)
    return hhat, h - hhat


class SharedTrial(NamedTuple):
    """One trial index drawn once for a whole sweep, in units of the
    unscaled channel Z (iid N(0, 1) entries): the symbols x0 and the
    reductions Z'Z, Z'Z x0 and Z'z of the data noise z. Z is dropped once
    they are formed. ridge_bases maps each shift mu solved so far to X, the
    solution of (Z'Z + mu I) X = [Z'Z x0, Z'z]."""

    x0: np.ndarray
    zz: np.ndarray
    zzx: np.ndarray
    zw: np.ndarray
    rows: int
    ridge_bases: dict[float, np.ndarray]

    def ridge_basis(self, shift: float) -> np.ndarray:
        """X at the shift, from one rls_solve on its first request; a shift
        whose solve fails raises its ConvergenceError on every request."""
        import numpy as np

        if shift not in self.ridge_bases:
            self.ridge_bases[shift] = rls_solve(
                self.zz, np.column_stack((self.zzx, self.zw)), shift, self.rows)
        return self.ridge_bases[shift]


def draw_shared(n: int, k: int, m: int, seed: int, trial_idx: int) -> SharedTrial:
    """Trial trial_idx, deterministic given (seed, trial_idx); the draw
    order is Z, x0, z."""
    rng = trial_stream(seed, trial_idx)
    z = rng.standard_normal((n, k))
    x0 = pam_points(m)[rng.integers(0, m, size=k)]
    zz = z.T @ z
    return SharedTrial(x0, zz, zz @ x0, z.T @ rng.standard_normal(n), n, {})


def run_trial(
    cfg: SystemConfig,
    decoder_spec: DecoderSpec,
    draw: SharedTrial,
    b_norm: float,
) -> TrialOutcome:
    """Decode cfg's point of the shared trial with one decoder (ridge or box
    solve), normalize and slice. b_norm is the debias constant B of the
    decoder (predict).

    The point's model is A = s Z, y = A x0 + w_std z with s^2 = rho_eff / K,
    so its problems at lam~ are solved on Z'Z at the shift lam~ / s^2 with
    the column Z'Z x0 + kappa Z'z, kappa = w_std / s."""
    import numpy as np

    dp = derive_params(cfg)
    c = dp.rho_d * dp.sigma_delta_sq
    s_sq = dp.rho_eff / cfg.k
    w_std = math.sqrt((1.0 + c * (draw.x0 @ draw.x0) / cfg.k) / (1.0 + c))
    kappa = w_std / math.sqrt(s_sq)
    shift = decoder_spec.lam_tilde / s_sq
    basis = draw.ridge_basis(shift)
    x_hat = basis[:, 0] + kappa * basis[:, 1]
    if math.isfinite(decoder_spec.t_box):
        x_hat, _ = box_rls_solve(
            draw.zz, draw.zzx + kappa * draw.zw, shift, decoder_spec.t_box, x_hat)
    x_star = slice_symbols(x_hat / b_norm, pam_points(cfg.m))
    mse = float(np.mean((x_hat - draw.x0) ** 2))
    ser = float(np.mean(x_star != draw.x0))
    return TrialOutcome(mse=mse, ser=ser)


BatchPoint = tuple[SystemConfig, tuple[tuple[DecoderSpec, float], ...]]


def run_batch(
    points: Sequence[BatchPoint],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> list[list[BatchStats | ConvergenceError]]:
    """Aggregate independent trials of every decoder at every sweep point
    into sample means and standard errors.

    A point is (cfg, ((spec, b_norm), ...)), b_norm being the spec's debias
    constant B from predict; every point must have the same (n, k, m). The
    result holds, per point, one entry per spec. Trial i is drawn once for
    all points (draw_shared), and each (point, spec) decodes it with
    run_trial; a trial solves each distinct ridge shift once
    (SharedTrial.ridge_basis). The calling thread and min(workers, trials)
    - 1 helper threads each take the next trial index from one locked
    counter until none is left. Trials are aggregated in index order, so the
    result is identical for every worker count, and an entry does not
    depend on the other specs or points. Every trial decodes every spec; a
    spec whose solver fails gets the error of its lowest failing trial
    index instead. Any other exception stops the handing out of indices and
    is raised here once every helper has finished its trial.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not points or not all(specs for _, specs in points):
        raise ConfigError("run_batch needs at least one point, each with a decoder spec")
    shapes = {(cfg.n, cfg.k, cfg.m) for cfg, _ in points}
    if len(shapes) > 1:
        raise ConfigError(f"the points of a batch must share (n, k, m), got {sorted(shapes)}")
    [(n, k, m)] = shapes

    import threading

    # its own frame, so a thread's last draw is freed before it draws the next
    def one(idx: int) -> list[list[TrialOutcome | ConvergenceError]]:
        shared = draw_shared(n, k, m, master_seed, idx)
        return [[_decode(cfg, spec, shared, b_norm) for spec, b_norm in specs]
                for cfg, specs in points]

    per_trial: list = [None] * trials
    lock = threading.Lock()
    handed_out = 0
    faults: list[BaseException] = []

    def work() -> None:
        nonlocal handed_out
        try:
            while True:
                with lock:
                    if faults or handed_out == trials:
                        return
                    idx = handed_out
                    handed_out += 1
                per_trial[idx] = one(idx)
        except BaseException as exc:
            faults.append(exc)

    helpers = [threading.Thread(target=work) for _ in range(min(workers, trials) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if faults:
        raise faults[0]
    results: list[list[BatchStats | ConvergenceError]] = []
    for p, (_, specs) in enumerate(points):
        entries: list[BatchStats | ConvergenceError] = []
        for j in range(len(specs)):
            column = [rows[p][j] for rows in per_trial]
            failed = next((o for o in column if isinstance(o, ConvergenceError)), None)
            entries.append(aggregate(column) if failed is None else failed)
        results.append(entries)
    return results


def _decode(
    cfg: SystemConfig, spec: DecoderSpec, draw: SharedTrial, b_norm: float
) -> TrialOutcome | ConvergenceError:
    """run_trial, with a solver failure returned as the trial's outcome."""
    try:
        return run_trial(cfg, spec, draw, b_norm)
    except ConvergenceError as exc:
        return exc


def aggregate(outcomes: list[TrialOutcome]) -> BatchStats:
    """Sample means and standard errors; a single trial reports stderr 0."""
    import numpy as np

    mses = np.array([o.mse for o in outcomes])
    sers = np.array([o.ser for o in outcomes])
    n = len(outcomes)
    if n > 1:
        se_mse = float(mses.std(ddof=1) / math.sqrt(n))
        se_ser = float(sers.std(ddof=1) / math.sqrt(n))
    else:
        se_mse = se_ser = 0.0
    return BatchStats(
        trials=n,
        mean_mse=float(mses.mean()),
        mean_ser=float(sers.mean()),
        stderr_mse=se_mse,
        stderr_ser=se_ser,
    )


def bonferroni_z(family_false_alarm: float, tests: int) -> float:
    """Two-sided per-test z so that `tests` Gaussian z-gates together raise
    a false alarm with probability at most family_false_alarm (Bonferroni)."""
    from statistics import NormalDist  # lazy: 6 ms and 0.5 MiB on every CLI start
    return NormalDist().inv_cdf(1.0 - family_false_alarm / (2.0 * tests))


def consistency_z(
    cfg: SystemConfig, spec: DecoderSpec, pred: Prediction, stats: BatchStats
) -> tuple[float | None, float]:
    """(z_mse, z_ser) of a batch of more than one trial against its theory.

    LS (ridge at lam~ = 0) is referred to its exact finite-K MSE, the
    inverse-Wishart mean K/(rho_eff (N-K-1)) at any M; it has no finite
    variance for N <= K+3, where z_mse is None. SER is scaled by
    max(stderr, the binomial floor of the predicted SEP), so a correctly
    observed zero-error batch is not rejected.
    """
    ls = spec.lam_tilde == 0.0 and math.isinf(spec.t_box)
    if ls and cfg.n <= cfg.k + 3:
        z_mse = None
    else:
        ref = cfg.k / (derive_params(cfg).rho_eff * (cfg.n - cfg.k - 1)) if ls else pred.mse
        z_mse = (stats.mean_mse - ref) / stats.stderr_mse
    floor = math.sqrt(pred.sep * (1.0 - pred.sep) / (stats.trials * cfg.k))
    gap = stats.mean_ser - pred.sep
    return z_mse, gap / max(stats.stderr_ser, floor) if gap else 0.0
