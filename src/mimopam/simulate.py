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
order is fixed: effective channel A, data symbols x0, noise w. A trial index
is drawn once and reduced to the Gram form G = A'A, r = A'y that the
decoders read; every decoder of a batch (of a sweep point, in the runner)
then decodes that one draw, with one ridge solve per lam~. The draw itself,
and so every decoder's outcome, is the same as when each decoder drew it
alone.

numpy is imported inside the functions that draw, decode and aggregate, not
at module level, so importing the package and the theory modes, which use
none of them, never load it.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .asymptotics import Prediction, predict
from .decoders import DecoderSpec, box_rls_solve, rls_solve
from .errors import ConfigError, ConvergenceError
from .system import SystemConfig, derive_params, pam_constellation, slice_symbols

if TYPE_CHECKING:
    import numpy as np

PILOT_ORTH_TOL = 1e-9
_PILOT_STREAM_TAG = 0x50494C4F  # distinguishes the pilot stream from trial streams


@dataclass(frozen=True)
class TrialOutcome:
    mse: float
    ser: float


@dataclass(frozen=True)
class BatchStats:
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


@dataclass
class TrialDraw:
    """One trial's draw reduced to what every decoder reads: the symbols x0,
    G = A'A, r = A'y and A's row count. The ridge solution of each lam~ is
    solved on first use and kept, so decoders sharing a lam~ share a solve
    and the box decoder starts from it."""

    x0: np.ndarray
    gram: np.ndarray
    rhs: np.ndarray
    rows: int
    ridges: dict[float, np.ndarray] = field(default_factory=dict)

    def ridge(self, lam_tilde: float) -> np.ndarray:
        x = self.ridges.get(lam_tilde)
        if x is None:
            x = self.ridges[lam_tilde] = rls_solve(self.gram, self.rhs, lam_tilde, self.rows)
        return x


def draw_trial(cfg: SystemConfig, seed: int, trial_idx: int) -> TrialDraw:
    """Trial trial_idx of the effective model, deterministic given
    (seed, trial_idx); A is dropped once G and r are formed."""
    dp = derive_params(cfg)
    c = dp.rho_d * dp.sigma_delta_sq
    rng = trial_stream(seed, trial_idx)
    a = rng.standard_normal((cfg.n, cfg.k))
    a *= math.sqrt(dp.rho_eff / cfg.k)  # in place: no second N x K array
    x0 = pam_constellation(cfg.m).points[rng.integers(0, cfg.m, size=cfg.k)]
    w_std = math.sqrt((1.0 + c * (x0 @ x0) / cfg.k) / (1.0 + c))
    y = a @ x0 + w_std * rng.standard_normal(cfg.n)
    return TrialDraw(x0, a.T @ a, a.T @ y, cfg.n)


def run_trial(
    cfg: SystemConfig,
    decoder_spec: DecoderSpec,
    draw: TrialDraw,
    b_norm: float,
) -> TrialOutcome:
    """Decode one draw with one decoder (ridge or box solve), normalize and
    slice. b_norm is the debias constant B of the decoder (predict)."""
    import numpy as np

    constellation = pam_constellation(cfg.m)
    x_hat = draw.ridge(decoder_spec.lam_tilde)
    if math.isfinite(decoder_spec.t_box):
        x_hat, _ = box_rls_solve(
            draw.gram, draw.rhs, decoder_spec.lam_tilde, decoder_spec.t_box, x_hat
        )
    x_star = slice_symbols(x_hat / b_norm, constellation)
    mse = float(np.mean((x_hat - draw.x0) ** 2))
    ser = float(np.mean(x_star != draw.x0))
    return TrialOutcome(mse=mse, ser=ser)


def run_batch(
    cfg: SystemConfig,
    decoder_specs: tuple[DecoderSpec, ...],
    trials: int,
    master_seed: int,
    workers: int = 1,
) -> list[BatchStats | ConvergenceError]:
    """Aggregate independent trials of every decoder into sample means and
    standard errors, one entry per spec.

    Trial i is drawn once and decoded by every spec. Trials are indexed
    0..trials-1 and aggregated in index order, so the result is identical
    whether they were computed sequentially or by a thread pool, and a
    spec's entry does not depend on the other specs. A spec whose solver
    fails gets the error of its lowest failing trial index instead; its
    later trials are not decoded. The debias constant B comes from predict.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    if not decoder_specs:
        raise ConfigError("decoder_specs must be non-empty")
    b_norms = [predict(cfg, spec).b_norm for spec in decoder_specs]
    # lowest failing index per spec; a stale read only decodes one more trial
    first_failure = [trials] * len(decoder_specs)
    lock = threading.Lock()

    def one(idx: int) -> list[TrialOutcome | ConvergenceError | None]:
        draw = draw_trial(cfg, master_seed, idx)
        out: list[TrialOutcome | ConvergenceError | None] = []
        for j, (spec, b_norm) in enumerate(zip(decoder_specs, b_norms)):
            if first_failure[j] < idx:
                out.append(None)
                continue
            try:
                out.append(run_trial(cfg, spec, draw, b_norm))
            except ConvergenceError as exc:
                with lock:
                    first_failure[j] = min(first_failure[j], idx)
                out.append(exc)
        return out

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, range(trials)))
    else:
        rows = [one(i) for i in range(trials)]
    results: list[BatchStats | ConvergenceError] = []
    for column in zip(*rows):
        # a skipped (None) trial lies above a failed one, so in index order
        # the first entry that is not an outcome is the lowest failure
        failed = next((o for o in column if not isinstance(o, TrialOutcome)), None)
        results.append(aggregate(list(column)) if failed is None else failed)
    return results


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
