"""Scenario parameters, power-allocation conventions and the PAM constellation.

Everything downstream (simulator, decoders, asymptotic predictors) consumes the
values derived here, so this module is the single owner of the power-split
arithmetic, the optimal split alpha* included, of the PAM energy and of
dB/linear conversion. A config stores its power in dB, as configured, and
converts it to linear in one place, SystemConfig.rho. numpy is imported
inside the PAM functions that use it, so the theory, which reads
only pam_energy and largest_symbol, runs without loading it.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import Checked, ConfigError

if TYPE_CHECKING:
    import numpy as np


class PowerConvention(str, enum.Enum):
    """How the average power rho and the data ratio alpha split into
    pilot/data powers.

    ENERGY_CONSERVING: rho_d * T_d = alpha * rho * T and
    rho_p * T_p = (1 - alpha) * rho * T, so the total transmitted energy over
    the block equals rho * T exactly.

    DIRECT_SPLIT: rho_d = alpha * rho and rho_p = (1 - alpha) * rho. This is
    the convention the reference performance tables were generated with.
    """

    ENERGY_CONSERVING = "energy"
    DIRECT_SPLIT = "direct"


def db_to_linear(db: float) -> float:
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ConfigError(f"{db!r} dB is out of the float range") from None


class _SystemConfigFields(NamedTuple):
    k: int
    n: int
    t_total: int
    t_pilot: int
    rho_db: float
    alpha: float
    m: int = 2
    power_convention: PowerConvention = PowerConvention.ENERGY_CONSERVING


class SystemConfig(Checked, _SystemConfigFields):
    """One transmission scenario.

    k, n:          transmit / receive antenna counts
    t_total:       symbols per coherence block
    t_pilot:       training symbols (t_pilot >= k for pilot orthogonality)
    rho_db:        average power in dB, as configured; rho is its linear value
    alpha:         data power ratio in (0, 1)
    m:             PAM order, power of two

    The decoder and its knobs are not part of the scenario (DecoderSpec).
    """

    __slots__ = ()

    @property
    def rho(self) -> float:
        """The average power, linear."""
        return db_to_linear(self.rho_db)

    def _check(self) -> None:
        if self.k <= 0 or self.n <= 0 or self.t_total <= 0:
            raise ConfigError("antenna counts and block length must be positive")
        if self.t_pilot < self.k:
            raise ConfigError(
                f"pilot orthogonality requires t_pilot >= k (got t_pilot={self.t_pilot}, k={self.k})"
            )
        if self.t_pilot >= self.t_total:
            raise ConfigError("t_pilot must leave room for data symbols (t_pilot < t_total)")
        if not 0.0 < self.rho < math.inf:
            raise ConfigError(f"rho must be positive and finite, got rho_db={self.rho_db!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        _check_pam_order(self.m)


class DerivedParams(NamedTuple):
    """Quantities derived from a SystemConfig under its power convention."""

    delta: float
    tau: float
    tau_p: float
    tau_d: float
    rho_p: float
    rho_d: float
    sigma_delta_sq: float
    sigma_hhat_sq: float
    rho_eff: float
    lambda_star: float
    noise_std: float


def derive_params(cfg: SystemConfig) -> DerivedParams:
    """Populate all derived scalars for a validated config.

    The estimation-error variance is sigma_delta_sq = 1 / (1 + rho_p * T_p / K)
    and the effective SNR is rho_d * sigma_hhat_sq / s^2, where s = noise_std =
    sqrt(1 + rho_d * sigma_delta_sq) is the standard deviation of the data noise
    with the estimation error counted in it. lambda_star is LMMSE's ridge
    coefficient. A power so low that rho_eff underflows to 0 is a ConfigError.
    """
    k = cfg.k
    delta = cfg.n / k
    tau = cfg.t_total / k
    tau_p = cfg.t_pilot / k
    tau_d = (cfg.t_total - cfg.t_pilot) / k
    rho = cfg.rho
    if cfg.power_convention is PowerConvention.DIRECT_SPLIT:
        rho_d = cfg.alpha * rho
        rho_p = (1.0 - cfg.alpha) * rho
    else:
        rho_d = cfg.alpha * rho * tau / tau_d
        rho_p = (1.0 - cfg.alpha) * rho * tau / tau_p
    sigma_delta_sq = 1.0 / (1.0 + rho_p * cfg.t_pilot / k)
    sigma_hhat_sq = 1.0 - sigma_delta_sq
    rho_eff = rho_d * sigma_hhat_sq / (1.0 + rho_d * sigma_delta_sq)
    if not rho_eff > 0.0:  # rho_d or the pilot energy underflows
        raise ConfigError(f"rho_eff underflows to 0 at rho_db={cfg.rho_db!r}, alpha={cfg.alpha!r}")
    return DerivedParams(
        delta=delta,
        tau=tau,
        tau_p=tau_p,
        tau_d=tau_d,
        rho_p=rho_p,
        rho_d=rho_d,
        sigma_delta_sq=sigma_delta_sq,
        sigma_hhat_sq=sigma_hhat_sq,
        rho_eff=rho_eff,
        lambda_star=lambda_star_rls(rho_d, sigma_delta_sq),
        noise_std=math.sqrt(1.0 + rho_d * sigma_delta_sq),
    )


def lambda_star_rls(rho_d: float, sigma_delta_sq: float) -> float:
    """MSE- and SEP-optimal ridge coefficient: 1/rho_d + sigma_delta_sq."""
    return 1.0 / rho_d + sigma_delta_sq


def alpha_star(cfg: SystemConfig) -> float:
    """Data power ratio maximizing the effective SNR at cfg's rho and block.

    With rho_d = a alpha and P = rho_p T_p / K = b (1 - alpha), rho_eff =
    rho_d P / (1 + P + rho_d) peaks in (0, 1) at alpha* = 1 / (1 + sqrt((1 + a)
    / (1 + b))). The energy-conserving convention, which fixes the block
    energy, has a = rho tau / tau_d and b = rho tau (tau_d = 1: alpha* = 1/2).
    Direct-split configs are refused (grid-search rho_eff over alpha there),
    as is a power at which a = rho tau / tau_d overflows.
    """
    if cfg.power_convention is not PowerConvention.ENERGY_CONSERVING:
        raise ConfigError(
            "alpha_star applies to the energy-conserving convention only; "
            "use a grid search over rho_eff for direct-split configs"
        )
    b = cfg.rho * (cfg.t_total / cfg.k)
    a = b / ((cfg.t_total - cfg.t_pilot) / cfg.k)
    if not math.isfinite(a):  # b <= a, since tau_d < tau
        raise ConfigError(f"alpha_star: rho tau / tau_d overflows at rho_db={cfg.rho_db!r}")
    return 1.0 / (1.0 + math.sqrt((1.0 + a) / (1.0 + b)))


def _check_pam_order(m: int) -> None:
    if m < 2 or (m & (m - 1)) != 0:
        raise ConfigError(f"m must be a power of two >= 2, got {m}")


def pam_energy(m: int) -> float:
    """E = (M^2 - 1) / 3, the mean energy of the points +/-1, +/-3, .., +/-(M-1)."""
    return (m * m - 1) / 3.0


def pam_points(m: int) -> np.ndarray:
    """The unit-variance M-PAM alphabet, ascending: (2i - M + 1)/sqrt(E) for
    i = 0, .., M-1, E = pam_energy(M)."""
    import numpy as np

    _check_pam_order(m)
    return (2.0 * np.arange(m) - (m - 1)) / math.sqrt(pam_energy(m))


def largest_symbol(m: int) -> float:
    """(M-1)/sqrt(E), bit for bit pam_points(m)[-1], in pure math."""
    _check_pam_order(m)
    return (m - 1) / math.sqrt(pam_energy(m))


def slice_symbols(values, points: np.ndarray):
    """Map each value to the nearest of the ascending points (pam_points).

    Ties on the midpoint between two points break toward the smaller point,
    deterministically. Scalar in, scalar out; array in, array out.
    """
    import numpy as np

    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("slice_symbols requires finite inputs")
    # argmin over |v - s| with first-wins tie-breaking; points are ascending,
    # so the first minimum is the smaller symbol.
    dist = np.abs(arr[..., None] - points)
    out = points[np.argmin(dist, axis=-1)]
    if np.isscalar(values) or np.ndim(values) == 0:
        return float(out)
    return out
