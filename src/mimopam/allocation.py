"""Pilot/data power split and training-duration optimization.

The optimal data power ratio maximizes the effective SNR and has an exact
branch formula in vartheta = (1 + rho*tau) / (rho*tau*(1 - 1/tau_d)); the
goodput-optimal training duration is found by exhaustive search over integer
pilot counts (pilots are whole symbols), each count scored by predict, the
same call that fills the goodput column of a sweep row.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .asymptotics import predict
from .decoders import DecoderSpec
from .errors import ConfigError
from .system import PowerConvention, SystemConfig, rho_eff_of_alpha


class AllocationResult(NamedTuple):
    alpha_star: float
    vartheta: float
    branch: str
    rho_eff_at_star: float
    t_pilot_star: int | None = None
    goodput: float | None = None


def alpha_star(rho: float, tau: float, tau_d: float) -> AllocationResult:
    """Data power ratio maximizing the effective SNR (energy-conserving split).

    alpha* = vartheta - sqrt(vartheta (vartheta - 1)) for tau_d > 1, exactly
    1/2 for tau_d = 1, and the + branch for tau_d < 1.
    """
    if rho <= 0:
        raise ConfigError("rho must be positive")
    if tau <= 1:
        raise ConfigError("tau must exceed 1 (the block needs data symbols)")
    if tau_d <= 0:
        raise ConfigError("tau_d must be positive")
    rt = rho * tau
    if tau_d == 1.0:
        a = 0.5
        vartheta = math.nan
        branch = "tau_d=1"
    else:
        vartheta = (1.0 + rt) / (rt * (1.0 - 1.0 / tau_d))
        root = math.sqrt(vartheta * (vartheta - 1.0))
        if tau_d > 1.0:
            a = vartheta - root
            branch = "tau_d>1"
        else:
            a = vartheta + root
            branch = "tau_d<1"
    return AllocationResult(
        alpha_star=a,
        vartheta=vartheta,
        branch=branch,
        rho_eff_at_star=rho_eff_of_alpha(rho, tau, tau_d, a),
    )


def alpha_star_for_config(cfg: SystemConfig) -> AllocationResult:
    """Config-level wrapper; the closed form assumes the energy-conserving
    convention, so direct-split configs are refused (grid-search rho_eff
    directly for those)."""
    if cfg.power_convention is not PowerConvention.ENERGY_CONSERVING:
        raise ConfigError(
            "alpha_star applies to the energy-conserving convention only; "
            "use a grid search over rho_eff for direct-split configs"
        )
    tau = cfg.t_total / cfg.k
    tau_d = (cfg.t_total - cfg.t_pilot) / cfg.k
    return alpha_star(cfg.rho, tau, tau_d)


def optimize_goodput(cfg: SystemConfig) -> AllocationResult:
    """Jointly optimal (t_pilot, alpha) in the goodput sense.

    Walks every pilot count from k to t_total - 1, sets alpha to the
    closed-form alpha* at that count and scores the point by the goodput that
    predict gives for LMMSE (ridge at its optimal coefficient). The first best
    count wins. Direct-split configs are refused, as by alpha_star_for_config.
    """
    best = None
    for t_pilot in range(cfg.k, cfg.t_total):
        point = cfg._replace(t_pilot=t_pilot)
        res = alpha_star_for_config(point)
        goodput = predict(point._replace(alpha=res.alpha_star), DecoderSpec.lmmse()).goodput
        if best is None or goodput > best.goodput:
            best = res._replace(t_pilot_star=t_pilot, goodput=goodput)
    return best
