"""Deterministic large-system predictors for the linear and box decoders.

The LMMSE estimation error is Gaussian and independent of the estimate, so
the data model is a known channel at the effective SNR rho_eff, the error
counted as noise of standard deviation s (DerivedParams.noise_std). Every
predictor is therefore a function of (rho_eff, lam~, delta, t, M), where
lam~ = lam / lambda* (LMMSE is lam~ = 1); a fixed raw lam changes lam~
whenever alpha or rho moves. The raw saddle point is s times the one here.

The ridge decoder (plain least squares is ridge at lam~ = 0) has a
closed-form scalar solution; it is the box decoder at threshold
t = inf. predict returns one record per scenario and decoder: the scalar
solution, its debias constant, and the MSE, SEP and goodput it implies. The
box-constrained decoder has no closed form: its limiting MSE/SEP come from a
two-variable scalar saddle problem sup_beta min_theta D(theta, beta) whose
Gaussian integrals are evaluated in closed form via partial second moments of
a standard normal. One pure-math kernel returns D together with its exact
gradient, and the saddle is found by bracketed root finding on that gradient:
the inner minimum in theta is the root of dD/dtheta, and the root of the
concave beta profile's slope, which equals dD/dbeta at the inner minimum,
gives beta*. The numeric searches for the ridge coefficient and the box
threshold sample theta* on a fixed grid of the knob in its own units
(LAM_TILDE_GRID, T_GRID), since theta*(t) has several local minima for
M >= 4, and refine the best interior sample by golden section between its
neighbours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .decoders import DecoderKind, DecoderSpec
from .errors import ConfigError, ConvergenceError, DegenerateThresholdError, InfeasibleError
from .system import SystemConfig, derive_params, pam_constellation

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

SCALAR_SEARCH_TOL = 1e-6
ROOT_REL_TOL = 4.5e-16  # just over 2^-52: adjacent doubles always satisfy it
ROOT_MAX_ITER = 100
BRACKET_STEPS = 8  # the last step multiplies by 2^128; 2^255 in all
STATIONARITY_HARD = 1e-4
DEGENERATE_T_TOL = 1e-9
# knob grids: lam~ = lam / lambda* (0 kept only when n > k) and t / t_ref
LAM_TILDE_GRID = (0.0,) + tuple(10.0 ** (e / 4.0) for e in range(-24, 25))
T_GRID = tuple(2.0 ** (e / 5.0) for e in range(-15, 21))


def qfunc(x: float) -> float:
    """Standard normal tail probability Q(x); Q(-inf) = 1, Q(inf) = 0."""
    return 0.5 * math.erfc(x / _SQRT2)


# ---------------------------------------------------------------------------
# Ridge closed forms (plain LS is ridge at lam~ = 0, LMMSE at lam~ = 1)
# ---------------------------------------------------------------------------


def upsilon(lambda_prime: float, delta: float) -> float:
    """Positive root of delta*u^2 + (delta - lambda' - 1)*u - lambda' = 0.

    lambda_prime is lam~ / rho_eff, the ridge coefficient in units of the
    effective noise-to-signal ratio. Vanishes at lambda_prime = 0 when
    delta >= 1 and grows like lambda_prime / delta for large regularization.
    """
    if lambda_prime < 0 or delta <= 0:
        raise ValueError("need lambda_prime >= 0 and delta > 0")
    a = delta - lambda_prime - 1.0
    return (-a + math.sqrt(a * a + 4.0 * lambda_prime * delta)) / (2.0 * delta)


def rls_theta_star(rho_eff: float, lam_tilde: float, delta: float) -> float:
    """Closed-form scalar solution for the ridge decoder.

    theta* = sqrt((rho_eff (u/(1+u))^2 + 1) / (delta - 1/(1+u)^2)) with
    u = upsilon(lam~ / rho_eff, delta). The denominator must be positive,
    which holds for any lam~ > 0 and for lam~ = 0 when delta > 1.
    """
    u = upsilon(lam_tilde / rho_eff, delta)
    shrink = u / (1.0 + u)
    den = delta - 1.0 / (1.0 + u) ** 2
    if den <= 0:
        raise InfeasibleError(
            f"theta* undefined: delta={delta} <= 1/(1+upsilon)^2 at lam~={lam_tilde}"
        )
    return math.sqrt((rho_eff * shrink * shrink + 1.0) / den)


def rls_beta_star(theta_star: float, rho_eff: float, lam_tilde: float, delta: float) -> float:
    """Companion dual scalar: beta* = 2((delta - lam' - 1) + delta*u) theta*
    with lam' = lam~ / rho_eff.

    Equals 2 lam' theta* / u when lam~ > 0, but this form stays finite in the
    lam~ -> 0 limit as well.
    """
    lp = lam_tilde / rho_eff
    u = upsilon(lp, delta)
    return 2.0 * ((delta - lp - 1.0) + delta * u) * theta_star


def mse_from_theta(theta_star: float, rho_eff: float, delta: float) -> float:
    """Limiting per-antenna MSE implied by the scalar solution."""
    return (delta * theta_star**2 - 1.0) / rho_eff


def rls_sep(theta_star: float, rho_eff: float, m: int) -> float:
    """Limiting symbol error probability of the debiased ridge decoder:
    2(1 - 1/M) Q(sqrt(rho_eff / E) / theta*)."""
    if theta_star <= 0:
        raise ValueError("theta_star must be positive")
    energy_e = (m * m - 1) / 3.0
    return 2.0 * (1.0 - 1.0 / m) * qfunc(math.sqrt(rho_eff / energy_e) / theta_star)


def rls_stationarity_residuals(
    theta: float, beta: float, rho_eff: float, lam_tilde: float, delta: float
) -> tuple[float, float]:
    """Analytic first-order system for the unboxed scalar saddle; both
    components vanish at (theta*, beta*)."""
    den = (beta * rho_eff + 2.0 * lam_tilde * theta) ** 2
    f_theta = (
        delta * beta
        - beta / theta**2
        - beta * rho_eff * (beta**2 * rho_eff + 4.0 * lam_tilde**2) / den
    )
    f_beta = (
        delta * theta
        + 1.0 / theta
        - beta
        - rho_eff * theta * (beta**2 * rho_eff + 4.0 * lam_tilde * theta * beta
                             - 4.0 * lam_tilde**2) / den
    )
    return f_theta, f_beta


# ---------------------------------------------------------------------------
# Gaussian partial moment and the box-decoder saddle objective
# ---------------------------------------------------------------------------


def _tail_moment(a: float, b: float, x: float) -> tuple[float, float, float]:
    """(int_x^inf (a + b h)^2 p(h) dh, Q(x), p(x)) in closed form.

    The integral is (a^2+b^2) Q(x) + b(bx+2a) p(x); x = +/-inf is legal and
    drops the density term.
    """
    q = qfunc(x)
    dens = math.exp(-0.5 * x * x) / _SQRT2PI
    val = (a * a + b * b) * q
    if dens > 0.0:
        val += b * (b * x + 2.0 * a) * dens
    return val, q, dens


def gaussian_partial_second_moment(a: float, b: float, lower: float, upper: float) -> float:
    """int_lower^upper (a + b h)^2 p(h) dh in closed form.

    Expands to (a^2+b^2)(Q(l)-Q(u)) + b(bl+2a)p(l) - b(bu+2a)p(u); infinite
    limits are legal and drop their density terms.
    """
    if lower > upper:
        raise ValueError("need lower <= upper")
    return _tail_moment(a, b, lower)[0] - _tail_moment(a, b, upper)[0]


@dataclass(frozen=True)
class BoxObjectiveParams:
    """Scenario point of the saddle objective: effective SNR rho_eff, ridge
    coefficient lam_tilde = lam / lambda*, delta = N/K, box threshold t
    (t = inf is the ridge decoder) and PAM order m."""

    rho_eff: float
    lam_tilde: float
    delta: float
    t: float
    m: int

    @property
    def energy_e(self) -> float:
        return (self.m * self.m - 1) / 3.0

    @staticmethod
    def from_config(cfg: SystemConfig, lam: float, t: float) -> "BoxObjectiveParams":
        """The theory point of a scenario at raw ridge coefficient lam."""
        dp = derive_params(cfg)
        return BoxObjectiveParams(dp.rho_eff, lam / dp.lambda_star, dp.delta, t, cfg.m)


def _box_terms(theta: float, beta: float, p: BoxObjectiveParams) -> tuple[float, float, float]:
    """D(theta, beta) and its partial derivatives in theta and beta.

    With xi^2 = rho_eff and lam~ = lam_tilde, D is the ridge objective
    beta delta theta / 2 + beta (1 + xi^2) / (2 theta) - beta^2 / 4 plus a box
    correction
        P xi^2 ((2/M) sum_s [h(w + g_s) + h(w - g_s)] - 1 - xi^2/theta^2)
    with P = beta^2 theta / (2 (beta xi^2 + 2 lam~ theta)), box half-width
    w = t (xi/theta + 2 lam~ / (xi beta)) and drift g_s = xi s / theta for
    the offsets s = i/sqrt(E), i = 1, 3, .., M-1 (the -s offsets are their
    mirror images). h(x) = E[(Z - x)_+^2] = (1 + x^2) Q(x) - x p(x) is the
    upper-tail second moment at the box edges -l = w + g and mu = w - g, and
    h'(x) = 2 (x Q(x) - p(x)). The sum over offsets only sees the Gaussian
    tails beyond the edges, so a wide box leaves the ridge objective exactly
    rather than cancelling large terms against it.
    """
    xi2 = p.rho_eff
    xi = math.sqrt(xi2)
    lr = p.lam_tilde
    k = beta * xi2 + 2.0 * lr * theta
    pref = beta * beta * theta / (2.0 * k)
    pref_t = beta * beta * beta * xi2 / (2.0 * k * k)
    pref_b = beta * theta * (beta * xi2 + 4.0 * lr * theta) / (2.0 * k * k)
    width = p.t * (xi / theta + 2.0 * lr / (xi * beta))
    width_t = -p.t * xi / (theta * theta)
    width_b = -2.0 * p.t * lr / (xi * beta * beta)
    step = xi / (math.sqrt(p.energy_e) * theta)
    tails = tails_t = tails_b = 0.0
    for i in range(1, p.m, 2):
        drift = i * step
        for x, x_t in ((width + drift, width_t - drift / theta),
                       (width - drift, width_t + drift / theta)):
            h, q, dens = _tail_moment(-x, 1.0, x)
            dh = 2.0 * (x * q - dens)
            tails += h
            tails_t += dh * x_t
            tails_b += dh * width_b
    scale = 2.0 / p.m
    excess = scale * tails - 1.0 - xi2 / (theta * theta)
    excess_t = scale * tails_t + 2.0 * xi2 / (theta * theta * theta)
    val = (beta * p.delta * theta / 2.0 + beta * (1.0 + xi2) / (2.0 * theta)
           - beta * beta / 4.0 + xi2 * pref * excess)
    d_theta = (beta * p.delta / 2.0 - beta * (1.0 + xi2) / (2.0 * theta * theta)
               + xi2 * (pref_t * excess + pref * excess_t))
    d_beta = (p.delta * theta / 2.0 + (1.0 + xi2) / (2.0 * theta) - beta / 2.0
              + xi2 * (pref_b * excess + pref * scale * tails_b))
    return val, d_theta, d_beta


def box_objective(theta: float, beta: float, params: BoxObjectiveParams) -> float:
    """Scalar saddle objective D(theta, beta) of the box decoder.

    Finite everywhere the saddle search can reach; astronomically small or
    large arguments whose value cannot be represented in double precision are
    rejected instead of returning NaN.
    """
    if theta <= 0 or beta <= 0:
        raise ValueError("theta and beta must be positive")
    val = _box_terms(theta, beta, params)[0]
    if math.isnan(val):
        raise ValueError(f"objective not representable at theta={theta!r}, beta={beta!r}")
    return val


# ---------------------------------------------------------------------------
# Scalar search machinery
# ---------------------------------------------------------------------------


def _golden_min(f, lo: float, hi: float, rel_tol: float, max_iter: int = 400) -> float:
    """Golden-section minimization on a bracketed unimodal interval."""
    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if (hi - lo) <= rel_tol * max(1.0, abs(lo), abs(hi)):
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def _find_root(f, a: float, b: float, fa: float, fb: float) -> float:
    """Root between a and b of f, which increases through it, by the Illinois
    variant of regula falsi.

    The secant point replaces the endpoint whose value has its sign; an
    endpoint kept twice in a row has its value halved, so both ends close in.
    Stops when the bracket is a few ulps wide, or when two successive values
    go against the direction of f, which puts the last point in f's rounding
    noise, and returns the last point it evaluated (or the given end where
    f = 0). Raises ConvergenceError on a bracket without a sign change and
    after ROOT_MAX_ITER steps.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise ConvergenceError(f"no sign change on [{a:.6g}, {b:.6g}] ({fa:.3g}, {fb:.3g})")
    last, f_last, kept = b, fb, 0
    for _ in range(ROOT_MAX_ITER):
        c = b - fb * (b - a) / (fb - fa)
        if abs(b - a) <= ROOT_REL_TOL * abs(c):
            return last
        fc = f(c)
        if math.isnan(fc):
            raise ConvergenceError(f"derivative not representable at {c!r}")
        # two values against the direction of f put c inside f's rounding noise
        if fc == 0.0 or (fc > f_last) != (c > last):
            return c
        last, f_last = c, fc
        if (fc < 0.0) == (fb < 0.0):
            b, fb = c, fc
            if kept == -1:
                fa *= 0.5
            kept = -1
        else:
            a, fa = c, fc
            if kept == 1:
                fb *= 0.5
            kept = 1
    raise ConvergenceError(f"root not found in {ROOT_MAX_ITER} steps (bracket [{a:.6g}, {b:.6g}])")


def _bracket_root(f, x: float) -> float:
    """Root on (0, inf) of f, which increases through it from negative to
    positive values.

    From x the search steps away from the sign of f(x) by factors 2, 4, 16,
    256, ... (each the square of the last) until f changes sign, then hands
    the last step to _find_root. The root returned is always the last point
    at which f was evaluated.
    """
    fx = f(x)
    factor = 2.0
    for _ in range(BRACKET_STEPS):
        if fx == 0.0:
            return x
        y = x * factor if fx < 0.0 else x / factor
        fy = f(y)
        if not (fy < 0.0) == (fx < 0.0):
            return _find_root(f, x, y, fx, fy)
        x, fx = y, fy
        factor *= factor
    raise ConvergenceError(f"no sign change within {BRACKET_STEPS} bracket steps (last x={x:.3e})")


def box_theta_min(
    params: BoxObjectiveParams,
    beta: float,
    theta_hint: float | None = None,
) -> tuple[float, float, float, float]:
    """Inner minimization min_theta D(theta, beta); returns the minimizer theta
    and (D, dD/dtheta, dD/dbeta) there.

    D is convex in theta and diverges at both ends of (0, inf), so the
    minimizer is the root of dD/dtheta, bracketed outward from theta_hint
    (default: the ridge closed form). The root is the last point the search
    evaluated, so its kernel terms are the last ones computed.
    """
    hint = theta_hint
    if hint is None or not math.isfinite(hint) or hint <= 0:
        hint = rls_theta_star(params.rho_eff, max(params.lam_tilde, 1e-12), params.delta)
    terms = None

    def slope(th: float) -> float:
        nonlocal terms
        terms = _box_terms(th, beta, params)
        return terms[1]

    theta = _bracket_root(slope, hint)
    return (theta, *terms)


@dataclass(frozen=True)
class ScalarSolution:
    """Solution of a scalar saddle problem (closed form or numeric).

    stationarity_residual is set on the box path only.
    """

    theta_star: float
    beta_star: float
    b_norm: float
    stationarity_residual: float | None = None


def box_saddle_solve(params: BoxObjectiveParams, beta_hint: float | None = None) -> ScalarSolution:
    """Solve sup_beta min_theta D(theta, beta) for the box decoder.

    The beta profile g(beta) = min_theta D is strictly concave, and by
    Danskin's theorem g'(beta) = dD/dbeta at the inner minimizer. Its root is
    bracketed outward from beta_hint (default: the ridge closed form; pass the
    last beta* when sweeping a knob); each evaluation of g' runs box_theta_min
    warm-started at the last theta. The returned solution carries the analytic
    stationarity residual max(|dD/dtheta|, |dD/dbeta|); a residual above the
    hard threshold raises ConvergenceError.
    """
    if params.lam_tilde < 0 or params.t <= 0 or params.delta <= 0:
        raise ValueError("need lam_tilde >= 0, t > 0, delta > 0")
    lam_safe = max(params.lam_tilde, 1e-12)
    theta = rls_theta_star(params.rho_eff, lam_safe, params.delta)
    if beta_hint is None:
        beta_hint = max(rls_beta_star(theta, params.rho_eff, lam_safe, params.delta), 1e-8)
    terms = None

    def neg_slope(beta: float) -> float:
        nonlocal theta, terms
        theta, *terms = box_theta_min(params, beta, theta_hint=theta)
        return -terms[2]

    # beta* is the last point neg_slope saw, so theta and terms belong to it
    beta_star = _bracket_root(neg_slope, beta_hint)
    _, d_theta, d_beta = terms
    resid = max(abs(d_theta), abs(d_beta))
    if not resid <= STATIONARITY_HARD:
        raise ConvergenceError(
            f"box saddle stationarity residual {resid:.3e} > {STATIONARITY_HARD:.0e} "
            f"(theta*={theta:.6g}, beta*={beta_star:.6g}, lam~={params.lam_tilde}, t={params.t})"
        )
    ratio = params.rho_eff * beta_star / theta
    b_norm = ratio / (ratio + 2.0 * params.lam_tilde)
    return ScalarSolution(theta_star=theta, beta_star=beta_star, b_norm=b_norm,
                          stationarity_residual=resid)


def box_sep(theta_star: float, b_norm: float, params: BoxObjectiveParams) -> float:
    """Limiting SEP of the box decoder for a general threshold.

    Four indicator groups cover inner symbols whose decision region is fully
    inside the box, partially clipped, or entirely outside, plus the edge
    symbols. The SEP jumps where t/B crosses a decision boundary 2j/sqrt(E),
    j = 1..M/2-1, so thresholds exactly there are rejected as degenerate (BPSK
    has none). At t = inf every symbol is inside the box and the sum is the
    ridge decoder's 2(1 - 1/M) Q(sqrt(rho_eff / E) / theta*).
    """
    m = params.m
    sqrt_e = math.sqrt(params.energy_e)
    ratio = params.t / b_norm
    for j in range(2, m - 1, 2):
        if abs(ratio - j / sqrt_e) < DEGENERATE_T_TOL:
            raise DegenerateThresholdError(
                f"t / B = {ratio!r} sits on the degenerate decision boundary {j}/sqrt(E)"
            )
    q = qfunc(math.sqrt(params.rho_eff / params.energy_e) / theta_star)
    sep = 0.0
    for i in range(1, m - 2, 2):
        if ratio >= (i + 1) / sqrt_e:
            sep += 4.0 / m * q
        if (i - 1) / sqrt_e <= ratio <= (i + 1) / sqrt_e:
            sep += 2.0 / m * q
        if ratio <= (i - 1) / sqrt_e:
            sep += 2.0 / m
    if ratio >= (m - 2) / sqrt_e:
        sep += 2.0 / m * q
    if ratio <= (m - 2) / sqrt_e:
        sep += 2.0 / m
    return sep


# ---------------------------------------------------------------------------
# Numeric knob optimization and scenario-level prediction
# ---------------------------------------------------------------------------


def _box_theta_of(params: BoxObjectiveParams, knob: str):
    """theta* of the box saddle as a function of one knob ("lam_tilde" or "t") of
    params; each solve starts from the beta* of the one before."""
    last_beta = None

    def f(x: float) -> float:
        nonlocal last_beta
        sol = box_saddle_solve(replace(params, **{knob: x}), beta_hint=last_beta)
        last_beta = sol.beta_star
        return sol.theta_star
    return f


def _grid_argmin(f, grid) -> float:
    """argmin of f over the sorted grid, refined by golden section between the
    neighbours of the best sample; a best sample at either end is returned as
    is. Sampling the whole grid finds the best of several local minima."""
    vals = [f(x) for x in grid]
    j = vals.index(min(vals))
    if j == 0 or j == len(grid) - 1:
        return grid[j]
    return _golden_min(f, grid[j - 1], grid[j + 1], rel_tol=SCALAR_SEARCH_TOL)


def lambda_star_numeric(
    cfg: SystemConfig,
    kind: DecoderKind = DecoderKind.RLS,
    t_box: float | None = None,
) -> float:
    """argmin over raw lam >= 0 of theta*(lam / lambda*) for the requested
    decoder, searched over lam~ = lam / lambda* on LAM_TILDE_GRID. The grid
    holds lam = 0 only when n > k, the rule of ridge_coefficient: with
    n <= k the unregularized decoder, and the box saddle at lam = 0, do not
    exist, and when theta* still falls at the lowest grid point that point
    (lam = 1e-6 lambda*) is returned.
    """
    dp = derive_params(cfg)
    if kind is DecoderKind.RLS:
        def theta_of(lam_tilde: float) -> float:
            return rls_theta_star(dp.rho_eff, lam_tilde, dp.delta)
    elif kind is DecoderKind.BOX:
        t = t_box if t_box is not None else float(pam_constellation(cfg.m).points[-1])
        theta_of = _box_theta_of(BoxObjectiveParams.from_config(cfg, lam=0.0, t=t), "lam_tilde")
    else:
        raise ValueError(f"no lambda to optimize for decoder {kind}")
    grid = LAM_TILDE_GRID if cfg.n > cfg.k else LAM_TILDE_GRID[1:]
    return _grid_argmin(theta_of, grid) * dp.lambda_star


def t_star_numeric(cfg: SystemConfig, lam: float) -> float:
    """argmin over t > 0 of the box decoder's theta*(t) at fixed lam, searched
    over t / t_ref on T_GRID with t_ref the largest symbol."""
    t_ref = float(pam_constellation(cfg.m).points[-1])
    theta_of = _box_theta_of(BoxObjectiveParams.from_config(cfg, lam=lam, t=t_ref), "t")
    return _grid_argmin(lambda r: theta_of(r * t_ref), T_GRID) * t_ref


@dataclass(frozen=True)
class Prediction:
    """Asymptotic record for one scenario and decoder: the scalar solution
    (theta*, beta*) with the debias constant B that divides the estimate
    before slicing, and the MSE, SEP and goodput they imply."""

    theta_star: float
    beta_star: float
    b_norm: float
    mse: float
    sep: float
    goodput: float


def ridge_coefficient(cfg: SystemConfig, spec: DecoderSpec) -> float:
    """The raw ridge coefficient a decoder applies: 0 for LS, lambda* for
    LMMSE, the spec's own lam for RLS and box.

    The unregularized decoder needs delta > 1, so a zero coefficient with
    n <= k is a configuration error.
    """
    if spec.kind is DecoderKind.LS:
        lam = 0.0
    elif spec.kind is DecoderKind.LMMSE:
        lam = derive_params(cfg).lambda_star
    else:
        lam = spec.lam
    if lam == 0 and cfg.n <= cfg.k:
        raise ConfigError("lam = 0 requires n > k (the unregularized decoder needs delta > 1)")
    return lam


def scalar_solution(p: BoxObjectiveParams) -> ScalarSolution:
    """Scalar saddle solution (theta*, beta*, B); t = inf is the ridge decoder."""
    if math.isfinite(p.t):
        return box_saddle_solve(p)
    theta = rls_theta_star(p.rho_eff, p.lam_tilde, p.delta)
    beta = rls_beta_star(theta, p.rho_eff, p.lam_tilde, p.delta)
    u = upsilon(p.lam_tilde / p.rho_eff, p.delta)
    return ScalarSolution(theta_star=theta, beta_star=beta, b_norm=1.0 / (1.0 + u))


def predict(cfg: SystemConfig, spec: DecoderSpec) -> Prediction:
    """Asymptotic theta*, beta*, B, MSE, SEP and goodput for one scenario and
    decoder.

    theta* and beta* are reported in the raw scenario's units, s times the
    saddle point at the effective SNR. LMMSE is lam~ = 1 exactly.
    """
    dp = derive_params(cfg)
    lam_tilde = (1.0 if spec.kind is DecoderKind.LMMSE
                 else ridge_coefficient(cfg, spec) / dp.lambda_star)
    t = spec.t_box if spec.t_box is not None else math.inf
    params = BoxObjectiveParams(dp.rho_eff, lam_tilde, dp.delta, t, cfg.m)
    sol = scalar_solution(params)
    mse = mse_from_theta(sol.theta_star, dp.rho_eff, dp.delta)
    sep = box_sep(sol.theta_star, sol.b_norm, params)
    goodput = (1.0 - dp.tau_p / dp.tau) * (1.0 - sep)
    return Prediction(theta_star=dp.noise_std * sol.theta_star,
                      beta_star=dp.noise_std * sol.beta_star, b_norm=sol.b_norm,
                      mse=mse, sep=sep, goodput=goodput)
