"""Deterministic large-system predictors for the linear and box decoders.

The LMMSE estimation error is Gaussian and independent of the estimate, so
the data model is a known channel at the effective SNR rho_eff, the error
counted as noise of standard deviation s (DerivedParams.noise_std). Every
predictor is therefore a function of (rho_eff, lam~, delta, t, M), where
lam~ = lam / lambda* (LMMSE is lam~ = 1); a fixed raw lam changes lam~
whenever alpha or rho moves. The raw saddle point is s times the one here.
A DecoderSpec carries (lam~, t) itself, so the scenario supplies only
(rho_eff, delta, M) and no raw ridge coefficient enters this module.

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
gives beta*. The numeric searches for lam~* and t* sample theta* of
scalar_solution, warm-started, on a fixed grid of the knob in its own units
(LAM_TILDE_GRID, T_GRID), since theta*(t) has several local minima for
M >= 4, and refine the best interior sample by golden section between its
neighbours. optimize_goodput, the goodput-optimal training duration, scores
every integer pilot count by predict at that count's alpha*.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .decoders import DecoderSpec
from .errors import ConvergenceError, UndefinedTheoryError
from .system import SystemConfig, alpha_star, derive_params, largest_symbol, pam_energy

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
# t / t_ref below T_GRID at its ratio, down to 1/256, sampled only while theta* falls
T_GRID_BELOW = tuple(2.0 ** (e / 5.0) for e in range(-16, -41, -1))


def qfunc(x: float) -> float:
    """Standard normal tail probability Q(x); Q(-inf) = 1, Q(inf) = 0."""
    return 0.5 * math.erfc(x / _SQRT2)


# ---------------------------------------------------------------------------
# Ridge closed forms (plain LS is ridge at lam~ = 0, LMMSE at lam~ = 1)
# ---------------------------------------------------------------------------


def upsilon(lambda_prime: float, delta: float) -> float:
    """Positive root of delta*u^2 + a*u - lambda' = 0, a = delta - lambda' - 1.

    lambda_prime is lam~ / rho_eff, the ridge coefficient in units of the
    effective noise-to-signal ratio. Vanishes at lambda_prime = 0 when
    delta >= 1 and grows like lambda_prime / delta for large regularization;
    it is inf only where that growth leaves the float range. The root is
    taken in the form that does not cancel: 2 lambda' / (a + r) for a > 0,
    else (r - a) / (2 delta), with r = hypot(a, 2 sqrt(lambda' delta)).
    """
    if lambda_prime < 0 or delta <= 0:
        raise ValueError("need lambda_prime >= 0 and delta > 0")
    a = delta - lambda_prime - 1.0
    root = math.hypot(a, 2.0 * math.sqrt(lambda_prime * delta))
    return 2.0 * lambda_prime / (a + root) if a > 0 else (root - a) / (2.0 * delta)


class ScalarSolution(NamedTuple):
    """Solution of a scalar saddle problem (closed form or numeric) and the
    per-antenna MSE it implies.

    stationarity_residual is set on the box path only.
    """

    theta_star: float
    beta_star: float
    b_norm: float
    mse: float
    stationarity_residual: float | None = None


def ridge_solution(rho_eff: float, lam_tilde: float, delta: float) -> ScalarSolution:
    """Closed-form scalar solution (theta*, beta*, B) and MSE of the ridge
    decoder.

    With lam' = lam~ / rho_eff, u = upsilon(lam', delta), B = 1/(1+u) and
    den = delta - B^2: theta* = sqrt((rho_eff (uB)^2 + 1) / den),
    beta* = 2 (lam'/u) theta*, where lam'/u = delta (1 + u) - lam' - 1 is
    delta - 1 at u = 0, and MSE = (delta (uB)^2 + B^2 / rho_eff) / den, which
    is mse_from_theta without its subtraction. den must be positive, which
    holds for any lam~ > 0 and for lam~ = 0 when delta > 1
    (UndefinedTheoryError otherwise). u = inf gives B = 0 and nan theta*.
    """
    lp = lam_tilde / rho_eff
    u = upsilon(lp, delta)
    b_norm = 1.0 / (1.0 + u)
    den = delta - b_norm * b_norm
    if den <= 0:
        raise UndefinedTheoryError(
            f"theta* undefined: delta={delta} <= 1/(1+upsilon)^2 at lam~={lam_tilde}"
        )
    shrink = u / (1.0 + u)
    theta = math.sqrt((rho_eff * shrink * shrink + 1.0) / den)
    beta = 2.0 * (lp / u if u else delta - 1.0) * theta
    mse = (delta * shrink * shrink + b_norm * b_norm / rho_eff) / den
    return ScalarSolution(theta, beta, b_norm, mse)


def mse_from_theta(theta_star: float, rho_eff: float, delta: float) -> float:
    """Limiting per-antenna MSE implied by the scalar solution."""
    return (delta * theta_star**2 - 1.0) / rho_eff


# ---------------------------------------------------------------------------
# Gaussian partial moment and the box-decoder saddle objective
# ---------------------------------------------------------------------------


def _tail_moment(x: float) -> tuple[float, float]:
    """(h(x), h'(x)) for the upper-tail second moment h(x) = E[(Z - x)_+^2]
    of a standard normal Z: h(x) = (x^2 + 1) Q(x) - x p(x) and
    h'(x) = 2 (x Q(x) - p(x)). Both are 0 once Q(x) underflows to 0, where
    x^2 may overflow, and the density term of h is dropped once p(x) does."""
    q = qfunc(x)
    if q == 0.0:
        return 0.0, 0.0
    dens = math.exp(-0.5 * x * x) / _SQRT2PI
    return (x * x + 1.0) * q - (x * dens if dens else 0.0), 2.0 * (x * q - dens)


class BoxObjectiveParams(NamedTuple):
    """Scenario point of the saddle objective: effective SNR rho_eff, ridge
    coefficient lam_tilde = lam / lambda*, delta = N/K, box threshold t
    (t = inf is the ridge decoder) and PAM order m."""

    rho_eff: float
    lam_tilde: float
    delta: float
    t: float
    m: int


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
    step = xi / (math.sqrt(pam_energy(p.m)) * theta)
    tails = tails_t = tails_b = 0.0
    for i in range(1, p.m, 2):
        drift = i * step
        for x, x_t in ((width + drift, width_t - drift / theta),
                       (width - drift, width_t + drift / theta)):
            h, dh = _tail_moment(x)
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
    params: BoxObjectiveParams, beta: float, theta_hint: float
) -> tuple[float, float, float, float]:
    """Inner minimization min_theta D(theta, beta); returns the minimizer theta
    and (D, dD/dtheta, dD/dbeta) there.

    D is convex in theta and diverges at both ends of (0, inf), so the
    minimizer is the root of dD/dtheta, bracketed outward from theta_hint > 0.
    The root is the last point the search evaluated, so its kernel terms are
    the last ones computed.
    """
    terms = None

    def slope(th: float) -> float:
        nonlocal terms
        terms = _box_terms(th, beta, params)
        return terms[1]

    theta = _bracket_root(slope, theta_hint)
    return (theta, *terms)


def box_saddle_solve(params: BoxObjectiveParams, beta_hint: float | None = None) -> ScalarSolution:
    """Solve sup_beta min_theta D(theta, beta) for the box decoder.

    The beta profile g(beta) = min_theta D is strictly concave, and by
    Danskin's theorem g'(beta) = dD/dbeta at the inner minimizer. Its root is
    bracketed outward from beta_hint (default: the ridge closed form; pass the
    last beta* when sweeping a knob); each evaluation of g' runs box_theta_min
    warm-started at the last theta, the first at the ridge closed form's. The
    returned solution carries the analytic stationarity residual
    max(|dD/dtheta|, |dD/dbeta|); a residual above the hard threshold raises
    ConvergenceError.
    """
    if params.lam_tilde < 0 or params.t <= 0 or params.delta <= 0:
        raise ValueError("need lam_tilde >= 0, t > 0, delta > 0")
    # lam~ floored just above 0 so that a ridge start exists at lam~ = 0, delta <= 1
    theta, beta_start, *_ = ridge_solution(params.rho_eff, max(params.lam_tilde, 1e-12),
                                           params.delta)
    if beta_hint is None:
        beta_hint = max(beta_start, 1e-8)
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
    return ScalarSolution(theta, beta_star, b_norm,
                          mse_from_theta(theta, params.rho_eff, params.delta), resid)


def box_sep(theta_star: float, b_norm: float, params: BoxObjectiveParams) -> float:
    """Limiting SEP of the box decoder for a general threshold.

    With q = Q(sqrt(rho_eff / E) / theta*), the box clip at r = t/B reaches
    the first h = min(M/2, floor(r sqrt(E)/2) + 1) of the positive symbols
    1..M/2: symbols below h err on both sides (2q), symbol h only inward (q)
    and those above h always, so SEP = (2/M)((2h - 1) q + M/2 - h). The SEP
    jumps where r crosses a decision boundary 2j/sqrt(E), j = 1..M/2-1, so
    thresholds there are rejected as degenerate (BPSK has none). At t = inf,
    h = M/2 and the SEP is the ridge decoder's 2(1 - 1/M) q.
    """
    m = params.m
    energy = pam_energy(m)
    sqrt_e = math.sqrt(energy)
    ratio = params.t / b_norm
    reach = ratio * sqrt_e / 2.0  # r in units of the boundary spacing 2/sqrt(E)
    h = m // 2
    if reach < h:
        j = round(reach)
        if 1 <= j < h and abs(ratio - 2 * j / sqrt_e) < DEGENERATE_T_TOL:
            raise UndefinedTheoryError(
                f"t / B = {ratio!r} sits on the degenerate decision boundary {2 * j}/sqrt(E)"
            )
        h = math.floor(reach) + 1
    q = qfunc(math.sqrt(params.rho_eff / energy) / theta_star)
    return 2.0 / m * ((2 * h - 1) * q + (m // 2 - h))


# ---------------------------------------------------------------------------
# Numeric knob optimization and scenario-level prediction
# ---------------------------------------------------------------------------


def _theta_of(params: BoxObjectiveParams, knob: str):
    """theta* of scalar_solution as a function of one knob ("lam_tilde" or "t")
    of params; each box solve starts from the beta* of the one before."""
    last_beta = None

    def f(x: float) -> float:
        nonlocal last_beta
        sol = scalar_solution(params._replace(**{knob: x}), beta_hint=last_beta)
        last_beta = sol.beta_star
        return sol.theta_star
    return f


def _grid_argmin(f, grid, below=()) -> float:
    """argmin of f over the sorted grid, refined by golden section between the
    neighbours of the best sample; sampling the whole grid finds the best of
    several local minima. A best sample at the low end steps on down the
    descending points below while f strictly falls (ConvergenceError if it
    falls at the last); else a best sample at either end is returned as is."""
    vals = [f(x) for x in grid]
    j = vals.index(min(vals))
    if j == 0 and below:
        best, f_best, above = grid[0], vals[0], grid[1]
        for x in below:
            fx = f(x)
            if not fx < f_best:
                return _golden_min(f, x, above, rel_tol=SCALAR_SEARCH_TOL)
            best, f_best, above = x, fx, best
        raise ConvergenceError(f"theta* still falls at the search floor {best:.6g}")
    if j == 0 or j == len(grid) - 1:
        return grid[j]
    return _golden_min(f, grid[j - 1], grid[j + 1], rel_tol=SCALAR_SEARCH_TOL)


def lambda_star_numeric(params: BoxObjectiveParams) -> float:
    """argmin over lam~ >= 0 of theta*(lam~) at the other coordinates of
    params (t = inf is the ridge decoder), searched on LAM_TILDE_GRID. The
    grid holds lam~ = 0 only when delta > 1: with n <= k the unregularized
    decoder, and the box saddle at lam~ = 0, do not exist, and when theta*
    still falls at the lowest grid point that point (lam~ = 1e-6) is
    returned.
    """
    grid = LAM_TILDE_GRID if params.delta > 1 else LAM_TILDE_GRID[1:]
    return _grid_argmin(_theta_of(params, "lam_tilde"), grid)


def t_star_numeric(params: BoxObjectiveParams) -> float:
    """argmin over t > 0 of the box decoder's theta*(t) at params.lam_tilde,
    searched over t / t_ref on T_GRID, and below it on T_GRID_BELOW while
    theta* falls, with t_ref the largest symbol."""
    t_ref = largest_symbol(params.m)
    theta_of = _theta_of(params, "t")
    return _grid_argmin(lambda r: theta_of(r * t_ref), T_GRID, T_GRID_BELOW) * t_ref


class Prediction(NamedTuple):
    """Asymptotic record for one scenario and decoder: the scalar solution
    (theta*, beta*) with the debias constant B that divides the estimate
    before slicing, and the MSE, SEP and goodput they imply."""

    theta_star: float
    beta_star: float
    b_norm: float
    mse: float
    sep: float
    goodput: float


def scalar_solution(p: BoxObjectiveParams, beta_hint: float | None = None) -> ScalarSolution:
    """Scalar saddle solution (theta*, beta*, B); t = inf is the ridge decoder,
    solved in closed form. beta_hint starts the box saddle search."""
    if math.isfinite(p.t):
        return box_saddle_solve(p, beta_hint=beta_hint)
    return ridge_solution(p.rho_eff, p.lam_tilde, p.delta)


def predict(cfg: SystemConfig, spec: DecoderSpec) -> Prediction:
    """Asymptotic theta*, beta*, B, MSE, SEP and goodput for one scenario and
    decoder.

    theta* and beta* are reported in the raw scenario's units, s times the
    saddle point at the effective SNR. The unregularized decoder needs
    delta > 1, so lam~ = 0 with n <= k has no theory (UndefinedTheoryError),
    nor has a scenario whose debias constant B underflows to 0.
    """
    dp = derive_params(cfg)
    if spec.lam_tilde == 0 and dp.delta <= 1:
        raise UndefinedTheoryError(
            "lam = 0 requires n > k (the unregularized decoder needs delta > 1)")
    params = BoxObjectiveParams(dp.rho_eff, spec.lam_tilde, dp.delta, spec.t_box, cfg.m)
    sol = scalar_solution(params)
    if sol.b_norm == 0.0:
        raise UndefinedTheoryError(f"debias constant B underflows to 0 at lam~={spec.lam_tilde!r}")
    sep = box_sep(sol.theta_star, sol.b_norm, params)
    goodput = (1.0 - dp.tau_p / dp.tau) * (1.0 - sep)
    return Prediction(theta_star=dp.noise_std * sol.theta_star,
                      beta_star=dp.noise_std * sol.beta_star, b_norm=sol.b_norm,
                      mse=sol.mse, sep=sep, goodput=goodput)


def optimize_goodput(cfg: SystemConfig) -> tuple[SystemConfig, float]:
    """Jointly optimal (t_pilot, alpha) in the goodput sense: cfg at the
    optimal pilot count T_p* and its alpha*, and the goodput there.

    Walks every pilot count from k to t_total - 1 (pilots are whole
    symbols), sets alpha to alpha_star's float at that count and scores
    the point by the goodput that predict gives for LMMSE (ridge at its
    optimal coefficient). The first best count wins. Direct-split configs
    are refused, as by alpha_star.
    """
    best = None
    for t_pilot in range(cfg.k, cfg.t_total):
        point = cfg._replace(t_pilot=t_pilot)
        point = point._replace(alpha=alpha_star(point))
        goodput = predict(point, DecoderSpec(1.0)).goodput
        if best is None or goodput > best[1]:
            best = (point, goodput)
    return best
