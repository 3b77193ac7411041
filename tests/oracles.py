"""Reference implementations that the tests compare the package against,
closed forms and diagnostics that only the tests use (rho_eff_of_alpha,
rls_sep, rls_stationarity_residuals, and box_objective and
gaussian_partial_second_moment over the package's kernels), and test-only
helpers such as draw_trial and write_config."""

import math

import numpy as np
from scipy.integrate import quad

from mimopam import ConfigError, derive_params
from mimopam.asymptotics import BoxObjectiveParams, _box_terms, _tail_moment, qfunc
from mimopam.decoders import box_rls_solve, rls_solve
from mimopam.runner import LambdaPolicy, TPolicy
from mimopam.simulate import draw_shared, estimate_channel
from mimopam.system import linear_to_db, pam_points


def theory_point(cfg, lam=0.0, t=math.inf):
    """The theory point of a scenario at raw ridge coefficient lam and box
    threshold t (t = inf is the ridge decoder): lam~ = lam / lambda*."""
    dp = derive_params(cfg)
    return BoxObjectiveParams(dp.rho_eff, lam / dp.lambda_star, dp.delta, t, cfg.m)


def rho_eff_of_alpha(rho: float, tau: float, tau_d: float, alpha: float) -> float:
    """Effective SNR as a function of the data power ratio, under the
    energy-conserving convention: the paper's closed form, which
    derive_params composes from the pilot/data powers instead.

    Continuous in alpha on (0, 1) and vanishing at both endpoints. The
    tau_d = 1 case is handled by its dedicated limit form.
    """
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    rt = rho * tau
    if tau_d == 1.0:
        return rt * rt / (1.0 + rt) * alpha * (1.0 - alpha)
    vartheta = (1.0 + rt) / (rt * (1.0 - 1.0 / tau_d))
    return rt / (tau_d - 1.0) * alpha * (1.0 - alpha) / (vartheta - alpha)


def gauss_pdf(h):
    return math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)


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

def gaussian_partial_second_moment(a: float, b: float, lower: float, upper: float) -> float:
    """int_lower^upper (a + b h)^2 p(h) dh from the package's upper-tail
    moment h(x) = E[(Z - x)_+^2] and its derivative.

    With c = a + b x, (a + b h)^2 = b^2 (h - x)^2 + 2 b c (h - x) + c^2, and
    E[(Z - x)_+] = -h'(x)/2, so the tail from x is
    b^2 h(x) - b c h'(x) + c^2 Q(x); infinite limits are legal.
    """
    if lower > upper:
        raise ValueError("need lower <= upper")

    def tail(x):
        if math.isinf(x):
            return a * a + b * b if x < 0 else 0.0
        h, dh = _tail_moment(x)
        c = a + b * x
        return b * b * h - b * c * dh + c * c * qfunc(x)

    return tail(lower) - tail(upper)

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


def box_objective_quadrature(theta, beta, rho_d, s_h2, s_d2, lam, delta, t, m):
    """The box decoder's saddle objective D(theta, beta) in the raw scenario
    variables, its Gaussian integrals by adaptive quadrature.

    rho_d is the data power, s_h2 and s_d2 the variances of the channel
    estimate and of its error, lam the raw ridge coefficient. The split
    s_h2 + s_d2 need not be 1: the noise term is 1 + rho_d (s_h2 + s_d2).
    """
    xi = math.sqrt(rho_d * s_h2)
    lr = lam * rho_d
    sqrt_e = math.sqrt((m * m - 1) / 3.0)
    val = (beta * delta * theta / 2 + beta * (1 + rho_d * (s_h2 + s_d2)) / (2 * theta)
           - beta**2 / 4)
    pref = beta**2 / (2 * xi**2 * beta / theta + 4 * lr)
    acc = 0.0
    for i in range(1, m, 2):
        for sign in (1, -1):
            drift = xi * sign * i / (theta * sqrt_e)
            width = t * (xi / theta + 2 * lr / (xi * beta))
            lo, hi = -width - drift, width - drift
            c = (beta * xi / 2) * (drift - lo)
            d = (beta * xi / 2) * (hi - drift)
            integral, _ = quad(lambda h: (xi * drift + xi * h) ** 2 * gauss_pdf(h), lo, hi,
                               epsabs=1e-12, epsrel=1e-12)
            acc += (t * (c * qfunc(-lo) + d * qfunc(hi))
                    - beta * xi * t * (gauss_pdf(lo) + gauss_pdf(hi))
                    - pref * integral)
    return val + acc / m


def ridge_decode(a, y, lam_rho_d):
    """rls_solve on a data pair (A, y), through its Gram form."""
    return rls_solve(a.T @ a, a.T @ y, lam_rho_d, a.shape[0])


def box_decode(a, y, lam_rho_d, t):
    """box_rls_solve on a data pair (A, y), through its Gram form and from
    its ridge solution."""
    gram, rhs = a.T @ a, a.T @ y
    return box_rls_solve(gram, rhs, lam_rho_d, t, rls_solve(gram, rhs, lam_rho_d, a.shape[0]))


def projected_gradient_oracle(a, y, lam_rho_d, t, max_iter=100_000, tol=1e-14):
    """Accelerated projected gradient (FISTA with gradient restart) on the box
    decoder's objective ||y - A x||^2 + lam_rho_d ||x||^2 over [-t, t]^K;
    independent of the active set method under test.

    Momentum restarts whenever the last step goes against the gradient
    mapping (O'Donoghue & Candes, Found. Comput. Math. 15, 2015). Stops when
    the projected-gradient residual L |x - clip(x - grad / L)|, with L the
    gradient's Lipschitz constant, falls below tol times the scale of A^T y.
    """
    gram = a.T @ a
    rhs = a.T @ y
    lip = 2.0 * (np.linalg.eigvalsh(gram)[-1] + lam_rho_d)
    stop = tol * max(1.0, float(np.abs(rhs).max()))
    x = z = np.zeros(a.shape[1])
    mom = 1.0
    for _ in range(max_iter):
        x_new = np.clip(z - 2.0 * (gram @ z + lam_rho_d * z - rhs) / lip, -t, t)
        if (z - x_new) @ (x_new - x) > 0.0:
            mom = 1.0
        mom_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * mom * mom))
        z = x_new + (mom - 1.0) / mom_new * (x_new - x)
        x, mom = x_new, mom_new
        grad = 2.0 * (gram @ x + lam_rho_d * x - rhs)
        if lip * np.abs(x - np.clip(x - grad / lip, -t, t)).max() <= stop:
            break
    return x


def draw_trial(cfg, seed, trial_idx):
    """The shared trial trial_idx of cfg's (n, k, m), deterministic given
    (seed, trial_idx); run_trial decodes cfg's point of it."""
    return draw_shared(cfg.n, cfg.k, cfg.m, seed, trial_idx)


def point_column(cfg, draw):
    """The column Z'Z x0 + kappa Z'z, kappa = w_std / s, that run_trial hands
    the box decoder at cfg's point of a shared trial, by run_trial's
    expressions (the point's channel is s Z, s^2 = rho_eff / K)."""
    dp = derive_params(cfg)
    c = dp.rho_d * dp.sigma_delta_sq
    s_sq = dp.rho_eff / cfg.k
    w_std = math.sqrt((1.0 + c * (draw.x0 @ draw.x0) / cfg.k) / (1.0 + c))
    return draw.zzx + w_std / math.sqrt(s_sq) * draw.zw


def explicit_training_trial(cfg, pilots, rng):
    """One trial's data model drawn through the training phase: channel H,
    its LMMSE estimate from the orthogonal pilots (estimate_channel), data
    symbols x0 and y = sqrt(rho_d/K) H x0 + z.

    Returns (a, y, x0) with a = sqrt(rho_d/K) Hhat, on which a decoder
    solves with the raw coefficient lam rho_d.
    """
    dp = derive_params(cfg)
    h = rng.standard_normal((cfg.n, cfg.k))
    hhat, _ = estimate_channel(h, pilots, dp.rho_p, rng)
    x0 = pam_points(cfg.m)[rng.integers(0, cfg.m, size=cfg.k)]
    y = math.sqrt(dp.rho_d / cfg.k) * h @ x0 + rng.standard_normal(cfg.n)
    return math.sqrt(dp.rho_d / cfg.k) * hhat, y, x0


def write_config(spec, path):
    """Serialize a sweep spec so load_config round-trips it exactly."""
    base = spec.base
    lines = [
        f"k = {base.k}",
        f"n = {base.n}",
        f"t_total = {base.t_total}",
        f"t_pilot = {base.t_pilot}",
        f"rho_db = {linear_to_db(base.rho)!r}",
        f"alpha = {base.alpha!r}",
        f"m = {base.m}",
        f"power_convention = {base.power_convention.value}",
        f"sweep_axis = {spec.sweep_axis.value}",
        "values = " + ",".join(repr(v) for v in spec.values),
        "decoders = " + ",".join(d.value for d in spec.decoders),
        f"trials = {spec.trials}",
        f"master_seed = {spec.master_seed}",
    ]
    for knob, policy_key, policy, value_key in ((spec.lam, "lambda_policy", LambdaPolicy, "lambda"),
                                                (spec.t_box, "t_policy", TPolicy, "t_box")):
        if isinstance(knob, policy):
            lines.append(f"{policy_key} = {knob.value}")
        else:
            lines += [f"{policy_key} = fixed", f"{value_key} = {knob!r}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
