"""Reference implementations that the tests compare the package against."""

import math

import numpy as np
from scipy.integrate import quad

from mimopam import qfunc


def gauss_pdf(h):
    return math.exp(-0.5 * h * h) / math.sqrt(2.0 * math.pi)


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
