"""Reference implementations that the tests compare the package against."""

import math

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
