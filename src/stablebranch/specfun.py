"""The special functions the package's laws need, in numpy.

- The unit sphere's area needs only a scalar Gamma, from `math.gamma`.
- Bessel functions of half-integer order appear in the Fourier
  transforms of the test functions in odd dimension.  They are spherical
  Bessel functions (DLMF §10.47): closed forms by upward recurrence
  (§10.49, §10.51), and the power series (§10.53) near z = 0, where the
  closed forms cancel.
- The regularised incomplete gamma function, the CDF of the Gamma
  lifetime law, uses the series below x = a + 1 and the continued
  fraction above it (DLMF §8.7 and §8.9).

Integer Bessel orders come up only in even dimension.  They are the one
case left to scipy.special, imported inside that branch, so a run in
odd dimension never loads scipy.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = np.finfo(float).eps


def sphere_area(dim: int) -> float:
    """Surface area 2 pi^(d/2) / Gamma(d/2) of the unit sphere in R^d."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def scaled_bessel_j(nu: float, z) -> np.ndarray:
    """J_nu(z) / z^nu at z >= 0, the entire function that equals
    1 / (2^nu Gamma(nu + 1)) at z = 0.

    For half-integer nu = n + 1/2 this is sqrt(2/pi) j_n(z) / z^n, with
    j_n the spherical Bessel function.  j_n comes from upward recurrence
    on sin z / z and cos z where z >= n + 1, and from its power series
    below that, where the recurrence cancels.  At n = 2 and z = 1e-6 the
    closed form is off by a relative 7e9.  Every other order is scipy's
    J_nu, with the z = 0 value used below z = 1e-6.
    """
    z = np.asarray(z, dtype=float)
    n = nu - 0.5
    if n < 0.0 or n != int(n):
        from scipy import special  # integer orders: even dimensions only

        zs = np.where(z < 1e-6, 1.0, z)
        return np.where(z < 1e-6, 1.0 / (2.0**nu * math.gamma(nu + 1.0)),
                        special.jv(nu, zs) / zs**nu)
    n = int(n)
    near = z < n + 1.0
    zr = np.where(near, n + 1.0, z)
    prev = np.sin(zr) / zr  # j_0
    out = prev if n == 0 else (prev - np.cos(zr)) / zr  # j_1
    for m in range(1, n):
        prev, out = out, (2 * m + 1) / zr * out - prev
    out = np.asarray(out / zr**n)  # an array also at 0-d
    if near.any():
        out[near] = _spherical_series(n, z[near])
    return math.sqrt(2.0 / math.pi) * out


def _spherical_series(n: int, z) -> np.ndarray:
    """j_n(z) / z^n = sum_k (-z^2/2)^k / (k! (2n + 2k + 1)!!) for z < n + 1,
    summed by Horner's rule.  The sum stops once a term is below 1e-17 of
    the first term at z = n + 1."""
    terms, size = 0, 1.0
    while size > 1e-17:
        terms += 1
        size *= 0.5 * (n + 1.0) ** 2 / (terms * (2 * n + 2 * terms + 1))
    w = -0.5 * z * z
    out = np.ones_like(z)
    for k in range(terms, 0, -1):
        out = 1.0 + out * w / (k * (2 * n + 2 * k + 1))
    return out / math.prod(range(1, 2 * n + 2, 2))


def gammainc(a: float, x) -> np.ndarray:
    """Regularised lower incomplete gamma P(a, x) for a > 0 and x >= 0.

    Below x = a + 1: P = x^a e^-x / Gamma(a + 1) sum_k x^k / ((a+1)...(a+k)).
    At or above it: 1 - P = x^a e^-x / Gamma(a) times a continued
    fraction, evaluated by the modified Lentz method.  Each routine gives
    the smaller of P and 1 - P, so the complement never cancels much.
    Both sums stop, element by element, at a relative step of one ulp.
    NaN stays NaN.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x == np.inf, 1.0, np.nan)
    low = x < a + 1.0
    high = (x >= a + 1.0) & (x < np.inf)
    with np.errstate(divide="ignore"):  # log 0 = -inf gives P(a, 0) = 0
        if low.any():
            xs = x[low]
            term = np.full(xs.shape, 1.0 / a)
            total = term.copy()
            k = 0
            while not np.all(term <= _EPS * total):  # terms fall once k > x - a
                k += 1
                term *= xs / (a + k)
                total += term
            out[low] = total * np.exp(a * np.log(xs) - xs - math.lgamma(a))
        if high.any():
            xs = x[high]
            b = xs + 1.0 - a
            c = np.full(xs.shape, 1.0 / np.finfo(float).tiny)
            d = 1.0 / b
            h = d.copy()
            done = np.zeros(xs.shape, dtype=bool)
            i = 0
            while not done.all():
                i += 1
                an = -i * (i - a)
                b += 2.0
                d = 1.0 / (an * d + b)
                c = b + an / c
                delta = d * c
                h *= np.where(done, 1.0, delta)
                done |= np.abs(delta - 1.0) <= _EPS
            out[high] = 1.0 - h * np.exp(a * np.log(xs) - xs - math.lgamma(a))
    return out
