"""Symmetric stable migration kernels.

A kernel with stability index ``alpha`` in (0, 2] describes the
d-dimensional process whose increment over a time step ``t`` has
characteristic function ``exp(-t * |y|**alpha)``.  ``alpha = 2`` is
Brownian motion run at twice the usual speed (per-coordinate variance
``2 t``), ``alpha = 1`` is the isotropic Cauchy process, and every other
index is sampled by subordinating a Brownian motion to a one-sided
stable clock.

The module provides exact samplers, the transition density (closed
form where one exists, radial Fourier inversion otherwise), and the
action of the transition semigroup on compactly supported test
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import interpolate, special

from .errors import QuadratureError

_LOG_TRUNC = math.log(1e12)  # integrand cut where exp(-t k^alpha) < 1e-12


@dataclass(frozen=True)
class StableKernel:
    """Isotropic stable migration law: index ``alpha``, dimension ``dim``."""

    alpha: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError(f"dim must be a positive integer, got {self.dim}")


def _one_sided_stable(rho: float, t, rng, size) -> np.ndarray:
    """Sample S >= 0 with Laplace transform E exp(-l S) = exp(-t * l**rho).

    Kanter's form of the Chambers-Mallows-Stuck sampler for the totally
    skewed stable law on the half line, rho in (0, 1).  With
    U ~ Uniform(0, pi) and W ~ Exp(1),

        A = sin(rho U) * sin((1-rho) U)**((1-rho)/rho) / sin(U)**(1/rho)

    and t**(1/rho) * A**... (exponent absorbed below) has the stated
    transform; the time scale enters only through t**(1/rho).
    """
    u = rng.uniform(0.0, np.pi, size=size)
    w = rng.standard_exponential(size=size)
    sin_u = np.clip(np.sin(u), 1e-300, None)
    w = np.clip(w, 1e-300, None)
    ratio = (1.0 - rho) / rho
    a = np.sin(rho * u) * np.power(np.sin((1.0 - rho) * u) / w, ratio)
    a /= np.power(sin_u, 1.0 / rho)
    return np.power(t, 1.0 / rho) * a


def sample_increments(kernel: StableKernel, dts, rng) -> np.ndarray:
    """Sample independent increments for an array of time steps.

    Returns an array of shape ``(len(dts), dim)`` whose rows are
    independent draws with characteristic function
    ``exp(-dt_i * |y|**alpha)``.
    """
    dts = np.asarray(dts, dtype=float)
    if np.any(dts < 0.0):
        raise ValueError("time steps must be nonnegative")
    n = dts.shape[0]
    d = kernel.dim
    if kernel.alpha == 2.0:
        # per-coordinate variance 2*dt
        z = rng.standard_normal(size=(n, d))
        return z * np.sqrt(2.0 * dts)[:, None]
    # Brownian motion at an independent (alpha/2)-stable time:
    # E exp(i y . B_S) = E exp(-S |y|^2) = exp(-dt |y|^alpha).
    rho = kernel.alpha / 2.0
    s = _one_sided_stable(rho, dts, rng, size=n)
    z = rng.standard_normal(size=(n, d))
    return z * np.sqrt(2.0 * s)[:, None]


# ---------------------------------------------------------------------------
# Radial Fourier inversion
#
# For an isotropic integrable f-hat, the inverse transform at radius r is
#     f(r) = (2 pi)^(-d/2) r^(1-d/2) Int_0^inf fhat(k) k^(d/2) J_{d/2-1}(k r) dk
# with the r -> 0 limit
#     f(0) = (2 pi)^(-d) omega_{d-1} Int_0^inf fhat(k) k^(d-1) dk,
# omega_{d-1} the surface area of the unit sphere.  The integrand mixes a
# decaying envelope with Bessel oscillation of wavelength 2 pi / r, so the
# nodes are composite Gauss-Legendre panels no wider than half a wavelength.
# ---------------------------------------------------------------------------

_GL_POINTS = 16


@lru_cache(maxsize=None)
def _gl_rule(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


@lru_cache(maxsize=4096)
def _panel_nodes(k_max: float, wavelength: float, min_panels: int = 24):
    """Composite Gauss-Legendre nodes on [0, k_max] resolving the oscillation."""
    width = k_max / min_panels
    if np.isfinite(wavelength):
        width = min(width, wavelength / 2.0)
    n_panels = max(min_panels, int(math.ceil(k_max / width)))
    edges = np.linspace(0.0, k_max, n_panels + 1)
    x, w = _gl_rule(_GL_POINTS)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def radial_fourier_inverse(fhat, dim: int, radii, k_max: float,
                           tail_tol: float = 1e-8) -> np.ndarray:
    """Invert an isotropic Fourier profile at the given radii.

    ``fhat`` is a vectorized function of |y|.  Truncation at ``k_max`` is
    the caller's responsibility; the last panel's contribution is checked
    against ``tail_tol`` as a cheap guard for a too-early cut.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii < 0.0):
        raise ValueError("radii must be nonnegative")
    d = dim
    r_max = radii.max()
    wavelength = 2.0 * np.pi / r_max if r_max > 0 else np.inf
    nodes, weights = _panel_nodes(float(k_max), float(wavelength))
    fh = fhat(nodes)

    out = np.empty_like(radii)
    zero = radii == 0.0
    if zero.any():
        omega = 2.0 * np.pi ** (d / 2.0) / special.gamma(d / 2.0)
        integ = fh * nodes ** (d - 1)
        total = weights @ integ
        _check_tail(integ, weights, total, tail_tol)
        out[zero] = (2.0 * np.pi) ** (-d) * omega * total
    if (~zero).any():
        r = radii[~zero]
        nu = d / 2.0 - 1.0
        bess = special.jv(nu, nodes[None, :] * r[:, None])
        integ = fh * nodes ** (d / 2.0)
        vals = bess @ (weights * integ)
        _check_tail(integ, weights, np.abs(vals).max(initial=0.0), tail_tol)
        out[~zero] = (2.0 * np.pi) ** (-d / 2.0) * r ** (1.0 - d / 2.0) * vals
    return out


def _check_tail(integ, weights, scale, tail_tol):
    tail = abs(weights[-_GL_POINTS:] @ integ[-_GL_POINTS:])
    floor = max(abs(float(scale)), 1e-12)
    if tail > tail_tol * floor:
        raise QuadratureError(
            f"radial inversion truncated too early: last panel carries "
            f"{tail:.3e} against scale {floor:.3e}"
        )


def _density_k_max(alpha: float, t: float) -> float:
    return 1.25 * (_LOG_TRUNC / t) ** (1.0 / alpha)


def transition_density_radial(kernel: StableKernel, t: float, radii) -> np.ndarray:
    """Transition density p_t at the given radii from the starting point."""
    if t <= 0.0:
        raise ValueError("transition density requires t > 0")
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    d = kernel.dim
    if kernel.alpha == 2.0:
        # heat kernel at speed 2: N(0, 2t I)
        return (4.0 * np.pi * t) ** (-d / 2.0) * np.exp(-radii ** 2 / (4.0 * t))
    if kernel.alpha == 1.0:
        # isotropic Cauchy kernel
        c = special.gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0)
        return c * t / (t ** 2 + radii ** 2) ** ((d + 1) / 2.0)
    alpha = kernel.alpha
    if radii.size > 8192:
        # Large batches (pairwise-distance matrices): invert once on a
        # radial table and fill the rest by cubic spline.  The density is
        # analytic in r, so 4k knots leave ~1e-12 interpolation error.
        knots = np.linspace(0.0, float(radii.max()) * (1.0 + 1e-12), 4097)
        table = radial_fourier_inverse(
            lambda k: np.exp(-t * k ** alpha), d, knots, _density_k_max(alpha, t)
        )
        spline = interpolate.CubicSpline(knots, table)
        return np.clip(spline(radii), 0.0, None)
    return radial_fourier_inverse(
        lambda k: np.exp(-t * k ** alpha), d, radii, _density_k_max(alpha, t)
    )


def _simpson_grid(lo, hi, n):
    """Simpson nodes and weights on [lo, hi] with n (odd) points."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return xs, w * h / 3.0


def support_quadrature(center, radius: float, dim: int, nodes_per_dim: int):
    """Tensor Simpson rule over the cube circumscribing a support ball."""
    center = np.asarray(center, dtype=float)
    axes = []
    wts = []
    for i in range(dim):
        xs, w = _simpson_grid(center[i] - radius, center[i] + radius, nodes_per_dim)
        axes.append(xs)
        wts.append(w)
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    weight = wts[0]
    for w in wts[1:]:
        weight = np.multiply.outer(weight, w)
    return pts, weight.ravel()


def _default_nodes(dim: int) -> int:
    return {1: 257, 2: 65, 3: 33}.get(dim, 21)


def semigroup_apply(kernel: StableKernel, phi, t: float, x, *,
                    nodes_per_dim: int | None = None):
    """Evaluate (S_t phi)(x) = Int p_t(x - y) phi(y) dy.

    ``phi`` needs `evaluate`, `center` and `radius` attributes; the
    quadrature is a tensor Simpson rule over the support cube, which is
    adequate while t**(1/alpha) is not far below the grid spacing.  At
    t = 0 this is the identity.  ``x`` may be a single point or a batch
    of shape (m, dim).
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts_x = x[None, :] if single else x
    if pts_x.shape[-1] != kernel.dim:
        raise ValueError(f"points must have {kernel.dim} coordinates")
    if t == 0.0:
        vals = phi.evaluate(pts_x)
        return float(vals[0]) if single else vals
    n = nodes_per_dim or _default_nodes(kernel.dim)
    pts_y, w = support_quadrature(phi.center, phi.radius, kernel.dim, n)
    fy = phi.evaluate(pts_y) * w
    # chunk the evaluation points so the pairwise-distance block stays
    # bounded (the full matrix is m * n**dim entries)
    block = max(1, int(4_000_000 / max(len(pts_y), 1)))
    vals = np.empty(len(pts_x))
    for lo in range(0, len(pts_x), block):
        chunk = pts_x[lo : lo + block]
        radii = np.linalg.norm(chunk[:, None, :] - pts_y[None, :, :], axis=-1)
        dens = transition_density_radial(kernel, t, radii.ravel()).reshape(radii.shape)
        vals[lo : lo + block] = dens @ fy
    return float(vals[0]) if single else vals
