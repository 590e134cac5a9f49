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
from functools import lru_cache, reduce

import numpy as np
from scipy import interpolate, special

from .errors import QuadratureError

_LOG_TRUNC = math.log(1e12)  # integrand cut where exp(-t k^alpha) < 1e-12
_INVERSE_TAIL_TOL = 1e-8  # share of the output the last inversion panel may carry


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
#     f(r) = (2 pi)^(-d) omega_{d-1} Int_0^inf fhat(k) k^(d-1) A_d(k r) dk,
# omega_{d-1} the surface area of the unit sphere and A_d the spherical
# average of exp(i xi . w) over |xi| = 1 at |w| = z:
#     A_1 = cos z,  A_2 = J_0(z),  A_3 = sin z / z,
#     A_d = Gamma(d/2) (2/z)^(d/2-1) J_{d/2-1}(z)  in general,
# all equal to 1 at z = 0.  The integrand mixes a decaying envelope with
# oscillation of wavelength 2 pi / r, so the nodes are composite
# Gauss-Legendre panels no wider than half a wavelength.
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


def _angular_factor(dim: int, z) -> np.ndarray:
    """Spherical average A_d(z) of exp(i xi . w) over |xi| = 1 at |w| = z.

    Elementary in d = 1, 2, 3 (cos, j0, sin z / z); a general-order
    Bessel function only from d = 4 on.
    """
    z = np.asarray(z, dtype=float)
    if dim == 1:
        return np.cos(z)
    if dim == 2:
        return special.j0(z)
    if dim == 3:
        return np.sinc(z / np.pi)
    nu = dim / 2.0 - 1.0
    zs = np.where(z < 1e-6, 1.0, z)
    return np.where(z < 1e-6, 1.0,
                    special.gamma(dim / 2.0) * (2.0 / zs) ** nu * special.jv(nu, zs))


def radial_fourier_inverse(fhat, dim: int, radii, k_max: float, *,
                           floor: float = 0.0, reach: float = 0.0) -> np.ndarray:
    """Invert an isotropic Fourier profile at the given radii.

    ``fhat`` is a vectorized function of |y|; ``reach`` is the radius on
    which fhat itself oscillates (the support radius of the function it
    transforms), so the panels resolve both oscillations.  Truncation at
    ``k_max`` is the caller's responsibility; the last panel's share of
    the output is checked against 1e-8 (``_INVERSE_TAIL_TOL``) times the
    larger of the largest output and ``floor`` (the function's own scale),
    as a cheap guard for a too-early cut.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii < 0.0):
        raise ValueError("radii must be nonnegative")
    # tensor grids repeat radii many times over; invert each one once
    radii, repeat = np.unique(radii, return_inverse=True)
    extent = radii.max(initial=0.0) + reach
    wavelength = 2.0 * np.pi / extent if extent > 0 else np.inf
    nodes, weights = _panel_nodes(float(k_max), float(wavelength))
    omega = 2.0 * np.pi ** (dim / 2.0) / special.gamma(dim / 2.0)
    integ = (2.0 * np.pi) ** (-dim) * omega * fhat(nodes) * nodes ** (dim - 1)
    out = np.empty_like(radii)
    block = max(1, 2_000_000 // len(nodes))  # radius-by-node entries per block
    for lo in range(0, len(radii), block):
        z = radii[lo : lo + block, None] * nodes[None, :]
        out[lo : lo + block] = _angular_factor(dim, z) @ (weights * integ)
    tail = weights[-_GL_POINTS:] @ integ[-_GL_POINTS:]
    _check_tail(tail, max(np.abs(out).max(initial=0.0), floor), _INVERSE_TAIL_TOL)
    return out[repeat]


def _check_tail(tail, scale, tail_tol):
    tail = abs(float(tail))
    floor = max(abs(float(scale)), 1e-12)
    if tail > tail_tol * floor:
        raise QuadratureError(
            f"Fourier integral truncated too early: last panel or shell carries "
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
    axes, wts = zip(*(_simpson_grid(c - radius, c + radius, nodes_per_dim)
                      for c in np.asarray(center, dtype=float)[:dim]))
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    return pts, reduce(np.multiply.outer, wts).ravel()


def _default_nodes(dim: int) -> int:
    return {1: 257, 2: 65, 3: 33}.get(dim, 21)


def semigroup_apply(kernel: StableKernel, phi, t: float, x):
    """Evaluate (S_t phi)(x) = Int p_t(x - y) phi(y) dy.

    ``phi`` is a radial `TestFunction`: S_t phi is the radial Fourier
    inverse of k -> phi-hat(k) exp(-t k**alpha), taken at |x - c|, so it
    stays accurate however small t**(1/alpha) is.  At t = 0 this is the
    identity.  ``x`` may be a single point or a batch of shape (m, dim).
    """
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if phi.dim != kernel.dim:
        raise ValueError(f"phi has {phi.dim} coordinates, the kernel {kernel.dim}")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts_x = x[None, :] if single else x
    if pts_x.shape[-1] != kernel.dim:
        raise ValueError(f"points must have {kernel.dim} coordinates")
    if t == 0.0:
        vals = phi.evaluate(pts_x)
    else:
        alpha = kernel.alpha
        vals = radial_fourier_inverse(
            lambda k: phi.fourier_profile(k) * np.exp(-t * k**alpha), kernel.dim,
            np.linalg.norm(pts_x - phi.center, axis=1), _density_k_max(alpha, t),
            floor=1.0, reach=phi.radius,  # sup phi = 1 for both shapes
        )
    return float(vals[0]) if single else vals
