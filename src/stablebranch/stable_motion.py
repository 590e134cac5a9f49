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

from .errors import QuadratureError, check_count
from .specfun import scaled_bessel_j, sphere_area

_LOG_TRUNC = math.log(1e12)  # integrand cut where exp(-t k^alpha) < 1e-12
_INVERSE_TAIL_TOL = 1e-8  # share of the output the last inversion panel may carry
_BLOCK_ENTRIES = 2_000_000  # largest node set, and largest row-by-node block
_SAMPLE_BLOCK = 1 << 14  # rows of the stable sampler's sines and powers at a time


@dataclass(frozen=True)
class StableKernel:
    """Isotropic stable migration law: index ``alpha``, dimension ``dim``."""

    alpha: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.alpha <= 2.0:
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha}")
        check_count(self.dim, "dim", 1)


def _sin_double(h, scale: float = 1.0, out=None) -> np.ndarray:
    """sin(2x) at x = scale * h as 2 tan x / (1 + tan(x)**2), within an ulp
    or two on (0, pi/2]: np.tan is SIMD on float64, np.sin is not.  Written
    into `out` if given; one temporary holds the denominator."""
    t = np.multiply(h, scale, out=out)
    np.tan(t, out=t)
    t *= 2.0
    den = np.multiply(t, 0.25)  # t is 2 tan x here: 0.25 t t = tan(x)**2
    den *= t
    den += 1.0
    t /= den
    return t


def _one_sided_stable(rho: float, t, rng, size) -> np.ndarray:
    """Sample S >= 0 with Laplace transform E exp(-l S) = exp(-t * l**rho).

    Kanter's form of the Chambers-Mallows-Stuck sampler for the totally
    skewed stable law on the half line, rho in (0, 1).  With
    U ~ Uniform(0, pi) and W ~ Exp(1),

        A = sin(rho U) * sin((1-rho) U)**((1-rho)/rho) / sin(U)**(1/rho)

    and t**(1/rho) * A**... (exponent absorbed below) has the stated
    transform; the time scale enters only through t**(1/rho).  U = 2h,
    h uniform on (0, pi/2] (never 0), so each sine is a `_sin_double`.
    h and W are drawn whole, as one vectorised draw each; the sines and
    powers then run over blocks of at most `_SAMPLE_BLOCK` rows, so their
    temporaries stay block-sized, and each block of W's buffer holds each
    later factor in turn, then the block's S.
    """
    h = rng.random(size=size)
    np.subtract(1.0, h, out=h)
    h *= np.pi / 2.0
    w = rng.standard_exponential(size=size)
    np.maximum(w, 1e-300, out=w)
    t = np.broadcast_to(t, (size,))
    for lo in range(0, size, _SAMPLE_BLOCK):
        hb, wb = h[lo : lo + _SAMPLE_BLOCK], w[lo : lo + _SAMPLE_BLOCK]
        a = _sin_double(hb, 1.0 - rho)
        a /= wb
        np.power(a, (1.0 - rho) / rho, out=a)
        factor = _sin_double(hb, rho, out=wb)
        a *= factor
        _sin_double(hb, out=factor)
        np.power(factor, 1.0 / rho, out=factor)
        a /= factor
        np.power(t[lo : lo + _SAMPLE_BLOCK], 1.0 / rho, out=factor)
        np.multiply(a, factor, out=wb)
    return w


def sample_increments(kernel: StableKernel, dts, rng) -> np.ndarray:
    """Sample independent increments for an array of time steps.

    Returns an array of shape ``(len(dts), dim)`` whose rows are
    independent draws with characteristic function
    ``exp(-dt_i * |y|**alpha)``.  ``dts`` must be 1-D, finite and
    nonnegative (ValueError otherwise, before any draw).
    """
    dts = np.asarray(dts, dtype=float)
    if dts.ndim != 1:
        raise ValueError(f"dts must be a 1-D array of time steps, got shape {dts.shape}")
    if len(dts) and not (dts.min() >= 0.0 and dts.max() < np.inf):  # NaN fails both
        raise ValueError("time steps must be finite and nonnegative")
    # Brownian motion at an independent (alpha/2)-stable time S:
    # E exp(i y . B_S) = E exp(-S |y|^2) = exp(-dt |y|^alpha), and S = dt
    # at alpha = 2.  Per-coordinate variance 2 S.
    s = (dts.copy() if kernel.alpha == 2.0
         else _one_sided_stable(kernel.alpha / 2.0, dts, rng, size=len(dts)))
    z = rng.standard_normal(size=(len(dts), kernel.dim))
    s *= 2.0
    z *= np.sqrt(s, out=s)[:, None]
    return z


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
# Gauss-Legendre panels no wider than half a wavelength.  For alpha < 2
# the envelope exp(-t k^alpha) has a kink at k = 0, so the panels are
# graded geometrically toward it.
# ---------------------------------------------------------------------------

_GL_POINTS = 16
_MIN_PANELS = 24  # uniform panels on [0, k_max], at the least
_HALVINGS = 12  # geometric panels toward k = 0 below the smallest cut


def _legendre(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


@lru_cache(maxsize=None)
def _gl_rule(npts: int):
    """The `npts`-point Gauss-Legendre rule on [-1, 1]: ascending nodes, weights.

    Newton's method on P_n from the guesses -cos(pi (i - 1/4) / (n + 1/2)),
    up to a step that moves no node by 1e-10 (the convergence is
    quadratic, so that leaves rounding error), then made exactly
    symmetric; the weights are 2 / ((1 - x)(1 + x) P_n'(x)^2).  numpy
    alone, so no run loads `numpy.polynomial`.  At n = 128 the nodes are
    within 1.1e-16 of a 40-digit reference and the weights within 3e-13
    relative, where numpy's `leggauss` weights are off by 1.4e-11.
    """
    x = -np.cos(np.pi * (np.arange(1, npts + 1) - 0.25) / (npts + 0.5))
    for _ in range(100):
        p, dp = _legendre(npts, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-10:
            break
    x = (x - x[::-1]) / 2.0
    _, dp = _legendre(npts, x)
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


def _panel_nodes(k_max: float, wavelength: float, k_low: float | None = None):
    """Composite Gauss-Legendre nodes on [0, k_max] resolving the oscillation.

    Uniform panels, at least `_MIN_PANELS` and none wider than half the
    wavelength, except the first: it is split by repeated halving toward
    k = 0 until `_HALVINGS` edges lie at or below ``k_low`` (default: the
    first panel's width), the smallest cut a caller will sum to.  Returns
    nodes, weights and the panels' right edges, one panel per
    `_GL_POINTS` consecutive nodes.  A set of over `_BLOCK_ENTRIES` nodes
    raises QuadratureError before anything is allocated.  Nothing is cached.
    """
    width = k_max / _MIN_PANELS
    if np.isfinite(wavelength):
        width = min(width, wavelength / 2.0)
    n_panels = max(_MIN_PANELS, int(math.ceil(k_max / width)))
    first = k_max / n_panels  # the first uniform panel's right edge
    reach = 0 if k_low is None else max(0, math.ceil(math.log2(first / k_low)))
    n_nodes = _GL_POINTS * (n_panels + _HALVINGS + reach)
    if n_nodes > _BLOCK_ENTRIES:
        raise QuadratureError(
            f"radial node set to k={k_max:.4g} needs {n_nodes} nodes, over the "
            f"{_BLOCK_ENTRIES} limit"
        )
    uniform = np.linspace(0.0, k_max, n_panels + 1)
    halvings = first * 0.5 ** np.arange(_HALVINGS + reach, 0, -1)
    edges = np.concatenate([[0.0], halvings, uniform[1:]])
    x, w = _gl_rule(_GL_POINTS)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights, edges[1:]


def _angular_factor(dim: int, z) -> np.ndarray:
    """Spherical average A_d(z) of exp(i xi . w) over |xi| = 1 at |w| = z.

    cos z and sin z / z in d = 1 and 3, and Gamma(d/2) 2^nu J_nu(z) / z^nu
    with nu = d/2 - 1 from d = 4 on (`scaled_bessel_j`).  Only even d
    needs scipy, for j0 or an integer-order J_nu.
    """
    z = np.asarray(z, dtype=float)
    if dim == 1:
        return np.cos(z)
    if dim == 2:
        from scipy.special import j0  # even dimensions only

        return j0(z)
    if dim == 3:
        return np.divide(np.sin(z), z, out=np.ones_like(z), where=z != 0.0)
    nu = dim / 2.0 - 1.0
    return math.gamma(dim / 2.0) * 2.0**nu * scaled_bessel_j(nu, z)


def _radii(radii) -> np.ndarray:
    """Radii as a 1-D float array, else ValueError unless finite and >= 0."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if not np.all((radii >= 0.0) & (radii < np.inf)):  # NaN fails this too
        raise ValueError("radii must be finite and nonnegative")
    return radii


def radial_fourier_inverse(fhat, dim: int, radii, k_max: float, *,
                           floor: float = 0.0, reach: float = 0.0) -> np.ndarray:
    """Invert isotropic Fourier profiles at the given radii.

    ``fhat`` is a vectorized function of |y| returning one profile, shape
    (nodes,), or several, shape (nodes, columns); the result is (radii,)
    or (radii, columns).  All columns share one node set, so ``k_max``
    must reach the slowest-decaying column (for exp(-t k^alpha) factors,
    the smallest time), and each distinct radius is inverted once, with
    one angular matrix for every column.  ``reach`` is the radius on
    which fhat itself oscillates (the support radius of the function it
    transforms), so the panels resolve both oscillations.  Truncation at
    ``k_max`` is the caller's responsibility; each column's last panel is
    checked against 1e-8 (``_INVERSE_TAIL_TOL``) times the larger of that
    column's largest output and ``floor`` (the function's own scale), as
    a cheap guard for a too-early cut.
    """
    radii = _radii(radii)
    # tensor grids repeat radii many times over; invert each one once
    radii, repeat = np.unique(radii, return_inverse=True)
    extent = radii.max(initial=0.0) + reach
    wavelength = 2.0 * np.pi / extent if extent > 0 else np.inf
    nodes, weights, _ = _panel_nodes(float(k_max), float(wavelength))
    profiles = np.asarray(fhat(nodes), dtype=float)
    integ = profiles.reshape(len(nodes), -1) * (
        (2.0 * np.pi) ** (-dim) * sphere_area(dim) * nodes ** (dim - 1))[:, None]
    weighted = weights[:, None] * integ
    out = np.empty((len(radii), integ.shape[1]))
    block = _BLOCK_ENTRIES // len(nodes)  # radius-by-node entries per block
    for lo in range(0, len(radii), block):
        z = radii[lo : lo + block, None] * nodes[None, :]
        out[lo : lo + block] = _angular_factor(dim, z) @ weighted
    tail = np.abs(weights[-_GL_POINTS:] @ integ[-_GL_POINTS:])
    scale = np.maximum(np.abs(out).max(axis=0, initial=0.0), max(floor, 1e-12))
    worst = int(np.argmax(tail / scale))  # the column nearest its tolerance
    _check_tail(tail[worst], scale[worst], _INVERSE_TAIL_TOL)
    out = out[repeat]
    return out if profiles.ndim == 2 else out[:, 0]


def _check_tail(tail, scale, tail_tol, at: str = ""):
    tail = abs(float(tail))
    floor = max(abs(float(scale)), 1e-12)
    if tail > tail_tol * floor:
        raise QuadratureError(
            f"Fourier integral truncated too early{at}: last panel or shell "
            f"carries {tail:.3e} against scale {floor:.3e}"
        )


def _density_k_max(alpha: float, t: float) -> float:
    return 1.25 * (_LOG_TRUNC / t) ** (1.0 / alpha)


def transition_density_radial(kernel: StableKernel, t, radii) -> np.ndarray:
    """Transition density p_t at the given radii from the starting point.

    ``t`` is one time, giving shape (radii,), or a 1-D array of times,
    giving one column per time, shape (radii, times).  alpha = 2 and
    alpha = 1 are closed forms; every other index is one radial Fourier
    inversion for all times together.
    """
    times = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((times > 0.0) & (times < np.inf)):
        raise ValueError("transition density requires finite t > 0")
    radii = _radii(radii)
    d, alpha = kernel.dim, kernel.alpha
    r = radii[:, None]
    if alpha == 2.0:
        # heat kernel at speed 2: N(0, 2t I)
        out = (4.0 * np.pi * times) ** (-d / 2.0) * np.exp(-r**2 / (4.0 * times))
    elif alpha == 1.0:
        # isotropic Cauchy kernel
        c = math.gamma((d + 1) / 2.0) / np.pi ** ((d + 1) / 2.0)
        out = c * times / (times**2 + r**2) ** ((d + 1) / 2.0)
    else:
        out = radial_fourier_inverse(
            lambda k: np.exp(-np.multiply.outer(k**alpha, times)), d, radii,
            _density_k_max(alpha, times.min()),
        )
    return out if np.ndim(t) else out[:, 0]


def _simpson_grid(lo, hi, n):
    """Simpson nodes and weights on [lo, hi] with n points; an even n
    raises ValueError naming `nodes_per_dim`."""
    if n % 2 == 0:
        raise ValueError(f"nodes_per_dim must be odd, got {n}")
    xs = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return xs, w * h / 3.0


def support_quadrature(center, radius: float, dim: int, nodes_per_dim: int):
    """Tensor Simpson rule over the cube circumscribing a support ball,
    ``nodes_per_dim`` (odd) nodes per axis."""
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
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    vals = semigroup_columns(kernel, [(phi, t)], x[None, :] if single else x)[:, 0]
    return float(vals[0]) if single else vals


def semigroup_columns(kernel: StableKernel, columns, x) -> np.ndarray:
    """(S_t f)(x) for every (f, t) in ``columns``: shape (m, len(columns)).

    Columns whose test functions share a centre c are inverses at the
    same radii |x - c|, so all their positive times go through one
    `radial_fourier_inverse` call, one angular matrix, with nodes sized
    for the smallest of those times.  t = 0 columns are f itself.  ``x``
    has shape (m, dim).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != kernel.dim:
        raise ValueError(f"points must have {kernel.dim} coordinates")
    if not np.all(np.isfinite(x)):
        raise ValueError("points must be finite")
    out = np.empty((len(x), len(columns)))
    by_center = {}
    for j, (f, t) in enumerate(columns):
        if not 0.0 <= t < math.inf:  # NaN fails this too
            raise ValueError(f"t must be finite and nonnegative, got {t!r}")
        if f.dim != kernel.dim:
            raise ValueError(f"phi has {f.dim} coordinates, the kernel {kernel.dim}")
        if t == 0.0:
            out[:, j] = f.evaluate(x)
        else:
            by_center.setdefault(tuple(f.center), []).append(j)
    alpha = kernel.alpha
    for js in by_center.values():
        fs = [columns[j][0] for j in js]
        times = np.array([columns[j][1] for j in js])
        distinct = {id(f): f for f in fs}  # one transform per test function

        def fhat(k):
            profile = {key: f.fourier_profile(k) for key, f in distinct.items()}
            return (np.stack([profile[id(f)] for f in fs], axis=1)
                    * np.exp(-np.multiply.outer(k**alpha, times)))

        out[:, js] = radial_fourier_inverse(
            fhat, kernel.dim, np.linalg.norm(x - fs[0].center, axis=1),
            _density_k_max(alpha, times.min()),
            floor=1.0, reach=max(f.radius for f in fs),  # sup f = 1 for both shapes
        )
    return out
