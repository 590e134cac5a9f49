"""Moment formulas for the branching field and its occupation time.

Criticality makes the mean field Lebesgue at every time, so first
moments are exact one-liners.  Second moments close in terms of the
migration semigroup and the lifetime renewal function: with

    G(u) = <phi . S_u psi, Lambda>

the stationary pair correlation at time lag u,

    Cov(<phi, X_s>, <psi, X_t>) = G(t - s) + Int_{(0,s]} G(s + t - 2r) dU(r)

for 0 <= s <= t; the single-tree second moment has the same renewal
structure run from a point, and the occupation-time variance is the
double time integral of the covariance kernel.

G itself comes from the closed-form transforms of the test functions.
In free space it is a one-dimensional radial Fourier integral; unlike a
real-space product quadrature this stays uniformly accurate down to
u -> 0, where the transition density degenerates to a point mass.  A
route that integrates phi . (S_u psi) over phi's support is kept
alongside as a cross-check.  On the torus [-L, L)^d that the simulators
wrap onto, the integral becomes its exact dual-lattice series, so every
formula here is also an exact oracle for a torus simulation whose test
functions sit inside the window.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError, RegimeError, check_count
from .occupation import TestFunction, check_inside_window, lebesgue_integral
from .renewal import RenewalTable
from .specfun import sphere_area
from .stable_motion import (
    _GL_POINTS,
    _MIN_PANELS,
    StableKernel,
    _angular_factor,
    _check_tail,
    _default_nodes,
    _density_k_max,
    _gl_rule,
    _panel_nodes,
    semigroup_apply,
    semigroup_columns,
    support_quadrature,
    transition_density_radial,
)

_TAIL_TOL = 1e-6  # share of G a cut may leave in its last panel or shell
# Largest table the torus series may allocate: the tested extreme (d = 3,
# L = 5.66, u = 0.0156, n_max = 96) has 9,217 entries, over 100x below this.
_SERIES_MAX_TERMS = 1 << 20
# Entries of one exp(-u x) block in `_lag_sums`.  Larger blocks gain
# little time and can raise the process's peak memory.
_LAG_BLOCK = 1 << 15


def _overlap_integral(phi: TestFunction, psi: TestFunction, delta: float,
                      dim: int) -> float:
    """Int phi(x) psi(x) dx for centers a distance ``delta`` apart."""
    r1, r2 = phi.radius, psi.radius
    if delta >= r1 + r2:
        return 0.0
    # phi and psi at a distance s from their own centres
    f1, f2 = (lambda s, f=f: f.shape_at(s * s / f.radius**2) for f in (phi, psi))
    x, w = _gl_rule(128)
    if delta == 0.0:
        hi = min(r1, r2)
        s = hi / 2.0 * (x + 1.0)
        ws = w * hi / 2.0
        return float(sphere_area(dim) * np.sum(ws * f1(s) * f2(s) * s ** (dim - 1)))
    lo, hi = max(-r1, delta - r2), min(r1, delta + r2)
    if dim == 1:
        z = (hi + lo) / 2.0 + (hi - lo) / 2.0 * x
        wz = w * (hi - lo) / 2.0
        return float(np.sum(wz * f1(np.abs(z)) * f2(np.abs(z - delta))))
    # Reduce to (axis, transverse-radius) coordinates; split where the
    # active transverse bound switches between the two balls.
    cross = (r1**2 - r2**2 + delta**2) / (2.0 * delta)
    edges = sorted({lo, hi} | ({cross} if lo < cross < hi else set()))
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        z = (b + a) / 2.0 + (b - a) / 2.0 * x
        wz = w * (b - a) / 2.0
        rho_max = np.sqrt(
            np.clip(np.minimum(r1**2 - z**2, r2**2 - (z - delta) ** 2), 0.0, None)
        )
        rho = rho_max[:, None] / 2.0 * (x[None, :] + 1.0)
        wr = rho_max[:, None] / 2.0 * w[None, :]
        vals = (
            f1(np.sqrt(z[:, None] ** 2 + rho**2))
            * f2(np.sqrt((z[:, None] - delta) ** 2 + rho**2))
            * rho ** (dim - 2)
        )
        total += float(np.sum(wz * np.sum(wr * vals, axis=1)))
    return sphere_area(dim - 1) * total


def pair_correlation(kernel: StableKernel, phi: TestFunction, psi: TestFunction,
                     u, *, torus_half_side: float | None = None):
    """Stationary pair correlation G(u) = <phi . S_u psi, Lambda>.

    ``u`` is one lag, giving a float, or a 1-D array of lags (any order,
    repeats and zeros allowed), giving an array of the same length.
    Free space: the radial integral G(u) = (2 pi)^-d Int phi^(k) psi^(k)
    exp(-u |k|^alpha) cos(k . D) dk, with D = psi.center - phi.center, on
    one node set for every lag (`_panel_nodes`, sized by the smallest
    positive lag and graded toward k = 0 below the largest lag's cut).
    Torus [-L, L)^d (``torus_half_side`` L): its exact dual-lattice series,
    (2L)^-d times the same summand over k_n = pi n / L, n in Z^d, from one
    table per |n|^2 built as a product of per-axis sums (`_torus_table`);
    phi and psi must lie inside the window (ValueError).  Both routes cut
    each lag at `_density_k_max`, past exp(-u k^alpha) < 1e-12, and raise
    QuadratureError naming the lag if the last 24th of its cut or its
    outer lattice shell carries over 1e-6 of G; a node set or table too
    large for the smallest lag also raises, naming that lag.  A negative
    or non-finite lag, or a phi or psi of another dimension than the
    kernel, raises ValueError.  At u = 0 both are Int phi psi.
    """
    lags = np.asarray(u, dtype=float)
    if lags.ndim > 1:
        raise ValueError("time lags must be a number or a 1-D array")
    if not np.all((lags >= 0.0) & (lags < np.inf)):
        raise ValueError("time lags must be finite and nonnegative")
    if phi.dim != kernel.dim or psi.dim != kernel.dim:
        raise ValueError(f"phi and psi must have the kernel's dim {kernel.dim}, "
                         f"got {phi.dim} and {psi.dim}")
    if torus_half_side is not None:
        check_inside_window(torus_half_side, phi, psi)
    d = kernel.dim
    offset = psi.center - phi.center
    dist = float(np.linalg.norm(offset))
    distinct, back = np.unique(lags, return_inverse=True)
    out = np.empty(len(distinct))
    positive = distinct > 0.0
    if not positive.all():  # inside the window no image of psi reaches phi's support
        out[~positive] = _overlap_integral(phi, psi, dist, d)
    if positive.any():
        lag = distinct[positive]
        if torus_half_side is None:
            vals, tails = _free_table(kernel, phi, psi, lag, dist)
        else:
            vals, tails = _torus_table(kernel, phi, psi, lag, torus_half_side, offset)
        scale = np.maximum(np.abs(vals),
                           1e-9 * lebesgue_integral(phi) * lebesgue_integral(psi))
        worst = int(np.argmax(np.abs(tails) / scale))
        _check_tail(tails[worst], scale[worst], _TAIL_TOL,
                    at=f" at lag u={lag[worst]:g}")
        out[positive] = vals
    out = out[back.reshape(lags.shape)]
    return out if lags.ndim else float(out)


def _free_table(kernel, phi, psi, lags, dist):
    """The radial integral of `pair_correlation` and its tails (`_lag_sums`)
    at sorted positive lags, centres ``dist`` apart: each lag cuts at
    `_density_k_max`, and one `_panel_nodes` set serves every lag."""
    d, alpha = kernel.dim, kernel.alpha
    cuts = _density_k_max(alpha, lags)
    wavelength = 2.0 * np.pi / (phi.radius + psi.radius + dist)
    try:  # the smallest lag's cut sizes the set
        nodes, weights, right = _panel_nodes(float(cuts[0]), float(wavelength),
                                             float(cuts[-1]))
    except QuadratureError as exc:
        raise QuadratureError(f"radial integral at lag u={lags[0]:g}: {exc}") from exc
    coef = ((2.0 * np.pi) ** (-d) * sphere_area(d) * weights
            * phi.fourier_profile(nodes) * psi.fourier_profile(nodes)
            * _angular_factor(d, nodes * dist) * nodes ** (d - 1))
    # each lag sums through the first panel that reaches its cut and checks
    # the nodes in the last 24th of the cut (one panel at the 24-panel
    # minimum), not a whole graded panel, which can hold real mass
    ends = (np.minimum(np.searchsorted(right, cuts), len(right) - 1) + 1) * _GL_POINTS
    starts = np.searchsorted(nodes, cuts * (1.0 - 1.0 / _MIN_PANELS))
    return _lag_sums(lags, nodes**alpha, coef, coef, starts, ends)


def _torus_table(kernel, phi, psi, lags, half_side, offset):
    """The dual-lattice series of `pair_correlation` on [-L, L)^d and its
    tails (`_lag_sums`) at sorted positive lags: one entry per value of
    |n|^2 <= n_max^2, n_max sized by the smallest lag's `_density_k_max`.

    phi^ psi^ exp(-u k^alpha) depends on n only through |n|^2, and the sum
    of cos(k_n . D) over |n|^2 = m is the x^m coefficient of the product
    over axes of sum_j a_j x^(j^2), a_0 = 1 and a_j = 2 cos(pi j D_i / L).
    The same product at D = 0 counts the entry's lattice points, which
    bounds its sum of |cos| in the tail check."""
    d, alpha, step = kernel.dim, kernel.alpha, np.pi / half_side
    # |n| <= n_max reaches one unit shell past the cut; that shell is checked
    n_max = np.ceil(_density_k_max(alpha, lags) / step).astype(int) + 1
    top = int(n_max[0])
    table_size = top + 1 if d == 1 else top**2 + 1
    if table_size > _SERIES_MAX_TERMS:
        raise QuadratureError(
            f"torus series at lag u={lags[0]:g} needs |n| <= {top}: a "
            f"{table_size}-entry table, over the {_SERIES_MAX_TERMS} limit"
        )
    j = np.arange(top + 1)
    # per axis, row 0 sums cos over n_i = +-j and row 1 counts those n_i
    axes = [np.where(j > 0, 2.0, 1.0) * np.stack([np.cos(step * (j * x)),
                                                  np.ones(top + 1)])
            for x in offset]
    m2, sums = j**2, axes[0]
    for axis in axes[1:]:
        dense = np.zeros((2, top**2 + 1))
        for i, shift in enumerate(j**2):  # m2 is sorted: keep a prefix
            keep = np.searchsorted(m2, top**2 - shift, "right")
            dense[:, m2[:keep] + shift] += sums[:, :keep] * axis[:, i, None]
        m2 = np.flatnonzero(dense[1])
        sums = dense[:, m2]
    k = step * np.sqrt(m2)
    radial = phi.fourier_profile(k) * psi.fourier_profile(k) / (2.0 * half_side) ** d
    # a lag sums |n| <= its n_max; its outer shell is |n| > n_max - 1
    starts = np.searchsorted(m2, (n_max - 1) ** 2, "right")
    ends = np.searchsorted(m2, n_max**2, "right")
    return _lag_sums(lags, k**alpha, radial * sums[0], np.abs(radial) * sums[1],
                     starts, ends)


def _lag_sums(lags, x, coef, tail_coef, starts, ends):
    """G at each lag u_i, the sum of coef_j exp(-u_i x_j) over j < ends_i,
    and the tail that checks its cut, the sum of tail_coef_j exp(-u_i x_j)
    over starts_i <= j < ends_i.  The lags are sorted, so their ends never
    increase: lags that share an end are summed together, a block of at
    most `_LAG_BLOCK` exp(-u x) entries (or one lag's prefix, if that is
    longer) at a time, each tail masked from its own start."""
    out, tails = np.empty(len(lags)), np.empty(len(lags))
    edges = [0, *(np.flatnonzero(np.diff(ends)) + 1), len(lags)]
    for lo, hi in zip(edges[:-1], edges[1:]):  # one run of equal ends
        end = int(ends[lo])
        rows = max(1, _LAG_BLOCK // end)
        for a in range(lo, hi, rows):
            b = min(a + rows, hi)
            terms = np.multiply.outer(-lags[a:b], x[:end])
            np.exp(terms, out=terms)
            out[a:b] = terms @ coef[:end]
            first = int(starts[a:b].min())
            tail = terms[:, first:]
            tail[np.arange(first, end) < starts[a:b, None]] = 0.0
            tails[a:b] = tail @ tail_coef[first:end]
            del terms, tail  # free this block before the next is made
    return out, tails


def pair_correlation_realspace(kernel: StableKernel, phi: TestFunction,
                               psi: TestFunction, u: float, *,
                               nodes_per_dim: int | None = None) -> float:
    """G(u) by Simpson quadrature of phi . (S_u psi) over phi's support.

    Cross-check route for `pair_correlation`: only the outer integral is
    real-space; S_u psi comes from `semigroup_apply`, a radial Fourier
    inversion at each node, instead of the product of the two transforms.
    ``nodes_per_dim`` (default `_default_nodes`) must be an odd integer
    >= 3.
    """
    d = kernel.dim
    n = (_default_nodes(d) if nodes_per_dim is None
         else check_count(nodes_per_dim, "nodes_per_dim", 3))
    pts, w = support_quadrature(phi.center, phi.radius, d, n)
    if not 0.0 < u < np.inf:  # the exact overlap at u = 0; other lags raise there
        return pair_correlation(kernel, phi, psi, u)
    return float(w @ (phi.evaluate(pts) * semigroup_apply(kernel, psi, u, pts)))


def field_covariance(kernel: StableKernel, table: RenewalTable, s: float,
                     t: float, phi: TestFunction, psi: TestFunction, *,
                     torus_half_side: float | None = None) -> float:
    """Cov(<phi, X_s>, <psi, X_t>) for the stationary branching field.

    Equals G(t-s) plus the renewal-smoothed correlation picked up by
    shared branching ancestry on (0, s]; the renewal measure is applied
    by a trapezoidal Stieltjes rule on 129 nodes with U interpolated
    from the table.  G at all 130 lags is one `pair_correlation` table
    (on the torus [-L, L)^d when ``torus_half_side`` L is given).  Needs
    0 <= s <= t with t inside the table (ValueError before G is built).
    """
    if not 0.0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    table.value(t)  # refuses a t past the table
    rs = np.linspace(0.0, s, 129 if s > 0.0 else 0)
    du = np.diff(table.value(rs))
    g = pair_correlation(kernel, phi, psi, np.concatenate([[t - s], s + t - 2.0 * rs]),
                         torus_half_side=torus_half_side)
    return float(g[0] + np.sum(0.5 * (g[2:] + g[1:-1]) * du))


def tree_second_moment(kernel: StableKernel, table: RenewalTable, x0, s: float,
                       t: float, phi: TestFunction, psi: TestFunction, *,
                       r_points: int = 33,
                       nodes_per_dim: int | None = None) -> float:
    """E_x[<phi, Z_s> <psi, Z_t>] for the tree of one ancestor at ``x0``.

    First term: density-weighted quadrature of phi . (S_{t-s} psi) at
    time s from x0.  Second term: Int_{(0,s]} (S_r g_r)(x0) dU(r) with
    g_r = (S_{s-r} phi)(S_{t-r} psi), evaluated on a tensor grid over
    the joint support inflated by 4 t^(1/alpha) (four migration
    scales), with the r -> 0 limit (S_s phi)(S_t psi)(x0)
    anchoring the Stieltjes rule.  The r-ladder is three matrices with
    one column per r-point, S_{s-r} phi and S_{t-r} psi on the grid and
    p_r at |z - x0|, built from one angular matrix per radius set (phi
    and psi share theirs when their centres coincide).  ``r_points`` must
    be an integer >= 2 and ``nodes_per_dim`` (default `_default_nodes`,
    per axis of both grids) an odd one >= 3; anything else, and an s past
    the table, raises ValueError before any inversion.
    """
    d = kernel.dim
    check_count(r_points, "r_points", 2)
    n = (_default_nodes(d) if nodes_per_dim is None
         else check_count(nodes_per_dim, "nodes_per_dim", 3))
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"x0 must have shape ({d},)")
    if not 0.0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    rs = np.linspace(0.0, s, r_points)
    uvals = table.value(rs)
    pts, w = support_quadrature(phi.center, phi.radius, d, n)
    if s == 0.0:
        return float(phi.evaluate(x0[None, :])[0] * semigroup_apply(kernel, psi, t, x0))

    fy = phi.evaluate(pts) * semigroup_apply(kernel, psi, t - s, pts) * w
    rad = np.linalg.norm(pts - x0[None, :], axis=1)
    out = float(transition_density_radial(kernel, s, rad) @ fy)

    mid = (phi.center + psi.center) / 2.0
    half = float(max(np.max(np.abs(f.center - mid)) + f.radius for f in (phi, psi))
                 + 4.0 * t ** (1.0 / kernel.alpha))
    zpts, zw = support_quadrature(mid, half, d, n)
    zrad = np.linalg.norm(zpts - x0[None, :], axis=1)
    ladder = [(phi, s - r) for r in rs[1:]] + [(psi, t - r) for r in rs[1:]]
    sphi, spsi = np.hsplit(semigroup_columns(kernel, ladder, zpts), 2)
    fvals = np.empty(r_points)
    fvals[0] = float(
        semigroup_apply(kernel, phi, s, x0) * semigroup_apply(kernel, psi, t, x0)
    )
    dens = transition_density_radial(kernel, rs[1:], zrad)
    fvals[1:] = zw @ (dens * sphi * spsi)
    out += float(np.sum(0.5 * (fvals[1:] + fvals[:-1]) * np.diff(uvals)))
    return out


def occupation_variance(kernel: StableKernel, table: RenewalTable,
                        phi: TestFunction, horizon: float, *,
                        grid_points: int,
                        torus_half_side: float | None = None) -> float:
    """Var<phi, J_T> of the stationary field's occupation time.

    Double trapezoid of the covariance kernel C(u, v) over [0, T]^2 on a
    uniform grid of ``grid_points`` points, a required integer >= 2; any
    other count, and a ``horizon`` that is not finite, nonnegative and
    inside the table, raise ValueError before G is built.  Each C entry is
    G at the lag plus the renewal integral of `field_covariance`, itself a
    trapezoid in dU on the same grid, so every entry needs G only at
    integer multiples of the step: one `pair_correlation` table of 2m + 1
    lags, summed with one weight per lag (`_lag_weights`, in closed form,
    O(m)) and no covariance matrix.  This is a quadrature of the
    continuous-time variance, not the exact variance of a discretized
    occupation estimator: the renewal integral keeps the coarse grid's
    error, with no error control (alpha = 2, d = 3, Exp(1), T = 200, step
    1 gives 239.80, about 20% above a per-Fourier-mode evaluation on the
    same grid).
    """
    check_count(grid_points, "grid_points", 2)
    if not 0.0 <= horizon < np.inf:  # NaN fails this too, ahead of the grid
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")
    if horizon == 0.0:
        return 0.0
    m = grid_points - 1
    delta = horizon / m
    du = np.diff(table.value(np.arange(m + 1) * delta))
    gd = pair_correlation(kernel, phi, phi, np.arange(2 * m + 1) * delta,
                          torus_half_side=torus_half_side)
    return float(_lag_weights(du, delta) @ gd)


def _lag_weights(du, delta):
    """The weight of G(k delta), k = 0..2m, in `occupation_variance`'s
    double trapezoid on m + 1 points with renewal increments ``du``."""
    m = len(du)
    tw = np.full(m + 1, delta)
    tw[[0, -1]] = delta / 2.0
    # the G(|i - j|) terms weigh lag k by the autocorrelation of tw at k and -k
    weights = np.zeros(2 * m + 1)
    np.add.at(weights, np.abs(np.arange(-m, m + 1)), np.correlate(tw, tw, "full"))
    # Renewal interval l enters C(i, j) for i, j > l as du_l / 2 times
    # G(i + j - 2l) + G(i + j - 2l - 2): with p = i + j - 2(l + 1), the
    # tw_i tw_j mass on each p is the self-convolution of tw[l + 1:] =
    # delta (1, ..., 1, 1/2), n = m - l entries.  That is delta^2 times the
    # tent min(p + 1, 2n - 1 - p), less one on n - 1 <= p <= 2n - 2, plus
    # 1/4 at p = 2n - 2.  A tent's second difference is +1, -2, +1 at
    # p = 0, n, 2n, and the ones' first difference +1, -1 at p = n - 1,
    # 2n - 1, so two running sums give every interval's mass at once.
    c = du * (delta * delta / 2.0)
    n = np.arange(m, 0, -1)
    d2, d1 = np.zeros(2 * m + 1), np.zeros(2 * m + 1)
    d2[0] = c.sum()
    d2[n] -= 2.0 * c
    d2[2 * n] += c
    d1[n - 1] = c
    d1[2 * n - 1] -= c
    mass = np.cumsum(np.cumsum(d2) - d1)[: 2 * m - 1]
    mass[2 * n - 2] += c / 4.0
    weights[:-2] += mass
    weights[2:] += mass
    return weights


def classify_regime(dim: int, alpha: float, gamma: float | None = None) -> str:
    """Name the regime of (d, alpha) with lifetime tail exponent ``gamma``.

    Finite-mean lifetimes (``gamma`` None) are "finite_mean" when d > alpha
    and "recurrent" when d < alpha.  Heavy-tail lifetimes are
    "local_extinction" for d < alpha*gamma, "heavy_intermediate" for
    alpha*gamma < d < 2*alpha and "heavy_large_d" for d >= 2*alpha.  The
    critical equalities d = alpha and d = alpha*gamma are open boundary
    cases and raise RegimeError rather than land in a neighbouring regime.
    """
    if gamma is None:
        if dim == alpha:
            raise RegimeError(
                "d = alpha is an open boundary case between recurrent and "
                "transient migration; refusing rather than mislabel the run"
            )
        return "finite_mean" if dim > alpha else "recurrent"
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if dim == alpha * gamma:
        raise RegimeError(
            "d = alpha*gamma is the open boundary between local extinction "
            "and persistence; refusing rather than mislabel the run"
        )
    if dim < alpha * gamma:
        return "local_extinction"
    return "heavy_intermediate" if dim < 2.0 * alpha else "heavy_large_d"


def decay_exponent_prediction(dim: int, alpha: float,
                              gamma: float | None = None) -> float:
    """Dominant T-exponent of Var(T^{-1} <phi, J_T>) in the validated regimes.

    Heavy-tail lifetimes (tail exponent ``gamma``) require
    alpha*gamma < d < 2*alpha and give max(-1, gamma - d/alpha);
    finite-mean lifetimes (no ``gamma``) require d > alpha and give
    max(-1, 1 - d/alpha).  The terms -2 and -d/alpha can never win
    the max: -2 < -1, and gamma - d/alpha (or 1 - d/alpha) exceeds
    -d/alpha because gamma > 0.  Any other regime, and either critical
    equality, raises RegimeError.
    """
    regime = classify_regime(dim, alpha, gamma)
    if regime == "heavy_intermediate":
        return max(-1.0, gamma - dim / alpha)
    if regime == "finite_mean":
        return max(-1.0, 1.0 - dim / alpha)
    raise RegimeError(
        f"no variance decay prediction in the {regime} regime; it applies "
        f"for alpha*gamma < d < 2*alpha (heavy tail) or d > alpha (finite mean)"
    )
