"""Test functions.

Two compactly supported shapes are enough for every experiment here: a
C^1 polynomial bump (1 - |x-c|^2/r^2)^2 on a ball, and the plain ball
indicator.  Both have closed-form Lebesgue integrals and closed-form
radial Fourier profiles (via Bessel functions, `specfun`), which the
moment formulas exploit.  The simulators sum `TestFunction.evaluate`
over the live population; the indicator of the closed ball is also the
occupancy target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import scaled_bessel_j, sphere_area

_SHAPES = ("bump", "indicator")


@dataclass(frozen=True)
class TestFunction:
    """Radial test function of a given shape, center and support radius."""

    __test__ = False  # tells pytest this is not a test-case class

    shape: str
    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"shape must be one of {_SHAPES}, got {self.shape!r}")
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        if not 0.0 < self.radius < math.inf:  # NaN fails this too
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"center must be finite, got {self.center.tolist()}")

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    def evaluate(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points must have {self.dim} coordinates")
        flat = pts.reshape(-1, self.dim)
        # q <= 1 needs |x_j - c_j| <= r, up to rounding, on every coordinate:
        # q is computed on the rows of that box only, the rest stay zero.
        reach = self.radius * (1.0 + 1e-12)
        rows = np.flatnonzero(np.abs(flat[:, 0] - self.center[0]) <= reach)
        for j in range(1, self.dim):
            rows = rows[np.abs(np.take(flat[:, j], rows) - self.center[j]) <= reach]
        q = np.sum((np.take(flat, rows, axis=0) - self.center) ** 2, axis=-1) / self.radius**2
        out = np.zeros(len(flat))
        out[rows] = self.shape_at(q)
        return out.reshape(pts.shape[:-1])

    def shape_at(self, q) -> np.ndarray:
        """The shape's value at q = |x - c|^2 / r^2: (1 - q)^2 (bump) or 1
        (indicator) on the closed ball q <= 1, and 0 outside it."""
        if self.shape == "bump":
            return np.where(q < 1.0, (1.0 - q) ** 2, 0.0)
        return np.where(q <= 1.0, 1.0, 0.0)

    def fourier_profile(self, k) -> np.ndarray:
        """Fourier transform at |y| = k of the shape centered at the origin.

        indicator: (2 pi)^{d/2} R^{d/2} k^{-d/2} J_{d/2}(k R)
        bump:      8 (2 pi)^{d/2} R^{d/2-2} k^{-d/2-2} J_{d/2+2}(k R)

        Both are real (the shapes are symmetric); a shifted center only
        multiplies the transform by a phase, which callers account for.
        At k = 0 either is the integral of the function.
        """
        k = np.atleast_1d(np.asarray(k, dtype=float))
        d, r = self.dim, self.radius
        bump = self.shape == "bump"
        nu = d / 2.0 + (2.0 if bump else 0.0)
        scale = (8.0 if bump else 1.0) * ((2.0 * np.pi) ** (d / 2.0) * r**d)
        return scale * scaled_bessel_j(nu, k * r)


def check_inside_window(half_side: float, *fns: TestFunction) -> None:
    """Refuse a test function whose support is not inside [-L, L)^d: only
    then is its sum over wrapped positions its periodic extension.  A
    ``half_side`` L that is not positive and finite is refused first."""
    if not 0.0 < half_side < math.inf:  # NaN fails this too
        raise ValueError(f"half_side must be positive and finite, got {half_side}")
    for f in fns:
        if np.max(np.abs(f.center)) + f.radius >= half_side:
            raise ValueError(f"a test function's support, radius {f.radius:g} "
                             f"about {f.center.tolist()}, leaves the torus "
                             f"window of half_side {half_side:g}")


def lebesgue_integral(phi: TestFunction) -> float:
    """Closed-form integral of the test function over R^d."""
    d, r = phi.dim, phi.radius
    if phi.shape == "indicator":
        return float(np.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0) * r**d)
    return float(sphere_area(d) * 8.0 / (d * (d + 2.0) * (d + 4.0)) * r**d)
