"""Batch experiments and the statistical validation suite.

Three layers:

* the regime-gated experiment runner `run_experiment`, which simulates
  a horizon ladder and reports one `ResultRow` per horizon;
* one-off comparison helpers pitting the analytic second-moment
  formulas against Monte Carlo estimates;
* `run_validation_suite`, a battery of self-checks (exact constants,
  quadrature cross-checks, distributional identities, analytic-vs-MC
  oracles) returning one `CheckRow` per check.

Simulation windows can grow with the horizon as L = scale * T^(1/alpha)
(the migration scale), which keeps the torus's extra demographic
variance proportional to the plane-limit variance so that decay-slope
diagnostics remain meaningful; a fixed window would flatten the decay.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, RegimeError, check_count
from .fastsim import (
    field_batch,
    field_plan,
    obs_grid,
    replicate_stream,
    run_plans,
    tree_batch,
)
from .lifetimes import Exponential, Gamma, LifetimeLaw, make_pareto_tail
from .moments import classify_regime, field_covariance, tree_second_moment
from .occupation import TestFunction, check_inside_window, lebesgue_integral
from .renewal import RenewalTable, build_renewal
from .stable_motion import (
    StableKernel,
    radial_fourier_inverse,
    sample_increments,
    transition_density_radial,
)

# kind -> (regime it claims, hypothesis for the refusal message); None
# marks the one kind that holds in every regime and is never gated
EXPERIMENT_KINDS = {
    "lln_heavy_intermediate": ("heavy_intermediate", "alpha*gamma < d < 2*alpha"),
    "lln_heavy_large_d": ("heavy_large_d", "d >= 2*alpha"),
    "lln_finite_mean": ("finite_mean", "transient migration d > alpha"),
    "occupancy_subcritical": ("local_extinction",
                              "d < alpha*gamma (local extinction)"),
    "mean_identity": None,
}

_STABLE_CF_KEY, _TREE_STARTS_KEY = (1,), (2,)  # chunk keys are pairs


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a regime tag, a system, and a horizon ladder."""

    kind: str
    kernel: StableKernel
    law: LifetimeLaw
    horizons: tuple
    replicates: int
    phi: TestFunction | None = None  # occupancy: indicator of the target ball
    half_side: float | None = None
    window_scale: float | None = None  # without half_side: 1 when None
    obs_step: float = 0.5
    seed: int = 0
    intensity: float = 1.0
    label: str = ""

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; expected one of "
                f"{tuple(EXPERIMENT_KINDS)}"
            )
        horizons = tuple(float(h) for h in self.horizons)
        object.__setattr__(self, "horizons", horizons)
        if not horizons or any(h <= 0 for h in horizons):
            raise ConfigError("horizons must be a nonempty list of positive times")
        if any(a >= b for a, b in zip(horizons, horizons[1:])):
            raise ConfigError(f"horizons must be strictly increasing, got {horizons}")
        try:
            check_count(self.replicates, "replicates", 2)
            check_count(self.seed, "seed", 0)
            for h in horizons:
                obs_grid(h, self.obs_step)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # the occupancy target is a ball, and the CLI reads it as `ball`
        name = "ball" if self.kind == "occupancy_subcritical" else "phi"
        if self.phi is None:
            raise ConfigError(f"{self.kind} experiments need a test function ({name})")
        for key, value in (("half_side", self.half_side),
                           ("window_scale", self.window_scale)):
            if value is not None and not 0.0 < value < math.inf:  # NaN fails too
                raise ConfigError(f"{key} must be positive and finite, got {value}")
        if self.half_side is not None and self.window_scale is not None:
            raise ConfigError("give half_side or window_scale, not both")
        if self.kind == "occupancy_subcritical" and self.phi.shape != "indicator":
            raise ConfigError("occupancy experiments need phi to be the "
                              "indicator of the target ball")
        l_min = min(window_half_side(self, h) for h in horizons)
        try:  # the target <phi, Lambda> assumes phi inside every window
            check_inside_window(l_min, self.phi)
        except ValueError as exc:
            raise ConfigError(f"{name} must fit the smallest window: {exc}") from exc
        if not 0.0 <= self.intensity < math.inf:
            raise ConfigError(f"intensity must be nonnegative and finite, "
                              f"got {self.intensity}")
        if not self.label:
            object.__setattr__(self, "label", self.kind)


@dataclass(frozen=True)
class ResultRow:
    """One horizon's aggregated outcome in an experiment report."""

    experiment: str
    regime: str
    horizon: float
    replicates: int
    mean: float
    se: float
    target: float
    z: float
    passed: bool
    variance: float | None = None
    aborted: int = 0


@dataclass(frozen=True)
class CheckRow:
    """One validation-suite check: estimate vs target under a tolerance."""

    name: str
    target: float
    estimate: float
    z: float
    tolerance: str
    passed: bool


def _zscore(mean: float, se: float, target: float) -> float:
    if se > 0:
        return (mean - target) / se
    return 0.0 if mean == target else math.inf


def _mean_se_z(values: np.ndarray, target: float) -> tuple[float, float, float]:
    """Sample mean, its standard error, and its z-score against `target`."""
    n = len(values)
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return mean, se, _zscore(mean, se, target)


def check_regime(kind: str, kernel: StableKernel, law: LifetimeLaw) -> None:
    """Refuse experiment tags whose hypotheses the parameters violate."""
    if EXPERIMENT_KINDS[kind] is None:
        return
    regime, hypothesis = EXPERIMENT_KINDS[kind]
    d, a = kernel.dim, kernel.alpha
    g = getattr(law, "gamma", None)
    if regime == "finite_mean":
        if not math.isfinite(law.mean()):
            raise RegimeError("lln_finite_mean requires a finite-mean lifetime law")
    elif g is None:
        raise RegimeError(f"{kind} requires a heavy-tailed (ParetoTail) lifetime law")
    if classify_regime(d, a, g) != regime:
        got = f"d={d}, alpha={a}" + ("" if g is None else f", gamma={g}")
        raise RegimeError(f"{kind} requires {hypothesis}; got {got}")


def window_half_side(config: ExperimentConfig, horizon: float) -> float:
    """Window for one horizon: fixed, or the migration-scaled default."""
    if config.half_side is not None:
        return config.half_side
    scale = 1.0 if config.window_scale is None else config.window_scale
    return scale * horizon ** (1.0 / config.kernel.alpha)


def run_experiment(config: ExperimentConfig, *, threads: int = 1) -> list[ResultRow]:
    """Time average of <phi, X_t> per horizon, one row per horizon.

    For each horizon T: simulate the field, integrate each replicate's
    series over the observation grid by trapezoid, divide by T, and
    report the mean against the kind's target.  The chunks of every
    horizon share one pool of `threads` workers (`run_plans`).

    * LLN kinds and ``mean_identity``: the series is <phi, X_t>, so the
      average is T^{-1} <phi, J_T> and the target is <phi, Lambda>, the
      intensity times the integral of phi.
      Each row passes on |z| <= 3 and carries the replicate variance,
      which feeds the decay-slope diagnostics.
    * ``occupancy_subcritical``: the series is the indicator that the
      target ball is occupied, <phi, X_t> > 0, and the target is 0.  The
      pass flag (same on every row) is the trend criterion: strictly
      decreasing means along the ladder with at least 3 combined SE
      separating the first and last horizons.
    """
    check_regime(config.kind, config.kernel, config.law)
    phi = config.phi
    occupancy = config.kind == "occupancy_subcritical"
    target = 0.0 if occupancy else config.intensity * lebesgue_integral(phi)
    plans = [field_plan(
        config.kernel, config.law, replicates=config.replicates,
        obs_times=obs_grid(horizon, config.obs_step),
        half_side=window_half_side(config, horizon), seed=config.seed,
        intensity=config.intensity, weights={"phi": phi.evaluate},
        stream_key=ti + 1,
    ) for ti, horizon in enumerate(config.horizons)]
    rows = []
    for horizon, batch in zip(config.horizons, run_plans(plans, threads)):
        obs = batch.obs_times
        series = batch.ok("phi")
        if occupancy:
            series = (series > 0).astype(float)
        avg = np.trapezoid(series, obs, axis=1) / horizon
        mean, se, z = _mean_se_z(avg, target)
        rows.append(ResultRow(
            experiment=config.label, regime=config.kind, horizon=horizon,
            replicates=len(avg), mean=mean, se=se, target=target, z=z,
            passed=abs(z) <= 3.0,
            variance=None if occupancy else float(avg.var(ddof=1)),
            aborted=int(batch.aborted.sum()),
        ))
    if occupancy:
        first, last = rows[0], rows[-1]
        decreasing = all(a.mean > b.mean for a, b in zip(rows[:-1], rows[1:]))
        trend = decreasing and (first.mean - last.mean
                                >= 3.0 * math.hypot(first.se, last.se))
        rows = [replace(r, passed=trend) for r in rows]
    return rows


def fit_decay_slope(rows: list[ResultRow]) -> float:
    """Least-squares slope of log replicate variance against log horizon."""
    h = np.array([r.horizon for r in rows], dtype=float)
    v = np.array([r.variance for r in rows], dtype=float)
    if len(h) < 2 or np.any(v <= 0):
        raise ValueError("need >= 2 rows with positive variance columns")
    return float(np.polyfit(np.log(h), np.log(v), 1)[0])


# ---------------------------------------------------------------------------
# Analytic-vs-Monte-Carlo comparisons
# ---------------------------------------------------------------------------


def default_renewal_table(law: LifetimeLaw, horizon: float) -> RenewalTable:
    """Renewal table sized for moment formulas up to ``horizon``."""
    step = min(0.01, horizon / 512)
    return build_renewal(law, horizon * 1.02 + step, step)


# A covariance batch stores (replicates, checkpoints) series, so a pair
# grid finer than this many steps is refused, not run.
_MAX_PAIR_STEPS = 1000


def pair_grid(pairs) -> np.ndarray:
    """Observation grid 0, h, ..., max t for (s, t) pairs on their common step.

    h is the largest step of which every time is a whole multiple, found
    by Euclid's algorithm on the times.  Raises ValueError unless there is
    such a step with at most 1000 steps up to max t.
    """
    times = sorted({x for pair in pairs for x in pair if x > 0})
    if not times:
        raise ValueError("pairs need a positive time")
    horizon = times[-1]
    least = horizon / _MAX_PAIR_STEPS
    step = times[0]
    for x in times[1:]:
        # remainders below least / 2 are rounding, or no allowed step exists
        a, b = x, step
        while b >= least / 2:
            a, b = b, math.fmod(a, b)
        step = a
    n = round(horizon / step)
    if n > _MAX_PAIR_STEPS or any(abs(x / step - round(x / step)) > 1e-9
                                  for x in times):
        raise ValueError(f"the times of pairs {pairs} share no common step of "
                         f"at least {least:g} (max t / {_MAX_PAIR_STEPS})")
    return obs_grid(horizon, horizon / n)


def run_covariance_comparison(kernel: StableKernel, law: LifetimeLaw,
                              phi: TestFunction, psi: TestFunction, pairs, *,
                              half_side: float, replicates: int, seed: int,
                              p_two: float = 0.5, stream_key: int = 200,
                              threads: int = 1) -> list[dict]:
    """MC field covariance vs the analytic formula at (s, t) pairs.

    Returns one dict per pair with keys s, t, analytic, mc_estimate,
    mc_se, z, passed (|z| <= 3).  The analytic side is the covariance
    on the simulated torus, so phi and psi must lie inside the window.
    The batch observes on `pair_grid(pairs)`.  Every analytic value is
    computed before anything is simulated, so a pair with s < 0 or s > t
    (ValueError, from `field_covariance`) and a QuadratureError raise
    first.
    """
    pairs = [(float(s), float(t)) for s, t in pairs]
    check_inside_window(half_side, phi, psi)
    obs = pair_grid(pairs)
    step = obs[1]
    table = default_renewal_table(law, max(map(max, pairs)))  # covers an s > t, refused below
    analytic = [field_covariance(kernel, table, s, t, phi, psi,
                                 torus_half_side=half_side) for s, t in pairs]
    # psi is phi for an autocovariance: one series serves both columns
    weights = {"phi": phi.evaluate}
    if psi is not phi:
        weights["psi"] = psi.evaluate
    batch = field_batch(
        kernel, law, replicates=replicates, obs_times=obs,
        half_side=half_side, seed=seed, weights=weights,
        p_two=p_two, stream_key=stream_key, threads=threads,
    )
    sa = batch.ok("phi")
    sb = sa if psi is phi else batch.ok("psi")
    out = []
    for (s, t), exact in zip(pairs, analytic):
        i, j = round(s / step), round(t / step)
        # sample covariance and its influence-function standard error
        a, b = sa[:, i], sb[:, j]
        resid = (a - a.mean()) * (b - b.mean())
        mc = float(resid.sum() / (len(a) - 1))
        se = float(resid.std(ddof=1) / math.sqrt(len(a)))
        z = _zscore(mc, se, exact)
        out.append({
            "s": s, "t": t, "analytic": exact, "mc_estimate": mc,
            "mc_se": se, "z": z, "passed": abs(z) <= 3.0,
        })
    return out


def run_tree_moment_comparison(kernel: StableKernel, law: LifetimeLaw, x0,
                               s: float, t: float, phi: TestFunction,
                               psi: TestFunction, *, replicates: int,
                               seed: int, stream_key: int = 220,
                               threads: int = 1) -> dict:
    """MC single-tree product moment E[<phi,Z_s><psi,Z_t>] vs analytic
    (`tree_second_moment` on its default grids), which is computed, and
    refuses s < 0 or s > t, before anything is simulated."""
    table = default_renewal_table(law, max(s, 1e-3))
    x0 = np.asarray(x0, dtype=float)
    analytic = tree_second_moment(kernel, table, x0, s, t, phi, psi)
    batch = tree_batch(
        kernel, law, np.tile(x0, (replicates, 1)), obs_times=np.unique([s, t]),
        seed=seed, weights={"phi": phi.evaluate, "psi": psi.evaluate},
        stream_key=stream_key, threads=threads,
    )
    # the grid is s alone, or s and t: phi's column first, psi's last
    prod = batch.ok("phi")[:, 0] * batch.ok("psi")[:, -1]
    mc, se, z = _mean_se_z(prod, analytic)
    return {
        "s": s, "t": t, "analytic": analytic, "mc_estimate": mc, "mc_se": se,
        "z": z, "passed": abs(z) <= 3.0,
    }


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

# Each check returns the CheckRow fields after the name: target,
# estimate, z, tolerance, passed.  `_CHECKS` names them and fixes the order.


def _check_stable_cf(seed, p_two, threads):
    kernel = StableKernel(alpha=1.5, dim=2)
    rng = replicate_stream(seed, *_STABLE_CF_KEY)
    x = sample_increments(kernel, np.full(200_000, 2.0), rng)
    target = math.exp(-2.0)
    mean, _, z = _mean_se_z(np.cos(x[:, 0]), target)
    return target, mean, z, "|z| <= 3", abs(z) <= 3.0


def _check_density_closed_form(seed, p_two, threads):
    # radial Fourier inversion against the closed forms at t = 1, each cut
    # at its k_max: the heat kernel (alpha = 2) and the Cauchy kernel (alpha = 1)
    r = np.array([0.0, 0.7])
    gaps = []
    for alpha, k_max in ((2.0, 8.0), (1.0, 30.0)):
        exact = transition_density_radial(StableKernel(alpha=alpha, dim=1), 1.0, r)
        quad = radial_fourier_inverse(lambda k: np.exp(-(k**alpha)), 1, r, k_max)
        gaps.append(np.max(np.abs(quad - exact)))
    est = float(max(gaps))
    return 0.0, est, est / 1e-6, "abs error < 1e-6", est < 1e-6


def _check_self_similarity(seed, p_two, threads):
    kernel = StableKernel(alpha=1.5, dim=1)
    t, r = 0.7, 0.9
    a = float(transition_density_radial(kernel, t, [r])[0])
    scale = t ** (-1.0 / 1.5)
    b = scale * float(transition_density_radial(kernel, 1.0, [scale * r])[0])
    est = abs(a - b) / abs(b)
    return 0.0, est, est / 1e-6, "rel error < 1e-6", est < 1e-6


def _check_renewal_exponential(seed, p_two, threads):
    table = build_renewal(Exponential(rate=1.0), 10.0, 0.005)
    est = float(np.max(np.abs(table.values - (1.0 + table.grid))))
    return 0.0, est, est / 1e-3, "abs error < 1e-3", est < 1e-3


def _check_renewal_heavy_tail(seed, p_two, threads):
    gamma = 0.5
    t = 2000.0
    table = build_renewal(make_pareto_tail(gamma), t, 0.25)
    ratio = float(table.value(t) * t ** (-gamma) * math.gamma(1.0 + gamma))
    gap = abs(ratio - 1.0)
    return 1.0, ratio, gap / 0.1, "ratio in [0.9, 1.1]", gap <= 0.1


def _check_elementary_renewal(seed, p_two, threads):
    law = Gamma(shape=2.0, rate=2.0)
    table = build_renewal(law, 200.0, 0.02)
    ratio, limit = table.values[-1] / table.horizon, 1.0 / law.mean()
    rel = abs(ratio - limit) / limit
    return limit, ratio, rel / 0.05, "rel error < 5%", rel < 0.05


def _check_poisson_counts(seed, p_two, threads):
    kernel = StableKernel(alpha=2.0, dim=1)
    batch = field_batch(
        kernel, Exponential(rate=1.0), replicates=5000, obs_times=[0.0, 0.5],
        half_side=4.0, seed=seed, p_two=p_two, stream_key=101, threads=threads,
    )
    counts = batch.initial_counts.astype(float)
    m, _, z_mean = _mean_se_z(counts, 8.0)
    s2 = float(counts.var(ddof=1))
    se_var = math.sqrt((m + 2.0 * m * m) / len(counts))
    z_fano = (s2 - m) / se_var
    z = max(abs(z_mean), abs(z_fano))
    return 1.0, s2 / m, z, "mean and Fano |z| <= 3", z <= 3.0


def _check_criticality(seed, p_two, threads):
    kernel = StableKernel(alpha=2.0, dim=1)
    obs = np.linspace(0.0, 5.0, 6)
    batch = field_batch(
        kernel, Exponential(rate=1.0), replicates=3000, obs_times=obs,
        half_side=5.0, seed=seed, p_two=p_two, stream_key=102, threads=threads,
    )
    counts = batch.ok("count")
    mean, _, z = _mean_se_z(counts[:, -1] - counts[:, 0], 0.0)
    return 0.0, mean, z, "|z| <= 3", abs(z) <= 3.0


def _check_occupation_mean(seed, p_two, threads):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
    horizon = 10.0
    obs = obs_grid(horizon, 0.5)
    batch = field_batch(
        kernel, Exponential(rate=1.0), replicates=2000, obs_times=obs,
        half_side=6.0, seed=seed, weights={"phi": phi.evaluate}, p_two=p_two,
        stream_key=103, threads=threads,
    )
    occ = np.trapezoid(batch.ok("phi"), obs, axis=1) / horizon
    target = lebesgue_integral(phi)
    mean, _, z = _mean_se_z(occ, target)
    return target, mean, z, "|z| <= 3", abs(z) <= 3.0


def _check_covariance_oracle(seed, p_two, threads):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
    rows = run_covariance_comparison(
        kernel, Exponential(rate=1.0), phi, phi, [(1.0, 2.0)], half_side=6.0,
        replicates=30_000, seed=seed, p_two=p_two, stream_key=104,
        threads=threads,
    )
    row = rows[0]
    return (row["analytic"], row["mc_estimate"], row["z"], "|z| <= 3",
            row["passed"])


def _check_poissonization(seed, p_two, threads):
    kernel = StableKernel(alpha=2.0, dim=1)
    law = Exponential(rate=1.0)
    psi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
    half = 6.0
    t = 1.0
    batch = field_batch(
        kernel, law, replicates=20_000, obs_times=[0.0, t],
        half_side=half, seed=seed, weights={"psi": psi.evaluate},
        p_two=p_two, stream_key=105, threads=threads,
    )
    lhs_vals = np.exp(-batch.ok("psi")[:, 1])
    lhs = float(lhs_vals.mean())
    lhs_se = float(lhs_vals.std(ddof=1) / math.sqrt(len(lhs_vals)))

    n_tree = 100_000
    rng = replicate_stream(seed, *_TREE_STARTS_KEY)
    x0s = rng.uniform(-half, half, size=(n_tree, 1))
    tree = tree_batch(kernel, law, x0s, obs_times=[t], seed=seed,
                      weights={"psi": psi.evaluate}, p_two=p_two,
                      stream_key=106, threads=threads)
    q = 1.0 - np.exp(-tree.ok("psi")[:, 0])
    volume = 2.0 * half
    integral = volume * float(q.mean())
    rhs = math.exp(-integral)
    rhs_se = volume * float(q.std(ddof=1) / math.sqrt(len(q))) * rhs
    z = (lhs - rhs) / math.hypot(lhs_se, rhs_se)
    return rhs, lhs, z, "combined |z| <= 3", abs(z) <= 3.0


_CHECKS = {
    "stable_cf": _check_stable_cf,
    "density_closed_form": _check_density_closed_form,
    "self_similarity": _check_self_similarity,
    "renewal_exponential": _check_renewal_exponential,
    "renewal_heavy_tail": _check_renewal_heavy_tail,
    "elementary_renewal": _check_elementary_renewal,
    "poisson_counts": _check_poisson_counts,
    "criticality": _check_criticality,
    "occupation_mean_identity": _check_occupation_mean,
    "covariance_oracle": _check_covariance_oracle,
    "poissonization": _check_poissonization,
}


def run_validation_suite(seed: int = 0, *, p_two: float = 0.5,
                         checks: list | None = None,
                         threads: int = 1) -> list[CheckRow]:
    """Run the self-check battery; failures are rows, never exceptions.

    ``p_two`` is the probability of a binary split at death and exists
    to demonstrate fault detection: anything other than 0.5 breaks
    criticality and must trip the simulation-based checks.  ``checks``
    selects a subset by name (empty list: no checks).
    """
    names = tuple(_CHECKS) if checks is None else tuple(checks)
    unknown = [c for c in names if c not in _CHECKS]
    if unknown:
        raise ConfigError(
            f"unknown checks {unknown}; valid names: {tuple(_CHECKS)}"
        )
    return [CheckRow(name, *_CHECKS[name](seed, p_two, threads))
            for name in names]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))
CHECK_COLUMNS = tuple(f.name for f in fields(CheckRow))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(target, header, records) -> None:
    """A header and records as RFC-4180-style CSV (path or writable object)."""
    if not hasattr(target, "write"):
        with open(target, "w", newline="", encoding="utf-8") as fh:
            return write_table(fh, header, records)
    writer = csv.writer(target)
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in rec] for rec in records)
