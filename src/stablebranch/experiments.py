"""Batch experiments and the statistical validation suite.

Three layers:

* regime-gated experiment runners (`run_lln_experiment`,
  `run_occupancy_experiment`) that simulate a horizon ladder and report
  one `ResultRow` per horizon;
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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RegimeError
from .fastsim import (
    DEFAULT_POPULATION_CAP,
    field_batch,
    obs_grid,
    replicate_stream,
    tree_batch,
)
from .lifetimes import Exponential, Gamma, LifetimeLaw, make_pareto_tail
from .moments import (
    CovarianceSpec,
    classify_regime,
    decay_exponent_prediction,
    field_covariance,
    tree_second_moment,
)
from .occupation import Ball, TestFunction, lebesgue_integral
from .renewal import RenewalTable, build_renewal, elementary_renewal_check
from .stable_motion import (
    StableKernel,
    radial_fourier_inverse,
    sample_increments,
    transition_density_radial,
)

EXPERIMENT_KINDS = (
    "lln_heavy_intermediate",
    "lln_heavy_large_d",
    "lln_finite_mean",
    "occupancy_subcritical",
    "mean_identity",
)

_AUX = 1 << 31  # stream indices for auxiliary draws, clear of chunk keys


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a regime tag, a system, and a horizon ladder."""

    kind: str
    kernel: StableKernel
    law: LifetimeLaw
    horizons: tuple
    replicates: int
    phi: TestFunction | None = None
    ball: Ball | None = None
    half_side: float | None = None
    window_scale: float = 1.0
    obs_step: float = 0.5
    seed: int = 0
    intensity: float = 1.0
    population_cap: int = DEFAULT_POPULATION_CAP
    threads: int = 1
    label: str = ""

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment kind {self.kind!r}; expected one of "
                f"{EXPERIMENT_KINDS}"
            )
        horizons = tuple(float(h) for h in self.horizons)
        object.__setattr__(self, "horizons", horizons)
        if not horizons or any(h <= 0 for h in horizons):
            raise ConfigError("horizons must be a nonempty list of positive times")
        if list(horizons) != sorted(horizons):
            raise ConfigError("horizons must be increasing")
        if self.replicates < 2:
            raise ConfigError("need at least 2 replicates")
        if self.obs_step <= 0:
            raise ConfigError("obs_step must be positive")
        for h in horizons:
            try:
                obs_grid(h, self.obs_step)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if self.kind == "occupancy_subcritical":
            if self.ball is None:
                raise ConfigError("occupancy experiments need a target ball")
        elif self.phi is None:
            raise ConfigError(f"{self.kind} experiments need a test function phi")
        if self.half_side is not None and self.half_side <= 0:
            raise ConfigError("half_side must be positive")
        if self.half_side is None and self.window_scale <= 0:
            raise ConfigError("window_scale must be positive")
        if self.intensity < 0:
            raise ConfigError("intensity must be nonnegative")
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


_REGIME_OF_KIND = {
    "lln_finite_mean": ("finite_mean", "transient migration d > alpha"),
    "lln_heavy_intermediate": ("heavy_intermediate", "alpha*gamma < d < 2*alpha"),
    "lln_heavy_large_d": ("heavy_large_d", "d >= 2*alpha"),
    "occupancy_subcritical": ("local_extinction",
                              "d < alpha*gamma (local extinction)"),
}


def check_regime(kind: str, kernel: StableKernel, law: LifetimeLaw) -> None:
    """Refuse experiment tags whose hypotheses the parameters violate."""
    if kind == "mean_identity":
        return
    if kind not in _REGIME_OF_KIND:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    regime, hypothesis = _REGIME_OF_KIND[kind]
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
    return config.window_scale * horizon ** (1.0 / config.kernel.alpha)


def predicted_decay_exponent(config: ExperimentConfig) -> float | None:
    """Decay-slope target for the config's regime, when one exists."""
    d, a = config.kernel.dim, config.kernel.alpha
    if config.kind == "lln_heavy_intermediate":
        return decay_exponent_prediction(d, a, gamma=config.law.gamma)
    if config.kind == "lln_finite_mean":
        return decay_exponent_prediction(d, a)
    return None


def run_lln_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Rescaled-occupation mean test per horizon, with variance columns.

    For each horizon T: simulate the field, form T^{-1} <phi, J_T> per
    replicate by trapezoid over the observation grid, and report its
    mean against <phi, Lambda>.  The replicate variance column feeds the
    decay-slope diagnostics.
    """
    if config.kind == "occupancy_subcritical":
        raise ConfigError("use run_occupancy_experiment for occupancy configs")
    check_regime(config.kind, config.kernel, config.law)
    phi = config.phi
    target = lebesgue_integral(phi)
    rows = []
    for ti, horizon in enumerate(config.horizons):
        obs = obs_grid(horizon, config.obs_step)
        batch = field_batch(
            config.kernel, config.law, replicates=config.replicates,
            obs_times=obs, half_side=window_half_side(config, horizon),
            seed=config.seed, intensity=config.intensity,
            weights={"phi": phi.evaluate},
            population_cap=config.population_cap, stream_key=ti + 1,
            threads=config.threads,
        )
        series = batch.ok("phi")
        occ = np.trapezoid(series, obs, axis=1) / horizon
        n = len(occ)
        mean = float(occ.mean())
        se = float(occ.std(ddof=1) / math.sqrt(n))
        z = _zscore(mean, se, target)
        rows.append(ResultRow(
            experiment=config.label, regime=config.kind, horizon=horizon,
            replicates=n, mean=mean, se=se, target=float(target), z=z,
            passed=abs(z) <= 3.0, variance=float(occ.var(ddof=1)),
            aborted=int(batch.aborted.sum()),
        ))
    return rows


def fit_decay_slope(rows: list[ResultRow]) -> float:
    """Least-squares slope of log replicate variance against log horizon."""
    h = np.array([r.horizon for r in rows], dtype=float)
    v = np.array([r.variance for r in rows], dtype=float)
    if len(h) < 2 or np.any(v <= 0):
        raise ValueError("need >= 2 rows with positive variance columns")
    return float(np.polyfit(np.log(h), np.log(v), 1)[0])


def run_occupancy_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Mean occupied-time fraction of a ball per horizon.

    The pass flag (same on every row) is the trend criterion: strictly
    decreasing means along the ladder with at least 3 combined SE
    separating the first and last horizons.
    """
    if config.kind != "occupancy_subcritical":
        raise ConfigError("run_occupancy_experiment needs an occupancy config")
    check_regime(config.kind, config.kernel, config.law)
    ball = config.ball
    l_min = min(window_half_side(config, h) for h in config.horizons)
    if np.max(np.abs(np.asarray(ball.center, dtype=float))) + ball.radius >= l_min:
        raise ConfigError(
            f"target ball must sit inside the smallest window "
            f"(half side {l_min:g})"
        )

    stats = []
    for ti, horizon in enumerate(config.horizons):
        obs = obs_grid(horizon, config.obs_step)
        batch = field_batch(
            config.kernel, config.law, replicates=config.replicates,
            obs_times=obs, half_side=window_half_side(config, horizon),
            seed=config.seed, intensity=config.intensity,
            weights={"ball": lambda p: ball.contains(p).astype(float)},
            population_cap=config.population_cap, stream_key=ti + 1,
            threads=config.threads,
        )
        occupied = (batch.ok("ball") > 0).astype(float)
        frac = np.trapezoid(occupied, obs, axis=1) / horizon
        n = len(frac)
        mean = float(frac.mean())
        se = float(frac.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        stats.append((horizon, n, mean, se, int(batch.aborted.sum())))

    means = [s[2] for s in stats]
    decreasing = all(a > b for a, b in zip(means[:-1], means[1:]))
    sep = means[0] - means[-1]
    sep_se = math.hypot(stats[0][3], stats[-1][3])
    trend = decreasing and sep >= 3.0 * sep_se
    return [
        ResultRow(
            experiment=config.label, regime=config.kind, horizon=h,
            replicates=n, mean=mean, se=se, target=0.0,
            z=_zscore(mean, se, 0.0), passed=trend, variance=None,
            aborted=aborted,
        )
        for h, n, mean, se, aborted in stats
    ]


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Dispatch a config to the matching runner."""
    if config.kind == "occupancy_subcritical":
        return run_occupancy_experiment(config)
    return run_lln_experiment(config)


# ---------------------------------------------------------------------------
# Analytic-vs-Monte-Carlo comparisons
# ---------------------------------------------------------------------------


def _cov_and_se(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Sample covariance and its influence-function standard error."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    resid = (a - a.mean()) * (b - b.mean())
    cov = float(resid.sum() / (n - 1))
    se = float(resid.std(ddof=1) / math.sqrt(n))
    return cov, se


def default_renewal_table(law: LifetimeLaw, horizon: float) -> RenewalTable:
    """Renewal table sized for moment formulas up to ``horizon``."""
    step = min(0.01, horizon / 512)
    return build_renewal(law, horizon * 1.02 + step, step)


def run_covariance_comparison(kernel: StableKernel, law: LifetimeLaw,
                              phi: TestFunction, psi: TestFunction, pairs, *,
                              half_side: float, replicates: int, seed: int,
                              table: RenewalTable | None = None,
                              n_images: int = 1, p_two: float = 0.5,
                              stream_key: int = 200,
                              threads: int = 1) -> list[dict]:
    """MC field covariance vs the analytic formula at (s, t) pairs.

    Returns one dict per pair with keys s, t, analytic, mc_estimate,
    mc_se, z, passed (|z| <= 3).  The analytic side includes the
    window's periodic images so both sides describe the same torus
    system.
    """
    pairs = [(float(s), float(t)) for s, t in pairs]
    for s, t in pairs:
        if not 0 <= s <= t:
            raise ValueError("pairs must satisfy 0 <= s <= t")
    tmax = max(t for _, t in pairs)
    if table is None:
        table = default_renewal_table(law, tmax)
    obs = np.unique(np.array([0.0] + [s for s, _ in pairs] + [t for _, t in pairs]))
    batch = field_batch(
        kernel, law, replicates=replicates, obs_times=obs,
        half_side=half_side, seed=seed,
        weights={"phi": phi.evaluate, "psi": psi.evaluate},
        p_two=p_two, stream_key=stream_key, threads=threads,
    )
    sa = batch.ok("phi")
    sb = batch.ok("psi")
    out = []
    for s, t in pairs:
        i = int(np.searchsorted(obs, s))
        j = int(np.searchsorted(obs, t))
        mc, se = _cov_and_se(sa[:, i], sb[:, j])
        spec = CovarianceSpec(kernel, table, phi, psi, s, t)
        analytic = field_covariance(spec, torus_half_side=half_side,
                                    n_images=n_images)
        z = _zscore(mc, se, analytic)
        out.append({
            "s": s, "t": t, "analytic": analytic, "mc_estimate": mc,
            "mc_se": se, "z": z, "passed": abs(z) <= 3.0,
        })
    return out


def run_tree_moment_comparison(kernel: StableKernel, law: LifetimeLaw, x0,
                               s: float, t: float, phi: TestFunction,
                               psi: TestFunction, *, replicates: int,
                               seed: int, table: RenewalTable | None = None,
                               stream_key: int = 220,
                               threads: int = 1) -> dict:
    """MC single-tree product moment E[<phi,Z_s><psi,Z_t>] vs analytic."""
    if not 0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    if table is None:
        table = default_renewal_table(law, max(s, 1e-3))
    x0 = np.asarray(x0, dtype=float)
    obs = np.unique(np.array([s, t]))
    batch = tree_batch(
        kernel, law, np.tile(x0, (replicates, 1)), obs_times=obs,
        seed=seed, weights={"phi": phi.evaluate, "psi": psi.evaluate},
        stream_key=stream_key, threads=threads,
    )
    i = int(np.searchsorted(obs, s))
    j = int(np.searchsorted(obs, t))
    prod = batch.ok("phi")[:, i] * batch.ok("psi")[:, j]
    mc = float(prod.mean())
    se = float(prod.std(ddof=1) / math.sqrt(len(prod)))
    analytic = tree_second_moment(kernel, table, x0, s, t, phi, psi)
    z = _zscore(mc, se, analytic)
    return {
        "s": s, "t": t, "analytic": analytic, "mc_estimate": mc, "mc_se": se,
        "z": z, "passed": abs(z) <= 3.0,
    }


# ---------------------------------------------------------------------------
# Validation suite
# ---------------------------------------------------------------------------

VALIDATION_CHECKS = (
    "stable_cf",
    "density_closed_form",
    "self_similarity",
    "renewal_exponential",
    "renewal_heavy_tail",
    "elementary_renewal",
    "poisson_counts",
    "criticality",
    "occupation_mean_identity",
    "covariance_oracle",
    "poissonization",
)


def _check_stable_cf(seed, p_two, threads):
    kernel = StableKernel(alpha=1.5, dim=2)
    rng = replicate_stream(seed, _AUX + 1)
    x = sample_increments(kernel, np.full(200_000, 2.0), rng)
    vals = np.cos(x[:, 0])
    target = math.exp(-2.0)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    z = _zscore(mean, se, target)
    return CheckRow("stable_cf", target, mean, z, "|z| <= 3", abs(z) <= 3.0)


def _check_density_closed_form(seed, p_two, threads):
    gaps = []
    # alpha = 2: heat kernel, peak (4 pi t)^(-1/2) at t = 1
    k2 = StableKernel(alpha=2.0, dim=1)
    d0 = transition_density_radial(k2, 1.0, [0.0, 0.7])
    exact2 = (4.0 * math.pi) ** -0.5 * np.exp(-np.array([0.0, 0.7]) ** 2 / 4.0)
    gaps.append(np.max(np.abs(d0 - exact2)))
    quad2 = radial_fourier_inverse(lambda k: np.exp(-(k**2)), 1, [0.0, 0.7], 8.0)
    gaps.append(np.max(np.abs(quad2 - exact2)))
    # alpha = 1: Cauchy kernel, peak 1/pi at t = 1
    k1 = StableKernel(alpha=1.0, dim=1)
    d1 = transition_density_radial(k1, 1.0, [0.0, 0.7])
    exact1 = 1.0 / (math.pi * (1.0 + np.array([0.0, 0.7]) ** 2))
    gaps.append(np.max(np.abs(d1 - exact1)))
    quad1 = radial_fourier_inverse(lambda k: np.exp(-k), 1, [0.0, 0.7], 30.0)
    gaps.append(np.max(np.abs(quad1 - exact1)))
    est = float(max(gaps))
    return CheckRow("density_closed_form", 0.0, est, est / 1e-6,
                    "abs error < 1e-6", est < 1e-6)


def _check_self_similarity(seed, p_two, threads):
    kernel = StableKernel(alpha=1.5, dim=1)
    t, r = 0.7, 0.9
    a = float(transition_density_radial(kernel, t, [r])[0])
    scale = t ** (-1.0 / 1.5)
    b = scale * float(transition_density_radial(kernel, 1.0, [scale * r])[0])
    est = abs(a - b) / abs(b)
    return CheckRow("self_similarity", 0.0, est, est / 1e-6,
                    "rel error < 1e-6", est < 1e-6)


def _check_renewal_exponential(seed, p_two, threads):
    table = build_renewal(Exponential(rate=1.0), 10.0, 0.005)
    est = float(np.max(np.abs(table.values - (1.0 + table.grid))))
    return CheckRow("renewal_exponential", 0.0, est, est / 1e-3,
                    "abs error < 1e-3", est < 1e-3)


def _check_renewal_heavy_tail(seed, p_two, threads):
    gamma = 0.5
    t = 2000.0
    table = build_renewal(make_pareto_tail(gamma), t, 0.25)
    ratio = float(table.value(t) * t ** (-gamma) * math.gamma(1.0 + gamma))
    gap = abs(ratio - 1.0)
    return CheckRow("renewal_heavy_tail", 1.0, ratio, gap / 0.1,
                    "ratio in [0.9, 1.1]", gap <= 0.1)


def _check_elementary_renewal(seed, p_two, threads):
    ratio, limit, rel = elementary_renewal_check(Gamma(shape=2.0, rate=2.0),
                                                 200.0, grid_step=0.02)
    return CheckRow("elementary_renewal", limit, ratio, rel / 0.05,
                    "rel error < 5%", rel < 0.05)


def _check_poisson_counts(seed, p_two, threads):
    kernel = StableKernel(alpha=2.0, dim=1)
    batch = field_batch(
        kernel, Exponential(rate=1.0), replicates=5000, obs_times=[0.0, 0.5],
        half_side=4.0, seed=seed, p_two=p_two, stream_key=101, threads=threads,
    )
    counts = batch.initial_counts.astype(float)
    n = len(counts)
    mean_target = 8.0
    m = float(counts.mean())
    z_mean = _zscore(m, float(counts.std(ddof=1) / math.sqrt(n)), mean_target)
    s2 = float(counts.var(ddof=1))
    se_var = math.sqrt((m + 2.0 * m * m) / n)
    z_fano = (s2 - m) / se_var
    z = max(abs(z_mean), abs(z_fano))
    return CheckRow("poisson_counts", 1.0, s2 / m, z,
                    "mean and Fano |z| <= 3", z <= 3.0)


def _check_criticality(seed, p_two, threads):
    kernel = StableKernel(alpha=2.0, dim=1)
    obs = np.linspace(0.0, 5.0, 6)
    batch = field_batch(
        kernel, Exponential(rate=1.0), replicates=3000, obs_times=obs,
        half_side=5.0, seed=seed, p_two=p_two, stream_key=102, threads=threads,
    )
    counts = batch.ok("count")
    drift = counts[:, -1] - counts[:, 0]
    mean = float(drift.mean())
    se = float(drift.std(ddof=1) / math.sqrt(len(drift)))
    z = _zscore(mean, se, 0.0)
    return CheckRow("criticality", 0.0, mean, z, "|z| <= 3", abs(z) <= 3.0)


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
    mean = float(occ.mean())
    se = float(occ.std(ddof=1) / math.sqrt(len(occ)))
    z = _zscore(mean, se, target)
    return CheckRow("occupation_mean_identity", float(target), mean, z,
                    "|z| <= 3", abs(z) <= 3.0)


def _check_covariance_oracle(seed, p_two, threads):
    kernel = StableKernel(alpha=2.0, dim=1)
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
    rows = run_covariance_comparison(
        kernel, Exponential(rate=1.0), phi, phi, [(1.0, 2.0)], half_side=6.0,
        replicates=30_000, seed=seed, p_two=p_two, stream_key=104,
        threads=threads,
    )
    row = rows[0]
    return CheckRow("covariance_oracle", row["analytic"], row["mc_estimate"],
                    row["z"], "|z| <= 3", row["passed"])


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
    rng = replicate_stream(seed, _AUX + 2)
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
    return CheckRow("poissonization", rhs, lhs, z, "combined |z| <= 3",
                    abs(z) <= 3.0)


_CHECK_FUNCS = {
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
    if checks is None:
        names = VALIDATION_CHECKS
    else:
        unknown = [c for c in checks if c not in _CHECK_FUNCS]
        if unknown:
            raise ConfigError(
                f"unknown checks {unknown}; valid names: {VALIDATION_CHECKS}"
            )
        names = tuple(checks)
    return [_CHECK_FUNCS[name](seed, p_two, threads) for name in names]


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

RESULT_COLUMNS = ("experiment", "regime", "horizon", "replicates", "mean",
                  "se", "target", "z", "passed", "variance", "aborted")
CHECK_COLUMNS = ("name", "target", "estimate", "z", "tolerance", "passed")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_table(target, header, records) -> None:
    if hasattr(target, "write"):
        writer = csv.writer(target)
        writer.writerow(header)
        for rec in records:
            writer.writerow([_fmt(v) for v in rec])
        return
    with open(target, "w", newline="", encoding="utf-8") as fh:
        _write_table(fh, header, records)


def write_result_rows(target, rows: list) -> None:
    """Result rows as RFC-4180-style CSV (path or writable object)."""
    _write_table(target, RESULT_COLUMNS,
                 [[getattr(r, c) for c in RESULT_COLUMNS] for r in rows])


def write_check_rows(target, rows: list) -> None:
    """Check rows as RFC-4180-style CSV (path or writable object)."""
    _write_table(target, CHECK_COLUMNS,
                 [[getattr(r, c) for c in CHECK_COLUMNS] for r in rows])
