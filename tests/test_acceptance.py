"""Acceptance gate: one test per acceptance criterion.

Each test emits a single PASS/FAIL line (replayed in the terminal
summary after the run) and asserts it.  Replicate counts, windows, and
seeds are frozen; every Monte Carlo budget was sized so the statistical
margins are comfortable (trend and slope checks sit at 4-6 SE), making
the frozen-seed outcomes stable.  The ladders of criteria 1-3 run on two
threads, which changes no output byte (chunk streams do not depend on the
thread count); the module takes a couple of minutes.

Criteria:
  1. mean identity of the rescaled occupation time in three regimes
  2. variance concentration with the predicted log-log decay slope
  3. vanishing ball-occupancy fraction in the local-extinction regime
  4. analytic covariance and tree second moment vs Monte Carlo
  5. renewal-function numerics (exact linear, heavy-tail and
     elementary-renewal asymptotics)
  6. stable-law correctness (characteristic function, closed forms,
     self-similarity)
  7. system invariants (criticality, Poisson counts, Poissonization,
     determinism, validation suite under three seeds)
"""

import io
import math
from dataclasses import astuple

import numpy as np
import pytest
from conftest import record_acceptance

from stablebranch import (
    Exponential,
    ExperimentConfig,
    Gamma,
    StableKernel,
    TestFunction,
    build_renewal,
    decay_exponent_prediction,
    make_pareto_tail,
    radial_fourier_inverse,
    replicate_stream,
    run_experiment,
    run_validation_suite,
    sample_increments,
    transition_density_radial,
    write_table,
)
from stablebranch.experiments import (
    RESULT_COLUMNS,
    fit_decay_slope,
    run_covariance_comparison,
    run_tree_moment_comparison,
)

pytestmark = pytest.mark.acceptance  # pytest -m "not acceptance" skips this module

EXP1 = Exponential(rate=1.0)


def report(criterion: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {criterion}: {verdict} - {detail}"
    print(line, flush=True)
    record_acceptance(line)
    assert passed, f"{criterion}: {detail}"


def bump(dim: int, radius: float = 1.0) -> TestFunction:
    return TestFunction(shape="bump", center=np.zeros(dim), radius=radius)


# ---------------------------------------------------------------------------
# 1. mean identity: E[T^{-1} <phi, J_T>] = <phi, Lambda> in every regime
# ---------------------------------------------------------------------------

MEAN_IDENTITY_CONFIGS = [
    # transient finite-mean migration: d=3, alpha=2, Exponential(1)
    ExperimentConfig(
        kind="mean_identity", kernel=StableKernel(alpha=2.0, dim=3), law=EXP1,
        horizons=(25.0, 50.0, 100.0), replicates=2000, phi=bump(3),
        half_side=3.0, obs_step=1.0, seed=101, label="mean-d3-a2-exp"),
    # heavy-tail intermediate regime: d=1, alpha=1.5, gamma=0.5
    ExperimentConfig(
        kind="lln_heavy_intermediate", kernel=StableKernel(alpha=1.5, dim=1),
        law=make_pareto_tail(0.5), horizons=(25.0, 50.0, 100.0),
        replicates=2000, phi=bump(1), half_side=8.0, obs_step=0.5, seed=102,
        label="mean-d1-a15-g05"),
    # local-extinction lifetimes: d=1, alpha=2, gamma=0.7 (the LLN regime
    # tags do not apply here, but the mean identity is exact regardless)
    ExperimentConfig(
        kind="mean_identity", kernel=StableKernel(alpha=2.0, dim=1),
        law=make_pareto_tail(0.7), horizons=(25.0, 50.0, 100.0),
        replicates=2000, phi=bump(1), half_side=6.0, obs_step=0.5, seed=103,
        label="mean-d1-a2-g07"),
]


@pytest.mark.parametrize("config", MEAN_IDENTITY_CONFIGS,
                         ids=lambda c: c.label)
def test_criterion_1_mean_identity(config):
    rows = run_experiment(config, threads=2)
    zs = [round(r.z, 2) for r in rows]
    ok = all(abs(r.z) <= 3.0 for r in rows) and all(
        r.replicates >= 2000 - r.aborted for r in rows)
    report(f"criterion 1 ({config.label})", ok,
           f"|z| <= 3 at T in {config.horizons}: z = {zs}")


# ---------------------------------------------------------------------------
# 2. variance concentration and decay slope
# ---------------------------------------------------------------------------


def _criterion_2(config, predicted):
    rows = run_experiment(config, threads=2)
    variances = [r.variance for r in rows]
    decreasing = all(a > b for a, b in zip(variances[:-1], variances[1:]))
    slope = fit_decay_slope(rows)
    bound = predicted + 0.15
    ok = decreasing and slope <= bound
    report(f"criterion 2 ({config.label})", ok,
           f"variances {[f'{v:.3g}' for v in variances]} strictly "
           f"decreasing: {decreasing}; slope {slope:.3f} <= {bound:.3f}")


def test_criterion_2_heavy_tail_concentration():
    assert decay_exponent_prediction(1, 1.5, 0.5) == pytest.approx(-1.0 / 6.0)
    config = ExperimentConfig(
        kind="lln_heavy_intermediate", kernel=StableKernel(alpha=1.5, dim=1),
        law=make_pareto_tail(0.5), horizons=(25.0, 50.0, 100.0, 200.0),
        replicates=4000, phi=bump(1), window_scale=2.0, obs_step=0.5,
        seed=201, label="decay-d1-a15-g05")
    _criterion_2(config, -1.0 / 6.0)


def test_criterion_2_finite_mean_concentration():
    assert decay_exponent_prediction(3, 2.0) == pytest.approx(-0.5)
    config = ExperimentConfig(
        kind="lln_finite_mean", kernel=StableKernel(alpha=2.0, dim=3),
        law=EXP1, horizons=(25.0, 50.0, 100.0, 200.0), replicates=500,
        phi=bump(3), window_scale=0.4, obs_step=1.0, seed=202,
        label="decay-d3-a2-exp")
    _criterion_2(config, -0.5)


# ---------------------------------------------------------------------------
# 3. subcritical occupancy trend
# ---------------------------------------------------------------------------


def test_criterion_3_occupancy_vanishes():
    config = ExperimentConfig(
        kind="occupancy_subcritical", kernel=StableKernel(alpha=2.0, dim=1),
        law=make_pareto_tail(0.7), horizons=(50.0, 800.0), replicates=1500,
        phi=TestFunction(shape="indicator", center=np.zeros(1), radius=1.0),
        window_scale=1.0,
        obs_step=0.5, seed=301, label="occupancy-d1-a2-g07")
    rows = run_experiment(config, threads=2)
    first, last = rows[0], rows[-1]
    sep_se = math.hypot(first.se, last.se)
    n_se = (first.mean - last.mean) / sep_se if sep_se > 0 else math.inf
    ok = all(r.passed for r in rows)
    report("criterion 3 (occupancy trend)", ok,
           f"mean fraction {first.mean:.4f} (T=50) -> {last.mean:.4f} "
           f"(T=800), separation {n_se:.1f} SE >= 3")


# ---------------------------------------------------------------------------
# 4. covariance and tree-moment oracles vs Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_4_covariance_oracle():
    rows = run_covariance_comparison(
        StableKernel(alpha=2.0, dim=1), EXP1, bump(1), bump(1),
        [(1.0, 1.0), (1.0, 2.0), (2.0, 4.0)], half_side=6.0,
        replicates=30000, seed=401)
    zs = [round(r["z"], 2) for r in rows]
    ok = all(r["passed"] for r in rows)
    report("criterion 4 (field covariance)", ok,
           f"|z| <= 3 at (s,t) pairs (1,1),(1,2),(2,4): z = {zs}")


def test_criterion_4_tree_second_moment():
    out = run_tree_moment_comparison(
        StableKernel(alpha=2.0, dim=1), EXP1, [0.0], 1.0, 2.0, bump(1),
        bump(1), replicates=60000, seed=402)
    report("criterion 4 (tree second moment)", out["passed"],
           f"analytic {out['analytic']:.5f} vs MC {out['mc_estimate']:.5f} "
           f"+- {out['mc_se']:.5f} (z = {out['z']:.2f})")


# ---------------------------------------------------------------------------
# 5. renewal-function numerics
# ---------------------------------------------------------------------------


def test_criterion_5_renewal_numerics():
    exp_table = build_renewal(EXP1, 100.0, 0.005)
    exp_err = float(np.max(np.abs(exp_table.values - (1.0 + exp_table.grid))))

    heavy = build_renewal(make_pareto_tail(0.5), 10000.0, 0.25)
    ratio = heavy.value(1e4) * 1e4 ** -0.5 * math.gamma(1.5)

    gamma_table = build_renewal(Gamma(shape=2.0, rate=2.0), 500.0, 0.02)
    elem_rel = abs(gamma_table.value(500.0) / 500.0 - 1.0)  # 1/mean = 1

    ok = exp_err < 1e-3 and 0.95 <= ratio <= 1.05 and elem_rel <= 0.05
    report("criterion 5 (renewal numerics)", ok,
           f"exp max err {exp_err:.2e} < 1e-3; heavy-tail ratio "
           f"{ratio:.4f} in [0.95, 1.05]; elementary-renewal rel "
           f"{elem_rel:.4f} <= 0.05")


# ---------------------------------------------------------------------------
# 6. stable-law correctness
# ---------------------------------------------------------------------------


def test_criterion_6_characteristic_functions():
    freqs = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    n = 200_000
    worst = 0.0
    for i, (alpha, dim) in enumerate([(2.0, 1), (1.0, 1), (1.5, 2), (0.8, 1)]):
        kernel = StableKernel(alpha=alpha, dim=dim)
        rng = replicate_stream(601, i)
        proj = sample_increments(kernel, np.full(n, 1.0), rng)[:, 0]
        for y in freqs:
            c = np.cos(y * proj)
            target = math.exp(-(y ** alpha))
            z = (c.mean() - target) / (c.std(ddof=1) / math.sqrt(n))
            worst = max(worst, abs(z))
    report("criterion 6 (characteristic functions)", worst <= 3.0,
           f"worst |z| over 4 laws x 5 frequencies = {worst:.2f} <= 3")


def test_criterion_6_closed_form_densities():
    radii = np.linspace(0.0, 6.0, 25)
    worst = 0.0
    for t in (0.5, 2.0):
        for d in (1, 2, 3):
            gauss = (4.0 * math.pi * t) ** (-d / 2.0) * np.exp(
                -radii ** 2 / (4.0 * t))
            cauchy = (math.gamma((d + 1) / 2.0) / math.pi ** ((d + 1) / 2.0)
                      * t / (t * t + radii ** 2) ** ((d + 1) / 2.0))
            for alpha, exact in ((2.0, gauss), (1.0, cauchy)):
                kernel = StableKernel(alpha=alpha, dim=d)
                got = transition_density_radial(kernel, t, radii)
                worst = max(worst, float(np.max(np.abs(got - exact))))
                # independently drive the generic Fourier-inversion route
                # (the library serves these alphas from closed forms)
                inverted = radial_fourier_inverse(
                    lambda k: np.exp(-t * k ** alpha), d, radii,
                    k_max=(40.0 / t if alpha == 1.0 else 10.0 / math.sqrt(t)))
                worst = max(worst, float(np.max(np.abs(inverted - exact))))
    report("criterion 6 (closed-form densities)", worst <= 1e-6,
           f"max abs deviation over alpha in {{1, 2}}, d in {{1,2,3}}, both "
           f"routes = {worst:.2e} <= 1e-6")


def test_criterion_6_self_similarity():
    worst = 0.0
    radii = np.linspace(0.0, 4.0, 17)
    for alpha, d in ((1.5, 1), (1.5, 2), (0.8, 1)):
        kernel = StableKernel(alpha=alpha, dim=d)
        for t in (0.7, 2.0):
            scale = t ** (1.0 / alpha)
            left = transition_density_radial(kernel, t, radii)
            right = scale ** -d * transition_density_radial(
                kernel, 1.0, radii / scale)
            rel = np.max(np.abs(left - right) / np.maximum(right, 1e-300))
            worst = max(worst, float(rel))
    report("criterion 6 (self-similarity)", worst <= 1e-6,
           f"worst relative deviation = {worst:.2e} <= 1e-6")


# ---------------------------------------------------------------------------
# 7. system invariants
# ---------------------------------------------------------------------------


def test_criterion_7_engine_invariants():
    rows = run_validation_suite(
        seed=0, checks=["criticality", "poisson_counts", "poissonization"])
    parts = {r.name: r for r in rows}
    ok = all(r.passed for r in rows)
    report("criterion 7 (engine invariants)", ok,
           "criticality z = {:.2f}, poisson z = {:.2f}, "
           "poissonization z = {:.2f}, all within combined-3-SE gates".format(
               parts["criticality"].z, parts["poisson_counts"].z,
               parts["poissonization"].z))


def test_criterion_7_determinism():
    config = ExperimentConfig(
        kind="mean_identity", kernel=StableKernel(alpha=2.0, dim=1), law=EXP1,
        horizons=(5.0, 10.0), replicates=200, phi=bump(1), half_side=2.0,
        obs_step=0.5, seed=7)
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        write_table(buf, RESULT_COLUMNS, [astuple(r) for r in run_experiment(config)])
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report("criterion 7 (determinism)", ok,
           "identical config and seed produce byte-identical CSV reports")


def test_criterion_7_validation_suite_three_seeds():
    failures = {}
    for seed in (0, 1, 2):
        rows = run_validation_suite(seed)
        bad = [r.name for r in rows if not r.passed]
        if bad:
            failures[seed] = bad
    report("criterion 7 (validation suite)", not failures,
           f"all 11 checks pass under seeds 0, 1, 2 "
           f"(failures: {failures or 'none'})")
