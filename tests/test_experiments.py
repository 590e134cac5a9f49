"""Tests for the experiment drivers, regime gates, and report tables."""

import io
from dataclasses import astuple

import numpy as np
import pytest

from stablebranch import (
    CheckRow,
    ConfigError,
    Exponential,
    ExperimentConfig,
    Gamma,
    ParetoTail,
    RegimeError,
    ResultRow,
    StableKernel,
    TestFunction,
    build_renewal,
    field_batch,
    lebesgue_integral,
    make_pareto_tail,
    obs_grid,
    run_experiment,
    run_validation_suite,
    write_table,
)
from stablebranch import experiments
from stablebranch.experiments import (
    CHECK_COLUMNS,
    RESULT_COLUMNS,
    check_regime,
    fit_decay_slope,
    pair_grid,
    run_covariance_comparison,
    run_tree_moment_comparison,
    window_half_side,
)

EXP1 = Exponential(rate=1.0)
PARETO_HALF = make_pareto_tail(0.5)
BUMP_1D = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)


def ball(center, radius):
    """Occupancy target: the indicator of a closed ball."""
    return TestFunction(shape="indicator", center=center, radius=radius)


def kernel(alpha, dim):
    return StableKernel(alpha=alpha, dim=dim)


# ---------------------------------------------------------------------------
# regime gates
# ---------------------------------------------------------------------------


def test_mean_identity_is_never_gated():
    check_regime("mean_identity", kernel(2.0, 1), EXP1)
    check_regime("mean_identity", kernel(1.5, 3), PARETO_HALF)


def test_finite_mean_gate():
    check_regime("lln_finite_mean", kernel(2.0, 3), EXP1)
    check_regime("lln_finite_mean", kernel(1.5, 2), Gamma(shape=2.0, rate=2.0))
    with pytest.raises(RegimeError, match="finite-mean"):
        check_regime("lln_finite_mean", kernel(2.0, 3), PARETO_HALF)
    with pytest.raises(RegimeError, match="boundary"):
        check_regime("lln_finite_mean", kernel(2.0, 2), EXP1)
    with pytest.raises(RegimeError, match="transient"):
        check_regime("lln_finite_mean", kernel(2.0, 1), EXP1)


def test_heavy_intermediate_gate():
    check_regime("lln_heavy_intermediate", kernel(1.5, 1), PARETO_HALF)
    check_regime("lln_heavy_intermediate", kernel(2.0, 2),
                 make_pareto_tail(0.7))
    with pytest.raises(RegimeError, match="ParetoTail"):
        check_regime("lln_heavy_intermediate", kernel(1.5, 1), EXP1)
    with pytest.raises(RegimeError, match="boundary"):
        check_regime("lln_heavy_intermediate", kernel(2.0, 1), PARETO_HALF)
    with pytest.raises(RegimeError, match="alpha\\*gamma < d"):
        check_regime("lln_heavy_intermediate", kernel(2.0, 1),
                     make_pareto_tail(0.9))
    with pytest.raises(RegimeError, match="alpha\\*gamma < d"):
        check_regime("lln_heavy_intermediate", kernel(2.0, 4), PARETO_HALF)


def test_heavy_large_d_gate():
    check_regime("lln_heavy_large_d", kernel(2.0, 4), PARETO_HALF)
    check_regime("lln_heavy_large_d", kernel(1.5, 3), PARETO_HALF)
    with pytest.raises(RegimeError, match="d >= 2\\*alpha"):
        check_regime("lln_heavy_large_d", kernel(2.0, 3), PARETO_HALF)
    with pytest.raises(RegimeError, match="ParetoTail"):
        check_regime("lln_heavy_large_d", kernel(2.0, 4), EXP1)


def test_occupancy_gate():
    check_regime("occupancy_subcritical", kernel(2.0, 1),
                 make_pareto_tail(0.7))
    with pytest.raises(RegimeError, match="boundary"):
        check_regime("occupancy_subcritical", kernel(2.0, 1), PARETO_HALF)
    with pytest.raises(RegimeError, match="local"):
        check_regime("occupancy_subcritical", kernel(1.5, 1), PARETO_HALF)
    with pytest.raises(RegimeError, match="ParetoTail"):
        check_regime("occupancy_subcritical", kernel(2.0, 1), EXP1)


# ---------------------------------------------------------------------------
# config validation and derived quantities
# ---------------------------------------------------------------------------


def _config(**overrides):
    base = dict(kind="mean_identity", kernel=kernel(2.0, 1), law=EXP1,
                horizons=(1.0, 2.0), replicates=50, phi=BUMP_1D,
                half_side=2.0, obs_step=0.5, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("key,value", [
    ("seed", -1), ("seed", 1.5), ("seed", True), ("seed", "3"),
    ("replicates", 2.5), ("replicates", True), ("replicates", np.float64(50.0))])
def test_config_refuses_a_seed_or_replicates_that_is_not_a_count(key, value):
    """seed = -1, 1.5 and True and replicates = 2.5 used to be accepted; the
    first two then failed inside a chunk with numpy's messages."""
    with pytest.raises(ConfigError, match=f"{key} must be an integer >= "):
        _config(**{key: value})


def test_experiment_config_validation():
    _config()  # the base dict is valid
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        _config(kind="lln_sideways")
    with pytest.raises(ConfigError, match="horizons"):
        _config(horizons=())
    with pytest.raises(ConfigError, match="horizons"):
        _config(horizons=(1.0, -2.0))
    with pytest.raises(ConfigError, match="increasing"):
        _config(horizons=(2.0, 1.0))
    with pytest.raises(ConfigError, match="replicates"):
        _config(replicates=1)
    with pytest.raises(ConfigError, match="multiple of obs_step"):
        _config(horizons=(1.0, 2.3))
    _config(replicates=np.int32(50), seed=np.uint64(3))  # numpy integers pass
    with pytest.raises(ConfigError, match="test function"):
        _config(phi=None)
    with pytest.raises(ConfigError, match="test function"):
        _config(kind="occupancy_subcritical", phi=None)
    with pytest.raises(ConfigError, match="indicator"):
        _config(kind="occupancy_subcritical", phi=BUMP_1D)
    with pytest.raises(ConfigError, match="half_side"):
        _config(half_side=-1.0)
    with pytest.raises(ConfigError, match="window_scale"):
        _config(half_side=None, window_scale=0.0)
    with pytest.raises(ConfigError, match="intensity"):
        _config(intensity=-0.5)
    # every kind: a phi spilling out of the window would be summed as a
    # different function, with a different <phi, Lambda>
    with pytest.raises(ConfigError, match="smallest window"):
        _config(phi=TestFunction("bump", np.array([1.5]), 1.0))
    # migration-scaled: the smallest window, 1 * 1^(1/2), is too small
    with pytest.raises(ConfigError, match="smallest window"):
        _config(kind="lln_finite_mean", half_side=None, window_scale=1.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make,name", [
    (lambda: Exponential(rate=NAN), "rate"),
    (lambda: Exponential(rate=INF), "rate"),
    (lambda: Gamma(shape=NAN, rate=1.0), "shape"),
    (lambda: ParetoTail(0.5, scale=NAN), "scale"),
    (lambda: TestFunction("bump", [0.0], NAN), "radius"),
    (lambda: TestFunction("bump", [0.0], INF), "radius"),
    (lambda: TestFunction("bump", [NAN], 1.0), "center"),
    (lambda: StableKernel(alpha=1.5, dim=True), "dim"),
    (lambda: StableKernel(alpha=1.5, dim=1.0), "dim"),
    (lambda: _config(half_side=NAN), "half_side"),
    (lambda: _config(half_side=None, window_scale=NAN), "window_scale"),
    (lambda: _config(intensity=NAN), "intensity"),
    (lambda: build_renewal(EXP1, INF, 0.1), "horizon"),
    (lambda: build_renewal(EXP1, NAN, 0.1), "horizon"),
    (lambda: build_renewal(EXP1, 10.0, NAN), "grid_step"),
], ids=["exp-rate-nan", "exp-rate-inf", "gamma-shape-nan", "pareto-scale-nan",
        "radius-nan", "radius-inf", "center-nan", "dim-bool", "dim-float",
        "half_side-nan", "window_scale-nan", "intensity-nan", "renewal-horizon-inf",
        "renewal-horizon-nan", "renewal-grid_step-nan"])
def test_constructors_refuse_nan_and_infinity_by_name(make, name):
    """Each of these used to be accepted, or refused with an OverflowError
    or numpy's "cannot convert float NaN to integer"."""
    with pytest.raises((ValueError, ConfigError), match=name):
        make()


def test_experiment_config_label_defaults_to_kind():
    assert _config().label == "mean_identity"
    assert _config(label="run-7").label == "run-7"


def test_window_half_side():
    fixed = _config(half_side=3.5)
    assert window_half_side(fixed, 100.0) == 3.5
    scaled = _config(half_side=None, window_scale=2.0)
    assert window_half_side(scaled, 16.0) == pytest.approx(8.0)  # 2 * 16^(1/2)
    cauchy = ExperimentConfig(kind="mean_identity", kernel=kernel(1.0, 1),
                              law=EXP1, horizons=(4.0,), replicates=10,
                              phi=BUMP_1D, window_scale=1.5, obs_step=0.5)
    assert window_half_side(cauchy, 4.0) == pytest.approx(6.0)  # 1.5 * 4


# ---------------------------------------------------------------------------
# LLN runner
# ---------------------------------------------------------------------------


def test_lln_runner_rows_and_determinism():
    cfg = _config(replicates=300)
    rows = run_experiment(cfg)
    assert [r.horizon for r in rows] == [1.0, 2.0]
    target = lebesgue_integral(BUMP_1D)
    for r in rows:
        assert r.experiment == "mean_identity"
        assert r.regime == "mean_identity"
        assert r.replicates == 300 - r.aborted
        assert r.target == pytest.approx(target)
        assert r.se > 0 and r.variance > 0
        # the z column is recomputable from the stats columns
        assert r.z == pytest.approx((r.mean - r.target) / r.se)
        assert r.passed == (abs(r.z) <= 3.0)
    assert run_experiment(cfg) == rows  # frozen seed => frozen report


def _rows_by_field_batch(config):
    """run_experiment's statistics from one field_batch per horizon, in
    ladder order on one thread: the oracle for the pooled ladder."""
    out = []
    for ti, horizon in enumerate(config.horizons):
        obs = obs_grid(horizon, config.obs_step)
        batch = field_batch(
            config.kernel, config.law, replicates=config.replicates,
            obs_times=obs, half_side=window_half_side(config, horizon),
            seed=config.seed, intensity=config.intensity,
            weights={"phi": config.phi.evaluate}, stream_key=ti + 1)
        avg = np.trapezoid(batch.ok("phi"), obs, axis=1) / horizon
        out.append((horizon, len(avg), float(avg.mean()),
                    float(avg.var(ddof=1)), int(batch.aborted.sum())))
    return out


def test_pooled_ladder_changes_no_bytes(chunk_counts):
    """Every chunk of every horizon goes to one pool; the rows are the same
    at 1, 2 and 3 threads and equal a plain per-horizon loop."""
    cfg = _config(replicates=400, horizons=(1.0, 2.0, 4.0), half_side=None,
                  window_scale=100.0)
    by_threads = [run_experiment(cfg, threads=n) for n in (1, 2, 3)]
    assert min(chunk_counts) >= 2 and len(set(chunk_counts)) > 1
    assert by_threads[0] == by_threads[1] == by_threads[2]
    assert [(r.horizon, r.replicates, r.mean, r.variance, r.aborted)
            for r in by_threads[0]] == _rows_by_field_batch(cfg)


def test_lln_runner_mean_identity_statistically_correct():
    rows = run_experiment(_config(replicates=600, horizons=(2.0,)))
    assert rows[0].passed, (rows[0].mean, rows[0].target, rows[0].z)


def test_lln_runner_enforces_regime_gate():
    cfg = _config(kind="lln_finite_mean", kernel=kernel(2.0, 1))
    with pytest.raises(RegimeError):
        run_experiment(cfg)


def test_zero_intensity_field_is_empty():
    rows = run_experiment(_config(intensity=0.0, horizons=(1.0,)))
    assert rows[0].mean == 0.0 and rows[0].se == 0.0
    assert rows[0].target == 0.0 and rows[0].passed  # intensity times the integral


def test_fit_decay_slope_recovers_power_law():
    def row(h, v):
        return ResultRow(experiment="x", regime="r", horizon=h, replicates=9,
                         mean=0.0, se=1.0, target=0.0, z=0.0, passed=True,
                         variance=v)

    rows = [row(h, 3.0 * h ** (-0.75)) for h in (1.0, 2.0, 4.0, 8.0)]
    assert fit_decay_slope(rows) == pytest.approx(-0.75, abs=1e-12)
    with pytest.raises(ValueError):
        fit_decay_slope(rows[:1])
    with pytest.raises(ValueError):
        fit_decay_slope([row(1.0, 0.0), row(2.0, 1.0)])


# ---------------------------------------------------------------------------
# occupancy runner
# ---------------------------------------------------------------------------


def occupancy_config(**overrides):
    base = dict(kind="occupancy_subcritical", kernel=kernel(2.0, 1),
                law=make_pareto_tail(0.7), horizons=(2.0, 4.0),
                replicates=150, phi=ball(np.zeros(1), 0.5),
                window_scale=1.0, obs_step=0.5, seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_occupancy_runner_rows():
    cfg = occupancy_config()
    rows = run_experiment(cfg)
    assert [r.horizon for r in rows] == [2.0, 4.0]
    for r in rows:
        assert 0.0 <= r.mean <= 1.0
        assert r.target == 0.0 and r.variance is None
    # the trend flag is shared across the ladder
    assert len({r.passed for r in rows}) == 1
    assert run_experiment(cfg) == rows


def test_occupancy_runner_rejects_oversized_ball():
    # smallest window is 2^(1/2) ~ 1.41, so a radius-1.5 ball cannot fit
    with pytest.raises(ConfigError, match="smallest window"):
        run_experiment(occupancy_config(phi=ball(np.zeros(1), 1.5)))
    # off-center placement violates the fit even with a small radius
    with pytest.raises(ConfigError, match="smallest window"):
        run_experiment(
            occupancy_config(phi=ball(np.array([1.3]), 0.3)))


def test_occupancy_runner_enforces_regime_gate():
    with pytest.raises(RegimeError):
        run_experiment(occupancy_config(law=EXP1))


# ---------------------------------------------------------------------------
# analytic-vs-MC comparison drivers
# ---------------------------------------------------------------------------


def test_covariance_comparison_smoke():
    out = run_covariance_comparison(
        kernel(2.0, 1), EXP1, BUMP_1D, BUMP_1D, [(0.5, 1.0)], half_side=4.0,
        replicates=3000, seed=7)
    assert len(out) == 1
    row = out[0]
    assert set(row) == {"s", "t", "analytic", "mc_estimate", "mc_se", "z",
                        "passed"}
    assert row["mc_se"] > 0 and np.isfinite(row["z"])
    with pytest.raises(ValueError, match="0 <= s <= t"):
        run_covariance_comparison(kernel(2.0, 1), EXP1, BUMP_1D, BUMP_1D,
                                  [(2.0, 1.0)], half_side=4.0,
                                  replicates=100, seed=7)


def test_pair_grid_steps_from_zero_on_the_common_step():
    assert np.array_equal(pair_grid([(1.0, 1.0), (1.0, 2.0), (2.0, 4.0)]),
                          [0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(pair_grid([(0.5, 1.0)]), [0.0, 0.5, 1.0])
    assert np.array_equal(pair_grid([(0.0, 2.0)]), [0.0, 2.0])
    assert np.allclose(pair_grid([(0.1, 0.3)]), [0.0, 0.1, 0.2, 0.3])
    assert np.allclose(pair_grid([(1.0 / 3.0, 1.0)]), np.arange(4) / 3.0)
    assert len(pair_grid([(0.002, 2.0)])) == 1001  # 1000 steps: the most
    for irrational_or_too_fine in ([(1.0, 2.0**0.5)], [(1.0, np.pi)],
                                   [(0.001, 2.0)], [(1.0, 1.0 + 1e-7)]):
        with pytest.raises(ValueError, match="no common step"):
            pair_grid(irrational_or_too_fine)
    with pytest.raises(ValueError, match="positive time"):
        pair_grid([(0.0, 0.0)])


def test_covariance_comparison_refuses_psi_outside_the_window(monkeypatch):
    """Checked before anything is simulated."""
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the window")

    monkeypatch.setattr(experiments, "field_batch", no_simulation)
    spilling = TestFunction("bump", np.array([3.5]), 1.0)
    with pytest.raises(ValueError, match="half_side"):
        run_covariance_comparison(kernel(2.0, 1), EXP1, BUMP_1D, spilling,
                                  [(0.5, 1.0)], half_side=4.0,
                                  replicates=100, seed=7)


def test_tree_moment_comparison_smoke():
    out = run_tree_moment_comparison(
        kernel(2.0, 1), EXP1, [0.0], 0.5, 1.0, BUMP_1D, BUMP_1D,
        replicates=3000, seed=8)
    assert out["analytic"] > 0 and out["mc_se"] > 0
    assert np.isfinite(out["z"])
    with pytest.raises(ValueError):
        run_tree_moment_comparison(kernel(2.0, 1), EXP1, [0.0], 2.0, 1.0,
                                   BUMP_1D, BUMP_1D, replicates=100, seed=8)


# ---------------------------------------------------------------------------
# validation suite plumbing
# ---------------------------------------------------------------------------


def test_validation_suite_subset_and_empty():
    assert run_validation_suite(checks=[]) == []
    rows = run_validation_suite(seed=0, checks=["criticality"])
    assert len(rows) == 1 and rows[0].name == "criticality"
    assert rows[0].passed and abs(rows[0].z) <= 3.0
    with pytest.raises(ConfigError, match="unknown checks"):
        run_validation_suite(checks=["criticality", "spectral_gap"])


def test_validation_suite_catches_broken_criticality():
    """Fault injection: a biased offspring law (p_two = 0.6) must trip
    the criticality check."""
    rows = run_validation_suite(seed=0, p_two=0.6, checks=["criticality"])
    assert not rows[0].passed
    assert abs(rows[0].z) > 10.0


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------


def test_write_result_rows_format_and_determinism(tmp_path):
    rows = [
        ResultRow(experiment="e", regime="r", horizon=2.0, replicates=10,
                  mean=0.5, se=0.1, target=0.4, z=1.0, passed=True,
                  variance=None, aborted=0),
        ResultRow(experiment="e", regime="r", horizon=4.0, replicates=10,
                  mean=0.25, se=0.1, target=0.4, z=-1.5, passed=False,
                  variance=0.125, aborted=2),
    ]
    records = [astuple(r) for r in rows]
    a, b = io.StringIO(), io.StringIO()
    write_table(a, RESULT_COLUMNS, records)
    write_table(b, RESULT_COLUMNS, records)
    assert a.getvalue() == b.getvalue()
    lines = a.getvalue().splitlines()
    assert lines[0].startswith("experiment,regime,horizon,replicates,mean")
    # trailing columns: passed, variance (None -> empty), aborted
    assert lines[1].split(",")[-3:] == ["true", "", "0"]
    assert lines[2].split(",")[-3:] == ["false", "0.125", "2"]
    path = tmp_path / "rows.csv"
    write_table(path, RESULT_COLUMNS, records)
    assert path.read_text().splitlines() == lines


def test_write_check_rows(tmp_path):
    rows = [CheckRow(name="c", target=1.0, estimate=1.01, z=0.5,
                     tolerance="|z| <= 3", passed=True)]
    buf = io.StringIO()
    write_table(buf, CHECK_COLUMNS, [astuple(r) for r in rows])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "name,target,estimate,z,tolerance,passed"
    assert lines[1] == 'c,1.0,1.01,0.5,|z| <= 3,true'
