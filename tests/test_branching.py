"""Tests for the branching-particle simulators.

The reference engine (`tests/branching.py`) is an event-driven, per-particle
implementation kept simple enough to audit by eye.  The batch engine
(fastsim.py) is the vectorised generation-wave implementation used by the
experiments.  Both return a `BatchResult` from the same arguments; the key
test here is that the two agree in distribution on the same functionals.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from branching import simulate_field, simulate_tree
from conftest import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from stablebranch import (
    Exponential,
    Gamma,
    StableKernel,
    TestFunction,
    field_batch,
    make_pareto_tail,
    obs_grid,
    replicate_stream,
    semigroup_apply,
    tree_batch,
)
from stablebranch import experiments, fastsim
from stablebranch.cli import main
from stablebranch.stable_motion import sample_increments

KERNEL_1D = StableKernel(alpha=2.0, dim=1)
EXP1 = Exponential(rate=1.0)


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_obs_grid():
    assert np.allclose(obs_grid(2.0, 0.5), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert obs_grid(1.5, 0.1)[-1] == 1.5  # ends exactly at the horizon
    with pytest.raises(ValueError):
        obs_grid(1.0, 0.3)  # horizon not a multiple
    with pytest.raises(ValueError):
        obs_grid(-1.0, 0.5)
    with pytest.raises(ValueError):
        obs_grid(1.0, 0.0)
    # 1.0 / 1e10 is within 1e-9 of 0 steps: the grid used to be [0.0] alone
    with pytest.raises(ValueError, match="obs_step"):
        obs_grid(1.0, 1e10)


def test_simulate_tree_rejects_bad_inputs():
    args = dict(obs_times=[0.0, 1.0], seed=0)
    with pytest.raises(ValueError):
        simulate_tree(KERNEL_1D, EXP1, [[0.0, 0.0]], **args)  # wrong dim
    with pytest.raises(ValueError):
        simulate_tree(KERNEL_1D, EXP1, np.zeros(5), **args)  # not (R, dim)


@pytest.mark.parametrize("x0s", [np.zeros(5), np.zeros((5, 2)),
                                 np.zeros((0, 1)), np.zeros((2, 1, 1))])
def test_tree_batch_rejects_starts_not_shaped_r_by_dim(x0s):
    with pytest.raises(ValueError, match="shape"):
        tree_batch(KERNEL_1D, EXP1, x0s, obs_times=[0.0, 1.0], seed=0)


# ---------------------------------------------------------------------------
# single-tree reference engine
# ---------------------------------------------------------------------------


def test_tree_counts_martingale():
    """Critical binary branching keeps the expected count at one."""
    res = simulate_tree(KERNEL_1D, EXP1, np.zeros((1500, 1)),
                        obs_times=[0.0, 3.0], seed=11)
    finals = res.ok("count")[:, -1]
    se = finals.std(ddof=1) / np.sqrt(len(finals))
    assert abs(finals.mean() - 1.0) <= 3.5 * se


def test_tree_mean_functional_matches_semigroup():
    """E[sum_i phi(X_i(t))] from one ancestor equals the migration
    semigroup applied to phi, because the branching is critical."""
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.5)
    t = 1.0
    res = simulate_tree(KERNEL_1D, EXP1, np.full((3000, 1), 0.5),
                        obs_times=[0.0, t], seed=12,
                        weights={"phi": phi.evaluate})
    vals = res.ok("phi")[:, -1]
    target = float(semigroup_apply(KERNEL_1D, phi, t, np.array([[0.5]]))[0])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    z = (vals.mean() - target) / se
    assert abs(z) <= 3.5, (vals.mean(), target, z)


def test_tree_p_two_extremes_are_monotone():
    """p_two=0 is a pure death process, p_two=1 a pure birth process."""
    for p_two, sign in ((0.0, -1), (1.0, +1)):
        res = simulate_tree(KERNEL_1D, EXP1, np.zeros((50, 1)),
                            obs_times=obs_grid(2.0, 0.25), seed=13,
                            p_two=p_two, population_cap=5000)
        counts = res.ok("count")
        assert len(counts) == 50
        assert np.all(sign * np.diff(counts, axis=1) >= 0), p_two


def test_reference_population_cap_flags_aborted_replicates():
    res = simulate_tree(KERNEL_1D, EXP1, np.zeros((8, 1)),
                        obs_times=obs_grid(8.0, 1.0), seed=14,
                        population_cap=20, p_two=1.0)
    assert res.aborted.all()
    assert np.all(res.event_counts == 21)  # stopped at the first particle over
    assert res.series["count"].shape == (8, 9)


# ---------------------------------------------------------------------------
# field reference engine
# ---------------------------------------------------------------------------


def test_field_initial_counts_poisson_mean():
    res = simulate_field(KERNEL_1D, EXP1, replicates=400,
                         obs_times=[0.0, 0.5], half_side=2.0, seed=15)
    counts = res.initial_counts.astype(float)
    mean = counts.mean()
    se = counts.std(ddof=1) / np.sqrt(len(counts))
    assert abs(mean - 4.0) <= 4.0 * se  # (2 L)^d = 4
    assert np.array_equal(res.series["count"][:, 0], res.initial_counts)


def test_field_torus_keeps_positions_in_window():
    kernel = StableKernel(alpha=1.5, dim=2)
    outside = {"out": lambda p: (np.abs(p) > 1.5).any(axis=1).astype(float)}
    for simulate in (simulate_field, field_batch):
        res = simulate(kernel, EXP1, replicates=20,
                       obs_times=obs_grid(2.0, 0.5), half_side=1.5, seed=16,
                       weights=outside)
        assert res.series["count"][:, 1:].sum() > 0
        assert np.all(res.series["out"] == 0)


# ---------------------------------------------------------------------------
# batch engine: determinism and structure
# ---------------------------------------------------------------------------


FIELD_ARGS = dict(replicates=64, obs_times=np.linspace(0, 2, 5),
                  half_side=2.0, seed=21, population_cap=10**6)


def test_field_batch_deterministic_and_stream_separated():
    a = field_batch(KERNEL_1D, EXP1, **FIELD_ARGS, stream_key=1)
    b = field_batch(KERNEL_1D, EXP1, **FIELD_ARGS, stream_key=1)
    c = field_batch(KERNEL_1D, EXP1, **FIELD_ARGS, stream_key=2)
    assert np.array_equal(a.series["count"], b.series["count"])
    assert np.array_equal(a.initial_counts, b.initial_counts)
    assert not np.array_equal(a.series["count"], c.series["count"])


def test_batch_refuses_stream_keys_that_would_collide():
    """Spawn-key parts are split into 32-bit words and joined, so a key of
    2^32 + 1 at chunk 1 is the stream of key 1 at chunk 2^32 + 1.  Keys
    outside [0, 2^32) are refused; the largest one in range runs."""
    alias = replicate_stream(21, 2**32 + 1, 1).integers(0, 2**63, 2)
    assert np.array_equal(alias,
                          replicate_stream(21, 1, 2**32 + 1).integers(0, 2**63, 2))
    for key in (-1, 2**32 + 1):
        with pytest.raises(ValueError, match="stream_key"):
            field_batch(KERNEL_1D, EXP1, **FIELD_ARGS, stream_key=key)
    field_batch(KERNEL_1D, EXP1, **FIELD_ARGS, stream_key=2**32 - 1)


def test_batch_refuses_too_many_chunks_before_simulating(monkeypatch):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    # Only the length of the chunk-size list is read before the refusal.
    monkeypatch.setattr(fastsim, "_chunk_sizes", lambda *args: range(2**32 + 1))
    monkeypatch.setattr(fastsim, "_run_chunk", no_chunk)
    with pytest.raises(ValueError, match="chunks"):
        field_batch(KERNEL_1D, EXP1, **FIELD_ARGS, stream_key=1)


@settings(max_examples=300, deadline=None)
@given(replicates=st.integers(1, 5000), wave_rows=st.floats(0.0, 1e6))
def test_chunk_sizes_are_even_and_few(replicates, wave_rows):
    """`per` is the most replicates that keep a wave near the row target:
    a batch splits into ceil(replicates / per) chunks of at most `per`,
    with sizes that differ by at most one and sum to the batch."""
    per = max(1, int(fastsim._CHUNK_TARGET / max(wave_rows, 1.0)))
    sizes = fastsim._chunk_sizes(replicates, wave_rows)
    assert sum(sizes) == replicates
    assert len(sizes) == -(-replicates // per)
    assert max(sizes) <= per and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("threads", [0, -3])
def test_batch_refuses_a_thread_count_below_one_before_any_chunk(monkeypatch, threads):
    """threads = 0 or -3 used to run every chunk inline."""
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(fastsim, "_run_chunk", no_chunk)
    with pytest.raises(ValueError, match="threads"):
        field_batch(KERNEL_1D, EXP1, **FIELD_ARGS, threads=threads)


def test_batch_refuses_no_replicates():
    with pytest.raises(ValueError, match="replicates"):
        field_batch(KERNEL_1D, EXP1, **{**FIELD_ARGS, "replicates": 0})


@pytest.mark.parametrize("arg,value", [
    ("replicates", 2.5), ("replicates", True), ("replicates", np.nan),
    ("seed", -1), ("seed", 1.5), ("seed", np.nan),
    ("stream_key", 0.5), ("stream_key", np.nan),
    ("population_cap", np.nan), ("population_cap", -1), ("population_cap", 0),
    ("population_cap", 1e6)])
def test_plans_refuse_counts_seeds_and_caps_that_are_not_integers_before_drawing(
        monkeypatch, arg, value):
    """replicates = 2.5 used to die in list repetition and True ran one
    replicate; a bad seed or stream key raised from numpy's SeedSequence
    inside the first chunk; a NaN cap silently ran uncapped and -1 aborted
    every replicate."""
    def no_stream(*args):
        raise AssertionError("a stream was drawn from")

    monkeypatch.setattr(fastsim, "replicate_stream", no_stream)
    with pytest.raises(ValueError, match=f"{arg} must be an integer"):
        fastsim.field_plan(KERNEL_1D, EXP1, **{**FIELD_ARGS, arg: value})
    if arg != "replicates":  # a tree batch has one replicate per start
        with pytest.raises(ValueError, match=f"{arg} must be an integer"):
            tree_batch(KERNEL_1D, EXP1, np.zeros((2, 1)), obs_times=[0.0, 1.0],
                       **{"seed": 0, arg: value})


def test_one_batch_entry_points_refuse_a_weight_named_count():
    """A caller's "count" used to be summed with the population count: a
    weight of 10 per particle read 33 = 3 * 10 + 3."""
    tens = {"count": lambda p: np.full(len(p), 10.0)}
    with pytest.raises(ValueError, match="count"):
        field_batch(KERNEL_1D, EXP1, **FIELD_ARGS, weights=tens)
    with pytest.raises(ValueError, match="count"):
        tree_batch(KERNEL_1D, EXP1, np.zeros((3, 1)), obs_times=[0.0], seed=0,
                   weights=tens)


@pytest.mark.parametrize("weight", [lambda p: 1.0, lambda p: p, lambda p: p[1:, 0]],
                         ids=["scalar", "rows-by-d", "one-short"])
def test_batches_refuse_a_weight_that_gives_not_one_value_per_position(weight):
    """Summed over its nonzero rows, a scalar or (rows, 1) weight would be
    flattened into a series silently wrong."""
    with pytest.raises(ValueError, match="weight 'a' gave shape"):
        field_batch(KERNEL_1D, EXP1, **FIELD_ARGS, weights={"a": weight})


def test_a_plan_holds_exactly_its_weights_series():
    """A ladder that reads one series used to hold and fill a population
    count beside it.  Asking for the count (a None weight) adds that series
    and moves no bit of the others or of the counters."""
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
    weights = {"phi": phi.evaluate, "x": lambda p: p[:, 0]}
    args = dict(FIELD_ARGS, kernel=StableKernel(alpha=1.5, dim=1),
                law=make_pareto_tail(0.5), obs_times=obs_grid(4.0, 0.25))
    lean, full = fastsim.run_plans([
        fastsim.field_plan(**args, weights=weights),
        fastsim.field_plan(**args, weights={**weights, "n": None})])
    assert list(lean.series) == ["phi", "x"]
    assert list(full.series) == ["phi", "x", "n"]
    for name in weights:
        assert np.array_equal(lean.series[name].view(np.uint64),
                              full.series[name].view(np.uint64)), name
    for field in ("initial_counts", "event_counts", "aborted"):
        assert np.array_equal(getattr(lean, field), getattr(full, field)), field
    assert np.array_equal(full.series["n"][:, 0], full.initial_counts)
    assert np.array_equal(full.series["n"],
                          field_batch(**args, weights=weights).series["count"])


class _Planned(Exception):
    """Raised once a ladder is planned, so that nothing is simulated."""


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_finite_mean_ladder_splits_evenly(tmp_path, monkeypatch):
    """The criterion-2 finite-mean ladder of the benchmark (68 replicates,
    alpha = 2, d = 3): T = 200 runs as four 17-replicate chunks and
    T = 100 as two of 34, so two pool threads get even shares; T = 25
    and 50 stay one chunk each."""
    workloads = _bench_workloads()
    seen = []

    def plans_only(plans, threads):
        seen.extend(plan.sizes for plan in plans)
        raise _Planned

    monkeypatch.setattr(experiments, "run_plans", plans_only)
    path = tmp_path / "finite.json"
    path.write_text(json.dumps(workloads.LLN_FINITE_D3))
    with pytest.raises(_Planned):
        main(["lln", "--config", str(path), "--threads", "2"])
    assert workloads.LLN_FINITE_D3["horizons"] == [25, 50, 100, 200]
    assert seen == [[68], [68], [34, 34], [17, 17, 17, 17]]


def test_chunk_and_auxiliary_stream_keys_are_distinct():
    """Chunk ci of a batch draws from replicate_stream(seed, stream_key, ci)
    and auxiliary draws from one-element keys.  Pairs that collided under the
    old (stream_key << 20) + ci packing, the keys the experiments use and the
    auxiliary keys all give different streams; no chunk runs."""
    keys = {(k, ci) for k in (*range(1, 5), *range(101, 107), 200, 220)
            for ci in range(4)}
    keys |= {(1, 0), (0, 2**20), (2**11, 0), (0, 0), (),
             experiments._STABLE_CF_KEY, experiments._TREE_STARTS_KEY}
    firsts = {tuple(replicate_stream(21, *key).integers(0, 2**63, 2))
              for key in keys}
    assert len(firsts) == len(keys)


@settings(max_examples=200, deadline=None)
@given(step=st.sampled_from([0.1, 0.25, 0.3, 1.0 / 3.0]),
       n=st.integers(1, 500), start=st.sampled_from([0.0, 0.7, 25.0]),
       extra=st.lists(st.floats(-10.0, 300.0), max_size=20))
def test_arithmetic_index_matches_searchsorted(step, n, start, extra):
    """The ceiling index with its two corrections is np.searchsorted(side=
    "left") for times on the grid points, one ulp to either side of them,
    below the first point and past the last."""
    obs = obs_grid(n * step, step) + start
    times = np.concatenate([
        obs, np.nextafter(obs, -np.inf), np.nextafter(obs, np.inf),
        [start - 1.0, -0.0, obs[-1] + step, 10.0 * obs[-1] + 1.0, 1e300], extra,
    ])
    got = fastsim._first_index(times, fastsim._padded(obs), fastsim._grid_step(obs))
    assert np.array_equal(got, np.searchsorted(obs, times, side="left"))


@pytest.mark.parametrize("obs", [[0.0, 1.0, 2.0, 4.0], [1.0, 2.0, 4.0],
                                 [0.0, 1.0, 1.0], [2.0, 1.0], [0.0, np.nan], []])
def test_batches_refuse_non_arithmetic_grids_before_drawing(monkeypatch, obs):
    def no_stream(*args):
        raise AssertionError("a stream was drawn from")

    monkeypatch.setattr(fastsim, "replicate_stream", no_stream)
    with pytest.raises(ValueError, match="obs_times"):
        field_batch(KERNEL_1D, EXP1, replicates=4, obs_times=obs,
                    half_side=2.0, seed=0)
    with pytest.raises(ValueError, match="obs_times"):
        tree_batch(KERNEL_1D, EXP1, np.zeros((4, 1)), obs_times=obs, seed=0)


@pytest.mark.parametrize("arg,value", [
    ("half_side", 0.0), ("half_side", -1.0), ("half_side", np.inf),
    ("half_side", np.nan), ("intensity", -1.0), ("intensity", np.inf),
    ("intensity", np.nan)])
def test_field_batch_refuses_bad_window_or_intensity_before_drawing(monkeypatch,
                                                                    arg, value):
    """half_side = 0 used to run and return empty series, and a negative
    window or intensity failed inside a chunk with numpy's message."""
    def no_stream(*args):
        raise AssertionError("a stream was drawn from")

    monkeypatch.setattr(fastsim, "replicate_stream", no_stream)
    with pytest.raises(ValueError, match=arg):
        field_batch(KERNEL_1D, EXP1, replicates=4, obs_times=[0.0, 1.0], seed=0,
                    **{"half_side": 2.0, "intensity": 1.0, arg: value})


@pytest.mark.parametrize("p_two", [2.0, np.nan, -0.5])
def test_batches_refuse_p_two_outside_the_unit_interval_before_drawing(monkeypatch,
                                                                       p_two):
    """p_two = 2 used to run as if every parent split (events [19, 11]), and
    NaN or -0.5 as if none did."""
    def no_stream(*args):
        raise AssertionError("a stream was drawn from")

    monkeypatch.setattr(fastsim, "replicate_stream", no_stream)
    with pytest.raises(ValueError, match="p_two"):
        field_batch(KERNEL_1D, EXP1, replicates=2, obs_times=[0.0, 1.0],
                    half_side=2.0, seed=0, p_two=p_two)
    with pytest.raises(ValueError, match="p_two"):
        tree_batch(KERNEL_1D, EXP1, np.zeros((2, 1)), obs_times=[0.0, 1.0],
                   seed=0, p_two=p_two)


def _assert_same_batch(a, b):
    assert a.series.keys() == b.series.keys()
    for name in a.series:
        assert np.array_equal(a.series[name].view(np.uint64),
                              b.series[name].view(np.uint64)), name
    assert np.array_equal(a.initial_counts, b.initial_counts)
    assert np.array_equal(a.event_counts, b.event_counts)
    assert np.array_equal(a.aborted, b.aborted)


# ---------------------------------------------------------------------------
# batch engine against a straightforward generation wave
# ---------------------------------------------------------------------------


def _oracle_wrap(pos, half_side):
    y = np.mod(pos + half_side, 2.0 * half_side)
    return np.where(y == 2.0 * half_side, 0.0, y) - half_side


def _oracle_wave(kernel, law, rng, obs, horizon, half_side, p_two, state,
                 weights, acc, m, reps):
    """One generation with a searchsorted per time, 2-D fancy indexing and
    np.where over every particle: the same draws in the same order."""
    birth, pos, rep = state
    n = len(birth)
    death = birth + np.asarray(law.sample(rng, size=n), dtype=float)
    b_idx = np.flatnonzero(death <= horizon)
    parents = b_idx[rng.random(len(b_idx)) < p_two]

    i0 = np.searchsorted(obs, birth, side="left")
    i1 = np.searchsorted(obs, death, side="left")
    k = i1 - i0
    starts = np.concatenate(([0], np.cumsum(k)))[:-1]
    total = int(k.sum())
    pid = np.repeat(np.arange(n), k)
    ramp = np.arange(total) - np.repeat(starts, k)
    obs_idx = i0[pid] + ramp
    t_cp = obs[obs_idx]
    prev_t = np.where(ramp == 0, birth[pid], obs[np.maximum(obs_idx - 1, 0)])
    dt = t_cp - prev_t
    last_t = np.where(k > 0, obs[np.maximum(i1 - 1, 0)], birth)
    dt_death = death[parents] - last_t[parents]

    inc = sample_increments(kernel, np.concatenate([dt, dt_death]), rng)
    inc_death = inc[total:]
    inc = inc[:total]
    cs = np.cumsum(inc, axis=0)
    cs0 = cs - inc
    flat_pos = pos[pid] - cs0[starts[pid]] + cs
    if half_side is not None:
        flat_pos = _oracle_wrap(flat_pos, half_side)

    key = rep[pid] * m + obs_idx
    for name, w in weights.items():
        acc[name] += np.bincount(key, weights=None if w is None else w(flat_pos),
                                 minlength=reps * m)

    if len(parents) == 0:
        return None
    last_pos = pos
    if total > 0:
        rows = np.minimum(starts + np.maximum(k - 1, 0), total - 1)
        last_pos = np.where((k > 0)[:, None], flat_pos[rows], pos)
    death_pos = last_pos[parents] + inc_death
    if half_side is not None:
        death_pos = _oracle_wrap(death_pos, half_side)
    return (np.repeat(death[parents], 2), np.repeat(death_pos, 2, axis=0),
            np.repeat(rep[parents], 2))


def _oracle_run_chunk(kernel, law, rng, obs, horizon, half_side, p_two,
                      population_cap, gen, weights, acc, cum, aborted):
    pos, rep = gen
    state = (np.zeros(len(rep)), pos, rep)
    m, reps = len(obs), len(cum)
    while state is not None:
        cum += np.bincount(state[2], minlength=reps)
        aborted |= cum > population_cap
        if aborted.any():
            keep = ~aborted[state[2]]
            state = tuple(a[keep] for a in state)
        if len(state[0]) == 0:
            break
        state = _oracle_wave(kernel, law, rng, obs, horizon, half_side, p_two,
                             state, weights, acc, m, reps)


@pytest.mark.parametrize("alpha", [2.0, 1.5])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("law", [Exponential(rate=1.0), make_pareto_tail(0.5)],
                         ids=["exp", "pareto"])
@pytest.mark.parametrize("p_two", [0.5, 1.0])
def test_batches_match_the_oracle_wave_bit_for_bit(monkeypatch, alpha, dim,
                                                   law, p_two):
    kernel = StableKernel(alpha=alpha, dim=dim)
    phi = TestFunction(shape="bump", center=np.full(dim, 0.4), radius=1.0)
    psi = TestFunction(shape="indicator", center=np.zeros(dim), radius=1.5)
    def zero_or_nan(p):  # -0.0 near the origin, NaN far out, else x
        x = p[:, 0]
        return np.where(x < -1.5, np.nan, np.where(np.abs(x) < 0.5, -0.0, x))

    weights = {"phi": phi.evaluate, "psi": psi.evaluate,
               "x_first": lambda p: p[:, 0], "x_last": lambda p: p[:, -1],
               "zero_or_nan": zero_or_nan}
    cap = 40 * 5**dim if p_two == 1.0 else 10**6  # 5**dim: the initial field mean
    field = dict(replicates=40, obs_times=obs_grid(3.0, 0.25), half_side=2.5,
                 seed=31, weights=weights, p_two=p_two, population_cap=cap)
    x0s = np.random.default_rng(7).normal(size=(60, dim))
    tree = dict(obs_times=obs_grid(3.0, 0.25), seed=32, weights=weights,
                p_two=p_two, population_cap=cap)
    new = (field_batch(kernel, law, **field), tree_batch(kernel, law, x0s, **tree))
    monkeypatch.setattr(fastsim, "_run_chunk", _oracle_run_chunk)
    old = (field_batch(kernel, law, **field), tree_batch(kernel, law, x0s, **tree))
    for a, b in zip(new, old):
        _assert_same_batch(a, b)
        assert a.series["count"][:, 1:].sum() > 0
    if p_two == 1.0 and law.name.startswith("exp"):
        assert new[0].aborted.any() and not new[0].aborted.all()


@pytest.mark.parametrize("half_side", [1.0, 2.5, 5.656854249492381, 68.4, np.pi])
def test_wrap_matches_one_pass_mod_bitwise(half_side):
    L = half_side
    edges = np.array([-L, L, np.nextafter(L, 0.0), 2 * L, -2 * L, 3 * L, -3 * L,
                      1e6 * L, -1e6 * L, -0.0, 0.0, np.nextafter(-L, 0.0),
                      np.nextafter(-L, -2 * L), np.nextafter(-3 * L, -4 * L)])
    batch = np.random.default_rng(8).normal(scale=2.0 * L, size=(5000, 3))
    for x in (edges[:, None], batch, np.concatenate([batch, edges[:, None].repeat(3, 1)])):
        got = fastsim._wrap(x, L)
        want = _oracle_wrap(x, L)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.all((got >= -L) & (got < L))


def test_wrap_in_place_on_the_leading_rows_of_a_larger_array():
    """A wave wraps its positions in the leading rows of the increment
    buffer: the view is wrapped in place, the trailing rows stay as they
    are."""
    L = 2.5
    buf = np.random.default_rng(9).normal(scale=4.0 * L, size=(1000, 3))
    want = _oracle_wrap(buf[:700], L)
    tail = buf[700:].copy()
    lead = buf[:700]
    got = fastsim._wrap(lead, L, out=lead)
    assert got.base is buf
    assert np.array_equal(buf[:700].view(np.uint64), want.view(np.uint64))
    assert np.array_equal(buf[700:].view(np.uint64), tail.view(np.uint64))


def test_d3_field_chunk_traced_peak():
    """One alpha = 2, d = 3 torus chunk, about 20k particles a wave.  With
    every intermediate of a wave kept until the wave returned, its traced
    peak was 8.19 MB; with each freed after its last use and the
    positions kept in the increment buffer, 4.52 MB (numpy 2.4)."""
    phi = TestFunction(shape="bump", center=np.zeros(3), radius=1.0)
    plan = fastsim.field_plan(
        StableKernel(alpha=2.0, dim=3), EXP1, replicates=40,
        obs_times=obs_grid(100.0, 1.0), half_side=4.0, seed=7,
        weights={"phi": phi.evaluate})
    assert plan.sizes == [40]
    out = plan.empty_result()
    with traced_peak() as traced:
        plan.chunk(0, out)
    assert traced.peak < 6_000_000


def test_d3_field_chunk_hands_each_generation_to_its_wave():
    """The bench's T = 200 window (alpha = 2, d = 3, Exp(1), L = 5.657) at
    its 17-replicate chunk size, about 23k particles a wave.  While the
    chunk and its loop held each generation for the whole of the wave
    that advanced it, the traced peak was 5.59 MB; with the wave the only
    owner, freeing birth times, first checkpoints and positions after
    their last use, 4.41 MB (numpy 2.4)."""
    phi = TestFunction(shape="bump", center=np.zeros(3), radius=1.0)
    plan = fastsim.field_plan(
        StableKernel(alpha=2.0, dim=3), EXP1, replicates=17,
        obs_times=obs_grid(100.0, 1.0), half_side=0.4 * 200.0**0.5, seed=7,
        weights={"phi": phi.evaluate})
    assert plan.sizes == [17]
    out = plan.empty_result()
    with traced_peak() as traced:
        plan.chunk(0, out)
    assert traced.peak < 4_800_000


def test_heavy_d1_field_chunk_traced_peak():
    """The bench's alpha = 1.5, d = 1 ladder at T = 200 (Pareto gamma =
    0.5, L = 2 * 200^(2/3)), one 16-replicate chunk.  While every wave
    filled a population count the ladder never reads, keyed every row and
    ran the stable sampler's sines over the whole wave at once, the traced
    peak was 3.51 MB; with the one series, keys for the nonzero rows only
    and sampler blocks of 2^14 rows, 2.86 MB (numpy 2.4)."""
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
    plan = fastsim.field_plan(
        StableKernel(alpha=1.5, dim=1), make_pareto_tail(0.5), replicates=200,
        obs_times=obs_grid(200.0, 0.5), half_side=2.0 * 200.0 ** (1.0 / 1.5),
        seed=201, weights={"phi": phi.evaluate}, stream_key=4)
    assert plan.sizes[0] == 16 and plan.names == ["phi"]
    out = plan.empty_result()
    with traced_peak() as traced:
        plan.chunk(0, out)
    assert traced.peak < 3_200_000


def test_tree_batch_holds_one_copy_of_its_series():
    """4000 trees, 201 checkpoints and two series: a 12.9 MB result that
    dwarfs any one wave.  While each chunk kept its own part and the
    batch was joined by np.concatenate, the traced peak was 25.9 MB, two
    copies of the series; with every chunk accumulating into its rows of
    the one result, one copy and a wave (numpy 2.4)."""
    with traced_peak() as traced:
        batch = tree_batch(KERNEL_1D, EXP1, np.zeros((4000, 1)),
                           obs_times=np.linspace(0.0, 2.0, 201), seed=3,
                           weights={"x": lambda p: p[:, 0]})
    assert sum(s.nbytes for s in batch.series.values()) == 2 * 4000 * 201 * 8
    assert traced.peak < 18_000_000


def test_first_stream_drawn_in_pool_threads_matches_one_thread():
    """numpy loads `numpy.random` on first use, so in a fresh process the
    first streams are built inside the pool's threads, which import it
    together; Python's module import lock makes them wait for one import.
    Every series then equals a one-thread run bit for bit."""
    src = str(Path(fastsim.__file__).resolve().parents[1])
    code = """
import sys
import numpy as np
from stablebranch import Exponential, StableKernel, TestFunction, field_batch, obs_grid
assert "numpy.random" not in sys.modules
phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.0)
args = dict(replicates=1000, obs_times=obs_grid(2.0, 0.5), half_side=50.0,
            seed=21, weights={"phi": phi.evaluate})
kernel, law = StableKernel(alpha=1.5, dim=1), Exponential(rate=1.0)
a = field_batch(kernel, law, **args, threads=2)
b = field_batch(kernel, law, **args, threads=1)
for x, y in [(a.initial_counts, b.initial_counts), (a.event_counts, b.event_counts),
             (a.aborted, b.aborted), *((a.series[k], b.series[k]) for k in b.series)]:
    assert np.array_equal(x, y)
print(list(a.series), a.series["count"][:, 1:].sum() > 0)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['phi',", "'count']", "True"], proc.stdout


@pytest.mark.parametrize("p_two", [0.5, 1.0])
def test_children_start_from_their_parents_death_position(p_two):
    """alpha = 2, d = 1: every particle alive at t sits at x0 + B_t with
    E B_t^2 = 2t, so E sum_i (x_i(t)^2 - x0^2 - 2t) = 0 for any p_two.  A
    child started anywhere but its parent's death position (for instance
    without the death step) would bias the sum."""
    x0, times = 1.5, obs_grid(4.0, 1.0)
    batch = tree_batch(KERNEL_1D, EXP1, np.full((20_000, 1), x0),
                       obs_times=times, seed=41, p_two=p_two,
                       weights={"x2": lambda p: p[:, 0] ** 2})
    assert not batch.aborted.any()
    for j in (1, 2, 4):
        t = times[j]
        y = batch.series["x2"][:, j] - (x0**2 + 2.0 * t) * batch.series["count"][:, j]
        z = y.mean() / (y.std(ddof=1) / np.sqrt(len(y)))
        assert abs(z) < 4.0, (p_two, t, z)


def test_field_batch_thread_count_invariance(chunk_counts):
    phi = {"phi": TestFunction(shape="bump", center=np.zeros(1),
                               radius=1.0).evaluate}
    args = dict(replicates=1000, obs_times=obs_grid(2.0, 0.5),
                half_side=50.0, seed=21, weights=phi)
    a = field_batch(KERNEL_1D, EXP1, **args, threads=1)
    b = field_batch(KERNEL_1D, EXP1, **args, threads=3)
    # at least three chunks, so threads=3 runs the pool
    assert chunk_counts[0] >= 3 and chunk_counts[0] == chunk_counts[1]
    _assert_same_batch(a, b)


def test_pool_chunks_share_a_result_under_fast_thread_switching(chunk_counts):
    """Chunks add into disjoint rows of one shared result: with more
    threads than cores and a thread switch every microsecond, a lost or
    misplaced update would break equality with the one-thread run."""
    args = dict(obs_times=obs_grid(1.0, 0.01), seed=26,
                weights={"x": lambda p: p[:, 0]})
    x0s = np.linspace(-1.0, 1.0, 6000)[:, None]
    a = tree_batch(KERNEL_1D, EXP1, x0s, **args, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        b = tree_batch(KERNEL_1D, EXP1, x0s, **args, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert chunk_counts[0] >= 4 and chunk_counts[0] == chunk_counts[1]
    _assert_same_batch(a, b)


def test_tree_batch_thread_count_invariance(chunk_counts):
    args = dict(obs_times=obs_grid(1.0, 0.01), seed=25)
    a = tree_batch(KERNEL_1D, EXP1, np.zeros((4000, 1)), **args, threads=1)
    b = tree_batch(KERNEL_1D, EXP1, np.zeros((4000, 1)), **args, threads=2)
    assert chunk_counts[0] >= 2 and chunk_counts[0] == chunk_counts[1]
    _assert_same_batch(a, b)


def test_field_batch_shapes_and_weights():
    phi = TestFunction(shape="indicator", center=np.zeros(1), radius=1.0)
    res = field_batch(KERNEL_1D, EXP1, **FIELD_ARGS,
                      weights={"phi": phi.evaluate,
                               "ones": lambda p: np.ones(len(p))})
    assert res.replicates == 64
    assert res.series["count"].shape == (64, 5)
    # a weight of one per particle reproduces the count series exactly
    assert np.array_equal(res.series["ones"], res.series["count"])
    # the indicator functional can never exceed the population size
    assert np.all(res.series["phi"] <= res.series["count"] + 1e-12)
    assert np.array_equal(res.ok("phi"), res.series["phi"][~res.aborted])


def test_field_batch_initial_counts_poisson():
    res = field_batch(KERNEL_1D, EXP1, replicates=4000,
                      obs_times=np.array([0.0, 0.5]), half_side=2.0, seed=22,
                      population_cap=10**6)
    counts = res.initial_counts.astype(float)
    mean, var = counts.mean(), counts.var(ddof=1)
    n = len(counts)
    assert abs(mean - 4.0) <= 4.0 * np.sqrt(4.0 / n)
    # Poisson Fano factor: Var(sample variance) ~ (mu + 2 mu^2)/n
    se_var = np.sqrt((4.0 + 2.0 * 16.0) / n)
    assert abs(var - 4.0) <= 4.0 * se_var
    # time-0 count equals the initial count
    assert np.array_equal(res.series["count"][:, 0], res.initial_counts)


def test_field_batch_intensity_scales_initial_mean():
    res = field_batch(KERNEL_1D, EXP1, replicates=2000,
                      obs_times=np.array([0.0, 0.5]), half_side=2.0, seed=23,
                      population_cap=10**6, intensity=2.0)
    counts = res.initial_counts.astype(float)
    assert abs(counts.mean() - 8.0) <= 4.0 * np.sqrt(8.0 / len(counts))
    empty = field_batch(KERNEL_1D, EXP1, replicates=50,
                        obs_times=np.array([0.0, 0.5]), half_side=2.0,
                        seed=23, population_cap=10**6, intensity=0.0)
    assert np.all(empty.series["count"] == 0)


def test_field_batch_p_two_extremes():
    res0 = field_batch(KERNEL_1D, EXP1, **FIELD_ARGS, p_two=0.0)
    res1 = field_batch(KERNEL_1D, EXP1, **{**FIELD_ARGS, "replicates": 16},
                       p_two=1.0, stream_key=3)
    counts0 = res0.series["count"]
    counts1 = res1.ok("count")
    assert np.all(np.diff(counts0, axis=1) <= 0)
    assert np.all(np.diff(counts1, axis=1) >= 0)


def test_field_batch_population_cap_abort_honesty():
    # supercritical offspring (p_two = 1) blows past a tiny cap
    res = field_batch(KERNEL_1D, EXP1, replicates=32,
                      obs_times=np.linspace(0, 8, 9), half_side=2.0, seed=24,
                      population_cap=20, p_two=1.0)
    assert res.aborted.any()
    assert len(res.ok("count")) == int((~res.aborted).sum())
    # aborted replicates are flagged, not silently truncated
    assert res.series["count"].shape[0] == 32


def test_tree_batch_deterministic_and_shapes():
    x0s = np.zeros((40, 1))
    obs = np.array([0.0, 0.5, 1.0])
    a = tree_batch(KERNEL_1D, EXP1, x0s, obs_times=obs, seed=25,
                   population_cap=10**6)
    b = tree_batch(KERNEL_1D, EXP1, x0s, obs_times=obs, seed=25,
                   population_cap=10**6)
    assert np.array_equal(a.series["count"], b.series["count"])
    assert a.series["count"].shape == (40, 3)
    # every tree starts from exactly one ancestor
    assert np.all(a.initial_counts == 1)
    assert np.all(a.series["count"][:, 0] == 1)


def test_tree_batch_mean_functional_matches_semigroup():
    phi = TestFunction(shape="bump", center=np.zeros(1), radius=1.5)
    x0s = np.tile([[0.5]], (6000, 1))
    res = tree_batch(KERNEL_1D, EXP1, x0s,
                     obs_times=np.array([0.0, 1.0]), seed=26,
                     population_cap=10**6,
                     weights={"phi": phi.evaluate})
    vals = res.ok("phi")[:, -1]
    target = float(semigroup_apply(KERNEL_1D, phi, 1.0, np.array([[0.5]]))[0])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - target) <= 3.5 * se


# ---------------------------------------------------------------------------
# batch engine vs reference engine: distributional agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel,law", [
    (StableKernel(alpha=2.0, dim=1), Exponential(rate=1.0)),
    (StableKernel(alpha=1.5, dim=1), make_pareto_tail(0.5)),
    (StableKernel(alpha=2.0, dim=2), Gamma(shape=2.0, rate=2.0)),
])
def test_engines_agree_on_field_functionals(kernel, law):
    """The vectorised engine and the event-driven reference engine must
    produce the same distribution of occupation functionals.  Two-sample
    z-test on the mean and a generous variance-ratio bracket."""
    half, horizon = 2.0, 2.0
    obs = np.linspace(0.0, horizon, 5)
    phi = TestFunction(shape="bump", center=np.zeros(kernel.dim), radius=1.5)

    args = dict(obs_times=obs, half_side=half,
                population_cap=10**6, weights={"phi": phi.evaluate})
    ref = simulate_field(kernel, law, replicates=300, seed=27, **args)
    fast = field_batch(kernel, law, replicates=3000, seed=28, **args)
    ref_vals = np.trapezoid(ref.ok("phi"), obs, axis=1)
    fast_vals = np.trapezoid(fast.ok("phi"), obs, axis=1)

    m1, m2 = ref_vals.mean(), fast_vals.mean()
    v1, v2 = ref_vals.var(ddof=1), fast_vals.var(ddof=1)
    z = (m1 - m2) / np.sqrt(v1 / len(ref_vals) + v2 / len(fast_vals))
    assert abs(z) <= 3.5, (m1, m2, z)
    # variance ratio: log-scale bracket wide enough for n_ref = 300
    assert 0.6 <= v1 / v2 <= 1.7, (v1, v2)


def test_engines_agree_on_tree_counts():
    """Final-count distribution of a single tree: reference vs batch."""
    t = 2.0
    args = dict(obs_times=[0.0, t], population_cap=10**6)
    ref = simulate_tree(KERNEL_1D, EXP1, np.zeros((1000, 1)), seed=29,
                        **args).ok("count")[:, -1]
    fast = tree_batch(KERNEL_1D, EXP1, np.zeros((8000, 1)), seed=30,
                      **args).ok("count")[:, -1]
    z = (ref.mean() - fast.mean()) / np.sqrt(
        ref.var(ddof=1) / len(ref) + fast.var(ddof=1) / len(fast))
    assert abs(z) <= 3.5, (ref.mean(), fast.mean(), z)
    # extinction probability by time t must agree as well
    p1, p2 = (ref == 0).mean(), (fast == 0).mean()
    se = np.sqrt(p1 * (1 - p1) / len(ref) + p2 * (1 - p2) / len(fast))
    assert abs(p1 - p2) <= 3.5 * se
