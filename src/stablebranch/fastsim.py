"""Batched generation-wave simulator.

All replicates of a batch advance together, one generation per step,
with every random draw vectorised.  Positions are only ever
materialised at observation checkpoints and death times, as flat
arrays indexed by (particle, checkpoint).  Observation grids are
arithmetic, so the first checkpoint at or after a time is a ceiling of
(time - start) / step, corrected by one comparison each way; a
generation's state carries that index, inherited from its parent's
death.  Rows move between per-particle and per-checkpoint arrays by
`np.take` on integer indices, which running sums of ones build; both
release the GIL, so the chunks of a thread pool overlap.

The output is not a trajectory; it is a set of per-replicate time
series sum_i w(x_i(t)) for caller-chosen weight functions w, which is
all the occupation statistics need.  A batch holds exactly its weights'
series; a weight of None stands for w = 1, the population count, which
`field_batch` and `tree_batch` add under the name "count".

Replicates are grouped into chunks of even size, each with its own
stream keyed by (seed, stream key, chunk index).  Chunk sizes depend
only on the configuration, so results are reproducible regardless of how chunks
are dispatched across workers, and each writes straight into its rows
of the batch's one result.  `field_plan` and `run_plans` let a caller
pool the chunks of several batches, such as a horizon ladder, on one
set of threads; `field_batch` and `tree_batch` are the one-batch case.
`concurrent.futures` is imported when the first pool starts, so a
one-thread run never loads it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .stable_motion import StableKernel, sample_increments

DEFAULT_POPULATION_CAP = 10**7
_CHUNK_TARGET = 75_000  # expected checkpoint rows per chunk wave, roughly
# SeedSequence splits each spawn-key part into 32-bit words and joins them,
# so (2**32 + 1, 1) and (1, 2**32 + 1) are the same stream.  Keeping both
# parts of a chunk key below 2^32 makes every chunk key exactly two words:
# distinct from each other and from one-word auxiliary keys.
_KEY_WORD = 1 << 32
# Largest distance of a grid point from start + i * step, in steps, that
# still counts as rounding.  Anything below 1/2 keeps `_first_index` exact.
_GRID_RTOL = 1e-6


def replicate_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent RNG stream for one replicate, chunk or auxiliary draw.

    SFC64 seeded by `SeedSequence(seed, spawn_key=key)`: distinct keys of
    nonnegative integers give independent streams, which can run in any
    order, or in parallel, with identical results.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.SFC64(ss))


def obs_grid(horizon: float, obs_step: float) -> np.ndarray:
    """Observation times 0, obs_step, ..., horizon.

    Raises ValueError unless the horizon is a positive multiple of the
    step, at least once, so the grid always ends exactly at the horizon.
    """
    if not (0.0 < horizon < np.inf and 0.0 < obs_step < np.inf):  # NaN fails
        raise ValueError("horizon and obs_step must be positive and finite")
    m = round(horizon / obs_step)
    if abs(horizon / obs_step - m) > 1e-9:
        raise ValueError(f"horizon {horizon} is not a multiple of obs_step {obs_step}")
    if m < 1:
        raise ValueError(f"obs_step {obs_step} leaves no grid point after 0 "
                         f"up to horizon {horizon}")
    return np.linspace(0.0, horizon, int(m) + 1)


def _grid_step(obs: np.ndarray) -> float:
    """Step of the arithmetic grid `obs`, else ValueError.

    Every point must lie within rounding of obs[0] + i * step.  A
    one-point grid has no step of its own; it takes max(t, 1), which
    only sizes its chunks.
    """
    if obs.ndim != 1 or len(obs) == 0 or not np.all(np.isfinite(obs)):
        raise ValueError("obs_times must be a nonempty list of finite times")
    if len(obs) == 1:
        return max(float(obs[0]), 1.0)
    step = float(obs[-1] - obs[0]) / (len(obs) - 1)
    drift = np.abs(obs - (obs[0] + step * np.arange(len(obs))))
    if not step > 0.0 or drift.max() > _GRID_RTOL * step:
        raise ValueError("obs_times must be an increasing arithmetic grid "
                         f"start + i * step, got {obs.tolist()[:6]}")
    return step


def _padded(obs: np.ndarray) -> np.ndarray:
    """obs with -inf before it and +inf after it: pad[i + 1] is obs[i]."""
    return np.concatenate(([-np.inf], obs, [np.inf]))


def _first_index(times: np.ndarray, pad: np.ndarray, step: float) -> np.ndarray:
    """np.searchsorted(obs, times, side="left") on an arithmetic grid.

    ceil((t - obs[0]) / step), clipped to [0, m], is within one of the
    answer because every point of the grid lies within rounding of its
    place (see `_grid_step`); one comparison each way against the padded
    grid `pad` moves it onto the answer.
    """
    est = times - pad[1]
    est /= step
    np.ceil(est, out=est)
    np.clip(est, 0.0, len(pad) - 2, out=est)
    i = est.astype(np.intp)
    i += np.take(pad[1:], i) < times
    i -= np.take(pad, i) >= times
    return i


def _wrap(pos: np.ndarray, half_side: float, out=None) -> np.ndarray:
    """Positions mapped into [-L, L) as np.mod(pos + L, 2L) - L.

    Written into `out` if given, a C-contiguous array that may be `pos`.
    np.mod is exact and the identity on [0, 2L), so it runs only on the
    entries that leave that interval, usually a small share.  Read as
    unsigned integers, the doubles in [0, 2L) are the ones below the bits
    of 2L, as a negative double has its sign bit set; -0.0 also goes
    through np.mod, which leaves its sum with -L unchanged.  np.mod rounds
    a tiny negative argument up to 2L itself, which is mapped to 0.
    """
    side = 2.0 * half_side
    y = np.add(pos, half_side, out=out)
    flat = y.reshape(-1)
    off = np.flatnonzero(flat.view(np.uint64) >= np.float64(side).view(np.uint64))
    if len(off):
        r = np.mod(np.take(flat, off), side)
        flat[off] = np.where(r == side, 0.0, r)
    y -= half_side
    return y


def _check_int(name: str, value, low: int) -> None:
    """ValueError unless `value` is an integer (not a bool) >= low."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _start_points(x0s, dim: int) -> np.ndarray:
    """Tree ancestors as an (R, dim) array with R >= 1, else ValueError."""
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[0] < 1 or x0s.shape[1] != dim:
        raise ValueError(f"x0s must have shape (R, {dim}), got {x0s.shape}")
    if not np.all(np.isfinite(x0s)):
        raise ValueError("x0s must be finite")
    return x0s


@dataclass
class BatchResult:
    """Per-replicate functional series from one batch of simulations."""

    obs_times: np.ndarray
    series: dict  # name -> array (replicates, len(obs_times))
    initial_counts: np.ndarray
    event_counts: np.ndarray  # particles created per replicate
    aborted: np.ndarray  # bool per replicate

    @property
    def replicates(self) -> int:
        return len(self.initial_counts)

    def ok(self, name: str) -> np.ndarray:
        """Series restricted to replicates that finished under the cap."""
        return self.series[name][~self.aborted]


@dataclass(frozen=True)
class BatchPlan:
    """One batch split into chunks that can run in any order and thread.

    `chunk(ci, out)` runs chunk ci into its rows of `out`, the batch's
    `empty_result`.  `cost` is the expected checkpoint rows of one
    replicate, the mean initial population (a martingale) times the
    checkpoints; it only orders the chunks in `run_plans`.
    """

    obs: np.ndarray
    sizes: list  # replicates per chunk
    names: list  # series names, the weights' keys
    cost: float
    chunk: Callable

    def empty_result(self) -> BatchResult:
        """The batch's result, zeroed, for its chunks to accumulate into."""
        n = sum(self.sizes)
        return BatchResult(self.obs, {k: np.zeros((n, len(self.obs))) for k in self.names},
                           *(np.zeros(n, dtype=t) for t in (np.int64, np.int64, bool)))


def _truncated_mean(law, horizon: float) -> float:
    """E[min(lifetime, horizon)], for sizing generation waves."""
    grid = np.linspace(0.0, horizon, 513)
    return float(np.trapezoid(1.0 - law.cdf(grid), grid))


def _chunk_sizes(replicates: int, wave_rows: float) -> list[int]:
    """Replicates per chunk: as few chunks as keep about `_CHUNK_TARGET`
    expected rows per wave, given `wave_rows` per replicate, and sizes
    that differ by at most one (the larger first), so a pool's chunks are
    even."""
    per = max(1, int(_CHUNK_TARGET / max(wave_rows, 1.0)))
    n = -(-replicates // per)
    small, larger = divmod(replicates, n)
    return [small + 1] * larger + [small] * (n - larger)


def _wave(kernel, law, rng, grid, horizon, half_side, p_two, gen, weights,
          acc, reps, ends):
    """Advance one generation; returns the next generation, or None.

    `grid` is (obs, step, padded obs).  `gen` is the list [birth times,
    birth positions, replicate index, index of the first checkpoint at or
    after birth] of the generation; positions wrap on the torus unless
    `half_side` is None.  A child's first checkpoint is its parent's
    first one after death.  Coins come before increments, so only
    splitting parents draw a death step (from their last checkpoint row,
    or birth), in the wave's one `sample_increments` call.

    Each weight in `weights` (all callables) is summed into `acc` over its
    nonzero rows only, which drops no bit: a sum that starts at +0.0
    passes a zero term through unchanged.  The population count goes into
    `ends`, if given, a difference array over the chunk's keys: +1 at each
    segment's first key, -1 just past its last (see `_run_chunk`).

    The wave owns its generation: it empties `gen`, so a caller that
    keeps the list keeps none of its arrays, and it frees each array
    after its last use.  Death times, first checkpoints after death and
    replicates are cut to the splitting parents' entries once the full
    arrays are used; birth times, first checkpoints and positions go once
    the time steps, segment keys, segment bases and parents' positions are
    built from them.  The checkpoint positions live in the increment
    buffer: its leading rows become them, running sums taken in place and
    then wrapped, and its trailing rows hold the death steps.  The
    children come back as a new list, which the next wave owns in turn.
    """
    obs, step, pad = grid
    m = len(obs)
    birth, pos, rep, i0 = gen
    gen.clear()
    death = np.asarray(law.sample(rng, size=len(birth)), dtype=float)
    death += birth
    i1 = _first_index(death, pad, step)
    parents = np.flatnonzero(death <= horizon)
    parents = np.take(parents, np.flatnonzero(rng.random(len(parents)) < p_two))

    # checkpoint rows: particle has[j] owns rows starts[j] .. starts[j] + kh[j]
    # - 1, the r-th of them at checkpoint i0 + r
    k = i1 - i0
    cum_k = np.cumsum(k)
    has = np.flatnonzero(k > 0)
    kh = np.take(k, has)
    starts = np.take(cum_k, has)
    starts -= kh
    total = int(cum_k[-1])
    # the parents that own checkpoint rows, and the last of those rows
    seen = np.flatnonzero(np.take(k, parents) > 0)
    last = np.take(cum_k, np.take(parents, seen)) - 1
    del k, cum_k
    i0_h = np.take(i0, has)
    del i0
    # time steps: one obs step per row, or the time since birth at segment
    # starts, then each parent's death step from its last checkpoint or birth
    dts = np.empty(total + len(parents))
    dts[:total] = step
    dts[starts] = np.take(obs, i0_h) - np.take(birth, has)
    # from here on only the splitting parents' deaths and checkpoints count;
    # obs[i1 - 1] is the last checkpoint if there is one, else before birth
    death = np.take(death, parents)
    i1 = np.take(i1, parents)
    t_last = np.maximum(np.take(pad, i1), np.take(birth, parents))
    del birth
    np.subtract(death, t_last, out=dts[total:])
    del t_last
    # a row's key is rep * m + its checkpoint; a segment's keys run from
    # `first` to `first + kh - 1`
    first = np.take(rep, has) * m + i0_h
    rep = np.take(rep, parents)
    del i0_h
    death_pos = np.take(pos, parents, axis=0)
    base = np.take(pos, has, axis=0)
    del pos, has
    inc = sample_increments(kernel, dts, rng)
    del dts
    # the positions: running sums of the increments, taken in place in the
    # leading `total` rows of `inc` one column at a time (a 2-D cumsum, like
    # np.repeat, holds the GIL, and two chunks of a pool then take turns)
    flat_pos = inc[:total]
    first_inc = np.take(flat_pos, starts, axis=0)
    for j in range(inc.shape[1]):
        np.cumsum(flat_pos[:, j], out=flat_pos[:, j])
    # a row sits at its running sum plus its birth position less `before`,
    # the running sum before its segment; seg is each row's segment
    before = np.take(flat_pos, starts, axis=0)
    before -= first_inc
    del first_inc
    base -= before
    del before
    seg = np.zeros(total, dtype=np.intp)
    seg[starts[1:]] = 1
    np.cumsum(seg, out=seg)
    for j in range(inc.shape[1]):
        flat_pos[:, j] += np.take(base[:, j], seg)
    del base, seg
    if half_side is not None:
        _wrap(flat_pos, half_side, out=flat_pos)

    if ends is not None:
        np.add.at(ends, first, 1)
        np.add.at(ends, first + kh, -1)
    del kh
    first -= starts  # row r of a segment has key first + r - its start
    for name, w in weights.items():
        val = w(flat_pos)
        if np.shape(val) != (total,):  # np.flatnonzero would flatten it
            raise ValueError(f"weight {name!r} gave shape {np.shape(val)} "
                             f"for {total} positions; it must give one value each")
        nz = np.flatnonzero(val)
        key = np.searchsorted(starts, nz, side="right")
        key -= 1
        key = np.take(first, key)
        key += nz
        acc[name] += np.bincount(key, weights=np.take(val, nz), minlength=reps * m)
        del val, nz, key
    del first, starts

    if len(parents) == 0:
        return None
    death_pos[seen] = np.take(flat_pos, last, axis=0)
    death_pos += inc[total:]
    del inc, flat_pos
    if half_side is not None:
        _wrap(death_pos, half_side, out=death_pos)
    twice = np.arange(2 * len(parents)) >> 1
    return [np.take(death, twice), np.take(death_pos, twice, axis=0),
            np.take(rep, twice), np.take(i1, twice)]


def _run_chunk(kernel, law, rng, obs, horizon, half_side, p_two,
               population_cap, gen, weights, acc, cum, aborted):
    """Run one chunk from its ancestors, the list `gen` = [positions,
    replicate index], all born at time 0.

    It adds into views of its rows of the batch: `acc` each series, flat,
    and `cum` (particles created) and `aborted` one entry per replicate.
    `_run_chunk` owns the ancestors: it empties `gen`, and each
    generation then lives only in the wave that advances it (`_wave`).
    A series whose weight is None is the population count: the waves mark
    where each particle's run of keys starts and ends, and one running sum
    of those marks, exact in integers, is added at the end.
    """
    reps = len(cum)
    calls = {k: w for k, w in weights.items() if w is not None}
    ends = (np.zeros(reps * len(obs) + 1, dtype=np.int64)
            if len(calls) < len(weights) else None)
    grid = (obs, _grid_step(obs), _padded(obs))
    pos, rep = gen
    gen.clear()
    birth = np.zeros(len(rep))
    gen = [birth, pos, rep, _first_index(birth, grid[2], grid[1])]
    del birth, pos, rep
    while gen is not None:
        cum += np.bincount(gen[2], minlength=reps)
        aborted |= cum > population_cap
        if aborted.any():
            keep = ~aborted[gen[2]]
            gen = [a[keep] for a in gen]
        if len(gen[0]) == 0:
            break
        gen = _wave(kernel, law, rng, grid, horizon, half_side, p_two, gen,
                    calls, acc, reps, ends)
    if ends is not None:
        count = np.cumsum(ends[:-1])
        for name, w in weights.items():
            if w is None:
                acc[name] += count


def _plan(kernel, law, ancestors, *, replicates, mean_n0, obs_times,
          half_side, seed, weights, p_two, population_cap, stream_key):
    """Check the grid, keys, counts and cap and size the chunks; nothing
    is drawn.

    `ancestors(rng, first, reps)` draws one chunk's initial population as
    (count per replicate, positions, replicate index per particle).
    """
    obs = np.asarray(obs_times, dtype=float)
    step = _grid_step(obs)
    horizon = float(obs[-1])
    weights = weights or {}
    _check_int("replicates", replicates, 1)
    _check_int("seed", seed, 0)
    _check_int("stream_key", stream_key, 0)
    _check_int("population_cap", population_cap, 1)
    if not 0.0 <= p_two <= 1.0:  # NaN fails this too
        raise ValueError(f"p_two must be in [0, 1], got {p_two}")
    if stream_key >= _KEY_WORD:
        raise ValueError(f"stream_key must be in [0, 2^32), got {stream_key}")
    sizes = _chunk_sizes(replicates,
                         mean_n0 * (_truncated_mean(law, horizon) / step + 2.0))
    if len(sizes) > _KEY_WORD:
        raise ValueError(f"{len(sizes)} chunks exceed the 2^32 chunk keys")
    firsts = np.cumsum([0, *sizes])

    def chunk(ci, out):
        rows = slice(firsts[ci], firsts[ci + 1])
        rng = replicate_stream(seed, stream_key, ci)
        counts, *gen = ancestors(rng, firsts[ci], sizes[ci])
        out.initial_counts[rows] = counts
        _run_chunk(kernel, law, rng, obs, horizon, half_side, p_two,
                   population_cap, gen, weights,
                   {k: s[rows].reshape(-1) for k, s in out.series.items()},
                   out.event_counts[rows], out.aborted[rows])

    return BatchPlan(obs, sizes, list(weights), mean_n0 * len(obs), chunk)


def run_plans(plans: list[BatchPlan], threads: int = 1) -> list[BatchResult]:
    """Allocate each batch's result once, then run every chunk of every
    plan into its rows of it, so a batch holds one copy of its series.

    The chunks go to one pool of `threads` workers, largest expected
    cost first, so the small batches of a ladder fill the time the
    large ones leave idle; at most `threads` chunks are alive at once.
    Every chunk draws from its own stream, so the results are identical
    whatever the order or the thread count.  A `threads` that is not an
    integer >= 1 raises ValueError before any chunk runs.
    """
    _check_int("threads", threads, 1)
    tasks = sorted(((plan.cost * reps, bi, ci) for bi, plan in enumerate(plans)
                    for ci, reps in enumerate(plan.sizes)), key=lambda t: -t[0])
    results = [plan.empty_result() for plan in plans]

    def run(task):
        plans[task[1]].chunk(task[2], results[task[1]])

    if threads > 1 and len(tasks) > 1:
        from concurrent.futures import ThreadPoolExecutor  # loaded with the first pool

        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, tasks))
    else:
        list(map(run, tasks))
    return results


def field_plan(kernel: StableKernel, law, *, replicates: int, obs_times,
               half_side: float, seed: int, intensity: float = 1.0,
               weights: dict | None = None, p_two: float = 0.5,
               population_cap: int = DEFAULT_POPULATION_CAP,
               stream_key: int = 0) -> BatchPlan:
    """Plan `replicates` independent Poisson fields on the torus [-L, L)^d.

    The fields run from time 0 to the last of `obs_times`, which must be
    an increasing arithmetic grid (ValueError, before anything is drawn).
    `weights` maps series names to vectorised functions of particle
    positions, or to None for the population count; each yields a
    (replicates, observations) matrix of sums over the live population,
    and the batch holds those series and no others.  The (rows, d)
    positions a weight receives are a view of a wave's buffer, valid only
    during the call: a weight that keeps them must copy them, and it must
    return one value per row (ValueError otherwise).  Chunk ci
    draws from `replicate_stream(seed, stream_key, ci)`, so batches with distinct
    `stream_key`s in [0, 2^32) share one seed without overlap.  A
    `half_side` that is not positive and finite, an `intensity` that is
    not nonnegative and finite, a `replicates` or `population_cap` that is
    not an integer >= 1, or a `seed` or `stream_key` that is not an
    integer >= 0 raises ValueError before any draw.
    """
    if not 0.0 < half_side < np.inf:
        raise ValueError(f"half_side must be positive and finite, got {half_side}")
    if not 0.0 <= intensity < np.inf:
        raise ValueError(f"intensity must be nonnegative and finite, got {intensity}")
    d = kernel.dim
    mean_n0 = intensity * (2.0 * half_side) ** d

    def ancestors(rng, first, reps):
        counts = rng.poisson(mean_n0, size=reps)
        rep = np.repeat(np.arange(reps), counts)
        pos = rng.uniform(-half_side, half_side, size=(len(rep), d))
        return counts, pos, rep

    return _plan(kernel, law, ancestors, replicates=replicates,
                 mean_n0=mean_n0, obs_times=obs_times, half_side=half_side,
                 seed=seed, weights=weights, p_two=p_two,
                 population_cap=population_cap, stream_key=stream_key)


def _with_count(weights: dict | None) -> dict:
    """The caller's weights plus the population count under "count"."""
    weights = weights or {}
    if "count" in weights:
        raise ValueError('"count" names the population-count series; '
                         "give the weight another name")
    return {**weights, "count": None}


def field_batch(kernel: StableKernel, law, *, threads: int = 1,
                weights: dict | None = None, **plan_args) -> BatchResult:
    """Simulate the fields `field_plan` plans, on `threads` workers.

    The result holds the weights' series and the population count under
    "count"; a weight of that name raises ValueError.
    """
    plan = field_plan(kernel, law, weights=_with_count(weights), **plan_args)
    return run_plans([plan], threads)[0]


def tree_batch(kernel: StableKernel, law, x0s, *, obs_times, seed: int,
               weights: dict | None = None, p_two: float = 0.5,
               population_cap: int = DEFAULT_POPULATION_CAP,
               stream_key: int = 0, threads: int = 1) -> BatchResult:
    """Simulate one free-space tree per row of `x0s` (shape (R, dim)).

    The trees run from time 0 to the last of `obs_times`, an increasing
    arithmetic grid as in `field_plan`.  The result holds the weights'
    series and the population count under "count"; a weight of that
    name raises ValueError.
    """
    x0s = _start_points(x0s, kernel.dim)
    weights = _with_count(weights)

    def ancestors(rng, first, reps):
        return (np.ones(reps, dtype=np.int64), x0s[first : first + reps],
                np.arange(reps))

    plan = _plan(kernel, law, ancestors, replicates=len(x0s), mean_n0=1.0,
                 obs_times=obs_times, half_side=None, seed=seed,
                 weights=weights, p_two=p_two, population_cap=population_cap,
                 stream_key=stream_key)
    return run_plans([plan], threads)[0]
