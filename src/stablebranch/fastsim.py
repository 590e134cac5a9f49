"""Batched generation-wave simulator.

All replicates of a batch advance together, one generation per step,
with every random draw vectorised.  Positions are only ever
materialised at observation checkpoints and death times, as flat
arrays indexed by (particle, checkpoint).  A generation's state carries
the index of each particle's first checkpoint, inherited from its
parent's death, so a wave runs one `searchsorted`; rows move between
per-particle and per-checkpoint arrays by `np.take` on integer indices.

The output is not a trajectory; it is a set of per-replicate time
series sum_i w(x_i(t)) for caller-chosen weight functions w, which is
all the occupation statistics need.  A population-count series is
always included under the name "count".  The event-driven engine in
`branching` returns the same `BatchResult` and serves as the reference
these batches are tested against.

Replicates are grouped into fixed-size chunks, each with its own stream
keyed by (seed, stream key, chunk index).  Chunk size depends only on
the configuration, so results are reproducible regardless of how chunks
are dispatched across workers.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .stable_motion import StableKernel, sample_increments

DEFAULT_POPULATION_CAP = 10**7
_CHUNK_TARGET = 150_000  # particles per chunk wave, roughly
# SeedSequence splits each spawn-key part into 32-bit words and joins them,
# so (2**32 + 1, 1) and (1, 2**32 + 1) are the same stream.  Keeping both
# parts of a chunk key below 2^32 makes every chunk key exactly two words:
# distinct from each other and from one-word auxiliary keys.
_KEY_WORD = 1 << 32


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
    step, so the grid always ends exactly at the horizon.
    """
    if horizon <= 0.0 or obs_step <= 0.0:
        raise ValueError("horizon and obs_step must be positive")
    m = round(horizon / obs_step)
    if abs(horizon / obs_step - m) > 1e-9:
        raise ValueError(f"horizon {horizon} is not a multiple of obs_step {obs_step}")
    return np.linspace(0.0, horizon, int(m) + 1)


def _wrap(pos: np.ndarray, half_side: float) -> np.ndarray:
    """Positions mapped into [-L, L) as np.mod(pos + L, 2L) - L.

    np.mod is exact and the identity on [0, 2L), so it runs only on the
    entries that leave that interval, usually a small share.  It rounds
    a tiny negative argument up to 2L itself, which is mapped to 0.
    """
    side = 2.0 * half_side
    y = pos + half_side
    flat = y.reshape(-1)
    out = np.flatnonzero((flat < 0.0) | (flat >= side))
    if len(out):
        r = np.mod(np.take(flat, out), side)
        flat[out] = np.where(r == side, 0.0, r)
    y -= half_side
    return y


def _start_points(x0s, dim: int) -> np.ndarray:
    """Tree ancestors as an (R, dim) array with R >= 1, else ValueError."""
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[0] < 1 or x0s.shape[1] != dim:
        raise ValueError(f"x0s must have shape (R, {dim}), got {x0s.shape}")
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


def _truncated_mean(law, horizon: float) -> float:
    """E[min(lifetime, horizon)], for sizing generation waves."""
    grid = np.linspace(0.0, horizon, 513)
    return float(np.trapezoid(law.sf(grid), grid))


def _chunk_sizes(replicates: int, wave_rows: float) -> list[int]:
    per = max(1, int(_CHUNK_TARGET / max(wave_rows, 1.0)))
    sizes = []
    left = replicates
    while left > 0:
        take = min(per, left)
        sizes.append(take)
        left -= take
    return sizes


def _map_chunks(fn, sizes, threads):
    """Run fn(chunk_index, chunk_size) for every chunk, in chunk order.

    Results are collected by chunk index, so the aggregation is
    identical whatever the worker count.
    """
    if threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(len(sizes)), sizes))
    return [fn(ci, reps) for ci, reps in enumerate(sizes)]


def _wave(kernel, law, rng, obs, horizon, half_side, p_two, state, weights,
          acc, m, reps):
    """Advance one generation; returns the next generation's state.

    `state` is (birth times, birth positions, replicate index, index of
    the first checkpoint at or after birth) of the generation; positions
    wrap on the torus unless `half_side` is None.  A child's first
    checkpoint is its parent's first one after death, so each wave runs
    one `searchsorted`.  Coins come before increments, so only splitting
    parents draw a death step (from their last checkpoint row, or birth),
    in the wave's one `sample_increments` call.  Rows are gathered with
    `np.take` on integer indices.
    """
    birth, pos, rep, i0 = state
    n = len(birth)
    death = birth + np.asarray(law.sample(rng, size=n), dtype=float)
    i1 = np.searchsorted(obs, death, side="left")
    parents = np.flatnonzero(death <= horizon)
    parents = np.take(parents, np.flatnonzero(rng.random(len(parents)) < p_two))

    # checkpoint rows: particle has[j] owns rows starts[j] .. ends[j] - 1,
    # the r-th of them at checkpoint i0 + r and key rep * m + i0 + r
    k = i1 - i0
    cum_k = np.cumsum(k)
    has = np.flatnonzero(k)
    kh = np.take(k, has)
    ends = np.take(cum_k, has)
    starts = ends - kh
    row_of = np.repeat(np.arange(len(has)), kh)
    i0_h = np.take(i0, has)
    key = np.take(np.take(rep, has) * m + (i0_h - starts), row_of)
    key += np.arange(len(row_of))
    # time since the previous checkpoint, or since birth at segment starts,
    # then each parent's death step from its last checkpoint or its birth
    dt = np.take(np.tile(np.diff(obs, prepend=obs[0]), reps), key)
    dt[starts] = np.take(obs, i0_h) - np.take(birth, has)
    k_p = np.take(k, parents)
    t_last = np.where(k_p > 0, np.take(obs, np.take(i1, parents) - 1),
                      np.take(birth, parents))
    inc = sample_increments(kernel, np.concatenate(
        [dt, np.take(death, parents) - t_last]), rng)
    inc_death = inc[len(dt):]
    inc = inc[: len(dt)]
    cs = np.cumsum(inc, axis=0)
    before = np.take(cs, starts, axis=0) - np.take(inc, starts, axis=0)
    # a row sits at its running sum plus its birth position less `before`
    flat_pos = np.take(np.take(pos, has, axis=0) - before, row_of, axis=0)
    flat_pos += cs
    if half_side is not None:
        flat_pos = _wrap(flat_pos, half_side)

    for name, w in weights.items():
        acc[name] += np.bincount(key, weights=w(flat_pos), minlength=reps * m)
    acc["count"] += np.bincount(key, minlength=reps * m)

    if len(parents) == 0:
        return None
    death_pos = np.take(pos, parents, axis=0)
    seen = np.flatnonzero(k_p)
    death_pos[seen] = np.take(flat_pos, np.take(cum_k, np.take(parents, seen)) - 1,
                              axis=0)
    death_pos += inc_death
    if half_side is not None:
        death_pos = _wrap(death_pos, half_side)
    twice = np.repeat(np.arange(len(parents)), 2)
    parents = np.take(parents, twice)
    return (np.take(death, parents), np.take(death_pos, twice, axis=0),
            np.take(rep, parents), np.take(i1, parents))


def _run_chunk(kernel, law, rng, obs, horizon, half_side, p_two,
               population_cap, state, weights, reps):
    """Run one chunk from its ancestors' (birth, position, replicate) state."""
    m = len(obs)
    acc = {name: np.zeros(reps * m) for name in [*weights, "count"]}
    cum = np.zeros(reps, dtype=np.int64)
    aborted = np.zeros(reps, dtype=bool)
    state = (*state, np.searchsorted(obs, state[0], side="left"))
    while state is not None:
        cum += np.bincount(state[2], minlength=reps)
        aborted |= cum > population_cap
        if aborted.any():
            keep = ~aborted[state[2]]
            state = tuple(a[keep] for a in state)
        if len(state[0]) == 0:
            break
        state = _wave(kernel, law, rng, obs, horizon, half_side, p_two, state,
                      weights, acc, m, reps)
    series = {name: a.reshape(reps, m) for name, a in acc.items()}
    return series, cum, aborted


def _batch(kernel, law, ancestors, *, replicates, mean_n0, obs_times,
           half_side, seed, weights, p_two, population_cap, stream_key, threads):
    """Chunk the replicates, run the chunks, and join their series.

    `ancestors(rng, first, reps)` draws one chunk's initial population as
    (count per replicate, positions, replicate index per particle).
    """
    obs = np.asarray(obs_times, dtype=float)
    horizon = float(obs[-1])
    weights = weights or {}
    step = obs[1] - obs[0] if len(obs) > 1 else max(horizon, 1.0)
    if not 0 <= stream_key < _KEY_WORD:
        raise ValueError(f"stream_key must be in [0, 2^32), got {stream_key}")
    sizes = _chunk_sizes(replicates,
                         mean_n0 * (_truncated_mean(law, horizon) / step + 2.0))
    if len(sizes) > _KEY_WORD:
        raise ValueError(f"{len(sizes)} chunks exceed the 2^32 chunk keys")
    firsts = np.cumsum([0, *sizes])

    def _do(ci, reps):
        rng = replicate_stream(seed, stream_key, ci)
        counts, pos, rep = ancestors(rng, firsts[ci], reps)
        state = (np.zeros(len(rep)), pos, rep)
        return (counts, *_run_chunk(kernel, law, rng, obs, horizon, half_side,
                                    p_two, population_cap, state, weights, reps))

    counts, series, cum, aborted = zip(*_map_chunks(_do, sizes, threads))
    return BatchResult(
        obs_times=obs,
        series={k: np.concatenate([s[k] for s in series]) for k in series[0]},
        initial_counts=np.concatenate(counts),
        event_counts=np.concatenate(cum),
        aborted=np.concatenate(aborted),
    )


def field_batch(kernel: StableKernel, law, *, replicates: int, obs_times,
                half_side: float, seed: int, intensity: float = 1.0,
                weights: dict | None = None, p_two: float = 0.5,
                population_cap: int = DEFAULT_POPULATION_CAP,
                stream_key: int = 0, threads: int = 1) -> BatchResult:
    """Simulate `replicates` independent Poisson fields on the torus [-L, L)^d.

    The fields run from time 0 to the last of the increasing `obs_times`.
    `weights` maps series names to vectorised functions of particle
    positions; each yields a (replicates, observations) matrix of
    sums over the live population.  Chunk ci draws from
    `replicate_stream(seed, stream_key, ci)`, so batches with distinct
    `stream_key`s in [0, 2^32) share one seed without overlap.
    """
    d = kernel.dim
    mean_n0 = intensity * (2.0 * half_side) ** d

    def ancestors(rng, first, reps):
        counts = rng.poisson(mean_n0, size=reps)
        rep = np.repeat(np.arange(reps), counts)
        pos = rng.uniform(-half_side, half_side, size=(len(rep), d))
        return counts, pos, rep

    return _batch(kernel, law, ancestors, replicates=replicates,
                  mean_n0=mean_n0, obs_times=obs_times, half_side=half_side,
                  seed=seed, weights=weights, p_two=p_two,
                  population_cap=population_cap, stream_key=stream_key,
                  threads=threads)


def tree_batch(kernel: StableKernel, law, x0s, *, obs_times, seed: int,
               weights: dict | None = None, p_two: float = 0.5,
               population_cap: int = DEFAULT_POPULATION_CAP,
               stream_key: int = 0, threads: int = 1) -> BatchResult:
    """Simulate one free-space tree per row of `x0s` (shape (R, dim)).

    The trees run from time 0 to the last of the increasing `obs_times`.
    """
    x0s = _start_points(x0s, kernel.dim)

    def ancestors(rng, first, reps):
        return (np.ones(reps, dtype=np.int64), x0s[first : first + reps],
                np.arange(reps))

    return _batch(kernel, law, ancestors, replicates=len(x0s), mean_n0=1.0,
                  obs_times=obs_times, half_side=None, seed=seed,
                  weights=weights, p_two=p_two,
                  population_cap=population_cap, stream_key=stream_key,
                  threads=threads)
