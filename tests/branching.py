"""Critical binary branching particle systems, event-driven reference engine.

Particles move by stable increments, live a random lifetime, and at
death split into two newborns at the death site with probability
`p_two`, or vanish otherwise.  The engine processes deaths through a
priority queue ordered by death time, one particle at a time,
materialising positions lazily: only at observation checkpoints and at
death times.

`simulate_tree` starts one free-space ancestor per row of `x0s`;
`simulate_field` starts a Poisson(intensity x Lebesgue) population on
the torus [-L, L)^d.  Both take the arguments of their `fastsim`
counterparts, less the chunking controls, and return the same
`BatchResult`, so tests compare the two engines on one functional.
Replicate i draws from `replicate_stream(seed, i)`.

This engine favours auditability over speed; `fastsim` reproduces the
same law for the experiment campaigns, and this module lives with the
tests as the independent oracle its batches are checked against.
"""

from __future__ import annotations

import heapq

import numpy as np

from stablebranch.fastsim import (
    DEFAULT_POPULATION_CAP,
    BatchResult,
    _start_points,
    _wrap,
    replicate_stream,
)
from stablebranch.stable_motion import StableKernel, sample_increments


class _CapExceeded(Exception):
    """A replicate created more particles than its population cap."""


class _Population:
    """One replicate: its death queue and its positions per checkpoint."""

    def __init__(self, kernel, law, obs, horizon, rng, half_side, p_two, cap):
        self.kernel = kernel
        self.law = law
        self.obs = obs
        self.horizon = horizon
        self.rng = rng
        self.half_side = half_side
        self.p_two = p_two
        self.cap = cap
        self.snaps = [[] for _ in obs]
        self.heap = []
        self.born = 0

    def spawn(self, birth_time, position, lifetime=None):
        """Create a particle, record it at its checkpoints, queue its death."""
        pid = self.born
        self.born += 1
        if self.born > self.cap:
            raise _CapExceeded
        if lifetime is None:
            lifetime = float(self.law.sample(self.rng))
        death_time = birth_time + lifetime
        i0 = int(np.searchsorted(self.obs, birth_time, side="left"))
        i1 = int(np.searchsorted(self.obs, death_time, side="left"))
        breeds = death_time <= self.horizon
        ends = self.obs[i0:i1]
        if breeds:
            ends = np.append(ends, death_time)
        if len(ends) == 0:
            return
        dts = np.diff(ends, prepend=birth_time)
        path = position + np.cumsum(sample_increments(self.kernel, dts, self.rng),
                                    axis=0)
        if self.half_side is not None:
            path = _wrap(path, self.half_side)
        for j in range(i1 - i0):
            self.snaps[i0 + j].append(path[j])
        if breeds:
            heapq.heappush(self.heap, (death_time, pid, path[-1]))

    def run(self):
        while self.heap:
            death_time, _, site = heapq.heappop(self.heap)
            if self.rng.random() < self.p_two:
                self.spawn(death_time, site)
                self.spawn(death_time, site)


def _simulate(kernel, law, ancestors, *, replicates, obs_times, half_side,
              seed, weights, p_two, population_cap) -> BatchResult:
    """Run each replicate on its own stream and sum the weights per checkpoint.

    `ancestors(rng, i)` draws replicate i's initial positions and
    lifetimes (None: drawn at spawn).
    """
    obs = np.asarray(obs_times, dtype=float)
    horizon = float(obs[-1])
    weights = {**(weights or {}), "count": lambda p: np.ones(len(p))}
    series = {name: np.zeros((replicates, len(obs))) for name in weights}
    initial = np.zeros(replicates, dtype=np.int64)
    born = np.zeros(replicates, dtype=np.int64)
    aborted = np.zeros(replicates, dtype=bool)
    for i in range(replicates):
        rng = replicate_stream(seed, i)
        pop = _Population(kernel, law, obs, horizon, rng, half_side, p_two,
                          population_cap)
        starts, lifetimes = ancestors(rng, i)
        initial[i] = len(starts)
        try:
            for x, life in zip(starts, lifetimes):
                pop.spawn(0.0, x, life)
            pop.run()
        except _CapExceeded:
            aborted[i] = True
        born[i] = pop.born
        for j, snap in enumerate(pop.snaps):
            if snap:
                pts = np.array(snap)
                for name, w in weights.items():
                    series[name][i, j] = np.sum(w(pts))
    return BatchResult(obs_times=obs, series=series, initial_counts=initial,
                       event_counts=born, aborted=aborted)


def simulate_tree(kernel: StableKernel, law, x0s, *, obs_times, seed: int,
                  weights: dict | None = None, p_two: float = 0.5,
                  population_cap: int = DEFAULT_POPULATION_CAP) -> BatchResult:
    """Reference `tree_batch`: one free-space tree per row of `x0s`."""
    x0s = _start_points(x0s, kernel.dim)
    return _simulate(kernel, law, lambda rng, i: (x0s[i : i + 1], [None]),
                     replicates=len(x0s), obs_times=obs_times, half_side=None,
                     seed=seed, weights=weights, p_two=p_two,
                     population_cap=population_cap)


def simulate_field(kernel: StableKernel, law, *, replicates: int, obs_times,
                   half_side: float, seed: int, intensity: float = 1.0,
                   weights: dict | None = None, p_two: float = 0.5,
                   population_cap: int = DEFAULT_POPULATION_CAP) -> BatchResult:
    """Reference `field_batch`: Poisson fields on the torus [-L, L)^d."""
    d = kernel.dim
    mean_n0 = intensity * (2.0 * half_side) ** d

    def ancestors(rng, i):
        count = int(rng.poisson(mean_n0))
        starts = rng.uniform(-half_side, half_side, size=(count, d))
        return starts, law.sample(rng, size=count)

    return _simulate(kernel, law, ancestors, replicates=replicates,
                     obs_times=obs_times, half_side=half_side, seed=seed,
                     weights=weights, p_two=p_two,
                     population_cap=population_cap)
