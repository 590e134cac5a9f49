"""Workload definitions shared by `run.py` and its worker.

This module is plain data: `run.py` imports it without importing
`stablebranch`, so that set-up time is only ever paid inside a worker.

Every workload runs frozen inputs.  The correctness gates of the
Monte Carlo workloads are the program's own 3-sigma tests, so a fresh
random seed per benchmark run would fail about one run in a hundred by
design; the acceptance suite's frozen seeds are used instead (ROADMAP:
"acceptance seeds and budgets stay frozen").
"""

from __future__ import annotations

# Criterion-2 heavy-tail ladder (tests/test_acceptance.py), fewer replicates.
LLN_HEAVY_D1 = {
    "kind": "lln_heavy_intermediate",
    "alpha": 1.5,
    "dim": 1,
    "lifetime": {"type": "pareto", "gamma": 0.5},
    "phi": {"shape": "bump", "center": [0.0], "radius": 1.0},
    "horizons": [25, 50, 100, 200],
    "replicates": 200,
    "window_scale": 2.0,
    "obs_step": 0.5,
    "seed": 201,
    "label": "decay-d1-a15-g05",
}

# Criterion-2 finite-mean ladder.  68 replicates make exactly two
# 34-replicate chunks at T = 200, so both pool threads get equal work.
LLN_FINITE_D3 = {
    "kind": "lln_finite_mean",
    "alpha": 2.0,
    "dim": 3,
    "lifetime": {"type": "exponential", "rate": 1.0},
    "phi": {"shape": "bump", "center": [0.0, 0.0, 0.0], "radius": 1.0},
    "horizons": [25, 50, 100, 200],
    "replicates": 68,
    "window_scale": 0.4,
    "obs_step": 1.0,
    "seed": 202,
    "label": "decay-d3-a2-exp",
}

VALIDATE_SEEDS = (0, 1, 2)  # the criterion-7 traffic
VALIDATE_CHECKS = 11  # rows per `stablebranch validate` run

# One entry per workload (BENCHMARK.json says why each was chosen).
# `invocations` lists the CLI argument vectors, one fresh process each;
# the worker fills in "{config}" and "{out}".  `moments` calls the
# library directly instead.
WORKLOADS = {
    "lln_heavy_d1": {
        "threads": 1,
        "seeds": [LLN_HEAVY_D1["seed"]],
        "config": LLN_HEAVY_D1,
        "invocations": [["lln", "--config", "{config}", "--threads", "1",
                         "--out", "{out}"]],
    },
    "lln_finite_d3": {
        "threads": 2,
        "seeds": [LLN_FINITE_D3["seed"]],
        "config": LLN_FINITE_D3,
        "invocations": [["lln", "--config", "{config}", "--threads", "2",
                         "--out", "{out}"]],
    },
    "moments": {
        "threads": 1,
        "seeds": [],
        "config": None,
        "invocations": [None],
    },
    "validate": {
        "threads": 1,
        "seeds": list(VALIDATE_SEEDS),
        "config": None,
        "invocations": [["validate", "--seed", str(s), "--threads", "1",
                         "--out", "{out}"] for s in VALIDATE_SEEDS],
    },
}

# Seed-recorded values of the deterministic moment formulas, and the
# relative tolerance each must meet.  Going from r_points 5 to 9 moves the
# tree moment by 0.18%, so 1e-3 catches a change of discretisation while
# admitting a more accurate semigroup route.
MOMENT_REFERENCES = {
    "occupation_variance_d1": (5718.570600846005, 1e-4),
    "occupation_variance_d3": (239.79994109527934, 1e-4),
    "tree_second_moment": (0.1322432084539077, 1e-3),
}

# Free-space pair correlation, Fourier route against the real-space route.
PAIR_CORRELATION_LAGS = ((1.5, 1.0), (2.0, 0.5), (2.0, 2.0))  # (alpha, u), d=1
PAIR_CORRELATION_RTOL = 1e-6


def operations_per_invocation(name: str) -> int:
    """Operations one invocation attempts: its unit of work times count."""
    if name == "moments":
        return 3 + len(MOMENT_REFERENCES) + len(PAIR_CORRELATION_LAGS)
    if name == "validate":
        return VALIDATE_CHECKS
    cfg = WORKLOADS[name]["config"]  # lln: replicate-horizons
    return cfg["replicates"] * len(cfg["horizons"])
