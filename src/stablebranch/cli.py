"""Command-line front end.

One table, ``_COMMANDS``, gives each subcommand its help, config table,
builder and runner, and the parser and `main` read it.  ``validate``
runs the self-check battery, ``lln`` and ``occupancy`` horizon ladders,
``covariance`` compares analytic second moments with Monte Carlo,
``renewal`` and ``density`` tabulate the numerical kernels, and
``simulate`` dumps raw observation series.  Each writes CSV to ``--out``
(or stdout); exit code 0 is success, 1 a failed check or experiment
row, and 2 a configuration error, among them a configuration whose
numerical integral cannot meet its tolerance (QuadratureError).

A subcommand's JSON config is read against one table, and so is each
nested object: the lifetime (one table per ``type``), ``phi``, ``psi``
and ``ball``.  ``lln`` takes the four LLN kinds and ``phi``,
``occupancy`` the occupancy kind and its ``ball``.  A table gives every
key one kind (a finite number, a positive number, an integer >= n, a
list, a string, one of a list of names) and a default, and
every refusal names the key's full path, such as ``lifetime.type`` or
``phi.center[1]``: a value of another kind, a missing required key, a
key the table does not hold.  An optional key given as null is absent; a
required one is refused.  Range checks made by the library constructors
stay theirs, and a ValueError from one is reported against the path of
the object it builds.  Seeds resolve as: ``--seed`` flag, then the
config file, then the ``STABLEBRANCH_SEED`` environment variable, then
0; each must be an integer >= 0.  ``--seed`` and ``--threads`` are taken
by ``validate`` and each subcommand whose table has ``seed``,
``--config`` with a table, ``--replicates`` with a table that has it.
``--threads`` must be at least 1, ``--p-two`` lie in [0, 1], and every
config number be finite (no NaN, Infinity, or a literal such as 1e400
that overflows a double).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import astuple

import numpy as np

from .errors import ConfigError, QuadratureError, RegimeError
from .experiments import (
    CHECK_COLUMNS,
    EXPERIMENT_KINDS,
    RESULT_COLUMNS,
    ExperimentConfig,
    pair_grid,
    run_covariance_comparison,
    run_experiment,
    run_validation_suite,
    write_table,
)
from .fastsim import field_batch, obs_grid
from .lifetimes import Exponential, Gamma, ParetoTail, make_pareto_tail
from .occupation import TestFunction, check_inside_window
from .renewal import build_renewal
from .stable_motion import StableKernel, transition_density_radial

ENV_SEED = "STABLEBRANCH_SEED"
_MAX_DENSITY_POINTS = 1 << 20  # radii a density table may take
_REQUIRED = object()  # the default of a key that a config must give


def _kind(what: str, test, cast=float):
    """A scalar kind: a JSON value that passes `test`, cast; else refused."""
    def check(value, path, done):
        if not test(value):
            raise ConfigError(f"{path} must be {what}, got {value!r}")
        return cast(value)
    return check


def _finite(value) -> bool:
    """A JSON number short of overflow (1e400 parses as inf); a bool is none."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _integer(least: int):
    return _kind(f"an integer >= {least}",
                 lambda v: _finite(v) and float(v).is_integer() and v >= least, int)


def _one_of(names):
    return _kind(f"one of {list(names)}", lambda v: isinstance(v, str) and v in names, str)


def _list(of, size: int | None = None):
    """A JSON list of values of kind `of`, of `size` entries when given."""
    def check(value, path, done):
        if not (isinstance(value, list) and size in (None, len(value))):
            what = f"a list of {size} entries" if size else "a list"
            raise ConfigError(f"{path} must be {what}, got {value!r}")
        return [of(v, f"{path}[{i}]", done) for i, v in enumerate(value)]
    return check


_NUMBER = _kind("a finite number", _finite)
_POSITIVE = _kind("a positive number", lambda v: _finite(v) and v > 0)
_STRING = _kind("a string", lambda v: isinstance(v, str), str)
_SEED = _integer(0)


def _walk(obj, table: dict, path: str) -> dict:
    """The values of config object `obj` under `table`, key -> (kind, default).

    Each key is checked by its kind, in table order, and `done` hands a
    kind the values before it.  An absent or null key takes its default,
    or is refused if it has none; so is a key the table does not hold.
    """
    where = path or "config"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {obj!r}")
    done = {}
    for key, (kind, default) in table.items():
        at = f"{path}.{key}" if path else key
        if obj.get(key) is not None:
            done[key] = kind(obj[key], at, done)
        elif default is _REQUIRED:
            raise ConfigError(f"config key {at!r} is required, "
                              f"got {'null' if key in obj else 'nothing'}")
        else:
            done[key] = default
    unknown = [f"{path}.{key}" if path else key for key in sorted(set(obj) - set(table))]
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}; {where} takes {sorted(table)}")
    return done


def _build(path: str, make, *args, **kwargs):
    """`make(...)`, its ValueError (or overflow) reported against `path`."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


# lifetime type -> (table of its other keys, the law it builds)
_LAWS = {
    "exponential": ({"rate": (_NUMBER, 1.0)}, Exponential),
    "gamma": ({"shape": (_NUMBER, _REQUIRED), "rate": (_NUMBER, 1.0)}, Gamma),
    "pareto": ({"gamma": (_NUMBER, _REQUIRED), "scale": (_NUMBER, None)},
               lambda gamma, scale: (make_pareto_tail(gamma) if scale is None
                                     else ParetoTail(gamma, scale))),
}
_LAW_TYPE = _one_of(_LAWS)


def _lifetime(value, path, done):
    """A lifetime law: its "type" picks the table of its other keys."""
    name = value.get("type") if isinstance(value, dict) else None
    table, law = _LAWS[name] if isinstance(name, str) and name in _LAWS else ({}, None)
    values = _walk(value, {"type": (_LAW_TYPE, _REQUIRED), **table}, path)
    del values["type"]
    return _build(path, law, **values)


def _test_function(table: dict):
    """Kind of a test function of the config's `dim`: `center` defaults to
    the origin, and a table without `shape` builds an indicator."""
    def check(value, path, done):
        values, dim = _walk(value, table, path), done["dim"]
        if values["center"] is None:
            values["center"] = [0.0] * dim
        elif len(values["center"]) != dim:
            raise ConfigError(f"{path}.center must have {dim} coordinates")
        return _build(path, TestFunction, **{"shape": "indicator", **values})
    return check


_BALL_KEYS = {"center": (_list(_NUMBER), None), "radius": (_NUMBER, 1.0)}
_PHI = _test_function({"shape": (_STRING, "bump"), **_BALL_KEYS})
_SYSTEM = {"alpha": (_NUMBER, _REQUIRED), "dim": (_integer(1), _REQUIRED),
           "lifetime": (_lifetime, _REQUIRED)}
_LADDER = {
    "horizons": (_list(_NUMBER), _REQUIRED), "replicates": (_integer(2), 1000),
    "half_side": (_NUMBER, None), "window_scale": (_NUMBER, None),
    "obs_step": (_NUMBER, 0.5), "intensity": (_NUMBER, 1.0),
    "seed": (_SEED, None), "label": (_STRING, "")}
_LLN = {"kind": (_one_of([k for k in EXPERIMENT_KINDS if k != "occupancy_subcritical"]),
                 _REQUIRED), **_SYSTEM, "phi": (_PHI, None), **_LADDER}
_OCCUPANCY = {"kind": (_one_of(["occupancy_subcritical"]), _REQUIRED), **_SYSTEM,
              "ball": (_test_function(_BALL_KEYS), None), **_LADDER}
_COVARIANCE = {
    **_SYSTEM, "phi": (_PHI, _REQUIRED), "psi": (_PHI, None),
    "pairs": (_list(_list(_NUMBER, 2)), _REQUIRED), "half_side": (_POSITIVE, _REQUIRED),
    "replicates": (_integer(2), 20_000), "seed": (_SEED, None)}
_RENEWAL = {"lifetime": (_lifetime, _REQUIRED), "horizon": (_POSITIVE, _REQUIRED),
            "grid_step": (_POSITIVE, _REQUIRED)}
_DENSITY = {"alpha": (_NUMBER, _REQUIRED), "dim": (_integer(1), _REQUIRED),
            "t": (_POSITIVE, _REQUIRED), "r_max": (_POSITIVE, None),
            "points": (_integer(1), 101)}
_SIMULATE = {
    **_SYSTEM, "horizon": (_NUMBER, _REQUIRED), "obs_step": (_NUMBER, 0.5),
    "half_side": (_POSITIVE, _REQUIRED), "phi": (_PHI, None),
    "replicates": (_integer(1), 1), "seed": (_SEED, None), "intensity": (_NUMBER, 1.0)}


def _refuse_constant(name: str):
    raise ConfigError(f"config holds {name}; every number must be finite")


def _env_seed() -> int:
    """The seed in the environment, else 0."""
    env = os.environ.get(ENV_SEED, "0")
    try:
        return _SEED(int(env), ENV_SEED, None)
    except ValueError as exc:
        raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from exc


def _load(args, table: dict, build):
    """`build` called with the values of the --config file under `table`.

    The --replicates and --seed flags stand in for the config's own keys;
    with neither, the seed comes from the environment.
    """
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if isinstance(cfg, dict):
        for key in ("replicates", "seed"):  # the parser follows the table
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
        if "seed" in table and cfg.get("seed") is None:
            cfg["seed"] = _env_seed()
    return _build("", build, **_walk(cfg, table, ""))


def _experiment(*, alpha, dim, lifetime, **values):
    return ExperimentConfig(kernel=StableKernel(alpha, dim), law=lifetime, **values)


def _occupancy(*, ball, **values):
    return _experiment(phi=ball, **values)  # the occupancy target is a ball


def _covariance(*, alpha, dim, lifetime, phi, psi, pairs, half_side, **values):
    pairs = [tuple(pair) for pair in pairs]
    if not (pairs and all(0 <= s <= t for s, t in pairs)):
        raise ConfigError("pairs must be a nonempty list of [s, t], 0 <= s <= t")
    pair_grid(pairs)  # the batch's grid: refuse pairs without a common step
    psi = phi if psi is None else psi
    for path, f in (("phi", phi), ("psi", psi)):
        _build(path, check_inside_window, half_side, f)
    return dict(kernel=StableKernel(alpha, dim), law=lifetime, phi=phi, psi=psi,
                pairs=pairs, half_side=half_side, **values)


def _renewal(*, lifetime, horizon, grid_step):
    return build_renewal(lifetime, horizon, grid_step)


def _density(*, alpha, dim, t, r_max, points):
    if points > _MAX_DENSITY_POINTS:
        raise ConfigError(f"points must be at most {_MAX_DENSITY_POINTS}, got {points}")
    kernel = StableKernel(alpha, dim)
    r_max = 5.0 * t ** (1.0 / alpha) if r_max is None else r_max
    return dict(kernel=kernel, t=t, radii=np.linspace(0.0, r_max, points))


def _simulate(*, alpha, dim, lifetime, horizon, obs_step, phi, **values):
    if phi is not None:
        _build("phi", check_inside_window, values["half_side"], phi)
    if values["intensity"] < 0:
        raise ConfigError(f"intensity must be nonnegative, got {values['intensity']}")
    return dict(kernel=StableKernel(alpha, dim), law=lifetime,
                obs_times=obs_grid(horizon, obs_step),
                weights={"phi": phi.evaluate} if phi is not None else {}, **values)


def _run_validate(_, args):
    rows = run_validation_suite(_env_seed() if args.seed is None else args.seed,
                                p_two=args.p_two, checks=args.checks, threads=args.threads)
    return CHECK_COLUMNS, [astuple(r) for r in rows], all(r.passed for r in rows)


def _run_ladder(config, args):
    rows = run_experiment(config, threads=args.threads)
    return RESULT_COLUMNS, [astuple(r) for r in rows], all(r.passed for r in rows)


def _run_covariance(inputs, args):
    rows = run_covariance_comparison(**inputs, threads=args.threads)
    header = ("s", "t", "analytic", "mc_estimate", "mc_se", "z", "passed")
    return header, [[r[c] for c in header] for r in rows], all(r["passed"] for r in rows)


def _run_renewal(table, args):
    return ("t", "U"), zip(table.grid.tolist(), table.values.tolist()), True


def _run_density(inputs, args):
    dens = transition_density_radial(**inputs)
    return ("r", "p"), zip(inputs["radii"].tolist(), dens.tolist()), True


def _run_simulate(inputs, args):
    batch = field_batch(**inputs, threads=args.threads)
    names = ["count", *inputs["weights"]]
    records = [[i, tj] + [float(batch.series[n][i, j]) for n in names]
               for i in range(batch.replicates)
               for j, tj in enumerate(inputs["obs_times"].tolist())]
    return ["replicate", "time", *names], records, True


# subcommand -> (help, config table or None, builder, runner); a runner maps
# the built config (None for validate) and the flags to (header, records, passed)
_COMMANDS = {
    "validate": ("run the statistical self-check suite", None, None, _run_validate),
    "lln": ("rescaled occupation-time ladder", _LLN, _experiment, _run_ladder),
    "occupancy": ("ball occupancy-fraction ladder", _OCCUPANCY, _occupancy, _run_ladder),
    "covariance": ("analytic vs Monte Carlo covariance", _COVARIANCE, _covariance,
                   _run_covariance),
    "renewal": ("tabulate a renewal function", _RENEWAL, _renewal, _run_renewal),
    "density": ("tabulate a stable transition density", _DENSITY, _density, _run_density),
    "simulate": ("dump raw observation series", _SIMULATE, _simulate, _run_simulate),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablebranch",
        description="Simulation and moment analytics for critical branching "
                    "particle systems with stable migration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, table, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        draws = table is None or "seed" in table  # it takes --seed, --threads
        if table is not None:
            p.add_argument("--config", required=True, help="path to a JSON config file")
        if draws:
            p.add_argument("--seed", type=int, default=None,
                           help="RNG seed (overrides config and environment)")
        p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
        if draws:
            p.add_argument("--threads", type=int, default=1,
                           help="worker threads for simulation chunks")
        if table is not None and "replicates" in table:
            p.add_argument("--replicates", type=int, default=None)
    p = sub.choices["validate"]
    p.add_argument("--checks", default=None,
                   type=lambda v: [c for c in v.split(",") if c],
                   help="comma-separated check names (default: all)")
    p.add_argument("--p-two", type=float, default=0.5, dest="p_two",
                   help="binary-split probability (fault injection when != 0.5)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, table, build, run = _COMMANDS[args.command]
    try:
        if "threads" in args:
            _integer(1)(args.threads, "--threads", None)
        if getattr(args, "seed", None) is not None:
            _SEED(args.seed, "--seed", None)
        if not 0.0 <= getattr(args, "p_two", 0.5) <= 1.0:
            raise ConfigError(f"--p-two must lie in [0, 1], got {args.p_two}")
        inputs = None if table is None else _load(args, table, build)
        header, records, passed = run(inputs, args)
        write_table(args.out or sys.stdout, header, records)
        return 0 if passed else 1
    except (ConfigError, QuadratureError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
