"""Command-line front end.

Subcommands map onto the library layers: ``validate`` runs the
self-check battery, ``lln`` and ``occupancy`` run regime-gated horizon
ladders, ``covariance`` compares analytic second moments against Monte
Carlo, ``renewal`` and ``density`` tabulate the numerical kernels, and
``simulate`` dumps raw observation series.

Every command writes CSV to ``--out`` (or stdout) and returns exit code
0 on success, 1 when a statistical check or experiment row fails, and 2
on configuration errors, among them any config key the subcommand does
not read, any out-of-range config value, and a configuration whose
numerical integral cannot meet its tolerance (QuadratureError).  Seeds
resolve as: ``--seed`` flag, then the config file, then the
``STABLEBRANCH_SEED`` environment variable, then 0; each must be an
integer >= 0.  ``--threads`` must be at least 1, ``--p-two`` lie in
[0, 1], and every config number be finite (no NaN or Infinity).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, QuadratureError, RegimeError
from .experiments import (
    ExperimentConfig,
    pair_grid,
    run_covariance_comparison,
    run_experiment,
    run_validation_suite,
    write_check_rows,
    write_result_rows,
    _write_table,
)
from .fastsim import field_batch, obs_grid
from .lifetimes import Exponential, Gamma, ParetoTail, make_pareto_tail
from .occupation import TestFunction, check_inside_window
from .renewal import build_renewal
from .stable_motion import StableKernel, transition_density_radial

ENV_SEED = "STABLEBRANCH_SEED"

_LAW_KEYS = {"exponential": {"rate"}, "gamma": {"shape", "rate"},
             "pareto": {"gamma", "scale"}}
_PHI_KEYS = {"shape", "center", "radius"}
_BALL_KEYS = {"center", "radius"}
_SYSTEM_KEYS = {"alpha", "dim", "lifetime"}
_EXPERIMENT_KEYS = _SYSTEM_KEYS | {
    "kind", "phi", "ball", "horizons", "replicates", "half_side",
    "window_scale", "obs_step", "seed", "intensity", "label"}
_COVARIANCE_KEYS = _SYSTEM_KEYS | {
    "phi", "psi", "pairs", "half_side", "replicates", "seed"}
_RENEWAL_KEYS = {"lifetime", "horizon", "grid_step"}
_DENSITY_KEYS = {"alpha", "dim", "t", "r_max", "points"}
_SIMULATE_KEYS = _SYSTEM_KEYS | {
    "horizon", "obs_step", "half_side", "phi", "replicates", "seed",
    "intensity"}


def _resolve_seed(cli_seed, cfg: dict | None) -> int:
    """The seed as an integer >= 0 from the first source that sets it."""
    if cli_seed is not None:
        return _count(cli_seed, "--seed", 0)
    if cfg is not None and cfg.get("seed") is not None:
        return _count(cfg["seed"], "seed", 0)
    env = os.environ.get(ENV_SEED, "0")
    try:
        return _count(int(env), ENV_SEED, 0)
    except ValueError as exc:
        raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from exc


def _check_keys(obj, allowed: set, where: str) -> None:
    """Refuse a non-object, or any key the subcommand would not read."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown {where} keys {unknown}; valid keys: {sorted(allowed)}"
        )


def _refuse_constant(name: str):
    raise ConfigError(f"config holds {name}; every number must be finite")


def _load_config(path: str, allowed: set) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, allowed, "config")
    return cfg


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"config is missing required key {key!r}")
    return cfg[key]


@contextmanager
def _reading_config():
    """Report a bad config value as a ConfigError.

    Wraps only the turning of a config into inputs: a ValueError raised
    later by the computation itself is a bug and keeps its traceback.
    """
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def _positive(cfg: dict, key: str, default=None) -> float:
    """A config number that must be positive; required when no default."""
    value = _number(_require(cfg, key) if default is None else cfg.get(key, default),
                    key)
    if not value > 0:
        raise ConfigError(f"{key} must be positive, got {value}")
    return value


def _count(value, key: str, least: int) -> int:
    """A config integer of at least ``least``; a fraction or bool is refused."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and float(value).is_integer() and value >= least):
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
    return int(value)


def _number(value, key: str) -> float:
    """A config number; a string or a bool is refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _numbers(value, key: str, size: int | None = None) -> list:
    """A config list of numbers, of ``size`` entries when given.

    A string, a bool or a nested list is refused, not split or cast.
    """
    if not (isinstance(value, list) and (size is None or len(value) == size)):
        what = f"a list of {size} numbers" if size else "a list of numbers"
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    return [_number(v, key) for v in value]


def _replicates(cfg: dict, args, default: int, least: int = 1) -> int:
    """Replicate count: the --replicates flag, else the config, else default."""
    n = args.replicates if args.replicates is not None else cfg.get(
        "replicates", default)
    return _count(n, "replicates", least)


def _parse_law(obj: dict):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError('lifetime must be an object with a "type" key')
    kind = obj["type"]
    if kind in _LAW_KEYS:
        _check_keys(obj, {"type"} | _LAW_KEYS[kind], "lifetime")
    if kind == "exponential":
        return Exponential(rate=_number(obj.get("rate", 1.0), "rate"))
    if kind == "gamma":
        return Gamma(shape=_number(_require(obj, "shape"), "shape"),
                     rate=_number(obj.get("rate", 1.0), "rate"))
    if kind == "pareto":
        gamma = _number(_require(obj, "gamma"), "gamma")
        if "scale" in obj:
            return ParetoTail(gamma=gamma, scale=_number(obj["scale"], "scale"))
        return make_pareto_tail(gamma)
    raise ConfigError(
        f"unknown lifetime type {kind!r}; expected exponential, gamma or pareto"
    )


def _kernel(cfg: dict) -> StableKernel:
    return StableKernel(alpha=_number(_require(cfg, "alpha"), "alpha"),
                        dim=_count(_require(cfg, "dim"), "dim", 1))


def _system(cfg: dict) -> tuple:
    """The migration kernel and lifetime law of a config."""
    return _kernel(cfg), _parse_law(_require(cfg, "lifetime"))


def _parse_phi(obj: dict, dim: int, where: str = "phi") -> TestFunction:
    _check_keys(obj, _PHI_KEYS, where)
    phi = TestFunction(
        shape=obj.get("shape", "bump"),
        center=np.asarray(_numbers(obj.get("center", [0.0] * dim), f"{where} center")),
        radius=_number(obj.get("radius", 1.0), f"{where} radius"),
    )
    if phi.center.shape != (dim,):
        raise ConfigError(f"{where} center must have {dim} coordinates")
    return phi


def _parse_ball(obj: dict, dim: int) -> TestFunction:
    """The occupancy target: the indicator of a closed ball."""
    _check_keys(obj, _BALL_KEYS, "ball")
    return _parse_phi({**obj, "shape": "indicator"}, dim, "ball")


def _experiment_config(cfg: dict, args) -> ExperimentConfig:
    kind = _require(cfg, "kind")
    # the occupancy target is a ball; every other kind reads phi
    target = "ball" if kind == "occupancy_subcritical" else "phi"
    _check_keys(cfg, _EXPERIMENT_KEYS - {"phi", "ball"} | {target}, "config")
    kernel, law = _system(cfg)
    parse = _parse_ball if target == "ball" else _parse_phi
    return ExperimentConfig(
        kind=kind,
        kernel=kernel,
        law=law,
        horizons=tuple(_numbers(_require(cfg, "horizons"), "horizons")),
        replicates=_replicates(cfg, args, 1000),
        phi=parse(cfg[target], kernel.dim) if target in cfg else None,
        half_side=(_number(cfg["half_side"], "half_side")
                   if cfg.get("half_side") is not None else None),
        window_scale=_number(cfg.get("window_scale", 1.0), "window_scale"),
        obs_step=_number(cfg.get("obs_step", 0.5), "obs_step"),
        seed=_resolve_seed(args.seed, cfg),
        intensity=_number(cfg.get("intensity", 1.0), "intensity"),
        threads=args.threads,
        label=cfg.get("label", ""),
    )


def _emit(args, header, records) -> None:
    """Write a CSV table to --out, or to stdout."""
    _write_table(args.out or sys.stdout, header, records)


def cmd_validate(args) -> int:
    rows = run_validation_suite(_resolve_seed(args.seed, None),
                                p_two=args.p_two, checks=args.checks,
                                threads=args.threads)
    write_check_rows(args.out or sys.stdout, rows)
    return 0 if all(r.passed for r in rows) else 1


def cmd_lln(args) -> int:
    with _reading_config():
        config = _experiment_config(
            _load_config(args.config, _EXPERIMENT_KEYS), args)
    rows = run_experiment(config)
    write_result_rows(args.out or sys.stdout, rows)
    return 0 if all(r.passed for r in rows) else 1


def cmd_covariance(args) -> int:
    with _reading_config():
        cfg = _load_config(args.config, _COVARIANCE_KEYS)
        kernel, law = _system(cfg)
        phi = _parse_phi(_require(cfg, "phi"), kernel.dim)
        psi = _parse_phi(cfg["psi"], kernel.dim, "psi") if "psi" in cfg else phi
        pairs = _require(cfg, "pairs")
        if isinstance(pairs, list):
            pairs = [tuple(_numbers(pair, "each of pairs", 2)) for pair in pairs]
        if not (isinstance(pairs, list) and pairs
                and all(0 <= s <= t for s, t in pairs)):
            raise ConfigError("pairs must be a nonempty list of [s, t], 0 <= s <= t")
        pair_grid(pairs)  # the batch's grid: refuse pairs without a common step
        half_side = _positive(cfg, "half_side")
        check_inside_window(half_side, phi, psi)
        replicates = _replicates(cfg, args, 20_000, least=2)
        seed = _resolve_seed(args.seed, cfg)
    rows = run_covariance_comparison(
        kernel, law, phi, psi, pairs, half_side=half_side,
        replicates=replicates, seed=seed, threads=args.threads,
    )
    header = ("s", "t", "analytic", "mc_estimate", "mc_se", "z", "passed")
    _emit(args, header, [[r[c] for c in header] for r in rows])
    return 0 if all(r["passed"] for r in rows) else 1


def cmd_renewal(args) -> int:
    with _reading_config():
        cfg = _load_config(args.config, _RENEWAL_KEYS)
        law = _parse_law(_require(cfg, "lifetime"))
        horizon = _positive(cfg, "horizon")
        grid_step = _positive(cfg, "grid_step")
        if grid_step >= horizon:
            raise ConfigError("grid_step must be smaller than horizon")
    table = build_renewal(law, horizon, grid_step)
    _emit(args, ("t", "U"), zip(table.grid.tolist(), table.values.tolist()))
    return 0


def cmd_density(args) -> int:
    with _reading_config():
        cfg = _load_config(args.config, _DENSITY_KEYS)
        kernel = _kernel(cfg)
        t = _positive(cfg, "t")
        r_max = _positive(cfg, "r_max", 5.0 * t ** (1.0 / kernel.alpha))
        radii = np.linspace(0.0, r_max, _count(cfg.get("points", 101), "points", 1))
    dens = transition_density_radial(kernel, t, radii)
    _emit(args, ("r", "p"), zip(radii.tolist(), dens.tolist()))
    return 0


def cmd_simulate(args) -> int:
    with _reading_config():
        cfg = _load_config(args.config, _SIMULATE_KEYS)
        kernel, law = _system(cfg)
        obs = obs_grid(_number(_require(cfg, "horizon"), "horizon"),
                       _number(cfg.get("obs_step", 0.5), "obs_step"))
        phi = _parse_phi(cfg["phi"], kernel.dim) if "phi" in cfg else None
        half_side = _positive(cfg, "half_side")
        if phi is not None:
            check_inside_window(half_side, phi)
        intensity = _number(cfg.get("intensity", 1.0), "intensity")
        if intensity < 0:
            raise ConfigError(f"intensity must be nonnegative, got {intensity}")
        replicates = _replicates(cfg, args, 1)
        seed = _resolve_seed(args.seed, cfg)
    weights = {"phi": phi.evaluate} if phi is not None else {}
    batch = field_batch(
        kernel, law, replicates=replicates, obs_times=obs,
        half_side=half_side, seed=seed, intensity=intensity, weights=weights,
        threads=args.threads,
    )
    names = ["count", *weights]
    records = [[i, tj] + [float(batch.series[n][i, j]) for n in names]
               for i in range(batch.replicates)
               for j, tj in enumerate(obs.tolist())]
    _emit(args, ["replicate", "time", *names], records)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablebranch",
        description="Simulation and moment analytics for critical branching "
                    "particle systems with stable migration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, config_required=False):
        if config_required:
            p.add_argument("--config", required=True,
                           help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (overrides config and environment)")
        p.add_argument("--out", default=None,
                       help="CSV output path (default: stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for simulation chunks")

    p = sub.add_parser("validate", help="run the statistical self-check suite")
    common(p)
    p.add_argument("--checks", default=None,
                   type=lambda v: [c for c in v.split(",") if c],
                   help="comma-separated check names (default: all)")
    p.add_argument("--p-two", type=float, default=0.5, dest="p_two",
                   help="binary-split probability (fault injection when != 0.5)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lln", help="rescaled occupation-time ladder")
    common(p, config_required=True)
    p.add_argument("--replicates", type=int, default=None)
    p.set_defaults(func=cmd_lln)

    p = sub.add_parser("occupancy", help="ball occupancy-fraction ladder")
    common(p, config_required=True)
    p.add_argument("--replicates", type=int, default=None)
    p.set_defaults(func=cmd_lln)  # same flow; the config kind picks the target

    p = sub.add_parser("covariance", help="analytic vs Monte Carlo covariance")
    common(p, config_required=True)
    p.add_argument("--replicates", type=int, default=None)
    p.set_defaults(func=cmd_covariance)

    p = sub.add_parser("renewal", help="tabulate a renewal function")
    common(p, config_required=True)
    p.set_defaults(func=cmd_renewal)

    p = sub.add_parser("density", help="tabulate a stable transition density")
    common(p, config_required=True)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("simulate", help="dump raw observation series")
    common(p, config_required=True)
    p.add_argument("--replicates", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _count(args.threads, "--threads", 1)
        if not 0.0 <= getattr(args, "p_two", 0.5) <= 1.0:
            raise ConfigError(f"--p-two must lie in [0, 1], got {args.p_two}")
        return args.func(args)
    except (ConfigError, QuadratureError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
