"""Command-line front end.

Subcommands map onto the library layers: ``validate`` runs the
self-check battery, ``lln`` and ``occupancy`` run regime-gated horizon
ladders, ``covariance`` compares analytic second moments against Monte
Carlo, ``renewal`` and ``density`` tabulate the numerical kernels, and
``simulate`` dumps raw observation series.

Every command writes CSV to ``--out`` (or stdout) and returns exit code
0 on success, 1 when a statistical check or experiment row fails, and 2
on configuration errors, among them any config key the subcommand does
not read.  Seeds resolve as: ``--seed`` flag, then the
config file, then the ``STABLEBRANCH_SEED`` environment variable, then
0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import ConfigError, RegimeError
from .experiments import (
    ExperimentConfig,
    run_covariance_comparison,
    run_experiment,
    run_validation_suite,
    write_check_rows,
    write_result_rows,
    _write_table,
)
from .fastsim import field_batch, obs_grid
from .lifetimes import Exponential, Gamma, ParetoTail, make_pareto_tail
from .occupation import Ball, TestFunction
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
    "phi", "psi", "pairs", "half_side", "replicates", "seed", "n_images"}
_RENEWAL_KEYS = {"lifetime", "horizon", "grid_step"}
_DENSITY_KEYS = {"alpha", "dim", "t", "r_max", "points"}
_SIMULATE_KEYS = _SYSTEM_KEYS | {
    "horizon", "obs_step", "half_side", "phi", "replicates", "seed",
    "intensity"}


def _resolve_seed(cli_seed, cfg: dict | None) -> int:
    if cli_seed is not None:
        return int(cli_seed)
    if cfg is not None and cfg.get("seed") is not None:
        return int(cfg["seed"])
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
    return 0


def _check_keys(obj, allowed: set, where: str) -> None:
    """Refuse a non-object, or any key the subcommand would not read."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown {where} keys {unknown}; valid keys: {sorted(allowed)}"
        )


def _load_config(path: str, allowed: set) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
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


def _parse_law(obj: dict):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigError('lifetime must be an object with a "type" key')
    kind = obj["type"]
    if kind in _LAW_KEYS:
        _check_keys(obj, {"type"} | _LAW_KEYS[kind], "lifetime")
    if kind == "exponential":
        return Exponential(rate=float(obj.get("rate", 1.0)))
    if kind == "gamma":
        return Gamma(shape=float(_require(obj, "shape")),
                     rate=float(obj.get("rate", 1.0)))
    if kind == "pareto":
        gamma = float(_require(obj, "gamma"))
        if "scale" in obj:
            return ParetoTail(gamma=gamma, scale=float(obj["scale"]))
        return make_pareto_tail(gamma)
    raise ConfigError(
        f"unknown lifetime type {kind!r}; expected exponential, gamma or pareto"
    )


def _parse_phi(obj: dict, dim: int) -> TestFunction:
    _check_keys(obj, _PHI_KEYS, "phi")
    return TestFunction(
        shape=obj.get("shape", "bump"),
        center=np.asarray(obj.get("center", [0.0] * dim), dtype=float),
        radius=float(obj.get("radius", 1.0)),
    )


def _parse_ball(obj: dict, dim: int) -> Ball:
    _check_keys(obj, _BALL_KEYS, "ball")
    return Ball(center=np.asarray(obj.get("center", [0.0] * dim), dtype=float),
                radius=float(obj.get("radius", 1.0)))


def _experiment_config(cfg: dict, args) -> ExperimentConfig:
    dim = int(_require(cfg, "dim"))
    kernel = StableKernel(alpha=float(_require(cfg, "alpha")), dim=dim)
    law = _parse_law(_require(cfg, "lifetime"))
    replicates = args.replicates if args.replicates is not None else int(
        cfg.get("replicates", 1000))
    try:
        return ExperimentConfig(
            kind=_require(cfg, "kind"),
            kernel=kernel,
            law=law,
            horizons=tuple(_require(cfg, "horizons")),
            replicates=replicates,
            phi=_parse_phi(cfg["phi"], dim) if "phi" in cfg else None,
            ball=_parse_ball(cfg["ball"], dim) if "ball" in cfg else None,
            half_side=(float(cfg["half_side"]) if cfg.get("half_side") is not None
                       else None),
            window_scale=float(cfg.get("window_scale", 1.0)),
            obs_step=float(cfg.get("obs_step", 0.5)),
            seed=_resolve_seed(args.seed, cfg),
            intensity=float(cfg.get("intensity", 1.0)),
            threads=args.threads,
            label=cfg.get("label", ""),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def _emit(args, writer, rows) -> None:
    if args.out:
        writer(args.out, rows)
    else:
        writer(sys.stdout, rows)


def cmd_validate(args) -> int:
    checks = None
    if args.checks is not None:
        checks = [c for c in args.checks.split(",") if c]
    rows = run_validation_suite(_resolve_seed(args.seed, None),
                                p_two=args.p_two, checks=checks,
                                threads=args.threads)
    _emit(args, write_check_rows, rows)
    return 0 if all(r.passed for r in rows) else 1


def cmd_lln(args) -> int:
    config = _experiment_config(_load_config(args.config, _EXPERIMENT_KEYS), args)
    rows = run_experiment(config)
    _emit(args, write_result_rows, rows)
    return 0 if all(r.passed for r in rows) else 1


cmd_occupancy = cmd_lln  # same flow; the config kind picks the runner


def cmd_covariance(args) -> int:
    cfg = _load_config(args.config, _COVARIANCE_KEYS)
    dim = int(_require(cfg, "dim"))
    kernel = StableKernel(alpha=float(_require(cfg, "alpha")), dim=dim)
    law = _parse_law(_require(cfg, "lifetime"))
    phi = _parse_phi(_require(cfg, "phi"), dim)
    psi = _parse_phi(cfg["psi"], dim) if "psi" in cfg else phi
    pairs = [(float(s), float(t)) for s, t in _require(cfg, "pairs")]
    replicates = args.replicates if args.replicates is not None else int(
        cfg.get("replicates", 20_000))
    rows = run_covariance_comparison(
        kernel, law, phi, psi, pairs,
        half_side=float(_require(cfg, "half_side")), replicates=replicates,
        seed=_resolve_seed(args.seed, cfg),
        n_images=int(cfg.get("n_images", 1)), threads=args.threads,
    )
    header = ("s", "t", "analytic", "mc_estimate", "mc_se", "z", "passed")
    _emit(args, lambda target, rs: _write_table(
        target, header, [[r[c] for c in header] for r in rs]), rows)
    return 0 if all(r["passed"] for r in rows) else 1


def cmd_renewal(args) -> int:
    cfg = _load_config(args.config, _RENEWAL_KEYS)
    from .renewal import build_renewal

    law = _parse_law(_require(cfg, "lifetime"))
    table = build_renewal(law, float(_require(cfg, "horizon")),
                          float(_require(cfg, "grid_step")))
    _emit(args, lambda target, rows: _write_table(target, ("t", "U"), rows),
          list(zip(table.grid.tolist(), table.values.tolist())))
    return 0


def cmd_density(args) -> int:
    cfg = _load_config(args.config, _DENSITY_KEYS)
    kernel = StableKernel(alpha=float(_require(cfg, "alpha")),
                          dim=int(_require(cfg, "dim")))
    t = float(_require(cfg, "t"))
    r_max = float(cfg.get("r_max", 5.0 * t ** (1.0 / kernel.alpha)))
    points = int(cfg.get("points", 101))
    radii = np.linspace(0.0, r_max, points)
    dens = transition_density_radial(kernel, t, radii)
    _emit(args, lambda target, rows: _write_table(target, ("r", "p"), rows),
          list(zip(radii.tolist(), dens.tolist())))
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, _SIMULATE_KEYS)
    dim = int(_require(cfg, "dim"))
    kernel = StableKernel(alpha=float(_require(cfg, "alpha")), dim=dim)
    law = _parse_law(_require(cfg, "lifetime"))
    horizon = float(_require(cfg, "horizon"))
    try:
        obs = obs_grid(horizon, float(cfg.get("obs_step", 0.5)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    phi = _parse_phi(cfg["phi"], dim) if "phi" in cfg else None
    weights = {"phi": phi.evaluate} if phi is not None else {}
    replicates = args.replicates if args.replicates is not None else int(
        cfg.get("replicates", 1))
    batch = field_batch(
        kernel, law, replicates=replicates, obs_times=obs,
        half_side=float(_require(cfg, "half_side")),
        seed=_resolve_seed(args.seed, cfg),
        intensity=float(cfg.get("intensity", 1.0)), weights=weights,
        threads=args.threads,
    )
    header = ["replicate", "time", "count"] + (["phi"] if phi is not None else [])
    records = []
    for i in range(batch.replicates):
        for j, tj in enumerate(obs.tolist()):
            rec = [i, tj, float(batch.series["count"][i, j])]
            if phi is not None:
                rec.append(float(batch.series["phi"][i, j]))
            records.append(rec)
    _emit(args, lambda target, rows: _write_table(target, header, rows), records)
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
    p.set_defaults(func=cmd_occupancy)

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
        return args.func(args)
    except (ConfigError, RegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
