"""End-to-end tests of the command-line interface via main(argv)."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stablebranch
from stablebranch.cli import _COMMANDS, ENV_SEED, build_parser, main
from stablebranch.experiments import EXPERIMENT_KINDS


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


LLN_CONFIG = {
    "kind": "mean_identity",
    "alpha": 2.0,
    "dim": 1,
    "lifetime": {"type": "exponential", "rate": 1.0},
    "phi": {"shape": "bump", "radius": 1.0},
    "horizons": [1.0, 2.0],
    "half_side": 2.0,
    "obs_step": 0.5,
    "replicates": 400,
}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_subset_exits_zero_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    code = main(["validate", "--checks", "criticality,poisson_counts",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "name,target,estimate,z,tolerance,passed"
    assert len(lines) == 3 and all(l.endswith(",true") for l in lines[1:])


def test_validate_stdout_and_fault_injection(capsys):
    code = main(["validate", "--checks", "criticality", "--p-two", "0.6"])
    captured = capsys.readouterr()
    assert code == 1
    assert "criticality" in captured.out and "false" in captured.out


def test_validate_csv_numeric_fields_parse_as_floats(tmp_path):
    out = tmp_path / "checks.csv"
    main(["validate", "--seed", "0", "--out", str(out)])
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 11
    for row in rows:
        for column in ("target", "estimate", "z"):
            float(row[column])  # e.g. no "np.float64(...)" reprs


def test_validate_unknown_check_is_config_error(capsys):
    code = main(["validate", "--checks", "nonsense"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err and "nonsense" in captured.err


# ---------------------------------------------------------------------------
# seed resolution
# ---------------------------------------------------------------------------


def run_lln(tmp_path, name, args=(), config=LLN_CONFIG):
    cfg = write_config(tmp_path, f"{name}.json", config)
    out = tmp_path / f"{name}.csv"
    code = main(["lln", "--config", cfg, "--out", str(out), *args])
    return code, out.read_text() if out.exists() else None


def test_cli_runs_are_reproducible(tmp_path):
    code1, text1 = run_lln(tmp_path, "a", ["--seed", "11"])
    code2, text2 = run_lln(tmp_path, "b", ["--seed", "11"])
    code3, text3 = run_lln(tmp_path, "c", ["--seed", "12"])
    assert code1 in (0, 1)  # the gate is statistical; bytes must repeat
    assert text1 == text2
    assert text1 != text3


def test_seed_precedence_cli_over_config_over_env(tmp_path, monkeypatch):
    cfg_seeded = {**LLN_CONFIG, "seed": 11}
    # config seed applies when no flag is given
    _, from_config = run_lln(tmp_path, "cfg", config=cfg_seeded)
    _, from_flag = run_lln(tmp_path, "flag", ["--seed", "11"])
    assert from_config == from_flag
    # the flag beats a conflicting config seed
    _, flag_wins = run_lln(tmp_path, "fw", ["--seed", "12"],
                           config={**LLN_CONFIG, "seed": 11})
    _, seed12 = run_lln(tmp_path, "s12", ["--seed", "12"])
    assert flag_wins == seed12
    # the environment is the fallback when neither is present
    monkeypatch.setenv(ENV_SEED, "11")
    _, from_env = run_lln(tmp_path, "env")
    assert from_env == from_flag
    # and a config seed beats the environment
    monkeypatch.setenv(ENV_SEED, "12")
    _, cfg_beats_env = run_lln(tmp_path, "cbe", config=cfg_seeded)
    assert cfg_beats_env == from_flag
    monkeypatch.setenv(ENV_SEED, "not-a-number")
    code, _ = run_lln(tmp_path, "bad")
    assert code == 2


# ---------------------------------------------------------------------------
# experiment commands
# ---------------------------------------------------------------------------


def test_lln_command_row_output(tmp_path):
    code, text = run_lln(tmp_path, "rows", ["--seed", "0"])
    lines = text.splitlines()
    assert code == 0
    assert lines[0].startswith("experiment,regime,horizon")
    assert len(lines) == 3  # header + one row per horizon
    assert lines[1].split(",")[0] == "mean_identity"


def test_lln_replicates_flag_overrides_config(tmp_path):
    code, text = run_lln(tmp_path, "reps", ["--seed", "0",
                                            "--replicates", "50"])
    assert code == 0
    assert text.splitlines()[1].split(",")[3] == "50"


def test_lln_replicates_flag_of_one_is_refused_by_the_table(tmp_path, capsys):
    """The table asks for the ExperimentConfig bound, so one replicate is
    refused by key (it used to say only "need at least 2 replicates")."""
    cfg = write_config(tmp_path, "cfg.json", LLN_CONFIG)
    assert main(["lln", "--config", cfg, "--replicates", "1"]) == 2
    assert "replicates must be an integer >= 2, got 1" in capsys.readouterr().err


def test_lln_target_is_intensity_times_integral(tmp_path):
    """The mean measure is intensity x Lebesgue, so at intensity 2 the
    target is 2 * integral(phi) (it was integral(phi): z near 20, exit 1)."""
    config = {**LLN_CONFIG, "half_side": 4.0, "horizons": [2.0, 4.0],
              "intensity": 2.0, "seed": 1}
    code, text = run_lln(tmp_path, "intensity", config=config)
    assert code == 0
    phi = stablebranch.TestFunction("bump", [0.0], 1.0)
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 2
    for row in rows:
        assert float(row["target"]) == pytest.approx(
            2.0 * stablebranch.lebesgue_integral(phi), rel=1e-12)


def test_lln_regime_gate_maps_to_exit_2(tmp_path, capsys):
    bad = {**LLN_CONFIG, "kind": "lln_finite_mean"}  # d=1 < alpha=2
    cfg = write_config(tmp_path, "bad.json", bad)
    code = main(["lln", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 2
    assert "transient" in captured.err


def test_lln_csv_identical_across_thread_counts(tmp_path, chunk_counts):
    config = {**LLN_CONFIG, "half_side": 50.0, "replicates": 1000}
    _, one = run_lln(tmp_path, "t1", ["--seed", "0", "--threads", "1"], config)
    _, two = run_lln(tmp_path, "t2", ["--seed", "0", "--threads", "2"], config)
    assert min(chunk_counts) >= 2  # so --threads 2 runs the pool
    assert one == two


def test_lln_missing_config_key_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "nokind.json",
                       {k: v for k, v in LLN_CONFIG.items() if k != "kind"})
    assert main(["lln", "--config", cfg]) == 2
    assert "kind" in capsys.readouterr().err


def test_lln_unreadable_or_invalid_config_exit_2(tmp_path, capsys):
    assert main(["lln", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["lln", "--config", str(bad)]) == 2
    array = tmp_path / "array.json"
    array.write_text("[1, 2]")
    assert main(["lln", "--config", str(array)]) == 2


def test_occupancy_command(tmp_path):
    config = {
        "kind": "occupancy_subcritical",
        "alpha": 2.0,
        "dim": 1,
        "lifetime": {"type": "pareto", "gamma": 0.7},
        "ball": {"center": [0.0], "radius": 0.5},
        "horizons": [2.0, 4.0],
        "window_scale": 1.0,
        "obs_step": 0.5,
        "replicates": 120,
    }
    cfg = write_config(tmp_path, "occ.json", config)
    out = tmp_path / "occ.csv"
    code = main(["occupancy", "--config", cfg, "--seed", "5",
                 "--out", str(out)])
    lines = out.read_text().splitlines()
    assert code in (0, 1)  # trend flag decides; structure is what we test
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "occupancy_subcritical"


def test_covariance_command(tmp_path):
    config = {
        "alpha": 2.0,
        "dim": 1,
        "lifetime": {"type": "exponential"},
        "phi": {"shape": "bump", "radius": 1.0},
        "pairs": [[0.5, 1.0]],
        "half_side": 4.0,
        "replicates": 3000,
    }
    cfg = write_config(tmp_path, "cov.json", config)
    out = tmp_path / "cov.csv"
    code = main(["covariance", "--config", cfg, "--seed", "0",
                 "--out", str(out)])
    lines = out.read_text().splitlines()
    assert code in (0, 1)
    assert lines[0] == "s,t,analytic,mc_estimate,mc_se,z,passed"
    assert len(lines) == 2


# ---------------------------------------------------------------------------
# tabulation commands
# ---------------------------------------------------------------------------


def test_renewal_command(tmp_path):
    config = {"lifetime": {"type": "exponential", "rate": 2.0},
              "horizon": 1.0, "grid_step": 0.01}
    cfg = write_config(tmp_path, "ren.json", config)
    out = tmp_path / "ren.csv"
    assert main(["renewal", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,U"
    assert len(lines) == 102  # header + 101 grid nodes
    t_last, u_last = map(float, lines[-1].split(","))
    assert t_last == 1.0
    # U(t) = 1 + rate * t for exponential lifetimes
    assert u_last == pytest.approx(3.0, abs=5e-3)


def test_density_command(tmp_path):
    config = {"alpha": 2.0, "dim": 1, "t": 0.5, "r_max": 3.0, "points": 7}
    cfg = write_config(tmp_path, "den.json", config)
    out = tmp_path / "den.csv"
    assert main(["density", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,p"
    assert len(lines) == 8
    r0, p0 = map(float, lines[1].split(","))
    assert r0 == 0.0
    # Gaussian peak 1/sqrt(4 pi t) at t = 0.5
    assert p0 == pytest.approx(0.3989422804014327, rel=1e-9)


def test_simulate_command(tmp_path):
    config = {
        "alpha": 2.0,
        "dim": 1,
        "lifetime": {"type": "exponential"},
        "horizon": 1.0,
        "obs_step": 0.5,
        "half_side": 2.0,
        "phi": {"shape": "bump", "radius": 1.0},
        "replicates": 3,
    }
    cfg = write_config(tmp_path, "sim.json", config)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--seed", "1",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "replicate,time,count,phi"
    assert len(lines) == 1 + 3 * 3  # 3 replicates x 3 observation times
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0


# ---------------------------------------------------------------------------
# unknown config keys
# ---------------------------------------------------------------------------

OCCUPANCY_CONFIG = {
    "kind": "occupancy_subcritical",
    "alpha": 2.0,
    "dim": 1,
    "lifetime": {"type": "pareto", "gamma": 0.7},
    "ball": {"center": [0.0], "radius": 0.5},
    "horizons": [2.0],
    "half_side": 2.0,
    "replicates": 10,
}
COVARIANCE_CONFIG = {
    "alpha": 2.0, "dim": 1, "lifetime": {"type": "exponential"},
    "phi": {"radius": 1.0}, "pairs": [[0.5, 1.0]], "half_side": 4.0,
    "replicates": 10,
}
RENEWAL_CONFIG = {"lifetime": {"type": "gamma", "shape": 2.0},
                  "horizon": 1.0, "grid_step": 0.01}
DENSITY_CONFIG = {"alpha": 2.0, "dim": 1, "t": 0.5}
SIMULATE_CONFIG = {"alpha": 2.0, "dim": 1, "lifetime": {"type": "exponential"},
                   "horizon": 1.0, "half_side": 2.0, "phi": {"radius": 1.0}}


def _with(config, path, value):
    """Copy of `config` with `value` set at the key path."""
    out = json.loads(json.dumps(config))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


UNKNOWN_KEY_CASES = [
    ("lln", LLN_CONFIG, ("boundary",), "Torus"),
    ("lln", LLN_CONFIG, ("initial_age_mode",), "zero"),
    ("lln", LLN_CONFIG, ("window_scal",), 2.0),
    ("lln", LLN_CONFIG, ("lifetime", "rat"), 2.0),
    ("lln", LLN_CONFIG, ("phi", "raduis"), 2.0),
    ("lln", LLN_CONFIG, ("ball",), {"radius": 0.5}),
    ("occupancy", OCCUPANCY_CONFIG, ("ball", "centre"), [0.0]),
    ("occupancy", OCCUPANCY_CONFIG, ("phi",), {"radius": 0.5}),
    ("occupancy", OCCUPANCY_CONFIG, ("lifetime", "rate"), 1.0),
    ("covariance", COVARIANCE_CONFIG, ("n_image",), 2),
    ("covariance", COVARIANCE_CONFIG, ("n_images",), 1),
    ("covariance", COVARIANCE_CONFIG, ("phi", "shap"), "bump"),
    ("covariance", COVARIANCE_CONFIG, ("psi",), {"radius": 1.0, "shap": "bump"}),
    ("renewal", RENEWAL_CONFIG, ("lifetime", "scale"), 1.0),
    ("renewal", RENEWAL_CONFIG, ("seed",), 3),
    ("density", DENSITY_CONFIG, ("point",), 7),
    ("simulate", SIMULATE_CONFIG, ("boundary",), "buffer"),
    ("simulate", SIMULATE_CONFIG, ("phi", "centre"), [0.0]),
]


@pytest.mark.parametrize("command,config,path,value", UNKNOWN_KEY_CASES,
                         ids=[f"{c[0]}-{'.'.join(c[2])}"
                              for c in UNKNOWN_KEY_CASES])
def test_unknown_config_keys_exit_2(tmp_path, capsys, command, config, path,
                                    value):
    cfg = write_config(tmp_path, "cfg.json", _with(config, path, value))
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert path[-1] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,config", [
    ("occupancy", OCCUPANCY_CONFIG), ("covariance", COVARIANCE_CONFIG),
    ("renewal", RENEWAL_CONFIG), ("density", DENSITY_CONFIG),
    ("simulate", SIMULATE_CONFIG),
])
def test_known_config_keys_are_accepted(tmp_path, command, config):
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main([command, "--config", cfg, "--out",
                 str(tmp_path / "out.csv")]) in (0, 1)


# ---------------------------------------------------------------------------
# out-of-range config values
# ---------------------------------------------------------------------------

BAD_VALUE_CASES = [
    ("covariance", COVARIANCE_CONFIG, ("phi", "radius"), -1.0),
    ("density", DENSITY_CONFIG, ("t",), -0.5),
    ("renewal", {**RENEWAL_CONFIG, "horizon": 1.0}, ("grid_step",), 2.0),
    ("simulate", SIMULATE_CONFIG, ("half_side",), -1.0),
    ("lln", LLN_CONFIG, ("lifetime", "rate"), -1.0),
    ("covariance", COVARIANCE_CONFIG, ("pairs",), [[2.0, 1.0]]),
    ("simulate", SIMULATE_CONFIG, ("intensity",), -1.0),
    ("simulate", SIMULATE_CONFIG, ("replicates",), 0),
    ("simulate", SIMULATE_CONFIG, ("phi", "center"), [0.0, 0.0]),
    ("density", {**DENSITY_CONFIG, "alpha": 1.5}, ("points",), 0),
    ("density", DENSITY_CONFIG, ("points",), 2.5),
    ("density", DENSITY_CONFIG, ("dim",), 2.5),
    ("lln", LLN_CONFIG, ("dim",), True),
    ("simulate", SIMULATE_CONFIG, ("dim",), 1.5),
    ("lln", LLN_CONFIG, ("seed",), 1.7),
    ("lln", LLN_CONFIG, ("seed",), -1),
    # phi (radius 1) does not fit inside the window: wrong analytic side
    ("covariance", COVARIANCE_CONFIG, ("half_side",), 0.5),
    # nor here, where its column would not be the periodic extension
    ("simulate", {**SIMULATE_CONFIG, "half_side": 0.5}, ("phi", "radius"), 1.0),
    # strings are refused, not split into horizons 2 and 5 or pairs (1, 2)
    # and (3, 4) or cast to a centre, and so are equal horizons; a fifth
    # entry names a case whose default id is already taken
    ("lln", LLN_CONFIG, ("horizons",), "25"),
    ("lln", LLN_CONFIG, ("horizons",), [2.0, 2.0]),
    ("covariance", COVARIANCE_CONFIG, ("pairs",), ["12", "34"],
     "covariance-pairs-strings"),
    ("simulate", SIMULATE_CONFIG, ("phi", "center"), ["0.5"],
     "simulate-phi.center-strings"),
    # scalar numbers given as strings or bools are refused, not cast
    *[(command, config, path, value, f"{command}-{'.'.join(path)}-string")
      for command, config, path, value in [
          ("simulate", SIMULATE_CONFIG, ("alpha",), "2.0"),
          ("simulate", SIMULATE_CONFIG, ("lifetime", "rate"), "1"),
          ("simulate", SIMULATE_CONFIG, ("phi", "radius"), "1.0"),
          ("simulate", SIMULATE_CONFIG, ("horizon",), "1.0"),
          ("simulate", SIMULATE_CONFIG, ("obs_step",), "0.5"),
          ("simulate", SIMULATE_CONFIG, ("half_side",), "4"),
          ("simulate", SIMULATE_CONFIG, ("intensity",), "1"),
          ("renewal", RENEWAL_CONFIG, ("horizon",), "5"),
          ("renewal", RENEWAL_CONFIG, ("lifetime", "shape"), "2"),
          ("density", DENSITY_CONFIG, ("t",), "1.0"),
          ("density", DENSITY_CONFIG, ("r_max",), "5"),
          ("lln", LLN_CONFIG, ("window_scale",), "1"),
          ("lln", LLN_CONFIG, ("obs_step",), "0.5"),
          ("lln", LLN_CONFIG, ("half_side",), "2"),
          ("occupancy", OCCUPANCY_CONFIG, ("lifetime", "gamma"), "0.7"),
          ("covariance", COVARIANCE_CONFIG, ("half_side",), "4")]],
    ("density", DENSITY_CONFIG, ("t",), True, "density-t-bool"),
    # a kind, lifetime type or label of another JSON type is refused by
    # name (a list used to fail on "unhashable type", and a label was
    # written into the CSV whatever it was)
    ("lln", LLN_CONFIG, ("kind",), ["lln_heavy_intermediate"], "lln-kind-list"),
    ("lln", LLN_CONFIG, ("kind",), 5, "lln-kind-number"),
    ("lln", LLN_CONFIG, ("lifetime", "type"), ["pareto"], "lln-lifetime.type-list"),
    ("lln", LLN_CONFIG, ("label",), 5, "lln-label-number"),
    ("lln", LLN_CONFIG, ("label",), ["a"], "lln-label-list"),
    # window_scale is checked beside a half_side too, and the two together
    # are refused (a half_side used to hide either)
    ("lln", LLN_CONFIG, ("window_scale",), -1.0),
    ("lln", LLN_CONFIG, ("window_scale",), 0.0, "lln-window_scale-zero"),
    ("lln", LLN_CONFIG, ("window_scale",), 1.0, "lln-window_scale-with-half_side"),
    # the occupancy target is named `ball`, the key it is read from
    ("occupancy", OCCUPANCY_CONFIG, ("ball",), None, "occupancy-ball-missing"),
    ("occupancy", OCCUPANCY_CONFIG, ("ball", "radius"), 2.5,
     "occupancy-ball-outside-window"),
    # a step past the horizon leaves a grid of time 0 alone: simulate wrote
    # that one row and lln ran every row to z = inf
    ("simulate", SIMULATE_CONFIG, ("obs_step",), 1e10, "simulate-obs_step-past-horizon"),
    ("lln", LLN_CONFIG, ("obs_step",), 1e10, "lln-obs_step-past-horizon"),
    # the table's bound is ExperimentConfig's: one replicate has no spread
    ("lln", LLN_CONFIG, ("replicates",), 1, "lln-replicates-one"),
    # tables too large to allocate are refused, not left to a MemoryError
    ("renewal", {**RENEWAL_CONFIG, "horizon": 1000.0}, ("grid_step",), 1e-9,
     "renewal-grid_step-too-many-steps"),
    ("density", DENSITY_CONFIG, ("points",), 10**12, "density-points-too-many"),
]


@pytest.mark.parametrize("command,config,path,value",
                         [c[:4] for c in BAD_VALUE_CASES],
                         ids=[c[4] if len(c) > 4 else f"{c[0]}-{'.'.join(c[2])}"
                              for c in BAD_VALUE_CASES])
def test_bad_config_values_exit_2(tmp_path, command, config, path, value):
    """Run as a process: exit 2, one error line naming the key, no traceback."""
    cfg = write_config(tmp_path, "cfg.json", _with(config, path, value))
    error = _exit_2_error(tmp_path, [command, "--config", cfg])
    assert re.search(rf"\b{path[-1]}\b", error), error


def _names_path(error, path):
    """Whether `error` names each key of `path` in order, as words: the
    walker writes `phi.center`, a constructor's check `phi: ... center`."""
    return re.search(r"\b" + r"\b.*\b".join(map(re.escape, path)) + r"\b", error)


@pytest.mark.parametrize("command,config,path,value",
                         [c[:4] for c in BAD_VALUE_CASES],
                         ids=[c[4] if len(c) > 4 else f"{c[0]}-{'.'.join(c[2])}"
                              for c in BAD_VALUE_CASES])
def test_bad_config_values_name_the_full_path(tmp_path, capsys, command, config,
                                              path, value):
    """In process: every refusal above names its key with the keys above it
    (`lifetime.type`, not just `type`, which "unhashable type" also holds)."""
    cfg = write_config(tmp_path, "cfg.json", _with(config, path, value))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 2
    error = capsys.readouterr().err
    assert _names_path(error, path), error


@pytest.mark.parametrize("pairs", [[[1.0, 1.4142135623730951]], [[0.001, 2.0]]],
                         ids=["irrational", "too-fine"])
def test_covariance_pairs_without_a_common_step_exit_2(tmp_path, pairs):
    """The batch observes on the pairs' common step: none, or one needing
    more than 1000 steps, is refused before anything is simulated."""
    cfg = write_config(tmp_path, "cfg.json", {**COVARIANCE_CONFIG, "pairs": pairs})
    error = _exit_2_error(tmp_path, ["covariance", "--config", cfg])
    assert "common step" in error, error


def test_covariance_quadrature_error_exit_2_before_simulating(tmp_path, capsys,
                                                              monkeypatch):
    """alpha = 2, d = 3: the torus series at s = t = 0.001 needs a lag of
    1.5625e-5, too large a lattice; refused with exit 2 (not a failed
    check) before any batch is simulated."""
    from stablebranch import experiments

    def no_batch(*args, **kwargs):
        raise AssertionError("field_batch ran before the analytic values")

    monkeypatch.setattr(experiments, "field_batch", no_batch)
    cfg = write_config(tmp_path, "cfg.json", {
        "alpha": 2.0, "dim": 3, "lifetime": {"type": "exponential"},
        "phi": {"radius": 0.5}, "pairs": [[0.001, 0.001]], "half_side": 6.0,
        "replicates": 2,
    })
    assert main(["covariance", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "u=1.5625e-05" in err, err


def test_density_oversized_node_set_exit_2(tmp_path):
    """alpha = 0.5 at t = 1e-3 would need about 4.9e9 inversion nodes."""
    cfg = write_config(tmp_path, "cfg.json",
                       {"alpha": 0.5, "dim": 1, "t": 1e-3, "r_max": 1.0})
    error = _exit_2_error(tmp_path, ["density", "--config", cfg])
    assert "nodes" in error, error


def _exit_2_error(tmp_path, argv, env=None):
    """Run the CLI as a process; assert exit 2, one error line, no traceback."""
    src = str(Path(stablebranch.__file__).resolve().parents[1])
    env = {**os.environ, **(env or {}), "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "stablebranch.cli", *argv,
         "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
    assert len(errors) == 1, proc.stderr
    return errors[0]


def test_package_runs_as_a_module(tmp_path):
    """`python -m stablebranch` is the CLI, with nothing installed."""
    src = str(Path(stablebranch.__file__).resolve().parents[1])
    cfg = write_config(tmp_path, "cfg.json", DENSITY_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "stablebranch", "density", "--config", cfg,
         "--out", str(tmp_path / "module.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["density", "--config", cfg,
                 "--out", str(tmp_path / "main.csv")]) == 0
    assert (tmp_path / "module.csv").read_text() == (tmp_path / "main.csv").read_text()


@pytest.mark.parametrize("argv,env,key", [
    (["--seed", "-2"], {}, "--seed"),
    ([], {ENV_SEED: "-3"}, ENV_SEED),
], ids=["flag-negative", "env-negative"])
def test_bad_seed_sources_exit_2(tmp_path, argv, env, key):
    """A seed from the flag or the environment must be an integer >= 0."""
    error = _exit_2_error(tmp_path, ["validate", "--checks", "", *argv], env)
    assert key in error, error


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exit_2(tmp_path, threads):
    """--threads 0 or -2 used to run on one thread and exit 0."""
    error = _exit_2_error(tmp_path, ["validate", "--checks",
                                     "self_similarity,poisson_counts",
                                     "--threads", threads])
    assert "--threads" in error, error


def _parses(parser, argv):
    """Whether `parser` accepts `argv`; a refusal is argparse's exit 2."""
    try:
        parser.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return False
    return True


def test_parser_follows_the_command_table(capsys):
    """Each subcommand requires --config exactly when it has a config
    table, takes --replicates exactly when that table has the key, and
    takes --seed and --threads exactly when it draws random numbers."""
    parser = build_parser()
    assert list(_COMMANDS) == ["validate", "lln", "occupancy", "covariance",
                               "renewal", "density", "simulate"]
    draws = {"validate", "lln", "occupancy", "covariance", "simulate"}
    for name, (_, table, _, _) in _COMMANDS.items():
        config = [] if table is None else ["--config", "cfg.json"]
        assert _parses(parser, [name, *config])
        assert _parses(parser, [name]) == (table is None), name
        assert _parses(parser, [name, "--config", "cfg.json"]) == (table is not None)
        assert (_parses(parser, [name, *config, "--replicates", "3"])
                == (table is not None and "replicates" in table)), name
        assert (_parses(parser, [name, *config, "--seed", "1", "--threads", "2"])
                == (name in draws)), name


@pytest.mark.parametrize("command,config", [("renewal", RENEWAL_CONFIG),
                                            ("density", DENSITY_CONFIG)],
                         ids=["renewal", "density"])
@pytest.mark.parametrize("flag", [["--seed", "1"], ["--threads", "2"]],
                         ids=["seed", "threads"])
def test_tabulations_refuse_seed_and_threads(tmp_path, capsys, command, config,
                                             flag):
    """renewal and density draw nothing: they used to accept --seed and
    --threads and ignore them."""
    cfg = write_config(tmp_path, "cfg.json", config)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(out), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


NON_FINITE_CASES = [
    ("lln", LLN_CONFIG, ("horizons",), [1.0, math.inf], "Infinity"),
    ("occupancy", OCCUPANCY_CONFIG, ("ball", "radius"), math.nan, "NaN"),
    ("covariance", COVARIANCE_CONFIG, ("half_side",), -math.inf, "-Infinity"),
    ("renewal", RENEWAL_CONFIG, ("horizon",), math.inf, "Infinity"),
    ("density", DENSITY_CONFIG, ("t",), math.inf, "Infinity"),
    ("simulate", SIMULATE_CONFIG, ("horizon",), math.inf, "Infinity"),
]


@pytest.mark.parametrize("command,config,path,value,name", NON_FINITE_CASES,
                         ids=[c[0] for c in NON_FINITE_CASES])
def test_non_finite_config_numbers_exit_2(tmp_path, command, config, path, value,
                                          name):
    """JSON's NaN, Infinity and -Infinity are refused naming the constant
    (an infinite horizon used to end in an OverflowError traceback, and
    density at t = Infinity wrote nan rows with exit 0)."""
    cfg = write_config(tmp_path, "cfg.json", _with(config, path, value))
    error = _exit_2_error(tmp_path, [command, "--config", cfg])
    assert re.search(rf"(^|\s){re.escape(name)}\b", error), error


# ---------------------------------------------------------------------------
# the null rule
# ---------------------------------------------------------------------------

# lln with a migration-scaled window instead of a fixed half_side
LLN_SCALED = {**{k: v for k, v in LLN_CONFIG.items() if k != "half_side"},
              "window_scale": 2.0}
NULL_AS_ABSENT_CASES = [
    ("lln", LLN_SCALED, "half_side"),
    ("lln", LLN_CONFIG, "seed"),
    ("density", DENSITY_CONFIG, "r_max"),
    ("covariance", COVARIANCE_CONFIG, "psi"),
]


@pytest.mark.parametrize("command,config,key", NULL_AS_ABSENT_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in NULL_AS_ABSENT_CASES])
def test_null_optional_key_reads_as_absent(tmp_path, monkeypatch, command, config,
                                           key):
    """An optional key given as null is the key left out: same CSV bytes
    (r_max and psi given as null used to be refused)."""
    monkeypatch.delenv(ENV_SEED, raising=False)
    assert key not in config
    outputs = []
    for name, cfg in (("absent", config), ("null", {**config, key: None})):
        out = tmp_path / f"{name}.csv"
        path = write_config(tmp_path, f"{name}.json", cfg)
        assert main([command, "--config", path, "--out", str(out)]) in (0, 1)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command,config,path", [
    ("lln", LLN_CONFIG, ("alpha",)),
    ("renewal", RENEWAL_CONFIG, ("lifetime", "type")),
], ids=["lln-alpha", "renewal-lifetime.type"])
def test_null_required_key_exit_2(tmp_path, command, config, path):
    """A required key given as null is refused, naming its path."""
    cfg = write_config(tmp_path, "cfg.json", _with(config, path, None))
    error = _exit_2_error(tmp_path, [command, "--config", cfg])
    assert re.search(rf"\b{re.escape('.'.join(path))}\b", error), error


# ---------------------------------------------------------------------------
# every key has one kind
# ---------------------------------------------------------------------------

# valid configs that, between them, hold every key of every table
VALID_CONFIGS = [
    ("lln", {**LLN_CONFIG, "seed": 3, "label": "run", "intensity": 1.0}),
    ("lln", {**LLN_SCALED, "lifetime": {"type": "pareto", "gamma": 0.5, "scale": 0.5},
             "phi": {"shape": "indicator", "center": [0.5], "radius": 0.5}}),
    ("occupancy", OCCUPANCY_CONFIG),
    ("covariance", {**COVARIANCE_CONFIG, "seed": 1, "psi": {
        "shape": "indicator", "center": [0.5], "radius": 0.5}}),
    ("renewal", {**RENEWAL_CONFIG, "lifetime": {"type": "gamma", "shape": 2.0,
                                                 "rate": 1.0}}),
    ("density", {**DENSITY_CONFIG, "r_max": 3.0, "points": 7}),
    ("simulate", {**SIMULATE_CONFIG, "obs_step": 0.5, "replicates": 2, "seed": 1,
                  "intensity": 1.0}),
]
# numbers outside each numeric key's range; any number is out of range
# for a key that takes no number
OUT_OF_RANGE = {
    "alpha": [0.0, -1.0, 2.5], "dim": [0, -1, 1.5], "rate": [0.0, -1.0],
    "shape": [0.0, -1.0], "gamma": [0.0, 1.0, 1.5], "scale": [0.0, -1.0],
    "radius": [0.0, -1.0], "half_side": [0.0, -1.0], "window_scale": [0.0, -1.0],
    "obs_step": [0.0, -0.5], "horizon": [0.0, -1.0], "grid_step": [0.0, -0.5],
    "t": [0.0, -1.0], "r_max": [0.0, -1.0], "points": [0, 2.5],
    "replicates": [0, 1.5], "seed": [-1, 0.5], "intensity": [-1.0],
}
# the strings some key accepts
NAMES = {*EXPERIMENT_KINDS, "exponential", "gamma", "pareto", "bump", "indicator"}


def _key_paths(config, prefix=()):
    for key, value in config.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _key_paths(value, (*prefix, key))


@st.composite
def one_key_of_another_kind(draw):
    """A valid config with one key, at any depth, given a value of
    another kind: a string, a bool, a list, an object or a number out of
    range."""
    command, config = draw(st.sampled_from(VALID_CONFIGS))
    path = draw(st.sampled_from(list(_key_paths(config))))
    value = draw(st.one_of(
        st.nothing() if path[-1] == "label" else st.text(max_size=6).filter(
            lambda text: text not in NAMES),
        st.booleans(),
        st.lists(st.one_of(st.text(max_size=3), st.booleans()), min_size=1,
                 max_size=3),
        st.dictionaries(st.text("xyz", min_size=1, max_size=3), st.integers(),
                        min_size=1, max_size=2),
        st.sampled_from(OUT_OF_RANGE.get(path[-1], [0.0, 1.0])),
    ))
    return command, _with(config, path, value), path


@pytest.mark.parametrize("command,config", VALID_CONFIGS,
                         ids=[c[0] for c in VALID_CONFIGS])
def test_schema_configs_run(tmp_path, command, config):
    cfg = write_config(tmp_path, "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) in (0, 1)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=one_key_of_another_kind())
def test_a_key_of_another_kind_is_refused_by_its_path(tmp_path, case):
    """Exit 2 with one error line that names the key with its path (as
    `phi.center`, or `phi: ...` for a range its constructor checks)."""
    command, config, path = case
    cfg = write_config(tmp_path, "cfg.json", config)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")])
    err = stderr.getvalue()
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 2 and len(errors) == 1 and "Traceback" not in err, (path, err)
    assert _names_path(errors[0], path), (path, errors[0])


OVERFLOW_CASES = [
    # literals beyond the double range: 1e400 parses as inf (a renewal
    # run with it exited 0) and a 401-digit integer cannot become a float
    ("renewal", '{"lifetime": {"type": "exponential", "rate": 1e400}, '
                '"horizon": 1.0, "grid_step": 0.01}', "lifetime.rate"),
    ("density", '{"alpha": 2.0, "dim": 1, "t": 0.5, "points": 1' + "0" * 400 + "}",
     "points"),
    # finite numbers whose derived window or grid overflows
    ("density", '{"alpha": 0.5, "dim": 1, "t": 1e300}', "config"),
    ("lln", json.dumps({**LLN_CONFIG, "horizons": [1e300], "obs_step": 1e-300}),
     "config"),
]


@pytest.mark.parametrize("command,text,key", OVERFLOW_CASES,
                         ids=["renewal-rate", "density-points", "density-r_max",
                              "lln-obs_step"])
def test_overflowing_config_numbers_exit_2(tmp_path, capsys, command, text, key):
    """Each used to end in an OverflowError traceback, or run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}")


@pytest.mark.parametrize("p_two", ["nan", "1.5", "-0.5"])
def test_p_two_outside_unit_interval_exit_2(tmp_path, p_two):
    """A split probability outside [0, 1] used to run and fail a check."""
    error = _exit_2_error(tmp_path, ["validate", "--checks", "criticality",
                                     "--p-two", p_two])
    assert "--p-two" in error, error


def test_import_loads_no_heavy_scipy_subpackages(tmp_path):
    """No scipy module at all is loaded by `import stablebranch,
    stablebranch.cli`, nor by an `lln` run, a `validate` run of the Gamma
    renewal and covariance checks, a `simulate` run with Gamma lifetimes,
    or the odd-d moment formulas: their special functions are numpy
    (`specfun`), Gamma lifetimes are numpy's `Generator.gamma`, and
    scipy.special alone costs about 0.3 s of start-up per process.  scipy
    stays for even-d Bessel functions only."""
    src = str(Path(stablebranch.__file__).resolve().parents[1])
    lln = write_config(tmp_path, "lln.json", {
        **LLN_CONFIG, "alpha": 1.5, "lifetime": {"type": "pareto", "gamma": 0.5},
        "replicates": 20})
    simulate = write_config(tmp_path, "simulate.json", {
        **SIMULATE_CONFIG, "lifetime": {"type": "gamma", "shape": 2.0, "rate": 2.0}})
    code = f"""
import sys
import numpy as np
import stablebranch, stablebranch.cli
from stablebranch import (Exponential, StableKernel, TestFunction,
                          occupation_variance, pair_correlation)
from stablebranch.experiments import default_renewal_table

def scipy_modules(stage):
    print(stage, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

scipy_modules("import")
cli = stablebranch.cli.main
assert cli(["lln", "--config", {lln!r}, "--out", {str(tmp_path / "lln.csv")!r}]) == 0
scipy_modules("lln")
assert cli(["validate", "--checks", "elementary_renewal,covariance_oracle",
            "--seed", "0", "--out", {str(tmp_path / "checks.csv")!r}]) == 0
scipy_modules("validate")
assert cli(["simulate", "--config", {simulate!r}, "--seed", "0",
            "--out", {str(tmp_path / "simulate.csv")!r}]) == 0
scipy_modules("simulate")
bump = TestFunction(shape="bump", center=np.zeros(3), radius=1.0)
occupation_variance(StableKernel(alpha=2.0, dim=3),
                    default_renewal_table(Exponential(rate=1.0), 4.0), bump, 4.0,
                    grid_points=9)
scipy_modules("occupation_variance")
line = TestFunction(shape="indicator", center=np.zeros(1), radius=0.5)
pair_correlation(StableKernel(alpha=1.5, dim=1), line, line, [0.0, 0.5, 2.0])
scipy_modules("pair_correlation")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = ["import", "lln", "validate", "simulate", "occupation_variance",
              "pair_correlation"]
    assert proc.stdout.splitlines() == [f"{s} []" for s in stages], proc.stdout


def test_import_maps_no_rng_fft_or_polynomial(tmp_path):
    """numpy loads `numpy.random`, `numpy.fft` and `numpy.polynomial` on
    first attribute access, and the package leaves them to that:
    `import stablebranch, stablebranch.cli` maps none of them
    (`numpy.random` alone is about 6 MB resident), a `renewal` run and
    `occupation_variance` draw nothing and so never load the RNG, and an
    `lln` run loads it at its first stream.  The Gauss-Legendre rules are
    numpy alone, so no run loads `numpy.polynomial` (1.3 MB resident).
    `concurrent.futures` loads with the first thread pool: a `--threads 2`
    `lln` run loads it, and writes the `--threads 1` run's bytes."""
    src = str(Path(stablebranch.__file__).resolve().parents[1])
    renewal = write_config(tmp_path, "renewal.json", RENEWAL_CONFIG)
    lln = write_config(tmp_path, "lln.json", {**LLN_CONFIG, "replicates": 20})
    one, two = tmp_path / "lln1.csv", tmp_path / "lln2.csv"
    code = f"""
import sys
import numpy as np
import stablebranch, stablebranch.cli
from stablebranch import (Exponential, StableKernel, TestFunction,
                          occupation_variance, pair_correlation)
from stablebranch.experiments import default_renewal_table

def lazy_modules(stage):
    print(stage, [m for m in ("numpy.random", "numpy.fft", "numpy.polynomial",
                              "concurrent.futures") if m in sys.modules])

lazy_modules("import")
cli = stablebranch.cli.main
assert cli(["renewal", "--config", {renewal!r},
            "--out", {str(tmp_path / "renewal.csv")!r}]) == 0
bump = TestFunction(shape="bump", center=np.zeros(3), radius=1.0)
occupation_variance(StableKernel(alpha=2.0, dim=3),
                    default_renewal_table(Exponential(rate=1.0), 4.0), bump, 4.0,
                    grid_points=9)
pair_correlation(StableKernel(alpha=1.5, dim=3), bump, bump, [0.0])
lazy_modules("moments")
assert cli(["lln", "--config", {lln!r}, "--threads", "1", "--out", {str(one)!r}]) == 0
lazy_modules("lln")
assert cli(["validate", "--checks", "density_closed_form,covariance_oracle",
            "--seed", "0", "--out", {str(tmp_path / "checks.csv")!r}]) == 0
lazy_modules("validate")
assert cli(["lln", "--config", {lln!r}, "--threads", "2", "--out", {str(two)!r}]) == 0
lazy_modules("pool")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    stage = dict(line.split(" ", 1) for line in proc.stdout.splitlines())
    assert stage["import"] == "[]", proc.stdout
    assert "numpy.random" not in stage["moments"], proc.stdout
    assert "numpy.random" in stage["lln"], proc.stdout
    for name in ("moments", "lln", "validate", "pool"):
        assert "numpy.polynomial" not in stage[name], proc.stdout
    for name in ("moments", "lln", "validate"):
        assert "concurrent.futures" not in stage[name], proc.stdout
    assert "concurrent.futures" in stage["pool"], proc.stdout
    assert one.read_bytes() == two.read_bytes()
