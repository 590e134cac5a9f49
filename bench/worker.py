"""Run one workload invocation in a fresh interpreter.

Started by `run.py`, one process per invocation:

    python3 bench/worker.py --workload NAME --invocation K --dir RUN_DIR \
        --result OUT.json [--trace] [--setup-only] [--p-two P]

It imports the checkout's `stablebranch`, builds the inputs, then times
the work from the first call into the library until the outputs are
verified, and writes the timings, the verified rows, a digest of the
output (the CSV, or the moment values) and, with --trace, the layer
counters to OUT.json.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (bench/ is this script's directory)

ROOT = Path(__file__).resolve().parent.parent
TEXT_COLUMNS = {"experiment", "regime", "name", "tolerance", "passed"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--invocation", type=int, default=0)
    p.add_argument("--dir", required=True, help="run directory for inputs and CSV")
    p.add_argument("--result", required=True, help="where to write the JSON record")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--p-two", default=None, help="fault injection for validate")
    return p.parse_args(argv)


def _cli_argv(args):
    template = workloads.WORKLOADS[args.workload]["invocations"][args.invocation]
    run_dir = Path(args.dir)
    subst = {"{config}": str(run_dir / f"{args.workload}.json"),
             "{out}": str(run_dir / f"{args.workload}-{args.invocation}.csv")}
    argv = [subst.get(a, a) for a in template]
    if args.p_two is not None:
        argv += ["--p-two", args.p_two]
    return argv, Path(subst["{out}"])


def _read_csv(path: Path) -> dict:
    """Verified rows of a CLI CSV, plus its digest and unparsable fields."""
    data = path.read_bytes()
    rows, unparsed = [], 0
    for rec in csv.DictReader(data.decode("utf-8").splitlines()):
        for key, value in rec.items():
            if key in TEXT_COLUMNS or value == "":
                continue
            try:
                float(value)
            except ValueError:
                unparsed += 1
        rows.append({"passed": rec.get("passed") == "true",
                     "aborted": int(rec.get("aborted") or 0)})
    return {"rows": rows, "output_sha256": hashlib.sha256(data).hexdigest(),
            "csv_bytes": len(data), "csv_unparsed_fields": unparsed}


def _moments_inputs():
    """Library entry points and arguments of the moments workload."""
    import numpy as np

    from stablebranch import (Exponential, Gamma, StableKernel, TestFunction,
                              build_renewal, make_pareto_tail)
    from stablebranch.experiments import default_renewal_table
    from stablebranch.moments import (occupation_variance, pair_correlation,
                                      pair_correlation_realspace,
                                      tree_second_moment)

    def bump(d):
        return TestFunction(shape="bump", center=np.zeros(d), radius=1.0)

    exp1, pareto = Exponential(rate=1.0), make_pareto_tail(0.5)
    k1, k3 = StableKernel(alpha=1.5, dim=1), StableKernel(alpha=2.0, dim=3)
    ref = workloads.MOMENT_REFERENCES

    def renewal_ops():
        table = build_renewal(exp1, 100.0, 0.005)
        err = float(np.max(np.abs(table.values - (1.0 + table.grid))))
        yield "renewal_exponential", err, err < 1e-3
        table = build_renewal(pareto, 1e4, 0.25)
        ratio = float(table.value(1e4) * 1e4 ** -0.5 * math.gamma(1.5))
        yield "renewal_heavy_tail", ratio, 0.95 <= ratio <= 1.05
        table = build_renewal(Gamma(shape=2.0, rate=2.0), 500.0, 0.02)
        rel = abs(float(table.value(500.0)) / 500.0 - 1.0)
        yield "renewal_elementary", rel, rel <= 0.05

    def against(name, value):
        target, rtol = ref[name]
        return name, value, abs(value - target) <= rtol * abs(target)

    def formula_ops():
        yield against("occupation_variance_d1", occupation_variance(
            k1, default_renewal_table(pareto, 200.0), bump(1), 200.0,
            grid_points=401))
        yield against("occupation_variance_d3", occupation_variance(
            k3, default_renewal_table(exp1, 200.0), bump(3), 200.0,
            grid_points=201))
        yield against("tree_second_moment", tree_second_moment(
            k1, default_renewal_table(pareto, 1.0), np.zeros(1), 1.0, 2.0,
            bump(1), bump(1), r_points=5, nodes_per_dim=65))
        for alpha, u in workloads.PAIR_CORRELATION_LAGS:
            kernel = StableKernel(alpha=alpha, dim=1)
            fourier = pair_correlation(kernel, bump(1), bump(1), u)
            real = pair_correlation_realspace(kernel, bump(1), bump(1), u)
            rel = abs(fourier - real) / abs(real)
            yield (f"pair_correlation_a{alpha}_u{u}", rel,
                   rel <= workloads.PAIR_CORRELATION_RTOL)

    return lambda: [*renewal_ops(), *formula_ops()]


def main(argv=None) -> int:
    args = _parse_args(argv)
    import stablebranch
    from stablebranch import cli
    t_imported = time.monotonic()
    src = (ROOT / "src").resolve()
    if src not in Path(stablebranch.__file__).resolve().parents:
        print(f"error: imported {stablebranch.__file__}, not the checkout's "
              f"src/", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        if tracer.missing:
            print(f"warning: not traced: {tracer.missing}", file=sys.stderr)

    if args.workload == "moments":
        job, argv_cli, out = _moments_inputs(), None, None
    else:
        argv_cli, out = _cli_argv(args)
    record = {"t_start": T_START, "t_imported": t_imported}

    t_ready = time.monotonic()
    cpu0 = time.process_time()
    record["t_ready"] = t_ready
    if not args.setup_only:
        try:
            if argv_cli is None:
                record["ops"] = [{"name": n, "value": float(v), "passed": bool(ok)}
                                 for n, v, ok in job()]
                record["output_sha256"] = hashlib.sha256(
                    json.dumps(record["ops"]).encode()).hexdigest()
            else:
                record["exit_code"] = cli.main(argv_cli)
                record.update(_read_csv(out))
        except Exception:  # a crash is a counted failure, not a lost run
            record["error"] = traceback.format_exc()
        record["t_done"] = time.monotonic()
        record["cpu_s"] = time.process_time() - cpu0
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            record["trace"] = tracer.snapshot()
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
