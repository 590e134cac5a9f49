"""stablebranch benchmark: one workload, measured end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--p-two P]

Run from the root of a checkout.  The load is a closed loop, one process
at a time: each instance of the workload is one fresh interpreter per
invocation (`worker.py`), and instances repeat until S seconds have
passed (at least one, or one untraced/traced pair with --trace 1).
Every instance is checked; a failed check, an aborted replicate, an
exception, a nonzero exit or an output (CSV, or moment values) that
differs from the first instance's counts its operations as failed.

--trace 0 prints the end-to-end metrics: medians over instances of the
wall time from the first library call to a verified result, the set-up
time from process spawn until the library is imported and the inputs are
built (at least five samples), and the peak resident memory.

--trace 1 alternates untraced and traced instances and prints the
per-layer metrics (see layertrace.py), medians over traced instances,
with the traced / untraced wall-time ratio.

--p-two injects a fault into `validate` (a supercritical split law); the
run must then report failures.

The last line of standard output is the JSON result; the lines before it
give error_rate and the run manifest, which is also written to
.bench_runs/.  The workload inputs are frozen (see workloads.py): --seed
is recorded in the manifest but does not change them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layertrace
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150
# One BLAS thread: the workloads' only parallelism is --threads, and
# OpenBLAS threads spin-waiting on a loaded 2-core machine slowed the
# renewal solve from 0.1 s to 30 s.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--p-two", default=None,
                   help="validate only: binary-split probability (fault injection)")
    return p.parse_args(argv)


def _declared_metrics(trace: int) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def _spawn(args, run_dir: Path, k: int, *, trace=False, setup_only=False) -> dict:
    """One worker process; returns its record with parent-side timings."""
    result = run_dir / f"worker-{os.getpid()}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--invocation", str(k), "--dir", str(run_dir), "--result", str(result)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if args.p_two is not None:
        cmd += ["--p-two", args.p_two]
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result.exists():
        return {"error": f"worker exit {proc.returncode}: {stderr.strip()[-2000:]}"}
    rec = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    rec["setup_s"] = rec["t_ready"] - t_spawn
    if not setup_only:
        rec["wall_s"] = rec["t_done"] - rec["t_ready"]
    return rec


def _operations(workload: str, rec: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one invocation record."""
    expected = workloads.operations_per_invocation(workload)
    if "error" in rec:
        return expected, expected
    if workload == "moments":
        return expected, sum(not op["passed"] for op in rec["ops"])
    if rec["exit_code"] not in (0, 1):
        return expected, expected
    cfg = workloads.WORKLOADS[workload]["config"]
    if cfg is not None:  # lln: a failed row fails all its replicate-horizons
        failed = sum(cfg["replicates"] if not r["passed"] else r["aborted"]
                     for r in rec["rows"])
    else:  # validate: one operation per check row
        failed = sum(not r["passed"] for r in rec["rows"])
    if rec["exit_code"] != 0 and failed == 0:
        failed = expected
    return expected, failed


def _instance(args, run_dir: Path, *, trace: bool) -> dict:
    """One workload instance: its invocations run one after another."""
    recs = [_spawn(args, run_dir, k, trace=trace)
            for k in range(len(workloads.WORKLOADS[args.workload]["invocations"]))]
    inst = {"trace": trace, "records": recs, "attempted": 0, "failed": 0,
            "errors": [r["error"] for r in recs if "error" in r]}
    for rec in recs:
        attempted, failed = _operations(args.workload, rec)
        inst["attempted"] += attempted
        inst["failed"] += failed
    if not inst["errors"]:
        inst["setup_s"] = sum(r["setup_s"] for r in recs)
        inst["wall_s"] = sum(r["wall_s"] for r in recs)
        inst["cpu_s"] = sum(r["cpu_s"] for r in recs)
        inst["peak_rss_mb"] = max(r["peak_rss_mb"] for r in recs)
        inst["import_s"] = sum(r["t_imported"] - r["t_start"] for r in recs)
        inst["output_sha256"] = [r["output_sha256"] for r in recs]
    return inst


def _setup_probe(args, run_dir: Path) -> float | None:
    recs = [_spawn(args, run_dir, k, setup_only=True)
            for k in range(len(workloads.WORKLOADS[args.workload]["invocations"]))]
    if any("error" in r for r in recs):
        return None
    return sum(r["setup_s"] for r in recs)


def _layer_metrics(inst: dict) -> dict:
    recs = inst["records"]
    return layertrace.per_layer(
        layertrace.merge(r.get("trace", {}) for r in recs),
        wall_s=inst["wall_s"], cpu_s=inst["cpu_s"], import_s=inst["import_s"],
        csv_bytes=float(sum(r.get("csv_bytes", 0) for r in recs)),
        csv_unparsed_fields=float(sum(r.get("csv_unparsed_fields", 0) for r in recs)))


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _manifest(args, instances: list[dict]) -> dict:
    spec = workloads.WORKLOADS[args.workload]
    digests = next((i["output_sha256"] for i in instances if "output_sha256" in i),
                   None)
    return {
        "workload": args.workload,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "bench_seed": args.seed,
        "program_seeds": spec["seeds"],
        "threads": spec["threads"],
        "worker_env": WORKER_ENV,
        "p_two": args.p_two,
        "output_sha256": digests,
        "instances": len(instances),
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "stablebranch" / "__init__.py").is_file():
        print(f"error: no stablebranch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.p_two is not None and args.workload != "validate":
        print("error: --p-two applies to the validate workload only", file=sys.stderr)
        return 2
    declared = _declared_metrics(args.trace)

    out_dir = ROOT / ".bench_runs"
    run_dir = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spec = workloads.WORKLOADS[args.workload]
    if spec["config"] is not None:
        (run_dir / f"{args.workload}.json").write_text(
            json.dumps(spec["config"], indent=1), encoding="utf-8")

    try:
        t0 = time.monotonic()
        instances = []
        while True:  # closed loop; traced runs alternate untraced and traced
            instances.append(_instance(args, run_dir, trace=False))
            if args.trace:
                instances.append(_instance(args, run_dir, trace=True))
            if time.monotonic() - t0 >= args.seconds:
                break
        setups = [i["setup_s"] for i in instances if "setup_s" in i and not i["trace"]]
        while setups and len(setups) < MIN_SETUP_SAMPLES and not args.trace:
            probe = _setup_probe(args, run_dir)
            if probe is None:
                break
            setups.append(probe)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    good = [i for i in instances if "wall_s" in i]
    attempted = sum(i["attempted"] for i in instances)
    failed = sum(i["failed"] for i in instances)
    reference = good[0]["output_sha256"] if good else None
    for inst in good:
        if inst["output_sha256"] != reference:  # not reproducible: all failed
            failed += inst["attempted"] - inst["failed"]
            inst["failed"] = inst["attempted"]
    errors = [e for i in instances for e in i["errors"]]
    for err in errors[:3]:
        print(f"worker failure: {err}", file=sys.stderr)

    plain = [i for i in good if not i["trace"]]
    traced = [i for i in good if i["trace"]]
    if not plain or (args.trace and not traced):
        print("error: no instance completed", file=sys.stderr)
        return 1
    if args.trace:
        layers = [_layer_metrics(i) for i in traced]
        values = {name: statistics.median(m[name] for m in layers)
                  for name in layers[0]}
        values["trace.overhead_ratio"] = (
            statistics.median(i["wall_s"] for i in traced)
            / statistics.median(i["wall_s"] for i in plain))
    else:
        values = {
            "wall_s": statistics.median(i["wall_s"] for i in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(i["peak_rss_mb"] for i in plain),
        }
    missing = [name for name, _ in declared if name not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared}

    manifest = _manifest(args, instances)
    error_rate = failed / attempted if attempted else 1.0
    record = {"manifest": manifest, "error_rate": error_rate,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "instances": [{k: v for k, v in i.items() if k != "records"}
                            for i in instances]}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"{args.workload}: error_rate {error_rate:.6g} ({failed}/{attempted}), "
          + ", ".join(f"{n} {m['value']:.6g} {m['unit']}" for n, m in metrics.items()))
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
