"""Outside-in layer trace for the stablebranch benchmark.

`Tracer.install` wraps the public functions of each library layer from
outside the package: it replaces the function on its defining module or
class and every module-level alias of it inside `stablebranch`, so calls
made through ``from .x import f`` are seen too.  Nothing in the package
changes.

Each wrapper opens a span.  Spans live on a per-thread stack and
accumulate into in-memory sums, read once when the workload ends.

* ``<name>.s`` is the span's inclusive wall time.
* ``<layer>.self_s`` and ``<name>.self_s`` are exclusive CPU seconds:
  the thread CPU time of the span minus that of its child spans.  CPU
  time, not wall time, so that spans running at once on the `fastsim`
  thread pool add up instead of overlapping.
* A `fastsim` batch fans its chunks out to worker threads, whose
  spans have no parent on their own thread.  Its self time is therefore
  the process CPU time over the batch minus the self time of every span
  that closed meanwhile, on any thread.

So the self times of all layers sum to the process CPU time spent inside
outermost spans; what is left of the workload's CPU time is benchmark
glue (CSV parsing, checks) outside every span.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from collections import defaultdict

# (layer, span name, module, class or None, attribute, fans out to threads)
SPANS = (
    ("stable_motion", "stable_motion.sample_increments", "stable_motion", None,
     "sample_increments", False),
    ("stable_motion", "stable_motion.transition_density_radial", "stable_motion",
     None, "transition_density_radial", False),
    ("stable_motion", "stable_motion.radial_fourier_inverse", "stable_motion",
     None, "radial_fourier_inverse", False),
    ("stable_motion", "stable_motion.semigroup_apply", "stable_motion", None,
     "semigroup_apply", False),
    ("fastsim", "fastsim.field_batch", "fastsim", None, "field_batch", True),
    ("fastsim", "fastsim.tree_batch", "fastsim", None, "tree_batch", True),
    ("lifetimes", "lifetimes.sample", "lifetimes", "Exponential", "sample", False),
    ("lifetimes", "lifetimes.sample", "lifetimes", "Gamma", "sample", False),
    ("lifetimes", "lifetimes.sample", "lifetimes", "ParetoTail", "sample", False),
    ("occupation", "occupation.evaluate", "occupation", "TestFunction", "evaluate",
     False),
    ("renewal", "renewal.build_renewal", "renewal", None, "build_renewal", False),
    ("moments", "moments.pair_correlation", "moments", None, "pair_correlation",
     False),
    ("moments", "moments.pair_correlation_realspace", "moments", None,
     "pair_correlation_realspace", False),
    ("moments", "moments.field_covariance", "moments", None, "field_covariance",
     False),
    ("moments", "moments.tree_second_moment", "moments", None,
     "tree_second_moment", False),
    ("moments", "moments.occupation_variance", "moments", None,
     "occupation_variance", False),
    ("experiments", "experiments.run_experiment", "experiments", None,
     "run_experiment", False),
    ("experiments", "experiments.run_validation_suite", "experiments", None,
     "run_validation_suite", False),
    ("experiments", "experiments.default_renewal_table", "experiments", None,
     "default_renewal_table", False),
    ("experiments", "experiments.write_result_rows", "experiments", None,
     "write_result_rows", False),
    ("experiments", "experiments.write_check_rows", "experiments", None,
     "write_check_rows", False),
    ("cli", "cli.main", "cli", None, "main", False),
)

LAYERS = ("stable_motion", "fastsim", "lifetimes", "occupation", "renewal",
          "moments", "experiments", "cli")
PEAK_KEYS = {"fastsim.peak_live", "renewal.error_estimate_max"}


def _record_result(tracer, name, result):
    """Counters taken from a span's result; called with the lock held."""
    add, peak = tracer._add, tracer._peak
    if name == "stable_motion.sample_increments":
        add("stable_motion.sample_increments.rows", len(result))
    elif name == "lifetimes.sample":
        size = int(getattr(result, "size", 1))
        add("lifetimes.sample.draws", size)
        if tracer.open_batches:
            # one lifetime draw per generation wave, sized to the wave
            add("fastsim.waves", 1)
            peak("fastsim.peak_live", size)
    elif name == "occupation.evaluate":
        add("occupation.evaluate.rows", len(result))
    elif name in ("fastsim.field_batch", "fastsim.tree_batch"):
        add("fastsim.rows", float(result.series["count"].sum()))
        add("fastsim.aborted", int(result.aborted.sum()))
    elif name == "renewal.build_renewal":
        add("renewal.build_renewal.grid_points", len(result.grid))
        if math.isfinite(result.error_estimate):
            peak("renewal.error_estimate_max", float(result.error_estimate))


class Tracer:
    """In-memory span sums for one workload process."""

    def __init__(self):
        self.raw = defaultdict(float)
        self.missing = []
        self.open_batches = 0
        self._self_total = 0.0  # self CPU of every closed span, all threads
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, key, value):
        self.raw[key] += value

    def _peak(self, key, value):
        self.raw[key] = max(self.raw[key], value)

    def _wrap(self, layer, name, fn, fan_out):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]  # thread CPU of direct children
            stack.append(frame)
            if fan_out:
                with tracer._lock:
                    tracer.open_batches += 1
                    total0 = tracer._self_total
                proc0 = time.process_time()
            wall0 = time.perf_counter()
            cpu0 = time.thread_time()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = time.thread_time() - cpu0
                wall = time.perf_counter() - wall0
                stack.pop()
                if stack:
                    stack[-1][0] += cpu
                with tracer._lock:
                    if fan_out:
                        proc = time.process_time() - proc0
                        own = proc - (tracer._self_total - total0)
                        tracer.open_batches -= 1
                        tracer._add("fastsim.batch_cpu_s", proc)
                        tracer._add("fastsim.batch_wall_s", wall)
                    else:
                        own = cpu - frame[0]
                    tracer._self_total += own
                    tracer._add(f"{layer}.self_s", own)
                    tracer._add(f"{name}.self_s", own)
                    tracer._add(f"{name}.calls", 1)
                    tracer._add(f"{name}.s", wall)
                    if result is not None:
                        _record_result(tracer, name, result)

        return wrapper

    def install(self, package: str = "stablebranch") -> None:
        """Wrap every span in SPANS; a name the package lacks is skipped."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for layer, name, module, cls, attr, fan_out in SPANS:
            owner = sys.modules.get(f"{package}.{module}")
            if owner is not None and cls is not None:
                owner = getattr(owner, cls, None)
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
                continue
            wrapped = self._wrap(layer, name, orig, fan_out)
            setattr(owner, attr, wrapped)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.raw)


def merge(raws) -> dict:
    """Sum the counters of several processes; peaks take the maximum."""
    merged: dict[str, float] = {}
    for raw in raws:
        for key, value in raw.items():
            if key in PEAK_KEYS:
                merged[key] = max(merged.get(key, 0.0), value)
            else:
                merged[key] = merged.get(key, 0.0) + value
    return merged


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# Span sums reported as they are.
DIRECT = (
    *(f"stable_motion.{fn}.{key}"
      for fn in ("sample_increments", "transition_density_radial",
                 "radial_fourier_inverse", "semigroup_apply")
      for key in ("calls", "self_s")),
    "stable_motion.sample_increments.rows",
    "fastsim.field_batch.calls", "fastsim.field_batch.s", "fastsim.tree_batch.s",
    "fastsim.rows", "fastsim.waves", "fastsim.peak_live", "fastsim.aborted",
    "lifetimes.sample.draws", "lifetimes.sample.self_s",
    "occupation.evaluate.calls", "occupation.evaluate.rows",
    "occupation.evaluate.self_s",
    "renewal.build_renewal.grid_points", "renewal.build_renewal.self_s",
    "renewal.error_estimate_max",
    "moments.pair_correlation.calls", "moments.pair_correlation.self_s",
    "moments.occupation_variance.s", "moments.tree_second_moment.s",
    "moments.field_covariance.s",
    "experiments.run_validation_suite.s", "cli.main.s",
    *(f"{layer}.self_s" for layer in LAYERS),
)


def per_layer(raw: dict, *, wall_s: float, cpu_s: float, import_s: float,
              csv_bytes: float, csv_unparsed_fields: float) -> dict:
    """Per-layer metrics from the summed span counters of one instance."""
    m = {key: float(raw.get(key, 0.0)) for key in DIRECT}
    batch_wall = float(raw.get("fastsim.batch_wall_s", 0.0))
    sampler_self = m["stable_motion.sample_increments.self_s"]
    self_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m.update({
        "stable_motion.sample_increments.ns_per_row":
            1e9 * _ratio(sampler_self, m["stable_motion.sample_increments.rows"]),
        "stable_motion.sample_increments.share": _ratio(sampler_self, cpu_s),
        "fastsim.rows_per_s": _ratio(m["fastsim.rows"], batch_wall),
        "fastsim.cpu_per_wall": _ratio(float(raw.get("fastsim.batch_cpu_s", 0.0)),
                                       batch_wall),
        "lifetimes.sample.ns_per_draw": 1e9 * _ratio(m["lifetimes.sample.self_s"],
                                                     m["lifetimes.sample.draws"]),
        "moments.tree_second_moment.share":
            _ratio(m["moments.tree_second_moment.s"], wall_s),
        "cli.csv_bytes": csv_bytes,
        "cli.csv_unparsed_fields": csv_unparsed_fields,
        "setup.import_s": import_s,
        "trace.wall_s": wall_s,
        "trace.cpu_s": cpu_s,
        "trace.self_sum_s": self_sum,
        "trace.outside_spans_s": cpu_s - self_sum,
    })
    return m
