"""One execution of a benchmark workload, or the star-grid probe.

`run.py` starts this script in a fresh interpreter for every execution,
so no lru-cached set-up (such as `analysis.theta_cfl_constant`) carries
over from one execution to the next:

    python3 bench/worker.py --workload NAME --variant V [--trace] [--tiny] [--spans FILE]
    python3 bench/worker.py --probe [--tiny]

The last line of stdout is one JSON record.  Untraced executions wrap
only `run_experiment` and the per-step calls (for set-up and step
times) and sample a calibration kernel between steps; traced ones wrap
every layer boundary in `tracing.LAYER_WRAPS`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import signal
import sys
import time

import numpy as np

from bfecc_maxwell import harness
from bfecc_maxwell.harness import ExperimentConfig

import tracing
import workloads


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or the pinning variable."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def environment():
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas_threads()}


def peak_rss_mb():
    """Peak resident memory less the file-backed pages resident now.

    How many pages of the interpreter's and numpy's shared libraries get
    mapped in depends on what the page cache holds from other processes,
    which moved the plain peak by several MB between otherwise equal
    runs; the program's own (anonymous) memory does not depend on it.
    """
    with open("/proc/self/status") as f:
        kb = {k: int(v.split()[0]) for k, v in (line.split(":", 1) for line in f)
              if k in ("VmHWM", "RssFile", "RssShmem")}
    return (kb["VmHWM"] - kb["RssFile"] - kb["RssShmem"]) / 1024.0


# Host-speed calibration.  On the shared host this benchmark was tuned
# on, other tenants slow both cores by up to 1.8x for minutes at a time,
# with no steal time visible to the guest, so raw wall times of the same
# code spread by more than any usable bound.  Untraced executions time a
# fixed kernel of the same kind of work as a solver step (small-array
# numpy calls driven from Python) between steps, so that it meets the
# same slow-downs, and run.py scales the execution's times by the
# kernel's mean time.  The kernel runs twice per sample and only the
# second run is timed, so the cache state a step leaves does not change
# the sample.
CAL_EVERY_S = 0.01
_CAL_X = np.linspace(0.0, 1.0, 256)


def calibration_kernel():
    a = _CAL_X
    for _ in range(20):
        a = a + 1e-3 * (np.roll(a, 1) - np.roll(a, -1))
    return a


class Calibrator:
    """Samples calibration_kernel after a step, from a run's second step
    on, whenever CAL_EVERY_S has passed since the last sample.  The
    samples lie outside the step spans and the set-up intervals;
    `spent_s` is all the time they took."""

    def __init__(self):
        self.samples, self.spent_s = [], 0.0
        self._steps, self._last, self._saved = 0, 0.0, []

    def _wrap_run(self, fn):
        def run(*args, **kwargs):
            self._steps = 0
            return fn(*args, **kwargs)
        return run

    def _wrap_step(self, fn):
        def step(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._steps += 1
            t0 = time.perf_counter()
            if self._steps >= 2 and t0 - self._last >= CAL_EVERY_S:
                calibration_kernel()
                t1 = time.perf_counter()
                calibration_kernel()
                self._last = time.perf_counter()
                self.samples.append(self._last - t1)
                self.spent_s += self._last - t0
            return result
        return step

    def __enter__(self):
        for owner, attr, name, _ in tracing.STEP_WRAPS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            wrap = self._wrap_step if name in tracing.STEP_NAMES else self._wrap_run
            setattr(owner, attr, wrap(fn))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False


def execute(name, variant, trace=False, tiny=False, spans_path=None):
    """Run the workload once through harness.run_experiment (or
    harness.refine_experiment for a refinement sweep).

    `run_s` is the run's wall time less the calibration samples taken in
    it (untraced executions only; traced ones take none).
    """
    cfg = workloads.config(name, variant, tiny)
    refine = workloads.WORKLOADS[name].refine
    tracer = tracing.Tracer(tracing.LAYER_WRAPS if trace else tracing.STEP_WRAPS)
    calibrator = Calibrator()
    error = None
    with tracer, (contextlib.nullcontext() if trace else calibrator):
        t0 = time.perf_counter()
        try:
            solve = harness.refine_experiment if refine else harness.run_experiment
            answers = workloads.answers(solve(cfg))
        except Exception as exc:  # a failed operation is counted, not fatal
            answers, error = {}, f"{type(exc).__name__}: {exc}"
        run_s = time.perf_counter() - t0 - calibrator.spent_s
    record = {"workload": name, "variant": variant, "trace": trace, "error": error,
              "operations": cfg.levels if refine else 1,
              "answers": answers, "run_s": run_s, "cal_s": calibrator.samples,
              "peak_rss_mb": peak_rss_mb(), "env": environment()}
    if error is not None:
        return record
    setup_s, step_s = tracing.run_steps(tracer.spans)
    record.update(setup_s=setup_s, step_s=step_s,
                  steps=sum(s.name in tracing.STEP_NAMES for s in tracer.spans))
    if trace:
        totals = tracing.layer_totals(tracer.spans)
        layers = {metric: totals.get(layer, {}).get(key, 0) * scale
                  for metric, _, layer, key, scale in tracing.LAYER_METRICS}
        layers["trace.spans"] = len(tracer.spans)
        record["layers"] = layers
        if spans_path:
            tracer.write(spans_path)
    return record


class ProbeTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ProbeTimeout


def probe(tiny=False, limit_s=workloads.PROBE_LIMIT_S):
    """Build a scatter_complex (star) grid under a time limit.

    Passes if the build ends in time with finite nodes that moved at most
    half a cell.  The limit is enforced in-process with SIGALRM, which
    interrupts the pure-Python root search between bytecodes.
    """
    n = workloads.PROBE_TINY_N if tiny else workloads.PROBE_N
    cfg = ExperimentConfig(experiment="scatter_complex", scheme="ls_theta", n=n)
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        grid, _ = harness.build_scatter_grid(cfg, n)
        signal.setitimer(signal.ITIMER_REAL, 0)
        shift = np.abs(grid.coords - grid.rect_coords())
        ok = bool(np.all(np.isfinite(grid.coords))
                  and shift.max() <= 0.5 * max(grid.dx, grid.dy) * (1 + 1e-12))
        status = "ok" if ok else "bad_grid"
    except ProbeTimeout:
        status = "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return {"probe": "star_grid", "n": n, "status": status,
            "seconds": time.perf_counter() - t0, "limit_s": limit_s}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--variant", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    if args.probe:
        record = probe(args.tiny)
    elif args.workload:
        record = execute(args.workload, args.variant, args.trace, args.tiny, args.spans)
    else:
        ap.error("give --workload or --probe")
    print(json.dumps(record, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
