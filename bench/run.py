"""Solver benchmark: time to a checked solution.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload execution is one
`run_experiment` call (a `refine_experiment` sweep for
refine_conforming) in a fresh `worker.py` process, with BLAS pinned to
one thread and SOLVER_THREADS unset.  Executions repeat while the next
one is expected to end within S seconds (at least MIN_EXECUTIONS times).
The seed picks the workload variant.

--trace 0 reports the end-to-end metrics, measured with tracing off:
  run_s        median over executions of the wall time to a checked
               solution, set-up included, at reference host speed
  setup_s      median time from an execution's start to its second step,
               at reference host speed
  step_ms_p95  95th percentile of the per-step wall time over steps 2..N,
               pooled over executions, at reference host speed; printed
               with the median and the sample count.  The median is not a
               metric: refine_conforming pools steps of three grid sizes,
               and its median falls in the sparse lower tail of the finest
               level's cluster, where it moves by a fifth between runs
  peak_rss_mb  median peak resident memory of an execution's process,
               less its file-backed (shared-library) pages
  pass_frac    pass share of the solver runs; on scatter_cylinder the mean
               of that share and the star-grid probe's (1 or 0), so the
               probe weighs the same however many runs fit in S seconds

"At reference host speed": each untraced execution times a fixed
calibration kernel between its steps (see worker.py), and its times are
scaled by CAL_REF_S over the kernel's mean time in that execution.  On a
shared host, other tenants slow whole executions by up to 1.8x for
minutes at a time; the kernel meets the same slow-downs, so the scaled
times stay put while the raw ones (printed alongside) do not.  The
kernel is the benchmark's own code, so a change to the solver moves the
scaled times as much as the raw ones.

--trace 1 alternates untraced and traced executions and reports the
per-layer metrics (medians over traced executions), trace.overhead_frac
(median raw traced over median raw untraced run_s, minus 1), and checks
that traced answers equal untraced ones bit for bit.  Raw spans of the
last traced execution go to .bench_out/.

Every answer is gated against reference.json.  The JSON object on the
last line of stdout carries `correct`, `attempted`, `failed` (solver
runs, one per refinement level in a sweep; the probe counts only in
pass_frac) and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.dont_write_bytecode = True
sys.path.insert(0, SRC)
try:
    import tracing
    import workloads
except ImportError:  # no solver sources here; main() reports it
    tracing = workloads = None

MIN_EXECUTIONS = 3
WORKER_TIMEOUT_S = 150
# About the calibration kernel's time on an uncontended core of the
# 2-core VM the baseline was measured on, so scaled times read close to
# that host's quiet wall times.
CAL_REF_S = 4e-4

END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("step_ms_p95", "ms"),
              ("peak_rss_mb", "MB"), ("pass_frac", "ratio")]


def worker_env():
    env = dict(os.environ)
    env.pop("SOLVER_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args):
    """One fresh worker process; returns its JSON record."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Linearly interpolated q-quantile, 0 <= q <= 1."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def host_scale(rec):
    """Factor that brings an execution's times to reference host speed."""
    return CAL_REF_S / statistics.fmean(rec["cal_s"])


def measure(name, variant, seconds, trace, tiny=False):
    """The probe if the workload has one, then executions for about
    `seconds` in all; raw records."""
    size = ["--tiny"] if tiny else []
    base = ["--workload", name, "--variant", str(variant)] + size
    spans = None
    if trace:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans_{name}_{variant}.json")
    plain, traced, durations = [], [], []
    start = time.perf_counter()
    probes = [run_worker(["--probe"] + size)] if workloads.WORKLOADS[name].probe else []
    while (len(plain) < MIN_EXECUTIONS or (trace and len(traced) < MIN_EXECUTIONS)
           or time.perf_counter() - start + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        if trace and len(durations) % 2 == 1:
            traced.append(run_worker(base + ["--trace", "--spans", spans]))
        else:
            plain.append(run_worker(base))
        durations.append(time.perf_counter() - t0)
    return plain, traced, probes


def summarize(name, variant, plain, traced, probes, want):
    """Gate every record against `want`, aggregate; (result, report lines)."""
    failures = []
    attempted = failed = 0
    for rec in plain + traced:
        attempted += rec["operations"]
        if rec["error"] is not None:
            bad, failed_here = [rec["error"]], rec["operations"]
        else:
            bad = workloads.gate(rec["answers"], want)
            failed_here = workloads.failed_runs(bad)
        if bad:
            failures.append(bad)
            failed += failed_here
    probe_failed = sum(p["status"] != "ok" for p in probes)
    all_attempted, all_failed = attempted + len(probes), failed + probe_failed
    shares = [(attempted - failed) / attempted]
    if probes:
        shares.append((len(probes) - probe_failed) / len(probes))
    ok = [r for r in plain if r["error"] is None]
    if not ok:
        raise RuntimeError(f"no untraced execution of {name} succeeded: {failures[:3]}")

    env = ok[0]["env"]
    scales = [host_scale(r) for r in ok]
    steps_ms = [1e3 * s * k for r, k in zip(ok, scales) for s in r["step_s"]]
    p95 = percentile(steps_ms, 0.95)
    raw_run_s = statistics.median(r["run_s"] for r in ok)
    cal_ms = 1e3 * statistics.median(CAL_REF_S / k for k in scales)
    values = {
        "run_s": statistics.median(r["run_s"] * k for r, k in zip(ok, scales)),
        "setup_s": statistics.median(r["setup_s"] * k for r, k in zip(ok, scales)),
        "step_ms_p95": p95,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "pass_frac": statistics.fmean(shares),
    }
    lines = [f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
             f"blas_threads={env['blas_threads']}",
             f"workload={name} variant={variant} executions={len(plain)} "
             f"traced={len(traced)} steps_per_execution={ok[0]['steps']}",
             f"raw (unscaled) medians: run_s = {raw_run_s:.6g} s, "
             f"setup_s = {statistics.median(r['setup_s'] for r in ok):.6g} s; "
             f"calibration kernel {cal_ms:.4g} ms (reference {1e3 * CAL_REF_S:.4g} ms), "
             f"{statistics.median(len(r['cal_s']) for r in ok):.0f} samples per execution",
             f"step_ms_p50 = {percentile(steps_ms, 0.5):.6g} ms, step_ms_p95 = {p95:.6g} ms "
             f"over {len(steps_ms)} samples ({sum(s > p95 for s in steps_ms)} beyond p95)"]
    for p in probes:
        lines.append(f"probe star_grid n={p['n']} limit_s={p['limit_s']}: {p['status']} "
                     f"after {p['seconds']:.3g} s")
    lines.append(f"operations attempted={all_attempted} failed={all_failed} "
                 f"fail_frac={all_failed / all_attempted:.4g} (probe included)")
    if failures:
        lines.append(f"gate failures: {failures[:5]}")

    correct = failed == 0
    if traced:
        traced_ok = [r for r in traced if r["error"] is None]
        if not traced_ok:
            raise RuntimeError(f"no traced execution of {name} succeeded: {failures[:3]}")
        identical = all(r["answers"] == ok[0]["answers"] for r in traced_ok)
        lines.append(f"traced answers bit-identical to untraced: {identical}")
        correct = correct and identical
        metrics = {m: {"value": statistics.median(r["layers"][m] for r in traced_ok), "unit": u}
                   for m, u, *_ in tracing.LAYER_METRICS}
        metrics["workload.steps"] = {"value": ok[0]["steps"], "unit": "count"}
        metrics["probe.star_grid.timeouts"] = {
            "value": sum(p["status"] == "timeout" for p in probes), "unit": "count"}
        metrics["trace.spans"] = {"value": traced_ok[-1]["layers"]["trace.spans"],
                                  "unit": "count"}
        overhead = statistics.median(r["run_s"] for r in traced_ok) / raw_run_s - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    else:
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    lines += [f"{m} = {v['value']:.6g} {v['unit']}" for m, v in metrics.items()]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small sizes, for the smoke tests")
    args = ap.parse_args(argv)
    if workloads is None:
        print(f"error: solver sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    variant = args.seed % workloads.N_VARIANTS
    want = workloads.reference_for(workloads.load_reference(), args.workload, variant,
                                   args.tiny)
    plain, traced, probes = measure(args.workload, variant, args.seconds, bool(args.trace),
                                    args.tiny)
    result, lines = summarize(args.workload, variant, plain, traced, probes, want)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
