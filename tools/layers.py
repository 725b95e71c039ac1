"""Time the solver's stepping layers on fixed inputs.

    python3 tools/layers.py [--quick] [--out FILE] [--against DIR]

Layers, each timed as CALLS back-to-back calls per round, interleaved
over ROUNDS rounds (every round times every layer once, in a fixed
order):

  op.<kind>          the bound 2D operator (one substep) of each of the
                     five scheme kinds on a uniform periodic 149^2 grid
  op.ls_theta.scatter  the ls_theta operator on the 149^2 scatter_cylinder
                     grid (n = 128, 10-cell collar, cylinder eps)
  op.ls_theta.grid_d   the ls_theta operator on grid d at 80^2
  PmlRunner.step     one BFECC step of the collar runner on the scatter
                     grid: three substeps, collar and TF/SF included

The report holds, per layer, the median over rounds and the best round
of the time per call (ms), plus nproc, Python, numpy and BLAS threads as
bench/worker.py reads them; it goes to FILE, or to stdout without --out.
With `--against DIR` the rounds alternate between subprocesses that
import this tree's package and DIR's (`DIR/src`), which one goes first
alternating too, and the report adds the other tree's layers and, per
layer, the change/other ratio of the medians and the rounds this tree
won.  Inputs are seeded, so every run times the same numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ROUNDS, CALLS = 9, 30
KINDS = ("cd", "lf", "theta", "ls_cd", "ls_theta")
LAYERS = tuple(f"op.{k}" for k in KINDS) + (
    "op.ls_theta.scatter", "op.ls_theta.grid_d", "PmlRunner.step")


def build_layers():
    """name -> zero-argument callable doing one call of the layer."""
    import numpy as np

    from bfecc_maxwell import schemes
    from bfecc_maxwell.grid import build_uniform
    from bfecc_maxwell.harness import ExperimentConfig, build_scatter_grid, build_variant_grid
    from bfecc_maxwell.pml import PmlRunner, TfsfSource, build_pml

    rng = np.random.default_rng(16)
    calls = {}

    def operator(kind, grid, eps=None, theta=0.0):
        st = schemes.FieldState2(*rng.standard_normal((3, grid.nx, grid.ny)), eps=eps)
        dt = 0.4 * min(grid.dx, grid.dy)
        op = schemes._operator(schemes.SchemeSpec(kind, dt, theta), st, grid)
        out = np.empty_like(st.u)
        return lambda: op(dt, st.u, out)

    uniform = build_uniform(149, 149, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    for kind in KINDS:
        calls[f"op.{kind}"] = operator(kind, uniform, theta=0.8 if kind == "theta" else 0.0)
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta", n=128)
    grid, eps = build_scatter_grid(cfg, 128)
    calls["op.ls_theta.scatter"] = operator("ls_theta", grid, eps)
    calls["op.ls_theta.grid_d"] = operator("ls_theta", build_variant_grid("d", 80))

    dt = 1.0 / 128
    runner = PmlRunner(grid, schemes.SchemeSpec("ls_theta", dt), build_pml(grid, dt, 10),
                       TfsfSource(tuple(cfg.tfsf_rect)))
    state = [schemes.FieldState2(*(0.1 * rng.standard_normal((3, grid.nx, grid.ny))), eps=eps)]

    def pml_step():
        state[0] = runner.step(state[0], 1.0)

    calls["PmlRunner.step"] = pml_step
    return calls


def time_rounds(rounds, calls_per_round):
    """name -> per-call seconds of each round, all layers timed in every
    round."""
    layers = build_layers()
    clock = time.perf_counter
    times = {name: [] for name in LAYERS}
    for fn in layers.values():
        fn()
    for _ in range(rounds):
        for name in LAYERS:
            fn = layers[name]
            t0 = clock()
            for _ in range(calls_per_round):
                fn()
            times[name].append((clock() - t0) / calls_per_round)
    return times


def summary(times):
    return {name: {"median_ms": 1e3 * statistics.median(ts), "best_ms": 1e3 * min(ts),
                   "rounds_ms": [1e3 * t for t in ts]}
            for name, ts in times.items()}


def run_tree(src, quick):
    """One round's times of the package under `src`, in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--worker"] + (["--quick"] if quick else [])
    res = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="3 rounds of 2 calls (a smoke run)")
    ap.add_argument("--out", metavar="FILE", help="write the report here, not to stdout")
    ap.add_argument("--against", metavar="DIR", help="a second source tree to alternate with")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    rounds, calls_per_round = (3, 2) if args.quick else (ROUNDS, CALLS)
    if args.worker:
        print(json.dumps(time_rounds(1, calls_per_round)))
        return 0
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    from worker import environment

    report = {"environment": environment(), "rounds": rounds, "calls": calls_per_round}
    if args.against is None:
        report["layers"] = summary(time_rounds(rounds, calls_per_round))
    else:
        trees = {"change": os.path.join(ROOT, "src"),
                 "against": os.path.join(os.path.abspath(args.against), "src")}
        times = {side: {name: [] for name in LAYERS} for side in trees}
        for r in range(rounds):
            for side in (("change", "against") if r % 2 == 0 else ("against", "change")):
                for name, ts in run_tree(trees[side], args.quick).items():
                    times[side][name] += ts
        report["layers"] = summary(times["change"])
        report["against"] = {"tree": os.path.basename(os.path.normpath(args.against)),
                             "layers": summary(times["against"])}
        report["pairs"] = {
            name: {"ratio": statistics.median(times["change"][name])
                   / statistics.median(times["against"][name]),
                   "wins": sum(a < b for a, b in zip(times["change"][name],
                                                     times["against"][name]))}
            for name in LAYERS}
    bad = [n for n, row in report["layers"].items()
           if not (math.isfinite(row["median_ms"]) and row["median_ms"] > 0)]
    if args.out is None:
        print(json.dumps(report, indent=1))
    else:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
