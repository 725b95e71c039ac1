"""Time the solver's stepping layers on fixed inputs.

    python3 tools/layers.py [--quick] [--out FILE] [--against DIR]

Layers, each timed as a fixed number of back-to-back calls per round,
interleaved over ROUNDS rounds (every round times every layer once, in a
fixed order):

  op.1d.cd           the bound 1D cd operator (one substep) on 256 points
  op.<kind>          the bound 2D operator (one substep) of each of the
                     five scheme kinds on a uniform periodic 149^2 grid
  op.ls_theta.scatter  the ls_theta operator on the 149^2 scatter_cylinder
                     grid (n = 128, 10-cell collar, cylinder eps)
  op.ls_theta.grid_d   the ls_theta operator on grid d at 80^2
  PmlRunner.step     one BFECC step of the collar runner on the scatter
                     grid: three substeps, collar and TF/SF included,
                     stepped in place
  step.periodic1d    one bfecc_step of periodic1d's stepper, cd, n = 256,
                     dt_ratio 1.7, in place
  run.periodic1d     harness.run_experiment of periodic1d, cd, n = 256,
                     dt_ratio 1.7, 200 steps
  run.grid_d.<n>     harness.run_experiment of periodic2d on grid d,
                     ls_theta, dt_ratio 0.25, n = 20, 40, 80, t_final 0.5
                     (40, 80 and 160 steps), set-up included
  run.periodic2d_cd  harness.run_experiment of periodic2d, cd, n = 256,
                     dt_ratio 1, 10 steps

The run.* layers go through the public API only, so `--against` times
the same path in both trees.  The report holds, per layer, the median
over rounds and the best round of the time per call (ms), plus nproc,
Python, numpy and BLAS threads as bench/worker.py reads them; it goes to
FILE, or to stdout without --out.  With `--against DIR` one long-lived
worker imports this tree's package and a second one DIR's (`DIR/src`);
the rounds alternate between them, which one goes first alternating
too, so that a drift of the machine's load reaches both sides alike.
The report then adds the other tree's layers and, per layer, the
change/other ratio of the medians and the rounds this tree won.  Inputs
are seeded, so every run times the same numbers.
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
GRID_D = (20, 40, 80)
LAYERS = ("op.1d.cd",) + tuple(f"op.{k}" for k in KINDS) + (
    "op.ls_theta.scatter", "op.ls_theta.grid_d", "PmlRunner.step", "step.periodic1d",
    "run.periodic1d") + tuple(f"run.grid_d.{n}" for n in GRID_D) + ("run.periodic2d_cd",)


def build_layers():
    """name -> zero-argument callable doing one call of the layer."""
    from functools import partial

    import numpy as np

    from bfecc_maxwell import harness, schemes
    from bfecc_maxwell.bfecc import BfeccStep, bfecc_step
    from bfecc_maxwell.grid import build_uniform
    from bfecc_maxwell.harness import ExperimentConfig, build_scatter_grid, build_variant_grid
    from bfecc_maxwell.pml import PmlRunner, TfsfSource, build_pml

    rng = np.random.default_rng(16)
    calls = {}

    def bound(op, dt, u):
        """One call of the binder op's substep program, bound to u and an
        output."""
        return partial(schemes.run_program, op(dt, u, np.empty_like(u)))

    def operator(kind, grid, eps=None, theta=0.0):
        st = schemes.FieldState2(*rng.standard_normal((3, grid.nx, grid.ny)), eps=eps)
        dt = 0.4 * min(grid.dx, grid.dy)
        return bound(schemes._operator(schemes.SchemeSpec(kind, dt, theta), st, grid), dt, st.u)

    dx = 1.0 / 256
    state1 = [schemes.FieldState1(*rng.standard_normal((2, 256)))]
    spec1 = schemes.SchemeSpec("cd", 1.7 * dx)
    calls["op.1d.cd"] = bound(schemes._operator(spec1, state1[0], dx), spec1.dt, state1[0].u)
    stepper = BfeccStep(spec1)

    def step_1d():
        st = state1[0]
        state1[0] = bfecc_step(stepper, st, dx, out=st.u)

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
        st = state[0]
        state[0] = runner.step(st, 1.0, out=st.u)

    calls["PmlRunner.step"] = pml_step
    calls["step.periodic1d"] = step_1d

    def run(**settings):
        return lambda: harness.run_experiment(ExperimentConfig(**settings))

    calls["run.periodic1d"] = run(experiment="periodic1d", scheme="cd", n=256, dt_ratio=1.7,
                                  t_final=200 * 1.7 / 256)
    for n in GRID_D:
        calls[f"run.grid_d.{n}"] = run(experiment="periodic2d", grid_variant="d",
                                       scheme="ls_theta", n=n, dt_ratio=0.25, t_final=0.5)
    calls["run.periodic2d_cd"] = run(experiment="periodic2d", grid_variant="a", scheme="cd",
                                     n=256, dt_ratio=1.0, t_final=10.0 / 256)
    return calls


def calls_of(name, calls_per_round):
    """Calls per round of a layer: the run.* layers take whole runs, so
    they make a tenth as many calls as the others, at least one."""
    return max(1, calls_per_round // 10) if name.startswith("run.") else calls_per_round


def time_round(layers, calls_per_round):
    """name -> per-call seconds of one round over all layers."""
    clock = time.perf_counter
    times = {}
    for name in LAYERS:
        fn, calls = layers[name], calls_of(name, calls_per_round)
        t0 = clock()
        for _ in range(calls):
            fn()
        times[name] = (clock() - t0) / calls
    return times


def time_rounds(rounds, calls_per_round):
    """name -> per-call seconds of each round, all layers timed in every
    round."""
    layers = build_layers()
    for fn in layers.values():
        fn()
    times = {name: [] for name in LAYERS}
    for _ in range(rounds):
        for name, t in time_round(layers, calls_per_round).items():
            times[name].append(t)
    return times


def summary(times):
    return {name: {"median_ms": 1e3 * statistics.median(ts), "best_ms": 1e3 * min(ts),
                   "rounds_ms": [1e3 * t for t in ts]}
            for name, ts in times.items()}


def serve(calls_per_round):
    """The worker: builds the layers once, then times one round for every
    line read from stdin and writes its times as one JSON line."""
    layers = build_layers()
    for fn in layers.values():
        fn()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(json.dumps(time_round(layers, calls_per_round)), flush=True)


class Worker:
    """A long-lived worker process timing the package under `src`."""

    def __init__(self, src, quick):
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, os.path.abspath(__file__), "--worker"] + (
            ["--quick"] if quick else [])
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError(f"the layer worker for {src} did not start")

    def round(self):
        self.proc.stdin.write("round\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("a layer worker exited")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="3 rounds of 2 calls (a smoke run)")
    ap.add_argument("--out", metavar="FILE", help="write the report here, not to stdout")
    ap.add_argument("--against", metavar="DIR", help="a second source tree to alternate with")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    rounds, calls_per_round = (3, 2) if args.quick else (ROUNDS, CALLS)
    if args.worker:
        serve(calls_per_round)
        return 0
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    from worker import environment

    report = {"environment": environment(), "rounds": rounds, "calls": calls_per_round}
    if args.against is None:
        report["layers"] = summary(time_rounds(rounds, calls_per_round))
    else:
        sides = ("change", "against")
        trees = {"change": os.path.join(ROOT, "src"),
                 "against": os.path.join(os.path.abspath(args.against), "src")}
        workers = {}
        try:
            for side in sides:
                workers[side] = Worker(trees[side], args.quick)
            times = {side: {name: [] for name in LAYERS} for side in sides}
            for r in range(rounds):
                for side in (sides if r % 2 == 0 else sides[::-1]):
                    for name, t in workers[side].round().items():
                        times[side][name].append(t)
        finally:
            for w in workers.values():
                w.close()
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
