"""Time the solver's stepping layers on fixed inputs.

    python3 tools/layers.py [--quick] [--out FILE] [--against DIR]

Layers, each timed as a fixed number of back-to-back calls per round,
interleaved over ROUNDS rounds (every round times every layer once, in a
fixed order):

  op.1d.cd           the bound 1D cd operator (one substep) on 256 points
  op.1d.theta        the bound 1D theta 0.8 operator with eps and mu on
                     256 points
  op.<kind>          the bound 2D operator (one substep) of each of the
                     five scheme kinds on a uniform periodic 149^2 grid
  op.<kind>.256      the cd, lf and theta 0.8 operators on periodic2d_cd's
                     uniform 256^2 grid
  op.ls_theta.scatter  the ls_theta operator on the 149^2 scatter_cylinder
                     grid (n = 128, 10-cell collar, cylinder eps)
  op.ls_theta.grid_d   the ls_theta operator on grid d at 80^2
  blend.149          the ls_theta center-blend entries alone on a (3,
                     149, 149) stack of the scatter grid, as its bounded
                     step binds them, into a blend from a Workspace
  setup.geometry.scatter  StencilGeometry and its cached_weights() on the
                     149^2 scatter_cylinder grid
  setup.tfsf.scatter a TfsfInjector of scatter_cylinder's plane-wave source
                     on that grid's geometry (cylinder eps, ls_theta)
  setup.grid.star    harness.build_scatter_grid of scatter_complex at
                     n = 96, the star grid of the benchmark's probe
  setup.point_shift.circle  grid.point_shift of grid d's circle on the
                     uniform periodic 80^2 grid
  PmlRunner.step     one BFECC step of the collar runner on the scatter
                     grid: three substeps, collar and TF/SF included,
                     stepped in place, t advancing by dt per call through
                     32 time levels from 1.0, as in a run
  collar.program     the collar entries of one last substep (the memory
                     term and the recursion) on the four raw difference
                     planes of the scatter grid, after one first substep
                     has kept its c * g
  tfsf.corrections.ramp  a step's two TF/SF edge-correction calls on the
                     scatter grid, (t, dt) and (t + dt, -dt), t advancing
                     the same way from 0.2, while the incident wave is
                     ramping up
  tfsf.corrections.past  the same from t = 2.0, past the ramp
  step.periodic1d    one bfecc_step of periodic1d's stepper, cd, n = 256,
                     dt_ratio 1.7, in place
  step.periodic2d_cd one bfecc_step of periodic2d_cd's stepper, cd,
                     n = 256, dt_ratio 1, in place
  bfecc.compensation.<n>  the entries of bfecc._compensation alone on
                     (3, n, n) stacks from schemes._zeros, as a run's are:
                     plane by plane at n = 256, stack-wide at n = 149
  run.periodic1d     harness.run_experiment of periodic1d, cd, n = 256,
                     dt_ratio 1.7, 200 steps
  run.grid_d.<n>     harness.run_experiment of periodic2d on grid d,
                     ls_theta, dt_ratio 0.25, n = 20, 40, 80, t_final 0.5
                     (40, 80 and 160 steps), set-up included
  run.periodic2d_cd  harness.run_experiment of periodic2d, cd, n = 256,
                     dt_ratio 1, 10 steps

The run.* and setup.* layers go through the public API only, so
`--against` times the same path in both trees.  The report holds, per
layer, the median over rounds and the best round of the time per call
(ms), plus nproc, Python, numpy and BLAS threads as bench/worker.py reads
them; it goes to FILE, or to stdout without --out.  With `--against DIR`
one long-lived worker imports this tree's package and a second one DIR's
(`DIR/src`); the rounds alternate between them, which one goes first
alternating too, so that a drift of the machine's load reaches both
sides alike.  The report then adds the other tree's layers and, per
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
GRID_D = (20, 40, 80)
LAYERS = ("op.1d.cd", "op.1d.theta") + tuple(f"op.{k}" for k in KINDS) + (
    "op.cd.256", "op.lf.256", "op.theta.256", "op.ls_theta.scatter", "op.ls_theta.grid_d",
    "blend.149", "setup.geometry.scatter", "setup.tfsf.scatter", "setup.grid.star",
    "setup.point_shift.circle", "PmlRunner.step", "collar.program", "tfsf.corrections.ramp", "tfsf.corrections.past",
    "step.periodic1d", "step.periodic2d_cd", "bfecc.compensation.256", "bfecc.compensation.149",
    "run.periodic1d") + tuple(
    f"run.grid_d.{n}" for n in GRID_D) + ("run.periodic2d_cd",)


def build_layers():
    """name -> zero-argument callable doing one call of the layer."""
    import itertools
    from functools import partial

    import numpy as np

    from bfecc_maxwell import harness, schemes
    from bfecc_maxwell.bfecc import BfeccStep, _compensation, bfecc_step
    from bfecc_maxwell.grid import Circle, build_uniform, point_shift
    from bfecc_maxwell.harness import ExperimentConfig, build_scatter_grid, build_variant_grid
    from bfecc_maxwell.pml import PmlRunner, TfsfInjector, TfsfSource, _collar_program, build_pml

    rng = np.random.default_rng(16)
    calls = {}

    def bound(op, dt, u):
        """One call of the binder op's substep program, bound to u and an
        output from a Workspace, as a stepper's X and Y are."""
        return partial(schemes.run_program, op(dt, u, schemes.Workspace()("out", u.shape)))

    def operator(kind, grid, eps=None, theta=0.0, gen=rng):
        st = schemes.FieldState2(*gen.standard_normal((3, grid.nx, grid.ny)), eps=eps)
        dt = 0.4 * min(grid.dx, grid.dy)
        return bound(schemes._operator(schemes.SchemeSpec(kind, dt, theta), st, grid), dt, st.u)

    dx = 1.0 / 256
    state1 = [schemes.FieldState1(*rng.standard_normal((2, 256)))]
    spec1 = schemes.SchemeSpec("cd", 1.7 * dx)
    calls["op.1d.cd"] = bound(schemes._operator(spec1, state1[0], dx), spec1.dt, state1[0].u)
    # a generator of its own, so that the other layers keep their inputs
    rng1 = np.random.default_rng(22)
    theta1 = schemes.FieldState1(*rng1.standard_normal((2, 256)),
                                 *rng1.uniform(0.5, 2.0, (2, 256)))
    spec_theta = schemes.SchemeSpec("theta", 0.9 * dx, 0.8)
    calls["op.1d.theta"] = bound(schemes._operator(spec_theta, theta1, dx), spec_theta.dt,
                                 theta1.u)
    stepper = BfeccStep(spec1)

    def step_1d():
        st = state1[0]
        state1[0] = bfecc_step(stepper, st, dx, out=st.u)

    grid_256 = build_uniform(256, 256)
    calls["op.cd.256"] = operator("cd", grid_256)
    # a generator of their own, so that the other layers keep their inputs
    rng_256 = np.random.default_rng(25)
    calls["op.lf.256"] = operator("lf", grid_256, gen=rng_256)
    calls["op.theta.256"] = operator("theta", grid_256, theta=0.8, gen=rng_256)
    state2 = schemes.FieldState2(*rng.standard_normal((3, 256, 256)))
    stepper2 = BfeccStep(schemes.SchemeSpec("cd", grid_256.dx))

    def step_2d():
        bfecc_step(stepper2, state2, grid_256, out=state2.u)

    uniform = build_uniform(149, 149, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    for kind in KINDS:
        calls[f"op.{kind}"] = operator(kind, uniform, theta=0.8 if kind == "theta" else 0.0)
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta", n=128)
    grid, eps = build_scatter_grid(cfg, 128)
    calls["op.ls_theta.scatter"] = operator("ls_theta", grid, eps)
    calls["op.ls_theta.grid_d"] = operator("ls_theta", build_variant_grid("d", 80))
    # a stack from a generator of its own, so that the other layers keep their inputs
    blended = schemes.FieldState2(
        *np.random.default_rng(26).standard_normal((3, grid.nx, grid.ny))).u
    work = schemes.Workspace()
    calls["blend.149"] = partial(schemes.run_program, schemes._center_blend(
        schemes.LS_CENTER["ls_theta"], blended, work("blend", blended.shape),
        work("out", blended.shape), False))
    calls["setup.geometry.scatter"] = lambda: schemes.StencilGeometry(grid).cached_weights()
    geometry = schemes.StencilGeometry(grid)
    calls["setup.tfsf.scatter"] = partial(TfsfInjector, TfsfSource(tuple(cfg.tfsf_rect)),
                                          geometry, "ls_theta", eps, None)
    star = ExperimentConfig(experiment="scatter_complex", scheme="ls_theta", n=96)
    calls["setup.grid.star"] = partial(build_scatter_grid, star, 96)
    calls["setup.point_shift.circle"] = partial(point_shift, build_uniform(80, 80),
                                                Circle(0.5, 0.5, 0.24))

    dt = 1.0 / 128
    runner = PmlRunner(grid, schemes.SchemeSpec("ls_theta", dt), build_pml(grid, dt, 10),
                       TfsfSource(tuple(cfg.tfsf_rect)))
    state = [schemes.FieldState2(*(0.1 * rng.standard_normal((3, grid.nx, grid.ny))), eps=eps)]

    def levels(t0):
        """Start times t0 + k dt, k = 0-31 over and over, so that a step's
        t + dt is the next call's t, as in a run."""
        return itertools.cycle([t0 + k * dt for k in range(32)])

    pml_level = levels(1.0)

    def pml_step():
        st = state[0]
        state[0] = runner.step(st, next(pml_level), out=st.u)

    calls["PmlRunner.step"] = pml_step
    # a collar of its own, on the runner's geometry, and planes from a
    # generator of its own, so that the other layers keep their inputs
    collar_runner = PmlRunner(grid, runner.spec, build_pml(grid, dt, 10), geometry=runner.geom,
                              weights=runner.weights)
    planes = np.random.default_rng(23).standard_normal((4, grid.nx, grid.ny))
    stage = partial(collar_runner._stage, name="plane")

    def collar(first, last):
        return tuple(entry for plane, blocks in zip(planes, collar_runner._collar[1:])
                     for entry in _collar_program(plane, blocks, stage, first, last))

    # a first substep keeps c * g, the source that holds the memory steady
    schemes.run_program(collar(True, False))
    calls["collar.program"] = partial(schemes.run_program, collar(False, True))

    def corrections(t0):
        """A step's two edge-correction calls, as PmlRunner.step makes them,
        on an injector of its own."""
        injector = TfsfInjector(runner.source, runner.geom, "ls_theta", eps, None)
        level = levels(t0)

        def call():
            t = next(level)
            injector.corrections(t, dt)
            injector.corrections(t + dt, -dt)
        return call

    calls["tfsf.corrections.ramp"] = corrections(0.2)
    calls["tfsf.corrections.past"] = corrections(2.0)
    calls["step.periodic1d"] = step_1d
    calls["step.periodic2d_cd"] = step_2d
    for n in (256, 149):
        # aligned as a run's stacks are, so the layer times the code, not
        # where the worker's heap happens to place them
        u, x, y = (schemes._zeros((3, n, n)) for _ in range(3))
        u[...], x[...], y[...] = np.random.default_rng(24).standard_normal((3, 3, n, n))
        calls[f"bfecc.compensation.{n}"] = partial(schemes.run_program, _compensation(u, x, y))

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
    """Calls per round of a layer: the run.* layers take whole runs and
    setup.grid.star about 150 ms, so they make a tenth as many calls as
    the others, at least one."""
    slow = name.startswith("run.") or name == "setup.grid.star"
    return max(1, calls_per_round // 10) if slow else calls_per_round


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
