"""Check that two source trees compute the same bits.

    python3 tools/samebits.py --against DIR [--quick]

One worker process per tree (this tree's `src`, then DIR's `src`, both
running at once) makes one fixed list of runs through the public API and
hashes (sha1, with dtype and shape) every final array of each run.  The
verdict is one line, "equal: R runs, A arrays" or "differ: first at RUN
(ARRAY)", and the exit code is 0 for equal and 1 otherwise.  Hashes can
differ between machines (einsum's reduction order is not fixed), so the
tool compares two trees on one machine and keeps no hashes.

The runs, in this order:

  <workload>.<v>     all 8 variants v of the four benchmark workloads
                     (bench/workloads.py, read from this tree for both),
                     a sweep's levels each as <workload>.<v>@<n>
  plain.periodic2d   ls_theta on grid d at n = 16 with bfecc = false
  plain.scatter      scatter_cylinder at n = 16 with bfecc = false
  ls_cd.scatter      scatter_cylinder with ls_cd at n = 24
  remainder.scatter  scatter_cylinder at n = 16 to a t_final that ends
                     with a shorter step
  remainder.grid_d   ls_theta on grid d at n = 20 to such a t_final

The arrays of a run are its final state stack `u` and, for a scatter
run, the four memory planes of its collar (psi_hxy, psi_hyx, psi_ezx,
psi_ezy).  `--quick` runs the workloads at their smoke-test sizes
(bench/workloads.py's `tiny`); the other runs are small either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
MEMORY = ("psi_hxy", "psi_hyx", "psi_ezx", "psi_ezy")
EXTRA = (
    ("plain.periodic2d", dict(experiment="periodic2d", grid_variant="d", scheme="ls_theta",
                              n=16, dt_ratio=0.25, t_final=0.25, bfecc=False)),
    ("plain.scatter", dict(experiment="scatter_cylinder", scheme="ls_theta", n=16,
                           t_final=0.4, bfecc=False)),
    ("ls_cd.scatter", dict(experiment="scatter_cylinder", scheme="ls_cd", n=24, t_final=0.4)),
    ("remainder.scatter", dict(experiment="scatter_cylinder", scheme="ls_theta", n=16,
                               t_final=0.41)),
    ("remainder.grid_d", dict(experiment="periodic2d", grid_variant="d", scheme="ls_theta",
                              n=20, dt_ratio=0.25, t_final=0.33)),
)


def digest(a):
    h = hashlib.sha1(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def runs(quick):
    """(label, config, sweep) for every run of the list, in order."""
    import workloads
    from bfecc_maxwell.harness import ExperimentConfig

    for name, w in workloads.WORKLOADS.items():
        for v in range(workloads.N_VARIANTS):
            yield f"{name}.{v}", workloads.config(name, v, tiny=quick), w.refine
    for label, settings in EXTRA:
        yield label, ExperimentConfig(**settings), False


def serve(quick):
    """The worker: makes every run with the package on its path and prints
    [[label, [[array, sha1], ...]], ...] as one JSON line."""
    from bfecc_maxwell import harness

    made = []
    build_pml = harness.build_pml

    def keep(*args, **kwargs):
        made.append(build_pml(*args, **kwargs))
        return made[-1]

    harness.build_pml = keep
    report = []
    for label, cfg, sweep in runs(quick):
        made.clear()
        try:
            result = (harness.refine_experiment if sweep else harness.run_experiment)(cfg)
        except Exception as exc:  # a run that fails in one tree only is a difference
            report.append([label, [["error", f"{type(exc).__name__}: {exc}"]]])
            continue
        levels = ([(f"{label}@{r['n']}", r) for r in result["runs"]] if sweep
                  else [(label, result)])
        for k, (name, run) in enumerate(levels):
            arrays = [["u", digest(run["state"].u)]]
            if k < len(made):
                arrays += [[m, digest(getattr(made[k], m))] for m in MEMORY]
            report.append([name, arrays])
    print(json.dumps(report))


def hashes(src, quick):
    """Start the worker of the tree whose package is under `src`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, BENCH)),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--worker"] + (["--quick"] if quick else [])
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


def verdict(mine, other):
    """The one-line verdict on two workers' reports."""
    for (label, arrays), (label2, arrays2) in zip(mine, other):
        if label != label2:
            return f"differ: run lists part at {label} against {label2}"
        for (name, h), (name2, h2) in zip(arrays, arrays2):
            if (name, h) != (name2, h2):
                return f"differ: first at {label} ({name})"
        if len(arrays) != len(arrays2):
            return f"differ: first at {label} (array count {len(arrays)} against {len(arrays2)})"
    if len(mine) != len(other):
        return f"differ: run count {len(mine)} against {len(other)}"
    return f"equal: {len(mine)} runs, {sum(len(a) for _, a in mine)} arrays"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="DIR", help="the source tree to compare with")
    ap.add_argument("--quick", action="store_true", help="the workloads at smoke-test sizes")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        serve(args.quick)
        return 0
    if args.against is None:
        ap.error("--against DIR is required")
    procs = [hashes(os.path.join(tree, "src"), args.quick)
             for tree in (ROOT, os.path.abspath(args.against))]
    outs = [p.communicate()[0] for p in procs]
    if any(p.returncode for p in procs):
        print(f"error: a worker exited with {[p.returncode for p in procs]}")
        return 2
    line = verdict(*(json.loads(out) for out in outs))
    print(line)
    return 0 if line.startswith("equal") else 1


if __name__ == "__main__":
    sys.exit(main())
