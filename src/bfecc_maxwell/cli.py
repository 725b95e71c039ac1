"""Command line front end.

    solve run        one simulation from a config file / -p overrides
    solve refine     dyadic refinement sweep, optional CSV error table
    solve analyze    spectral-radius scan of a scheme's one-step symbol
    solve gridgen    build a grid and dump its point list
    solve dispersion phase-speed curve of the wrapped centered scheme

Exit codes: 0 success, 2 configuration error (or an allocation refused as
too large), 3 run aborted as unstable.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis import cfl_bound, measured_phase_speed, phase_speed, stability_scan
from .diagnostics import write_error_table, write_snapshot
from .grid import dump_grid
from .harness import (InstabilityError, build_scatter_grid, build_variant_grid,
                      parse_config, refine_experiment, run_experiment)


def _add_config_args(p):
    p.add_argument("-c", "--config", metavar="FILE", help="config file of key = value lines")
    p.add_argument("-p", "--param", metavar="KEY=VALUE", action="append", default=[],
                   help="override one config key (repeatable)")
    p.add_argument("--allow-unstable", action="store_true",
                   help="skip the time-step stability bound check")


def _load_config(args):
    overrides = list(args.param)
    if args.allow_unstable:
        overrides.append("allow_unstable=true")
    return parse_config(args.config, overrides)


def _g17(v):
    return f"{v:.17g}"


def _cmd_run(args):
    cfg = _load_config(args)
    result = run_experiment(cfg)
    print(f"experiment={result['experiment']} n={result['n']} h={_g17(result['h'])} "
          f"dt={_g17(result['dt'])} steps={result['steps']} t={_g17(result['t'])}")
    if "l2_error" in result:
        print(f"l2_error={_g17(result['l2_error'])}")
        for name, v in result["component_rms"].items():
            print(f"rms_{name}={_g17(v)}")
    if "sup_ez_physical" in result:
        print(f"sup_ez_physical={_g17(result['sup_ez_physical'])}")
    if args.snapshot:
        if "grid" not in result:
            raise ValueError("snapshots are only available for 2D experiments")
        write_snapshot(args.snapshot, result["grid"], result["state"])
        print(f"snapshot written to {args.snapshot}")
    return 0


def _cmd_refine(args):
    cfg = _load_config(args)
    if args.levels is not None:
        cfg.levels = args.levels
    sweep = refine_experiment(cfg)
    for row in sweep["rows"]:
        order = "" if row["order"] is None else f"{row['order']:.6g}"
        print(f"n={row['n']} h={row['h']:.6g} l2_error={_g17(row['l2_error'])} order={order}")
    if args.table:
        write_error_table(args.table, sweep["rows"])
        print(f"error table written to {args.table}")
    return 0


def _cmd_analyze(args):
    try:
        lam = tuple(float(p) for p in args.lam.split(","))
    except ValueError:
        lam = ()
    if not (1 <= len(lam) <= args.dims and np.isfinite(lam).all()):
        raise ValueError(f"--lam takes {'1' if args.dims == 1 else '1 or 2'} finite "
                         f"comma-separated values in {args.dims}D, got {args.lam!r}")
    bound = cfl_bound(args.kind, args.dims, [args.h] * args.dims, args.theta) if args.cfl else None
    scan = stability_scan(args.kind, args.dims, lam[0] if len(lam) == 1 else lam,
                          args.samples, theta=args.theta, bfecc=not args.plain)
    radii = scan.radii
    if args.dims == 1:
        for j in range(scan.samples):
            print(f"{j},{_g17(radii[j])}")
        key = str(scan.argmax[0])
    else:
        for j1 in range(scan.samples):
            for j2 in range(scan.samples):
                print(f"{j1}:{j2},{_g17(radii[j1, j2])}")
        key = f"{scan.argmax[0]}:{scan.argmax[1]}"
    print(f"max_radius={_g17(scan.max_radius)} at k={key}")
    if bound is not None:
        print(f"cfl_bound={_g17(bound)}")
    return 0


def _cmd_gridgen(args):
    cfg = _load_config(args)
    if cfg.experiment in ("scatter_cylinder", "scatter_complex"):
        grid, _ = build_scatter_grid(cfg, cfg.n)
    else:
        grid = build_variant_grid(cfg.grid_variant, cfg.n, cfg.disk_center,
                                  cfg.disk_radius, cfg.smooth_sweeps)
    if args.out:
        dump_grid(grid, args.out)
        print(f"grid written to {args.out}")
    else:
        dump_grid(grid, sys.stdout)
    return 0


def _cmd_dispersion(args):
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    for j in range(1, args.points + 1):
        kh = args.kh_max * j / args.points
        if args.measured:
            print(f"{_g17(kh)},{_g17(phase_speed(args.lam, kh))},"
                  f"{_g17(measured_phase_speed(args.lam, kh, steps=args.steps))}")
        else:
            print(f"{_g17(kh)},{_g17(phase_speed(args.lam, kh))}")
    return 0


def build_parser():
    top = argparse.ArgumentParser(prog="solve", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment")
    _add_config_args(p)
    p.add_argument("--snapshot", metavar="FILE", help="write the final 2D fields as CSV")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("refine", help="dyadic refinement sweep")
    _add_config_args(p)
    p.add_argument("--levels", type=int, help="number of refinement levels")
    p.add_argument("--table", metavar="FILE", help="write the error table as CSV")
    p.set_defaults(fn=_cmd_refine)

    p = sub.add_parser("analyze", help="spectral-radius scan")
    p.add_argument("--kind", default="cd", help="scheme kind (cd, lf, theta)")
    p.add_argument("--dims", type=int, default=1, choices=(1, 2))
    p.add_argument("--lam", default="1.0", help="dt/dx ratio; two comma values in 2D")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--samples", type=int, default=64, help="samples per axis (>= 64)")
    p.add_argument("--plain", action="store_true",
                   help="scan the bare scheme instead of its wrapped form")
    p.add_argument("--cfl", action="store_true", help="also print the time-step bound")
    p.add_argument("--h", type=float, default=1.0, help="grid spacing for --cfl")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("gridgen", help="build a grid and dump `i,j,x,y,shifted` lines")
    _add_config_args(p)
    p.add_argument("--out", metavar="FILE", help="output path (default stdout)")
    p.set_defaults(fn=_cmd_gridgen)

    p = sub.add_parser("dispersion", help="phase-speed curve `k_h,phase_speed`")
    p.add_argument("--lam", type=float, default=0.5, help="dt/dx ratio")
    p.add_argument("--kh-max", type=float, default=1.5, help="largest phase angle")
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--measured", action="store_true",
                   help="append a time-domain measured column")
    p.add_argument("--steps", type=int, default=100, help="steps for --measured")
    p.set_defaults(fn=_cmd_dispersion)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # overflow in a blowing-up run is reported once, by the monitor
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        # numpy refuses an oversized array (say, analyze --samples 1e6) with a MemoryError
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
