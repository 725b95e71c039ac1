"""Experiment harness: configuration, reference problems, refinement sweeps.

Experiments
  periodic1d        travelling wave E = H = sin(2 pi (x + t)) on [0, 1)
  periodic2d        TMz travelling wave Ez = sin(2 pi (x - t)), Hy = -Ez
                    on [0, 1)^2, on one of four grid variants
  scatter_cylinder  dielectric disk in an absorbing-collar box with a
                    plane wave fed through a total-field rectangle
  scatter_complex   same setup around a star-shaped scatterer

Grid variants for periodic2d
  a  uniform
  b  smooth tensor deformation: both coordinates shifted by
     0.05 sin(2 pi x) sin(2 pi y)
  c  radial stretch about the disk center, compactly supported in the
     inscribed disk: r -> r + 0.05 sin^2(2 pi r) for r < 1/2
  d  grid points pulled onto the circle of radius `disk_radius`

Two drivers run them: `run_periodic` both periodic experiments, a short
head per dimension ahead of one shared tail (CFL check, march, error
norms), and `run_scatter` the scatter ones.  Each advances its state
with `_march`, the one time loop, which steps the run's one state stack
in place and owns the step count, the sup-norm monitor that aborts
blown-up runs early, and the remainder: floor(T / dt) full steps plus
one shorter final step, taken with the stepper's `with_dt`, so runs land
exactly on t_final.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Optional, get_type_hints

import numpy as np

from .analysis import cfl_bound
from .bfecc import BfeccStep, bfecc_step
from .diagnostics import component_rms, convergence_orders, l2_error, restrict_to_coarse
from .grid import Circle, Grid2, StarCurve, build_uniform, point_shift, smooth_shift
from .pml import PmlRunner, TfsfSource, build_pml
# step_1d, a second name for step_2d, is looked up here by bench/tracing.py
from .schemes import (LS_KINDS, SCHEME_KINDS, FieldState1, FieldState2, SchemeSpec,  # noqa: F401
                      StencilGeometry, step_1d, step_2d)

EXPERIMENTS = ("periodic1d", "periodic2d", "scatter_cylinder", "scatter_complex")
GRID_VARIANTS = ("a", "b", "c", "d")
# the most steps a run may take: a larger t_final / dt would run for hours
# (1e7 1D steps at n = 256 take about three minutes), so it is a bad setting
MAX_STEPS = 10 ** 7
# the most point-steps a refinement sweep may take over all its runs: the
# work MAX_STEPS allows one 1D run on 256 points
MAX_SWEEP_WORK = 256 * MAX_STEPS


class InstabilityError(RuntimeError):
    """Raised by the sup-norm monitor when a run blows up."""

    def __init__(self, step, time, sup):
        super().__init__(
            f"solution blew up: sup = {sup:.3e} after step {step} (t = {time:.6g})")
        self.step = step
        self.time = time
        self.sup = sup


@dataclass
class ExperimentConfig:
    """Run settings.  Each field is a config-file key of its own name,
    unless its metadata names another, parsed by the converter of its type."""

    experiment: str = "periodic1d"
    scheme: str = "cd"
    theta: float = 0.8
    bfecc: bool = True
    n: int = 64
    dt_ratio: float = 0.5
    t_final: float = 0.6
    grid_variant: str = field(default="a", metadata={"key": "grid"})
    levels: int = 3
    smooth_sweeps: int = 0
    disk_center: tuple = (0.5, 0.5)
    disk_radius: float = 0.24
    eps_inside: float = 2.25
    shift_to_boundary: bool = True
    reference_n: int = 0
    allow_unstable: bool = False
    check_every: int = 10
    blowup_threshold: float = 1e6
    pml_cells: int = field(default=10, metadata={"key": "pml.cells"})
    pml_sigma_max: Optional[float] = field(default=None, metadata={"key": "pml.sigma_max"})
    pml_exponent: float = field(default=3.0, metadata={"key": "pml.exponent"})
    tfsf_rect: tuple = field(default=(0.1, 0.9, 0.1, 0.9), metadata={"key": "tfsf.rect"})
    tfsf_omega: float = field(default=2.0 * math.pi / 0.6, metadata={"key": "tfsf.omega"})
    tfsf_amplitude: float = field(default=1.0, metadata={"key": "tfsf.amplitude"})
    tfsf_ramp: float = field(default=0.6, metadata={"key": "tfsf.ramp"})
    star_lobes: int = field(default=5, metadata={"key": "star.lobes"})
    star_ripple: float = field(default=0.25, metadata={"key": "star.ripple"})
    star_r0: float = field(default=0.24, metadata={"key": "star.r0"})


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_floats(s):
    return tuple(float(p) for p in s.split(","))


def _parse_opt_float(s):
    return None if s.strip().lower() in ("none", "auto") else float(s)


_CONVERTERS = {str: str, int: int, float: float, bool: _parse_bool, tuple: _parse_floats,
               Optional[float]: _parse_opt_float}
_TYPES = get_type_hints(ExperimentConfig)
# config-file key -> (attribute, converter), in field order
KNOWN_KEYS = {f.metadata.get("key", f.name): (f.name, _CONVERTERS[_TYPES[f.name]])
              for f in fields(ExperimentConfig)}

# float settings, tuples and the optional pml.sigma_max included; each
# must be finite (filtered once, as validate_config runs inside every run)
FLOAT_KEYS = [(key, attr) for key, (attr, conv) in KNOWN_KEYS.items()
              if conv in (float, _parse_floats, _parse_opt_float)]


def apply_setting(cfg: ExperimentConfig, key: str, value: str) -> None:
    if key not in KNOWN_KEYS:
        raise ValueError(
            f"unknown config key {key!r}; known keys: {', '.join(sorted(KNOWN_KEYS))}")
    attr, conv = KNOWN_KEYS[key]
    try:
        setattr(cfg, attr, conv(value))
    except ValueError as exc:
        raise ValueError(f"bad value for {key!r}: {exc}") from exc


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {cfg.experiment!r}")
    if cfg.scheme not in SCHEME_KINDS:
        raise ValueError(f"scheme must be one of {SCHEME_KINDS}, got {cfg.scheme!r}")
    if cfg.grid_variant not in GRID_VARIANTS:
        raise ValueError(f"grid must be one of {GRID_VARIANTS}, got {cfg.grid_variant!r}")
    if cfg.n < 4:
        raise ValueError(f"n must be at least 4, got {cfg.n}")
    for key, attr in FLOAT_KEYS:
        value = getattr(cfg, attr)
        values = value if isinstance(value, tuple) else (value,)
        if value is not None and not all(map(math.isfinite, values)):
            raise ValueError(f"{key} must be finite, got {value}")
    if not cfg.dt_ratio > 0:
        raise ValueError(f"dt_ratio must be positive, got {cfg.dt_ratio}")
    if not cfg.t_final >= 0:
        raise ValueError(f"t_final must be nonnegative, got {cfg.t_final}")
    if not cfg.blowup_threshold > 0:
        raise ValueError(f"blowup_threshold must be positive, got {cfg.blowup_threshold}")
    scatter = cfg.experiment.startswith("scatter")
    if scatter and not math.isfinite(cfg.blowup_threshold * cfg.tfsf_amplitude):
        raise ValueError(f"tfsf.amplitude = {cfg.tfsf_amplitude:g} overflows the monitor's "
                         f"limit at blowup_threshold = {cfg.blowup_threshold:g}")
    if cfg.check_every < 1:
        raise ValueError(f"check_every must be at least 1, got {cfg.check_every}")
    if cfg.levels < 1:
        raise ValueError(f"levels must be at least 1, got {cfg.levels}")
    if cfg.smooth_sweeps < 0 or _smoothing(cfg, cfg.n) > MAX_SWEEP_WORK:
        raise ValueError(f"smooth_sweeps must be >= 0 and take at most {MAX_SWEEP_WORK:.3g} "
                         f"point-sweeps, got {cfg.smooth_sweeps} at n = {cfg.n}")
    if cfg.pml_cells < 0:
        raise ValueError(f"pml.cells must be >= 0, got {cfg.pml_cells}")
    if not cfg.eps_inside > 0:
        raise ValueError(f"eps_inside must be positive, got {cfg.eps_inside}")
    if len(cfg.tfsf_rect) != 4:
        raise ValueError(f"tfsf.rect needs 4 numbers, got {cfg.tfsf_rect}")
    if len(cfg.disk_center) != 2:
        raise ValueError(f"disk_center needs 2 numbers, got {cfg.disk_center}")


def _smoothing(cfg, m):
    """smooth_sweeps times the points of a run's grid at n = m, its collar
    included, if the run smooths it (grid d, a shifted scatter grid)."""
    if cfg.experiment.startswith("scatter"):
        return cfg.smooth_sweeps * (m + 2 * cfg.pml_cells + 1) ** 2 * cfg.shift_to_boundary
    return cfg.smooth_sweeps * m * m * (cfg.experiment == "periodic2d" and cfg.grid_variant == "d")


def parse_config(path: Optional[str] = None, overrides=()) -> ExperimentConfig:
    """Read `key = value` lines (# comments, blank lines allowed), then
    apply `key=value` override strings; unknown keys are errors."""
    cfg = ExperimentConfig()
    items = []
    if path is not None:
        with open(path) as f:
            lines = [(lineno, raw.strip()) for lineno, raw in enumerate(f, 1)]
        items = [(line, f"{path}:{lineno}: expected key=value, got {line!r}")
                 for lineno, line in lines if line and not line.startswith("#")]
    items += [(item, f"override {item!r} is not of the form key=value") for item in overrides]
    for item, error in items:
        if "=" not in item:
            raise ValueError(error)
        key, _, value = item.partition("=")
        apply_setting(cfg, key.strip(), value.strip())
    validate_config(cfg)
    return cfg


def exact_periodic1d(x, t):
    v = np.sin(2.0 * math.pi * (np.asarray(x) + t))
    return v, v.copy()


def exact_periodic2d(x, y, t):
    """(Hx, Hy, Ez) of the x-travelling wave, built in place as one stacked
    (3, ...) array: Hx = 0, Hy = -Ez, Ez = sin(2 pi (x - t))."""
    u = np.empty((3,) + np.shape(x))
    ez = np.subtract(x, t, out=u[2])
    ez *= 2.0 * math.pi
    np.sin(ez, out=ez)
    np.negative(ez, out=u[1])
    u[0] = 0.0
    return u


def build_variant_grid(variant, n, center=(0.5, 0.5), radius=0.24, smooth_sweeps=0) -> Grid2:
    """One of the four periodic unit-square grids at resolution n."""
    base = build_uniform(n, n)
    if variant == "a":
        return base
    rect = base.rect_coords()
    if variant == "b":
        d = 0.05 * np.sin(2.0 * math.pi * rect[:, :, 0]) * np.sin(2.0 * math.pi * rect[:, :, 1])
        coords = rect + d[:, :, None]
        return Grid2(n, n, base.dx, base.dy, base.x0, base.y0, "periodic", coords)
    if variant == "c":
        cx, cy = center
        px = rect[:, :, 0] - cx
        py = rect[:, :, 1] - cy
        r = np.hypot(px, py)
        with np.errstate(invalid="ignore", divide="ignore"):
            stretched = r + 0.05 * np.sin(2.0 * math.pi * r) ** 2
            scale = np.where((r > 0.0) & (r < 0.5), stretched / r, 1.0)
        coords = np.stack((cx + scale * px, cy + scale * py), axis=-1)
        return Grid2(n, n, base.dx, base.dy, base.x0, base.y0, "periodic", coords)
    if variant == "d":
        shifted = point_shift(base, Circle(center[0], center[1], radius))
        if smooth_sweeps > 0:
            shifted = smooth_shift(shifted, base, smooth_sweeps)
        return shifted
    raise ValueError(f"grid variant must be one of {GRID_VARIANTS}, got {variant!r}")


def _check_cfl(cfg, spacings, dt):
    """A one-line ValueError if a wrapped run's dt is above its cfl_bound."""
    if not cfg.bfecc or cfg.allow_unstable:
        return
    bound = cfl_bound(cfg.scheme, len(spacings), spacings, cfg.theta)
    if dt > bound * (1.0 + 1e-9):
        raise ValueError(
            f"dt = {dt:.6g} exceeds the stability bound {bound:.6g} for scheme "
            f"{cfg.scheme!r}; reduce dt_ratio or pass allow_unstable")


def _monitor(cfg, state, step, t, scale=1.0):
    """Sup-norm check of each component after step `step`, which ends at
    time t, against blowup_threshold times the run's `scale`; NaN counts as
    blown up.  The sup is max(max f, -min f), which needs no |f| plane; a
    NaN makes both NaN, so the sup too."""
    for f in state.u:
        sup = max(float(f.max()), -float(f.min()))
        if not sup <= cfg.blowup_threshold * scale:
            raise InstabilityError(step, t, sup)


def _march(cfg, state, stepper, step, scale=1.0):
    """Advance `state` to cfg.t_final: floor(T / dt) full steps of the
    stepper's dt, then one remainder step of size h < dt when one is left,
    taken with stepper.with_dt(h); more than MAX_STEPS steps, or an
    overflowing count, are a ValueError.  The monitor checks every
    check_every-th full step, the last one and the remainder against
    `scale`, the amplitude of the run's wave (1 for the periodic exact
    waves, the source's for a scatter run, which starts at rest).
    `step(s, state, t, out)` takes one step from time t with the stepper
    s, into `out`, which _march passes as state.u, so the steps overwrite
    the run's own initial state (a plain step may return a fresh array
    instead); returns (state, steps).  run_periodic builds the stepper in
    the call, so its work stacks go before the error norms allocate."""
    dt = stepper.spec.dt
    if not cfg.t_final / dt <= MAX_STEPS:
        raise ValueError(f"t_final / dt = {cfg.t_final} / {dt} asks for "
                         f"{cfg.t_final / dt:.3g} steps, more than {MAX_STEPS:.0e}")
    n_full = int(math.floor(cfg.t_final / dt + 1e-9))
    for k in range(1, n_full + 1):
        state = step(stepper, state, (k - 1) * dt, state.u)
        if k % cfg.check_every == 0 or k == n_full:
            _monitor(cfg, state, k, k * dt, scale)
    partial = cfg.t_final - n_full * dt
    if partial <= 1e-9 * dt:
        return state, n_full
    state = step(stepper.with_dt(partial), state, n_full * dt, state.u)
    _monitor(cfg, state, n_full + 1, cfg.t_final, scale)
    return state, n_full + 1


def _error_norms(state, exact) -> dict:
    """RMS error over all entries, per component (Ez's also as l2_ez), and their sum."""
    comp = component_rms(state, exact)
    return {"l2_error": l2_error(state, exact), "component_rms": comp,
            "l2_sum": sum(comp.values()), **({"l2_ez": comp["Ez"]} if "Ez" in comp else {})}


def run_periodic(cfg: ExperimentConfig) -> dict:
    """A periodic experiment: its exact wave, stepped from t = 0 to t_final
    on the spacing h (periodic1d) or on the variant grid (periodic2d),
    and the error norms against the exact wave at t_final."""
    n = cfg.n
    if cfg.experiment == "periodic1d":
        if cfg.scheme in LS_KINDS:
            raise ValueError("periodic1d supports the uniform-grid schemes cd, lf, theta")
        h = where = 1.0 / n
        spacings = (h,)
        x = h * np.arange(n)
        own = {"x": x}

        def exact(t):
            return FieldState1(*exact_periodic1d(x, t))
    else:
        where = build_variant_grid(cfg.grid_variant, n, cfg.disk_center, cfg.disk_radius,
                                   cfg.smooth_sweeps)
        h, spacings = where.dx, (where.dx, where.dy)
        xs, ys = where.coords[:, :, 0], where.coords[:, :, 1]
        own = {"grid_variant": cfg.grid_variant, "grid": where}

        def exact(t):
            # a free-space stack of the grid's shape, wrapped without a copy
            return FieldState2._of(exact_periodic2d(xs, ys, t), None, None)
    dt = cfg.dt_ratio * h
    _check_cfl(cfg, spacings, dt)
    geom = StencilGeometry(where) if cfg.scheme in LS_KINDS else None

    def step(s, st, t, out):
        return (bfecc_step(s, st, where, geometry=geom, out=out) if cfg.bfecc
                else step_2d(s.spec, st, where, geometry=geom))

    state, steps = _march(cfg, exact(0.0), BfeccStep(SchemeSpec(cfg.scheme, dt, cfg.theta)),
                          step)
    return {"experiment": cfg.experiment, "n": n, "h": h, "dt": dt, "steps": steps,
            "t": cfg.t_final, **_error_norms(state, exact(cfg.t_final)), "state": state, **own}


def _scatter_curve(cfg: ExperimentConfig):
    cx, cy = cfg.disk_center
    if cfg.experiment == "scatter_complex":
        return StarCurve(cx, cy, cfg.star_r0, cfg.star_ripple, cfg.star_lobes)
    return Circle(cx, cy, cfg.disk_radius)


def build_scatter_grid(cfg: ExperimentConfig, n: int):
    """Bounded grid: unit square plus a pml_cells-wide collar on each side."""
    h = 1.0 / n
    pad = cfg.pml_cells
    size = n + 2 * pad + 1
    lo = -pad * h
    hi = 1.0 + pad * h
    grid = build_uniform(size, size, ((lo, hi), (lo, hi)), "bounded")
    curve = _scatter_curve(cfg)
    if cfg.shift_to_boundary:
        rect = grid
        grid = point_shift(grid, curve)
        if cfg.smooth_sweeps > 0:
            grid = smooth_shift(grid, rect, cfg.smooth_sweeps)
    # Nodes shifted onto the curve sit at phi = 0 up to projection dust;
    # the comparison across resolutions needs them classified identically,
    # so the surface itself deterministically counts as dielectric.
    val = curve.phi(grid.coords[:, :, 0], grid.coords[:, :, 1])
    eps = np.where(val <= 1e-9, cfg.eps_inside, 1.0)
    return grid, eps


def run_scatter(cfg: ExperimentConfig) -> dict:
    if cfg.scheme not in LS_KINDS:
        raise ValueError("scattering runs on a bounded grid and needs ls_cd or ls_theta")
    n = cfg.n
    grid, eps = build_scatter_grid(cfg, n)
    h = 1.0 / n
    dt = cfg.dt_ratio * h
    _check_cfl(cfg, (grid.dx, grid.dy), dt)
    pad = cfg.pml_cells
    spec = SchemeSpec(cfg.scheme, dt, cfg.theta)
    pml = build_pml(grid, dt, pad, cfg.pml_sigma_max, cfg.pml_exponent)
    source = TfsfSource(tuple(cfg.tfsf_rect), cfg.tfsf_omega, cfg.tfsf_amplitude,
                        cfg.tfsf_ramp)
    # the incident phase omega (t - (x - x_lo)) must stay finite for t up to
    # t_final at every x of the grid (twice over, to spare the rounding)
    reach = cfg.t_final + max(abs(grid.x0 - source.rect[0]),
                              abs(grid.x0 + grid.width - source.rect[0]))
    if not math.isfinite(2.0 * source.omega * reach):
        raise ValueError(f"tfsf.omega = {source.omega:g} makes the incident wave's phase "
                         f"overflow over t <= {cfg.t_final:g} on this grid")
    # built before the state, so that its set-up temporaries and the state's
    # stack are never alive together; nothing large follows the march
    runner = PmlRunner(grid, spec, pml, source)

    def step(r, st, t, out):
        return r.step(st, t, out=out) if cfg.bfecc else r.plain_step(st, t)

    zeros = np.zeros((grid.nx, grid.ny))
    state, steps = _march(cfg, FieldState2(zeros, zeros, zeros, eps=eps), runner, step,
                          abs(cfg.tfsf_amplitude))
    phys = slice(pad, pad + n + 1)
    return {"experiment": cfg.experiment, "n": n, "h": h, "dt": dt, "steps": steps,
            "t": cfg.t_final, "pad": pad, "grid": grid, "state": state, "eps": eps,
            "sup_ez_physical": float(np.max(np.abs(state.Ez[phys, phys])))}


def run_experiment(cfg: ExperimentConfig) -> dict:
    validate_config(cfg)
    return (run_scatter if cfg.experiment.startswith("scatter") else run_periodic)(cfg)


def _physical_fields(run, n_own, ratio):
    st = run["state"]
    return FieldState2(*(restrict_to_coarse(f, run["pad"], ratio, n_own)
                         for f in (st.Hx, st.Hy, st.Ez)))


def _check_sweep(cfg, ref_n):
    """A one-line ValueError, naming `levels`, unless every run of the
    sweep, its levels and the scatter reference at ref_n (None for none),
    takes at most MAX_STEPS steps and all of them together at most
    MAX_SWEEP_WORK point-steps, a run that takes no step counting its
    points once, and each smoothing sweep of a grid too (`_smoothing`).
    It reads the configuration alone, level by level, so a huge `levels`
    fails at once, before anything is allocated."""
    dims = 1 if cfg.experiment == "periodic1d" else 2
    ring = 0 if cfg.experiment.startswith("periodic") else 2 * cfg.pml_cells + 1
    levels = (cfg.n * 2 ** k for k in range(cfg.levels))
    work = 0.0
    for m in itertools.chain(levels, () if ref_n is None else (ref_n,)):
        steps = cfg.t_final / (cfg.dt_ratio * (1.0 / m))
        work += float(m + ring) ** dims * max(steps, 1.0) + _smoothing(cfg, m)
        if not steps <= MAX_STEPS:
            raise ValueError(f"levels = {cfg.levels} from n = {cfg.n} asks for {steps:.3g} "
                             f"steps at n = {m}, more than {MAX_STEPS:.0e}")
        if not work <= MAX_SWEEP_WORK:
            smoothing = " and smooth_sweeps point-sweeps" if _smoothing(cfg, m) else ""
            raise ValueError(f"levels = {cfg.levels} from n = {cfg.n} asks for more than "
                             f"{MAX_SWEEP_WORK:.3g} point-steps{smoothing}, the work of "
                             f"{MAX_STEPS:.0e} steps on 256 points")


def refine_experiment(cfg: ExperimentConfig) -> dict:
    """Dyadic refinement sweep n, 2n, 4n, ...

    Periodic experiments measure errors against the exact solution.
    Scattering has no closed form; each run is compared with a fine
    reference (reference_n, default 8n) restricted to the run's physical
    nodes, index pad + (reference_n / n) * k against coarse index pad + k.
    A sweep too large to finish (`_check_sweep`) fails before its first
    run.
    """
    validate_config(cfg)
    periodic = cfg.experiment in ("periodic1d", "periodic2d")
    ref_n = None if periodic else cfg.reference_n if cfg.reference_n else 8 * cfg.n
    _check_sweep(cfg, ref_n)
    ns = [cfg.n * 2 ** k for k in range(cfg.levels)]
    label = cfg.grid_variant if cfg.experiment == "periodic2d" else cfg.experiment
    if not periodic and any(ref_n % m != 0 or ref_n <= m for m in ns):
        raise ValueError(f"reference_n = {ref_n} must be a proper multiple of every level, "
                         f"levels are {ns}")
    runs = [run_experiment(replace(cfg, n=m)) for m in ns + ([] if periodic else [ref_n])]
    if not periodic:
        ref = runs[-1]
        for m, r in zip(ns, runs):
            r.update(_error_norms(_physical_fields(r, m, 1), _physical_fields(ref, m, ref_n // m)))
    errors = [r["l2_error"] for r in runs[:cfg.levels]]
    orders = convergence_orders([1.0 / m for m in ns], errors)
    rows = [{"grid": label, "n": m, "h": 1.0 / m, "dt": r["dt"], "l2_error": err, "order": order}
            for m, r, err, order in zip(ns, runs, errors, [None] + orders)]
    return {"ns": ns, "rows": rows, "errors": errors, "runs": runs, "orders": orders}
