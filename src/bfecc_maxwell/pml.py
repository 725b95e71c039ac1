"""Absorbing boundary layer (convolutional form) and plane-wave injection.

The collar of a bounded grid carries damping profiles sigma_x(x), sigma_y(y).
Each spatial derivative d_xi u appearing in an update is replaced by

    (1 + c_xi) * d_xi u + b_xi * psi,    psi' = b_xi * psi + c_xi * d_xi u,

with b = exp(-sigma * dt) and c = b - 1, one memory field psi per
(equation, derivative) pair.  Where sigma = 0 this reduces exactly to the
interior scheme: b = 1, c = 0 and psi stays zero.  So the collar work
(the (1 + c) scaling, the memory term and the recursion) runs only on the
row and column blocks where the profile is nonzero; an inert collar does
none.  It acts on the 2D kernel's raw differences u[i+1] - u[i-1] =
2 h d_xi u, so psi is held as 2 h psi, whose units do not depend on dt.

Inside the three-substep wrapper (bfecc.bfecc_program) each substep is the
least-squares operator of schemes._operator, whose binder takes the
collar's entries for its difference planes, then the injection's entry,
all bound once per run.  The (1 + c) derivative scaling is part of the
one-step operator and applies in every substep; the memory term b * psi
is a source term, ignored in the first two substeps and added only in the
final one, evaluated at the step's start time.  The recursion takes its
two terms from the substeps that form them: the first substep, acting on
the step-start state, keeps c * g of its undamped fitted gradients g, and
the last scales psi by b in place for its memory term, then adds c * g.

Plane-wave injection uses the standard total-field/scattered-field
bookkeeping: for an update with weights w(p, q), the stored field needs
the correction sum_q w(p, q) (chi(p) - chi(q)) u_inc(q, t), where chi is
the total-field-rectangle indicator.  Only stencils straddling the
rectangle edge contribute, and the correction is state independent.
Unlike the memory term, this correction belongs to every substep (with
that substep's direction and the incident field at the time the substep
acts on); leaving it out of the error-estimation substeps plants a
non-convergent residual along the rectangle edge.  The two forward
substeps act at the step's start time, so a step asks for the correction
twice: at (t, dt) and at (t + dt, -dt).  The second time is the next
step's first, so the incident field and its contractions are evaluated
once per time level, at the distinct x positions of the edge stencils
only, since the plane wave depends on x alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

# _operator is looked up in its module at each binding, so that a wrapper
# installed there sees every binding
from . import schemes
from .bfecc import BfeccStep
from .grid import Grid2
# _ls_fit_all, lincomb2 and StencilGeometry are looked up in this module by
# bench/tracing.py, which wraps them in place
from .schemes import (LS_CENTER, LS_KINDS, FieldState2, SchemeSpec, StencilGeometry,  # noqa: F401
                      _checked_geometry, _checked_weights, _ls_fit_all, lincomb2,
                      run_program)


def _depth_fraction(n, thickness):
    """Per-index depth into the collar, 0 at the interface, 1 at the wall."""
    idx = np.arange(n, dtype=float)
    d = np.maximum(thickness - idx, idx - (n - 1 - thickness))
    return np.clip(d, 0.0, None) / max(thickness, 1)


@dataclass
class PmlState:
    """Damping profiles, recursion coefficients and the four memory fields,
    held as raw differences (2 dx psi for the x memories, 2 dy psi for y)."""

    thickness: int
    dt: float
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    b_x: np.ndarray
    c_x: np.ndarray
    b_y: np.ndarray
    c_y: np.ndarray
    psi_hxy: np.ndarray
    psi_hyx: np.ndarray
    psi_ezx: np.ndarray
    psi_ezy: np.ndarray

    def with_dt(self, dt: float) -> "PmlState":
        """The same collar stepping dt: its own recursion coefficients, the
        same memory fields."""
        bx, cx = _recursion(self.sigma_x, dt)
        by, cy = _recursion(self.sigma_y, dt)
        return replace(self, dt=float(dt), b_x=bx, c_x=cx, b_y=by, c_y=cy)


def _recursion(sigma, dt):
    """b = exp(-sigma dt) and c = b - 1."""
    b = np.exp(-sigma * dt)
    return b, b - 1.0


def build_pml(grid: Grid2, dt: float, thickness: int = 10,
              sigma_max: Optional[float] = None, exponent: float = 3.0) -> PmlState:
    """Graded collar on the outer `thickness` cells of a bounded grid.

    sigma(depth) = sigma_max * (depth / thickness)^exponent per axis, with
    sigma_max defaulting to 8 / min(dx, dy).  sigma_max = 0 (or
    thickness = 0) gives an inert layer that reproduces the plain scheme.
    """
    if grid.boundary_kind != "bounded":
        raise ValueError("the absorbing layer needs a bounded grid")
    thickness = int(thickness)
    if thickness < 0:
        raise ValueError(f"thickness must be >= 0, got {thickness}")
    if min(grid.nx, grid.ny) < 2 * thickness + 3:
        raise ValueError(
            f"grid {grid.nx}x{grid.ny} too small for a {thickness}-cell collar on each side")
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if sigma_max is None:
        sigma_max = 8.0 / min(grid.dx, grid.dy)
    if not 0 <= sigma_max < math.inf:
        raise ValueError(f"sigma_max must be finite and >= 0, got {sigma_max}")
    if not exponent > 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    sx = sigma_max * _depth_fraction(grid.nx, thickness) ** exponent
    sy = sigma_max * _depth_fraction(grid.ny, thickness) ** exponent
    if thickness == 0:
        sx = np.zeros(grid.nx)
        sy = np.zeros(grid.ny)
    shape = (grid.nx, grid.ny)
    return PmlState(thickness, float(dt), sx, sy, *_recursion(sx, dt), *_recursion(sy, dt),
                    np.zeros(shape), np.zeros(shape), np.zeros(shape), np.zeros(shape))


def _ramp(u, ramp_time):
    """Causal C^1 turn-on: 0 for u <= 0, 1 for u >= ramp_time."""
    u = np.asarray(u, dtype=float)
    r = np.sin(0.5 * math.pi * np.clip(u, 0.0, ramp_time) / ramp_time) ** 2
    return np.where(u <= 0.0, 0.0, np.where(u >= ramp_time, 1.0, r))


@dataclass(frozen=True)
class TfsfSource:
    """Rightward plane wave fed into a total-field rectangle.

    The incident fields are the exact free-space solution

        Ez = A sin(omega u) ramp(u),  Hy = -Ez,  Hx = 0,
        u = t - (x - rect_x_lo),

    so the front crosses the rectangle's left edge at t = 0 and the
    profile is C^1 in space and time.  The wave depends on x and t alone;
    `ez_inc` takes y for the field-function signature and ignores it.
    """

    rect: tuple
    omega: float = 2.0 * math.pi / 0.6
    amplitude: float = 1.0
    ramp_time: float = 0.6

    def __post_init__(self):
        x0, x1, y0, y1 = self.rect
        # a difference is finite only when both ends are and it does not overflow
        sizes = (x1 - x0, y1 - y0, self.omega, self.amplitude, self.ramp_time)
        if not all(math.isfinite(v) for v in sizes):
            raise ValueError(f"the TF/SF rectangle's edges and size, omega, amplitude and "
                             f"ramp_time must be finite, got {self}")
        if not (x0 < x1 and y0 < y1):
            raise ValueError(f"degenerate total-field rectangle {self.rect}")
        if not (self.omega > 0 and self.ramp_time > 0):
            raise ValueError("omega and ramp_time must be positive")

    def ez_inc(self, x, y, t):
        u = t - (np.asarray(x, dtype=float) - self.rect[0])
        return self.amplitude * np.sin(self.omega * u) * _ramp(u, self.ramp_time)

    def chi(self, x, y):
        """Total-field indicator, counting the rectangle edge as inside.

        Snapped by a small tolerance: grid nodes meant to lie exactly on
        the edge lines pick up resolution-dependent rounding, and an
        edge row classified differently at two resolutions would store
        different quantities (total vs scattered) there.
        """
        tol = 1e-9
        x0, x1, y0, y1 = self.rect
        inside = ((np.asarray(x) >= x0 - tol) & (np.asarray(x) <= x1 + tol)
                  & (np.asarray(y) >= y0 - tol) & (np.asarray(y) <= y1 + tol))
        return inside.astype(float)


class TfsfInjector:
    """Precomputed edge corrections for one (geometry, source) pair, in two
    arrays of its own, one per sign of step, and the entry that adds them.

    Only update points whose stencil straddles the rectangle edge get a
    correction; `index` (3, rows) holds their flat indices into a
    contiguous (Hx, Hy, Ez) stack.  Their fit weights come from one
    factorization of just those stencils, their material factors 1/eps
    and 1/mu from the material planes `eps`/`mu` (None for free space) at
    those rows only.  The incident wave depends on x alone, so it is
    evaluated once per distinct stencil x position `x` and gathered by
    `x_index` (5, rows), and its Hy = -Ez leaves one contraction with the
    d/dy, d/dx and (for ls_theta) center weights, which is kept for the
    last time: a step's backward substep acts at the next step's time.
    """

    def __init__(self, source: TfsfSource, geom: StencilGeometry, kind: str, eps, mu):
        centers = geom.grid.coords[geom.interior].reshape(-1, 1, 2)
        # chi differences a block of stencils at a time: whole, these
        # temporaries set a scatter run's peak memory
        found, block = [], 4096
        for lo in range(0, len(centers), block):
            pos = centers[lo:lo + block] + geom.offsets[lo:lo + block]
            chi = source.chi(pos[:, :, 0], pos[:, :, 1])
            dchi = chi[:, 0:1] - chi
            hit = np.nonzero(np.any(dchi != 0.0, axis=1))[0]
            found.append((lo + hit, dchi[hit], pos[hit, :, 0]))
        rows, d, ax = (np.concatenate(parts) for parts in zip(*found))
        weights = geom.fit_weights(rows)
        self.source = source
        center = geom.index[rows, 0]
        self.index = center + np.arange(3)[:, None] * (geom.grid.nx * geom.grid.ny)
        self.x, inverse = np.unique(ax, return_inverse=True)
        # laid out (5, rows), so that the contraction runs along the rows, at
        # a fraction of the cost along the 5 points, in the same order
        self.x_index = np.ascontiguousarray(inverse.reshape(d.shape).T)
        # the chi differences times the d/dy, d/dx and center weight rows, the
        # center only for a kind whose base blends in the neighbors (a
        # point's own value has chi difference zero)
        self._dw = np.ascontiguousarray(
            d.T * weights.transpose(1, 2, 0)[[2, 1, 0] if LS_CENTER[kind] else [2, 1]])
        inv_eps = 1.0 if eps is None else np.divide(1.0, eps.take(center))
        inv_mu = 1.0 if mu is None else np.divide(1.0, mu.take(center))
        # the signed factors of (dHx, dHy, dEz): fl(sdt (-1/mu)) = fl(-sdt 1/mu)
        # and the Hy contraction of Hy_inc = -Ez_inc negated exactly
        self._signed = np.stack([np.broadcast_to(f, len(rows))
                                 for f in (-inv_mu, inv_mu, -inv_eps)])
        self._ez = np.empty(self.x_index.shape)
        self._sums = np.empty((len(self._dw), len(rows)))
        # by int(sdt > 0): a Python bool would index as a mask
        self._edges = np.zeros((2,) + self.index.shape)
        self._t = math.nan

    def corrections(self, t, sdt):
        """The (3, rows) corrections (dHx, dHy, dEz) to add at `index` to
        the update assembled at time t with signed step sdt, written into
        the array for sdt's sign, which is returned.  The contractions, in
        the injector's own scratch arrays, are formed again only for
        another time than the last call's."""
        if t != self._t:
            self._t = t
            wave = self.source.ez_inc(self.x, None, t)
            ez = np.take(wave, self.x_index, out=self._ez, mode="clip")
            np.einsum("ksa,sa->ka", self._dw, ez, out=self._sums)
        d = self._edges[int(sdt > 0)]
        # each signed material factor times sdt, then the contractions
        np.multiply(self._signed, sdt, out=d)
        sy, sx = self._sums[:2]
        d[0] *= sy
        d[1:] *= sx
        if len(self._sums) == 3:
            s0 = self._sums[2]
            d[1] -= s0
            d[2] += s0
        return d

    def entry(self, out, sdt):
        """The program entry that adds the corrections for sdt's sign at
        `index` into the contiguous stack `out`, through flat views, the
        faster form of np.add.at (as in schemes._ls_binding)."""
        return np.add.at, (out.reshape(-1), self.index.reshape(-1),
                           self._edges[int(sdt > 0)].reshape(-1))


def _collar_blocks(sigma, b, c, axis, held):
    """(index, b, c, 1 + c) for each run of damped rows (axis 0) or columns
    (axis 1), where sigma != 0: `index` slices the run out of an (nx, ny)
    plane, and the coefficients are whole block-shaped arrays, since numpy
    runs an (n, 1) or (1, n) operand through iteration buffers, at several
    times the cost.  On the points `held`, a bounded grid's outer ring,
    which has no update rule, c = 0, so their memory stays zero.  Outside
    the blocks b = 1 and c = 0, so the collar leaves a derivative as it is
    and its memory at zero."""
    on = np.concatenate(([False], sigma != 0.0, [False]))
    blocks = []
    for lo, hi in np.flatnonzero(on[1:] != on[:-1]).reshape(-1, 2):
        run = slice(int(lo), int(hi))
        index = (run,) if axis == 0 else (slice(None), run)
        bb, cb = (np.broadcast_to(np.expand_dims(a[run], 1 - axis), held[index].shape).copy()
                  for a in (b, c))
        cb[held[index]] = 0.0
        blocks.append((index, bb, cb, 1.0 + cb))
    return blocks


def _staged(stage, view, program):
    """`program`, which works on `stage`, with `view` copied in before it
    and back out after it, unless the stage is the view itself."""
    if stage is view:
        return program
    return [(np.copyto, (stage, view)), *program, (np.copyto, (view, stage))]


def _collar_program(plane, collar, stage, first, last):
    """The entries that damp the blocks `collar` of one raw difference
    plane, each (index, b, c, 1 + c, memory, its stage, c * g array):
    `index` slices the block out of the plane, and stage(view) gives the
    array the block's work runs on.  The `first` substep keeps c * g of
    the undamped g; every substep scales g by 1 + c; the `last` scales the
    memory by b, adds it to g and then completes the recursion
    psi <- b psi + c g, which nothing later reads."""
    add, multiply = np.add, np.multiply
    program = []
    for index, b, c, one_c, memory, m, cg in collar:
        block = plane[index]
        g = stage(block)
        work = [(multiply, (g, c, cg))] if first else []
        work.append((multiply, (g, one_c, g)))
        if last:
            work += _staged(m, memory, [(multiply, (m, b, m)), (add, (g, m, g)),
                                        (add, (m, cg, m))])
        program += _staged(g, block, work)
    return tuple(program)


class PmlRunner(BfeccStep):
    """Time stepper for a least-squares scheme with collar and injection.

    Builds the stencil geometry, its irregular stencils' fit weights and
    the recursion coefficients once, then advances states with `step`
    (the BFECC composition of bfecc.bfecc_program) or `plain_step`.  As a
    bfecc.BfeccStep it binds by the same rules: per set of materials,
    schemes._operator's least-squares operator and the edge corrections,
    shared by its `with_dt` copy; then the step's program, kept and
    replayed while a run steps one stack in place.  A substep's program is
    the operator's, given the collar's entries for its raw difference
    planes, then the injector's entry that adds the TF/SF corrections:
    the memory term joins only a step's final substep, the corrections
    every substep.  The injector writes them twice per step, outside the
    program (the forward substeps at t, the backward one at t + dt), into
    its two arrays, one per sign of step, from an incident wave
    evaluated once per time level.  The memory fields in `pml` are
    updated in place (they stay zero outside the blocks); a field state
    is overwritten only when `step` is given its own stack as `out`.
    """

    def __init__(self, grid: Grid2, spec: SchemeSpec, pml: PmlState,
                 source: Optional[TfsfSource] = None,
                 geometry: Optional[StencilGeometry] = None, weights=None):
        if spec.kind not in LS_KINDS:
            raise ValueError(f"collar stepping supports kinds {LS_KINDS}, got {spec.kind!r}")
        if pml.psi_hxy.shape != (grid.nx, grid.ny):
            raise ValueError("pml state shape does not match the grid")
        if pml.dt != spec.dt:
            raise ValueError(f"pml state was built for dt = {pml.dt}, the scheme steps {spec.dt}")
        super().__init__(spec)
        self.source = source
        self.geom = (StencilGeometry(grid) if geometry is None
                     else _checked_geometry(geometry, grid))
        self.weights = _checked_weights(weights, self.geom)
        self._set_collar(pml)
        if source is not None:
            margin = max(pml.thickness, 1)
            xlo = grid.x0 + margin * grid.dx
            xhi = grid.x0 + grid.width - margin * grid.dx
            ylo = grid.y0 + margin * grid.dy
            yhi = grid.y0 + grid.height - margin * grid.dy
            x0, x1, y0, y1 = source.rect
            if not (xlo < x0 and x1 < xhi and ylo < y0 and y1 < yhi):
                raise ValueError(
                    f"total-field rectangle {source.rect} must sit strictly inside "
                    f"the undamped region [{xlo}, {xhi}] x [{ylo}, {yhi}]")

    def _set_collar(self, pml: PmlState):
        self.pml = pml
        held = np.ones(pml.psi_hxy.shape, dtype=bool)
        held[self.geom.interior] = False
        x = _collar_blocks(pml.sigma_x, pml.b_x, pml.c_x, 0, held)
        y = _collar_blocks(pml.sigma_y, pml.b_y, pml.c_y, 1, held)
        # the blocks of _kernel_2d's planes k = 0-4: none for the blend, then
        # d/dx Hy, d/dy Hx, d/dy Ez, d/dx Ez; each block adds its view of the
        # memory field, that view's stage and a c * g work array of its own
        self._collar = ((),) + tuple(
            [(*block, psi[block[0]], self._stage(psi[block[0]], "memory"),
              self.work(f"collar_{name}{k}", block[1].shape))
             for k, block in enumerate(blocks)]
            for name, psi, blocks in (("ezx", pml.psi_ezx, x), ("ezy", pml.psi_ezy, y),
                                      ("hxy", pml.psi_hxy, y), ("hyx", pml.psi_hyx, x)))

    def _stage(self, view, name):
        """`view` itself when contiguous, else the work array through which
        the collar works on it.  numpy runs a ufunc over a strided (nx, t)
        column block through iteration buffers that it allocates at every
        call, at about twice the time of a contiguous block, while copies
        to and from a contiguous stage allocate nothing."""
        if view.flags.c_contiguous:
            return view
        return self.work(f"collar_stage_{name}{view.shape}", view.shape)

    def with_dt(self, dt: float) -> "PmlRunner":
        """This runner stepping dt, for a run's shorter final step: the same
        geometry, binding, work buffers and collar memory, with recursion
        coefficients for dt, so it builds its own program."""
        other = super().with_dt(dt)
        other._set_collar(self.pml.with_dt(dt))
        return other

    def _bind(self, state: FieldState2):
        """(the operator's binder, the TfsfInjector or None) for the
        materials of `state`, made before a run's work buffers exist, so
        that the set-up arrays never add to them.  The fit entry is
        _ls_fit_all as this module names it, which bench/tracing.py wraps."""
        op = schemes._operator(self.spec, state, self.geom.grid, self.geom, self.weights,
                               self.work, _ls_fit_all)
        injector = None if self.source is None else TfsfInjector(
            self.source, self.geom, self.spec.kind, state.eps, state.mu)
        return op, injector

    def _substep(self, bound, k, v, out):
        dt = self.spec.dt
        return self._bind_substep(bound, -dt if k == 1 else dt, v, out, k == 0, k == 2)

    def _bind_substep(self, bound, sdt, v, out, first, last):
        """The program of one substep with signed step sdt from the stack v
        into `out`, every view made here, once: the operator's program of
        `bound`, with the collar's entries for its planes, then the
        injector's entry that adds the edge corrections for its sign of
        step (none without a source).  The `first` substep, acting on the
        step-start state, keeps c * g of its undamped raw differences g, and
        the `last` adds the memory term and completes the recursion
        (`_collar_program`)."""
        op, injector = bound
        stage = partial(self._stage, name="plane")
        program = op(sdt, v, out, lambda planes: tuple(
            _collar_program(plane, collar, stage, first, last)
            for plane, collar in zip(planes, self._collar)))
        return program if injector is None else program + (injector.entry(out, sdt),)

    def step(self, state: FieldState2, t: float, out=None) -> FieldState2:
        """Advance one dt from time t with the three-substep wrapper, into
        a fresh array when `out` is None, or in place when it is state.u,
        which returns the state itself; any other `out` is a ValueError.

        The backward substep acts on a state at t + dt, so its edge
        correction uses the incident field there; the compensated state
        fed to the last substep sits back at t, so the two forward
        substeps share one set of corrections, in the injector's array
        that their entries read.
        """
        dt = self.spec.dt
        bound = self._bound(state)
        injector = bound[1]
        if injector is not None:
            injector.corrections(t, dt)
            injector.corrections(t + dt, -dt)
        return self._run(bound, state, out)

    def plain_step(self, state: FieldState2, t: float) -> FieldState2:
        """Advance one dt without the error-compensation substeps."""
        bound = self._bound(state)
        dt = self.spec.dt
        out = np.empty(state.u.shape)
        if bound[1] is not None:
            bound[1].corrections(t, dt)
        run_program(self._bind_substep(bound, dt, state.u, out, True, True))
        return FieldState2._of(out, state.eps, state.mu)
