"""Absorbing boundary layer (convolutional form) and plane-wave injection.

The collar of a bounded grid carries damping profiles sigma_x(x), sigma_y(y).
Each spatial derivative d_xi u appearing in an update is replaced by

    (1 + c_xi) * d_xi u + b_xi * psi,    psi' = b_xi * psi + c_xi * d_xi u,

with b = exp(-sigma * dt) and c = b - 1, one memory field psi per
(equation, derivative) pair.  Where sigma = 0 this reduces exactly to the
interior scheme: b = 1, c = 0 and psi stays zero.  So the collar work
(the (1 + c) scaling, the memory term and the recursion) runs only on the
row and column blocks where the profile is nonzero; an inert collar does
none.

Inside the three-substep wrapper (bfecc.bfecc_apply, with the sources
below as per-substep hooks) the (1 + c) derivative scaling is part of the
one-step operator and applies in every substep; the memory term b * psi is
a source term, ignored in the first two substeps and added only in the
final one, evaluated at the step's start time.  The memory recursion
consumes the gradients of the step-start state, so the first substep keeps
a copy of its undamped fitted gradients for it.

Plane-wave injection uses the standard total-field/scattered-field
bookkeeping: for an update with weights w(p, q), the stored field needs
the correction sum_q w(p, q) (chi(p) - chi(q)) u_inc(q, t), where chi is
the total-field-rectangle indicator.  Only stencils straddling the
rectangle edge contribute, and the correction is state independent.
Unlike the memory term, this correction belongs to every substep (with
that substep's direction and the incident field at the time the substep
acts on); leaving it out of the error-estimation substeps plants a
non-convergent residual along the rectangle edge.  The two forward
substeps act at the step's start time, so a step evaluates the correction
twice: at (t, dt) and at (t + dt, -dt).  The plane wave depends on x
alone, so each evaluation takes the incident field at the distinct x
positions of the edge stencils only.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .bfecc import bfecc_apply
from .grid import Grid2
# lincomb2 and StencilGeometry are looked up in this module by
# bench/tracing.py, which wraps them in place
from .schemes import (LS_CENTER, FieldState2, SchemeSpec, StencilGeometry,  # noqa: F401
                      Workspace, _ls_assemble, _ls_fit_all, _reciprocal, lincomb2)

LS_KINDS = ("ls_cd", "ls_theta")


def _depth_fraction(n, thickness):
    """Per-index depth into the collar, 0 at the interface, 1 at the wall."""
    idx = np.arange(n, dtype=float)
    d = np.maximum(thickness - idx, idx - (n - 1 - thickness))
    return np.clip(d, 0.0, None) / max(thickness, 1)


@dataclass
class PmlState:
    """Damping profiles, recursion coefficients and the four memory fields."""

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
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if sigma_max is None:
        sigma_max = 8.0 / min(grid.dx, grid.dy)
    if sigma_max < 0:
        raise ValueError(f"sigma_max must be >= 0, got {sigma_max}")
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
    """Precomputed edge corrections for one (geometry, source) pair.

    Only update points whose stencil straddles the rectangle edge get a
    correction; `index` (3, rows) holds their flat indices into a
    contiguous (Hx, Hy, Ez) stack.  Their fit weights come from one
    factorization of just those stencils.  The incident wave depends on x
    alone, so it is evaluated once per distinct stencil x position and
    gathered, and its Hy = -Ez leaves three contractions per call.
    """

    def __init__(self, source: TfsfSource, geom: StencilGeometry, kind: str, eps, mu):
        inside = geom.interior
        pos = geom.grid.coords[inside].reshape(-1, 1, 2) + geom.offsets
        ax, ay = pos[:, :, 0], pos[:, :, 1]
        chi = source.chi(ax, ay)
        dchi = chi[:, 0:1] - chi
        rows = np.nonzero(np.any(dchi != 0.0, axis=1))[0]
        d = dchi[rows]
        weights = geom.fit_weights(rows)
        self.source = source
        ring = inside[0].start
        field = tuple(r + ring for r in np.unravel_index(rows, geom.shape))
        plane = (geom.grid.nx, geom.grid.ny)
        self.index = np.ravel_multi_index(field, plane) + np.arange(3)[:, None] * math.prod(plane)
        self.x, inverse = np.unique(ax[rows], return_inverse=True)
        self.x_index = inverse.reshape(d.shape)
        self.dwx = d * weights[:, 1, :]
        self.dwy = d * weights[:, 2, :]
        # the fitted-center base only exists for ls_theta; the ls_cd base is
        # the point's own value, whose chi difference is identically zero
        self.dw0 = d * weights[:, 0, :] if kind == "ls_theta" else None
        self.inv_eps = 1.0 if eps is None else 1.0 / eps[field]
        self.inv_mu = 1.0 if mu is None else 1.0 / mu[field]

    def corrections(self, t, sdt):
        """(3, rows) corrections (dHx, dHy, dEz) to add at `index` to the
        update assembled at time t with signed step sdt."""
        ez = self.source.ez_inc(self.x, None, t)[self.x_index]
        sx = np.einsum("as,as->a", self.dwx, ez)
        sy = np.einsum("as,as->a", self.dwy, ez)
        d = np.empty((3, len(sx)))
        np.multiply(-sdt * self.inv_mu, sy, out=d[0])
        np.multiply(sdt * self.inv_mu, sx, out=d[1])
        # the Hy terms: the contractions of Hy_inc = -Ez_inc, negated exactly
        np.multiply(sdt * self.inv_eps, sx, out=d[2])
        np.negative(d[2], out=d[2])
        if self.dw0 is not None:
            s0 = np.einsum("as,as->a", self.dw0, ez)
            d[1] -= s0
            d[2] += s0
        return d


def _collar_blocks(sigma, b, c, axis, shape):
    """(name, index, b, c, 1 + c) for each run of damped rows (axis 0) or
    columns (axis 1), where sigma != 0: `index` slices the run out of an
    (nx, ny) plane, `name` names its work array, and the coefficients are
    whole block-shaped arrays, since numpy runs an (n, 1) or (1, n) operand
    through iteration buffers, at several times the cost.  Outside the
    blocks b = 1 and c = 0, so the collar leaves a derivative as it is and
    its memory at zero."""
    on = np.concatenate(([False], sigma != 0.0, [False]))
    blocks = []
    for k, (lo, hi) in enumerate(np.flatnonzero(on[1:] != on[:-1]).reshape(-1, 2)):
        run = slice(int(lo), int(hi))
        index = (run,) if axis == 0 else (slice(None), run)
        bshape = (hi - lo, shape[1]) if axis == 0 else (shape[0], hi - lo)
        bb, cb = (np.broadcast_to(np.expand_dims(a[run], 1 - axis), bshape).copy()
                  for a in (b, c))
        blocks.append((f"collar_{'xy'[axis]}{k}", index, bb, cb, 1.0 + cb))
    return blocks


class PmlRunner:
    """Time stepper for a least-squares scheme with collar and injection.

    Builds the stencil geometry, fit weights, recursion coefficients and
    edge corrections once, then advances states with `step` (the BFECC
    composition of bfecc.bfecc_apply) or `plain_step`.  Every substep fits
    the stacked state with schemes._ls_fit_all, scales the derivative
    planes by the collar's (1 + c), and applies step_2d's least-squares
    assembly; the memory term joins only a step's final substep and the
    TF/SF corrections every substep.  The collar work runs only on the row
    and column blocks where the damping profile is nonzero.  A step
    evaluates the corrections twice, for the forward substeps at t and the
    backward one at t + dt.  A runner keeps one set of work buffers for
    all its steps, and forms the materials' reciprocal planes and the edge
    corrections when it first sees a state's materials.  The memory fields
    in `pml` are updated in place (they stay zero outside the blocks);
    field states are never mutated.
    """

    def __init__(self, grid: Grid2, spec: SchemeSpec, pml: PmlState,
                 source: Optional[TfsfSource] = None,
                 geometry: Optional[StencilGeometry] = None, weights=None):
        if spec.kind not in LS_KINDS:
            raise ValueError(f"collar stepping supports kinds {LS_KINDS}, got {spec.kind!r}")
        if spec.direction != "forward":
            raise ValueError("pass a forward spec; substeps handle reversal")
        if pml.psi_hxy.shape != (grid.nx, grid.ny):
            raise ValueError("pml state shape does not match the grid")
        if pml.dt != spec.dt:
            raise ValueError(f"pml state was built for dt = {pml.dt}, the scheme steps {spec.dt}")
        self.grid = grid
        self.spec = spec
        self.source = source
        self.geom = geometry if geometry is not None else StencilGeometry(grid)
        self.weights = weights if weights is not None else self.geom.cached_weights()
        self.work = Workspace()
        self._set_collar(pml)
        self._materials = None
        self._injector = None
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
        shape = pml.psi_hxy.shape
        x = _collar_blocks(pml.sigma_x, pml.b_x, pml.c_x, 0, shape)
        y = _collar_blocks(pml.sigma_y, pml.b_y, pml.c_y, 1, shape)
        # (memory field, blocks) in the order of the derivative planes
        # d/dx (Hy, Ez), d/dy (Hx, Ez) they belong to
        self._collar = ((pml.psi_ezx, x), (pml.psi_hyx, x), (pml.psi_ezy, y), (pml.psi_hxy, y))

    def with_dt(self, dt: float) -> "PmlRunner":
        """This runner stepping dt, for a run's shorter final step: the same
        geometry, edge corrections, work buffers and collar memory, with
        recursion coefficients for dt."""
        other = copy.copy(self)
        other.spec = replace(self.spec, dt=dt)
        other._set_collar(self.pml.with_dt(dt))
        return other

    def _prepare(self, state: FieldState2):
        """Form the materials' reciprocal planes and the edge corrections
        when the runner first sees the materials of `state` (again only if
        a state brings other ones); at a run's first step this comes before
        the step's work buffers exist, so that the set-up arrays never add
        to them."""
        eps, mu = state.eps, state.mu
        seen = self._materials
        if seen is not None and seen[0] is eps and seen[1] is mu:
            return
        self._materials = (eps, mu, _reciprocal(eps), _reciprocal(mu))
        if self.source is not None:
            self._injector = TfsfInjector(self.source, self.geom, self.spec.kind, eps, mu)

    def _apply(self, v, out, sdt, corrections, start, history):
        """One substep with signed step sdt on the stack v, into `out`
        (fresh when None).

        `start` keeps the undamped gradients for the memory update (the
        substep acting on the step-start state); `history` adds the memory
        term b * psi; `corrections` are the edge corrections for this
        substep's time and direction (None without a source).
        """
        fits = _ls_fit_all(self.geom, self.weights, v, LS_CENTER[self.spec.kind], self.work)
        planes = (*fits[1], *fits[2])
        if start:
            grads = self._start_gradients(v.shape)
            for start_g, g, (_, blocks) in zip(grads, planes, self._collar):
                for _, index, *_ in blocks:
                    start_g[index] = g[index]
            for ring in self.geom.ring:
                grads[ring] = 0.0
        for g, (psi, blocks) in zip(planes, self._collar):
            for name, index, b, _, one_c in blocks:
                block = g[index]
                block *= one_c
                if history:
                    block += np.multiply(psi[index], b, out=self.work(name, b.shape))
        out = _ls_assemble(v, fits, self.geom, sdt, *self._materials[2:], out, self.work)
        if corrections is not None:
            # `out` is contiguous, so the flat view writes through
            out.reshape(-1)[self._injector.index] += corrections
        return out

    def _start_gradients(self, shape):
        """The (4, nx, ny) undamped gradients of a step's start state, kept
        on the collar blocks only."""
        return self.work("start_gradients", (4,) + shape[1:])

    def _advance_memory(self, grads):
        """psi <- b psi + c g on the collar blocks of the four memory
        fields, from the step-start gradients `grads`, (4, nx, ny) in the
        order d/dx (Hy, Ez), d/dy (Hx, Ez) and zero on a bounded grid's
        outer ring, so the ring keeps no memory."""
        for g, (psi, blocks) in zip(grads, self._collar):
            for name, index, b, c, _ in blocks:
                block = psi[index]
                block *= b
                block += np.multiply(g[index], c, out=self.work(name, b.shape))

    def _corrections(self, t, sdt):
        return None if self._injector is None else self._injector.corrections(t, sdt)

    def step(self, state: FieldState2, t: float) -> FieldState2:
        """Advance one dt from time t with the three-substep wrapper.

        The backward substep acts on a state at t + dt, so its edge
        correction uses the incident field there; the compensated state
        fed to the last substep sits back at t, so the two forward
        substeps share one set of corrections.
        """
        dt = self.spec.dt
        self._prepare(state)
        fwd = self._corrections(t, dt)
        bwd = self._corrections(t + dt, -dt)

        def substep(k, v, out):
            if k == 1:
                return self._apply(v, out, -dt, bwd, False, False)
            return self._apply(v, out, dt, fwd, k == 0, k == 2)

        u = bfecc_apply(substep, state.u, self.work)
        self._advance_memory(self._start_gradients(u.shape))
        return FieldState2._of(u, state.eps, state.mu)

    def plain_step(self, state: FieldState2, t: float) -> FieldState2:
        """Advance one dt without the error-compensation substeps."""
        self._prepare(state)
        sdt = self.spec.signed_dt
        u = self._apply(state.u, None, sdt, self._corrections(t, sdt), True, True)
        self._advance_memory(self._start_gradients(u.shape))
        return FieldState2._of(u, state.eps, state.mu)
