"""Absorbing boundary layer (convolutional form) and plane-wave injection.

The collar of a bounded grid carries damping profiles sigma_x(x), sigma_y(y).
Each spatial derivative d_xi u appearing in an update is replaced by

    (1 + c_xi) * d_xi u + b_xi * psi,    psi' = b_xi * psi + c_xi * d_xi u,

with b = exp(-sigma * dt) and c = b - 1, one memory field psi per
(equation, derivative) pair.  Where sigma = 0 this reduces exactly to the
interior scheme: b = 1, c = 0 and psi stays zero.

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
non-convergent residual along the rectangle edge.
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
                      Workspace, _ls_assemble, _ls_fit_all, lincomb2)

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
    profile is C^1 in space and time.
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
    correction; `rows` indexes them in a field.  Their fit weights come
    from one factorization of just those stencils.
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
        self.rows = tuple(r + ring for r in np.unravel_index(rows, geom.shape))
        self.ax = ax[rows]
        self.ay = ay[rows]
        self.dwx = d * weights[:, 1, :]
        self.dwy = d * weights[:, 2, :]
        # the fitted-center base only exists for ls_theta; the ls_cd base is
        # the point's own value, whose chi difference is identically zero
        self.dw0 = d * weights[:, 0, :] if kind == "ls_theta" else None
        self.inv_eps = 1.0 if eps is None else 1.0 / eps[self.rows]
        self.inv_mu = 1.0 if mu is None else 1.0 / mu[self.rows]

    def corrections(self, t, sdt):
        """(rows, dHx, dHy, dEz) to add to the assembled update at time t."""
        ez = self.source.ez_inc(self.ax, self.ay, t)
        hy = -ez
        sx_ez = np.einsum("as,as->a", self.dwx, ez)
        sy_ez = np.einsum("as,as->a", self.dwy, ez)
        sx_hy = np.einsum("as,as->a", self.dwx, hy)
        dhx = -sdt * self.inv_mu * sy_ez
        dhy = sdt * self.inv_mu * sx_ez
        dez = sdt * self.inv_eps * sx_hy
        if self.dw0 is not None:
            dhy = dhy + np.einsum("as,as->a", self.dw0, hy)
            dez = dez + np.einsum("as,as->a", self.dw0, ez)
        return self.rows, dhx, dhy, dez


class PmlRunner:
    """Time stepper for a least-squares scheme with collar and injection.

    Builds the stencil geometry, fit weights, recursion coefficients and
    edge corrections once, then advances states with `step` (the BFECC
    composition of bfecc.bfecc_apply) or `plain_step`.  Every substep fits
    the stacked state with schemes._ls_fit_all, scales the derivative
    planes by the collar's (1 + c), and applies step_2d's least-squares
    assembly; the memory term joins only a step's final substep and the
    TF/SF corrections every substep.  A runner keeps one set of work
    buffers for all its steps.  The memory fields in `pml` are updated in
    place; field states are never mutated.
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
        # whole (nx, ny) planes: numpy runs an (nx, 1) or (1, ny) operand
        # through iteration buffers, at several times the cost
        shape = pml.psi_hxy.shape
        self.bx, self.cx = (np.broadcast_to(a[:, None], shape).copy() for a in (pml.b_x, pml.c_x))
        self.by, self.cy = (np.broadcast_to(a[None, :], shape).copy() for a in (pml.b_y, pml.c_y))
        self.one_cx = 1.0 + self.cx
        self.one_cy = 1.0 + self.cy
        # (memory field, b, c, 1 + c) in the order of the derivative planes
        # d/dx (Hy, Ez), d/dy (Hx, Ez) they belong to
        x = (self.bx, self.cx, self.one_cx)
        y = (self.by, self.cy, self.one_cy)
        self._collar = ((pml.psi_ezx, *x), (pml.psi_hyx, *x), (pml.psi_ezy, *y), (pml.psi_hxy, *y))

    def with_dt(self, dt: float) -> "PmlRunner":
        """This runner stepping dt, for a run's shorter final step: the same
        geometry, edge corrections, work buffers and collar memory, with
        recursion coefficients for dt."""
        other = copy.copy(self)
        other.spec = replace(self.spec, dt=dt)
        other._set_collar(self.pml.with_dt(dt))
        return other

    def _ensure_injector(self, state: FieldState2):
        """Build the edge corrections at the first step, which brings the
        materials, and before the first step's work buffers exist, so that
        their set-up arrays never add to them."""
        if self.source is not None and self._injector is None:
            self._injector = TfsfInjector(self.source, self.geom, self.spec.kind,
                                          state.eps, state.mu)

    def _apply(self, state: FieldState2, v, out, sdt, t, start, history):
        """One substep on the stack v at time t, into `out` (fresh when None).

        `start` keeps the undamped gradients for the memory update (the
        substep acting on the step-start state); `history` adds the memory
        term b * psi.
        """
        base, gx, gy = fits = _ls_fit_all(self.geom, self.weights, v,
                                          LS_CENTER[self.spec.kind], self.work)
        if start:
            grads = self._start_gradients(v.shape)
            grads[:2] = gx
            grads[2:] = gy
            for ring in self.geom.ring:
                grads[ring] = 0.0
        term = self.work("memory_term", v.shape[1:])
        for g, (psi, b, _, one_c) in zip((*gx, *gy), self._collar):
            g *= one_c
            if history:
                g += np.multiply(psi, b, out=term)
        out = _ls_assemble(v, fits, self.geom, sdt, state.eps, state.mu, out, self.work)
        inj = self._injector
        if inj is not None:
            rows, *corrections = inj.corrections(t, sdt)
            for f, d in zip(out, corrections):
                f[rows] += d
        return out

    def _start_gradients(self, shape):
        """The (4, nx, ny) undamped gradients of a step's start state."""
        return self.work("start_gradients", (4,) + shape[1:])

    def _advance_memory(self, grads):
        """psi <- b psi + c g for the four memory fields, from the step-start
        gradients `grads`, (4, nx, ny) in the order d/dx (Hy, Ez),
        d/dy (Hx, Ez) and zero on a bounded grid's outer ring, so the ring
        keeps no memory."""
        term = self.work("memory_term", grads.shape[1:])
        for g, (psi, b, c, _) in zip(grads, self._collar):
            psi *= b
            psi += np.multiply(g, c, out=term)

    def step(self, state: FieldState2, t: float) -> FieldState2:
        """Advance one dt from time t with the three-substep wrapper.

        The backward substep acts on a state at t + dt, so its edge
        correction uses the incident field there; the compensated state
        fed to the last substep sits back at t.
        """
        dt = self.spec.dt
        self._ensure_injector(state)

        def substep(k, v, out):
            backward = k == 1
            return self._apply(state, v, out, -dt if backward else dt,
                               t + dt if backward else t, k == 0, k == 2)

        u = bfecc_apply(substep, state.u, self.work)
        self._advance_memory(self._start_gradients(u.shape))
        return FieldState2._of(u, state.eps, state.mu)

    def plain_step(self, state: FieldState2, t: float) -> FieldState2:
        """Advance one dt without the error-compensation substeps."""
        self._ensure_injector(state)
        u = self._apply(state, state.u, None, self.spec.signed_dt, t, True, True)
        self._advance_memory(self._start_gradients(u.shape))
        return FieldState2._of(u, state.eps, state.mu)
