"""Absorbing boundary layer (convolutional form) and plane-wave injection.

The collar of a bounded grid carries damping profiles sigma_x(x), sigma_y(y).
Each spatial derivative d_xi u appearing in an update is replaced by

    (1 + c_xi) * d_xi u + b_xi * psi,    psi' = b_xi * psi + c_xi * d_xi u,

with b = exp(-sigma * dt) and c = b - 1, one memory field psi per
(equation, derivative) pair.  Where sigma = 0 this reduces exactly to the
interior scheme: b = 1, c = 0 and psi stays zero.

Inside the three-substep wrapper the (1 + c) derivative scaling is part of
the one-step operator and applies in every substep; the memory term
b * psi is a source term, ignored in the first two substeps and added only
in the final one, evaluated at the step's start time.  The memory
recursion consumes the gradients of the step-start state, so the first
substep's least-squares fits are reused for it.

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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid2
from .schemes import (FieldState2, SchemeSpec, StencilGeometry, _ls_assemble,
                      _ls_fit_all, lincomb2)

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
    bx = np.exp(-sx * dt)
    by = np.exp(-sy * dt)
    shape = (grid.nx, grid.ny)
    return PmlState(thickness, float(dt), sx, sy, bx, bx - 1.0, by, by - 1.0,
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
    correction; `rows` indexes them in the geometry's (nx', ny') block.
    Their fit weights come from one factorization of just those stencils.
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
        self.rows = np.unravel_index(rows, geom.shape)
        self.ax = ax[rows]
        self.ay = ay[rows]
        self.dwx = d * weights[:, 1, :]
        self.dwy = d * weights[:, 2, :]
        # the fitted-center base only exists for ls_theta; the ls_cd base is
        # the point's own value, whose chi difference is identically zero
        self.dw0 = d * weights[:, 0, :] if kind == "ls_theta" else None
        self.inv_eps = 1.0 if eps is None else 1.0 / eps[inside][self.rows]
        self.inv_mu = 1.0 if mu is None else 1.0 / mu[inside][self.rows]

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
    edge corrections once, then advances states with `step` (three-substep
    wrapper) or `plain_step`.  Fits are (3, nx', ny') planes over the
    geometry's update block; the collar coefficients are (nx', 1) and
    (1, ny') planes that broadcast against them, and the update is
    step_2d's least-squares assembly applied to the damped derivatives.
    The memory fields in `pml` are updated in place; field states are
    never mutated.
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
        self.pml = pml
        self.source = source
        self.geom = geometry if geometry is not None else StencilGeometry(grid)
        self.weights = weights if weights is not None else self.geom.cached_weights()
        ix, iy = self.geom.interior
        self.bx = pml.b_x[ix][:, None]
        self.cx = pml.c_x[ix][:, None]
        self.by = pml.b_y[iy][None, :]
        self.cy = pml.c_y[iy][None, :]
        self.one_cx = 1.0 + self.cx
        self.one_cy = 1.0 + self.cy
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

    def _fits(self, state: FieldState2):
        return _ls_fit_all(self.geom, self.weights, state.Hx, state.Hy, state.Ez)

    def _ensure_injector(self, state: FieldState2):
        if self.source is not None and self._injector is None:
            self._injector = TfsfInjector(self.source, self.geom, self.spec.kind,
                                          state.eps, state.mu)
        return self._injector

    def _apply(self, state: FieldState2, fits, sdt, with_history, t):
        fit_hx, fit_hy, fit_ez = fits
        dez_dx = self.one_cx * fit_ez[1]
        dez_dy = self.one_cy * fit_ez[2]
        dhy_dx = self.one_cx * fit_hy[1]
        dhx_dy = self.one_cy * fit_hx[2]
        inside = self.geom.interior
        if with_history:
            dez_dx += self.bx * self.pml.psi_hyx[inside]
            dez_dy += self.by * self.pml.psi_hxy[inside]
            dhy_dx += self.bx * self.pml.psi_ezx[inside]
            dhx_dy += self.by * self.pml.psi_ezy[inside]
        out = _ls_assemble(self.spec.kind, state, self.geom, fits, sdt,
                           dez_dx, dez_dy, dhy_dx, dhx_dy)
        inj = self._ensure_injector(state)
        if inj is not None:
            rows, dhx, dhy, dez = inj.corrections(t, sdt)
            for f, d in ((out.Hx, dhx), (out.Hy, dhy), (out.Ez, dez)):
                f[inside][rows] += d
        return out

    def _advance_memory(self, fits0):
        fit_hx, fit_hy, fit_ez = fits0
        inside = self.geom.interior
        for psi, b, c, g in ((self.pml.psi_hxy, self.by, self.cy, fit_ez[2]),
                             (self.pml.psi_hyx, self.bx, self.cx, fit_ez[1]),
                             (self.pml.psi_ezx, self.bx, self.cx, fit_hy[1]),
                             (self.pml.psi_ezy, self.by, self.cy, fit_hx[2])):
            view = psi[inside]
            view *= b
            view += c * g

    def step(self, state: FieldState2, t: float) -> FieldState2:
        """Advance one dt from time t with the three-substep wrapper.

        The backward substep acts on a state at t + dt, so its edge
        correction uses the incident field there; the compensated state
        fed to the last substep sits back at t.
        """
        dt = self.spec.dt
        fits0 = self._fits(state)
        u1 = self._apply(state, fits0, dt, False, t)
        u2 = self._apply(u1, self._fits(u1), -dt, False, t + dt)
        u3 = lincomb2(1.5, state, -0.5, u2)
        out = self._apply(u3, self._fits(u3), dt, True, t)
        self._advance_memory(fits0)
        return out

    def plain_step(self, state: FieldState2, t: float) -> FieldState2:
        """Advance one dt without the error-compensation substeps."""
        fits0 = self._fits(state)
        out = self._apply(state, fits0, self.spec.signed_dt, True, t)
        self._advance_memory(fits0)
        return out
