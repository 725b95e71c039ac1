"""One-step explicit schemes for Maxwell's equations.

1D system (free space, unit speed): dH/dt = dE/dx, dE/dt = dH/dx.
2D TMz system on u = (Hx, Hy, Ez):

    dHx/dt = -dEz/dy,  dHy/dt = dEz/dx,  dEz/dt = dHy/dx - dHx/dy,

with materials eps (divides the Ez update) and mu (divides the H updates).

Scheme kinds
  cd        centered differences in space, forward Euler in time
  lf        same derivative terms with the Lax-Friedrichs neighbor average
            replacing the center value
  theta     convex blend: (1 - theta)*cd + theta*lf center term
  ls_cd     centered-difference analog with least-squares gradients,
            valid on non-uniform (point-shifted) grids
  ls_theta  least-squares gradients and the fitted center value replacing
            the point value (reduces to theta = 0.8 on uniform grids)

A least-squares fit on an unmoved five-point cross is exactly the center
blend and the centered differences, so the ls_* kinds run the uniform slice
kernels over the whole field and refit only the irregular stencils, those
with a point off its rectangular position.

All schemes are one-step and linear; `direction="backward"` negates dt
(the averaging terms are part of the spatial operator and keep their sign).
Steps never mutate their input state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grid import Grid2, STENCIL_OFFSETS
from .lsq import batched_fit_weights

SCHEME_KINDS = ("cd", "lf", "theta", "ls_cd", "ls_theta")
UNIFORM_KINDS = ("cd", "lf", "theta")
DIRECTIONS = ("forward", "backward")


def _check_material(arr, shape, name):
    if arr is None:
        return None
    arr = np.asarray(arr, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} shape {arr.shape} does not match fields {shape}")
    if np.any(arr <= 0):
        raise ValueError(f"{name} must be positive everywhere")
    return arr


@dataclass
class FieldState1:
    """E and H on a periodic 1D grid; eps/mu default to free space."""

    E: np.ndarray
    H: np.ndarray
    eps: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=float)
        self.H = np.asarray(self.H, dtype=float)
        if self.E.shape != self.H.shape or self.E.ndim != 1:
            raise ValueError(f"E and H must be equal-length 1D arrays, got {self.E.shape} and {self.H.shape}")
        self.eps = _check_material(self.eps, self.E.shape, "eps")
        self.mu = _check_material(self.mu, self.E.shape, "mu")

    @property
    def n(self):
        return self.E.shape[0]


@dataclass
class FieldState2:
    """TMz fields (Hx, Hy, Ez) on a 2D grid, indexed [i, j] ~ (x_i, y_j)."""

    Hx: np.ndarray
    Hy: np.ndarray
    Ez: np.ndarray
    eps: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None

    def __post_init__(self):
        self.Hx = np.asarray(self.Hx, dtype=float)
        self.Hy = np.asarray(self.Hy, dtype=float)
        self.Ez = np.asarray(self.Ez, dtype=float)
        if not (self.Hx.shape == self.Hy.shape == self.Ez.shape) or self.Hx.ndim != 2:
            raise ValueError("Hx, Hy, Ez must be 2D arrays of one shape")
        self.eps = _check_material(self.eps, self.Ez.shape, "eps")
        self.mu = _check_material(self.mu, self.Ez.shape, "mu")

    @property
    def shape(self):
        return self.Ez.shape


@dataclass(frozen=True)
class SchemeSpec:
    """Underlying-scheme selector: kind, time step, theta, direction."""

    kind: str
    dt: float
    theta: float = 0.0
    direction: str = "forward"

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; expected one of {SCHEME_KINDS}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")

    def reversed(self) -> "SchemeSpec":
        other = "backward" if self.direction == "forward" else "forward"
        return replace(self, direction=other)

    @property
    def signed_dt(self) -> float:
        return self.dt if self.direction == "forward" else -self.dt


def lincomb1(ca: float, a: FieldState1, cb: float, b: FieldState1) -> FieldState1:
    return FieldState1(ca * a.E + cb * b.E, ca * a.H + cb * b.H, a.eps, a.mu)


def lincomb2(ca: float, a: FieldState2, cb: float, b: FieldState2) -> FieldState2:
    return FieldState2(ca * a.Hx + cb * b.Hx, ca * a.Hy + cb * b.Hy,
                       ca * a.Ez + cb * b.Ez, a.eps, a.mu)


def _dc(f, axis):
    """0.5 * (f[i+1] - f[i-1]) along `axis`, periodic."""
    out = np.empty_like(f)
    g, o = f.swapaxes(0, axis), out.swapaxes(0, axis)
    np.subtract(g[2:], g[:-2], out=o[1:-1])
    np.subtract(g[1:2], g[-1:], out=o[:1])
    np.subtract(g[:1], g[-2:-1], out=o[-1:])
    out *= 0.5
    return out


def _center_blend(theta_eff, f):
    """(1 - theta)*f + theta*(neighbor average over every axis), periodic.

    The neighbor sum runs axis by axis in a fixed order, f[i-1] + f[i+1],
    then + f[j-1], then + f[j+1], which fixes its rounding.
    """
    if theta_eff == 0.0:
        return f
    avg = np.empty_like(f)
    np.add(f[:-2], f[2:], out=avg[1:-1])
    np.add(f[-1:], f[1:2], out=avg[:1])
    np.add(f[-2:-1], f[:1], out=avg[-1:])
    for axis in range(1, f.ndim):
        g, a = f.swapaxes(0, axis), avg.swapaxes(0, axis)
        a[1:] += g[:-1]
        a[:1] += g[-1:]
        a[:-1] += g[1:]
        a[-1:] += g[:1]
    avg *= 0.5 / f.ndim
    if theta_eff == 1.0:
        return avg
    avg *= theta_eff
    avg += (1.0 - theta_eff) * f
    return avg


def _theta_eff(kind, theta):
    """Weight of the neighbor average in a uniform-grid kind's center term."""
    if kind not in UNIFORM_KINDS:
        raise ValueError(f"kind must be one of the uniform-grid kinds {UNIFORM_KINDS}, got {kind!r}")
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    return {"cd": 0.0, "lf": 1.0, "theta": theta}[kind]


def step_1d(spec: SchemeSpec, state: FieldState1, dx: float) -> FieldState1:
    """One step of a uniform-grid scheme on a periodic 1D state."""
    if spec.kind not in UNIFORM_KINDS:
        raise ValueError("least-squares kinds are 2D schemes; use step_2d")
    if not dx > 0:
        raise ValueError(f"dx must be positive, got {dx}")
    lam = spec.signed_dt / dx
    th = _theta_eff(spec.kind, spec.theta)
    e_new = _dc(state.H, 0)
    e_new *= lam if state.eps is None else lam * (1.0 / state.eps)
    e_new += _center_blend(th, state.E)
    h_new = _dc(state.E, 0)
    h_new *= lam if state.mu is None else lam * (1.0 / state.mu)
    h_new += _center_blend(th, state.H)
    return FieldState1(e_new, h_new, state.eps, state.mu)


class StencilGeometry:
    """Five-point stencils of a Grid2 and their least-squares fit weights.

    Update points are all points (periodic) or the interior ring-1 points
    (bounded; the outer ring has no update rule and is held fixed).  They
    form an (nx', ny') = `shape` block that `interior` slices out of any
    field, m = nx' * ny' stencils in row-major order.

    `index` (m, 5) holds the flat field index of each stencil's points in
    grid.STENCIL_OFFSETS order, wrapped across periodic seams, and `offsets`
    (m, 5, 2) their positions relative to the center, a wrapped neighbor
    sitting one domain extent away.  A stencil is irregular when any of its
    points has left its rect_coords() position; `irregular` lists them.
    Every other stencil is the uniform cross, whose fit is the theta = 0.8
    center blend and the centered differences, so `cached_weights()`
    factors only the irregular stencils, (r, 3, 5) in `irregular` order.
    """

    def __init__(self, grid: Grid2):
        self.grid = grid
        nx, ny = grid.nx, grid.ny
        ring = 0 if grid.boundary_kind == "periodic" else 1
        self.shape = (nx - 2 * ring, ny - 2 * ring)
        self.interior = (slice(ring, nx - ring), slice(ring, ny - ring))
        di, dj = np.array(STENCIL_OFFSETS).T
        wi, ii = np.divmod(np.arange(ring, nx - ring)[:, None, None] + di, nx)
        wj, jj = np.divmod(np.arange(ring, ny - ring)[None, :, None] + dj, ny)
        self.index = (ii * ny + jj).reshape(-1, 5)
        pos = grid.coords[ii, jj]
        pos[..., 0] += wi * grid.width
        pos[..., 1] += wj * grid.height
        self.offsets = (pos - pos[:, :, :1]).reshape(-1, 5, 2)
        moved = np.any(grid.coords != grid.rect_coords(), axis=2).ravel()
        self.irregular = np.flatnonzero(moved[self.index].any(axis=1))
        self._weights = None

    def fit_weights(self, rows):
        """(len(rows), 3, 5) fit weights of the stencils `rows`, one batched
        factorization; none runs for an empty selection."""
        if len(rows) == 0:
            return np.empty((0, 3, 5))
        return batched_fit_weights(self.offsets[rows])[0]

    def cached_weights(self):
        if self._weights is None:
            self._weights = self.fit_weights(self.irregular)
        return self._weights


def _ls_fit_all(geom: StencilGeometry, weights, *fields):
    """Fitted (a, d/dx, d/dy) at the update points, (3, nx', ny') per field.

    The slice kernels give every uniform cross's fit over the whole field:
    the theta = 0.8 center blend and the centered differences.  `weights`,
    the (r, 3, 5) block from StencilGeometry.cached_weights(), then refits
    the irregular stencils from their gathered values.
    """
    grid = geom.grid
    rows = geom.index[geom.irregular]
    out = []
    for f in fields:
        fit = np.empty((3,) + f.shape)
        fit[0] = _center_blend(0.8, f)
        np.divide(_dc(f, 0), grid.dx, out=fit[1])
        np.divide(_dc(f, 1), grid.dy, out=fit[2])
        fit.reshape(3, -1)[:, rows[:, 0]] = np.einsum("rks,rs->kr", weights, f.ravel()[rows])
        out.append(fit[(slice(None),) + geom.interior])
    return out


def _ls_assemble(kind, state: FieldState2, geom: StencilGeometry, fits, sdt,
                 dez_dx, dez_dy, dhy_dx, dhx_dy) -> FieldState2:
    """The least-squares update of `state` from its fits.

    The four derivative planes are the fitted gradients, or the collar's
    damped form of them; the base value is the point value (ls_cd) or the
    fitted center value (ls_theta).  Points outside `geom.interior` keep
    their input values.
    """
    inside = geom.interior
    ie = 1.0 if state.eps is None else 1.0 / state.eps[inside]
    im = 1.0 if state.mu is None else 1.0 / state.mu[inside]
    if kind == "ls_cd":
        base_hx, base_hy, base_ez = (f[inside] for f in (state.Hx, state.Hy, state.Ez))
    else:  # ls_theta: fitted center value replaces the point value
        base_hx, base_hy, base_ez = (fit[0] for fit in fits)
    hx, hy, ez = state.Hx.copy(), state.Hy.copy(), state.Ez.copy()
    hx[inside] = base_hx - sdt * im * dez_dy
    hy[inside] = base_hy + sdt * im * dez_dx
    ez[inside] = base_ez + sdt * ie * (dhy_dx - dhx_dy)
    return FieldState2(hx, hy, ez, state.eps, state.mu)


def step_2d(spec: SchemeSpec, state: FieldState2, grid: Grid2,
            geometry: Optional[StencilGeometry] = None,
            weights=None) -> FieldState2:
    """One step of the selected scheme on a 2D state.

    Kinds cd/lf/theta require a uniform periodic grid;
    ls_cd/ls_theta work on any Grid2 through local least-squares fits.
    Passing `geometry` (and optionally `weights`, the (r, 3, 5) block of
    its irregular stencils) reuses precomputed stencil data; without
    `weights` the geometry's cached weights are used, so the factorization
    runs once per geometry.
    """
    if state.shape != (grid.nx, grid.ny):
        raise ValueError(f"state shape {state.shape} does not match grid {(grid.nx, grid.ny)}")
    sdt = spec.signed_dt

    if spec.kind in UNIFORM_KINDS:
        if grid.boundary_kind != "periodic":
            raise ValueError(f"kind {spec.kind!r} needs a periodic grid; bounded grids need a ls_* kind")
        if not grid.uniform:
            raise ValueError(f"kind {spec.kind!r} requires a uniform grid; use ls_cd or ls_theta")
        lx = sdt / grid.dx
        ly = sdt / grid.dy
        th = _theta_eff(spec.kind, spec.theta)
        hx = _dc(state.Ez, 1)
        hx *= ly if state.mu is None else ly * (1.0 / state.mu)
        np.subtract(_center_blend(th, state.Hx), hx, out=hx)
        hy = _dc(state.Ez, 0)
        hy *= lx if state.mu is None else lx * (1.0 / state.mu)
        hy += _center_blend(th, state.Hy)
        ez = _dc(state.Hy, 0)
        ez *= lx
        dhx_dy = _dc(state.Hx, 1)
        dhx_dy *= ly
        ez -= dhx_dy
        if state.eps is not None:
            ez *= 1.0 / state.eps
        ez += _center_blend(th, state.Ez)
        return FieldState2(hx, hy, ez, state.eps, state.mu)

    geom = geometry if geometry is not None else StencilGeometry(grid)
    w = weights if weights is not None else geom.cached_weights()
    fit_hx, fit_hy, fit_ez = fits = _ls_fit_all(geom, w, state.Hx, state.Hy, state.Ez)
    return _ls_assemble(spec.kind, state, geom, fits, sdt,
                        fit_ez[1], fit_ez[2], fit_hy[1], fit_hx[2])
