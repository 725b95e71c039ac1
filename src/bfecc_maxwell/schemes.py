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

A state keeps its components as one stacked array `u`, (E, H) in 1D and
(Hx, Hy, Ez) in 2D; the named components are views of it.  The kernels act
on the whole stack per numpy call and write into given arrays.
`_operator` checks a (kind, state, grid) combination once and returns the
one-step operator op(spec, u, out, work), which writes the step into `out`
(a fresh array when None) with scratch arrays from a `Workspace`.
step_1d/step_2d apply it once; bfecc.bfecc_step runs it three times, into
the array it returns and one buffer that a run keeps for all its steps.

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


class _State:
    """The stacked components `u` and the materials eps/mu of a state."""

    __slots__ = ("u", "eps", "mu")

    @classmethod
    def _of(cls, u, eps, mu):
        """A state around the stack u, carrying already-checked materials."""
        state = object.__new__(cls)
        state.u, state.eps, state.mu = u, eps, mu
        return state


class FieldState1(_State):
    """E and H on a periodic 1D grid, stacked as u = (E, H), shape (2, n);
    eps/mu default to free space."""

    __slots__ = ()

    def __init__(self, E, H, eps=None, mu=None):
        E = np.asarray(E, dtype=float)
        H = np.asarray(H, dtype=float)
        if E.shape != H.shape or E.ndim != 1:
            raise ValueError(f"E and H must be equal-length 1D arrays, got {E.shape} and {H.shape}")
        self.u = np.stack((E, H))
        self.eps = _check_material(eps, E.shape, "eps")
        self.mu = _check_material(mu, E.shape, "mu")

    E = property(lambda self: self.u[0])
    H = property(lambda self: self.u[1])

    @property
    def n(self):
        return self.u.shape[1]


class FieldState2(_State):
    """TMz fields on a 2D grid, stacked as u = (Hx, Hy, Ez), shape
    (3, nx, ny), indexed [c, i, j] ~ (x_i, y_j)."""

    __slots__ = ()

    def __init__(self, Hx, Hy, Ez, eps=None, mu=None):
        fields = [np.asarray(f, dtype=float) for f in (Hx, Hy, Ez)]
        if not fields[0].shape == fields[1].shape == fields[2].shape or fields[0].ndim != 2:
            raise ValueError("Hx, Hy, Ez must be 2D arrays of one shape")
        self.u = np.stack(fields)
        self.eps = _check_material(eps, self.shape, "eps")
        self.mu = _check_material(mu, self.shape, "mu")

    Hx = property(lambda self: self.u[0])
    Hy = property(lambda self: self.u[1])
    Ez = property(lambda self: self.u[2])

    @property
    def shape(self):
        return self.u.shape[1:]


class Workspace:
    """Scratch arrays by name, allocated on first request and reused after.

    A run keeps one for all its steps, so once the first step has run the
    substeps and kernels allocate nothing but each step's output.
    """

    def __init__(self):
        self._arrays = {}

    def __call__(self, name, shape):
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape:
            arr = self._arrays[name] = np.empty(shape)
        return arr


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


def lincomb1(ca: float, a, cb: float, b):
    """The state ca * a + cb * b, with a's type and materials."""
    return type(a)._of(ca * a.u + cb * b.u, a.eps, a.mu)


lincomb2 = lincomb1


def _rows(a):
    """`a` with its last two axes merged, as a view; None when that would
    need a copy."""
    if a.ndim < 2 or a.strides[-2] != a.shape[-1] * a.strides[-1]:
        return None
    return a.reshape(a.shape[:-2] + (-1,))


def _dc(f, axis, out):
    """0.5 * (f[i+1] - f[i-1]) along `axis`, periodic, written into `out`.

    Along the last axis the differences run over whole rows merged end to
    end, one contiguous pass, in which only the first and last column
    pick up values from the neighboring row; those two columns are then
    rewritten.  (numpy iterates a row-by-row slice through buffers, at
    about twice the cost.)
    """
    merged = (_rows(f), _rows(out)) if axis == f.ndim - 1 else (None, None)
    if merged[0] is not None and merged[1] is not None:
        g, o = merged
        np.subtract(g[..., 2:], g[..., :-2], out=o[..., 1:-1])
        np.subtract(f[..., 1], f[..., -1], out=out[..., 0])
        np.subtract(f[..., 0], f[..., -2], out=out[..., -1])
    else:
        g, o = f.swapaxes(0, axis), out.swapaxes(0, axis)
        np.subtract(g[2:], g[:-2], out=o[1:-1])
        np.subtract(g[1:2], g[-1:], out=o[:1])
        np.subtract(g[:1], g[-2:-1], out=o[-1:])
    out *= 0.5
    return out


def _center_blend(theta_eff, f, out, spare):
    """(1 - theta)*f + theta*(neighbor average over the spatial axes), periodic.

    f is a contiguous stack of fields, spatial axes 1 onward; the blend
    goes into `out` (contiguous too), with `spare` (f's shape) as scratch,
    and theta = 0 returns f itself.  The neighbor sum runs axis by axis in
    a fixed order, f[i-1] + f[i+1], then + f[j-1], then + f[j+1], which
    fixes its rounding; the j neighbors are added over merged rows, as in
    `_dc`, with the two wrapped columns redone from their saved sums.
    """
    if theta_eff == 0.0:
        return f
    g, a = f.swapaxes(0, 1), out.swapaxes(0, 1)
    np.add(g[:-2], g[2:], out=a[1:-1])
    np.add(g[-1:], g[1:2], out=a[:1])
    np.add(g[-2:-1], g[:1], out=a[-1:])
    if f.ndim == 3:
        fr, ar = _rows(f), _rows(out)
        first = out[..., 0].copy()
        ar[..., 1:] += fr[..., :-1]
        np.add(first, f[..., -1], out=out[..., 0])
        last = out[..., -1].copy()
        ar[..., :-1] += fr[..., 1:]
        np.add(last, f[..., 0], out=out[..., -1])
    out *= 0.5 / (f.ndim - 1)
    if theta_eff == 1.0:
        return out
    out *= theta_eff
    out += np.multiply(f, 1.0 - theta_eff, out=spare)
    return out


def _reciprocal(material):
    """The plane fl(1 / material), or None for free space."""
    return None if material is None else np.divide(1.0, material)


def _coef(scale, inv, work):
    """`scale`, or the plane scale * inv in the work array, where `inv` is a
    material's reciprocal plane (None for free space)."""
    if inv is None:
        return scale
    return np.multiply(inv, scale, out=work("coef", inv.shape))


def _theta_eff(kind, theta):
    """Weight of the neighbor average in a uniform-grid kind's center term."""
    if kind not in UNIFORM_KINDS:
        raise ValueError(f"kind must be one of the uniform-grid kinds {UNIFORM_KINDS}, got {kind!r}")
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    return {"cd": 0.0, "lf": 1.0, "theta": theta}[kind]


def _uniform_blend(spec, u, work):
    th = _theta_eff(spec.kind, spec.theta)
    if th == 0.0:
        return u
    return _center_blend(th, u, work("blend", u.shape), work("blend_spare", u.shape))


def _uniform_1d(spec, u, dx, inv_eps, inv_mu, out, work):
    """E' = blend(E) + lam/eps dH, H' = blend(H) + lam/mu dE on u = (E, H)."""
    if out is None:
        out = np.empty_like(u)
    lam = spec.signed_dt / dx
    de, dh = _dc(u, 1, work("d", u.shape))
    np.multiply(dh, _coef(lam, inv_eps, work), out=out[0])
    np.multiply(de, _coef(lam, inv_mu, work), out=out[1])
    out += _uniform_blend(spec, u, work)
    return out


def _uniform_2d(spec, u, grid, inv_eps, inv_mu, out, work):
    """The TMz update of u = (Hx, Hy, Ez), finishing one component at a
    time so that each stays in cache on large grids; dHx/dy passes through
    the Hx plane before that plane's own update."""
    if out is None:
        out = np.empty_like(u)
    lx = spec.signed_dt / grid.dx
    ly = spec.signed_dt / grid.dy
    blend = _uniform_blend(spec, u, work)
    hx, hy, ez = out
    _dc(u[1], 0, ez)
    ez *= lx
    _dc(u[0], 1, hx)
    hx *= ly
    ez -= hx
    if inv_eps is not None:
        ez *= inv_eps
    ez += blend[2]
    _dc(u[2], 1, hx)
    hx *= _coef(ly, inv_mu, work)
    np.subtract(blend[0], hx, out=hx)
    _dc(u[2], 0, hy)
    hy *= _coef(lx, inv_mu, work)
    hy += blend[1]
    return out


class StencilGeometry:
    """Five-point stencils of a Grid2 and their least-squares fit weights.

    Update points are all points (periodic) or the interior ring-1 points
    (bounded; the outer ring has no update rule and is held fixed).  They
    form an (nx', ny') = `shape` block that `interior` slices out of any
    field, m = nx' * ny' stencils in row-major order; `ring` indexes the
    held outer ring of a stacked state (empty on periodic grids).

    `index` (m, 5) holds the flat field index of each stencil's points in
    grid.STENCIL_OFFSETS order, wrapped across periodic seams, and `offsets`
    (m, 5, 2) their positions relative to the center, a wrapped neighbor
    sitting one domain extent away.  A stencil is irregular when any of its
    points has left its rect_coords() position; `irregular` lists them and
    `irregular_index` (r, 5) holds their rows of `index`.  Every other
    stencil is the uniform cross, whose fit is the theta = 0.8 center blend
    and the centered differences, so `cached_weights()` factors only the
    irregular stencils, (r, 3, 5) in `irregular` order.
    """

    def __init__(self, grid: Grid2):
        self.grid = grid
        nx, ny = grid.nx, grid.ny
        ring = 0 if grid.boundary_kind == "periodic" else 1
        self.shape = (nx - 2 * ring, ny - 2 * ring)
        self.interior = (slice(ring, nx - ring), slice(ring, ny - ring))
        self.ring = [] if ring == 0 else [np.s_[:, 0], np.s_[:, -1],
                                          np.s_[:, 1:-1, 0], np.s_[:, 1:-1, -1]]
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
        self.irregular_index = self.index[self.irregular]
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


# weight of the neighbor average in each least-squares kind's base value:
# ls_theta's fitted center is the theta = 0.8 blend on a uniform cross,
# ls_cd's base is the point value itself
LS_CENTER = {"ls_cd": 0.0, "ls_theta": 0.8}


def _ls_fit_all(geom: StencilGeometry, weights, u, center, work):
    """Fitted (a, d/dx, d/dy) of the stacked fields u = (Hx, Hy, Ez): a for
    all three fields, d/dx of (Hy, Ez) and d/dy of (Hx, Ez), the
    derivatives an update reads; whole (nx, ny) planes, valid at the update
    points.

    The fits fill the (7, nx, ny) work array "fit" in that order, so the
    four derivative planes are fit[3:]; on a bounded grid the outer ring
    holds periodic-wrap values that no update uses, so every plane stays
    contiguous.  The slice kernels give every uniform cross's fit over the
    whole field: a is the center blend of weight `center` (0 leaves a = u
    and skips the blend).  `weights`, the (r, 3, 5) block from
    StencilGeometry.cached_weights(), then refits the irregular stencils
    from their gathered values, all three fields in one contraction.
    """
    fit = work("fit", (7,) + u.shape[1:])
    a = _center_blend(center, u, fit[:3], fit[3:6])
    gx, gy = fit[3:5], fit[5:]
    np.divide(_dc(u[1:], 1, gx), geom.grid.dx, out=gx)
    np.divide(_dc(u[::2], 2, gy), geom.grid.dy, out=gy)
    rows = geom.irregular_index
    vals = np.take(u.reshape(3, -1), rows, axis=1, mode="clip",
                   out=work("gather", (3,) + rows.shape))
    refit = np.einsum("rks,frs->kfr", weights, vals, out=work("refit", (3, 3, len(rows))))
    fit.reshape(7, -1)[:, rows[:, 0]] = refit.reshape(9, -1)[_FIT_PLANES]
    return a, gx, gy


# the (plane, field) pairs of the contraction kept in "fit": a of all three
# fields, d/dx of Hy and Ez, d/dy of Hx and Ez
_FIT_PLANES = [0, 1, 2, 4, 5, 6, 8]


def _ls_assemble(u, fits, geom: StencilGeometry, sdt, inv_eps, inv_mu, out, work):
    """The least-squares update of the stack u from its fits, into `out`
    (a fresh array when None); `inv_eps`/`inv_mu` are the materials'
    reciprocal planes (None for free space).

    `fits` are whole planes: the base values (the fitted center for
    ls_theta, the point values for ls_cd), d/dx of (Hy, Ez) and d/dy of
    (Hx, Ez), the fitted gradients or the collar's damped form of them.
    The update runs over whole planes; the outer ring of a bounded grid
    then gets its input values back.
    """
    if out is None:
        out = np.empty_like(u)
    base, (dhy_dx, dez_dx), (dhx_dy, dez_dy) = fits
    sdt_mu = _coef(sdt, inv_mu, work)
    np.multiply(dez_dy, sdt_mu, out=out[0])
    np.subtract(base[0], out[0], out=out[0])
    np.multiply(dez_dx, sdt_mu, out=out[1])
    out[1] += base[1]
    np.subtract(dhy_dx, dhx_dy, out=out[2])
    out[2] *= _coef(sdt, inv_eps, work)
    out[2] += base[2]
    for ring in geom.ring:
        out[ring] = u[ring]
    return out


def _ls_step(spec, u, geom, weights, inv_eps, inv_mu, out, work):
    fits = _ls_fit_all(geom, weights, u, LS_CENTER[spec.kind], work)
    return _ls_assemble(u, fits, geom, spec.signed_dt, inv_eps, inv_mu, out, work)


def _operator(kind, state, where, geometry=None, weights=None):
    """The one-step operator of `kind` for states like `state`, checked once.

    `where` is the spacing dx of a FieldState1 or the Grid2 of a
    FieldState2.  Returns op(spec, u, out, work), which writes one step of
    the stacked fields u into `out` (a fresh array when None), takes its
    scratch arrays from the Workspace `work` and returns the result.
    The materials' reciprocal planes are formed here, once per operator.
    For least-squares kinds a missing `geometry` is built here and missing
    `weights` come from the geometry's cache.
    """
    if isinstance(state, FieldState1):
        if kind not in UNIFORM_KINDS:
            raise ValueError("least-squares kinds are 2D schemes; use step_2d")
        dx = where
        if not dx > 0:
            raise ValueError(f"dx must be positive, got {dx}")
        inv_eps, inv_mu = _reciprocal(state.eps), _reciprocal(state.mu)
        return lambda spec, u, out, work: _uniform_1d(spec, u, dx, inv_eps, inv_mu, out, work)
    if not isinstance(state, FieldState2):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    grid: Grid2 = where
    if state.shape != (grid.nx, grid.ny):
        raise ValueError(f"state shape {state.shape} does not match grid {(grid.nx, grid.ny)}")
    inv_eps, inv_mu = _reciprocal(state.eps), _reciprocal(state.mu)
    if kind in UNIFORM_KINDS:
        if grid.boundary_kind != "periodic":
            raise ValueError(f"kind {kind!r} needs a periodic grid; bounded grids need a ls_* kind")
        if not grid.uniform:
            raise ValueError(f"kind {kind!r} requires a uniform grid; use ls_cd or ls_theta")
        return lambda spec, u, out, work: _uniform_2d(spec, u, grid, inv_eps, inv_mu, out, work)
    geom = geometry if geometry is not None else StencilGeometry(grid)
    w = weights if weights is not None else geom.cached_weights()
    return lambda spec, u, out, work: _ls_step(spec, u, geom, w, inv_eps, inv_mu, out, work)


def step_1d(spec: SchemeSpec, state: FieldState1, dx: float) -> FieldState1:
    """One step of a uniform-grid scheme on a periodic 1D state."""
    op = _operator(spec.kind, state, dx)
    return FieldState1._of(op(spec, state.u, None, Workspace()), state.eps, state.mu)


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
    op = _operator(spec.kind, state, grid, geometry, weights)
    return FieldState2._of(op(spec, state.u, None, Workspace()), state.eps, state.mu)
