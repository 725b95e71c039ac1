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

A step is bound as a program: a tuple of (function, args) entries, every
output passed positionally, which `run_program` runs as f(*args) in order.
`_operator` checks a (spec, state, grid) combination once and returns the
one-step operator as a binder: bind(sdt, u, out) makes every view of the
contiguous stacks u and out and of the scratch arrays (from a `Workspace`)
once and returns the program that writes the step of signed size sdt of u
into out.  What the program would test at every step (free space or
materials, a zero blend weight, the collar's staging) is decided there, so
the program is only the step's numpy calls.  step_2d (or step_1d) binds
one to a fresh array and runs it once with dt; a bfecc.BfeccStep composes
the programs of its three substeps, with dt, -dt and dt, into one program
per run when it steps in place.

One 2D kernel, `_kernel_2d`, serves all five kinds.  A least-squares fit
on an unmoved five-point cross is exactly the center blend and the
centered differences, so the ls_* kinds run the slice kernels over the
whole field and correct only the irregular stencils, those with a point
off its rectangular position: their fit weights less the cross act on
their gathered values, and the results go into the blend and the raw
differences before these are scaled, where the collar (pml) acts too.
On a bounded grid, whose held outer ring gets its input values back, the
kernel's passes leave out the periodic wrap (`_kernel_2d`).

All schemes are one-step and linear; the backward step is the forward one
with -dt (the averaging terms are part of the spatial operator and keep
their sign).  An operator never writes into its input stack.

A scale factor is folded into another only where the product is exact:
the centered differences' 0.5 and the average's 0.5 or 0.25 ride in the
factor (lam, theta, 2 h) that the same values are multiplied or divided
by anyway.  A power of two only moves an exponent, so every rounding
stays where it was and the results are the same bits.  Material and
collar factors are never folded (their products round).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid2, STENCIL_OFFSETS
from .lsq import batched_fit_weights

UNIFORM_KINDS = ("cd", "lf", "theta")
LS_KINDS = ("ls_cd", "ls_theta")
SCHEME_KINDS = UNIFORM_KINDS + LS_KINDS


def _zeros(shape):
    """A zeroed float64 array of `shape` whose data start on a 64-byte
    boundary: a view into a buffer up to 7 elements longer.  Every array a
    step program streams comes from here.  Under AVX-512 loops a ufunc
    whose output starts elsewhere costs about twice as much (a 256^2
    subtract 35-44 against 17-22 us), and a fresh allocation starts 16
    bytes into a line.  Buffers of one size get one offset mod 4096, so
    the stacks of a run keep equal offsets there too."""
    n = math.prod(shape)
    raw = np.zeros(n + 7)
    k = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[k:k + n].reshape(shape)


def _check_material(arr, shape, name):
    if arr is None:
        return None
    arr = np.asarray(arr, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} shape {arr.shape} does not match fields {shape}")
    if not np.all((arr > 0) & (arr < np.inf)):
        raise ValueError(f"{name} must be positive and finite everywhere")
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
        self.u = _zeros((2,) + E.shape)
        self.u[0], self.u[1] = E, H
        self.eps = _check_material(eps, E.shape, "eps")
        self.mu = _check_material(mu, E.shape, "mu")

    E = property(lambda self: self.u[0])
    H = property(lambda self: self.u[1])


class FieldState2(_State):
    """TMz fields on a 2D grid, stacked as u = (Hx, Hy, Ez), shape
    (3, nx, ny), indexed [c, i, j] ~ (x_i, y_j)."""

    __slots__ = ()

    def __init__(self, Hx, Hy, Ez, eps=None, mu=None):
        fields = [np.asarray(f, dtype=float) for f in (Hx, Hy, Ez)]
        if not fields[0].shape == fields[1].shape == fields[2].shape or fields[0].ndim != 2:
            raise ValueError("Hx, Hy, Ez must be 2D arrays of one shape")
        self.u = _zeros((3,) + fields[0].shape)
        self.u[0], self.u[1], self.u[2] = fields
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
    substeps and kernels allocate nothing but a fresh step's output.  The
    bindings hold views of these arrays, so a name keeps its shape.  An
    array starts at zero, so what a kernel leaves unwritten is finite, and
    on a 64-byte boundary (`_zeros`), where a ufunc writes it at full
    speed.
    """

    def __init__(self):
        self._arrays = {}

    def __call__(self, name, shape):
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape:
            arr = self._arrays[name] = _zeros(shape)
        return arr


@dataclass(frozen=True)
class SchemeSpec:
    """Underlying-scheme selector: kind, time step dt > 0 and theta.  The
    operators take the step's sign at each call, so one spec serves the
    forward (dt) and backward (-dt) substeps of the wrapper."""

    kind: str
    dt: float
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}; expected one of {SCHEME_KINDS}")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")


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


def run_program(program):
    """Run a program: each entry's function on its arguments, in order."""
    for f, args in program:
        f(*args)


def _scalar(x):
    """x as a 0-d float array: a ufunc takes one at less cost per call than
    a Python float (about 0.2 us), with the same value, so the same bits."""
    return np.array(x, dtype=float)


def _dc(f, axis, out, wrap=True):
    """The program entries (np.subtract, (a, b, o)) that write the raw
    difference f[i+1] - f[i-1] along `axis`, periodic, into `out`.  The
    centered difference's 0.5 is left to the callers, which fold it into
    the factor they multiply or divide by anyway; that is exact, since
    halving a factor only changes its exponent.

    Along the last axis the differences run over whole rows merged end to
    end, one contiguous pass, in which only the first and last column
    pick up values from the neighboring row; those two columns are then
    rewritten.  (numpy iterates a row-by-row slice through buffers, at
    about twice the cost.)  That pass writes from out[..., 1], 8 bytes
    past a plane's start, so it is split: a head of the h <= 7 elements
    before the next 64-byte boundary, taken from out's own address (none
    when out[..., 1] sits on one), then the body, whose output starts
    there, at about half the cost.  Every element gets the same subtract,
    so the bits do not change.  Without
    `wrap` (a bounded grid) only head and body run: the first and last
    index along `axis` are not redone.
    """
    merged = (_rows(f), _rows(out)) if axis == f.ndim - 1 else (None, None)
    if merged[0] is not None and merged[1] is not None:
        g, o = merged
        h = min(-o[..., 1:].__array_interface__["data"][0] % 64 // 8, o.shape[-1] - 2)
        views = ((g[..., 2:2 + h], g[..., :h], o[..., 1:1 + h]),
                 (g[..., 2 + h:], g[..., h:-2], o[..., 1 + h:-1]),
                 (f[..., 1], f[..., -1], out[..., 0]),
                 (f[..., 0], f[..., -2], out[..., -1]))
    else:
        g, o = f.swapaxes(0, axis), out.swapaxes(0, axis)
        views = (g[2:], g[:-2], o[1:-1]), (g[1:2], g[-1:], o[:1]), (g[:1], g[-2:-1], o[-1:])
    return tuple((np.subtract, v) for v in (views if wrap else views[:-2]))


def _center_blend(theta_eff, f, out, spare, wrap=True):
    """The program that writes (1 - theta)*f + theta*(neighbor average over
    the spatial axes), periodic, into `out`.

    f is a contiguous stack of fields, spatial axes 1 onward; the blend
    goes into `out` (contiguous too), with `spare` (f's shape) as scratch,
    for theta > 0 (at 0 the callers take f itself).  The neighbor sum runs
    axis by axis in a fixed order, f[i-1] + f[i+1], then + f[j-1], then +
    f[j+1], which fixes its rounding; the j neighbors are added over
    merged rows, as in `_dc`, with the two wrapped columns redone from
    their sums saved in `spare`, which is free until the (1 - theta)*f
    term.  The average's 0.5 or 0.25 and theta are one factor: the quarter
    is exact, so fl(fl(0.25 s) theta) = fl(s fl(0.25 theta)).  Without
    `wrap` (a bounded grid) the first and last row and column are not
    redone.
    """
    add, multiply, copyto = np.add, np.multiply, np.copyto
    g, a = f.swapaxes(0, 1), out.swapaxes(0, 1)
    program = [(add, (g[:-2], g[2:], a[1:-1]))]
    if wrap:
        program += [(add, (g[-1:], g[1:2], a[:1])), (add, (g[-2:-1], g[:1], a[-1:]))]
    if f.ndim == 3:
        fr, ar = _rows(f), _rows(out)
        first, last = spare.reshape(-1)[:2 * f[..., 0].size].reshape((2,) + f.shape[:2])
        # save the wrapped column's sum, add the neighbors over merged rows,
        # then redo the column from its sum and its true neighbor; the j-1
        # and then the j+1 neighbors
        for saved, column, rows, neighbors, wrapped in (
                (first, out[..., 0], ar[..., 1:], fr[..., :-1], f[..., -1]),
                (last, out[..., -1], ar[..., :-1], fr[..., 1:], f[..., 0])):
            merged = (add, (rows, neighbors, rows))
            program += ([(copyto, (saved, column)), merged, (add, (saved, wrapped, column))]
                        if wrap else [merged])
    program.append((multiply, (out, _scalar(0.5 / (f.ndim - 1) * theta_eff), out)))
    own = 1.0 - theta_eff
    if own != 0.0:
        program += [(multiply, (f, _scalar(own), spare)), (add, (out, spare, out))]
    return tuple(program)


def _scaled(a, factor, inv, coef, out):
    """The entries that write `a` times `factor` into `out`, or, with a
    reciprocal material plane `inv`, `a` times the plane fl(inv factor),
    formed in `coef`."""
    factor = _scalar(factor)
    if inv is None:
        return ((np.multiply, (a, factor, out)),)
    return (np.multiply, (inv, factor, coef)), (np.multiply, (a, coef, out))


def _reciprocal(material):
    """The plane fl(1 / material), or None for free space."""
    return None if material is None else np.divide(1.0, material, out=_zeros(material.shape))


def _theta_eff(kind, theta):
    """Weight of the neighbor average in a uniform-grid kind's center term."""
    if kind not in UNIFORM_KINDS:
        raise ValueError(f"kind must be one of the uniform-grid kinds {UNIFORM_KINDS}, got {kind!r}")
    theta = float(theta)
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    return {"cd": 0.0, "lf": 1.0, "theta": theta}[kind]


def _bind_1d(dx, th, inv, n, work):
    """The binder bind(sdt, u, out) of E' = blend(E) + lam/eps dH,
    H' = blend(H) + lam/mu dE on stacks u = (E, H) of length n, lam =
    sdt / dx, with neighbor-average weight th in the blend and inv =
    (1/eps, 1/mu) (None for free space); bind returns the program that
    writes the step of u into out.

    The scratch arrays and their views are taken from `work` here, once,
    and the views of u and out where bind is called.  The raw differences
    run over both rows merged end to end, as in `_dc`, into rows 0-1 of a
    (3, n) array; its two wrapped columns are then rewritten and its row 2
    takes a copy of dE, so that rows 1-2 are the swapped stack (dH, dE),
    contiguous.  One multiply of it by 0.5 lam, or with materials by the
    plane fl(inv 0.5 lam), gives both components.  (Through a
    reversed-row view numpy would buffer that multiply, which allocates up
    to a state's worth per call and is no faster.)  A nonzero blend runs
    first, with `out` as its scratch, which that multiply then overwrites,
    as in `_kernel_2d`.
    """
    d = work("d", (3, n))
    d_rows, d_first, d_last = d.reshape(-1)[1:2 * n - 1], d[:2, 0], d[:2, -1]
    swapped, de, de_copy = d[1:], d[0], d[2]
    coef = None if inv is None else work("coef", inv.shape)
    blend = None if th == 0.0 else work("blend", (2, n))
    subtract = np.subtract

    def bind(sdt, u, out):
        g = u.reshape(-1)
        mix = () if blend is None else _center_blend(th, u, blend, out)
        return (*mix, (subtract, (g[2:], g[:-2], d_rows)),
                (subtract, (u[:, 1], u[:, -1], d_first)),
                (subtract, (u[:, 0], u[:, -2], d_last)), (np.copyto, (de_copy, de)),
                *_scaled(swapped, 0.5 * (sdt / dx), inv, coef, out),
                (np.add, (out, u if blend is None else blend, out)))

    return bind


def _kernel_2d(grid, th, inv_eps, inv_mu, work, sdt, u, out, hook=None, ring=()):
    """The program that writes the TMz update of the stack u = (Hx, Hy, Ez)
    with signed step sdt into `out`.  Every view of u, out and the scratch
    arrays is made here, once.

    The update finishes one component at a time so that each stays in
    cache on large grids; dHx/dy passes through the Hx plane before that
    plane's own update.  lx and ly carry the centered differences' 0.5.
    `hook`, given the planes k = 0-4 that the update passes through, the
    center blend (k = 0) and the raw differences d/dx Hy, d/dy Hx, d/dy Ez
    and d/dx Ez (k = 1-4), gives five tuples of program entries, the ones
    for plane k run after that plane is formed and before it is scaled;
    plane 0's are left out at th = 0, where the blend is u.  `out`, never
    u, is the blend's scratch until the first difference.

    The points `ring`, a bounded grid's held outer ring, get their input
    values back at the end, so there the passes skip the periodic wrap.
    What the ring of a plane then holds must still be finite, whatever
    `out` held, since the collar's c * g (c = 0 there) reads it.  No pass
    writes rows 0 and nx - 1 of a difference along x (nor two corners
    along y), so these rows are first copied from u, unless the blend's
    (1 - th) u term writes all of `out` first; the blend's own ring, in
    a Workspace array, starts at zero and reaches only the output's ring.
    """
    hx, hy, ez = out
    wrap = not ring
    blend, mix = u, ()
    if th != 0.0:
        blend = work("blend", u.shape)
        mix = _center_blend(th, u, blend, out, wrap)
    b_hx, b_hy, b_ez = blend
    rows = np.s_[:, ::u.shape[1] - 1]
    guard = () if wrap or (mix and th != 1.0) else ((np.copyto, (out[rows], u[rows])),)
    coef = None if inv_mu is None else work("coef", inv_mu.shape)
    fixes = ((),) * 5 if hook is None else hook((blend, ez, hx, hx, hy))
    lx = _scalar(0.5 * (sdt / grid.dx))
    ly = _scalar(0.5 * (sdt / grid.dy))
    add, subtract, multiply = np.add, np.subtract, np.multiply
    return (*guard, *mix, *(fixes[0] if mix else ()),
            *_dc(u[1], 0, ez, wrap), *fixes[1], (multiply, (ez, lx, ez)),
            *_dc(u[0], 1, hx, wrap), *fixes[2], (multiply, (hx, ly, hx)), (subtract, (ez, hx, ez)),
            *(() if inv_eps is None else ((multiply, (ez, inv_eps, ez)),)), (add, (ez, b_ez, ez)),
            *_dc(u[2], 1, hx, wrap), *fixes[3], *_scaled(hx, ly, inv_mu, coef, hx),
            (subtract, (b_hx, hx, hx)),
            *_dc(u[2], 0, hy, wrap), *fixes[4], *_scaled(hy, lx, inv_mu, coef, hy),
            (add, (hy, b_hy, hy)),
            *((np.copyto, (out[points], u[points])) for points in ring))


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
    `irregular_index` (5, r) holds their rows of `index`, transposed.  Every
    other stencil is the uniform cross, whose fit is the theta = 0.8 center
    blend and the centered differences, so `cached_weights()` factors only
    the irregular stencils, (r, 3, 5) in `irregular` order;
    `irregular_center` (3, r) holds the flat indices of their centers in a
    contiguous (Hx, Hy, Ez) stack, where their corrections go.
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
        self.irregular_index = np.ascontiguousarray(self.index[self.irregular].T)
        self.irregular_center = self.irregular_index[0] + np.arange(3)[:, None] * (nx * ny)
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


def _correction_weights(grid: Grid2, weights, center):
    """The (r, 3, 5) fit weights of irregular stencils less the uniform
    cross that _kernel_2d applies, in its units: the d/dx and d/dy rows
    times 2 dx and 2 dy, the center row less the blend of neighbor weight
    `center`.  Laid out (3, 5, r) in memory, so that _ls_fit_all's
    contraction runs along r, at a fraction of the cost along the 5 points."""
    di, dj = np.array(STENCIL_OFFSETS, dtype=float).T
    cross = np.stack((np.where((di == 0) & (dj == 0), 1.0 - center, 0.25 * center), di, dj))
    dw = weights * np.array([[1.0], [2.0 * grid.dx], [2.0 * grid.dy]]) - cross
    return np.ascontiguousarray(dw.transpose(1, 2, 0)).transpose(2, 0, 1)


# the rows of a correction that _kernel_2d's planes take: the center row, all
# three fields, for the blend k = 0, then (row, field) for the raw differences
# k = 1-4, d/dx Hy, d/dy Hx, d/dy Ez, d/dx Ez; d/dx and d/dy are the last rows
_PLANE_ROWS = (0, (-2, 1), (-1, 0), (-1, 2), (-2, 2))


def _ls_fit_all(rows, weights, flat, gather, refit):
    """The irregular stencils' corrections from the stack whose (3, nx*ny)
    view is `flat`: its values at the stencils' points `rows` (5, r),
    gathered into `gather`, and `weights`, the block from
    _correction_weights (its center row dropped for a zero blend weight),
    applied to them in one contraction into `refit`, (rows of weights, 3,
    r).  `_ls_binding` gives the arguments."""
    flat.take(rows, axis=1, mode="clip", out=gather)
    return np.einsum("rks,fsr->kfr", weights, gather, out=refit)


def _ls_binding(geom: StencilGeometry, weights, center, work, u, extra=None):
    """(args, hook) of the irregular stencils' corrections on the stack u,
    bound once: _ls_fit_all(*args) computes them, and hook, _kernel_2d's
    plane hook, gives the entries that add them at their centers, with the
    flat views of the planes made where it is called.  Its rows are
    (center, d/dx, d/dy), the center row only for a nonzero blend weight
    `center` (a zero weight leaves the point values as base).  The
    centers are distinct, so np.add.at gives the bits of an indexed +=;
    it takes flat indices and values, at which it is the faster of the
    two (with a (3, r) index it is slower).  `extra`, a plane hook too,
    gives entries that run after each plane's corrections."""
    rows, at = geom.irregular_index, geom.irregular_center
    w = weights if center else weights[:, 1:]
    gather = work("gather", (3,) + rows.shape)
    refit = work("refit", (w.shape[1], 3, rows.shape[1]))

    def hook(planes):
        fixes = tuple(() if k == 0 and not center else
                      ((np.add.at, (plane.reshape(-1), (at if k == 0 else at[0]).reshape(-1),
                                    refit[_PLANE_ROWS[k]].reshape(-1))),)
                      for k, plane in enumerate(planes))
        return fixes if extra is None else tuple(f + e for f, e in zip(fixes, extra(planes)))

    return (rows, w, u.reshape(3, -1), gather, refit), hook


def _check_state(state, where):
    """Check that `state` steps on `where`: a FieldState1 on a spacing dx, a
    FieldState2 on a Grid2 of its shape."""
    if not isinstance(state, FieldState2 if isinstance(where, Grid2) else FieldState1):
        raise TypeError(f"unsupported state type {type(state).__name__} on {type(where).__name__}")
    if isinstance(where, Grid2) and state.shape != (where.nx, where.ny):
        raise ValueError(f"state shape {state.shape} does not match grid {(where.nx, where.ny)}")


def _checked_geometry(geometry: StencilGeometry, grid: Grid2) -> StencilGeometry:
    """`geometry`, if it was built for `grid` itself or for a grid equal to
    it: of the same size, boundary kind, origin, spacings and point
    coordinates.  Any other is a one-line ValueError, since its stencil
    indices would gather from the wrong points (clipped, not failing)."""
    g = geometry.grid
    if g is grid or ((g.nx, g.ny, g.boundary_kind, g.x0, g.y0, g.dx, g.dy)
                     == (grid.nx, grid.ny, grid.boundary_kind, grid.x0, grid.y0, grid.dx, grid.dy)
                     and np.array_equal(g.coords, grid.coords)):
        return geometry
    raise ValueError(f"the stencil geometry was built for another grid ({g.nx} x {g.ny} "
                     f"{g.boundary_kind}) than the {grid.nx} x {grid.ny} {grid.boundary_kind} "
                     f"grid stepped")


def _checked_weights(weights, geom: StencilGeometry):
    """`weights`, the geometry's cached weights when None; any shape but
    the (len(geom.irregular), 3, 5) of its irregular stencils' fit weights
    is a one-line ValueError."""
    if weights is None:
        return geom.cached_weights()
    want = (len(geom.irregular), 3, 5)
    if np.shape(weights) != want:
        raise ValueError(f"weights shape {np.shape(weights)} does not match the {want} of "
                         f"the geometry's irregular stencils")
    return weights


def _operator(spec, state, where, geometry=None, weights=None, work=None, fit=None):
    """The one-step operator of `spec` for states like `state`, checked and
    bound once, as a binder.

    `where` is the spacing dx of a FieldState1 or the Grid2 of a
    FieldState2.  Returns bind(sdt, u, out), which binds the operator's
    step of signed size sdt to the contiguous stacks u and out, making
    every view of them once, and returns its program: the step of u,
    written into out.  What stays fixed from binding to binding is bound
    here, once per operator: the center weight, the materials' reciprocal
    planes, the Workspace `work` the scratch arrays come from (a fresh one
    when None), in 1D those arrays and their views too, and for
    least-squares kinds the geometry and correction weights: a missing
    `geometry` is built, a given one must fit the grid
    (`_checked_geometry`), and `weights` come from the geometry's cache
    when missing and must fit it when given (`_checked_weights`).  A
    least-squares binder also takes `extra`, a plane hook as _kernel_2d's
    (pml's collar), whose entries run after each plane's irregular-row
    corrections; its program's first entry, `fit` (_ls_fit_all when None;
    pml passes its own name of it), computes those corrections.
    """
    kind = spec.kind
    _check_state(state, where)
    if isinstance(state, FieldState1):
        if kind not in UNIFORM_KINDS:
            raise ValueError("least-squares kinds are 2D schemes; use step_2d")
        if not where > 0:
            raise ValueError(f"dx must be positive, got {where}")
    else:
        grid: Grid2 = where
        if kind in UNIFORM_KINDS and grid.boundary_kind != "periodic":
            raise ValueError(f"kind {kind!r} needs a periodic grid; bounded grids need a ls_* kind")
        if kind in UNIFORM_KINDS and not grid.uniform:
            raise ValueError(f"kind {kind!r} requires a uniform grid; use ls_cd or ls_theta")
    if work is None:
        work = Workspace()
    inv_eps, inv_mu = _reciprocal(state.eps), _reciprocal(state.mu)
    if kind in UNIFORM_KINDS:
        th = _theta_eff(kind, spec.theta)
        if isinstance(state, FieldState1):
            n = state.u.shape[1]
            inv = None if inv_eps is None and inv_mu is None else np.stack(
                [np.ones(n) if r is None else r for r in (inv_eps, inv_mu)], out=_zeros((2, n)))
            return _bind_1d(where, th, inv, n, work)
        return lambda sdt, u, out: _kernel_2d(where, th, inv_eps, inv_mu, work, sdt, u, out)
    geom = StencilGeometry(grid) if geometry is None else _checked_geometry(geometry, grid)
    th = LS_CENTER[kind]
    dw = _correction_weights(grid, _checked_weights(weights, geom), th)
    fit = _ls_fit_all if fit is None else fit

    def bind(sdt, u, out, extra=None):
        args, hook = _ls_binding(geom, dw, th, work, u, extra)
        return ((fit, args),) + _kernel_2d(grid, th, inv_eps, inv_mu, work, sdt, u, out, hook,
                                           geom.ring)

    return bind


def step_2d(spec: SchemeSpec, state, where, geometry: Optional[StencilGeometry] = None,
            weights=None):
    """One step of the selected scheme, into a fresh array, of a
    FieldState1 on the spacing `where` or a FieldState2 on the Grid2
    `where`.  Kinds cd/lf/theta require a uniform periodic grid in 2D;
    ls_cd/ls_theta work on any Grid2 through local least-squares fits.
    Passing `geometry` (and optionally `weights`, the (r, 3, 5) block of
    its irregular stencils) reuses precomputed stencil data; without
    `weights` the geometry's cached weights are used, so the factorization
    runs once per geometry.
    """
    out = _zeros(state.u.shape)
    run_program(_operator(spec, state, where, geometry, weights)(spec.dt, state.u, out))
    return type(state)._of(out, state.eps, state.mu)


step_1d = step_2d
