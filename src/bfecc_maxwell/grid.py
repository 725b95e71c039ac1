"""Structured 2D grids with optional point shifting onto embedded curves.

A grid starts as a tensor product of uniformly spaced points.  To make it
conform to a closed curve C (a material interface), every intersection of C
with a grid line pulls the nearest rectangular grid point onto itself.  The
displacement of any point is at most max(dx, dy)/2 and the logical (i, j)
topology is unchanged, so finite-difference stencils keep their index
structure and only their geometry changes.

One rule per axis serves both grid-line families.  A crossing on a grid
line snaps to the nearest node along that line, and on a tie to the node
with the smaller index.  On a periodic axis the node may sit across the
seam from the crossing, and the point then takes the crossing's image
nearest the node.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class GridError(ValueError):
    pass


class _Axis(NamedTuple):
    """One axis of a grid: points origin + k*spacing for k < count, spanning
    extent (the period on a periodic axis)."""

    origin: float
    spacing: float
    count: int
    extent: float


def _cells(n, boundary_kind):
    """Cells spanned by n points: n on a periodic axis, where point n would
    alias point 0, and n - 1 on a bounded one, which holds both ends."""
    if n < 3:
        raise GridError(f"a grid axis needs at least 3 points, got {n}")
    return n if boundary_kind == "periodic" else n - 1


class Intersection(NamedTuple):
    """Curve/grid-line crossing.

    axis "x" means the vertical line x = const at line index `index`;
    axis "y" the horizontal line y = const.
    """

    x: float
    y: float
    axis: str
    index: int


@dataclass
class Grid2:
    """Logically rectangular grid of nx*ny points.

    coords[i, j] holds the physical position of logical point (i, j);
    x varies with i, y with j.  For periodic grids the domain width is
    nx*dx (point nx would alias point 0); bounded grids span (nx-1)*dx.
    Instances are treated as immutable after construction.
    """

    nx: int
    ny: int
    dx: float
    dy: float
    x0: float
    y0: float
    boundary_kind: str
    coords: np.ndarray
    shifted_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.boundary_kind not in ("periodic", "bounded"):
            raise GridError(f"unknown boundary kind {self.boundary_kind!r}")
        self._axes = tuple(_Axis(o, h, n, _cells(n, self.boundary_kind) * h) for o, h, n in
                           ((self.x0, self.dx, self.nx), (self.y0, self.dy, self.ny)))
        for name, ax in zip("xy", self._axes):
            if not (ax.spacing > 0 and math.isfinite(ax.origin + ax.extent)):
                raise GridError(f"the {name} axis needs a positive spacing and finite ends, "
                                f"got {name}0={ax.origin}, d{name}={ax.spacing}")
        if self.coords.shape != (self.nx, self.ny, 2):
            raise GridError(f"coords shape {self.coords.shape} != {(self.nx, self.ny, 2)}")
        if self.shifted_mask is None:
            self.shifted_mask = np.zeros((self.nx, self.ny), dtype=bool)

    width = property(lambda self: self._axes[0].extent)
    height = property(lambda self: self._axes[1].extent)

    def rect_coords(self) -> np.ndarray:
        """Unshifted reference positions (i*dx + x0, j*dy + y0)."""
        x, y = (ax.origin + ax.spacing * np.arange(ax.count) for ax in self._axes)
        out = np.empty((self.nx, self.ny, 2))
        out[:, :, 0] = x[:, None]
        out[:, :, 1] = y[None, :]
        return out

    def is_uniform(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coords - self.rect_coords()) <= tol))

    @functools.cached_property
    def uniform(self) -> bool:
        """is_uniform to 1e-12 * min(dx, dy), computed once per grid."""
        return self.is_uniform(tol=1e-12 * min(self.dx, self.dy))


def build_uniform(nx, ny, domain=((0.0, 1.0), (0.0, 1.0)), boundary_kind="periodic") -> Grid2:
    """Uniform tensor-product grid over the given rectangle.

    Periodic grids place nx points on [x0, x1) with dx = (x1-x0)/nx;
    bounded grids include both endpoints with dx = (x1-x0)/(nx-1).
    """
    (xa, xb), (ya, yb) = domain
    if not (xb > xa and yb > ya):
        raise GridError(f"degenerate domain {domain}")
    dx = (xb - xa) / _cells(nx, boundary_kind)
    dy = (yb - ya) / _cells(ny, boundary_kind)
    g = Grid2(nx, ny, dx, dy, xa, ya, boundary_kind, np.zeros((nx, ny, 2)))
    g.coords[...] = g.rect_coords()
    return g


class ImplicitCurve:
    """Closed curve given by a level set phi = 0 (phi < 0 inside).

    Intersections with grid lines are found by sign-change bracketing on
    consecutive grid nodes followed by bisection; tangential touches that
    produce no sign change are not detected (root bracketing assumption).
    """

    def phi(self, x, y):
        raise NotImplementedError(f"{type(self).__name__} defines no level set phi(x, y)")

    def _set_center(self, cx, cy):
        if not (math.isfinite(cx) and math.isfinite(cy)):
            raise GridError(f"curve center must be finite, got ({cx}, {cy})")
        self.cx, self.cy = float(cx), float(cy)

    @np.errstate(over="ignore")  # phi and its products may overflow; only signs are used
    def intersections_on_line(self, axis, value, nodes, tol):
        """Ordered curve crossings on the segment [nodes[0], nodes[-1]].

        axis "x": the vertical line x = value, nodes are y coordinates
        (and vice versa).  Returns a list of coordinates along the line.
        """
        if axis == "x":
            f = lambda s: self.phi(value, s)
        else:
            f = lambda s: self.phi(s, value)
        roots = []
        fa = f(nodes[0])
        for a, b in zip(nodes[:-1], nodes[1:]):
            fb = f(b)
            if fa == 0.0:
                roots.append(a)
            elif fa * fb < 0.0:
                lo, hi, flo = a, b, fa
                while hi - lo > tol:
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:  # float spacing reached before tol
                        break
                    fm = f(mid)
                    if fm == 0.0:
                        lo = hi = mid
                        break
                    if flo * fm < 0.0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                roots.append(0.5 * (lo + hi))
            fa = fb
        if fa == 0.0:
            roots.append(nodes[-1])
        return roots


class Circle(ImplicitCurve):
    """Circle of radius r about (cx, cy); intersections are closed-form."""

    def __init__(self, cx, cy, r):
        if not 0 < r < math.inf:
            raise GridError(f"circle radius must be positive and finite, got {r}")
        self._set_center(cx, cy)
        self.r = float(r)

    def phi(self, x, y):
        return np.hypot(np.asarray(x) - self.cx, np.asarray(y) - self.cy) - self.r

    def intersections_on_line(self, axis, value, nodes, tol):
        c_perp = self.cx if axis == "x" else self.cy
        c_along = self.cy if axis == "x" else self.cx
        try:
            disc = self.r * self.r - (value - c_perp) ** 2
        except OverflowError:
            disc = math.nan
        if not disc < math.inf:  # a square left the float range: bracket phi's roots instead
            return super().intersections_on_line(axis, value, nodes, tol)
        if disc < 0.0:
            return []
        half = math.sqrt(disc)
        roots = [c_along - half, c_along + half] if half > tol else [c_along]
        lo, hi = nodes[0], nodes[-1]
        return [s for s in roots if lo - tol <= s <= hi + tol]


class StarCurve(ImplicitCurve):
    """Star-shaped curve r(theta) = r0 * (1 + ripple*cos(lobes*theta))."""

    def __init__(self, cx, cy, r0=0.24, ripple=0.25, lobes=5):
        if not (0 <= ripple < 1):
            raise GridError(f"ripple must lie in [0, 1), got {ripple}")
        if not 0 < r0 * (1.0 + ripple) < math.inf:
            raise GridError(f"star radius r0 must be positive and r0*(1 + ripple) finite, "
                            f"got {r0}")
        # compared with the bound before `% 1`, which would be nan for inf
        if not (1 <= lobes <= sys.float_info.max / math.pi and lobes % 1 == 0):
            raise GridError(f"a star needs a whole number of lobes, at least 1 and with "
                            f"lobes*pi finite, got {lobes}")
        self._set_center(cx, cy)
        self.r0, self.ripple, self.lobes = float(r0), float(ripple), int(lobes)

    def phi(self, x, y):
        px = np.asarray(x) - self.cx
        py = np.asarray(y) - self.cy
        r = np.hypot(px, py)
        theta = np.arctan2(py, px)
        return r - self.r0 * (1.0 + self.ripple * np.cos(self.lobes * theta))


def curve_grid_intersections(grid: Grid2, curve: ImplicitCurve) -> list[Intersection]:
    """All crossings of the curve with the rectangular reference grid lines.

    Deterministic order: vertical lines by ascending i (crossings sorted by
    y), then horizontal lines by ascending j (sorted by x).  Root tolerance
    is 1e-14 * min(dx, dy).
    """
    tol = 1e-14 * min(grid.dx, grid.dy)
    periodic = grid.boundary_kind == "periodic"
    out: list[Intersection] = []
    x_axis, y_axis = grid._axes
    for axis, line, along in (("x", x_axis, y_axis), ("y", y_axis, x_axis)):
        # a periodic line also gets its wrap node, so seam-crossing roots are bracketed
        nodes = along.origin + along.spacing * np.arange(along.count + periodic)
        for index in range(line.count):
            value = line.origin + index * line.spacing
            for s in sorted(curve.intersections_on_line(axis, value, nodes, tol)):
                out.append(Intersection(*((value, s) if axis == "x" else (s, value)), axis, index))
    return out


def _nearest_index_along(coord, axis: _Axis, periodic):
    """Index of the node nearest `coord` on one axis, picked as the least
    (distance, index), so on a tie the smaller index wins.  The two nodes
    either side of `coord` are the candidates; their indices wrap on a
    periodic axis and clamp on a bounded one."""
    origin, spacing, n, _ = axis
    lo = math.floor((coord - origin) / spacing)
    best = None
    for k in (lo, lo + 1):
        near = (abs(coord - (origin + k * spacing)), k % n if periodic else min(max(k, 0), n - 1))
        if best is None or near < best:
            best = near
    return best[1]


def point_shift(grid: Grid2, curve: ImplicitCurve) -> Grid2:
    """Move, for each curve/grid-line intersection, the nearest rectangular
    grid point onto that intersection.

    The node is the nearest one on the crossing's grid line, against the
    rectangular reference positions; on a tie the smaller index along the
    line wins.  On a periodic grid the point takes the crossing's image
    nearest the node, which may sit across the seam.  Later intersections
    overwrite earlier ones at the same node.  Displacements never exceed
    max(dx, dy)/2 and the grid topology is unchanged.  Re-applying to an
    already shifted grid reproduces the same result because intersections
    are always computed on the reference lines.
    """
    crossings = curve_grid_intersections(grid, curve)
    periodic = grid.boundary_kind == "periodic"
    coords = grid.rect_coords()
    mask = np.zeros((grid.nx, grid.ny), dtype=bool)
    for p in crossings:
        a = 1 if p.axis == "x" else 0  # p[a] is the coordinate along the crossing's line
        along, s = grid._axes[a], p[a]
        k = _nearest_index_along(s, along, periodic)
        if periodic:
            s -= round((s - along.origin - k * along.spacing) / along.extent) * along.extent
        node = (p.index, k) if a else (k, p.index)
        coords[node] = (p.x, s) if a else (s, p.y)
        mask[node] = True
    return Grid2(grid.nx, grid.ny, grid.dx, grid.dy, grid.x0, grid.y0,
                 grid.boundary_kind, coords, mask)


def smooth_shift(grid_shifted: Grid2, grid_rect: Grid2, iterations: int = 1) -> Grid2:
    """Spread the point-shift deformation to unshifted neighbors.

    d = shifted - rect; every point that is not on the curve gets the
    4-neighbor average of the current deformation (Jacobi sweep, repeated
    `iterations` times); points on the curve keep their position.  On
    bounded grids missing neighbors contribute zero deformation.
    """
    if grid_shifted.coords.shape != grid_rect.coords.shape:
        raise GridError("shifted and rectangular grids have different shapes")
    d = grid_shifted.coords - grid_rect.coords
    on_curve = grid_shifted.shifted_mask
    mode = "wrap" if grid_shifted.boundary_kind == "periodic" else "constant"
    for _ in range(iterations):
        p = np.pad(d, ((1, 1), (1, 1), (0, 0)), mode=mode)
        avg = 0.25 * (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:])
        d = np.where(on_curve[:, :, None], d, avg)
    return Grid2(grid_shifted.nx, grid_shifted.ny, grid_shifted.dx, grid_shifted.dy,
                 grid_shifted.x0, grid_shifted.y0, grid_shifted.boundary_kind,
                 grid_rect.rect_coords() + d, on_curve.copy())


# Stencil slots: center, west (i-1), east (i+1), south (j-1), north (j+1).
STENCIL_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


def dump_grid(grid: Grid2, f) -> None:
    """Write the grid point list: one line per point, `i,j,x,y,shifted`,
    row-major in (i, j), floats with 17 significant digits."""
    close = False
    if isinstance(f, (str, bytes)):
        f = open(f, "w")
        close = True
    try:
        for i in range(grid.nx):
            for j in range(grid.ny):
                x, y = grid.coords[i, j]
                f.write(f"{i},{j},{x:.17g},{y:.17g},{int(grid.shifted_mask[i, j])}\n")
    finally:
        if close:
            f.close()
