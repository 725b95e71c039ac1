"""Structured 2D grids with optional point shifting onto embedded curves.

A grid starts as a tensor product of uniformly spaced points.  To make it
conform to a closed curve C (a material interface), every intersection of C
with a grid line pulls the nearest rectangular grid point onto itself.  The
displacement of any point is at most max(dx, dy)/2 and the logical (i, j)
topology is unchanged, so finite-difference stencils keep their index
structure and only their geometry changes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class GridError(ValueError):
    pass


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
        if self.nx < 3 or self.ny < 3:
            raise GridError(f"grid needs at least 3x3 points, got {self.nx}x{self.ny}")
        if self.dx <= 0 or self.dy <= 0:
            raise GridError(f"grid spacings must be positive, got dx={self.dx}, dy={self.dy}")
        if self.boundary_kind not in ("periodic", "bounded"):
            raise GridError(f"unknown boundary kind {self.boundary_kind!r}")
        if self.coords.shape != (self.nx, self.ny, 2):
            raise GridError(f"coords shape {self.coords.shape} != {(self.nx, self.ny, 2)}")
        if self.shifted_mask is None:
            self.shifted_mask = np.zeros((self.nx, self.ny), dtype=bool)

    @property
    def width(self) -> float:
        n = self.nx if self.boundary_kind == "periodic" else self.nx - 1
        return n * self.dx

    @property
    def height(self) -> float:
        n = self.ny if self.boundary_kind == "periodic" else self.ny - 1
        return n * self.dy

    def rect_coords(self) -> np.ndarray:
        """Unshifted reference positions (i*dx + x0, j*dy + y0)."""
        x = self.x0 + self.dx * np.arange(self.nx)
        y = self.y0 + self.dy * np.arange(self.ny)
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
    if boundary_kind == "periodic":
        dx = (xb - xa) / nx
        dy = (yb - ya) / ny
    elif boundary_kind == "bounded":
        dx = (xb - xa) / (nx - 1)
        dy = (yb - ya) / (ny - 1)
    else:
        raise GridError(f"unknown boundary kind {boundary_kind!r}")
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
        raise NotImplementedError

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
        if not r > 0:
            raise GridError(f"circle radius must be positive, got {r}")
        self.cx, self.cy, self.r = float(cx), float(cy), float(r)

    def phi(self, x, y):
        return np.hypot(np.asarray(x) - self.cx, np.asarray(y) - self.cy) - self.r

    def intersections_on_line(self, axis, value, nodes, tol):
        c_perp = self.cx if axis == "x" else self.cy
        c_along = self.cy if axis == "x" else self.cx
        disc = self.r * self.r - (value - c_perp) ** 2
        if disc < 0.0:
            return []
        half = math.sqrt(disc)
        roots = [c_along - half, c_along + half] if half > tol else [c_along]
        lo, hi = nodes[0], nodes[-1]
        return [s for s in roots if lo - tol <= s <= hi + tol]


class StarCurve(ImplicitCurve):
    """Star-shaped curve r(theta) = r0 * (1 + ripple*cos(lobes*theta))."""

    def __init__(self, cx, cy, r0=0.24, ripple=0.25, lobes=5):
        if not r0 > 0:
            raise GridError(f"star radius r0 must be positive, got {r0}")
        if not (0 <= ripple < 1):
            raise GridError(f"ripple must lie in [0, 1), got {ripple}")
        self.cx, self.cy = float(cx), float(cy)
        self.r0, self.ripple, self.lobes = float(r0), float(ripple), int(lobes)

    def phi(self, x, y):
        px = np.asarray(x) - self.cx
        py = np.asarray(y) - self.cy
        r = np.hypot(px, py)
        theta = np.arctan2(py, px)
        return r - self.r0 * (1.0 + self.ripple * np.cos(self.lobes * theta))


def _line_nodes(grid: Grid2, axis: str):
    """Reference node coordinates along a grid line, with the wrap segment
    appended on periodic grids so seam-crossing roots are bracketed."""
    if axis == "x":
        nodes = grid.y0 + grid.dy * np.arange(grid.ny)
        if grid.boundary_kind == "periodic":
            nodes = np.append(nodes, grid.y0 + grid.height)
    else:
        nodes = grid.x0 + grid.dx * np.arange(grid.nx)
        if grid.boundary_kind == "periodic":
            nodes = np.append(nodes, grid.x0 + grid.width)
    return nodes


def curve_grid_intersections(grid: Grid2, curve: ImplicitCurve) -> list[Intersection]:
    """All crossings of the curve with the rectangular reference grid lines.

    Deterministic order: vertical lines by ascending i (crossings sorted by
    y), then horizontal lines by ascending j (sorted by x).  Root tolerance
    is 1e-14 * min(dx, dy).
    """
    tol = 1e-14 * min(grid.dx, grid.dy)
    out: list[Intersection] = []
    ynodes = _line_nodes(grid, "x")
    for i in range(grid.nx):
        xline = grid.x0 + i * grid.dx
        for s in sorted(curve.intersections_on_line("x", xline, ynodes, tol)):
            out.append(Intersection(xline, s, "x", i))
    xnodes = _line_nodes(grid, "y")
    for j in range(grid.ny):
        yline = grid.y0 + j * grid.dy
        for s in sorted(curve.intersections_on_line("y", yline, xnodes, tol)):
            out.append(Intersection(s, yline, "y", j))
    return out


def _nearest_index_along(coord, origin, spacing, n, periodic):
    """Nearest grid index to `coord` on a 1D axis, lexicographic tie-break.

    Returns (index, distance).  On ties the smaller stored index wins.
    """
    t = (coord - origin) / spacing
    lo = math.floor(t)
    best = None
    for cand in (lo, lo + 1):
        if periodic:
            idx = cand % n
        else:
            idx = min(max(cand, 0), n - 1)
        dist = abs(coord - (origin + cand * spacing)) if periodic else abs(coord - (origin + idx * spacing))
        if best is None or dist < best[1] or (dist == best[1] and idx < best[0]):
            best = (idx, dist)
    return best


def point_shift(grid: Grid2, curve: ImplicitCurve) -> Grid2:
    """Move, for each curve/grid-line intersection, the nearest rectangular
    grid point onto that intersection.

    Later intersections overwrite earlier ones at the same index; nearest
    is Euclidean against the rectangular reference positions with ties
    broken by the smallest (i, j) in lexicographic order.  Displacements
    never exceed max(dx, dy)/2 and the grid topology is unchanged.
    Re-applying to an already shifted grid reproduces the same result
    because intersections are always computed on the reference lines.
    """
    crossings = curve_grid_intersections(grid, curve)
    periodic = grid.boundary_kind == "periodic"
    coords = grid.rect_coords()
    mask = np.zeros((grid.nx, grid.ny), dtype=bool)
    for p in crossings:
        if p.axis == "x":
            i = p.index
            j, _ = _nearest_index_along(p.y, grid.y0, grid.dy, grid.ny, periodic)
            y = p.y
            if periodic:  # the crossing's image nearest node j, which may sit across the seam
                y -= round((y - grid.y0 - j * grid.dy) / grid.height) * grid.height
            coords[i, j] = (p.x, y)
            mask[i, j] = True
        else:
            j = p.index
            i, _ = _nearest_index_along(p.x, grid.x0, grid.dx, grid.nx, periodic)
            x = p.x
            if periodic:
                x -= round((x - grid.x0 - i * grid.dx) / grid.width) * grid.width
            coords[i, j] = (x, p.y)
            mask[i, j] = True
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
    periodic = grid_shifted.boundary_kind == "periodic"
    for _ in range(iterations):
        if periodic:
            avg = 0.25 * (np.roll(d, 1, axis=0) + np.roll(d, -1, axis=0)
                          + np.roll(d, 1, axis=1) + np.roll(d, -1, axis=1))
        else:
            padded = np.zeros((d.shape[0] + 2, d.shape[1] + 2, 2))
            padded[1:-1, 1:-1] = d
            avg = 0.25 * (padded[:-2, 1:-1] + padded[2:, 1:-1]
                          + padded[1:-1, :-2] + padded[1:-1, 2:])
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
