import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bfecc_maxwell.grid import (
    Circle,
    Grid2,
    GridError,
    ImplicitCurve,
    STENCIL_OFFSETS,
    StarCurve,
    build_uniform,
    curve_grid_intersections,
    dump_grid,
    point_shift,
    smooth_shift,
)
from bfecc_maxwell.harness import build_variant_grid
from bfecc_maxwell.schemes import StencilGeometry


def test_build_uniform_periodic_spacing():
    g = build_uniform(8, 16, ((0.0, 1.0), (0.0, 2.0)), "periodic")
    assert g.nx == 8 and g.ny == 16
    assert g.dx == pytest.approx(1.0 / 8)
    assert g.dy == pytest.approx(2.0 / 16)
    assert g.coords.shape == (8, 16, 2)
    assert g.is_uniform()


def test_build_uniform_bounded_spacing():
    # bounded grids include both endpoints, so spacing divides by n - 1
    g = build_uniform(5, 9, ((0.0, 1.0), (0.0, 1.0)), "bounded")
    assert g.dx == pytest.approx(1.0 / 4)
    assert g.dy == pytest.approx(1.0 / 8)
    assert g.coords[-1, -1, 0] == pytest.approx(1.0)
    assert g.coords[-1, -1, 1] == pytest.approx(1.0)


def test_grid_validation_rejects_small_and_malformed():
    with pytest.raises(GridError):
        build_uniform(2, 8, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    with pytest.raises(GridError):
        build_uniform(8, 8, ((0.0, 1.0), (0.0, 1.0)), "moebius")
    g = build_uniform(4, 4, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    with pytest.raises(GridError):
        Grid2(4, 4, g.dx, g.dy, 0.0, 0.0, "periodic", g.coords[:3])


@pytest.mark.parametrize("radius", [0.0, -0.1, float("nan")])
def test_curves_reject_a_radius_that_is_not_positive(radius):
    with pytest.raises(GridError, match="must be positive"):
        Circle(0.5, 0.5, radius)
    with pytest.raises(GridError, match="must be positive"):
        StarCurve(0.5, 0.5, r0=radius)


def test_rect_coords_match_uniform_coords():
    g = build_uniform(6, 6, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    assert np.array_equal(g.rect_coords(), g.coords)


def test_circle_intersections_lie_on_circle_and_grid_lines():
    g = build_uniform(32, 32, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    c = Circle(0.5, 0.5, 0.24)
    cuts = curve_grid_intersections(g, c)
    assert len(cuts) > 0
    for p in cuts:
        assert abs(c.phi(p.x, p.y)) < 1e-12
        if p.axis == "x":
            assert p.x == pytest.approx(p.index * g.dx, abs=1e-14)
        else:
            assert p.y == pytest.approx(p.index * g.dy, abs=1e-14)


def test_star_intersections_found_by_bisection():
    """The generic implicit-curve path has no closed form and must still land
    on the zero level set."""
    g = build_uniform(64, 64, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    star = StarCurve(0.5, 0.5, r0=0.24, ripple=0.25, lobes=5)
    cuts = curve_grid_intersections(g, star)
    assert len(cuts) > 4 * 5
    worst = max(abs(star.phi(p.x, p.y)) for p in cuts)
    assert worst < 1e-10


def test_star_grid_builds_where_bisection_reaches_float_spacing():
    """At n = 96 the root tolerance 1e-14 h is below the float spacing of
    some crossings; the bisection must stop there instead of looping."""
    n, pad = 96, 10
    h = 1.0 / n
    size = n + 2 * pad + 1
    g = build_uniform(size, size, ((-pad * h, 1.0 + pad * h),) * 2, "bounded")
    star = StarCurve(0.5, 0.5, r0=0.24, ripple=0.25, lobes=5)
    gs = point_shift(g, star)
    xs = gs.coords[gs.shifted_mask]
    assert len(xs) > 4 * 5
    assert np.max(np.abs(star.phi(xs[:, 0], xs[:, 1]))) < 1e-10
    d = np.hypot(gs.coords[..., 0] - g.coords[..., 0], gs.coords[..., 1] - g.coords[..., 1])
    assert np.max(d) <= 0.5 * max(g.dx, g.dy) + 1e-12


def test_intersection_order_is_deterministic():
    g = build_uniform(24, 24, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    c = Circle(0.5, 0.5, 0.24)
    a = curve_grid_intersections(g, c)
    b = curve_grid_intersections(g, c)
    assert a == b


def test_point_shift_moves_nodes_onto_curve():
    g = build_uniform(40, 40, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    c = Circle(0.5, 0.5, 0.24)
    gs = point_shift(g, c)
    assert gs.shifted_mask is not None
    assert gs.shifted_mask.sum() > 0
    xs = gs.coords[gs.shifted_mask]
    assert np.max(np.abs(c.phi(xs[:, 0], xs[:, 1]))) < 1e-9
    # unshifted nodes keep their rectangular positions
    assert np.array_equal(gs.coords[~gs.shifted_mask], g.coords[~gs.shifted_mask])


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), boundary=hst.sampled_from(["periodic", "bounded"]),
       width=hst.floats(0.5, 2.0), height=hst.floats(0.5, 2.0), star=hst.booleans())
def test_point_shift_displacement_bounded_by_half_cell(data, boundary, width, height, star):
    """A random circle or star inside the domain moves no point farther than
    max(dx, dy)/2, and every point it does not move keeps its exact
    rectangular position, on which the irregular-stencil test relies."""
    large = data.draw(hst.integers(0, 9)) == 0
    n = hst.sampled_from([96, 128]) if large else hst.integers(6, 48)
    g = build_uniform(data.draw(n), data.draw(n), ((0.0, width), (0.0, height)), boundary)
    cx = data.draw(hst.floats(0.2, 0.8)) * width
    cy = data.draw(hst.floats(0.2, 0.8)) * height
    room = min(cx, width - cx, cy, height - cy)
    if star:
        ripple = data.draw(hst.floats(0.0, 0.5))
        curve = StarCurve(cx, cy, data.draw(hst.floats(0.05, 1.0)) * room / (1.0 + ripple),
                          ripple, data.draw(hst.integers(3, 7)))
    else:
        curve = Circle(cx, cy, data.draw(hst.floats(0.05, 1.0)) * room)
    gs = point_shift(g, curve)
    rect = g.rect_coords()
    d = np.hypot(*(gs.coords - rect).transpose(2, 0, 1))
    assert np.max(d) <= 0.5 * max(g.dx, g.dy) * (1.0 + 1e-12)
    assert np.array_equal(gs.coords[~gs.shifted_mask], rect[~gs.shifted_mask])


def test_point_shift_keeps_a_crossing_next_to_the_seam_within_half_a_cell():
    # a crossing just below the periodic seam snaps to row 0 across it; the
    # point must take the crossing's image there, not a whole height away
    n = 16
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    gs = point_shift(g, Circle(0.5, 0.9, 0.1 - 0.2 / n))
    assert gs.shifted_mask[n // 2, 0]
    assert gs.coords[n // 2, 0] == pytest.approx((0.5, -0.2 / n), abs=1e-12)


def _snap_by_search(grid, crossings):
    """point_shift's coordinates and mask, found by trying every node on each
    crossing's line, and on periodic grids the crossing's images one period
    either side: the nearest (distance, index) wins, so a tie goes to the
    smaller index, and a later crossing overwrites an earlier one."""
    rect = grid.rect_coords()
    coords, mask = rect.copy(), np.zeros((grid.nx, grid.ny), dtype=bool)
    for p in crossings:
        if p.axis == "x":
            s, nodes, period = p.y, rect[p.index, :, 1], grid.height
        else:
            s, nodes, period = p.x, rect[:, p.index, 0], grid.width
        images = (s - period, s, s + period) if grid.boundary_kind == "periodic" else (s,)
        _, k, image = min((abs(im - node), k, im) for k, node in enumerate(nodes) for im in images)
        node = (p.index, k) if p.axis == "x" else (k, p.index)
        coords[node] = (p.x, image) if p.axis == "x" else (image, p.y)
        mask[node] = True
    return coords, mask


@pytest.mark.parametrize("n, domain, boundary, curve", [
    # crossings at 7/16 and 9/16 sit midway between nodes: the smaller index wins
    (8, ((0.0, 1.0), (0.0, 1.0)), "periodic", Circle(0.5, 0.5, 1.0 / 16)),
    # a crossing just below the seam snaps to row 0 across it
    (16, ((0.0, 1.0), (0.0, 1.0)), "periodic", Circle(0.5, 0.9, 0.1 - 0.2 / 16)),
    # the circle leaves the domain through the walls of a bounded grid
    (13, ((-0.5, 1.5), (0.0, 1.0)), "bounded", Circle(1.3, 0.15, 0.3)),
    (21, ((0.0, 1.0), (0.0, 1.0)), "bounded", StarCurve(0.45, 0.5, 0.3, 0.3, 5)),
])
def test_point_shift_snaps_each_crossing_to_the_nearest_node_on_its_line(n, domain, boundary, curve):
    g = build_uniform(n, n, domain, boundary)
    gs = point_shift(g, curve)
    coords, mask = _snap_by_search(g, curve_grid_intersections(g, curve))
    assert mask.any()
    assert np.array_equal(gs.shifted_mask, mask)
    np.testing.assert_allclose(gs.coords, coords, rtol=0.0, atol=1e-12)
    if n == 8:
        assert sorted(zip(*np.nonzero(mask))) == [(3, 4), (4, 3), (4, 4)]
        assert tuple(gs.coords[4, 4]) == (9 / 16, 0.5)  # the later, horizontal crossing


def test_a_circle_too_large_to_square_conforms_like_its_unit_copy():
    # at this scale the closed form's squares overflow; phi's roots still
    # put the same nodes where the unit case puts them
    size = 1e155
    big = point_shift(build_uniform(16, 16, ((0.0, size), (0.0, size)), "bounded"),
                      Circle(0.5 * size, 0.45 * size, 0.3 * size))
    unit = point_shift(build_uniform(16, 16, ((0.0, 1.0), (0.0, 1.0)), "bounded"),
                       Circle(0.5, 0.45, 0.3))
    assert np.array_equal(big.shifted_mask, unit.shifted_mask)
    np.testing.assert_allclose(big.coords / size, unit.coords, rtol=0.0, atol=1e-14)


HOSTILE = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308]


@settings(max_examples=300, deadline=None)
@given(data=hst.data(), what=hst.sampled_from(["circle", "star", "grid", "uniform"]),
       boundary=hst.sampled_from(["periodic", "bounded"]))
def test_grid_inputs_raise_grid_error_or_give_finite_coordinates(data, what, boundary):
    """Hostile numbers for the grid and curve constructors either stop with
    a GridError or build something whose coordinates are finite; a curve's
    shifted nodes must then lie on it, or on a periodic grid their image
    across a seam may."""
    def num(ordinary):
        return data.draw(hst.sampled_from(HOSTILE + [ordinary]))

    count = data.draw(hst.sampled_from([-1, 0, 1, 2, 3, 8]))
    curve = grid = None
    try:
        if what == "circle":
            curve = Circle(num(0.5), num(0.5), num(0.2))
        elif what == "star":
            curve = StarCurve(num(0.5), num(0.5), num(0.24), num(0.25),
                              data.draw(hst.sampled_from([-1, 0, 1, 5])))
        elif what == "grid":
            grid = Grid2(count, 8, num(0.125), num(0.125), num(0.0), num(0.0), boundary,
                         np.zeros((max(count, 0), 8, 2)))
        else:
            grid = build_uniform(count, 8, ((num(0.0), num(1.0)), (num(0.0), num(1.0))), boundary)
    except GridError as exc:
        assert "\n" not in str(exc)
        return
    if curve is not None:
        grid = point_shift(build_uniform(8, 8, boundary_kind=boundary), curve)
        on = grid.coords[grid.shifted_mask]
        images = (-1.0, 0.0, 1.0) if boundary == "periodic" else (0.0,)
        phi = [np.abs(curve.phi(on[:, 0] + a, on[:, 1] + b)) for a in images for b in images]
        assert np.all(np.min(phi, axis=0) < 1e-9)
    assert np.all(np.isfinite(grid.coords)) and np.all(np.isfinite(grid.rect_coords()))
    assert math.isfinite(grid.x0 + grid.width) and math.isfinite(grid.y0 + grid.height)


def test_point_shift_is_reproducible():
    g = build_uniform(30, 30, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    c = Circle(0.5, 0.5, 0.24)
    a = point_shift(g, c)
    b = point_shift(g, c)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.shifted_mask, b.shifted_mask)


def test_smooth_shift_keeps_curve_nodes_fixed():
    g = build_uniform(40, 40, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    c = Circle(0.5, 0.5, 0.24)
    gs = point_shift(g, c)
    gm = smooth_shift(gs, g, iterations=3)
    assert np.array_equal(gm.coords[gs.shifted_mask], gs.coords[gs.shifted_mask])
    assert not np.array_equal(gm.coords, gs.coords)
    # relaxation must not fling nodes outside a cell-sized neighborhood
    d = np.hypot(gm.coords[..., 0] - g.coords[..., 0],
                 gm.coords[..., 1] - g.coords[..., 1])
    assert np.max(d) < max(g.dx, g.dy)


def test_stencil_offsets_are_center_and_four_neighbors():
    assert STENCIL_OFFSETS == ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))


def cross(g):
    return np.array([[0.0, 0.0], [-g.dx, 0.0], [g.dx, 0.0], [0.0, -g.dy], [0.0, g.dy]])


def test_stencil_returns_five_coordinates():
    # the five points of a stencil, relative to its center, in STENCIL_OFFSETS order
    n = 8
    g = build_variant_grid("d", n)
    assert g.shifted_mask.any()
    offs = StencilGeometry(g).offsets.reshape(n, n, 5, 2)
    c = g.coords
    assert np.array_equal(offs[2, 3], c[[2, 1, 3, 2, 2], [3, 3, 3, 2, 4]] - c[2, 3])
    assert np.max(np.abs(offs)) < 2.0 * max(g.dx, g.dy)


def test_stencil_wraps_unwrapped_on_periodic_grid():
    # neighbors across the seam keep locally contiguous coordinates
    n = 8
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    offs = StencilGeometry(g).offsets.reshape(n, n, 5, 2)
    assert np.allclose(offs[0, 0, 1], [-g.dx, 0.0])
    assert np.allclose(offs[0, 0, 3], [0.0, -g.dy])
    assert np.allclose(offs, cross(g), rtol=0, atol=1e-14)
    gd = build_variant_grid("d", n)
    offs = StencilGeometry(gd).offsets.reshape(n, n, 5, 2)
    c = gd.coords
    assert np.allclose(offs[0, 0, 1], c[-1, 0] - (gd.width, 0.0) - c[0, 0])
    assert np.allclose(offs[0, 0, 3], c[0, -1] - (0.0, gd.height) - c[0, 0])


def test_stencil_rejects_bounded_boundary_points():
    # a bounded grid has stencils only at the interior points
    n = 8
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "bounded")
    offs = StencilGeometry(g).offsets
    assert offs.shape == ((n - 2) ** 2, 5, 2) == (36, 5, 2)
    assert np.allclose(offs, cross(g), rtol=0, atol=1e-14)
    # interior point (3, 3) is row 2, column 2 of the (n - 2, n - 2) block
    c = g.coords
    inner = offs.reshape(n - 2, n - 2, 5, 2)[2, 2]
    assert np.allclose(inner, c[[3, 2, 4, 3, 3], [3, 3, 3, 2, 4]] - c[3, 3], rtol=0, atol=1e-14)


def test_dump_grid_row_per_node():
    g = build_uniform(4, 5, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    buf = io.StringIO()
    dump_grid(g, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 4 * 5
    i, j, x, y, s = lines[0].split(",")
    assert (int(i), int(j)) == (0, 0)
    assert float(x) == 0.0 and float(y) == 0.0
    assert s in ("0", "1")


def test_dump_grid_coordinates_roundtrip_exactly():
    g = point_shift(build_uniform(20, 20, ((0.0, 1.0), (0.0, 1.0)), "periodic"),
                    Circle(0.5, 0.5, 0.24))
    buf = io.StringIO()
    dump_grid(g, buf)
    shifted = 0
    for line in buf.getvalue().strip().splitlines():
        i, j, x, y, s = line.split(",")
        # 17 significant digits reproduce the double exactly
        assert float(x) == g.coords[int(i), int(j), 0]
        assert float(y) == g.coords[int(i), int(j), 1]
        shifted += int(s)
    assert shifted == int(g.shifted_mask.sum())


@pytest.mark.parametrize("call, error, words", [
    (lambda: ImplicitCurve().phi(0.0, 0.0), NotImplementedError, "ImplicitCurve"),
    (lambda: smooth_shift(point_shift(build_uniform(8, 8), Circle(0.5, 0.5, 0.24)),
                          build_uniform(9, 9)), GridError,
     "shifted and rectangular grids have different shapes"),
])
def test_bad_curve_or_smoothing_input_is_a_one_line_error(call, error, words):
    """The abstract curve has no level set, and smoothing a shifted grid
    against a rectangular grid of another shape is a GridError."""
    with pytest.raises(error) as exc:
        call()
    assert "\n" not in str(exc.value) and words in str(exc.value)
