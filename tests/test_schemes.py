import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bfecc_maxwell.grid import (STENCIL_OFFSETS, Circle, StarCurve, build_uniform,
                                point_shift, smooth_shift)
from bfecc_maxwell.harness import ExperimentConfig, build_scatter_grid, build_variant_grid
from bfecc_maxwell.pml import TfsfSource
from bfecc_maxwell.schemes import (
    FieldState1,
    FieldState2,
    SCHEME_KINDS,
    SchemeSpec,
    StencilGeometry,
    _operator,
    lincomb1,
    lincomb2,
    run_program,
    step_1d,
    step_2d,
)


def random_state1(n, seed=0):
    rng = np.random.default_rng(seed)
    return FieldState1(rng.standard_normal(n), rng.standard_normal(n))


def random_state2(n, seed=0, eps=None, mu=None):
    rng = np.random.default_rng(seed)
    ones = np.ones((n, n))
    return FieldState2(rng.standard_normal((n, n)), rng.standard_normal((n, n)),
                       rng.standard_normal((n, n)),
                       ones if eps is None else eps,
                       ones if mu is None else mu)


def test_scheme_kinds_registry():
    assert SCHEME_KINDS == ("cd", "lf", "theta", "ls_cd", "ls_theta")


def test_spec_validation():
    with pytest.raises(ValueError):
        SchemeSpec("cd", -0.1)
    with pytest.raises(ValueError):
        SchemeSpec("cd", 0.0)
    with pytest.raises(ValueError):
        SchemeSpec("unknown", 0.1)
    with pytest.raises(ValueError):
        SchemeSpec("theta", 0.1, theta=1.5)


HOSTILE = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308, 2.5]


@settings(max_examples=300, deadline=None)
@given(data=hst.data(), what=hst.sampled_from(["spec", "state1", "state2", "tfsf", "star"]))
def test_api_inputs_raise_one_line_or_build_finite_objects(data, what):
    """Hostile numbers for the scheme spec, the states' material planes,
    the TF/SF source and the star curve either stop with a one-line
    ValueError (GridError is one) or build an object whose numbers are
    all finite; a star keeps exactly the lobe count it was given."""
    def num(ordinary):
        return data.draw(hst.sampled_from(HOSTILE + [ordinary]))

    def plane(shape):
        if data.draw(hst.booleans()):
            return None
        p = np.ones(shape)
        p.flat[data.draw(hst.integers(0, p.size - 1))] = num(1.0)
        return p

    try:
        if what == "spec":
            obj = SchemeSpec(data.draw(hst.sampled_from(SCHEME_KINDS)), num(0.01), num(0.5))
            numbers = [obj.dt, obj.theta]
        elif what == "state1":
            obj = FieldState1(np.zeros(5), np.zeros(5), plane((5,)), plane((5,)))
            numbers = [m for m in (obj.eps, obj.mu) if m is not None]
        elif what == "state2":
            obj = FieldState2(*np.zeros((3, 4, 3)), plane((4, 3)), plane((4, 3)))
            numbers = [m for m in (obj.eps, obj.mu) if m is not None]
        elif what == "tfsf":
            obj = TfsfSource((num(0.3), num(0.7), num(0.3), num(0.7)), num(10.0), num(1.0),
                             num(0.6))
            numbers = [*obj.rect, obj.rect[1] - obj.rect[0], obj.rect[3] - obj.rect[2],
                       obj.omega, obj.amplitude, obj.ramp_time]
        else:
            # the grid test feeds the star's other numbers
            lobes = num(5)
            obj = StarCurve(0.5, 0.5, 0.24, 0.25, lobes)
            assert obj.lobes == lobes
            numbers = [obj.lobes * math.pi]
    except ValueError as exc:
        assert "\n" not in str(exc)
        return
    assert all(np.all(np.isfinite(v)) for v in numbers)


def test_field_state_validation():
    with pytest.raises(ValueError):
        FieldState1(np.zeros(8), np.zeros(7))
    with pytest.raises(ValueError):
        FieldState1(np.zeros(8), np.zeros(8), eps=-np.ones(8))
    with pytest.raises(ValueError):
        FieldState2(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((4, 3)),
                    np.ones((4, 4)), np.ones((4, 4)))


def test_cd_step_1d_matches_centered_differences():
    n = 32
    st = random_state1(n, seed=5)
    dx = 1.0 / n
    dt = 0.4 * dx
    out = step_1d(SchemeSpec("cd", dt), st, dx)
    lam = dt / dx
    dh = 0.5 * (np.roll(st.H, -1) - np.roll(st.H, 1))
    de = 0.5 * (np.roll(st.E, -1) - np.roll(st.E, 1))
    assert np.allclose(out.E, st.E + lam * dh, atol=1e-15)
    assert np.allclose(out.H, st.H + lam * de, atol=1e-15)


def test_backward_direction_negates_the_update():
    n = 32
    st = random_state1(n, seed=6)
    dx = 1.0 / n
    spec = SchemeSpec("cd", 0.4 * dx)
    out = apply_operator(spec, -1.0, st, dx)
    lam = spec.dt / dx
    dh = 0.5 * (np.roll(st.H, -1) - np.roll(st.H, 1))
    assert np.allclose(out[0], st.E - lam * dh, atol=1e-15)


def test_lf_step_averages_the_carried_field():
    n = 32
    st = random_state1(n, seed=7)
    dx = 1.0 / n
    dt = 0.4 * dx
    out = step_1d(SchemeSpec("lf", dt), st, dx)
    lam = dt / dx
    avg = 0.5 * (np.roll(st.E, -1) + np.roll(st.E, 1))
    dh = 0.5 * (np.roll(st.H, -1) - np.roll(st.H, 1))
    assert np.allclose(out.E, avg + lam * dh, atol=1e-15)


@pytest.mark.parametrize("theta,kind", [(0.0, "cd"), (1.0, "lf")])
def test_theta_endpoints_reduce_to_named_schemes_1d(theta, kind):
    n = 24
    st = random_state1(n, seed=8)
    dx = 1.0 / n
    dt = 0.3 * dx
    a = step_1d(SchemeSpec("theta", dt, theta=theta), st, dx)
    b = step_1d(SchemeSpec(kind, dt), st, dx)
    assert np.array_equal(a.E, b.E)
    assert np.array_equal(a.H, b.H)


@pytest.mark.parametrize("theta,kind", [(0.0, "cd"), (1.0, "lf")])
def test_theta_endpoints_reduce_to_named_schemes_2d(theta, kind):
    n = 12
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    st = random_state2(n, seed=9)
    dt = 0.3 * g.dx
    a = step_2d(SchemeSpec("theta", dt, theta=theta), st, g)
    b = step_2d(SchemeSpec(kind, dt), st, g)
    assert np.array_equal(a.Ez, b.Ez)
    assert np.array_equal(a.Hx, b.Hx)
    assert np.array_equal(a.Hy, b.Hy)


def test_material_coefficients_scale_the_updates():
    n = 16
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    dt = 0.3 * g.dx
    base = random_state2(n, seed=10)
    eps2 = FieldState2(base.Hx, base.Hy, base.Ez, 2.0 * np.ones((n, n)), base.mu)
    out1 = step_2d(SchemeSpec("cd", dt), base, g)
    out2 = step_2d(SchemeSpec("cd", dt), eps2, g)
    # Ez increment divides by eps, the H increments do not see eps
    assert np.allclose(out2.Ez - base.Ez, 0.5 * (out1.Ez - base.Ez), atol=1e-14)
    assert np.array_equal(out2.Hx, out1.Hx)
    mu3 = FieldState2(base.Hx, base.Hy, base.Ez, base.eps, 3.0 * np.ones((n, n)))
    out3 = step_2d(SchemeSpec("cd", dt), mu3, g)
    assert np.allclose(out3.Hy - base.Hy, (out1.Hy - base.Hy) / 3.0, atol=1e-14)
    assert np.array_equal(out3.Ez, out1.Ez)


def test_characteristic_sums_decouple_in_1d():
    # E + H propagates independently of E - H for every centered kind
    n = 40
    dx = 1.0 / n
    dt = 0.35 * dx
    rng = np.random.default_rng(12)
    e = rng.standard_normal(n)
    h = rng.standard_normal(n)
    gpert = rng.standard_normal(n)
    for kind in ("cd", "lf", "theta"):
        spec = SchemeSpec(kind, dt, theta=0.4)
        a = step_1d(spec, FieldState1(e, h), dx)
        b = step_1d(spec, FieldState1(e + gpert, h - gpert), dx)
        assert np.max(np.abs((a.E + a.H) - (b.E + b.H))) < 1e-13


def test_mode_update_matches_analysis_symbol():
    from bfecc_maxwell.analysis import symbol

    n = 16
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    dt = 0.3 * g.dx
    st = random_state2(n, seed=13)
    out = step_2d(SchemeSpec("cd", dt), st, g)
    k, l = 3, 5
    Q = symbol("cd", 2, (k, l), (g.dx, g.dy), (dt / g.dx, dt / g.dy))
    vin = np.array([np.fft.fft2(st.Hx)[k, l], np.fft.fft2(st.Hy)[k, l],
                    np.fft.fft2(st.Ez)[k, l]])
    vout = np.array([np.fft.fft2(out.Hx)[k, l], np.fft.fft2(out.Hy)[k, l],
                     np.fft.fft2(out.Ez)[k, l]])
    assert np.allclose(vout, Q @ vin, atol=1e-10 * np.max(np.abs(vin)))


def test_uniform_grid_kinds_require_periodic_boundaries():
    g = build_uniform(8, 8, ((0.0, 1.0), (0.0, 1.0)), "bounded")
    st = random_state2(8, seed=14)
    with pytest.raises(ValueError):
        step_2d(SchemeSpec("cd", 0.01), st, g)


def test_ls_step_holds_bounded_boundary_ring_fixed():
    n = 10
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "bounded")
    st = random_state2(n, seed=15)
    out = step_2d(SchemeSpec("ls_cd", 0.3 * g.dx), st, g)
    ring = np.zeros((n, n), dtype=bool)
    ring[0] = ring[-1] = ring[:, 0] = ring[:, -1] = True
    assert np.array_equal(out.Ez[ring], st.Ez[ring])
    assert np.array_equal(out.Hx[ring], st.Hx[ring])
    assert not np.array_equal(out.Ez[~ring], st.Ez[~ring])


def test_stencil_geometry_shapes_and_cache():
    n = 9
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "bounded")
    geom = StencilGeometry(g)
    m = (n - 2) * (n - 2)
    assert geom.shape == (n - 2, n - 2)
    f = np.arange(n * n, dtype=float).reshape(n, n)
    assert np.array_equal(f[geom.interior], f[1:-1, 1:-1])
    rows = np.arange(m)
    assert geom.index_of(rows).shape == (m, 5)
    assert np.array_equal(f.ravel()[geom.index_of(rows)[:, 0]], f[1:-1, 1:-1].ravel())
    cross = np.array([[0.0, 0.0], [-g.dx, 0.0], [g.dx, 0.0], [0.0, -g.dy], [0.0, g.dy]])
    assert geom.offsets_of(rows).shape == (m, 5, 2)
    assert np.allclose(geom.offsets_of(rows), cross, rtol=0, atol=1e-14)
    # a uniform grid has no irregular stencil: its weight block is empty
    w1 = geom.cached_weights()
    assert w1 is geom.cached_weights()
    assert w1.shape == (0, 3, 5) and geom.irregular.shape == (0,)

    gp = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    periodic = StencilGeometry(gp)
    assert periodic.shape == (n, n)
    assert np.array_equal(f[periodic.interior], f)
    # the west neighbor of (0, 0) wraps to (n - 1, 0), one width away
    assert periodic.index_of([0])[0, 1] == (n - 1) * n
    assert np.allclose(periodic.offsets_of(np.arange(n * n)), cross * (gp.dx / g.dx), rtol=0,
                       atol=1e-14)

    gd = build_variant_grid("d", 16)
    shifted = StencilGeometry(gd)
    r = len(shifted.irregular)
    assert 0 < r < 16 * 16
    w = shifted.cached_weights()
    assert w is shifted.cached_weights()
    assert w.shape == (r, 3, 5)


def test_lincomb_arithmetic():
    a = random_state1(8, seed=1)
    b = random_state1(8, seed=2)
    out = lincomb1(1.5, a, -0.5, b)
    assert np.allclose(out.E, 1.5 * a.E - 0.5 * b.E)
    a2 = random_state2(6, seed=3)
    b2 = random_state2(6, seed=4)
    out2 = lincomb2(2.0, a2, 1.0, b2)
    assert np.allclose(out2.Hy, 2.0 * a2.Hy + b2.Hy)
    assert out2.eps is a2.eps


def test_step_1d_rejects_least_squares_kinds():
    st = random_state1(8)
    with pytest.raises(ValueError):
        step_1d(SchemeSpec("ls_cd", 0.01), st, 0.125)


def per_point_fits(grid, u, i, j):
    """(a, d/dx, d/dy) of an independent per-stencil solve at point (i, j),
    one row per field of the stack u.

    Neighbors past a periodic seam are unwrapped by one domain extent, and
    the fit is np.linalg.lstsq on the five offsets from the center.
    """
    pts = np.empty((5, 2))
    vals = np.empty((5, len(u)))
    for s, (di, dj) in enumerate(((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))):
        wi, ii = divmod(i + di, grid.nx)
        wj, jj = divmod(j + dj, grid.ny)
        pts[s] = grid.coords[ii, jj] + (wi * grid.width, wj * grid.height)
        vals[s] = u[:, ii, jj]
    design = np.column_stack([np.ones(5), pts - pts[0]])
    return np.linalg.lstsq(design, vals, rcond=None)[0].T


def shifted_grid(data, n, boundary):
    """A grid of n^2 points conformed to a random circle or star, smoothed
    by 0 to 2 sweeps, or the smoothly deformed variant b."""
    if boundary == "b":
        return build_variant_grid("b", n)
    rect = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), boundary)
    cx, cy = data.draw(hst.floats(0.0, 1.0)), data.draw(hst.floats(0.0, 1.0))
    if data.draw(hst.booleans()):
        curve = Circle(cx, cy, data.draw(hst.floats(0.05, 0.45)))
    else:
        curve = StarCurve(cx, cy, data.draw(hst.floats(0.08, 0.3)),
                          data.draw(hst.floats(0.0, 0.4)), data.draw(hst.integers(3, 7)))
    g = point_shift(rect, curve)
    sweeps = data.draw(hst.integers(0, 2))
    return smooth_shift(g, rect, sweeps) if sweeps else g


def per_point_step(grid, st, sdt, kind, i, j):
    """The least-squares update at point (i, j) assembled from
    per_point_fits: the fitted center (ls_theta) or the point value (ls_cd)
    as base, plus sdt times the material-scaled fitted gradients."""
    fhx, fhy, fez = per_point_fits(grid, st.u, i, j)
    base = st.u[:, i, j] if kind == "ls_cd" else np.array([fhx[0], fhy[0], fez[0]])
    inv_eps = 1.0 if st.eps is None else 1.0 / st.eps[i, j]
    inv_mu = 1.0 if st.mu is None else 1.0 / st.mu[i, j]
    return base + sdt * np.array([-inv_mu * fez[2], inv_mu * fez[1],
                                  inv_eps * (fhy[1] - fhx[2])])


@settings(max_examples=40, deadline=None)
@given(data=hst.data(), n=hst.integers(6, 20),
       boundary=hst.sampled_from(["periodic", "bounded", "b"]), seed=hst.integers(0, 2 ** 16))
def test_plane_fit_matches_per_point_fit_across_the_periodic_seam(data, n, boundary, seed):
    """One step of either least-squares kind, the slice kernels plus the
    sparse correction of the irregular rows, equals an update assembled
    from an independent per-stencil lstsq at every update point, across
    periodic seams too, with materials and either sign of step; a bounded
    grid's outer ring keeps its values.  The irregular rows are exactly the
    stencils with a point off its rectangular position."""
    g = shifted_grid(data, n, boundary)
    rng = np.random.default_rng(seed)
    st = FieldState2(*rng.standard_normal((3, n, n)), *rng.uniform(1.0, 3.0, (2, n, n)))
    geom = StencilGeometry(g)
    moved = np.any(g.coords != g.rect_coords(), axis=2)
    ring = 0 if g.boundary_kind == "periodic" else 1
    sdt = data.draw(signs) * 0.4 * min(g.dx, g.dy)
    for kind in ("ls_cd", "ls_theta"):
        out = apply_operator(SchemeSpec(kind, abs(sdt)), np.sign(sdt), st, g, geom)
        irregular = []
        for row, (p, q) in enumerate(np.ndindex(geom.shape)):
            i, j = p + ring, q + ring
            ref = per_point_step(g, st, sdt, kind, i, j)
            assert np.all(np.abs(out[:, i, j] - ref) <= 1e-12), (kind, i, j)
            if any(moved[(i + di) % n, (j + dj) % n] for di, dj in STENCIL_OFFSETS):
                irregular.append(row)
        assert geom.irregular.tolist() == irregular
        held = np.ones((n, n), dtype=bool)
        held[geom.interior] = False
        assert np.array_equal(out[:, held], st.u[:, held])


def test_plane_fit_and_step_on_a_bounded_shifted_grid():
    g, eps = build_scatter_grid(ExperimentConfig(experiment="scatter_cylinder"), 8)
    assert g.boundary_kind == "bounded" and g.shifted_mask.any()
    nx, ny = g.nx, g.ny
    st = random_state2(nx, seed=22, eps=eps)
    geom = StencilGeometry(g)
    assert len(geom.irregular) > 0
    dt = 0.4 * g.dx
    ring = np.ones((nx, ny), dtype=bool)
    ring[1:-1, 1:-1] = False
    for kind in ("ls_cd", "ls_theta"):
        out = step_2d(SchemeSpec(kind, dt), st, g, geometry=geom)
        for new, old in ((out.Hx, st.Hx), (out.Hy, st.Hy), (out.Ez, st.Ez)):
            assert np.array_equal(new[ring], old[ring])
        for i in range(1, nx - 1):
            for j in range(1, ny - 1):
                got = (out.Hx[i, j], out.Hy[i, j], out.Ez[i, j])
                assert np.allclose(got, per_point_step(g, st, dt, kind, i, j),
                                   rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(nx=hst.integers(5, 24), ny=hst.integers(5, 24),
       width=hst.floats(0.2, 5.0), height=hst.floats(0.2, 5.0),
       ratio=hst.floats(0.05, 0.5), seed=hst.integers(0, 2 ** 16))
def test_least_squares_kinds_reduce_to_uniform_kinds(nx, ny, width, height, ratio, seed):
    """On any uniform periodic grid ls_cd is cd and ls_theta is theta(0.8),
    bit for bit: all five kinds run one kernel, and an unshifted grid has
    no irregular row to correct."""
    g = build_uniform(nx, ny, ((0.0, width), (0.0, height)), "periodic")
    rng = np.random.default_rng(seed)
    st = FieldState2(*rng.standard_normal((3, nx, ny)))
    dt = ratio * min(g.dx, g.dy)
    geom = StencilGeometry(g)
    for ls_kind, ref in (("ls_cd", SchemeSpec("cd", dt)),
                         ("ls_theta", SchemeSpec("theta", dt, theta=0.8))):
        a = step_2d(SchemeSpec(ls_kind, dt), st, g, geometry=geom)
        b = step_2d(ref, st, g)
        assert np.array_equal(a.u, b.u)


def roll_step_1d(spec, sdt, st, dx):
    """Reference 1D step of signed size sdt built from np.roll, in the
    kernels' rounding order."""
    lam = sdt / dx
    th = {"cd": 0.0, "lf": 1.0, "theta": spec.theta}[spec.kind]
    inv_eps = 1.0 if st.eps is None else 1.0 / st.eps
    inv_mu = 1.0 if st.mu is None else 1.0 / st.mu

    def blend(f):
        avg = 0.5 * (np.roll(f, 1) + np.roll(f, -1))
        return f if th == 0.0 else avg if th == 1.0 else (1.0 - th) * f + th * avg

    de = 0.5 * (np.roll(st.E, -1) - np.roll(st.E, 1))
    dh = 0.5 * (np.roll(st.H, -1) - np.roll(st.H, 1))
    return blend(st.E) + lam * inv_eps * dh, blend(st.H) + lam * inv_mu * de


def roll_blend_2d(f, th):
    """(1 - th) f + th (mean of the four neighbors) of one periodic plane,
    the neighbors summed i-1, i+1, j-1, j+1 as the kernels sum them."""
    avg = 0.25 * (np.roll(f, 1, axis=0) + np.roll(f, -1, axis=0)
                  + np.roll(f, 1, axis=1) + np.roll(f, -1, axis=1))
    return f if th == 0.0 else avg if th == 1.0 else (1.0 - th) * f + th * avg


def roll_dc(f, axis):
    """The centered difference 0.5 (f[i+1] - f[i-1]) along `axis`, periodic."""
    return 0.5 * (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis))


def roll_step_2d(spec, sdt, st, g):
    """Reference 2D step of signed size sdt built from np.roll, in the
    kernels' rounding order."""
    lx, ly = sdt / g.dx, sdt / g.dy
    th = {"cd": 0.0, "lf": 1.0, "theta": spec.theta}[spec.kind]
    inv_eps = 1.0 if st.eps is None else 1.0 / st.eps
    inv_mu = 1.0 if st.mu is None else 1.0 / st.mu
    return (roll_blend_2d(st.Hx, th) - ly * inv_mu * roll_dc(st.Ez, 1),
            roll_blend_2d(st.Hy, th) + lx * inv_mu * roll_dc(st.Ez, 0),
            roll_blend_2d(st.Ez, th) + inv_eps * (lx * roll_dc(st.Hy, 0) - ly * roll_dc(st.Hx, 1)))


uniform_specs = hst.builds(SchemeSpec, kind=hst.sampled_from(("cd", "lf", "theta")),
                           dt=hst.floats(1e-3, 2.0), theta=hst.floats(0.0, 1.0))
# the sign of a substep's dt: forward or backward
signs = hst.sampled_from((1.0, -1.0))


def apply_operator(spec, sign, st, where, geometry=None):
    """One step of signed size sign * dt with the spec's operator, bound to
    the state's stack and a fresh output."""
    out = np.empty_like(st.u)
    run_program(_operator(spec, st, where, geometry)(sign * spec.dt, st.u, out))
    return out


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(3, 40), spec=uniform_specs, sign=signs,
       materials=hst.sampled_from(["none", "eps", "mu", "both"]), seed=hst.integers(0, 2 ** 16))
def test_slice_kernels_equal_roll_reference_1d(n, spec, sign, materials, seed):
    """Bit for bit, also with only one material, whose missing reciprocal
    the kernel takes as 1.0."""
    rng = np.random.default_rng(seed)
    eps, mu = rng.uniform(0.2, 5.0, (2, n))
    eps = eps if materials in ("eps", "both") else None
    mu = mu if materials in ("mu", "both") else None
    st = FieldState1(*rng.standard_normal((2, n)), eps, mu)
    out = apply_operator(spec, sign, st, 1.0 / n)
    ref_e, ref_h = roll_step_1d(spec, sign * spec.dt, st, 1.0 / n)
    assert np.array_equal(out[0], ref_e)
    assert np.array_equal(out[1], ref_h)


@settings(max_examples=60, deadline=None)
@given(nx=hst.integers(3, 20), ny=hst.integers(3, 20), spec=uniform_specs, sign=signs,
       width=hst.floats(0.2, 5.0), height=hst.floats(0.2, 5.0),
       materials=hst.booleans(), seed=hst.integers(0, 2 ** 16))
def test_slice_kernels_equal_roll_reference_2d(nx, ny, spec, sign, width, height, materials,
                                               seed):
    g = build_uniform(nx, ny, ((0.0, width), (0.0, height)), "periodic")
    rng = np.random.default_rng(seed)
    eps, mu = rng.uniform(0.2, 5.0, (2, nx, ny)) if materials else (None, None)
    st = FieldState2(*rng.standard_normal((3, nx, ny)), eps, mu)
    out = apply_operator(spec, sign, st, g)
    for got, ref in zip(out, roll_step_2d(spec, sign * spec.dt, st, g)):
        assert np.array_equal(got, ref)


@settings(max_examples=40, deadline=None)
@given(nx=hst.integers(3, 20), ny=hst.integers(3, 20), dt=hst.floats(1e-3, 2.0), sign=signs,
       width=hst.floats(0.2, 5.0), height=hst.floats(0.2, 5.0), materials=hst.booleans(),
       seed=hst.integers(0, 2 ** 16))
def test_plane_fit_equals_roll_reference_on_an_unshifted_grid(nx, ny, dt, sign, width, height,
                                                              materials, seed):
    """With no irregular stencil the least-squares operators are the slice
    kernels alone, bit for bit: the np.roll reference of theta = 0.8 for
    ls_theta and of cd for ls_cd, in either direction and with materials."""
    g = build_uniform(nx, ny, ((0.0, width), (0.0, height)), "periodic")
    rng = np.random.default_rng(seed)
    eps, mu = rng.uniform(0.2, 5.0, (2, nx, ny)) if materials else (None, None)
    st = FieldState2(*rng.standard_normal((3, nx, ny)), eps, mu)
    assert len(StencilGeometry(g).irregular) == 0
    for kind, ref in (("ls_theta", SchemeSpec("theta", dt, 0.8)), ("ls_cd", SchemeSpec("cd", dt))):
        out = apply_operator(SchemeSpec(kind, dt), sign, st, g)
        for got, want in zip(out, roll_step_2d(ref, sign * dt, st, g)):
            assert np.array_equal(got, want)


def test_uniform_grid_kinds_reject_a_deformed_periodic_grid():
    g = build_variant_grid("b", 12)
    st = random_state2(12, seed=16)
    for kind in ("cd", "lf", "theta"):
        with pytest.raises(ValueError, match="uniform grid"):
            step_2d(SchemeSpec(kind, 0.3 * g.dx), st, g)


modes = hst.tuples(hst.integers(0, 40), hst.integers(0, 40))
amplitudes = hst.lists(hst.complex_numbers(max_magnitude=2.0), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(n=hst.integers(3, 40), k=hst.integers(0, 40), spec=uniform_specs, sign=signs,
       c=amplitudes)
def test_step_1d_on_a_fourier_mode_applies_the_symbol(n, k, spec, sign, c):
    """A real single mode Re(c exp(2 pi i k x)) comes out as Re(Q c exp(...))
    with Q = analysis.symbol of the signed lam, for either sign of dt."""
    from bfecc_maxwell.analysis import symbol

    c = np.array(c[:2])
    wave = np.exp(2j * np.pi * k * np.arange(n) / n)
    st = FieldState1(*np.real(c[:, None] * wave))
    lam = spec.dt * n
    q = symbol(spec.kind, 1, k, 1.0 / n, sign * lam, spec.theta)
    expect = np.real((q @ c)[:, None] * wave)
    out = apply_operator(spec, sign, st, 1.0 / n)
    assert np.allclose(out, expect, rtol=0, atol=1e-12 * (1.0 + lam) * max(1.0, np.max(np.abs(c))))


@settings(max_examples=60, deadline=None)
@given(nx=hst.integers(3, 20), ny=hst.integers(3, 20), kl=modes, spec=uniform_specs,
       sign=signs, width=hst.floats(0.2, 5.0), height=hst.floats(0.2, 5.0), c=amplitudes)
def test_step_2d_on_a_fourier_mode_applies_the_symbol(nx, ny, kl, spec, sign, width, height,
                                                      c):
    """As in 1D, on rectangular grids of any aspect: the step of a real
    single mode is analysis.symbol applied to its amplitudes."""
    from bfecc_maxwell.analysis import symbol

    g = build_uniform(nx, ny, ((0.0, width), (0.0, height)), "periodic")
    k, l = kl
    c = np.array(c)
    wave = np.exp(2j * np.pi * (k * np.arange(nx)[:, None] / nx + l * np.arange(ny)[None, :] / ny))
    st = FieldState2(*np.real(c[:, None, None] * wave))
    lam = (spec.dt / g.dx, spec.dt / g.dy)
    q = symbol(spec.kind, 2, (k / width, l / height), (g.dx, g.dy),
               (sign * lam[0], sign * lam[1]), spec.theta)
    expect = np.real((q @ c)[:, None, None] * wave)
    out = apply_operator(spec, sign, st, g)
    scale = (1.0 + sum(lam)) * max(1.0, np.max(np.abs(c)))
    assert np.allclose(out, expect, rtol=0, atol=1e-12 * scale)


@settings(max_examples=30, deadline=None)
@given(nx=hst.integers(3, 20), ny=hst.integers(3, 20), width=hst.floats(0.2, 5.0),
       height=hst.floats(0.2, 5.0), ratio=hst.floats(0.05, 1.0), wrapped=hst.booleans(),
       seed=hst.integers(0, 2 ** 16))
def test_cd_conserves_the_discrete_divergence(nx, ny, width, height, ratio, wrapped, seed):
    """cd and its BFECC wrapper leave the centered div H unchanged on any
    periodic grid: the centered differences along x and y commute."""
    from bfecc_maxwell.analysis import cfl_bound
    from bfecc_maxwell.bfecc import BfeccStep, bfecc_step
    from bfecc_maxwell.diagnostics import h_divergence

    g = build_uniform(nx, ny, ((0.0, width), (0.0, height)), "periodic")
    st = FieldState2(*np.random.default_rng(seed).standard_normal((3, nx, ny)))
    spec = SchemeSpec("cd", ratio * cfl_bound("cd", 2, (g.dx, g.dy)))
    step = BfeccStep(spec)
    div0 = h_divergence(st.Hx, st.Hy, g.dx, g.dy)
    for _ in range(10):
        st = bfecc_step(step, st, g) if wrapped else step_2d(spec, st, g)
    div1 = h_divergence(st.Hx, st.Hy, g.dx, g.dy)
    scale = max(1.0, np.max(np.abs(st.u))) / min(g.dx, g.dy)
    assert np.max(np.abs(div1 - div0)) <= 1e-12 * scale


def mismatched_grids(caller):
    """(grid, a grid of another size, the uniform grid of grid's size and
    extent, a rebuild of grid): grid d at 16^2, or for a collar runner the
    bounded cylinder scatter grid of n = 16."""
    if caller != "PmlRunner":
        g = build_variant_grid("d", 16)
        return g, build_variant_grid("d", 12), build_uniform(16, 16), build_variant_grid("d", 16)
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta")
    g = build_scatter_grid(cfg, 16)[0]
    extent = ((g.x0, g.x0 + g.width), (g.y0, g.y0 + g.height))
    return (g, build_scatter_grid(cfg, 12)[0], build_uniform(g.nx, g.ny, extent, "bounded"),
            build_scatter_grid(cfg, 16)[0])


def step_with(caller, grid, geometry, weights=None):
    """The stack of one ls_theta step on `grid` with `geometry` (None for
    the grid's own) and `weights` (None for its cached block), by step_2d,
    bfecc_step or a PmlRunner's step."""
    from bfecc_maxwell.bfecc import BfeccStep, bfecc_step
    from bfecc_maxwell.pml import PmlRunner, build_pml

    spec = SchemeSpec("ls_theta", 0.01)
    st = FieldState2(*np.random.default_rng(1).standard_normal((3, grid.nx, grid.ny)))
    if caller == "step_2d":
        return step_2d(spec, st, grid, geometry=geometry, weights=weights).u
    if caller == "bfecc_step":
        return bfecc_step(BfeccStep(spec), st, grid, geometry=geometry, weights=weights).u
    return PmlRunner(grid, spec, build_pml(grid, spec.dt), geometry=geometry,
                     weights=weights).step(st, 0.0).u


@pytest.mark.parametrize("caller", ["step_2d", "bfecc_step", "PmlRunner"])
def test_a_geometry_built_for_another_grid_fails_fast(caller):
    """A stencil geometry of a grid of another size, or of the uniform grid
    of the same size, is a one-line ValueError (its clipped indices would
    gather the wrong points); one of a distinct but equal grid steps with
    the bits of the grid's own."""
    grid, smaller, uniform, rebuilt = mismatched_grids(caller)
    assert rebuilt is not grid
    for other in (smaller, uniform):
        with pytest.raises(ValueError) as exc:
            step_with(caller, grid, StencilGeometry(other))
        assert "\n" not in str(exc.value) and "another grid" in str(exc.value)
    expect = step_with(caller, grid, None)
    assert np.array_equal(step_with(caller, grid, StencilGeometry(rebuilt)), expect)
    assert np.array_equal(step_with(caller, grid, StencilGeometry(grid)), expect)


@pytest.mark.parametrize("caller", ["step_2d", "bfecc_step", "PmlRunner"])
def test_a_weights_block_of_the_wrong_shape_fails_fast(caller):
    """A weights block with one stencil too many, or with four points a
    stencil, is a one-line ValueError that names `weights` and both shapes
    (numpy's broadcast error named neither); a copy of the geometry's own
    block steps with the bits of its cached one."""
    grid = mismatched_grids(caller)[0]
    geom = StencilGeometry(grid)
    want = (len(geom.irregular), 3, 5)
    assert caller == "PmlRunner" or want == (60, 3, 5)
    for shape in ((want[0] + 1, 3, 5), (want[0], 3, 4)):
        with pytest.raises(ValueError) as exc:
            step_with(caller, grid, geom, np.zeros(shape))
        msg = str(exc.value)
        assert "\n" not in msg and msg.startswith("weights shape")
        assert str(shape) in msg and str(want) in msg
    expect = step_with(caller, grid, geom)
    assert np.array_equal(step_with(caller, grid, geom, geom.cached_weights().copy()), expect)


@pytest.mark.parametrize("call, error, words", [
    (lambda: FieldState1(np.zeros(8), np.zeros(8), eps=np.ones(7)), ValueError,
     "eps shape (7,) does not match fields (8,)"),
    (lambda: FieldState2(*np.zeros((3, 4, 4)), mu=np.ones((4, 3))), ValueError,
     "mu shape (4, 3) does not match fields (4, 4)"),
    (lambda: step_2d(SchemeSpec("cd", 0.1), FieldState1(np.zeros(8), np.zeros(8)), 0.0),
     ValueError, "dx must be positive, got 0.0"),
    (lambda: step_1d(SchemeSpec("lf", 0.1), FieldState1(np.zeros(8), np.zeros(8)), -0.5),
     ValueError, "dx must be positive, got -0.5"),
])
def test_a_bad_material_or_spacing_is_a_one_line_value_error(call, error, words):
    """A material plane of another shape than the fields, and a 1D spacing
    dx <= 0, are one-line ValueErrors."""
    with pytest.raises(error) as exc:
        call()
    assert "\n" not in str(exc.value) and words in str(exc.value)


def address_mod_64(a):
    return a.__array_interface__["data"][0] % 64


def test_aligned_zeros_are_zero_contiguous_and_start_on_a_64_byte_boundary():
    from bfecc_maxwell.schemes import _zeros

    for shape in [(1,), (7,), (2, 5), (3, 149, 149), (3, 256, 256)]:
        a = _zeros(shape)
        assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
        assert not a.any() and address_mod_64(a) == 0


def test_every_array_a_step_program_streams_starts_on_a_64_byte_boundary():
    """The state stacks, the exact wave, the material planes, the Workspace
    arrays and every fresh output start on a 64-byte boundary, in 1D and
    on a 149^2 grid, whose odd planes are the only ones left off it."""
    from bfecc_maxwell.bfecc import BfeccStep, bfecc_step
    from bfecc_maxwell.harness import exact_periodic2d
    from bfecc_maxwell.schemes import _reciprocal

    rng = np.random.default_rng(9)
    st1 = FieldState1(*rng.standard_normal((2, 13)), *rng.uniform(0.5, 2.0, (2, 13)))
    grid = build_uniform(149, 149)
    x, y = grid.rect_coords().transpose(2, 0, 1)
    st2 = FieldState2._of(exact_periodic2d(x, y, 0.1), rng.uniform(0.5, 2.0, (149, 149)),
                          rng.uniform(0.5, 2.0, (149, 149)))
    arrays = [st1.u, st2.u, _reciprocal(st2.eps), _reciprocal(st2.mu),
              FieldState2(*st2.u, eps=st2.eps).u]
    for st, where in ((st1, 0.1), (st2, grid)):
        for kind in ("cd", "theta"):
            step = BfeccStep(SchemeSpec(kind, 0.004, 0.8))
            arrays += [step_2d(step.spec, st, where).u, bfecc_step(step, st, where).u]
            bfecc_step(step, st, where, out=st.u)
            assert step.work._arrays
            arrays += step.work._arrays.values()
    assert [address_mod_64(a) for a in arrays] == [0] * len(arrays)


def flat_runs(program, row):
    """(heads, bodies): the counts of a program's flat np.add and
    np.subtract runs, as `_split` makes them, after checking that every
    head holds 1-7 elements and ends on a 64-byte boundary and that every
    body holds more and starts on one.  Runs are the contiguous 1-D
    outputs other than a `row`; a wrap entry writes a row, a strided
    column or the rows of a stack."""
    heads = bodies = 0
    for f, args in program:
        o = args[-1]
        if f in (np.add, np.subtract) and o.ndim == 1 and o.strides == (8,) and len(o) != row:
            if address_mod_64(o) == 0 and len(o) > 7:
                bodies += 1
            else:
                assert 1 <= len(o) <= 7 and (address_mod_64(o) + 8 * len(o)) % 64 == 0
                heads += 1
    return heads, bodies


def at_offset(shape, k):
    """A zeroed array of `shape` whose data start k * 8 bytes past a 64-byte
    boundary."""
    from bfecc_maxwell.schemes import _zeros

    size = math.prod(shape)
    return _zeros((size + 8,))[k:k + size].reshape(shape)


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("shape", [(10, 13), (3, 10, 13)])
def test_split_differences_give_the_one_pass_bits_at_every_output_offset(shape, wrap):
    """`_dc`'s merged-row pass is a head of h <= 7 elements (none at h = 0)
    and a body whose output starts on a 64-byte boundary; at each of the
    eight 8-byte offsets of the output mod 64, a plane and a stack of
    three get the bits of one subtract per element, f[j+1] - f[j-1] (with
    the wrap; the columns in between without it)."""
    from bfecc_maxwell.schemes import _dc

    f = np.random.default_rng(8).standard_normal(shape)
    want = np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)
    inner = np.s_[...] if wrap else np.s_[..., 1:-1]
    for k in range(8):
        out = at_offset(shape, k)
        program = _dc(f, f.ndim - 1, out, wrap, k)
        run_program(program)
        assert np.array_equal(out[inner], want[inner])
        h = -(k + 1) % 8
        assert len(program) == 1 + (h > 0) + 2 * wrap
        assert flat_runs(program, shape[-1]) == (int(h > 0), 1)
        if h:
            assert program[0][1][2].shape[-1] == h
        assert address_mod_64(program[int(h > 0)][1][2]) == 0


@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("shape", [(9, 11), (3, 9, 11)])
def test_row_shifted_differences_give_the_roll_bits_at_every_output_offset(shape, wrap):
    """`_dc` along the rows' axis (axis 0 of a plane, axis 1 of a stack of
    three odd planes) is one flat pass shifted by a row, split at its
    output's first 64-byte boundary.  At each of the eight 8-byte offsets
    of the output mod 64 it gives the bits of the roll reference (every
    row with the wrap; the rows in between without it, the others finite)
    and writes every body from a boundary."""
    from bfecc_maxwell.schemes import _dc

    f = np.random.default_rng(12).standard_normal(shape)
    axis = f.ndim - 2
    want = roll_dc(f, axis)
    inner = np.s_[...] if wrap else (slice(None),) * axis + (slice(1, -1),)
    for k in range(8):
        out = at_offset(shape, k)
        program = _dc(f, axis, out, wrap, k)
        run_program(program)
        assert np.array_equal(0.5 * out[inner], want[inner])
        assert np.isfinite(out).all()
        h = -(k + shape[-1]) % 8
        assert len(program) == 1 + (h > 0) + 2 * wrap
        assert flat_runs(program, shape[-1]) == (int(h > 0), 1)


@pytest.mark.parametrize("theta", [0.8, 1.0])
@pytest.mark.parametrize("wrap", [True, False])
@pytest.mark.parametrize("planes", [1, 3])
def test_the_flat_center_blend_gives_the_roll_bits_at_every_output_offset(planes, wrap, theta):
    """`_center_blend`'s i-neighbor add and its j-1 and j+1 adds each run as
    one flat pass over the whole stack, split at their outputs' first
    64-byte boundary.  At each of the eight 8-byte offsets of the output
    mod 64, on one 9 x 11 plane and on a stack of three, the blend gives
    the bits of the roll reference (everywhere with the wrap; inside the
    ring without it, where the ring holds finite sums) and writes every
    body from a boundary: the i pass starts a row, the j-1 pass one
    element, the j+1 pass no element past the output's start."""
    from bfecc_maxwell.schemes import _center_blend

    f = np.random.default_rng(13).standard_normal((planes, 9, 11))
    want = np.stack([roll_blend_2d(p, theta) for p in f])
    inner = np.s_[...] if wrap else np.s_[:, 1:-1, 1:-1]
    for k in range(8):
        out, spare = at_offset(f.shape, k), np.zeros(f.shape)
        program = _center_blend(theta, f, out, spare, wrap)
        run_program(program)
        assert np.array_equal(out[inner], want[inner])
        assert np.isfinite(out).all()
        heads = sum(-(k + shift) % 8 > 0 for shift in (11, 1, 0))
        # the three passes and their heads, the wrap's 2 + 2 * 2 entries,
        # the factor and, below theta 1, the (1 - theta) f term's 2
        assert len(program) == 3 + heads + 6 * wrap + 1 + 2 * (theta != 1.0)
        assert flat_runs(program, 11) == (heads, 3)


def test_a_bounded_blend_keeps_a_finite_ring_and_the_step_gives_the_ring_back():
    """On a bounded grid the blend's flat passes skip the wrap, so they
    write most of its ring, rows across plane junctions included, with
    sums across the junctions.  Over three ls_theta steps on an odd 29 x
    37 grid, into outputs filled with NaN, the blend stays finite
    everywhere, the junction rows are written, each output's ring is its
    input's, and the program's flat runs are split at their outputs'
    64-byte boundaries: the blend's i, j-1 and j+1 passes and the four
    differences, placed 37, 1, 0, 2n + 37, 1, 1 and n + 37 elements past
    their 64-byte-aligned stacks' starts (n = 29 * 37)."""
    from bfecc_maxwell.schemes import Workspace

    g = build_uniform(29, 37, ((0.0, 1.0), (0.0, 1.3)), "bounded")
    st = FieldState2(*np.random.default_rng(17).standard_normal((3, 29, 37)))
    work = Workspace()
    bind = _operator(SchemeSpec("ls_theta", 0.4 * g.dx), st, g, work=work)
    ring = StencilGeometry(g).ring
    n = 29 * 37
    heads = sum(-shift % 8 > 0 for shift in (37, 1, 0, 2 * n + 37, 1, 1, n + 37))
    u = st.u
    for _ in range(3):
        out = at_offset(u.shape, 0)
        out[...] = np.nan
        program = bind(0.4 * g.dx, u, out)
        run_program(program)
        blend = work("blend", u.shape)
        assert np.isfinite(blend).all() and np.isfinite(out).all()
        assert blend[1:, 0].all() and blend[:-1, -1].all()
        assert all(np.array_equal(out[points], u[points]) for points in ring)
        assert flat_runs(program, 37) == (heads, 7)
        u = out
