import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bfecc_maxwell.analysis import (
    ScanResult,
    accuracy_order,
    bfecc_symbol,
    bfecc_symbol_for,
    cfl_bound,
    exact_propagator,
    measured_phase_speed,
    phase_speed,
    stability_scan,
    symbol,
    theta_cfl_constant,
)
from bfecc_maxwell.bfecc import BfeccStep, bfecc_step
from bfecc_maxwell.grid import build_uniform
from bfecc_maxwell.harness import build_variant_grid
from bfecc_maxwell.schemes import (LS_CENTER, FieldState1, FieldState2, SchemeSpec,
                                   StencilGeometry, _operator, run_program)


def test_symbol_1d_structure():
    k, h, lam = 3, 1.0 / 16, 0.9
    t = 2.0 * np.pi * k * h
    Q = symbol("cd", 1, k, h, lam)
    assert Q.shape == (2, 2)
    assert Q[0, 0] == pytest.approx(1.0)
    assert Q[1, 1] == pytest.approx(1.0)
    assert Q[0, 1] == pytest.approx(1j * lam * np.sin(t))
    Qlf = symbol("lf", 1, k, h, lam)
    assert Qlf[0, 0] == pytest.approx(np.cos(t))


def test_half_mode_symbol_for_lf():
    # quarter-wavelength mode at unit ratio swaps the two characteristics
    Q = symbol("lf", 1, 4, 1.0 / 16, 1.0)
    expect = np.array([[0.0, 1j], [1j, 0.0]])
    assert np.max(np.abs(Q - expect)) < 1e-12


def test_theta_family_interpolates_named_kinds():
    k, h, lam = 5, 1.0 / 32, 0.7
    assert np.array_equal(symbol("theta", 1, k, h, lam, theta=0.0),
                          symbol("cd", 1, k, h, lam))
    assert np.array_equal(symbol("theta", 1, k, h, lam, theta=1.0),
                          symbol("lf", 1, k, h, lam))


def test_least_squares_kinds_have_no_closed_symbol():
    with pytest.raises(ValueError):
        symbol("ls_cd", 1, 3, 1.0 / 16, 0.5)


def test_backward_symbol_is_entrywise_conjugate():
    for kind in ("cd", "lf", "theta"):
        Q = symbol(kind, 1, 3, 1.0 / 16, 0.8, theta=0.3)
        Qb = symbol(kind, 1, 3, 1.0 / 16, -0.8, theta=0.3)
        assert np.array_equal(Qb, Q.conj())


def test_forward_backward_symbols_commute():
    for dims, k, lam in ((1, 3, 0.9), (2, (3, 5), (0.7, 0.7))):
        h = 1.0 / 16 if dims == 1 else (1.0 / 16, 1.0 / 16)
        Q = symbol("cd", dims, k, h, lam)
        C = Q.conj() @ Q - Q @ Q.conj()
        assert np.max(np.abs(C)) < 1e-13


def test_symbol_2d_eigenvalues():
    # one stationary eigenvalue and a conjugate pair 1 +- i r with
    # r^2 = (lam_x sin t_x)^2 + (lam_y sin t_y)^2
    k, h, lam = (3, 7), (1.0 / 16, 1.0 / 16), (0.8, 0.6)
    Q = symbol("cd", 2, k, h, lam)
    assert Q.shape == (3, 3)
    r = np.hypot(lam[0] * np.sin(2 * np.pi * k[0] * h[0]),
                 lam[1] * np.sin(2 * np.pi * k[1] * h[1]))
    got = np.sort_complex(np.linalg.eigvals(Q))
    want = np.sort_complex(np.array([1.0, 1.0 + 1j * r, 1.0 - 1j * r]))
    assert np.max(np.abs(got - want)) < 1e-12


def test_bfecc_symbol_composition():
    rng = np.random.default_rng(0)
    Q = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    expect = Q @ (1.5 * np.eye(2) - 0.5 * (Q.conj() @ Q))
    assert np.max(np.abs(bfecc_symbol(Q) - expect)) == 0.0


def test_bfecc_symbol_batched():
    rng = np.random.default_rng(1)
    Qs = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    batch = bfecc_symbol(Qs)
    for m in range(6):
        assert np.array_equal(batch[m], bfecc_symbol(Qs[m]))


def test_eigenvalue_amplification_law_single_mode():
    lam, k, h = 0.9, 5, 1.0 / 16
    ql = np.linalg.eigvals(symbol("cd", 1, k, h, lam))
    qb = np.sort_complex(np.linalg.eigvals(bfecc_symbol_for("cd", 1, k, h, lam)))
    law = np.sort_complex((1.0 + 0.5 * (1.0 - np.abs(ql) ** 2)) * ql)
    assert np.max(np.abs(qb - law)) < 1e-12


def test_exact_propagator_1d_rotation():
    k, dt = 2, 0.3
    w = 2.0 * np.pi * k * dt
    P = exact_propagator(k, dt, 1)
    expect = np.array([[np.cos(w), 1j * np.sin(w)], [1j * np.sin(w), np.cos(w)]])
    assert np.max(np.abs(P - expect)) < 1e-14


def test_exact_propagator_2d_identity_at_zero_mode():
    P = exact_propagator((0, 0), 0.17, 2)
    assert np.max(np.abs(P - np.eye(3))) < 1e-14


def test_exact_propagator_unitary():
    for k, dims in (((3,), 1), ((3, 4), 2)):
        arg = k[0] if dims == 1 else k
        P = exact_propagator(arg, 0.21, dims)
        eye = np.eye(P.shape[0])
        assert np.max(np.abs(P @ P.conj().T - eye)) < 1e-12


def test_scan_requires_enough_samples():
    with pytest.raises(ValueError):
        stability_scan("cd", 1, 0.5, 32)


def test_scan_result_consistency():
    sc = stability_scan("cd", 1, 1.2, 128)
    assert isinstance(sc, ScanResult)
    assert sc.radii.shape == (128,)
    assert sc.max_radius == sc.radii.max()
    assert sc.radii[sc.argmax] == sc.max_radius
    sc2 = stability_scan("cd", 2, (0.9, 1.1), 64)
    assert sc2.radii.shape == (64, 64)
    assert sc2.radii[sc2.argmax] == sc2.max_radius


def test_critical_ratio_is_marginally_stable():
    sc = stability_scan("cd", 1, np.sqrt(3.0), 512)
    assert sc.max_radius <= 1.0 + 1e-12
    assert sc.max_radius == pytest.approx(1.0, abs=1e-12)


def test_supercritical_growth_factor_closed_form():
    lam = 1.8
    sc = stability_scan("cd", 1, lam, 512)
    f1 = (1.0 - 0.5 * lam * lam) ** 2 * (1.0 + lam * lam)
    assert sc.max_radius == pytest.approx(np.sqrt(f1), rel=1e-12)


def test_plain_scan_exceeds_one_for_any_positive_ratio():
    sc = stability_scan("cd", 1, 0.4, 256, bfecc=False)
    assert sc.max_radius > 1.0


def test_theta_cfl_constant_endpoints():
    assert theta_cfl_constant(0.0) == math.sqrt(3.0)
    assert theta_cfl_constant(1.0) == 2.0
    c = theta_cfl_constant(0.8)
    assert np.sqrt(3.0) < c < 2.0


@settings(max_examples=40, deadline=None)
@given(theta=hst.floats(0.0, 1.0))
def test_theta_cfl_constant_is_the_scanned_stability_edge(theta):
    c = theta_cfl_constant(theta)
    assert stability_scan("theta", 1, c * (1.0 - 1e-9), 4096, theta=theta).max_radius <= 1.0 + 1e-12
    assert stability_scan("theta", 1, c * (1.0 + 1e-4), 4096, theta=theta).max_radius > 1.0


def test_theta_cfl_constant_increases_with_theta():
    c = [theta_cfl_constant(t) for t in np.linspace(0.0, 1.0, 201)]
    assert np.all(np.diff(c) > 0.0)


@pytest.mark.parametrize("theta", [-0.1, 1.5, float("nan")])
def test_theta_cfl_constant_rejects_theta_outside_unit_interval(theta):
    with pytest.raises(ValueError, match="theta must lie in"):
        theta_cfl_constant(theta)


def test_cfl_bound_closed_forms():
    assert cfl_bound("cd", 1, [0.01]) == pytest.approx(np.sqrt(3.0) * 0.01)
    assert cfl_bound("cd", 2, [0.1, 0.1]) == pytest.approx(np.sqrt(1.5) * 0.1)
    assert cfl_bound("lf", 1, [0.1]) == pytest.approx(0.2)
    assert cfl_bound("lf", 2, [0.1, 0.1]) == pytest.approx(np.sqrt(2.0) * 0.1)
    # unequal spacings: axis-aligned modes add their own restriction
    got = cfl_bound("lf", 2, [0.1, 0.05])
    expect = min(2.0 / np.sqrt(1.0 / 0.01 + 1.0 / 0.0025), np.sqrt(3.5) * 0.05)
    assert got == pytest.approx(expect)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(theta=hst.floats(0.0, 1.0), ratio=hst.floats(0.25, 4.0))
def test_cfl_bound_is_the_scanned_stability_edge_in_2d(theta, ratio):
    """The 2D bound is the exact edge for any hy/hx: stable just below it,
    unstable just above.  (Deterministic examples: each costs two
    256-sample scans.)"""
    bound = cfl_bound("theta", 2, (1.0, ratio), theta)

    def radius(dt):
        return stability_scan("theta", 2, (dt, dt / ratio), 256, theta=theta).max_radius

    assert radius(bound * (1.0 - 1e-9)) <= 1.0 + 1e-12
    assert radius(bound * (1.0 + 1e-4)) > 1.0


def test_worst_lattice_mode_keeps_its_energy_at_the_2d_bound():
    """On a 64 x 64 periodic grid with hy = hx / 2, the lattice mode that the
    theta(0.5) BFECC step amplifies most does not grow at dt = cfl_bound."""
    n, theta = 64, 0.5
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 0.5)), "periodic")
    dt = cfl_bound("theta", 2, (g.dx, g.dy), theta)
    lam = (dt / g.dx, dt / g.dy)
    i, j = stability_scan("theta", 2, lam, n, theta=theta).argmax
    q = bfecc_symbol(symbol("theta", 2, (i / (n * g.dx), j / (n * g.dy)), (g.dx, g.dy),
                            lam, theta))
    values, vectors = np.linalg.eig(q)
    mode = vectors[:, np.argmax(np.abs(values))]
    phase = 2.0 * np.pi * (i * np.arange(n)[:, None] + j * np.arange(n)[None, :]) / n
    st = FieldState2(*np.real(mode[:, None, None] * np.exp(1j * phase)))
    energy0 = np.sum(st.u ** 2)
    step = BfeccStep(SchemeSpec("theta", dt, theta))
    for _ in range(400):
        st = bfecc_step(step, st, g)
    assert np.sum(st.u ** 2) <= energy0 * (1.0 + 1e-9)


def test_cfl_bound_least_squares_kinds_map_to_uniform_limits():
    for dims, sp in ((1, [0.1]), (2, [0.1, 0.1]), (2, [0.1, 0.03])):
        for kind in ("ls_cd", "ls_theta"):
            assert cfl_bound(kind, dims, sp) == cfl_bound("theta", dims, sp, LS_CENTER[kind])
        assert cfl_bound("ls_cd", dims, sp) == cfl_bound("cd", dims, sp)


def step_matrix(step, grid, geometry):
    """The matrix of one BFECC step on `grid`, column by column: each unit
    vector of the stacked state stepped in place with the stepper's one
    program."""
    st = FieldState2._of(np.zeros((3, grid.nx, grid.ny)), None, None)
    columns = np.empty((st.u.size, st.u.size))
    for j in range(st.u.size):
        st.u[...] = 0.0
        st.u.flat[j] = 1.0
        bfecc_step(step, st, grid, geometry=geometry, out=st.u)
        columns[:, j] = st.u.reshape(-1)
    return columns


UNSTABLE_AT_THE_BOUND = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: the uniform bound that _check_cfl accepts for ls_theta "
                        "is no bound on grids with irregular stencils")


@pytest.mark.parametrize("variant", ["a"] + [pytest.param(v, marks=UNSTABLE_AT_THE_BOUND)
                                             for v in "bcd"])
def test_ls_theta_is_stable_at_the_accepted_bound(variant):
    """The dense BFECC step matrix of ls_theta at dt = cfl_bound on the
    12 x 12 periodic grid `variant` has spectral radius at most 1 + 1e-10
    (stable cases read about 1e-14 above 1).  It holds on the uniform grid
    a; on b, c and d the radius reads 3.86, 1.92 and 1 + 1.3e-3 (about
    0.15 s a grid with one BLAS thread)."""
    g = build_variant_grid(variant, 12)
    step = BfeccStep(SchemeSpec("ls_theta", cfl_bound("ls_theta", 2, (g.dx, g.dy))))
    radius = np.abs(np.linalg.eigvals(step_matrix(step, g, StencilGeometry(g)))).max()
    assert radius <= 1.0 + 1e-10


GROWS_AT_EVERY_DT = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: ls_cd's spatial operator has eigenvalues of positive "
                        "real part on grids with irregular stencils")


@pytest.mark.parametrize("variant", ["a"] + [pytest.param(v, marks=GROWS_AT_EVERY_DT)
                                             for v in "bcd"])
def test_ls_cd_spatial_operator_has_no_growing_mode(variant):
    """ls_cd steps u + sdt A u; the dense A = L(1) - I on the 12 x 12
    periodic grid `variant`, built column by column from the bound
    operator, has max Re(eig) at most 1e-10.  It holds on the uniform grid
    a (about 1e-14); on b, c and d it reads 0.41, 0.47 and 0.23, so no dt
    is stable there."""
    g = build_variant_grid(variant, 12)
    u = np.zeros((3, g.nx, g.ny))
    out = np.empty_like(u)
    program = _operator(SchemeSpec("ls_cd", 1.0), FieldState2._of(u, None, None), g,
                        StencilGeometry(g))(1.0, u, out)
    columns = np.empty((u.size, u.size))
    for j in range(u.size):
        u[...] = 0.0
        u.flat[j] = 1.0
        run_program(program)
        columns[:, j] = out.reshape(-1) - u.reshape(-1)
    assert np.linalg.eigvals(columns).real.max() <= 1e-10


def test_cfl_bound_validation():
    with pytest.raises(ValueError):
        cfl_bound("cd", 2, [0.1])
    for dims in (3, 4):
        with pytest.raises(ValueError):
            cfl_bound("cd", dims, [0.1] * dims)
    for h in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cfl_bound("cd", 1, [h])
    with pytest.raises(ValueError, match="differ too much"):
        cfl_bound("theta", 2, [1e-300, 1.0], theta=0.5)


@pytest.mark.parametrize("h", [1e-200, 1e-160, 1e160, 1e200])
def test_cfl_bound_2d_scales_with_tiny_and_huge_spacings(h):
    # the edge is computed for unit spacings and scaled back, so squares
    # of the spacings never underflow or overflow
    for kind, theta in (("cd", 0.0), ("theta", 0.5), ("lf", 0.0)):
        got = cfl_bound(kind, 2, [h, h], theta)
        assert got == pytest.approx(h * cfl_bound(kind, 2, [1.0, 1.0], theta), rel=1e-14)


def test_accuracy_order_returns_float():
    p = accuracy_order("cd", 1, 0.5, bfecc=True, levels=4)
    assert isinstance(p, float)
    assert p > 2.5


def test_phase_speed_value_at_quarter_wavelength():
    v = phase_speed(np.sqrt(3.0), np.pi / 2)
    assert v == pytest.approx(-2.0 / (3.0 * np.sqrt(3.0)), rel=1e-12)


def test_phase_speed_long_wave_limit():
    assert phase_speed(0.5, 1e-6) == pytest.approx(1.0, abs=1e-9)


def test_phase_speed_domain_errors():
    with pytest.raises(ValueError):
        phase_speed(0.5, 0.0)
    with pytest.raises(ValueError):
        phase_speed(1.8, np.pi / 2)
    for lam, kh in ((float("nan"), 0.5), (0.5, float("nan")), (float("inf"), 0.5), (0.0, 0.5)):
        with pytest.raises(ValueError):
            phase_speed(lam, kh)


def test_measured_phase_speed_needs_room_for_the_pulse():
    with pytest.raises(ValueError):
        measured_phase_speed(0.5, 0.5, steps=100, n=100)
    with pytest.raises(ValueError):
        measured_phase_speed(0.5, 0.5, steps=0)


def test_growth_factor_bridge_symbol_vs_time_domain():
    """After enough steps the per-step norm growth of an unstable run locks
    onto the scanned spectral radius."""
    n = 16
    lam = 1.8
    dx = 1.0 / n
    sc = stability_scan("cd", 1, lam, 512)
    rng = np.random.default_rng(21)
    step = BfeccStep(SchemeSpec("cd", lam * dx))
    prev = None
    st = FieldState1(rng.standard_normal(n), rng.standard_normal(n))
    for j in range(120):
        st = bfecc_step(step, st, dx)
        if j == 118:
            prev = np.sqrt(np.sum(st.E ** 2) + np.sum(st.H ** 2))
    last = np.sqrt(np.sum(st.E ** 2) + np.sum(st.H ** 2))
    assert last / prev == pytest.approx(sc.max_radius, abs=1e-10)


@pytest.mark.parametrize("call, error, words", [
    (lambda: symbol("cd", 3, 3, 1.0 / 16, 0.5), ValueError, "dims must be 1 or 2, got 3"),
    (lambda: exact_propagator(3, 0.1, 0), ValueError, "dims must be 1 or 2, got 0"),
    (lambda: stability_scan("cd", 3, 0.5, 64), ValueError, "dims must be 1 or 2, got 3"),
])
def test_a_dimension_other_than_1_or_2_is_a_one_line_value_error(call, error, words):
    """symbol, exact_propagator and stability_scan take dims 1 or 2 only."""
    with pytest.raises(error) as exc:
        call()
    assert "\n" not in str(exc.value) and words in str(exc.value)


def test_a_scalar_2d_mode_spacing_and_ratio_mean_the_same_on_both_axes():
    """In 2D a scalar k, h or lam stands for the pair of two equal values."""
    h = 1.0 / 16
    assert np.array_equal(symbol("theta", 2, 3, h, 0.5, 0.4),
                          symbol("theta", 2, (3, 3), (h, h), (0.5, 0.5), 0.4))
    assert np.array_equal(exact_propagator(2, 0.1, 2), exact_propagator((2, 2), 0.1, 2))
