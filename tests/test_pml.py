import numpy as np
import pytest

from bfecc_maxwell.bfecc import BfeccStep, bfecc_step
from bfecc_maxwell.grid import build_uniform
from bfecc_maxwell.pml import (
    PmlRunner,
    TfsfSource,
    build_pml,
)
from bfecc_maxwell.schemes import FieldState2, SchemeSpec, StencilGeometry, step_2d


def bounded_grid(n):
    return build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "bounded")


def zero_state(n):
    z = np.zeros((n, n))
    return FieldState2(z.copy(), z.copy(), z.copy(), np.ones((n, n)), np.ones((n, n)))


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    return FieldState2(rng.standard_normal((n, n)), rng.standard_normal((n, n)),
                       rng.standard_normal((n, n)), np.ones((n, n)), np.ones((n, n)))


def test_build_pml_validation():
    g = bounded_grid(40)
    dt = 0.5 * g.dx
    gp = build_uniform(40, 40, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    with pytest.raises(ValueError):
        build_pml(gp, dt)
    with pytest.raises(ValueError):
        build_pml(g, dt, thickness=-1)
    with pytest.raises(ValueError):
        build_pml(g, dt, sigma_max=-2.0)
    for exponent in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="exponent"):
            build_pml(g, dt, exponent=exponent)
    with pytest.raises(ValueError):
        build_pml(bounded_grid(20), dt, thickness=10)  # needs 2t + 3 nodes


def test_damping_coefficients_at_half_decay():
    # sigma dt = ln 2 at the outer boundary gives b = 1/2, c = -1/2
    g = bounded_grid(40)
    dt = 0.5 * g.dx
    pml = build_pml(g, dt, thickness=10, sigma_max=np.log(2.0) / dt)
    assert pml.b_x[0] == pytest.approx(0.5, rel=1e-14)
    assert pml.b_x[-1] == pytest.approx(0.5, rel=1e-14)
    assert pml.c_x[0] == pytest.approx(-0.5, rel=1e-14)
    assert pml.b_y[0] == pytest.approx(0.5, rel=1e-14)
    # undamped interior passes through unchanged
    assert pml.b_x[20] == 1.0
    assert pml.c_x[20] == 0.0


def test_cubic_depth_profile():
    g = bounded_grid(40)
    dt = 0.5 * g.dx
    pml = build_pml(g, dt, thickness=10, sigma_max=5.0, exponent=3.0)
    assert pml.sigma_x[0] == pytest.approx(5.0)
    assert pml.sigma_x[1] / pml.sigma_x[0] == pytest.approx(0.9 ** 3, rel=1e-12)
    assert pml.sigma_x[10] == 0.0


def test_default_strength_scales_with_spacing():
    g = bounded_grid(40)
    pml = build_pml(g, 0.5 * g.dx)
    assert pml.sigma_x[0] == pytest.approx(8.0 / min(g.dx, g.dy))


def test_memory_recursion_fixed_point():
    """With a frozen gradient g the recursion psi <- b psi + c g has fixed
    point c g / (1 - b) = -g since c = b - 1."""
    n = 40
    g = bounded_grid(n)
    dt = 0.5 * g.dx
    pml = build_pml(g, dt, thickness=10, sigma_max=np.log(2.0) / dt)
    r = PmlRunner(g, SchemeSpec("ls_theta", dt), pml)
    inside = r.geom.interior
    grad = 0.7
    fhx = np.zeros((3,) + r.geom.shape)
    fhy = np.zeros((3,) + r.geom.shape)
    fez = np.zeros((3,) + r.geom.shape)
    fez[1] = fez[2] = grad
    fhx[2] = grad
    fhy[1] = grad
    # invariance: seed the fixed point, one update must not move it
    for psi, c in ((pml.psi_hyx, r.cx), (pml.psi_hxy, r.cy),
                   (pml.psi_ezx, r.cx), (pml.psi_ezy, r.cy)):
        psi[inside] = np.where(c != 0.0, -grad, 0.0)
    before = pml.psi_hyx.copy()
    r._advance_memory((fhx, fhy, fez))
    assert np.max(np.abs(pml.psi_hyx - before)) < 1e-14
    # convergence from zero is geometric with ratio b; the update skips the
    # boundary ring, so check the most damped nodes that do update
    for psi in (pml.psi_hxy, pml.psi_hyx, pml.psi_ezx, pml.psi_ezy):
        psi[:] = 0.0
    for _ in range(200):
        r._advance_memory((fhx, fhy, fez))
    psi = pml.psi_hyx[inside]
    cx = np.broadcast_to(r.cx, psi.shape)
    bx = np.broadcast_to(r.bx, psi.shape)
    deep = bx == bx[cx != 0.0].min()
    assert deep.any()
    assert np.max(np.abs(psi[deep] + grad)) < 1e-12
    # no memory accumulates where the damping vanishes
    assert np.max(np.abs(psi[cx == 0.0])) == 0.0
    # the boundary ring has no update rule and keeps no memory
    ring = np.ones(pml.psi_hyx.shape, dtype=bool)
    ring[inside] = False
    assert np.max(np.abs(pml.psi_hyx[ring])) == 0.0


def test_collar_memory_accumulates_while_stepping():
    n = 40
    g = bounded_grid(n)
    dt = 0.5 * g.dx
    pml = build_pml(g, dt, thickness=10)
    r = PmlRunner(g, SchemeSpec("ls_theta", dt), pml)
    st = zero_state(n)
    st.Ez[n // 2, n // 2] = 1.0
    for k in range(30):
        st = r.step(st, k * dt)
    assert np.max(np.abs(pml.psi_ezx)) > 0.0


def test_zero_strength_collar_is_inert():
    n = 40
    g = bounded_grid(n)
    dt = 0.5 * g.dx
    pml = build_pml(g, dt, thickness=10, sigma_max=0.0)
    geom = StencilGeometry(g)
    w = geom.cached_weights()
    r = PmlRunner(g, SchemeSpec("ls_theta", dt), pml, geometry=geom, weights=w)
    step = BfeccStep(SchemeSpec("ls_theta", dt))
    a = random_state(n, seed=3)
    b = FieldState2(a.Hx.copy(), a.Hy.copy(), a.Ez.copy(), a.eps, a.mu)
    for k in range(3):
        a = r.step(a, k * dt)
        b = bfecc_step(step, b, g, geometry=geom, weights=w)
    scale = max(np.max(np.abs(b.Hx)), np.max(np.abs(b.Hy)), np.max(np.abs(b.Ez)))
    diff = max(np.max(np.abs(a.Hx - b.Hx)), np.max(np.abs(a.Hy - b.Hy)),
               np.max(np.abs(a.Ez - b.Ez)))
    assert diff <= 1e-15 * scale


def test_plain_step_with_zero_strength_matches_single_substep():
    n = 40
    g = bounded_grid(n)
    dt = 0.5 * g.dx
    spec = SchemeSpec("ls_theta", dt)
    pml = build_pml(g, dt, thickness=10, sigma_max=0.0)
    geom = StencilGeometry(g)
    w = geom.cached_weights()
    r = PmlRunner(g, spec, pml, geometry=geom, weights=w)
    a = random_state(n, seed=4)
    out = r.plain_step(a, 0.0)
    expect = step_2d(spec, a, g, geometry=geom, weights=w)
    assert np.max(np.abs(out.Ez - expect.Ez)) <= 1e-15 * np.max(np.abs(expect.Ez))


def test_runner_rejects_unsupported_configurations():
    n = 40
    g = bounded_grid(n)
    dt = 0.5 * g.dx
    pml = build_pml(g, dt, thickness=10)
    with pytest.raises(ValueError):
        PmlRunner(g, SchemeSpec("cd", dt), pml)
    with pytest.raises(ValueError):
        PmlRunner(g, SchemeSpec("ls_theta", dt).reversed(), pml)
    # recursion coefficients built for another step size
    with pytest.raises(ValueError, match="built for dt"):
        PmlRunner(g, SchemeSpec("ls_theta", dt), build_pml(g, 4 * dt, thickness=10))
    # source window may not reach into the damped collar
    src = TfsfSource(rect=(0.1, 0.9, 0.1, 0.9))
    with pytest.raises(ValueError):
        PmlRunner(g, SchemeSpec("ls_theta", dt), pml, source=src)


def test_source_validation():
    with pytest.raises(ValueError):
        TfsfSource(rect=(0.7, 0.3, 0.3, 0.7))
    with pytest.raises(ValueError):
        TfsfSource(rect=(0.3, 0.7, 0.3, 0.7), omega=0.0)
    with pytest.raises(ValueError):
        TfsfSource(rect=(0.3, 0.7, 0.3, 0.7), ramp_time=-1.0)


def test_window_indicator_with_edge_tolerance():
    src = TfsfSource(rect=(0.3, 0.7, 0.3, 0.7))
    x = np.array([0.3, 0.3 - 1e-12, 0.3 - 1e-6, 0.5, 0.7 + 1e-12, 0.75])
    y = np.full_like(x, 0.5)
    assert np.array_equal(src.chi(x, y), [1.0, 1.0, 0.0, 1.0, 1.0, 0.0])


def test_incident_wave_shape():
    src = TfsfSource(rect=(0.3, 0.7, 0.3, 0.7), amplitude=2.0)
    x = np.array([0.45])
    y = np.array([0.5])
    # quiet before the front reaches the probe
    assert src.ez_inc(x, y, 0.0)[0] == pytest.approx(0.0)
    # after the ramp the wave is a plane sine moving along +x
    t = 1.3
    u = t - (x[0] - 0.3)
    assert src.ez_inc(x, y, t)[0] == pytest.approx(2.0 * np.sin(src.omega * u), rel=1e-12)
    # inside the turn-on window the sine is shaped by a smooth squared-sine gate
    tm = 0.3
    gate = np.sin(0.5 * np.pi * tm / 0.6) ** 2
    assert src.ez_inc(np.array([0.3]), y, tm)[0] == pytest.approx(
        2.0 * np.sin(src.omega * tm) * gate, abs=1e-15)


def test_zero_amplitude_source_is_a_no_op():
    n = 40
    g = bounded_grid(n)
    dt = 0.5 * g.dx
    spec = SchemeSpec("ls_theta", dt)
    src = TfsfSource(rect=(0.3, 0.7, 0.3, 0.7), amplitude=0.0)
    pml_a = build_pml(g, dt, thickness=10)
    pml_b = build_pml(g, dt, thickness=10)
    a = random_state(n, seed=6)
    b = FieldState2(a.Hx.copy(), a.Hy.copy(), a.Ez.copy(), a.eps, a.mu)
    ra = PmlRunner(g, spec, pml_a, source=src)
    rb = PmlRunner(g, spec, pml_b)
    for k in range(3):
        a = ra.step(a, k * dt)
        b = rb.step(b, k * dt)
    assert np.array_equal(a.Ez, b.Ez)
    assert np.array_equal(a.Hx, b.Hx)


def test_vacuum_window_reproduces_incident_wave():
    """Total field inside the window tracks the incident plane wave and the
    scattered region stays quiet when nothing scatters."""
    n = 80
    g = bounded_grid(n)
    dt = 0.5 * g.dx
    src = TfsfSource(rect=(0.3, 0.7, 0.3, 0.7))
    r = PmlRunner(g, SchemeSpec("ls_theta", dt), build_pml(g, dt, thickness=10),
                  source=src)
    st = zero_state(n)
    steps = int(round(1.5 / dt))
    t = 0.0
    for _ in range(steps):
        st = r.step(st, t)
        t += dt
    X = g.coords[:, :, 0]
    Y = g.coords[:, :, 1]
    chi = src.chi(X, Y)
    inc = src.ez_inc(X, Y, t)
    h = g.dx
    band = ((np.abs(X - 0.3) < 2 * h) | (np.abs(X - 0.7) < 2 * h)
            | (np.abs(Y - 0.3) < 2 * h) | (np.abs(Y - 0.7) < 2 * h))
    total = (chi > 0.5) & ~band
    quiet = (chi < 0.5) & ~band
    rel = np.sqrt(np.sum((st.Ez[total] - inc[total]) ** 2) / np.sum(inc[total] ** 2))
    leak = np.sqrt(np.mean(st.Ez[quiet] ** 2))
    assert rel <= 0.02
    assert leak <= 0.02 * src.amplitude


def test_driven_window_period():
    n = 40
    g = bounded_grid(n)
    dt = 0.5 * g.dx
    src = TfsfSource(rect=(0.3, 0.7, 0.3, 0.7))
    r = PmlRunner(g, SchemeSpec("ls_theta", dt), build_pml(g, dt, thickness=10),
                  source=src)
    st = zero_state(n)
    trace = []
    t = 0.0
    for _ in range(400):
        st = r.step(st, t)
        t += dt
        trace.append(st.Ez[n // 2, n // 2])
    trace = np.asarray(trace)[int(0.8 / dt):]
    trace = trace - trace.mean()
    padded = np.fft.rfft(trace * np.hanning(trace.size), 32 * trace.size)
    freqs = np.fft.rfftfreq(32 * trace.size, dt)
    period = 1.0 / freqs[np.argmax(np.abs(padded))]
    assert abs(period - 0.6) / 0.6 <= 0.01
