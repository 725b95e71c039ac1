import copy
import warnings

import numpy as np
import pytest

from bfecc_maxwell import pml as pml_module
from bfecc_maxwell.bfecc import BfeccStep, bfecc_program, bfecc_step
from bfecc_maxwell.grid import build_uniform
from bfecc_maxwell.harness import ExperimentConfig, build_scatter_grid, run_experiment
from bfecc_maxwell.pml import (
    PmlRunner,
    TfsfInjector,
    TfsfSource,
    build_pml,
)
from bfecc_maxwell.schemes import (
    LS_CENTER,
    FieldState1,
    FieldState2,
    SchemeSpec,
    StencilGeometry,
    Workspace,
    _correction_weights,
    _kernel_2d,
    _ls_binding,
    _ls_fit_all,
    run_program,
    step_2d,
)


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
    # NaN would give NaN recursion coefficients and inf a 0 * inf in the
    # undamped interior; both stop with one line instead
    for bad_dt, sigma_max in ((np.inf, None), (np.nan, None), (dt, np.nan), (dt, np.inf)):
        with pytest.raises(ValueError, match="must be") as info:
            build_pml(g, bad_dt, sigma_max=sigma_max)
        assert "\n" not in str(info.value)


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
    point c g / (1 - b) = -g since c = b - 1.  Plain steps taken again and
    again from one linear state, Hx = a y, Hy = a x, Ez = a (x + y), freeze
    all four gradients at a, which the memory holds as raw differences,
    2 dx a and 2 dy a."""
    n = 40
    g = bounded_grid(n)
    dt = 0.5 * g.dx
    pml = build_pml(g, dt, thickness=10, sigma_max=np.log(2.0) / dt)
    r = PmlRunner(g, SchemeSpec("ls_theta", dt), pml)
    inside = r.geom.interior
    shape = (n, n)
    cx = np.broadcast_to(pml.c_x[:, None], shape)
    cy = np.broadcast_to(pml.c_y[None, :], shape)
    grad = 0.7
    x, y = g.coords[:, :, 0], g.coords[:, :, 1]
    st = FieldState2(grad * y, grad * x, grad * (x + y), np.ones(shape), np.ones(shape))
    # invariance: seed the fixed point, one update must not move it
    raw_x, raw_y = 2.0 * g.dx * grad, 2.0 * g.dy * grad
    for psi, c, raw in ((pml.psi_hyx, cx, raw_x), (pml.psi_hxy, cy, raw_y),
                        (pml.psi_ezx, cx, raw_x), (pml.psi_ezy, cy, raw_y)):
        psi[inside] = np.where(c != 0.0, -raw, 0.0)[inside]
    before = pml.psi_hyx.copy()
    r.plain_step(st, 0.0)
    assert np.max(np.abs(pml.psi_hyx - before)) < 1e-14 * 2.0 * g.dx
    # convergence from zero is geometric with ratio b; check the most damped
    # nodes that update
    for psi in (pml.psi_hxy, pml.psi_hyx, pml.psi_ezx, pml.psi_ezy):
        psi[:] = 0.0
    for _ in range(200):
        r.plain_step(st, 0.0)
    psi = pml.psi_hyx[inside]
    cx = cx[inside]
    bx = np.broadcast_to(pml.b_x[:, None], shape)[inside]
    deep = bx == bx[cx != 0.0].min()
    assert deep.any()
    assert np.max(np.abs(psi[deep] + raw_x)) < 1e-12 * 2.0 * g.dx
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
    # the outer ring has no update rule and keeps no memory
    ring = np.ones((n, n), dtype=bool)
    ring[r.geom.interior] = False
    for psi in (pml.psi_hxy, pml.psi_hyx, pml.psi_ezx, pml.psi_ezy):
        assert np.max(np.abs(psi[ring])) == 0.0
    # nor does any point outside the rows (x memory) and columns (y memory)
    # where the damping acts
    undamped_x = pml.c_x == 0.0
    undamped_y = pml.c_y == 0.0
    assert undamped_x.any() and undamped_y.any()
    for psi in (pml.psi_hyx, pml.psi_ezx):
        assert np.all(psi[undamped_x] == 0.0)
        assert np.max(np.abs(psi[~undamped_x])) > 0.0
    for psi in (pml.psi_hxy, pml.psi_ezy):
        assert np.all(psi[:, undamped_y] == 0.0)
        assert np.max(np.abs(psi[:, ~undamped_y])) > 0.0


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
    # recursion coefficients built for another step size
    with pytest.raises(ValueError, match="built for dt"):
        PmlRunner(g, SchemeSpec("ls_theta", dt), build_pml(g, 4 * dt, thickness=10))
    # source window may not reach into the damped collar
    src = TfsfSource(rect=(0.1, 0.9, 0.1, 0.9))
    with pytest.raises(ValueError):
        PmlRunner(g, SchemeSpec("ls_theta", dt), pml, source=src)
    # a state of another shape or type is rejected when the runner binds
    # it, with the one line the BFECC stepper gives
    small = bounded_grid(24)
    spec = SchemeSpec("ls_theta", 0.5 * small.dx)
    r = PmlRunner(small, spec, build_pml(small, spec.dt, thickness=4))
    wrong = random_state(20)
    mismatch = r"^state shape \(20, 20\) does not match grid \(24, 24\)$"
    with pytest.raises(ValueError, match=mismatch):
        bfecc_step(BfeccStep(spec), wrong, small)
    for step in (r.step, r.plain_step):
        with pytest.raises(ValueError, match=mismatch):
            step(wrong, 0.0)
        with pytest.raises(TypeError, match="FieldState1"):
            step(FieldState1(np.zeros(22), np.zeros(22)), 0.0)
    # the runner still steps a state of its grid after the rejections
    assert r.step(random_state(24), 0.0).u.shape == (3, 24, 24)


def test_a_runner_binds_once_per_materials_and_shares_the_binding(monkeypatch):
    built = []
    original = pml_module.TfsfInjector

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(pml_module, "TfsfInjector", counting)
    n = 40
    g = bounded_grid(n)
    dt = 0.5 * g.dx
    spec = SchemeSpec("ls_theta", dt)
    src = TfsfSource(rect=(0.35, 0.65, 0.35, 0.65))
    rng = np.random.default_rng(21)
    eps = rng.uniform(1.0, 2.0, (n, n))
    r = PmlRunner(g, spec, build_pml(g, dt, thickness=10), src)
    st = r.step(FieldState2(*rng.standard_normal((3, n, n)), eps=eps), 0.0)
    assert len(built) == 1
    # a new state around the same material arrays keeps the binding
    st = r.step(FieldState2(*st.u, eps=st.eps, mu=st.mu), dt)
    assert len(built) == 1
    # another eps array binds again, and the runner steps like a fresh one
    # on a copy of its collar
    fresh = PmlRunner(g, spec, copy.deepcopy(r.pml), src)
    other = FieldState2(*st.u, eps=2.0 * eps)
    a, b = r.step(other, 2 * dt), fresh.step(other, 2 * dt)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(r.pml.psi_ezx, fresh.pml.psi_ezx)
    assert len(built) == 3
    # a with_dt copy shares the binding
    h = 0.4 * dt
    a, b = r.with_dt(h).step(a, 3 * dt), fresh.with_dt(h).step(b, 3 * dt)
    assert np.array_equal(a.u, b.u)
    assert len(built) == 3
    # and the kept runner still steps dt
    again = PmlRunner(g, spec, copy.deepcopy(r.pml), src)
    assert r.spec.dt == dt
    assert np.array_equal(r.step(a, 3 * dt + h).u, again.step(a, 3 * dt + h).u)


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


def scatter_setup(n=16):
    """The cylinder scatter grid of resolution n, its permittivity, a
    random positive permeability and the default plane-wave source."""
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta")
    g, eps = build_scatter_grid(cfg, n)
    mu = np.random.default_rng(11).uniform(0.5, 2.0, (g.nx, g.ny))
    return g, eps, mu, TfsfSource(cfg.tfsf_rect), 0.5 / n


def direct_corrections(source, geom, kind, eps, mu, t, sdt):
    """Edge corrections by their defining formula: the incident field at
    every (rows, 5) stencil position, one contraction per (weight, field)
    pair.  Returns the field index of the rows and (dHx, dHy, dEz)."""
    inside = geom.interior
    pos = geom.grid.coords[inside].reshape(-1, 1, 2) + geom.offsets
    ax, ay = pos[:, :, 0], pos[:, :, 1]
    chi = source.chi(ax, ay)
    dchi = chi[:, 0:1] - chi
    rows = np.nonzero(np.any(dchi != 0.0, axis=1))[0]
    d = dchi[rows]
    w = geom.fit_weights(rows)
    field = tuple(r + inside[0].start for r in np.unravel_index(rows, geom.shape))
    inv_eps = 1.0 if eps is None else 1.0 / eps[field]
    inv_mu = 1.0 if mu is None else 1.0 / mu[field]
    ez = source.ez_inc(ax[rows], ay[rows], t)
    hy = -ez
    dw0, dwx, dwy = (d * w[:, k, :] for k in range(3))
    sx_ez = np.einsum("as,as->a", dwx, ez)
    sy_ez = np.einsum("as,as->a", dwy, ez)
    sx_hy = np.einsum("as,as->a", dwx, hy)
    dhx = -sdt * inv_mu * sy_ez
    dhy = sdt * inv_mu * sx_ez
    dez = sdt * inv_eps * sx_hy
    if kind == "ls_theta":
        dhy = dhy + np.einsum("as,as->a", dw0, hy)
        dez = dez + np.einsum("as,as->a", dw0, ez)
    return field, (dhx, dhy, dez)


@pytest.mark.parametrize("kind", ["ls_cd", "ls_theta"])
@pytest.mark.parametrize("t", [-0.2, 0.3, 1.7])
def test_edge_corrections_equal_the_direct_formula(kind, t):
    """Before the front, mid-ramp and after the ramp, in both directions,
    the corrections from the distinct x positions equal the direct formula
    bit for bit (up to the sign of zero) at the same field points."""
    g, eps, mu, src, dt = scatter_setup()
    geom = StencilGeometry(g)
    inj = TfsfInjector(src, geom, kind, eps, mu)
    assert inj.x.size < inj.x_index.size
    for sdt in (dt, -dt):
        field, expect = direct_corrections(src, geom, kind, eps, mu, t, sdt)
        plane = g.nx * g.ny
        assert np.array_equal(inj.index - np.arange(3)[:, None] * plane,
                              np.broadcast_to(np.ravel_multi_index(field, (g.nx, g.ny)),
                                              inj.index.shape))
        got = inj.corrections(t, sdt)
        assert np.array_equal(got, np.stack(expect))
        if t < 0:
            assert not got.any()
        else:
            assert np.abs(got).max() > 0.0


def reference_steps(g, spec, pml, source, state, t0, steps):
    """The collar and injection worked over whole planes, as their
    definition reads, on the kernel's raw differences (memory in the same
    units): (1 + c) and b psi on every point of every substep, the
    recursion over every point, the corrections of each substep from the
    direct formula.  Yields the state after each step."""
    geom = StencilGeometry(g)
    th = LS_CENTER[spec.kind]
    w = _correction_weights(g, geom.cached_weights(), th)
    work = Workspace()
    shape = (g.nx, g.ny)
    bx, cx = (np.broadcast_to(a[:, None], shape) for a in (pml.b_x, pml.c_x))
    by, cy = (np.broadcast_to(a[None, :], shape) for a in (pml.b_y, pml.c_y))
    # the kernel's raw difference planes k = 1-4: d/dx Hy, d/dy Hx, d/dy Ez, d/dx Ez
    collar = ((pml.psi_ezx, bx, cx), (pml.psi_ezy, by, cy),
              (pml.psi_hxy, by, cy), (pml.psi_hyx, bx, cx))
    inv = [None if m is None else 1.0 / m for m in (state.eps, state.mu)]
    grads = np.empty((4,) + shape)
    dt = spec.dt

    def substep(t, k, v, out):
        """Substep k's program: the fit, the kernel with the whole-plane
        collar on its planes, then the direct corrections."""
        sdt, at = (-dt, t + dt) if k == 1 else (dt, t)
        args, ls_hook = _ls_binding(geom, w, th, work, v)

        def collar_plane(p, plane):
            if p == 0:
                return ()
            psi, b, c = collar[p - 1]
            keep = ((np.copyto, (grads[p - 1], plane)),) if k == 0 else ()
            memory = ((lambda: np.add(plane, psi * b, out=plane), ()),) if k == 2 else ()
            return (*keep, (np.multiply, (plane, 1.0 + c, plane)), *memory)

        def hook(planes):
            return tuple(irregular + collar_plane(p, plane)
                         for p, (irregular, plane) in enumerate(zip(ls_hook(planes), planes)))

        def inject():
            if source is not None:
                field, ds = direct_corrections(source, geom, spec.kind, state.eps, state.mu, at,
                                               sdt)
                for f, d in zip(out, ds):
                    f[field] += d

        return ((_ls_fit_all, args), *_kernel_2d(g, th, *inv, work, sdt, v, out, hook, geom.ring),
                (inject, ()))

    u = state.u
    for n in range(steps):
        t = t0 + n * dt
        out = np.empty_like(u)
        run_program(bfecc_program(lambda k, v, o: substep(t, k, v, o), u, out, work))
        u = out
        for ring in geom.ring:
            grads[ring] = 0.0
        for gk, (psi, b, c) in zip(grads, collar):
            psi *= b
            psi += gk * c
        yield u


@pytest.mark.parametrize("kind", ["ls_cd", "ls_theta"])
@pytest.mark.parametrize("thickness, sigma_max", [(10, None), (0, None), (10, 0.0)])
def test_runner_steps_equal_the_whole_plane_collar(kind, thickness, sigma_max):
    """Five steps of the runner, whose collar works on its damped blocks
    only and whose forward substeps share one set of corrections, equal
    the whole-plane definition bit for bit (up to the sign of zero), the
    memory fields included; the inert collars do no block work."""
    g, eps, mu, src, dt = scatter_setup()
    spec = SchemeSpec(kind, dt)
    pml = build_pml(g, dt, thickness, sigma_max)
    ref_pml = build_pml(g, dt, thickness, sigma_max)
    r = PmlRunner(g, spec, pml, source=src)
    assert all(bool(blocks) == (thickness > 0 and sigma_max != 0.0)
               for blocks in r._collar[1:])
    rng = np.random.default_rng(12)
    st = FieldState2(*rng.standard_normal((3, g.nx, g.ny)), eps=eps, mu=mu)
    t0 = 0.2
    ref = reference_steps(g, spec, ref_pml, src, st, t0, 5)
    for n, want in enumerate(ref):
        st = r.step(st, t0 + n * dt)
        assert np.array_equal(st.u, want)
        for name in ("psi_hxy", "psi_hyx", "psi_ezx", "psi_ezy"):
            assert np.array_equal(getattr(pml, name), getattr(ref_pml, name))
    if thickness > 0 and sigma_max != 0.0:
        assert np.abs(pml.psi_ezx).max() > 0.0


@pytest.mark.parametrize("t", [0.0, 0.3, 1.7])
def test_kept_contractions_equal_a_fresh_injector(t):
    """The injector keeps the last time's contractions; whatever came
    before, every call gives the bits of a fresh injector's first call."""
    g, eps, mu, src, dt = scatter_setup()
    geom = StencilGeometry(g)
    inj = TfsfInjector(src, geom, "ls_theta", eps, mu)
    calls = [(t, dt), (t + dt, -dt), (t + dt, dt), (t, -dt), (t, -0.5 * dt), (t, 0.5 * dt),
             (t - 2 * dt, dt), (t, dt)]
    for at, sdt in calls:
        got = inj.corrections(at, sdt).copy()
        fresh = TfsfInjector(src, geom, "ls_theta", eps, mu).corrections(at, sdt)
        assert got.tobytes() == fresh.tobytes()


def test_the_incident_wave_is_evaluated_once_per_time_level(monkeypatch):
    """A 6-step scatter run with dyadic dt asks for the edge corrections
    twice per step, at (t, dt) and (t + dt, -dt), but evaluates the
    incident wave once per time level, 7 times: the backward substep of
    step k and the forward ones of step k + 1 act at one time."""
    calls = {"wave": 0, "corrections": 0}
    wave, corrections = TfsfSource.ez_inc, TfsfInjector.corrections

    def counted_wave(self, *args):
        calls["wave"] += 1
        return wave(self, *args)

    def counted_corrections(self, *args):
        calls["corrections"] += 1
        return corrections(self, *args)

    monkeypatch.setattr(TfsfSource, "ez_inc", counted_wave)
    monkeypatch.setattr(TfsfInjector, "corrections", counted_corrections)
    res = run_experiment(ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta",
                                          n=16, dt_ratio=1.0, t_final=6 / 16))
    assert res["steps"] == 6
    assert calls == {"wave": 7, "corrections": 12}


@pytest.mark.parametrize("kind", ["ls_cd", "ls_theta"])
def test_times_that_do_not_meet_step_like_the_direct_formula(kind):
    """At dt = 0.7 h the backward substep's time (k - 1) dt + dt differs
    from the next step's k dt at k = 6, so that step evaluates the wave
    anew; seven steps stepped as the harness times them equal the
    whole-plane definition with the direct corrections, bit for bit (up to
    the sign of zero)."""
    g, eps, mu, src, _ = scatter_setup()
    dt = 0.7 / 16
    assert [k for k in range(1, 8) if (k - 1) * dt + dt != k * dt] == [6]
    spec = SchemeSpec(kind, dt)
    pml, ref_pml = build_pml(g, dt), build_pml(g, dt)
    r = PmlRunner(g, spec, pml, source=src)
    st = FieldState2(*np.random.default_rng(13).standard_normal((3, g.nx, g.ny)),
                     eps=eps, mu=mu)
    for k, want in enumerate(reference_steps(g, spec, ref_pml, src, st, 0.0, 7), start=1):
        st = r.step(st, (k - 1) * dt, out=st.u if k > 1 else None)
        assert np.array_equal(st.u, want)
    for name in ("psi_hxy", "psi_hyx", "psi_ezx", "psi_ezy"):
        assert np.array_equal(getattr(pml, name), getattr(ref_pml, name))


# the held outer ring of a bounded (nx, ny) plane
HELD = (np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1])


def planted_empty(fill):
    """np.empty whose float64 arrays come filled with `fill`; other dtypes,
    which np.unique asks for, as they are."""
    empty = np.empty

    def planted(shape, dtype=float, *args, **kwargs):
        a = empty(shape, dtype, *args, **kwargs)
        if a.dtype == np.float64:
            a.fill(fill)
        return a
    return planted


@pytest.mark.parametrize("kind", ["ls_cd", "ls_theta"])
@pytest.mark.parametrize("with_source", [False, True])
def test_bounded_steps_do_not_read_what_out_held(kind, with_source, monkeypatch):
    """On a bounded grid the kernel leaves out the periodic wrap entries,
    which wrote the held ring of its planes.  Three steps of a collar run,
    of its plain step and of bfecc_step, each into a fresh array that
    np.empty hands over filled with NaN or with inf, equal the steps into
    zeros bit for bit, raise no warning, and leave the collar memory
    exactly zero on the held ring."""
    g, eps, mu, src, dt = scatter_setup()
    u0 = np.random.default_rng(7).standard_normal((3, g.nx, g.ny))
    spec = SchemeSpec(kind, dt)
    results = {}
    for fill in (0.0, np.nan, np.inf):
        pmls = build_pml(g, dt), build_pml(g, dt)
        runner, once = (PmlRunner(g, spec, p, src if with_source else None) for p in pmls)
        stepper = BfeccStep(spec)
        st = plain = wrapped = FieldState2(*u0, eps=eps, mu=mu)
        with monkeypatch.context() as m, warnings.catch_warnings():
            m.setattr(np, "empty", planted_empty(fill))
            warnings.simplefilter("error")
            for k in range(3):
                st = runner.step(st, 0.3 + k * dt)
                plain = once.plain_step(plain, 0.3 + k * dt)
                wrapped = bfecc_step(stepper, wrapped, g, geometry=runner.geom)
        psi = [getattr(p, name) for p in pmls
               for name in ("psi_hxy", "psi_hyx", "psi_ezx", "psi_ezy")]
        for plane in psi:
            assert all((plane[held] == 0.0).all() for held in HELD)
        results[fill] = [a.tobytes() for a in (st.u, plain.u, wrapped.u, *psi)]
    assert results[np.nan] == results[0.0]
    assert results[np.inf] == results[0.0]


@pytest.mark.parametrize("kind, with_source, entries", [
    ("ls_cd", False, 174), ("ls_cd", True, 177), ("ls_theta", False, 192),
    ("ls_theta", True, 195)])
def test_a_bounded_step_program_has_no_wrap_entries(kind, with_source, entries):
    """The program of a collar step on the 37^2 scatter grid: with the
    periodic wrap it held 195, 198, 234 and 237 entries.  A bounded
    substep leaves out 14 wrap entries (the differences' 8 and the
    blend's 6), 8 for ls_cd, which has no blend and instead fills the two
    ring rows of its output from the input first, one entry."""
    g, eps, mu, src, dt = scatter_setup()
    runner = PmlRunner(g, SchemeSpec(kind, dt), build_pml(g, dt), src if with_source else None)
    st = FieldState2(*np.zeros((3, g.nx, g.ny)), eps=eps, mu=mu)
    runner.step(st, 0.0, out=st.u)
    assert len(runner._kept[2]) == entries


def test_a_collar_built_for_another_grid_is_a_one_line_value_error():
    g = bounded_grid(24)
    spec = SchemeSpec("ls_theta", 0.5 * g.dx)
    with pytest.raises(ValueError) as exc:
        PmlRunner(g, spec, build_pml(bounded_grid(20), spec.dt, thickness=4))
    assert str(exc.value) == "pml state shape does not match the grid"
