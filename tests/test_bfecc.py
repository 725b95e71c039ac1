import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bfecc_maxwell import bfecc, schemes
from bfecc_maxwell.analysis import cfl_bound
from bfecc_maxwell.bfecc import BfeccStep, bfecc_program, bfecc_step
from bfecc_maxwell.grid import Grid2, build_uniform
from bfecc_maxwell.harness import (ExperimentConfig, build_scatter_grid, build_variant_grid,
                                   run_experiment)
from bfecc_maxwell.pml import PmlRunner, TfsfSource, build_pml
from bfecc_maxwell.schemes import (
    FieldState1,
    FieldState2,
    SchemeSpec,
    StencilGeometry,
    Workspace,
    _operator,
    lincomb1,
    run_program,
)


def sine_state(n):
    x = np.arange(n) / n
    return FieldState1(np.sin(2 * np.pi * x), np.sin(2 * np.pi * x)), x


def identity(k, v, out):
    return ((np.copyto, (out, v)),)


def composed(substep, u, work, out=None):
    """The composition of the substep programs substep(k, v, o), run into
    `out` (a fresh array when None) and returned."""
    out = np.empty_like(u) if out is None else out
    run_program(bfecc_program(substep, u, out, work))
    return out


def test_identity_substeps_leave_state_unchanged():
    # with L = L* = identity the corrector reduces to 1.5 u - 0.5 u = u
    rng = np.random.default_rng(0)
    u = rng.standard_normal((2, 12))
    before = u.copy()
    out = composed(identity, u, Workspace())
    # 1.5 u - 0.5 u can round in the last bit, nothing more
    assert np.allclose(out, u, rtol=0.0, atol=1e-15)
    assert np.array_equal(u, before) and out is not u


def test_composition_order_forward_backward_forward():
    calls = []

    def substep(k, v, out):
        calls.append(k)
        return identity(k, v, out)

    u, out, work = np.zeros((3, 4, 4)), np.empty((3, 4, 4)), Workspace()
    program = tuple(bfecc_program(substep, u, out, work))
    # the substeps' programs come in order, the combination between the
    # second and the third; the first substep writes the Workspace's X,
    # and only the last one writes `out`
    assert calls == [0, 1, 2]
    assert [f for f, _ in program] == [np.copyto] * 2 + [np.multiply] * 2 + [np.add, np.copyto]
    assert program[0][1][0] is work("X", u.shape) and program[-1][1][0] is out
    assert all(out is not a for _, args in program[:-1] for a in args)


def test_in_place_composition_order():
    """In place and into a fresh `out` alike the substeps run u -> X,
    X -> Y, Y -> out, with X and Y the Workspace's two stacks; in place
    they give the bits of a fresh step."""
    calls = []
    work = Workspace()

    def substep(k, v, out):
        calls.append((k, v, out))
        return ((np.multiply, (v, 0.5 + k, out)),)

    def order(ins, outs):
        return [k for k, v, out in calls] == [0, 1, 2] and all(
            v is w and out is o for (_, v, out), w, o in zip(calls, ins, outs))

    u = np.random.default_rng(2).standard_normal((3, 4, 4))
    expect = composed(substep, u, Workspace())
    calls.clear()
    x, y = work("X", u.shape), work("bfecc", u.shape)
    assert composed(substep, u, work, out=u) is u
    assert order((u, x, y), (x, y, u))
    assert np.array_equal(u, expect)
    calls.clear()
    v, fresh = u.copy(), np.empty_like(u)
    assert composed(substep, v, work, out=fresh) is fresh
    assert order((v, x, y), (x, y, fresh))


def test_three_substep_expansion_1d():
    n = 32
    dx = 1.0 / n
    spec = SchemeSpec("cd", 0.9 * dx)
    rng = np.random.default_rng(4)
    st = FieldState1(rng.standard_normal(n), rng.standard_normal(n))
    out = bfecc_step(BfeccStep(spec), st, dx)
    op = _operator(spec, st, dx)

    def apply(sdt, u):
        out = np.empty_like(u)
        run_program(op(sdt, u, out))
        return out

    u1 = apply(spec.dt, st.u)
    u2 = apply(-spec.dt, u1)
    u3 = 1.5 * st.u + -0.5 * u2
    expect = apply(spec.dt, u3)
    assert np.array_equal(out.u, expect)


def test_linearity():
    n = 32
    dx = 1.0 / n
    step = BfeccStep(SchemeSpec("cd", 0.9 * dx))
    rng = np.random.default_rng(1)
    u = FieldState1(rng.standard_normal(n), rng.standard_normal(n))
    v = FieldState1(rng.standard_normal(n), rng.standard_normal(n))
    a, b = 1.7, -0.3
    combo = bfecc_step(step, lincomb1(a, u, b, v), dx)
    parts = lincomb1(a, bfecc_step(step, u, dx), b, bfecc_step(step, v, dx))
    assert np.max(np.abs(combo.E - parts.E)) < 1e-12
    assert np.max(np.abs(combo.H - parts.H)) < 1e-12


def test_single_mode_matches_symbol_eigenaction():
    """A right-moving unit mode advanced one step agrees with the 2x2 symbol
    applied to its coefficient vector."""
    from bfecc_maxwell.analysis import bfecc_symbol_for

    n = 64
    lam = 0.98
    dx = 1.0 / n
    (st, x) = sine_state(n)
    out = bfecc_step(BfeccStep(SchemeSpec("cd", lam * dx)), st, dx)
    Q = bfecc_symbol_for("cd", 1, 1, dx, lam)
    # coefficients of exp(2 pi i x): E = H = sin -> (-i/2) at k = +1
    vin = np.array([-0.5j, -0.5j])
    vout = Q @ vin
    expect_E = 2.0 * np.real(vout[0] * np.exp(2j * np.pi * x))
    expect_H = 2.0 * np.real(vout[1] * np.exp(2j * np.pi * x))
    assert np.max(np.abs(out.E - expect_E)) < 1e-12
    assert np.max(np.abs(out.H - expect_H)) < 1e-12


def test_unknown_state_type_rejected():
    step = BfeccStep(SchemeSpec("cd", 0.01))
    with pytest.raises(TypeError):
        bfecc_step(step, np.zeros(8), 0.125)


def test_2d_dispatch_accepts_grid():
    n = 8
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "periodic")
    rng = np.random.default_rng(3)
    st = FieldState2(rng.standard_normal((n, n)), rng.standard_normal((n, n)),
                     rng.standard_normal((n, n)), np.ones((n, n)), np.ones((n, n)))
    out = bfecc_step(BfeccStep(SchemeSpec("cd", 0.5 * g.dx)), st, g)
    assert out.Ez.shape == (n, n)
    assert not np.array_equal(out.Ez, st.Ez)


def test_least_squares_step_without_weights_factorizes_once(monkeypatch):
    """Without a geometry a stepper builds one when it binds its operator
    and factorizes only its irregular stencils: r of them on a shifted
    grid, once for all its steps, again for another grid and none for a
    uniform one."""
    calls = []
    original = schemes.batched_fit_weights

    def counting(offsets):
        calls.append(len(offsets))
        return original(offsets)

    monkeypatch.setattr(schemes, "batched_fit_weights", counting)
    n = 10
    rng = np.random.default_rng(3)
    st = FieldState2(*rng.standard_normal((3, n, n)))
    g = build_variant_grid("d", n)
    r = len(schemes.StencilGeometry(g).irregular)
    assert 0 < r < n * n
    step = BfeccStep(SchemeSpec("ls_theta", 0.3 * g.dx))
    for _ in range(3):
        st = bfecc_step(step, st, g)
    assert calls == [r]
    st = bfecc_step(step, st, build_variant_grid("d", n))
    assert calls == [r, r]
    bfecc_step(step, st, build_variant_grid("a", n))
    assert calls == [r, r]


def count_bindings(monkeypatch):
    """The list that every schemes._operator call appends to."""
    calls = []
    original = schemes._operator

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(schemes, "_operator", counting)
    return calls


def test_a_run_binds_its_operator_once_remainder_included(monkeypatch):
    # the operator takes the signed step at each call, so the remainder
    # step's with_dt copy shares the run's binding
    calls = count_bindings(monkeypatch)
    result = run_experiment(ExperimentConfig(experiment="periodic1d", n=32, dt_ratio=1.7,
                                             t_final=0.33))
    dt = result["dt"]
    assert result["steps"] == 7 and 0.33 - 6 * dt < dt
    assert [spec.dt for spec in calls] == [dt]


def test_a_collar_run_binds_its_operator_once_remainder_included(monkeypatch):
    # the runner's binding is schemes._operator's, kept like a BfeccStep's
    calls = count_bindings(monkeypatch)
    result = run_experiment(ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta",
                                             n=16, dt_ratio=1.0, t_final=0.43))
    dt = result["dt"]
    assert result["steps"] == 7 and 0.43 - 6 * dt < dt
    assert [spec.dt for spec in calls] == [dt]


def test_a_spacing_computed_in_the_call_binds_once(monkeypatch):
    """A 1D spacing is compared by value: five in-place steps, each passing
    1.0 / n computed in the call, bind the operator once and replay the
    program built at the first step."""
    calls = count_bindings(monkeypatch)
    n = 32
    st = FieldState1(*np.random.default_rng(9).standard_normal((2, n)))
    step = BfeccStep(SchemeSpec("cd", 1.7 / n))
    st = bfecc_step(step, st, 1.0 / n, out=st.u)
    kept = step._kept
    for _ in range(4):
        st = bfecc_step(step, st, 1.0 / n, out=st.u)
    assert len(calls) == 1 and step._kept is kept


def test_a_state_with_other_materials_rebinds(monkeypatch):
    n = 16
    dx = 1.0 / n
    rng = np.random.default_rng(8)
    eps, mu = rng.uniform(0.5, 2.0, (2, n))
    step = BfeccStep(SchemeSpec("theta", 0.5 * dx, 0.4))
    st = bfecc_step(step, FieldState1(*rng.standard_normal((2, n)), eps, mu), dx)
    others = [FieldState1(*st.u, eps.copy(), mu), FieldState1(*st.u, eps, 2.0 * mu),
              FieldState1(*st.u)]
    fresh = [bfecc_step(BfeccStep(step.spec), other, dx).u for other in others]
    calls = count_bindings(monkeypatch)
    # a new state around the same material arrays keeps the binding
    bfecc_step(step, FieldState1(*st.u, eps, mu), dx)
    assert calls == []
    for k, (other, expect) in enumerate(zip(others, fresh)):
        assert np.array_equal(bfecc_step(step, other, dx).u, expect)
        assert len(calls) == k + 1


def march(make_step, st, where, steps, remainder, **kw):
    """`steps` BFECC steps, then one of size `remainder`, each with the
    stepper make_step() returns for it: make_step() is either one stepper
    kept for the run or a fresh one every call."""
    for _ in range(steps):
        st = bfecc_step(make_step(), st, where, **kw)
    return bfecc_step(make_step().with_dt(remainder), st, where, **kw)


def cached_case(case):
    """(spec, state, where, keywords) of a cached-operator case."""
    rng = np.random.default_rng(12)
    if case.startswith("1d"):
        _, kind, materials = case.split("_")
        n = 24
        eps, mu = rng.uniform(0.5, 2.0, (2, n)) if materials == "materials" else (None, None)
        return (SchemeSpec(kind, 0.9 / n, 0.3), FieldState1(*rng.standard_normal((2, n)), eps, mu),
                1.0 / n, {})
    n = 12
    st = FieldState2(*rng.standard_normal((3, n, n)))
    if case == "2d_cd":
        g = build_uniform(n, n)
        return SchemeSpec("cd", 0.5 * g.dx), st, g, {}
    g = build_variant_grid("d", n)
    return SchemeSpec("ls_theta", 0.25 * g.dx), st, g, dict(geometry=StencilGeometry(g))


@pytest.mark.parametrize("case", [f"1d_{kind}_{m}" for kind in ("cd", "lf", "theta")
                                  for m in ("free", "materials")] + ["2d_cd", "2d_ls_theta"])
def test_a_cached_operator_steps_like_a_fresh_one(case):
    """A stepper kept for a run, remainder step included, gives the same
    bits as a fresh stepper for every step: a stale binding would not."""
    spec, st, where, kw = cached_case(case)
    kept = BfeccStep(spec)
    cached = march(lambda: kept, st, where, 6, 0.4 * spec.dt, **kw)
    fresh = march(lambda: BfeccStep(spec), st, where, 6, 0.4 * spec.dt, **kw)
    assert np.array_equal(cached.u, fresh.u)
    # the stepper kept for the run still steps dt after its remainder copy
    again = bfecc_step(kept, cached, where, **kw)
    assert np.array_equal(again.u, bfecc_step(BfeccStep(spec), cached, where, **kw).u)


def test_uniform_step_checks_the_grid_once(monkeypatch):
    calls = []
    original = Grid2.is_uniform

    def counting(self, tol=0.0):
        calls.append(tol)
        return original(self, tol)

    monkeypatch.setattr(Grid2, "is_uniform", counting)
    n = 8
    g = build_uniform(n, n)
    rng = np.random.default_rng(4)
    st = FieldState2(*rng.standard_normal((3, n, n)))
    step = BfeccStep(SchemeSpec("cd", 0.5 * g.dx))
    for _ in range(4):
        st = bfecc_step(step, st, g)
    assert len(calls) == 1


def energy(st):
    return float(np.sum(st.Hx ** 2) + np.sum(st.Hy ** 2) + np.sum(st.Ez ** 2))


@settings(max_examples=25, deadline=None)
@given(nx=hst.integers(3, 24), ny=hst.integers(3, 24),
       width=hst.floats(0.2, 5.0), height=hst.floats(0.2, 5.0),
       kind=hst.sampled_from(("cd", "lf", "theta")), theta=hst.floats(0.0, 1.0),
       ratio=hst.floats(0.05, 1.0), seed=hst.integers(0, 2 ** 16))
def test_bfecc_never_increases_energy_under_the_cfl_bound(nx, ny, width, height, kind,
                                                           theta, ratio, seed):
    """The wrapped cd/lf/theta symbols are normal with spectral radius <= 1
    at dt <= cfl_bound, so the discrete L2 energy cannot grow."""
    g = build_uniform(nx, ny, ((0.0, width), (0.0, height)), "periodic")
    dt = ratio * cfl_bound(kind, 2, (g.dx, g.dy), theta)
    rng = np.random.default_rng(seed)
    st = FieldState2(*rng.standard_normal((3, nx, ny)))
    step = BfeccStep(SchemeSpec(kind, dt, theta))
    prev = energy(st)
    for _ in range(5):
        st = bfecc_step(step, st, g)
        now = energy(st)
        assert now <= prev * (1.0 + 1e-12)
        prev = now


def peak_states_per_step(step, st, warm=3, steps=5):
    """tracemalloc peak above the level after `warm` steps, over `steps`
    more, in units of one state."""
    tracemalloc.start()
    try:
        for _ in range(warm):
            st = step(st)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(steps):
            st = step(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / st.u.nbytes


def stepper(case, n, in_place=False):
    """(step, state) of a case: 1D cd on n points in free space or with
    materials, 2D cd on a uniform periodic grid, ls_theta on the conforming
    grid d, ls_theta with an absorbing collar on a bounded grid, and the
    scattering set-up (collar, cylinder and TF/SF plane wave) on the
    scatter grid of resolution n.  step(s) writes into a fresh array, or
    `in_place` into s.u."""
    rng = np.random.default_rng(5)

    def out(s):
        return s.u if in_place else None

    if case.startswith("1d"):
        dx = 1.0 / n
        materials = rng.uniform(0.5, 2.0, (2, n)) if case == "1d_materials" else (None, None)
        step = BfeccStep(SchemeSpec("cd", 1.7 * dx))
        return (lambda s: bfecc_step(step, s, dx, out=out(s)),
                FieldState1(*rng.standard_normal((2, n)), *materials))
    st = FieldState2(*rng.standard_normal((3, n, n)))
    if case == "cd":
        g = build_uniform(n, n)
        step = BfeccStep(SchemeSpec("cd", 0.5 * g.dx))
        return lambda s: bfecc_step(step, s, g, out=out(s)), st
    if case == "ls_theta":
        g = build_variant_grid("d", n)
        geom = StencilGeometry(g)
        step = BfeccStep(SchemeSpec("ls_theta", 0.25 * g.dx))
        return lambda s: bfecc_step(step, s, g, geometry=geom, out=out(s)), st
    if case == "tfsf":
        cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta")
        g, eps = build_scatter_grid(cfg, n)
        dt = 0.5 / n
        runner = PmlRunner(g, SchemeSpec("ls_theta", dt), build_pml(g, dt, cfg.pml_cells),
                           TfsfSource(cfg.tfsf_rect))
        return (lambda s: runner.step(s, 1.0, out=out(s)),
                FieldState2(*rng.standard_normal((3, g.nx, g.ny)), eps=eps))
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "bounded")
    dt = 0.5 * g.dx
    runner = PmlRunner(g, SchemeSpec("ls_theta", dt), build_pml(g, dt, thickness=10))
    return lambda s: runner.step(s, 0.0, out=out(s)), FieldState2(*st.u, eps=np.ones((n, n)))


ALLOCATION_SIZES = {"1d": 256, "1d_materials": 256, "tfsf": 32}


@pytest.mark.parametrize("case", ["1d", "1d_materials", "cd", "ls_theta", "collar", "tfsf"])
def test_a_step_allocates_little_more_than_its_output(case):
    """Substeps write into buffers kept across steps, so a step's only
    large allocation is the state it returns; the 1D cases run on 256
    points, the TF/SF case on the 53 x 53 scatter grid of n = 32."""
    step, st = stepper(case, ALLOCATION_SIZES.get(case, 64))
    assert peak_states_per_step(step, st) <= 1.5


@pytest.mark.parametrize("case", ["1d", "1d_materials", "cd", "ls_theta", "collar", "tfsf"])
def test_an_in_place_step_allocates_almost_nothing(case):
    """Stepped in place, a run's stacks, scratch arrays and substep
    bindings all outlive its first step, so a later step allocates at
    most a tenth of a state, sizes as above."""
    step, st = stepper(case, ALLOCATION_SIZES.get(case, 64), in_place=True)
    assert peak_states_per_step(step, st) <= 0.1


IN_PLACE_CASES = ([f"1d_{kind}_{m}" for kind in ("cd", "theta") for m in ("free", "materials")]
                  + [f"2d_{kind}" for kind in ("cd", "lf", "theta", "ls_cd", "ls_theta")]
                  + ["2d_ls_cd_bounded", "2d_ls_theta_bounded", "pml_ls_cd", "pml_ls_theta"])


def in_place_case(case):
    """(make, state, step) of an in-place case: make() builds a fresh
    stepper and step(s, st, t, out) takes one step with it.  1D cases step
    cd or theta, free or with materials; 2D ones each kind on a periodic
    grid (uniform, or grid d for ls), or ls on the bounded scatter grid
    with the cylinder's eps; pml ones a PmlRunner with collar and TF/SF
    on the scatter grid, with eps and a random mu."""
    rng = np.random.default_rng(21)
    if case.startswith("1d"):
        _, kind, materials = case.split("_")
        n = 24
        eps, mu = rng.uniform(0.5, 2.0, (2, n)) if materials == "materials" else (None, None)
        spec = SchemeSpec(kind, 0.9 / n, 0.3)
        return (lambda: BfeccStep(spec), FieldState1(*rng.standard_normal((2, n)), eps, mu),
                lambda s, st, t, out: bfecc_step(s, st, 1.0 / n, out=out))
    if case.startswith("pml"):
        kind = case[4:]
        cfg = ExperimentConfig(experiment="scatter_cylinder", scheme=kind)
        g, eps = build_scatter_grid(cfg, 16)
        dt = 0.5 / 16
        st = FieldState2(*rng.standard_normal((3, g.nx, g.ny)), eps=eps,
                         mu=rng.uniform(0.5, 2.0, (g.nx, g.ny)))
        return (lambda: PmlRunner(g, SchemeSpec(kind, dt), build_pml(g, dt, cfg.pml_cells),
                                  TfsfSource(cfg.tfsf_rect)),
                st, lambda r, st, t, out: r.step(st, t, out=out))
    kind = case[3:].replace("_bounded", "")
    eps = None
    if case.endswith("bounded"):
        g, eps = build_scatter_grid(ExperimentConfig(experiment="scatter_cylinder"), 8)
    else:
        g = build_variant_grid("a" if kind in ("cd", "lf", "theta") else "d", 12)
    spec = SchemeSpec(kind, 0.3 * g.dx, 0.6)
    st = FieldState2(*rng.standard_normal((3, g.nx, g.ny)), eps=eps)
    return lambda: BfeccStep(spec), st, lambda s, st, t, out: bfecc_step(s, st, g, out=out)


@pytest.mark.parametrize("case", IN_PLACE_CASES)
def test_stepping_in_place_equals_fresh_steps(case):
    """Five steps and a with_dt remainder step, each written into the
    state's own stack, give the bits of the same steps into fresh arrays,
    the collar memory included; the run keeps its one stack, and the
    stepper kept for it still steps dt in place after its remainder
    copy."""
    make, st, step = in_place_case(case)
    kept, fresh = make(), make()
    u = st.u.copy()
    a, b = type(st)._of(u, st.eps, st.mu), st
    dt = kept.spec.dt
    for k in range(5):
        a = step(kept, a, k * dt, a.u)
        b = step(fresh, b, k * dt, None)
        assert np.array_equal(a.u, b.u)
        program = kept._kept if k == 0 else program
    # the remainder comes after the kept stepper built its program at the
    # first step and replayed it at the next four; its copy builds its own
    assert kept._kept is program and program[2]
    remainder = kept.with_dt(0.4 * dt)
    a = step(remainder, a, 5 * dt, a.u)
    b = step(fresh.with_dt(0.4 * dt), b, 5 * dt, None)
    assert np.array_equal(a.u, b.u) and a.u is u
    assert remainder._kept[2] is not program[2]
    a = step(kept, a, 5.4 * dt, a.u)
    b = step(fresh, b, 5.4 * dt, None)
    assert np.array_equal(a.u, b.u) and a.u is u and kept._kept is program
    if case.startswith("pml"):
        for name in ("psi_hxy", "psi_hyx", "psi_ezx", "psi_ezy"):
            assert np.array_equal(getattr(kept.pml, name), getattr(fresh.pml, name))


@pytest.mark.parametrize("case", ["1d_theta_materials", "2d_ls_theta", "pml_ls_theta"])
def test_a_fresh_step_leaves_its_input_untouched(case):
    make, st, step = in_place_case(case)
    s = make()
    before = st.u.copy()
    for t in (0.0, 0.1):
        new = step(s, st, t, None)
        assert new.u is not st.u
        assert np.array_equal(st.u, before)


@pytest.mark.parametrize("case", ["1d_cd_free", "2d_ls_theta", "pml_ls_theta"])
def test_a_bad_out_fails_at_the_call_with_one_line(case):
    """An `out` other than None or state.u (of another shape or dtype, a
    non-contiguous one, a C-contiguous float64 array of the state's shape
    or no array at all) is a one-line ValueError before anything is
    written."""
    make, st, step = in_place_case(case)
    shape = st.u.shape
    before = st.u.copy()
    wide = np.zeros(shape[:-1] + (2 * shape[-1],))
    alike = np.zeros(shape)
    for out in (np.zeros(shape[:-1] + (shape[-1] + 1,)), np.zeros(shape, dtype=np.float32),
                wide[..., ::2], np.zeros(shape, order="F"), alike, st.u.tolist()):
        with pytest.raises(ValueError) as exc:
            step(make(), st, 0.0, out)
        assert "\n" not in str(exc.value)
        assert not wide.any() and not alike.any() and np.array_equal(st.u, before)


def kept_program(make, run):
    """(stepper, its kept program, that program's compensation entries):
    make() builds the stepper, run(s) steps it in place once; the entries
    between the second and third substeps' programs are the
    compensation's."""
    step = make()
    lengths = []
    substep = step._substep

    def counted(bound, k, v, out):
        program = substep(bound, k, v, out)
        lengths.append(len(program))
        return program

    step._substep = counted
    run(step)
    program = step._kept[2]
    return step, program, program[lengths[0] + lengths[1]:len(program) - lengths[2]]


def cd_256():
    """(make, run, state) of periodic2d_cd's stepper at 256^2."""
    g = build_uniform(256, 256)
    st = FieldState2(*np.random.default_rng(8).standard_normal((3, 256, 256)))
    return (lambda: BfeccStep(SchemeSpec("cd", g.dx)),
            lambda s, st, out: bfecc_step(s, st, g, out=out), st)


def grid_d_80():
    """(make, run, state) of an ls_theta stepper on grid d at 80^2."""
    g = build_variant_grid("d", 80)
    st = FieldState2(*np.random.default_rng(10).standard_normal((3, 80, 80)))
    return (lambda: BfeccStep(SchemeSpec("ls_theta", 0.25 * g.dx)),
            lambda s, st, out: bfecc_step(s, st, g, out=out), st)


def scatter_runner(n):
    """(make, run, state) of scatter_cylinder's runner at resolution n, on
    its (n + 21)^2 grid, with a random state."""
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta", n=n)
    g, eps = build_scatter_grid(cfg, n)
    dt = 1.0 / n
    st = FieldState2(*0.1 * np.random.default_rng(9).standard_normal((3, g.nx, g.ny)), eps=eps)
    return (lambda: PmlRunner(g, SchemeSpec("ls_theta", dt), build_pml(g, dt, cfg.pml_cells),
                              TfsfSource(tuple(cfg.tfsf_rect))),
            lambda r, st, out: r.step(st, 1.0, out=out), st)


@pytest.mark.parametrize("case", ["cd_256", "scatter_162"])
def test_the_plane_wise_compensation_gives_the_stack_wide_bits(case, monkeypatch):
    """With the plane-size threshold just above a plane (stack-wide) and at
    it (plane by plane), two steps in place and two into fresh arrays give
    one state, and, on the 183^2 scatter grid, one collar memory."""
    make, run, st = cd_256() if case == "cd_256" else scatter_runner(162)
    plane = st.u[0].nbytes
    assert plane >= bfecc._PLANE_BYTES
    results = []
    for threshold in (plane + 1, plane):
        monkeypatch.setattr(bfecc, "_PLANE_BYTES", threshold)
        for in_place in (True, False):
            s, cur = make(), FieldState2._of(st.u.copy(), st.eps, st.mu)
            for _ in range(2):
                cur = run(s, cur, cur.u if in_place else None)
            memory = [getattr(s.pml, name).tobytes() for name in
                      ("psi_hxy", "psi_hyx", "psi_ezx", "psi_ezy")] if hasattr(s, "pml") else []
            results.append([cur.u.tobytes()] + memory)
    assert not np.array_equal(cur.u, st.u)
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("case, unsplit", [("scatter_128", 189), ("grid_d_80", 117)])
def test_below_a_quarter_mb_plane_the_compensation_stays_stack_wide(case, unsplit):
    """The 149^2 scatter runner and an 80^2 grid-d ls_theta stepper keep
    the three whole-stack entries x = 1.5 u, y *= -0.5, y += x.  Their
    programs hold `unsplit` entries plus six alignment heads, one per j
    difference of each substep (`_dc`)."""
    make, run, st = scatter_runner(128) if case == "scatter_128" else grid_d_80()
    step, program, comp = kept_program(make, lambda s: run(s, st, st.u))
    assert len(program) == unsplit + 6
    x, y = step.work("X", st.u.shape), step.work("bfecc", st.u.shape)
    assert [f for f, _ in comp] == [np.multiply, np.multiply, np.add]
    (_, (u1, a, x1)), (_, (y1, b, y2)), (_, (y3, x2, y4)) = comp
    assert u1 is st.u and all(v is x for v in (x1, x2)) and all(v is y for v in (y1, y2, y3, y4))
    assert (float(a), float(b)) == (1.5, -0.5)


def test_at_256_the_compensation_runs_plane_by_plane_in_x1():
    """At 256^2 the compensation is nine entries, y[c] *= -0.5, x[1] =
    1.5 u[c], y[c] += x[1] for the planes Hy, Hx, Ez, whose only scratch
    is the X plane x[1]; the stepper's Workspace holds X and Y alone."""
    make, run, st = cd_256()
    step, program, comp = kept_program(make, lambda s: run(s, st, st.u))
    x, y = step.work("X", st.u.shape), step.work("bfecc", st.u.shape)
    assert sorted(step.work._arrays) == ["X", "bfecc"]
    assert len(comp) == 9

    def plane(a, stack):
        """The index c of the plane stack[c] that `a` is, by address and
        shape, else None.  (An aligned stack is itself a view of its
        buffer, so `a.base` is that buffer, not the stack.)"""
        return next((c for c in range(3) if a.__array_interface__["data"][0]
                     == stack[c].__array_interface__["data"][0] and a.shape == stack[c].shape),
                    None)

    for c, entries in zip((1, 0, 2), (comp[:3], comp[3:6], comp[6:])):
        (f, (y1, a, y2)), (g, (u1, b, x1)), (h, (y3, x2, y4)) = entries
        assert (f, g, h) == (np.multiply, np.multiply, np.add)
        assert (float(a), float(b)) == (-0.5, 1.5)
        assert all(plane(v, y) == c for v in (y1, y2, y3, y4))
        assert plane(u1, st.u) == c and plane(x1, x) == 1 and plane(x2, x) == 1
