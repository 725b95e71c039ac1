import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bfecc_maxwell import schemes
from bfecc_maxwell.analysis import cfl_bound
from bfecc_maxwell.bfecc import BfeccStep, bfecc_apply, bfecc_step
from bfecc_maxwell.grid import Grid2, build_uniform
from bfecc_maxwell.harness import build_variant_grid
from bfecc_maxwell.schemes import (
    FieldState1,
    FieldState2,
    SchemeSpec,
    lincomb1,
    step_1d,
)


def sine_state(n):
    x = np.arange(n) / n
    return FieldState1(np.sin(2 * np.pi * x), np.sin(2 * np.pi * x)), x


def test_identity_substeps_leave_state_unchanged():
    # with L = L* = identity the corrector reduces to 1.5 u - 0.5 u = u
    rng = np.random.default_rng(0)
    u = rng.standard_normal(12)
    out = bfecc_apply(lambda v: v, lambda v: v, u, lambda ca, a, cb, b: ca * a + cb * b)
    # 1.5 u - 0.5 u can round in the last bit, nothing more
    assert np.allclose(out, u, rtol=0.0, atol=1e-15)


def test_composition_order_forward_backward_forward():
    calls = []

    def fwd(v):
        calls.append("F")
        return v

    def bwd(v):
        calls.append("B")
        return v

    bfecc_apply(fwd, bwd, np.zeros(3), lambda ca, a, cb, b: ca * a + cb * b)
    assert calls == ["F", "B", "F"]


def test_three_substep_expansion_1d():
    n = 32
    dx = 1.0 / n
    spec = SchemeSpec("cd", 0.9 * dx)
    rng = np.random.default_rng(4)
    st = FieldState1(rng.standard_normal(n), rng.standard_normal(n))
    out = bfecc_step(BfeccStep(spec), st, dx)
    u1 = step_1d(spec, st, dx)
    u2 = step_1d(spec.reversed(), u1, dx)
    u3 = lincomb1(1.5, st, -0.5, u2)
    expect = step_1d(spec, u3, dx)
    assert np.array_equal(out.E, expect.E)
    assert np.array_equal(out.H, expect.H)


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


def test_forward_spec_required():
    spec = SchemeSpec("cd", 0.1).reversed()
    with pytest.raises(ValueError):
        BfeccStep(spec)


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
    """Without a geometry each step builds one and factorizes only its
    irregular stencils: r of them on a shifted grid, none on a uniform one."""
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
    st = bfecc_step(step, st, g)
    assert calls == [r]
    bfecc_step(step, st, g)
    assert calls == [r, r]
    bfecc_step(step, st, build_variant_grid("a", n))
    assert calls == [r, r]


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
