import numpy as np
import pytest

from bfecc_maxwell.diagnostics import (
    component_rms,
    convergence_orders,
    h_divergence,
    l2_error,
    restrict_to_coarse,
    rms,
    write_error_table,
    write_snapshot,
)
from bfecc_maxwell.grid import build_uniform
from bfecc_maxwell.schemes import FieldState1, FieldState2


def test_rms_basics():
    assert rms(np.ones((4, 4))) == 1.0
    assert rms(np.zeros(10)) == 0.0
    assert rms(np.array([3.0, 4.0, 0.0, 0.0])) == pytest.approx(2.5)


def test_l2_error_single_entry_perturbation():
    a = FieldState2(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                    np.ones((1, 1)), np.ones((1, 1)))
    delta = 0.3
    b = FieldState2(np.full((1, 1), delta), np.zeros((1, 1)), np.zeros((1, 1)),
                    np.ones((1, 1)), np.ones((1, 1)))
    # three stacked components, one nonzero entry
    assert l2_error(a, b) == pytest.approx(delta / np.sqrt(3.0), rel=1e-12)


def test_l2_error_accepts_tuples_and_is_symmetric():
    rng = np.random.default_rng(0)
    a = (rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
    b = (rng.standard_normal((5, 5)), rng.standard_normal((5, 5)))
    assert l2_error(a, b) == l2_error(b, a)
    assert l2_error(a, a) == 0.0


def test_component_rms_keys_follow_state_type():
    a1 = FieldState1(np.ones(4), np.zeros(4))
    b1 = FieldState1(np.zeros(4), np.zeros(4))
    assert component_rms(a1, b1) == {"E": 1.0, "H": 0.0}
    a2 = FieldState2(np.ones((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)),
                     np.ones((3, 3)), np.ones((3, 3)))
    b2 = FieldState2(np.zeros((3, 3)), np.zeros((3, 3)), np.zeros((3, 3)),
                     np.ones((3, 3)), np.ones((3, 3)))
    out = component_rms(a2, b2)
    assert set(out) == {"Hx", "Hy", "Ez"}
    assert out["Hx"] == 1.0


def test_h_divergence_matches_discrete_formula():
    n = 32
    h = 1.0 / n
    x = np.arange(n) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    hx = np.sin(2 * np.pi * X)
    hy = np.cos(2 * np.pi * Y)
    div = h_divergence(hx, hy, h, h)
    # centered differences turn the wavenumber into sin(2 pi h)/h
    scale = np.sin(2 * np.pi * h) / h
    expect = np.cos(2 * np.pi * X) * scale - np.sin(2 * np.pi * Y) * scale
    assert np.max(np.abs(div - expect)) < 1e-12


def test_h_divergence_of_discrete_curl_vanishes():
    rng = np.random.default_rng(5)
    n = 24
    h = 1.0 / n
    psi = rng.standard_normal((n, n))
    hx = (np.roll(psi, -1, axis=1) - np.roll(psi, 1, axis=1)) / (2 * h)
    hy = -(np.roll(psi, -1, axis=0) - np.roll(psi, 1, axis=0)) / (2 * h)
    assert np.max(np.abs(h_divergence(hx, hy, h, h))) < 1e-12


def test_convergence_orders_on_exact_power_law():
    hs = [0.1, 0.05, 0.025, 0.0125]
    errs = [7.0 * h ** 2.5 for h in hs]
    orders = convergence_orders(hs, errs)
    assert len(orders) == 3
    assert np.allclose(orders, 2.5, atol=1e-12)


def test_restrict_to_coarse_subsamples_exactly():
    pad = 3
    n_coarse = 4
    ratio = 2
    size = 2 * pad + ratio * n_coarse + 1
    arr = np.arange(size * size, dtype=float).reshape(size, size)
    out = restrict_to_coarse(arr, pad, ratio, n_coarse)
    assert out.shape == (n_coarse + 1, n_coarse + 1)
    idx = pad + ratio * np.arange(n_coarse + 1)
    assert np.array_equal(out, arr[np.ix_(idx, idx)])


def test_restrict_to_coarse_rejects_out_of_range():
    arr = np.zeros((10, 10))
    with pytest.raises(ValueError):
        restrict_to_coarse(arr, 3, 2, 4)


def test_error_table_roundtrip(tmp_path):
    rows = [
        {"grid": "a", "n": 8, "h": 0.125, "dt": 0.01, "l2_error": 1.25e-3, "order": None},
        {"grid": "a", "n": 16, "h": 0.0625, "dt": 0.005, "l2_error": 3.125e-4, "order": 2.0},
    ]
    path = tmp_path / "table.csv"
    write_error_table(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "grid,n,h,dt,l2_error,order"
    first = lines[1].split(",")
    assert first[0] == "a" and int(first[1]) == 8
    assert float(first[4]) == pytest.approx(1.25e-3)
    assert first[5] == ""
    assert float(lines[2].split(",")[5]) == pytest.approx(2.0)


def test_snapshot_roundtrip(tmp_path):
    n = 4
    g = build_uniform(n, n, ((0.0, 1.0), (0.0, 1.0)), "bounded")
    rng = np.random.default_rng(9)
    st = FieldState2(rng.standard_normal((n, n)), rng.standard_normal((n, n)),
                     rng.standard_normal((n, n)), np.ones((n, n)), np.ones((n, n)))
    path = tmp_path / "snap.csv"
    write_snapshot(path, g, st)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,x,y,Ez,Hx,Hy"
    assert len(lines) == 1 + n * n
    for line in lines[1:]:
        i, j, x, y, ez, hx, hy = line.split(",")
        i, j = int(i), int(j)
        # 17 digit output reproduces doubles exactly
        assert float(x) == g.coords[i, j, 0]
        assert float(ez) == st.Ez[i, j]
        assert float(hy) == st.Hy[i, j]


@pytest.mark.parametrize("call, error, words", [
    (lambda: l2_error(5, 5), TypeError, "expected a field state or a sequence of arrays"),
    (lambda: component_rms((np.zeros(3),), (np.zeros(3), np.zeros(3))), ValueError,
     "operands have different component counts"),
    (lambda: l2_error((np.zeros(3),), (np.zeros(4),)), ValueError,
     "component c0 shapes differ: (3,) vs (4,)"),
    (lambda: convergence_orders([0.1, 0.05], [1.0]), ValueError,
     "hs and errors must have equal length"),
])
def test_bad_operands_are_one_line_errors(call, error, words):
    """Operands that are no field states or sequences, differ in component
    count or in a component's shape, and order inputs of unequal length
    are one-line errors of their type."""
    with pytest.raises(error) as exc:
        call()
    assert "\n" not in str(exc.value) and words in str(exc.value)
