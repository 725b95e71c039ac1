import numpy as np
import pytest

from bfecc_maxwell.lsq import RankDeficientStencilError, batched_fit_weights


def cross(h):
    return np.array([[0.0, 0.0], [-h, 0.0], [h, 0.0], [0.0, -h], [0.0, h]])


def fit(offsets, values):
    """(a, b, c) of each stencil: W @ values with the batched weights."""
    w, _ = batched_fit_weights(offsets)
    return np.einsum("mok,mk->mo", w, values)


def test_affine_data_is_fit_exactly():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.1, 0.1, size=(4, 7, 2))
    vals = 3.0 + 2.0 * pts[:, :, 0] - 5.0 * pts[:, :, 1]
    assert np.allclose(fit(pts, vals), [3.0, 2.0, -5.0], rtol=0, atol=1e-12)


def test_quadratic_on_symmetric_cross_biases_constant_term():
    # f = x^2 on the five-point cross: normal equations give
    # a_hat = sum(f)/5 = 2 h^2 / 5 while the gradient stays zero.
    h = 0.05
    pts = cross(h)
    (a, b, c), = fit(pts[None], pts[None, :, 0] ** 2)
    assert a == pytest.approx(2.0 * h * h / 5.0, rel=1e-12)
    assert b == pytest.approx(0.0, abs=1e-13)
    assert c == pytest.approx(0.0, abs=1e-13)


def test_smallest_singular_value_on_uniform_cross():
    h = 0.1
    _, sigma = batched_fit_weights(cross(h)[None])
    assert sigma[0] == pytest.approx(np.sqrt(2.0) * h, rel=1e-12)


def test_smallest_singular_value_on_hexagon():
    # center plus six points at distance h: sum of cos^2 over the ring is 3,
    # so the design matrix has singular values (sqrt(7), sqrt(3) h, sqrt(3) h)
    h = 0.08
    ang = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
    pts = np.vstack([[0.0, 0.0], np.column_stack([h * np.cos(ang), h * np.sin(ang)])])
    _, sigma = batched_fit_weights(pts[None])
    assert sigma[0] == pytest.approx(np.sqrt(3.0) * h, rel=1e-12)


def test_collinear_points_raise_rank_error():
    line = np.column_stack([np.linspace(-0.1, 0.1, 5), np.zeros(5)])
    offs = np.stack([cross(0.1), cross(0.2), line, cross(0.3)])
    with pytest.raises(RankDeficientStencilError, match="stencil 2") as e:
        batched_fit_weights(offs)
    assert e.value.sigma_min < e.value.threshold


def test_too_few_points_rejected():
    # two points leave a minimum-norm solution, not a least-squares fit
    with pytest.raises(ValueError, match="K >= 3"):
        batched_fit_weights(np.array([[[0.0, 0.0], [0.1, 0.0]]]))


@pytest.mark.parametrize("shape", [(5, 2), (3, 5, 3), (3, 5, 1), (2, 3, 5, 2), (10,)])
def test_malformed_offsets_rejected(shape):
    with pytest.raises(ValueError, match="offsets must have shape"):
        batched_fit_weights(np.zeros(shape))


def test_cross_weights_are_mean_and_centered_difference():
    h = 0.25
    w, _ = batched_fit_weights(cross(h)[None])
    assert np.allclose(w[0, 0], 0.2)
    assert np.allclose(w[0, 1], np.array([0.0, -1.0, 1.0, 0.0, 0.0]) / (2.0 * h))
    assert np.allclose(w[0, 2], np.array([0.0, 0.0, 0.0, -1.0, 1.0]) / (2.0 * h))


def test_fit_weights_reproduce_fit():
    """W @ values is the least-squares plane fit, sigma its smallest singular value."""
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.1, 0.1, size=(6, 2))
    vals = rng.standard_normal(6)
    w, sigma = batched_fit_weights(pts[None])
    design = np.column_stack([np.ones(6), pts])
    coef, _, rank, sv = np.linalg.lstsq(design, vals, rcond=None)
    assert rank == 3
    assert np.allclose(w[0] @ vals, coef, rtol=0, atol=1e-13)
    assert sigma[0] == pytest.approx(sv[-1], rel=1e-12)


def test_batched_weights_match_per_stencil_weights():
    """Each stencil's weights and sigma_3 equal a per-stencil lstsq solve."""
    rng = np.random.default_rng(19)
    offs = rng.uniform(-0.1, 0.1, size=(9, 5, 2))
    w, sigma = batched_fit_weights(offs)
    assert w.shape == (9, 3, 5) and sigma.shape == (9,)
    for m in range(9):
        design = np.column_stack([np.ones(5), offs[m]])
        # least-squares solves against the identity give the pseudo-inverse
        pinv, _, rank, sv = np.linalg.lstsq(design, np.eye(5), rcond=None)
        assert rank == 3
        assert np.allclose(w[m], pinv, rtol=0, atol=1e-12)
        assert sigma[m] == pytest.approx(sv[-1], rel=1e-12)


def test_gradient_error_slopes():
    """Perturbed stencils: fitted value converges at second order, fitted
    gradient at least at first order."""
    rng = np.random.default_rng(7)
    unit = cross(1.0) + rng.uniform(-0.2, 0.2, size=(5, 2))
    u = lambda x, y: np.sin(x + 0.3) * np.cos(y - 0.1)
    ux, uy = np.cos(0.3) * np.cos(-0.1), -np.sin(0.3) * np.sin(-0.1)
    hs = 0.1 / 2.0 ** np.arange(5)
    pts = unit[None] * hs[:, None, None]
    a, b, c = fit(pts, u(pts[:, :, 0], pts[:, :, 1])).T
    grad_err = np.hypot(b - ux, c - uy)
    val_err = np.abs(a - u(0.0, 0.0))
    assert np.polyfit(np.log(hs), np.log(grad_err), 1)[0] > 0.9
    assert np.polyfit(np.log(hs), np.log(val_err), 1)[0] > 1.9
