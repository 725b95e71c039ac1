"""Local linear least-squares reconstruction on scattered stencils.

Fit u(x, y) ~ a + b*(x - x0) + c*(y - y0) over a stencil of points given
relative to its center by minimizing the sum of squared residuals.  The
solve goes through an orthogonal factorization (SVD), which also yields
the smallest singular value sigma_3 of the design matrix

    A = [[1, x_1, y_1], ..., [1, x_K, y_K]]

used as the full-rank diagnostic: sigma_3 -> 0 means the stencil is
collinear and the gradient is not recoverable.
"""

from __future__ import annotations

import numpy as np


class RankDeficientStencilError(ValueError):
    """Stencil too close to collinear for a stable linear fit."""

    def __init__(self, sigma_min, threshold, where):
        self.sigma_min = float(sigma_min)
        self.threshold = float(threshold)
        super().__init__(
            f"rank-deficient stencil at {where}: sigma_3 = {sigma_min:.3e} "
            f"<= {threshold:.3e}")


def batched_fit_weights(offsets):
    """Least-squares fit weights of many stencils, one batched SVD.

    offsets: (m, K, 2) point offsets from each stencil's center, K >= 3;
    returns (W, sigma) with W (m, 3, K), so (a, b, c) = W[i] @ values, and
    sigma (m,) the sigma_3 of each design matrix.  Raises on the worst
    offending stencil if any is rank-deficient, i.e. sigma_3 <= 1e-10 times
    its largest point distance.
    """
    offs = np.asarray(offsets, dtype=float)
    if offs.ndim != 3 or offs.shape[1] < 3 or offs.shape[2] != 2:
        raise ValueError(f"offsets must have shape (m, K >= 3, 2), got {offs.shape}")
    m, k, _ = offs.shape
    a = np.empty((m, k, 3))
    a[:, :, 0] = 1.0
    a[:, :, 1:] = offs
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    sigma_min = sv[:, -1]
    h = np.max(np.hypot(offs[:, :, 0], offs[:, :, 1]), axis=1)
    bad = sigma_min <= 1e-10 * h
    if np.any(bad):
        worst = int(np.argmin(sigma_min / np.maximum(h, 1e-300)))
        raise RankDeficientStencilError(sigma_min[worst], 1e-10 * h[worst],
                                        where=f"stencil {worst}")
    w = (vt.transpose(0, 2, 1) / sv[:, None, :]) @ u.transpose(0, 2, 1)
    return w, sigma_min
