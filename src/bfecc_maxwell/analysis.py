"""Fourier-symbol toolkit for the schemes and their BFECC wrappers.

For a mode exp(2*pi*i*(k x + l y)) on a uniform grid the one-step update
acts as a small complex matrix Q(k) on the component coefficients.  The
BFECC wrapper has symbol

    Q_B = Q_L (I + (I - Q_L* Q_L) / 2),

and every eigenvalue lambda_j of Q_L maps to
(1 + (1 - |lambda_j|^2)/2) * lambda_j, which is what makes the stability
condition "spectral radius of Q_L at most 2" exact.  Scans sample phase
angles 2*pi*j/samples per axis, the resolved dual set of an
(samples)-point grid; samples divisible by 4 hits sin^2 = 1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bfecc import BfeccStep, bfecc_step
from .schemes import FieldState1, SchemeSpec, _theta_eff

_IdxType = Union[int, float]


def _as_pair(v):
    if np.isscalar(v):
        return float(v), float(v)
    a, b = v
    return float(a), float(b)


def _symbol_1d(phases, lam, theta_eff):
    """Batched 1D symbols, shape (..., 2, 2), for phase angles k~ h."""
    t = np.asarray(phases, dtype=float)
    q = 1.0 - theta_eff + theta_eff * np.cos(t)
    ls = lam * np.sin(t)
    out = np.zeros(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = q
    out[..., 1, 1] = q
    out[..., 0, 1] = 1j * ls
    out[..., 1, 0] = 1j * ls
    return out


def _symbol_2d(phases_x, phases_y, lam_x, lam_y, theta_eff):
    """Batched 2D TMz symbols on (Hx, Hy, Ez), shape (..., 3, 3)."""
    tx = np.asarray(phases_x, dtype=float)
    ty = np.asarray(phases_y, dtype=float)
    q = 1.0 - theta_eff + theta_eff * 0.5 * (np.cos(tx) + np.cos(ty))
    ax = lam_x * np.sin(tx)
    ay = lam_y * np.sin(ty)
    out = np.zeros(np.broadcast(tx, ty).shape + (3, 3), dtype=complex)
    out[..., 0, 0] = q
    out[..., 1, 1] = q
    out[..., 2, 2] = q
    out[..., 0, 2] = -1j * ay
    out[..., 2, 0] = -1j * ay
    out[..., 1, 2] = 1j * ax
    out[..., 2, 1] = 1j * ax
    return out


def symbol(kind, dims, k, h, lam, theta=0.0, direction="forward"):
    """One-step symbol Q(k) of a uniform-grid scheme.

    dims 1: k, h, lam scalars; dims 2: pairs (k, l), (hx, hy), (lx, ly)
    (scalars broadcast).  The phase per axis is 2*pi*k*h.  Backward
    direction negates lam, which equals entrywise conjugation.
    """
    th = _theta_eff(kind, theta)
    sgn = 1.0 if direction == "forward" else -1.0
    if dims == 1:
        return _symbol_1d(2.0 * math.pi * float(k) * float(h), sgn * float(lam), th)
    if dims == 2:
        kx, ky = _as_pair(k)
        hx, hy = _as_pair(h)
        lx, ly = _as_pair(lam)
        return _symbol_2d(2.0 * math.pi * kx * hx, 2.0 * math.pi * ky * hy,
                          sgn * lx, sgn * ly, th)
    raise ValueError(f"dims must be 1 or 2, got {dims}")


def bfecc_symbol(q_l):
    """BFECC symbol Q_L (I + (I - Q_L* Q_L)/2) from the underlying symbol.

    Q_L* is the entrywise conjugate of q_l, exact for all uniform kinds
    here, whose backward step negates lam.
    Accepts batched (..., m, m) input.
    """
    q = np.asarray(q_l, dtype=complex)
    eye = np.eye(q.shape[-1], dtype=complex)
    return q @ (eye + 0.5 * (eye - np.conj(q) @ q))


def bfecc_symbol_for(kind, dims, k, h, lam, theta=0.0):
    return bfecc_symbol(symbol(kind, dims, k, h, lam, theta))


def exact_propagator(k, dt, dims):
    """Symbol of the exact solution operator exp(dt * G) for mode k.

    1D: rotation mixing E and H.  2D (k, l): unitary 3x3 matrix with
    frequency 2*pi*sqrt(k^2 + l^2); (k, l) = (0, 0) gives the identity.
    """
    if dims == 1:
        w = 2.0 * math.pi * float(k) * dt
        return np.array([[math.cos(w), 1j * math.sin(w)],
                         [1j * math.sin(w), math.cos(w)]])
    if dims != 2:
        raise ValueError(f"dims must be 1 or 2, got {dims}")
    kx, ky = _as_pair(k)
    k2 = kx * kx + ky * ky
    if k2 == 0.0:
        return np.eye(3, dtype=complex)
    kk = math.sqrt(k2)
    w = 2.0 * math.pi * kk * dt
    c, s = math.cos(w), math.sin(w)
    return np.array([
        [(kx * kx + ky * ky * c) / k2, kx * ky * (1.0 - c) / k2, -1j * ky * s / kk],
        [kx * ky * (1.0 - c) / k2, (ky * ky + kx * kx * c) / k2, 1j * kx * s / kk],
        [-1j * ky * s / kk, 1j * kx * s / kk, c],
    ])


@dataclass(frozen=True)
class ScanResult:
    """Spectral radii over the sampled dual grid."""

    radii: np.ndarray
    max_radius: float
    argmax: tuple
    samples: int


def stability_scan(kind, dims, lam, samples, theta=0.0, bfecc=True) -> ScanResult:
    """Max spectral radius of the (BFECC-wrapped) symbol over sampled k.

    Samples phase angles 2*pi*j/samples per axis, j = 0..samples-1.
    `samples` must be at least 64 per axis (and should be divisible by 4
    so the sin^2 = 1 extremum is hit exactly).
    """
    samples = int(samples)
    if samples < 64:
        raise ValueError(f"samples must be >= 64 per axis, got {samples}")
    th = _theta_eff(kind, theta)
    phases = 2.0 * math.pi * np.arange(samples) / samples
    if dims == 1:
        q = _symbol_1d(phases, float(lam), th)
    elif dims == 2:
        lx, ly = _as_pair(lam)
        px, py = np.meshgrid(phases, phases, indexing="ij")
        q = _symbol_2d(px, py, lx, ly, th)
    else:
        raise ValueError(f"dims must be 1 or 2, got {dims}")
    if bfecc:
        q = bfecc_symbol(q)
    radii = np.abs(np.linalg.eigvals(q)).max(axis=-1)
    flat_arg = int(np.argmax(radii))
    argmax = (flat_arg,) if dims == 1 else tuple(int(v) for v in np.unravel_index(flat_arg, radii.shape))
    return ScanResult(radii, float(radii.reshape(-1)[flat_arg]), argmax, samples)


def theta_cfl_constant(theta):
    """Largest c with the 1D theta-scheme BFECC stable at lam = c.

    The symbol q I + i c sin(t) [[0, 1], [1, 0]], q = 1 - theta + theta cos t,
    is normal with eigenvalue moduli^2 q^2 + c^2 sin^2 t, and BFECC is
    stable exactly when they stay <= 4.  With u = cos t, alpha = 1 - theta,
    the edge is c^2 = min over u of (4 - (alpha + theta u)^2) / (1 - u^2);
    setting the derivative to zero gives p u^2 - B u + p = 0 with
    p = theta alpha and B = 4 - theta^2 - alpha^2, whose root in [0, 1) is
    taken in its cancellation-free form.  c rises from sqrt(3) (cd) to
    2 (lf), both exact.
    """
    th = _theta_eff("theta", theta)
    a = 1.0 - th
    p = th * a
    b = 4.0 - th * th - a * a
    u = 2.0 * p / (b + math.sqrt(b * b - 4.0 * p * p))
    q = a + th * u
    return math.sqrt((4.0 - q * q) / (1.0 - u * u))


def _edge_2d(theta_eff, hx, hy):
    """Largest dt at which the 2D BFECC theta scheme is stable, exact for
    any spacings hx, hy.

    The symbol q I + i M is normal with eigenvalue moduli^2 q^2 and
    q^2 + s^2, where with u = cos(tx), v = cos(ty), a = 1/hx, b = 1/hy,

        q = 1 - theta + theta (u + v) / 2,
        s^2 = mu S,  S = a^2 (1 - u^2) + b^2 (1 - v^2),  mu = dt^2,

    and BFECC is stable exactly when F = q^2 + mu S <= 4 on [-1, 1]^2.  For
    fixed mu, F is a quadratic in (u, v), so its maximum is the largest F
    among the corners, the stationary points along the four edges and the
    interior stationary point, those that lie in the square.  max F - 4 is
    convex and nondecreasing in mu (a maximum of affine functions of mu),
    so Newton's step mu <- (4 - q^2) / S at the maximizer, started from
    the upper bound that the mode u = v = 0 sets, decreases monotonically
    to the edge.  The edge scales with the spacings, so it is found for
    spacings divided by the larger one.
    """
    scale = max(hx, hy)
    if min(hx, hy) < 1e-100 * scale:
        raise ValueError(f"spacings {hx} and {hy} differ too much for a 2D bound")
    hx, hy = hx / scale, hy / scale
    a2, b2 = 1.0 / (hx * hx), 1.0 / (hy * hy)
    alpha = 1.0 - theta_eff

    def worst(mu):
        points = [(u, v) for u in (-1.0, 1.0) for v in (-1.0, 1.0)]
        for side in (-1.0, 1.0):
            c = alpha + 0.5 * theta_eff * side
            for curvature, along_u in ((b2, False), (a2, True)):
                den = 2.0 * mu * curvature - 0.5 * theta_eff ** 2
                w = theta_eff * c / den if den != 0.0 else math.inf
                if -1.0 <= w <= 1.0:
                    points.append((w, side) if along_u else (side, w))
        den = 1.0 - theta_eff ** 2 * (hx * hx + hy * hy) / (4.0 * mu)
        if den != 0.0:
            q = alpha / den
            u = theta_eff * q * hx * hx / (2.0 * mu)
            v = theta_eff * q * hy * hy / (2.0 * mu)
            if -1.0 <= u <= 1.0 and -1.0 <= v <= 1.0:
                points.append((u, v))
        f, q, s = max((q * q + mu * s, q, s) for q, s in
                      ((alpha + 0.5 * theta_eff * (u + v), a2 * (1.0 - u * u) + b2 * (1.0 - v * v))
                       for u, v in points))
        return q, s

    mu = (4.0 - alpha * alpha) / (a2 + b2)
    for _ in range(100):
        q, s = worst(mu)
        nxt = (4.0 - q * q) / s
        if not nxt < mu:
            break
        mu = nxt
    return scale * math.sqrt(mu)


def cfl_bound(kind, dims, spacings, theta=0.0):
    """Exact BFECC time-step bound for the scheme on the given spacings.

    BFECC is stable when the spectral radius of the underlying symbol is
    at most 2; for these normal symbols that is a closed condition.
    1D:  dt <= c(theta) h with c from theta_cfl_constant (sqrt 3 for cd,
         2 for lf).
    2D:  the largest dt with radius <= 2 on every mode, from `_edge_2d`;
         sqrt(3) / sqrt(1/hx^2 + 1/hy^2) for cd, and for hx = hy the 1D
         constant over sqrt(1/hx^2 + 1/hy^2).
    ls_cd / ls_theta use their uniform-grid reductions (cd, theta(0.8)).
    """
    sp = [float(s) for s in (spacings if np.iterable(spacings) else [spacings])]
    if len(sp) != dims:
        raise ValueError(f"expected {dims} spacings, got {len(sp)}")
    if not all(0.0 < s < math.inf for s in sp):
        raise ValueError(f"spacings must be finite and positive, got {sp}")
    if dims not in (1, 2):
        raise ValueError(f"dims must be 1 or 2, got {dims}")
    if kind == "ls_cd":
        kind = "cd"
    elif kind == "ls_theta":
        kind, theta = "theta", 0.8
    th = _theta_eff(kind, theta)
    if dims == 1:
        return theta_cfl_constant(th) * sp[0]
    return _edge_2d(th, *sp)


def accuracy_order(kind, dims, lam, bfecc=True, theta=0.0, k=1, levels=5, h0=1.0 / 16.0):
    """Observed order p of || Q(k, h) - exp(dt G) || = O(h^p) at fixed lam.

    Sweeps h over `levels` dyadic refinements with dt = lam * h and fits
    the log-log slope of the Frobenius-norm defect.  A first-order scheme
    has a second-order one-step defect (p ~ 2); its BFECC wrapper p ~ 3.
    """
    hs = h0 / 2.0 ** np.arange(levels)
    errs = []
    for h in hs:
        q = symbol(kind, dims, k, h, lam, theta)
        if bfecc:
            q = bfecc_symbol(q)
        dt = float(lam) * h
        p = exact_propagator(k if dims == 1 else _as_pair(k), dt, dims)
        errs.append(np.linalg.norm(q - p))
    errs = np.maximum(errs, 1e-300)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])


def phase_speed(lam, kh):
    """Normalized numerical phase speed of 1D BFECC-cd at phase k~ h.

    Solves sin(omega dt) = lam * (1 - lam^2 sin^2(k~ h)/2) * sin(k~ h)
    for omega and returns omega/k~ (exact speed = 1).  Raises when the
    arcsin argument leaves [-1, 1] (evanescent/unstable mode).
    """
    lam = float(lam)
    kh = float(kh)
    if not (math.isfinite(lam) and math.isfinite(kh) and lam != 0.0 and kh != 0.0):
        raise ValueError(f"lam and kh must be finite and nonzero, got lam={lam}, kh={kh}")
    s = math.sin(kh)
    arg = lam * (1.0 - 0.5 * lam * lam * s * s) * s
    if abs(arg) > 1.0:
        raise ValueError(
            f"no real frequency at lam={lam}, kh={kh}: |sin(omega dt)| = {abs(arg):.6f} > 1")
    return math.asin(arg) / (lam * kh)


def measured_phase_speed(lam, kh, steps=100, n=1024):
    """Phase speed of 1D BFECC-cd measured from a time-domain run.

    Propagates E = H = sin(k~ x) on a long periodic array (unit spacing,
    dt = lam), fits the complex mode amplitude per step on the region the
    wrap seam cannot have contaminated (3 cells per step each way), and
    converts the accumulated per-step multiplier with the same
    sin(omega dt) = Im convention as the closed form.
    """
    lam = float(lam)
    kh = float(kh)
    if steps < 1:
        raise ValueError(f"steps must be at least 1, got {steps}")
    reach = 3 * steps + 8
    if n <= 2 * reach + 32:
        raise ValueError(f"n={n} too small for {steps} steps (seam reach {reach} cells each side)")
    x = np.arange(n, dtype=float)
    state = FieldState1(np.sin(kh * x), np.sin(kh * x))
    sl = slice(reach, n - reach)
    basis = np.column_stack([np.sin(kh * x[sl]), np.cos(kh * x[sl])])
    solver = np.linalg.pinv(basis)

    def amplitude(st):
        a_s, a_c = solver @ st.E[sl]
        return complex(a_s, a_c)

    step = BfeccStep(SchemeSpec("cd", dt=lam))
    z_prev = amplitude(state)
    z0 = z_prev
    total_phase = 0.0
    for _ in range(steps):
        state = bfecc_step(step, state, 1.0)
        z = amplitude(state)
        total_phase += math.atan2((z / z_prev).imag, (z / z_prev).real)
        z_prev = z
    rho = abs(z_prev / z0) ** (1.0 / steps)
    im_mu = rho * math.sin(total_phase / steps)
    return math.asin(im_mu) / (lam * kh)
