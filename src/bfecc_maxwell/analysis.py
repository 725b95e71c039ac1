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


def cfl_bound(kind, dims, spacings, theta=0.0):
    """Proven BFECC time-step bound for the scheme on the given spacings.

    BFECC is stable when the spectral radius of the underlying symbol is
    at most 2; for these normal symbols that is a closed-form condition.
    cd:  dt <= sqrt(3) / sqrt(sum 1/dx_i^2)
    lf:  dt <= 2 / sqrt(sum 1/dx_i^2), and in 2D also dt <= sqrt(7/2)*min dx
    theta: the lf-style bound with c(theta) from theta_cfl_constant, the
         exact root of the quadratic in cos t that radius <= 2 gives
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
    root = math.sqrt(sum(1.0 / s ** 2 for s in sp))
    if kind == "cd":
        return math.sqrt(3.0) / root
    if kind == "lf":
        c = 2.0
    elif kind == "theta":
        c = theta_cfl_constant(float(theta))
    else:
        raise ValueError(f"no CFL bound for kind {kind!r}")
    bound = c / root
    if dims == 2:
        bound = min(bound, math.sqrt(3.5) * min(sp))
    return bound


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
