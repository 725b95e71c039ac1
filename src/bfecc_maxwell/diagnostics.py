"""Error norms, conserved-quantity checks and result tables."""

from __future__ import annotations

import math

import numpy as np

from .schemes import FieldState1, FieldState2


def _components(obj):
    if isinstance(obj, FieldState1):
        return [("E", obj.E), ("H", obj.H)]
    if isinstance(obj, FieldState2):
        return [("Hx", obj.Hx), ("Hy", obj.Hy), ("Ez", obj.Ez)]
    if isinstance(obj, (tuple, list)):
        return [(f"c{k}", np.asarray(a, dtype=float)) for k, a in enumerate(obj)]
    raise TypeError(f"expected a field state or a sequence of arrays, got {type(obj)!r}")


def rms(arr) -> float:
    arr = np.asarray(arr, dtype=float)
    return float(np.sqrt(np.mean(arr * arr)))


def _differences(a, b):
    """(name, fa - fb) for each pair of components of a and b."""
    ca, cb = _components(a), _components(b)
    if len(ca) != len(cb):
        raise ValueError("operands have different component counts")
    for (name, fa), (_, fb) in zip(ca, cb):
        if fa.shape != fb.shape:
            raise ValueError(f"component {name} shapes differ: {fa.shape} vs {fb.shape}")
        yield name, fa - fb


def component_rms(a, b) -> dict:
    """Root-mean-square difference per field component."""
    return {name: rms(d) for name, d in _differences(a, b)}


def l2_error(a, b) -> float:
    """RMS difference over every (point, component) entry."""
    total = 0.0
    count = 0
    for _, d in _differences(a, b):
        total += float(np.sum(d * d))
        count += d.size
    return float(np.sqrt(total / count))


def h_divergence(hx, hy, dx, dy) -> np.ndarray:
    """Centered discrete div H on a uniform periodic grid, indexed [i, j].

    The centered-difference scheme and its wrapped version conserve this
    quantity exactly in free space; the neighbor-averaged scheme maps it
    to a convex average of the four neighbors.
    """
    hx = np.asarray(hx, dtype=float)
    hy = np.asarray(hy, dtype=float)
    ddx = (np.roll(hx, -1, axis=0) - np.roll(hx, 1, axis=0)) / (2.0 * dx)
    ddy = (np.roll(hy, -1, axis=1) - np.roll(hy, 1, axis=1)) / (2.0 * dy)
    return ddx + ddy


def convergence_orders(hs, errors):
    """Observed orders log(e_k/e_{k+1}) / log(h_k/h_{k+1}); an error that
    is not positive (a sweep run to t = 0, say) has none, a ValueError."""
    hs = [float(h) for h in hs]
    errors = [float(e) for e in errors]
    if len(hs) != len(errors):
        raise ValueError("hs and errors must have equal length")
    if len(errors) > 1 and not all(e > 0 for e in errors):
        raise ValueError(f"observed orders need positive errors, got {errors}")
    return [math.log(errors[k - 1] / errors[k]) / math.log(hs[k - 1] / hs[k])
            for k in range(1, len(hs))]


def restrict_to_coarse(arr, pad, ratio, n_coarse) -> np.ndarray:
    """Sample a padded fine-grid field at the coarse physical nodes.

    Grids share the layout [pad cells | n cells over the unit region |
    pad cells]; physical node k of the coarse grid sits at fine index
    pad + ratio * k.  Returns the (n_coarse + 1)^2 physical-node block.
    """
    arr = np.asarray(arr)
    pad = int(pad)
    ratio = int(ratio)
    idx = pad + ratio * np.arange(n_coarse + 1)
    if idx[-1] >= arr.shape[0] - pad or idx[-1] >= arr.shape[1] - pad:
        raise ValueError(
            f"restriction indices reach {idx[-1]}, outside the physical block of {arr.shape}")
    return arr[np.ix_(idx, idx)]


def _fmt(v):
    return "" if v is None else f"{v:.6g}"


def write_error_table(path, rows) -> None:
    """CSV `grid,n,h,dt,l2_error,order`; order empty on each coarsest row."""
    lines = ["grid,n,h,dt,l2_error,order"]
    for r in rows:
        lines.append(",".join([
            str(r["grid"]), str(int(r["n"])), _fmt(r["h"]), _fmt(r["dt"]),
            _fmt(r["l2_error"]), _fmt(r.get("order")),
        ]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_snapshot(path, grid, state: FieldState2) -> None:
    """CSV `i,j,x,y,Ez,Hx,Hy` over all grid points, row-major."""
    with open(path, "w") as f:
        f.write("i,j,x,y,Ez,Hx,Hy\n")
        for i in range(grid.nx):
            for j in range(grid.ny):
                x, y = grid.coords[i, j]
                f.write(f"{i},{j},{x:.17g},{y:.17g},"
                        f"{state.Ez[i, j]:.17g},{state.Hx[i, j]:.17g},{state.Hy[i, j]:.17g}\n")
