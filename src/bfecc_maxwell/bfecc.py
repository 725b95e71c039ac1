"""Back-and-forth error compensation and correction wrapper.

Given a one-step linear operator L and its time-reversed counterpart L*,
one BFECC step advances

    U~^{n+1} = L U^n
    U~^n     = L* U~^{n+1}
    U^{n+1}  = L(U^n + (U^n - U~^n) / 2)

The compensation raises the order of a first-order L to second order and
is stable whenever the spectral radius of L's symbol stays at or below 2.
Steps with sources (the absorbing collar's memory terms and the TF/SF
plane-wave corrections) go through pml.PmlRunner, which applies each
source in the substeps it belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .grid import Grid2
from .schemes import (FieldState1, FieldState2, SchemeSpec, StencilGeometry,
                      lincomb1, lincomb2, step_1d, step_2d)

State = Union[FieldState1, FieldState2]


@dataclass(frozen=True)
class BfeccStep:
    """BFECC-wrapped underlying scheme.

    `spec` is the forward-direction underlying scheme; the backward spec
    is derived from it.
    """

    spec: SchemeSpec

    def __post_init__(self):
        if self.spec.direction != "forward":
            raise ValueError("BfeccStep takes the forward spec; backward is derived")


def bfecc_apply(forward: Callable, backward: Callable, state, lincomb):
    """Generic three-substep BFECC composition.

    forward/backward: one-step appliers; lincomb(ca, a, cb, b) forms the
    compensated state 1.5*U - 0.5*(L* L U) in one pass.
    """
    tilde = backward(forward(state))
    compensated = lincomb(1.5, state, -0.5, tilde)
    return forward(compensated)


def bfecc_step(step: BfeccStep, state: State, where,
               geometry: Optional[StencilGeometry] = None,
               weights=None) -> State:
    """One BFECC step of the wrapped scheme.

    `where` is the grid spacing dx for 1D states or the Grid2 for 2D
    states.  For least-squares kinds, `geometry`/`weights` reuse stencil
    data across substeps and steps (all three substeps share one grid).
    """
    fwd_spec = step.spec
    bwd_spec = step.spec.reversed()
    if isinstance(state, FieldState1):
        dx = float(where)
        forward = lambda s: step_1d(fwd_spec, s, dx)
        backward = lambda s: step_1d(bwd_spec, s, dx)
        return bfecc_apply(forward, backward, state, lincomb1)
    if isinstance(state, FieldState2):
        grid: Grid2 = where
        if fwd_spec.kind in ("ls_cd", "ls_theta") and geometry is None:
            geometry = StencilGeometry(grid)
        forward = lambda s: step_2d(fwd_spec, s, grid, geometry, weights)
        backward = lambda s: step_2d(bwd_spec, s, grid, geometry, weights)
        return bfecc_apply(forward, backward, state, lincomb2)
    raise TypeError(f"unsupported state type {type(state).__name__}")
