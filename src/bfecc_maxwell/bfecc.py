"""Back-and-forth error compensation and correction wrapper.

Given a one-step linear operator L and its time-reversed counterpart L*,
the same operator stepping -dt, one BFECC step advances

    U~^{n+1} = L U^n
    U~^n     = L* U~^{n+1}
    U^{n+1}  = L(U^n + (U^n - U~^n) / 2)

The compensation raises the order of a first-order L to second order and
is stable whenever the spectral radius of L's symbol stays at or below 2.

`bfecc_apply` is the one composition: `bfecc_step` (1D and 2D) and the
absorbing collar's pml.PmlRunner.step, which hooks its memory term and
TF/SF corrections into the substeps they belong to, both run through it.
It works on stacked states: a step allocates only the array it returns,
the compensated state lives in a work buffer that a run allocates once,
and the input is never mutated.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Optional, Union

import numpy as np

# step_1d, step_2d, lincomb1, lincomb2 and StencilGeometry are looked up in
# this module by bench/tracing.py, which wraps them in place
from .schemes import (FieldState1, FieldState2, SchemeSpec, StencilGeometry,  # noqa: F401
                      Workspace, _operator, lincomb1, lincomb2, step_1d, step_2d)

State = Union[FieldState1, FieldState2]


class BfeccStep:
    """BFECC-wrapped underlying scheme and the work buffers of its steps.

    `spec` is the underlying scheme; its operator steps dt in the forward
    substeps and -dt in the backward one.  A run builds one and steps with
    it throughout; `with_dt` gives the wrapper for a shorter final step,
    sharing the buffers.
    """

    def __init__(self, spec: SchemeSpec):
        self.spec = spec
        self.work = Workspace()

    def with_dt(self, dt: float) -> "BfeccStep":
        other = copy.copy(self)
        other.spec = replace(self.spec, dt=dt)
        return other


def bfecc_apply(substep, u, work):
    """The three-substep composition on the stacked state u.

    substep(k, v, out) applies substep k = 0, 1, 2 (L, L*, L) to the stack
    v, writes the result into `out` (a fresh array when None) and returns
    it.  The first substep's fresh array carries the step: it takes
    1.5 U once the second substep, which writes into an array from the
    Workspace `work`, has read it, and then the last substep's result.
    The compensated state 1.5 U - 0.5 L* L U is formed in place in the
    work array, rounded as fl(1.5 U) + fl(-0.5 L* L U).
    """
    a = substep(0, u, None)
    b = substep(1, a, work("bfecc", u.shape))
    np.multiply(u, 1.5, out=a)
    b *= -0.5
    b += a
    return substep(2, b, a)


def bfecc_step(step: BfeccStep, state: State, where,
               geometry: Optional[StencilGeometry] = None,
               weights=None) -> State:
    """One BFECC step of the wrapped scheme.

    `where` is the grid spacing dx for 1D states or the Grid2 for 2D
    states.  For least-squares kinds, `geometry`/`weights` reuse stencil
    data across substeps and steps (all three substeps share one grid).
    """
    op = _operator(step.spec, state, where, geometry, weights)
    dt, work = step.spec.dt, step.work
    u = bfecc_apply(lambda k, v, out: op(-dt if k == 1 else dt, v, out, work), state.u, work)
    return type(state)._of(u, state.eps, state.mu)
