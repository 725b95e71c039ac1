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

A stepper binds what is fixed for a run once, by one rule (`_bound`), and
its `with_dt` copy shares the binding: a `BfeccStep` binds the underlying
operator (schemes._operator), which takes the signed step at each call,
and pml.PmlRunner, a `BfeccStep` too, its materials and edge corrections.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from operator import is_
from typing import Optional, Union

import numpy as np

# _operator is looked up in its module at each binding, so that a wrapper
# installed there sees every binding
from . import schemes
# step_1d, step_2d, lincomb1, lincomb2 and StencilGeometry are looked up in
# this module by bench/tracing.py, which wraps them in place
from .schemes import (FieldState1, FieldState2, SchemeSpec, StencilGeometry,  # noqa: F401
                      Workspace, lincomb1, lincomb2, step_1d, step_2d)

State = Union[FieldState1, FieldState2]


class BfeccStep:
    """BFECC-wrapped underlying scheme, its binding and the work buffers of
    its steps.

    `spec` is the underlying scheme; its operator steps dt in the forward
    substeps and -dt in the backward one.  A run builds one and steps with
    it throughout; `with_dt` gives the wrapper for a shorter final step,
    sharing the buffers and the binding.  A binding keeps 1/eps and 1/mu,
    so material arrays must not be changed in place between steps.
    """

    def __init__(self, spec: SchemeSpec):
        self.spec = spec
        self.work = Workspace()
        self._key = None

    def with_dt(self, dt: float) -> "BfeccStep":
        other = copy.copy(self)
        other.spec = replace(self.spec, dt=dt)
        return other

    def _bound(self, state, *args):
        """What self._bind(state, *args) gave, bound at the first call and
        again only when an argument or the state's materials are other
        objects than at the last binding, or the state's shape differs
        (which also tells 1D from 2D states).  (An object without
        materials, which is no state, reaches _bind and its TypeError.)"""
        key = (*args, getattr(state, "eps", None), getattr(state, "mu", None))
        if self._key is None or not all(map(is_, key, self._key)) or state.u.shape != self._shape:
            self._value = self._bind(state, *args)
            self._key, self._shape = key, state.u.shape
        return self._value

    def _bind(self, state, where, geometry, weights):
        """The underlying operator op(sdt, u, out) for these arguments."""
        return schemes._operator(self.spec, state, where, geometry, weights, self.work)


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
    The operator that `step` (or the stepper it is a `with_dt` copy of)
    bound is reused as long as `where`, `geometry`, `weights` and the
    state's materials are the same objects, so pass the same ones every
    step.  It keeps 1/eps and 1/mu: do not change a material array in place
    after the first step; give the state new arrays instead.
    """
    op = step._bound(state, where, geometry, weights)
    dt = step.spec.dt
    u = bfecc_apply(lambda k, v, out: op(-dt if k == 1 else dt, v, out), state.u, step.work)
    return type(state)._of(u, state.eps, state.mu)
