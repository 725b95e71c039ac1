"""Back-and-forth error compensation and correction wrapper.

Given a one-step linear operator L and its time-reversed counterpart L*,
the same operator stepping -dt, one BFECC step advances

    U~^{n+1} = L U^n
    U~^n     = L* U~^{n+1}
    U^{n+1}  = L(U^n + (U^n - U~^n) / 2)

The compensation raises the order of a first-order L to second order and
is stable whenever the spectral radius of L's symbol stays at or below 2.

`bfecc_program` is the one composition and `BfeccStep._run` the one step
body: `bfecc_step` (1D and 2D) and the absorbing collar's
pml.PmlRunner.step, which hooks its memory term and TF/SF corrections into
the substeps they belong to, both run through them.
It composes the programs of the three substeps (schemes.run_program:
a tuple of (function, args) entries, outputs passed positionally) and the
combination between them into the program of one step of a stacked state
into an `out` stack, which may be the input itself: a run keeps one state
stack and steps it in place, with two work stacks X and Y (X is `out`
itself when that is not the input) and the kernels' scratch, all
allocated at its first step.  Without `out` a step returns a fresh array
and leaves its input as it was.

A stepper binds in two layers.  What is fixed for a run's materials is
bound once, by one rule (`_bound`): a `BfeccStep` binds the underlying
operator (schemes._operator), and pml.PmlRunner, a `BfeccStep` too, the
same operator and its edge corrections.  The step's program is then
bound to the stacks it reads and writes (`_program`), every view made
once and kept while the same stacks come back, so a run stepping in place
builds it once and every later step replays it: only its numpy calls
run.  The signed step enters only where a substep is bound, so a
`with_dt` copy shares the first layer and builds its own program.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from functools import partial
from numbers import Real
from operator import is_
from typing import Optional, Union

import numpy as np

# _operator is looked up in its module at each binding, so that a wrapper
# installed there sees every binding
from . import schemes
# step_1d, step_2d, lincomb1, lincomb2 and StencilGeometry are looked up in
# this module by bench/tracing.py, which wraps them in place
from .schemes import (FieldState1, FieldState2, SchemeSpec, StencilGeometry,  # noqa: F401
                      Workspace, _scalar, lincomb1, lincomb2, run_program, step_1d,
                      step_2d)

State = Union[FieldState1, FieldState2]


class BfeccStep:
    """BFECC-wrapped underlying scheme, its binding and the work buffers of
    its steps.

    `spec` is the underlying scheme; its operator steps dt in the forward
    substeps and -dt in the backward one.  A run builds one and steps with
    it throughout; `with_dt` gives the wrapper for a shorter final step,
    sharing the buffers and the materials' binding, which builds its own
    program for the new step.  A binding keeps 1/eps and 1/mu, so
    material arrays must not be changed in place between steps.  The
    stepper holds the one program it replays; nothing refers back to it,
    so a run's work stacks go with the stepper.
    """

    def __init__(self, spec: SchemeSpec):
        self.spec = spec
        self.work = Workspace()
        self._key = None
        self._kept = None

    def with_dt(self, dt: float) -> "BfeccStep":
        other = copy.copy(self)
        other.spec = replace(self.spec, dt=dt)
        other._kept = None
        return other

    def _bound(self, state, *args):
        """What self._bind(state, *args) gave, bound at the first call and
        again only when an argument or the state's materials differ from
        the last binding's, or the state's shape does (which also tells 1D
        from 2D states).  A number, the 1D spacing, differs when its value
        does; anything else when it is another object.  (An object without
        materials, which is no state, reaches _bind and its TypeError.)"""
        key = (*args, getattr(state, "eps", None), getattr(state, "mu", None))
        if (self._key is None or state.u.shape != self._shape
                or not (all(map(is_, key, self._key)) or all(map(_same, key, self._key)))):
            self._value = self._bind(state, *args)
            self._key, self._shape = key, state.u.shape
        return self._value

    def _bind(self, state, where, geometry, weights):
        """The underlying operator's binder for these arguments."""
        return schemes._operator(self.spec, state, where, geometry, weights, self.work)

    def _substep(self, bound, k, v, out):
        """The program of substep k of the composition, from the stack v
        into `out`, bound by `bound`, what _bound gave."""
        return bound(-self.spec.dt if k == 1 else self.spec.dt, v, out)

    def _run(self, bound, state, out):
        """Run the step of `state` into `out` with the binding `bound`;
        in place the state itself is returned."""
        out, program = self._program(bound, state.u, out)
        run_program(program)
        return state if out is state.u else type(state)._of(out, state.eps, state.mu)

    def _program(self, bound, u, out):
        """(out, program) of a step of the stack u into `out` (a fresh array
        when None).  For a given `out` the program is built once and kept
        while `bound`, u and out are the same objects, so a run stepping in
        place builds it at its first step and replays it after; a fresh
        step builds one for its fresh array as it runs."""
        kept = self._kept
        if kept is not None and kept[0] is bound and kept[1] is u and kept[2] is out:
            return out, kept[3]
        if out is None:
            out = np.empty(u.shape)
            return out, bfecc_program(partial(self._substep, bound), u, out, self.work)
        _check_out(out, u)
        self._kept = (bound, u, out, tuple(bfecc_program(partial(self._substep, bound), u, out,
                                                         self.work)))
        return out, self._kept[3]


def _same(a, b):
    """Whether a binding for b serves a: the same object, or numbers of
    one value."""
    return a is b or (isinstance(a, Real) and isinstance(b, Real) and a == b)


def _check_out(out, u):
    """One line of ValueError unless `out` is a contiguous array of u's
    shape and dtype."""
    if not isinstance(out, np.ndarray):
        got = type(out).__name__
    elif (out.shape, out.dtype) != (u.shape, u.dtype):
        got = f"{out.dtype} {out.shape}"
    elif not out.flags.c_contiguous:
        got = "a non-contiguous array"
    else:
        return
    raise ValueError(f"out must be a C-contiguous {u.dtype} array of shape {u.shape}, got {got}")


def _stacks(u, out, work):
    """The work stacks (X, Y) of a step of u into `out` (None for a fresh
    array): X is `out`, or a Workspace stack when `out` is u itself, and Y
    the "bfecc" stack."""
    return (work("X", u.shape) if out is u else out), work("bfecc", u.shape)


def bfecc_program(substep, u, out, work):
    """The program of the three-substep composition on the stacked state u,
    written into `out`, which may be u itself, as an iterator of its
    entries: a substep's program is built when the iteration reaches it,
    so a fresh step, run straight from the iterator, holds the views of
    one substep at a time, and a kept program is its tuple.

    substep(k, v, o) gives the program of substep k = 0, 1, 2 (L, L*, L)
    from the stack v into o.  With the stacks X and Y of `_stacks` (from
    the Workspace `work`) the substeps run u -> X, X -> Y and then
    Y -> out, where X takes 1.5 u once the second substep has read it and
    Y becomes the compensated state 1.5 u - 0.5 L* L u in place, rounded
    as fl(1.5 u) + fl(-0.5 L* L u).
    """
    x, y = _stacks(u, out, work)
    yield from substep(0, u, x)
    yield from substep(1, x, y)
    yield from ((np.multiply, (u, _scalar(1.5), x)), (np.multiply, (y, _scalar(-0.5), y)),
                (np.add, (y, x, y)))
    yield from substep(2, y, out)


def bfecc_step(step: BfeccStep, state: State, where,
               geometry: Optional[StencilGeometry] = None,
               weights=None, out=None) -> State:
    """One BFECC step of the wrapped scheme, written into `out` (a fresh
    array when None), which may be state.u itself: a run that passes
    out=state.u steps its one state stack in place.

    `where` is the grid spacing dx for 1D states or the Grid2 for 2D
    states.  For least-squares kinds, `geometry`/`weights` reuse stencil
    data across substeps and steps (all three substeps share one grid).
    The operator that `step` (or the stepper it is a `with_dt` copy of)
    bound is reused as long as `where` (a spacing: its value), `geometry`,
    `weights` and the state's materials are the same objects, so pass the
    same ones every step.  It keeps 1/eps and 1/mu: do not change a
    material array in place after the first step; give the state new
    arrays instead.  An `out` of another shape or dtype than state.u, or
    not contiguous, is a ValueError.  In place the state itself is
    returned.
    """
    return step._run(step._bound(state, where, geometry, weights), state, out)
