"""In-memory spans around the calls one solver module makes into another.

A `Tracer` replaces names in the solver's module namespaces (and two
methods) with thin wrappers that record a span per call: name, start,
end, parent and optional exact counts.  Nothing under `src/` changes; the
wrappers pass arguments and results through untouched, so traced answers
equal untraced ones bit for bit.  `restore()` puts every original back.

Self time of a span is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import json
import time

import numpy as np

from bfecc_maxwell import bfecc, harness, pml, schemes


def _fit_weight_counts(args, result):
    """Stencil count and min sigma_3 / h from batched_fit_weights' own sigma."""
    offsets = np.asarray(args[0], dtype=float)
    _, sigma = result
    h = np.max(np.hypot(offsets[:, :, 0], offsets[:, :, 1]), axis=1)
    return {"stencils": int(sigma.shape[0]), "min_sigma3_over_h": float(np.min(sigma / h))}


def _ls_fit_counts(args, result):
    """Computed, not measured: bytes and flops of the gather + contraction.

    Per field and update point the fit reads 5 neighbour indices, 5
    gathered values and the 3x5 weight block and writes 3 outputs, all
    8 bytes wide; the contraction is 15 multiply-adds.
    """
    m, outputs, k = np.shape(args[1])
    fields = len(args) - 2
    per_point = (k + k + outputs * k + outputs) * 8
    return {"bytes_computed": fields * m * per_point,
            "flops_computed": fields * m * 2 * outputs * k}


def _shifted_counts(args, result):
    return {"shifted_points": int(np.count_nonzero(result.shifted_mask))}


# (owner, attribute, span name, counter) for the wrapped boundaries.  The
# owner is the caller module whose namespace holds the name, or the class
# whose method is replaced.
STEP_WRAPS = [
    (harness, "run_experiment", "harness", None),
    (harness, "bfecc_step", "bfecc.bfecc_step", None),
    (pml.PmlRunner, "step", "pml.PmlRunner.step", None),
]

LAYER_WRAPS = STEP_WRAPS + [
    (harness, "step_1d", "schemes.step_1d", None),
    (harness, "step_2d", "schemes.step_2d", None),
    (harness, "point_shift", "grid.point_shift", _shifted_counts),
    (harness, "StencilGeometry", "schemes.StencilGeometry", None),
    (harness, "cfl_bound", "analysis.cfl_bound", None),
    (harness, "build_pml", "pml.setup", None),
    (harness, "PmlRunner", "pml.setup", None),
    (harness, "component_rms", "diagnostics", None),
    (harness, "l2_error", "diagnostics", None),
    (bfecc, "step_1d", "schemes.step_1d", None),
    (bfecc, "step_2d", "schemes.step_2d", None),
    (bfecc, "lincomb1", "schemes.lincomb", None),
    (bfecc, "lincomb2", "schemes.lincomb", None),
    (bfecc, "StencilGeometry", "schemes.StencilGeometry", None),
    (schemes, "batched_fit_weights", "lsq.batched_fit_weights", _fit_weight_counts),
    (pml, "_ls_fit_all", "schemes.ls_fit", _ls_fit_counts),
    (pml, "lincomb2", "schemes.lincomb", None),
    (pml, "StencilGeometry", "schemes.StencilGeometry", None),
    (pml.TfsfInjector, "corrections", "pml.tfsf_corrections", None),
]


# (metric, unit, layer, field, scale) read from tracing.layer_totals.
# `.ms` metrics are inclusive wall time, `.self_s` exclude child spans.
LAYER_METRICS = [
    ("lsq.batched_fit_weights.ms", "ms", "lsq.batched_fit_weights", "total_s", 1e3),
    ("lsq.batched_fit_weights.calls", "count", "lsq.batched_fit_weights", "calls", 1),
    ("lsq.stencils", "count", "lsq.batched_fit_weights", "stencils", 1),
    ("lsq.min_sigma3_over_h", "ratio", "lsq.batched_fit_weights", "min_sigma3_over_h", 1),
    ("schemes.ls_fit.self_s", "s", "schemes.ls_fit", "self_s", 1),
    ("schemes.ls_fit.calls", "count", "schemes.ls_fit", "calls", 1),
    ("schemes.ls_fit.bytes_computed", "bytes", "schemes.ls_fit", "bytes_computed", 1),
    ("schemes.ls_fit.flops_computed", "flop", "schemes.ls_fit", "flops_computed", 1),
    ("schemes.step_2d.self_s", "s", "schemes.step_2d", "self_s", 1),
    ("schemes.step_2d.calls", "count", "schemes.step_2d", "calls", 1),
    ("schemes.step_1d.self_s", "s", "schemes.step_1d", "self_s", 1),
    ("schemes.step_1d.calls", "count", "schemes.step_1d", "calls", 1),
    ("schemes.lincomb.self_s", "s", "schemes.lincomb", "self_s", 1),
    ("schemes.lincomb.calls", "count", "schemes.lincomb", "calls", 1),
    ("bfecc.bfecc_step.self_s", "s", "bfecc.bfecc_step", "self_s", 1),
    ("bfecc.bfecc_step.calls", "count", "bfecc.bfecc_step", "calls", 1),
    ("pml.PmlRunner.step.self_s", "s", "pml.PmlRunner.step", "self_s", 1),
    ("pml.PmlRunner.step.calls", "count", "pml.PmlRunner.step", "calls", 1),
    ("pml.tfsf_corrections.self_s", "s", "pml.tfsf_corrections", "self_s", 1),
    ("pml.tfsf_corrections.calls", "count", "pml.tfsf_corrections", "calls", 1),
    ("pml.setup.ms", "ms", "pml.setup", "total_s", 1e3),
    ("grid.point_shift.ms", "ms", "grid.point_shift", "total_s", 1e3),
    ("grid.shifted_points", "count", "grid.point_shift", "shifted_points", 1),
    ("schemes.StencilGeometry.ms", "ms", "schemes.StencilGeometry", "total_s", 1e3),
    ("schemes.StencilGeometry.calls", "count", "schemes.StencilGeometry", "calls", 1),
    ("analysis.cfl_bound.ms", "ms", "analysis.cfl_bound", "total_s", 1e3),
    ("diagnostics.self_s", "s", "diagnostics", "self_s", 1),
    ("harness.self_s", "s", "harness", "self_s", 1),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name, start, end=None, parent=None, counts=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counts = counts

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "counts": self.counts}


class Tracer:
    """Installs span wrappers for `wraps`; use as a context manager."""

    def __init__(self, wraps=LAYER_WRAPS):
        self.wraps = wraps
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, clock(), None, stack[-1] if stack else None))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = clock()
            if counter is not None:
                spans[idx].counts = counter(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in self.wraps:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))
        return self

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path):
        with open(path, "w") as f:
            json.dump([s.as_dict() for s in self.spans], f)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time: duration minus the union of its children, each
    child clipped to the parent's interval."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(k.start, s.start), min(k.end, s.end)) for k in kids]
        covered = _covered([(lo, hi) for lo, hi in clipped if hi > lo])
        out.append((s.end - s.start) - covered)
    return out


def layer_totals(spans):
    """name -> {calls, total_s, self_s, counts summed (min for minima)}."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
        for key, val in (s.counts or {}).items():
            if key.startswith("min_"):
                row[key] = min(row.get(key, val), val)
            else:
                row[key] = row.get(key, 0) + val
    return out


STEP_NAMES = ("bfecc.bfecc_step", "pml.PmlRunner.step")


def run_steps(spans):
    """(set-up, durations of steps 2..N of each run) of the solver runs
    in `spans`.

    A run's set-up is everything from its start (its steps' parent span)
    to the start of its second step; a refinement sweep, one run per
    level, sums it over its runs.
    """
    runs = {}
    for s in spans:
        if s.name in STEP_NAMES:
            runs.setdefault(s.parent, []).append(s)
    if not runs or any(len(steps) < 2 for steps in runs.values()):
        raise ValueError("a timed run needs at least two steps")
    setup_s = sum(steps[1].start - spans[run].start for run, steps in runs.items())
    return setup_s, [s.end - s.start for steps in runs.values() for s in steps[1:]]
