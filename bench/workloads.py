"""The benchmark workloads, their per-seed variants and the gate.

A seed picks one of `N_VARIANTS` variants of each workload.  Variants
change the inputs (time step, scatterer size) but not the array sizes or
step counts, so they cost the same.  Variant 0 is the base configuration.
Each variant's answers at the reference commit are stored in
`reference.json` (regenerate with `make_reference.py`), and the gate
compares every answer with them.

An operation is one solver run: one `run_experiment` call, or one level
of a `refine_experiment` sweep.  One execution of a workload is one
call, so it holds one operation, or one per refinement level.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from bfecc_maxwell.harness import ExperimentConfig

N_VARIANTS = 8
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Round-off allowance of the gate.  Reordering the fit's sums (as a
# different factorization or contraction order would) moves the stored
# answers by at most ~5e-13 relative; any change of the scheme moves them
# by far more than 1e-9.
RTOL = 1e-9

_RADII = (0.24, 0.23, 0.25, 0.235, 0.245, 0.225, 0.255, 0.22)
_CD2_RATIOS = (1.0, 0.9, 1.1, 0.95, 1.05, 0.85, 1.15, 1.2)
_CD1_RATIOS = (1.7, 1.6, 1.72, 1.65, 1.5, 1.68, 1.55, 1.73)


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict
    tiny: dict           # overrides for the small smoke-test size
    vary: object         # variant index -> overrides
    probe: bool = False  # also run the star-grid probe
    refine: bool = False  # run a refine_experiment sweep, not run_experiment


WORKLOADS = {w.name: w for w in (
    Workload(
        "scatter_cylinder",
        dict(experiment="scatter_cylinder", scheme="ls_theta", n=128, dt_ratio=1.0,
             t_final=2.5),
        dict(n=16, t_final=0.4),
        vary=lambda v: dict(disk_radius=_RADII[v]),
        probe=True),
    Workload(
        "periodic2d_cd",
        dict(experiment="periodic2d", grid_variant="a", scheme="cd", n=256),
        dict(n=16, t_final=0.5),
        vary=lambda v: dict(dt_ratio=_CD2_RATIOS[v], t_final=2.8 * _CD2_RATIOS[v])),
    Workload(
        "refine_conforming",
        dict(experiment="periodic2d", grid_variant="d", scheme="ls_theta", n=20,
             dt_ratio=0.25, t_final=2.5, levels=3),
        dict(n=8, t_final=0.3, levels=2),
        vary=lambda v: dict(disk_radius=_RADII[v]),
        refine=True),
    Workload(
        "periodic1d",
        dict(experiment="periodic1d", scheme="cd", n=256),
        dict(n=32, t_final=2.0),
        vary=lambda v: dict(dt_ratio=_CD1_RATIOS[v], t_final=60.0 * _CD1_RATIOS[v] / 1.7)),
)}

# The star-grid probe: a scatter_complex grid build at this size, which
# must finish within PROBE_LIMIT_S seconds.  At the reference commit the
# star's root bisection never ends once n >= 96, so the probe times out
# and pass_frac of scatter_cylinder is below 1; a fix raises it.
PROBE_N = 96
PROBE_TINY_N = 32
PROBE_LIMIT_S = 1.5


def config(name: str, variant: int, tiny: bool = False) -> ExperimentConfig:
    w = WORKLOADS[name]
    settings = dict(w.base)
    settings.update(w.vary(variant % N_VARIANTS))
    if tiny:
        settings.update(w.tiny)
    return ExperimentConfig(**settings)


def _state_rms(state):
    arrays = [getattr(state, c) for c in ("E", "H", "Hx", "Hy", "Ez") if hasattr(state, c)]
    total = sum(float((a * a).sum()) for a in arrays)
    return math.sqrt(total / sum(a.size for a in arrays))


def answers(result: dict) -> dict:
    """The gated answers of one run_experiment or refine_experiment result.

    A sweep's answers are its levels' answers and its orders, each keyed
    `name@n` with the grid size n of the level it belongs to.
    """
    if "runs" in result:
        out = {f"{key}@{run['n']}": val
               for run in result["runs"] for key, val in answers(run).items()}
        out.update({f"order@{n}": order
                    for n, order in zip(result["ns"][1:], result["orders"])})
        return out
    out = {"state_rms": _state_rms(result["state"])}
    for key in ("l2_error", "sup_ez_physical"):
        if key in result:
            out[key] = result[key]
    return out


def failed_runs(bad: list) -> int:
    """Number of solver runs that the gate's `bad` keys belong to."""
    return len({key.partition("@")[2] for key in bad})


def load_reference() -> dict:
    with open(REFERENCE_PATH) as f:
        return json.load(f)


def reference_for(ref: dict, name: str, variant: int, tiny: bool = False) -> dict:
    return ref["tiny" if tiny else "full"][name][str(variant % N_VARIANTS)]


def gate(got: dict, want: dict) -> list:
    """Names of answers that are missing, non-finite or off the reference.

    Non-finite values are rejected explicitly, because NaN compares false
    with every bound and the solver's own blow-up monitor lets it pass.
    """
    bad = []
    for key, ref in want.items():
        val = got.get(key)
        if val is None or not math.isfinite(val):
            bad.append(key)
        elif abs(val - ref) > RTOL * abs(ref):
            bad.append(key)
    return bad
