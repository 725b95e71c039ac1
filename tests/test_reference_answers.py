import importlib.util
import sys
from pathlib import Path

import pytest

from bfecc_maxwell.harness import refine_experiment, run_experiment


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks its own module up while the class is built
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _bench_workloads()


@pytest.mark.parametrize("variant", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_small_workload_answers_match_the_benchmark_reference(name, variant):
    """The benchmark gates every answer against its stored reference within
    its RTOL; its small configurations run here, so a kernel change that
    moves answers fails the ordinary test run too."""
    cfg = WORKLOADS.config(name, variant, tiny=True)
    solve = refine_experiment if WORKLOADS.WORKLOADS[name].refine else run_experiment
    got = WORKLOADS.answers(solve(cfg))
    want = WORKLOADS.reference_for(WORKLOADS.load_reference(), name, variant, tiny=True)
    assert set(got) == set(want)
    assert WORKLOADS.gate(got, want) == []
