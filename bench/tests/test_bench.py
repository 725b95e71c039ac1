"""Tests of the benchmark itself: smoke runs, the gate, span arithmetic and
wrapper removal.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def _run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    lines = out.getvalue().strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_of_every_workload(name, trace):
    code, lines, result = _run("--workload", name, "--seed", "3", "--seconds", "0",
                               "--trace", str(trace), "--tiny")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_EXECUTIONS
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if trace:
        assert "traced answers bit-identical to untraced: True" in lines
        assert result["metrics"]["workload.steps"]["value"] >= 2
    else:
        assert result["metrics"]["pass_frac"]["value"] == 1.0


def test_every_workload_is_declared():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_gate_admits_round_off_and_flags_a_perturbed_answer():
    want = workloads.reference_for(workloads.load_reference(), "scatter_cylinder", 0)
    assert workloads.gate(dict(want), want) == []
    nudged = {k: v * (1 + 1e-13) for k, v in want.items()}
    assert workloads.gate(nudged, want) == []
    key = "sup_ez_physical"
    for bad in (want[key] * (1 + 1e-7), math.nan, math.inf):
        assert workloads.gate(dict(want, **{key: bad}), want) == [key]
    missing = {k: v for k, v in want.items() if k != "state_rms"}
    assert workloads.gate(missing, want) == ["state_rms"]


def test_a_sweep_counts_each_level_as_an_operation():
    want = workloads.reference_for(workloads.load_reference(), "refine_conforming", 0,
                                   tiny=True)
    good = worker.execute("refine_conforming", 0, tiny=True)
    assert good["operations"] == 2 and workloads.gate(good["answers"], want) == []
    fine = [k for k in want if k.endswith("@16")]
    off = dict(good, answers={k: v * 2 if k in fine else v for k, v in good["answers"].items()})
    result, _ = run.summarize("refine_conforming", 0, [good, off], [], [], want)
    assert result["attempted"] == 4 and result["failed"] == 1
    assert result["correct"] is False


def test_a_failing_run_is_counted_and_marks_the_result_incorrect():
    want = workloads.reference_for(workloads.load_reference(), "periodic1d", 0, tiny=True)
    good = worker.execute("periodic1d", 0, tiny=True)
    off = dict(good, answers=dict(good["answers"], l2_error=good["answers"]["l2_error"] * 2))
    result, _ = run.summarize("periodic1d", 0, [good, off], [], [], want)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["correct"] is False
    assert result["metrics"]["pass_frac"]["value"] == 0.5


def test_pass_frac_weighs_the_probe_the_same_at_any_run_count():
    want = workloads.reference_for(workloads.load_reference(), "periodic1d", 0, tiny=True)
    good = worker.execute("periodic1d", 0, tiny=True)
    timeout = {"probe": "star_grid", "n": 96, "status": "timeout", "seconds": 1.5,
               "limit_s": 1.5}
    for runs in (2, 7):
        result, _ = run.summarize("periodic1d", 0, [good] * runs, [], [timeout], want)
        assert result["attempted"] == runs and result["failed"] == 0
        assert result["metrics"]["pass_frac"]["value"] == 0.5


def test_times_are_scaled_by_the_calibration_kernel():
    want = workloads.reference_for(workloads.load_reference(), "periodic1d", 0, tiny=True)
    good = worker.execute("periodic1d", 0, tiny=True)
    assert good["cal_s"] and all(t > 0 for t in good["cal_s"])
    assert worker.execute("periodic1d", 0, trace=True, tiny=True)["cal_s"] == []
    slow = dict(good, cal_s=[2 * run.CAL_REF_S, 2 * run.CAL_REF_S])
    result, _ = run.summarize("periodic1d", 0, [slow], [], [], want)
    metrics = result["metrics"]
    assert metrics["run_s"]["value"] == pytest.approx(good["run_s"] / 2)
    assert metrics["setup_s"]["value"] == pytest.approx(good["setup_s"] / 2)
    assert metrics["step_ms_p95"]["value"] == pytest.approx(
        1e3 * run.percentile(good["step_s"], 0.95) / 2)


def test_a_failing_traced_run_is_counted_not_fatal():
    want = workloads.reference_for(workloads.load_reference(), "periodic1d", 0, tiny=True)
    good = worker.execute("periodic1d", 0, tiny=True)
    traced = worker.execute("periodic1d", 0, trace=True, tiny=True)
    broken = dict(traced, error="RuntimeError: boom", answers={})
    del broken["layers"]
    result, lines = run.summarize("periodic1d", 0, [good], [traced, broken], [], want)
    assert result["attempted"] == 3 and result["failed"] == 1
    assert result["correct"] is False
    assert "traced answers bit-identical to untraced: True" in lines
    assert result["metrics"]["schemes.step_1d.calls"]["value"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 8.0, 2),
        Span("root", 20.0, 30.0),
        Span("d", 21.0, 25.0, 4),
        Span("d", 23.0, 27.0, 4),   # overlaps its sibling
        Span("e", 29.0, 32.0, 4),   # runs past its parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 2.0, 3.0, 4.0, 4.0, 3.0])
    totals = tracing.layer_totals(spans)
    assert totals["root"]["calls"] == 2
    assert totals["root"]["total_s"] == pytest.approx(20.0)
    assert totals["root"]["self_s"] == pytest.approx(6.0)
    assert totals["d"]["self_s"] == pytest.approx(8.0)


def test_counts_sum_and_minima_keep_the_minimum():
    spans = [Span("fit", 0.0, 1.0, None, {"stencils": 5, "min_sigma3_over_h": 0.7}),
             Span("fit", 2.0, 3.0, None, {"stencils": 7, "min_sigma3_over_h": 0.4}),
             Span("fit", 4.0, 5.0, None, {"stencils": 1, "min_sigma3_over_h": 0.9})]
    row = tracing.layer_totals(spans)["fit"]
    assert row["stencils"] == 13 and row["min_sigma3_over_h"] == 0.4


def test_run_steps_measures_setup_to_the_second_step():
    spans = [Span("harness", 1.0, 9.0),
             Span("analysis.cfl_bound", 1.5, 2.0, 0),
             Span("bfecc.bfecc_step", 3.0, 4.0, 0),
             Span("schemes.step_1d", 3.1, 3.5, 2),
             Span("bfecc.bfecc_step", 4.5, 5.0, 0),
             Span("bfecc.bfecc_step", 5.0, 6.0, 0)]
    assert tracing.run_steps(spans) == (3.5, [0.5, 1.0])
    # a refinement sweep: set-up and steps add up over its runs
    spans += [Span("harness", 10.0, 20.0),
              Span("bfecc.bfecc_step", 11.0, 12.0, 6),
              Span("bfecc.bfecc_step", 12.5, 14.0, 6)]
    assert tracing.run_steps(spans) == (6.0, [0.5, 1.0, 1.5])


def test_wrappers_are_removed_after_a_traced_run():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.LAYER_WRAPS]
    traced = worker.execute("scatter_cylinder", 0, trace=True, tiny=True)
    plain = worker.execute("scatter_cylinder", 0, trace=False, tiny=True)
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.LAYER_WRAPS] == originals
    assert traced["error"] is None and traced["answers"] == plain["answers"]
    assert traced["layers"]["schemes.ls_fit.calls"] > 0


def test_wrappers_are_removed_when_the_run_raises():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.LAYER_WRAPS]
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer(), worker.Calibrator():
            1 / 0
    assert [owner.__dict__[attr] for owner, attr, _, _ in tracing.LAYER_WRAPS] == originals


def test_probe_reports_ok_in_time_and_timeout_past_the_limit():
    assert worker.probe(tiny=True)["status"] == "ok"
    late = worker.probe(tiny=False, limit_s=1e-4)
    assert late["status"] == "timeout"


def test_fails_without_a_result_where_only_the_benchmark_files_are(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCHMARK["command"] + ["--workload", "periodic1d", "--seed", "0",
                                                  "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
