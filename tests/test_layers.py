import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYERS = ["op.1d.cd", "op.1d.theta", "op.cd", "op.lf", "op.theta", "op.ls_cd", "op.ls_theta",
          "op.cd.256", "op.ls_theta.scatter", "op.ls_theta.grid_d", "setup.geometry.scatter",
          "setup.grid.star", "setup.point_shift.circle", "PmlRunner.step", "collar.program",
          "tfsf.corrections.ramp", "tfsf.corrections.past", "step.periodic1d",
          "step.periodic2d_cd", "bfecc.compensation.256", "bfecc.compensation.149",
          "run.periodic1d", "run.grid_d.20", "run.grid_d.40",
          "run.grid_d.80", "run.periodic2d_cd"]


def test_quick_layer_timing_reports_every_layer(tmp_path):
    """tools/layers.py --quick writes its fixed keys, and every time it
    reports is finite and positive."""
    out = tmp_path / "layers.json"
    subprocess.run([sys.executable, os.path.join(ROOT, "tools", "layers.py"), "--quick",
                    "--out", str(out)], check=True, capture_output=True, timeout=60)
    report = json.loads(out.read_text())
    assert set(report) == {"environment", "rounds", "calls", "layers"}
    assert set(report["environment"]) == {"nproc", "python", "numpy", "blas_threads"}
    assert list(report["layers"]) == LAYERS
    for row in report["layers"].values():
        assert len(row["rounds_ms"]) == report["rounds"]
        for ms in (row["median_ms"], row["best_ms"], *row["rounds_ms"]):
            assert math.isfinite(ms) and ms > 0
