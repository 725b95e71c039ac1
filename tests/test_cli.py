import os
import time
import warnings

import numpy as np
import pytest

from bfecc_maxwell import cli
from bfecc_maxwell.cli import main


def lines_of(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_run_periodic1d_reports_error(capsys):
    rc = main(["run", "-p", "experiment=periodic1d", "-p", "n=64",
               "-p", "dt_ratio=0.5", "-p", "t_final=0.2"])
    assert rc == 0
    out = lines_of(capsys)
    assert out[0].startswith("experiment=periodic1d n=64 ")
    errs = [l for l in out if l.startswith("l2_error=")]
    assert len(errs) == 1
    assert float(errs[0].split("=")[1]) < 1e-2
    assert any(l.startswith("rms_E=") for l in out)


def test_run_accepts_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "a.cfg"
    cfgfile.write_text("experiment = periodic1d\nn = 32\nt_final = 0.1\n")
    rc = main(["run", "-c", str(cfgfile), "-p", "n=64"])
    assert rc == 0
    assert "n=64 " in lines_of(capsys)[0]


def test_unknown_key_is_a_config_error(capsys):
    rc = main(["run", "-p", "experiment=periodic1d", "-p", "wavelength=3"])
    assert rc == 2


def test_unstable_run_exits_3(capsys):
    rc = main(["run", "-p", "experiment=periodic1d", "-p", "n=64",
               "-p", "dt_ratio=1.8", "-p", "t_final=60", "--allow-unstable"])
    assert rc == 3


def test_nan_blowup_exits_3(capsys):
    # the fields overflow to inf and then NaN, which the monitor must catch
    # and report as the only output: no numpy overflow warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "-p", "experiment=periodic1d", "-p", "n=16",
                   "-p", "dt_ratio=1e80", "-p", "t_final=1e80", "--allow-unstable"])
    assert rc == 3
    assert caught == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: solution blew up")


def test_remainder_step_blowup_exits_3(capsys):
    # dt exceeds t_final, so the run's only step is the shorter remainder:
    # the monitor must check it too, naming step 1 at t_final
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", "-p", "dt_ratio=1e306", "-p", "t_final=1e300", "--allow-unstable"])
    assert rc == 3
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: solution blew up")
    assert "after step 1 (t = 1e+300)" in err[0]


@pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
def test_refused_allocation_exits_2_with_one_line(message, monkeypatch, capsys):
    # numpy refuses an oversized array, such as the mode grid of a huge
    # analyze --samples, with a MemoryError; nothing large is allocated here
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "stability_scan", refuse)
    rc = main(["analyze", "--dims", "2", "--samples", "1000000"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert err == [f"error: {message or 'MemoryError'}"]


@pytest.mark.parametrize("setting", ["check_every=0", "check_every=-3", "dt_ratio=nan",
                                     "dt_ratio=inf", "t_final=inf", "t_final=nan",
                                     "t_final=1e308",
                                     "blowup_threshold=nan", "blowup_threshold=inf",
                                     "blowup_threshold=0", "blowup_threshold=-1"])
def test_bad_numeric_setting_exits_2_with_one_line(setting, capsys):
    rc = main(["run", "-p", "experiment=periodic1d", "-p", "n=16", "-p", setting])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: " + setting.partition("=")[0])


@pytest.mark.parametrize("experiment", ["periodic1d", "periodic2d"])
def test_a_huge_step_count_exits_2_with_one_line(experiment, capsys):
    """dt_ratio = 1e-306 at n = 8 passes every other check and asks for
    4.8e306 steps; the step ceiling turns it into a bad setting at once."""
    rc = main(["run", "-p", f"experiment={experiment}", "-p", "n=8", "-p", "dt_ratio=1e-306"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: t_final / dt")
    assert "steps, more than 1e+07" in err[0]


HUGE_N = "1" + "0" * 400
FLOAT_N = "1" + "0" * 308


@pytest.mark.parametrize("args, words", [
    (["run", "-p", "experiment=periodic1d", "-p", f"n={HUGE_N}"], "n must be at least 4 and"),
    (["refine", "-p", "experiment=periodic1d", "-p", f"n={HUGE_N}"], "n must be at least 4 and"),
    (["run", "-p", "experiment=periodic2d", "-p", "n=3"], "n must be at least 4 and"),
    (["refine", "-p", "experiment=scatter_cylinder", "-p", "scheme=ls_theta",
      "-p", f"n={FLOAT_N}"], "levels = 3 from n = 1000"),
    (["refine", "-p", "experiment=periodic2d", "-p", "t_final=0", "-p", f"n={FLOAT_N}"],
     "levels = 3 from n = 1000")])
def test_an_n_too_large_for_a_float_exits_2_with_one_line(args, words, capsys):
    """An n past the float range fails in validate_config, naming n, where
    h = 1/n used to end in an OverflowError traceback (exit 1); an n just
    inside it fails the sweep check, counted in ints, whose float counts
    used to overflow the same way."""
    rc = main(args)
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: " + words)


@pytest.mark.parametrize("settings", [
    "disk_radius=nan", "disk_radius=inf", "disk_center=nan,0.5", "eps_inside=inf",
    "pml.sigma_max=nan", "pml.sigma_max=inf", "pml.exponent=nan", "pml.exponent=-1",
    "experiment=scatter_complex star.r0=nan", "experiment=scatter_complex star.r0=-0.1",
    "smooth_sweeps=-2", "tfsf.omega=1e308", "t_final=2.5 tfsf.omega=1e308",
    "tfsf.amplitude=1e308", "blowup_threshold=1e300 tfsf.amplitude=-1e10"])
def test_bad_scatter_setting_exits_2_with_one_line(settings, capsys):
    args = ["run", "-p", "experiment=scatter_cylinder", "-p", "scheme=ls_theta",
            "-p", "n=16", "-p", "t_final=0.2"]
    for setting in settings.split():
        args += ["-p", setting]
    rc = main(args)
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert settings.split()[-1].partition("=")[0].rpartition(".")[2] in err[0]


@pytest.mark.parametrize("args, words", [
    (["-p", "bfecc=maybe"], "expected a boolean, got 'maybe'"),
    (["-p", "n=abc"], "bad value for 'n'"),
    (["-p", "scheme=upwind"], "scheme must be one of"),
    (["-p", "grid=z"], "grid must be one of"),
    (["-p", "disk_center=0.5"], "disk_center needs 2 numbers"),
    (["-p", "n16"], "override 'n16' is not of the form key=value"),
    (["-c", "{cfg}"], ":2: expected key=value, got 'n 16'"),
    (["-p", "experiment=periodic1d", "-p", "scheme=ls_cd"],
     "periodic1d supports the uniform-grid schemes")])
def test_a_bad_setting_exits_2_with_one_error_line(args, words, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = periodic1d\nn 16\n")
    rc = main(["run", "-p", "t_final=0.05"] + [a.format(cfg=cfg) for a in args])
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: ") and words in err[0]


def test_guard_rejects_unstable_without_flag(capsys):
    rc = main(["run", "-p", "experiment=periodic1d", "-p", "n=64",
               "-p", "dt_ratio=1.8", "-p", "t_final=60"])
    assert rc == 2


def test_snapshot_needs_a_2d_experiment(tmp_path, capsys):
    rc = main(["run", "-p", "experiment=periodic1d", "-p", "t_final=0.05",
               "--snapshot", str(tmp_path / "s.csv")])
    assert rc == 2


def test_snapshot_written_for_2d(tmp_path, capsys):
    snap = tmp_path / "s.csv"
    rc = main(["run", "-p", "experiment=periodic2d", "-p", "n=16",
               "-p", "t_final=0.1", "--snapshot", str(snap)])
    assert rc == 0
    text = snap.read_text().strip().splitlines()
    assert text[0] == "i,j,x,y,Ez,Hx,Hy"
    assert len(text) == 1 + 16 * 16


def test_refine_prints_orders_and_writes_table(tmp_path, capsys):
    table = tmp_path / "t.csv"
    rc = main(["refine", "-p", "experiment=periodic1d", "-p", "n=32",
               "-p", "t_final=0.2", "--levels", "3", "--table", str(table)])
    assert rc == 0
    out = [l for l in lines_of(capsys) if l.startswith("n=")]
    assert len(out) == 3
    assert out[0].endswith("order=")
    last_order = float(out[-1].split("order=")[1])
    assert last_order == pytest.approx(2.0, abs=0.15)
    rows = table.read_text().strip().splitlines()
    assert rows[0] == "grid,n,h,dt,l2_error,order"
    assert len(rows) == 4


@pytest.mark.parametrize("settings, levels, reason", [
    # the finest 1D level would be n = 8 * 2^63; the point-steps run out first
    (("experiment=periodic1d", "n=8"), "64", "point-steps, the work of 1e+07 steps"),
    # 2.2e9 point-steps in all, but the n = 128 level takes 1.28e7 steps
    (("experiment=periodic1d", "n=8", "t_final=0.1", "dt_ratio=1e-6"), "5",
     "1.28e+07 steps at n = 128, more than 1e+07"),
    # no step at all, but a 2D grid per level
    (("experiment=periodic2d", "n=8", "t_final=0"), "40", "point-steps"),
    # 1e7 smoothing sweeps of grid d pass at n = 8 (6.4e8 point-sweeps), not
    # over the sweep's three levels (1.3e10)
    (("experiment=periodic2d", "grid=d", "scheme=ls_theta", "n=8", "t_final=0.01",
      "smooth_sweeps=10000000"), "3", "point-steps and smooth_sweeps point-sweeps"),
])
def test_a_sweep_too_large_to_finish_exits_2_at_once(settings, levels, reason, capsys):
    """A sweep past the step or work ceiling fails before its first level
    runs, with one line naming `levels`."""
    args = ["refine", "--levels", levels]
    for setting in settings:
        args += ["-p", setting]
    start = time.perf_counter()
    rc = main(args)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith(f"error: levels = {levels} from n = 8 asks for ")
    assert reason in err[0]


GRID_D_16 = ["-p", "experiment=periodic2d", "-p", "grid=d", "-p", "scheme=ls_theta",
             "-p", "n=16", "-p", "dt_ratio=0.25", "-p", "t_final=0.01"]
SCATTER_16 = ["-p", "experiment=scatter_cylinder", "-p", "scheme=ls_theta", "-p", "n=16",
              "-p", "t_final=0.01"]


@pytest.mark.parametrize("args", [["run", *GRID_D_16], ["gridgen", *GRID_D_16],
                                  ["run", *SCATTER_16]])
def test_a_smoothing_too_large_to_finish_exits_2_at_once(args, capsys):
    """1e8 smoothing sweeps of grid d or of a shifted scatter grid (2.6e10
    point-sweeps and more) fail before a grid is built, with one line
    naming `smooth_sweeps`."""
    start = time.perf_counter()
    rc = main(args + ["-p", "smooth_sweeps=100000000"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: smooth_sweeps must be >= 0 and take at most 2.56e+09 ")
    assert err[0].endswith("got 100000000 at n = 16")


@pytest.mark.parametrize("args", [
    ["run", *GRID_D_16, "-p", "smooth_sweeps=1000"],
    ["gridgen", *GRID_D_16, "-p", "smooth_sweeps=1000", "--out", os.devnull],
    ["run", *SCATTER_16, "-p", "smooth_sweeps=1000"],
    ["run", *GRID_D_16, "-p", "grid=a", "-p", "smooth_sweeps=100000000"],
    ["run", *SCATTER_16, "-p", "shift_to_boundary=false", "-p", "smooth_sweeps=100000000"]])
def test_a_smoothing_within_the_limit_or_of_an_unsmoothed_grid_runs(args, capsys):
    """1000 sweeps of the same grids run, and so do 1e8 where no grid is
    smoothed: grid a and an unshifted scatter grid ignore the key."""
    assert main(args) == 0


def test_analyze_radius_matches_closed_form(capsys):
    rc = main(["analyze", "--kind", "cd", "--dims", "1", "--lam", "1.8"])
    assert rc == 0
    out = lines_of(capsys)
    assert len(out) == 64 + 1
    tail = out[-1]
    assert tail.startswith("max_radius=")
    radius = float(tail.split("=")[1].split(" ")[0])
    f1 = (1.0 - 0.5 * 1.8 ** 2) ** 2 * (1.0 + 1.8 ** 2)
    assert radius == pytest.approx(np.sqrt(f1), rel=1e-12)


def test_analyze_2d_pair_and_cfl(capsys):
    rc = main(["analyze", "--kind", "cd", "--dims", "2", "--lam", "0.8,0.8",
               "--samples", "64", "--cfl", "--h", "0.1"])
    assert rc == 0
    out = lines_of(capsys)
    assert out[-1].startswith("cfl_bound=")
    bound = float(out[-1].split("=")[1])
    assert bound == pytest.approx(np.sqrt(1.5) * 0.1, rel=1e-12)
    assert len(out) == 64 * 64 + 2


def test_analyze_rejects_pair_in_1d(capsys):
    rc = main(["analyze", "--dims", "1", "--lam", "0.5,0.6"])
    assert rc == 2


def test_analyze_rejects_too_few_samples(capsys):
    rc = main(["analyze", "--samples", "32", "--lam", "0.5"])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--cfl", "--h", "nan"], ["analyze", "--cfl", "--h", "inf"],
    ["analyze", "--kind", "theta", "--theta", "2"], ["dispersion", "--lam", "nan"],
    ["dispersion", "--kh-max", "nan"], ["dispersion", "--lam", "0"],
    ["dispersion", "--measured", "--steps", "0"], ["dispersion", "--points", "0"],
    ["dispersion", "--points", "-3"]])
def test_bad_analysis_input_exits_2_with_one_line(argv, capsys):
    rc = main(argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")


@pytest.mark.parametrize("lam", [
    ["--lam", "nan"], ["--dims", "2", "--lam", "0.5,inf"], ["--dims", "2", "--lam", "1,2,3"],
    ["--lam", "abc"], ["--lam", ""]])
def test_bad_lam_is_named_in_its_one_error_line(lam, capsys):
    rc = main(["analyze"] + lam)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "--lam" in err[0]


def test_gridgen_writes_point_list(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    rc = main(["gridgen", "-p", "experiment=periodic2d", "-p", "grid=d",
               "-p", "n=40", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 40 * 40
    flags = [int(r.split(",")[4]) for r in rows]
    assert set(flags) <= {0, 1}
    assert sum(flags) > 0


def test_gridgen_stdout_default(capsys):
    rc = main(["gridgen", "-p", "experiment=periodic2d", "-p", "n=8"])
    assert rc == 0
    rows = lines_of(capsys)
    assert len(rows) == 64


def test_gridgen_of_a_scatter_experiment_dumps_its_collared_grid(capsys):
    """A scatter experiment's grid is the unit square with a pml.cells
    collar on each side, (n + 2 pml.cells + 1)^2 points, some of them
    shifted onto the cylinder."""
    rc = main(["gridgen", "-p", "experiment=scatter_cylinder", "-p", "n=16"])
    assert rc == 0
    rows = [r.split(",") for r in lines_of(capsys)]
    assert len(rows) == 37 * 37
    assert all(np.isfinite(float(v)) for r in rows for v in r[2:4])
    assert 0 < sum(int(r[4]) for r in rows) < len(rows)


def test_dispersion_curve(capsys):
    rc = main(["dispersion", "--lam", "0.5", "--points", "16", "--kh-max", "1.2"])
    assert rc == 0
    rows = lines_of(capsys)
    assert len(rows) == 16
    kh, v = map(float, rows[-1].split(","))
    assert kh == pytest.approx(1.2)
    assert 0.6 < v < 1.0


def test_dispersion_measured_column_agrees(capsys):
    rc = main(["dispersion", "--lam", "0.5", "--points", "4", "--kh-max", "0.5",
               "--measured", "--steps", "50"])
    assert rc == 0
    for row in lines_of(capsys):
        kh, pred, meas = map(float, row.split(","))
        assert meas == pytest.approx(pred, abs=1e-6)


def test_missing_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_a_large_stable_source_runs_to_the_end(capsys):
    # the monitor's limit scales with the incident amplitude: a run whose
    # fields reach about 1.5e6 with amplitude 1e7 is stable, not blown up
    rc = main(["run", "-p", "experiment=scatter_cylinder", "-p", "scheme=ls_cd", "-p", "n=16",
               "-p", "tfsf.amplitude=1e7", "-p", "t_final=0.5"])
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_a_periodic_run_ignores_the_source_amplitude(capsys):
    # only scatter runs scale the monitor's limit by tfsf.amplitude, so a
    # product that overflows does not stop a periodic run
    rc = main(["run", "-p", "experiment=periodic1d", "-p", "n=16", "-p", "t_final=0.1",
               "-p", "blowup_threshold=1e300", "-p", "tfsf.amplitude=1e10"])
    assert rc == 0
    assert capsys.readouterr().err == ""
