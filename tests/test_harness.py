import gc
import weakref

import numpy as np
import pytest

from bfecc_maxwell.harness import (
    ExperimentConfig,
    InstabilityError,
    KNOWN_KEYS,
    apply_setting,
    build_scatter_grid,
    build_variant_grid,
    exact_periodic1d,
    exact_periodic2d,
    parse_config,
    refine_experiment,
    run_experiment,
    validate_config,
)
from bfecc_maxwell.schemes import FieldState2, SchemeSpec, Workspace, step_2d


def test_defaults_are_valid():
    cfg = ExperimentConfig()
    validate_config(cfg)


def test_apply_setting_parses_types():
    cfg = ExperimentConfig()
    apply_setting(cfg, "n", "48")
    apply_setting(cfg, "bfecc", "false")
    apply_setting(cfg, "t_final", "1.25")
    apply_setting(cfg, "tfsf.rect", "0.2,0.8,0.25,0.75")
    apply_setting(cfg, "disk_center", "0.4,0.6")
    apply_setting(cfg, "grid", "c")
    assert cfg.n == 48
    assert cfg.bfecc is False
    assert cfg.t_final == 1.25
    assert cfg.tfsf_rect == (0.2, 0.8, 0.25, 0.75)
    assert cfg.disk_center == (0.4, 0.6)
    assert cfg.grid_variant == "c"


def test_apply_setting_rejects_unknown_keys():
    with pytest.raises(ValueError):
        apply_setting(ExperimentConfig(), "wavelength", "3")


def test_known_keys_all_settable():
    samples = {
        "experiment": "periodic2d", "scheme": "ls_cd", "theta": "0.5",
        "bfecc": "true", "n": "32", "dt_ratio": "0.4", "t_final": "0.5",
        "grid": "b", "levels": "2", "smooth_sweeps": "1",
        "disk_center": "0.5,0.5", "disk_radius": "0.2", "eps_inside": "2.0",
        "shift_to_boundary": "false", "reference_n": "128",
        "allow_unstable": "false", "check_every": "5", "blowup_threshold": "1e5",
        "pml.cells": "8", "pml.sigma_max": "10.0", "pml.exponent": "2.0",
        "tfsf.rect": "0.2,0.8,0.2,0.8", "tfsf.omega": "9.0",
        "tfsf.amplitude": "0.5", "tfsf.ramp": "0.4", "star.lobes": "7",
        "star.ripple": "0.2", "star.r0": "0.22",
    }
    assert set(samples) == set(KNOWN_KEYS)
    cfg = ExperimentConfig()
    for key, val in samples.items():
        apply_setting(cfg, key, val)
    validate_config(cfg)


def test_parse_config_file_with_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sample configuration\n"
        "experiment = periodic1d\n"
        "\n"
        "# nodes per direction\n"
        "n = 96\n"
        "dt_ratio = 0.38\n"
    )
    cfg = parse_config(str(path), overrides=["t_final=0.3"])
    assert cfg.experiment == "periodic1d"
    assert cfg.n == 96
    assert cfg.dt_ratio == 0.38
    assert cfg.t_final == 0.3


def test_validate_config_bounds():
    for key, val in (("n", 3), ("dt_ratio", 0.0), ("t_final", -1.0),
                     ("levels", 0), ("eps_inside", 0.0), ("pml_cells", -1)):
        cfg = ExperimentConfig()
        setattr(cfg, key, val)
        with pytest.raises(ValueError):
            validate_config(cfg)
    cfg = ExperimentConfig()
    cfg.tfsf_rect = (0.1, 0.9, 0.1)
    with pytest.raises(ValueError):
        validate_config(cfg)


def test_exact_solutions():
    x = np.linspace(0.0, 1.0, 17)[:-1]
    e, h = exact_periodic1d(x, 0.25)
    assert np.allclose(e, np.sin(2 * np.pi * (x + 0.25)))
    assert np.array_equal(e, h)
    X, Y = np.meshgrid(x, x, indexing="ij")
    hx, hy, ez = exact_periodic2d(X, Y, 0.3)
    assert np.allclose(ez, np.sin(2 * np.pi * (X - 0.3)))
    assert np.allclose(hy, -ez)
    assert np.max(np.abs(hx)) == 0.0


def test_periodic1d_converges_with_time():
    cfg = ExperimentConfig(experiment="periodic1d", n=128, dt_ratio=0.5, t_final=0.3)
    out = run_experiment(cfg)
    assert out["l2_error"] < 1e-3
    assert set(out["component_rms"]) == {"E", "H"}
    assert out["t"] == pytest.approx(0.3)


def test_partial_final_step_lands_exactly_on_t_final():
    # 0.6 / dt is not an integer here, so a shortened last step is needed
    cfg = ExperimentConfig(experiment="periodic1d", n=64, dt_ratio=0.38, t_final=0.6)
    out = run_experiment(cfg)
    dt = 0.38 / 64
    assert out["steps"] == int(np.floor(0.6 / dt)) + 1
    assert out["t"] == pytest.approx(0.6, abs=1e-12)


def test_whole_number_of_steps_skips_the_partial_step():
    cfg = ExperimentConfig(experiment="periodic1d", n=64, dt_ratio=0.5, t_final=0.5)
    out = run_experiment(cfg)
    assert out["steps"] == 64
    assert out["t"] == pytest.approx(0.5)


def test_cfl_guard_blocks_unstable_requests():
    cfg = ExperimentConfig(experiment="periodic1d", n=64, dt_ratio=1.8, t_final=0.1)
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_unstable_run_raises_instability_error():
    cfg = ExperimentConfig(experiment="periodic1d", n=64, dt_ratio=1.8,
                           t_final=60.0, allow_unstable=True)
    with pytest.raises(InstabilityError) as e:
        run_experiment(cfg)
    assert e.value.sup > cfg.blowup_threshold
    assert e.value.step > 0
    assert e.value.time > 0.0


@pytest.mark.parametrize("nan_field", ["E", "H"])
def test_monitor_catches_nan_in_any_field(nan_field):
    from bfecc_maxwell.harness import _monitor
    from bfecc_maxwell.schemes import FieldState1

    fields = {"E": np.ones(8), "H": np.ones(8)}
    fields[nan_field][3] = np.nan
    cfg = ExperimentConfig(check_every=1)
    with pytest.raises(InstabilityError) as e:
        _monitor(cfg, FieldState1(**fields), 5, 0.5)
    assert np.isnan(e.value.sup)
    assert e.value.step == 5


@pytest.mark.parametrize("values, sup", [((-7.5, 2.0), 7.5), ((3.0, -1.0), 3.0),
                                         ((-np.inf, 1.0), np.inf), ((np.inf, -np.inf), np.inf)])
def test_the_monitor_reports_the_sup_of_the_component(values, sup):
    """The monitor's sup is max |f| of the blown-up component, taken from
    its max and min, whichever sign the extreme has; a value at the
    threshold passes."""
    from bfecc_maxwell.harness import _monitor
    from bfecc_maxwell.schemes import FieldState1

    E = np.zeros(8)
    E[2:4] = values
    state = FieldState1(E, np.ones(8))
    with pytest.raises(InstabilityError) as e:
        _monitor(ExperimentConfig(blowup_threshold=0.5 * min(sup, 1e300)), state, 5, 0.5)
    assert e.value.sup == sup
    if np.isfinite(sup):
        _monitor(ExperimentConfig(blowup_threshold=sup), state, 5, 0.5)


@pytest.mark.parametrize("experiment, scheme, amplitude, scale", [
    ("periodic1d", "cd", 1.0, 1.0), ("periodic2d", "cd", 1.0, 1.0),
    ("scatter_cylinder", "ls_theta", 1.0, 1.0), ("scatter_cylinder", "ls_cd", -3.0, 3.0)])
def test_the_monitor_compares_with_the_amplitude_of_the_run(experiment, scheme, amplitude, scale,
                                                            monkeypatch):
    """The monitor compares with blowup_threshold times the amplitude of
    the run's wave: 1 for the periodic exact waves and |tfsf.amplitude| for
    a scatter run, so the default runs keep the absolute threshold."""
    from bfecc_maxwell import harness

    scales = []
    original = harness._monitor

    def recording(cfg, state, step, t, scale=1.0):
        scales.append(scale)
        return original(cfg, state, step, t, scale)

    monkeypatch.setattr(harness, "_monitor", recording)
    run_experiment(ExperimentConfig(experiment=experiment, scheme=scheme, n=16, t_final=0.1,
                                    tfsf_amplitude=amplitude))
    assert scales and set(scales) == {scale}


def test_disabling_the_corrector_skips_the_guard():
    # plain cd is mildly unstable but short runs stay finite
    cfg = ExperimentConfig(experiment="periodic1d", n=64, dt_ratio=1.8,
                           t_final=0.05, bfecc=False)
    out = run_experiment(cfg)
    assert np.isfinite(out["l2_error"])


@pytest.mark.parametrize("variant, scheme", [("a", "cd"), ("d", "ls_theta")])
def test_a_plain_periodic2d_run_equals_a_loop_of_step_2d(variant, scheme):
    """bfecc = false on periodic2d steps with step_2d alone: five full
    steps and the remainder give a direct loop's state, bit for bit."""
    cfg = ExperimentConfig(experiment="periodic2d", grid_variant=variant, scheme=scheme,
                           n=16, dt_ratio=0.3, t_final=0.1, bfecc=False)
    out = run_experiment(cfg)
    grid = build_variant_grid(variant, 16)
    dt = 0.3 * grid.dx
    st = FieldState2(*exact_periodic2d(grid.coords[..., 0], grid.coords[..., 1], 0.0))
    for step in (dt,) * 5 + (0.1 - 5 * dt,):
        st = step_2d(SchemeSpec(scheme, step, cfg.theta), st, grid)
    assert out["steps"] == 6 and np.isfinite(out["l2_error"])
    assert np.array_equal(out["state"].u, st.u)


def test_variant_grids():
    n = 24
    ga = build_variant_grid("a", n)
    assert ga.is_uniform()
    gb = build_variant_grid("b", n)
    assert not gb.is_uniform(tol=1e-12)
    # smooth map: both coordinates share the same sine perturbation
    X = ga.coords[:, :, 0]
    Y = ga.coords[:, :, 1]
    bump = 0.05 * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
    assert np.allclose(gb.coords[:, :, 0], X + bump, atol=1e-14)
    assert np.allclose(gb.coords[:, :, 1], Y + bump, atol=1e-14)
    gc = build_variant_grid("c", n)
    r = np.hypot(X - 0.5, Y - 0.5)
    outside = r >= 0.5
    # the radial map only acts inside the inscribed circle
    assert np.allclose(gc.coords[outside], ga.coords[outside], atol=1e-15)
    assert not np.allclose(gc.coords, ga.coords)
    gd = build_variant_grid("d", n)
    assert gd.shifted_mask is not None and gd.shifted_mask.sum() > 0


def test_variant_b_keeps_positive_jacobian():
    n = 40
    g = build_variant_grid("b", n)
    x = g.coords[:, :, 0]
    y = g.coords[:, :, 1]
    # forward differences along each index direction must keep orientation
    dxi = np.diff(x, axis=0)
    dyj = np.diff(y, axis=1)
    assert dxi.min() > 0.0
    assert dyj.min() > 0.0


def test_variant_d_smoothing_keeps_curve_nodes():
    n = 32
    sharp = build_variant_grid("d", n)
    smooth = build_variant_grid("d", n, smooth_sweeps=2)
    mask = sharp.shifted_mask
    assert np.array_equal(smooth.coords[mask], sharp.coords[mask])
    assert not np.array_equal(smooth.coords, sharp.coords)


def test_scatter_grid_shape_and_materials():
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta", n=20)
    grid, eps = build_scatter_grid(cfg, 20)
    pad = cfg.pml_cells
    assert grid.nx == 20 + 2 * pad + 1
    assert grid.boundary_kind == "bounded"
    assert eps.shape == (grid.nx, grid.ny)
    assert set(np.unique(eps)) == {1.0, cfg.eps_inside}
    X = grid.coords[:, :, 0]
    Y = grid.coords[:, :, 1]
    r = np.hypot(X - 0.5, Y - 0.5)
    assert np.all(eps[r < 0.2] == cfg.eps_inside)
    assert np.all(eps[r > 0.3] == 1.0)


def test_scatter_grid_shifted_nodes_count_as_dielectric():
    # nodes moved onto the interface must classify deterministically
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta",
                           n=40, shift_to_boundary=True)
    grid, eps = build_scatter_grid(cfg, 40)
    assert grid.shifted_mask.sum() > 0
    assert np.all(eps[grid.shifted_mask] == cfg.eps_inside)


def test_a_scatter_run_on_a_smoothed_grid_gives_finite_answers():
    """smooth_sweeps > 0 relaxes the shifted scatter grid around the nodes
    on the cylinder, which stay put, and the run on it stays finite."""
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta", n=16,
                           t_final=0.3, smooth_sweeps=2)
    out = run_experiment(cfg)
    sharp, _ = build_scatter_grid(ExperimentConfig(experiment="scatter_cylinder"), 16)
    mask = sharp.shifted_mask
    assert mask.any() and np.array_equal(out["grid"].coords[mask], sharp.coords[mask])
    assert not np.array_equal(out["grid"].coords, sharp.coords)
    assert np.isfinite(out["state"].u).all() and 0.0 < out["sup_ez_physical"] < 10.0


def test_scatter_smoke_run_is_quiet_before_arrival():
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta",
                           n=20, dt_ratio=1.0, t_final=0.05)
    out = run_experiment(cfg)
    # the source front has barely entered the window
    assert out["sup_ez_physical"] < 0.5
    assert out["steps"] == int(round(0.05 / (1.0 / 20)))


@pytest.mark.parametrize("bfecc, sup, rms", [
    (True, 0.7914275110148534,
     (0.022326103839651338, 0.13442692871573317, 0.12128649732456263)),
    (False, 0.6828198772896981,
     (0.013736266621564963, 0.11052256514190188, 0.1012951333559729))])
def test_scatter_remainder_step_lands_on_t_final(bfecc, sup, rms):
    # 0.7 / dt = 22.4: 22 full steps, then a shorter step with its own
    # collar coefficients that carries on the full steps' collar memory
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta",
                           n=16, t_final=0.7, bfecc=bfecc)
    out = run_experiment(cfg)
    assert out["steps"] == 23
    assert out["sup_ez_physical"] == pytest.approx(sup, rel=1e-9)
    st = out["state"]
    got = [np.sqrt(np.mean(f ** 2)) for f in (st.Hx, st.Hy, st.Ez)]
    assert got == pytest.approx(rms, rel=1e-9)


def test_scatter_remainder_step_reuses_the_edge_factorization(monkeypatch):
    # 22 full steps plus a remainder: one factorization for the irregular
    # stencils, one for the TF/SF edge rows of the one injector, none more
    # for the remainder
    from bfecc_maxwell import pml, schemes

    calls = []
    injectors = []
    original = schemes.batched_fit_weights
    original_injector = pml.TfsfInjector

    def counting(offsets):
        calls.append(len(offsets))
        return original(offsets)

    def counting_injector(*args):
        injectors.append(args)
        return original_injector(*args)

    monkeypatch.setattr(schemes, "batched_fit_weights", counting)
    monkeypatch.setattr(pml, "TfsfInjector", counting_injector)
    out = run_experiment(ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta",
                                          n=16, t_final=0.7))
    assert out["steps"] == 23
    assert len(calls) == 2
    assert len(injectors) == 1


def test_scatter_requires_least_squares_scheme():
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="cd",
                           n=20, t_final=0.1)
    with pytest.raises(ValueError):
        run_experiment(cfg)


def test_refine_doubles_resolution():
    cfg = ExperimentConfig(experiment="periodic1d", n=32, dt_ratio=0.5,
                           t_final=0.2, levels=3)
    sweep = refine_experiment(cfg)
    assert sweep["ns"] == [32, 64, 128]
    assert len(sweep["errors"]) == 3
    assert len(sweep["orders"]) == 2
    assert all(o > 1.8 for o in sweep["orders"])
    assert len(sweep["rows"]) == 3
    assert sweep["rows"][0]["order"] is None


def test_refine_scatter_checks_reference_divisibility():
    cfg = ExperimentConfig(experiment="scatter_cylinder", scheme="ls_theta",
                           n=20, dt_ratio=1.0, t_final=0.2, levels=2,
                           reference_n=50)
    with pytest.raises(ValueError):
        refine_experiment(cfg)


def test_unknown_experiment_rejected():
    cfg = ExperimentConfig(experiment="helix")
    with pytest.raises(ValueError):
        validate_config(cfg)


@pytest.mark.parametrize("settings", [
    dict(experiment="periodic1d", scheme="cd", n=32, dt_ratio=1.7, t_final=0.3),
    dict(experiment="periodic2d", grid_variant="a", scheme="cd", n=16, t_final=0.2),
    dict(experiment="periodic2d", grid_variant="d", scheme="ls_theta", n=12, dt_ratio=0.25,
         t_final=0.2),
    dict(experiment="scatter_cylinder", scheme="ls_theta", n=16, t_final=0.2)])
def test_a_run_frees_its_work_stacks_by_reference_counting(monkeypatch, settings):
    """With the cycle collector off, no Workspace array outlives the run
    that asked for it: the stepper and what it binds hold no reference
    cycle, so the work stacks are gone before a run's error norms
    allocate theirs."""
    alive = []
    original = Workspace.__call__

    def tracked(self, name, shape):
        arr = original(self, name, shape)
        alive.append((name, weakref.ref(arr)))
        return arr

    monkeypatch.setattr(Workspace, "__call__", tracked)
    gc.collect()
    gc.disable()
    try:
        run_experiment(ExperimentConfig(**settings))
        left = sorted({name for name, ref in alive if ref() is not None})
    finally:
        gc.enable()
    assert alive and left == []


def test_an_unknown_grid_variant_is_a_one_line_value_error():
    with pytest.raises(ValueError) as exc:
        build_variant_grid("e", 8)
    assert str(exc.value) == "grid variant must be one of ('a', 'b', 'c', 'd'), got 'e'"
