import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import bfecc_maxwell
from bfecc_maxwell.harness import ExperimentConfig, run_experiment


def test_every_exported_name_resolves_once():
    names = bfecc_maxwell.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(bfecc_maxwell, n)]
    assert missing == []
    namespace = {}
    exec("from bfecc_maxwell import *", namespace)
    assert set(names) <= set(namespace)


def _bench_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists_where_the_tracer_replaces_it():
    # the benchmark's tracer swaps these attributes in place; a renamed or
    # deleted one would drop its spans without failing a solver test
    tracing = _bench_tracing()
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracing.LAYER_WRAPS if attr not in vars(owner)]
    assert missing == []


def unused_imports(source):
    """Names that a module's top-level imports bind and its code never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_unused_imports_are_caught():
    source = "import copy\nimport math\nfrom x import a, b as c\nprint(math.pi, a)\n"
    assert unused_imports(source) == {"copy", "c"}


def test_no_module_imports_a_name_it_never_uses():
    # the project runs no linter; an import left behind by a refactor fails
    # this instead, unless the benchmark's tracer replaces that name in place
    tracing = _bench_tracing()
    package = Path(__file__).resolve().parents[1] / "src" / "bfecc_maxwell"
    unused = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"bfecc_maxwell.{path.stem}"
        traced = {attr for owner, attr, _, _ in tracing.LAYER_WRAPS
                  if getattr(owner, "__name__", None) == module}
        names = unused_imports(path.read_text()) - traced
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


def unread_private_definitions(sources):
    """{module: sorted names} of the module-level private definitions
    (`_x = ...`, `def _x`, `class _X`; dunders excluded) that none of the
    sources {module: text} reads, by name or as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {}
    for name, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(n.id for t in targets for n in ast.walk(t)
                               if isinstance(n, ast.Name))
        names = sorted(n for n in defined - read
                       if n.startswith("_") and not (n.startswith("__") and n.endswith("__")))
        if names:
            unread[name] = names
    return unread


def test_unread_private_definitions_are_caught():
    sources = {"a": "_x = 1\n_y, _z = 2, 3\n__all__ = []\n"
                    "def _f():\n    return _x\nclass _C:\n    pass\n",
               "b": "import a\nfrom a import _f\n_f()\nprint(a._z)\n"}
    assert unread_private_definitions(sources) == {"a": ["_C", "_y"]}


def test_no_module_defines_a_private_name_nothing_reads():
    # a private helper or constant left behind by a refactor fails this
    package = Path(__file__).resolve().parents[1] / "src" / "bfecc_maxwell"
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unread_private_definitions(sources) == {}


@pytest.mark.parametrize("settings", [
    dict(experiment="periodic1d", n=32, dt_ratio=1.7, t_final=0.3),
    dict(experiment="periodic2d", scheme="ls_theta", grid_variant="d", n=16,
         dt_ratio=0.25, t_final=0.1),
    dict(experiment="scatter_cylinder", scheme="ls_theta", n=16, t_final=0.7)])
def test_every_step_goes_through_a_traced_name(settings):
    # the benchmark reads set-up time and step times from these spans; a
    # time loop calling a step through an alias bound at import drops them
    tracing = _bench_tracing()
    with tracing.Tracer(tracing.STEP_WRAPS) as tracer:
        result = run_experiment(ExperimentConfig(**settings))
    steps = [s for s in tracer.spans if s.name in tracing.STEP_NAMES]
    assert len(steps) == result["steps"]


@pytest.mark.parametrize("settings", [
    dict(experiment="periodic2d", scheme="ls_theta", grid_variant="a", n=8,
         dt_ratio=0.25, t_final=0.1),
    dict(experiment="periodic2d", scheme="ls_theta", grid_variant="d", n=8,
         dt_ratio=0.25, t_final=0.1),
    dict(experiment="scatter_cylinder", scheme="ls_theta", n=16, t_final=0.2)])
def test_traced_runs_equal_untraced_runs(settings):
    # every layer wrapper sees the solver's real arguments, including a
    # geometry with no irregular stencil (grid a), and passes results through
    tracing = _bench_tracing()
    plain = run_experiment(ExperimentConfig(**settings))
    with tracing.Tracer(tracing.LAYER_WRAPS):
        traced = run_experiment(ExperimentConfig(**settings))
    assert traced["steps"] == plain["steps"] > 2
    for c in ("Hx", "Hy", "Ez"):
        assert np.array_equal(getattr(traced["state"], c), getattr(plain["state"], c))
