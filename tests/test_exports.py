import importlib.util
from pathlib import Path

import bfecc_maxwell


def test_every_exported_name_resolves_once():
    names = bfecc_maxwell.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(bfecc_maxwell, n)]
    assert missing == []
    namespace = {}
    exec("from bfecc_maxwell import *", namespace)
    assert set(names) <= set(namespace)


def test_every_traced_name_exists_where_the_tracer_replaces_it():
    # the benchmark's tracer swaps these attributes in place; a renamed or
    # deleted one would drop its spans without failing a solver test
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracing.LAYER_WRAPS if attr not in vars(owner)]
    assert missing == []
