import bfecc_maxwell


def test_every_exported_name_resolves_once():
    names = bfecc_maxwell.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(bfecc_maxwell, n)]
    assert missing == []
    namespace = {}
    exec("from bfecc_maxwell import *", namespace)
    assert set(names) <= set(namespace)
