"""The package's export list: every name resolves and none lingers."""

import cfcoef
from cfcoef import bench, core, listsearch, oracle, search

SUBMODULES = (core, search, listsearch, oracle, bench)


def test_all_is_the_union_of_the_submodules():
    names = [name for module in SUBMODULES for name in module.__all__]
    assert len(set(names)) == len(names)
    assert len(set(cfcoef.__all__)) == len(cfcoef.__all__)
    assert set(cfcoef.__all__) == set(names) | {"__version__"}


def test_every_export_resolves():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(cfcoef, name) is getattr(module, name)
    assert isinstance(cfcoef.__version__, str)
