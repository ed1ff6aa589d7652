"""The package's public names are the union of its modules' ``__all__``."""

import importlib
import pkgutil

import agcn

MODULES = ("analysis", "clustering", "datagen", "errors", "graph", "model",
           "training")


def test_package_exports_exactly_the_module_public_names():
    # every module but the command line lists its public names
    found = {m.name for m in pkgutil.iter_modules(agcn.__path__)}
    assert found - {"cli"} == set(MODULES)
    union = []
    for name in MODULES:
        module = importlib.import_module(f"agcn.{name}")
        for attr in module.__all__:
            assert getattr(agcn, attr) is getattr(module, attr), attr
        union += module.__all__
    assert len(set(union)) == len(union)
    assert sorted(agcn.__all__) == sorted(union)
    star = {}
    exec("from agcn import *", star)
    assert set(star) - {"__builtins__"} == set(union)


def test_removed_wrappers_are_not_public():
    for name in ("loss_pos", "loss_neg", "total_loss", "backward",
                 "NormalizedAdjacency", "layer_forward"):
        assert not hasattr(agcn, name), name
