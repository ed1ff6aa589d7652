"""The package's public names are the union of its modules' ``__all__``."""

import dataclasses
import importlib
import inspect
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
                 "NormalizedAdjacency", "layer_forward", "homophily_ratio"):
        assert not hasattr(agcn, name), name
    assert not hasattr(agcn.KHopMask, "complete")
    # each input is checked where it is read: the graph derives its cluster
    # count, training checks the positive weights before epoch 0, and
    # K-means keeps its stopping rule to itself
    assert not hasattr(agcn, "DegenerateLossError")
    assert "n_clusters" not in {f.name for f in dataclasses.fields(agcn.Graph)}
    # each size is stated once: the node count by the arrays, the head count
    # and the layer width (d_v) by Dims
    for record, name in ((agcn.Graph, "n_nodes"), (agcn.KHopMask, "n_nodes"),
                         (agcn.LayerParams, "heads"), (agcn.Dims, "d_model")):
        assert name not in {f.name for f in dataclasses.fields(record)}, name
    probe = inspect.signature(agcn.grouping_probe).parameters
    assert not {"n_clusters", "tol", "max_iter"} & set(probe)
    kmeans = inspect.signature(agcn.kmeans).parameters
    assert not {"tol", "max_iter"} & set(kmeans)
