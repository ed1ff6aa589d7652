"""The package's public names are the union of its modules' ``__all__``."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import agcn
from agcn import cli

MODULES = ("analysis", "clustering", "datagen", "errors", "graph", "model",
           "training")
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_removed_wrappers_are_not_public(capsys):
    for name in ("loss_pos", "loss_neg", "total_loss", "backward",
                 "NormalizedAdjacency", "layer_forward", "homophily_ratio",
                 "TreeMatchSpec", "gen_tree_match", "DimensionError"):
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
    # the parameters are one buffer laid out by _tensor_specs alone
    fields = [f.name for f in dataclasses.fields(agcn.ModelParams)]
    assert fields == ["dims", "flat"]
    assert not hasattr(agcn.ModelParams, "from_tensors")
    # params.bin has one writer and nothing in the package reads it back
    for module in (agcn, agcn.model):
        assert not hasattr(module, "load_params")
    probe = inspect.signature(agcn.grouping_probe).parameters
    assert not {"n_clusters", "tol", "max_iter"} & set(probe)
    kmeans = inspect.signature(agcn.kmeans).parameters
    assert not {"tol", "max_iter"} & set(kmeans)
    # an epoch's hinge is one record, _PairBatch, cut by one planner
    for name in ("_Ranking", "_pair_order", "_epoch_batches"):
        assert not hasattr(agcn.training, name), name
    # integer lists have one parser, and the graph module holds no analysis
    assert not hasattr(cli, "_parse_k_range")
    assert not hasattr(agcn.graph, "shortest_path_histogram")
    # nothing trains on a tree-matching task, so nothing generates one
    for name in ("TreeMatchSpec", "gen_tree_match"):
        assert not hasattr(agcn.datagen, name), name
    with pytest.raises(SystemExit) as exit_:
        cli.main(["generate", "tree-match", "--depth", "2"])
    assert exit_.value.code == 2
    # attention and the losses share the k-hop mask: no option caps its lists
    assert "max_neighbors" not in {f.name for f in
                                   dataclasses.fields(agcn.TrainingConfig)}
    assert not hasattr(agcn.TrainingConfig, "attention_mask")
    assert not hasattr(agcn.KHopMask, "subsample")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["train", "--graph", "g.edges", "--features", "g.csv",
                  "--max-neighbors", "4"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --max-neighbors 4" in capsys.readouterr().err
    # the raw features are every layer's residual source: no option picks it
    for record in (agcn.TrainingConfig, agcn.Dims):
        assert "residual" not in {f.name for f in dataclasses.fields(record)}
    with pytest.raises(SystemExit) as exit_:
        cli.main(["train", "--graph", "g.edges", "--features", "g.csv",
                  "--residual", "input"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --residual input" in capsys.readouterr().err
    # flags are the only way a setting reaches TrainingConfig: no config file
    with pytest.raises(SystemExit) as exit_:
        cli.main(["train", "--graph", "g.edges", "--features", "g.csv",
                  "--config", "c.json"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --config c.json" in capsys.readouterr().err


# each module's layer: a module imports only from modules of lower layers
LAYERS = {"errors": 0, "graph": 1, "model": 2, "clustering": 2, "datagen": 2,
          "training": 3, "analysis": 3, "cli": 4}


def test_modules_import_only_from_lower_layers():
    # every ``from .x import``, those inside functions too
    src = Path(agcn.__file__).resolve().parent
    assert {p.stem for p in src.glob("*.py")} - {"__init__"} == set(LAYERS)
    upward = []
    for name, layer in LAYERS.items():
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module is not None
                    and LAYERS[node.module] >= layer):
                upward.append(f"{name}.py:{node.lineno} imports {node.module}")
    assert upward == []


def test_readme_names_only_code_that_exists():
    # every backticked private name and UPPER_CASE constant in the README's
    # text is an attribute of an agcn module; AGCN_* are environment
    # variables, and fenced code blocks show only public calls
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"),
                  flags=re.M | re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        names.update(re.findall(
            r"(?<![\w.])_[A-Za-z]\w*|\b[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+\b", span))
    names = {name for name in names if not name.startswith("AGCN_")}
    modules = [importlib.import_module(f"agcn.{m}")
               for m in MODULES + ("cli",)]
    missing = sorted(name for name in names
                     if not any(hasattr(m, name) for m in modules))
    assert len(names) >= 10 and missing == [], missing
