"""The benchmark's untraced call sequence must keep running on the package.

``perfbench/bench.py`` calls the public API (``load_graph``, ``train``,
``khop_mask``, ``forward``, ``evaluate``, the artifact writers and
``agcn train`` itself) in the order of the command line. A change to one of
those calls breaks every benchmark run while the package's own tests stay
green. This test loads the benchmark from its source files, without
importing or writing anything under ``perfbench/``, and runs its parity
self-test and one training job on the tiny parity graph under ``tmp_path``.
"""

import json
import sys
import types
from pathlib import Path

import pytest

from agcn.datagen import SBMSpec, gen_sbm, write_graph_files
from agcn.training import TrainingConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    # each module is registered under its plain name before it runs: bench.py
    # imports its siblings by that name, as run.py puts perfbench/ on the
    # path, and dataclasses look their module up by it
    for name in ("workloads", "tracing", "bench"):
        path = PERFBENCH / f"{name}.py"
        module = types.ModuleType(name)
        module.__file__ = str(path)
        monkeypatch.setitem(sys.modules, name, module)
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("workload", ["sbm-k2-overcap", "sbm-vanilla-dense"])
def test_untraced_bench_job_and_cli_parity(bench, tmp_path, workload):
    seed = 1
    w = bench.WORKLOADS[workload]
    g = gen_sbm(SBMSpec(**bench.PARITY_SBM, seed=seed))
    write_graph_files(g, tmp_path, prefix="tiny")
    (tmp_path / "meta.json").write_text(
        json.dumps({"tiny": {"fingerprint": g.fingerprint()}}))
    meta = json.loads((tmp_path / "meta.json").read_text())

    parity = bench.parity_check(w, seed, tmp_path, meta, tmp_path / "parity")
    assert parity == []

    cfg = TrainingConfig(**w.config_args(seed))
    job = bench.run_job(bench.graph_files(tmp_path, "tiny"), cfg,
                        tmp_path / "job", bench.tracing.Tracer(cfg.pair_cap))
    assert bench.check_outputs(job, meta["tiny"]["fingerprint"], cfg) == []
