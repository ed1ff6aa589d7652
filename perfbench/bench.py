"""Measuring loop, output checks and metric summaries of the benchmark.

Imported by ``run.py`` once the thread settings and the import path are in
place; see that file for usage.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from agcn import (TrainingConfig, evaluate, forward, history_to_csv,
                  khop_mask, load_graph, save_params, train)
from agcn.cli import N_EVAL_SEEDS
from agcn.cli import main as cli_main

import tracing
from workloads import PARITY_EPOCHS, PARITY_SBM, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"        # generated inputs, artifacts and span dumps
SETUP_LOADS = 3              # extra load_graph calls before the first job
GEN_TIMEOUT_S = 100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="agcn train benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    w = WORKLOADS[args.workload]
    cfg = TrainingConfig(**w.config_args(args.seed))
    inputs = ensure_inputs(w, args.seed)
    meta = json.loads((inputs / "meta.json").read_text())
    out_dir = WORK / "out" / f"{w.name}-{os.getpid()}"
    env = environment(w, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    run = Run(cfg, inputs, meta, out_dir, reference_path(inputs))
    try:
        run.problems += parity_check(w, args.seed, inputs, meta,
                                     out_dir / "parity")
        run.measure(args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if not run.untraced() or (args.trace and not run.traced()):
        print("error: no training job passed its checks", file=sys.stderr)
        for problem in run.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        return 1

    if args.trace:
        values, notes = run.layer_metrics()
        dump = WORK / "spans" / f"{w.name}-s{args.seed}.jsonl"
        dump.parent.mkdir(parents=True, exist_ok=True)
        run.traced()[0].tracer.dump(dump)
    else:
        values, notes = run.end_to_end_metrics(), []
    for line in notes:
        print(line)
    for problem in run.problems:
        print(f"check failed: {problem}")

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    result = {"correct": not run.problems,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# inputs and environment
# ---------------------------------------------------------------------------

def ensure_inputs(w, seed: int) -> Path:
    """Generate the workload's files for ``seed`` in a child process, once;
    later runs of the same workload, seed and spec reuse them."""
    key = hashlib.sha256(json.dumps([w.sbm_args(seed), PARITY_SBM],
                                    sort_keys=True).encode()).hexdigest()[:12]
    final = WORK / "inputs" / f"{w.name}-s{seed}-{key}"
    if (final / "meta.json").is_file():
        return final
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(HERE / "gen_inputs.py"),
                        "--workload", w.name, "--seed", str(seed),
                        "--out", str(tmp)],
                       check=True, timeout=GEN_TIMEOUT_S, stdout=sys.stderr)
        try:
            os.rename(tmp, final)
        except OSError:
            # another run finished the same inputs first
            if not (final / "meta.json").is_file():
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def graph_files(inputs: Path, prefix: str) -> tuple:
    return (inputs / f"{prefix}.edges", inputs / f"{prefix}.features.csv",
            inputs / f"{prefix}.labels")


def source_hash() -> str:
    """Hash of the package and benchmark sources: results recorded under
    one hash are expected to repeat bit for bit."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "agcn", HERE):
        for path in sorted(base.rglob("*.py")):
            if WORK in path.parents:
                continue
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def reference_path(inputs: Path) -> Path:
    return inputs / f"reference-{source_hash()[:16]}.json"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(w, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": w.name, "seed": seed, "spec": w.record(),
        "AGCN_THREADS": os.environ.get("AGCN_THREADS"),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# one training job: the call sequence of `agcn train`
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Job:
    traced: bool
    tracer: tracing.Tracer
    g: object
    history: np.ndarray
    emb: np.ndarray
    result: object               # agcn.ClusterResult
    digest: dict

    def span(self, name):
        return next(s for s in self.tracer.spans if s["name"] == name)

    def seconds(self, name) -> float:
        s = self.span(name)
        return s["t1"] - s["t0"]


def run_job(files, cfg: TrainingConfig, out_dir: Path, tracer) -> Job:
    """``load_graph`` -> ``train`` -> ``khop_mask`` -> ``forward`` ->
    ``evaluate`` -> artifacts, in the order and with the arguments of
    ``agcn train``; spans mark each stage."""
    span = tracer.span
    with span("job"):
        with span("graph.load_graph"):
            g = load_graph(*files)
        with span("train"):
            out_dir.mkdir(parents=True, exist_ok=True)
            params, history = train(g, cfg)
        with span("eval"):
            with span("eval.khop_mask"):
                mask = khop_mask(g, cfg.k)
            with span("eval.forward"):
                emb = forward(g, mask, params, mode=cfg.mode)
            seeds = [cfg.seed + i for i in range(N_EVAL_SEEDS)]
            with span("evaluate"):
                res = evaluate(emb, g.n_clusters, g.labels, seeds,
                               restarts=cfg.restarts)
        with span("artifacts"):
            with open(out_dir / "labels.csv", "w") as fh:
                fh.writelines(f"{lab}\n" for lab in res.labels)
            save_params(params, out_dir / "params.bin")
            history_to_csv(history, out_dir / "history.csv")
    digest = {"acc": res.acc, "nmi": res.nmi,
              "history": _sha(history.tobytes()), "embeddings": _sha(emb.tobytes())}
    for name in ("labels.csv", "params.bin", "history.csv"):
        digest[name] = _sha((out_dir / name).read_bytes())
    return Job(traced=False, tracer=tracer, g=g, history=history, emb=emb,
               result=res, digest=digest)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_outputs(job: Job, fingerprint: str, cfg: TrainingConfig) -> list:
    """Problems with one job's outputs; an empty list means it passed."""
    out = []
    if job.g.fingerprint() != fingerprint:
        out.append("loaded graph differs from the generated one (fingerprint)")
    h = job.history
    if h.shape != (cfg.epochs, 3):
        out.append(f"history has shape {h.shape}")
    elif not np.isfinite(h[:, 1:]).all():
        out.append("non-finite l_neg or l_total in history")
    elif cfg.lam == 0 and not np.isnan(h[:, 0]).all():
        out.append("l_pos recorded although lambda is 0")
    elif cfg.lam != 0 and not np.isfinite(h[:, 0]).all():
        out.append("non-finite l_pos in history")
    if not np.isfinite(job.emb).all():
        out.append("non-finite embeddings")
    labels = job.result.labels
    if len(labels) != job.g.n_nodes or labels.min() < 0 \
            or labels.max() >= job.g.n_clusters:
        out.append(f"labels outside [0, {job.g.n_clusters}) or wrong length")
    for name in ("acc", "nmi"):
        value = getattr(job.result, name)
        if not 0.0 <= value <= 1.0:
            out.append(f"{name}={value!r} outside [0, 1]")
    return out


def parity_check(w, seed, inputs, meta, out_dir) -> list:
    """The benchmark's call sequence and ``agcn train`` with the same flags
    must write the same labels, parameter and history bytes and report the
    same accuracy and NMI, on the tiny graph of the workload's seed."""
    tiny = dataclasses.replace(w, epochs=PARITY_EPOCHS)
    cfg = TrainingConfig(**tiny.config_args(seed))
    files = graph_files(inputs, "tiny")
    try:
        job = run_job(files, cfg, out_dir / "bench", tracing.Tracer(cfg.pair_cap))
        problems = check_outputs(job, meta["tiny"]["fingerprint"], cfg)
        argv = ["train", "--graph", str(files[0]), "--features", str(files[1]),
                "--labels", str(files[2]), *tiny.cli_flags(seed),
                "--out-dir", str(out_dir / "cli")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(argv)
    except Exception:
        return ["parity self-test raised:\n" + traceback.format_exc()]
    if code != 0:
        return problems + [f"agcn train exited with {code} in the parity self-test"]
    record = json.loads((out_dir / "cli" / "result.json").read_text())
    for name in ("labels.csv", "params.bin", "history.csv"):
        if _sha((out_dir / "cli" / name).read_bytes()) != job.digest[name]:
            problems.append(f"parity: {name} differs from agcn train's")
    for name in ("acc", "nmi"):
        if record["result"][name] != job.digest[name]:
            problems.append(f"parity: {name} differs from agcn train's")
    return problems


# ---------------------------------------------------------------------------
# one run: closed loop, checks, summaries
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, cfg, inputs, meta, out_dir, ref_path):
        self.cfg, self.out_dir, self.ref_path = cfg, out_dir, ref_path
        self.files = graph_files(inputs, "sbm")
        self.fingerprint = meta["sbm"]["fingerprint"]
        self.jobs = []              # jobs that passed every check
        self.attempted = 0
        self.failed = 0
        self.setup_s = []           # every untraced load_graph, in seconds
        self.problems = []          # every failed check

    def untraced(self):
        return [j for j in self.jobs if not j.traced]

    def traced(self):
        return [j for j in self.jobs if j.traced]

    def measure(self, seconds: float, traced: bool):
        t_start = time.perf_counter()
        for _ in range(SETUP_LOADS):
            t0 = time.perf_counter()
            g = load_graph(*self.files)
            self.setup_s.append(time.perf_counter() - t0)
            if g.fingerprint() != self.fingerprint:
                self.problems.append("set-up load differs from the generated graph")
        longest = 0.0
        while True:
            want_trace = traced and self.attempted % 2 == 1
            t0 = time.perf_counter()
            self._one_job(want_trace)
            longest = max(longest, time.perf_counter() - t0)
            elapsed = time.perf_counter() - t_start
            pair_done = not traced or self.attempted >= 2
            if pair_done and elapsed + longest > seconds:
                break
        self._check_repeats()

    def _one_job(self, want_trace: bool):
        index, kind = self.attempted, ("traced" if want_trace else "untraced")
        self.attempted += 1
        tracer = tracing.Tracer(self.cfg.pair_cap)
        if want_trace:
            tracer.install()
        try:
            job = run_job(self.files, self.cfg, self.out_dir, tracer)
        except Exception:
            self.failed += 1
            self.problems.append(f"job {index} raised:\n" + traceback.format_exc())
            return
        finally:
            if want_trace:
                bad = tracer.restore()
                if bad:
                    self.problems.append(f"not restored after tracing: {bad}")
        job.traced = want_trace
        problems = check_outputs(job, self.fingerprint, self.cfg)
        if self.jobs:
            first = self.jobs[0].digest
            diff = [k for k in job.digest if job.digest[k] != first[k]]
            if diff:
                problems.append(f"{kind} job differs from the first in {diff}")
        if want_trace:
            problems += self._check_counts(job)
        self.problems += [f"job {index}: {p}" for p in problems]
        print(f"job {index} {kind}: "
              + " ".join(f"{k}={v:.4f}" for k, v in job_times(job).items())
              + f" acc={job.result.acc!r} nmi={job.result.nmi!r}"
              + (" FAILED" if problems else ""))
        if problems:
            self.failed += 1
            return
        self.jobs.append(job)
        if not want_trace:
            self.setup_s.append(job.seconds("graph.load_graph"))

    def _check_counts(self, job) -> list:
        """Score evaluations against the mask size, and counts against the
        first traced job."""
        counts = job_counts(job)
        layers, heads = self.cfg.layers, self.cfg.heads
        n = job.g.n_nodes
        per_layer_head = counts["mask_nnz"] if self.cfg.mode == "structure" else n * n
        out = []
        if any(c != layers * heads * per_layer_head for c in counts["score_evals"]):
            out.append(f"score evaluations {counts['score_evals']} != "
                       f"{layers} x {heads} x {per_layer_head} per epoch")
        earlier = self.traced()
        if earlier and job_counts(earlier[0]) != counts:
            out.append("counts differ from the first traced job")
        return out

    def _check_repeats(self):
        """Compare digests and counts with the results that earlier runs of
        the same seed and sources recorded."""
        jobs = self.jobs
        if not jobs:
            return
        ref = {}
        if self.ref_path.is_file():
            ref = json.loads(self.ref_path.read_text())
        current = {"digest": jobs[0].digest}
        traced = [j for j in jobs if j.traced]
        if traced:
            current["counts"] = job_counts(traced[0])
        for key, value in current.items():
            if key in ref and ref[key] != value:
                self.problems.append(f"{key} differs from an earlier run of "
                                     f"this seed: {ref[key]} vs {value}")
        if any(key not in ref for key in current):
            tmp = self.ref_path.with_name(self.ref_path.name + f".tmp{os.getpid()}")
            tmp.write_text(json.dumps({**current, **ref}, sort_keys=True))
            os.replace(tmp, self.ref_path)

    def end_to_end_metrics(self) -> dict:
        jobs = self.untraced()
        times = [job_times(j) for j in jobs]
        out = {f"{k}_s": statistics.median(t[k] for t in times)
               for k in ("train", "eval", "total")}
        out["setup_s"] = statistics.median(self.setup_s)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["acc"] = jobs[0].result.acc
        out["nmi"] = jobs[0].result.nmi
        return out

    def layer_metrics(self):
        """Per-layer medians over traced epochs and jobs, and notes on the
        layers this workload never runs."""
        traced, untraced = self.traced(), self.untraced()
        epochs = [row for j in traced
                  for row in tracing.epochs_of(j.tracer.spans, j.span("train"))]
        evals = [tracing.evaluate_of(j.tracer.spans, j.span("evaluate"))
                 for j in traced]
        counts = job_counts(traced[0])

        def ep(key):
            return statistics.median(r[key] for r in epochs)

        def per_job(name):
            return statistics.median(
                tracing.sum_inside(j.tracer.spans, j.span("train"), name)
                for j in traced)

        total = {kind: statistics.median(job_times(j)["total"] for j in jobs)
                 for kind, jobs in (("traced", traced), ("untraced", untraced))}
        values = {
            "graph.load_graph_s": statistics.median(
                j.seconds("graph.load_graph") for j in traced),
            "graph.khop_mask_ms": per_job("graph.khop_mask"),
            "graph.khop_weights_ms": per_job("graph.khop_weights"),
            "graph.mask_nnz": counts["mask_nnz"],
            "graph.overcap_nodes": counts["overcap_nodes"],
            "training.epoch_ms": ep("epoch"),
            "training.pair_batch_ms": ep("pair_batch"),
            "training.pairs": statistics.median_low(counts["pairs"]),
            "training.loss_neg_ms": ep("loss_neg"),
            "training.loss_pos_ms": ep("loss_pos"),
            "training.adam_ms": ep("adam"),
            "training.other_ms": ep("other"),
            "model.forward_ms": ep("forward"),
            "model.attention_ms": statistics.median(
                r["masked_layer"] + r["dense_layer"] for r in epochs),
            "model.backward_ms": ep("backward"),
            "model.score_evals": statistics.median_low(counts["score_evals"]),
            "clustering.kmeans_ms": statistics.median(e["kmeans"] for e in evals),
            "clustering.assign_ms": statistics.median(e["assign"] for e in evals),
            "clustering.lloyd_iters": counts["lloyd_iters"],
            "clustering.metrics_ms": statistics.median(e["metrics"] for e in evals),
            "trace.overhead_s": total["traced"] - total["untraced"],
        }

        notes = [f"traced jobs {len(traced)}, untraced jobs {len(untraced)}, "
                 f"traced epochs {len(epochs)}",
                 f"tracing overhead: traced total_s {total['traced']!r} - "
                 f"untraced total_s {total['untraced']!r}"]
        tail = tracing.tail_percentile([r["epoch"] for r in epochs])
        notes.append("layer training.epoch_ms median " + repr(ep("epoch"))
                     + (f" p{tail[0]} {tail[1]!r}" if tail else
                        " (no tail percentile: it needs more than 10 epochs)")
                     + f" over {len(epochs)} epochs")
        split = {
            "model.masked_layer_ms": ("masked_layer", "n_masked",
                                      "vanilla mode runs only the dense kernel"),
            "model.dense_layer_ms": ("dense_layer", "n_dense",
                                     "structure mode runs only the masked kernel"),
        }
        for name, (key, calls, reason) in split.items():
            if any(r[calls] for r in epochs):
                notes.append(f"layer {name} {ep(key)!r} ms per epoch")
            else:
                notes.append(f"layer {name} absent: {reason}")
        notes.append(f"counts {json.dumps(counts, sort_keys=True)}")
        return values, notes


def job_times(job: Job) -> dict:
    return {"setup": job.seconds("graph.load_graph"), "train": job.seconds("train"),
            "eval": job.seconds("eval"), "total": job.seconds("job")}


def job_counts(job: Job) -> dict:
    """Exact counts of one traced job."""
    spans = job.tracer.spans
    mask = next(s for s in spans if s["name"] == "graph.khop_mask")
    epochs = tracing.epochs_of(spans, job.span("train"))
    return {
        "mask_nnz": mask["nnz"],
        "overcap_nodes": mask["overcap"],
        "pairs": [r["pairs"] for r in epochs],
        "score_evals": [r["score_evals"] for r in epochs],
        "lloyd_iters": tracing.evaluate_of(spans, job.span("evaluate"))["lloyd_iters"],
    }
