"""Command-line entry point: training, diagnostics and dataset generation.

Every command is deterministic given its flags and input files; all
randomness flows from ``--seed``. Exit codes: 0 success, 1 runtime or
numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
import typing
from pathlib import Path

from . import __version__
from .analysis import grouping_probe, mask_features, r_ratio
from .clustering import evaluate, kmeans
from .datagen import SBMSpec, TreeMatchSpec, gen_sbm, gen_tree_match, write_graph_files
from .errors import AgcnError, ConfigError, ParseError
from .graph import (Graph, _atomic_open, _read_labels, khop_mask,
                    load_graph, shortest_path_histogram)
from .model import forward, save_params
from .training import (DEFAULT_K_GRID, DEFAULT_LAMBDA_GRID, TrainingConfig,
                       history_to_csv, train)

N_EVAL_SEEDS = 10


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    finally:
        _say("", end="")    # flushes what --help or --version printed
    try:
        return args.func(args)
    except AgcnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an unreadable or unwritable path is a usage error
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


def _say(text: str, end: str = "\n"):
    """Print one line to stdout. A reader that has gone away (``agcn train
    ... | head -1``) ends the output, not the command: stdout then goes to
    devnull, and the command finishes its work and exits as it would."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="agcn",
        description="Hop-masked attention embeddings for graph clustering.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train embeddings and cluster them")
    _add_dataset_flags(p_train)
    p_train.add_argument("--config", type=Path,
                         help="JSON file with defaults, overridden by flags")
    p_train.add_argument("--k", type=str, help="hop order (list allowed with --sweep)")
    p_train.add_argument("--lambda", dest="lam", type=str,
                         help="positive-loss weight (list allowed with --sweep)")
    p_train.add_argument("--gamma", type=float)
    p_train.add_argument("--layers", type=int)
    p_train.add_argument("--heads", type=int)
    p_train.add_argument("--dq", type=int, dest="d_q")
    p_train.add_argument("--dv", type=int, dest="d_v")
    p_train.add_argument("--dout", type=int, dest="d_out")
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--lr", type=float)
    p_train.add_argument("--pair-cap", type=int, dest="pair_cap")
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--restarts", type=int)
    p_train.add_argument("--residual", choices=("input", "hidden"))
    p_train.add_argument("--mode", choices=("structure", "vanilla"))
    p_train.add_argument("--no-lneg", action="store_true",
                         help="drop the rank-margin loss term")
    p_train.add_argument("--max-neighbors", type=int, dest="max_neighbors")
    p_train.add_argument("--sweep", action="store_true",
                         help="iterate the k x lambda grid and rank by accuracy "
                              "(defaults to the full search grids; pass comma "
                              "lists to --k/--lambda to narrow it)")
    p_train.add_argument("--out-dir", type=Path, default=Path("out"))
    p_train.set_defaults(func=cmd_train)

    p_an = sub.add_parser("analyze", help="diagnostic reports")
    an_sub = p_an.add_subparsers(dest="subcommand", required=True)

    p_group = an_sub.add_parser("grouping", help="hop-filtered feature clustering probe")
    _add_dataset_flags(p_group)
    p_group.add_argument("--k", type=int, default=5)
    p_group.add_argument("--seed", type=int, default=0)
    p_group.add_argument("--restarts", type=int, default=10)
    p_group.add_argument("--out-dir", type=Path, default=Path("out"))
    p_group.set_defaults(func=cmd_analyze_grouping)

    p_paths = an_sub.add_parser("paths", help="same-cluster shortest-path histogram")
    _add_dataset_flags(p_paths)
    p_paths.add_argument("--out-dir", type=Path, default=Path("out"))
    p_paths.set_defaults(func=cmd_analyze_paths)

    p_rr = an_sub.add_parser("r-ratio", help="higher-order distance ratios of "
                                             "misclustered nodes")
    _add_dataset_flags(p_rr)
    p_rr.add_argument("--pred", type=Path,
                      help="predicted labels, one per line (default: k-means "
                           "on the raw features)")
    p_rr.add_argument("--k-range", type=str, default="1:9",
                      help="inclusive range lo:hi or comma list")
    p_rr.add_argument("--seed", type=int, default=0)
    p_rr.add_argument("--restarts", type=int, default=10)
    p_rr.add_argument("--out-dir", type=Path, default=Path("out"))
    p_rr.set_defaults(func=cmd_analyze_r_ratio)

    p_maskf = an_sub.add_parser("mask-features", help="zero a random node fraction's features")
    _add_dataset_flags(p_maskf)
    p_maskf.add_argument("--fraction", type=float, default=0.6)
    p_maskf.add_argument("--seed", type=int, default=0)
    p_maskf.add_argument("--out-dir", type=Path, default=Path("out"))
    p_maskf.set_defaults(func=cmd_analyze_mask_features)

    p_gen = sub.add_parser("generate", help="synthetic dataset files")
    gen_sub = p_gen.add_subparsers(dest="subcommand", required=True)

    p_sbm = gen_sub.add_parser("sbm", help="stochastic block model")
    p_sbm.add_argument("--blocks", type=str, required=True,
                       help="comma-separated block sizes, e.g. 20,20")
    p_sbm.add_argument("--p-in", type=float, required=True)
    p_sbm.add_argument("--p-out", type=float, required=True)
    p_sbm.add_argument("--feature-dim", type=int)
    p_sbm.add_argument("--mean-scale", type=float, default=1.0)
    p_sbm.add_argument("--noise-scale", type=float, default=0.3)
    p_sbm.add_argument("--seed", type=int, default=0)
    p_sbm.add_argument("--prefix", type=str, default="sbm")
    p_sbm.add_argument("--out-dir", type=Path, default=Path("out"))
    p_sbm.set_defaults(func=cmd_generate_sbm)

    p_tree = gen_sub.add_parser("tree-match", help="complete binary matching tree")
    p_tree.add_argument("--depth", type=int, required=True)
    p_tree.add_argument("--seed", type=int, default=0)
    p_tree.add_argument("--prefix", type=str, default="tree")
    p_tree.add_argument("--out-dir", type=Path, default=Path("out"))
    p_tree.set_defaults(func=cmd_generate_tree)

    return parser


def _add_dataset_flags(p):
    p.add_argument("--graph", type=Path, required=True, help="edge-list file")
    p.add_argument("--features", type=Path, required=True, help="CSV feature file")
    p.add_argument("--labels", type=Path, help="label file, one integer per line")


def _load_dataset(args) -> Graph:
    return load_graph(args.graph, args.features, args.labels)


def _write_json(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with _atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _parse_grid(text, caster, name):
    try:
        return [caster(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"bad {name} value {text!r}") from exc


# the JSON name of each type a TrainingConfig field holds
_JSON_KINDS = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", type(None): "null"}


def _read_config(path) -> dict:
    """The ``--config`` object, each value of its :class:`TrainingConfig`
    field's type (a float field also takes an integer, but no NaN or
    infinity)."""
    with open(path, encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", path, exc.lineno) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text: {exc.reason}", path) from exc
    if not isinstance(overrides, dict):
        raise ConfigError(f"{path}: the top-level value must be a JSON object")
    if "lambda" in overrides:
        overrides["lam"] = overrides.pop("lambda")
    hints = typing.get_type_hints(TrainingConfig)
    unknown = set(overrides) - set(hints)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key, value in overrides.items():
        kinds = typing.get_args(hints[key]) or (hints[key],)
        fits = type(value) in kinds or (type(value) is int and float in kinds)
        if not fits or (type(value) is float and not math.isfinite(value)):
            wanted = " or ".join(_JSON_KINDS[k] for k in kinds)
            raise ConfigError(f"{path}: config key {key!r} takes {wanted}, "
                              f"not {json.dumps(value)}")
    return overrides


def _train_config(args) -> tuple[TrainingConfig, list, list]:
    base = {f.name: f.default for f in dataclasses.fields(TrainingConfig)}
    if args.config is not None:
        base.update(_read_config(args.config))
    k_grid = [int(base["k"])]
    lam_grid = [float(base["lam"])]
    if args.k is not None:
        k_grid = _parse_grid(args.k, int, "--k")
    elif args.sweep:
        k_grid = list(DEFAULT_K_GRID)
    if args.lam is not None:
        lam_grid = _parse_grid(args.lam, float, "--lambda")
    elif args.sweep:
        lam_grid = list(DEFAULT_LAMBDA_GRID)
    if not args.sweep and (len(k_grid) > 1 or len(lam_grid) > 1):
        raise ConfigError("value lists for --k/--lambda require --sweep")
    for name in ("gamma", "layers", "heads", "d_q", "d_v", "d_out", "epochs",
                 "lr", "pair_cap", "seed", "restarts", "residual", "mode",
                 "max_neighbors"):
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value
    if args.no_lneg:
        base["use_neg"] = False
    base["k"], base["lam"] = k_grid[0], lam_grid[0]
    return TrainingConfig(**base), k_grid, lam_grid


def _run_single(g: Graph, cfg: TrainingConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    params, history = train(g, cfg)
    # train keeps its masks to itself, so the attention mask is built again
    emb = forward(g, cfg.attention_mask(khop_mask(g, cfg.k)), params,
                  mode=cfg.mode)
    result = None
    if g.labels is not None:
        seeds = [cfg.seed + i for i in range(N_EVAL_SEEDS)]
        clustered = evaluate(emb, g.n_clusters, g.labels, seeds,
                             restarts=cfg.restarts)
        result = clustered.to_dict()
        with _atomic_open(out_dir / "labels.csv") as fh:
            fh.writelines(f"{lab}\n" for lab in clustered.labels)
    elapsed = time.perf_counter() - t0

    save_params(params, out_dir / "params.bin")
    history_to_csv(history, out_dir / "history.csv")
    record = {
        "config": dataclasses.asdict(cfg),
        "dataset": {
            "n_nodes": g.n_nodes,
            "n_edges": g.n_edges,
            "feature_dim": g.feature_dim,
            "n_clusters": g.n_clusters,
            "sha256": g.fingerprint(),
        },
        "result": result,
        "history_csv": "history.csv",
        "params_bin": "params.bin",
        "wall_clock_seconds": elapsed,
    }
    _write_json(out_dir / "result.json", record)
    return record


def cmd_train(args) -> int:
    g = _load_dataset(args)
    cfg, k_grid, lam_grid = _train_config(args)
    if not args.sweep:
        record = _run_single(g, cfg, args.out_dir)
        if record["result"] is not None:
            _say(f"acc={record['result']['acc']:.4f} "
                 f"nmi={record['result']['nmi']:.4f}")
        _say(f"artifacts written to {args.out_dir}")
        return 0

    if g.labels is None:
        raise ConfigError("--sweep ranks by accuracy and needs --labels")
    _say(f"sweeping {len(k_grid)} x {len(lam_grid)} = "
         f"{len(k_grid) * len(lam_grid)} configurations")
    records = []
    for k in k_grid:
        for lam in lam_grid:
            combo = dataclasses.replace(cfg, k=k, lam=lam)
            sub_dir = args.out_dir / f"k{k}_lam{lam:g}"
            record = _run_single(g, combo, sub_dir)
            records.append({
                "k": k,
                "lambda": lam,
                "acc": record["result"]["acc"],
                "nmi": record["result"]["nmi"],
                "out_dir": sub_dir.name,
            })
            _say(f"k={k} lambda={lam:g} acc={record['result']['acc']:.4f} "
                 f"nmi={record['result']['nmi']:.4f}")
    records.sort(key=lambda r: -r["acc"])
    _write_json(args.out_dir / "sweep.json", {"ranked": records})
    best = records[0]
    _say(f"best: k={best['k']} lambda={best['lambda']:g} acc={best['acc']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze_grouping(args) -> int:
    g = _load_dataset(args)
    res = grouping_probe(g, args.k, seed=args.seed, restarts=args.restarts)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with _atomic_open(out / "grouping_coords.csv") as fh:
        fh.write("x,y,pred,truth,error\n")
        for i in range(g.n_nodes):
            fh.write(f"{res.coords[i, 0]!r},{res.coords[i, 1]!r},"
                     f"{res.pred[i]},{g.labels[i]},{int(res.errors[i])}\n")
    _write_json(out / "report.json", {
        "k": args.k,
        "n_errors": int(res.errors.sum()),
        "error_rate": float(res.errors.mean()),
        "coords_csv": "grouping_coords.csv",
    })
    _say(f"{int(res.errors.sum())} of {g.n_nodes} nodes misclustered")
    return 0


def cmd_analyze_paths(args) -> int:
    g = _load_dataset(args)
    hist = shortest_path_histogram(g)
    payload = {("inf" if key is math.inf else str(key)): count
               for key, count in hist.items()}
    args.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(args.out_dir / "report.json", {"histogram": payload})
    _say(json.dumps(payload))
    return 0


def _parse_k_range(text) -> tuple:
    if ":" in text:
        try:
            lo, hi = (int(t) for t in text.split(":", 1))
        except ValueError as exc:
            raise ConfigError(f"bad --k-range value {text!r}") from exc
        return tuple(range(lo, hi + 1))
    return tuple(_parse_grid(text, int, "--k-range"))


def cmd_analyze_r_ratio(args) -> int:
    k_range = _parse_k_range(args.k_range)
    g = _load_dataset(args)
    if g.labels is None:
        raise ConfigError("r-ratio needs --labels")
    if args.pred is not None:
        pred = _read_labels(args.pred)
    else:
        pred = kmeans(g.features, g.n_clusters, seed=args.seed,
                      restarts=args.restarts)
    report = r_ratio(g, pred, g.labels, k_range)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(args.out_dir / "report.json", report.to_dict())
    shown = sum(e.pair_mean is not None for e in report.entries)
    _say(f"{shown} (cluster, k) ratios written")
    return 0


def cmd_analyze_mask_features(args) -> int:
    g = _load_dataset(args)
    masked = mask_features(g, args.fraction, args.seed)
    paths = write_graph_files(masked, args.out_dir, prefix="masked")
    _write_json(args.out_dir / "report.json", {
        "fraction": args.fraction,
        "n_masked": int(round(args.fraction * g.n_nodes)),
        "files": {k: str(v.name) for k, v in paths.items()},
    })
    _say(f"masked dataset written to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate_sbm(args) -> int:
    sizes = tuple(_parse_grid(args.blocks, int, "--blocks"))
    spec = SBMSpec(block_sizes=sizes, p_in=args.p_in, p_out=args.p_out,
                   feature_dim=args.feature_dim, mean_scale=args.mean_scale,
                   noise_scale=args.noise_scale, seed=args.seed)
    paths = write_graph_files(gen_sbm(spec), args.out_dir, prefix=args.prefix)
    _say(" ".join(str(p) for p in paths.values()))
    return 0


def cmd_generate_tree(args) -> int:
    spec = TreeMatchSpec(depth=args.depth, seed=args.seed)
    paths = write_graph_files(gen_tree_match(spec), args.out_dir,
                              prefix=args.prefix)
    _say(" ".join(str(p) for p in paths.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
