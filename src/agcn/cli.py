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
from pathlib import Path

from . import __version__
from .analysis import (_n_masked, grouping_probe, mask_features, r_ratio,
                       shortest_path_histogram)
from .clustering import evaluate, kmeans
from .datagen import SBMSpec, gen_sbm, write_graph_files
from .errors import AgcnError, ConfigError
from .graph import (Graph, _atomic_open, _is_float, _is_integer, _read_labels,
                    khop_mask, load_graph)
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
    except (AgcnError, MemoryError) as exc:
        # an allocation numpy refuses, such as a history of 10**15 epochs;
        # the interpreter's own MemoryError carries no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
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
    p_train.add_argument("--k", type=str, help="hop order (list allowed with --sweep)")
    p_train.add_argument("--lambda", dest="lam", type=str,
                         help="positive-loss weight (list allowed with --sweep)")
    p_train.add_argument("--gamma", type=_float)
    p_train.add_argument("--layers", type=_int)
    p_train.add_argument("--heads", type=_int)
    p_train.add_argument("--dq", type=_int, dest="d_q")
    p_train.add_argument("--dv", type=_int, dest="d_v")
    p_train.add_argument("--dout", type=_int, dest="d_out")
    p_train.add_argument("--epochs", type=_int)
    p_train.add_argument("--lr", type=_float)
    p_train.add_argument("--pair-cap", type=_int, dest="pair_cap")
    p_train.add_argument("--seed", type=_int)
    p_train.add_argument("--restarts", type=_int)
    p_train.add_argument("--mode", choices=("structure", "vanilla"))
    p_train.add_argument("--no-lneg", action="store_true",
                         help="drop the rank-margin loss term")
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
    p_group.add_argument("--k", type=_int, default=5)
    p_group.add_argument("--seed", type=_int, default=0)
    p_group.add_argument("--restarts", type=_int, default=10)
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
    p_rr.add_argument("--seed", type=_int, default=0)
    p_rr.add_argument("--restarts", type=_int, default=10)
    p_rr.add_argument("--out-dir", type=Path, default=Path("out"))
    p_rr.set_defaults(func=cmd_analyze_r_ratio)

    p_maskf = an_sub.add_parser("mask-features", help="zero a random node fraction's features")
    _add_dataset_flags(p_maskf)
    p_maskf.add_argument("--fraction", type=_float, default=0.6)
    p_maskf.add_argument("--seed", type=_int, default=0)
    p_maskf.add_argument("--out-dir", type=Path, default=Path("out"))
    p_maskf.set_defaults(func=cmd_analyze_mask_features)

    p_gen = sub.add_parser("generate", help="synthetic dataset files")
    gen_sub = p_gen.add_subparsers(dest="subcommand", required=True)

    p_sbm = gen_sub.add_parser("sbm", help="stochastic block model")
    p_sbm.add_argument("--blocks", type=str, required=True,
                       help="comma-separated block sizes, e.g. 20,20")
    p_sbm.add_argument("--p-in", type=_float, required=True)
    p_sbm.add_argument("--p-out", type=_float, required=True)
    p_sbm.add_argument("--feature-dim", type=_int)
    p_sbm.add_argument("--mean-scale", type=_float, default=1.0)
    p_sbm.add_argument("--noise-scale", type=_float, default=0.3)
    p_sbm.add_argument("--seed", type=_int, default=0)
    p_sbm.add_argument("--prefix", type=str, default="sbm")
    p_sbm.add_argument("--out-dir", type=Path, default=Path("out"))
    p_sbm.set_defaults(func=cmd_generate_sbm)

    return parser


def _strict(rule, cast, kind: str):
    """A flag type that reads ``text`` by ``cast`` once it passes ``rule``,
    a file reader's rule. ``int`` and ``float`` alone also take ``1_0``,
    other scripts' digits and surrounding spaces."""
    def parse(text):
        if not rule(text):
            raise argparse.ArgumentTypeError(f"invalid {kind} value: {text!r}")
        return cast(text)
    return parse


# the rule of edge and label values
_int = _strict(_is_integer, int, "int")
# the rule np.loadtxt applies to one feature value, spaces aside
_float = _strict(_is_float, float, "float")


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
    """The values of the list flag ``name``: comma-separated, or, for
    integers, one inclusive range ``lo:hi``. A list or range that names no
    value is a ConfigError, as is a value that ``caster`` rejects."""
    try:
        if caster is _int and ":" in text:
            lo, hi = (_int(t) for t in text.split(":", 1))
            values = list(range(lo, hi + 1))
        else:
            values = [caster(tok) for tok in text.split(",") if tok != ""]
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"bad {name} value {text!r}") from exc
    if not values:
        raise ConfigError(f"{name} names no value")
    return values


def _train_config(args) -> dict[str, TrainingConfig]:
    """One checked :class:`TrainingConfig` per run point, keyed by the
    directory a sweep writes it to, in sweep order."""
    k_grid = [TrainingConfig.k]
    lam_grid = [TrainingConfig.lam]
    if args.k is not None:
        k_grid = _parse_grid(args.k, _int, "--k")
    elif args.sweep:
        k_grid = list(DEFAULT_K_GRID)
    if args.lam is not None:
        lam_grid = _parse_grid(args.lam, _float, "--lambda")
    elif args.sweep:
        lam_grid = list(DEFAULT_LAMBDA_GRID)
    if not args.sweep and (len(k_grid) > 1 or len(lam_grid) > 1):
        raise ConfigError("value lists for --k/--lambda require --sweep")
    base = {}
    for name in ("gamma", "layers", "heads", "d_q", "d_v", "d_out", "epochs",
                 "lr", "pair_cap", "seed", "restarts", "mode"):
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value
    if args.no_lneg:
        base["use_neg"] = False
    configs = {}
    for k in k_grid:
        for lam in lam_grid:
            lam += 0.0      # -0.0 is the point 0.0 and must share its name
            name = f"k{k}_lam{lam:g}"
            if name in configs:
                raise ConfigError(f"two sweep points share the directory {name}")
            configs[name] = TrainingConfig(**{**base, "k": k, "lam": lam})
    return configs


def _run_single(g: Graph, cfg: TrainingConfig, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    params, history = train(g, cfg)
    # train keeps its mask to itself, so it is built again
    emb = forward(g, khop_mask(g, cfg.k), params, mode=cfg.mode)
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
    configs = _train_config(args)
    if args.sweep and args.labels is None:
        raise ConfigError("--sweep ranks by accuracy and needs --labels")
    g = _load_dataset(args)
    if not args.sweep:
        [cfg] = configs.values()
        record = _run_single(g, cfg, args.out_dir)
        if record["result"] is not None:
            _say(f"acc={record['result']['acc']:.4f} "
                 f"nmi={record['result']['nmi']:.4f}")
        _say(f"artifacts written to {args.out_dir}")
        return 0

    # point names are unique, so the grid is (distinct k) x (points per k)
    n_k = len({cfg.k for cfg in configs.values()})
    _say(f"sweeping {n_k} x {len(configs) // n_k} = "
         f"{len(configs)} configurations")
    records = []
    for name, cfg in configs.items():
        record = _run_single(g, cfg, args.out_dir / name)
        records.append({
            "k": cfg.k,
            "lambda": cfg.lam,
            "acc": record["result"]["acc"],
            "nmi": record["result"]["nmi"],
            "out_dir": name,
        })
        _say(f"k={cfg.k} lambda={cfg.lam:g} acc={record['result']['acc']:.4f} "
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
    _write_json(args.out_dir / "report.json", {"histogram": payload})
    _say(json.dumps(payload))
    return 0


def cmd_analyze_r_ratio(args) -> int:
    k_range = _parse_grid(args.k_range, _int, "--k-range")
    g = _load_dataset(args)
    if g.labels is None:
        raise ConfigError("r-ratio needs --labels")
    if args.pred is not None:
        pred = _read_labels(args.pred, g.n_nodes)
    else:
        pred = kmeans(g.features, g.n_clusters, seed=args.seed,
                      restarts=args.restarts)
    report = r_ratio(g, pred, g.labels, k_range)
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
        "n_masked": _n_masked(args.fraction, g.n_nodes),
        "files": {k: str(v.name) for k, v in paths.items()},
    })
    _say(f"masked dataset written to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate_sbm(args) -> int:
    sizes = tuple(_parse_grid(args.blocks, _int, "--blocks"))
    spec = SBMSpec(block_sizes=sizes, p_in=args.p_in, p_out=args.p_out,
                   feature_dim=args.feature_dim, mean_scale=args.mean_scale,
                   noise_scale=args.noise_scale, seed=args.seed)
    paths = write_graph_files(gen_sbm(spec), args.out_dir, prefix=args.prefix)
    _say(" ".join(str(p) for p in paths.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
