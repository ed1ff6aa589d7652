"""Write one workload's input files for a seed.

Runs in a process of its own, so that the O(n^2) pair arrays of
``gen_sbm`` never count towards the measuring process's peak RSS:

    python3 perfbench/gen_inputs.py --workload sbm-vanilla-dense --seed 3 --out DIR

DIR receives ``sbm.edges``, ``sbm.features.csv`` and ``sbm.labels`` (the
workload graph), ``tiny.*`` (the graph of the CLI-parity self-test) and
``meta.json`` with the ``Graph.fingerprint()`` of each generated graph.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from agcn import SBMSpec, gen_sbm, write_graph_files  # noqa: E402
from workloads import PARITY_SBM, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    meta = {}
    for prefix, spec in (("sbm", WORKLOADS[args.workload].sbm_args(args.seed)),
                         ("tiny", dict(PARITY_SBM, seed=args.seed))):
        g = gen_sbm(SBMSpec(**spec))
        write_graph_files(g, args.out, prefix=prefix)
        meta[prefix] = {"fingerprint": g.fingerprint(), "n_nodes": g.n_nodes,
                        "n_edges": g.n_edges, "spec": spec}
    with open(args.out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
