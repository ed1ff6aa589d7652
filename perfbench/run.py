"""Benchmark of ``agcn train``, end to end and layer by layer.

    python3 perfbench/run.py --workload sbm-k2-overcap --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Each run is a closed loop with one
client: training jobs run one after another in this process, each making
the same public calls in the same order as ``agcn train``, until the next
job would overrun ``--seconds``. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced jobs and reports the
per-layer metrics. The last line of standard output is one JSON object;
metric names and units are those of ``BENCHMARK.json``.

BLAS and OpenMP run on one thread. The variables are set here, before
numpy is first imported, and override any value in the environment.
"""

import os

os.environ["AGCN_THREADS"] = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    # the package is imported from this checkout's sources and nowhere else
    if not (SRC / "agcn" / "__init__.py").is_file():
        print(f"error: no agcn sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from bench import main
    sys.exit(main())
