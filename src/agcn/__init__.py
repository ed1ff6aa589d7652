"""Structure-aware attention network for unsupervised graph clustering."""

import os as _os

# AGCN_THREADS caps BLAS/OpenMP parallelism; it must be applied before numpy
# first loads, so this sits ahead of every other import
_threads = _os.environ.get("AGCN_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import analysis, clustering, datagen, errors, graph, model, training
from .analysis import *  # noqa: F401,F403
from .clustering import *  # noqa: F401,F403
from .datagen import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .training import *  # noqa: F401,F403

# the public API is exactly what the modules list in their own __all__
__all__ = [name for module in (analysis, clustering, datagen, errors, graph,
                               model, training)
           for name in module.__all__]

__version__ = "0.1.0"
