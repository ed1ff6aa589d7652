"""Structure-aware attention network for unsupervised graph clustering."""

import os as _os

# AGCN_THREADS caps BLAS/OpenMP parallelism; it must be applied before numpy
# first loads, so this sits ahead of every other import
_threads = _os.environ.get("AGCN_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .analysis import (GroupingProbeResult, RRatioReport, grouping_probe,
                       mask_features, r_ratio)
from .clustering import (ClusterResult, accuracy, evaluate, kmeans,
                         label_mapping, nmi)
from .datagen import SBMSpec, TreeMatchSpec, gen_sbm, gen_tree_match, write_graph_files
from .errors import (AgcnError, ConfigError, DegenerateLossError,
                     DimensionError, NumericError, ParseError)
from .graph import (Graph, KHopMask, NormalizedAdjacency, build_graph,
                    homophily_ratio, khop_mask, khop_weights, load_graph,
                    normalized_adjacency, shortest_path_histogram)
from .model import (Dims, EvalCounter, LayerParams, ModelParams, forward,
                    init_params, layer_forward, load_params, save_params)
from .training import (AdamState, TrainingConfig, adam_step, backward,
                       history_to_csv, init_adam_state, loss_neg, loss_pos,
                       total_loss, train)

__version__ = "0.1.0"
