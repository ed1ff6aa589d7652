"""Spans recorded from the benchmark's own files.

A :class:`Tracer` keeps spans in memory: name, start, end, the span that
caused it, and optional exact counts. ``install`` replaces the functions
that agcn modules call across a module boundary with wrappers that record a
span around each call; ``restore`` puts every original back and checks
that each attribute is the original object again. Nothing inside the
package is edited, and untraced runs never install a wrapper.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager

import agcn.clustering
import agcn.model
import agcn.training
from agcn import EvalCounter

# (module, attribute, span name): the calls each module makes across a
# module boundary, or to a helper of its own that marks a layer
WRAPPED = (
    (agcn.training, "khop_mask", "graph.khop_mask"),
    (agcn.training, "khop_weights", "graph.khop_weights"),
    (agcn.training, "_forward_tape", "model.forward"),
    (agcn.training, "_pair_batch", "training.pair_batch"),
    (agcn.training, "_loss_neg_impl", "training.loss_neg"),
    (agcn.training, "_loss_pos_impl", "training.loss_pos"),
    (agcn.training, "_model_backward", "model.backward"),
    (agcn.training, "adam_step", "training.adam"),
    (agcn.model, "_masked_layer", "model.masked_layer"),
    (agcn.model, "_dense_layer", "model.dense_layer"),
    (agcn.clustering, "_kmeans_with_inertia", "clustering.kmeans"),
    (agcn.clustering, "_assign", "clustering.assign"),
    (agcn.clustering, "accuracy", "clustering.accuracy"),
    (agcn.clustering, "nmi", "clustering.nmi"),
)


class Tracer:
    def __init__(self, pair_cap: int):
        self.spans = []
        self._stack = []
        self._originals = []
        self._pair_cap = pair_cap

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "t0": time.perf_counter(), "t1": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    def install(self):
        for module, attr, name in WRAPPED:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapper(original, name))

    def restore(self) -> list:
        """Put every original back; return the attributes that did not
        come back as the identical object."""
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        bad = [f"{m.__name__}.{a}" for m, a, o in self._originals
               if getattr(m, a) is not o]
        self._originals.clear()
        return bad

    def _wrapper(self, original, name):
        @functools.wraps(original)
        def call(*args, **kwargs):
            if name == "model.forward" and kwargs.get("counter") is None:
                # the package's own score-evaluation counter; counting
                # changes no arithmetic
                kwargs["counter"] = EvalCounter()
            with self.span(name) as rec:
                result = original(*args, **kwargs)
                self._count(rec, result, kwargs)
            return result
        return call

    def _count(self, rec, result, kwargs):
        name = rec["name"]
        if name == "model.forward":
            rec["score_evals"] = kwargs["counter"].total()
        elif name == "training.pair_batch":
            rec["pairs"] = int(len(result.plus_e))
        elif name == "graph.khop_mask":
            others = result.list_sizes() - 1      # every list holds its node
            rec["nnz"] = int(result.total_nnz)
            rec["overcap"] = int((others * (others - 1) // 2 > self._pair_cap).sum())

    def dump(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _ms(rec) -> float:
    return 1e3 * (rec["t1"] - rec["t0"])


def _inside(spans, outer) -> list:
    return [s for s in spans if s["t0"] >= outer["t0"] and s["t1"] <= outer["t1"]
            and s is not outer]


def _sum_ms(spans, *names) -> float:
    return sum(_ms(s) for s in spans if s["name"] in names)


def sum_inside(spans, outer, name) -> float:
    """Total ms of the ``name`` spans inside ``outer``."""
    return _sum_ms(_inside(spans, outer), name)


def epochs_of(spans, train) -> list:
    """Per-epoch stage times (ms) and counts inside one ``train`` span.

    An epoch runs from its forward pass to the end of its Adam step; its
    self time (``other``) is what no wrapped stage covers.
    """
    inner = _inside(spans, train)
    starts = [s for s in inner if s["name"] == "model.forward"]
    ends = [s for s in inner if s["name"] == "training.adam"]
    out = []
    for fwd, adam in zip(starts, ends):
        window = {"t0": fwd["t0"], "t1": adam["t1"]}
        ep = _inside(spans, window) + [fwd, adam]
        row = {
            "epoch": _ms(window),
            "forward": _ms(fwd),
            "pair_batch": _sum_ms(ep, "training.pair_batch"),
            "loss_neg": _sum_ms(ep, "training.loss_neg"),
            "loss_pos": _sum_ms(ep, "training.loss_pos"),
            "backward": _sum_ms(ep, "model.backward"),
            "adam": _ms(adam),
            "masked_layer": _sum_ms(ep, "model.masked_layer"),
            "dense_layer": _sum_ms(ep, "model.dense_layer"),
            "pairs": sum(s.get("pairs", 0) for s in ep),
            "score_evals": fwd["score_evals"],
            "n_masked": sum(s["name"] == "model.masked_layer" for s in ep),
            "n_dense": sum(s["name"] == "model.dense_layer" for s in ep),
        }
        row["other"] = row["epoch"] - sum(
            row[k] for k in ("forward", "pair_batch", "loss_neg", "loss_pos",
                             "backward", "adam"))
        out.append(row)
    return out


def evaluate_of(spans, evaluate) -> dict:
    """Clustering stage times (ms) and the Lloyd iteration count inside one
    ``evaluate`` span."""
    inner = _inside(spans, evaluate)
    return {
        "kmeans": _sum_ms(inner, "clustering.kmeans"),
        "assign": _sum_ms(inner, "clustering.assign"),
        "lloyd_iters": sum(s["name"] == "clustering.assign" for s in inner),
        "metrics": _sum_ms(inner, "clustering.accuracy", "clustering.nmi"),
    }


def tail_percentile(values, beyond: int = 10):
    """Highest percentile that leaves at least ``beyond`` samples above it,
    as (percent, value), or None when there are too few samples."""
    n = len(values)
    if n <= beyond:
        return None
    pct = 100 * (n - beyond) // n
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return pct, cuts[pct - 1]
