"""Spans around the calls into gazelab's modules, recorded from outside.

``install`` replaces each traced function at every name the package's
modules look it up by (including aliases such as ``cbm.f1_score``), and
each traced method on its class, with a wrapper that records a span:
name, start, end and the span it was called from. Spans stay in memory
until the run ends; ``layer_metrics`` then derives the per-layer
figures. Counters read only the arguments and results of traced calls,
so the program itself is unchanged.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "core", "fusion", "agreement", "stats", "models", "cbm", "harness")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans and counters of one run.

    ``overlap_pairs`` maps ``film/annotator`` to the number of span/clip
    pairs of that timeline that intersect, computed from the inputs.
    """

    def __init__(self, overlap_pairs: dict[str, int] | None = None) -> None:
        self.overlap_pairs = overlap_pairs or {}
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value


def _count_project(tracer: Tracer, args: dict, result) -> None:
    spans, clips = args["spans"], args["clips"]
    tracer.add("fusion.project.candidate_pairs", len(spans) * len(clips))
    if spans:
        timeline = f"{spans[0].film_id}/{spans[0].annotator_id}"
        tracer.add("fusion.project.overlap_pairs", tracer.overlap_pairs.get(timeline, 0))


# (module, attribute, counter); the span is named "module.attribute". A
# dotted attribute names a method on a class. A counter gets the tracer,
# the call's arguments by parameter name, and the result.
TARGETS: list[tuple[str, str, Callable | None]] = [
    ("core", "parse_annotations",
     lambda t, a, r: t.add("core.parse_annotations.records", len(r))),
    ("core", "parse_clip_index", None),
    ("core", "load_embeddings", lambda t, a, r: t.add("core.load_embeddings.bytes", len(a["data"]))),
    ("core", "EmbeddingTable.matrix",
     lambda t, a, r: t.add("core.EmbeddingTable.matrix.rows", len(r))),
    ("fusion", "fuse", None),
    ("fusion", "project", _count_project),
    ("fusion", "merge", None),
    ("fusion", "sweep_thresholds", None),
    ("agreement", "gamma", None),
    ("agreement", "expected_disorder",
     lambda t, a, r: t.add("agreement.null_trials", a["cfg"].n_null)),
    ("stats", "summarize", None),
    ("models", "train_svm", lambda t, a, r: t.add("models.train_svm.rows", len(a["X"]))),
    ("models", "train_logreg", None),
    ("models", "train_tree", None),
    ("models", "train_mlp", lambda t, a, r: t.add("models.train_mlp.epochs", len(r.epoch_losses))),
    ("models", "MlpModel.predict", None),
    ("models", "f1", None),
    ("cbm", "fit_cav", None),
    ("cbm", "score_table", None),
    ("cbm", "train_pcbm", None),
    ("harness", "run_task", None),
    ("harness", "make_folds_from_ids", None),
    ("harness", "balanced_train_sets", None),
]


def _wrapper(tracer: Tracer, name: str, orig: Callable, counter) -> Callable:
    signature = inspect.signature(orig)

    @functools.wraps(orig)
    def traced(*args, **kwargs):
        result = tracer.call(name, orig, args, kwargs)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counter(tracer, bound.arguments, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every target wherever the imported gazelab modules bind it."""
    modules = [m for n, m in sys.modules.items() if n == "gazelab" or n.startswith("gazelab.")]
    for module_name, attr, counter in TARGETS:
        home = sys.modules[f"gazelab.{module_name}"]
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, method, _wrapper(tracer, name, cls.__dict__[method], counter))
            continue
        orig = getattr(home, attr)
        wrapped = _wrapper(tracer, name, orig, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-span-name totals, calls and self times, plus each layer's share.

    A span's self time is its duration minus the durations of its
    children; a layer's share is the self time of its spans over
    ``wall_s``, so the shares of all layers sum to the part of the wall
    time the top-level ``cli`` spans cover.
    """
    child_time = [0.0] * len(tracer.spans)
    for span in tracer.spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, float] = dict(tracer.counts)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span, children in zip(tracer.spans, child_time):
        duration = span.end - span.start
        for key, value in ((".s", duration), (".self_s", duration - children), (".calls", 1)):
            out[span.name + key] = out.get(span.name + key, 0) + value
        layer_self[span.name.split(".")[0]] += duration - children
    for layer, seconds in layer_self.items():
        out[f"share.{layer}"] = seconds / wall_s
    return out
