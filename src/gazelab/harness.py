"""Fold construction, balanced draws, task evaluation, and error factors.

The evaluation protocol: split each class into 10 equal folds (seeded
shuffle, round-robin), reserve the last fold of every class for test
and the one before it for validation, and build as many balanced
training sets as the class imbalance allows by drawing disjoint
negative subsets. A task is one train row (train negatives, model):
each balanced draw's model is fitted once and scored on every requested
test negative set by binary F1 against the S class, averaged over the
draws. The random and all-positive baselines are closed-form, derived
from each test composition.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Container, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .core import CONCEPTS, ClipLabel, ObjLevel
from .errors import GazeLabError, InvariantViolation, PreconditionError
from .models import (
    check_mlp_settings,
    f1,
    train_logreg,
    train_mlp,
    train_tree,
    trivial_baseline_f1,
)

#: The fixed evaluation protocol: folds per class, and the depth and L2
#: penalty of the decision-tree and logistic heads.
FOLDS = 10
TREE_MAX_DEPTH = 10
LOGREG_L2 = 1e-3


def derive_seed(seed: int, *branch: int) -> int:
    """Stable child seed so adding draws never perturbs earlier ones."""
    ss = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, *branch))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class FoldPlan:
    """Per-class ordered fold assignments, test fold last."""

    folds: Mapping[Hashable, tuple[tuple[str, ...], ...]]
    seed: int

    test_fold = FOLDS - 1
    val_fold = FOLDS - 2

    def ids(self, cls: Hashable, folds: Iterable[int]) -> tuple[str, ...]:
        """The ids of class ``cls`` in ``folds``, fold by fold; none if the plan lacks it."""
        if cls not in self.folds:
            return ()
        return tuple(cid for fold in folds for cid in self.folds[cls][fold])

    def train_ids(self, cls: Hashable) -> tuple[str, ...]:
        """The ids of class ``cls`` in the folds before validation."""
        return self.ids(cls, range(self.val_fold))


def make_folds_from_ids(
    ids_by_class: Mapping[Hashable, Sequence[str]], seed: int = 0
) -> FoldPlan:
    """Seeded shuffle then round-robin assignment within each class."""
    folds: dict[Hashable, tuple[tuple[str, ...], ...]] = {}
    for cls_index, cls in enumerate(sorted(ids_by_class, key=str)):
        ids = list(ids_by_class[cls])
        if len(ids) < FOLDS:
            name = cls.name if isinstance(cls, Enum) else str(cls)
            raise PreconditionError(
                f"class {name!r} has {len(ids)} samples, fewer than {FOLDS} folds"
            )
        rng = np.random.default_rng(derive_seed(seed, 2, cls_index))
        order = rng.permutation(len(ids))
        assigned: list[list[str]] = [[] for _ in range(FOLDS)]
        for pos, idx in enumerate(order):
            assigned[pos % FOLDS].append(ids[idx])
        folds[cls] = tuple(tuple(f) for f in assigned)
    return FoldPlan(folds=folds, seed=seed)


def balanced_draws(
    pos: Sequence[str], neg: Sequence[str], rng: np.random.Generator
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Balanced (positives, negatives) sets over one pool of each class.

    Every set keeps all positives; negatives are drawn as disjoint
    subsets of the same size from one ``rng`` permutation. The number of
    sets is floor(negatives / positives), at least 1; leftover negatives
    after the last full draw stay unused.
    """
    pos = tuple(pos)
    order = rng.permutation(len(neg))
    size = min(len(pos), len(neg))
    return [
        (pos, tuple(neg[j] for j in order[i * size : (i + 1) * size]))
        for i in range(max(1, len(neg) // len(pos)))
    ]


def balanced_train_sets(
    plan: FoldPlan, positive: Hashable, negative: Hashable
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """Balanced training sets from the train folds of ``plan``."""
    pos = plan.train_ids(positive)
    neg = plan.train_ids(negative)
    if not pos or not neg:
        names = "/".join(c.name if isinstance(c, Enum) else repr(c) for c in (positive, negative))
        raise PreconditionError(f"no training data for classes {names}")
    return balanced_draws(pos, neg, np.random.default_rng(derive_seed(plan.seed, 0x0B)))


# --- task configurations ---------------------------------------------------


class ModelKind(Enum):
    MLP = "mlp"
    PCBM_DT = "pcbm-dt"
    PCBM_LR = "pcbm-lr"


#: The test negative sets of the task grid, as its columns.
TEST_NEGATIVE_SETS = (frozenset({ObjLevel.EN}), frozenset({ObjLevel.EN, ObjLevel.HN}))


@dataclass(frozen=True)
class TaskConfig:
    """One row of the train/test negative-composition grid.

    Positives are always the S clips; NS must be dropped upstream.
    """

    train_negatives: ObjLevel
    model: ModelKind
    seed: int
    mlp_epochs: int = 100
    mlp_lr: float = 1e-3
    mlp_batch: int = 32

    def __post_init__(self):
        if self.train_negatives not in (ObjLevel.EN, ObjLevel.HN):
            raise InvariantViolation("train negatives must be EN or HN")
        check_mlp_settings(self.mlp_epochs, self.mlp_batch, self.mlp_lr)

    def describe(self) -> dict:
        return {
            "train_negatives": self.train_negatives.name,
            "model": self.model.value,
            "seed": self.seed,
            "k": FOLDS,
            "mlp_epochs": self.mlp_epochs,
            "mlp_lr": self.mlp_lr,
            "mlp_batch": self.mlp_batch,
            "tree_max_depth": TREE_MAX_DEPTH,
            "logreg_l2": LOGREG_L2,
        }


@dataclass(frozen=True)
class EvalReport:
    mean_f1: float
    std_f1: float
    per_draw_f1: tuple[float, ...]
    baselines: Mapping[str, float]
    config: TaskConfig
    test_negatives: frozenset[ObjLevel]
    models: tuple[Any, ...]  # each balanced draw's fitted model; anything with predict(X)
    test_positive_fraction: float
    #: MLP only: each draw's kept epoch (1-based, 0 for the initialization).
    kept_epochs: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        config = self.config.describe()
        config["test_negatives"] = sorted(lv.name for lv in self.test_negatives)
        return {
            "mean_f1": self.mean_f1,
            "std_f1": self.std_f1,
            "per_draw_f1": list(self.per_draw_f1),
            **({} if self.kept_epochs is None else {"kept_epoch": list(self.kept_epochs)}),
            "baselines": dict(self.baselines),
            "test_positive_fraction": self.test_positive_fraction,
            "config": config,
        }


def _train_for_draw(
    cfg: TaskConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    draw_seed: int,
) -> tuple[Any, int | None]:
    """Fit the configured model, and the MLP's epoch kept on validation F1."""
    if cfg.model is ModelKind.MLP:
        fit = train_mlp(
            X_train, y_train, X_val, y_val,
            epochs=cfg.mlp_epochs, lr=cfg.mlp_lr, batch=cfg.mlp_batch, seed=draw_seed,
        )
        return fit.model, fit.kept_epoch
    if cfg.model is ModelKind.PCBM_DT:
        return train_tree(X_train, y_train, max_depth=TREE_MAX_DEPTH), None
    if cfg.model is ModelKind.PCBM_LR:
        return train_logreg(X_train, y_train, l2=LOGREG_L2), None
    raise InvariantViolation(f"unknown model kind {cfg.model}")


def fold_plan(labels: Sequence[ClipLabel], seed: int) -> FoldPlan:
    """The folds of ``labels`` by level at ``seed``, shared by every cell of that seed."""
    by_level: dict[ObjLevel, list[str]] = {}
    for lbl in labels:
        if lbl.level is ObjLevel.NS:
            raise PreconditionError("NS clips must be dropped before evaluation")
        by_level.setdefault(lbl.level, []).append(lbl.clip_id)
    return make_folds_from_ids(by_level, seed=seed)


@dataclass(frozen=True)
class CellPlan:
    """One checked train row: its draws and its test and validation (positives, negatives)."""

    config: TaskConfig
    draws: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    test_rows: tuple[tuple[list[str], list[str]], ...]
    val_row: tuple[list[str], list[str]]
    test_sets: tuple[frozenset[ObjLevel], ...]


def plan_task(
    cfg: TaskConfig,
    folds: FoldPlan,
    test_sets: Sequence[frozenset[ObjLevel]],
    features: Container[str],
) -> CellPlan:
    """The one check of a task cell before anything is fitted: ``test_sets``
    (each one of ``TEST_NEGATIVE_SETS``), the seed of ``folds``, the draws,
    and that ``features`` holds every clip the cell fits or scores on."""
    test_sets = tuple(frozenset(t) for t in test_sets)
    if not test_sets or any(t not in TEST_NEGATIVE_SETS for t in test_sets):
        raise InvariantViolation("test negatives must be {EN} or {EN, HN}")
    if cfg.seed != folds.seed:
        raise InvariantViolation(f"a cell of seed {cfg.seed} planned on folds of seed {folds.seed}")
    draws = tuple(balanced_train_sets(folds, ObjLevel.S, cfg.train_negatives))

    def fold_of(levels: Sequence[ObjLevel], fold: int) -> list[str]:
        return [cid for lv in levels for cid in folds.ids(lv, [fold])]

    test_pos = fold_of([ObjLevel.S], folds.test_fold)
    test_rows = tuple((test_pos, fold_of(sorted(neg), folds.test_fold)) for neg in test_sets)
    val_row = tuple(fold_of([lv], folds.val_fold) for lv in (ObjLevel.S, cfg.train_negatives))
    for cid in (cid for row in (*test_rows, val_row, *draws) for ids in row for cid in ids):
        if cid not in features:
            raise PreconditionError(f"no embedding for clip {cid!r}")
    return CellPlan(cfg, draws, test_rows, val_row, test_sets)


def _rows(
    features: Mapping[str, np.ndarray], pos: Sequence[str], neg: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked features of ``pos`` then ``neg``, labelled 1 and 0."""
    X = np.stack([np.asarray(features[cid], dtype=np.float64) for cid in [*pos, *neg]])
    return X, np.array([1] * len(pos) + [0] * len(neg), dtype=np.int64)


#: The draw fits of the running pool, where its forked workers inherit
#: them; empty while no pool runs.
_pending_fits: list[Callable[[], tuple[Any, int | None]]] = []


def _run_pending_fit(index: int) -> tuple[Any, int | None]:
    """In a forked worker: run the inherited fit at ``index``."""
    return _pending_fits[index]()


def _fit_all(fits: list[Callable[[], tuple[Any, int | None]]], mlp: bool) -> list:
    """The results of ``fits``, in order.

    MLP fits of two or more draws run in a pool of forked workers, one
    per usable CPU up to one per fit. The fits reach the workers through
    the fork; only an index goes down the pipe and only the result comes
    back. Every draw has its own seed, so where it runs cannot change its
    bits. A worker that dies raises ``GazeLabError``. Tree and logistic
    fits take milliseconds and run in-process, as every fit does on one
    CPU or where fork is missing.
    """
    global _pending_fits
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(fits), cpus)
    if mlp and workers >= 2:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            _pending_fits = fits
            try:
                futures = [pool.submit(_run_pending_fit, i) for i in range(len(fits))]
                # In draw order, so the first failing draw raises, as in-process.
                return [future.result() for future in futures]
            except BrokenProcessPool:
                raise GazeLabError(
                    "a worker process fitting the MLP draws died; no output was written"
                ) from None
            finally:
                # Cancel the fits not started yet and wait for every worker to exit.
                pool.shutdown(cancel_futures=True)
                _pending_fits = []
    return [fit() for fit in fits]


def run_task(
    cells: Sequence[CellPlan], features: Mapping[str, np.ndarray]
) -> tuple[tuple[EvalReport, ...], ...]:
    """Fit each balanced draw of ``cells`` once and score it on every test
    set of its row, with ``features`` mapping each clip of ``cells`` to a
    vector (an EmbeddingTable for the MLP, concept coordinates otherwise).

    One tuple of reports per cell, in order, holds one report per test set:
    per-draw F1, their mean and standard deviation, the model of each draw,
    and the closed-form random / all-positive baselines of that test
    composition. The draws of all cells are fitted together, in forked
    workers when they are MLP draws (see ``_fit_all``).
    """
    fits = []
    for cell in cells:
        cfg = cell.config
        val = _rows(features, *cell.val_row)
        for draw_index, draw in enumerate(cell.draws):

            def fit(cfg=cfg, draw=draw, val=val, draw_seed=derive_seed(cfg.seed, 1, draw_index)):
                return _train_for_draw(cfg, *_rows(features, *draw), *val, draw_seed)

            fits.append(fit)
    results = iter(_fit_all(fits, all(cell.config.model is ModelKind.MLP for cell in cells)))

    rows = []
    for cell in cells:
        models, kept_epochs = zip(*(next(results) for _ in cell.draws))
        reports = []
        for test_negatives, test_row in zip(cell.test_sets, cell.test_rows):
            X_test, y_test = _rows(features, *test_row)
            row = [f1(model.predict(X_test), y_test).f1 for model in models]
            f_data = int(y_test.sum()) / len(y_test)
            reports.append(
                EvalReport(
                    mean_f1=float(np.mean(row)),
                    std_f1=float(np.std(row)),
                    per_draw_f1=tuple(row),
                    baselines={
                        "random": trivial_baseline_f1(f_data, 0.5),
                        "all_positive": trivial_baseline_f1(f_data, 1.0),
                    },
                    config=cell.config,
                    test_negatives=test_negatives,
                    models=models,
                    test_positive_fraction=f_data,
                    kept_epochs=kept_epochs if cell.config.model is ModelKind.MLP else None,
                )
            )
        rows.append(tuple(reports))
    return tuple(rows)


# --- error-factor analysis ---------------------------------------------------

#: Factor order: the eight concepts in canonical order, then S, HN, EN.
FACTOR_NAMES: tuple[str, ...] = tuple(c.label for c in CONCEPTS) + ("S", "HN", "EN")


@dataclass(frozen=True)
class FactorWeights:
    weights: Mapping[str, float]
    bias: float

    def __post_init__(self):
        if tuple(self.weights) != FACTOR_NAMES:
            raise InvariantViolation("factor weights must follow the canonical order")


def clip_descriptor(label: ClipLabel) -> np.ndarray:
    """11-dim one-hot descriptor: 8 concept flags plus S/HN/EN flags."""
    vec = np.zeros(len(FACTOR_NAMES))
    for c in label.concepts:
        vec[int(c)] = 1.0
    offset = len(CONCEPTS)
    level_slot = {ObjLevel.S: 0, ObjLevel.HN: 1, ObjLevel.EN: 2}
    if label.level not in level_slot:
        raise PreconditionError("NS clips must be dropped before error analysis")
    vec[offset + level_slot[label.level]] = 1.0
    return vec


def error_factor_analysis(
    labels: Sequence[ClipLabel],
    predictions: Sequence[int],
    truths: Sequence[int] | None = None,
    l2: float = 1.0,
) -> FactorWeights:
    """Regress per-clip classification success on clip factors.

    Success is 1 when the prediction matches the truth (by default the
    truth is whether the clip is S). Positive weights mark factors that
    contribute to success, negative ones to failure.
    """
    if truths is None:
        truths = [1 if lbl.level is ObjLevel.S else 0 for lbl in labels]
    preds = np.asarray(predictions, dtype=np.int64)
    t = np.asarray(truths, dtype=np.int64)
    if len(labels) != preds.size or preds.size != t.size:
        raise PreconditionError(
            f"{len(labels)} labels vs {preds.size} predictions vs {t.size} truths"
        )
    if preds.size == 0:
        raise PreconditionError("there are no predictions to attribute")
    success = (preds == t).astype(np.int64)
    if success.all():
        raise PreconditionError("every prediction is correct; nothing to attribute")
    if not success.any():
        raise PreconditionError("every prediction is wrong; nothing to attribute")
    X = np.stack([clip_descriptor(lbl) for lbl in labels])
    model = train_logreg(X, success, l2=l2)
    weights = {name: float(w) for name, w in zip(FACTOR_NAMES, model.weights)}
    return FactorWeights(weights=weights, bias=model.bias)
