"""Fold construction, balanced draws, task evaluation, and error factors.

The evaluation protocol: split each class into 10 equal folds (seeded
shuffle, round-robin), reserve the last fold of every class for test
and the one before it for validation, and build as many balanced
training sets as the class imbalance allows by drawing disjoint
negative subsets. A task is one (train negatives, test negatives,
model) configuration scored by binary F1 against the S class, averaged
over the balanced draws, with closed-form trivial baselines derived
from the test composition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Any, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .core import CONCEPTS, ClipLabel, ObjLevel
from .errors import (
    ClassTooSmall,
    DegenerateTarget,
    EmptyFilm,
    EmptyFilmWarning,
    FilmOverlap,
    InvariantViolation,
    LengthMismatch,
    MissingEmbedding,
    NoTrainData,
    PreconditionError,
)
from .models import (
    Metrics,
    f1,
    train_logreg,
    train_mlp,
    train_tree,
    trivial_baseline_f1,
)


def derive_seed(seed: int, *branch: int) -> int:
    """Stable child seed so adding draws never perturbs earlier ones."""
    ss = np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, *branch))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class FoldPlan:
    """Per-class ordered fold assignments, test fold last."""

    folds: Mapping[Hashable, tuple[tuple[str, ...], ...]]
    k: int
    seed: int

    @property
    def test_fold(self) -> int:
        return self.k - 1

    @property
    def val_fold(self) -> int:
        return self.k - 2

    def fold_ids(self, cls: Hashable, fold: int) -> tuple[str, ...]:
        return self.folds[cls][fold]

    def ids(self, cls: Hashable, folds: Iterable[int]) -> tuple[str, ...]:
        """The ids of class ``cls`` in ``folds``, fold by fold."""
        return tuple(cid for fold in folds for cid in self.folds[cls][fold])

    def train_ids(self, cls: Hashable) -> tuple[str, ...]:
        return self.ids(cls, (i for i in range(self.k) if i not in (self.test_fold, self.val_fold)))


def make_folds_from_ids(
    ids_by_class: Mapping[Hashable, Sequence[str]], k: int = 10, seed: int = 0
) -> FoldPlan:
    """Seeded shuffle then round-robin assignment within each class."""
    folds: dict[Hashable, tuple[tuple[str, ...], ...]] = {}
    for cls_index, cls in enumerate(sorted(ids_by_class, key=str)):
        ids = list(ids_by_class[cls])
        if len(ids) < k:
            raise ClassTooSmall(str(cls), len(ids), k)
        rng = np.random.default_rng(derive_seed(seed, 2, cls_index))
        order = rng.permutation(len(ids))
        assigned: list[list[str]] = [[] for _ in range(k)]
        for pos, idx in enumerate(order):
            assigned[pos % k].append(ids[idx])
        folds[cls] = tuple(tuple(f) for f in assigned)
    return FoldPlan(folds=folds, k=k, seed=seed)


def make_folds(labels: Sequence[ClipLabel], k: int = 10, seed: int = 0) -> FoldPlan:
    """Fold plan over the levels present in a label set."""
    ids_by_level: dict[ObjLevel, list[str]] = {}
    for lbl in labels:
        ids_by_level.setdefault(lbl.level, []).append(lbl.clip_id)
    return make_folds_from_ids(ids_by_level, k=k, seed=seed)


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
        raise NoTrainData(
            f"no training data for classes {positive!r}/{negative!r}"
        )
    return balanced_draws(pos, neg, np.random.default_rng(derive_seed(plan.seed, 0x0B)))


# --- task configurations ---------------------------------------------------


class ModelKind(Enum):
    MLP = "mlp"
    PCBM_DT = "pcbm-dt"
    PCBM_LR = "pcbm-lr"
    # Data-independent references used to validate the report baselines.
    ALWAYS_POSITIVE = "always-positive"
    COIN_FLIP = "coin-flip"


@dataclass(frozen=True)
class TaskConfig:
    """One cell of the train/test negative-composition grid.

    Positives are always the S clips; NS must be dropped upstream.
    """

    train_negatives: ObjLevel
    test_negatives: frozenset[ObjLevel]
    model: ModelKind
    seed: int
    k: int = 10
    mlp_epochs: int = 100
    mlp_lr: float = 1e-3
    mlp_batch: int = 32
    tree_max_depth: int = 10
    logreg_l2: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "test_negatives", frozenset(self.test_negatives))
        if self.train_negatives not in (ObjLevel.EN, ObjLevel.HN):
            raise InvariantViolation("train negatives must be EN or HN")
        allowed = ({ObjLevel.EN}, {ObjLevel.EN, ObjLevel.HN})
        if set(self.test_negatives) not in allowed:
            raise InvariantViolation("test negatives must be {EN} or {EN, HN}")

    def describe(self) -> dict:
        return {
            "train_negatives": self.train_negatives.name,
            "test_negatives": sorted(lv.name for lv in self.test_negatives),
            "model": self.model.value,
            "seed": self.seed,
            "k": self.k,
            "mlp_epochs": self.mlp_epochs,
            "mlp_lr": self.mlp_lr,
            "mlp_batch": self.mlp_batch,
            "tree_max_depth": self.tree_max_depth,
            "logreg_l2": self.logreg_l2,
        }


@dataclass(frozen=True)
class DrawOutcome:
    draw_index: int
    metrics: Metrics
    predictions: tuple[tuple[str, int, int], ...]  # (clip_id, predicted, truth)
    model: Any  # the fitted model; anything with predict(X)


@dataclass(frozen=True)
class EvalReport:
    mean_f1: float
    std_f1: float
    per_draw_f1: tuple[float, ...]
    baselines: Mapping[str, float]
    config: TaskConfig
    draws: tuple[DrawOutcome, ...]
    test_positive_fraction: float

    def to_json(self) -> dict:
        return {
            "mean_f1": self.mean_f1,
            "std_f1": self.std_f1,
            "per_draw_f1": list(self.per_draw_f1),
            "baselines": dict(self.baselines),
            "test_positive_fraction": self.test_positive_fraction,
            "config": self.config.describe(),
        }


def _split_levels(labels: Sequence[ClipLabel]) -> dict[ObjLevel, list[str]]:
    by_level: dict[ObjLevel, list[str]] = {}
    for lbl in labels:
        if lbl.level is ObjLevel.NS:
            raise PreconditionError("NS clips must be dropped before evaluation")
        by_level.setdefault(lbl.level, []).append(lbl.clip_id)
    return by_level


def _train_for_draw(
    cfg: TaskConfig,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    draw_seed: int,
):
    """Fit the configured model; MLP picks its best epoch on validation F1."""
    if cfg.model is ModelKind.MLP:
        return train_mlp(
            X_train,
            y_train,
            X_val,
            y_val,
            epochs=cfg.mlp_epochs,
            lr=cfg.mlp_lr,
            batch=cfg.mlp_batch,
            seed=draw_seed,
        ).model
    if cfg.model is ModelKind.PCBM_DT:
        return train_tree(X_train, y_train, max_depth=cfg.tree_max_depth)
    if cfg.model is ModelKind.PCBM_LR:
        return train_logreg(X_train, y_train, l2=cfg.logreg_l2)
    if cfg.model is ModelKind.ALWAYS_POSITIVE:
        return _ConstantModel(1)
    if cfg.model is ModelKind.COIN_FLIP:
        return _CoinFlipModel(draw_seed)
    raise InvariantViolation(f"unknown model kind {cfg.model}")


class _ConstantModel:
    def __init__(self, value: int):
        self.value = value

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.full(len(X), self.value, dtype=np.int64)


class _CoinFlipModel:
    def __init__(self, seed: int):
        self.seed = seed

    def predict(self, X: np.ndarray) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        return rng.integers(0, 2, size=len(X)).astype(np.int64)


def run_task(
    cfg: TaskConfig,
    labels: Sequence[ClipLabel],
    features: Mapping[str, np.ndarray],
) -> EvalReport:
    """Evaluate one task configuration.

    ``features`` maps clip ids to vectors (an EmbeddingTable for the
    MLP, concept-subspace coordinates for the interpretable models).
    All balanced draws share the identical test fold; the report carries
    per-draw F1, their mean and standard deviation, the model fitted on
    each draw, and the closed-form random / all-positive baselines for
    the same test composition.
    """
    by_level = _split_levels(labels)
    if ObjLevel.S not in by_level:
        raise NoTrainData("no S clips to use as positives")
    plan = make_folds_from_ids(by_level, k=cfg.k, seed=cfg.seed)

    def fold_of(levels: Sequence[ObjLevel], fold: int) -> list[str]:
        return [cid for lv in levels if lv in by_level for cid in plan.fold_ids(lv, fold)]

    def xy(pos: Sequence[str], neg: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Stacked features of ``pos`` then ``neg``, labelled 1 and 0."""
        try:
            X = np.stack([np.asarray(features[cid], dtype=np.float64) for cid in [*pos, *neg]])
        except KeyError as e:
            raise MissingEmbedding(e.args[0]) from None
        return X, np.array([1] * len(pos) + [0] * len(neg), dtype=np.int64)

    test_pos = fold_of([ObjLevel.S], plan.test_fold)
    test_neg = fold_of(sorted(cfg.test_negatives), plan.test_fold)
    test_ids = test_pos + test_neg
    X_test, y_test = xy(test_pos, test_neg)
    X_val, y_val = xy(
        fold_of([ObjLevel.S], plan.val_fold), fold_of([cfg.train_negatives], plan.val_fold)
    )

    draws: list[DrawOutcome] = []
    for draw_index, (pos_ids, neg_ids) in enumerate(
        balanced_train_sets(plan, ObjLevel.S, cfg.train_negatives)
    ):
        draw_seed = derive_seed(cfg.seed, 1, draw_index)
        X_train, y_train = xy(pos_ids, neg_ids)
        model = _train_for_draw(cfg, X_train, y_train, X_val, y_val, draw_seed)
        preds = model.predict(X_test)
        metrics = f1(preds, y_test)
        draws.append(
            DrawOutcome(
                draw_index=draw_index,
                metrics=metrics,
                predictions=tuple(
                    (cid, int(p), int(t)) for cid, p, t in zip(test_ids, preds, y_test)
                ),
                model=model,
            )
        )

    scores = np.array([d.metrics.f1 for d in draws])
    f_data = len(test_pos) / len(test_ids)
    return EvalReport(
        mean_f1=float(scores.mean()),
        std_f1=float(scores.std()),
        per_draw_f1=tuple(float(s) for s in scores),
        baselines={
            "random": trivial_baseline_f1(f_data, 0.5),
            "all_positive": trivial_baseline_f1(f_data, 1.0),
        },
        config=cfg,
        draws=tuple(draws),
        test_positive_fraction=f_data,
    )


# --- leave-movies-out -------------------------------------------------------


@dataclass(frozen=True)
class MovieSplit:
    train: tuple[ClipLabel, ...]
    validation: tuple[ClipLabel, ...]
    test: tuple[ClipLabel, ...]


def leave_movies_out(
    labels_by_film: Mapping[str, Sequence[ClipLabel]],
    test_movie: str,
    val_movie: str,
) -> MovieSplit:
    """Split clips so train, validation, and test films never overlap."""
    if test_movie == val_movie:
        raise FilmOverlap(f"test and validation film are both {test_movie!r}")
    for film in (test_movie, val_movie):
        if film not in labels_by_film or not labels_by_film[film]:
            raise EmptyFilm(film)
    train: list[ClipLabel] = []
    for film, labels in labels_by_film.items():
        if film not in (test_movie, val_movie):
            train.extend(labels)
    if not train:
        raise EmptyFilm("<train>")
    test = tuple(labels_by_film[test_movie])
    if not any(lbl.level is ObjLevel.S for lbl in test):
        warnings.warn(
            f"test film {test_movie!r} has no S clips; F1 will be undefined",
            EmptyFilmWarning,
            stacklevel=2,
        )
    return MovieSplit(
        train=tuple(train),
        validation=tuple(labels_by_film[val_movie]),
        test=test,
    )


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
        raise LengthMismatch(
            f"{len(labels)} labels vs {preds.size} predictions vs {t.size} truths"
        )
    success = (preds == t).astype(np.int64)
    if success.all():
        raise DegenerateTarget("every prediction is correct; nothing to attribute")
    if not success.any():
        raise DegenerateTarget("every prediction is wrong; nothing to attribute")
    X = np.stack([clip_descriptor(lbl) for lbl in labels])
    model = train_logreg(X, success, l2=l2)
    weights = {name: float(w) for name, w in zip(FACTOR_NAMES, model.weights)}
    return FactorWeights(weights=weights, bias=model.bias)
