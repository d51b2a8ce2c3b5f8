"""Concept vectors and the interpretable bottleneck pipeline.

For every concept, a linear SVM separates embeddings of clips carrying
the concept from a negative pool, and the unit normal of its hyperplane
becomes the concept's axis. Projecting a clip embedding onto the eight
axes yields an 8-dimensional, human-readable coordinate vector; a
decision tree or logistic regression trained on those coordinates
detects objectification while staying inspectable concept by concept.

Two negative pools are supported when fitting a concept axis: EN clips
only, or EN plus the S/HN clips that lack the concept. The second pool
removes the shortcut of separating "anything suggestive" from "nothing
suggestive" and is the harder setting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .core import CONCEPTS, ClipLabel, Concept, EmbeddingTable, ObjLevel
from .errors import InvariantViolation, PreconditionError
from .harness import (
    FOLDS,
    EvalReport,
    ModelKind,
    TaskConfig,
    balanced_draws,
    derive_seed,
    make_folds_from_ids,
    run_task,
)
from .models import (
    MODEL_FORMAT,
    SVM_GAP_TOL,
    DecisionTree,
    LinearModel,
    Metrics,
    f1 as f1_score,
    train_svm_stack,
)

#: Margin tolerances that concept-axis cross-validation chooses from, ascending.
DEFAULT_C_GRID: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)


class NegativeMode(Enum):
    EN_ONLY = "en-only"
    EN_PLUS_WITHOUT = "en-plus-without"


class CavCvConfig:
    """Fixed fold layout for concept-axis fitting: the last of the ``k``
    (``harness.FOLDS``) folds is the held-out test fold, and validation
    rotates over the first ``rotations`` of the remaining folds."""

    k = FOLDS
    rotations = 8


@dataclass(frozen=True)
class ConceptVector:
    """Unit normal and offset of one concept's separating hyperplane.

    ``gap`` is the relative duality gap its SVM solve stopped at, None
    for an axis read from a file that does not record it. ``chosen_c``
    and ``c_mean_f1`` (each C of ``DEFAULT_C_GRID`` with its mean
    validation F1) record the cross-validated choice of the margin
    tolerance; both are None for a concept too rare to fold.
    """

    concept: Concept
    unit_normal: np.ndarray
    bias: float
    negative_mode: NegativeMode
    cv_f1: float
    gap: float | None
    chosen_c: float | None = None
    c_mean_f1: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflowing normal is reported below
            norm = float(np.linalg.norm(self.unit_normal))
        if not np.isfinite(norm) or abs(norm - 1.0) > 1e-9:
            raise InvariantViolation(f"normal must have unit norm, got {norm}")

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.unit_normal + self.bias

    def to_json(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "kind": "cav",
            "concept": self.concept.label,
            "unit_normal": [float(v) for v in self.unit_normal],
            "bias": self.bias,
            "negative_mode": self.negative_mode.value,
            "cv_f1": self.cv_f1,
            "gap": self.gap,
            "converged": None if self.gap is None else self.gap <= SVM_GAP_TOL,
            "chosen_c": self.chosen_c,
            "c_mean_f1": None if self.c_mean_f1 is None else [list(p) for p in self.c_mean_f1],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ConceptVector":
        if doc.get("format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format {doc.get('format')!r}")
        if doc.get("kind") != "cav":
            raise ValueError(f"not a concept-vector document: {doc.get('kind')!r}")
        normal = doc["unit_normal"]
        if not isinstance(normal, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in normal
        ):
            raise ValueError("unit_normal must be a flat list of numbers")
        # gap, chosen_c and c_mean_f1 are informational; files written
        # before they were recorded lack them.
        gap, curve, chosen = doc.get("gap"), doc.get("c_mean_f1"), doc.get("chosen_c")
        if curve is not None:
            curve = tuple((_finite(c, "C"), _finite(f, "F1")) for c, f in curve)
        return cls(
            concept=Concept.from_label(doc["concept"]),
            unit_normal=np.array(normal, dtype=np.float64),
            bias=_finite(doc["bias"], "bias"),
            negative_mode=NegativeMode(doc["negative_mode"]),
            cv_f1=_finite(doc["cv_f1"], "cv_f1"),
            gap=None if gap is None else _finite(gap, "gap"),
            chosen_c=None if chosen is None else _finite(chosen, "chosen_c"),
            c_mean_f1=curve,
        )


def _finite(value: object, name: str) -> float:
    """``value`` if it is a finite JSON number (not true or false), as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{name} must be a finite number")


def build_concept_sets(
    labels: Sequence[ClipLabel],
    concept: Concept,
    mode: NegativeMode = NegativeMode.EN_ONLY,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Positive and negative clip ids for one concept.

    Positives are S/HN clips carrying the concept. Negatives are the EN
    clips, plus (in the harder mode) the S/HN clips without it. The
    label set must not contain NS clips.
    """
    pos: list[str] = []
    neg: list[str] = []
    for lbl in labels:
        if lbl.level is ObjLevel.NS:
            raise PreconditionError("NS clips must be dropped before concept fitting")
        if lbl.level is ObjLevel.EN:
            neg.append(lbl.clip_id)
        elif concept in lbl.concepts:
            pos.append(lbl.clip_id)
        elif mode is NegativeMode.EN_PLUS_WITHOUT:
            neg.append(lbl.clip_id)
    if not pos:
        raise PreconditionError(f"no positive samples for concept {concept.label!r}")
    if not neg:
        raise PreconditionError(f"no negative samples for concept {concept.label!r}")
    return tuple(pos), tuple(neg)


def fit_cav(
    emb: EmbeddingTable,
    pos: Sequence[str],
    neg: Sequence[str],
    concept: Concept,
    mode: NegativeMode = NegativeMode.EN_ONLY,
    seed: int = 0,
) -> ConceptVector:
    """Select the margin tolerance by cross-validation and fit the axis.

    Both classes split into ``CavCvConfig.k`` folds; the last fold of
    each is held out as test. Validation rotates over the first
    ``CavCvConfig.rotations`` remaining folds, each rotation training on
    the other folds with balanced negative draws. The tolerance of
    ``DEFAULT_C_GRID`` with the best mean validation F1 (ties to the
    smaller value) is refit on all non-test data; the returned score is
    the test-fold F1 of that refit model.

    Classes too small to fold (fewer than ``CavCvConfig.k`` samples)
    skip the selection and fit once on everything with the grid's
    middle tolerance; the score is then the training F1.

    ``fit_all_cavs`` runs the same solve for all concepts, pooling their
    final fits.
    """
    return _fit_cavs(emb, [(concept, pos, neg, seed)], mode)[0]


def fit_all_cavs(
    emb: EmbeddingTable,
    labels: Sequence[ClipLabel],
    mode: NegativeMode = NegativeMode.EN_ONLY,
    seed: int = 0,
) -> list[ConceptVector]:
    """One concept vector per concept, in canonical order.

    Each is bit for bit the axis ``fit_cav`` fits for the concept's sets
    with seed ``derive_seed(seed, 4, concept)``, but the concepts' final
    fits share stacked solves.
    """
    axes = [
        (concept, *build_concept_sets(labels, concept, mode), derive_seed(seed, 4, int(concept)))
        for concept in CONCEPTS
    ]
    return _fit_cavs(emb, axes, mode)


def _labelled(
    emb: EmbeddingTable, pos: Sequence[str], neg: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings of ``pos`` then ``neg`` as float64 rows, labelled 1 and 0."""
    X = emb.matrix(list(pos) + list(neg)).astype(np.float64)
    return X, np.array([1] * len(pos) + [0] * len(neg), dtype=np.int64)


def _fit_cavs(
    emb: EmbeddingTable,
    axes: Sequence[tuple[Concept, Sequence[str], Sequence[str], int]],
    mode: NegativeMode,
) -> list[ConceptVector]:
    """``fit_cav`` of every ``(concept, positives, negatives, seed)`` axis.

    Each axis large enough to fold selects its tolerance on its own: all
    its (rotation, draw) sets on the whole C grid, those of one row count
    in one ``train_svm_stack`` call. Then the final fits of all axes,
    each at its one tolerance, share one call per row count and
    tolerance. A fit's bits do not depend on the stack it is in.
    """

    def solve(problems) -> list[list[LinearModel]]:
        """The SVMs of each ``(positives, negatives, tolerances)`` problem."""
        groups: dict[tuple[int, tuple[float, ...]], list[int]] = {}
        for i, (pos, neg, cs) in enumerate(problems):
            groups.setdefault((len(pos) + len(neg), cs), []).append(i)
        models: list[list[LinearModel]] = [[] for _ in problems]
        for (_, cs), group in groups.items():
            X, y = zip(*(_labelled(emb, *problems[i][:2]) for i in group))
            for i, row in zip(group, train_svm_stack(np.stack(X), np.stack(y), cs)):
                models[i] = row
        return models

    def split(plan, folds: Sequence[int]) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return plan.ids("pos", folds), plan.ids("neg", folds)

    # Every axis's clips need an embedding before the first stack is solved.
    for cid in (cid for _, pos, neg, _ in axes for cid in (*pos, *neg)):
        if cid not in emb:
            raise PreconditionError(f"no embedding for clip {cid!r}")
    # Per axis, its final problem, the ids its F1 is scored on (the test
    # folds, or the training data of an axis too small to fold) and its
    # chosen C with the per-C mean validation F1 (None if it cannot fold).
    finals, scored, choices = [], [], []
    for concept, pos, neg, seed in axes:
        if not pos or not neg:
            side = "positive" if not pos else "negative"
            raise PreconditionError(f"no {side} samples for concept {concept.label!r}")
        if len(pos) < CavCvConfig.k or len(neg) < CavCvConfig.k:
            finals.append((pos, neg, (DEFAULT_C_GRID[len(DEFAULT_C_GRID) // 2],)))
            scored.append((pos, neg))
            choices.append((None, None))
            continue
        plan = make_folds_from_ids({"pos": pos, "neg": neg}, seed=seed)
        # A stack steps every problem until its slowest stops, so the
        # grids of several axes are not pooled: pooling the eight folding
        # axes of a 1,900-clip, 64-d bundle took 37 s against 26 s (one
        # core, one BLAS thread).
        sets = []  # (rotation, pos, neg) in rotation → draw order
        for rotation in range(CavCvConfig.rotations):
            others = [fold for fold in range(plan.test_fold) if fold != rotation]
            rng = np.random.default_rng(derive_seed(seed, 3, rotation))
            sets += [(rotation, *draw) for draw in balanced_draws(*split(plan, others), rng)]
        validation = [_labelled(emb, *split(plan, [r])) for r in range(CavCvConfig.rotations)]
        scores = np.empty((len(DEFAULT_C_GRID), len(sets)))
        grid = solve([(*s[1:], DEFAULT_C_GRID) for s in sets])
        for i, ((rotation, *_), row) in enumerate(zip(sets, grid)):
            val_X, val_y = validation[rotation]
            scores[:, i] = [f1_score(model.predict(val_X), val_y).f1 for model in row]
        c_means = tuple((c, float(np.mean(row))) for c, row in zip(DEFAULT_C_GRID, scores))
        best_c = max(c_means, key=lambda item: item[1])[0]
        finals.append((*split(plan, range(plan.test_fold)), (best_c,)))
        scored.append(split(plan, [plan.test_fold]))
        choices.append((best_c, c_means))

    cavs = []
    for (concept, *_), (model,), ids, choice in zip(axes, solve(finals), scored, choices):
        norm = float(np.linalg.norm(model.weights))
        if norm == 0.0:
            raise InvariantViolation(
                f"degenerate separator for concept {concept.label!r} (zero normal)"
            )
        X, y = _labelled(emb, *ids)
        score = f1_score(model.predict(X), y).f1
        cavs.append(
            ConceptVector(
                concept, model.weights / norm, model.bias / norm, mode, score, model.gap, *choice
            )
        )
    return cavs


def score_table(emb: EmbeddingTable, cavs: Sequence[ConceptVector]) -> dict[str, np.ndarray]:
    """Concept coordinates of every clip in the table.

    Plain dot products with the eight unit normals, in canonical order;
    the hyperplane offsets are deliberately excluded (these are
    projection coordinates, not presence calls). Each clip is its own
    product, so its coordinates do not depend on the other rows.
    """
    if len(cavs) != len(CONCEPTS) or any(
        cav.concept is not concept for cav, concept in zip(cavs, CONCEPTS)
    ):
        raise InvariantViolation("need one concept vector per concept, in canonical order")
    for cav in cavs:
        if cav.unit_normal.size != emb.dim:
            raise InvariantViolation(
                f"concept axis {cav.concept.label!r} has {cav.unit_normal.size} components,"
                f" the embeddings have {emb.dim}"
            )
    basis = np.stack([cav.unit_normal for cav in cavs])
    return {cid: emb[cid].astype(np.float64) @ basis.T for cid in emb.clip_ids()}


def concept_presence_f1(
    cav: ConceptVector,
    emb: EmbeddingTable,
    test_pos: Sequence[str],
    test_neg: Sequence[str],
) -> Metrics:
    """Score presence detection on held-out clips.

    Presence is a positive signed distance to the hyperplane.
    """
    X, y = _labelled(emb, test_pos, test_neg)
    return f1_score((cav.decision(X) > 0).astype(np.int64), y)


@dataclass(frozen=True)
class PcbmResult:
    model: DecisionTree | LinearModel
    report: EvalReport


def train_pcbm(
    scores: Mapping[str, np.ndarray],
    labels: Sequence[ClipLabel],
    kind: ModelKind,
    train_negatives: ObjLevel = ObjLevel.EN,
    test_negatives: frozenset[ObjLevel] = frozenset({ObjLevel.EN}),
    seed: int = 0,
) -> PcbmResult:
    """Interpretable classifier on concept coordinates.

    Reuses the task harness (its ``FOLDS`` folds, balanced draws and
    trivial baselines) with the 8-dimensional coordinates as features;
    the tree is grown to ``TREE_MAX_DEPTH`` and the logistic head uses
    ``LOGREG_L2``. The returned model is the one fitted on the last
    balanced draw, the report aggregates all draws.

    ``scores`` may come from any concept axes, but the axes must not
    have seen the harness's test fold: axes fitted on the test clips
    shape the very coordinates the head is scored on, and its F1 then
    overstates what the concepts carry.
    """
    if kind not in (ModelKind.PCBM_DT, ModelKind.PCBM_LR):
        raise InvariantViolation(f"kind must be PCBM_DT or PCBM_LR, got {kind}")
    cfg = TaskConfig(train_negatives=train_negatives, model=kind, seed=seed)
    (report,) = run_task(cfg, labels, scores, [test_negatives])
    return PcbmResult(model=report.models[-1], report=report)


def export_tree_report(tree: DecisionTree) -> str:
    """Readable rendering of a tree over the eight concept coordinates.

    One line per branch; internal branches show the split condition and
    the node majority, leaf branches end with the predicted class.
    """
    names = [c.label for c in CONCEPTS]
    if tree.n_features != len(names):
        raise InvariantViolation(
            f"tree has {tree.n_features} features, expected the {len(names)} concept coordinates"
        )
    class_names = {0: "negative", 1: "positive"}

    lines: list[str] = []

    def describe(node) -> str:
        counts = node.class_counts
        return f"{class_names[node.majority]} ({int(counts[0])}/{int(counts[1])})"

    def walk(node, prefix: str) -> None:
        if node.is_leaf:
            return
        name = names[node.feature]
        for child, op in ((node.left, "<="), (node.right, ">")):
            head = f"{prefix}|--- {name} {op} {node.threshold:.4f}"
            if child.is_leaf:
                lines.append(f"{head}: {describe(child)}")
            else:
                lines.append(f"{head} [{describe(child)}]")
                walk(child, prefix + "|    ")

    if tree.root.is_leaf:
        lines.append(describe(tree.root))
    else:
        walk(tree.root, "")
    return "\n".join(lines) + "\n"
