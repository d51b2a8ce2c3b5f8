"""Self-contained training kernels and classification metrics.

Everything downstream stages train lives here: a linear SVM and a
logistic regression fitted by deterministic full-batch (sub)gradient
descent, a CART decision tree, a two-layer MLP trained by seeded
mini-batch gradient descent, binary F1, and the closed-form F1 of
data-independent baselines. All trainers are pure functions of
(inputs, hyperparameters, seed); two runs produce bit-identical
models. Positive class is 1 everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import (
    BothZero,
    InvariantViolation,
    LengthMismatch,
    NonFiniteInput,
    NonFiniteLoss,
    PreconditionError,
    SingleClass,
)

MODEL_FORMAT = "gazelab-model/1"
MLP_HIDDEN = 128
#: Step budget of every SVM problem, over its five stages.
SVM_MAX_ITER = 2500
#: Iteration cap and gradient infinity-norm stop of logistic regression.
LOGREG_MAX_ITER = 10000
LOGREG_TOL = 1e-6


def _check_binary_training_data(X: np.ndarray, y: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise NonFiniteInput("training matrix contains non-finite entries")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClass(f"need both classes, got only {classes.tolist()}")
    if not np.isin(classes, (0, 1)).all():
        raise InvariantViolation(f"labels must be 0/1, got {classes.tolist()}")


class LinearKind(Enum):
    SVM = "svm"
    LOGISTIC = "logreg"


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    kind: LinearKind

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision(X) > 0).astype(np.int64)


def train_svm(X: np.ndarray, y: np.ndarray, c: float = 1.0) -> LinearModel:
    """L2-regularized hinge loss, regularization strength 1/(c*n).

    Full-batch subgradient descent with a staged step-size decay and
    best-objective tracking; deterministic from a zero start. This is
    the one-problem stack of ``train_svm_stack``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return train_svm_stack(X[None], y[None], (c,))[0][0]


def train_svm_stack(X: np.ndarray, y: np.ndarray, cs: Sequence[float]) -> list[list[LinearModel]]:
    """Fit every (draw, C) problem of a stack in one lockstep descent.

    ``X`` is ``(draws, n, dim)`` and ``y`` is ``(draws, n)``; entry
    ``[d][j]`` of the result is the SVM of draw ``d`` with margin
    tolerance ``cs[j]``. Each product runs one gemm per draw over the C
    problems, so a draw's results are bit-identical whatever draws share
    its stack, while a problem may differ from ``train_svm(X[d], y[d],
    cs[j])`` in the last bits (about 1e-15) unless ``cs`` has one value.

    Every problem runs five stages of at most ``SVM_MAX_ITER // 5`` steps,
    each restarting from the problem's best objective with a step five
    times smaller. A problem stops for the rest of its stage after 101
    steps without improving its best objective by a relative 1e-12; it
    keeps stepping while others go on, but its best no longer changes,
    and the stage ends when every problem has stopped.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    for Xd, yd in zip(X, y):
        _check_binary_training_data(Xd, yd)
    draws, n, dim = X.shape
    shape = (draws, len(cs))
    nf = float(n)
    s = np.where(y == 1, 1.0, -1.0)
    # Row i of [s*X, s] is sample i with its label folded in, so one gemm
    # per draw gives every C problem's margins s*(X @ w + b), and another
    # sums their violators into the subgradient, with the bias's in the
    # last column.
    sX = np.concatenate([s[..., None] * X, s[..., None]], axis=2)
    sXT = sX.transpose(0, 2, 1)
    lam = 1.0 / (np.asarray(cs, dtype=np.float64) * n)
    lam_wb = np.zeros((len(cs), dim + 1))  # the bias is not regularized
    lam_wb[:, :dim] = lam[:, None]
    half_lam = 0.5 * lam
    eta0 = 1.0 / (1.0 + (X * X).sum(axis=2).mean(axis=1))

    # wb holds the weights and, in its last column, the bias.
    wb = np.zeros((*shape, dim + 1))
    w_col, w_row = wb[..., :dim, None], wb[..., None, :dim]
    hinge = np.empty((*shape, n))
    viol = np.empty((*shape, n))  # 1.0 where the margin is below 1
    grad = np.empty((*shape, dim + 1))
    step = np.empty((*shape, dim + 1))
    sq_norm = np.empty((*shape, 1, 1))
    loss, obj = np.empty(shape), np.empty(shape)
    sq_norm_v = sq_norm[..., 0, 0]

    def objective() -> None:
        # hinge = max(0, 1 - [s*X, s] @ wb), whose positive entries are
        # exactly the margins below 1 that the next subgradient sums.
        np.matmul(wb, sXT, out=hinge)
        np.subtract(1.0, hinge, out=hinge)
        np.maximum(hinge, 0.0, out=hinge)
        np.sign(hinge, out=viol)
        np.add.reduce(hinge, axis=-1, out=loss)
        np.divide(loss, nf, out=loss)
        np.matmul(w_row, w_col, out=sq_norm)
        np.multiply(half_lam, sq_norm_v, out=obj)
        np.add(obj, loss, out=obj)

    def threshold() -> np.ndarray:
        """What the next objective must go below to improve on obj."""
        return obj - 1e-12 * (1.0 + np.abs(obj))

    objective()
    best_wb, bar = wb.copy(), threshold()
    improved = np.empty(shape, dtype=bool)
    improved_col = improved[..., None]
    stages = 5
    per_stage = SVM_MAX_ITER // stages
    for stage in range(stages):
        eta = (eta0 / (5.0**stage))[:, None, None]
        if stage:
            np.copyto(wb, best_wb)
            objective()
        # A problem takes part in step i of the stage while i < until.
        until = np.full(shape, 101)
        first_stop = stop_at = 101
        for i in range(per_stage):
            # wb -= eta * (lam * wb - viol @ [s*X, s] / n)
            np.matmul(viol, sX, out=grad)
            np.multiply(lam_wb, wb, out=step)
            np.divide(grad, nf, out=grad)
            np.subtract(step, grad, out=step)
            np.multiply(step, eta, out=step)
            np.subtract(wb, step, out=wb)
            objective()
            np.less(obj, bar, out=improved)
            if i >= first_stop:  # some problem may have stopped: mask it
                first_stop = int(until.min())
                improved &= i < until
            if np.count_nonzero(improved):
                np.copyto(best_wb, wb, where=improved_col)
                np.copyto(bar, threshold(), where=improved)
                np.copyto(until, i + 102, where=improved)
                stop_at = i + 102
            if i + 1 >= stop_at:
                break
    return [
        [
            LinearModel(weights=p[:dim].copy(), bias=float(p[dim]), kind=LinearKind.SVM)
            for p in row
        ]
        for row in best_wb
    ]


def train_logreg(X: np.ndarray, y: np.ndarray, l2: float = 0.0) -> LinearModel:
    """L2-penalized logistic regression by plain gradient descent.

    The bias is unpenalized. Stops when the gradient infinity norm
    drops below ``LOGREG_TOL`` or after ``LOGREG_MAX_ITER`` steps.
    Deterministic from a zero start.
    """
    if not (math.isfinite(l2) and l2 >= 0):
        raise InvariantViolation(f"L2 penalty must be finite and >= 0, got {l2}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_binary_training_data(X, y)
    n, dim = X.shape
    s = np.where(y == 1, 1.0, -1.0)

    # Hessian spectral norm of the (weights, bias) system is bounded by
    # 0.25 * (||X||_F^2 + n) / n + l2; the +n term covers the bias column.
    lipschitz = 0.25 * (float((X * X).sum()) + n) / n + l2 + 1e-12
    step = 1.0 / lipschitz

    w = np.zeros(dim)
    b = 0.0
    for _ in range(LOGREG_MAX_ITER):
        z = s * (X @ w + b)
        # sigmoid(-z), stable on both tails
        sig = np.exp(-np.logaddexp(0.0, z))
        gw = -(X.T @ (s * sig)) / n + l2 * w
        gb = -(s * sig).mean()
        if max(np.abs(gw).max(), abs(gb)) < LOGREG_TOL:
            break
        w -= step * gw
        b -= step * gb
    return LinearModel(weights=w, bias=float(b), kind=LinearKind.LOGISTIC)


# --- CART ----------------------------------------------------------------


@dataclass
class TreeNode:
    class_counts: np.ndarray  # (2,) training samples per class at this node
    depth: int
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def majority(self) -> int:
        # Ties resolve to the lower class index.
        return int(np.argmax(self.class_counts))


@dataclass
class DecisionTree:
    root: TreeNode
    max_depth: int
    n_features: int

    def leaf(self, x: np.ndarray) -> TreeNode:
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return np.array([self.leaf(x).majority for x in X], dtype=np.int64)

    def depth(self) -> int:
        def walk(node: TreeNode) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)


def _best_split(X: np.ndarray, y: np.ndarray) -> tuple[int, float, float] | None:
    """Lowest weighted child Gini over every (feature, threshold).

    Candidate thresholds are midpoints between consecutive distinct
    values. Ties resolve to the lowest feature index, then the lowest
    threshold, by scanning in that order and requiring a strict
    improvement to switch.
    """
    n = y.size
    best: tuple[int, float, float] | None = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        vals = X[order, j]
        labels = y[order]
        distinct = np.flatnonzero(vals[:-1] != vals[1:])
        if distinct.size == 0:
            continue
        ones = np.cumsum(labels)
        left_n = distinct + 1
        right_n = n - left_n
        left_ones = ones[distinct]
        right_ones = ones[-1] - left_ones
        g_left = 1.0 - (left_ones / left_n) ** 2 - ((left_n - left_ones) / left_n) ** 2
        g_right = (
            1.0 - (right_ones / right_n) ** 2 - ((right_n - right_ones) / right_n) ** 2
        )
        weighted = (left_n * g_left + right_n * g_right) / n
        score = float(weighted.min())
        # Exact-math ties can differ by an ulp between candidates, so pick
        # the first candidate within tolerance of the minimum (lowest
        # threshold) and only switch features on a clear improvement.
        pos = int(np.flatnonzero(weighted <= score + 1e-12)[0])
        if best is None or score < best[2] - 1e-12:
            thr = float((vals[distinct[pos]] + vals[distinct[pos] + 1]) / 2.0)
            best = (j, thr, score)
    return best


def train_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int = 10,
) -> DecisionTree:
    """CART with Gini impurity and an exhaustive per-feature split scan.

    Impure nodes split as long as the depth limit allows, even when the
    best split does not reduce impurity immediately (a later level
    may); single-class data degenerates to one leaf. Every candidate
    split leaves at least one sample on each side.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not np.isfinite(X).all():
        raise NonFiniteInput("training matrix contains non-finite entries")
    if y.size < 2:
        raise PreconditionError(f"need at least 2 samples, got {y.size}")

    def counts_of(labels: np.ndarray) -> np.ndarray:
        return np.bincount(labels, minlength=2)[:2]

    def build(rows: np.ndarray, depth: int) -> TreeNode:
        labels = y[rows]
        node = TreeNode(class_counts=counts_of(labels), depth=depth)
        if depth >= max_depth or np.unique(labels).size < 2:
            return node
        found = _best_split(X[rows], labels)
        if found is None:
            return node
        j, thr, _ = found
        mask = X[rows, j] <= thr
        node.feature = j
        node.threshold = thr
        node.left = build(rows[mask], depth + 1)
        node.right = build(rows[~mask], depth + 1)
        return node

    root = build(np.arange(y.size), 0)
    return DecisionTree(root=root, max_depth=max_depth, n_features=X.shape[1])


# --- MLP -----------------------------------------------------------------


@dataclass
class MlpModel:
    """Two dense layers: ReLU hidden layer of 128 units, softmax pair out."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def copy(self) -> "MlpModel":
        return MlpModel(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        z1 = np.asarray(X, dtype=np.float64) @ self.w1 + self.b1
        return _softmax_head(z1, self.w2, self.b2)[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.probabilities(X)[:, 1] > 0.5).astype(np.int64)


def init_mlp(dim: int, seed: int) -> MlpModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    rng = np.random.default_rng(seed)
    bound1 = 1.0 / np.sqrt(dim)
    bound2 = 1.0 / np.sqrt(MLP_HIDDEN)
    return MlpModel(
        w1=rng.uniform(-bound1, bound1, size=(dim, MLP_HIDDEN)),
        b1=rng.uniform(-bound1, bound1, size=MLP_HIDDEN),
        w2=rng.uniform(-bound2, bound2, size=(MLP_HIDDEN, 2)),
        b2=rng.uniform(-bound2, bound2, size=2),
    )


def _softmax_head(
    z1: np.ndarray, w2: np.ndarray, b2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and class probabilities of hidden pre-activations ``z1``."""
    hidden = np.maximum(z1, 0.0)
    logits = hidden @ w2 + b2
    logits = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return hidden, e / e.sum(axis=1, keepdims=True)


def _head_gradient(
    z1: np.ndarray, y: np.ndarray, w2: np.ndarray, b2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Gradients (fresh arrays) of a batch's mean cross-entropy with respect
    to ``z1``, ``w2`` and ``b2``, then that loss."""
    n = z1.shape[0]
    hidden, probs = _softmax_head(z1, w2, b2)
    loss = float(-np.log(np.maximum(probs[np.arange(n), y], 1e-300)).mean())
    dlogits = probs
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    dw2 = hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ w2.T
    dz1 = dhidden * (z1 > 0.0)
    return dz1, dw2, db2, loss


def mlp_gradient(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Backpropagation gradients (fresh arrays) of a batch's mean cross-entropy, then that loss."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] != y.shape[0]:
        raise LengthMismatch(f"{X.shape[0]} samples vs {y.shape[0]} labels")
    dz1, dw2, db2, loss = _head_gradient(X @ model.w1 + model.b1, y, model.w2, model.b2)
    return X.T @ dz1, dz1.sum(axis=0), dw2, db2, loss


@dataclass
class MlpTrainResult:
    """The kept model and, per epoch, the batch-size-weighted mean of the
    mini-batch losses, each taken just before that batch's update."""
    model: MlpModel
    epoch_losses: list[float] = field(default_factory=list)


def check_mlp_settings(epochs: int, batch: int, lr: float) -> None:
    """Raise ``InvariantViolation`` unless ``train_mlp`` can run these."""
    if epochs < 0:
        raise InvariantViolation(f"MLP epochs must be at least 0, got {epochs}")
    if batch < 1:
        raise InvariantViolation(f"MLP batch must be at least 1, got {batch}")
    if not (math.isfinite(lr) and lr > 0):
        raise InvariantViolation(f"MLP learning rate must be finite and > 0, got {lr}")


@np.errstate(over="ignore", invalid="ignore")  # divergence raises NonFiniteLoss alone
def train_mlp(
    X: np.ndarray,
    y: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    epochs: int = 100,
    lr: float = 1e-3,
    batch: int = 32,
    seed: int = 0,
) -> MlpTrainResult:
    """Mini-batch gradient descent on mean cross-entropy.

    Shuffling and initialization are driven by ``seed``; the result is
    bit-identical across runs. The returned model is the parameters
    after the first epoch with the best F1 on ``(X_val, y_val)``; zero
    epochs returns the initialization. ``NonFiniteLoss`` is raised after
    the first epoch with a non-finite mini-batch loss or validation
    probability (the latter catches the run's last update).

    Every step adds ``X[idx].T @ dz1`` to ``w1``, so ``w1`` stays
    ``w1_0 + X.T @ a`` for row coefficients ``a``. A step in ``a`` costs
    ``batch * n * 128`` multiply-adds against ``2 * batch * dim * 128`` in
    ``w1``, so a draw of fewer than ``2 * dim`` rows trains ``a`` through
    the Gram matrix and builds ``w1`` once, from the kept ``a``. Its model
    equals the ``w1`` form's up to rounding; other draws train ``w1``.
    """
    check_mlp_settings(epochs, batch, lr)
    X = np.asarray(X, dtype=np.float64)
    X_val = np.asarray(X_val, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_binary_training_data(X, y)
    n, dim = X.shape
    rng = np.random.default_rng(seed)
    model = init_mlp(dim, seed)
    result = MlpTrainResult(model=model)
    by_rows = n < 2 * dim
    if by_rows:  # model.w1 then keeps its initial value
        gram, base = X @ X.T, X @ model.w1
        gram_val, base_val = X_val @ X.T, X_val @ model.w1
        a = np.zeros((n, MLP_HIDDEN))
        stepped = (model.b1, model.w2, model.b2)  # a is stepped row by row
        params = (a, *stepped)
    else:
        stepped = params = (model.w1, model.b1, model.w2, model.b2)
    kept = None
    best_f1 = -1.0
    for epoch in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            if by_rows:
                z1 = base[idx] + gram[idx] @ a + model.b1
                dz1, dw2, db2, loss = _head_gradient(z1, y[idx], model.w2, model.b2)
                # The rows of a batch are distinct, being a slice of a
                # permutation, so this fancy-index update is exact.
                a[idx] -= lr * dz1
                grads = (dz1.sum(axis=0), dw2, db2)
            else:
                *grads, loss = mlp_gradient(model, X[idx], y[idx])
            total += loss * len(idx)
            for param, grad in zip(stepped, grads):
                np.multiply(grad, lr, out=grad)
                np.subtract(param, grad, out=param)
        if by_rows:
            probs = _softmax_head(base_val + gram_val @ a + model.b1, model.w2, model.b2)[1]
        else:
            probs = model.probabilities(X_val)
        if not (np.isfinite(total) and np.isfinite(probs).all()):
            raise NonFiniteLoss(f"training diverged in epoch {epoch + 1}; lower the learning rate")
        result.epoch_losses.append(total / n)
        score = f1((probs[:, 1] > 0.5).astype(np.int64), y_val).f1
        if score > best_f1 + 1e-12:
            best_f1 = score
            kept = [p.copy() for p in params]
    if kept is not None:
        if by_rows:
            kept[0] = model.w1 + X.T @ kept[0]
        result.model = MlpModel(*kept)
    return result


# --- metrics -------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def support_positive(self) -> int:
        return self.tp + self.fn

    @property
    def support_negative(self) -> int:
        return self.fp + self.tn


def f1(preds: Sequence[int], labels: Sequence[int]) -> Metrics:
    """Binary F1 on the positive class; 0 when precision+recall is 0."""
    p = np.asarray(preds, dtype=np.int64)
    t = np.asarray(labels, dtype=np.int64)
    if p.shape != t.shape:
        raise LengthMismatch(f"{p.shape[0]} predictions vs {t.shape[0]} labels")
    tp = int(((p == 1) & (t == 1)).sum())
    fp = int(((p == 1) & (t == 0)).sum())
    fn = int(((p == 0) & (t == 1)).sum())
    tn = int(((p == 0) & (t == 0)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Metrics(precision, recall, score, tp, fp, fn, tn)


def trivial_baseline_f1(f_data: float, f_classifier: float) -> float:
    """F1 of a label-independent classifier.

    ``f_data`` is the positive fraction of the test set (the precision
    of any data-independent predictor), ``f_classifier`` the fraction
    it predicts positive (its recall).
    """
    if not (0.0 <= f_data <= 1.0 and 0.0 <= f_classifier <= 1.0):
        raise BothZero(f"fractions must be in [0, 1], got {(f_data, f_classifier)}")
    if f_data == 0.0 and f_classifier == 0.0:
        raise BothZero("both fractions are zero; F1 is undefined")
    return 2.0 * f_data * f_classifier / (f_data + f_classifier)


# --- serialization -------------------------------------------------------


def _node_to_json(node: TreeNode) -> dict:
    doc = {
        "class_counts": [int(c) for c in node.class_counts],
        "depth": node.depth,
    }
    if not node.is_leaf:
        doc.update(
            feature=node.feature,
            threshold=node.threshold,
            left=_node_to_json(node.left),
            right=_node_to_json(node.right),
        )
    return doc


def model_to_json(model) -> dict:
    """Versioned JSON document for inspection and replay."""
    if isinstance(model, LinearModel):
        return {
            "format": MODEL_FORMAT,
            "kind": model.kind.value,
            "dim": int(model.weights.size),
            "weights": [float(v) for v in model.weights],
            "bias": model.bias,
        }
    if isinstance(model, DecisionTree):
        return {
            "format": MODEL_FORMAT,
            "kind": "tree",
            "max_depth": model.max_depth,
            "n_features": model.n_features,
            "root": _node_to_json(model.root),
        }
    if isinstance(model, MlpModel):
        return {
            "format": MODEL_FORMAT,
            "kind": "mlp",
            "dim": int(model.w1.shape[0]),
            "hidden": int(model.w1.shape[1]),
            "w1": model.w1.tolist(),
            "b1": model.b1.tolist(),
            "w2": model.w2.tolist(),
            "b2": model.b2.tolist(),
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")
