"""Self-contained training kernels and classification metrics.

Everything downstream stages train lives here: a linear SVM solved in
its dual to a certified duality gap, a logistic regression fitted by
damped Newton (Armijo backtracking) to a certified gradient norm, a
CART decision tree, a two-layer MLP trained by seeded mini-batch
gradient descent, binary F1, and the closed-form F1 of
data-independent baselines. A logistic fit that reaches its step cap
raises ``NumericError``. All trainers are pure functions of (inputs,
hyperparameters, seed); two runs produce bit-identical models.
Positive class is 1 everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, NumericError, PreconditionError

MODEL_FORMAT = "gazelab-model/1"
MLP_HIDDEN = 128
#: Relative duality gap at which an SVM problem counts as solved.
SVM_GAP_TOL = 1e-4
#: Step cap of an SVM problem; one still above the gap tolerance there
#: returns with its gap.
SVM_MAX_ITER = 10000
#: Steps between two duality-gap checks of the SVM solve.
SVM_GAP_EVERY = 10
#: Newton steps on the SVM projection's multiplier before the exact search.
SVM_NEWTON_STEPS = 3
#: Newton-step cap and gradient infinity-norm stop of logistic regression.
LOGREG_MAX_ITER = 50
LOGREG_TOL = 1e-6
#: Armijo sufficient-decrease fraction of a logistic Newton step, and the
#: halvings of the step it may take before the fit counts as stalled.
LOGREG_ARMIJO = 1e-4
LOGREG_HALVINGS = 50


# min/max, not np.unique: numpy 2.x imports numpy.ma on its first call, about 12 ms per process.
def _check_labels(y: np.ndarray) -> None:
    if y.min() < 0 or y.max() > 1:
        raise InvariantViolation(f"labels must be 0/1, got {np.unique(y).tolist()}")


def _check_binary_training_data(X: np.ndarray, y: np.ndarray) -> None:
    if not np.isfinite(X).all():
        raise InvariantViolation("training matrix contains non-finite entries")
    if y.size == 0 or y.min() == y.max():
        raise PreconditionError(f"need both classes, got only {np.unique(y).tolist()}")
    _check_labels(y)


class LinearKind(Enum):
    SVM = "svm"
    LOGISTIC = "logreg"


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    kind: LinearKind
    #: SVM only: the relative duality gap at return.
    gap: float | None = None

    def decision(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision(X) > 0).astype(np.int64)


def train_svm(X: np.ndarray, y: np.ndarray, c: float = 1.0) -> LinearModel:
    """L2-regularized hinge loss, regularization strength 1/(c*n).

    Solved in the dual to a relative duality gap of ``SVM_GAP_TOL``;
    deterministic. This is the one-problem stack of ``train_svm_stack``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return train_svm_stack(X[None], y[None], (c,))[0][0]


def train_svm_stack(X: np.ndarray, y: np.ndarray, cs: Sequence[float]) -> list[list[LinearModel]]:
    """Fit every (draw, C) problem of a stack by its dual, to a certified gap.

    ``X`` is ``(draws, n, dim)`` and ``y`` is ``(draws, n)``; entry
    ``[d][j]`` of the result is the SVM of draw ``d`` with margin
    tolerance ``cs[j]``: ``lam/2 |w|^2 + mean hinge`` with
    ``lam = 1/(cs[j] * n)`` and an unregularized bias. Each problem
    minimizes its dual ``a'Qa/2 - 1'a`` over ``0 <= a <= C``, ``s'a = 0``
    (``s`` the labels as +-1, ``Q = [s*X][s*X]'`` for the draw's rows
    centred on their mean) by accelerated projected gradient (FISTA) from
    ``a = 0``, with step ``1/|s*X|_2^2`` and momentum restarted whenever
    it points against the last step. Every ``SVM_GAP_EVERY`` steps it
    takes ``w = [s*X]'a``, the bias that minimizes the hinge sum, and the
    relative duality gap; a problem below ``SVM_GAP_TOL`` leaves the
    stack. A problem still above it after ``SVM_MAX_ITER`` steps returns
    as it is. Each model carries its ``gap``.

    A step runs one product pair ``(a @ s*X) @ [s*X]'`` per draw over
    the draw's unsolved problems, so a draw's results are bit-identical
    whatever draws share its stack, and a one-C stack is ``train_svm``
    draw by draw.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    for Xd, yd in zip(X, y):
        _check_binary_training_data(Xd, yd)
    draws, n, dim = X.shape
    cs = np.asarray(cs, dtype=np.float64)
    s = np.where(y == 1, 1.0, -1.0)
    # On s'a = 0, w = [s*X]'a is the same for rows shifted by their mean,
    # and the bias takes up the shift; centred rows give a smaller
    # spectral norm, so a longer step (2.5x on an overlapping 1,520-row
    # draw, which then solves in half the steps).
    mean = X.mean(axis=1)
    sX = s[..., None] * (X - mean[:, None, :])
    sXT = sX.transpose(0, 2, 1)
    lip = np.linalg.svd(sX, compute_uv=False)[:, 0] ** 2

    # Row p of every array below is an unsolved problem; rows stay
    # grouped by draw, so a draw's products run on one slice.
    draw = np.repeat(np.arange(draws), cs.size)
    col = np.tile(np.arange(cs.size), draws)
    S = s[draw]
    C = cs[col][:, None]
    step = 1.0 / np.where(lip > 0.0, lip, 1.0)[draw][:, None]
    npos = np.count_nonzero(y == 1, axis=1)[draw][:, None]
    a, a_prev = np.zeros((draw.size, n)), np.zeros((draw.size, n))
    qa, qa_prev = np.zeros((draw.size, n)), np.zeros((draw.size, n))  # Q @ a
    w = np.zeros((draw.size, dim))  # [s*X]' a
    t, beta, mu = np.ones(draw.size), np.zeros((draw.size, 1)), np.zeros(draw.size)
    fits: dict[tuple[int, int], LinearModel] = {}
    spans = _spans(draw)

    for k in range(1, SVM_MAX_ITER + 1):
        # Gradient step from the extrapolated point; Q is linear, so the
        # point's gradient comes from the last two products.
        ext = a + beta * (a - a_prev)
        grad = qa + beta * (qa - qa_prev) - 1.0
        a_new, mu = _project(ext - step * grad, S, C, mu)
        restart = np.einsum("ij,ij->i", ext - a_new, a_new - a) > 0.0
        a_prev, a, qa_prev, qa = a, a_new, qa, qa_prev
        for d, lo, hi in spans:
            np.matmul(a[lo:hi], sX[d], out=w[lo:hi])
            np.matmul(w[lo:hi], sXT[d], out=qa[lo:hi])
        t = np.where(restart, 1.0, t)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = ((t - 1.0) / t_next)[:, None]
        t = t_next
        if k % SVM_GAP_EVERY and k < SVM_MAX_ITER:
            continue

        # qa_i = s_i x_i.w, so the hinge of row i is max(0, 1 - qa_i - s_i b),
        # which breaks at b = s_i (1 - qa_i). The hinge sum's slope rises by
        # one at each breakpoint from minus the positives' count, so it is
        # flat between the npos-th and next breakpoint: take the midpoint.
        sq = np.einsum("ij,ij->i", a, qa)  # |w|^2
        breaks = np.sort(S * (1.0 - qa), axis=1)
        b = 0.5 * (
            np.take_along_axis(breaks, npos - 1, 1) + np.take_along_axis(breaks, npos, 1)
        )[:, 0]
        margins = qa + S * b[:, None]
        hinge = np.maximum(1.0 - margins, 0.0).sum(axis=1)
        least = margins.min(axis=1)
        dual = a.sum(axis=1) - 0.5 * sq
        gap, scale = _certify(C[:, 0], sq, hinge, least, dual)
        finished = (gap <= SVM_GAP_TOL) | (k == SVM_MAX_ITER)
        for p in np.flatnonzero(finished):
            bias = b[p] - mean[draw[p]] @ w[p]  # for the uncentred rows
            fits[draw[p], col[p]] = LinearModel(
                w[p] * scale[p], float(bias * scale[p]), LinearKind.SVM, gap=float(gap[p])
            )
        if finished.all():
            break
        keep = ~finished
        draw, col, S, C, step, npos = draw[keep], col[keep], S[keep], C[keep], step[keep], npos[keep]
        a, a_prev, qa, qa_prev, w = a[keep], a_prev[keep], qa[keep], qa_prev[keep], w[keep]
        t, beta, mu = t[keep], beta[keep], mu[keep]
        spans = _spans(draw)
    return [[fits[d, j] for j in range(cs.size)] for d in range(draws)]


def _certify(
    c: np.ndarray, sq: np.ndarray, hinge: np.ndarray, least: np.ndarray, dual: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Relative duality gap of a problem's better primal point, and its scale.

    ``(w, b)`` scores ``|w|^2/2 + c * hinge``; when its least margin is
    positive, ``(w, b) / least`` has no hinge and scores
    ``|w|^2 / (2 least^2)``, which wins near the hard margin at large c.
    The gap is measured against the dual value ``1'a - |w|^2/2``.
    """
    soft = 0.5 * sq + c * hinge
    hard = np.divide(0.5 * sq, least * least, out=np.full_like(soft, np.inf), where=least > 0.0)
    primal = np.minimum(soft, hard)
    scale = np.where(hard < soft, 1.0 / np.where(least > 0.0, least, 1.0), 1.0)
    return (primal - dual) / primal, scale


def _spans(draw: np.ndarray) -> list[tuple[int, int, int]]:
    """``(draw, first row, end row)`` of each draw in a draw-grouped array."""
    cuts = np.flatnonzero(np.diff(draw)) + 1
    starts, ends = [0, *cuts.tolist()], [*cuts.tolist(), draw.size]
    return [(int(draw[lo]), lo, hi) for lo, hi in zip(starts, ends)]


def _project(
    v: np.ndarray, S: np.ndarray, C: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``v`` projected onto ``{0 <= a <= C, s'a = 0}``, and their multipliers.

    The projection is ``clip(v - mu*s, 0, C)`` for the ``mu`` at which
    ``phi(mu) = s'clip(v - mu*s, 0, C)`` is 0; ``phi`` is piecewise
    linear and falls with slope minus the count of unclipped entries.
    Newton steps from the previous ``mu`` settle most rows in one step;
    the rest take the exact breakpoint search.
    """
    for newton in range(SVM_NEWTON_STEPS + 1):
        u = v - mu[:, None] * S
        a = np.minimum(np.maximum(u, 0.0), C)
        phi = np.einsum("ij,ij->i", S, a)
        loose = np.abs(phi) > 1e-12 * a.sum(axis=1)  # above the sum's rounding
        if not loose.any():
            return a, mu
        if newton == SVM_NEWTON_STEPS:
            break
        free = np.count_nonzero((u > 0.0) & (u < C), axis=1)
        mu = mu + np.divide(phi, free, out=np.zeros_like(phi), where=loose & (free > 0))
    rows = np.flatnonzero(loose)
    mu[rows] = _exact_multiplier(v[rows], S[rows], C[rows])
    a[rows] = np.clip(v[rows] - mu[rows, None] * S[rows], 0.0, C[rows])
    return a, mu


def _exact_multiplier(v: np.ndarray, S: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The root of ``phi`` in ``_project``, row by row (Kiwiel, JOTA 2008).

    ``phi`` is linear between its sorted breakpoints ``s*v`` and
    ``s*(v - C)``, and falls from ``C`` times the positives' count at the
    first to minus ``C`` times the negatives' at the last. Bisection over
    the sorted breakpoints finds the two around the root, and the root
    is interpolated between them.
    """
    breaks = np.sort(np.concatenate([S * v, S * (v - C)], axis=1), axis=1)

    def phi(idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mu = np.take_along_axis(breaks, idx[:, None], 1)
        return mu[:, 0], np.einsum("ij,ij->i", S, np.clip(v - mu * S, 0.0, C))

    lo = np.zeros(len(v), dtype=np.int64)  # phi(breaks[lo]) > 0 >= phi(breaks[hi])
    hi = np.full(len(v), breaks.shape[1] - 1)
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        above = phi(mid)[1] > 0.0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    (mu_lo, phi_lo), (mu_hi, phi_hi) = phi(lo), phi(hi)
    return mu_lo + phi_lo * (mu_hi - mu_lo) / (phi_lo - phi_hi)


def train_logreg(X: np.ndarray, y: np.ndarray, l2: float) -> LinearModel:
    """L2-penalized logistic regression by damped Newton on (weights, bias).

    Minimizes ``mean(log(1 + exp(-s * (X w + b)))) + l2 / 2 * |w|^2``
    with the bias unpenalized, from a zero start. ``l2`` must be finite
    and above 0: with ``w`` penalized and both classes present the
    objective is strictly convex and coercive, so it has one finite
    minimum whatever the data. Each step solves ``H d = -g`` for ``d``,
    with ``H = A' diag(p (1 - p)) A / n + diag(l2, ..., l2, 0)`` and
    ``A = [X 1]``, then halves it until the objective falls by the Armijo
    fraction ``LOGREG_ARMIJO`` of ``g' d``. The fit stops at
    ``|g|_inf < LOGREG_TOL``.

    ``NumericError`` is raised when that takes more than
    ``LOGREG_MAX_ITER`` steps or a step finds no decrease.
    """
    if not (math.isfinite(l2) and l2 > 0):
        raise InvariantViolation(f"L2 penalty must be finite and > 0, got {l2}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_binary_training_data(X, y)
    n, dim = X.shape
    sA = np.where(y == 1, 1.0, -1.0)[:, None] * np.hstack([X, np.ones((n, 1))])
    penalty = np.append(np.full(dim, l2), 0.0)

    def objective(theta: np.ndarray, z: np.ndarray) -> float:
        return float(np.logaddexp(0.0, -z).mean() + 0.5 * penalty @ (theta * theta))

    theta = np.zeros(dim + 1)
    z = np.zeros(n)  # the margins s * (X w + b)
    f = objective(theta, z)
    for step in range(LOGREG_MAX_ITER + 1):
        p = np.exp(-np.logaddexp(0.0, z))  # sigmoid(-z), stable on both tails
        g = penalty * theta - (sA.T @ p) / n
        gmax = np.abs(g).max()
        if gmax < LOGREG_TOL:
            break
        if step == LOGREG_MAX_ITER:
            raise NumericError(
                f"logistic regression stopped at its cap of {step} Newton steps "
                f"with |gradient| {gmax:.3g} > {LOGREG_TOL:g}"
            )
        hessian = (sA.T * (p * (1.0 - p))) @ sA / n + np.diag(penalty)
        # lstsq, not solve: the two differ in the last bits of the fit.
        d = np.linalg.lstsq(hessian, -g, rcond=None)[0]
        for t in 0.5 ** np.arange(LOGREG_HALVINGS):
            trial = theta + t * d
            z_trial = sA @ trial
            f_trial = objective(trial, z_trial)
            if f_trial <= f + LOGREG_ARMIJO * t * (g @ d):
                theta, z, f = trial, z_trial, f_trial
                break
        else:
            raise NumericError(
                f"logistic regression stalled after {step} Newton steps: no step "
                f"lowers the objective (|gradient| {gmax:.3g} > {LOGREG_TOL:g})"
            )
    return LinearModel(weights=theta[:dim], bias=float(theta[dim]), kind=LinearKind.LOGISTIC)


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
        raise InvariantViolation("training matrix contains non-finite entries")
    if y.size < 2:
        raise PreconditionError(f"need at least 2 samples, got {y.size}")
    _check_labels(y)

    def build(rows: np.ndarray, depth: int) -> TreeNode:
        labels = y[rows]
        node = TreeNode(class_counts=np.bincount(labels, minlength=2), depth=depth)
        if depth >= max_depth or labels.min() == labels.max():
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
    """Hidden activations and class probabilities of hidden pre-activations
    ``z1``. A row's max and sum are taken over its two class columns as
    views, which gives the bits of ``max`` and ``sum`` along the row in
    fewer numpy calls."""
    hidden = np.maximum(z1, 0.0)
    probs = hidden @ w2
    probs += b2
    first, second = probs[:, 0], probs[:, 1]
    probs -= np.maximum(first, second)[:, None]
    np.exp(probs, out=probs)
    probs /= (first + second)[:, None]
    return hidden, probs


def _head_gradient(
    z1: np.ndarray, onehot: np.ndarray, w2: np.ndarray, b2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (fresh arrays) of a batch's mean cross-entropy with respect
    to ``z1``, ``w2`` and ``b2``, given the batch's labels one-hot, then
    its class probabilities, from which ``_label_losses`` takes the loss."""
    hidden, probs = _softmax_head(z1, w2, b2)
    dlogits = probs - onehot
    dlogits /= len(onehot)
    dw2 = hidden.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dz1 = dlogits @ w2.T
    dz1 *= z1 > 0.0
    return dz1, dw2, db2, probs


def _label_losses(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row's cross-entropy: minus the log of its label's probability."""
    return -np.log(np.maximum(probs[np.arange(len(y)), y], 1e-300))


def _summed_batch_losses(losses: np.ndarray, batch: int) -> float:
    """The mean of each run of ``batch`` losses times its length, added
    run by run: the total that per-batch means give, in two numpy calls."""
    full = len(losses) - len(losses) % batch
    means = losses[:full].reshape(-1, batch).mean(axis=1).tolist()
    total = 0.0
    for mean in means:
        total += mean * batch
    if full < len(losses):
        total += float(losses[full:].mean()) * (len(losses) - full)
    return total


def mlp_gradient(
    model: MlpModel, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Backpropagation gradients (fresh arrays) of a batch's mean cross-entropy, then that loss."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] != y.shape[0]:
        raise PreconditionError(f"{X.shape[0]} samples vs {y.shape[0]} labels")
    z1 = X @ model.w1 + model.b1
    dz1, dw2, db2, probs = _head_gradient(z1, np.eye(2)[y], model.w2, model.b2)
    return X.T @ dz1, dz1.sum(axis=0), dw2, db2, float(_label_losses(probs, y).mean())


@dataclass
class MlpTrainResult:
    """The kept model, the 1-based epoch it was kept after (0 for the
    initialization) and, per epoch, the batch-size-weighted mean of the
    mini-batch losses, each taken just before that batch's update."""
    model: MlpModel
    kept_epoch: int = 0
    epoch_losses: list[float] = field(default_factory=list)


def check_mlp_settings(epochs: int, batch: int, lr: float) -> None:
    """Raise ``InvariantViolation`` unless ``train_mlp`` can run these."""
    if epochs < 0:
        raise InvariantViolation(f"MLP epochs must be at least 0, got {epochs}")
    if batch < 1:
        raise InvariantViolation(f"MLP batch must be at least 1, got {batch}")
    if not (math.isfinite(lr) and lr > 0):
        raise InvariantViolation(f"MLP learning rate must be finite and > 0, got {lr}")


@np.errstate(over="ignore", invalid="ignore")  # divergence raises NumericError alone
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
    epochs returns the initialization. Every epoch runs, whatever its
    F1, so a draw's cost does not depend on its data. ``NumericError`` is
    raised after the first epoch with a non-finite mini-batch loss or
    validation probability (the latter catches the run's last update).

    Every step adds ``X[idx].T @ dz1`` to ``w1``, so ``w1`` stays
    ``w1_0 + X.T @ a`` for row coefficients ``a``. A step in ``a`` costs
    ``batch * n * 128`` multiply-adds against ``2 * batch * dim * 128`` in
    ``w1``, so a draw of fewer than ``2 * dim`` rows trains ``a`` through
    the Gram matrix and builds ``w1`` once, from the kept ``a``. Its model
    equals the ``w1`` form's up to rounding; other draws train ``w1``.
    The row form keeps each batch's class probabilities and takes the
    epoch's loss from them in one pass after its last step; the bits are
    those of a loss taken per batch.
    """
    check_mlp_settings(epochs, batch, lr)
    X = np.asarray(X, dtype=np.float64)
    X_val = np.asarray(X_val, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    _check_binary_training_data(X, y)
    y_val = np.asarray(y_val, dtype=np.int64)
    if y_val.size:
        _check_labels(y_val)
    n, dim = X.shape
    rng = np.random.default_rng(seed)
    model = init_mlp(dim, seed)
    result = MlpTrainResult(model=model)
    by_rows = n < 2 * dim
    if by_rows:  # model.w1 then keeps its initial value
        gram, base = X @ X.T, X @ model.w1
        gram_val, base_val = X_val @ X.T, X_val @ model.w1
        onehot = np.eye(2)[y]
        epoch_probs = np.empty((n, 2))
        a = np.zeros((n, MLP_HIDDEN))
        stepped = (model.b1, model.w2, model.b2)  # a is stepped row by row
        params = (a, *stepped)
    else:
        stepped = params = (model.w1, model.b1, model.w2, model.b2)
    positive = y_val == 1
    n_positive = int(np.count_nonzero(positive))
    kept = None
    best_f1 = -1.0
    for epoch in range(epochs):
        perm = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            if by_rows:
                z1 = gram[idx] @ a
                z1 += base[idx]
                z1 += model.b1
                dz1, dw2, db2, probs = _head_gradient(z1, onehot[idx], model.w2, model.b2)
                epoch_probs[start : start + batch] = probs
                grads = (dz1.sum(axis=0), dw2, db2)
                dz1 *= lr  # in place, now that b1's gradient is summed
                # The rows of a batch are distinct, being a slice of a
                # permutation, so this fancy-index update is exact.
                a[idx] -= dz1
            else:
                *grads, loss = mlp_gradient(model, X[idx], y[idx])
                total += loss * len(idx)
            for param, grad in zip(stepped, grads):
                np.multiply(grad, lr, out=grad)
                np.subtract(param, grad, out=param)
        if by_rows:
            total = _summed_batch_losses(_label_losses(epoch_probs, y[perm]), batch)
            z1 = gram_val @ a
            z1 += base_val
            z1 += model.b1
            probs = _softmax_head(z1, model.w2, model.b2)[1]
        else:
            probs = model.probabilities(X_val)
        if not (np.isfinite(total) and np.isfinite(probs).all()):
            raise NumericError(f"training diverged in epoch {epoch + 1}; lower the learning rate")
        result.epoch_losses.append(total / n)
        predicted = probs[:, 1] > 0.5
        tp = int(np.count_nonzero(predicted[positive]))
        score = _precision_recall_f1(tp, int(np.count_nonzero(predicted)) - tp, n_positive - tp)[2]
        if score > best_f1 + 1e-12:
            best_f1 = score
            kept = [p.copy() for p in params]
            result.kept_epoch = epoch + 1
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
        raise PreconditionError(f"{p.shape[0]} predictions vs {t.shape[0]} labels")
    tp = int(((p == 1) & (t == 1)).sum())
    fp = int(((p == 1) & (t == 0)).sum())
    fn = int(((p == 0) & (t == 1)).sum())
    tn = int(((p == 0) & (t == 0)).sum())
    if tp + fp + fn + tn != p.size:
        raise InvariantViolation(
            f"predictions and labels must be 0/1, got {np.unique([p, t]).tolist()}"
        )
    return Metrics(*_precision_recall_f1(tp, fp, fn), tp, fp, fn, tn)


def _precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 of positive-class counts."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    score = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, score


def trivial_baseline_f1(f_data: float, f_classifier: float) -> float:
    """F1 of a label-independent classifier.

    ``f_data`` is the positive fraction of the test set (the precision
    of any data-independent predictor), ``f_classifier`` the fraction
    it predicts positive (its recall).
    """
    if not (0.0 <= f_data <= 1.0 and 0.0 <= f_classifier <= 1.0):
        raise PreconditionError(f"fractions must be in [0, 1], got {(f_data, f_classifier)}")
    if f_data == 0.0 and f_classifier == 0.0:
        raise PreconditionError("both fractions are zero; F1 is undefined")
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
