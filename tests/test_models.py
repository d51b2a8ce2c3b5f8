"""Training kernels, metrics, and model serialization."""

import itertools
import re
import warnings

import numpy as np
import pytest

from gazelab import (
    f1,
    init_mlp,
    mlp_gradient,
    model_to_json,
    train_logreg,
    train_mlp,
    train_svm,
    train_svm_stack,
    train_tree,
    trivial_baseline_f1,
)
from gazelab import models
from gazelab.cbm import DEFAULT_C_GRID
from gazelab.harness import clip_descriptor
from gazelab.errors import InvariantViolation, NumericError, PreconditionError
from synthfix import (
    hard_margin_normal,
    make_error_fixture,
    margin_two_blobs,
    mlp_gradcheck_worst_error,
    model_from_json,
)


def blobs(seed, n_per=100, dim=4, center=3.0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(center, 1, (n_per, dim)), rng.normal(-center, 1, (n_per, dim))])
    y = np.array([1] * n_per + [0] * n_per)
    return X, y


def coefficient_draw(seed=4):
    """44 rows at 64 dimensions: fewer rows than twice the dimension, so
    ``train_mlp`` trains the first layer as row coefficients."""
    return blobs(seed, n_per=22, dim=64, center=0.1)


def replay_mlp(X, y, Xv, yv, epochs, lr, batch, seed):
    """Replay ``train_mlp``'s loop by hand, stepping ``w1`` through
    ``mlp_gradient``: per epoch, the parameters after it, its loss and
    its validation F1."""
    rng = np.random.default_rng(seed)
    model = init_mlp(X.shape[1], seed)
    after_epoch, losses, scores = [], [], []
    for _ in range(epochs):
        perm = rng.permutation(len(y))
        total = 0.0
        for start in range(0, len(y), batch):
            idx = perm[start : start + batch]
            *grads, loss = mlp_gradient(model, X[idx], y[idx])
            total += loss * len(idx)
            for param, grad in zip((model.w1, model.b1, model.w2, model.b2), grads):
                param -= lr * grad
        losses.append(total / len(y))
        after_epoch.append(model.copy())
        scores.append(f1(model.predict(Xv), yv).f1)
    return after_epoch, losses, scores


class TestSvm:
    def test_two_point_margin(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1, 0])
        for c in (1.0, 10.0, 100.0):
            m = train_svm(X, y, c=c)
            assert np.array_equal(m.predict(X), y)
            u = m.weights / np.linalg.norm(m.weights)
            angle = np.degrees(np.arccos(min(1.0, abs(u[0]))))
            assert angle < 5.0

    def test_xor_not_linearly_separable(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        y = np.array([1, 1, 0, 0])
        # Brute-force oracle over all linear separators: sweep a dense
        # grid of directions, and for each direction every threshold
        # between consecutive projections. In 2D the achievable
        # labelings change only at finitely many critical angles, so
        # the grid covers every case.
        best = 0
        for angle in np.linspace(0, np.pi, 720, endpoint=False):
            w = np.array([np.cos(angle), np.sin(angle)])
            proj = X @ w
            cuts = np.concatenate([[proj.min() - 1], np.sort(proj), [proj.max() + 1]])
            for t in (cuts[:-1] + cuts[1:]) / 2:
                for sign in (1, -1):
                    preds = (sign * (proj - t) > 0).astype(int)
                    best = max(best, int((preds == y).sum()))
        assert best == 3  # 0.75 accuracy is the linear ceiling
        m = train_svm(X, y, c=1.0)
        assert (m.predict(X) == y).mean() <= 0.75

    def test_separable_blobs_generalize(self):
        X, y = blobs(0, n_per=100, dim=8)
        Xte, yte = blobs(1, n_per=100, dim=8)
        m = train_svm(X, y, c=1.0)
        assert f1(m.predict(Xte), yte).f1 >= 0.99

    def test_axis_recovery_on_margin_two_blobs(self):
        tol = models.SVM_GAP_TOL
        for seed in range(3):
            X, y = margin_two_blobs(seed)
            # At c = 1 no multiplier reaches c: the fit is the hard-margin
            # SVM, which the few points nearest the gap tilt off the axis
            # (6.05 degrees on seed 2). Within the gap tolerance of its
            # objective lam/2 |w*|^2, strong convexity puts the fit within
            # |w - w*|^2 <= tol / (1 - tol) |w*|^2 of it.
            m = train_svm(X, y, c=1.0)
            x = hard_margin_normal(X, y)
            best = 0.5 / len(y) * (2.0 / np.linalg.norm(x)) ** 2  # no hinge
            assert svm_objective(m.weights, m.bias, X, y, 1.0) - best <= best * tol / (1.0 - tol)
            u = m.weights / np.linalg.norm(m.weights)
            off = np.degrees(np.arccos(min(1.0, u @ x / np.linalg.norm(x))))
            assert off <= np.degrees(np.arcsin(np.sqrt(tol / (1.0 - tol))))
            # At c = 0.1 the margin takes in the bulk of each blob.
            u = train_svm(X, y, c=0.1).weights
            assert np.degrees(np.arccos(min(1.0, abs(u[2]) / np.linalg.norm(u)))) < 5.0

    def test_deterministic(self):
        X, y = blobs(5)
        a = train_svm(X, y, c=1.0)
        b = train_svm(X, y, c=1.0)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_rescaling_leaves_predictions(self):
        X, y = blobs(6)
        m = train_svm(X, y, c=1.0)
        scaled = type(m)(weights=m.weights * 7.3, bias=m.bias * 7.3, kind=m.kind)
        assert np.array_equal(m.predict(X), scaled.predict(X))

    def test_whole_set_duplication_mean_loss_invariance(self):
        # Duplicating every sample doubles n; halving c keeps the
        # penalty weight 1/(c*n) and the mean hinge identical, so the
        # fit must agree.
        X, y = blobs(7, n_per=40)
        base = train_svm(X, y, c=2.0)
        dup = train_svm(np.vstack([X, X]), np.concatenate([y, y]), c=1.0)
        np.testing.assert_allclose(base.weights, dup.weights, atol=1e-9)
        assert base.bias == pytest.approx(dup.bias, abs=1e-9)

    def test_errors(self):
        with pytest.raises(PreconditionError, match=r"need both classes, got only \[1\]"):
            train_svm(np.zeros((3, 2)), np.array([1, 1, 1]), c=1.0)
        with pytest.raises(InvariantViolation, match="training matrix contains non-finite"):
            train_svm(np.array([[np.nan, 0.0], [1.0, 1.0]]), np.array([0, 1]), c=1.0)


def svm_objective(w, b, X, y, c):
    """``train_svm``'s objective: lam/2 |w|^2 + mean hinge, lam = 1/(c n)."""
    s = np.where(y == 1, 1.0, -1.0)
    return 0.5 / (c * len(y)) * float(w @ w) + float(np.maximum(0.0, 1.0 - s * (X @ w + b)).mean())


def reference_svm(X, y, c, tol=1e-10):
    """The SVM objective's optimum to a relative duality gap of ``tol``.

    Plain projected gradient on the dual, in float64, with the projection
    found by evaluating its multiplier equation at every breakpoint, and
    the bias by trying every breakpoint of the hinge sum: slow, but
    independent of ``train_svm_stack``'s accelerated solve. Meant for a
    dozen rows. Returns the optimal objective.
    """
    n = len(y)
    s = np.where(y == 1, 1.0, -1.0)
    sX = s[:, None] * X
    Q = sX @ sX.T
    step = 1.0 / np.linalg.eigvalsh(Q)[-1]
    a = np.zeros(n)
    for k in range(1_000_000):
        v = a - step * (Q @ a - 1.0)
        # s.clip(v - mu*s, 0, c) falls piecewise linearly in mu; find its root.
        mus = np.sort(np.concatenate([s * v, s * (v - c)]))
        phis = (s * np.clip(v - mus[:, None] * s, 0.0, c)).sum(axis=1)
        i = int(np.flatnonzero(phis <= 0.0)[0])
        mu = mus[i] if phis[i] == 0.0 else mus[i - 1] + phis[i - 1] * (mus[i] - mus[i - 1]) / (
            phis[i - 1] - phis[i]
        )
        a = np.clip(v - mu * s, 0.0, c)
        if k % 100 == 0:
            w = sX.T @ a
            best = min(svm_objective(w, b, X, y, c) for b in s - X @ w)
            dual = (a.sum() - 0.5 * w @ w) / (c * n)
            if best - dual <= tol * best:
                return best
    raise AssertionError("the reference did not converge")


def tiny_svm_problems():
    """(X, y) of 8 to 12 rows in 2 to 4 dimensions, overlapping and separable."""
    rng = np.random.default_rng(12)
    for case in range(6):
        n, dim = 8 + case % 3 * 2, 2 + case % 3
        X = rng.normal(size=(n, dim))
        y = np.arange(n) % 2
        if case >= 3:
            X[y == 1, 0] += 4.0  # separable with margin
        yield X, y


def test_reaches_the_reference_optimum():
    # The solver stops at a relative duality gap of SVM_GAP_TOL: its
    # objective may exceed the optimum by gap / (1 - gap) of it, and the
    # gap it reports must bound how far it is.
    tol = models.SVM_GAP_TOL
    for X, y in tiny_svm_problems():
        for c in DEFAULT_C_GRID:
            m = train_svm(X, y, c=c)
            best = reference_svm(X, y, c)
            obj = svm_objective(m.weights, m.bias, X, y, c)
            assert m.gap <= tol
            assert obj - best <= best * tol / (1.0 - tol)
            assert obj - best <= m.gap * obj + 1e-12 * best


def unsolved_per_step(monkeypatch):
    """The count of unsolved SVM problems at each step of the solves to come."""
    counts = []
    project = models._project

    def counted(v, S, C, mu):
        counts.append(len(v))
        return project(v, S, C, mu)

    monkeypatch.setattr(models, "_project", counted)
    return counts


class TestSvmStack:
    CS = (0.01, 1.0, 100.0)

    @pytest.mark.parametrize("dim", [16, 64, 512])
    def test_draws_are_independent_and_match_one_problem_fits(self, monkeypatch, dim):
        rng = np.random.default_rng(dim)
        draws, n = 3, 60
        X = rng.normal(size=(draws, n, dim))
        y = (rng.random((draws, n)) < 0.5).astype(np.int64)
        X[..., 0] += y  # the positives sit one unit along the first axis
        unsolved = unsolved_per_step(monkeypatch)
        stack = train_svm_stack(X, y, self.CS)
        # Below 60 dimensions the draws overlap, and their problems leave
        # the stack at different steps while the others go on.
        assert len(set(unsolved)) > 1 or dim >= n
        for d in range(draws):
            # A draw's problems leave the stack by their own gaps, so a
            # draw is bit-identical alone. A problem and its one-problem
            # fit both reach the gap tolerance, by different products.
            alone = train_svm_stack(X[d : d + 1], y[d : d + 1], self.CS)[0]
            for j, c in enumerate(self.CS):
                assert np.array_equal(stack[d][j].weights, alone[j].weights)
                assert stack[d][j].bias == alone[j].bias
                assert stack[d][j].gap == alone[j].gap
                single = train_svm(X[d], y[d], c=c)
                objs = [svm_objective(m.weights, m.bias, X[d], y[d], c) for m in (stack[d][j], single)]
                assert max(stack[d][j].gap, single.gap) <= models.SVM_GAP_TOL
                assert abs(objs[0] - objs[1]) <= models.SVM_GAP_TOL * max(objs)

    def test_one_c_over_unrelated_draws_matches_train_svm_bits(self):
        # fit_all_cavs stacks the single-C fits of different concepts that
        # share a row count; each must be train_svm's fit on its own draw.
        rng = np.random.default_rng(3)
        draws, n, dim = 4, 50, 16
        X = rng.normal(size=(draws, n, dim)) * np.array([0.5, 1.0, 2.0, 4.0])[:, None, None]
        y = (rng.random((draws, n)) < np.array([0.2, 0.4, 0.6, 0.8])[:, None]).astype(np.int64)
        X[..., 0] += np.array([0.0, 0.5, 2.0, 8.0])[:, None] * y  # from overlapping to separable
        for c in (0.01, 1.0, 100.0):
            stack = train_svm_stack(X, y, (c,))
            for d in range(draws):
                single = train_svm(X[d], y[d], c=c)
                assert np.array_equal(stack[d][0].weights, single.weights)
                assert stack[d][0].bias == single.bias

    def test_rescaled_rows_give_the_rescaled_fit(self, monkeypatch):
        # At C = 100 the blobs' SVM is the hard-margin one for any scale
        # of the rows, and its multipliers shrink with the square of the
        # scale: the projection must keep s'a = 0 relative to them.
        X, y = blobs(11, n_per=20, dim=3, center=1.5)
        unsolved = unsolved_per_step(monkeypatch)
        base = train_svm(X, y, c=100.0)
        steps = len(unsolved)
        for k in (1e2, 1e4):
            unsolved.clear()
            m = train_svm(k * X, y, c=100.0)
            np.testing.assert_allclose(k * m.weights, base.weights, rtol=1e-9)
            assert m.bias == pytest.approx(base.bias, rel=1e-9)
            assert len(unsolved) == steps

    def test_a_problem_at_the_step_cap_returns_its_gap(self, monkeypatch):
        X, y = blobs(10, n_per=20, center=0.5)
        monkeypatch.setattr(models, "SVM_MAX_ITER", 15)
        unsolved = unsolved_per_step(monkeypatch)
        m = train_svm(X, y, c=100.0)
        assert len(unsolved) == 15 and m.gap > models.SVM_GAP_TOL

    def test_each_draw_is_validated(self):
        X, y = blobs(8, n_per=10)
        bad = np.stack([y, np.ones_like(y)])
        with pytest.raises(PreconditionError, match=r"need both classes, got only \[1\]"):
            train_svm_stack(np.stack([X, X]), bad, (1.0,))


class TestLogreg:
    def test_separable_blobs(self):
        X, y = blobs(0, dim=8)
        Xte, yte = blobs(1, dim=8)
        m = train_logreg(X, y, l2=1e-3)
        assert f1(m.predict(Xte), yte).f1 >= 0.99

    def test_random_labels_shrink_weights(self):
        # With labels independent of X and a ridge penalty, weights
        # stay near zero (checked across seeds).
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.normal(0, 1, (200, 6))
            y = rng.integers(0, 2, 200)
            m = train_logreg(X, y, l2=1.0)
            assert np.abs(m.weights).max() < 0.1

    def test_correlated_feature_dominates_with_correct_sign(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 300)
        X = rng.normal(0, 1, (300, 5))
        X[:, 2] = np.where(y == 1, 1.0, -1.0)
        m = train_logreg(X, y, l2=1e-2)
        assert int(np.argmax(np.abs(m.weights))) == 2
        assert m.weights[2] > 0

    def test_single_class_rejected(self):
        with pytest.raises(PreconditionError, match=r"need both classes, got only \[0\]"):
            train_logreg(np.zeros((3, 2)), np.array([0, 0, 0]), l2=1e-3)

    def test_returned_fit_has_a_certified_gradient(self):
        # The gradient of mean log-loss + l2/2 |w|^2 at the returned fit,
        # recomputed in the 0/1-label form, is below the stop tolerance.
        rng = np.random.default_rng(5)
        random_labels = (rng.normal(0, 1, (200, 6)), rng.integers(0, 2, 200))
        # The error descriptor's S/HN/EN flags sum to the bias column, so
        # [X 1] is rank-deficient; only the penalty on w keeps the
        # Hessian invertible.
        labels, _ = make_error_fixture(0)
        X_err = np.stack([clip_descriptor(label) for label in labels])
        success = rng.integers(0, 2, len(labels))
        assert np.linalg.matrix_rank(np.hstack([X_err, np.ones((len(labels), 1))])) < 12
        for (X, y), l2 in ((blobs(0, dim=8), 1e-3), (random_labels, 1.0), ((X_err, success), 1e-6)):
            m = train_logreg(X, y, l2=l2)
            resid = 1.0 / (1.0 + np.exp(-(X @ m.weights + m.bias))) - y
            gradient = np.append(X.T @ resid / len(y) + l2 * m.weights, resid.mean())
            assert np.abs(gradient).max() < models.LOGREG_TOL

    def test_fit_at_the_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(models, "LOGREG_MAX_ITER", 1)
        X, y = blobs(0, dim=8)
        cap = (
            r"^logistic regression stopped at its cap of 1 Newton steps "
            r"with \|gradient\| \S+ > 1e-06$"
        )
        with pytest.raises(NumericError, match=cap):
            train_logreg(X, y, l2=1e-3)

    def test_step_without_decrease_raises(self, monkeypatch):
        monkeypatch.setattr(models, "LOGREG_HALVINGS", 0)
        X, y = blobs(0, dim=8)
        with pytest.raises(NumericError, match="^logistic regression stalled after 0 Newton steps"):
            train_logreg(X, y, l2=1e-3)


#: Each binary trainer on (X, y), with its other settings fixed.
BINARY_TRAINERS = {
    "train_svm_stack": lambda X, y: train_svm_stack(X[None], y[None], (1.0,)),
    "train_logreg": lambda X, y: train_logreg(X, y, l2=1e-3),
    "train_mlp": lambda X, y: train_mlp(X, y, np.zeros((2, 2)), np.array([0, 1]), epochs=1),
}


class TestLabelChecks:
    @pytest.mark.parametrize("trainer", list(BINARY_TRAINERS))
    @pytest.mark.parametrize(
        "labels, error, message",
        [
            ([], PreconditionError, "need both classes, got only []"),
            ([1, 1, 1], PreconditionError, "need both classes, got only [1]"),
            ([2, 2], PreconditionError, "need both classes, got only [2]"),
            ([1, 2, 1], InvariantViolation, "labels must be 0/1, got [1, 2]"),
            ([-1, 1, 1], InvariantViolation, "labels must be 0/1, got [-1, 1]"),
            ([0, 2, 1, 0], InvariantViolation, "labels must be 0/1, got [0, 1, 2]"),
        ],
    )
    def test_bad_labels_raise_before_any_fit(self, trainer, labels, error, message):
        y = np.array(labels, dtype=np.int64)
        X = np.arange(2.0 * y.size).reshape(y.size, 2)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            BINARY_TRAINERS[trainer](X, y)


class TestTree:
    def test_threshold_feature_gives_depth_one(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (40, 3))
        y = (X[:, 1] > 0.2).astype(int)
        tree = train_tree(X, y, max_depth=5)
        assert tree.depth() == 1
        assert tree.root.feature == 1
        assert f1(tree.predict(X), y).f1 == 1.0

    def test_single_class_degenerates_to_leaf(self):
        X = np.arange(8.0).reshape(4, 2)
        for label in (0, 1):
            tree = train_tree(X, np.full(4, label), max_depth=3)
            assert tree.root.is_leaf and tree.root.majority == label
            assert tree.root.class_counts.tolist() == [4 * (1 - label), 4 * label]

    @pytest.mark.parametrize(
        "labels, shown", [([0, 2, 2, 0], "[0, 2]"), ([-1, 1, 1, -1], "[-1, 1]"), ([2, 2], "[2]")]
    )
    def test_labels_outside_zero_one_rejected(self, labels, shown):
        # The two class counts hold no row labelled outside {0, 1}, so
        # such a fit would ignore those rows.
        X = np.arange(2.0 * len(labels)).reshape(len(labels), 2)
        message = f"labels must be 0/1, got {shown}"
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            train_tree(X, np.array(labels))

    def test_depth_cap_and_min_leaf(self):
        # Depth is the only growth limit; every split leaves at least one
        # sample on each side, so no leaf is empty.
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (200, 4))
        y = rng.integers(0, 2, 200)
        tree = train_tree(X, y, max_depth=3)
        assert tree.depth() == 3

        def check(node):
            if node.is_leaf:
                assert node.class_counts.sum() >= 1
            else:
                check(node.left)
                check(node.right)

        check(tree.root)

    def test_training_points_land_in_their_leaf_counts(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (60, 3))
        y = rng.integers(0, 2, 60)
        tree = train_tree(X, y, max_depth=4)
        # partition check: the per-leaf counts add up to the dataset,
        # and every training point reaches a leaf that counted its class
        totals = np.zeros(2, dtype=np.int64)
        seen = {}
        for x, label in zip(X, y):
            leaf = tree.leaf(x)
            assert leaf.class_counts[label] >= 1
            seen.setdefault(id(leaf), [np.zeros(2, dtype=np.int64), leaf])[0][label] += 1
        for counted, leaf in seen.values():
            assert np.array_equal(counted, leaf.class_counts)
            totals += counted
        assert totals.sum() == 60

    def test_matches_exhaustive_split_scan_oracle(self):
        # Independent oracle: a naive tree builder that enumerates every
        # (feature, midpoint) split with explicit loops and the same
        # lowest-feature, lowest-threshold tie-break.
        def gini(labels):
            if len(labels) == 0:
                return 0.0
            p = float(np.mean(labels))
            return 1.0 - p * p - (1.0 - p) * (1.0 - p)

        def naive_split(X, y):
            best = None
            n = len(y)
            for j in range(X.shape[1]):
                vals = sorted(set(X[:, j].tolist()))
                for a, b in zip(vals, vals[1:]):
                    t = (a + b) / 2.0
                    left = y[X[:, j] <= t]
                    right = y[X[:, j] > t]
                    if len(left) == 0 or len(right) == 0:
                        continue
                    w = (len(left) * gini(left) + len(right) * gini(right)) / n
                    if best is None or w < best[2] - 1e-12:
                        best = (j, t, w)
            return best

        def naive_build(X, y, idx, depth, max_depth):
            labels = y[idx]
            if depth >= max_depth or len(set(labels.tolist())) < 2:
                return ("leaf", int(np.bincount(labels, minlength=2).argmax()))
            found = naive_split(X[idx], labels)
            if found is None:
                return ("leaf", int(np.bincount(labels, minlength=2).argmax()))
            j, t, _ = found
            mask = X[idx, j] <= t
            return (
                "node",
                j,
                t,
                naive_build(X, y, idx[mask], depth + 1, max_depth),
                naive_build(X, y, idx[~mask], depth + 1, max_depth),
            )

        def naive_predict(node, x):
            while node[0] == "node":
                _, j, t, left, right = node
                node = left if x[j] <= t else right
            return node[1]

        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(4, 25))
            X = rng.normal(0, 1, (n, int(rng.integers(1, 4))))
            y = rng.integers(0, 2, n)
            if len(set(y.tolist())) < 2:
                continue
            depth = int(rng.integers(1, 4))
            mine = train_tree(X, y, max_depth=depth).predict(X)
            ref_root = naive_build(X, y, np.arange(n), 0, depth)
            ref = np.array([naive_predict(ref_root, x) for x in X])
            assert np.array_equal(mine, ref)

    def test_min_samples_precondition(self):
        with pytest.raises(PreconditionError):
            train_tree(np.zeros((1, 1)), np.array([0]))


class TestMlp:
    def test_gradcheck_small_instances(self):
        assert mlp_gradcheck_worst_error(10, master_seed=77) < 1e-4

    def test_zero_epochs_returns_initialization(self):
        rng = np.random.default_rng(0)
        small = (rng.normal(0, 1, (10, 4)), np.array([0, 1] * 5))
        for X, y in (small, coefficient_draw()):
            result = train_mlp(X, y, X, y, epochs=0, lr=1e-3, batch=4, seed=9)
            ref = init_mlp(X.shape[1], 9)
            assert np.array_equal(result.model.w1, ref.w1)
            assert np.array_equal(result.model.b2, ref.b2)
            assert result.epoch_losses == []
            assert result.kept_epoch == 0

    def test_blobs_within_fifty_epochs(self):
        X, y = blobs(0, dim=8)
        Xte, yte = blobs(1, dim=8)
        result = train_mlp(X, y, X, y, epochs=50, lr=1e-3, batch=32, seed=3)
        assert f1(result.model.predict(Xte), yte).f1 >= 0.99

    def test_noisy_xor(self):
        rng = np.random.default_rng(4)
        base = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        X = np.repeat(base, 100, axis=0) + rng.normal(0, 0.08, (400, 2))
        y = np.repeat(np.array([1, 1, 0, 0]), 100)
        result = train_mlp(X, y, X, y, epochs=200, lr=1e-2, batch=32, seed=5)
        assert f1(result.model.predict(X), y).f1 >= 0.95

    def test_duplicated_sample_keeps_mean_gradient(self):
        rng = np.random.default_rng(6)
        model = init_mlp(5, 1)
        x = rng.normal(0, 1, (1, 5))
        y = np.array([1])
        single = mlp_gradient(model, x, y)
        doubled = mlp_gradient(model, np.vstack([x, x]), np.array([1, 1]))
        for a, b in zip(single, doubled):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_zero_input_zero_weights_kill_first_layer_gradient(self):
        model = init_mlp(3, 2)
        model.w1[:] = 0.0
        model.b1[:] = 0.0
        dw1, db1, *_ = mlp_gradient(model, np.zeros((4, 3)), np.array([0, 1, 0, 1]))
        assert np.array_equal(dw1, np.zeros_like(dw1))
        assert np.array_equal(db1, np.zeros_like(db1))

    def test_deterministic_bit_identical(self):
        for X, y in (blobs(2, n_per=30), coefficient_draw(2)):
            a = train_mlp(X, y, X, y, epochs=5, lr=1e-3, batch=8, seed=11)
            b = train_mlp(X, y, X, y, epochs=5, lr=1e-3, batch=8, seed=11)
            assert np.array_equal(a.model.w1, b.model.w1)
            assert np.array_equal(a.model.w2, b.model.w2)
            assert a.epoch_losses == b.epoch_losses

    def test_divergence_raises(self):
        # The overflow on the way raises no numpy warning.
        for X, y in (blobs(3, n_per=20), coefficient_draw(3)):
            with warnings.catch_warnings(), pytest.raises(NumericError, match="diverged in epoch"):
                warnings.simplefilter("error")
                train_mlp(X * 1e6, y, X, y, epochs=50, lr=1e3, batch=8, seed=0)

    def test_divergence_in_the_last_update_raises(self):
        # One epoch of one batch: its loss is taken before the update that
        # diverges, so only the check on the validation output can see it.
        for X, y in (blobs(3, n_per=20), coefficient_draw(3)):
            with warnings.catch_warnings(), pytest.raises(NumericError, match="diverged in epoch"):
                warnings.simplefilter("error")
                train_mlp(X, y, X, y, epochs=1, lr=1e308, batch=len(y))

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"epochs": -1}, "MLP epochs must be at least 0, got -1"),
            ({"batch": 0}, "MLP batch must be at least 1, got 0"),
            ({"lr": 0.0}, "MLP learning rate must be finite and > 0, got 0.0"),
            ({"lr": float("nan")}, "MLP learning rate must be finite and > 0, got nan"),
            ({"lr": float("inf")}, "MLP learning rate must be finite and > 0, got inf"),
        ],
    )
    def test_settings_are_checked(self, setting, message):
        X, y = blobs(3, n_per=20)
        with pytest.raises(InvariantViolation) as raised:
            train_mlp(X, y, X, y, **setting)
        assert str(raised.value) == message

    def test_returns_first_best_validation_epoch(self):
        # Oracle: replay the training loop by hand to get the parameters
        # after every epoch, score each on the validation set, and expect
        # the parameters of the first epoch with the best F1, which are
        # also the final ones of a run that stops at that epoch.
        X, y = blobs(4, n_per=20, center=0.6)
        Xv, yv = blobs(8, n_per=20, center=0.6)
        epochs, lr, batch, seed = 12, 5e-3, 8, 0
        result = train_mlp(X, y, Xv, yv, epochs=epochs, lr=lr, batch=batch, seed=seed)
        after_epoch, losses, scores = replay_mlp(X, y, Xv, yv, epochs, lr, batch, seed)
        assert losses == result.epoch_losses
        best = scores.index(max(scores))
        assert best < epochs - 1 and len(set(scores)) > 1
        assert result.kept_epoch == best + 1
        stopped = train_mlp(X, y, Xv, yv, epochs=best + 1, lr=lr, batch=batch, seed=seed).model
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(result.model, name), getattr(after_epoch[best], name))
            assert np.array_equal(getattr(result.model, name), getattr(stopped, name))

    def test_coefficient_form_returns_first_best_validation_epoch(self):
        # The same oracle on a draw whose first layer trains as row
        # coefficients, with a partial last batch (44 rows, batch 8). The
        # replay steps w1 itself, so the two agree up to rounding.
        X, y = coefficient_draw(4)
        Xv, yv = coefficient_draw(6)
        epochs, lr, batch, seed = 12, 5e-3, 8, 0
        result = train_mlp(X, y, Xv, yv, epochs=epochs, lr=lr, batch=batch, seed=seed)
        after_epoch, losses, scores = replay_mlp(X, y, Xv, yv, epochs, lr, batch, seed)
        np.testing.assert_allclose(result.epoch_losses, losses, rtol=1e-10)
        best = scores.index(max(scores))
        assert best < epochs - 1 and len(set(scores)) > 1
        stopped = train_mlp(X, y, Xv, yv, epochs=best + 1, lr=lr, batch=batch, seed=seed).model
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_allclose(
                getattr(result.model, name), getattr(after_epoch[best], name), rtol=1e-10
            )
            assert np.array_equal(getattr(result.model, name), getattr(stopped, name))

    @pytest.mark.parametrize("rows, by_rows", [(127, True), (128, False)])
    def test_first_layer_form_switches_at_twice_the_dimension(self, rows, by_rows, monkeypatch):
        # Only the weight form calls mlp_gradient; both match the replay.
        X, y = blobs(5, n_per=64, dim=64, center=0.1)
        X, y = X[:rows], y[:rows]
        calls = []

        def counted(*args):
            calls.append(1)
            return mlp_gradient(*args)

        monkeypatch.setattr(models, "mlp_gradient", counted)
        result = train_mlp(X, y, X, y, epochs=3, lr=5e-3, batch=16, seed=2)
        assert bool(calls) is not by_rows
        after_epoch, losses, scores = replay_mlp(X, y, X, y, 3, 5e-3, 16, 2)
        kept = after_epoch[scores.index(max(scores))]
        for name in ("w1", "b1", "w2", "b2"):
            if by_rows:
                np.testing.assert_allclose(getattr(result.model, name), getattr(kept, name), rtol=1e-10)
            else:
                assert np.array_equal(getattr(result.model, name), getattr(kept, name))


class TestMetrics:
    def test_perfect(self):
        assert f1([1, 0, 1], [1, 0, 1]).f1 == 1.0

    def test_all_negative_with_positives_present(self):
        assert f1([0, 0, 0], [1, 0, 1]).f1 == 0.0

    def test_hand_confusion(self):
        # tp=3, fp=1, fn=2: p=0.75, r=0.6, f1=0.9/1.35
        preds = [1, 1, 1, 1, 0, 0, 0]
        labels = [1, 1, 1, 0, 1, 1, 0]
        m = f1(preds, labels)
        assert (m.tp, m.fp, m.fn, m.tn) == (3, 1, 2, 1)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        assert m.f1 == pytest.approx(2 * 0.45 / 1.35)

    def test_exhaustive_small_confusion_matrices(self):
        # Every confusion matrix with at most 20 samples, against the
        # closed-form definition.
        for tp, fp, fn, tn in itertools.product(range(6), repeat=4):
            total = tp + fp + fn + tn
            if total == 0 or total > 20:
                continue
            preds = [1] * tp + [1] * fp + [0] * fn + [0] * tn
            labels = [1] * tp + [0] * fp + [1] * fn + [0] * tn
            m = f1(preds, labels)
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            expected = 2 * p * r / (p + r) if p + r else 0.0
            assert m.f1 == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(8)
        preds = rng.integers(0, 2, 50)
        labels = rng.integers(0, 2, 50)
        base = f1(preds, labels)
        perm = rng.permutation(50)
        assert f1(preds[perm], labels[perm]) == base

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError, match="2 predictions vs 1 labels"):
            f1([1, 0], [1])


class TestTrivialBaseline:
    def test_closed_form(self):
        assert trivial_baseline_f1(0.5, 1.0) == pytest.approx(2 / 3)

    def test_consistent_published_values(self):
        # Three of the four published baseline cells are reproducible
        # from the quoted, rounded test-set fractions themselves at the
        # stated tolerance.
        assert trivial_baseline_f1(0.23, 0.5) == pytest.approx(0.32, abs=0.005)
        assert trivial_baseline_f1(0.23, 1.0) == pytest.approx(0.37, abs=0.005)
        assert trivial_baseline_f1(0.19, 0.5) == pytest.approx(0.28, abs=0.005)

    def test_rounded_fraction_cell_exact_formula(self):
        # At the rounded 0.19 itself the all-positive cell is 0.38/1.19,
        # not the published 0.33; the unrounded fraction behind 0.19 can
        # be anything in [0.185, 0.195), and the acceptance suite checks
        # the row over that interval.
        assert trivial_baseline_f1(0.19, 1.0) == pytest.approx(0.38 / 1.19, abs=1e-12)

    def test_both_zero(self):
        with pytest.raises(PreconditionError, match="both fractions are zero"):
            trivial_baseline_f1(0.0, 0.0)
        with pytest.raises(PreconditionError, match=r"fractions must be in \[0, 1\]"):
            trivial_baseline_f1(1.2, 0.5)


class TestSerialization:
    def test_linear_round_trip(self):
        X, y = blobs(0)
        for trainer in (lambda: train_svm(X, y, c=1.0), lambda: train_logreg(X, y, l2=1e-2)):
            model = trainer()
            restored = model_from_json(model_to_json(model))
            assert np.array_equal(model.weights, restored.weights)
            assert model.bias == restored.bias and model.kind == restored.kind

    def test_tree_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (50, 3))
        y = rng.integers(0, 2, 50)
        tree = train_tree(X, y, max_depth=4)
        restored = model_from_json(model_to_json(tree))
        assert np.array_equal(tree.predict(X), restored.predict(X))

    def test_mlp_round_trip(self):
        X, y = blobs(2, n_per=20)
        model = train_mlp(X, y, X, y, epochs=3, lr=1e-3, batch=8, seed=1).model
        restored = model_from_json(model_to_json(model))
        assert np.array_equal(model.w1, restored.w1)
        assert np.array_equal(model.predict(X), restored.predict(X))

    def test_version_guard(self):
        with pytest.raises(ValueError):
            model_from_json({"format": "something-else", "kind": "svm"})
