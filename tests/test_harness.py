"""Folds, balanced draws, task evaluation, and error factors."""

import numpy as np
import pytest

from gazelab import (
    TEST_NEGATIVE_SETS,
    ClipLabel,
    Concept,
    ModelKind,
    ObjLevel,
    TaskConfig,
    balanced_train_sets,
    error_factor_analysis,
    f1,
    make_folds_from_ids,
    run_task,
    trivial_baseline_f1,
)
from gazelab.errors import InvariantViolation, NumericError, PreconditionError
from gazelab.harness import derive_seed
from synthfix import ids_by_level, make_error_fixture, make_linear_task


SEPARABLE_MESSAGE = (
    "the classes are separable: without an L2 penalty the logistic fit has no finite optimum"
)


def labels_of(n_s, n_en, n_hn=0):
    out = []
    for i in range(n_s):
        out.append(ClipLabel(f"s{i}", ObjLevel.S, frozenset({Concept.BODY})))
    for i in range(n_en):
        out.append(ClipLabel(f"e{i}", ObjLevel.EN, frozenset()))
    for i in range(n_hn):
        out.append(ClipLabel(f"h{i}", ObjLevel.HN, frozenset({Concept.LOOK})))
    return out


class TestFolds:
    def test_equal_folds_with_reserved_test_and_validation(self):
        plan = make_folds_from_ids(ids_by_level(labels_of(100, 100)), seed=0)
        for cls in (ObjLevel.S, ObjLevel.EN):
            sizes = [len(f) for f in plan.folds[cls]]
            assert sizes == [10] * 10
        assert plan.test_fold == 9
        assert plan.val_fold == 8

    def test_singleton_folds_at_boundary(self):
        plan = make_folds_from_ids(ids_by_level(labels_of(10, 10)), seed=1)
        assert all(len(f) == 1 for f in plan.folds[ObjLevel.S])

    def test_same_seed_identical_plan(self):
        ids = ids_by_level(labels_of(40, 60))
        assert make_folds_from_ids(ids, seed=7) == make_folds_from_ids(ids, seed=7)
        assert make_folds_from_ids(ids, seed=7) != make_folds_from_ids(ids, seed=8)

    def test_folds_partition_each_class(self):
        labels = labels_of(37, 53)
        plan = make_folds_from_ids(ids_by_level(labels), seed=3)
        for cls, expected in ((ObjLevel.S, 37), (ObjLevel.EN, 53)):
            ids = [cid for fold in plan.folds[cls] for cid in fold]
            assert len(ids) == len(set(ids)) == expected
            sizes = [len(f) for f in plan.folds[cls]]
            assert max(sizes) - min(sizes) <= 1

    def test_class_too_small(self):
        with pytest.raises(PreconditionError, match="class 'S' has 9 samples, fewer than 10"):
            make_folds_from_ids(ids_by_level(labels_of(9, 100)), seed=0)


class TestBalancedTrainSets:
    def test_imbalance_three_draws(self):
        # 100 S / 300 EN: train folds hold 80 / 240, giving 3 sets of 80+80.
        plan = make_folds_from_ids(ids_by_level(labels_of(100, 300)), seed=0)
        sets = balanced_train_sets(plan, ObjLevel.S, ObjLevel.EN)
        assert len(sets) == 3
        drawn = set()
        for pos, neg in sets:
            assert len(pos) == len(neg) == 80
            assert not drawn & set(neg)  # draws are disjoint
            drawn |= set(neg)

    def test_equal_classes_single_full_set(self):
        plan = make_folds_from_ids(ids_by_level(labels_of(50, 50)), seed=0)
        sets = balanced_train_sets(plan, ObjLevel.S, ObjLevel.EN)
        assert len(sets) == 1
        pos, neg = sets[0]
        assert set(neg) == set(plan.train_ids(ObjLevel.EN))

    def test_leftover_negatives_unused(self):
        # 100 S / 125 EN: train folds hold 80 / 100, one set, 20 unused.
        plan = make_folds_from_ids(ids_by_level(labels_of(100, 125)), seed=0)
        sets = balanced_train_sets(plan, ObjLevel.S, ObjLevel.EN)
        assert len(sets) == 1
        assert len(sets[0][1]) == 80

    def test_no_train_data(self):
        plan = make_folds_from_ids({"pos": [f"p{i}" for i in range(10)]}, seed=0)
        with pytest.raises(PreconditionError, match="no training data for classes 'pos'/'neg'"):
            balanced_train_sets(plan, "pos", "neg")
        plan = make_folds_from_ids(ids_by_level(labels_of(10, 10)), seed=0)
        with pytest.raises(PreconditionError, match="no training data for classes S/HN$"):
            balanced_train_sets(plan, ObjLevel.S, ObjLevel.HN)


EN_ONLY = frozenset({ObjLevel.EN})
EN_HN = frozenset({ObjLevel.EN, ObjLevel.HN})


def held_out(labels, feats, seed, negatives):
    """Features and truths of run_task's test fold, rebuilt from its fold plan."""
    plan = make_folds_from_ids(ids_by_level(labels), seed)
    pos = plan.ids(ObjLevel.S, [plan.test_fold])
    neg = [cid for lv in sorted(negatives) for cid in plan.ids(lv, [plan.test_fold])]
    X = np.stack([feats[cid] for cid in (*pos, *neg)])
    return X, np.array([1] * len(pos) + [0] * len(neg))


def assert_each_draw_scored_on_held_out(report, labels, feats):
    """Every draw's F1 is its model's F1 on the one rebuilt test fold."""
    X, y = held_out(labels, feats, report.config.seed, report.test_negatives)
    assert report.test_positive_fraction == np.count_nonzero(y) / len(y)
    assert len(report.models) == len(report.per_draw_f1) >= 2
    for model, reported in zip(report.models, report.per_draw_f1):
        assert f1(model.predict(X), y).f1 == reported


class TestRunTask:
    def test_linear_oracle_all_four_cells(self):
        labels, feats = make_linear_task(0, n=600)
        for train_neg in (ObjLevel.EN, ObjLevel.HN):
            cfg = TaskConfig(
                train_negatives=train_neg,
                model=ModelKind.MLP,
                seed=3,
                mlp_epochs=120,
                mlp_lr=2e-2,
            )
            reports = run_task(cfg, labels, feats, TEST_NEGATIVE_SETS)
            assert [r.test_negatives for r in reports] == [EN_ONLY, EN_HN]
            assert all(r.mean_f1 >= 0.95 for r in reports)
            # One kept epoch per draw, shared by the test sets of its fit.
            kept = reports[0].kept_epochs
            assert len(kept) == len(reports[0].models) and all(1 <= e <= 120 for e in kept)
            assert all(r.to_json()["kept_epoch"] == list(kept) for r in reports)

    def test_test_sets_share_fitted_models(self):
        labels, feats = make_linear_task(4, n=600)
        cfg = TaskConfig(train_negatives=ObjLevel.EN, model=ModelKind.PCBM_LR, seed=8)
        narrow, wide = run_task(cfg, labels, feats, [EN_ONLY, EN_HN])
        assert len(narrow.models) == len(wide.models) >= 2
        for a, b in zip(narrow.models, wide.models):
            assert a is b
        assert wide.test_positive_fraction < narrow.test_positive_fraction
        assert narrow.to_json()["config"]["test_negatives"] == ["EN"]
        assert wide.to_json()["config"]["test_negatives"] == ["EN", "HN"]
        (alone,) = run_task(cfg, labels, feats, [EN_HN])
        assert alone.to_json() == wide.to_json()
        assert wide.kept_epochs is None and "kept_epoch" not in wide.to_json()

    def test_all_draws_share_identical_test_set(self):
        labels, feats = make_linear_task(1, n=600)
        cfg = TaskConfig(train_negatives=ObjLevel.EN, model=ModelKind.PCBM_LR, seed=5)
        (report,) = run_task(cfg, labels, feats, [EN_ONLY])
        assert_each_draw_scored_on_held_out(report, labels, feats)

    def test_per_draw_f1_recomputable_from_predictions(self):
        labels, feats = make_linear_task(2, n=600)
        cfg = TaskConfig(train_negatives=ObjLevel.EN, model=ModelKind.PCBM_DT, seed=6)
        (report,) = run_task(cfg, labels, feats, [EN_HN])
        assert_each_draw_scored_on_held_out(report, labels, feats)

    def test_trivial_models_reproduce_baselines(self):
        # 2600 clips put ~260 in the test fold, within the 0.02 band.
        # Constant and coin-flip predictions are scored on the report's
        # own test fold, one seeded coin per balanced draw.
        rng = np.random.default_rng(0)
        labels, feats = [], {}
        for i, (level, cnt) in enumerate(
            ((ObjLevel.EN, 1600), (ObjLevel.HN, 400), (ObjLevel.S, 600))
        ):
            for j in range(cnt):
                concepts = frozenset() if level is ObjLevel.EN else frozenset({Concept.BODY})
                cid = f"t{i}_{j:04d}"
                labels.append(ClipLabel(cid, level, concepts))
                feats[cid] = rng.normal(0, 1, 4)
        cfg = TaskConfig(train_negatives=ObjLevel.EN, model=ModelKind.PCBM_LR, seed=17)
        (rep,) = run_task(cfg, labels, feats, [EN_HN])
        _, truths = held_out(labels, feats, 17, EN_HN)
        always = f1(np.ones(len(truths), dtype=np.int64), truths).f1
        assert always == pytest.approx(
            trivial_baseline_f1(rep.test_positive_fraction, 1.0), abs=1e-12
        )
        coins = [
            np.random.default_rng(derive_seed(17, 1, i)).integers(0, 2, len(truths))
            for i in range(len(rep.models))
        ]
        coin = np.mean([f1(flips, truths).f1 for flips in coins])
        assert coin == pytest.approx(
            trivial_baseline_f1(rep.test_positive_fraction, 0.5), abs=0.02
        )

    def test_baselines_use_test_composition(self):
        labels, feats = make_linear_task(3, n=600)
        cfg = TaskConfig(train_negatives=ObjLevel.HN, model=ModelKind.PCBM_LR, seed=2)
        (report,) = run_task(cfg, labels, feats, [EN_ONLY])
        assert report.baselines["all_positive"] == pytest.approx(
            trivial_baseline_f1(report.test_positive_fraction, 1.0)
        )
        assert report.baselines["random"] == pytest.approx(
            trivial_baseline_f1(report.test_positive_fraction, 0.5)
        )

    def test_ns_must_be_dropped(self):
        labels = labels_of(20, 20) + [ClipLabel("n0", ObjLevel.NS, frozenset({Concept.BODY}))]
        cfg = TaskConfig(train_negatives=ObjLevel.EN, model=ModelKind.PCBM_LR, seed=0)
        with pytest.raises(PreconditionError):
            run_task(cfg, labels, {}, [EN_ONLY])

    def test_task_config_validation(self):
        with pytest.raises(InvariantViolation):
            TaskConfig(train_negatives=ObjLevel.NS, model=ModelKind.MLP, seed=0)
        # The test negative sets are checked by run_task, before any data.
        cfg = TaskConfig(train_negatives=ObjLevel.EN, model=ModelKind.MLP, seed=0)
        for test_sets in ([frozenset({ObjLevel.HN})], [EN_ONLY, frozenset()], []):
            with pytest.raises(InvariantViolation):
                run_task(cfg, [], {}, test_sets)

    def test_draw_seeds_stable_under_extension(self):
        # Adding draws must never perturb earlier ones.
        early = [derive_seed(42, 1, i) for i in range(3)]
        later = [derive_seed(42, 1, i) for i in range(6)]
        assert later[:3] == early


class TestErrorFactors:
    def test_hn_failures_get_negative_weight(self):
        for seed in range(3):
            labels, preds = make_error_fixture(seed)
            weights = error_factor_analysis(labels, preds, l2=1.0).weights
            assert weights["HN"] < 0
            assert weights["EN"] > 0 and weights["S"] > 0

    def test_factor_order(self):
        labels, preds = make_error_fixture(0)
        weights = error_factor_analysis(labels, preds).weights
        assert list(weights) == [
            "TypeOfShot",
            "Look",
            "Body",
            "Posture",
            "Clothing",
            "Appearance",
            "ExpressionOfEmotion",
            "Activity",
            "S",
            "HN",
            "EN",
        ]

    def test_separable_success_without_penalty_raises(self):
        # Success is exactly "not HN", so at l2 = 0 the HN weight would
        # run off to minus infinity.
        labels, preds = make_error_fixture(3)
        with pytest.raises(NumericError) as raised:
            error_factor_analysis(labels, preds, l2=0.0)
        assert str(raised.value) == SEPARABLE_MESSAGE

    def test_perfect_predictions_degenerate(self):
        labels, _ = make_error_fixture(1)
        truths = [1 if l.level is ObjLevel.S else 0 for l in labels]
        with pytest.raises(PreconditionError, match="every prediction is correct"):
            error_factor_analysis(labels, truths)

    def test_independent_success_keeps_weights_small(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            labels = []
            for i in range(300):
                level = (ObjLevel.EN, ObjLevel.HN, ObjLevel.S)[i % 3]
                concepts = (
                    frozenset()
                    if level is ObjLevel.EN
                    else frozenset(
                        Concept(int(g))
                        for g in rng.choice(8, size=int(rng.integers(1, 4)), replace=False)
                    )
                )
                labels.append(ClipLabel(f"x{i}", level, concepts))
            truths = [1 if l.level is ObjLevel.S else 0 for l in labels]
            keep = rng.integers(0, 2, 300).astype(bool)
            preds = [t if ok else 1 - t for t, ok in zip(truths, keep)]
            weights = error_factor_analysis(labels, preds, truths, l2=1.0).weights
            assert max(abs(v) for v in weights.values()) < 0.1
