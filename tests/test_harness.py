"""Folds, balanced draws, task evaluation, and error factors."""

import hashlib
import json
import multiprocessing
import os
import time

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
    fold_plan,
    make_folds_from_ids,
    plan_task,
    trivial_baseline_f1,
)
from gazelab import harness
from gazelab.errors import GazeLabError, InvariantViolation, NumericError, PreconditionError
from gazelab.harness import derive_seed
from synthfix import ids_by_level, make_error_fixture, make_linear_task, run_cells


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


class TestPlan:
    def test_fold_plan_is_the_folds_of_the_levels(self):
        labels = labels_of(30, 50, 40)
        for seed in (0, 5):
            assert fold_plan(labels, seed) == make_folds_from_ids(ids_by_level(labels), seed)

    def test_rows_of_one_plan_share_test_fold_and_validation_positives(self):
        labels, feats = make_linear_task(1, n=600)
        folds = fold_plan(labels, 4)
        en, hn = (
            plan_task(TaskConfig(neg, ModelKind.PCBM_LR, seed=4), folds, TEST_NEGATIVE_SETS, feats)
            for neg in (ObjLevel.EN, ObjLevel.HN)
        )
        assert en.test_sets == hn.test_sets == TEST_NEGATIVE_SETS
        assert en.test_rows == hn.test_rows
        assert en.val_row[0] == hn.val_row[0] == list(folds.ids(ObjLevel.S, [folds.val_fold]))
        assert en.val_row[1] == list(folds.ids(ObjLevel.EN, [folds.val_fold]))
        assert hn.val_row[1] == list(folds.ids(ObjLevel.HN, [folds.val_fold]))
        assert en.draws == tuple(balanced_train_sets(folds, ObjLevel.S, ObjLevel.EN))

    def test_cell_of_another_seed_is_refused(self):
        labels, feats = make_linear_task(1, n=600)
        cfg = TaskConfig(ObjLevel.EN, ModelKind.PCBM_LR, seed=4)
        with pytest.raises(InvariantViolation, match="seed 4 planned on folds of seed 5"):
            plan_task(cfg, fold_plan(labels, 5), TEST_NEGATIVE_SETS, feats)


def held_out(labels, feats, seed, negatives):
    """Features and truths of a cell's test fold, rebuilt from its fold plan."""
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
            (reports,) = run_cells([cfg], labels, feats, TEST_NEGATIVE_SETS)
            assert [r.test_negatives for r in reports] == [EN_ONLY, EN_HN]
            assert all(r.mean_f1 >= 0.95 for r in reports)
            # One kept epoch per draw, shared by the test sets of its fit.
            kept = reports[0].kept_epochs
            assert len(kept) == len(reports[0].models) and all(1 <= e <= 120 for e in kept)
            assert all(r.to_json()["kept_epoch"] == list(kept) for r in reports)

    def test_test_sets_share_fitted_models(self):
        labels, feats = make_linear_task(4, n=600)
        cfg = TaskConfig(train_negatives=ObjLevel.EN, model=ModelKind.PCBM_LR, seed=8)
        ((narrow, wide),) = run_cells([cfg], labels, feats, [EN_ONLY, EN_HN])
        assert len(narrow.models) == len(wide.models) >= 2
        for a, b in zip(narrow.models, wide.models):
            assert a is b
        assert wide.test_positive_fraction < narrow.test_positive_fraction
        assert narrow.to_json()["config"]["test_negatives"] == ["EN"]
        assert wide.to_json()["config"]["test_negatives"] == ["EN", "HN"]
        ((alone,),) = run_cells([cfg], labels, feats, [EN_HN])
        assert alone.to_json() == wide.to_json()
        assert wide.kept_epochs is None and "kept_epoch" not in wide.to_json()

    def test_all_draws_share_identical_test_set(self):
        labels, feats = make_linear_task(1, n=600)
        cfg = TaskConfig(train_negatives=ObjLevel.EN, model=ModelKind.PCBM_LR, seed=5)
        ((report,),) = run_cells([cfg], labels, feats, [EN_ONLY])
        assert_each_draw_scored_on_held_out(report, labels, feats)

    def test_per_draw_f1_recomputable_from_predictions(self):
        labels, feats = make_linear_task(2, n=600)
        cfg = TaskConfig(train_negatives=ObjLevel.EN, model=ModelKind.PCBM_DT, seed=6)
        ((report,),) = run_cells([cfg], labels, feats, [EN_HN])
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
        ((rep,),) = run_cells([cfg], labels, feats, [EN_HN])
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
        ((report,),) = run_cells([cfg], labels, feats, [EN_ONLY])
        assert report.baselines["all_positive"] == pytest.approx(
            trivial_baseline_f1(report.test_positive_fraction, 1.0)
        )
        assert report.baselines["random"] == pytest.approx(
            trivial_baseline_f1(report.test_positive_fraction, 0.5)
        )

    def test_ns_must_be_dropped(self):
        labels = labels_of(20, 20) + [ClipLabel("n0", ObjLevel.NS, frozenset({Concept.BODY}))]
        with pytest.raises(PreconditionError, match="NS clips must be dropped"):
            fold_plan(labels, 0)

    def test_task_config_validation(self):
        with pytest.raises(InvariantViolation):
            TaskConfig(train_negatives=ObjLevel.NS, model=ModelKind.MLP, seed=0)
        # The test negative sets are checked by plan_task, before any data.
        cfg = TaskConfig(train_negatives=ObjLevel.EN, model=ModelKind.MLP, seed=0)
        for test_sets in ([frozenset({ObjLevel.HN})], [EN_ONLY, frozenset()], []):
            with pytest.raises(InvariantViolation):
                plan_task(cfg, fold_plan([], 0), test_sets, {})

    def test_draw_seeds_stable_under_extension(self):
        # Adding draws must never perturb earlier ones.
        early = [derive_seed(42, 1, i) for i in range(3)]
        later = [derive_seed(42, 1, i) for i in range(6)]
        assert later[:3] == early


USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_two_cpus = pytest.mark.skipif(
    USABLE_CPUS < 2, reason=f"{USABLE_CPUS} usable CPU: every draw is fitted in-process"
)


class TestDrawPool:
    """The MLP draws of all rows are fitted in forked workers, one per
    usable CPU; on one CPU, and for the other models, in-process."""

    @staticmethod
    def grid(model=ModelKind.MLP):
        labels, feats = make_linear_task(0, n=300, dim=8)
        configs = [
            TaskConfig(neg, model, seed=3, mlp_epochs=6, mlp_lr=2e-2)
            for neg in (ObjLevel.EN, ObjLevel.HN)
        ]
        return configs, labels, feats

    @staticmethod
    def log_fits(tmp_path, monkeypatch, fit):
        """Patch every fit of ``run_task`` to ``fit`` and log the process
        and seed of each call, one line each, from any process."""
        log = tmp_path / "fits"
        log.touch()

        def logged(name):
            def call(*args, **kwargs):
                with open(log, "a") as f:
                    f.write(f"{os.getpid()} {name} {kwargs.get('seed')}\n")
                return fit(*args, **kwargs)

            return call

        for name in ("train_mlp", "train_tree", "train_logreg"):
            monkeypatch.setattr(harness, name, logged(name))
        return lambda: [line.split() for line in log.read_text().splitlines()]

    @needs_two_cpus
    def test_pool_fits_every_mlp_draw_of_both_rows_outside_the_parent(self, tmp_path, monkeypatch):
        configs, labels, feats = self.grid()
        fits = self.log_fits(tmp_path, monkeypatch, harness.train_mlp)
        pooled = run_cells(configs, labels, feats, TEST_NEGATIVE_SETS)
        seeds = [
            str(derive_seed(cfg.seed, 1, i))
            for cfg, cells in zip(configs, pooled)
            for i in range(len(cells[0].models))
        ]
        assert len(pooled[0][0].models) >= 2
        assert sorted(seed for _, _, seed in fits()) == sorted(seeds)
        assert str(os.getpid()) not in {pid for pid, _, _ in fits()}
        assert multiprocessing.active_children() == []

        # On one usable CPU the same fits run in-process, in draw order,
        # and give the same bits; so does each row on its own.
        log = tmp_path / "fits"
        log.write_text("")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        in_process = run_cells(configs, labels, feats, TEST_NEGATIVE_SETS)
        assert fits() == [[str(os.getpid()), "train_mlp", seed] for seed in seeds]
        by_row = [run_cells([cfg], labels, feats, TEST_NEGATIVE_SETS)[0] for cfg in configs]
        for other in (in_process, by_row):
            for cells, other_cells in zip(pooled, other):
                for report, other_report in zip(cells, other_cells):
                    assert report.to_json() == other_report.to_json()
                    for model, other_model in zip(report.models, other_report.models):
                        for name in ("w1", "b1", "w2", "b2"):
                            assert np.array_equal(getattr(model, name), getattr(other_model, name))

    @pytest.mark.parametrize(
        "dim, noise, digest",
        [
            (8, 1.0, "9e2e706001fa851dcae65d5c3ba1d1016c224a2bb79e23ecbdd3c696ada6823e"),
            (64, 0.25, "84f708c32b2fdcbf0b5ed01ed8cecc45ecddd31ec043a414e15da522bfbca094"),
        ],
        ids=["weights", "rows"],
    )
    def test_draws_run_every_epoch_and_keep_their_reports(self, monkeypatch, dim, noise, digest):
        # The digests of every report and model were recorded before the
        # MLP head was rewritten with fewer numpy calls. Every draw runs
        # all 40 epochs, including those whose validation F1 reaches 1.0.
        labels, feats = make_linear_task(0, n=300, dim=dim, noise=noise)
        configs = [
            TaskConfig(neg, ModelKind.MLP, seed=3, mlp_epochs=40) for neg in (ObjLevel.EN, ObjLevel.HN)
        ]
        fit, runs = harness.train_mlp, []

        def counted(*args, **kwargs):
            result = fit(*args, **kwargs)
            runs.append((result.kept_epoch, len(result.epoch_losses)))
            return result

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(harness, "train_mlp", counted)
        rows = run_cells(configs, labels, feats, TEST_NEGATIVE_SETS)
        assert all(ran == 40 for _, ran in runs) and min(kept for kept, _ in runs) < 40
        sha = hashlib.sha256()
        for cells in rows:
            for report in cells:
                sha.update(json.dumps(report.to_json(), sort_keys=True).encode())
            for model in cells[0].models:
                for name in ("w1", "b1", "w2", "b2"):
                    sha.update(getattr(model, name).tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("model", [ModelKind.PCBM_DT, ModelKind.PCBM_LR])
    def test_tree_and_logistic_draws_stay_in_process(self, tmp_path, monkeypatch, model):
        configs, labels, feats = self.grid(model)
        fit = {ModelKind.PCBM_DT: harness.train_tree, ModelKind.PCBM_LR: harness.train_logreg}[model]
        fits = self.log_fits(tmp_path, monkeypatch, fit)
        rows = run_cells(configs, labels, feats, TEST_NEGATIVE_SETS)
        assert len(fits()) == sum(len(cells[0].models) for cells in rows) >= 2
        assert {pid for pid, _, _ in fits()} == {str(os.getpid())}

    @needs_two_cpus
    def test_first_failing_draw_in_draw_order_raises(self, tmp_path, monkeypatch):
        # Draw 0 fails last; its error is the one raised, as in-process,
        # and no worker outlives the run.
        configs, labels, feats = self.grid()
        first = derive_seed(configs[0].seed, 1, 0)

        def diverge(*args, seed, **kwargs):
            if seed == first:
                time.sleep(0.3)
            raise NumericError(f"draw with seed {seed} diverged")

        fits = self.log_fits(tmp_path, monkeypatch, diverge)
        with pytest.raises(NumericError, match=f"^draw with seed {first} diverged$"):
            run_cells(configs, labels, feats, TEST_NEGATIVE_SETS)
        assert str(first) in {seed for _, _, seed in fits()}
        assert multiprocessing.active_children() == []

    @needs_two_cpus
    def test_a_worker_that_dies_breaks_the_run(self, monkeypatch):
        configs, labels, feats = self.grid()
        parent = os.getpid()

        def die(*args, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("an MLP draw was fitted in the parent")
            os._exit(1)

        monkeypatch.setattr(harness, "train_mlp", die)
        message = "a worker process fitting the MLP draws died; no output was written"
        with pytest.raises(GazeLabError) as raised:
            run_cells(configs, labels, feats, TEST_NEGATIVE_SETS)
        assert type(raised.value) is GazeLabError and str(raised.value) == message
        assert multiprocessing.active_children() == []

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
