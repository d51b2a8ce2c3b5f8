"""Concept vectors, the concept subspace, and the interpretable stack."""

import json

import numpy as np
import pytest

from gazelab import (
    CONCEPTS,
    ClipLabel,
    Concept,
    ConceptVector,
    EmbeddingTable,
    ModelKind,
    NegativeMode,
    ObjLevel,
    TaskConfig,
    balanced_train_sets,
    build_concept_sets,
    cbm,
    concept_presence_f1,
    export_tree_report,
    fit_all_cavs,
    fit_cav,
    make_folds_from_ids,
    model_to_json,
    score_table,
    train_logreg,
    train_pcbm,
    train_svm,
    train_svm_stack,
    train_tree,
)
from gazelab.cbm import DEFAULT_C_GRID, CavCvConfig
from gazelab.errors import InvariantViolation, PreconditionError
from gazelab.harness import FOLDS, balanced_draws, derive_seed
from gazelab.models import SVM_GAP_TOL, DecisionTree, TreeNode, f1
from synthfix import make_compositional, make_entangled, run_cells


def lbl(cid, level, *concepts):
    return ClipLabel(cid, level, frozenset(concepts))


class TestBuildConceptSets:
    LABELS = [
        lbl("c1", ObjLevel.S, Concept.BODY),
        lbl("c2", ObjLevel.EN),
        lbl("c3", ObjLevel.HN, Concept.LOOK),
    ]

    def test_en_only_negatives(self):
        pos, neg = build_concept_sets(self.LABELS, Concept.BODY, NegativeMode.EN_ONLY)
        assert pos == ("c1",) and neg == ("c2",)

    def test_en_plus_without_negatives(self):
        pos, neg = build_concept_sets(self.LABELS, Concept.BODY, NegativeMode.EN_PLUS_WITHOUT)
        assert pos == ("c1",) and set(neg) == {"c2", "c3"}

    def test_absent_concept(self):
        with pytest.raises(PreconditionError, match="no positive samples for concept 'Clothing'"):
            build_concept_sets(self.LABELS, Concept.CLOTHING, NegativeMode.EN_ONLY)

    def test_ns_rejected(self):
        with pytest.raises(PreconditionError):
            build_concept_sets(
                self.LABELS + [lbl("c4", ObjLevel.NS, Concept.BODY)],
                Concept.BODY,
                NegativeMode.EN_ONLY,
            )


class TestFitCav:
    def test_two_point_normal_parallel_to_difference(self):
        emb = EmbeddingTable({"p": np.array([2.0, 1.0, 0.0]), "n": np.array([0.0, -1.0, 0.0])})
        cav = fit_cav(emb, ["p"], ["n"], Concept.BODY)
        diff = np.array([2.0, 2.0, 0.0])
        diff /= np.linalg.norm(diff)
        assert float(cav.unit_normal @ diff) == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.norm(cav.unit_normal) == pytest.approx(1.0, abs=1e-9)

    def test_axis_recovery_and_presence(self):
        labels, emb = make_compositional(seed=1, n=240, dim=24)
        concept = Concept.BODY
        pos, neg = build_concept_sets(labels, concept, NegativeMode.EN_PLUS_WITHOUT)
        cav = fit_cav(emb, pos, neg, concept, mode=NegativeMode.EN_PLUS_WITHOUT, seed=4)
        angle = np.degrees(np.arccos(min(1.0, abs(float(cav.unit_normal[int(concept)])))))
        assert angle < 5.0
        assert cav.cv_f1 >= 0.99

    def test_identical_distributions_near_chance(self):
        scores = []
        for seed in range(4):
            rng = np.random.default_rng(seed)
            rows = {f"r{i}": rng.normal(0, 1, 8) for i in range(160)}
            emb = EmbeddingTable(rows)
            ids = list(rows)
            cav = fit_cav(emb, ids[:80], ids[80:], Concept.LOOK, seed=seed)
            scores.append(cav.cv_f1)
        # both classes drawn from the same cloud: nowhere near separable
        assert float(np.mean(scores)) < 0.8

    def test_missing_embedding(self):
        emb = EmbeddingTable({"a": np.zeros(4), "b": np.ones(4)})
        with pytest.raises(PreconditionError, match="no embedding for clip 'ghost'"):
            fit_cav(emb, ["a"], ["ghost"], Concept.BODY)

    def test_matches_the_per_c_loop(self):
        # 23 positives and 40 EN + 35 other negatives: neither class is a
        # multiple of k = 10, so training sets differ in row count across
        # rotations, and every rotation has three balanced draws.
        rng = np.random.default_rng(11)
        labels = [lbl(f"en{i}", ObjLevel.EN) for i in range(40)]
        labels += [lbl(f"p{i}", ObjLevel.S, Concept.BODY) for i in range(23)]
        labels += [lbl(f"o{i}", ObjLevel.HN, Concept.LOOK) for i in range(35)]
        rows = {}
        for label in labels:
            rows[label.clip_id] = rng.normal(0, 1, 8)
            rows[label.clip_id][0] += 1.0 if Concept.BODY in label.concepts else 0.0
        emb = EmbeddingTable(rows)
        pos, neg = build_concept_sets(labels, Concept.BODY, NegativeMode.EN_PLUS_WITHOUT)
        seed = 7

        # fit_cav's selection as a C -> rotation -> draw loop of single fits.
        def matrices(pos_ids, neg_ids):
            X = emb.matrix(list(pos_ids) + list(neg_ids)).astype(np.float64)
            return X, np.array([1] * len(pos_ids) + [0] * len(neg_ids))

        plan = make_folds_from_ids({"pos": pos, "neg": neg}, seed=seed)
        split = lambda folds: matrices(plan.ids("pos", folds), plan.ids("neg", folds))
        c_means, row_counts = [], set()
        for c in sorted(DEFAULT_C_GRID):
            scores = []
            for rotation in range(CavCvConfig.rotations):
                others = [fold for fold in range(FOLDS - 1) if fold != rotation]
                val_X, val_y = split([rotation])
                draw_rng = np.random.default_rng(derive_seed(seed, 3, rotation))
                draws = balanced_draws(plan.ids("pos", others), plan.ids("neg", others), draw_rng)
                assert len(draws) == 3
                for draw in draws:
                    X, y = matrices(*draw)
                    row_counts.add(len(y))
                    model = train_svm(X, y, c=c)
                    scores.append(f1(model.predict(val_X), val_y).f1)
            c_means.append((c, float(np.mean(scores))))
        assert len(row_counts) == 2
        assert len({mean for _, mean in c_means}) > 1  # the choice of C matters
        best_c = max(c_means, key=lambda item: item[1])[0]
        model = train_svm(*split(range(FOLDS - 1)), c=best_c)
        test_X, test_y = split([plan.test_fold])
        norm = float(np.linalg.norm(model.weights))

        cav = fit_cav(emb, pos, neg, Concept.BODY, mode=NegativeMode.EN_PLUS_WITHOUT, seed=seed)
        assert cav.chosen_c == best_c
        assert np.array_equal(cav.unit_normal, model.weights / norm)
        assert cav.bias == model.bias / norm
        assert cav.cv_f1 == f1(model.predict(test_X), test_y).f1


FOLDED = (Concept.LOOK, Concept.BODY)


def two_folded_six_rare():
    """40 EN clips, 24 S clips each for LOOK and BODY, 3 or 5 HN clips for each other concept.

    LOOK and BODY are cross-validated in both negative modes, on sets of
    the same sizes, so their grids could share stacks. Every other
    concept is too rare to fold; with EN-only negatives the rare
    concepts' training sets have two row counts (43 and 45).
    """
    rng = np.random.default_rng(21)
    labels = [lbl(f"en{i}", ObjLevel.EN) for i in range(40)]
    for concept in CONCEPTS:
        count = 24 if concept in FOLDED else 3 if int(concept) % 2 else 5
        level = ObjLevel.S if concept in FOLDED else ObjLevel.HN
        labels += [lbl(f"{concept.label}{i}", level, concept) for i in range(count)]
    rows = {}
    for label in labels:
        rows[label.clip_id] = rng.normal(0, 1, 8)
        for concept in label.concepts:
            rows[label.clip_id][int(concept)] += 1.5
    return labels, EmbeddingTable(rows)


class TestFitAllCavs:
    def test_axes_record_their_gap_and_choice(self):
        labels, emb = two_folded_six_rare()
        for cav in fit_all_cavs(emb, labels, seed=5):
            doc = json.loads(json.dumps(cav.to_json()))
            assert doc["converged"] and 0.0 <= doc["gap"] <= SVM_GAP_TOL
            if cav.concept in FOLDED:
                assert [c for c, _ in doc["c_mean_f1"]] == list(DEFAULT_C_GRID)
                # The first best mean, so ties go to the smaller C.
                assert doc["chosen_c"] == max(doc["c_mean_f1"], key=lambda p: p[1])[0]
            else:
                assert doc["chosen_c"] is None and doc["c_mean_f1"] is None
            assert ConceptVector.from_json(doc).to_json() == doc

    def test_axes_written_without_their_solve_record_read_as_unknown(self):
        labels, emb = two_folded_six_rare()
        for cav in fit_all_cavs(emb, labels, seed=5):
            doc = cav.to_json()
            for key in ("gap", "converged", "chosen_c", "c_mean_f1"):
                del doc[key]
            read = ConceptVector.from_json(doc)
            assert (read.gap, read.chosen_c, read.c_mean_f1) == (None, None, None)
            assert np.array_equal(read.unit_normal, cav.unit_normal) and read.bias == cav.bias
            assert read.to_json()["gap"] is None and read.to_json()["converged"] is None

    @pytest.mark.parametrize("mode", list(NegativeMode))
    def test_final_fits_share_stacks_and_match_fit_cav(self, monkeypatch, mode):
        labels, emb = two_folded_six_rare()
        calls = []

        def counted(X, y, cs):
            calls.append((X.shape[1], tuple(cs), X.shape[0]))
            return train_svm_stack(X, y, cs)

        monkeypatch.setattr(cbm, "train_svm_stack", counted)
        cavs = fit_all_cavs(emb, labels, mode=mode, seed=5)
        shared = list(calls)
        alone = {}  # concept → its fit_cav's (rows, C tuple, problems) calls
        for cav, concept in zip(cavs, CONCEPTS):
            pos, neg = build_concept_sets(labels, concept, mode)
            calls[:] = []
            single = fit_cav(emb, pos, neg, concept, mode=mode, seed=derive_seed(5, 4, int(concept)))
            assert cav.concept is concept and cav.negative_mode is mode
            assert np.array_equal(cav.unit_normal, single.unit_normal)
            assert cav.bias == single.bias
            assert cav.cv_f1 == single.cv_f1
            alone[concept] = list(calls)

        # The grids run concept by concept, as fit_cav runs them, although
        # LOOK's and BODY's have the same row counts.
        def grids(calls):
            return [call for call in calls if call[1] == DEFAULT_C_GRID]

        assert grids(shared) == [call for c in CONCEPTS for call in grids(alone[c])]
        assert [call[0] for call in grids(alone[Concept.LOOK])] == [
            call[0] for call in grids(alone[Concept.BODY])
        ]
        # The final fits, one per concept at one C, make one stack per
        # distinct (rows, C) holding every concept's fit of that key.
        finals = [call for call in shared if call[1] != DEFAULT_C_GRID]
        expected = {}
        for concept in CONCEPTS:
            ((rows, cs, draws),) = [call for call in alone[concept] if len(call[1]) == 1]
            expected[rows, cs] = expected.get((rows, cs), 0) + draws
        assert {(rows, cs): draws for rows, cs, draws in finals} == expected
        assert len(finals) == len(expected) < len(CONCEPTS)


class TestConceptScores:
    """``score_table``: the coordinates of every clip in the concept subspace.

    Tables store float32, so every input row here is float32-exact and
    the expectations use exactly the stored values.
    """

    def _cavs(self, dim=16, seed=0):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.normal(0, 1, (dim, 8)))
        return self._as_cavs(basis.T)

    def _hadamard_cavs(self):
        # Eight orthonormal 16-d rows with entries +-1/4: exact in float32.
        h = np.array([[1.0]])
        for _ in range(4):
            h = np.block([[h, h], [h, -h]])
        return self._as_cavs(h[:8] / 4.0), h[8:] / 4.0

    @staticmethod
    def _as_cavs(normals):
        return [
            ConceptVector(
                concept=c,
                unit_normal=normals[int(c)],
                bias=0.0,
                negative_mode=NegativeMode.EN_ONLY,
                cv_f1=1.0,
                gap=None,
            )
            for c in CONCEPTS
        ]

    @staticmethod
    def _scores(rows, cavs):
        return score_table(EmbeddingTable({f"c{i}": r for i, r in enumerate(rows)}), cavs)

    def test_self_projection(self):
        cavs, _ = self._hadamard_cavs()
        scores = self._scores([cav.unit_normal for cav in cavs], cavs)
        for j in range(8):
            np.testing.assert_array_equal(scores[f"c{j}"], np.eye(8)[j])

    def test_orthogonal_vector_scores_zero(self):
        cavs, complement = self._hadamard_cavs()
        rng = np.random.default_rng(1)
        x = rng.integers(-8, 9, 8) @ complement  # outside the concept subspace
        assert np.any(x != 0.0)
        np.testing.assert_array_equal(self._scores([x], cavs)["c0"], np.zeros(8))

    def test_matches_bruteforce_dot_products(self):
        cavs = self._cavs(dim=16, seed=2)
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 16).astype(np.float32)
        scores = self._scores([x], cavs)["c0"]
        for i, cav in enumerate(cavs):
            manual = sum(float(a) * float(b) for a, b in zip(x, cav.unit_normal))
            assert scores[i] == pytest.approx(manual, abs=1e-9)

    def test_linearity(self):
        cavs = self._cavs(dim=16, seed=4)
        rng = np.random.default_rng(5)
        # Small integers keep a * x + b * z exact in float32.
        x, z = rng.integers(-8, 9, (2, 16)).astype(np.float64)
        a, b = 2.5, -1.25
        scores = self._scores([a * x + b * z, x, z], cavs)
        expected = a * scores["c1"] + b * scores["c2"]
        np.testing.assert_allclose(scores["c0"], expected, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(InvariantViolation, match="has 16 components, the embeddings have 5"):
            self._scores([np.zeros(5)], self._cavs(dim=16))

    def test_axes_of_mixed_dimensions_rejected(self):
        cavs = self._cavs(dim=16)
        cavs[3] = self._cavs(dim=9)[3]
        with pytest.raises(InvariantViolation, match="has 9 components, the embeddings have 16"):
            self._scores([np.zeros(16)], cavs)

    def test_wrong_cav_count_rejected(self):
        with pytest.raises(InvariantViolation):
            self._scores([np.zeros(16)], self._cavs()[:-1])

    def test_score_table_matches_single_scores(self):
        # Each clip is scored by its own product: a one-product table
        # (all rows against the basis at once) may differ in the last
        # bits, which would move every downstream threshold.
        cavs = self._cavs(dim=64, seed=6)
        rng = np.random.default_rng(7)
        emb = EmbeddingTable({f"c{i}": rng.normal(0, 1, 64) for i in range(50)})
        basis = np.stack([cav.unit_normal for cav in cavs])
        table = score_table(emb, cavs)
        assert list(table) == list(emb.clip_ids())
        for cid in emb.clip_ids():
            assert table[cid].tobytes() == (emb[cid].astype(np.float64) @ basis.T).tobytes()


class TestPresence:
    def test_presence_invariant_under_hyperplane_rescaling(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(2, 0.5, (30, 6)), rng.normal(-2, 0.5, (30, 6))])
        y = np.array([1] * 30 + [0] * 30)
        svm = train_svm(X, y, c=1.0)
        norm = np.linalg.norm(svm.weights)
        base = (X @ (svm.weights / norm) + svm.bias / norm) > 0
        scaled = (X @ svm.weights + svm.bias) > 0
        assert np.array_equal(base, scaled)

    def test_en_only_cav_suffers_on_harder_negatives(self):
        # Directional check on entangled concepts: the same CAV scores
        # lower when the test negatives include positive-level clips
        # lacking the concept.
        drops = 0
        for seed in range(3):
            train_labels, train_emb = make_entangled(seed, n=240)
            test_labels, test_emb = make_entangled(seed + 900, n=400)
            concept = Concept.TYPE_OF_SHOT
            pos, neg = build_concept_sets(train_labels, concept, NegativeMode.EN_ONLY)
            cav = fit_cav(train_emb, pos, neg, concept, seed=seed)
            easy_pos, easy_neg = build_concept_sets(test_labels, concept, NegativeMode.EN_ONLY)
            hard_pos, hard_neg = build_concept_sets(
                test_labels, concept, NegativeMode.EN_PLUS_WITHOUT
            )
            easy = concept_presence_f1(cav, test_emb, easy_pos, easy_neg).f1
            hard = concept_presence_f1(cav, test_emb, hard_pos, hard_neg).f1
            drops += hard < easy
        assert drops == 3

    def test_all_negative_test_set(self):
        rng = np.random.default_rng(1)
        emb = EmbeddingTable({f"c{i}": rng.normal(0, 1, 4) for i in range(6)})
        cav = ConceptVector(
            concept=Concept.BODY,
            unit_normal=np.array([1.0, 0.0, 0.0, 0.0]),
            bias=0.0,
            negative_mode=NegativeMode.EN_ONLY,
            cv_f1=1.0,
            gap=None,
        )
        metrics = concept_presence_f1(cav, emb, [], list(emb.clip_ids()))
        assert metrics.f1 == 0.0
        assert metrics.support_positive == 0


PCBM_KINDS = (ModelKind.PCBM_DT, ModelKind.PCBM_LR)
EN_NEGATIVES = frozenset({ObjLevel.EN})


class TestPcbm:
    def test_compositional_oracle(self):
        labels, emb = make_compositional(seed=2, n=300, dim=24)
        from gazelab import fit_all_cavs

        cavs = fit_all_cavs(emb, labels, mode=NegativeMode.EN_ONLY, seed=8)
        dt_cfg, lr_cfg = (TaskConfig(ObjLevel.EN, kind, seed=9) for kind in PCBM_KINDS)
        ((dt,),) = train_pcbm(emb, labels, [dt_cfg], [EN_NEGATIVES], cavs)
        ((lr,),) = train_pcbm(emb, labels, [lr_cfg], [EN_NEGATIVES], cavs)
        assert dt.mean_f1 >= 0.9
        assert lr.mean_f1 >= 0.8
        assert isinstance(dt.models[-1], DecisionTree)
        assert dt.models[-1].max_depth == 10

    def test_shuffled_labels_stay_near_baseline(self):
        rng = np.random.default_rng(10)
        labels, emb = make_compositional(seed=3, n=300, dim=24)
        # shuffle level assignments over clips, keeping concept sets legal
        shuffled = []
        levels = [l.level for l in labels]
        rng.shuffle(levels)
        for l, new_level in zip(labels, levels):
            concepts = l.concepts
            if new_level is ObjLevel.EN:
                concepts = frozenset()
            elif not concepts:
                concepts = frozenset({Concept.BODY})
            shuffled.append(ClipLabel(l.clip_id, new_level, concepts))
        scores = {cid: rng.normal(0, 1, 8) for cid in emb.clip_ids()}
        cfg = TaskConfig(ObjLevel.EN, ModelKind.PCBM_LR, seed=11)
        ((report,),) = run_cells([cfg], shuffled, scores, [EN_NEGATIVES])
        # F1 should sit near the trivial band for the model's own
        # positive rate, far from the oracle regime
        assert report.mean_f1 <= 0.75

    def test_model_is_the_refit_on_the_last_balanced_draw(self):
        # Oracle: the refit the pipeline used to run after the harness,
        # on the last balanced draw of the same fold plan. Negatives
        # outnumber positives, so there are several draws to tell apart.
        counts = {ObjLevel.S: 20, ObjLevel.EN: 80, ObjLevel.HN: 50}
        labels = [
            ClipLabel(f"{level.name}{i}", level, set() if level is ObjLevel.EN else {Concept.BODY})
            for level, n in counts.items()
            for i in range(n)
        ]
        rng = np.random.default_rng(12)
        scores = {lbl.clip_id: rng.normal(0, 1, 8) for lbl in labels}
        for kind in PCBM_KINDS:
            for train_neg in (ObjLevel.EN, ObjLevel.HN):
                cfg = TaskConfig(train_neg, kind, seed=13)
                ((report,),) = run_cells([cfg], labels, scores, [EN_NEGATIVES])
                assert len(report.models) > 1
                by_level = {}
                for lbl in labels:
                    by_level.setdefault(lbl.level, []).append(lbl.clip_id)
                plan = make_folds_from_ids(by_level, seed=13)
                pos_ids, neg_ids = balanced_train_sets(plan, ObjLevel.S, train_neg)[-1]
                X = np.stack([scores[cid] for cid in pos_ids + neg_ids])
                y = np.array([1] * len(pos_ids) + [0] * len(neg_ids))
                if kind is ModelKind.PCBM_DT:
                    refit = train_tree(X, y, max_depth=10)
                else:
                    refit = train_logreg(X, y, l2=1e-3)
                assert model_to_json(report.models[-1]) == model_to_json(refit)


class TestTreeReport:
    def _leaf(self, n0, n1, depth):
        return TreeNode(class_counts=np.array([n0, n1]), depth=depth)

    def test_depth_one_tree_renders_two_lines_naming_body(self):
        root = TreeNode(
            class_counts=np.array([5, 5]),
            depth=0,
            feature=int(Concept.BODY),
            threshold=0.5,
            left=self._leaf(5, 0, 1),
            right=self._leaf(0, 5, 1),
        )
        text = export_tree_report(DecisionTree(root=root, max_depth=10, n_features=8))
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert all("Body" in line for line in lines)
        assert "negative" in lines[0] and "positive" in lines[1]

    def test_single_leaf_renders_one_line(self):
        tree = DecisionTree(root=self._leaf(0, 7, 0), max_depth=10, n_features=8)
        text = export_tree_report(tree)
        assert text == "positive (0/7)\n"

    def test_depth_three_manual_fixture(self):
        # Hand-drawn structure:
        #   Body <= 0.5
        #     Look <= 1.5
        #       Posture <= 2.5 -> negative / positive
        #       (right) -> positive
        #     (right) -> positive
        inner3 = TreeNode(
            class_counts=np.array([3, 2]),
            depth=2,
            feature=int(Concept.POSTURE),
            threshold=2.5,
            left=self._leaf(3, 0, 3),
            right=self._leaf(0, 2, 3),
        )
        inner2 = TreeNode(
            class_counts=np.array([3, 4]),
            depth=1,
            feature=int(Concept.LOOK),
            threshold=1.5,
            left=inner3,
            right=self._leaf(0, 2, 2),
        )
        root = TreeNode(
            class_counts=np.array([3, 9]),
            depth=0,
            feature=int(Concept.BODY),
            threshold=0.5,
            left=inner2,
            right=self._leaf(0, 5, 1),
        )
        text = export_tree_report(DecisionTree(root=root, max_depth=10, n_features=8))
        expected = (
            "|--- Body <= 0.5000 [positive (3/4)]\n"
            "|    |--- Look <= 1.5000 [negative (3/2)]\n"
            "|    |    |--- Posture <= 2.5000: negative (3/0)\n"
            "|    |    |--- Posture > 2.5000: positive (0/2)\n"
            "|    |--- Look > 1.5000: positive (0/2)\n"
            "|--- Body > 0.5000: positive (0/5)\n"
        )
        assert text == expected

    def test_feature_name_count_guard(self):
        tree = DecisionTree(root=self._leaf(1, 0, 0), max_depth=10, n_features=2)
        with pytest.raises(InvariantViolation, match="tree has 2 features, expected the 8"):
            export_tree_report(tree)
