"""Dataset summaries, the per-annotator trend, and class fractions."""

import numpy as np
import pytest

from gazelab import (
    ClipLabel,
    Concept,
    ObjLevel,
    per_annotator_trend,
    summarize,
    task_class_fractions,
)
from gazelab.errors import AllDropped, EmptyInput
from gazelab.stats import summary_rows


def lbl(i, level, *concepts):
    return ClipLabel(f"c{i}", level, frozenset(concepts))


def test_mean_concepts_hand_count():
    labels = [
        lbl(1, ObjLevel.HN, Concept.BODY),
        lbl(2, ObjLevel.HN, Concept.BODY, Concept.LOOK),
    ]
    summary = summarize(labels)
    assert summary.mean_concepts_per_level[ObjLevel.HN] == pytest.approx(1.5)


def test_all_en_dataset():
    labels = [lbl(i, ObjLevel.EN) for i in range(5)]
    summary = summarize(labels)
    assert summary.level_fractions[ObjLevel.EN] == 1.0
    assert summary.mean_concepts_per_level == {}


def test_summarize_with_per_annotator_timelines():
    per_annotator = {
        "a1": [lbl(1, ObjLevel.S, Concept.BODY), lbl(2, ObjLevel.EN)],
        "a2": [lbl(1, ObjLevel.S, Concept.LOOK), lbl(2, ObjLevel.EN)],
    }
    trends = per_annotator_trend(per_annotator)
    assert set(trends) == {"a1", "a2"}
    assert trends["a1"].means == {ObjLevel.S: 1.0}


def test_fractions_sum_to_one():
    rng = np.random.default_rng(0)
    labels = []
    for i in range(200):
        level = ObjLevel(int(rng.integers(0, 4)))
        concepts = (
            frozenset()
            if level is ObjLevel.EN
            else frozenset({Concept(int(rng.integers(0, 8)))})
        )
        labels.append(ClipLabel(f"c{i}", level, concepts))
    summary = summarize(labels)
    assert sum(summary.level_fractions.values()) == pytest.approx(1.0, abs=1e-9)
    # positive-level means are at least 1 because concept sets are non-empty
    assert all(v >= 1.0 for v in summary.mean_concepts_per_level.values())


def test_concept_counts_match_recount_oracle():
    rng = np.random.default_rng(1)
    labels = []
    for i in range(150):
        level = ObjLevel(int(rng.integers(0, 4)))
        concepts = (
            frozenset()
            if level is ObjLevel.EN
            else frozenset(
                Concept(int(c)) for c in rng.choice(8, size=int(rng.integers(1, 5)), replace=False)
            )
        )
        labels.append(ClipLabel(f"c{i}", level, concepts))
    counts = summarize(labels).concept_counts_by_level
    for concept in Concept:
        for level in ObjLevel:
            expected = sum(
                1 for l in labels if l.level is level and concept in l.concepts
            )
            assert counts[int(concept), int(level)] == expected


def test_summarize_permutation_invariant():
    rng = np.random.default_rng(2)
    labels = [lbl(i, ObjLevel.S, Concept(int(rng.integers(0, 8)))) for i in range(30)]
    labels += [lbl(100 + i, ObjLevel.EN) for i in range(20)]
    a = summarize(labels)
    shuffled = [labels[i] for i in rng.permutation(len(labels))]
    b = summarize(shuffled)
    assert a.level_fractions == b.level_fractions
    assert np.array_equal(a.concept_counts_by_level, b.concept_counts_by_level)


def test_empty_input():
    with pytest.raises(EmptyInput):
        summarize([])


class TestAnnotatorTrend:
    def test_monotone_flag(self):
        labels = {
            "a1": [
                lbl(1, ObjLevel.HN, Concept.BODY),
                lbl(2, ObjLevel.NS, Concept.BODY, Concept.LOOK),
                lbl(3, ObjLevel.S, Concept.BODY, Concept.LOOK, Concept.POSTURE),
            ]
        }
        trend = per_annotator_trend(labels)["a1"]
        assert trend.means == {ObjLevel.HN: 1.0, ObjLevel.NS: 2.0, ObjLevel.S: 3.0}
        assert trend.non_decreasing

    def test_non_monotone_flag(self):
        labels = {
            "a1": [
                lbl(1, ObjLevel.HN, Concept.BODY, Concept.LOOK),
                lbl(2, ObjLevel.NS, Concept.BODY),
                lbl(3, ObjLevel.S, Concept.BODY, Concept.LOOK, Concept.POSTURE),
            ]
        }
        assert not per_annotator_trend(labels)["a1"].non_decreasing

    def test_two_annotator_hand_fixture(self):
        labels = {
            "a1": [lbl(1, ObjLevel.HN, Concept.BODY), lbl(2, ObjLevel.S, Concept.BODY, Concept.LOOK)],
            "a2": [lbl(3, ObjLevel.S, Concept.BODY), lbl(4, ObjLevel.EN)],
        }
        trends = per_annotator_trend(labels)
        assert trends["a1"].means == {ObjLevel.HN: 1.0, ObjLevel.S: 2.0}
        assert trends["a2"].means == {ObjLevel.S: 1.0}
        assert trends["a1"].non_decreasing and trends["a2"].non_decreasing


class TestTaskClassFractions:
    def test_hand_count_after_drop(self):
        labels = [
            lbl(1, ObjLevel.EN),
            lbl(2, ObjLevel.EN),
            lbl(3, ObjLevel.HN, Concept.BODY),
            lbl(4, ObjLevel.S, Concept.BODY),
        ]
        fractions = task_class_fractions(labels, drop={ObjLevel.NS})
        assert fractions == {ObjLevel.EN: 0.5, ObjLevel.HN: 0.25, ObjLevel.S: 0.25}

    def test_no_drop_matches_summarize(self):
        rng = np.random.default_rng(3)
        labels = [
            lbl(i, ObjLevel(int(v)), Concept.BODY) if v else lbl(i, ObjLevel.EN)
            for i, v in enumerate(rng.integers(0, 4, 100))
        ]
        summary = summarize(labels)
        fractions = task_class_fractions(labels)
        for level, frac in fractions.items():
            assert frac == pytest.approx(summary.level_fractions[level])

    def test_renormalized_sum(self):
        labels = [lbl(1, ObjLevel.NS, Concept.BODY), lbl(2, ObjLevel.S, Concept.BODY), lbl(3, ObjLevel.EN)]
        fractions = task_class_fractions(labels, drop={ObjLevel.NS})
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)

    def test_all_dropped(self):
        with pytest.raises(AllDropped):
            task_class_fractions([lbl(1, ObjLevel.NS, Concept.BODY)], drop={ObjLevel.NS})


def test_summary_rows_shape():
    labels = [lbl(1, ObjLevel.S, Concept.BODY), lbl(2, ObjLevel.EN)]
    rows = summary_rows(summarize(labels))
    # one header row per level plus one row per (level, concept)
    assert len(rows) == 4 + 4 * 8
    s_row = next(r for r in rows if r[0] == "S" and r[1] == "")
    assert s_row[2] == 1 and s_row[3] == pytest.approx(0.5)
    body_row = next(r for r in rows if r[0] == "S" and r[1] == "Body")
    assert body_row[2] == 1 and body_row[3] == pytest.approx(1.0)
