"""Span projection, annotator merging, and threshold sweeps."""

import warnings

import numpy as np
import pytest

from gazelab import (
    ClipDelimitation,
    ClipLabel,
    Concept,
    ObjLevel,
    OverlapBasis,
    ProjectionConfig,
    SpanAnnotation,
    SweepRow,
    fuse,
    fuse_and_sweep,
    merge,
    overlap_fraction,
    project,
    sweep_thresholds,
)
from gazelab.errors import InvariantViolation, PreconditionError
from synthfix import labels_as_spans, random_fusion_fixture

CLIP = ClipDelimitation("c1", "f", 0.0, 10.0)


def span(start, end, level, concepts=(Concept.BODY,), annotator="a1"):
    cs = frozenset() if level is ObjLevel.EN else frozenset(concepts)
    return SpanAnnotation("f", annotator, start, end, level, cs)


class TestProject:
    def test_low_overlap_span_dropped(self):
        # 1.5/10 = 15% misses the 20% bar, 8/10 = 80% qualifies.
        labels = project(
            [span(0.0, 1.5, ObjLevel.S), span(2.0, 10.0, ObjLevel.HN, (Concept.CLOTHING,))],
            [CLIP],
        )
        assert labels == [
            ClipLabel("c1", ObjLevel.HN, frozenset({Concept.CLOTHING}), frozenset({"a1"}))
        ]

    def test_uncovered_clip_defaults_to_en(self):
        labels = project([span(20.0, 30.0, ObjLevel.S)], [CLIP, ClipDelimitation("c2", "f", 20.0, 30.0)])
        assert labels[0].level is ObjLevel.EN and labels[0].concepts == frozenset()

    def test_same_level_concepts_union(self):
        labels = project(
            [span(0.0, 5.0, ObjLevel.S, (Concept.BODY,)), span(5.0, 10.0, ObjLevel.S, (Concept.LOOK,))],
            [CLIP],
        )
        assert labels[0].level is ObjLevel.S
        assert labels[0].concepts == frozenset({Concept.BODY, Concept.LOOK})

    def test_lower_level_concepts_not_unioned(self):
        labels = project(
            [span(0.0, 10.0, ObjLevel.S, (Concept.BODY,)), span(0.0, 10.0, ObjLevel.HN, (Concept.LOOK,))],
            [CLIP],
        )
        assert labels[0].concepts == frozenset({Concept.BODY})

    def test_exact_threshold_qualifies(self):
        # 2/10 is exactly 20%; "at least 20%" reads inclusive.
        labels = project([span(0.0, 2.0, ObjLevel.S)], [CLIP])
        assert labels[0].level is ObjLevel.S

    def test_span_duration_basis(self):
        cfg = ProjectionConfig(overlap_basis=OverlapBasis.SPAN_DURATION)
        s = span(0.0, 1.0, ObjLevel.S)
        assert overlap_fraction(s, CLIP, OverlapBasis.CLIP_DURATION) == pytest.approx(0.1)
        assert overlap_fraction(s, CLIP, OverlapBasis.SPAN_DURATION) == pytest.approx(1.0)
        assert project([s], [CLIP], cfg)[0].level is ObjLevel.S

    def test_film_mismatch(self):
        with pytest.raises(PreconditionError, match="spans and clips cover several films"):
            project([span(0.0, 5.0, ObjLevel.S)], [ClipDelimitation("c", "other", 0.0, 10.0)])

    def test_mixed_annotators_rejected(self):
        with pytest.raises(InvariantViolation):
            project(
                [span(0.0, 5.0, ObjLevel.S), span(5.0, 9.0, ObjLevel.S, annotator="a2")],
                [CLIP],
            )

    def test_empty_spans_give_all_en_timeline(self):
        labels = project([], [CLIP])
        assert labels == [ClipLabel("c1", ObjLevel.EN, frozenset(), frozenset())]

    def test_every_clip_labeled(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            clips, spans_by = random_fusion_fixture(rng)
            for aid, spans in spans_by.items():
                assert len(project(spans, clips)) == len(clips)

    def test_monotone_in_threshold(self):
        # Raising the threshold never raises any clip's level.
        rng = np.random.default_rng(5)
        for _ in range(40):
            clips, spans_by = random_fusion_fixture(rng)
            spans = spans_by["a1"]
            thresholds = sorted(rng.uniform(0.05, 1.0, 4))
            previous = None
            for t in thresholds:
                labels = project(spans, clips, ProjectionConfig(overlap_threshold=t))
                if previous is not None:
                    for before, after in zip(previous, labels):
                        assert after.level <= before.level
                previous = labels

    def test_reprojecting_clip_aligned_labels_is_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            clips, spans_by = random_fusion_fixture(rng)
            labels = project(spans_by["a1"], clips)
            aligned = labels_as_spans(labels, clips, "a1")
            for t in (0.05, 0.2, 0.8, 1.0):
                again = project(aligned, clips, ProjectionConfig(overlap_threshold=t))
                assert again == labels


class TestMerge:
    def test_max_level_wins_and_drops_lower_concepts(self):
        merged = merge(
            [
                ("A", [ClipLabel("c1", ObjLevel.S, frozenset({Concept.BODY}), frozenset({"A"}))]),
                ("B", [ClipLabel("c1", ObjLevel.HN, frozenset({Concept.CLOTHING}), frozenset({"B"}))]),
            ]
        )
        assert merged == [ClipLabel("c1", ObjLevel.S, frozenset({Concept.BODY}), frozenset({"A"}))]

    def test_same_level_union(self):
        merged = merge(
            [
                ("A", [ClipLabel("c1", ObjLevel.S, frozenset({Concept.BODY}))]),
                ("B", [ClipLabel("c1", ObjLevel.S, frozenset({Concept.LOOK}))]),
            ]
        )
        assert merged[0].concepts == frozenset({Concept.BODY, Concept.LOOK})
        assert merged[0].annotators == frozenset({"A", "B"})

    def test_single_annotator_identity(self):
        labels = [ClipLabel("c1", ObjLevel.S, frozenset({Concept.BODY}), frozenset({"A"}))]
        assert merge([("A", labels)]) == labels

    def test_clip_set_mismatch(self):
        with pytest.raises(PreconditionError, match="labels a different clip set"):
            merge(
                [
                    ("A", [ClipLabel("c1", ObjLevel.EN, frozenset())]),
                    ("B", [ClipLabel("c2", ObjLevel.EN, frozenset())]),
                ]
            )

    def test_an_annotator_with_two_timelines_rejected(self):
        s = [ClipLabel("c1", ObjLevel.S, frozenset({Concept.BODY}))]
        en = [ClipLabel("c1", ObjLevel.EN, frozenset())]
        for timelines in (
            [("a", s), ("a", en)],
            [("a", en), ("a", s)],
            [("a", en), ("b", s), ("a", en)],
        ):
            with pytest.raises(PreconditionError, match="annotator 'a' has more than one timeline"):
                merge(timelines)

    def test_a_repeated_clip_rejected(self):
        one, two = (ClipLabel(c, ObjLevel.EN, frozenset()) for c in ("c1", "c2"))
        for timelines, annotator in (
            ([("A", [one, one])], "A"),
            ([("A", [one, one]), ("B", [one, one])], "A"),
            ([("A", [one, two]), ("B", [one, two, one])], "B"),
            ([("A", [one, two]), ("B", [two, one, two])], "B"),
        ):
            with pytest.raises(PreconditionError, match=f"annotator '{annotator}' labels a"):
                merge(timelines)

    def test_timelines_in_another_clip_order_are_rekeyed(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            clips, spans_by = random_fusion_fixture(rng)
            timelines = [(aid, project(sp, clips)) for aid, sp in spans_by.items()]
            shuffled = [(aid, list(rng.permutation(labels))) for aid, labels in timelines]
            assert merge(timelines[:1] + shuffled[1:]) == merge(timelines)
            assert sorted(merge(shuffled), key=lambda l: l.clip_id) == sorted(
                merge(timelines), key=lambda l: l.clip_id
            )

    def test_empty_input(self):
        with pytest.raises(PreconditionError, match="merge needs at least one annotator timeline"):
            merge([])

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            clips, spans_by = random_fusion_fixture(rng)
            timelines = [(aid, project(sp, clips)) for aid, sp in spans_by.items()]
            extra = project([], clips)
            timelines.append(("a3", extra))

            def as_dict(labels):
                return {l.clip_id: (l.level, l.concepts, l.annotators) for l in labels}

            base = as_dict(merge(timelines))
            assert as_dict(merge(timelines[::-1])) == base
            # associativity: merge(merge(x, y), z) == merge(x, y, z)
            partial = merge(timelines[:2])
            nested = merge([("AB", partial), timelines[2]])
            flat = merge(timelines)
            assert {l.clip_id: (l.level, l.concepts) for l in nested} == {
                l.clip_id: (l.level, l.concepts) for l in flat
            }


class TestSweep:
    def test_borderline_span_moves_between_thresholds(self):
        # One span covers 15% of its clip: counted at 0.1, dropped at 0.2.
        clips = [ClipDelimitation("c1", "f", 0.0, 10.0), ClipDelimitation("c2", "f", 10.0, 20.0)]
        rows = sweep_thresholds([span(0.0, 1.5, ObjLevel.S)], clips, [0.1, 0.2])
        assert rows[0].counts[ObjLevel.S] == 1 and rows[0].counts[ObjLevel.EN] == 1
        assert rows[1].counts[ObjLevel.S] == 0 and rows[1].counts[ObjLevel.EN] == 2
        assert rows[1].deltas[ObjLevel.S] == -1 and rows[1].deltas[ObjLevel.EN] == 1

    def test_single_threshold_zero_deltas(self):
        clips = [CLIP]
        rows = sweep_thresholds([span(0.0, 9.0, ObjLevel.S)], clips, [0.2])
        assert len(rows) == 1
        assert all(d == 0 for d in rows[0].deltas.values())

    def test_positive_levels_shrink_as_threshold_grows(self):
        # With only positive-level spans, S and NS counts cannot grow
        # with the threshold while EN and HN absorb the difference.
        rng = np.random.default_rng(13)
        for _ in range(15):
            clips, spans_by = random_fusion_fixture(rng)
            spans = [s for group in spans_by.values() for s in group]
            rows = sweep_thresholds(spans, clips, [0.1, 0.2, 0.3, 0.4])
            for before, after in zip(rows, rows[1:]):
                assert after.counts[ObjLevel.S] <= before.counts[ObjLevel.S]
                assert after.counts[ObjLevel.EN] >= before.counts[ObjLevel.EN]

    def test_no_thresholds_rejected(self):
        with pytest.raises(PreconditionError, match="no thresholds to sweep"):
            sweep_thresholds([], [CLIP], [])


class TestFuse:
    def test_spans_on_a_film_without_clips_rejected(self):
        ghost = SpanAnnotation("ghost", "a1", 0.0, 5.0, ObjLevel.S, frozenset({Concept.BODY}))
        with pytest.raises(PreconditionError, match=r"clip index: \['ghost'\]"):
            fuse([span(0.0, 9.0, ObjLevel.S), ghost], [CLIP])
        with pytest.raises(PreconditionError, match=r"clip index: \['ghost'\]"):
            sweep_thresholds([ghost], [CLIP], [0.2])

    def test_fuse_and_sweep_is_fuse_and_sweep_thresholds(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            clips, spans_by = random_fusion_fixture(rng)
            spans = [s for group in spans_by.values() for s in group]
            thresholds = list(rng.uniform(0.01, 1.0, int(rng.integers(1, 5))))
            for basis in OverlapBasis:
                cfg = ProjectionConfig(float(rng.uniform(0.01, 1.0)), basis)
                rows = sweep_thresholds(spans, clips, thresholds, basis)
                assert fuse_and_sweep(spans, clips, cfg, thresholds) == (*fuse(spans, clips, cfg), rows)

    def test_fuse_and_sweep_checks_films_then_thresholds(self):
        cfg = ProjectionConfig()
        other = SpanAnnotation("g", "a1", 0.0, 1.0, ObjLevel.EN, frozenset())
        with pytest.raises(PreconditionError, match="missing from the clip index"):
            fuse_and_sweep([other], [CLIP], cfg, [2.0])
        assert fuse_and_sweep([], [CLIP], cfg, []) == (*fuse([], [CLIP], cfg), [])
        with pytest.raises(InvariantViolation, match="overlap threshold"):
            fuse_and_sweep([], [CLIP], cfg, [0.1, 2.0])

    def test_film_without_annotators_fuses_all_en_silently(self):
        # The empty projection is the only report: the CLI prints it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            projections, merged = fuse([], [CLIP])
        assert projections["f"] == {}
        assert merged["f"][0].level is ObjLevel.EN
        assert merged["f"][0].annotators == frozenset()


def all_pairs_project(spans, clips, cfg=ProjectionConfig()):
    """The projection ``project`` replaced: every span tested on every clip.

    Kept as the reference for the sorted sweep. Takes one film and one
    annotator, as ``project`` does, without its input checks.
    """
    provenance = frozenset(s.annotator_id for s in spans[:1])
    labels = []
    for clip in clips:
        qualifying = [
            s
            for s in spans
            if overlap_fraction(s, clip, cfg.overlap_basis) >= cfg.overlap_threshold
        ]
        if not qualifying:
            labels.append(ClipLabel(clip.clip_id, ObjLevel.EN, frozenset(), provenance))
            continue
        top = max(s.level for s in qualifying)
        concepts = frozenset().union(*(s.concepts for s in qualifying if s.level == top))
        labels.append(ClipLabel(clip.clip_id, top, concepts, provenance))
    return labels


def all_pairs_sweep(spans_by_annotator, clips, thresholds, basis):
    """The sweep ``sweep_thresholds`` replaced: a full all-pairs fuse per threshold."""
    films = sorted({c.film_id for c in clips})
    rows = []
    for t in thresholds:
        cfg = ProjectionConfig(overlap_threshold=t, overlap_basis=basis)
        counts = {level: 0 for level in ObjLevel}
        for film in films:
            film_clips = [c for c in clips if c.film_id == film]
            timelines = [
                (aid, all_pairs_project([s for s in sp if s.film_id == film], film_clips, cfg))
                for aid, sp in sorted(spans_by_annotator.items())
            ]
            for lbl in merge(timelines):
                counts[lbl.level] += 1
        base = rows[0].counts if rows else counts
        rows.append(SweepRow(t, counts, {lv: counts[lv] - base[lv] for lv in ObjLevel}))
    return rows


def reference_fixture(rng, films=("f", "g")):
    """Clips and two or three annotators' spans built to hit the sweep's edge cases.

    Times are multiples of 0.25 in half the fixtures, so that spans end
    exactly on clip boundaries (an intersection of exactly 0) and
    fractions land exactly on thresholds; each timeline also holds a
    span nested in another, a span longer than several clips, and EN
    spans. Clips come shuffled across films; in a quarter of the
    fixtures they overlap one another.
    """
    quantized = rng.random() < 0.5

    def time(x):
        return float(np.round(x * 4) / 4) if quantized else float(x)

    overlapping = rng.random() < 0.25
    clips = []
    spans_by_annotator = {f"a{i}": [] for i in range(int(rng.integers(2, 4)))}
    for film in films:
        n_clips = int(rng.integers(1, 9))
        if overlapping:
            starts = [time(x) for x in rng.uniform(0, 40, n_clips)]
            bounds = [(a, a + time(rng.uniform(0.25, 15))) for a in starts]
        else:
            edges = np.cumsum(rng.uniform(0.25, 8, n_clips + 1))
            edges = sorted({time(e) for e in edges})
            bounds = list(zip(edges, edges[1:]))
        film_clips = [ClipDelimitation(f"{film}{i}", film, a, b) for i, (a, b) in enumerate(bounds)]
        clips.extend(film_clips)
        horizon = max(c.end for c in film_clips)
        edges = sorted({c.start for c in film_clips} | {c.end for c in film_clips})
        for aid, spans in spans_by_annotator.items():
            windows = []
            for _ in range(int(rng.integers(0, 6))):
                a = time(rng.uniform(0, horizon))
                windows.append((a, a + time(rng.uniform(0.25, horizon / 3 + 0.25))))
            # Touching a clip boundary from either side.
            edge = edges[int(rng.integers(len(edges)))]
            windows.append((edge, edge + time(rng.uniform(0.25, 5))))
            if edge > 0.25:
                windows.append((max(0.0, edge - time(rng.uniform(0.25, 5))), edge))
            # Nested: a span inside the previous one.
            outer_a, outer_b = windows[-1]
            inner_a = outer_a + (outer_b - outer_a) * float(rng.uniform(0, 0.5))
            inner_b = outer_b - (outer_b - inner_a) * float(rng.uniform(0, 0.5))
            if inner_a < inner_b:
                windows.append((inner_a, inner_b))
            # Longer than several clips.
            windows.append((0.0, horizon * float(rng.uniform(0.5, 1.2))))
            for a, b in windows:
                if not a < b:
                    continue
                level = ObjLevel(int(rng.integers(0, 4)))
                picked = rng.choice(8, int(rng.integers(1, 3)), replace=False)
                concepts = frozenset(Concept(int(c)) for c in picked if level is not ObjLevel.EN)
                spans.append(SpanAnnotation(film, aid, a, b, level, concepts))
    order = rng.permutation(len(clips))
    return [clips[i] for i in order], spans_by_annotator


REFERENCE_FIXTURES = 200
TINY = float(np.nextafter(0.0, 1.0))


def reference_thresholds(rng):
    return [TINY, float(rng.uniform(0.01, 1.0)), 0.2, 0.25, 0.5, 1.0]


class TestAllPairsReference:
    """The sorted sweep gives exactly the labels and counts of all-pairs testing."""

    def test_project_matches(self):
        rng = np.random.default_rng(2024)
        touching = 0
        for _ in range(REFERENCE_FIXTURES):
            clips, spans_by = reference_fixture(rng, films=("f",))
            touching += sum(
                min(s.end, c.end) == max(s.start, c.start)
                for spans in spans_by.values()
                for s in spans
                for c in clips
            )
            for basis in OverlapBasis:
                for t in reference_thresholds(rng):
                    cfg = ProjectionConfig(overlap_threshold=t, overlap_basis=basis)
                    for spans in spans_by.values():
                        assert project(spans, clips, cfg) == all_pairs_project(spans, clips, cfg)
        assert touching > REFERENCE_FIXTURES

    def test_fuse_matches(self):
        rng = np.random.default_rng(2026)
        for _ in range(REFERENCE_FIXTURES):
            clips, spans_by = reference_fixture(rng)
            spans = [s for group in spans_by.values() for s in group]
            for basis in OverlapBasis:
                for t in reference_thresholds(rng):
                    cfg = ProjectionConfig(overlap_threshold=t, overlap_basis=basis)
                    projections, merged = fuse(spans, clips, cfg)
                    for film in ("f", "g"):
                        film_clips = [c for c in clips if c.film_id == film]
                        film_spans = {
                            aid: [s for s in group if s.film_id == film]
                            for aid, group in sorted(spans_by.items())
                        }
                        timelines = {
                            aid: all_pairs_project(group, film_clips, cfg)
                            for aid, group in film_spans.items()
                            if group
                        }
                        assert projections[film] == timelines
                        assert merged[film] == merge(list(timelines.items()))

    def test_sweep_matches(self):
        rng = np.random.default_rng(2025)
        for _ in range(REFERENCE_FIXTURES):
            clips, spans_by = reference_fixture(rng)
            spans = [s for group in spans_by.values() for s in group]
            thresholds = reference_thresholds(rng)
            for basis in OverlapBasis:
                expected = all_pairs_sweep(spans_by, clips, thresholds, basis)
                assert sweep_thresholds(spans, clips, thresholds, basis) == expected
                # Any order of thresholds or spans, deltas against the first threshold.
                backwards = thresholds[::-1]
                expected = all_pairs_sweep(spans_by, clips, backwards, basis)
                assert sweep_thresholds(spans[::-1], clips, backwards, basis) == expected
