"""Projection of free spans onto clip delimitations and annotator merging.

A span counts toward a clip when their overlap fraction reaches a
threshold (default 20%, measured against the clip duration). Each clip
takes the highest qualifying level, with the concept sets of the spans
at that level unioned; clips with no qualifying span default to EN.
Merging annotators repeats the same rule across timelines: the maximum
level wins and concepts are unioned only across the annotators that
chose it.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Mapping, Sequence

from .core import ClipDelimitation, ClipLabel, ObjLevel, SpanAnnotation
from .errors import InvariantViolation, PreconditionError, UnannotatedFilmWarning


class OverlapBasis(Enum):
    """Denominator of the overlap fraction."""

    CLIP_DURATION = "clip"
    SPAN_DURATION = "span"


@dataclass(frozen=True)
class ProjectionConfig:
    overlap_threshold: float = 0.2
    overlap_basis: OverlapBasis = OverlapBasis.CLIP_DURATION

    def __post_init__(self):
        if not 0.0 < self.overlap_threshold <= 1.0:
            raise InvariantViolation(
                f"overlap threshold must be in (0, 1], got {self.overlap_threshold}"
            )


def overlap_fraction(
    span: SpanAnnotation, clip: ClipDelimitation, basis: OverlapBasis
) -> float:
    """Fraction of the basis duration covered by the span/clip intersection."""
    inter = min(span.end, clip.end) - max(span.start, clip.start)
    if inter <= 0:
        return 0.0
    denom = clip.duration if basis is OverlapBasis.CLIP_DURATION else span.duration
    return inter / denom


def project(
    spans: Sequence[SpanAnnotation],
    clips: Sequence[ClipDelimitation],
    cfg: ProjectionConfig = ProjectionConfig(),
) -> list[ClipLabel]:
    """Project one annotator's spans onto a film's clips.

    Every clip gets a label: the highest level among spans whose overlap
    fraction meets the threshold (concepts unioned across the spans at
    that level), or EN when nothing qualifies. The provenance of every
    label is the spans' annotator; an empty span list gives an all-EN
    timeline with no provenance.
    """
    provenance = frozenset(s.annotator_id for s in spans)
    if spans:
        films = {s.film_id for s in spans} | {c.film_id for c in clips}
        if len(films) > 1:
            raise PreconditionError(f"spans and clips cover several films: {sorted(films)}")
        if len(provenance) > 1:
            raise InvariantViolation(
                f"project expects a single annotator, got {sorted(provenance)}"
            )

    labels: list[ClipLabel] = []
    for clip, overlaps in zip(clips, _clip_overlaps(spans, clips, cfg.overlap_basis)):
        qualifying = [s for f, s in overlaps if f >= cfg.overlap_threshold]
        if not qualifying:
            labels.append(ClipLabel(clip.clip_id, ObjLevel.EN, frozenset(), provenance))
            continue
        top = max(s.level for s in qualifying)
        concepts = frozenset().union(
            *(s.concepts for s in qualifying if s.level == top)
        )
        labels.append(ClipLabel(clip.clip_id, top, concepts, provenance))
    return labels


def _clip_overlaps(
    spans: Sequence[SpanAnnotation],
    clips: Sequence[ClipDelimitation],
    basis: OverlapBasis,
) -> list[list[tuple[float, SpanAnnotation]]]:
    """Per clip, the ``(overlap_fraction, span)`` of every span that intersects it.

    The spans are sorted by start once. A clip's candidates are the spans
    that start before the clip ends, from the first whose running maximum
    end passes the clip's start, found by two binary searches; the
    comparisons are exact, so no intersecting span is missed. Clips may
    come in any order and may overlap. Costs O((C + S) log S) plus the
    candidates tested, instead of C * S fractions.
    """
    ordered = sorted(spans, key=lambda s: s.start)
    starts = [s.start for s in ordered]
    reach = list(accumulate((s.end for s in ordered), max))
    out = []
    for clip in clips:
        lo, hi = bisect_right(reach, clip.start), bisect_left(starts, clip.end)
        fractions = ((overlap_fraction(s, clip, basis), s) for s in ordered[lo:hi])
        out.append([(f, s) for f, s in fractions if f > 0.0])
    return out


def merge(per_annotator: Sequence[tuple[str, Sequence[ClipLabel]]]) -> list[ClipLabel]:
    """Merge per-annotator timelines labeled on the identical clip set.

    Per clip, the merged level is the maximum over annotators and the
    merged concepts are the union over exactly the annotators at that
    maximum; those annotators form the provenance set.
    """
    if not per_annotator:
        raise PreconditionError("merge needs at least one annotator timeline")
    first_ids = [lbl.clip_id for lbl in per_annotator[0][1]]
    by_annotator: dict[str, dict[str, ClipLabel]] = {}
    for annotator_id, labels in per_annotator:
        table = {lbl.clip_id: lbl for lbl in labels}
        if set(table) != set(first_ids) or len(table) != len(labels):
            raise PreconditionError(f"annotator {annotator_id!r} labels a different clip set")
        by_annotator[annotator_id] = table

    merged: list[ClipLabel] = []
    for clip_id in first_ids:
        entries = [(aid, table[clip_id]) for aid, table in by_annotator.items()]
        top = max(lbl.level for _, lbl in entries)
        winners = [(aid, lbl) for aid, lbl in entries if lbl.level == top]
        concepts = frozenset().union(*(lbl.concepts for _, lbl in winners))
        annotators = frozenset(aid for aid, _ in winners)
        merged.append(ClipLabel(clip_id, top, concepts, annotators))
    return merged


def _by_film(
    spans: Sequence[SpanAnnotation], clips: Sequence[ClipDelimitation]
) -> dict[str, tuple[list[ClipDelimitation], list[SpanAnnotation]]]:
    """``film -> (clips, spans)`` for every film of ``clips``, films sorted.

    Spans on a film missing from ``clips`` raise ``PreconditionError``
    rather than being dropped.
    """
    films: dict[str, tuple[list[ClipDelimitation], list[SpanAnnotation]]] = {}
    for c in clips:
        films.setdefault(c.film_id, ([], []))[0].append(c)
    unknown = sorted({s.film_id for s in spans} - set(films))
    if unknown:
        raise PreconditionError(f"spans on films missing from the clip index: {unknown}")
    for s in spans:
        films[s.film_id][1].append(s)
    return dict(sorted(films.items()))


def fuse(
    spans: Sequence[SpanAnnotation],
    clips: Sequence[ClipDelimitation],
    cfg: ProjectionConfig = ProjectionConfig(),
) -> tuple[dict[str, dict[str, list[ClipLabel]]], dict[str, list[ClipLabel]]]:
    """Project and merge a whole annotation export.

    Returns ``(projections, merged)`` where ``projections[film][annotator]``
    is that annotator's clip timeline and ``merged[film]`` the fused one.
    Each film is merged over the annotators with spans on it. Films whose
    clip index has no annotator at all are fused as all-EN with empty
    provenance. Spans on a film missing from ``clips`` raise
    ``PreconditionError``.
    """
    projections: dict[str, dict[str, list[ClipLabel]]] = {}
    merged: dict[str, list[ClipLabel]] = {}
    for film_id, (film_clips, film_spans) in _by_film(spans, clips).items():
        by_annotator: dict[str, list[SpanAnnotation]] = {}
        for s in film_spans:
            by_annotator.setdefault(s.annotator_id, []).append(s)
        film_proj = {
            aid: project(by_annotator[aid], film_clips, cfg) for aid in sorted(by_annotator)
        }
        projections[film_id] = film_proj
        if film_proj:
            merged[film_id] = merge(list(film_proj.items()))
        else:
            warnings.warn(
                f"film {film_id!r} has no annotations; fused as all-EN",
                UnannotatedFilmWarning,
                stacklevel=2,
            )
            merged[film_id] = project([], film_clips, cfg)
    return projections, merged


@dataclass(frozen=True)
class SweepRow:
    """Merged class counts for one overlap threshold."""

    threshold: float
    counts: Mapping[ObjLevel, int]
    deltas: Mapping[ObjLevel, int]


def sweep_thresholds(
    spans: Sequence[SpanAnnotation],
    clips: Sequence[ClipDelimitation],
    thresholds: Sequence[float],
    basis: OverlapBasis = OverlapBasis.CLIP_DURATION,
) -> list[SweepRow]:
    """Tabulate the merged level counts of ``fuse`` at each threshold.

    A clip's merged level is the highest level of any annotator's span
    that qualifies on it, or EN, so which annotator a span came from
    does not matter: each film's spans form one timeline, whose
    overlaps are computed once and re-thresholded per threshold. Every
    threshold is checked before any work. Deltas are reported against
    the first threshold in the list.
    """
    if not thresholds:
        raise PreconditionError("no thresholds to sweep")
    for t in thresholds:
        ProjectionConfig(overlap_threshold=t, overlap_basis=basis)
    pooled = [
        _clip_overlaps(film_spans, film_clips, basis)
        for film_clips, film_spans in _by_film(spans, clips).values()
    ]
    rows: list[SweepRow] = []
    base: dict[ObjLevel, int] | None = None
    for t in thresholds:
        counts = {level: 0 for level in ObjLevel}
        for film in pooled:
            for overlaps in film:
                counts[max((s.level for f, s in overlaps if f >= t), default=ObjLevel.EN)] += 1
        if base is None:
            base = counts
        deltas = {level: counts[level] - base[level] for level in ObjLevel}
        rows.append(SweepRow(threshold=t, counts=counts, deltas=deltas))
    return rows
