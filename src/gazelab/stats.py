"""Descriptive statistics over clip-aligned label sets.

Covers the class balance of a merged label set, the per-level concept
histograms, the mean number of concepts per clip at each positive
level, and the per-annotator version of that trend. Fractions are
computed over clip counts, not wall-clock duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import CONCEPTS, ClipLabel, ObjLevel
from .errors import AllDropped, EmptyInput

#: Levels whose clips must carry at least one concept.
POSITIVE_LEVELS = (ObjLevel.HN, ObjLevel.NS, ObjLevel.S)


@dataclass(frozen=True)
class AnnotatorTrend:
    """Mean concepts per positive level for one annotator."""

    means: Mapping[ObjLevel, float]
    non_decreasing: bool


@dataclass(frozen=True)
class DatasetSummary:
    level_counts: Mapping[ObjLevel, int]
    level_fractions: Mapping[ObjLevel, float]
    concept_counts_by_level: np.ndarray  # (8 concepts, 4 levels)
    mean_concepts_per_level: Mapping[ObjLevel, float]


def summarize(labels: Sequence[ClipLabel]) -> DatasetSummary:
    """Class balance, concept histogram, and concept counts per level.

    Mean concept counts are reported only for positive levels that
    actually occur; an absent level is omitted rather than shown as 0.
    Per-annotator means come from ``per_annotator_trend``.
    """
    if not labels:
        raise EmptyInput("cannot summarize an empty label set")
    n = len(labels)
    level_counts = {level: 0 for level in ObjLevel}
    concept_counts = np.zeros((len(CONCEPTS), len(ObjLevel)), dtype=np.int64)
    concept_totals = {level: 0 for level in ObjLevel}
    for lbl in labels:
        level_counts[lbl.level] += 1
        concept_totals[lbl.level] += len(lbl.concepts)
        for c in lbl.concepts:
            concept_counts[int(c), int(lbl.level)] += 1
    fractions = {level: level_counts[level] / n for level in ObjLevel}
    means = {
        level: concept_totals[level] / level_counts[level]
        for level in POSITIVE_LEVELS
        if level_counts[level] > 0
    }
    return DatasetSummary(
        level_counts=level_counts,
        level_fractions=fractions,
        concept_counts_by_level=concept_counts,
        mean_concepts_per_level=means,
    )


def per_annotator_trend(
    per_annotator: Mapping[str, Sequence[ClipLabel]],
) -> dict[str, AnnotatorTrend]:
    """Mean concepts per level for each annotator's projected timeline.

    The flag marks whether the means are non-decreasing in the
    HN <= NS <= S order, over the levels that annotator used.
    """
    if not per_annotator:
        raise EmptyInput("no annotators given")
    out: dict[str, AnnotatorTrend] = {}
    for annotator_id in sorted(per_annotator):
        labels = per_annotator[annotator_id]
        if not labels:
            raise EmptyInput(f"annotator {annotator_id!r} has no labels")
        means = summarize(labels).mean_concepts_per_level
        ordered = list(means.values())
        non_decreasing = all(a <= b for a, b in zip(ordered, ordered[1:]))
        out[annotator_id] = AnnotatorTrend(means=means, non_decreasing=non_decreasing)
    return out


def task_class_fractions(
    labels: Sequence[ClipLabel], drop: Iterable[ObjLevel] = ()
) -> dict[ObjLevel, float]:
    """Level fractions after dropping the given levels and renormalizing."""
    if not labels:
        raise EmptyInput("cannot compute fractions of an empty label set")
    dropped = frozenset(drop)
    kept = [lbl for lbl in labels if lbl.level not in dropped]
    if not kept:
        raise AllDropped(f"dropping {sorted(lv.name for lv in dropped)} removed every clip")
    counts = summarize(kept).level_counts
    return {level: counts[level] / len(kept) for level in ObjLevel if counts[level]}


def summary_rows(summary: DatasetSummary) -> list[tuple[str, str, int, float]]:
    """Flatten a summary into (level, concept, count, fraction) rows.

    Each level contributes one row with an empty concept column (clip
    count and dataset fraction) followed by one row per concept (count
    of that level's clips carrying the concept, as a fraction of the
    level's clips).
    """
    rows: list[tuple[str, str, int, float]] = []
    counts = summary.concept_counts_by_level
    for level in ObjLevel:
        n_level = summary.level_counts[level]
        rows.append((level.name, "", n_level, summary.level_fractions[level]))
        for concept in CONCEPTS:
            c = int(counts[int(concept), int(level)])
            rows.append((level.name, concept.label, c, c / n_level if n_level else 0.0))
    return rows
