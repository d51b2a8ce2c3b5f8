"""Chance-corrected agreement between clip-aligned annotation timelines.

Once spans are projected onto a shared clip grid, alignment is trivial
and agreement reduces to the categorical side: a fixed dissimilarity
between level pairs, averaged over every (annotator pair, clip)
comparison, gives the observed disorder. The expected disorder under
chance is estimated by resampling each annotator's sequence i.i.d. from
their own empirical level distribution and averaging the disorder of
the resampled sets over a fixed number of trials. The agreement score
is one minus the ratio of observed to expected disorder: 1 means
perfect agreement, 0 or below means chance level or worse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import ObjLevel
from .errors import (
    DegenerateNull,
    EmptyInput,
    FewerThanTwoAnnotators,
    InvariantViolation,
    LengthMismatch,
)

#: Dissimilarity between level pairs, indexed [level_a, level_b].
#: Symmetric, zero diagonal, and metric (triangle inequality holds).
LEVEL_DISTANCE_MATRIX = np.array(
    [
        # EN   HN   NS    S
        [0.0, 0.3, 0.7, 1.0],  # EN
        [0.3, 0.0, 0.4, 0.7],  # HN
        [0.7, 0.4, 0.0, 0.3],  # NS
        [1.0, 0.7, 0.3, 0.0],  # S
    ]
)


def level_distance(u: ObjLevel, v: ObjLevel) -> float:
    """Categorical dissimilarity between two levels, in [0, 1]."""
    return float(LEVEL_DISTANCE_MATRIX[u, v])


@dataclass(frozen=True)
class GammaConfig:
    """Agreement parameters.

    Projected timelines are already aligned, so only the categorical
    dissimilarity counts. ``n_null`` is the number of resampled null
    trials.
    """

    n_null: int = 62
    seed: int = 0
    excluded_levels: frozenset[ObjLevel] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "excluded_levels", frozenset(self.excluded_levels))
        if self.n_null < 1:
            raise InvariantViolation(f"n_null must be >= 1, got {self.n_null}")


@dataclass(frozen=True)
class GammaResult:
    gamma: float
    observed_disorder: float
    expected_disorder: float
    n_pairs: int


def _as_index_rows(
    sequences: Mapping[str, Sequence[ObjLevel]],
) -> tuple[list[str], np.ndarray]:
    if len(sequences) < 2:
        raise FewerThanTwoAnnotators(
            f"need at least 2 annotators, got {len(sequences)}"
        )
    names = sorted(sequences)
    lengths = {len(sequences[a]) for a in names}
    if len(lengths) != 1:
        raise LengthMismatch(f"sequence lengths differ: {sorted(lengths)}")
    rows = np.array([[int(level) for level in sequences[a]] for a in names], dtype=np.intp)
    return names, rows


def _disorder_terms(
    rows: np.ndarray, excluded: frozenset[ObjLevel]
) -> tuple[float, int]:
    """Sum and count of dissimilarities over all pairwise comparisons.

    A clip is skipped for a given annotator pair when either member
    rated it with an excluded level; other pairs still compare it.
    """
    excluded_idx = np.array(sorted(int(lv) for lv in excluded), dtype=np.intp)
    if excluded_idx.size:
        keep_mask = ~np.isin(rows, excluded_idx)
    else:
        keep_mask = np.ones(rows.shape, dtype=bool)
    total = 0.0
    count = 0
    for i, j in itertools.combinations(range(rows.shape[0]), 2):
        mask = keep_mask[i] & keep_mask[j]
        if not mask.any():
            continue
        d = LEVEL_DISTANCE_MATRIX[rows[i][mask], rows[j][mask]]
        total += float(d.sum())
        count += int(mask.sum())
    return total, count


def observed_disorder(
    sequences: Mapping[str, Sequence[ObjLevel]],
    cfg: GammaConfig = GammaConfig(),
) -> float:
    """Mean dissimilarity over all comparisons actually made.

    Returns 0 when exclusions leave nothing to compare.
    """
    _, rows = _as_index_rows(sequences)
    total, count = _disorder_terms(rows, cfg.excluded_levels)
    return total / count if count else 0.0


def _null_rng(seed: int, trial: int) -> np.random.Generator:
    # Trial generators derive from (seed, trial) so trials are
    # schedule-independent and individually reproducible.
    return np.random.default_rng(np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, trial)))


def _resample_rows(rows: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = np.empty_like(rows)
    n = rows.shape[1]
    for i in range(rows.shape[0]):
        counts = np.bincount(rows[i], minlength=4)
        marginal = counts / counts.sum()
        out[i] = rng.choice(4, size=n, p=marginal)
    return out


def expected_disorder(
    sequences: Mapping[str, Sequence[ObjLevel]],
    cfg: GammaConfig = GammaConfig(),
) -> float:
    """Mean disorder of null sets resampled from per-annotator marginals.

    Each trial redraws every annotator's sequence i.i.d. from that
    annotator's empirical level distribution; the trial disorder uses
    the same exclusion rule as the observed one. Deterministic given
    (sequences, seed, n_null).
    """
    _, rows = _as_index_rows(sequences)
    trial_means = np.empty(cfg.n_null)
    for t in range(cfg.n_null):
        resampled = _resample_rows(rows, _null_rng(cfg.seed, t))
        total, count = _disorder_terms(resampled, cfg.excluded_levels)
        trial_means[t] = total / count if count else 0.0
    return float(trial_means.mean())


def gamma(
    sequences: Mapping[str, Sequence[ObjLevel]],
    cfg: GammaConfig = GammaConfig(),
) -> GammaResult:
    """Chance-corrected agreement of aligned level sequences."""
    _, rows = _as_index_rows(sequences)
    total, count = _disorder_terms(rows, cfg.excluded_levels)
    observed = total / count if count else 0.0
    expected = expected_disorder(sequences, cfg)
    if observed == 0.0:
        value = 1.0
    elif expected == 0.0:
        raise DegenerateNull(
            "expected disorder is zero while annotators disagree; "
            "the null model cannot normalize this film"
        )
    else:
        value = 1.0 - observed / expected
    return GammaResult(
        gamma=value,
        observed_disorder=observed,
        expected_disorder=expected,
        n_pairs=count,
    )


@dataclass(frozen=True)
class FilmPairGamma:
    film_id: str
    annotator_a: str
    annotator_b: str
    result: GammaResult


@dataclass(frozen=True)
class GammaSummary:
    per_pair: tuple[FilmPairGamma, ...]
    average: float


def gamma_per_film_and_average(
    films: Mapping[str, Mapping[str, Sequence[ObjLevel]]],
    cfg: GammaConfig = GammaConfig(),
) -> GammaSummary:
    """Agreement per (film, annotator pair) plus the overall average.

    The average weights every annotator pair equally, which is the same
    as weighting each film by its number of pairs.
    """
    if not films:
        raise EmptyInput("no films to score")
    rows: list[FilmPairGamma] = []
    for film_id in sorted(films):
        sequences = films[film_id]
        names = sorted(sequences)
        if len(names) < 2:
            raise FewerThanTwoAnnotators(
                f"film {film_id!r} has {len(names)} annotator(s)"
            )
        for a, b in itertools.combinations(names, 2):
            result = gamma({a: sequences[a], b: sequences[b]}, cfg)
            rows.append(FilmPairGamma(film_id, a, b, result))
    average = float(np.mean([r.result.gamma for r in rows]))
    return GammaSummary(per_pair=tuple(rows), average=average)
