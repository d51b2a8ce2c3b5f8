"""Chance-corrected agreement between clip-aligned annotation timelines.

Once spans are projected onto a shared clip grid, alignment is trivial
and agreement reduces to the categorical side: a fixed dissimilarity
between level pairs, averaged over every (annotator pair, clip)
comparison, gives the observed disorder. The expected disorder is its
exact mean under chance, each annotator rating i.i.d. from their own
level marginal: a weighted Cohen's kappa's expected disagreement, with
no trials and no seed. The agreement score is one minus the ratio of
observed to expected disorder: 1 means perfect agreement, 0 or below
means chance level or worse.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .core import ObjLevel
from .errors import PreconditionError

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
    """Agreement parameters: the levels left out of every comparison.

    Timelines are aligned, so only the categorical dissimilarity counts.
    The null is exact, so ``n_null`` (the benchmark counts it) is 0.
    """

    n_null: ClassVar[int] = 0
    excluded_levels: frozenset[ObjLevel] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "excluded_levels", frozenset(self.excluded_levels))


@dataclass(frozen=True)
class GammaResult:
    gamma: float
    observed_disorder: float
    expected_disorder: float
    n_pairs: int


def _as_index_rows(sequences: Mapping[str, Sequence[ObjLevel]]) -> np.ndarray:
    if len(sequences) < 2:
        raise PreconditionError(f"need at least 2 annotators, got {len(sequences)}")
    names = sorted(sequences)
    lengths = {len(sequences[a]) for a in names}
    if len(lengths) != 1:
        raise PreconditionError(f"sequence lengths differ: {sorted(lengths)}")
    return np.array([[int(level) for level in sequences[a]] for a in names], dtype=np.intp)


def _disorder_terms(rows: np.ndarray, excluded: frozenset[ObjLevel]):
    """Sum and count of dissimilarities over all pairwise comparisons.

    ``rows`` holds level indices shaped (annotators, clips). A clip is
    skipped for a given annotator pair when either member rated it with
    an excluded level; other pairs still compare it.
    """
    kept = np.isin(np.arange(4), [int(lv) for lv in excluded], invert=True)
    kept_pair = np.outer(kept, kept).ravel()
    distance = np.where(kept_pair, LEVEL_DISTANCE_MATRIX.ravel(), 0.0)
    total, count = 0.0, 0
    for row_a, row_b in itertools.combinations(rows, 2):
        pair = 4 * row_a + row_b
        total += distance[pair].sum()
        count += np.count_nonzero(kept_pair[pair])
    return total, count


def observed_disorder(
    sequences: Mapping[str, Sequence[ObjLevel]],
    cfg: GammaConfig = GammaConfig(),
) -> float:
    """Mean dissimilarity over all comparisons actually made.

    Returns 0 when exclusions leave nothing to compare.
    """
    total, count = _disorder_terms(_as_index_rows(sequences), cfg.excluded_levels)
    return float(total / count) if count else 0.0


def expected_disorder(
    sequences: Mapping[str, Sequence[ObjLevel]],
    cfg: GammaConfig = GammaConfig(),
) -> float:
    """Exact mean disorder of the chance null, each annotator rating every
    clip independently from their own level marginal ``p``.

    A pair scores ``p_aᵀ D p_b`` (D is ``LEVEL_DISTANCE_MATRIX``), averaged
    over the pairs. With exclusions, over n clips a pair scores
    ``(1 − (1 − m_a·m_b)^n) · p̃_aᵀ D p̃_b``: ``m`` is a marginal's kept
    mass, ``p̃`` the marginal renormalized over the kept levels, and a
    null set with nothing kept counts 0. Pairs that share an annotator
    have dependent kept counts, so exclusions need exactly two annotators.
    """
    return _expected_disorder_of_rows(_as_index_rows(sequences), cfg.excluded_levels)


def _expected_disorder_of_rows(rows: np.ndarray, excluded: frozenset[ObjLevel]) -> float:
    """``expected_disorder`` of level-index rows shaped (annotators, clips)."""
    if len(rows) > 2 and excluded:
        raise PreconditionError(f"excluded levels need one annotator pair, got {len(rows)}")
    # Integer kept counts: a pair with every clip kept has m_a·m_b exactly 1.
    counts = np.stack([np.bincount(row, minlength=4) for row in rows])
    counts[:, [int(lv) for lv in excluded]] = 0
    a, b = np.triu_indices(len(rows), 1)
    kept_pairs = counts.sum(axis=1)[a] * counts.sum(axis=1)[b]
    clips = rows.shape[1]
    any_kept = 1.0 - (1.0 - kept_pairs / clips**2) ** clips
    weighted = np.einsum("pu,uv,pv->p", counts[a], LEVEL_DISTANCE_MATRIX, counts[b])
    nulls = np.divide(any_kept * weighted, kept_pairs, out=np.zeros(len(a)), where=kept_pairs > 0)
    return float(nulls.mean())


def gamma(
    sequences: Mapping[str, Sequence[ObjLevel]],
    cfg: GammaConfig = GammaConfig(),
) -> GammaResult:
    """Chance-corrected agreement of aligned level sequences; raises
    ``PreconditionError`` when the excluded levels leave nothing to compare."""
    return _gamma_of_rows(_as_index_rows(sequences), cfg, "|".join(sorted(sequences)))


def _gamma_of_rows(rows: np.ndarray, cfg: GammaConfig, names: str) -> GammaResult:
    """``gamma`` of level-index rows shaped (annotators, clips); ``names``
    joins the annotators' names for the error message."""
    total, count = _disorder_terms(rows, cfg.excluded_levels)
    if not count:
        raise PreconditionError(f"pair {names}: the excluded levels leave no clip to compare")
    observed = float(total / count)
    expected = _expected_disorder_of_rows(rows, cfg.excluded_levels)
    # Disorder above 0 needs a kept clip whose two levels differ, and every
    # off-diagonal level distance is positive, so the exact null is then
    # above 0 as well.
    value = 1.0 if observed == 0.0 else 1.0 - observed / expected
    return GammaResult(
        gamma=value,
        observed_disorder=observed,
        expected_disorder=expected,
        n_pairs=int(count),
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
    as weighting each film by its number of pairs. Each pair's result is
    exactly ``gamma`` of its two sequences; each annotator's sequence
    becomes a level-index row once per film.
    """
    if not films:
        raise PreconditionError("no films to score")
    per_pair: list[FilmPairGamma] = []
    for film_id in sorted(films):
        sequences = films[film_id]
        names = sorted(sequences)
        if len(names) < 2:
            raise PreconditionError(f"film {film_id!r} has {len(names)} annotator(s)")
        try:
            rows = _as_index_rows(sequences)
            for (i, a), (j, b) in itertools.combinations(enumerate(names), 2):
                result = _gamma_of_rows(rows[[i, j]], cfg, f"{a}|{b}")
                per_pair.append(FilmPairGamma(film_id, a, b, result))
        except PreconditionError as e:
            raise PreconditionError(f"film {film_id!r}, {e}") from None
    average = float(np.mean([r.result.gamma for r in per_pair]))
    return GammaSummary(per_pair=tuple(per_pair), average=average)
