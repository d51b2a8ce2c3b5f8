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


#: Null trials are drawn in blocks of at most this many uniforms (one
#: trial if larger), so memory does not grow with ``n_null``.
NULL_BLOCK_UNIFORMS = 1 << 18


def _as_index_rows(sequences: Mapping[str, Sequence[ObjLevel]]) -> np.ndarray:
    if len(sequences) < 2:
        raise FewerThanTwoAnnotators(
            f"need at least 2 annotators, got {len(sequences)}"
        )
    names = sorted(sequences)
    lengths = {len(sequences[a]) for a in names}
    if len(lengths) != 1:
        raise LengthMismatch(f"sequence lengths differ: {sorted(lengths)}")
    return np.array([[int(level) for level in sequences[a]] for a in names], dtype=np.intp)


def _disorder_terms(rows: np.ndarray, excluded: frozenset[ObjLevel]):
    """Sums and counts of dissimilarities over all pairwise comparisons.

    ``rows`` holds level indices shaped (..., annotators, clips); both
    results have the leading shape. A clip is skipped for a given
    annotator pair when either member rated it with an excluded level;
    other pairs still compare it.
    """
    kept = np.ones(4, dtype=bool)
    kept[[int(lv) for lv in excluded]] = False
    kept_pair = np.outer(kept, kept).ravel()
    distance = np.where(kept_pair, LEVEL_DISTANCE_MATRIX.ravel(), 0.0)
    total, count = 0.0, 0
    for i, j in itertools.combinations(range(rows.shape[-2]), 2):
        pair = 4 * rows[..., i, :] + rows[..., j, :]
        total = total + distance[pair].sum(axis=-1)
        count = count + np.count_nonzero(kept_pair[pair], axis=-1)
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
    """Mean disorder of null sets resampled from per-annotator marginals.

    Trial ``t`` draws one (annotators, clips) array of uniforms from
    its own generator, seeded by (seed, t), and maps row ``i`` through
    annotator ``i``'s empirical CDF: exactly the draws of
    ``Generator.choice(4, size=clips, p=marginal_i)`` called annotator
    by annotator. The trial disorder uses the observed exclusion rule
    (a trial with nothing to compare counts as 0). Trials are scored in
    blocks of ``NULL_BLOCK_UNIFORMS``. Deterministic given (sequences,
    seed, n_null).
    """
    rows = _as_index_rows(sequences)
    cdf = np.cumsum([np.bincount(row, minlength=4) / row.size for row in rows], axis=1)
    cdf /= cdf[:, -1:]
    # Trial generators derive from (seed, trial) so trials are
    # schedule-independent and individually reproducible.
    seed = cfg.seed & 0xFFFFFFFFFFFFFFFF
    trial_means = np.zeros(cfg.n_null)
    per_block = max(1, NULL_BLOCK_UNIFORMS // rows.size)
    for start in range(0, cfg.n_null, per_block):
        stop = min(start + per_block, cfg.n_null)
        rngs = [np.random.default_rng((seed, t)) for t in range(start, stop)]
        u = np.stack([rng.random(rows.shape) for rng in rngs])
        null = np.stack([c.searchsorted(u[:, i], side="right") for i, c in enumerate(cdf)], axis=1)
        total, count = _disorder_terms(null, cfg.excluded_levels)
        np.divide(total, count, out=trial_means[start:stop], where=count > 0)
    return float(trial_means.mean())


def gamma(
    sequences: Mapping[str, Sequence[ObjLevel]],
    cfg: GammaConfig = GammaConfig(),
) -> GammaResult:
    """Chance-corrected agreement of aligned level sequences; raises
    ``EmptyInput`` when the excluded levels leave nothing to compare."""
    total, count = _disorder_terms(_as_index_rows(sequences), cfg.excluded_levels)
    if not count:
        pair = "|".join(sorted(sequences))
        raise EmptyInput(f"pair {pair}: the excluded levels leave no clip to compare")
    observed = float(total / count)
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
            try:
                result = gamma({a: sequences[a], b: sequences[b]}, cfg)
            except EmptyInput as e:
                raise EmptyInput(f"film {film_id!r}, {e}") from None
            rows.append(FilmPairGamma(film_id, a, b, result))
    average = float(np.mean([r.result.gamma for r in rows]))
    return GammaSummary(per_pair=tuple(rows), average=average)
