"""Categorical disorder, the exact chance null, and the agreement score."""

import itertools
import re

import numpy as np
import pytest

from gazelab import (
    GammaConfig,
    ObjLevel,
    expected_disorder,
    gamma,
    gamma_per_film_and_average,
    level_distance,
    observed_disorder,
)
from gazelab.agreement import LEVEL_DISTANCE_MATRIX, FilmPairGamma
from gazelab.errors import PreconditionError

EN, HN, NS, S = ObjLevel.EN, ObjLevel.HN, ObjLevel.NS, ObjLevel.S


class TestLevelDistance:
    def test_fixed_entries(self):
        assert level_distance(EN, EN) == 0.0
        assert level_distance(EN, S) == 1.0
        assert level_distance(HN, NS) == 0.4
        assert level_distance(EN, HN) == 0.3
        assert level_distance(HN, S) == 0.7
        assert level_distance(NS, S) == 0.3
        assert level_distance(EN, NS) == 0.7

    def test_symmetric_zero_diagonal_metric(self):
        levels = list(ObjLevel)
        assert np.array_equal(LEVEL_DISTANCE_MATRIX, LEVEL_DISTANCE_MATRIX.T)
        for a in levels:
            assert level_distance(a, a) == 0.0
        # triangle inequality over all 64 ordered triples
        for a, b, c in itertools.product(levels, repeat=3):
            assert level_distance(a, c) <= level_distance(a, b) + level_distance(b, c) + 1e-12


class TestObservedDisorder:
    def test_identical_sequences(self):
        assert observed_disorder({"A": [EN, S], "B": [EN, S]}) == 0.0

    def test_two_annotator_hand_average(self):
        # (d(EN,EN) + d(S,HN)) / 2 = (0 + 0.7) / 2
        assert observed_disorder({"A": [EN, S], "B": [EN, HN]}) == pytest.approx(0.35)

    def test_three_annotators_single_clip(self):
        # pairs (EN,HN), (EN,S), (HN,S): (0.3 + 1.0 + 0.7) / 3
        value = observed_disorder({"A": [EN], "B": [HN], "C": [S]})
        assert value == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError, match=r"sequence lengths differ: \[1, 2\]"):
            observed_disorder({"A": [EN], "B": [EN, S]})

    def test_needs_two_annotators(self):
        with pytest.raises(PreconditionError, match="need at least 2 annotators, got 1"):
            observed_disorder({"A": [EN, S]})

    def test_exclusion_drops_pairwise_comparisons(self):
        cfg = GammaConfig(excluded_levels={NS})
        # clip 2 is NS for A, so the (A,B) pair skips it
        assert observed_disorder({"A": [EN, NS], "B": [EN, S]}, cfg) == 0.0


def _rows(sequences):
    return np.array([[int(lv) for lv in sequences[a]] for a in sorted(sequences)], dtype=np.intp)


def _reference_terms(rows, excluded):
    """Per-pair loop over compressed masked clips: the plain definition
    of the disorder sum and count."""
    keep = ~np.isin(rows, sorted(int(lv) for lv in excluded))
    total, count = 0.0, 0
    for i, j in itertools.combinations(range(rows.shape[0]), 2):
        mask = keep[i] & keep[j]
        if mask.any():
            total += float(LEVEL_DISTANCE_MATRIX[rows[i][mask], rows[j][mask]].sum())
            count += int(mask.sum())
    return total, count


def _reference_mean(rows, excluded):
    """Mean disorder of one level array; 0 when nothing is compared."""
    total, count = _reference_terms(rows, excluded)
    return total / count if count else 0.0


def _marginals(rows):
    return [np.bincount(row, minlength=4) / row.size for row in rows]


def _enumerated_null(rows, excluded):
    """The null by enumeration: the mean disorder of every possible
    (annotators, clips) level array, weighted by its probability when
    each annotator rates every clip i.i.d. from their own marginal."""
    marginals = _marginals(rows)
    expected = 0.0
    for flat in itertools.product(range(4), repeat=rows.size):
        null = np.array(flat).reshape(rows.shape)
        weight = np.prod([p[row] for p, row in zip(marginals, null)])
        if weight:
            expected += weight * _reference_mean(null, excluded)
    return expected


REFERENCE_TRIALS = 20_000


def _reference_null(rows, excluded, seed):
    """Trial means of a Monte-Carlo null of ``REFERENCE_TRIALS`` trials,
    each redrawing every annotator's clips i.i.d. from their own
    marginal. A trial's disorder depends on its draw only through how
    many clips got each joint level tuple, so a trial draws those counts
    from the multinomial they follow; 2 x 140,000 clips stay cheap."""
    annotators, clips = rows.shape
    marginals = _marginals(rows)
    tuples = np.array(list(itertools.product(range(4), repeat=annotators)))
    p = np.prod([marginals[i][tuples[:, i]] for i in range(annotators)], axis=0)
    total, count = np.array([_reference_terms(t[:, None], excluded) for t in tuples]).T
    draws = np.random.default_rng(seed).multinomial(clips, p / p.sum(), size=REFERENCE_TRIALS)
    totals, counts = draws @ total, draws @ count
    return np.divide(totals, counts, out=np.zeros(REFERENCE_TRIALS), where=counts > 0)


def _assert_within_monte_carlo_error(value, trial_means):
    """Within 4 standard errors of the reference's mean (exact when the
    trials do not vary)."""
    sigma = trial_means.std(ddof=1) / np.sqrt(trial_means.size)
    assert abs(value - trial_means.mean()) <= 4 * sigma + 1e-12


TINY_SETS = [
    {"a": [EN], "b": [S]},
    {"a": [NS], "b": [HN]},
    {"a": [NS, EN], "b": [S, NS]},
    {"a": [EN, HN, S], "b": [HN, NS, S]},
    {"a": [S, S, NS], "b": [EN, NS, NS]},
    {"a": [NS, NS, NS], "b": [EN, HN, S]},
    {"a": [EN, S], "b": [HN, S], "c": [NS, EN]},
]
# Each set with nothing and with NS excluded, but exclusions only on pairs.
TINY_CASES = [
    pytest.param(s, excluded, id=f"{i}-{'NS' if excluded else 'none'}")
    for i, s in enumerate(TINY_SETS)
    for excluded in (frozenset(), frozenset({NS}))
    if len(s) == 2 or not excluded
]


class TestExpectedDisorder:
    def test_constant_single_level_null_is_zero(self):
        assert expected_disorder({"A": [EN, EN, EN], "B": [EN, EN, EN]}) == 0.0

    def test_half_half_closed_form(self):
        # Both marginals are exactly 50% EN / 50% S, so a null pair
        # mismatches with probability 1/2 at distance d(EN,S) = 1.
        seq = [EN, S] * 200
        value = expected_disorder({"A": seq, "B": list(reversed(seq))}, GammaConfig())
        assert value == pytest.approx(0.5, abs=0.01)

    def test_deterministic_without_seed(self):
        # Equal marginals p, so the null is p^T D p, the same on every call.
        seqs = {"A": [EN, S, HN, S, NS, EN], "B": [S, S, HN, EN, NS, EN]}
        p = np.array([2, 1, 1, 2]) / 6
        assert expected_disorder(seqs) == expected_disorder(seqs)
        assert expected_disorder(seqs) == pytest.approx(p @ LEVEL_DISTANCE_MATRIX @ p, abs=1e-15)

    @pytest.mark.parametrize("sequences, excluded", TINY_CASES)
    def test_equals_exhaustive_enumeration(self, sequences, excluded):
        exact = expected_disorder(sequences, GammaConfig(excluded_levels=excluded))
        assert exact == pytest.approx(_enumerated_null(_rows(sequences), excluded), abs=1e-12)

    @pytest.mark.parametrize("excluded", [frozenset(), frozenset({NS})], ids=["none", "NS"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_pairs_within_monte_carlo_error(self, seed, excluded):
        rng = np.random.default_rng(seed + 40)
        clips = int(rng.integers(6, 2001))
        sequences = {
            a: [ObjLevel(int(v)) for v in rng.choice(4, size=clips, p=rng.dirichlet(np.ones(4)))]
            for a in ("a", "b")
        }
        exact = expected_disorder(sequences, GammaConfig(excluded_levels=excluded))
        _assert_within_monte_carlo_error(exact, _reference_null(_rows(sequences), excluded, seed))

    def test_three_annotators_with_exclusions_rejected(self):
        seqs = {"A": [EN, NS], "B": [S, NS], "C": [HN, EN]}
        cfg = GammaConfig(excluded_levels={NS})
        with pytest.raises(PreconditionError, match="one annotator pair, got 3"):
            expected_disorder(seqs, cfg)
        with pytest.raises(PreconditionError):
            gamma(seqs, cfg)
        # Without exclusions the pairs are averaged.
        pairs = [expected_disorder({a: seqs[a], b: seqs[b]}) for a, b in ("AB", "AC", "BC")]
        assert expected_disorder(seqs) == pytest.approx(np.mean(pairs), abs=1e-15)


def _random_sets():
    """Level sequences with 2-4 annotators and 1 to 140,000 clips,
    including single-level rows and rows made only of NS, each with the
    seed of its reference null."""
    rng = np.random.default_rng(77)
    cases = []
    for annotators, clips, seed in [
        (2, 1, 5), (3, 1, 7), (4, 1, 3), (2, 7, 40), (3, 50, 62), (4, 120, 30),
        (2, 3000, 100), (3, 2000, 70), (2, 140_000, 3),
    ]:
        p = rng.dirichlet(np.ones(4))
        seqs = {f"a{i}": rng.choice(4, size=clips, p=p) for i in range(annotators)}
        cases.append((seqs, seed))
    cases.append(({"a": np.full(30, 3), "b": np.full(30, 0), "c": rng.integers(0, 4, 30)}, 20))
    cases.append(({"a": np.full(9, 2), "b": np.full(9, 2)}, 11))
    cases.append(({"a": np.full(9, 2), "b": rng.integers(0, 4, 9)}, 11))
    return [
        ({a: [ObjLevel(int(v)) for v in seq] for a, seq in seqs.items()}, seed)
        for seqs, seed in cases
    ]


RANDOM_SETS = _random_sets()
SET_IDS = [f"{len(s)}x{len(next(iter(s.values())))}-{n}" for s, n in RANDOM_SETS]


class TestAgainstPerTrialReference:
    """The library's disorders against the plain per-pair definition and
    a per-trial reference null. Observed disorders are bit-identical with
    nothing excluded; with exclusions the masked sums may group the
    additions differently, so they agree within 1e-12 relative. The exact
    null lies within the reference's Monte-Carlo error. The last number
    of a case id seeds its reference null."""

    @pytest.mark.parametrize("sequences, seed", RANDOM_SETS, ids=SET_IDS)
    def test_null_levels_identical(self, sequences, seed):
        # The null sees each annotator's levels only through their
        # marginal: shuffling every annotator on its own changes nothing.
        rng = np.random.default_rng(seed)
        shuffled = {a: [seq[i] for i in rng.permutation(len(seq))] for a, seq in sequences.items()}
        assert expected_disorder(shuffled) == expected_disorder(sequences)

    @pytest.mark.parametrize("sequences, seed", RANDOM_SETS, ids=SET_IDS)
    @pytest.mark.parametrize("excluded", [frozenset(), frozenset({NS})], ids=["none", "NS"])
    def test_disorders_match(self, sequences, seed, excluded):
        rows = _rows(sequences)
        cfg = GammaConfig(excluded_levels=excluded)
        ref_observed = _reference_mean(rows, excluded)
        if excluded:
            assert observed_disorder(sequences, cfg) == pytest.approx(ref_observed, rel=1e-12)
        else:
            assert observed_disorder(sequences, cfg) == ref_observed
        if excluded and len(sequences) > 2:
            with pytest.raises(PreconditionError):
                expected_disorder(sequences, cfg)
        else:
            trial_means = _reference_null(rows, excluded, seed)
            _assert_within_monte_carlo_error(expected_disorder(sequences, cfg), trial_means)

    def test_every_clip_excluded(self):
        # Every null set leaves nothing to compare, so the null is 0.
        sequences = {"a": [NS, EN, S], "b": [S, NS, EN]}
        cfg = GammaConfig(excluded_levels={EN, HN, NS, S})
        assert observed_disorder(sequences, cfg) == 0.0
        reference = _reference_null(_rows(sequences), cfg.excluded_levels, 3)
        assert expected_disorder(sequences, cfg) == reference.mean() == 0.0


class TestGamma:
    def test_identical_nonconstant_sequences_give_exactly_one(self):
        seqs = {"A": [EN, S, HN, NS], "B": [EN, S, HN, NS]}
        result = gamma(seqs, GammaConfig())
        assert result.gamma == 1.0
        assert result.observed_disorder == 0.0
        assert result.n_pairs == 4

    def test_uniform_random_sequences_near_zero(self):
        values = []
        for seed in range(5):
            rng = np.random.default_rng(seed + 500)
            seqs = {
                a: [ObjLevel(int(v)) for v in rng.integers(0, 4, 500)] for a in ("A", "B")
            }
            values.append(gamma(seqs, GammaConfig()).gamma)
        assert abs(float(np.mean(values))) <= 0.05

    def test_invariant_to_renaming_and_common_permutation(self):
        rng = np.random.default_rng(21)
        seqs = {a: [ObjLevel(int(v)) for v in rng.integers(0, 4, 60)] for a in ("A", "B")}
        base = gamma(seqs, GammaConfig())
        renamed = gamma({"X": seqs["A"], "Y": seqs["B"]}, GammaConfig())
        assert renamed.gamma == pytest.approx(base.gamma, abs=1e-12)
        perm = rng.permutation(60)
        permuted = {a: [seq[i] for i in perm] for a, seq in seqs.items()}
        shuffled = gamma(permuted, GammaConfig())
        # observed disorder is a mean over clips, exactly permutation-invariant
        assert shuffled.observed_disorder == pytest.approx(base.observed_disorder, abs=1e-12)
        # null marginals are unchanged too
        assert shuffled.expected_disorder == pytest.approx(base.expected_disorder, abs=1e-12)

    def test_exclusion_noop_without_ns(self):
        rng = np.random.default_rng(8)
        seqs = {
            a: [ObjLevel(int(v)) for v in rng.choice([0, 1, 3], size=80)] for a in ("A", "B")
        }
        plain = gamma(seqs, GammaConfig())
        excl = gamma(seqs, GammaConfig(excluded_levels={NS}))
        assert plain == excl

    def test_exclusion_never_grows_comparisons(self):
        rng = np.random.default_rng(12)
        seqs = {a: [ObjLevel(int(v)) for v in rng.integers(0, 4, 80)] for a in ("A", "B")}
        plain = gamma(seqs, GammaConfig())
        excl = gamma(seqs, GammaConfig(excluded_levels={NS}))
        assert excl.n_pairs <= plain.n_pairs

    def test_nothing_left_to_compare_rejected(self):
        # A pair whose every clip holds an excluded level has no
        # agreement to report, not perfect agreement.
        cfg = GammaConfig(excluded_levels={NS})
        with pytest.raises(PreconditionError, match=r"^pair A\|B: the excluded levels"):
            gamma({"A": [NS, NS], "B": [EN, S]}, cfg)
        with pytest.raises(PreconditionError, match=r"^film 'f', pair A\|B: the excluded levels"):
            gamma_per_film_and_average({"f": {"A": [NS, NS], "B": [EN, S], "C": [EN, S]}}, cfg)
        with pytest.raises(PreconditionError, match=r"^film 'f', pair B\|C: the excluded levels"):
            gamma_per_film_and_average({"f": {"C": [S, NS], "A": [EN, S], "B": [NS, EN]}}, cfg)

    def test_config_validation(self):
        # The excluded levels are the one setting; the exact null has no
        # trial count or seed to set.
        assert GammaConfig(excluded_levels=[NS, NS]).excluded_levels == frozenset({NS})
        assert GammaConfig().n_null == 0
        for setting in ({"n_null": 62}, {"seed": 1}):
            with pytest.raises(TypeError):
                GammaConfig(**setting)
        with pytest.raises(AttributeError):
            GammaConfig().n_null = 62


def _pairwise_gamma(films, cfg):
    """The pairs of ``gamma_per_film_and_average``, each scored by ``gamma``
    of its two sequences alone."""
    out = []
    for film, seqs in sorted(films.items()):
        for a, b in itertools.combinations(sorted(seqs), 2):
            try:
                out.append(FilmPairGamma(film, a, b, gamma({a: seqs[a], b: seqs[b]}, cfg)))
            except PreconditionError as e:
                raise PreconditionError(f"film {film!r}, {e}") from None
    return tuple(out)


class TestPerFilmAverage:
    def test_single_film_average_equals_film_gamma(self):
        rng = np.random.default_rng(31)
        seqs = {a: [ObjLevel(int(v)) for v in rng.integers(0, 4, 50)] for a in ("A", "B")}
        summary = gamma_per_film_and_average({"juno": seqs}, GammaConfig())
        assert len(summary.per_pair) == 1
        assert summary.average == summary.per_pair[0].result.gamma

    def test_pairs_weighted_equally(self):
        rng = np.random.default_rng(32)
        identical = [ObjLevel(int(v)) for v in rng.integers(0, 4, 50)]
        film1 = {"A": identical, "B": list(identical)}  # gamma exactly 1
        film2 = {"A": [ObjLevel(int(v)) for v in rng.integers(0, 4, 50)],
                 "B": [ObjLevel(int(v)) for v in rng.integers(0, 4, 50)]}
        summary = gamma_per_film_and_average({"f1": film1, "f2": film2}, GammaConfig())
        g2 = summary.per_pair[1].result.gamma
        assert summary.per_pair[0].result.gamma == 1.0
        assert summary.average == pytest.approx((1.0 + g2) / 2.0, abs=1e-12)

    @pytest.mark.parametrize("excluded", [frozenset(), frozenset({NS}), frozenset({EN, S})])
    def test_each_pair_is_exactly_gamma_of_its_two_sequences(self, excluded):
        rng = np.random.default_rng(34)
        cfg = GammaConfig(excluded_levels=excluded)
        for _ in range(40):
            films = {}
            for film in ("f", "g", "h")[: int(rng.integers(1, 4))]:
                names = [f"a{int(k)}" for k in rng.permutation(9)[: int(rng.integers(2, 6))]]
                n = int(rng.integers(2, 40))
                films[film] = {
                    a: [ObjLevel(int(v)) for v in rng.choice(4, n, p=rng.dirichlet(np.ones(4)))]
                    for a in names
                }
            try:
                expected = _pairwise_gamma(films, cfg)
            except PreconditionError as e:
                with pytest.raises(PreconditionError, match=f"^{re.escape(str(e))}$"):
                    gamma_per_film_and_average(films, cfg)
                continue
            summary = gamma_per_film_and_average(films, cfg)
            assert summary.per_pair == expected
            assert summary.average == float(np.mean([r.result.gamma for r in expected]))

    def test_four_annotators_make_six_pairs(self):
        rng = np.random.default_rng(33)
        seqs = {a: [ObjLevel(int(v)) for v in rng.integers(0, 4, 40)] for a in "ABCD"}
        summary = gamma_per_film_and_average({"f": seqs}, GammaConfig())
        assert len(summary.per_pair) == 6

    def test_film_with_one_annotator_rejected(self):
        with pytest.raises(PreconditionError, match="film 'f' has 1 annotator"):
            gamma_per_film_and_average({"f": {"A": [EN]}}, GammaConfig())

    def test_three_film_spreadsheet_fixture(self):
        # Hand-computed observed disorders:
        #   f1: A=[EN,S,HN]   B=[EN,S,S]   -> (0 + 0 + 0.7)/3
        #   f2: A=[S,S]       B=[S,S]      -> 0
        #   f3: A=[EN,HN,NS,S] B=[HN,HN,S,S] -> (0.3 + 0 + 0.3 + 0)/4
        films = {
            "f1": {"A": [EN, S, HN], "B": [EN, S, S]},
            "f2": {"A": [S, S], "B": [S, S]},
            "f3": {"A": [EN, HN, NS, S], "B": [HN, HN, S, S]},
        }
        cfg = GammaConfig()
        summary = gamma_per_film_and_average(films, cfg)
        by_film = {row.film_id: row.result for row in summary.per_pair}
        assert by_film["f1"].observed_disorder == pytest.approx(0.7 / 3, abs=1e-12)
        assert by_film["f2"].observed_disorder == 0.0
        assert by_film["f3"].observed_disorder == pytest.approx(0.15, abs=1e-12)

        # Null closed form for f1 from the empirical marginals
        # p_A = uniform{EN,S,HN}, p_B = {EN:1/3, S:2/3}:
        # sum_{u,v} p_A(u) p_B(v) d(u,v)
        #   = (1/3)(2/3)(1) + (1/3)(1/3)(1) + (1/3)((1/3)(0.3) + (2/3)(0.7))
        expected_f1 = (1 / 3) * (2 / 3) * 1.0 + (1 / 3) * (1 / 3) * 1.0 + (1 / 3) * (
            (1 / 3) * 0.3 + (2 / 3) * 0.7
        )
        assert by_film["f1"].expected_disorder == pytest.approx(expected_f1, abs=1e-12)
        assert summary.average == pytest.approx(
            float(np.mean([r.result.gamma for r in summary.per_pair])), abs=1e-12
        )
