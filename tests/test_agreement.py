"""Categorical disorder, null resampling, and the agreement score."""

import itertools

import numpy as np
import pytest

import gazelab.agreement as agreement_mod
from gazelab import (
    GammaConfig,
    ObjLevel,
    expected_disorder,
    gamma,
    gamma_per_film_and_average,
    level_distance,
    observed_disorder,
)
from gazelab.agreement import LEVEL_DISTANCE_MATRIX
from gazelab.errors import (
    DegenerateNull,
    EmptyInput,
    FewerThanTwoAnnotators,
    InvariantViolation,
    LengthMismatch,
)

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
        with pytest.raises(LengthMismatch):
            observed_disorder({"A": [EN], "B": [EN, S]})

    def test_needs_two_annotators(self):
        with pytest.raises(FewerThanTwoAnnotators):
            observed_disorder({"A": [EN, S]})

    def test_exclusion_drops_pairwise_comparisons(self):
        cfg = GammaConfig(excluded_levels={NS})
        # clip 2 is NS for A, so the (A,B) pair skips it
        assert observed_disorder({"A": [EN, NS], "B": [EN, S]}, cfg) == 0.0


class TestExpectedDisorder:
    def test_constant_single_level_null_is_zero(self):
        assert expected_disorder({"A": [EN, EN, EN], "B": [EN, EN, EN]}) == 0.0

    def test_half_half_closed_form(self):
        # Both marginals are exactly 50% EN / 50% S, so a resampled pair
        # mismatches with probability 1/2 at distance d(EN,S) = 1. With
        # 400 clips and 62 trials the Monte Carlo sigma is
        # sqrt(0.25 / (400 * 62)) ~ 0.0032; assert within 3 sigma.
        seq = [EN, S] * 200
        value = expected_disorder({"A": seq, "B": list(reversed(seq))}, GammaConfig(seed=5))
        assert value == pytest.approx(0.5, abs=0.01)

    def test_deterministic_given_seed(self):
        seqs = {"A": [EN, S, HN, S, NS, EN], "B": [S, S, HN, EN, NS, EN]}
        a = expected_disorder(seqs, GammaConfig(seed=99))
        b = expected_disorder(seqs, GammaConfig(seed=99))
        assert a == b
        assert expected_disorder(seqs, GammaConfig(seed=100)) != a


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


def _reference_null_levels(rows, seed, trial):
    """One null trial: each annotator redrawn i.i.d. from their own
    marginal by ``Generator.choice``, annotators in sorted-name order."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, trial)))
    out = np.empty_like(rows)
    for i, row in enumerate(rows):
        counts = np.bincount(row, minlength=4)
        out[i] = rng.choice(4, size=row.size, p=counts / counts.sum())
    return out


def _reference_expected(rows, cfg):
    means = []
    for t in range(cfg.n_null):
        null = _reference_null_levels(rows, cfg.seed, t)
        total, count = _reference_terms(null, cfg.excluded_levels)
        means.append(total / count if count else 0.0)
    return float(np.mean(means))


def _rows(sequences):
    return np.array([[int(lv) for lv in sequences[a]] for a in sorted(sequences)], dtype=np.intp)


def _random_sets():
    """Level sequences with 2-4 annotators, from 1 clip up to a null of
    600,000 uniforms, including single-level rows (zero steps in the CDF)
    and rows made only of NS. With 2^18 uniforms per null block, 2 x
    3,000 clips over 100 trials span three blocks, and one trial of
    2 x 140,000 clips is larger than a block."""
    rng = np.random.default_rng(77)
    cases = []
    for annotators, clips, n_null in [
        (2, 1, 5), (3, 1, 7), (4, 1, 3), (2, 7, 40), (3, 50, 62), (4, 120, 30),
        (2, 3000, 100), (3, 2000, 70), (2, 140_000, 3),
    ]:
        p = rng.dirichlet(np.ones(4))
        seqs = {f"a{i}": rng.choice(4, size=clips, p=p) for i in range(annotators)}
        cases.append((seqs, n_null))
    cases.append(({"a": np.full(30, 3), "b": np.full(30, 0), "c": rng.integers(0, 4, 30)}, 20))
    cases.append(({"a": np.full(9, 2), "b": np.full(9, 2)}, 11))
    cases.append(({"a": np.full(9, 2), "b": rng.integers(0, 4, 9)}, 11))
    return [
        ({a: [ObjLevel(int(v)) for v in seq] for a, seq in seqs.items()}, n_null)
        for seqs, n_null in cases
    ]


RANDOM_SETS = _random_sets()
SET_IDS = [f"{len(s)}x{len(next(iter(s.values())))}-{n}" for s, n in RANDOM_SETS]


class TestAgainstPerTrialReference:
    """The library's null and disorders against the per-trial reference
    above. With nothing excluded they are bit-identical; with exclusions
    the masked sums may group the additions differently, so they agree
    within 1e-12 relative."""

    @pytest.mark.parametrize("sequences, n_null", RANDOM_SETS, ids=SET_IDS)
    def test_null_levels_identical(self, monkeypatch, sequences, n_null):
        rows = _rows(sequences)
        seen = []
        kernel = agreement_mod._disorder_terms

        def spy(levels, excluded):
            seen.append(np.array(levels).reshape(-1, *rows.shape))
            return kernel(levels, excluded)

        monkeypatch.setattr(agreement_mod, "_disorder_terms", spy)
        expected_disorder(sequences, GammaConfig(n_null=n_null, seed=3))
        drawn = np.concatenate(seen)
        assert drawn.shape == (n_null, *rows.shape)
        for t in range(n_null):
            assert np.array_equal(drawn[t], _reference_null_levels(rows, 3, t))

    @pytest.mark.parametrize("sequences, n_null", RANDOM_SETS, ids=SET_IDS)
    @pytest.mark.parametrize("excluded", [frozenset(), frozenset({NS})], ids=["none", "NS"])
    def test_disorders_match(self, sequences, n_null, excluded):
        rows = _rows(sequences)
        cfg = GammaConfig(n_null=n_null, seed=3, excluded_levels=excluded)
        total, count = _reference_terms(rows, excluded)
        ref_observed = total / count if count else 0.0
        ref_expected = _reference_expected(rows, cfg)
        if excluded:
            assert observed_disorder(sequences, cfg) == pytest.approx(ref_observed, rel=1e-12)
            assert expected_disorder(sequences, cfg) == pytest.approx(ref_expected, rel=1e-12)
        else:
            assert observed_disorder(sequences, cfg) == ref_observed
            assert expected_disorder(sequences, cfg) == ref_expected

    def test_every_clip_excluded(self):
        # Every trial leaves nothing to compare, so every trial mean is 0.
        sequences = {"a": [NS, EN, S], "b": [S, NS, EN]}
        cfg = GammaConfig(n_null=9, seed=3, excluded_levels={EN, HN, NS, S})
        assert observed_disorder(sequences, cfg) == 0.0
        reference = _reference_expected(_rows(sequences), cfg)
        assert expected_disorder(sequences, cfg) == reference == 0.0


class TestGamma:
    def test_identical_nonconstant_sequences_give_exactly_one(self):
        seqs = {"A": [EN, S, HN, NS], "B": [EN, S, HN, NS]}
        result = gamma(seqs, GammaConfig(seed=1))
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
            values.append(gamma(seqs, GammaConfig(seed=seed)).gamma)
        assert abs(float(np.mean(values))) <= 0.05

    def test_invariant_to_renaming_and_common_permutation(self):
        rng = np.random.default_rng(21)
        seqs = {a: [ObjLevel(int(v)) for v in rng.integers(0, 4, 60)] for a in ("A", "B")}
        base = gamma(seqs, GammaConfig(seed=3))
        renamed = gamma({"X": seqs["A"], "Y": seqs["B"]}, GammaConfig(seed=3))
        assert renamed.gamma == pytest.approx(base.gamma, abs=1e-12)
        perm = rng.permutation(60)
        permuted = {a: [seq[i] for i in perm] for a, seq in seqs.items()}
        shuffled = gamma(permuted, GammaConfig(seed=3))
        # observed disorder is a mean over clips, exactly permutation-invariant
        assert shuffled.observed_disorder == pytest.approx(base.observed_disorder, abs=1e-12)
        # null marginals are unchanged too
        assert shuffled.expected_disorder == pytest.approx(base.expected_disorder, abs=1e-12)

    def test_exclusion_noop_without_ns(self):
        rng = np.random.default_rng(8)
        seqs = {
            a: [ObjLevel(int(v)) for v in rng.choice([0, 1, 3], size=80)] for a in ("A", "B")
        }
        plain = gamma(seqs, GammaConfig(seed=4))
        excl = gamma(seqs, GammaConfig(seed=4, excluded_levels={NS}))
        assert plain == excl

    def test_exclusion_never_grows_comparisons(self):
        rng = np.random.default_rng(12)
        seqs = {a: [ObjLevel(int(v)) for v in rng.integers(0, 4, 80)] for a in ("A", "B", "C")}
        plain = gamma(seqs, GammaConfig(seed=4))
        excl = gamma(seqs, GammaConfig(seed=4, excluded_levels={NS}))
        assert excl.n_pairs <= plain.n_pairs

    def test_degenerate_null_reported(self, monkeypatch):
        # Marginal resampling cannot produce a zero null for sequences
        # that actually disagree, so force the branch directly.
        monkeypatch.setattr(agreement_mod, "expected_disorder", lambda s, cfg: 0.0)
        with pytest.raises(DegenerateNull):
            agreement_mod.gamma({"A": [EN, S], "B": [S, EN]}, GammaConfig(seed=1))

    def test_nothing_left_to_compare_rejected(self):
        # A pair whose every clip holds an excluded level has no
        # agreement to report, not perfect agreement.
        cfg = GammaConfig(seed=1, excluded_levels={NS})
        with pytest.raises(EmptyInput, match=r"pair A\|B"):
            gamma({"A": [NS, NS], "B": [EN, S]}, cfg)
        with pytest.raises(EmptyInput, match=r"film 'f', pair A\|B"):
            gamma_per_film_and_average({"f": {"A": [NS, NS], "B": [EN, S], "C": [EN, S]}}, cfg)

    def test_config_validation(self):
        with pytest.raises(InvariantViolation):
            GammaConfig(n_null=0)


class TestPerFilmAverage:
    def test_single_film_average_equals_film_gamma(self):
        rng = np.random.default_rng(31)
        seqs = {a: [ObjLevel(int(v)) for v in rng.integers(0, 4, 50)] for a in ("A", "B")}
        summary = gamma_per_film_and_average({"juno": seqs}, GammaConfig(seed=2))
        assert len(summary.per_pair) == 1
        assert summary.average == summary.per_pair[0].result.gamma

    def test_pairs_weighted_equally(self):
        rng = np.random.default_rng(32)
        identical = [ObjLevel(int(v)) for v in rng.integers(0, 4, 50)]
        film1 = {"A": identical, "B": list(identical)}  # gamma exactly 1
        film2 = {"A": [ObjLevel(int(v)) for v in rng.integers(0, 4, 50)],
                 "B": [ObjLevel(int(v)) for v in rng.integers(0, 4, 50)]}
        summary = gamma_per_film_and_average({"f1": film1, "f2": film2}, GammaConfig(seed=2))
        g2 = summary.per_pair[1].result.gamma
        assert summary.per_pair[0].result.gamma == 1.0
        assert summary.average == pytest.approx((1.0 + g2) / 2.0, abs=1e-12)

    def test_four_annotators_make_six_pairs(self):
        rng = np.random.default_rng(33)
        seqs = {a: [ObjLevel(int(v)) for v in rng.integers(0, 4, 40)] for a in "ABCD"}
        summary = gamma_per_film_and_average({"f": seqs}, GammaConfig(seed=2))
        assert len(summary.per_pair) == 6

    def test_film_with_one_annotator_rejected(self):
        with pytest.raises(FewerThanTwoAnnotators):
            gamma_per_film_and_average({"f": {"A": [EN]}}, GammaConfig(seed=2))

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
        cfg = GammaConfig(seed=7, n_null=4000)
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
        assert by_film["f1"].expected_disorder == pytest.approx(expected_f1, abs=0.02)
        assert summary.average == pytest.approx(
            float(np.mean([r.result.gamma for r in summary.per_pair])), abs=1e-12
        )
