import itertools
import math
import random
from fractions import Fraction
from statistics import fmean, pstdev

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjo import (
    DegenerateAgreementError,
    RatingMatrix,
    ShapeError,
    fleiss_kappa,
    likert_responses_from_csv,
    likert_summary,
    rating_matrix_from_csv,
)


def exact_kappa(rows) -> Fraction:
    """Independent reference: the Fleiss formula in exact rational arithmetic."""
    n_subjects = len(rows)
    n = sum(rows[0])
    k = len(rows[0])
    total = n_subjects * n
    column_totals = [sum(row[j] for row in rows) for j in range(k)]
    expected = sum(Fraction(c, total) ** 2 for c in column_totals)
    observed = Fraction(
        sum(sum(v * v for v in row) - n for row in rows), n_subjects * n * (n - 1)
    )
    return (observed - expected) / (1 - expected)


def exact_variance(rows) -> Fraction:
    n_subjects = len(rows)
    n = sum(rows[0])
    k = len(rows[0])
    total = n_subjects * n
    shares = [Fraction(sum(row[j] for row in rows), total) for j in range(k)]
    s1 = sum(p**2 for p in shares)
    s2 = sum(p**3 for p in shares)
    numerator = 2 * (s1 - (2 * n - 3) * s1**2 + 2 * (n - 2) * s2)
    return numerator / (n_subjects * n * (n - 1) * (1 - s1) ** 2)


def random_matrix(rng: random.Random, max_subjects=8, max_categories=5, max_raters=7):
    n_subjects = rng.randint(1, max_subjects)
    k = rng.randint(2, max_categories)
    n = rng.randint(2, max_raters)
    rows = []
    for _ in range(n_subjects):
        row = [0] * k
        for _ in range(n):
            row[rng.randrange(k)] += 1
        rows.append(row)
    return rows


def nondegenerate(rows) -> bool:
    total = len(rows) * sum(rows[0])
    return all(
        sum(row[j] for row in rows) != total for j in range(len(rows[0]))
    )


matrix_seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestRatingMatrixShape:
    def test_from_counts_happy_path(self):
        matrix = RatingMatrix.from_counts([[2, 0], [1, 1]])
        assert matrix.n_subjects == 2
        assert matrix.n_categories == 2
        assert matrix.raters_per_subject == 2

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[2, 0], [1]],
            [[3]],
            [[-1, 3]],
            [[1.0, 1.0]],
            [[True, False]],
            [[2, 0], [1, 2]],
            [[1, 0]],
        ],
    )
    def test_malformed_counts_rejected(self, rows):
        with pytest.raises(ShapeError):
            RatingMatrix.from_counts(rows)


class TestFleissKappa:
    def test_perfect_agreement_is_exactly_one(self):
        for rows in ([[3, 0], [0, 3]], [[2, 0, 0], [0, 2, 0]], [[5, 0], [0, 5], [5, 0]]):
            result = fleiss_kappa(RatingMatrix.from_counts(rows))
            assert result.kappa == 1.0
            assert result.observed_agreement == 1.0

    def test_hand_computed_fixture(self):
        # [[2,0],[1,1]], n=2: per-subject agreement (4+0-2)/2 = 1 and
        # (1+1-2)/2 = 0, so observed = 1/2; column shares (3/4, 1/4) give
        # expected = 9/16 + 1/16 = 5/8; kappa = (1/2 - 5/8)/(3/8) = -1/3.
        result = fleiss_kappa(RatingMatrix.from_counts([[2, 0], [1, 1]]))
        assert result.observed_agreement == 0.5
        assert result.expected_agreement == 0.625
        assert abs(result.kappa - (-1 / 3)) < 1e-15

    def test_hand_computed_standard_error(self):
        # Same fixture: S1 = 5/8, S2 = 27/64 + 1/64 = 7/16; bracket =
        # 5/8 - 25/64 = 15/64; variance = 2(15/64)/(2*2*1*(3/8)^2) = 5/6.
        result = fleiss_kappa(RatingMatrix.from_counts([[2, 0], [1, 1]]))
        assert abs(result.standard_error - math.sqrt(5 / 6)) < 1e-12
        low, high = result.ci95
        assert low == result.kappa - 1.96 * result.standard_error
        assert high == result.kappa + 1.96 * result.standard_error

    def test_published_psychiatric_table(self):
        # The 10-subject, 14-rater, 5-category table from Fleiss' worked
        # example; its kappa is widely quoted as 0.210.
        rows = [
            [0, 0, 0, 0, 14],
            [0, 2, 6, 4, 2],
            [0, 0, 3, 5, 6],
            [0, 3, 9, 2, 0],
            [2, 2, 8, 1, 1],
            [7, 7, 0, 0, 0],
            [3, 2, 6, 3, 0],
            [2, 5, 3, 2, 2],
            [6, 5, 2, 1, 0],
            [0, 2, 2, 3, 7],
        ]
        result = fleiss_kappa(RatingMatrix.from_counts(rows))
        assert abs(result.kappa - float(exact_kappa(rows))) < 1e-12
        assert round(result.kappa, 3) == 0.210

    @pytest.mark.parametrize("rows", [[[2, 0], [2, 0]], [[3, 0, 0]], [[0, 4], [0, 4]]])
    def test_degenerate_single_category(self, rows):
        with pytest.raises(DegenerateAgreementError):
            fleiss_kappa(RatingMatrix.from_counts(rows))

    def test_near_degenerate_is_still_computed(self):
        # One dissenting rating: expected agreement close to, not equal, 1.
        result = fleiss_kappa(RatingMatrix.from_counts([[4, 0], [4, 0], [3, 1]]))
        assert math.isfinite(result.kappa)

    @given(matrix_seeds)
    @settings(max_examples=80)
    def test_matches_exact_rational_reference(self, seed):
        rows = random_matrix(random.Random(seed))
        if not nondegenerate(rows):
            return
        result = fleiss_kappa(RatingMatrix.from_counts(rows))
        assert abs(result.kappa - float(exact_kappa(rows))) < 1e-12
        assert abs(result.standard_error - math.sqrt(float(exact_variance(rows)))) < 1e-12

    @given(matrix_seeds)
    @settings(max_examples=60)
    def test_category_permutation_invariance(self, seed):
        rng = random.Random(seed)
        rows = random_matrix(rng)
        if not nondegenerate(rows):
            return
        base = fleiss_kappa(RatingMatrix.from_counts(rows)).kappa
        order = list(range(len(rows[0])))
        rng.shuffle(order)
        shuffled = [[row[j] for j in order] for row in rows]
        assert abs(fleiss_kappa(RatingMatrix.from_counts(shuffled)).kappa - base) < 1e-12

    @given(matrix_seeds)
    @settings(max_examples=60)
    def test_subject_permutation_invariance(self, seed):
        rng = random.Random(seed)
        rows = random_matrix(rng)
        if not nondegenerate(rows):
            return
        base = fleiss_kappa(RatingMatrix.from_counts(rows)).kappa
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert abs(fleiss_kappa(RatingMatrix.from_counts(shuffled)).kappa - base) < 1e-12

    @given(matrix_seeds)
    @settings(max_examples=60)
    def test_kappa_at_most_one(self, seed):
        rows = random_matrix(random.Random(seed))
        if not nondegenerate(rows):
            return
        result = fleiss_kappa(RatingMatrix.from_counts(rows))
        assert result.kappa <= 1.0 + 1e-12
        low, high = result.ci95
        assert low <= result.kappa <= high

    def test_monotone_in_concentration_for_fixed_marginals(self):
        # With column totals fixed, expected agreement is constant and
        # observed agreement is affine in the concentration sum(n_ij^2),
        # so kappa must be nondecreasing in it.  Enumerate every k=2
        # matrix with N <= 3 subjects and n <= 3 raters.
        checked = 0
        for n_subjects in (1, 2, 3):
            for n in (2, 3):
                groups: dict[tuple, list] = {}
                for combo in itertools.product(range(n + 1), repeat=n_subjects):
                    rows = [[a, n - a] for a in combo]
                    if not nondegenerate(rows):
                        continue
                    marginals = (sum(a for a, _ in rows), sum(b for _, b in rows))
                    concentration = sum(v * v for row in rows for v in row)
                    kappa = fleiss_kappa(RatingMatrix.from_counts(rows)).kappa
                    groups.setdefault(marginals, []).append((concentration, kappa))
                for members in groups.values():
                    members.sort()
                    for (c1, k1), (c2, k2) in zip(members, members[1:]):
                        assert k2 >= k1 - 1e-12, (c1, k1, c2, k2)
                        checked += 1
        assert checked > 50


class TestLikertSummary:
    def test_hand_computed_fixture(self):
        summary = likert_summary({"clarity": [4, 4, 5, 5]})
        (dim,) = summary.dimensions
        assert dim.n_responses == 4
        assert dim.mean == 4.5
        assert dim.sd == 0.5
        assert dim.agree_fraction == 1.0

    def test_split_opinions(self):
        summary = likert_summary({"fit": [1, 5]})
        (dim,) = summary.dimensions
        assert dim.mean == 3.0
        assert dim.sd == 2.0
        assert dim.agree_fraction == 0.5

    def test_unanimous_fives(self):
        (dim,) = likert_summary({"d": [5, 5, 5]}).dimensions
        assert (dim.mean, dim.sd, dim.agree_fraction) == (5.0, 0.0, 1.0)

    def test_threes_do_not_count_as_agreement(self):
        (dim,) = likert_summary({"d": [3, 3, 4]}).dimensions
        assert dim.agree_fraction == pytest.approx(1 / 3)

    def test_dimensions_keep_input_order(self):
        summary = likert_summary({"zeta": [3], "alpha": [4]})
        assert [d.dimension for d in summary.dimensions] == ["zeta", "alpha"]

    def test_overall_pools_responses_not_averages_of_means(self):
        # Unbalanced dimensions: mean of means would be 3.0, pooling
        # [1, 5, 5, 5] gives 4.0.
        summary = likert_summary({"a": [1], "b": [5, 5, 5]})
        assert summary.overall_mean == 4.0
        assert summary.overall_sd == pstdev([1, 5, 5, 5])

    @pytest.mark.parametrize(
        "responses",
        [
            {},
            {"d": []},
            {"d": [0]},
            {"d": [6]},
            {"d": [4.5]},
            {"d": [True]},
            {"good": [4], "bad": [1, 9]},
        ],
    )
    def test_malformed_responses_rejected(self, responses):
        with pytest.raises(ShapeError):
            likert_summary(responses)

    @given(matrix_seeds)
    @settings(max_examples=60)
    def test_pooled_statistics_match_direct_computation(self, seed):
        rng = random.Random(seed)
        responses = {
            f"dim{i}": [rng.randint(1, 5) for _ in range(rng.randint(1, 9))]
            for i in range(rng.randint(1, 5))
        }
        summary = likert_summary(responses)
        pooled = [v for values in responses.values() for v in values]
        assert abs(summary.overall_mean - fmean(pooled)) < 1e-12
        assert abs(summary.overall_sd - pstdev(pooled)) < 1e-12
        for dim in summary.dimensions:
            values = responses[dim.dimension]
            assert abs(dim.mean - fmean(values)) < 1e-12
            assert dim.agree_fraction == sum(1 for v in values if v >= 4) / len(values)


class TestCsvLoaders:
    def test_counts_layout(self):
        matrix = rating_matrix_from_csv("subject,yes,no\ns1,2,0\ns2,1,1\n")
        assert matrix.counts == ((2, 0), (1, 1))
        assert matrix.raters_per_subject == 2

    def test_counts_layout_ignores_blank_lines(self):
        matrix = rating_matrix_from_csv("subject,a,b\n\ns1,3,0\n\ns2,2,1\n\n")
        assert matrix.counts == ((3, 0), (2, 1))

    def test_long_layout(self):
        text = (
            "rater,subject,category\n"
            "r1,s1,yes\nr2,s1,yes\n"
            "r1,s2,yes\nr2,s2,no\n"
        )
        matrix = rating_matrix_from_csv(text)
        # Subjects and categories are ordered by sorted label: (no, yes).
        assert matrix.counts == ((0, 2), (1, 1))

    def test_counts_layout_rejects_a_repeated_subject(self):
        text = "subject,yes,no\ns1,2,0\ns2,1,1\ns1,0,2\n"
        with pytest.raises(ShapeError, match=r"^row 3 repeats subject 's1'$"):
            rating_matrix_from_csv(text)

    def test_long_layout_rejects_duplicate_rating(self):
        text = "rater,subject,category\nr1,s1,yes\nr1,s1,no\n"
        with pytest.raises(ShapeError):
            rating_matrix_from_csv(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "who,knows\n1,2\n",
            "subject,a,b\ns1,2,x\n",
            "subject,a,b\ns1,2\n",
            "rater,subject,category\n",
            "subject,a,b\n",
        ],
    )
    def test_malformed_csv_rejected(self, text):
        with pytest.raises(ShapeError):
            rating_matrix_from_csv(text)

    def test_likert_layout(self):
        responses = likert_responses_from_csv(
            "dimension,response\nclarity,4\nclarity,5\nfit,3\n"
        )
        assert responses == {"clarity": [4, 5], "fit": [3]}
        assert list(responses) == ["clarity", "fit"]

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "dimension,response\n",
            "dimension,response\nclarity,high\n",
            "dim,resp\nclarity,4\n",
        ],
    )
    def test_malformed_likert_csv_rejected(self, text):
        with pytest.raises(ShapeError):
            likert_responses_from_csv(text)

    @pytest.mark.parametrize("load", [rating_matrix_from_csv, likert_responses_from_csv])
    def test_field_over_the_csv_field_limit_is_a_shape_error(self, load):
        with pytest.raises(ShapeError, match="CSV"):
            load("subject,a,b\n" + "x" * 200_000 + ",1,1\n")

    def test_long_and_counts_layouts_agree(self):
        long_text = (
            "rater,subject,category\n"
            "r1,s1,a\nr2,s1,a\nr3,s1,b\n"
            "r1,s2,b\nr2,s2,b\nr3,s2,a\n"
        )
        counts_text = "subject,a,b\ns1,2,1\ns2,1,2\n"
        left = fleiss_kappa(rating_matrix_from_csv(long_text))
        right = fleiss_kappa(rating_matrix_from_csv(counts_text))
        assert left.kappa == right.kappa
