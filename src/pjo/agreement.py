"""Fleiss' kappa for fixed-size rater panels and Likert rating summaries.

The kappa computation takes a subjects-by-categories count matrix where
every row sums to the common number of raters per subject.  Sums use
``math.fsum``, so results are exactly invariant under category and subject
permutations.  The standard error follows Fleiss' 1971 large-sample
null-variance formula, and the 95% interval is ``kappa +/- 1.96 * SE``.
"""

from __future__ import annotations

import csv
import io
import math
from statistics import fmean, pstdev

from .errors import DegenerateAgreementError, ShapeError
from .records import slotted

AGREE_CATEGORIES = (4, 5)
LIKERT_RANGE = (1, 5)


@slotted(frozen=True)
class RatingMatrix:
    """Counts of ratings per subject (row) and category (column)."""

    counts: tuple[tuple[int, ...], ...]
    raters_per_subject: int

    @classmethod
    def from_counts(cls, rows: Sequence[Sequence[int]]) -> "RatingMatrix":
        """Validate a counts table and infer the panel size from row sums."""
        if not rows:
            raise ShapeError("rating matrix needs at least one subject")
        widths = {len(row) for row in rows}
        if len(widths) != 1:
            raise ShapeError("all rows must have the same number of categories")
        if widths.pop() < 2:
            raise ShapeError("rating matrix needs at least two categories")
        for i, row in enumerate(rows):
            for value in row:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ShapeError(f"row {i} contains a non-integer count")
                if value < 0:
                    raise ShapeError(f"row {i} contains a negative count")
        sums = {sum(row) for row in rows}
        if len(sums) != 1:
            raise ShapeError("every subject must be rated by the same number of raters")
        raters = sums.pop()
        if raters < 2:
            raise ShapeError("each subject needs at least two ratings")
        return cls(tuple(tuple(row) for row in rows), raters)

    @property
    def n_subjects(self) -> int:
        return len(self.counts)

    @property
    def n_categories(self) -> int:
        return len(self.counts[0])


@slotted(frozen=True)
class KappaResult:
    kappa: float
    standard_error: float
    ci95: tuple[float, float]
    observed_agreement: float
    expected_agreement: float


def fleiss_kappa(matrix: RatingMatrix) -> KappaResult:
    """Chance-corrected agreement for the rating matrix.

    Raises :class:`DegenerateAgreementError` when every rating falls in a
    single category, where expected agreement is 1 and kappa is undefined.
    """
    counts = matrix.counts
    n = matrix.raters_per_subject
    n_subjects = matrix.n_subjects
    total = n_subjects * n
    column_totals = [sum(row[j] for row in counts) for j in range(matrix.n_categories)]
    if any(column_total == total for column_total in column_totals):
        raise DegenerateAgreementError(
            "all ratings fall in one category; expected agreement is 1"
        )
    shares = [column_total / total for column_total in column_totals]
    expected = math.fsum(share * share for share in shares)
    per_subject = [
        (math.fsum(value * value for value in row) - n) / (n * (n - 1)) for row in counts
    ]
    observed = math.fsum(per_subject) / n_subjects
    kappa = (observed - expected) / (1.0 - expected)
    cubed = math.fsum(share**3 for share in shares)
    variance = (
        2.0
        * (expected - (2 * n - 3) * expected**2 + 2 * (n - 2) * cubed)
        / (n_subjects * n * (n - 1) * (1.0 - expected) ** 2)
    )
    standard_error = math.sqrt(variance)
    return KappaResult(
        kappa=kappa,
        standard_error=standard_error,
        ci95=(kappa - 1.96 * standard_error, kappa + 1.96 * standard_error),
        observed_agreement=observed,
        expected_agreement=expected,
    )


@slotted(frozen=True)
class DimensionSummary:
    dimension: str
    n_responses: int
    mean: float
    sd: float
    agree_fraction: float


@slotted(frozen=True)
class LikertSummary:
    dimensions: tuple[DimensionSummary, ...]
    overall_mean: float
    overall_sd: float


def likert_summary(responses: Mapping[str, Sequence[int]]) -> LikertSummary:
    """Mean, population SD, and agree fraction per dimension, plus pooled stats.

    ``responses`` maps dimension names to 1-5 ratings; dimensions are
    reported in input order.  The agree fraction counts ratings of 4 or 5.
    The overall mean and SD pool every individual response, they are not
    averages of the per-dimension statistics.
    """
    if not responses:
        raise ShapeError("at least one dimension is required")
    low, high = LIKERT_RANGE
    pooled: list[int] = []
    dimensions = []
    for dimension, values in responses.items():
        if not values:
            raise ShapeError(f"dimension {dimension!r} has no responses")
        for value in values:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ShapeError(f"dimension {dimension!r} contains a non-integer response")
            if not low <= value <= high:
                raise ShapeError(
                    f"dimension {dimension!r} contains {value}, outside [{low}, {high}]"
                )
        pooled.extend(values)
        agreeing = sum(1 for value in values if value in AGREE_CATEGORIES)
        dimensions.append(
            DimensionSummary(
                dimension=dimension,
                n_responses=len(values),
                mean=fmean(values),
                sd=pstdev(values),
                agree_fraction=agreeing / len(values),
            )
        )
    return LikertSummary(
        dimensions=tuple(dimensions),
        overall_mean=fmean(pooled),
        overall_sd=pstdev(pooled),
    )


# -- CSV input ------------------------------------------------------------


def _csv_rows(text: str) -> list[list[str]]:
    try:
        rows = [
            [cell.strip() for cell in row]
            for row in csv.reader(io.StringIO(text))
            if any(cell.strip() for cell in row)
        ]
    except csv.Error as exc:  # such as a field over the reader's size limit
        raise ShapeError(f"CSV input could not be read: {exc}") from None
    if not rows:
        raise ShapeError("CSV input is empty")
    return rows


def rating_matrix_from_csv(text: str) -> RatingMatrix:
    """Load a rating matrix from CSV text, in either supported layout.

    Counts layout: header ``subject,<category>,...`` with one count row per
    subject; a row that repeats a subject label is refused.  Long layout:
    header ``rater,subject,category`` with one rating per row; categories
    and subjects are ordered by sorted label.
    """
    rows = _csv_rows(text)
    header = [cell.casefold() for cell in rows[0]]
    if header == ["rater", "subject", "category"]:
        return _matrix_from_long_rows(rows[1:])
    if header and header[0] == "subject" and len(header) >= 3:
        return _matrix_from_count_rows(rows[1:], expected_width=len(rows[0]))
    raise ShapeError(
        "unrecognized CSV header: expected 'subject,<category>,...' "
        "or 'rater,subject,category'"
    )


def _matrix_from_count_rows(rows: list[list[str]], expected_width: int) -> RatingMatrix:
    if not rows:
        raise ShapeError("counts CSV has no subject rows")
    counts = []
    subjects = set()
    for index, row in enumerate(rows):
        if len(row) != expected_width:
            raise ShapeError(f"row {index + 1} has {len(row)} cells, expected {expected_width}")
        if row[0] in subjects:
            raise ShapeError(f"row {index + 1} repeats subject {row[0]!r}")
        subjects.add(row[0])
        try:
            counts.append([int(cell) for cell in row[1:]])
        except ValueError:
            raise ShapeError(f"row {index + 1} contains a non-integer count") from None
    return RatingMatrix.from_counts(counts)


def _matrix_from_long_rows(rows: list[list[str]]) -> RatingMatrix:
    if not rows:
        raise ShapeError("long-form CSV has no rating rows")
    ratings: dict[tuple[str, str], str] = {}
    for index, row in enumerate(rows):
        if len(row) != 3:
            raise ShapeError(f"row {index + 1} has {len(row)} cells, expected 3")
        rater, subject, category = row
        if (rater, subject) in ratings:
            raise ShapeError(f"rater {rater!r} rated subject {subject!r} twice")
        ratings[(rater, subject)] = category
    subjects = sorted({subject for _, subject in ratings})
    categories = sorted(set(ratings.values()))
    if len(categories) < 2:
        raise ShapeError("long-form CSV uses fewer than two categories")
    column = {category: j for j, category in enumerate(categories)}
    counts = [[0] * len(categories) for _ in subjects]
    row_of = {subject: i for i, subject in enumerate(subjects)}
    for (_, subject), category in ratings.items():
        counts[row_of[subject]][column[category]] += 1
    return RatingMatrix.from_counts(counts)


def likert_responses_from_csv(text: str) -> dict[str, list[int]]:
    """Load ``dimension,response`` CSV rows, dimensions in first-appearance order."""
    rows = _csv_rows(text)
    header = [cell.casefold() for cell in rows[0]]
    if header != ["dimension", "response"]:
        raise ShapeError("unrecognized CSV header: expected 'dimension,response'")
    if not rows[1:]:
        raise ShapeError("likert CSV has no response rows")
    responses: dict[str, list[int]] = {}
    for index, row in enumerate(rows[1:]):
        if len(row) != 2:
            raise ShapeError(f"row {index + 1} has {len(row)} cells, expected 2")
        dimension, raw = row
        try:
            value = int(raw)
        except ValueError:
            raise ShapeError(f"row {index + 1} contains a non-integer response") from None
        responses.setdefault(dimension, []).append(value)
    return responses
