"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criteria 3 and 4 drive the randomized generator in
``journeygen``; criterion 7 checks exports against the DOT grammar in
``dotcheck``.
"""

import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from statistics import fmean, pstdev

import pytest

from dotcheck import check_dot
from journeygen import MUTATIONS, mutation_corpus_journey, random_journey
from pjo import (
    DegenerateAgreementError,
    RatingMatrix,
    cause_trace,
    fleiss_kappa,
    followup_chain,
    john_doe_bundle,
    likert_summary,
    parse_bundle,
    serialize_bundle,
    structurally_equal,
    timeline,
    to_dot,
)
from pjo.records import EdgeKind
from pjo.seed import (
    ENCOUNTER_ALLERGY,
    ENCOUNTER_ALLERGY_FOLLOWUP,
    ENCOUNTER_GENERAL_MEDICINE,
    ENCOUNTER_PULMONOLOGY,
    JOHN_DOE_ID,
)

ENCOUNTER_ORDER = [
    ENCOUNTER_GENERAL_MEDICINE,
    ENCOUNTER_PULMONOLOGY,
    ENCOUNTER_ALLERGY,
    ENCOUNTER_ALLERGY_FOLLOWUP,
]


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number} FAIL: {description}")
                raise
            print(f"\n[acceptance] criterion {number} PASS: {description}")
            return result

        return wrapper

    return decorate


@criterion(1, "golden journey parses, validates, and orders the timeline")
def test_criterion_1_golden_journey():
    started = time.perf_counter()
    result = parse_bundle(john_doe_bundle())
    assert result.ok, result.problems
    report = result.graph.check_invariants()
    assert report.errors == []
    entries = timeline(result.graph, JOHN_DOE_ID)
    assert [e.encounter_id for e in entries] == ENCOUNTER_ORDER
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "relationship semantics: cause trace, follow-up chain, journey gap")
def test_criterion_2_relationship_semantics():
    graph = parse_bundle(john_doe_bundle()).graph
    trace = cause_trace(graph, ENCOUNTER_PULMONOLOGY)
    assert [e.encounter_id for e in trace] == [
        ENCOUNTER_PULMONOLOGY,
        ENCOUNTER_GENERAL_MEDICINE,
    ]
    chain = followup_chain(graph, ENCOUNTER_ALLERGY)
    assert [e.encounter_id for e in chain] == [
        ENCOUNTER_ALLERGY,
        ENCOUNTER_ALLERGY_FOLLOWUP,
    ]
    graph.edges = [e for e in graph.edges if e.kind is not EdgeKind.NEXT]
    report = graph.check_invariants()
    assert report.errors == []
    gaps = [d for d in report.warnings if d.code == "journey-gap"]
    assert len(gaps) == 1
    assert ENCOUNTER_PULMONOLOGY in gaps[0].message
    assert ENCOUNTER_ALLERGY in gaps[0].message


@criterion(3, "1,000 valid journeys pass; 5 x 100 mutations all detected")
def test_criterion_3_invariant_suite():
    started = time.perf_counter()
    rng = random.Random(20210105)
    for _ in range(1000):
        graph = random_journey(rng)
        report = graph.check_invariants()
        assert report.errors == [], report.errors
    detected = {code: 0 for code, _ in MUTATIONS}
    for _ in range(100):
        base = mutation_corpus_journey(rng)
        assert base.check_invariants().errors == []
        for expected_code, mutate in MUTATIONS:
            damaged = mutate(base, rng)
            codes = {d.code for d in damaged.check_invariants().errors}
            assert expected_code in codes, (expected_code, codes)
            detected[expected_code] += 1
    assert all(count == 100 for count in detected.values()), detected
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.3f}s"


@criterion(4, "1,000 round trips preserve structure; serialization is a fixpoint")
def test_criterion_4_round_trip():
    rng = random.Random(20210315)
    failures = 0
    for index in range(1000):
        graph = random_journey(
            rng,
            min_patients=1,
            max_patients=1,
            max_encounters=5,
            hostile_names=index % 4 == 0,
        )
        patient_id = next(iter(graph.patients))
        once = serialize_bundle(graph, patient_id)
        parsed = parse_bundle(once)
        if not parsed.ok or not structurally_equal(parsed.graph, graph):
            failures += 1
            continue
        if serialize_bundle(parsed.graph, patient_id) != once:
            failures += 1
    assert failures == 0


@criterion(5, "Fleiss' kappa: fixtures, degeneracy, permutations, monotonicity")
def test_criterion_5_fleiss_kappa():
    for rows in ([[3, 0], [0, 3]], [[2, 0, 0], [0, 2, 0], [0, 0, 2]]):
        assert fleiss_kappa(RatingMatrix.from_counts(rows)).kappa == 1.0

    fixture = fleiss_kappa(RatingMatrix.from_counts([[2, 0], [1, 1]]))
    assert abs(fixture.kappa - (-1 / 3)) < 1e-9

    with pytest.raises(DegenerateAgreementError):
        fleiss_kappa(RatingMatrix.from_counts([[2, 0], [2, 0]]))

    rng = random.Random(20210725)
    max_delta = 0.0
    checked = 0
    while checked < 500:
        n_subjects = rng.randint(1, 8)
        k = rng.randint(2, 5)
        n = rng.randint(2, 6)
        rows = []
        for _ in range(n_subjects):
            row = [0] * k
            for _ in range(n):
                row[rng.randrange(k)] += 1
            rows.append(row)
        totals = [sum(row[j] for row in rows) for j in range(k)]
        if any(t == n_subjects * n for t in totals):
            continue
        base = fleiss_kappa(RatingMatrix.from_counts(rows)).kappa
        order = list(range(k))
        rng.shuffle(order)
        permuted = fleiss_kappa(
            RatingMatrix.from_counts([[row[j] for j in order] for row in rows])
        ).kappa
        max_delta = max(max_delta, abs(permuted - base))
        checked += 1
    assert max_delta < 1e-12, max_delta

    # Brute force over every k=2 matrix with N <= 3 subjects, n <= 3
    # raters: the implementation must match exact rational arithmetic,
    # and with fixed column totals kappa must be nondecreasing in the
    # concentration sum(n_ij^2).
    def exact(rows) -> Fraction:
        n_subjects, n = len(rows), sum(rows[0])
        total = n_subjects * n
        expected = sum(
            Fraction(sum(row[j] for row in rows), total) ** 2 for j in range(2)
        )
        observed = Fraction(
            sum(sum(v * v for v in row) - n for row in rows),
            n_subjects * n * (n - 1),
        )
        return (observed - expected) / (1 - expected)

    comparisons = 0
    for n_subjects in (1, 2, 3):
        for n in (2, 3):
            groups = {}
            for combo in itertools.product(range(n + 1), repeat=n_subjects):
                rows = [[a, n - a] for a in combo]
                first_total = sum(a for a, _ in rows)
                if first_total in (0, n_subjects * n):
                    continue
                kappa = fleiss_kappa(RatingMatrix.from_counts(rows)).kappa
                assert abs(kappa - float(exact(rows))) < 1e-12
                concentration = sum(v * v for row in rows for v in row)
                groups.setdefault(first_total, []).append((concentration, kappa))
            for members in groups.values():
                members.sort()
                for (_, k1), (_, k2) in zip(members, members[1:]):
                    assert k2 >= k1 - 1e-12
                    comparisons += 1
    assert comparisons > 50


@criterion(6, "Likert summaries match direct pooled computation")
def test_criterion_6_likert():
    summary = likert_summary({"overall": [4, 4, 5, 5]})
    (dim,) = summary.dimensions
    assert abs(dim.mean - 4.5) < 1e-12
    assert abs(dim.sd - 0.5) < 1e-12
    assert abs(dim.agree_fraction - 1.0) < 1e-12

    rng = random.Random(20220418)
    for _ in range(200):
        responses = {
            f"dim{i}": [rng.randint(1, 5) for _ in range(rng.randint(1, 10))]
            for i in range(rng.randint(1, 6))
        }
        summary = likert_summary(responses)
        pooled = [v for values in responses.values() for v in values]
        assert abs(summary.overall_mean - fmean(pooled)) < 1e-12
        assert abs(summary.overall_sd - pstdev(pooled)) < 1e-12


@criterion(7, "DOT export: counts formula, grammar parse, determinism")
def test_criterion_7_dot_export():
    rng = random.Random(19810714)
    for index in range(100):
        graph = random_journey(rng, hostile_names=index % 5 == 0)
        first = to_dot(graph, detail="journey")
        second = to_dot(graph, detail="journey")
        assert first == second
        summary = check_dot(first)
        expected_nodes = (
            len(graph.patients) + len(graph.intake_forms) + len(graph.encounters)
        )
        expected_edges = (
            len(graph.intake_forms) + len(graph.encounters) + len(graph.edges)
        )
        assert summary.node_count == expected_nodes
        assert summary.edge_count == expected_edges


@criterion(8, "CLI conformance: documented examples, exit codes, stable JSON")
def test_criterion_8_cli(tmp_path):
    def run_cli(*args, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "pjo", *args],
            input=stdin,
            capture_output=True,
            text=True,
            env=dict(os.environ, PJO_NO_COLOR="1"),
        )

    # Example 1: seed | validate -  ->  exit 0, report with 0 errors.
    seed = run_cli("seed", "john-doe")
    assert seed.returncode == 0
    validate = run_cli("validate", "-", stdin=seed.stdout)
    assert validate.returncode == 0
    assert "0 errors" in validate.stdout

    # Example 2: query timeline --patient JohnDoe  ->  4-row table.
    bundle_path = tmp_path / "john.json"
    bundle_path.write_text(seed.stdout, encoding="utf-8")
    shown = run_cli("query", "timeline", "--patient", "JohnDoe", str(bundle_path))
    assert shown.returncode == 0
    lines = shown.stdout.strip().splitlines()
    assert len(lines) == 6  # header + separator + 4 rows
    for encounter_id, line in zip(ENCOUNTER_ORDER, lines[2:]):
        assert encounter_id in line

    # Example 3: stats kappa on the [[2,0],[1,1]] fixture  ->  -0.3333.
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("subject,yes,no\ns1,2,0\ns2,1,1\n", encoding="utf-8")
    kappa = run_cli("stats", "kappa", str(ratings))
    assert kappa.returncode == 0
    assert "-0.3333" in kappa.stdout

    # JSON output is byte-identical across two invocations.
    for args in (
        ("validate", "--format", "json", str(bundle_path)),
        ("query", "timeline", "--format", "json", "--patient", "JohnDoe", str(bundle_path)),
        ("stats", "kappa", "--format", "json", str(ratings)),
    ):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    # Exit-code contract: validation failure -> 1, usage error -> 2.
    invalid = run_cli("validate", "-", stdin="{nope")
    assert invalid.returncode == 1
    usage = run_cli("query", "timeline", str(bundle_path))
    assert usage.returncode == 2
