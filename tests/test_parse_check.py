"""The parser checks a joined graph once, with the join rules only.

The bundle reader applies every field rule of ``records.FIELDS`` as it
reads, and any field error stops the parse before the records are joined.
So ``parse_bundle`` runs only the checker's join pass
(``JourneyGraph._check_joins``), never ``graph.field_problems``, and its
``ParseResult.report`` must still equal the full ``check_invariants()``.
"""

from __future__ import annotations

import random

import pytest

import pjo.graph
from golden_corpus import CASE_KINDS
from journeygen import random_journey
from pjo import JourneyGraph, john_doe_bundle, parse_bundle, serialize_bundle


def long_journey_bundle() -> str:
    graph = random_journey(
        random.Random(7), min_patients=1, max_patients=1, min_encounters=40, max_encounters=40
    )
    return serialize_bundle(graph, next(iter(graph.patients)))


@pytest.fixture
def calls(monkeypatch):
    counts = {"field_problems": 0, "_check_joins": 0, "check_invariants": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def count(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, count)

    counted(pjo.graph, "field_problems")
    counted(JourneyGraph, "_check_joins")
    counted(JourneyGraph, "check_invariants")
    return counts


@pytest.mark.parametrize(
    "text", [john_doe_bundle(), long_journey_bundle()], ids=["seed", "generated-journey"]
)
def test_parse_runs_the_join_pass_once_and_no_field_rule(text, calls):
    result = parse_bundle(text)
    assert result.ok
    assert calls == {"field_problems": 0, "_check_joins": 1, "check_invariants": 0}
    result.graph.check_invariants()  # the counters see the full check's field rules
    assert calls["field_problems"] > 0 and calls["check_invariants"] == 1


@pytest.mark.parametrize("kind", sorted(CASE_KINDS))
def test_the_parse_report_equals_the_full_check(kind):
    accepted = 0
    for _, text in CASE_KINDS[kind]():
        result = parse_bundle(text)
        if result.ok:
            accepted += 1
            assert result.report == result.graph.check_invariants()
    assert accepted > 0
