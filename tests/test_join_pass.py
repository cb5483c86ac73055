"""The checker's join pass against the plain passes in ``scan_oracles``.

``_check_edges`` looks for cycles among same-day links first and runs
Kahn's algorithm over the whole graph only when a link is undated or runs
backward in time, or the same-day links hold a cycle; the record passes
skip the problem lists of clean records.  Whatever the graph, the report
must equal ``check_by_scan``'s, diagnostic for diagnostic and in order.
"""

from __future__ import annotations

import random
from datetime import date, datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pjo.graph
from journeygen import MUTATIONS, mutation_corpus_journey, random_journey
from pjo import EdgeKind, Encounter, JourneyEdge, JourneyGraph, Patient, Provider
from pjo.graph import CYCLE, cyclic_nodes, oriented_edges
from scan_oracles import assert_checker_matches_the_scans

START = date(2022, 3, 1)
PATIENTS = ["P0", "P1", "P2"]
KEYS = [f"E{n}" for n in range(8)]


def cohort(seed: int) -> JourneyGraph:
    return random_journey(
        random.Random(seed), min_patients=30, max_patients=30, min_encounters=2, max_encounters=10
    )


@pytest.mark.parametrize("seed", range(5))
def test_generated_cohorts_match_the_scans(seed):
    assert_checker_matches_the_scans(cohort(seed))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("code, mutate", MUTATIONS, ids=[code for code, _ in MUTATIONS])
def test_damaged_journeys_match_the_scans(seed, code, mutate):
    rng = random.Random(seed)
    graph = mutate(mutation_corpus_journey(rng), rng)
    assert code in [d.code for d in graph.check_invariants().errors]
    assert_checker_matches_the_scans(graph)


# -- hypothesis-built graphs -------------------------------------------------

days = st.integers(0, 1).map(lambda day: START + timedelta(days=day))
# A date, or now and then a value the date type rule refuses.
dates = st.one_of(days, days, st.sampled_from(["2022-03-01", None, datetime(2022, 3, 1)]))


@st.composite
def graphs(draw) -> JourneyGraph:
    """Up to eight encounters over two days, in some graphs some undated,
    owned by three patients, one missing patient or none; links of any kind
    between stored, missing or equal keys, in some graphs in either date
    order."""
    graph = JourneyGraph()
    graph.providers["D"] = Provider("D", "Dr. D")
    for patient_id in PATIENTS:
        graph.patients[patient_id] = Patient(patient_id, "Name", date(1970, 1, 1))
    dated = draw(st.sampled_from([days, dates]))
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=8, unique=True)):
        graph.encounters[key] = Encounter(key, draw(dated), "Allergy", "D")
        owner = draw(st.sampled_from(PATIENTS + [PATIENTS[0], "Ghost", None]))
        if owner is not None:
            graph.encounter_owner[key] = owner
    endpoints = st.sampled_from(KEYS[:7])  # E7 is sometimes stored, and sometimes not
    edges = st.builds(JourneyEdge, st.sampled_from(list(EdgeKind)), endpoints, endpoints)
    graph.edges = draw(st.lists(edges, max_size=14))
    if draw(st.booleans()):
        # Turn each link between two dated encounters forward in time, so
        # that the cycles of some graphs all lie within one day.
        graph.edges = [_forward(graph, edge) for edge in graph.edges]
    return graph


def _forward(graph: JourneyGraph, edge: JourneyEdge) -> JourneyEdge:
    source = graph.encounters.get(edge.from_encounter)
    target = graph.encounters.get(edge.to_encounter)
    if source is None or target is None or not all(
        e.date.__class__ is date for e in (source, target)
    ):
        return edge
    if (source.date > target.date) is (edge.kind is not EdgeKind.CAUSED_BY):
        return JourneyEdge(edge.kind, edge.to_encounter, edge.from_encounter, edge.via)
    return edge


@settings(max_examples=400, deadline=None)
@given(graphs())
def test_the_cycle_diagnostic_is_whole_graph_kahns(graph):
    in_cycle = cyclic_nodes(list(graph.encounters), oriented_edges(graph.edges))
    expected = ["journey links form a cycle through: " + ", ".join(in_cycle)] if in_cycle else []
    for report in (graph.check_invariants(), graph._check_joins()):
        assert [d.message for d in report.errors if d.code == CYCLE] == expected
    assert_checker_matches_the_scans(graph)


@pytest.mark.parametrize(
    "days, links, cycle",
    [
        ((0, 0, 1), [("E0", "E1"), ("E1", "E0"), ("E1", "E2")], ["E0", "E1", "E2"]),
        ((0, 1, 1), [("E1", "E0"), ("E0", "E2"), ("E2", "E1")], ["E0", "E1", "E2"]),
        ((0, 1, 2), [("E0", "E1"), ("E1", "E2")], []),
        ((0, 0, 0), [("E0", "E1"), ("E1", "E2")], []),
    ],
    ids=["same-day", "backward", "forward", "one-day"],
)
def test_each_branch_names_every_node_on_or_downstream_of_a_cycle(days, links, cycle):
    graph = JourneyGraph()
    graph.providers["D"] = Provider("D", "Dr. D")
    graph.patients["P"] = Patient("P", "Name", date(1970, 1, 1))
    for n, day in enumerate(days):
        graph.encounters[f"E{n}"] = Encounter(f"E{n}", START + timedelta(days=day), "Allergy", "D")
        graph.encounter_owner[f"E{n}"] = "P"
    graph.edges = [JourneyEdge(EdgeKind.NEXT, start, end) for start, end in links]
    messages = [d.message for d in graph.check_invariants().errors if d.code == CYCLE]
    expected = ["journey links form a cycle through: " + ", ".join(cycle)] if cycle else []
    assert messages == expected
    assert_checker_matches_the_scans(graph)


# -- where Kahn's algorithm runs -----------------------------------------------


def test_a_dated_acyclic_graph_is_checked_for_cycles_over_same_day_nodes_only(monkeypatch):
    graph = cohort(3)
    same_day = [
        arc
        for arc in oriented_edges(graph.edges)
        if graph.encounters[arc[0]].date == graph.encounters[arc[1]].date
    ]
    assert same_day and len(same_day) < len(graph.edges)
    calls = []

    def recorded(nodes, arcs):
        calls.append((list(nodes), list(arcs)))
        return cyclic_nodes(nodes, arcs)

    monkeypatch.setattr(pjo.graph, "cyclic_nodes", recorded)
    assert graph.check_invariants().ok
    assert calls == [(list(dict.fromkeys(node for arc in same_day for node in arc)), same_day)]
