"""Differential tests: grouped graph operations against scan-based oracles.

``timeline``, the journey-gap check and ``to_dot`` group the graph once
per call; ``link`` checks for cycles among same-day encounters only.  Each
must give exactly what the plain scans in ``scan_oracles`` give, on valid
generated journeys, on every corrupted journey of the mutation corpus, and
on graphs written to directly.
"""

from __future__ import annotations

import copy
import random
from datetime import date, timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from journeygen import MUTATIONS, mutation_corpus_journey, random_journey
from pjo import (
    EdgeKind,
    Encounter,
    IntakeForm,
    JourneyGraph,
    MedicalHistory,
    Patient,
    Provider,
    SocialHistory,
    to_dot,
)
from pjo.errors import CycleIntroducedError, PjoError
from pjo.graph import JOURNEY_GAP
from pjo.queries import timeline
from scan_oracles import gap_warnings_by_scan, link_by_kahn, timeline_by_scan, to_dot_by_scan


def assert_matches_oracles(graph: JourneyGraph) -> None:
    for patient_id in sorted(graph.patients):
        assert timeline(graph, patient_id) == timeline_by_scan(graph, patient_id)
        for detail in ("journey", "full"):
            assert to_dot(graph, patient_id, detail) == to_dot_by_scan(graph, patient_id, detail)
    for detail in ("journey", "full"):
        assert to_dot(graph, detail=detail) == to_dot_by_scan(graph, detail=detail)
    gaps = [d for d in graph.check_invariants().diagnostics if d.code == JOURNEY_GAP]
    assert gaps == gap_warnings_by_scan(graph)


@pytest.mark.parametrize("seed", range(40))
def test_generated_journeys_match_the_scans(seed):
    rng = random.Random(seed)
    graph = random_journey(
        rng,
        min_patients=1,
        max_patients=5,
        max_encounters=8,
        hostile_names=seed % 2 == 1,
        chain_probability=rng.choice([0.3, 0.85, 1.0]),
    )
    assert_matches_oracles(graph)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name,mutate", MUTATIONS, ids=[name for name, _ in MUTATIONS])
def test_mutated_journeys_match_the_scans(seed, name, mutate):
    rng = random.Random(seed)
    graph = mutate(mutation_corpus_journey(rng), rng)
    assert_matches_oracles(graph)


def test_directly_written_ownership_faults_match_the_scans():
    rng = random.Random(3)
    graph = random_journey(rng, min_patients=3, max_patients=3, min_encounters=3)
    first, second, _ = sorted(graph.patients)
    # An encounter owned by an unknown patient, one with no owner, an
    # ownership entry without its encounter, a second intake form for a
    # patient that has one and an ownership entry for a missing intake form.
    moved, orphan = graph.encounters_of(first)[:2]
    graph.encounter_owner[moved.encounter_id] = "Patient-Ghost"
    del graph.encounter_owner[orphan.encounter_id]
    graph.encounter_owner["Encounter-Ghost"] = second
    form = IntakeForm(
        intake_form_id="IntakeForm-Extra",
        medical_history=MedicalHistory(),
        social_history=SocialHistory(smoking_habit="Never smoker", drinking_habit="None"),
    )
    graph.intake_forms[form.intake_form_id] = form
    graph.intake_form_owner[form.intake_form_id] = next(iter(graph.intake_form_owner.values()))
    graph.intake_form_owner["IntakeForm-Ghost"] = second
    assert_matches_oracles(graph)


# -- link(): the same-day cycle check against whole-graph Kahn ------------

START = date(2022, 3, 1)


def _outcome(call):
    try:
        return ("accepted", call())
    except PjoError as exc:
        return (type(exc), str(exc))


@given(data=st.data())
def test_link_accepts_exactly_when_whole_graph_stays_acyclic(data):
    graph = JourneyGraph()
    graph.add_provider(Provider("Provider-1", "Dr. Ada Lane"))
    encounter_ids = []
    for p in range(data.draw(st.integers(1, 3), label="patients")):
        patient_id = f"Patient-{p}"
        graph.add_patient(Patient(patient_id, f"Name {p}", date(1970, 1, 1)))
        for e in range(data.draw(st.integers(1, 7), label="encounters")):
            day = data.draw(st.integers(0, 2), label="day")
            encounter_id = f"{patient_id}-Enc-{e}"
            graph.add_encounter(
                patient_id,
                Encounter(encounter_id, START + timedelta(days=day), "Allergy", "Provider-1"),
            )
            encounter_ids.append(encounter_id)
    twin = copy.deepcopy(graph)
    attempts = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(list(EdgeKind)),
                st.sampled_from(encounter_ids + ["Encounter-Ghost"]),
                st.sampled_from(encounter_ids),
            ),
            max_size=40,
        ),
        label="attempts",
    )
    for kind, source, target in attempts:
        before = list(graph.edges)
        expected = _outcome(lambda: link_by_kahn(twin, kind, source, target))
        actual = _outcome(lambda: graph.link(kind, source, target))
        assert actual == expected
        if actual[0] != "accepted":
            assert len(graph.edges) == len(before)
            assert not before or graph.edges[-1] is before[-1]
        assert graph.edges == twin.edges


def test_same_day_cycle_through_every_kind_is_refused():
    graph = JourneyGraph()
    graph.add_provider(Provider("Provider-1", "Dr. Ada Lane"))
    graph.add_patient(Patient("Patient-1", "Jo Roe", date(1970, 1, 1)))
    for name in ("A", "B", "C", "D"):
        graph.add_encounter("Patient-1", Encounter(name, START, "Allergy", "Provider-1"))
    later = Encounter("Later", START + timedelta(days=9), "Allergy", "Provider-1")
    graph.add_encounter("Patient-1", later)
    graph.link(EdgeKind.NEXT, "A", "B")
    graph.link(EdgeKind.HAS_FOLLOWUP, "B", "C")
    graph.link(EdgeKind.CAUSED_BY, "D", "C")  # oriented C -> D
    graph.link(EdgeKind.NEXT, "D", "Later")
    before = list(graph.edges)
    with pytest.raises(CycleIntroducedError, match="introduces a cycle"):
        graph.link(EdgeKind.CAUSED_BY, "A", "D")  # oriented D -> A closes A-B-C-D
    assert graph.edges == before and graph.edges[-1] is before[-1]
    graph.link(EdgeKind.NEXT, "A", "D")  # parallel to the path, no cycle
    assert graph.check_invariants().ok
