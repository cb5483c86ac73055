import copy
import pickle
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjo import (
    AmbiguousChainError,
    AmbiguousTraceError,
    CycleIntroducedError,
    EdgeKind,
    Encounter,
    FieldInvalidError,
    JourneyEdge,
    JourneyGraph,
    Patient,
    PjoError,
    Provider,
    Symptom,
    UnknownEncounterError,
    UnknownPatientError,
    cause_trace,
    find_encounters,
    followup_chain,
    serialize_bundle,
    symptom_diagnosis_links,
    symptom_progression,
    timeline,
)
from pjo.graph import (
    CROSS_PATIENT_LINK, DANGLING_REFERENCE, UNKNOWN_PATIENT, UNOWNED_ENCOUNTER,
)  # fmt: skip
from pjo.seed import (
    ENCOUNTER_ALLERGY,
    ENCOUNTER_ALLERGY_FOLLOWUP,
    ENCOUNTER_GENERAL_MEDICINE,
    ENCOUNTER_PULMONOLOGY,
    JOHN_DOE_ID,
)
from scan_oracles import (
    cause_trace_by_hand,
    cause_trace_by_scan,
    followup_chain_by_hand,
    followup_chain_by_scan,
)


def chain_graph(*dated_ids, kind=EdgeKind.HAS_FOLLOWUP, link_pairs=None):
    """A one-patient graph with the given (id, date) encounters and links.

    ``link_pairs`` defaults to consecutive pairs; pass explicit pairs to
    build branching shapes.
    """
    graph = JourneyGraph()
    graph.add_patient(Patient("P1", "Pat One", date(1980, 1, 1)))
    graph.add_provider(Provider("Provider-1", "Dr. One", "General Medicine"))
    for encounter_id, when in dated_ids:
        graph.add_encounter(
            "P1", Encounter(encounter_id, when, "General Medicine", "Provider-1")
        )
    ids = [encounter_id for encounter_id, _ in dated_ids]
    if link_pairs is None:
        link_pairs = list(zip(ids, ids[1:]))
    for source, target in link_pairs:
        graph.link(kind, source, target)
    return graph


class TestTimeline:
    def test_order_and_specialties(self, john_graph):
        entries = timeline(john_graph, JOHN_DOE_ID)
        assert [e.encounter_id for e in entries] == [
            ENCOUNTER_GENERAL_MEDICINE,
            ENCOUNTER_PULMONOLOGY,
            ENCOUNTER_ALLERGY,
            ENCOUNTER_ALLERGY_FOLLOWUP,
        ]
        assert [e.specialty for e in entries] == [
            "General Medicine",
            "Pulmonology",
            "Allergy",
            "Allergy",
        ]
        assert [e.date.isoformat() for e in entries] == [
            "2021-01-05",
            "2021-03-15",
            "2021-07-25",
            "2022-04-18",
        ]

    def test_link_annotations(self, john_graph):
        by_id = {e.encounter_id: e for e in timeline(john_graph, JOHN_DOE_ID)}
        gm = by_id[ENCOUNTER_GENERAL_MEDICINE]
        assert [(r.kind.value, r.encounter_id) for r in gm.inbound_links] == [
            ("causedBy", ENCOUNTER_PULMONOLOGY)
        ]
        assert gm.outbound_links == ()
        pulm = by_id[ENCOUNTER_PULMONOLOGY]
        assert pulm.inbound_links == ()
        assert [(r.kind.value, r.encounter_id) for r in pulm.outbound_links] == [
            ("causedBy", ENCOUNTER_GENERAL_MEDICINE),
            ("next", ENCOUNTER_ALLERGY),
        ]
        allergy = by_id[ENCOUNTER_ALLERGY]
        assert [(r.kind.value, r.encounter_id) for r in allergy.inbound_links] == [
            ("next", ENCOUNTER_PULMONOLOGY)
        ]
        assert [(r.kind.value, r.encounter_id) for r in allergy.outbound_links] == [
            ("hasFollowup", ENCOUNTER_ALLERGY_FOLLOWUP)
        ]

    def test_every_edge_appears_once_on_each_side(self, john_graph):
        entries = timeline(john_graph, JOHN_DOE_ID)
        inbound = sum(len(e.inbound_links) for e in entries)
        outbound = sum(len(e.outbound_links) for e in entries)
        assert inbound == outbound == len(john_graph.edges_of(JOHN_DOE_ID))

    def test_headline_diagnoses(self, john_graph):
        entries = timeline(john_graph, JOHN_DOE_ID)
        assert entries[0].headline_diagnoses == ("Vitamin D deficiency",)
        assert entries[1].headline_diagnoses == ("Mild sleep apnea",)

    def test_unknown_patient(self, john_graph):
        with pytest.raises(UnknownPatientError):
            timeline(john_graph, "Nobody")

    def test_a_link_kind_not_an_edge_kind_raises_the_checkers_problem(self, john_graph):
        """Pulmonology has two outbound links to sort, one of them bogus."""
        edges = john_graph.edges
        index = next(i for i, e in enumerate(edges) if e.from_encounter == ENCOUNTER_PULMONOLOGY)
        edge = edges[index]
        edges[index] = JourneyEdge("bogus", edge.from_encounter, edge.to_encounter)
        with pytest.raises(FieldInvalidError) as raised:
            timeline(john_graph, JOHN_DOE_ID)
        assert str(raised.value) == f"links[{index}].kind: kind must be an EdgeKind"
        assert isinstance(raised.value.__cause__, KeyError)


class TestSymptomProgression:
    def test_single_occurrence(self, john_graph):
        hits = symptom_progression(john_graph, JOHN_DOE_ID, "Headaches")
        assert len(hits) == 1
        assert hits[0].encounter_id == ENCOUNTER_GENERAL_MEDICINE
        assert hits[0].severity == "moderate"

    def test_match_is_case_insensitive(self, john_graph):
        assert symptom_progression(john_graph, JOHN_DOE_ID, "headaches") == (
            symptom_progression(john_graph, JOHN_DOE_ID, "Headaches")
        )

    def test_match_is_exact_not_substring(self, john_graph):
        assert symptom_progression(john_graph, JOHN_DOE_ID, "Headache") == []

    def test_absent_symptom(self, john_graph):
        assert symptom_progression(john_graph, JOHN_DOE_ID, "Chest pain") == []

    def test_progression_across_encounters(self, john_graph):
        hits = symptom_progression(john_graph, JOHN_DOE_ID, "Sneezing")
        assert [(h.encounter_id, h.severity) for h in hits] == [
            (ENCOUNTER_ALLERGY, "moderate"),
            (ENCOUNTER_ALLERGY_FOLLOWUP, "mild"),
        ]

    def test_worsening_cough_fixture(self):
        graph = chain_graph(
            ("E1", date(2021, 1, 1)), ("E2", date(2021, 2, 1)), link_pairs=[]
        )
        graph.encounters["E1"].symptoms.append(Symptom("Cough", "mild"))
        graph.encounters["E2"].symptoms.append(Symptom("Cough", "severe"))
        hits = symptom_progression(graph, "P1", "cough")
        assert [(h.date, h.severity) for h in hits] == [
            (date(2021, 1, 1), "mild"),
            (date(2021, 2, 1), "severe"),
        ]


class TestFollowupChain:
    def test_chain_from_either_end(self, john_graph):
        expected = [ENCOUNTER_ALLERGY, ENCOUNTER_ALLERGY_FOLLOWUP]
        for start in expected:
            chain = followup_chain(john_graph, start)
            assert [e.encounter_id for e in chain] == expected

    def test_singleton_chain(self, john_graph):
        chain = followup_chain(john_graph, ENCOUNTER_GENERAL_MEDICINE)
        assert [e.encounter_id for e in chain] == [ENCOUNTER_GENERAL_MEDICINE]

    def test_three_step_chain(self):
        graph = chain_graph(
            ("E1", date(2021, 1, 1)),
            ("E2", date(2021, 2, 1)),
            ("E3", date(2021, 3, 1)),
        )
        for start in ("E1", "E2", "E3"):
            assert [e.encounter_id for e in followup_chain(graph, start)] == ["E1", "E2", "E3"]

    def test_out_branching_is_ambiguous(self):
        graph = chain_graph(
            ("A", date(2021, 1, 1)),
            ("B", date(2021, 2, 1)),
            ("C", date(2021, 3, 1)),
            link_pairs=[("A", "B"), ("A", "C")],
        )
        with pytest.raises(AmbiguousChainError) as caught:
            followup_chain(graph, "A")
        assert caught.value.branch_point == "A"
        # Walking backward from a branch target hits the same fork.
        with pytest.raises(AmbiguousChainError):
            followup_chain(graph, "B")

    def test_in_branching_is_ambiguous(self):
        graph = chain_graph(
            ("A", date(2021, 1, 1)),
            ("B", date(2021, 1, 15)),
            ("C", date(2021, 3, 1)),
            link_pairs=[("A", "C"), ("B", "C")],
        )
        with pytest.raises(AmbiguousChainError) as caught:
            followup_chain(graph, "C")
        assert caught.value.branch_point == "C"
        with pytest.raises(AmbiguousChainError):
            followup_chain(graph, "A")

    def test_unknown_encounter(self, john_graph):
        with pytest.raises(UnknownEncounterError):
            followup_chain(john_graph, "ghost")


class TestCauseTrace:
    def test_two_step_trace(self, john_graph):
        trace = cause_trace(john_graph, ENCOUNTER_PULMONOLOGY)
        assert [e.encounter_id for e in trace] == [
            ENCOUNTER_PULMONOLOGY,
            ENCOUNTER_GENERAL_MEDICINE,
        ]

    def test_root_has_singleton_trace(self, john_graph):
        trace = cause_trace(john_graph, ENCOUNTER_GENERAL_MEDICINE)
        assert [e.encounter_id for e in trace] == [ENCOUNTER_GENERAL_MEDICINE]

    def test_three_step_trace(self):
        graph = chain_graph(
            ("E1", date(2021, 1, 1)),
            ("E2", date(2021, 2, 1)),
            ("E3", date(2021, 3, 1)),
            kind=EdgeKind.CAUSED_BY,
            link_pairs=[("E3", "E2"), ("E2", "E1")],
        )
        assert [e.encounter_id for e in cause_trace(graph, "E3")] == ["E3", "E2", "E1"]

    def test_branching_causes_are_ambiguous(self):
        graph = chain_graph(
            ("E1", date(2021, 1, 1)),
            ("E2", date(2021, 2, 1)),
            ("E3", date(2021, 3, 1)),
            kind=EdgeKind.CAUSED_BY,
            link_pairs=[("E3", "E1"), ("E3", "E2")],
        )
        with pytest.raises(AmbiguousTraceError) as caught:
            cause_trace(graph, "E3")
        assert caught.value.branch_point == "E3"

    def test_trace_ignores_other_kinds(self, john_graph):
        trace = cause_trace(john_graph, ENCOUNTER_ALLERGY_FOLLOWUP)
        assert [e.encounter_id for e in trace] == [ENCOUNTER_ALLERGY_FOLLOWUP]


class TestChainsOnGraphsTheCheckerRejects:
    """``followup_chain`` and ``cause_trace`` read only the owner's links
    (``edges_of(patient_of(encounter))``).  On a graph the checker accepts
    that is every link a walk can take; these graphs show where the
    result differs from a walk over every stored link."""

    def two_patients(self):
        graph = chain_graph(("E1", date(2021, 1, 1)), ("E2", date(2021, 2, 1)))
        graph.add_patient(Patient("P2", "Pat Two", date(1980, 1, 1)))
        graph.add_encounter("P2", Encounter("E3", date(2021, 3, 1), "Allergy", "Provider-1"))
        return graph

    def test_a_cross_patient_followup_is_not_followed(self):
        graph = self.two_patients()
        graph.edges.append(JourneyEdge(EdgeKind.HAS_FOLLOWUP, "E2", "E3"))
        assert CROSS_PATIENT_LINK in {d.code for d in graph.check_invariants().errors}
        for start in ("E1", "E2"):
            assert [e.encounter_id for e in followup_chain(graph, start)] == ["E1", "E2"]
            by_scan = followup_chain_by_scan(graph, start)
            assert [e.encounter_id for e in by_scan] == ["E1", "E2", "E3"]
        assert [e.encounter_id for e in followup_chain(graph, "E3")] == ["E3"]

    def test_a_cross_patient_cause_is_not_followed(self):
        graph = self.two_patients()
        graph.edges.append(JourneyEdge(EdgeKind.CAUSED_BY, "E3", "E2"))
        assert CROSS_PATIENT_LINK in {d.code for d in graph.check_invariants().errors}
        assert [e.encounter_id for e in cause_trace(graph, "E3")] == ["E3"]
        assert [e.encounter_id for e in cause_trace_by_scan(graph, "E3")] == ["E3", "E2"]

    def test_an_encounter_owned_by_no_stored_patient(self):
        graph = self.two_patients()
        graph.encounter_owner["E3"] = "Ghost"
        assert UNKNOWN_PATIENT in {d.code for d in graph.check_invariants().errors}
        for query in (followup_chain, cause_trace):
            with pytest.raises(UnknownPatientError):
                query(graph, "E3")

    def test_an_encounter_with_no_owner_entry(self):
        graph = self.two_patients()
        del graph.encounter_owner["E3"]
        assert UNOWNED_ENCOUNTER in {d.code for d in graph.check_invariants().errors}
        with pytest.raises(UnknownPatientError):
            graph.patient_of("E3")
        for query in (followup_chain, cause_trace):
            with pytest.raises(UnknownPatientError):
                query(graph, "E3")

    def test_a_walk_reaching_an_owned_key_the_graph_does_not_store(self, john_graph):
        first = ENCOUNTER_GENERAL_MEDICINE
        john_graph.encounter_owner["Ghost"] = JOHN_DOE_ID
        john_graph.edges.append(JourneyEdge(EdgeKind.HAS_FOLLOWUP, "Ghost", first))
        john_graph.edges.append(JourneyEdge(EdgeKind.CAUSED_BY, first, "Ghost"))
        assert DANGLING_REFERENCE in {d.code for d in john_graph.check_invariants().errors}
        for query in (followup_chain, cause_trace):
            with pytest.raises(UnknownEncounterError) as raised:
                query(john_graph, first)
            # The message patient_of gives for an encounter the graph does not hold.
            assert str(raised.value) == "unknown encounter 'Ghost'"


class TestChainCycles:
    """A cycle of stored links, which ``link`` refuses, written straight into
    ``edges``: each walk raises ``CycleIntroducedError`` at the first key it
    meets again."""

    def test_a_followup_cycle_is_met_walking_back(self):
        graph = chain_graph(("E1", date(2021, 1, 1)), ("E2", date(2021, 2, 1)))
        graph.edges.append(JourneyEdge(EdgeKind.HAS_FOLLOWUP, "E2", "E1"))
        for start in ("E1", "E2"):
            with pytest.raises(CycleIntroducedError) as raised:
                followup_chain(graph, start)
            assert str(raised.value) == f"follow-up edges cycle through {start!r}"

    def test_a_followup_cycle_ahead_is_met_walking_back_first(self):
        """Walking forward, the next key's one link behind is the step just
        taken, so a key met again was met walking back already: from E1, the
        cycle E2 -> E3 -> E2 ahead branches at E2, and from E2 or E3 the
        backward walk closes it."""
        graph = chain_graph(
            ("E1", date(2021, 1, 1)), ("E2", date(2021, 2, 1)), ("E3", date(2021, 3, 1))
        )
        graph.edges.append(JourneyEdge(EdgeKind.HAS_FOLLOWUP, "E3", "E2"))
        with pytest.raises(AmbiguousChainError) as branched:
            followup_chain(graph, "E1")
        assert branched.value.branch_point == "E2"
        graph.edges.remove(JourneyEdge(EdgeKind.HAS_FOLLOWUP, "E1", "E2"))
        for start in ("E2", "E3"):
            with pytest.raises(CycleIntroducedError) as raised:
                followup_chain(graph, start)
            assert str(raised.value) == f"follow-up edges cycle through {start!r}"
        assert [e.encounter_id for e in followup_chain(graph, "E1")] == ["E1"]

    def test_a_cause_cycle(self):
        graph = chain_graph(
            ("E1", date(2021, 1, 1)),
            ("E2", date(2021, 2, 1)),
            ("E3", date(2021, 3, 1)),
            kind=EdgeKind.CAUSED_BY,
            link_pairs=[("E3", "E2"), ("E2", "E1")],
        )
        graph.edges.append(JourneyEdge(EdgeKind.CAUSED_BY, "E1", "E3"))
        with pytest.raises(CycleIntroducedError) as raised:
            cause_trace(graph, "E3")
        assert str(raised.value) == "caused-by edges cycle through 'E3'"


@pytest.mark.parametrize("error", [AmbiguousChainError, AmbiguousTraceError])
def test_a_branch_error_survives_pickle_and_copy(error):
    """A worker process returns an error pickled; both once lost the
    ``branch_point`` their ``__init__`` requires, and failed to load."""
    original = error("follow-up chain branches at 'X'", branch_point="X")
    for twin in (pickle.loads(pickle.dumps(original)), copy.copy(original), copy.deepcopy(original)):
        assert type(twin) is error
        assert str(twin) == str(original)
        assert twin.args == ("follow-up chain branches at 'X'",)
        assert twin.branch_point == "X"


def _outcome(query, graph, start):
    """What a chain query gives: the IDs, or the error's class, message and
    branch point."""
    try:
        return [e.encounter_id for e in query(graph, start)]
    except PjoError as error:
        return type(error), str(error), getattr(error, "branch_point", None)


KEYS = ["E1", "E2", "E3", "E4", "E5", "E6", "E7"]


@st.composite
def tangled_journeys(draw) -> JourneyGraph:
    """One to seven encounters of one patient, and another patient's one,
    with links of every kind written straight into ``edges``: branches,
    cycles, repeats and links across patients included."""
    count = draw(st.integers(1, len(KEYS)))
    days = st.integers(1, 28).map(lambda day: date(2021, 1, day))
    graph = chain_graph(*((key, draw(days)) for key in KEYS[:count]), link_pairs=[])
    graph.add_patient(Patient("P2", "Pat Two", date(1980, 1, 1)))
    graph.add_encounter("P2", Encounter("Other", date(2021, 1, 1), "Allergy", "Provider-1"))
    ends = st.sampled_from([*KEYS[:count], "Other"])
    links = st.tuples(st.sampled_from(list(EdgeKind)), ends, ends)
    graph.edges.extend(JourneyEdge(*link) for link in draw(st.lists(links, max_size=10)))
    return graph


@given(graph=tangled_journeys(), data=st.data())
@settings(max_examples=400, deadline=None)
def test_the_chain_queries_walk_as_the_hand_written_walks_did(graph, data):
    start = data.draw(st.sampled_from([*graph.encounters, "Ghost"]))
    assert _outcome(followup_chain, graph, start) == _outcome(followup_chain_by_hand, graph, start)
    assert _outcome(cause_trace, graph, start) == _outcome(cause_trace_by_hand, graph, start)

class TestSymptomDiagnosisLinks:
    def test_seed_rows(self, john_graph):
        rows = symptom_diagnosis_links(john_graph, JOHN_DOE_ID)
        assert len(rows) == 7
        assert [(r.symptom_name, r.diagnosis_name) for r in rows[:2]] == [
            ("Dizziness", "Vitamin D deficiency"),
            ("Headaches", "Vitamin D deficiency"),
        ]
        assert rows[-1].encounter_id == ENCOUNTER_ALLERGY_FOLLOWUP

    def test_gm_pairs_cover_both_symptoms(self, john_graph):
        rows = symptom_diagnosis_links(john_graph, JOHN_DOE_ID)
        gm = {
            (r.symptom_name, r.diagnosis_name)
            for r in rows
            if r.encounter_id == ENCOUNTER_GENERAL_MEDICINE
        }
        assert gm == {
            ("Headaches", "Vitamin D deficiency"),
            ("Dizziness", "Vitamin D deficiency"),
        }

    def test_cross_product_within_one_encounter(self):
        graph = chain_graph(("E1", date(2021, 1, 1)), link_pairs=[])
        encounter = graph.encounters["E1"]
        encounter.symptoms.extend([Symptom("S-a", ""), Symptom("S-b", "")])
        from pjo import Diagnosis

        encounter.diagnoses.extend([Diagnosis("D-a"), Diagnosis("D-b")])
        rows = symptom_diagnosis_links(graph, "P1")
        assert [(r.symptom_name, r.diagnosis_name) for r in rows] == [
            ("S-a", "D-a"),
            ("S-a", "D-b"),
            ("S-b", "D-a"),
            ("S-b", "D-b"),
        ]

    def test_no_diagnoses_no_rows(self):
        graph = chain_graph(("E1", date(2021, 1, 1)), link_pairs=[])
        graph.encounters["E1"].symptoms.append(Symptom("Cough", "mild"))
        assert symptom_diagnosis_links(graph, "P1") == []


class TestFindEncounters:
    def test_by_specialty(self, john_graph):
        assert find_encounters(john_graph, JOHN_DOE_ID, specialty="Allergy") == [
            ENCOUNTER_ALLERGY,
            ENCOUNTER_ALLERGY_FOLLOWUP,
        ]

    def test_specialty_is_case_insensitive(self, john_graph):
        assert find_encounters(john_graph, JOHN_DOE_ID, specialty="allergy") == (
            find_encounters(john_graph, JOHN_DOE_ID, specialty="Allergy")
        )

    def test_by_diagnosis(self, john_graph):
        assert find_encounters(john_graph, diagnosis_name="mild sleep apnea") == [
            ENCOUNTER_PULMONOLOGY
        ]

    def test_by_date_range(self, john_graph):
        hits = find_encounters(
            john_graph,
            JOHN_DOE_ID,
            date_from=date(2021, 1, 1),
            date_to=date(2021, 12, 31),
        )
        assert hits == [
            ENCOUNTER_GENERAL_MEDICINE,
            ENCOUNTER_PULMONOLOGY,
            ENCOUNTER_ALLERGY,
        ]

    def test_range_bounds_are_inclusive(self, john_graph):
        hits = find_encounters(
            john_graph,
            JOHN_DOE_ID,
            date_from=date(2021, 1, 5),
            date_to=date(2021, 1, 5),
        )
        assert hits == [ENCOUNTER_GENERAL_MEDICINE]

    def test_impossible_range_is_empty(self, john_graph):
        assert (
            find_encounters(
                john_graph,
                JOHN_DOE_ID,
                date_from=date(2022, 1, 1),
                date_to=date(2021, 1, 1),
            )
            == []
        )

    def test_conjunction_of_filters(self, john_graph):
        hits = find_encounters(
            john_graph,
            JOHN_DOE_ID,
            specialty="Allergy",
            date_to=date(2021, 12, 31),
        )
        assert hits == [ENCOUNTER_ALLERGY]

    def test_no_filters_returns_everything(self, john_graph):
        assert len(find_encounters(john_graph)) == 4

    def test_unknown_patient(self, john_graph):
        with pytest.raises(UnknownPatientError):
            find_encounters(john_graph, "Nobody")

    @pytest.mark.parametrize("value", [5, None, object(), "Allergy"])
    def test_a_patient_without_encounters_matches_nothing_whatever_the_filters(
        self, john_graph, value
    ):
        """No filter is read when there is no encounter to compare it with."""
        john_graph.add_patient(Patient("P2", "Pat Two", date(1980, 1, 1)))
        assert find_encounters(john_graph, "P2", specialty=value, diagnosis_name=value) == []

    def test_each_name_filter_is_folded_once_per_call(self, john_graph):
        folded = []

        class Name(str):
            def casefold(self):
                folded.append(str(self))
                return super().casefold()

        hits = find_encounters(
            john_graph, specialty=Name("allergy"), diagnosis_name=Name("seasonal allergic rhinitis")
        )
        assert hits == [ENCOUNTER_ALLERGY, ENCOUNTER_ALLERGY_FOLLOWUP]
        assert folded == ["allergy", "seasonal allergic rhinitis"]


class TestQueryHygiene:
    def test_queries_do_not_mutate_the_graph(self, john_graph):
        before = serialize_bundle(john_graph, JOHN_DOE_ID)
        timeline(john_graph, JOHN_DOE_ID)
        symptom_progression(john_graph, JOHN_DOE_ID, "Sneezing")
        followup_chain(john_graph, ENCOUNTER_ALLERGY)
        cause_trace(john_graph, ENCOUNTER_PULMONOLOGY)
        symptom_diagnosis_links(john_graph, JOHN_DOE_ID)
        find_encounters(john_graph, JOHN_DOE_ID, specialty="Allergy")
        assert serialize_bundle(john_graph, JOHN_DOE_ID) == before

    def test_queries_are_deterministic(self, john_graph):
        assert timeline(john_graph, JOHN_DOE_ID) == timeline(john_graph, JOHN_DOE_ID)
        assert symptom_diagnosis_links(john_graph, JOHN_DOE_ID) == (
            symptom_diagnosis_links(john_graph, JOHN_DOE_ID)
        )
