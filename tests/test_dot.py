import random
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotcheck import check_dot
from journeygen import random_journey
from pjo import (
    FieldInvalidError,
    JourneyGraph,
    Patient,
    UnknownPatientError,
    dot,
    john_doe_graph,
    to_dot,
)
from pjo.seed import (
    ENCOUNTER_ALLERGY,
    ENCOUNTER_ALLERGY_FOLLOWUP,
    ENCOUNTER_GENERAL_MEDICINE,
    ENCOUNTER_PULMONOLOGY,
    JOHN_DOE_ID,
)
from scan_oracles import to_dot_by_scan

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestJourneyDetail:
    def test_seed_counts(self, john_graph):
        summary = check_dot(to_dot(john_graph, JOHN_DOE_ID, detail="journey"))
        # 1 patient + 1 intake form + 4 encounters; 5 ownership edges
        # (intake form + encounters) + 3 journey links.
        assert summary.node_count == 6
        assert summary.edge_count == 8

    def test_seed_node_identities(self, john_graph):
        summary = check_dot(to_dot(john_graph, JOHN_DOE_ID))
        assert set(summary.node_ids) == {
            JOHN_DOE_ID,
            "IntakeForm-JohnDoe",
            ENCOUNTER_GENERAL_MEDICINE,
            ENCOUNTER_PULMONOLOGY,
            ENCOUNTER_ALLERGY,
            ENCOUNTER_ALLERGY_FOLLOWUP,
        }
        assert summary.node_labels[JOHN_DOE_ID] == "John Doe"

    def test_seed_edge_labels(self, john_graph):
        summary = check_dot(to_dot(john_graph, JOHN_DOE_ID))
        labels = summary.edge_labels
        assert labels[(JOHN_DOE_ID, "IntakeForm-JohnDoe")] == "hasIntakeForm"
        assert labels[(JOHN_DOE_ID, ENCOUNTER_ALLERGY)] == "hasEncounter"
        assert labels[(ENCOUNTER_PULMONOLOGY, ENCOUNTER_ALLERGY)] == "NEXT"
        assert labels[(ENCOUNTER_PULMONOLOGY, ENCOUNTER_GENERAL_MEDICINE)] == "causedBy"
        assert labels[(ENCOUNTER_ALLERGY, ENCOUNTER_ALLERGY_FOLLOWUP)] == "hasFollowup"

    def test_graph_shape(self, john_graph):
        text = to_dot(john_graph, JOHN_DOE_ID)
        summary = check_dot(text)
        assert summary.graph_name == "pjo"
        assert summary.graph_attrs.get("rankdir") == "LR"
        assert text.endswith("}\n")

    def test_empty_graph(self):
        summary = check_dot(to_dot(JourneyGraph()))
        assert summary.node_count == 0
        assert summary.edge_count == 0

    def test_whole_graph_export_covers_every_patient(self):
        graph = random_journey(
            random.Random(7), min_patients=2, max_patients=2, min_encounters=1
        )
        summary = check_dot(to_dot(graph))
        for patient_id in graph.patients:
            assert patient_id in summary.node_ids

    def test_patient_scoped_export_excludes_others(self):
        graph = random_journey(
            random.Random(7), min_patients=2, max_patients=2, min_encounters=1
        )
        first, second = sorted(graph.patients)
        summary = check_dot(to_dot(graph, first))
        assert first in summary.node_ids
        assert second not in summary.node_ids
        for encounter in graph.encounters_of(second):
            assert encounter.encounter_id not in summary.node_ids


class TestFullDetail:
    def test_subrecord_nodes_are_numbered_per_class(self, encounter_one_graph):
        summary = check_dot(to_dot(encounter_one_graph, "Patient-1", detail="full"))
        assert set(summary.node_ids) == {
            "Patient-1",
            "IntakeForm-1",
            "MedicalHistory-1",
            "SocialHistory-1",
            "Encounter-1",
            "Symptom-1",
            "Symptom-2",
            "VitalSign-1",
            "DiagTest-1",
            "Diagnosis-1",
            "Medication-1",
            "CarePlan-1",
        }
        assert summary.node_count == 12
        assert summary.edge_count == 11

    def test_subrecord_labels_carry_content(self, encounter_one_graph):
        summary = check_dot(to_dot(encounter_one_graph, "Patient-1", detail="full"))
        assert summary.node_labels["Symptom-1"] == "Headaches"
        assert summary.node_labels["Symptom-2"] == "Dizziness"
        assert summary.node_labels["Diagnosis-1"] == "Vitamin D deficiency"
        assert summary.node_labels["Medication-1"] == "Vitamin D supplement"

    def test_subrecord_edge_labels(self, encounter_one_graph):
        summary = check_dot(to_dot(encounter_one_graph, "Patient-1", detail="full"))
        labels = summary.edge_labels
        assert labels[("IntakeForm-1", "MedicalHistory-1")] == "hasMedicalHistory"
        assert labels[("IntakeForm-1", "SocialHistory-1")] == "hasSocialHistory"
        assert labels[("Encounter-1", "Symptom-1")] == "hasSymptom"
        assert labels[("Encounter-1", "VitalSign-1")] == "hasVitals"
        assert labels[("Encounter-1", "DiagTest-1")] == "hasTest"
        assert labels[("Encounter-1", "Diagnosis-1")] == "hasDiagnosis"
        assert labels[("Encounter-1", "Medication-1")] == "hasMedication"
        assert labels[("Encounter-1", "CarePlan-1")] == "hasPlan"

    @given(seeds, st.booleans())
    @settings(max_examples=30)
    def test_full_detail_matches_the_hand_written_oracle(self, seed, hostile):
        """The subrecords drawn from the field table, byte for byte as
        ``to_dot_by_scan`` draws each kind by hand."""
        graph = random_journey(random.Random(seed), min_encounters=1, hostile_names=hostile)
        assert to_dot(graph, detail="full") == to_dot_by_scan(graph, detail="full")
        for patient_id in graph.patients:
            expected = to_dot_by_scan(graph, patient_id, detail="full")
            assert to_dot(graph, patient_id, detail="full") == expected

    def test_full_includes_journey_links_too(self, john_graph):
        summary = check_dot(to_dot(john_graph, JOHN_DOE_ID, detail="full"))
        assert summary.edge_labels[(ENCOUNTER_PULMONOLOGY, ENCOUNTER_ALLERGY)] == "NEXT"


class TestRobustness:
    def test_unknown_patient(self, john_graph):
        with pytest.raises(UnknownPatientError):
            to_dot(john_graph, "Nobody")

    def test_unknown_detail_level(self, john_graph):
        with pytest.raises(ValueError):
            to_dot(john_graph, JOHN_DOE_ID, detail="everything")

    def test_output_is_deterministic(self, john_graph):
        assert to_dot(john_graph, JOHN_DOE_ID) == to_dot(john_graph, JOHN_DOE_ID)
        assert to_dot(john_graph, JOHN_DOE_ID, detail="full") == to_dot(
            john_graph, JOHN_DOE_ID, detail="full"
        )

    def test_quoting_hostile_identifiers(self):
        from datetime import date

        from pjo import Encounter, Patient, Provider

        graph = JourneyGraph()
        graph.add_patient(Patient('P "quoted"', 'Name with "quotes" and \\slash\\', date(1980, 1, 1)))
        graph.add_provider(Provider("Provider-1", "Dr. One", "General Medicine"))
        graph.add_encounter(
            'P "quoted"',
            Encounter("E\nnewline", date(2021, 1, 1), "General Medicine", "Provider-1"),
        )
        summary = check_dot(to_dot(graph))
        assert summary.node_count == 2
        assert summary.edge_count == 1

    @given(seeds)
    @settings(max_examples=25)
    def test_hostile_names_always_parse(self, seed):
        graph = random_journey(
            random.Random(seed), min_encounters=1, hostile_names=True
        )
        check_dot(to_dot(graph, detail="journey"))
        check_dot(to_dot(graph, detail="full"))

    @given(seeds)
    @settings(max_examples=30)
    def test_journey_counts_follow_the_formula(self, seed):
        graph = random_journey(random.Random(seed))
        summary = check_dot(to_dot(graph, detail="journey"))
        expected_nodes = (
            len(graph.patients) + len(graph.intake_forms) + len(graph.encounters)
        )
        expected_edges = (
            len(graph.intake_forms) + len(graph.encounters) + len(graph.edges)
        )
        assert summary.node_count == expected_nodes
        assert summary.edge_count == expected_edges


def _symptom_text(graph):
    graph.encounters[ENCOUNTER_ALLERGY].symptoms.append("text")


def _symptoms_text(graph):
    graph.encounters[ENCOUNTER_ALLERGY].symptoms = "text"


class TestWronglyTypedStructure:
    """A full drawing that fails on a structure the checker reports as
    ``invalid-type`` raises ``FieldInvalidError`` for the checker's first
    such problem, at its location, from the original error."""

    @pytest.mark.parametrize(
        "break_graph, problem",
        [
            (_symptom_text, f"encounters[{ENCOUNTER_ALLERGY}].symptoms[2]: "
             "symptoms entries must be a Symptom"),
            (_symptoms_text, f"encounters[{ENCOUNTER_ALLERGY}].symptoms: symptoms must be a list"),
        ],
        ids=["entry", "array"],
    )  # fmt: skip
    @pytest.mark.parametrize("patient_id", [None, JOHN_DOE_ID])
    def test_full_detail_raises_the_checkers_problem(
        self, john_graph, break_graph, problem, patient_id
    ):
        break_graph(john_graph)
        with pytest.raises(FieldInvalidError) as raised:
            to_dot(john_graph, patient_id, detail="full")
        assert str(raised.value) == problem
        assert isinstance(raised.value.__cause__, AttributeError)

    def test_journey_detail_still_draws_the_graph(self, john_graph):
        _symptom_text(john_graph)
        assert to_dot(john_graph, detail="journey") == to_dot(john_doe_graph())

    def test_only_the_drawn_patients_records_are_named(self, john_graph):
        """Patient A's contact does not stop a drawing, but it is the
        checker's first type problem on the whole graph."""
        _symptom_text(john_graph)
        john_graph.patients["A"] = Patient("A", "N", date(1970, 1, 1), contact=5)
        with pytest.raises(FieldInvalidError, match=r"^encounters\[Encounter-Allergy"):
            to_dot(john_graph, JOHN_DOE_ID, detail="full")
        with pytest.raises(FieldInvalidError, match=r"^patients\[A\]\.contactInformation: "):
            to_dot(john_graph, detail="full")

    def test_a_clean_drawing_asks_the_checker_nothing(self, john_graph, monkeypatch):
        monkeypatch.setattr(JourneyGraph, "type_error", None)
        check_dot(to_dot(john_graph, detail="full"))

    def test_a_failure_with_no_type_problem_is_raised_as_it_is(self, john_graph, monkeypatch):
        def failing(value):
            raise TypeError("quote failed")

        monkeypatch.setattr(dot, "_quote", failing)
        with pytest.raises(TypeError, match="quote failed"):
            to_dot(john_graph, detail="full")
