import random
import re
from datetime import date, datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from journeygen import random_journey
from pjo import (
    CarePlan,
    CodeSystem,
    ConceptCode,
    CrossPatientLinkError,
    CycleIntroducedError,
    Diagnosis,
    DuplicateEdgeError,
    DuplicateIDError,
    EdgeKind,
    Encounter,
    FieldInvalidError,
    JourneyEdge,
    JourneyGraph,
    Patient,
    Provider,
    Symptom,
    TemporalViolationError,
    UnknownEncounterError,
    UnknownPatientError,
    UnknownProviderError,
    VitalSign,
    parse_bundle,
    serialize_bundle,
    structurally_equal,
)
from pjo.graph import (
    BAD_CUI,
    BAD_ICD10,
    BAD_FHIR_LABEL,
    CROSS_PATIENT_LINK,
    CYCLE,
    DANGLING_REFERENCE,
    DUPLICATE_CUI_ANNOTATION,
    DUPLICATE_EDGE,
    FIELD_INVALID,
    INVALID_TYPE,
    JOURNEY_GAP,
    SELF_LINK,
    TEMPORAL_VIOLATION,
    UNKNOWN_PATIENT,
    UNKNOWN_PROVIDER,
    UNOWNED_ENCOUNTER,
    UNRESOLVED_VIA,
    field_problems,
)
from pjo.dot import to_dot
from pjo.queries import find_encounters, timeline
from pjo.records import FIELDS, OBJECTS


def small_graph(n_encounters: int = 0, n_patients: int = 1) -> JourneyGraph:
    graph = JourneyGraph()
    graph.add_provider(Provider("Provider-1", "Dr. Alice Carter", "General Medicine"))
    for p in range(1, n_patients + 1):
        graph.add_patient(Patient(f"P{p}", f"Patient {p}", date(1980, 1, 1)))
        for e in range(1, n_encounters + 1):
            graph.add_encounter(
                f"P{p}",
                Encounter(
                    encounter_id=f"P{p}-E{e}",
                    date=date(2021, e, 1),
                    specialty="General Medicine",
                    provider_ref="Provider-1",
                ),
            )
    return graph


def errors_of(graph: JourneyGraph) -> list[tuple[str, str, str]]:
    return [(d.code, d.location, d.message) for d in graph.check_invariants().errors]


# The seed's referral link names a care plan of this encounter as its ``via``.
GENERAL_MEDICINE = "Encounter-GeneralMedicine-20210105"
ENCOUNTER_ARRAYS = [
    (spec.key, spec.attr, spec.record) for spec in FIELDS[Encounter] if spec.type == OBJECTS
]
ENCOUNTER_ARRAY_KEYS = [key for key, _, _ in ENCOUNTER_ARRAYS]


def codes_of(report, severity=None):
    diagnostics = report.diagnostics
    if severity is not None:
        diagnostics = [d for d in diagnostics if d.severity.value == severity]
    return [d.code for d in diagnostics]


class TestAddRecords:
    def test_duplicate_patient_id(self):
        graph = small_graph()
        with pytest.raises(DuplicateIDError):
            graph.add_patient(Patient("P1", "Other Person", date(1990, 1, 1)))

    def test_empty_patient_id(self):
        with pytest.raises(FieldInvalidError):
            JourneyGraph().add_patient(Patient("", "Nameless", date(1990, 1, 1)))

    def test_duplicate_provider_id(self):
        graph = small_graph()
        with pytest.raises(DuplicateIDError):
            graph.add_provider(Provider("Provider-1", "Dr. Bob", "Allergy"))

    def test_negative_experience(self):
        with pytest.raises(FieldInvalidError):
            JourneyGraph().add_provider(
                Provider("Provider-2", "Dr. Bob", "Allergy", years_of_experience=-1)
            )

    def test_encounter_requires_known_patient(self):
        graph = small_graph()
        with pytest.raises(UnknownPatientError):
            graph.add_encounter(
                "Nobody",
                Encounter("E1", date(2021, 1, 1), "General Medicine", "Provider-1"),
            )

    def test_encounter_requires_known_provider(self):
        graph = small_graph()
        with pytest.raises(UnknownProviderError):
            graph.add_encounter(
                "P1", Encounter("E1", date(2021, 1, 1), "General Medicine", "Provider-9")
            )

    def test_duplicate_encounter_id(self):
        graph = small_graph(n_encounters=1)
        with pytest.raises(DuplicateIDError):
            graph.add_encounter(
                "P1", Encounter("P1-E1", date(2021, 5, 1), "Allergy", "Provider-1")
            )

    def test_encounter_before_birth(self):
        graph = small_graph()
        with pytest.raises(FieldInvalidError):
            graph.add_encounter(
                "P1", Encounter("E1", date(1979, 12, 31), "General Medicine", "Provider-1")
            )

    def test_malformed_icd10_rejected(self):
        graph = small_graph()
        encounter = Encounter(
            "E1",
            date(2021, 1, 1),
            "General Medicine",
            "Provider-1",
            diagnoses=[Diagnosis("Hypertension", ConceptCode(CodeSystem.ICD10, "notacode"))],
        )
        with pytest.raises(FieldInvalidError):
            graph.add_encounter("P1", encounter)

    def test_a_code_of_another_system_rejected_as_icd10(self):
        graph = small_graph()
        encounter = Encounter(
            "E1",
            date(2021, 1, 1),
            "General Medicine",
            "Provider-1",
            diagnoses=[Diagnosis("Hypertension", ConceptCode(CodeSystem.UMLS_CUI, "C0020538"))],
        )
        with pytest.raises(FieldInvalidError):
            graph.add_encounter("P1", encounter)

    def test_second_intake_form_rejected(self, encounter_one_graph):
        from pjo import IntakeForm, MedicalHistory, SocialHistory

        form = IntakeForm(
            "IntakeForm-2",
            MedicalHistory([], [], [], []),
            SocialHistory("Never smoker", "None"),
        )
        with pytest.raises(DuplicateIDError):
            encounter_one_graph.add_intake_form("Patient-1", form)


class TestVitalSignPlausibility:
    def build(self, vital: VitalSign) -> None:
        graph = small_graph()
        graph.add_encounter(
            "P1",
            Encounter(
                "E1", date(2021, 1, 1), "General Medicine", "Provider-1", vitals=[vital]
            ),
        )

    def test_plausible_values_accepted(self):
        self.build(VitalSign(36.8, "122/78", 82.0, 72.0))
        self.build(VitalSign(25.0, None, None, None))
        self.build(VitalSign(45.0, None, None, None))

    @pytest.mark.parametrize(
        "vital",
        [
            VitalSign(body_temperature=24.9),
            VitalSign(body_temperature=45.1),
            VitalSign(heart_rate=0.0),
            VitalSign(heart_rate=300.0),
            VitalSign(weight=0.0),
            VitalSign(weight=500.0),
            VitalSign(blood_pressure="abc"),
            VitalSign(blood_pressure="122/"),
            VitalSign(blood_pressure="80/120"),
            VitalSign(blood_pressure="110/110"),
            VitalSign(blood_pressure="120/0"),
        ],
    )
    def test_implausible_values_rejected(self, vital):
        with pytest.raises(FieldInvalidError):
            self.build(vital)


class TestLink:
    def test_link_and_lookup(self):
        graph = small_graph(n_encounters=3)
        edge = graph.link(EdgeKind.NEXT, "P1-E1", "P1-E2")
        assert edge.kind is EdgeKind.NEXT
        graph.link(EdgeKind.HAS_FOLLOWUP, "P1-E2", "P1-E3")
        graph.link(EdgeKind.CAUSED_BY, "P1-E3", "P1-E1")
        assert len(graph.edges_of("P1")) == 3

    def test_unknown_endpoint(self):
        graph = small_graph(n_encounters=1)
        with pytest.raises(UnknownEncounterError):
            graph.link(EdgeKind.NEXT, "P1-E1", "ghost")
        with pytest.raises(UnknownEncounterError):
            graph.link(EdgeKind.NEXT, "ghost", "P1-E1")

    def test_self_link_rejected(self):
        graph = small_graph(n_encounters=1)
        with pytest.raises(FieldInvalidError):
            graph.link(EdgeKind.NEXT, "P1-E1", "P1-E1")

    def test_cross_patient_rejected(self):
        graph = small_graph(n_encounters=1, n_patients=2)
        with pytest.raises(CrossPatientLinkError):
            graph.link(EdgeKind.NEXT, "P1-E1", "P2-E1")

    def test_followup_must_run_forward(self):
        graph = small_graph(n_encounters=2)
        with pytest.raises(TemporalViolationError):
            graph.link(EdgeKind.HAS_FOLLOWUP, "P1-E2", "P1-E1")

    def test_next_must_run_forward(self):
        graph = small_graph(n_encounters=2)
        with pytest.raises(TemporalViolationError):
            graph.link(EdgeKind.NEXT, "P1-E2", "P1-E1")

    def test_caused_by_must_run_backward(self):
        graph = small_graph(n_encounters=2)
        with pytest.raises(TemporalViolationError):
            graph.link(EdgeKind.CAUSED_BY, "P1-E1", "P1-E2")
        graph.link(EdgeKind.CAUSED_BY, "P1-E2", "P1-E1")

    @pytest.mark.parametrize("kind", [EdgeKind.NEXT, EdgeKind.HAS_FOLLOWUP, EdgeKind.CAUSED_BY])
    def test_same_day_links_allowed_for_every_kind(self, kind):
        graph = small_graph()
        for eid in ("A", "B"):
            graph.add_encounter(
                "P1", Encounter(eid, date(2021, 6, 1), "Allergy", "Provider-1")
            )
        graph.link(kind, "A", "B")
        assert graph.check_invariants().ok

    def test_duplicate_edge_rejected(self):
        graph = small_graph(n_encounters=2)
        graph.link(EdgeKind.NEXT, "P1-E1", "P1-E2")
        with pytest.raises(DuplicateEdgeError):
            graph.link(EdgeKind.NEXT, "P1-E1", "P1-E2")
        # A different kind over the same pair is a distinct edge.
        graph.link(EdgeKind.HAS_FOLLOWUP, "P1-E1", "P1-E2")

    def test_cycle_rejected_and_rolled_back(self):
        graph = small_graph()
        for eid in ("A", "B"):
            graph.add_encounter(
                "P1", Encounter(eid, date(2021, 6, 1), "Allergy", "Provider-1")
            )
        graph.link(EdgeKind.NEXT, "A", "B")
        before = len(graph.edges)
        with pytest.raises(CycleIntroducedError):
            graph.link(EdgeKind.NEXT, "B", "A")
        assert len(graph.edges) == before
        assert graph.check_invariants().ok

    def test_caused_by_orientation_counts_for_cycles(self):
        # next A->B plus causedBy A<-B is the same arrow twice, not a loop.
        graph = small_graph()
        for eid in ("A", "B"):
            graph.add_encounter(
                "P1", Encounter(eid, date(2021, 6, 1), "Allergy", "Provider-1")
            )
        graph.link(EdgeKind.NEXT, "A", "B")
        graph.link(EdgeKind.CAUSED_BY, "B", "A")
        assert graph.check_invariants().ok


class TestLookups:
    def test_encounters_sorted_by_date_then_id(self):
        graph = small_graph()
        graph.add_encounter("P1", Encounter("Z", date(2021, 1, 1), "Allergy", "Provider-1"))
        graph.add_encounter("P1", Encounter("A", date(2021, 1, 1), "Allergy", "Provider-1"))
        graph.add_encounter("P1", Encounter("M", date(2020, 6, 1), "Allergy", "Provider-1"))
        assert [e.encounter_id for e in graph.encounters_of("P1")] == ["M", "A", "Z"]

    def test_unknown_patient_lookups_raise(self):
        graph = small_graph()
        with pytest.raises(UnknownPatientError):
            graph.encounters_of("Nobody")
        with pytest.raises(UnknownPatientError):
            graph.intake_form_of("Nobody")
        with pytest.raises(UnknownPatientError):
            graph.edges_of("Nobody")

    def test_patient_of(self):
        graph = small_graph(n_encounters=1)
        assert graph.patient_of("P1-E1") == "P1"
        with pytest.raises(UnknownEncounterError):
            graph.patient_of("ghost")

    def test_intake_form_of_missing_is_none(self):
        graph = small_graph()
        assert graph.intake_form_of("P1") is None

    @pytest.mark.parametrize(
        "value", ["2021-07-25", None, datetime(2021, 7, 25)], ids=["string", "left-out", "datetime"]
    )
    @pytest.mark.parametrize(
        "read",
        [
            lambda graph: timeline(graph, "JohnDoe"),
            lambda graph: to_dot(graph),
            lambda graph: serialize_bundle(graph, "JohnDoe"),
            lambda graph: graph.encounters_by_owner(),
            lambda graph: find_encounters(graph),
        ],
        ids=["timeline", "to_dot", "serialize_bundle", "encounters_by_owner", "find_encounters"],
    )
    def test_date_ordered_reads_refuse_an_encounter_without_a_date(self, john_graph, value, read):
        key = "Encounter-Allergy-20210725"
        encounter = john_graph.encounters[key]
        encounter.date = value
        # add_encounter refuses the same record with the same error, unlocated.
        with pytest.raises(FieldInvalidError) as refused:
            john_graph.add_encounter("JohnDoe", encounter)
        with pytest.raises(FieldInvalidError) as raised:
            read(john_graph)
        assert str(raised.value) == f"encounters[{key}].{refused.value}"
        assert str(refused.value) in ("date: date must be a date", "date: date must be nonempty")


class TestCheckInvariants:
    def test_fresh_graph_reports_only_the_annotation_warning(self):
        report = small_graph(n_encounters=2).check_invariants()
        assert codes_of(report, "error") == []
        # The canonical table reuses one CUI for two classes; two
        # encounters with no link between them also leave a gap.
        assert sorted(codes_of(report, "warning")) == [
            DUPLICATE_CUI_ANNOTATION,
            JOURNEY_GAP,
        ]

    def test_gap_closed_by_any_link(self):
        graph = small_graph(n_encounters=2)
        graph.link(EdgeKind.CAUSED_BY, "P1-E2", "P1-E1")
        assert JOURNEY_GAP not in codes_of(graph.check_invariants())

    def test_gap_location_names_patient(self):
        graph = small_graph(n_encounters=2)
        gap = [d for d in graph.check_invariants().diagnostics if d.code == JOURNEY_GAP]
        assert len(gap) == 1
        assert gap[0].location == "patients[P1]"
        assert "P1-E1" in gap[0].message and "P1-E2" in gap[0].message

    def test_gap_means_date_neighbours_without_a_direct_link(self):
        graph = small_graph(n_encounters=3)
        graph.link(EdgeKind.NEXT, "P1-E1", "P1-E3")
        graph.link(EdgeKind.CAUSED_BY, "P1-E3", "P1-E2")
        gaps = [d.message for d in graph.check_invariants().warnings if d.code == JOURNEY_GAP]
        # E1 and E2 are connected through E3, but not directly; E1 and E3
        # are directly linked, but not neighbours.
        assert gaps == [
            "journey gap: no link between 'P1-E1' (2021-01-01) and 'P1-E2' (2021-02-01)"
        ]

    def test_checker_is_idempotent(self):
        graph = small_graph(n_encounters=3)
        graph.link(EdgeKind.NEXT, "P1-E1", "P1-E2")
        assert graph.check_invariants() == graph.check_invariants()

    def test_dangling_edge_reference(self):
        graph = small_graph(n_encounters=1)
        graph.edges.append(JourneyEdge(EdgeKind.NEXT, "P1-E1", "ghost"))
        assert DANGLING_REFERENCE in codes_of(graph.check_invariants(), "error")

    def test_self_link_detected(self):
        graph = small_graph(n_encounters=1)
        graph.edges.append(JourneyEdge(EdgeKind.NEXT, "P1-E1", "P1-E1"))
        report = graph.check_invariants()
        assert not report.ok
        assert SELF_LINK in codes_of(report, "error")

    def test_cross_patient_link_detected(self):
        graph = small_graph(n_encounters=1, n_patients=2)
        graph.edges.append(JourneyEdge(EdgeKind.NEXT, "P1-E1", "P2-E1"))
        assert CROSS_PATIENT_LINK in codes_of(graph.check_invariants(), "error")

    def test_backdated_followup_detected(self):
        graph = small_graph(n_encounters=2)
        graph.edges.append(JourneyEdge(EdgeKind.HAS_FOLLOWUP, "P1-E2", "P1-E1"))
        assert TEMPORAL_VIOLATION in codes_of(graph.check_invariants(), "error")

    def test_duplicate_edge_detected(self):
        graph = small_graph(n_encounters=2)
        graph.link(EdgeKind.NEXT, "P1-E1", "P1-E2")
        graph.edges.append(JourneyEdge(EdgeKind.NEXT, "P1-E1", "P1-E2"))
        assert DUPLICATE_EDGE in codes_of(graph.check_invariants(), "error")

    def test_two_cycle_detected_once(self):
        graph = small_graph()
        for eid in ("A", "B"):
            graph.add_encounter(
                "P1", Encounter(eid, date(2021, 6, 1), "Allergy", "Provider-1")
            )
        graph.edges.append(JourneyEdge(EdgeKind.NEXT, "A", "B"))
        graph.edges.append(JourneyEdge(EdgeKind.NEXT, "B", "A"))
        report = graph.check_invariants()
        cycles = [d for d in report.diagnostics if d.code == CYCLE]
        assert len(cycles) == 1
        assert cycles[0].location == "links"
        assert cycles[0].message.endswith(": A, B")

    def test_unowned_encounter_detected(self):
        graph = small_graph(n_encounters=1)
        del graph.encounter_owner["P1-E1"]
        assert UNOWNED_ENCOUNTER in codes_of(graph.check_invariants(), "error")

    def test_owner_must_exist(self):
        graph = small_graph(n_encounters=1)
        graph.encounter_owner["P1-E1"] = "Nobody"
        assert UNKNOWN_PATIENT in codes_of(graph.check_invariants(), "error")

    def test_unknown_provider_detected(self):
        graph = small_graph(n_encounters=1)
        graph.encounters["P1-E1"].provider_ref = "Provider-Ghost"
        assert UNKNOWN_PROVIDER in codes_of(graph.check_invariants(), "error")

    def test_bad_cui_annotation_detected(self):
        graph = small_graph()
        graph.annotations = dict(graph.annotations)
        graph.annotations["Patient"] = (ConceptCode(CodeSystem.UMLS_CUI, "C123"),)
        report = graph.check_invariants()
        bad = [d for d in report.diagnostics if d.code == BAD_CUI]
        assert len(bad) == 1
        assert bad[0].location == "annotations[Patient]"

    def test_bad_fhir_label_detected(self):
        graph = small_graph()
        graph.annotations = dict(graph.annotations)
        graph.annotations["Encounter"] = (
            ConceptCode(CodeSystem.UMLS_CUI, "C3714536"),
            ConceptCode(CodeSystem.FHIR_LABEL, "two words"),
        )
        assert BAD_FHIR_LABEL in codes_of(graph.check_invariants(), "error")

    def test_field_problems_located(self):
        graph = small_graph(n_encounters=1)
        graph.encounters["P1-E1"].specialty = ""
        report = graph.check_invariants()
        bad = [d for d in report.diagnostics if d.code == FIELD_INVALID]
        assert bad and bad[0].location == "encounters[P1-E1].specialty"

    @pytest.mark.parametrize(
        "system, code", [(CodeSystem.UMLS_CUI, "C0020538"), (CodeSystem.FHIR_LABEL, "E11")]
    )
    def test_a_code_of_another_system_is_a_bad_icd10(self, system, code):
        """Even one shaped like an ICD-10 code, which a bundle would read
        back as a code of the ICD-10 system."""
        graph = small_graph(n_encounters=1)
        diagnosis = Diagnosis("Hypertension", ConceptCode(system, code))
        graph.encounters["P1-E1"].diagnoses.append(diagnosis)
        bad = [(d.location, d.message) for d in graph.check_invariants().errors]
        message = f"{code!r} is not a valid ICD10 code"
        assert bad == [("encounters[P1-E1].diagnoses[0].icd10", message)]
        assert codes_of(graph.check_invariants(), "error") == [BAD_ICD10]

    def test_a_left_out_birth_date_is_reported(self):
        graph = small_graph()
        graph.patients["P1"].birth_date = None
        bad = [(d.code, d.location, d.message) for d in graph.check_invariants().errors]
        assert bad == [(FIELD_INVALID, "patients[P1].birthDate", "birthDate must be nonempty")]

    @pytest.mark.parametrize(
        "array, record, where, message",
        [
            ("vitals", VitalSign(blood_pressure=5), "bloodPressure", "must be a string"),
            ("vitals", VitalSign(weight="heavy"), "weight", "must be a number"),
            ("vitals", VitalSign(heart_rate=True), "heartRate", "must be a number"),
            ("diagnoses", Diagnosis("x", icd10="E11"), "icd10", "must be a ConceptCode"),
        ],
        ids=["blood-pressure", "weight", "heart-rate", "icd10"],
    )
    def test_a_wrongly_typed_value_is_reported_not_raised(
        self, john_graph, array, record, where, message
    ):
        encounter_id = "Encounter-Allergy-20210725"
        records = getattr(john_graph.encounters[encounter_id], array)
        records.append(record)
        bad = [(d.code, d.location, d.message) for d in john_graph.check_invariants().errors]
        location = f"encounters[{encounter_id}].{array}[{len(records) - 1}].{where}"
        assert bad == [(INVALID_TYPE, location, f"{where} {message}")]
        encounter = Encounter("E-new", date(2023, 1, 1), "Allergy", "Provider-Allergy")
        getattr(encounter, array).append(record)
        with pytest.raises(FieldInvalidError, match=f"{where} {message}"):
            john_graph.add_encounter("JohnDoe", encounter)

    @pytest.mark.parametrize("entry", ["text", None, "record"], ids=["text", "none", "record"])
    @pytest.mark.parametrize("key, attr, record_type", ENCOUNTER_ARRAYS, ids=ENCOUNTER_ARRAY_KEYS)
    def test_a_wrongly_typed_array_entry_is_reported_not_raised(
        self, john_graph, key, attr, record_type, entry
    ):
        """First in its array, so the ``via`` of the seed's referral link
        (into the general-medicine encounter) meets it too."""
        if entry == "record":
            entry = Symptom("x") if record_type is Diagnosis else Diagnosis("x")
        getattr(john_graph.encounters[GENERAL_MEDICINE], attr).insert(0, entry)
        message = f"{key} entries must be a {record_type.__name__}"
        location = f"encounters[{GENERAL_MEDICINE}].{key}[0]"
        assert errors_of(john_graph) == [(INVALID_TYPE, location, message)]
        encounter = Encounter("E-new", date(2023, 1, 1), "Allergy", "Provider-Allergy")
        getattr(encounter, attr).append(entry)
        with pytest.raises(FieldInvalidError, match=re.escape(f"{key}[0]: {message}")):
            john_graph.add_encounter("JohnDoe", encounter)

    @pytest.mark.parametrize("value", [None, "text"], ids=["none", "text"])
    @pytest.mark.parametrize("key, attr, record_type", ENCOUNTER_ARRAYS, ids=ENCOUNTER_ARRAY_KEYS)
    def test_an_array_that_is_not_a_list_is_reported_not_raised(
        self, john_graph, key, attr, record_type, value
    ):
        setattr(john_graph.encounters[GENERAL_MEDICINE], attr, value)
        location = f"encounters[{GENERAL_MEDICINE}].{key}"
        assert errors_of(john_graph) == [(INVALID_TYPE, location, f"{key} must be a list")]
        encounter = Encounter("E-new", date(2023, 1, 1), "Allergy", "Provider-Allergy")
        setattr(encounter, attr, value)
        with pytest.raises(FieldInvalidError, match=f"{key}: {key} must be a list"):
            john_graph.add_encounter("JohnDoe", encounter)

    @pytest.mark.parametrize(
        "where, value, location, message",
        [
            (("intake_forms", "IntakeForm-JohnDoe", "medical_history"), "x",
             "intakeForms[IntakeForm-JohnDoe].medicalHistory",
             "medicalHistory must be a MedicalHistory"),
            (("intake_forms", "IntakeForm-JohnDoe", "social_history"), None,
             "intakeForms[IntakeForm-JohnDoe].socialHistory",
             "socialHistory must be a SocialHistory"),
            (("patients", "JohnDoe", "contact"), Symptom("x"),
             "patients[JohnDoe].contactInformation",
             "contactInformation must be a ContactInformation"),
        ],
        ids=["medical-history", "required-social-history", "contact-information"],
    )  # fmt: skip
    def test_a_wrongly_typed_held_record_is_reported_not_raised(
        self, john_graph, where, value, location, message
    ):
        records, key, attr = where
        record = getattr(john_graph, records)[key]
        setattr(record, attr, value)
        assert errors_of(john_graph) == [(INVALID_TYPE, location, message)]
        graph = JourneyGraph()
        graph.add_patient(Patient("P", "N", date(1980, 1, 1)))
        with pytest.raises(FieldInvalidError, match=message):
            if records == "patients":
                graph.add_patient(record)
            else:
                graph.add_intake_form("P", record)

    def test_an_optional_held_record_may_be_left_out(self, john_graph):
        form = john_graph.intake_forms["IntakeForm-JohnDoe"]
        form.medical_history = None
        john_graph.patients["JohnDoe"].contact = None
        assert errors_of(john_graph) == []
        assert field_problems(form) == []

    def test_a_wrongly_typed_string_array_is_reported_not_raised(self, john_graph):
        form = john_graph.intake_forms["IntakeForm-JohnDoe"]
        form.medical_history.had_surgery = None
        location = "intakeForms[IntakeForm-JohnDoe].medicalHistory.hadSurgery"
        assert errors_of(john_graph) == [(INVALID_TYPE, location, "hadSurgery must be a list")]
        graph = JourneyGraph()
        graph.add_patient(Patient("P", "N", date(1980, 1, 1)))
        with pytest.raises(FieldInvalidError, match="medicalHistory.hadSurgery: hadSurgery"):
            graph.add_intake_form("P", form)

    def test_a_wrongly_typed_patient_name_is_refused_as_the_parser_refuses_it(self):
        graph = small_graph()
        graph.patients["P1"].patient_name = 5
        bad = [(d.code, d.location, d.message) for d in graph.check_invariants().errors]
        assert bad == [(INVALID_TYPE, "patients[P1].patientName", "patientName must be a string")]
        assert not parse_bundle(serialize_bundle(graph, "P1")).ok
        with pytest.raises(FieldInvalidError, match="patientName must be a string"):
            JourneyGraph().add_patient(Patient("P2", 5, date(1980, 1, 1)))

    @pytest.mark.parametrize(
        "record, problem",
        [
            (Patient("P", "N", "1980-01-01"), ("birthDate", "birthDate must be a date")),
            (Provider("D", "Dr. D", years_of_experience=True),
             ("yearsOfExperience", "yearsOfExperience must be an integer")),
            (JourneyEdge("next", "A", "B"), ("kind", "kind must be an EdgeKind")),
        ],
        ids=["date", "int", "kind"],
    )
    def test_each_value_type_is_checked_in_memory(self, record, problem):
        assert field_problems(record) == [(problem[0], INVALID_TYPE, problem[1])]

    @pytest.mark.parametrize(
        "where, location, message",
        [
            (("encounters", "Encounter-Allergy-20210725", "date"),
             "encounters[Encounter-Allergy-20210725].date", "date must be a date"),
            (("patients", "JohnDoe", "birth_date"),
             "patients[JohnDoe].birthDate", "birthDate must be a date"),
        ],
        ids=["encounter-date", "birth-date"],
    )
    def test_a_wrongly_typed_date_is_reported_not_compared(
        self, john_graph, where, location, message
    ):
        warnings = john_graph.check_invariants().warnings
        records, key, attr = where
        setattr(getattr(john_graph, records)[key], attr, "2021-07-25")
        report = john_graph.check_invariants()
        assert [(d.code, d.location, d.message) for d in report.errors] == [
            (INVALID_TYPE, location, message)
        ]
        assert report.warnings == warnings

    @pytest.mark.parametrize("value", ["2021-01-01", None], ids=["string", "left-out"])
    def test_a_link_endpoint_without_a_date_is_not_compared(self, value):
        graph = small_graph(n_encounters=2)
        graph.link(EdgeKind.NEXT, "P1-E1", "P1-E2")
        graph.encounters["P1-E2"].date = value
        report = graph.check_invariants()
        code, message = (INVALID_TYPE, "date must be a date") if value else (
            FIELD_INVALID, "date must be nonempty")  # fmt: skip
        assert [(d.code, d.location, d.message) for d in report.errors] == [
            (code, "encounters[P1-E2].date", message)
        ]
        assert codes_of(report, "warning") == [DUPLICATE_CUI_ANNOTATION]

    def test_a_patient_with_an_undated_encounter_is_not_checked_for_gaps(self):
        graph = small_graph(n_encounters=3)
        graph.encounters["P1-E2"].date = "2021-02-01"
        report = graph.check_invariants()
        assert [(d.code, d.location) for d in report.errors] == [
            (INVALID_TYPE, "encounters[P1-E2].date")
        ]
        assert codes_of(report, "warning") == [DUPLICATE_CUI_ANNOTATION]

    def test_unresolved_via_is_a_warning(self):
        graph = small_graph(n_encounters=2)
        graph.link(EdgeKind.CAUSED_BY, "P1-E2", "P1-E1", via="CarePlan-404")
        report = graph.check_invariants()
        assert report.ok
        assert UNRESOLVED_VIA in codes_of(report, "warning")

    def test_resolvable_via_is_silent(self):
        graph = small_graph()
        graph.add_encounter(
            "P1",
            Encounter(
                "E1",
                date(2021, 1, 1),
                "General Medicine",
                "Provider-1",
                care_plans=[CarePlan("CarePlan-1", "Referral")],
            ),
        )
        graph.add_encounter("P1", Encounter("E2", date(2021, 2, 1), "Allergy", "Provider-1"))
        graph.link(EdgeKind.CAUSED_BY, "E2", "E1", via="CarePlan-1")
        assert UNRESOLVED_VIA not in codes_of(graph.check_invariants())


@given(
    seed=st.integers(0, 2**32 - 1),
    system=st.sampled_from(CodeSystem),
    code=st.sampled_from(["C0020538", "x", "E11", "I10.9", "e11", "Encounter", "two words", ""]),
)
@example(seed=0, system=CodeSystem.UMLS_CUI, code="C0020538")
@example(seed=0, system=CodeSystem.FHIR_LABEL, code="x")
@example(seed=0, system=CodeSystem.FHIR_LABEL, code="E11")
@settings(max_examples=40, deadline=None)
def test_a_graph_the_checker_accepts_parses_back(seed, system, code):
    """Any graph ``check_invariants`` accepts serializes, per patient, to a
    bundle ``parse_bundle`` accepts and reads back the same encounters from,
    whatever system a diagnosis code is of."""
    graph = random_journey(random.Random(seed), min_encounters=1, require_diagnosis=True)
    diagnosis = next(d for e in graph.encounters.values() for d in e.diagnoses)
    diagnosis.icd10 = ConceptCode(system, code)
    if graph.check_invariants().ok:
        for patient_id in graph.patients:
            result = parse_bundle(serialize_bundle(graph, patient_id))
            assert result.ok, result.problems
            owned = {e.encounter_id: e for e in graph.encounters_of(patient_id)}
            assert result.graph.encounters == owned


class TestStructuralEquality:
    def test_reordered_edges_are_equal(self):
        left = small_graph(n_encounters=3)
        right = small_graph(n_encounters=3)
        left.link(EdgeKind.NEXT, "P1-E1", "P1-E2")
        left.link(EdgeKind.NEXT, "P1-E2", "P1-E3")
        right.link(EdgeKind.NEXT, "P1-E2", "P1-E3")
        right.link(EdgeKind.NEXT, "P1-E1", "P1-E2")
        assert structurally_equal(left, right)

    def test_differing_content_is_unequal(self):
        left = small_graph(n_encounters=1)
        right = small_graph(n_encounters=1)
        right.encounters["P1-E1"].specialty = "Neurology"
        assert not structurally_equal(left, right)

    def test_differing_via_is_unequal(self):
        left = small_graph(n_encounters=2)
        right = small_graph(n_encounters=2)
        left.link(EdgeKind.CAUSED_BY, "P1-E2", "P1-E1", via="CarePlan-1")
        right.link(EdgeKind.CAUSED_BY, "P1-E2", "P1-E1")
        assert not structurally_equal(left, right)
