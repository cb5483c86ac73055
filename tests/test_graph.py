import copy
import inspect
import random
import re
import typing
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
from pjo import codes
from pjo import graph as graph_module
from pjo.graph import (
    CROSS_PATIENT_LINK,
    CYCLE,
    DANGLING_REFERENCE,
    DUPLICATE_CUI_ANNOTATION,
    DUPLICATE_EDGE,
    FIELD_INVALID,
    INVALID_TYPE,
    INVALID_VALUE,
    JOURNEY_GAP,
    SELF_LINK,
    TEMPORAL_VIOLATION,
    UNKNOWN_PATIENT,
    UNKNOWN_PROVIDER,
    UNOWNED_ENCOUNTER,
    UNRESOLVED_VIA,
    field_problems,
)
from pjo.codes import duplicate_cuis
from pjo.dot import to_dot
from pjo.queries import find_encounters, timeline
from pjo.records import FIELDS, OBJECTS
from pjo.seed import JOHN_DOE_ID
from scan_oracles import check_by_scan


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

    @pytest.mark.parametrize(
        "add, message",
        [
            (lambda graph: graph.add_patient(Provider("D", "Dr")),
             "patients entries must be a Patient"),
            (lambda graph: graph.add_provider(Symptom("x")),
             "providers entries must be a Provider"),
            (lambda graph: graph.add_intake_form("P1", Symptom("x")),
             "intakeForms entries must be a IntakeForm"),
            (lambda graph: graph.add_encounter("P1", Symptom("x")),
             "encounters entries must be a Encounter"),
        ],
        ids=["add_patient", "add_provider", "add_intake_form", "add_encounter"],
    )  # fmt: skip
    def test_a_record_of_another_class_is_refused_and_not_stored(self, add, message):
        graph, before = small_graph(n_encounters=1), small_graph(n_encounters=1)
        with pytest.raises(FieldInvalidError) as refused:
            add(graph)
        assert str(refused.value) == message
        assert structurally_equal(graph, before)

    @pytest.mark.parametrize("add", ["add_intake_form", "add_encounter"])
    def test_an_owner_of_another_class_is_refused_and_not_stored(self, add):
        """``add_encounter`` once raised a bare ``AttributeError`` reading the
        birth date of such an owner, and ``add_intake_form`` stored the form."""
        graph, before = small_graph(), small_graph()
        for built in (graph, before):
            built.patients["P9"] = Provider("P9", "Dr")
        record = (
            _intake_form("F9") if add == "add_intake_form"
            else Encounter("E9", date(2021, 1, 1), "General Medicine", "Provider-1")
        )  # fmt: skip
        with pytest.raises(FieldInvalidError) as refused:
            getattr(graph, add)("P9", record)
        assert str(refused.value) == "patients[P9]: patients entries must be a Patient"
        assert structurally_equal(graph, before)


def _intake_form(form_id: str):
    from pjo import IntakeForm, MedicalHistory, SocialHistory

    return IntakeForm(form_id, MedicalHistory([], [], [], []), SocialHistory("Never", "None"))


def _broken(graph, attr: str, key: str):
    """A copy of the record stored under ``key`` in ``graph``'s table
    ``attr``, with a new ID and a field that breaks a field rule."""
    record = copy.deepcopy(getattr(graph, attr)[key])
    if attr == "patients":
        record.patient_id = "P2"
        record.contact.email = "\ud800"
    elif attr == "providers":
        record.provider_id, record.years_of_experience = "D2", 10**5000
    elif attr == "intake_forms":
        record.intake_form_id = "F2"
        record.medical_history.medication_allergies.append("")
    else:
        record.encounter_id = "E2"
        record.symptoms[0].symptom_name = ""
    return record


@pytest.mark.parametrize(
    "attr, key, add",
    [
        ("patients", JOHN_DOE_ID, lambda graph, record: graph.add_patient(record)),
        ("providers", "Provider-Allergy", lambda graph, record: graph.add_provider(record)),
        ("intake_forms", "IntakeForm-JohnDoe",
         lambda graph, record: graph.add_intake_form("P2", record)),
        ("encounters", GENERAL_MEDICINE,
         lambda graph, record: graph.add_encounter(JOHN_DOE_ID, record)),
    ],
    ids=["add_patient", "add_provider", "add_intake_form", "add_encounter"],
)  # fmt: skip
def test_add_raises_the_checkers_first_problem_with_the_record(john_graph, attr, key, add):
    """Each ``add_*`` words a field problem as the checker does, relative to
    the record: ``add_patient`` and ``add_provider`` once left out where."""
    record = _broken(john_graph, attr, key)
    record_id, stored = getattr(record, FIELDS[record.__class__][0].attr), JourneyGraph()
    getattr(stored, attr)[record_id] = record
    head = f"{graph_module._TABLES[attr][0]}[{record_id}]."
    first = stored.check_invariants().errors[0]
    assert first.location.startswith(head)
    john_graph.add_patient(Patient("P2", "Pat", date(1990, 1, 1)))
    with pytest.raises(FieldInvalidError) as refused:
        add(john_graph, record)
    assert str(refused.value) == f"{first.location.removeprefix(head)}: {first.message}"


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

    @pytest.mark.parametrize(
        "kind, message",
        [("next", "kind must be an EdgeKind"), (None, "kind must be nonempty")],
        ids=["string", "none"],
    )
    def test_a_kind_not_an_edge_kind_is_refused_by_its_field_rule(self, kind, message):
        graph = small_graph(n_encounters=2)
        with pytest.raises(FieldInvalidError) as raised:
            graph.link(kind, "P1-E1", "P1-E2")
        assert str(raised.value) == message
        assert graph.edges == [] and graph.edges_of("P1") == []
        assert graph.check_invariants().ok

    @pytest.mark.parametrize(
        "start, via, message",
        [(["a"], None, "from must be a string"), (5, None, "from must be a string"),
         ("", None, "from must be nonempty"), ("P1-E1", 5, "via must be a string")],
        ids=["unhashable end", "hashable end", "empty end", "via"],
    )  # fmt: skip
    def test_an_end_or_via_of_another_type_is_refused_by_its_field_rule(self, start, via, message):
        graph = small_graph(n_encounters=2)
        with pytest.raises(FieldInvalidError) as raised:
            graph.link(EdgeKind.NEXT, start, "P1-E2", via)
        assert str(raised.value) == message
        assert graph.edges == []

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

    @pytest.mark.parametrize(
        "read",
        [
            lambda graph: graph.encounters_of("JohnDoe"),
            lambda graph: timeline(graph, "JohnDoe"),
            lambda graph: to_dot(graph),
            lambda graph: serialize_bundle(graph, "JohnDoe"),
            lambda graph: graph.encounters_by_owner(),
            lambda graph: find_encounters(graph),
        ],
        ids=[
            "encounters_of", "timeline", "to_dot", "serialize_bundle", "encounters_by_owner",
            "find_encounters",
        ],
    )  # fmt: skip
    def test_date_ordered_reads_name_a_record_of_another_class(self, john_graph, read):
        key = "Encounter-Allergy-20210725"
        john_graph.encounters[key] = Symptom("x")
        with pytest.raises(FieldInvalidError) as raised:
            read(john_graph)
        assert str(raised.value) == f"encounters[{key}]: encounters entries must be a Encounter"


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

    def test_the_annotation_warnings_are_built_at_most_once(
        self, john_graph, john_text, monkeypatch
    ):
        """The annotation table is a constant: two checks and a parse carry
        its warnings, and walk it for them at most once between them."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return duplicate_cuis(*args, **kwargs)

        monkeypatch.setattr(codes, "duplicate_cuis", counted)
        monkeypatch.setattr(graph_module, "duplicate_cuis", counted)
        reports = [john_graph.check_invariants(), john_graph.check_invariants()]
        reports.append(parse_bundle(john_text).report)
        assert len(calls) <= 1
        for report in reports:
            assert [(d.code, d.message) for d in report.warnings] == [(
                DUPLICATE_CUI_ANNOTATION,
                "duplicate CUI annotation: C3714536 annotates Encounter and SocialHistory",
            )]  # fmt: skip

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

    def test_field_problems_located(self):
        graph = small_graph(n_encounters=1)
        graph.encounters["P1-E1"].specialty = ""
        report = graph.check_invariants()
        bad = [d for d in report.diagnostics if d.code == FIELD_INVALID]
        assert bad and bad[0].location == "encounters[P1-E1].specialty"

    @pytest.mark.parametrize(
        "system, code", [(CodeSystem.UMLS_CUI, "C0020538"), (CodeSystem.FHIR_LABEL, "E11")]
    )
    def test_a_code_of_another_system_is_refused_for_its_system(self, system, code):
        """Even one shaped like an ICD-10 code, which a bundle would read
        back as a code of the ICD-10 system.  It was once reported as
        ``bad-icd10``, a code of the wrong shape, whatever its shape."""
        graph = small_graph(n_encounters=1)
        diagnosis = Diagnosis("Hypertension", ConceptCode(system, code))
        graph.encounters["P1-E1"].diagnoses.append(diagnosis)
        bad = [(d.location, d.message) for d in graph.check_invariants().errors]
        message = f"icd10 must be an ICD10 code, got a code of {system!r}"
        assert bad == [("encounters[P1-E1].diagnoses[0].icd10", message)]
        assert codes_of(graph.check_invariants(), "error") == [INVALID_VALUE]

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
        with pytest.raises(FieldInvalidError, match=r"^patients\[P1\]\.patientName: patientName"):
            serialize_bundle(graph, "P1")
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

    @pytest.mark.parametrize("swap", [False, True], ids=["against-the-dates", "with-the-dates"])
    def test_a_link_whose_kind_is_a_string_is_reported_not_raised(self, john_graph, swap):
        """A ``next`` link against the dates once raised in naming the kind;
        with its ends swapped it kept the dates and got no diagnostic."""
        warnings = john_graph.check_invariants().warnings
        edge = john_graph.edges[0]
        ends = (edge.to_encounter, edge.from_encounter) if swap else (
            edge.from_encounter, edge.to_encounter)  # fmt: skip
        john_graph.edges[0] = JourneyEdge("next", *ends)
        report = john_graph.check_invariants()
        assert [(d.code, d.location, d.message) for d in report.errors] == [
            (INVALID_TYPE, "links[0].kind", "kind must be an EdgeKind")
        ]
        assert report.warnings == warnings
        assert report.diagnostics == check_by_scan(john_graph).diagnostics

    def test_a_link_without_a_kind_is_reported_not_raised(self, john_graph):
        edge = john_graph.edges[0]
        john_graph.edges[0] = JourneyEdge(None, edge.from_encounter, edge.to_encounter)
        report = john_graph.check_invariants()
        assert [(d.code, d.location, d.message) for d in report.errors] == [
            (FIELD_INVALID, "links[0].kind", "kind must be nonempty")
        ]
        assert report.diagnostics == check_by_scan(john_graph).diagnostics

    @pytest.mark.parametrize(
        "table, name, held",
        [
            ("patients", "patients", "Patient"),
            ("providers", "providers", "Provider"),
            ("intake_forms", "intakeForms", "IntakeForm"),
            ("encounters", "encounters", "Encounter"),
        ],
    )
    def test_a_record_of_another_class_in_a_table_is_reported_not_raised(
        self, john_graph, table, name, held
    ):
        warnings = john_graph.check_invariants().warnings
        getattr(john_graph, table)["X"] = Symptom("")
        report = john_graph.check_invariants()
        assert [(d.code, d.location, d.message) for d in report.errors] == [
            (INVALID_TYPE, f"{name}[X]", f"{name} entries must be a {held}")
        ]
        assert report.warnings == warnings

    def test_the_other_rules_read_a_table_without_its_misfiled_records(self, john_graph):
        """A provider stored as the seed's patient leaves its intake form and
        encounters owned by an unknown patient; one under a new key was once
        taken as a valid patient."""
        john_graph.patients["D"] = Provider("D", "Dr. D")
        john_graph.patients[JOHN_DOE_ID] = Provider(JOHN_DOE_ID, "Dr. J")
        report = john_graph.check_invariants()
        misfiled = [d.location for d in report.errors if d.code == INVALID_TYPE]
        assert misfiled == ["patients[D]", f"patients[{JOHN_DOE_ID}]"]
        others = {d.code for d in report.errors} - {INVALID_TYPE}
        assert others == {UNKNOWN_PATIENT}
        assert len(report.errors) == 2 + 1 + len(john_graph.encounters)

    @pytest.mark.parametrize(
        "end, code, message",
        [
            (["a"], INVALID_TYPE, "from must be a string"),
            (5, INVALID_TYPE, "from must be a string"),
            ("", FIELD_INVALID, "from must be nonempty"),
        ],
        ids=["unhashable", "hashable", "empty"],
    )
    def test_a_stored_link_with_a_broken_end_is_reported_not_raised(
        self, john_graph, end, code, message
    ):
        """An unhashable end once raised ``TypeError`` from the checker and
        from the owner index; a hashable or empty one read as a missing
        encounter."""
        john_graph.edges.append(JourneyEdge(EdgeKind.NEXT, end, "Encounter-Allergy-20210725"))
        report = john_graph.check_invariants()
        assert [(d.code, d.location, d.message) for d in report.errors] == [
            (code, "links[3].from", message)
        ]
        assert report.diagnostics == check_by_scan(john_graph).diagnostics
        assert len(john_graph.edges_of(JOHN_DOE_ID)) == 3
        assert len(john_graph.encounters_of(JOHN_DOE_ID)) == 4

    def test_a_via_of_another_type_is_reported_and_not_resolved(self, john_graph):
        """It once got only an ``unresolved-via`` warning, and its bundle,
        written with ``"via": 5``, did not parse."""
        edge = john_graph.edges[0]
        john_graph.edges[0] = JourneyEdge(edge.kind, edge.from_encounter, edge.to_encounter, 5)
        report = john_graph.check_invariants()
        assert [(d.code, d.location, d.message) for d in report.errors] == [
            (INVALID_TYPE, "links[0].via", "via must be a string")
        ]
        assert UNRESOLVED_VIA not in codes_of(report, "warning")

    def test_a_provider_reference_of_another_type_is_not_resolved(self, john_graph):
        """Its type rule reports it; the reference rule once raised
        ``TypeError`` looking an unhashable value up."""
        encounter = john_graph.encounters["Encounter-Allergy-20210725"]
        encounter.provider_ref = ["x"]
        report = john_graph.check_invariants()
        assert [(d.code, d.location, d.message) for d in report.errors] == [
            (INVALID_TYPE, "encounters[Encounter-Allergy-20210725].providerRef",
             "providerRef must be a string")
        ]  # fmt: skip

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

    @pytest.mark.parametrize("diagnosed", ["P1-E1", "P1-E2"])
    def test_a_via_naming_a_diagnosis_in_one_endpoint_is_silent(self, diagnosed):
        """A diagnosis resolves a ``via`` from either end, as a care plan
        does; a name neither end records still warns."""
        graph = small_graph(n_encounters=2)
        diagnosis = Diagnosis("Hypertension", ConceptCode(CodeSystem.ICD10, "I10"))
        graph.encounters[diagnosed].diagnoses.append(diagnosis)
        graph.link(EdgeKind.CAUSED_BY, "P1-E2", "P1-E1", via="Hypertension")
        graph.edges.append(JourneyEdge(EdgeKind.NEXT, "P1-E1", "P1-E2", via="Asthma"))
        report = graph.check_invariants()
        assert report.ok
        vias = [d for d in report.warnings if d.code == UNRESOLVED_VIA]
        assert [(d.location, d.message) for d in vias] == [
            ("links[1].via",
             "via 'Asthma' names no care plan or diagnosis in either endpoint")
        ]  # fmt: skip


def _gender(graph, value):
    graph.patients[JOHN_DOE_ID].gender = value


def _experience(graph, value):
    graph.providers["Provider-Allergy"].years_of_experience = value


def _temperature(graph, value):
    graph.encounters[GENERAL_MEDICINE].vitals[0].body_temperature = value


@pytest.mark.parametrize(
    "write, value, location, message",
    [
        (_gender, "\ud800", f"patients[{JOHN_DOE_ID}].gender", "gender holds a lone surrogate"),
        (_gender, "M\udfff", f"patients[{JOHN_DOE_ID}].gender", "gender holds a lone surrogate"),
        (_experience, 10**5000, "providers[Provider-Allergy].yearsOfExperience",
         "yearsOfExperience must have at most 4300 digits"),
        (_experience, -(10**4300), "providers[Provider-Allergy].yearsOfExperience",
         "yearsOfExperience must have at most 4300 digits"),
        (_temperature, 10**5000, f"encounters[{GENERAL_MEDICINE}].vitals[0].bodyTemperature",
         "bodyTemperature must have at most 4300 digits"),
    ],
    ids=["lone surrogate", "trailing surrogate", "huge", "huge negative", "huge number"],
)  # fmt: skip
def test_a_value_no_bundle_can_hold_is_an_error(john_graph, write, value, location, message):
    """Such a value once passed the checker, and ``serialize_bundle`` then
    wrote text that does not encode as UTF-8 or raised a bare ``ValueError``
    (as the checker did, wording a plausibility bound, for a huge number)."""
    write(john_graph, value)
    errors = [(d.code, d.location, d.message) for d in john_graph.check_invariants().errors]
    assert errors == [("invalid-value", location, message)]


@pytest.mark.parametrize(
    "add, message",
    [
        (lambda graph: graph.add_patient(Patient("P2", "Pat \ud800", date(1990, 1, 1))),
         "patientName: patientName holds a lone surrogate"),
        (lambda graph: graph.add_provider(Provider("D2", "Dr. D", years_of_experience=10**5000)),
         "yearsOfExperience: yearsOfExperience must have at most 4300 digits"),
        (lambda graph: graph.add_encounter(JOHN_DOE_ID, Encounter(
            "E2", date(2022, 1, 1), "Allergy", "Provider-Allergy",
            vitals=[VitalSign(body_temperature=-(10**5000))])),
         "vitals[0].bodyTemperature: bodyTemperature must have at most 4300 digits"),
        (lambda graph: graph.link(EdgeKind.NEXT, "Encounter-Allergy-20210725",
                                  "Encounter-AllergyFollowUp-20220418", via="\ud800"),
         "via holds a lone surrogate"),
    ],
    ids=["add_patient", "add_provider", "add_encounter", "link"],
)  # fmt: skip
def test_the_raising_api_refuses_a_value_no_bundle_can_hold(john_graph, add, message):
    before = serialize_bundle(john_graph, JOHN_DOE_ID)
    with pytest.raises(FieldInvalidError) as refused:
        add(john_graph)
    assert str(refused.value) == message
    assert serialize_bundle(john_graph, JOHN_DOE_ID) == before


def test_an_integer_of_4300_digits_round_trips(john_graph):
    _experience(john_graph, 10**4300 - 1)
    assert john_graph.check_invariants().ok
    text = serialize_bundle(john_graph, JOHN_DOE_ID)
    result = parse_bundle(text)
    assert result.ok
    assert result.graph.providers["Provider-Allergy"].years_of_experience == 10**4300 - 1
    assert serialize_bundle(result.graph, JOHN_DOE_ID) == text

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


@pytest.mark.parametrize(
    "name", [name for name, member in vars(JourneyGraph).items() if inspect.isfunction(member)]
)
def test_each_method_annotation_resolves(name):
    """Every name a method's annotations use is one ``graph`` defines or imports."""
    typing.get_type_hints(getattr(JourneyGraph, name))
