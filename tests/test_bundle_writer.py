"""The direct bundle writer against ``json.dumps``, byte for byte.

``serialize_bundle`` writes the text straight from the records, each value
as the text of its field's type.  On a graph whose values are all of their
fields' types, its output must equal ``json.dumps(document, indent=2,
ensure_ascii=False)`` plus a newline, where the document is built as dicts
the way ``scan_oracles.serialize_bundle_by_dumps`` builds it.  The records
here are generated from ``FIELDS`` and stored directly, so they hold what
the parser never produces: ``-0.0``, integers past 2**64, control, quote,
backslash and non-BMP characters, lone surrogates, empty arrays and held
records with no field set.

Any other value fails the write with the checker's problem: a value the
checker's type rules refuse, a required one left out (None), a number that
is not finite, which JSON cannot hold, and an array held as anything but a
list.  The writer once wrote such a value as ``json.dumps`` writes it, and
iterated any array, so a graph the checker rejects could be written as
another, valid bundle.  An entry of an array of flat records is written
inline, in its holder's loop: no flat record has a writer of its own.
"""

from __future__ import annotations

import json
import re
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjo import (
    CarePlan,
    CodeSystem,
    ConceptCode,
    ContactInformation,
    Diagnosis,
    DiagTest,
    EdgeKind,
    Encounter,
    FieldInvalidError,
    IntakeForm,
    JourneyEdge,
    JourneyGraph,
    MedicalHistory,
    Medication,
    Patient,
    Provider,
    SocialHistory,
    Symptom,
    VitalSign,
    parse_bundle,
    serialize_bundle,
)
from pjo.records import (
    DATE,
    FIELDS,
    ICD10,
    INT,
    KIND,
    NUMBER,
    OBJECT,
    OBJECTS,
    STR,
    STRS,
)
from pjo._generated import writers
from pjo.seed import ENCOUNTER_ALLERGY, JOHN_DOE_ID
from scan_oracles import serialize_bundle_by_dumps

PATIENT = "P"
AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", " ", "\ud800", "é", "😀", "𝄞"]

texts = st.lists(st.sampled_from(AWKWARD) | st.text(max_size=4), max_size=4).map("".join)
integers = st.integers(-(2**70), 2**70) | st.sampled_from([2**64, 2**64 + 1, -(2**64)])
finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1e308, 5e-324]
)
numbers = finite | integers | st.sampled_from([float("nan"), float("inf"), float("-inf")])
# Any JSON value, for a plain scalar field given a value of another type.
json_values = st.recursive(
    st.none() | st.booleans() | numbers | texts,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(texts, inner, max_size=2),
    max_leaves=4,
)
# Values of each scalar type that the writer writes.
TYPED = {
    STR: texts,
    INT: integers,
    NUMBER: finite | integers,
    DATE: st.dates(),
    ICD10: st.builds(ConceptCode, st.just(CodeSystem.ICD10), texts),
    KIND: st.sampled_from(list(EdgeKind)),
    STRS: st.lists(texts, max_size=3),
}


def records(record_type: type, typed: bool, **fixed) -> st.SearchStrategy:
    """Records of ``record_type`` with each optional field set or left unset.
    With ``typed``, every value is of its field's type and every required
    field and array is set; otherwise a string, integer or number field may
    hold any JSON value, NaN or an infinity, and any field may be unset."""
    fields = {}
    for spec in FIELDS[record_type]:
        if spec.type == OBJECT:
            value = st.deferred(lambda spec=spec: records(spec.record, typed))
        elif spec.type == OBJECTS:
            value = st.lists(st.deferred(lambda spec=spec: records(spec.record, typed)), max_size=2)
        elif typed or spec.type not in (STR, INT, NUMBER):
            value = TYPED[spec.type]
        else:
            value = TYPED[spec.type] | numbers | json_values
        always = typed and (spec.required or spec.type in (STRS, OBJECTS))
        fields[spec.attr] = value if always else st.none() | value
    fields.update(fixed)
    return st.builds(record_type, **fields)


@st.composite
def graphs(draw, typed: bool = True) -> JourneyGraph:
    """One patient's graph, its records stored directly under their IDs."""
    graph = JourneyGraph()
    graph.patients[PATIENT] = draw(records(Patient, typed, patient_id=st.just(PATIENT)))
    for key in [f"Provider-{index}" for index in range(draw(st.integers(0, 2)))]:
        graph.providers[key] = draw(records(Provider, typed, provider_id=st.just(key)))
    if draw(st.booleans()):
        graph.intake_forms["F"] = draw(records(IntakeForm, typed, intake_form_id=st.just("F")))
        graph.intake_form_owner["F"] = PATIENT
    keys = [f"E{index}" for index in range(draw(st.integers(0, 3)))]
    for key in keys:
        encounter = records(Encounter, typed, encounter_id=st.just(key), date=st.dates())
        graph.encounters[key] = draw(encounter)
        graph.encounter_owner[key] = PATIENT
    if keys:
        ends = st.sampled_from(keys)
        edges = records(
            JourneyEdge, typed, kind=TYPED[KIND], from_encounter=ends, to_encounter=ends
        )
        graph.edges.extend(draw(st.lists(edges, max_size=3)))
    return graph


@given(graphs())
@settings(max_examples=80)
def test_the_writer_equals_json_dumps(graph):
    assert serialize_bundle(graph, PATIENT) == serialize_bundle_by_dumps(graph, PATIENT)


@given(graphs(typed=False))
@settings(max_examples=80)
def test_a_write_equals_json_dumps_or_fails_with_the_checkers_problem(graph):
    """Values of any type: the writer once wrote each as ``json.dumps`` does."""
    try:
        text = serialize_bundle(graph, PATIENT)
    except FieldInvalidError as error:
        assert str(error) in [f"{d.location}: {d.message}" for d in graph.check_invariants().errors]
    else:
        assert text == serialize_bundle_by_dumps(graph, PATIENT)


def edge_case_graph() -> JourneyGraph:
    graph = JourneyGraph()
    graph.patients[PATIENT] = Patient(
        PATIENT, 'Quote " back \\ nul \x00 us \x1f del \x7f', date(1970, 1, 1),
        race="𝄞 non-BMP 😀", contact=ContactInformation(),
    )  # fmt: skip
    graph.providers["Big"] = Provider("Big", "Dr. Big", years_of_experience=2**64 + 1)
    graph.providers["Negative"] = Provider("Negative", "Dr. Neg", years_of_experience=-(2**70))
    graph.intake_forms["F"] = IntakeForm("F", MedicalHistory(), SocialHistory(" ", "\t"))
    graph.intake_form_owner["F"] = PATIENT
    vitals = [
        VitalSign(1e308, "\ud800", 5e-324, -1e308),
        VitalSign(-0.0, None, 0.0, 1e-320),
        VitalSign(),
    ]
    graph.encounters["E0"] = Encounter("E0", date(2021, 1, 1), "A", "B", vitals=vitals)
    graph.encounters["E1"] = Encounter("E1", date(2021, 1, 2), "A", "B", symptoms=[Symptom("S")])
    graph.encounter_owner.update(E0=PATIENT, E1=PATIENT)
    graph.edges.append(JourneyEdge(EdgeKind.NEXT, "E0", "E1"))
    return graph


def test_edge_case_values_are_written_as_json_dumps_writes_them():
    text = serialize_bundle(edge_case_graph(), PATIENT)
    assert text == serialize_bundle_by_dumps(edge_case_graph(), PATIENT)
    assert '"bodyTemperature": 1e+308' in text and '"heartRate": -1e+308' in text
    assert '"bodyTemperature": -0.0' in text and '"weight": 5e-324' in text
    assert f'"yearsOfExperience": {2**64 + 1}' in text
    assert '"contactInformation"' not in text  # a held record that sets no field is left out
    assert '"hadSurgery": []' in text  # an empty array is written
    assert "{}" in text  # an empty array entry is written as an empty object


@pytest.mark.parametrize(
    "vital, problem",
    [
        (VitalSign(float("nan")), "bodyTemperature: value nan outside [25.0, 45.0] degrees C"),
        (VitalSign(weight=float("inf")), "weight: value inf outside (0, 500.0) kg"),
        (VitalSign(heart_rate=float("-inf")), "heartRate: value -inf outside (0, 300.0) bpm"),
    ],
    ids=["nan", "infinity", "minus-infinity"],
)
def test_a_number_that_is_not_finite_fails_the_write(vital, problem):
    """It was written as ``json.dumps`` writes it, ``NaN`` or ``Infinity``,
    which no bundle holds."""
    with pytest.raises(FieldInvalidError) as raised:
        serialize_bundle(one_encounter_graph(vitals=[vital]), PATIENT)
    assert str(raised.value) == f"encounters[E].vitals[0].{problem}"


@pytest.mark.parametrize(
    "patient, form, problem",
    [
        (Patient(None, None, None), None, "patients[P].patientID: patientID must be nonempty"),
        (Patient(PATIENT, "N", None), IntakeForm(None, None, None),
         "intakeForms[F].socialHistory: socialHistory must be a SocialHistory"),
        (Patient(PATIENT, "N", None),
         IntakeForm("F", MedicalHistory(), SocialHistory(None, None)),
         "patients[P].birthDate: birthDate must be nonempty"),
    ],
    ids=["empty-patient", "empty-intake-form", "empty-social-history"],
)  # fmt: skip
def test_a_record_that_leaves_out_a_required_field_fails_the_write(patient, form, problem):
    """Such a record was once written without the field, ``{}`` for one that
    set none, or left out when held; a held record that sets no field is
    still left out (see the edge cases' contact information)."""
    graph = JourneyGraph()
    graph.patients[PATIENT] = patient
    if form is not None:
        graph.intake_forms["F"] = form
        graph.intake_form_owner["F"] = PATIENT
    with pytest.raises(FieldInvalidError) as raised:
        serialize_bundle(graph, PATIENT)
    assert str(raised.value) == problem


NOT_A_STRING = "patients[P].patientName: patientName must be a string"


@pytest.mark.parametrize(
    "value, problem",
    [(True, NOT_A_STRING), (None, "patients[P].patientName: patientName must be nonempty"),
     ([], NOT_A_STRING), ({}, NOT_A_STRING), ([1, [2, {}]], NOT_A_STRING),
     ({"k": [None, {"n": 1.5}]}, NOT_A_STRING), ("x" * 3, None)],
    ids=["true", "null", "empty-array", "empty-object", "nested-array", "nested-object", "text"],
)  # fmt: skip
def test_a_value_of_another_type_fails_the_write(value, problem):
    """Each was once written as ``json.dumps`` writes it; a string is still
    written.  A left-out severity is written as its default."""
    graph = edge_case_graph()
    graph.patients[PATIENT].patient_name = value
    graph.encounters["E1"].symptoms[0].severity = value
    if problem is None:
        assert serialize_bundle(graph, PATIENT) == serialize_bundle_by_dumps(graph, PATIENT)
        return
    with pytest.raises(FieldInvalidError) as raised:
        serialize_bundle(graph, PATIENT)
    assert str(raised.value) == problem


def test_a_value_json_dumps_refuses_is_refused():
    """As the checker's type problem, raised from ``json.dumps``'s error."""
    graph = edge_case_graph()
    graph.patients[PATIENT].race = {1, 2}
    with pytest.raises(TypeError):
        serialize_bundle_by_dumps(graph, PATIENT)
    with pytest.raises(FieldInvalidError) as raised:
        serialize_bundle(graph, PATIENT)
    assert str(raised.value) == f"patients[{PATIENT}].race: race must be a string"
    assert isinstance(raised.value.__cause__, TypeError)


def test_json_dumps_is_the_reference():
    """The oracle is ``json.dumps`` of the document, not a copy of the writer."""
    graph = edge_case_graph()
    document = json.loads(serialize_bundle_by_dumps(graph, PATIENT))
    expected = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    assert serialize_bundle(graph, PATIENT) == expected


def one_encounter_graph(**arrays) -> JourneyGraph:
    graph = JourneyGraph()
    graph.patients[PATIENT] = Patient(PATIENT, "N", date(1970, 1, 1))
    graph.encounters["E"] = Encounter("E", date(2021, 1, 1), "A", "B", **arrays)
    graph.encounter_owner["E"] = PATIENT
    return graph


def test_no_flat_record_has_a_writer_of_its_own():
    """An entry of an array of flat records is written inline, in the loop
    over the array, and only there: the per-entry writers, and the tables
    that found a writer by an entry's class, are gone."""
    assert sorted(name for name in vars(writers) if name.startswith("write_")) == [
        "write_Bundle_0", "write_ContactInformation_2", "write_Encounter_2",
        "write_IntakeForm_1", "write_MedicalHistory_2", "write_Patient_1",
        "write_SocialHistory_2",
    ]  # fmt: skip
    assert not [name for name in vars(writers) if re.fullmatch("W[0-9]+", name)]


def test_the_edge_case_vitals_are_written_inline():
    """-0.0, extreme numbers and a lone surrogate, in the inlined loop."""
    text = serialize_bundle(edge_case_graph(), PATIENT)
    assert text == serialize_bundle_by_dumps(edge_case_graph(), PATIENT)
    assert '"bloodPressure": "\ud800"' in text


@pytest.mark.parametrize(
    "symptom, problem",
    [(Symptom(5), "symptomName: symptomName must be a string"),
     (Symptom("S", 5), "severity: severity must be a string"),
     (Symptom("S", None), None),
     (Symptom(None, "mild"), "symptomName: symptomName must be nonempty"),
     (Symptom(1.5, [1]), "symptomName: symptomName must be a string")],
    ids=["int-name", "int-severity", "left-out-severity", "left-out-name", "float-name"],
)  # fmt: skip
def test_a_flat_entry_not_of_its_types_fails_the_write(symptom, problem):
    """Such an entry was once written by its own class's writer, as
    ``json.dumps`` writes it.  A left-out severity is written inline, as its
    default."""
    graph = one_encounter_graph(symptoms=[Symptom("S"), symptom, Symptom("T", "mild")])
    if problem is None:
        text = serialize_bundle(graph, PATIENT)
        assert text == serialize_bundle_by_dumps(graph, PATIENT)
        assert text.count('"severity": ""') == 2
        return
    with pytest.raises(FieldInvalidError) as raised:
        serialize_bundle(graph, PATIENT)
    assert str(raised.value) == f"encounters[E].symptoms[1].{problem}"


def test_flat_entries_with_left_out_optional_fields_are_written_inline():
    graph = one_encounter_graph(
        vitals=[VitalSign(), VitalSign(None, "120/80"), VitalSign(heart_rate=70.0), VitalSign(5)],
        tests=[DiagTest("T"), DiagTest("T", "R", "N")],
        diagnoses=[Diagnosis("D"), Diagnosis("D", ConceptCode(CodeSystem.ICD10, "J45"))],
        medications=[Medication("M")],
        care_plans=[CarePlan("C"), CarePlan("C", "d", "Allergy")],
    )
    graph.providers["D"] = Provider("D", "Dr. D")
    graph.edges.append(JourneyEdge(EdgeKind.NEXT, "E", "E"))
    text = serialize_bundle(graph, PATIENT)
    assert text == serialize_bundle_by_dumps(graph, PATIENT)
    assert '"vitals": [\n        {},\n        {\n          "bloodPressure": "120/80"\n' in text
    assert '"diagnosisName": "D"\n        },\n        {\n          "diagnosisName": "D",\n' in text


def test_a_diagnosis_among_the_symptoms_fails_the_write():
    """It was once written by its own class's writer, as a diagnosis."""
    asthma = Diagnosis("Asthma", ConceptCode(CodeSystem.ICD10, "J45"))
    with pytest.raises(FieldInvalidError) as raised:
        serialize_bundle(one_encounter_graph(symptoms=[Symptom("S"), asthma]), PATIENT)
    assert str(raised.value) == "encounters[E].symptoms[1]: symptoms entries must be a Symptom"


def _symptom_text(graph):
    graph.encounters[ENCOUNTER_ALLERGY].symptoms.append("text")


def _symptoms_text(graph):
    graph.encounters[ENCOUNTER_ALLERGY].symptoms = "text"


def _contact_number(graph):
    graph.patients[JOHN_DOE_ID].contact = 5


def _bogus_kind(graph):
    edge = graph.edges[0]
    graph.edges[0] = JourneyEdge("bogus", edge.from_encounter, edge.to_encounter)


def _no_kind(graph):
    edge = graph.edges[0]
    graph.edges[0] = JourneyEdge(None, edge.from_encounter, edge.to_encounter)


def _provider_as_patient(graph):
    graph.patients[JOHN_DOE_ID] = Provider(JOHN_DOE_ID, "Dr. J")


@pytest.mark.parametrize(
    "break_graph, problem, cause",
    [
        (_bogus_kind, "links[0].kind: kind must be an EdgeKind", KeyError),
        (_no_kind, "links[0].kind: kind must be nonempty", KeyError),
        (_symptom_text, f"encounters[{ENCOUNTER_ALLERGY}].symptoms[2]: "
         "symptoms entries must be a Symptom", TypeError),
        (_symptoms_text, f"encounters[{ENCOUNTER_ALLERGY}].symptoms: symptoms must be a list",
         TypeError),
        (_contact_number, f"patients[{JOHN_DOE_ID}].contactInformation: "
         "contactInformation must be a ContactInformation", TypeError),
        (_provider_as_patient, f"patients[{JOHN_DOE_ID}]: patients entries must be a Patient",
         AttributeError),
    ],
    ids=["link kind", "no link kind", "entry", "array", "held record", "stored record"],
)  # fmt: skip
def test_a_failed_write_raises_the_checkers_type_problem(john_graph, break_graph, problem, cause):
    """Raised from what failed: the sort of the links by kind, the writer's
    type test (``bundle._unwritable``), or the read of a stored record's ID.
    A misfiled entry or array once failed on the lookup of its writer by
    class, a ``KeyError``."""
    break_graph(john_graph)
    with pytest.raises(FieldInvalidError) as raised:
        serialize_bundle(john_graph, JOHN_DOE_ID)
    assert str(raised.value) == problem
    assert raised.value.__cause__.__class__ is cause


def test_only_the_written_patients_records_are_named(john_graph):
    _symptom_text(john_graph)
    john_graph.patients["A"] = Patient("A", "N", date(1970, 1, 1), contact=5)
    with pytest.raises(FieldInvalidError, match=r"^encounters\[Encounter-Allergy"):
        serialize_bundle(john_graph, JOHN_DOE_ID)
    with pytest.raises(FieldInvalidError, match=r"^patients\[A\]\.contactInformation: "):
        serialize_bundle(john_graph, "A")


def test_a_clean_write_asks_the_checker_nothing(john_graph, john_text, monkeypatch):
    monkeypatch.setattr(JourneyGraph, "type_error", None)
    assert serialize_bundle(john_graph, JOHN_DOE_ID) == john_text


def test_a_left_out_held_record_is_written_as_the_record_read_in_its_place(john_graph):
    """A held record of a class with no required field that is None reads
    back as its empty record, so it is written as that: an intake form's
    ``medicalHistory`` as four empty arrays, a patient's
    ``contactInformation``, which sets no member, not at all.  The first was
    once left out, so a graph the checker accepts wrote other bytes after a
    parse."""
    john_graph.intake_form_of(JOHN_DOE_ID).medical_history = None
    john_graph.patients[JOHN_DOE_ID].contact = None
    assert john_graph.check_invariants().ok
    text = serialize_bundle(john_graph, JOHN_DOE_ID)
    document = json.loads(text)
    empty = {spec.key: [] for spec in FIELDS[MedicalHistory]}
    assert document["intakeForm"]["medicalHistory"] == empty
    assert "contactInformation" not in document["patient"]
    result = parse_bundle(text)
    assert result.ok, result.errors
    assert result.graph.intake_form_of(JOHN_DOE_ID).medical_history == MedicalHistory()
    assert result.graph.patients[JOHN_DOE_ID].contact == ContactInformation()
    assert serialize_bundle(result.graph, JOHN_DOE_ID) == text
