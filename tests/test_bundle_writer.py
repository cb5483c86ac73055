"""The direct bundle writer against ``json.dumps``, byte for byte.

``serialize_bundle`` writes the text straight from the records.  Its
output must equal ``json.dumps(document, indent=2, ensure_ascii=False)``
plus a newline, where the document is built as dicts the way
``scan_oracles.serialize_bundle_by_dumps`` builds it.  The records here
are generated from ``FIELDS`` and stored directly, so they hold what the
parser never produces: ``NaN``, infinities, ``-0.0``, integers past 2**64,
control, quote, backslash and non-BMP characters, lone surrogates, empty
arrays, records with no field set, and values of the wrong JSON type.

An entry of an array of flat records is written inline, in its holder's
loop, unless a field a read record always sets is left out or not of its
plain type, or the entry is of another class: then its own class's writer
writes it.  The ``entry_writers`` fixture records each entry of an
encounter's arrays that went that way.
"""

from __future__ import annotations

import json
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
from pjo.bundle import _WRITERS_AT
from pjo.seed import ENCOUNTER_ALLERGY, JOHN_DOE_ID
from scan_oracles import serialize_bundle_by_dumps

PATIENT = "P"
AWKWARD = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", " ", "\ud800", "é", "😀", "𝄞"]

texts = st.lists(st.sampled_from(AWKWARD) | st.text(max_size=4), max_size=4).map("".join)
numbers = (
    st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e308, 5e-324])
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([2**64, 2**64 + 1, -(2**64)])
)
# Any JSON value, for a plain scalar field given a value of another type.
json_values = st.recursive(
    st.none() | st.booleans() | numbers | texts,
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(texts, inner, max_size=2),
    max_leaves=4,
)
SCALARS = {
    STR: texts,
    INT: numbers,
    NUMBER: numbers,
    DATE: st.dates(),
    ICD10: st.builds(ConceptCode, st.just(CodeSystem.ICD10), texts),
    KIND: st.sampled_from(list(EdgeKind)),
    STRS: st.lists(texts, max_size=3),
}


def records(record_type: type, **fixed) -> st.SearchStrategy:
    """Records of ``record_type`` with every field set or left unset."""
    fields = {}
    for spec in FIELDS[record_type]:
        if spec.type == OBJECT:
            value = st.deferred(lambda spec=spec: records(spec.record))
        elif spec.type == OBJECTS:
            value = st.lists(st.deferred(lambda spec=spec: records(spec.record)), max_size=2)
        elif spec.type in (STR, INT, NUMBER):
            value = SCALARS[spec.type] | json_values
        else:
            value = SCALARS[spec.type]
        fields[spec.attr] = st.none() | value
    fields.update(fixed)
    return st.builds(record_type, **fields)


encounter_lists = st.lists(records(Encounter, date=st.dates()), max_size=3)


@st.composite
def graphs(draw) -> JourneyGraph:
    """One patient's graph, its records stored directly under fixed keys."""
    graph = JourneyGraph()
    graph.patients[PATIENT] = draw(records(Patient))
    for index, provider in enumerate(draw(st.lists(records(Provider), max_size=2))):
        graph.providers[f"Provider-{index}"] = provider
    form = draw(st.none() | records(IntakeForm))
    if form is not None:
        graph.intake_forms["F"] = form
        graph.intake_form_owner["F"] = PATIENT
    keys = []
    for index, encounter in enumerate(draw(encounter_lists)):
        keys.append(f"E{index}")
        graph.encounters[keys[-1]] = encounter
        graph.encounter_owner[keys[-1]] = PATIENT
    if keys:
        ends = st.sampled_from(keys)
        edges = records(JourneyEdge, kind=SCALARS[KIND], from_encounter=ends, to_encounter=ends)
        graph.edges.extend(draw(st.lists(edges, max_size=3)))
    return graph


@given(graphs())
@settings(max_examples=80)
def test_the_writer_equals_json_dumps(graph):
    assert serialize_bundle(graph, PATIENT) == serialize_bundle_by_dumps(graph, PATIENT)


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
        VitalSign(float("nan"), "\ud800", float("inf"), float("-inf")),
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
    assert '"bodyTemperature": NaN' in text
    assert '"weight": Infinity' in text and '"heartRate": -Infinity' in text
    assert '"bodyTemperature": -0.0' in text
    assert f'"yearsOfExperience": {2**64 + 1}' in text
    assert '"contactInformation"' not in text  # an empty nested object is omitted
    assert '"hadSurgery": []' in text  # an empty array is written
    assert "{}" in text  # an empty array entry is written as an empty object


@pytest.mark.parametrize(
    "patient, form, written, left_out",
    [
        (Patient(None, None, None), None, '"patient": {}', '"intakeForm"'),
        (
            Patient(PATIENT, "N", None),
            IntakeForm(None, None, None),
            '"intakeForm": {}',
            '"intakeFormID"',
        ),
        (
            Patient(PATIENT, "N", None),
            IntakeForm("F", MedicalHistory(), SocialHistory(None, None)),
            '"medicalHistory": {',
            '"socialHistory"',
        ),
    ],
    ids=["empty-patient", "empty-intake-form", "empty-social-history"],
)
def test_records_that_set_no_field(patient, form, written, left_out):
    """The document writes every record it holds, ``{}`` included; below it,
    a held record that sets no field is left out."""
    graph = JourneyGraph()
    graph.patients[PATIENT] = patient
    if form is not None:
        graph.intake_forms["F"] = form
        graph.intake_form_owner["F"] = PATIENT
    text = serialize_bundle(graph, PATIENT)
    assert text == serialize_bundle_by_dumps(graph, PATIENT)
    assert written in text and left_out not in text


@pytest.mark.parametrize(
    "value",
    [True, None, [], {}, [1, [2, {}]], {"k": [None, {"n": 1.5}]}, "x" * 3],
    ids=["true", "null", "empty-array", "empty-object", "nested-array", "nested-object", "text"],
)
def test_a_value_of_another_type_is_written_as_json_dumps_writes_it(value):
    graph = edge_case_graph()
    graph.patients[PATIENT].patient_name = value
    graph.encounters["E1"].symptoms[0].severity = value
    assert serialize_bundle(graph, PATIENT) == serialize_bundle_by_dumps(graph, PATIENT)


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


@pytest.fixture
def entry_writers(monkeypatch) -> list[type]:
    """The class of each encounter array entry written by its own class's
    writer, not inline, in order."""
    written = []
    entries = _WRITERS_AT[4]  # document, encounters array, encounter, entry
    for record_type in {spec.record for spec in FIELDS[Encounter] if spec.type == OBJECTS}:
        write = entries[record_type]
        spy = lambda record, write=write: written.append(record.__class__) or write(record)
        monkeypatch.setitem(entries, record_type, spy)
    return written


def one_encounter_graph(**arrays) -> JourneyGraph:
    graph = JourneyGraph()
    graph.patients[PATIENT] = Patient(PATIENT, "N", date(1970, 1, 1))
    graph.encounters["E"] = Encounter("E", date(2021, 1, 1), "A", "B", **arrays)
    graph.encounter_owner["E"] = PATIENT
    return graph


def test_the_edge_case_vitals_are_written_inline(entry_writers):
    """NaN, the infinities, -0.0 and a lone surrogate in the inlined loop."""
    assert serialize_bundle(edge_case_graph(), PATIENT) == serialize_bundle_by_dumps(
        edge_case_graph(), PATIENT
    )
    assert entry_writers == []


@pytest.mark.parametrize(
    "symptom",
    [Symptom(5), Symptom("S", 5), Symptom("S", None), Symptom(None, "mild"), Symptom(1.5, [1])],
    ids=["int-name", "int-severity", "left-out-severity", "left-out-name", "float-name"],
)
def test_a_flat_entry_not_of_its_plain_types_is_written_by_its_writer(symptom, entry_writers):
    graph = one_encounter_graph(symptoms=[Symptom("S"), symptom, Symptom("T", "mild")])
    assert serialize_bundle(graph, PATIENT) == serialize_bundle_by_dumps(graph, PATIENT)
    assert entry_writers == [Symptom]


def test_flat_entries_with_left_out_optional_fields_are_written_inline(entry_writers):
    graph = one_encounter_graph(
        vitals=[VitalSign(), VitalSign(None, "120/80"), VitalSign(heart_rate=70.0), VitalSign(5)],
        tests=[DiagTest("T"), DiagTest("T", "R", "N")],
        diagnoses=[Diagnosis("D"), Diagnosis("D", ConceptCode(CodeSystem.ICD10, None))],
        medications=[Medication("M")],
        care_plans=[CarePlan("C"), CarePlan("C", "d", "Allergy")],
    )
    graph.providers["D"] = Provider("D", "Dr. D")
    graph.edges.append(JourneyEdge(EdgeKind.NEXT, "E", "E"))
    text = serialize_bundle(graph, PATIENT)
    assert text == serialize_bundle_by_dumps(graph, PATIENT)
    assert entry_writers == []
    assert '"vitals": [\n        {},\n        {\n          "bloodPressure": "120/80"\n' in text
    assert '"diagnosisName": "D"\n        },\n        {\n          "diagnosisName": "D"\n' in text


def test_a_diagnosis_among_the_symptoms_is_written_by_its_own_writer(entry_writers):
    asthma = Diagnosis("Asthma", ConceptCode(CodeSystem.ICD10, "J45"))
    graph = one_encounter_graph(symptoms=[Symptom("S"), asthma])
    assert serialize_bundle(graph, PATIENT) == (
        '{\n  "formatVersion": "pjo-1",\n  "patient": {\n    "patientID": "P",\n'
        '    "patientName": "N",\n    "birthDate": "1970-01-01"\n  },\n  "providers": [],\n'
        '  "encounters": [\n    {\n      "encounterID": "E",\n      "date": "2021-01-01",\n'
        '      "specialty": "A",\n      "providerRef": "B",\n      "symptoms": [\n        {\n'
        '          "symptomName": "S",\n          "severity": ""\n        },\n        {\n'
        '          "diagnosisName": "Asthma",\n          "icd10": "J45"\n        }\n      ],\n'
        '      "vitals": [],\n      "tests": [],\n      "diagnoses": [],\n'
        '      "medications": [],\n      "carePlans": []\n    }\n  ],\n  "links": []\n}\n'
    )
    assert entry_writers == [Diagnosis]


def _symptom_text(graph):
    graph.encounters[ENCOUNTER_ALLERGY].symptoms.append("text")


def _symptoms_text(graph):
    graph.encounters[ENCOUNTER_ALLERGY].symptoms = "text"


def _contact_number(graph):
    graph.patients[JOHN_DOE_ID].contact = 5


@pytest.mark.parametrize(
    "break_graph, problem",
    [
        (_symptom_text, f"encounters[{ENCOUNTER_ALLERGY}].symptoms[2]: "
         "symptoms entries must be a Symptom"),
        (_symptoms_text, f"encounters[{ENCOUNTER_ALLERGY}].symptoms: symptoms must be a list"),
        (_contact_number, f"patients[{JOHN_DOE_ID}].contactInformation: "
         "contactInformation must be a ContactInformation"),
    ],
    ids=["entry", "array", "held record"],
)  # fmt: skip
def test_a_failed_write_raises_the_checkers_type_problem(john_graph, break_graph, problem):
    break_graph(john_graph)
    with pytest.raises(FieldInvalidError) as raised:
        serialize_bundle(john_graph, JOHN_DOE_ID)
    assert str(raised.value) == problem
    assert isinstance(raised.value.__cause__, KeyError)


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
