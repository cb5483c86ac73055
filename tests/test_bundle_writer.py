"""The direct bundle writer against ``json.dumps``, byte for byte.

``serialize_bundle`` writes the text straight from the records.  Its
output must equal ``json.dumps(document, indent=2, ensure_ascii=False)``
plus a newline, where the document is built as dicts the way
``scan_oracles.serialize_bundle_by_dumps`` builds it.  The records here
are generated from ``FIELDS`` and stored directly, so they hold what the
parser never produces: ``NaN``, infinities, ``-0.0``, integers past 2**64,
control, quote, backslash and non-BMP characters, lone surrogates, empty
arrays, records with no field set, and values of the wrong JSON type.
"""

from __future__ import annotations

import json
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjo import (
    CodeSystem,
    ConceptCode,
    ContactInformation,
    EdgeKind,
    Encounter,
    IntakeForm,
    JourneyEdge,
    JourneyGraph,
    MedicalHistory,
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
    graph = edge_case_graph()
    graph.patients[PATIENT].race = {1, 2}
    with pytest.raises(TypeError):
        serialize_bundle_by_dumps(graph, PATIENT)
    with pytest.raises(TypeError):
        serialize_bundle(graph, PATIENT)


def test_json_dumps_is_the_reference():
    """The oracle is ``json.dumps`` of the document, not a copy of the writer."""
    graph = edge_case_graph()
    document = json.loads(serialize_bundle_by_dumps(graph, PATIENT))
    expected = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    assert serialize_bundle(graph, PATIENT) == expected
