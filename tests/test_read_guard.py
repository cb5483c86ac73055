"""Reads of a damaged graph fail one way: with the checker's problem.

Each public read of ``queries``, ``to_dot``, ``serialize_bundle`` and
``JourneyGraph.link`` is wrapped by ``graph.guarded``.  A bare exception
that a damaged graph makes it raise becomes ``FieldInvalidError`` for the
first ``invalid-type`` (else ``field-invalid``, else ``invalid-value``) error of
``check_invariants()`` on the records and links it reads, located as the
checker locates it.  A clean read never asks the checker.

The properties damage a graph only through the API's own doors: fields of
mutable records and the lists they hold are assigned, table and ownership
entries are stored under string keys or others, and a link is changed by
building a new ``JourneyEdge``.  A key, an ID or a field may be an integer
of more than 4300 digits, whose ``repr`` raises.
"""

from __future__ import annotations

import contextlib
import copy
import random
import re
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeygen import random_journey
from pjo import (
    AmbiguousChainError,
    AmbiguousTraceError,
    CrossPatientLinkError,
    CycleIntroducedError,
    DuplicateEdgeError,
    EdgeKind,
    FieldInvalidError,
    JourneyEdge,
    JourneyGraph,
    Patient,
    PjoError,
    Symptom,
    TemporalViolationError,
    UnknownEncounterError,
    UnknownPatientError,
    john_doe_graph,
    parse_bundle,
    serialize_bundle,
    to_dot,
)
from pjo.graph import _TABLES, ValidationReport, guarded
from pjo.queries import (
    cause_trace,
    find_encounters,
    followup_chain,
    symptom_diagnosis_links,
    symptom_progression,
    timeline,
)
from pjo.records import FIELDS, OBJECTS, STRS
from pjo.seed import (
    ENCOUNTER_ALLERGY,
    ENCOUNTER_ALLERGY_FOLLOWUP,
    JOHN_DOE_ID,
)
from test_silent_pass import hostile, hostile_records, records_in

FOLLOWUP = f"encounters[{ENCOUNTER_ALLERGY_FOLLOWUP}]"
ALLERGY = f"encounters[{ENCOUNTER_ALLERGY}]"


def _link(graph: JourneyGraph, kind, start, end):
    """``link`` on a copy, so that a read after it sees the graph unchanged."""
    return copy.deepcopy(graph).link(kind, start, end)


# Each guarded read, called as (graph, patient ID, encounter ID, another
# encounter ID), with the errors it documents on a graph the checker accepts.
PATIENT_ERRORS = (UnknownPatientError,)
LINK_ERRORS = (
    UnknownEncounterError, FieldInvalidError, CrossPatientLinkError,
    TemporalViolationError, DuplicateEdgeError, CycleIntroducedError,
)  # fmt: skip
READS = {
    "timeline": (lambda g, p, e, f: timeline(g, p), PATIENT_ERRORS),
    "symptom_progression": (lambda g, p, e, f: symptom_progression(g, p, "Sneezing"),
                            PATIENT_ERRORS),
    "symptom_diagnosis_links": (lambda g, p, e, f: symptom_diagnosis_links(g, p), PATIENT_ERRORS),
    "find_encounters": (
        lambda g, p, e, f: find_encounters(g, p, specialty="allergy"), PATIENT_ERRORS),
    "find_encounters by diagnosis and date": (
        lambda g, p, e, f: find_encounters(
            g, diagnosis_name="seasonal allergic rhinitis",
            date_from=date(2021, 1, 1), date_to=date(2022, 1, 1)),
        PATIENT_ERRORS),
    "followup_chain": (
        lambda g, p, e, f: followup_chain(g, e),
        (UnknownEncounterError, UnknownPatientError, AmbiguousChainError, CycleIntroducedError)),
    "cause_trace": (
        lambda g, p, e, f: cause_trace(g, e),
        (UnknownEncounterError, UnknownPatientError, AmbiguousTraceError, CycleIntroducedError)),
    "to_dot": (lambda g, p, e, f: to_dot(g, p), PATIENT_ERRORS),
    "to_dot full": (lambda g, p, e, f: to_dot(g, p, detail="full"), PATIENT_ERRORS),
    "to_dot every patient": (lambda g, p, e, f: to_dot(g, detail="full"), PATIENT_ERRORS),
    "serialize_bundle": (lambda g, p, e, f: serialize_bundle(g, p), PATIENT_ERRORS),
    "link": (lambda g, p, e, f: _link(g, EdgeKind.NEXT, e, f), LINK_ERRORS),
}  # fmt: skip


# -- the findings, each pinned on the seed graph --------------------------------


def _misfiled_followup(graph):
    graph.encounters[ENCOUNTER_ALLERGY_FOLLOWUP] = Symptom("x")


def _symptom_text(graph):
    graph.encounters[ENCOUNTER_ALLERGY].symptoms.append("text")


def _no_specialty(graph):
    graph.encounters[ENCOUNTER_ALLERGY].specialty = None


def _diagnosis_number(graph):
    graph.encounters[ENCOUNTER_ALLERGY].diagnoses.append(1.5)


def _diagnoses_number(graph):
    graph.encounters[ENCOUNTER_ALLERGY].diagnoses = 3


@pytest.mark.parametrize(
    "break_graph, read, problem",
    [
        (_misfiled_followup, lambda g: followup_chain(g, ENCOUNTER_ALLERGY),
         f"{FOLLOWUP}: encounters entries must be a Encounter"),
        (_misfiled_followup, lambda g: cause_trace(g, ENCOUNTER_ALLERGY_FOLLOWUP),
         f"{FOLLOWUP}: encounters entries must be a Encounter"),
        (_misfiled_followup,
         lambda g: g.link(EdgeKind.NEXT, ENCOUNTER_ALLERGY, ENCOUNTER_ALLERGY_FOLLOWUP),
         f"{FOLLOWUP}: encounters entries must be a Encounter"),
        (_symptom_text, lambda g: symptom_progression(g, JOHN_DOE_ID, "Sneezing"),
         f"{ALLERGY}.symptoms[2]: symptoms entries must be a Symptom"),
        (_symptom_text, lambda g: symptom_diagnosis_links(g, JOHN_DOE_ID),
         f"{ALLERGY}.symptoms[2]: symptoms entries must be a Symptom"),
        (_no_specialty, lambda g: find_encounters(g, JOHN_DOE_ID, specialty="allergy"),
         f"{ALLERGY}.specialty: specialty must be nonempty"),
        (_no_specialty, lambda g: find_encounters(g, specialty="allergy"),
         f"{ALLERGY}.specialty: specialty must be nonempty"),
        (_diagnosis_number, lambda g: timeline(g, JOHN_DOE_ID),
         f"{ALLERGY}.diagnoses[1]: diagnoses entries must be a Diagnosis"),
        (_diagnoses_number, lambda g: timeline(g, JOHN_DOE_ID),
         f"{ALLERGY}.diagnoses: diagnoses must be a list"),
    ],
    ids=[
        "followup_chain", "cause_trace", "link", "symptom_progression",
        "symptom_diagnosis_links", "find_encounters", "find_encounters every patient",
        "timeline entry", "timeline array",
    ],
)  # fmt: skip
def test_a_read_of_a_damaged_graph_raises_the_checkers_problem(
    john_graph, break_graph, read, problem
):
    break_graph(john_graph)
    with pytest.raises(FieldInvalidError) as raised:
        read(john_graph)
    assert str(raised.value) == problem


def test_a_misfiled_chain_step_is_refused_before_it_is_returned(john_graph):
    """The chain queries walk links alone; a step of another class is
    refused when the records are looked up, whatever else the graph holds."""
    _misfiled_followup(john_graph)
    john_graph.patients["A"] = john_graph.providers["Provider-Allergy"]  # also misfiled
    with pytest.raises(FieldInvalidError, match=f"^{re.escape(FOLLOWUP)}: "):
        followup_chain(john_graph, ENCOUNTER_ALLERGY)


def test_a_bad_detail_stays_a_value_error_on_a_damaged_graph(john_graph):
    _symptom_text(john_graph)
    with pytest.raises(ValueError, match="detail must be 'journey' or 'full'"):
        to_dot(john_graph, detail="bogus")


def test_a_read_names_only_its_own_patients_records(john_graph):
    """Patient A's misfiled encounter is the checker's first type problem,
    but John Doe's timeline reads only his own."""
    _diagnoses_number(john_graph)
    john_graph.patients["A"] = Patient("A", "N", date(1970, 1, 1))
    john_graph.encounters["A-1"] = Symptom("x")
    john_graph.encounter_owner["A-1"] = "A"
    first = john_graph.check_invariants().errors[0]
    assert (first.location, first.message) == ("encounters[A-1]", "encounters entries must be a Encounter")
    with pytest.raises(FieldInvalidError, match=r"^encounters\[Encounter-Allergy-20210725\]\.diagnoses: "):
        timeline(john_graph, JOHN_DOE_ID)
    with pytest.raises(FieldInvalidError, match=r"^encounters\[A-1\]: "):
        find_encounters(john_graph, specialty="allergy")


def test_a_failure_the_checker_does_not_explain_is_raised_as_it_is(john_graph):
    """On a clean graph, a bad argument's own error comes out."""
    with pytest.raises(AttributeError):
        find_encounters(john_graph, JOHN_DOE_ID, specialty=5)


def test_an_owner_that_is_not_a_string_is_reported_and_owns_nothing(john_graph):
    """An unhashable owner once made the checker, the owner index and every
    read raise ``TypeError``; a hashable one read as an unknown patient."""
    john_graph.encounter_owner[ENCOUNTER_ALLERGY] = [JOHN_DOE_ID]
    john_graph.intake_form_owner["IntakeForm-JohnDoe"] = 5
    errors = [(d.code, d.location, d.message) for d in john_graph.check_invariants().errors]
    assert errors[:2] == [
        ("invalid-type", "intakeForms[IntakeForm-JohnDoe]",
         "owner of intake form 'IntakeForm-JohnDoe' must be a string"),
        ("invalid-type", ALLERGY, f"owner of encounter {ENCOUNTER_ALLERGY!r} must be a string"),
    ]  # fmt: skip
    assert {code for code, _, _ in errors[2:]} == {"cross-patient-link"}
    assert ENCOUNTER_ALLERGY not in [e.encounter_id for e in timeline(john_graph, JOHN_DOE_ID)]
    assert john_graph.intake_form_of(JOHN_DOE_ID) is None
    with pytest.raises(FieldInvalidError) as raised:
        followup_chain(john_graph, ENCOUNTER_ALLERGY)
    assert str(raised.value) == f"{ALLERGY}: owner of encounter {ENCOUNTER_ALLERGY!r} must be a string"


@pytest.mark.parametrize("key", [5, ("Z",), None])
def test_a_key_that_is_not_a_string_is_reported_not_raised(john_graph, key):
    """Keys of two types once made the checker's and ``to_dot``'s sorts
    raise ``TypeError``.  Strings sort first, then other keys by ``repr``."""
    john_graph.patients[key] = Patient("5", "N", date(1981, 1, 1))
    john_graph.encounter_owner[key] = JOHN_DOE_ID
    errors = [(d.code, d.location, d.message) for d in john_graph.check_invariants().errors]
    assert errors == [
        ("field-invalid", f"patients[{key}].patientID", f"patientID '5' differs from its key {key!r}"),
        ("dangling-reference", f"encounters[{key}]",
         f"ownership entry references missing encounter {key!r}"),
    ]  # fmt: skip
    with pytest.raises(FieldInvalidError, match=re.escape(f"patients[{key}].patientID: ")):
        to_dot(john_graph)
    assert len(timeline(john_graph, JOHN_DOE_ID)) == 4


# An integer whose ``repr`` raises ``ValueError``, and how pjo shows it.
HUGE, HUGE_SHOWN = 10**5000, "<int of 16610 bits: 0x...00000000>"


def test_a_key_of_more_than_4300_digits_is_reported_not_raised(john_graph):
    """Such a key once made the checker and ``to_dot`` raise a bare
    ``ValueError`` in sorting and locating it."""
    john_graph.patients[HUGE] = Patient("5", "N", date(1981, 1, 1))
    john_graph.encounter_owner[HUGE] = JOHN_DOE_ID
    errors = [(d.code, d.location, d.message) for d in john_graph.check_invariants().errors]
    assert errors == [
        ("field-invalid", f"patients[{HUGE_SHOWN}].patientID",
         f"patientID '5' differs from its key {HUGE_SHOWN}"),
        ("dangling-reference", f"encounters[{HUGE_SHOWN}]",
         f"ownership entry references missing encounter {HUGE_SHOWN}"),
    ]  # fmt: skip
    with pytest.raises(FieldInvalidError, match=re.escape(f"patients[{HUGE_SHOWN}].patientID: ")):
        to_dot(john_graph)
    assert len(timeline(john_graph, JOHN_DOE_ID)) == 4


def test_two_keys_of_more_than_4300_digits_get_two_locations(john_graph):
    """Such keys of one size were once shown alike, so the checker gave two
    records one location."""
    for key in (HUGE, -HUGE):
        john_graph.patients[key] = Patient("5", "N", date(1981, 1, 1))
    locations = [d.location for d in john_graph.check_invariants().errors]
    assert locations == [
        "patients[<int of 16610 bits: -0x...00000000>].patientID",
        f"patients[{HUGE_SHOWN}].patientID",
    ]


@pytest.mark.parametrize(
    "table, key, field",
    [
        ("patients", JOHN_DOE_ID, "patientID"),
        ("providers", "Provider-Allergy", "providerID"),
        ("intake_forms", "IntakeForm-JohnDoe", "intakeFormID"),
        ("encounters", ENCOUNTER_ALLERGY, "encounterID"),
    ],
)
def test_an_id_of_more_than_4300_digits_is_reported_not_raised(john_graph, table, key, field):
    """Such an ID once made the checker raise a bare ``ValueError`` in
    saying that it differs from its key."""
    record = getattr(john_graph, table)[key]
    setattr(record, FIELDS[record.__class__][0].attr, HUGE)
    at = f"{_TABLES[table][0]}[{key}].{field}"
    errors = [(d.code, d.location, d.message) for d in john_graph.check_invariants().errors]
    assert errors == [
        ("invalid-type", at, f"{field} must be a string"),
        ("field-invalid", at,
         f"{field} {HUGE_SHOWN} differs from its key {key!r}"),
    ]  # fmt: skip
    for read in (lambda: to_dot(john_graph), lambda: timeline(john_graph, JOHN_DOE_ID)):
        with contextlib.suppress(PjoError):
            read()


def test_a_value_too_long_to_write_is_the_checkers_problem(john_graph):
    """The writer once raised a bare ``ValueError`` on such a value: the
    checker's only error on it is ``invalid-value``."""
    john_graph.providers["Provider-Allergy"].years_of_experience = HUGE
    with pytest.raises(FieldInvalidError) as raised:
        serialize_bundle(john_graph, JOHN_DOE_ID)
    assert str(raised.value) == (
        "providers[Provider-Allergy].yearsOfExperience: "
        "yearsOfExperience must have at most 4300 digits"
    )


def test_keys_of_two_types_on_one_day_are_put_in_date_order(john_graph):
    encounter = copy.deepcopy(john_graph.encounters[ENCOUNTER_ALLERGY])
    john_graph.encounters[5] = encounter
    john_graph.encounter_owner[5] = JOHN_DOE_ID
    days = [(e.date, e.encounter_id) for e in john_graph.encounters_of(JOHN_DOE_ID)]
    assert days[2:4] == [(encounter.date, ENCOUNTER_ALLERGY)] * 2
    assert [(d.location, d.code) for d in john_graph.check_invariants().errors] == [
        ("encounters[5].encounterID", "field-invalid")
    ]

# -- a clean read asks the checker nothing ---------------------------------------


@pytest.mark.parametrize("name", list(READS))
def test_a_clean_read_asks_the_checker_nothing(john_graph, name, monkeypatch):
    read, _ = READS[name]
    arguments = (john_graph, JOHN_DOE_ID, ENCOUNTER_ALLERGY, ENCOUNTER_ALLERGY_FOLLOWUP)
    expected = read(*arguments)
    monkeypatch.setattr(JourneyGraph, "type_error", None)
    assert read(*arguments) == expected


def test_every_public_read_is_guarded():
    from pjo import bundle, dot, queries

    guard = guarded()(lambda graph: graph).__code__
    public = [
        value
        for name, value in vars(queries).items()
        if not name.startswith("_") and callable(value) and value.__module__ == queries.__name__
        and not isinstance(value, type)
    ]  # fmt: skip
    assert len(public) == 6
    for read in [*public, dot._draw, bundle.serialize_bundle, JourneyGraph.link]:
        assert read.__code__ is guard, read


# -- damaged graphs --------------------------------------------------------------


def _stored_records(graph: JourneyGraph) -> list:
    """Every mutable record the graph holds, at any depth."""
    found = []
    for attr in _TABLES:
        for record in getattr(graph, attr).values():
            if record.__class__ in FIELDS:
                found += records_in(record)
    return found


# Hashable keys that are not strings, and do not compare with strings; the
# hostile values, and integers whose ``repr`` raises, for fields and IDs too.
odd_keys = st.sampled_from([5, 1.5, None, ("Z",), b"Z", HUGE, -HUGE])
hostile_values = st.one_of(hostile, st.sampled_from([HUGE, -HUGE, [HUGE]]))


def damage_graph(graph: JourneyGraph, data) -> None:
    """One write through the API's own doors: a field of a stored record set
    to a hostile value or an entry put into an array it holds, a table or
    ownership entry stored under a key old, new or not a string, or a link
    replaced or added."""
    door = data.draw(st.sampled_from(["field", "table", "owner", "link"]))
    value = copy.deepcopy(data.draw(hostile_values))
    if door == "field":
        record = data.draw(st.sampled_from(_stored_records(graph)))
        spec = data.draw(st.sampled_from(FIELDS[record.__class__]))
        held = getattr(record, spec.attr)
        if spec.type in (OBJECTS, STRS) and held.__class__ is list and data.draw(st.booleans()):
            held.insert(data.draw(st.integers(0, len(held))), value)
        else:
            setattr(record, spec.attr, value)
    elif door == "table":
        table = getattr(graph, data.draw(st.sampled_from(list(_TABLES))))
        key = data.draw(st.sampled_from([*table, "Z"]) | odd_keys)
        others = [r for attr in _TABLES for r in getattr(graph, attr).values()]
        stored = copy.deepcopy(data.draw(st.sampled_from(others + [value]) | hostile_records))
        table[key] = stored
    elif door == "owner":
        owners = getattr(graph, data.draw(st.sampled_from(["encounter_owner", "intake_form_owner"])))
        key = data.draw(st.sampled_from([*owners, *graph.encounters, "Z"]) | odd_keys)
        owners[key] = data.draw(st.sampled_from([*graph.patients, "Z", value]))
    else:
        keys = [*graph.encounters, "Z"]
        fields = [data.draw(st.sampled_from(list(EdgeKind))), data.draw(st.sampled_from(keys)),
                  data.draw(st.sampled_from(keys)), None]  # fmt: skip
        fields[data.draw(st.integers(0, 3))] = value
        index = data.draw(st.integers(0, len(graph.edges)))
        graph.edges[index : index + 1] = [JourneyEdge(*fields)]


@st.composite
def damaged_graphs(draw) -> JourneyGraph:
    """The seed graph or a generated cohort, damaged one to three times."""
    if draw(st.booleans()):
        graph = john_doe_graph()
    else:
        graph = random_journey(random.Random(draw(st.integers(0, 2**32 - 1))),
                               max_patients=3, hostile_names=True)  # fmt: skip
    data = draw(st.data())
    for _ in range(draw(st.integers(1, 3))):
        damage_graph(graph, data)
    return graph


@given(graph=damaged_graphs())
@settings(max_examples=300, deadline=None)
def test_the_checker_returns_on_every_damaged_graph(graph):
    assert isinstance(graph.check_invariants(), ValidationReport)


@given(graph=damaged_graphs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_every_guarded_read_returns_or_raises_a_pjo_error(graph, data):
    patient = data.draw(st.sampled_from([*graph.patients, "Ghost"]))
    encounter, other = (data.draw(st.sampled_from([*graph.encounters, "Ghost"]))
                        for _ in range(2))  # fmt: skip
    accepted = graph.check_invariants().ok
    for name, (read, documented) in READS.items():
        try:
            read(graph, patient, encounter, other)
        except PjoError as error:
            assert not accepted or isinstance(error, documented), (name, error)


@pytest.mark.parametrize(
    "field, records, attr",
    [("severity", "symptoms", "severity"), ("results", "tests", "results"),
     ("dosage", "medications", "dosage"), ("frequency", "medications", "frequency"),
     ("description", "care_plans", "description")],
)  # fmt: skip
def test_a_left_out_defaulted_field_round_trips(john_graph, field, records, attr):
    """Such a field holding None once was written left out, read back as
    ``""`` and then written: the round-trip property found it."""
    written = serialize_bundle(john_graph, JOHN_DOE_ID).count(f'"{field}": ')
    setattr(getattr(john_graph.encounters[ENCOUNTER_ALLERGY], records)[0], attr, None)
    assert john_graph.check_invariants().ok
    text = serialize_bundle(john_graph, JOHN_DOE_ID)
    assert text.count(f'"{field}": ') == written
    result = parse_bundle(text)
    assert result.ok
    assert serialize_bundle(result.graph, JOHN_DOE_ID) == text


@given(graph=damaged_graphs())
@settings(max_examples=300, deadline=None)
def test_a_graph_the_checker_accepts_round_trips(graph):
    """What the checker accepts, the writer writes as UTF-8 text that parses
    back, and the graph read writes the same bytes.  A lone surrogate or an
    integer of more than 4300 digits once passed the checker and then could
    not be written."""
    if not graph.check_invariants().ok:
        return
    for patient_id in graph.patients:
        data = serialize_bundle(graph, patient_id).encode("utf-8")
        result = parse_bundle(data)
        assert result.ok, result.diagnostics
        assert serialize_bundle(result.graph, patient_id).encode("utf-8") == data
