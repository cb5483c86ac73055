"""Check silently, report on failure: the generated field checks and readers.

Each generated field check tests a record without reporting anything, in
one ``and``-chained test per group of fields and bare loops over its
arrays, and returns True when every rule holds; ``field_problems`` then
returns ``[]``.  Only a record that fails is walked by ``_walk_fields``,
which words its problems.  So ``field_problems``, and the walk alone, must
equal the reporting pass the field checks once generated
(``field_problems_by_report``) on every record: valid ones and every kind of
damage a record in memory can hold, down to the class of what each raises.
A bundle, which no graph holds, has no generated check.

Each generated reader reads an array of flat records or of strings in a
bare loop, and sends the whole array to ``_read`` at the first entry that
fails its test.  The reader cases below, with the failing entry first, in
the middle or last and an entry with an unknown key around it, were
recorded in ``data/reader_arrays.json`` from the reader that sent each
failing entry on its own, inside its loop; the records read and every
diagnostic must stay the same.
"""

from __future__ import annotations

import copy
import json
import random
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeygen import random_journey
from pjo import john_doe_bundle, john_doe_graph, parse_bundle
from pjo._codegen import reader_source
from pjo._generated import field_problems as checks
from pjo._generated import readers
from pjo.bundle import FORMAT_VERSION
from pjo.codes import CodeSystem, ConceptCode
from pjo.graph import ValidationReport, _walk_fields, field_problems
from pjo.records import (
    FIELDS,
    OBJECT,
    OBJECTS,
    STRS,
    Bundle,
    ContactInformation,
    Diagnosis,
    EdgeKind,
    Encounter,
    MedicalHistory,
    SocialHistory,
    Symptom,
    VitalSign,
)
from scan_oracles import field_problems_by_report

DATA = Path(__file__).parent / "data" / "reader_arrays.json"


class Text(str):
    """A string of another class, which no string rule takes."""


class Real(float):
    """A float of another class, which no number rule takes."""


def bundle_of(graph, patient_id: str) -> Bundle:
    """The patient's bundle record, holding the graph's own records."""
    return Bundle(
        FORMAT_VERSION,
        graph.patients[patient_id],
        [graph.providers[key] for key in sorted(graph.providers)],
        graph.intake_form_of(patient_id),
        graph.encounters_of(patient_id),
        graph.edges_of(patient_id),
    )


def records_in(record) -> list:
    """The record and every record it holds, at any depth, in field order;
    values of no record type are left out."""
    found = [record]
    for spec in FIELDS[record.__class__]:
        value = getattr(record, spec.attr)
        if spec.type == OBJECT and value.__class__ in FIELDS:
            found += records_in(value)
        elif spec.type == OBJECTS and value.__class__ is list:
            for entry in value:
                if entry.__class__ in FIELDS:
                    found += records_in(entry)
    return found


def outcome(check, record):
    """What ``check(record)`` returns, or the class of what it raises."""
    try:
        return check(record)
    except Exception as error:  # noqa: BLE001 - both checks must fail alike
        return type(error)


SEED = bundle_of(john_doe_graph(), "JohnDoe")


def test_the_seed_bundle_holds_every_record_type():
    assert {record.__class__ for record in records_in(SEED)} == set(FIELDS)


hostile_scalars = st.sampled_from(
    [
        None, "", " ", "x", "\ud800", True, False, 0, 1, -1, 36.6, 5.5, 10**30,
        float("nan"), float("inf"), float("-inf"), 1e9, -0.5, Text("x"), Text(""),
        Real(36.6), Real("nan"), "120/80", "80/120", "0/0", "120/80 mmHg", "2021-01-01",
        date(2021, 1, 1), date(1, 1, 1), ConceptCode(CodeSystem.ICD10, "E55.9"),
        ConceptCode(CodeSystem.ICD10, "e11"), ConceptCode(CodeSystem.ICD10, ""),
        ConceptCode(CodeSystem.UMLS_CUI, "E11"), ConceptCode(CodeSystem.FHIR_LABEL, "E11"),
        EdgeKind.NEXT, "next", "hasFollowup", b"x", object(),
    ]  # fmt: skip
)
hostile_records = st.sampled_from(
    [
        Symptom("Cough"), Symptom(""), Symptom(None), Symptom(Text("Cough")), Symptom("x", 5),
        VitalSign(), VitalSign(weight=-1), VitalSign(heart_rate=float("nan")),
        VitalSign(blood_pressure=120), VitalSign(body_temperature=True),
        Diagnosis("d"), Diagnosis("d", ConceptCode(CodeSystem.ICD10, "bad")), Diagnosis(""),
        ContactInformation(), ContactInformation(email=5), MedicalHistory(["x"]),
        MedicalHistory(had_surgery="x"), MedicalHistory(chronic_illness=[""]),
        SocialHistory("no", "no"), SocialHistory("", None), SocialHistory("no", "no", diet=1),
    ]  # fmt: skip
)
hostile = st.one_of(
    hostile_scalars,
    hostile_records,
    st.lists(st.one_of(hostile_scalars, hostile_records), max_size=3),
    st.sampled_from([(), "text", {}, set()]),
    st.text(max_size=3),
    st.floats(),
    st.integers(),
)


def damage(records: list, data) -> None:
    """Set a drawn field of a drawn record to a hostile value, or put one
    into an array it holds."""
    record = data.draw(st.sampled_from(records))
    spec = data.draw(st.sampled_from(FIELDS[record.__class__]))
    value = copy.deepcopy(data.draw(hostile))  # the drawn records are shared
    held = getattr(record, spec.attr)
    if spec.type in (OBJECTS, STRS) and held.__class__ is list and data.draw(st.booleans()):
        held.insert(data.draw(st.integers(0, len(held))), value)
    else:
        object.__setattr__(record, spec.attr, value)  # links are frozen


def walked(record) -> list:
    """The problems the walk alone finds in ``record``, check or no check."""
    return _walk_fields(record, "", [])


@given(seed=st.integers(0, 2**32 - 1), base=st.sampled_from(["seed", "journey"]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_field_problems_equals_the_reporting_pass(seed, base, data):
    if base == "seed":
        bundle = bundle_of(john_doe_graph(), "JohnDoe")
    else:
        graph = random_journey(random.Random(seed), max_patients=1, hostile_names=True)
        bundle = bundle_of(graph, sorted(graph.patients)[0])
    for _ in range(data.draw(st.integers(0, 3))):
        damage(records_in(bundle), data)
    for record in records_in(bundle)[1:]:  # the records the bundle holds
        expected = outcome(field_problems_by_report, record)
        assert outcome(field_problems, record) == expected, record
        assert outcome(walked, record) == expected, record


def test_every_record_type_but_the_bundle_has_a_field_check():
    assert list(checks.CHECKS) == [t for t in FIELDS if t is not Bundle]


@pytest.mark.parametrize("record_type", list(checks.CHECKS), ids=lambda t: t.__name__)
def test_a_clean_record_passes_both_passes(record_type):
    for record in records_in(SEED):
        if record.__class__ is record_type:
            assert checks.CHECKS[record_type](record) is True
            assert field_problems(record) == walked(record) == []
            assert field_problems_by_report(record) == []


# -- reader arrays ----------------------------------------------------------

SEED_DOCUMENT = json.loads(john_doe_bundle())
GOOD = {"symptomName": "Cough", "severity": "mild"}
BAD = {"symptomName": "", "severity": 5}
UNKNOWN = {"symptomName": "Fever", "onset": "2021-01-01"}
PLACES = {"first": 0, "middle": 2, "last": 4}


def _symptoms(bad: str, unknown: str) -> list:
    """Five symptoms, the one at ``bad`` failing, with an entry with an
    unknown key just before or after it, or none."""
    entries = [{**GOOD, "symptomName": f"Symptom {n}"} for n in range(5)]
    at = PLACES[bad]
    entries[at] = BAD
    near = {"before": at - 1, "after": at + 1}.get(unknown)
    if near is not None:
        entries[near] = UNKNOWN
    return entries


def reader_cases() -> dict[str, tuple[type, str, dict]]:
    """Per case, the holder's record type, its path and its document object."""
    encounter = SEED_DOCUMENT["encounters"][0]
    history = SEED_DOCUMENT["intakeForm"]["medicalHistory"]
    cases = {}
    for bad in PLACES:
        for unknown in ("none", "before", "after"):
            if (bad, unknown) in (("first", "before"), ("last", "after")):
                continue
            obj = {**encounter, "symptoms": _symptoms(bad, unknown)}
            cases[f"symptoms-{bad}-fails-unknown-{unknown}"] = (Encounter, "encounters[0]", obj)
        surgeries = [f"Surgery {n}" for n in range(5)]
        surgeries[PLACES[bad]] = ""
        obj = {**history, "hadSurgery": surgeries}
        cases[f"hadSurgery-{bad}-fails"] = (MedicalHistory, "intakeForm.medicalHistory", obj)
    cases["symptoms-unknown-key-only"] = (
        Encounter, "encounters[0]", {**encounter, "symptoms": [GOOD, UNKNOWN, GOOD]}
    )
    cases["symptoms-two-fail"] = (
        Encounter, "encounters[0]", {**encounter, "symptoms": [BAD, GOOD, "text", UNKNOWN]}
    )
    cases["hadSurgery-three-fail"] = (
        MedicalHistory,
        "intakeForm.medicalHistory",
        {**history, "hadSurgery": [5, "x", "\ud800", None]},
    )
    return cases


def rows(diagnostics) -> list[list[str]]:
    return [[d.severity.value, d.code, d.message, d.location] for d in diagnostics]


def read_outcome(record_type: type, path: str, obj: dict) -> dict:
    """The record the reader returns (``repr``) and its diagnostics, and the
    diagnostics of the seed bundle holding the object."""
    problems = ValidationReport()
    record = readers.READERS[record_type](obj, path, problems)
    document = json.loads(john_doe_bundle())
    if record_type is Encounter:
        document["encounters"][0] = obj
    else:
        document["intakeForm"]["medicalHistory"] = obj
    parsed = parse_bundle(json.dumps(document))
    return {
        "record": repr(record) if record.__class__ is record_type else "invalid",
        "diagnostics": rows(problems.diagnostics),
        "parse": rows(parsed.problems),
    }


RECORDED = json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", list(reader_cases()))
def test_an_array_reads_and_reports_as_recorded(case):
    assert read_outcome(*reader_cases()[case]) == RECORDED[case]


def test_every_recorded_case_is_read():
    assert set(RECORDED) == set(reader_cases())


def test_no_reader_numbers_its_entries():
    text = Path(readers.__file__).read_text(encoding="utf-8")
    assert text.count("\ndef read_") == len(readers.READERS) == len(FIELDS)
    assert "enumerate(" not in text
    assert not [t for t in FIELDS if "enumerate(" in reader_source(t, {})]
