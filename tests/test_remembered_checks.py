"""The blood-pressure check and the ICD-10 shape test remember their verdicts.

Both are pure functions of one ``str``.  ``records.remembered`` answers a
value it has seen from a table, so a whole-graph audit checks each distinct
value once.  The remembered checks answer as the regular-expression versions
they replace did, on first and repeat calls; the tables take no value of a
``str`` subclass or longer than ``REMEMBERED_LENGTH``, and stop growing at
``VERDICTS_KEPT``.  A side of more than 4300 digits, which ``int`` refuses
to read, is reported like any other implausible reading.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeygen import random_journey
from pjo import (
    FieldInvalidError,
    VitalSign,
    cli,
    codes,
    john_doe_bundle,
    parse_bundle,
    records,
    validate_icd10,
)
from pjo.records import REMEMBERED_LENGTH, check_blood_pressure
from pjo.seed import ENCOUNTER_ALLERGY, JOHN_DOE_ID
from test_codes import reference_icd10
from test_read_guard import HUGE_READINGS

TABLES = (check_blood_pressure.verdicts, codes._icd10_shaped.verdicts)
# The underlying tests, as a profiler sees them called.
UNDERLYING = (check_blood_pressure.__wrapped__.__code__, codes._has_icd10_shape.__code__)
TOO_LONG = "systolic and diastolic must have at most 4300 digits, got {} and {}"


def reference_blood_pressure(value: str) -> str | None:
    """The check as a regular expression and two integers, as it was."""
    match = re.fullmatch(r"([0-9]+)/([0-9]+)", value)
    if match is None:
        return f"value {value!r} is not <systolic>/<diastolic>"
    sides = match.group(1), match.group(2)
    if max(map(len, sides)) > 4300:
        return TOO_LONG.format(*map(len, sides))
    systolic, diastolic = map(int, sides)
    if not systolic > diastolic > 0:
        return f"requires systolic > diastolic > 0, got {systolic}/{diastolic}"
    return None


@contextlib.contextmanager
def emptied_tables():
    """Both tables emptied, then given back their verdicts."""
    kept = [dict(table) for table in TABLES]
    for table in TABLES:
        table.clear()
    try:
        yield
    finally:
        for table, verdicts in zip(TABLES, kept):
            table.clear()
            table.update(verdicts)


class Hostile(str):
    """A string whose hash and equality raise: a table must not touch it."""

    def __hash__(self):
        raise AssertionError("hashed")

    def __eq__(self, other):
        raise AssertionError("compared")


class Liar(str):
    """A string equal to anything, hashing as the seed's reading."""

    def __hash__(self):
        return hash("122/78")

    def __eq__(self, other):
        return True


# -- the same answers ------------------------------------------------------

PROBES = [
    "120/80", "080/060", "060/080", "0/0", "00/00", "1/0", "10/9", "9/10", "1/1",
    "100/099", "120/80\n", "\n120/80", "１２０/８０", "١٢٠/٨٠", "/80", "120/", "/", "",
    "120/80/60", "+120/80", " 120/80", "12_0/80", "²/1", "9" * 4300 + "/1",
    "1/" + "0" * 4300, *HUGE_READINGS,
]  # fmt: skip


@pytest.mark.parametrize("value", PROBES, ids=lambda value: repr(value)[:24])
def test_the_blood_pressure_check_answers_as_before(value):
    expected = reference_blood_pressure(value)
    assert check_blood_pressure(value) == expected
    assert check_blood_pressure(value) == expected


def test_leading_zeros_read_as_the_number():
    assert check_blood_pressure("060/080") == "requires systolic > diastolic > 0, got 60/80"
    assert check_blood_pressure("080/060") is None
    assert check_blood_pressure("0120/000") == "requires systolic > diastolic > 0, got 120/0"


readings = st.one_of(
    st.text(),
    st.text(alphabet=st.sampled_from("0123456789/\n ١２²+"), max_size=20),
    st.builds("{}/{}".format, st.integers(0, 10**6), st.integers(0, 10**6)),
)


@given(value=readings)
@settings(max_examples=500)
def test_the_remembered_checks_equal_the_references(value):
    for _ in range(2):  # a first call, then one the table may answer
        assert check_blood_pressure(value) == reference_blood_pressure(value)
        assert validate_icd10(value) is reference_icd10(value)


@given(value=readings | st.sampled_from(["I10", "E55.9"]), listed=st.lists(readings, max_size=3),
       listing=st.booleans())  # fmt: skip
@settings(max_examples=300)
def test_a_code_list_is_answered_as_before_without_the_table(value, listed, listing):
    listed += [value] * listing
    before = dict(codes._icd10_shaped.verdicts)
    for code_list in (set(listed), listed):
        expected = reference_icd10(value) and value in code_list
        assert validate_icd10(value, code_list) is expected
    assert codes._icd10_shaped.verdicts == before


# -- what the tables take ----------------------------------------------------


@pytest.mark.parametrize("value", ["122/78", "80/120", "I10", "i10"])
def test_a_str_subclass_neither_reads_nor_writes_a_table(value):
    check_blood_pressure(value), validate_icd10(value)  # the tables hold the plain value
    before = [dict(table) for table in TABLES]
    for subclass in (Hostile, Liar):
        assert check_blood_pressure(subclass(value)) == reference_blood_pressure(value)
        assert validate_icd10(subclass(value)) is reference_icd10(value)
    assert check_blood_pressure(Liar("80/120")) == reference_blood_pressure("80/120")
    assert validate_icd10(Liar("i10")) is False
    assert [dict(table) for table in TABLES] == before


@given(values=st.lists(readings, max_size=40))
@settings(max_examples=100)
def test_no_table_outgrows_its_cap_or_keeps_a_long_value(values):
    with pytest.MonkeyPatch.context() as patch, emptied_tables():
        patch.setattr(records, "VERDICTS_KEPT", 5)
        for value in values + values:
            assert check_blood_pressure(value) == reference_blood_pressure(value)
            assert validate_icd10(value) is reference_icd10(value)
            for table in TABLES:
                assert len(table) <= 5
                assert all(type(key) is str and len(key) <= REMEMBERED_LENGTH for key in table)


def test_the_checks_keep_their_names():
    """The generated modules and the field table name the checks."""
    assert check_blood_pressure.__name__ == "check_blood_pressure"
    spec = next(s for s in records.FIELDS[VitalSign] if s.key == "bloodPressure")
    assert spec.check is check_blood_pressure


# -- an audit checks each distinct value once ---------------------------------


def underlying_calls(run) -> list[int]:
    """How many times ``run()`` called each underlying test."""
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in UNDERLYING:
            counts[UNDERLYING.index(frame.f_code)] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


def test_a_second_audit_runs_neither_test():
    graph = random_journey(random.Random(25), min_patients=3, min_encounters=4,
                           max_encounters=8, require_diagnosis=True)  # fmt: skip
    encounters = graph.encounters.values()
    readings = {v.blood_pressure for e in encounters for v in e.vitals} - {None}
    icd10 = {d.icd10.code for e in encounters for d in e.diagnoses if d.icd10 is not None}
    assert len(readings) > 1 and len(icd10) > 1
    with emptied_tables():  # building the graph checked each record
        first = underlying_calls(graph.check_invariants)
        second = underlying_calls(graph.check_invariants)
    assert first == [len(readings), len(icd10)] and second == [0, 0]
    assert graph.check_invariants().ok


# -- a reading of more than 4300 digits a side ---------------------------------


def seed_document_with(reading: str) -> str:
    document = json.loads(john_doe_bundle())
    document["encounters"][0]["vitals"][0]["bloodPressure"] = reading
    return json.dumps(document)


@pytest.mark.parametrize("reading", HUGE_READINGS, ids=["systolic", "diastolic"])
def test_a_huge_reading_is_refused_by_the_parser(reading):
    result = parse_bundle(seed_document_with(reading))
    sides = map(len, reading.split("/"))
    assert [(d.code, d.location, d.message) for d in result.diagnostics] == [
        ("field-invalid", "encounters[0].vitals[0].bloodPressure", TOO_LONG.format(*sides))
    ]


@pytest.mark.parametrize("reading", HUGE_READINGS, ids=["systolic", "diastolic"])
def test_a_huge_reading_is_reported_by_the_checker_and_refused_by_the_api(john_graph, reading):
    encounter = john_graph.encounters[ENCOUNTER_ALLERGY]
    encounter.vitals.append(VitalSign(blood_pressure=reading))
    report = john_graph.check_invariants()
    location = f"encounters[{ENCOUNTER_ALLERGY}].vitals[{len(encounter.vitals) - 1}].bloodPressure"
    assert [(d.code, d.location) for d in report.errors] == [("field-invalid", location)]

    del john_graph.encounters[ENCOUNTER_ALLERGY], john_graph.encounter_owner[ENCOUNTER_ALLERGY]
    with pytest.raises(FieldInvalidError, match=r"^vitals\[\d+\]\.bloodPressure: systolic and "):
        john_graph.add_encounter(JOHN_DOE_ID, encounter)


@pytest.mark.parametrize("reading", HUGE_READINGS, ids=["systolic", "diastolic"])
def test_pjo_validate_reports_a_huge_reading(tmp_path, reading):
    path = tmp_path / "huge.json"
    path.write_text(seed_document_with(reading), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    assert code == 1
    assert "encounters[0].vitals[0].bloodPressure: systolic and diastolic" in out.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
