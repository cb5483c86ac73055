"""A record reader refuses a document object only when a field breaks a rule.

Each record type's generated reader tests its scalar fields without
reporting anything.  An object that fails the test goes to
``_report_fields``, which reports why, and reads as invalid.  A value the
test refused but ``_report`` found nothing wrong with would make
``parse_bundle`` return neither a graph nor an error.  These properties put
hostile values into every scalar field of ``FIELDS`` and into string-array
entries, each inside an otherwise valid object of the seed bundle, and
check that:

- the reader takes the value exactly when ``_report`` reports nothing;
- ``parse_bundle`` on the seed bundle holding the value never raises, and
  returns a graph or at least one error.

A silent test leaves out the rules a later rule implies (``IMPLIED``), but
``_report`` keeps them all, so a date still reports the first rule it
breaks.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pjo import john_doe_bundle, parse_bundle
from pjo._codegen import IMPLIED
from pjo._generated.readers import READERS
from pjo.bundle import _INVALID, _SCALARS, _report
from pjo.graph import RULES, ValidationReport, field_problems
from pjo.records import FIELDS, OBJECT, OBJECTS, STRS, Bundle

SEED = json.loads(john_doe_bundle())


def first_objects() -> dict[type, tuple]:
    """The document path of the first object of each record type in the
    seed, the document itself included."""
    found: dict[type, tuple] = {}

    def walk(record_type: type, obj: dict, path: tuple) -> None:
        found.setdefault(record_type, path)
        for spec in FIELDS[record_type]:
            value = obj.get(spec.key)
            if spec.type == OBJECT and value is not None:
                walk(spec.record, value, (*path, spec.key))
            elif spec.type == OBJECTS:
                for index, entry in enumerate(value or []):
                    walk(spec.record, entry, (*path, spec.key, index))

    walk(Bundle, SEED, ())
    return found


PATHS = first_objects()
FIELD_CASES = [
    pytest.param(record_type, spec, id=f"{record_type.__name__}.{spec.key}")
    for record_type, fields in FIELDS.items()
    for spec in fields
    if spec.type in _SCALARS or spec.type == STRS
]


def first_object(document: dict, record_type: type) -> dict:
    """The first ``record_type`` object of ``document``, the seed or a copy."""
    obj = document
    for step in PATHS[record_type]:
        obj = obj[step]
    return obj


dates = st.tuples(
    st.integers(0, 10000), st.integers(0, 13), st.integers(0, 32)
).map(lambda t: f"{t[0]:04d}-{t[1]:02d}-{t[2]:02d}")
hostile = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-20, 600),
    st.floats(),
    st.floats(-20, 600),
    st.text(max_size=8),
    st.text(st.characters(categories=["Cs", "Ll", "Lo", "Nd", "Po"]), max_size=4),
    dates,
    st.from_regex(r"[A-Za-z][A-Z0-9]{2}(\.[A-Z0-9]{0,5})?", fullmatch=True),
    st.from_regex(r"[0-9]{1,3}/[0-9]{1,3}", fullmatch=True),
    st.sampled_from(
        [
            "", " ", "x", "café", "日本", "\ud800", "a\udfffb", "2021-02-30", "2021-13-01",
            "2021-1-01", "２０２１-01-01", "2021-01-01T00:00", "E55.9", "e55.9", "E5", "next",
            "causedBy", "hasFollowup", "NEXT", "120/80", "80/120", "0/0", "pjo-1", "pjo-2",
            float("nan"), float("inf"), float("-inf"), 36.6, 37, 0, -1, 10**30,
        ]  # fmt: skip
    ),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@pytest.mark.parametrize("record_type, spec", FIELD_CASES)
@given(value=hostile)
@example(value="pjo-1")
@example(value="pjo-2")
@settings(max_examples=40, deadline=None)
def test_the_reader_takes_a_value_exactly_when_report_finds_no_problem(record_type, spec, value):
    obj = {**first_object(SEED, record_type), spec.key: [value] if spec.type == STRS else value}
    problems = ValidationReport()
    result = READERS[record_type](obj, "doc", problems)
    reported = _report(spec, value, spec.key, ValidationReport())
    taken = result is not _INVALID and (
        spec.type != STRS or getattr(result, spec.attr) == [value]
    )
    assert taken is not reported, (value, problems.diagnostics)
    assert problems.ok is not reported, (value, problems.diagnostics)
    if taken and record_type is not Bundle:  # a bundle has no field check
        assert field_problems(result) == [], value


@pytest.mark.parametrize("record_type, spec", FIELD_CASES)
@given(value=hostile)
@settings(max_examples=15, deadline=None)
def test_parse_returns_a_graph_or_an_error(record_type, spec, value):
    document = copy.deepcopy(SEED)
    first_object(document, record_type)[spec.key] = [value] if spec.type == STRS else value
    result = parse_bundle(json.dumps(document))
    assert result.ok or result.errors, value
    if _report(spec, value, spec.key, ValidationReport()):
        assert not result.ok


def test_each_implied_rule_is_a_rule_of_its_type():
    for value_type, implied in IMPLIED.items():
        assert implied <= {test for test, *_ in RULES[value_type]}


@pytest.mark.parametrize(
    "value, code, message",
    [
        ("", "field-invalid", "{} must be nonempty"),
        ("2021-\ud800-01", "invalid-value", "{} holds a lone surrogate"),
        ("\ud800", "invalid-value", "{} holds a lone surrogate"),
        (20210101, "invalid-type", "{} must be a string"),
        (["2021-01-01"], "invalid-type", "{} must be a string"),
    ],
    ids=["empty", "surrogate-in-shape", "surrogate", "number", "array"],
)
@pytest.mark.parametrize(
    "path, key, location",
    [
        (("patient",), "birthDate", "patient.birthDate"),
        (("encounters", 0), "date", "encounters[0].date"),
    ],
    ids=["birth", "encounter"],
)
def test_a_date_reports_the_first_rule_it_breaks(path, key, location, value, code, message):
    document = copy.deepcopy(SEED)
    obj = document
    for step in path:
        obj = obj[step]
    obj[key] = value
    result = parse_bundle(json.dumps(document))
    assert not result.ok
    assert [(d.code, d.location, d.message) for d in result.problems] == [
        (code, location, message.format(repr(key)))
    ]
