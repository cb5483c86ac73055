"""The field table and the graph's hand-written field checks agree.

``records.FIELDS`` drives the bundle reader; ``graph.*_problems`` check
records built through the API.  Blanking a required string must be caught
by both, once, at matching locations; blanking an optional string by
neither.
"""

import json
import re

import pytest

from pjo import (
    IntakeForm,
    Encounter,
    Patient,
    Provider,
    john_doe_bundle,
    john_doe_graph,
    parse_bundle,
)
from pjo.graph import (
    FIELD_INVALID,
    encounter_problems,
    intake_form_problems,
    patient_problems,
    provider_problems,
)
from pjo.records import FIELDS, OBJECT, OBJECTS, STR

PATIENT_ID = "JohnDoe"
GRAPH_CHECKS = {
    Patient: patient_problems,
    Provider: provider_problems,
    IntakeForm: intake_form_problems,
    Encounter: encounter_problems,
}


def top_records(graph):
    """(record, document path) for one record of each top-level type."""
    provider_id = sorted(graph.providers)[0]
    return [
        (graph.patients[PATIENT_ID], "patient"),
        (graph.providers[provider_id], "providers[0]"),
        (graph.intake_form_of(PATIENT_ID), "intakeForm"),
        (graph.encounters_of(PATIENT_ID)[0], "encounters[0]"),
    ]


def reachable_types(record_type):
    found = {record_type}
    for spec in FIELDS[record_type]:
        if spec.type in (OBJECT, OBJECTS):
            found |= reachable_types(spec.record)
    return found


def string_fields(record, relative=""):
    """(owner record, field, location relative to ``record``) for every
    plain string field below it, following the first entry of each array."""
    for spec in FIELDS[type(record)]:
        location = f"{relative}.{spec.key}" if relative else spec.key
        value = getattr(record, spec.attr)
        if spec.type == STR and spec.check is None:
            yield record, spec, location
        elif spec.type == OBJECT:
            yield from string_fields(value, location)
        elif spec.type == OBJECTS and value:
            yield from string_fields(value[0], f"{location}[0]")


CASES = [
    pytest.param(index, type(owner), spec, location, id=f"{path}.{location}")
    for index, (top, path) in enumerate(top_records(john_doe_graph()))
    for owner, spec, location in string_fields(top)
]


def test_every_reachable_record_type_with_a_string_is_covered():
    covered = {case.values[1] for case in CASES}
    with_strings = {
        record_type
        for top in GRAPH_CHECKS
        for record_type in reachable_types(top)
        if any(spec.type == STR and spec.check is None for spec in FIELDS[record_type])
    }
    assert covered == with_strings


@pytest.mark.parametrize("top_index, owner_type, spec, location", CASES)
def test_blanking_a_string_field(top_index, owner_type, spec, location):
    """The graph check on the record, and the parser on the seed document."""
    graph = john_doe_graph()
    top, path = top_records(graph)[top_index]
    owner = next(owner for owner, _, where in string_fields(top) if where == location)
    setattr(owner, spec.attr, "")
    graph_problems = GRAPH_CHECKS[type(top)](top)
    document = json.loads(john_doe_bundle())
    *parents, last = [
        int(step) if step.isdigit() else step
        for step in re.findall(r"[^.\[\]]+", f"{path}.{location}")
    ]
    target = document
    for step in parents:
        target = target[step]
    target[last] = ""
    result = parse_bundle(json.dumps(document))
    if spec.required:
        assert [(where, code) for where, code, _ in graph_problems] == [(location, FIELD_INVALID)]
        assert [(d.code, d.location) for d in result.errors] == [
            (FIELD_INVALID, f"{path}.{location}")
        ]
    else:
        assert graph_problems == []
        assert result.ok and result.problems == []
