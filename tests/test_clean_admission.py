"""The raising API tests each rule once, and words a refusal only when it refuses.

``add_patient``, ``add_provider``, ``add_intake_form`` (through ``_admit``),
``add_encounter`` and ``link`` try the record's class, its generated field
check and its ID, then its join rules through the one function per join
subject that the checker calls too (``encounter_reference_problems``,
``link_problems``).  So a clean ingest walks no record and runs each
generated check once per record, every refusal keeps its class and
message, and every write, on damaged graphs too, raises or stores exactly
what the rules written out one by one (``scan_oracles``) raise or admit.
"""

from __future__ import annotations

import copy
import random
from collections import Counter
from datetime import date, datetime

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from journeygen import random_journey
from pjo import (
    EdgeKind,
    Encounter,
    IntakeForm,
    JourneyEdge,
    JourneyGraph,
    MedicalHistory,
    Patient,
    Provider,
    SocialHistory,
)
from pjo import graph as graph_module
from pjo._generated.field_problems import CHECKS
from pjo._generated.reporters import MEMORY_REPORTERS
from pjo.errors import (
    CrossPatientLinkError,
    CycleIntroducedError,
    DuplicateEdgeError,
    DuplicateIDError,
    FieldInvalidError,
    PjoError,
    TemporalViolationError,
    UnknownEncounterError,
    UnknownPatientError,
    UnknownProviderError,
)
from pjo.records import FIELDS
from pjo.seed import (
    ENCOUNTER_ALLERGY,
    ENCOUNTER_GENERAL_MEDICINE,
    ENCOUNTER_PULMONOLOGY,
    JOHN_DOE_ID,
)
from scan_oracles import (
    add_encounter_by_rules,
    add_intake_form_by_rules,
    admit_by_rules,
    link_by_rules,
)
from test_read_guard import damaged_graphs
from test_silent_pass import hostile, hostile_records

# The helpers that word a refusal of the raising API, by where they live.
HELPERS = ("field_problems", "refuse_misfiled", "encounter_reference_problems", "link_problems",
           "_walk_fields")  # fmt: skip
METHODS = ("_owner", "_admit", "add_intake_form", "link")


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Calls of each wording helper, of each generated field check, counted
    by record class, and of the generated reporters, counted together."""
    counts: Counter = Counter()

    def counted(name, run):
        def call(*args, **kwargs):
            counts[name] += 1
            return run(*args, **kwargs)

        return call

    for name in HELPERS:
        monkeypatch.setattr(graph_module, name, counted(name, getattr(graph_module, name)))
    for name in METHODS:
        run = getattr(JourneyGraph, name)
        monkeypatch.setattr(JourneyGraph, name, counted(name, run))
    checks = {cls: counted(cls, check) for cls, check in CHECKS.items()}
    monkeypatch.setattr(graph_module, "_PASSES", checks)
    for key, report in MEMORY_REPORTERS.items():
        monkeypatch.setitem(MEMORY_REPORTERS, key, counted("reporters", report))
    return counts


@pytest.mark.parametrize("seed", range(8))
def test_a_clean_ingest_walks_no_record_and_checks_each_once(calls, seed):
    graph = random_journey(random.Random(seed), max_patients=4, hostile_names=True)
    stored = {
        Provider: len(graph.providers),
        Patient: len(graph.patients),
        IntakeForm: len(graph.intake_forms),
        Encounter: len(graph.encounters),
        JourneyEdge: len(graph.edges),
    }
    assert [calls[name] for name in ("_walk_fields", "reporters")] == [0, 0]
    assert {cls: calls[cls] for cls in CHECKS if calls[cls]} == {
        cls: n for cls, n in stored.items() if n
    }
    assert graph.check_invariants().ok


def _visit(key: str = "Encounter-New", day: date = date(2022, 9, 1), **fields) -> Encounter:
    values = {"specialty": "Allergy", "provider_ref": "Provider-Allergy", **fields}
    return Encounter(key, day, values["specialty"], values["provider_ref"])


def _form(key: str) -> IntakeForm:
    return IntakeForm(key, MedicalHistory(), SocialHistory("Never", "Never"))


def _misfiled_owner(graph: JourneyGraph) -> None:
    graph.patients["Stray"] = graph.providers["Provider-Allergy"]
    graph.add_encounter("Stray", _visit())


def _misfiled_owner_keyed_none(graph: JourneyGraph) -> None:
    graph.patients[None] = None
    graph.add_encounter(None, _visit())


def _across(graph: JourneyGraph) -> None:
    graph.add_patient(Patient("Jane", "Jane Roe", date(1990, 1, 1)))
    graph.add_encounter("Jane", _visit())
    graph.link(EdgeKind.NEXT, ENCOUNTER_ALLERGY, "Encounter-New")


def _same_day_cycle(graph: JourneyGraph) -> None:
    graph.add_encounter(JOHN_DOE_ID, _visit("Encounter-A"))
    graph.add_encounter(JOHN_DOE_ID, _visit("Encounter-B"))
    graph.link(EdgeKind.NEXT, "Encounter-A", "Encounter-B")
    graph.link(EdgeKind.NEXT, "Encounter-B", "Encounter-A")


_ALLERGY, _PULMONOLOGY = repr(ENCOUNTER_ALLERGY), repr(ENCOUNTER_PULMONOLOGY)
_GP = repr(ENCOUNTER_GENERAL_MEDICINE)

# One refusal per rule of the raising API, with the helper (or the write
# itself) that words it, the class it raises and its message.
REFUSALS = {
    "unknown patient": (lambda g: g.add_encounter("Ghost", _visit()),
                        "_owner", UnknownPatientError, "unknown patient 'Ghost'"),
    "misfiled owner": (_misfiled_owner, "refuse_misfiled", FieldInvalidError,
                       "patients[Stray]: patients entries must be a Patient"),
    "misfiled owner keyed None": (_misfiled_owner_keyed_none, "refuse_misfiled",
                                  FieldInvalidError,
                                  "patients[None]: patients entries must be a Patient"),
    "misfiled encounter": (lambda g: g.add_encounter(JOHN_DOE_ID, g.patients[JOHN_DOE_ID]),
                           "refuse_misfiled", FieldInvalidError,
                           "encounters entries must be a Encounter"),
    "misfiled provider": (lambda g: g.add_provider(g.patients[JOHN_DOE_ID]),
                          "refuse_misfiled", FieldInvalidError,
                          "providers entries must be a Provider"),
    "encounter field": (lambda g: g.add_encounter(JOHN_DOE_ID, _visit(specialty="")),
                        "field_problems", FieldInvalidError,
                        "specialty: specialty must be nonempty"),
    "patient field": (lambda g: g.add_patient(Patient("Jane", "", date(1990, 1, 1))),
                      "field_problems", FieldInvalidError,
                      "patientName: patientName must be nonempty"),
    "patient birth date": (lambda g: g.add_patient(Patient("Jane", "Jane Roe", "1990-01-01")),
                           "field_problems", FieldInvalidError,
                           "birthDate: birthDate must be a date"),
    "duplicate encounter": (lambda g: g.add_encounter(JOHN_DOE_ID, _visit(ENCOUNTER_ALLERGY)),
                            "_admit", DuplicateIDError,
                            f"encounter ID {_ALLERGY} already exists"),
    "duplicate patient": (lambda g: g.add_patient(copy.copy(g.patients[JOHN_DOE_ID])),
                          "_admit", DuplicateIDError, "patient ID 'JohnDoe' already exists"),
    "duplicate form": (lambda g: g.add_intake_form(JOHN_DOE_ID, g.intake_form_of(JOHN_DOE_ID)),
                       "_admit", DuplicateIDError,
                       "intake form ID 'IntakeForm-JohnDoe' already exists"),
    "second form": (lambda g: g.add_intake_form(JOHN_DOE_ID, _form("IntakeForm-2")),
                    "add_intake_form", DuplicateIDError,
                    "patient 'JohnDoe' already has an intake form"),
    "unknown provider": (lambda g: g.add_encounter(JOHN_DOE_ID, _visit(provider_ref="Gone")),
                         "encounter_reference_problems", UnknownProviderError,
                         "providerRef 'Gone' does not resolve"),
    "before birth": (lambda g: g.add_encounter(JOHN_DOE_ID, _visit(day=date(1970, 1, 1))),
                     "encounter_reference_problems", FieldInvalidError,
                     "encounter date 1970-01-01 precedes birth date 1981-07-14"),
    "link kind": (lambda g: g.link("next", ENCOUNTER_PULMONOLOGY, ENCOUNTER_ALLERGY),
                  "field_problems", FieldInvalidError, "kind must be an EdgeKind"),
    "missing end": (lambda g: g.link(EdgeKind.NEXT, ENCOUNTER_ALLERGY, "Ghost"),
                    "link_problems", UnknownEncounterError,
                    "link references missing encounter 'Ghost'"),
    "self-link": (lambda g: g.link(EdgeKind.NEXT, ENCOUNTER_ALLERGY, ENCOUNTER_ALLERGY),
                  "link_problems", FieldInvalidError, f"link connects {_ALLERGY} to itself"),
    "across patients": (_across, "link_problems", CrossPatientLinkError,
                        f"next link {_ALLERGY} -> 'Encounter-New' crosses patients"),
    "against the dates": (lambda g: g.link(EdgeKind.NEXT, ENCOUNTER_ALLERGY, ENCOUNTER_PULMONOLOGY),
                          "link_problems", TemporalViolationError,
                          f"next link {_ALLERGY} -> {_PULMONOLOGY} contradicts encounter "
                          "dates 2021-07-25 and 2021-03-15"),
    "causedBy against the dates": (
        lambda g: g.link(EdgeKind.CAUSED_BY, ENCOUNTER_GENERAL_MEDICINE, ENCOUNTER_PULMONOLOGY),
        "link_problems", TemporalViolationError,
        f"causedBy link {_GP} -> {_PULMONOLOGY} contradicts encounter dates "
        "2021-01-05 and 2021-03-15"),
    "duplicate link": (lambda g: g.link(EdgeKind.NEXT, ENCOUNTER_PULMONOLOGY, ENCOUNTER_ALLERGY),
                       "link", DuplicateEdgeError,
                       f"duplicate next link {_PULMONOLOGY} -> {_ALLERGY}"),
    "same-day cycle": (_same_day_cycle, "link", CycleIntroducedError,
                       "next link 'Encounter-B' -> 'Encounter-A' introduces a cycle"),
}  # fmt: skip


@pytest.mark.parametrize("rule", REFUSALS)
def test_each_refusal_reaches_its_wording_helper(john_graph, calls, rule):
    refuse, helper, error, message = REFUSALS[rule]
    with pytest.raises(PjoError) as raised:
        refuse(john_graph)
    assert (type(raised.value), str(raised.value)) == (error, message)
    assert calls[helper] >= 1, calls


# -- each write against the rules written out one by one, on damaged graphs ---


def _outcome(call):
    try:
        return ("returned", call())
    except Exception as error:  # noqa: BLE001 - both sides must fail alike
        return (type(error), str(error))


def _name(outcome) -> str:
    return outcome[0] if outcome[0] == "returned" else outcome[0].__name__


def _tables(graph: JourneyGraph) -> list:
    """What a refused write must leave as it was, by identity."""
    return [
        [(key, id(value)) for key, value in getattr(graph, attr).items()]
        for attr in ("patients", "providers", "intake_forms", "encounters",
                     "encounter_owner", "intake_form_owner")
    ] + [[id(edge) for edge in graph.edges]]  # fmt: skip


def open_door(graph: JourneyGraph, data) -> None:
    """One write through the API's own doors that a clean test could
    misjudge: a patient of another class, a birth date that is a
    ``datetime`` or a ``str``, a provider deleted from ``providers``, or an
    encounter of another class, which a link end may then name."""
    door = data.draw(st.sampled_from(["none", "patient", "birth", "provider", "encounter"]))
    records = [r for attr in graph_module._TABLES for r in getattr(graph, attr).values()]
    if door == "patient" and records:
        key = data.draw(st.sampled_from([*graph.patients, "Stray"]))
        graph.patients[key] = copy.deepcopy(data.draw(st.sampled_from(records)))
    elif door == "birth" and graph.patients:
        patient = graph.patients[data.draw(st.sampled_from(list(graph.patients)))]
        births = [datetime(1981, 7, 14), "1981-07-14", date(2100, 1, 1)]
        if patient.__class__ is Patient:
            patient.birth_date = data.draw(st.sampled_from(births))
    elif door == "provider" and graph.providers:
        del graph.providers[data.draw(st.sampled_from(list(graph.providers)))]
    elif door == "encounter" and graph.encounters and records:
        key = data.draw(st.sampled_from(list(graph.encounters)))
        graph.encounters[key] = copy.deepcopy(data.draw(st.sampled_from(records)))


def _mostly(data, values: list, rare):
    """A value drawn from ``values`` seven times in eight, else from ``rare``."""
    if values and data.draw(st.integers(0, 7)):
        return data.draw(st.sampled_from(values))
    return data.draw(rare)


def _candidate(graph: JourneyGraph, record_type: type, data):
    """A record to add: a copy of a stored one under its own ID or a new
    one, written to through one of its fields, or another record."""
    records = [r for attr in graph_module._TABLES for r in getattr(graph, attr).values()]
    stored = [r for r in records if r.__class__ is record_type]
    if not stored or data.draw(st.integers(0, 5)) == 0:
        return copy.deepcopy(data.draw(hostile_records | st.sampled_from(records or [None])))
    record = copy.deepcopy(data.draw(st.sampled_from(stored)))
    id_attr = FIELDS[record_type][0].attr
    setattr(record, id_attr, _mostly(data, ["New-1", "New-2"], st.just(getattr(record, id_attr))))
    write = _mostly(data, ["none"], st.sampled_from(["hostile", "date", "provider"]))
    if write == "hostile":
        spec = data.draw(st.sampled_from(FIELDS[record_type]))
        setattr(record, spec.attr, copy.deepcopy(data.draw(hostile)))
    elif write == "date" and record_type is Encounter:
        record.date = data.draw(st.sampled_from([date(1900, 1, 1), date(2030, 1, 1)]))
    elif write == "provider" and record_type is Encounter:
        record.provider_ref = data.draw(st.sampled_from([*graph.providers, "Gone", ""]))
    return record


# Each ``add_*`` write: its table, its record class, and the oracle of its
# rules one by one for a write with an owner (None: ``admit_by_rules``).
ADDS = {
    "add_patient": ("patients", Patient, None),
    "add_provider": ("providers", Provider, None),
    "add_intake_form": ("intake_forms", IntakeForm, add_intake_form_by_rules),
    "add_encounter": ("encounters", Encounter, add_encounter_by_rules),
}


@given(graph=damaged_graphs(), data=st.data())
@settings(max_examples=600, deadline=None)
def test_every_write_raises_or_stores_what_the_rules_one_by_one_do(graph, data):
    open_door(graph, data)
    write = data.draw(st.sampled_from([*ADDS, "link"]))
    before = _tables(graph)
    if write == "link":
        ends = [_mostly(data, list(graph.encounters), st.just("Ghost") | hostile) for _ in "ft"]
        via = data.draw(st.sampled_from([None, "x"]))
        args = _mostly(data, list(EdgeKind), hostile), *ends, via
        expected = _outcome(lambda: link_by_rules(graph, *args))
        actual = _outcome(lambda: graph.link(*args))
        event(f"link: {_name(expected)}")
        assert actual == expected
        if actual[0] == "returned":
            assert graph.edges[-1] is actual[1] and _tables(graph)[-1][:-1] == before[-1]
        else:
            assert _tables(graph) == before
        return
    attr, record_type, by_rules = ADDS[write]
    record = _candidate(graph, record_type, data)
    if by_rules is None:
        args = (record,)
        expected = _outcome(lambda: admit_by_rules(graph, record, attr))
    else:
        args = (_mostly(data, list(graph.patients), st.just("Ghost")), record)
        expected = _outcome(lambda: by_rules(graph, *args))
    actual = _outcome(lambda: getattr(graph, write)(*args))
    event(f"{write}: {_name(expected)}")
    if expected[0] == "returned":
        assert actual == ("returned", None)
        assert getattr(graph, attr)[expected[1]] is record
        if write == "add_encounter":
            assert graph.encounter_owner[expected[1]] == args[0]
    else:
        assert actual == expected
        assert _tables(graph) == before
