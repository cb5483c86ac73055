"""Scan-based reference implementations for differential tests.

Each function restates one graph operation in its plainest form, one scan
of the graph per patient or per encounter, so the grouped and indexed
implementations in ``pjo`` can be checked against it byte for byte.  None
of them reads the graph's owner index.  ``link_by_kahn`` re-runs Kahn's
algorithm over the whole graph after a tentative append, which is the
definition of a link that "introduces a cycle".  ``serialize_bundle_by_dumps``
builds the bundle document as dicts and hands it to ``json.dumps``, which
is what the direct writer's bytes must equal.  ``to_dot_by_scan`` draws
each kind of subrecord by hand, where ``to_dot`` reads them from the field
table, and writes each line through its own ``_Writer``, quoting every
identifier and label as it goes; it shares only ``STYLE_TABLE`` with
``to_dot``.  ``check_by_scan`` is the invariant checker as plain passes that
allocate per record and run Kahn's algorithm over the whole graph.
``field_problems_by_report`` is the reporting pass that field checks once
generated after their silent pass, compiled alone: ``rule_lines`` and the
template ``holder_rules`` below, which look at every rule, as they stood in
``pjo._codegen``.  ``graph.field_problems`` now explains a failed check by a
plain walk of the record instead.  ``followup_chain_by_hand`` and
``cause_trace_by_hand`` are the chain queries with a walk written out per
direction, each with its own step, branch and cycle tests.
``add_encounter_by_rules``, ``add_intake_form_by_rules`` and
``link_by_rules`` are the raising API's writes with every rule written out
here and tried in turn: ``admit_by_rules`` admits a record to its table, and
``encounter_joins_by_rules`` and ``link_joins_by_rules``, which
``check_by_scan`` reports too, are the join rules of an encounter and of a
link.  They share only ``field_problems`` with ``pjo``.
"""

from __future__ import annotations

import json
from datetime import date

from pjo import EdgeKind, JourneyEdge, JourneyGraph
from pjo._codegen import field_rules
from pjo._generated import field_problems as checks
from pjo._generated import reporters
from pjo.bundle import FORMAT_VERSION
from pjo.dot import STYLE_TABLE
from pjo.errors import (
    AmbiguousChainError,
    AmbiguousTraceError,
    CrossPatientLinkError,
    CycleIntroducedError,
    DuplicateEdgeError,
    DuplicateIDError,
    FieldInvalidError,
    TemporalViolationError,
    UnknownEncounterError,
    UnknownPatientError,
    UnknownProviderError,
)
from pjo.graph import (
    ANNOTATION_WARNINGS,
    CROSS_PATIENT_LINK,
    CYCLE,
    DANGLING_REFERENCE,
    DUPLICATE_EDGE,
    FIELD_INVALID,
    INVALID_TYPE,
    JOURNEY_GAP,
    SELF_LINK,
    TEMPORAL_VIOLATION,
    UNKNOWN_PATIENT,
    UNKNOWN_PROVIDER,
    UNOWNED_ENCOUNTER,
    UNOWNED_INTAKE_FORM,
    UNRESOLVED_VIA,
    Diagnostic,
    Severity,
    ValidationReport,
    cyclic_nodes,
    field_problems,
    guarded,
    key_problems,
    missing_encounter,
    oriented_edges,
)
from pjo.queries import LinkRef, TimelineEntry, _stored
from pjo.records import (
    DATE,
    FIELDS,
    ICD10,
    KIND,
    OBJECT,
    OBJECTS,
    STRS,
    Encounter,
    IntakeForm,
    Patient,
    Provider,
    holds_required,
    shown,
)

LABELS = {
    EdgeKind.HAS_FOLLOWUP: "hasFollowup",
    EdgeKind.CAUSED_BY: "causedBy",
    EdgeKind.NEXT: "NEXT",
}


def _known(graph: JourneyGraph, patient_id: str) -> None:
    if patient_id not in graph.patients:
        raise UnknownPatientError(f"unknown patient {patient_id!r}")


def _owned_encounters(graph: JourneyGraph, owner: str) -> list[Encounter]:
    """Raises ``FieldInvalidError`` for the first owned record, in
    ``encounter_owner`` order, whose date is not a ``date``."""
    owned = [
        (graph.encounters[key].date, key, graph.encounters[key])
        for key, owned_by in graph.encounter_owner.items()
        if owned_by == owner and key in graph.encounters
    ]
    for day, key, encounter in owned:
        if day.__class__ is not date:
            message = next(p[2] for p in field_problems(encounter) if p[0] == "date")
            raise FieldInvalidError(f"encounters[{key}].date: {message}")
    return [encounter for _, _, encounter in sorted(owned, key=lambda item: item[:2])]


def _owned_edges(graph: JourneyGraph, owner: str) -> list[JourneyEdge]:
    return [
        edge
        for edge in graph.edges
        if graph.encounter_owner.get(edge.from_encounter) == owner
        and graph.encounter_owner.get(edge.to_encounter) == owner
    ]


def encounters_of_by_scan(graph: JourneyGraph, patient_id: str) -> list[Encounter]:
    """The records stored under keys the patient owns, by (date, key)."""
    _known(graph, patient_id)
    return _owned_encounters(graph, patient_id)


def edges_of_by_scan(graph: JourneyGraph, patient_id: str) -> list[JourneyEdge]:
    _known(graph, patient_id)
    return _owned_edges(graph, patient_id)


def intake_form_of_by_scan(graph: JourneyGraph, patient_id: str) -> IntakeForm | None:
    _known(graph, patient_id)
    for form_id, owner in graph.intake_form_owner.items():
        if owner == patient_id and form_id in graph.intake_forms:
            return graph.intake_forms[form_id]
    return None


def encounters_by_owner_by_scan(graph: JourneyGraph) -> dict[str, list[Encounter]]:
    """Owners in ``encounter_owner`` order, so that the first group that
    raises is the one ``encounters_by_owner`` raises for."""
    owners = dict.fromkeys(
        owner for owner in graph.encounter_owner.values() if owner.__class__ is str
    )
    return {owner: _owned_encounters(graph, owner) for owner in owners}


def add_intake_form_by_scan(graph: JourneyGraph, patient_id: str, form: IntakeForm) -> None:
    """The refusals of ``JourneyGraph.add_intake_form``, found by scans;
    stores nothing."""
    _known(graph, patient_id)
    problems = field_problems(form)
    if problems:
        raise FieldInvalidError(f"{problems[0][0]}: {problems[0][2]}")
    if form.intake_form_id in graph.intake_forms:
        raise DuplicateIDError(f"intake form ID {form.intake_form_id!r} already exists")
    if patient_id in graph.intake_form_owner.values():
        raise DuplicateIDError(f"patient {patient_id!r} already has an intake form")


# -- the raising API's rules one by one ------------------------------------------
#
# Each table's location name, record class and noun, and the class the API
# raises for each join rule's code.
_ADMITTED = {
    "patients": ("patients", Patient, "patient"),
    "providers": ("providers", Provider, "provider"),
    "intake_forms": ("intakeForms", IntakeForm, "intake form"),
    "encounters": ("encounters", Encounter, "encounter"),
}
_JOIN_ERRORS = {
    DANGLING_REFERENCE: UnknownEncounterError,
    SELF_LINK: FieldInvalidError,
    CROSS_PATIENT_LINK: CrossPatientLinkError,
    TEMPORAL_VIOLATION: TemporalViolationError,
    UNKNOWN_PROVIDER: UnknownProviderError,
    FIELD_INVALID: FieldInvalidError,
}


def admit_by_rules(graph: JourneyGraph, record, attr: str):
    """The key under which the raising API stores ``record`` in the table
    ``attr``, or raises as it does: a record of another class, then its
    first field problem, then an ID the table holds; stores nothing."""
    name, held, noun = _ADMITTED[attr]
    if type(record) is not held:
        raise FieldInvalidError(f"{name} entries must be a {held.__name__}")
    problems = field_problems(record)
    if problems:
        raise FieldInvalidError(f"{problems[0][0]}: {problems[0][2]}")
    key = getattr(record, FIELDS[held][0].attr)
    if key in getattr(graph, attr):
        raise DuplicateIDError(f"{noun} ID {key!r} already exists")
    return key


def owner_by_rules(graph: JourneyGraph, patient_id: str) -> Patient:
    """The patient the raising API adds a record to, or raises as it does."""
    if patient_id not in graph.patients:
        raise UnknownPatientError(f"unknown patient {patient_id!r}")
    patient = graph.patients[patient_id]
    if type(patient) is not Patient:
        at = f"patients[{shown(patient_id, format)}]"
        raise FieldInvalidError(f"{at}: patients entries must be a Patient")
    return patient


def encounter_joins_by_rules(graph: JourneyGraph, encounter: Encounter, patient) -> list:
    """The join rules ``encounter`` breaks, as ``(location, code, message)``:
    a provider the graph does not hold, then a date before the birth date
    of ``patient`` (None: no patient).  A value of another type is not
    compared."""
    problems = []
    ref, day = encounter.provider_ref, encounter.date
    if type(ref) is str and ref != "" and ref not in graph.providers:
        problems.append(("providerRef", UNKNOWN_PROVIDER, f"providerRef {ref!r} does not resolve"))
    if patient is not None and type(day) is date and type(patient.birth_date) is date:
        if day < patient.birth_date:
            dates = f"{day.isoformat()} precedes birth date {patient.birth_date.isoformat()}"
            problems.append(("date", FIELD_INVALID, f"encounter date {dates}"))
    return problems


def link_joins_by_rules(graph: JourneyGraph, edge: JourneyEdge) -> list:
    """The join rules ``edge`` breaks, as ``(location, code, message)``:
    each missing end; else a self-link; else a link across patients, then
    one against the dates of two ``date`` ends."""
    start, end, kind = edge.from_encounter, edge.to_encounter, edge.kind
    missing = [(at, key) for at, key in (("from", start), ("to", end))
               if key not in graph.encounters]  # fmt: skip
    if missing:
        return [
            (at, DANGLING_REFERENCE, f"link references missing encounter {shown(key)}")
            for at, key in missing
        ]
    if start == end:
        return [("", SELF_LINK, f"link connects {start!r} to itself")]
    arrow = f"{kind.value} link {start!r} -> {end!r}"
    problems = []
    owner = graph.encounter_owner.get(start)
    if owner is None or owner != graph.encounter_owner.get(end):
        problems.append(("", CROSS_PATIENT_LINK, f"{arrow} crosses patients"))
    first, last = graph.encounters[start].date, graph.encounters[end].date
    if type(first) is date and type(last) is date:
        backward = first < last if kind is EdgeKind.CAUSED_BY else first > last
        if backward:
            dates = f"{first.isoformat()} and {last.isoformat()}"
            message = f"{arrow} contradicts encounter dates {dates}"
            problems.append(("", TEMPORAL_VIOLATION, message))
    return problems


def _raise_first_join(problems: list) -> None:
    if problems:
        raise _JOIN_ERRORS[problems[0][1]](problems[0][2])


def add_encounter_by_rules(graph: JourneyGraph, patient_id: str, encounter: Encounter) -> str:
    """The key under which ``JourneyGraph.add_encounter`` stores
    ``encounter``, or raises as it does: its owner, its admission, then its
    join rules, one by one; stores nothing."""
    patient = owner_by_rules(graph, patient_id)
    key = admit_by_rules(graph, encounter, "encounters")
    _raise_first_join(encounter_joins_by_rules(graph, encounter, patient))
    return key


def add_intake_form_by_rules(graph: JourneyGraph, patient_id: str, form: IntakeForm) -> str:
    """``add_intake_form``'s refusals, its rules one by one, as
    ``add_encounter_by_rules``; stores nothing."""
    owner_by_rules(graph, patient_id)
    key = admit_by_rules(graph, form, "intake_forms")
    if patient_id in graph._owners().forms:
        raise DuplicateIDError(f"patient {patient_id!r} already has an intake form")
    return key


@guarded("from_encounter", "to_encounter")
def link_by_rules(
    graph: JourneyGraph,
    kind: EdgeKind,
    from_encounter: str,
    to_encounter: str,
    via: str | None = None,
) -> JourneyEdge:
    """The link ``JourneyGraph.link`` adds, or raises as it does: its field
    rules and then its join rules, one by one, then ``checked_link``'s
    duplicate and day-scoped cycle checks; stores nothing."""
    edge = JourneyEdge(kind, from_encounter, to_encounter, via)
    problems = field_problems(edge)
    if problems:
        raise FieldInvalidError(problems[0][2])
    _raise_first_join(link_joins_by_rules(graph, edge))
    return checked_link(graph, edge, whole_graph=False)


def timeline_by_scan(graph: JourneyGraph, patient_id: str) -> list[TimelineEntry]:
    edges = edges_of_by_scan(graph, patient_id)
    entries = []
    for encounter in encounters_of_by_scan(graph, patient_id):
        inbound = sorted(
            (
                LinkRef(edge.kind, edge.from_encounter)
                for edge in edges
                if edge.to_encounter == encounter.encounter_id
            ),
            key=lambda ref: (ref.kind.value, ref.encounter_id),
        )
        outbound = sorted(
            (
                LinkRef(edge.kind, edge.to_encounter)
                for edge in edges
                if edge.from_encounter == encounter.encounter_id
            ),
            key=lambda ref: (ref.kind.value, ref.encounter_id),
        )
        entries.append(
            TimelineEntry(
                encounter_id=encounter.encounter_id,
                date=encounter.date,
                specialty=encounter.specialty,
                inbound_links=tuple(inbound),
                outbound_links=tuple(outbound),
                headline_diagnoses=tuple(d.diagnosis_name for d in encounter.diagnoses),
            )
        )
    return entries


def gap_warnings_by_scan(graph: JourneyGraph) -> list[Diagnostic]:
    connected = {frozenset((e.from_encounter, e.to_encounter)) for e in graph.edges}
    warnings = []
    for patient_id in sorted(graph.patients):
        owned = encounters_of_by_scan(graph, patient_id)
        for earlier, later in zip(owned, owned[1:]):
            if frozenset((earlier.encounter_id, later.encounter_id)) not in connected:
                warnings.append(
                    Diagnostic(
                        Severity.WARNING,
                        JOURNEY_GAP,
                        f"journey gap: no link between {earlier.encounter_id!r} "
                        f"({earlier.date.isoformat()}) and {later.encounter_id!r} "
                        f"({later.date.isoformat()})",
                        f"patients[{patient_id}]",
                    )
                )
    return warnings


def _quote(value: str) -> str:
    if "\\" in value or '"' in value or "\n" in value:
        value = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{value}"'


class _Writer:
    """DOT node and edge lines, each identifier and label quoted as written,
    and subrecord IDs numbered per class in the order asked for."""

    def __init__(self) -> None:
        self.node_lines: list[str] = []
        self.edge_lines: list[str] = []
        self._counters: dict[str, int] = {}

    def node(self, node_id: str, label: str, class_name: str) -> None:
        shape, color = STYLE_TABLE[class_name]
        self.node_lines.append(
            f"  {_quote(node_id)} [label={_quote(label)}, shape={shape}, "
            f'style=filled, fillcolor="{color}"];'
        )

    def edge(self, source: str, target: str, label: str) -> None:
        self.edge_lines.append(
            f"  {_quote(source)} -> {_quote(target)} [label={_quote(label)}];"
        )

    def numbered(self, class_name: str) -> str:
        count = self._counters[class_name] = self._counters.get(class_name, 0) + 1
        return f"{class_name}-{count}"


def to_dot_by_scan(
    graph: JourneyGraph, patient_id: str | None = None, detail: str = "journey"
) -> str:
    patient_ids = [patient_id] if patient_id is not None else sorted(graph.patients)
    writer = _Writer()
    selected: set[str] = set()
    for pid in patient_ids:
        writer.node(pid, graph.patients[pid].patient_name, "Patient")
        form = intake_form_of_by_scan(graph, pid)
        if form is not None:
            writer.node(form.intake_form_id, form.intake_form_id, "IntakeForm")
            writer.edge(pid, form.intake_form_id, "hasIntakeForm")
            if detail == "full":
                _intake_detail(writer, form)
        for encounter in encounters_of_by_scan(graph, pid):
            selected.add(encounter.encounter_id)
            writer.node(encounter.encounter_id, encounter.encounter_id, "Encounter")
            writer.edge(pid, encounter.encounter_id, "hasEncounter")
            if detail == "full":
                _encounter_detail(writer, encounter)
    journey_edges = sorted(
        (e for e in graph.edges if e.from_encounter in selected and e.to_encounter in selected),
        key=lambda e: (LABELS[e.kind], e.from_encounter, e.to_encounter),
    )
    for edge in journey_edges:
        writer.edge(edge.from_encounter, edge.to_encounter, LABELS[edge.kind])
    lines = ["digraph pjo {", "  rankdir=LR;", *writer.node_lines, *writer.edge_lines, "}"]
    return "\n".join(lines) + "\n"


def _intake_detail(writer: _Writer, form: IntakeForm) -> None:
    history_id = writer.numbered("MedicalHistory")
    writer.node(history_id, history_id, "MedicalHistory")
    writer.edge(form.intake_form_id, history_id, "hasMedicalHistory")
    social_id = writer.numbered("SocialHistory")
    writer.node(social_id, social_id, "SocialHistory")
    writer.edge(form.intake_form_id, social_id, "hasSocialHistory")


def _encounter_detail(writer: _Writer, encounter: Encounter) -> None:
    eid = encounter.encounter_id
    for symptom in encounter.symptoms:
        node_id = writer.numbered("Symptom")
        writer.node(node_id, symptom.symptom_name, "Symptom")
        writer.edge(eid, node_id, "hasSymptom")
    for _ in encounter.vitals:
        node_id = writer.numbered("VitalSign")
        writer.node(node_id, node_id, "VitalSign")
        writer.edge(eid, node_id, "hasVitals")
    for test in encounter.tests:
        node_id = writer.numbered("DiagTest")
        writer.node(node_id, test.test_name, "DiagTest")
        writer.edge(eid, node_id, "hasTest")
    for diagnosis in encounter.diagnoses:
        node_id = writer.numbered("Diagnosis")
        writer.node(node_id, diagnosis.diagnosis_name, "Diagnosis")
        writer.edge(eid, node_id, "hasDiagnosis")
    for medication in encounter.medications:
        node_id = writer.numbered("Medication")
        writer.node(node_id, medication.medication_name, "Medication")
        writer.edge(eid, node_id, "hasMedication")
    for plan in encounter.care_plans:
        node_id = writer.numbered("CarePlan")
        writer.node(node_id, plan.plan_id, "CarePlan")
        writer.edge(eid, node_id, "hasPlan")


def link_by_kahn(
    graph: JourneyGraph,
    kind: EdgeKind,
    from_encounter: str,
    to_encounter: str,
    via: str | None = None,
) -> JourneyEdge:
    """``JourneyGraph.link`` with the cycle check run over the whole graph."""
    edge = checked_link(graph, JourneyEdge(kind, from_encounter, to_encounter, via))
    graph.edges.append(edge)
    return edge


def checked_link(graph: JourneyGraph, edge: JourneyEdge, whole_graph: bool = True) -> JourneyEdge:
    """``edge`` if ``JourneyGraph.link`` may add it, else raises as ``link``
    does; stores nothing.

    With ``whole_graph`` the cycle check runs Kahn over every stored link.
    Without it, over the scope ``link`` documents, found by scanning: for a
    link between two encounters of one day, the stored links whose two
    ends the same patient owns and which are both stored on that day.  An
    end whose date is not a ``date`` is not checked against the other's.
    """
    kind, from_encounter, to_encounter = edge.kind, edge.from_encounter, edge.to_encounter
    if from_encounter not in graph.encounters:
        raise UnknownEncounterError(f"link references missing encounter {from_encounter!r}")
    if to_encounter not in graph.encounters:
        raise UnknownEncounterError(f"link references missing encounter {to_encounter!r}")
    source, target = graph.encounters[from_encounter], graph.encounters[to_encounter]
    if from_encounter == to_encounter:
        raise FieldInvalidError(f"link connects {from_encounter!r} to itself")
    owner = graph.encounter_owner.get(from_encounter)
    if owner is None or owner != graph.encounter_owner.get(to_encounter):
        raise CrossPatientLinkError(
            f"{kind.value} link {from_encounter!r} -> {to_encounter!r} crosses patients"
        )
    dated = source.date.__class__ is date and target.date.__class__ is date
    if dated and (source.date < target.date if kind is EdgeKind.CAUSED_BY
                  else source.date > target.date):  # fmt: skip
        raise TemporalViolationError(
            f"{kind.value} link {from_encounter!r} -> {to_encounter!r} contradicts "
            f"encounter dates {source.date.isoformat()} and {target.date.isoformat()}"
        )
    if any(
        e.kind is kind and e.from_encounter == from_encounter and e.to_encounter == to_encounter
        for e in graph.edges
    ):
        raise DuplicateEdgeError(
            f"duplicate {kind.value} link {from_encounter!r} -> {to_encounter!r}"
        )
    if whole_graph:
        nodes, scope = list(graph.encounters), graph.edges
    elif source.date == target.date:
        nodes = [
            key
            for key, encounter in graph.encounters.items()
            if graph.encounter_owner.get(key) == owner and encounter.date == source.date
        ]
        scope = [
            e
            for e in _owned_edges(graph, owner)
            if e.from_encounter in nodes and e.to_encounter in nodes
        ]
    else:
        nodes, scope = [], []
    if cyclic_nodes(nodes, oriented_edges(scope + [edge])):
        raise CycleIntroducedError(
            f"{kind.value} link {from_encounter!r} -> {to_encounter!r} introduces a cycle"
        )
    return edge


def followup_chain_by_scan(graph: JourneyGraph, encounter_id: str) -> list[Encounter]:
    """``followup_chain`` over every stored link, not only the owner's."""
    graph.patient_of(encounter_id)  # raises UnknownEncounterError
    outgoing: dict[str, list[str]] = {}
    incoming: dict[str, list[str]] = {}
    for edge in graph.edges:
        if edge.kind is EdgeKind.HAS_FOLLOWUP:
            outgoing.setdefault(edge.from_encounter, []).append(edge.to_encounter)
            incoming.setdefault(edge.to_encounter, []).append(edge.from_encounter)

    def step(neighbors: dict[str, list[str]], node: str) -> str | None:
        step_targets = neighbors.get(node, [])
        if len(step_targets) > 1:
            raise AmbiguousChainError(f"follow-up chain branches at {node!r}", branch_point=node)
        return step_targets[0] if step_targets else None

    predecessors = []
    seen = {encounter_id}
    current = encounter_id
    while (previous := step(incoming, current)) is not None:
        if len(outgoing.get(previous, [])) > 1:
            raise AmbiguousChainError(
                f"follow-up chain branches at {previous!r}", branch_point=previous
            )
        if previous in seen:
            raise CycleIntroducedError(f"follow-up edges cycle through {previous!r}")
        predecessors.append(previous)
        seen.add(previous)
        current = previous
    chain = predecessors[::-1] + [encounter_id]
    current = encounter_id
    while (successor := step(outgoing, current)) is not None:
        if len(incoming.get(successor, [])) > 1:
            raise AmbiguousChainError(
                f"follow-up chain branches at {successor!r}", branch_point=successor
            )
        if successor in seen:
            raise CycleIntroducedError(f"follow-up edges cycle through {successor!r}")
        chain.append(successor)
        seen.add(successor)
        current = successor
    return [graph.encounters[eid] for eid in chain]


def cause_trace_by_scan(graph: JourneyGraph, encounter_id: str) -> list[Encounter]:
    """``cause_trace`` over every stored link, not only the owner's."""
    graph.patient_of(encounter_id)  # raises UnknownEncounterError
    causes: dict[str, list[str]] = {}
    for edge in graph.edges:
        if edge.kind is EdgeKind.CAUSED_BY:
            causes.setdefault(edge.from_encounter, []).append(edge.to_encounter)
    trace = [encounter_id]
    seen = {encounter_id}
    current = encounter_id
    while True:
        step_targets = causes.get(current, [])
        if len(step_targets) > 1:
            raise AmbiguousTraceError(f"cause trace branches at {current!r}", branch_point=current)
        if not step_targets:
            break
        cause = step_targets[0]
        if cause in seen:
            raise CycleIntroducedError(f"caused-by edges cycle through {cause!r}")
        trace.append(cause)
        seen.add(cause)
        current = cause
    return [graph.encounters[eid] for eid in trace]


# -- the chain walks as written by hand ----------------------------------------
#
# ``followup_chain`` and ``cause_trace`` as they stood with three walks of
# their own, two in ``followup_chain`` and one in ``cause_trace``, before both
# stepped through ``queries._walk``: the differential property of
# ``test_queries`` checks the shared walk against them.


def _owner_links(graph: JourneyGraph, encounter_id: str) -> list[JourneyEdge]:
    """The links whose two ends the encounter's owner owns (``edges_of``):
    on a graph ``check_invariants`` accepts, every link of the encounter's
    journey; on one it rejects, no link across patients.  Raises as
    ``patient_of`` and ``edges_of`` do for an unknown encounter or owner."""
    return graph.edges_of(graph.patient_of(encounter_id))


@guarded("encounter_id")
def followup_chain_by_hand(graph: JourneyGraph, encounter_id: str) -> list[Encounter]:
    """The maximal follow-up path containing the encounter, in date order.

    Raises :class:`AmbiguousChainError` when the path branches: an
    encounter on the walk has two or more outgoing, or two or more
    incoming, follow-up edges.  Only the owner's links are read (see
    ``_owner_links``), so the cost is O(l) in the patient's links.
    """
    outgoing: dict[str, list[str]] = {}
    incoming: dict[str, list[str]] = {}
    for edge in _owner_links(graph, encounter_id):
        if edge.kind is EdgeKind.HAS_FOLLOWUP:
            outgoing.setdefault(edge.from_encounter, []).append(edge.to_encounter)
            incoming.setdefault(edge.to_encounter, []).append(edge.from_encounter)

    def step(neighbors: dict[str, list[str]], node: str) -> str | None:
        step_targets = neighbors.get(node, [])
        if len(step_targets) > 1:
            raise AmbiguousChainError(
                f"follow-up chain branches at {node!r}", branch_point=node
            )
        return step_targets[0] if step_targets else None

    predecessors = []
    seen = {encounter_id}
    current = encounter_id
    while (previous := step(incoming, current)) is not None:
        if len(outgoing.get(previous, [])) > 1:
            raise AmbiguousChainError(
                f"follow-up chain branches at {previous!r}", branch_point=previous
            )
        if previous in seen:
            raise CycleIntroducedError(f"follow-up edges cycle through {previous!r}")
        predecessors.append(previous)
        seen.add(previous)
        current = previous
    chain = predecessors[::-1] + [encounter_id]
    current = encounter_id
    while (successor := step(outgoing, current)) is not None:
        if len(incoming.get(successor, [])) > 1:
            raise AmbiguousChainError(
                f"follow-up chain branches at {successor!r}", branch_point=successor
            )
        if successor in seen:
            raise CycleIntroducedError(f"follow-up edges cycle through {successor!r}")
        chain.append(successor)
        seen.add(successor)
        current = successor
    return _stored(graph, chain)


@guarded("encounter_id")
def cause_trace_by_hand(graph: JourneyGraph, encounter_id: str) -> list[Encounter]:
    """The causal path from an encounter back to its root cause, inclusive.

    Follows caused-by edges from effect to cause; raises
    :class:`AmbiguousTraceError` when an encounter on the walk has two or
    more outgoing caused-by edges.  Only the owner's links are read (see
    ``_owner_links``), so the cost is O(l) in the patient's links.
    """
    causes: dict[str, list[str]] = {}
    for edge in _owner_links(graph, encounter_id):
        if edge.kind is EdgeKind.CAUSED_BY:
            causes.setdefault(edge.from_encounter, []).append(edge.to_encounter)
    trace = [encounter_id]
    seen = {encounter_id}
    current = encounter_id
    while True:
        step_targets = causes.get(current, [])
        if len(step_targets) > 1:
            raise AmbiguousTraceError(
                f"cause trace branches at {current!r}", branch_point=current
            )
        if not step_targets:
            break
        cause = step_targets[0]
        if cause in seen:
            raise CycleIntroducedError(f"caused-by edges cycle through {cause!r}")
        trace.append(cause)
        seen.add(cause)
        current = cause
    return _stored(graph, trace)


def serialize_bundle_by_dumps(graph: JourneyGraph, patient_id: str) -> str:
    """``serialize_bundle`` as the bundle document ``json.dumps`` writes."""
    _known(graph, patient_id)
    doc: dict = {"formatVersion": FORMAT_VERSION, "patient": _document(graph.patients[patient_id])}
    doc["providers"] = [_document(graph.providers[pid]) for pid in sorted(graph.providers)]
    form = graph.intake_form_of(patient_id)
    if form is not None:
        doc["intakeForm"] = _document(form)
    doc["encounters"] = [_document(e) for e in graph.encounters_of(patient_id)]
    doc["links"] = [
        _document(edge)
        for edge in sorted(
            graph.edges_of(patient_id),
            key=lambda e: (e.kind.value, e.from_encounter, e.to_encounter),
        )
    ]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _document(record) -> dict:
    """A record's document: unset fields left out, but for one with a
    default, written as it, and a held record of a class with no required
    field, written as its empty record; keys in canonical order."""
    doc: dict = {}
    for spec in FIELDS[record.__class__]:
        value = getattr(record, spec.attr)
        if value is None and spec.type == OBJECT and not holds_required(spec.record):
            value = spec.record()  # what a parse reads in its place
        if value is None:
            value = spec.default
        if value is not None and spec.type in _DOCUMENT_VALUES:
            value = _DOCUMENT_VALUES[spec.type](value)
        if value is not None:
            doc[spec.key] = value
    return doc


_DOCUMENT_VALUES = {
    DATE: date.isoformat,
    ICD10: lambda code: code.code,
    KIND: lambda kind: kind.value,
    STRS: list,
    OBJECT: lambda record: _document(record) or None,
    OBJECTS: lambda records: [_document(record) for record in records],
}


# -- the reporting pass ------------------------------------------------------
#
# The generators of the reporting pass, as they stood in ``pjo._codegen``.


def holder_rules(spec) -> list[tuple]:
    """The MEMORY type rules of a field that holds a record or an array, each
    (test, code, message) with the test a template over the value as ``{0}``:
    the field's value, then each entry of an array of records.  A held record
    is of the field's record type, or None unless required; an array is a
    list.  The checks on what a value holds run only when it keeps these."""
    if spec.type == OBJECT:
        held = spec.record.__name__
        test = f"{{0}}.__class__ is {held}"
        if not spec.required:
            test = f"{{0}} is None or {test}"
        return [(test, INVALID_TYPE, f"{spec.key} must be a {held}")]
    rules = [("{0}.__class__ is list", INVALID_TYPE, f"{spec.key} must be a list")]
    if spec.type == OBJECTS:
        entry = spec.record.__name__
        rules.append(
            (f"{{0}}.__class__ is {entry}", INVALID_TYPE, f"{spec.key} entries must be a {entry}")
        )
    return rules


def _report_line(test: str, at: str, code: str, message: str) -> str:
    """Source of a statement that reports the rule when ``test`` fails."""
    return f"if not ({test}): problems.append((f{at!r}, {code!r}, f{message!r}))"


def rule_lines(record_type: type, var: str, where: str, depth: int) -> list[str]:
    """Source lines that report every rule the record held in the local
    ``var`` breaks: the reporting pass of its field check, which runs only
    when the silent pass (see ``_silent_lines``) finds a broken rule.
    ``where`` is the f-string text of the record's location prefix.  Held
    records and array entries are checked inline, so a location is
    formatted only when a rule fails.  What a held record, an array or an
    entry holds is checked in the ``else`` (for a held record left out, the
    ``elif``) of its type rule's report."""
    lines = []
    for spec in FIELDS[record_type]:
        value, at = f"{var}.{spec.attr}", where + spec.key
        if spec.type not in (OBJECT, OBJECTS, STRS):
            head = f"v = {value}" if spec.required else f"if (v := {value}) is not None:"
            nested = _scalar_lines(spec, at, spec.key)
            lines += [head, *(f"    {line}" if head.endswith(":") else line for line in nested)]
            continue
        index, inner = f"i{depth + 1}", f"r{depth + 1}"
        (test, code, message), *entry_rules = holder_rules(spec)
        held = inner if spec.type == OBJECT else f"a{depth + 1}"
        lines += [f"{held} = {value}", _report_line(test.format(held), at, code, message)]
        if spec.type == OBJECT:
            lines.append(f"elif {held} is not None:")
            body = rule_lines(spec.record, inner, f"{at}.", depth + 1)
        else:
            at += f"[{{{index}}}]"
            if spec.type == STRS:
                loop = f"for {index}, v in enumerate({held}):"
                entry = _scalar_lines(spec, at, f"{spec.key} entries")
            else:
                ((test, code, message),) = entry_rules
                loop = f"for {index}, {inner} in enumerate({held}):"
                nested = rule_lines(spec.record, inner, f"{at}.", depth + 1)
                entry = [_report_line(test.format(inner), at, code, message), "else:"]
                entry += [f"    {line}" for line in nested]
            lines.append("else:")
            body = [loop, *(f"    {line}" for line in entry)]
        lines += [f"    {line}" for line in body]
    return lines


def _scalar_lines(spec, at: str, name: str) -> list[str]:
    """Source lines that report the first rule the scalar value (or
    string-array entry) in the local ``v`` breaks."""
    return [
        ("el" if n else "") + _report_line(test, at, code, message)
        for n, (test, code, message, _) in enumerate(field_rules(spec, False, name))
    ]


_REPORTERS: dict[type, object] = {}


def field_problems_by_report(record) -> list[tuple[str, str, str]]:
    """``field_problems(record)`` from the reporting pass alone: the
    ``rule_lines`` of the record's type, compiled with no silent pass."""
    record_type = record.__class__
    if record_type not in _REPORTERS:
        lines = ["problems = []", *rule_lines(record_type, "record", "", 0), "return problems"]
        source = "def problems(record):\n    " + "\n    ".join(lines)
        scope = {**vars(reporters), **vars(checks)}  # the names the messages use too
        exec(compile(source, f"<{record_type.__name__} report>", "exec"), scope)
        _REPORTERS[record_type] = scope["problems"]
    return _REPORTERS[record_type](record)


# -- the checker's record and join passes, one plain scan each ----------------
#
# ``check_by_scan`` is ``JourneyGraph._check`` with every pass that reads the
# ownership maps or the links written as a scan: each record's problems as one
# concatenated list, every ownership pair sorted, a frozenset per link and per
# pair of consecutive encounters, and Kahn's algorithm over the whole graph.


def check_by_scan(graph: JourneyGraph, fields=field_problems) -> ValidationReport:
    """The checker's report with ``fields(record)`` as the field rules:
    ``check_invariants()`` by default, ``_check_joins()`` with no rules."""
    report = ValidationReport()
    report.diagnostics.extend(ANNOTATION_WARNINGS)
    for name, records in (("patients", graph.patients), ("providers", graph.providers)):
        for key in sorted(records):
            record = records[key]
            for relative, code, message in fields(record) + key_problems(record, key):
                report.error(code, message, f"{name}[{key}].{relative}")
    check_intake_forms_by_scan(graph, report, fields)
    check_encounters_by_scan(graph, report, fields)
    check_edges_by_scan(graph, report, fields)
    check_gaps_by_scan(graph, report)
    return report


def assert_checker_matches_the_scans(graph: JourneyGraph) -> None:
    """``check_invariants()`` and ``_check_joins()`` equal ``check_by_scan``,
    diagnostic for diagnostic and in order."""
    assert graph.check_invariants().diagnostics == check_by_scan(graph).diagnostics
    assert graph._check_joins().diagnostics == check_by_scan(graph, lambda record: []).diagnostics


def check_intake_forms_by_scan(graph: JourneyGraph, report: ValidationReport, fields) -> None:
    owners_seen: dict[str, str] = {}
    for form_id in sorted(graph.intake_forms):
        location = f"intakeForms[{form_id}]"
        form = graph.intake_forms[form_id]
        for relative, code, message in fields(form) + key_problems(form, form_id):
            report.error(code, message, f"{location}.{relative}")
        owner = graph.intake_form_owner.get(form_id)
        if owner is None:
            report.error(UNOWNED_INTAKE_FORM, f"intake form {form_id!r} has no owner", location)
        elif owner.__class__ is not str:
            message = f"owner of intake form {form_id!r} must be a string"
            report.error(INVALID_TYPE, message, location)
        elif owner not in graph.patients:
            message = f"intake form {form_id!r} owned by unknown patient {owner!r}"
            report.error(UNKNOWN_PATIENT, message, location)
        elif owner in owners_seen:
            report.error(
                FIELD_INVALID,
                f"patient {owner!r} has multiple intake forms "
                f"({owners_seen[owner]!r} and {form_id!r})",
                f"patients[{owner}]",
            )
        else:
            owners_seen[owner] = form_id
    for form_id, owner in sorted(graph.intake_form_owner.items()):
        if form_id not in graph.intake_forms:
            report.error(
                DANGLING_REFERENCE,
                f"ownership entry references missing intake form {form_id!r}",
                f"intakeForms[{form_id}]",
            )


def check_encounters_by_scan(graph: JourneyGraph, report: ValidationReport, fields) -> None:
    for encounter_id in sorted(graph.encounters):
        encounter = graph.encounters[encounter_id]
        owner = graph.encounter_owner.get(encounter_id)
        patient = graph.patients.get(owner) if owner.__class__ is str else None
        problems = (
            fields(encounter)
            + key_problems(encounter, encounter_id)
            + encounter_joins_by_rules(graph, encounter, patient)
        )
        if not problems and patient is not None:
            continue
        location = f"encounters[{encounter_id}]"
        for relative, code, message in problems:
            report.error(code, message, f"{location}.{relative}")
        if owner is None:
            message = f"encounter {encounter_id!r} has no owner"
            report.error(UNOWNED_ENCOUNTER, message, location)
        elif owner.__class__ is not str:
            message = f"owner of encounter {encounter_id!r} must be a string"
            report.error(INVALID_TYPE, message, location)
        elif patient is None:
            report.error(
                UNKNOWN_PATIENT,
                f"encounter {encounter_id!r} owned by unknown patient {owner!r}",
                location,
            )
    for encounter_id, owner in sorted(graph.encounter_owner.items()):
        if encounter_id not in graph.encounters:
            report.error(
                DANGLING_REFERENCE,
                missing_encounter("ownership entry references", encounter_id),
                f"encounters[{encounter_id}]",
            )


def _via_resolves(via: str, from_encounter: Encounter, to_encounter: Encounter) -> bool:
    for encounter in (from_encounter, to_encounter):
        if any(plan.plan_id == via for plan in encounter.care_plans):
            return True
        if any(diagnosis.diagnosis_name == via for diagnosis in encounter.diagnoses):
            return True
    return False


def _named(edges: list[JourneyEdge]) -> list[JourneyEdge]:
    """The links whose two ends are strings, the only ones that name keys."""
    return [e for e in edges if type(e.from_encounter) is str and type(e.to_encounter) is str]


def check_edges_by_scan(graph: JourneyGraph, report: ValidationReport, fields) -> None:
    seen: set[tuple[EdgeKind, str, str]] = set()
    for index, edge in enumerate(graph.edges):
        problems = fields(edge)
        for relative, code, message in problems:
            report.error(code, message, f"links[{index}].{relative}")
        if problems:
            continue
        problems = link_joins_by_rules(graph, edge)
        for _, code, message in problems:
            report.error(code, message, f"links[{index}]")
        if problems and problems[0][1] in (DANGLING_REFERENCE, SELF_LINK):
            continue  # no pair of encounters to compare
        key = (edge.kind, edge.from_encounter, edge.to_encounter)
        arrow = f"{edge.kind.value} link {edge.from_encounter!r} -> {edge.to_encounter!r}"
        if key in seen:
            report.error(DUPLICATE_EDGE, f"duplicate {arrow}", f"links[{index}]")
        seen.add(key)
        if edge.via is not None and not _via_resolves(
            edge.via, graph.encounters[edge.from_encounter], graph.encounters[edge.to_encounter]
        ):
            report.warning(
                UNRESOLVED_VIA,
                f"via {edge.via!r} names no care plan or diagnosis in either endpoint",
                f"links[{index}].via",
            )
    in_cycle = cyclic_nodes(list(graph.encounters), oriented_edges(_named(graph.edges)))
    if in_cycle:
        report.error(CYCLE, "journey links form a cycle through: " + ", ".join(in_cycle), "links")


def check_gaps_by_scan(graph: JourneyGraph, report: ValidationReport) -> None:
    connected: set[frozenset[str]] = set()
    for edge in _named(graph.edges):
        connected.add(frozenset((edge.from_encounter, edge.to_encounter)))
    encounters = graph.encounters
    for patient_id in sorted(graph.patients):
        keys = [
            key
            for key, owner in graph.encounter_owner.items()
            if owner == patient_id and key in encounters
        ]
        if any(encounters[key].date.__class__ is not date for key in keys):
            continue  # encounters that cannot be put in date order
        keys.sort(key=lambda key: (encounters[key].date, key))
        owned = [encounters[key] for key in keys]
        for earlier, later in zip(owned, owned[1:]):
            ids = (earlier.encounter_id, later.encounter_id)
            if all(type(key) is str for key in ids) and frozenset(ids) not in connected:
                report.warning(
                    JOURNEY_GAP,
                    f"journey gap: no link between {earlier.encounter_id!r} "
                    f"({earlier.date.isoformat()}) and {later.encounter_id!r} "
                    f"({later.date.isoformat()})",
                    f"patients[{patient_id}]",
                )
