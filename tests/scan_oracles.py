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
"""

from __future__ import annotations

import json
from datetime import date

from pjo import EdgeKind, JourneyEdge, JourneyGraph
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
)
from pjo.graph import (
    CYCLE,
    DANGLING_REFERENCE,
    DUPLICATE_EDGE,
    FIELD_INVALID,
    JOURNEY_GAP,
    SELF_LINK,
    UNKNOWN_PATIENT,
    UNOWNED_ENCOUNTER,
    UNOWNED_INTAKE_FORM,
    UNRESOLVED_VIA,
    Diagnostic,
    Severity,
    ValidationReport,
    cyclic_nodes,
    encounter_reference_problems,
    field_problems,
    key_problems,
    link_problems,
    missing_encounter,
    oriented_edges,
)
from pjo.queries import LinkRef, TimelineEntry
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
    edge_dates_consistent,
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
    owned = [
        (encounter.date, key, encounter)
        for key, encounter in graph.encounters.items()
        if graph.encounter_owner.get(key) == owner
    ]
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
    owners = {graph.encounter_owner[key] for key in graph.encounters if key in graph.encounter_owner}
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
    ends the same patient owns and which are both stored on that day.
    """
    kind, from_encounter, to_encounter = edge.kind, edge.from_encounter, edge.to_encounter
    source = graph.encounters.get(from_encounter)
    target = graph.encounters.get(to_encounter)
    if source is None:
        raise UnknownEncounterError(f"link references missing encounter {from_encounter!r}")
    if target is None:
        raise UnknownEncounterError(f"link references missing encounter {to_encounter!r}")
    if from_encounter == to_encounter:
        raise FieldInvalidError(f"link connects {from_encounter!r} to itself")
    owner = graph.encounter_owner.get(from_encounter)
    if owner is None or owner != graph.encounter_owner.get(to_encounter):
        raise CrossPatientLinkError(
            f"{kind.value} link {from_encounter!r} -> {to_encounter!r} crosses patients"
        )
    if not edge_dates_consistent(kind, source.date, target.date):
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
    """A record's document: unset fields left out, keys in canonical order."""
    doc: dict = {}
    for spec in FIELDS[record.__class__]:
        value = getattr(record, spec.attr)
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
    graph._check_annotations(report)
    for name, records in (("patients", graph.patients), ("providers", graph.providers)):
        for key in sorted(records):
            record = records[key]
            for relative, code, message in fields(record) + key_problems(record, key):
                report.error(code, message, f"{name}[{key}].{relative}")
    check_intake_forms_by_scan(graph, report, fields)
    check_encounters_by_scan(graph, report, fields)
    check_edges_by_scan(graph, report)
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
        patient = graph.patients.get(owner)
        problems = (
            fields(encounter)
            + key_problems(encounter, encounter_id)
            + encounter_reference_problems(graph, encounter, patient)
        )
        if not problems and patient is not None:
            continue
        location = f"encounters[{encounter_id}]"
        for relative, code, message in problems:
            report.error(code, message, f"{location}.{relative}")
        if owner is None:
            message = f"encounter {encounter_id!r} has no owner"
            report.error(UNOWNED_ENCOUNTER, message, location)
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


def check_edges_by_scan(graph: JourneyGraph, report: ValidationReport) -> None:
    seen: set[tuple[EdgeKind, str, str]] = set()
    for index, edge in enumerate(graph.edges):
        problems = link_problems(graph, edge)
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
    in_cycle = cyclic_nodes(list(graph.encounters), oriented_edges(graph.edges))
    if in_cycle:
        report.error(CYCLE, "journey links form a cycle through: " + ", ".join(in_cycle), "links")


def check_gaps_by_scan(graph: JourneyGraph, report: ValidationReport) -> None:
    connected: set[frozenset[str]] = set()
    for edge in graph.edges:
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
            pair = frozenset((earlier.encounter_id, later.encounter_id))
            if pair not in connected:
                report.warning(
                    JOURNEY_GAP,
                    f"journey gap: no link between {earlier.encounter_id!r} "
                    f"({earlier.date.isoformat()}) and {later.encounter_id!r} "
                    f"({later.date.isoformat()})",
                    f"patients[{patient_id}]",
                )
