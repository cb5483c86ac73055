"""Scan-based reference implementations for differential tests.

Each function restates one graph operation in its plainest form, one scan
of the graph per patient or per encounter, so the grouped implementations
in ``pjo`` can be checked against it byte for byte.  ``link_by_kahn``
re-runs Kahn's algorithm over the whole graph after a tentative append,
which is the definition of a link that "introduces a cycle".
"""

from __future__ import annotations

from pjo import EdgeKind, JourneyEdge, JourneyGraph
from pjo.dot import _encounter_detail, _intake_detail, _Writer
from pjo.errors import (
    CrossPatientLinkError,
    CycleIntroducedError,
    DuplicateEdgeError,
    FieldInvalidError,
    TemporalViolationError,
    UnknownEncounterError,
)
from pjo.graph import (
    JOURNEY_GAP,
    Diagnostic,
    Severity,
    cyclic_nodes,
    oriented_edges,
)
from pjo.queries import LinkRef, TimelineEntry
from pjo.records import edge_dates_consistent

LABELS = {
    EdgeKind.HAS_FOLLOWUP: "hasFollowup",
    EdgeKind.CAUSED_BY: "causedBy",
    EdgeKind.NEXT: "NEXT",
}


def timeline_by_scan(graph: JourneyGraph, patient_id: str) -> list[TimelineEntry]:
    edges = graph.edges_of(patient_id)
    entries = []
    for encounter in graph.encounters_of(patient_id):
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
        owned = [
            e
            for e in graph.encounters.values()
            if graph.encounter_owner.get(e.encounter_id) == patient_id
        ]
        owned.sort(key=lambda e: (e.date, e.encounter_id))
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


def to_dot_by_scan(
    graph: JourneyGraph, patient_id: str | None = None, detail: str = "journey"
) -> str:
    patient_ids = [patient_id] if patient_id is not None else sorted(graph.patients)
    writer = _Writer()
    selected: set[str] = set()
    for pid in patient_ids:
        writer.node(pid, graph.patients[pid].patient_name, "Patient")
        form = graph.intake_form_of(pid)
        if form is not None:
            writer.node(form.intake_form_id, form.intake_form_id, "IntakeForm")
            writer.edge(pid, form.intake_form_id, "hasIntakeForm")
            if detail == "full":
                _intake_detail(writer, form)
        for encounter in graph.encounters_of(pid):
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


def link_by_kahn(
    graph: JourneyGraph,
    kind: EdgeKind,
    from_encounter: str,
    to_encounter: str,
    via: str | None = None,
) -> JourneyEdge:
    """``JourneyGraph.link`` with the cycle check run over the whole graph."""
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
    edge = JourneyEdge(kind, from_encounter, to_encounter, via)
    if cyclic_nodes(list(graph.encounters), oriented_edges(graph.edges + [edge])):
        raise CycleIntroducedError(
            f"{kind.value} link {from_encounter!r} -> {to_encounter!r} introduces a cycle"
        )
    graph.edges.append(edge)
    return edge
