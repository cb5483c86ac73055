"""Scan-based reference implementations for differential tests.

Each function restates one graph operation in its plainest form, one scan
of the graph per patient or per encounter, so the grouped and indexed
implementations in ``pjo`` can be checked against it byte for byte.  None
of them reads the graph's owner index.  ``link_by_kahn`` re-runs Kahn's
algorithm over the whole graph after a tentative append, which is the
definition of a link that "introduces a cycle".
"""

from __future__ import annotations

from pjo import EdgeKind, JourneyEdge, JourneyGraph
from pjo.dot import _encounter_detail, _intake_detail, _Writer
from pjo.errors import (
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
    JOURNEY_GAP,
    Diagnostic,
    Severity,
    cyclic_nodes,
    intake_form_problems,
    oriented_edges,
)
from pjo.queries import LinkRef, TimelineEntry
from pjo.records import Encounter, IntakeForm, edge_dates_consistent

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
    problems = intake_form_problems(form)
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
