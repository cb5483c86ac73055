"""Read-only queries over a journey graph.

Every query is deterministic: the same graph and arguments always produce
the same result, and no query mutates the graph.  Name matching
(symptoms, specialties, diagnoses) is exact but case-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from .errors import AmbiguousChainError, AmbiguousTraceError, CycleIntroducedError
from .graph import JourneyGraph
from .records import EdgeKind, Encounter


@dataclass(frozen=True)
class LinkRef:
    """One end of a journey edge as seen from a timeline entry."""

    kind: EdgeKind
    encounter_id: str


@dataclass(frozen=True)
class TimelineEntry:
    encounter_id: str
    date: date
    specialty: str
    inbound_links: tuple[LinkRef, ...]
    outbound_links: tuple[LinkRef, ...]
    headline_diagnoses: tuple[str, ...]


@dataclass(frozen=True)
class SymptomOccurrence:
    encounter_id: str
    date: date
    symptom_name: str
    severity: str


@dataclass(frozen=True)
class SymptomDiagnosisLink:
    symptom_name: str
    diagnosis_name: str
    encounter_id: str


def timeline(graph: JourneyGraph, patient_id: str) -> list[TimelineEntry]:
    """The patient's encounters by (date, ID), annotated with their links.

    The link annotations are exactly the stored journey edges restricted to
    the patient: each edge appears once as an outbound link of its source
    and once as an inbound link of its target.
    """
    inbound: dict[str, list[LinkRef]] = {}
    outbound: dict[str, list[LinkRef]] = {}
    for edge in graph.edges_of(patient_id):
        inbound.setdefault(edge.to_encounter, []).append(LinkRef(edge.kind, edge.from_encounter))
        outbound.setdefault(edge.from_encounter, []).append(LinkRef(edge.kind, edge.to_encounter))

    def ordered(refs: list[LinkRef]) -> tuple[LinkRef, ...]:
        return tuple(sorted(refs, key=lambda ref: (ref.kind.value, ref.encounter_id)))

    entries = []
    for encounter in graph.encounters_of(patient_id):
        entries.append(
            TimelineEntry(
                encounter_id=encounter.encounter_id,
                date=encounter.date,
                specialty=encounter.specialty,
                inbound_links=ordered(inbound.get(encounter.encounter_id, [])),
                outbound_links=ordered(outbound.get(encounter.encounter_id, [])),
                headline_diagnoses=tuple(d.diagnosis_name for d in encounter.diagnoses),
            )
        )
    return entries


def symptom_progression(
    graph: JourneyGraph, patient_id: str, symptom_name: str
) -> list[SymptomOccurrence]:
    """Occurrences of one symptom across the patient's encounters, in date order."""
    needle = symptom_name.casefold()
    occurrences = []
    for encounter in graph.encounters_of(patient_id):
        for symptom in encounter.symptoms:
            if symptom.symptom_name.casefold() == needle:
                occurrences.append(
                    SymptomOccurrence(
                        encounter_id=encounter.encounter_id,
                        date=encounter.date,
                        symptom_name=symptom.symptom_name,
                        severity=symptom.severity,
                    )
                )
    return occurrences


def _require_encounter(graph: JourneyGraph, encounter_id: str) -> Encounter:
    graph.patient_of(encounter_id)  # raises UnknownEncounterError
    return graph.encounters[encounter_id]


def followup_chain(graph: JourneyGraph, encounter_id: str) -> list[Encounter]:
    """The maximal follow-up path containing the encounter, in date order.

    Raises :class:`AmbiguousChainError` when the path branches: an
    encounter on the walk has two or more outgoing, or two or more
    incoming, follow-up edges.
    """
    _require_encounter(graph, encounter_id)
    outgoing: dict[str, list[str]] = {}
    incoming: dict[str, list[str]] = {}
    for edge in graph.edges:
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
    return [graph.encounters[eid] for eid in chain]


def cause_trace(graph: JourneyGraph, encounter_id: str) -> list[Encounter]:
    """The causal path from an encounter back to its root cause, inclusive.

    Follows caused-by edges from effect to cause; raises
    :class:`AmbiguousTraceError` when an encounter on the walk has two or
    more outgoing caused-by edges.
    """
    _require_encounter(graph, encounter_id)
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
    return [graph.encounters[eid] for eid in trace]


def symptom_diagnosis_links(graph: JourneyGraph, patient_id: str) -> list[SymptomDiagnosisLink]:
    """Symptoms paired with the diagnoses recorded in the same encounter.

    One row per (symptom, diagnosis) pair per encounter, so an encounter
    with two symptoms and one diagnosis yields two rows.  Rows are ordered
    by (date, symptom name, diagnosis name).
    """
    rows = []
    for encounter in graph.encounters_of(patient_id):
        for symptom in encounter.symptoms:
            for diagnosis in encounter.diagnoses:
                rows.append(
                    (
                        encounter.date,
                        symptom.symptom_name,
                        diagnosis.diagnosis_name,
                        encounter.encounter_id,
                    )
                )
    rows.sort()
    return [
        SymptomDiagnosisLink(symptom_name=s, diagnosis_name=d, encounter_id=eid)
        for _, s, d, eid in rows
    ]


def find_encounters(
    graph: JourneyGraph,
    patient_id: str | None = None,
    specialty: str | None = None,
    diagnosis_name: str | None = None,
    date_from: date | None = None,
    date_to: date | None = None,
) -> list[str]:
    """Encounter IDs matching every given filter, ordered by (date, ID)."""
    if patient_id is not None:
        candidates = graph.encounters_of(patient_id)
    else:
        candidates = sorted(graph.encounters.values(), key=lambda e: (e.date, e.encounter_id))
    matches = []
    for encounter in candidates:
        if specialty is not None and encounter.specialty.casefold() != specialty.casefold():
            continue
        if diagnosis_name is not None and not any(
            d.diagnosis_name.casefold() == diagnosis_name.casefold()
            for d in encounter.diagnoses
        ):
            continue
        if date_from is not None and encounter.date < date_from:
            continue
        if date_to is not None and encounter.date > date_to:
            continue
        matches.append(encounter.encounter_id)
    return matches
