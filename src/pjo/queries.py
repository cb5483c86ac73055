"""Read-only queries over a journey graph.

Every query is deterministic: the same graph and arguments always produce
the same result, and no query mutates the graph.  Name matching
(symptoms, specialties, diagnoses) is exact but case-insensitive.  A query
that fails on a damaged graph raises the checker's problem with the
records it reads (see ``graph.guarded``).
"""

from __future__ import annotations

from datetime import date

from .errors import AmbiguousChainError, AmbiguousTraceError, CycleIntroducedError
from .errors import UnknownEncounterError
from .graph import JourneyGraph, guarded, refuse_misfiled
from .records import KIND_TEXT, EdgeKind, Encounter, slotted


@slotted(frozen=True)
class LinkRef:
    """One end of a journey edge as seen from a timeline entry."""

    kind: EdgeKind
    encounter_id: str


@slotted(frozen=True)
class TimelineEntry:
    encounter_id: str
    date: date
    specialty: str
    inbound_links: tuple[LinkRef, ...]
    outbound_links: tuple[LinkRef, ...]
    headline_diagnoses: tuple[str, ...]


@slotted(frozen=True)
class SymptomOccurrence:
    encounter_id: str
    date: date
    symptom_name: str
    severity: str


@slotted(frozen=True)
class SymptomDiagnosisLink:
    symptom_name: str
    diagnosis_name: str
    encounter_id: str


@guarded("patient_id")
def timeline(graph: JourneyGraph, patient_id: str) -> list[TimelineEntry]:
    """The patient's encounters by (date, ID), annotated with their links.

    The link annotations are exactly the stored journey edges restricted to
    the patient: each edge appears once as an outbound link of its source
    and once as an inbound link of its target, ordered by (kind value, the
    other end's ID).
    """
    inbound: dict[str, list[LinkRef]] = {}
    outbound: dict[str, list[LinkRef]] = {}
    for edge in graph._edges_of(patient_id):
        kind = edge.kind
        inbound.setdefault(edge.to_encounter, []).append(LinkRef(kind, edge.from_encounter))
        outbound.setdefault(edge.from_encounter, []).append(LinkRef(kind, edge.to_encounter))

    def ordered(refs: list[LinkRef] | None) -> tuple[LinkRef, ...]:
        if refs is None:
            return ()
        if len(refs) > 1:
            refs.sort(key=_link_order)
        return tuple(refs)

    return [
        TimelineEntry(
            encounter.encounter_id,
            encounter.date,
            encounter.specialty,
            ordered(inbound.get(encounter.encounter_id)),
            ordered(outbound.get(encounter.encounter_id)),
            tuple(d.diagnosis_name for d in encounter.diagnoses),
        )
        for encounter in graph.encounters_of(patient_id)
    ]


def _link_order(ref: LinkRef) -> tuple[str, str]:
    return KIND_TEXT[ref.kind], ref.encounter_id


@guarded("patient_id")
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


def _links(
    graph: JourneyGraph, encounter_id: str, kind: EdgeKind
) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Of the links of ``kind`` whose two ends the encounter's owner owns
    (``edges_of``), each end to the ends after it (ahead), and each to the
    ends before it (behind).  On a graph ``check_invariants`` accepts, these
    are every such link of the encounter's journey; on one it rejects, no
    link across patients.  Raises as ``patient_of`` and ``edges_of`` do for
    an unknown encounter or owner."""
    ahead: dict[str, list[str]] = {}
    behind: dict[str, list[str]] = {}
    for edge in graph._edges_of(graph.patient_of(encounter_id)):
        if edge.kind is kind:
            ahead.setdefault(edge.from_encounter, []).append(edge.to_encounter)
            behind.setdefault(edge.to_encounter, []).append(edge.from_encounter)
    return ahead, behind


def _walk(ahead, behind, start: str, seen: set, ambiguous, path: str, edges: str) -> list[str]:
    """The keys after ``start`` along the one link ``ahead`` of each key,
    added to ``seen``.  Raises ``ambiguous`` at a key with two or more links
    ahead, or at the next key if it has two or more links ``behind``, as
    ``"<path> branches at <key>"``; then ``CycleIntroducedError`` if the
    next key was seen, as ``"<edges> edges cycle through <key>"``."""
    keys = []
    current = start
    while after := ahead.get(current):
        if len(after) > 1:
            raise ambiguous(f"{path} branches at {current!r}", branch_point=current)
        current = after[0]
        if len(behind.get(current, ())) > 1:
            raise ambiguous(f"{path} branches at {current!r}", branch_point=current)
        if current in seen:
            raise CycleIntroducedError(f"{edges} edges cycle through {current!r}")
        keys.append(current)
        seen.add(current)
    return keys


def _stored(graph: JourneyGraph, keys: list[str]) -> list[Encounter]:
    """The encounters under ``keys``, refusing a key the graph does not hold,
    and a record of another class stored under one, as the checker words it."""
    stored = []
    for key in keys:
        if key not in graph.encounters:
            raise UnknownEncounterError(f"unknown encounter {key!r}")
        refuse_misfiled(graph.encounters[key], "encounters", key)
        stored.append(graph.encounters[key])
    return stored


@guarded("encounter_id")
def followup_chain(graph: JourneyGraph, encounter_id: str) -> list[Encounter]:
    """The maximal follow-up path containing the encounter, in date order.

    Raises :class:`AmbiguousChainError` when the path branches: an
    encounter on the walk has two or more outgoing, or two or more
    incoming, follow-up edges.  Only the owner's links are read (see
    ``_links``), so the cost is O(l) in the patient's links.
    """
    outgoing, incoming = _links(graph, encounter_id, EdgeKind.HAS_FOLLOWUP)
    seen = {encounter_id}
    names = AmbiguousChainError, "follow-up chain", "follow-up"
    before = _walk(incoming, outgoing, encounter_id, seen, *names)
    after = _walk(outgoing, incoming, encounter_id, seen, *names)
    return _stored(graph, [*before[::-1], encounter_id, *after])


@guarded("encounter_id")
def cause_trace(graph: JourneyGraph, encounter_id: str) -> list[Encounter]:
    """The causal path from an encounter back to its root cause, inclusive.

    Follows caused-by edges from effect to cause; raises
    :class:`AmbiguousTraceError` when an encounter on the walk has two or
    more outgoing caused-by edges.  Only the owner's links are read (see
    ``_links``), so the cost is O(l) in the patient's links.
    """
    causes, _ = _links(graph, encounter_id, EdgeKind.CAUSED_BY)
    names = AmbiguousTraceError, "cause trace", "caused-by"
    return _stored(graph, [encounter_id, *_walk(causes, {}, encounter_id, {encounter_id}, *names)])


@guarded("patient_id")
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


@guarded("patient_id")
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
        candidates = [e for _, _, e in graph._date_rows(list(graph.encounters))]
    if not candidates:
        return []  # whatever the filters hold: none is read
    # Each name filter folded once, not once per encounter or diagnosis.
    wanted_specialty = specialty.casefold() if specialty is not None else None
    wanted_diagnosis = diagnosis_name.casefold() if diagnosis_name is not None else None
    matches = []
    for encounter in candidates:
        if wanted_specialty is not None and encounter.specialty.casefold() != wanted_specialty:
            continue
        if wanted_diagnosis is not None and not any(
            d.diagnosis_name.casefold() == wanted_diagnosis for d in encounter.diagnoses
        ):
            continue
        if date_from is not None and encounter.date < date_from:
            continue
        if date_to is not None and encounter.date > date_to:
            continue
        matches.append(encounter.encounter_id)
    return matches
