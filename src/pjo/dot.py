"""Graphviz DOT rendering of journey graphs.

``journey`` detail draws one node per patient, intake form, and encounter,
with ownership edges (``hasIntakeForm``, ``hasEncounter``) and journey
edges labeled ``hasFollowup``, ``causedBy``, or ``NEXT``.  ``full`` detail
additionally draws the intake history sections and every clinical
subrecord, numbered per class in emission order (``Symptom-1``,
``Symptom-2``, ``VitalSign-1``, ...).

Output is deterministic: nodes and edges are emitted in a canonical order,
and every identifier and label is quoted and escaped, so arbitrary record
names produce valid DOT.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import UnknownPatientError
from .graph import JourneyGraph
from .records import EDGE_LABELS, FIELDS, OBJECT, OBJECTS, Encounter, IntakeForm

# Shape and fill color per class; every node also gets style=filled.
STYLE_TABLE = {
    "Patient": ("ellipse", "#cfe2f3"),
    "IntakeForm": ("note", "#fff2cc"),
    "MedicalHistory": ("note", "#ffe599"),
    "SocialHistory": ("note", "#ffe599"),
    "Encounter": ("box", "#d9ead3"),
    "Symptom": ("oval", "#f4cccc"),
    "VitalSign": ("oval", "#fce5cd"),
    "DiagTest": ("oval", "#d0e0e3"),
    "Diagnosis": ("oval", "#ead1dc"),
    "Medication": ("oval", "#d9d2e9"),
    "CarePlan": ("oval", "#e6b8af"),
}


# Each node line's text after its label: the class's shape and fill color.
_STYLE_TAILS = {
    class_name: f', shape={shape}, style=filled, fillcolor="{color}"];'
    for class_name, (shape, color) in STYLE_TABLE.items()
}

# ``full`` detail: per subrecord field of an intake form or encounter, the
# label of the edge to each subrecord it holds, and a getter of the label of
# the subrecord's node (None: the node's numbered ID).
_DETAIL_LABELS = {
    "medicalHistory": ("hasMedicalHistory", None),
    "socialHistory": ("hasSocialHistory", None),
    "symptoms": ("hasSymptom", attrgetter("symptom_name")),
    "vitals": ("hasVitals", None),
    "tests": ("hasTest", attrgetter("test_name")),
    "diagnoses": ("hasDiagnosis", attrgetter("diagnosis_name")),
    "medications": ("hasMedication", attrgetter("medication_name")),
    "carePlans": ("hasPlan", attrgetter("plan_id")),
}
# Per record type, its subrecord fields in canonical order: a getter of the
# field, whether it holds an array, the subrecord class name, the getter of
# its node's label, its node line's tail and its edge line's tail.
_DETAIL = {
    record_type: tuple(
        (
            attrgetter(spec.attr), spec.type == OBJECTS, spec.record.__name__,
            _DETAIL_LABELS[spec.key][1], _STYLE_TAILS[spec.record.__name__],
            f' [label="{_DETAIL_LABELS[spec.key][0]}"];',
        )
        for spec in FIELDS[record_type]
        if spec.type in (OBJECT, OBJECTS)
    )
    for record_type in (IntakeForm, Encounter)
}  # fmt: skip


def _quote(value: str) -> str:
    if "\\" in value or '"' in value or "\n" in value:
        value = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{value}"'


def to_dot(graph: JourneyGraph, patient_id: str | None = None, detail: str = "journey") -> str:
    """Render the graph (or one patient's journey) as DOT text.

    Each patient, intake form and encounter ID is quoted once, and its
    quoted text reused for its node and every edge that names it.  Numbered
    IDs and edge labels need no escaping; each line is one f-string.  A
    drawing that fails on a wrongly typed structure raises
    ``FieldInvalidError`` for the checker's first ``invalid-type`` error on
    the records drawn (see ``JourneyGraph.type_error``).
    """
    if detail not in ("journey", "full"):
        raise ValueError(f"detail must be 'journey' or 'full', got {detail!r}")
    if patient_id is not None and patient_id not in graph.patients:
        raise UnknownPatientError(f"unknown patient {patient_id!r}")
    patient_ids = [patient_id] if patient_id is not None else sorted(graph.patients)

    encounters_by_owner = graph.encounters_by_owner()
    try:
        return _draw(graph, patient_ids, encounters_by_owner, detail == "full")
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        problem = graph.type_error(patient_ids, providers=False)
        if problem is None:
            raise
        raise problem from error


def _draw(graph: JourneyGraph, patient_ids: list[str], encounters_by_owner, full: bool) -> str:
    """The DOT text of the patients ``patient_ids``, with their subrecords
    if ``full``."""
    nodes: list[str] = []
    edges: list[str] = []
    counts = dict.fromkeys(STYLE_TABLE, 0)  # subrecords numbered so far, per class
    patient_tail, form_tail, encounter_tail = (
        _STYLE_TAILS[class_name] for class_name in ("Patient", "IntakeForm", "Encounter")
    )
    quoted: dict[str, str] = {}  # each selected encounter's quoted ID
    for pid in patient_ids:
        patient, name = _quote(pid), _quote(graph.patients[pid].patient_name)
        nodes.append(f"  {patient} [label={name}{patient_tail}")
        form = graph.intake_form_of(pid)
        if form is not None:
            form_id = _quote(form.intake_form_id)
            nodes.append(f"  {form_id} [label={form_id}{form_tail}")
            edges.append(f'  {patient} -> {form_id} [label="hasIntakeForm"];')
            if full:
                _detail(nodes, edges, counts, form_id, form)
        for encounter in encounters_by_owner.get(pid, []):
            encounter_id = quoted[encounter.encounter_id] = _quote(encounter.encounter_id)
            nodes.append(f"  {encounter_id} [label={encounter_id}{encounter_tail}")
            edges.append(f'  {patient} -> {encounter_id} [label="hasEncounter"];')
            if full:
                _detail(nodes, edges, counts, encounter_id, encounter)

    journey_edges = sorted(
        (EDGE_LABELS[edge.kind], edge.from_encounter, edge.to_encounter)
        for edge in graph.edges
        if edge.from_encounter in quoted and edge.to_encounter in quoted
    )
    for label, source, target in journey_edges:
        edges.append(f'  {quoted[source]} -> {quoted[target]} [label="{label}"];')

    return "\n".join(["digraph pjo {", "  rankdir=LR;", *nodes, *edges, "}"]) + "\n"


def _detail(nodes: list[str], edges: list[str], counts: dict, parent: str, record) -> None:
    """Draw each subrecord the record holds, linked from ``parent``, the
    record's quoted ID; ``counts`` numbers the subrecords per class."""
    for held_by, many, class_name, label_of, node_tail, edge_tail in _DETAIL[record.__class__]:
        held = held_by(record)
        count = counts[class_name]
        for subrecord in held if many else (held,):
            count += 1
            node = f'"{class_name}-{count}"'
            label = _quote(label_of(subrecord)) if label_of else node
            nodes.append(f"  {node} [label={label}{node_tail}")
            edges.append(f"  {parent} -> {node}{edge_tail}")
        counts[class_name] = count
