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
# field, whether it holds an array, the subrecord class name and the labels.
_DETAIL = {
    record_type: tuple(
        (attrgetter(spec.attr), spec.type == OBJECTS, spec.record.__name__)
        + _DETAIL_LABELS[spec.key]
        for spec in FIELDS[record_type]
        if spec.type in (OBJECT, OBJECTS)
    )
    for record_type in (IntakeForm, Encounter)
}


def _quote(value: str) -> str:
    if "\\" in value or '"' in value or "\n" in value:
        value = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{value}"'


class _Writer:
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


def to_dot(graph: JourneyGraph, patient_id: str | None = None, detail: str = "journey") -> str:
    """Render the graph (or one patient's journey) as DOT text."""
    if detail not in ("journey", "full"):
        raise ValueError(f"detail must be 'journey' or 'full', got {detail!r}")
    if patient_id is not None and patient_id not in graph.patients:
        raise UnknownPatientError(f"unknown patient {patient_id!r}")
    patient_ids = [patient_id] if patient_id is not None else sorted(graph.patients)

    encounters_by_owner = graph.encounters_by_owner()
    writer = _Writer()
    selected_encounters: set[str] = set()
    for pid in patient_ids:
        patient = graph.patients[pid]
        writer.node(pid, patient.patient_name, "Patient")
        form = graph.intake_form_of(pid)
        if form is not None:
            writer.node(form.intake_form_id, form.intake_form_id, "IntakeForm")
            writer.edge(pid, form.intake_form_id, "hasIntakeForm")
            if detail == "full":
                _detail(writer, form.intake_form_id, form)
        for encounter in encounters_by_owner.get(pid, []):
            selected_encounters.add(encounter.encounter_id)
            writer.node(encounter.encounter_id, encounter.encounter_id, "Encounter")
            writer.edge(pid, encounter.encounter_id, "hasEncounter")
            if detail == "full":
                _detail(writer, encounter.encounter_id, encounter)

    journey_edges = sorted(
        (
            edge
            for edge in graph.edges
            if edge.from_encounter in selected_encounters
            and edge.to_encounter in selected_encounters
        ),
        key=lambda e: (EDGE_LABELS[e.kind], e.from_encounter, e.to_encounter),
    )
    for edge in journey_edges:
        writer.edge(edge.from_encounter, edge.to_encounter, EDGE_LABELS[edge.kind])

    lines = ["digraph pjo {", "  rankdir=LR;"]
    lines.extend(writer.node_lines)
    lines.extend(writer.edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _detail(writer: _Writer, parent_id: str, record) -> None:
    """Draw each subrecord the record holds, linked from ``parent_id``."""
    numbered, node, edge = writer.numbered, writer.node, writer.edge
    for held_by, many, class_name, edge_label, label_of in _DETAIL[record.__class__]:
        held = held_by(record)
        for subrecord in held if many else (held,):
            node_id = numbered(class_name)
            node(node_id, label_of(subrecord) if label_of else node_id, class_name)
            edge(parent_id, node_id, edge_label)
