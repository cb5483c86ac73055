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

from .errors import UnknownPatientError
from .graph import JourneyGraph
from .records import EDGE_LABELS, Encounter, IntakeForm

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


def _quote(value: str) -> str:
    escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


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
        self._counters[class_name] = self._counters.get(class_name, 0) + 1
        return f"{class_name}-{self._counters[class_name]}"


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
                _intake_detail(writer, form)
        for encounter in encounters_by_owner.get(pid, []):
            selected_encounters.add(encounter.encounter_id)
            writer.node(encounter.encounter_id, encounter.encounter_id, "Encounter")
            writer.edge(pid, encounter.encounter_id, "hasEncounter")
            if detail == "full":
                _encounter_detail(writer, encounter)

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
