"""Journey graph storage, mutation operations, and the invariant checker.

The graph holds patients, providers, intake forms, encounters, ownership
maps, and typed journey edges.  Mutation methods (``add_patient``,
``add_encounter``, ``link``, ...) reject violations by raising;
``check_invariants`` re-checks a whole graph and reports every violation as
a diagnostic instead, so damaged graphs can be inspected rather than merely
refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .codes import CLASS_ANNOTATIONS, AnnotationTable, CodeSystem, duplicate_cuis
from .errors import (
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
from .records import (
    Encounter,
    EdgeKind,
    IntakeForm,
    JourneyEdge,
    Patient,
    Provider,
    check_years_of_experience,
    edge_dates_consistent,
    vital_sign_problems,
)


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    message: str
    location: str


class SeverityViews:
    """``errors`` and ``warnings`` views of a subclass's ``diagnostics``."""

    diagnostics: list[Diagnostic]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]


@dataclass
class ValidationReport(SeverityViews):
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """A graph is valid exactly when the report carries no errors."""
        return not self.errors


# Diagnostic codes.  The first block are errors, the second warnings.
BAD_CUI = "bad-cui"
BAD_FHIR_LABEL = "bad-fhir-label"
BAD_ICD10 = "bad-icd10"
CROSS_PATIENT_LINK = "cross-patient-link"
CYCLE = "cycle"
DANGLING_REFERENCE = "dangling-reference"
DUPLICATE_EDGE = "duplicate-edge"
DUPLICATE_ID = "duplicate-id"
FIELD_INVALID = "field-invalid"
MISSING_FIELD = "missing-field"
SELF_LINK = "self-link"
SYNTAX_ERROR = "syntax-error"
TEMPORAL_VIOLATION = "temporal-violation"
UNKNOWN_PATIENT = "unknown-patient"
UNKNOWN_PROVIDER = "unknown-provider"
UNOWNED_ENCOUNTER = "unowned-encounter"
UNOWNED_INTAKE_FORM = "unowned-intake-form"
UNSUPPORTED_FORMAT_VERSION = "unsupported-format-version"
INVALID_TYPE = "invalid-type"
INVALID_VALUE = "invalid-value"
REFERENCE_ERROR = "reference-error"

DUPLICATE_CUI_ANNOTATION = "duplicate-cui-annotation"
JOURNEY_GAP = "journey-gap"
UNKNOWN_FIELD = "unknown-field"
UNRESOLVED_VIA = "unresolved-via"


FieldProblem = tuple[str, str, str]  # (relative location, code, message)


def patient_problems(patient: Patient) -> list[FieldProblem]:
    problems: list[FieldProblem] = []
    if not patient.patient_id:
        problems.append(("patientID", FIELD_INVALID, "patientID must be nonempty"))
    if not patient.patient_name:
        problems.append(("patientName", FIELD_INVALID, "patientName must be nonempty"))
    return problems


def provider_problems(provider: Provider) -> list[FieldProblem]:
    problems: list[FieldProblem] = []
    if not provider.provider_id:
        problems.append(("providerID", FIELD_INVALID, "providerID must be nonempty"))
    if not provider.provider_name:
        problems.append(("providerName", FIELD_INVALID, "providerName must be nonempty"))
    years = provider.years_of_experience
    if years is not None and (message := check_years_of_experience(years)) is not None:
        problems.append(("yearsOfExperience", FIELD_INVALID, message))
    return problems


def intake_form_problems(form: IntakeForm) -> list[FieldProblem]:
    problems: list[FieldProblem] = []
    if not form.intake_form_id:
        problems.append(("intakeFormID", FIELD_INVALID, "intakeFormID must be nonempty"))
    history = form.medical_history
    for key, entries in (
        ("hadSurgery", history.had_surgery),
        ("chronicIllness", history.chronic_illness),
        ("medicationAllergies", history.medication_allergies),
        ("familyMedicalHistory", history.family_medical_history),
    ):
        for index, entry in enumerate(entries):
            if not entry:
                problems.append(
                    (
                        f"medicalHistory.{key}[{index}]",
                        FIELD_INVALID,
                        f"{key} entries must be nonempty",
                    )
                )
    social = form.social_history
    if not social.smoking_habit:
        problems.append(
            ("socialHistory.smokingHabit", FIELD_INVALID, "smokingHabit must be nonempty")
        )
    if not social.drinking_habit:
        problems.append(
            ("socialHistory.drinkingHabit", FIELD_INVALID, "drinkingHabit must be nonempty")
        )
    return problems


def encounter_problems(encounter: Encounter) -> list[FieldProblem]:
    """Field-level problems, with locations relative to the encounter."""
    problems: list[FieldProblem] = []
    if not encounter.encounter_id:
        problems.append(("encounterID", FIELD_INVALID, "encounterID must be nonempty"))
    if not encounter.specialty:
        problems.append(("specialty", FIELD_INVALID, "specialty must be nonempty"))
    if not encounter.provider_ref:
        problems.append(("providerRef", FIELD_INVALID, "providerRef must be nonempty"))
    for index, symptom in enumerate(encounter.symptoms):
        if not symptom.symptom_name:
            problems.append(
                (f"symptoms[{index}].symptomName", FIELD_INVALID, "symptomName must be nonempty")
            )
    for index, vital in enumerate(encounter.vitals):
        for field_name, message in vital_sign_problems(vital):
            problems.append((f"vitals[{index}].{field_name}", FIELD_INVALID, message))
    for index, test in enumerate(encounter.tests):
        if not test.test_name:
            problems.append(
                (f"tests[{index}].testName", FIELD_INVALID, "testName must be nonempty")
            )
    for index, diagnosis in enumerate(encounter.diagnoses):
        if not diagnosis.diagnosis_name:
            problems.append(
                (
                    f"diagnoses[{index}].diagnosisName",
                    FIELD_INVALID,
                    "diagnosisName must be nonempty",
                )
            )
        code = diagnosis.icd10
        if code is not None and not code.is_valid():
            problems.append(
                (
                    f"diagnoses[{index}].icd10",
                    BAD_ICD10,
                    f"{code.code!r} is not a valid {code.system.value} code",
                )
            )
    for index, medication in enumerate(encounter.medications):
        if not medication.medication_name:
            problems.append(
                (
                    f"medications[{index}].medicationName",
                    FIELD_INVALID,
                    "medicationName must be nonempty",
                )
            )
    for index, plan in enumerate(encounter.care_plans):
        if not plan.plan_id:
            problems.append(
                (f"carePlans[{index}].planID", FIELD_INVALID, "planID must be nonempty")
            )
    return problems


def via_resolves(via: str, from_encounter: Encounter, to_encounter: Encounter) -> bool:
    """Whether ``via`` names a care plan or diagnosis in either endpoint."""
    for encounter in (from_encounter, to_encounter):
        if any(plan.plan_id == via for plan in encounter.care_plans):
            return True
        if any(diagnosis.diagnosis_name == via for diagnosis in encounter.diagnoses):
            return True
    return False


def missing_encounter(subject: str, encounter_id: str) -> str:
    """The message for a reference to an encounter the graph does not hold."""
    return f"{subject} missing encounter {encounter_id!r}"


def _arrow(edge: JourneyEdge) -> str:
    """How messages name a link: ``next link 'A' -> 'B'``."""
    return f"{edge.kind.value} link {edge.from_encounter!r} -> {edge.to_encounter!r}"


def link_problems(graph: JourneyGraph, edge: JourneyEdge) -> list[FieldProblem]:
    """The endpoint rules ``edge`` breaks in ``graph``.

    A missing endpoint is located at its end, ``from`` or ``to``; the other
    problems at the link itself.  Duplicates and cycles depend on the other
    edges, so the callers check those.
    """
    source = graph.encounters.get(edge.from_encounter)
    target = graph.encounters.get(edge.to_encounter)
    if source is None or target is None:
        ends = (("from", edge.from_encounter, source), ("to", edge.to_encounter, target))
        return [
            (end, DANGLING_REFERENCE, missing_encounter("link references", encounter_id))
            for end, encounter_id, record in ends
            if record is None
        ]
    if edge.from_encounter == edge.to_encounter:
        return [("", SELF_LINK, f"link connects {edge.from_encounter!r} to itself")]
    problems: list[FieldProblem] = []
    owner = graph.encounter_owner.get(edge.from_encounter)
    if owner is None or owner != graph.encounter_owner.get(edge.to_encounter):
        problems.append(("", CROSS_PATIENT_LINK, f"{_arrow(edge)} crosses patients"))
    if not edge_dates_consistent(edge.kind, source.date, target.date):
        dates = f"{source.date.isoformat()} and {target.date.isoformat()}"
        message = f"{_arrow(edge)} contradicts encounter dates {dates}"
        problems.append(("", TEMPORAL_VIOLATION, message))
    return problems


def encounter_reference_problems(
    graph: JourneyGraph, encounter: Encounter, owner: Patient | None
) -> list[FieldProblem]:
    """The encounter's provider reference, and its date against its owner's birth date."""
    problems: list[FieldProblem] = []
    if encounter.provider_ref and encounter.provider_ref not in graph.providers:
        message = f"providerRef {encounter.provider_ref!r} does not resolve"
        problems.append(("providerRef", UNKNOWN_PROVIDER, message))
    if owner is not None and encounter.date < owner.birth_date:
        dates = f"{encounter.date.isoformat()} precedes birth date {owner.birth_date.isoformat()}"
        problems.append(("date", FIELD_INVALID, f"encounter date {dates}"))
    return problems


def key_problems(key: str, record_id: str, id_field: str) -> list[FieldProblem]:
    """A stored record whose ID differs from its key is written out under
    its ID, where references to the key no longer find it."""
    if record_id == key:
        return []
    return [(id_field, FIELD_INVALID, f"{id_field} {record_id!r} differs from its key {key!r}")]


_RAISES = {
    DANGLING_REFERENCE: UnknownEncounterError,
    SELF_LINK: FieldInvalidError,
    CROSS_PATIENT_LINK: CrossPatientLinkError,
    TEMPORAL_VIOLATION: TemporalViolationError,
    UNKNOWN_PROVIDER: UnknownProviderError,
    FIELD_INVALID: FieldInvalidError,
}


def _raise_first(problems: list[FieldProblem]) -> None:
    if problems:
        raise _RAISES[problems[0][1]](problems[0][2])


def oriented_edges(edges: list[JourneyEdge]) -> list[tuple[str, str]]:
    """Edges oriented forward in journey time: cause/predecessor first."""
    oriented = []
    for edge in edges:
        if edge.kind is EdgeKind.CAUSED_BY:
            oriented.append((edge.to_encounter, edge.from_encounter))
        else:
            oriented.append((edge.from_encounter, edge.to_encounter))
    return oriented


def cyclic_nodes(nodes: list[str], arcs: list[tuple[str, str]]) -> list[str]:
    """Nodes on or downstream of a directed cycle, by Kahn's algorithm.

    Empty exactly when the arc set is acyclic.  Only arcs between two
    distinct nodes of ``nodes`` are considered: a self arc is a self-link,
    a rule of its own.
    """
    known = set(nodes)
    out: dict[str, list[str]] = {node: [] for node in nodes}
    indegree = {node: 0 for node in nodes}
    for source, target in arcs:
        if source in known and target in known and source != target:
            out[source].append(target)
            indegree[target] += 1
    ready = [node for node in nodes if indegree[node] == 0]
    removed = 0
    while ready:
        node = ready.pop()
        removed += 1
        for target in out[node]:
            indegree[target] -= 1
            if indegree[target] == 0:
                ready.append(target)
    return sorted(node for node in nodes if indegree[node] > 0)


@dataclass
class JourneyGraph:
    """One store of patients, their intake forms, encounters, and links.

    ``encounter_owner`` and ``intake_form_owner`` map record IDs to the
    owning patient ID; together they realize the ownership relations.  The
    graph also carries the class annotation table it is checked against,
    defaulting to the canonical one.
    """

    patients: dict[str, Patient] = field(default_factory=dict)
    providers: dict[str, Provider] = field(default_factory=dict)
    intake_forms: dict[str, IntakeForm] = field(default_factory=dict)
    encounters: dict[str, Encounter] = field(default_factory=dict)
    encounter_owner: dict[str, str] = field(default_factory=dict)
    intake_form_owner: dict[str, str] = field(default_factory=dict)
    edges: list[JourneyEdge] = field(default_factory=list)
    annotations: AnnotationTable = field(default_factory=lambda: dict(CLASS_ANNOTATIONS))

    # -- mutation ---------------------------------------------------------

    def add_patient(self, patient: Patient) -> None:
        problems = patient_problems(patient)
        if problems:
            raise FieldInvalidError(problems[0][2])
        if patient.patient_id in self.patients:
            raise DuplicateIDError(f"patient ID {patient.patient_id!r} already exists")
        self.patients[patient.patient_id] = patient

    def add_provider(self, provider: Provider) -> None:
        problems = provider_problems(provider)
        if problems:
            raise FieldInvalidError(problems[0][2])
        if provider.provider_id in self.providers:
            raise DuplicateIDError(f"provider ID {provider.provider_id!r} already exists")
        self.providers[provider.provider_id] = provider

    def add_intake_form(self, patient_id: str, form: IntakeForm) -> None:
        if patient_id not in self.patients:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        problems = intake_form_problems(form)
        if problems:
            raise FieldInvalidError(f"{problems[0][0]}: {problems[0][2]}")
        if form.intake_form_id in self.intake_forms:
            raise DuplicateIDError(f"intake form ID {form.intake_form_id!r} already exists")
        if patient_id in self.intake_form_owner.values():
            raise DuplicateIDError(f"patient {patient_id!r} already has an intake form")
        self.intake_forms[form.intake_form_id] = form
        self.intake_form_owner[form.intake_form_id] = patient_id

    def add_encounter(self, patient_id: str, encounter: Encounter) -> None:
        patient = self.patients.get(patient_id)
        if patient is None:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        problems = encounter_problems(encounter)
        if problems:
            raise FieldInvalidError(f"{problems[0][0]}: {problems[0][2]}")
        if encounter.encounter_id in self.encounters:
            raise DuplicateIDError(f"encounter ID {encounter.encounter_id!r} already exists")
        _raise_first(encounter_reference_problems(self, encounter, patient))
        self.encounters[encounter.encounter_id] = encounter
        self.encounter_owner[encounter.encounter_id] = patient_id

    def link(
        self,
        kind: EdgeKind,
        from_encounter: str,
        to_encounter: str,
        via: str | None = None,
    ) -> JourneyEdge:
        """Add a journey edge after checking it against the graph.

        Raises, and leaves ``edges`` untouched, on the first problem
        ``link_problems`` finds (an unknown endpoint, a self-link, a link
        across patients or against the endpoint dates), or when the edge
        repeats a stored ``(kind, from, to)`` or closes a cycle.

        The cycle check runs Kahn's algorithm only for a same-day link, and
        only over the edges among encounters of that day.  The temporal check
        orients every stored edge forward in time (see ``oriented_edges``),
        so along any oriented path dates never decrease.  A cycle through the
        new arc ``u -> v`` needs a path ``v -> ... -> u``, which forces every
        node on it, ``u`` and ``v`` included, onto one date: date order is
        already a topological order of the rest.  On every graph this API
        can build (temporally consistent and acyclic), the scoped check
        therefore refuses exactly the links that whole-graph Kahn would.  A
        graph written to directly may break those premises; audit it with
        ``check_invariants``, which still runs Kahn over the whole graph.
        """
        edge = JourneyEdge(kind, from_encounter, to_encounter, via)
        _raise_first(link_problems(self, edge))
        # One pass: find a duplicate and, for a same-day link, collect the
        # edges among encounters of that day.
        source, target = self.encounters[from_encounter], self.encounters[to_encounter]
        day = source.date if source.date == target.date else None
        same_day: list[JourneyEdge] = []
        for e in self.edges:
            if (
                e.from_encounter == from_encounter
                and e.to_encounter == to_encounter
                and e.kind is kind
            ):
                raise DuplicateEdgeError(f"duplicate {_arrow(edge)}")
            if day is not None:
                start = self.encounters.get(e.from_encounter)
                end = self.encounters.get(e.to_encounter)
                if start is not None and end is not None and start.date == day == end.date:
                    same_day.append(e)
        if same_day:
            arcs = oriented_edges(same_day + [edge])
            if cyclic_nodes(list(dict.fromkeys(node for arc in arcs for node in arc)), arcs):
                raise CycleIntroducedError(f"{_arrow(edge)} introduces a cycle")
        self.edges.append(edge)
        return edge

    # -- lookup -----------------------------------------------------------

    def encounters_of(self, patient_id: str) -> list[Encounter]:
        """The patient's encounters ordered by (date, encounter ID)."""
        if patient_id not in self.patients:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        owned = [
            encounter
            for encounter in self.encounters.values()
            if self.encounter_owner.get(encounter.encounter_id) == patient_id
        ]
        return sorted(owned, key=lambda e: (e.date, e.encounter_id))

    def encounters_by_owner(self) -> dict[str, list[Encounter]]:
        """Owned encounters grouped by owner ID, each group ordered as in
        ``encounters_of``; grouped in one pass on each call, never cached."""
        groups: dict[str, list[Encounter]] = {}
        for encounter in self.encounters.values():
            owner = self.encounter_owner.get(encounter.encounter_id)
            if owner is not None:
                groups.setdefault(owner, []).append(encounter)
        for group in groups.values():
            group.sort(key=lambda e: (e.date, e.encounter_id))
        return groups

    def intake_form_of(self, patient_id: str) -> IntakeForm | None:
        if patient_id not in self.patients:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        for form_id, owner in self.intake_form_owner.items():
            if owner == patient_id and form_id in self.intake_forms:
                return self.intake_forms[form_id]
        return None

    def patient_of(self, encounter_id: str) -> str:
        if encounter_id not in self.encounters:
            raise UnknownEncounterError(f"unknown encounter {encounter_id!r}")
        return self.encounter_owner[encounter_id]

    def edges_of(self, patient_id: str) -> list[JourneyEdge]:
        """Edges whose endpoints are both owned by the patient."""
        if patient_id not in self.patients:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        return [
            edge
            for edge in self.edges
            if self.encounter_owner.get(edge.from_encounter) == patient_id
            and self.encounter_owner.get(edge.to_encounter) == patient_id
        ]

    # -- validation -------------------------------------------------------

    def check_invariants(self) -> ValidationReport:
        """Check every stored record and link; never raises, never mutates.

        The report lists one diagnostic per violated invariant, in a
        deterministic order; a report without errors marks a valid graph.
        """
        report = ValidationReport()

        def error(code: str, message: str, location: str) -> None:
            report.diagnostics.append(Diagnostic(Severity.ERROR, code, message, location))

        def warning(code: str, message: str, location: str) -> None:
            report.diagnostics.append(Diagnostic(Severity.WARNING, code, message, location))

        self._check_annotations(error, warning)
        for patient_id in sorted(self.patients):
            patient = self.patients[patient_id]
            for relative, code, message in patient_problems(patient) + key_problems(
                patient_id, patient.patient_id, "patientID"
            ):
                error(code, message, f"patients[{patient_id}].{relative}")
        for provider_id in sorted(self.providers):
            provider = self.providers[provider_id]
            for relative, code, message in provider_problems(provider) + key_problems(
                provider_id, provider.provider_id, "providerID"
            ):
                error(code, message, f"providers[{provider_id}].{relative}")
        self._check_intake_forms(error)
        self._check_encounters(error)
        self._check_edges(error, warning)
        self._check_gaps(warning)
        return report

    def _check_annotations(self, error, warning) -> None:
        for class_name in sorted(self.annotations):
            for code in self.annotations[class_name]:
                if code.is_valid():
                    continue
                by_system = {
                    CodeSystem.UMLS_CUI: BAD_CUI,
                    CodeSystem.ICD10: BAD_ICD10,
                    CodeSystem.FHIR_LABEL: BAD_FHIR_LABEL,
                }
                error(
                    by_system[code.system],
                    f"{code.code!r} is not a valid {code.system.value} code",
                    f"annotations[{class_name}]",
                )
        for cui, class_names in sorted(duplicate_cuis(self.annotations).items()):
            warning(
                DUPLICATE_CUI_ANNOTATION,
                f"duplicate CUI annotation: {cui} annotates {' and '.join(class_names)}",
                "annotations",
            )

    def _check_intake_forms(self, error) -> None:
        owners_seen: dict[str, str] = {}
        for form_id in sorted(self.intake_forms):
            location = f"intakeForms[{form_id}]"
            form = self.intake_forms[form_id]
            for relative, code, message in intake_form_problems(form) + key_problems(
                form_id, form.intake_form_id, "intakeFormID"
            ):
                error(code, message, f"{location}.{relative}")
            owner = self.intake_form_owner.get(form_id)
            if owner is None:
                error(UNOWNED_INTAKE_FORM, f"intake form {form_id!r} has no owner", location)
            elif owner not in self.patients:
                error(UNKNOWN_PATIENT, f"intake form {form_id!r} owned by unknown patient {owner!r}", location)
            elif owner in owners_seen:
                error(
                    FIELD_INVALID,
                    f"patient {owner!r} has multiple intake forms "
                    f"({owners_seen[owner]!r} and {form_id!r})",
                    f"patients[{owner}]",
                )
            else:
                owners_seen[owner] = form_id
        for form_id, owner in sorted(self.intake_form_owner.items()):
            if form_id not in self.intake_forms:
                error(
                    DANGLING_REFERENCE,
                    f"ownership entry references missing intake form {form_id!r}",
                    f"intakeForms[{form_id}]",
                )

    def _check_encounters(self, error) -> None:
        for encounter_id in sorted(self.encounters):
            encounter = self.encounters[encounter_id]
            location = f"encounters[{encounter_id}]"
            owner = self.encounter_owner.get(encounter_id)
            patient = self.patients.get(owner)
            for relative, code, message in (
                encounter_problems(encounter)
                + key_problems(encounter_id, encounter.encounter_id, "encounterID")
                + encounter_reference_problems(self, encounter, patient)
            ):
                error(code, message, f"{location}.{relative}")
            if owner is None:
                error(UNOWNED_ENCOUNTER, f"encounter {encounter_id!r} has no owner", location)
            elif patient is None:
                error(
                    UNKNOWN_PATIENT,
                    f"encounter {encounter_id!r} owned by unknown patient {owner!r}",
                    location,
                )
        for encounter_id, owner in sorted(self.encounter_owner.items()):
            if encounter_id not in self.encounters:
                error(
                    DANGLING_REFERENCE,
                    missing_encounter("ownership entry references", encounter_id),
                    f"encounters[{encounter_id}]",
                )

    def _check_edges(self, error, warning) -> None:
        seen: set[tuple[EdgeKind, str, str]] = set()
        for index, edge in enumerate(self.edges):
            location = f"links[{index}]"
            problems = link_problems(self, edge)
            for _, code, message in problems:
                error(code, message, location)
            if problems and problems[0][1] in (DANGLING_REFERENCE, SELF_LINK):
                continue  # no pair of encounters to compare
            key = (edge.kind, edge.from_encounter, edge.to_encounter)
            if key in seen:
                error(DUPLICATE_EDGE, f"duplicate {_arrow(edge)}", location)
            seen.add(key)
            if edge.via is not None and not via_resolves(
                edge.via, self.encounters[edge.from_encounter], self.encounters[edge.to_encounter]
            ):
                warning(
                    UNRESOLVED_VIA,
                    f"via {edge.via!r} names no care plan or diagnosis in either endpoint",
                    f"{location}.via",
                )
        in_cycle = cyclic_nodes(list(self.encounters), oriented_edges(self.edges))
        if in_cycle:
            error(
                CYCLE,
                "journey links form a cycle through: " + ", ".join(in_cycle),
                "links",
            )

    def _check_gaps(self, warning) -> None:
        connected: set[frozenset[str]] = set()
        for edge in self.edges:
            connected.add(frozenset((edge.from_encounter, edge.to_encounter)))
        by_owner = self.encounters_by_owner()
        for patient_id in sorted(self.patients):
            owned = by_owner.get(patient_id, [])
            for earlier, later in zip(owned, owned[1:]):
                pair = frozenset((earlier.encounter_id, later.encounter_id))
                if pair not in connected:
                    warning(
                        JOURNEY_GAP,
                        f"journey gap: no link between {earlier.encounter_id!r} "
                        f"({earlier.date.isoformat()}) and {later.encounter_id!r} "
                        f"({later.date.isoformat()})",
                        f"patients[{patient_id}]",
                    )


def structurally_equal(left: JourneyGraph, right: JourneyGraph) -> bool:
    """Equality up to storage order: keyed records compared by ID, edges as sets."""

    def edge_key(edge: JourneyEdge):
        return (edge.kind.value, edge.from_encounter, edge.to_encounter, edge.via or "")

    return (
        left.patients == right.patients
        and left.providers == right.providers
        and left.intake_forms == right.intake_forms
        and left.encounters == right.encounters
        and left.encounter_owner == right.encounter_owner
        and left.intake_form_owner == right.intake_form_owner
        and sorted(left.edges, key=edge_key) == sorted(right.edges, key=edge_key)
        and left.annotations == right.annotations
    )
