"""Journey graph storage, mutation operations, and the invariant checker.

The graph holds patients, providers, intake forms, encounters, ownership
maps, and typed journey edges.  Mutation methods (``add_patient``,
``add_encounter``, ``link``, ...) reject violations by raising;
``check_invariants`` re-checks a whole graph and reports every violation as
a diagnostic instead, so damaged graphs can be inspected rather than merely
refused.
"""

from __future__ import annotations

import functools
import re
from datetime import date
from enum import Enum

from .codes import (
    CLASS_ANNOTATIONS,
    AnnotationTable,
    CodeSystem,
    ConceptCode,
    duplicate_cuis,
    validate_icd10,
)
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
    DATE,
    FIELDS,
    ICD10,
    INT,
    KIND,
    NUMBER,
    OBJECT,
    OBJECTS,
    STR,
    STRS,
    VERSION,
    CarePlan,
    Diagnosis,
    Encounter,
    EdgeKind,
    Fresh,
    IntakeForm,
    JourneyEdge,
    OnDemand,
    Patient,
    Provider,
    define,
    edge_dates_consistent,
    slotted,
)


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@slotted(frozen=True)
class Diagnostic:
    severity: Severity
    code: str
    message: str
    location: str


class SeverityViews:
    """``errors`` and ``warnings`` views of a subclass's ``diagnostics``."""

    __slots__ = ()
    diagnostics: list[Diagnostic]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]


@slotted
class ValidationReport(SeverityViews):
    diagnostics: list[Diagnostic] = Fresh(list)

    @property
    def ok(self) -> bool:
        """A graph is valid exactly when the report carries no errors."""
        return not self.errors

    def error(self, code: str, message: str, location: str) -> None:
        self.diagnostics.append(Diagnostic(Severity.ERROR, code, message, location))

    def warning(self, code: str, message: str, location: str) -> None:
        self.diagnostics.append(Diagnostic(Severity.WARNING, code, message, location))


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

# -- scalar field rules -----------------------------------------------------
#
# Per scalar value type (per entry, for a string array), its rules in order,
# each (test, code, message, applies): ``test`` is source over the value
# ``v``, true when the rule is kept, and ``message`` an f-string over ``v``
# and the field's ``{name}``.  DOCUMENT rules apply to documents only, and
# MEMORY rules, that a value held in memory is of its type, to records only.
# A READ rule's test is the value read, which later rules see as ``v``.
# VALUE rules apply in memory too, REQUIRED ones to a required field or an
# entry.  The reader's silent test and reporter, and ``field_problems``,
# come from here; ``holder_rules`` gives the MEMORY rules of the fields that
# hold records or arrays.
DOCUMENT, MEMORY, READ, VALUE, REQUIRED = "document", "memory", "read", "value", "required"
FORMAT_VERSION = "pjo-1"


def _held(test: str, kind: str) -> tuple:
    """The MEMORY rule that a value is ``kind``; a left-out (None) value is
    left to the nonempty rule."""
    return (f"v is None or {test}", INVALID_TYPE, f"{{name}} must be {kind}", MEMORY)


def _typed(test: str, kind: str) -> tuple:
    """The type rules of a value that a document and a record hold alike."""
    return _held(test, kind), (test, INVALID_TYPE, f"{{name}} must be {kind}", DOCUMENT)


def _text(test: str, kind: str) -> tuple:
    """The rules on a value that is ``kind`` in memory and text in a document."""
    return (
        _held(test, kind),
        ("v.__class__ is str", INVALID_TYPE, "{name} must be a string", DOCUMENT),
        # A lone surrogate (from an escape such as "\ud800") cannot be written as UTF-8.
        ("v.isascii() or not _SURROGATE(v)",
         INVALID_VALUE, "{name} holds a lone surrogate", DOCUMENT),
        ("v", FIELD_INVALID, "{name} must be nonempty", REQUIRED),
    )


_STRING = _text("v.__class__ is str", "a string")
RULES = {
    STR: _STRING,
    STRS: _STRING,
    INT: _typed("v.__class__ is int", "an integer"),
    NUMBER: _typed("v.__class__ is float or v.__class__ is int", "a number"),  # never a boolean
    DATE: (*_text("v.__class__ is date", "a date"),
           ("_DATE_SHAPE(v)",
            INVALID_VALUE, "{v!r} is not an ISO-8601 date (YYYY-MM-DD)", DOCUMENT),
           ("_calendar_day(v)", INVALID_VALUE, "{v!r} is not a calendar date", READ)),
    ICD10: (*_text("v.__class__ is ConceptCode", "a ConceptCode"),
            ("ConceptCode(_ICD10, v)", None, None, READ),
            ("v.system is _ICD10 and validate_icd10(v.code)",
             BAD_ICD10, "{v.code!r} is not a valid ICD10 code", VALUE)),
    KIND: (*_text("v.__class__ is EdgeKind", "an EdgeKind"),
           ("_LINK_KINDS.get(v)",
            INVALID_VALUE, "link kind must be one of {sorted(_LINK_KINDS)}, got {v!r}", READ)),
    VERSION: (*_STRING,
              ("v == FORMAT_VERSION", UNSUPPORTED_FORMAT_VERSION,
               "unsupported format version {v!r}, expected {FORMAT_VERSION!r}", DOCUMENT)),
}  # fmt: skip


def _calendar_day(text: str) -> date | None:
    try:
        return date.fromisoformat(text)
    except ValueError:
        return None


# The names the rules' sources use, and each field check by its name.
RULE_NAMES = {
    "_SURROGATE": re.compile("[\ud800-\udfff]").search,
    "_DATE_SHAPE": re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch,
    "_LINK_KINDS": {kind.value: kind for kind in EdgeKind},
    "_ICD10": CodeSystem.ICD10, "ConceptCode": ConceptCode, "validate_icd10": validate_icd10,
    "_calendar_day": _calendar_day, "FORMAT_VERSION": FORMAT_VERSION,
    "date": date, "EdgeKind": EdgeKind,
    **{f.check.__name__: f.check for fields in FIELDS.values() for f in fields if f.check},
}  # fmt: skip


def field_rules(spec, document: bool, name: str) -> list[tuple]:
    """The rules on a value of scalar field ``spec`` (an entry, for a string
    array) in order, worded with ``name``: the document's when ``document``,
    else the record's.  The field's ``check``, if any, is the last value rule."""
    required = spec.required or spec.type == STRS
    kept = (DOCUMENT, READ, VALUE, REQUIRED) if document else (MEMORY, VALUE, REQUIRED)
    rules = [
        (test, code, message and message.replace("{name}", name), applies)
        for test, code, message, applies in RULES[spec.type]
        if applies in kept and (required or applies != REQUIRED)
    ]
    if spec.check is not None:
        check = spec.check.__name__
        rules.append((f"{check}(v) is None", FIELD_INVALID, f"{{{check}(v)}}", VALUE))
    return rules


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


def field_problems(record) -> list[FieldProblem]:
    """The field rules ``record`` breaks, with locations relative to it: in
    it and the records it holds, the first value rule of ``RULES`` each value
    breaks.  A required string and every string-array entry must be nonempty,
    an ICD-10 code of that system and shape, and a checked value pass.  A
    held record, an array or an array entry of the wrong type (see
    ``holder_rules``) is reported, and what it holds is not checked."""
    return _FIELD_PROBLEMS[record.__class__](record)


def key_problems(record, key: str) -> list[FieldProblem]:
    """A record stored under ``key`` must have that ID (its first field).

    A record whose ID differs is written out under its ID, where references
    to the key no longer find it.
    """
    id_field = FIELDS[record.__class__][0]
    value = getattr(record, id_field.attr)
    if value != key:
        message = f"{id_field.key} {value!r} differs from its key {key!r}"
        return [(id_field.key, FIELD_INVALID, message)]
    return []


def _report_line(test: str, at: str, code: str, message: str) -> str:
    """Source of a statement that reports the rule when ``test`` fails."""
    return f"if not ({test}): problems.append((f{at!r}, {code!r}, f{message!r}))"


def _rule_lines(record_type: type, var: str, where: str, depth: int) -> list[str]:
    """Source lines that check the record held in the local ``var``.

    ``where`` is the f-string text of the record's location prefix.  Held
    records and array entries are checked inline, in loops over their
    arrays, so the generated function is straight-line code per record
    type that formats a location only when a rule fails.  What a held
    record, an array or an entry holds is checked in the ``else`` (for a
    held record left out, the ``elif``) of its type rule's report.
    """
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
            body = _rule_lines(spec.record, inner, f"{at}.", depth + 1)
        else:
            at += f"[{{{index}}}]"
            if spec.type == STRS:
                loop = f"for {index}, v in enumerate({held}):"
                entry = _scalar_lines(spec, at, f"{spec.key} entries")
            else:
                ((test, code, message),) = entry_rules
                loop = f"for {index}, {inner} in enumerate({held}):"
                nested = _rule_lines(spec.record, inner, f"{at}.", depth + 1)
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


def _compile_field_problems(record_type: type):
    scope = {**RULE_NAMES, **{held.__name__: held for held in FIELDS}}
    lines = ["problems = []", *_rule_lines(record_type, "record", "", 0), "return problems"]
    source = "def problems(record):\n    " + "\n    ".join(lines)
    filename = f"<{record_type.__name__} field problems>"
    return define(source, filename, scope, "field_problems")["problems"]


# Defined on first use: the bundle parser never needs them.
_FIELD_PROBLEMS = OnDemand(_compile_field_problems)


def _dated(first, second) -> bool:
    """Whether both values keep the date type rule, so the join pass may
    compare them: a value that broke the rule was reported by it."""
    return first.__class__ is date and second.__class__ is date


def via_resolves(via: str, from_encounter: Encounter, to_encounter: Encounter) -> bool:
    """Whether ``via`` names a care plan or diagnosis in either endpoint.  An
    array or entry of the wrong type, which the field rules report, names
    nothing."""
    for encounter in (from_encounter, to_encounter):
        plans, diagnoses = encounter.care_plans, encounter.diagnoses
        if plans.__class__ is list:
            for plan in plans:
                if plan.__class__ is CarePlan and plan.plan_id == via:
                    return True
        if diagnoses.__class__ is list:
            for diagnosis in diagnoses:
                if diagnosis.__class__ is Diagnosis and diagnosis.diagnosis_name == via:
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
    dated = _dated(source.date, target.date)
    if dated and not edge_dates_consistent(edge.kind, source.date, target.date):
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
    dated = owner is not None and _dated(encounter.date, owner.birth_date)
    if dated and encounter.date < owner.birth_date:
        dates = f"{encounter.date.isoformat()} precedes birth date {owner.birth_date.isoformat()}"
        problems.append(("date", FIELD_INVALID, f"encounter date {dates}"))
    return problems


_RAISES = {
    DANGLING_REFERENCE: UnknownEncounterError,
    SELF_LINK: FieldInvalidError,
    CROSS_PATIENT_LINK: CrossPatientLinkError,
    TEMPORAL_VIOLATION: TemporalViolationError,
    UNKNOWN_PROVIDER: UnknownProviderError,
    FIELD_INVALID: FieldInvalidError,
    INVALID_TYPE: FieldInvalidError,
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
    a rule of its own.  ``link`` and the checker pass the arcs within one
    day; the checker passes all arcs when those hold a cycle or one is not
    forward in time.
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


def _counted(method):
    """``method``, adding one to the container's ``writes`` on each call."""

    @functools.wraps(method)
    def counted(self, *args, **kwargs):
        self.writes += 1
        return method(self, *args, **kwargs)

    return counted


def _counting(cls):
    """Make each of ``cls.MUTATORS``, a method of its base type, counted."""
    for name in cls.MUTATORS:
        setattr(cls, name, _counted(getattr(cls.__base__, name)))
    return cls


@_counting
class CountedDict(dict):
    """A dict whose ``writes`` counts calls to its mutating methods."""

    MUTATORS = (
        "__init__", "__setitem__", "__delitem__", "__ior__",
        "clear", "pop", "popitem", "setdefault", "update",
    )  # fmt: skip
    writes = 0


@_counting
class CountedList(list):
    """A list whose ``writes`` counts calls to its mutating methods."""

    MUTATORS = (
        "__init__", "__setitem__", "__delitem__", "__iadd__", "__imul__",
        "append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
    )  # fmt: skip
    writes = 0


# The graph containers the owner index is built from, and their types.
_COUNTED_FIELDS = {
    "encounter_owner": CountedDict,
    "intake_form_owner": CountedDict,
    "edges": CountedList,
}


class _OwnerIndex:
    """Per-patient references into the ownership maps and the links.

    ``encounters`` and ``forms`` map an owner to the keys it owns, in
    ``encounter_owner`` and ``intake_form_owner`` order; ``edges`` maps a
    patient to the links whose two ends it owns, in storage order; ``loose``
    holds both ends of every other link.  Record fields are never copied.
    The index matches the graph while the three containers are the ones it
    was built from with the write counts it last saw.
    """

    __slots__ = ("encounters", "forms", "edges", "loose", "containers", "writes")

    def __init__(self, graph: JourneyGraph) -> None:
        self.encounters: dict[str, list[str]] = {}
        for key, owner in graph.encounter_owner.items():
            self.encounters.setdefault(owner, []).append(key)
        self.forms: dict[str, list[str]] = {}
        for key, owner in graph.intake_form_owner.items():
            self.forms.setdefault(owner, []).append(key)
        self.edges: dict[str, list[JourneyEdge]] = {}
        self.loose: set[str] = set()
        owner_of = graph.encounter_owner.get
        for edge in graph.edges:
            owner = owner_of(edge.from_encounter)
            if owner is not None and owner == owner_of(edge.to_encounter):
                self.edges.setdefault(owner, []).append(edge)
            else:
                self.loose.update((edge.from_encounter, edge.to_encounter))
        self.containers = (graph.encounter_owner, graph.intake_form_owner, graph.edges)
        self.saw_writes()

    def _counts(self) -> tuple[int, int, int]:
        owners, form_owners, edges = self.containers
        return owners.writes, form_owners.writes, edges.writes

    def matches(self, graph: JourneyGraph) -> bool:
        owners, form_owners, edges = self.containers
        return (
            owners is graph.encounter_owner
            and form_owners is graph.intake_form_owner
            and edges is graph.edges
            and self.writes == self._counts()
        )

    def saw_writes(self) -> None:
        """Record the current write counts, after updating for a write."""
        self.writes = self._counts()


@slotted
class JourneyGraph:
    """One store of patients, their intake forms, encounters, and links.

    ``encounter_owner`` and ``intake_form_owner`` map record keys to the
    owning patient ID; together they realize the ownership relations.  The
    graph also carries the class annotation table it is checked against,
    defaulting to the canonical one.

    Every container may be written to directly.  ``encounter_owner``,
    ``intake_form_owner`` and ``edges`` are a ``CountedDict``, a
    ``CountedDict`` and a ``CountedList``, which count every call to a
    mutating method; a plain dict or list given to the constructor or
    assigned as one of these attributes is stored as a counted copy.  The
    graph keeps a per-patient index of those three containers that is
    exact: after a direct write, or a replaced container, the next lookup
    rebuilds it in one O(V + E) pass, and ``add_encounter``,
    ``add_intake_form`` and ``link`` update it in place.  So
    ``encounters_of``, ``edges_of``, ``intake_form_of`` and ``link`` cost
    O(the patient's records), and go by container key: a patient's
    encounters are the records stored under the keys ``encounter_owner``
    gives that patient.  Records themselves are read live, never indexed;
    they are slotted, without ``__dict__``.
    """

    __slots__ = ("_index",)
    patients: dict[str, Patient] = Fresh(dict)
    providers: dict[str, Provider] = Fresh(dict)
    intake_forms: dict[str, IntakeForm] = Fresh(dict)
    encounters: dict[str, Encounter] = Fresh(dict)
    encounter_owner: dict[str, str] = Fresh(CountedDict)
    intake_form_owner: dict[str, str] = Fresh(CountedDict)
    edges: list[JourneyEdge] = Fresh(CountedList)
    annotations: AnnotationTable = Fresh(lambda: dict(CLASS_ANNOTATIONS))

    def __post_init__(self) -> None:
        self._index: _OwnerIndex | None = None

    def __setattr__(self, name: str, value) -> None:
        counted = _COUNTED_FIELDS.get(name)
        if counted is not None and not isinstance(value, counted):
            value = counted(value)
        object.__setattr__(self, name, value)

    def _owners(self) -> _OwnerIndex:
        """The owner index, rebuilt first if the graph was written to directly."""
        index = self._index
        if index is None or not index.matches(self):
            index = self._index = _OwnerIndex(self)
        return index

    # -- mutation ---------------------------------------------------------

    def add_patient(self, patient: Patient) -> None:
        _raise_first(field_problems(patient))
        if patient.patient_id in self.patients:
            raise DuplicateIDError(f"patient ID {patient.patient_id!r} already exists")
        self.patients[patient.patient_id] = patient

    def add_provider(self, provider: Provider) -> None:
        _raise_first(field_problems(provider))
        if provider.provider_id in self.providers:
            raise DuplicateIDError(f"provider ID {provider.provider_id!r} already exists")
        self.providers[provider.provider_id] = provider

    def add_intake_form(self, patient_id: str, form: IntakeForm) -> None:
        if patient_id not in self.patients:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        problems = field_problems(form)
        if problems:
            raise FieldInvalidError(f"{problems[0][0]}: {problems[0][2]}")
        form_id = form.intake_form_id
        if form_id in self.intake_forms:
            raise DuplicateIDError(f"intake form ID {form_id!r} already exists")
        index = self._owners()
        if patient_id in index.forms:
            raise DuplicateIDError(f"patient {patient_id!r} already has an intake form")
        # Re-owning a stray ownership entry keeps its place in the map; the
        # next lookup rebuilds the index in that order.
        stray = form_id in self.intake_form_owner
        self.intake_forms[form_id] = form
        self.intake_form_owner[form_id] = patient_id
        if not stray:
            index.forms[patient_id] = [form_id]
            index.saw_writes()

    def add_encounter(self, patient_id: str, encounter: Encounter) -> None:
        patient = self.patients.get(patient_id)
        if patient is None:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        problems = field_problems(encounter)
        if problems:
            raise FieldInvalidError(f"{problems[0][0]}: {problems[0][2]}")
        key = encounter.encounter_id
        if key in self.encounters:
            raise DuplicateIDError(f"encounter ID {key!r} already exists")
        _raise_first(encounter_reference_problems(self, encounter, patient))
        index = self._index
        # An index that is already stale stays so; one that matches is
        # updated in place unless a stray ownership entry is re-owned or a
        # stored link already names the key, which would move links between
        # patients: then the next lookup rebuilds it.
        in_place = (
            index is not None
            and index.matches(self)
            and key not in self.encounter_owner
            and key not in index.loose
        )
        self.encounters[key] = encounter
        self.encounter_owner[key] = patient_id
        if in_place:
            index.encounters.setdefault(patient_id, []).append(key)
            index.saw_writes()

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

        Both checks look only at the owner's links, the stored links whose
        two ends that patient owns: a duplicate has the same ends, so it is
        among them.  The cycle check runs Kahn's algorithm only for a
        same-day link, and only over the owner's links among encounters of
        that day.  The temporal check orients every stored edge forward in
        time (see ``oriented_edges``), so along any oriented path dates never
        decrease.  A cycle through the new arc ``u -> v`` needs a path
        ``v -> ... -> u``, which forces every node on it, ``u`` and ``v``
        included, onto one date: date order is already a topological order
        of the rest.  On every graph ``check_invariants`` accepts, every
        stored link joins two encounters of one patient in date order, so
        the scoped check refuses exactly the links that whole-graph Kahn
        would.  On a graph it rejects the two can differ: a cycle that runs
        through a stored link across patients or against the dates is not
        seen, so such a link is accepted where whole-graph Kahn refuses it.
        ``check_invariants`` reasons the same way (see ``_check_edges``).
        """
        edge = JourneyEdge(kind, from_encounter, to_encounter, via)
        _raise_first(link_problems(self, edge))
        owner = self.encounter_owner[from_encounter]
        index = self._owners()
        owned = index.edges.get(owner, [])
        # One pass over the owner's links: find a duplicate and, for a
        # same-day link, collect the links among encounters of that day.
        source, target = self.encounters[from_encounter], self.encounters[to_encounter]
        day = source.date if source.date == target.date else None
        same_day: list[JourneyEdge] = []
        for e in owned:
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
        index.edges.setdefault(owner, owned).append(edge)
        index.saw_writes()
        return edge

    # -- lookup -----------------------------------------------------------

    def _date_rows(self, keys: list[str]) -> list[tuple[date, str, Encounter]]:
        """``(date, key, record)`` of each record stored under ``keys``, sorted.
        Raises ``FieldInvalidError``, as ``add_encounter`` would, located at
        the record, for a date that is not a ``date``: it has no order."""
        encounters = self.encounters
        rows = [(e.date, key, e) for key in keys if (e := encounters.get(key)) is not None]
        for day, key, encounter in rows:
            if day.__class__ is not date:
                relative, _, message = next(p for p in field_problems(encounter) if p[0] == "date")
                raise FieldInvalidError(f"encounters[{key}].{relative}: {message}")
        rows.sort()
        return rows

    def encounters_of(self, patient_id: str) -> list[Encounter]:
        """The encounters stored under the patient's keys in
        ``encounter_owner``, ordered by (date, key).  Raises
        ``FieldInvalidError`` if one of their dates is not a ``date``."""
        if patient_id not in self.patients:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        return [e for _, _, e in self._date_rows(self._owners().encounters.get(patient_id, []))]

    def encounters_by_owner(self) -> dict[str, list[Encounter]]:
        """Owned encounters grouped by owner ID, each group ordered as in
        ``encounters_of``; owners without a stored encounter are left out."""
        groups = {}
        for owner, keys in self._owners().encounters.items():
            group = [encounter for _, _, encounter in self._date_rows(keys)]
            if group:
                groups[owner] = group
        return groups

    def intake_form_of(self, patient_id: str) -> IntakeForm | None:
        """The first stored intake form the patient owns, in
        ``intake_form_owner`` order, or None."""
        if patient_id not in self.patients:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        for form_id in self._owners().forms.get(patient_id, []):
            if form_id in self.intake_forms:
                return self.intake_forms[form_id]
        return None

    def patient_of(self, encounter_id: str) -> str:
        if encounter_id not in self.encounters:
            raise UnknownEncounterError(f"unknown encounter {encounter_id!r}")
        if (owner := self.encounter_owner.get(encounter_id)) is None:
            raise UnknownPatientError(f"encounter {encounter_id!r} has no owner")
        return owner

    def edges_of(self, patient_id: str) -> list[JourneyEdge]:
        """Edges whose endpoints are both owned by the patient, in storage order."""
        if patient_id not in self.patients:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        return list(self._owners().edges.get(patient_id, []))

    # -- validation -------------------------------------------------------

    def check_invariants(self) -> ValidationReport:
        """Check every stored record and link; never raises, never mutates.

        The report lists one diagnostic per violated invariant, in a
        deterministic order; a report without errors marks a valid graph.
        It is the join pass (see ``_check_joins``) with each record's
        ``field_problems`` reported just before its own joins.
        """
        return self._check(field_problems)

    def type_error(self, patient_ids: list[str], providers: bool) -> FieldInvalidError | None:
        """``FieldInvalidError`` for the checker's first ``invalid-type``
        error on the records of the patients ``patient_ids`` (each patient,
        its intake forms and its encounters) and, if ``providers``, on every
        provider, worded ``"<location>: <message>"``; None when it reports
        none.  What ``to_dot`` and ``serialize_bundle`` raise when writing
        those records failed."""
        index = self._owners()
        forms = [key for pid in patient_ids for key in index.forms.get(pid, ())]
        encounters = [key for pid in patient_ids for key in index.encounters.get(pid, ())]
        groups = (
            ("patients", self.patients, patient_ids),
            ("providers", self.providers, self.providers if providers else ()),
            ("intakeForms", self.intake_forms, forms),
            ("encounters", self.encounters, encounters),
        )
        for name, records, keys in groups:
            for key in sorted(keys):
                if key not in records:
                    continue
                for relative, code, message in field_problems(records[key]):
                    if code == INVALID_TYPE:
                        return FieldInvalidError(f"{name}[{key}].{relative}: {message}")
        return None

    def _check_joins(self) -> ValidationReport:
        """The join pass: ``check_invariants`` without the field rules.

        It checks the annotation table, record keys, ownership, references,
        links, cycles and gaps.  On a graph whose records all pass
        ``field_problems`` its report equals ``check_invariants()``; the
        bundle parser, whose reader has applied the field rules, runs only
        this pass.
        """
        return self._check(lambda record: [])

    def _check(self, fields) -> ValidationReport:
        """The checker's report, with ``fields(record)`` as the field rules."""
        report = ValidationReport()
        self._check_annotations(report)
        for name, records in (("patients", self.patients), ("providers", self.providers)):
            for key in sorted(records):
                record = records[key]
                for relative, code, message in fields(record) + key_problems(record, key):
                    report.error(code, message, f"{name}[{key}].{relative}")
        self._check_intake_forms(report, fields)
        self._check_encounters(report, fields)
        self._check_edges(report)
        self._check_gaps(report)
        return report

    def _check_annotations(self, report: ValidationReport) -> None:
        for class_name in sorted(self.annotations):
            for code in self.annotations[class_name]:
                if code.is_valid():
                    continue
                by_system = {
                    CodeSystem.UMLS_CUI: BAD_CUI,
                    CodeSystem.ICD10: BAD_ICD10,
                    CodeSystem.FHIR_LABEL: BAD_FHIR_LABEL,
                }
                report.error(
                    by_system[code.system],
                    f"{code.code!r} is not a valid {code.system.value} code",
                    f"annotations[{class_name}]",
                )
        for cui, class_names in sorted(duplicate_cuis(self.annotations).items()):
            report.warning(
                DUPLICATE_CUI_ANNOTATION,
                f"duplicate CUI annotation: {cui} annotates {' and '.join(class_names)}",
                "annotations",
            )

    def _check_intake_forms(self, report: ValidationReport, fields) -> None:
        owners_seen: dict[str, str] = {}
        for form_id in sorted(self.intake_forms):
            location = f"intakeForms[{form_id}]"
            form = self.intake_forms[form_id]
            for relative, code, message in fields(form) + key_problems(form, form_id):
                report.error(code, message, f"{location}.{relative}")
            owner = self.intake_form_owner.get(form_id)
            if owner is None:
                report.error(UNOWNED_INTAKE_FORM, f"intake form {form_id!r} has no owner", location)
            elif owner not in self.patients:
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
        for form_id in sorted(self.intake_form_owner.keys() - self.intake_forms.keys()):
            report.error(
                DANGLING_REFERENCE,
                f"ownership entry references missing intake form {form_id!r}",
                f"intakeForms[{form_id}]",
            )

    def _check_encounters(self, report: ValidationReport, fields) -> None:
        encounters, owners, patients = self.encounters, self.encounter_owner, self.patients
        for encounter_id in sorted(encounters):
            encounter = encounters[encounter_id]
            owner = owners.get(encounter_id)
            patient = patients.get(owner)
            problems = fields(encounter)  # a clean encounter builds no other list
            if not problems and patient is not None and encounter.encounter_id == encounter_id:
                ref, day, birth = encounter.provider_ref, encounter.date, patient.birth_date
                if (not ref or ref in self.providers) and not (_dated(day, birth) and day < birth):
                    continue
            problems = (
                problems
                + key_problems(encounter, encounter_id)
                + encounter_reference_problems(self, encounter, patient)
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
        for encounter_id in sorted(owners.keys() - encounters.keys()):
            report.error(
                DANGLING_REFERENCE,
                missing_encounter("ownership entry references", encounter_id),
                f"encounters[{encounter_id}]",
            )

    def _check_edges(self, report: ValidationReport) -> None:
        """Each link's endpoint rules, duplicate and ``via``; then cycles.

        ``link_problems`` is asked only about a link whose ends are missing,
        equal, of two owners or out of date order.  Kahn's algorithm runs
        over the same-day arcs, and over the whole graph only when those
        hold a cycle or an arc runs backward or is undated: otherwise dates
        never decrease along a path, so every cycle lies within one day (the
        argument of ``link``).  The message names what whole-graph Kahn does.
        """
        encounters, owner_of = self.encounters, self.encounter_owner.get
        seen: set[tuple[EdgeKind, str, str]] = set()
        same_day: list[tuple[str, str]] = []  # oriented arcs within one day
        forward = True  # whether every arc so far runs forward in dated time
        for index, edge in enumerate(self.edges):
            start, end, kind = edge.from_encounter, edge.to_encounter, edge.kind
            source, target = encounters.get(start), encounters.get(end)
            clean = source is not None and target is not None and start != end
            if clean:
                arc, first, last = (start, end), source.date, target.date
                if kind is EdgeKind.CAUSED_BY:
                    arc, first, last = (end, start), last, first
                if not (_dated(first, last) and first <= last):
                    forward = clean = False
                elif first == last:
                    same_day.append(arc)
                clean = clean and (owner := owner_of(start)) is not None and owner == owner_of(end)
            if not clean:
                problems = link_problems(self, edge)
                for _, code, message in problems:
                    report.error(code, message, f"links[{index}]")
                if problems and problems[0][1] in (DANGLING_REFERENCE, SELF_LINK):
                    continue  # no pair of encounters to compare
            key = (kind, start, end)
            if key in seen:
                report.error(DUPLICATE_EDGE, f"duplicate {_arrow(edge)}", f"links[{index}]")
            seen.add(key)
            if edge.via is not None and not via_resolves(edge.via, source, target):
                report.warning(
                    UNRESOLVED_VIA,
                    f"via {edge.via!r} names no care plan or diagnosis in either endpoint",
                    f"links[{index}].via",
                )
        nodes = list(dict.fromkeys(node for arc in same_day for node in arc))
        if forward and not cyclic_nodes(nodes, same_day):
            return
        in_cycle = cyclic_nodes(list(encounters), oriented_edges(self.edges))
        if in_cycle:
            report.error(
                CYCLE,
                "journey links form a cycle through: " + ", ".join(in_cycle),
                "links",
            )

    def _check_gaps(self, report: ValidationReport) -> None:
        linked = {(edge.from_encounter, edge.to_encounter) for edge in self.edges}
        by_owner = self._owners().encounters
        for patient_id in sorted(self.patients):
            try:
                rows = self._date_rows(by_owner.get(patient_id, ()))
            except FieldInvalidError:
                continue  # encounters that cannot be put in date order (see ``_dated``)
            for (_, _, earlier), (_, _, later) in zip(rows, rows[1:]):
                first, second = earlier.encounter_id, later.encounter_id
                if (first, second) not in linked and (second, first) not in linked:
                    report.warning(
                        JOURNEY_GAP,
                        f"journey gap: no link between {first!r} "
                        f"({earlier.date.isoformat()}) and {second!r} "
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
