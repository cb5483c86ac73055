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
from operator import attrgetter, is_

from .codes import CodeSystem, duplicate_cuis
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
    KIND_TEXT,
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
    Patient,
    Provider,
    shown,
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

# The warnings of the class annotation table, ``codes.CLASS_ANNOTATIONS``:
# the ontology's constant, whose codes the test suite checks, so every
# report carries these and no other annotation diagnostic.
ANNOTATION_WARNINGS = tuple(
    Diagnostic(
        Severity.WARNING,
        DUPLICATE_CUI_ANNOTATION,
        f"duplicate CUI annotation: {cui} annotates {' and '.join(class_names)}",
        "annotations",
    )
    for cui, class_names in sorted(duplicate_cuis().items())
)


FieldProblem = tuple[str, str, str]  # (relative location, code, message)

# -- scalar field rules -----------------------------------------------------
#
# Per scalar value type (per entry, for a string array), its rules in order,
# each (test, code, message, applies): ``test`` is source over the value
# ``v``, true when the rule is kept, and ``message`` an f-string over ``v``
# and the field's ``{name}``.  DOCUMENT rules apply to documents only, and
# MEMORY rules, that a value held in memory is of its type and can be
# written, to records only.
# A READ rule's test is the value read, which later rules see as ``v``.
# VALUE rules apply in memory too, REQUIRED ones to a required field or an
# entry.  The generators of ``pjo._codegen`` write from here the silent tests
# of the readers and of the field checks, joined, and a reporter per set of
# rules, for documents and for records, which words the first rule a value
# breaks once a silent test fails.
DOCUMENT, MEMORY, READ, VALUE, REQUIRED = "document", "memory", "read", "value", "required"
FORMAT_VERSION = "pjo-1"


def _held(test: str, kind: str) -> tuple:
    """The MEMORY rule that a value is ``kind``; a left-out (None) value is
    left to the nonempty rule."""
    return (f"v is None or {test}", INVALID_TYPE, f"{{name}} must be {kind}", MEMORY)


def _typed(test: str, kind: str) -> tuple:
    """The type rules of a value that a document and a record hold alike."""
    return _held(test, kind), (test, INVALID_TYPE, f"{{name}} must be {kind}", DOCUMENT)


def _text(test: str, kind: str, surrogates: str = DOCUMENT) -> tuple:
    """The rules on a value that is ``kind`` in memory and text in a document.
    The lone-surrogate rule applies where the value is text, ``surrogates``;
    it never fails on a value the nonempty rule refuses."""
    return (
        _held(test, kind),
        ("v.__class__ is str", INVALID_TYPE, "{name} must be a string", DOCUMENT),
        ("v", FIELD_INVALID, "{name} must be nonempty", REQUIRED),
        # A lone surrogate (from an escape such as "\ud800") cannot be written as UTF-8.
        ("v.isascii() or not _SURROGATE(v)",
         INVALID_VALUE, "{name} holds a lone surrogate", surrogates),
    )


# An integer of more digits than ``int`` converts to or from text by default
# cannot be written, and no document holds one.
_DIGITS = ("v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND",
           INVALID_VALUE, "{name} must have at most 4300 digits", MEMORY)  # fmt: skip
_STRING = _text("v.__class__ is str", "a string", VALUE)
RULES = {
    STR: _STRING,
    STRS: _STRING,
    INT: (*_typed("v.__class__ is int", "an integer"), _DIGITS),
    NUMBER: (*_typed("v.__class__ is float or v.__class__ is int", "a number"),  # never a boolean
             _DIGITS),
    DATE: (*_text("v.__class__ is date", "a date"),
           ("_DATE_SHAPE(v)",
            INVALID_VALUE, "{v!r} is not an ISO-8601 date (YYYY-MM-DD)", DOCUMENT),
           ("_calendar_day(v)", INVALID_VALUE, "{v!r} is not a calendar date", READ)),
    ICD10: (*_text("v.__class__ is ConceptCode", "a ConceptCode"),
            ("ConceptCode(_ICD10, v)", None, None, READ),
            # A code held in memory is a string, as the reader makes every
            # one; the problem is worded as the reader words it.
            ("v.code.__class__ is str", INVALID_TYPE, "{name!r} must be a string", MEMORY),
            ("v.system is _ICD10", INVALID_VALUE,
             "{name} must be an ICD10 code, got a code of {shown(v.system)}", MEMORY),
            ("validate_icd10(v.code)", BAD_ICD10, "{v.code!r} is not a valid ICD10 code", VALUE)),
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


# The names the rules' tests use besides the field checks of ``records``.
_SURROGATE = re.compile("[\ud800-\udfff]").search
_INT_BOUND = 10**4300
_DATE_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}").fullmatch
_LINK_KINDS = {kind.value: kind for kind in EdgeKind}
_ICD10 = CodeSystem.ICD10
_CAUSED_BY = EdgeKind.CAUSED_BY  # for a test per link: an enum member is slow to read


def holder_rules(spec) -> list[tuple[type, str, str]]:
    """The MEMORY type rules of a field that holds a record or an array, each
    (class, code, message): the field's value must be of the class, then
    each entry of an array of records.  A held record is of the field's
    record type, or None unless required; an array is a list.  What a value
    holds is checked only when it keeps these.  ``pjo._codegen`` writes the
    field checks' silent tests of them."""
    if spec.type == OBJECT:
        return [(spec.record, INVALID_TYPE, f"{spec.key} must be a {spec.record.__name__}")]
    rules = [(list, INVALID_TYPE, f"{spec.key} must be a list")]
    if spec.type == OBJECTS:
        entry = spec.record.__name__
        rules.append((spec.record, INVALID_TYPE, f"{spec.key} entries must be a {entry}"))
    return rules


def field_problems(record) -> list[FieldProblem]:
    """The field rules ``record`` breaks, with locations relative to it: in
    it and the records it holds, the first value rule of ``RULES`` each value
    breaks.  A required string and every string-array entry must be nonempty,
    an ICD-10 code of that system and shape, and a checked value pass.  A
    held record, an array or an array entry of the wrong type is reported,
    and what it holds is not checked.  ``record`` is of any record type of
    ``FIELDS`` but ``Bundle``.

    The check generated per record type tests the whole record silently and
    returns True when every rule holds (see ``pjo._codegen.check_source``);
    only a record that fails it is walked by ``_walk_fields``, which
    words the problems."""
    if _PASSES[record.__class__](record):
        return []
    return _walk_fields(record, "", [])


def _walk_fields(record, at: str, problems: list[FieldProblem]) -> list[FieldProblem]:
    """``problems``, with the field rules ``record`` breaks added, located
    after ``at``: its fields in order, a scalar (or each string-array entry)
    by the reporter generated for its rules, and a held record, an array or
    an entry by ``holder_rules``, then what it holds."""
    for spec in FIELDS[record.__class__]:
        value, where = getattr(record, spec.attr), at + spec.key
        if spec.type not in (OBJECT, OBJECTS, STRS):
            if value is not None or spec.required:
                _report_value(spec, value, spec.key, where, problems)
            continue
        (held, code, message), *entries = holder_rules(spec)
        if value is None and spec.type == OBJECT and not spec.required:
            continue
        if value.__class__ is not held:
            problems.append((where, code, message))
        elif spec.type == OBJECT:
            _walk_fields(value, f"{where}.", problems)
        else:
            for i, entry in enumerate(value):
                if spec.type == STRS:
                    _report_value(spec, entry, f"{spec.key} entries", f"{where}[{i}]", problems)
                    continue
                ((held, code, message),) = entries
                if entry.__class__ is not held:
                    problems.append((f"{where}[{i}]", code, message))
                else:
                    _walk_fields(entry, f"{where}[{i}].", problems)
    return problems


def _report_value(spec, value, name: str, at: str, problems: list[FieldProblem]) -> None:
    """Add at ``at`` the first rule ``value``, a value (or string-array entry)
    of field ``spec`` worded with ``name``, breaks in memory, by the reporter
    generated for those rules, imported once a record fails its check."""
    from ._generated.reporters import MEMORY_REPORTERS

    problem = MEMORY_REPORTERS[spec.type, spec.required, spec.check](value, name)
    if problem is not None:
        problems.append((at, *problem))


# Each record table of a graph by attribute: its name in locations, its
# class, the problem of a record of another class stored in it, the noun
# messages name one of its records by, and a getter of a record's ID.
_TABLES = {
    attr: (name, held, f"{name} entries must be a {held.__name__}", noun,
           attrgetter(FIELDS[held][0].attr))
    for name, attr, held, noun in (
        ("patients", "patients", Patient, "patient"),
        ("providers", "providers", Provider, "provider"),
        ("intakeForms", "intake_forms", IntakeForm, "intake form"),
        ("encounters", "encounters", Encounter, "encounter"),
    )
}  # fmt: skip
# The code of an owned table's record without an owner.
_UNOWNED = {"intake_forms": UNOWNED_INTAKE_FORM, "encounters": UNOWNED_ENCOUNTER}


_UNKEYED = object()  # no key given: a key of None is located like any other


def refuse_misfiled(record, attr: str, key=_UNKEYED) -> None:
    """Raise ``FieldInvalidError`` if ``record`` is not of the class of the
    table ``attr``, located at ``key`` in it if given, as the checker
    locates it: the raising API stores nothing of another class."""
    name, held, message, _, _ = _TABLES[attr]
    if record.__class__ is not held:
        at = "" if key is _UNKEYED else f"{name}[{shown(key, format)}]: "
        raise FieldInvalidError(at + message)


def key_problems(record, key: str) -> list[FieldProblem]:
    """A record stored under ``key`` must have that ID (its first field).

    A record whose ID differs is written out under its ID, where references
    to the key no longer find it.
    """
    id_field = FIELDS[record.__class__][0]
    value = getattr(record, id_field.attr)
    if value != key:
        message = f"{id_field.key} {shown(value)} differs from its key {shown(key)}"
        return [(id_field.key, FIELD_INVALID, message)]
    return []


class _Checks(dict):
    """The generated field check of each record class, imported on first
    use: the bundle parser never needs them."""

    __slots__ = ()

    def __missing__(self, record_type):
        from ._generated.field_problems import CHECKS

        self.update(CHECKS)
        return CHECKS[record_type]


_PASSES = _Checks()


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
    return f"{subject} missing encounter {shown(encounter_id)}"


def _arrow(edge: JourneyEdge) -> str:
    """How messages name a link: ``next link 'A' -> 'B'``."""
    return f"{KIND_TEXT[edge.kind]} link {edge.from_encounter!r} -> {edge.to_encounter!r}"


def link_problems(graph: JourneyGraph, edge: JourneyEdge) -> list[FieldProblem] | tuple[()]:
    """The join rules ``edge`` breaks in ``graph``, or an empty tuple when it
    breaks none.

    An end the graph does not hold is located at that end, ``from`` or
    ``to``, and a link with one is checked no further; so is a self-link.
    The other problems are located at the link itself: its ends owned by
    two patients, or none, and its ends' dates against the order of its
    kind, compared only when both are a ``date`` (a date that is not broke
    its type rule, which reported it).  An end holding a value without a
    ``date``, such as a record of another class or None, raises
    ``AttributeError`` (see ``guarded``).  Duplicates and cycles depend on
    the other edges, so the callers check those.
    """
    encounters, start, end = graph.encounters, edge.from_encounter, edge.to_encounter
    if start not in encounters or end not in encounters:
        return [
            (at, DANGLING_REFERENCE, missing_encounter("link references", key))
            for at, key in (("from", start), ("to", end))
            if key not in encounters
        ]
    if start == end:
        return [("", SELF_LINK, f"link connects {start!r} to itself")]
    problems: list[FieldProblem] | tuple[()] = ()
    owner = graph.encounter_owner.get(start)
    if owner is None or owner != graph.encounter_owner.get(end):
        problems = [("", CROSS_PATIENT_LINK, f"{_arrow(edge)} crosses patients")]
    first, last = encounters[start].date, encounters[end].date
    if (
        first.__class__ is date
        and last.__class__ is date
        and (first < last if edge.kind is _CAUSED_BY else first > last)
    ):
        dates = f"{first.isoformat()} and {last.isoformat()}"
        message = f"{_arrow(edge)} contradicts encounter dates {dates}"
        problems = [*problems, ("", TEMPORAL_VIOLATION, message)]
    return problems


def encounter_reference_problems(
    graph: JourneyGraph, encounter: Encounter, owner: Patient | None
) -> list[FieldProblem] | tuple[()]:
    """The join rules ``encounter`` breaks in ``graph``, or an empty tuple
    when it breaks none: a ``providerRef`` the graph does not hold, and a
    date before the birth date of ``owner``, its patient, if one is known.
    A value that broke its type rule, which reported it, names or dates
    nothing."""
    problems: list[FieldProblem] | tuple[()] = ()
    ref = encounter.provider_ref
    if ref.__class__ is str and ref and ref not in graph.providers:
        problems = [("providerRef", UNKNOWN_PROVIDER, f"providerRef {ref!r} does not resolve")]
    day = encounter.date
    if (
        owner is not None
        and day.__class__ is date
        and (birth := owner.birth_date).__class__ is date
        and day < birth
    ):
        dates = f"{day.isoformat()} precedes birth date {birth.isoformat()}"
        problems = [*problems, ("date", FIELD_INVALID, f"encounter date {dates}")]
    return problems


_RAISES = {
    DANGLING_REFERENCE: UnknownEncounterError,
    SELF_LINK: FieldInvalidError,
    CROSS_PATIENT_LINK: CrossPatientLinkError,
    TEMPORAL_VIOLATION: TemporalViolationError,
    UNKNOWN_PROVIDER: UnknownProviderError,
    FIELD_INVALID: FieldInvalidError,
    INVALID_TYPE: FieldInvalidError,
    INVALID_VALUE: FieldInvalidError,
}


def _raise_first(problems: list[FieldProblem] | tuple[()]) -> None:
    if problems:
        raise _RAISES[problems[0][1]](problems[0][2])


def _sorted_keys(keys) -> list:
    """``keys`` in order.  A damaged table may hold keys of types that do
    not compare: only when the plain sort fails are they sorted by
    ``_key_order``."""
    keys = list(keys)
    try:
        keys.sort()
    except TypeError:
        keys.sort(key=_key_order)
    return keys


def _key_order(key) -> tuple:
    """Strings first, in their order, then other keys by their ``repr``."""
    return (0, key) if key.__class__ is str else (1, shown(key))


def guarded(*names: str, providers: bool = False):
    """Decorate a read whose first argument is a graph: an ``AttributeError``,
    ``KeyError``, ``TypeError`` or ``ValueError`` that a damaged graph makes
    it raise becomes the checker's problem (see ``JourneyGraph.type_error``),
    in the scope of the IDs its arguments ``names`` hold, or of the whole
    graph when they hold none; with ``providers``, of every provider too.
    The documented errors, a ``PjoError``, pass through; a clean read pays
    one more call and one ``try``."""

    def decorate(read):
        params = read.__code__.co_varnames[: read.__code__.co_argcount]

        @functools.wraps(read)
        def guard(*args, **kwargs):
            try:
                return read(*args, **kwargs)
            except (AttributeError, KeyError, TypeError, ValueError) as error:
                given = {**dict(zip(params, args)), **kwargs}
                named = [given[name] for name in names if given.get(name) is not None]
                given[params[0]].type_error(error, named or None, providers)

        return guard

    return decorate


def oriented_edges(edges: list[JourneyEdge]) -> list[tuple[str, str]]:
    """Edges oriented forward in journey time: cause/predecessor first."""
    oriented = []
    for edge in edges:
        if edge.kind is _CAUSED_BY:
            oriented.append((edge.to_encounter, edge.from_encounter))
        else:
            oriented.append((edge.from_encounter, edge.to_encounter))
    return oriented


def keyed_edges(edges: list[JourneyEdge]) -> list[JourneyEdge]:
    """The links whose two ends are strings: a link whose end broke its type
    rule names no key, and joins no encounters."""
    return [e for e in edges if e.from_encounter.__class__ is str and e.to_encounter.__class__ is str]


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
_DATE = attrgetter("date")  # so a remembered date order is checked without a Python loop


class _OwnerIndex:
    """Per-patient references into the ownership maps and the links.

    ``encounters`` and ``forms`` map an owner to the keys it owns, in
    ``encounter_owner`` and ``intake_form_owner`` order; ``edges`` maps a
    patient to the links whose two ends it owns, in storage order; ``loose``
    holds both ends of every other link.  ``orders`` remembers, for an owner
    read in date order, its stored keys and their dates in (date, key)
    order; ``JourneyGraph._ordered`` checks each date against the live
    record on every read, so no record field is trusted unread.
    The index matches the graph while the three containers are the ones it
    was built from, with the write counts it holds for them.
    ``add_encounter``, ``add_intake_form`` and ``link`` update it in place:
    they write a container through the base ``dict`` or ``list`` method,
    skipping the counting wrapper, and add one to the container's count and
    to the index's.  So this index still matches, and any other index of
    the same container (a shallow copy's) sees the write and rebuilds.
    """

    __slots__ = (
        "encounters", "forms", "edges", "loose", "orders", "containers",
        "owner_writes", "form_owner_writes", "edge_writes",
    )  # fmt: skip

    def __init__(self, graph: JourneyGraph) -> None:
        # An owner that is not a string, which the checker reports, owns nothing.
        self.encounters: dict[str, list[str]] = {}
        for key, owner in graph.encounter_owner.items():
            if owner.__class__ is str:
                self.encounters.setdefault(owner, []).append(key)
        self.forms: dict[str, list[str]] = {}
        for key, owner in graph.intake_form_owner.items():
            if owner.__class__ is str:
                self.forms.setdefault(owner, []).append(key)
        self.edges: dict[str, list[JourneyEdge]] = {}
        self.loose: set[str] = set()
        owner_of = graph.encounter_owner.get
        for edge in graph.edges:
            start, end = edge.from_encounter, edge.to_encounter
            if start.__class__ is not str or end.__class__ is not str:
                continue  # an end that broke its type rule names no key
            owner = owner_of(start)
            if owner.__class__ is str and owner == owner_of(end):
                self.edges.setdefault(owner, []).append(edge)
            else:
                self.loose.update((start, end))
        # owner -> (dates, keys): two parallel tuples in (date, key) order
        self.orders: dict[str, tuple[tuple[date, ...], tuple]] = {}
        owners, form_owners, edges = graph.encounter_owner, graph.intake_form_owner, graph.edges
        self.containers = owners, form_owners, edges
        self.owner_writes = owners.writes
        self.form_owner_writes = form_owners.writes
        self.edge_writes = edges.writes

    def matches(self, graph: JourneyGraph) -> bool:
        owners, form_owners, edges = self.containers
        return (
            owners is graph.encounter_owner
            and form_owners is graph.intake_form_owner
            and edges is graph.edges
            and owners.writes == self.owner_writes
            and form_owners.writes == self.form_owner_writes
            and edges.writes == self.edge_writes
        )


@slotted
class JourneyGraph:
    """One store of patients, their intake forms, encounters, and links.

    ``encounter_owner`` and ``intake_form_owner`` map record keys to the
    owning patient ID; together they realize the ownership relations.

    Every container may be written to directly.  ``encounter_owner``,
    ``intake_form_owner`` and ``edges`` are a ``CountedDict``, a
    ``CountedDict`` and a ``CountedList``, which count every call to a
    mutating method; a plain dict or list given to the constructor or
    assigned as one of these attributes is stored as a counted copy.  The
    graph keeps a per-patient index of those three containers that is
    exact: after a direct write, or a replaced container, the next lookup
    rebuilds it in one O(V + E) pass, and ``add_encounter``,
    ``add_intake_form`` and ``link`` update it in place (see
    ``_OwnerIndex``).  So
    ``encounters_of``, ``edges_of``, ``intake_form_of`` and ``link`` cost
    O(the patient's records), and go by container key: a patient's
    encounters are the records stored under the keys ``encounter_owner``
    gives that patient.  The index also remembers each patient's
    encounters in (date, key) order, and checks that order against the live
    records on every read: the record under each key must hold the very
    ``date`` object the order was built from.  A read whose check fails
    sorts again.  Records are slotted, without ``__dict__``.
    """

    __slots__ = ("_index",)
    patients: dict[str, Patient] = Fresh(dict)
    providers: dict[str, Provider] = Fresh(dict)
    intake_forms: dict[str, IntakeForm] = Fresh(dict)
    encounters: dict[str, Encounter] = Fresh(dict)
    encounter_owner: dict[str, str] = Fresh(CountedDict)
    intake_form_owner: dict[str, str] = Fresh(CountedDict)
    edges: list[JourneyEdge] = Fresh(CountedList)

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

    def _admit(self, record, attr: str):
        """The key under which ``record`` may be stored in the table ``attr``:
        its ID.  Raises, as the checker words the problem, for a record of
        another class (see ``refuse_misfiled``); ``FieldInvalidError`` for
        its first field problem, as ``"<relative location>: <message>"``;
        and ``DuplicateIDError`` for an ID the table already holds.  A
        refused record pays its field check twice: the silent check, then
        the walk that words its problem."""
        _, held, _, noun, key_of = _TABLES[attr]
        if record.__class__ is not held:
            refuse_misfiled(record, attr)
        if not _PASSES[held](record) and (problems := field_problems(record)):
            raise FieldInvalidError(f"{problems[0][0]}: {problems[0][2]}")
        key = key_of(record)
        if key in getattr(self, attr):
            raise DuplicateIDError(f"{noun} ID {key!r} already exists")
        return key

    def _owner(self, patient_id: str) -> Patient:
        """The patient stored under ``patient_id``, to own a record being
        added.  Raises ``UnknownPatientError`` for an ID the graph does not
        hold, and the checker's problem with a record of another class
        stored under it (see ``refuse_misfiled``)."""
        patient = self.patients.get(patient_id)
        if patient.__class__ is not Patient:
            if patient_id not in self.patients:
                raise UnknownPatientError(f"unknown patient {patient_id!r}")
            refuse_misfiled(patient, "patients", patient_id)
        return patient

    def add_patient(self, patient: Patient) -> None:
        self.patients[self._admit(patient, "patients")] = patient

    def add_provider(self, provider: Provider) -> None:
        self.providers[self._admit(provider, "providers")] = provider

    def add_intake_form(self, patient_id: str, form: IntakeForm) -> None:
        self._owner(patient_id)
        form_id = self._admit(form, "intake_forms")
        index = self._owners()
        if patient_id in index.forms:
            raise DuplicateIDError(f"patient {patient_id!r} already has an intake form")
        self.intake_forms[form_id] = form
        form_owners = self.intake_form_owner
        if form_id in form_owners:
            # Re-owning a stray ownership entry keeps its place in the map;
            # the next lookup rebuilds the index in that order.
            form_owners[form_id] = patient_id
        else:
            dict.__setitem__(form_owners, form_id, patient_id)
            form_owners.writes += 1
            index.form_owner_writes += 1
            index.forms[patient_id] = [form_id]

    def add_encounter(self, patient_id: str, encounter: Encounter) -> None:
        """Store ``encounter`` as owned by the patient ``patient_id``.

        Raises, and stores nothing, as ``_owner`` does for the patient, as
        ``_admit`` does for the encounter, and then for its first problem of
        ``encounter_reference_problems``: an unknown ``providerRef``
        (``UnknownProviderError``) or a date before the owner's birth date
        (``FieldInvalidError``)."""
        patient = self._owner(patient_id)
        key = self._admit(encounter, "encounters")
        _raise_first(encounter_reference_problems(self, encounter, patient))
        index = self._index
        self.encounters[key] = encounter
        owners = self.encounter_owner
        # An index that is already stale stays so; one that matches is
        # updated in place unless a stray ownership entry is re-owned or a
        # stored link already names the key, which would move links between
        # patients: then the next lookup rebuilds it.
        if (
            index is not None
            and index.matches(self)
            and key not in owners
            and key not in index.loose
        ):
            dict.__setitem__(owners, key, patient_id)
            owners.writes += 1
            index.owner_writes += 1
            index.encounters.setdefault(patient_id, []).append(key)
            index.orders.pop(patient_id, None)
        else:
            owners[key] = patient_id

    @guarded("from_encounter", "to_encounter")
    def link(
        self,
        kind: EdgeKind,
        from_encounter: str,
        to_encounter: str,
        via: str | None = None,
    ) -> JourneyEdge:
        """Add a journey edge after checking it against the graph.

        Raises, and leaves ``edges`` untouched, on the first field rule the
        edge breaks (a ``kind`` that is not an ``EdgeKind``, an end or ``via``
        that is not a string), on the first problem ``link_problems`` finds
        (an unknown endpoint, a self-link, a link across patients or against
        the endpoint dates), or when the edge repeats a stored ``(kind, from,
        to)`` or closes a cycle.  An end that holds a record of another class
        raises the checker's problem with it (see ``guarded``).

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
        if not _PASSES[JourneyEdge](edge):
            _raise_first(field_problems(edge))
        _raise_first(link_problems(self, edge))
        encounters, owner = self.encounters, self.encounter_owner[from_encounter]
        first, last = encounters[from_encounter].date, encounters[to_encounter].date
        index = self._owners()
        owned = index.edges.get(owner, [])
        # One pass over the owner's links: find a duplicate and, for a
        # same-day link, collect the links among encounters of that day.
        day = first if first == last else None
        same_day: list[JourneyEdge] = []
        for e in owned:
            if (
                e.from_encounter == from_encounter
                and e.to_encounter == to_encounter
                and e.kind is kind
            ):
                raise DuplicateEdgeError(f"duplicate {_arrow(edge)}")
            if day is not None:
                start = encounters.get(e.from_encounter)
                end = encounters.get(e.to_encounter)
                if start is not None and end is not None and start.date == day == end.date:
                    same_day.append(e)
        if same_day:
            arcs = oriented_edges(same_day + [edge])
            if cyclic_nodes(list(dict.fromkeys(node for arc in arcs for node in arc)), arcs):
                raise CycleIntroducedError(f"{_arrow(edge)} introduces a cycle")
        edges = self.edges
        list.append(edges, edge)
        edges.writes += 1
        index.edge_writes += 1
        index.edges.setdefault(owner, owned).append(edge)
        return edge

    # -- lookup -----------------------------------------------------------

    def _date_rows(self, keys: list[str]) -> list[tuple[date, str, Encounter]]:
        """``(date, key, record)`` of each record stored under ``keys``, sorted;
        a key the table does not hold is left out.  Raises
        ``FieldInvalidError``, as ``add_encounter`` would, located at the
        record, for a date that is not a ``date``: it has no order; and the
        checker's problem with a record of another class, None included,
        which has no date."""
        encounters = self.encounters
        try:
            rows = [((e := encounters[key]).date, key, e) for key in keys if key in encounters]
        except AttributeError:
            for key in keys:
                if key in encounters:
                    refuse_misfiled(encounters[key], "encounters", key)
            raise
        for day, key, encounter in rows:
            if day.__class__ is not date:
                relative, _, message = next(p for p in field_problems(encounter) if p[0] == "date")
                raise FieldInvalidError(f"encounters[{shown(key, format)}].{relative}: {message}")
        try:
            rows.sort()
        except TypeError:  # keys of two types on one day
            rows.sort(key=lambda row: (row[0], _key_order(row[1])))
        return rows

    def _ordered(self, owner_id) -> tuple[tuple, list[Encounter]]:
        """The keys the owner owns that hold a stored record, and a fresh
        list of those records, in (date, key) order: ``_date_rows`` of the
        owner's keys.

        The owner index remembers the order it last built for the owner,
        as its dates and keys.  That order is kept while each key still
        holds a record whose date is the very ``date`` object remembered
        for it: the (date, key) pairs are then those of the build, so a
        fresh sort would give the same order of the live records.  A check
        that fails, or raises, builds the order again, raising as
        ``_date_rows`` does.  An order is remembered only when every owned
        key holds a record, so a record stored later under an owned key is
        never missed."""
        index = self._owners()
        order = index.orders.get(owner_id)
        if order is not None:
            days, keys = order
            try:
                records = list(map(self.encounters.get, keys))
                if all(map(is_, map(_DATE, records), days)):
                    return keys, records
            except Exception:  # the rebuild raises what it must
                pass
        owned = index.encounters.get(owner_id, ())
        if not owned:
            return (), []
        rows = self._date_rows(owned)
        days, keys, records = zip(*rows) if rows else ((), (), ())
        if len(rows) == len(owned):
            index.orders[owner_id] = days, keys
        return keys, list(records)

    def encounters_of(self, patient_id: str) -> list[Encounter]:
        """The encounters stored under the patient's keys in
        ``encounter_owner``, ordered by (date, key).  Raises
        ``FieldInvalidError`` if one of their dates is not a ``date``, or
        one of the keys holds a record of another class, None included: a
        stored None is a misfiled record, not a missing one."""
        if patient_id not in self.patients:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        return self._ordered(patient_id)[1]

    def encounters_by_owner(self) -> dict[str, list[Encounter]]:
        """Owned encounters grouped by owner ID, each group ordered as in
        ``encounters_of``; owners without a stored encounter are left out."""
        groups = {}
        for owner in self._owners().encounters:
            group = self._ordered(owner)[1]
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
        return list(self._edges_of(patient_id))

    def _edges_of(self, patient_id: str) -> list[JourneyEdge] | tuple[()]:
        """``edges_of`` without the copy: the owner index's own list (or an
        empty tuple), for a read that leaves it as it is."""
        if patient_id not in self.patients:
            raise UnknownPatientError(f"unknown patient {patient_id!r}")
        return self._owners().edges.get(patient_id, ())

    # -- validation -------------------------------------------------------

    def check_invariants(self) -> ValidationReport:
        """Check every stored record and link; never raises, never mutates.

        The report lists one diagnostic per violated invariant, in a
        deterministic order; a report without errors marks a valid graph.
        It is the join pass (see ``_check_joins``) with each record's
        ``field_problems`` reported just before its own joins.
        """
        return self._check(field_problems)

    def type_error(self, error: Exception, named: list | None, providers: bool = False):
        """Raise, from ``error``, ``FieldInvalidError`` for the first
        ``invalid-type`` error of ``check_invariants()`` in a read's scope
        (see ``_scope_errors``), or failing that its first ``field-invalid``
        one (a required value left out), or its first ``invalid-value`` one
        (such as an integer too long to write), worded ``"<location>:
        <message>"``; else ``error`` itself.  What a ``guarded`` read raises
        when a damaged graph made it fail."""
        errors = self._scope_errors(named, providers)
        for wanted in (INVALID_TYPE, FIELD_INVALID, INVALID_VALUE):
            for diagnostic in errors:
                if diagnostic.code == wanted:
                    raise FieldInvalidError(f"{diagnostic.location}: {diagnostic.message}") from error
        raise error

    def _scope_errors(self, named: list | None, providers: bool = False) -> list[Diagnostic]:
        """The errors of ``check_invariants()`` in a read's scope, in order.

        The scope holds the IDs ``named``: a patient with its intake forms,
        encounters and links (those of ``edges_of``), and an encounter with
        its owner's; or, when ``named`` is None, every patient, encounter and
        link.  With ``providers``, every provider too.  An error is in it when
        its location, less trailing ``.``-parts, is one of these records or
        links."""
        index = self._owners()
        keys = [*self.patients, *self.encounters, *self.encounter_owner]
        if named is not None:  # compared, not hashed: an argument may be a list
            keys = [key for key in keys if key in named]
        patient_ids = {key for key in keys if key in self.patients}
        owners = (self.encounter_owner.get(key) for key in keys)
        patient_ids.update(owner for owner in owners if owner.__class__ is str)
        heads = {f"encounters[{shown(key, format)}]" for key in keys}
        for pid in patient_ids:
            heads.add(f"patients[{shown(pid, format)}]")
            heads.update(f"intakeForms[{shown(k, format)}]" for k in index.forms.get(pid, ()))
            heads.update(f"encounters[{shown(k, format)}]" for k in index.encounters.get(pid, ()))
        linked = {id(edge) for pid in patient_ids for edge in index.edges.get(pid, ())}
        heads.update(
            f"links[{i}]" for i, edge in enumerate(self.edges) if named is None or id(edge) in linked
        )
        if providers:
            heads.update(f"providers[{shown(key, format)}]" for key in self.providers)
        errors = []
        for diagnostic in self.check_invariants().errors:
            head = diagnostic.location
            while head not in heads and "." in head:
                head = head.rpartition(".")[0]
            if head in heads:
                errors.append(diagnostic)
        return errors

    def _check_joins(self) -> ValidationReport:
        """The join pass: ``check_invariants`` without the field rules.

        It checks record keys, ownership, references, links, cycles and
        gaps.  On a graph whose records all pass
        ``field_problems`` its report equals ``check_invariants()``; the
        bundle parser, whose reader has applied the field rules, runs only
        this pass.
        """
        return self._check(lambda record: [])

    def _check(self, fields) -> ValidationReport:
        """The checker's report, with ``fields(record)`` as the field rules.
        A record stored in a table of another class is reported as
        ``invalid-type`` and left out of the other rules, which read each
        record as of its table's class."""
        report, graph, tables = ValidationReport(), self, {}
        for attr, (name, record_type, message, _, _) in _TABLES.items():
            records = getattr(self, attr)
            misfiled = _sorted_keys(k for k in records if records[k].__class__ is not record_type)
            for key in misfiled:
                report.error(INVALID_TYPE, message, f"{name}[{shown(key, format)}]")
            if misfiled:
                tables[attr] = {key: records[key] for key in records if key not in misfiled}
        if tables:
            graph = JourneyGraph(**{**{a: getattr(self, a) for a in self._attrs}, **tables})
        report.diagnostics.extend(ANNOTATION_WARNINGS)
        for name, records in (("patients", graph.patients), ("providers", graph.providers)):
            for key in _sorted_keys(records):
                record = records[key]
                for relative, code, message in fields(record) + key_problems(record, key):
                    report.error(code, message, f"{name}[{shown(key, format)}].{relative}")
        graph._check_intake_forms(report, fields)
        graph._check_encounters(report, fields)
        graph._check_edges(report, fields)
        graph._check_gaps(report)
        return report

    def _check_intake_forms(self, report: ValidationReport, fields) -> None:
        owners_seen: dict[str, str] = {}
        for form_id in _sorted_keys(self.intake_forms):
            location = f"intakeForms[{shown(form_id, format)}]"
            form = self.intake_forms[form_id]
            for relative, code, message in fields(form) + key_problems(form, form_id):
                report.error(code, message, f"{location}.{relative}")
            owner = self.intake_form_owner.get(form_id)
            if self._check_owner(report, "intake_forms", form_id, owner, location):
                continue
            if owner in owners_seen:
                report.error(
                    FIELD_INVALID,
                    f"patient {owner!r} has multiple intake forms "
                    f"({shown(owners_seen[owner])} and {shown(form_id)})",
                    f"patients[{owner}]",
                )
            else:
                owners_seen[owner] = form_id
        self._check_stray(report, "intake_forms", self.intake_form_owner)

    def _check_encounters(self, report: ValidationReport, fields) -> None:
        encounters, owners, patients = self.encounters, self.encounter_owner, self.patients
        for encounter_id in _sorted_keys(encounters):
            encounter = encounters[encounter_id]
            owner = owners.get(encounter_id)
            patient = patients.get(owner) if owner.__class__ is str else None
            problems = fields(encounter)
            joins = encounter_reference_problems(self, encounter, patient)
            if (
                not problems
                and not joins
                and patient is not None
                and encounter.encounter_id == encounter_id
            ):
                continue
            problems = [*problems, *key_problems(encounter, encounter_id), *joins]
            location = f"encounters[{shown(encounter_id, format)}]"
            for relative, code, message in problems:
                report.error(code, message, f"{location}.{relative}")
            self._check_owner(report, "encounters", encounter_id, owner, location)
        self._check_stray(report, "encounters", owners)

    def _check_owner(self, report: ValidationReport, attr: str, key, owner, location: str) -> bool:
        """Report at ``location`` the ownership rule that the record stored
        under ``key`` in the owned table ``attr`` breaks with ``owner``: it
        has none, one that is not a string, or an unknown patient.  Whether
        it broke one."""
        if owner.__class__ is str and owner in self.patients:
            return False
        record = f"{_TABLES[attr][3]} {shown(key)}"
        if owner is None:
            report.error(_UNOWNED[attr], f"{record} has no owner", location)
        elif owner.__class__ is not str:
            report.error(INVALID_TYPE, f"owner of {record} must be a string", location)
        else:
            report.error(UNKNOWN_PATIENT, f"{record} owned by unknown patient {owner!r}", location)
        return True

    def _check_stray(self, report: ValidationReport, attr: str, owners: dict) -> None:
        """Report each entry of ``owners``, the ownership map of the owned
        table ``attr``, whose record the table does not hold."""
        name, _, _, noun, _ = _TABLES[attr]
        for key in _sorted_keys(owners.keys() - getattr(self, attr).keys()):
            message = f"ownership entry references missing {noun} {shown(key)}"
            report.error(DANGLING_REFERENCE, message, f"{name}[{shown(key, format)}]")

    def _check_edges(self, report: ValidationReport, fields) -> None:
        """Each link's field rules (``fields``), then its join rules
        (``link_problems``), duplicate and ``via``; then cycles.

        A link that breaks a field rule is reported by those rules alone, at
        ``links[<i>].<key>``.  Kahn's algorithm runs over the same-day arcs,
        and over the whole graph (the links of ``keyed_edges``) only when
        those hold a cycle or an arc runs backward, is undated or broke a
        field rule: otherwise dates never decrease along a path, so every
        cycle lies within one day (the argument of ``link``).  The message
        names what whole-graph Kahn does.
        """
        encounters = self.encounters
        seen: set[tuple[EdgeKind, str, str]] = set()
        same_day: list[tuple[str, str]] = []  # oriented arcs within one day
        forward = True  # whether every arc so far runs forward in dated time
        for index, edge in enumerate(self.edges):
            problems = fields(edge)
            if problems:
                # Its date order and names go unchecked.  Whole-graph Kahn,
                # which takes it as running forward, checks its cycles if
                # its ends are strings.
                for relative, code, message in problems:
                    report.error(code, message, f"links[{index}].{relative}")
                forward = False
                continue
            problems = link_problems(self, edge)
            for _, code, message in problems:
                report.error(code, message, f"links[{index}]")
            if problems and problems[0][1] in (DANGLING_REFERENCE, SELF_LINK):
                continue  # no pair of encounters to compare
            start, end, kind = edge.from_encounter, edge.to_encounter, edge.kind
            source, target = encounters[start], encounters[end]
            first, last = source.date, target.date
            if (
                first.__class__ is not date
                or last.__class__ is not date
                or (problems and problems[-1][1] == TEMPORAL_VIOLATION)
            ):
                forward = False
            elif first == last:
                same_day.append((end, start) if kind is _CAUSED_BY else (start, end))
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
        in_cycle = cyclic_nodes(list(encounters), oriented_edges(keyed_edges(self.edges)))
        if in_cycle:
            report.error(
                CYCLE,
                "journey links form a cycle through: " + ", ".join(in_cycle),
                "links",
            )

    def _check_gaps(self, report: ValidationReport) -> None:
        linked = {(edge.from_encounter, edge.to_encounter) for edge in keyed_edges(self.edges)}
        for patient_id in _sorted_keys(self.patients):
            try:
                records = self._ordered(patient_id)[1]
            except FieldInvalidError:
                continue  # encounters that cannot be put in date order (see ``_date_rows``)
            for earlier, later in zip(records, records[1:]):
                first, second = earlier.encounter_id, later.encounter_id
                if first.__class__ is not str or second.__class__ is not str:
                    continue  # an ID that broke its type rule, which reported it, names no link
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
    )
