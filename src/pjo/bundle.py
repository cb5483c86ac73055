"""Reading and writing patient bundles, the on-disk form of a journey.

A bundle is a UTF-8 JSON document describing exactly one patient: the
patient record, the providers involved, an optional intake form, the dated
encounters, and the journey links between them.  Serialization is
canonical: keys appear in a fixed order, encounters are sorted by (date,
encounter ID), links by (kind, from, to), and optional fields are omitted
when absent, so equal graphs serialize to byte-identical documents.

Parsing never raises on malformed input; every problem is reported as a
diagnostic with a document path such as ``encounters[2].diagnoses[0].icd10``.
Unknown fields are dropped with a warning.  A graph is returned only when
no error-severity problem was found.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from datetime import date

from .codes import CodeSystem, ConceptCode, validate_icd10
from .errors import UnknownPatientError
from .graph import (
    BAD_ICD10,
    DANGLING_REFERENCE,
    DUPLICATE_ID,
    FIELD_INVALID,
    INVALID_TYPE,
    INVALID_VALUE,
    JourneyGraph,
    MISSING_FIELD,
    REFERENCE_ERROR,
    SYNTAX_ERROR,
    UNKNOWN_FIELD,
    UNSUPPORTED_FORMAT_VERSION,
    Diagnostic,
    Severity,
    SeverityViews,
    ValidationReport,
    link_problems,
    missing_encounter,
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
    EdgeKind,
    Encounter,
    Field,
    IntakeForm,
    JourneyEdge,
    Patient,
    Provider,
)

FORMAT_VERSION = "pjo-1"

_DATE_PATTERN = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
# A lone surrogate decodes from a JSON escape such as "\ud800" but cannot be
# encoded as UTF-8, so a string holding one could not be written back out.
_SURROGATE = re.compile("[\ud800-\udfff]")
_LINK_KINDS = {kind.value: kind for kind in EdgeKind}


@dataclass
class ParseResult(SeverityViews):
    """Outcome of parsing a bundle: a graph when no errors were found.

    ``report`` is the invariant checker's report on that graph, whose
    errors were already copied into ``problems``.
    """

    graph: JourneyGraph | None
    problems: list[Diagnostic] = field(default_factory=list)
    report: ValidationReport | None = None

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return self.problems

    @property
    def ok(self) -> bool:
        return self.graph is not None


# -- serialization --------------------------------------------------------


def serialize_bundle(graph: JourneyGraph, patient_id: str) -> str:
    """Render one patient's journey as a canonical bundle document."""
    patient = graph.patients.get(patient_id)
    if patient is None:
        raise UnknownPatientError(f"unknown patient {patient_id!r}")
    doc: dict = {"formatVersion": FORMAT_VERSION, "patient": _doc(patient)}
    doc["providers"] = [_doc(graph.providers[pid]) for pid in sorted(graph.providers)]
    form = graph.intake_form_of(patient_id)
    if form is not None:
        doc["intakeForm"] = _doc(form)
    doc["encounters"] = [_doc(e) for e in graph.encounters_of(patient_id)]
    doc["links"] = [
        _doc(edge)
        for edge in sorted(
            graph.edges_of(patient_id),
            key=lambda e: (e.kind.value, e.from_encounter, e.to_encounter),
        )
    ]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _doc(record) -> dict:
    """A record's document: unset fields left out, keys in canonical order."""
    doc: dict = {}
    for key, attr, _, _, write in _SCHEMA[record.__class__][1]:
        value = getattr(record, attr)
        if value is not None and write is not None:
            value = write(value)
        if value is not None:
            doc[key] = value
    return doc


_WRITERS = {
    DATE: date.isoformat,
    ICD10: lambda code: code.code,
    KIND: lambda kind: kind.value,
    STRS: list,
    OBJECT: lambda record: _doc(record) or None,
    OBJECTS: lambda records: [_doc(record) for record in records],
}


# -- parsing --------------------------------------------------------------


class _Problems:
    def __init__(self) -> None:
        self.items: list[Diagnostic] = []

    def error(self, path: str, code: str, message: str) -> None:
        self.items.append(Diagnostic(Severity.ERROR, code, message, path))

    def warning(self, path: str, code: str, message: str) -> None:
        self.items.append(Diagnostic(Severity.WARNING, code, message, path))

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.items)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _warn_unknown(obj: dict, known, path: str, problems: _Problems) -> None:
    for key in obj:
        if key not in known:
            shown = key.encode("utf-8", "backslashreplace").decode("utf-8")
            problems.warning(_join(path, shown), UNKNOWN_FIELD, f"unknown field {key!r} ignored")


# A field reads as its value, as _INVALID after a reported problem, or as
# _ABSENT when an optional scalar is left out.  A left-out array reads as
# empty, a left-out object as its empty record.
_INVALID = object()
_ABSENT = object()


def _walk(record_type: type, obj: dict, path: str, problems: _Problems):
    """The record ``obj`` describes, or None when a field could not be read.

    Unknown keys are warned about first; fields are then read in canonical
    key order, each reporting its own problems.  A bad array entry is left
    out of its array; after any error the parse returns no graph.
    """
    known, entries = _SCHEMA[record_type]
    if not known.issuperset(obj):
        _warn_unknown(obj, known, path, problems)
    values = {}
    valid = True
    for key, attr, spec, plain, _ in entries:
        value = obj.get(key)
        if plain and value.__class__ is str and (value or not spec.required) and value.isascii():
            values[attr] = value
            continue
        value = _read(spec, value, path, problems)
        if value is _INVALID:
            valid = False
        elif value is not _ABSENT:
            values[attr] = value
    return record_type(**values) if valid else None


def _read(spec: Field, value, path: str, problems: _Problems):
    """Check and convert one field's document value."""
    if value is None:
        if spec.required:
            problems.error(
                _join(path, spec.key), MISSING_FIELD, f"required field {spec.key!r} is missing"
            )
            return _INVALID
        if spec.type == OBJECT:
            return spec.record()
        return [] if spec.type in (STRS, OBJECTS) else _ABSENT
    value = _READERS[spec.type](spec, value, path, problems)
    if spec.check is not None and value is not _INVALID:
        message = spec.check(value)
        if message is not None:
            problems.error(_join(path, spec.key), FIELD_INVALID, message)
            return _INVALID
    return value


def _read_str(spec: Field, value, path: str, problems: _Problems):
    if not isinstance(value, str):
        problems.error(_join(path, spec.key), INVALID_TYPE, f"{spec.key!r} must be a string")
        return _INVALID
    if spec.required and not value:
        problems.error(_join(path, spec.key), FIELD_INVALID, f"{spec.key!r} must be nonempty")
        return _INVALID
    if not value.isascii() and _SURROGATE.search(value):
        message = f"{spec.key!r} holds a lone surrogate"
        problems.error(_join(path, spec.key), INVALID_VALUE, message)
        return _INVALID
    return value


_NUMBERS = {INT: (int, "an integer"), NUMBER: ((int, float), "a number")}


def _read_number(spec: Field, value, path: str, problems: _Problems):
    accepted, name = _NUMBERS[spec.type]
    if isinstance(value, bool) or not isinstance(value, accepted):
        problems.error(_join(path, spec.key), INVALID_TYPE, f"{spec.key!r} must be {name}")
        return _INVALID
    return value


def _read_date(spec: Field, value, path: str, problems: _Problems):
    value = _read_str(spec, value, path, problems)
    if value is _INVALID:
        return value
    if not _DATE_PATTERN.fullmatch(value):
        problems.error(
            _join(path, spec.key),
            INVALID_VALUE,
            f"{value!r} is not an ISO-8601 date (YYYY-MM-DD)",
        )
        return _INVALID
    try:
        return date.fromisoformat(value)
    except ValueError:
        problems.error(_join(path, spec.key), INVALID_VALUE, f"{value!r} is not a calendar date")
        return _INVALID


def _read_icd10(spec: Field, value, path: str, problems: _Problems):
    value = _read_str(spec, value, path, problems)
    if value is _INVALID:
        return value
    if not validate_icd10(value):
        problems.error(_join(path, spec.key), BAD_ICD10, f"{value!r} is not a valid ICD10 code")
        return _INVALID
    return ConceptCode(CodeSystem.ICD10, value)


def _read_kind(spec: Field, value, path: str, problems: _Problems):
    value = _read_str(spec, value, path, problems)
    if value is _INVALID:
        return value
    kind = _LINK_KINDS.get(value)
    if kind is None:
        problems.error(
            _join(path, spec.key),
            INVALID_VALUE,
            f"link kind must be one of {sorted(_LINK_KINDS)}, got {value!r}",
        )
        return _INVALID
    return kind


def _read_strs(spec: Field, value, path: str, problems: _Problems):
    if not isinstance(value, list):
        problems.error(_join(path, spec.key), INVALID_TYPE, f"{spec.key!r} must be an array")
        return _INVALID
    base = _join(path, spec.key)
    items: list[str] = []
    for index, item in enumerate(value):
        if not isinstance(item, str):
            problems.error(f"{base}[{index}]", INVALID_TYPE, "entry must be a string")
        elif not item:
            problems.error(f"{base}[{index}]", FIELD_INVALID, "entry must be nonempty")
        elif not item.isascii() and _SURROGATE.search(item):
            problems.error(f"{base}[{index}]", INVALID_VALUE, "entry holds a lone surrogate")
        else:
            items.append(item)
    return items


def _read_object(spec: Field, value, path: str, problems: _Problems):
    if not isinstance(value, dict):
        problems.error(_join(path, spec.key), INVALID_TYPE, f"{spec.key!r} must be an object")
        return _INVALID
    record = _walk(spec.record, value, _join(path, spec.key), problems)
    return _INVALID if record is None else record


def _read_objects(spec: Field, value, path: str, problems: _Problems):
    if not isinstance(value, list):
        problems.error(_join(path, spec.key), INVALID_TYPE, f"{spec.key!r} must be an array")
        return _INVALID
    base = _join(path, spec.key)
    records = []
    for index, item in enumerate(value):
        if isinstance(item, dict):
            record = _walk(spec.record, item, f"{base}[{index}]", problems)
            if record is not None:
                records.append(record)
        else:
            problems.error(f"{base}[{index}]", INVALID_TYPE, "entry must be an object")
    return records


_READERS = {
    STR: _read_str,
    INT: _read_number,
    NUMBER: _read_number,
    DATE: _read_date,
    ICD10: _read_icd10,
    KIND: _read_kind,
    STRS: _read_strs,
    OBJECT: _read_object,
    OBJECTS: _read_objects,
}

# Per record type: the known keys, and one entry per field in canonical
# order: key, attribute, field, whether a string is taken as it is (a
# string field without a check), and the writer.
_SCHEMA = {
    record_type: (
        frozenset(spec.key for spec in fields),
        tuple(
            (
                spec.key,
                spec.attr,
                spec,
                spec.type == STR and spec.check is None,
                _WRITERS.get(spec.type),
            )
            for spec in fields
        ),
    )
    for record_type, fields in FIELDS.items()
}

# The top-level document.
_DOCUMENT_KEYS = ("formatVersion", "patient", "providers", "intakeForm", "encounters", "links")
_FORMAT_VERSION = Field("formatVersion", "", required=True)
_PATIENT = Field("patient", "", OBJECT, required=True, record=Patient)
_PROVIDERS = Field("providers", "", OBJECTS, record=Provider)
_INTAKE_FORM = Field("intakeForm", "", OBJECT, record=IntakeForm)
_ENCOUNTERS = Field("encounters", "", OBJECTS, record=Encounter)
_LINKS = Field("links", "", OBJECTS, record=JourneyEdge)


def parse_bundle(data: str | bytes) -> ParseResult:
    """Parse bundle text into a journey graph, collecting all problems."""
    problems = _Problems()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            problems.error("", SYNTAX_ERROR, f"document is not valid UTF-8: {exc.reason}")
            return ParseResult(None, problems.items)
    try:
        root = json.loads(data)
    except json.JSONDecodeError as exc:
        problems.error(
            "", SYNTAX_ERROR, f"document is not valid JSON: {exc.msg} at line {exc.lineno}"
        )
        return ParseResult(None, problems.items)
    except RecursionError:
        problems.error("", SYNTAX_ERROR, "document is nested too deeply to decode")
        return ParseResult(None, problems.items)
    except ValueError as exc:  # an integer past the interpreter's digit limit
        problems.error("", SYNTAX_ERROR, f"document could not be decoded: {exc}")
        return ParseResult(None, problems.items)
    if not isinstance(root, dict):
        problems.error("", INVALID_TYPE, "top-level value must be an object")
        return ParseResult(None, problems.items)

    _warn_unknown(root, _DOCUMENT_KEYS, "", problems)
    version = _read(_FORMAT_VERSION, root.get("formatVersion"), "", problems)
    if version is not _INVALID and version != FORMAT_VERSION:
        problems.error(
            "formatVersion",
            UNSUPPORTED_FORMAT_VERSION,
            f"unsupported format version {version!r}, expected {FORMAT_VERSION!r}",
        )
    patient = _read(_PATIENT, root.get("patient"), "", problems)
    providers = _read(_PROVIDERS, root.get("providers"), "", problems)
    intake_obj = root.get("intakeForm")
    intake_form = None if intake_obj is None else _read(_INTAKE_FORM, intake_obj, "", problems)
    encounters = _read(_ENCOUNTERS, root.get("encounters"), "", problems)
    links = _read(_LINKS, root.get("links"), "", problems)
    if problems.has_errors:
        return ParseResult(None, problems.items)

    graph, report = _assemble(patient, providers, intake_form, encounters, links, problems)
    if problems.has_errors:
        return ParseResult(None, problems.items)
    return ParseResult(graph, problems.items, report)


def _assemble(
    patient: Patient,
    providers: list[Provider],
    intake_form: IntakeForm | None,
    encounters: list[Encounter],
    links: list[JourneyEdge],
    problems: _Problems,
) -> tuple[JourneyGraph, ValidationReport]:
    """Join the records into a graph and report the checker's errors on it.

    Only duplicate IDs are found here: a graph keyed by ID cannot hold
    them.  Every other join rule is the invariant checker's; its errors are
    moved to document paths (``encounters[<id>]`` becomes
    ``encounters[<index>]``) and into document order.  A missing link
    endpoint, a ``dangling-reference`` at ``links[<i>]``, is reported as a
    ``reference-error`` at ``links[<i>].from`` or ``.to``.
    """
    graph = JourneyGraph()
    graph.patients[patient.patient_id] = patient
    for index, provider in enumerate(providers):
        if provider.provider_id in graph.providers:
            problems.error(
                f"providers[{index}].providerID",
                DUPLICATE_ID,
                f"provider ID {provider.provider_id!r} already used",
            )
        else:
            graph.providers[provider.provider_id] = provider
    if intake_form is not None:
        graph.intake_forms[intake_form.intake_form_id] = intake_form
        graph.intake_form_owner[intake_form.intake_form_id] = patient.patient_id

    # Errors on encounters, by document index: the duplicates the graph
    # cannot hold, and the checker's errors on the stored encounters.
    by_encounter: list[tuple[int, Diagnostic]] = []
    index_of: dict[str, int] = {}
    for index, encounter in enumerate(encounters):
        if encounter.encounter_id in graph.encounters:
            message = f"encounter ID {encounter.encounter_id!r} already used"
            at = f"encounters[{index}].encounterID"
            by_encounter.append((index, Diagnostic(Severity.ERROR, DUPLICATE_ID, message, at)))
        else:
            graph.encounters[encounter.encounter_id] = encounter
            graph.encounter_owner[encounter.encounter_id] = patient.patient_id
            index_of[f"encounters[{encounter.encounter_id}]"] = index
    graph.edges.extend(links)

    report = graph.check_invariants()
    rest: list[Diagnostic] = []
    for diagnostic in report.errors:
        head = location = diagnostic.location
        # Drop trailing fields until the head names a stored encounter, if
        # any; an encounter ID may itself hold dots.
        while head not in index_of and "." in head:
            head = head.rpartition(".")[0]
        if head in index_of:
            index = index_of[head]
            location = f"encounters[{index}]{location[len(head):]}"
            by_encounter.append((index, replace(diagnostic, location=location)))
        elif diagnostic.code != DANGLING_REFERENCE or not location.startswith("links["):
            rest.append(diagnostic)
        elif not (rest and rest[-1].location.startswith(f"{location}.")):
            # The first of a link's missing ends reports them all.
            edge = links[int(location[len("links[") : -1])]
            for end, _, _ in link_problems(graph, edge):
                named = edge.from_encounter if end == "from" else edge.to_encounter
                message = missing_encounter(f"link.{end} names", named)
                at = f"{location}.{end}"
                rest.append(Diagnostic(Severity.ERROR, REFERENCE_ERROR, message, at))
    by_encounter.sort(key=lambda item: item[0])
    problems.items.extend(diagnostic for _, diagnostic in by_encounter)
    problems.items.extend(rest)
    return graph, report
