"""Reading and writing patient bundles, the on-disk form of a journey.

A bundle is a UTF-8 JSON document describing exactly one patient: the
patient record, the providers involved, an optional intake form, the dated
encounters, and the journey links between them.  The document is itself a
record, ``records.Bundle``, read and written by the code generated from
``records.FIELDS`` for every record it holds.  Serialization is
canonical: keys appear in a fixed order, encounters are sorted by (date,
encounter ID), links by (kind, from, to), and optional fields are omitted
when absent, so equal graphs serialize to byte-identical documents.

Parsing never raises on malformed input; every problem is reported as a
diagnostic with a document path such as ``encounters[2].diagnoses[0].icd10``.
Unknown fields are dropped with a warning.  A graph is returned only when
no error-severity problem was found.
"""

from __future__ import annotations

import gc
import json

from .errors import UnknownPatientError
from .graph import (
    DANGLING_REFERENCE,
    DUPLICATE_ID,
    FORMAT_VERSION,
    INVALID_TYPE,
    JourneyGraph,
    MISSING_FIELD,
    REFERENCE_ERROR,
    RULES,
    SYNTAX_ERROR,
    UNKNOWN_FIELD,
    Diagnostic,
    Severity,
    SeverityViews,
    ValidationReport,
    guarded,
    link_problems,
    missing_encounter,
)
from .records import FIELDS, KIND_TEXT, OBJECT, STRS, Bundle, Field, Fresh, holds_required, slotted


@slotted
class ParseResult(SeverityViews):
    """Outcome of parsing a bundle: a graph when no errors were found.

    ``report`` is the invariant checker's report on that graph, equal to
    ``graph.check_invariants()``; its errors were already copied into
    ``problems``.
    """

    graph: JourneyGraph | None
    problems: list[Diagnostic] = Fresh(list)
    report: ValidationReport | None = None

    @property
    def diagnostics(self) -> list[Diagnostic]:
        return self.problems

    @property
    def ok(self) -> bool:
        return self.graph is not None


# -- serialization --------------------------------------------------------
#
# The text is written straight from the records, by the writers generated
# from ``FIELDS`` per record type and nesting level, imported on first use.  It
# equals ``json.dumps(document, indent=2, ensure_ascii=False)`` of the
# document the records describe: through Python 3.12 that call takes the
# pure-Python encoder whenever ``indent`` is set, which is several times
# slower.  An entry of an array of flat records is written with one f-string
# in its holder's loop, as the reader reads it there.  Each value has one
# way out, its type's text: a value the checker's type rules refuse fails
# the write (``_unwritable``).

# The string encoder ``json.dumps`` uses with ``ensure_ascii=False``: C code
# where the interpreter has it.
_encode = json.encoder.encode_basestring


@guarded("patient_id", providers=True)
def serialize_bundle(graph: JourneyGraph, patient_id: str) -> str:
    """Render one patient's journey as a canonical bundle document.

    The bundle's scope is the patient's records and links, and every
    provider.  A graph the checker rejects in that scope is never written
    as another, valid bundle: the write fails with the checker's problem
    (see ``graph.guarded``), or its text is one ``parse_bundle`` refuses.
    The one exception is an ownership entry naming no stored record, which
    a bundle has nowhere to hold.
    """
    if patient_id not in graph.patients:
        raise UnknownPatientError(f"unknown patient {patient_id!r}")
    patient = graph.patients[patient_id]
    providers, forms, index = graph.providers, graph.intake_forms, graph._owners()
    form_ids = [key for key in index.forms.get(patient_id, ()) if key in forms]
    if len(form_ids) > 1:
        raise ValueError("a bundle holds one intake form")
    keys, stored = graph._ordered(patient_id)
    encounters = [encounter for key, encounter in zip(keys, stored) if encounter.encounter_id == key]
    # A record stored under a key other than its ID would be written, and
    # read back, under its ID.
    if (
        patient.patient_id != patient_id
        or any(forms[key].intake_form_id != key for key in form_ids)
        or any(providers[key].provider_id != key for key in providers)
        or len(encounters) < len(stored)
    ):
        raise ValueError("a record's ID differs from its key")
    document = Bundle(
        FORMAT_VERSION,
        patient,
        [providers[key] for key in sorted(providers)],
        forms[form_ids[0]] if form_ids else None,
        encounters,
        graph.edges_of(patient_id),
    )
    from ._generated.writers import write_Bundle_0

    document.links.sort(key=lambda e: (KIND_TEXT[e.kind], e.from_encounter, e.to_encounter))
    return write_Bundle_0(document) + "\n"


def _unwritable(value):
    """Fail the write of ``value``, which the checker's type rules refuse."""
    raise TypeError(f"a {value.__class__.__name__} cannot be written here")


# -- parsing --------------------------------------------------------------


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _warn_unknown(obj: dict, known, path: str, problems: ValidationReport) -> None:
    for key in obj:
        if key not in known:
            shown = key.encode("utf-8", "backslashreplace").decode("utf-8")
            problems.warning(UNKNOWN_FIELD, f"unknown field {key!r} ignored", _join(path, shown))


# A field reads as its value, or as _INVALID after a reported problem.  A
# left-out optional scalar reads as its default, a left-out array as empty,
# a left-out object as its empty record, or as None if the record has a
# required field (the intake form).
_INVALID = object()
_SCALARS = RULES.keys() - {STRS}


def _report(spec: Field, value, at: str, problems: ValidationReport) -> bool:
    """Report at ``at`` the first rule ``value``, a value (or string-array
    entry) of field ``spec``, breaks: presence, then ``RULES``, by the
    reporter generated for them, imported once a document is refused."""
    if value is None and spec.type != STRS:
        if spec.required:
            problems.error(MISSING_FIELD, f"required field {spec.key!r} is missing", at)
        return spec.required
    from ._generated.reporters import REPORTERS

    name = "entry" if spec.type == STRS else repr(spec.key)
    problem = REPORTERS[spec.type, spec.required, spec.check](value, name)
    if problem is not None:
        problems.error(*problem, at)
    return problem is not None


def _report_fields(record_type: type, obj: dict, path: str, problems: ValidationReport):
    """_INVALID, after reporting why the reader refused ``obj``: its fields
    in canonical key order, a scalar by its first broken rule, an object or
    array by reading it, so nested problems come out in document order."""
    for spec in FIELDS[record_type]:
        if spec.type in _SCALARS:
            _report(spec, obj.get(spec.key), _join(path, spec.key), problems)
        else:
            _read(spec, obj.get(spec.key), path, problems)
    return _INVALID


def _read(spec: Field, value, path: str, problems: ValidationReport):
    """An object or array field's value, or _INVALID after its problems are
    reported.  A bad array entry is reported and left out."""
    from ._generated.readers import READERS

    at = _join(path, spec.key)
    if value is None:
        if spec.required and _report(spec, value, at, problems):
            return _INVALID
        if spec.type != OBJECT:
            return []
        return None if holds_required(spec.record) else spec.record()
    if spec.type == OBJECT:
        if not isinstance(value, dict):
            problems.error(INVALID_TYPE, f"{spec.key!r} must be an object", at)
            return _INVALID
        return READERS[spec.record](value, at, problems)
    if not isinstance(value, list):
        problems.error(INVALID_TYPE, f"{spec.key!r} must be an array", at)
        return _INVALID
    if spec.type == STRS:
        return [s for i, s in enumerate(value) if not _report(spec, s, f"{at}[{i}]", problems)]
    read, records = READERS[spec.record], []
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            problems.error(INVALID_TYPE, "entry must be an object", f"{at}[{i}]")
        elif (record := read(entry, f"{at}[{i}]", problems)) is not _INVALID:
            records.append(record)
    return records


def parse_bundle(data: str | bytes) -> ParseResult:
    """Parse bundle text into a journey graph, collecting all problems.

    The cyclic garbage collector is paused for the whole parse and resumed
    on every way out, if it was enabled on entry.  Its passes would find
    nothing to free: the decoded document, the records and the graph form
    trees, which reference counting frees on its own, while the containers
    a large bundle decodes into would set off dozens of passes.

    What the parse built is then handed to the oldest generation, so no
    young or middle pass after the parse walks it again.  On entry one
    middle pass (``gc.collect(1)``) collects the caller's young and middle
    objects, as their own passes would have; on the way out ``gc.freeze()``
    and ``gc.unfreeze()`` move what the young and middle generations then
    hold, the parse's survivors alone, into the oldest one, in constant
    time.  The handoff is skipped, and the parse only paused, when objects
    are frozen on entry (a pre-fork server's heap, or the interpreter's
    own objects on CPython 3.12), since ``unfreeze`` would thaw them too.

    One caveat: the collector is global to the process.  If another thread
    disables it while this parse runs, the end of the parse enables it
    again, and the objects another thread allocates during the parse are
    handed to the oldest generation too.
    """
    if not gc.isenabled():
        return _parse(data)
    handoff = gc.get_freeze_count() == 0
    if handoff:
        gc.collect(1)
    gc.disable()
    try:
        return _parse(data)
    finally:
        if handoff:
            gc.freeze()
            gc.unfreeze()
        gc.enable()


def _parse(data: str | bytes) -> ParseResult:
    from ._generated.readers import read_Bundle

    problems = ValidationReport()
    root = _decode(data, problems)
    if isinstance(root, dict):
        document = read_Bundle(root, "", problems)
        if problems.ok:
            graph, report = _assemble(document, problems)
            if problems.ok:
                return ParseResult(graph, problems.diagnostics, report)
    elif problems.ok:
        problems.error(INVALID_TYPE, "top-level value must be an object", "")
    return ParseResult(None, problems.diagnostics)


def _decode(data: str | bytes, problems: ValidationReport):
    """The JSON value of ``data``, or None after a syntax error is reported."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        problems.error(SYNTAX_ERROR, f"document is not valid UTF-8: {exc.reason}", "")
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        message = f"document is not valid JSON: {exc.msg} at line {exc.lineno}"
    except RecursionError:
        message = "document is nested too deeply to decode"
    except ValueError as exc:  # an integer past the interpreter's digit limit
        message = f"document could not be decoded: {exc}"
    problems.error(SYNTAX_ERROR, message, "")
    return None


def _assemble(
    document: Bundle, problems: ValidationReport
) -> tuple[JourneyGraph, ValidationReport]:
    """Join the records into a graph and report the checker's errors on it.

    Only duplicate IDs are found here: a graph keyed by ID cannot hold
    them.  Every other join rule is the invariant checker's.  It runs only
    its join pass: the records passed every field rule as they were read,
    so the report equals the full check's.  Its errors are
    moved to document paths (``encounters[<id>]`` becomes
    ``encounters[<index>]``) and into document order.  A missing link
    endpoint, a ``dangling-reference`` at ``links[<i>]``, is reported as a
    ``reference-error`` at ``links[<i>].from`` or ``.to``.
    """
    graph, patient, intake_form = JourneyGraph(), document.patient, document.intake_form
    graph.patients[patient.patient_id] = patient
    for index, provider in enumerate(document.providers):
        if provider.provider_id in graph.providers:
            message = f"provider ID {provider.provider_id!r} already used"
            problems.error(DUPLICATE_ID, message, f"providers[{index}].providerID")
        else:
            graph.providers[provider.provider_id] = provider
    if intake_form is not None:
        graph.intake_forms[intake_form.intake_form_id] = intake_form
        graph.intake_form_owner[intake_form.intake_form_id] = patient.patient_id

    # Errors on encounters, by document index: the duplicates the graph
    # cannot hold, and the checker's errors on the stored encounters.
    by_encounter: list[tuple[int, Diagnostic]] = []
    encounters: dict = {}
    for index, encounter in enumerate(document.encounters):
        if encounter.encounter_id in encounters:
            message = f"encounter ID {encounter.encounter_id!r} already used"
            at = f"encounters[{index}].encounterID"
            by_encounter.append((index, Diagnostic(Severity.ERROR, DUPLICATE_ID, message, at)))
        else:
            encounters[encounter.encounter_id] = encounter
    graph.encounters = encounters
    graph.encounter_owner = dict.fromkeys(encounters, patient.patient_id)
    graph.edges.extend(document.links)

    report = graph._check_joins()
    errors = report.errors
    index_of: dict[str, int] = {}  # a stored encounter's location, to its index
    if errors:
        for index, encounter in enumerate(document.encounters):
            index_of.setdefault(f"encounters[{encounter.encounter_id}]", index)
    rest: list[Diagnostic] = []
    for diagnostic in errors:
        head = location = diagnostic.location
        # Drop trailing fields until the head names a stored encounter, if
        # any; an encounter ID may itself hold dots.
        while head not in index_of and "." in head:
            head = head.rpartition(".")[0]
        if head in index_of:
            index = index_of[head]
            location = f"encounters[{index}]{location[len(head):]}"
            moved = Diagnostic(diagnostic.severity, diagnostic.code, diagnostic.message, location)
            by_encounter.append((index, moved))
        elif diagnostic.code != DANGLING_REFERENCE or not location.startswith("links["):
            rest.append(diagnostic)
        elif not (rest and rest[-1].location.startswith(f"{location}.")):
            # The first of a link's missing ends reports them all.
            edge = document.links[int(location[len("links[") : -1])]
            for end, _, _ in link_problems(graph, edge):
                named = edge.from_encounter if end == "from" else edge.to_encounter
                message = missing_encounter(f"link.{end} names", named)
                at = f"{location}.{end}"
                rest.append(Diagnostic(Severity.ERROR, REFERENCE_ERROR, message, at))
    by_encounter.sort(key=lambda item: item[0])
    problems.diagnostics.extend(diagnostic for _, diagnostic in by_encounter)
    problems.diagnostics.extend(rest)
    return graph, report
