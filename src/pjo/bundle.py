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
import re
from datetime import date

from .errors import UnknownPatientError
from .graph import (
    DANGLING_REFERENCE,
    DUPLICATE_ID,
    FORMAT_VERSION,
    INVALID_TYPE,
    JourneyGraph,
    MISSING_FIELD,
    READ,
    REFERENCE_ERROR,
    RULE_NAMES,
    RULES,
    SYNTAX_ERROR,
    UNKNOWN_FIELD,
    Diagnostic,
    Severity,
    SeverityViews,
    ValidationReport,
    field_rules,
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
    VERSION,
    Bundle,
    Field,
    Fresh,
    OnDemand,
    define,
    holds_required,
    slotted,
)


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
# The text is written straight from the records, by a writer generated from
# ``FIELDS`` per record type and nesting level on first use.  It equals
# ``json.dumps(document, indent=2, ensure_ascii=False)`` of the document the
# records describe: through Python 3.12 that call takes the pure-Python
# encoder whenever ``indent`` is set, which is several times slower.  An
# entry of an array of flat records is written with one f-string in its
# holder's loop, as the reader reads it there (see ``_inline``).

# The string encoder ``json.dumps`` uses with ``ensure_ascii=False``: C code
# where the interpreter has it.
_encode = json.encoder.encode_basestring
_INFINITY = float("inf")


def serialize_bundle(graph: JourneyGraph, patient_id: str) -> str:
    """Render one patient's journey as a canonical bundle document.

    A wrongly typed structure that cannot be written raises
    ``FieldInvalidError`` for the checker's first ``invalid-type`` error
    on the records written (see ``JourneyGraph.type_error``).
    """
    patient = graph.patients.get(patient_id)
    if patient is None:
        raise UnknownPatientError(f"unknown patient {patient_id!r}")
    document = Bundle(
        FORMAT_VERSION,
        patient,
        [graph.providers[pid] for pid in sorted(graph.providers)],
        graph.intake_form_of(patient_id),
        graph.encounters_of(patient_id),
        sorted(
            graph.edges_of(patient_id),
            key=lambda e: (e.kind.value, e.from_encounter, e.to_encounter),
        ),
    )
    try:
        return _object(document, 0) + "\n"
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        problem = graph.type_error([patient_id], providers=True)
        if problem is None:
            raise
        raise problem from error


def _object(record, level: int) -> str:
    """The record's JSON object at nesting ``level``: its set fields in
    canonical key order, ``{}`` when none is set."""
    return _WRITERS_AT[level][record.__class__](record)


def _scalar(value, level: int) -> str:
    """A field value at nesting ``level``, as ``json.dumps`` writes it."""
    kind = value.__class__
    if kind is str:
        return _encode(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    # Anything else a record was given directly: json.dumps itself, indented.
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + "  " * level)


# Per scalar value type, source of a test that a value is of its plain type,
# with ``{0}`` its first use and ``{1}`` the others, and of its text then, as
# ``json.dumps`` writes it.  A number is plain when finite: NaN and the
# infinities minus themselves are NaN.  A code or link kind is written as its
# string (see ``_set``).  A value that is not plain is written by ``_scalar``;
# a date always as its ISO text.
_PLAIN = {
    STR: ("{0}.__class__ is str", "_encode({0})"),
    INT: ("{0}.__class__ is int", "int.__repr__({0})"),
    NUMBER: ("({0}.__class__ is float or {1}.__class__ is int) and {1} - {1} == 0", "repr({0})"),
    DATE: ("{0}.__class__ is date", "_encode(isoformat({0}))"),
}
_PLAIN[VERSION] = _PLAIN[ICD10] = _PLAIN[KIND] = _PLAIN[STR]
_STRING_OF = {ICD10: "code", KIND: "value"}  # the attribute written for a code or link kind


def _set(spec: Field, v: str, get: str, plain: bool = False) -> str:
    """Source of a test that scalar field ``spec``'s value, read by ``get``,
    is set (and, if ``plain``, of its plain type), which binds it to ``v``."""
    test = ""
    if spec.type in _STRING_OF:
        test = f"({v} := {get}) is not None and "
        get = f"{v}.{_STRING_OF[spec.type]}"
    if plain:
        return test + _PLAIN[spec.type][0].format(f"({v} := {get})", v)
    return test + f"({v} := {get}) is not None"


def _text(value_type: str, v: str, level: int) -> str:
    """Source of the text at nesting ``level`` of a set value in ``v`` of a
    scalar field of ``value_type``."""
    test, text = _PLAIN[value_type]
    if value_type == DATE:
        return text.format(v)
    return f"({text.format(v)} if {test.format(v, v)} else _scalar({v}, {level}))"


def _literal(text: str) -> str:
    """``text`` as the literal part of an f-string between single quotes."""
    for plain, escaped in (("\\", "\\\\"), ("'", "\\'"), ("\n", "\\n"), ("{", "{{"), ("}", "}}")):
        text = text.replace(plain, escaped)
    return text


def _inline(record_type: type, level: int, scope: dict) -> tuple[str, str]:
    """Sources of a test on the array entry in local ``x``, and of its
    ``_object`` text at nesting ``level`` when the test holds: one f-string
    per entry of an array of the flat ``record_type``, written in the
    holder's loop as the readers read such entries.

    The test holds for a record of exactly that class whose fields that a
    read record always sets (required ones, and those with a default) are
    set and of their plain types.  Any other field is written when set,
    whatever its type, after ``P_<key>`` (put in ``scope``): a comma, the
    key and a colon.  When the first field may be left out, every field's
    text starts with a comma, and the first comma is cut (``{}`` when no
    field is set).
    """
    name, inner = record_type.__name__, level + 1
    scope[name] = record_type
    fields = FIELDS[record_type]
    sure = [spec.required or spec.default is not None for spec in fields]
    tests, pieces = [f"x.__class__ is {name}"], []
    for n, spec in enumerate(fields):
        e, get, key = f"e{n}", f"x.{spec.attr}", f"\n{'  ' * inner}{_encode(spec.key)}: "
        if sure[n]:
            tests.append(_set(spec, e, get, plain=True))
            text = _PLAIN[spec.type][1].format(e)
            pieces.append(_literal("," * (n > 0) + key) + f"{{{text}}}")
        else:
            scope[f"P_{spec.key}"] = "," + key
            text = f"P_{spec.key} + {_text(spec.type, e, inner)}"
            pieces.append(f'{{{text} if {_set(spec, e, get)} else ""}}')
    opened, body, closed = _literal("{"), "".join(pieces), _literal("\n" + "  " * level + "}")
    if sure[0]:
        text = f"f'{opened}{body}{closed}'"
    else:
        text = f"(f'{opened}{{t[1:]}}{closed}' if (t := f'{body}') else '{{}}')"
    return " and ".join(tests), text


def _compile_writer(record_type: type, level: int):
    """``write(record)``: ``_object`` for one record type at one level.

    One statement per field appends the field's key and value text when
    the field is set.  A held record that sets no field is left out,
    except by the document (at level 0), which writes every record it
    holds.  An array is written inline: an entry of an array of flat
    records in the loop over the array when ``_inline``'s test takes it,
    any other entry by its own class's writer.
    """
    inner = level + 1
    scope = {
        "_encode": _encode, "_scalar": _scalar, "isoformat": date.isoformat,
        "objects": _WRITERS_AT[inner], "entries": _WRITERS_AT[inner + 1],
    }  # fmt: skip
    # An array at ``inner`` of the texts in ``a``, one entry per line.
    entry = "\n" + "  " * (inner + 1)
    opened, between, closed = repr("[" + entry), repr("," + entry), repr("\n" + "  " * inner + "]")
    lines = ["parts = []"]
    for spec in FIELDS[record_type]:
        head = repr(f"\n{'  ' * inner}{_encode(spec.key)}: ")
        get = f"r.{spec.attr}"
        if spec.type in _PLAIN:
            test, text = _set(spec, "v", get), _text(spec.type, "v", inner)
        elif spec.type == OBJECT and level == 0:
            test, text = f"(v := {get}) is not None", "objects[v.__class__](v)"
        elif spec.type == OBJECT:
            test = f"(v := {get}) is not None and (t := objects[v.__class__](v)) != '{{}}'"
            text = "t"
        else:
            if spec.type == STRS:
                texts = [f"a = [{_text(STR, 'x', inner + 1)} for x in v]"]
            elif _flat(spec.record):
                entry_test, entry_text = _inline(spec.record, inner + 1, scope)
                texts = [
                    "a = []",
                    "for x in v:",
                    f"    if {entry_test}: a.append({entry_text})",
                    "    else: a.append(entries[x.__class__](x))",
                ]
            else:
                texts = ["a = [entries[x.__class__](x) for x in v]"]
            text = f"({opened} + {between}.join(a) + {closed} if a else '[]')"
            lines.append(f"if (v := {get}) is not None:")
            lines += [f"    {line}" for line in (*texts, f"parts.append({head} + {text})")]
            continue
        lines.append(f"if {test}: parts.append({head} + {text})")
    close = repr("\n" + "  " * level + "}")
    lines.append(f"return '{{' + ','.join(parts) + {close} if parts else '{{}}'")
    source = "def write(r):\n    " + "\n    ".join(lines)
    return define(source, f"<{record_type.__name__} writer>", scope, "writers")["write"]


# Generated writers by nesting level, then by record type.
_WRITERS_AT = OnDemand(
    lambda level: OnDemand(lambda record_type: _compile_writer(record_type, level))
)


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
_KNOWN = {
    record_type: frozenset(spec.key for spec in fields) for record_type, fields in FIELDS.items()
}
_TESTS = OnDemand(lambda test: compile(test, "<rule>", "eval"))  # each rule's test, compiled


def _report(spec: Field, value, at: str, problems: ValidationReport) -> bool:
    """Report at ``at`` the first rule ``value``, a value (or string-array
    entry) of field ``spec``, breaks: presence, then ``RULES``; whether any."""
    if value is None and spec.type != STRS:
        if spec.required:
            problems.error(MISSING_FIELD, f"required field {spec.key!r} is missing", at)
        return spec.required
    scope = {**RULE_NAMES, "v": value}
    name = "entry" if spec.type == STRS else repr(spec.key)
    for test, code, message, applies in field_rules(spec, True, name):
        if not (kept := eval(_TESTS[test], scope)):
            problems.error(code, eval(f"f{message!r}", scope), at)
            return True
        if applies == READ:
            scope["v"] = kept
    return False


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
        return _RECORD_READERS[spec.record](value, at, problems)
    if not isinstance(value, list):
        problems.error(INVALID_TYPE, f"{spec.key!r} must be an array", at)
        return _INVALID
    if spec.type == STRS:
        return [s for i, s in enumerate(value) if not _report(spec, s, f"{at}[{i}]", problems)]
    entries = (_read_entry(spec.record, e, f"{at}[{i}]", problems) for i, e in enumerate(value))
    return [record for record in entries if record is not _INVALID]


def _read_entry(record_type: type, item, path: str, problems: ValidationReport):
    if not isinstance(item, dict):
        problems.error(INVALID_TYPE, "entry must be an object", path)
        return _INVALID
    return _RECORD_READERS[record_type](item, path, problems)


# -- generated record readers ----------------------------------------------
#
# Each record type gets a reader generated from ``FIELDS`` on first use.  It
# warns about unknown keys, then tests, without reporting anything, that
# every scalar field keeps its rules: their tests in ``RULES``, joined.  An
# object that fails breaks a rule for certain: ``_report_fields`` reports
# why and it reads as _INVALID.  Otherwise the reader reads the other fields
# in canonical order: an array of flat records (all of whose fields are
# scalars) in a loop that tests each entry the same way and sends one that
# fails, or has an unknown key, to ``_read_entry``; a string array in a loop
# that tests each entry by its rules and sends one that fails to ``_report``;
# any other through ``_read``.

_SCALARS = RULES.keys() - {STRS}
_TEMPLATES = OnDemand(lambda test: re.sub(r"\bv\b", "{0}", test))  # a test with v as {0}


def _flat(record_type: type) -> bool:
    """Whether every field of the record type is a scalar."""
    return all(spec.type in _SCALARS for spec in FIELDS[record_type])


def _kept(spec: Field, v: str, read: str) -> tuple[str, str]:
    """Source of a test that the value (or string-array entry) in local ``v``
    of field ``spec`` keeps every rule ``_report`` applies after presence,
    and of what it reads as: ``read``, bound by the test, after a READ rule."""
    value, terms = v, []
    for rule, _, _, applies in field_rules(spec, True, ""):
        term = _TEMPLATES[rule].format(value)
        if applies == READ:
            value = read
            term = f"{value} := {term}"
        terms.append(f"({term})")
    return " and ".join(terms), value


def _scalar_tests(record_type: type, obj: str, depth: int, scope: dict):
    """Source of a test on the document object in local ``obj``, and of each
    scalar field's value by field index.  The test passes when ``_report``
    would find no problem in any scalar field; the values are then what the
    fields read as."""
    name = record_type.__name__
    scope[name], scope[f"K_{name}"] = record_type, _KNOWN[record_type]
    tests, values = [], {}
    for n, spec in enumerate(FIELDS[record_type]):
        if spec.type not in _SCALARS:
            continue
        v = f"v{depth}_{n}"
        test, value = _kept(spec, v, f"c{depth}_{n}")
        get = f"({v} := {obj}.get({spec.key!r}))"
        if spec.required:
            test = test.replace(v, get, 1)
        else:
            test = f"({get} is None or {test})"
            if value != v or spec.default is not None:
                scope[f"D_{name}_{n}"] = spec.default
                value = f"(D_{name}_{n} if {v} is None else {value})"
        tests.append(test)
        values[n] = value
    return " and ".join(tests), values


def _compile_reader(record_type: type):
    """``read(obj, path, problems)`` for one record type: the record, or
    _INVALID after its problems are reported."""
    name = record_type.__name__
    scope = {
        **RULE_NAMES, "_INVALID": _INVALID, "_warn_unknown": _warn_unknown, "_report": _report,
        "_report_fields": _report_fields, "_read": _read, "_read_entry": _read_entry,
        "_join": _join, f"F_{name}": FIELDS[record_type],
    }  # fmt: skip
    test, values = _scalar_tests(record_type, "o", 0, scope)
    lines = [f"if not K_{name}.issuperset(o): _warn_unknown(o, K_{name}, path, problems)"]
    if test:
        lines.append(f"if not ({test}): return _report_fields({name}, o, path, problems)")
    invalid = []
    for n, spec in enumerate(FIELDS[record_type]):
        if n in values:
            continue
        values[n] = f"x{n}"
        invalid.append(f"x{n} is _INVALID")
        # An entry that passes ``test`` reads as ``built``; any other as ``kept``
        # when ``other`` holds, once its problems are reported.
        at = f'f"{{_join(path, {spec.key!r})}}[{{i}}]"'
        if spec.type == STRS:
            test, built = _kept(spec, "e", "")[0], "e"
            other, kept = f"not _report(F_{name}[{n}], e, {at}, problems)", "e"
        elif spec.type == OBJECTS and _flat(spec.record):
            item = spec.record.__name__
            item_test, item_values = _scalar_tests(spec.record, "e", 1, scope)
            test = f"e.__class__ is dict and K_{item}.issuperset(e) and {item_test}"
            built = f"{item}({', '.join(item_values[k] for k in sorted(item_values))})"
            other, kept = f"(r := _read_entry({item}, e, {at}, problems)) is not _INVALID", "r"
        else:
            lines.append(f"x{n} = _read(F_{name}[{n}], o.get({spec.key!r}), path, problems)")
            continue
        lines += [
            f"x{n} = []",
            f"if (v := o.get({spec.key!r})).__class__ is not list:",
            f"    x{n} = _read(F_{name}[{n}], v, path, problems)",
            "else:",
            "    for i, e in enumerate(v):",
            f"        if {test}: x{n}.append({built})",
            f"        elif {other}: x{n}.append({kept})",
        ]
    if invalid:
        lines.append(f"if {' or '.join(invalid)}: return _INVALID")
    lines.append(f"return {name}({', '.join(values[n] for n in sorted(values))})")
    source = "def read(o, path, problems):\n    " + "\n    ".join(lines)
    return define(source, f"<{name} reader>", scope, "readers")["read"]


_RECORD_READERS = OnDemand(_compile_reader)


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
    problems = ValidationReport()
    root = _decode(data, problems)
    if isinstance(root, dict):
        document = _RECORD_READERS[Bundle](root, "", problems)
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
