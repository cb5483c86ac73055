"""The generators of ``pjo._generated``: ``scripts/generate_code.py`` writes
its modules with ``modules``, from ``records.FIELDS``, ``graph.RULES`` and
pjo's class declarations.  Only it and the tests import this module."""

from __future__ import annotations

import ast
import re
import sys

from .bundle import _SCALARS, _encode
from .graph import (
    _DIGITS, DOCUMENT, FIELD_INVALID, MEMORY, READ, REQUIRED, RULES, VALUE, holder_rules,
)  # fmt: skip
from .records import (
    DATE, FIELDS, ICD10, INT, KIND, NUMBER, OBJECT, OBJECTS, STR, STRS, VERSION, Bundle, Fresh,
    holds_required,
)  # fmt: skip

HEADER = '''"""{0}: code pjo generates.

Do not edit: ``scripts/generate_code.py`` writes it and must be run again after
any change to ``records.FIELDS``, ``graph.RULES`` or a generator in ``pjo._codegen``."""
'''

# Where generated code imports each name from: the first of these holding it.
_HOMES = ("datetime", "pjo.records", "pjo.codes", "pjo.graph", "pjo.bundle")


def _imports(text: str) -> str:
    """The import lines of the global names ``text`` uses."""
    loaded, bound = set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            (loaded if isinstance(node.ctx, ast.Load) else bound).add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
    used: dict[str, list[str]] = {}
    for name in sorted(loaded - bound):
        for home in _HOMES:
            if name in vars(sys.modules[home]):
                used.setdefault(home, []).append(name)
                break
    return "".join(
        f"from {home.replace('pjo', '.', 1)} import {', '.join(names)}\n"
        for home, names in sorted(used.items())
    )


def _module(what: str, constants: dict, functions: list[str], **tables: dict) -> str:
    """The text of a generated module: header, imports, constants, functions,
    then each table, a dict of the functions named by its values."""
    head = "".join(f"{name} = {value}\n" for name, value in constants.items())
    body = "".join(f"\n\n{text}\n" for text in functions)
    for name, table in tables.items():
        lines = [f"    {getattr(key, '__name__', key)}: {value},\n" for key, value in table.items()]
        body += f"\n\n{name} = {{\n{''.join(lines)}}}\n"
    imports = _imports(head + body)
    return "".join([HEADER.format(what), *(f"\n{part}" for part in (imports, head) if part), body])


# -- classes ----------------------------------------------------------------

_CLASS_NAMES = {"_MISSING": "object()"}


def methods_source(name: str, attrs: tuple, defaults: dict, frozen: bool, post: bool) -> str:
    """Source of ``methods_<name>``: given the ``make`` of each ``Fresh``
    default in ``defaults`` and then, for a ``frozen`` class, the setter of
    each attribute's slot, the ``__init__`` and ``_values`` of the slotted
    class ``name`` (see ``records._build``).  ``_MISSING`` marks an argument
    whose default is made anew; the other defaults are written in as
    literals.  A ``frozen`` class's ``__init__`` sets each value by calling
    ``set_<attr>(self, value)``, past its refusing ``__setattr__``; it calls
    ``__post_init__`` if ``post``."""
    makers, params, body = [], ["self"], []
    setters = [f"set_{attr}" for attr in attrs] if frozen else []
    for attr in attrs:
        value, default = attr, defaults.get(attr)
        if attr not in defaults:
            params.append(attr)
        elif isinstance(default, Fresh):
            makers.append(f"make_{attr}")
            params.append(f"{attr}=_MISSING")
            value = f"make_{attr}() if {attr} is _MISSING else {attr}"
        elif default is None or default.__class__ in (str, bool):
            params.append(f"{attr}={default!r}")
        else:
            raise TypeError(f"{name}.{attr}: a default must be Fresh, a string, a bool or None")
        body.append(f"set_{attr}(self, {value})" if frozen else f"self.{attr} = {value}")
    if post:
        body.append("self.__post_init__()")
    return "\n".join(
        [
            f"def methods_{name}({', '.join(makers + setters)}):",
            f"    def __init__({', '.join(params)}):",
            *(f"        {line}" for line in body),
            "    def _values(self):",
            "        return (" + "".join(f"self.{attr}, " for attr in attrs) + ")",
            "    return __init__, _values",
        ]
    )


# -- rules ------------------------------------------------------------------


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


# -- reporters --------------------------------------------------------------


def reporter_source(spec, document: bool) -> tuple[str, str]:
    """The name and source of the reporter of field ``spec``'s rules on a
    document if ``document``, else on a record: the code and message,
    worded with the field's ``name``, of the first rule a value not left out
    (or a string-array entry; in a record, a required value left out too)
    breaks, else None."""
    check = f"_{spec.check.__name__}" if spec.check else ""
    kind = "" if document else "memory_"
    name = f"report_{kind}{spec.type.replace(' ', '_')}{'_required' * spec.required}{check}"
    lines = []
    for test, code, message, applies in field_rules(spec, document, "{name}"):
        if applies == READ:
            lines.append(f"kept = {test}")
            test = "kept"
        if code is not None:  # a rule that can fail
            lines.append(f"if not ({test}): return {code!r}, f{message!r}")
        if applies == READ:
            lines.append("v = kept")
    return name, f"def {name}(v, name):\n    " + "\n    ".join(lines)


# -- readers ------------------------------------------------------------------
#
# Per value type, the rules whose tests another rule's test implies, left out
# of the silent tests: text of a date's ISO shape is nonempty and ASCII, and a
# date object is true.
IMPLIED = {DATE: {"v.isascii() or not _SURROGATE(v)", "v"}}


def _flat(record_type: type) -> bool:
    """Whether every field of the record type is a scalar."""
    return all(spec.type in _SCALARS for spec in FIELDS[record_type])


def _kept(spec, v: str, read: str = "", document: bool = True, get: str = "") -> tuple[str, str]:
    """Source of a test that the value (or string-array entry) in local ``v``
    of field ``spec`` keeps every rule after presence, ``_report``'s if
    ``document`` and else ``field_problems``', and of what it reads as:
    ``read``, bound by the test, after a READ rule.  Given ``get``, the test
    binds ``v`` to it first and passes a left-out optional value.  The test
    leaves out the rules in ``IMPLIED`` and a memory type rule's ``v is None
    or``, which a left-out value is taken before: that only makes it
    stricter, and a refused value is reported by every rule."""
    value, terms, implied = v, [], IMPLIED.get(spec.type, ())
    for rule, _, _, applies in field_rules(spec, document, ""):
        if rule in implied:
            continue
        term = re.sub(r"\bv\b", "{0}", rule.removeprefix("v is None or ")).format(value)
        if applies == READ:
            value = read
            term = f"{value} := {term}"
        terms.append(f"({term})")
    test = " and ".join(terms)
    if get:
        test = _bound(test, v, get) if spec.required else f"(({v} := {get}) is None or {test})"
    return test, value


def _scalar_tests(record_type: type, obj: str, depth: int, constants: dict):
    """Source of a test on the document object in local ``obj``, and of each
    scalar field's value by field index.  The test passes when ``_report``
    would find no problem in any scalar field; the values are then what the
    fields read as."""
    name = record_type.__name__
    keys = ", ".join(repr(spec.key) for spec in FIELDS[record_type])
    constants[f"K_{name}"] = f"frozenset({{{keys}}})"
    tests, values = [], {}
    for n, spec in enumerate(FIELDS[record_type]):
        if spec.type not in _SCALARS:
            continue
        v = f"v{depth}_{n}"
        test, value = _kept(spec, v, f"c{depth}_{n}", get=f"{obj}.get({spec.key!r})")
        if not spec.required and (value != v or spec.default is not None):
            value = f"({spec.default!r} if {v} is None else {value})"
        tests.append(test)
        values[n] = value
    return " and ".join(tests), values


def reader_source(record_type: type, constants: dict) -> str:
    """Source of ``read_<name>(obj, path, problems)`` for one record type:
    the record, or _INVALID after its problems are reported.  It warns
    about unknown keys, then tests silently that every scalar field keeps
    its rules; an object that fails is reported by ``_report_fields``.  An
    array of flat records or of strings is read in a bare ``for e in v``
    loop that builds each entry passing its test.  At the first entry that
    fails, ``_read`` reads the whole array again and reports every entry in
    document order: the entries before it passed silently, so they report
    nothing twice."""
    name = record_type.__name__
    constants[f"F_{name}"] = f"FIELDS[{name}]"
    test, values = _scalar_tests(record_type, "o", 0, constants)
    lines = [f"if not K_{name}.issuperset(o): _warn_unknown(o, K_{name}, path, problems)"]
    if test:
        lines.append(f"if not ({test}): return _report_fields({name}, o, path, problems)")
    invalid = []
    for n, spec in enumerate(FIELDS[record_type]):
        if n in values:
            continue
        values[n] = f"x{n}"
        invalid.append(f"x{n} is _INVALID")
        if spec.type == STRS:
            test, built = _kept(spec, "e", "")[0], "e"
        elif spec.type == OBJECTS and _flat(spec.record):
            item = spec.record.__name__
            item_test, item_values = _scalar_tests(spec.record, "e", 1, constants)
            test = f"e.__class__ is dict and K_{item}.issuperset(e) and {item_test}"
            built = f"{item}({', '.join(item_values[k] for k in sorted(item_values))})"
        else:
            lines.append(f"x{n} = _read(F_{name}[{n}], o.get({spec.key!r}), path, problems)")
            continue
        read = f"x{n} = _read(F_{name}[{n}], v, path, problems)"
        lines += [
            f"if (v := o.get({spec.key!r})).__class__ is list:",
            f"    x{n} = []",
            "    for e in v:",
            f"        if {test}: x{n}.append({built})",
            "        else:",
            f"            {read}",
            "            break",
            "else:",
            f"    {read}",
        ]
    if invalid:
        lines.append(f"if {' or '.join(invalid)}: return _INVALID")
    lines.append(f"return {name}({', '.join(values[n] for n in sorted(values))})")
    return f"def read_{name}(o, path, problems):\n    " + "\n    ".join(lines)


# -- writers ------------------------------------------------------------------
#
# Per scalar value type, source of the text of a value ``{0}`` that the
# writer's test takes (see ``_written``), as ``json.dumps`` writes it.
_TEXT = {
    STR: "_encode({0})",
    INT: "int.__repr__({0})",
    NUMBER: "repr({0})",
    DATE: "_encode(isoformat({0}))",
    ICD10: "_encode({0}.code)",
    KIND: "_encode(KIND_TEXT[{0}])",
}
_TEXT[VERSION] = _TEXT[STRS] = _TEXT[STR]  # a string array's entry, for STRS


def _written(value_type: str, v: str) -> str:
    """Source of a test that the value in local ``v`` keeps the MEMORY rules
    of its type in ``RULES`` (an entry's, for a string array) and, as JSON
    needs, is finite if a number: what the writer writes.  The digit limit
    is left out, as an integer's text refuses more digits itself (``repr``
    raises ``ValueError``).  A left-out value fails the test.  The checker
    refuses every value that fails it, a number that is not finite by the
    field's range check."""
    terms = [test.removeprefix("v is None or ") for test, _, _, applies in RULES[value_type]
             if applies == MEMORY and test != _DIGITS[0]]  # fmt: skip
    if value_type == NUMBER:
        terms.append("v - v == 0")  # NaN and the infinities minus themselves are NaN
    return " and ".join("(" + re.sub(r"\bv\b", v, term) + ")" for term in terms)


def _test(spec, v: str, get: str = "") -> str:
    """Source of a test that the value in local ``v`` of field ``spec`` (an
    entry, for an array) is written: it passes ``_written``, or is a record
    of exactly its class.  Given ``get``, the test binds ``v`` to it first,
    and a field with a default takes a left-out (None) value as it, as the
    readers read it, rebinding ``v``."""
    if spec.type in _TEXT:
        test = _written(spec.type, v)
    else:
        test = f"{v}.__class__ is {holder_rules(spec)[-1][0].__name__}"  # an entry's, for an array
    if get:
        test = _bound(test, v, get)
    if get and spec.default is not None:
        test = f"({test} or {v} is None and ({v} := {spec.default!r}) is not None)"
    return test


def _text(spec, v: str, level: int) -> str:
    """Source of the text at nesting ``level`` of the value in local ``v``
    of field ``spec``, which its test takes: a scalar as ``_TEXT`` writes
    it, a record by its class's writer."""
    if spec.type in _TEXT:
        return _TEXT[spec.type].format(v)
    return f"write_{holder_rules(spec)[-1][0].__name__}_{level}({v})"


def _value(spec, v: str, level: int, get: str = "") -> str:
    """Source of the text of ``_text``, when ``_test`` takes the value; a
    value the checker's type rules refuse, a left-out one included, fails
    the write: ``_unwritable`` raises."""
    return f"({_text(spec, v, level)} if {_test(spec, v, get)} else _unwritable({v}))"


def _always(spec) -> bool:
    """Whether a read record always sets field ``spec``, so it is always written."""
    return spec.required or spec.default is not None or spec.type in (STRS, OBJECTS)


def _literal(text: str) -> str:
    """``text`` as the literal part of an f-string between single quotes."""
    for plain, escaped in (("\\", "\\\\"), ("'", "\\'"), ("\n", "\\n"), ("{", "{{"), ("}", "}}")):
        text = text.replace(plain, escaped)
    return text


def _inline(record_type: type, level: int, constants: dict) -> str:
    """Source of the text at nesting ``level`` of the array entry in local
    ``x``, of the flat ``record_type``: one f-string, written in the holder's
    loop as the readers read such entries.  Its test takes a record of
    exactly that class whose always-written fields pass their type tests;
    any other entry fails the write.  Any other field is written when set,
    after the constant ``P<level>_<key>``: a comma, the key and a colon.
    When the first field may be left out, the text's first comma is cut
    (``{}`` when no field is set)."""
    inner, fields = level + 1, FIELDS[record_type]
    tests, pieces = [f"x.__class__ is {record_type.__name__}"], []
    for n, spec in enumerate(fields):
        e, get, key = f"e{n}", f"x.{spec.attr}", f"\n{'  ' * inner}{_encode(spec.key)}: "
        if _always(spec):
            tests.append(_test(spec, e, get))
            pieces.append(_literal("," * (n > 0) + key) + f"{{{_text(spec, e, inner)}}}")
        else:
            constants[f"P{inner}_{spec.key}"] = repr("," + key)
            value = f"P{inner}_{spec.key} + {_value(spec, e, inner)}"
            pieces.append(f'{{{value} if ({e} := {get}) is not None else ""}}')
    opened, body, closed = _literal("{"), "".join(pieces), _literal("\n" + "  " * level + "}")
    if _always(fields[0]):
        text = f"f'{opened}{body}{closed}'"
    else:
        text = f"(f'{opened}{{t[1:]}}{closed}' if (t := f'{body}') else '{{}}')"
    return f"{text} if {' and '.join(tests)} else _unwritable(x)"


def writer_source(record_type: type, level: int, constants: dict) -> str:
    """Source of ``write_<name>_<level>(r)``: the record's JSON object at
    nesting ``level``, its fields in canonical key order.  A field a read
    record always sets (``_always``) is always written; any other when set,
    but for a held record that sets no field.  A held record of a class with
    no required field is written when left out (None) as the empty record
    the readers read in its place.  An array must be a list; it
    is written in a loop, each entry of an array of flat records by
    ``_inline``.  A value of another type fails the write."""
    inner = level + 1
    # An array at ``inner`` of the texts in ``a``, one entry per line.
    entry = "\n" + "  " * (inner + 1)
    opened, between, closed = repr("[" + entry), repr("," + entry), repr("\n" + "  " * inner + "]")
    lines = ["parts = []"]
    for spec in FIELDS[record_type]:
        head = repr(f"\n{'  ' * inner}{_encode(spec.key)}: ")
        get = f"r.{spec.attr}"
        if spec.type in (STRS, OBJECTS):
            if spec.type == OBJECTS and _flat(spec.record):
                text = _inline(spec.record, inner + 1, constants)
            else:
                text = _value(spec, "x", inner + 1)
            lines += [
                f"if (v := {get}).__class__ is not list: _unwritable(v)",
                "a = []",
                "for x in v:",
                f"    a.append({text})",
                f"parts.append({head} + ({opened} + {between}.join(a) + {closed} if a else '[]'))",
            ]
        elif _always(spec):
            lines.append(f"parts.append({head} + {_value(spec, 'v', inner, get)})")
        elif spec.type == OBJECT:
            value = _value(spec, "v", inner)
            if holds_required(spec.record):
                test = f"(v := {get}) is not None and (t := {value}) != '{{}}'"
            else:  # left out, it reads as its empty record: written as that
                lines.append(f"if (v := {get}) is None: v = {spec.record.__name__}()")
                test = f"(t := {value}) != '{{}}'"
            lines.append(f"if {test}: parts.append({head} + t)")
        else:
            text = _value(spec, "v", inner)
            lines.append(f"if (v := {get}) is not None: parts.append({head} + {text})")
    close = repr("\n" + "  " * level + "}")
    lines.append(f"return '{{' + ','.join(parts) + {close} if parts else '{{}}'")
    name = f"write_{record_type.__name__}_{level}"
    return f"def {name}(r):\n    " + "\n    ".join(lines)


def writers(record_type: type, level: int = 0) -> list[tuple[type, int]]:
    """Each record type, with its nesting level, that has a writer of its
    own, reached from ``record_type``'s at ``level``: its own, a held
    record's one level in, an array entry's two, and so on, but an entry of
    an array of flat records, written inline."""
    found = [(record_type, level)]
    for spec in FIELDS[record_type]:
        if spec.type == OBJECT or spec.type == OBJECTS and not _flat(spec.record):
            found += writers(spec.record, level + 1 + (spec.type == OBJECTS))
    return found


# -- field checks -------------------------------------------------------------


def _bound(test: str, name: str, value: str) -> str:
    """``test`` with its first use of the local ``name`` binding ``value`` to it."""
    return re.sub(rf"\b{name}\b", f"({name} := {value})", test, count=1)


def _silent_terms(
    record_type: type, var: str, depth: int, array: str, loops: list, unbound: list
) -> list[str]:
    """Source terms, to be joined by ``and``, that hold only when the record
    in the local ``var`` keeps every field rule (see ``graph.field_problems``)
    outside its arrays' entries.  Each array is bound by its list rule to
    ``array`` numbered from 1 in field order, and ``(name, field, entry
    depth)`` is added to ``loops``; one held in a record that may be left
    out, and so never bound, to ``unbound`` too."""
    terms = []
    for spec in FIELDS[record_type]:
        value = f"{var}.{spec.attr}"
        if spec.type not in (OBJECT, OBJECTS, STRS):
            terms.append(_kept(spec, "v", document=False, get=value)[0])
            continue
        test = f"{{0}}.__class__ is {holder_rules(spec)[0][0].__name__}"
        if spec.type == OBJECT:
            inner, first = f"r{depth + 1}", len(loops)
            held = [f"({test.format(inner)})"]
            held += _silent_terms(spec.record, inner, depth + 1, array, loops, unbound)
            if not spec.required:
                unbound += [name for name, _, _ in loops[first:] if name not in unbound]
                held = [f"({inner} is None or {' and '.join(held)})"]
            terms += [_bound(held[0], inner, value), *held[1:]]
        else:
            name = f"{array}{len(loops) + 1}"
            terms.append(f"({test.format(f'({name} := {value})')})")
            loops.append((name, spec, depth + 1))
    return terms


def _silent_lines(record_type: type, var: str, depth: int, then: str, first: str = "") -> list:
    """Source lines that run the statement ``then`` when the record in the
    local ``var`` keeps every field rule (and the term ``first``, if given,
    holds), and otherwise fall through: a field check.  They are one
    ``and``-chained test of the record's scalars, held records and array
    types, then one bare loop per array, each running the next loop (the
    last, ``then``) in its ``else``.  An entry is tested the same way, with
    ``continue`` as its ``then``; one that fails breaks out of the loop."""
    loops, unbound = [], []
    terms = [first] if first else []
    # An entry's arrays are named after its depth, apart from its holder's.
    terms += _silent_terms(record_type, var, depth, f"a{depth}_" if depth else "a", loops, unbound)
    body = [then]
    for array, spec, inner in reversed(loops):
        if spec.type == STRS:
            item, test = "v", [f"if {_kept(spec, 'v', document=False)[0]}: continue"]
        else:
            item, (_, (entry, _, _)) = f"r{inner}", holder_rules(spec)
            test = f"{item}.__class__ is {entry.__name__}"
            test = _silent_lines(entry, item, inner, "continue", test)
        body = [
            f"for {item} in {array}:",
            *(f"    {line}" for line in [*test, "break"]),
            "else:",
            *(f"    {line}" for line in body),
        ]
    lines = [f"{array} = ()" for array in unbound]
    if not terms:
        return lines + body
    head = f"if {' and '.join(terms)}:"
    if len(body) == 1:
        return [*lines, f"{head} {then}"]
    return [*lines, head, *(f"    {line}" for line in body)]


def check_source(record_type: type) -> str:
    """Source of ``passes_<name>(record)``, the field check of one record
    type: True when the record keeps every field rule, else False."""
    lines = [*_silent_lines(record_type, "record", 0, "return True"), "return False"]
    return f"def passes_{record_type.__name__}(record):\n    " + "\n    ".join(lines)


# -- the modules --------------------------------------------------------------


def modules(declared: list[tuple]) -> dict[str, str]:
    """Each module of ``pjo._generated`` by name, as text; ``declared`` lists
    ``methods_source``'s arguments for each slotted class."""
    read, write = {}, {"isoformat": "date.isoformat"}  # each module's constants
    checked = [record_type for record_type in FIELDS if record_type is not Bundle]
    reporters = {}  # a reporter per set of rules by its key, on documents and on records
    for document, record_types in ((True, FIELDS), (False, checked)):
        fields = {
            f"({spec.type!r}, {spec.required}, {spec.check and spec.check.__name__})": spec
            for record_type in record_types
            for spec in FIELDS[record_type]
            if spec.type in _SCALARS or spec.type == STRS
        }
        reporters[document] = {key: reporter_source(spec, document) for key, spec in fields.items()}
    return {
        "classes": _module(
            "The ``__init__`` and ``_values`` of each slotted class",
            _CLASS_NAMES,
            [methods_source(*declaration) for declaration in declared],
        ),
        "readers": _module(
            "The bundle readers",
            read,
            [reader_source(record_type, read) for record_type in FIELDS],
            READERS={t: f"read_{t.__name__}" for t in FIELDS},
        ),
        "writers": _module(
            "The bundle writers",
            write,
            [writer_source(t, level, write) for t, level in writers(Bundle)],
        ),
        "field_problems": _module(
            "The field checks of every record type but the bundle",
            {},
            [check_source(record_type) for record_type in checked],
            CHECKS={t: f"passes_{t.__name__}" for t in checked},
        ),
        "reporters": _module(
            "The reporters of the scalar values of a refused document or a failed record",
            {},
            [source for table in reporters.values() for _, source in table.values()],
            REPORTERS={key: name for key, (name, _) in reporters[True].items()},
            MEMORY_REPORTERS={key: name for key, (name, _) in reporters[False].items()},
        ),
    }
