#!/usr/bin/env python3
"""Write the modules of src/pjo/_generated, the code pjo generates.

pjo generates the ``__init__`` and ``_values`` of its record classes, its
bundle readers and writers and its field checks from ``records.FIELDS``.
``records.define`` takes a generated source from its generator's module
here, when that holds the exact text, instead of compiling it.  This
script imports pjo with empty tables and builds, in a fixed order, every
class, every record type's reader, the field checks of the records a graph
stores, and the writers ``serialize_bundle`` reaches from the bundle
document.  It writes each source that was compiled as the body of a
factory function, in the order built, one module per generator.

    python scripts/generate_code.py          # rewrite the modules
    python scripts/generate_code.py --check  # exit 1 if one is out of date

Run it after any change to the field table, the rule table or a generator.
"""

import argparse
import importlib
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TARGET = SRC / "pjo" / "_generated"
PARTS = ("classes", "readers", "writers", "field_problems")

HEADER = '''"""The {part} pjo generates from its field table.  Do not edit: written by
``scripts/generate_code.py``.

Each factory's body is one generated source, verbatim, and returns the
functions the source defines.  ``SOURCES`` maps the source text to its
factory, whose code ``records.define`` runs instead of compiling the text.
"""
'''


class Noted(dict):
    """An empty table that notes each source looked up in it, with the
    filename ``records.define`` compiles it under on the miss."""

    def get(self, source, default=None):
        self.setdefault(source, sys._getframe(1).f_locals["filename"])
        return default


def writers(record_type, level, fields, object_types):
    """Each (record type, level) whose writer ``record_type``'s writer at
    ``level`` reaches: a held record one level in, an array's entries two."""
    yield record_type, level
    for spec in fields[record_type]:
        if spec.type in object_types:
            inner = level + 1 + object_types.index(spec.type)
            yield from writers(spec.record, inner, fields, object_types)


def collect() -> dict:
    """Every source pjo generates on its paths, by part, in the order
    built, with its filename."""
    noted = {}
    for part in PARTS:
        table = types.ModuleType(f"pjo._generated.{part}")
        table.SOURCES = noted[part] = Noted()
        sys.modules[table.__name__] = table
    sys.path.insert(0, str(SRC))
    for path in sorted((SRC / "pjo").glob("*.py")):
        if path.stem != "__main__":
            importlib.import_module("pjo" if path.stem == "__init__" else f"pjo.{path.stem}")
    from pjo import bundle, graph
    from pjo.records import (
        FIELDS, OBJECT, OBJECTS, Bundle, Encounter, IntakeForm, JourneyEdge, Patient, Provider,
    )  # fmt: skip

    for record_type in FIELDS:
        bundle._RECORD_READERS[record_type]
    # The records check_invariants and the add_* methods check, and the
    # link whose kind check_invariants checks: a held record's checks are
    # inline in its holder's.
    for record_type in (Patient, Provider, IntakeForm, Encounter, JourneyEdge):
        graph._FIELD_PROBLEMS[record_type]
    for record_type, level in writers(Bundle, 0, FIELDS, (OBJECT, OBJECTS)):
        bundle._WRITERS_AT[level][record_type]
    return noted


def render(part: str, noted: dict) -> str:
    parts = [HEADER.format(part=part.replace("_", " "))]
    for n, (source, filename) in enumerate(noted.items()):
        body = "".join(f"    {line}\n" if line else "\n" for line in source.split("\n"))
        parts.append(f"\n\ndef _{n}():  # {filename}\n{body}    return locals()\n")
    parts.append("\n\nSOURCES = {\n")
    parts.extend(f"    {source!r}: _{n},\n" for n, source in enumerate(noted))
    parts.append("}\n")
    return "".join(parts)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--check", action="store_true", help="write nothing; exit 1 if a module differs"
    )
    args = parser.parse_args()
    stale = []
    for part, noted in collect().items():
        path, text = TARGET / f"{part}.py", render(part, noted).encode("utf-8")
        if not args.check:
            path.write_bytes(text)
        elif not path.is_file() or path.read_bytes() != text:
            stale.append(str(path))
    for path in stale:
        print(f"{path} is out of date: run scripts/generate_code.py", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
