#!/usr/bin/env python3
"""Write the modules of src/pjo/_generated, the code pjo generates with
``pjo._codegen`` from ``records.FIELDS``, ``graph.RULES`` and its classes.

pjo runs what the modules hold: run this after any change to those or to a
generator.  A test and CI's ``--check`` fail while a module is out of date.
It runs whether the modules are current, stale or missing.

    python scripts/generate_code.py          # rewrite the modules
    python scripts/generate_code.py --check  # exit 1 if one is out of date
"""

import argparse
import importlib
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TARGET = SRC / "pjo" / "_generated"


class StandIn(types.ModuleType):
    """``pjo._generated.classes`` while pjo is imported here, before the
    generators can run: it gives each class ``records._build`` builds the
    methods ``_init`` and ``_values``, enough to import pjo."""

    def __getattr__(self, name: str):
        return lambda *makers: (_init, _values)


def _init(*args, **kwargs):  # the instance first: a field may be named "record"
    """Set the values given and the class's other ``_defaults``: importing
    pjo builds nothing with a ``Fresh`` one."""
    record = args[0]
    given = {**dict(zip(record._attrs, args[1:])), **kwargs}
    for attr, value in {**record._defaults, **given}.items():
        object.__setattr__(record, attr, value)


def _values(record):
    return tuple(map(record.__getattribute__, record._attrs))


def generate() -> dict:
    """Each module of ``pjo._generated`` by name, as text."""
    sys.path.insert(0, str(SRC))
    sys.modules["pjo._generated.classes"] = StandIn("pjo._generated.classes")
    for path in sorted((SRC / "pjo").glob("*.py")):
        if path.stem != "__main__":
            importlib.import_module("pjo" if path.stem == "__init__" else f"pjo.{path.stem}")
    refuse = sys.modules["pjo.records"]._refuse_change  # a frozen class's __setattr__
    declared = []  # each built class's declaration, by module and in definition order
    for module in sorted(name for name in sys.modules if name.partition(".")[0] == "pjo"):
        for cls in vars(sys.modules[module]).values():
            built = isinstance(cls, type) and vars(cls).get("__init__") is _init
            if built and cls.__module__ == module:
                frozen, post = vars(cls).get("__setattr__") is refuse, "__post_init__" in vars(cls)
                declared.append((cls.__name__, cls._attrs, cls._defaults, frozen, post))
    return importlib.import_module("pjo._codegen").modules(declared)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--check", action="store_true", help="write nothing; exit 1 if a module differs"
    )
    args = parser.parse_args()
    stale = []
    for part, text in generate().items():
        path, data = TARGET / f"{part}.py", text.encode("utf-8")
        if not args.check:
            path.write_bytes(data)
        elif not path.is_file() or path.read_bytes() != data:
            stale.append(str(path))
    for path in stale:
        print(f"{path} is out of date: run scripts/generate_code.py", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
