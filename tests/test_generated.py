"""The checked-in generated code: up to date, and the code pjo generates.

``scripts/generate_code.py`` writes the modules of ``pjo._generated`` from
the field table; ``records.define`` runs a factory from them in place of
compiling the same source.
"""

import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from pjo.records import FIELDS

PARTS = ("classes", "readers", "writers", "field_problems")

ROOT = Path(__file__).resolve().parent.parent


def test_the_generator_script_reproduces_the_modules_byte_for_byte():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "generate_code.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def _shape(code: types.CodeType):
    """A code object's bytecode, names and constants, nested code included,
    without where it was compiled."""
    consts = tuple(_shape(c) if isinstance(c, types.CodeType) else c for c in code.co_consts)
    return code.co_name, code.co_code, code.co_names, code.co_varnames, code.co_freevars, consts


@pytest.mark.parametrize("part", PARTS)
def test_each_factory_defines_its_sources_functions_with_the_same_bytecode(part):
    sources = importlib.import_module(f"pjo._generated.{part}").SOURCES
    assert sources
    for source, factory in sources.items():
        compiled = compile(source, "<source>", "exec").co_consts
        stored = factory.__code__.co_consts
        functions = [_shape(c) for c in compiled if isinstance(c, types.CodeType)]
        assert functions == [_shape(c) for c in stored if isinstance(c, types.CodeType)]
        assert functions and factory.__code__.co_cellvars == ()


def _built_classes() -> list[type]:
    """Every class of a pjo module whose ``__init__`` a class factory defines:
    the classes ``records._build`` made."""
    factories = importlib.import_module("pjo._generated.classes").SOURCES.values()
    defined = {c for f in factories for c in f.__code__.co_consts if isinstance(c, types.CodeType)}
    package = importlib.import_module("pjo")
    modules = [
        importlib.import_module(f"pjo.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
        if not info.name.startswith("_")
    ]
    return [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and getattr(vars(value).get("__init__"), "__code__", None) in defined
    ]


def test_every_built_class_shares_one_eq_repr_reduce_and_frozen_hash():
    built = _built_classes()
    assert set(FIELDS) < set(built)
    for method in ("__eq__", "__repr__", "__reduce__"):
        assert len({vars(cls)[method] for cls in built}) == 1, method
    frozen = [cls for cls in built if "__delattr__" in vars(cls)]
    assert frozen and len({vars(cls)["__hash__"] for cls in frozen}) == 1
    assert all(vars(cls)["__hash__"] is None for cls in built if cls not in frozen)


def test_each_class_factory_defines_only_init_and_the_value_tuple():
    for factory in importlib.import_module("pjo._generated.classes").SOURCES.values():
        consts = factory.__code__.co_consts
        names = [c.co_name for c in consts if isinstance(c, types.CodeType)]
        assert names == ["__init__", "_values"]
