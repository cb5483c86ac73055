"""The checked-in generated code: up to date, and the code pjo generates.

``scripts/generate_code.py`` writes the modules of ``pjo._generated`` from
the field table; ``records.define`` runs a factory from them in place of
compiling the same source.
"""

import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

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
