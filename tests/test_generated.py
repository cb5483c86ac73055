"""The checked-in generated code: up to date, and what pjo runs.

``scripts/generate_code.py`` writes the modules of ``pjo._generated`` with
the generators of ``pjo._codegen``, from the field and rule tables and the
class declarations; pjo imports those modules and compiles nothing.  The
script runs from nothing: with the generated modules gone it still writes
them, byte for byte.
"""

import importlib
import inspect
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

from pjo._generated import classes
from pjo.records import FIELDS

PARTS = ("classes", "readers", "writers", "field_problems", "reporters")

ROOT = Path(__file__).resolve().parent.parent
GENERATED = ROOT / "src" / "pjo" / "_generated"


def test_the_generator_script_reproduces_the_modules_byte_for_byte():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "generate_code.py"), "--check"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_script_writes_the_modules_from_nothing(tmp_path):
    for folder in ("src", "scripts"):
        shutil.copytree(ROOT / folder, tmp_path / folder, ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "pjo" / "_generated"
    for part in PARTS:
        (target / f"{part}.py").unlink()
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / "generate_code.py")],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in target.glob("*.py")) == sorted(
        path.name for path in GENERATED.glob("*.py")
    )
    for part in PARTS:
        assert (target / f"{part}.py").read_bytes() == (GENERATED / f"{part}.py").read_bytes()


def _built_classes() -> list[type]:
    """Every class of a pjo module whose ``__init__`` the classes module
    makes: the classes ``records._build`` made."""
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
        and getattr(vars(value).get("__init__"), "__module__", None) == classes.__name__
    ]


def test_every_built_class_shares_one_eq_repr_reduce_and_frozen_hash():
    built = _built_classes()
    assert set(FIELDS) < set(built)
    for method in ("__eq__", "__repr__", "__reduce__"):
        assert len({vars(cls)[method] for cls in built}) == 1, method
    frozen = [cls for cls in built if "__delattr__" in vars(cls)]
    assert frozen and len({vars(cls)["__hash__"] for cls in frozen}) == 1
    assert all(vars(cls)["__hash__"] is None for cls in built if cls not in frozen)


def test_each_built_class_takes_its_methods_from_its_own_function():
    built = {cls.__name__: cls for cls in _built_classes()}
    functions = {
        name.removeprefix("methods_"): function
        for name, function in vars(classes).items()
        if name.startswith("methods_")
    }
    assert functions.keys() == built.keys()
    for name, function in functions.items():
        nested = [c.co_name for c in function.__code__.co_consts if inspect.iscode(c)]
        assert nested == ["__init__", "_values"], name
        for method in nested:
            assert vars(built[name])[method].__qualname__ == f"{name}.{method}"
