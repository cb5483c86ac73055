"""What each entry point loads, and the package's lazily imported names.

``pjo`` imports a module on first use of one of its public names, and
each CLI command imports only the modules it runs.  The module checks run
in a fresh interpreter without ``site``, so installed ``.pth`` files cannot
load a module on pjo's behalf.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pjo

SRC = str(Path(pjo.__file__).resolve().parent.parent)

PROBE = """
import contextlib, io, json, sys
if sys.argv[1:]:
    import pjo.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = pjo.cli.main(sys.argv[1:])
else:
    import pjo
    code = 0
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def loaded_after(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == 0, proc.stderr
    return set(result["modules"])


@pytest.fixture(scope="module")
def seed_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed") / "john.json"
    path.write_text(pjo.john_doe_bundle(), encoding="utf-8")
    return str(path)


def test_importing_the_package_loads_no_submodule():
    assert not {module for module in loaded_after() if module.startswith("pjo.")}


def test_validate_loads_no_query_export_or_statistics_code(seed_path):
    loaded = loaded_after("validate", seed_path)
    assert "pjo.graph" in loaded
    absent = {"dataclasses", "statistics", "pjo.agreement", "pjo.dot", "pjo.queries"}
    assert not absent & loaded


def test_timeline_query_loads_no_export_or_statistics_code(seed_path):
    loaded = loaded_after("query", "timeline", "--patient", "JohnDoe", seed_path)
    assert "pjo.queries" in loaded
    assert not {"statistics", "pjo.agreement", "pjo.dot"} & loaded


@pytest.mark.parametrize("name", pjo.__all__)
def test_every_public_name_is_its_defining_modules_object(name):
    module = importlib.import_module(f"pjo.{pjo._MODULE_OF[name]}")
    value = getattr(pjo, name)
    assert value is getattr(module, name)
    if hasattr(value, "__module__"):
        assert value.__module__ == module.__name__


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from pjo import *", namespace)
    for name in pjo.__all__:
        assert namespace[name] is getattr(pjo, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pjo.no_such_name
    assert not hasattr(pjo, "dataclass")
