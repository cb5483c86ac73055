"""What each entry point loads, and the package's lazily imported names.

``pjo`` imports a module on first use of one of its public names, and
each CLI command imports only the modules it runs, the generated modules of
``pjo._generated`` included.  The module checks run in a fresh interpreter
without ``site``, so installed ``.pth`` files cannot load a module on pjo's
behalf.  No command compiles code, not even on a bundle it refuses, and
neither does building the seed graph through the raising API and checking
it, which runs the field checks: pjo runs the checked-in ``pjo._generated``.
Only a damaged record, or a refused bundle, loads the reporters that word
its problems.  ``pjo validate`` and ``pjo query timeline`` import neither
``typing`` nor ``pathlib``.
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


def _run(script: str, *argv) -> dict:
    """What ``script`` prints as JSON, run with ``argv`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def loaded_after(*argv, code=0):
    result = _run(PROBE, *argv)
    assert result["code"] == code, result
    return set(result["modules"])


@pytest.fixture(scope="module")
def seed_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed") / "john.json"
    path.write_text(pjo.john_doe_bundle(), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def refused_path(tmp_path_factory):
    """A bundle whose scalars, string-array entry and code each break a
    rule, so the validator reports them through the refusal reporters."""
    document = json.loads(pjo.john_doe_bundle())
    document["patient"]["patientName"] = 5
    document["intakeForm"]["medicalHistory"]["hadSurgery"] = [""]
    document["encounters"][0]["date"] = "2021-02-30"
    document["encounters"][0]["diagnoses"] = [{"diagnosisName": "x", "icd10": "e11"}]
    path = tmp_path_factory.mktemp("refused") / "bad.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


# Notes in ``calls`` each call pjo's own code makes to ``compile``, or to
# ``exec`` or ``eval`` with a string, from then on.
NOTING = """
import builtins, contextlib, io, json, sys
calls = []

def noting(name):
    run = getattr(builtins, name)
    def call(source, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__") or ""
        if (name == "compile" or isinstance(source, str)) and caller.split(".")[0] == "pjo":
            calls.append(f"{name} in {caller}")
        return run(source, *args, **kwargs)
    return call

for name in ("compile", "exec", "eval"):
    setattr(builtins, name, noting(name))
"""

# The calls while ``import pjo.cli`` and the command run.
COMPILES = NOTING + """
import pjo.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = pjo.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "calls": calls}))
"""

# The seed graph built through the raising API and checked, with its
# patient's name made a number first if the argument is ``damaged``: the
# errors, the calls and the modules loaded.
CHECKED = NOTING + """
import pjo
graph = pjo.john_doe_graph()
if sys.argv[1:] == ["damaged"]:
    graph.patients["JohnDoe"].patient_name = 5
errors = [[d.code, d.location, d.message] for d in graph.check_invariants().errors]
print(json.dumps({"errors": errors, "calls": calls, "modules": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def csv_paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("stats")
    (folder / "kappa.csv").write_text("subject,yes,no\ns1,2,0\ns2,1,1\n", encoding="utf-8")
    (folder / "likert.csv").write_text("dimension,response\nq1,4\nq1,5\nq2,3\n", encoding="utf-8")
    return {"kappa": str(folder / "kappa.csv"), "likert": str(folder / "likert.csv")}


LEAF_COMMANDS = {
    "seed": ["seed", "john-doe"],
    "validate": ["validate", "{seed}"],
    "timeline": ["query", "timeline", "--patient", "JohnDoe", "{seed}"],
    "symptom-progression": [
        "query", "symptom-progression", "--patient", "JohnDoe", "--symptom", "Sneezing", "{seed}"
    ],
    "followup-chain": [
        "query", "followup-chain", "--encounter", "Encounter-Allergy-20210725", "{seed}"
    ],
    "cause-trace": [
        "query", "cause-trace", "--encounter", "Encounter-AllergyFollowUp-20220418", "{seed}"
    ],
    "symptom-diagnosis": ["query", "symptom-diagnosis", "--patient", "JohnDoe", "{seed}"],
    "find": ["query", "find", "--patient", "JohnDoe", "--specialty", "Allergy", "{seed}"],
    "export": ["export", "{seed}"],
    "export-full": ["export", "{seed}", "--detail", "full"],
    "kappa": ["stats", "kappa", "{kappa}"],
    "likert": ["stats", "likert", "--format", "json", "{likert}"],
}  # fmt: skip


def compiles_during(*argv, code=0) -> list[str]:
    """The compile, exec and eval calls pjo makes in a fresh process while
    the command ``argv`` runs, exiting with ``code``."""
    result = _run(COMPILES, *argv)
    assert result["code"] == code, result
    return result["calls"]


@pytest.mark.parametrize("command", LEAF_COMMANDS)
def test_no_command_compiles_code(command, seed_path, csv_paths):
    argv = [arg.format(seed=seed_path, **csv_paths) for arg in LEAF_COMMANDS[command]]
    assert compiles_during(*argv) == []


def test_building_and_checking_the_seed_graph_compiles_no_code():
    result = _run(CHECKED)
    assert result["errors"] == [] and result["calls"] == []
    assert "pjo._generated.field_problems" in result["modules"]
    assert "pjo._generated.reporters" not in result["modules"]


def test_a_damaged_record_is_explained_by_the_reporters_without_compiling():
    result = _run(CHECKED, "damaged")
    assert result["errors"] == [
        ["invalid-type", "patients[JohnDoe].patientName", "patientName must be a string"]
    ]
    assert result["calls"] == []
    assert "pjo._generated.reporters" in result["modules"]


def test_refusing_a_bundle_compiles_no_code(refused_path):
    assert compiles_during("validate", refused_path, code=1) == []


# The generated modules each command loads: reading a bundle needs the
# readers, writing one the writers and building one the field checks.
READS = {"pjo._generated.classes", "pjo._generated.readers"}
GENERATED_BY_COMMAND = {
    "seed": {"pjo._generated.classes", "pjo._generated.field_problems", "pjo._generated.writers"},
    **{command: READS for command in LEAF_COMMANDS if command not in ("seed", "kappa", "likert")},
    "kappa": {"pjo._generated.classes"},
    "likert": {"pjo._generated.classes"},
}


@pytest.mark.parametrize("command", LEAF_COMMANDS)
def test_each_command_loads_only_the_generated_modules_it_runs(command, seed_path, csv_paths):
    argv = [arg.format(seed=seed_path, **csv_paths) for arg in LEAF_COMMANDS[command]]
    loaded = loaded_after(*argv)
    assert {module for module in loaded if module.startswith("pjo._")} == (
        GENERATED_BY_COMMAND[command] | {"pjo._generated"}
    )


def test_only_a_refused_bundle_loads_the_reporters(refused_path):
    loaded = loaded_after("validate", refused_path, code=1)
    assert {module for module in loaded if module.startswith("pjo._")} == (
        READS | {"pjo._generated", "pjo._generated.reporters"}
    )


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


@pytest.mark.parametrize("command", ["validate", "timeline"])
def test_validate_and_timeline_load_neither_typing_nor_pathlib(command, seed_path):
    loaded = loaded_after(*[arg.format(seed=seed_path) for arg in LEAF_COMMANDS[command]])
    assert not {"typing", "pathlib"} & loaded


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
