#!/usr/bin/env python3
"""The standard-library checks of CI, each run in a fresh interpreter.

Each check is a function below.  It runs in its own ``python`` process,
started as ``python scripts/ci_checks.py --child NAME`` with the bundle it
reads on standard input: the seed bundle, which a separate ``python -m pjo
seed john-doe`` prints, or a bundle given here.  A check that counts the
code pjo compiles wraps ``compile``, ``exec`` and ``eval`` before pjo is
imported, so every check imports pjo itself.  Only the standard library
is needed; pjo must be importable (``PYTHONPATH=src``).

    PYTHONPATH=src python scripts/ci_checks.py          # run every check
    PYTHONPATH=src python scripts/ci_checks.py NAME ... # run the named checks

It prints each check's name and outcome, and exits 1 if one failed.
"""

import builtins
import subprocess
import sys

# A bundle that breaks a rule of each generated reporter that a refusal needs.
REFUSED = (
    b'{"formatVersion": "pjo-1", "patient": {"patientID": "P", "patientName": 5, '
    b'"birthDate": "2021-02-30"}, "intakeForm": {"intakeFormID": "F", "medicalHistory": '
    b'{"hadSurgery": [""]}, "socialHistory": {"smokingHabit": "no", "drinkingHabit": "no"}}}\n'
)


def count_compiles() -> list:
    """Wrap ``compile``, ``exec`` and ``eval``; the list returned gets the
    name of each call made from a ``pjo`` module that compiles: every
    ``compile``, and an ``exec`` or ``eval`` of source text."""
    calls = []

    def wrap(name, run):
        def counted(source, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__") or ""
            if (name == "compile" or isinstance(source, str)) and caller.startswith("pjo"):
                calls.append(name)
            return run(source, *args, **kwargs)

        return counted

    for name in ("compile", "exec", "eval"):
        setattr(builtins, name, wrap(name, getattr(builtins, name)))
    return calls


def validating_the_seed_compiles_nothing():
    """The checked-in generated code is what pjo runs: validating the seed
    compiles none of it."""
    calls = count_compiles()
    import pjo.cli

    code = pjo.cli.main(["validate", "-"])
    assert code == 0 and not calls, calls


def checking_the_seed_graph_compiles_nothing():
    """Nor does building the seed graph through the raising API and checking it."""
    calls = count_compiles()
    import pjo

    report = pjo.john_doe_graph().check_invariants()
    assert report.ok and not calls, calls


def a_damaged_record_is_explained_compiling_nothing():
    """A damaged record is explained by the generated reporters, compiling nothing."""
    calls = count_compiles()
    import pjo

    graph = pjo.john_doe_graph()
    graph.patients["JohnDoe"].patient_name = 5
    errors = [(d.code, d.location, d.message) for d in graph.check_invariants().errors]
    expected = [("invalid-type", "patients[JohnDoe].patientName", "patientName must be a string")]
    assert errors == expected and "pjo._generated.reporters" in sys.modules and not calls, (
        errors,
        calls,
    )


def refusing_a_bundle_compiles_nothing():
    """Refusing a bundle compiles no code either: its reporters are generated too."""
    calls = count_compiles()
    import pjo.cli

    code = pjo.cli.main(["validate", "-"])
    assert code == 1 and not calls, calls


def a_damaged_read_raises_the_checkers_problem():
    """A read of a damaged graph raises the checker's located problem, not a
    bare exception."""
    import re
    import unittest

    import pjo
    from pjo.queries import symptom_progression

    graph = pjo.john_doe_graph()
    graph.encounters["Encounter-Allergy-20210725"].symptoms.append("text")
    problem = (
        "encounters[Encounter-Allergy-20210725].symptoms[2]: symptoms entries must be a Symptom"
    )
    unittest.TestCase().assertRaisesRegex(
        pjo.FieldInvalidError,
        "^" + re.escape(problem) + "$",
        symptom_progression,
        graph,
        "JohnDoe",
        "Sneezing",
    )


def a_branch_error_pickles_and_a_lone_surrogate_is_refused():
    """A branch error survives pickling, and the checker refuses a lone
    surrogate in memory."""
    import pickle

    import pjo

    raised = pjo.AmbiguousTraceError("cause trace branches at X", branch_point="X")
    error = pickle.loads(pickle.dumps(raised))
    assert type(error) is pjo.AmbiguousTraceError, error
    assert str(error) == "cause trace branches at X" and error.branch_point == "X", error
    graph = pjo.john_doe_graph()
    graph.patients["JohnDoe"].gender = "\ud800"
    errors = [(d.code, d.location, d.message) for d in graph.check_invariants().errors]
    expected = [("invalid-value", "patients[JohnDoe].gender", "gender holds a lone surrogate")]
    assert errors == expected, errors


def the_writer_writes_the_seed_back():
    """The bundle writer's bytes against this interpreter's parse of them."""
    from pjo import parse_bundle, serialize_bundle

    data = sys.stdin.buffer.read()
    result = parse_bundle(data)
    assert result.ok and serialize_bundle(result.graph, "JohnDoe").encode() == data


def a_parse_leaves_the_collector_as_it_was():
    """A parse leaves the collector enabled and the freeze count unchanged;
    with nothing frozen on entry (not so on 3.12), the graph is in the oldest
    generation."""
    import gc

    from pjo import parse_bundle

    frozen = gc.get_freeze_count()
    result = parse_bundle(sys.stdin.buffer.read())
    assert result.ok and gc.isenabled() and gc.get_freeze_count() == frozen, frozen
    assert frozen or any(o is result.graph for o in gc.get_objects(2)), gc.get_count()


def a_huge_blood_pressure_is_reported():
    """``pjo validate`` reports a blood pressure with a side of more than
    4300 digits, which ``int`` refuses to read, as it reports any other
    implausible reading: exit 1, the located problem, no traceback."""
    import json

    document = json.loads(sys.stdin.buffer.read())
    document["encounters"][0]["vitals"][0]["bloodPressure"] = "9" * 5000 + "/1"
    validate = subprocess.run(
        [sys.executable, "-m", "pjo", "validate", "-"],
        input=json.dumps(document).encode(),
        capture_output=True,
    )
    problem = (
        b"error  field-invalid  encounters[0].vitals[0].bloodPressure: "
        b"systolic and diastolic must have at most 4300 digits, got 5000 and 1\n"
    )
    assert validate.returncode == 1 and problem in validate.stdout, validate
    assert b"Traceback" not in validate.stdout + validate.stderr, validate.stderr


def the_raising_api_keeps_one_owner_index():
    """Building the seed graph through ``add_*`` and ``link`` builds the
    owner index once: the API's own writes update it in place.  A frozen
    record, whose ``__init__`` sets its slots through their descriptors on
    this interpreter, still refuses assignment and deletion."""
    import pjo
    from pjo import graph

    builds = []
    build = graph._OwnerIndex.__init__

    def counted(index, journey_graph):
        builds.append(index)
        build(index, journey_graph)

    graph._OwnerIndex.__init__ = counted
    journey_graph = pjo.john_doe_graph()
    for patient_id in journey_graph.patients:
        journey_graph.encounters_of(patient_id)
        journey_graph.edges_of(patient_id)
    assert len(builds) == 1 and len(journey_graph.edges) == 3, (builds, journey_graph.edges)
    edge = journey_graph.edges[0]
    values = edge._values()
    refused = []
    for change in (lambda: setattr(edge, "via", "x"), lambda: delattr(edge, "via")):
        try:
            change()
        except AttributeError as error:
            refused.append(str(error))
    assert refused == ["JourneyEdge is frozen: cannot change 'via'"] * 2, refused
    assert edge._values() == values and edge == pjo.JourneyEdge(*values), edge


SEED = "seed"
# Each check by name, with what it reads on standard input.
CHECKS = {
    check.__name__: (check, stdin)
    for check, stdin in [
        (validating_the_seed_compiles_nothing, SEED),
        (checking_the_seed_graph_compiles_nothing, None),
        (a_damaged_record_is_explained_compiling_nothing, None),
        (refusing_a_bundle_compiles_nothing, REFUSED),
        (a_damaged_read_raises_the_checkers_problem, None),
        (a_branch_error_pickles_and_a_lone_surrogate_is_refused, None),
        (the_writer_writes_the_seed_back, SEED),
        (a_parse_leaves_the_collector_as_it_was, SEED),
        (a_huge_blood_pressure_is_reported, SEED),
        (the_raising_api_keeps_one_owner_index, None),
    ]
}


def main(names: list) -> int:
    if names[:1] == ["--child"]:
        CHECKS[names[1]][0]()
        return 0
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        print(f"unknown checks: {', '.join(unknown)}; known: {', '.join(CHECKS)}", file=sys.stderr)
        return 2
    seed = subprocess.run(
        [sys.executable, "-m", "pjo", "seed", "john-doe"], capture_output=True, check=True
    ).stdout
    failed = 0
    for name in names or CHECKS:
        stdin = CHECKS[name][1]
        child = subprocess.run(
            [sys.executable, __file__, "--child", name],
            input=seed if stdin is SEED else stdin or b"",
            capture_output=True,
        )
        print(f"{'ok  ' if child.returncode == 0 else 'FAIL'} {name}")
        if child.returncode != 0:
            failed += 1
            sys.stderr.write(child.stderr.decode(errors="replace"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
