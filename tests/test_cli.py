import argparse
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

from dotcheck import check_dot
from pjo import JourneyGraph, cli, john_doe_bundle

KAPPA_CSV = "subject,yes,no\ns1,2,0\ns2,1,1\n"
LIKERT_CSV = "dimension,response\nclarity,4\nclarity,4\nclarity,5\nclarity,5\n"


def run_cli(*args, stdin=None, check_rc=None):
    env = dict(os.environ, PJO_NO_COLOR="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pjo", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )
    if check_rc is not None:
        assert proc.returncode == check_rc, (proc.returncode, proc.stdout, proc.stderr)
    return proc


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("bundles") / "john.json"
    path.write_text(john_doe_bundle(), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def kappa_csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("stats") / "ratings.csv"
    path.write_text(KAPPA_CSV, encoding="utf-8")
    return str(path)


class TestSeedAndValidate:
    def test_seed_prints_the_bundle(self):
        proc = run_cli("seed", "john-doe", check_rc=0)
        assert proc.stdout == john_doe_bundle()

    def test_seed_validate_pipeline(self):
        seed = run_cli("seed", "john-doe", check_rc=0)
        validate = run_cli("validate", "-", stdin=seed.stdout, check_rc=0)
        assert "summary: 0 errors, 1 warnings" in validate.stdout

    def test_validate_file_path(self, bundle_path):
        run_cli("validate", bundle_path, check_rc=0)

    def test_validate_reports_errors_with_exit_1(self):
        document = json.loads(john_doe_bundle())
        document["encounters"][0]["diagnoses"][0]["icd10"] = "notacode"
        proc = run_cli("validate", "-", stdin=json.dumps(document), check_rc=1)
        assert "bad-icd10" in proc.stdout
        assert "summary: 1 errors" in proc.stdout

    def test_validate_json_format(self, bundle_path):
        proc = run_cli("validate", "--format", "json", bundle_path, check_rc=0)
        report = json.loads(proc.stdout)
        assert report["valid"] is True
        assert report["errors"] == 0
        assert report["warnings"] == 1
        assert report["diagnostics"][0]["code"] == "duplicate-cui-annotation"

    def test_validate_json_is_byte_identical_across_runs(self, bundle_path):
        first = run_cli("validate", "--format", "json", bundle_path, check_rc=0)
        second = run_cli("validate", "--format", "json", bundle_path, check_rc=0)
        assert first.stdout == second.stdout

    def test_validate_garbage_is_exit_1(self):
        proc = run_cli("validate", "-", stdin="{nope", check_rc=1)
        assert "syntax-error" in proc.stdout

    def test_no_ansi_escapes_when_disabled(self, bundle_path):
        proc = run_cli("validate", bundle_path, check_rc=0)
        assert "\x1b[" not in proc.stdout


    @pytest.mark.parametrize(
        "document",
        ["[" * 200_000, '{"formatVersion": ' + "9" * 5000 + "}"],
        ids=["deep-nesting", "long-integer"],
    )
    def test_validate_reports_undecodable_documents_without_a_traceback(self, document):
        proc = run_cli("validate", "-", stdin=document, check_rc=1)
        assert "syntax-error" in proc.stdout
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("output", ["table", "json"])
    @pytest.mark.parametrize("where", ["value", "key"])
    def test_validate_reports_lone_surrogates_without_a_traceback(self, where, output):
        document = json.loads(john_doe_bundle())
        if where == "value":
            document["patient"]["patientName"] = "John \ud800"
        else:
            document["patient"]["\ud800"] = "x"
            document["patient"]["patientName"] = ""
        stdin = json.dumps(document)  # ASCII: the surrogate is a JSON escape
        proc = run_cli("validate", "--format", output, "-", stdin=stdin, check_rc=1)
        assert "patient." in proc.stdout
        assert "Traceback" not in proc.stderr


class TestQueries:
    def test_timeline_four_row_table(self, bundle_path):
        proc = run_cli("query", "timeline", "--patient", "JohnDoe", bundle_path, check_rc=0)
        lines = proc.stdout.strip().splitlines()
        # Header, separator, then one row per encounter.
        assert len(lines) == 6
        assert lines[0].split()[:2] == ["date", "encounter"]
        assert "2021-01-05" in lines[2]
        assert "Encounter-GeneralMedicine-20210105" in lines[2]
        assert "Encounter-AllergyFollowUp-20220418" in lines[5]

    def test_timeline_from_stdin(self):
        proc = run_cli(
            "query",
            "timeline",
            "--patient",
            "JohnDoe",
            "-",
            stdin=john_doe_bundle(),
            check_rc=0,
        )
        assert len(proc.stdout.strip().splitlines()) == 6

    def test_timeline_json(self, bundle_path):
        proc = run_cli(
            "query", "timeline", "--format", "json", "--patient", "JohnDoe", bundle_path,
            check_rc=0,
        )
        entries = json.loads(proc.stdout)
        assert [e["encounterID"] for e in entries] == [
            "Encounter-GeneralMedicine-20210105",
            "Encounter-Pulmonology-20210315",
            "Encounter-Allergy-20210725",
            "Encounter-AllergyFollowUp-20220418",
        ]
        assert entries[0]["inboundLinks"] == [
            {"kind": "causedBy", "fromEncounterID": "Encounter-Pulmonology-20210315"}
        ]

    def test_timeline_json_is_byte_identical_across_runs(self, bundle_path):
        args = ("query", "timeline", "--format", "json", "--patient", "JohnDoe", bundle_path)
        assert run_cli(*args, check_rc=0).stdout == run_cli(*args, check_rc=0).stdout

    def test_timeline_unknown_patient_is_exit_1(self, bundle_path):
        proc = run_cli("query", "timeline", "--patient", "Nobody", bundle_path)
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_symptom_progression(self, bundle_path):
        proc = run_cli(
            "query", "symptom-progression", "--patient", "JohnDoe",
            "--symptom", "Sneezing", bundle_path, check_rc=0,
        )
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 4
        assert "moderate" in lines[2]
        assert "mild" in lines[3]

    def test_followup_chain(self, bundle_path):
        proc = run_cli(
            "query", "followup-chain", "--encounter", "Encounter-Allergy-20210725",
            "--format", "json", bundle_path, check_rc=0,
        )
        chain = json.loads(proc.stdout)["chain"]
        assert [e["encounterID"] for e in chain] == [
            "Encounter-Allergy-20210725",
            "Encounter-AllergyFollowUp-20220418",
        ]

    def test_cause_trace(self, bundle_path):
        proc = run_cli(
            "query", "cause-trace", "--encounter", "Encounter-Pulmonology-20210315",
            "--format", "json", bundle_path, check_rc=0,
        )
        trace = json.loads(proc.stdout)["trace"]
        assert [e["encounterID"] for e in trace] == [
            "Encounter-Pulmonology-20210315",
            "Encounter-GeneralMedicine-20210105",
        ]

    def test_symptom_diagnosis_table(self, bundle_path):
        proc = run_cli(
            "query", "symptom-diagnosis", "--patient", "JohnDoe", bundle_path, check_rc=0
        )
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 9  # header + separator + 7 rows

    def test_find_by_specialty(self, bundle_path):
        proc = run_cli(
            "query", "find", "--specialty", "allergy", bundle_path, check_rc=0
        )
        assert proc.stdout.splitlines() == [
            "Encounter-Allergy-20210725",
            "Encounter-AllergyFollowUp-20220418",
        ]

    def test_find_with_date_range(self, bundle_path):
        proc = run_cli(
            "query", "find", "--patient", "JohnDoe",
            "--from", "2021-01-01", "--to", "2021-12-31", bundle_path, check_rc=0,
        )
        assert len(proc.stdout.splitlines()) == 3

    def test_find_impossible_range_is_empty(self, bundle_path):
        proc = run_cli(
            "query", "find", "--from", "2023-01-01", "--to", "2022-01-01",
            bundle_path, check_rc=0,
        )
        assert proc.stdout == ""

    def test_query_on_invalid_bundle_is_exit_1(self):
        proc = run_cli("query", "timeline", "--patient", "X", "-", stdin="{}")
        assert proc.returncode == 1


class TestExport:
    def test_journey_dot_to_stdout(self, bundle_path):
        proc = run_cli("export", bundle_path, check_rc=0)
        summary = check_dot(proc.stdout)
        assert summary.node_count == 6
        assert summary.edge_count == 8

    def test_full_detail(self, bundle_path):
        proc = run_cli("export", "--detail", "full", bundle_path, check_rc=0)
        summary = check_dot(proc.stdout)
        assert summary.node_count > 6
        assert "Symptom-1" in summary.node_ids

    def test_output_file(self, bundle_path, tmp_path):
        target = tmp_path / "journey.dot"
        run_cli("export", "--output", str(target), bundle_path, check_rc=0)
        assert check_dot(target.read_text(encoding="utf-8")).node_count == 6

    def test_export_is_deterministic(self, bundle_path):
        assert run_cli("export", bundle_path).stdout == run_cli("export", bundle_path).stdout

    def test_unknown_patient_is_exit_1(self, bundle_path):
        proc = run_cli("export", "--patient", "Nobody", bundle_path)
        assert proc.returncode == 1
        assert "error" in proc.stderr


class TestStats:
    def test_kappa_fixture_table(self, kappa_csv_path):
        proc = run_cli("stats", "kappa", kappa_csv_path, check_rc=0)
        assert "kappa:              -0.3333" in proc.stdout
        assert "standard error:     0.9129" in proc.stdout

    def test_kappa_from_stdin(self):
        proc = run_cli("stats", "kappa", "-", stdin=KAPPA_CSV, check_rc=0)
        assert "-0.3333" in proc.stdout

    def test_kappa_json(self, kappa_csv_path):
        proc = run_cli("stats", "kappa", "--format", "json", kappa_csv_path, check_rc=0)
        report = json.loads(proc.stdout)
        assert abs(report["kappa"] - (-1 / 3)) < 1e-9
        assert report["subjects"] == 2
        assert report["ratersPerSubject"] == 2

    def test_kappa_json_is_byte_identical_across_runs(self, kappa_csv_path):
        args = ("stats", "kappa", "--format", "json", kappa_csv_path)
        assert run_cli(*args, check_rc=0).stdout == run_cli(*args, check_rc=0).stdout

    def test_degenerate_matrix_is_exit_1(self):
        proc = run_cli("stats", "kappa", "-", stdin="subject,a,b\ns1,2,0\ns2,2,0\n")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_a_repeated_subject_is_exit_1(self):
        proc = run_cli("stats", "kappa", "-", stdin=KAPPA_CSV + "s1,1,1\n")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: row 3 repeats subject 's1'\n"

    def test_malformed_csv_is_exit_1(self):
        proc = run_cli("stats", "kappa", "-", stdin="not,a,matrix\n1,2,3\n")
        assert proc.returncode == 1

    @pytest.mark.parametrize("command", ["kappa", "likert"])
    def test_field_over_the_csv_field_limit_is_exit_1(self, command):
        proc = run_cli("stats", command, "-", stdin="subject,a,b\n" + "x" * 200_000 + ",1,1\n")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_likert_summary(self):
        proc = run_cli("stats", "likert", "-", stdin=LIKERT_CSV, check_rc=0)
        assert "overall: mean 4.5000, sd 0.5000" in proc.stdout
        assert "1.0000" in proc.stdout  # agree fraction column

    def test_likert_json(self):
        proc = run_cli("stats", "likert", "--format", "json", "-", stdin=LIKERT_CSV, check_rc=0)
        report = json.loads(proc.stdout)
        assert report["overallMean"] == 4.5
        assert report["dimensions"][0]["agreeFraction"] == 1.0


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    def test_unknown_seed_name(self):
        assert run_cli("seed", "jane-doe").returncode == 2

    def test_missing_required_flag(self, bundle_path):
        assert run_cli("query", "timeline", bundle_path).returncode == 2

    def test_bad_date_argument(self, bundle_path):
        proc = run_cli("query", "find", "--from", "garbage", bundle_path)
        assert proc.returncode == 2
        assert "--from" in proc.stderr or "garbage" in proc.stderr

    def test_bad_format_choice(self, bundle_path):
        assert run_cli("validate", "--format", "xml", bundle_path).returncode == 2

    def test_missing_file_is_exit_1(self):
        proc = run_cli("validate", "/nonexistent/bundle.json")
        assert proc.returncode == 1
        assert "error" in proc.stderr


DUPLICATE_CUI_LINE = (
    "warning  duplicate-cui-annotation  annotations: "
    "duplicate CUI annotation: C3714536 annotates Encounter and SocialHistory"
)
GAP_BUNDLE_LINES = [
    "warning  unknown-field  patient.nickname: unknown field 'nickname' ignored",
    DUPLICATE_CUI_LINE,
    "warning  unresolved-via  links[0].via: "
    "via 'Nothing' names no care plan or diagnosis in either endpoint",
    "warning  journey-gap  patients[JohnDoe]: journey gap: no link between "
    "'Encounter-Pulmonology-20210315' (2021-03-15) and "
    "'Encounter-Allergy-20210725' (2021-07-25)",
    "summary: 0 errors, 4 warnings",
]


def gap_bundle() -> str:
    """The seed bundle without its ``next`` link, with an unresolved ``via``
    and an unknown patient field: parse and checker warnings together."""
    document = json.loads(john_doe_bundle())
    document["links"] = [link for link in document["links"] if link["kind"] != "next"]
    document["links"][0]["via"] = "Nothing"
    document["patient"]["nickname"] = "JD"
    return json.dumps(document, indent=2)


class TestValidateChecksOnce:
    """``pjo validate`` runs the checker's join pass once, inside the parser."""

    @pytest.fixture
    def check_calls(self, monkeypatch):
        calls = []
        check = JourneyGraph._check_joins

        def counted(graph):
            calls.append(graph)
            return check(graph)

        monkeypatch.setattr(JourneyGraph, "_check_joins", counted)
        monkeypatch.setenv("PJO_NO_COLOR", "1")
        return calls

    @pytest.mark.parametrize(
        "text, lines",
        [
            (john_doe_bundle(), [DUPLICATE_CUI_LINE, "summary: 0 errors, 1 warnings"]),
            (gap_bundle(), GAP_BUNDLE_LINES),
        ],
        ids=["seed", "journey-gap"],
    )
    def test_validate_runs_the_check_once_with_unchanged_output(
        self, text, lines, check_calls, tmp_path, capsys
    ):
        path = tmp_path / "bundle.json"
        path.write_text(text, encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 0
        assert len(check_calls) == 1
        assert capsys.readouterr().out == "\n".join(lines) + "\n"
        assert cli.main(["validate", "--format", "json", str(path)]) == 0
        assert len(check_calls) == 2
        report = json.loads(capsys.readouterr().out)
        assert (report["valid"], report["errors"]) == (True, 0)
        assert report["warnings"] == len(lines) - 1
        assert [
            f"{d['severity']}  {d['code']}  {d['location']}: {d['message']}"
            for d in report["diagnostics"]
        ] == lines[:-1]

    def test_invalid_bundle_is_not_checked(self, check_calls, tmp_path, capsys):
        path = tmp_path / "bundle.json"
        path.write_text("{nope", encoding="utf-8")
        assert cli.main(["validate", str(path)]) == 1
        assert check_calls == []


# -- every output pinned byte for byte --------------------------------------
#
# ``data/cli_outputs.json`` holds, per case below, the exit code, standard
# output and standard error that ``cli.main`` gave when the case was
# recorded.  ``data/cli_parser.json`` holds the argparse declaration of each
# command path: its prog, description and actions.  Help and usage-error
# texts are formatted by argparse, differently across Python versions, so
# they are compared with those of a parser rebuilt from that declaration.

DATA = Path(__file__).resolve().parent / "data"
OUTPUTS = json.loads((DATA / "cli_outputs.json").read_text(encoding="utf-8"))
DECLARED = json.loads((DATA / "cli_parser.json").read_text(encoding="utf-8"))

INVALID_BUNDLE = (
    '{"formatVersion": "pjo-1", "patient": {"patientID": "", "birthDate": "2021-02-30"}, '
    '"extra": 1}'
)
BUNDLE_COMMANDS = {
    "validate": ["validate"],
    "timeline": ["query", "timeline", "--patient", "JohnDoe"],
    "symptom-progression": [
        "query", "symptom-progression", "--patient", "JohnDoe", "--symptom", "Sneezing"
    ],
    "followup-chain": ["query", "followup-chain", "--encounter", "Encounter-Allergy-20210725"],
    "cause-trace": ["query", "cause-trace", "--encounter", "Encounter-Pulmonology-20210315"],
    "symptom-diagnosis": ["query", "symptom-diagnosis", "--patient", "JohnDoe"],
    "find": [
        "query", "find", "--specialty", "Allergy", "--from", "2021-01-01", "--to", "2021-12-31"
    ],
}


def output_cases() -> dict[str, tuple[list[str], str]]:
    """Case ID -> (argv, name of the input file its ``{input}`` names)."""
    cases = {}
    for bundle in ("seed", "gap"):
        for name, argv in BUNDLE_COMMANDS.items():
            for form in ("table", "json"):
                cases[f"{name}-{form}-{bundle}"] = ([*argv, "--format", form, "{input}"], bundle)
        for detail in ("journey", "full"):
            argv = ["export", "--patient", "JohnDoe", "--detail", detail, "{input}"]
            cases[f"export-{detail}-{bundle}"] = (argv, bundle)
    for name in ("kappa", "likert"):
        for form in ("table", "json"):
            cases[f"{name}-{form}"] = (["stats", name, "--format", form, "{input}"], name)
    cases["seed"] = (["seed", "john-doe"], "seed")
    argv = ["query", "timeline", "--patient", "JohnDoe", "{input}"]
    cases["timeline-invalid"] = (argv, "invalid")
    return cases


INPUTS = {
    "seed": john_doe_bundle(),
    "gap": gap_bundle(),
    "kappa": KAPPA_CSV,
    "likert": LIKERT_CSV,
    "invalid": INVALID_BUNDLE,
}
COMMAND_PATHS = [
    "pjo",
    "pjo seed",
    "pjo validate",
    "pjo query",
    *(f"pjo query {name}" for name in list(BUNDLE_COMMANDS)[1:]),
    "pjo export",
    "pjo stats",
    "pjo stats kappa",
    "pjo stats likert",
]
USAGE_ERRORS = {
    "unknown-command": ["frobnicate"],
    "unknown-query": ["query", "frobnicate"],
    "query-alone": ["query"],
    "missing-patient": ["query", "timeline", "x.json"],
    "bad-date": ["query", "find", "--from", "garbage", "x.json"],
    "bad-format": ["validate", "--format", "xml", "x.json"],
}


@pytest.fixture
def plain(monkeypatch):
    """No color, and argparse wrapping at 80 columns whatever the terminal."""
    monkeypatch.setenv("PJO_NO_COLOR", "1")
    monkeypatch.setenv("COLUMNS", "80")


def test_every_case_has_a_recorded_output():
    assert set(OUTPUTS) == set(output_cases())


@pytest.mark.parametrize("case", list(output_cases()))
def test_output_is_unchanged(case, plain, tmp_path, capsys):
    argv, source = output_cases()[case]
    path = tmp_path / "input"
    path.write_text(INPUTS[source], encoding="utf-8")
    code = cli.main([str(path) if word == "{input}" else word for word in argv])
    out, err = capsys.readouterr()
    assert {"code": code, "stdout": out, "stderr": err} == OUTPUTS[case]


def declared_parser() -> argparse.ArgumentParser:
    """The parser that ``data/cli_parser.json`` declares, built with the
    running argparse: its help and errors are what pjo's must print."""

    def iso_date(value: str) -> date:
        try:
            return date.fromisoformat(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{value!r} is not an ISO date (YYYY-MM-DD)")

    types = {None: None, "_date_arg": iso_date}

    def fill(parser: argparse.ArgumentParser, path: str) -> None:
        assert parser.prog == DECLARED[path]["prog"]
        for action in DECLARED[path]["actions"]:
            action = dict(action)
            options, dest = action.pop("option_strings"), action.pop("dest")
            if dest == "help":
                continue
            children = action.pop("children", None)
            if children is not None:
                sub = parser.add_subparsers(dest=dest, required=action["required"])
                for name, help_line in children:
                    child = f"{path} {name}"
                    description = DECLARED[child]["description"]
                    fill(sub.add_parser(name, help=help_line, description=description), child)
                continue
            action["type"] = types[action["type"]]
            if options:
                parser.add_argument(*options, dest=dest, **action)
            else:
                del action["required"]
                parser.add_argument(dest, **action)

    parser = argparse.ArgumentParser(prog="pjo", description=DECLARED["pjo"]["description"])
    fill(parser, "pjo")
    return parser


def exit_of(parse, argv: list[str], capsys) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as stopped:
        parse(argv)
    out, err = capsys.readouterr()
    return stopped.value.code, out, err


def declared_parser_of(argv: list[str], monkeypatch, capsys) -> argparse.ArgumentParser:
    """The parser pjo prints ``--help`` with for the command path ``argv``."""
    seen = []
    print_help = argparse.ArgumentParser.print_help
    with monkeypatch.context() as patch:
        patch.setattr(
            argparse.ArgumentParser,
            "print_help",
            lambda parser, file=None: seen.append(parser) or print_help(parser, file),
        )
        assert exit_of(cli.main, [*argv, "--help"], capsys)[0] == 0
    return seen[0]


def declaration(parser: argparse.ArgumentParser) -> dict:
    """The prog, description and actions of one parser, as recorded."""
    actions = []
    for action in parser._actions:
        entry = {
            "option_strings": action.option_strings,
            "dest": action.dest,
            "default": action.default,
            "choices": None if action.choices is None else list(action.choices),
            "required": action.required,
            "type": getattr(action.type, "__name__", action.type),
            "help": action.help,
            "metavar": action.metavar,
            "nargs": action.nargs,
        }
        if isinstance(action, argparse._SubParsersAction):
            del entry["default"], entry["choices"], entry["type"], entry["nargs"]
            entry["children"] = [[a.dest, a.help] for a in action._choices_actions]
        actions.append(entry)
    return {"prog": parser.prog, "description": parser.description, "actions": actions}


class TestParserDeclaration:
    def test_every_command_path_is_declared(self):
        assert list(DECLARED) == COMMAND_PATHS

    @pytest.mark.parametrize("path", list(DECLARED))
    def test_declaration_is_unchanged(self, path, plain, monkeypatch, capsys):
        parser = declared_parser_of(path.split()[1:], monkeypatch, capsys)
        assert declaration(parser) == DECLARED[path]

    @pytest.mark.parametrize("path", list(DECLARED))
    def test_help_is_the_declared_parsers(self, path, plain, capsys):
        argv = [*path.split()[1:], "--help"]
        expected = exit_of(declared_parser().parse_args, argv, capsys)
        assert exit_of(cli.main, argv, capsys) == expected

    @pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
    def test_usage_error_is_the_declared_parsers(self, argv, plain, capsys):
        code, out, err = exit_of(cli.main, argv, capsys)
        assert (code, out) == (2, "")
        assert err == exit_of(declared_parser().parse_args, argv, capsys)[2]

    def test_only_the_branch_argv_names_gets_arguments(self):
        def commands(parser: argparse.ArgumentParser) -> dict:
            (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return action.choices

        def dests(parser: argparse.ArgumentParser) -> list[str]:
            return [action.dest for action in parser._actions]

        top = commands(cli._build_parser(["query", "timeline", "--patient", "JohnDoe", "-"]))
        assert dests(top["validate"]) == dests(top["stats"]) == ["help"]
        queries = commands(top["query"])
        assert dests(queries["timeline"]) == ["help", "patient", "bundle", "format"]
        assert dests(queries["find"]) == ["help"]
