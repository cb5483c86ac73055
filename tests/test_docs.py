"""The documentation's examples run as written and print what they show.

Every ``sh`` block of ``README.md`` is run in process through ``cli.main``,
in a scratch directory, with no shell and no Graphviz:

- a line starting ``$ `` is a command; the lines up to the next command
  are its expected standard output, compared line by line.  A block that
  the README marks as truncated may shorten a table cell to ``...``.
- in a block without ``$`` every line is a command expected to succeed.
- ``$ cat FILE`` shows a file the next commands read, so it writes the
  shown lines to ``FILE``; ``printf '...' | pjo ...`` feeds the printed
  text to standard input; ``> FILE`` stores standard output.
- ``pip``, ``dot`` and ``pytest`` lines (installation, Graphviz and this
  suite) are not run.

The README's ``python`` block is executed; an expression followed by a
``# value`` comment line must have that ``repr``, and a ``print`` with a
trailing comment must print it, where ``...`` ends a shortened number.
The annotated example of ``docs/bundle_format.md`` must be the document
``pjo seed john-doe`` prints, and expand to those exact bytes.  Each key
table of that file lists its record type's ``FIELDS`` entry: the keys in
order, whether each is required and its type; so do its prose lists of
the members of ``contactInformation``, ``medicalHistory`` and
``socialHistory``, and the notes on each encounter subrecord.  Its error
and warning tables list exactly the diagnostic codes of ``pjo.graph``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from pjo import cli, graph
from pjo.records import (
    DATE,
    FIELDS,
    ICD10,
    INT,
    KIND,
    NUMBER,
    OBJECT,
    OBJECTS,
    STR,
    STRS,
    VERSION,
    Bundle,
    ContactInformation,
    Encounter,
    IntakeForm,
    JourneyEdge,
    MedicalHistory,
    Patient,
    Provider,
    SocialHistory,
    VitalSign,
)

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
FORMAT_DOC = (ROOT / "docs" / "bundle_format.md").read_text(encoding="utf-8")
NOT_RUN = ("pip", "dot", "pytest")


def fenced_blocks(text: str, language: str) -> list[tuple[str, str]]:
    """(block, the paragraph after it) for each ``language`` block."""
    pattern = re.compile(rf"^```{language}\n(.*?)^```\n\n?(.*?)(?:\n\n|\Z)", re.S | re.M)
    return [(match.group(1), match.group(2)) for match in pattern.finditer(text)]


def commands(block: str) -> list[tuple[str, list[str] | None]]:
    """(command, expected output lines or None) in block order."""
    lines = block.replace("\\\n", "").splitlines()
    if not any(line.startswith("$ ") for line in lines):
        return [(line.split("  #")[0].strip(), None) for line in lines if line.strip()]
    steps: list[tuple[str, list[str] | None]] = []
    for line in lines:
        if line.startswith("$ "):
            steps.append((line[2:].strip(), []))
        else:
            steps[-1][1].append(line)
    return steps


def run_pjo(argv: list[str], stdin: bytes = b"") -> tuple[int, str]:
    out = io.StringIO()
    stdin_stream = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        saved, sys.stdin = sys.stdin, stdin_stream
        try:
            code = cli.main(argv)
        finally:
            sys.stdin = saved
    return code, out.getvalue()


def run(command: str, expected: list[str] | None, truncated: bool) -> None:
    words = shlex.split(command)
    if words[0] in NOT_RUN:
        return
    if words[0] == "cat":
        Path(words[1]).write_text("\n".join(expected) + "\n", encoding="utf-8")
        return
    stdin = b""
    if words[0] == "printf":
        bar = words.index("|")
        stdin = words[1].encode().decode("unicode_escape").encode("utf-8")
        words = words[bar + 1 :]
    assert words[0] == "pjo", command
    target = None
    if ">" in words:
        target = words[words.index(">") + 1]
        words = words[: words.index(">")]
    code, output = run_pjo(words[1:], stdin)
    assert code == 0, command
    if target is not None:
        Path(target).write_text(output, encoding="utf-8")
    elif expected is not None:
        assert_lines_match(output.splitlines(), expected, truncated)


def cells(line: str) -> list[str]:
    return re.split(r"\s{2,}", line.strip())


def assert_lines_match(actual: list[str], expected: list[str], truncated: bool) -> None:
    if not truncated:
        assert actual == expected
        return
    assert len(actual) == len(expected)
    for shown, printed in zip(expected, actual):
        shown_cells, printed_cells = (cells(line) for line in (shown, printed))
        assert len(shown_cells) == len(printed_cells), (shown, printed)
        for cell, real in zip(shown_cells, printed_cells):
            if set(cell) == {"-"}:
                assert set(real) == {"-"}
            else:
                pattern = ".+?".join(re.escape(part) for part in cell.split("..."))
                assert re.fullmatch(pattern, real), (cell, real)


SH_BLOCKS = fenced_blocks(README, "sh")


def test_every_readme_example_that_shows_output_is_checked():
    shown = [block for block, _ in SH_BLOCKS if "\n$ " in "\n" + block]
    assert len(shown) == 4  # validate, timeline, kappa, likert


def test_readme_shell_examples(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PJO_NO_COLOR", "1")
    for block, after in SH_BLOCKS:
        truncated = "truncated" in after
        for command, expected in commands(block):
            run(command, expected, truncated)


def test_readme_python_example():
    [(block, _)] = fenced_blocks(README, "python")
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block).body:
        source = ast.get_source_segment(block, statement)
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            value = eval(source, namespace) if isinstance(statement, ast.Expr) else None
            if not isinstance(statement, ast.Expr):
                exec(source, namespace)
        after = lines[statement.end_lineno] if statement.end_lineno < len(lines) else ""
        if after.startswith("# "):
            assert repr(value) == after[2:]
            checked += 1
        elif printed.getvalue():
            shown = lines[statement.end_lineno - 1].partition("  # ")[2].split()
            words = printed.getvalue().split()
            assert len(words) == len(shown)
            for word, expected in zip(words, shown):
                prefix = expected.removesuffix("...")
                assert word.startswith(prefix) if prefix != expected else word == expected
            checked += 1
    assert checked == 2


def test_bundle_format_annotated_example_is_the_seed():
    example = FORMAT_DOC.split("## Annotated example", 1)[1]
    [(block, _)] = fenced_blocks(example, "json")
    code, seed = run_pjo(["seed", "john-doe"])
    assert code == 0
    assert json.loads(block) == json.loads(seed)
    assert json.dumps(json.loads(block), indent=2, ensure_ascii=False) + "\n" == seed


@pytest.mark.parametrize("command", ["pjo validate -", "pjo query timeline --patient JohnDoe -"])
def test_stdin_is_read_as_the_readme_says(command):
    _, seed = run_pjo(["seed", "john-doe"])
    code, _ = run_pjo(shlex.split(command)[1:], seed.encode("utf-8"))
    assert code == 0


# How the format document names each field type.
TYPE_WORDS = {
    STR: "string", INT: "integer", NUMBER: "number", DATE: "date", ICD10: "string",
    KIND: "string", VERSION: "string", STRS: "array", OBJECT: "object", OBJECTS: "array",
}  # fmt: skip
# The record type of each key table of the format document, in document order.
KEY_TABLES = [Bundle, Patient, Provider, IntakeForm, Encounter, VitalSign, JourneyEdge]


def tables(text: str) -> list[tuple[list[str], list[list[str]]]]:
    """(header cells, rows of cells) for each Markdown table of ``text``."""
    found = []
    for block in re.findall(r"(?:^\|.*\|\n)+", text, re.M):
        rows = [[cell.strip() for cell in line[1:-1].split("|")] for line in block.splitlines()]
        found.append((rows[0], rows[2:]))
    return found


@pytest.mark.parametrize(
    "index, record_type", enumerate(KEY_TABLES), ids=[t.__name__ for t in KEY_TABLES]
)
def test_each_key_table_lists_its_field_table_entry(index, record_type):
    key_tables = [table for table in tables(FORMAT_DOC) if table[0][0] == "Key"]
    assert len(key_tables) == len(KEY_TABLES)
    header, rows = key_tables[index]
    fields = FIELDS[record_type]
    assert [row[0] for row in rows] == [f"`{spec.key}`" for spec in fields]
    types = [row[header.index("Type")] for row in rows]
    assert types == [TYPE_WORDS[spec.type] for spec in fields]
    required = ["yes" if spec.required else "no" for spec in fields]
    if "Required" in header:
        assert [row[header.index("Required")] for row in rows] == required
    else:
        assert set(required) == {"no"}


def paragraph(start: str) -> str:
    """The format document's paragraph that starts with ``start``, on one line."""
    texts = (" ".join(text.split()) for text in FORMAT_DOC.split("\n\n"))
    [found] = [text for text in texts if text.startswith(start)]
    return found


def listed(text: str) -> list[str]:
    """The names quoted in ``text`` before its first full stop."""
    return re.findall(r"`([^`]+)`", text.split(". ")[0])


@pytest.mark.parametrize(
    "start, record_type, value_type",
    [
        ("`contactInformation` holds four optional strings: ", ContactInformation, STR),
        ("`medicalHistory` carries four string arrays, each defaulting to empty: ",
         MedicalHistory, STRS),
    ],
    ids=["contactInformation", "medicalHistory"],
)  # fmt: skip
def test_each_member_list_names_its_field_table_entry(start, record_type, value_type):
    fields = FIELDS[record_type]
    assert listed(paragraph(start)[len(start) :]) == [spec.key for spec in fields]
    assert {(spec.type, spec.required) for spec in fields} == {(value_type, False)}


def test_the_social_history_list_names_its_required_then_its_optional_members():
    text = paragraph("`socialHistory` requires ")
    required, optional = text.split("; the remaining members are optional strings: ")
    fields = FIELDS[SocialHistory]
    assert listed(required)[1:] == [spec.key for spec in fields if spec.required]
    assert listed(optional) == [spec.key for spec in fields if not spec.required]
    assert [spec.key for spec in fields] == listed(required)[1:] + listed(optional)
    assert {spec.type for spec in fields} == {STR}


def test_the_encounter_table_notes_each_subrecord_s_keys():
    """The ``vitals`` row points to the range table, which
    ``test_each_key_table_lists_its_field_table_entry`` checks."""
    key_tables = [table for table in tables(FORMAT_DOC) if table[0][0] == "Key"]
    header, rows = key_tables[KEY_TABLES.index(Encounter)]
    notes = {row[0]: row[header.index("Notes")] for row in rows}
    for spec in FIELDS[Encounter]:
        if spec.type != OBJECTS:
            continue
        keys = ", ".join(held.key for held in FIELDS[spec.record])
        expected = "See plausibility ranges below." if spec.record is VitalSign else f"`{{{keys}}}`"
        assert notes[f"`{spec.key}`"] == expected


def graph_codes() -> tuple[list[str], list[str]]:
    """The error and warning codes of ``pjo.graph``: the first and second
    block of constants after its ``# Diagnostic codes.`` comment."""
    source = Path(graph.__file__).read_text(encoding="utf-8")
    errors, warnings = source.split("# Diagnostic codes.", 1)[1].split("\n\n")[:2]
    names = (re.findall(r"^([A-Z0-9_]+) = ", block, re.M) for block in (errors, warnings))
    return tuple(sorted(getattr(graph, name) for name in block) for block in names)


@pytest.mark.parametrize("severity", ["Error", "Warning"])
def test_the_code_tables_list_exactly_the_diagnostic_codes(severity):
    header, rows = tables(FORMAT_DOC.split(f"{severity} codes:", 1)[1])[0]
    assert header == ["Code", "Meaning"]
    listed = sorted(code for row in rows for code in re.findall(r"`([^`]+)`", row[0]))
    errors, warnings = graph_codes()
    assert listed == (errors if severity == "Error" else warnings)
