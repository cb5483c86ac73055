"""Command-line interface: seed, validate, query, export, and stats.

Exit codes: 0 on success, 1 when validation finds errors or a query or
statistics run fails, 2 on usage errors.  ``-`` reads the bundle from
standard input.  ``--format json`` output is deterministic; the env var
``PJO_NO_COLOR`` disables the severity coloring used on terminals.

Each command is declared once, in ``COMMANDS``: its path and help line, its
arguments, the function that runs it and its result columns.  The parser is
built from that table, and a command that prints rows renders both its
``--format table`` and its ``--format json`` output from its columns.
``python -m pjo`` and the ``pjo`` script both exit through ``run``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from datetime import date

from .bundle import parse_bundle
from .errors import PjoError
from .graph import Diagnostic, JourneyGraph, Severity, ValidationReport
from .records import EDGE_LABELS

# Each command imports the modules that only it uses (queries, dot, agreement,
# seed), so that ``pjo validate`` loads none of them.


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as file:
        return file.read()


def _date_arg(value: str) -> date:
    try:
        return date.fromisoformat(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an ISO date (YYYY-MM-DD)")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, ensure_ascii=False))


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("PJO_NO_COLOR")


def _diagnostic_line(d: Diagnostic, color: bool = False) -> str:
    severity = d.severity.value
    if color:
        severity = f"\x1b[{'31' if d.severity is Severity.ERROR else '33'}m{severity}\x1b[0m"
    return f"{severity}  {d.code}  {d.location or '(document)'}: {d.message}"


def _load_graph(path: str) -> JourneyGraph:
    """Parse a bundle for querying; raises SystemExit(1) on errors."""
    result = parse_bundle(_read_input(path))
    if not result.ok:
        for d in result.errors:
            print(_diagnostic_line(d), file=sys.stderr)
        print(f"error: bundle has {len(result.errors)} validation errors", file=sys.stderr)
        raise SystemExit(1)
    return result.graph


def _emit(args, rows, wrap=None, footer: str | None = None) -> int:
    """Print ``rows`` by the running command's columns, in ``args.format``:
    as JSON, the list of their objects or the document ``wrap`` puts it in;
    as a table, the columns with a header, ``lead`` first, or a ``line`` per
    row.  ``footer`` follows the table."""
    command = args.spec
    if args.format == "json":
        objects = [{key: get(row) for _, key, get, _ in command.columns if key} for row in rows]
        _print_json(objects if wrap is None else wrap(objects))
        return 0
    if command.line is not None:
        for row in rows:
            print(command.line(row))
    else:
        shown = [column for column in command.columns if column[0]]
        columns = sorted(shown, key=lambda column: column is not command.lead)
        cells = [[text(get(row)) for _, _, get, text in columns] for row in rows]
        _print_table([column[0] for column in columns], cells)
    if footer is not None:
        print(footer)
    return 0


# -- commands -------------------------------------------------------------


def _seed(args) -> int:
    from .seed import john_doe_bundle

    print(john_doe_bundle(), end="")
    return 0


def _validate(args) -> int:
    result = parse_bundle(_read_input(args.bundle))
    # On success the parser has already run the invariant check; print
    # its report after the parser's own diagnostics.
    report = ValidationReport(result.problems + (result.report.diagnostics if result.ok else []))
    errors, warnings = len(report.errors), len(report.warnings)
    counts = {"valid": report.ok, "errors": errors, "warnings": warnings}
    summary = f"summary: {errors} errors, {warnings} warnings"
    _emit(args, report.diagnostics, lambda rows: {**counts, "diagnostics": rows}, summary)
    return 0 if report.ok else 1


def _query(name: str, *params: str, key: str | None = None):
    """The ``run`` of query ``name`` of ``pjo.queries``, on the bundle's
    graph and the arguments ``params``; JSON puts its rows under ``key``."""

    def run(args) -> int:
        from . import queries

        rows = getattr(queries, name)(_load_graph(args.bundle), *(getattr(args, p) for p in params))
        return _emit(args, rows, key and (lambda objects: {key: objects}))

    return run


def _find(args) -> int:
    from .queries import find_encounters

    filters = (args.patient, args.specialty, args.diagnosis, args.date_from, args.date_to)
    encounter_ids = find_encounters(_load_graph(args.bundle), *filters)
    if args.format == "json":
        _print_json({"encounterIDs": encounter_ids})
        return 0
    for encounter_id in encounter_ids:
        print(encounter_id)
    return 0


def _export(args) -> int:
    from .dot import to_dot

    text = to_dot(_load_graph(args.bundle), patient_id=args.patient, detail=args.detail)
    if args.output is None or args.output == "-":
        print(text, end="")
    else:
        with open(args.output, "w", encoding="utf-8") as file:
            file.write(text)
    return 0


def _kappa(args) -> int:
    from .agreement import fleiss_kappa, rating_matrix_from_csv

    matrix = rating_matrix_from_csv(_read_input(args.csv).decode("utf-8"))
    result = fleiss_kappa(matrix)
    lines = (  # (label, JSON key, value, its text)
        ("subjects", "subjects", matrix.n_subjects, str),
        ("raters per subject", "ratersPerSubject", matrix.raters_per_subject, str),
        ("categories", "categories", matrix.n_categories, str),
        ("observed agreement", "observedAgreement", result.observed_agreement, _fixed),
        ("expected agreement", "expectedAgreement", result.expected_agreement, _fixed),
        ("kappa", "kappa", result.kappa, _fixed),
        ("standard error", "standardError", result.standard_error, _fixed),
        ("95% CI", "ci95", list(result.ci95), lambda ci: f"[{ci[0]:.4f}, {ci[1]:.4f}]"),
    )
    if args.format == "json":
        _print_json({key: value for _, key, value, _ in lines})
        return 0
    for label, _, value, text in lines:
        print(f"{label + ':':<20}{text(value)}")
    return 0


def _likert(args) -> int:
    from .agreement import likert_responses_from_csv, likert_summary

    summary = likert_summary(likert_responses_from_csv(_read_input(args.csv).decode("utf-8")))
    mean, sd = summary.overall_mean, summary.overall_sd
    overall = {"overallMean": mean, "overallSD": sd}
    footer = f"overall: mean {mean:.4f}, sd {sd:.4f}"
    return _emit(args, summary.dimensions, lambda rows: {"dimensions": rows, **overall}, footer)


class Command:
    """A command: its path, help line, arguments and ``run(args)`` (None for
    a group).  One that prints rows with ``_emit`` has their ``columns`` in
    JSON key order, each (table header, JSON key, value of a row, table text
    of a value), JSON-only without a header and table-only without a key.
    Its table leads with ``lead``, or prints ``line(row)`` for each row."""

    def __init__(self, path, help, run=None, args=(), columns=(), lead=None, line=None):
        self.path, self.help, self.run, self.args = path, help, run, args
        self.columns, self.lead, self.line = columns, lead, line


def _arg(*flags: str, **options) -> tuple:
    return flags, options


def _refs(refs, key: str) -> list[dict]:
    return [{"kind": ref.kind.value, key: ref.encounter_id} for ref in refs]


def _links(entry) -> str:
    links = [f"{EDGE_LABELS[ref.kind]} from {ref.encounter_id}" for ref in entry.inbound_links]
    links += [f"{EDGE_LABELS[ref.kind]} to {ref.encounter_id}" for ref in entry.outbound_links]
    return "; ".join(links)


_fixed = "{:.4f}".format

BUNDLE = _arg("bundle", help="bundle path, or - for stdin")
CSV = _arg("csv", help="CSV path, or - for stdin")
FORMAT = _arg(
    "--format", choices=["table", "json"], default="table", help="output format (default: table)"
)
PATIENT = _arg("--patient", required=True, help="patient ID")
ENCOUNTER = _arg("--encounter", required=True, help="encounter ID")

ENCOUNTER_ID = ("encounter", "encounterID", lambda row: row.encounter_id, str)
DATE = ("date", "date", lambda row: row.date.isoformat(), str)
SPECIALTY = ("specialty", "specialty", lambda row: row.specialty, str)
SYMPTOM = ("symptom", "symptomName", lambda row: row.symptom_name, str)
CHAIN = (ENCOUNTER_ID, DATE, SPECIALTY)
TIMELINE = (
    ENCOUNTER_ID,
    DATE,
    SPECIALTY,
    (None, "inboundLinks", lambda entry: _refs(entry.inbound_links, "fromEncounterID"), None),
    (None, "outboundLinks", lambda entry: _refs(entry.outbound_links, "toEncounterID"), None),
    ("links", None, _links, str),
    ("diagnoses", "headlineDiagnoses", lambda entry: list(entry.headline_diagnoses), ", ".join),
)
DIAGNOSTICS = (
    (None, "severity", lambda d: d.severity.value, None),
    (None, "code", lambda d: d.code, None),
    (None, "location", lambda d: d.location, None),
    (None, "message", lambda d: d.message, None),
)
LIKERT = (
    ("dimension", "dimension", lambda d: d.dimension, str),
    ("n", "n", lambda d: d.n_responses, str),
    ("mean", "mean", lambda d: d.mean, _fixed),
    ("sd", "sd", lambda d: d.sd, _fixed),
    ("agree", "agreeFraction", lambda d: d.agree_fraction, _fixed),
)

COMMANDS = (
    Command(
        "seed",
        "print a built-in example bundle",
        _seed,
        (_arg("name", choices=["john-doe"], help="which example to print"),),
    ),
    Command(
        "validate",
        "validate a bundle",
        _validate,
        (BUNDLE, FORMAT),
        DIAGNOSTICS,
        line=lambda d: _diagnostic_line(d, _color_enabled()),
    ),
    Command("query", "run a query against a bundle"),
    Command(
        "query timeline",
        "encounters in date order",
        _query("timeline", "patient"),
        (PATIENT, BUNDLE, FORMAT),
        TIMELINE,
        lead=DATE,
    ),
    Command(
        "query symptom-progression",
        "one symptom across encounters",
        _query("symptom_progression", "patient", "symptom"),
        (PATIENT, _arg("--symptom", required=True, help="symptom name"), BUNDLE, FORMAT),
        (ENCOUNTER_ID, DATE, SYMPTOM, ("severity", "severity", lambda o: o.severity, str)),
        lead=DATE,
    ),
    Command(
        "query followup-chain",
        "maximal follow-up chain through an encounter",
        _query("followup_chain", "encounter", key="chain"),
        (ENCOUNTER, BUNDLE, FORMAT),
        CHAIN,
        lead=DATE,
    ),
    Command(
        "query cause-trace",
        "causal chain from an encounter to its root cause",
        _query("cause_trace", "encounter", key="trace"),
        (ENCOUNTER, BUNDLE, FORMAT),
        CHAIN,
        lead=DATE,
    ),
    Command(
        "query symptom-diagnosis",
        "symptoms paired with same-encounter diagnoses",
        _query("symptom_diagnosis_links", "patient"),
        (PATIENT, BUNDLE, FORMAT),
        (SYMPTOM, ("diagnosis", "diagnosisName", lambda p: p.diagnosis_name, str), ENCOUNTER_ID),
    ),
    Command(
        "query find",
        "filter encounters",
        _find,
        (
            _arg("--patient", help="patient ID"),
            _arg("--specialty", help="exact specialty (case-insensitive)"),
            _arg("--diagnosis", help="exact diagnosis name (case-insensitive)"),
            _arg("--from", dest="date_from", type=_date_arg, help="earliest date (inclusive)"),
            _arg("--to", dest="date_to", type=_date_arg, help="latest date (inclusive)"),
            BUNDLE,
            FORMAT,
        ),
    ),
    Command(
        "export",
        "render a bundle as Graphviz DOT",
        _export,
        (
            BUNDLE,
            _arg("--format", choices=["dot"], default="dot", help="output format (default: dot)"),
            _arg(
                "--detail",
                choices=["journey", "full"],
                default="journey",
                help="journey structure only, or every clinical subrecord",
            ),
            _arg("--patient", help="restrict to one patient"),
            _arg("--output", "-o", help="output path (default: stdout)"),
        ),
    ),
    Command("stats", "agreement statistics from CSV"),
    Command("stats kappa", "Fleiss' kappa for a rating matrix", _kappa, (CSV, FORMAT)),
    Command("stats likert", "Likert rating summary", _likert, (CSV, FORMAT), LIKERT),
)


# -- parser ---------------------------------------------------------------


def _build_parser(argv: list[str], parser=None, group: str = "", dest: str = "command"):
    """The parser of ``COMMANDS`` (given ``parser``, ``group``'s commands
    added to it).  Each command gets its name and help; only the one that
    ``argv``'s first token naming one names gets its commands or arguments:
    no level has an option but ``-h``, so argparse dispatches to that one."""
    if parser is None:
        parser = argparse.ArgumentParser(
            prog="pjo",
            description="Build, validate, query, and export patient journey bundles.",
        )
    children = {}
    for command in COMMANDS:
        parent, _, name = command.path.rpartition(" ")
        if parent == group:
            children[name] = command
    branch = next((word for word in argv if word in children), None)
    subparsers = parser.add_subparsers(dest=dest, required=True)
    for name, command in children.items():
        child = subparsers.add_parser(name, help=command.help)
        if name != branch:
            continue
        if command.run is None:
            _build_parser(argv, child, command.path, f"{name}_command")
            continue
        for flags, options in command.args:
            child.add_argument(*flags, **options)
        child.set_defaults(spec=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.spec.run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (PjoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not valid UTF-8: {exc.reason}", file=sys.stderr)
        return 1


def run() -> None:
    """Run ``main`` on ``sys.argv`` and exit the process with its code;
    ``main`` itself leaves the collector as it found it.

    On every way out (a return, ``SystemExit`` from a usage error or
    ``--help``, an uncaught exception) the heap is frozen first: every
    object that survives is moved to the collector's permanent generation.
    The process is about to end, and CPython's shutdown clears the modules
    and runs full collections that would otherwise walk and free the
    objects in reference cycles (each module's functions and classes, about
    13 000 objects after a command), which the OS reclaims anyway.  The
    ``atexit`` handlers, the flush of standard output and error and the
    exit code are kept; a finalizer of an object in such a cycle no longer
    runs at exit, which Python does not promise.  pjo writes its files
    inside ``with`` blocks, closed before ``main`` returns."""
    try:
        raise SystemExit(main())
    finally:
        gc.freeze()
