"""Command-line interface: seed, validate, query, export, and stats.

Exit codes: 0 on success, 1 when validation finds errors or a query or
statistics run fails, 2 on usage errors.  ``-`` reads the bundle from
standard input.  ``--format json`` output is deterministic; the env var
``PJO_NO_COLOR`` disables the severity coloring used on terminals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import date
from pathlib import Path

from .bundle import parse_bundle
from .errors import PjoError
from .graph import Diagnostic, JourneyGraph, Severity, ValidationReport
from .records import EDGE_LABELS

# Each command imports the modules that only it uses (queries, dot, agreement,
# seed), so that ``pjo validate`` loads none of them.


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("PJO_NO_COLOR")


def _severity_text(severity: Severity) -> str:
    if not _color_enabled():
        return severity.value
    color = "31" if severity is Severity.ERROR else "33"
    return f"\x1b[{color}m{severity.value}\x1b[0m"


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


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


def _diagnostic_lines(diagnostics: list[Diagnostic]) -> None:
    for d in diagnostics:
        location = d.location or "(document)"
        print(f"{_severity_text(d.severity)}  {d.code}  {location}: {d.message}")


def _diagnostics_json(diagnostics: list[Diagnostic]) -> list[dict]:
    return [
        {
            "severity": d.severity.value,
            "code": d.code,
            "location": d.location,
            "message": d.message,
        }
        for d in diagnostics
    ]


def _load_graph(path: str) -> JourneyGraph:
    """Parse a bundle for querying; raises SystemExit(1) on errors."""
    result = parse_bundle(_read_input(path))
    if not result.ok:
        for d in result.errors:
            print(f"error  {d.code}  {d.location or '(document)'}: {d.message}", file=sys.stderr)
        print(f"error: bundle has {len(result.errors)} validation errors", file=sys.stderr)
        raise SystemExit(1)
    return result.graph


# -- commands -------------------------------------------------------------


def _cmd_seed(args) -> int:
    from .seed import john_doe_bundle

    print(john_doe_bundle(), end="")
    return 0


def _cmd_validate(args) -> int:
    result = parse_bundle(_read_input(args.bundle))
    # On success the parser has already run the invariant check; print
    # its report after the parser's own diagnostics.
    report = ValidationReport(result.problems + (result.report.diagnostics if result.ok else []))
    errors, warnings = len(report.errors), len(report.warnings)
    if args.format == "json":
        _print_json(
            {
                "valid": report.ok,
                "errors": errors,
                "warnings": warnings,
                "diagnostics": _diagnostics_json(report.diagnostics),
            }
        )
    else:
        _diagnostic_lines(report.diagnostics)
        print(f"summary: {errors} errors, {warnings} warnings")
    return 0 if report.ok else 1


def _cmd_query_timeline(args) -> int:
    from .queries import timeline

    graph = _load_graph(args.bundle)
    entries = timeline(graph, args.patient)
    if args.format == "json":
        _print_json(
            [
                {
                    "encounterID": e.encounter_id,
                    "date": e.date.isoformat(),
                    "specialty": e.specialty,
                    "inboundLinks": [
                        {"kind": ref.kind.value, "fromEncounterID": ref.encounter_id}
                        for ref in e.inbound_links
                    ],
                    "outboundLinks": [
                        {"kind": ref.kind.value, "toEncounterID": ref.encounter_id}
                        for ref in e.outbound_links
                    ],
                    "headlineDiagnoses": list(e.headline_diagnoses),
                }
                for e in entries
            ]
        )
        return 0
    rows = []
    for e in entries:
        links = [f"{EDGE_LABELS[ref.kind]} from {ref.encounter_id}" for ref in e.inbound_links]
        links += [f"{EDGE_LABELS[ref.kind]} to {ref.encounter_id}" for ref in e.outbound_links]
        rows.append(
            [
                e.date.isoformat(),
                e.encounter_id,
                e.specialty,
                "; ".join(links),
                ", ".join(e.headline_diagnoses),
            ]
        )
    _print_table(["date", "encounter", "specialty", "links", "diagnoses"], rows)
    return 0


def _cmd_query_symptom_progression(args) -> int:
    from .queries import symptom_progression

    graph = _load_graph(args.bundle)
    occurrences = symptom_progression(graph, args.patient, args.symptom)
    if args.format == "json":
        _print_json(
            [
                {
                    "encounterID": o.encounter_id,
                    "date": o.date.isoformat(),
                    "symptomName": o.symptom_name,
                    "severity": o.severity,
                }
                for o in occurrences
            ]
        )
        return 0
    rows = [
        [o.date.isoformat(), o.encounter_id, o.symptom_name, o.severity] for o in occurrences
    ]
    _print_table(["date", "encounter", "symptom", "severity"], rows)
    return 0


def _chain_output(encounters, key: str, output_format: str) -> int:
    if output_format == "json":
        _print_json(
            {
                key: [
                    {
                        "encounterID": e.encounter_id,
                        "date": e.date.isoformat(),
                        "specialty": e.specialty,
                    }
                    for e in encounters
                ]
            }
        )
        return 0
    rows = [[e.date.isoformat(), e.encounter_id, e.specialty] for e in encounters]
    _print_table(["date", "encounter", "specialty"], rows)
    return 0


def _cmd_query_followup_chain(args) -> int:
    from .queries import followup_chain

    graph = _load_graph(args.bundle)
    return _chain_output(followup_chain(graph, args.encounter), "chain", args.format)


def _cmd_query_cause_trace(args) -> int:
    from .queries import cause_trace

    graph = _load_graph(args.bundle)
    return _chain_output(cause_trace(graph, args.encounter), "trace", args.format)


def _cmd_query_symptom_diagnosis(args) -> int:
    from .queries import symptom_diagnosis_links

    graph = _load_graph(args.bundle)
    rows = symptom_diagnosis_links(graph, args.patient)
    if args.format == "json":
        _print_json(
            [
                {
                    "symptomName": r.symptom_name,
                    "diagnosisName": r.diagnosis_name,
                    "encounterID": r.encounter_id,
                }
                for r in rows
            ]
        )
        return 0
    _print_table(
        ["symptom", "diagnosis", "encounter"],
        [[r.symptom_name, r.diagnosis_name, r.encounter_id] for r in rows],
    )
    return 0


def _cmd_query_find(args) -> int:
    from .queries import find_encounters

    graph = _load_graph(args.bundle)
    encounter_ids = find_encounters(
        graph,
        patient_id=args.patient,
        specialty=args.specialty,
        diagnosis_name=args.diagnosis,
        date_from=args.date_from,
        date_to=args.date_to,
    )
    if args.format == "json":
        _print_json({"encounterIDs": encounter_ids})
        return 0
    for encounter_id in encounter_ids:
        print(encounter_id)
    return 0


def _cmd_export(args) -> int:
    from .dot import to_dot

    graph = _load_graph(args.bundle)
    text = to_dot(graph, patient_id=args.patient, detail=args.detail)
    if args.output is None or args.output == "-":
        print(text, end="")
    else:
        Path(args.output).write_text(text, encoding="utf-8")
    return 0


def _cmd_stats_kappa(args) -> int:
    from .agreement import fleiss_kappa, rating_matrix_from_csv

    matrix = rating_matrix_from_csv(_read_input(args.csv).decode("utf-8"))
    result = fleiss_kappa(matrix)
    if args.format == "json":
        _print_json(
            {
                "subjects": matrix.n_subjects,
                "ratersPerSubject": matrix.raters_per_subject,
                "categories": matrix.n_categories,
                "observedAgreement": result.observed_agreement,
                "expectedAgreement": result.expected_agreement,
                "kappa": result.kappa,
                "standardError": result.standard_error,
                "ci95": list(result.ci95),
            }
        )
        return 0
    print(f"subjects:           {matrix.n_subjects}")
    print(f"raters per subject: {matrix.raters_per_subject}")
    print(f"categories:         {matrix.n_categories}")
    print(f"observed agreement: {result.observed_agreement:.4f}")
    print(f"expected agreement: {result.expected_agreement:.4f}")
    print(f"kappa:              {result.kappa:.4f}")
    print(f"standard error:     {result.standard_error:.4f}")
    print(f"95% CI:             [{result.ci95[0]:.4f}, {result.ci95[1]:.4f}]")
    return 0


def _cmd_stats_likert(args) -> int:
    from .agreement import likert_responses_from_csv, likert_summary

    responses = likert_responses_from_csv(_read_input(args.csv).decode("utf-8"))
    summary = likert_summary(responses)
    if args.format == "json":
        _print_json(
            {
                "dimensions": [
                    {
                        "dimension": d.dimension,
                        "n": d.n_responses,
                        "mean": d.mean,
                        "sd": d.sd,
                        "agreeFraction": d.agree_fraction,
                    }
                    for d in summary.dimensions
                ],
                "overallMean": summary.overall_mean,
                "overallSD": summary.overall_sd,
            }
        )
        return 0
    _print_table(
        ["dimension", "n", "mean", "sd", "agree"],
        [
            [
                d.dimension,
                str(d.n_responses),
                f"{d.mean:.4f}",
                f"{d.sd:.4f}",
                f"{d.agree_fraction:.4f}",
            ]
            for d in summary.dimensions
        ],
    )
    print(f"overall: mean {summary.overall_mean:.4f}, sd {summary.overall_sd:.4f}")
    return 0


# -- parser ---------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=["table", "json"],
        default="table",
        help="output format (default: table)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pjo",
        description="Build, validate, query, and export patient journey bundles.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    seed_parser = subparsers.add_parser("seed", help="print a built-in example bundle")
    seed_parser.add_argument("name", choices=["john-doe"], help="which example to print")
    seed_parser.set_defaults(handler=_cmd_seed)

    validate_parser = subparsers.add_parser("validate", help="validate a bundle")
    validate_parser.add_argument("bundle", help="bundle path, or - for stdin")
    _add_format(validate_parser)
    validate_parser.set_defaults(handler=_cmd_validate)

    query_parser = subparsers.add_parser("query", help="run a query against a bundle")
    query_subparsers = query_parser.add_subparsers(dest="query_command", required=True)

    timeline_parser = query_subparsers.add_parser("timeline", help="encounters in date order")
    timeline_parser.add_argument("--patient", required=True, help="patient ID")
    timeline_parser.add_argument("bundle", help="bundle path, or - for stdin")
    _add_format(timeline_parser)
    timeline_parser.set_defaults(handler=_cmd_query_timeline)

    progression_parser = query_subparsers.add_parser(
        "symptom-progression", help="one symptom across encounters"
    )
    progression_parser.add_argument("--patient", required=True, help="patient ID")
    progression_parser.add_argument("--symptom", required=True, help="symptom name")
    progression_parser.add_argument("bundle", help="bundle path, or - for stdin")
    _add_format(progression_parser)
    progression_parser.set_defaults(handler=_cmd_query_symptom_progression)

    chain_parser = query_subparsers.add_parser(
        "followup-chain", help="maximal follow-up chain through an encounter"
    )
    chain_parser.add_argument("--encounter", required=True, help="encounter ID")
    chain_parser.add_argument("bundle", help="bundle path, or - for stdin")
    _add_format(chain_parser)
    chain_parser.set_defaults(handler=_cmd_query_followup_chain)

    trace_parser = query_subparsers.add_parser(
        "cause-trace", help="causal chain from an encounter to its root cause"
    )
    trace_parser.add_argument("--encounter", required=True, help="encounter ID")
    trace_parser.add_argument("bundle", help="bundle path, or - for stdin")
    _add_format(trace_parser)
    trace_parser.set_defaults(handler=_cmd_query_cause_trace)

    pairs_parser = query_subparsers.add_parser(
        "symptom-diagnosis", help="symptoms paired with same-encounter diagnoses"
    )
    pairs_parser.add_argument("--patient", required=True, help="patient ID")
    pairs_parser.add_argument("bundle", help="bundle path, or - for stdin")
    _add_format(pairs_parser)
    pairs_parser.set_defaults(handler=_cmd_query_symptom_diagnosis)

    find_parser = query_subparsers.add_parser("find", help="filter encounters")
    find_parser.add_argument("--patient", help="patient ID")
    find_parser.add_argument("--specialty", help="exact specialty (case-insensitive)")
    find_parser.add_argument("--diagnosis", help="exact diagnosis name (case-insensitive)")
    find_parser.add_argument(
        "--from", dest="date_from", type=_date_arg, help="earliest date (inclusive)"
    )
    find_parser.add_argument(
        "--to", dest="date_to", type=_date_arg, help="latest date (inclusive)"
    )
    find_parser.add_argument("bundle", help="bundle path, or - for stdin")
    _add_format(find_parser)
    find_parser.set_defaults(handler=_cmd_query_find)

    export_parser = subparsers.add_parser("export", help="render a bundle as Graphviz DOT")
    export_parser.add_argument("bundle", help="bundle path, or - for stdin")
    export_parser.add_argument(
        "--format", choices=["dot"], default="dot", help="output format (default: dot)"
    )
    export_parser.add_argument(
        "--detail",
        choices=["journey", "full"],
        default="journey",
        help="journey structure only, or every clinical subrecord",
    )
    export_parser.add_argument("--patient", help="restrict to one patient")
    export_parser.add_argument("--output", "-o", help="output path (default: stdout)")
    export_parser.set_defaults(handler=_cmd_export)

    stats_parser = subparsers.add_parser("stats", help="agreement statistics from CSV")
    stats_subparsers = stats_parser.add_subparsers(dest="stats_command", required=True)

    kappa_parser = stats_subparsers.add_parser("kappa", help="Fleiss' kappa for a rating matrix")
    kappa_parser.add_argument("csv", help="CSV path, or - for stdin")
    _add_format(kappa_parser)
    kappa_parser.set_defaults(handler=_cmd_stats_kappa)

    likert_parser = stats_subparsers.add_parser("likert", help="Likert rating summary")
    likert_parser.add_argument("csv", help="CSV path, or - for stdin")
    _add_format(likert_parser)
    likert_parser.set_defaults(handler=_cmd_stats_likert)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except PjoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: input is not valid UTF-8: {exc.reason}", file=sys.stderr)
        return 1
