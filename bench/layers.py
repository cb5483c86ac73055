"""The traced run: per-layer metrics from spans around each call into pjo.

The layers are the modules of ``src/pjo`` that the benchmark calls:
``cli``, ``bundle``, ``graph``, ``queries``, ``dot`` and ``agreement``
(``codes`` and ``records`` are reached only through these).  One traced run
does the same work whatever workload it is started for:

* the start-up split: bare interpreter, the part of it spent in ``site``
  (``.pth`` files pjo does not control), ``import pjo.cli``, and in-process
  ``pjo.cli.main`` on each ``seed-cli`` command, plus the ``agreement``
  calls on the ``seed-cli`` rating CSVs;
* one traced pass of each workload at full size;
* the size sweep: ``long-journey`` at 500 and 1 000 encounters beside the
  full 2 000, and the ``cohort`` build, read at 100, 200 and 300 patients
  (the build of 300 passes through the first two, on the same inputs);
* an untraced twin of the named workload's pass, for ``trace.overhead_ratio``.

Layer statistics come from the full-size pass of the workload the layer
serves: ``graph`` writes and lookups from ``cohort``, everything else in
``bundle``, ``graph``, ``queries`` and ``dot`` from ``long-journey``.  Slopes are log-log
least-squares slopes: per-call medians against encounters for
``long-journey`` calls, cumulative ``link`` time against patients, and
per-call time of the whole-graph audits (every 50 patients) against
patients for ``check_invariants`` and ``to_dot``.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pjo.cli
from pjo.agreement import (
    fleiss_kappa,
    likert_responses_from_csv,
    likert_summary,
    rating_matrix_from_csv,
)
from spans import NullTracer, Tracer, loglog_slope, p50, p90
from workloads import Cohort, LongJourney, SeedCli, child_env, timed_pass

STARTUP_REPEATS = 10
MAIN_REPEATS = 3
AGREEMENT_REPEATS = 20
LONG_ROUNDS = 3
SWEEP_ENCOUNTERS = (500, 1000)
SWEEP_PATIENTS = (100, 200, 300)
# Cycles per pass of each workload, traced and untraced twin alike.
PASS_CYCLES = {"seed-cli": 2, "long-journey": LONG_ROUNDS, "cohort": 1}

# (metric, unit) in report order; the value functions are in ``layer_metrics``.
PER_LAYER = [
    ("cli.interp_start_ms.p50", "ms"),
    ("cli.site_ms.p50", "ms"),
    ("cli.import_ms.p50", "ms"),
    ("cli.main_ms.p50", "ms"),
    ("bundle.parse_bundle_ms.p50", "ms"),
    ("bundle.json_decode_ms.p50", "ms"),
    ("bundle.serialize_bundle_ms.p50", "ms"),
    ("bundle.input_bytes", "bytes"),
    ("graph.link_us.p50", "us"),
    ("graph.link_us.p90", "us"),
    ("graph.link.calls", "count"),
    ("graph.link.rejected", "count"),
    ("graph.add_encounter_us.p50", "us"),
    ("graph.check_invariants_ms.p50", "ms"),
    ("graph.encounters_of_us.p50", "us"),
    ("graph.edges_of_us.p50", "us"),
    ("queries.timeline_ms.p50", "ms"),
    ("queries.followup_chain_ms.p50", "ms"),
    ("queries.cause_trace_ms.p50", "ms"),
    ("queries.symptom_progression_ms.p50", "ms"),
    ("queries.symptom_diagnosis_links_ms.p50", "ms"),
    ("queries.find_encounters_ms.p50", "ms"),
    ("dot.to_dot_ms.p50", "ms"),
    ("dot.output_bytes", "bytes"),
    ("agreement.rating_matrix_from_csv_ms.p50", "ms"),
    ("agreement.fleiss_kappa_ms.p50", "ms"),
    ("agreement.likert_summary_ms.p50", "ms"),
    ("bundle.parse_bundle.slope", "ratio"),
    ("graph.link.slope", "ratio"),
    ("graph.check_invariants.slope", "ratio"),
    ("queries.timeline.slope", "ratio"),
    ("dot.to_dot.slope", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def _profile_startup(tracer: Tracer, cli: SeedCli) -> None:
    env = child_env(cli.root)
    for _ in range(STARTUP_REPEATS):
        for name, flags, code in (
            ("cli.interp_start", [], "pass"),
            ("cli.interp_no_site", ["-S"], "pass"),
            ("cli.import_total", [], "import pjo.cli"),
        ):
            proc = tracer.call(
                name, subprocess.run, [sys.executable, *flags, "-c", code],
                cwd=cli.root, env=env, stdin=subprocess.DEVNULL, capture_output=True, timeout=60,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"{code!r} exited {proc.returncode}: {proc.stderr[-300:]!r}")
    for _ in range(MAIN_REPEATS):
        for argv, check in cli.commands(0):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = tracer.call("cli.main", pjo.cli.main, argv)
            if code != 0 or check(cli.decode(argv, out.getvalue())):
                raise RuntimeError(f"in-process pjo {' '.join(argv[:2])} failed")
    kappa_text = cli.kappa_csv.read_text(encoding="utf-8")
    likert_text = cli.likert_csv.read_text(encoding="utf-8")
    for _ in range(AGREEMENT_REPEATS):
        matrix = tracer.call("agreement.rating_matrix_from_csv", rating_matrix_from_csv, kappa_text)
        tracer.call("agreement.fleiss_kappa", fleiss_kappa, matrix)
        tracer.call("agreement.likert_summary", likert_summary, likert_responses_from_csv(likert_text))


def traced_run(root: Path, seed: int, workload: str, workdir: Path, spans_path: Path):
    """Returns (metrics, attempted, failures)."""
    tracer = Tracer()
    full = {
        "seed-cli": SeedCli(root, seed, workdir),
        "long-journey": LongJourney(root, seed, workdir),
        "cohort": Cohort(root, seed, workdir),
    }
    failures = [f"warm-up {w.name}: {m}" for w in full.values() for m in w.warm_up()]
    _profile_startup(tracer, full["seed-cli"])

    attempted = 0
    sizes = {"seed-cli": None, "long-journey": LongJourney.N_ENCOUNTERS, "cohort": Cohort.N_PATIENTS}
    wall = {}
    passes = [(w, sizes[name]) for name, w in full.items()]
    passes += [(LongJourney(root, seed, workdir, n), n) for n in SWEEP_ENCOUNTERS]
    for w, size in passes:
        tracer.tags = {"workload": w.name, "size": size}
        start = perf_counter()
        result = timed_pass(w, tracer, 0, min_samples=0, max_cycles=PASS_CYCLES[w.name])
        wall.setdefault(w.name, perf_counter() - start)
        attempted += result.attempted
        failures += result.failures
        if w.name == "long-journey":
            for _ in range(5):
                tracer.call("bundle.json_decode", json.loads, w.data)
    tracer.tags = {}

    start = perf_counter()
    twin = timed_pass(full[workload], NullTracer(), 0, min_samples=0, max_cycles=PASS_CYCLES[workload])
    untraced = perf_counter() - start
    failures += twin.failures
    attempted += twin.attempted

    tracer.write(spans_path)
    metrics = layer_metrics(tracer, full["long-journey"])
    metrics["trace.overhead_ratio"] = wall[workload] / untraced
    return metrics, attempted, failures


def layer_metrics(tracer: Tracer, long_journey: LongJourney) -> dict[str, float]:
    def ms(name, **match):
        return [ns / 1e6 for ns in tracer.durations_ns(name, **match)]

    def long_ms(name):
        return ms(name, workload="long-journey", size=LongJourney.N_ENCOUNTERS)

    def us(name):
        return [v * 1000 for v in ms(name, workload="cohort")]

    interp = p50(ms("cli.interp_start"))
    link_spans = tracer.select("graph.link", workload="cohort")
    link_us = [(s["end_ns"] - s["start_ns"]) / 1000 for s in link_spans]
    m = {
        "cli.interp_start_ms.p50": interp,
        "cli.site_ms.p50": interp - p50(ms("cli.interp_no_site")),
        "cli.import_ms.p50": p50(ms("cli.import_total")) - interp,
        "cli.main_ms.p50": p50(ms("cli.main")),
        "bundle.parse_bundle_ms.p50": p50(long_ms("bundle.parse_bundle")),
        "bundle.json_decode_ms.p50": p50(long_ms("bundle.json_decode")),
        "bundle.serialize_bundle_ms.p50": p50(long_ms("bundle.serialize_bundle")),
        "bundle.input_bytes": len(long_journey.data),
        "graph.link_us.p50": p50(link_us),
        "graph.link_us.p90": p90(link_us),
        "graph.link.calls": len(link_spans),
        "graph.link.rejected": sum(1 for s in link_spans if "error" in s),
        "graph.add_encounter_us.p50": p50(us("graph.add_encounter")),
        "graph.check_invariants_ms.p50": p50(long_ms("graph.check_invariants")),
        "graph.encounters_of_us.p50": p50(us("graph.encounters_of")),
        "graph.edges_of_us.p50": p50(us("graph.edges_of")),
        "dot.to_dot_ms.p50": p50(long_ms("dot.to_dot")),
        "dot.output_bytes": p50([s["bytes"] for s in tracer.select("dot.to_dot", size=LongJourney.N_ENCOUNTERS)]),
    }
    for name in ("timeline", "followup_chain", "cause_trace", "symptom_progression",
                 "symptom_diagnosis_links", "find_encounters"):
        m[f"queries.{name}_ms.p50"] = p50(long_ms(f"queries.{name}"))
    for name in ("rating_matrix_from_csv", "fleiss_kappa", "likert_summary"):
        m[f"agreement.{name}_ms.p50"] = p50(ms(f"agreement.{name}"))

    encounters = (*SWEEP_ENCOUNTERS, LongJourney.N_ENCOUNTERS)
    for metric, name in (("bundle.parse_bundle.slope", "bundle.parse_bundle"),
                         ("queries.timeline.slope", "queries.timeline")):
        m[metric] = loglog_slope(encounters, [p50(ms(name, workload="long-journey", size=n)) for n in encounters])

    # Cumulative link time after the first 100, 200 and 300 ingests.
    ingest_ops = [s["op"] for s in tracer.select("op", workload="cohort", label="ingest")]
    patient_of = {op: k for k, op in enumerate(ingest_ops)}
    per_patient = [0] * len(ingest_ops)
    for s in link_spans:
        per_patient[patient_of[s["op"]]] += s["end_ns"] - s["start_ns"]
    m["graph.link.slope"] = loglog_slope(SWEEP_PATIENTS, [sum(per_patient[:n]) for n in SWEEP_PATIENTS])

    audits = range(Cohort.AUDIT_EVERY, Cohort.N_PATIENTS + 1, Cohort.AUDIT_EVERY)
    for metric, name in (("graph.check_invariants.slope", "graph.check_invariants"),
                         ("dot.to_dot.slope", "dot.to_dot")):
        m[metric] = loglog_slope(audits, ms(name, workload="cohort"))
    return m

