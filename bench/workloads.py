"""The three closed-loop workloads and the checks on every operation's output.

One caller: each operation starts only after the previous one finished and
was checked.  A workload's ``cycle`` yields one whole pass over its inputs;
the timed loop runs whole cycles, so every run sees the same mix of
operations whatever its length.

* ``seed-cli``: one ``python -m pjo`` child per operation on small bundles.
  Interpreter start-up and imports dominate; graph algorithms barely run.
* ``long-journey``: one 2 000-encounter patient, parsed and queried in
  process.  Per-patient scans in ``bundle``, ``graph`` and ``queries``
  dominate and start-up is absent.
* ``cohort``: 300 patients x 10 encounters ingested through the raising
  API, with reads between ingests.  Whole-graph scans on every write
  dominate, and invalid links must be refused without changing the graph.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, pstdev
from time import perf_counter
from typing import Callable, Iterator

import calibrate
import gen
from calibrate import Speedometer
from spans import NullTracer
from pjo import (
    JourneyGraph,
    PjoError,
    cause_trace,
    find_encounters,
    followup_chain,
    parse_bundle,
    serialize_bundle,
    symptom_diagnosis_links,
    symptom_progression,
    timeline,
    to_dot,
)

MIN_SAMPLES = 100  # so that at least ten samples lie beyond p90


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # a failure message, or None


# -- output checks -------------------------------------------------------------

_QUOTED = r'"(?:[^"\\]|\\.)*"'
_DOT_NODE = re.compile(rf'  {_QUOTED} \[label={_QUOTED}, shape=\w+, style=filled, fillcolor="#[0-9a-f]{{6}}"\];')
_DOT_EDGE = re.compile(rf"  {_QUOTED} -> {_QUOTED} \[label={_QUOTED}\];")


def dot_counts(text: str) -> tuple[int, int] | None:
    """(nodes, edges) of exporter output, or None when a line has another shape."""
    lines = text.split("\n")
    if lines[:2] != ["digraph pjo {", "  rankdir=LR;"] or lines[-2:] != ["}", ""]:
        return None
    nodes = edges = 0
    for line in lines[2:-2]:
        if _DOT_NODE.fullmatch(line):
            nodes += 1
        elif _DOT_EDGE.fullmatch(line):
            edges += 1
        else:
            return None
    return nodes, edges


def expected_codes(gaps: int) -> Counter:
    return +Counter({"duplicate-cui-annotation": gen.duplicate_cui_count(), "journey-gap": gaps})


def fleiss_kappa_reference(counts: list[list[int]]) -> float:
    """Fleiss (1971): kappa = (P - Pe) / (1 - Pe)."""
    n = sum(counts[0])
    total = len(counts) * n
    p_bar = sum((sum(c * c for c in row) - n) / (n * (n - 1)) for row in counts) / len(counts)
    p_e = sum((sum(col) / total) ** 2 for col in zip(*counts))
    return (p_bar - p_e) / (1 - p_e)


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def check_report(report, gaps: int) -> str | None:
    if report.errors:
        return f"unexpected errors: {[d.code for d in report.errors]}"
    return _mismatch("warning codes", Counter(d.code for d in report.warnings), expected_codes(gaps))


def check_timeline(entries, facts: gen.Facts) -> str | None:
    return _mismatch(
        "timeline",
        ([e.encounter_id for e in entries], sum(len(e.outbound_links) for e in entries)),
        (list(facts.order), facts.n_links),
    )


# -- seed-cli ------------------------------------------------------------------


class SeedCli:
    """John Doe plus seeded one-patient journeys of 1-10 encounters with
    hostile names, and small rating CSVs, each command a fresh child."""

    name = "seed-cli"
    N_JOURNEYS = 20
    reference = calibrate.BareStart

    def __init__(self, root: Path, seed: int, workdir: Path, n_journeys: int = N_JOURNEYS):
        self.root = root
        rng = gen.rng_for(seed, self.name)
        provider_list = gen.providers(rng)
        ids = [p.provider_id for p in provider_list]
        journeys = [gen.john_doe_journey()]
        for k in range(n_journeys):
            journey = gen.plan_journey(
                rng, f"Patient-{k:02d}", rng.randint(1, 10), ids,
                hostile=True, same_date_share=0.1, max_step_days=300,
            )
            journeys.append((journey, provider_list))
        self.bundles = []
        for k, (journey, plist) in enumerate(journeys):
            path = workdir / f"bundle-{k:02d}.json"
            path.write_bytes(gen.bundle_bytes(journey, plist))
            self.bundles.append((str(path), journey.patient_id, gen.facts(journey)))

        categories = ["agree", "neutral", "disagree", "unsure"]
        self.kappa_counts = []
        for _ in range(30):
            picks = Counter(rng.choices(categories, weights=[5, 2, 2, 1], k=6))
            self.kappa_counts.append([picks[c] for c in categories])
        self.kappa_csv = workdir / "kappa.csv"
        self.kappa_csv.write_text(
            "subject," + ",".join(categories) + "\n"
            + "".join(f"s{i},{','.join(map(str, row))}\n" for i, row in enumerate(self.kappa_counts)),
            encoding="utf-8",
        )
        self.likert = {f"q{d}": [rng.randint(1, 5) for _ in range(25)] for d in range(4)}
        self.likert_csv = workdir / "likert.csv"
        self.likert_csv.write_text(
            "dimension,response\n"
            + "".join(f"{dim},{v}\n" for dim, values in self.likert.items() for v in values),
            encoding="utf-8",
        )
        self.env = child_env(root)

    def commands(self, bundle_index: int) -> list[tuple[list[str], Callable]]:
        """Each pjo command on one bundle, with the check of its JSON (or DOT) output."""
        path, pid, f = self.bundles[bundle_index]
        js = ["--format", "json"]
        kappa = fleiss_kappa_reference(self.kappa_counts)
        means = [round(fmean(v), 9) for v in self.likert.values()]
        pooled_sd = round(pstdev([v for values in self.likert.values() for v in values]), 9)

        def timeline_rows(doc):
            return [e["encounterID"] for e in doc], sum(len(e["outboundLinks"]) for e in doc)

        def kappa_close(doc):
            return None if math.isclose(doc["kappa"], kappa, abs_tol=1e-9) else f"kappa: got {doc['kappa']!r}, expected {kappa!r}"

        return [
            (["validate", path, *js], lambda doc: _mismatch(
                "validate", (doc["errors"], +Counter(d["code"] for d in doc["diagnostics"])), (0, expected_codes(f.gaps)))),
            (["query", "timeline", "--patient", pid, path, *js], lambda doc: _mismatch(
                "timeline", timeline_rows(doc), (list(f.order), f.n_links))),
            (["query", "symptom-progression", "--patient", pid, "--symptom", f.symptom, path, *js],
             lambda doc: _mismatch("symptom occurrences", len(doc), f.symptom_count)),
            (["query", "followup-chain", "--encounter", f.followup_probe, path, *js],
             lambda doc: _mismatch("follow-up chain", len(doc["chain"]), f.followup_length)),
            (["query", "cause-trace", "--encounter", f.cause_probe, path, *js],
             lambda doc: _mismatch("cause trace", len(doc["trace"]), f.cause_length)),
            (["query", "symptom-diagnosis", "--patient", pid, path, *js],
             lambda doc: _mismatch("symptom-diagnosis pairs", len(doc), f.symptom_diagnosis_pairs)),
            (["query", "find", "--patient", pid, "--specialty", f.specialty, path, *js],
             lambda doc: _mismatch("find", len(doc["encounterIDs"]), f.specialty_count)),
            (["export", path, "--detail", "full"],
             lambda text: _mismatch("DOT (nodes, edges)", dot_counts(text), f.dot_full)),
            (["stats", "kappa", str(self.kappa_csv), *js], kappa_close),
            (["stats", "likert", str(self.likert_csv), *js], lambda doc: _mismatch(
                "likert", ([round(d["mean"], 9) for d in doc["dimensions"]], round(doc["overallSD"], 9)),
                (means, pooled_sd))),
        ]

    @staticmethod
    def decode(argv: list[str], stdout: str):
        """Command output as its check takes it: DOT text, or parsed JSON."""
        return stdout if argv[0] == "export" else json.loads(stdout)

    def run_child(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "pjo", *argv],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, encoding="utf-8", timeout=60,
        )

    def _op(self, argv, check, tracer) -> Op:
        def checked(proc):
            if proc.returncode != 0:
                return f"pjo {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
            try:
                return check(self.decode(argv, proc.stdout))
            except (ValueError, KeyError, TypeError) as exc:
                return f"pjo {argv[0]} output unreadable: {exc!r}"

        label = " ".join(argv[:2]) if argv[0] in ("query", "stats") else argv[0]
        return Op(label, lambda: tracer.call("cli.process", self.run_child, argv), checked)

    def warm_up(self, between=None) -> list[str]:
        return run_once((self._op(argv, check, NullTracer()) for argv, check in self.commands(0)), between)

    def cycle(self, tracer, index: int = 0) -> Iterator[Op]:
        for argv, check in self.commands(index % len(self.bundles)):
            yield self._op(argv, check, tracer)


def child_env(root: Path) -> dict[str, str]:
    """A pinned child environment: pjo from the checkout's sources, no color."""
    return {
        "PATH": os.environ.get("PATH", ""),
        "PYTHONPATH": str(root / "src"),
        "PJO_NO_COLOR": "1",
        "PYTHONUTF8": "1",
    }


# -- long-journey ----------------------------------------------------------------


class LongJourney:
    """``parse_bundle`` of one long journey followed by one action, which is
    what one ``pjo query`` or ``pjo validate`` costs without start-up."""

    name = "long-journey"
    N_ENCOUNTERS = 2000
    reference = calibrate.Isolated

    def __init__(self, root: Path, seed: int, workdir: Path, n_encounters: int = N_ENCOUNTERS):
        rng = gen.rng_for(seed, f"{self.name}-{n_encounters}")
        provider_list = gen.providers(rng)
        journey = gen.plan_journey(
            rng, "Patient-Long", n_encounters, [p.provider_id for p in provider_list]
        )
        self.pid = journey.patient_id
        self.facts = gen.facts(journey)
        path = workdir / f"long-journey-{n_encounters}.json"
        path.write_bytes(gen.bundle_bytes(journey, provider_list))
        self.data = path.read_bytes()

    def actions(self, tracer) -> list[tuple[str, Callable, Callable]]:
        f, pid, call = self.facts, self.pid, tracer.call
        return [
            ("check_invariants", lambda g: call("graph.check_invariants", g.check_invariants),
             lambda r: check_report(r, f.gaps)),
            ("timeline", lambda g: call("queries.timeline", timeline, g, pid),
             lambda r: check_timeline(r, f)),
            ("followup_chain", lambda g: call("queries.followup_chain", followup_chain, g, f.followup_probe),
             lambda r: _mismatch("follow-up chain", len(r), f.followup_length)),
            ("cause_trace", lambda g: call("queries.cause_trace", cause_trace, g, f.cause_probe),
             lambda r: _mismatch("cause trace", len(r), f.cause_length)),
            ("symptom_progression", lambda g: call("queries.symptom_progression", symptom_progression, g, pid, f.symptom),
             lambda r: _mismatch("symptom occurrences", len(r), f.symptom_count)),
            ("symptom_diagnosis_links", lambda g: call("queries.symptom_diagnosis_links", symptom_diagnosis_links, g, pid),
             lambda r: _mismatch("symptom-diagnosis pairs", len(r), f.symptom_diagnosis_pairs)),
            ("find_encounters", lambda g: call("queries.find_encounters", find_encounters, g, patient_id=pid, specialty=f.specialty),
             lambda r: _mismatch("find", len(r), f.specialty_count)),
            ("to_dot", lambda g: call("dot.to_dot", to_dot, g, detail="full"),
             lambda r: _mismatch("DOT (nodes, edges)", dot_counts(r), f.dot_full)),
            ("serialize_bundle", lambda g: call("bundle.serialize_bundle", serialize_bundle, g, pid).encode("utf-8"),
             lambda r: None if r == self.data else "serialize_bundle(parse_bundle(b)) != b"),
        ]

    def _op(self, label, action, check, tracer) -> Op:
        def run():
            parsed = tracer.call("bundle.parse_bundle", parse_bundle, self.data)
            if not parsed.ok or parsed.problems:
                return ("parse", [d.code for d in parsed.problems])
            return ("ok", action(parsed.graph))

        def checked(result):
            status, value = result
            return check(value) if status == "ok" else f"parse_bundle reported {value}"

        return Op(label, run, checked)

    def warm_up(self, between=None) -> list[str]:
        return run_once(self.cycle(NullTracer()), between)

    def cycle(self, tracer, index: int = 0) -> Iterator[Op]:
        # ``timeline``, the slowest action, runs twice: with eleven operations
        # a cycle, p50 falls inside the ``check_invariants`` cluster and p90
        # near the middle of the ``timeline`` one, rather than on the edge of
        # a cluster, where the few fastest samples of one action decide it.
        actions = self.actions(tracer)
        for label, action, check in actions + [actions[1]]:
            yield self._op(label, action, check, tracer)


# -- cohort ----------------------------------------------------------------------


class Cohort:
    """One shared graph built through the raising API, one patient per write
    operation, with reads on already-ingested patients between writes and a
    whole-graph check and export every 50 patients."""

    name = "cohort"
    N_PATIENTS = 300
    ENCOUNTERS = 10
    READS = ("timeline", "encounters_of", "edges_of", "find_encounters")
    AUDIT_EVERY = 50
    reference = calibrate.IsolatedScan

    def __init__(self, root: Path, seed: int, workdir: Path, n_patients: int = N_PATIENTS):
        rng = gen.rng_for(seed, f"{self.name}-{n_patients}")
        self.provider_list = gen.providers(rng)
        ids = [p.provider_id for p in self.provider_list]
        self.journeys = []
        for k in range(n_patients):
            journey = gen.plan_journey(
                rng, f"Patient-{k:03d}", self.ENCOUNTERS, ids, same_date_share=0.1, max_step_days=300
            )
            gen.add_invalid_attempts(rng, journey, self.journeys[-1] if self.journeys else None)
            self.journeys.append(journey)
        self.facts = [gen.facts(j) for j in self.journeys]
        # Patients read after each ingest, chosen among those already ingested.
        self.reads = [[rng.randrange(k + 1) for _ in self.READS] for k in range(n_patients)]

    @staticmethod
    def ingest(graph: JourneyGraph, journey: gen.Journey, tracer) -> list[str]:
        """Add one patient with its links; returns the invalid attempts that
        were not refused as expected."""
        call, pid = tracer.call, journey.patient_id
        call("graph.add_patient", graph.add_patient, journey.patient)
        call("graph.add_intake_form", graph.add_intake_form, pid, journey.intake_form)
        for encounter in journey.encounters:
            call("graph.add_encounter", graph.add_encounter, pid, encounter)
        invalid_after: dict[int, list] = {}
        for n, edge, expected in journey.invalid:
            invalid_after.setdefault(n, []).append((edge, expected))
        problems = []
        for n, edge in enumerate(journey.links):
            call("graph.link", graph.link, edge.kind, edge.from_encounter, edge.to_encounter, edge.via)
            for bad, expected in invalid_after.get(n, ()):
                before, last = len(graph.edges), graph.edges[-1]
                try:
                    call("graph.link", graph.link, bad.kind, bad.from_encounter, bad.to_encounter)
                except expected:
                    if len(graph.edges) != before or graph.edges[-1] is not last:
                        problems.append(f"refused {bad} but changed the graph")
                except PjoError as exc:
                    problems.append(f"{bad}: expected {expected.__name__}, got {type(exc).__name__}")
                else:
                    problems.append(f"{bad}: accepted, expected {expected.__name__}")
        return problems

    def _read(self, kind: str, graph: JourneyGraph, k: int, tracer) -> Op:
        journey, f, call = self.journeys[k], self.facts[k], tracer.call
        pid = journey.patient_id
        if kind == "timeline":
            return Op(kind, lambda: call("queries.timeline", timeline, graph, pid), lambda r: check_timeline(r, f))
        if kind == "encounters_of":
            return Op(kind, lambda: call("graph.encounters_of", graph.encounters_of, pid),
                      lambda r: _mismatch("encounters_of", [e.encounter_id for e in r], list(f.order)))
        if kind == "edges_of":
            return Op(kind, lambda: call("graph.edges_of", graph.edges_of, pid),
                      lambda r: _mismatch("edges_of", len(r), f.n_links))
        return Op(kind, lambda: call("queries.find_encounters", find_encounters, graph, patient_id=pid, specialty=f.specialty),
                  lambda r: _mismatch("find", len(r), f.specialty_count))

    def cycle(self, tracer, index: int = 0, patients: int | None = None) -> Iterator[Op]:
        graph = JourneyGraph()
        for provider in self.provider_list:
            graph.add_provider(provider)
        count = len(self.journeys) if patients is None else patients
        for k in range(count):
            journey = self.journeys[k]
            yield Op("ingest", lambda j=journey: self.ingest(graph, j, tracer),
                     lambda problems: "; ".join(problems) or None)
            if (k + 1) % self.AUDIT_EVERY == 0:
                gaps = sum(f.gaps for f in self.facts[: k + 1])
                nodes = sum(f.dot_journey[0] for f in self.facts[: k + 1])
                edges = sum(f.dot_journey[1] for f in self.facts[: k + 1])
                yield Op("check_invariants", lambda: tracer.call("graph.check_invariants", graph.check_invariants),
                         lambda r, gaps=gaps: check_report(r, gaps))
                yield Op("to_dot", lambda: tracer.call("dot.to_dot", to_dot, graph),
                         lambda r, want=(nodes, edges): _mismatch("DOT (nodes, edges)", dot_counts(r), want))
            for kind, target in zip(self.READS, self.reads[k]):
                yield self._read(kind, graph, target, tracer)

    def warm_up(self, between=None) -> list[str]:
        return run_once(self.cycle(NullTracer(), patients=2), between)


WORKLOADS = {w.name: w for w in (SeedCli, LongJourney, Cohort)}


# -- the closed loop ---------------------------------------------------------------


def _attempt(op: Op) -> tuple[float, object, str | None]:
    """(seconds in the operation, its result, failure message or None)."""
    start = perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - start, result, None


def run_once(ops, between: Callable[[], object] | None = None) -> list[str]:
    """Run operations untimed, calling ``between`` after each; returns
    failure messages."""
    failures = []
    for op in ops:
        _, result, message = _attempt(op)
        message = message or op.check(result)
        if message:
            failures.append(f"{op.label}: {message}")
        if between is not None:
            between()
    return failures


@dataclass
class PassResult:
    latencies_ms: list[float]
    busy_s: float  # wall time of the pass minus the time spent checking outputs and calibrating
    cycles: int
    failures: list[str]
    # Latencies scaled to the reference speed, when the pass was calibrated.
    scaled_ms: list[float] | None = None

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)


def timed_pass(workload, tracer, seconds: float, min_samples: int = MIN_SAMPLES,
               max_cycles: int | None = None, speedometer: Speedometer | None = None) -> PassResult:
    """Whole cycles, until the next would end after ``seconds`` and at least
    ``min_samples`` operations ran, or until ``max_cycles`` cycles ran.

    With a ``speedometer``, the reference task is timed after every
    ``calibrate.EVERY_S`` of operation time (outside the pass's busy time),
    and each latency is also given scaled by the local speed."""
    latencies, failures, checking = [], [], 0.0
    positions, since_sample = [], 0.0
    if speedometer is not None:
        speedometer.sample()
    start = perf_counter()
    cycle = 0
    while True:
        cycle_start = perf_counter()
        for op in workload.cycle(tracer, cycle):
            tracer.op = len(latencies)
            with tracer.span("op", label=op.label, workload=workload.name):
                elapsed, value, message = _attempt(op)
            check_start = perf_counter()
            message = message or op.check(value)
            if speedometer is not None:
                positions.append(len(speedometer.samples))
                since_sample += elapsed
                if since_sample >= calibrate.EVERY_S:
                    speedometer.sample()
                    since_sample = 0.0
            checking += perf_counter() - check_start
            latencies.append(elapsed * 1000)
            if message:
                failures.append(f"{workload.name} {op.label}: {message}")
        tracer.op = None
        cycle += 1
        if max_cycles is not None:
            if cycle >= max_cycles:
                break
        elif len(latencies) >= min_samples and (perf_counter() - start) + (perf_counter() - cycle_start) > seconds:
            break
    result = PassResult(latencies, perf_counter() - start - checking, cycle, failures)
    if speedometer is not None:
        speedometer.sample()
        result.scaled_ms = [ms * speedometer.factor(at) for ms, at in zip(latencies, positions)]
    return result
