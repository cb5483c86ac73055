"""Self-tests of the benchmark: seeded inputs, checks that catch bad output,
and a small pass of each workload.

    python3 -m pytest bench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import gen
import pjo.graph
from pjo import CycleIntroducedError, john_doe_graph, timeline, to_dot
from spans import NullTracer, Tracer, loglog_slope
from workloads import (
    Cohort,
    LongJourney,
    SeedCli,
    check_timeline,
    dot_counts,
    fleiss_kappa_reference,
    timed_pass,
)

ROOT = Path(__file__).resolve().parent.parent


def _inputs(workdir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first, second, other = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for workdir, seed in ((first, 7), (second, 7), (other, 8)):
        workdir.mkdir()
        SeedCli(ROOT, seed, workdir, n_journeys=4)
        LongJourney(ROOT, seed, workdir, n_encounters=80)
    assert _inputs(first) == _inputs(second)
    assert _inputs(first) != _inputs(other)

    plans = [Cohort(ROOT, 7, tmp_path, n_patients=20) for _ in range(2)]
    assert [(j.links, j.invalid) for j in plans[0].journeys] == [(j.links, j.invalid) for j in plans[1].journeys]
    assert plans[0].reads == plans[1].reads


def test_facts_match_the_seed_journey():
    journey, _ = gen.john_doe_journey()
    facts = gen.facts(journey)
    assert facts.gaps == 0
    assert (facts.followup_probe, facts.followup_length) == ("Encounter-Allergy-20210725", 2)
    assert (facts.cause_probe, facts.cause_length) == ("Encounter-Pulmonology-20210315", 2)
    assert dot_counts(to_dot(john_doe_graph())) == facts.dot_journey


def test_kappa_reference_matches_worked_example():
    assert fleiss_kappa_reference([[2, 0], [1, 1]]) == pytest.approx(-1 / 3)


def test_checks_catch_corrupted_output():
    journey, _ = gen.john_doe_journey()
    facts = gen.facts(journey)
    entries = timeline(john_doe_graph(), journey.patient_id)
    assert check_timeline(entries, facts) is None
    assert check_timeline(entries[::-1], facts) is not None
    assert check_timeline(entries[:-1], facts) is not None

    text = to_dot(john_doe_graph())
    lines = text.split("\n")
    dropped_edge = "\n".join(line for line in lines if line != next(x for x in lines if " -> " in x))
    assert dot_counts(dropped_edge) != facts.dot_journey
    assert dot_counts(text.replace("];", "]", 1)) is None


def test_corrupted_bundle_fails_long_journey_checks(tmp_path):
    workload = LongJourney(ROOT, 3, tmp_path, n_encounters=60)
    workload.data = workload.data.replace(b'"hasFollowup"', b'"next"', 1)
    result = timed_pass(workload, NullTracer(), 0, min_samples=0, max_cycles=1)
    assert result.failures
    assert len(result.failures) < result.attempted  # the unaffected queries still pass


def test_cycle_check_shortcut_is_caught(tmp_path, monkeypatch):
    workload = Cohort(ROOT, 3, tmp_path, n_patients=60)
    assert any(err is CycleIntroducedError for j in workload.journeys for _, _, err in j.invalid)
    monkeypatch.setattr(pjo.graph, "cyclic_nodes", lambda nodes, arcs: [])
    result = timed_pass(workload, NullTracer(), 0, min_samples=0, max_cycles=1)
    assert any("CycleIntroducedError" in message for message in result.failures)


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp: SeedCli(ROOT, 5, tmp, n_journeys=2),
        lambda tmp: LongJourney(ROOT, 5, tmp, n_encounters=60),
        lambda tmp: Cohort(ROOT, 5, tmp, n_patients=60),
    ],
    ids=["seed-cli", "long-journey", "cohort"],
)
def test_smoke_pass_of_each_workload(tmp_path, make):
    workload = make(tmp_path)
    assert workload.warm_up() == []
    tracer = Tracer()
    result = timed_pass(workload, tracer, 0, min_samples=0, max_cycles=1)
    assert result.failures == []
    assert result.attempted == len(tracer.select("op")) > 0
    calls = [s for s in tracer.spans if s["name"] != "op"]
    assert calls and all(tracer.spans[s["parent"]]["name"] == "op" for s in calls)


@pytest.mark.parametrize("reference_cls", [calibrate.Isolated, calibrate.IsolatedScan])
def test_calibrated_pass_scales_by_the_nearest_reference_samples(tmp_path, reference_cls):
    reference = reference_cls(ROOT)
    try:
        speedometer = calibrate.Speedometer(reference)
        result = timed_pass(LongJourney(ROOT, 5, tmp_path, n_encounters=60), NullTracer(), 0,
                            min_samples=0, max_cycles=2, speedometer=speedometer)
    finally:
        reference.close()
    assert reference.helper.returncode == 0
    assert len(speedometer.samples) >= 2  # one before the pass, one after
    assert len(result.scaled_ms) == result.attempted
    assert all(s > 0 for s in result.scaled_ms)

    speedometer.samples = [20.0] * 20 + [10.0] * 20  # twice as slow, then nominal
    nominal = speedometer.reference.nominal_ms
    assert speedometer.factor(0) == pytest.approx(nominal / 20)
    assert speedometer.factor(40) == pytest.approx(nominal / 10)
    assert speedometer.overall() == pytest.approx(nominal / 15)


def test_tracer_records_errors_and_slopes():
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        tracer.call("bad", lambda: 1 / 0)
    assert tracer.spans[0]["error"] == "ZeroDivisionError"
    assert loglog_slope([1, 2, 4], [3, 12, 48]) == pytest.approx(2)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cohort", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
