"""Benchmark for pjo: one closed-loop workload per run, or the traced run.

    python3 bench/run.py --workload seed-cli --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; pjo is imported from ``src`` and the
record generator from ``tests/journeygen.py``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  A human-readable table, and every failed check,
come before it.  Inputs and outputs stay inside the checkout: inputs in a
temporary directory removed at exit, spans of a traced run in
``.bench_out/``.

End-to-end times are scaled by the host's local speed, measured with a
reference task timed between operations (see ``calibrate.py``); the raw
times are printed above the result line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("seed-cli", "long-journey", "cohort")
SETUP_REPEATS = 3  # set-up is timed this many times per run; the median is reported

END_TO_END = [
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _peak_rss_mb(children: bool) -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    return usage.ru_maxrss / 1024  # kilobytes on Linux


def untraced_run(workload: str, seed: int, seconds: float, workdir: Path):
    from calibrate import Speedometer
    from spans import NullTracer, p50, p90
    from workloads import WORKLOADS, timed_pass

    cls = WORKLOADS[workload]
    reference = cls.reference(ROOT)
    try:
        setup_s, raw_setup_s, failures = [], [], []
        for repeat in range(SETUP_REPEATS):
            inputs = workdir / f"setup-{repeat}"
            inputs.mkdir()
            # The reference is sampled after the inputs are made and after
            # each warm-up call, as in the timed pass, and not back to back:
            # a sample taken right after another runs on warm caches and
            # reads faster than one taken right after pjo's work.
            around = Speedometer(reference)
            start = perf_counter()
            instance = cls(ROOT, seed, inputs)
            around.sample()
            warm_up_failures = instance.warm_up(between=around.sample)
            raw_setup_s.append(perf_counter() - start - around.spent_s)
            setup_s.append(raw_setup_s[-1] * around.overall())
            failures += [f"warm-up {workload}: {m}" for m in warm_up_failures]

        speedometer = Speedometer(reference)
        result = timed_pass(instance, NullTracer(), seconds, speedometer=speedometer)
    finally:
        reference.close()
    failures += result.failures
    raw, scaled = result.latencies_ms, result.scaled_ms
    metrics = {
        "setup_s": statistics.median(setup_s),
        "op_ms.p50": p50(scaled),
        "op_ms.p90": p90(scaled),
        "ops_per_s": 1000 * len(scaled) / sum(scaled),
        "peak_rss_mb": _peak_rss_mb(children=workload == "seed-cli"),
    }
    beyond = sum(1 for v in scaled if v > metrics["op_ms.p90"])
    print(f"{workload}: {result.attempted} operations in {result.cycles} cycles, {beyond} beyond p90")
    print(f"raw (unscaled): setup_s {statistics.median(raw_setup_s):.4f}  op_ms.p50 {p50(raw):.4f}  "
          f"op_ms.p90 {p90(raw):.4f}  ops_per_s {result.attempted / result.busy_s:.4f}")
    print(f"reference {type(reference).__name__}: median {statistics.median(speedometer.samples):.3f} ms "
          f"over {len(speedometer.samples)} samples, nominal {reference.nominal_ms} ms")
    print(f"error_ratio  {len(result.failures) / result.attempted:.6f}  ratio "
          f"({len(result.failures)} failed checks / {result.attempted} operations)")
    return metrics, END_TO_END, result.attempted, len(result.failures), failures


def traced(workload: str, seed: int, workdir: Path):
    from layers import PER_LAYER, traced_run

    spans_path = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl"
    metrics, attempted, failures = traced_run(ROOT, seed, workload, workdir, spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics, PER_LAYER, attempted, len(failures), failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    missing = [p for p in ("src/pjo", "tests/journeygen.py") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a pjo checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        run = traced if args.trace else lambda w, s, d: untraced_run(w, s, args.seconds, d)
        metrics, spec, attempted, failed, failures = run(args.workload, args.seed, Path(tmp))

    for message in failures:
        print(f"FAILED CHECK  {message}")
    for name, unit in spec:
        print(f"{name:<42} {metrics[name]:>14.4f}  {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
