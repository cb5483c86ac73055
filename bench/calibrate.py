"""Calibration against the shared host's changing speed.

On a shared cloud host the same code runs up to ~1.6x slower for a minute
at a time and then fast again, and CPU time moves with wall time, so a raw
time says as much about the neighbours as about pjo.  A fixed reference
task, independent of pjo and alike to the workload's operations, is timed
between operations; each time is scaled by the reference's nominal time
over the median of the reference times nearest to it.  The slow phases
stretch the reference and pjo's operations alike, so the scaled times stay
put while the raw ones swing.  A change to pjo moves the operations and not
the reference.

Three references, each run like the workload's operations: ``Isolated``
(decode, group, sort and format records, as pjo does with bundles, in a
helper process on the benchmark's CPU) for ``long-journey``;
``IsolatedScan`` (filter a few thousand records by owner and sort the
matches, as the graph's whole-collection scans do, in the same kind of
helper) for ``cohort``, whose reads and writes slow more than decoding does
when the neighbours are busy; and ``BareStart`` (a child interpreter that
imports nothing) for ``seed-cli``, whose operations are child processes.
The speed changes within seconds, so only the few samples nearest to an
operation give its factor.  Scaled
times read as "milliseconds on a machine where the reference takes its
nominal time"; the raw times and the reference's median are printed beside
them.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

NEAREST = 7  # reference samples whose median gives the local speed
EVERY_S = 0.15  # operation time between two reference samples

_rng = random.Random(20240617)
_DOC = json.dumps([
    {
        "id": f"Enc-{i:05d}",
        "date": f"2020-{1 + i % 12:02d}-{1 + i % 28:02d}",
        "codes": [f"C{_rng.randrange(10**7):07d}" for _ in range(6)],
        "note": "x" * _rng.randrange(10, 60),
    }
    for i in range(1500)
])


def reference_task() -> int:
    """Decode, group, sort, format and encode records."""
    rows = json.loads(_DOC)
    by_date: dict[str, list] = {}
    for row in rows:
        by_date.setdefault(row["date"], []).append(row)
    ordered = sorted(rows, key=lambda r: (r["date"], r["id"]))
    lines = [f'"{r["id"]}" -> "{r["codes"][0]}" [label="{len(r["note"])}"];' for r in ordered]
    return len("\n".join(lines)) + len(by_date) + len(json.dumps(ordered))


class _Row:
    def __init__(self, i: int, rng: random.Random) -> None:
        self.row_id = f"Enc-{i:05d}"
        self.date = f"2020-{1 + rng.randrange(12):02d}-{1 + rng.randrange(28):02d}"
        self.codes = [f"C{rng.randrange(10**7):07d}" for _ in range(rng.randrange(1, 6))]
        self.note = "x" * rng.randrange(10, 60)


_ROWS: dict[str, _Row] = {}
_OWNER: dict[str, str] = {}


def scan_task() -> int:
    """Filter 3 000 records by owner and sort the matches, 30 times: the
    whole-collection scans of a shared graph with many patients."""
    if not _ROWS:
        rng = random.Random(20240618)
        for i in range(3000):
            row = _Row(i, rng)
            _ROWS[row.row_id] = row
            _OWNER[row.row_id] = f"Patient-{rng.randrange(300):03d}"
    found = 0
    for k in range(30):
        owner = f"Patient-{k * 7:03d}"
        owned = [r for r in _ROWS.values() if _OWNER.get(r.row_id) == owner]
        found += len(sorted(owned, key=lambda r: (r.date, r.row_id)))
    return found


class Isolated:
    """``reference_task`` in a helper process of its own, so that its time
    does not depend on how many objects pjo keeps alive in the benchmark
    process (in the same process it ran 40% slower beside three parsed long
    journeys).  The helper and the benchmark process are pinned to one CPU,
    the benchmark's first, so that the reference meets the same neighbours
    as the operations; an unpinned helper tracked them less well.  The
    helper waits on a pipe while operations run and runs one task per
    request."""

    nominal_ms = 8.0
    task = "records"

    def __init__(self, cwd: Path) -> None:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.helper = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).resolve()), self.task],
            cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __call__(self) -> float:
        self.helper.stdin.write("\n")
        self.helper.stdin.flush()
        return float(self.helper.stdout.readline())

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait(timeout=60)


class IsolatedScan(Isolated):
    """``scan_task`` in a helper process, as ``Isolated``."""

    nominal_ms = 5.5
    task = "scan"


TASKS = {"records": reference_task, "scan": scan_task}


def _serve(task) -> None:
    """The helper of ``Isolated``: one timed task per line read; it ends
    when the benchmark closes the pipe or exits."""
    task()  # builds what the task reads
    for _ in sys.stdin:
        start = perf_counter()
        task()
        print((perf_counter() - start) * 1000, flush=True)


class BareStart:
    """``python -I -S -c pass``: process creation and interpreter start-up,
    none of pjo."""

    nominal_ms = 13.0

    def __init__(self, cwd: Path) -> None:
        self.cwd = cwd

    def __call__(self) -> float:
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-I", "-S", "-c", "pass"],
            cwd=self.cwd, stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=60,
        )
        return (perf_counter() - start) * 1000

    def close(self) -> None:
        pass


class Speedometer:
    """Reference samples taken along a run, and the local speed at any point."""

    def __init__(self, reference) -> None:
        self.reference = reference
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time spent sampling

    def sample(self) -> None:
        start = perf_counter()
        self.samples.append(self.reference())
        self.spent_s += perf_counter() - start

    def factor(self, position: int) -> float:
        """Nominal over the median of the ``NEAREST`` samples around
        ``position`` (an index into ``samples``, or just past its end)."""
        low = max(0, min(position - NEAREST // 2, len(self.samples) - NEAREST))
        return self.reference.nominal_ms / statistics.median(self.samples[low:low + NEAREST])

    def overall(self) -> float:
        """Nominal over the median of all samples."""
        return self.reference.nominal_ms / statistics.median(self.samples)


if __name__ == "__main__":
    _serve(TASKS[sys.argv[1]])
