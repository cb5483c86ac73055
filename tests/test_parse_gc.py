"""``parse_bundle`` runs with the cyclic garbage collector paused.

Everything a parse builds is an acyclic tree that reference counting frees
on its own, so collector passes during a parse find nothing to free.  The
pause must end on every way out of the parse, and must leave a collector
that was already disabled disabled.
"""

from __future__ import annotations

import gc
import json
import random

import pytest

from journeygen import random_journey
from pjo import Encounter, bundle, john_doe_bundle, parse_bundle, serialize_bundle


def _failing_reader(obj, path, problems):
    raise RuntimeError("reader failed")


EXITS = {
    "ok": john_doe_bundle,
    "field errors": lambda: '{"formatVersion": "pjo-1", "patient": {"patientID": 7}}',
    "invalid utf-8": lambda: b'{"formatVersion": "\xff"}',
    "invalid json": lambda: "{",
    "too deep": lambda: "[" * 200_000 + "]" * 200_000,
    "non-object root": lambda: "[]",
}


def _set_collector(enabled: bool) -> None:
    (gc.enable if enabled else gc.disable)()


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's state on entry to ``parse_bundle``; restored after."""
    was_enabled = gc.isenabled()
    _set_collector(request.param)
    yield request.param
    _set_collector(was_enabled)


@pytest.mark.parametrize("case", sorted(EXITS))
def test_parse_leaves_the_collector_as_it_found_it(collector, case):
    result = parse_bundle(EXITS[case]())
    assert result.ok == (case == "ok")
    assert gc.isenabled() is collector


def test_an_escaping_exception_leaves_the_collector_as_it_found_it(collector, monkeypatch):
    monkeypatch.setitem(bundle._RECORD_READERS, Encounter, _failing_reader)
    with pytest.raises(RuntimeError, match="reader failed"):
        parse_bundle(john_doe_bundle())
    assert gc.isenabled() is collector


def test_no_collection_starts_during_a_parse():
    graph = random_journey(
        random.Random(5), min_patients=1, max_patients=1, min_encounters=300, max_encounters=300
    )
    text = serialize_bundle(graph, next(iter(graph.patients)))
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(hook)
    try:
        result = parse_bundle(text)
        # Counted without allocating: the first allocation after the parse
        # runs the young collection the pause put off.
        during_parse = len(starts)
        # Decoding the same text with the collector running does start
        # collections, so the hook would have seen them.
        parsed = [json.loads(text) for _ in range(3)]
    finally:
        gc.callbacks.remove(hook)
        _set_collector(was_enabled)
    assert result.ok and parsed
    assert during_parse == 0
    assert starts
