"""``parse_bundle`` runs with the cyclic garbage collector paused, and hands
what it built to the oldest generation.

Everything a parse builds is an acyclic tree that reference counting frees
on its own, so collector passes during a parse find nothing to free, and
young or middle passes after it would only walk its objects again.  The
pause must end on every way out of the parse, and must leave a collector
that was already disabled disabled.  The handoff (one middle pass on entry,
``gc.freeze()`` and ``gc.unfreeze()`` on the way out) runs only when the
collector is enabled and nothing is frozen on entry, and never changes the
freeze count.
"""

from __future__ import annotations

import gc
import json
import random
import weakref

import pytest

from journeygen import random_journey
from pjo import Encounter, bundle, john_doe_bundle, parse_bundle, serialize_bundle
from pjo._generated import readers

# Objects frozen before any test runs: CPython 3.12 starts with some in the
# permanent generation, and then ``parse_bundle`` never hands off.
FROZEN_AT_START = gc.get_freeze_count()
NO_HANDOFF = (
    f"the permanent generation holds {FROZEN_AT_START} objects on entry, "
    "so parse_bundle skips the handoff"
)
needs_handoff = pytest.mark.skipif(FROZEN_AT_START != 0, reason=NO_HANDOFF)


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


@pytest.fixture(params=[False, True], ids=["nothing frozen", "frozen"])
def frozen(request):
    """Whether objects are frozen on entry to ``parse_bundle``: with True
    everything is frozen first, and thawed after unless it was already."""
    if FROZEN_AT_START != 0:
        if not request.param:
            pytest.skip(NO_HANDOFF)
        yield True
    elif request.param:
        gc.freeze()
        yield True
        gc.unfreeze()
    else:
        yield False


@pytest.fixture
def long_text() -> str:
    """A 300-encounter bundle, enough containers to set off collections."""
    graph = random_journey(
        random.Random(5), min_patients=1, max_patients=1, min_encounters=300, max_encounters=300
    )
    return serialize_bundle(graph, next(iter(graph.patients)))


def _generation(obj) -> int | None:
    """The generation tracking ``obj``; call it with the collector disabled,
    so that listing a generation starts no collection."""
    assert not gc.isenabled()
    for generation in range(3):
        if any(tracked is obj for tracked in gc.get_objects(generation)):
            return generation
    return None


@pytest.mark.parametrize("case", sorted(EXITS))
def test_parse_leaves_the_collector_as_it_found_it(collector, frozen, case):
    freeze_count = gc.get_freeze_count()
    result = parse_bundle(EXITS[case]())
    assert result.ok == (case == "ok")
    assert gc.isenabled() is collector
    assert gc.get_freeze_count() == freeze_count


def test_an_escaping_exception_leaves_the_collector_as_it_found_it(
    collector, frozen, monkeypatch
):
    monkeypatch.setitem(readers.READERS, Encounter, _failing_reader)
    freeze_count = gc.get_freeze_count()
    with pytest.raises(RuntimeError, match="reader failed"):
        parse_bundle(john_doe_bundle())
    assert gc.isenabled() is collector
    assert gc.get_freeze_count() == freeze_count


def test_no_collection_starts_during_a_parse(frozen, long_text, monkeypatch):
    """With the handoff one middle pass starts, on entry, before the document
    is decoded; without it none does.  None starts once decoding began."""
    events = []

    def hook(phase, info):
        if phase == "start":
            events.append(info["generation"])

    def decode(data, problems):
        events.append("decode")
        return decode_for_real(data, problems)

    decode_for_real = bundle._decode
    monkeypatch.setattr(bundle, "_decode", decode)
    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(hook)
    try:
        result = parse_bundle(long_text)
        # Counted without allocating: the first allocation after a parse
        # without the handoff runs the young pass it put off.
        during_parse = len(events)
        # Decoding the same text with the collector running does start
        # collections, so the hook would have seen them.
        parsed = [json.loads(long_text) for _ in range(3)]
    finally:
        gc.callbacks.remove(hook)
        _set_collector(was_enabled)
    assert result.ok and parsed
    assert events[:during_parse] == (["decode"] if frozen else [1, "decode"])
    assert len(events) > during_parse


def test_a_parse_hands_what_it_built_to_the_oldest_generation(frozen, long_text):
    """Unless objects are frozen on entry: then what it built stays young."""
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        freeze_count = gc.get_freeze_count()
        result = parse_bundle(long_text)
        gc.disable()
        assert gc.get_freeze_count() == freeze_count
        encounter = next(iter(result.graph.encounters.values()))
        built = {
            "graph": result.graph,
            "encounter": encounter,
            "subrecord list": encounter.symptoms,
        }
        generations = {name: _generation(obj) for name, obj in built.items()}
    finally:
        _set_collector(was_enabled)
    if frozen:
        assert set(generations.values()) <= {0, 1}
    else:
        assert generations == dict.fromkeys(built, 2)


@needs_handoff
def test_a_cycle_made_before_the_parse_is_freed_when_it_returns():
    class Node:
        pass

    was_enabled = gc.isenabled()
    gc.enable()
    try:
        node = Node()
        node.self = node
        freed = weakref.ref(node)
        del node
        result = parse_bundle(john_doe_bundle())
        assert freed() is None
    finally:
        _set_collector(was_enabled)
    assert result.ok

