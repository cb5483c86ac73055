"""Parser contracts on serialized journeys damaged by structural and byte edits.

Each input starts as a valid ``journeygen`` bundle.  Structural edits
delete, replace, duplicate or cross-copy values at document paths; byte
edits then overwrite, delete or insert raw bytes of the encoded text, so
inputs range from valid bundles through join faults to broken UTF-8.  On
every input:

- ``parse_bundle`` never raises;
- an ``ok`` parse yields a graph the invariant checker accepts;
- ``s = serialize_bundle(parse(x))`` encodes as UTF-8 and re-serializing
  ``parse(s)`` gives exactly ``s``;
- ``pjo validate`` on the input, run in-process, returns 0, 1 or 2 and
  raises nothing, so it prints no traceback.
"""

from __future__ import annotations

import copy
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from golden_corpus import document_paths
from journeygen import random_journey
from pjo import cli, parse_bundle, serialize_bundle

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
    st.sampled_from(["", "2021-01-01", "1970-01-01", "next", "causedBy", "E55.9", "\ud800"]),
    # Readings with a side too long for ``int`` once made the parser raise.
    st.sampled_from(["9" * 5000 + "/1", "1/" + "9" * 5000]),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=8), children, max_size=3),
    ),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def journey_document(seed: int, hostile: bool) -> dict:
    graph = random_journey(
        random.Random(seed),
        min_patients=1,
        max_patients=1,
        min_encounters=1,
        max_encounters=5,
        hostile_names=hostile,
    )
    return json.loads(serialize_bundle(graph, next(iter(graph.patients))))


def edit_structure(document: dict, data) -> None:
    """Delete, replace, duplicate or cross-copy a value at a drawn path."""
    paths = document_paths(document)
    if not paths:
        return
    path = data.draw(st.sampled_from(paths), label="path")
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    operation = data.draw(st.sampled_from(["delete", "replace", "duplicate", "copy"]))
    if operation == "delete":
        del parent[last]
    elif operation == "replace":
        parent[last] = data.draw(values, label="value")
    elif operation == "duplicate" and isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    else:  # another path's value, e.g. one record's ID in another's reference
        source = document
        for step in data.draw(st.sampled_from(paths), label="source"):
            source = source[step]
        parent[last] = copy.deepcopy(source)


def edit_bytes(text: bytes, data) -> bytes:
    """Overwrite, delete or insert raw bytes."""
    at = data.draw(st.integers(0, len(text)), label="at")
    operation = data.draw(st.sampled_from(["overwrite", "delete", "insert"]))
    if operation == "delete":
        return text[:at] + text[at + data.draw(st.integers(1, 8), label="length") :]
    chunk = data.draw(st.binary(min_size=1, max_size=4), label="bytes")
    skip = len(chunk) if operation == "overwrite" else 0
    return text[:at] + chunk + text[at + skip :]


def validate_in_process(path) -> int:
    """``pjo validate`` with strict UTF-8 standard streams, as on a terminal."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["validate", str(path)])
        out.flush()
        err.flush()
    assert "Traceback" not in out.buffer.getvalue().decode("utf-8")
    assert "Traceback" not in err.buffer.getvalue().decode("utf-8")
    return code


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    hostile=st.booleans(),
    data=st.data(),
)
def test_mutated_bundles_keep_the_parser_contracts(seed, hostile, data, workdir):
    document = journey_document(seed, hostile)
    for _ in range(data.draw(st.integers(0, 3), label="structural edits")):
        edit_structure(document, data)
    # Escaped, a lone surrogate parses as JSON; raw, it is not UTF-8.
    ascii_only = data.draw(st.booleans(), label="ascii only")
    text = json.dumps(document, indent=2, ensure_ascii=ascii_only).encode("utf-8", "surrogatepass")
    for _ in range(data.draw(st.integers(0, 2), label="byte edits")):
        text = edit_bytes(text, data)

    result = parse_bundle(text)
    event(f"ok: {result.ok}")
    if result.ok:
        assert result.graph.check_invariants().ok
        patient_id = next(iter(result.graph.patients))
        canonical = serialize_bundle(result.graph, patient_id)
        canonical.encode("utf-8")
        again = parse_bundle(canonical)
        assert again.ok, again.errors
        assert serialize_bundle(again.graph, patient_id) == canonical

    path = workdir / "bundle.json"
    path.write_bytes(text)
    assert validate_in_process(path) in (0, 1, 2)
