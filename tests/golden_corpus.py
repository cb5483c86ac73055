"""A deterministic corpus of bundle inputs and the parser's recorded outcomes.

The inputs are generated, not stored:

- ``single``: every single-point mutation of the seed bundle.  At each of
  its paths (object keys and array entries) the value is deleted or set to
  ``null``, ``""``, ``5``, ``true``, ``[]`` or ``{}``.
- ``double``: seeded pairs of such mutations at unrelated paths.
- ``journey``: serialized ``journeygen`` journeys, valid and mutated.

For each input the corpus records the ``ok`` flag, the diagnostics in
report order and, when ``ok``, a digest of the re-serialized bundle.  A
digest of the input guards against the generators drifting.

Regenerate ``tests/data/golden_corpus.jsonl`` after an intended change with::

    PYTHONPATH=src:tests python tests/golden_corpus.py
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from pathlib import Path

from journeygen import MUTATIONS, mutation_corpus_journey, random_journey
from pjo import john_doe_bundle, parse_bundle, serialize_bundle

CORPUS_PATH = Path(__file__).parent / "data" / "golden_corpus.jsonl"

_DELETE = "delete"
REPLACEMENTS = {
    "null": None,
    "empty-string": "",
    "int": 5,
    "true": True,
    "empty-array": [],
    "empty-object": {},
}
DOUBLE_MUTATIONS = 300
DOUBLE_SEED = 20210105


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def document_paths(value, prefix: tuple = ()) -> list[tuple]:
    """Every object key and array entry below ``value``, in document order."""
    paths: list[tuple] = []
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return paths
    for step, child in children:
        paths.append(prefix + (step,))
        paths.extend(document_paths(child, prefix + (step,)))
    return paths


def render_path(path: tuple) -> str:
    text = ""
    for step in path:
        if isinstance(step, int):
            text += f"[{step}]"
        else:
            text = f"{text}.{step}" if text else step
    return text


def mutate(document, path: tuple, operation: str) -> None:
    """Apply one mutation to ``document`` in place."""
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    if operation == _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(REPLACEMENTS[operation])


def _operations() -> list[str]:
    return [_DELETE, *REPLACEMENTS]


def single_cases():
    seed = json.loads(john_doe_bundle())
    for path in document_paths(seed):
        for operation in _operations():
            document = copy.deepcopy(seed)
            mutate(document, path, operation)
            yield f"single {render_path(path)} {operation}", json.dumps(document, indent=2)


def double_cases():
    """Pairs of mutations; neither path lies inside the other.

    The later path in document order is mutated first, so deleting an
    array entry never shifts the other path.
    """
    seed = json.loads(john_doe_bundle())
    paths = document_paths(seed)
    rng = random.Random(DOUBLE_SEED)
    made = 0
    while made < DOUBLE_MUTATIONS:
        first, second = sorted(rng.sample(range(len(paths)), 2))
        early, late = paths[first], paths[second]
        if late[: len(early)] == early:
            continue
        early_op, late_op = rng.choice(_operations()), rng.choice(_operations())
        document = copy.deepcopy(seed)
        mutate(document, late, late_op)
        mutate(document, early, early_op)
        name = f"double {made} {render_path(early)} {early_op} + {render_path(late)} {late_op}"
        made += 1
        yield name, json.dumps(document, indent=2)


def journey_cases():
    for seed in range(40):
        graph = random_journey(random.Random(seed), hostile_names=seed % 2 == 1)
        for patient_id in sorted(graph.patients):
            yield f"journey {seed} {patient_id}", serialize_bundle(graph, patient_id)
    for seed in range(5):
        rng = random.Random(1000 + seed)
        base = mutation_corpus_journey(rng)
        for code, mutation in MUTATIONS:
            graph = mutation(base, rng)
            for patient_id in sorted(graph.patients):
                name = f"journey mutated {seed} {code} {patient_id}"
                yield name, serialize_bundle(graph, patient_id)


CASE_KINDS = {"single": single_cases, "double": double_cases, "journey": journey_cases}


def outcome(name: str, text: str) -> dict:
    result = parse_bundle(text)
    entry = {
        "id": name,
        "input": digest(text),
        "ok": result.ok,
        "diagnostics": [
            [d.severity.value, d.code, d.location, d.message] for d in result.problems
        ],
    }
    if result.ok:
        patient_id = next(iter(result.graph.patients))
        entry["output"] = digest(serialize_bundle(result.graph, patient_id))
    return entry


def generate() -> list[dict]:
    return [outcome(name, text) for cases in CASE_KINDS.values() for name, text in cases()]


def load() -> dict[str, dict]:
    with CORPUS_PATH.open(encoding="utf-8") as source:
        entries = [json.loads(line) for line in source]
    return {entry["id"]: entry for entry in entries}


def main() -> None:
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    with CORPUS_PATH.open("w", encoding="utf-8") as out:
        for entry in generate():
            out.write(json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
