"""A deterministic corpus of bundle inputs and the parser's recorded outcomes.

The inputs are generated, not stored:

- ``single``: every single-point mutation of the seed bundle.  At each of
  its paths (object keys and array entries) the value is deleted or set to
  ``null``, ``""``, ``5``, ``true``, ``[]`` or ``{}``.
- ``double``: seeded pairs of such mutations at unrelated paths.
- ``journey``: serialized ``journeygen`` journeys, valid and mutated.
- ``join``: seed-bundle edits that break the rules checked when the
  records are joined into a graph (duplicate IDs, unknown providers,
  dates before birth, link endpoints, dates, duplicates and cycles),
  alone and in pairs.

For each input the corpus records the ``ok`` flag, the diagnostics in
report order and, when ``ok``, a digest of the re-serialized bundle.  A
digest of the input guards against the generators drifting.

Regenerate ``tests/data/golden_corpus.jsonl`` after an intended change with::

    PYTHONPATH=src:tests python tests/golden_corpus.py [KIND ...]

Naming kinds re-records only their entries, where they stand, and keeps
every other line.
When only the order of some entries' diagnostics changed on purpose,
re-record just that order with::

    PYTHONPATH=src:tests python tests/golden_corpus.py --order "double 71" ...

Each name is an entry's ID or its leading words; the script refuses an
entry whose ``ok`` flag, output or multiset of diagnostics changed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import sys
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


# Seed encounters in document order (date order, unlike ID order) and the
# seed's links: causedBy E1 -> E0, hasFollowup E2 -> E3, next E1 -> E2.
E0, E1, E2, E3 = (
    "Encounter-GeneralMedicine-20210105",
    "Encounter-Pulmonology-20210315",
    "Encounter-Allergy-20210725",
    "Encounter-AllergyFollowUp-20220418",
)


def _set(path: tuple, value):
    def edit(document):
        parent = document
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = copy.deepcopy(value)

    return edit


def _append(key: str, entry: dict):
    return lambda document: document[key].append(copy.deepcopy(entry))


def _copy_entry(key: str, index: int, **changes):
    return lambda document: document[key].append({**document[key][index], **changes})


def _rename_encounter(index: int, new_id: str):
    """Rename an encounter and every link endpoint naming it."""

    def edit(document):
        old_id = document["encounters"][index]["encounterID"]
        document["encounters"][index]["encounterID"] = new_id
        for link in document["links"]:
            for end in ("from", "to"):
                if link[end] == old_id:
                    link[end] = new_id

    return edit


_SAME_DAY = _set(("encounters", 2, "date"), "2021-03-15")
_CYCLE = [_SAME_DAY, _append("links", {"kind": "next", "from": E2, "to": E1})]
_SELF_LINK = _set(("links", 1, "to"), E2)
_DANGLING = _set(("links", 0, "from"), "Encounter-Ghost")
_TEMPORAL = _set(("links", 2), {"kind": "next", "from": E2, "to": E1})

JOIN_EDITS = {
    "duplicate provider id": [_set(("providers", 2, "providerID"), "Provider-Allergy")],
    "duplicate unused provider id": [_copy_entry("providers", 0, providerName="Dr. Two")],
    "duplicate encounter id": [_copy_entry("encounters", 0, date="2021-02-01")],
    "duplicate encounter id named by links": [
        _set(("encounters", 3, "encounterID"), E0)
    ],
    "duplicate encounter id with its own faults": [
        _copy_entry("encounters", 1, date="1970-01-01", providerRef="Provider-Ghost")
    ],
    "unknown provider": [_set(("encounters", 1, "providerRef"), "Provider-Ghost")],
    "unknown providers out of id order": [
        _set(("encounters", 0, "providerRef"), "Provider-Ghost"),
        _set(("encounters", 2, "providerRef"), "Provider-Ghost"),
    ],
    "encounter before birth": [_set(("encounters", 0, "date"), "1970-01-01")],
    "encounter before birth with unknown provider": [
        _set(("encounters", 3, "date"), "1981-07-13"),
        _set(("encounters", 3, "providerRef"), "Provider-Ghost"),
    ],
    "missing from": [_DANGLING],
    "missing to": [_set(("links", 1, "to"), "Encounter-Ghost")],
    "missing both": [
        _set(("links", 2, "from"), "Encounter-Ghost-A"),
        _set(("links", 2, "to"), "Encounter-Ghost-B"),
    ],
    "missing both same id": [
        _set(("links", 2, "from"), "Encounter-Ghost"),
        _set(("links", 2, "to"), "Encounter-Ghost"),
    ],
    "self-link": [_SELF_LINK],
    "self-link causedBy": [_set(("links", 0, "to"), E1)],
    "temporal next": [_TEMPORAL],
    "temporal hasFollowup": [_set(("links", 1), {"kind": "hasFollowup", "from": E3, "to": E2})],
    "temporal causedBy": [_set(("links", 0), {"kind": "causedBy", "from": E0, "to": E1})],
    "duplicate link": [_copy_entry("links", 1)],
    "duplicate link with another via": [_copy_entry("links", 0, via="Diagnosis-Other")],
    "cycle": _CYCLE,
    "cycle through causedBy": [
        _SAME_DAY,
        _append("links", {"kind": "causedBy", "from": E1, "to": E2}),
    ],
    "self-link + cycle": [*_CYCLE, _SELF_LINK],
    "dangling + temporal": [_DANGLING, _TEMPORAL],
    "dangling + self-link": [
        _set(("links", 1, "from"), "Encounter-Ghost"),
        _set(("links", 1, "to"), "Encounter-Ghost"),
        _SELF_LINK,
    ],
    "temporal + duplicate": [_TEMPORAL, _copy_entry("links", 2)],
    "unknown provider + cycle": [
        _set(("encounters", 1, "providerRef"), "Provider-Ghost"),
        *_CYCLE,
    ],
    "duplicate provider id + dangling": [
        _copy_entry("providers", 1),
        _DANGLING,
    ],
    "hostile encounter id": [
        _rename_encounter(0, "E].providerRef"),
        _set(("encounters", 0, "date"), "1970-01-01"),
        _set(("encounters", 0, "providerRef"), "Provider-Ghost"),
        _set(("links", 0, "via"), "E].date"),
    ],
    "dotted encounter id": [
        _rename_encounter(1, "Enc.1"),
        _set(("encounters", 1, "providerRef"), "Provider-Ghost"),
        _set(("links", 1, "to"), "Enc.1"),
    ],
    "unresolved via": [_set(("links", 0, "via"), "CarePlan-Ghost")],
    "journey gap": [lambda document: document["links"].pop(2)],
    "field error hides join errors": [
        _set(("encounters", 0, "specialty"), ""),
        _DANGLING,
        _SELF_LINK,
    ],
}


def join_cases():
    seed = json.loads(john_doe_bundle())
    for name, edits in JOIN_EDITS.items():
        document = copy.deepcopy(seed)
        for edit in edits:
            edit(document)
        yield f"join {name}", json.dumps(document, indent=2)


CASE_KINDS = {
    "single": single_cases,
    "double": double_cases,
    "journey": journey_cases,
    "join": join_cases,
}


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


def generate(kinds) -> list[dict]:
    return [outcome(name, text) for kind in kinds for name, text in CASE_KINDS[kind]()]


def load() -> dict[str, dict]:
    with CORPUS_PATH.open(encoding="utf-8") as source:
        entries = [json.loads(line) for line in source]
    return {entry["id"]: entry for entry in entries}


def _write(entries) -> None:
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    with CORPUS_PATH.open("w", encoding="utf-8") as out:
        for entry in entries:
            out.write(json.dumps(entry, ensure_ascii=False, sort_keys=True) + "\n")


def reorder(names: list[str]) -> None:
    """Re-record the diagnostic order of the named entries, nothing else."""
    recorded = load()
    texts = {name: text for kind in CASE_KINDS.values() for name, text in kind()}
    for name in names:
        [entry_id] = [i for i in recorded if i == name or i.startswith(f"{name} ")]
        entry, actual = recorded[entry_id], outcome(entry_id, texts[entry_id])
        assert {k: v for k, v in actual.items() if k != "diagnostics"} == {
            k: v for k, v in entry.items() if k != "diagnostics"
        }, entry_id
        assert sorted(actual["diagnostics"]) == sorted(entry["diagnostics"]), entry_id
        recorded[entry_id] = actual
    _write(recorded.values())


def main(kinds: list[str]) -> None:
    """Re-record the entries of ``kinds``, or of every kind.  A kind's
    entries take the place of its first recorded one, so re-recording an
    unchanged kind leaves the corpus as it is; a new kind goes last."""
    fresh: dict[str, list[dict]] = {}
    for entry in generate(kinds or list(CASE_KINDS)):
        fresh.setdefault(entry["id"].split(" ", 1)[0], []).append(entry)
    entries = []
    for entry in load().values() if kinds else ():
        kind = entry["id"].split(" ", 1)[0]
        entries += fresh.pop(kind, []) if kind in kinds else [entry]
    _write(entries + [entry for group in fresh.values() for entry in group])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--order"]:
        reorder(sys.argv[2:])
    else:
        main(sys.argv[1:])
