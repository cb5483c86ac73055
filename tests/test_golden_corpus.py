"""The parser's outcomes on the golden corpus stay as recorded.

``ok`` flags, re-serialized bytes and diagnostics, in report order, must
match exactly.  See ``golden_corpus.py`` for the inputs and how to
regenerate the record.
"""

import pytest

from golden_corpus import CASE_KINDS, load, outcome


@pytest.fixture(scope="module")
def recorded():
    return load()


@pytest.mark.parametrize("kind", sorted(CASE_KINDS))
def test_outcomes_match_the_recorded_corpus(kind, recorded):
    mismatches = []
    seen = 0
    for name, text in CASE_KINDS[kind]():
        seen += 1
        expected = recorded.get(name)
        actual = outcome(name, text)
        if expected is None:
            mismatches.append(f"{name}: not in the recorded corpus")
            continue
        if actual["input"] != expected["input"]:
            mismatches.append(f"{name}: generated input changed")
            continue
        if actual["ok"] != expected["ok"] or actual.get("output") != expected.get("output"):
            mismatches.append(f"{name}: ok/output {actual['ok']} != {expected['ok']}")
        if actual["diagnostics"] != expected["diagnostics"]:
            mismatches.append(
                f"{name}: diagnostics {actual['diagnostics']} != {expected['diagnostics']}"
            )
    assert seen == sum(1 for name in recorded if name.startswith(f"{kind} "))
    assert mismatches == []
