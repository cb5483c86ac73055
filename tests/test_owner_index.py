"""The graph's owner index against scan oracles, under every kind of write.

``JourneyGraph`` answers ``encounters_of``, ``edges_of``, ``intake_form_of``
and ``link`` from a per-patient index of ``encounter_owner``,
``intake_form_owner`` and ``edges``.  The index must stay exact whatever
writes the graph: its own API, direct writes through every mutating method
of those containers, replaced containers, deep copies, and writes to the
containers and record fields the index never reads.  After every step each
lookup must equal the plain scans in ``scan_oracles``.
"""

from __future__ import annotations

import copy
import pickle
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pjo import (
    EdgeKind,
    Encounter,
    IntakeForm,
    JourneyEdge,
    JourneyGraph,
    MedicalHistory,
    Patient,
    Provider,
    SocialHistory,
)
from pjo.errors import CycleIntroducedError, PjoError
from pjo.graph import CountedDict, CountedList
from pjo.queries import cause_trace, followup_chain, timeline
from scan_oracles import (
    add_intake_form_by_scan,
    cause_trace_by_scan,
    checked_link,
    edges_of_by_scan,
    encounters_by_owner_by_scan,
    encounters_of_by_scan,
    followup_chain_by_scan,
    intake_form_of_by_scan,
    timeline_by_scan,
)

START = date(2022, 3, 1)
PATIENTS = ["P0", "P1", "P2", "P3"]
OWNERS = PATIENTS + ["Ghost"]
ENCOUNTERS = [f"E{n}" for n in range(9)]
FORMS = ["F0", "F1", "F2"]
PROVIDER = "Provider-1"
# Every mutating method of dict and list, named here rather than read from
# the graph module so that one it leaves uncounted still gets called.
DICT_WRITES = (
    "__init__", "__setitem__", "__delitem__", "__ior__",
    "clear", "pop", "popitem", "setdefault", "update",
)  # fmt: skip
LIST_WRITES = (
    "__init__", "__setitem__", "__delitem__", "__iadd__", "__imul__",
    "append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
)  # fmt: skip


def _outcome(call):
    try:
        return ("returned", call())
    except PjoError as exc:
        return (type(exc), str(exc))


def _identities(outcome):
    """An outcome with each returned record replaced by its identity."""
    kind, value = outcome
    if kind != "returned" or value is None:
        return outcome
    if isinstance(value, list):
        return kind, [id(item) for item in value]
    return kind, id(value)


def _form(form_id: str) -> IntakeForm:
    return IntakeForm(form_id, MedicalHistory(), SocialHistory("Never smoker", "None"))


def _encounter(key: str, day: int) -> Encounter:
    return Encounter(key, START + timedelta(days=day), "Allergy", PROVIDER)


def start_graph(stray: bool = False) -> JourneyGraph:
    """Three patients, two with intake forms, owning E0-E5 over three days
    and linked through the API; E6-E8 are left for later writes.  With
    ``stray``, written directly: E6 is stored without an owner, the missing
    E7 and intake form F2 are owned by P1 and P2, and a stored link runs
    from E5 to E8, which is neither stored nor owned."""
    graph = JourneyGraph()
    graph.add_provider(Provider(PROVIDER, "Dr. Ada Lane"))
    for patient_id in PATIENTS[:3]:
        graph.add_patient(Patient(patient_id, f"Name {patient_id}", date(1970, 1, 1)))
    graph.add_intake_form("P0", _form("F0"))
    graph.add_intake_form("P1", _form("F1"))
    for key, patient_id, day in [
        ("E0", "P0", 0), ("E1", "P0", 1), ("E2", "P0", 1),
        ("E3", "P1", 0), ("E4", "P1", 2), ("E5", "P2", 2),
    ]:  # fmt: skip
        graph.add_encounter(patient_id, _encounter(key, day))
    graph.link(EdgeKind.NEXT, "E0", "E1")
    graph.link(EdgeKind.HAS_FOLLOWUP, "E1", "E2")
    graph.link(EdgeKind.CAUSED_BY, "E2", "E0")
    graph.link(EdgeKind.NEXT, "E3", "E4")
    if stray:
        graph.encounters["E6"] = _encounter("E6", 2)
        graph.encounter_owner["E7"] = "P1"
        graph.intake_form_owner["F2"] = "P2"
        graph.edges.append(JourneyEdge(EdgeKind.NEXT, "E5", "E8"))
    return graph


def assert_lookups_match_the_scans(graph: JourneyGraph) -> None:
    for patient_id in OWNERS:
        for indexed, scan in (
            (graph.encounters_of, encounters_of_by_scan),
            (graph.edges_of, edges_of_by_scan),
            (graph.intake_form_of, intake_form_of_by_scan),
        ):
            expected = _identities(_outcome(lambda: scan(graph, patient_id)))
            assert _identities(_outcome(lambda: indexed(patient_id))) == expected
        expected = _outcome(lambda: timeline_by_scan(graph, patient_id))
        assert _outcome(lambda: timeline(graph, patient_id)) == expected
    if graph.check_invariants().ok:
        # The chain queries read only the owner's links, which on a graph
        # the checker accepts are all the links a walk can take.
        for key in ENCOUNTERS:
            for query, scan in (
                (followup_chain, followup_chain_by_scan),
                (cause_trace, cause_trace_by_scan),
            ):
                expected = _identities(_outcome(lambda: scan(graph, key)))
                assert _identities(_outcome(lambda: query(graph, key))) == expected
    groups = {owner: [id(e) for e in group] for owner, group in graph.encounters_by_owner().items()}
    expected = {
        owner: [id(e) for e in group]
        for owner, group in encounters_by_owner_by_scan(graph).items()
        if group
    }
    assert groups == expected


# -- steps -----------------------------------------------------------------

kinds = st.sampled_from(list(EdgeKind))
encounter_keys = st.sampled_from(ENCOUNTERS)
edges = st.builds(JourneyEdge, kinds, encounter_keys, encounter_keys)
days = st.integers(0, 2)


def api_write(graph: JourneyGraph, data) -> JourneyGraph:
    action = data.draw(
        st.sampled_from(["add_patient", "add_intake_form", "add_encounter", "link", "link"]),
        label="api",
    )
    if action == "add_patient":
        patient_id = data.draw(st.sampled_from(PATIENTS), label="patient")
        _outcome(lambda: graph.add_patient(Patient(patient_id, "Name", date(1970, 1, 1))))
    elif action == "add_intake_form":
        patient_id = data.draw(st.sampled_from(OWNERS), label="patient")
        form = _form(data.draw(st.sampled_from(FORMS), label="form"))
        expected = _outcome(lambda: add_intake_form_by_scan(graph, patient_id, form))
        assert _outcome(lambda: graph.add_intake_form(patient_id, form)) == expected
    elif action == "add_encounter":
        patient_id = data.draw(st.sampled_from(OWNERS), label="patient")
        encounter = _encounter(data.draw(encounter_keys, label="key"), data.draw(days, label="day"))
        _outcome(lambda: graph.add_encounter(patient_id, encounter))
    else:
        edge = data.draw(edges, label="link")
        expected = _outcome(lambda: checked_link(graph, edge, whole_graph=False))
        if graph.check_invariants().ok:
            # The documented scope refuses exactly what whole-graph Kahn does.
            assert _outcome(lambda: checked_link(graph, edge)) == expected
        before = list(graph.edges)
        actual = _outcome(lambda: graph.link(edge.kind, edge.from_encounter, edge.to_encounter))
        assert actual == expected
        assert graph.edges == (before + [edge] if actual[0] == "returned" else before)
    return graph


def _dict_write(container: dict, method: str, keys, data) -> None:
    owners = st.sampled_from(OWNERS)
    if method == "__setitem__":
        container[data.draw(keys, label="key")] = data.draw(owners, label="owner")
    elif method in ("__delitem__", "pop"):
        key = data.draw(keys, label="key")
        if key in container:
            getattr(container, method)(key)
    elif method == "popitem":
        if container:
            container.popitem()
    elif method == "clear":
        container.clear()
    elif method == "setdefault":
        container.setdefault(data.draw(keys, label="key"), data.draw(owners, label="owner"))
    else:  # update, __ior__, __init__: merge a small mapping
        merged = data.draw(st.dictionaries(keys, owners, max_size=3), label="merged")
        if method == "__ior__":
            container |= merged
        else:
            getattr(container, method)(merged)


def _list_write(container: list, method: str, data) -> None:
    more = st.lists(edges, max_size=3)
    if method in ("__setitem__", "__delitem__", "pop", "insert", "remove") and not container:
        container.append(data.draw(edges, label="edge"))
        return
    position = st.integers(0, max(len(container) - 1, 0))
    if method == "__setitem__":
        if data.draw(st.booleans(), label="slice"):
            start = data.draw(position, label="start")
            container[start : start + 2] = data.draw(more, label="edges")
        else:
            container[data.draw(position, label="at")] = data.draw(edges, label="edge")
    elif method in ("__delitem__", "pop"):
        at = data.draw(position, label="at")
        if method == "pop":
            container.pop(at)
        else:
            del container[at]
    elif method == "insert":
        container.insert(data.draw(position, label="at"), data.draw(edges, label="edge"))
    elif method == "remove":
        container.remove(container[data.draw(position, label="at")])
    elif method == "append":
        container.append(data.draw(edges, label="edge"))
    elif method in ("extend", "__iadd__", "__init__"):
        added = data.draw(more, label="edges")
        if method == "__iadd__":
            container += added
        else:
            getattr(container, method)(added)
    elif method == "__imul__":
        container *= data.draw(st.integers(0, 2), label="times")
    elif method == "sort":
        container.sort(key=lambda e: (e.to_encounter, e.kind.value), reverse=data.draw(st.booleans()))
    else:  # clear, reverse
        getattr(container, method)()


# One call of one mutating method on one of the three counted containers.
CONTAINER_WRITES = [
    *(("encounter_owner", method) for method in DICT_WRITES),
    *(("intake_form_owner", method) for method in DICT_WRITES),
    *(("edges", method) for method in LIST_WRITES),
]


def container_write(graph: JourneyGraph, target: str, method: str, data) -> None:
    if target == "edges":
        _list_write(graph.edges, method, data)
    elif target == "encounter_owner":
        _dict_write(graph.encounter_owner, method, encounter_keys, data)
    else:
        _dict_write(graph.intake_form_owner, method, st.sampled_from(FORMS), data)


def direct_write(graph: JourneyGraph, data) -> JourneyGraph:
    target = data.draw(st.sampled_from(["container", "replace", "copy", "uncounted"]))
    if target == "container":
        container_write(graph, *data.draw(st.sampled_from(CONTAINER_WRITES)), data)
    elif target == "replace":
        name = data.draw(st.sampled_from(["encounter_owner", "intake_form_owner", "edges"]))
        plain = list if name == "edges" else dict
        if data.draw(st.booleans(), label="unchanged copy"):
            setattr(graph, name, plain(getattr(graph, name)))
        elif name == "edges":
            graph.edges = data.draw(st.lists(edges, max_size=6), label="edges")
        else:
            owners = st.dictionaries(st.sampled_from(ENCOUNTERS + FORMS), st.sampled_from(OWNERS))
            setattr(graph, name, data.draw(owners, label="owners"))
    elif target == "copy":
        if data.draw(st.booleans(), label="deepcopy"):
            graph = copy.deepcopy(graph)
        else:
            graph = pickle.loads(pickle.dumps(graph))
    else:
        _uncounted_write(graph, data)
    return graph


def _uncounted_write(graph: JourneyGraph, data) -> None:
    """Writes the index does not follow: it must not depend on them."""
    key = data.draw(encounter_keys, label="key")
    action = data.draw(
        st.sampled_from(["store", "delete", "redate", "rename", "form", "patient"]), label="write"
    )
    if action == "store":
        graph.encounters[key] = _encounter(key, data.draw(days, label="day"))
    elif action == "delete":
        graph.encounters.pop(key, None)
    elif action in ("redate", "rename") and key in graph.encounters:
        if action == "redate":
            graph.encounters[key].date = START + timedelta(days=data.draw(days, label="day"))
        else:
            graph.encounters[key].encounter_id = data.draw(encounter_keys, label="id")
    elif action == "form":
        form_id = data.draw(st.sampled_from(FORMS), label="form")
        if graph.intake_forms.pop(form_id, None) is None:
            graph.intake_forms[form_id] = _form(form_id)
    elif action == "patient":
        patient_id = data.draw(st.sampled_from(PATIENTS), label="patient")
        if graph.patients.pop(patient_id, None) is None:
            graph.patients[patient_id] = Patient(patient_id, "Name", date(1970, 1, 1))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_index_matches_the_scans_after_every_write(data):
    graph = start_graph(stray=data.draw(st.booleans(), label="stray"))
    assert_lookups_match_the_scans(graph)
    for _ in range(data.draw(st.integers(1, 30), label="steps")):
        graph = data.draw(st.sampled_from([api_write, direct_write]), label="step")(graph, data)
        assert_lookups_match_the_scans(graph)


@pytest.mark.parametrize("target, method", CONTAINER_WRITES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_each_container_write_keeps_the_index_exact(target, method, data):
    """Every mutating method, interleaved with API writes that update the
    index in place."""
    graph = start_graph(stray=data.draw(st.booleans(), label="stray"))
    for _ in range(data.draw(st.integers(1, 10), label="steps")):
        if data.draw(st.booleans(), label="api"):
            graph = api_write(graph, data)
        else:
            container_write(graph, target, method, data)
        assert_lookups_match_the_scans(graph)


# -- pinned cases ------------------------------------------------------------


@pytest.mark.parametrize(
    "container, writes", [(CountedDict, DICT_WRITES), (CountedList, LIST_WRITES)]
)
def test_every_mutating_method_is_counted(container, writes):
    assert set(container.MUTATORS) == set(writes)
    for name in writes:
        assert getattr(container, name) is not getattr(container.__base__, name)


def test_direct_writes_are_counted():
    owners = CountedDict({"E1": "P1"})
    links = CountedList()
    writes = owners.writes, links.writes
    owners["E2"] = "P1"
    owners |= {"E3": "P2"}
    del owners["E1"]
    links.append(JourneyEdge(EdgeKind.NEXT, "E2", "E3"))
    links += [JourneyEdge(EdgeKind.NEXT, "E3", "E2")]
    links.sort(key=lambda e: e.from_encounter)
    assert (owners.writes, links.writes) == (writes[0] + 3, writes[1] + 3)


def test_plain_containers_are_stored_as_counted_copies():
    plain_links: list[JourneyEdge] = []
    graph = JourneyGraph(encounter_owner={"E1": "P1"}, edges=plain_links)
    assert type(graph.encounter_owner) is CountedDict
    assert type(graph.intake_form_owner) is CountedDict
    assert type(graph.edges) is CountedList
    assert graph.edges is not plain_links
    graph.edges = plain_links
    assert type(graph.edges) is CountedList and graph.edges is not plain_links
    counted = CountedList()
    graph.edges = counted
    assert graph.edges is counted


def test_records_have_no_instance_dict():
    graph = start_graph()
    records = [graph.patients["P0"], graph.providers[PROVIDER], graph.encounters["E1"]]
    records += [graph.intake_forms["F0"], graph.edges[0]]
    assert not any(hasattr(record, "__dict__") for record in records)


def test_edges_of_returns_a_copy():
    graph = start_graph()
    before = graph.edges_of("P0")
    links = graph.edges_of("P0")
    links.reverse()
    links.pop()
    assert len(before) == 3 and graph.edges_of("P0") == before


def test_link_updates_the_index_in_place():
    graph = start_graph()
    graph.add_encounter("P2", _encounter("E6", 2))
    index = graph._index
    edge = graph.link(EdgeKind.NEXT, "E5", "E6")
    assert graph._index is index and index.matches(graph)
    assert graph.edges_of("P2") == [edge]


class TestWritesThroughTheAPIOverStrayEntries:
    """``add_encounter`` and ``add_intake_form`` over entries written
    directly: the index is rebuilt, not updated in place, where the write
    moves an ownership entry or a stored link between patients."""

    def test_encounter_over_a_stray_ownership_entry(self):
        graph = start_graph(stray=True)
        assert graph.encounters_of("P1")[-1].encounter_id == "E4"
        graph.add_encounter("P0", _encounter("E7", 2))
        assert [e.encounter_id for e in graph.encounters_of("P1")] == ["E3", "E4"]
        assert graph.encounters_of("P0")[-1].encounter_id == "E7"
        assert_lookups_match_the_scans(graph)

    def test_encounter_named_by_a_stored_link(self):
        graph = start_graph(stray=True)
        assert graph.edges_of("P2") == []
        graph.add_encounter("P2", _encounter("E8", 2))
        assert graph.edges_of("P2") == [JourneyEdge(EdgeKind.NEXT, "E5", "E8")]
        assert_lookups_match_the_scans(graph)

    def test_intake_form_over_a_stray_ownership_entry(self):
        graph = start_graph(stray=True)
        graph.add_patient(Patient("P3", "Name P3", date(1970, 1, 1)))
        graph.add_intake_form("P3", _form("F2"))
        assert graph.intake_form_of("P3") is graph.intake_forms["F2"]
        graph.add_intake_form("P2", _form("F3"))
        assert_lookups_match_the_scans(graph)


class TestLinkScopeOnGraphsTheCheckerRejects:
    """``link()`` checks cycles among the owner's links of one day; a cycle
    that needs a stored link across patients or against the dates is not
    seen, where whole-graph Kahn sees it.  Both graphs are rejected by
    ``check_invariants``."""

    def test_cycle_through_a_cross_patient_link(self):
        graph = start_graph()
        for patient_id, key in (("P0", "A"), ("P0", "B"), ("P1", "C")):
            graph.add_encounter(patient_id, _encounter(key, 0))
        graph.edges += [
            JourneyEdge(EdgeKind.NEXT, "B", "C"),
            JourneyEdge(EdgeKind.NEXT, "C", "A"),
        ]
        assert not graph.check_invariants().ok
        edge = JourneyEdge(EdgeKind.NEXT, "A", "B")
        with pytest.raises(CycleIntroducedError):
            checked_link(graph, edge)
        assert graph.link(EdgeKind.NEXT, "A", "B") == edge

    def test_cycle_through_a_link_against_the_dates(self):
        graph = start_graph()
        graph.add_encounter("P0", _encounter("A", 0))
        graph.add_encounter("P0", _encounter("B", 1))
        graph.edges.append(JourneyEdge(EdgeKind.NEXT, "B", "A"))
        assert not graph.check_invariants().ok
        edge = JourneyEdge(EdgeKind.NEXT, "A", "B")
        with pytest.raises(CycleIntroducedError):
            checked_link(graph, edge)
        assert graph.link(EdgeKind.NEXT, "A", "B") == edge
