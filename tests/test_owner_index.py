"""The graph's owner index against scan oracles, under every kind of write.

``JourneyGraph`` answers ``encounters_of``, ``edges_of``, ``intake_form_of``
and ``link`` from a per-patient index of ``encounter_owner``,
``intake_form_owner`` and ``edges``.  The index must stay exact whatever
writes the graph: its own API, direct writes through every mutating method
of those containers, replaced containers, deep copies, and writes to the
containers and record fields the index never reads.  After every step each
lookup, and the checker's report, must equal the plain scans in
``scan_oracles``.  The index also remembers each patient's date order, which
a read checks against the records: every patient is read twice, and the
uncounted writes redate encounters in every way that check must follow.

The index is also cheap to keep: building a graph through the API builds it
once, and one direct write costs one rebuild.  The API's own writes are
counted all the same, so a shallow copy, which holds the same containers,
sees them.
"""

from __future__ import annotations

import copy
import pickle
import random
from datetime import date, datetime, time, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from journeygen import random_journey
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
    john_doe_graph,
    parse_bundle,
    serialize_bundle,
    to_dot,
)
from pjo import graph as graph_module
from pjo.errors import CycleIntroducedError, DuplicateEdgeError, FieldInvalidError, PjoError
from pjo.graph import CountedDict, CountedList
from pjo.queries import cause_trace, find_encounters, followup_chain, timeline
from pjo.records import KIND_TEXT
from pjo.seed import john_doe_bundle
from scan_oracles import (
    add_encounter_by_rules,
    admit_by_rules,
    add_intake_form_by_scan,
    assert_checker_matches_the_scans,
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
    # Each patient read twice: the second read checks the date order the
    # first one remembered.
    for patient_id in OWNERS * 2:
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
    groups = _outcome(lambda: _group_identities(graph.encounters_by_owner()))
    expected = _outcome(lambda: _group_identities(encounters_by_owner_by_scan(graph)))
    assert groups == expected
    # Stray and dangling ownership entries, links across patients, against
    # the dates or to missing encounters: the report, in order.
    assert_checker_matches_the_scans(graph)


def _group_identities(groups: dict) -> dict:
    return {owner: [id(e) for e in group] for owner, group in groups.items() if group}


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
        patient = Patient(patient_id, "Name", date(1970, 1, 1))
        expected = _outcome(lambda: admit_by_rules(graph, patient, "patients"))
        assert _outcome(lambda: graph.add_patient(patient)) == _stored(expected)
        if expected[0] == "returned":
            assert graph.patients[expected[1]] is patient
    elif action == "add_intake_form":
        patient_id = data.draw(st.sampled_from(OWNERS), label="patient")
        form = _form(data.draw(st.sampled_from(FORMS), label="form"))
        expected = _outcome(lambda: add_intake_form_by_scan(graph, patient_id, form))
        assert _outcome(lambda: graph.add_intake_form(patient_id, form)) == expected
    elif action == "add_encounter":
        patient_id = data.draw(st.sampled_from(OWNERS), label="patient")
        encounter = _encounter(data.draw(encounter_keys, label="key"), data.draw(days, label="day"))
        expected = _outcome(lambda: add_encounter_by_rules(graph, patient_id, encounter))
        assert _outcome(lambda: graph.add_encounter(patient_id, encounter)) == _stored(expected)
        if expected[0] == "returned":
            key = expected[1]
            assert graph.encounters[key] is encounter and graph.encounter_owner[key] == patient_id
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


def _stored(expected):
    """The outcome of an ``add_*`` call whose oracle had ``expected``: it
    returns None where the oracle returns the key."""
    return ("returned", None) if expected[0] == "returned" else expected


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


# Writes to an encounter's date, or to the record under its key, after which
# a read through a remembered date order must still equal a fresh sort.
REDATES = ("redate", "equal date", "datetime", "string date", "swap dates", "copy")


def _redate(graph: JourneyGraph, key: str, action: str, data) -> None:
    encounter = graph.encounters[key]
    day = data.draw(days, label="day")
    if action == "redate":
        encounter.date = START + timedelta(days=day)
    elif action == "equal date":  # a new object, equal to the one it replaces
        if encounter.date.__class__ is date:
            encounter.date = date.fromordinal(encounter.date.toordinal())
    elif action == "datetime":
        encounter.date = datetime.combine(START + timedelta(days=day), time())
    elif action == "string date":
        encounter.date = (START + timedelta(days=day)).isoformat()
    elif action == "swap dates":
        other = graph.encounters.get(data.draw(encounter_keys, label="other"))
        if other is not None:
            encounter.date, other.date = other.date, encounter.date
    else:  # a copy under the key, holding the very same date object
        graph.encounters[key] = copy.copy(encounter)
        assert graph.encounters[key].date is encounter.date


def _uncounted_write(graph: JourneyGraph, data) -> None:
    """Writes the index does not follow: it must not depend on them."""
    key = data.draw(encounter_keys, label="key")
    action = data.draw(
        st.sampled_from(["store", "delete", *REDATES, "rename", "form", "patient", "birth",
                         "provider"]), label="write"
    )  # fmt: skip
    if action == "store":
        graph.encounters[key] = _encounter(key, data.draw(days, label="day"))
    elif action == "delete":
        graph.encounters.pop(key, None)
    elif action in REDATES and key in graph.encounters:
        _redate(graph, key, action, data)
    elif action == "rename" and key in graph.encounters:
        graph.encounters[key].encounter_id = data.draw(encounter_keys, label="id")
    elif action == "form":
        form_id = data.draw(st.sampled_from(FORMS), label="form")
        if graph.intake_forms.pop(form_id, None) is None:
            graph.intake_forms[form_id] = _form(form_id)
    elif action == "patient":
        patient_id = data.draw(st.sampled_from(PATIENTS), label="patient")
        if graph.patients.pop(patient_id, None) is None:
            graph.patients[patient_id] = Patient(patient_id, "Name", date(1970, 1, 1))
    elif action == "birth":  # a birth date after some encounters, or not a date
        patient = graph.patients.get(data.draw(st.sampled_from(PATIENTS), label="patient"))
        if patient is not None:
            born = START + timedelta(days=data.draw(days, label="day"))
            births = [born, datetime.combine(born, time()), born.isoformat()]
            patient.birth_date = data.draw(st.sampled_from(births), label="birth")
    elif action == "provider":  # the provider every encounter names, deleted or put back
        if graph.providers.pop(PROVIDER, None) is None:
            graph.providers[PROVIDER] = Provider(PROVIDER, "Dr. Ada Lane")


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
    entries = timeline(graph, "P0")
    links = graph.edges_of("P0")
    links.reverse()
    links.pop()
    assert len(before) == 3 and graph.edges_of("P0") == before
    assert timeline(graph, "P0") == entries


def test_the_reads_leave_the_stored_link_order():
    """``timeline``, the chain walks and the writer read the owner index's
    list, not a copy; none of them reorders it."""
    graph = start_graph()
    stored = graph._edges_of("P0")
    before = list(stored)
    assert [KIND_TEXT[edge.kind] for edge in before] == ["next", "hasFollowup", "causedBy"]
    timeline(graph, "P0")
    followup_chain(graph, "E1")
    cause_trace(graph, "E2")
    serialize_bundle(graph, "P0")
    to_dot(graph)
    assert graph._edges_of("P0") is stored and stored == before
    assert graph.edges_of("P0") == before == [e for e in graph.edges if e in before]


def test_link_updates_the_index_in_place():
    graph = start_graph()
    graph.add_encounter("P2", _encounter("E6", 2))
    index = graph._index
    edge = graph.link(EdgeKind.NEXT, "E5", "E6")
    assert graph._index is index and index.matches(graph)
    assert graph.edges_of("P2") == [edge]


# -- what keeping the index costs -------------------------------------------


@pytest.fixture
def builds(monkeypatch) -> list[int]:
    """``[n]``: the number of owner indexes built since the fixture was set up."""
    count = [0]

    class CountedIndex(graph_module._OwnerIndex):
        __slots__ = ()

        def __init__(self, graph: JourneyGraph) -> None:
            count[0] += 1
            super().__init__(graph)

    monkeypatch.setattr(graph_module, "_OwnerIndex", CountedIndex)
    return count


def _writes(graph: JourneyGraph) -> tuple[int, int, int]:
    return graph.encounter_owner.writes, graph.intake_form_owner.writes, graph.edges.writes


def _look_up_everything(graph: JourneyGraph) -> None:
    for patient_id in graph.patients:
        graph.encounters_of(patient_id)
        graph.edges_of(patient_id)
        graph.intake_form_of(patient_id)


def test_building_the_seed_graph_through_the_api_builds_the_index_once(builds):
    graph = john_doe_graph()
    _look_up_everything(graph)
    assert builds == [1]


def test_building_a_cohort_through_the_api_builds_the_index_once(builds):
    graph = random_journey(random.Random(26), min_patients=50, max_patients=50)
    _look_up_everything(graph)
    assert len(graph.patients) == 50 and len(graph.edges) > 50
    assert builds == [1]


def test_the_apis_own_writes_keep_the_index_and_are_counted(builds):
    """After every ``add_*`` and ``link`` the index matches, and each write
    to a container moved that container's count by one."""
    graph = JourneyGraph()
    graph.add_provider(Provider(PROVIDER, "Dr. Ada Lane"))
    graph.add_patient(Patient("P0", "Name P0", date(1970, 1, 1)))
    graph.encounters_of("P0")  # builds the index
    writes = [  # each with the counts it moves: owners, form owners, links
        (lambda: graph.add_patient(Patient("P1", "Name P1", date(1970, 1, 1))), (0, 0, 0)),
        (lambda: graph.add_intake_form("P0", _form("F0")), (0, 1, 0)),
        (lambda: graph.add_intake_form("P1", _form("F1")), (0, 1, 0)),
        (lambda: graph.add_encounter("P0", _encounter("E0", 0)), (1, 0, 0)),
        (lambda: graph.add_encounter("P0", _encounter("E1", 1)), (1, 0, 0)),
        (lambda: graph.add_encounter("P1", _encounter("E2", 1)), (1, 0, 0)),
        (lambda: graph.add_encounter("P0", _encounter("E3", 1)), (1, 0, 0)),
        (lambda: graph.link(EdgeKind.NEXT, "E0", "E1"), (0, 0, 1)),
        (lambda: graph.link(EdgeKind.HAS_FOLLOWUP, "E1", "E3"), (0, 0, 1)),
        (lambda: graph.link(EdgeKind.CAUSED_BY, "E3", "E0"), (0, 0, 1)),
    ]
    for write, moved in writes:
        counts = _writes(graph)
        write()
        assert graph._index.matches(graph)
        assert _writes(graph) == tuple(n + m for n, m in zip(counts, moved))
    assert len(graph.encounter_owner) == 4 and len(graph.intake_form_owner) == 2
    assert len(graph.edges) == 3
    assert_lookups_match_the_scans(graph)
    assert builds == [1]


def test_a_shallow_copy_sees_the_api_writes_of_the_graph_it_copies():
    """A shallow copy holds the very containers of the graph it copies, and
    keeps its own index of them: that index must see the other graph's
    writes, though the writing graph updates its own in place."""
    graph = start_graph()
    other = copy.copy(graph)
    assert other.edges is graph.edges and other.encounter_owner is graph.encounter_owner
    assert_lookups_match_the_scans(other)  # builds the copy's index
    graph.add_encounter("P1", _encounter("E6", 2))
    graph.add_intake_form("P2", _form("F2"))
    edge = graph.link(EdgeKind.NEXT, "E4", "E6")
    assert_lookups_match_the_scans(other)
    assert other.edges_of("P1") == [graph.edges[3], edge]
    with pytest.raises(DuplicateEdgeError):
        other.link(EdgeKind.NEXT, "E4", "E6")
    other.link(EdgeKind.HAS_FOLLOWUP, "E0", "E2")
    assert_lookups_match_the_scans(graph)
    assert len(graph.edges_of("P0")) == 4


def shared_write(graph: JourneyGraph, data) -> JourneyGraph:
    """An API write, or one call of a mutating method on a container: never
    one that gives the graph containers of its own."""
    if data.draw(st.booleans(), label="api"):
        return api_write(graph, data)
    container_write(graph, *data.draw(st.sampled_from(CONTAINER_WRITES)), data)
    return graph


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_graphs_sharing_containers_see_each_others_writes(data):
    graphs = [start_graph(stray=data.draw(st.booleans(), label="stray"))]
    graphs.append(copy.copy(graphs[0]))
    for _ in range(data.draw(st.integers(1, 20), label="steps")):
        graph = data.draw(st.sampled_from(graphs), label="graph")
        shared_write(graph, data)
        for graph in graphs:
            assert_lookups_match_the_scans(graph)


@pytest.mark.parametrize(
    "write",
    [
        lambda graph: graph.edges.append(JourneyEdge(EdgeKind.NEXT, "E4", "E5")),
        lambda graph: graph.encounter_owner.__setitem__("E5", "P1"),
        lambda graph: graph.encounter_owner.__delitem__("E2"),
    ],
    ids=["append a link", "set an owner", "delete an owner"],
)
def test_one_direct_write_costs_one_rebuild(builds, write):
    graph = start_graph()
    _look_up_everything(graph)
    built, counts = builds[0], _writes(graph)
    write(graph)
    assert _writes(graph) != counts
    _look_up_everything(graph)
    _look_up_everything(graph)
    assert builds[0] == built + 1
    assert_lookups_match_the_scans(graph)


class TestAPIWritesTheIndexCannotFollow:
    """An API write that the index does not take in place is counted, so the
    next lookup rebuilds the index, once."""

    def _rebuilt_once_after(self, builds, graph: JourneyGraph, write) -> None:
        _look_up_everything(graph)
        built, counts = builds[0], _writes(graph)
        write()
        assert _writes(graph) != counts
        _look_up_everything(graph)
        _look_up_everything(graph)
        assert builds[0] == built + 1
        assert_lookups_match_the_scans(graph)

    def test_an_encounter_added_to_a_stale_index(self, builds):
        graph = start_graph()
        _look_up_everything(graph)
        built = builds[0]
        graph.encounter_owner["E7"] = "P1"
        owner_writes = graph.encounter_owner.writes
        graph.add_encounter("P2", _encounter("E6", 2))
        assert graph.encounter_owner.writes == owner_writes + 1
        _look_up_everything(graph)
        assert builds[0] == built + 1
        assert_lookups_match_the_scans(graph)

    def test_an_encounter_over_a_stray_ownership_entry(self, builds):
        graph = start_graph(stray=True)
        encounter = _encounter("E7", 2)
        self._rebuilt_once_after(builds, graph, lambda: graph.add_encounter("P0", encounter))

    def test_an_encounter_a_stored_link_names(self, builds):
        graph = start_graph(stray=True)
        encounter = _encounter("E8", 2)
        self._rebuilt_once_after(builds, graph, lambda: graph.add_encounter("P2", encounter))

    def test_an_intake_form_over_a_stray_ownership_entry(self, builds):
        graph = start_graph(stray=True)
        graph.add_patient(Patient("P3", "Name P3", date(1970, 1, 1)))
        self._rebuilt_once_after(builds, graph, lambda: graph.add_intake_form("P3", _form("F2")))


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


# -- the remembered date order ------------------------------------------------


@pytest.fixture
def orders(monkeypatch) -> list[int]:
    """``[n]``: the number of date orders built (``_date_rows`` calls) since
    the fixture was set up."""
    count = [0]
    build = JourneyGraph._date_rows

    def counted(graph: JourneyGraph, keys):
        count[0] += 1
        return build(graph, keys)

    monkeypatch.setattr(JourneyGraph, "_date_rows", counted)
    return count


def _read_p0(graph: JourneyGraph) -> None:
    graph.encounters_of("P0")
    timeline(graph, "P0")
    find_encounters(graph, "P0", specialty="allergy")
    serialize_bundle(graph, "P0")


def test_a_second_read_of_an_unchanged_patient_builds_no_order(orders):
    graph = start_graph()
    _read_p0(graph)
    assert orders == [1]
    _read_p0(graph)
    graph.encounters_by_owner()  # builds P1's and P2's orders only
    _read_p0(graph)
    assert orders == [3]


def test_add_encounter_makes_the_next_read_build_that_patients_order_once(orders):
    graph = start_graph()
    graph.encounters_of("P0")
    graph.encounters_of("P1")
    graph.add_encounter("P0", _encounter("E6", 0))
    assert orders == [2]
    _read_p0(graph)
    _read_p0(graph)
    graph.encounters_of("P1")
    assert orders == [3]
    assert [e.encounter_id for e in graph.encounters_of("P0")] == ["E0", "E6", "E1", "E2"]


def test_link_and_add_intake_form_keep_the_remembered_orders(orders):
    graph = start_graph()
    graph.add_patient(Patient("P3", "Name P3", date(1970, 1, 1)))
    graph.encounters_of("P2")
    graph.add_encounter("P2", _encounter("E6", 2))
    graph.encounters_of("P2")
    built = orders[0]
    graph.link(EdgeKind.NEXT, "E5", "E6")
    graph.add_intake_form("P3", _form("F2"))
    graph.encounters_of("P2")
    assert orders[0] == built


def test_parsing_a_bundle_builds_the_patients_order_once(orders):
    """The parse's join pass builds the order for its gap check; the reads
    after it check that order."""
    text = john_doe_bundle()
    built = orders[0]
    result = parse_bundle(text)
    timeline(result.graph, "JohnDoe")
    assert result.ok and serialize_bundle(result.graph, "JohnDoe") == text
    assert orders[0] == built + 1


def _fresh(graph: JourneyGraph) -> JourneyGraph:
    """A graph of the same records and containers, with no index yet."""
    return JourneyGraph(**{attr: getattr(graph, attr) for attr in graph._attrs})


@pytest.mark.parametrize(
    "write, order, rebuilt",
    [
        (lambda g: setattr(g.encounters["E0"], "date", START + timedelta(days=2)),
         ["E1", "E2", "E0"], 1),
        (lambda g: setattr(g.encounters["E1"], "date", date.fromordinal(START.toordinal() + 1)),
         ["E0", "E1", "E2"], 1),
        # The copy holds the very date object, so the order still holds.
        (lambda g: g.encounters.__setitem__("E2", copy.copy(g.encounters["E2"])),
         ["E0", "E1", "E2"], 0),
    ],
    ids=["redated", "an equal date", "a copy under the key"],
)  # fmt: skip
def test_a_read_after_an_uncounted_write_equals_a_fresh_sort(orders, write, order, rebuilt):
    graph = start_graph()
    graph.encounters_of("P0")
    write(graph)
    read = graph.encounters_of("P0")
    assert [e.encounter_id for e in read] == order
    built = orders[0]
    assert [id(e) for e in read] == [id(e) for e in _fresh(graph).encounters_of("P0")]
    assert built == 1 + rebuilt and orders[0] == built + 1  # and the fresh graph's
    assert graph.encounters_of("P0") == read and orders[0] == built + 1


def test_a_record_stored_under_an_owned_key_is_read():
    """P1 owns the key E7, which holds no record: its order is not kept, so
    the record stored there later is read."""
    graph = start_graph(stray=True)
    assert [e.encounter_id for e in graph.encounters_of("P1")] == ["E3", "E4"]
    graph.encounters["E7"] = _encounter("E7", 1)
    assert [e.encounter_id for e in graph.encounters_of("P1")] == ["E3", "E7", "E4"]


def test_a_read_that_fails_remembers_nothing():
    graph = start_graph()
    kept = graph.encounters["E1"].date
    graph.encounters["E1"].date = datetime(2022, 3, 2)
    with pytest.raises(FieldInvalidError, match=r"^encounters\[E1\]\.date: "):
        graph.encounters_of("P0")
    assert "P0" not in graph._index.orders
    graph.encounters["E1"].date = kept
    assert [e.encounter_id for e in graph.encounters_of("P0")] == ["E0", "E1", "E2"]
