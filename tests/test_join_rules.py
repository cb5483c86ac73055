"""The rules that join records into a journey are one rule set.

The raising API (``add_encounter``, ``link``), the invariant checker on a
graph written to directly, and ``parse_bundle`` on the same journey as a
document must accept and reject the same journeys; the checker and the
parser must report the same codes, a missing link endpoint being a
``dangling-reference`` to the checker and a ``reference-error`` to the
parser.
"""

import json
import random
from collections import Counter
from datetime import date

import pytest

from pjo import (
    CrossPatientLinkError,
    EdgeKind,
    Encounter,
    FieldInvalidError,
    IntakeForm,
    JourneyEdge,
    JourneyGraph,
    MedicalHistory,
    Patient,
    PjoError,
    Provider,
    SocialHistory,
    TemporalViolationError,
    UnknownEncounterError,
    UnknownProviderError,
    john_doe_graph,
    parse_bundle,
    serialize_bundle,
)
from pjo.graph import CYCLE, DANGLING_REFERENCE, FIELD_INVALID, SELF_LINK, UNKNOWN_PROVIDER

BIRTH = date(1980, 1, 1)
PATIENT = "P1"
PROVIDER = "Provider-1"
GHOST = "Encounter-Ghost"


def corrupted_journey(rng: random.Random):
    """One patient's encounters ``(id, date, providerRef)`` and links
    ``(kind, from, to)``, drawn so that every join rule sometimes breaks:
    unknown providers, dates before birth, missing endpoints, self-links,
    links against the dates, duplicates, and same-day cycles."""
    encounters = []
    for index in range(rng.randint(1, 5)):
        when = date(2021, rng.randint(1, 3), 1) if rng.random() > 0.08 else date(1979, 6, 1)
        provider = PROVIDER if rng.random() > 0.08 else "Provider-Ghost"
        encounters.append((f"E{index}", when, provider))
    dated = {encounter_id: when for encounter_id, when, _ in encounters}
    links = []
    for _ in range(rng.randint(0, 5)):
        first, second = sorted(rng.choices(sorted(dated), k=2), key=lambda e: (dated[e], e))
        kind = rng.choice(list(EdgeKind))
        if kind is EdgeKind.CAUSED_BY:
            first, second = second, first
        if rng.random() < 0.15:
            first, second = second, first
        if rng.random() < 0.05:
            first = GHOST
        if rng.random() < 0.05:
            second = GHOST
        links.append((kind, first, second))
    if links and rng.random() < 0.1:
        links.append(links[0])
    return encounters, links


def raising_api_accepts(encounters, links) -> bool:
    graph = JourneyGraph()
    graph.add_patient(Patient(PATIENT, "Pat One", BIRTH))
    graph.add_provider(Provider(PROVIDER, "Dr. One"))
    refused = 0
    for encounter_id, when, provider in encounters:
        try:
            graph.add_encounter(PATIENT, Encounter(encounter_id, when, "Allergy", provider))
        except PjoError:
            refused += 1
    for kind, source, target in links:
        try:
            graph.link(kind, source, target)
        except PjoError:
            refused += 1
    return refused == 0


def written_graph(encounters, links) -> JourneyGraph:
    graph = JourneyGraph()
    graph.patients[PATIENT] = Patient(PATIENT, "Pat One", BIRTH)
    graph.providers[PROVIDER] = Provider(PROVIDER, "Dr. One")
    for encounter_id, when, provider in encounters:
        graph.encounters[encounter_id] = Encounter(encounter_id, when, "Allergy", provider)
        graph.encounter_owner[encounter_id] = PATIENT
    graph.edges = [JourneyEdge(kind, source, target) for kind, source, target in links]
    return graph


def bundle_text(encounters, links) -> str:
    return json.dumps(
        {
            "formatVersion": "pjo-1",
            "patient": {"patientID": PATIENT, "patientName": "Pat One", "birthDate": "1980-01-01"},
            "providers": [{"providerID": PROVIDER, "providerName": "Dr. One"}],
            "encounters": [
                {
                    "encounterID": encounter_id,
                    "date": when.isoformat(),
                    "specialty": "Allergy",
                    "providerRef": provider,
                }
                for encounter_id, when, provider in encounters
            ],
            "links": [
                {"kind": kind.value, "from": source, "to": target}
                for kind, source, target in links
            ],
        }
    )


@pytest.mark.parametrize("seed", range(300))
def test_raising_api_checker_and_parser_agree(seed):
    encounters, links = corrupted_journey(random.Random(seed))
    report = written_graph(encounters, links).check_invariants()
    result = parse_bundle(bundle_text(encounters, links))
    assert raising_api_accepts(encounters, links) == report.ok == result.ok
    checker_codes = Counter(d.code for d in report.errors)
    parser_codes = Counter(
        DANGLING_REFERENCE if d.code == "reference-error" else d.code for d in result.errors
    )
    assert checker_codes == parser_codes


def test_the_differential_corpus_breaks_every_rule():
    codes = Counter()
    accepted = 0
    for seed in range(300):
        encounters, links = corrupted_journey(random.Random(seed))
        report = written_graph(encounters, links).check_invariants()
        accepted += report.ok
        codes.update({d.code for d in report.errors})
    assert 30 <= accepted <= 270
    for code in (
        CYCLE,
        DANGLING_REFERENCE,
        "duplicate-edge",
        FIELD_INVALID,
        SELF_LINK,
        "temporal-violation",
        UNKNOWN_PROVIDER,
    ):
        assert codes[code] >= 3, code


def two_day_graph() -> JourneyGraph:
    graph = JourneyGraph()
    graph.add_provider(Provider(PROVIDER, "Dr. One"))
    for patient_id in ("P1", "P2"):
        graph.add_patient(Patient(patient_id, "Pat", BIRTH))
        for day in (1, 2):
            encounter = Encounter(f"{patient_id}-E{day}", date(2021, 1, day), "Allergy", PROVIDER)
            graph.add_encounter(patient_id, encounter)
    return graph


class TestLinkRaisesTheCheckersFirstProblem:
    @pytest.mark.parametrize(
        "source, target, raised",
        [
            (GHOST, "P1-E2", UnknownEncounterError),
            ("P1-E1", GHOST, UnknownEncounterError),
            ("P1-E1", "P1-E1", FieldInvalidError),
            ("P1-E1", "P2-E2", CrossPatientLinkError),
            ("P1-E2", "P1-E1", TemporalViolationError),
        ],
    )
    def test_message_and_type(self, source, target, raised):
        graph = two_day_graph()
        with pytest.raises(raised) as caught:
            graph.link(EdgeKind.NEXT, source, target)
        assert graph.edges == []
        graph.edges.append(JourneyEdge(EdgeKind.NEXT, source, target))
        first = graph.check_invariants().errors[0]
        assert (first.location, str(caught.value)) == ("links[0]", first.message)

    def test_link_to_an_unowned_encounter_crosses_patients(self):
        graph = two_day_graph()
        del graph.encounter_owner["P1-E2"]
        with pytest.raises(CrossPatientLinkError, match="crosses patients"):
            graph.link(EdgeKind.NEXT, "P1-E1", "P1-E2")
        with pytest.raises(CrossPatientLinkError, match="crosses patients"):
            graph.link(EdgeKind.NEXT, "P1-E2", "P1-E1")
        assert graph.edges == []


class TestAddEncounterRaisesTheCheckersFirstProblem:
    @pytest.mark.parametrize(
        "when, provider, raised, location",
        [
            (date(2021, 1, 1), "Provider-Ghost", UnknownProviderError, "providerRef"),
            (date(1979, 12, 31), PROVIDER, FieldInvalidError, "date"),
            (date(1979, 12, 31), "Provider-Ghost", UnknownProviderError, "providerRef"),
        ],
    )
    def test_message_and_type(self, when, provider, raised, location):
        graph = two_day_graph()
        encounter = Encounter("P1-E3", when, "Allergy", provider)
        with pytest.raises(raised) as caught:
            graph.add_encounter("P1", encounter)
        assert "P1-E3" not in graph.encounters
        graph.encounters["P1-E3"] = encounter
        graph.encounter_owner["P1-E3"] = "P1"
        first = graph.check_invariants().errors[0]
        assert first.location == f"encounters[P1-E3].{location}"
        assert first.message == str(caught.value)

    def test_birth_date_message_names_no_patient(self):
        graph = two_day_graph()
        graph.encounters["P1-E1"].date = date(1979, 12, 31)
        [error] = graph.check_invariants().errors
        assert error.message == "encounter date 1979-12-31 precedes birth date 1980-01-01"


def test_a_self_link_is_not_also_a_cycle():
    graph = two_day_graph()
    graph.edges.append(JourneyEdge(EdgeKind.NEXT, "P1-E1", "P1-E1"))
    assert [d.code for d in graph.check_invariants().errors] == [SELF_LINK]


class TestStoredIDsMatchTheirKeys:
    """A record stored under a key other than its ID is reported: serialized,
    it would be written under its ID and references to the key would break."""

    def test_renamed_encounter(self):
        graph = john_doe_graph()
        key = sorted(graph.encounters)[0]
        graph.encounters[key].encounter_id = "Other"
        errors = graph.check_invariants().errors
        assert [(d.code, d.location) for d in errors] == [
            (FIELD_INVALID, f"encounters[{key}].encounterID")
        ]
        assert errors[0].message == f"encounterID 'Other' differs from its key {key!r}"
        with pytest.raises(FieldInvalidError) as raised:
            serialize_bundle(graph, "JohnDoe")
        assert str(raised.value) == f"encounters[{key}].encounterID: {errors[0].message}"

    def test_renamed_patient_provider_and_intake_form(self):
        graph = john_doe_graph()
        graph.patients["JohnDoe"].patient_id = "Other"
        provider_key = sorted(graph.providers)[0]
        graph.providers[provider_key].provider_id = "Other"
        form_key = next(iter(graph.intake_forms))
        graph.intake_forms[form_key].intake_form_id = "Other"
        assert [(d.code, d.location) for d in graph.check_invariants().errors] == [
            (FIELD_INVALID, "patients[JohnDoe].patientID"),
            (FIELD_INVALID, f"providers[{provider_key}].providerID"),
            (FIELD_INVALID, f"intakeForms[{form_key}].intakeFormID"),
        ]

    def test_matching_ids_are_silent(self):
        graph = JourneyGraph()
        graph.patients["P1"] = Patient("P1", "Pat", BIRTH)
        graph.intake_forms["F1"] = IntakeForm("F1", MedicalHistory(), SocialHistory("no", "no"))
        graph.intake_form_owner["F1"] = "P1"
        assert graph.check_invariants().errors == []


class TestLookupsGoByKey:
    """``encounters_of``, ``edges_of``, ``intake_form_of`` and
    ``serialize_bundle`` find a patient's records by their keys in the
    ownership maps, not by the IDs the records carry; the checker reports
    every record whose ID differs from its key."""

    def renamed(self):
        graph = john_doe_graph()
        key = "Encounter-Pulmonology-20210315"
        graph.encounters[key].encounter_id = "Encounter-Other"
        form = graph.intake_forms.pop("IntakeForm-JohnDoe")
        graph.intake_forms["IntakeForm-Key"] = form
        graph.intake_form_owner = {"IntakeForm-Key": "JohnDoe"}
        return graph, key, form

    def test_lookups(self):
        graph, key, form = self.renamed()
        assert [e.encounter_id for e in graph.encounters_of("JohnDoe")] == [
            "Encounter-GeneralMedicine-20210105",
            "Encounter-Other",
            "Encounter-Allergy-20210725",
            "Encounter-AllergyFollowUp-20220418",
        ]
        assert graph.edges_of("JohnDoe") == graph.edges
        assert graph.intake_form_of("JohnDoe") is form
        assert graph.encounters_by_owner()["JohnDoe"] == graph.encounters_of("JohnDoe")

    def test_checker_reports_each_key(self):
        graph, key, _ = self.renamed()
        assert [(d.code, d.location) for d in graph.check_invariants().errors] == [
            (FIELD_INVALID, "intakeForms[IntakeForm-Key].intakeFormID"),
            (FIELD_INVALID, f"encounters[{key}].encounterID"),
        ]

    def test_not_serialized_under_the_ids_the_links_miss(self):
        """Such records were once written under their IDs, which the links
        miss; the write now fails with the checker's first problem."""
        graph, _, _ = self.renamed()
        with pytest.raises(FieldInvalidError) as raised:
            serialize_bundle(graph, "JohnDoe")
        assert str(raised.value) == (
            "intakeForms[IntakeForm-Key].intakeFormID: "
            "intakeFormID 'IntakeForm-JohnDoe' differs from its key 'IntakeForm-Key'"
        )

    def test_same_day_encounters_are_ordered_by_key(self):
        graph = JourneyGraph()
        graph.add_provider(Provider(PROVIDER, "Dr. Ada Lane"))
        graph.add_patient(Patient(PATIENT, "Pat", BIRTH))
        for key in ("A", "B"):
            graph.add_encounter(PATIENT, Encounter(key, date(2021, 1, 1), "Allergy", PROVIDER))
        graph.encounters["A"].encounter_id, graph.encounters["B"].encounter_id = "B", "A"
        assert [e.encounter_id for e in graph.encounters_of(PATIENT)] == ["B", "A"]
        assert [(d.code, d.location) for d in graph.check_invariants().errors] == [
            (FIELD_INVALID, "encounters[A].encounterID"),
            (FIELD_INVALID, "encounters[B].encounterID"),
        ]
