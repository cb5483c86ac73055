"""Seeded benchmark inputs and the ground truth every output is checked against.

Records come from the test suite's journey vocabulary and
``_random_encounter`` (``tests/journeygen.py``); links are planned here so
that their shape is known exactly.  Graphs are assembled by writing the
graph fields directly, as the bundle parser does, never through
``JourneyGraph.link``: set-up must not depend on the layer the ``cohort``
workload measures.  The same seed always gives byte-identical inputs.

Every fact in ``Facts`` is computed from the generator's own plan, never by
asking pjo, so a wrong answer from pjo cannot agree with itself.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, timedelta

import journeygen
from pjo import (
    CLASS_ANNOTATIONS,
    CodeSystem,
    ContactInformation,
    CrossPatientLinkError,
    CycleIntroducedError,
    DuplicateEdgeError,
    EdgeKind,
    Encounter,
    IntakeForm,
    JourneyEdge,
    JourneyGraph,
    MedicalHistory,
    Patient,
    Provider,
    SocialHistory,
    TemporalViolationError,
    john_doe_graph,
    serialize_bundle,
)

CHAIN_KINDS = [EdgeKind.NEXT, EdgeKind.NEXT, EdgeKind.HAS_FOLLOWUP, EdgeKind.CAUSED_BY]
CHAIN_PROBABILITY = 0.85  # that two date neighbours are linked (same-date pairs always are)
LONG_RANGE_SHARE = 0.02  # of encounters with a causedBy link reaching past their neighbour
INVALID_SHARE = 0.05  # of all link attempts in a cohort


def rng_for(seed: int, label: str) -> random.Random:
    return random.Random(f"pjo-bench:{seed}:{label}")


def providers(rng: random.Random) -> list[Provider]:
    return [
        Provider(
            provider_id=f"Provider-{p:02d}",
            provider_name=f"Dr. {rng.choice(journeygen.FIRST_NAMES)} {rng.choice(journeygen.LAST_NAMES)}",
            specialization=rng.choice(journeygen.SPECIALTIES),
            years_of_experience=rng.randint(0, 40),
        )
        for p in range(1, 4)
    ]


@dataclass
class Journey:
    """One patient's records and links, encounters in (date, ID) order."""

    patient: Patient
    intake_form: IntakeForm | None
    encounters: list[Encounter]
    links: list[JourneyEdge]
    # (position in ``links`` after which to attempt it, edge, expected error)
    invalid: list[tuple[int, JourneyEdge, type[Exception]]] = field(default_factory=list)

    @property
    def patient_id(self) -> str:
        return self.patient.patient_id


def plan_journey(
    rng: random.Random,
    patient_id: str,
    n_encounters: int,
    provider_ids: list[str],
    *,
    hostile: bool = False,
    same_date_share: float = 0.05,
    max_step_days: int = 10,
) -> Journey:
    """A valid journey: chain links between date neighbours, every same-date
    pair linked, and long-range ``causedBy`` links from encounters that have
    no other cause, so follow-up chains and cause traces never branch."""
    name = f"{rng.choice(journeygen.FIRST_NAMES)} {rng.choice(journeygen.LAST_NAMES)}"
    birth = date(1950, 1, 1) + timedelta(days=rng.randrange(0, 365 * 40))
    patient = Patient(
        patient_id=patient_id,
        patient_name=journeygen._hostile(rng, name, hostile),
        birth_date=birth,
        gender=rng.choice([None, "Female", "Male"]),
        contact=ContactInformation(email=rng.choice([None, "someone@example.com"])),
        insurance_id=f"AHI-{rng.randint(10000, 99999)}",
    )
    intake_form = IntakeForm(
        intake_form_id=f"IntakeForm-{patient_id}",
        medical_history=MedicalHistory(
            had_surgery=rng.sample(["Appendectomy", "Tonsillectomy"], rng.randint(0, 2)),
            chronic_illness=rng.sample(["Hypertension", "Asthma"], rng.randint(0, 2)),
        ),
        social_history=SocialHistory(
            smoking_habit=rng.choice(["Never smoker", "Former smoker"]),
            drinking_habit=rng.choice(["None", "Moderate, social drinker"]),
        ),
    )
    encounters = []
    same_date: set[int] = set()  # i such that encounters i and i+1 share a date
    when = birth + timedelta(days=rng.randrange(365 * 18, 365 * 30))
    for i in range(n_encounters):
        # The zero-padded index leads the ID, so (date, ID) order is index order.
        encounter_id = journeygen._hostile(rng, f"{patient_id}-Enc-{i:05d}", hostile)
        encounters.append(journeygen._random_encounter(rng, encounter_id, when, provider_ids))
        if rng.random() < same_date_share:
            same_date.add(i)
        else:
            when += timedelta(days=rng.randrange(1, max_step_days + 1))

    links: list[JourneyEdge] = []
    has_cause: set[int] = set()
    for i in range(n_encounters - 1):
        if i not in same_date and rng.random() >= CHAIN_PROBABILITY:
            continue
        earlier, later = encounters[i], encounters[i + 1]
        kind = rng.choice(CHAIN_KINDS)
        if kind is EdgeKind.CAUSED_BY:
            via = later.care_plans[0].plan_id if later.care_plans and rng.random() < 0.5 else None
            links.append(JourneyEdge(kind, later.encounter_id, earlier.encounter_id, via))
            has_cause.add(i + 1)
        else:
            links.append(JourneyEdge(kind, earlier.encounter_id, later.encounter_id))
    for j in range(2, n_encounters):
        if j not in has_cause and rng.random() < LONG_RANGE_SHARE:
            i = rng.randrange(max(0, j - 50), j - 1)
            links.append(
                JourneyEdge(EdgeKind.CAUSED_BY, encounters[j].encounter_id, encounters[i].encounter_id)
            )
            has_cause.add(j)
    return Journey(patient, intake_form, encounters, links)


def add_invalid_attempts(rng: random.Random, journey: Journey, earlier: Journey | None) -> None:
    """Tag about ``INVALID_SHARE`` of link attempts as invalid, each with the
    error the raising API must give: a duplicate, a backward follow-up, a
    cross-patient link (to ``earlier``), or a cycle between same-date
    encounters."""
    encounters = journey.encounters
    linked_same_date = [
        (n, edge)
        for n, edge in enumerate(journey.links)
        if _date(journey, edge.from_encounter) == _date(journey, edge.to_encounter)
    ]
    distinct = [(a, b) for a, b in zip(encounters, encounters[1:]) if a.date < b.date]
    for n, edge in enumerate(journey.links):
        if rng.random() >= INVALID_SHARE / (1 - INVALID_SHARE):
            continue
        choices = ["duplicate"]
        if distinct:
            choices.append("backward-followup")
        if earlier is not None and earlier.encounters:
            choices.append("cross-patient")
        if any(m <= n for m, _ in linked_same_date):
            choices.append("same-date-cycle")
        choice = rng.choice(choices)
        if choice == "duplicate":
            journey.invalid.append((n, edge, DuplicateEdgeError))
        elif choice == "backward-followup":
            a, b = rng.choice(distinct)
            bad = JourneyEdge(EdgeKind.HAS_FOLLOWUP, b.encounter_id, a.encounter_id)
            journey.invalid.append((n, bad, TemporalViolationError))
        elif choice == "cross-patient":
            other = rng.choice(earlier.encounters)
            source = rng.choice(encounters)
            bad = JourneyEdge(EdgeKind.NEXT, source.encounter_id, other.encounter_id)
            journey.invalid.append((n, bad, CrossPatientLinkError))
        else:
            _, pair = rng.choice([(m, e) for m, e in linked_same_date if m <= n])
            a, b = sorted((pair.from_encounter, pair.to_encounter))
            # a precedes b in (date, ID) order; NEXT b -> a closes a cycle.
            bad = JourneyEdge(EdgeKind.NEXT, b, a)
            journey.invalid.append((n, bad, CycleIntroducedError))


def _date(journey: Journey, encounter_id: str) -> date:
    return next(e.date for e in journey.encounters if e.encounter_id == encounter_id)


def assemble(journeys: list[Journey], provider_list: list[Provider]) -> JourneyGraph:
    """Write records and links into the graph fields directly."""
    graph = JourneyGraph()
    for provider in provider_list:
        graph.providers[provider.provider_id] = provider
    for journey in journeys:
        pid = journey.patient_id
        graph.patients[pid] = journey.patient
        if journey.intake_form is not None:
            graph.intake_forms[journey.intake_form.intake_form_id] = journey.intake_form
            graph.intake_form_owner[journey.intake_form.intake_form_id] = pid
        for encounter in journey.encounters:
            graph.encounters[encounter.encounter_id] = encounter
            graph.encounter_owner[encounter.encounter_id] = pid
        graph.edges.extend(journey.links)
    return graph


def bundle_bytes(journey: Journey, provider_list: list[Provider]) -> bytes:
    return serialize_bundle(assemble([journey], provider_list), journey.patient_id).encode("utf-8")


def john_doe_journey() -> tuple[Journey, list[Provider]]:
    """The built-in seed journey, read from its records."""
    graph = john_doe_graph()
    (pid,) = graph.patients
    form = next(iter(graph.intake_forms.values()), None)
    encounters = sorted(graph.encounters.values(), key=lambda e: (e.date, e.encounter_id))
    journey = Journey(graph.patients[pid], form, encounters, list(graph.edges))
    return journey, list(graph.providers.values())


# -- ground truth ------------------------------------------------------------


def duplicate_cui_count() -> int:
    """CUIs annotating more than one class in the default annotation table."""
    classes = Counter(
        code.code
        for codes in CLASS_ANNOTATIONS.values()
        for code in codes
        if code.system is CodeSystem.UMLS_CUI
    )
    return sum(1 for count in classes.values() if count > 1)


@dataclass(frozen=True)
class Facts:
    """What every query on a journey must return, from the plan alone."""

    order: tuple[str, ...]
    n_links: int
    gaps: int
    followup_probe: str
    followup_length: int
    cause_probe: str
    cause_length: int
    symptom: str
    symptom_count: int
    symptom_diagnosis_pairs: int
    specialty: str
    specialty_count: int
    dot_journey: tuple[int, int]  # (nodes, edges) at detail "journey"
    dot_full: tuple[int, int]  # (nodes, edges) at detail "full"


def facts(journey: Journey) -> Facts:
    encounters = journey.encounters
    order = tuple(e.encounter_id for e in encounters)
    index = {eid: i for i, eid in enumerate(order)}
    linked = {frozenset((e.from_encounter, e.to_encounter)) for e in journey.links}
    gaps = sum(1 for a, b in zip(order, order[1:]) if frozenset((a, b)) not in linked)

    followup_next = {
        e.from_encounter: e.to_encounter for e in journey.links if e.kind is EdgeKind.HAS_FOLLOWUP
    }
    runs: list[list[str]] = []
    for eid in order:  # chains only join date neighbours, so runs are contiguous
        if runs and followup_next.get(runs[-1][-1]) == eid:
            runs[-1].append(eid)
        else:
            runs.append([eid])
    longest_run = max(runs, key=len)

    cause_of = {e.from_encounter: e.to_encounter for e in journey.links if e.kind is EdgeKind.CAUSED_BY}
    depth: dict[str, int] = {}
    for eid in order:  # causes precede effects
        depth[eid] = 1 + depth[cause_of[eid]] if eid in cause_of else 1
    cause_probe = max(order, key=lambda eid: (depth[eid], -index[eid]))

    symptoms = Counter(s.symptom_name.casefold() for e in encounters for s in e.symptoms)
    symptom = min(symptoms, key=lambda s: (-symptoms[s], s)) if symptoms else "cough"
    specialties = Counter(e.specialty.casefold() for e in encounters)
    specialty = min(specialties, key=lambda s: (-specialties[s], s))

    subrecords = sum(
        len(e.symptoms) + len(e.vitals) + len(e.tests) + len(e.diagnoses)
        + len(e.medications) + len(e.care_plans)
        for e in encounters
    )
    forms = 1 if journey.intake_form is not None else 0
    journey_nodes = 1 + forms + len(encounters)
    journey_edges = forms + len(encounters) + len(journey.links)
    return Facts(
        order=order,
        n_links=len(journey.links),
        gaps=gaps,
        followup_probe=longest_run[0],
        followup_length=len(longest_run),
        cause_probe=cause_probe,
        cause_length=depth[cause_probe],
        symptom=symptom,
        symptom_count=symptoms.get(symptom, 0),
        symptom_diagnosis_pairs=sum(len(e.symptoms) * len(e.diagnoses) for e in encounters),
        specialty=specialty,
        specialty_count=specialties[specialty],
        dot_journey=(journey_nodes, journey_edges),
        dot_full=(journey_nodes + 2 * forms + subrecords, journey_edges + 2 * forms + subrecords),
    )
