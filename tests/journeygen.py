"""Randomized journey graphs and invariant-breaking mutations for tests.

``random_journey`` builds valid graphs through the raising API, so every
generated graph passes the invariant checker by construction.  The
``MUTATIONS`` table pairs each corruption with the diagnostic code the
checker must report for it.
"""

from __future__ import annotations

import copy
import random
from datetime import date, timedelta

from pjo import (
    CarePlan,
    CodeSystem,
    ConceptCode,
    ContactInformation,
    DiagTest,
    Diagnosis,
    EdgeKind,
    Encounter,
    IntakeForm,
    JourneyEdge,
    JourneyGraph,
    MedicalHistory,
    Medication,
    Patient,
    Provider,
    SocialHistory,
    Symptom,
    VitalSign,
)

FIRST_NAMES = ["Alice", "Ben", "Carla", "Dmitri", "Elena", "Farid", "Grace", "Hugo"]
LAST_NAMES = ["Nguyen", "Smith", "Okafor", "Rossi", "Tanaka", "Lopez", "Weber"]
SPECIALTIES = [
    "General Medicine",
    "Pulmonology",
    "Allergy",
    "Cardiology",
    "Dermatology",
    "Neurology",
]
SYMPTOM_NAMES = [
    "Headaches",
    "Dizziness",
    "Cough",
    "Fatigue",
    "Chest pain",
    "Sneezing",
    "Back pain",
    "Fever",
]
SEVERITIES = ["mild", "moderate", "severe", ""]
DIAGNOSES = [
    ("Vitamin D deficiency", "E55.9"),
    ("Mild sleep apnea", "G47.33"),
    ("Hypertension", "I10"),
    ("Seasonal allergic rhinitis", "J30.2"),
    ("Type 2 diabetes", "E11.9"),
    ("Migraine", "G43.909"),
    ("Unspecified fatigue", None),
]
MEDICATIONS = [
    ("Vitamin D supplement", "2000 IU", "Daily"),
    ("Loratadine", "10 mg", "Daily"),
    ("Lisinopril", "5 mg", "Daily"),
    ("Ibuprofen", "200 mg", "As needed"),
]
TESTS = [
    ("Complete Blood Count-CBC", "Normal", "Within reference intervals"),
    ("Sleep study", "AHI 7", "AHI < 5"),
    ("Lipid panel", "Borderline", None),
    ("Chest X-ray", "Clear", None),
]
HOSTILE_NAMES = [
    'He said "hello"',
    "back\\slash",
    "line\nbreak",
    "tab\there",
    "unicode éü世",
    "trailing space ",
    "{brace} -> [bracket]",
    "semi;colon 'quote'",
]

BAD_ICD10_CODES = ["notacode", "110", "I10.XYZW9", "i10", "I1", ""]


def _hostile(rng: random.Random, base: str, enabled: bool) -> str:
    if enabled and rng.random() < 0.5:
        return f"{base} {rng.choice(HOSTILE_NAMES)}"
    return base


def random_journey(
    rng: random.Random,
    min_patients: int = 1,
    max_patients: int = 3,
    min_encounters: int = 0,
    max_encounters: int = 5,
    distinct_dates: bool = False,
    require_diagnosis: bool = False,
    hostile_names: bool = False,
    chain_probability: float = 0.85,
) -> JourneyGraph:
    graph = JourneyGraph()
    n_providers = rng.randint(1, 3)
    for p in range(1, n_providers + 1):
        graph.add_provider(
            Provider(
                provider_id=f"Provider-{p:02d}",
                provider_name=_hostile(
                    rng, f"Dr. {rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}", hostile_names
                ),
                specialization=rng.choice(SPECIALTIES),
                affiliated_institution=rng.choice([None, "Riverside Medical Center"]),
                years_of_experience=rng.choice([None, rng.randint(0, 40)]),
            )
        )
    provider_ids = sorted(graph.providers)

    n_patients = rng.randint(min_patients, max_patients)
    for p in range(1, n_patients + 1):
        patient_id = _hostile(rng, f"Patient-{p:02d}", hostile_names)
        birth = date(1950, 1, 1) + timedelta(days=rng.randrange(0, 365 * 50))
        graph.add_patient(
            Patient(
                patient_id=patient_id,
                patient_name=_hostile(
                    rng, f"{rng.choice(FIRST_NAMES)} {rng.choice(LAST_NAMES)}", hostile_names
                ),
                birth_date=birth,
                race=rng.choice([None, "White", "Black", "Asian"]),
                gender=rng.choice([None, "Female", "Male"]),
                contact=ContactInformation(
                    address=rng.choice([None, "1 Main Street"]),
                    email=rng.choice([None, "someone@example.com"]),
                ),
                insurance_name=rng.choice([None, "Acme Health Insurance"]),
                insurance_id=rng.choice([None, f"AHI-{rng.randint(10000, 99999)}"]),
            )
        )
        if rng.random() < 0.8:
            graph.add_intake_form(
                patient_id,
                IntakeForm(
                    intake_form_id=f"IntakeForm-{patient_id}",
                    medical_history=MedicalHistory(
                        had_surgery=rng.sample(["Appendectomy", "Tonsillectomy"], rng.randint(0, 2)),
                        chronic_illness=rng.sample(["Hypertension", "Asthma"], rng.randint(0, 2)),
                        medication_allergies=rng.sample(["Penicillin", "Latex"], rng.randint(0, 2)),
                        family_medical_history=rng.sample(
                            ["Type 2 diabetes", "Coronary artery disease"], rng.randint(0, 2)
                        ),
                    ),
                    social_history=SocialHistory(
                        smoking_habit=rng.choice(["Never smoker", "Former smoker"]),
                        drinking_habit=rng.choice(["None", "Moderate, social drinker"]),
                        diet=rng.choice([None, "Balanced diet"]),
                        exercise_routine=rng.choice([None, "Regular exercise, jogging"]),
                    ),
                ),
            )

        n_encounters = rng.randint(min_encounters, max_encounters)
        when = birth + timedelta(days=rng.randrange(365 * 18, 365 * 60))
        encounter_ids = []
        for e in range(1, n_encounters + 1):
            encounter_id = _hostile(rng, f"{patient_id}-Enc-{e:02d}", hostile_names)
            graph.add_encounter(patient_id, _random_encounter(rng, encounter_id, when, provider_ids))
            encounter_ids.append(encounter_id)
            step = rng.randrange(1, 300) if distinct_dates or rng.random() < 0.9 else 0
            when = when + timedelta(days=step)

        _random_links(rng, graph, patient_id, chain_probability)

    if require_diagnosis and not any(e.diagnoses for e in graph.encounters.values()):
        some = sorted(graph.encounters)[0]
        graph.encounters[some].diagnoses.append(
            Diagnosis("Hypertension", ConceptCode(CodeSystem.ICD10, "I10"))
        )
    return graph


def _random_encounter(
    rng: random.Random, encounter_id: str, when: date, provider_ids: list[str]
) -> Encounter:
    symptoms = [
        Symptom(rng.choice(SYMPTOM_NAMES), rng.choice(SEVERITIES))
        for _ in range(rng.randint(0, 3))
    ]
    vitals = []
    for _ in range(rng.randint(0, 2)):
        vitals.append(
            VitalSign(
                body_temperature=rng.choice([None, round(rng.uniform(35.0, 39.5), 1)]),
                blood_pressure=rng.choice(
                    [None, f"{rng.randint(100, 160)}/{rng.randint(60, 95)}"]
                ),
                weight=rng.choice([None, round(rng.uniform(45.0, 140.0), 1)]),
                heart_rate=rng.choice([None, float(rng.randint(45, 120))]),
            )
        )
    tests = [
        DiagTest(name, results, normal)
        for name, results, normal in rng.sample(TESTS, rng.randint(0, 2))
    ]
    diagnoses = []
    for name, code in rng.sample(DIAGNOSES, rng.randint(0, 2)):
        icd10 = ConceptCode(CodeSystem.ICD10, code) if code and rng.random() < 0.7 else None
        diagnoses.append(Diagnosis(name, icd10))
    medications = [
        Medication(name, dosage, frequency)
        for name, dosage, frequency in rng.sample(MEDICATIONS, rng.randint(0, 2))
    ]
    care_plans = []
    if rng.random() < 0.4:
        care_plans.append(
            CarePlan(
                plan_id=f"CarePlan-{encounter_id}",
                description="Review at next visit",
                referral_specialty=rng.choice([None, rng.choice(SPECIALTIES)]),
            )
        )
    return Encounter(
        encounter_id=encounter_id,
        date=when,
        specialty=rng.choice(SPECIALTIES),
        provider_ref=rng.choice(provider_ids),
        symptoms=symptoms,
        vitals=vitals,
        tests=tests,
        diagnoses=diagnoses,
        medications=medications,
        care_plans=care_plans,
    )


def _random_links(
    rng: random.Random, graph: JourneyGraph, patient_id: str, chain_probability: float
) -> None:
    encounters = graph.encounters_of(patient_id)
    for earlier, later in zip(encounters, encounters[1:]):
        if rng.random() >= chain_probability:
            continue
        kind = rng.choice(
            [EdgeKind.NEXT, EdgeKind.NEXT, EdgeKind.HAS_FOLLOWUP, EdgeKind.CAUSED_BY]
        )
        if kind is EdgeKind.CAUSED_BY:
            via = None
            if later.care_plans and rng.random() < 0.5:
                via = later.care_plans[0].plan_id
            graph.link(kind, later.encounter_id, earlier.encounter_id, via=via)
        else:
            graph.link(kind, earlier.encounter_id, later.encounter_id)
    # Occasional long-range causal edge pointing back past the neighbor.
    if len(encounters) >= 3 and rng.random() < 0.3:
        j = rng.randrange(2, len(encounters))
        i = rng.randrange(0, j - 1)
        effect, cause = encounters[j], encounters[i]
        if not any(
            e.kind is EdgeKind.CAUSED_BY
            and e.from_encounter == effect.encounter_id
            and e.to_encounter == cause.encounter_id
            for e in graph.edges
        ):
            graph.link(EdgeKind.CAUSED_BY, effect.encounter_id, cause.encounter_id)


# -- mutations ------------------------------------------------------------


def _patients_with_pairs(graph: JourneyGraph) -> list[str]:
    return [
        pid
        for pid in sorted(graph.patients)
        if len(graph.encounters_of(pid)) >= 2
    ]


def _drop_edges_between(graph: JourneyGraph, left: str, right: str) -> None:
    graph.edges = [
        e
        for e in graph.edges
        if {e.from_encounter, e.to_encounter} != {left, right}
    ]


def mutate_inject_cycle(graph: JourneyGraph, rng: random.Random) -> JourneyGraph:
    """Two same-day encounters linked NEXT both ways: a pure cycle."""
    graph = copy.deepcopy(graph)
    pid = rng.choice(_patients_with_pairs(graph))
    encounters = graph.encounters_of(pid)
    index = rng.randrange(len(encounters) - 1)
    a, b = encounters[index], encounters[index + 1]
    b.date = a.date
    _drop_edges_between(graph, a.encounter_id, b.encounter_id)
    graph.edges.append(JourneyEdge(EdgeKind.NEXT, a.encounter_id, b.encounter_id))
    graph.edges.append(JourneyEdge(EdgeKind.NEXT, b.encounter_id, a.encounter_id))
    return graph


def mutate_backward_followup(graph: JourneyGraph, rng: random.Random) -> JourneyGraph:
    """A follow-up edge running from a later encounter to an earlier one."""
    graph = copy.deepcopy(graph)
    pairs = []
    for pid in _patients_with_pairs(graph):
        encounters = graph.encounters_of(pid)
        pairs.extend(
            (a, b)
            for a, b in zip(encounters, encounters[1:])
            if a.date < b.date
        )
    a, b = pairs[rng.randrange(len(pairs))]
    _drop_edges_between(graph, a.encounter_id, b.encounter_id)
    graph.edges.append(JourneyEdge(EdgeKind.HAS_FOLLOWUP, b.encounter_id, a.encounter_id))
    return graph


def mutate_cross_patient(graph: JourneyGraph, rng: random.Random) -> JourneyGraph:
    """A NEXT edge connecting encounters of two different patients."""
    graph = copy.deepcopy(graph)
    populated = [pid for pid in sorted(graph.patients) if graph.encounters_of(pid)]
    first, second = rng.sample(populated, 2)
    e1 = rng.choice(graph.encounters_of(first))
    e2 = rng.choice(graph.encounters_of(second))
    source, target = sorted((e1, e2), key=lambda e: (e.date, e.encounter_id))
    graph.edges.append(JourneyEdge(EdgeKind.NEXT, source.encounter_id, target.encounter_id))
    return graph


def mutate_dangling_provider(graph: JourneyGraph, rng: random.Random) -> JourneyGraph:
    """An encounter whose provider reference resolves to nothing."""
    graph = copy.deepcopy(graph)
    encounter_id = rng.choice(sorted(graph.encounters))
    graph.encounters[encounter_id].provider_ref = "Provider-Ghost"
    return graph


def mutate_bad_icd10(graph: JourneyGraph, rng: random.Random) -> JourneyGraph:
    """A diagnosis carrying a malformed ICD-10 code."""
    graph = copy.deepcopy(graph)
    carriers = [e for e in graph.encounters.values() if e.diagnoses]
    encounter = carriers[rng.randrange(len(carriers))]
    diagnosis = rng.choice(encounter.diagnoses)
    diagnosis.icd10 = ConceptCode(
        CodeSystem.ICD10, rng.choice([c for c in BAD_ICD10_CODES if c])
    )
    return graph


MUTATIONS = [
    ("cycle", mutate_inject_cycle),
    ("temporal-violation", mutate_backward_followup),
    ("cross-patient-link", mutate_cross_patient),
    ("unknown-provider", mutate_dangling_provider),
    ("bad-icd10", mutate_bad_icd10),
]


def mutation_corpus_journey(rng: random.Random) -> JourneyGraph:
    """A valid journey with enough structure for every mutation class."""
    return random_journey(
        rng,
        min_patients=2,
        max_patients=3,
        min_encounters=2,
        max_encounters=5,
        distinct_dates=True,
        require_diagnosis=True,
    )
