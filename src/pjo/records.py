"""Record types stored in a journey graph.

A patient owns one optional intake form (medical and social history) and any
number of dated encounters.  Encounters carry clinical subrecords (symptoms,
vital signs, diagnostic tests, diagnoses, medications, care plans) and are
linked to each other by typed journey edges.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from enum import Enum

from .codes import ConceptCode

BLOOD_PRESSURE_PATTERN = re.compile(r"([0-9]+)/([0-9]+)")

# Plausibility bounds for vital signs; temperature is degrees Celsius,
# weight is kilograms, heart rate is beats per minute.
BODY_TEMPERATURE_RANGE = (25.0, 45.0)
HEART_RATE_MAX = 300.0
WEIGHT_MAX = 500.0


@dataclass
class ContactInformation:
    address: str | None = None
    phone_number: str | None = None
    email: str | None = None
    emergency_contact: str | None = None


@dataclass
class Patient:
    patient_id: str
    patient_name: str
    birth_date: date
    race: str | None = None
    gender: str | None = None
    contact: ContactInformation = field(default_factory=ContactInformation)
    insurance_name: str | None = None
    insurance_id: str | None = None


@dataclass
class Provider:
    provider_id: str
    provider_name: str
    specialization: str | None = None
    affiliated_institution: str | None = None
    years_of_experience: int | None = None


@dataclass
class MedicalHistory:
    had_surgery: list[str] = field(default_factory=list)
    chronic_illness: list[str] = field(default_factory=list)
    medication_allergies: list[str] = field(default_factory=list)
    family_medical_history: list[str] = field(default_factory=list)


@dataclass
class SocialHistory:
    smoking_habit: str
    drinking_habit: str
    diet: str | None = None
    exercise_routine: str | None = None
    marital_status: str | None = None
    occupation: str | None = None
    education_level: str | None = None
    annual_income: str | None = None


@dataclass
class IntakeForm:
    intake_form_id: str
    medical_history: MedicalHistory
    social_history: SocialHistory


@dataclass
class Symptom:
    symptom_name: str
    severity: str = ""


@dataclass
class VitalSign:
    body_temperature: float | None = None
    blood_pressure: str | None = None
    weight: float | None = None
    heart_rate: float | None = None


@dataclass
class DiagTest:
    test_name: str
    results: str = ""
    normal_range: str | None = None


@dataclass
class Diagnosis:
    diagnosis_name: str
    icd10: ConceptCode | None = None


@dataclass
class Medication:
    medication_name: str
    dosage: str = ""
    frequency: str = ""


@dataclass
class CarePlan:
    plan_id: str
    description: str = ""
    referral_specialty: str | None = None


@dataclass
class Encounter:
    encounter_id: str
    date: date
    specialty: str
    provider_ref: str
    symptoms: list[Symptom] = field(default_factory=list)
    vitals: list[VitalSign] = field(default_factory=list)
    tests: list[DiagTest] = field(default_factory=list)
    diagnoses: list[Diagnosis] = field(default_factory=list)
    medications: list[Medication] = field(default_factory=list)
    care_plans: list[CarePlan] = field(default_factory=list)


class EdgeKind(str, Enum):
    """Journey link kinds, spelled as they appear in bundle documents.

    ``HAS_FOLLOWUP`` and ``NEXT`` run forward in time (the source encounter
    is no later than the target).  ``CAUSED_BY`` points from an effect back
    to its cause, so the source is no earlier than the target.
    """

    HAS_FOLLOWUP = "hasFollowup"
    CAUSED_BY = "causedBy"
    NEXT = "next"


# How CLI tables and DOT exports spell each link kind.
EDGE_LABELS = {
    EdgeKind.HAS_FOLLOWUP: "hasFollowup",
    EdgeKind.CAUSED_BY: "causedBy",
    EdgeKind.NEXT: "NEXT",
}


@dataclass(frozen=True)
class JourneyEdge:
    """A typed link between two encounters of the same patient.

    ``via`` optionally names a care plan (by plan ID) or diagnosis (by name)
    inside either endpoint that explains a causal link, such as the referral
    that produced a visit.
    """

    kind: EdgeKind
    from_encounter: str
    to_encounter: str
    via: str | None = None


def edge_dates_consistent(kind: EdgeKind, from_date: date, to_date: date) -> bool:
    """Whether an edge of ``kind`` is compatible with its endpoint dates."""
    if kind is EdgeKind.CAUSED_BY:
        return from_date >= to_date
    return from_date <= to_date


def vital_sign_problems(vital: VitalSign) -> list[tuple[str, str]]:
    """(field name, problem) pairs for values outside plausible bounds."""
    problems: list[tuple[str, str]] = []
    temperature = vital.body_temperature
    low, high = BODY_TEMPERATURE_RANGE
    if temperature is not None and not (low <= temperature <= high):
        problems.append(
            ("bodyTemperature", f"value {temperature} outside [{low}, {high}] degrees C")
        )
    if vital.blood_pressure is not None:
        match = BLOOD_PRESSURE_PATTERN.fullmatch(vital.blood_pressure)
        if match is None:
            problems.append(
                ("bloodPressure", f"value {vital.blood_pressure!r} is not <systolic>/<diastolic>")
            )
        else:
            systolic, diastolic = int(match.group(1)), int(match.group(2))
            if not systolic > diastolic > 0:
                problems.append(
                    ("bloodPressure", f"requires systolic > diastolic > 0, got {systolic}/{diastolic}")
                )
    if vital.weight is not None and not (0 < vital.weight < WEIGHT_MAX):
        problems.append(("weight", f"value {vital.weight} outside (0, {WEIGHT_MAX}) kg"))
    if vital.heart_rate is not None and not (0 < vital.heart_rate < HEART_RATE_MAX):
        problems.append(("heartRate", f"value {vital.heart_rate} outside (0, {HEART_RATE_MAX}) bpm"))
    return problems
