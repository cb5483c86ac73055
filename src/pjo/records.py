"""Record types stored in a journey graph.

A patient owns one optional intake form (medical and social history) and any
number of dated encounters.  Encounters carry clinical subrecords (symptoms,
vital signs, diagnostic tests, diagnoses, medications, care plans) and are
linked to each other by typed journey edges.

``FIELDS`` describes each record's bundle document: its keys in canonical
order, their value types, which are required, and the value checks that
the graph checker also applies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from typing import Any, Callable

from .codes import ConceptCode

BLOOD_PRESSURE_PATTERN = re.compile(r"([0-9]+)/([0-9]+)")

# Plausibility bounds for vital signs; temperature is degrees Celsius,
# weight is kilograms, heart rate is beats per minute.
BODY_TEMPERATURE_RANGE = (25.0, 45.0)
HEART_RATE_MAX = 300.0
WEIGHT_MAX = 500.0


@dataclass(slots=True)
class ContactInformation:
    address: str | None = None
    phone_number: str | None = None
    email: str | None = None
    emergency_contact: str | None = None


@dataclass(slots=True)
class Patient:
    patient_id: str
    patient_name: str
    birth_date: date
    race: str | None = None
    gender: str | None = None
    contact: ContactInformation = field(default_factory=ContactInformation)
    insurance_name: str | None = None
    insurance_id: str | None = None


@dataclass(slots=True)
class Provider:
    provider_id: str
    provider_name: str
    specialization: str | None = None
    affiliated_institution: str | None = None
    years_of_experience: int | None = None


@dataclass(slots=True)
class MedicalHistory:
    had_surgery: list[str] = field(default_factory=list)
    chronic_illness: list[str] = field(default_factory=list)
    medication_allergies: list[str] = field(default_factory=list)
    family_medical_history: list[str] = field(default_factory=list)


@dataclass(slots=True)
class SocialHistory:
    smoking_habit: str
    drinking_habit: str
    diet: str | None = None
    exercise_routine: str | None = None
    marital_status: str | None = None
    occupation: str | None = None
    education_level: str | None = None
    annual_income: str | None = None


@dataclass(slots=True)
class IntakeForm:
    intake_form_id: str
    medical_history: MedicalHistory
    social_history: SocialHistory


@dataclass(slots=True)
class Symptom:
    symptom_name: str
    severity: str = ""


@dataclass(slots=True)
class VitalSign:
    body_temperature: float | None = None
    blood_pressure: str | None = None
    weight: float | None = None
    heart_rate: float | None = None


@dataclass(slots=True)
class DiagTest:
    test_name: str
    results: str = ""
    normal_range: str | None = None


@dataclass(slots=True)
class Diagnosis:
    diagnosis_name: str
    icd10: ConceptCode | None = None


@dataclass(slots=True)
class Medication:
    medication_name: str
    dosage: str = ""
    frequency: str = ""


@dataclass(slots=True)
class CarePlan:
    plan_id: str
    description: str = ""
    referral_specialty: str | None = None


@dataclass(slots=True)
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


@dataclass(frozen=True, slots=True)
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


# Value checks: a problem message for a value outside plausible bounds,
# else None.  The bundle reader applies them through ``FIELDS``; the graph
# checker calls them directly.


def check_body_temperature(value: float) -> str | None:
    low, high = BODY_TEMPERATURE_RANGE
    if not low <= value <= high:
        return f"value {value} outside [{low}, {high}] degrees C"
    return None


def check_blood_pressure(value: str) -> str | None:
    match = BLOOD_PRESSURE_PATTERN.fullmatch(value)
    if match is None:
        return f"value {value!r} is not <systolic>/<diastolic>"
    systolic, diastolic = int(match.group(1)), int(match.group(2))
    if not systolic > diastolic > 0:
        return f"requires systolic > diastolic > 0, got {systolic}/{diastolic}"
    return None


def check_weight(value: float) -> str | None:
    if not 0 < value < WEIGHT_MAX:
        return f"value {value} outside (0, {WEIGHT_MAX}) kg"
    return None


def check_heart_rate(value: float) -> str | None:
    if not 0 < value < HEART_RATE_MAX:
        return f"value {value} outside (0, {HEART_RATE_MAX}) bpm"
    return None


def check_years_of_experience(value: int) -> str | None:
    if value < 0:
        return f"yearsOfExperience must be >= 0, got {value}"
    return None


# Value types of bundle fields.  Strings, dates, ICD-10 codes and link kinds
# are JSON strings; integers and numbers never accept booleans.
STR = "string"
INT = "int"
NUMBER = "number"
DATE = "date"
ICD10 = "icd10"
KIND = "kind"
STRS = "string array"
OBJECT = "object"
OBJECTS = "object array"


@dataclass(frozen=True)
class Field:
    """One key of a record's bundle document.

    A required field must be present and not ``null``; a required string
    must also be nonempty.  ``record`` is the record type held by an
    ``OBJECT`` or ``OBJECTS`` field.  ``check`` returns a problem message
    for a well-typed value outside its plausible bounds, else None.
    """

    key: str
    attr: str
    type: str = STR
    required: bool = False
    record: type | None = None
    check: Callable[[Any], str | None] | None = None


# Every record's bundle fields, in canonical key order.  The table drives
# parsing, serialization and unknown-field warnings.  An absent optional
# object reads as its empty record; an empty one is left out on output.
FIELDS: dict[type, tuple[Field, ...]] = {
    Patient: (
        Field("patientID", "patient_id", required=True),
        Field("patientName", "patient_name", required=True),
        Field("birthDate", "birth_date", DATE, required=True),
        Field("race", "race"),
        Field("gender", "gender"),
        Field("contactInformation", "contact", OBJECT, record=ContactInformation),
        Field("insuranceName", "insurance_name"),
        Field("insuranceID", "insurance_id"),
    ),
    ContactInformation: (
        Field("address", "address"),
        Field("phoneNumber", "phone_number"),
        Field("email", "email"),
        Field("emergencyContact", "emergency_contact"),
    ),
    Provider: (
        Field("providerID", "provider_id", required=True),
        Field("providerName", "provider_name", required=True),
        Field("specialization", "specialization"),
        Field("affiliatedInstitution", "affiliated_institution"),
        Field("yearsOfExperience", "years_of_experience", INT, check=check_years_of_experience),
    ),
    IntakeForm: (
        Field("intakeFormID", "intake_form_id", required=True),
        Field("medicalHistory", "medical_history", OBJECT, record=MedicalHistory),
        Field("socialHistory", "social_history", OBJECT, required=True, record=SocialHistory),
    ),
    MedicalHistory: (
        Field("hadSurgery", "had_surgery", STRS),
        Field("chronicIllness", "chronic_illness", STRS),
        Field("medicationAllergies", "medication_allergies", STRS),
        Field("familyMedicalHistory", "family_medical_history", STRS),
    ),
    SocialHistory: (
        Field("smokingHabit", "smoking_habit", required=True),
        Field("drinkingHabit", "drinking_habit", required=True),
        Field("diet", "diet"),
        Field("exerciseRoutine", "exercise_routine"),
        Field("maritalStatus", "marital_status"),
        Field("occupation", "occupation"),
        Field("educationLevel", "education_level"),
        Field("annualIncome", "annual_income"),
    ),
    Encounter: (
        Field("encounterID", "encounter_id", required=True),
        Field("date", "date", DATE, required=True),
        Field("specialty", "specialty", required=True),
        Field("providerRef", "provider_ref", required=True),
        Field("symptoms", "symptoms", OBJECTS, record=Symptom),
        Field("vitals", "vitals", OBJECTS, record=VitalSign),
        Field("tests", "tests", OBJECTS, record=DiagTest),
        Field("diagnoses", "diagnoses", OBJECTS, record=Diagnosis),
        Field("medications", "medications", OBJECTS, record=Medication),
        Field("carePlans", "care_plans", OBJECTS, record=CarePlan),
    ),
    Symptom: (
        Field("symptomName", "symptom_name", required=True),
        Field("severity", "severity"),
    ),
    VitalSign: (
        Field("bodyTemperature", "body_temperature", NUMBER, check=check_body_temperature),
        Field("bloodPressure", "blood_pressure", check=check_blood_pressure),
        Field("weight", "weight", NUMBER, check=check_weight),
        Field("heartRate", "heart_rate", NUMBER, check=check_heart_rate),
    ),
    DiagTest: (
        Field("testName", "test_name", required=True),
        Field("results", "results"),
        Field("normalRange", "normal_range"),
    ),
    Diagnosis: (
        Field("diagnosisName", "diagnosis_name", required=True),
        Field("icd10", "icd10", ICD10),
    ),
    Medication: (
        Field("medicationName", "medication_name", required=True),
        Field("dosage", "dosage"),
        Field("frequency", "frequency"),
    ),
    CarePlan: (
        Field("planID", "plan_id", required=True),
        Field("description", "description"),
        Field("referralSpecialty", "referral_specialty"),
    ),
    JourneyEdge: (
        Field("kind", "kind", KIND, required=True),
        Field("from", "from_encounter", required=True),
        Field("to", "to_encounter", required=True),
        Field("via", "via"),
    ),
}


def vital_sign_problems(vital: VitalSign) -> list[tuple[str, str]]:
    """(field name, problem) pairs for values outside plausible bounds."""
    problems: list[tuple[str, str]] = []
    value = vital.body_temperature
    if value is not None and (message := check_body_temperature(value)) is not None:
        problems.append(("bodyTemperature", message))
    value = vital.blood_pressure
    if value is not None and (message := check_blood_pressure(value)) is not None:
        problems.append(("bloodPressure", message))
    value = vital.weight
    if value is not None and (message := check_weight(value)) is not None:
        problems.append(("weight", message))
    value = vital.heart_rate
    if value is not None and (message := check_heart_rate(value)) is not None:
        problems.append(("heartRate", message))
    return problems
