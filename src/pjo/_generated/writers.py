"""The bundle writers: code pjo generates.

Do not edit: ``scripts/generate_code.py`` writes it and must be run again after
any change to ``records.FIELDS``, ``graph.RULES`` or a generator in ``pjo._codegen``."""

from datetime import date
from ..bundle import _encode, _unwritable
from ..codes import ConceptCode
from ..graph import _ICD10
from ..records import CarePlan, ContactInformation, DiagTest, Diagnosis, EdgeKind, Encounter, IntakeForm, JourneyEdge, KIND_TEXT, MedicalHistory, Medication, Patient, Provider, SocialHistory, Symptom, VitalSign

isoformat = date.isoformat
P3_specialization = ',\n      "specialization": '
P3_affiliatedInstitution = ',\n      "affiliatedInstitution": '
P3_yearsOfExperience = ',\n      "yearsOfExperience": '
P3_via = ',\n      "via": '
P5_bodyTemperature = ',\n          "bodyTemperature": '
P5_bloodPressure = ',\n          "bloodPressure": '
P5_weight = ',\n          "weight": '
P5_heartRate = ',\n          "heartRate": '
P5_normalRange = ',\n          "normalRange": '
P5_icd10 = ',\n          "icd10": '
P5_referralSpecialty = ',\n          "referralSpecialty": '


def write_Bundle_0(r):
    parts = []
    parts.append('\n  "formatVersion": ' + (_encode(v) if ((v := r.format_version).__class__ is str) else _unwritable(v)))
    parts.append('\n  "patient": ' + (write_Patient_1(v) if (v := r.patient).__class__ is Patient else _unwritable(v)))
    if (v := r.providers).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append(f'{{\n      "providerID": {_encode(e0)},\n      "providerName": {_encode(e1)}{P3_specialization + (_encode(e2) if (e2.__class__ is str) else _unwritable(e2)) if (e2 := x.specialization) is not None else ""}{P3_affiliatedInstitution + (_encode(e3) if (e3.__class__ is str) else _unwritable(e3)) if (e3 := x.affiliated_institution) is not None else ""}{P3_yearsOfExperience + (int.__repr__(e4) if (e4.__class__ is int) else _unwritable(e4)) if (e4 := x.years_of_experience) is not None else ""}\n    }}' if x.__class__ is Provider and ((e0 := x.provider_id).__class__ is str) and ((e1 := x.provider_name).__class__ is str) else _unwritable(x))
    parts.append('\n  "providers": ' + ('[\n    ' + ',\n    '.join(a) + '\n  ]' if a else '[]'))
    if (v := r.intake_form) is not None and (t := (write_IntakeForm_1(v) if v.__class__ is IntakeForm else _unwritable(v))) != '{}': parts.append('\n  "intakeForm": ' + t)
    if (v := r.encounters).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append((write_Encounter_2(x) if x.__class__ is Encounter else _unwritable(x)))
    parts.append('\n  "encounters": ' + ('[\n    ' + ',\n    '.join(a) + '\n  ]' if a else '[]'))
    if (v := r.links).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append(f'{{\n      "kind": {_encode(KIND_TEXT[e0])},\n      "from": {_encode(e1)},\n      "to": {_encode(e2)}{P3_via + (_encode(e3) if (e3.__class__ is str) else _unwritable(e3)) if (e3 := x.via) is not None else ""}\n    }}' if x.__class__ is JourneyEdge and ((e0 := x.kind).__class__ is EdgeKind) and ((e1 := x.from_encounter).__class__ is str) and ((e2 := x.to_encounter).__class__ is str) else _unwritable(x))
    parts.append('\n  "links": ' + ('[\n    ' + ',\n    '.join(a) + '\n  ]' if a else '[]'))
    return '{' + ','.join(parts) + '\n}' if parts else '{}'


def write_Patient_1(r):
    parts = []
    parts.append('\n    "patientID": ' + (_encode(v) if ((v := r.patient_id).__class__ is str) else _unwritable(v)))
    parts.append('\n    "patientName": ' + (_encode(v) if ((v := r.patient_name).__class__ is str) else _unwritable(v)))
    parts.append('\n    "birthDate": ' + (_encode(isoformat(v)) if ((v := r.birth_date).__class__ is date) else _unwritable(v)))
    if (v := r.race) is not None: parts.append('\n    "race": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.gender) is not None: parts.append('\n    "gender": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.contact) is None: v = ContactInformation()
    if (t := (write_ContactInformation_2(v) if v.__class__ is ContactInformation else _unwritable(v))) != '{}': parts.append('\n    "contactInformation": ' + t)
    if (v := r.insurance_name) is not None: parts.append('\n    "insuranceName": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.insurance_id) is not None: parts.append('\n    "insuranceID": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    return '{' + ','.join(parts) + '\n  }' if parts else '{}'


def write_ContactInformation_2(r):
    parts = []
    if (v := r.address) is not None: parts.append('\n      "address": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.phone_number) is not None: parts.append('\n      "phoneNumber": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.email) is not None: parts.append('\n      "email": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.emergency_contact) is not None: parts.append('\n      "emergencyContact": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    return '{' + ','.join(parts) + '\n    }' if parts else '{}'


def write_IntakeForm_1(r):
    parts = []
    parts.append('\n    "intakeFormID": ' + (_encode(v) if ((v := r.intake_form_id).__class__ is str) else _unwritable(v)))
    if (v := r.medical_history) is None: v = MedicalHistory()
    if (t := (write_MedicalHistory_2(v) if v.__class__ is MedicalHistory else _unwritable(v))) != '{}': parts.append('\n    "medicalHistory": ' + t)
    parts.append('\n    "socialHistory": ' + (write_SocialHistory_2(v) if (v := r.social_history).__class__ is SocialHistory else _unwritable(v)))
    return '{' + ','.join(parts) + '\n  }' if parts else '{}'


def write_MedicalHistory_2(r):
    parts = []
    if (v := r.had_surgery).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append((_encode(x) if (x.__class__ is str) else _unwritable(x)))
    parts.append('\n      "hadSurgery": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
    if (v := r.chronic_illness).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append((_encode(x) if (x.__class__ is str) else _unwritable(x)))
    parts.append('\n      "chronicIllness": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
    if (v := r.medication_allergies).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append((_encode(x) if (x.__class__ is str) else _unwritable(x)))
    parts.append('\n      "medicationAllergies": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
    if (v := r.family_medical_history).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append((_encode(x) if (x.__class__ is str) else _unwritable(x)))
    parts.append('\n      "familyMedicalHistory": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
    return '{' + ','.join(parts) + '\n    }' if parts else '{}'


def write_SocialHistory_2(r):
    parts = []
    parts.append('\n      "smokingHabit": ' + (_encode(v) if ((v := r.smoking_habit).__class__ is str) else _unwritable(v)))
    parts.append('\n      "drinkingHabit": ' + (_encode(v) if ((v := r.drinking_habit).__class__ is str) else _unwritable(v)))
    if (v := r.diet) is not None: parts.append('\n      "diet": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.exercise_routine) is not None: parts.append('\n      "exerciseRoutine": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.marital_status) is not None: parts.append('\n      "maritalStatus": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.occupation) is not None: parts.append('\n      "occupation": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.education_level) is not None: parts.append('\n      "educationLevel": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    if (v := r.annual_income) is not None: parts.append('\n      "annualIncome": ' + (_encode(v) if (v.__class__ is str) else _unwritable(v)))
    return '{' + ','.join(parts) + '\n    }' if parts else '{}'


def write_Encounter_2(r):
    parts = []
    parts.append('\n      "encounterID": ' + (_encode(v) if ((v := r.encounter_id).__class__ is str) else _unwritable(v)))
    parts.append('\n      "date": ' + (_encode(isoformat(v)) if ((v := r.date).__class__ is date) else _unwritable(v)))
    parts.append('\n      "specialty": ' + (_encode(v) if ((v := r.specialty).__class__ is str) else _unwritable(v)))
    parts.append('\n      "providerRef": ' + (_encode(v) if ((v := r.provider_ref).__class__ is str) else _unwritable(v)))
    if (v := r.symptoms).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append(f'{{\n          "symptomName": {_encode(e0)},\n          "severity": {_encode(e1)}\n        }}' if x.__class__ is Symptom and ((e0 := x.symptom_name).__class__ is str) and (((e1 := x.severity).__class__ is str) or e1 is None and (e1 := '') is not None) else _unwritable(x))
    parts.append('\n      "symptoms": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
    if (v := r.vitals).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append((f'{{{t[1:]}\n        }}' if (t := f'{P5_bodyTemperature + (repr(e0) if (e0.__class__ is float or e0.__class__ is int) and (e0 - e0 == 0) else _unwritable(e0)) if (e0 := x.body_temperature) is not None else ""}{P5_bloodPressure + (_encode(e1) if (e1.__class__ is str) else _unwritable(e1)) if (e1 := x.blood_pressure) is not None else ""}{P5_weight + (repr(e2) if (e2.__class__ is float or e2.__class__ is int) and (e2 - e2 == 0) else _unwritable(e2)) if (e2 := x.weight) is not None else ""}{P5_heartRate + (repr(e3) if (e3.__class__ is float or e3.__class__ is int) and (e3 - e3 == 0) else _unwritable(e3)) if (e3 := x.heart_rate) is not None else ""}') else '{}') if x.__class__ is VitalSign else _unwritable(x))
    parts.append('\n      "vitals": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
    if (v := r.tests).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append(f'{{\n          "testName": {_encode(e0)},\n          "results": {_encode(e1)}{P5_normalRange + (_encode(e2) if (e2.__class__ is str) else _unwritable(e2)) if (e2 := x.normal_range) is not None else ""}\n        }}' if x.__class__ is DiagTest and ((e0 := x.test_name).__class__ is str) and (((e1 := x.results).__class__ is str) or e1 is None and (e1 := '') is not None) else _unwritable(x))
    parts.append('\n      "tests": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
    if (v := r.diagnoses).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append(f'{{\n          "diagnosisName": {_encode(e0)}{P5_icd10 + (_encode(e1.code) if (e1.__class__ is ConceptCode) and (e1.code.__class__ is str) and (e1.system is _ICD10) else _unwritable(e1)) if (e1 := x.icd10) is not None else ""}\n        }}' if x.__class__ is Diagnosis and ((e0 := x.diagnosis_name).__class__ is str) else _unwritable(x))
    parts.append('\n      "diagnoses": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
    if (v := r.medications).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append(f'{{\n          "medicationName": {_encode(e0)},\n          "dosage": {_encode(e1)},\n          "frequency": {_encode(e2)}\n        }}' if x.__class__ is Medication and ((e0 := x.medication_name).__class__ is str) and (((e1 := x.dosage).__class__ is str) or e1 is None and (e1 := '') is not None) and (((e2 := x.frequency).__class__ is str) or e2 is None and (e2 := '') is not None) else _unwritable(x))
    parts.append('\n      "medications": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
    if (v := r.care_plans).__class__ is not list: _unwritable(v)
    a = []
    for x in v:
        a.append(f'{{\n          "planID": {_encode(e0)},\n          "description": {_encode(e1)}{P5_referralSpecialty + (_encode(e2) if (e2.__class__ is str) else _unwritable(e2)) if (e2 := x.referral_specialty) is not None else ""}\n        }}' if x.__class__ is CarePlan and ((e0 := x.plan_id).__class__ is str) and (((e1 := x.description).__class__ is str) or e1 is None and (e1 := '') is not None) else _unwritable(x))
    parts.append('\n      "carePlans": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
    return '{' + ','.join(parts) + '\n    }' if parts else '{}'
