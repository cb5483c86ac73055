"""The field checks of every record type but the bundle: code pjo generates.

Do not edit: ``scripts/generate_code.py`` writes it and must be run again after
any change to ``records.FIELDS``, ``graph.RULES`` or a generator in ``pjo._codegen``."""

from datetime import date
from ..codes import ConceptCode, validate_icd10
from ..graph import _ICD10, _INT_BOUND, _SURROGATE
from ..records import CarePlan, ContactInformation, DiagTest, Diagnosis, EdgeKind, Encounter, IntakeForm, JourneyEdge, MedicalHistory, Medication, Patient, Provider, SocialHistory, Symptom, VitalSign, check_blood_pressure, check_body_temperature, check_heart_rate, check_weight, check_years_of_experience


def passes_ContactInformation(record):
    if ((v := record.address) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.phone_number) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.email) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.emergency_contact) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): return True
    return False


def passes_Patient(record):
    if ((v := record.patient_id).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.patient_name).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.birth_date).__class__ is date) and ((v := record.race) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.gender) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((r1 := record.contact) is None or (r1.__class__ is ContactInformation) and ((v := r1.address) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.phone_number) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.email) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.emergency_contact) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v)))) and ((v := record.insurance_name) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.insurance_id) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): return True
    return False


def passes_Provider(record):
    if ((v := record.provider_id).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.provider_name).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.specialization) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.affiliated_institution) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.years_of_experience) is None or (v.__class__ is int) and (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND) and (check_years_of_experience(v) is None)): return True
    return False


def passes_MedicalHistory(record):
    if ((a1 := record.had_surgery).__class__ is list) and ((a2 := record.chronic_illness).__class__ is list) and ((a3 := record.medication_allergies).__class__ is list) and ((a4 := record.family_medical_history).__class__ is list):
        for v in a1:
            if (v.__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)): continue
            break
        else:
            for v in a2:
                if (v.__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)): continue
                break
            else:
                for v in a3:
                    if (v.__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)): continue
                    break
                else:
                    for v in a4:
                        if (v.__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)): continue
                        break
                    else:
                        return True
    return False


def passes_SocialHistory(record):
    if ((v := record.smoking_habit).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.drinking_habit).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.diet) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.exercise_routine) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.marital_status) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.occupation) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.education_level) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.annual_income) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): return True
    return False


def passes_IntakeForm(record):
    a1 = ()
    a2 = ()
    a3 = ()
    a4 = ()
    if ((v := record.intake_form_id).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((r1 := record.medical_history) is None or (r1.__class__ is MedicalHistory) and ((a1 := r1.had_surgery).__class__ is list) and ((a2 := r1.chronic_illness).__class__ is list) and ((a3 := r1.medication_allergies).__class__ is list) and ((a4 := r1.family_medical_history).__class__ is list)) and ((r1 := record.social_history).__class__ is SocialHistory) and ((v := r1.smoking_habit).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := r1.drinking_habit).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := r1.diet) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.exercise_routine) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.marital_status) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.occupation) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.education_level) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.annual_income) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))):
        for v in a1:
            if (v.__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)): continue
            break
        else:
            for v in a2:
                if (v.__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)): continue
                break
            else:
                for v in a3:
                    if (v.__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)): continue
                    break
                else:
                    for v in a4:
                        if (v.__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)): continue
                        break
                    else:
                        return True
    return False


def passes_Symptom(record):
    if ((v := record.symptom_name).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.severity) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): return True
    return False


def passes_VitalSign(record):
    if ((v := record.body_temperature) is None or (v.__class__ is float or v.__class__ is int) and (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND) and (check_body_temperature(v) is None)) and ((v := record.blood_pressure) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v)) and (check_blood_pressure(v) is None)) and ((v := record.weight) is None or (v.__class__ is float or v.__class__ is int) and (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND) and (check_weight(v) is None)) and ((v := record.heart_rate) is None or (v.__class__ is float or v.__class__ is int) and (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND) and (check_heart_rate(v) is None)): return True
    return False


def passes_DiagTest(record):
    if ((v := record.test_name).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.results) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.normal_range) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): return True
    return False


def passes_Diagnosis(record):
    if ((v := record.diagnosis_name).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.icd10) is None or (v.__class__ is ConceptCode) and (v.code.__class__ is str) and (v.system is _ICD10 and validate_icd10(v.code))): return True
    return False


def passes_Medication(record):
    if ((v := record.medication_name).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.dosage) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.frequency) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): return True
    return False


def passes_CarePlan(record):
    if ((v := record.plan_id).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.description) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := record.referral_specialty) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): return True
    return False


def passes_Encounter(record):
    if ((v := record.encounter_id).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.date).__class__ is date) and ((v := record.specialty).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.provider_ref).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((a1 := record.symptoms).__class__ is list) and ((a2 := record.vitals).__class__ is list) and ((a3 := record.tests).__class__ is list) and ((a4 := record.diagnoses).__class__ is list) and ((a5 := record.medications).__class__ is list) and ((a6 := record.care_plans).__class__ is list):
        for r1 in a1:
            if r1.__class__ is Symptom and ((v := r1.symptom_name).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := r1.severity) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): continue
            break
        else:
            for r1 in a2:
                if r1.__class__ is VitalSign and ((v := r1.body_temperature) is None or (v.__class__ is float or v.__class__ is int) and (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND) and (check_body_temperature(v) is None)) and ((v := r1.blood_pressure) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v)) and (check_blood_pressure(v) is None)) and ((v := r1.weight) is None or (v.__class__ is float or v.__class__ is int) and (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND) and (check_weight(v) is None)) and ((v := r1.heart_rate) is None or (v.__class__ is float or v.__class__ is int) and (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND) and (check_heart_rate(v) is None)): continue
                break
            else:
                for r1 in a3:
                    if r1.__class__ is DiagTest and ((v := r1.test_name).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := r1.results) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.normal_range) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): continue
                    break
                else:
                    for r1 in a4:
                        if r1.__class__ is Diagnosis and ((v := r1.diagnosis_name).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := r1.icd10) is None or (v.__class__ is ConceptCode) and (v.code.__class__ is str) and (v.system is _ICD10 and validate_icd10(v.code))): continue
                        break
                    else:
                        for r1 in a5:
                            if r1.__class__ is Medication and ((v := r1.medication_name).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := r1.dosage) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.frequency) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): continue
                            break
                        else:
                            for r1 in a6:
                                if r1.__class__ is CarePlan and ((v := r1.plan_id).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := r1.description) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))) and ((v := r1.referral_specialty) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): continue
                                break
                            else:
                                return True
    return False


def passes_JourneyEdge(record):
    if ((v := record.kind).__class__ is EdgeKind) and (v) and ((v := record.from_encounter).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.to_encounter).__class__ is str) and (v) and (v.isascii() or not _SURROGATE(v)) and ((v := record.via) is None or (v.__class__ is str) and (v.isascii() or not _SURROGATE(v))): return True
    return False


CHECKS = {
    ContactInformation: passes_ContactInformation,
    Patient: passes_Patient,
    Provider: passes_Provider,
    MedicalHistory: passes_MedicalHistory,
    SocialHistory: passes_SocialHistory,
    IntakeForm: passes_IntakeForm,
    Symptom: passes_Symptom,
    VitalSign: passes_VitalSign,
    DiagTest: passes_DiagTest,
    Diagnosis: passes_Diagnosis,
    Medication: passes_Medication,
    CarePlan: passes_CarePlan,
    Encounter: passes_Encounter,
    JourneyEdge: passes_JourneyEdge,
}
