"""The field checks of every record type but the bundle: code pjo generates.

Do not edit: ``scripts/generate_code.py`` writes it and must be run again after
any change to ``records.FIELDS``, ``graph.RULES`` or a generator in ``pjo._codegen``."""

from datetime import date
from ..codes import ConceptCode, validate_icd10
from ..graph import _ICD10
from ..records import CarePlan, ContactInformation, DiagTest, Diagnosis, EdgeKind, Encounter, IntakeForm, JourneyEdge, MedicalHistory, Medication, Patient, Provider, SocialHistory, Symptom, VitalSign, check_blood_pressure, check_body_temperature, check_heart_rate, check_weight, check_years_of_experience


def field_problems_ContactInformation(record):
    if ((v := record.address) is None or (v.__class__ is str)) and ((v := record.phone_number) is None or (v.__class__ is str)) and ((v := record.email) is None or (v.__class__ is str)) and ((v := record.emergency_contact) is None or (v.__class__ is str)): return []
    problems = []
    if (v := record.address) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'address', 'invalid-type', f'address must be a string'))
    if (v := record.phone_number) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'phoneNumber', 'invalid-type', f'phoneNumber must be a string'))
    if (v := record.email) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'email', 'invalid-type', f'email must be a string'))
    if (v := record.emergency_contact) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'emergencyContact', 'invalid-type', f'emergencyContact must be a string'))
    return problems


def field_problems_Patient(record):
    if ((v := record.patient_id).__class__ is str) and (v) and ((v := record.patient_name).__class__ is str) and (v) and ((v := record.birth_date).__class__ is date) and ((v := record.race) is None or (v.__class__ is str)) and ((v := record.gender) is None or (v.__class__ is str)) and ((r1 := record.contact) is None or (r1.__class__ is ContactInformation) and ((v := r1.address) is None or (v.__class__ is str)) and ((v := r1.phone_number) is None or (v.__class__ is str)) and ((v := r1.email) is None or (v.__class__ is str)) and ((v := r1.emergency_contact) is None or (v.__class__ is str))) and ((v := record.insurance_name) is None or (v.__class__ is str)) and ((v := record.insurance_id) is None or (v.__class__ is str)): return []
    problems = []
    v = record.patient_id
    if not (v is None or v.__class__ is str): problems.append((f'patientID', 'invalid-type', f'patientID must be a string'))
    elif not (v): problems.append((f'patientID', 'field-invalid', f'patientID must be nonempty'))
    v = record.patient_name
    if not (v is None or v.__class__ is str): problems.append((f'patientName', 'invalid-type', f'patientName must be a string'))
    elif not (v): problems.append((f'patientName', 'field-invalid', f'patientName must be nonempty'))
    v = record.birth_date
    if not (v is None or v.__class__ is date): problems.append((f'birthDate', 'invalid-type', f'birthDate must be a date'))
    elif not (v): problems.append((f'birthDate', 'field-invalid', f'birthDate must be nonempty'))
    if (v := record.race) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'race', 'invalid-type', f'race must be a string'))
    if (v := record.gender) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'gender', 'invalid-type', f'gender must be a string'))
    r1 = record.contact
    if not (r1 is None or r1.__class__ is ContactInformation): problems.append((f'contactInformation', 'invalid-type', f'contactInformation must be a ContactInformation'))
    elif r1 is not None:
        if (v := r1.address) is not None:
            if not (v is None or v.__class__ is str): problems.append((f'contactInformation.address', 'invalid-type', f'address must be a string'))
        if (v := r1.phone_number) is not None:
            if not (v is None or v.__class__ is str): problems.append((f'contactInformation.phoneNumber', 'invalid-type', f'phoneNumber must be a string'))
        if (v := r1.email) is not None:
            if not (v is None or v.__class__ is str): problems.append((f'contactInformation.email', 'invalid-type', f'email must be a string'))
        if (v := r1.emergency_contact) is not None:
            if not (v is None or v.__class__ is str): problems.append((f'contactInformation.emergencyContact', 'invalid-type', f'emergencyContact must be a string'))
    if (v := record.insurance_name) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'insuranceName', 'invalid-type', f'insuranceName must be a string'))
    if (v := record.insurance_id) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'insuranceID', 'invalid-type', f'insuranceID must be a string'))
    return problems


def field_problems_Provider(record):
    if ((v := record.provider_id).__class__ is str) and (v) and ((v := record.provider_name).__class__ is str) and (v) and ((v := record.specialization) is None or (v.__class__ is str)) and ((v := record.affiliated_institution) is None or (v.__class__ is str)) and ((v := record.years_of_experience) is None or (v.__class__ is int) and (check_years_of_experience(v) is None)): return []
    problems = []
    v = record.provider_id
    if not (v is None or v.__class__ is str): problems.append((f'providerID', 'invalid-type', f'providerID must be a string'))
    elif not (v): problems.append((f'providerID', 'field-invalid', f'providerID must be nonempty'))
    v = record.provider_name
    if not (v is None or v.__class__ is str): problems.append((f'providerName', 'invalid-type', f'providerName must be a string'))
    elif not (v): problems.append((f'providerName', 'field-invalid', f'providerName must be nonempty'))
    if (v := record.specialization) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'specialization', 'invalid-type', f'specialization must be a string'))
    if (v := record.affiliated_institution) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'affiliatedInstitution', 'invalid-type', f'affiliatedInstitution must be a string'))
    if (v := record.years_of_experience) is not None:
        if not (v is None or v.__class__ is int): problems.append((f'yearsOfExperience', 'invalid-type', f'yearsOfExperience must be an integer'))
        elif not (check_years_of_experience(v) is None): problems.append((f'yearsOfExperience', 'field-invalid', f'{check_years_of_experience(v)}'))
    return problems


def field_problems_MedicalHistory(record):
    if ((a1 := record.had_surgery).__class__ is list) and ((a2 := record.chronic_illness).__class__ is list) and ((a3 := record.medication_allergies).__class__ is list) and ((a4 := record.family_medical_history).__class__ is list):
        for v in a1:
            if (v.__class__ is str) and (v): continue
            break
        else:
            for v in a2:
                if (v.__class__ is str) and (v): continue
                break
            else:
                for v in a3:
                    if (v.__class__ is str) and (v): continue
                    break
                else:
                    for v in a4:
                        if (v.__class__ is str) and (v): continue
                        break
                    else:
                        return []
    problems = []
    a1 = record.had_surgery
    if not (a1.__class__ is list): problems.append((f'hadSurgery', 'invalid-type', f'hadSurgery must be a list'))
    else:
        for i1, v in enumerate(a1):
            if not (v is None or v.__class__ is str): problems.append((f'hadSurgery[{i1}]', 'invalid-type', f'hadSurgery entries must be a string'))
            elif not (v): problems.append((f'hadSurgery[{i1}]', 'field-invalid', f'hadSurgery entries must be nonempty'))
    a1 = record.chronic_illness
    if not (a1.__class__ is list): problems.append((f'chronicIllness', 'invalid-type', f'chronicIllness must be a list'))
    else:
        for i1, v in enumerate(a1):
            if not (v is None or v.__class__ is str): problems.append((f'chronicIllness[{i1}]', 'invalid-type', f'chronicIllness entries must be a string'))
            elif not (v): problems.append((f'chronicIllness[{i1}]', 'field-invalid', f'chronicIllness entries must be nonempty'))
    a1 = record.medication_allergies
    if not (a1.__class__ is list): problems.append((f'medicationAllergies', 'invalid-type', f'medicationAllergies must be a list'))
    else:
        for i1, v in enumerate(a1):
            if not (v is None or v.__class__ is str): problems.append((f'medicationAllergies[{i1}]', 'invalid-type', f'medicationAllergies entries must be a string'))
            elif not (v): problems.append((f'medicationAllergies[{i1}]', 'field-invalid', f'medicationAllergies entries must be nonempty'))
    a1 = record.family_medical_history
    if not (a1.__class__ is list): problems.append((f'familyMedicalHistory', 'invalid-type', f'familyMedicalHistory must be a list'))
    else:
        for i1, v in enumerate(a1):
            if not (v is None or v.__class__ is str): problems.append((f'familyMedicalHistory[{i1}]', 'invalid-type', f'familyMedicalHistory entries must be a string'))
            elif not (v): problems.append((f'familyMedicalHistory[{i1}]', 'field-invalid', f'familyMedicalHistory entries must be nonempty'))
    return problems


def field_problems_SocialHistory(record):
    if ((v := record.smoking_habit).__class__ is str) and (v) and ((v := record.drinking_habit).__class__ is str) and (v) and ((v := record.diet) is None or (v.__class__ is str)) and ((v := record.exercise_routine) is None or (v.__class__ is str)) and ((v := record.marital_status) is None or (v.__class__ is str)) and ((v := record.occupation) is None or (v.__class__ is str)) and ((v := record.education_level) is None or (v.__class__ is str)) and ((v := record.annual_income) is None or (v.__class__ is str)): return []
    problems = []
    v = record.smoking_habit
    if not (v is None or v.__class__ is str): problems.append((f'smokingHabit', 'invalid-type', f'smokingHabit must be a string'))
    elif not (v): problems.append((f'smokingHabit', 'field-invalid', f'smokingHabit must be nonempty'))
    v = record.drinking_habit
    if not (v is None or v.__class__ is str): problems.append((f'drinkingHabit', 'invalid-type', f'drinkingHabit must be a string'))
    elif not (v): problems.append((f'drinkingHabit', 'field-invalid', f'drinkingHabit must be nonempty'))
    if (v := record.diet) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'diet', 'invalid-type', f'diet must be a string'))
    if (v := record.exercise_routine) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'exerciseRoutine', 'invalid-type', f'exerciseRoutine must be a string'))
    if (v := record.marital_status) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'maritalStatus', 'invalid-type', f'maritalStatus must be a string'))
    if (v := record.occupation) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'occupation', 'invalid-type', f'occupation must be a string'))
    if (v := record.education_level) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'educationLevel', 'invalid-type', f'educationLevel must be a string'))
    if (v := record.annual_income) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'annualIncome', 'invalid-type', f'annualIncome must be a string'))
    return problems


def field_problems_IntakeForm(record):
    a1 = ()
    a2 = ()
    a3 = ()
    a4 = ()
    if ((v := record.intake_form_id).__class__ is str) and (v) and ((r1 := record.medical_history) is None or (r1.__class__ is MedicalHistory) and ((a1 := r1.had_surgery).__class__ is list) and ((a2 := r1.chronic_illness).__class__ is list) and ((a3 := r1.medication_allergies).__class__ is list) and ((a4 := r1.family_medical_history).__class__ is list)) and ((r1 := record.social_history).__class__ is SocialHistory) and ((v := r1.smoking_habit).__class__ is str) and (v) and ((v := r1.drinking_habit).__class__ is str) and (v) and ((v := r1.diet) is None or (v.__class__ is str)) and ((v := r1.exercise_routine) is None or (v.__class__ is str)) and ((v := r1.marital_status) is None or (v.__class__ is str)) and ((v := r1.occupation) is None or (v.__class__ is str)) and ((v := r1.education_level) is None or (v.__class__ is str)) and ((v := r1.annual_income) is None or (v.__class__ is str)):
        for v in a1:
            if (v.__class__ is str) and (v): continue
            break
        else:
            for v in a2:
                if (v.__class__ is str) and (v): continue
                break
            else:
                for v in a3:
                    if (v.__class__ is str) and (v): continue
                    break
                else:
                    for v in a4:
                        if (v.__class__ is str) and (v): continue
                        break
                    else:
                        return []
    problems = []
    v = record.intake_form_id
    if not (v is None or v.__class__ is str): problems.append((f'intakeFormID', 'invalid-type', f'intakeFormID must be a string'))
    elif not (v): problems.append((f'intakeFormID', 'field-invalid', f'intakeFormID must be nonempty'))
    r1 = record.medical_history
    if not (r1 is None or r1.__class__ is MedicalHistory): problems.append((f'medicalHistory', 'invalid-type', f'medicalHistory must be a MedicalHistory'))
    elif r1 is not None:
        a2 = r1.had_surgery
        if not (a2.__class__ is list): problems.append((f'medicalHistory.hadSurgery', 'invalid-type', f'hadSurgery must be a list'))
        else:
            for i2, v in enumerate(a2):
                if not (v is None or v.__class__ is str): problems.append((f'medicalHistory.hadSurgery[{i2}]', 'invalid-type', f'hadSurgery entries must be a string'))
                elif not (v): problems.append((f'medicalHistory.hadSurgery[{i2}]', 'field-invalid', f'hadSurgery entries must be nonempty'))
        a2 = r1.chronic_illness
        if not (a2.__class__ is list): problems.append((f'medicalHistory.chronicIllness', 'invalid-type', f'chronicIllness must be a list'))
        else:
            for i2, v in enumerate(a2):
                if not (v is None or v.__class__ is str): problems.append((f'medicalHistory.chronicIllness[{i2}]', 'invalid-type', f'chronicIllness entries must be a string'))
                elif not (v): problems.append((f'medicalHistory.chronicIllness[{i2}]', 'field-invalid', f'chronicIllness entries must be nonempty'))
        a2 = r1.medication_allergies
        if not (a2.__class__ is list): problems.append((f'medicalHistory.medicationAllergies', 'invalid-type', f'medicationAllergies must be a list'))
        else:
            for i2, v in enumerate(a2):
                if not (v is None or v.__class__ is str): problems.append((f'medicalHistory.medicationAllergies[{i2}]', 'invalid-type', f'medicationAllergies entries must be a string'))
                elif not (v): problems.append((f'medicalHistory.medicationAllergies[{i2}]', 'field-invalid', f'medicationAllergies entries must be nonempty'))
        a2 = r1.family_medical_history
        if not (a2.__class__ is list): problems.append((f'medicalHistory.familyMedicalHistory', 'invalid-type', f'familyMedicalHistory must be a list'))
        else:
            for i2, v in enumerate(a2):
                if not (v is None or v.__class__ is str): problems.append((f'medicalHistory.familyMedicalHistory[{i2}]', 'invalid-type', f'familyMedicalHistory entries must be a string'))
                elif not (v): problems.append((f'medicalHistory.familyMedicalHistory[{i2}]', 'field-invalid', f'familyMedicalHistory entries must be nonempty'))
    r1 = record.social_history
    if not (r1.__class__ is SocialHistory): problems.append((f'socialHistory', 'invalid-type', f'socialHistory must be a SocialHistory'))
    elif r1 is not None:
        v = r1.smoking_habit
        if not (v is None or v.__class__ is str): problems.append((f'socialHistory.smokingHabit', 'invalid-type', f'smokingHabit must be a string'))
        elif not (v): problems.append((f'socialHistory.smokingHabit', 'field-invalid', f'smokingHabit must be nonempty'))
        v = r1.drinking_habit
        if not (v is None or v.__class__ is str): problems.append((f'socialHistory.drinkingHabit', 'invalid-type', f'drinkingHabit must be a string'))
        elif not (v): problems.append((f'socialHistory.drinkingHabit', 'field-invalid', f'drinkingHabit must be nonempty'))
        if (v := r1.diet) is not None:
            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.diet', 'invalid-type', f'diet must be a string'))
        if (v := r1.exercise_routine) is not None:
            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.exerciseRoutine', 'invalid-type', f'exerciseRoutine must be a string'))
        if (v := r1.marital_status) is not None:
            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.maritalStatus', 'invalid-type', f'maritalStatus must be a string'))
        if (v := r1.occupation) is not None:
            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.occupation', 'invalid-type', f'occupation must be a string'))
        if (v := r1.education_level) is not None:
            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.educationLevel', 'invalid-type', f'educationLevel must be a string'))
        if (v := r1.annual_income) is not None:
            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.annualIncome', 'invalid-type', f'annualIncome must be a string'))
    return problems


def field_problems_Symptom(record):
    if ((v := record.symptom_name).__class__ is str) and (v) and ((v := record.severity) is None or (v.__class__ is str)): return []
    problems = []
    v = record.symptom_name
    if not (v is None or v.__class__ is str): problems.append((f'symptomName', 'invalid-type', f'symptomName must be a string'))
    elif not (v): problems.append((f'symptomName', 'field-invalid', f'symptomName must be nonempty'))
    if (v := record.severity) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'severity', 'invalid-type', f'severity must be a string'))
    return problems


def field_problems_VitalSign(record):
    if ((v := record.body_temperature) is None or (v.__class__ is float or v.__class__ is int) and (check_body_temperature(v) is None)) and ((v := record.blood_pressure) is None or (v.__class__ is str) and (check_blood_pressure(v) is None)) and ((v := record.weight) is None or (v.__class__ is float or v.__class__ is int) and (check_weight(v) is None)) and ((v := record.heart_rate) is None or (v.__class__ is float or v.__class__ is int) and (check_heart_rate(v) is None)): return []
    problems = []
    if (v := record.body_temperature) is not None:
        if not (v is None or v.__class__ is float or v.__class__ is int): problems.append((f'bodyTemperature', 'invalid-type', f'bodyTemperature must be a number'))
        elif not (check_body_temperature(v) is None): problems.append((f'bodyTemperature', 'field-invalid', f'{check_body_temperature(v)}'))
    if (v := record.blood_pressure) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'bloodPressure', 'invalid-type', f'bloodPressure must be a string'))
        elif not (check_blood_pressure(v) is None): problems.append((f'bloodPressure', 'field-invalid', f'{check_blood_pressure(v)}'))
    if (v := record.weight) is not None:
        if not (v is None or v.__class__ is float or v.__class__ is int): problems.append((f'weight', 'invalid-type', f'weight must be a number'))
        elif not (check_weight(v) is None): problems.append((f'weight', 'field-invalid', f'{check_weight(v)}'))
    if (v := record.heart_rate) is not None:
        if not (v is None or v.__class__ is float or v.__class__ is int): problems.append((f'heartRate', 'invalid-type', f'heartRate must be a number'))
        elif not (check_heart_rate(v) is None): problems.append((f'heartRate', 'field-invalid', f'{check_heart_rate(v)}'))
    return problems


def field_problems_DiagTest(record):
    if ((v := record.test_name).__class__ is str) and (v) and ((v := record.results) is None or (v.__class__ is str)) and ((v := record.normal_range) is None or (v.__class__ is str)): return []
    problems = []
    v = record.test_name
    if not (v is None or v.__class__ is str): problems.append((f'testName', 'invalid-type', f'testName must be a string'))
    elif not (v): problems.append((f'testName', 'field-invalid', f'testName must be nonempty'))
    if (v := record.results) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'results', 'invalid-type', f'results must be a string'))
    if (v := record.normal_range) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'normalRange', 'invalid-type', f'normalRange must be a string'))
    return problems


def field_problems_Diagnosis(record):
    if ((v := record.diagnosis_name).__class__ is str) and (v) and ((v := record.icd10) is None or (v.__class__ is ConceptCode) and (v.system is _ICD10 and validate_icd10(v.code))): return []
    problems = []
    v = record.diagnosis_name
    if not (v is None or v.__class__ is str): problems.append((f'diagnosisName', 'invalid-type', f'diagnosisName must be a string'))
    elif not (v): problems.append((f'diagnosisName', 'field-invalid', f'diagnosisName must be nonempty'))
    if (v := record.icd10) is not None:
        if not (v is None or v.__class__ is ConceptCode): problems.append((f'icd10', 'invalid-type', f'icd10 must be a ConceptCode'))
        elif not (v.system is _ICD10 and validate_icd10(v.code)): problems.append((f'icd10', 'bad-icd10', f'{v.code!r} is not a valid ICD10 code'))
    return problems


def field_problems_Medication(record):
    if ((v := record.medication_name).__class__ is str) and (v) and ((v := record.dosage) is None or (v.__class__ is str)) and ((v := record.frequency) is None or (v.__class__ is str)): return []
    problems = []
    v = record.medication_name
    if not (v is None or v.__class__ is str): problems.append((f'medicationName', 'invalid-type', f'medicationName must be a string'))
    elif not (v): problems.append((f'medicationName', 'field-invalid', f'medicationName must be nonempty'))
    if (v := record.dosage) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'dosage', 'invalid-type', f'dosage must be a string'))
    if (v := record.frequency) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'frequency', 'invalid-type', f'frequency must be a string'))
    return problems


def field_problems_CarePlan(record):
    if ((v := record.plan_id).__class__ is str) and (v) and ((v := record.description) is None or (v.__class__ is str)) and ((v := record.referral_specialty) is None or (v.__class__ is str)): return []
    problems = []
    v = record.plan_id
    if not (v is None or v.__class__ is str): problems.append((f'planID', 'invalid-type', f'planID must be a string'))
    elif not (v): problems.append((f'planID', 'field-invalid', f'planID must be nonempty'))
    if (v := record.description) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'description', 'invalid-type', f'description must be a string'))
    if (v := record.referral_specialty) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'referralSpecialty', 'invalid-type', f'referralSpecialty must be a string'))
    return problems


def field_problems_Encounter(record):
    if ((v := record.encounter_id).__class__ is str) and (v) and ((v := record.date).__class__ is date) and ((v := record.specialty).__class__ is str) and (v) and ((v := record.provider_ref).__class__ is str) and (v) and ((a1 := record.symptoms).__class__ is list) and ((a2 := record.vitals).__class__ is list) and ((a3 := record.tests).__class__ is list) and ((a4 := record.diagnoses).__class__ is list) and ((a5 := record.medications).__class__ is list) and ((a6 := record.care_plans).__class__ is list):
        for r1 in a1:
            if r1.__class__ is Symptom and ((v := r1.symptom_name).__class__ is str) and (v) and ((v := r1.severity) is None or (v.__class__ is str)): continue
            break
        else:
            for r1 in a2:
                if r1.__class__ is VitalSign and ((v := r1.body_temperature) is None or (v.__class__ is float or v.__class__ is int) and (check_body_temperature(v) is None)) and ((v := r1.blood_pressure) is None or (v.__class__ is str) and (check_blood_pressure(v) is None)) and ((v := r1.weight) is None or (v.__class__ is float or v.__class__ is int) and (check_weight(v) is None)) and ((v := r1.heart_rate) is None or (v.__class__ is float or v.__class__ is int) and (check_heart_rate(v) is None)): continue
                break
            else:
                for r1 in a3:
                    if r1.__class__ is DiagTest and ((v := r1.test_name).__class__ is str) and (v) and ((v := r1.results) is None or (v.__class__ is str)) and ((v := r1.normal_range) is None or (v.__class__ is str)): continue
                    break
                else:
                    for r1 in a4:
                        if r1.__class__ is Diagnosis and ((v := r1.diagnosis_name).__class__ is str) and (v) and ((v := r1.icd10) is None or (v.__class__ is ConceptCode) and (v.system is _ICD10 and validate_icd10(v.code))): continue
                        break
                    else:
                        for r1 in a5:
                            if r1.__class__ is Medication and ((v := r1.medication_name).__class__ is str) and (v) and ((v := r1.dosage) is None or (v.__class__ is str)) and ((v := r1.frequency) is None or (v.__class__ is str)): continue
                            break
                        else:
                            for r1 in a6:
                                if r1.__class__ is CarePlan and ((v := r1.plan_id).__class__ is str) and (v) and ((v := r1.description) is None or (v.__class__ is str)) and ((v := r1.referral_specialty) is None or (v.__class__ is str)): continue
                                break
                            else:
                                return []
    problems = []
    v = record.encounter_id
    if not (v is None or v.__class__ is str): problems.append((f'encounterID', 'invalid-type', f'encounterID must be a string'))
    elif not (v): problems.append((f'encounterID', 'field-invalid', f'encounterID must be nonempty'))
    v = record.date
    if not (v is None or v.__class__ is date): problems.append((f'date', 'invalid-type', f'date must be a date'))
    elif not (v): problems.append((f'date', 'field-invalid', f'date must be nonempty'))
    v = record.specialty
    if not (v is None or v.__class__ is str): problems.append((f'specialty', 'invalid-type', f'specialty must be a string'))
    elif not (v): problems.append((f'specialty', 'field-invalid', f'specialty must be nonempty'))
    v = record.provider_ref
    if not (v is None or v.__class__ is str): problems.append((f'providerRef', 'invalid-type', f'providerRef must be a string'))
    elif not (v): problems.append((f'providerRef', 'field-invalid', f'providerRef must be nonempty'))
    a1 = record.symptoms
    if not (a1.__class__ is list): problems.append((f'symptoms', 'invalid-type', f'symptoms must be a list'))
    else:
        for i1, r1 in enumerate(a1):
            if not (r1.__class__ is Symptom): problems.append((f'symptoms[{i1}]', 'invalid-type', f'symptoms entries must be a Symptom'))
            else:
                v = r1.symptom_name
                if not (v is None or v.__class__ is str): problems.append((f'symptoms[{i1}].symptomName', 'invalid-type', f'symptomName must be a string'))
                elif not (v): problems.append((f'symptoms[{i1}].symptomName', 'field-invalid', f'symptomName must be nonempty'))
                if (v := r1.severity) is not None:
                    if not (v is None or v.__class__ is str): problems.append((f'symptoms[{i1}].severity', 'invalid-type', f'severity must be a string'))
    a1 = record.vitals
    if not (a1.__class__ is list): problems.append((f'vitals', 'invalid-type', f'vitals must be a list'))
    else:
        for i1, r1 in enumerate(a1):
            if not (r1.__class__ is VitalSign): problems.append((f'vitals[{i1}]', 'invalid-type', f'vitals entries must be a VitalSign'))
            else:
                if (v := r1.body_temperature) is not None:
                    if not (v is None or v.__class__ is float or v.__class__ is int): problems.append((f'vitals[{i1}].bodyTemperature', 'invalid-type', f'bodyTemperature must be a number'))
                    elif not (check_body_temperature(v) is None): problems.append((f'vitals[{i1}].bodyTemperature', 'field-invalid', f'{check_body_temperature(v)}'))
                if (v := r1.blood_pressure) is not None:
                    if not (v is None or v.__class__ is str): problems.append((f'vitals[{i1}].bloodPressure', 'invalid-type', f'bloodPressure must be a string'))
                    elif not (check_blood_pressure(v) is None): problems.append((f'vitals[{i1}].bloodPressure', 'field-invalid', f'{check_blood_pressure(v)}'))
                if (v := r1.weight) is not None:
                    if not (v is None or v.__class__ is float or v.__class__ is int): problems.append((f'vitals[{i1}].weight', 'invalid-type', f'weight must be a number'))
                    elif not (check_weight(v) is None): problems.append((f'vitals[{i1}].weight', 'field-invalid', f'{check_weight(v)}'))
                if (v := r1.heart_rate) is not None:
                    if not (v is None or v.__class__ is float or v.__class__ is int): problems.append((f'vitals[{i1}].heartRate', 'invalid-type', f'heartRate must be a number'))
                    elif not (check_heart_rate(v) is None): problems.append((f'vitals[{i1}].heartRate', 'field-invalid', f'{check_heart_rate(v)}'))
    a1 = record.tests
    if not (a1.__class__ is list): problems.append((f'tests', 'invalid-type', f'tests must be a list'))
    else:
        for i1, r1 in enumerate(a1):
            if not (r1.__class__ is DiagTest): problems.append((f'tests[{i1}]', 'invalid-type', f'tests entries must be a DiagTest'))
            else:
                v = r1.test_name
                if not (v is None or v.__class__ is str): problems.append((f'tests[{i1}].testName', 'invalid-type', f'testName must be a string'))
                elif not (v): problems.append((f'tests[{i1}].testName', 'field-invalid', f'testName must be nonempty'))
                if (v := r1.results) is not None:
                    if not (v is None or v.__class__ is str): problems.append((f'tests[{i1}].results', 'invalid-type', f'results must be a string'))
                if (v := r1.normal_range) is not None:
                    if not (v is None or v.__class__ is str): problems.append((f'tests[{i1}].normalRange', 'invalid-type', f'normalRange must be a string'))
    a1 = record.diagnoses
    if not (a1.__class__ is list): problems.append((f'diagnoses', 'invalid-type', f'diagnoses must be a list'))
    else:
        for i1, r1 in enumerate(a1):
            if not (r1.__class__ is Diagnosis): problems.append((f'diagnoses[{i1}]', 'invalid-type', f'diagnoses entries must be a Diagnosis'))
            else:
                v = r1.diagnosis_name
                if not (v is None or v.__class__ is str): problems.append((f'diagnoses[{i1}].diagnosisName', 'invalid-type', f'diagnosisName must be a string'))
                elif not (v): problems.append((f'diagnoses[{i1}].diagnosisName', 'field-invalid', f'diagnosisName must be nonempty'))
                if (v := r1.icd10) is not None:
                    if not (v is None or v.__class__ is ConceptCode): problems.append((f'diagnoses[{i1}].icd10', 'invalid-type', f'icd10 must be a ConceptCode'))
                    elif not (v.system is _ICD10 and validate_icd10(v.code)): problems.append((f'diagnoses[{i1}].icd10', 'bad-icd10', f'{v.code!r} is not a valid ICD10 code'))
    a1 = record.medications
    if not (a1.__class__ is list): problems.append((f'medications', 'invalid-type', f'medications must be a list'))
    else:
        for i1, r1 in enumerate(a1):
            if not (r1.__class__ is Medication): problems.append((f'medications[{i1}]', 'invalid-type', f'medications entries must be a Medication'))
            else:
                v = r1.medication_name
                if not (v is None or v.__class__ is str): problems.append((f'medications[{i1}].medicationName', 'invalid-type', f'medicationName must be a string'))
                elif not (v): problems.append((f'medications[{i1}].medicationName', 'field-invalid', f'medicationName must be nonempty'))
                if (v := r1.dosage) is not None:
                    if not (v is None or v.__class__ is str): problems.append((f'medications[{i1}].dosage', 'invalid-type', f'dosage must be a string'))
                if (v := r1.frequency) is not None:
                    if not (v is None or v.__class__ is str): problems.append((f'medications[{i1}].frequency', 'invalid-type', f'frequency must be a string'))
    a1 = record.care_plans
    if not (a1.__class__ is list): problems.append((f'carePlans', 'invalid-type', f'carePlans must be a list'))
    else:
        for i1, r1 in enumerate(a1):
            if not (r1.__class__ is CarePlan): problems.append((f'carePlans[{i1}]', 'invalid-type', f'carePlans entries must be a CarePlan'))
            else:
                v = r1.plan_id
                if not (v is None or v.__class__ is str): problems.append((f'carePlans[{i1}].planID', 'invalid-type', f'planID must be a string'))
                elif not (v): problems.append((f'carePlans[{i1}].planID', 'field-invalid', f'planID must be nonempty'))
                if (v := r1.description) is not None:
                    if not (v is None or v.__class__ is str): problems.append((f'carePlans[{i1}].description', 'invalid-type', f'description must be a string'))
                if (v := r1.referral_specialty) is not None:
                    if not (v is None or v.__class__ is str): problems.append((f'carePlans[{i1}].referralSpecialty', 'invalid-type', f'referralSpecialty must be a string'))
    return problems


def field_problems_JourneyEdge(record):
    if ((v := record.kind).__class__ is EdgeKind) and (v) and ((v := record.from_encounter).__class__ is str) and (v) and ((v := record.to_encounter).__class__ is str) and (v) and ((v := record.via) is None or (v.__class__ is str)): return []
    problems = []
    v = record.kind
    if not (v is None or v.__class__ is EdgeKind): problems.append((f'kind', 'invalid-type', f'kind must be an EdgeKind'))
    elif not (v): problems.append((f'kind', 'field-invalid', f'kind must be nonempty'))
    v = record.from_encounter
    if not (v is None or v.__class__ is str): problems.append((f'from', 'invalid-type', f'from must be a string'))
    elif not (v): problems.append((f'from', 'field-invalid', f'from must be nonempty'))
    v = record.to_encounter
    if not (v is None or v.__class__ is str): problems.append((f'to', 'invalid-type', f'to must be a string'))
    elif not (v): problems.append((f'to', 'field-invalid', f'to must be nonempty'))
    if (v := record.via) is not None:
        if not (v is None or v.__class__ is str): problems.append((f'via', 'invalid-type', f'via must be a string'))
    return problems


CHECKS = {
    ContactInformation: field_problems_ContactInformation,
    Patient: field_problems_Patient,
    Provider: field_problems_Provider,
    MedicalHistory: field_problems_MedicalHistory,
    SocialHistory: field_problems_SocialHistory,
    IntakeForm: field_problems_IntakeForm,
    Symptom: field_problems_Symptom,
    VitalSign: field_problems_VitalSign,
    DiagTest: field_problems_DiagTest,
    Diagnosis: field_problems_Diagnosis,
    Medication: field_problems_Medication,
    CarePlan: field_problems_CarePlan,
    Encounter: field_problems_Encounter,
    JourneyEdge: field_problems_JourneyEdge,
}
