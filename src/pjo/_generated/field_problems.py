"""The field problems pjo generates from its field table.  Do not edit: written by
``scripts/generate_code.py``.

Each factory's body is one generated source, verbatim, and returns the
functions the source defines.  ``SOURCES`` maps the source text to its
factory, whose code ``records.define`` runs instead of compiling the text.
"""


def _0():  # <Patient field problems>
    def problems(record):
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
    return locals()


def _1():  # <Provider field problems>
    def problems(record):
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
    return locals()


def _2():  # <IntakeForm field problems>
    def problems(record):
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
    return locals()


def _3():  # <Encounter field problems>
    def problems(record):
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
    return locals()


SOURCES = {
    "def problems(record):\n    problems = []\n    v = record.patient_id\n    if not (v is None or v.__class__ is str): problems.append((f'patientID', 'invalid-type', f'patientID must be a string'))\n    elif not (v): problems.append((f'patientID', 'field-invalid', f'patientID must be nonempty'))\n    v = record.patient_name\n    if not (v is None or v.__class__ is str): problems.append((f'patientName', 'invalid-type', f'patientName must be a string'))\n    elif not (v): problems.append((f'patientName', 'field-invalid', f'patientName must be nonempty'))\n    v = record.birth_date\n    if not (v is None or v.__class__ is date): problems.append((f'birthDate', 'invalid-type', f'birthDate must be a date'))\n    elif not (v): problems.append((f'birthDate', 'field-invalid', f'birthDate must be nonempty'))\n    if (v := record.race) is not None:\n        if not (v is None or v.__class__ is str): problems.append((f'race', 'invalid-type', f'race must be a string'))\n    if (v := record.gender) is not None:\n        if not (v is None or v.__class__ is str): problems.append((f'gender', 'invalid-type', f'gender must be a string'))\n    r1 = record.contact\n    if not (r1 is None or r1.__class__ is ContactInformation): problems.append((f'contactInformation', 'invalid-type', f'contactInformation must be a ContactInformation'))\n    elif r1 is not None:\n        if (v := r1.address) is not None:\n            if not (v is None or v.__class__ is str): problems.append((f'contactInformation.address', 'invalid-type', f'address must be a string'))\n        if (v := r1.phone_number) is not None:\n            if not (v is None or v.__class__ is str): problems.append((f'contactInformation.phoneNumber', 'invalid-type', f'phoneNumber must be a string'))\n        if (v := r1.email) is not None:\n            if not (v is None or v.__class__ is str): problems.append((f'contactInformation.email', 'invalid-type', f'email must be a string'))\n        if (v := r1.emergency_contact) is not None:\n            if not (v is None or v.__class__ is str): problems.append((f'contactInformation.emergencyContact', 'invalid-type', f'emergencyContact must be a string'))\n    if (v := record.insurance_name) is not None:\n        if not (v is None or v.__class__ is str): problems.append((f'insuranceName', 'invalid-type', f'insuranceName must be a string'))\n    if (v := record.insurance_id) is not None:\n        if not (v is None or v.__class__ is str): problems.append((f'insuranceID', 'invalid-type', f'insuranceID must be a string'))\n    return problems": _0,
    "def problems(record):\n    problems = []\n    v = record.provider_id\n    if not (v is None or v.__class__ is str): problems.append((f'providerID', 'invalid-type', f'providerID must be a string'))\n    elif not (v): problems.append((f'providerID', 'field-invalid', f'providerID must be nonempty'))\n    v = record.provider_name\n    if not (v is None or v.__class__ is str): problems.append((f'providerName', 'invalid-type', f'providerName must be a string'))\n    elif not (v): problems.append((f'providerName', 'field-invalid', f'providerName must be nonempty'))\n    if (v := record.specialization) is not None:\n        if not (v is None or v.__class__ is str): problems.append((f'specialization', 'invalid-type', f'specialization must be a string'))\n    if (v := record.affiliated_institution) is not None:\n        if not (v is None or v.__class__ is str): problems.append((f'affiliatedInstitution', 'invalid-type', f'affiliatedInstitution must be a string'))\n    if (v := record.years_of_experience) is not None:\n        if not (v is None or v.__class__ is int): problems.append((f'yearsOfExperience', 'invalid-type', f'yearsOfExperience must be an integer'))\n        elif not (check_years_of_experience(v) is None): problems.append((f'yearsOfExperience', 'field-invalid', f'{check_years_of_experience(v)}'))\n    return problems": _1,
    "def problems(record):\n    problems = []\n    v = record.intake_form_id\n    if not (v is None or v.__class__ is str): problems.append((f'intakeFormID', 'invalid-type', f'intakeFormID must be a string'))\n    elif not (v): problems.append((f'intakeFormID', 'field-invalid', f'intakeFormID must be nonempty'))\n    r1 = record.medical_history\n    if not (r1 is None or r1.__class__ is MedicalHistory): problems.append((f'medicalHistory', 'invalid-type', f'medicalHistory must be a MedicalHistory'))\n    elif r1 is not None:\n        a2 = r1.had_surgery\n        if not (a2.__class__ is list): problems.append((f'medicalHistory.hadSurgery', 'invalid-type', f'hadSurgery must be a list'))\n        else:\n            for i2, v in enumerate(a2):\n                if not (v is None or v.__class__ is str): problems.append((f'medicalHistory.hadSurgery[{i2}]', 'invalid-type', f'hadSurgery entries must be a string'))\n                elif not (v): problems.append((f'medicalHistory.hadSurgery[{i2}]', 'field-invalid', f'hadSurgery entries must be nonempty'))\n        a2 = r1.chronic_illness\n        if not (a2.__class__ is list): problems.append((f'medicalHistory.chronicIllness', 'invalid-type', f'chronicIllness must be a list'))\n        else:\n            for i2, v in enumerate(a2):\n                if not (v is None or v.__class__ is str): problems.append((f'medicalHistory.chronicIllness[{i2}]', 'invalid-type', f'chronicIllness entries must be a string'))\n                elif not (v): problems.append((f'medicalHistory.chronicIllness[{i2}]', 'field-invalid', f'chronicIllness entries must be nonempty'))\n        a2 = r1.medication_allergies\n        if not (a2.__class__ is list): problems.append((f'medicalHistory.medicationAllergies', 'invalid-type', f'medicationAllergies must be a list'))\n        else:\n            for i2, v in enumerate(a2):\n                if not (v is None or v.__class__ is str): problems.append((f'medicalHistory.medicationAllergies[{i2}]', 'invalid-type', f'medicationAllergies entries must be a string'))\n                elif not (v): problems.append((f'medicalHistory.medicationAllergies[{i2}]', 'field-invalid', f'medicationAllergies entries must be nonempty'))\n        a2 = r1.family_medical_history\n        if not (a2.__class__ is list): problems.append((f'medicalHistory.familyMedicalHistory', 'invalid-type', f'familyMedicalHistory must be a list'))\n        else:\n            for i2, v in enumerate(a2):\n                if not (v is None or v.__class__ is str): problems.append((f'medicalHistory.familyMedicalHistory[{i2}]', 'invalid-type', f'familyMedicalHistory entries must be a string'))\n                elif not (v): problems.append((f'medicalHistory.familyMedicalHistory[{i2}]', 'field-invalid', f'familyMedicalHistory entries must be nonempty'))\n    r1 = record.social_history\n    if not (r1.__class__ is SocialHistory): problems.append((f'socialHistory', 'invalid-type', f'socialHistory must be a SocialHistory'))\n    elif r1 is not None:\n        v = r1.smoking_habit\n        if not (v is None or v.__class__ is str): problems.append((f'socialHistory.smokingHabit', 'invalid-type', f'smokingHabit must be a string'))\n        elif not (v): problems.append((f'socialHistory.smokingHabit', 'field-invalid', f'smokingHabit must be nonempty'))\n        v = r1.drinking_habit\n        if not (v is None or v.__class__ is str): problems.append((f'socialHistory.drinkingHabit', 'invalid-type', f'drinkingHabit must be a string'))\n        elif not (v): problems.append((f'socialHistory.drinkingHabit', 'field-invalid', f'drinkingHabit must be nonempty'))\n        if (v := r1.diet) is not None:\n            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.diet', 'invalid-type', f'diet must be a string'))\n        if (v := r1.exercise_routine) is not None:\n            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.exerciseRoutine', 'invalid-type', f'exerciseRoutine must be a string'))\n        if (v := r1.marital_status) is not None:\n            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.maritalStatus', 'invalid-type', f'maritalStatus must be a string'))\n        if (v := r1.occupation) is not None:\n            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.occupation', 'invalid-type', f'occupation must be a string'))\n        if (v := r1.education_level) is not None:\n            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.educationLevel', 'invalid-type', f'educationLevel must be a string'))\n        if (v := r1.annual_income) is not None:\n            if not (v is None or v.__class__ is str): problems.append((f'socialHistory.annualIncome', 'invalid-type', f'annualIncome must be a string'))\n    return problems": _2,
    "def problems(record):\n    problems = []\n    v = record.encounter_id\n    if not (v is None or v.__class__ is str): problems.append((f'encounterID', 'invalid-type', f'encounterID must be a string'))\n    elif not (v): problems.append((f'encounterID', 'field-invalid', f'encounterID must be nonempty'))\n    v = record.date\n    if not (v is None or v.__class__ is date): problems.append((f'date', 'invalid-type', f'date must be a date'))\n    elif not (v): problems.append((f'date', 'field-invalid', f'date must be nonempty'))\n    v = record.specialty\n    if not (v is None or v.__class__ is str): problems.append((f'specialty', 'invalid-type', f'specialty must be a string'))\n    elif not (v): problems.append((f'specialty', 'field-invalid', f'specialty must be nonempty'))\n    v = record.provider_ref\n    if not (v is None or v.__class__ is str): problems.append((f'providerRef', 'invalid-type', f'providerRef must be a string'))\n    elif not (v): problems.append((f'providerRef', 'field-invalid', f'providerRef must be nonempty'))\n    a1 = record.symptoms\n    if not (a1.__class__ is list): problems.append((f'symptoms', 'invalid-type', f'symptoms must be a list'))\n    else:\n        for i1, r1 in enumerate(a1):\n            if not (r1.__class__ is Symptom): problems.append((f'symptoms[{i1}]', 'invalid-type', f'symptoms entries must be a Symptom'))\n            else:\n                v = r1.symptom_name\n                if not (v is None or v.__class__ is str): problems.append((f'symptoms[{i1}].symptomName', 'invalid-type', f'symptomName must be a string'))\n                elif not (v): problems.append((f'symptoms[{i1}].symptomName', 'field-invalid', f'symptomName must be nonempty'))\n                if (v := r1.severity) is not None:\n                    if not (v is None or v.__class__ is str): problems.append((f'symptoms[{i1}].severity', 'invalid-type', f'severity must be a string'))\n    a1 = record.vitals\n    if not (a1.__class__ is list): problems.append((f'vitals', 'invalid-type', f'vitals must be a list'))\n    else:\n        for i1, r1 in enumerate(a1):\n            if not (r1.__class__ is VitalSign): problems.append((f'vitals[{i1}]', 'invalid-type', f'vitals entries must be a VitalSign'))\n            else:\n                if (v := r1.body_temperature) is not None:\n                    if not (v is None or v.__class__ is float or v.__class__ is int): problems.append((f'vitals[{i1}].bodyTemperature', 'invalid-type', f'bodyTemperature must be a number'))\n                    elif not (check_body_temperature(v) is None): problems.append((f'vitals[{i1}].bodyTemperature', 'field-invalid', f'{check_body_temperature(v)}'))\n                if (v := r1.blood_pressure) is not None:\n                    if not (v is None or v.__class__ is str): problems.append((f'vitals[{i1}].bloodPressure', 'invalid-type', f'bloodPressure must be a string'))\n                    elif not (check_blood_pressure(v) is None): problems.append((f'vitals[{i1}].bloodPressure', 'field-invalid', f'{check_blood_pressure(v)}'))\n                if (v := r1.weight) is not None:\n                    if not (v is None or v.__class__ is float or v.__class__ is int): problems.append((f'vitals[{i1}].weight', 'invalid-type', f'weight must be a number'))\n                    elif not (check_weight(v) is None): problems.append((f'vitals[{i1}].weight', 'field-invalid', f'{check_weight(v)}'))\n                if (v := r1.heart_rate) is not None:\n                    if not (v is None or v.__class__ is float or v.__class__ is int): problems.append((f'vitals[{i1}].heartRate', 'invalid-type', f'heartRate must be a number'))\n                    elif not (check_heart_rate(v) is None): problems.append((f'vitals[{i1}].heartRate', 'field-invalid', f'{check_heart_rate(v)}'))\n    a1 = record.tests\n    if not (a1.__class__ is list): problems.append((f'tests', 'invalid-type', f'tests must be a list'))\n    else:\n        for i1, r1 in enumerate(a1):\n            if not (r1.__class__ is DiagTest): problems.append((f'tests[{i1}]', 'invalid-type', f'tests entries must be a DiagTest'))\n            else:\n                v = r1.test_name\n                if not (v is None or v.__class__ is str): problems.append((f'tests[{i1}].testName', 'invalid-type', f'testName must be a string'))\n                elif not (v): problems.append((f'tests[{i1}].testName', 'field-invalid', f'testName must be nonempty'))\n                if (v := r1.results) is not None:\n                    if not (v is None or v.__class__ is str): problems.append((f'tests[{i1}].results', 'invalid-type', f'results must be a string'))\n                if (v := r1.normal_range) is not None:\n                    if not (v is None or v.__class__ is str): problems.append((f'tests[{i1}].normalRange', 'invalid-type', f'normalRange must be a string'))\n    a1 = record.diagnoses\n    if not (a1.__class__ is list): problems.append((f'diagnoses', 'invalid-type', f'diagnoses must be a list'))\n    else:\n        for i1, r1 in enumerate(a1):\n            if not (r1.__class__ is Diagnosis): problems.append((f'diagnoses[{i1}]', 'invalid-type', f'diagnoses entries must be a Diagnosis'))\n            else:\n                v = r1.diagnosis_name\n                if not (v is None or v.__class__ is str): problems.append((f'diagnoses[{i1}].diagnosisName', 'invalid-type', f'diagnosisName must be a string'))\n                elif not (v): problems.append((f'diagnoses[{i1}].diagnosisName', 'field-invalid', f'diagnosisName must be nonempty'))\n                if (v := r1.icd10) is not None:\n                    if not (v is None or v.__class__ is ConceptCode): problems.append((f'diagnoses[{i1}].icd10', 'invalid-type', f'icd10 must be a ConceptCode'))\n                    elif not (v.system is _ICD10 and validate_icd10(v.code)): problems.append((f'diagnoses[{i1}].icd10', 'bad-icd10', f'{v.code!r} is not a valid ICD10 code'))\n    a1 = record.medications\n    if not (a1.__class__ is list): problems.append((f'medications', 'invalid-type', f'medications must be a list'))\n    else:\n        for i1, r1 in enumerate(a1):\n            if not (r1.__class__ is Medication): problems.append((f'medications[{i1}]', 'invalid-type', f'medications entries must be a Medication'))\n            else:\n                v = r1.medication_name\n                if not (v is None or v.__class__ is str): problems.append((f'medications[{i1}].medicationName', 'invalid-type', f'medicationName must be a string'))\n                elif not (v): problems.append((f'medications[{i1}].medicationName', 'field-invalid', f'medicationName must be nonempty'))\n                if (v := r1.dosage) is not None:\n                    if not (v is None or v.__class__ is str): problems.append((f'medications[{i1}].dosage', 'invalid-type', f'dosage must be a string'))\n                if (v := r1.frequency) is not None:\n                    if not (v is None or v.__class__ is str): problems.append((f'medications[{i1}].frequency', 'invalid-type', f'frequency must be a string'))\n    a1 = record.care_plans\n    if not (a1.__class__ is list): problems.append((f'carePlans', 'invalid-type', f'carePlans must be a list'))\n    else:\n        for i1, r1 in enumerate(a1):\n            if not (r1.__class__ is CarePlan): problems.append((f'carePlans[{i1}]', 'invalid-type', f'carePlans entries must be a CarePlan'))\n            else:\n                v = r1.plan_id\n                if not (v is None or v.__class__ is str): problems.append((f'carePlans[{i1}].planID', 'invalid-type', f'planID must be a string'))\n                elif not (v): problems.append((f'carePlans[{i1}].planID', 'field-invalid', f'planID must be nonempty'))\n                if (v := r1.description) is not None:\n                    if not (v is None or v.__class__ is str): problems.append((f'carePlans[{i1}].description', 'invalid-type', f'description must be a string'))\n                if (v := r1.referral_specialty) is not None:\n                    if not (v is None or v.__class__ is str): problems.append((f'carePlans[{i1}].referralSpecialty', 'invalid-type', f'referralSpecialty must be a string'))\n    return problems": _3,
}
