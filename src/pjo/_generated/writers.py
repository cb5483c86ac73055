"""The writers pjo generates from its field table.  Do not edit: written by
``scripts/generate_code.py``.

Each factory's body is one generated source, verbatim, and returns the
functions the source defines.  ``SOURCES`` maps the source text to its
factory, whose code ``records.define`` runs instead of compiling the text.
"""


def _0():  # <Bundle writer>
    def write(r):
        parts = []
        if (v := r.format_version) is not None: parts.append('\n  "formatVersion": ' + (_encode(v) if v.__class__ is str else _scalar(v, 1)))
        if (v := r.patient) is not None: parts.append('\n  "patient": ' + objects[v.__class__](v))
        if (v := r.providers) is not None:
            a = []
            for x in v:
                if x.__class__ is Provider and (e0 := x.provider_id).__class__ is str and (e1 := x.provider_name).__class__ is str: a.append(f'{{\n      "providerID": {_encode(e0)},\n      "providerName": {_encode(e1)}{P_specialization + (_encode(e2) if e2.__class__ is str else _scalar(e2, 3)) if (e2 := x.specialization) is not None else ""}{P_affiliatedInstitution + (_encode(e3) if e3.__class__ is str else _scalar(e3, 3)) if (e3 := x.affiliated_institution) is not None else ""}{P_yearsOfExperience + (int.__repr__(e4) if e4.__class__ is int else _scalar(e4, 3)) if (e4 := x.years_of_experience) is not None else ""}\n    }}')
                else: a.append(entries[x.__class__](x))
            parts.append('\n  "providers": ' + ('[\n    ' + ',\n    '.join(a) + '\n  ]' if a else '[]'))
        if (v := r.intake_form) is not None: parts.append('\n  "intakeForm": ' + objects[v.__class__](v))
        if (v := r.encounters) is not None:
            a = [entries[x.__class__](x) for x in v]
            parts.append('\n  "encounters": ' + ('[\n    ' + ',\n    '.join(a) + '\n  ]' if a else '[]'))
        if (v := r.links) is not None:
            a = []
            for x in v:
                if x.__class__ is JourneyEdge and (e0 := x.kind) is not None and (e0 := e0.value).__class__ is str and (e1 := x.from_encounter).__class__ is str and (e2 := x.to_encounter).__class__ is str: a.append(f'{{\n      "kind": {_encode(e0)},\n      "from": {_encode(e1)},\n      "to": {_encode(e2)}{P_via + (_encode(e3) if e3.__class__ is str else _scalar(e3, 3)) if (e3 := x.via) is not None else ""}\n    }}')
                else: a.append(entries[x.__class__](x))
            parts.append('\n  "links": ' + ('[\n    ' + ',\n    '.join(a) + '\n  ]' if a else '[]'))
        return '{' + ','.join(parts) + '\n}' if parts else '{}'
    return locals()


def _1():  # <Patient writer>
    def write(r):
        parts = []
        if (v := r.patient_id) is not None: parts.append('\n    "patientID": ' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))
        if (v := r.patient_name) is not None: parts.append('\n    "patientName": ' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))
        if (v := r.birth_date) is not None: parts.append('\n    "birthDate": ' + _encode(isoformat(v)))
        if (v := r.race) is not None: parts.append('\n    "race": ' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))
        if (v := r.gender) is not None: parts.append('\n    "gender": ' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))
        if (v := r.contact) is not None and (t := objects[v.__class__](v)) != '{}': parts.append('\n    "contactInformation": ' + t)
        if (v := r.insurance_name) is not None: parts.append('\n    "insuranceName": ' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))
        if (v := r.insurance_id) is not None: parts.append('\n    "insuranceID": ' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))
        return '{' + ','.join(parts) + '\n  }' if parts else '{}'
    return locals()


def _2():  # <ContactInformation writer>
    def write(r):
        parts = []
        if (v := r.address) is not None: parts.append('\n      "address": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.phone_number) is not None: parts.append('\n      "phoneNumber": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.email) is not None: parts.append('\n      "email": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.emergency_contact) is not None: parts.append('\n      "emergencyContact": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        return '{' + ','.join(parts) + '\n    }' if parts else '{}'
    return locals()


def _3():  # <Provider writer>
    def write(r):
        parts = []
        if (v := r.provider_id) is not None: parts.append('\n      "providerID": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.provider_name) is not None: parts.append('\n      "providerName": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.specialization) is not None: parts.append('\n      "specialization": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.affiliated_institution) is not None: parts.append('\n      "affiliatedInstitution": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.years_of_experience) is not None: parts.append('\n      "yearsOfExperience": ' + (int.__repr__(v) if v.__class__ is int else _scalar(v, 3)))
        return '{' + ','.join(parts) + '\n    }' if parts else '{}'
    return locals()


def _4():  # <IntakeForm writer>
    def write(r):
        parts = []
        if (v := r.intake_form_id) is not None: parts.append('\n    "intakeFormID": ' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))
        if (v := r.medical_history) is not None and (t := objects[v.__class__](v)) != '{}': parts.append('\n    "medicalHistory": ' + t)
        if (v := r.social_history) is not None and (t := objects[v.__class__](v)) != '{}': parts.append('\n    "socialHistory": ' + t)
        return '{' + ','.join(parts) + '\n  }' if parts else '{}'
    return locals()


def _5():  # <MedicalHistory writer>
    def write(r):
        parts = []
        if (v := r.had_surgery) is not None:
            a = [(_encode(x) if x.__class__ is str else _scalar(x, 4)) for x in v]
            parts.append('\n      "hadSurgery": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
        if (v := r.chronic_illness) is not None:
            a = [(_encode(x) if x.__class__ is str else _scalar(x, 4)) for x in v]
            parts.append('\n      "chronicIllness": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
        if (v := r.medication_allergies) is not None:
            a = [(_encode(x) if x.__class__ is str else _scalar(x, 4)) for x in v]
            parts.append('\n      "medicationAllergies": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
        if (v := r.family_medical_history) is not None:
            a = [(_encode(x) if x.__class__ is str else _scalar(x, 4)) for x in v]
            parts.append('\n      "familyMedicalHistory": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
        return '{' + ','.join(parts) + '\n    }' if parts else '{}'
    return locals()


def _6():  # <SocialHistory writer>
    def write(r):
        parts = []
        if (v := r.smoking_habit) is not None: parts.append('\n      "smokingHabit": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.drinking_habit) is not None: parts.append('\n      "drinkingHabit": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.diet) is not None: parts.append('\n      "diet": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.exercise_routine) is not None: parts.append('\n      "exerciseRoutine": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.marital_status) is not None: parts.append('\n      "maritalStatus": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.occupation) is not None: parts.append('\n      "occupation": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.education_level) is not None: parts.append('\n      "educationLevel": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.annual_income) is not None: parts.append('\n      "annualIncome": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        return '{' + ','.join(parts) + '\n    }' if parts else '{}'
    return locals()


def _7():  # <Encounter writer>
    def write(r):
        parts = []
        if (v := r.encounter_id) is not None: parts.append('\n      "encounterID": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.date) is not None: parts.append('\n      "date": ' + _encode(isoformat(v)))
        if (v := r.specialty) is not None: parts.append('\n      "specialty": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.provider_ref) is not None: parts.append('\n      "providerRef": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.symptoms) is not None:
            a = []
            for x in v:
                if x.__class__ is Symptom and (e0 := x.symptom_name).__class__ is str and (e1 := x.severity).__class__ is str: a.append(f'{{\n          "symptomName": {_encode(e0)},\n          "severity": {_encode(e1)}\n        }}')
                else: a.append(entries[x.__class__](x))
            parts.append('\n      "symptoms": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
        if (v := r.vitals) is not None:
            a = []
            for x in v:
                if x.__class__ is VitalSign: a.append((f'{{{t[1:]}\n        }}' if (t := f'{P_bodyTemperature + (repr(e0) if (e0.__class__ is float or e0.__class__ is int) and e0 - e0 == 0 else _scalar(e0, 5)) if (e0 := x.body_temperature) is not None else ""}{P_bloodPressure + (_encode(e1) if e1.__class__ is str else _scalar(e1, 5)) if (e1 := x.blood_pressure) is not None else ""}{P_weight + (repr(e2) if (e2.__class__ is float or e2.__class__ is int) and e2 - e2 == 0 else _scalar(e2, 5)) if (e2 := x.weight) is not None else ""}{P_heartRate + (repr(e3) if (e3.__class__ is float or e3.__class__ is int) and e3 - e3 == 0 else _scalar(e3, 5)) if (e3 := x.heart_rate) is not None else ""}') else '{}'))
                else: a.append(entries[x.__class__](x))
            parts.append('\n      "vitals": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
        if (v := r.tests) is not None:
            a = []
            for x in v:
                if x.__class__ is DiagTest and (e0 := x.test_name).__class__ is str and (e1 := x.results).__class__ is str: a.append(f'{{\n          "testName": {_encode(e0)},\n          "results": {_encode(e1)}{P_normalRange + (_encode(e2) if e2.__class__ is str else _scalar(e2, 5)) if (e2 := x.normal_range) is not None else ""}\n        }}')
                else: a.append(entries[x.__class__](x))
            parts.append('\n      "tests": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
        if (v := r.diagnoses) is not None:
            a = []
            for x in v:
                if x.__class__ is Diagnosis and (e0 := x.diagnosis_name).__class__ is str: a.append(f'{{\n          "diagnosisName": {_encode(e0)}{P_icd10 + (_encode(e1) if e1.__class__ is str else _scalar(e1, 5)) if (e1 := x.icd10) is not None and (e1 := e1.code) is not None else ""}\n        }}')
                else: a.append(entries[x.__class__](x))
            parts.append('\n      "diagnoses": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
        if (v := r.medications) is not None:
            a = []
            for x in v:
                if x.__class__ is Medication and (e0 := x.medication_name).__class__ is str and (e1 := x.dosage).__class__ is str and (e2 := x.frequency).__class__ is str: a.append(f'{{\n          "medicationName": {_encode(e0)},\n          "dosage": {_encode(e1)},\n          "frequency": {_encode(e2)}\n        }}')
                else: a.append(entries[x.__class__](x))
            parts.append('\n      "medications": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
        if (v := r.care_plans) is not None:
            a = []
            for x in v:
                if x.__class__ is CarePlan and (e0 := x.plan_id).__class__ is str and (e1 := x.description).__class__ is str: a.append(f'{{\n          "planID": {_encode(e0)},\n          "description": {_encode(e1)}{P_referralSpecialty + (_encode(e2) if e2.__class__ is str else _scalar(e2, 5)) if (e2 := x.referral_specialty) is not None else ""}\n        }}')
                else: a.append(entries[x.__class__](x))
            parts.append('\n      "carePlans": ' + ('[\n        ' + ',\n        '.join(a) + '\n      ]' if a else '[]'))
        return '{' + ','.join(parts) + '\n    }' if parts else '{}'
    return locals()


def _8():  # <Symptom writer>
    def write(r):
        parts = []
        if (v := r.symptom_name) is not None: parts.append('\n          "symptomName": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        if (v := r.severity) is not None: parts.append('\n          "severity": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        return '{' + ','.join(parts) + '\n        }' if parts else '{}'
    return locals()


def _9():  # <VitalSign writer>
    def write(r):
        parts = []
        if (v := r.body_temperature) is not None: parts.append('\n          "bodyTemperature": ' + (repr(v) if (v.__class__ is float or v.__class__ is int) and v - v == 0 else _scalar(v, 5)))
        if (v := r.blood_pressure) is not None: parts.append('\n          "bloodPressure": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        if (v := r.weight) is not None: parts.append('\n          "weight": ' + (repr(v) if (v.__class__ is float or v.__class__ is int) and v - v == 0 else _scalar(v, 5)))
        if (v := r.heart_rate) is not None: parts.append('\n          "heartRate": ' + (repr(v) if (v.__class__ is float or v.__class__ is int) and v - v == 0 else _scalar(v, 5)))
        return '{' + ','.join(parts) + '\n        }' if parts else '{}'
    return locals()


def _10():  # <DiagTest writer>
    def write(r):
        parts = []
        if (v := r.test_name) is not None: parts.append('\n          "testName": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        if (v := r.results) is not None: parts.append('\n          "results": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        if (v := r.normal_range) is not None: parts.append('\n          "normalRange": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        return '{' + ','.join(parts) + '\n        }' if parts else '{}'
    return locals()


def _11():  # <Diagnosis writer>
    def write(r):
        parts = []
        if (v := r.diagnosis_name) is not None: parts.append('\n          "diagnosisName": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        if (v := r.icd10) is not None and (v := v.code) is not None: parts.append('\n          "icd10": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        return '{' + ','.join(parts) + '\n        }' if parts else '{}'
    return locals()


def _12():  # <Medication writer>
    def write(r):
        parts = []
        if (v := r.medication_name) is not None: parts.append('\n          "medicationName": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        if (v := r.dosage) is not None: parts.append('\n          "dosage": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        if (v := r.frequency) is not None: parts.append('\n          "frequency": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        return '{' + ','.join(parts) + '\n        }' if parts else '{}'
    return locals()


def _13():  # <CarePlan writer>
    def write(r):
        parts = []
        if (v := r.plan_id) is not None: parts.append('\n          "planID": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        if (v := r.description) is not None: parts.append('\n          "description": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        if (v := r.referral_specialty) is not None: parts.append('\n          "referralSpecialty": ' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))
        return '{' + ','.join(parts) + '\n        }' if parts else '{}'
    return locals()


def _14():  # <JourneyEdge writer>
    def write(r):
        parts = []
        if (v := r.kind) is not None and (v := v.value) is not None: parts.append('\n      "kind": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.from_encounter) is not None: parts.append('\n      "from": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.to_encounter) is not None: parts.append('\n      "to": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        if (v := r.via) is not None: parts.append('\n      "via": ' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))
        return '{' + ','.join(parts) + '\n    }' if parts else '{}'
    return locals()


SOURCES = {
    'def write(r):\n    parts = []\n    if (v := r.format_version) is not None: parts.append(\'\\n  "formatVersion": \' + (_encode(v) if v.__class__ is str else _scalar(v, 1)))\n    if (v := r.patient) is not None: parts.append(\'\\n  "patient": \' + objects[v.__class__](v))\n    if (v := r.providers) is not None:\n        a = []\n        for x in v:\n            if x.__class__ is Provider and (e0 := x.provider_id).__class__ is str and (e1 := x.provider_name).__class__ is str: a.append(f\'{{\\n      "providerID": {_encode(e0)},\\n      "providerName": {_encode(e1)}{P_specialization + (_encode(e2) if e2.__class__ is str else _scalar(e2, 3)) if (e2 := x.specialization) is not None else ""}{P_affiliatedInstitution + (_encode(e3) if e3.__class__ is str else _scalar(e3, 3)) if (e3 := x.affiliated_institution) is not None else ""}{P_yearsOfExperience + (int.__repr__(e4) if e4.__class__ is int else _scalar(e4, 3)) if (e4 := x.years_of_experience) is not None else ""}\\n    }}\')\n            else: a.append(entries[x.__class__](x))\n        parts.append(\'\\n  "providers": \' + (\'[\\n    \' + \',\\n    \'.join(a) + \'\\n  ]\' if a else \'[]\'))\n    if (v := r.intake_form) is not None: parts.append(\'\\n  "intakeForm": \' + objects[v.__class__](v))\n    if (v := r.encounters) is not None:\n        a = [entries[x.__class__](x) for x in v]\n        parts.append(\'\\n  "encounters": \' + (\'[\\n    \' + \',\\n    \'.join(a) + \'\\n  ]\' if a else \'[]\'))\n    if (v := r.links) is not None:\n        a = []\n        for x in v:\n            if x.__class__ is JourneyEdge and (e0 := x.kind) is not None and (e0 := e0.value).__class__ is str and (e1 := x.from_encounter).__class__ is str and (e2 := x.to_encounter).__class__ is str: a.append(f\'{{\\n      "kind": {_encode(e0)},\\n      "from": {_encode(e1)},\\n      "to": {_encode(e2)}{P_via + (_encode(e3) if e3.__class__ is str else _scalar(e3, 3)) if (e3 := x.via) is not None else ""}\\n    }}\')\n            else: a.append(entries[x.__class__](x))\n        parts.append(\'\\n  "links": \' + (\'[\\n    \' + \',\\n    \'.join(a) + \'\\n  ]\' if a else \'[]\'))\n    return \'{\' + \',\'.join(parts) + \'\\n}\' if parts else \'{}\'': _0,
    'def write(r):\n    parts = []\n    if (v := r.patient_id) is not None: parts.append(\'\\n    "patientID": \' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))\n    if (v := r.patient_name) is not None: parts.append(\'\\n    "patientName": \' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))\n    if (v := r.birth_date) is not None: parts.append(\'\\n    "birthDate": \' + _encode(isoformat(v)))\n    if (v := r.race) is not None: parts.append(\'\\n    "race": \' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))\n    if (v := r.gender) is not None: parts.append(\'\\n    "gender": \' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))\n    if (v := r.contact) is not None and (t := objects[v.__class__](v)) != \'{}\': parts.append(\'\\n    "contactInformation": \' + t)\n    if (v := r.insurance_name) is not None: parts.append(\'\\n    "insuranceName": \' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))\n    if (v := r.insurance_id) is not None: parts.append(\'\\n    "insuranceID": \' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))\n    return \'{\' + \',\'.join(parts) + \'\\n  }\' if parts else \'{}\'': _1,
    'def write(r):\n    parts = []\n    if (v := r.address) is not None: parts.append(\'\\n      "address": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.phone_number) is not None: parts.append(\'\\n      "phoneNumber": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.email) is not None: parts.append(\'\\n      "email": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.emergency_contact) is not None: parts.append(\'\\n      "emergencyContact": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    return \'{\' + \',\'.join(parts) + \'\\n    }\' if parts else \'{}\'': _2,
    'def write(r):\n    parts = []\n    if (v := r.provider_id) is not None: parts.append(\'\\n      "providerID": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.provider_name) is not None: parts.append(\'\\n      "providerName": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.specialization) is not None: parts.append(\'\\n      "specialization": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.affiliated_institution) is not None: parts.append(\'\\n      "affiliatedInstitution": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.years_of_experience) is not None: parts.append(\'\\n      "yearsOfExperience": \' + (int.__repr__(v) if v.__class__ is int else _scalar(v, 3)))\n    return \'{\' + \',\'.join(parts) + \'\\n    }\' if parts else \'{}\'': _3,
    'def write(r):\n    parts = []\n    if (v := r.intake_form_id) is not None: parts.append(\'\\n    "intakeFormID": \' + (_encode(v) if v.__class__ is str else _scalar(v, 2)))\n    if (v := r.medical_history) is not None and (t := objects[v.__class__](v)) != \'{}\': parts.append(\'\\n    "medicalHistory": \' + t)\n    if (v := r.social_history) is not None and (t := objects[v.__class__](v)) != \'{}\': parts.append(\'\\n    "socialHistory": \' + t)\n    return \'{\' + \',\'.join(parts) + \'\\n  }\' if parts else \'{}\'': _4,
    'def write(r):\n    parts = []\n    if (v := r.had_surgery) is not None:\n        a = [(_encode(x) if x.__class__ is str else _scalar(x, 4)) for x in v]\n        parts.append(\'\\n      "hadSurgery": \' + (\'[\\n        \' + \',\\n        \'.join(a) + \'\\n      ]\' if a else \'[]\'))\n    if (v := r.chronic_illness) is not None:\n        a = [(_encode(x) if x.__class__ is str else _scalar(x, 4)) for x in v]\n        parts.append(\'\\n      "chronicIllness": \' + (\'[\\n        \' + \',\\n        \'.join(a) + \'\\n      ]\' if a else \'[]\'))\n    if (v := r.medication_allergies) is not None:\n        a = [(_encode(x) if x.__class__ is str else _scalar(x, 4)) for x in v]\n        parts.append(\'\\n      "medicationAllergies": \' + (\'[\\n        \' + \',\\n        \'.join(a) + \'\\n      ]\' if a else \'[]\'))\n    if (v := r.family_medical_history) is not None:\n        a = [(_encode(x) if x.__class__ is str else _scalar(x, 4)) for x in v]\n        parts.append(\'\\n      "familyMedicalHistory": \' + (\'[\\n        \' + \',\\n        \'.join(a) + \'\\n      ]\' if a else \'[]\'))\n    return \'{\' + \',\'.join(parts) + \'\\n    }\' if parts else \'{}\'': _5,
    'def write(r):\n    parts = []\n    if (v := r.smoking_habit) is not None: parts.append(\'\\n      "smokingHabit": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.drinking_habit) is not None: parts.append(\'\\n      "drinkingHabit": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.diet) is not None: parts.append(\'\\n      "diet": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.exercise_routine) is not None: parts.append(\'\\n      "exerciseRoutine": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.marital_status) is not None: parts.append(\'\\n      "maritalStatus": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.occupation) is not None: parts.append(\'\\n      "occupation": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.education_level) is not None: parts.append(\'\\n      "educationLevel": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.annual_income) is not None: parts.append(\'\\n      "annualIncome": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    return \'{\' + \',\'.join(parts) + \'\\n    }\' if parts else \'{}\'': _6,
    'def write(r):\n    parts = []\n    if (v := r.encounter_id) is not None: parts.append(\'\\n      "encounterID": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.date) is not None: parts.append(\'\\n      "date": \' + _encode(isoformat(v)))\n    if (v := r.specialty) is not None: parts.append(\'\\n      "specialty": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.provider_ref) is not None: parts.append(\'\\n      "providerRef": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.symptoms) is not None:\n        a = []\n        for x in v:\n            if x.__class__ is Symptom and (e0 := x.symptom_name).__class__ is str and (e1 := x.severity).__class__ is str: a.append(f\'{{\\n          "symptomName": {_encode(e0)},\\n          "severity": {_encode(e1)}\\n        }}\')\n            else: a.append(entries[x.__class__](x))\n        parts.append(\'\\n      "symptoms": \' + (\'[\\n        \' + \',\\n        \'.join(a) + \'\\n      ]\' if a else \'[]\'))\n    if (v := r.vitals) is not None:\n        a = []\n        for x in v:\n            if x.__class__ is VitalSign: a.append((f\'{{{t[1:]}\\n        }}\' if (t := f\'{P_bodyTemperature + (repr(e0) if (e0.__class__ is float or e0.__class__ is int) and e0 - e0 == 0 else _scalar(e0, 5)) if (e0 := x.body_temperature) is not None else ""}{P_bloodPressure + (_encode(e1) if e1.__class__ is str else _scalar(e1, 5)) if (e1 := x.blood_pressure) is not None else ""}{P_weight + (repr(e2) if (e2.__class__ is float or e2.__class__ is int) and e2 - e2 == 0 else _scalar(e2, 5)) if (e2 := x.weight) is not None else ""}{P_heartRate + (repr(e3) if (e3.__class__ is float or e3.__class__ is int) and e3 - e3 == 0 else _scalar(e3, 5)) if (e3 := x.heart_rate) is not None else ""}\') else \'{}\'))\n            else: a.append(entries[x.__class__](x))\n        parts.append(\'\\n      "vitals": \' + (\'[\\n        \' + \',\\n        \'.join(a) + \'\\n      ]\' if a else \'[]\'))\n    if (v := r.tests) is not None:\n        a = []\n        for x in v:\n            if x.__class__ is DiagTest and (e0 := x.test_name).__class__ is str and (e1 := x.results).__class__ is str: a.append(f\'{{\\n          "testName": {_encode(e0)},\\n          "results": {_encode(e1)}{P_normalRange + (_encode(e2) if e2.__class__ is str else _scalar(e2, 5)) if (e2 := x.normal_range) is not None else ""}\\n        }}\')\n            else: a.append(entries[x.__class__](x))\n        parts.append(\'\\n      "tests": \' + (\'[\\n        \' + \',\\n        \'.join(a) + \'\\n      ]\' if a else \'[]\'))\n    if (v := r.diagnoses) is not None:\n        a = []\n        for x in v:\n            if x.__class__ is Diagnosis and (e0 := x.diagnosis_name).__class__ is str: a.append(f\'{{\\n          "diagnosisName": {_encode(e0)}{P_icd10 + (_encode(e1) if e1.__class__ is str else _scalar(e1, 5)) if (e1 := x.icd10) is not None and (e1 := e1.code) is not None else ""}\\n        }}\')\n            else: a.append(entries[x.__class__](x))\n        parts.append(\'\\n      "diagnoses": \' + (\'[\\n        \' + \',\\n        \'.join(a) + \'\\n      ]\' if a else \'[]\'))\n    if (v := r.medications) is not None:\n        a = []\n        for x in v:\n            if x.__class__ is Medication and (e0 := x.medication_name).__class__ is str and (e1 := x.dosage).__class__ is str and (e2 := x.frequency).__class__ is str: a.append(f\'{{\\n          "medicationName": {_encode(e0)},\\n          "dosage": {_encode(e1)},\\n          "frequency": {_encode(e2)}\\n        }}\')\n            else: a.append(entries[x.__class__](x))\n        parts.append(\'\\n      "medications": \' + (\'[\\n        \' + \',\\n        \'.join(a) + \'\\n      ]\' if a else \'[]\'))\n    if (v := r.care_plans) is not None:\n        a = []\n        for x in v:\n            if x.__class__ is CarePlan and (e0 := x.plan_id).__class__ is str and (e1 := x.description).__class__ is str: a.append(f\'{{\\n          "planID": {_encode(e0)},\\n          "description": {_encode(e1)}{P_referralSpecialty + (_encode(e2) if e2.__class__ is str else _scalar(e2, 5)) if (e2 := x.referral_specialty) is not None else ""}\\n        }}\')\n            else: a.append(entries[x.__class__](x))\n        parts.append(\'\\n      "carePlans": \' + (\'[\\n        \' + \',\\n        \'.join(a) + \'\\n      ]\' if a else \'[]\'))\n    return \'{\' + \',\'.join(parts) + \'\\n    }\' if parts else \'{}\'': _7,
    'def write(r):\n    parts = []\n    if (v := r.symptom_name) is not None: parts.append(\'\\n          "symptomName": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    if (v := r.severity) is not None: parts.append(\'\\n          "severity": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    return \'{\' + \',\'.join(parts) + \'\\n        }\' if parts else \'{}\'': _8,
    'def write(r):\n    parts = []\n    if (v := r.body_temperature) is not None: parts.append(\'\\n          "bodyTemperature": \' + (repr(v) if (v.__class__ is float or v.__class__ is int) and v - v == 0 else _scalar(v, 5)))\n    if (v := r.blood_pressure) is not None: parts.append(\'\\n          "bloodPressure": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    if (v := r.weight) is not None: parts.append(\'\\n          "weight": \' + (repr(v) if (v.__class__ is float or v.__class__ is int) and v - v == 0 else _scalar(v, 5)))\n    if (v := r.heart_rate) is not None: parts.append(\'\\n          "heartRate": \' + (repr(v) if (v.__class__ is float or v.__class__ is int) and v - v == 0 else _scalar(v, 5)))\n    return \'{\' + \',\'.join(parts) + \'\\n        }\' if parts else \'{}\'': _9,
    'def write(r):\n    parts = []\n    if (v := r.test_name) is not None: parts.append(\'\\n          "testName": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    if (v := r.results) is not None: parts.append(\'\\n          "results": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    if (v := r.normal_range) is not None: parts.append(\'\\n          "normalRange": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    return \'{\' + \',\'.join(parts) + \'\\n        }\' if parts else \'{}\'': _10,
    'def write(r):\n    parts = []\n    if (v := r.diagnosis_name) is not None: parts.append(\'\\n          "diagnosisName": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    if (v := r.icd10) is not None and (v := v.code) is not None: parts.append(\'\\n          "icd10": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    return \'{\' + \',\'.join(parts) + \'\\n        }\' if parts else \'{}\'': _11,
    'def write(r):\n    parts = []\n    if (v := r.medication_name) is not None: parts.append(\'\\n          "medicationName": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    if (v := r.dosage) is not None: parts.append(\'\\n          "dosage": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    if (v := r.frequency) is not None: parts.append(\'\\n          "frequency": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    return \'{\' + \',\'.join(parts) + \'\\n        }\' if parts else \'{}\'': _12,
    'def write(r):\n    parts = []\n    if (v := r.plan_id) is not None: parts.append(\'\\n          "planID": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    if (v := r.description) is not None: parts.append(\'\\n          "description": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    if (v := r.referral_specialty) is not None: parts.append(\'\\n          "referralSpecialty": \' + (_encode(v) if v.__class__ is str else _scalar(v, 5)))\n    return \'{\' + \',\'.join(parts) + \'\\n        }\' if parts else \'{}\'': _13,
    'def write(r):\n    parts = []\n    if (v := r.kind) is not None and (v := v.value) is not None: parts.append(\'\\n      "kind": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.from_encounter) is not None: parts.append(\'\\n      "from": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.to_encounter) is not None: parts.append(\'\\n      "to": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    if (v := r.via) is not None: parts.append(\'\\n      "via": \' + (_encode(v) if v.__class__ is str else _scalar(v, 3)))\n    return \'{\' + \',\'.join(parts) + \'\\n    }\' if parts else \'{}\'': _14,
}
