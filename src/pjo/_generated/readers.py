"""The bundle readers: code pjo generates.

Do not edit: ``scripts/generate_code.py`` writes it and must be run again after
any change to ``records.FIELDS``, ``graph.RULES`` or a generator in ``pjo._codegen``."""

from ..bundle import _INVALID, _read, _report_fields, _warn_unknown
from ..codes import ConceptCode, validate_icd10
from ..graph import FORMAT_VERSION, _DATE_SHAPE, _ICD10, _LINK_KINDS, _SURROGATE, _calendar_day
from ..records import Bundle, CarePlan, ContactInformation, DiagTest, Diagnosis, Encounter, FIELDS, IntakeForm, JourneyEdge, MedicalHistory, Medication, Patient, Provider, SocialHistory, Symptom, VitalSign, check_blood_pressure, check_body_temperature, check_heart_rate, check_weight, check_years_of_experience

F_ContactInformation = FIELDS[ContactInformation]
K_ContactInformation = frozenset({'address', 'phoneNumber', 'email', 'emergencyContact'})
F_Patient = FIELDS[Patient]
K_Patient = frozenset({'patientID', 'patientName', 'birthDate', 'race', 'gender', 'contactInformation', 'insuranceName', 'insuranceID'})
F_Provider = FIELDS[Provider]
K_Provider = frozenset({'providerID', 'providerName', 'specialization', 'affiliatedInstitution', 'yearsOfExperience'})
F_MedicalHistory = FIELDS[MedicalHistory]
K_MedicalHistory = frozenset({'hadSurgery', 'chronicIllness', 'medicationAllergies', 'familyMedicalHistory'})
F_SocialHistory = FIELDS[SocialHistory]
K_SocialHistory = frozenset({'smokingHabit', 'drinkingHabit', 'diet', 'exerciseRoutine', 'maritalStatus', 'occupation', 'educationLevel', 'annualIncome'})
F_IntakeForm = FIELDS[IntakeForm]
K_IntakeForm = frozenset({'intakeFormID', 'medicalHistory', 'socialHistory'})
F_Symptom = FIELDS[Symptom]
K_Symptom = frozenset({'symptomName', 'severity'})
F_VitalSign = FIELDS[VitalSign]
K_VitalSign = frozenset({'bodyTemperature', 'bloodPressure', 'weight', 'heartRate'})
F_DiagTest = FIELDS[DiagTest]
K_DiagTest = frozenset({'testName', 'results', 'normalRange'})
F_Diagnosis = FIELDS[Diagnosis]
K_Diagnosis = frozenset({'diagnosisName', 'icd10'})
F_Medication = FIELDS[Medication]
K_Medication = frozenset({'medicationName', 'dosage', 'frequency'})
F_CarePlan = FIELDS[CarePlan]
K_CarePlan = frozenset({'planID', 'description', 'referralSpecialty'})
F_Encounter = FIELDS[Encounter]
K_Encounter = frozenset({'encounterID', 'date', 'specialty', 'providerRef', 'symptoms', 'vitals', 'tests', 'diagnoses', 'medications', 'carePlans'})
F_JourneyEdge = FIELDS[JourneyEdge]
K_JourneyEdge = frozenset({'kind', 'from', 'to', 'via'})
F_Bundle = FIELDS[Bundle]
K_Bundle = frozenset({'formatVersion', 'patient', 'providers', 'intakeForm', 'encounters', 'links'})


def read_ContactInformation(o, path, problems):
    if not K_ContactInformation.issuperset(o): _warn_unknown(o, K_ContactInformation, path, problems)
    if not (((v0_0 := o.get('address')) is None or (v0_0.__class__ is str) and (v0_0.isascii() or not _SURROGATE(v0_0))) and ((v0_1 := o.get('phoneNumber')) is None or (v0_1.__class__ is str) and (v0_1.isascii() or not _SURROGATE(v0_1))) and ((v0_2 := o.get('email')) is None or (v0_2.__class__ is str) and (v0_2.isascii() or not _SURROGATE(v0_2))) and ((v0_3 := o.get('emergencyContact')) is None or (v0_3.__class__ is str) and (v0_3.isascii() or not _SURROGATE(v0_3)))): return _report_fields(ContactInformation, o, path, problems)
    return ContactInformation(v0_0, v0_1, v0_2, v0_3)


def read_Patient(o, path, problems):
    if not K_Patient.issuperset(o): _warn_unknown(o, K_Patient, path, problems)
    if not (((v0_0 := o.get('patientID')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and ((v0_1 := o.get('patientName')).__class__ is str) and (v0_1) and (v0_1.isascii() or not _SURROGATE(v0_1)) and ((v0_2 := o.get('birthDate')).__class__ is str) and (_DATE_SHAPE(v0_2)) and (c0_2 := _calendar_day(v0_2)) and ((v0_3 := o.get('race')) is None or (v0_3.__class__ is str) and (v0_3.isascii() or not _SURROGATE(v0_3))) and ((v0_4 := o.get('gender')) is None or (v0_4.__class__ is str) and (v0_4.isascii() or not _SURROGATE(v0_4))) and ((v0_6 := o.get('insuranceName')) is None or (v0_6.__class__ is str) and (v0_6.isascii() or not _SURROGATE(v0_6))) and ((v0_7 := o.get('insuranceID')) is None or (v0_7.__class__ is str) and (v0_7.isascii() or not _SURROGATE(v0_7)))): return _report_fields(Patient, o, path, problems)
    x5 = _read(F_Patient[5], o.get('contactInformation'), path, problems)
    if x5 is _INVALID: return _INVALID
    return Patient(v0_0, v0_1, c0_2, v0_3, v0_4, x5, v0_6, v0_7)


def read_Provider(o, path, problems):
    if not K_Provider.issuperset(o): _warn_unknown(o, K_Provider, path, problems)
    if not (((v0_0 := o.get('providerID')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and ((v0_1 := o.get('providerName')).__class__ is str) and (v0_1) and (v0_1.isascii() or not _SURROGATE(v0_1)) and ((v0_2 := o.get('specialization')) is None or (v0_2.__class__ is str) and (v0_2.isascii() or not _SURROGATE(v0_2))) and ((v0_3 := o.get('affiliatedInstitution')) is None or (v0_3.__class__ is str) and (v0_3.isascii() or not _SURROGATE(v0_3))) and ((v0_4 := o.get('yearsOfExperience')) is None or (v0_4.__class__ is int) and (check_years_of_experience(v0_4) is None))): return _report_fields(Provider, o, path, problems)
    return Provider(v0_0, v0_1, v0_2, v0_3, v0_4)


def read_MedicalHistory(o, path, problems):
    if not K_MedicalHistory.issuperset(o): _warn_unknown(o, K_MedicalHistory, path, problems)
    if (v := o.get('hadSurgery')).__class__ is list:
        x0 = []
        for e in v:
            if (e.__class__ is str) and (e) and (e.isascii() or not _SURROGATE(e)): x0.append(e)
            else:
                x0 = _read(F_MedicalHistory[0], v, path, problems)
                break
    else:
        x0 = _read(F_MedicalHistory[0], v, path, problems)
    if (v := o.get('chronicIllness')).__class__ is list:
        x1 = []
        for e in v:
            if (e.__class__ is str) and (e) and (e.isascii() or not _SURROGATE(e)): x1.append(e)
            else:
                x1 = _read(F_MedicalHistory[1], v, path, problems)
                break
    else:
        x1 = _read(F_MedicalHistory[1], v, path, problems)
    if (v := o.get('medicationAllergies')).__class__ is list:
        x2 = []
        for e in v:
            if (e.__class__ is str) and (e) and (e.isascii() or not _SURROGATE(e)): x2.append(e)
            else:
                x2 = _read(F_MedicalHistory[2], v, path, problems)
                break
    else:
        x2 = _read(F_MedicalHistory[2], v, path, problems)
    if (v := o.get('familyMedicalHistory')).__class__ is list:
        x3 = []
        for e in v:
            if (e.__class__ is str) and (e) and (e.isascii() or not _SURROGATE(e)): x3.append(e)
            else:
                x3 = _read(F_MedicalHistory[3], v, path, problems)
                break
    else:
        x3 = _read(F_MedicalHistory[3], v, path, problems)
    if x0 is _INVALID or x1 is _INVALID or x2 is _INVALID or x3 is _INVALID: return _INVALID
    return MedicalHistory(x0, x1, x2, x3)


def read_SocialHistory(o, path, problems):
    if not K_SocialHistory.issuperset(o): _warn_unknown(o, K_SocialHistory, path, problems)
    if not (((v0_0 := o.get('smokingHabit')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and ((v0_1 := o.get('drinkingHabit')).__class__ is str) and (v0_1) and (v0_1.isascii() or not _SURROGATE(v0_1)) and ((v0_2 := o.get('diet')) is None or (v0_2.__class__ is str) and (v0_2.isascii() or not _SURROGATE(v0_2))) and ((v0_3 := o.get('exerciseRoutine')) is None or (v0_3.__class__ is str) and (v0_3.isascii() or not _SURROGATE(v0_3))) and ((v0_4 := o.get('maritalStatus')) is None or (v0_4.__class__ is str) and (v0_4.isascii() or not _SURROGATE(v0_4))) and ((v0_5 := o.get('occupation')) is None or (v0_5.__class__ is str) and (v0_5.isascii() or not _SURROGATE(v0_5))) and ((v0_6 := o.get('educationLevel')) is None or (v0_6.__class__ is str) and (v0_6.isascii() or not _SURROGATE(v0_6))) and ((v0_7 := o.get('annualIncome')) is None or (v0_7.__class__ is str) and (v0_7.isascii() or not _SURROGATE(v0_7)))): return _report_fields(SocialHistory, o, path, problems)
    return SocialHistory(v0_0, v0_1, v0_2, v0_3, v0_4, v0_5, v0_6, v0_7)


def read_IntakeForm(o, path, problems):
    if not K_IntakeForm.issuperset(o): _warn_unknown(o, K_IntakeForm, path, problems)
    if not (((v0_0 := o.get('intakeFormID')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0))): return _report_fields(IntakeForm, o, path, problems)
    x1 = _read(F_IntakeForm[1], o.get('medicalHistory'), path, problems)
    x2 = _read(F_IntakeForm[2], o.get('socialHistory'), path, problems)
    if x1 is _INVALID or x2 is _INVALID: return _INVALID
    return IntakeForm(v0_0, x1, x2)


def read_Symptom(o, path, problems):
    if not K_Symptom.issuperset(o): _warn_unknown(o, K_Symptom, path, problems)
    if not (((v0_0 := o.get('symptomName')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and ((v0_1 := o.get('severity')) is None or (v0_1.__class__ is str) and (v0_1.isascii() or not _SURROGATE(v0_1)))): return _report_fields(Symptom, o, path, problems)
    return Symptom(v0_0, ('' if v0_1 is None else v0_1))


def read_VitalSign(o, path, problems):
    if not K_VitalSign.issuperset(o): _warn_unknown(o, K_VitalSign, path, problems)
    if not (((v0_0 := o.get('bodyTemperature')) is None or (v0_0.__class__ is float or v0_0.__class__ is int) and (check_body_temperature(v0_0) is None)) and ((v0_1 := o.get('bloodPressure')) is None or (v0_1.__class__ is str) and (v0_1.isascii() or not _SURROGATE(v0_1)) and (check_blood_pressure(v0_1) is None)) and ((v0_2 := o.get('weight')) is None or (v0_2.__class__ is float or v0_2.__class__ is int) and (check_weight(v0_2) is None)) and ((v0_3 := o.get('heartRate')) is None or (v0_3.__class__ is float or v0_3.__class__ is int) and (check_heart_rate(v0_3) is None))): return _report_fields(VitalSign, o, path, problems)
    return VitalSign(v0_0, v0_1, v0_2, v0_3)


def read_DiagTest(o, path, problems):
    if not K_DiagTest.issuperset(o): _warn_unknown(o, K_DiagTest, path, problems)
    if not (((v0_0 := o.get('testName')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and ((v0_1 := o.get('results')) is None or (v0_1.__class__ is str) and (v0_1.isascii() or not _SURROGATE(v0_1))) and ((v0_2 := o.get('normalRange')) is None or (v0_2.__class__ is str) and (v0_2.isascii() or not _SURROGATE(v0_2)))): return _report_fields(DiagTest, o, path, problems)
    return DiagTest(v0_0, ('' if v0_1 is None else v0_1), v0_2)


def read_Diagnosis(o, path, problems):
    if not K_Diagnosis.issuperset(o): _warn_unknown(o, K_Diagnosis, path, problems)
    if not (((v0_0 := o.get('diagnosisName')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and ((v0_1 := o.get('icd10')) is None or (v0_1.__class__ is str) and (v0_1.isascii() or not _SURROGATE(v0_1)) and (c0_1 := ConceptCode(_ICD10, v0_1)) and (validate_icd10(c0_1.code)))): return _report_fields(Diagnosis, o, path, problems)
    return Diagnosis(v0_0, (None if v0_1 is None else c0_1))


def read_Medication(o, path, problems):
    if not K_Medication.issuperset(o): _warn_unknown(o, K_Medication, path, problems)
    if not (((v0_0 := o.get('medicationName')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and ((v0_1 := o.get('dosage')) is None or (v0_1.__class__ is str) and (v0_1.isascii() or not _SURROGATE(v0_1))) and ((v0_2 := o.get('frequency')) is None or (v0_2.__class__ is str) and (v0_2.isascii() or not _SURROGATE(v0_2)))): return _report_fields(Medication, o, path, problems)
    return Medication(v0_0, ('' if v0_1 is None else v0_1), ('' if v0_2 is None else v0_2))


def read_CarePlan(o, path, problems):
    if not K_CarePlan.issuperset(o): _warn_unknown(o, K_CarePlan, path, problems)
    if not (((v0_0 := o.get('planID')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and ((v0_1 := o.get('description')) is None or (v0_1.__class__ is str) and (v0_1.isascii() or not _SURROGATE(v0_1))) and ((v0_2 := o.get('referralSpecialty')) is None or (v0_2.__class__ is str) and (v0_2.isascii() or not _SURROGATE(v0_2)))): return _report_fields(CarePlan, o, path, problems)
    return CarePlan(v0_0, ('' if v0_1 is None else v0_1), v0_2)


def read_Encounter(o, path, problems):
    if not K_Encounter.issuperset(o): _warn_unknown(o, K_Encounter, path, problems)
    if not (((v0_0 := o.get('encounterID')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and ((v0_1 := o.get('date')).__class__ is str) and (_DATE_SHAPE(v0_1)) and (c0_1 := _calendar_day(v0_1)) and ((v0_2 := o.get('specialty')).__class__ is str) and (v0_2) and (v0_2.isascii() or not _SURROGATE(v0_2)) and ((v0_3 := o.get('providerRef')).__class__ is str) and (v0_3) and (v0_3.isascii() or not _SURROGATE(v0_3))): return _report_fields(Encounter, o, path, problems)
    if (v := o.get('symptoms')).__class__ is list:
        x4 = []
        for e in v:
            if e.__class__ is dict and K_Symptom.issuperset(e) and ((v1_0 := e.get('symptomName')).__class__ is str) and (v1_0) and (v1_0.isascii() or not _SURROGATE(v1_0)) and ((v1_1 := e.get('severity')) is None or (v1_1.__class__ is str) and (v1_1.isascii() or not _SURROGATE(v1_1))): x4.append(Symptom(v1_0, ('' if v1_1 is None else v1_1)))
            else:
                x4 = _read(F_Encounter[4], v, path, problems)
                break
    else:
        x4 = _read(F_Encounter[4], v, path, problems)
    if (v := o.get('vitals')).__class__ is list:
        x5 = []
        for e in v:
            if e.__class__ is dict and K_VitalSign.issuperset(e) and ((v1_0 := e.get('bodyTemperature')) is None or (v1_0.__class__ is float or v1_0.__class__ is int) and (check_body_temperature(v1_0) is None)) and ((v1_1 := e.get('bloodPressure')) is None or (v1_1.__class__ is str) and (v1_1.isascii() or not _SURROGATE(v1_1)) and (check_blood_pressure(v1_1) is None)) and ((v1_2 := e.get('weight')) is None or (v1_2.__class__ is float or v1_2.__class__ is int) and (check_weight(v1_2) is None)) and ((v1_3 := e.get('heartRate')) is None or (v1_3.__class__ is float or v1_3.__class__ is int) and (check_heart_rate(v1_3) is None)): x5.append(VitalSign(v1_0, v1_1, v1_2, v1_3))
            else:
                x5 = _read(F_Encounter[5], v, path, problems)
                break
    else:
        x5 = _read(F_Encounter[5], v, path, problems)
    if (v := o.get('tests')).__class__ is list:
        x6 = []
        for e in v:
            if e.__class__ is dict and K_DiagTest.issuperset(e) and ((v1_0 := e.get('testName')).__class__ is str) and (v1_0) and (v1_0.isascii() or not _SURROGATE(v1_0)) and ((v1_1 := e.get('results')) is None or (v1_1.__class__ is str) and (v1_1.isascii() or not _SURROGATE(v1_1))) and ((v1_2 := e.get('normalRange')) is None or (v1_2.__class__ is str) and (v1_2.isascii() or not _SURROGATE(v1_2))): x6.append(DiagTest(v1_0, ('' if v1_1 is None else v1_1), v1_2))
            else:
                x6 = _read(F_Encounter[6], v, path, problems)
                break
    else:
        x6 = _read(F_Encounter[6], v, path, problems)
    if (v := o.get('diagnoses')).__class__ is list:
        x7 = []
        for e in v:
            if e.__class__ is dict and K_Diagnosis.issuperset(e) and ((v1_0 := e.get('diagnosisName')).__class__ is str) and (v1_0) and (v1_0.isascii() or not _SURROGATE(v1_0)) and ((v1_1 := e.get('icd10')) is None or (v1_1.__class__ is str) and (v1_1.isascii() or not _SURROGATE(v1_1)) and (c1_1 := ConceptCode(_ICD10, v1_1)) and (validate_icd10(c1_1.code))): x7.append(Diagnosis(v1_0, (None if v1_1 is None else c1_1)))
            else:
                x7 = _read(F_Encounter[7], v, path, problems)
                break
    else:
        x7 = _read(F_Encounter[7], v, path, problems)
    if (v := o.get('medications')).__class__ is list:
        x8 = []
        for e in v:
            if e.__class__ is dict and K_Medication.issuperset(e) and ((v1_0 := e.get('medicationName')).__class__ is str) and (v1_0) and (v1_0.isascii() or not _SURROGATE(v1_0)) and ((v1_1 := e.get('dosage')) is None or (v1_1.__class__ is str) and (v1_1.isascii() or not _SURROGATE(v1_1))) and ((v1_2 := e.get('frequency')) is None or (v1_2.__class__ is str) and (v1_2.isascii() or not _SURROGATE(v1_2))): x8.append(Medication(v1_0, ('' if v1_1 is None else v1_1), ('' if v1_2 is None else v1_2)))
            else:
                x8 = _read(F_Encounter[8], v, path, problems)
                break
    else:
        x8 = _read(F_Encounter[8], v, path, problems)
    if (v := o.get('carePlans')).__class__ is list:
        x9 = []
        for e in v:
            if e.__class__ is dict and K_CarePlan.issuperset(e) and ((v1_0 := e.get('planID')).__class__ is str) and (v1_0) and (v1_0.isascii() or not _SURROGATE(v1_0)) and ((v1_1 := e.get('description')) is None or (v1_1.__class__ is str) and (v1_1.isascii() or not _SURROGATE(v1_1))) and ((v1_2 := e.get('referralSpecialty')) is None or (v1_2.__class__ is str) and (v1_2.isascii() or not _SURROGATE(v1_2))): x9.append(CarePlan(v1_0, ('' if v1_1 is None else v1_1), v1_2))
            else:
                x9 = _read(F_Encounter[9], v, path, problems)
                break
    else:
        x9 = _read(F_Encounter[9], v, path, problems)
    if x4 is _INVALID or x5 is _INVALID or x6 is _INVALID or x7 is _INVALID or x8 is _INVALID or x9 is _INVALID: return _INVALID
    return Encounter(v0_0, c0_1, v0_2, v0_3, x4, x5, x6, x7, x8, x9)


def read_JourneyEdge(o, path, problems):
    if not K_JourneyEdge.issuperset(o): _warn_unknown(o, K_JourneyEdge, path, problems)
    if not (((v0_0 := o.get('kind')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and (c0_0 := _LINK_KINDS.get(v0_0)) and ((v0_1 := o.get('from')).__class__ is str) and (v0_1) and (v0_1.isascii() or not _SURROGATE(v0_1)) and ((v0_2 := o.get('to')).__class__ is str) and (v0_2) and (v0_2.isascii() or not _SURROGATE(v0_2)) and ((v0_3 := o.get('via')) is None or (v0_3.__class__ is str) and (v0_3.isascii() or not _SURROGATE(v0_3)))): return _report_fields(JourneyEdge, o, path, problems)
    return JourneyEdge(c0_0, v0_1, v0_2, v0_3)


def read_Bundle(o, path, problems):
    if not K_Bundle.issuperset(o): _warn_unknown(o, K_Bundle, path, problems)
    if not (((v0_0 := o.get('formatVersion')).__class__ is str) and (v0_0) and (v0_0.isascii() or not _SURROGATE(v0_0)) and (v0_0 == FORMAT_VERSION)): return _report_fields(Bundle, o, path, problems)
    x1 = _read(F_Bundle[1], o.get('patient'), path, problems)
    if (v := o.get('providers')).__class__ is list:
        x2 = []
        for e in v:
            if e.__class__ is dict and K_Provider.issuperset(e) and ((v1_0 := e.get('providerID')).__class__ is str) and (v1_0) and (v1_0.isascii() or not _SURROGATE(v1_0)) and ((v1_1 := e.get('providerName')).__class__ is str) and (v1_1) and (v1_1.isascii() or not _SURROGATE(v1_1)) and ((v1_2 := e.get('specialization')) is None or (v1_2.__class__ is str) and (v1_2.isascii() or not _SURROGATE(v1_2))) and ((v1_3 := e.get('affiliatedInstitution')) is None or (v1_3.__class__ is str) and (v1_3.isascii() or not _SURROGATE(v1_3))) and ((v1_4 := e.get('yearsOfExperience')) is None or (v1_4.__class__ is int) and (check_years_of_experience(v1_4) is None)): x2.append(Provider(v1_0, v1_1, v1_2, v1_3, v1_4))
            else:
                x2 = _read(F_Bundle[2], v, path, problems)
                break
    else:
        x2 = _read(F_Bundle[2], v, path, problems)
    x3 = _read(F_Bundle[3], o.get('intakeForm'), path, problems)
    x4 = _read(F_Bundle[4], o.get('encounters'), path, problems)
    if (v := o.get('links')).__class__ is list:
        x5 = []
        for e in v:
            if e.__class__ is dict and K_JourneyEdge.issuperset(e) and ((v1_0 := e.get('kind')).__class__ is str) and (v1_0) and (v1_0.isascii() or not _SURROGATE(v1_0)) and (c1_0 := _LINK_KINDS.get(v1_0)) and ((v1_1 := e.get('from')).__class__ is str) and (v1_1) and (v1_1.isascii() or not _SURROGATE(v1_1)) and ((v1_2 := e.get('to')).__class__ is str) and (v1_2) and (v1_2.isascii() or not _SURROGATE(v1_2)) and ((v1_3 := e.get('via')) is None or (v1_3.__class__ is str) and (v1_3.isascii() or not _SURROGATE(v1_3))): x5.append(JourneyEdge(c1_0, v1_1, v1_2, v1_3))
            else:
                x5 = _read(F_Bundle[5], v, path, problems)
                break
    else:
        x5 = _read(F_Bundle[5], v, path, problems)
    if x1 is _INVALID or x2 is _INVALID or x3 is _INVALID or x4 is _INVALID or x5 is _INVALID: return _INVALID
    return Bundle(v0_0, x1, x2, x3, x4, x5)


READERS = {
    ContactInformation: read_ContactInformation,
    Patient: read_Patient,
    Provider: read_Provider,
    MedicalHistory: read_MedicalHistory,
    SocialHistory: read_SocialHistory,
    IntakeForm: read_IntakeForm,
    Symptom: read_Symptom,
    VitalSign: read_VitalSign,
    DiagTest: read_DiagTest,
    Diagnosis: read_Diagnosis,
    Medication: read_Medication,
    CarePlan: read_CarePlan,
    Encounter: read_Encounter,
    JourneyEdge: read_JourneyEdge,
    Bundle: read_Bundle,
}
