"""The ``__init__`` and ``_values`` of each slotted class: code pjo generates.

Do not edit: ``scripts/generate_code.py`` writes it and must be run again after
any change to ``records.FIELDS``, ``graph.RULES`` or a generator in ``pjo._codegen``."""

_MISSING = object()
_set = object.__setattr__


def methods_RatingMatrix():
    def __init__(self, counts, raters_per_subject):
        _set(self, 'counts', counts)
        _set(self, 'raters_per_subject', raters_per_subject)
    def _values(self):
        return (self.counts, self.raters_per_subject, )
    return __init__, _values


def methods_KappaResult():
    def __init__(self, kappa, standard_error, ci95, observed_agreement, expected_agreement):
        _set(self, 'kappa', kappa)
        _set(self, 'standard_error', standard_error)
        _set(self, 'ci95', ci95)
        _set(self, 'observed_agreement', observed_agreement)
        _set(self, 'expected_agreement', expected_agreement)
    def _values(self):
        return (self.kappa, self.standard_error, self.ci95, self.observed_agreement, self.expected_agreement, )
    return __init__, _values


def methods_DimensionSummary():
    def __init__(self, dimension, n_responses, mean, sd, agree_fraction):
        _set(self, 'dimension', dimension)
        _set(self, 'n_responses', n_responses)
        _set(self, 'mean', mean)
        _set(self, 'sd', sd)
        _set(self, 'agree_fraction', agree_fraction)
    def _values(self):
        return (self.dimension, self.n_responses, self.mean, self.sd, self.agree_fraction, )
    return __init__, _values


def methods_LikertSummary():
    def __init__(self, dimensions, overall_mean, overall_sd):
        _set(self, 'dimensions', dimensions)
        _set(self, 'overall_mean', overall_mean)
        _set(self, 'overall_sd', overall_sd)
    def _values(self):
        return (self.dimensions, self.overall_mean, self.overall_sd, )
    return __init__, _values


def methods_ParseResult(make_problems):
    def __init__(self, graph, problems=_MISSING, report=None):
        self.graph = graph
        self.problems = make_problems() if problems is _MISSING else problems
        self.report = report
    def _values(self):
        return (self.graph, self.problems, self.report, )
    return __init__, _values


def methods_ConceptCode():
    def __init__(self, system, code):
        _set(self, 'system', system)
        _set(self, 'code', code)
    def _values(self):
        return (self.system, self.code, )
    return __init__, _values


def methods_Diagnostic():
    def __init__(self, severity, code, message, location):
        _set(self, 'severity', severity)
        _set(self, 'code', code)
        _set(self, 'message', message)
        _set(self, 'location', location)
    def _values(self):
        return (self.severity, self.code, self.message, self.location, )
    return __init__, _values


def methods_ValidationReport(make_diagnostics):
    def __init__(self, diagnostics=_MISSING):
        self.diagnostics = make_diagnostics() if diagnostics is _MISSING else diagnostics
    def _values(self):
        return (self.diagnostics, )
    return __init__, _values


def methods_JourneyGraph(make_patients, make_providers, make_intake_forms, make_encounters, make_encounter_owner, make_intake_form_owner, make_edges):
    def __init__(self, patients=_MISSING, providers=_MISSING, intake_forms=_MISSING, encounters=_MISSING, encounter_owner=_MISSING, intake_form_owner=_MISSING, edges=_MISSING):
        self.patients = make_patients() if patients is _MISSING else patients
        self.providers = make_providers() if providers is _MISSING else providers
        self.intake_forms = make_intake_forms() if intake_forms is _MISSING else intake_forms
        self.encounters = make_encounters() if encounters is _MISSING else encounters
        self.encounter_owner = make_encounter_owner() if encounter_owner is _MISSING else encounter_owner
        self.intake_form_owner = make_intake_form_owner() if intake_form_owner is _MISSING else intake_form_owner
        self.edges = make_edges() if edges is _MISSING else edges
        self.__post_init__()
    def _values(self):
        return (self.patients, self.providers, self.intake_forms, self.encounters, self.encounter_owner, self.intake_form_owner, self.edges, )
    return __init__, _values


def methods_LinkRef():
    def __init__(self, kind, encounter_id):
        _set(self, 'kind', kind)
        _set(self, 'encounter_id', encounter_id)
    def _values(self):
        return (self.kind, self.encounter_id, )
    return __init__, _values


def methods_TimelineEntry():
    def __init__(self, encounter_id, date, specialty, inbound_links, outbound_links, headline_diagnoses):
        _set(self, 'encounter_id', encounter_id)
        _set(self, 'date', date)
        _set(self, 'specialty', specialty)
        _set(self, 'inbound_links', inbound_links)
        _set(self, 'outbound_links', outbound_links)
        _set(self, 'headline_diagnoses', headline_diagnoses)
    def _values(self):
        return (self.encounter_id, self.date, self.specialty, self.inbound_links, self.outbound_links, self.headline_diagnoses, )
    return __init__, _values


def methods_SymptomOccurrence():
    def __init__(self, encounter_id, date, symptom_name, severity):
        _set(self, 'encounter_id', encounter_id)
        _set(self, 'date', date)
        _set(self, 'symptom_name', symptom_name)
        _set(self, 'severity', severity)
    def _values(self):
        return (self.encounter_id, self.date, self.symptom_name, self.severity, )
    return __init__, _values


def methods_SymptomDiagnosisLink():
    def __init__(self, symptom_name, diagnosis_name, encounter_id):
        _set(self, 'symptom_name', symptom_name)
        _set(self, 'diagnosis_name', diagnosis_name)
        _set(self, 'encounter_id', encounter_id)
    def _values(self):
        return (self.symptom_name, self.diagnosis_name, self.encounter_id, )
    return __init__, _values


def methods_Field():
    def __init__(self, key, attr, type='string', required=False, record=None, check=None, default=None):
        _set(self, 'key', key)
        _set(self, 'attr', attr)
        _set(self, 'type', type)
        _set(self, 'required', required)
        _set(self, 'record', record)
        _set(self, 'check', check)
        _set(self, 'default', default)
    def _values(self):
        return (self.key, self.attr, self.type, self.required, self.record, self.check, self.default, )
    return __init__, _values


def methods_ContactInformation():
    def __init__(self, address=None, phone_number=None, email=None, emergency_contact=None):
        self.address = address
        self.phone_number = phone_number
        self.email = email
        self.emergency_contact = emergency_contact
    def _values(self):
        return (self.address, self.phone_number, self.email, self.emergency_contact, )
    return __init__, _values


def methods_Patient(make_contact):
    def __init__(self, patient_id, patient_name, birth_date, race=None, gender=None, contact=_MISSING, insurance_name=None, insurance_id=None):
        self.patient_id = patient_id
        self.patient_name = patient_name
        self.birth_date = birth_date
        self.race = race
        self.gender = gender
        self.contact = make_contact() if contact is _MISSING else contact
        self.insurance_name = insurance_name
        self.insurance_id = insurance_id
    def _values(self):
        return (self.patient_id, self.patient_name, self.birth_date, self.race, self.gender, self.contact, self.insurance_name, self.insurance_id, )
    return __init__, _values


def methods_Provider():
    def __init__(self, provider_id, provider_name, specialization=None, affiliated_institution=None, years_of_experience=None):
        self.provider_id = provider_id
        self.provider_name = provider_name
        self.specialization = specialization
        self.affiliated_institution = affiliated_institution
        self.years_of_experience = years_of_experience
    def _values(self):
        return (self.provider_id, self.provider_name, self.specialization, self.affiliated_institution, self.years_of_experience, )
    return __init__, _values


def methods_MedicalHistory(make_had_surgery, make_chronic_illness, make_medication_allergies, make_family_medical_history):
    def __init__(self, had_surgery=_MISSING, chronic_illness=_MISSING, medication_allergies=_MISSING, family_medical_history=_MISSING):
        self.had_surgery = make_had_surgery() if had_surgery is _MISSING else had_surgery
        self.chronic_illness = make_chronic_illness() if chronic_illness is _MISSING else chronic_illness
        self.medication_allergies = make_medication_allergies() if medication_allergies is _MISSING else medication_allergies
        self.family_medical_history = make_family_medical_history() if family_medical_history is _MISSING else family_medical_history
    def _values(self):
        return (self.had_surgery, self.chronic_illness, self.medication_allergies, self.family_medical_history, )
    return __init__, _values


def methods_SocialHistory():
    def __init__(self, smoking_habit, drinking_habit, diet=None, exercise_routine=None, marital_status=None, occupation=None, education_level=None, annual_income=None):
        self.smoking_habit = smoking_habit
        self.drinking_habit = drinking_habit
        self.diet = diet
        self.exercise_routine = exercise_routine
        self.marital_status = marital_status
        self.occupation = occupation
        self.education_level = education_level
        self.annual_income = annual_income
    def _values(self):
        return (self.smoking_habit, self.drinking_habit, self.diet, self.exercise_routine, self.marital_status, self.occupation, self.education_level, self.annual_income, )
    return __init__, _values


def methods_IntakeForm():
    def __init__(self, intake_form_id, medical_history, social_history):
        self.intake_form_id = intake_form_id
        self.medical_history = medical_history
        self.social_history = social_history
    def _values(self):
        return (self.intake_form_id, self.medical_history, self.social_history, )
    return __init__, _values


def methods_Symptom():
    def __init__(self, symptom_name, severity=''):
        self.symptom_name = symptom_name
        self.severity = severity
    def _values(self):
        return (self.symptom_name, self.severity, )
    return __init__, _values


def methods_VitalSign():
    def __init__(self, body_temperature=None, blood_pressure=None, weight=None, heart_rate=None):
        self.body_temperature = body_temperature
        self.blood_pressure = blood_pressure
        self.weight = weight
        self.heart_rate = heart_rate
    def _values(self):
        return (self.body_temperature, self.blood_pressure, self.weight, self.heart_rate, )
    return __init__, _values


def methods_DiagTest():
    def __init__(self, test_name, results='', normal_range=None):
        self.test_name = test_name
        self.results = results
        self.normal_range = normal_range
    def _values(self):
        return (self.test_name, self.results, self.normal_range, )
    return __init__, _values


def methods_Diagnosis():
    def __init__(self, diagnosis_name, icd10=None):
        self.diagnosis_name = diagnosis_name
        self.icd10 = icd10
    def _values(self):
        return (self.diagnosis_name, self.icd10, )
    return __init__, _values


def methods_Medication():
    def __init__(self, medication_name, dosage='', frequency=''):
        self.medication_name = medication_name
        self.dosage = dosage
        self.frequency = frequency
    def _values(self):
        return (self.medication_name, self.dosage, self.frequency, )
    return __init__, _values


def methods_CarePlan():
    def __init__(self, plan_id, description='', referral_specialty=None):
        self.plan_id = plan_id
        self.description = description
        self.referral_specialty = referral_specialty
    def _values(self):
        return (self.plan_id, self.description, self.referral_specialty, )
    return __init__, _values


def methods_Encounter(make_symptoms, make_vitals, make_tests, make_diagnoses, make_medications, make_care_plans):
    def __init__(self, encounter_id, date, specialty, provider_ref, symptoms=_MISSING, vitals=_MISSING, tests=_MISSING, diagnoses=_MISSING, medications=_MISSING, care_plans=_MISSING):
        self.encounter_id = encounter_id
        self.date = date
        self.specialty = specialty
        self.provider_ref = provider_ref
        self.symptoms = make_symptoms() if symptoms is _MISSING else symptoms
        self.vitals = make_vitals() if vitals is _MISSING else vitals
        self.tests = make_tests() if tests is _MISSING else tests
        self.diagnoses = make_diagnoses() if diagnoses is _MISSING else diagnoses
        self.medications = make_medications() if medications is _MISSING else medications
        self.care_plans = make_care_plans() if care_plans is _MISSING else care_plans
    def _values(self):
        return (self.encounter_id, self.date, self.specialty, self.provider_ref, self.symptoms, self.vitals, self.tests, self.diagnoses, self.medications, self.care_plans, )
    return __init__, _values


def methods_JourneyEdge():
    def __init__(self, kind, from_encounter, to_encounter, via=None):
        _set(self, 'kind', kind)
        _set(self, 'from_encounter', from_encounter)
        _set(self, 'to_encounter', to_encounter)
        _set(self, 'via', via)
    def _values(self):
        return (self.kind, self.from_encounter, self.to_encounter, self.via, )
    return __init__, _values


def methods_Bundle(make_providers, make_encounters, make_links):
    def __init__(self, format_version, patient, providers=_MISSING, intake_form=None, encounters=_MISSING, links=_MISSING):
        self.format_version = format_version
        self.patient = patient
        self.providers = make_providers() if providers is _MISSING else providers
        self.intake_form = intake_form
        self.encounters = make_encounters() if encounters is _MISSING else encounters
        self.links = make_links() if links is _MISSING else links
    def _values(self):
        return (self.format_version, self.patient, self.providers, self.intake_form, self.encounters, self.links, )
    return __init__, _values
