"""The classes pjo generates from its field table.  Do not edit: written by
``scripts/generate_code.py``.

Each factory's body is one generated source, verbatim, and returns the
functions the source defines.  ``SOURCES`` maps the source text to its
factory, whose code ``records.define`` runs instead of compiling the text.
"""


def _0():  # <Field class>
    def __init__(self, key, attr, type=_default_type, required=_default_required, record=_default_record, check=_default_check, default=_default_default):
        _set(self, 'key', key)
        _set(self, 'attr', attr)
        _set(self, 'type', type)
        _set(self, 'required', required)
        _set(self, 'record', record)
        _set(self, 'check', check)
        _set(self, 'default', default)
    def _values(self):
        return (self.key, self.attr, self.type, self.required, self.record, self.check, self.default, )
    return locals()


def _1():  # <ContactInformation class>
    def __init__(self, address=_default_address, phone_number=_default_phone_number, email=_default_email, emergency_contact=_default_emergency_contact):
        self.address = address
        self.phone_number = phone_number
        self.email = email
        self.emergency_contact = emergency_contact
    def _values(self):
        return (self.address, self.phone_number, self.email, self.emergency_contact, )
    return locals()


def _2():  # <Patient class>
    def __init__(self, patient_id, patient_name, birth_date, race=_default_race, gender=_default_gender, contact=_MISSING, insurance_name=_default_insurance_name, insurance_id=_default_insurance_id):
        self.patient_id = patient_id
        self.patient_name = patient_name
        self.birth_date = birth_date
        self.race = race
        self.gender = gender
        self.contact = _make_contact() if contact is _MISSING else contact
        self.insurance_name = insurance_name
        self.insurance_id = insurance_id
    def _values(self):
        return (self.patient_id, self.patient_name, self.birth_date, self.race, self.gender, self.contact, self.insurance_name, self.insurance_id, )
    return locals()


def _3():  # <Provider class>
    def __init__(self, provider_id, provider_name, specialization=_default_specialization, affiliated_institution=_default_affiliated_institution, years_of_experience=_default_years_of_experience):
        self.provider_id = provider_id
        self.provider_name = provider_name
        self.specialization = specialization
        self.affiliated_institution = affiliated_institution
        self.years_of_experience = years_of_experience
    def _values(self):
        return (self.provider_id, self.provider_name, self.specialization, self.affiliated_institution, self.years_of_experience, )
    return locals()


def _4():  # <MedicalHistory class>
    def __init__(self, had_surgery=_MISSING, chronic_illness=_MISSING, medication_allergies=_MISSING, family_medical_history=_MISSING):
        self.had_surgery = _make_had_surgery() if had_surgery is _MISSING else had_surgery
        self.chronic_illness = _make_chronic_illness() if chronic_illness is _MISSING else chronic_illness
        self.medication_allergies = _make_medication_allergies() if medication_allergies is _MISSING else medication_allergies
        self.family_medical_history = _make_family_medical_history() if family_medical_history is _MISSING else family_medical_history
    def _values(self):
        return (self.had_surgery, self.chronic_illness, self.medication_allergies, self.family_medical_history, )
    return locals()


def _5():  # <SocialHistory class>
    def __init__(self, smoking_habit, drinking_habit, diet=_default_diet, exercise_routine=_default_exercise_routine, marital_status=_default_marital_status, occupation=_default_occupation, education_level=_default_education_level, annual_income=_default_annual_income):
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
    return locals()


def _6():  # <IntakeForm class>
    def __init__(self, intake_form_id, medical_history, social_history):
        self.intake_form_id = intake_form_id
        self.medical_history = medical_history
        self.social_history = social_history
    def _values(self):
        return (self.intake_form_id, self.medical_history, self.social_history, )
    return locals()


def _7():  # <Symptom class>
    def __init__(self, symptom_name, severity=_default_severity):
        self.symptom_name = symptom_name
        self.severity = severity
    def _values(self):
        return (self.symptom_name, self.severity, )
    return locals()


def _8():  # <VitalSign class>
    def __init__(self, body_temperature=_default_body_temperature, blood_pressure=_default_blood_pressure, weight=_default_weight, heart_rate=_default_heart_rate):
        self.body_temperature = body_temperature
        self.blood_pressure = blood_pressure
        self.weight = weight
        self.heart_rate = heart_rate
    def _values(self):
        return (self.body_temperature, self.blood_pressure, self.weight, self.heart_rate, )
    return locals()


def _9():  # <DiagTest class>
    def __init__(self, test_name, results=_default_results, normal_range=_default_normal_range):
        self.test_name = test_name
        self.results = results
        self.normal_range = normal_range
    def _values(self):
        return (self.test_name, self.results, self.normal_range, )
    return locals()


def _10():  # <Diagnosis class>
    def __init__(self, diagnosis_name, icd10=_default_icd10):
        self.diagnosis_name = diagnosis_name
        self.icd10 = icd10
    def _values(self):
        return (self.diagnosis_name, self.icd10, )
    return locals()


def _11():  # <Medication class>
    def __init__(self, medication_name, dosage=_default_dosage, frequency=_default_frequency):
        self.medication_name = medication_name
        self.dosage = dosage
        self.frequency = frequency
    def _values(self):
        return (self.medication_name, self.dosage, self.frequency, )
    return locals()


def _12():  # <CarePlan class>
    def __init__(self, plan_id, description=_default_description, referral_specialty=_default_referral_specialty):
        self.plan_id = plan_id
        self.description = description
        self.referral_specialty = referral_specialty
    def _values(self):
        return (self.plan_id, self.description, self.referral_specialty, )
    return locals()


def _13():  # <Encounter class>
    def __init__(self, encounter_id, date, specialty, provider_ref, symptoms=_MISSING, vitals=_MISSING, tests=_MISSING, diagnoses=_MISSING, medications=_MISSING, care_plans=_MISSING):
        self.encounter_id = encounter_id
        self.date = date
        self.specialty = specialty
        self.provider_ref = provider_ref
        self.symptoms = _make_symptoms() if symptoms is _MISSING else symptoms
        self.vitals = _make_vitals() if vitals is _MISSING else vitals
        self.tests = _make_tests() if tests is _MISSING else tests
        self.diagnoses = _make_diagnoses() if diagnoses is _MISSING else diagnoses
        self.medications = _make_medications() if medications is _MISSING else medications
        self.care_plans = _make_care_plans() if care_plans is _MISSING else care_plans
    def _values(self):
        return (self.encounter_id, self.date, self.specialty, self.provider_ref, self.symptoms, self.vitals, self.tests, self.diagnoses, self.medications, self.care_plans, )
    return locals()


def _14():  # <JourneyEdge class>
    def __init__(self, kind, from_encounter, to_encounter, via=_default_via):
        _set(self, 'kind', kind)
        _set(self, 'from_encounter', from_encounter)
        _set(self, 'to_encounter', to_encounter)
        _set(self, 'via', via)
    def _values(self):
        return (self.kind, self.from_encounter, self.to_encounter, self.via, )
    return locals()


def _15():  # <Bundle class>
    def __init__(self, format_version, patient, providers=_MISSING, intake_form=_default_intake_form, encounters=_MISSING, links=_MISSING):
        self.format_version = format_version
        self.patient = patient
        self.providers = _make_providers() if providers is _MISSING else providers
        self.intake_form = intake_form
        self.encounters = _make_encounters() if encounters is _MISSING else encounters
        self.links = _make_links() if links is _MISSING else links
    def _values(self):
        return (self.format_version, self.patient, self.providers, self.intake_form, self.encounters, self.links, )
    return locals()


def _16():  # <RatingMatrix class>
    def __init__(self, counts, raters_per_subject):
        _set(self, 'counts', counts)
        _set(self, 'raters_per_subject', raters_per_subject)
    def _values(self):
        return (self.counts, self.raters_per_subject, )
    return locals()


def _17():  # <KappaResult class>
    def __init__(self, kappa, standard_error, ci95, observed_agreement, expected_agreement):
        _set(self, 'kappa', kappa)
        _set(self, 'standard_error', standard_error)
        _set(self, 'ci95', ci95)
        _set(self, 'observed_agreement', observed_agreement)
        _set(self, 'expected_agreement', expected_agreement)
    def _values(self):
        return (self.kappa, self.standard_error, self.ci95, self.observed_agreement, self.expected_agreement, )
    return locals()


def _18():  # <DimensionSummary class>
    def __init__(self, dimension, n_responses, mean, sd, agree_fraction):
        _set(self, 'dimension', dimension)
        _set(self, 'n_responses', n_responses)
        _set(self, 'mean', mean)
        _set(self, 'sd', sd)
        _set(self, 'agree_fraction', agree_fraction)
    def _values(self):
        return (self.dimension, self.n_responses, self.mean, self.sd, self.agree_fraction, )
    return locals()


def _19():  # <LikertSummary class>
    def __init__(self, dimensions, overall_mean, overall_sd):
        _set(self, 'dimensions', dimensions)
        _set(self, 'overall_mean', overall_mean)
        _set(self, 'overall_sd', overall_sd)
    def _values(self):
        return (self.dimensions, self.overall_mean, self.overall_sd, )
    return locals()


def _20():  # <ConceptCode class>
    def __init__(self, system, code):
        _set(self, 'system', system)
        _set(self, 'code', code)
    def _values(self):
        return (self.system, self.code, )
    return locals()


def _21():  # <Diagnostic class>
    def __init__(self, severity, code, message, location):
        _set(self, 'severity', severity)
        _set(self, 'code', code)
        _set(self, 'message', message)
        _set(self, 'location', location)
    def _values(self):
        return (self.severity, self.code, self.message, self.location, )
    return locals()


def _22():  # <ValidationReport class>
    def __init__(self, diagnostics=_MISSING):
        self.diagnostics = _make_diagnostics() if diagnostics is _MISSING else diagnostics
    def _values(self):
        return (self.diagnostics, )
    return locals()


def _23():  # <JourneyGraph class>
    def __init__(self, patients=_MISSING, providers=_MISSING, intake_forms=_MISSING, encounters=_MISSING, encounter_owner=_MISSING, intake_form_owner=_MISSING, edges=_MISSING, annotations=_MISSING):
        self.patients = _make_patients() if patients is _MISSING else patients
        self.providers = _make_providers() if providers is _MISSING else providers
        self.intake_forms = _make_intake_forms() if intake_forms is _MISSING else intake_forms
        self.encounters = _make_encounters() if encounters is _MISSING else encounters
        self.encounter_owner = _make_encounter_owner() if encounter_owner is _MISSING else encounter_owner
        self.intake_form_owner = _make_intake_form_owner() if intake_form_owner is _MISSING else intake_form_owner
        self.edges = _make_edges() if edges is _MISSING else edges
        self.annotations = _make_annotations() if annotations is _MISSING else annotations
        self.__post_init__()
    def _values(self):
        return (self.patients, self.providers, self.intake_forms, self.encounters, self.encounter_owner, self.intake_form_owner, self.edges, self.annotations, )
    return locals()


def _24():  # <ParseResult class>
    def __init__(self, graph, problems=_MISSING, report=_default_report):
        self.graph = graph
        self.problems = _make_problems() if problems is _MISSING else problems
        self.report = report
    def _values(self):
        return (self.graph, self.problems, self.report, )
    return locals()


def _25():  # <LinkRef class>
    def __init__(self, kind, encounter_id):
        _set(self, 'kind', kind)
        _set(self, 'encounter_id', encounter_id)
    def _values(self):
        return (self.kind, self.encounter_id, )
    return locals()


def _26():  # <TimelineEntry class>
    def __init__(self, encounter_id, date, specialty, inbound_links, outbound_links, headline_diagnoses):
        _set(self, 'encounter_id', encounter_id)
        _set(self, 'date', date)
        _set(self, 'specialty', specialty)
        _set(self, 'inbound_links', inbound_links)
        _set(self, 'outbound_links', outbound_links)
        _set(self, 'headline_diagnoses', headline_diagnoses)
    def _values(self):
        return (self.encounter_id, self.date, self.specialty, self.inbound_links, self.outbound_links, self.headline_diagnoses, )
    return locals()


def _27():  # <SymptomOccurrence class>
    def __init__(self, encounter_id, date, symptom_name, severity):
        _set(self, 'encounter_id', encounter_id)
        _set(self, 'date', date)
        _set(self, 'symptom_name', symptom_name)
        _set(self, 'severity', severity)
    def _values(self):
        return (self.encounter_id, self.date, self.symptom_name, self.severity, )
    return locals()


def _28():  # <SymptomDiagnosisLink class>
    def __init__(self, symptom_name, diagnosis_name, encounter_id):
        _set(self, 'symptom_name', symptom_name)
        _set(self, 'diagnosis_name', diagnosis_name)
        _set(self, 'encounter_id', encounter_id)
    def _values(self):
        return (self.symptom_name, self.diagnosis_name, self.encounter_id, )
    return locals()


SOURCES = {
    "def __init__(self, key, attr, type=_default_type, required=_default_required, record=_default_record, check=_default_check, default=_default_default):\n    _set(self, 'key', key)\n    _set(self, 'attr', attr)\n    _set(self, 'type', type)\n    _set(self, 'required', required)\n    _set(self, 'record', record)\n    _set(self, 'check', check)\n    _set(self, 'default', default)\ndef _values(self):\n    return (self.key, self.attr, self.type, self.required, self.record, self.check, self.default, )": _0,
    'def __init__(self, address=_default_address, phone_number=_default_phone_number, email=_default_email, emergency_contact=_default_emergency_contact):\n    self.address = address\n    self.phone_number = phone_number\n    self.email = email\n    self.emergency_contact = emergency_contact\ndef _values(self):\n    return (self.address, self.phone_number, self.email, self.emergency_contact, )': _1,
    'def __init__(self, patient_id, patient_name, birth_date, race=_default_race, gender=_default_gender, contact=_MISSING, insurance_name=_default_insurance_name, insurance_id=_default_insurance_id):\n    self.patient_id = patient_id\n    self.patient_name = patient_name\n    self.birth_date = birth_date\n    self.race = race\n    self.gender = gender\n    self.contact = _make_contact() if contact is _MISSING else contact\n    self.insurance_name = insurance_name\n    self.insurance_id = insurance_id\ndef _values(self):\n    return (self.patient_id, self.patient_name, self.birth_date, self.race, self.gender, self.contact, self.insurance_name, self.insurance_id, )': _2,
    'def __init__(self, provider_id, provider_name, specialization=_default_specialization, affiliated_institution=_default_affiliated_institution, years_of_experience=_default_years_of_experience):\n    self.provider_id = provider_id\n    self.provider_name = provider_name\n    self.specialization = specialization\n    self.affiliated_institution = affiliated_institution\n    self.years_of_experience = years_of_experience\ndef _values(self):\n    return (self.provider_id, self.provider_name, self.specialization, self.affiliated_institution, self.years_of_experience, )': _3,
    'def __init__(self, had_surgery=_MISSING, chronic_illness=_MISSING, medication_allergies=_MISSING, family_medical_history=_MISSING):\n    self.had_surgery = _make_had_surgery() if had_surgery is _MISSING else had_surgery\n    self.chronic_illness = _make_chronic_illness() if chronic_illness is _MISSING else chronic_illness\n    self.medication_allergies = _make_medication_allergies() if medication_allergies is _MISSING else medication_allergies\n    self.family_medical_history = _make_family_medical_history() if family_medical_history is _MISSING else family_medical_history\ndef _values(self):\n    return (self.had_surgery, self.chronic_illness, self.medication_allergies, self.family_medical_history, )': _4,
    'def __init__(self, smoking_habit, drinking_habit, diet=_default_diet, exercise_routine=_default_exercise_routine, marital_status=_default_marital_status, occupation=_default_occupation, education_level=_default_education_level, annual_income=_default_annual_income):\n    self.smoking_habit = smoking_habit\n    self.drinking_habit = drinking_habit\n    self.diet = diet\n    self.exercise_routine = exercise_routine\n    self.marital_status = marital_status\n    self.occupation = occupation\n    self.education_level = education_level\n    self.annual_income = annual_income\ndef _values(self):\n    return (self.smoking_habit, self.drinking_habit, self.diet, self.exercise_routine, self.marital_status, self.occupation, self.education_level, self.annual_income, )': _5,
    'def __init__(self, intake_form_id, medical_history, social_history):\n    self.intake_form_id = intake_form_id\n    self.medical_history = medical_history\n    self.social_history = social_history\ndef _values(self):\n    return (self.intake_form_id, self.medical_history, self.social_history, )': _6,
    'def __init__(self, symptom_name, severity=_default_severity):\n    self.symptom_name = symptom_name\n    self.severity = severity\ndef _values(self):\n    return (self.symptom_name, self.severity, )': _7,
    'def __init__(self, body_temperature=_default_body_temperature, blood_pressure=_default_blood_pressure, weight=_default_weight, heart_rate=_default_heart_rate):\n    self.body_temperature = body_temperature\n    self.blood_pressure = blood_pressure\n    self.weight = weight\n    self.heart_rate = heart_rate\ndef _values(self):\n    return (self.body_temperature, self.blood_pressure, self.weight, self.heart_rate, )': _8,
    'def __init__(self, test_name, results=_default_results, normal_range=_default_normal_range):\n    self.test_name = test_name\n    self.results = results\n    self.normal_range = normal_range\ndef _values(self):\n    return (self.test_name, self.results, self.normal_range, )': _9,
    'def __init__(self, diagnosis_name, icd10=_default_icd10):\n    self.diagnosis_name = diagnosis_name\n    self.icd10 = icd10\ndef _values(self):\n    return (self.diagnosis_name, self.icd10, )': _10,
    'def __init__(self, medication_name, dosage=_default_dosage, frequency=_default_frequency):\n    self.medication_name = medication_name\n    self.dosage = dosage\n    self.frequency = frequency\ndef _values(self):\n    return (self.medication_name, self.dosage, self.frequency, )': _11,
    'def __init__(self, plan_id, description=_default_description, referral_specialty=_default_referral_specialty):\n    self.plan_id = plan_id\n    self.description = description\n    self.referral_specialty = referral_specialty\ndef _values(self):\n    return (self.plan_id, self.description, self.referral_specialty, )': _12,
    'def __init__(self, encounter_id, date, specialty, provider_ref, symptoms=_MISSING, vitals=_MISSING, tests=_MISSING, diagnoses=_MISSING, medications=_MISSING, care_plans=_MISSING):\n    self.encounter_id = encounter_id\n    self.date = date\n    self.specialty = specialty\n    self.provider_ref = provider_ref\n    self.symptoms = _make_symptoms() if symptoms is _MISSING else symptoms\n    self.vitals = _make_vitals() if vitals is _MISSING else vitals\n    self.tests = _make_tests() if tests is _MISSING else tests\n    self.diagnoses = _make_diagnoses() if diagnoses is _MISSING else diagnoses\n    self.medications = _make_medications() if medications is _MISSING else medications\n    self.care_plans = _make_care_plans() if care_plans is _MISSING else care_plans\ndef _values(self):\n    return (self.encounter_id, self.date, self.specialty, self.provider_ref, self.symptoms, self.vitals, self.tests, self.diagnoses, self.medications, self.care_plans, )': _13,
    "def __init__(self, kind, from_encounter, to_encounter, via=_default_via):\n    _set(self, 'kind', kind)\n    _set(self, 'from_encounter', from_encounter)\n    _set(self, 'to_encounter', to_encounter)\n    _set(self, 'via', via)\ndef _values(self):\n    return (self.kind, self.from_encounter, self.to_encounter, self.via, )": _14,
    'def __init__(self, format_version, patient, providers=_MISSING, intake_form=_default_intake_form, encounters=_MISSING, links=_MISSING):\n    self.format_version = format_version\n    self.patient = patient\n    self.providers = _make_providers() if providers is _MISSING else providers\n    self.intake_form = intake_form\n    self.encounters = _make_encounters() if encounters is _MISSING else encounters\n    self.links = _make_links() if links is _MISSING else links\ndef _values(self):\n    return (self.format_version, self.patient, self.providers, self.intake_form, self.encounters, self.links, )': _15,
    "def __init__(self, counts, raters_per_subject):\n    _set(self, 'counts', counts)\n    _set(self, 'raters_per_subject', raters_per_subject)\ndef _values(self):\n    return (self.counts, self.raters_per_subject, )": _16,
    "def __init__(self, kappa, standard_error, ci95, observed_agreement, expected_agreement):\n    _set(self, 'kappa', kappa)\n    _set(self, 'standard_error', standard_error)\n    _set(self, 'ci95', ci95)\n    _set(self, 'observed_agreement', observed_agreement)\n    _set(self, 'expected_agreement', expected_agreement)\ndef _values(self):\n    return (self.kappa, self.standard_error, self.ci95, self.observed_agreement, self.expected_agreement, )": _17,
    "def __init__(self, dimension, n_responses, mean, sd, agree_fraction):\n    _set(self, 'dimension', dimension)\n    _set(self, 'n_responses', n_responses)\n    _set(self, 'mean', mean)\n    _set(self, 'sd', sd)\n    _set(self, 'agree_fraction', agree_fraction)\ndef _values(self):\n    return (self.dimension, self.n_responses, self.mean, self.sd, self.agree_fraction, )": _18,
    "def __init__(self, dimensions, overall_mean, overall_sd):\n    _set(self, 'dimensions', dimensions)\n    _set(self, 'overall_mean', overall_mean)\n    _set(self, 'overall_sd', overall_sd)\ndef _values(self):\n    return (self.dimensions, self.overall_mean, self.overall_sd, )": _19,
    "def __init__(self, system, code):\n    _set(self, 'system', system)\n    _set(self, 'code', code)\ndef _values(self):\n    return (self.system, self.code, )": _20,
    "def __init__(self, severity, code, message, location):\n    _set(self, 'severity', severity)\n    _set(self, 'code', code)\n    _set(self, 'message', message)\n    _set(self, 'location', location)\ndef _values(self):\n    return (self.severity, self.code, self.message, self.location, )": _21,
    'def __init__(self, diagnostics=_MISSING):\n    self.diagnostics = _make_diagnostics() if diagnostics is _MISSING else diagnostics\ndef _values(self):\n    return (self.diagnostics, )': _22,
    'def __init__(self, patients=_MISSING, providers=_MISSING, intake_forms=_MISSING, encounters=_MISSING, encounter_owner=_MISSING, intake_form_owner=_MISSING, edges=_MISSING, annotations=_MISSING):\n    self.patients = _make_patients() if patients is _MISSING else patients\n    self.providers = _make_providers() if providers is _MISSING else providers\n    self.intake_forms = _make_intake_forms() if intake_forms is _MISSING else intake_forms\n    self.encounters = _make_encounters() if encounters is _MISSING else encounters\n    self.encounter_owner = _make_encounter_owner() if encounter_owner is _MISSING else encounter_owner\n    self.intake_form_owner = _make_intake_form_owner() if intake_form_owner is _MISSING else intake_form_owner\n    self.edges = _make_edges() if edges is _MISSING else edges\n    self.annotations = _make_annotations() if annotations is _MISSING else annotations\n    self.__post_init__()\ndef _values(self):\n    return (self.patients, self.providers, self.intake_forms, self.encounters, self.encounter_owner, self.intake_form_owner, self.edges, self.annotations, )': _23,
    'def __init__(self, graph, problems=_MISSING, report=_default_report):\n    self.graph = graph\n    self.problems = _make_problems() if problems is _MISSING else problems\n    self.report = report\ndef _values(self):\n    return (self.graph, self.problems, self.report, )': _24,
    "def __init__(self, kind, encounter_id):\n    _set(self, 'kind', kind)\n    _set(self, 'encounter_id', encounter_id)\ndef _values(self):\n    return (self.kind, self.encounter_id, )": _25,
    "def __init__(self, encounter_id, date, specialty, inbound_links, outbound_links, headline_diagnoses):\n    _set(self, 'encounter_id', encounter_id)\n    _set(self, 'date', date)\n    _set(self, 'specialty', specialty)\n    _set(self, 'inbound_links', inbound_links)\n    _set(self, 'outbound_links', outbound_links)\n    _set(self, 'headline_diagnoses', headline_diagnoses)\ndef _values(self):\n    return (self.encounter_id, self.date, self.specialty, self.inbound_links, self.outbound_links, self.headline_diagnoses, )": _26,
    "def __init__(self, encounter_id, date, symptom_name, severity):\n    _set(self, 'encounter_id', encounter_id)\n    _set(self, 'date', date)\n    _set(self, 'symptom_name', symptom_name)\n    _set(self, 'severity', severity)\ndef _values(self):\n    return (self.encounter_id, self.date, self.symptom_name, self.severity, )": _27,
    "def __init__(self, symptom_name, diagnosis_name, encounter_id):\n    _set(self, 'symptom_name', symptom_name)\n    _set(self, 'diagnosis_name', diagnosis_name)\n    _set(self, 'encounter_id', encounter_id)\ndef _values(self):\n    return (self.symptom_name, self.diagnosis_name, self.encounter_id, )": _28,
}
