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
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.key, self.attr, self.type, self.required, self.record, self.check, self.default, ) == (other.key, other.attr, other.type, other.required, other.record, other.check, other.default, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(key={self.key!r}, attr={self.attr!r}, type={self.type!r}, required={self.required!r}, record={self.record!r}, check={self.check!r}, default={self.default!r})"
    def __reduce__(self):
        return self.__class__, (self.key, self.attr, self.type, self.required, self.record, self.check, self.default, )
    def __hash__(self):
        return hash((self.key, self.attr, self.type, self.required, self.record, self.check, self.default, ))
    return locals()


def _1():  # <ContactInformation class>
    def __init__(self, address=_default_address, phone_number=_default_phone_number, email=_default_email, emergency_contact=_default_emergency_contact):
        self.address = address
        self.phone_number = phone_number
        self.email = email
        self.emergency_contact = emergency_contact
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.address, self.phone_number, self.email, self.emergency_contact, ) == (other.address, other.phone_number, other.email, other.emergency_contact, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(address={self.address!r}, phone_number={self.phone_number!r}, email={self.email!r}, emergency_contact={self.emergency_contact!r})"
    def __reduce__(self):
        return self.__class__, (self.address, self.phone_number, self.email, self.emergency_contact, )
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
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.patient_id, self.patient_name, self.birth_date, self.race, self.gender, self.contact, self.insurance_name, self.insurance_id, ) == (other.patient_id, other.patient_name, other.birth_date, other.race, other.gender, other.contact, other.insurance_name, other.insurance_id, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(patient_id={self.patient_id!r}, patient_name={self.patient_name!r}, birth_date={self.birth_date!r}, race={self.race!r}, gender={self.gender!r}, contact={self.contact!r}, insurance_name={self.insurance_name!r}, insurance_id={self.insurance_id!r})"
    def __reduce__(self):
        return self.__class__, (self.patient_id, self.patient_name, self.birth_date, self.race, self.gender, self.contact, self.insurance_name, self.insurance_id, )
    return locals()


def _3():  # <Provider class>
    def __init__(self, provider_id, provider_name, specialization=_default_specialization, affiliated_institution=_default_affiliated_institution, years_of_experience=_default_years_of_experience):
        self.provider_id = provider_id
        self.provider_name = provider_name
        self.specialization = specialization
        self.affiliated_institution = affiliated_institution
        self.years_of_experience = years_of_experience
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.provider_id, self.provider_name, self.specialization, self.affiliated_institution, self.years_of_experience, ) == (other.provider_id, other.provider_name, other.specialization, other.affiliated_institution, other.years_of_experience, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(provider_id={self.provider_id!r}, provider_name={self.provider_name!r}, specialization={self.specialization!r}, affiliated_institution={self.affiliated_institution!r}, years_of_experience={self.years_of_experience!r})"
    def __reduce__(self):
        return self.__class__, (self.provider_id, self.provider_name, self.specialization, self.affiliated_institution, self.years_of_experience, )
    return locals()


def _4():  # <MedicalHistory class>
    def __init__(self, had_surgery=_MISSING, chronic_illness=_MISSING, medication_allergies=_MISSING, family_medical_history=_MISSING):
        self.had_surgery = _make_had_surgery() if had_surgery is _MISSING else had_surgery
        self.chronic_illness = _make_chronic_illness() if chronic_illness is _MISSING else chronic_illness
        self.medication_allergies = _make_medication_allergies() if medication_allergies is _MISSING else medication_allergies
        self.family_medical_history = _make_family_medical_history() if family_medical_history is _MISSING else family_medical_history
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.had_surgery, self.chronic_illness, self.medication_allergies, self.family_medical_history, ) == (other.had_surgery, other.chronic_illness, other.medication_allergies, other.family_medical_history, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(had_surgery={self.had_surgery!r}, chronic_illness={self.chronic_illness!r}, medication_allergies={self.medication_allergies!r}, family_medical_history={self.family_medical_history!r})"
    def __reduce__(self):
        return self.__class__, (self.had_surgery, self.chronic_illness, self.medication_allergies, self.family_medical_history, )
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
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.smoking_habit, self.drinking_habit, self.diet, self.exercise_routine, self.marital_status, self.occupation, self.education_level, self.annual_income, ) == (other.smoking_habit, other.drinking_habit, other.diet, other.exercise_routine, other.marital_status, other.occupation, other.education_level, other.annual_income, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(smoking_habit={self.smoking_habit!r}, drinking_habit={self.drinking_habit!r}, diet={self.diet!r}, exercise_routine={self.exercise_routine!r}, marital_status={self.marital_status!r}, occupation={self.occupation!r}, education_level={self.education_level!r}, annual_income={self.annual_income!r})"
    def __reduce__(self):
        return self.__class__, (self.smoking_habit, self.drinking_habit, self.diet, self.exercise_routine, self.marital_status, self.occupation, self.education_level, self.annual_income, )
    return locals()


def _6():  # <IntakeForm class>
    def __init__(self, intake_form_id, medical_history, social_history):
        self.intake_form_id = intake_form_id
        self.medical_history = medical_history
        self.social_history = social_history
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.intake_form_id, self.medical_history, self.social_history, ) == (other.intake_form_id, other.medical_history, other.social_history, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(intake_form_id={self.intake_form_id!r}, medical_history={self.medical_history!r}, social_history={self.social_history!r})"
    def __reduce__(self):
        return self.__class__, (self.intake_form_id, self.medical_history, self.social_history, )
    return locals()


def _7():  # <Symptom class>
    def __init__(self, symptom_name, severity=_default_severity):
        self.symptom_name = symptom_name
        self.severity = severity
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.symptom_name, self.severity, ) == (other.symptom_name, other.severity, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(symptom_name={self.symptom_name!r}, severity={self.severity!r})"
    def __reduce__(self):
        return self.__class__, (self.symptom_name, self.severity, )
    return locals()


def _8():  # <VitalSign class>
    def __init__(self, body_temperature=_default_body_temperature, blood_pressure=_default_blood_pressure, weight=_default_weight, heart_rate=_default_heart_rate):
        self.body_temperature = body_temperature
        self.blood_pressure = blood_pressure
        self.weight = weight
        self.heart_rate = heart_rate
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.body_temperature, self.blood_pressure, self.weight, self.heart_rate, ) == (other.body_temperature, other.blood_pressure, other.weight, other.heart_rate, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(body_temperature={self.body_temperature!r}, blood_pressure={self.blood_pressure!r}, weight={self.weight!r}, heart_rate={self.heart_rate!r})"
    def __reduce__(self):
        return self.__class__, (self.body_temperature, self.blood_pressure, self.weight, self.heart_rate, )
    return locals()


def _9():  # <DiagTest class>
    def __init__(self, test_name, results=_default_results, normal_range=_default_normal_range):
        self.test_name = test_name
        self.results = results
        self.normal_range = normal_range
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.test_name, self.results, self.normal_range, ) == (other.test_name, other.results, other.normal_range, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(test_name={self.test_name!r}, results={self.results!r}, normal_range={self.normal_range!r})"
    def __reduce__(self):
        return self.__class__, (self.test_name, self.results, self.normal_range, )
    return locals()


def _10():  # <Diagnosis class>
    def __init__(self, diagnosis_name, icd10=_default_icd10):
        self.diagnosis_name = diagnosis_name
        self.icd10 = icd10
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.diagnosis_name, self.icd10, ) == (other.diagnosis_name, other.icd10, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(diagnosis_name={self.diagnosis_name!r}, icd10={self.icd10!r})"
    def __reduce__(self):
        return self.__class__, (self.diagnosis_name, self.icd10, )
    return locals()


def _11():  # <Medication class>
    def __init__(self, medication_name, dosage=_default_dosage, frequency=_default_frequency):
        self.medication_name = medication_name
        self.dosage = dosage
        self.frequency = frequency
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.medication_name, self.dosage, self.frequency, ) == (other.medication_name, other.dosage, other.frequency, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(medication_name={self.medication_name!r}, dosage={self.dosage!r}, frequency={self.frequency!r})"
    def __reduce__(self):
        return self.__class__, (self.medication_name, self.dosage, self.frequency, )
    return locals()


def _12():  # <CarePlan class>
    def __init__(self, plan_id, description=_default_description, referral_specialty=_default_referral_specialty):
        self.plan_id = plan_id
        self.description = description
        self.referral_specialty = referral_specialty
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.plan_id, self.description, self.referral_specialty, ) == (other.plan_id, other.description, other.referral_specialty, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(plan_id={self.plan_id!r}, description={self.description!r}, referral_specialty={self.referral_specialty!r})"
    def __reduce__(self):
        return self.__class__, (self.plan_id, self.description, self.referral_specialty, )
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
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.encounter_id, self.date, self.specialty, self.provider_ref, self.symptoms, self.vitals, self.tests, self.diagnoses, self.medications, self.care_plans, ) == (other.encounter_id, other.date, other.specialty, other.provider_ref, other.symptoms, other.vitals, other.tests, other.diagnoses, other.medications, other.care_plans, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(encounter_id={self.encounter_id!r}, date={self.date!r}, specialty={self.specialty!r}, provider_ref={self.provider_ref!r}, symptoms={self.symptoms!r}, vitals={self.vitals!r}, tests={self.tests!r}, diagnoses={self.diagnoses!r}, medications={self.medications!r}, care_plans={self.care_plans!r})"
    def __reduce__(self):
        return self.__class__, (self.encounter_id, self.date, self.specialty, self.provider_ref, self.symptoms, self.vitals, self.tests, self.diagnoses, self.medications, self.care_plans, )
    return locals()


def _14():  # <JourneyEdge class>
    def __init__(self, kind, from_encounter, to_encounter, via=_default_via):
        _set(self, 'kind', kind)
        _set(self, 'from_encounter', from_encounter)
        _set(self, 'to_encounter', to_encounter)
        _set(self, 'via', via)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.from_encounter, self.to_encounter, self.via, ) == (other.kind, other.from_encounter, other.to_encounter, other.via, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(kind={self.kind!r}, from_encounter={self.from_encounter!r}, to_encounter={self.to_encounter!r}, via={self.via!r})"
    def __reduce__(self):
        return self.__class__, (self.kind, self.from_encounter, self.to_encounter, self.via, )
    def __hash__(self):
        return hash((self.kind, self.from_encounter, self.to_encounter, self.via, ))
    return locals()


def _15():  # <Bundle class>
    def __init__(self, format_version, patient, providers=_MISSING, intake_form=_default_intake_form, encounters=_MISSING, links=_MISSING):
        self.format_version = format_version
        self.patient = patient
        self.providers = _make_providers() if providers is _MISSING else providers
        self.intake_form = intake_form
        self.encounters = _make_encounters() if encounters is _MISSING else encounters
        self.links = _make_links() if links is _MISSING else links
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.format_version, self.patient, self.providers, self.intake_form, self.encounters, self.links, ) == (other.format_version, other.patient, other.providers, other.intake_form, other.encounters, other.links, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(format_version={self.format_version!r}, patient={self.patient!r}, providers={self.providers!r}, intake_form={self.intake_form!r}, encounters={self.encounters!r}, links={self.links!r})"
    def __reduce__(self):
        return self.__class__, (self.format_version, self.patient, self.providers, self.intake_form, self.encounters, self.links, )
    return locals()


def _16():  # <RatingMatrix class>
    def __init__(self, counts, raters_per_subject):
        _set(self, 'counts', counts)
        _set(self, 'raters_per_subject', raters_per_subject)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.counts, self.raters_per_subject, ) == (other.counts, other.raters_per_subject, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(counts={self.counts!r}, raters_per_subject={self.raters_per_subject!r})"
    def __reduce__(self):
        return self.__class__, (self.counts, self.raters_per_subject, )
    def __hash__(self):
        return hash((self.counts, self.raters_per_subject, ))
    return locals()


def _17():  # <KappaResult class>
    def __init__(self, kappa, standard_error, ci95, observed_agreement, expected_agreement):
        _set(self, 'kappa', kappa)
        _set(self, 'standard_error', standard_error)
        _set(self, 'ci95', ci95)
        _set(self, 'observed_agreement', observed_agreement)
        _set(self, 'expected_agreement', expected_agreement)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kappa, self.standard_error, self.ci95, self.observed_agreement, self.expected_agreement, ) == (other.kappa, other.standard_error, other.ci95, other.observed_agreement, other.expected_agreement, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(kappa={self.kappa!r}, standard_error={self.standard_error!r}, ci95={self.ci95!r}, observed_agreement={self.observed_agreement!r}, expected_agreement={self.expected_agreement!r})"
    def __reduce__(self):
        return self.__class__, (self.kappa, self.standard_error, self.ci95, self.observed_agreement, self.expected_agreement, )
    def __hash__(self):
        return hash((self.kappa, self.standard_error, self.ci95, self.observed_agreement, self.expected_agreement, ))
    return locals()


def _18():  # <DimensionSummary class>
    def __init__(self, dimension, n_responses, mean, sd, agree_fraction):
        _set(self, 'dimension', dimension)
        _set(self, 'n_responses', n_responses)
        _set(self, 'mean', mean)
        _set(self, 'sd', sd)
        _set(self, 'agree_fraction', agree_fraction)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dimension, self.n_responses, self.mean, self.sd, self.agree_fraction, ) == (other.dimension, other.n_responses, other.mean, other.sd, other.agree_fraction, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(dimension={self.dimension!r}, n_responses={self.n_responses!r}, mean={self.mean!r}, sd={self.sd!r}, agree_fraction={self.agree_fraction!r})"
    def __reduce__(self):
        return self.__class__, (self.dimension, self.n_responses, self.mean, self.sd, self.agree_fraction, )
    def __hash__(self):
        return hash((self.dimension, self.n_responses, self.mean, self.sd, self.agree_fraction, ))
    return locals()


def _19():  # <LikertSummary class>
    def __init__(self, dimensions, overall_mean, overall_sd):
        _set(self, 'dimensions', dimensions)
        _set(self, 'overall_mean', overall_mean)
        _set(self, 'overall_sd', overall_sd)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.dimensions, self.overall_mean, self.overall_sd, ) == (other.dimensions, other.overall_mean, other.overall_sd, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(dimensions={self.dimensions!r}, overall_mean={self.overall_mean!r}, overall_sd={self.overall_sd!r})"
    def __reduce__(self):
        return self.__class__, (self.dimensions, self.overall_mean, self.overall_sd, )
    def __hash__(self):
        return hash((self.dimensions, self.overall_mean, self.overall_sd, ))
    return locals()


def _20():  # <ConceptCode class>
    def __init__(self, system, code):
        _set(self, 'system', system)
        _set(self, 'code', code)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.system, self.code, ) == (other.system, other.code, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(system={self.system!r}, code={self.code!r})"
    def __reduce__(self):
        return self.__class__, (self.system, self.code, )
    def __hash__(self):
        return hash((self.system, self.code, ))
    return locals()


def _21():  # <Diagnostic class>
    def __init__(self, severity, code, message, location):
        _set(self, 'severity', severity)
        _set(self, 'code', code)
        _set(self, 'message', message)
        _set(self, 'location', location)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.severity, self.code, self.message, self.location, ) == (other.severity, other.code, other.message, other.location, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(severity={self.severity!r}, code={self.code!r}, message={self.message!r}, location={self.location!r})"
    def __reduce__(self):
        return self.__class__, (self.severity, self.code, self.message, self.location, )
    def __hash__(self):
        return hash((self.severity, self.code, self.message, self.location, ))
    return locals()


def _22():  # <ValidationReport class>
    def __init__(self, diagnostics=_MISSING):
        self.diagnostics = _make_diagnostics() if diagnostics is _MISSING else diagnostics
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.diagnostics, ) == (other.diagnostics, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(diagnostics={self.diagnostics!r})"
    def __reduce__(self):
        return self.__class__, (self.diagnostics, )
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
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.patients, self.providers, self.intake_forms, self.encounters, self.encounter_owner, self.intake_form_owner, self.edges, self.annotations, ) == (other.patients, other.providers, other.intake_forms, other.encounters, other.encounter_owner, other.intake_form_owner, other.edges, other.annotations, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(patients={self.patients!r}, providers={self.providers!r}, intake_forms={self.intake_forms!r}, encounters={self.encounters!r}, encounter_owner={self.encounter_owner!r}, intake_form_owner={self.intake_form_owner!r}, edges={self.edges!r}, annotations={self.annotations!r})"
    def __reduce__(self):
        return self.__class__, (self.patients, self.providers, self.intake_forms, self.encounters, self.encounter_owner, self.intake_form_owner, self.edges, self.annotations, )
    return locals()


def _24():  # <ParseResult class>
    def __init__(self, graph, problems=_MISSING, report=_default_report):
        self.graph = graph
        self.problems = _make_problems() if problems is _MISSING else problems
        self.report = report
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.graph, self.problems, self.report, ) == (other.graph, other.problems, other.report, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(graph={self.graph!r}, problems={self.problems!r}, report={self.report!r})"
    def __reduce__(self):
        return self.__class__, (self.graph, self.problems, self.report, )
    return locals()


def _25():  # <LinkRef class>
    def __init__(self, kind, encounter_id):
        _set(self, 'kind', kind)
        _set(self, 'encounter_id', encounter_id)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.encounter_id, ) == (other.kind, other.encounter_id, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(kind={self.kind!r}, encounter_id={self.encounter_id!r})"
    def __reduce__(self):
        return self.__class__, (self.kind, self.encounter_id, )
    def __hash__(self):
        return hash((self.kind, self.encounter_id, ))
    return locals()


def _26():  # <TimelineEntry class>
    def __init__(self, encounter_id, date, specialty, inbound_links, outbound_links, headline_diagnoses):
        _set(self, 'encounter_id', encounter_id)
        _set(self, 'date', date)
        _set(self, 'specialty', specialty)
        _set(self, 'inbound_links', inbound_links)
        _set(self, 'outbound_links', outbound_links)
        _set(self, 'headline_diagnoses', headline_diagnoses)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.encounter_id, self.date, self.specialty, self.inbound_links, self.outbound_links, self.headline_diagnoses, ) == (other.encounter_id, other.date, other.specialty, other.inbound_links, other.outbound_links, other.headline_diagnoses, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(encounter_id={self.encounter_id!r}, date={self.date!r}, specialty={self.specialty!r}, inbound_links={self.inbound_links!r}, outbound_links={self.outbound_links!r}, headline_diagnoses={self.headline_diagnoses!r})"
    def __reduce__(self):
        return self.__class__, (self.encounter_id, self.date, self.specialty, self.inbound_links, self.outbound_links, self.headline_diagnoses, )
    def __hash__(self):
        return hash((self.encounter_id, self.date, self.specialty, self.inbound_links, self.outbound_links, self.headline_diagnoses, ))
    return locals()


def _27():  # <SymptomOccurrence class>
    def __init__(self, encounter_id, date, symptom_name, severity):
        _set(self, 'encounter_id', encounter_id)
        _set(self, 'date', date)
        _set(self, 'symptom_name', symptom_name)
        _set(self, 'severity', severity)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.encounter_id, self.date, self.symptom_name, self.severity, ) == (other.encounter_id, other.date, other.symptom_name, other.severity, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(encounter_id={self.encounter_id!r}, date={self.date!r}, symptom_name={self.symptom_name!r}, severity={self.severity!r})"
    def __reduce__(self):
        return self.__class__, (self.encounter_id, self.date, self.symptom_name, self.severity, )
    def __hash__(self):
        return hash((self.encounter_id, self.date, self.symptom_name, self.severity, ))
    return locals()


def _28():  # <SymptomDiagnosisLink class>
    def __init__(self, symptom_name, diagnosis_name, encounter_id):
        _set(self, 'symptom_name', symptom_name)
        _set(self, 'diagnosis_name', diagnosis_name)
        _set(self, 'encounter_id', encounter_id)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.symptom_name, self.diagnosis_name, self.encounter_id, ) == (other.symptom_name, other.diagnosis_name, other.encounter_id, )
        return NotImplemented
    def __repr__(self):
        return f"{self.__class__.__qualname__}(symptom_name={self.symptom_name!r}, diagnosis_name={self.diagnosis_name!r}, encounter_id={self.encounter_id!r})"
    def __reduce__(self):
        return self.__class__, (self.symptom_name, self.diagnosis_name, self.encounter_id, )
    def __hash__(self):
        return hash((self.symptom_name, self.diagnosis_name, self.encounter_id, ))
    return locals()


SOURCES = {
    'def __init__(self, key, attr, type=_default_type, required=_default_required, record=_default_record, check=_default_check, default=_default_default):\n    _set(self, \'key\', key)\n    _set(self, \'attr\', attr)\n    _set(self, \'type\', type)\n    _set(self, \'required\', required)\n    _set(self, \'record\', record)\n    _set(self, \'check\', check)\n    _set(self, \'default\', default)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.key, self.attr, self.type, self.required, self.record, self.check, self.default, ) == (other.key, other.attr, other.type, other.required, other.record, other.check, other.default, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(key={self.key!r}, attr={self.attr!r}, type={self.type!r}, required={self.required!r}, record={self.record!r}, check={self.check!r}, default={self.default!r})"\ndef __reduce__(self):\n    return self.__class__, (self.key, self.attr, self.type, self.required, self.record, self.check, self.default, )\ndef __hash__(self):\n    return hash((self.key, self.attr, self.type, self.required, self.record, self.check, self.default, ))': _0,
    'def __init__(self, address=_default_address, phone_number=_default_phone_number, email=_default_email, emergency_contact=_default_emergency_contact):\n    self.address = address\n    self.phone_number = phone_number\n    self.email = email\n    self.emergency_contact = emergency_contact\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.address, self.phone_number, self.email, self.emergency_contact, ) == (other.address, other.phone_number, other.email, other.emergency_contact, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(address={self.address!r}, phone_number={self.phone_number!r}, email={self.email!r}, emergency_contact={self.emergency_contact!r})"\ndef __reduce__(self):\n    return self.__class__, (self.address, self.phone_number, self.email, self.emergency_contact, )': _1,
    'def __init__(self, patient_id, patient_name, birth_date, race=_default_race, gender=_default_gender, contact=_MISSING, insurance_name=_default_insurance_name, insurance_id=_default_insurance_id):\n    self.patient_id = patient_id\n    self.patient_name = patient_name\n    self.birth_date = birth_date\n    self.race = race\n    self.gender = gender\n    self.contact = _make_contact() if contact is _MISSING else contact\n    self.insurance_name = insurance_name\n    self.insurance_id = insurance_id\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.patient_id, self.patient_name, self.birth_date, self.race, self.gender, self.contact, self.insurance_name, self.insurance_id, ) == (other.patient_id, other.patient_name, other.birth_date, other.race, other.gender, other.contact, other.insurance_name, other.insurance_id, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(patient_id={self.patient_id!r}, patient_name={self.patient_name!r}, birth_date={self.birth_date!r}, race={self.race!r}, gender={self.gender!r}, contact={self.contact!r}, insurance_name={self.insurance_name!r}, insurance_id={self.insurance_id!r})"\ndef __reduce__(self):\n    return self.__class__, (self.patient_id, self.patient_name, self.birth_date, self.race, self.gender, self.contact, self.insurance_name, self.insurance_id, )': _2,
    'def __init__(self, provider_id, provider_name, specialization=_default_specialization, affiliated_institution=_default_affiliated_institution, years_of_experience=_default_years_of_experience):\n    self.provider_id = provider_id\n    self.provider_name = provider_name\n    self.specialization = specialization\n    self.affiliated_institution = affiliated_institution\n    self.years_of_experience = years_of_experience\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.provider_id, self.provider_name, self.specialization, self.affiliated_institution, self.years_of_experience, ) == (other.provider_id, other.provider_name, other.specialization, other.affiliated_institution, other.years_of_experience, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(provider_id={self.provider_id!r}, provider_name={self.provider_name!r}, specialization={self.specialization!r}, affiliated_institution={self.affiliated_institution!r}, years_of_experience={self.years_of_experience!r})"\ndef __reduce__(self):\n    return self.__class__, (self.provider_id, self.provider_name, self.specialization, self.affiliated_institution, self.years_of_experience, )': _3,
    'def __init__(self, had_surgery=_MISSING, chronic_illness=_MISSING, medication_allergies=_MISSING, family_medical_history=_MISSING):\n    self.had_surgery = _make_had_surgery() if had_surgery is _MISSING else had_surgery\n    self.chronic_illness = _make_chronic_illness() if chronic_illness is _MISSING else chronic_illness\n    self.medication_allergies = _make_medication_allergies() if medication_allergies is _MISSING else medication_allergies\n    self.family_medical_history = _make_family_medical_history() if family_medical_history is _MISSING else family_medical_history\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.had_surgery, self.chronic_illness, self.medication_allergies, self.family_medical_history, ) == (other.had_surgery, other.chronic_illness, other.medication_allergies, other.family_medical_history, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(had_surgery={self.had_surgery!r}, chronic_illness={self.chronic_illness!r}, medication_allergies={self.medication_allergies!r}, family_medical_history={self.family_medical_history!r})"\ndef __reduce__(self):\n    return self.__class__, (self.had_surgery, self.chronic_illness, self.medication_allergies, self.family_medical_history, )': _4,
    'def __init__(self, smoking_habit, drinking_habit, diet=_default_diet, exercise_routine=_default_exercise_routine, marital_status=_default_marital_status, occupation=_default_occupation, education_level=_default_education_level, annual_income=_default_annual_income):\n    self.smoking_habit = smoking_habit\n    self.drinking_habit = drinking_habit\n    self.diet = diet\n    self.exercise_routine = exercise_routine\n    self.marital_status = marital_status\n    self.occupation = occupation\n    self.education_level = education_level\n    self.annual_income = annual_income\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.smoking_habit, self.drinking_habit, self.diet, self.exercise_routine, self.marital_status, self.occupation, self.education_level, self.annual_income, ) == (other.smoking_habit, other.drinking_habit, other.diet, other.exercise_routine, other.marital_status, other.occupation, other.education_level, other.annual_income, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(smoking_habit={self.smoking_habit!r}, drinking_habit={self.drinking_habit!r}, diet={self.diet!r}, exercise_routine={self.exercise_routine!r}, marital_status={self.marital_status!r}, occupation={self.occupation!r}, education_level={self.education_level!r}, annual_income={self.annual_income!r})"\ndef __reduce__(self):\n    return self.__class__, (self.smoking_habit, self.drinking_habit, self.diet, self.exercise_routine, self.marital_status, self.occupation, self.education_level, self.annual_income, )': _5,
    'def __init__(self, intake_form_id, medical_history, social_history):\n    self.intake_form_id = intake_form_id\n    self.medical_history = medical_history\n    self.social_history = social_history\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.intake_form_id, self.medical_history, self.social_history, ) == (other.intake_form_id, other.medical_history, other.social_history, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(intake_form_id={self.intake_form_id!r}, medical_history={self.medical_history!r}, social_history={self.social_history!r})"\ndef __reduce__(self):\n    return self.__class__, (self.intake_form_id, self.medical_history, self.social_history, )': _6,
    'def __init__(self, symptom_name, severity=_default_severity):\n    self.symptom_name = symptom_name\n    self.severity = severity\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.symptom_name, self.severity, ) == (other.symptom_name, other.severity, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(symptom_name={self.symptom_name!r}, severity={self.severity!r})"\ndef __reduce__(self):\n    return self.__class__, (self.symptom_name, self.severity, )': _7,
    'def __init__(self, body_temperature=_default_body_temperature, blood_pressure=_default_blood_pressure, weight=_default_weight, heart_rate=_default_heart_rate):\n    self.body_temperature = body_temperature\n    self.blood_pressure = blood_pressure\n    self.weight = weight\n    self.heart_rate = heart_rate\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.body_temperature, self.blood_pressure, self.weight, self.heart_rate, ) == (other.body_temperature, other.blood_pressure, other.weight, other.heart_rate, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(body_temperature={self.body_temperature!r}, blood_pressure={self.blood_pressure!r}, weight={self.weight!r}, heart_rate={self.heart_rate!r})"\ndef __reduce__(self):\n    return self.__class__, (self.body_temperature, self.blood_pressure, self.weight, self.heart_rate, )': _8,
    'def __init__(self, test_name, results=_default_results, normal_range=_default_normal_range):\n    self.test_name = test_name\n    self.results = results\n    self.normal_range = normal_range\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.test_name, self.results, self.normal_range, ) == (other.test_name, other.results, other.normal_range, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(test_name={self.test_name!r}, results={self.results!r}, normal_range={self.normal_range!r})"\ndef __reduce__(self):\n    return self.__class__, (self.test_name, self.results, self.normal_range, )': _9,
    'def __init__(self, diagnosis_name, icd10=_default_icd10):\n    self.diagnosis_name = diagnosis_name\n    self.icd10 = icd10\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.diagnosis_name, self.icd10, ) == (other.diagnosis_name, other.icd10, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(diagnosis_name={self.diagnosis_name!r}, icd10={self.icd10!r})"\ndef __reduce__(self):\n    return self.__class__, (self.diagnosis_name, self.icd10, )': _10,
    'def __init__(self, medication_name, dosage=_default_dosage, frequency=_default_frequency):\n    self.medication_name = medication_name\n    self.dosage = dosage\n    self.frequency = frequency\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.medication_name, self.dosage, self.frequency, ) == (other.medication_name, other.dosage, other.frequency, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(medication_name={self.medication_name!r}, dosage={self.dosage!r}, frequency={self.frequency!r})"\ndef __reduce__(self):\n    return self.__class__, (self.medication_name, self.dosage, self.frequency, )': _11,
    'def __init__(self, plan_id, description=_default_description, referral_specialty=_default_referral_specialty):\n    self.plan_id = plan_id\n    self.description = description\n    self.referral_specialty = referral_specialty\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.plan_id, self.description, self.referral_specialty, ) == (other.plan_id, other.description, other.referral_specialty, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(plan_id={self.plan_id!r}, description={self.description!r}, referral_specialty={self.referral_specialty!r})"\ndef __reduce__(self):\n    return self.__class__, (self.plan_id, self.description, self.referral_specialty, )': _12,
    'def __init__(self, encounter_id, date, specialty, provider_ref, symptoms=_MISSING, vitals=_MISSING, tests=_MISSING, diagnoses=_MISSING, medications=_MISSING, care_plans=_MISSING):\n    self.encounter_id = encounter_id\n    self.date = date\n    self.specialty = specialty\n    self.provider_ref = provider_ref\n    self.symptoms = _make_symptoms() if symptoms is _MISSING else symptoms\n    self.vitals = _make_vitals() if vitals is _MISSING else vitals\n    self.tests = _make_tests() if tests is _MISSING else tests\n    self.diagnoses = _make_diagnoses() if diagnoses is _MISSING else diagnoses\n    self.medications = _make_medications() if medications is _MISSING else medications\n    self.care_plans = _make_care_plans() if care_plans is _MISSING else care_plans\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.encounter_id, self.date, self.specialty, self.provider_ref, self.symptoms, self.vitals, self.tests, self.diagnoses, self.medications, self.care_plans, ) == (other.encounter_id, other.date, other.specialty, other.provider_ref, other.symptoms, other.vitals, other.tests, other.diagnoses, other.medications, other.care_plans, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(encounter_id={self.encounter_id!r}, date={self.date!r}, specialty={self.specialty!r}, provider_ref={self.provider_ref!r}, symptoms={self.symptoms!r}, vitals={self.vitals!r}, tests={self.tests!r}, diagnoses={self.diagnoses!r}, medications={self.medications!r}, care_plans={self.care_plans!r})"\ndef __reduce__(self):\n    return self.__class__, (self.encounter_id, self.date, self.specialty, self.provider_ref, self.symptoms, self.vitals, self.tests, self.diagnoses, self.medications, self.care_plans, )': _13,
    'def __init__(self, kind, from_encounter, to_encounter, via=_default_via):\n    _set(self, \'kind\', kind)\n    _set(self, \'from_encounter\', from_encounter)\n    _set(self, \'to_encounter\', to_encounter)\n    _set(self, \'via\', via)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.kind, self.from_encounter, self.to_encounter, self.via, ) == (other.kind, other.from_encounter, other.to_encounter, other.via, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(kind={self.kind!r}, from_encounter={self.from_encounter!r}, to_encounter={self.to_encounter!r}, via={self.via!r})"\ndef __reduce__(self):\n    return self.__class__, (self.kind, self.from_encounter, self.to_encounter, self.via, )\ndef __hash__(self):\n    return hash((self.kind, self.from_encounter, self.to_encounter, self.via, ))': _14,
    'def __init__(self, format_version, patient, providers=_MISSING, intake_form=_default_intake_form, encounters=_MISSING, links=_MISSING):\n    self.format_version = format_version\n    self.patient = patient\n    self.providers = _make_providers() if providers is _MISSING else providers\n    self.intake_form = intake_form\n    self.encounters = _make_encounters() if encounters is _MISSING else encounters\n    self.links = _make_links() if links is _MISSING else links\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.format_version, self.patient, self.providers, self.intake_form, self.encounters, self.links, ) == (other.format_version, other.patient, other.providers, other.intake_form, other.encounters, other.links, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(format_version={self.format_version!r}, patient={self.patient!r}, providers={self.providers!r}, intake_form={self.intake_form!r}, encounters={self.encounters!r}, links={self.links!r})"\ndef __reduce__(self):\n    return self.__class__, (self.format_version, self.patient, self.providers, self.intake_form, self.encounters, self.links, )': _15,
    'def __init__(self, counts, raters_per_subject):\n    _set(self, \'counts\', counts)\n    _set(self, \'raters_per_subject\', raters_per_subject)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.counts, self.raters_per_subject, ) == (other.counts, other.raters_per_subject, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(counts={self.counts!r}, raters_per_subject={self.raters_per_subject!r})"\ndef __reduce__(self):\n    return self.__class__, (self.counts, self.raters_per_subject, )\ndef __hash__(self):\n    return hash((self.counts, self.raters_per_subject, ))': _16,
    'def __init__(self, kappa, standard_error, ci95, observed_agreement, expected_agreement):\n    _set(self, \'kappa\', kappa)\n    _set(self, \'standard_error\', standard_error)\n    _set(self, \'ci95\', ci95)\n    _set(self, \'observed_agreement\', observed_agreement)\n    _set(self, \'expected_agreement\', expected_agreement)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.kappa, self.standard_error, self.ci95, self.observed_agreement, self.expected_agreement, ) == (other.kappa, other.standard_error, other.ci95, other.observed_agreement, other.expected_agreement, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(kappa={self.kappa!r}, standard_error={self.standard_error!r}, ci95={self.ci95!r}, observed_agreement={self.observed_agreement!r}, expected_agreement={self.expected_agreement!r})"\ndef __reduce__(self):\n    return self.__class__, (self.kappa, self.standard_error, self.ci95, self.observed_agreement, self.expected_agreement, )\ndef __hash__(self):\n    return hash((self.kappa, self.standard_error, self.ci95, self.observed_agreement, self.expected_agreement, ))': _17,
    'def __init__(self, dimension, n_responses, mean, sd, agree_fraction):\n    _set(self, \'dimension\', dimension)\n    _set(self, \'n_responses\', n_responses)\n    _set(self, \'mean\', mean)\n    _set(self, \'sd\', sd)\n    _set(self, \'agree_fraction\', agree_fraction)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.dimension, self.n_responses, self.mean, self.sd, self.agree_fraction, ) == (other.dimension, other.n_responses, other.mean, other.sd, other.agree_fraction, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(dimension={self.dimension!r}, n_responses={self.n_responses!r}, mean={self.mean!r}, sd={self.sd!r}, agree_fraction={self.agree_fraction!r})"\ndef __reduce__(self):\n    return self.__class__, (self.dimension, self.n_responses, self.mean, self.sd, self.agree_fraction, )\ndef __hash__(self):\n    return hash((self.dimension, self.n_responses, self.mean, self.sd, self.agree_fraction, ))': _18,
    'def __init__(self, dimensions, overall_mean, overall_sd):\n    _set(self, \'dimensions\', dimensions)\n    _set(self, \'overall_mean\', overall_mean)\n    _set(self, \'overall_sd\', overall_sd)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.dimensions, self.overall_mean, self.overall_sd, ) == (other.dimensions, other.overall_mean, other.overall_sd, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(dimensions={self.dimensions!r}, overall_mean={self.overall_mean!r}, overall_sd={self.overall_sd!r})"\ndef __reduce__(self):\n    return self.__class__, (self.dimensions, self.overall_mean, self.overall_sd, )\ndef __hash__(self):\n    return hash((self.dimensions, self.overall_mean, self.overall_sd, ))': _19,
    'def __init__(self, system, code):\n    _set(self, \'system\', system)\n    _set(self, \'code\', code)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.system, self.code, ) == (other.system, other.code, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(system={self.system!r}, code={self.code!r})"\ndef __reduce__(self):\n    return self.__class__, (self.system, self.code, )\ndef __hash__(self):\n    return hash((self.system, self.code, ))': _20,
    'def __init__(self, severity, code, message, location):\n    _set(self, \'severity\', severity)\n    _set(self, \'code\', code)\n    _set(self, \'message\', message)\n    _set(self, \'location\', location)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.severity, self.code, self.message, self.location, ) == (other.severity, other.code, other.message, other.location, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(severity={self.severity!r}, code={self.code!r}, message={self.message!r}, location={self.location!r})"\ndef __reduce__(self):\n    return self.__class__, (self.severity, self.code, self.message, self.location, )\ndef __hash__(self):\n    return hash((self.severity, self.code, self.message, self.location, ))': _21,
    'def __init__(self, diagnostics=_MISSING):\n    self.diagnostics = _make_diagnostics() if diagnostics is _MISSING else diagnostics\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.diagnostics, ) == (other.diagnostics, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(diagnostics={self.diagnostics!r})"\ndef __reduce__(self):\n    return self.__class__, (self.diagnostics, )': _22,
    'def __init__(self, patients=_MISSING, providers=_MISSING, intake_forms=_MISSING, encounters=_MISSING, encounter_owner=_MISSING, intake_form_owner=_MISSING, edges=_MISSING, annotations=_MISSING):\n    self.patients = _make_patients() if patients is _MISSING else patients\n    self.providers = _make_providers() if providers is _MISSING else providers\n    self.intake_forms = _make_intake_forms() if intake_forms is _MISSING else intake_forms\n    self.encounters = _make_encounters() if encounters is _MISSING else encounters\n    self.encounter_owner = _make_encounter_owner() if encounter_owner is _MISSING else encounter_owner\n    self.intake_form_owner = _make_intake_form_owner() if intake_form_owner is _MISSING else intake_form_owner\n    self.edges = _make_edges() if edges is _MISSING else edges\n    self.annotations = _make_annotations() if annotations is _MISSING else annotations\n    self.__post_init__()\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.patients, self.providers, self.intake_forms, self.encounters, self.encounter_owner, self.intake_form_owner, self.edges, self.annotations, ) == (other.patients, other.providers, other.intake_forms, other.encounters, other.encounter_owner, other.intake_form_owner, other.edges, other.annotations, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(patients={self.patients!r}, providers={self.providers!r}, intake_forms={self.intake_forms!r}, encounters={self.encounters!r}, encounter_owner={self.encounter_owner!r}, intake_form_owner={self.intake_form_owner!r}, edges={self.edges!r}, annotations={self.annotations!r})"\ndef __reduce__(self):\n    return self.__class__, (self.patients, self.providers, self.intake_forms, self.encounters, self.encounter_owner, self.intake_form_owner, self.edges, self.annotations, )': _23,
    'def __init__(self, graph, problems=_MISSING, report=_default_report):\n    self.graph = graph\n    self.problems = _make_problems() if problems is _MISSING else problems\n    self.report = report\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.graph, self.problems, self.report, ) == (other.graph, other.problems, other.report, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(graph={self.graph!r}, problems={self.problems!r}, report={self.report!r})"\ndef __reduce__(self):\n    return self.__class__, (self.graph, self.problems, self.report, )': _24,
    'def __init__(self, kind, encounter_id):\n    _set(self, \'kind\', kind)\n    _set(self, \'encounter_id\', encounter_id)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.kind, self.encounter_id, ) == (other.kind, other.encounter_id, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(kind={self.kind!r}, encounter_id={self.encounter_id!r})"\ndef __reduce__(self):\n    return self.__class__, (self.kind, self.encounter_id, )\ndef __hash__(self):\n    return hash((self.kind, self.encounter_id, ))': _25,
    'def __init__(self, encounter_id, date, specialty, inbound_links, outbound_links, headline_diagnoses):\n    _set(self, \'encounter_id\', encounter_id)\n    _set(self, \'date\', date)\n    _set(self, \'specialty\', specialty)\n    _set(self, \'inbound_links\', inbound_links)\n    _set(self, \'outbound_links\', outbound_links)\n    _set(self, \'headline_diagnoses\', headline_diagnoses)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.encounter_id, self.date, self.specialty, self.inbound_links, self.outbound_links, self.headline_diagnoses, ) == (other.encounter_id, other.date, other.specialty, other.inbound_links, other.outbound_links, other.headline_diagnoses, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(encounter_id={self.encounter_id!r}, date={self.date!r}, specialty={self.specialty!r}, inbound_links={self.inbound_links!r}, outbound_links={self.outbound_links!r}, headline_diagnoses={self.headline_diagnoses!r})"\ndef __reduce__(self):\n    return self.__class__, (self.encounter_id, self.date, self.specialty, self.inbound_links, self.outbound_links, self.headline_diagnoses, )\ndef __hash__(self):\n    return hash((self.encounter_id, self.date, self.specialty, self.inbound_links, self.outbound_links, self.headline_diagnoses, ))': _26,
    'def __init__(self, encounter_id, date, symptom_name, severity):\n    _set(self, \'encounter_id\', encounter_id)\n    _set(self, \'date\', date)\n    _set(self, \'symptom_name\', symptom_name)\n    _set(self, \'severity\', severity)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.encounter_id, self.date, self.symptom_name, self.severity, ) == (other.encounter_id, other.date, other.symptom_name, other.severity, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(encounter_id={self.encounter_id!r}, date={self.date!r}, symptom_name={self.symptom_name!r}, severity={self.severity!r})"\ndef __reduce__(self):\n    return self.__class__, (self.encounter_id, self.date, self.symptom_name, self.severity, )\ndef __hash__(self):\n    return hash((self.encounter_id, self.date, self.symptom_name, self.severity, ))': _27,
    'def __init__(self, symptom_name, diagnosis_name, encounter_id):\n    _set(self, \'symptom_name\', symptom_name)\n    _set(self, \'diagnosis_name\', diagnosis_name)\n    _set(self, \'encounter_id\', encounter_id)\ndef __eq__(self, other):\n    if other.__class__ is self.__class__:\n        return (self.symptom_name, self.diagnosis_name, self.encounter_id, ) == (other.symptom_name, other.diagnosis_name, other.encounter_id, )\n    return NotImplemented\ndef __repr__(self):\n    return f"{self.__class__.__qualname__}(symptom_name={self.symptom_name!r}, diagnosis_name={self.diagnosis_name!r}, encounter_id={self.encounter_id!r})"\ndef __reduce__(self):\n    return self.__class__, (self.symptom_name, self.diagnosis_name, self.encounter_id, )\ndef __hash__(self):\n    return hash((self.symptom_name, self.diagnosis_name, self.encounter_id, ))': _28,
}
