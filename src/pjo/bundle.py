"""Reading and writing patient bundles, the on-disk form of a journey.

A bundle is a UTF-8 JSON document describing exactly one patient: the
patient record, the providers involved, an optional intake form, the dated
encounters, and the journey links between them.  Serialization is
canonical: keys appear in a fixed order, encounters are sorted by (date,
encounter ID), links by (kind, from, to), and optional fields are omitted
when absent, so equal graphs serialize to byte-identical documents.

Parsing never raises on malformed input; every problem is reported as a
diagnostic with a document path such as ``encounters[2].diagnoses[0].icd10``.
Unknown fields are dropped with a warning.  A graph is returned only when
no error-severity problem was found.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from datetime import date

from .codes import CodeSystem, ConceptCode, validate_icd10
from .errors import UnknownPatientError
from .graph import (
    BAD_ICD10,
    CYCLE,
    DUPLICATE_EDGE,
    DUPLICATE_ID,
    FIELD_INVALID,
    INVALID_TYPE,
    INVALID_VALUE,
    JourneyGraph,
    MISSING_FIELD,
    REFERENCE_ERROR,
    SELF_LINK,
    SYNTAX_ERROR,
    TEMPORAL_VIOLATION,
    UNKNOWN_FIELD,
    UNKNOWN_PROVIDER,
    UNSUPPORTED_FORMAT_VERSION,
    Diagnostic,
    Severity,
    cyclic_nodes,
    oriented_edges,
)
from .records import (
    CarePlan,
    ContactInformation,
    DiagTest,
    Diagnosis,
    EdgeKind,
    Encounter,
    IntakeForm,
    JourneyEdge,
    MedicalHistory,
    Medication,
    Patient,
    Provider,
    SocialHistory,
    Symptom,
    VitalSign,
    edge_dates_consistent,
    vital_sign_problems,
)

FORMAT_VERSION = "pjo-1"

_DATE_PATTERN = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_LINK_KINDS = {kind.value: kind for kind in EdgeKind}


@dataclass
class ParseResult:
    """Outcome of parsing a bundle: a graph when no errors were found."""

    graph: JourneyGraph | None
    problems: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.problems if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.problems if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        return self.graph is not None


# -- serialization --------------------------------------------------------


def serialize_bundle(graph: JourneyGraph, patient_id: str) -> str:
    """Render one patient's journey as a canonical bundle document."""
    patient = graph.patients.get(patient_id)
    if patient is None:
        raise UnknownPatientError(f"unknown patient {patient_id!r}")
    doc: dict = {"formatVersion": FORMAT_VERSION, "patient": _patient_doc(patient)}
    doc["providers"] = [
        _provider_doc(graph.providers[pid]) for pid in sorted(graph.providers)
    ]
    form = graph.intake_form_of(patient_id)
    if form is not None:
        doc["intakeForm"] = _intake_form_doc(form)
    doc["encounters"] = [_encounter_doc(e) for e in graph.encounters_of(patient_id)]
    doc["links"] = [
        _link_doc(edge)
        for edge in sorted(
            graph.edges_of(patient_id),
            key=lambda e: (e.kind.value, e.from_encounter, e.to_encounter),
        )
    ]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _set_optional(doc: dict, key: str, value) -> None:
    if value is not None:
        doc[key] = value


def _patient_doc(patient: Patient) -> dict:
    doc: dict = {
        "patientID": patient.patient_id,
        "patientName": patient.patient_name,
        "birthDate": patient.birth_date.isoformat(),
    }
    _set_optional(doc, "race", patient.race)
    _set_optional(doc, "gender", patient.gender)
    contact = patient.contact
    contact_doc: dict = {}
    _set_optional(contact_doc, "address", contact.address)
    _set_optional(contact_doc, "phoneNumber", contact.phone_number)
    _set_optional(contact_doc, "email", contact.email)
    _set_optional(contact_doc, "emergencyContact", contact.emergency_contact)
    if contact_doc:
        doc["contactInformation"] = contact_doc
    _set_optional(doc, "insuranceName", patient.insurance_name)
    _set_optional(doc, "insuranceID", patient.insurance_id)
    return doc


def _provider_doc(provider: Provider) -> dict:
    doc: dict = {
        "providerID": provider.provider_id,
        "providerName": provider.provider_name,
    }
    _set_optional(doc, "specialization", provider.specialization)
    _set_optional(doc, "affiliatedInstitution", provider.affiliated_institution)
    _set_optional(doc, "yearsOfExperience", provider.years_of_experience)
    return doc


def _intake_form_doc(form: IntakeForm) -> dict:
    history = form.medical_history
    social = form.social_history
    social_doc: dict = {
        "smokingHabit": social.smoking_habit,
        "drinkingHabit": social.drinking_habit,
    }
    _set_optional(social_doc, "diet", social.diet)
    _set_optional(social_doc, "exerciseRoutine", social.exercise_routine)
    _set_optional(social_doc, "maritalStatus", social.marital_status)
    _set_optional(social_doc, "occupation", social.occupation)
    _set_optional(social_doc, "educationLevel", social.education_level)
    _set_optional(social_doc, "annualIncome", social.annual_income)
    return {
        "intakeFormID": form.intake_form_id,
        "medicalHistory": {
            "hadSurgery": list(history.had_surgery),
            "chronicIllness": list(history.chronic_illness),
            "medicationAllergies": list(history.medication_allergies),
            "familyMedicalHistory": list(history.family_medical_history),
        },
        "socialHistory": social_doc,
    }


def _encounter_doc(encounter: Encounter) -> dict:
    symptoms = [
        {"symptomName": s.symptom_name, "severity": s.severity} for s in encounter.symptoms
    ]
    vitals = []
    for vital in encounter.vitals:
        vital_doc: dict = {}
        _set_optional(vital_doc, "bodyTemperature", vital.body_temperature)
        _set_optional(vital_doc, "bloodPressure", vital.blood_pressure)
        _set_optional(vital_doc, "weight", vital.weight)
        _set_optional(vital_doc, "heartRate", vital.heart_rate)
        vitals.append(vital_doc)
    tests = []
    for test in encounter.tests:
        test_doc = {"testName": test.test_name, "results": test.results}
        _set_optional(test_doc, "normalRange", test.normal_range)
        tests.append(test_doc)
    diagnoses = []
    for diagnosis in encounter.diagnoses:
        diagnosis_doc: dict = {"diagnosisName": diagnosis.diagnosis_name}
        if diagnosis.icd10 is not None:
            diagnosis_doc["icd10"] = diagnosis.icd10.code
        diagnoses.append(diagnosis_doc)
    medications = [
        {
            "medicationName": m.medication_name,
            "dosage": m.dosage,
            "frequency": m.frequency,
        }
        for m in encounter.medications
    ]
    care_plans = []
    for plan in encounter.care_plans:
        plan_doc = {"planID": plan.plan_id, "description": plan.description}
        _set_optional(plan_doc, "referralSpecialty", plan.referral_specialty)
        care_plans.append(plan_doc)
    return {
        "encounterID": encounter.encounter_id,
        "date": encounter.date.isoformat(),
        "specialty": encounter.specialty,
        "providerRef": encounter.provider_ref,
        "symptoms": symptoms,
        "vitals": vitals,
        "tests": tests,
        "diagnoses": diagnoses,
        "medications": medications,
        "carePlans": care_plans,
    }


def _link_doc(edge: JourneyEdge) -> dict:
    doc = {
        "kind": edge.kind.value,
        "from": edge.from_encounter,
        "to": edge.to_encounter,
    }
    _set_optional(doc, "via", edge.via)
    return doc


# -- parsing --------------------------------------------------------------


class _Problems:
    def __init__(self) -> None:
        self.items: list[Diagnostic] = []

    def error(self, path: str, code: str, message: str) -> None:
        self.items.append(Diagnostic(Severity.ERROR, code, message, path))

    def warning(self, path: str, code: str, message: str) -> None:
        self.items.append(Diagnostic(Severity.WARNING, code, message, path))

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.items)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _warn_unknown(obj: dict, known: tuple[str, ...], path: str, problems: _Problems) -> None:
    for key in obj:
        if key not in known:
            problems.warning(_join(path, key), UNKNOWN_FIELD, f"unknown field {key!r} ignored")


def _req_str(
    obj: dict, key: str, path: str, problems: _Problems, nonempty: bool = True
) -> str | None:
    if key not in obj or obj[key] is None:
        problems.error(_join(path, key), MISSING_FIELD, f"required field {key!r} is missing")
        return None
    value = obj[key]
    if not isinstance(value, str):
        problems.error(_join(path, key), INVALID_TYPE, f"{key!r} must be a string")
        return None
    if nonempty and not value:
        problems.error(_join(path, key), FIELD_INVALID, f"{key!r} must be nonempty")
        return None
    return value


def _opt_str(obj: dict, key: str, path: str, problems: _Problems) -> str | None:
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        problems.error(_join(path, key), INVALID_TYPE, f"{key!r} must be a string")
        return None
    return value


def _opt_int(obj: dict, key: str, path: str, problems: _Problems) -> int | None:
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        problems.error(_join(path, key), INVALID_TYPE, f"{key!r} must be an integer")
        return None
    return value


def _opt_number(obj: dict, key: str, path: str, problems: _Problems) -> float | None:
    value = obj.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.error(_join(path, key), INVALID_TYPE, f"{key!r} must be a number")
        return None
    return value


def _parse_date_value(value: str, path: str, problems: _Problems) -> date | None:
    if not _DATE_PATTERN.fullmatch(value):
        problems.error(path, INVALID_VALUE, f"{value!r} is not an ISO-8601 date (YYYY-MM-DD)")
        return None
    try:
        return date.fromisoformat(value)
    except ValueError:
        problems.error(path, INVALID_VALUE, f"{value!r} is not a calendar date")
        return None


def _req_date(obj: dict, key: str, path: str, problems: _Problems) -> date | None:
    value = _req_str(obj, key, path, problems)
    if value is None:
        return None
    return _parse_date_value(value, _join(path, key), problems)


def _str_list(obj: dict, key: str, path: str, problems: _Problems) -> list[str]:
    if key not in obj or obj[key] is None:
        return []
    value = obj[key]
    if not isinstance(value, list):
        problems.error(_join(path, key), INVALID_TYPE, f"{key!r} must be an array")
        return []
    items: list[str] = []
    for index, item in enumerate(value):
        item_path = f"{_join(path, key)}[{index}]"
        if not isinstance(item, str):
            problems.error(item_path, INVALID_TYPE, "entry must be a string")
        elif not item:
            problems.error(item_path, FIELD_INVALID, "entry must be nonempty")
        else:
            items.append(item)
    return items


def _obj_list(obj: dict, key: str, path: str, problems: _Problems) -> list[tuple[str, dict]]:
    """(item path, item dict) pairs for an array-of-objects field."""
    if key not in obj or obj[key] is None:
        return []
    value = obj[key]
    if not isinstance(value, list):
        problems.error(_join(path, key), INVALID_TYPE, f"{key!r} must be an array")
        return []
    items: list[tuple[str, dict]] = []
    for index, item in enumerate(value):
        item_path = f"{_join(path, key)}[{index}]"
        if not isinstance(item, dict):
            problems.error(item_path, INVALID_TYPE, "entry must be an object")
        else:
            items.append((item_path, item))
    return items


def _walk_patient(obj: dict, path: str, problems: _Problems) -> Patient | None:
    known = (
        "patientID",
        "patientName",
        "birthDate",
        "race",
        "gender",
        "contactInformation",
        "insuranceName",
        "insuranceID",
    )
    _warn_unknown(obj, known, path, problems)
    patient_id = _req_str(obj, "patientID", path, problems)
    patient_name = _req_str(obj, "patientName", path, problems)
    birth_date = _req_date(obj, "birthDate", path, problems)
    contact = ContactInformation()
    contact_obj = obj.get("contactInformation")
    if contact_obj is not None:
        contact_path = _join(path, "contactInformation")
        if not isinstance(contact_obj, dict):
            problems.error(contact_path, INVALID_TYPE, "'contactInformation' must be an object")
        else:
            contact_known = ("address", "phoneNumber", "email", "emergencyContact")
            _warn_unknown(contact_obj, contact_known, contact_path, problems)
            contact = ContactInformation(
                address=_opt_str(contact_obj, "address", contact_path, problems),
                phone_number=_opt_str(contact_obj, "phoneNumber", contact_path, problems),
                email=_opt_str(contact_obj, "email", contact_path, problems),
                emergency_contact=_opt_str(
                    contact_obj, "emergencyContact", contact_path, problems
                ),
            )
    if patient_id is None or patient_name is None or birth_date is None:
        return None
    return Patient(
        patient_id=patient_id,
        patient_name=patient_name,
        birth_date=birth_date,
        race=_opt_str(obj, "race", path, problems),
        gender=_opt_str(obj, "gender", path, problems),
        contact=contact,
        insurance_name=_opt_str(obj, "insuranceName", path, problems),
        insurance_id=_opt_str(obj, "insuranceID", path, problems),
    )


def _walk_provider(obj: dict, path: str, problems: _Problems) -> Provider | None:
    known = (
        "providerID",
        "providerName",
        "specialization",
        "affiliatedInstitution",
        "yearsOfExperience",
    )
    _warn_unknown(obj, known, path, problems)
    provider_id = _req_str(obj, "providerID", path, problems)
    provider_name = _req_str(obj, "providerName", path, problems)
    years = _opt_int(obj, "yearsOfExperience", path, problems)
    if years is not None and years < 0:
        problems.error(
            _join(path, "yearsOfExperience"),
            FIELD_INVALID,
            f"yearsOfExperience must be >= 0, got {years}",
        )
        years = None
    if provider_id is None or provider_name is None:
        return None
    return Provider(
        provider_id=provider_id,
        provider_name=provider_name,
        specialization=_opt_str(obj, "specialization", path, problems),
        affiliated_institution=_opt_str(obj, "affiliatedInstitution", path, problems),
        years_of_experience=years,
    )


def _walk_intake_form(obj: dict, path: str, problems: _Problems) -> IntakeForm | None:
    known = ("intakeFormID", "medicalHistory", "socialHistory")
    _warn_unknown(obj, known, path, problems)
    form_id = _req_str(obj, "intakeFormID", path, problems)
    history = MedicalHistory()
    history_obj = obj.get("medicalHistory")
    if history_obj is not None:
        history_path = _join(path, "medicalHistory")
        if not isinstance(history_obj, dict):
            problems.error(history_path, INVALID_TYPE, "'medicalHistory' must be an object")
        else:
            history_known = (
                "hadSurgery",
                "chronicIllness",
                "medicationAllergies",
                "familyMedicalHistory",
            )
            _warn_unknown(history_obj, history_known, history_path, problems)
            history = MedicalHistory(
                had_surgery=_str_list(history_obj, "hadSurgery", history_path, problems),
                chronic_illness=_str_list(history_obj, "chronicIllness", history_path, problems),
                medication_allergies=_str_list(
                    history_obj, "medicationAllergies", history_path, problems
                ),
                family_medical_history=_str_list(
                    history_obj, "familyMedicalHistory", history_path, problems
                ),
            )
    social_obj = obj.get("socialHistory")
    social = None
    social_path = _join(path, "socialHistory")
    if social_obj is None:
        problems.error(social_path, MISSING_FIELD, "required field 'socialHistory' is missing")
    elif not isinstance(social_obj, dict):
        problems.error(social_path, INVALID_TYPE, "'socialHistory' must be an object")
    else:
        social_known = (
            "smokingHabit",
            "drinkingHabit",
            "diet",
            "exerciseRoutine",
            "maritalStatus",
            "occupation",
            "educationLevel",
            "annualIncome",
        )
        _warn_unknown(social_obj, social_known, social_path, problems)
        smoking = _req_str(social_obj, "smokingHabit", social_path, problems)
        drinking = _req_str(social_obj, "drinkingHabit", social_path, problems)
        if smoking is not None and drinking is not None:
            social = SocialHistory(
                smoking_habit=smoking,
                drinking_habit=drinking,
                diet=_opt_str(social_obj, "diet", social_path, problems),
                exercise_routine=_opt_str(social_obj, "exerciseRoutine", social_path, problems),
                marital_status=_opt_str(social_obj, "maritalStatus", social_path, problems),
                occupation=_opt_str(social_obj, "occupation", social_path, problems),
                education_level=_opt_str(social_obj, "educationLevel", social_path, problems),
                annual_income=_opt_str(social_obj, "annualIncome", social_path, problems),
            )
    if form_id is None or social is None:
        return None
    return IntakeForm(intake_form_id=form_id, medical_history=history, social_history=social)


def _walk_encounter(obj: dict, path: str, problems: _Problems) -> Encounter | None:
    known = (
        "encounterID",
        "date",
        "specialty",
        "providerRef",
        "symptoms",
        "vitals",
        "tests",
        "diagnoses",
        "medications",
        "carePlans",
    )
    _warn_unknown(obj, known, path, problems)
    encounter_id = _req_str(obj, "encounterID", path, problems)
    when = _req_date(obj, "date", path, problems)
    specialty = _req_str(obj, "specialty", path, problems)
    provider_ref = _req_str(obj, "providerRef", path, problems)

    symptoms = []
    for item_path, item in _obj_list(obj, "symptoms", path, problems):
        _warn_unknown(item, ("symptomName", "severity"), item_path, problems)
        name = _req_str(item, "symptomName", item_path, problems)
        severity = _opt_str(item, "severity", item_path, problems) or ""
        if name is not None:
            symptoms.append(Symptom(symptom_name=name, severity=severity))

    vitals = []
    for item_path, item in _obj_list(obj, "vitals", path, problems):
        vital_known = ("bodyTemperature", "bloodPressure", "weight", "heartRate")
        _warn_unknown(item, vital_known, item_path, problems)
        vital = VitalSign(
            body_temperature=_opt_number(item, "bodyTemperature", item_path, problems),
            blood_pressure=_opt_str(item, "bloodPressure", item_path, problems),
            weight=_opt_number(item, "weight", item_path, problems),
            heart_rate=_opt_number(item, "heartRate", item_path, problems),
        )
        for field_name, message in vital_sign_problems(vital):
            problems.error(f"{item_path}.{field_name}", FIELD_INVALID, message)
        vitals.append(vital)

    tests = []
    for item_path, item in _obj_list(obj, "tests", path, problems):
        _warn_unknown(item, ("testName", "results", "normalRange"), item_path, problems)
        name = _req_str(item, "testName", item_path, problems)
        results = _opt_str(item, "results", item_path, problems) or ""
        if name is not None:
            tests.append(
                DiagTest(
                    test_name=name,
                    results=results,
                    normal_range=_opt_str(item, "normalRange", item_path, problems),
                )
            )

    diagnoses = []
    for item_path, item in _obj_list(obj, "diagnoses", path, problems):
        _warn_unknown(item, ("diagnosisName", "icd10"), item_path, problems)
        name = _req_str(item, "diagnosisName", item_path, problems)
        icd10 = None
        raw_code = _opt_str(item, "icd10", item_path, problems)
        if raw_code is not None:
            if validate_icd10(raw_code):
                icd10 = ConceptCode(CodeSystem.ICD10, raw_code)
            else:
                problems.error(
                    f"{item_path}.icd10",
                    BAD_ICD10,
                    f"{raw_code!r} is not a valid ICD10 code",
                )
        if name is not None:
            diagnoses.append(Diagnosis(diagnosis_name=name, icd10=icd10))

    medications = []
    for item_path, item in _obj_list(obj, "medications", path, problems):
        _warn_unknown(item, ("medicationName", "dosage", "frequency"), item_path, problems)
        name = _req_str(item, "medicationName", item_path, problems)
        if name is not None:
            medications.append(
                Medication(
                    medication_name=name,
                    dosage=_opt_str(item, "dosage", item_path, problems) or "",
                    frequency=_opt_str(item, "frequency", item_path, problems) or "",
                )
            )

    care_plans = []
    for item_path, item in _obj_list(obj, "carePlans", path, problems):
        _warn_unknown(item, ("planID", "description", "referralSpecialty"), item_path, problems)
        plan_id = _req_str(item, "planID", item_path, problems)
        if plan_id is not None:
            care_plans.append(
                CarePlan(
                    plan_id=plan_id,
                    description=_opt_str(item, "description", item_path, problems) or "",
                    referral_specialty=_opt_str(item, "referralSpecialty", item_path, problems),
                )
            )

    if encounter_id is None or when is None or specialty is None or provider_ref is None:
        return None
    return Encounter(
        encounter_id=encounter_id,
        date=when,
        specialty=specialty,
        provider_ref=provider_ref,
        symptoms=symptoms,
        vitals=vitals,
        tests=tests,
        diagnoses=diagnoses,
        medications=medications,
        care_plans=care_plans,
    )


def _walk_link(obj: dict, path: str, problems: _Problems) -> JourneyEdge | None:
    _warn_unknown(obj, ("kind", "from", "to", "via"), path, problems)
    kind_value = _req_str(obj, "kind", path, problems)
    from_id = _req_str(obj, "from", path, problems)
    to_id = _req_str(obj, "to", path, problems)
    kind = None
    if kind_value is not None:
        kind = _LINK_KINDS.get(kind_value)
        if kind is None:
            problems.error(
                _join(path, "kind"),
                INVALID_VALUE,
                f"link kind must be one of {sorted(_LINK_KINDS)}, got {kind_value!r}",
            )
    if kind is None or from_id is None or to_id is None:
        return None
    return JourneyEdge(
        kind=kind,
        from_encounter=from_id,
        to_encounter=to_id,
        via=_opt_str(obj, "via", path, problems),
    )


def parse_bundle(data: str | bytes) -> ParseResult:
    """Parse bundle text into a journey graph, collecting all problems."""
    problems = _Problems()
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            problems.error("", SYNTAX_ERROR, f"document is not valid UTF-8: {exc.reason}")
            return ParseResult(None, problems.items)
    try:
        root = json.loads(data)
    except json.JSONDecodeError as exc:
        problems.error(
            "", SYNTAX_ERROR, f"document is not valid JSON: {exc.msg} at line {exc.lineno}"
        )
        return ParseResult(None, problems.items)
    except RecursionError:
        problems.error("", SYNTAX_ERROR, "document is nested too deeply to decode")
        return ParseResult(None, problems.items)
    except ValueError as exc:  # an integer past the interpreter's digit limit
        problems.error("", SYNTAX_ERROR, f"document could not be decoded: {exc}")
        return ParseResult(None, problems.items)
    if not isinstance(root, dict):
        problems.error("", INVALID_TYPE, "top-level value must be an object")
        return ParseResult(None, problems.items)

    known = ("formatVersion", "patient", "providers", "intakeForm", "encounters", "links")
    _warn_unknown(root, known, "", problems)
    version = _req_str(root, "formatVersion", "", problems)
    if version is not None and version != FORMAT_VERSION:
        problems.error(
            "formatVersion",
            UNSUPPORTED_FORMAT_VERSION,
            f"unsupported format version {version!r}, expected {FORMAT_VERSION!r}",
        )

    patient = None
    patient_obj = root.get("patient")
    if patient_obj is None:
        problems.error("patient", MISSING_FIELD, "required field 'patient' is missing")
    elif not isinstance(patient_obj, dict):
        problems.error("patient", INVALID_TYPE, "'patient' must be an object")
    else:
        patient = _walk_patient(patient_obj, "patient", problems)

    providers = [
        provider
        for item_path, item in _obj_list(root, "providers", "", problems)
        if (provider := _walk_provider(item, item_path, problems)) is not None
    ]

    intake_form = None
    intake_obj = root.get("intakeForm")
    if intake_obj is not None:
        if not isinstance(intake_obj, dict):
            problems.error("intakeForm", INVALID_TYPE, "'intakeForm' must be an object")
        else:
            intake_form = _walk_intake_form(intake_obj, "intakeForm", problems)

    encounters: list[tuple[str, Encounter]] = []
    for item_path, item in _obj_list(root, "encounters", "", problems):
        encounter = _walk_encounter(item, item_path, problems)
        if encounter is not None:
            encounters.append((item_path, encounter))

    links: list[tuple[str, JourneyEdge]] = []
    for item_path, item in _obj_list(root, "links", "", problems):
        link = _walk_link(item, item_path, problems)
        if link is not None:
            links.append((item_path, link))

    if problems.has_errors or patient is None:
        return ParseResult(None, problems.items)

    graph = _assemble(patient, providers, intake_form, encounters, links, problems)
    if problems.has_errors:
        return ParseResult(None, problems.items)
    return ParseResult(graph, problems.items)


def _assemble(
    patient: Patient,
    providers: list[Provider],
    intake_form: IntakeForm | None,
    encounters: list[tuple[str, Encounter]],
    links: list[tuple[str, JourneyEdge]],
    problems: _Problems,
) -> JourneyGraph:
    graph = JourneyGraph()
    graph.patients[patient.patient_id] = patient
    for index, provider in enumerate(providers):
        if provider.provider_id in graph.providers:
            problems.error(
                f"providers[{index}].providerID",
                DUPLICATE_ID,
                f"provider ID {provider.provider_id!r} already used",
            )
        else:
            graph.providers[provider.provider_id] = provider
    if intake_form is not None:
        graph.intake_forms[intake_form.intake_form_id] = intake_form
        graph.intake_form_owner[intake_form.intake_form_id] = patient.patient_id

    for item_path, encounter in encounters:
        if encounter.encounter_id in graph.encounters:
            problems.error(
                f"{item_path}.encounterID",
                DUPLICATE_ID,
                f"encounter ID {encounter.encounter_id!r} already used",
            )
            continue
        graph.encounters[encounter.encounter_id] = encounter
        graph.encounter_owner[encounter.encounter_id] = patient.patient_id
        if encounter.provider_ref not in graph.providers:
            problems.error(
                f"{item_path}.providerRef",
                UNKNOWN_PROVIDER,
                f"providerRef {encounter.provider_ref!r} does not resolve",
            )
        if encounter.date < patient.birth_date:
            problems.error(
                f"{item_path}.date",
                FIELD_INVALID,
                f"encounter date {encounter.date.isoformat()} precedes "
                f"birth date {patient.birth_date.isoformat()}",
            )

    seen: set[tuple[EdgeKind, str, str]] = set()
    for item_path, edge in links:
        source = graph.encounters.get(edge.from_encounter)
        target = graph.encounters.get(edge.to_encounter)
        resolved = True
        if source is None:
            problems.error(
                f"{item_path}.from",
                REFERENCE_ERROR,
                f"link.from names missing encounter {edge.from_encounter!r}",
            )
            resolved = False
        if target is None:
            problems.error(
                f"{item_path}.to",
                REFERENCE_ERROR,
                f"link.to names missing encounter {edge.to_encounter!r}",
            )
            resolved = False
        if not resolved:
            continue
        if edge.from_encounter == edge.to_encounter:
            problems.error(
                item_path,
                SELF_LINK,
                f"link connects {edge.from_encounter!r} to itself",
            )
            continue
        if not edge_dates_consistent(edge.kind, source.date, target.date):
            problems.error(
                item_path,
                TEMPORAL_VIOLATION,
                f"{edge.kind.value} link {edge.from_encounter!r} -> {edge.to_encounter!r} "
                f"contradicts encounter dates {source.date.isoformat()} "
                f"and {target.date.isoformat()}",
            )
        key = (edge.kind, edge.from_encounter, edge.to_encounter)
        if key in seen:
            problems.error(
                item_path,
                DUPLICATE_EDGE,
                f"duplicate {edge.kind.value} link {edge.from_encounter!r} -> "
                f"{edge.to_encounter!r}",
            )
        seen.add(key)
        graph.edges.append(edge)

    in_cycle = cyclic_nodes(list(graph.encounters), oriented_edges(graph.edges))
    if in_cycle:
        problems.error("links", CYCLE, "journey links form a cycle through: " + ", ".join(in_cycle))

    if not problems.has_errors:
        # The parser checks everything the graph checker does; re-check to
        # keep that guarantee honest if the two ever drift apart.
        for diagnostic in graph.check_invariants().errors:
            problems.error(diagnostic.location, diagnostic.code, diagnostic.message)
    return graph
