"""Record types stored in a journey graph.

A patient owns one optional intake form (medical and social history) and any
number of dated encounters.  Encounters carry clinical subrecords (symptoms,
vital signs, diagnostic tests, diagnoses, medications, care plans) and are
linked to each other by typed journey edges.

``FIELDS`` declares each record type: its bundle document's keys in
canonical order, their value types, which are required, their defaults and
the value checks that the graph checker also applies.  ``record`` builds
each record class from that declaration, and ``slotted`` builds pjo's other
value classes the same way (see ``_build``), with the methods
``scripts/generate_code.py`` wrote to ``pjo._generated.classes``.  Run that
script again after any change to ``FIELDS`` or a class declaration.
"""

from __future__ import annotations

from enum import Enum
from functools import update_wrapper

from ._generated import classes

# Plausibility bounds for vital signs; temperature is degrees Celsius,
# weight is kilograms, heart rate is beats per minute.
BODY_TEMPERATURE_RANGE = (25.0, 45.0)
HEART_RATE_MAX = 300.0
WEIGHT_MAX = 500.0


# -- slotted value classes ------------------------------------------------


class Fresh:
    """A default made anew for each instance by calling ``make``."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[], Any]) -> None:
        self.make = make


def _refuse_change(self, name, value=None):
    raise AttributeError(f"{self.__class__.__name__} is frozen: cannot change {name!r}")


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._values() == other._values()
    return NotImplemented


def shown(value, show=repr) -> str:
    """``show(value)``, its ``repr`` by default, or where that raises, as it
    does for an integer of more than 4300 digits or a container holding one,
    the value's type; an integer's with its size, sign and last eight hex
    digits, which ``int`` writes at any size: ``<int of 16610 bits:
    -0x...00000000>`` for ``-10**5000``.  It never raises: the checker, which
    never does, shows keys and IDs by it."""
    try:
        return show(value)
    except Exception:
        if isinstance(value, int):
            sign, digits = int.__format__(value, "x").rpartition("-")[1:]
            return f"<int of {int.bit_length(value)} bits: {sign}0x...{digits[-8:]:0>8}>"
        return f"<{type(value).__qualname__}>"


def _repr(self):
    values = ", ".join(f"{attr}={shown(value)}" for attr, value in zip(self._attrs, self._values()))
    return f"{self.__class__.__qualname__}({values})"


def _reduce(self):
    return self.__class__, self._values()


def _hash(self):
    return hash(self._values())


def _build(name: str, bases: tuple, namespace: dict, attrs: tuple, defaults: dict, frozen: bool):
    """The slotted class ``name`` holding ``attrs``, with its methods.

    ``__init__`` takes the attributes positionally or by keyword, in order;
    ``defaults`` maps the optional ones, which follow the required ones, to
    a default value or a ``Fresh`` factory.  ``__init__`` ends by calling
    ``__post_init__`` when the class has one; ``_values`` returns the values.
    Both come from ``pjo._generated.classes`` and are installed once the
    class is built: a frozen class's ``__init__`` is given the ``__set__`` of
    each attribute's slot descriptor, and so sets a slot without looking up
    the name or passing its refusing ``__setattr__``.  ``_attrs`` and
    ``_defaults`` keep the declaration, which ``scripts/generate_code.py``
    reads.  The rest is shared, over ``_values`` and ``_attrs``: ``__eq__``
    compares instances of one class, ``__repr__`` names each value and
    ``__reduce__`` rebuilds one through ``__init__`` for ``pickle`` and
    ``copy``.  A frozen class refuses assignment and deletion and hashes by
    value; a mutable one is unhashable.
    """
    namespace.update(_attrs=attrs, _defaults=defaults, __hash__=None)
    namespace.update(__eq__=_eq, __repr__=_repr, __reduce__=_reduce)
    if frozen:
        namespace.update(__hash__=_hash, __setattr__=_refuse_change, __delattr__=_refuse_change)
    namespace["__slots__"] = attrs + tuple(namespace.pop("__slots__", ()))
    cls = type(name, bases, namespace)
    makers = [default.make for default in defaults.values() if isinstance(default, Fresh)]
    setters = [vars(cls)[attr].__set__ for attr in attrs] if frozen else []
    methods = getattr(classes, f"methods_{name}")(*makers, *setters)
    for method, function in zip(("__init__", "_values"), methods):
        function.__qualname__ = f"{name}.{method}"
        setattr(cls, method, function)
    return cls


def slotted(cls=None, /, *, frozen: bool = False):
    """Class decorator: ``cls`` rebuilt as a slotted class (see ``_build``).

    The attributes are the names annotated in the class body, in order; a
    name assigned there is optional, with that value (or ``Fresh``
    factory) as its default.  Names in the body's own ``__slots__`` become
    extra slots outside ``__init__``.  Methods must not use zero-argument
    ``super()``, which would name the class before it was rebuilt.
    """

    def rebuild(cls):
        attrs = tuple(cls.__dict__.get("__annotations__", {}))
        namespace = dict(cls.__dict__)
        for name in (*namespace.get("__slots__", ()), "__dict__", "__weakref__"):
            namespace.pop(name, None)
        defaults = {attr: namespace.pop(attr) for attr in attrs if attr in namespace}
        return _build(cls.__name__, cls.__bases__, namespace, attrs, defaults, frozen)

    return rebuild if cls is None else rebuild(cls)


# -- the field table ------------------------------------------------------

# Value types of bundle fields.  Strings, dates, ICD-10 codes, link kinds and
# format versions are JSON strings; integers and numbers never accept booleans.
STR = "string"
INT = "int"
NUMBER = "number"
DATE = "date"
ICD10 = "icd10"
KIND = "kind"
VERSION = "version"
STRS = "string array"
OBJECT = "object"
OBJECTS = "object array"


@slotted(frozen=True)
class Field:
    """One key of a record's bundle document, and one attribute of its class.

    A required field must be present and not ``null``; a required string
    must also be nonempty.  ``record`` is the record type held by an
    ``OBJECT`` or ``OBJECTS`` field.  ``check`` returns a problem message
    for a well-typed value outside its plausible bounds, else None.  An
    optional scalar left out reads as ``default``; a left-out array as an
    empty list, a left-out object as its empty record, or as None if its
    record type has a required field (see ``holds_required``).
    """

    key: str
    attr: str
    type: str = STR
    required: bool = False
    record: type | None = None
    check: Callable[[Any], str | None] | None = None
    default: Any = None


# Every record's fields, in canonical key order, by record type.  The
# table drives the record classes, parsing, serialization, unknown-field
# warnings and the graph's field checks.
FIELDS: dict[type, tuple[Field, ...]] = {}


def holds_required(record_type: type) -> bool:
    """Whether the record type has a required field: an optional field that
    holds one reads as None when left out, not as its empty record."""
    return any(spec.required for spec in FIELDS[record_type])


def record(name: str, *fields: Field, frozen: bool = False, doc: str | None = None) -> type:
    """The record class declared by ``fields``, entered in ``FIELDS``.

    Its attributes are the fields' in table order.  Required fields have
    no default, nor has any field before a required one, as a positional
    signature needs; the others default as ``Field`` describes.
    """
    last_required = max((i for i, spec in enumerate(fields) if spec.required), default=-1)
    defaults = {
        spec.attr: Fresh(list) if spec.type in (STRS, OBJECTS)
        else Fresh(spec.record) if spec.type == OBJECT and not holds_required(spec.record)
        else spec.default
        for spec in fields[last_required + 1 :]
    }  # fmt: skip
    namespace = {"__module__": __name__, "__doc__": doc}
    attrs = tuple(spec.attr for spec in fields)
    cls = _build(name, (), namespace, attrs, defaults, frozen)
    FIELDS[cls] = fields
    return cls


# Value checks: a problem message for a value outside plausible bounds,
# else None.  The bundle reader and the graph checker apply them through
# ``FIELDS``.

VERDICTS_KEPT = 16384
REMEMBERED_LENGTH = 16


def remembered(check: Callable[[str], Any]) -> Callable[[str], Any]:
    """``check``, a pure function of one ``str``, answering each exact
    ``str`` value it has seen from a table of its verdicts (its return
    values).  Values of a ``str`` subclass, whose hash or equality may be
    anything, and values longer than ``REMEMBERED_LENGTH`` characters go to
    ``check`` and are not kept; once the table holds ``VERDICTS_KEPT``
    verdicts, new values go to ``check`` too.  The table is never emptied.
    At its cap it holds 16 384 keys of at most 140 bytes each (16
    characters outside the Basic Multilingual Plane) and a dict of about
    0.4 MB: about 2.7 MB for a check that answers ``True``/``False``/
    ``None``, plus the messages it keeps (at most about 300 bytes each for
    ``check_blood_pressure``, so about 7.5 MB in all).  The result keeps
    ``check``'s name, so generated code and the field table call it as they
    did ``check``; its ``__wrapped__`` is ``check`` and ``verdicts`` the
    table."""
    verdicts = {}

    def remembered_check(value):
        if type(value) is not str or len(value) > REMEMBERED_LENGTH:
            return check(value)
        try:
            return verdicts[value]
        except KeyError:
            pass
        verdict = check(value)
        if len(verdicts) < VERDICTS_KEPT:
            verdicts[value] = verdict
        return verdict

    update_wrapper(remembered_check, check)
    remembered_check.verdicts = verdicts
    return remembered_check


def check_body_temperature(value: float) -> str | None:
    low, high = BODY_TEMPERATURE_RANGE
    if not low <= value <= high:
        return f"value {value} outside [{low}, {high}] degrees C"
    return None


# At most as many digits a side as ``int`` reads from text by default, as the
# checker allows an integer.
BLOOD_PRESSURE_DIGITS = 4300


@remembered
def check_blood_pressure(value: str) -> str | None:
    """Two sides of ASCII digits around one ``/``, leading zeros allowed,
    each of at most 4300 digits, systolic above diastolic above 0.  The
    sides are compared as text: without leading zeros, a longer side is
    the larger, and sides of one length compare as strings."""
    systolic, slash, diastolic = value.partition("/")
    if not (slash and systolic.isascii() and systolic.isdigit()
            and diastolic.isascii() and diastolic.isdigit()):  # fmt: skip
        return f"value {value!r} is not <systolic>/<diastolic>"
    if len(systolic) > BLOOD_PRESSURE_DIGITS or len(diastolic) > BLOOD_PRESSURE_DIGITS:
        return (f"systolic and diastolic must have at most {BLOOD_PRESSURE_DIGITS} digits,"
                f" got {len(systolic)} and {len(diastolic)}")  # fmt: skip
    systolic = systolic.lstrip("0") or "0"
    diastolic = diastolic.lstrip("0") or "0"
    if not (len(systolic), systolic) > (len(diastolic), diastolic) > (1, "0"):
        return f"requires systolic > diastolic > 0, got {systolic}/{diastolic}"
    return None


def check_weight(value: float) -> str | None:
    if not 0 < value < WEIGHT_MAX:
        return f"value {value} outside (0, {WEIGHT_MAX}) kg"
    return None


def check_heart_rate(value: float) -> str | None:
    if not 0 < value < HEART_RATE_MAX:
        return f"value {value} outside (0, {HEART_RATE_MAX}) bpm"
    return None


def check_years_of_experience(value: int) -> str | None:
    if value < 0:
        return f"yearsOfExperience must be >= 0, got {value}"
    return None


ContactInformation = record(
    "ContactInformation",
    Field("address", "address"),
    Field("phoneNumber", "phone_number"),
    Field("email", "email"),
    Field("emergencyContact", "emergency_contact"),
)

Patient = record(
    "Patient",
    Field("patientID", "patient_id", required=True),
    Field("patientName", "patient_name", required=True),
    Field("birthDate", "birth_date", DATE, required=True),
    Field("race", "race"),
    Field("gender", "gender"),
    Field("contactInformation", "contact", OBJECT, record=ContactInformation),
    Field("insuranceName", "insurance_name"),
    Field("insuranceID", "insurance_id"),
)

Provider = record(
    "Provider",
    Field("providerID", "provider_id", required=True),
    Field("providerName", "provider_name", required=True),
    Field("specialization", "specialization"),
    Field("affiliatedInstitution", "affiliated_institution"),
    Field("yearsOfExperience", "years_of_experience", INT, check=check_years_of_experience),
)

MedicalHistory = record(
    "MedicalHistory",
    Field("hadSurgery", "had_surgery", STRS),
    Field("chronicIllness", "chronic_illness", STRS),
    Field("medicationAllergies", "medication_allergies", STRS),
    Field("familyMedicalHistory", "family_medical_history", STRS),
)

SocialHistory = record(
    "SocialHistory",
    Field("smokingHabit", "smoking_habit", required=True),
    Field("drinkingHabit", "drinking_habit", required=True),
    Field("diet", "diet"),
    Field("exerciseRoutine", "exercise_routine"),
    Field("maritalStatus", "marital_status"),
    Field("occupation", "occupation"),
    Field("educationLevel", "education_level"),
    Field("annualIncome", "annual_income"),
)

IntakeForm = record(
    "IntakeForm",
    Field("intakeFormID", "intake_form_id", required=True),
    Field("medicalHistory", "medical_history", OBJECT, record=MedicalHistory),
    Field("socialHistory", "social_history", OBJECT, required=True, record=SocialHistory),
)

Symptom = record(
    "Symptom",
    Field("symptomName", "symptom_name", required=True),
    Field("severity", "severity", default=""),
)

VitalSign = record(
    "VitalSign",
    Field("bodyTemperature", "body_temperature", NUMBER, check=check_body_temperature),
    Field("bloodPressure", "blood_pressure", check=check_blood_pressure),
    Field("weight", "weight", NUMBER, check=check_weight),
    Field("heartRate", "heart_rate", NUMBER, check=check_heart_rate),
)

DiagTest = record(
    "DiagTest",
    Field("testName", "test_name", required=True),
    Field("results", "results", default=""),
    Field("normalRange", "normal_range"),
)

Diagnosis = record(
    "Diagnosis",
    Field("diagnosisName", "diagnosis_name", required=True),
    Field("icd10", "icd10", ICD10),
)

Medication = record(
    "Medication",
    Field("medicationName", "medication_name", required=True),
    Field("dosage", "dosage", default=""),
    Field("frequency", "frequency", default=""),
)

CarePlan = record(
    "CarePlan",
    Field("planID", "plan_id", required=True),
    Field("description", "description", default=""),
    Field("referralSpecialty", "referral_specialty"),
)

Encounter = record(
    "Encounter",
    Field("encounterID", "encounter_id", required=True),
    Field("date", "date", DATE, required=True),
    Field("specialty", "specialty", required=True),
    Field("providerRef", "provider_ref", required=True),
    Field("symptoms", "symptoms", OBJECTS, record=Symptom),
    Field("vitals", "vitals", OBJECTS, record=VitalSign),
    Field("tests", "tests", OBJECTS, record=DiagTest),
    Field("diagnoses", "diagnoses", OBJECTS, record=Diagnosis),
    Field("medications", "medications", OBJECTS, record=Medication),
    Field("carePlans", "care_plans", OBJECTS, record=CarePlan),
)


class EdgeKind(str, Enum):
    """Journey link kinds, spelled as they appear in bundle documents.

    ``HAS_FOLLOWUP`` and ``NEXT`` run forward in time (the source encounter
    is no later than the target).  ``CAUSED_BY`` points from an effect back
    to its cause, so the source is no earlier than the target.
    """

    HAS_FOLLOWUP = "hasFollowup"
    CAUSED_BY = "causedBy"
    NEXT = "next"


# How CLI tables and DOT exports spell each link kind.
EDGE_LABELS = {
    EdgeKind.HAS_FOLLOWUP: "hasFollowup",
    EdgeKind.CAUSED_BY: "causedBy",
    EdgeKind.NEXT: "NEXT",
}
# Each link kind's text, its ``value``: a lookup here is several times
# faster than the enum's ``value`` property, for code that reads it per link.
KIND_TEXT = {kind: kind.value for kind in EdgeKind}

JourneyEdge = record(
    "JourneyEdge",
    Field("kind", "kind", KIND, required=True),
    Field("from", "from_encounter", required=True),
    Field("to", "to_encounter", required=True),
    Field("via", "via"),
    frozen=True,
    doc="""A typed link between two encounters of the same patient.

    ``via`` optionally names a care plan (by plan ID) or diagnosis (by name)
    inside either endpoint that explains a causal link, such as the referral
    that produced a visit.
    """,
)


# The bundle document itself: one patient's journey.
Bundle = record(
    "Bundle",
    Field("formatVersion", "format_version", VERSION, required=True),
    Field("patient", "patient", OBJECT, required=True, record=Patient),
    Field("providers", "providers", OBJECTS, record=Provider),
    Field("intakeForm", "intake_form", OBJECT, record=IntakeForm),
    Field("encounters", "encounters", OBJECTS, record=Encounter),
    Field("links", "links", OBJECTS, record=JourneyEdge),
)
