"""Patient journey knowledge graphs.

Build journeys from patients, intake forms, and linked encounters; validate
them against structural, temporal, and coding invariants; query timelines,
symptom progressions, follow-up chains, and cause traces; export Graphviz
DOT; and summarize rater agreement with Fleiss' kappa and Likert statistics.

The public names below are imported from their modules on first use, so
``import pjo`` loads none of them.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the module that defines it.
_EXPORTS = {
    "agreement": (
        "DimensionSummary",
        "KappaResult",
        "LikertSummary",
        "RatingMatrix",
        "fleiss_kappa",
        "likert_responses_from_csv",
        "likert_summary",
        "rating_matrix_from_csv",
    ),
    "bundle": ("FORMAT_VERSION", "ParseResult", "parse_bundle", "serialize_bundle"),
    "codes": (
        "CLASS_ANNOTATIONS",
        "CodeSystem",
        "ConceptCode",
        "annotations_for",
        "duplicate_cuis",
        "validate_cui",
        "validate_fhir_label",
        "validate_icd10",
    ),
    "dot": ("to_dot",),
    "errors": (
        "AmbiguousChainError",
        "AmbiguousTraceError",
        "CrossPatientLinkError",
        "CycleIntroducedError",
        "DegenerateAgreementError",
        "DuplicateEdgeError",
        "DuplicateIDError",
        "FieldInvalidError",
        "PjoError",
        "ShapeError",
        "TemporalViolationError",
        "UnknownEncounterError",
        "UnknownPatientError",
        "UnknownProviderError",
    ),
    "graph": ("Diagnostic", "JourneyGraph", "Severity", "ValidationReport", "structurally_equal"),
    "queries": (
        "LinkRef",
        "SymptomDiagnosisLink",
        "SymptomOccurrence",
        "TimelineEntry",
        "cause_trace",
        "find_encounters",
        "followup_chain",
        "symptom_diagnosis_links",
        "symptom_progression",
        "timeline",
    ),
    "records": (
        "CarePlan",
        "ContactInformation",
        "DiagTest",
        "Diagnosis",
        "EdgeKind",
        "Encounter",
        "IntakeForm",
        "JourneyEdge",
        "MedicalHistory",
        "Medication",
        "Patient",
        "Provider",
        "SocialHistory",
        "Symptom",
        "VitalSign",
    ),
    "seed": ("john_doe_bundle", "john_doe_graph"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
