"""Clinical code systems, format validators, and the class annotation table.

Three code systems are supported: UMLS concept identifiers (CUIs), ICD-10
codes, and FHIR resource labels.  The annotation table maps each clinical
class (or property, for ``medicationName`` and ``healthInsurance``) to the
codes annotated on it.
"""

from __future__ import annotations

import re
from enum import Enum

from .records import remembered, slotted

# [0-9] rather than \d: only ASCII digits are acceptable in codes.
CUI_PATTERN = re.compile(r"C[0-9]{7}")
ICD10_PATTERN = re.compile(r"[A-Z][A-Z0-9]{2}(?:\.[A-Z0-9]{1,4})?")


class CodeSystem(str, Enum):
    UMLS_CUI = "UMLS_CUI"
    ICD10 = "ICD10"
    FHIR_LABEL = "FHIR_LABEL"


def validate_cui(code: str) -> bool:
    """True when ``code`` is ``C`` followed by exactly seven decimal digits."""
    return CUI_PATTERN.fullmatch(code) is not None


def validate_icd10(code: str, code_list: Container[str] | None = None) -> bool:
    """True when ``code`` has the ICD-10 shape: an uppercase letter, two
    alphanumerics, and optionally a dot plus one to four alphanumerics.

    ``code_list`` is a hook for validating against a published code list;
    when given, membership in it is required on top of the shape check.
    """
    if code_list is None:
        return _icd10_shaped(code)
    return _has_icd10_shape(code) and code in code_list


def _has_icd10_shape(code: str) -> bool:
    return ICD10_PATTERN.fullmatch(code) is not None


# The shape test for the checker and the reader, which see each of a few
# codes again and again.
_icd10_shaped = remembered(_has_icd10_shape)


def validate_fhir_label(code: str) -> bool:
    """True when ``code`` is a nonempty token without whitespace."""
    return bool(code) and not any(ch.isspace() for ch in code)


@slotted(frozen=True)
class ConceptCode:
    """A code together with the system it is drawn from."""

    system: CodeSystem
    code: str

    def is_valid(self) -> bool:
        if self.system is CodeSystem.UMLS_CUI:
            return validate_cui(self.code)
        if self.system is CodeSystem.ICD10:
            return validate_icd10(self.code)
        return validate_fhir_label(self.code)


def _cui(code: str) -> ConceptCode:
    return ConceptCode(CodeSystem.UMLS_CUI, code)


AnnotationTable = dict[str, tuple[ConceptCode, ...]]

# SocialHistory and Encounter intentionally share C3714536; the invariant
# checker reports the duplication as a warning, never as an error.
CLASS_ANNOTATIONS: AnnotationTable = {
    "Patient": (_cui("C0030705"),),
    "Provider": (_cui("C2735026"),),
    "healthInsurance": (_cui("C0021682"),),
    "MedicalHistory": (_cui("C0262926"),),
    "SocialHistory": (_cui("C3714536"),),
    "Encounter": (_cui("C3714536"), ConceptCode(CodeSystem.FHIR_LABEL, "Encounter")),
    "Symptom": (_cui("C3540840"),),
    "VitalSign": (_cui("C0518766"),),
    "DiagTest": (_cui("C0086143"),),
    "Diagnosis": (_cui("C0011900"),),
    "medicationName": (_cui("C5939153"),),
    "CarePlan": (_cui("C2735110"),),
}


def annotations_for(class_name: str) -> list[ConceptCode]:
    """Codes annotated on ``class_name``; empty for unannotated names."""
    return list(CLASS_ANNOTATIONS.get(class_name, ()))


def duplicate_cuis(table: AnnotationTable | None = None) -> dict[str, list[str]]:
    """Map each CUI that annotates several classes to the sorted class names."""
    table = CLASS_ANNOTATIONS if table is None else table
    classes_by_cui: dict[str, list[str]] = {}
    for class_name in sorted(table):
        for code in table[class_name]:
            if code.system is CodeSystem.UMLS_CUI:
                classes_by_cui.setdefault(code.code, []).append(class_name)
    return {cui: names for cui, names in classes_by_cui.items() if len(names) > 1}
