import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pjo import (
    CLASS_ANNOTATIONS,
    CodeSystem,
    ConceptCode,
    annotations_for,
    duplicate_cuis,
    validate_cui,
    validate_fhir_label,
    validate_icd10,
)

class Code(str):
    """A string of another class, which no string field of a record takes."""


UPPER_ALNUM = set(string.ascii_uppercase + string.digits)


def reference_cui(value: str) -> bool:
    return (
        len(value) == 8
        and value[0] == "C"
        and all(c in string.digits for c in value[1:])
    )


def reference_icd10(value: str) -> bool:
    if len(value) < 3:
        return False
    if value[0] not in string.ascii_uppercase:
        return False
    if any(c not in UPPER_ALNUM for c in value[1:3]):
        return False
    if len(value) == 3:
        return True
    if value[3] != ".":
        return False
    tail = value[4:]
    return 1 <= len(tail) <= 4 and all(c in UPPER_ALNUM for c in tail)


class TestCui:
    def test_well_formed(self):
        assert validate_cui("C0030705")
        assert validate_cui("C0000000")
        assert validate_cui("C9999999")

    def test_malformed(self):
        assert not validate_cui("")
        assert not validate_cui("C003070")
        assert not validate_cui("C00307055")
        assert not validate_cui("c0030705")
        assert not validate_cui("C003070a")
        assert not validate_cui("0030705C")
        assert not validate_cui(" C0030705")
        assert not validate_cui("C0030705 ")

    def test_rejects_non_ascii_digits(self):
        assert not validate_cui("C" + "١" * 7)
        assert not validate_cui("C" + "０" * 7)

    @given(st.text(alphabet="C0123456789cX ", max_size=12))
    def test_matches_reference_predicate(self, value):
        assert validate_cui(value) == reference_cui(value)

    @given(st.integers(min_value=0, max_value=9_999_999))
    def test_accepts_every_padded_number(self, number):
        assert validate_cui(f"C{number:07d}")


class TestIcd10:
    def test_well_formed(self):
        for code in ["I10", "A00", "E55.9", "G47.33", "J30.2", "E11.9", "I10.1234", "Z99.A1"]:
            assert validate_icd10(code), code

    def test_malformed(self):
        for code in ["", "110", "I10.XYZW9", "i10", "I1", "I10.", ".I10", "I10.12345", "I-10"]:
            assert not validate_icd10(code), code

    @given(
        st.text(alphabet=string.ascii_uppercase + string.digits + ".ab", max_size=10)
    )
    def test_matches_reference_predicate(self, value):
        assert validate_icd10(value) == reference_icd10(value)

    def test_code_list_narrows_acceptance(self):
        known = {"I10", "E55.9"}
        assert validate_icd10("I10", code_list=known)
        assert validate_icd10("E55.9", code_list=known)
        assert not validate_icd10("G47.33", code_list=known)

    def test_code_list_never_widens_acceptance(self):
        assert not validate_icd10("notacode", code_list={"notacode"})


class TestFhirLabel:
    def test_well_formed(self):
        assert validate_fhir_label("Encounter")
        assert validate_fhir_label("Patient")
        assert validate_fhir_label("a-b_c.d")

    def test_malformed(self):
        assert not validate_fhir_label("")
        assert not validate_fhir_label("two words")
        assert not validate_fhir_label("with\ttab")
        assert not validate_fhir_label("with\nnewline")
        assert not validate_fhir_label(" lead")


class TestConceptCode:
    def test_validity_follows_system(self):
        assert ConceptCode(CodeSystem.UMLS_CUI, "C0030705").is_valid()
        assert not ConceptCode(CodeSystem.UMLS_CUI, "I10").is_valid()
        assert ConceptCode(CodeSystem.ICD10, "I10").is_valid()
        assert not ConceptCode(CodeSystem.ICD10, "C0030705").is_valid()
        assert ConceptCode(CodeSystem.FHIR_LABEL, "Encounter").is_valid()
        assert not ConceptCode(CodeSystem.FHIR_LABEL, "two words").is_valid()

    @pytest.mark.parametrize("system", list(CodeSystem))
    @pytest.mark.parametrize(
        "code", [5, None, b"I10", 3.5, ["I10"], 10**5000, Code("I10"), Code("C0030705")],
        ids=["int", "None", "bytes", "float", "list", "huge", "str-subclass", "str-subclass-cui"],
    )
    def test_a_code_that_is_not_a_string_is_not_valid(self, system, code):
        """Under every system, as the graph checker refuses one: such a code
        once made ``is_valid`` raise ``TypeError`` under a code system whose
        pattern it reached."""
        assert ConceptCode(system, code).is_valid() is False

    def test_hashable_identity(self):
        first = ConceptCode(CodeSystem.UMLS_CUI, "C0030705")
        second = ConceptCode(CodeSystem.UMLS_CUI, "C0030705")
        assert first == second
        assert len({first, second}) == 1


class TestAnnotationTable:
    EXPECTED_CUIS = {
        "Patient": "C0030705",
        "Provider": "C2735026",
        "healthInsurance": "C0021682",
        "MedicalHistory": "C0262926",
        "SocialHistory": "C3714536",
        "Encounter": "C3714536",
        "Symptom": "C3540840",
        "VitalSign": "C0518766",
        "DiagTest": "C0086143",
        "Diagnosis": "C0011900",
        "medicationName": "C5939153",
        "CarePlan": "C2735110",
    }

    def test_exact_contents(self):
        assert set(CLASS_ANNOTATIONS) == set(self.EXPECTED_CUIS)
        for class_name, cui in self.EXPECTED_CUIS.items():
            codes = CLASS_ANNOTATIONS[class_name]
            assert codes[0] == ConceptCode(CodeSystem.UMLS_CUI, cui)

    def test_encounter_carries_fhir_label(self):
        codes = annotations_for("Encounter")
        assert codes == [
            ConceptCode(CodeSystem.UMLS_CUI, "C3714536"),
            ConceptCode(CodeSystem.FHIR_LABEL, "Encounter"),
        ]

    def test_only_encounter_carries_extra_codes(self):
        for class_name, codes in CLASS_ANNOTATIONS.items():
            expected = 2 if class_name == "Encounter" else 1
            assert len(codes) == expected, class_name

    def test_unknown_class_yields_empty(self):
        assert annotations_for("NoSuchClass") == []

    def test_returns_a_copy(self):
        first = annotations_for("Patient")
        first.append(ConceptCode(CodeSystem.UMLS_CUI, "C9999999"))
        assert annotations_for("Patient") == [ConceptCode(CodeSystem.UMLS_CUI, "C0030705")]

    def test_every_code_is_valid(self):
        """The checker does not check the table: it is the shipped constant."""
        for codes in CLASS_ANNOTATIONS.values():
            for code in codes:
                assert code.is_valid(), code

    def test_duplicate_cui_is_the_shared_encounter_social_history_one(self):
        assert duplicate_cuis() == {"C3714536": ["Encounter", "SocialHistory"]}

    def test_duplicate_cuis_on_clean_table(self):
        table = {
            "Patient": (ConceptCode(CodeSystem.UMLS_CUI, "C0030705"),),
            "Provider": (ConceptCode(CodeSystem.UMLS_CUI, "C2735026"),),
        }
        assert duplicate_cuis(table) == {}
