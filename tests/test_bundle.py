import json
import re

from pjo import (
    FORMAT_VERSION,
    MedicalHistory,
    UnknownPatientError,
    john_doe_bundle,
    john_doe_graph,
    parse_bundle,
    serialize_bundle,
    structurally_equal,
)
import pytest


def parse_doc(document):
    return parse_bundle(json.dumps(document))


def minimal_doc():
    return {
        "formatVersion": FORMAT_VERSION,
        "patient": {
            "patientID": "P1",
            "patientName": "Pat One",
            "birthDate": "1980-01-01",
        },
        "providers": [{"providerID": "Provider-1", "providerName": "Dr. One"}],
        "encounters": [],
        "links": [],
    }


def encounter_doc(encounter_id, when, provider="Provider-1", **extra):
    doc = {
        "encounterID": encounter_id,
        "date": when,
        "specialty": "General Medicine",
        "providerRef": provider,
        "symptoms": [],
        "vitals": [],
        "tests": [],
        "diagnoses": [],
        "medications": [],
        "carePlans": [],
    }
    doc.update(extra)
    return doc


def error_index(result):
    return {(d.code, d.location) for d in result.errors}


class TestRoundTrip:
    def test_seed_round_trips_structurally(self, john_text, john_graph):
        result = parse_bundle(john_text)
        assert result.ok, result.problems
        assert structurally_equal(result.graph, john_graph)

    def test_serialization_is_a_fixpoint(self, john_text):
        once = serialize_bundle(parse_bundle(john_text).graph, "JohnDoe")
        twice = serialize_bundle(parse_bundle(once).graph, "JohnDoe")
        assert once == john_text
        assert twice == once

    def test_bytes_input_accepted(self, john_text):
        assert parse_bundle(john_text.encode("utf-8")).ok

    def test_serialize_unknown_patient_raises(self, john_graph):
        with pytest.raises(UnknownPatientError):
            serialize_bundle(john_graph, "Nobody")

    def test_minimal_document_round_trips(self):
        result = parse_doc(minimal_doc())
        assert result.ok
        text = serialize_bundle(result.graph, "P1")
        again = parse_bundle(text)
        assert again.ok
        assert serialize_bundle(again.graph, "P1") == text


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "data",
        ["", "{nope", "{\"a\": }", b"\xff\xfe{}", "nul\x00l"],
    )
    def test_undecodable_input_is_a_syntax_error(self, data):
        result = parse_bundle(data)
        assert not result.ok
        assert result.graph is None
        assert [d.code for d in result.errors] == ["syntax-error"]

    def test_malformed_json_keeps_the_decoder_message(self):
        result = parse_bundle('{"a": }')
        assert [d.message for d in result.errors] == [
            "document is not valid JSON: Expecting value at line 1"
        ]

    def test_nesting_past_the_recursion_limit_is_a_syntax_error(self):
        result = parse_bundle("[" * 200_000)
        assert result.graph is None
        assert [(d.code, d.location) for d in result.errors] == [("syntax-error", "")]
        assert "nested too deeply" in result.errors[0].message

    def test_integer_past_the_digit_limit_is_a_syntax_error(self):
        document = minimal_doc()
        document["providers"][0]["yearsOfExperience"] = 0
        text = json.dumps(document).replace(": 0}", ": " + "9" * 5000 + "}")
        result = parse_bundle(text)
        assert result.graph is None
        assert [(d.code, d.location) for d in result.errors] == [("syntax-error", "")]
        assert "digits" in result.errors[0].message

    @pytest.mark.parametrize("data", ["[]", "\"text\"", "3", "null", "true"])
    def test_non_object_top_level(self, data):
        result = parse_bundle(data)
        assert not result.ok
        assert [d.code for d in result.errors] == ["invalid-type"]


class TestTopLevel:
    def test_missing_format_version(self):
        doc = minimal_doc()
        del doc["formatVersion"]
        assert ("missing-field", "formatVersion") in error_index(parse_doc(doc))

    def test_unsupported_format_version(self):
        doc = minimal_doc()
        doc["formatVersion"] = "pjo-2"
        assert ("unsupported-format-version", "formatVersion") in error_index(parse_doc(doc))

    def test_missing_patient(self):
        doc = minimal_doc()
        del doc["patient"]
        assert ("missing-field", "patient") in error_index(parse_doc(doc))

    def test_unknown_top_level_field_warned_and_dropped(self):
        doc = minimal_doc()
        doc["extra"] = {"anything": 1}
        result = parse_doc(doc)
        assert result.ok
        assert [(d.code, d.location) for d in result.warnings] == [("unknown-field", "extra")]
        assert "extra" not in json.loads(serialize_bundle(result.graph, "P1"))

    def test_unknown_nested_field_path(self):
        doc = minimal_doc()
        doc["patient"]["nickname"] = "Pat"
        result = parse_doc(doc)
        assert result.ok
        assert [(d.code, d.location) for d in result.warnings] == [
            ("unknown-field", "patient.nickname")
        ]


class TestNullAbsenceEquivalence:
    def test_null_optional_equals_absent(self):
        explicit = minimal_doc()
        explicit["patient"]["race"] = None
        implicit = minimal_doc()
        left = parse_doc(explicit)
        right = parse_doc(implicit)
        assert left.ok and right.ok
        assert serialize_bundle(left.graph, "P1") == serialize_bundle(right.graph, "P1")

    def test_all_null_contact_information_is_omitted(self):
        doc = minimal_doc()
        doc["patient"]["contactInformation"] = {"address": None, "email": None}
        result = parse_doc(doc)
        assert result.ok
        rendered = json.loads(serialize_bundle(result.graph, "P1"))
        assert "contactInformation" not in rendered["patient"]

    def test_null_list_field_equals_absent(self):
        doc = minimal_doc()
        doc["links"] = None
        result = parse_doc(doc)
        assert result.ok
        assert json.loads(serialize_bundle(result.graph, "P1"))["links"] == []


class TestFieldDiagnostics:
    def test_empty_patient_id(self):
        doc = minimal_doc()
        doc["patient"]["patientID"] = ""
        assert ("field-invalid", "patient.patientID") in error_index(parse_doc(doc))

    def test_non_string_name(self):
        doc = minimal_doc()
        doc["patient"]["patientName"] = 7
        assert ("invalid-type", "patient.patientName") in error_index(parse_doc(doc))

    @pytest.mark.parametrize("raw", ["2021-13-40", "2021-1-5", "yesterday", "20210105"])
    def test_bad_date_value(self, raw):
        doc = minimal_doc()
        doc["patient"]["birthDate"] = raw
        assert ("invalid-value", "patient.birthDate") in error_index(parse_doc(doc))

    def test_non_string_date(self):
        doc = minimal_doc()
        doc["patient"]["birthDate"] = 20210105
        assert ("invalid-type", "patient.birthDate") in error_index(parse_doc(doc))

    def test_bool_is_not_an_integer(self):
        doc = minimal_doc()
        doc["providers"][0]["yearsOfExperience"] = True
        assert ("invalid-type", "providers[0].yearsOfExperience") in error_index(parse_doc(doc))

    def test_negative_experience(self):
        doc = minimal_doc()
        doc["providers"][0]["yearsOfExperience"] = -3
        assert ("field-invalid", "providers[0].yearsOfExperience") in error_index(parse_doc(doc))

    def test_bool_is_not_a_number(self):
        doc = minimal_doc()
        doc["encounters"] = [
            encounter_doc("E1", "2021-01-05", vitals=[{"bodyTemperature": True}])
        ]
        assert ("invalid-type", "encounters[0].vitals[0].bodyTemperature") in error_index(
            parse_doc(doc)
        )

    def test_implausible_vital_sign(self):
        doc = minimal_doc()
        doc["encounters"] = [
            encounter_doc("E1", "2021-01-05", vitals=[{"bloodPressure": "80/120"}])
        ]
        assert ("field-invalid", "encounters[0].vitals[0].bloodPressure") in error_index(
            parse_doc(doc)
        )

    def test_bad_icd10_with_exact_path(self):
        doc = minimal_doc()
        doc["encounters"] = [
            encounter_doc(
                "E1",
                "2021-01-05",
                diagnoses=[{"diagnosisName": "Hypertension", "icd10": "notacode"}],
            )
        ]
        result = parse_doc(doc)
        assert ("bad-icd10", "encounters[0].diagnoses[0].icd10") in error_index(result)
        assert any("notacode" in d.message for d in result.errors)

    def test_missing_social_history(self):
        doc = minimal_doc()
        doc["intakeForm"] = {
            "intakeFormID": "IF1",
            "medicalHistory": {
                "hadSurgery": [],
                "chronicIllness": [],
                "medicationAllergies": [],
                "familyMedicalHistory": [],
            },
        }
        assert ("missing-field", "intakeForm.socialHistory") in error_index(parse_doc(doc))

    def test_encounter_before_birth(self):
        doc = minimal_doc()
        doc["encounters"] = [encounter_doc("E1", "1979-12-31")]
        assert ("field-invalid", "encounters[0].date") in error_index(parse_doc(doc))


class TestReferenceDiagnostics:
    def test_duplicate_provider_id(self):
        doc = minimal_doc()
        doc["providers"].append({"providerID": "Provider-1", "providerName": "Dr. Two"})
        assert ("duplicate-id", "providers[1].providerID") in error_index(parse_doc(doc))

    def test_duplicate_encounter_id(self):
        doc = minimal_doc()
        doc["encounters"] = [
            encounter_doc("E1", "2021-01-05"),
            encounter_doc("E1", "2021-02-05"),
        ]
        assert ("duplicate-id", "encounters[1].encounterID") in error_index(parse_doc(doc))

    def test_unknown_provider_ref(self):
        doc = minimal_doc()
        doc["encounters"] = [encounter_doc("E1", "2021-01-05", provider="Provider-9")]
        assert ("unknown-provider", "encounters[0].providerRef") in error_index(parse_doc(doc))

    def test_dangling_link_names_the_offending_id(self):
        doc = minimal_doc()
        doc["encounters"] = [encounter_doc("E1", "2021-01-05")]
        doc["links"] = [{"kind": "next", "from": "Encounter-Ghost", "to": "E1"}]
        result = parse_doc(doc)
        assert ("reference-error", "links[0].from") in error_index(result)
        assert any("Encounter-Ghost" in d.message for d in result.errors)
        assert result.graph is None

    def test_self_link(self):
        doc = minimal_doc()
        doc["encounters"] = [encounter_doc("E1", "2021-01-05")]
        doc["links"] = [{"kind": "next", "from": "E1", "to": "E1"}]
        assert ("self-link", "links[0]") in error_index(parse_doc(doc))

    def test_backdated_followup(self):
        doc = minimal_doc()
        doc["encounters"] = [
            encounter_doc("E1", "2021-01-05"),
            encounter_doc("E2", "2021-02-05"),
        ]
        doc["links"] = [{"kind": "hasFollowup", "from": "E2", "to": "E1"}]
        assert ("temporal-violation", "links[0]") in error_index(parse_doc(doc))

    def test_duplicate_link(self):
        doc = minimal_doc()
        doc["encounters"] = [
            encounter_doc("E1", "2021-01-05"),
            encounter_doc("E2", "2021-02-05"),
        ]
        doc["links"] = [
            {"kind": "next", "from": "E1", "to": "E2"},
            {"kind": "next", "from": "E1", "to": "E2"},
        ]
        assert ("duplicate-edge", "links[1]") in error_index(parse_doc(doc))

    def test_cycle(self):
        doc = minimal_doc()
        doc["encounters"] = [
            encounter_doc("E1", "2021-01-05"),
            encounter_doc("E2", "2021-01-05"),
        ]
        doc["links"] = [
            {"kind": "next", "from": "E1", "to": "E2"},
            {"kind": "next", "from": "E2", "to": "E1"},
        ]
        assert ("cycle", "links") in error_index(parse_doc(doc))

    def test_unknown_link_kind(self):
        doc = minimal_doc()
        doc["encounters"] = [
            encounter_doc("E1", "2021-01-05"),
            encounter_doc("E2", "2021-02-05"),
        ]
        doc["links"] = [{"kind": "follows", "from": "E1", "to": "E2"}]
        assert ("invalid-value", "links[0].kind") in error_index(parse_doc(doc))


class TestProblemCollection:
    def test_independent_errors_all_reported(self):
        doc = minimal_doc()
        doc["formatVersion"] = "pjo-0"
        doc["patient"]["patientID"] = ""
        doc["providers"][0]["yearsOfExperience"] = -1
        codes = {d.code for d in parse_doc(doc).errors}
        assert {"unsupported-format-version", "field-invalid"} <= codes

    def test_no_graph_on_any_error(self):
        doc = minimal_doc()
        doc["patient"]["patientID"] = ""
        result = parse_doc(doc)
        assert result.graph is None and not result.ok

    def test_warnings_do_not_block_the_graph(self):
        doc = minimal_doc()
        doc["noise"] = 1
        result = parse_doc(doc)
        assert result.ok and result.graph is not None
        assert len(result.warnings) == 1 and result.errors == []

    def test_seed_document_parses_without_problems(self):
        result = parse_bundle(john_doe_bundle())
        assert result.problems == []

    def test_seed_graph_checker_agrees(self):
        result = parse_bundle(john_doe_bundle())
        assert result.graph.check_invariants().errors == []
        assert structurally_equal(result.graph, john_doe_graph())


def seed_doc():
    return json.loads(john_doe_bundle())


class TestOptionalFieldsAfterAFailedRequiredField:
    """A failed required field must not hide the type errors of its siblings."""

    @pytest.mark.parametrize(
        "record, required, optional",
        [
            ("patient", "patientID", "race"),
            ("patient", "patientName", "insuranceID"),
            ("providers[0]", "providerID", "specialization"),
            ("providers[0]", "providerName", "affiliatedInstitution"),
            ("intakeForm.socialHistory", "smokingHabit", "diet"),
            ("intakeForm.socialHistory", "drinkingHabit", "annualIncome"),
            ("encounters[0].tests[0]", "testName", "normalRange"),
            ("encounters[0].medications[0]", "medicationName", "dosage"),
            ("encounters[0].medications[0]", "medicationName", "frequency"),
            ("encounters[0].carePlans[0]", "planID", "description"),
            ("encounters[0].carePlans[0]", "planID", "referralSpecialty"),
            ("links[0]", "kind", "via"),
            ("links[0]", "from", "via"),
        ],
    )
    def test_both_problems_are_reported(self, record, required, optional):
        doc = seed_doc()
        target = doc
        for step in re.findall(r"[^.\[\]]+", record):
            target = target[int(step) if step.isdigit() else step]
        del target[required]
        target[optional] = 5
        found = error_index(parse_doc(doc))
        assert ("missing-field", f"{record}.{required}") in found
        assert ("invalid-type", f"{record}.{optional}") in found


MEDICAL_HISTORY_KEYS = [
    "hadSurgery",
    "chronicIllness",
    "medicationAllergies",
    "familyMedicalHistory",
]


class TestIntakeFormWithoutMedicalHistory:
    def intake_doc(self, **changes):
        doc = minimal_doc()
        doc["intakeForm"] = {
            "intakeFormID": "IF1",
            "socialHistory": {"smokingHabit": "Never", "drinkingHabit": "None"},
            **changes,
        }
        return doc

    @pytest.mark.parametrize("history", ["absent", None])
    def test_parses_ok_with_an_empty_history(self, history):
        doc = self.intake_doc() if history == "absent" else self.intake_doc(medicalHistory=None)
        result = parse_doc(doc)
        assert result.ok, result.problems
        assert result.graph.intake_forms["IF1"].medical_history == MedicalHistory()

    def test_reserializes_with_four_empty_arrays(self):
        result = parse_doc(self.intake_doc())
        rendered = json.loads(serialize_bundle(result.graph, "P1"))
        assert rendered["intakeForm"]["medicalHistory"] == {key: [] for key in MEDICAL_HISTORY_KEYS}

    @pytest.mark.parametrize("value", [5, "text", ["a"], True])
    def test_non_object_medical_history_is_a_type_error(self, value):
        result = parse_doc(self.intake_doc(medicalHistory=value))
        assert result.graph is None
        assert error_index(result) == {("invalid-type", "intakeForm.medicalHistory")}

    @pytest.mark.parametrize("value", [5, "text", ["a"], True])
    def test_non_object_contact_information_is_a_type_error(self, value):
        doc = minimal_doc()
        doc["patient"]["contactInformation"] = value
        result = parse_doc(doc)
        assert result.graph is None
        assert error_index(result) == {("invalid-type", "patient.contactInformation")}


class TestDocumentedBoundaries:
    """The limits stated in docs/bundle_format.md, at and next to each edge."""

    def vitals_result(self, **vital):
        doc = minimal_doc()
        doc["encounters"] = [encounter_doc("E1", "2021-01-05", vitals=[vital])]
        return parse_doc(doc)

    @pytest.mark.parametrize(
        "key, accepted, rejected",
        [
            ("bodyTemperature", [25.0, 45.0, 36.6], [24.9, 45.1]),
            ("weight", [0.1, 499.9], [0, 500, 500.1, -1]),
            ("heartRate", [0.1, 299.9], [0, 300, 300.1]),
        ],
    )
    def test_vital_sign_ranges(self, key, accepted, rejected):
        for value in accepted:
            assert self.vitals_result(**{key: value}).ok, (key, value)
        for value in rejected:
            result = self.vitals_result(**{key: value})
            assert error_index(result) == {("field-invalid", f"encounters[0].vitals[0].{key}")}

    @pytest.mark.parametrize("pressure, ok", [("120/80", True), ("80/80", False), ("80/0", False)])
    def test_blood_pressure_order(self, pressure, ok):
        assert self.vitals_result(bloodPressure=pressure).ok is ok

    @pytest.mark.parametrize("years, ok", [(0, True), (40, True), (-1, False)])
    def test_years_of_experience_at_least_zero(self, years, ok):
        doc = minimal_doc()
        doc["providers"][0]["yearsOfExperience"] = years
        assert parse_doc(doc).ok is ok


class TestLoneSurrogates:
    """A string holding a lone surrogate could not be written back as UTF-8."""

    @pytest.mark.parametrize(
        "path",
        [
            "patient.patientName",
            "patient.contactInformation.email",
            "providers[0].providerID",
            "intakeForm.socialHistory.diet",
            "encounters[1].specialty",
            "encounters[0].symptoms[0].severity",
            "links[0].via",
        ],
    )
    def test_a_string_field_is_an_invalid_value(self, path):
        doc = seed_doc()
        steps = [int(step) if step.isdigit() else step for step in re.findall(r"[^.\[\]]+", path)]
        target = doc
        for step in steps[:-1]:
            target = target[step]
        target[steps[-1]] = "caf\u00e9 \ud800"
        result = parse_doc(doc)
        assert not result.ok
        assert [(d.code, d.location) for d in result.errors] == [("invalid-value", path)]

    def test_a_string_array_entry_is_an_invalid_value(self):
        doc = seed_doc()
        doc["intakeForm"]["medicalHistory"]["hadSurgery"] = ["Appendectomy", "\udfff"]
        assert error_index(parse_doc(doc)) == {
            ("invalid-value", "intakeForm.medicalHistory.hadSurgery[1]")
        }

    def test_other_non_ascii_text_round_trips(self):
        doc = seed_doc()
        doc["patient"]["patientName"] = "Jos\u00e9 \U0001f600"
        result = parse_doc(doc)
        assert result.ok
        text = serialize_bundle(result.graph, "JohnDoe")
        assert parse_bundle(text.encode("utf-8")).ok

    def test_an_unknown_key_is_shown_escaped(self):
        doc = seed_doc()
        doc["patient"]["\ud800"] = 1
        result = parse_doc(doc)
        assert result.ok
        [warning] = result.warnings
        assert warning.location == "patient.\\ud800"
        serialize_bundle(result.graph, "JohnDoe").encode("utf-8")


class TestDiagnosticOrder:
    """Diagnostics follow document order, and canonical key order within a record."""

    def test_entries_are_reported_in_document_order(self):
        doc = minimal_doc()
        doc["encounters"] = [encounter_doc("E1", "2021-01-05", specialty=""), 5]
        assert [(d.code, d.location) for d in parse_doc(doc).errors] == [
            ("field-invalid", "encounters[0].specialty"),
            ("invalid-type", "encounters[1]"),
        ]

    def test_fields_are_reported_in_canonical_key_order(self):
        doc = minimal_doc()
        doc["patient"] = {
            "insuranceID": 1,
            "contactInformation": {"email": 2},
            "race": 3,
            "birthDate": "someday",
        }
        assert [d.location for d in parse_doc(doc).errors] == [
            "patient.patientID",
            "patient.patientName",
            "patient.birthDate",
            "patient.race",
            "patient.contactInformation.email",
            "patient.insuranceID",
        ]

    def test_unknown_fields_are_warned_before_field_errors(self):
        doc = minimal_doc()
        doc["patient"]["patientName"] = ""
        doc["patient"]["nickname"] = "Pat"
        assert [(d.code, d.location) for d in parse_doc(doc).problems] == [
            ("unknown-field", "patient.nickname"),
            ("field-invalid", "patient.patientName"),
        ]

    def test_join_diagnostics_follow_document_order(self):
        doc = seed_doc()
        e0, e1, e2, e3 = (e["encounterID"] for e in doc["encounters"])
        doc["providers"].append(dict(doc["providers"][1]))
        doc["encounters"][0].update(providerRef="Provider-Ghost", date="1980-01-01")
        doc["encounters"][2].update(providerRef="Provider-Ghost", date="2021-03-15")
        doc["encounters"].insert(2, dict(doc["encounters"][1]))
        doc["links"][0]["from"] = "Encounter-Ghost"
        doc["links"][1] = {"kind": "hasFollowup", "from": e3, "to": e2}
        doc["links"] += [
            {"kind": "next", "from": e2, "to": e1},
            {"kind": "next", "from": e2, "to": e1},
            {"kind": "next", "from": e3, "to": e3},
        ]
        ghost = "providerRef 'Provider-Ghost' does not resolve"
        assert [(d.code, d.location, d.message) for d in parse_doc(doc).problems] == [
            (
                "duplicate-id",
                "providers[3].providerID",
                "provider ID 'Provider-GeneralMedicine' already used",
            ),
            ("unknown-provider", "encounters[0].providerRef", ghost),
            (
                "field-invalid",
                "encounters[0].date",
                "encounter date 1980-01-01 precedes birth date 1981-07-14",
            ),
            ("duplicate-id", "encounters[2].encounterID", f"encounter ID {e1!r} already used"),
            ("unknown-provider", "encounters[3].providerRef", ghost),
            (
                "reference-error",
                "links[0].from",
                "link.from names missing encounter 'Encounter-Ghost'",
            ),
            (
                "temporal-violation",
                "links[1]",
                f"hasFollowup link {e3!r} -> {e2!r} contradicts encounter dates "
                "2022-04-18 and 2021-03-15",
            ),
            ("duplicate-edge", "links[4]", f"duplicate next link {e2!r} -> {e1!r}"),
            ("self-link", "links[5]", f"link connects {e3!r} to itself"),
            ("cycle", "links", f"journey links form a cycle through: {e2}, {e1}"),
        ]
