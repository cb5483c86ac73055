"""What every record and result class promises, whichever way it is built.

Each of the 15 record types of ``records.FIELDS`` and the 14 other value
classes (``Field``, diagnostics and reports, the parse result, the graph,
concept codes, query and agreement results) is checked for: positional
and keyword construction in declaration order, each setting every slot,
required arguments, fresh mutable defaults, equality by type and values,
``repr``, no ``__dict__``, frozen classes refusing assignment and deletion
of every attribute and hashing by value, mutable ones unhashable, and
``pickle``, ``copy.copy`` and ``copy.deepcopy`` round trips.
"""

import copy
import inspect
import pickle
from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pjo.agreement import DimensionSummary, KappaResult, LikertSummary, RatingMatrix
from pjo.bundle import ParseResult
from pjo.codes import CodeSystem, ConceptCode
from pjo.graph import Diagnostic, JourneyGraph, Severity, ValidationReport
from pjo.queries import LinkRef, SymptomDiagnosisLink, SymptomOccurrence, TimelineEntry
from pjo.records import (
    DATE,
    FIELDS,
    ICD10,
    INT,
    KIND,
    NUMBER,
    OBJECT,
    OBJECTS,
    STR,
    STRS,
    VERSION,
    CarePlan,
    DiagTest,
    EdgeKind,
    Field,
    JourneyEdge,
    Medication,
    Patient,
    Provider,
    Symptom,
    check_weight,
    shown,
)

# Optional strings that read as "" rather than None when left out.
EMPTY_STRING_DEFAULTS = {
    (Symptom, "severity"),
    (DiagTest, "results"),
    (Medication, "dosage"),
    (Medication, "frequency"),
    (CarePlan, "description"),
}

FROZEN = {
    Field,
    Diagnostic,
    ConceptCode,
    JourneyEdge,
    LinkRef,
    TimelineEntry,
    SymptomOccurrence,
    SymptomDiagnosisLink,
    RatingMatrix,
    KappaResult,
    DimensionSummary,
    LikertSummary,
}


def _diagnostic(variant):
    return Diagnostic(
        [Severity.ERROR, Severity.WARNING][variant], f"code{variant}", f"m{variant}", f"l{variant}"
    )


def _graph(variant):
    graph = JourneyGraph()
    if variant:
        graph.patients["P"] = Patient("P", "Name", date(1970, 1, 1))
    return graph


# Two values per attribute of the non-record classes, differing in every
# attribute; attributes a class does not have are ignored.
OTHER_VALUES = {
    Field: {
        "key": ("k0", "k1"),
        "attr": ("a0", "a1"),
        "type": (STR, INT),
        "required": (True, False),
        "record": (Symptom, None),
        "check": (check_weight, None),
        "default": ("", None),
    },
    Diagnostic: {
        "severity": (Severity.ERROR, Severity.WARNING),
        "code": ("c0", "c1"),
        "message": ("m0", "m1"),
        "location": ("l0", "l1"),
    },
    ValidationReport: {"diagnostics": ([_diagnostic(0)], [])},
    ParseResult: {
        "graph": (None, _graph(1)),
        "problems": ([], [_diagnostic(1)]),
        "report": (None, ValidationReport([_diagnostic(0)])),
    },
    JourneyGraph: {
        "patients": ({}, _graph(1).patients),
        "providers": ({}, {"D": None}),
        "intake_forms": ({}, {"F": None}),
        "encounters": ({}, {"E": None}),
        "encounter_owner": ({}, {"E": "P"}),
        "intake_form_owner": ({}, {"F": "P"}),
        "edges": ([], [JourneyEdge(EdgeKind.NEXT, "E", "E2")]),
    },
    ConceptCode: {
        "system": (CodeSystem.ICD10, CodeSystem.UMLS_CUI),
        "code": ("I10", "C0000001"),
    },
    LinkRef: {"kind": (EdgeKind.NEXT, EdgeKind.CAUSED_BY), "encounter_id": ("E0", "E1")},
    TimelineEntry: {
        "encounter_id": ("E0", "E1"),
        "date": (date(2020, 1, 1), date(2021, 1, 1)),
        "specialty": ("s0", "s1"),
        "inbound_links": ((), (LinkRef(EdgeKind.NEXT, "E0"),)),
        "outbound_links": ((LinkRef(EdgeKind.NEXT, "E1"),), ()),
        "headline_diagnoses": (("d0",), ()),
    },
    SymptomOccurrence: {
        "encounter_id": ("E0", "E1"),
        "date": (date(2020, 1, 1), date(2021, 1, 1)),
        "symptom_name": ("s0", "s1"),
        "severity": ("mild", ""),
    },
    SymptomDiagnosisLink: {
        "symptom_name": ("s0", "s1"),
        "diagnosis_name": ("d0", "d1"),
        "encounter_id": ("E0", "E1"),
    },
    RatingMatrix: {"counts": (((1, 1), (2, 0)), ((0, 3),)), "raters_per_subject": (2, 3)},
    KappaResult: {
        "kappa": (0.5, 0.25),
        "standard_error": (0.1, 0.2),
        "ci95": ((0.3, 0.7), (0.0, 0.5)),
        "observed_agreement": (0.8, 0.6),
        "expected_agreement": (0.6, 0.4),
    },
    DimensionSummary: {
        "dimension": ("clarity", "accuracy"),
        "n_responses": (4, 2),
        "mean": (4.5, 3.0),
        "sd": (0.5, 1.0),
        "agree_fraction": (1.0, 0.5),
    },
    LikertSummary: {
        "dimensions": ((), (DimensionSummary("d", 1, 4.0, 0.0, 1.0),)),
        "overall_mean": (4.5, 3.0),
        "overall_sd": (0.5, 1.0),
    },
}

CLASSES = list(FIELDS) + list(OTHER_VALUES)


def field_value(spec, variant):
    """A value of ``spec``'s type, different for variants 0 and 1."""
    if spec.type in (OBJECT, OBJECTS):
        record = spec.record(**values(spec.record, variant))
        return record if spec.type == OBJECT else [record]
    return {
        STR: f"s{variant}",
        INT: variant + 1,
        NUMBER: 36.5 + variant,
        DATE: date(2020, 1, 1 + variant),
        ICD10: ConceptCode(CodeSystem.ICD10, ["I10", "E55.9"][variant]),
        KIND: [EdgeKind.NEXT, EdgeKind.CAUSED_BY][variant],
        VERSION: ["pjo-1", "pjo-2"][variant],
        STRS: [f"x{variant}"],
    }[spec.type]


def parameters(cls):
    return list(inspect.signature(cls).parameters.values())


def values(cls, variant):
    """Keyword arguments for every attribute of ``cls``, in declaration order."""
    if cls in FIELDS:
        return {spec.attr: field_value(spec, variant) for spec in FIELDS[cls]}
    return {p.name: OTHER_VALUES[cls][p.name][variant] for p in parameters(cls)}


def required(cls):
    return [p.name for p in parameters(cls) if p.default is inspect.Parameter.empty]


# The attributes of the non-record classes that have defaults.
OPTIONAL = {
    Field: {"type", "required", "record", "check", "default"},
    ValidationReport: {"diagnostics"},
    ParseResult: {"problems", "report"},
    JourneyGraph: set(OTHER_VALUES[JourneyGraph]),
}


@pytest.fixture(params=CLASSES, ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_the_signature_is_the_declaration(cls):
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in parameters(cls))
    if cls in FIELDS:
        assert [p.name for p in parameters(cls)] == [spec.attr for spec in FIELDS[cls]]


def test_positional_and_keyword_construction_agree(cls):
    kwargs = values(cls, 0)
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert by_position == by_keyword
    for name, value in kwargs.items():
        assert getattr(by_keyword, name) == value == getattr(by_position, name)


def test_required_arguments(cls):
    """A record's required fields have no default, nor has any field before
    one (``IntakeForm.medical_history``), as a positional signature needs."""
    if cls in FIELDS:
        last = max((i for i, spec in enumerate(FIELDS[cls]) if spec.required), default=-1)
        assert required(cls) == [spec.attr for spec in FIELDS[cls][: last + 1]]
    else:
        assert required(cls) == [p.name for p in parameters(cls) if p.name not in OPTIONAL.get(cls, ())]


def test_each_missing_required_argument_is_a_type_error(cls):
    for name in required(cls):
        kwargs = values(cls, 0)
        del kwargs[name]
        with pytest.raises(TypeError):
            cls(**kwargs)


def test_defaults_are_fresh(cls):
    kwargs = {name: values(cls, 0)[name] for name in required(cls)}
    first, second = cls(**kwargs), cls(**kwargs)
    for p in parameters(cls):
        if p.name in kwargs:
            continue
        value = getattr(first, p.name)
        if isinstance(value, (list, dict)) or type(value) in FIELDS:
            assert value is not getattr(second, p.name), p.name


def test_record_defaults_follow_the_table():
    """A left-out object is its empty record, unless that record has a
    required field (``Bundle.intake_form``): then it is None."""
    for cls, fields in FIELDS.items():
        instance = cls(**{name: values(cls, 0)[name] for name in required(cls)})
        for spec in fields:
            if spec.attr in required(cls):
                continue
            value = getattr(instance, spec.attr)
            if spec.type in (STRS, OBJECTS):
                assert value == [], spec.attr
            elif spec.type == OBJECT and any(field.required for field in FIELDS[spec.record]):
                assert value is None, spec.attr
            elif spec.type == OBJECT:
                assert value == spec.record(), spec.attr
            elif (cls, spec.attr) in EMPTY_STRING_DEFAULTS:
                assert value == "", spec.attr
            else:
                assert value is None, spec.attr


def test_equality_is_by_type_and_every_value(cls):
    base = values(cls, 0)
    assert cls(**base) == cls(**values(cls, 0))
    assert cls(**base) != tuple(base.values())
    for name, other in values(cls, 1).items():
        assert cls(**base) != cls(**{**base, name: other}), name


def test_repr_names_every_value(cls):
    instance = cls(**values(cls, 0))
    shown = ", ".join(f"{p.name}={getattr(instance, p.name)!r}" for p in parameters(cls))
    assert repr(instance) == f"{cls.__qualname__}({shown})"


def test_repr_shows_an_integer_of_more_than_4300_digits():
    """``repr`` of such an integer, or of a list holding one, raises
    ``ValueError``; once so did ``repr`` of a record holding it."""
    huge = 10**5000
    provider = Provider("D", "Dr", years_of_experience=huge, affiliated_institution=[-huge])
    assert repr(provider) == (
        "Provider(provider_id='D', provider_name='Dr', specialization=None, "
        "affiliated_institution=<list>, years_of_experience=<int of 16610 bits: 0x...00000000>)"
    )


# Every class but the graph, which holds only tables and lists: a list
# holding such an integer is shown as above.
@pytest.mark.parametrize(
    "holder", [cls for cls in CLASSES if cls is not JourneyGraph], ids=lambda cls: cls.__name__
)
def test_repr_shows_an_integer_of_more_than_4300_digits_in_any_attribute(holder):
    """Each attribute in turn holds such an integer: ``repr`` shows it by its
    size, and every other value as before."""
    base = values(holder, 0)
    for name in base:
        instance = holder(**{**base, name: 10**5000})
        shown_values = ", ".join(
            f"{p.name}=<int of 16610 bits: 0x...00000000>" if p.name == name
            else f"{p.name}={getattr(instance, p.name)!r}"
            for p in parameters(holder)
        )  # fmt: skip
        assert repr(instance) == f"{holder.__qualname__}({shown_values})", name


@given(st.one_of(st.integers(), st.floats(), st.text(), st.binary(), st.none(), st.dates(),
                 st.lists(st.integers()), st.tuples(st.text(), st.integers())))  # fmt: skip
def test_a_value_that_shows_keeps_its_text(value):
    assert shown(value) == repr(value)
    assert shown(value, format) == f"{value}"


def test_integers_too_long_for_repr_show_their_sign_and_low_digits():
    """Such integers of one size were once all shown by their size alone."""
    huge = 10**5000
    assert [shown(value) for value in (huge, -huge, huge + 1, -huge - 2**36 - 10)] == [
        "<int of 16610 bits: 0x...00000000>",
        "<int of 16610 bits: -0x...00000000>",
        "<int of 16610 bits: 0x...00000001>",
        "<int of 16610 bits: -0x...0000000a>",
    ]


def test_instances_have_no_dict(cls):
    assert not hasattr(cls(**values(cls, 0)), "__dict__")


def test_frozen_classes_refuse_assignment_and_hash_by_value(cls):
    kwargs = values(cls, 0)
    instance = cls(**kwargs)
    name = parameters(cls)[0].name
    if cls in FROZEN:
        for attr, value in kwargs.items():
            message = f"^{cls.__name__} is frozen: cannot change {attr!r}$"
            with pytest.raises(AttributeError, match=message):
                setattr(instance, attr, values(cls, 1)[attr])
            with pytest.raises(AttributeError, match=message):
                delattr(instance, attr)
            assert getattr(instance, attr) is value
        assert hash(instance) == hash(cls(**values(cls, 0)))
    else:
        setattr(instance, name, values(cls, 1)[name])
        assert getattr(instance, name) == values(cls, 1)[name]
        with pytest.raises(TypeError):
            hash(instance)


def test_equal_journey_edges_hash_equal():
    edges = {JourneyEdge(EdgeKind.NEXT, "A", "B"), JourneyEdge(EdgeKind.NEXT, "A", "B", None)}
    assert len(edges) == 1


@pytest.mark.parametrize(
    "round_trip", [pickle.loads, copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_round_trip(cls, round_trip):
    """Each rebuilds the instance through ``__init__``; a frozen copy hashes
    as the original does."""
    for variant in (0, 1):
        instance = cls(**values(cls, variant))
        copied = round_trip(pickle.dumps(instance) if round_trip is pickle.loads else instance)
        assert type(copied) is cls
        assert copied == instance
        assert copied is not instance
        if cls in FROZEN:
            assert hash(copied) == hash(instance)
