"""The reporters of the scalar values of a refused document or a failed record: code pjo generates.

Do not edit: ``scripts/generate_code.py`` writes it and must be run again after
any change to ``records.FIELDS``, ``graph.RULES`` or a generator in ``pjo._codegen``."""

from datetime import date
from ..codes import ConceptCode, validate_icd10
from ..graph import FORMAT_VERSION, _DATE_SHAPE, _ICD10, _INT_BOUND, _LINK_KINDS, _SURROGATE, _calendar_day
from ..records import EdgeKind, check_blood_pressure, check_body_temperature, check_heart_rate, check_weight, check_years_of_experience, shown


def report_string(v, name):
    if not (v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'


def report_string_required(v, name):
    if not (v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v): return 'field-invalid', f'{name} must be nonempty'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'


def report_date_required(v, name):
    if not (v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v): return 'field-invalid', f'{name} must be nonempty'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'
    if not (_DATE_SHAPE(v)): return 'invalid-value', f'{v!r} is not an ISO-8601 date (YYYY-MM-DD)'
    kept = _calendar_day(v)
    if not (kept): return 'invalid-value', f'{v!r} is not a calendar date'
    v = kept


def report_int_check_years_of_experience(v, name):
    if not (v.__class__ is int): return 'invalid-type', f'{name} must be an integer'
    if not (check_years_of_experience(v) is None): return 'field-invalid', f'{check_years_of_experience(v)}'


def report_string_array(v, name):
    if not (v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v): return 'field-invalid', f'{name} must be nonempty'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'


def report_number_check_body_temperature(v, name):
    if not (v.__class__ is float or v.__class__ is int): return 'invalid-type', f'{name} must be a number'
    if not (check_body_temperature(v) is None): return 'field-invalid', f'{check_body_temperature(v)}'


def report_string_check_blood_pressure(v, name):
    if not (v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'
    if not (check_blood_pressure(v) is None): return 'field-invalid', f'{check_blood_pressure(v)}'


def report_number_check_weight(v, name):
    if not (v.__class__ is float or v.__class__ is int): return 'invalid-type', f'{name} must be a number'
    if not (check_weight(v) is None): return 'field-invalid', f'{check_weight(v)}'


def report_number_check_heart_rate(v, name):
    if not (v.__class__ is float or v.__class__ is int): return 'invalid-type', f'{name} must be a number'
    if not (check_heart_rate(v) is None): return 'field-invalid', f'{check_heart_rate(v)}'


def report_icd10(v, name):
    if not (v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'
    kept = ConceptCode(_ICD10, v)
    v = kept
    if not (validate_icd10(v.code)): return 'bad-icd10', f'{v.code!r} is not a valid ICD10 code'


def report_kind_required(v, name):
    if not (v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v): return 'field-invalid', f'{name} must be nonempty'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'
    kept = _LINK_KINDS.get(v)
    if not (kept): return 'invalid-value', f'link kind must be one of {sorted(_LINK_KINDS)}, got {v!r}'
    v = kept


def report_version_required(v, name):
    if not (v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v): return 'field-invalid', f'{name} must be nonempty'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'
    if not (v == FORMAT_VERSION): return 'unsupported-format-version', f'unsupported format version {v!r}, expected {FORMAT_VERSION!r}'


def report_memory_string(v, name):
    if not (v is None or v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'


def report_memory_string_required(v, name):
    if not (v is None or v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v): return 'field-invalid', f'{name} must be nonempty'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'


def report_memory_date_required(v, name):
    if not (v is None or v.__class__ is date): return 'invalid-type', f'{name} must be a date'
    if not (v): return 'field-invalid', f'{name} must be nonempty'


def report_memory_int_check_years_of_experience(v, name):
    if not (v is None or v.__class__ is int): return 'invalid-type', f'{name} must be an integer'
    if not (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND): return 'invalid-value', f'{name} must have at most 4300 digits'
    if not (check_years_of_experience(v) is None): return 'field-invalid', f'{check_years_of_experience(v)}'


def report_memory_string_array(v, name):
    if not (v is None or v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v): return 'field-invalid', f'{name} must be nonempty'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'


def report_memory_number_check_body_temperature(v, name):
    if not (v is None or v.__class__ is float or v.__class__ is int): return 'invalid-type', f'{name} must be a number'
    if not (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND): return 'invalid-value', f'{name} must have at most 4300 digits'
    if not (check_body_temperature(v) is None): return 'field-invalid', f'{check_body_temperature(v)}'


def report_memory_string_check_blood_pressure(v, name):
    if not (v is None or v.__class__ is str): return 'invalid-type', f'{name} must be a string'
    if not (v.isascii() or not _SURROGATE(v)): return 'invalid-value', f'{name} holds a lone surrogate'
    if not (check_blood_pressure(v) is None): return 'field-invalid', f'{check_blood_pressure(v)}'


def report_memory_number_check_weight(v, name):
    if not (v is None or v.__class__ is float or v.__class__ is int): return 'invalid-type', f'{name} must be a number'
    if not (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND): return 'invalid-value', f'{name} must have at most 4300 digits'
    if not (check_weight(v) is None): return 'field-invalid', f'{check_weight(v)}'


def report_memory_number_check_heart_rate(v, name):
    if not (v is None or v.__class__ is float or v.__class__ is int): return 'invalid-type', f'{name} must be a number'
    if not (v.__class__ is not int or -_INT_BOUND < v < _INT_BOUND): return 'invalid-value', f'{name} must have at most 4300 digits'
    if not (check_heart_rate(v) is None): return 'field-invalid', f'{check_heart_rate(v)}'


def report_memory_icd10(v, name):
    if not (v is None or v.__class__ is ConceptCode): return 'invalid-type', f'{name} must be a ConceptCode'
    if not (v.code.__class__ is str): return 'invalid-type', f'{name!r} must be a string'
    if not (v.system is _ICD10): return 'invalid-value', f'{name} must be an ICD10 code, got a code of {shown(v.system)}'
    if not (validate_icd10(v.code)): return 'bad-icd10', f'{v.code!r} is not a valid ICD10 code'


def report_memory_kind_required(v, name):
    if not (v is None or v.__class__ is EdgeKind): return 'invalid-type', f'{name} must be an EdgeKind'
    if not (v): return 'field-invalid', f'{name} must be nonempty'


REPORTERS = {
    ('string', False, None): report_string,
    ('string', True, None): report_string_required,
    ('date', True, None): report_date_required,
    ('int', False, check_years_of_experience): report_int_check_years_of_experience,
    ('string array', False, None): report_string_array,
    ('number', False, check_body_temperature): report_number_check_body_temperature,
    ('string', False, check_blood_pressure): report_string_check_blood_pressure,
    ('number', False, check_weight): report_number_check_weight,
    ('number', False, check_heart_rate): report_number_check_heart_rate,
    ('icd10', False, None): report_icd10,
    ('kind', True, None): report_kind_required,
    ('version', True, None): report_version_required,
}


MEMORY_REPORTERS = {
    ('string', False, None): report_memory_string,
    ('string', True, None): report_memory_string_required,
    ('date', True, None): report_memory_date_required,
    ('int', False, check_years_of_experience): report_memory_int_check_years_of_experience,
    ('string array', False, None): report_memory_string_array,
    ('number', False, check_body_temperature): report_memory_number_check_body_temperature,
    ('string', False, check_blood_pressure): report_memory_string_check_blood_pressure,
    ('number', False, check_weight): report_memory_number_check_weight,
    ('number', False, check_heart_rate): report_memory_number_check_heart_rate,
    ('icd10', False, None): report_memory_icd10,
    ('kind', True, None): report_memory_kind_required,
}
