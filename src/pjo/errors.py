"""Exception types raised by the journey graph, query, and statistics APIs."""

from __future__ import annotations


class PjoError(Exception):
    """Base class for every error raised by this package."""


class FieldInvalidError(PjoError):
    """A record field fails its format or range constraint."""


class DuplicateIDError(PjoError):
    """An identifier is already taken within its namespace."""


class UnknownPatientError(PjoError):
    """A patient ID names no stored patient."""


class UnknownProviderError(PjoError):
    """A provider reference names no stored provider."""


class UnknownEncounterError(PjoError):
    """An encounter ID names no stored encounter."""


class CrossPatientLinkError(PjoError):
    """A journey link would connect encounters of different patients."""


class TemporalViolationError(PjoError):
    """A journey link would contradict the dates of its endpoints."""


class DuplicateEdgeError(PjoError):
    """A journey link of this kind already exists for the ordered pair."""


class CycleIntroducedError(PjoError):
    """A journey link would make the journey graph cyclic."""


class AmbiguousChainError(PjoError):
    """A follow-up chain branches, so no single maximal path exists."""

    def __init__(self, message: str, branch_point: str):
        super().__init__(message)
        self.branch_point = branch_point


class AmbiguousTraceError(PjoError):
    """A cause trace branches, so no single root cause path exists."""

    def __init__(self, message: str, branch_point: str):
        super().__init__(message)
        self.branch_point = branch_point


class ShapeError(PjoError):
    """Statistical input violates a shape or range requirement."""


class DegenerateAgreementError(PjoError):
    """All ratings fall in one category, so chance-corrected agreement is undefined."""
