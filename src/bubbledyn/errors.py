"""Exception hierarchy shared across the package."""


class BubbledynError(Exception):
    """Base class for all package errors."""


class DomainError(BubbledynError):
    """An input lies outside the mathematical domain of an operation."""


class DegenerateInputError(BubbledynError):
    """Input is syntactically valid but makes the operation ill-defined
    (zero variance, zero range, singular denominator, ...)."""


class AlignmentError(BubbledynError):
    """Two series cannot be aligned (frequency mismatch, no overlap)."""


class DataError(BubbledynError):
    """A data file violates the ingestion contract (gaps, duplicates,
    non-numeric values)."""


class FitError(BubbledynError):
    """An optimization failed."""
