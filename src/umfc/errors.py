"""Exception types raised across the package.

Numerical degeneracies, bad inputs, and file-format problems each get a
distinct class so callers (and the command line driver) can map them to
specific exit paths instead of pattern-matching messages.
"""

__all__ = [
    "UmfcError",
    "DegenerateVector",
    "AllShiftsDegenerate",
    "NonFiniteInput",
    "TooFewSamples",
    "MissingLabels",
    "EmptyDomain",
    "DimensionTooSmall",
    "DimensionMismatch",
    "FormatError",
    "BadMagic",
    "UnsupportedVersion",
    "TruncatedPayload",
    "NonFinitePayload",
    "LabelCountMismatch",
    "NameCountMismatch",
    "DuplicateName",
]


class UmfcError(Exception):
    """Base class for every error raised by this package."""


class DegenerateVector(UmfcError):
    """A vector with (near-)zero norm where a direction is required."""


class AllShiftsDegenerate(UmfcError):
    """Every calibration term for a text vector collapsed to zero norm."""


class NonFiniteInput(UmfcError):
    """NaN or infinity in data that must be finite."""


class TooFewSamples(UmfcError):
    """Fewer samples than an operation needs: rows for the clusters
    requested, or domains for a direction comparison."""


class MissingLabels(UmfcError):
    """An operation that needs class or domain labels got none."""


class EmptyDomain(UmfcError):
    """A domain id with no samples behind it."""


class DimensionTooSmall(UmfcError):
    """Embedding dimension too small for the requested construction."""


class DimensionMismatch(UmfcError, ValueError):
    """Features, text bank and fitted state disagree on the dimension."""


class FormatError(UmfcError):
    """Base class for embedding-file and snapshot-file problems."""


class BadMagic(FormatError):
    """File does not start with the expected magic bytes."""


class UnsupportedVersion(FormatError):
    """File declares a container version this build cannot read."""


class TruncatedPayload(FormatError):
    """File ends before the declared payload does."""


class NonFinitePayload(FormatError):
    """Payload decodes to NaN or infinity."""


class LabelCountMismatch(FormatError):
    """Label sidecar row count differs from the embedding count."""


class NameCountMismatch(FormatError):
    """Class-name file row count differs from the bank row count."""


class DuplicateName(FormatError):
    """Class-name file contains the same name twice."""
