"""Exception hierarchy shared across the package.

Every error raised by public operations derives from SpotlighterError, and
from exactly one of three families whose `exit_code` the CLI returns:
UsageError 1, DataError 2, NumericError 3.
"""


class SpotlighterError(Exception):
    """Base class for all package errors."""


class UsageError(SpotlighterError):
    """The request or its configuration is invalid."""
    exit_code = 1


class DataError(SpotlighterError):
    """An input file or array is malformed or disagrees with the model."""
    exit_code = 2


class NumericError(SpotlighterError):
    """A computation left its numeric domain."""
    exit_code = 3


# --- usage: configuration & request errors ----------------------------------

class ConfigError(UsageError):
    """Invalid or unknown configuration key/value."""


class InvalidSpec(UsageError):
    """Synthetic feature specification violates its invariants."""


class InvalidK(UsageError):
    """Prototype count K must be at least 1."""


class KOutOfRange(UsageError):
    """Selection size k outside [1, n_tokens]."""


class WorkloadTooSmall(UsageError):
    """Benchmark workload below the minimum item count."""


# --- data: inputs, shapes and file formats -------------------------------------

class DimMismatch(DataError):
    """Operands disagree on a shared dimension."""


class LabelOutOfRange(DataError):
    """Category label not within [0, n_classes)."""


class EmptySelection(DataError):
    """Stratification requires a nonempty selected set."""


class EmptySplit(DataError):
    """Evaluation split contains no items."""


class UnlabeledSplit(DataError):
    """A split that training or scoring needs labeled carries no labels."""


class BadMagic(DataError):
    """File does not start with the expected magic bytes."""


class VersionMismatch(DataError):
    """File format version not supported by this build."""


class HeaderMismatch(DataError):
    """Header is malformed or disagrees with the payload."""


class TruncatedFile(HeaderMismatch):
    """File ends before the declared payload is complete."""


# --- numeric domain errors ------------------------------------------------

class ZeroVector(NumericError):
    """A vector with (near-)zero norm where a direction is required."""


class NonPositiveTemperature(NumericError):
    """Softmax/scaling temperature must be strictly positive."""


class NonFiniteLoss(NumericError):
    """A loss or objective evaluated to NaN/Inf."""
