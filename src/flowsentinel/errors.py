"""Exception hierarchy shared by every flowsentinel subsystem."""


class FlowSentinelError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(FlowSentinelError):
    """A batch given to a model is not [rows, input_features] (``Model._frame``)."""


class MissingCacheError(FlowSentinelError):
    """backward() was called without a preceding forward() on the same layer."""


class NonFiniteGradientError(FlowSentinelError):
    """The optimizer saw a NaN or Inf gradient."""


class NonFiniteLossError(FlowSentinelError):
    """Training produced a NaN or Inf loss value."""


class EmptyInputError(FlowSentinelError):
    """An operation that requires at least one row received none."""


class MissingColumnError(FlowSentinelError):
    """A required CSV column is absent from the header."""

    def __init__(self, column: str, path: str = ""):
        self.column = column
        self.path = path
        where = f" in {path}" if path else ""
        super().__init__(f"missing column {column!r}{where}")


class InputEncodingError(FlowSentinelError):
    """An input CSV is not valid UTF-8 text."""


class InvalidRowError(FlowSentinelError):
    """An input row to classify has a non-numeric, NaN or infinite feature."""


class CacheMismatchError(FlowSentinelError):
    """A dataset cache is not the one a model records it was trained on."""


class ClassTooSmallError(FlowSentinelError):
    """A class has fewer than two rows, so it cannot be split."""


class DegenerateImportanceError(FlowSentinelError):
    """No tree of the importance forest could split, so no feature has any importance."""


class InvalidSpecError(FlowSentinelError):
    """A model specification is internally inconsistent."""


class ModeMismatchError(FlowSentinelError):
    """Model classification mode and dataset classification mode disagree."""


class CorruptModelError(FlowSentinelError):
    """A model file failed its magic, version, or checksum validation."""


class CorruptCacheError(FlowSentinelError):
    """A dataset cache file failed its magic, version, or size validation."""


class ConfigError(FlowSentinelError):
    """A run configuration value violates its constraints."""
