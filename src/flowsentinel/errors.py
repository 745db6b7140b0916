"""Exception hierarchy shared by every flowsentinel subsystem.

There is one class per CLI exit code, and each carries that code as
``exit_code``, so ``cli.main`` maps every error in one clause. The two
internal classes carry ``None``: only a programming error raises them, and
``main`` lets them propagate.
"""


class FlowSentinelError(Exception):
    """Base class for all errors raised by this package."""

    exit_code: int | None = None


class ConfigError(FlowSentinelError):
    """A run configuration value, or an architecture or feature list given to
    ``models.build``, violates its constraints."""

    exit_code = 1


class MissingInputError(FlowSentinelError):
    """An input is empty or too small: no rows, a class of one row, nothing to rank."""

    exit_code = 2


class SchemaError(FlowSentinelError):
    """An input or artefact is malformed: a missing column, bad bytes, a bad row or header."""

    exit_code = 3


class NumericError(FlowSentinelError):
    """Training produced a NaN or Inf loss or gradient."""

    exit_code = 4


class MismatchError(FlowSentinelError):
    """Two artefacts disagree: a classification mode, or the cache a model was trained on."""

    exit_code = 5


class ShapeMismatchError(FlowSentinelError):
    """Arrays that do not fit: a batch given to a model that is not
    [rows, len(feature_names)] (``Model._frame``), or an X and y of different
    row counts given to ``train`` or the forest (``check_inputs``), whose X
    must also be 2-D."""


class MissingCacheError(FlowSentinelError):
    """backward() was called without a preceding forward() on the same layer."""
