"""Exception hierarchy shared across the pipeline.

Every error raised on purpose derives from :class:`PipelineError`, split into
validation errors (bad inputs or configuration, CLI exit code 1) and runtime
errors (broken files, numerical failures, CLI exit code 2).
"""

import math


class PipelineError(Exception):
    """Base class for all deliberate pipeline errors."""


class ValidationError(PipelineError, ValueError):
    """Invalid input, configuration, or request; also a ``ValueError``."""


def check_seed(seed: int) -> None:
    """numpy's generators refuse a negative seed; so does the pipeline."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def check_positive(allow_zero: bool = False, **settings: float) -> None:
    """Each float setting must be finite and > 0 (>= 0 with ``allow_zero``).
    NaN passes every order test, so it is refused as not finite first."""
    for name, value in settings.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
        if value < 0 or (value == 0 and not allow_zero):
            raise ValidationError(
                f"{name} must be {'>=' if allow_zero else '>'} 0, got {value}")


class RuntimeFailure(PipelineError):
    """Failure while executing an otherwise valid request."""


# -- data / geometry ---------------------------------------------------------

class EmptyBag(ValidationError):
    """An operation received zero tiles or zero active sites."""


class DimensionMismatch(ValidationError):
    """Feature or parameter dimensions do not line up."""


class InsufficientTiles(ValidationError):
    """A view asked for more tiles than the bank slice holds."""


class SpanTooLarge(ValidationError):
    """Integer coordinates span too far to pack into one int64 sort key."""


# -- numerics ----------------------------------------------------------------

class NonFiniteGradient(RuntimeFailure):
    """A gradient contained NaN or infinity; carries the parameter name."""


class NoForwardCache(ValidationError):
    """backward() called without the cache produced by forward()."""


class DegenerateBatch(ValidationError):
    """Batch statistics requested over fewer than two active sites."""


class DegenerateProjection(RuntimeFailure):
    """A projection vector had zero norm; cosine similarity is undefined."""


class DegenerateEmbedding(RuntimeFailure):
    """An ensembled slide embedding averaged to the zero vector."""


# -- files -------------------------------------------------------------------

class FormatError(ValidationError):
    """A file did not start with the expected magic/version."""


class CorruptBank(RuntimeFailure):
    """An embedding bank file was truncated or internally inconsistent."""


# -- evaluation --------------------------------------------------------------

class DegenerateLabels(ValidationError):
    """A labelled set did not contain at least two classes where required."""


class BudgetTooSmall(ValidationError):
    """A label budget cannot satisfy stratification (>= 1 sample per class)."""
