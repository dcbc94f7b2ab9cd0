"""Exception hierarchy shared by all segloss modules.

The three intermediate classes group errors by CLI exit code:
``UsageError`` -> 1, ``DataError`` -> 2, ``NumericError`` -> 3.
"""


class SeglossError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(SeglossError):
    """Bad arguments, parameters out of their documented range, bad config."""


class DataError(SeglossError):
    """Malformed or inconsistent input data."""


class NumericError(SeglossError):
    """A computation could not be completed (non-finite values, degeneracy)."""


class DimMismatch(DataError):
    """Two masks/maps that must share dims do not."""


class DTooLarge(UsageError):
    """Pair-space enumeration requested beyond the supported vector length."""


class OutOfRange(UsageError):
    """A scalar parameter lies outside its documented interval."""


class BoundViolation(NumericError):
    """An empirical supremum exceeds its closed-form bound."""


class OutOfDomain(NumericError):
    """A finite-difference perturbation would leave the unit interval."""


class NonFiniteLoss(NumericError):
    """Training produced NaN/inf weights or a NaN/inf validation loss."""


class EmptySet(DataError):
    """An operation requires at least one sample."""


class InfeasibleConfig(NumericError):
    """The synthetic-data target is unreachable with the radius range, or the noise overflows."""


class InfeasibleRatio(NumericError):
    """No rectangle size achieves the requested in-rectangle fg fraction."""


class LengthMismatch(DataError):
    """Paired score vectors have different lengths."""


class TooFewSamples(UsageError):
    """Bootstrap requires at least two paired observations."""


class MalformedHeader(DataError):
    """A mask file header could not be parsed."""


class NonBinaryPixel(DataError):
    """A binary mask file contains a value other than 0/255."""


class TruncatedPayload(DataError):
    """A mask file payload is shorter than its header promises."""


class ConfigError(UsageError):
    """Experiment config file rejected; message carries the line number."""
