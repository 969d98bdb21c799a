"""Exception types raised by the library."""


class MfkrigError(Exception):
    """Base class for all library-specific errors."""


class SingularTrendError(MfkrigError):
    """Trend (regression) matrix is rank deficient."""


class IllConditionedError(MfkrigError):
    """A correlation/covariance matrix could not be factorized."""


class FitFailedError(MfkrigError):
    """Every start of a multi-start fit failed."""


class InternalConsistencyError(MfkrigError):
    """A numerical result is too wrong to be round-off (likely a bug)."""


class DuplicateDesignPointError(MfkrigError):
    """A design point repeated within a level, on building or enriching data."""


class ParseError(MfkrigError):
    """A data or model file could not be parsed; message names file and line."""
