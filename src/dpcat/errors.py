"""Exception types shared across the package."""


class DpcatError(Exception):
    """Base class for all dpcat errors."""


class LengthMismatchError(DpcatError, ValueError):
    """Two databases (or a database and its space) have incompatible sizes."""


class EnumerationBudgetError(DpcatError, ValueError):
    """An operation would enumerate more states or subsets than allowed.

    The offending count is kept on ``.count`` so callers can report it; a
    count past ``COUNT_DIGIT_CAP`` digits, which messages print as its
    power, is never built, and ``.count`` is then None.
    """

    def __init__(self, message, count):
        super().__init__(message)
        self.count = count


class ParameterRangeError(DpcatError, ValueError):
    """A numeric parameter is outside its valid range."""


class IncompleteUtilityError(DpcatError, ValueError):
    """A utility table does not cover the full database space."""


class DataFormatError(DpcatError, ValueError):
    """A category list, CSV file or mechanism spec file failed to parse."""


class ExactModeError(DpcatError, ValueError):
    """Exact rational arithmetic was requested for an unsupported mechanism."""
