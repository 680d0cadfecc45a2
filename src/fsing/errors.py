"""Exception types shared across the package."""


class FsingError(Exception):
    """Base class for all package errors."""


class PolyParseError(FsingError):
    """Syntax or semantic error while parsing a polynomial string.

    `position` is the 0-based character offset where the problem was found.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RankMismatchError(FsingError):
    """Vectors or submodules of incompatible ranks were combined."""


class ResourceLimitExceeded(FsingError):
    """A computation exceeded a resource cap: the Groebner pair queue, the
    period of a stable test ideal's exponent, the levels of a root, the
    terms of a product that `h_expand` or `PowerCache.power` forms, or the
    products that build one digit power of `PowerCache.power`.

    Distinct from wrong answers: nothing was truncated silently.
    """


class StabilizationError(FsingError):
    """An iterated chain failed to stabilize before its cap."""


class InternalConsistencyError(FsingError):
    """An internal identity check failed.  Signals a bug, never user error."""


class ProblemFormatError(FsingError):
    """A problem JSON file is malformed; message names the offending field."""
