"""Exception types shared across the package.

Everything that can go wrong falls into three buckets, one CLI exit code
each: bad inputs (``ValueError`` subclasses, exit 2), computations that
exceed a configured size cap (``SizeTooLargeError``, exit 3), and internal
identities failing (``CheckFailedError`` subclasses, exit 1).  The last
indicate an implementation bug, never a user error, so they are not
``ValueError``s.
"""


class NonPrimeError(ValueError):
    """A field characteristic that is not a prime number."""


class ReducibleModulusError(ValueError):
    """A modulus polynomial that factors over the prime field."""


class ContextMismatchError(ValueError):
    """Operands built over different fields, dimensions, or root orders."""


class SizeTooLargeError(ValueError):
    """An enumeration or graph build would exceed its size cap."""


class CheckFailedError(Exception):
    """An identity that holds for a correct implementation failed."""


class NotRationalError(CheckFailedError):
    """A cyclotomic value expected to collapse to an integer did not.

    Character sums over unions of full rank classes are Galois-stable and
    must be plain integers; seeing this error means the sum was formed
    incorrectly somewhere upstream.
    """


class InexactDivisionError(CheckFailedError):
    """An integer division that the underlying identity promises to be
    exact left a remainder."""


class EigenvectorMismatchError(CheckFailedError):
    """A character vector failed the eigenvector equation on the ground
    truth adjacency matrix."""

    def __init__(self, message: str, coordinate: int):
        super().__init__(message)
        self.coordinate = coordinate


class TheoremViolationError(CheckFailedError):
    """The spectral gap guarantee fired but no witness pair was found.

    This is unreachable if the implementation is correct; it exists as a
    tripwire, not as a recoverable condition.
    """
