"""Domain errors shared across the package.

Every error below is a :class:`BlobshiftError`; the CLI maps them to exit
code 2, keeping usage errors (exit 1) distinct for scripting.
"""


class BlobshiftError(Exception):
    """Base class for domain errors."""


class SizeLimit(BlobshiftError):
    """An operation would exceed the configured cell cap."""


class PaddingUnavailable(BlobshiftError):
    """A blob's padding exits the pattern's domain; the window is too small."""


class GlueConflict(BlobshiftError):
    """Two patterns overlap on a cell where at least one is nonzero."""

    def __init__(self, cell):
        super().__init__(f"nonzero overlap at {cell}")
        self.cell = cell


class NotZeroPreserving(BlobshiftError):
    """The rule maps the all-zero neighborhood to a nonzero symbol."""


class NotInvertible(BlobshiftError):
    """A cocycle table induces a non-injective map."""

    def __init__(self, word, shift):
        super().__init__(f"collision on window {word!r} (offset {shift})")
        self.word = word
        self.shift = shift


class NoPrimeInRange(BlobshiftError):
    """The progression scan exhausted its limit without hitting a prime."""


class InjectionNotDistinct(BlobshiftError):
    """The supplied prime injection repeats a value."""


class InjectionNotPrime(BlobshiftError):
    """The supplied injection contains a composite."""


class RadiiNotIncreasing(BlobshiftError):
    """A radii schedule must be strictly increasing."""


class EmptySupport(BlobshiftError):
    """The operation needs at least one nonzero cell."""


class InvariantViolation(BlobshiftError):
    """A result-certifying check failed: the computation itself is wrong."""


class UnsupportedFormat(BlobshiftError):
    """Unknown render or serialization format."""
