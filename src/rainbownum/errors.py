"""Exception types shared across the package."""


class RainbowError(Exception):
    """Base class for every error raised by this package."""


class NonUnitError(RainbowError, ValueError):
    """An element that must be invertible mod n is not a unit."""


class NotDivisorError(RainbowError, ValueError):
    """A claimed divisor does not divide the ambient modulus."""


class BadPartitionError(RainbowError, ValueError):
    """Color classes overlap, leave a gap, or are empty."""


class ModulusMismatchError(RainbowError, ValueError):
    """Two objects that must share a modulus do not."""


class NotApplicableError(RainbowError):
    """Preconditions of a closed-form criterion are not met.

    Distinct from a False result: the criterion is silent, not negative.
    """


class NotCoveredError(RainbowError):
    """No closed-form result covers the requested instance.

    The first failing condition is recorded in ``reason``.  Callers that
    want an answer anyway must run the search oracle explicitly.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class CapExceededError(RainbowError):
    """The requested modulus exceeds the configured search cap."""


class BadWitnessError(RainbowError, ValueError):
    """An input coloring lacks the structure a construction requires."""


class BadModulusError(RainbowError, ValueError):
    """The modulus is outside the range a construction supports."""


class ConsistencyError(RainbowError):
    """An always-on internal cross-check failed; results cannot be trusted."""
