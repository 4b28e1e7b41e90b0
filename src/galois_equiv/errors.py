"""Exception types shared across the package."""


class GaloisEquivError(Exception):
    """Base class for all errors raised by this package."""


class FactorizationIncomplete(GaloisEquivError):
    """A cofactor survived trial division and could not be certified prime."""


class Unsupported(GaloisEquivError):
    """The requested operation is outside the implemented scope."""


class NoWitnessFound(GaloisEquivError):
    """The norm witness search gave up; membership itself is not in doubt."""


class Singular(GaloisEquivError):
    """Matrix inversion was requested for a singular matrix."""


class UnknownGenerator(GaloisEquivError):
    """A word refers to a generator index or name that does not exist."""


class NotEquivalent(GaloisEquivError):
    """No nonzero intertwiner exists: the twisted representation is not equivalent."""


class NotIrreducible(GaloisEquivError):
    """The intertwiner space has dimension > 1, so the representation is not absolutely irreducible."""


class InternalInvariantViolation(GaloisEquivError):
    """An internal consistency check failed; indicates invalid input data or a bug."""


class BadWitness(GaloisEquivError):
    """A supplied norm witness does not verify against the computed invariant."""


class EndomorphismCheckFailed(GaloisEquivError):
    """A crossed-product element failed its defining commutation relations."""


class ParseError(GaloisEquivError):
    """Problem file could not be parsed; carries a human-readable location."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message}{' at ' + location if location else ''}")
