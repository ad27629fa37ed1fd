"""Exception types shared across the package."""


class DegmixError(Exception):
    """Base class for domain errors."""


class NotGraphical(DegmixError):
    """The requested degree sequence has no realization."""


class InvalidSplit(DegmixError):
    """Class degrees do not describe a split graph partition."""


class ForbiddenSetNotMatching(DegmixError):
    """A forbidden set is not a partial 1-factor of its instance."""


class InconsistentMatrix(DegmixError):
    """A degree spectra matrix violates its structural constraints."""


class TooLarge(DegmixError):
    """Instance exceeds the configured exhaustive-enumeration cap."""


class DivisibilityError(DegmixError):
    """Block length does not divide the target size."""


class Disconnected(DegmixError):
    """The realization graph is not connected (the chain is reducible)."""


class CheegerViolation(DegmixError):
    """A spectral report's conductance and gap break the Cheeger inequalities."""


class ProductMismatch(DegmixError):
    """Cartesian-product verification failed; ``witness`` holds a counterexample."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
