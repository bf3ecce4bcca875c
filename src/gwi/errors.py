"""Exception types shared across the package."""


class GwiError(Exception):
    """Base class for all package errors."""


class ValidationError(GwiError, ValueError):
    """Invalid user input: bad parameters, dimension mismatch, malformed config."""


class ConsistencyError(GwiError):
    """An internal exact identity failed beyond floating round-off."""


class DegenerateLawError(GwiError):
    """A closed-form law was requested for parameters where it degenerates.

    Carries the deterministic value the law collapses to (a point mass).
    """

    def __init__(self, message: str, point_mass: float):
        super().__init__(message)
        self.point_mass = point_mass


class OverflowGuardError(GwiError):
    """A simulated population coordinate exceeded the 2**53 guard.

    Summed offspring draws are exact only for populations up to 2**53, so the
    simulator stops there instead of returning inexact states.  It also stops
    when a rate or count is past what numpy's samplers can draw.
    """
