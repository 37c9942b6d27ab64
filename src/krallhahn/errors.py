"""Exceptions shared across the package."""

from __future__ import annotations


class KrallHahnError(Exception):
    """Base class for errors raised by this package."""


class NonExactDivision(KrallHahnError):
    """A quotient that the theory claims is a polynomial is not one: some
    known roots of the divisor are no roots of the numerator.

    ``remainder`` is the reduced denominator that did not cancel, the monic
    product of (x - r) over those roots, on every raise, so callers can report
    exactly what failed to cancel.
    """

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class ParameterSingularity(KrallHahnError):
    """A parameter choice makes a required factor vanish (named in the message)."""


class ZeroOperatorError(KrallHahnError):
    """The zero operator has no genre or order."""


class NotThetaRepresentable(KrallHahnError):
    """Polynomial is not invariant under the reflection, so it has no
    representation as a polynomial in the eigenvalue variable."""


class ResonantParameters(KrallHahnError):
    """Two determinant rows collide: the derived spectral roots are not
    pairwise distinct for this parameter/set combination."""


class DegenerateMoments(KrallHahnError):
    """Gram-Schmidt hit a zero norm; orthogonalisation cannot continue."""

    def __init__(self, index: int):
        super().__init__(f"zero norm at degree {index}; moment functional is degenerate there")
        self.index = index


class InsufficientData(KrallHahnError):
    """Not enough equations to determine the probed operator reliably."""


class ConfigInvalid(KrallHahnError):
    """A run configuration failed validation (the message names the constraint)."""
