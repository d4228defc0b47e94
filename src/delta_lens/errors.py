"""Exception taxonomy shared by every delta_lens module.

Every failure surfaced by the library is a subclass of DeltaLensError, so
callers (and the CLI) can distinguish domain/usage mistakes from genuine
numerical trouble with a single except clause per family.
"""

from __future__ import annotations


class DeltaLensError(Exception):
    """Base class for all library errors."""


class DomainError(DeltaLensError):
    """Input outside the documented domain of an operation."""


class UnsupportedDiscriminant(DomainError):
    """Quotient family index q is not one of the supported values 3, 4, 7, 8."""


class PoleError(DeltaLensError):
    """Evaluation was requested at (or within tolerance of) a pole.

    The offending location is kept on the exception so callers can report it.
    """

    def __init__(self, message: str, location: complex | None = None):
        super().__init__(message)
        self.location = location


class PoleOfGamma(PoleError):
    """Argument of log_gamma within tolerance of a non-positive integer."""


class PoleOfZeta(PoleError):
    """zeta or hurwitz_zeta evaluated within tolerance of s = 1."""


class PoleOfCompletedZeta(PoleError):
    """Completed zeta evaluated at one of its poles s = 0 or s = 1."""


class PoleOfDelta5(PoleError):
    """delta5 evaluated within tolerance of a pole of the quotient."""


class PoleOfDeltaQ(PoleError):
    """delta_q evaluated at a pole (or bracket-factor degeneracy) of the quotient."""


class GammaPoleOnPath(PoleError):
    """A gamma factor of the reflection multiplier has a pole at the requested point."""


class NotAPole(DomainError):
    """residue_at_pole called at a sigma that is not a real-axis pole."""


class NotAZero(DomainError):
    """slope_at_zero called at a sigma that is not a real-axis zero."""


class StepTooCoarse(DeltaLensError):
    """A sign-change scan step straddles more than one crossing."""


class UnexpectedCoincidence(DeltaLensError):
    """A zero ordinate and a pole ordinate agree within refinement tolerance."""


class _TraceFailure(DeltaLensError):
    """A traced line that could not go on: its kind and line, its last (sigma, t) and its recorded points; or whose
    terminus the catalog does not support: its t_star and the nearest catalogued point, or None."""

    def __init__(self, message: str, *, kind=None, line=None, last=None, points=(), t_star=None, nearest=None):
        super().__init__(message)
        self.kind, self.line, self.last, self.points = kind, line, last, tuple(points)
        self.t_star, self.nearest = t_star, nearest


class TraceStalled(_TraceFailure):
    """Predictor-corrector stepping could not advance even at the minimum step."""


class SingularityTooClose(_TraceFailure):
    """Traced path ran into a zero/pole (quotient modulus left [1e-8, 1e8])."""


class NoCatalogMatch(_TraceFailure):
    """Phase-line terminus has no catalogued critical point within tolerance."""


class TerminusNotBetweenSingularities(_TraceFailure):
    """Amplitude-line terminus failed to land strictly between catalogued points."""


class RefinementExhausted(DeltaLensError):
    """Contour refinement hit its split budget before increments were small: the
    edge's two endpoints and its last increment."""

    def __init__(self, message: str, *, edge=None, increment=None):
        super().__init__(message)
        self.edge, self.increment = edge, increment


class SingularOnContour(DeltaLensError):
    """A contour vertex evaluated onto (or too close to) a zero/pole."""


class MissingTrace(DeltaLensError):
    """A requested phase-line trace was not supplied."""


class CatalogTooShort(DeltaLensError):
    """A zero catalog does not cover the ordinate range a computation needs."""


class FormatVersionMismatch(DeltaLensError):
    """Persisted catalog declares a format_version this library does not read."""


class CorruptRecord(DeltaLensError):
    """A persisted catalog line failed to parse; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class SpecInvalid(DomainError):
    """Portrait specification violates its invariants."""


class IoFailure(DeltaLensError):
    """Filesystem write/read failed."""


class DegenerateCircle(DomainError):
    """Amplitude level A = 1 degenerates to a vertical line, not a circle."""
