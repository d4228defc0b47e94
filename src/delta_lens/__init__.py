"""delta_lens: numerical study of the quotient zeta(s) L_-4(s) / zeta(2s - 1/2).

The package evaluates the quotient (and its siblings for discriminants -3,
-7, -8) anywhere in the complex plane, locates its critical-line zeros and
poles, traces its phase-zero and unit-amplitude lines, runs argument
principle counts, checks zero-distribution identities, and renders quadrant
phase portraits and amplitude portraits as binary PPM images.
"""

from .errors import (
    CatalogTooShort,
    CorruptRecord,
    DegenerateCircle,
    DeltaLensError,
    DomainError,
    FormatVersionMismatch,
    GammaPoleOnPath,
    IoFailure,
    MissingTrace,
    NoCatalogMatch,
    NotAPole,
    NotAZero,
    PoleError,
    PoleOfCompletedZeta,
    PoleOfDelta5,
    PoleOfDeltaQ,
    PoleOfGamma,
    PoleOfZeta,
    RefinementExhausted,
    SingularityTooClose,
    SingularOnContour,
    SpecInvalid,
    StepTooCoarse,
    TerminusNotBetweenSingularities,
    TraceStalled,
    UnexpectedCoincidence,
    UnsupportedDiscriminant,
)
from .evalcore import beta_L, dirichlet_L, hurwitz_zeta, log_gamma, zeta

__version__ = "0.1.0"
