"""Exception types shared across the library.

Every failure mode that callers are expected to handle gets its own class,
and every raise in the library modules (the oracles, validate and the
CLI's argparse type functions apart) raises one of them.  InvalidArgument
(a bad t, delta, weight or point dimension) also derives from ValueError,
so callers that catch ValueError keep working.
"""


class CrheatError(Exception):
    """Base class for all library-specific errors."""


class InvalidArgument(CrheatError, ValueError):
    """An argument is out of its domain: t <= 0, delta < 0, weight <= 0, a
    degree or dimension that is not an integer (a bool or a float), a
    reversed integration interval or a panel width <= 0, or a point or
    batch whose dimension or length disagrees with the data."""


class NonHermitian(CrheatError):
    """Input matrix violates the Hermitian symmetry tolerance, or a number that
    Hermitian symmetry makes real (a pencil determinant coefficient, a
    density trace) has a non-negligible imaginary part."""


class NoConvergence(CrheatError):
    """The LAPACK Hermitian eigensolver (eigh) reported a convergence failure."""


class NonFinite(CrheatError):
    """An input entry or an integrand value is NaN or infinite."""


class DimensionMismatch(CrheatError):
    """Two operands that must share a dimension do not."""


class ZeroPolynomial(CrheatError):
    """Root finding was asked about the identically-zero polynomial."""


class UnknownFunction(CrheatError):
    """validate was asked for a suite it does not know."""


class DegreeOutOfRange(CrheatError):
    """A form degree q or Morse degree j outside 0..n, a dimension n < 1, or
    forms whose dimension disagrees with their point's n."""


class PathMismatch(CrheatError):
    """The two independent exterior-exponential paths disagree."""


class DivergentIntegral(CrheatError):
    """A full-line eta integral does not converge, or its tail cannot be certified.

    ``direction`` names the failing end ("+infinity", "-infinity" or "both").
    """

    def __init__(self, message, direction="both"):
        super().__init__(message)
        self.direction = direction


class NonRigidTruncation(CrheatError):
    """A truncated integral was requested with beta != 0."""


class IdenticallyDegeneratePencil(CrheatError):
    """det(R - 2*eta*L) vanishes for every eta."""


class EmptyDescriptor(CrheatError):
    """A manifold descriptor contains no points."""


class MixedDimension(CrheatError):
    """Points of one descriptor disagree about n."""


class MaxSubdivisions(CrheatError):
    """An adaptive quadrature (the library's or the reference one) exhausted its budget."""


class FileFormatError(CrheatError):
    """A point or descriptor file failed strict parsing or validation."""


class BoundaryContamination(CrheatError):
    """A grid field carries non-negligible mass at the domain boundary."""
