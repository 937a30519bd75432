"""Exception types shared across the library.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError/RuntimeError are reserved for genuine programming errors.
"""


class CrheatError(Exception):
    """Base class for all library-specific errors."""


class NonHermitian(CrheatError):
    """Input matrix violates the Hermitian symmetry tolerance."""


class NoConvergence(CrheatError):
    """The LAPACK Hermitian eigensolver (eigh) reported a convergence failure."""


class NonFinite(CrheatError):
    """An input entry or an integrand value is NaN or infinite."""


class DimensionMismatch(CrheatError):
    """Two operands that must share a dimension do not."""


class ZeroPolynomial(CrheatError):
    """Root finding was asked about the identically-zero polynomial."""


class UnknownFunction(CrheatError):
    """matfun received an unrecognized scalar-function identifier."""


class DegreeOutOfRange(CrheatError):
    """Form degree q (or an index) is outside 0..n."""


class PathMismatch(CrheatError):
    """The two independent exterior-exponential paths disagree."""


class DivergentIntegral(CrheatError):
    """A full-line eta integral does not converge.

    ``direction`` names the failing end ("+infinity", "-infinity" or "both").
    """

    def __init__(self, message, direction="both"):
        super().__init__(message)
        self.direction = direction


class NonRigidTruncation(CrheatError):
    """A truncated integral was requested with beta != 0."""


class OnSignatureBoundary(CrheatError):
    """eta sits on (or numerically too close to) a pencil root."""


class IdenticallyDegeneratePencil(CrheatError):
    """det(R - 2*eta*L) vanishes for every eta."""


class EmptyDescriptor(CrheatError):
    """A manifold descriptor contains no points."""


class MixedDimension(CrheatError):
    """Points of one descriptor disagree about n."""


class MaxSubdivisions(CrheatError):
    """Reference quadrature exhausted its subdivision budget."""


class FileFormatError(CrheatError):
    """A point or descriptor file failed strict parsing or validation."""


class BoundaryContamination(CrheatError):
    """A grid field carries non-negligible mass at the domain boundary."""
