"""Exception hierarchy for numerical and interface failures."""


class CorrGeoError(Exception):
    """Base class for all library-specific errors."""


class NonFiniteInput(CorrGeoError):
    """Input has NaN or infinite entries."""


class NotSymmetric(CorrGeoError):
    """Input matrix is not symmetric within tolerance."""


class NotPositiveDefinite(CorrGeoError):
    """Input matrix has an eigenvalue at or below the PD threshold."""


class NonPositiveDiagonal(CorrGeoError):
    """Input matrix has a non-positive diagonal entry."""


class BadDiagonal(CorrGeoError):
    """Triangular input does not have the required unit diagonal."""


class SingularFactor(CorrGeoError):
    """Cholesky factor has a diagonal entry too close to zero."""


class NoConvergence(CorrGeoError):
    """Iterative solver exhausted its budget.

    Carries the iteration count and the last residual.
    """

    def __init__(self, iterations, residual, what=""):
        self.iterations = iterations
        self.residual = residual
        msg = f"no convergence after {iterations} iterations (residual {residual:.3e})"
        if what:
            msg = f"{what}: {msg}"
        super().__init__(msg)


class DampingFailure(CorrGeoError):
    """No damped step length preserved positivity and reduced the residual."""


class SingularH0(CorrGeoError):
    """The eigenbasis coupling matrix of the diagonal-shift solver is numerically singular."""


class DimensionMismatch(CorrGeoError):
    """Part dimensions do not match the expected layout."""


class ShapeMismatch(CorrGeoError):
    """Channel/field/kernel shapes are inconsistent."""


class InvalidDimension(CorrGeoError):
    """Operation only supports a specific matrix dimension."""


class UnsupportedMetric(CorrGeoError):
    """The requested operation is not defined for this metric."""


class ConfigError(CorrGeoError):
    """Run configuration is missing keys or has invalid values."""


class InfeasibleSeparation(CorrGeoError):
    """Class anchors could not be placed at the requested separation."""


class IoError(CorrGeoError):
    """File could not be read or written in the expected format."""
