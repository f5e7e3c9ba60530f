"""Exception types raised across the package.

Everything numerical or structural derives from CMSpacesError so callers
(and the command line driver) can distinguish library failures from
programming errors.
"""


class CMSpacesError(Exception):
    """Base class for all failures raised by this package."""


class ShapeMismatchError(CMSpacesError):
    """Operands have incompatible or invalid array shapes."""


class DegenerateSpectrumError(CMSpacesError):
    """Eigenvalues are not simple at the requested tolerance."""


class NonConvergentError(CMSpacesError):
    """The underlying eigensolver failed or its residual is out of contract."""


class SingularMatrixError(CMSpacesError):
    """A linear solve or inversion hit a (numerically) singular matrix."""


class NonzeroCornerError(CMSpacesError):
    """Projection back to a quadruple requires vanishing corner entries."""


class ZeroRowEntryError(CMSpacesError):
    """A last-row entry vanishes, so the unit-row normal form does not exist."""


class NotNormalizedError(CMSpacesError):
    """The operation expects the bordered normal form (diagonal block, unit row)."""


class NotStronglySemisimpleError(CMSpacesError):
    """The operation expects a strongly semisimple augmented matrix."""


class LevelConditionError(CMSpacesError):
    """The pair commutator does not sit in the shifted border space."""


class EigenMismatchError(CMSpacesError):
    """A reconstructed matrix does not reproduce the requested spectrum."""


class DegenerateConstraintError(CMSpacesError):
    """The slice constraint on the diagonal coordinates has no usable gradient."""


class BranchAmbiguityError(CMSpacesError):
    """Eigenvalue continuation cannot be matched injectively to the reference."""


class ZeroPairError(CMSpacesError):
    """The probe needs a nonzero matrix pair."""


class SearchExhaustedError(CMSpacesError):
    """A randomized search exceeded its retry budget."""


class WitnessVanishesError(CMSpacesError):
    """The derivation witness degenerates at this point; pick another one."""


class IllConditionedFitError(CMSpacesError):
    """Polynomial degree fit is not trustworthy at this conditioning."""


class InfeasibleRowError(CMSpacesError):
    """Could not draw an admissible inner row within the retry budget."""
