"""Error taxonomy shared by the whole package.

Every failure mode callers are expected to branch on gets its own class so
the CLI can map them to stable exit codes.
"""


class TensorBallError(Exception):
    """Base class for all package errors."""


class ConfigurationError(TensorBallError):
    """Unknown kind / malformed configuration object."""


class ValidationError(TensorBallError):
    """Inputs violate a documented precondition (shapes, ranges, norms)."""


class HypothesisViolationError(ValidationError):
    """A standing hypothesis of the estimate is violated (e.g. r > n^l / 2)."""


class RangeError(ValidationError):
    """Argument outside the validity range of a closed-form evaluator."""


class ResourceError(TensorBallError):
    """Materializing the request would exceed a configured size cap."""


class DegeneracyError(TensorBallError):
    """Numerical rank-deficiency or an unresolvable eigenvalue collision."""


class DataSparsityError(TensorBallError):
    """Not enough usable data points for a fit."""


class UsageError(TensorBallError):
    """Command line misuse (unknown flag, missing argument)."""
