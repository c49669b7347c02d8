"""Exception types shared across the package."""


class NeedleError(Exception):
    """Base class for all package errors."""


class EmptySpace(NeedleError):
    pass


class MetricViolation(NeedleError):
    pass


class DisconnectedGraph(NeedleError):
    pass


class InvalidWeights(NeedleError):
    pass


class BadParameter(NeedleError, ValueError):
    """A parameter outside the range a routine supports (also a ValueError)."""


class BadDiameter(BadParameter):
    pass


class BadDimension(BadParameter):
    pass


class UnbalancedMarginals(NeedleError):
    pass


class SolverFailure(NeedleError):
    pass


class TolTooSmall(NeedleError):
    pass


class MassMismatch(NeedleError):
    pass


class NotMeanZero(NeedleError):
    pass


class DegenerateDensity(NeedleError):
    pass


class MeshTooCoarse(NeedleError):
    pass


class BadVolume(BadParameter):
    pass


class ConfigError(NeedleError):
    pass
