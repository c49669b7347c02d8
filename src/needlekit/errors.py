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


class RayMarginalMismatch(NeedleError):
    def __init__(self, message, defect=None):
        super().__init__(message)
        self.defect = defect


class NotMeanZero(NeedleError):
    pass


class DegenerateDensity(NeedleError):
    pass


class MeshTooCoarse(NeedleError):
    pass


class BadVolume(NeedleError):
    pass


class ConfigError(NeedleError):
    pass
