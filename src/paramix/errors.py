"""Exception hierarchy shared across the package.

Configuration problems and numerical failures are kept distinct so the CLI
can map them to different exit codes.
"""


class ParamixError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ParamixError):
    """Invalid run configuration (schema violation, unsupported option)."""


class NumericalError(ParamixError):
    """A computation could not be completed on the given inputs."""


class NonFiniteError(NumericalError, ValueError):
    """A computed value to be written is NaN or infinite."""


class NonInvertibleNetworkError(NumericalError):
    """Port reduction hit a singular internal system."""


class SingularResponseError(NumericalError):
    """A closed-form response diverges at the requested working point."""


class NoDipError(NumericalError):
    """A sweep has no interior minimum to analyze."""


class UnbracketedBandwidthError(NumericalError):
    """The 3 dB points of a dip are not bracketed by the sweep."""


class NonIdentifiableError(NumericalError):
    """A fit cannot pin down its parameters from the given data."""


class AmbiguousParityError(NumericalError):
    """A transmission magnitude sits too close to the decision threshold."""
