"""Exception hierarchy shared across the package.

Configuration problems and numerical failures are kept distinct so the CLI
can map them to different exit codes.
"""


def shown(text: str) -> str:
    """text as an error message quotes it: whole up to 24 characters, else its first 20 and '...'."""
    return text if len(text) <= 24 else text[:20] + "..."


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


class NoDipError(NumericalError):
    """A sweep has no interior minimum to analyze."""


class UnbracketedBandwidthError(NumericalError):
    """The 3 dB points of a dip are not bracketed by the sweep."""
