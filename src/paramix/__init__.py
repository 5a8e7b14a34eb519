"""paramix: scattering models and analysis for interferometric parametric isolators.

The package root re-exports the error classes and the entry points listed in
the README; everything else is imported from its module.
"""

from .errors import (
    ConfigError,
    NoDipError,
    NonFiniteError,
    NonInvertibleNetworkError,
    NumericalError,
    ParamixError,
    UnbracketedBandwidthError,
)
from .network import ConnectionGraph, ScatteringMatrix, connect
from .mixer import JpcParams, flux_tuning_curve, r_a_of_frequency, t_of_frequency
from .isolator import (
    JisConfig,
    closed_form_from_config,
    composed_4port,
    effective_2port_sweep,
    make_jis,
    reference_device,
)
from .analysis import (
    backaction_report,
    bandwidth_3dB,
    bandwidth_attenuation_scan,
    fit_rho_alpha,
    gamma0,
    nbar_from_dephasing,
    t_phi,
    to_power_dB,
)

__version__ = "0.1.0"
