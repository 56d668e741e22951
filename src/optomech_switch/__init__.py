"""Simulation toolkit for a driven two-cavity optomechanical system with a
quantum dot: optical bistability, switch performance figures, linearized
stability and the mirror displacement noise spectrum."""

__version__ = "0.1.0"

from .bistability import BistabilityCurve, bistability_curve
from .closed_form import fluctuation_amplitudes, spectrum_closed_form
from .config import ScenarioConfig, parse_config, serialize_config
from .dynamics import (SwitchMetrics, bandwidth, gain_vs_frequency, hysteresis_sweep,
                       switch_metrics)
from .errors import (ConfigError, DegenerateGridError, DegenerateModelError,
                     IntegrationFailureError, NoConvergenceError, NumericalError,
                     OptomechError, OutputError, SingularResponseError, UndefinedGainError,
                     UndefinedRatioError, UnstableStateError)
from .linearize import StabilityReport, drift_matrix, stability
from .params import DriveConfig, SystemParams
from .runner import run_scenario
from .spectrum import Peak, SpectrumSeries, brownian_weight, detect_peaks, spectrum_matrix
from .steady_state import (SteadyState, cubic_coefficients, response, rocking_parameter,
                           solve_transmitted_power, steady_state_from_ptrans, turning_points)

__all__ = [name for name in dir() if not name.startswith("_")]
