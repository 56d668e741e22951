"""Parameter model for the coupled two-cavity optomechanical system.

All rates and detunings are expressed in units of the mechanical frequency
omega_m, which is therefore fixed to 1 in internal units.  The system is:
cavity A (decay kappa_a, detuning delta_a) driven by a modulated pump and
coupled with strength ``chi`` to a movable mirror (frequency omega_m,
damping gamma_m) and with strength ``j_coupling`` to cavity B (kappa_b,
delta_b), which contains a two-level quantum dot (decay kappa_d, detuning
delta_d, photon coupling g_qd) side-pumped with amplitude lambda_pump and
relative phase theta.  The dot's population inversion is held fixed at
``n_inversion``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateGridError


class InvalidValueError(ValueError):
    """A field value the model does not admit; ``field`` names the field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


def _grid(values, name: str) -> np.ndarray:
    """``values`` as floats; ValueError unless all are finite and >= 0,
    DegenerateGridError unless there are >= 2, strictly ascending."""
    grid = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(grid) & (grid >= 0.0)):
        raise ValueError(f"{name} must be finite and >= 0")
    if grid.size < 2 or np.any(np.diff(grid) <= 0.0):
        raise DegenerateGridError(f"{name} must be strictly ascending with >= 2 points")
    return grid


@dataclass(frozen=True)
class SystemParams:
    """Physical rates and detunings, in units of the mechanical frequency."""

    kappa_a: float = 0.1
    kappa_b: float = 0.1
    kappa_d: float = 1.8
    gamma_m: float = 1e-2
    delta_a: float = 1.0
    delta_b: float = 1.0
    delta_d: float = 0.0
    j_coupling: float = 0.5
    g_qd: float = 1.0
    chi: float = 0.3
    lambda_pump: float = 0.02
    theta: float = 0.238
    n_inversion: float = 0.0
    thermal_ratio: float = 1e-6
    omega_m: float = 1.0

    def __post_init__(self):
        for name in ("kappa_a", "kappa_b", "kappa_d", "gamma_m", "omega_m",
                     "thermal_ratio"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise InvalidValueError(name, f"{name} must be strictly positive, got {value}")
        for name in ("chi", "g_qd", "j_coupling", "lambda_pump"):
            value = getattr(self, name)
            if value < 0.0 or not math.isfinite(value):
                raise InvalidValueError(
                    name, f"{name} must be >= 0 (signs live in the phases), got {value}")
        if not -1.0 <= self.n_inversion <= 1.0:
            raise InvalidValueError("n_inversion",
                                    f"n_inversion must lie in [-1, 1], got {self.n_inversion}")
        for name in ("delta_a", "delta_b", "delta_d", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidValueError(name, f"{name} must be finite")

    def with_(self, **changes) -> "SystemParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class DriveConfig:
    """Pump drive eta(t) = eta0 + p_amp*cos(omega_mod*t) on cavity A.

    Input power is eta0**2.  A fast modulation acts on the slow dynamics
    through the rocking parameter C = p_amp**2 / (2*omega_mod**2).
    """

    eta0: float = 0.1
    p_amp: float = 0.0
    omega_mod: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.eta0):
            raise InvalidValueError("eta0", "eta0 must be finite")
        if self.p_amp < 0.0 or not math.isfinite(self.p_amp):
            raise InvalidValueError("p_amp", f"p_amp must be >= 0, got {self.p_amp}")
        if not math.isfinite(self.omega_mod) or self.omega_mod < 0.0:
            raise InvalidValueError("omega_mod", f"omega_mod must be >= 0, got {self.omega_mod}")
        if self.p_amp > 0.0 and self.omega_mod == 0.0:
            raise InvalidValueError("omega_mod", f"p_amp = {self.p_amp} > 0 needs omega_mod > 0")

    def with_(self, **changes) -> "DriveConfig":
        return replace(self, **changes)
