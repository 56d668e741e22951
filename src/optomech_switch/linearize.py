"""Linearized fluctuation dynamics about a steady state.

Gaussian fluctuations of the mirror and the two cavity quadratures obey
dO/dt = M O + f with state order O = [q, p, u1, v1, u2, v2], where
(u1, v1) are the amplitude/phase quadratures of cavity B, (u2, v2) those
of cavity A, and f collects the Brownian force and the input vacuum
noises.  The dot operators are held fluctuation-free, so they do not
appear.  The cavity-A block carries the effective detuning Delta of the
steady state, not the bare detuning: the static mirror displacement
shifts the resonance (docs/KNOWN_ERRATA.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .steady_state import SteadyState

# Eigenvalues with real part above this count as unstable.
STABILITY_TOL = -1e-10


def fluctuation_amplitudes(steady: SteadyState, params: SystemParams):
    """Real optomechanical coupling entries (a_plus, a_minus_i) of the drift matrix.

    a_plus  = sqrt(2)*omega_m*chi*Re(a_s)
    a_minus_i = -sqrt(2)*omega_m*chi*Im(a_s)  (the real combination i*a_-)
    """
    scale = math.sqrt(2.0) * params.omega_m * params.chi
    return scale * steady.a_s.real, -scale * steady.a_s.imag


def drift_matrix(params: SystemParams, steady: SteadyState) -> np.ndarray:
    """6x6 real drift matrix at the given fixed point, state order O; a stack
    (..., 6, 6) for a state with array fields.  The caller guarantees fixed
    points (mean-field residual below 1e-8), so the matrix is time independent.
    """
    ap, iam = fluctuation_amplitudes(steady, params)
    wm, gm = params.omega_m, params.gamma_m
    ka, kb, j = params.kappa_a, params.kappa_b, params.j_coupling
    db, d = params.delta_b, steady.eff_detuning
    entries = np.broadcast_arrays(
        0.0,  wm,   0.0,  0.0,  0.0,  0.0,
        -wm, -gm,   0.0,  0.0,  ap,  -iam,
        0.0,  0.0, -kb,   db,   0.0,  j,
        0.0,  0.0, -db,  -kb,  -j,    0.0,
        iam,  0.0,  0.0,  j,   -ka,   d,
        ap,   0.0, -j,    0.0, -d,   -ka)
    m = np.stack(entries, axis=-1).reshape(entries[0].shape + (6, 6))
    if not np.all(np.isfinite(m)):
        raise ValueError("drift matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    eigenvalues: np.ndarray
    max_real_part: float


def stability(m: np.ndarray) -> StabilityReport:
    """Lyapunov stability of the fixed point: all Re(eig) < -1e-10.  For a
    stack of matrices the report's fields are arrays over the stack."""
    eig = np.linalg.eigvals(m)
    max_re = eig.real.max(axis=-1)
    return StabilityReport(stable=max_re < STABILITY_TOL, eigenvalues=eig,
                           max_real_part=max_re)
