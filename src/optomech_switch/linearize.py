"""The package's one linearization of the mean-field model, and stability.

`jacobians` is the 8x8 Jacobian of the mean-field rhs, state [Re a, Im a,
Re b, Im b, Re s, Im s, q, p]; the Floquet check and the ramp use it.  At a
fixed point it is the drift matrix M of the Gaussian fluctuations,
dO/dt = M O + f, in the order O = [q, p, u1, v1, u2, v2, s_r, s_i] of the
mirror, cavity B, cavity A and the dot (u = sqrt(2) Re, v = sqrt(2) Im); f,
the Brownian force and the cavities' vacuum noise, leaves the dot out.
Where g*N = 0, M is block-triangular (the dot's eigenvalues are -kappa_d
+- i*delta_d), so `drift_matrix` drops the dot's rows.  M decides stability;
the spectrum (`spectrum._response_power`) solves the same model by
Cramer's rule, from the undivided responses dot, det and opt of
`steady_state.response` in place of M's entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .steady_state import SteadyState

# Eigenvalues with real part above this count as unstable.
STABILITY_TOL = -1e-10
# Jacobian index of each entry of the quadrature order O
QUADRATURE_ORDER = [6, 7, 2, 3, 0, 1, 4, 5]


def jacobians(params: SystemParams, a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Stack of 8x8 Jacobians of the mean-field rhs at states with these a and q."""
    ka, kb, kd = params.kappa_a, params.kappa_b, params.kappa_d
    da, db, dd = params.delta_a, params.delta_b, params.delta_d
    j, g, gn = params.j_coupling, params.g_qd, params.g_qd * params.n_inversion
    wm, gm = params.omega_m, params.gamma_m
    g_om = params.omega_m * params.chi
    jac = np.zeros((a.size, 8, 8))
    jac[:] = [[-ka, da, 0, j, 0, 0, 0, 0],
              [-da, -ka, -j, 0, 0, 0, 0, 0],
              [0, j, -kb, db, 0, g, 0, 0],
              [-j, 0, -db, -kb, -g, 0, 0, 0],
              [0, 0, 0, -gn, -kd, dd, 0, 0],
              [0, 0, gn, 0, -dd, -kd, 0, 0],
              [0, 0, 0, 0, 0, 0, 0, wm],
              [0, 0, 0, 0, 0, 0, -wm, -gm]]
    jac[:, 0, 1] -= g_om * q
    jac[:, 0, 6] = -g_om * a.imag
    jac[:, 1, 0] += g_om * q
    jac[:, 1, 6] = g_om * a.real
    jac[:, 7, 0] = 2.0 * g_om * a.real
    jac[:, 7, 1] = 2.0 * g_om * a.imag
    return jac


def drift_matrix(params: SystemParams, steady: SteadyState) -> np.ndarray:
    """Drift matrix M at a fixed point, order O: 8x8, or 6x6 where g*N = 0;
    a stack (..., n, n) for a state with array fields.  The caller
    guarantees fixed points (mean-field residual below 1e-8)."""
    order = QUADRATURE_ORDER[:6 if params.g_qd * params.n_inversion == 0.0 else 8]
    jac = jacobians(params, np.ravel(steady.a_s), np.ravel(steady.q_s))
    m = jac[:, order][:, :, order]
    # u = sqrt(2) Re: only the entries between the mirror and the fields scale
    m[:, :2, 2:] /= math.sqrt(2.0)
    m[:, 2:, :2] *= math.sqrt(2.0)
    if not np.all(np.isfinite(m)):
        raise ValueError("drift matrix has non-finite entries")
    return m.reshape(np.shape(steady.a_s) + m.shape[1:])


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    max_real_part: float


def stability(m: np.ndarray) -> StabilityReport:
    """Lyapunov stability of the fixed point: all Re(eig) < -1e-10.  For a
    stack of matrices the report's fields are arrays over the stack."""
    max_re = np.linalg.eigvals(m).real.max(axis=-1)
    return StabilityReport(stable=max_re < STABILITY_TOL, max_real_part=max_re)
