"""The package's one linearization of the mean-field model, and stability.

`jacobians` is the 8x8 Jacobian of the mean-field rhs, state [Re a, Im a,
Re b, Im b, Re s, Im s, q, p]; the Floquet check and the ramp use it.  At a
fixed point it is the drift matrix M of the Gaussian fluctuations,
dO/dt = M O + f, in the order O = [q, p, u1, v1, u2, v2, s_r, s_i] of the
mirror, cavity B, cavity A and the dot (u = sqrt(2) Re, v = sqrt(2) Im); f,
the Brownian force and the cavities' vacuum noise, leaves the dot out.
Where g*N = 0, M is block-triangular (the dot's eigenvalues are -kappa_d
+- i*delta_d), so `drift_matrix` drops the dot's rows.  `stability` reads
M's eigenvalues.  Along the S-curve at fixed rocking C, M's characteristic
polynomial has coefficients quadratic in P = |a_s|^2
(`_characteristic_polynomial`, collected from `steady_state.response`);
`bistability` labels its roots by the P-intervals between the roots of the
constant coefficient (the folds) and of the Hurwitz determinant
(`_hurwitz_determinant`, zero where an eigenvalue pair sums to zero).  The
spectrum (`spectrum._response_power`) solves the same model by Cramer's
rule, from the undivided responses dot, det and opt of
`steady_state.response` in place of M's entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import SystemParams
from .steady_state import SteadyState, _Poly, response

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


def _characteristic_polynomial(params: SystemParams, c_rocking: float) -> np.ndarray:
    """Real (9, 3) array a with det(lam*I - J) = sum_{k,j} a[k, j] lam^k P^j,
    J the 8x8 Jacobian at the fixed point of transmitted power P at rocking
    C, the dot included whatever g*N (where g*N = 0 its factor only adds
    the roots -kappa_d +- i*delta_d).

    The mirror's Schur complement gives, with dot, det and opt the
    :func:`steady_state.response` at nu = -i*lam (so kappa + i(delta + nu)
    = kappa + i*delta + lam) and x' the polynomial x with conjugated
    coefficients, the spectrum's denominator at lam = -i*w:

        (lam^2 + gamma_m lam + omega_m^2) opt opt'
            - i omega_m (omega_m chi)^2 P (det opt' - det' opt).

    opt = opt0 - i*beta*P*det is linear in P (beta = omega_m chi^2, the
    detuning delta_a - beta (P + C)), so with mech = lam^2 + gamma_m lam +
    omega_m^2 the coefficients of P^0, P^1, P^2 are mech opt0 opt0',
    2 beta Im(det opt0') (mech + omega_m^2) and beta^2 det det' (mech + 2
    omega_m^2), Im taken coefficient by coefficient.
    """
    beta = params.omega_m * params.chi ** 2
    _, det, opt0 = response(params, _Poly([0.0, -1j]), params.delta_a - beta * c_rocking)
    det, opt0 = np.array(det.coef), np.array(opt0.coef)
    wm2 = params.omega_m ** 2
    out = np.zeros((9, 3))
    parts = (np.convolve(opt0, opt0.conj()).real,
             2.0 * beta * np.convolve(det, opt0.conj()).imag,
             beta * beta * np.convolve(det, det.conj()).real)
    for j, (part, shift) in enumerate(zip(parts, (0.0, wm2, 2.0 * wm2))):
        column = np.convolve([wm2 + shift, params.gamma_m, 1.0], part)
        out[:column.size, j] = column
    return out


def _hurwitz_determinant(coefficients: np.ndarray) -> np.ndarray:
    """Hurwitz determinant of order n - 1 of each polynomial, ascending
    coefficients a_0..a_n along the last axis.  By Orlando's formula it is
    +-a_n^(n-1) times the product of (lam_i + lam_k) over pairs of roots:
    zero where a pair sums to zero, as a complex pair does on crossing the
    imaginary axis (Gantmacher, Theory of Matrices II, ch. XV)."""
    n = coefficients.shape[-1] - 1
    row, col = np.indices((n - 1, n - 1))
    k = n - 1 - 2 * col + row  # entry (i, j) is a_{n-2j+i-1}, 0-based
    inside = (k >= 0) & (k <= n)
    return np.linalg.det(np.where(inside, coefficients[..., np.clip(k, 0, n)], 0.0))
