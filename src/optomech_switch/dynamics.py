"""Time-domain mean-field dynamics and optical-switch figures of merit.

Integrates the slowly varying mean amplitudes of the two cavities, the
dot coherence and the mirror under the modulated pump
eta(t) = eta0 + p_amp*cos(omega_mod*t).  The dot inversion stays pinned
at its configured value.  The switch ratio (max/min output power over a
drive cycle), the gain (output to input power-modulation amplitude) and
the -3 dB bandwidth of the gain versus modulation frequency are read off
one sampled period of the T-periodic response, found by shooting: Newton
on the period map y -> phi_T(y), with the monodromy matrix from the
variational equations.  A Floquet multiplier (monodromy eigenvalue) of
modulus >= 1 means there is no stable T-periodic response, and the
metrics raise UndefinedRatioError.  A quasi-static up-then-down ramp of
the input power gives the hysteresis loop.

Runs are deterministic: a fixed adaptive integrator with fixed
tolerances, no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (DegenerateGridError, IntegrationFailureError, NoConvergenceError,
                     UndefinedGainError, UndefinedRatioError)
from .params import DriveConfig, SystemParams
from .steady_state import SteadyState, steady_state

# |state|^2 beyond this aborts the integration as a blow-up.
BLOWUP_NORM = 1e8
# integrator rtol (atol is 1e-2 of it)
TOL = 1e-8
SAMPLES_PER_PERIOD = 96
# Newton on the period map: step cap, and the converged update size
# relative to |y| in units of the integrator tolerance
NEWTON_MAX_STEPS = 10
NEWTON_STEP_TOL = 100.0


@dataclass(frozen=True)
class SwitchMetrics:
    switch_ratio: float
    gain: float


def state_vector(steady: SteadyState) -> np.ndarray:
    """Initial condition vector for the integrator from a fixed point."""
    sig = steady.sigma_ge_s
    return np.array([steady.a_s.real, steady.a_s.imag,
                     steady.b_s.real, steady.b_s.imag,
                     sig.real, sig.imag, steady.q_s, steady.p_s])


def _modulated(drive: DriveConfig):
    return lambda t: drive.eta0 + drive.p_amp * math.cos(drive.omega_mod * t)


def _rhs_factory(params: SystemParams, eta_func, c_rocking: float):
    """Mean-field rhs(t, y) and the rhs of its variational equations."""
    ka, kb, kd = params.kappa_a, params.kappa_b, params.kappa_d
    da, db, dd = params.delta_a, params.delta_b, params.delta_d
    j, g, n = params.j_coupling, params.g_qd, params.n_inversion
    wm, gm = params.omega_m, params.gamma_m
    g_om = params.omega_m * params.chi
    lam_sin = params.lambda_pump * n * math.sin(params.theta)
    lam_cos = params.lambda_pump * n * math.cos(params.theta)

    def rhs(t, y):
        ar, ai, br, bi, sr, si, q, p = y
        eta = eta_func(t)
        dar = -ka * ar + da * ai + j * bi + eta - g_om * q * ai
        dai = -ka * ai - da * ar - j * br + g_om * q * ar
        dbr = -kb * br + db * bi + g * si + j * ai
        dbi = -kb * bi - db * br - g * sr - j * ar
        dsr = -kd * sr + dd * si - g * n * bi - lam_sin
        dsi = -kd * si - dd * sr + g * n * br - lam_cos
        dq = wm * p
        dp = -wm * q + g_om * (ar * ar + ai * ai + c_rocking) - gm * p
        return (dar, dai, dbr, dbi, dsr, dsi, dq, dp)

    linear = np.array([[-ka, da, 0, j, 0, 0, 0, 0],
                       [-da, -ka, -j, 0, 0, 0, 0, 0],
                       [0, j, -kb, db, 0, g, 0, 0],
                       [-j, 0, -db, -kb, -g, 0, 0, 0],
                       [0, 0, 0, -g * n, -kd, dd, 0, 0],
                       [0, 0, g * n, 0, -dd, -kd, 0, 0],
                       [0, 0, 0, 0, 0, 0, 0, wm],
                       [0, 0, 0, 0, 0, 0, -wm, -gm]], dtype=float)

    def variational(t, z):
        # the state, then its 8x8 fundamental matrix phi: d(phi)/dt = jac(y) @ phi,
        # with the constant part plus the linearized q*a and |a|^2 terms
        y, phi = z[:8], z[8:].reshape(8, 8)
        ar, ai, q = y[0], y[1], y[6]
        dphi = linear @ phi
        dphi[0] -= g_om * (q * phi[1] + ai * phi[6])
        dphi[1] += g_om * (q * phi[0] + ar * phi[6])
        dphi[7] += 2.0 * g_om * (ar * phi[0] + ai * phi[1])
        return np.concatenate((rhs(t, y), dphi.ravel()))

    return rhs, variational


def _blowup_event(t, y):
    # the state only: a variational solve appends its fundamental matrix
    return BLOWUP_NORM - float(np.dot(y[:8], y[:8]))


_blowup_event.terminal = True
_blowup_event.direction = -1


def _integrate(rhs, t_span, y0, tol, t_eval) -> np.ndarray:
    kwargs = dict(t_span=t_span, y0=y0, t_eval=t_eval, rtol=tol,
                  atol=tol * 1e-2, events=_blowup_event, dense_output=False)
    sol = solve_ivp(rhs, method="RK45", **kwargs)
    if not sol.success and sol.status != 1:
        # step-size trouble with the explicit pair: retry implicitly
        sol = solve_ivp(rhs, method="Radau", **kwargs)
    if sol.t_events[0].size:
        raise IntegrationFailureError("state norm blew up",
                                      last_valid_time=float(sol.t_events[0][0]))
    if not sol.success:
        last = float(sol.t[-1]) if sol.t.size else t_span[0]
        raise IntegrationFailureError(f"integrator failed: {sol.message}",
                                      last_valid_time=last)
    if not np.all(np.isfinite(sol.y)):
        raise IntegrationFailureError("non-finite state encountered",
                                      last_valid_time=float(sol.t[-1]))
    return sol.y


def _refined_extrema(series: np.ndarray) -> tuple[float, float]:
    """(max, min) of a sampled smooth series, parabola-refined at interior extrema."""

    def refine(idx):
        if idx == 0 or idx == series.size - 1:
            return series[idx]
        y0, y1, y2 = series[idx - 1], series[idx], series[idx + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom == 0.0:
            return y1
        delta = 0.5 * (y0 - y2) / denom
        if abs(delta) > 1.0:
            return y1
        return y1 - 0.25 * (y0 - y2) * delta

    return float(refine(int(np.argmax(series)))), float(refine(int(np.argmin(series))))


def switch_ratio(output_power: np.ndarray) -> float:
    """max/min of the sampled output power."""
    hi, lo = _refined_extrema(output_power)
    if lo <= 1e-30:
        raise UndefinedRatioError(f"minimum output power {lo:.3e} is not positive")
    return hi / lo


def gain(output_power: np.ndarray, drive_power: np.ndarray) -> float:
    """Output power modulation amplitude over input power modulation
    amplitude, from samples at the same times."""
    out_hi, out_lo = _refined_extrema(output_power)
    in_hi, in_lo = _refined_extrema(drive_power)
    in_amp = 0.5 * (in_hi - in_lo)
    if in_amp <= 0.0:
        raise UndefinedGainError("input power modulation amplitude vanished")
    return 0.5 * (out_hi - out_lo) / in_amp


def _periodic_orbit(params: SystemParams, drive: DriveConfig) -> np.ndarray:
    """Start state of the attracting T-periodic orbit: from the lower branch,
    one warm-up period, then Newton on y -> phi_T(y) - y with the monodromy
    dphi_T/dy, whose eigenvalues are the Floquet multipliers."""
    if drive.omega_mod <= 0.0 or drive.p_amp <= 0.0:
        raise UndefinedGainError("switch metrics require p_amp > 0 and omega_mod > 0")
    span = (0.0, 2.0 * math.pi / drive.omega_mod)
    rhs, variational = _rhs_factory(params, _modulated(drive), 0.0)
    y = _integrate(rhs, span, state_vector(steady_state(params, drive.eta0, 0.0, "lower")),
                   TOL, span)[:, -1]
    eye = np.eye(8)
    try:
        for _ in range(NEWTON_MAX_STEPS):
            z = _integrate(variational, span, np.concatenate((y, eye.ravel())),
                           TOL, span)[:, -1]
            monodromy = z[8:].reshape(8, 8)
            step = np.linalg.solve(monodromy - eye, z[:8] - y)
            y = y - step
            if np.linalg.norm(step) <= NEWTON_STEP_TOL * TOL * max(1.0, np.linalg.norm(y)):
                break
        else:
            raise NoConvergenceError(f"periodic orbit: no convergence in {NEWTON_MAX_STEPS} steps")
        mu = float(np.max(np.abs(np.linalg.eigvals(monodromy))))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"periodic orbit: {exc}") from exc
    if mu >= 1.0:
        raise UndefinedRatioError(f"no stable T-periodic response, max |mu| = {mu:.4g}")
    return y


def _periodic_response(params: SystemParams,
                       drive: DriveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Output and drive power over one period of the T-periodic orbit, at
    SAMPLES_PER_PERIOD + 1 uniform times, both ends included."""
    y0 = _periodic_orbit(params, drive)
    period = 2.0 * math.pi / drive.omega_mod
    t = np.linspace(0.0, period, SAMPLES_PER_PERIOD + 1)
    y = _integrate(_rhs_factory(params, _modulated(drive), 0.0)[0], (0.0, period), y0, TOL, t)
    return (np.abs(y[0] + 1j * y[1]) ** 2,
            (drive.eta0 + drive.p_amp * np.cos(drive.omega_mod * t)) ** 2)


def switch_metrics(params: SystemParams, drive: DriveConfig) -> SwitchMetrics:
    """Switch ratio and gain of the periodic response (no bandwidth scan)."""
    output_power, drive_power = _periodic_response(params, drive)
    return SwitchMetrics(switch_ratio=switch_ratio(output_power),
                         gain=gain(output_power, drive_power))


def gain_vs_frequency(params: SystemParams, eta0: float, p_amp: float,
                      omega_grid) -> np.ndarray:
    """Gain of the periodic response at each modulation frequency of the grid."""
    return np.array([gain(*_periodic_response(
        params, DriveConfig(eta0=eta0, p_amp=p_amp, omega_mod=float(om))))
        for om in np.asarray(omega_grid, dtype=float)])


def bandwidth(params: SystemParams, eta0: float, p_amp: float, omega_grid) -> float:
    """-3 dB width of gain(omega_mod): measure of {gain >= max/sqrt(2)}.

    Interval boundaries between grid points are located by linear
    interpolation.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.size < 2:
        raise DegenerateGridError("bandwidth needs at least 2 frequency points")
    if np.any(np.diff(omega_grid) <= 0.0):
        raise DegenerateGridError("frequency grid must be strictly ascending")
    g = gain_vs_frequency(params, eta0, p_amp, omega_grid)
    top = np.max(g)
    if top <= 0.0:
        return 0.0
    return threshold_measure(omega_grid, g, top / math.sqrt(2.0))


def threshold_measure(x: np.ndarray, y: np.ndarray, level: float) -> float:
    """Total length of {x : y(x) >= level} for a piecewise-linear y."""
    d = np.asarray(y, dtype=float) - level
    hi, lo = np.maximum(d[:-1], d[1:]), np.minimum(d[:-1], d[1:])
    # share of each segment at or above the level: all, none, or up to the crossing
    share = np.where(lo >= 0.0, 1.0, np.maximum(hi, 0.0) / np.where(hi > lo, hi - lo, 1.0))
    return float(np.sum(share * np.diff(x)))


def hysteresis_sweep(params: SystemParams, input_ramp, c_rocking: float = 0.0,
                     rate: float | None = None):
    """Quasi-static up-then-down sweep of the input power.

    ``input_ramp`` is the ascending grid of input powers (eta0^2) for the
    upward leg; the downward leg retraces it in reverse.  The default
    ramp rate gamma_m/20 per unit input power keeps the sweep adiabatic
    relative to the mechanical relaxation.  Between the legs the drive is
    held at the top input for 20 times the slowest of the cavity-A,
    mechanical and damping times, so post-jump ringing does not
    contaminate the downward leg.  Returns (up, down), each an (n, 2)
    array of (input_power, output_power).
    """
    ramp = np.asarray(input_ramp, dtype=float)
    if ramp.size < 2 or np.any(np.diff(ramp) <= 0.0):
        raise DegenerateGridError("input ramp must be ascending with >= 2 points")
    if np.any(ramp < 0.0):
        raise ValueError("input powers must be >= 0")
    if rate is None:
        rate = params.gamma_m / 20.0
    settle_time = 20.0 * max(1.0 / params.kappa_a,
                             params.gamma_m / params.omega_m**2,
                             1.0 / params.gamma_m)
    span = ramp[-1] - ramp[0]
    duration = span / rate

    def leg(powers, y0):
        p0, p1 = powers[0], powers[-1]

        def eta_func(t):
            frac = min(max(t / duration, 0.0), 1.0)
            return math.sqrt(p0 + (p1 - p0) * frac)

        t_eval = (powers - p0) / (p1 - p0) * duration
        y = _integrate(_rhs_factory(params, eta_func, c_rocking)[0], (0.0, duration), y0,
                       TOL, t_eval)
        out = y[0] ** 2 + y[1] ** 2
        return np.column_stack([powers, out]), y[:, -1]

    start = steady_state(params, math.sqrt(ramp[0]), c_rocking, "lower")
    up, y_top = leg(ramp, state_vector(start))
    eta_top = math.sqrt(ramp[-1])
    y_settled = _integrate(_rhs_factory(params, lambda t: eta_top, c_rocking)[0],
                           (0.0, settle_time), y_top, TOL,
                           np.array([0.0, settle_time]))[:, -1]
    down, _ = leg(ramp[::-1], y_settled)
    return up, down
