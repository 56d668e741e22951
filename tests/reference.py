"""Brute-force oracles for the tests, independent of the routes they check.

- ``integrate_meanfield`` samples the mean-field equations over any time
  span and start state, with the integrator of ``dynamics``; the switch
  metrics are checked against ``switch_ratio`` and ``gain`` of its densely
  sampled periodic response, over long runs and over one period.
- ``orbit_state`` sums a harmonic-balance orbit's Fourier series at one
  time, the start state of those one-period integrations.
- ``monodromy`` integrates the variational equations over one period, the
  Floquet oracle for the harmonic-balance stability check.
- ``dense_newton_step`` solves the collocation Newton system on the 2n
  real unknowns (Re da, Im da) with one real 2n x 2n solve, the assembly
  the harmonic balance used before its step was split: the oracle of
  ``dynamics._newton_step``.
- ``tuple_rhs`` is the mean-field rhs returned as a tuple of floats, one
  expression per derivative: the bit-for-bit oracle of the ramp's rhs,
  which packs the same values into one reused array.
- ``expanded_cubic`` is the transmitted-power cubic expanded by hand in
  the helper constants A1, A2 and the response's R0, I0 at P = 0
  (docs/cubic_derivation.md), the form that KNOWN_ERRATA 1-3 compare with
  the printed one: the oracle of ``steady_state.cubic_coefficients``,
  exact in Fractions.  ``refined_root`` polishes a root of it to 50 digits.
- ``steady_state_direct`` finds a fixed point by damped Newton on the
  cavity-A amplitude, with no use of the transmitted-power cubic, then
  cavity B and the dot from one 2x2 solve of their stationary equations;
  it shares no algebra with ``steady_state``.  ``meanfield_residual``
  evaluates the unreduced equations of motion.
- ``hysteresis_reference`` integrates the legs and the settle of a
  hysteresis sweep with DOP853 at rtol 1e-13, the accuracy oracle of the
  ramp integrator.  It copies each derivative of the ramp's rhs, whose
  array the next call rewrites, since DOP853 keeps the last one.
- ``jump_input_power`` reads the switching input off a swept hysteresis
  curve, for comparison with the exact knees.
- ``printed_drift_matrix`` is the printed model's fluctuation drift matrix,
  written out entry by entry: the mirror and the two cavities, with the
  dot held fluctuation-free, exact where g*N = 0.
  ``model_drift_matrix`` borders it with the dot's rows and columns where
  g*N != 0, written out from the mean-field equations: the oracle of
  ``linearize.drift_matrix``.
- ``reference_roots`` is the per-point root route that the batched solver
  replaced: ``np.roots``, an |imag| cut, Newton steps, a clamp and a merge,
  each with its own tolerance.  ``root_max_real_eig`` is the per-root
  labelling route that ``bistability``'s interval labels replaced: the
  largest real part of the drift eigenvalues at each root's own steady
  state.  ``reference_branches`` joins them per grid point.
- ``mp_hurwitz_real_roots`` are the real roots of Delta_7(P), the Hurwitz
  determinant of the characteristic polynomial along the S-curve, in
  mpmath: the model's 8x8 drift matrix written out (the dot bordered at
  any g*N), Faddeev-LeVerrier for its characteristic polynomial, the
  degree-12 polynomial interpolated at P = 0..12 in 60 digits and its
  companion eigenvalues in 40; the oracle of the Hopf boundaries of
  ``bistability._boundaries``.
- ``transfer_rows`` is the response T_k of q to each of the five noise
  inputs, complex, by Cramer's rule on the linearized model: the
  per-channel oracle of ``spectrum._response_power``, which sums only
  their squared moduli, in real arithmetic.
- ``mirror_transfer`` is the response T_0 of q to the Brownian force from
  the mirror susceptibility with the optical spring, cavity B and the dot
  eliminated per frequency, with no matrix: the oracle of the Brownian
  channel, which ``transfer_rows`` reaches by Cramer's rule.
- ``repaired_closed_form`` is the printed closed-form spectrum
  (``closed_form._coefficients``: the printed Dd and K brackets as
  polynomials in w, by Horner's rule) with its three transcription defects
  repaired and K1 on the even Brownian weight (KNOWN_ERRATA 9-11): the
  matrix route's S_q where g*N = 0, from the paper's own algebra.  The
  printed text itself, term by term on a grid (``closed_form._printed``), is
  the oracle of ``_coefficients`` in tests/test_closed_form.py.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from optomech_switch import (DriveConfig, SteadyState, SystemParams, drift_matrix, stability,
                             steady_state_from_ptrans)
from optomech_switch.closed_form import _coefficients, fluctuation_amplitudes
from optomech_switch.dynamics import (TOL, _integrate, _jacobian_factory, _rhs_factory,
                                      state_vector)
from optomech_switch.errors import NoConvergenceError, UndefinedGainError, UndefinedRatioError
from optomech_switch.linearize import STABILITY_TOL
from optomech_switch.spectrum import thermal_coth_times_omega
from optomech_switch.steady_state import cubic_coefficients, response, steady_state


# trace samples per drive period of a modulated drive
SAMPLES_PER_PERIOD = 96
# rtol of the ramp oracle (atol is 1e-2 of it)
RAMP_REFERENCE_TOL = 1e-13


@dataclass(frozen=True)
class TimeTrace:
    t: np.ndarray
    a: np.ndarray       # complex cavity-A amplitude
    b: np.ndarray       # complex cavity-B amplitude
    sigma: np.ndarray   # complex dot coherence (equation-of-motion sign)
    q: np.ndarray
    p: np.ndarray
    output_power: np.ndarray
    drive_power: np.ndarray


def drive_value(t, drive: DriveConfig):
    """Instantaneous pump amplitude eta(t)."""
    return drive.eta0 + drive.p_amp * np.cos(drive.omega_mod * np.asarray(t))


def _modulated(drive: DriveConfig):
    return lambda t: drive.eta0 + drive.p_amp * math.cos(drive.omega_mod * t)


def integrate_meanfield(params: SystemParams, drive: DriveConfig, t_span,
                        init=None, tol: float = TOL, c_rocking: float = 0.0,
                        samples_per_period: int = SAMPLES_PER_PERIOD) -> TimeTrace:
    """Integrate the mean-field equations over ``t_span``.

    ``init`` may be a SteadyState, an 8-vector, or None (vacuum start).
    ``c_rocking`` adds the averaged radiation-pressure shift of a fast
    modulation to the mirror force; leave it at 0 when the modulation is
    integrated explicitly.  Samples are uniform: ``samples_per_period`` per
    drive period with a modulated drive, else 2000 over the span.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must have positive length")
    if init is None:
        y0 = np.zeros(8)
    elif isinstance(init, SteadyState):
        y0 = state_vector(init)
    else:
        y0 = np.asarray(init, dtype=float)
        if y0.shape != (8,):
            raise ValueError("init vector must have 8 components")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")

    if drive.p_amp > 0.0 and drive.omega_mod > 0.0:
        # +1 keeps the sample step commensurate with the drive period
        period = 2.0 * math.pi / drive.omega_mod
        n_samples = max(2, int(round((t1 - t0) / period * samples_per_period)) + 1)
    else:
        n_samples = 2000
    t_eval = np.linspace(t0, t1, n_samples)

    y = _integrate(_rhs_factory(params, _modulated(drive), c_rocking),
                   _jacobian_factory(params), y0, tol, t_eval)
    a = y[0] + 1j * y[1]
    b = y[2] + 1j * y[3]
    sigma = y[4] + 1j * y[5]
    eta = drive_value(t_eval, drive)
    return TimeTrace(t=t_eval, a=a, b=b, sigma=sigma, q=y[6], p=y[7],
                     output_power=np.abs(a) ** 2, drive_power=eta**2)


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


def orbit_state(orbit, t: float) -> np.ndarray:
    """8-vector of the integrator state of ``orbit`` (a
    ``dynamics.PeriodicOrbit``) at time t."""
    def at(coef):
        k = np.fft.fftfreq(coef.size, 1.0 / coef.size)  # harmonic of each fft slot
        return complex(np.sum(coef * np.exp(1j * k * orbit.omega_mod * t)))

    a, b, sig = at(orbit.a), at(orbit.b), at(orbit.sigma)
    return np.array([a.real, a.imag, b.real, b.imag, sig.real, sig.imag,
                     at(orbit.q).real, at(orbit.p).real])


def dense_newton_step(frozen: np.ndarray, feedback: np.ndarray, a: np.ndarray,
                      residual: np.ndarray) -> np.ndarray:
    """The da that solves frozen da + feedback Re(conj(a) da) = residual, as
    one real system on (Re da, Im da): Re(conj(a) da) = Re(a) Re(da)
    + Im(a) Im(da) scales the feedback's columns."""
    n = a.size
    jac = np.empty((2 * n, 2 * n))
    jac[:n, :n] = frozen.real + feedback.real * a.real
    jac[:n, n:] = feedback.real * a.imag - frozen.imag
    jac[n:, :n] = frozen.imag + feedback.imag * a.real
    jac[n:, n:] = frozen.real + feedback.imag * a.imag
    step = np.linalg.solve(jac, np.concatenate((residual.real, residual.imag)))
    return step[:n] + 1j * step[n:]


def tuple_rhs(params: SystemParams, eta_func, c_rocking: float):
    """Mean-field rhs(t, y) as a tuple of Python floats, each derivative
    written out as one expression: the oracle of ``dynamics._rhs_factory``,
    whose packed array must hold the same bits."""
    ka, kb, kd = params.kappa_a, params.kappa_b, params.kappa_d
    da, db, dd = params.delta_a, params.delta_b, params.delta_d
    j, g, n = params.j_coupling, params.g_qd, params.n_inversion
    wm, gm = params.omega_m, params.gamma_m
    g_om = params.omega_m * params.chi
    lam_sin = params.lambda_pump * n * math.sin(params.theta)
    lam_cos = params.lambda_pump * n * math.cos(params.theta)

    def rhs(t, y):
        ar, ai, br, bi, sr, si, q, p = y.tolist()
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

    return rhs


def variational_rhs(params: SystemParams, eta_func, c_rocking: float):
    """rhs of the mean-field state and its 8x8 fundamental matrix phi,
    d(phi)/dt = jac(y) @ phi: the constant part plus the linearized q*a
    and |a|^2 terms."""
    ka, kb, kd = params.kappa_a, params.kappa_b, params.kappa_d
    da, db, dd = params.delta_a, params.delta_b, params.delta_d
    j, g, n = params.j_coupling, params.g_qd, params.n_inversion
    wm, gm = params.omega_m, params.gamma_m
    g_om = params.omega_m * params.chi
    rhs = _rhs_factory(params, eta_func, c_rocking)
    linear = np.array([[-ka, da, 0, j, 0, 0, 0, 0],
                       [-da, -ka, -j, 0, 0, 0, 0, 0],
                       [0, j, -kb, db, 0, g, 0, 0],
                       [-j, 0, -db, -kb, -g, 0, 0, 0],
                       [0, 0, 0, -g * n, -kd, dd, 0, 0],
                       [0, 0, g * n, 0, -dd, -kd, 0, 0],
                       [0, 0, 0, 0, 0, 0, 0, wm],
                       [0, 0, 0, 0, 0, 0, -wm, -gm]], dtype=float)

    def variational(t, z):
        y, phi = z[:8], z[8:].reshape(8, 8)
        ar, ai, q = y[0], y[1], y[6]
        dphi = linear @ phi
        dphi[0] -= g_om * (q * phi[1] + ai * phi[6])
        dphi[1] += g_om * (q * phi[0] + ar * phi[6])
        dphi[7] += 2.0 * g_om * (ar * phi[0] + ai * phi[1])
        return np.concatenate((rhs(t, y), dphi.ravel()))

    return variational


def monodromy(params: SystemParams, drive: DriveConfig, y0: np.ndarray,
              tol: float = 1e-11) -> tuple[np.ndarray, np.ndarray]:
    """(state after one drive period from y0, monodromy matrix), from the
    variational equations; the eigenvalues of the matrix are the Floquet
    multipliers when y0 lies on the T-periodic orbit."""
    period = 2.0 * math.pi / drive.omega_mod
    z0 = np.concatenate((y0, np.eye(8).ravel()))
    sol = solve_ivp(variational_rhs(params, _modulated(drive), 0.0), (0.0, period), z0,
                    method="DOP853", rtol=tol, atol=tol * 1e-2)
    z = sol.y[:, -1]
    return z[:8], z[8:].reshape(8, 8)


def meanfield_residual(params: SystemParams, eta0: float, c_rocking: float,
                       state: SteadyState) -> np.ndarray:
    """Right-hand sides of the mean-field equations at a candidate state.

    Evaluated directly from the unreduced equations of motion (with the
    averaged radiation-pressure shift ``+ G*C``), so it is independent of
    the elimination algebra used elsewhere.  Returns 7 real residuals.
    """
    a, b = state.a_s, state.b_s
    sig = state.sigma_ge_s
    q, p = state.q_s, state.p_s
    g_om = params.omega_m * params.chi  # optomechanical coupling G
    da = (-1j * params.delta_a * a - 1j * params.j_coupling * b + eta0
          + 1j * g_om * a * q - params.kappa_a * a)
    db = (-1j * params.delta_b * b - 1j * params.g_qd * sig
          - 1j * params.j_coupling * a - params.kappa_b * b)
    dsig = ((-1j * params.delta_d - params.kappa_d) * sig
            + 1j * params.g_qd * b * params.n_inversion
            - 1j * params.lambda_pump * cmath.exp(-1j * params.theta) * params.n_inversion)
    dq = params.omega_m * p
    dp = (-params.omega_m * q + g_om * (abs(a) ** 2 + c_rocking) - params.gamma_m * p)
    return np.array([da.real, da.imag, db.real, db.imag,
                     abs(dsig), dq, dp], dtype=float)


def expanded_cubic(params: SystemParams, eta0: float, c_rocking: float) -> tuple:
    """(c3, c2, c1, c0) of the transmitted-power cubic from the hand
    expansion in A1, A2, R0 and I0, in exact rationals of the double inputs
    (and of sin, cos theta)."""
    ka, kb, kd, da, db, dd, j, g, lam, n, wm, chi, eta0, c = map(Fraction, (
        params.kappa_a, params.kappa_b, params.kappa_d, params.delta_a, params.delta_b,
        params.delta_d, params.j_coupling, params.g_qd, params.lambda_pump,
        params.n_inversion, params.omega_m, params.chi, eta0, c_rocking))
    sin_t, cos_t = Fraction(math.sin(params.theta)), Fraction(math.cos(params.theta))
    a1 = -g * g * n + kb * kd - db * dd
    a2 = db * kd + kb * dd
    a_sq = a1 * a1 + a2 * a2
    beta, j2 = wm * chi * chi, j * j
    dt = da - beta * c  # the rocking-shifted detuning
    r0 = ka * a1 + j2 * kd - dt * a2
    i0 = dt * a1 + ka * a2 + j2 * dd
    lam_n = j * g * lam * n
    return (a_sq * beta * beta, -2 * beta * (dt * a_sq - j2 * (kd * a2 - dd * a1)),
            r0 * r0 + i0 * i0,
            -(eta0 * eta0 * a_sq + 2 * eta0 * lam_n * (a1 * sin_t + a2 * cos_t) + lam_n * lam_n))


def refined_root(coeffs, x: float) -> Decimal:
    """Newton on the polynomial with exact (Fraction) coefficients, leading
    first, from the simple root's estimate x, in 50-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 50
        cs = [Decimal(c.numerator) / Decimal(c.denominator) for c in coeffs]
        x = Decimal(x)
        for _ in range(8):
            p = dp = Decimal(0)
            for c in cs:
                dp = dp * x + p
                p = p * x + c
            x -= p / dp
        return x


def steady_state_direct(params: SystemParams, eta0: float, c_rocking: float,
                        initial_guess: complex | None = None,
                        max_iter: int = 200, max_halvings: int = 40) -> SteadyState:
    """Fixed point by damped Newton iteration on the complex amplitude a_s.

    Independent of the polynomial route: iterates the self-consistency
    condition with Delta evaluated at the current |a_s|^2.  Raises
    :class:`NoConvergenceError` when the residual cannot be driven below
    tolerance; callers retry from a different branch guess.
    """
    dd = params.kappa_d + 1j * params.delta_d
    # the cavity-B/dot determinant A1 + i*A2, and the dot pump lambda*N*exp(-i*theta)
    asum = (params.kappa_b + 1j * params.delta_b) * dd - params.g_qd**2 * params.n_inversion
    pump = params.lambda_pump * params.n_inversion * cmath.exp(-1j * params.theta)
    j2 = params.j_coupling**2
    beta = params.omega_m * params.chi**2
    dt = params.delta_a - beta * c_rocking
    src = eta0 * asum + 1j * params.j_coupling * params.g_qd * pump

    def denom(p):
        return (1j * (dt - beta * p) + params.kappa_a) * asum + j2 * dd

    if initial_guess is None:
        initial_guess = src / denom(0.0) if abs(denom(0.0)) > 1e-300 else 0.0
    a = complex(initial_guess)
    if not (math.isfinite(a.real) and math.isfinite(a.imag)):
        raise ValueError("initial_guess must be finite")

    res_scale = max(1.0, abs(src))
    dw = -1j * beta * asum  # d(denom)/d|a|^2

    def residual(a):
        return a * denom(abs(a) ** 2) - src

    r = residual(a)
    for _ in range(max_iter):
        if abs(r) < 1e-12 * res_scale:
            break
        p = abs(a) ** 2
        w = denom(p)
        # Wirtinger derivatives of r = a*W(|a|^2) - src
        r_a = w + p * dw
        r_ac = a * a * dw
        det = (r_a.real + r_ac.real) * (r_a.real - r_ac.real) \
            - (r_ac.imag - r_a.imag) * (r_a.imag + r_ac.imag)
        if det == 0.0 or not math.isfinite(det):
            raise NoConvergenceError("singular Newton system for steady state")
        # solve r_a*step + r_ac*conj(step) = -r as a real 2x2 system
        rhs_re, rhs_im = -r.real, -r.imag
        m11 = r_a.real + r_ac.real
        m12 = -r_a.imag + r_ac.imag
        m21 = r_a.imag + r_ac.imag
        m22 = r_a.real - r_ac.real
        sx = (rhs_re * m22 - rhs_im * m12) / det
        sy = (rhs_im * m11 - rhs_re * m21) / det
        step = complex(sx, sy)

        improved = False
        for _ in range(max_halvings):
            a_new = a + step
            r_new = residual(a_new)
            if abs(r_new) < abs(r):
                a, r = a_new, r_new
                improved = True
                break
            step *= 0.5
        if not improved:
            raise NoConvergenceError(
                f"Newton damping exhausted at residual {abs(r):.3e}")
    else:
        raise NoConvergenceError(
            f"no convergence after {max_iter} iterations (residual {abs(r):.3e})")

    # the stationary cavity-B and dot equations, solved for (b, sigma_ge)
    block = np.array([[params.kappa_b + 1j * params.delta_b, 1j * params.g_qd],
                      [-1j * params.g_qd * params.n_inversion, dd]])
    b, sig = np.linalg.solve(block, [-1j * params.j_coupling * a, -1j * pump])
    p = abs(a) ** 2
    state = SteadyState(a_s=a, b_s=complex(b), sigma_eg_s=-complex(sig),
                        q_s=params.chi * (p + c_rocking), p_s=0.0, p_trans=p,
                        eff_detuning=dt - beta * p)
    full = meanfield_residual(params, eta0, c_rocking, state)
    if np.max(np.abs(full)) >= 1e-10:
        raise NoConvergenceError(
            f"converged amplitude fails mean-field residual check ({np.max(np.abs(full)):.3e})")
    return state


def hysteresis_reference(params: SystemParams, input_ramp, c_rocking: float = 0.0,
                         rate: float | None = None):
    """The (up, down) curves of ``hysteresis_sweep``: the same ramp legs
    and settle at the top input, integrated with DOP853 at
    RAMP_REFERENCE_TOL."""
    ramp = np.asarray(input_ramp, dtype=float)
    if rate is None:
        rate = params.gamma_m / 20.0
    duration = (ramp[-1] - ramp[0]) / rate
    settle_time = 20.0 * max(1.0 / params.kappa_a, params.gamma_m / params.omega_m**2,
                             1.0 / params.gamma_m)

    def run(eta_func, t_eval, y0):
        rhs = _rhs_factory(params, eta_func, c_rocking)
        # DOP853 keeps the last derivative, which the next call would rewrite
        sol = solve_ivp(lambda t, y: rhs(t, y).copy(), (t_eval[0], t_eval[-1]),
                        y0, method="DOP853", t_eval=t_eval, rtol=RAMP_REFERENCE_TOL,
                        atol=RAMP_REFERENCE_TOL * 1e-2)
        assert sol.success, sol.message
        return sol.y

    def leg(powers, y0):
        # input power linear in time, from p0 to p1
        p0, p1 = powers[0], powers[-1]
        t_eval = (powers - p0) / (p1 - p0) * duration
        y = run(lambda t: math.sqrt(p0 + (p1 - p0) * min(max(t / duration, 0.0), 1.0)),
                t_eval, y0)
        return np.column_stack([powers, y[0] ** 2 + y[1] ** 2]), y[:, -1]

    start = steady_state(params, math.sqrt(ramp[0]), c_rocking, "lower")
    up, y_top = leg(ramp, state_vector(start))
    eta_top = math.sqrt(ramp[-1])
    y_settled = run(lambda t: eta_top, np.array([0.0, settle_time]), y_top)[:, -1]
    down, _ = leg(ramp[::-1], y_settled)
    return up, down


def jump_input_power(curve: np.ndarray) -> tuple[float, float]:
    """Input power at the largest output jump of a swept curve.

    A jump may smear over several ramp samples, so consecutive
    same-direction output steps are aggregated into runs; the largest run
    wins and its half-change point is reported.  Returns (input power at
    the jump, jump magnitude).
    """
    inp, out = curve[:, 0], curve[:, 1]
    steps = np.diff(out)
    best = (0.0, 0, 0)  # |total change|, start, stop (inclusive step range)
    i = 0
    while i < steps.size:
        sign = np.sign(steps[i])
        j = i
        while j + 1 < steps.size and np.sign(steps[j + 1]) == sign:
            j += 1
        total = abs(out[j + 1] - out[i])
        if total > best[0]:
            best = (total, i, j)
        i = j + 1
    total, i, j = best
    if total == 0.0:
        return float(inp[0]), 0.0
    cum = np.abs(out[i:j + 2] - out[i])
    half = np.searchsorted(cum, 0.5 * total)
    k = min(i + max(half, 1) - 1, j)
    return float(0.5 * (inp[k] + inp[k + 1])), float(total)


def printed_drift_matrix(params: SystemParams, steady: SteadyState) -> np.ndarray:
    """6x6 drift matrix of the printed fluctuation model in the state order
    [q, p, u1, v1, u2, v2] of ``linearize.drift_matrix``, with the printed
    couplings a_plus = sqrt(2)*omega_m*chi*Re(a_s) and
    a_minus_i = -sqrt(2)*omega_m*chi*Im(a_s).  It holds the dot
    fluctuation-free, which is exact only where g*N = 0."""
    ap = math.sqrt(2.0) * params.omega_m * params.chi * steady.a_s.real
    iam = -math.sqrt(2.0) * params.omega_m * params.chi * steady.a_s.imag
    wm, gm = params.omega_m, params.gamma_m
    ka, kb, j = params.kappa_a, params.kappa_b, params.j_coupling
    db, d = params.delta_b, steady.eff_detuning
    return np.array([[0.0, wm, 0.0, 0.0, 0.0, 0.0],
                     [-wm, -gm, 0.0, 0.0, ap, -iam],
                     [0.0, 0.0, -kb, db, 0.0, j],
                     [0.0, 0.0, -db, -kb, -j, 0.0],
                     [iam, 0.0, 0.0, j, -ka, d],
                     [ap, 0.0, -j, 0.0, -d, -ka]])


def model_drift_matrix(params: SystemParams, steady: SteadyState) -> np.ndarray:
    """The drift matrix of the mean-field model, shaped as
    ``linearize.drift_matrix``'s: the printed one where g*N = 0; else
    bordered by the dot coherence's quadratures (s_r, s_i), scaled as the
    cavities' are, from ds/dt = -(kappa_d + i delta_d) s + i g N b and the
    -i g s of db/dt."""
    printed = printed_drift_matrix(params, steady)
    g, gn = params.g_qd, params.g_qd * params.n_inversion
    if gn == 0.0:
        return printed
    kd, dd = params.kappa_d, params.delta_d
    m = np.zeros((8, 8))
    m[:6, :6] = printed
    m[2, 7], m[3, 6] = g, -g
    m[6, 3], m[7, 2] = -gn, gn
    m[6:, 6:] = [[-kd, dd], [-dd, -kd]]
    return m


def reference_roots(params: SystemParams, eta0: float, c_rocking: float):
    """The per-point route the batched solver replaced: ``np.roots``, an
    |imag| cut, three Newton steps, a clamp of tiny negatives and a merge of
    near-coincident roots, each with its own tolerance.  Ascending
    (p_trans, multiplicity) pairs."""
    coeffs = np.array(cubic_coefficients(params, eta0, c_rocking), dtype=float)
    real = []
    for z in np.roots(coeffs):
        if abs(z.imag) > 1e-9 * max(1.0, abs(z)):
            continue
        x = z.real
        for _ in range(3):
            p = dp = 0.0
            for cf in coeffs:
                dp = dp * x + p
                p = p * x + cf
            if dp == 0.0 or not math.isfinite(p) or not math.isfinite(p / dp):
                break
            x = x - p / dp
        if x >= -1e-10 * max(1.0, abs(x)):
            real.append(max(x, 0.0))
    merged = []
    for x in sorted(real):
        if merged and abs(x - merged[-1][0]) <= 1e-8 * max(1.0, abs(x)):
            merged[-1] = (merged[-1][0], merged[-1][1] + 1)
        else:
            merged.append((x, 1))
    return merged


def root_max_real_eig(params: SystemParams, eta0, c_rocking: float, p_trans) -> np.ndarray:
    """Largest real part of the drift eigenvalues at each root: its steady
    state, its drift matrix, one ``eigvals`` per root (arrays broadcast)."""
    steady = steady_state_from_ptrans(params, eta0, c_rocking, p_trans)
    return stability(drift_matrix(params, steady)).max_real_part


def reference_branches(params: SystemParams, input_power: float, c_rocking: float):
    """(p_trans, stable, max_real_eig) per root of ``reference_roots``, one
    scalar drift matrix each."""
    eta0 = math.sqrt(input_power)
    out = []
    for p, _ in reference_roots(params, eta0, c_rocking):
        max_real_eig = float(root_max_real_eig(params, eta0, c_rocking, p))
        out.append((p, max_real_eig < STABILITY_TOL, max_real_eig))
    return out


def _mp_drift_matrix(params: SystemParams, c_rocking: float, p_trans) -> mpmath.matrix:
    """The model's 8x8 drift matrix at a_s = sqrt(P), in the order [q, p, u1,
    v1, u2, v2, s_r, s_i] of ``model_drift_matrix``, in mpmath."""
    f = mpmath.mpf
    ka, kb, kd, gm, wm = map(f, (params.kappa_a, params.kappa_b, params.kappa_d,
                                 params.gamma_m, params.omega_m))
    db, dd, j, g, chi = map(f, (params.delta_b, params.delta_d, params.j_coupling,
                                params.g_qd, params.chi))
    gn = g * f(params.n_inversion)
    d = f(params.delta_a) - wm * chi ** 2 * (p_trans + f(c_rocking))
    ap = mpmath.sqrt(2) * wm * chi * mpmath.sqrt(p_trans)
    return mpmath.matrix([[0, wm, 0, 0, 0, 0, 0, 0],
                          [-wm, -gm, 0, 0, ap, 0, 0, 0],
                          [0, 0, -kb, db, 0, j, 0, g],
                          [0, 0, -db, -kb, -j, 0, -g, 0],
                          [0, 0, 0, j, -ka, d, 0, 0],
                          [ap, 0, -j, 0, -d, -ka, 0, 0],
                          [0, 0, 0, -gn, 0, 0, -kd, dd],
                          [0, 0, gn, 0, 0, 0, -dd, -kd]])


def _mp_characteristic_polynomial(m: mpmath.matrix) -> list:
    """Ascending coefficients of det(lam I - m), Faddeev-LeVerrier."""
    n = m.rows
    coef = [mpmath.mpf(0)] * n + [mpmath.mpf(1)]
    power = mpmath.zeros(n, n)
    for k in range(1, n + 1):
        power = m * power + coef[n - k + 1] * mpmath.eye(n)
        product = m * power
        coef[n - k] = -sum(product[i, i] for i in range(n)) / k
    return coef


def mp_hurwitz_real_roots(params: SystemParams, c_rocking: float) -> list[float]:
    """Real roots of Delta_7(P), ascending: the degree-12 polynomial through
    its values at P = 0..12 in 60 digits, then the eigenvalues of its
    companion matrix in 40; a root counts as real where its imaginary part
    is below 1e-15 of its size, so a double root split by rounding counts."""
    with mpmath.workdps(60):
        at = [_mp_characteristic_polynomial(_mp_drift_matrix(params, c_rocking, mpmath.mpf(p)))
              for p in (0, 1, 2)]
        # each coefficient is a quadratic in P: a + b P + c P^2 through P = 0, 1, 2
        quad = [(a0, (4 * a1 - 3 * a0 - a2) / 2, (a2 - 2 * a1 + a0) / 2)
                for a0, a1, a2 in zip(*at)]
        values = []
        for p in range(13):
            desc = [a + b * p + c * p * p for a, b, c in quad][::-1]
            h = mpmath.matrix(7, 7)
            for i in range(7):
                for j in range(7):
                    if 0 <= 2 * j - i + 1 <= 8:
                        h[i, j] = desc[2 * j - i + 1]
            values.append(mpmath.det(h))
        vander = mpmath.matrix([[mpmath.mpf(p) ** k for k in range(13)] for p in range(13)])
        coef = mpmath.lu_solve(vander, mpmath.matrix(values))
    with mpmath.workdps(40):
        companion = mpmath.zeros(12, 12)
        for k in range(12):
            companion[k, 11] = -coef[k] / coef[12]
            if k:
                companion[k, k - 1] = 1
        roots = mpmath.eig(companion, left=False, right=False)
        return sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-15 * abs(r))


def transfer_rows(params: SystemParams, steady: SteadyState, omega: np.ndarray) -> np.ndarray:
    """T_k(w), shape (nw, 5): row q of (-i w I - M)^{-1} times the input
    couplings (Brownian force, then the amplitude/phase vacua of cavities B
    and A), by Cramer's rule with ``spectrum._response_power``'s dot, det,
    opt, their primed conjugates and den.  The force on q per unit input
    into cavity A is x = a_s* det opt', y = a_s det' opt, into cavity B
    x_b = -i J a_s* dot opt', y_b = i J a_s dot' opt; a cavity's amplitude
    and phase inputs give c (x + y) and i c (x - y), c = omega_m G
    sqrt(kappa / 2), and the Brownian force omega_m opt opt', all over den.
    """
    p, a, w = params, steady.a_s, np.asarray(omega, dtype=float)
    j, wm, g_om = p.j_coupling, p.omega_m, p.omega_m * p.chi
    (dot, det, opt), (dot_c, det_c, opt_c) = (
        response(p, -w, steady.eff_detuning), np.conj(response(p, w, steady.eff_detuning)))
    den = (((wm - w) * (wm + w) - 1j * p.gamma_m * w) * opt * opt_c
           - 1j * wm * g_om ** 2 * abs(a) ** 2 * (det * opt_c - det_c * opt))
    x, y = np.conj(a) * det * opt_c, a * det_c * opt
    x_b, y_b = -1j * j * np.conj(a) * dot * opt_c, 1j * j * a * dot_c * opt
    c_b, c_a = wm * g_om * np.sqrt(p.kappa_b / 2.0), wm * g_om * np.sqrt(p.kappa_a / 2.0)
    rows = [wm * opt * opt_c, c_b * (x_b + y_b), 1j * c_b * (x_b - y_b),
            c_a * (x + y), 1j * c_a * (x - y)]
    return (np.stack(rows) / den).T


def mirror_transfer(params: SystemParams, steady: SteadyState,
                    omega: np.ndarray) -> np.ndarray:
    """T_0(w), the response of q to a unit force on p, at each w.

    With x(t) ~ exp(-i w t), the dot follows cavity B as
    s = i g N b / (kappa_d + i (delta_d - w)), cavity B follows cavity A as
    b = -i J a / D_B(w), and a follows q as a = i G a_s q / D_A(w), with
    D_B(w) = kappa_b + i (delta_b - w) - g^2 N / (kappa_d + i (delta_d - w))
    and D_A(w) = kappa_a + i (Delta - w) + J^2 / D_B(w), G = omega_m chi.  The
    conjugate field a* has D_A(-w)* in place of D_A(w), so the radiation
    force G (a_s* a + a_s a*) is a spring on q, and

        T_0 = omega_m / (omega_m^2 - w^2 - i gamma_m w
                         - i omega_m G^2 |a_s|^2 (1/D_A(w) - 1/D_A(-w)*)).
    """
    w = np.asarray(omega, dtype=float)
    g2n = params.g_qd ** 2 * params.n_inversion

    def d_a(nu):
        d_b = (params.kappa_b + 1j * (params.delta_b - nu)
               - g2n / (params.kappa_d + 1j * (params.delta_d - nu)))
        return params.kappa_a + 1j * (steady.eff_detuning - nu) + params.j_coupling ** 2 / d_b

    wm, g_om = params.omega_m, params.omega_m * params.chi
    spring = -1j * wm * g_om ** 2 * abs(steady.a_s) ** 2 * (1.0 / d_a(w) - 1.0 / np.conj(d_a(-w)))
    return wm / (wm * wm - w * w - 1j * params.gamma_m * w + spring)


# The printed closed form's transcription defects (KNOWN_ERRATA 9 and 10).
CLOSED_FORM_REPAIRS = frozenset({"Dd a_+^2", "Dd Delta_b", "K5"})


def repaired_closed_form(params: SystemParams, steady: SteadyState, omega_grid,
                         repairs=CLOSED_FORM_REPAIRS) -> np.ndarray:
    """S_q(w) of the printed closed form with the named repairs made:

    - Dd's omega_m bracket: ``+ a_+ kappa_b^2 Delta`` becomes
      ``+ a_+^2 kappa_b^2 Delta`` ("Dd a_+^2") and ``+ J^2 a_-^2 Delta_b^2``
      becomes ``+ J^2 a_-^2 Delta_b`` ("Dd Delta_b");
    - K5 = B1 + sqrt(kappa_a) C, with B1 its printed first bracket and
      C = (-i w - kappa_a)(-w^2 + 2 i w kappa_b + kappa_b^2 + Delta_b^2),
      becomes -sqrt(kappa_a) [B1 + i a_- omega_m C] ("K5").

    K1 carries the even part of the Brownian weight,
    sqrt((gamma_m/omega_m) w coth(hbar w/(2 kB T))), as the matrix route
    does.  All three repairs give the matrix route's S_q where g*N = 0."""
    w = np.asarray(omega_grid, dtype=float)
    dd, k1b, k2, k3, k4, k5 = _coefficients(params, steady, w)
    wm, ka, kb, j = params.omega_m, params.kappa_a, params.kappa_b, params.j_coupling
    d, db = steady.eff_detuning, params.delta_b
    ap, iam = fluctuation_amplitudes(steady, params)
    am = -1j * iam
    if "Dd a_+^2" in repairs:
        dd = dd - wm * (ap**2 - ap) * kb**2 * d
    if "Dd Delta_b" in repairs:
        dd = dd - wm * j**2 * am**2 * (db - db**2)
    if "K5" in repairs:
        c = (-1j * w - ka) * (-w**2 + 2j * w * kb + kb**2 + db**2)
        k5 = -math.sqrt(ka) * (k5 - math.sqrt(ka) * c + 1j * am * wm * c)
    k1 = k1b * np.sqrt(params.gamma_m / wm * thermal_coth_times_omega(w, params))
    return (np.abs(k1)**2 + np.abs(k2)**2 + np.abs(k3)**2
            + np.abs(k4)**2 + np.abs(k5)**2) / np.abs(dd)**2
