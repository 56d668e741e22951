"""Time-domain mean-field dynamics and optical-switch figures of merit.

The mean amplitudes of the two cavities, the dot coherence and the mirror
evolve under the modulated pump eta(t) = eta0 + p_amp*cos(omega_mod*t);
the dot inversion stays pinned at its configured value.  The switch ratio
(max/min output power over a drive cycle), the gain (output to input
power-modulation amplitude) and the -3 dB bandwidth of the gain versus
modulation frequency are read off the T-periodic response, which is
solved for directly by harmonic balance, with no time integration:

- Reduction.  Cavity B, the dot and the mirror enter linearly, so they
  are eliminated per harmonic nu = k*omega_mod by `steady_state.eliminated`,
  the function that back-substitutes the steady state at nu = 0: b and
  sigma from one 2x2 solve per harmonic, q from the mirror susceptibility
  omega_m*g_om/(omega_m^2 - nu^2 + i*gamma_m*nu) applied to |a|^2.  One
  equation for a(t) remains.
- Collocation.  That equation is solved at n = 2H + 1 uniform times of a
  period by Newton on the 2n real unknowns, from the lower-branch steady
  amplitude held constant.  Each step is solved at order n, not 2n: the
  mirror feeds back only Re(conj(a) da), n real numbers, so one complex
  solve with the mirror frozen and one real solve for that feedback (a
  Schur complement) give the step.  Up to H = 32 no solve is large enough
  for OpenBLAS to run it on a second thread, which then spins for the
  rest of the run; H = 64 would reach that size again.  H starts at
  HARMONICS_START and doubles until the top quarter of the spectrum of a
  is below SPECTRAL_TAIL of its largest coefficient; past HARMONICS_CAP,
  or if Newton does not converge, the orbit raises NoConvergenceError.
- Stability.  The Floquet multipliers are the eigenvalues of the
  monodromy matrix, a product of 4th-order Magnus steps of the 8x8
  Jacobian (`linearize.jacobians`) along the orbit.  A multiplier of
  modulus >= 1 means there is no stable T-periodic response, and the
  metrics raise UndefinedRatioError.
- Extrema.  The output power |a|^2 is a trigonometric polynomial; its
  extrema come from Newton on its derivative.  The drive power's are
  closed form.

A quasi-static up-then-down ramp of the input power gives the hysteresis
loop: the input power rises, holds at the top, then falls, and the up
leg, the hold and the down leg are one LSODA run (scipy's odeint) on one
clock that starts with the up leg.  Its step loop runs in Fortran and
switches to BDF by itself where the problem turns stiff.  The exact
Jacobian (`linearize.jacobians`, updated in place) feeds the Newton
iterations of those stiff steps, so LSODA differences no Jacobians.
The rhs, like the Jacobian, rewrites one array in place and returns it
on every call.  odeint copies both into its own work space, and it takes
a float64 array with no conversion, where a tuple of floats would be
converted on each of a ramp's ~10^5 calls.  solve_ivp does not copy: its
Runge-Kutta steps keep the last derivative, so a caller that keeps a
derivative must copy it.
odeint has no events and only warns when it fails, so a failure message,
a non-finite state or a blow-up raises IntegrationFailureError, whose
last valid time counts from the start of the up leg.  odeint is imported
on the first ramp, not with the package: scipy.integrate took 0.6-0.7 s
to import (2-vCPU Xeon), and only the hysteresis task integrates.  The
blow-up check is armed only for a pumped dot, n_inversion > 0: with
n <= 0 the state is bounded.  E = |a|^2 + |b|^2 + |sigma|^2/|n| is only
exchanged, not changed, by the J and g couplings (at n = 0 sigma
decouples), the q*a term only rotates a, and the mirror is a damped
oscillator driven by the bounded |a|^2.  With n > 0 and g^2 n > kappa_b
kappa_d the cavity-B/dot block amplifies, and the state can blow up.
Runs are deterministic: fixed tolerances and harmonic counts, no
randomness.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateGridError, IntegrationFailureError, NoConvergenceError,
                     UndefinedGainError, UndefinedRatioError)
from .linearize import jacobians
from .params import DriveConfig, SystemParams
from .steady_state import SteadyState, eliminated, steady_state

# |state|^2 beyond this aborts the integration as a blow-up; checked only
# for n_inversion > 0, since with n <= 0 the state is bounded (module notes)
BLOWUP_NORM = 1e8
# integrator rtol (atol is 1e-2 of it).  Over the bundled and benchmark
# ramps, LSODA's output power stays within 5.9e-8 relative of DOP853 at
# rtol 1e-13 at this rtol, and within 4.1e-7 at 1e-9
TOL = 1e-10
# LSODA step cap per output interval; odeint's default of 500 is too few
# for the hold at the top input, one 60-time-unit interval for the clean
# bistable set
MAX_STEPS = 100000
# harmonic balance: the first harmonic count, and the count beyond which
# the orbit counts as unresolved
HARMONICS_START = 8
HARMONICS_CAP = 256
# the spectrum of a is resolved when its top quarter is below this share
# of its largest coefficient
SPECTRAL_TAIL = 1e-12
# Newton on the collocation equations: step cap, and the converged update
# relative to max |a|
COLLOCATION_STEPS = 30
COLLOCATION_TOL = 1e-12
# Magnus substeps: the step times the largest rate of the Jacobian
MAGNUS_STEP = 0.1
# substeps per stack of Magnus exponentials (a power of two): bounds the
# memory of a long period
MAGNUS_CHUNK = 128
# 4th-order Magnus: the two Gauss points of a substep, as fractions of it
GAUSS_POINTS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
# 1/k! of the Taylor series of exp, to degree 16
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(17))


@dataclass(frozen=True)
class SwitchMetrics:
    switch_ratio: float
    gain: float


@dataclass(frozen=True)
class PeriodicOrbit:
    """The T-periodic response as Fourier coefficients in numpy's fft order,
    x(t) = sum_k x_k exp(i*k*omega_mod*t): a, b and sigma (equation-of-motion
    sign) to harmonic H; the output power |a|^2, q and p to 2H."""

    omega_mod: float
    a: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    power: np.ndarray
    q: np.ndarray
    p: np.ndarray


def state_vector(steady: SteadyState) -> np.ndarray:
    """Initial condition vector for the integrator from a fixed point."""
    sig = steady.sigma_ge_s
    return np.array([steady.a_s.real, steady.a_s.imag,
                     steady.b_s.real, steady.b_s.imag,
                     sig.real, sig.imag, steady.q_s, steady.p_s])


def _rhs_factory(params: SystemParams, eta_func, c_rocking: float):
    """Mean-field rhs(t, y).  Every call returns the same float64 array,
    rewritten in place (module notes): odeint copies it, so the ramp may
    share it, but a caller that keeps a derivative must copy it."""
    ka, kb, kd = params.kappa_a, params.kappa_b, params.kappa_d
    da, db, dd = params.delta_a, params.delta_b, params.delta_d
    j, g, n = params.j_coupling, params.g_qd, params.n_inversion
    wm, gm = params.omega_m, params.gamma_m
    g_om = params.omega_m * params.chi
    gn = g * n
    lam_sin = params.lambda_pump * n * math.sin(params.theta)
    lam_cos = params.lambda_pump * n * math.cos(params.theta)
    out = np.empty(8)
    pack = struct.Struct("8d").pack_into

    def rhs(t, y):
        # on Python floats a call costs under half what it does on numpy
        # scalars; gq and gn are the first products of g_om*q*a and g*n*b
        ar, ai, br, bi, sr, si, q, p = y.tolist()
        eta = eta_func(t)
        gq = g_om * q
        pack(out, 0,
             -ka * ar + da * ai + j * bi + eta - gq * ai,
             -ka * ai - da * ar - j * br + gq * ar,
             -kb * br + db * bi + g * si + j * ai,
             -kb * bi - db * br - g * sr - j * ar,
             -kd * sr + dd * si - gn * bi - lam_sin,
             -kd * si - dd * sr + gn * br - lam_cos,
             wm * p,
             -wm * q + g_om * (ar * ar + ai * ai + c_rocking) - gm * p)
        return out

    return rhs


def _jacobian_factory(params: SystemParams):
    """Jacobian(t, y) of the mean-field rhs, rows df_i/dy_j.  The rhs is
    affine in the drive and in the rocking term, so only the q*a and |a|^2
    entries follow the state; they are rewritten in one matrix, which every
    call returns (odeint copies it)."""
    da, g_om = params.delta_a, params.omega_m * params.chi
    jac = jacobians(params, np.zeros(1), np.zeros(1))[0]

    def jacobian(t, y):
        ar, ai, _, _, _, _, q, _ = y.tolist()
        # the arithmetic of jacobians, so the entries equal its bit for bit
        jac[0, 1] = da - g_om * q
        jac[1, 0] = -da + g_om * q
        jac[0, 6] = -g_om * ai
        jac[1, 6] = g_om * ar
        jac[7, 0] = 2.0 * g_om * ar
        jac[7, 1] = 2.0 * g_om * ai
        return jac

    return jacobian


class _BlowUp(Exception):
    """Raised through odeint by the armed rhs; args[0] is the time of the call."""


def _integrate(rhs, jac, y0, tol, t_eval, blowup: bool = True) -> np.ndarray:
    """Integrate from y0 at t_eval[0] to t_eval[-1] and return the states at
    t_eval; ``jac`` is the Jacobian of ``rhs`` for LSODA's stiff steps, and
    ``blowup`` aborts once |y|^2 > BLOWUP_NORM."""
    from scipy.integrate import ODEintWarning, odeint

    func = rhs
    if blowup:
        def func(t, y):
            if float(np.dot(y, y)) > BLOWUP_NORM:
                raise _BlowUp(t)
            return rhs(t, y)

    try:
        with warnings.catch_warnings():
            # a failed run warns as well; it raises below
            warnings.simplefilter("ignore", ODEintWarning)
            y, info = odeint(func, y0, t_eval, Dfun=jac, rtol=tol, atol=tol * 1e-2,
                             tcrit=[t_eval[-1]], mxstep=MAX_STEPS, full_output=True,
                             tfirst=True)
    except _BlowUp as err:
        raise IntegrationFailureError("state norm blew up",
                                      last_valid_time=float(err.args[0])) from None
    if info["message"] != "Integration successful.":
        # tcur holds the time reached per output interval, up to the failed one
        failed = np.argmax(info["tcur"] < t_eval[1:])
        raise IntegrationFailureError(f"integrator failed: {info['message']}",
                                      last_valid_time=float(info["tcur"][failed]))
    finite = np.all(np.isfinite(y), axis=1)
    if not np.all(finite):
        last = t_eval[max(np.argmin(finite) - 1, 0)]
        raise IntegrationFailureError("non-finite state encountered", last_valid_time=float(last))
    return y.T


def _harmonics(h: int) -> np.ndarray:
    """Harmonic number k of each slot of a length-(2h + 1) fft."""
    k = np.arange(2 * h + 1)
    k[h + 1:] -= 2 * h + 1
    return k


def _on_grid(coef: np.ndarray, m: int, shift: float = 0.0) -> np.ndarray:
    """Values of the trigonometric polynomial with coefficients ``coef``
    (fft order) at the m >= coef.size phases 2*pi*(j + shift)/m, by one
    inverse fft."""
    k = _harmonics(coef.size // 2)
    padded = np.zeros(m, dtype=complex)
    padded[k] = coef * np.exp(2j * math.pi * k * shift / m)
    return m * np.fft.ifft(padded)


def _circulant(symbol: np.ndarray) -> np.ndarray:
    """Matrix acting at the collocation points as ``symbol`` acts per harmonic."""
    n = symbol.size
    column = np.fft.ifft(symbol)
    return column[(np.arange(n)[:, None] - np.arange(n)) % n]


def _newton_step(frozen: np.ndarray, feedback: np.ndarray, a: np.ndarray,
                 residual: np.ndarray) -> np.ndarray:
    """The da that solves frozen da + feedback Re(conj(a) da) = residual, by
    a Schur complement on r = Re(conj(a) da): one complex solve against
    [feedback | residual], one real solve for r, then da = y - X r with the
    complex X times the real r as two real products (module notes)."""
    sol = np.linalg.solve(frozen, np.column_stack((feedback, residual)))
    x, y = sol[:, :-1], sol[:, -1]
    # Re(conj(a) X) and Re(conj(a) y), row by row
    r = np.linalg.solve(np.eye(a.size) + a.real[:, None] * x.real + a.imag[:, None] * x.imag,
                        a.real * y.real + a.imag * y.imag)
    return y - (x.real @ r + 1j * (x.imag @ r))


def _collocation(params: SystemParams, drive: DriveConfig, a: np.ndarray) -> np.ndarray:
    """Newton on R(a) = D a + (kappa_a + i*delta_a) a + i*J*b[a] - eta
    - i*g_om*q[|a|^2]*a = 0 at the n = len(a) uniform times of a period.

    The Jacobian acts as dR = H da + P Re(conj(a) da): H = lin
    - i*g_om*diag(q) is the complex-linear response with the mirror
    frozen, P = -2i*g_om*diag(a)*mirror the mirror's real feedback.
    `_newton_step` solves it with one complex solve of order n (n + 1
    right-hand sides) and one real solve of order n, where the 2n real
    unknowns took one real solve of order 2n.  With OpenBLAS 0.3.31 on two
    cores a real solve runs on two threads from order 100 on (98 stays on
    one); a complex solve of order 65 with 66 right-hand sides and a real
    matrix-vector product of order 65 stay on one, a complex one of order
    65 would not.  So up to H = 32 (n = 65) the step stays on one thread;
    H = 64 (n = 129) would thread again, and no bundled or benchmark orbit
    needs more than H = 32."""
    n = a.size
    g_om = params.omega_m * params.chi
    nu = drive.omega_mod * _harmonics(n // 2)
    b_of_a, _, b_pumped, _, chi = eliminated(params, nu)
    symbol = 1j * nu + params.kappa_a + 1j * params.delta_a + 1j * params.j_coupling * b_of_a
    lin, mirror = _circulant(symbol), _circulant(chi).real
    source = (drive.eta0 + drive.p_amp * np.cos(2.0 * math.pi * np.arange(n) / n)
              - 1j * params.j_coupling * b_pumped[0])
    for _ in range(COLLOCATION_STEPS):
        q = np.fft.ifft(chi * np.fft.fft(a.real ** 2 + a.imag ** 2)).real
        residual = np.fft.ifft(symbol * np.fft.fft(a)) - 1j * g_om * q * a - source
        try:
            step = _newton_step(lin - np.diag(1j * g_om * q), (-2j * g_om) * a[:, None] * mirror,
                                a, residual)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"periodic orbit: {exc}") from exc
        a = a - step
        if not np.all(np.isfinite(a)):
            break
        # the largest |Re| or |Im| of the step
        if np.max(np.abs(step.view(float))) <= COLLOCATION_TOL * np.max(np.abs(a)):
            return a
    raise NoConvergenceError(
        f"periodic orbit: no convergence in {COLLOCATION_STEPS} Newton steps at H = {n // 2}")


def periodic_orbit(params: SystemParams, drive: DriveConfig) -> PeriodicOrbit:
    """The T-periodic response by harmonic balance (see the module notes),
    after its stability check."""
    if drive.p_amp <= 0.0:
        raise UndefinedGainError("switch metrics require p_amp > 0")
    h = HARMONICS_START
    a = np.full(2 * h + 1, steady_state(params, drive.eta0, 0.0, "lower").a_s)
    while True:
        a = _collocation(params, drive, a)
        coef = np.fft.fft(a) / a.size
        top = np.abs(coef[np.abs(_harmonics(h)) > h - h // 4])
        if np.max(top) <= SPECTRAL_TAIL * np.max(np.abs(coef)):
            break
        if 2 * h > HARMONICS_CAP:
            raise NoConvergenceError(
                f"periodic orbit: spectrum not resolved within {HARMONICS_CAP} harmonics")
        h *= 2
        a = _on_grid(coef, 2 * h + 1)
    b_of_a, sigma_of_a, b_pumped, sigma_pumped, _ = eliminated(
        params, drive.omega_mod * _harmonics(h))
    b, sigma = b_of_a * coef, sigma_of_a * coef
    b[0] += b_pumped[0]
    sigma[0] += sigma_pumped[0]
    # |a|^2 to harmonic 2H, exactly, from 4H + 1 samples
    power = np.fft.fft(np.abs(_on_grid(coef, 4 * h + 1)) ** 2) / (4 * h + 1)
    nu = drive.omega_mod * _harmonics(2 * h)
    q = eliminated(params, nu)[-1] * power
    orbit = PeriodicOrbit(omega_mod=drive.omega_mod, a=coef, b=b, sigma=sigma, power=power,
                          q=q, p=1j * nu * q / params.omega_m)
    mu = float(np.max(np.abs(floquet_multipliers(params, orbit))))
    if mu >= 1.0:
        raise UndefinedRatioError(f"no stable T-periodic response, max |mu| = {mu:.4g}")
    return orbit


def _expm(x: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack: Taylor series of degree 16 (remainder
    below 1e-19) after scaling the stack to 1-norm <= 1/2, then squaring
    back.  The series is summed by Paterson and Stockmeyer's scheme: blocks
    of degree 3 in x, Horner's rule in x^4, 7 products where Horner's rule
    in x takes 15."""
    norm = float(np.max(np.sum(np.abs(x), axis=-2)))
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    x = x / 2.0 ** squarings
    x2 = x @ x
    powers = (np.eye(x.shape[-1]), x, x2, x2 @ x)
    x4 = x2 @ x2
    e = _TAYLOR[16] * x4
    for i in (12, 8, 4, 0):
        block = sum(_TAYLOR[i + j] * powers[j] for j in range(4))
        e = block + e @ x4
    for _ in range(squarings):
        e = e @ e
    return e


def floquet_multipliers(params: SystemParams, orbit: PeriodicOrbit) -> np.ndarray:
    """The 8 Floquet multipliers of the orbit.

    The monodromy matrix is the ordered product of 4th-order Magnus steps
    exp(h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1]), with the Jacobian A at
    the two Gauss points of each of N substeps, multiplied in order as a
    tree within stacks of MAGNUS_CHUNK substeps.  N is a power of two, at
    least 4H + 1 (the degree of q) and large enough that h times the
    largest rate of the Jacobian is at most MAGNUS_STEP.
    """
    period = 2.0 * math.pi / orbit.omega_mod
    samples = _on_grid(orbit.a, orbit.q.size)
    rate = float(np.max(np.sum(np.abs(jacobians(params, samples,
                                                 _on_grid(orbit.q, orbit.q.size).real)),
                               axis=-2)))
    substeps = 1 << math.ceil(math.log2(max(orbit.q.size, period * rate / MAGNUS_STEP)))
    h = period / substeps
    nodes = [(_on_grid(orbit.a, substeps, c), _on_grid(orbit.q, substeps, c).real)
             for c in GAUSS_POINTS]
    monodromy = np.eye(8)
    for start in range(0, substeps, MAGNUS_CHUNK):
        a1, a2 = (jacobians(params, a[start:start + MAGNUS_CHUNK], q[start:start + MAGNUS_CHUNK])
                  for a, q in nodes)
        steps = _expm(0.5 * h * (a1 + a2) + (math.sqrt(3.0) / 12.0 * h * h) * (a2 @ a1 - a1 @ a2))
        while len(steps) > 1:
            steps = steps[1::2] @ steps[0::2]
        monodromy = steps[0] @ monodromy
    return np.linalg.eigvals(monodromy)


def _power_extrema(orbit: PeriodicOrbit) -> tuple[float, float]:
    """(max, min) of the output power |a|^2 over a period: eight Newton
    steps on the derivative of its trigonometric polynomial, from the
    largest and the smallest of 16 samples per period of its top harmonic
    (a sample beats a step that lands on a lesser extremum)."""
    coef = orbit.power
    k = _harmonics(coef.size // 2)
    m = 16 * max(k.max(), 4)
    samples = _on_grid(coef, m).real
    phase = 2.0 * math.pi * np.array([np.argmax(samples), np.argmin(samples)]) / m
    for _ in range(8):
        terms = coef * np.exp(1j * np.outer(phase, k))
        slope, curve = (terms @ (1j * k)).real, (terms @ (-k * k)).real
        phase = phase - slope / np.where(curve != 0.0, curve, 1.0)
    hi, lo = (np.exp(1j * np.outer(phase, k)) @ coef).real
    return float(max(hi, samples.max())), float(min(lo, samples.min()))


def _metrics(params: SystemParams, drive: DriveConfig) -> SwitchMetrics:
    # kept apart from switch_metrics: to a tracer that wraps the public names,
    # the orbits of a bandwidth scan are not switch_metrics calls
    hi, lo = _power_extrema(periodic_orbit(params, drive))
    if lo <= 1e-30:
        raise UndefinedRatioError(f"minimum output power {lo:.3e} is not positive")
    # drive power (eta0 + p_amp*cos)^2: extrema at cos = +-1, or 0 where eta crosses zero
    eta0, p_amp = abs(drive.eta0), drive.p_amp
    in_swing = (eta0 + p_amp) ** 2 - max(eta0 - p_amp, 0.0) ** 2
    return SwitchMetrics(switch_ratio=hi / lo, gain=(hi - lo) / in_swing)


def switch_metrics(params: SystemParams, drive: DriveConfig) -> SwitchMetrics:
    """Switch ratio and gain of the periodic response (no bandwidth scan)."""
    return _metrics(params, drive)


def gain_vs_frequency(params: SystemParams, eta0: float, p_amp: float,
                      omega_grid) -> np.ndarray:
    """Gain of the periodic response at each modulation frequency of the grid."""
    return np.array([_metrics(params, DriveConfig(eta0=eta0, p_amp=p_amp,
                                                  omega_mod=float(om))).gain
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
    array of (input_power, output_power).  The ramp must be finite and
    ``rate`` finite and > 0; either is checked before integrating.
    """
    ramp = np.asarray(input_ramp, dtype=float)
    if ramp.size < 2 or np.any(np.diff(ramp) <= 0.0):
        raise DegenerateGridError("input ramp must be ascending with >= 2 points")
    if np.any(ramp < 0.0):
        raise ValueError("input powers must be >= 0")
    if not np.all(np.isfinite(ramp)):
        raise ValueError("input ramp must be finite")
    if rate is None:
        rate = params.gamma_m / 20.0
    if not 0.0 < rate < math.inf:
        raise ValueError(f"ramp rate must be finite and > 0, got {rate!r}")
    settle_time = 20.0 * max(1.0 / params.kappa_a,
                             params.gamma_m / params.omega_m**2,
                             1.0 / params.gamma_m)
    lo, hi = float(ramp[0]), float(ramp[-1])
    t_up = (ramp - lo) / rate
    top = float(t_up[-1])
    # the down leg starts after the hold and passes each input at the
    # mirror image of its up-leg time
    fall = top + settle_time
    t_eval = np.concatenate((t_up, (fall + top) - t_up[::-1]))

    def eta_func(t):
        # rise at rate, hold at the top, fall at rate; rounding can take the
        # falling radicand below the ramp's lower end, so it is clamped there
        p = lo + rate * t if t < top else hi if t < fall else hi - rate * (t - fall)
        return math.sqrt(p if p > lo else lo)

    start = steady_state(params, math.sqrt(lo), c_rocking, "lower")
    # only a pumped dot can blow up (module notes)
    y = _integrate(_rhs_factory(params, eta_func, c_rocking), _jacobian_factory(params),
                   state_vector(start), TOL, t_eval, blowup=params.n_inversion > 0.0)
    out = y[0] ** 2 + y[1] ** 2
    return (np.column_stack([ramp, out[:ramp.size]]),
            np.column_stack([ramp[::-1], out[ramp.size:]]))
