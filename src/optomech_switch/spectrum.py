"""Displacement noise spectrum of the movable mirror.

The linear fluctuation system dO/dt = M O + F f(t) is solved in Fourier
space, O(w) = (-i w I - M)^{-1} F f(w).  Its q row is the response T_k(w)
of the mirror position to unit noise in channel k (Brownian force, then
the amplitude/phase vacuum inputs of cavities B and A, each
delta-correlated with the [[1, i], [-i, 1]] block), by Cramer's rule on
the linearized model, whose dot, cavity-B/dot determinant and cavity-A
response are `steady_state.response` at nu = -w; the dot gets no noise
(docs/KNOWN_ERRATA.md item 14).  M (`linearize.drift_matrix`) only
decides stability; the `matrix` backend is named for this linear-response
route.  The symmetrized position spectrum is the closed sum

    S_q(w) = (gamma_m / omega_m) * w coth(hbar*w / (2 kB T)) * |T_0|^2
             + sum_{k>=1} |T_k|^2,

real and non-negative by construction: T(-w) = conj T(w), so the +-i
amplitude-phase cross correlations of each vacuum input enter the w and -w
halves with opposite sign and cancel.  The Brownian term is the even part
of the full weight (gamma_m / omega_m) w [1 + coth(...)].  Only squared
moduli enter: `_response_power` sums them in real arithmetic, and the
complex rows T_k are the tests' per-channel oracle (tests/reference.py).

The delta-function bookkeeping is fixed so that for a decoupled mirror at
high temperature  integral S_q(w) dw / (2 pi) = kB T / (hbar omega_m),
the equipartition value for the dimensionless displacement quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnstableStateError
from .linearize import drift_matrix, stability
from .params import SystemParams
from .steady_state import SteadyState, response

# Peaks must protrude by this fraction of the global maximum.
PEAK_PROMINENCE_FRACTION = 0.01


@dataclass(frozen=True)
class Peak:
    position: float
    height: float
    prominence: float


@dataclass(frozen=True)
class SpectrumSeries:
    omega_grid: np.ndarray
    s_q: np.ndarray
    peaks: tuple[Peak, ...]


def thermal_coth_times_omega(omega, params: SystemParams):
    """Even part w*coth(hbar*w/(2 kB T)) of the Brownian weight.

    Evaluated by series near w = 0, where the product has the finite
    limit 2 kB T / hbar = 2*omega_m/thermal_ratio.
    """
    omega = np.asarray(omega, dtype=float)
    r = params.thermal_ratio
    x = omega * r / (2.0 * params.omega_m)
    small = np.abs(x) < 1e-4
    return np.where(small,
                    2.0 * params.omega_m / r + omega * x / 3.0,
                    omega / np.tanh(np.where(small, 1.0, x)))


def brownian_weight(omega, params: SystemParams):
    """(gamma_m/omega_m) * w * [1 + coth(hbar*w/(2 kB T))], any sign of w."""
    omega = np.asarray(omega, dtype=float)
    return params.gamma_m / params.omega_m * (omega + thermal_coth_times_omega(omega, params))


def _power(z):
    """|z|^2 in real arithmetic."""
    return z.real * z.real + z.imag * z.imag


def _response_power(params: SystemParams, steady: SteadyState, omega: np.ndarray):
    """|T_0|^2 and sum_{k>=1} |T_k|^2 at each w, in real arithmetic.

    Cramer's rule (x ~ exp(-i w t), G = omega_m chi) on the response dot, det,
    opt at nu = -w and the conjugates dot', det', opt' of the response at +w gives

        den = (omega_m^2 - w^2 - i gamma_m w) opt opt'
              - i omega_m G^2 |a_s|^2 (det opt' - det' opt),

    the determinant of -i w I - M, the 8x8 drift matrix, nonzero on the real
    axis at a stable state; T_0 = omega_m opt opt' / den.
    A cavity's amplitude and phase inputs give c (x + y) and i c (x - y), c =
    omega_m G sqrt(kappa / 2) / den (A: x = a_s* det opt', y = a_s det' opt;
    B: x = -i J a_s* dot opt', y = i J a_s dot' opt).  As |x + y|^2 + |x -
    y|^2 = 2 (|x|^2 + |y|^2), the vacua sum to omega_m^2 G^2 |a_s|^2 [kappa_b
    J^2 (|dot opt'|^2 + |dot' opt|^2) + kappa_a (|det opt'|^2 + |det' opt|^2)]
    / |den|^2.  No det divides, so det = 0 (a cavity-B/dot pole) on the grid is harmless.
    """
    p, a, w = params, steady.a_s, np.asarray(omega, dtype=float)
    wm, g_om = p.omega_m, p.omega_m * p.chi
    dot, det, opt = response(p, -w, steady.eff_detuning)
    dot_p, det_p, opt_p = response(p, w, steady.eff_detuning)
    opt_c = np.conj(opt_p)
    # omega_m^2 - w^2 factored, so it keeps its relative accuracy at the mechanical line
    den = (((wm - w) * (wm + w) - 1j * p.gamma_m * w) * opt * opt_c
           - 1j * wm * g_om ** 2 * abs(a) ** 2 * (det * opt_c - np.conj(det_p) * opt))
    o, o_p = _power(opt), _power(opt_p)
    scale = wm * wm / _power(den)
    vacua = (p.kappa_b * p.j_coupling ** 2 * (_power(dot) * o_p + _power(dot_p) * o)
             + p.kappa_a * (_power(det) * o_p + _power(det_p) * o))
    return scale * o * o_p, scale * (g_om ** 2 * abs(a) ** 2) * vacua


def spectrum_matrix(params: SystemParams, steady: SteadyState,
                    omega_grid: np.ndarray) -> SpectrumSeries:
    """Symmetrized displacement spectrum S_q(w) from `_response_power`.

    Refuses steady states that the drift matrix labels unstable, and grids
    on which S_q is not finite (far out, the powers of w overflow).
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    report = stability(drift_matrix(params, steady))
    if not report.stable:
        raise UnstableStateError(
            f"steady state is not stable (max Re eig = {report.max_real_part:.3e})")

    with np.errstate(all="ignore"):  # a non-finite S_q is refused below
        brownian, vacua = _response_power(params, steady, omega_grid)
        s_q = (params.gamma_m / params.omega_m * thermal_coth_times_omega(omega_grid, params)
               * brownian + vacua)
    bad = np.flatnonzero(~np.isfinite(s_q))
    if bad.size:
        raise NumericalError(f"S_q is not finite at omega = {omega_grid[bad[0]]:.6g} "
                             f"(grid point {bad[0]} of {s_q.size})")
    return SpectrumSeries(omega_grid=omega_grid, s_q=s_q, peaks=detect_peaks(omega_grid, s_q))


def detect_peaks(omega_grid: np.ndarray, s_q: np.ndarray) -> tuple[Peak, ...]:
    """Local maxima with prominence >= 1% of the global maximum.

    The definition is scipy.signal.find_peaks(s_q, prominence=...)'s, and
    so are the positions and prominence bits.  A local maximum is an
    interior sample, or flat run of samples, above both neighbours; a flat
    run's peak is its middle sample, rounded down, and the first and last
    samples are never peaks.  The prominence is the height minus the larger
    of the left and right minima, each taken out to the first strictly
    higher sample or to the edge.  Computed here with numpy: importing
    scipy.signal took ~1 s (2-vCPU Xeon), longer than a spectrum run.
    """
    s_q = np.asarray(s_q, dtype=float)
    if s_q.size == 0:
        return ()
    top = np.max(s_q)
    if not np.isfinite(top) or top <= 0.0 or np.all(s_q == s_q[0]):
        return ()
    idx, prominences = _maxima_and_prominences(s_q)
    threshold = PEAK_PROMINENCE_FRACTION * top
    return tuple(Peak(position=float(omega_grid[i]), height=float(s_q[i]), prominence=p)
                 for i, p in zip(idx.tolist(), prominences) if p >= threshold)


def _maxima_and_prominences(x: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Indices of the local maxima of x and their prominences, in O(n).

    The minimum between neighbouring maxima (a valley) comes from one
    reduceat.  A maximum's left minimum is the smallest valley back to the
    previous strictly higher maximum: a sample lower than that, on the far
    side of the first strictly higher sample, would put a higher maximum
    nearer.  A monotonic stack over the maxima finds it; the right minimum
    is the same pass run backwards.
    """
    d = np.diff(x)
    steps = d != 0.0
    rising = d[steps] > 0.0
    # flat runs lie between the steps; the run after step k is a maximum
    # when step k rises and step k + 1 falls
    k = np.flatnonzero(rising[:-1] & ~rising[1:])
    # step k is at the first index where the running count of steps is k + 1
    step_at = np.cumsum(steps).searchsorted
    peaks = (step_at(k + 1) + 1 + step_at(k + 2)) // 2
    if peaks.size == 0:
        return peaks, []
    heights = x[peaks].tolist()
    # valleys[i] = min x[p_{i-1}:p_i], with p_{-1} = 0 and p_P = n
    valleys = np.minimum.reduceat(x, np.r_[0, peaks]).tolist()
    left = _minima_to_higher(heights, valleys[:-1])
    right = _minima_to_higher(heights[::-1], valleys[:0:-1])[::-1]
    return peaks, [h - max(lo, hi) for h, lo, hi in zip(heights, left, right)]


def _minima_to_higher(heights: list[float], valleys: list[float]) -> list[float]:
    """For each maximum i, min(valleys[m + 1 .. i]) with m the last earlier
    maximum strictly higher than heights[i] (m = -1 if there is none)."""
    # heights on the stack, and each one's minimum back to the entry below it
    stack_h, stack_low = [], []
    out = []
    for h, low in zip(heights, valleys):
        while stack_h and stack_h[-1] <= h:
            stack_h.pop()
            below = stack_low.pop()
            if below < low:
                low = below
        stack_h.append(h)
        stack_low.append(low)
        out.append(low)
    return out
