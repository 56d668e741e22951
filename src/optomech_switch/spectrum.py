"""Displacement noise spectrum of the movable mirror.

The linear fluctuation system dO/dt = M O + F f(t) is solved in Fourier
space, O(w) = (-i w I - M)^{-1} F f(w).  Its q row is the response T_k(w)
of the mirror position to unit noise in channel k (Brownian force, then
the amplitude/phase vacuum inputs of cavities B and A, each
delta-correlated with the [[1, i], [-i, 1]] block).  M is
`linearize.drift_matrix`; the dot, where it has rows, gets no noise
(docs/KNOWN_ERRATA.md item 14).  The symmetrized position spectrum is the
closed sum

    S_q(w) = (gamma_m / omega_m) * w coth(hbar*w / (2 kB T)) * |T_0|^2
             + sum_{k>=1} |T_k|^2,

real and non-negative by construction: T(-w) = conj T(w), so the +-i
amplitude-phase cross correlations of each vacuum input enter the
w and -w halves with opposite sign and cancel.  The Brownian term is the
even part of the full weight (gamma_m / omega_m) w [1 + coth(...)].

The delta-function bookkeeping is fixed so that for a decoupled mirror at
high temperature  integral S_q(w) dw / (2 pi) = kB T / (hbar omega_m),
the equipartition value for the dimensionless displacement quadrature.

T comes from one complex Schur form of M, refined once against M, with no
BLAS matmul (`_q_transfer`; Laub, IEEE TAC 26, 407, 1981).  The solve runs
over slabs of OMEGA_BLOCK consecutive frequencies in reused work rows; T
does not depend on the slab size, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularResponseError, UnstableStateError
from .linearize import drift_matrix, stability
from .params import SystemParams
from .steady_state import SteadyState

# Peaks must protrude by this fraction of the global maximum.
PEAK_PROMINENCE_FRACTION = 0.01
# Frequencies per slab of the transfer solve (`_q_transfer`).  What the slabs
# save is fresh memory: inside a `linear` benchmark run a whole-grid solve
# took 1500-2500 minor page faults a call for its new rows, the slab solve
# about 260, and in a process whose heap already held the pages the slabs
# were no faster.  Narrower slabs pay in numpy calls.  CPU time of a
# 20000-point solve inside a `linear` run (2-vCPU Xeon, two runs each), over
# the whole-grid solve's 11.8-14.5 ms: slabs of 2048 0.69-0.85, 4096
# 0.64-0.75, 8192 0.66-0.71, one slab of the whole grid 0.77-0.86.  For
# scale only: a slab's 5 blocks of 6 rows (-i w - R_jj, z, x, residual,
# scratch) take 30 x 16 B x 4096 = 1.9 MB (2.6 MB with the dot's 8 rows),
# next to a 2 MB L2 a core; the whole-grid solve held about 24 rows x 16 B
# x 20000 = 7.7 MB.
OMEGA_BLOCK = 4096


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


def _rows_times(x: np.ndarray, mat: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out = x @ mat for x stored as rows x[i], as axpys row by row.

    out[k] sums x[i] * mat[i, k] in the order of i; tmp takes the products
    of one x[i], so each step adds all of out at once.  Each product is a
    row times a scalar: numpy's complex multiply rounds by the loop it runs
    in, and only this one gives the bits of a row-by-row axpy.
    """
    for k in range(mat.shape[1]):
        np.multiply(x[0], mat[0, k], out=out[k])
    for i in range(1, len(x)):
        for k in range(mat.shape[1]):
            np.multiply(x[i], mat[i, k], out=tmp[k])
        out += tmp


def _q_transfer(m: np.ndarray, params: SystemParams, omega_grid: np.ndarray) -> np.ndarray:
    """T_k(w): response of q to unit noise in channel k, shape (nw, 5).

    Row q of the resolvent, x (-i w I - M) = e_q, times the input
    couplings: the Brownian force drives p, the (u_in, v_in) vacuum inputs
    of cavities B and A drive (u1, v1) and (u2, v2) with the square-root
    decay rates; the dot's rows, if any, get none.  With M = Q R Q^H
    (complex Schur; Q unitary, so sound near an exceptional point) and
    z = x Q, z (-i w I - R) = Q[0, :] is solved by forward substitution,
    and x = z Q^H.  One step refined against M
    restores per-w LU accuracy; the Schur rounding alone reaches ~1e-12 of
    S_q near the J ~ 1.5 mode crossings.  Products are axpys over
    contiguous rows: a BLAS matmul on these shapes threads over every core
    and costs more CPU time than it saves.

    One Schur form serves the whole grid, and the solve runs over slabs of
    OMEGA_BLOCK consecutive frequencies in five reused blocks of rows.
    Every operation is elementwise in w, so T does not depend on the slab
    size, bit for bit.
    """
    # imported here: only spectrum tasks need scipy.linalg (~0.3 s to import)
    from scipy.linalg import schur

    omega_grid = np.asarray(omega_grid, dtype=float)
    r, q = schur(m, output="complex")
    diag = np.diag(r)
    # -i w - R_jj is 0 exactly where Re R_jj = 0 and w = -Im R_jj
    if any(d.real == 0.0 and np.any(omega_grid == -d.imag) for d in diag):
        raise SingularResponseError("singular response matrix: -i w is an eigenvalue of M")
    qh = q.conj().T
    kb, ka = np.sqrt(params.kappa_b), np.sqrt(params.kappa_a)
    couplings = np.array([1.0, kb, kb, ka, ka])[:, None]
    n = m.shape[0]
    transfer = np.empty((5, omega_grid.size), dtype=complex)
    work = np.empty((5, n, min(omega_grid.size, OMEGA_BLOCK)), dtype=complex)

    def solve(z, shift, tmp):
        """z (-i w I - R) = c for c given in z, in place.  z[j] is final once
        rows 0..j-1 are in it; then z[j] r[j, k] goes into every later row k,
        so each row sums its terms in the order of a row-by-row axpy."""
        for j in range(n):
            z[j] /= shift[j]
            for k in range(j + 1, n):
                np.multiply(z[j], r[j, k], out=tmp[k])
            z[j + 1:] += tmp[j + 1:]
        return z

    for start in range(0, omega_grid.size, OMEGA_BLOCK):
        omega = omega_grid[start:start + OMEGA_BLOCK]
        shift, z, x, res, tmp = work[:, :, :omega.size]
        np.subtract(-1j * omega, diag[:, None], out=shift)
        z[:] = q[0][:, None]
        _rows_times(solve(z, shift, tmp), qh, x, tmp)
        _rows_times(x, m, res, tmp)
        res += np.multiply(1j * omega, x, out=z)
        res[0] += 1.0
        _rows_times(res, q, z, tmp)
        # T needs rows 1-5 of x only, the rows the noise enters
        _rows_times(solve(z, shift, tmp), qh[:, 1:6], res[1:6], tmp[1:6])
        x[1:6] += res[1:6]
        np.multiply(x[1:6], couplings, out=transfer[:, start:start + omega.size])
    return transfer.T


def spectrum_matrix(params: SystemParams, steady: SteadyState,
                    omega_grid: np.ndarray) -> SpectrumSeries:
    """Symmetrized displacement spectrum S_q(w) by matrix inversion.

    Refuses dynamically unstable steady states.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    m = drift_matrix(params, steady)
    report = stability(m)
    if not report.stable:
        raise UnstableStateError(
            f"steady state is not stable (max Re eig = {report.max_real_part:.3e})")

    power = np.abs(_q_transfer(m, params, omega_grid)) ** 2
    s_q = (params.gamma_m / params.omega_m * thermal_coth_times_omega(omega_grid, params)
           * power[:, 0] + power[:, 1:].sum(axis=1))
    peaks = detect_peaks(omega_grid, s_q)
    return SpectrumSeries(omega_grid=omega_grid, s_q=s_q, peaks=peaks)


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
