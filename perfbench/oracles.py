"""Reference computations the benchmark checks the program's outputs against.

Written from the model equations with numpy and scipy only; nothing here
imports the package under test.  ``p`` is a dict holding every
``[system]`` key of a scenario config (rates in units of omega_m).

The state vector of the unreduced mean-field equations is
y = [Re a, Im a, Re b, Im b, Re sigma, Im sigma, q, p], with the drive
amplitude ``eta`` on cavity A and the averaged radiation-pressure shift
``c`` (rocking parameter) on the mirror force.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq, root

# Oracle tolerances.
ROOT_RTOL = 1e-7          # re-solved transmitted power vs reported
SPECTRUM_RTOL = 1e-8      # per-frequency solve vs reported S_q
AUDIT_TOL = 0.01          # closed-form deviation counted as "over tolerance"
ANCHOR_RTOL = 1e-2        # switch metrics vs converged reference; the program
                          # samples 96 points per period (0.1% at gamma_m=1.8)


def meanfield_rhs(p, eta, c, y):
    """Time derivative of the unreduced mean-field state (works on complex y)."""
    ar, ai, br, bi, sr, si, q, mom = y
    g_om = p["omega_m"] * p["chi"]
    n = p["n_inversion"]
    lam = p["lambda_pump"] * n
    return np.array([
        -p["kappa_a"] * ar + p["delta_a"] * ai + p["j_coupling"] * bi + eta - g_om * q * ai,
        -p["kappa_a"] * ai - p["delta_a"] * ar - p["j_coupling"] * br + g_om * q * ar,
        -p["kappa_b"] * br + p["delta_b"] * bi + p["g_qd"] * si + p["j_coupling"] * ai,
        -p["kappa_b"] * bi - p["delta_b"] * br - p["g_qd"] * sr - p["j_coupling"] * ar,
        -p["kappa_d"] * sr + p["delta_d"] * si - p["g_qd"] * n * bi - lam * math.sin(p["theta"]),
        -p["kappa_d"] * si - p["delta_d"] * sr + p["g_qd"] * n * br - lam * math.cos(p["theta"]),
        p["omega_m"] * mom,
        -p["omega_m"] * q + g_om * (ar * ar + ai * ai + c) - p["gamma_m"] * mom,
    ])


def state_at_power(p, eta, c, power):
    """Fixed point of the linear cavity/dot block with the mirror held at
    the displacement a transmitted power ``power`` produces (scalar or
    array of powers; returns one 8-vector per power)."""
    power = np.asarray(power, dtype=float)
    q = p["chi"] * (power + c)
    n = p["n_inversion"]
    m = np.zeros(power.shape + (3, 3), dtype=complex)
    m[..., 0, 0] = -(p["kappa_a"] + 1j * (p["delta_a"] - p["omega_m"] * p["chi"] * q))
    m[..., 0, 1] = m[..., 1, 0] = -1j * p["j_coupling"]
    m[..., 1, 1] = -(p["kappa_b"] + 1j * p["delta_b"])
    m[..., 1, 2] = -1j * p["g_qd"]
    m[..., 2, 1] = 1j * p["g_qd"] * n
    m[..., 2, 2] = -(p["kappa_d"] + 1j * p["delta_d"])
    rhs = np.array([-eta, 0.0, 1j * p["lambda_pump"] * n * np.exp(-1j * p["theta"])])
    a, b, s = np.moveaxis(np.linalg.solve(m, np.broadcast_to(rhs, power.shape + (3,))[..., None])[..., 0], -1, 0)
    return np.stack([a.real, a.imag, b.real, b.imag, s.real, s.imag, q, np.zeros_like(q)], axis=-1)


def resolve_root(p, eta, c, power):
    """Re-solve the unreduced fixed-point equations from the state a
    reported transmitted power implies; returns the re-solved |a|^2."""
    guess = state_at_power(p, eta, c, power)
    sol = root(lambda y: meanfield_rhs(p, eta, c, y), guess, method="hybr",
               options={"xtol": 1e-12})
    if np.max(np.abs(sol.fun)) > 1e-10:
        return float("nan")
    return float(sol.x[0] ** 2 + sol.x[1] ** 2)


def root_matches(p, eta, c, power) -> bool:
    again = resolve_root(p, eta, c, power)
    return abs(again - power) <= ROOT_RTOL * max(power, 1e-6)


def all_roots(p, eta, c, n_grid=20001):
    """Every transmitted power P with |a(P)|^2 = P, bracketed on a grid up
    to the bound (eta/kappa_a)^2 that the energy balance puts on |a|^2
    (valid without dot gain, n_inversion <= 0)."""
    grid = np.linspace(0.0, (eta / p["kappa_a"]) ** 2, n_grid)

    def f(power):
        y = state_at_power(p, eta, c, power)
        return y[..., 0] ** 2 + y[..., 1] ** 2 - power

    vals = f(grid)
    out = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)[0]:
        if vals[i] == 0.0:
            out.append(float(grid[i]))
        elif vals[i + 1] != 0.0:
            out.append(brentq(lambda x: float(f(x)), grid[i], grid[i + 1],
                              xtol=1e-15, rtol=1e-14))
    return sorted(out)


def drift_matrix(p, eta, c, y):
    """6x6 fluctuation drift matrix in the order [q, p, u_b, v_b, u_a, v_a].

    Complex-step Jacobian of the mean-field equations with the dot held
    fluctuation-free, rescaled to quadratures u = sqrt(2) Re, v = sqrt(2) Im.
    """
    keep = [6, 7, 2, 3, 0, 1]
    h = 1e-30
    jac = np.empty((6, 6))
    for col, k in enumerate(keep):
        step = np.asarray(y, dtype=complex)
        step[k] += 1j * h
        jac[:, col] = meanfield_rhs(p, eta, c, step)[keep].imag / h
    scale = np.array([1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0),
                      math.sqrt(2.0), math.sqrt(2.0)])
    return scale[:, None] * jac / scale[None, :]


def _brownian_weight(p, omega):
    x = omega * p["thermal_ratio"] / (2.0 * p["omega_m"])
    small = np.abs(x) < 1e-4
    coth_w = np.where(small, 2.0 * p["omega_m"] / p["thermal_ratio"] + omega * x / 3.0,
                      omega / np.tanh(np.where(small, 1.0, x)))
    return p["gamma_m"] / p["omega_m"] * (omega + coth_w)


def spectrum(p, eta, c, y, omega):
    """Symmetrized S_q(w) from a per-frequency solve with the full
    (non-symmetrized) input-noise correlation matrix."""
    m = drift_matrix(p, eta, c, y)
    f = np.zeros((6, 5))
    f[1, 0] = 1.0
    f[2, 1] = f[3, 2] = math.sqrt(p["kappa_b"])
    f[4, 3] = f[5, 4] = math.sqrt(p["kappa_a"])
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    a = -1j * omega[:, None, None] * np.eye(6) - m
    t = np.linalg.solve(a, np.broadcast_to(f, (omega.size, 6, 5)))[:, 0, :]
    s = np.zeros(omega.size, dtype=complex)
    for sign, left, right in ((1.0, t, np.conj(t)), (-1.0, np.conj(t), t)):
        d = np.zeros((omega.size, 5, 5), dtype=complex)
        d[:, 0, 0] = _brownian_weight(p, sign * omega)
        for k in (1, 3):
            d[:, k, k] = d[:, k + 1, k + 1] = 1.0
            d[:, k, k + 1], d[:, k + 1, k] = 1j, -1j
        s += 0.5 * np.einsum("wj,wjk,wk->w", left, d, right)
    return s.real


def spectrum_close(reported, reference) -> bool:
    floor = 1e-12 * max(float(np.max(np.abs(reference))), 1e-300)
    return bool(np.all(np.abs(reported - reference)
                       <= SPECTRUM_RTOL * np.abs(reference) + floor))


def largest_jump(inputs, outputs, direction):
    """Input at the half-change point of the largest monotone output run
    in ``direction`` (+1 up, -1 down) along a swept curve."""
    steps = np.diff(outputs) * direction
    best, best_range = 0.0, None
    i = 0
    while i < steps.size:
        if steps[i] <= 0.0:
            i += 1
            continue
        j = i
        while j + 1 < steps.size and steps[j + 1] > 0.0:
            j += 1
        total = float(np.sum(steps[i:j + 1]))
        if total > best:
            best, best_range = total, (i, j)
        i = j + 1
    if best_range is None:
        return None
    i, j = best_range
    rise = np.cumsum(steps[i:j + 1])
    k = i + int(np.searchsorted(rise, 0.5 * best))
    return 0.5 * (inputs[k] + inputs[k + 1])
