"""Converged switch-metric references for the fixed anchors of the ``switch``
workload, by brute-force long-transient integration.

    python3 perfbench/anchors.py          # rewrites perfbench/anchors.json

Each anchor starts on the lower steady-state branch at the bias, as the
program does, integrates the modulated mean-field equations for
``PERIODS`` drive periods with a tight 8th-order integrator and measures
the last ``MEASURE`` periods on its dense output.  A run at half the
length is stored beside each value as convergence evidence.  Uses
numpy/scipy only (see oracles.py); takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import sys

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracles  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "anchors.json")

# Package default system (variant B rates), listed in full so the anchors
# do not follow a change of the package defaults.
SYSTEM = {"kappa_a": 0.1, "kappa_b": 0.1, "kappa_d": 1.8, "gamma_m": 0.01,
          "delta_a": 1.0, "delta_b": 1.0, "delta_d": 0.0, "j_coupling": 0.5,
          "g_qd": 1.0, "chi": 0.3, "lambda_pump": 0.02, "theta": 0.238,
          "n_inversion": 0.0, "thermal_ratio": 1e-06, "omega_m": 1.0}
DRIVE = {"eta0": 0.1, "p_amp": 0.5, "omega_mod": 1.0}
GAMMA_M = (1.8, 0.1, 0.01)
PERIODS = 800
MEASURE = 10
SAMPLES_PER_PERIOD = 2048


def _extremes(func, t0, t1, n):
    """Refined (max, min) of a smooth scalar function on [t0, t1]."""
    t = np.linspace(t0, t1, n)
    v = func(t)
    dt = t[1] - t[0]

    def refine(idx, sign):
        res = minimize_scalar(lambda s: sign * func(s), method="bounded",
                              bounds=(max(t0, t[idx] - dt), min(t1, t[idx] + dt)),
                              options={"xatol": 1e-12})
        return sign * min(res.fun, sign * v[idx])

    return refine(int(np.argmax(v)), -1.0), refine(int(np.argmin(v)), 1.0)


def switch_reference(system, drive, periods):
    p = dict(system)
    eta0, amp, om = drive["eta0"], drive["p_amp"], drive["omega_mod"]
    lower = oracles.all_roots(p, eta0, 0.0)[0]
    y0 = oracles.state_at_power(p, eta0, 0.0, lower)
    period = 2.0 * math.pi / om
    t1 = periods * period
    t0 = (periods - MEASURE) * period
    sol = solve_ivp(lambda t, y: oracles.meanfield_rhs(p, eta0 + amp * math.cos(om * t), 0.0, y),
                    (0.0, t1), y0, method="DOP853", rtol=1e-11, atol=1e-13,
                    dense_output=True)
    if not sol.success:
        raise RuntimeError(sol.message)

    def power(t):
        y = sol.sol(t)
        return y[0] ** 2 + y[1] ** 2

    out_hi, out_lo = _extremes(power, t0, t1, MEASURE * SAMPLES_PER_PERIOD)
    in_hi = (eta0 + amp) ** 2
    in_lo = 0.0 if amp >= abs(eta0) else (abs(eta0) - amp) ** 2
    return {"switch_ratio": out_hi / out_lo,
            "gain": (out_hi - out_lo) / (in_hi - in_lo)}


def main():
    anchors = []
    for gm in GAMMA_M:
        system = dict(SYSTEM, gamma_m=gm)
        full = switch_reference(system, DRIVE, PERIODS)
        half = switch_reference(system, DRIVE, PERIODS // 2)
        anchors.append({"gamma_m": gm, "periods": PERIODS, **full,
                        "half_periods": {"periods": PERIODS // 2, **half}})
        print(f"gamma_m={gm}: ratio {full['switch_ratio']:.8g} gain {full['gain']:.8g} "
              f"(at {PERIODS // 2} periods: {half['switch_ratio']:.8g}, {half['gain']:.8g})")
    payload = {"system": SYSTEM, "drive": DRIVE, "measure_periods": MEASURE,
               "method": "DOP853 rtol=1e-11 atol=1e-13, dense output",
               "anchors": anchors}
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
