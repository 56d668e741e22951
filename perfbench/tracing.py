"""Spans and counts recorded around the package's public functions.

The tracer wraps functions from outside the package: every module of the
package that holds a listed function under any name gets the wrapper, so
a caller that imported the function by name (``runner`` imports
``switch_metrics`` and others) is traced too.  A listed name the package
no longer has is reported as absent.  Spans stay in memory; self time is
a span's duration minus the spans it caused.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# module -> public functions wrapped.  ``dynamics.solve_ivp`` is scipy's
# integrator as the dynamics module calls it.
LAYERS = {
    "config": ("parse_config",),
    "runner": ("run_scenario",),
    "steady_state": ("solve_transmitted_power", "steady_state_from_ptrans",
                     "steady_state_direct"),
    "bistability": ("bistability_curve", "turning_points"),
    "linearize": ("drift_matrix", "stability"),
    "spectrum": ("spectrum_matrix", "detect_peaks"),
    "closed_form": ("spectrum_closed_form",),
    "dynamics": ("switch_metrics", "bandwidth", "gain_vs_frequency", "hysteresis_sweep",
                 "integrate_meanfield", "solve_ivp"),
}


def _drive_of(args, kwargs):
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, "omega_mod") and hasattr(value, "p_amp"):
            return value
    return None


def _extras(name, args, kwargs, result, drive):
    """Work quantities read from a call's arguments and result."""
    if name == "dynamics.solve_ivp":
        t_span = kwargs.get("t_span", args[1] if len(args) > 1 else None)
        out = {"nfev": int(getattr(result, "nfev", 0)),
               "radau": int(kwargs.get("method", args[3] if len(args) > 3 else "RK45") == "Radau")}
        if drive is not None and drive.p_amp > 0.0 and drive.omega_mod > 0.0 and t_span:
            out["periods"] = (t_span[1] - t_span[0]) * drive.omega_mod / (2.0 * math.pi)
        return out
    if name == "bistability.bistability_curve":
        points = getattr(result, "points", ())
        return {"points": len(points),
                "roots": sum(len(branches) for _, branches in points)}
    if name == "spectrum.spectrum_matrix":
        return {"points": int(getattr(getattr(result, "omega_grid", None), "size", 0))}
    return None


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.context = ""
        # (context, name, start, end, self_s, extras)
        self.spans = []
        self._stack = []  # [child time, drive] per open span
        self._patched = []
        self.absent = []

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            drive = _drive_of(args, kwargs) if name.startswith("dynamics.") else None
            if drive is None and tracer._stack:
                drive = tracer._stack[-1][1]
            frame = [0.0, drive]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += end - start
            tracer.spans.append((tracer.context, name, start, end, end - start - frame[0],
                                 _extras(name, args, kwargs, result, drive)))
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        self.absent = []
        for mod_name, functions in LAYERS.items():
            home = sys.modules.get(f"{self.package}.{mod_name}")
            for fn in functions:
                target = getattr(home, fn, None) if home is not None else None
                if not callable(target):
                    self.absent.append(f"{mod_name}.{fn}")
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn}", target)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, target))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def select(self, prefix):
        return [s for s in self.spans if s[0].startswith(prefix)]


def layer_metrics(spans):
    """Per-layer numbers of one pass from its spans."""
    calls, self_s = {}, {}
    rhs = radau = rhs_driven = 0
    periods = 0.0
    bist_points = bist_roots = spec_points = 0
    bist_s = spec_s = 0.0
    for _, name, start, end, own, extra in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        if not extra:
            continue
        if name == "dynamics.solve_ivp":
            rhs += extra["nfev"]
            radau += extra["radau"]
            if "periods" in extra:
                rhs_driven += extra["nfev"]
                periods += extra["periods"]
        elif name == "bistability.bistability_curve":
            bist_points += extra["points"]
            bist_roots += extra["roots"]
            bist_s += end - start
        elif name == "spectrum.spectrum_matrix":
            spec_points += extra["points"]
            spec_s += end - start
    counts = {
        "dynamics.solve_ivp.calls": calls.get("dynamics.solve_ivp", 0),
        "dynamics.solve_ivp.rhs_calls": rhs,
        "dynamics.solve_ivp.radau_fallbacks": radau,
        "bistability.bistability_curve.roots_classified": bist_roots,
        "linearize.drift_matrix.calls": calls.get("linearize.drift_matrix", 0),
        "linearize.stability.calls": calls.get("linearize.stability", 0),
        "steady_state.solve_transmitted_power.calls":
            calls.get("steady_state.solve_transmitted_power", 0),
        "spectrum.spectrum_matrix.omega_points": spec_points,
    }
    derived = {"dynamics.rhs_calls_per_period": rhs_driven / periods if periods else 0.0}
    times = {f"{name}.self_s": self_s.get(name, 0.0) for name in (
        "dynamics.solve_ivp", "dynamics.integrate_meanfield", "dynamics.switch_metrics",
        "dynamics.bandwidth", "dynamics.gain_vs_frequency", "dynamics.hysteresis_sweep",
        "linearize.drift_matrix", "linearize.stability",
        "steady_state.solve_transmitted_power", "closed_form.spectrum_closed_form",
        "runner.run_scenario")}
    times["bistability.bistability_curve.us_per_point"] = (
        1e6 * bist_s / bist_points if bist_points else 0.0)
    times["spectrum.spectrum_matrix.ns_per_point"] = (
        1e9 * spec_s / spec_points if spec_points else 0.0)
    return counts, derived, times
