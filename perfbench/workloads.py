"""Seeded scenario configs for the benchmark workloads.

A workload is an ordered list of tasks; one pass runs every task once.
Each task is one ``run_scenario`` call on the config text built here, plus
the instructions its oracle check needs.  The seed only jitters values
around fixed centres, so every seed does about the same amount of work:
run-to-run spread then measures the program, not the draw.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

SYSTEM_KEYS = ("kappa_a", "kappa_b", "kappa_d", "gamma_m", "delta_a", "delta_b",
               "delta_d", "j_coupling", "g_qd", "chi", "lambda_pump", "theta",
               "n_inversion", "thermal_ratio", "omega_m")
_BASE = {"kappa_d": 1.8, "delta_d": 0.0, "lambda_pump": 0.02, "theta": 0.238,
         "n_inversion": 0.0, "thermal_ratio": 1e-06, "omega_m": 1.0}
# Published switch sets: variant A and B differ in (J, g).
VARIANT_A = dict(_BASE, kappa_a=0.1, kappa_b=0.1, gamma_m=1.8, delta_a=1.0,
                 delta_b=1.0, j_coupling=1.0, g_qd=0.5, chi=0.3)
VARIANT_B = dict(VARIANT_A, j_coupling=0.5, g_qd=1.0)
# kappa ~ omega_m set with a clean bistable window at input power 4.8-10.4.
CLEAN = dict(_BASE, kappa_a=1.0, kappa_b=1.0, gamma_m=3.0, delta_a=4.0,
             delta_b=1.0, j_coupling=0.5, g_qd=1.0, chi=1.0)
# Spectrum sets: broad cavity lines, and narrow lines resolving the hybrid modes.
BROAD = dict(_BASE, kappa_a=0.1, kappa_b=0.1, gamma_m=0.001, delta_a=1.0,
             delta_b=1.0, delta_d=-1.0, j_coupling=1.0, g_qd=1.0, chi=0.2)
NARROW = dict(BROAD, kappa_a=0.005, kappa_b=0.005, gamma_m=0.05, delta_a=1.5)
SPECTRUM_DRIVE = {"eta0": 0.1, "p_amp": 0.4472135954999579, "omega_mod": 1.0}
SPECTRUM_POINTS = 20000


@dataclass
class Task:
    name: str
    text: str
    # oracle kind: anchor | switch | bistability | spectrum | hysteresis
    kind: str
    # one (system, drive) per result bundle, in sweep order
    points: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    known_defect: str = ""

    @property
    def is_sweep(self) -> bool:
        return "\n[sweep]\n" in self.text


@dataclass
class Workload:
    tasks: list
    warmup: list           # config texts run during set-up
    rerun: int             # index of the task rerun for the byte-identity check


def config_text(system, drive, task, options, sweep=None) -> str:
    lines = ["[system]"] + [f"{k} = {system[k]!r}" for k in SYSTEM_KEYS]
    lines += ["", "[drive]"] + [f"{k} = {drive[k]!r}" for k in ("eta0", "p_amp", "omega_mod")]
    lines += ["", "[task]", f"name = {'sweep' if sweep else task}"]
    if sweep:
        lines.append(f"task = {task}")
    lines += [f"{k} = {v}" for k, v in options.items()]
    if sweep:
        parameter, values = sweep
        lines += ["", "[sweep]", f"parameter = {parameter}",
                  "values = " + ", ".join(repr(float(v)) for v in values)]
    return "\n".join(lines) + "\n"


def _sweep_points(system, drive, parameter, values):
    section, _, key = parameter.partition(".")
    out = []
    for v in values:
        s, d = dict(system), dict(drive)
        (s if section == "system" else d)[key] = float(v)
        out.append((s, d))
    return out


def _sweep_task(name, kind, system, drive, task, options, parameter, values, **extra):
    return Task(name=name, kind=kind,
                text=config_text(system, drive, task, options, (parameter, values)),
                points=_sweep_points(system, drive, parameter, values), extra=extra)


def _single_task(name, kind, system, drive, task, options, **extra):
    return Task(name=name, kind=kind, text=config_text(system, drive, task, options),
                points=[(dict(system), dict(drive))], extra=extra)


def load_anchors():
    with open(os.path.join(HERE, "anchors.json"), encoding="utf-8") as fh:
        return json.load(fh)


def switch(rng) -> Workload:
    ref = load_anchors()
    anchors = _sweep_task("anchors_gamma_m", "anchor", ref["system"], ref["drive"],
                          "switch-metrics", {}, "system.gamma_m",
                          [a["gamma_m"] for a in ref["anchors"]],
                          references=ref["anchors"], known_defect_gamma_m=0.01)
    anchors.known_defect = ("gamma_m=0.01: the 50-period transient has not decayed "
                            "(ROADMAP item 2)")
    # Published region (eta0 = 0.1, p_amp 0.1-1.0, omega_mod 0.5-3.0), swept as in
    # the bundled switch_metrics_vs_omega_variant_a and switch_ratio_vs_pamp_variant_b.
    omega_sweep = _sweep_task(
        "region_A_omega_mod", "switch", VARIANT_A,
        {"eta0": 0.1, "p_amp": 0.5 + rng.uniform(-0.05, 0.05), "omega_mod": 1.0},
        "switch-metrics", {}, "drive.omega_mod",
        [w + rng.uniform(-0.05, 0.05) for w in (0.75, 2.0, 2.75)])
    amp_sweep = _sweep_task(
        "region_B_p_amp", "switch", VARIANT_B,
        {"eta0": 0.1, "p_amp": 0.5, "omega_mod": 1.25 + rng.uniform(-0.05, 0.05)},
        "switch-metrics", {}, "drive.p_amp",
        [a + rng.uniform(-0.05, 0.05) for a in (0.3, 0.6, 0.9)])
    lo, hi = 0.5 + rng.uniform(0.0, 0.05), 3.0 - rng.uniform(0.0, 0.05)
    drive = {"eta0": 0.1, "p_amp": 0.6 + rng.uniform(-0.05, 0.05), "omega_mod": 1.0}
    scan = _single_task("bandwidth_B", "switch", VARIANT_B, drive, "switch-metrics",
                        {"bandwidth_min": lo, "bandwidth_max": hi, "bandwidth_points": 3},
                        bandwidth_span=hi - lo)
    warm = config_text(VARIANT_B, {"eta0": 0.1, "p_amp": 0.5, "omega_mod": 3.0},
                       "switch-metrics", {})
    return Workload(tasks=[anchors, omega_sweep, amp_sweep, scan], warmup=[warm], rerun=2)


def _rocking_values(rng):
    # C = p_amp^2 / 2 of about 0.10, 0.36 and 0.49 (the bundled rocking study)
    return [c + rng.uniform(-0.01, 0.01) for c in (0.4472, 0.8485, 0.9899)]


def linear(rng) -> Workload:
    rock = {"input_min": 0.01, "input_max": 1.0, "input_points": 400}
    clean = {"input_min": 1.5, "input_max": 14.0, "input_points": 400}
    tasks = [
        _sweep_task("bistability_rocking_B", "bistability", VARIANT_B,
                    {"eta0": 0.3, "p_amp": 0.4472, "omega_mod": 1.0}, "bistability",
                    rock, "drive.p_amp", _rocking_values(rng)),
        _sweep_task("bistability_rocking_clean", "bistability", CLEAN,
                    {"eta0": 1.0, "p_amp": 0.5, "omega_mod": 1.0}, "bistability",
                    clean, "drive.p_amp",
                    [a + rng.uniform(-0.02, 0.02) for a in (0.5, 1.0, 1.5)]),
    ]
    spec = {"omega_min": 0.0, "omega_max": 2.5, "omega_points": SPECTRUM_POINTS,
            "branch": "upper"}
    j_values = [rng.uniform(0.0, 0.05), 1.0 + rng.uniform(-0.05, 0.05),
                1.5 + rng.uniform(-0.05, 0.05)]
    chi_values = [c + rng.uniform(-0.01, 0.01) for c in (0.1, 0.2, 0.3)]
    for backend in ("matrix", "closed-form"):
        opts = dict(spec, backend=backend)
        tasks.append(_sweep_task(f"spectrum_{backend}_broad", "spectrum", BROAD,
                                 SPECTRUM_DRIVE, "spectrum", opts,
                                 "system.j_coupling", j_values))
        tasks.append(_sweep_task(f"spectrum_{backend}_narrow", "spectrum", NARROW,
                                 SPECTRUM_DRIVE, "spectrum", opts,
                                 "system.chi", chi_values))
    small = {"omega_min": 0.0, "omega_max": 2.5, "omega_points": 200, "branch": "upper"}
    warmup = [config_text(VARIANT_B, {"eta0": 0.3, "p_amp": 0.4472, "omega_mod": 1.0},
                          "bistability", dict(rock, input_points=50))]
    warmup += [config_text(BROAD, SPECTRUM_DRIVE, "spectrum", dict(small, backend=b))
               for b in ("matrix", "closed-form")]
    return Workload(tasks=tasks, warmup=warmup, rerun=2)


def quasistatic(rng) -> Workload:
    ramp = {"input_min": 1.5, "input_max": 14.0, "input_points": 600}
    drive = {"eta0": 1.0, "p_amp": 0.0, "omega_mod": 1.0}
    sets = [CLEAN, dict(CLEAN, chi=1.1 + rng.uniform(-0.02, 0.02))]
    tasks = []
    for k, system in enumerate(sets):
        knees = len(tasks)
        tasks.append(_single_task(f"bistability_{k}", "bistability", system, drive,
                                  "bistability", ramp))
        # ramp rates well inside the adiabatic range (default gamma_m/20 = 0.15)
        for rate in (0.032, 0.042):
            rate *= 1.0 + rng.uniform(-0.03, 0.03)
            tasks.append(_single_task(f"hysteresis_{k}_rate={rate:.4f}", "hysteresis",
                                      system, drive, "hysteresis", dict(ramp, rate=rate),
                                      knees_task=knees))
    warmup = [config_text(CLEAN, drive, "bistability", dict(ramp, input_points=50)),
              config_text(CLEAN, drive, "hysteresis",
                          dict(ramp, input_points=50, rate=0.5))]
    return Workload(tasks=tasks, warmup=warmup, rerun=1)


WORKLOADS = {"switch": switch, "linear": linear, "quasistatic": quasistatic}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed))
