"""Oracle checks of one task's result files (formats in docs/formats.md)."""

from __future__ import annotations

import json
import math
import os

import numpy as np

import oracles

ROOT_SAMPLES = 12      # grid points per bistability bundle whose roots are re-solved
SPECTRUM_SAMPLES = 64  # frequencies per matrix-route spectrum checked


def _load(out_dir, name):
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _bundles(task, out_dir, stem):
    """(system, drive, payload) per result bundle; sweeps suffix _000, _001..."""
    if not task.is_sweep:
        yield (*task.points[0], _load(out_dir, f"{stem}.json"))
        return
    for i, (system, drive) in enumerate(task.points):
        yield system, drive, _load(out_dir, f"{stem}_{i:03d}.json")


def _rocking(drive):
    return drive["p_amp"] ** 2 / (2.0 * drive["omega_mod"] ** 2) if drive["p_amp"] else 0.0


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_anchor(task, out_dir, rng):
    misses, notes = [], []
    for (system, _, got), ref in zip(_bundles(task, out_dir, "metrics"),
                                     task.extra["references"]):
        if any(_rel(got[k], ref[k]) > oracles.ANCHOR_RTOL for k in ("switch_ratio", "gain")):
            misses.append(system["gamma_m"])
        notes.append(f"gamma_m={system['gamma_m']}: switch_ratio {got['switch_ratio']:.6g} "
                     f"vs {ref['switch_ratio']:.6g}, gain {got['gain']:.6g} vs {ref['gain']:.6g}")
    known_only = misses == [task.extra["known_defect_gamma_m"]]
    return not misses, "; ".join(notes), {"known_defect_only": known_only}


def check_switch(task, out_dir, rng):
    ok, notes = True, []
    for _, _, got in _bundles(task, out_dir, "metrics"):
        ratio, gain, bw = got["switch_ratio"], got["gain"], got.get("bandwidth")
        ok &= math.isfinite(ratio) and ratio >= 1.0 and math.isfinite(gain) and gain > 0.0
        if "bandwidth_span" in task.extra:
            ok &= bw is not None and 0.0 < bw <= task.extra["bandwidth_span"] + 1e-12
        notes.append(f"ratio {ratio:.4g} gain {gain:.4g}" + (f" bandwidth {bw:.4g}" if bw else ""))
    return ok, "; ".join(notes), {}


def check_bistability(task, out_dir, rng):
    checked = bad = 0
    for system, drive, payload in _bundles(task, out_dir, "bistability"):
        c = _rocking(drive)
        points = payload["points"]
        for idx in rng.choice(len(points), size=min(ROOT_SAMPLES, len(points)), replace=False):
            point = points[int(idx)]
            eta = math.sqrt(point["input_power"])
            for branch in point["branches"]:
                checked += 1
                bad += not oracles.root_matches(system, eta, c, branch["p_trans"])
    return bad == 0, f"{checked - bad}/{checked} sampled roots re-solved", {}


def check_spectrum(task, out_dir, rng):
    bad, over, notes = 0, 0, []
    for i, (system, drive, payload) in enumerate(_bundles(task, out_dir, "spectrum")):
        eta, c = drive["eta0"], _rocking(drive)
        power = payload["p_trans"]
        roots = oracles.all_roots(system, eta, c)
        if not roots or not oracles.root_matches(system, eta, c, power) or \
                _rel(power, roots[-1 if payload["branch"] == "upper" else 0]) > oracles.ROOT_RTOL:
            bad += 1
            notes.append(f"bundle {i}: p_trans {power:.9g} is not the {payload['branch']} "
                         f"root of {roots}")
            continue
        y = oracles.state_at_power(system, eta, c, power)
        omega, s_q = np.array(payload["omega"]), np.array(payload["s_q"])
        if payload["backend"] == "matrix":
            idx = rng.choice(omega.size, size=min(SPECTRUM_SAMPLES, omega.size), replace=False)
            if not oracles.spectrum_close(s_q[idx], oracles.spectrum(system, eta, c, y, omega[idx])):
                bad += 1
                notes.append(f"bundle {i}: S_q differs from the per-frequency solve")
        else:
            # the transcribed closed form deviates by design (docs/KNOWN_ERRATA.md)
            ref = oracles.spectrum(system, eta, c, y, omega)
            with np.errstate(invalid="ignore"):
                over += int(np.sum(~(np.abs(s_q - ref) <= oracles.AUDIT_TOL * np.abs(ref))))
    detail = "; ".join(notes) or f"{len(task.points)} spectra match the oracle"
    return bad == 0, detail, {"audit_points_over_tol": over}


def check_hysteresis(task, out_dir, rng, knees_dir):
    """A quasi-static ramp cannot leave a branch before that branch ends:
    the up leg jumps at or after the upper knee, the down leg at or before
    the lower knee, to within one ramp step.  At a finite ramp rate the
    jump lags the knee (slow passage through the saddle-node), so the
    check is one-sided; the lag is reported in ramp steps."""
    payload = _load(out_dir, "hysteresis.json")
    knees = sorted(_load(knees_dir, "knees.json")["knees"])
    if len(knees) != 2:
        return False, f"expected two knees, got {knees}", {}
    up, down = np.array(payload["up"]), np.array(payload["down"])
    step = (up[-1, 0] - up[0, 0]) / (len(up) - 1)
    jump_up = oracles.largest_jump(up[:, 0], up[:, 1], +1)
    jump_down = oracles.largest_jump(down[:, 0], down[:, 1], -1)
    if jump_up is None or jump_down is None:
        return False, "no jump on one of the legs", {}
    lag_up, lag_down = (jump_up - knees[1]) / step, (knees[0] - jump_down) / step
    return lag_up >= -1.0 and lag_down >= -1.0, \
        f"jump lag behind knee: up {lag_up:+.1f} steps, down {lag_down:+.1f} steps", {}


CHECKS = {"anchor": check_anchor, "switch": check_switch, "bistability": check_bistability,
          "spectrum": check_spectrum}


def check(task, dirs, index, rng):
    """(ok, detail, counts) for task ``index``; ``dirs`` are the task output dirs."""
    if task.kind == "hysteresis":
        return check_hysteresis(task, dirs[index], rng, dirs[task.extra["knees_task"]])
    return CHECKS[task.kind](task, dirs[index], rng)
