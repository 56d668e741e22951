"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`.  Three clauses assert
published trend/structure claims that the model, as printed, cannot
produce at the published operating points; they fail intentionally and
point at docs/KNOWN_ERRATA.md (items 12 and 13).  The analysis behind
each red clause is in that document.
"""

import math
import os
import re

import numpy as np
import pytest

from optomech_switch import (DriveConfig, SystemParams, bistability_curve,
                             drift_matrix, hysteresis_sweep, parse_config, run_scenario,
                             serialize_config, solve_transmitted_power, spectrum_matrix,
                             stability, steady_state_from_ptrans, switch_metrics,
                             turning_points)
from optomech_switch.errors import NoConvergenceError
from conftest import (CLEAN_BISTABLE, FIG_BISTABLE, FIG_SWITCH, SPECTRUM_GRID,
                      random_params, spectrum_params)
from reference import jump_input_power, repaired_closed_form, steady_state_direct
from test_closed_form import _max_relative, closed_form_audit
from test_spectrum import assert_matches_oracle

SEED = 7041


def _verdict(tag, ok, detail=""):
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))
    return ok


def _draw(rng):
    return SystemParams(
        kappa_a=rng.uniform(0.05, 2.0), kappa_b=rng.uniform(0.05, 2.0),
        kappa_d=rng.uniform(0.05, 2.0), gamma_m=rng.uniform(0.05, 2.0),
        delta_a=rng.uniform(-2.0, 2.0), delta_b=rng.uniform(-2.0, 2.0),
        delta_d=rng.uniform(-2.0, 2.0), j_coupling=rng.uniform(0.0, 1.5),
        g_qd=rng.uniform(0.0, 1.5), chi=rng.uniform(0.0, 1.5),
        lambda_pump=rng.uniform(0.0, 1.5), theta=rng.uniform(0.0, 2 * math.pi),
        n_inversion=rng.uniform(-1.0, 1.0))


def test_criterion_1_oracle_equivalence():
    """Re-derived polynomial roots == damped-Newton fixed points, 1000 draws."""
    rng = np.random.default_rng(SEED)
    mismatches = []
    draws = 0
    while draws < 1000:
        p = _draw(rng)
        eta0 = rng.uniform(0.0, 1.0)
        c_rock = rng.uniform(0.0, 0.5)
        roots = [r for r, _ in solve_transmitted_power(p, eta0, c_rock)]
        draws += 1
        fixed_points = []
        # root-seeded Newton must come back to its root
        for root in roots:
            seed_state = steady_state_from_ptrans(p, eta0, c_rock, root)
            try:
                st = steady_state_direct(p, eta0, c_rock,
                                         initial_guess=seed_state.a_s)
            except NoConvergenceError:
                mismatches.append((p, eta0, c_rock, root, "no convergence"))
                continue
            fixed_points.append(st.p_trans)
            if abs(st.p_trans - root) > 1e-8 * max(1.0, abs(root)):
                mismatches.append((p, eta0, c_rock, root, st.p_trans))
        # generic seeds: every found fixed point must be one of the roots
        for guess in (0.0 + 0.0j, 0.3 + 0.3j):
            try:
                st = steady_state_direct(p, eta0, c_rock, initial_guess=guess)
            except NoConvergenceError:
                continue
            if not any(abs(st.p_trans - r) <= 1e-8 * max(1.0, abs(r))
                       for r in roots):
                mismatches.append((p, eta0, c_rock, "extra", st.p_trans))
    ok = _verdict("1", not mismatches,
                  f"{draws} draws, {len(mismatches)} unexplained mismatches")
    assert ok, mismatches[:3]


def test_criterion_2_bistable_window_and_rocking_trend():
    grid = np.linspace(0.01, 1.0, 300)
    counts = [sum(m for _, m in solve_transmitted_power(FIG_BISTABLE,
                                                        math.sqrt(ip), 0.10))
              for ip in grid]
    window = 3 in counts
    knees = [max(inp for inp, _ in turning_points(FIG_BISTABLE, c))
             for c in (0.10, 0.36, 0.49)]
    trend = knees[0] > knees[1] > knees[2]
    ok = _verdict("2", window and trend,
                  f"3-root window={window}, upper knees={[f'{k:.4f}' for k in knees]}")
    assert ok


def test_criterion_3_branch_stability():
    total_mid = unstable_mid = total_outer = stable_outer = 0
    for params, c_rock in ((CLEAN_BISTABLE, 0.0), (CLEAN_BISTABLE, 0.1),
                           (CLEAN_BISTABLE.with_(delta_a=2.5, chi=0.7,
                                                 gamma_m=2.0), 0.0)):
        knees = sorted(inp for inp, _ in turning_points(params, c_rock))
        grid = np.linspace(0.5 * knees[0], 1.3 * knees[1], 120)
        # marginal knee points excluded by tolerance
        grid = grid[np.all(np.abs(grid[:, None] - np.array(knees)[None, :])
                           > 0.01 * np.array(knees)[None, :], axis=1)]
        curve = bistability_curve(params, grid, c_rock)
        for i in range(grid.size):
            stable = curve.stable[curve.point == i].tolist()
            if len(stable) == 3:
                total_mid += 1
                unstable_mid += (not stable[1])
                total_outer += 2
                stable_outer += stable[0] + stable[2]
            else:
                total_outer += len(stable)
                stable_outer += sum(stable)
    mid_ok = unstable_mid == total_mid and total_mid > 30
    outer_ok = stable_outer >= 0.99 * total_outer
    ok = _verdict("3", mid_ok and outer_ok,
                  f"middle unstable {unstable_mid}/{total_mid}, "
                  f"outer stable {stable_outer}/{total_outer}")
    assert ok


def _fig6_top_spectrum(j_coupling, chi):
    p = spectrum_params(j_coupling=j_coupling, chi=chi, gamma_m=1e-3)
    roots = [r for r, _ in solve_transmitted_power(p, 0.1, 0.10)]
    st = steady_state_from_ptrans(p, 0.1, 0.10, roots[-1])
    return p, spectrum_matrix(p, st, SPECTRUM_GRID)


def test_criterion_4a_three_peaks_at_published_rates():
    """Published three-peak claim at the published rates.

    Unattainable from the printed model: at drive amplitude 0.1 the
    intracavity power (and with it the optomechanical coupling) is orders
    of magnitude below the visibility threshold for the detuned optical
    modes.  docs/KNOWN_ERRATA.md item 12 has the bound and the scan.
    Kept faithful to the stated criterion; expected to FAIL.
    """
    counts = {j: len(_fig6_top_spectrum(j, 0.2)[1].peaks) for j in (1.0, 1.5)}
    ok = _verdict("4a", counts[1.0] == 3 and counts[1.5] == 3,
                  f"peak counts at J=1, 1.5: {counts[1.0]}, {counts[1.5]} "
                  "(expected red: KNOWN_ERRATA item 12)")
    assert ok


def test_criterion_4b_fewer_peaks_without_cavity_coupling():
    _, series = _fig6_top_spectrum(0.0, 0.2)
    ok = _verdict("4b", len(series.peaks) < 3,
                  f"peak count at J=0: {len(series.peaks)}")
    assert ok


def test_criterion_4c_peak_heights_grow_with_optomech_coupling():
    _, strong = _fig6_top_spectrum(0.5, 0.2)
    p_weak, weak = _fig6_top_spectrum(0.5, 0.1)
    assert strong.peaks, "no peaks to compare"
    weak_at = np.interp([pk.position for pk in strong.peaks],
                        weak.omega_grid, weak.s_q)
    pointwise = all(pk.height > w for pk, w in zip(strong.peaks, weak_at))
    ok = _verdict("4c", pointwise,
                  f"chi=0.2 peak heights exceed chi=0.1 pointwise: {pointwise}")
    assert ok


def test_criterion_5_spectrum_physicality():
    rng = np.random.default_rng(SEED + 5)
    grid = np.linspace(0.0, 2.5, 2000)
    checked = 0
    while checked < 100:
        p = random_params(rng)
        eta0 = rng.uniform(0.05, 1.0)
        state = None
        for r, _ in reversed(solve_transmitted_power(p, eta0, 0.0)):
            st = steady_state_from_ptrans(p, eta0, 0.0, r)
            if stability(drift_matrix(p, st)).stable:
                state = st
                break
        if state is None:
            continue
        series = spectrum_matrix(p, state, grid)
        assert np.all(series.s_q >= 0.0) and np.all(np.isfinite(series.s_q))
        # the full-correlation oracle is real to 1e-12 and equals spectrum_matrix
        assert_matches_oracle(p, state, series)
        checked += 1
    ok = _verdict("5", True, f"{checked} configs x {grid.size} points, "
                             "all non-negative and equal to the full-correlation oracle")
    assert ok


def test_criterion_6_closed_form_audit():
    rng = np.random.default_rng(SEED + 6)
    grid = np.linspace(1e-3, 2.5, 600)
    configs = [(spectrum_params(j, chi, 1e-3), 0.1, 0.10)
               for j in (0.0, 0.5, 1.0, 1.5) for chi in (0.1, 0.2)]
    while len(configs) < 20:
        p = random_params(rng)
        configs.append((p, rng.uniform(0.05, 0.8), 0.0))
    report, repaired = [], []
    for p, eta0, c_rock in configs:
        state = None
        for r, _ in reversed(solve_transmitted_power(p, eta0, c_rock)):
            st = steady_state_from_ptrans(p, eta0, c_rock, r)
            if stability(drift_matrix(p, st)).stable:
                state = st
                break
        if state is None:
            continue
        audit = closed_form_audit(p, state, grid)
        report.append({"max_dev": audit.max_deviation,
                       "frac_above_1pct": audit.frac_above_tol})
        if p.g_qd * p.n_inversion == 0.0:
            repaired.append(_max_relative(repaired_closed_form(p, state, grid),
                                          audit.matrix_s_q))
    complete = len(report) >= 20
    for i, entry in enumerate(report):
        print(f"  audit {i:02d}: sqrt max={entry['max_dev']['sqrt']:.3e} "
              f"frac={entry['frac_above_1pct']['sqrt']:.2f} | printed "
              f"max={entry['max_dev']['printed']:.3e} "
              f"frac={entry['frac_above_1pct']['printed']:.2f}")
    # deviations above 1% exist and must be itemized in the errata: items
    # 7-11 make up its closed-form section (7 the thermal factor, 9 and 10
    # the transcription defects), and with items 9 and 10 repaired and K1 on
    # the even thermal weight the closed form is the matrix route where
    # g*N = 0, so the list is complete
    numbers = _errata_numbers("Closed-form spectrum")
    exact = len(repaired) > 0 and max(repaired) < 1e-11
    itemized = numbers == list(range(7, 12)) and exact
    ok = _verdict("6", complete and itemized,
                  f"{len(report)} configurations audited; closed-form errata {numbers}; "
                  f"repaired form vs matrix route at {len(repaired)} g*N = 0 "
                  f"configurations: max {max(repaired, default=math.inf):.1e}; "
                  f"deviations itemized in KNOWN_ERRATA: {itemized}")
    assert ok


def _errata_numbers(section):
    """The item numbers under docs/KNOWN_ERRATA.md's heading `## {section}...`."""
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "KNOWN_ERRATA.md")
    with open(path, encoding="utf-8") as fh:
        body = fh.read().partition(f"\n## {section}")[2].partition("\n## ")[0]
    return [int(n) for n in re.findall(r"^(\d+)\. \*\*", body, flags=re.MULTILINE)]


def _ratio_gain_sweep(params, eta0, pamps=None, omegas=None):
    ratios, gains = [], []
    if pamps is not None:
        for pa in pamps:
            m = switch_metrics(params, DriveConfig(eta0=eta0, p_amp=float(pa),
                                                   omega_mod=1.0))
            ratios.append(m.switch_ratio)
            gains.append(m.gain)
    else:
        for om in omegas:
            m = switch_metrics(params, DriveConfig(eta0=eta0, p_amp=0.5,
                                                   omega_mod=float(om)))
            ratios.append(m.switch_ratio)
            gains.append(m.gain)
    return np.array(ratios), np.array(gains)


@pytest.fixture(scope="module")
def switch_trend_data():
    pamps = np.linspace(0.1, 1.0, 10)
    omegas = np.linspace(0.5, 3.0, 10)
    r_p, g_p = _ratio_gain_sweep(FIG_SWITCH, 0.1, pamps=pamps)
    r_o, g_o = _ratio_gain_sweep(FIG_SWITCH, 0.1, omegas=omegas)
    print(f"  ratio(P_amp) = {np.round(r_p, 3).tolist()}")
    print(f"  gain(P_amp)  = {np.round(g_p, 4).tolist()}")
    print(f"  ratio(Omega) = {np.round(r_o, 3).tolist()}")
    print(f"  gain(Omega)  = {np.round(g_o, 4).tolist()}")
    return r_p, g_p, r_o, g_o


def test_criterion_7a_ratio_decreases_with_modulation_amplitude(switch_trend_data):
    """Published trend; inverted in the printed model (max/min grows with
    modulation depth).  KNOWN_ERRATA item 13.  Expected to FAIL."""
    r_p, _, _, _ = switch_trend_data
    dec = bool(np.all(r_p[1:] <= r_p[:-1] * 1.05) and r_p[-1] < r_p[0])
    ok = _verdict("7a", dec, "switch ratio vs P_amp monotone decreasing: "
                  f"{dec} (expected red: KNOWN_ERRATA item 13)")
    assert ok


def test_criterion_7b_ratio_increases_with_modulation_frequency(switch_trend_data):
    """Published trend; the printed model is low-pass with parametric
    resonances inside the window.  KNOWN_ERRATA item 13.  Expected to FAIL."""
    _, _, r_o, _ = switch_trend_data
    inc = bool(np.all(r_o[1:] >= r_o[:-1] * 0.95) and r_o[-1] > r_o[0])
    ok = _verdict("7b", inc, "switch ratio vs Omega monotone increasing: "
                  f"{inc} (expected red: KNOWN_ERRATA item 13)")
    assert ok


def test_criterion_7c_gain_decreases_with_modulation_amplitude(switch_trend_data):
    _, g_p, _, _ = switch_trend_data
    dec = bool(np.all(g_p[1:] <= g_p[:-1] * 1.05) and g_p[-1] < g_p[0])
    ok = _verdict("7c", dec, f"gain vs P_amp monotone decreasing: {dec}")
    assert ok


def test_criterion_7d_gain_saturates_with_modulation_frequency(switch_trend_data):
    """Published trend; the model's gain falls off resonance instead.
    KNOWN_ERRATA item 13.  Expected to FAIL."""
    _, _, _, g_o = switch_trend_data
    q = len(g_o) // 4
    init_slope = (g_o[q - 1] - g_o[0]) / max(q - 1, 1)
    fin_slope = (g_o[-1] - g_o[-q]) / max(q - 1, 1)
    rising = bool(np.all(g_o[1:] >= g_o[:-1] * 0.95) and g_o[-1] > g_o[0])
    flat = abs(fin_slope) < 0.1 * abs(init_slope)
    ok = _verdict("7d", rising and flat,
                  f"gain vs Omega rises then flattens: rising={rising}, "
                  f"final/initial slope={abs(fin_slope):.3g}/{abs(init_slope):.3g} "
                  "(expected red: KNOWN_ERRATA item 13)")
    assert ok


def test_criterion_8_small_signal_gain():
    rng = np.random.default_rng(SEED + 8)
    checked = 0
    worst = 0.0
    while checked < 10:
        p = random_params(rng, chi_max=0.25)
        ip = rng.uniform(0.02, 0.3)
        h = 1e-4 * max(1.0, ip)
        sets = [solve_transmitted_power(p, math.sqrt(x), 0.0)
                for x in (ip - h, ip, ip + h)]
        if any(len(s) != 1 for s in sets):
            continue
        deriv = abs(sets[2][0][0] - sets[0][0][0]) / (2.0 * h)
        m = switch_metrics(p, DriveConfig(eta0=math.sqrt(ip), p_amp=1e-3,
                                          omega_mod=1e-2))
        rel = abs(m.gain - deriv) / max(deriv, 1e-12)
        worst = max(worst, rel)
        assert rel < 0.05, (p, ip, deriv, m.gain)
        checked += 1
    ok = _verdict("8", True, f"10 monostable configs, worst relative "
                             f"difference {worst:.2%} (< 5%)")
    assert ok


def test_criterion_9_hysteresis_matches_knees():
    k_lo, k_hi = sorted(inp for inp, _ in turning_points(CLEAN_BISTABLE, 0.0))
    ramp = np.linspace(1.5, 14.0, 1000)
    base_rate = CLEAN_BISTABLE.gamma_m / 20.0
    ups, downs = [], []
    for rate in (base_rate, base_rate / 2.0, base_rate / 4.0):
        up, down = hysteresis_sweep(CLEAN_BISTABLE, ramp, 0.0, rate=rate)
        ups.append(jump_input_power(up)[0])
        downs.append(jump_input_power(down)[0])

    def extrapolate(seq):
        d1, d2 = seq[1] - seq[0], seq[2] - seq[1]
        if d2 == 0.0 or d1 * d2 <= 0.0:
            return seq[2]
        return seq[2] + d2 / (d1 / d2 - 1.0)

    up_rel = abs(extrapolate(ups) - k_hi) / k_hi
    down_rel = abs(extrapolate(downs) - k_lo) / k_lo
    ok = _verdict("9", up_rel < 0.02 and down_rel < 0.02,
                  f"extrapolated jump vs knee: up {up_rel:.2%}, down {down_rel:.2%}")
    assert ok


def test_criterion_10_determinism_and_round_trip(tmp_path):
    scen_dir = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    with open(os.path.join(scen_dir, "switching_curve.cfg"), encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    assert parse_config(serialize_config(cfg)) == cfg
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    run_scenario(cfg, out_dir=str(d1))
    run_scenario(cfg, out_dir=str(d2))
    identical = True
    for name in sorted(os.listdir(d1)):
        with open(d1 / name, "rb") as f1, open(d2 / name, "rb") as f2:
            identical &= f1.read() == f2.read()
    # round-trip across every bundled scenario
    import glob

    rt = all(parse_config(serialize_config(parse_config(open(p).read())))
             == parse_config(open(p).read())
             for p in glob.glob(os.path.join(scen_dir, "*.cfg")))
    ok = _verdict("10", identical and rt,
                  f"byte-identical reruns: {identical}, "
                  f"config round-trips: {rt}")
    assert ok
