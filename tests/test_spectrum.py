import json
import os
import subprocess
import sys
import timeit
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.signal import find_peaks

from optomech_switch import (SystemParams, UnstableStateError, brownian_weight, closed_form,
                             detect_peaks, drift_matrix, parse_config, run_scenario, spectrum,
                             solve_transmitted_power, spectrum_matrix, stability,
                             steady_state_from_ptrans)
from optomech_switch.spectrum import (PEAK_PROMINENCE_FRACTION, _response_power,
                                      thermal_coth_times_omega)
from optomech_switch.steady_state import steady_state
from conftest import SPECTRUM_GRID, random_params, spectrum_params
from reference import model_drift_matrix, mirror_transfer, transfer_rows


def _correlation_matrix(omega, params):
    """Channel correlation matrix D(w), shape (nw, 5, 5), complex.

    Optical blocks are [[1, i], [-i, 1]] per cavity; the Brownian channel
    carries the full (non-symmetrized) weight at the given frequency.
    """
    d = np.zeros((omega.size, 5, 5), dtype=complex)
    d[:, 0, 0] = brownian_weight(omega, params)
    for base in (1, 3):
        d[:, base, base] = 1.0
        d[:, base + 1, base + 1] = 1.0
        d[:, base, base + 1] = 1j
        d[:, base + 1, base] = -1j
    return d


def correlation_oracle(params, steady, omega_grid):
    """Full-correlation S_q(w) = 1/2 [T(w) D(w) T(-w) + T(-w) D(-w) T(w)], complex.

    T comes from a full per-frequency solve of the printed model, bordered
    by the dot (``reference.model_drift_matrix``), against
    the input matrix F (Brownian force into p, vacuum inputs into both
    cavities, none into the dot), and T(-w) = conj T(w).  The imaginary
    part is the residue of the optical cross correlations, which cancel
    exactly in the symmetrized sum.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    m = model_drift_matrix(params, steady)
    n = m.shape[0]
    f = np.zeros((n, 5))
    f[1, 0] = 1.0
    f[2, 1] = f[3, 2] = np.sqrt(params.kappa_b)
    f[4, 3] = f[5, 4] = np.sqrt(params.kappa_a)
    a = -1j * omega_grid[:, None, None] * np.eye(n) - m
    t = np.linalg.solve(a, np.broadcast_to(f, (omega_grid.size, n, 5)))[:, 0, :]
    tc = np.conj(t)
    s1 = np.einsum("wj,wjk,wk->w", t, _correlation_matrix(omega_grid, params), tc)
    s2 = np.einsum("wj,wjk,wk->w", tc, _correlation_matrix(-omega_grid, params), t)
    return 0.5 * (s1 + s2)


def assert_matches_oracle(params, steady, series):
    """spectrum_matrix equals the oracle's real part; its imaginary residue is < 1e-12."""
    full = correlation_oracle(params, steady, series.omega_grid)
    assert np.max(np.abs(full.imag)) < 1e-12 * np.max(np.abs(full.real))
    np.testing.assert_allclose(series.s_q, full.real, rtol=1e-12, atol=0.0)


def _stable_state(params, eta0, c=0.0, prefer_top=True):
    roots = [r for r, _ in solve_transmitted_power(params, eta0, c)]
    order = sorted(roots, reverse=prefer_top)
    for r in order:
        st = steady_state_from_ptrans(params, eta0, c, r)
        if stability(drift_matrix(params, st)).stable:
            return st
    return None


def _decoupled():
    return SystemParams(chi=0.0, j_coupling=0.0, lambda_pump=0.0, g_qd=0.0,
                        gamma_m=0.02, kappa_a=0.4, kappa_b=0.4,
                        thermal_ratio=1e-4)


def test_decoupled_thermal_lorentzian():
    """chi = J = 0: the q-spectrum is the bare thermal oscillator line."""
    p = _decoupled()
    st = _stable_state(p, 0.3)
    grid = np.linspace(0.0, 2.5, 3000)
    series = spectrum_matrix(p, st, grid)
    w = grid
    expected = (p.gamma_m / p.omega_m) * thermal_coth_times_omega(w, p) \
        * p.omega_m**2 / ((p.omega_m**2 - w**2) ** 2 + p.gamma_m**2 * w**2)
    assert np.allclose(series.s_q, expected, rtol=1e-10, atol=1e-12)
    assert len(series.peaks) == 1
    peak = series.peaks[0]
    assert abs(peak.position - p.omega_m) < 2.0 * p.gamma_m
    # half width at half maximum ~ gamma_m/2 for the weakly damped line
    above = w[series.s_q >= 0.5 * peak.height]
    assert (above[-1] - above[0]) == pytest.approx(p.gamma_m, rel=0.2)


def test_equipartition_high_temperature():
    """integral S_q dw / (2 pi) -> kB T / (hbar omega_m) fixes the prefactor."""
    p = _decoupled()
    st = _stable_state(p, 0.3)
    grid = np.linspace(0.0, 60.0, 400000)
    series = spectrum_matrix(p, st, grid)
    var_q = 2.0 * trapezoid(series.s_q, grid) / (2.0 * np.pi)
    assert var_q == pytest.approx(1.0 / p.thermal_ratio, rel=2e-2)


def test_positive_and_real_on_random_stable_configs(rng):
    done = 0
    while done < 25:
        p = random_params(rng)
        st = _stable_state(p, rng.uniform(0.05, 1.0))
        if st is None:
            continue
        series = spectrum_matrix(p, st, SPECTRUM_GRID)
        assert np.all(series.s_q >= 0.0)
        assert np.all(np.isfinite(series.s_q))
        assert_matches_oracle(p, st, series)
        done += 1


def test_active_dot_mirror_response_equals_elimination(rng):
    """With g*N != 0, T_0 (the response of q to the Brownian force) equals
    the mirror susceptibility with the optical spring, cavity B and the dot
    eliminated per frequency (``reference.mirror_transfer``): the kernel's
    |T_0|^2 in modulus, and the Cramer row ``reference.transfer_rows`` in
    phase too.  The draws have a strong spring (chi up to 1, gamma_m / 20),
    where the dot's term in cavity B's response moves T_0 far beyond the
    tolerance."""
    grid = np.linspace(0.0, 2.5, 1001)
    moved = []
    while len(moved) < 12:
        p = random_params(rng, chi_max=1.0)
        p = p.with_(gamma_m=p.gamma_m / 20.0)
        st = _stable_state(p, rng.uniform(0.05, 1.0))
        if st is None:
            continue
        assert p.g_qd * p.n_inversion != 0.0
        expected = mirror_transfer(p, st, grid)
        got = np.sqrt(_response_power(p, st, grid)[0])
        np.testing.assert_allclose(got, np.abs(expected), rtol=1e-10, atol=0.0)
        got = transfer_rows(p, st, grid)[:, 0]
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)
        without_dot = mirror_transfer(p.with_(n_inversion=0.0), st, grid)
        moved.append(np.max(np.abs(without_dot - expected) / np.abs(expected)))
    assert min(moved) > 1e-7 and max(moved) > 0.1


def test_chi_zero_spectrum_independent_of_optical_parameters(rng):
    grid = np.linspace(0.0, 2.5, 800)
    p = _decoupled()
    st = _stable_state(p, 0.3)
    base = spectrum_matrix(p, st, grid)
    for _ in range(5):
        q = p.with_(j_coupling=rng.uniform(0, 1.5), g_qd=rng.uniform(0, 1.5),
                    lambda_pump=rng.uniform(0, 1.0))
        st_q = _stable_state(q, 0.3)
        other = spectrum_matrix(q, st_q, grid)
        assert np.allclose(other.s_q, base.s_q, rtol=1e-10)


def test_affine_in_brownian_weight():
    """At fixed w, S_q is affine in the thermal weight with slope >= 0."""
    p = spectrum_params(j_coupling=0.5, chi=0.2)
    st = _stable_state(p, 0.1, 0.10)
    grid = np.linspace(0.05, 2.5, 400)
    ratios = (1e-6, 1e-3, 1e-1)
    series, weights = [], []
    for r in ratios:
        q = p.with_(thermal_ratio=r)
        series.append(spectrum_matrix(q, st, grid).s_q)
        weights.append(q.gamma_m / q.omega_m * thermal_coth_times_omega(grid, q))
    s0, s1, s2 = series
    w0, w1, w2 = weights
    slope = (s1 - s0) / (w1 - w0)
    assert np.all(slope >= -1e-12)
    predicted = s0 + slope * (w2 - w0)
    assert np.allclose(s2, predicted, rtol=1e-8, atol=1e-12)


def test_brownian_weight_zero_frequency_limit():
    p = SystemParams(thermal_ratio=1e-3, gamma_m=0.5, omega_m=1.0)
    w = np.array([0.0, 1e-9, 1e-6])
    got = brownian_weight(w, p)
    limit = p.gamma_m * (2.0 / p.thermal_ratio + w)
    assert np.allclose(got, limit, rtol=1e-8)
    # odd + even split: weight(w) - weight(-w) = 2 gamma_m w / omega_m
    w = np.linspace(-3, 3, 101)
    asym = brownian_weight(w, p) - brownian_weight(-w, p)
    assert np.allclose(asym, 2.0 * p.gamma_m * w, rtol=1e-10, atol=1e-12)


def test_detect_peaks_single_lorentzian():
    grid = np.linspace(0.0, 2.0, 2001)
    s = 1.0 / ((grid - 0.8) ** 2 + 0.01**2)
    peaks = detect_peaks(grid, s)
    assert len(peaks) == 1
    assert abs(peaks[0].position - 0.8) <= grid[1] - grid[0]


def test_detect_peaks_flat_series():
    grid = np.linspace(0.0, 1.0, 600)
    assert detect_peaks(grid, np.ones_like(grid)) == ()
    assert detect_peaks(grid, np.zeros_like(grid)) == ()


def test_unstable_state_refused():
    # middle branch of the published bistable set
    from conftest import FIG_BISTABLE

    roots = solve_transmitted_power(FIG_BISTABLE, np.sqrt(0.35), 0.10)
    st = steady_state_from_ptrans(FIG_BISTABLE, np.sqrt(0.35), 0.10, roots[1][0])
    with pytest.raises(UnstableStateError):
        spectrum_matrix(FIG_BISTABLE, st, SPECTRUM_GRID)


def test_three_peak_demo_configuration():
    """Narrow-line demo set: three hybrid-mode peaks at J = 1, fewer at J = 0."""
    demo = SystemParams(kappa_a=0.005, kappa_b=0.005, kappa_d=1.8, gamma_m=0.05,
                        delta_a=1.5, delta_b=1.0, delta_d=-1.0, j_coupling=1.0,
                        g_qd=1.0, chi=0.2, lambda_pump=0.02, theta=0.238,
                        n_inversion=0.0, thermal_ratio=1e-6)
    st = _stable_state(demo, 0.1, 0.10)
    series = spectrum_matrix(demo, st, SPECTRUM_GRID)
    assert len(series.peaks) == 3
    assert_matches_oracle(demo, st, series)
    off = demo.with_(j_coupling=0.0)
    st0 = _stable_state(off, 0.1, 0.10)
    series0 = spectrum_matrix(off, st0, SPECTRUM_GRID)
    assert len(series0.peaks) < 3
    assert_matches_oracle(off, st0, series0)


@pytest.mark.parametrize("j_coupling", [1.45, 1.55])
def test_oracle_near_mode_crossing(j_coupling):
    """Near the J = 1.5 mode crossings S_q equals the oracle to rtol 1e-12."""
    p = spectrum_params(j_coupling=j_coupling)
    st = _stable_state(p, 0.1, 0.10)
    assert_matches_oracle(p, st, spectrum_matrix(p, st, SPECTRUM_GRID))


SPECTRUM_SCENARIOS = ("nms_three_peak_demo", "spectrum_closed_form_audit",
                      "spectrum_vs_cavity_coupling", "spectrum_vs_optomech_coupling")


@pytest.fixture(scope="module")
def bundled_spectrum_calls(tmp_path_factory):
    """The bundled spectrum scenarios, run once: the (params, steady, grid)
    of every response-power evaluation, and the (grid, S) of every
    detect_peaks call."""
    kernel_calls, peaks = [], []

    def recording_response_power(params, steady, omega_grid):
        kernel_calls.append((params, steady, np.array(omega_grid)))
        return _response_power(params, steady, omega_grid)

    def recording_peaks(grid, s):
        peaks.append((np.array(grid), np.array(s)))
        return detect_peaks(grid, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_response_power", recording_response_power)
        mp.setattr(spectrum, "detect_peaks", recording_peaks)
        mp.setattr(closed_form, "detect_peaks", recording_peaks)
        for name in SPECTRUM_SCENARIOS:
            cfg = parse_config((ROOT / "scenarios" / f"{name}.cfg").read_text())
            run_scenario(cfg, out_dir=str(tmp_path_factory.mktemp(name)))
    return kernel_calls, peaks


def _solved_transfer(m, params, grid):
    """Rows 1-5 of x (-i w I - M) = e_q, one LU solve per w, times the input
    couplings: the Brownian force into p, the vacua into cavities B and A."""
    n = m.shape[0]
    shifted = -1j * grid[:, None, None] * np.eye(n) - m
    e_q = np.broadcast_to(np.eye(n)[:, :1], (grid.size, n, 1))
    x = np.linalg.solve(np.swapaxes(shifted, 1, 2), e_q)[:, 1:6, 0]
    kb, ka = np.sqrt(params.kappa_b), np.sqrt(params.kappa_a)
    return x * np.array([1.0, kb, kb, ka, ka])


def _weighted_power(params, grid, t):
    """S_q from the five responses T_k: the even Brownian weight times
    |T_0|^2 plus sum_{k>=1} |T_k|^2."""
    power = np.abs(t) ** 2
    return (params.gamma_m / params.omega_m * thermal_coth_times_omega(grid, params)
            * power[:, 0] + power[:, 1:].sum(axis=1))


def _solve_cases(recorded):
    """(M, params, steady, grid): every bundled spectrum evaluation, an
    active dot, the J ~ 1.5 mode crossings, and g*N = 0 both ways."""
    assert len(recorded) > len(SPECTRUM_SCENARIOS)
    cases = [(drift_matrix(p, st), p, st, grid) for p, st, grid in recorded]
    grid = np.linspace(0.0, 2.5, 2001)
    for p in (spectrum_params().with_(n_inversion=-0.5), spectrum_params(j_coupling=1.45),
              spectrum_params(j_coupling=1.55), spectrum_params(),
              spectrum_params().with_(g_qd=0.0, n_inversion=-0.5)):
        st = _stable_state(p, 0.1, 0.10)
        cases.append((drift_matrix(p, st), p, st, grid))
    return cases


def test_transfer_equals_per_frequency_solve(bundled_spectrum_calls):
    """Cramer's rule (``reference.transfer_rows``) gives the per-w solve of
    the drift matrix, all five channels, within 1e-12 of each w's largest
    response, on every case of ``_solve_cases``."""
    for m, p, st, grid in _solve_cases(bundled_spectrum_calls[0]):
        expected = _solved_transfer(m, p, grid)
        got = transfer_rows(p, st, grid)
        scale = np.max(np.abs(expected), axis=1, keepdims=True)
        assert np.max(np.abs(got - expected) / scale) < 1e-12


def test_response_power_equals_per_frequency_solve(bundled_spectrum_calls):
    """S_q summed from squared moduli in real arithmetic equals the
    weighted sum of |T_k|^2 from the per-w solve to 1e-12 relative, on
    every case of ``_solve_cases``."""
    for m, p, st, grid in _solve_cases(bundled_spectrum_calls[0]):
        expected = _weighted_power(p, grid, _solved_transfer(m, p, grid))
        got = spectrum_matrix(p, st, grid).s_q
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def test_brownian_power_equals_mirror_susceptibility(bundled_spectrum_calls):
    """The kernel's |T_0|^2 is |``reference.mirror_transfer``|^2, the
    mirror susceptibility with the fields eliminated, to 1e-12 relative."""
    for _, p, st, grid in _solve_cases(bundled_spectrum_calls[0]):
        brownian, _ = _response_power(p, st, grid)
        expected = np.abs(mirror_transfer(p, st, grid)) ** 2
        np.testing.assert_allclose(brownian, expected, rtol=1e-12, atol=0.0)


def test_three_peak_demo_equals_the_cramer_rows(bundled_spectrum_calls):
    """On ``nms_three_peak_demo``'s evaluation, the sum of squared moduli
    in real arithmetic equals the weighted |T_k|^2 of the complex Cramer
    rows to 1e-13 relative: the real sum trades no accuracy for speed."""
    demo = parse_config((ROOT / "scenarios" / "nms_three_peak_demo.cfg").read_text()).params
    calls = [(p, st, grid) for p, st, grid in bundled_spectrum_calls[0] if p == demo]
    assert calls
    for p, st, grid in calls:
        expected = _weighted_power(p, grid, transfer_rows(p, st, grid))
        got = spectrum_matrix(p, st, grid).s_q
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)


def test_cavity_b_dot_pole_on_the_grid():
    """g^2 N / kappa_d = kappa_b at delta_b = delta_d = 1: cavity B and the
    dot have a pole at w = 1, a grid point.  The spectrum divides by no
    cavity-B/dot determinant, so it stays finite there and equals the
    full-correlation oracle."""
    p = SystemParams(kappa_b=0.1, kappa_d=1.0, g_qd=1.0, n_inversion=0.1, delta_b=1.0,
                     delta_d=1.0)
    grid = np.linspace(0.0, 2.5, 2001)
    assert grid[800] == 1.0
    for eta0 in (0.05, 0.3):
        st = steady_state(p, eta0, 0.0, "upper")
        assert stability(drift_matrix(p, st)).stable
        series = spectrum_matrix(p, st, grid)
        assert np.all(np.isfinite(series.s_q))
        assert_matches_oracle(p, st, series)


ROOT = Path(__file__).resolve().parent.parent

# CLI runs in one fresh interpreter; after each stage it prints the public
# scipy subpackages (scipy.__all__) that sys.modules holds.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import scipy

def loaded():
    return sorted({m.split(".")[1] for m in sys.modules if m.startswith("scipy.")}
                  & set(scipy.__all__))

import optomech_switch
from optomech_switch.cli import main

scenarios, out = sys.argv[1:3]
stages = {"import": loaded()}
for stage, task, name in [("bistability", "bistability", "switching_curve"),
                          ("switch", "sweep", "switch_metrics_vs_omega_variant_a"),
                          ("spectrum", "spectrum", "nms_three_peak_demo"),
                          ("hysteresis", "hysteresis", "hysteresis_loop")]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([task, "--config", f"{scenarios}/{name}.cfg", "--out", f"{out}/{stage}"])
    assert code == 0, (stage, code)
    stages[stage] = loaded()
print(json.dumps(stages))
"""


def test_cli_runs_import_only_the_scipy_they_call(tmp_path):
    """The package loads no scipy subpackage, nor does a bistability, switch
    or spectrum run; a hysteresis run adds scipy.integrate (odeint), and
    nothing loads scipy.signal."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "scenarios"),
                           str(tmp_path)], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout)
    assert stages["import"] == []
    assert stages["bistability"] == []
    assert stages["switch"] == []
    assert stages["spectrum"] == []
    assert "integrate" in stages["hysteresis"]
    assert "signal" not in stages["hysteresis"]


def _bits(peaks):
    return [(p.position.hex(), p.height.hex(), p.prominence.hex()) for p in peaks]


def _scipy_peaks(grid, s):
    """detect_peaks by its definition, with scipy.signal.find_peaks."""
    s = np.asarray(s, dtype=float)
    if s.size == 0 or np.max(s) <= 0.0:
        return []
    idx, props = find_peaks(s, prominence=PEAK_PROMINENCE_FRACTION * np.max(s))
    return [(float(grid[i]).hex(), float(s[i]).hex(), float(p).hex())
            for i, p in zip(idx, props["prominences"])]


def _random_series(rng, n):
    kind = rng.integers(4)
    if kind == 0:  # small integers: plateaus and equal-height peaks
        return rng.integers(0, 5, n).astype(float)
    if kind == 1:  # runs of repeated values
        return np.repeat(rng.integers(0, 7, n), rng.integers(1, 5, n))[:n].astype(float)
    if kind == 2:  # coarse rounding: ties between distant samples
        return np.round(rng.uniform(0.0, 1.0, n), 1)
    return rng.uniform(0.0, 1.0, n)


def test_detect_peaks_matches_scipy_find_peaks(rng):
    series = [np.array(v, dtype=float) for v in
              ([], [1.0], [1.0, 2.0], [2.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 1.0],
               [1.0, 2.0, 3.0], [3.0, 2.0, 1.0], [2.0, 1.0, 2.0], [1.0, 3.0, 3.0],
               [3.0, 3.0, 1.0], [1.0, 2.0, 2.0, 1.0], [1.0, 2.0, 2.0, 2.0, 1.0],
               [0.0, 2.0, 1.0, 2.0, 0.0], [5.0] * 40, np.arange(30.0), np.arange(30.0)[::-1],
               [-1.0, 2.0, -3.0, 1.0, -1.0],
               [0.0, 100.0, 0.0, 1.0, 0.0])]  # a prominence at the threshold
    series += [_random_series(rng, int(rng.integers(0, 80))) for _ in range(3000)]
    for s in series:
        grid = np.linspace(0.0, 1.0, s.size)
        assert _bits(detect_peaks(grid, s)) == _scipy_peaks(grid, s), s


def test_detect_peaks_on_bundled_spectra_matches_scipy(bundled_spectrum_calls):
    seen = bundled_spectrum_calls[1]
    assert len(seen) >= 8  # the closed-form audit adds its matrix reference
    for grid, s in seen:
        assert _bits(detect_peaks(grid, s)) == _scipy_peaks(grid, s)


def test_detect_peaks_linear_time():
    """20000 samples of noise (~6700 maxima) in under 50 ms; a Python scan
    per maximum out to its bases took ~270 ms."""
    s = np.random.default_rng(7).uniform(size=20000)
    grid = np.arange(s.size, dtype=float)
    best = min(timeit.repeat(lambda: detect_peaks(grid, s), number=1, repeat=5))
    assert best < 0.05
