from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
import pytest

from optomech_switch import (SteadyState, SystemParams, brownian_weight, drift_matrix,
                             parse_config, rocking_parameter, solve_transmitted_power,
                             spectrum_closed_form, spectrum_matrix, stability,
                             steady_state_from_ptrans)
from optomech_switch.closed_form import (AUDIT_TOL, _coefficients, _printed,
                                         _relative_deviation)
from optomech_switch.config import apply_sweep_value
from optomech_switch.steady_state import _Poly, steady_state
from conftest import random_params, spectrum_params
from reference import CLOSED_FORM_REPAIRS, printed_drift_matrix, repaired_closed_form

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class ClosedFormAudit:
    omega_grid: np.ndarray
    matrix_s_q: np.ndarray
    closed_s_q: dict  # convention -> s_q array
    deviation: dict   # convention -> per-omega relative deviation
    max_deviation: dict
    frac_above_tol: dict


def _printed_closed_form(params: SystemParams, steady: SteadyState,
                         omega_grid: np.ndarray) -> np.ndarray:
    """S_q(w) of the closed form with K1's thermal factor as printed,
    gamma_m*coth(hbar*w/(2 kB T)) (KNOWN_ERRATA item 7)."""
    dd, k1b, k2, k3, k4, k5 = _coefficients(params, steady, omega_grid)
    x = omega_grid * params.thermal_ratio / (2.0 * params.omega_m)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k1 = k1b * (params.gamma_m / np.tanh(x))
        return (np.abs(k1)**2 + np.abs(k2)**2 + np.abs(k3)**2
                + np.abs(k4)**2 + np.abs(k5)**2) / np.abs(dd)**2


def closed_form_audit(params: SystemParams, steady: SteadyState,
                      omega_grid: np.ndarray) -> ClosedFormAudit:
    """The closed form with the library's ("sqrt") and the printed thermal
    factor of K1, each against the matrix route."""
    reference = spectrum_matrix(params, steady, omega_grid)
    closed = {"sqrt": spectrum_closed_form(params, steady, omega_grid).s_q,
              "printed": _printed_closed_form(params, steady, omega_grid)}
    deviation, max_dev, frac = {}, {}, {}
    for conv, s_q in closed.items():
        dev = _relative_deviation(s_q, reference.s_q)
        deviation[conv] = dev
        finite = dev[np.isfinite(dev)]
        max_dev[conv] = float(np.max(finite)) if finite.size else float("inf")
        frac[conv] = float(np.mean(dev > AUDIT_TOL))
    return ClosedFormAudit(omega_grid=omega_grid, matrix_s_q=reference.s_q,
                           closed_s_q=closed, deviation=deviation,
                           max_deviation=max_dev, frac_above_tol=frac)


def _fig_state(j_coupling=1.0, chi=0.2):
    p = spectrum_params(j_coupling=j_coupling, chi=chi)
    roots = solve_transmitted_power(p, 0.1, 0.10)
    st = steady_state_from_ptrans(p, 0.1, 0.10, roots[-1][0])
    return p, st


def _decoupled_state():
    p = spectrum_params(j_coupling=0.0, chi=0.0).with_(g_qd=0.0, lambda_pump=0.0)
    roots = solve_transmitted_power(p, 0.1, 0.0)
    st = steady_state_from_ptrans(p, 0.1, 0.0, roots[0][0])
    return p, st


def test_decoupled_limit_reduces_to_thermal_lorentzian():
    """Both routes give the same thermal line when only mechanics is live.

    The printed K5 keeps the v_A channel's term without its amplitude
    factor (errata item 10), so it is nonzero here and caps the full
    agreement near 1e-3; excluding that one channel, the transcription
    matches the matrix route to 1e-6.
    """
    p, st = _decoupled_state()
    grid = np.linspace(0.0, 2.5, 1200)
    matrix = spectrum_matrix(p, st, grid)
    closed = spectrum_closed_form(p, st, grid)
    rel_full = np.abs(closed.s_q - matrix.s_q) / np.max(matrix.s_q)
    assert np.max(rel_full) < 2e-3

    dd, k1b, k2, k3, k4, k5 = _coefficients(p, st, grid)
    k1 = k1b * np.sqrt(brownian_weight(grid, p))
    without_k5 = (np.abs(k1) ** 2 + np.abs(k2) ** 2 + np.abs(k3) ** 2
                  + np.abs(k4) ** 2) / np.abs(dd) ** 2
    rel = np.abs(without_k5 - matrix.s_q) / np.abs(matrix.s_q)
    # residual = tanh(hbar w / 2 kB T): the one-sided thermal weight of K1
    # vs the matrix route's symmetrized one; 1.25e-6 at the band edge here
    x = grid * p.thermal_ratio / 2.0
    assert np.max(rel - np.tanh(x)) < 1e-9
    assert np.max(rel[grid <= 2.0]) < 1e-6
    # the excluded channel is exactly the documented defect of K5
    assert np.max(np.abs(k5)) > 0.0


def test_transcription_self_check_k1_bracket():
    """|K1 bracket| equals |omega_m * det(optical block)| exactly."""
    p, st = _fig_state()
    grid = np.linspace(1e-3, 2.5, 300)
    _, k1b, *_ = _coefficients(p, st, grid)
    m = printed_drift_matrix(p, st)
    det_opt = np.array([np.linalg.det(-1j * w * np.eye(4) - m[2:, 2:])
                        for w in grid])
    assert np.max(np.abs(np.abs(k1b) - np.abs(p.omega_m * det_opt))
                  / np.abs(det_opt)) < 1e-10


def test_k1_finite_at_zero_frequency():
    p, st = _fig_state()
    _, k1b, *_ = _coefficients(p, st, np.array([0.0]))
    assert np.isfinite(k1b[0])
    det_opt0 = np.linalg.det(-printed_drift_matrix(p, st)[2:, 2:])
    assert abs(k1b[0]) == pytest.approx(abs(p.omega_m * det_opt0), rel=1e-12)


def test_audit_prefers_sqrt_convention():
    p, st = _fig_state()
    grid = np.linspace(1e-3, 2.5, 400)
    audit = closed_form_audit(p, st, grid)
    assert audit.frac_above_tol["sqrt"] < 0.15
    assert audit.frac_above_tol["printed"] > 0.95
    assert audit.max_deviation["printed"] > 1e6


def test_peak_positions_agree_between_routes():
    p, st = _fig_state()
    grid = np.linspace(0.0, 2.5, 2000)
    matrix = spectrum_matrix(p, st, grid)
    closed = spectrum_closed_form(p, st, grid)
    pos_m = grid[np.argmax(matrix.s_q)]
    pos_c = grid[np.argmax(closed.s_q)]
    assert abs(pos_m - pos_c) <= 3 * (grid[1] - grid[0])


def test_deviation_logging(caplog):
    p, st = _fig_state()
    grid = np.linspace(1e-3, 2.5, 200)
    with caplog.at_level("WARNING", logger="optomech_switch.closed_form"):
        spectrum_closed_form(p, st, grid)
    assert any("authoritative" in rec.message for rec in caplog.records)


def _bundled_spectrum_evaluations():
    """(params, steady, omega grid) of every spectrum the bundled scenarios
    compute, one per sweep value."""
    for path in sorted((ROOT / "scenarios").glob("*.cfg")):
        cfg = parse_config(path.read_text())
        opt = dict(cfg.task.options)
        if (opt.get("task") if cfg.task.name == "sweep" else cfg.task.name) != "spectrum":
            continue
        grid = np.linspace(opt["omega_min"], opt["omega_max"], opt["omega_points"])
        values = cfg.sweep.values if cfg.sweep is not None else (None,)
        for value in values:
            point = cfg if value is None else apply_sweep_value(cfg, value)
            steady = steady_state(point.params, point.drive.eta0,
                                  rocking_parameter(point.drive), opt["branch"])
            yield point.params, steady, grid


def _max_relative(candidate, reference):
    return float(np.max(np.abs(candidate - reference) / np.abs(reference)))


def test_repaired_closed_form_is_the_matrix_route():
    """With its three transcription defects repaired and K1 on the even
    Brownian weight, the printed closed form is the matrix route's S_q to
    1e-11 relative where g*N = 0: on the 7 bundled spectrum evaluations and
    on 40 stable roots of seeded random draws."""
    evaluations = list(_bundled_spectrum_evaluations())
    assert len(evaluations) == 7
    for params, steady, grid in evaluations:
        assert params.g_qd * params.n_inversion == 0.0
        matrix = spectrum_matrix(params, steady, grid).s_q
        assert _max_relative(repaired_closed_form(params, steady, grid), matrix) < 1e-11
    rng = np.random.default_rng(7)
    grid, checked = np.linspace(0.0, 2.5, 400), 0
    while checked < 40:
        params, eta0 = random_params(rng).with_(n_inversion=0.0), rng.uniform(0.05, 1.0)
        for p_trans, _ in solve_transmitted_power(params, eta0, 0.0):
            steady = steady_state_from_ptrans(params, eta0, 0.0, p_trans)
            if stability(drift_matrix(params, steady)).stable:
                checked += 1
                matrix = spectrum_matrix(params, steady, grid).s_q
                assert _max_relative(repaired_closed_form(params, steady, grid), matrix) < 1e-11


def test_each_closed_form_repair_is_needed():
    """Undoing any one repair moves the closed form off the matrix route by
    more than 5e-4, on the audit scenario's system with delta_b = 0.5 (at its
    own delta_b = 1, db^2 = db hides the Delta_b repair)."""
    cfg = parse_config((ROOT / "scenarios" / "spectrum_closed_form_audit.cfg").read_text())
    params = cfg.params.with_(delta_b=0.5)
    steady = steady_state(params, cfg.drive.eta0, rocking_parameter(cfg.drive), "upper")
    grid = np.linspace(0.0, 2.5, 2000)
    matrix = spectrum_matrix(params, steady, grid).s_q
    assert _max_relative(repaired_closed_form(params, steady, grid), matrix) < 1e-11
    for repair in sorted(CLOSED_FORM_REPAIRS):
        undone = repaired_closed_form(params, steady, grid, CLOSED_FORM_REPAIRS - {repair})
        assert _max_relative(undone, matrix) > 5e-4, repair


def _linear_benchmark_states():
    """The spectrum systems of perfbench's `linear` workload at its drive
    (eta0 = 0.1, C = 0.1): broad lines at J ~ 0, 1, 1.5 and narrow lines at
    chi = 0.1, 0.2, 0.3, upper branch."""
    broad = [spectrum_params(j_coupling=j) for j in (0.03, 1.0, 1.5)]
    narrow = [spectrum_params(chi=chi, gamma_m=0.05).with_(kappa_a=0.005, kappa_b=0.005,
                                                            delta_a=1.5)
              for chi in (0.1, 0.2, 0.3)]
    for params in broad + narrow:
        yield params, steady_state(params, 0.1, 0.1, "upper")


def test_collected_polynomials_are_the_printed_text():
    """`_coefficients` (the printed text collected as polynomials in w, then
    Horner on the grid) equals `_printed` evaluated term by term on the grid
    to 1e-11 relative at every point: on every bundled spectrum evaluation
    and on the benchmark's 20000-point spectrum systems.  The largest
    difference, 6.0e-12 in Dd, sits on the mechanical line at J = 0.03, where
    |Dd| is ~2e-4 of its O(1) coefficients."""
    grid = np.linspace(0.0, 2.5, 20000)
    cases = [*_bundled_spectrum_evaluations(),
             *((params, steady, grid) for params, steady in _linear_benchmark_states())]
    assert len(cases) == 13
    for params, steady, omega in cases:
        for horner, printed in zip(_coefficients(params, steady, omega),
                                   _printed(params, steady, omega)):
            assert np.all(np.abs(horner - printed) <= 1e-11 * np.abs(printed))


def _closed_form_40_digits(params, steady, grid):
    """S_q of the printed polynomials, collected and evaluated at 40 digits
    (K1 on the double-precision Brownian weight, as in the library)."""
    with mpmath.workdps(40):
        polys = _printed(params, steady, _Poly([mpmath.mpf(0), mpmath.mpf(1)]))
        s_q = []
        for w, weight in zip(grid.tolist(), brownian_weight(grid, params).tolist()):
            dd, k1b, *ks = (abs(mpmath.polyval(p.coef[::-1], w)) ** 2 for p in polys)
            s_q.append(float((k1b * weight + sum(ks)) / dd))
    return np.array(s_q)


def test_closed_form_spectrum_against_40_digits():
    """The library's closed-form S_q is within 1e-11 relative of the same
    printed polynomials evaluated at 40 digits, on 2000 points of the
    benchmark's spectrum systems.  Both double routes lose digits where Dd
    nearly vanishes: at J = 0.03, on the mechanical line, the collected
    polynomials read 2.9e-12 and the term-by-term text 2.2e-12; the other
    five systems read 9.8e-14 to 1.6e-12."""
    grid = np.linspace(0.0, 2.5, 2000)
    for params, steady in _linear_benchmark_states():
        s_q = spectrum_closed_form(params, steady, grid).s_q
        assert _max_relative(s_q, _closed_form_40_digits(params, steady, grid)) < 1e-11
