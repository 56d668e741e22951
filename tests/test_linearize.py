import math

import numpy as np
import pytest

from optomech_switch import (SystemParams, drift_matrix, fluctuation_amplitudes,
                             solve_transmitted_power, stability,
                             steady_state_from_ptrans)
from conftest import FIG_BISTABLE, random_params


def _steady(params, eta0, c=0.0, which=0):
    roots = solve_transmitted_power(params, eta0, c)
    return steady_state_from_ptrans(params, eta0, c, roots[which][0])


def _synthetic_state(a_s):
    from optomech_switch import SteadyState

    return SteadyState(a_s=a_s, b_s=0j, sigma_eg_s=0j, q_s=0.0, p_s=0.0,
                       p_trans=abs(a_s) ** 2, eff_detuning=0.0)


def test_amplitudes_real_mean_field():
    a_plus, a_minus_i = fluctuation_amplitudes(_synthetic_state(0.7 + 0j), SystemParams(chi=0.2))
    assert a_minus_i == 0.0
    assert a_plus == pytest.approx(math.sqrt(2) * 0.2 * 0.7, rel=1e-12)


def test_amplitudes_imaginary_mean_field():
    a_plus, a_minus_i = fluctuation_amplitudes(_synthetic_state(1j), SystemParams(chi=0.2))
    assert a_plus == 0.0
    assert a_minus_i == pytest.approx(-math.sqrt(2) * 0.2, rel=1e-12)


def test_amplitudes_vanish_without_coupling():
    p = SystemParams(chi=0.0)
    st = _steady(p.with_(j_coupling=0.0, lambda_pump=0.0), 0.4)
    a_plus, a_minus_i = fluctuation_amplitudes(st, p)
    assert a_plus == 0.0 and a_minus_i == 0.0


def test_matrix_layout():
    p = FIG_BISTABLE
    st = _steady(p, 0.3, 0.10)
    m = drift_matrix(p, st)
    a_plus, a_minus_i = fluctuation_amplitudes(st, p)
    d = st.eff_detuning
    expected = np.array([
        [0.0, p.omega_m, 0, 0, 0, 0],
        [-p.omega_m, -p.gamma_m, 0, 0, a_plus, -a_minus_i],
        [0, 0, -p.kappa_b, p.delta_b, 0, p.j_coupling],
        [0, 0, -p.delta_b, -p.kappa_b, -p.j_coupling, 0],
        [a_minus_i, 0, 0, p.j_coupling, -p.kappa_a, d],
        [a_plus, 0, -p.j_coupling, 0, -d, -p.kappa_a],
    ])
    assert np.array_equal(m, expected)
    assert d == pytest.approx(p.delta_a - p.omega_m * p.chi**2 * (st.p_trans + 0.10),
                              rel=1e-12)


def test_trace_identity(rng):
    for _ in range(15):
        p = random_params(rng)
        st = _steady(p, rng.uniform(0.05, 1.0))
        assert np.trace(drift_matrix(p, st)) == pytest.approx(
            -p.gamma_m - 2 * p.kappa_a - 2 * p.kappa_b, rel=1e-12)


def test_block_diagonal_when_decoupled():
    p = SystemParams(chi=0.0, j_coupling=0.0, lambda_pump=0.0)
    st = _steady(p, 0.4)
    m = drift_matrix(p, st)
    assert np.all(m[:2, 2:] == 0.0) and np.all(m[2:, :2] == 0.0)
    assert np.all(m[2:4, 4:] == 0.0) and np.all(m[4:, 2:4] == 0.0)


def test_uncoupled_damped_system_is_stable():
    p = SystemParams(chi=0.0, j_coupling=0.0, lambda_pump=0.0, g_qd=0.0)
    st = _steady(p, 0.2)
    report = stability(drift_matrix(p, st))
    assert report.stable
    assert report.eigenvalues.shape == (6,)
    assert report.max_real_part < 0.0


def test_middle_branch_positive_eigenvalue():
    roots = solve_transmitted_power(FIG_BISTABLE, math.sqrt(0.35), 0.10)
    assert len(roots) == 3
    st = steady_state_from_ptrans(FIG_BISTABLE, math.sqrt(0.35), 0.10, roots[1][0])
    report = stability(drift_matrix(FIG_BISTABLE, st))
    assert not report.stable
    assert report.max_real_part > 0.0
