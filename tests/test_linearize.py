import math

import numpy as np
import pytest

from optomech_switch import (SystemParams, drift_matrix, fluctuation_amplitudes,
                             solve_transmitted_power, stability,
                             steady_state_from_ptrans)
from optomech_switch.linearize import _characteristic_polynomial, _hurwitz_determinant
from optomech_switch.steady_state import transmitted_power_roots
from conftest import CLEAN_BISTABLE, FIG_BISTABLE, random_params
from reference import model_drift_matrix, printed_drift_matrix


def _steady(params, eta0, c=0.0, which=0):
    roots = solve_transmitted_power(params, eta0, c)
    return steady_state_from_ptrans(params, eta0, c, roots[which][0])


def _synthetic_state(a_s):
    from optomech_switch import SteadyState

    return SteadyState(a_s=a_s, b_s=0j, sigma_ge_s=0j, q_s=0.0, p_trans=abs(a_s) ** 2,
                       eff_detuning=0.0)


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
    """At g*N = 0 the drift matrix's leading 6x6 block is the printed one:
    the same entries, up to the rounding of a_plus, a_minus_i and Delta,
    which the Jacobian forms in another order.  The dot's rows hold only its
    own block, so the matrix is block-triangular."""
    p = FIG_BISTABLE
    st = _steady(p, 0.3, 0.10)
    m = drift_matrix(p, st)
    expected = printed_drift_matrix(p, st)
    a_plus, a_minus_i = fluctuation_amplitudes(st, p)
    assert (expected[1, 4], expected[4, 0]) == (a_plus, a_minus_i)
    assert m.shape == (8, 8)
    assert np.array_equal(m[:6, :6] == 0.0, expected == 0.0)
    np.testing.assert_allclose(m[:6, :6], expected, rtol=1e-15, atol=0.0)
    assert np.all(m[6:, :6] == 0.0)
    assert np.array_equal(m[6:, 6:], [[-p.kappa_d, p.delta_d], [-p.delta_d, -p.kappa_d]])
    d = st.eff_detuning
    assert d == pytest.approx(p.delta_a - p.omega_m * p.chi**2 * (st.p_trans + 0.10),
                              rel=1e-12)


def test_active_dot_matrix_is_the_model_matrix(rng):
    """With g*N != 0 the drift matrix is the printed one bordered by the
    dot's rows and columns, as the mean-field equations give them."""
    for _ in range(15):
        p = random_params(rng)
        st = _steady(p, rng.uniform(0.05, 1.0))
        m = drift_matrix(p, st)
        assert m.shape == (8, 8) and p.g_qd * p.n_inversion != 0.0
        expected = model_drift_matrix(p, st)
        assert np.array_equal(m == 0.0, expected == 0.0)
        np.testing.assert_allclose(m, expected, rtol=1e-14, atol=0.0)


def test_trace_identity(rng):
    """The trace is the sum of the decay rates, the dot's included at every
    g*N, a third of the draws with g = 0 or N = 0."""
    for k in range(15):
        p = random_params(rng).with_(**[{}, {"g_qd": 0.0}, {"n_inversion": 0.0}][k % 3])
        st = _steady(p, rng.uniform(0.05, 1.0))
        m = drift_matrix(p, st)
        assert m.shape == (8, 8)
        assert np.trace(m) == pytest.approx(
            -p.gamma_m - 2 * p.kappa_a - 2 * p.kappa_b - 2 * p.kappa_d, rel=1e-12)


def test_block_diagonal_when_decoupled():
    """chi = J = 0 decouples the mirror and cavity A from the rest; at
    N = 0 the dot still feeds cavity B (g) but takes nothing back (g*N)."""
    p = SystemParams(chi=0.0, j_coupling=0.0, lambda_pump=0.0)
    st = _steady(p, 0.4)
    m = drift_matrix(p, st)
    assert m.shape == (8, 8)
    assert np.all(m[:2, 2:] == 0.0) and np.all(m[2:, :2] == 0.0)
    assert np.all(m[4:6, [2, 3, 6, 7]] == 0.0) and np.all(m[[2, 3, 6, 7], 4:6] == 0.0)
    assert np.all(m[6:, 2:4] == 0.0)
    assert np.array_equal(m[2:4, 6:], [[0.0, p.g_qd], [-p.g_qd, 0.0]])


def test_uncoupled_damped_system_is_stable():
    """With every coupling off the eigenvalues are each part's own decay:
    the largest real part is the slowest of the mirror's, the cavities'
    and the dot's."""
    p = SystemParams(chi=0.0, j_coupling=0.0, lambda_pump=0.0, g_qd=0.0)
    st = _steady(p, 0.2)
    m = drift_matrix(p, st)
    report = stability(m)
    assert report.stable
    assert m.shape == (8, 8)
    assert report.max_real_part < 0.0
    slowest = -min(p.gamma_m / 2.0, p.kappa_a, p.kappa_b, p.kappa_d)
    assert report.max_real_part == pytest.approx(slowest, rel=1e-12)


def test_middle_branch_positive_eigenvalue():
    roots = solve_transmitted_power(FIG_BISTABLE, math.sqrt(0.35), 0.10)
    assert len(roots) == 3
    st = steady_state_from_ptrans(FIG_BISTABLE, math.sqrt(0.35), 0.10, roots[1][0])
    report = stability(drift_matrix(FIG_BISTABLE, st))
    assert not report.stable
    assert report.max_real_part > 0.0


def test_inactive_dot_drops_out(rng):
    """Where g*N = 0 the eigenvalues are the printed 6x6's plus
    -kappa_d +- i*delta_d: the matrix is block-triangular there, and it is
    the model matrix."""
    for k in range(12):
        p = random_params(rng).with_(**({"n_inversion": 0.0} if k % 3 else {"g_qd": 0.0}))
        st = _steady(p, rng.uniform(0.05, 1.0))
        m = drift_matrix(p, st)
        assert m.shape == (8, 8) and np.all(m[6:, :6] == 0.0)
        np.testing.assert_allclose(m, model_drift_matrix(p, st), rtol=1e-14, atol=0.0)
        dot = -p.kappa_d + 1j * p.delta_d * np.array([1.0, -1.0])
        expected = np.concatenate((np.linalg.eigvals(printed_drift_matrix(p, st)), dot))
        got = np.linalg.eigvals(m)
        scale = np.max(np.abs(expected))
        assert np.max(np.min(np.abs(got[:, None] - expected[None, :]), axis=1)) < 1e-12 * scale
        assert np.max(np.min(np.abs(expected[:, None] - got[None, :]), axis=1)) < 1e-12 * scale


def test_stability_margin_is_continuous_through_zero_coupling():
    """The largest real part does not jump where N crosses 0: on the
    published S-curve rates with a slow dot and no pump, at the lower root
    of input 0.35 and C = 0.1, N = 0 and N = +-1e-9 agree to 1e-6, and at
    N = 0 the margin is the dot's own -kappa_d."""
    eta0 = math.sqrt(0.35)
    for kappa_d in (0.01, 1e-11):
        base = FIG_BISTABLE.with_(kappa_d=kappa_d, lambda_pump=0.0)
        margins = []
        for n in (0.0, 1e-9, -1e-9):
            p = base.with_(n_inversion=n)
            st = _steady(p, eta0, 0.10)
            m = drift_matrix(p, st)
            if n == 0.0:
                np.testing.assert_allclose(m[:6, :6], printed_drift_matrix(p, st),
                                           rtol=1e-15, atol=0.0)
            margins.append(stability(m).max_real_part)
        assert margins[0] == pytest.approx(-kappa_d, rel=1e-12)
        assert margins[1:] == pytest.approx([margins[0]] * 2, rel=0.0, abs=1e-6)


def test_characteristic_polynomial_is_the_drift_matrix_s(rng):
    """a_k(P) of `_characteristic_polynomial` at each root's P is np.poly of
    its drift matrix, to 1e-10 relative: on the published sets (g*N = 0),
    an inverted and a pumped dot, and random draws.  a_8 and a_7 do not
    depend on P, the ground of Delta_7's degree 12."""
    cases = [(FIG_BISTABLE, 0.1), (CLEAN_BISTABLE, 0.0),
             (FIG_BISTABLE.with_(g_qd=1.0, n_inversion=-1.0), 0.1),
             (FIG_BISTABLE.with_(g_qd=1.0, n_inversion=0.5), 0.1)]
    cases += [(random_params(rng), rng.uniform(0.0, 0.4)) for _ in range(30)]
    eta0 = np.sqrt(np.geomspace(1e-3, 1e2, 25))
    for params, c in cases:
        poly = _characteristic_polynomial(params, c)
        assert np.all(poly[7:, 1:] == 0.0) and poly[8, 0] == 1.0
        point, p_trans, _ = transmitted_power_roots(params, eta0, c)
        steady = steady_state_from_ptrans(params, eta0[point], c, p_trans)
        for m, p in zip(drift_matrix(params, steady), steady.p_trans):
            np.testing.assert_allclose(poly @ [1.0, p, p * p], np.poly(m)[::-1],
                                       rtol=1e-10, atol=0.0)


def test_hurwitz_determinant_is_orlandos_product(rng):
    """Delta_{n-1} = (-1)^(n(n-1)/2) a_n^(n-1) prod_{i<k} (lam_i + lam_k) for
    random real polynomials of degree 2 to 8, in a stack; it vanishes on a
    polynomial with a root pair +-i w."""
    for n in range(2, 9):
        roots = np.sort_complex(np.roots(rng.normal(size=n + 1)))
        lead = rng.uniform(0.5, 2.0, 3)
        coef = (lead[:, None] * np.poly(roots)[::-1]).real
        i, k = np.triu_indices(n, 1)
        orlando = (-1) ** (n * (n - 1) // 2) * lead ** (n - 1) * np.prod(roots[i] + roots[k]).real
        np.testing.assert_allclose(_hurwitz_determinant(coef), orlando, rtol=1e-9)
    hopf = np.convolve([0.3, 1.0, 2.0], [1.7, 0.0, 1.0])  # roots of the second: +-i sqrt(1.7)
    assert abs(_hurwitz_determinant(hopf)) < 1e-14
