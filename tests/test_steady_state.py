import cmath
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from optomech_switch import (DegenerateModelError, DriveConfig, SingularResponseError,
                             SystemParams, bistability_curve, cubic_coefficients,
                             parse_config, response, rocking_parameter,
                             solve_transmitted_power, spectrum_matrix, steady_state_from_ptrans,
                             switch_metrics)
from optomech_switch.steady_state import steady_state
from conftest import FIG_BISTABLE, FIG_SWITCH, SPECTRUM_GRID, random_params
from reference import expanded_cubic, meanfield_residual, refined_root, steady_state_direct

ROOT = Path(__file__).resolve().parent.parent

# g^2*N = kappa_b*kappa_d at zero detunings: the cavity-B/dot block is singular
SINGULAR_BLOCK = FIG_SWITCH.with_(kappa_b=1.0, kappa_d=1.0, delta_b=0.0, delta_d=0.0,
                                  g_qd=1.0, n_inversion=1.0, j_coupling=0.5,
                                  lambda_pump=0.5, chi=0.3)


def test_rocking_parameter_zero_modulation():
    assert rocking_parameter(DriveConfig(eta0=0.5, p_amp=0.0, omega_mod=1.0)) == 0.0


def test_rocking_parameter_direct_evaluation():
    c = rocking_parameter(DriveConfig(eta0=0.0, p_amp=0.6, omega_mod=0.707))
    assert c == 0.6**2 / (2.0 * 0.707**2)
    assert abs(c - 0.36) < 1.2e-4  # the nominal design value of this drive


def test_rocking_parameter_unit_case():
    assert rocking_parameter(DriveConfig(eta0=0.0, p_amp=1.0, omega_mod=1.0)) == 0.5


def test_helper_constants_bistable_set():
    """A1 + i*A2 is the cavity-B/dot determinant det of `response` at nu = 0."""
    det = response(FIG_BISTABLE, 0.0, 0.0)[1]
    assert det.real == pytest.approx(0.18, abs=1e-15)
    assert det.imag == pytest.approx(1.8, abs=1e-15)


def test_helper_constants_decoupled_dot():
    p = SystemParams(g_qd=0.0, n_inversion=0.0, kappa_b=1.0, kappa_d=1.0,
                     delta_b=0.0, delta_d=0.0)
    det = response(p, 0.0, 0.0)[1]
    assert (det.real, det.imag) == (1.0, 0.0)


def test_helper_constants_direct_substitution():
    p = SystemParams(g_qd=1.0, n_inversion=1.0, kappa_b=1e-300, kappa_d=1e-300,
                     delta_b=1.0, delta_d=1.0)
    det = response(p, 0.0, 0.0)[1]
    assert det.real == pytest.approx(-2.0)
    assert det.imag == pytest.approx(0.0, abs=1e-299)


def test_cubic_matches_brute_force_modulus_square(rng):
    """Coefficients equal the expansion of P*|den|^2 - |num|^2 term by term,
    with den and num of the fixed point a_s*den = num written out from the
    parameters."""
    for _ in range(50):
        p = random_params(rng)
        eta0 = rng.uniform(0.0, 1.0)
        c_rock = rng.uniform(0.0, 0.5)
        c3, c2, c1, c0 = cubic_coefficients(p, eta0, c_rock)
        dot = p.kappa_d + 1j * p.delta_d
        block = (p.kappa_b + 1j * p.delta_b) * dot - p.g_qd**2 * p.n_inversion
        for ptr in rng.uniform(0.0, 5.0, size=3):
            delta = p.delta_a - p.omega_m * p.chi**2 * (ptr + c_rock)
            den = (p.kappa_a + 1j * delta) * block + p.j_coupling**2 * dot
            num = (eta0 * block
                   + 1j * p.j_coupling * p.g_qd * p.lambda_pump * p.n_inversion
                   * cmath.exp(-1j * p.theta))
            brute = ptr * abs(den) ** 2 - abs(num) ** 2
            poly = ((c3 * ptr + c2) * ptr + c1) * ptr + c0
            assert poly == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_cubic_matches_the_hand_expansion(rng):
    """The coefficients from the undivided response equal the expansion in
    A1, A2, R0 and I0 (docs/cubic_derivation.md), evaluated exactly, to
    1e-12 relative: random draws with N != 0, and the singular-block set
    where A1 = A2 = 0."""
    cases = [(random_params(rng), rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.5))
             for _ in range(50)]
    assert sum(p.n_inversion != 0.0 for p, _, _ in cases) > 40
    cases.append((SINGULAR_BLOCK, 0.2, 0.0))
    for p, eta0, c_rock in cases:
        expected = [float(c) for c in expanded_cubic(p, eta0, c_rock)]
        assert cubic_coefficients(p, eta0, c_rock) == pytest.approx(expected, rel=1e-12)


def test_upper_root_of_the_three_peak_demo_is_exact_to_1e13():
    """At N = 0 the cubic's coefficients are polynomials in the double
    parameters, so a 50-digit Newton on them gives the exact roots: the
    upper root of the bundled three-peak demo, and |a_s|^2 of its steady
    state, lie within 1e-13 of it (narrow lines, kappa = 0.005, make the
    cavity-A response small by cancellation)."""
    cfg = parse_config((ROOT / "scenarios" / "nms_three_peak_demo.cfg").read_text())
    assert cfg.params.n_inversion == 0.0
    eta0, c = cfg.drive.eta0, rocking_parameter(cfg.drive)
    roots = solve_transmitted_power(cfg.params, eta0, c)
    assert len(roots) == 3
    exact = refined_root(expanded_cubic(cfg.params, eta0, c), roots[-1][0])
    for p_trans in (roots[-1][0], steady_state(cfg.params, eta0, c, "upper").p_trans):
        assert abs(Decimal(float(p_trans)) - exact) < Decimal("1e-13") * exact


def test_cubic_chi_zero_is_linear():
    p = FIG_BISTABLE.with_(chi=0.0)
    c3, c2, c1, c0 = cubic_coefficients(p, 0.4, 0.2)
    assert c3 == 0.0 and c2 == 0.0
    assert c1 > 0.0


def test_bare_cavity_single_root():
    p = SystemParams(chi=0.0, j_coupling=0.0, lambda_pump=0.0, delta_a=0.0,
                     kappa_a=0.25)
    roots = solve_transmitted_power(p, 0.5, 0.0)
    assert len(roots) == 1
    assert roots[0][0] == pytest.approx(0.5**2 / 0.25**2, rel=1e-12)


def test_root_count_transitions_one_three_one():
    from optomech_switch import turning_points

    knees = np.array([inp for inp, _ in turning_points(FIG_BISTABLE, 0.10)])
    counts = []
    for ip in np.linspace(0.01, 1.0, 120):
        roots = solve_transmitted_power(FIG_BISTABLE, math.sqrt(ip), 0.10)
        total = sum(m for _, m in roots)
        counts.append(total)
        # parity: 1 or 3 with multiplicity; 2 distinct roots only at a knee
        assert total in (1, 3)
        if len(roots) == 2:
            assert np.min(np.abs(knees - ip)) < 1e-6 * max(1.0, ip)
    assert counts[0] == 1 and counts[-1] == 1
    assert 3 in counts
    # contiguous three-root window
    idx = [i for i, c in enumerate(counts) if c == 3]
    assert idx == list(range(idx[0], idx[-1] + 1))


def test_roots_satisfy_meanfield_residuals(rng):
    for _ in range(40):
        p = random_params(rng)
        eta0 = rng.uniform(0.0, 1.0)
        c_rock = rng.uniform(0.0, 0.5)
        for ptr, _ in solve_transmitted_power(p, eta0, c_rock):
            state = steady_state_from_ptrans(p, eta0, c_rock, ptr)
            res = meanfield_residual(p, eta0, c_rock, state)
            assert np.max(np.abs(res)) < 1e-8


def test_back_substitution_matches_the_oracle(rng):
    """Seeded with the root's a_s, the oracle's Newton stops at once, so its
    2x2 solve of the stationary cavity-B and dot equations sees the same
    a_s as the package's elimination at nu = 0."""
    for _ in range(40):
        p = random_params(rng)
        eta0 = rng.uniform(0.0, 1.0)
        c_rock = rng.uniform(0.0, 0.5)
        for ptr, _ in solve_transmitted_power(p, eta0, c_rock):
            state = steady_state_from_ptrans(p, eta0, c_rock, ptr)
            direct = steady_state_direct(p, eta0, c_rock, initial_guess=state.a_s)
            assert direct.a_s == state.a_s
            np.testing.assert_allclose([state.b_s, state.sigma_eg_s],
                                       [direct.b_s, direct.sigma_eg_s], rtol=1e-13, atol=0.0)


def test_from_ptrans_undriven_dot():
    p = FIG_BISTABLE.with_(lambda_pump=0.0, n_inversion=0.0)
    st = steady_state_from_ptrans(p, 0.2, 0.0, 0.03)
    assert st.sigma_eg_s == 0.0
    expected_b = -1j * p.j_coupling * st.a_s / (p.kappa_b + 1j * p.delta_b)
    assert st.b_s == pytest.approx(expected_b, rel=1e-12)


def test_from_ptrans_decoupled_amplitude():
    p = SystemParams(j_coupling=0.0, lambda_pump=0.0, chi=0.0, delta_a=0.7,
                     kappa_a=0.3)
    roots = solve_transmitted_power(p, 0.4, 0.0)
    st = steady_state_from_ptrans(p, 0.4, 0.0, roots[0][0])
    assert st.a_s == pytest.approx(0.4 / (0.3 + 0.7j), rel=1e-12)


def test_from_ptrans_self_consistency_upper_root():
    ip = 0.35
    roots = solve_transmitted_power(FIG_BISTABLE, math.sqrt(ip), 0.10)
    assert len(roots) == 3
    upper = roots[-1][0]
    st = steady_state_from_ptrans(FIG_BISTABLE, math.sqrt(ip), 0.10, upper)
    assert abs(st.p_trans - upper) / upper < 1e-9
    assert st.p_s == 0.0
    assert st.q_s == pytest.approx(FIG_BISTABLE.chi * (st.p_trans + 0.10), rel=1e-12)


def test_direct_solver_round_trips_each_root():
    ip = 0.35
    for ptr, _ in solve_transmitted_power(FIG_BISTABLE, math.sqrt(ip), 0.10):
        seed = steady_state_from_ptrans(FIG_BISTABLE, math.sqrt(ip), 0.10, ptr)
        st = steady_state_direct(FIG_BISTABLE, math.sqrt(ip), 0.10,
                                 initial_guess=seed.a_s)
        assert st.p_trans == pytest.approx(ptr, rel=1e-9)


def test_direct_solver_matches_linear_solution_chi_zero(rng):
    for _ in range(10):
        p = random_params(rng).with_(chi=0.0)
        eta0 = rng.uniform(0.1, 1.0)
        roots = solve_transmitted_power(p, eta0, 0.0)
        assert len(roots) == 1
        st = steady_state_direct(p, eta0, 0.0)
        assert st.p_trans == pytest.approx(roots[0][0], rel=1e-10, abs=1e-14)


def test_dot_drive_vanishes_at_zero_inversion():
    """Every side-pump source term carries the inversion; N = 0 kills them."""
    p = FIG_BISTABLE  # lambda_pump = 0.02, theta = 0.238, N = 0
    st_pumped = steady_state_direct(p, 0.3, 0.0)
    st_unpumped = steady_state_direct(p.with_(lambda_pump=0.0), 0.3, 0.0)
    assert st_pumped.a_s == pytest.approx(st_unpumped.a_s, rel=1e-12)
    assert st_pumped.sigma_eg_s == 0.0


def test_outputs_independent_of_dot_at_zero_inversion(rng):
    """With N = 0 the dot cancels out of the cavity response entirely."""
    for _ in range(15):
        p = random_params(rng).with_(n_inversion=0.0)
        eta0 = rng.uniform(0.1, 1.0)
        c_rock = rng.uniform(0.0, 0.4)
        base = solve_transmitted_power(p, eta0, c_rock)
        alt = p.with_(lambda_pump=rng.uniform(0, 1), theta=rng.uniform(0, 6),
                      g_qd=rng.uniform(0, 1.5), delta_d=rng.uniform(-2, 2),
                      kappa_d=rng.uniform(0.05, 2))
        other = solve_transmitted_power(alt, eta0, c_rock)
        assert len(base) == len(other)
        for (r1, _), (r2, _) in zip(base, other):
            assert r1 == pytest.approx(r2, rel=1e-9, abs=1e-12)


def test_linear_scaling_in_drive(rng):
    """chi = 0, lambda = 0: p_trans scales exactly with input power."""
    for _ in range(10):
        p = random_params(rng).with_(chi=0.0, lambda_pump=0.0)
        eta0 = rng.uniform(0.05, 0.5)
        s = rng.uniform(1.5, 4.0)
        base = solve_transmitted_power(p, eta0, 0.0)[0][0]
        scaled = solve_transmitted_power(p, s * eta0, 0.0)[0][0]
        assert scaled == pytest.approx(s**2 * base, rel=1e-10)


def test_displacement_linear_in_power(rng):
    for _ in range(10):
        p = random_params(rng)
        eta0 = rng.uniform(0.0, 1.0)
        c_rock = rng.uniform(0.0, 0.5)
        for ptr, _ in solve_transmitted_power(p, eta0, c_rock):
            st = steady_state_from_ptrans(p, eta0, c_rock, ptr)
            assert st.q_s - p.chi * c_rock == pytest.approx(p.chi * st.p_trans,
                                                            rel=1e-12, abs=1e-15)


def test_degenerate_model_error():
    # A1 = A2 = 0 exactly (dot absorption balances the cavity-B response)
    # with no drive and no couplings: the polynomial vanishes identically.
    p = SystemParams(j_coupling=0.0, chi=0.0, lambda_pump=0.0, g_qd=1.0,
                     n_inversion=1.0, kappa_b=1.0, kappa_d=1.0,
                     delta_b=0.0, delta_d=0.0)
    assert response(p, 0.0, 0.0)[1] == 0.0
    with pytest.raises(DegenerateModelError):
        solve_transmitted_power(p, 0.0, 0.0)


def test_unknown_branch_is_refused():
    """Only "lower" and "upper" name a branch; a typo is not the upper one."""
    assert steady_state(FIG_BISTABLE, 0.5, 0.1, "lower").p_trans < \
        steady_state(FIG_BISTABLE, 0.5, 0.1, "upper").p_trans
    for branch in ("Upper", "uper", "middle", ""):
        with pytest.raises(ValueError, match="branch"):
            steady_state(FIG_BISTABLE, 0.5, 0.1, branch)


def test_dot_coupling_changes_no_bit_at_zero_inversion():
    """At N = 0 the dot drops out of every equation, so g_qd must not move
    a single bit of the switch metrics, the S-curve, the steady state or
    the spectrum (variant A's system)."""
    results = []
    for g in (0.0, 0.5, 2.0):
        p = FIG_SWITCH.with_(g_qd=g)
        metrics = switch_metrics(p, DriveConfig(eta0=0.1, p_amp=0.5, omega_mod=1.0))
        curve = bistability_curve(p, np.linspace(0.01, 1.0, 100), 0.1)
        st = steady_state(p, 0.3, 0.1, "upper")
        s_q = spectrum_matrix(p, st, SPECTRUM_GRID).s_q
        results.append((metrics.switch_ratio, metrics.gain, curve.point.tobytes(),
                        curve.p_trans.tobytes(), curve.stable.tobytes(), curve.knees,
                        st.a_s, st.b_s, s_q.tobytes()))
    assert results[0] == results[1] == results[2]
    assert results[0][:2] == (4.077002552857649, 0.9366718233958119)


def test_singular_cavity_b_dot_block_is_refused():
    """g^2*N = kappa_b*kappa_d at zero detunings: A1 = A2 = 0, the cubic
    keeps its one root p_trans = 1, and the cavity-B/dot block is singular."""
    p = SINGULAR_BLOCK
    assert response(p, 0.0, 0.0)[1] == 0.0
    roots = solve_transmitted_power(p, 0.2, 0.0)
    assert [r for r, _ in roots] == [1.0]
    with pytest.raises(SingularResponseError, match="cavity-B/dot response denominator"):
        steady_state_from_ptrans(p, 0.2, 0.0, roots[0][0])
