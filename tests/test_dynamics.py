import cmath
import math
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

from optomech_switch import (DegenerateGridError, DriveConfig, IntegrationFailureError,
                             NoConvergenceError, SystemParams, UndefinedGainError,
                             UndefinedRatioError, bandwidth, hysteresis_sweep, parse_config,
                             run_scenario, solve_transmitted_power, switch_metrics)
from optomech_switch import dynamics
from optomech_switch.dynamics import (TOL, _expm, _jacobian_factory, _rhs_factory,
                                      floquet_multipliers, periodic_orbit, state_vector,
                                      threshold_measure)
from optomech_switch.linearize import jacobians
from optomech_switch.steady_state import steady_state
from conftest import CLEAN_BISTABLE, FIG_BISTABLE, FIG_SWITCH, random_params
from reference import (dense_newton_step, drive_value, gain, hysteresis_reference,
                       integrate_meanfield, jump_input_power, monodromy, orbit_coefficients,
                       orbit_state, steady_state_direct, switch_ratio, tuple_rhs, variational_rhs)

ROOT = Path(__file__).resolve().parent.parent


def _state_at(trace, i):
    """8-vector of the integrator state at sample i of a trace."""
    return np.array([trace.a[i].real, trace.a[i].imag, trace.b[i].real,
                     trace.b[i].imag, trace.sigma[i].real, trace.sigma[i].imag,
                     trace.q[i], trace.p[i]])


def linear_gain(params: SystemParams, eta0: float, omega_mod: float) -> float:
    """Small-signal gain of the linear system (valid for chi = 0).

    First-harmonic response of the output power to a unit-amplitude power
    modulation, from the exact sideband solution of the coupled linear
    cavity/dot equations.
    """
    if params.chi != 0.0:
        raise ValueError("linear_gain applies to the chi = 0 system only")
    if eta0 == 0.0:
        raise UndefinedGainError("linear gain needs a nonzero bias")
    a_s = _linear_amplitude(params, eta0)

    def sideband(sign):
        om = sign * omega_mod
        dd = params.kappa_d + 1j * (params.delta_d + om)
        den_b = params.kappa_b + 1j * (params.delta_b + om) \
            - params.g_qd**2 * params.n_inversion / dd
        return 0.5 / (params.kappa_a + 1j * (params.delta_a + om)
                      + params.j_coupling**2 / den_b)

    z_plus = np.conj(a_s) * sideband(+1)
    z_minus = np.conj(a_s) * sideband(-1)
    return float(abs(z_plus + np.conj(z_minus)) / eta0)


def _linear_amplitude(params: SystemParams, eta0: float) -> complex:
    dd = params.kappa_d + 1j * params.delta_d
    den_b = params.kappa_b + 1j * params.delta_b \
        - params.g_qd**2 * params.n_inversion / dd
    num = eta0 + (-1j * params.j_coupling) * (
        -params.g_qd * params.lambda_pump * params.n_inversion
        * cmath.exp(-1j * params.theta) / dd) / den_b
    return num / (params.kappa_a + 1j * params.delta_a
                  + params.j_coupling**2 / den_b)


def test_drive_value_phases():
    d = DriveConfig(eta0=0.3, p_amp=0.2, omega_mod=2.0)
    assert drive_value(0.0, d) == pytest.approx(0.5)
    assert drive_value(math.pi / 4.0, d) == pytest.approx(0.3, abs=1e-15)
    assert drive_value(math.pi / 2.0, d) == pytest.approx(0.1)


def test_fixed_point_stays_fixed():
    p = FIG_BISTABLE
    st = steady_state_direct(p, 0.3, 0.0)
    trace = integrate_meanfield(p, DriveConfig(eta0=0.3, p_amp=0.0),
                                (0.0, 50.0), init=st, tol=1e-10)
    drift = np.max(np.abs(trace.output_power - st.p_trans)) / st.p_trans
    assert drift < 1e-9


def test_vacuum_start_converges_to_monostable_root():
    p = FIG_BISTABLE
    target = solve_transmitted_power(p, 0.1, 0.0)
    assert len(target) == 1
    trace = integrate_meanfield(p, DriveConfig(eta0=0.1, p_amp=0.0),
                                (0.0, 300.0), init=None)
    assert trace.output_power[-1] == pytest.approx(target[0][0], rel=1e-6)


def test_periodic_orbit_returns_after_one_period():
    p = FIG_BISTABLE
    drive = DriveConfig(eta0=0.1, p_amp=0.5, omega_mod=1.0)
    period = 2.0 * math.pi / drive.omega_mod
    y0 = orbit_state(p, periodic_orbit(p, drive), 0.0)
    y1 = _state_at(integrate_meanfield(p, drive, (0.0, period), init=y0), -1)
    assert np.linalg.norm(y1 - y0) < 10.0 * TOL * np.linalg.norm(y0)


def test_switch_metrics_matches_long_integration():
    """Brute force: 50 periods from the lower branch, then measure 10 more,
    densely sampled at a tight tolerance."""
    drive = DriveConfig(eta0=0.1, p_amp=0.5, omega_mod=1.0)
    period = 2.0 * math.pi / drive.omega_mod
    init = steady_state(FIG_SWITCH, drive.eta0, 0.0, "lower")
    settled = integrate_meanfield(FIG_SWITCH, drive, (0.0, 50 * period), init=init)
    tail = integrate_meanfield(FIG_SWITCH, drive, (0.0, 10 * period),
                               init=_state_at(settled, -1), tol=1e-10,
                               samples_per_period=2000)
    m = switch_metrics(FIG_SWITCH, drive)
    assert m.switch_ratio == pytest.approx(switch_ratio(tail.output_power), rel=1e-6)
    assert m.gain == pytest.approx(gain(tail.output_power, tail.drive_power), rel=1e-6)


@pytest.mark.parametrize("params, drive", [
    (FIG_SWITCH, DriveConfig(eta0=0.1, p_amp=0.5, omega_mod=2.25)),
    (FIG_BISTABLE, DriveConfig(eta0=0.1, p_amp=1.0, omega_mod=1.0))])
def test_switch_metrics_match_the_densely_sampled_orbit(params, drive):
    """One period from the orbit's start state, 20000 samples at rtol 1e-11:
    a ratio of 861, and one of 9520 with its minimum near zero."""
    period = 2.0 * math.pi / drive.omega_mod
    trace = integrate_meanfield(params, drive, (0.0, period),
                                init=orbit_state(params, periodic_orbit(params, drive), 0.0),
                                tol=1e-11, samples_per_period=20000)
    m = switch_metrics(params, drive)
    assert m.switch_ratio == pytest.approx(switch_ratio(trace.output_power), rel=1e-8)
    assert m.gain == pytest.approx(gain(trace.output_power, trace.drive_power), rel=1e-8)


def test_orbit_is_the_attractor_of_the_lower_branch():
    """Bias inside the bistable window (input 6.76, knees 4.8 and 10.4), both
    branches stable: the orbit is the one a long integration from the lower
    branch settles on, not the one near the upper branch."""
    p, drive = CLEAN_BISTABLE, DriveConfig(eta0=2.6, p_amp=0.5, omega_mod=1.0)
    period = 2.0 * math.pi / drive.omega_mod
    settled = {branch: _state_at(integrate_meanfield(
        p, drive, (0.0, 20 * period), init=steady_state(p, drive.eta0, 0.0, branch)), -1)
        for branch in ("lower", "upper")}
    y0 = orbit_state(p, periodic_orbit(p, drive), 0.0)
    assert np.linalg.norm(settled["lower"] - y0) < 1e-7 * np.linalg.norm(y0)
    assert np.linalg.norm(settled["upper"] - y0) > 0.5 * np.linalg.norm(y0)


@pytest.mark.parametrize("params, drive", [
    (FIG_SWITCH, DriveConfig(eta0=0.1, p_amp=0.5, omega_mod=0.5)),
    (FIG_SWITCH, DriveConfig(eta0=0.1, p_amp=0.5, omega_mod=2.25)),
    (FIG_BISTABLE.with_(gamma_m=0.01), DriveConfig(eta0=0.1, p_amp=0.5, omega_mod=1.0)),
    (CLEAN_BISTABLE, DriveConfig(eta0=2.6, p_amp=0.5, omega_mod=1.0))])
def test_floquet_multipliers_match_the_variational_solve(params, drive):
    orbit = periodic_orbit(params, drive)
    y0 = orbit_state(params, orbit, 0.0)
    y1, phi = monodromy(params, drive, y0)
    assert np.linalg.norm(y1 - y0) < 1e-9 * np.linalg.norm(y0)
    assert np.allclose(np.sort(np.abs(floquet_multipliers(params, orbit))),
                       np.sort(np.abs(np.linalg.eigvals(phi))), rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("n_inversion, sizes", [(-1.0, {17, 33}), (0.0, {17, 33, 65}),
                                                 (0.5, {17, 33, 65})])
def test_newton_step_is_the_dense_solve(monkeypatch, rng, n_inversion, sizes):
    """The split Newton step equals the 2n x 2n real solve at every step of
    an orbit's Newton runs, to convergence, and at seeded random states and
    residuals in the same systems.  The pumped dot's orbit (N = +0.5) is
    solved, then refused as unstable; its steps count all the same."""
    calls = []
    step = dynamics._newton_step

    def record(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(dynamics, "_newton_step", record)
    with suppress(UndefinedRatioError):
        periodic_orbit(FIG_BISTABLE.with_(n_inversion=n_inversion),
                       DriveConfig(eta0=0.1, p_amp=0.5, omega_mod=0.5))
    assert {a.size for _, _, a, _ in calls} == sizes
    for frozen, feedback, a, residual in calls:
        n = a.size
        moved = a * (1.0 + 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)))
        random_state = (frozen + np.diag(0.1j * np.max(np.abs(frozen)) * rng.normal(size=n)),
                        feedback * (moved / a)[:, None], moved,
                        np.max(np.abs(a)) * (rng.normal(size=n) + 1j * rng.normal(size=n)))
        for args in ((frozen, feedback, a, residual), random_state):
            ref = dense_newton_step(*args)
            assert np.max(np.abs(step(*args) - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_no_collocation_solve_is_large_enough_to_thread(monkeypatch, tmp_path):
    """This sweep reaches H = 32 (n = 65 collocation points).  Every solve
    stays at order <= 65, where the real system on 2n unknowns had order
    130, a size at which OpenBLAS's solve runs on two threads."""
    orders = []
    solve = np.linalg.solve

    def record(a, b):
        orders.append(a.shape[-1])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", record)
    cfg = parse_config((ROOT / "scenarios" / "switch_metrics_vs_omega_variant_b.cfg").read_text())
    run_scenario(cfg, out_dir=str(tmp_path))
    assert max(orders) == 65


@pytest.mark.parametrize("norm", np.geomspace(1e-3, 40.0, 9))
def test_expm_matches_scipy(rng, norm):
    """Stacks scaled to 1-norms 1e-3..40: below 1/2 the series runs
    unscaled, above it after up to 7 squarings."""
    from scipy.linalg import expm

    x = rng.normal(size=(16, 8, 8))
    x *= norm / np.max(np.sum(np.abs(x), axis=-2))
    ref = expm(x)
    assert np.max(np.abs(_expm(x) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_unresolved_spectrum_raises(monkeypatch):
    """This orbit needs 16 harmonics: with the cap at 8 it is unresolved."""
    drive = DriveConfig(eta0=0.1, p_amp=0.5, omega_mod=1.0)
    periodic_orbit(FIG_BISTABLE.with_(gamma_m=0.1), drive)
    monkeypatch.setattr(dynamics, "HARMONICS_CAP", 8)
    with pytest.raises(NoConvergenceError, match="not resolved within 8 harmonics"):
        switch_metrics(FIG_BISTABLE.with_(gamma_m=0.1), drive)


def test_magnus_cap_refuses_an_orbit_before_sampling(monkeypatch):
    """At omega_mod = 0.1 this orbit needs 2^11 Magnus substeps: with the cap
    at 2^9 it is refused before any array of that length is sampled."""
    params = FIG_BISTABLE  # bandwidth_vs_pamp's system, at its first p_amp
    drive = DriveConfig(eta0=0.1, p_amp=0.2, omega_mod=0.1)
    switch_metrics(params, drive)
    monkeypatch.setattr(dynamics, "MAGNUS_CAP", 2 ** 9)
    lengths = []
    on_grid = dynamics._on_grid
    monkeypatch.setattr(dynamics, "_on_grid",
                        lambda coef, m, shift=0.0: lengths.append(m) or on_grid(coef, m, shift))
    with pytest.raises(NoConvergenceError, match="more than 512 Magnus substeps"):
        switch_metrics(params, drive)
    assert lengths and max(lengths) <= 2 ** 9


def test_unstable_orbit_raises():
    """Hopf-unstable lower branch: the only T-periodic orbit has max |mu| > 2."""
    drive = DriveConfig(eta0=0.9, p_amp=0.05, omega_mod=1.0)
    with pytest.raises(UndefinedRatioError, match="no stable T-periodic response"):
        switch_metrics(FIG_BISTABLE, drive)


def test_switch_metrics_need_a_modulated_drive():
    with pytest.raises(UndefinedGainError):
        switch_metrics(FIG_SWITCH, DriveConfig(eta0=0.1, p_amp=0.0, omega_mod=1.0))


@pytest.mark.parametrize("n_inversion", [0.0, -0.7])
def test_steady_state_is_the_zeroth_harmonic(n_inversion):
    """Under a vanishing modulation the orbit's mean values are the static
    fixed point: the same elimination at nu = 0."""
    p = FIG_SWITCH.with_(n_inversion=n_inversion)
    orbit = periodic_orbit(p, DriveConfig(eta0=0.1, p_amp=1e-7, omega_mod=1.0))
    st = steady_state(p, 0.1, 0.0, "lower")
    b, sigma, _ = orbit_coefficients(p, orbit)
    for harmonic, static in ((orbit.a, st.a_s), (b, st.b_s),
                             (sigma, st.sigma_ge_s), (orbit.q, st.q_s)):
        np.testing.assert_allclose(harmonic[0], static, rtol=1e-12, atol=0.0)


def test_variational_rhs_is_the_jacobian(rng):
    """The variational rhs, the Floquet path's stacks and the ramp's
    Jacobian against central differences; the ramp's Jacobian is called at
    two states in turn, so that an entry left from the first call fails."""
    for _ in range(5):
        p = random_params(rng)
        assert p.n_inversion != 0.0 and p.chi != 0.0
        rhs = _rhs_factory(p, lambda t: 0.7, 0.2)
        jacobian = _jacobian_factory(p)
        for y in rng.normal(size=(2, 8)):
            z = variational_rhs(p, lambda t: 0.7, 0.2)(0.0, np.concatenate((y, np.eye(8).ravel())))
            h = 1e-6
            numeric = np.column_stack([
                (np.array(rhs(0.0, y + h * e)) - np.array(rhs(0.0, y - h * e))) / (2.0 * h)
                for e in np.eye(8)])
            assert np.array_equal(z[:8], np.array(rhs(0.0, y)))
            assert np.allclose(z[8:].reshape(8, 8), numeric, rtol=1e-7, atol=1e-8)
            jac = jacobians(p, np.array([y[0] + 1j * y[1]]), np.array([y[6]]))[0]
            assert np.allclose(jac, numeric, rtol=1e-7, atol=1e-8)
            ramp_jac = jacobian(0.0, y).copy()
            assert np.array_equal(ramp_jac, jac)
            assert np.allclose(ramp_jac, numeric, rtol=1e-7, atol=1e-8)


def test_packed_rhs_is_the_tuple_rhs_bit_for_bit(rng):
    """The ramp's rhs packs into one reused array the bits of the tuple
    oracle: pumped and absorbing dots, a rocking term, random states, on
    the rising, held and falling drive of a ramp."""
    lo, hi, rate, top, fall = 0.3, 4.0, 0.7, 3.7 / 0.7, 3.7 / 0.7 + 2.0

    def eta_func(t):
        p = lo + rate * t if t < top else hi if t < fall else hi - rate * (t - fall)
        return math.sqrt(max(p, lo))

    for _ in range(24):
        p = random_params(rng)
        c_rocking = rng.uniform(0.01, 0.5)
        assert p.n_inversion != 0.0 and p.chi != 0.0
        packed, oracle = (f(p, eta_func, c_rocking) for f in (_rhs_factory, tuple_rhs))
        for t in (rng.uniform(0.0, top), rng.uniform(top, fall), rng.uniform(fall, fall + top)):
            y = rng.normal(size=8) * 10.0 ** rng.uniform(-3.0, 2.0)
            out = packed(t, y)
            assert out.dtype == np.float64 and out.shape == (8,)
            assert np.array_equal(out, np.array(oracle(t, y)))
            assert packed(t, -y) is out


def test_switch_ratio_constant_output_is_one():
    p = FIG_BISTABLE
    st = steady_state_direct(p, 0.3, 0.0)
    trace = integrate_meanfield(p, DriveConfig(eta0=0.3, p_amp=0.0),
                                (0.0, 20.0), init=st, tol=1e-10)
    assert switch_ratio(trace.output_power) == pytest.approx(1.0, abs=1e-9)


def test_gain_requires_modulation():
    p = FIG_BISTABLE
    st = steady_state_direct(p, 0.3, 0.0)
    trace = integrate_meanfield(p, DriveConfig(eta0=0.3, p_amp=0.0),
                                (0.0, 20.0), init=st)
    with pytest.raises(UndefinedGainError):
        gain(trace.output_power, trace.drive_power)


def test_small_signal_gain_matches_static_slope(rng):
    checked = 0
    while checked < 3:
        p = random_params(rng, chi_max=0.2)
        ip = rng.uniform(0.05, 0.3)
        roots = solve_transmitted_power(p, math.sqrt(ip), 0.0)
        if len(roots) != 1:
            continue
        h = 1e-4 * max(ip, 1.0)
        lo = solve_transmitted_power(p, math.sqrt(ip - h), 0.0)
        hi = solve_transmitted_power(p, math.sqrt(ip + h), 0.0)
        if len(lo) != 1 or len(hi) != 1:
            continue
        deriv = abs(hi[0][0] - lo[0][0]) / (2.0 * h)
        m = switch_metrics(p, DriveConfig(eta0=math.sqrt(ip), p_amp=1e-3,
                                          omega_mod=1e-2))
        assert m.gain == pytest.approx(deriv, rel=0.05)
        checked += 1


def test_linear_transfer_matches_simulated_gain():
    p = SystemParams(chi=0.0, kappa_a=0.2, kappa_b=0.3, delta_a=0.6,
                     delta_b=-0.4, j_coupling=0.6, lambda_pump=0.0,
                     g_qd=0.8, n_inversion=0.3, kappa_d=0.9, delta_d=0.5,
                     gamma_m=0.5)
    eta0 = 0.5
    for om in (0.4, 1.3):
        drive = DriveConfig(eta0=eta0, p_amp=5e-3, omega_mod=om)
        simulated = switch_metrics(p, drive).gain
        analytic = linear_gain(p, eta0, om)
        assert simulated == pytest.approx(analytic, rel=0.02)


def test_bandwidth_linear_system_analytic():
    """chi = 0: -3 dB width of the simulated gain equals the linear one."""
    p = SystemParams(chi=0.0, kappa_a=0.3, kappa_b=0.3, delta_a=1.2,
                     delta_b=1.0, j_coupling=0.4, lambda_pump=0.0,
                     gamma_m=0.5)
    eta0 = 0.5
    grid = np.linspace(0.3, 2.5, 23)
    analytic = np.array([linear_gain(p, eta0, om) for om in grid])
    bw_analytic = threshold_measure(grid, analytic,
                                    np.max(analytic) / math.sqrt(2.0))
    bw_sim = bandwidth(p, eta0, 5e-3, grid)
    assert bw_sim == pytest.approx(bw_analytic, rel=0.05)


def test_bandwidth_rejects_degenerate_grid():
    with pytest.raises(DegenerateGridError):
        bandwidth(FIG_BISTABLE, 0.3, 0.1, [1.0])


def _threshold_measure_loop(x, y, level):
    """Segment-by-segment reference for threshold_measure."""
    total = 0.0
    for i in range(x.size - 1):
        x0, x1 = x[i], x[i + 1]
        y0, y1 = y[i] - level, y[i + 1] - level
        if y0 >= 0.0 and y1 >= 0.0:
            total += x1 - x0
        elif y0 >= 0.0 or y1 >= 0.0:
            cross = x0 + (x1 - x0) * y0 / (y0 - y1)
            total += (cross - x0) if y0 >= 0.0 else (x1 - cross)
    return total


def test_threshold_measure_interpolates(rng):
    x = np.array([0.0, 1.0, 2.0, 3.0])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    assert threshold_measure(x, y, 0.5) == pytest.approx(2.0)
    for _ in range(200):
        x = np.cumsum(rng.uniform(0.1, 1.0, rng.integers(2, 20)))
        y = np.round(rng.normal(size=x.size), 1)  # ties and exact hits of the level
        level = rng.choice([0.0, 0.5, rng.normal()])
        assert threshold_measure(x, y, level) == pytest.approx(
            _threshold_measure_loop(x, y, level), rel=1e-12, abs=1e-12)


def test_hysteresis_linear_system_no_loop():
    p = SystemParams(chi=0.0, kappa_a=2.0, kappa_b=1.0, delta_a=0.3,
                     delta_b=0.5, j_coupling=0.4, lambda_pump=0.0,
                     gamma_m=1.0)
    ramp = np.linspace(2.0, 4.0, 150)
    up, down = hysteresis_sweep(p, ramp, 0.0, rate=4e-4)
    assert np.max(np.abs(up[:, 1] - down[::-1, 1])) < 1e-4
    area = abs(trapezoid(up[:, 1], up[:, 0])
               + trapezoid(down[:, 1], down[:, 0]))
    assert area < 1e-4 * (ramp[-1] - ramp[0])


def test_hysteresis_loop_brackets_knees():
    from optomech_switch import turning_points

    k_lo, k_hi = sorted(i for i, _ in turning_points(CLEAN_BISTABLE, 0.0))
    ramp = np.linspace(1.5, 14.0, 400)
    up, down = hysteresis_sweep(CLEAN_BISTABLE, ramp, 0.0, rate=0.05)
    ju, mag_u = jump_input_power(up)
    jd, mag_d = jump_input_power(down)
    # dynamic jumps lag the static knees: up after the upper knee,
    # down before the lower knee
    assert ju > k_hi and mag_u > 1.0
    assert jd < k_lo + 0.5 and mag_d > 1.0
    # loop area strictly positive inside the window
    area = abs(trapezoid(up[:, 1], up[:, 0])
               + trapezoid(down[:, 1], down[:, 0]))
    assert area > 1.0


def test_hysteresis_matches_the_dop853_ramp():
    """Both legs through the jumps, against DOP853 at rtol 1e-13."""
    ramp = np.linspace(1.5, 14.0, 60)
    swept = hysteresis_sweep(CLEAN_BISTABLE, ramp, 0.0, rate=0.5)
    for leg, ref in zip(swept, hysteresis_reference(CLEAN_BISTABLE, ramp, 0.0, rate=0.5)):
        assert np.array_equal(leg[:, 0], ref[:, 0])
        assert np.max(np.abs(leg[:, 1] / ref[:, 1] - 1.0)) < 1e-7


def test_pumped_dot_ramp_matches_the_dop853_ramp():
    """A pumped dot, so the g*n entries of the Jacobian enter the ramp; the
    state stays bounded, as g^2 n = 0.5 < kappa_b kappa_d = 1.8."""
    p = CLEAN_BISTABLE.with_(n_inversion=0.5)
    ramp = np.linspace(1.5, 14.0, 60)
    swept = hysteresis_sweep(p, ramp, 0.0, rate=0.5)
    for leg, ref in zip(swept, hysteresis_reference(p, ramp, 0.0, rate=0.5)):
        assert np.array_equal(leg[:, 0], ref[:, 0])
        assert np.max(np.abs(leg[:, 1] / ref[:, 1] - 1.0)) < 1e-7


def test_ramp_out_of_steps_raises(monkeypatch):
    """At odeint's default of 500 steps per output interval the ramp legs
    pass, but the hold at the top input, one 60-time-unit output interval
    from t = 25 on the sweep's clock, runs out of steps."""
    monkeypatch.setattr(dynamics, "MAX_STEPS", 500)
    with pytest.raises(IntegrationFailureError, match="integrator failed: Excess work") as err:
        hysteresis_sweep(CLEAN_BISTABLE, np.linspace(1.5, 14.0, 60), 0.0, rate=0.5)
    assert 25.0 < err.value.last_valid_time < 85.0


def test_non_finite_rhs_raises():
    """A NaN drive from t = 2 on: the run fails at the last finite sample."""
    rhs = _rhs_factory(CLEAN_BISTABLE, lambda t: 1.0 if t < 2.0 else math.nan, 0.0)
    with pytest.raises(IntegrationFailureError, match="non-finite state") as err:
        dynamics._integrate(rhs, _jacobian_factory(CLEAN_BISTABLE), np.zeros(8), TOL,
                            np.linspace(0.0, 5.0, 11), blowup=False)
    assert 1.0 <= err.value.last_valid_time <= 2.0


def test_ramp_blow_up_raises():
    """A pumped dot with g^2*n > kappa_b*kappa_d amplifies without bound:
    here during the hold, which starts at t = 0.1111."""
    p = FIG_BISTABLE.with_(n_inversion=1.0, g_qd=2.0)
    with pytest.raises(IntegrationFailureError, match="state norm blew up") as err:
        hysteresis_sweep(p, [0.01, 0.02])
    assert err.value.last_valid_time == pytest.approx(0.1111 + 12.41, abs=0.01)


@pytest.mark.parametrize("n_inversion", [0.0, -1.0])
def test_unarmed_ramp_matches_the_armed_one(monkeypatch, n_inversion):
    """With n <= 0 the ramp runs without the blow-up event; arming it
    changes no bit of either leg."""
    p = CLEAN_BISTABLE.with_(n_inversion=n_inversion)
    ramp = np.linspace(1.5, 14.0, 60)
    integrate, armed = dynamics._integrate, []

    def spy(*args, blowup):
        armed.append(blowup)
        return integrate(*args, blowup=blowup)

    monkeypatch.setattr(dynamics, "_integrate", spy)
    up, down = hysteresis_sweep(p, ramp, 0.0, rate=0.5)
    assert armed == [False]
    monkeypatch.setattr(dynamics, "_integrate",
                        lambda *args, blowup: integrate(*args, blowup=True))
    up_armed, down_armed = hysteresis_sweep(p, ramp, 0.0, rate=0.5)
    assert np.array_equal(up, up_armed) and np.array_equal(down, down_armed)


@pytest.mark.parametrize("ramp, rate, match", [
    ([1.5, math.inf], 0.5, "input ramp must be finite"),
    ([1.5, math.nan], 0.5, "input ramp must be finite"),
    ([math.nan, 1.5], 0.5, "input ramp must be finite"),
    ([1.5, 14.0], 0.0, "rate must be finite and > 0, got 0.0"),
    ([1.5, 14.0], -0.5, "rate must be finite and > 0, got -0.5"),
    ([1.5, 14.0], math.nan, "rate must be finite and > 0, got nan"),
    ([1.5, 14.0], math.inf, "rate must be finite and > 0, got inf"),
])
def test_ramp_and_rate_checked_before_integrating(ramp, rate, match):
    with pytest.raises(ValueError, match=match):
        hysteresis_sweep(CLEAN_BISTABLE, ramp, 0.0, rate=rate)


def test_zero_input_ramp():
    """A ramp from zero input: the falling drive's radicand, which rounds
    below zero at the ramp's end, is clamped to the lower end."""
    up, down = hysteresis_sweep(CLEAN_BISTABLE, np.linspace(0.0, 14.0, 50))
    assert np.all(np.isfinite(up)) and np.all(np.isfinite(down))
    assert up[0].tolist() == [0.0, 0.0]


def test_strong_drive_without_pump_is_no_blow_up():
    """An unpumped state past BLOWUP_NORM is a strong drive, not a blow-up."""
    p = SystemParams(chi=0.0, kappa_a=2.0, kappa_b=1.0, delta_a=0.3, delta_b=0.5,
                     j_coupling=0.4, lambda_pump=0.0, gamma_m=1.0)
    up, down = hysteresis_sweep(p, [1e7, 2e9], 0.0, rate=1e9)
    assert np.all(np.isfinite(up)) and np.all(np.isfinite(down))
    assert up[-1, 1] > dynamics.BLOWUP_NORM


def test_state_vector_round_trip():
    st = steady_state_direct(FIG_BISTABLE, 0.3, 0.0)
    y = state_vector(st)
    assert y.shape == (8,)
    assert y[0] + 1j * y[1] == st.a_s
    assert y[6] == st.q_s and y[7] == 0.0


def test_integration_is_deterministic():
    p = FIG_BISTABLE
    drive = DriveConfig(eta0=0.1, p_amp=0.4, omega_mod=1.0)
    init = steady_state(p, 0.1, 0.0, "lower")
    t1 = integrate_meanfield(p, drive, (0.0, 40.0), init=init)
    t2 = integrate_meanfield(p, drive, (0.0, 40.0), init=init)
    assert np.array_equal(t1.output_power, t2.output_power)
    assert np.array_equal(t1.q, t2.q)
