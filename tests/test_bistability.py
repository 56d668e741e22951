import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from optomech_switch import (DriveConfig, IntegrationFailureError, SystemParams,
                             bistability_curve, cubic_coefficients, parse_config,
                             rocking_parameter, solve_transmitted_power,
                             steady_state_from_ptrans, turning_points)
from optomech_switch.bistability import _boundaries
from optomech_switch.config import apply_sweep_value
from optomech_switch.dynamics import state_vector
from optomech_switch.linearize import STABILITY_TOL, _characteristic_polynomial, jacobians
from optomech_switch.steady_state import (_cubic, _drive_of_ptrans, _reaches,
                                          transmitted_power_roots)
from conftest import CLEAN_BISTABLE, FIG_BISTABLE, random_params
from reference import (integrate_meanfield, mp_hurwitz_real_roots, reference_branches,
                       reference_roots, root_max_real_eig)

ROOT = Path(__file__).resolve().parent.parent


def _root_counts(curve):
    return np.bincount(curve.point, minlength=curve.input_power.size)


def _roots_by_point(curve):
    """Per grid point: its input power and its roots' p_trans and stable
    lists, read from the curve's columns."""
    for i, ip in enumerate(curve.input_power.tolist()):
        at = curve.point == i
        yield ip, curve.p_trans[at].tolist(), curve.stable[at].tolist()


def _oracle_cases():
    rng = np.random.default_rng(20240811)
    yield FIG_BISTABLE, 0.10, np.linspace(0.01, 1.0, 400)
    yield CLEAN_BISTABLE, 0.0, np.linspace(1.5, 14.0, 400)
    yield FIG_BISTABLE.with_(chi=0.0), 0.0, np.linspace(0.01, 1.0, 50)
    # chi = 1e-6: c3 is below 1e-14 of the largest coefficient at every grid
    # point, and the full cubic has one real root at each
    for delta_a in (1.0, -1.0):
        yield FIG_BISTABLE.with_(chi=1e-6, delta_a=delta_a), 0.0, np.geomspace(1e-3, 1e3, 60)
    for _ in range(20):
        yield random_params(rng), rng.uniform(0.0, 0.4), np.geomspace(1e-3, 1e2, 80)


def test_batched_curve_equals_per_point_route():
    pumped = 0
    for params, c, grid in _oracle_cases():
        pumped += params.lambda_pump * params.n_inversion != 0.0
        knees = np.array([inp for inp, _ in turning_points(params, c)] or [np.inf])
        grid = grid[np.min(np.abs(grid[:, None] / knees - 1.0), axis=1) > 1e-6]
        curve = bistability_curve(params, grid, c)
        # the oracle's stacked route at the curve's roots, against its scalar one
        max_real_eig = root_max_real_eig(params, np.sqrt(grid[curve.point]), c, curve.p_trans)
        for i, (ip, p_trans, stable) in enumerate(_roots_by_point(curve)):
            ref = reference_branches(params, ip, c)
            assert p_trans == [r[0] for r in ref]
            assert stable == [r[1] for r in ref]
            assert max_real_eig[curve.point == i].tolist() == pytest.approx(
                [r[2] for r in ref], rel=1e-12, abs=1e-13)
    assert pumped > 0


def test_roots_are_the_full_cubics_however_small_its_leading_term():
    """A leading coefficient tiny against the others is still the cubic's:
    at chi = 0.004 (draw 803 of seed 5) the cubic has three roots at inputs
    26000 and 32000, and at chi = 1e-6 one real root at every input."""
    rng = np.random.default_rng(5)
    params = [random_params(rng) for _ in range(804)][803]
    for inp in (26000.0, 32000.0):
        eta0 = math.sqrt(inp)
        expected = np.sort(np.roots(cubic_coefficients(params, eta0, 0.0)))
        assert np.all(expected.imag == 0.0)
        roots = solve_transmitted_power(params, eta0, 0.0)
        assert [m for _, m in roots] == [1, 1, 1]
        assert [p for p, _ in roots] == pytest.approx(expected.real, rel=1e-10)
    tiny_chi = [case for case in _oracle_cases() if case[0].chi == 1e-6]
    assert len(tiny_chi) == 2
    for params, c, grid in tiny_chi:
        assert np.all(_root_counts(bistability_curve(params, grid, c)) == 1)


def test_bistable_window_exists():
    curve = bistability_curve(FIG_BISTABLE, np.linspace(0.01, 1.0, 60), 0.10)
    counts = _root_counts(curve)
    assert counts.max() == 3
    assert len(curve.knees) == 2


def test_upper_knee_decreases_with_rocking():
    knees = [max(bistability_curve(FIG_BISTABLE, np.linspace(0.01, 1.0, 5), c).knees)
             for c in (0.10, 0.36, 0.49)]
    assert knees[0] > knees[1] > knees[2]


def test_knees_bracket_three_root_region():
    c = 0.10
    lo, hi = sorted(inp for inp, _ in turning_points(FIG_BISTABLE, c))
    for ip in (0.5 * lo, lo + 0.3 * (hi - lo), hi * 1.2):
        n = sum(m for _, m in solve_transmitted_power(FIG_BISTABLE, math.sqrt(ip), c))
        assert n == (3 if lo < ip < hi else 1)


@pytest.mark.parametrize("chi", [0.15, 0.3, 0.6])
def test_knees_scale_as_one_over_omega_m_chi_squared(chi):
    """At C = 0 the S-curve in the variables omega_m chi^2 P is free of chi
    (the cubic's discriminant scales as chi^4), so both knees, input power
    and p_trans, are fixed numbers times 1/(omega_m chi^2)."""
    cfg = parse_config((ROOT / "scenarios" / "bistability_rocking.cfg").read_text())
    p = cfg.params.with_(chi=chi)
    scaled = [(inp * p.omega_m * chi**2, pt * p.omega_m * chi**2)
              for inp, pt in turning_points(p, 0.0)]
    expected = [(0.011629294231478841, 0.7419114713515198),
                (0.06710610589089452, 0.26138885868148354)]
    assert len(scaled) == 2
    for got, want in zip(scaled, expected):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_chi_zero_single_branch_no_knees():
    p = FIG_BISTABLE.with_(chi=0.0)
    curve = bistability_curve(p, np.linspace(0.01, 1.0, 20), 0.0)
    assert np.all(_root_counts(curve) == 1)
    assert curve.knees == ()


def test_input_power_inverts_the_cubic(rng):
    for _ in range(20):
        p = random_params(rng)
        eta0 = rng.uniform(0.05, 1.0)
        c = rng.uniform(0.0, 0.4)
        for root, _ in solve_transmitted_power(p, eta0, c):
            if root < 1e-12:
                continue
            drive, back = _drive_of_ptrans(_cubic(p, 0.0, c), root, 1.0)
            assert drive >= 0.0
            assert back == pytest.approx(eta0**2, rel=1e-8, abs=1e-12)


def test_middle_branch_unstable_outer_stable_clean_set():
    lo, hi = sorted(inp for inp, _ in turning_points(CLEAN_BISTABLE, 0.0))
    curve = bistability_curve(CLEAN_BISTABLE, np.linspace(0.5 * lo, 1.3 * hi, 40), 0.0)
    for _, _, stable in _roots_by_point(curve):
        if len(stable) == 3:
            assert not stable[1]
            assert stable[0] and stable[2]
        elif len(stable) == 1:
            assert stable[0]


def test_middle_branch_unstable_published_set():
    """Instability of the middle branch holds on the published set too."""
    curve = bistability_curve(FIG_BISTABLE, np.linspace(0.15, 0.7, 25), 0.10)
    mids = [stable[1] for _, _, stable in _roots_by_point(curve) if len(stable) == 3]
    assert mids and all(not m for m in mids)


def _check_side(roots, fold, upper, inside):
    """Roots near a knee: three simple ones inside the window, one on the far
    side of the fold outside, or the fold itself as a double root beside one
    simple root (on the knee, to the resolution of the constant coefficient)."""
    ps = [p for p, _ in roots]
    assert ps == sorted(set(ps))
    if (fold, 2) in roots:
        assert [m for _, m in roots] == ([2, 1] if upper else [1, 2])
    elif inside:
        assert [m for _, m in roots] == [1, 1, 1]
    else:
        assert [m for _, m in roots] == [1] and (ps[0] > fold) == upper


@pytest.mark.parametrize("params, c", [(FIG_BISTABLE, 0.10), (FIG_BISTABLE, 0.36),
                                       (FIG_BISTABLE, 0.49), (CLEAN_BISTABLE, 0.0),
                                       (FIG_BISTABLE.with_(g_qd=1.0, n_inversion=-1.0), 0.1),
                                       (FIG_BISTABLE.with_(g_qd=1.0, n_inversion=0.5), 0.1)])
def test_root_count_follows_the_side_of_each_knee(params, c):
    """Count from the exact knees: 3 strictly inside, 1 outside, and exactly
    on a knee the fold's p_trans once as a double root beside the simple one.
    A few ulps from the knee, eigvals misjudges which roots are real.  The
    pumped-dot cases (N != 0) reach the knees through the cross term k of
    the drive side."""
    folds = turning_points(params, c)
    for knee, fold in folds:
        upper = fold == min(p for _, p in folds)  # the lower-power fold closes the window above
        offsets = (-1e-12, -1e-13, 0.0, 1e-13, 1e-12)
        inputs = [knee * (1.0 + e) for e in offsets]
        curve = bistability_curve(params, inputs, c)
        # the fold's double root, its own cell, has the per-root label (a 0 eigenvalue)
        assert np.array_equal(curve.stable, root_max_real_eig(
            params, np.sqrt(np.array(inputs))[curve.point], c, curve.p_trans) < STABILITY_TOL)
        for e, ip, (_, p_trans, _) in zip(offsets, inputs, _roots_by_point(curve)):
            roots = solve_transmitted_power(params, math.sqrt(ip), c)
            assert [p for p, _ in roots] == p_trans
            assert ((fold, 2) in roots) == (e == 0.0)
            _check_side(roots, fold, upper, inside=(e < 0.0) == upper)
        for step in (-1, 1):
            eta = math.sqrt(knee)
            for _ in range(4):
                eta = float(np.nextafter(eta, step * np.inf))
                _check_side(solve_transmitted_power(params, eta, c), fold, upper,
                            inside=(step < 0) == upper)


def test_fold_that_no_drive_reaches_is_no_knee():
    """Pumped dot: the fold at p_trans ~620 would need a negative eta0, so it
    is no knee, and the three-root window runs from zero input."""
    p = SystemParams(kappa_a=0.33, kappa_b=1.96, kappa_d=0.36, gamma_m=1.5, delta_a=1.05,
                     delta_b=-0.41, delta_d=0.07, j_coupling=0.8, g_qd=1.38, chi=0.04,
                     lambda_pump=0.91, theta=4.29, n_inversion=0.77)
    assert len(turning_points(p, 0.44)) == 1
    curve = bistability_curve(p, np.geomspace(0.1, 300.0, 60), 0.44)
    assert _root_counts(curve)[0] == 3
    for ip, p_trans, _ in _roots_by_point(curve):
        assert p_trans == [r[0] for r in reference_branches(p, ip, 0.44)]


@pytest.fixture(scope="module")
def seed_2_draws():
    rng = np.random.default_rng(2)
    return tuple(random_params(rng) for _ in range(6302))


def test_branch_count_changes_exactly_at_the_knees(seed_2_draws):
    """Pumped draws whose knee equation has a negative linear term: one fold
    reached at two inputs (draws 1393, 2622, 6301 of seed 2), or folds that
    no drive reaches (draws 2507, 4088).  On a fine grid the branch count
    changes within one step of every listed knee, and nowhere else."""
    grid = np.linspace(0.0, 50.0, 50001)
    step = grid[1] - grid[0]
    for index in (1393, 2507, 2622, 4088, 6301):
        params = seed_2_draws[index]
        point, _, _ = transmitted_power_roots(params, np.sqrt(grid), 0.0)
        counts = np.bincount(point, minlength=grid.size)
        changes = 0.5 * (grid[1:] + grid[:-1])[np.diff(counts) != 0]
        knees = np.array([inp for inp, _ in turning_points(params, 0.0)])
        for x in changes:
            assert np.any(np.abs(knees - x) <= step), (index, x, knees)
        for knee in knees:
            assert np.any(np.abs(changes - knee) <= step), (index, knee, changes)


def test_both_reaches_of_a_fold_are_exact_knees(seed_2_draws):
    """Draws 1393, 2622 and 6301 of seed 2 reach one fold at two inputs.
    At each knee, the first reach as much as the second, eta0 = sqrt(knee)
    gives the fold's p_trans once as a double root beside one simple root,
    and two ulps of eta0 away the count is 1 on one side and 3 on the
    other: the decision is the knee list's, not c0's rounding."""
    for index in (1393, 2622, 6301):
        params = seed_2_draws[index]
        knees = turning_points(params, 0.0)
        assert len({p for _, p in knees}) < len(knees), index  # a fold reached twice
        for knee, fold in knees:
            eta = math.sqrt(knee)
            roots = solve_transmitted_power(params, eta, 0.0)
            assert sorted(m for _, m in roots) == [1, 2], (index, knee, roots)
            assert [p for p, m in roots if m == 2] == [fold], (index, knee, roots)
            counts = []
            for toward in (0.0, math.inf):
                near = float(np.nextafter(np.nextafter(eta, toward), toward))
                counts.append(sum(m for _, m in solve_transmitted_power(params, near, 0.0)))
            assert sorted(counts) == [1, 3], (index, knee, counts)


def test_a_negative_drive_counts_like_its_polynomial():
    """eta0 < 0 is the drive at the opposite phase.  Without a pumped dot c0
    is even in eta0, so -eta0 has the roots of +eta0, the double root at
    -sqrt(knee) included; with one, the count at eta0 < 0 is the per-point
    reference's: the sign rule reads the folds' negative drives too."""
    assert len(solve_transmitted_power(FIG_BISTABLE, 0.5, 0.1)) == 3
    knees = [math.sqrt(inp) for inp, _ in turning_points(FIG_BISTABLE, 0.1)]
    for eta in [0.3, 0.5, 1.0] + knees:
        assert solve_transmitted_power(FIG_BISTABLE, -eta, 0.1) == \
            solve_transmitted_power(FIG_BISTABLE, eta, 0.1), eta
    rng = np.random.default_rng(11)
    for _ in range(200):
        params = dataclasses.replace(random_params(rng), lambda_pump=rng.uniform(0.1, 2.0))
        for eta in -rng.uniform(0.0, 3.0, 3):
            assert len(solve_transmitted_power(params, eta, 0.0)) == \
                len(reference_roots(params, eta, 0.0)), (params, eta)


def test_grid_validation():
    with pytest.raises(ValueError):
        bistability_curve(FIG_BISTABLE, [0.5], 0.0)
    for grid in ([0.1, np.nan], [0.1, np.inf], [np.nan, 0.5]):
        with pytest.raises(ValueError):
            bistability_curve(FIG_BISTABLE, grid, 0.0)
    with pytest.raises(ValueError):
        bistability_curve(FIG_BISTABLE, [0.5, 0.4], 0.0)
    with pytest.raises(ValueError):
        bistability_curve(FIG_BISTABLE, [-0.1, 0.5], 0.0)


def test_middle_root_is_a_saddle_with_an_active_dot():
    """The middle root of every three-root point is unstable: on the S-curve
    it lies between the two folds, a saddle.  On ``bistability_rocking``'s
    first system (C = 0.1) with an inverted dot, N = -1 and g = 1, a
    linearization without the dot labelled 9 of these middle roots stable."""
    cfg = parse_config((ROOT / "scenarios" / "bistability_rocking.cfg").read_text())
    opt = dict(cfg.task.options)
    grid = np.linspace(opt["input_min"], opt["input_max"], opt["input_points"])
    c = rocking_parameter(cfg.drive)
    assert c == pytest.approx(0.1, rel=1e-12)
    params = cfg.params.with_(n_inversion=-1.0, g_qd=1.0)
    curve = bistability_curve(params, grid, c)
    counts = _root_counts(curve)
    starts = np.searchsorted(curve.point, np.flatnonzero(counts == 3))
    assert starts.size > 100
    middle = starts + 1
    assert not np.any(curve.stable[middle]), np.flatnonzero(curve.stable[middle])
    assert np.all(root_max_real_eig(params, np.sqrt(grid[curve.point[middle]]), c,
                                    curve.p_trans[middle]) > 0.0)


def test_labels_predict_the_dynamics_with_an_active_dot():
    """On seeded draws with g*N != 0, a root labelled stable stays within
    10x a 1e-6 kick over t = 300, and a root labelled unstable leaves it by
    more than 1e-3 (or blows up).  Roots within 0.05 of the stability
    boundary are left out, so e^(0.05*300) growth makes the unstable ones
    unmistakable."""
    rng = np.random.default_rng(7)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 10:
        p = random_params(rng)
        eta0 = rng.uniform(0.05, 1.0)
        curve = bistability_curve(p, np.array([eta0**2, eta0**2 + 1.0]), 0.0)
        assert p.g_qd * p.n_inversion != 0.0
        for k in np.flatnonzero(curve.point == 0):
            stable = bool(curve.stable[k])
            margin = root_max_real_eig(p, eta0, 0.0, curve.p_trans[k])
            if abs(margin) < 0.05 or seen[stable] == 10:
                continue
            seen[stable] += 1
            y = state_vector(steady_state_from_ptrans(p, eta0, 0.0, curve.p_trans[k]))
            kick = rng.normal(size=8)
            try:
                trace = integrate_meanfield(p, DriveConfig(eta0=eta0), (0.0, 300.0),
                                            init=y + 1e-6 * kick / np.linalg.norm(kick))
            except IntegrationFailureError:
                distance = math.inf
            else:
                states = np.array([trace.a.real, trace.a.imag, trace.b.real, trace.b.imag,
                                   trace.sigma.real, trace.sigma.imag, trace.q, trace.p])
                distance = float(np.max(np.linalg.norm(states - y[:, None], axis=0)))
            if stable:
                assert distance < 1e-5, (p, eta0, curve.p_trans[k])
            else:
                assert distance > 1e-3, (p, eta0, curve.p_trans[k])


def _bundled_systems():
    """(name, config) of every bundled scenario, one per sweep value."""
    for path in sorted((ROOT / "scenarios").glob("*.cfg")):
        cfg = parse_config(path.read_text())
        for value in cfg.sweep.values if cfg.sweep is not None else (None,):
            yield path.stem, cfg if value is None else apply_sweep_value(cfg, value)


def _bundled_curves():
    """(params, C, input grid) of every bundled bistability S-curve."""
    for _, cfg in _bundled_systems():
        opt = dict(cfg.task.options)
        if (opt.get("task") if cfg.task.name == "sweep" else cfg.task.name) == "bistability":
            grid = np.linspace(opt["input_min"], opt["input_max"], opt["input_points"])
            yield cfg.params, rocking_parameter(cfg.drive), grid


def _pumped_draws(seed, count):
    """Seeded draws with a pumped, active dot (lambda_pump, g*N nonzero)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        params = random_params(rng)
        assert params.lambda_pump * params.g_qd * params.n_inversion != 0.0
        yield params, rng.uniform(0.0, 0.4), np.geomspace(1e-3, 1e2, 200)


def _eigenvalues_at(params, c, p_trans):
    """Eigenvalues of the 8x8 Jacobian at transmitted power P, a_s = sqrt(P)
    (the phase of a_s is a similarity): one row per P, leading one first."""
    p_trans = np.atleast_1d(p_trans)
    eig = np.linalg.eigvals(jacobians(params, np.sqrt(p_trans), params.chi * (p_trans + c)))
    return np.take_along_axis(eig, np.argsort(-eig.real, axis=-1), axis=-1)


def test_folds_are_the_roots_of_the_constant_coefficient():
    """a_0(P), the characteristic polynomial at lam = 0, is omega_m^2 times
    the cubic's derivative in P: its roots are `_reaches`' folds and so
    `turning_points`' p_trans, to 1e-12, on every bundled system and on
    seeded draws with a pumped dot."""
    systems = [(cfg.params, rocking_parameter(cfg.drive)) for _, cfg in _bundled_systems()]
    systems += [(p, c) for p, c, _ in _pumped_draws(3, 200)]
    compared = 0
    for params, c in systems:
        folds = _reaches(_cubic(params, 0.0, c))[0]
        roots = np.roots(_characteristic_polynomial(params, c)[0, ::-1])
        if np.all(np.isnan(folds)):
            assert not np.any(roots.imag == 0.0), (params, c, roots)
            continue
        np.testing.assert_allclose(np.sort(roots.real), folds, rtol=1e-12, atol=0.0)
        assert np.all(roots.imag == 0.0)
        assert {p for _, p in turning_points(params, c)} <= set(folds.tolist())
        compared += 1
    assert compared > 50


def test_hopf_boundaries_are_the_real_roots_of_the_hurwitz_determinant():
    """Every real root of Delta_7(P) in the curve's P-range, from an mpmath
    Delta_7 (its own drift matrix and characteristic polynomial), is one of
    `_boundaries` to 1e-10 relative: on the bundled S-curves, on pumped
    draws 12, 21 and 30 of seed 5, which have a Hopf point in range, and on
    ``bistability_rocking``'s first system over inputs up to 1e4 (P up to
    113: one interpolant over the range holds 9.0501 only to ~2e-7).
    On that system they are P = 9.0501 (input 0.1865) and 65.675."""
    draws = list(_pumped_draws(5, 31))
    wide = (FIG_BISTABLE, 0.1, np.geomspace(1e-3, 1e4, 200))
    found = []
    for params, c, grid in list(_bundled_curves()) + [draws[i] for i in (12, 21, 30)] + [wide]:
        _, p_trans, _ = transmitted_power_roots(params, np.sqrt(grid), c)
        bounds = _boundaries(params, c, p_trans)
        for r in mp_hurwitz_real_roots(params, c):
            if p_trans.min() <= r <= p_trans.max():
                assert np.min(np.abs(bounds - r)) <= 1e-10 * r, (params, c, r, bounds)
                found.append(r)
    assert len(found) == 8
    assert found[0] == pytest.approx(9.0501, abs=1e-4)
    assert found[-2:] == pytest.approx([9.0501, 65.675], abs=1e-3)


def test_labels_change_at_a_hopf_boundary_only_where_a_pair_is_imaginary():
    """At each non-fold boundary across which the label changes (the
    largest real part at P (1 -+ 1e-7) falls on both sides of the
    stability threshold), the leading eigenvalue pair is on the imaginary
    axis: |Re lam| < 1e-10, Im lam clearly nonzero."""
    cases = list(_bundled_curves()) + list(_pumped_draws(5, 40))
    changes = 0
    for params, c, grid in cases:
        _, p_trans, _ = transmitted_power_roots(params, np.sqrt(grid), c)
        folds = _reaches(_cubic(params, 0.0, c))[0]
        for b in _boundaries(params, c, p_trans):
            if b in folds:
                continue
            side = _eigenvalues_at(params, c, b * np.array([1.0 - 1e-7, 1.0 + 1e-7]))[:, 0].real
            if (side[0] < STABILITY_TOL) == (side[1] < STABILITY_TOL):
                continue
            lead = _eigenvalues_at(params, c, b)[0, 0]
            assert abs(lead.real) < 1e-10 and abs(lead.imag) > 1e-6, (params, c, b, lead)
            changes += 1
    assert changes >= 3


def test_interval_labels_equal_the_per_root_labels():
    """The labels equal those of one eigenvalue check per root (the
    oracle's route) on every bundled S-curve and on seeded pumped draws.
    A root within 1e-9 relative of a boundary may differ, as the per-root
    threshold -1e-10 moves the boundary by ~1e-10 / slope; none does."""
    differ = []
    roots = 0
    for params, c, grid in list(_bundled_curves()) + list(_pumped_draws(6, 60)):
        curve = bistability_curve(params, grid, c)
        oracle = root_max_real_eig(params, np.sqrt(grid[curve.point]), c,
                                   curve.p_trans) < STABILITY_TOL
        bounds = _boundaries(params, c, curve.p_trans)
        for k in np.flatnonzero(curve.stable != oracle):
            p = curve.p_trans[k]
            assert np.min(np.abs(bounds - p)) <= 1e-9 * p, (params, c, p)
            differ.append(float(p))
        roots += curve.p_trans.size
    assert roots > 10000
    assert differ == []
