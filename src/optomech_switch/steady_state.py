"""Steady states of the coupled cavity-cavity-dot-mirror system.

The cavity-B/dot block and cavity A answer a drive at frequency nu
through three undivided polynomials, :func:`response`'s

    dot = kappa_d + i*(delta_d + nu),
    det = (kappa_b + i*(delta_b + nu))*dot - g^2*N,
    opt = (kappa_a + i*(Delta + nu))*det + J^2*dot,

the determinant of the cavity-B/dot block and, times it, cavity A's
response with cavity B and the dot eliminated.  At nu = 0 the mean-field
fixed point is the single complex condition

    a_s * opt = eta0*det + s,        s = i*J*g*lambda*N*exp(-i*theta),

with the effective detuning Delta = delta_a - omega_m*chi^2*(P + C), P =
|a_s|^2 the transmitted power and C the rocking parameter of the fast
drive modulation.  Its squared modulus is a real cubic in P
(:func:`cubic_coefficients`, docs/cubic_derivation.md), whose roots
:func:`transmitted_power_roots` counts by the side of the exact drives at
which a fold is a double root, so no rounding decides the branch count.
Cavity B and the dot follow from a_s through :func:`eliminated` at nu = 0,
the function that eliminates them at every harmonic of the periodic orbit
(dynamics): the steady state is that orbit's zeroth harmonic.  The
spectrum (`spectrum._response_power`) reads the same :func:`response` at
every frequency, and `linearize._characteristic_polynomial` reads it with
nu a polynomial variable.  The tests find the same fixed point by a damped
Newton iteration on ``a_s`` and a 2x2 solve for b and sigma
(``steady_state_direct`` in tests/reference.py), the cubic route's oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partialmethod, reduce
from itertools import zip_longest

import numpy as np

from .errors import DegenerateModelError, SingularResponseError
from .params import DriveConfig, SystemParams

@dataclass(frozen=True)
class SteadyState:
    """Mean-field fixed point of the slowly varying amplitudes.

    ``sigma_eg_s`` keeps the published sign convention for the dot
    coherence; the variable integrated by the equations of motion is its
    negative (see docs/KNOWN_ERRATA.md).
    """

    a_s: complex
    b_s: complex
    sigma_eg_s: complex
    q_s: float
    p_s: float
    p_trans: float
    eff_detuning: float

    @property
    def sigma_ge_s(self) -> complex:
        """Coherence in the convention of the equations of motion."""
        return -self.sigma_eg_s


def rocking_parameter(drive: DriveConfig) -> float:
    """Effective static power shift C = p_amp^2 / (2*omega_mod^2)."""
    if drive.p_amp == 0.0:
        return 0.0
    return drive.p_amp**2 / (2.0 * drive.omega_mod**2)


class _Poly:
    """A polynomial in one variable, its scalar coefficients constant first,
    on which :func:`response` and the printed closed form (closed_form) run
    as they run on numbers: ~2 us an operation, where numpy's `Polynomial`
    takes ~18 us, as slow as the grid."""
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, coef: list):
        self.coef = coef

    def __add__(self, other):
        b = other.coef if isinstance(other, _Poly) else [other]
        return _Poly([x + y for x, y in zip_longest(self.coef, b, fillvalue=0)])

    def __mul__(self, other):
        b = other.coef if isinstance(other, _Poly) else [other]
        out = [0] * (len(self.coef) + len(b) - 1)
        for i, x in enumerate(self.coef):
            for k, y in enumerate(b):
                out[i + k] += x * y
        return _Poly(out)

    __radd__, __rmul__ = __add__, __mul__
    __neg__ = partialmethod(__mul__, -1)

    def __sub__(self, other):
        return self + -other

    def __pow__(self, n: int):
        return reduce(_Poly.__mul__, [self] * n, _Poly([1]))

    def __call__(self, w: np.ndarray) -> np.ndarray:
        out = np.full(w.shape, self.coef[-1], dtype=complex)
        for c in self.coef[-2::-1]:
            out *= w
            out += c
        return out


def response(params: SystemParams, nu, detuning):
    """(dot, det, opt) at frequency nu, undivided: the dot's
    kappa_d + i(delta_d + nu), the determinant of the cavity-B/dot block
    [[kappa_b + i(delta_b + nu), i g], [-i g N, dot]] and cavity A's
    response (kappa_a + i(detuning + nu))*det + J^2*dot, which is det times
    that of cavity A with cavity B and the dot eliminated."""
    dot = params.kappa_d + 1j * (params.delta_d + nu)
    det = (params.kappa_b + 1j * (params.delta_b + nu)) * dot \
        - params.g_qd ** 2 * params.n_inversion
    return dot, det, (params.kappa_a + 1j * (detuning + nu)) * det \
        + params.j_coupling ** 2 * dot


def _pump_source(params: SystemParams) -> complex:
    """s = i*J*g*lambda*N*exp(-i*theta): the pumped dot's drive on cavity A,
    times det (the fixed point is a_s*opt = eta0*det + s)."""
    return (1j * params.j_coupling * params.g_qd * params.lambda_pump
            * params.n_inversion * cmath.exp(-1j * params.theta))


def _source_moments(params: SystemParams, det: complex) -> tuple[float, float, float]:
    """|det|^2, k = Re(conj(det)*s) and m = |s|^2, so that |eta0*det + s|^2
    = |det|^2*eta0^2 + 2*k*eta0 + m in real arithmetic, which gives the
    batched and the one-point root solve the same c0 bits at one eta0."""
    s = _pump_source(params)
    return det.real ** 2 + det.imag ** 2, (det.conjugate() * s).real, s.real ** 2 + s.imag ** 2


def eliminated(params: SystemParams, nu):
    """Per frequency nu: the responses of b and of sigma to a, and to the
    dot pump (their constant parts, used at nu = 0), from the 2x2 block
    [[kappa_b + i(delta_b + nu), i g], [-i g N, dot]] by Cramer's rule with
    :func:`response`'s dot and det, and the mirror susceptibility of q to
    |a|^2."""
    dot, det, _ = response(params, nu, 0.0)
    cav = params.kappa_b + 1j * (params.delta_b + nu)
    up, down = 1j * params.g_qd, -1j * params.g_qd * params.n_inversion
    drive_a = -1j * params.j_coupling
    pump = -1j * params.lambda_pump * params.n_inversion * cmath.exp(-1j * params.theta)
    wm = params.omega_m
    chi = wm * wm * params.chi / (wm * wm - nu * nu + 1j * params.gamma_m * nu)
    return (dot * drive_a / det, -down * drive_a / det,
            -up * pump / det, cav * pump / det, chi)


def effective_detuning(params: SystemParams, p_trans: float, c_rocking: float) -> float:
    """Delta = delta_a - omega_m*chi^2*(p_trans + C)."""
    return params.delta_a - params.omega_m * params.chi**2 * (p_trans + c_rocking)


def _cubic(params: SystemParams, eta0, c_rocking: float) -> tuple:
    """(c3, c2, c1, c0) of :func:`cubic_coefficients`, then the moments
    (|det|^2, k, m) of c0 = -(|det|^2*eta0^2 + 2*k*eta0 + m); only c0
    depends on eta0."""
    beta = params.omega_m * params.chi**2
    _, det, opt0 = response(params, 0.0, params.delta_a - beta * c_rocking)
    det_sq, k, m = _source_moments(params, det)
    return (det_sq * beta * beta, -2.0 * beta * (opt0 * det.conjugate()).imag,
            opt0.real ** 2 + opt0.imag ** 2, -(eta0 * eta0 * det_sq + 2.0 * eta0 * k + m),
            det_sq, k, m)


def cubic_coefficients(params: SystemParams, eta0: float,
                       c_rocking: float) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of the transmitted-power cubic.

    c3*P^3 + c2*P^2 + c1*P + c0 = 0 with P = |a_s|^2.  With opt0 cavity A's
    :func:`response` at P = 0 (the rocking shift only), the fixed point's
    opt is opt0 - i*beta*P*det, beta = omega_m*chi^2, and the cubic is
    P*|opt0 - i*beta*P*det|^2 = |eta0*det + s|^2 (docs/cubic_derivation.md);
    deviations from the published closed form are listed in
    docs/KNOWN_ERRATA.md.
    """
    return _cubic(params, eta0, c_rocking)[:4]


def _drive_of_ptrans(cubic: tuple, p_trans, sign):
    """(signed eta0, input power eta0^2) that places a steady state at
    ``p_trans``, from :func:`_cubic`'s scalars: the steady-state polynomial
    inverted.  With a pumped dot (k nonzero) it is a quadratic
    |det|^2*eta0^2 + 2*k*eta0 + m = lhs(p_trans) whose roots are
    eta0 = (-k +- sqrt(D))/|det|^2; ``sign`` picks one.  eta0 is nan where
    that root is complex; where it is negative, no drive reaches p_trans on
    that root."""
    c3, c2, c1, _, det_sq, k, m = cubic
    p = np.asarray(p_trans, dtype=float)
    lhs = c3 * p**3 + c2 * p**2 + c1 * p
    with np.errstate(invalid="ignore"):
        if k == 0.0:
            return sign * np.sqrt((lhs - m) / det_sq), (lhs - m) / det_sq
        eta0 = (-k + sign * np.sqrt(k * k + det_sq * (lhs - m))) / det_sq
    return eta0, eta0**2


def _reaches(cubic: tuple):
    """(folds, drives, inputs) of the cubic with :func:`_cubic`'s scalars:
    its folds in p_trans, ascending (nan: none), and per fold the signed
    eta0 on both roots of the quadratic of :func:`_drive_of_ptrans`
    (nan: complex, or p_trans <= 0) and, where it is >= 0 (a knee), its
    input power, whose sqrt it is (else nan)."""
    c3, c2, c1 = cubic[:3]
    disc = c2 * c2 - 3.0 * c3 * c1  # c3 > 0 where not 0: the - root is the lower fold
    folds = ((-c2 + np.array([-1.0, 1.0]) * math.sqrt(disc)) / (3.0 * c3)
             if c3 != 0.0 and disc > 0.0 else np.full(2, math.nan))
    eta0, inp = _drive_of_ptrans(cubic, folds[:, None], np.array([1.0, -1.0]))
    with np.errstate(invalid="ignore"):
        drives = np.where(folds[:, None] > 0.0, np.where(eta0 >= 0.0, np.sqrt(inp), eta0), np.nan)
    return folds, drives, np.where(drives >= 0.0, inp, np.nan)


def turning_points(params: SystemParams, c_rocking: float) -> tuple[tuple[float, float], ...]:
    """Exact (input_power, p_trans) saddle-node points of the S-curve,
    ascending in input power: each fold at every drive eta0 >= 0 of
    :func:`_reaches`, so with a pumped dot one fold can be reached twice."""
    folds, _, inputs = _reaches(_cubic(params, 0.0, c_rocking))
    hit = np.isfinite(inputs)
    return tuple(sorted(set(zip(inputs[hit].tolist(), np.repeat(folds, 2)[hit.ravel()].tolist()))))


def _newton_polish(coef: tuple, x: np.ndarray) -> np.ndarray:
    """Three Newton steps on each root x of the polynomial ``coef``, leading
    coefficient first (scalars, or one per root); a root stops at its first
    step that is not finite (it keeps x, so every later step is that one)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(3):
            # Horner's rule for the value p and the slope dp together
            p, dp = coef[0] * x + coef[1], coef[0]
            for c in coef[2:]:
                dp = dp * x + p
                p = p * x + c
            step = p / dp
            x = np.where(np.isfinite(step), x - step, x)
    return x


def transmitted_power_roots(params: SystemParams, eta0,
                            c_rocking: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Physical roots of the transmitted-power polynomial at every eta0.

    Returns (point, p_trans, multiplicity) arrays, ordered by point, then
    p_trans.  The degree is the model's, the same at every point: c3, c2
    and c1 do not depend on eta0, and c2 vanishes with c3 = |A|^2*beta^2,
    so the polynomial is the full cubic, or the line c1*P + c0 where c3 = 0
    (no root where c1 = 0 too).  One ``eigvals`` call on the companion
    matrices (as ``np.roots`` builds them), then three Newton steps.
    Which roots exist comes from the exact knees, not the eigenvalues: a
    fold is a double root at its drives (:func:`_reaches`; those >= 0 are
    :func:`turning_points`).  The polynomial's sign there is 0 on a drive,
    else -1 (c0 -> -inf as |eta0| grows) flipped once per drive above eta0:
    three roots where it is + at the lower fold and - at the upper, one
    otherwise, and on a knee the fold's p_trans as a double root, listed
    once.  Where three are due, a conjugate pair splits into re -+ |im|.
    c3, c2 and c1 are checked and used as Python scalars and only c0 is an
    array, so a one-point call makes no numpy call for them.
    """
    eta0 = np.atleast_1d(np.asarray(eta0, dtype=float))
    cubic = _cubic(params, eta0, c_rocking)
    c3, c2, c1, c0 = cubic[:4]
    if not (math.isfinite(c3) and math.isfinite(c2) and math.isfinite(c1)
            and np.isfinite(c0).all()):
        raise DegenerateModelError("non-finite polynomial coefficients")
    if not (c3 or c2 or c1 or c0.all()):
        raise DegenerateModelError("transmitted-power polynomial vanished identically")
    head = (c3, c2, c1) if c3 else (c1,)
    if not head[0]:  # c3 = c1 = 0: a nonzero constant
        return np.zeros(0, int), np.zeros(0), np.zeros(0, int)
    deg = len(head)
    folds, drives, _ = _reaches(cubic)
    companion = np.zeros((eta0.size, deg, deg))
    companion[:, 0, :-1] = [-c / head[0] for c in head[1:]]
    companion[:, 0, -1] = -c0 / head[0]
    companion[:, 1:, :-1] = np.eye(deg - 1)
    z = np.linalg.eigvals(companion)
    imag = np.abs(z.imag)
    most_real = np.where(imag == imag.min(axis=1, keepdims=True), z.real, np.nan)
    # nanmax and nanmin of each row (every row has a value)
    top, bottom = np.fmax.reduce(most_real, axis=1), np.fmin.reduce(most_real, axis=1)
    # per point and fold: -1 times the product of sign(eta0 - d) over its
    # drives d (one flip per drive above eta0, 0 on a drive), a missing
    # drive (nan) taken as -inf, below every eta0
    at_lo, at_hi = -np.sign(eta0[:, None, None] - np.fmax(drives, -np.inf)).prod(axis=2).T
    every = (at_lo > 0) & (at_hi < 0)
    cand = np.empty((eta0.size, deg + 2))
    cand[:, :deg] = np.sort(z.real + z.imag, axis=1)
    cand[~every, :deg] = np.nan
    cand[:, deg] = np.where(every, np.nan, np.where(at_hi >= 0, bottom, top))
    cand[:, deg + 1] = np.where(at_lo == 0, folds[0], np.where(at_hi == 0, folds[1], np.nan))
    point, col = np.nonzero(~np.isnan(cand))
    simple = col <= deg
    x = cand[point, col]
    x[simple] = _newton_polish((*head, c0[point[simple]]), x[simple])
    p_trans, mult = np.where(x > 0.0, x, 0.0), np.where(simple, 1, 2)
    order = np.lexsort((p_trans, point))
    return point[order], p_trans[order], mult[order]


def solve_transmitted_power(params: SystemParams, eta0: float,
                            c_rocking: float) -> list[tuple[float, int]]:
    """Ascending (p_trans, multiplicity) pairs at one eta0: the one-point
    case of :func:`transmitted_power_roots`."""
    _, p_trans, mult = transmitted_power_roots(params, eta0, c_rocking)
    return list(zip(p_trans, mult.tolist()))


def steady_state_from_ptrans(params: SystemParams, eta0: float, c_rocking: float,
                             p_trans) -> SteadyState:
    """Steady state on the branch with transmitted power ``p_trans``.

    ``p_trans`` is normally a root from :func:`solve_transmitted_power`;
    the returned amplitude then satisfies |a_s|^2 = p_trans to the root
    accuracy.  Phase convention: the two pump frames coincide (the drive
    frequency offset is zero).  Array arguments give array fields.
    """
    if np.any(p_trans < 0.0):
        raise ValueError(f"p_trans must be >= 0, got {np.min(p_trans)}")
    dot, det, opt = response(params, 0.0, effective_detuning(params, p_trans, c_rocking))
    if np.any(np.abs(opt) < 1e-12):
        raise SingularResponseError(
            f"cavity-A response denominator vanished at p_trans={p_trans}")
    a_s = (eta0 * det + _pump_source(params)) / opt
    # checked before `eliminated`, whose complex division by an exactly
    # singular block would raise ZeroDivisionError
    if abs(det) < 1e-12 * abs(dot):
        raise SingularResponseError("cavity-B/dot response denominator vanished")
    b_of_a, sigma_of_a, b_pumped, sigma_pumped, _ = eliminated(params, 0.0)
    p_trans = abs(a_s) ** 2
    return SteadyState(a_s=a_s, b_s=b_of_a * a_s + b_pumped,
                       sigma_eg_s=-(sigma_of_a * a_s + sigma_pumped),
                       q_s=params.chi * (p_trans + c_rocking), p_s=0.0, p_trans=p_trans,
                       eff_detuning=effective_detuning(params, p_trans, c_rocking))


def steady_state(params: SystemParams, eta0: float, c_rocking: float,
                 branch: str) -> SteadyState:
    """Steady state on the lowest (``"lower"``) or the highest (``"upper"``)
    transmitted-power branch at the given bias."""
    if branch not in ("lower", "upper"):
        raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")
    roots = solve_transmitted_power(params, eta0, c_rocking)
    if not roots:
        raise DegenerateModelError("no steady-state root at the requested bias")
    p_trans = roots[0][0] if branch == "lower" else roots[-1][0]
    return steady_state_from_ptrans(params, eta0, c_rocking, p_trans)
