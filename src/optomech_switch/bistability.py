"""Bistability curve: output power branches vs input power.

The transmitted-power polynomial is solved on an input-power grid.  The
knees (saddle-node turning points of the S-curve) are `steady_state`'s
exact `turning_points`, the same list from which the root solver counts
the branches: one or three, switching at every knee.  Along the S-curve
the drift eigenvalues depend on a root only through its p_trans = P, so a
root's stability label is a function of P that changes only where an
eigenvalue crosses the imaginary axis: at a fold, where a real one crosses
0, or where a pair crosses, a root of the Hurwitz determinant Delta_7(P)
of the characteristic polynomial (`linearize`).  The roots are labelled
by the P-intervals between these boundaries, one eigenvalue check per
interval.  The curve is returned as columns: the grid, and one entry per
root for its grid index, p_trans and stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linearize import (_characteristic_polynomial, _hurwitz_determinant, drift_matrix,
                        stability)
from .errors import NumericalError
from .params import SystemParams, _grid
from .steady_state import (_cubic, _reaches, steady_state_from_ptrans,
                           transmitted_power_roots, turning_points)

# Delta_7 has degree <= 12 in P: column 1 of the Hurwitz matrix holds only
# a_7 and a_8, which do not depend on P, and every other entry is a
# quadratic.  Its values at the 15 Chebyshev points of the first kind,
# _NODES = cos(theta_j), give the coefficients of T_0..T_12 through the
# cosines cos(k theta_j).
_THETA = np.pi * (np.arange(15) + 0.5) / 15
_NODES = np.cos(_THETA)
_TO_CHEBYSHEV = 2.0 / 15 * np.cos(np.outer(np.arange(13), _THETA))
_TO_CHEBYSHEV[0] /= 2.0


@dataclass(frozen=True)
class BistabilityCurve:
    """The S-curve as columns.  ``input_power`` is the grid.  The other
    arrays hold one entry per root, ordered by grid point, then p_trans:
    ``point`` (its grid index), ``p_trans`` and ``stable``.  A knee's double
    root is listed once.  ``knees`` are the exact saddle-node input powers,
    ascending; empty when monostable."""
    input_power: np.ndarray
    point: np.ndarray
    p_trans: np.ndarray
    stable: np.ndarray
    knees: tuple[float, ...]


def _chebyshev_roots(coef: np.ndarray) -> np.ndarray:
    """Roots in x of each row's sum_k coef[k] T_k(x): the eigenvalues of
    its colleague matrix, x T_k = (T_{k-1} + T_{k+1}) / 2 with T_n
    eliminated by the row itself."""
    n = coef.shape[-1] - 1
    mat = np.zeros(coef.shape[:-1] + (n, n))
    k = np.arange(n - 1)
    mat[..., k, k + 1] = mat[..., k + 1, k] = 0.5
    mat[..., 0, 1] = 1.0
    mat[..., -1, :] -= coef[..., :-1] / (2.0 * coef[..., -1:])
    return np.linalg.eigvals(mat)


def _boundaries(params: SystemParams, c_rocking: float, p_trans: np.ndarray) -> np.ndarray:
    """Ascending P where a root's label can change: the cubic's folds
    (`steady_state._reaches`, the roots of the characteristic polynomial's
    constant coefficient) and, within the range of ``p_trans``, the roots
    of Delta_7.  Delta_7 is interpolated on pieces [p, 2p] at most, from the
    least positive p_trans up (and [0, p] below it where a root is 0): a
    degree-12 polynomial grows as P^12, and one interpolant over decades
    would leave its smaller roots below its rounding.  Every root of a
    piece's interpolant counts by its real part, so two close crossings
    that rounding has made a complex pair still split the range; a
    candidate where no label changes costs one more eigenvalue check.
    Where the polynomial does not depend on P (chi = 0), only the folds."""
    folds = _reaches(_cubic(params, 0.0, c_rocking))[0]
    folds = folds[np.isfinite(folds)]
    poly = _characteristic_polynomial(params, c_rocking)
    positive = p_trans[p_trans > 0.0]
    if positive.size == 0 or not np.any(poly[:, 1:]):
        return folds
    first, last = positive.min(), positive.max()
    edges = np.geomspace(first, last, math.ceil(math.log2(last / first)) + 1)
    if np.any(p_trans == 0.0):
        edges = np.concatenate([[0.0], edges])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None, None] + half[:, None, None] * _NODES[:, None]
    with np.errstate(over="ignore"):
        values = _hurwitz_determinant(poly[:, 0] + nodes * (poly[:, 1] + nodes * poly[:, 2]))
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"Delta_7 overflows on p_trans in [{edges[0]:.6g}, {last:.6g}]")
    x = _chebyshev_roots(values @ _TO_CHEBYSHEV.T).real
    hopf = (mid[:, None] + half[:, None] * x)[np.abs(x) <= 1.0]
    return np.sort(np.concatenate([folds, hopf]))


def bistability_curve(params: SystemParams, input_grid, c_rocking: float) -> BistabilityCurve:
    """Branches of transmitted power over an ascending input-power grid."""
    grid = _grid(input_grid, "input grid")
    eta0 = np.sqrt(grid)
    point, p_trans, _ = transmitted_power_roots(params, eta0, c_rocking)
    # cells: the open intervals between the boundaries, and the boundaries
    # themselves.  The middle root of each decides the label of all of them:
    # a root next to a crossing can sit within the -1e-10 threshold of it.
    bounds = _boundaries(params, c_rocking, p_trans)
    cell = np.searchsorted(bounds, p_trans, "left") + np.searchsorted(bounds, p_trans, "right")
    order = np.argsort(p_trans)
    cells, first, count = np.unique(cell[order], return_index=True, return_counts=True)
    rep = order[first + count // 2]
    steady = steady_state_from_ptrans(params, eta0[point[rep]], c_rocking, p_trans[rep])
    stable = stability(drift_matrix(params, steady)).stable[np.searchsorted(cells, cell)]
    knees = tuple(inp for inp, _ in turning_points(params, c_rocking))
    return BistabilityCurve(grid, point, p_trans, stable, knees)
