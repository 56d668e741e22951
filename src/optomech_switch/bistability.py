"""Bistability curve: output power branches vs input power.

The transmitted-power polynomial is solved on an input-power grid and
every root is classified stable/unstable through the eigenvalues of its
drift matrix (`linearize`), all grid points at once.  The knees
(saddle-node turning points of the S-curve) are `steady_state`'s exact
`turning_points`, the same list from which the root solver counts the
branches: one or three, switching at every knee.  The curve is returned
as columns: the grid, and one entry per root for its grid index, p_trans,
stability and margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linearize import drift_matrix, stability
from .params import SystemParams
from .steady_state import (steady_state_from_ptrans, transmitted_power_roots,
                           turning_points)


@dataclass(frozen=True)
class BistabilityCurve:
    """The S-curve as columns.  ``input_power`` is the grid.  The other
    arrays hold one entry per root, ordered by grid point, then p_trans:
    ``point`` (its grid index), ``p_trans``, ``stable`` and ``max_real_eig``
    (the largest real part of the drift eigenvalues).  A knee's double root
    is listed once.  ``knees`` are the exact saddle-node input powers,
    ascending; empty when monostable."""
    input_power: np.ndarray
    point: np.ndarray
    p_trans: np.ndarray
    stable: np.ndarray
    max_real_eig: np.ndarray
    knees: tuple[float, ...]


def bistability_curve(params: SystemParams, input_grid, c_rocking: float) -> BistabilityCurve:
    """Branches of transmitted power over an ascending input-power grid."""
    grid = np.asarray(input_grid, dtype=float)
    if grid.size < 2 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("input grid must be finite and ascending with >= 2 points")
    if np.any(grid < 0.0):
        raise ValueError("input powers must be >= 0")
    eta0 = np.sqrt(grid)
    point, p_trans, _ = transmitted_power_roots(params, eta0, c_rocking)
    steady = steady_state_from_ptrans(params, eta0[point], c_rocking, p_trans)
    report = stability(drift_matrix(params, steady))
    knees = tuple(inp for inp, _ in turning_points(params, c_rocking))
    return BistabilityCurve(grid, point, p_trans, report.stable, report.max_real_part, knees)
