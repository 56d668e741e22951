"""Closed-form displacement spectrum (reference transcription).

This module evaluates the published closed-form expression

    S_q(w) = (|K1|^2 + |K2|^2 + |K3|^2 + |K4|^2 + |K5|^2) / |Dd|^2

with Dd and K1..K5 transcribed term by term, exactly as printed, from the
source formulas.  The transcription is intentionally NOT repaired: it is
an experimental reference route, audited against the matrix backend's
linear response (`spectrum.spectrum_matrix`), which is authoritative.  Known
discrepancies and their suspected causes are itemized in
docs/KNOWN_ERRATA.md.  Dd and the K brackets are polynomials in w: `_Poly`
collects them once a call (~400 scalar operations), and Horner's rule
evaluates them on the grid (~45 array operations; the text takes ~120).

The printed thermal factor of K1, gamma_m*coth(hbar*w/(2 kB T)), is
replaced by the dimensionally consistent sqrt of the full Brownian weight,
which tracks the matrix route far more closely (docs/KNOWN_ERRATA.md
item 7).  It has no g or N, so it leaves out the dot (item 14).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .errors import SingularResponseError
from .params import SystemParams
from .spectrum import SpectrumSeries, _power, brownian_weight, detect_peaks, spectrum_matrix
from .steady_state import SteadyState, _Poly

log = logging.getLogger(__name__)

# Deviations from the matrix route above this relative size get logged.
AUDIT_TOL = 0.01


def fluctuation_amplitudes(steady: SteadyState, params: SystemParams):
    """The printed model's real optomechanical couplings (a_plus, a_minus_i):
    sqrt(2)*omega_m*chi times (Re a_s, -Im a_s), a_minus_i being i*a_-."""
    scale = math.sqrt(2.0) * params.omega_m * params.chi
    return scale * steady.a_s.real, -scale * steady.a_s.imag


def _printed(params: SystemParams, steady: SteadyState, w):
    """Dd and the K brackets (no thermal/root factors) as printed, at a grid or a _Poly."""
    wm = params.omega_m
    ka, kb = params.kappa_a, params.kappa_b
    j = params.j_coupling
    d = steady.eff_detuning
    db = params.delta_b
    ap, iam = fluctuation_amplitudes(steady, params)
    am = -1j * iam  # the (purely imaginary) lower fluctuation amplitude

    dd = (-1j * w - params.gamma_m) * (
        - 1j * j**4 * w
        + 2j * j**2 * w**3
        - 1j * w**5
        + 2 * j**2 * w**2 * ka
        - 2 * w**4 * ka
        + 1j * w**3 * ka**2
        + 2 * j**2 * w**2 * kb
        - 2 * w**4 * kb
        - 2j * j**2 * w * ka * kb
        + 4j * w**3 * ka * kb
        + 2 * w**2 * ka**2 * kb
        + 1j * w**3 * kb**2
        + 2 * w**2 * ka * kb**2
        - 1j * w * ka**2 * kb**2
        + 1j * w**3 * d**2
        + 2 * w**2 * kb * d**2
        - 1j * w * kb**2 * d**2
        + 2j * j**2 * w * d * db
        + 1j * w**3 * db**2
        + 2 * w**2 * ka * db**2
        - 1j * w * ka**2 * db**2
        - 1j * w * d**2 * db**2
    ) - wm * (
        - j**4 * wm
        + 2 * j**2 * w**2 * wm
        - w**4 * wm
        - 2j * j**2 * w * ka * wm
        + 2j * w**3 * ka * wm
        + w**2 * ka**2 * wm
        - 2j * j**2 * w * kb * wm
        + 2j * w**3 * kb * wm
        - 2 * j**2 * ka * kb * wm
        + 4 * w**2 * ka * kb * wm
        - 2j * w * ka**2 * kb * wm
        + w**2 * kb**2 * wm
        - 2j * w * ka * kb**2 * wm
        - ka**2 * kb**2 * wm
        + w**2 * am**2 * d
        - w**2 * ap**2 * d
        - 2j * w * am**2 * kb * d
        + 2j * w * ap**2 * kb * d
        - am**2 * kb**2 * d
        + ap * kb**2 * d
        + w**2 * wm * d**2
        - 2j * w * kb * wm * d**2
        - kb**2 * wm * d**2
        + j**2 * am**2 * db**2
        - j**2 * ap**2 * db
        + 2 * j**2 * wm * d * db
        + w**2 * wm * db**2
        - 2j * w * ka * wm * db**2
        - ka**2 * wm * db**2
        - am**2 * d * db**2
        + ap**2 * d * db**2
        - wm * d**2 * db**2
    )

    k1_bracket = (
        - j**4 * wm
        + 2 * j**2 * w**2 * wm
        - w**4 * wm
        - 2j * j**2 * w * ka * wm
        + 2j * w**3 * ka * wm
        + w**2 * ka**2 * wm
        - 2j * j**2 * w * kb * wm
        + 2j * w**3 * kb * wm
        - 2 * j**2 * ka * kb * wm
        + 4 * w**2 * ka * kb * wm
        - 2j * w * ka**2 * kb * wm
        + w**2 * kb**2 * wm
        - 2j * w * ka * kb**2 * wm
        - ka**2 * kb**2 * wm
        + w**2 * wm * d**2
        - 2j * w * kb * wm * d**2
        - kb**2 * wm * d**2
        + 2 * j**2 * wm * d * db
        + w**2 * wm * db**2
        - 2j * w * ka * wm * db**2
        - ka**2 * wm * db**2
        - wm * d**2 * db**2
    ) * w**0

    k2 = (
        - 1j * j**3 * am * wm
        + 1j * j * w**2 * am * wm
        + j * w * am * ka * wm
        + j * w * am * kb * wm
        - 1j * j * am * ka * kb * wm
        + 1j * j * w * ap * wm * d
        + j * ap * kb * wm * d
        + 1j * j * w * ap * wm * db
        + j * ap * ka * wm * db
        + 1j * j * am * wm * d * db
    ) * np.sqrt(kb)

    k3 = (
        - j**3 * ap * wm
        + j * w**2 * ap * wm
        - 1j * j * w * ap * ka * wm
        - 1j * j * w * ap * kb * wm
        - j * ap * ka * kb * wm
        + j * w * am * wm * d
        - 1j * j * am * kb * wm * d
        + j * w * am * wm * db
        - 1j * j * am * ka * wm * db
        + j * ap * wm * d * db
    ) * np.sqrt(kb)

    k4 = (
        - 1j * j**2 * w * ap * wm
        + 1j * w**3 * ap * wm
        + w**2 * ap * ka * wm
        - j**2 * ap * kb * wm
        + 2 * w**2 * ap * kb * wm
        - 2j * w * ap * ka * kb * wm
        - 1j * w * ap * kb**2 * wm
        - ap * ka * kb**2 * wm
        + 1j * w**2 * am * wm * d
        + 2 * w * am * kb * wm * d
        - 1j * am * kb**2 * wm * d
        + 1j * j**2 * am * wm * db
        - 1j * w * ap * wm * db**2
        - ap * ka * wm * db**2
        - 1j * am * wm * d * db**2
    ) * np.sqrt(ka)

    k5 = (
        wm * (ap * (-w**2 * d + 2j * w * kb * d + kb**2 * d - j**2 * db + d * db**2)
              + 1j * am * (-j * (1j * j * w + j * kb)))
    ) + (
        (-1j * w - ka) * (-w**2 + 2j * w * kb + kb**2 + db**2)
    ) * np.sqrt(ka)

    return dd, k1_bracket, k2, k3, k4, k5 * w**0


def _coefficients(params: SystemParams, steady: SteadyState, omega: np.ndarray):
    """Dd and the K brackets (without thermal/root factors), per frequency."""
    w = np.asarray(omega, dtype=float)
    return tuple(poly(w) for poly in _printed(params, steady, _Poly([0.0, 1.0])))


def spectrum_closed_form(params: SystemParams, steady: SteadyState,
                         omega_grid: np.ndarray) -> SpectrumSeries:
    """Closed-form S_q(w).  Experimental; the matrix route is authoritative.

    Relative deviations from the matrix route above 1% are logged as one
    summary at WARNING.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    reference = spectrum_matrix(params, steady, omega_grid)  # refuses unstable states
    dd, k1b, k2, k3, k4, k5 = _coefficients(params, steady, omega_grid)
    den = _power(dd)
    if np.max(den) == 0.0 or np.any(den < 1e-28 * np.max(den)):
        raise SingularResponseError("closed-form denominator vanished on the grid")
    with np.errstate(over="ignore", invalid="ignore"):
        s_q = (_power(k1b) * brownian_weight(omega_grid, params) + _power(k2)
               + _power(k3) + _power(k4) + _power(k5)) / den

    deviation = _relative_deviation(s_q, reference.s_q)
    bad = deviation > AUDIT_TOL
    if np.any(bad):
        log.warning(
            "closed-form spectrum deviates >%.0f%% from the matrix route at "
            "%d/%d frequencies (max %.3g); matrix route is authoritative",
            100 * AUDIT_TOL, int(np.sum(bad)), omega_grid.size,
            float(np.max(deviation[np.isfinite(deviation)], initial=0.0)))

    finite = np.where(np.isfinite(s_q), s_q, 0.0)
    peaks = detect_peaks(omega_grid, finite)
    return SpectrumSeries(omega_grid=omega_grid, s_q=s_q, peaks=peaks)


def _relative_deviation(candidate: np.ndarray, reference: np.ndarray) -> np.ndarray:
    floor = 1e-300 + np.max(np.abs(reference)) * 1e-30
    return np.abs(candidate - reference) / np.maximum(np.abs(reference), floor)
