import numpy as np
import pytest

from optomech_switch import SystemParams

# The omega grid of a spectrum task that leaves its omega_* keys unset.
SPECTRUM_GRID = np.linspace(0.0, 2.5, 2000)

# Rocking-bistability parameter set used across the suite (the published
# S-curve configuration; gamma_m taken from the companion captions).
FIG_BISTABLE = SystemParams(kappa_a=0.1, kappa_b=0.1, kappa_d=1.8, gamma_m=1.8,
                            delta_a=1.0, delta_b=1.0, delta_d=0.0, j_coupling=0.5,
                            g_qd=1.0, chi=0.3, lambda_pump=0.02, theta=0.238,
                            n_inversion=0.0)

# Published switch set (variant A: J = 1, g = 0.5) of the switch-trend criteria.
FIG_SWITCH = SystemParams(kappa_a=0.1, kappa_b=0.1, kappa_d=1.8, gamma_m=1.8,
                          delta_a=1.0, delta_b=1.0, delta_d=0.0, j_coupling=1.0,
                          g_qd=0.5, chi=0.3, lambda_pump=0.02, theta=0.238,
                          n_inversion=0.0)

# Adiabatic-regime set with a hard fold and dynamically clean branches.
CLEAN_BISTABLE = SystemParams(kappa_a=1.0, kappa_b=1.0, kappa_d=1.8, gamma_m=3.0,
                              delta_a=4.0, delta_b=1.0, delta_d=0.0, j_coupling=0.5,
                              g_qd=1.0, chi=1.0, lambda_pump=0.02, theta=0.238,
                              n_inversion=0.0)


def spectrum_params(j_coupling=1.0, chi=0.2, gamma_m=1e-3):
    """Published displacement-spectrum configuration (gamma_m is free there)."""
    return SystemParams(kappa_a=0.1, kappa_b=0.1, kappa_d=1.8, gamma_m=gamma_m,
                        delta_a=1.0, delta_b=1.0, delta_d=-1.0,
                        j_coupling=j_coupling, g_qd=1.0, chi=chi,
                        lambda_pump=0.02, theta=0.238, n_inversion=0.0,
                        thermal_ratio=1e-6)


def random_params(rng, chi_max=0.25):
    """Random draw over the working parameter ranges."""
    return SystemParams(kappa_a=rng.uniform(0.05, 2.0), kappa_b=rng.uniform(0.05, 2.0),
                        kappa_d=rng.uniform(0.05, 2.0), gamma_m=rng.uniform(0.05, 2.0),
                        delta_a=rng.uniform(-2.0, 2.0), delta_b=rng.uniform(-2.0, 2.0),
                        delta_d=rng.uniform(-2.0, 2.0), j_coupling=rng.uniform(0.0, 1.5),
                        g_qd=rng.uniform(0.0, 1.5), chi=rng.uniform(0.0, chi_max),
                        lambda_pump=rng.uniform(0.0, 1.5), theta=rng.uniform(0.0, 2 * np.pi),
                        n_inversion=rng.uniform(-1.0, 1.0),
                        thermal_ratio=10.0 ** rng.uniform(-6.0, 0.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
