"""Scaled effective atomic units of the GaAs quantum ring.

Everything downstream works in dimensionless effective atomic units with
hbar = e = 1 and the effective mass absorbed into the unit system.  Configs
accept meV / nm / fs / ps and convert at the boundary through the helpers
here, which read the one unit system below.  Only two quantities come back
out: energies in meV (energy_to_mev) and record times in ps (eff_to_ps).
Couplings lambda are config inputs in these units; nothing here derives
them from a cavity length.

The unit system is fixed by the effective mass m* = MASS_EFF (in bare
electron masses) and the relative permittivity eps = EPS_REL of GaAs:

    HARTREE_EFF = (m*/eps^2) Ha   meV per Ha*, effective Hartree  (~11.30 meV)
    BOHR_EFF    = (eps/m*)  a_0   nm per a_B*, effective Bohr     (~10.03 nm)
    TIME_EFF    = hbar/Ha*        fs per u_t*, effective time     (~58.23 fs)
"""

from __future__ import annotations

import math

# CODATA values
_HARTREE_MEV = 27211.386245988
_BOHR_NM = 0.0529177210903
_HBAR_MEV_FS = 658.2119569509067

MASS_EFF = 0.067
EPS_REL = 12.7
HARTREE_EFF = MASS_EFF / EPS_REL**2 * _HARTREE_MEV
BOHR_EFF = EPS_REL / MASS_EFF * _BOHR_NM
TIME_EFF = _HBAR_MEV_FS / HARTREE_EFF


def energy_to_eff(value_mev: float) -> float:
    """meV -> Ha*."""
    return value_mev / HARTREE_EFF


def energy_to_mev(value_eff: float) -> float:
    """Ha* -> meV."""
    return value_eff * HARTREE_EFF


def length_to_eff(value_nm: float) -> float:
    """nm -> a_B*."""
    return value_nm / BOHR_EFF


def time_to_eff(value_fs: float) -> float:
    """fs -> u_t*."""
    return value_fs / TIME_EFF


def ps_to_eff(value_ps: float) -> float:
    return value_ps * 1e3 / TIME_EFF


def eff_to_ps(value_eff: float) -> float:
    return value_eff * TIME_EFF * 1e-3


def effective_coupling(lam: float, omega: float) -> float:
    """Effective coupling g = lambda * sqrt(1/(2 omega)), hbar = 1.

    omega is the mode frequency in Ha*.
    """
    if omega <= 0:
        raise ValueError(f"mode frequency must be positive, got {omega}")
    return lam * math.sqrt(1.0 / (2.0 * omega))
