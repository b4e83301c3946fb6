"""Scaled effective atomic units for a GaAs quantum ring.

Everything downstream works in dimensionless effective atomic units with
hbar = e = 1 and the effective mass absorbed into the unit system.  Configs
accept meV / nm / fs / ps and convert at the boundary through the helpers
here.  Only two quantities come back out: energies in meV (energy_to_mev)
and record times in ps (eff_to_ps).  Couplings lambda are config inputs in
these units; nothing here derives them from a cavity length.

The unit system is fixed by the effective mass m* (in bare electron masses)
and the relative permittivity eps of the host material:

    Ha*   = (m*/eps^2) Ha      effective Hartree   (~11.30 meV for GaAs)
    a_B*  = (eps/m*)  a_0      effective Bohr      (~10.03 nm)
    u_t*  = hbar/Ha*           effective time unit (~58.23 fs)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA values
_HARTREE_MEV = 27211.386245988
_BOHR_NM = 0.0529177210903
_HBAR_MEV_FS = 658.2119569509067


@dataclass(frozen=True)
class UnitSystem:
    """Conversion factors of one scaled-effective-atomic-unit system.

    hartree_eff : meV per Ha*
    bohr_eff    : nm per a_B*
    time_eff    : fs per u_t*
    eps_rel     : relative permittivity (dimensionless)
    mass_eff    : effective mass in bare electron masses
    """

    hartree_eff: float
    bohr_eff: float
    time_eff: float
    eps_rel: float
    mass_eff: float


def make_units(mass_eff: float, eps_rel: float) -> UnitSystem:
    if mass_eff <= 0 or eps_rel <= 0:
        raise ValueError("mass_eff and eps_rel must be positive")
    hartree_eff = mass_eff / eps_rel**2 * _HARTREE_MEV
    return UnitSystem(
        hartree_eff=hartree_eff,
        bohr_eff=eps_rel / mass_eff * _BOHR_NM,
        time_eff=_HBAR_MEV_FS / hartree_eff,
        eps_rel=eps_rel,
        mass_eff=mass_eff,
    )


def default_units() -> UnitSystem:
    """GaAs: m* = 0.067 m_e, eps = 12.7."""
    return make_units(mass_eff=0.067, eps_rel=12.7)


def energy_to_eff(value_mev: float, u: UnitSystem) -> float:
    """meV -> Ha*."""
    return value_mev / u.hartree_eff


def energy_to_mev(value_eff: float, u: UnitSystem) -> float:
    """Ha* -> meV."""
    return value_eff * u.hartree_eff


def length_to_eff(value_nm: float, u: UnitSystem) -> float:
    """nm -> a_B*."""
    return value_nm / u.bohr_eff


def time_to_eff(value_fs: float, u: UnitSystem) -> float:
    """fs -> u_t*."""
    return value_fs / u.time_eff


def ps_to_eff(value_ps: float, u: UnitSystem) -> float:
    return value_ps * 1e3 / u.time_eff


def eff_to_ps(value_eff: float, u: UnitSystem) -> float:
    return value_eff * u.time_eff * 1e-3


def effective_coupling(lam: float, omega: float) -> float:
    """Effective coupling g = lambda * sqrt(1/(2 omega)), hbar = 1.

    omega is the mode frequency in Ha*.
    """
    if omega <= 0:
        raise ValueError(f"mode frequency must be positive, got {omega}")
    return lam * math.sqrt(1.0 / (2.0 * omega))
