"""Unit-system constants, converters, and the effective coupling formula."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ringpdc.photon import BathSpec, sample_bath
from ringpdc.units import (
    BOHR_EFF,
    EPS_REL,
    HARTREE_EFF,
    MASS_EFF,
    TIME_EFF,
    energy_to_eff,
    energy_to_mev,
    length_to_eff,
    time_to_eff,
    ps_to_eff,
    eff_to_ps,
    effective_coupling,
)

# Published coupling table: columns (weak, strong, ultra-strong) with the
# pump transition at 24.65 meV.
TABLE_LAMBDA = (0.014, 0.020, 0.026)
TABLE_G1 = (0.00675, 0.00954, 0.01232)
PUMP_MEV = 24.65


def test_default_constants():
    assert MASS_EFF == 0.067
    assert EPS_REL == 12.7
    assert HARTREE_EFF == pytest.approx(11.30, abs=5e-3)
    assert BOHR_EFF == pytest.approx(10.03, abs=5e-3)
    assert TIME_EFF == pytest.approx(58.23, abs=5e-3)


def test_eff_units_relations():
    # hbar / Ha* must equal the effective time unit by construction
    assert TIME_EFF == pytest.approx(658.2119569509067 / HARTREE_EFF, rel=1e-14)


def test_energy_examples():
    assert energy_to_eff(11.30) == pytest.approx(1.0, rel=1e-3)
    assert energy_to_eff(24.65) == pytest.approx(2.1814, rel=1e-3)
    assert energy_to_eff(0.0) == 0.0


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_energy_round_trip(mev):
    assert energy_to_mev(energy_to_eff(mev)) == pytest.approx(mev, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_length_round_trip(nm):
    assert length_to_eff(nm) * BOHR_EFF == pytest.approx(nm, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_time_round_trip(fs):
    assert eff_to_ps(time_to_eff(fs)) * 1e3 == pytest.approx(fs, rel=1e-12)


@given(st.floats(min_value=1e-6, max_value=1e4))
def test_ps_round_trip(ps):
    assert eff_to_ps(ps_to_eff(ps)) == pytest.approx(ps, rel=1e-12)


def test_ps_consistent_with_fs():
    assert ps_to_eff(1.0) == pytest.approx(time_to_eff(1000.0), rel=1e-12)


def test_nondefault_material():
    # Ha* = (m*/eps^2) Ha and a_B* = (eps/m*) a_0 from the CODATA values
    assert HARTREE_EFF == pytest.approx(MASS_EFF / EPS_REL**2 * 27211.386245988, rel=1e-14)
    assert BOHR_EFF == pytest.approx(EPS_REL / MASS_EFF * 0.0529177210903, rel=1e-14)


def test_bath_modes_convert_through_the_constants():
    spec = BathSpec(lam=0.007, windows=((0.113, 4.521, 20), (11.303, 27.128, 50)))
    modes, _ = sample_bath(spec)
    want = [energy_to_eff(float(w)) for low, high, n in spec.windows
            for w in np.linspace(low, high, n)]
    assert [m.omega for m in modes] == want


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-6, max_value=1e2),
)
def test_coupling_homogeneous(scale, lam, omega):
    g = effective_coupling(lam, omega)
    assert effective_coupling(scale * lam, omega) == pytest.approx(
        scale * g, rel=1e-12, abs=1e-300
    )


def test_coupling_formula():
    assert effective_coupling(0.0, 1.0) == 0.0
    assert effective_coupling(0.014, 2.0) == pytest.approx(0.014 / 2.0, rel=1e-14)
    with pytest.raises(ValueError):
        effective_coupling(0.014, 0.0)
    with pytest.raises(ValueError):
        effective_coupling(0.014, -1.0)


def test_coupling_matches_weak_and_strong_tabulated_g1():
    omega1 = energy_to_eff(PUMP_MEV)
    for lam, g_ref in zip(TABLE_LAMBDA[:2], TABLE_G1[:2]):
        assert effective_coupling(lam, omega1) == pytest.approx(g_ref, abs=1e-4)


@pytest.mark.xfail(
    strict=True,
    reason="the published ultra-strong g1 (0.01232) is off by 1.3e-4 from its "
    "own lambda and pump frequency; the tabulated couplings were evidently "
    "computed from slightly different frequencies",
)
def test_coupling_matches_all_tabulated_g1():
    omega1 = energy_to_eff(PUMP_MEV)
    for lam, g_ref in zip(TABLE_LAMBDA, TABLE_G1):
        assert effective_coupling(lam, omega1) == pytest.approx(g_ref, abs=1e-4)


def test_coupling_ultra_strong_regression():
    # pin the achieved agreement so drift is caught even though the strict
    # 1e-4 check above stays red
    omega1 = energy_to_eff(PUMP_MEV)
    assert effective_coupling(0.026, omega1) == pytest.approx(0.01232, abs=1.5e-4)


@given(st.floats(min_value=1e-3, max_value=1e3))
def test_coupling_dimensional_scaling(omega):
    # g ~ omega^{-1/2}: quadrupling the frequency halves the coupling
    g = effective_coupling(0.02, omega)
    assert effective_coupling(0.02, 4.0 * omega) == pytest.approx(0.5 * g, rel=1e-12)
