"""Fock operators, coherent states, and the restricted bath sector."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringpdc.units import default_units, energy_to_mev
from ringpdc.photon import (
    FockMode,
    BathSpec,
    ladder_ops,
    number_op,
    quadratures,
    coherent_state,
    enumerate_bath_basis,
    bath_ladder,
    sample_bath,
)

U = default_units()


def mode(omega=1.0, n_max=10, **kw):
    return FockMode(omega=omega, n_max=n_max, **kw)


def test_mode_validation():
    with pytest.raises(ValueError):
        FockMode(omega=0.0, n_max=5)
    with pytest.raises(ValueError):
        FockMode(omega=1.0, n_max=0)
    with pytest.raises(ValueError):
        FockMode(omega=1.0, n_max=5, polarization=(1.0, 1.0))
    FockMode(omega=1.0, n_max=5, polarization=(0.6, 0.8))


def test_ladder_action():
    a, adag = ladder_ops(mode(n_max=4))
    e1 = np.zeros(5)
    e1[1] = 1.0
    out = a @ e1
    assert out[0] == pytest.approx(1.0) and np.allclose(out[1:], 0.0)
    assert np.allclose((adag @ out)[1], 1.0)


def test_number_diagonal():
    m = mode(n_max=6)
    a, adag = ladder_ops(m)
    n = (adag @ a).toarray()
    assert np.allclose(np.diag(n), np.arange(7))
    assert np.allclose(n - np.diag(np.diag(n)), 0.0)
    assert np.allclose(number_op(m).toarray(), n)


@given(st.floats(min_value=0.05, max_value=50.0), st.integers(min_value=2, max_value=12))
@settings(max_examples=40)
def test_commutator_below_truncation(omega, n_max):
    m = mode(omega=omega, n_max=n_max)
    q, p = quadratures(m)
    comm = (q @ p - p @ q).toarray()
    # canonical on every level except the truncation edge
    for n in range(n_max):
        assert comm[n, n] == pytest.approx(1j, abs=1e-12)
    assert comm[n_max, n_max] == pytest.approx(-1j * n_max, abs=1e-9)


def test_quadratures_hermitian():
    q, p = quadratures(mode(omega=0.7, n_max=8))
    assert np.abs((q - q.conj().T).toarray()).max() < 1e-12
    assert np.abs((p - p.conj().T).toarray()).max() < 1e-12


def test_vacuum_variance_and_zero_point():
    w = 2.5
    q, p = quadratures(mode(omega=w, n_max=8))
    q2 = (q @ q).toarray()
    assert q2[0, 0] == pytest.approx(1.0 / (2.0 * w), rel=1e-12)
    h = 0.5 * (p @ p + w**2 * (q @ q)).toarray()
    assert h[0, 0] == pytest.approx(w / 2.0, rel=1e-12)
    # matches w(n + 1/2) away from the truncation edge
    for n in range(8):
        assert h[n, n] == pytest.approx(w * (n + 0.5), rel=1e-12)


def test_coherent_examples():
    vec = coherent_state(2.0, 30)
    n = np.arange(31)
    pn = np.abs(vec) ** 2
    mean = float(n @ pn)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
    assert mean == pytest.approx(4.0, abs=1e-4)
    var = float((n**2) @ pn) - mean**2
    assert (var - mean) / mean == pytest.approx(0.0, abs=1e-4)  # Mandel Q

    zero = coherent_state(0.0, 10)
    assert zero[0] == 1.0 and np.allclose(zero[1:], 0.0)


def test_coherent_phase_convention():
    vec = coherent_state(1.5j, 25)
    assert np.angle(vec[1]) == pytest.approx(np.pi / 2, abs=1e-12)
    assert np.angle(vec[2]) == pytest.approx(np.pi, abs=1e-12)


def test_coherent_truncation_guard():
    with pytest.raises(ValueError, match="tail"):
        coherent_state(4.0, 20)
    coherent_state(4.0, 40)  # heavy amplitude fine with enough levels


@given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=2 * np.pi))
@settings(max_examples=40)
def test_coherent_mean_matches_amplitude(r, phi):
    xi = r * np.exp(1j * phi)
    vec = coherent_state(xi, 40)
    mean = float(np.arange(41) @ np.abs(vec) ** 2)
    assert mean == pytest.approx(r**2, abs=1e-5)


def test_basis_sizes():
    assert enumerate_bath_basis(70, 2).size == 1 + 70 + 2485
    assert enumerate_bath_basis(2, 2).size == 6
    assert enumerate_bath_basis(5, 1).size == 6
    assert enumerate_bath_basis(5, 0).size == 1


@given(st.integers(min_value=1, max_value=25))
def test_basis_bijection(m):
    basis = enumerate_bath_basis(m, 2)
    assert basis.size == 1 + m + (m * m + m) // 2
    seen = set()
    for k in range(basis.size):
        config = basis.config_at(k)
        assert basis.index_of(config) == k
        seen.add(config)
    assert len(seen) == basis.size


def test_basis_rejects_foreign_config():
    basis = enumerate_bath_basis(3, 2)
    with pytest.raises(KeyError):
        basis.index_of((0, 1, 2))
    # order of the pair must not matter
    assert basis.index_of((2, 1)) == basis.index_of((1, 2))


def test_bath_ladder_action():
    basis = enumerate_bath_basis(3, 2)
    b0 = bath_ladder(basis, 0)
    vac, one0 = basis.index_of(()), basis.index_of((0,))
    dbl0, pair01 = basis.index_of((0, 0)), basis.index_of((0, 1))
    assert b0[vac, one0] == pytest.approx(1.0)
    assert b0[one0, dbl0] == pytest.approx(np.sqrt(2.0))
    assert b0[basis.index_of((1,)), pair01] == pytest.approx(1.0)
    assert b0[:, vac].count_nonzero() == 0
    with pytest.raises(ValueError):
        bath_ladder(basis, 3)


def test_bath_number_via_normal_order():
    basis = enumerate_bath_basis(4, 2)
    b1 = bath_ladder(basis, 1)
    n1 = (b1.T @ b1).toarray()
    assert n1[basis.index_of((1,)), basis.index_of((1,))] == pytest.approx(1.0)
    assert n1[basis.index_of((1, 1)), basis.index_of((1, 1))] == pytest.approx(2.0)
    assert n1[basis.index_of((1, 3)), basis.index_of((1, 3))] == pytest.approx(1.0)
    assert n1[basis.index_of((0,)), basis.index_of((0,))] == pytest.approx(0.0)


def test_sample_bath_windows():
    spec = BathSpec(lam=0.007, windows=((0.113, 4.521, 20), (11.303, 27.128, 50)))
    modes, basis = sample_bath(spec)
    assert spec.count == len(modes) == 70
    assert basis.size == 2556
    mevs = [energy_to_mev(m.omega, U) for m in modes]
    assert mevs[0] == pytest.approx(0.113, rel=1e-12)
    assert mevs[19] == pytest.approx(4.521, rel=1e-12)
    assert mevs[20] == pytest.approx(11.303, rel=1e-12)
    assert mevs[-1] == pytest.approx(27.128, rel=1e-12)
    # equal spacing inside each window
    assert np.allclose(np.diff(mevs[:20]), np.diff(mevs[:20])[0])
    assert np.allclose(np.diff(mevs[20:]), np.diff(mevs[20:])[0])
    assert all(m.polarization == (1.0, 0.0) for m in modes)
    assert all(m.lam == 0.007 for m in modes)
