"""Ring eigenproblem: spectra, angular momentum labels, transition matrices.

The paper writes the ring levels as phi_j^l, of definite angular momentum;
solve_eigenstates returns real standing waves instead.  Here ring200 and ring0
are the phi_j^l view of the solved bases (classify_angular_momentum), so these
tests check the paper's representation.
"""
from __future__ import annotations

import numpy as np
import pytest

from ringpdc.units import energy_to_eff, energy_to_mev
from ringpdc.matter import (
    GridSpec,
    RingPotentialParams,
    MatterEigenbasis,
    build_ring_hamiltonian,
    solve_eigenstates,
    classify_angular_momentum,
    transition_matrices,
)

from conftest import make_ring_potential, solve_ring_levels

# Published V0 sweep of the pump gap E(phi_2) - E(phi_1) in meV and of the
# dipole element <phi_1|x|phi_2> in effective atomic units.
SWEEP_GAPS_MEV = {50: 3.121, 100: 1.924, 150: 1.580, 200: 1.413, 250: 1.311, 300: 1.239}
SWEEP_DIPOLES = {
    0: 0.53159199,
    50: 0.84520553,
    100: 0.97645376,
    150: 1.04263107,
    200: 1.08705932,
    250: 1.11987106,
    300: 1.14420501,
}


@pytest.fixture(scope="module")
def ring200(ring200):
    return classify_angular_momentum(ring200)


@pytest.fixture(scope="module")
def ring0(ring0):
    return classify_angular_momentum(ring0)


def test_grid_validation():
    GridSpec(points=11, step=0.1)
    with pytest.raises(ValueError):
        GridSpec(points=11, step=0.0)
    with pytest.raises(ValueError):
        GridSpec(points=12, step=0.1)
    with pytest.raises(ValueError):
        # too small for the order-8 stencil reach
        GridSpec(points=7, step=0.1)


def test_potential_validation():
    RingPotentialParams(omega0=1.0, d=1.0, v0=0.0)
    with pytest.raises(ValueError):
        RingPotentialParams(omega0=0.0, d=1.0, v0=1.0)
    with pytest.raises(ValueError):
        RingPotentialParams(omega0=1.0, d=-1.0, v0=1.0)
    with pytest.raises(ValueError):
        RingPotentialParams(omega0=1.0, d=1.0, v0=-1.0)


def test_n_states_range(paper_grid):
    h = build_ring_hamiltonian(paper_grid, make_ring_potential(0.0))
    with pytest.raises(ValueError):
        solve_eigenstates(h, 0, paper_grid)
    with pytest.raises(ValueError):
        solve_eigenstates(h, paper_grid.size + 1, paper_grid)


def test_truncated_degenerate_level_is_rejected(paper_grid):
    # two states cut the first +-1 pair in half; the classifier must notice
    h = build_ring_hamiltonian(paper_grid, make_ring_potential(0.0))
    with pytest.raises(RuntimeError, match="truncat"):
        solve_eigenstates(h, 2, paper_grid)


def test_harmonic_ladder(ring0):
    # isotropic 2D oscillator: E_N = (N+1) hbar omega0, degeneracy N+1
    expected = [10.0 * (n + 1) for n in range(6) for _ in range(n + 1)]
    got = [energy_to_mev(e) for e in ring0.energies]
    assert np.allclose(got, expected, rtol=2e-3)


def test_harmonic_shell_content(ring0):
    shells = {
        1: {0},
        2: {-1, 1},
        3: {-2, 0, 2},
        4: {-3, -1, 1, 3},
        5: {-4, -2, 0, 2, 4},
        6: {-5, -3, -1, 1, 3, 5},
    }
    for j, want in shells.items():
        got = set(ring0.l_labels[ring0.j_labels == j].tolist())
        assert got == want, f"shell {j}: {got} != {want}"


def test_harmonic_six_states(paper_grid):
    basis = solve_ring_levels(paper_grid, 0.0, 6)
    got = [energy_to_mev(e) for e in basis.energies]
    assert np.allclose(got, [10.0, 20.0, 20.0, 30.0, 30.0, 30.0], rtol=2e-3)


def test_orthonormality(ring200):
    overlap = ring200.states.conj() @ ring200.states.T * ring200.grid.weight
    assert np.abs(overlap - np.eye(ring200.n_states)).max() < 1e-8


def test_energies_ascending(ring200, ring0):
    assert np.all(np.diff(ring200.energies) >= -1e-12)
    assert np.all(np.diff(ring0.energies) >= -1e-12)


def test_degenerate_pairs(ring200):
    # every |l| > 0 level appears exactly twice, split below 1e-6 Ha*
    for j in np.unique(ring200.j_labels):
        ls = ring200.l_labels[ring200.j_labels == j]
        es = ring200.energies[ring200.j_labels == j]
        if np.any(ls != 0):
            assert len(ls) == 2 and ls[0] == -ls[1]
            assert abs(es[1] - es[0]) < 1e-6


def test_ring200_labels(ring200):
    assert ring200.l_labels.tolist() == [0, -1, 1, -2, 2, -3, 3, -4, 4, 0, -1, 1]
    assert ring200.j_labels.tolist() == [1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 7]


def test_ring200_level_gaps(ring200):
    e = [energy_to_mev(x) for x in ring200.energies]
    assert e[1] - e[0] == pytest.approx(1.413, rel=1e-2)  # pump gap phi1 -> phi2
    assert e[11] == pytest.approx(58.54, rel=1e-2)  # top retained state
    assert e[10] - e[9] == pytest.approx(1.36, rel=1e-2)  # phi6 -> phi7
    assert e[9] - e[0] == pytest.approx(23.29, rel=1e-2)  # phi1 -> phi6


def test_classification_examples(ring200):
    assert ring200.l_labels[0] == 0
    assert set(ring200.l_labels[1:3].tolist()) == {-1, 1}
    sixth = ring200.l_labels[ring200.j_labels == 6]
    assert sixth.tolist() == [0]


def test_classify_is_idempotent(ring200):
    again = classify_angular_momentum(ring200)
    assert again.l_labels.tolist() == ring200.l_labels.tolist()
    assert again.j_labels.tolist() == ring200.j_labels.tolist()


def test_h_el_matrix(ring200):
    h = ring200.h_matrix()
    assert np.abs(h - h.conj().T).max() < 1e-12
    assert np.allclose(np.real(np.diag(h)), ring200.energies, atol=1e-12)
    off = h - np.diag(np.diag(h))
    # quasi-degenerate anisotropy coupling is small but nonzero
    assert 0 < np.abs(off).max() < 1e-3


def test_h_matrix_defaults_to_diagonal(ring200):
    bare = MatterEigenbasis(
        energies=ring200.energies,
        states=ring200.states,
        l_labels=ring200.l_labels,
        j_labels=ring200.j_labels,
        grid=ring200.grid,
    )
    assert np.allclose(bare.h_matrix(), np.diag(ring200.energies))


@pytest.fixture(scope="module")
def tm200(ring200):
    return transition_matrices(ring200)


def test_transition_matrices_hermitian(tm200):
    for m in (tm200.x_dip, tm200.y_dip, tm200.px, tm200.py):
        assert np.abs(m - m.conj().T).max() < 1e-12


def test_x_dipoles_real_symmetric(tm200):
    assert np.abs(tm200.x_dip.imag).max() < 1e-10
    assert np.abs(tm200.x_dip - tm200.x_dip.T).max() < 1e-10


@pytest.mark.xfail(
    strict=True,
    reason="definite angular momentum forces y dipoles imaginary-Hermitian; "
    "a symmetric (real) y matrix exists only in a real-combination basis, "
    "which would destroy the l labels",
)
def test_y_dipoles_symmetric_literal(tm200):
    assert np.abs(tm200.y_dip - tm200.y_dip.T).max() < 1e-10


def test_y_dipoles_imaginary_hermitian(tm200):
    assert np.abs(tm200.y_dip.real).max() < 1e-10
    assert np.abs(tm200.y_dip - tm200.y_dip.conj().T).max() < 1e-12


def test_xy_dipole_magnitudes_match(tm200, ring200):
    # r cos(phi) and r sin(phi) share radial integrals: |<i|y|j>| = |<i|x|j>|
    # on every |delta l| = 1 pair
    dl = np.abs(ring200.l_labels[:, None] - ring200.l_labels[None, :])
    sel = dl == 1
    assert np.allclose(
        np.abs(tm200.y_dip[sel]), np.abs(tm200.x_dip[sel]), rtol=1e-2, atol=1e-6
    )


def test_dipole_examples(tm200, ring200):
    idx = {(j, l): k for k, (j, l) in enumerate(zip(ring200.j_labels, ring200.l_labels))}
    x = tm200.x_dip
    assert abs(x[idx[(1, 0)], idx[(2, 1)]]) == pytest.approx(1.0867, rel=1e-2)
    assert abs(x[idx[(6, 0)], idx[(7, 1)]]) == pytest.approx(1.2786, rel=1e-2)
    assert abs(x[idx[(1, 0)], idx[(7, 1)]]) == pytest.approx(0.2077, rel=1e-2)
    assert abs(x[idx[(1, 0)], idx[(6, 0)]]) < 1e-8


def test_selection_rule_even_dl(tm200, ring200):
    # pairs with even delta-l are exactly protected by the grid's point
    # symmetry (x, y are odd under it)
    dl = np.abs(ring200.l_labels[:, None] - ring200.l_labels[None, :])
    sel = (dl % 2 == 0)
    assert np.abs(tm200.x_dip[sel]).max() < 1e-8
    assert np.abs(tm200.y_dip[sel]).max() < 1e-8


@pytest.mark.xfail(
    strict=True,
    reason="the square hard-wall box weakly mixes angular momenta of the "
    "highest retained states: delta-l = 3, 5 dipoles reach ~2e-2 on the "
    "reference geometry and do not vanish with grid refinement",
)
def test_selection_rule_all_pairs_literal(tm200, ring200):
    dl = np.abs(ring200.l_labels[:, None] - ring200.l_labels[None, :])
    sel = dl != 1
    assert np.abs(tm200.x_dip[sel]).max() < 1e-8
    assert np.abs(tm200.y_dip[sel]).max() < 1e-8


def test_selection_rule_odd_dl_bounded(tm200, ring200):
    dl = np.abs(ring200.l_labels[:, None] - ring200.l_labels[None, :])
    sel = (dl % 2 == 1) & (dl != 1)
    assert np.abs(tm200.x_dip[sel]).max() < 5e-2
    assert np.abs(tm200.y_dip[sel]).max() < 5e-2


def test_momentum_consistent_with_dipole(tm200, ring200):
    # p = i m [H, x] (m = 1): <i|px|j> = i (E_i - E_j) <i|x|j>
    e = ring200.energies
    for i in range(ring200.n_states):
        for j in range(ring200.n_states):
            if abs(tm200.x_dip[i, j]) > 1e-3:
                pred = 1j * (e[i] - e[j]) * tm200.x_dip[i, j]
                assert abs(tm200.px[i, j] - pred) <= 0.02 * abs(pred)


def test_dipole_monotone_in_anharmonicity(paper_grid):
    values = []
    for v0 in sorted(SWEEP_DIPOLES):
        basis = classify_angular_momentum(solve_ring_levels(paper_grid, float(v0), 3))
        tm = transition_matrices(basis)
        d = abs(tm.x_dip[0, 2])
        assert d == pytest.approx(SWEEP_DIPOLES[v0], rel=1e-2)
        values.append(d)
    assert np.all(np.diff(values) > 0)


def test_pump_gap_sweep(paper_grid):
    for v0, gap_mev in SWEEP_GAPS_MEV.items():
        basis = solve_ring_levels(paper_grid, float(v0), 3)
        gap = energy_to_mev(basis.energies[2] - basis.energies[0])
        assert gap == pytest.approx(gap_mev, rel=1e-2)


@pytest.mark.slow
def test_grid_convergence(paper_grid, ring200):
    fine = GridSpec(points=2 * paper_grid.points - 1, step=paper_grid.step / 2)
    basis = solve_ring_levels(fine, 200.0, 12)
    rel = np.abs(basis.energies - ring200.energies) / np.abs(basis.energies)
    assert rel.max() < 5e-4

