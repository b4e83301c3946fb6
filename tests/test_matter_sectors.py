"""Parity-sector ring eigensolve against a full-grid oracle, and the cache's
truncation check."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from ringpdc import matter
from ringpdc.matter import (
    GridSpec,
    build_ring_hamiltonian,
    save_eigenbasis,
    solve_eigenstates,
    solve_ring,
    transition_matrices,
)

from conftest import make_ring_potential

SMALL_POINTS = 41
SMALL_STEP_NM = 2.2


@pytest.fixture(scope="module")
def small_grid(units):
    step = SMALL_STEP_NM / units.bohr_eff
    return GridSpec(nx=SMALL_POINTS, ny=SMALL_POINTS, dx=step, dy=step)


def full_grid_eigenpairs(h, n_states, grid):
    """One shift-invert Lanczos solve on the whole grid, no symmetry used."""
    start = np.random.default_rng(0).standard_normal(h.shape[0])
    vals, vecs = eigsh(h.tocsc(), k=n_states, sigma=0.0, which="LM", v0=start)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


@pytest.mark.parametrize("v0_mev", [0.0, 150.0, 300.0])
def test_sectors_match_full_grid_solve(small_grid, units, v0_mev, monkeypatch):
    h = build_ring_hamiltonian(small_grid, make_ring_potential(units, v0_mev))
    # sectors of 21 x 21 points stay above the dense cutoff: the Lanczos path runs
    assert (SMALL_POINTS // 2) ** 2 > matter._DENSE_SECTOR_DIM
    got = solve_eigenstates(h, 10, small_grid)
    with monkeypatch.context() as m:
        m.setattr(matter, "_sector_eigenpairs", full_grid_eigenpairs)
        want = solve_eigenstates(h, 10, small_grid)
    assert got.l_labels.tolist() == want.l_labels.tolist()
    assert got.j_labels.tolist() == want.j_labels.tolist()
    assert np.abs(got.energies - want.energies).max() <= 1e-10
    unit = np.sqrt(small_grid.weight)
    assert np.abs(got.states - want.states).max() * unit <= 1e-10
    assert np.abs(got.h_el - want.h_el).max() <= 1e-10
    tm_got, tm_want = transition_matrices(got), transition_matrices(want)
    for name in ("x_dip", "y_dip", "px", "py"):
        assert np.abs(getattr(tm_got, name) - getattr(tm_want, name)).max() <= 1e-10, name


def test_reruns_are_bit_identical(small_grid, units):
    h = build_ring_hamiltonian(small_grid, make_ring_potential(units, 150.0))
    first = solve_eigenstates(h, 10, small_grid)
    second = solve_eigenstates(h, 10, small_grid)
    assert np.array_equal(first.energies, second.energies)
    assert np.array_equal(first.states, second.states)
    assert np.array_equal(first.h_el, second.h_el)


@pytest.mark.parametrize("n_states", [24, 81])
def test_sectors_smaller_than_the_request(units, n_states):
    # 9 points: sectors of 25, 20, 20 and 16 points, the odd ones below n_states
    step = 10.0 / units.bohr_eff
    grid = GridSpec(nx=9, ny=9, dx=step, dy=step)
    h = build_ring_hamiltonian(grid, make_ring_potential(units, 200.0))
    vals, vecs = matter._sector_eigenpairs(h, n_states, grid)
    exact = np.linalg.eigvalsh(h.toarray())
    assert vals.shape == (n_states,) and vecs.shape == (grid.size, n_states)
    assert np.abs(vals - exact[:n_states]).max() <= 1e-10
    assert np.abs(vecs.T @ vecs - np.eye(n_states)).max() <= 1e-12
    assert np.abs(h @ vecs - vecs * vals).max() <= 1e-10


@pytest.mark.parametrize("axis", [0, 1])
def test_asymmetric_potential_is_rejected(small_grid, units, axis):
    h = build_ring_hamiltonian(small_grid, make_ring_potential(units, 150.0))
    xx, yy = np.meshgrid(small_grid.x, small_grid.y, indexing="ij")
    tilt = (xx, yy)[axis].ravel()
    with pytest.raises(ValueError, match="reflection"):
        solve_eigenstates(h + sp.diags(1e-3 * tilt), 10, small_grid)


def test_cache_hit_rejects_a_cut_level(ring200, paper_grid, units, tmp_path):
    # l = [0, -1, 1, -2, 2, ...]: four states split the l = +-2 pair
    pot = make_ring_potential(units, 200.0)
    path = tmp_path / "cache.npz"
    save_eigenbasis(path, ring200, pot)
    with pytest.raises(RuntimeError, match="truncat"):
        solve_ring(paper_grid, pot, 4, cache_path=path)
    with pytest.raises(RuntimeError, match="truncat"):
        solve_ring(paper_grid, pot, 4)
    sub = solve_ring(paper_grid, pot, 5, cache_path=path)
    assert sub.l_labels.tolist() == [0, -1, 1, -2, 2]
