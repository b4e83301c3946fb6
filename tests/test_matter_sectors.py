"""Parity-sector ring eigensolve against a full-grid oracle, its x <-> y
mirror and input guards, the truncation check of solve_ring, and the
reflection-even sector of a solved basis."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from ringpdc import matter
from ringpdc.matter import (
    GridSpec,
    build_ring_hamiltonian,
    reflection_even,
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
    return GridSpec(points=SMALL_POINTS, step=step)


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
    grid = GridSpec(points=9, step=step)
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
    tilt = small_grid.xy[axis]
    with pytest.raises(ValueError, match="reflection"):
        solve_eigenstates(h + sp.diags(1e-3 * tilt), 10, small_grid)


def sector_of(vec, grid):
    """(x-parity, y-parity) of a full-grid vector, +1 even and -1 odd."""
    parities = []
    for axis in ("x", "y"):
        flipped = vec[matter._reflection_index(grid, axis)]
        sign = 1 if np.abs(flipped - vec).max() <= 1e-10 else -1
        assert np.abs(flipped - sign * vec).max() <= 1e-10
        parities.append(sign)
    return tuple(parities)


def test_mirror_sector_is_the_transposed_solve(small_grid, units):
    h = build_ring_hamiltonian(small_grid, make_ring_potential(units, 150.0))
    # sectors of 21 x 21, 21 x 20 and 20 x 20 points take the banded Cholesky path
    assert 20 * 20 > matter._DENSE_SECTOR_DIM
    vals, vecs = matter._sector_eigenpairs(h, 16, small_grid)
    assert np.abs(vecs.T @ vecs - np.eye(16)).max() <= 1e-12
    assert np.abs(h @ vecs - vecs * vals).max() <= 1e-10
    sectors = [sector_of(v, small_grid) for v in vecs.T]
    even_odd = [i for i, s in enumerate(sectors) if s == (1, -1)]
    odd_even = [i for i, s in enumerate(sectors) if s == (-1, 1)]
    assert len(even_odd) == len(odd_even) >= 2
    assert np.array_equal(vals[even_odd], vals[odd_even])
    n = small_grid.points
    transposed = vecs[:, even_odd].reshape(n, n, -1).transpose(1, 0, 2).reshape(n * n, -1)
    assert np.array_equal(transposed, vecs[:, odd_even])


def test_potential_without_the_mirror_is_rejected(small_grid, units):
    # x^2 - y^2 is even under both reflections but odd under x <-> y
    h = build_ring_hamiltonian(small_grid, make_ring_potential(units, 150.0))
    x, y = small_grid.xy
    with pytest.raises(ValueError, match="reflection"):
        solve_eigenstates(h + sp.diags(1e-3 * (x**2 - y**2)), 10, small_grid)


def test_indefinite_block_is_rejected(small_grid, units):
    h = build_ring_hamiltonian(small_grid, make_ring_potential(units, 150.0))
    with pytest.raises(ValueError, match="positive definite"):
        solve_eigenstates(h - 10.0 * sp.identity(small_grid.size), 10, small_grid)


def test_cache_hit_rejects_a_cut_level(paper_grid, units):
    # l = [0, -1, 1, -2, 2, ...]: four states split the l = +-2 pair
    pot = make_ring_potential(units, 200.0)
    with pytest.raises(RuntimeError, match="truncat"):
        solve_ring(paper_grid, pot, 4)
    sub = solve_ring(paper_grid, pot, 5)
    assert sub.l_labels.tolist() == [0, -1, 1, -2, 2]


@pytest.fixture(scope="module")
def tm200(ring200):
    return transition_matrices(ring200)


@pytest.mark.parametrize("axis, odd", [("x", "px"), ("y", "py")])
def test_reflection_even_sector(ring200, tm200, units, axis, odd):
    kept, tm = reflection_even(ring200, tm200, axis)
    grid = ring200.grid
    # each singlet and one member of each +-l pair: 7 of the lowest 12
    assert kept.n_states == 7
    assert kept.l_labels.tolist() == [0, 1, 2, 3, 4, 0, 1]
    assert kept.j_labels.tolist() == [1, 2, 3, 4, 5, 6, 7]
    # closed under R: every kept state is its own mirror image
    flip = matter._reflection_index(grid, axis)
    s = kept.states.conj() @ kept.states[:, flip].T * grid.weight
    assert np.abs(s - np.eye(7)).max() <= 1e-10
    # energy-diagonal, and h_el is the grid Hamiltonian in the kept states
    assert np.array_equal(kept.h_el, np.diag(np.diag(kept.h_el)))
    h = build_ring_hamiltonian(grid, make_ring_potential(units, 200.0))
    h_grid = kept.states.conj() @ (h @ kept.states.T) * grid.weight
    assert np.abs(h_grid - kept.h_el).max() <= 1e-10
    # the ground state keeps index 0
    unit = np.sqrt(grid.weight)
    assert np.abs(kept.states[0] - ring200.states[0]).max() * unit <= 1e-10
    # the rotated transition matrices are those of the kept states
    want = transition_matrices(kept)
    for name in ("x_dip", "y_dip", "px", "py"):
        assert np.abs(getattr(tm, name) - getattr(want, name)).max() <= 1e-10, name
    # the momentum along the flipped axis is odd and has no even-even block
    assert np.abs(getattr(tm, odd)).max() <= 1e-12


def test_reflection_even_rejects_a_cut_pair(ring200, tm200):
    def subset(idx):
        block = np.ix_(idx, idx)
        basis = matter.MatterEigenbasis(
            energies=ring200.energies[idx],
            states=ring200.states[idx],
            l_labels=ring200.l_labels[idx],
            j_labels=ring200.j_labels[idx],
            grid=ring200.grid,
            h_el=ring200.h_el[block],
        )
        names = ("x_dip", "y_dip", "px", "py")
        tm = matter.TransitionMatrices(*(getattr(tm200, f)[block] for f in names))
        return basis, tm

    # l = 0 and l = -1 without its +1 partner
    with pytest.raises(ValueError, match="not closed"):
        reflection_even(*subset([0, 1]), "y")
    # the l = +-1 pair alone is closed, but its state 0 is not even
    with pytest.raises(ValueError, match="ground state"):
        reflection_even(*subset([1, 2]), "y")
    with pytest.raises(ValueError, match="axis"):
        reflection_even(ring200, tm200, "z")
