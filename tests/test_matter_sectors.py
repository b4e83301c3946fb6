"""Parity-sector ring eigensolve against a full-grid oracle, its per-sector
state counts, its x <-> y mirror and input guards, the single L_z pass and
the truncation check of solve_ring, the derivative stencil built once per
grid, and the reflection-even sector of a solved basis."""
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


def assert_same_solve(got, want, grid, v0_mev):
    """got and want hold the same lowest 10 levels: labels, energies, spans and
    transition matrices agree within 1e-10."""
    assert got.j_labels.tolist() == want.j_labels.tolist()
    if v0_mev > 0:
        # a harmonic shell mixes |l| within exactly degenerate states, so
        # only the ring's standing waves carry solver-independent |l|
        assert got.l_labels.tolist() == want.l_labels.tolist()
    assert np.abs(got.energies - want.energies).max() <= 1e-10
    assert got.h_el is None and want.h_el is None
    # the full-grid solve picks any basis of a degenerate level: the overlaps
    # are orthogonal (same spans), and they carry every matrix across
    overlap = got.states.conj() @ want.states.T * grid.weight
    assert np.abs(overlap @ overlap.conj().T - np.eye(10)).max() <= 1e-10
    tm_got, tm_want = transition_matrices(got), transition_matrices(want)
    for name in ("x_dip", "y_dip", "px", "py"):
        moved = overlap @ getattr(tm_want, name) @ overlap.conj().T
        assert np.abs(getattr(tm_got, name) - moved).max() <= 1e-10, name


def lanczos_spy(monkeypatch) -> list[int]:
    """The k of every Lanczos call of the matter solver, in call order."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(matter, "eigsh", spy)
    return calls


@pytest.mark.parametrize("v0_mev", [0.0, 150.0, 300.0])
def test_sectors_match_full_grid_solve(small_grid, units, v0_mev, monkeypatch):
    h = build_ring_hamiltonian(small_grid, make_ring_potential(units, v0_mev))
    # sectors of 21 x 21 points stay above the dense cutoff: the Lanczos path runs
    assert (SMALL_POINTS // 2) ** 2 > matter._DENSE_SECTOR_DIM
    got = solve_eigenstates(h, 10, small_grid)
    with monkeypatch.context() as m:
        m.setattr(matter, "_sector_eigenpairs", full_grid_eigenpairs)
        want = solve_eigenstates(h, 10, small_grid)
    assert_same_solve(got, want, small_grid, v0_mev)


@pytest.mark.parametrize("v0_mev", [0.0, 150.0, 300.0])
def test_sector_counts_grow_to_the_full_grid_solve(small_grid, units, v0_mev, monkeypatch):
    # one pair per sector at first: every sector must double its count
    h = build_ring_hamiltonian(small_grid, make_ring_potential(units, v0_mev))
    with monkeypatch.context() as m:
        m.setattr(matter, "_sector_eigenpairs", full_grid_eigenpairs)
        want = solve_eigenstates(h, 10, small_grid)
    monkeypatch.setattr(matter, "_first_sector_count", lambda n_states: 1)
    calls = lanczos_spy(monkeypatch)
    got = solve_eigenstates(h, 10, small_grid)
    assert calls[:3] == [1, 1, 1] and len(calls) > 6
    assert {2, 4} <= set(calls) <= {1, 2, 4, 8, 10}
    assert_same_solve(got, want, small_grid, v0_mev)


def test_reruns_are_bit_identical(small_grid, units):
    h = build_ring_hamiltonian(small_grid, make_ring_potential(units, 150.0))
    first = solve_eigenstates(h, 10, small_grid)
    second = solve_eigenstates(h, 10, small_grid)
    assert np.array_equal(first.energies, second.energies)
    assert np.array_equal(first.states, second.states)


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
    # |l| = [0, 1, 1, 2, 2, ...]: four states split the l = +-2 pair
    pot = make_ring_potential(units, 200.0)
    with pytest.raises(RuntimeError, match="truncat"):
        solve_ring(paper_grid, pot, 4)
    sub = solve_ring(paper_grid, pot, 5)
    assert sub.l_labels.tolist() == [0, 1, 1, 2, 2]
    assert sub.j_labels.tolist() == [1, 2, 2, 3, 3]


@pytest.mark.parametrize(
    "points, step_nm, v0_mev, n_states, match",
    [
        # a box too small for the ring: the ground level is no L_z eigenstate
        (31, 0.7052, 200.0, 3, "level 1"),
        (15, 0.7052, 300.0, 3, "classification failed"),
        # 12 states cut the fifth oscillator shell
        (127, 0.7052, 0.0, 12, "level 5"),
        # 4 states cut the l = +-2 pair
        (127, 0.7052, 200.0, 4, "truncat"),
        # which check refuses which level
        (127, 0.7052, 0.0, 12, "in level 5: <L_z> = "),
        (127, 0.7052, 200.0, 4, "in level 3: var(L_z) = "),
        (31, 0.7052, 200.0, 3, "in level 1: var(L_z) = "),
        (15, 0.7052, 300.0, 10, "in level 2: var(L_z) = "),
        (127, 0.7052, 200.0, 30, "in level 14: <L_z> = "),
    ],
)
def test_solve_ring_refuses_unresolved_levels(units, points, step_nm, v0_mev, n_states, match):
    grid = GridSpec(points=points, step=step_nm / units.bohr_eff)
    with pytest.raises(RuntimeError, match="angular momentum classification failed") as refused:
        solve_ring(grid, make_ring_potential(units, v0_mev), n_states)
    assert match in str(refused.value)


@pytest.mark.parametrize(
    "v0_mev, n_levels", [(50.0 * i, 10) for i in range(7)] + [(200.0, 12)]
)
def test_shipped_rings_solve_each_sector_once(paper_grid, units, v0_mev, n_levels, monkeypatch):
    # every (V0, n_levels) of the presets and sweeps: the first counts suffice
    calls = lanczos_spy(monkeypatch)
    basis = solve_ring(paper_grid, make_ring_potential(units, v0_mev), n_levels)
    assert basis.n_states == n_levels
    assert len(calls) == 3 and all(k < n_levels for k in calls)


def test_lz_is_applied_once_per_solve(small_grid, units, monkeypatch):
    applied = []

    def spy(grid, block):
        applied.append(block.shape)
        return lz_apply(grid, block)

    lz_apply = matter._lz_apply
    monkeypatch.setattr(matter, "_lz_apply", spy)
    basis = solve_ring(small_grid, make_ring_potential(units, 150.0), 10)
    assert applied == [(small_grid.size, 10)]
    applied.clear()
    matter.classify_angular_momentum(basis)
    assert applied == [(small_grid.size, 10)]


def test_one_prepare_matter_builds_the_derivative_stencil_once(monkeypatch):
    # the L_z labels and the transition matrices share the grid's stencil
    from ringpdc import scenarios

    built = []
    deriv_matrix = matter._deriv_matrix

    def spy(n, h, kind):
        built.append(kind)
        return deriv_matrix(n, h, kind)

    monkeypatch.setattr(matter, "_deriv_matrix", spy)
    spec = scenarios.MatterSpec(v0_mev=200.0, n_levels=3, grid_points=31, grid_step_nm=2.8)
    basis, _ = scenarios.prepare_matter(spec, {})
    # one first-derivative stencil (and one second-derivative one, for H_el)
    assert sorted(built) == [1, 2]
    assert basis.grid.stencil is basis.grid.stencil


def test_gradient_is_the_full_grid_derivative(small_grid):
    # kron(D, 1) and kron(1, D) on the flattened grid, to the last bit
    d = matter._deriv_matrix(small_grid.points, small_grid.step, kind=1)
    dxm, dym = matter._on_both_axes(d)
    block = np.random.default_rng(3).normal(size=(small_grid.size, 5))
    for columns in (block, np.asfortranarray(block), block[:, :1]):
        dx, dy = small_grid.gradient(columns)
        assert np.array_equal(dx, dxm @ columns) and np.array_equal(dy, dym @ columns)


def test_tiny_reference_grid_solves(units):
    # the grid of the tiny-grid series references
    grid = GridSpec(points=31, step=2.8 / units.bohr_eff)
    basis = solve_ring(grid, make_ring_potential(units, 200.0), 3)
    assert basis.l_labels.tolist() == [0, 1, 1]
    assert basis.j_labels.tolist() == [1, 2, 2]


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
    # the kept states are eigenstates of the grid Hamiltonian
    h = build_ring_hamiltonian(grid, make_ring_potential(units, 200.0))
    h_grid = kept.states.conj() @ (h @ kept.states.T) * grid.weight
    assert np.abs(h_grid - kept.h_matrix()).max() <= 1e-10
    # the ground state keeps index 0
    unit = np.sqrt(grid.weight)
    assert np.abs(kept.states[0] - ring200.states[0]).max() * unit <= 1e-10
    # the kept span is the even sector of the phi_j^l view: the R-even halves
    # of its 12 states lie in the kept span and have rank 7
    phi = matter.classify_angular_momentum(ring200)
    even = 0.5 * (phi.states + phi.states[:, flip])
    inside = even @ kept.states.conj().T * grid.weight
    assert np.abs(inside @ kept.states - even).max() * unit <= 1e-10
    assert np.linalg.matrix_rank(inside, tol=1e-6) == 7
    # the sliced transition matrices are those of the kept states
    want = transition_matrices(kept)
    for name in ("x_dip", "y_dip", "px", "py"):
        assert np.abs(getattr(tm, name) - getattr(want, name)).max() <= 1e-10, name
    # the momentum along the flipped axis is odd and has no even-even block
    assert np.abs(getattr(tm, odd)).max() <= 1e-12


def test_reflection_even_refuses_states_without_parity(ring200, tm200):
    # the phi_j^l view's +-l states are neither even nor odd under y -> -y
    phi = matter.classify_angular_momentum(ring200)
    with pytest.raises(ValueError, match="neither even nor odd"):
        reflection_even(phi, transition_matrices(phi), "y")
    # a lone standing wave has a parity: ground plus sin(phi) keeps the ground
    kept, _ = reflection_even(*matter.select_states(ring200, tm200, [0, 1]), "y")
    assert kept.n_states == 1
    # the l = +-1 pair alone has parities, but its state 0 is odd
    with pytest.raises(ValueError, match="ground state"):
        reflection_even(*matter.select_states(ring200, tm200, [1, 2]), "y")
    with pytest.raises(ValueError, match="axis"):
        reflection_even(ring200, tm200, "z")
