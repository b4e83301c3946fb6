"""Shared fixtures: the reference grid and solved ring bases, and the
full-grid ring Hamiltonian that the parity-sector solver is checked against.

Eigen-solves are session-scoped because several test modules (and the
acceptance suite) reuse the same 127x127 diagonalizations.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from ringpdc.units import BOHR_EFF, energy_to_eff
from ringpdc.matter import GridSpec, RingPotentialParams, _deriv_matrix, solve_ring

GRID_STEP_NM = 0.7052
GRID_POINTS = 127


@pytest.fixture(scope="session")
def paper_grid():
    step = GRID_STEP_NM / BOHR_EFF
    return GridSpec(points=GRID_POINTS, step=step)


def make_ring_potential(v0_mev: float) -> RingPotentialParams:
    return RingPotentialParams(
        omega0=energy_to_eff(10.0),
        d=10.0 / BOHR_EFF,
        v0=energy_to_eff(v0_mev),
    )


def full_grid_hamiltonian(grid: GridSpec, pot: RingPotentialParams) -> sp.csr_matrix:
    """H_el = -1/2 (d^2/dx^2 + d^2/dy^2) + V(x, y) on the whole flattened
    (row-major (ix, iy)) grid, no symmetry used: the oracle of the solver."""
    d2 = _deriv_matrix(grid.points, grid.step, kind=2)
    eye = sp.identity(grid.points, format="csr")
    x, y = grid.xy
    r2 = x**2 + y**2
    v = 0.5 * pot.omega0**2 * r2 + pot.v0 * np.exp(-r2 / pot.d**2)
    return (-0.5 * (sp.kron(d2, eye) + sp.kron(eye, d2)) + sp.diags(v)).tocsr()


def solve_ring_levels(grid: GridSpec, v0_mev: float, n_states: int):
    return solve_ring(grid, make_ring_potential(v0_mev), n_states)


@pytest.fixture(scope="session")
def ring200(paper_grid):
    """The anharmonic ring at V0 = 200 meV, 12 levels; the workhorse basis."""
    return solve_ring_levels(paper_grid, 200.0, 12)


@pytest.fixture(scope="session")
def ring0(paper_grid):
    """Pure harmonic confinement, first six oscillator shells (21 states)."""
    return solve_ring_levels(paper_grid, 0.0, 21)
