"""Shared fixtures: the reference grid and solved ring bases.

Eigen-solves are session-scoped because several test modules (and the
acceptance suite) reuse the same 127x127 diagonalizations.
"""
from __future__ import annotations

import numpy as np
import pytest

from ringpdc.units import BOHR_EFF, energy_to_eff
from ringpdc.matter import (
    GridSpec,
    RingPotentialParams,
    build_ring_hamiltonian,
    solve_eigenstates,
)

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


def solve_ring_levels(grid: GridSpec, v0_mev: float, n_states: int):
    pot = make_ring_potential(v0_mev)
    h = build_ring_hamiltonian(grid, pot)
    return solve_eigenstates(h, n_states, grid)


@pytest.fixture(scope="session")
def ring200(paper_grid):
    """The anharmonic ring at V0 = 200 meV, 12 levels; the workhorse basis."""
    return solve_ring_levels(paper_grid, 200.0, 12)


@pytest.fixture(scope="session")
def ring0(paper_grid):
    """Pure harmonic confinement, first six oscillator shells (21 states)."""
    return solve_ring_levels(paper_grid, 0.0, 21)
