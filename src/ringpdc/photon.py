"""Fock-space machinery: ladder and quadrature operators, coherent states,
and the sampled photon bath with its restricted few-photon sector.

Each quantized mode alpha enters the coupling through the displacement
coordinate q_alpha = sqrt(1/2 omega_alpha) (a + a^dag) (effective atomic
units, hbar = 1).  Bath modes are kept collectively: instead of a tensor
product over 70 three-level modes, the bath Hilbert space is restricted to
the span of the vacuum, all one-photon and all two-photon configurations,
which is what makes the dissipative runs tractable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.stats import poisson

from .units import default_units, energy_to_eff

COHERENT_TAIL_TOL = 1e-6


@dataclass(frozen=True)
class FockMode:
    """One quantized mode: frequency, truncation, coupling, polarization."""

    omega: float
    n_max: int
    lam: float = 0.0
    polarization: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        # written so that NaN fails too
        if not self.omega > 0:
            raise ValueError(f"mode frequency must be positive, got {self.omega}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        ex, ey = self.polarization
        norm = math.hypot(ex, ey)
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"polarization must be a unit vector, |e| = {norm}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


def ladder_ops(mode: FockMode) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(annihilate, create) on the truncated Fock space of one mode."""
    root = np.sqrt(np.arange(1, mode.dim))
    a = sp.diags(root, 1, shape=(mode.dim, mode.dim), format="csr")
    return a, a.T.tocsr()


def number_op(mode: FockMode) -> sp.csr_matrix:
    return sp.diags(np.arange(mode.dim, dtype=float), format="csr")


def quadratures(mode: FockMode) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Displacement q = sqrt(1/2w)(a + a^dag) and momentum p = i sqrt(w/2)(a^dag - a)."""
    a, adag = ladder_ops(mode)
    q = math.sqrt(1.0 / (2.0 * mode.omega)) * (a + adag)
    p = 1j * math.sqrt(mode.omega / 2.0) * (adag - a)
    return q.tocsr(), p.tocsr()


def coherent_state(xi: complex, n_max: int) -> np.ndarray:
    """Truncated, renormalized coherent vector |xi>.

    Refuses truncations whose discarded Poisson tail exceeds
    COHERENT_TAIL_TOL, so <a^dag a> = |xi|^2 holds to within the tail mass.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    mean = abs(xi) ** 2
    tail = float(poisson.sf(n_max, mean)) if mean > 0 else 0.0
    if tail > COHERENT_TAIL_TOL:
        raise ValueError(
            f"coherent state |xi|^2 = {mean:g} keeps Poisson tail {tail:.2e} "
            f"beyond n_max = {n_max} (allowed {COHERENT_TAIL_TOL:.0e}); "
            "raise the Fock truncation"
        )
    n = np.arange(n_max + 1)
    if xi == 0:
        vec = np.zeros(n_max + 1, dtype=complex)
        vec[0] = 1.0
        return vec
    # stable amplitudes via log magnitudes; phase enters as arg(xi)^n
    logmag = n * math.log(abs(xi)) - 0.5 * np.cumsum(
        np.concatenate(([0.0], np.log(np.arange(1, n_max + 1))))
    )
    vec = np.exp(logmag - 0.5 * mean) * np.exp(1j * np.angle(complex(xi)) * n)
    return vec / np.linalg.norm(vec)


class BathWindow(NamedTuple):
    """count bath modes spaced evenly over [low_mev, high_mev]."""

    low_mev: float
    high_mev: float
    count: int


@dataclass(frozen=True)
class BathSpec:
    """Sampled photon bath: spectral windows, shared coupling, sector cap.

    The config's bath section parses into this class, and
    scenarios.validate_config is where its ranges are checked.  Every bath
    mode is polarized along x.
    """

    lam: float
    windows: tuple[BathWindow, ...]
    sector: int = 2

    @property
    def count(self) -> int:
        return sum(n for _, _, n in self.windows)


@dataclass(frozen=True)
class BathBasis:
    """Restricted bath sector: vacuum, one-photon and two-photon configurations.

    Configurations are tuples of occupied mode indices, sorted ascending:
    () for the vacuum, (i,) for one photon in mode i, (i, j) with i <= j for
    two photons (i == j is double occupation).  size = 1 + M + (M^2 + M)/2
    at sector 2.
    """

    n_modes: int
    sector: int
    configs: tuple[tuple[int, ...], ...]
    _index: dict[tuple[int, ...], int] = field(repr=False, hash=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.configs)

    def index_of(self, config: tuple[int, ...]) -> int:
        try:
            return self._index[tuple(sorted(config))]
        except KeyError:
            raise KeyError(f"configuration {config} not in the restricted sector")

    def config_at(self, index: int) -> tuple[int, ...]:
        return self.configs[index]


def enumerate_bath_basis(n_modes: int, sector: int = 2) -> BathBasis:
    configs: list[tuple[int, ...]] = [()]
    if sector >= 1:
        configs.extend((i,) for i in range(n_modes))
    if sector >= 2:
        configs.extend((i, j) for i in range(n_modes) for j in range(i, n_modes))
    index = {c: k for k, c in enumerate(configs)}
    return BathBasis(n_modes=n_modes, sector=sector, configs=tuple(configs), _index=index)


def bath_ladder(basis: BathBasis, k: int) -> sp.csr_matrix:
    """Annihilation operator of bath mode k on the restricted basis.

    Restricting a single ladder operator to the sector is exact; products
    must be assembled normal-ordered (annihilators applied first) so that no
    intermediate state leaves the sector.
    """
    if not 0 <= k < basis.n_modes:
        raise ValueError(f"mode index {k} out of range for {basis.n_modes} modes")
    rows, cols, vals = [], [], []
    for idx, config in enumerate(basis.configs):
        if k not in config:
            continue
        occ = config.count(k)
        remaining = list(config)
        remaining.remove(k)
        rows.append(basis.index_of(tuple(remaining)))
        cols.append(idx)
        vals.append(math.sqrt(occ))
    return sp.csr_matrix(
        (vals, (rows, cols)), shape=(basis.size, basis.size), dtype=float
    )


def sample_bath(spec: BathSpec) -> tuple[list[FockMode], BathBasis]:
    """Equally spaced bath modes per spectral window, all polarized along x,
    plus the restricted basis."""
    u = default_units()
    modes = []
    for low, high, n in spec.windows:
        for omega_mev in np.linspace(low, high, n):
            modes.append(
                FockMode(
                    omega=energy_to_eff(float(omega_mev), u),
                    n_max=max(spec.sector, 1),
                    lam=spec.lam,
                    polarization=(1.0, 0.0),
                )
            )
    return modes, enumerate_bath_basis(len(modes), spec.sector)
