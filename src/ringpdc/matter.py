"""2D quantum-ring matter subsystem: grid Hamiltonian, eigenstates, transition matrices.

The ring is a single effective electron in a mexican-hat potential

    H_el = -1/2 (d^2/dx^2 + d^2/dy^2) + 1/2 omega0^2 r^2 + V0 exp(-r^2/d^2)

on a uniform square real-space grid (effective atomic units, hbar = m = 1):
GridSpec holds one odd point count and one step shared by both axes, so
the grid is square by type.  Derivatives use centered order-8
finite-difference stencils; the wavefunction is clamped to zero at the box
edge (hard wall), which the confining potential makes harmless for the
low-lying states of interest.

The grid is odd, centred and square, the stencils are symmetric, V(r) is
even and the hard wall is symmetric, so H_el commutes with the reflections
x -> -x and y -> -y and with the mirror x <-> y.  The eigensolve therefore
splits into four (x-parity, y-parity) sectors: each sector block is exactly
P^T H_el P for the orthonormal fold P = kron(P_x, P_y), whose even columns
are the centre point and pairs (e_+k + e_-k)/sqrt(2) and whose odd columns
are pairs (e_+k - e_-k)/sqrt(2).  The mirror maps the (even, odd) sector
onto the (odd, even) one, so three quarter-size solves replace one
full-grid solve and the fourth sector's states are grid transposes.  Each
block is symmetric positive definite (the hard-wall kinetic term is, and
V >= 0) with bandwidth (stencil reach) x (sector width) in row-major order, so
shift-invert Lanczos about 0 runs on its banded Cholesky factor.  A guard
rejects a Hamiltonian without these symmetries.  A solve takes about half
a second on the paper's 127 x 127 grid, so there is no on-disk cache:
solved bases are reused only in memory (scenarios.prepare_matter's store).

The solver's states are real and each lies in one parity sector, so each is
even or odd under both reflections and under the inversion (x, y) -> (-x, -y).
A degenerate (+l, -l) pair comes back as its two real standing waves, cos(l
phi)- and sin(l phi)-like, and the coupled builders use these states as they
stand.  solve_eigenstates labels each state with its level j and |l|, and
refuses a basis whose degenerate clusters do not diagonalize L_z =
-i (x d/dy - y d/dx) to integers.  classify_angular_momentum gives the
paper's phi_j^l view: each cluster rotated into complex L_z eigenstates, so
that the dipole selection rule |delta l| = 1 holds elementwise.

When every photon mode is polarized along one axis, the reflection of the
other axis commutes with the coupled Hamiltonian and acts on the matter
factor alone.  reflection_even then keeps the solved states that are even
under it (each singlet and one standing wave of each +-l pair, 7 of the
lowest 12 states), with their transition matrices; a run that starts in the
even ground state never leaves it.  inversion_parities reads each state's
parity under inversion, (-1)^l, which the coupled inversion sectors need.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, block_diag, cho_solve_banded, cholesky_banded
from scipy.sparse.linalg import LinearOperator, eigsh

# Centered order-8 finite-difference coefficients, offsets 0..4 (symmetric).
# Second derivative: f'' ~ (1/h^2) sum_k _C2[k] (f[i+k] + f[i-k]), _C2[0] counted once.
_C2 = (-205.0 / 72.0, 8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0)
# First derivative: f' ~ (1/h) sum_{k>0} _C1[k] (f[i+k] - f[i-k]).
_C1 = (0.0, 4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)
_REACH = len(_C2) - 1

# States whose energies lie within this many Ha* of a level's lowest state
# belong to that degenerate level: wide enough for the grid's anisotropy
# splitting, below the physical level gaps.
CLUSTER_TOL = 2e-2


@dataclass(frozen=True)
class GridSpec:
    """Uniform square grid of points x points, spacing step on both axes.
    An odd point count keeps the origin on a grid point."""

    points: int
    step: float

    def __post_init__(self):
        if self.points < 2 * _REACH + 1:
            raise ValueError(f"{self.points} grid points are too few for the order-8 stencil")
        if self.step <= 0:
            raise ValueError("grid spacing must be positive")
        if self.points % 2 == 0:
            # an odd count keeps the origin (and the phi = 0 reference axis
            # used for phase fixing) on the grid
            raise ValueError("the grid point count must be odd")

    @cached_property
    def xy(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y of every point of the flattened (row-major (ix, iy)) grid,
        centred on the origin."""
        axis = (np.arange(self.points) - (self.points - 1) / 2.0) * self.step
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return xx.ravel(), yy.ravel()

    @property
    def size(self) -> int:
        return self.points * self.points

    @property
    def weight(self) -> float:
        """Quadrature weight of the grid inner product."""
        return self.step * self.step


@dataclass(frozen=True)
class RingPotentialParams:
    """omega0, d, v0 in effective atomic units (energy, length, energy)."""

    omega0: float
    d: float
    v0: float

    def __post_init__(self):
        if self.omega0 <= 0 or self.d <= 0 or self.v0 < 0:
            raise ValueError("require omega0 > 0, d > 0, v0 >= 0")


@dataclass
class MatterEigenbasis:
    """Lowest eigenstates of the ring, energy-ascending.

    states[k] is the k-th wavefunction flattened row-major over (ix, iy),
    normalized under the grid inner product sum(|psi|^2) * step^2 = 1.
    j_labels hold the 1-based energy-level index and l_labels the angular
    momentum per state: |l| for the real standing waves of solve_eigenstates,
    the signed l of phi_{j}^{l} in the view of classify_angular_momentum.

    h_el is <phi_i|H|phi_j> in the stored basis, or None when that is exactly
    diag(energies), as for the solved states.  The phi_j^l view carries the
    full matrix: its rotation mixes the two standing waves of an |l| = 2, 4
    pair, which the square grid splits at the 1e-4 Ha* level.
    """

    energies: np.ndarray
    states: np.ndarray
    l_labels: np.ndarray
    j_labels: np.ndarray
    grid: GridSpec
    h_el: np.ndarray | None = None

    @property
    def n_states(self) -> int:
        return len(self.energies)

    def h_matrix(self) -> np.ndarray:
        if self.h_el is not None:
            return self.h_el
        return np.diag(self.energies).astype(complex)


def _deriv_matrix(n: int, h: float, kind: int) -> sp.csr_matrix:
    """1D derivative matrix, centered stencil, hard-wall boundary (rows near
    the edge simply lose their outside neighbors)."""
    coeff = _C1 if kind == 1 else _C2
    scale = 1.0 / h if kind == 1 else 1.0 / h**2
    diags, offsets = [], []
    for k, c in enumerate(coeff):
        if k == 0:
            if kind == 2:
                diags.append(np.full(n, c * scale))
                offsets.append(0)
            continue
        upper = c * scale
        lower = -c * scale if kind == 1 else c * scale
        diags.append(np.full(n - k, upper))
        offsets.append(k)
        diags.append(np.full(n - k, lower))
        offsets.append(-k)
    return sp.diags(diags, offsets, shape=(n, n), format="csr")


def _on_both_axes(d: sp.csr_matrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """A 1D operator acting on x and on y of the flattened grid."""
    eye = sp.identity(d.shape[0], format="csr")
    return sp.kron(d, eye, format="csr"), sp.kron(eye, d, format="csr")


def build_ring_hamiltonian(grid: GridSpec, pot: RingPotentialParams) -> sp.csr_matrix:
    """Sparse real-symmetric H_el on the flattened grid."""
    d2x, d2y = _on_both_axes(_deriv_matrix(grid.points, grid.step, kind=2))
    kinetic = -0.5 * (d2x + d2y)
    x, y = grid.xy
    r2 = x**2 + y**2
    v = 0.5 * pot.omega0**2 * r2 + pot.v0 * np.exp(-r2 / pot.d**2)
    return (kinetic + sp.diags(v, format="csr")).tocsr()


def momentum_operators(grid: GridSpec) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Sparse p_x = -i d/dx and p_y = -i d/dy on the flattened grid.

    Returned matrices are the real derivative parts; callers multiply by -1j.
    """
    return _on_both_axes(_deriv_matrix(grid.points, grid.step, kind=1))


def _parity_folds(n: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Orthonormal (even, odd) folds of an odd, centred 1D grid of n points.

    Even columns: the centre point, then (e_+k + e_-k)/sqrt(2); odd columns:
    (e_+k - e_-k)/sqrt(2), k = 1 .. (n - 1)/2 counted from the centre.
    """
    c = (n - 1) // 2
    k = np.arange(1, c + 1)
    s = np.full(c, np.sqrt(0.5))
    even = sp.csr_matrix(
        (np.r_[1.0, s, s], (np.r_[c, c + k, c - k], np.r_[0, k, k])), shape=(n, c + 1)
    )
    odd = sp.csr_matrix((np.r_[s, -s], (np.r_[c + k, c - k], np.r_[k - 1, k - 1])), shape=(n, c))
    return even, odd


def _reflection_index(grid: GridSpec, axis: str) -> np.ndarray:
    """Flattened-grid index map of the reflection axis -> -axis: (R psi) = psi[flip]."""
    idx = np.arange(grid.size).reshape(grid.points, grid.points)
    if axis == "x":
        return idx[::-1, :].ravel()
    if axis == "y":
        return idx[:, ::-1].ravel()
    raise ValueError(f"reflection axis must be 'x' or 'y', got {axis!r}")


def _check_reflection_symmetry(h: sp.csr_matrix, grid: GridSpec) -> None:
    """Raise unless h commutes with the grid reflections x -> -x, y -> -y and
    the mirror x <-> y."""
    scale = abs(h).max()
    maps = {f"{a} -> -{a}": _reflection_index(grid, a) for a in ("x", "y")}
    maps["x <-> y"] = np.arange(grid.size).reshape(grid.points, grid.points).T.ravel()
    for name, perm in maps.items():
        if abs(h[perm][:, perm] - h).max() > 1e-12 * scale:
            raise ValueError(
                f"H does not commute with the grid reflection {name}; the parity-sector "
                "eigensolve needs a potential even in x and y and symmetric under x <-> y"
            )


# Sectors up to this dimension, or with no room for ARPACK's k < dim - 1,
# are diagonalized densely.
_DENSE_SECTOR_DIM = 256


def _lowest_spd_eigenpairs(block: sp.csr_matrix, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n_states eigenpairs of a sparse symmetric positive definite block:
    shift-invert Lanczos about 0, each inverse one banded Cholesky solve."""
    dim = block.shape[0]
    # LAPACK lower band storage: band[i - j, j] = block[i, j]
    low = sp.tril(block, format="coo")
    band = np.zeros((int((low.row - low.col).max()) + 1, dim))
    band[low.row - low.col, low.col] = low.data
    try:
        # the one finiteness check of the block; the per-iteration solves skip it
        factor = cholesky_banded(band, lower=True)
    except LinAlgError as exc:
        raise ValueError(
            "a parity-sector block of H is not positive definite; the shift-invert "
            "solve about 0 needs H > 0 (a hard-wall kinetic term and V >= 0)"
        ) from exc
    inverse = LinearOperator(
        (dim, dim),
        matvec=lambda b: cho_solve_banded((factor, True), b, check_finite=False),
        dtype=float,
    )
    # fixed ARPACK start so repeated solves return bit-identical states
    start = np.random.default_rng(0).standard_normal(dim)
    return eigsh(block, k=n_states, sigma=0.0, which="LM", v0=start, OPinv=inverse)


def _sector_eigenpairs(
    h: sp.csr_matrix, n_states: int, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest n_states eigenpairs of h (unit-norm columns on the full grid),
    solved per (x-parity, y-parity) sector and merged by energy.  Three
    sectors are solved: the mirror x <-> y maps (even, odd) onto (odd, even)."""
    _check_reflection_symmetry(h, grid)
    even, odd = _parity_folds(grid.points)
    vals, vecs = [], []
    for px, py in ((even, even), (even, odd), (odd, odd)):
        fold = sp.kron(px, py, format="csr")
        block = fold.T @ h @ fold
        block = 0.5 * (block + block.T)
        if block.shape[0] <= max(n_states + 1, _DENSE_SECTOR_DIM):
            w, v = np.linalg.eigh(block.toarray())
            w, v = w[:n_states], v[:, :n_states]
        else:
            w, v = _lowest_spd_eigenpairs(block, n_states)
        if not (np.isfinite(w).all() and np.isfinite(v).all()):
            raise ValueError("a parity-sector solve returned non-finite eigenpairs")
        vals.append(w)
        vecs.append(fold @ v)
    # (odd, even) is the grid transpose of (even, odd), with the same energies
    n, k = grid.points, vecs[1].shape[1]
    vals.append(vals[1])
    vecs.append(vecs[1].reshape(n, n, k).transpose(1, 0, 2).reshape(n * n, k))
    vals = np.concatenate(vals)
    order = np.argsort(vals, kind="stable")[:n_states]
    return vals[order], np.hstack(vecs)[:, order]


def solve_eigenstates(h: sp.csr_matrix, n_states: int, grid: GridSpec) -> MatterEigenbasis:
    """Lowest n_states eigenpairs, grid-normalized.

    h must commute with the grid reflections x -> -x and y -> -y and the
    mirror x <-> y (ValueError otherwise).  The (even, even), (even, odd)
    and (odd, odd) parity-sector blocks P^T h P are solved on their own by
    shift-invert Lanczos about 0 on a banded Cholesky factor (dense eigh
    when the sector is tiny), so h must be positive definite (ValueError
    otherwise); the (odd, even) states are the grid transposes of the
    (even, odd) ones.  The sector spectra are merged by energy.

    The states are the solver's real eigenvectors, unrotated (h_el None).
    j_labels number the degenerate clusters (CLUSTER_TOL); l_labels hold
    |l| = sqrt(<L_z^2>) rounded, which a harmonic shell (V0 = 0) only
    approximates, its exactly degenerate states mixing |l|.  Each cluster
    must diagonalize L_z to integers (RuntimeError otherwise, _lz_rotations).
    """
    if n_states < 1 or n_states > h.shape[0]:
        raise ValueError(f"n_states={n_states} out of range for dim {h.shape[0]}")
    vals, vecs = _sector_eigenpairs(h, n_states, grid)
    basis = MatterEigenbasis(
        energies=vals,
        states=(vecs / np.sqrt(grid.weight)).T.copy(),
        l_labels=np.zeros(n_states, dtype=int),
        j_labels=np.zeros(n_states, dtype=int),
        grid=grid,
    )
    lz = _lz_operator(grid)
    for j, (cluster, _, _) in enumerate(_lz_rotations(basis, lz), start=1):
        basis.j_labels[cluster] = j
    l_squared = grid.weight * np.sum(np.abs(lz(basis.states.T)) ** 2, axis=0)
    basis.l_labels[:] = np.rint(np.sqrt(l_squared))
    return basis


def _energy_clusters(energies: np.ndarray, tol: float) -> list[list[int]]:
    clusters = [[0]]
    for k in range(1, len(energies)):
        if energies[k] - energies[clusters[-1][0]] < tol:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    return clusters


def _lz_operator(grid: GridSpec):
    """L_z psi = -i (x d/dy - y d/dx) psi on a block of grid columns (npts, k)."""
    dxm, dym = momentum_operators(grid)
    xr, yr = grid.xy
    return lambda block: -1j * (xr[:, None] * (dym @ block) - yr[:, None] * (dxm @ block))


def _lz_rotations(basis: MatterEigenbasis, lz_apply) -> list[tuple]:
    """(state indices, unitary to L_z eigenstates, integer L_z) per degenerate
    cluster, level by level.  Raises if a rotated state's <L_z> sits farther
    than 0.1 from an integer or its var(L_z) exceeds 0.5, which signals an
    under-resolved grid or a state count that truncates a level mid-cluster.
    """
    grid = basis.grid
    out = []
    for j, cluster in enumerate(_energy_clusters(basis.energies, CLUSTER_TOL), start=1):
        block = basis.states[cluster].T
        lz_block = lz_apply(block)
        m = block.conj().T @ lz_block * grid.weight
        m = 0.5 * (m + m.conj().T)
        _, rot = np.linalg.eigh(m)
        rotated = block @ rot
        # verify the rotation really diagonalized L_z on this cluster
        check = rotated.conj().T @ lz_apply(rotated) * grid.weight
        lz_diag = np.real(np.diag(check))
        if np.max(np.abs(lz_diag - np.round(lz_diag))) > 0.1:
            raise RuntimeError(
                f"angular momentum classification failed in level {j}: "
                f"<L_z> = {lz_diag} not near integers. Either the grid is "
                "under-resolved or the requested state count truncates a "
                "degenerate level; request enough states to complete it."
            )
        # a truncated cluster can still produce integer <L_z> (a lone member
        # of a +-l pair is a real combination with <L_z> = 0), so also require
        # small L_z variance, which such a state cannot have
        lz2 = rotated.conj().T @ lz_apply(lz_apply(rotated)) * grid.weight
        lz_var = np.real(np.diag(lz2)) - lz_diag**2
        if np.max(lz_var) > 0.5:
            raise RuntimeError(
                f"angular momentum classification failed in level {j}: "
                f"var(L_z) = {lz_var} too large for definite-l states. The "
                "requested state count likely truncates a degenerate level; "
                "request enough states to complete it."
            )
        out.append((cluster, rot, np.round(lz_diag).astype(int)))
    return out


def classify_angular_momentum(basis: MatterEigenbasis) -> MatterEigenbasis:
    """The paper's phi_j^l view of a solved basis: each degenerate cluster
    rotated into L_z eigenstates, labelled with its l (j_labels are kept).

    Each state's phase is fixed so its value on the positive x axis is real
    positive (making -l states the complex conjugates of +l states).  h_el
    is the basis's H_el in the rotated states and the energies its diagonal;
    within a cluster the states are ordered by that energy (quantized so
    exact pairs keep their -l, +l order).  Raises as _lz_rotations does.
    """
    grid = basis.grid
    blocks, l_labels = [], []
    for cluster, rot, labels in _lz_rotations(basis, _lz_operator(grid)):
        idx = np.argsort(labels)
        rot = rot[:, idx]
        phases = [_phase_fix(col, grid) for col in (basis.states[cluster].T @ rot).T]
        blocks.append(rot * np.asarray(phases))
        l_labels.append(labels[idx])
    # the clusters run through the energy-ascending states in order
    u = block_diag(*blocks)
    h_el = u.conj().T @ basis.h_matrix() @ u
    h_el = 0.5 * (h_el + h_el.conj().T)
    diag = np.real(np.diag(h_el))
    perm = np.argsort(np.round(diag / 1e-9), kind="stable")
    return MatterEigenbasis(
        energies=diag[perm],
        states=(u.T @ basis.states)[perm],
        l_labels=np.concatenate(l_labels)[perm],
        j_labels=basis.j_labels[perm],
        grid=grid,
        h_el=h_el[np.ix_(perm, perm)],
    )


def _phase_fix(psi: np.ndarray, grid: GridSpec) -> complex:
    """The phase that makes psi real positive at its largest-magnitude point
    on the x >= 0 half of the y = 0 row (phi = 0 axis, where f(r) e^{i l phi}
    is real)."""
    c = (grid.points - 1) // 2
    half = psi.reshape(grid.points, grid.points)[c:, c]
    k = int(np.argmax(np.abs(half)))
    ref = half[k]
    if abs(ref) < 1e-12:
        k = int(np.argmax(np.abs(psi)))
        ref = psi[k]
    return abs(ref) / ref


@dataclass(frozen=True)
class TransitionMatrices:
    """Pairwise dipole and momentum matrix elements in the eigenbasis.

    x_dip[i, j] = <phi_i| x |phi_j>, px[i, j] = <phi_i| -i d/dx |phi_j>;
    all four matrices are Hermitian as operators.
    """

    x_dip: np.ndarray
    y_dip: np.ndarray
    px: np.ndarray
    py: np.ndarray


def transition_matrices(basis: MatterEigenbasis) -> TransitionMatrices:
    grid = basis.grid
    xr, yr = grid.xy
    block = basis.states.T  # (npts, n)
    conj = basis.states.conj()  # (n, npts)
    w = grid.weight
    x_dip = conj @ (xr[:, None] * block) * w
    y_dip = conj @ (yr[:, None] * block) * w
    dxm, dym = momentum_operators(grid)
    px = conj @ (-1j * (dxm @ block)) * w
    py = conj @ (-1j * (dym @ block)) * w

    def herm(a):
        return 0.5 * (a + a.conj().T)

    return TransitionMatrices(herm(x_dip), herm(y_dip), herm(px), herm(py))


def select_states(
    basis: MatterEigenbasis, tm: TransitionMatrices, idx: np.ndarray
) -> tuple[MatterEigenbasis, TransitionMatrices]:
    """The basis and its transition matrices cut to the states idx, in that order."""
    block = np.ix_(idx, idx)
    sub = MatterEigenbasis(
        energies=basis.energies[idx],
        states=basis.states[idx],
        l_labels=basis.l_labels[idx],
        j_labels=basis.j_labels[idx],
        grid=basis.grid,
        h_el=None if basis.h_el is None else basis.h_el[block],
    )
    return sub, TransitionMatrices(tm.x_dip[block], tm.y_dip[block], tm.px[block], tm.py[block])


# A state counts as even or odd under a grid reflection when <phi|R phi>
# lies this close to +1 or -1.
PARITY_TOL = 1e-8


def _parities(basis: MatterEigenbasis, flip) -> np.ndarray | None:
    """<phi_k|R phi_k> per state, R psi = psi[flip], as +1 or -1 (int8); None
    when a state misses both by more than PARITY_TOL."""
    overlap = basis.grid.weight * np.real(
        np.einsum("ij,ij->i", basis.states.conj(), basis.states[:, flip])
    )
    sign = np.where(overlap > 0.0, 1, -1).astype(np.int8)
    return sign if np.abs(overlap - sign).max() <= PARITY_TOL else None


def reflection_even(
    basis: MatterEigenbasis, tm: TransitionMatrices, axis: str
) -> tuple[MatterEigenbasis, TransitionMatrices]:
    """The states of the basis that are even under the reflection axis -> -axis,
    with their transition matrices, in the input order.

    Every state must be even or odd under it, as the solved states are, and
    state 0 must be even, so the ground level keeps its index (ValueError
    otherwise).
    """
    parity = _parities(basis, _reflection_index(basis.grid, axis))
    if parity is None:
        raise ValueError(f"a state of the basis is neither even nor odd under {axis} -> -{axis}")
    if parity[0] < 0:
        raise ValueError(f"the ground state is not even under {axis} -> -{axis}")
    return select_states(basis, tm, np.flatnonzero(parity > 0))


def inversion_parities(basis: MatterEigenbasis) -> np.ndarray | None:
    """Each state's parity under the inversion (x, y) -> (-x, -y), which
    reverses the flattened, centred grid: +1 or -1, or None as _parities."""
    return _parities(basis, slice(None, None, -1))


def solve_ring(grid: GridSpec, pot: RingPotentialParams, n_states: int) -> MatterEigenbasis:
    """Build and diagonalize the ring: its lowest n_states, labelled."""
    return solve_eigenstates(build_ring_hamiltonian(grid, pot), n_states, grid)
