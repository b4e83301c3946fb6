"""Coupled light-matter Hamiltonians on the eigenbasis x Fock tensor product.

Every variant (full three-mode system, degenerate two-mode system, few-level
truncations, system + sampled bath, and both pump schemes) is assembled from
one primitive: a set of modes with polarization unit vectors e_alpha and
couplings lambda_alpha entering

    H = H_el + sum_a w_a (n_a + 1/2)
        - (e/m) (sum_a lam_a q_a e_a) . p
        + (e^2/2m) (sum_a lam_a q_a e_a)^2

in effective atomic units (e = m = hbar = 1).  Each e_a is read from
FockMode.polarization, the one geometry source, so bilinear and diamagnetic
terms always carry consistent pairwise geometry factors e_a . e_b; published
variants that spell the cross terms with inconsistent signs are reproduced up
to those misprints.

H is a short sum of matter (x) photon factor pairs, the photon factor acting
on the modes and the bath sector together:

    (1,      sum_a w_a (n_a + 1/2) + diamagnetic q_a q_b terms)
    (H_el,   1)
    (e_a.p,  -lam_a q_a)              one per coupled mode
    (1,      bath energy + bath diamagnetic + q_a (x) A_B cross terms)
    (e_B.p,  -A_B)                    the collective bath coupling

Each photon factor is summed in photon space from embed products, and embed
checks every mode and bath factor it lifts for Hermiticity.  Matter factors
enter only through _kron_sum, which checks each of them, sizes every row from
the photon factors, then builds each block sum_k M_k[i, j] P_k once into one
canonical float64 CSR.  Entries (i, j) and (j, i) add the same terms in the
same order, so H is symmetric to the last bit by construction; the builders
return the csr_matrix itself.

The matter factor is the truncated ring eigenbasis (energies plus momentum
matrices), or its reflection-even states when every mode shares one
polarization axis (matter.reflection_even), never the raw grid.  Bath modes
live in a restricted few-photon sector; their operators are assembled
normal-ordered so that single-operator restrictions stay exact (see
photon.bath_ladder).

Inversion (x, y) -> (-x, -y) times photon-number parity
(-1)^(sum_a n_a + N_bath) commutes with every undriven H built here: each
coupling e_a . p (x) q_a is odd under both factors, and the diamagnetic and
bath-quadratic terms are even.  So e . p connects only levels of opposite
inversion parity, and H_el is diagonal in the solved levels; the builders
drop the other matter entries, after checking that each is roundoff, and no
entry of H couples the two sectors.  inversion_parity gives the sector at every index
of the coupled layout.  Given a sector, the builders write only its rows and
columns, in the layout's order: level i keeps the photon indices whose
photon parity is the sector times the parity of level i.

H is real symmetric in the basis the builders use: the stored levels with
each inversion-odd level multiplied by i.  The solved levels are real
functions and the grid Hamiltonian is real, so H_el is diag(E).  p = -i grad
is imaginary and antisymmetric between real functions, and it connects only
levels of opposite parity, exactly one of which carries the factor i, so
every e . p element becomes real.  The photon and bath factors (q, n, the
ladder sums) are real already.  The ground level is even and left as
stored, so product starts need no change, and the factor i is a unitary on
the matter factor alone: photon marginals and subsystem purities, the only
observables, do not depend on it.

The pump schemes are time-dependent terms for the propagator: a classical
current on quantized mode 1, or the retarded classical field that replaces
mode 1.  drive_term builds either one as a single sum of factor pairs times
one scalar coefficient.  Both break the inversion parity.  This module
builds operators only; it never propagates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid

from .matter import MatterEigenbasis, TransitionMatrices, inversion_parities, select_states
from .photon import BathBasis, FockMode, bath_ladder, number_op, quadratures

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class CoupledBasis:
    """Tensor-product index bookkeeping: matter x modes x optional bath sector.

    Linear indices run row-major over (matter, mode_1, ..., mode_k, bath),
    matter slowest.
    """

    matter_dim: int
    mode_dims: tuple[int, ...]
    bath: BathBasis | None = None

    def __post_init__(self):
        if self.matter_dim < 1:
            raise ValueError("matter_dim must be >= 1")
        if any(d < 2 for d in self.mode_dims):
            raise ValueError("each mode needs at least two Fock levels")

    @property
    def shape(self) -> tuple[int, ...]:
        extra = (self.bath.size,) if self.bath is not None else ()
        return (self.matter_dim, *self.mode_dims, *extra)

    @property
    def dim(self) -> int:
        return int(np.prod(self.shape))


def _hermitian_factor(op: np.ndarray | sp.spmatrix, where: str) -> np.ndarray | sp.spmatrix:
    defect_max = abs(op - op.conjugate().T).max()
    if defect_max >= HERMITICITY_TOL:
        raise ValueError(
            f"Hermiticity defect {defect_max:.3e} >= {HERMITICITY_TOL} in the {where}"
        )
    return op


def embed(
    basis: CoupledBasis,
    mode_ops: dict[int, sp.spmatrix] | None = None,
    bath_op: sp.spmatrix | None = None,
) -> sp.csr_matrix:
    """Kronecker-lift Hermitian mode and bath factors onto the product space,
    identity on matter: matter factors enter H only through _kron_sum.

    Each supplied factor must be Hermitian within HERMITICITY_TOL, so a real
    combination of lifted products is Hermitian without a whole-matrix check.
    The product is real when every factor is.
    """
    factors: list[sp.spmatrix] = [sp.identity(basis.matter_dim, format="csr")]
    mode_ops = mode_ops or {}
    for slot, d in enumerate(basis.mode_dims):
        op = mode_ops.get(slot)
        if op is None:
            factors.append(sp.identity(d, format="csr"))
        else:
            if op.shape != (d, d):
                raise ValueError(f"mode {slot} operator shape {op.shape} != {(d, d)}")
            factors.append(_hermitian_factor(op, f"mode {slot} operator"))
    if basis.bath is not None:
        if bath_op is None:
            factors.append(sp.identity(basis.bath.size, format="csr"))
        else:
            factors.append(_hermitian_factor(bath_op, "bath operator"))
    elif bath_op is not None:
        raise ValueError("bath operator supplied but basis has no bath sector")
    out = factors[0]
    for f in factors[1:]:
        out = sp.kron(out, f, format="csr")
    return out


def product_state(
    basis: CoupledBasis, matter_vec: np.ndarray, mode_vecs: Sequence[np.ndarray]
) -> np.ndarray:
    """Normalized product amplitudes matter (x) modes (x) bath vacuum."""
    if len(mode_vecs) != len(basis.mode_dims):
        raise ValueError("one vector per quantized mode required")
    out = np.asarray(matter_vec, dtype=complex)
    if out.shape != (basis.matter_dim,):
        raise ValueError("matter vector has wrong dimension")
    for vec, d in zip(mode_vecs, basis.mode_dims):
        if len(vec) != d:
            raise ValueError("mode vector does not match its truncation")
        out = np.kron(out, np.asarray(vec, dtype=complex))
    if basis.bath is not None:
        vacuum = np.zeros(basis.bath.size, dtype=complex)
        vacuum[basis.bath.index_of(())] = 1.0
        out = np.kron(out, vacuum)
    return out / np.linalg.norm(out)


def _photon_parity(basis: CoupledBasis) -> np.ndarray:
    """(-1)^(sum_a n_a + N_bath), int8, at every photon index of the layout."""
    sign = np.ones(1, dtype=np.int8)
    factors = [(-1) ** np.arange(d) for d in basis.mode_dims]
    if basis.bath is not None:
        factors.append(np.array([(-1) ** len(c) for c in basis.bath.configs]))
    for f in factors:
        sign = np.kron(sign, f.astype(np.int8))
    return sign


def inversion_parity(basis: CoupledBasis, matter: MatterEigenbasis) -> np.ndarray | None:
    """Inversion times photon-number parity, +1 or -1 (int8) at every index
    of the coupled layout.

    `matter` holds the levels of the coupled basis, in its order.  Returns
    None when one of them is not an inversion eigenstate to within
    matter.PARITY_TOL.
    """
    if matter.n_states != basis.matter_dim:
        raise ValueError(
            f"{matter.n_states} matter levels for a coupled basis of {basis.matter_dim}"
        )
    sign = inversion_parities(matter)
    if sign is None:
        return None
    return np.kron(sign, _photon_parity(basis))


def _momentum_projection(px: np.ndarray, py: np.ndarray, e: tuple[float, float]) -> np.ndarray:
    return e[0] * px + e[1] * py


def _real_matter(
    matter: MatterEigenbasis, tm: TransitionMatrices
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_el, p_x, p_y) between the stored levels with each inversion-odd
    level multiplied by i: real symmetric float arrays.

    H_el is diag(E).  p_a[i, j] is +<phi_i|d_a phi_j> from an even level i to
    an odd level j, its negative from odd to even, and 0 between levels of
    equal parity.  Raises ValueError when a level has no inversion parity,
    and, naming the factor, when a dropped entry (off the diagonal of H_el,
    between equal parities in p) or an imaginary part is above
    HERMITICITY_TOL x max(1, max|op|), as small as embed's Hermiticity
    defect for a factor that is roundoff as a whole.
    """
    parity = inversion_parities(matter)
    if parity is None:
        raise ValueError("a matter level is not an inversion eigenstate; H has no real gauge")

    def real(op: np.ndarray, kept: np.ndarray, where: str, rule: str) -> np.ndarray:
        b = 0.5 * (op + op.conj().T)
        scale = max(1.0, np.abs(b).max())
        worst = np.abs(b[kept == 0]).max(initial=0.0)
        if worst > HERMITICITY_TOL * scale:
            raise ValueError(
                f"{where} entry {worst:.3e} {rule} "
                f"(above {HERMITICITY_TOL} x max = {scale:.3e})"
            )
        b = kept * b
        residue = np.abs(b.imag).max()
        if not residue <= HERMITICITY_TOL * scale:
            raise ValueError(
                f"{where} keeps an imaginary part {residue:.3e} in the real gauge "
                f"(above {HERMITICITY_TOL} x max = {scale:.3e})"
            )
        return b.real

    h_el = real(matter.h_matrix(), np.eye(len(parity)), "H_el", "lies off the diagonal")
    # i p_a = d_a is real between real levels: i from an even level to an
    # odd one, -i back, 0 between equal parities
    step = 0.5j * np.subtract.outer(parity, parity)
    odd = "breaks the inversion parity of the levels"
    return h_el, real(tm.px, step, "p_x", odd), real(tm.py, step, "p_y", odd)


def restrict_levels(
    matter: MatterEigenbasis, tm: TransitionMatrices, levels: Sequence[int]
) -> tuple[MatterEigenbasis, TransitionMatrices]:
    """Slice the eigenbasis and transition matrices to the selected levels.

    Rejects duplicate or out-of-range indices and selections that keep only
    part of a degenerate energy level (one j cluster): the truncation would
    then break the ring's symmetry sector instead of just shrinking it.
    """
    idx_list = [int(k) for k in levels]
    if len(set(idx_list)) != len(idx_list):
        raise ValueError("duplicate level indices")
    if any(k < 0 or k >= matter.n_states for k in idx_list):
        raise ValueError(
            f"levels outside the solved basis of {matter.n_states} states"
        )
    for k in idx_list:
        cluster = np.flatnonzero(matter.j_labels == matter.j_labels[k])
        missing = [int(m) for m in cluster if m not in idx_list]
        if missing:
            raise ValueError(
                f"level {k} (j = {matter.j_labels[k]}) selected without its "
                f"degenerate partner {missing[0]}"
            )
    return select_states(matter, tm, np.asarray(idx_list, dtype=int))


def _kron_sum(
    basis: CoupledBasis,
    pairs: Sequence[tuple[np.ndarray, sp.csr_matrix]],
    sides: np.ndarray | None = None,
) -> sp.csr_matrix:
    """sum_k M_k (x) P_k as one canonical float64 CSR, matter slowest.

    Block (i, j) is the scipy sum of M_k[i, j] P_k over the k with a nonzero
    coefficient, added in k order, so an exact zero sum is not stored.  Each
    row is sized from the rows of the P_k that enter it; each block is built
    once into the next free slots of its rows, and the slots left zero are
    dropped at the end.  Every factor must be real (ValueError otherwise);
    each matter factor is checked for symmetry here, and the photon factors
    are real sums of embed products, whose factors embed has checked.

    With `sides`, level i keeps only the photon indices whose photon parity
    is sides[i] (the sector times the level's inversion parity), and block
    (i, j) is the P_k restricted to the kept indices of levels i and j: the
    result is the full sum's rows and columns on one inversion sector, in
    the layout's order.  A stored photon-factor entry that joins a kept
    index to a dropped one, in a block whose matter coefficient is nonzero,
    is a ValueError naming the factor.
    """
    m = basis.matter_dim
    n = basis.dim // m
    matters, photons = [], []
    for mk, pk in pairs:
        if np.shape(mk) != (m, m) or pk.shape != (n, n):
            raise ValueError(f"factors {np.shape(mk)} x {pk.shape} do not tile {basis.shape}")
        if np.iscomplexobj(mk) or np.iscomplexobj(pk):
            raise ValueError("a complex factor pair; H is assembled real symmetric")
        matters.append(_hermitian_factor(np.asarray(mk, dtype=float), "matter factor"))
        pk = sp.csr_matrix(pk)
        pk.sum_duplicates()  # sorted, unique indices, so every block is canonical
        photons.append(pk)

    if sides is None:
        side = [1] * m
        size = {1: n}
    else:
        side = [int(s) for s in sides]
        parity = _photon_parity(basis)
        kept = {s: np.flatnonzero(parity == s) for s in (1, -1)}
        size = {s: kept[s].size for s in kept}
        rank = np.empty(n, dtype=np.int32)  # place of each index within its parity
        for s in kept:
            rank[kept[s]] = np.arange(size[s])

    def restricted(k: int, a: int, b: int) -> sp.csr_matrix:
        """P_k on the photon rows of parity a and the columns of parity b."""
        if sides is None:
            return photons[k]
        rows = photons[k][kept[a]]
        stray = np.flatnonzero(parity[rows.indices] != b)
        if stray.size:
            row = kept[a][np.searchsorted(rows.indptr, stray[0], side="right") - 1]
            raise ValueError(
                f"photon factor {k} joins kept photon index {row} to dropped index "
                f"{rows.indices[stray[0]]}: its pair couples the inversion sectors"
            )
        return sp.csr_matrix((rows.data, rank[rows.indices], rows.indptr), (size[a], size[b]))

    terms = np.array(matters) != 0  # terms[k, i, j]: M_k[i, j] enters block (i, j)
    factors = {
        key: restricted(*key)
        for key in sorted({(k, side[i], side[j]) for k, i, j in zip(*np.nonzero(terms))})
    }

    offset = [0, *itertools.accumulate(size[s] for s in side)]  # first row of each level
    dim = offset[-1]
    counts = np.zeros(dim, dtype=np.int64)
    for k, i, j in zip(*np.nonzero(terms)):
        counts[offset[i] : offset[i + 1]] += np.diff(factors[k, side[i], side[j]].indptr)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    index_dtype = np.int32 if max(indptr[-1], dim) < 2**31 else np.int64
    data = np.zeros(indptr[-1])
    indices = np.zeros(indptr[-1], dtype=index_dtype)
    free = indptr[:-1].copy()  # next open slot of each row
    for i, j in itertools.product(range(m), repeat=2):
        b = None
        for k in np.flatnonzero(terms[:, i, j]):
            term = matters[k][i, j] * factors[k, side[i], side[j]]
            b = term if b is None else b + term
        if b is None:
            continue
        rows = free[offset[i] : offset[i + 1]]
        dest = np.repeat(rows - b.indptr[:-1], np.diff(b.indptr)) + np.arange(b.nnz)
        data[dest] = b.data
        indices[dest] = b.indices.astype(index_dtype, copy=False) + offset[j]
        rows += np.diff(b.indptr)
    h = sp.csr_matrix((data, indices, indptr.astype(index_dtype)), shape=(dim, dim))
    if not data.all():  # unused slots, or a zero a one-term block keeps
        h.eliminate_zeros()
    return h


def _assemble(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
    bath_modes: Sequence[FockMode] = (),
    sector: int | None = None,
) -> sp.csr_matrix:
    """The system pairs, then the bath pairs when bath_modes are given, in one
    _kron_sum; only the rows and columns of `sector` when it is +1 or -1."""
    if len(modes) != len(basis.mode_dims):
        raise ValueError("mode count does not match the coupled basis")
    for mode, d in zip(modes, basis.mode_dims):
        if mode.dim != d:
            raise ValueError("mode truncation does not match the coupled basis")
    photon = CoupledBasis(1, basis.mode_dims, basis.bath)
    quads = [quadratures(mode)[0] for mode in modes]
    # exact diagonal w (n + 1/2); the quadrature form of the same energy
    # picks up an edge defect at the Fock truncation boundary
    energies = [mode.omega * (number_op(mode) + 0.5 * sp.identity(mode.dim)) for mode in modes]
    h_photon = sum(embed(photon, mode_ops={slot: e}) for slot, e in enumerate(energies))
    h_el, px, py = _real_matter(matter, tm)
    couplings = []
    for slot, mode in enumerate(modes):
        if mode.lam == 0.0:
            continue
        q = quads[slot]
        h_photon = h_photon + 0.5 * mode.lam**2 * embed(photon, mode_ops={slot: (q @ q).tocsr()})
        proj = _momentum_projection(px, py, mode.polarization)
        couplings.append((proj, -mode.lam * embed(photon, mode_ops={slot: q})))
    for a in range(len(modes)):
        for b in range(a + 1, len(modes)):
            ea, eb = modes[a].polarization, modes[b].polarization
            coeff = modes[a].lam * modes[b].lam * (ea[0] * eb[0] + ea[1] * eb[1])
            if coeff == 0.0:
                continue
            h_photon = h_photon + coeff * embed(photon, mode_ops={a: quads[a], b: quads[b]})
    eye = sp.identity(photon.dim, format="csr")
    pairs = [(np.eye(basis.matter_dim), h_photon), (h_el, eye), *couplings]
    if bath_modes:
        # each block takes at most one bath pair, after the system pairs: every
        # entry adds the terms of the sum of the two builds, in its order
        pairs += _bath_pairs(basis, px, py, modes, bath_modes)
    sides = None if sector is None else sector * inversion_parities(matter)
    return _kron_sum(basis, pairs, sides)


def assemble_system(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
    *,
    bath_modes: Sequence[FockMode] = (),
    sector: int | None = None,
) -> sp.csr_matrix:
    """Full pump + two signal modes, with the bath terms of bath_modes
    (assemble_bath_terms); only the inversion sector `sector` when given."""
    if len(modes) != 3:
        raise ValueError("the three-mode system takes exactly three modes")
    return _assemble(basis, matter, tm, modes, bath_modes, sector)


def assemble_degenerate(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
    *,
    bath_modes: Sequence[FockMode] = (),
    sector: int | None = None,
) -> sp.csr_matrix:
    """Pump plus one degenerate signal mode; bath_modes and sector as for
    assemble_system."""
    if len(modes) != 2:
        raise ValueError("the degenerate system takes exactly two modes")
    return _assemble(basis, matter, tm, modes, bath_modes, sector)


def assemble_signal_pair(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
) -> sp.csr_matrix:
    """Signal modes 2 and 3 only; the static part of the classical-field pump
    scheme, where mode 1 is replaced by an external field."""
    if len(modes) != 2:
        raise ValueError("the signal pair takes exactly two modes")
    return _assemble(basis, matter, tm, modes)


def assemble_few_level(
    levels: Sequence[int],
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
    *,
    sector: int | None = None,
) -> tuple[sp.csr_matrix, CoupledBasis]:
    """Same assembly with matter truncated to the selected levels.

    Levels must come in complete degenerate pairs so the truncated basis
    stays closed under the ring's symmetry.  The basis is the whole layout
    also when only the inversion sector `sector` is built.
    """
    sub_matter, sub_tm = restrict_levels(matter, tm, levels)
    basis = CoupledBasis(sub_matter.n_states, tuple(m.dim for m in modes))
    return _assemble(basis, sub_matter, sub_tm, modes, sector=sector), basis


def _bath_pairs(
    basis: CoupledBasis,
    px: np.ndarray,
    py: np.ndarray,
    main_modes: Sequence[FockMode],
    bath_modes: Sequence[FockMode],
) -> list[tuple[np.ndarray, sp.csr_matrix]]:
    """The factor pairs of assemble_bath_terms, on the real p_x and p_y."""
    bath = basis.bath
    if bath is None:
        raise ValueError("coupled basis has no bath sector")
    if len(bath_modes) != bath.n_modes:
        raise ValueError("bath mode list does not match the enumerated basis")
    size = bath.size
    eye = sp.identity(size, format="csr")

    # every bath mode shares one polarization, so one collective operator
    # carries the whole bath-matter coupling
    pols = {mode.polarization for mode in bath_modes}
    if len(pols) != 1:
        raise ValueError(f"bath modes must share one polarization, got {sorted(pols)}")
    (pol,) = pols

    lowering = [bath_ladder(bath, k) for k in range(bath.n_modes)]
    photon = CoupledBasis(1, basis.mode_dims, bath)
    n_total = sum((low.T @ low) * mode.omega for low, mode in zip(lowering, bath_modes))
    zero_point = 0.5 * sum(m.omega for m in bath_modes)
    h_photon = embed(photon, bath_op=n_total + zero_point * eye)

    # collective displacement sum_k c_k (b_k + b_k^dag) with c_k = lam_k / sqrt(2 w_k),
    # so A_bath = disp e
    weights = [mode.lam / math.sqrt(2.0 * mode.omega) for mode in bath_modes]
    disp = sp.csr_matrix((size, size), dtype=float)
    for c, low in zip(weights, lowering):
        disp = disp + c * (low + low.T)

    # diamagnetic main x bath cross terms: lam_a (e_a . e_B) q_a (x) A_B
    for slot, mode in enumerate(main_modes):
        dot = mode.polarization[0] * pol[0] + mode.polarization[1] * pol[1]
        if mode.lam == 0.0 or dot == 0.0:
            continue
        q, _ = quadratures(mode)
        h_photon = h_photon + mode.lam * dot * embed(photon, mode_ops={slot: q}, bath_op=disp)

    # diamagnetic bath x bath: (1/2) sum_{k,l} c_k c_l (b+b^dag)_k (b+b^dag)_l,
    # normal-ordered with the collective B = sum_k c_k b_k:
    # B B + B^dag B + B^dag B + B^dag B^dag + sum_k c_k^2
    coll = sum(c * low for c, low in zip(weights, lowering))
    prod = coll @ coll + coll.T @ coll + coll.T @ coll + coll.T @ coll.T
    prod = prod + sum(c * c for c in weights) * eye
    bath_quad = 0.5 * (pol[0] * pol[0] + pol[1] * pol[1]) * prod
    h_photon = h_photon + embed(photon, bath_op=bath_quad)

    coupling = _momentum_projection(px, py, pol)
    return [(np.eye(basis.matter_dim), h_photon), (coupling, -embed(photon, bath_op=disp))]


def assemble_bath_terms(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    main_modes: Sequence[FockMode],
    bath_modes: Sequence[FockMode],
) -> sp.csr_matrix:
    """Bath energy, bath-matter bilinear, and all diamagnetic cross terms.

    The part that assemble_system(..., bath_modes=...) adds to the system
    terms.  Bath operators act on the restricted few-photon sector; every
    ladder product is assembled normal-ordered (annihilators first) so the
    sector restriction is exact.
    """
    _, px, py = _real_matter(matter, tm)
    return _kron_sum(basis, _bath_pairs(basis, px, py, main_modes, bath_modes))


# ---------------------------------------------------------------------------
# pump schemes


@dataclass(frozen=True)
class DriveSpec:
    """External pump: a Gaussian-windowed oscillating current j(t) that either
    drives quantized mode 1 directly (classical_current) or replaces mode 1
    by the classical field it generates (classical_field).

    j(t) = j0 exp(-(t - t0)^2 / tau^2) sin(omega1 t); times and omega1 in
    effective atomic units.
    """

    kind: str
    j0: float = 0.0
    t0: float = 0.0
    tau: float = 1.0
    omega1: float = 0.0

    def __post_init__(self):
        if self.kind not in ("classical_current", "classical_field"):
            raise ValueError(f"unknown drive kind {self.kind!r}")
        if self.tau <= 0:
            raise ValueError("drive width tau must be positive")
        if self.omega1 <= 0:
            raise ValueError("drive carrier omega1 must be positive")

    def current(self, t: float) -> float:
        env = math.exp(-((t - self.t0) ** 2) / self.tau**2)
        return self.j0 * env * math.sin(self.omega1 * t)


class TimeDependentTerm(NamedTuple):
    """Static Hermitian pattern times a scalar time-dependent coefficient."""

    op: sp.csr_matrix
    coeff: Callable[[float], float]


def classical_pump_field(
    drive: DriveSpec, mode1: FockMode, t_grid: np.ndarray
) -> np.ndarray:
    """Classical mode-1 coordinate driven by j(t).

    Retarded solution q1(t) = -(lam1/w1) int_0^t sin(w1 (t-t')) j(t') dt'
    (the field starts at rest); trapezoid quadrature on t_grid
    (second-order accurate).
    """
    if drive.kind != "classical_field":
        raise ValueError("classical_pump_field requires kind = classical_field")
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("t_grid must be increasing with at least two samples")
    w = mode1.omega
    j = np.array([drive.current(tk) for tk in t])
    cos_int = cumulative_trapezoid(np.cos(w * t) * j, t, initial=0.0)
    sin_int = cumulative_trapezoid(np.sin(w * t) * j, t, initial=0.0)
    return -(mode1.lam / w) * (np.sin(w * t) * cos_int - np.cos(w * t) * sin_int)


def drive_term(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
    drive: DriveSpec,
    t_grid: np.ndarray | None = None,
) -> TimeDependentTerm:
    """The pump as one factor-pair operator times its scalar coefficient.

    modes are the configured modes, pump mode 1 first.  classical_current:
    H(t) = H_S + j(t) lam_1 q_1, with mode 1 quantized in slot 0 of the basis.
    classical_field: mode 1 leaves the quantized basis and enters as
    A1(t) = lam1 q1(t), with q1 integrated from the drive current on t_grid,

        H_ext(t) = A1(t) [-e1.p + lam2 (e1.e2) q2 + lam3 (e1.e3) q3],

    with every e_a read from the modes' polarization and e1.p between the
    real levels that the static builders use.  The diamagnetic c-number
    A1(t)^2 / 2 is left out: it only shifts the global phase.
    """
    mode1 = modes[0]
    photon = CoupledBasis(1, basis.mode_dims, basis.bath)
    eye = np.eye(basis.matter_dim)
    if drive.kind == "classical_current":
        q, _ = quadratures(mode1)
        pairs = [(eye, mode1.lam * embed(photon, mode_ops={0: q}))]
        return TimeDependentTerm(op=_kron_sum(basis, pairs), coeff=drive.current)
    if len(basis.mode_dims) != 2 or len(modes) != 3:
        raise ValueError(
            "classical-field pump requires mode 1 removed from the quantized "
            "basis (two signal modes only)"
        )
    e1 = mode1.polarization
    _, px, py = _real_matter(matter, tm)
    field = sp.csr_matrix((photon.dim, photon.dim))
    for slot, mode in enumerate(modes[1:]):
        dot = e1[0] * mode.polarization[0] + e1[1] * mode.polarization[1]
        if mode.lam == 0.0 or dot == 0.0:
            continue
        q, _ = quadratures(mode)
        field = field + (mode.lam * dot) * embed(photon, mode_ops={slot: q})
    pairs = [
        (-_momentum_projection(px, py, e1), sp.identity(photon.dim, format="csr")),
        (eye, field),
    ]
    a1 = mode1.lam * classical_pump_field(drive, mode1, t_grid)
    return TimeDependentTerm(_kron_sum(basis, pairs), lambda t: float(np.interp(t, t_grid, a1)))
