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
checks every mode and bath factor it lifts for Hermiticity; _kron_sum checks
each matter factor and writes sum_k M_k (x) P_k block by block into one
canonical float64 CSR.  Entries (i, j) and (j, i) add the same terms in the
same order, so H is symmetric to the last bit by construction; the builders
return the csr_matrix itself.

The matter factor is the truncated ring eigenbasis (h_matrix plus momentum
matrices), or its reflection-even sector when every mode shares one
polarization axis (matter.reflection_even), never the raw grid.  Bath modes
live in a restricted few-photon sector; their operators are assembled
normal-ordered so that single-operator restrictions stay exact (see
photon.bath_ladder).

Inversion (x, y) -> (-x, -y) times photon-number parity
(-1)^(sum_a n_a + N_bath) commutes with every undriven H built here: each
coupling e_a . p (x) q_a is odd under both factors, and the diamagnetic and
bath-quadratic terms are even.  So e . p connects only levels of opposite
inversion parity and H_el only levels of equal parity; the builders drop the
other matter entries, after checking that each is roundoff, and no entry of
H couples the two sectors.  inversion_parity gives the sector at every index
of the coupled layout, and inversion_block cuts H to one of them.

H is real symmetric in the basis the builders use, a fixed gauge of the
stored levels (_matter_gauge): each +-l pair of levels is rotated into its
standing waves (psi_l + psi_-l)/sqrt(2) and (psi_l - psi_-l)/(i sqrt(2)),
each level is made real by one global phase, and the inversion-odd levels
are multiplied by i.  The grid Hamiltonian is real, so H_el is real between
real levels, and the factor i cancels between two odd ones.  p = -i grad is
imaginary and antisymmetric between real functions, and it connects only
levels of opposite parity, exactly one of which carries the factor i, so
every e . p element becomes real.  The photon and bath factors (q, n, the
ladder sums) are real already.  The ground level is left exactly as stored,
so product starts need no change, and the gauge is a unitary on the matter
factor alone: photon marginals and subsystem purities, the only observables,
do not depend on it.

The pump schemes are time-dependent terms for the propagator: a classical
current on quantized mode 1, or the retarded classical field that replaces
mode 1.  Both break the inversion parity.  This module builds operators
only; it never propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid

from .matter import MatterEigenbasis, TransitionMatrices, inversion_overlaps
from .photon import BathBasis, FockMode, bath_ladder, number_op, quadratures

HERMITICITY_TOL = 1e-12
# A matter level counts as an inversion eigenstate when <phi|R_x R_y phi>
# lies this close to +1 or -1.
PARITY_TOL = 1e-8


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

    def flatten(self, labels: tuple[int, ...]) -> int:
        return int(np.ravel_multi_index(labels, self.shape))

    def unflatten(self, index: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(index, self.shape))


def _hermitian_factor(op: np.ndarray | sp.spmatrix, where: str) -> np.ndarray | sp.spmatrix:
    defect_max = abs(op - op.conjugate().T).max()
    if defect_max >= HERMITICITY_TOL:
        raise ValueError(
            f"Hermiticity defect {defect_max:.3e} >= {HERMITICITY_TOL} in the {where}"
        )
    return op


def embed(
    basis: CoupledBasis,
    matter_op: np.ndarray | sp.spmatrix | None = None,
    mode_ops: dict[int, sp.spmatrix] | None = None,
    bath_op: sp.spmatrix | None = None,
) -> sp.csr_matrix:
    """Kronecker-lift Hermitian factor operators onto the full product space.

    Each supplied factor must be Hermitian within HERMITICITY_TOL, so a real
    combination of lifted products is Hermitian without a whole-matrix check.
    The product is real when every factor is.
    """
    factors: list[sp.spmatrix] = []
    if matter_op is not None:
        matter_op = sp.csr_matrix(matter_op)
        if matter_op.shape != (basis.matter_dim, basis.matter_dim):
            raise ValueError(
                f"matter operator shape {matter_op.shape} != "
                f"{(basis.matter_dim, basis.matter_dim)}"
            )
        factors.append(_hermitian_factor(matter_op, "matter operator"))
    else:
        factors.append(sp.identity(basis.matter_dim, format="csr"))
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


def inversion_parity(basis: CoupledBasis, matter: MatterEigenbasis) -> np.ndarray | None:
    """Inversion times photon-number parity, +1 or -1 (int8) at every index
    of the coupled layout.

    `matter` holds the levels of the coupled basis, in its order.  Returns
    None when one of them is not an inversion eigenstate to within
    PARITY_TOL.
    """
    if matter.n_states != basis.matter_dim:
        raise ValueError(
            f"{matter.n_states} matter levels for a coupled basis of {basis.matter_dim}"
        )
    overlap = inversion_overlaps(matter)
    sign = np.where(overlap > 0.0, 1, -1).astype(np.int8)
    if np.abs(overlap - sign).max() > PARITY_TOL:
        return None
    factors = [(-1) ** np.arange(d) for d in basis.mode_dims]
    if basis.bath is not None:
        factors.append(np.array([(-1) ** len(c) for c in basis.bath.configs]))
    for f in factors:
        sign = np.kron(sign, f.astype(np.int8))
    return sign


def inversion_block(
    h: sp.csr_matrix, parity: np.ndarray, sector: int
) -> tuple[sp.csr_matrix, np.ndarray]:
    """(block, index): the Hermitian h on the indices where parity == sector.

    Raises ValueError, naming the largest, when an entry between the two
    sectors exceeds HERMITICITY_TOL * max|h|.  h is Hermitian, so the rows of
    the kept sector hold every such entry or its conjugate: one pass over
    those rows checks them all.
    """
    index = np.flatnonzero(parity == sector)
    rows = h[index]
    cross = np.flatnonzero(parity[rows.indices] != sector)
    if cross.size:
        worst = np.abs(rows.data[cross])
        k = int(np.argmax(worst))
        scale = np.abs(h.data).max()
        if worst[k] > HERMITICITY_TOL * scale:
            row = index[np.searchsorted(rows.indptr, cross[k], side="right") - 1]
            raise ValueError(
                f"H[{row}, {rows.indices[cross[k]]}] = {rows.data[cross[k]]:.3e} couples "
                f"the inversion sectors (above {HERMITICITY_TOL} x max|H| = {scale:.3e})"
            )
    return rows[:, index], index


def _momentum_projection(px: np.ndarray, py: np.ndarray, e: tuple[float, float]) -> np.ndarray:
    return e[0] * px + e[1] * py


def _partner(matter: MatterEigenbasis, k: int) -> int | None:
    """The level of `matter` holding the -l partner of level k (l != 0), if any."""
    for m in range(matter.n_states):
        if matter.j_labels[m] == matter.j_labels[k] and matter.l_labels[m] == -matter.l_labels[k]:
            return m
    return None


def _matter_gauge(matter: MatterEigenbasis) -> tuple[np.ndarray, np.ndarray]:
    """(u, parity): the unitary whose column k is real level k in the stored
    basis, and the inversion parity (+1 or -1) of each level.

    Each +-l pair becomes its standing waves (psi_l + psi_-l)/sqrt(2) and
    (psi_l - psi_-l)/(i sqrt(2)); each level is then e^(i theta) times a real
    function, with e^(2 i theta) the phase of sum(phi^2) over the grid, and
    is divided by e^(i theta) unless that lies within HERMITICITY_TOL of 1;
    the inversion-odd levels are multiplied by i.  Raises ValueError when a
    level has no inversion parity, or when the lowest level would move.
    """
    n = matter.n_states
    parity = inversion_parity(CoupledBasis(n, ()), matter)
    if parity is None:
        raise ValueError("a matter level is not an inversion eigenstate; H has no real gauge")
    u = np.eye(n, dtype=complex)
    root = math.sqrt(0.5)
    for k in np.flatnonzero(matter.l_labels > 0):
        m = _partner(matter, k)
        if m is not None:
            u[[k, m], k] = root, root
            u[[k, m], m] = -1j * root, 1j * root
    levels = u.T @ matter.states
    square = np.einsum("ij,ij->i", levels, levels)
    phase = np.sqrt(square / np.abs(square))
    phase[np.abs(phase - 1.0) <= HERMITICITY_TOL] = 1.0
    u = u / phase * np.where(parity < 0, 1j, 1.0)
    ground = int(np.argmin(matter.energies))
    if not np.array_equal(u[:, ground], np.eye(n)[ground]):
        raise ValueError(f"the real gauge moves the ground level {ground}")
    return u, parity


def _real_matter(
    matter: MatterEigenbasis, tm: TransitionMatrices
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H_el, p_x, p_y) between the real levels of _matter_gauge: real
    symmetric float arrays, without the entries that inversion forbids.

    Those are the entries between levels of equal parity for p (odd under
    inversion) and of opposite parity for H_el.  Raises ValueError, naming
    the factor, when a dropped entry or an imaginary part is above
    HERMITICITY_TOL x max(1, max|op|), as small as embed's Hermiticity defect
    for a factor that is roundoff as a whole.
    """
    u, parity = _matter_gauge(matter)
    equal = np.equal.outer(parity, parity)

    def gauged(op: np.ndarray, forbidden: np.ndarray, where: str) -> np.ndarray:
        b = u.conj().T @ op @ u
        b = 0.5 * (b + b.conj().T)
        scale = max(1.0, np.abs(b).max())
        worst = np.abs(b[forbidden]).max(initial=0.0)
        if worst > HERMITICITY_TOL * scale:
            raise ValueError(
                f"{where} entry {worst:.3e} breaks the inversion parity of the levels "
                f"(above {HERMITICITY_TOL} x max = {scale:.3e})"
            )
        residue = np.abs(b.imag).max()
        if not residue <= HERMITICITY_TOL * scale:
            raise ValueError(
                f"{where} keeps an imaginary part {residue:.3e} in the real gauge "
                f"(above {HERMITICITY_TOL} x max = {scale:.3e})"
            )
        return np.where(forbidden, 0.0, b.real)

    return (
        gauged(matter.h_matrix(), ~equal, "H_el"),
        gauged(tm.px, equal, "p_x"),
        gauged(tm.py, equal, "p_y"),
    )


def restrict_levels(
    matter: MatterEigenbasis, tm: TransitionMatrices, levels: Sequence[int]
) -> tuple[MatterEigenbasis, TransitionMatrices]:
    """Slice the eigenbasis and transition matrices to the selected levels.

    Rejects duplicate or out-of-range indices and selections that keep only
    one member of a degenerate pair (the truncation would then break the
    ring's symmetry sector instead of just shrinking it).
    """
    idx_list = [int(k) for k in levels]
    if len(set(idx_list)) != len(idx_list):
        raise ValueError("duplicate level indices")
    if any(k < 0 or k >= matter.n_states for k in idx_list):
        raise ValueError(
            f"levels outside the solved basis of {matter.n_states} states"
        )
    for k in idx_list:
        if matter.l_labels[k] == 0:
            continue
        partner = _partner(matter, k)
        if partner is not None and partner not in idx_list:
            raise ValueError(
                f"level {k} (l = {matter.l_labels[k]}) selected without its "
                f"degenerate partner {partner}"
            )
    idx = np.asarray(idx_list, dtype=int)
    block = np.ix_(idx, idx)
    sub_basis = MatterEigenbasis(
        energies=matter.energies[idx],
        states=matter.states[idx],
        l_labels=matter.l_labels[idx],
        j_labels=matter.j_labels[idx],
        grid=matter.grid,
        h_el=matter.h_matrix()[block],
    )
    sub_tm = TransitionMatrices(
        x_dip=tm.x_dip[block],
        y_dip=tm.y_dip[block],
        px=tm.px[block],
        py=tm.py[block],
    )
    return sub_basis, sub_tm


def _kron_sum(
    basis: CoupledBasis, pairs: Sequence[tuple[np.ndarray, sp.csr_matrix]]
) -> sp.csr_matrix:
    """sum_k M_k (x) P_k as one canonical float64 CSR, matter slowest.

    Block (i, j) is sum_k M_k[i, j] P_k on the union pattern of the P_k whose
    coefficient is nonzero.  The row pointer is counted from those patterns
    first, so each block is written straight into its place in the final
    arrays and no more than one block is held beside them.  Every factor
    must be real (ValueError otherwise); each matter factor is checked for
    symmetry here, and the photon factors are real sums of embed products,
    whose factors embed has checked.
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
        pk.sum_duplicates()  # sorted, unique keys for searchsorted
        photons.append(pk)

    def keys(pk: sp.csr_matrix) -> np.ndarray:
        return np.repeat(np.arange(n), np.diff(pk.indptr)) * n + pk.indices

    # a sum of positive patterns cannot cancel, so its pattern is the union
    union = keys(
        sum(sp.csr_matrix((np.ones(pk.nnz), pk.indices, pk.indptr), (n, n)) for pk in photons)
    )
    where = [np.searchsorted(union, keys(pk)) for pk in photons]
    terms_of = [
        [tuple(k for k, mk in enumerate(matters) if mk[i, j] != 0) for j in range(m)]
        for i in range(m)
    ]
    # for each set of factors that meets in a block, on the union of their
    # patterns: entries per photon row, each entry's column and place within
    # its row, and where each factor's entries sit
    layouts = {}
    for terms in {t for row in terms_of for t in row if t}:
        member = np.zeros(union.size, dtype=bool)
        for k in terms:
            member[where[k]] = True
        slot = np.cumsum(member) - 1
        rows, cols = np.divmod(union[member], n)
        counts = np.bincount(rows, minlength=n)
        rank = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        positions = [slot[where[k]] for k in terms]
        layouts[terms] = (counts, cols.astype(np.int32), rank, positions)
    row_counts = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for terms in filter(None, terms_of[i]):
            row_counts[i] += layouts[terms][0]
    indptr = np.concatenate(([0], np.cumsum(row_counts.ravel())))
    index_dtype = np.int32 if max(indptr[-1], basis.dim) < 2**31 else np.int64
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=index_dtype)

    cancelled = False
    for i in range(m):
        free = indptr[i * n : (i + 1) * n].copy()  # next open slot of each row
        for j, terms in enumerate(terms_of[i]):
            if not terms:
                continue
            counts, cols, rank, positions = layouts[terms]
            values = np.zeros(cols.size)
            for k, pos in zip(terms, positions):
                np.add.at(values, pos, matters[k][i, j] * photons[k].data)
            cancelled = cancelled or not values.all()  # an exact zero sum
            dest = np.repeat(free, counts)
            dest += rank
            data[dest] = values
            indices[dest] = cols + j * n
            free += counts
    h = sp.csr_matrix((data, indices, indptr.astype(index_dtype)), shape=(basis.dim, basis.dim))
    if cancelled:
        h.eliminate_zeros()
    return h


def _assemble(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
) -> sp.csr_matrix:
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
    return _kron_sum(basis, pairs)


def assemble_system(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
) -> sp.csr_matrix:
    """Full pump + two signal modes."""
    if len(modes) != 3:
        raise ValueError("the three-mode system takes exactly three modes")
    return _assemble(basis, matter, tm, modes)


def assemble_degenerate(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
) -> sp.csr_matrix:
    """Pump plus one degenerate signal mode."""
    if len(modes) != 2:
        raise ValueError("the degenerate system takes exactly two modes")
    return _assemble(basis, matter, tm, modes)


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
) -> tuple[sp.csr_matrix, CoupledBasis]:
    """Same assembly with matter truncated to the selected levels.

    Levels must come in complete degenerate pairs so the truncated basis
    stays closed under the ring's symmetry.
    """
    sub_matter, sub_tm = restrict_levels(matter, tm, levels)
    basis = CoupledBasis(sub_matter.n_states, tuple(m.dim for m in modes))
    return _assemble(basis, sub_matter, sub_tm, modes), basis


def assemble_bath_terms(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    main_modes: Sequence[FockMode],
    bath_modes: Sequence[FockMode],
) -> sp.csr_matrix:
    """Bath energy, bath-matter bilinear, and all diamagnetic cross terms.

    Added on top of assemble_system.  Bath operators act on the restricted
    few-photon sector; every ladder product is assembled normal-ordered
    (annihilators first) so the sector restriction is exact.
    """
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

    _, px, py = _real_matter(matter, tm)
    coupling = _momentum_projection(px, py, pol)
    pairs = [(np.eye(basis.matter_dim), h_photon), (coupling, -embed(photon, bath_op=disp))]
    return _kron_sum(basis, pairs)


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


def current_drive_terms(
    basis: CoupledBasis, mode1: FockMode, drive: DriveSpec
) -> list[TimeDependentTerm]:
    """H(t) = H_S + A_1 j(t) with A_1 = lam_1 q_1 still quantized (mode slot 0)."""
    if drive.kind != "classical_current":
        raise ValueError("current_drive_terms requires kind = classical_current")
    q, _ = quadratures(mode1)
    pattern = (mode1.lam * embed(basis, mode_ops={0: q})).tocsr()
    return [TimeDependentTerm(op=pattern, coeff=drive.current)]


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


def field_drive_terms(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    signal_modes: Sequence[FockMode],
    mode1: FockMode,
    drive: DriveSpec,
    t_grid: np.ndarray,
) -> list[TimeDependentTerm]:
    """Classical-field pump: mode 1 leaves the quantized basis and enters as
    A1(t) = lam1 q1(t) with q1 integrated from the drive current.

    H_ext(t) = -A1(t) e1.p + A1(t) [lam2 (e1.e2) q2 + lam3 (e1.e3) q3],

    with every e_a read from the modes' polarization and e1.p between the
    real levels that the static builders use.  The diamagnetic c-number
    A1(t)^2 / 2 is left out: it only shifts the global phase.
    """
    if len(basis.mode_dims) != 2 or len(signal_modes) != 2:
        raise ValueError(
            "classical-field pump requires mode 1 removed from the quantized "
            "basis (two signal modes only)"
        )
    e1 = mode1.polarization
    _, px, py = _real_matter(matter, tm)
    q1 = classical_pump_field(drive, mode1, t_grid)
    a1 = mode1.lam * q1
    t_ref = np.asarray(t_grid, dtype=float)

    def a1_at(t: float) -> float:
        return float(np.interp(t, t_ref, a1))

    terms = [
        TimeDependentTerm(
            op=embed(basis, matter_op=_momentum_projection(px, py, e1)),
            coeff=lambda t: -a1_at(t),
        ),
    ]
    for slot, mode in enumerate(signal_modes):
        dot = e1[0] * mode.polarization[0] + e1[1] * mode.polarization[1]
        if mode.lam == 0.0 or dot == 0.0:
            continue
        q, _ = quadratures(mode)
        terms.append(
            TimeDependentTerm(
                op=(mode.lam * dot) * embed(basis, mode_ops={slot: q}),
                coeff=a1_at,
            )
        )
    return terms

