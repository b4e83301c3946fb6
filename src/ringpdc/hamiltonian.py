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

Every term is a real coefficient times a Kronecker product of factors, and
embed checks each factor it lifts for Hermiticity.  The running sum of the
terms is then Hermitian by construction; the builders return the csr_matrix
itself.

The matter factor is the truncated ring eigenbasis (h_matrix plus momentum
matrices), or its reflection-even sector when every mode shares one
polarization axis (matter.reflection_even), never the raw grid.  Bath modes
live in a restricted few-photon sector; their operators are assembled
normal-ordered so that single-operator restrictions stay exact (see
photon.bath_ladder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid

from .matter import MatterEigenbasis, TransitionMatrices
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

    def flatten(self, labels: tuple[int, ...]) -> int:
        return int(np.ravel_multi_index(labels, self.shape))

    def unflatten(self, index: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.unravel_index(index, self.shape))


def _hermitian_factor(op: sp.spmatrix, where: str) -> sp.spmatrix:
    defect = abs(op - op.conjugate().T)
    defect_max = defect.max() if defect.nnz else 0.0
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
        factors.append(sp.identity(basis.matter_dim, format="csr", dtype=complex))
    mode_ops = mode_ops or {}
    for slot, d in enumerate(basis.mode_dims):
        op = mode_ops.get(slot)
        if op is None:
            factors.append(sp.identity(d, format="csr", dtype=complex))
        else:
            if op.shape != (d, d):
                raise ValueError(f"mode {slot} operator shape {op.shape} != {(d, d)}")
            factors.append(_hermitian_factor(op, f"mode {slot} operator"))
    if basis.bath is not None:
        if bath_op is None:
            factors.append(sp.identity(basis.bath.size, format="csr", dtype=complex))
        else:
            factors.append(_hermitian_factor(bath_op, "bath operator"))
    elif bath_op is not None:
        raise ValueError("bath operator supplied but basis has no bath sector")
    out = factors[0]
    for f in factors[1:]:
        out = sp.kron(out, f, format="csr")
    return out.astype(complex)


def product_state(
    basis: CoupledBasis,
    matter_vec: np.ndarray,
    mode_vecs: Sequence[np.ndarray],
    bath_vec: np.ndarray | None = None,
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
        if bath_vec is None:
            bath_vec = np.zeros(basis.bath.size, dtype=complex)
            bath_vec[basis.bath.index_of(())] = 1.0
        out = np.kron(out, np.asarray(bath_vec, dtype=complex))
    return out / np.linalg.norm(out)


def _momentum_projection(tm: TransitionMatrices, e: tuple[float, float]) -> np.ndarray:
    return e[0] * tm.px + e[1] * tm.py


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
        partner = [
            m
            for m in range(matter.n_states)
            if matter.j_labels[m] == matter.j_labels[k]
            and matter.l_labels[m] == -matter.l_labels[k]
        ]
        if partner and partner[0] not in idx_list:
            raise ValueError(
                f"level {k} (l = {matter.l_labels[k]}) selected without its "
                f"degenerate partner {partner[0]}"
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


def _assemble(
    basis: CoupledBasis,
    h_matter: np.ndarray,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
) -> sp.csr_matrix:
    if len(modes) != len(basis.mode_dims):
        raise ValueError("mode count does not match the coupled basis")
    for mode, d in zip(modes, basis.mode_dims):
        if mode.dim != d:
            raise ValueError("mode truncation does not match the coupled basis")
    total = embed(basis, matter_op=h_matter)
    quads = []
    for slot, mode in enumerate(modes):
        q, _ = quadratures(mode)
        quads.append(q)
        # exact diagonal w (n + 1/2); the quadrature form of the same energy
        # picks up an edge defect at the Fock truncation boundary
        h_ph = mode.omega * (number_op(mode) + 0.5 * sp.identity(mode.dim))
        total = total + embed(basis, mode_ops={slot: h_ph.tocsr()})
    for slot, mode in enumerate(modes):
        if mode.lam == 0.0:
            continue
        proj = _momentum_projection(tm, mode.polarization)
        total = total - mode.lam * embed(basis, matter_op=proj, mode_ops={slot: quads[slot]})
        total = total + 0.5 * mode.lam**2 * embed(
            basis, mode_ops={slot: (quads[slot] @ quads[slot]).tocsr()}
        )
    for a in range(len(modes)):
        for b in range(a + 1, len(modes)):
            ea, eb = modes[a].polarization, modes[b].polarization
            coeff = modes[a].lam * modes[b].lam * (ea[0] * eb[0] + ea[1] * eb[1])
            if coeff == 0.0:
                continue
            total = total + coeff * embed(basis, mode_ops={a: quads[a], b: quads[b]})
    return total


def assemble_system(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
) -> sp.csr_matrix:
    """Full pump + two signal modes."""
    if len(modes) != 3:
        raise ValueError("the three-mode system takes exactly three modes")
    return _assemble(basis, matter.h_matrix(), tm, modes)


def assemble_degenerate(
    basis: CoupledBasis,
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
) -> sp.csr_matrix:
    """Pump plus one degenerate signal mode."""
    if len(modes) != 2:
        raise ValueError("the degenerate system takes exactly two modes")
    return _assemble(basis, matter.h_matrix(), tm, modes)


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
    return _assemble(basis, matter.h_matrix(), tm, modes)


def assemble_few_level(
    levels: Sequence[int],
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    modes: Sequence[FockMode],
    basis: CoupledBasis | None = None,
) -> tuple[sp.csr_matrix, CoupledBasis]:
    """Same assembly with matter truncated to the selected levels.

    Levels must come in complete degenerate pairs so the truncated basis
    stays closed under the ring's symmetry.
    """
    sub_matter, sub_tm = restrict_levels(matter, tm, levels)
    if basis is None:
        basis = CoupledBasis(
            matter_dim=sub_matter.n_states, mode_dims=tuple(m.dim for m in modes)
        )
    if basis.matter_dim != sub_matter.n_states:
        raise ValueError("coupled basis does not match the level selection")
    return _assemble(basis, sub_matter.h_matrix(), sub_tm, modes), basis


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
    eye = sp.identity(size, format="csr", dtype=complex)

    # every bath mode shares one polarization, so one collective operator
    # carries the whole bath-matter coupling
    pols = {mode.polarization for mode in bath_modes}
    if len(pols) != 1:
        raise ValueError(f"bath modes must share one polarization, got {sorted(pols)}")
    (pol,) = pols

    lowering = [bath_ladder(bath, k) for k in range(bath.n_modes)]
    n_total = sum((low.T @ low) * mode.omega for low, mode in zip(lowering, bath_modes))
    zero_point = 0.5 * sum(m.omega for m in bath_modes)
    total = embed(basis, bath_op=(n_total + zero_point * eye).astype(complex))

    # collective displacement sum_k c_k (b_k + b_k^dag) with c_k = lam_k / sqrt(2 w_k),
    # so A_bath = disp e
    weights = [mode.lam / math.sqrt(2.0 * mode.omega) for mode in bath_modes]
    disp = sp.csr_matrix((size, size), dtype=float)
    for c, low in zip(weights, lowering):
        disp = disp + c * (low + low.T)
    disp = disp.astype(complex)
    total = total - embed(basis, matter_op=_momentum_projection(tm, pol), bath_op=disp)

    # diamagnetic main x bath cross terms: lam_a (e_a . e_B) q_a (x) A_B
    for slot, mode in enumerate(main_modes):
        dot = mode.polarization[0] * pol[0] + mode.polarization[1] * pol[1]
        if mode.lam == 0.0 or dot == 0.0:
            continue
        q, _ = quadratures(mode)
        total = total + mode.lam * dot * embed(basis, mode_ops={slot: q}, bath_op=disp)

    # diamagnetic bath x bath: (1/2) sum_{k,l} c_k c_l (b+b^dag)_k (b+b^dag)_l,
    # normal-ordered with the collective B = sum_k c_k b_k:
    # B B + B^dag B + B^dag B + B^dag B^dag + sum_k c_k^2
    coll = sum(c * low for c, low in zip(weights, lowering))
    prod = (coll @ coll + coll.T @ coll + coll.T @ coll + coll.T @ coll.T).astype(complex)
    prod = prod + sum(c * c for c in weights) * eye
    bath_quad = 0.5 * (pol[0] * pol[0] + pol[1] * pol[1]) * prod
    return total + embed(basis, bath_op=bath_quad)


# ---------------------------------------------------------------------------
# pump schemes


@dataclass(frozen=True)
class DriveSpec:
    """External pump: a Gaussian-windowed oscillating current j(t) that either
    drives quantized mode 1 directly (classical_current) or replaces mode 1
    by the classical field it generates (classical_field).

    j(t) = j0 exp(-(t - t0)^2 / tau^2) sin(omega1 t); times and omega1 in
    effective atomic units.  q1_init / q1dot_init seed the homogeneous part
    of the classical field (zero unless configured otherwise).
    """

    kind: str = "none"
    j0: float = 0.0
    t0: float = 0.0
    tau: float = 1.0
    omega1: float = 0.0
    q1_init: float = 0.0
    q1dot_init: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "classical_current", "classical_field"):
            raise ValueError(f"unknown drive kind {self.kind!r}")
        if self.kind != "none":
            if self.tau <= 0:
                raise ValueError("drive width tau must be positive")
            if self.omega1 <= 0:
                raise ValueError("drive carrier omega1 must be positive")

    def current(self, t: float) -> float:
        if self.kind == "none":
            return 0.0
        env = math.exp(-((t - self.t0) ** 2) / self.tau**2)
        return self.j0 * env * math.sin(self.omega1 * t)


class TimeDependentTerm(NamedTuple):
    """Static Hermitian pattern times a scalar time-dependent coefficient."""

    op: sp.csr_matrix
    coeff: Callable[[float], float]


def current_drive_terms(
    basis: CoupledBasis, mode1: FockMode, drive: DriveSpec, slot: int = 0
) -> list[TimeDependentTerm]:
    """H(t) = H_S + A_1 j(t) with A_1 = lam_1 q_1 still quantized."""
    if drive.kind != "classical_current":
        raise ValueError("current_drive_terms requires kind = classical_current")
    q, _ = quadratures(mode1)
    pattern = (mode1.lam * embed(basis, mode_ops={slot: q})).tocsr()
    return [TimeDependentTerm(op=pattern, coeff=drive.current)]


def classical_pump_field(
    drive: DriveSpec, mode1: FockMode, t_grid: np.ndarray
) -> np.ndarray:
    """Classical mode-1 coordinate driven by j(t).

    Retarded solution q1(t) = -(lam1/w1) int_0^t sin(w1 (t-t')) j(t') dt'
    plus the homogeneous part from (q1_init, q1dot_init); trapezoid
    quadrature on t_grid (second-order accurate).
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
    retarded = -(mode1.lam / w) * (np.sin(w * t) * cos_int - np.cos(w * t) * sin_int)
    homogeneous = drive.q1_init * np.cos(w * t) + (drive.q1dot_init / w) * np.sin(w * t)
    return homogeneous + retarded


def field_drive_terms(
    basis: CoupledBasis,
    tm: TransitionMatrices,
    signal_modes: Sequence[FockMode],
    mode1: FockMode,
    drive: DriveSpec,
    t_grid: np.ndarray,
) -> list[TimeDependentTerm]:
    """Classical-field pump: mode 1 leaves the quantized basis and enters as
    A1(t) = lam1 q1(t) with q1 integrated from the drive current.

    H_ext(t) = -A1(t) e1.p + A1(t) [lam2 (e1.e2) q2 + lam3 (e1.e3) q3],

    with every e_a read from the modes' polarization.  The diamagnetic
    c-number A1(t)^2 / 2 is left out: it only shifts the global phase.
    """
    if len(basis.mode_dims) != 2 or len(signal_modes) != 2:
        raise ValueError(
            "classical-field pump requires mode 1 removed from the quantized "
            "basis (two signal modes only)"
        )
    e1 = mode1.polarization
    q1 = classical_pump_field(drive, mode1, t_grid)
    a1 = mode1.lam * q1
    t_ref = np.asarray(t_grid, dtype=float)

    def a1_at(t: float) -> float:
        return float(np.interp(t, t_ref, a1))

    terms = [
        TimeDependentTerm(
            op=embed(basis, matter_op=_momentum_projection(tm, e1)),
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


def calibrate_current_drive(
    matter: MatterEigenbasis,
    tm: TransitionMatrices,
    mode1: FockMode,
    drive: DriveSpec,
    t_check: float,
    target: float = 4.0,
    tol: float = 0.05,
    dt: float = 0.02,
    max_doublings: int = 40,
) -> DriveSpec:
    """Bisect the current amplitude j0 so the pump occupation hits the target.

    Reference run: matter coupled to mode 1 alone (pump along mode 1's
    polarization), started in the coupled ground state and driven until t_check; n1(t_check) grows
    monotonically with j0 in the calibration regime.  Returns the drive with
    j0 replaced by the calibrated value.
    """
    from dataclasses import replace

    from .propagator import CoupledState, PropagatorConfig, ground_state, propagate

    if drive.kind != "classical_current":
        raise ValueError("calibration applies to kind = classical_current")
    if not (0.0 < tol < target):
        raise ValueError("tolerance must be positive and below the target")
    basis = CoupledBasis(matter.n_states, (mode1.dim,))
    h = _assemble(basis, matter.h_matrix(), tm, [mode1])
    _, psi0 = ground_state(h)
    n1_op = embed(basis, mode_ops={0: number_op(mode1).tocsr()})
    config = PropagatorConfig(dt=dt)

    def occupation(j0: float) -> float:
        terms = current_drive_terms(basis, mode1, replace(drive, j0=j0))
        final = propagate(
            h, CoupledState(psi0.copy(), 0.0), t_check, config, terms=terms
        )
        return float(np.real(np.vdot(final.amplitudes, n1_op @ final.amplitudes)))

    hi = drive.j0 if drive.j0 > 0 else 1.0
    lo = 0.0
    n_hi = occupation(hi)
    doublings = 0
    while n_hi < target:
        lo, hi = hi, 2.0 * hi
        n_hi = occupation(hi)
        doublings += 1
        if doublings > max_doublings:
            raise RuntimeError(
                "calibration failed to bracket the target occupation; "
                "check the pulse window against t_check"
            )
    while True:
        mid = 0.5 * (lo + hi)
        n_mid = occupation(mid)
        if abs(n_mid - target) <= tol:
            return replace(drive, j0=mid)
        if n_mid < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, hi):
            raise RuntimeError("calibration bisection stalled without meeting tolerance")
