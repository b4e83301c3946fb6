"""Maxwell-Schrodinger baseline: matter wavefunction + classical mode coordinates.

The factorized ansatz replaces each quantized mode by a classical pair
(q_a, p_a).  The matter state evolves under H_MS([q]) = H_el - A.p with the
c-number vector potential A = sum_a lam_a q_a e_a, while each coordinate obeys
the mode-resolved oscillator equation  q''_a + w_a^2 q_a = j_a  whose current

    j_a = lam_a e_a . <p>  -  lam_a e_a . A

carries the paramagnetic momentum projection and the diamagnetic self and
cross terms.  These currents are exactly the gradients of the conserved
functional  <H_el> - A.<p> + |A|^2/2 + sum_a (p_a^2 + w_a^2 q_a^2)/2,
so undriven energy conservation doubles as the integrator's oracle.

One step interleaves a symplectic kick-drift update of (q, p) with an exact
step of the matter factor under the midpoint Hamiltonian: the matter lives in
the ring eigenbasis, so H_MS is a small dense Hermitian matrix and the step is
exp(-i H_MS dt) from its eigendecomposition.  The drift is the exact
free-oscillator rotation, so the scheme is second-order overall and keeps the
oscillator energy structure over long runs.  Mean-field runs record the same
named series columns as the quantum methods, less the Fock populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .observables import OCCUPATION_FLOOR, _column_table
from .photon import FockMode
from .propagator import NORM_TOL, NonFiniteAmplitudes


@dataclass
class MeanFieldState:
    """Matter amplitudes plus one classical (q, p) pair per mode."""

    amplitudes: np.ndarray
    q: np.ndarray
    p: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        self.q = np.asarray(self.q, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.q.shape != self.p.shape or self.q.ndim != 1:
            raise ValueError("q and p must be matching 1-d coordinate arrays")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"matter norm deviates from 1 by {abs(norm - 1.0):.3e}")

    @property
    def n_modes(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class MeanFieldSystem:
    """Matter operators plus the classical-mode couplings and geometry."""

    h_matter: object
    px: object
    py: object
    modes: tuple[FockMode, ...]

    def __post_init__(self):
        if len(self.modes) < 1:
            raise ValueError("at least one classical mode required")

    @property
    def omegas(self) -> np.ndarray:
        return np.array([m.omega for m in self.modes])

    @property
    def lams(self) -> np.ndarray:
        return np.array([m.lam for m in self.modes])

    @property
    def pols(self) -> np.ndarray:
        return np.array([m.polarization for m in self.modes])

    def coupling_matrix(self) -> np.ndarray:
        """G_ab = lam_a lam_b (e_a . e_b); the diamagnetic block of j = P - G q."""
        lam = self.lams
        e = self.pols
        return np.outer(lam, lam) * (e @ e.T)


def coherent_initials(xi: complex, omega: float) -> tuple[float, float]:
    """Classical (q, p) matching the coherent-state means <q> and <p>.

    The c-number ladder variable a = (w q + i p)/sqrt(2 w) equals xi exactly
    for this pair, so the classical mode starts with |a|^2 = |xi|^2 quanta.
    """
    xi = complex(xi)
    return (
        math.sqrt(2.0 / omega) * xi.real,
        math.sqrt(2.0 * omega) * xi.imag,
    )


def initial_state(matter_vec, system: MeanFieldSystem, xis) -> MeanFieldState:
    """Product start: normalized matter vector plus one coherent amplitude per mode."""
    if len(xis) != len(system.modes):
        raise ValueError("one coherent amplitude per mode required")
    vec = np.asarray(matter_vec, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm == 0:
        raise ValueError("matter vector must be nonzero")
    pairs = [coherent_initials(xi, m.omega) for xi, m in zip(xis, system.modes)]
    q = np.array([pair[0] for pair in pairs])
    p = np.array([pair[1] for pair in pairs])
    return MeanFieldState(vec / norm, q, p)


def momentum_expectation(system: MeanFieldSystem, amplitudes: np.ndarray) -> np.ndarray:
    psi = amplitudes
    return np.array(
        [
            float(np.vdot(psi, system.px @ psi).real),
            float(np.vdot(psi, system.py @ psi).real),
        ]
    )


def vector_potential(system: MeanFieldSystem, q: np.ndarray) -> np.ndarray:
    return (system.lams * q) @ system.pols


def currents(system: MeanFieldSystem, p_exp: np.ndarray, q: np.ndarray) -> np.ndarray:
    """j_a = lam_a e_a . <p>  -  lam_a e_a . A: paramagnetic drive plus the
    diamagnetic self and cross pull-back of every classical coordinate."""
    para = system.lams * (system.pols @ p_exp)
    return para - system.coupling_matrix() @ q


def ms_hamiltonian(system: MeanFieldSystem, q: np.ndarray):
    """H_MS([q]) = H_el - A(q) . p with the c-number vector potential."""
    ax, ay = vector_potential(system, q)
    h = system.h_matter
    if ax != 0.0:
        h = h - ax * system.px
    if ay != 0.0:
        h = h - ay * system.py
    return h


def energy_functional(state: MeanFieldState, system: MeanFieldSystem) -> float:
    """<H_el> - A.<p> + |A|^2/2 + classical oscillator energies; conserved undriven."""
    psi = state.amplitudes
    e_matter = float(np.vdot(psi, system.h_matter @ psi).real)
    a_vec = vector_potential(system, state.q)
    p_exp = momentum_expectation(system, psi)
    classical = 0.5 * float(np.sum(state.p**2 + system.omegas**2 * state.q**2))
    return e_matter - float(a_vec @ p_exp) + 0.5 * float(a_vec @ a_vec) + classical


def _free_rotation(q: np.ndarray, p: np.ndarray, omegas: np.ndarray, dt: float):
    c = np.cos(omegas * dt)
    s = np.sin(omegas * dt)
    return q * c + (p / omegas) * s, p * c - omegas * q * s


def ms_step(state: MeanFieldState, system: MeanFieldSystem, dt: float) -> MeanFieldState:
    """One second-order step of the coupled quantum-classical system.

    Symplectic kick-drift for (q, p) around an exact midpoint step of the
    matter factor: half kick with the current (the exact gradient of the
    frozen interaction potential -q.b + q^T G q / 2), half drift as the
    exact free-oscillator rotation, matter step exp(-i H_MS(q_mid) dt) by
    eigendecomposition, second half drift, half kick with the refreshed
    momentum expectation.  With all couplings zero the classical flow is exact.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")

    p_exp = momentum_expectation(system, state.amplitudes)
    p_kicked = state.p + 0.5 * dt * currents(system, p_exp, state.q)
    q_mid, p_mid = _free_rotation(state.q, p_kicked, system.omegas, 0.5 * dt)
    if not np.all(np.isfinite(q_mid)):
        raise NonFiniteAmplitudes(f"classical coordinates went non-finite at t = {state.time}")

    energies, vecs = np.linalg.eigh(ms_hamiltonian(system, q_mid))
    amplitudes = vecs @ (np.exp(-1j * dt * energies) * (vecs.conj().T @ state.amplitudes))

    q_new, p_rot = _free_rotation(q_mid, p_mid, system.omegas, 0.5 * dt)
    if not np.all(np.isfinite(q_new)):
        raise NonFiniteAmplitudes(f"classical coordinates went non-finite at t = {state.time}")
    p_exp_new = momentum_expectation(system, amplitudes)
    p_new = p_rot + 0.5 * dt * currents(system, p_exp_new, q_new)
    if not np.all(np.isfinite(p_new)):
        raise NonFiniteAmplitudes(f"classical momenta went non-finite at t = {state.time}")

    return MeanFieldState(amplitudes, q_new, p_new, state.time + dt)


def propagate_mf(
    state: MeanFieldState,
    system: MeanFieldSystem,
    t_final: float,
    dt: float,
    record_stride: int = 1,
) -> tuple[MeanFieldState, np.ndarray, list[MeanFieldState]]:
    """Step to t_final recording every record_stride-th state (plus both ends)."""
    if t_final < state.time:
        raise ValueError("t_final lies before the state's current time")
    n_steps = int(round((t_final - state.time) / dt))
    times = [state.time]
    snaps = [state]
    for k in range(n_steps):
        state = ms_step(state, system, dt)
        if (k + 1) % record_stride == 0 or k == n_steps - 1:
            times.append(state.time)
            snaps.append(state)
    return state, np.asarray(times), snaps


def mf_mode_occupation(state: MeanFieldState, system: MeanFieldSystem, mode: int) -> float:
    """n = H/w - 1/2 from the zero-point-shifted classical mode energy."""
    w = system.modes[mode].omega
    h = 0.5 * (state.p[mode] ** 2 + w**2 * state.q[mode] ** 2) + 0.5 * w
    return h / w - 0.5


def mf_ladder_amplitude(state: MeanFieldState, system: MeanFieldSystem, mode: int) -> complex:
    """c-number a = (w q + i p)/sqrt(2 w); |a|^2 reproduces the occupation."""
    w = system.modes[mode].omega
    return (w * state.q[mode] + 1j * state.p[mode]) / math.sqrt(2.0 * w)


def mf_observables(state: MeanFieldState, system: MeanFieldSystem) -> dict[str, float]:
    """Mean-field series row: the column_names columns without Fock populations.

    Q and g2 are emitted as the literal constants 0 and 1 (NaN below the
    occupation floor): the c-number algebra makes them identically so, and
    computed noise would misrepresent the method.  The factorized ansatz
    likewise fixes every subsystem purity at exactly 1.
    """
    n_modes = len(system.modes)
    occs = [mf_mode_occupation(state, system, m) for m in range(n_modes)]
    defined = [n >= OCCUPATION_FLOOR for n in occs]
    value = {
        "occupations": lambda m: occs[m],
        "mandel": lambda m: 0.0 if defined[m] else float("nan"),
        "g2": lambda ab: 1.0 if defined[ab[0]] and defined[ab[1]] else float("nan"),
        "purities": lambda m: 1.0,
        "energies": lambda m: system.modes[m].omega * (occs[m] + 0.5),
    }
    return {name: value[field](key) for name, field, key in _column_table(n_modes, (), 1)}
