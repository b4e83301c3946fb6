"""Krylov (Lanczos) propagation of the coupled Schroedinger equation.

A step applies exp(-i H dt) in a small Krylov subspace grown adaptively
until the standard subspace-residual estimate drops below krylov_tol.  The
Hamiltonian enters only through matrix-vector products, so time-dependent
terms are applied matrix-free with their scalar coefficients frozen at the
step midpoint (second order in dt, matching the splitting error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

NORM_TOL = 1e-10


class NonFiniteAmplitudes(RuntimeError):
    """NaN or Inf appeared while applying the Hamiltonian."""


@dataclass
class CoupledState:
    """Normalized amplitudes on a coupled basis at a given time."""

    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {NORM_TOL}")

    @classmethod
    def normalized(cls, amplitudes: np.ndarray, time: float = 0.0) -> "CoupledState":
        amplitudes = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amplitudes)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(amplitudes / norm, time)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


@dataclass(frozen=True)
class PropagatorConfig:
    """dt and Krylov controls, all in effective atomic units of time.

    krylov_dim caps the adaptive subspace; krylov_tol bounds the estimated
    local error per step.  Norm drift beyond renorm_tol aborts instead of
    silently renormalizing.
    """

    dt: float
    krylov_dim: int = 20
    krylov_tol: float = 1e-10
    record_stride: int = 1
    renorm_tol: float = 1e-8

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.krylov_dim < 2:
            raise ValueError("krylov_dim must be at least 2")
        if self.krylov_tol <= 0:
            raise ValueError("krylov_tol must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass
class PropagationResult:
    """Recorded snapshots plus the final state."""

    final: CoupledState
    times: np.ndarray
    records: dict[str, np.ndarray] = field(default_factory=dict)


def _as_apply(h) -> Callable[[np.ndarray], np.ndarray]:
    matrix = getattr(h, "matrix", None)
    if matrix is not None:
        return lambda v: matrix @ v
    if callable(h):
        return h
    return lambda v: h @ v


def _lanczos_expm(
    apply_h: Callable[[np.ndarray], np.ndarray],
    psi: np.ndarray,
    dt: float,
    config: PropagatorConfig,
) -> np.ndarray:
    """exp(-i H dt) psi with adaptive subspace size.

    Error estimate: beta_m |u_m| with u = exp(-i dt T_m) e1, the last-row
    weight of the propagated tridiagonal problem (subspace residual).
    """
    norm0 = np.linalg.norm(psi)
    v = psi / norm0
    basis = [v]
    alphas: list[float] = []
    betas: list[float] = []
    scale = None
    u = None
    for j in range(config.krylov_dim):
        w = apply_h(basis[j])
        alpha = float(np.real(np.vdot(basis[j], w)))
        w = w - alpha * basis[j]
        if j > 0:
            w = w - betas[-1] * basis[j - 1]
        # full reorthogonalization; the subspace never exceeds krylov_dim
        for b in basis:
            w = w - np.vdot(b, w) * b
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise NonFiniteAmplitudes(
                "non-finite amplitudes while building the Krylov subspace"
            )
        if scale is None:
            scale = max(abs(alpha), beta, 1.0)
        if len(alphas) == 1:
            theta = np.array([alphas[0]])
            vecs = np.array([[1.0]])
        else:
            theta, vecs = eigh_tridiagonal(alphas, betas)
        phase = np.exp(-1j * dt * theta)
        u = vecs @ (phase * vecs[0].conj())
        if beta <= 1e-14 * scale:
            # happy breakdown: the subspace is invariant, the result exact
            break
        err = beta * abs(u[-1])
        if err < config.krylov_tol:
            break
        if j + 1 == config.krylov_dim:
            raise RuntimeError(
                f"Krylov step did not reach local error {config.krylov_tol:.1e} "
                f"within {config.krylov_dim} vectors (estimate {err:.3e}); "
                "reduce dt"
            )
        betas.append(beta)
        basis.append(w / beta)
    out = np.zeros_like(psi)
    for coeff, b in zip(u, basis):
        out += coeff * b
    return norm0 * out


def krylov_step(h, state: CoupledState, dt: float, config: PropagatorConfig) -> CoupledState:
    """One unitary step; renormalizes only tiny drift, aborts on larger drift
    and (with NonFiniteAmplitudes) on NaN or Inf amplitudes."""
    psi = _lanczos_expm(_as_apply(h), state.amplitudes, dt, config)
    if not np.all(np.isfinite(psi.view(float))):
        raise NonFiniteAmplitudes("non-finite amplitudes after a step")
    norm = np.linalg.norm(psi)
    drift = abs(norm - 1.0)
    if drift >= config.renorm_tol:
        raise RuntimeError(
            f"norm drifted by {drift:.3e} in one step (tolerance "
            f"{config.renorm_tol:.1e}); reduce dt or raise krylov_dim"
        )
    return CoupledState(psi / norm, state.time + dt)


def propagate(
    h,
    state: CoupledState,
    t_final: float,
    config: PropagatorConfig,
    terms: Sequence = (),
    observables: Mapping[str, Callable[[CoupledState], complex]] | None = None,
) -> CoupledState | PropagationResult:
    """Propagate to t_final with fixed dt (one trailing short step if needed).

    `terms` are (op, coeff) pairs added to h with coeff evaluated at each
    step midpoint.  With `observables` given, snapshots are recorded every
    record_stride steps (plus start and end) and a PropagationResult is
    returned; otherwise just the final CoupledState.

    A non-finite amplitude aborts with the time of the failed step and of
    the last good state.
    """
    apply_static = _as_apply(h)
    span = t_final - state.time
    if span < 0:
        raise ValueError("t_final lies before the state's current time")
    n_full = int(math.floor(span / config.dt + 1e-9))
    remainder = span - n_full * config.dt
    if remainder < 1e-9 * config.dt:
        remainder = 0.0
    n_steps = n_full + (1 if remainder else 0)

    record = observables is not None
    times: list[float] = []
    records: dict[str, list[complex]] = {name: [] for name in (observables or {})}

    def snapshot(s: CoupledState) -> None:
        times.append(s.time)
        for name, func in (observables or {}).items():
            records[name].append(func(s))

    if record:
        snapshot(state)

    for k in range(n_steps):
        dt_k = config.dt if k < n_full else remainder
        if terms:
            t_mid = state.time + 0.5 * dt_k
            coeffs = [(term[0], term[1](t_mid)) for term in terms]

            def apply(v, _c=coeffs):
                out = apply_static(v)
                for op, c in _c:
                    if c != 0.0:
                        out = out + c * (op @ v)
                return out

        else:
            apply = apply_static
        try:
            state = krylov_step(apply, state, dt_k, config)
        except NonFiniteAmplitudes:
            raise RuntimeError(
                f"non-finite amplitudes at t = {state.time + dt_k:.6f}; "
                f"last good state at t = {state.time:.6f}"
            ) from None
        if record and ((k + 1) % config.record_stride == 0 or k + 1 == n_steps):
            snapshot(state)

    if not record:
        return state
    return PropagationResult(
        final=state,
        times=np.asarray(times, dtype=float),
        records={name: np.asarray(vals) for name, vals in records.items()},
    )


def ground_state(h, tol: float = 0.0) -> tuple[float, np.ndarray]:
    """Lowest eigenpair by iterative Hermitian solve, residual below 1e-9."""
    matrix = getattr(h, "matrix", h)
    if matrix.shape[0] == 1:
        return float(np.real(matrix[0, 0])), np.ones(1, dtype=complex)
    try:
        vals, vecs = eigsh(matrix, k=1, which="SA", tol=tol)
    except Exception as exc:
        raise RuntimeError(f"ground-state solve did not converge: {exc}") from exc
    energy = float(vals[0])
    vec = vecs[:, 0].astype(complex)
    vec /= np.linalg.norm(vec)
    residual = np.linalg.norm(matrix @ vec - energy * vec)
    if residual >= 1e-9:
        raise RuntimeError(
            f"ground-state residual {residual:.3e} above 1e-9; solver did not converge"
        )
    # fix the global phase: largest amplitude real positive
    pivot = np.argmax(np.abs(vec))
    vec *= np.exp(-1j * np.angle(vec[pivot]))
    return energy, vec
