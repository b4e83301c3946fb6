"""Krylov (Lanczos) propagation of the coupled Schroedinger equation.

A Krylov step applies exp(-i H tau) in a subspace of at most krylov_dim
vectors, grown until the standard subspace-residual estimate drops below
krylov_tol.  The Hamiltonian enters only through matrix-vector products, so
time-dependent terms are applied matrix-free with their scalar coefficients
frozen at the step midpoint (second order in dt, matching the splitting
error).

`propagate` walks the record grid (every record_stride dt, plus the end).
For an undriven run dt sets only that grid: each step aims at the next
record time and, when the subspace cap cannot reach it, is shortened to
the largest span the same error estimate accepts (Expokit-style step
control).  For a driven run dt is the midpoint substep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse.linalg import eigsh

NORM_TOL = 1e-10
# Grid points per pass of the search for the longest accepted span.
_SPAN_GRID = 64
# A shortened step must reach at least this fraction of the span it aimed
# at; a subspace cap far too small for the spectrum would otherwise crawl
# through millions of steps instead of failing.
_MIN_SPAN_FRACTION = 1e-4


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

    dt spaces the record grid (a record every record_stride dt).  Driven
    runs also step by dt, with the drive frozen at each step midpoint;
    undriven runs choose their own steps between records.  krylov_dim caps
    the subspace; krylov_tol bounds the estimated local error per step.
    Norm drift beyond renorm_tol aborts instead of silently renormalizing.
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
class KrylovStats:
    """Work and accuracy of the Krylov steps of one propagation."""

    steps: int = 0
    matvecs: int = 0
    max_dim: int = 0
    max_error: float = 0.0


@dataclass
class PropagationResult:
    """Recorded snapshots, the final state and the Krylov telemetry."""

    final: CoupledState
    times: np.ndarray
    records: dict[str, np.ndarray] = field(default_factory=dict)
    krylov: KrylovStats = field(default_factory=KrylovStats)


def _as_apply(h) -> Callable[[np.ndarray], np.ndarray]:
    matrix = getattr(h, "matrix", None)
    if matrix is not None:
        return lambda v: matrix @ v
    if callable(h):
        return h
    return lambda v: h @ v


def _last_row_weights(theta: np.ndarray, vecs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """|u_m(tau)| for each tau, with u(tau) = exp(-i tau T) e1 from T's eigenpairs."""
    return np.abs(np.exp(-1j * np.outer(taus, theta)) @ (vecs[-1] * vecs[0]))


def _accepted_span(
    theta: np.ndarray, vecs: np.ndarray, beta: float, tau: float, tol: float
) -> float:
    """Largest span up to which the estimate beta |u_m| stays within tol.

    Scans [0, tau] on a grid for the first span the estimate rejects and
    narrows the bracket around it twice more; the estimate grows like
    span^(m - 1) from zero, so the bracket is never empty.
    """
    lo, hi = 0.0, tau
    for _ in range(3):
        grid = lo + (hi - lo) * np.arange(1, _SPAN_GRID + 1) / _SPAN_GRID
        rejected = np.flatnonzero(beta * _last_row_weights(theta, vecs, grid) > tol)
        if rejected.size == 0:
            return hi
        first = rejected[0]
        lo, hi = (grid[first - 1] if first else lo), grid[first]
    return lo


def _lanczos_expm(
    apply_h: Callable[[np.ndarray], np.ndarray],
    psi: np.ndarray,
    tau: float,
    config: PropagatorConfig,
    basis: np.ndarray,
    shorten: bool = False,
) -> tuple[np.ndarray, float, int, float]:
    """exp(-i H t) psi for the span t it reaches; returns (result, t, m, error).

    `basis` is preallocated (krylov_dim, N) storage for the Lanczos vectors.
    The subspace grows until the estimate beta_m |u_m(tau)|, with
    u = exp(-i tau T_m) e1 the propagated tridiagonal problem, meets
    krylov_tol; then t = tau.  When krylov_dim vectors do not reach it, a
    `shorten` step returns the largest t the estimate accepts, from the
    eigenpairs of T_m in hand, and raises only if t falls below
    _MIN_SPAN_FRACTION tau; any other step raises.
    """
    norm0 = np.linalg.norm(psi)
    np.divide(psi, norm0, out=basis[0])
    alphas: list[float] = []
    betas: list[float] = []
    scale = None
    for j in range(config.krylov_dim):
        w = apply_h(basis[j])
        # full reorthogonalization by two classical Gram-Schmidt passes
        # against the whole basis; the first pass also removes the alpha
        # and beta terms of the three-term recurrence
        block = basis[: j + 1]
        coeffs = (block @ w.conj()).conj()
        alpha = float(coeffs[j].real)
        w = w - coeffs @ block
        w -= (block @ w.conj()).conj() @ block
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
        if beta <= 1e-14 * scale:
            # happy breakdown: the subspace is invariant, the result exact
            err = 0.0
            break
        err = beta * float(_last_row_weights(theta, vecs, np.array([tau]))[0])
        if err < config.krylov_tol:
            break
        if j + 1 == config.krylov_dim:
            if not shorten:
                raise RuntimeError(
                    f"Krylov step did not reach local error {config.krylov_tol:.1e} "
                    f"within {config.krylov_dim} vectors (estimate {err:.3e}); "
                    "reduce dt"
                )
            target, tau = tau, _accepted_span(theta, vecs, beta, tau, config.krylov_tol)
            if tau < _MIN_SPAN_FRACTION * target:
                raise RuntimeError(
                    f"Krylov step of {config.krylov_dim} vectors reaches only "
                    f"{tau:.3e} of the span {target:.3e} at local error "
                    f"{config.krylov_tol:.1e}; raise krylov_dim"
                )
            err = beta * float(_last_row_weights(theta, vecs, np.array([tau]))[0])
            break
        betas.append(beta)
        np.divide(w, beta, out=basis[j + 1])
    m = len(alphas)
    u = vecs @ (np.exp(-1j * tau * theta) * vecs[0])
    return norm0 * (u @ basis[:m]), tau, m, err


def _checked_state(psi: np.ndarray, time: float, config: PropagatorConfig) -> CoupledState:
    """The stepped state, renormalized for tiny drift; aborts on larger drift
    and (with NonFiniteAmplitudes) on NaN or Inf amplitudes."""
    if not np.all(np.isfinite(psi.view(float))):
        raise NonFiniteAmplitudes("non-finite amplitudes after a step")
    norm = np.linalg.norm(psi)
    drift = abs(norm - 1.0)
    if drift >= config.renorm_tol:
        raise RuntimeError(
            f"norm drifted by {drift:.3e} in one step (tolerance "
            f"{config.renorm_tol:.1e}); reduce dt or raise krylov_dim"
        )
    return CoupledState(psi / norm, time)


def krylov_step(h, state: CoupledState, dt: float, config: PropagatorConfig) -> CoupledState:
    """One unitary step of exactly dt; raises when krylov_dim vectors cannot
    reach krylov_tol, and on norm drift or non-finite amplitudes."""
    basis = np.empty((config.krylov_dim, state.dim), dtype=complex)
    psi, _, _, _ = _lanczos_expm(_as_apply(h), state.amplitudes, dt, config, basis)
    return _checked_state(psi, state.time + dt, config)


def _record_grid(t0: float, t_final: float, config: PropagatorConfig) -> list[float]:
    """Record times after t0: every record_stride dt, plus t_final."""
    dt = config.dt
    n_full = int(math.floor((t_final - t0) / dt + 1e-9))
    grid = [t0 + k * dt for k in range(config.record_stride, n_full + 1, config.record_stride)]
    if t_final - (t0 + n_full * dt) >= 1e-9 * dt:
        grid.append(t_final)
    elif n_full % config.record_stride:
        grid.append(t0 + n_full * dt)
    return grid


def propagate(
    h,
    state: CoupledState,
    t_final: float,
    config: PropagatorConfig,
    terms: Sequence = (),
    observables: Mapping[str, Callable[[CoupledState], complex]] | None = None,
) -> CoupledState | PropagationResult:
    """Propagate to t_final through the record grid of `config`.

    Undriven runs (no `terms`) step from record time to record time,
    shortening a step only when krylov_dim vectors cannot reach krylov_tol.
    `terms` are (op, coeff) pairs added to h with coeff evaluated at each
    step midpoint; driven runs step by dt (one trailing short step if
    needed).  With `observables` given, snapshots are recorded at the start
    and at every record time and a PropagationResult is returned; otherwise
    just the final CoupledState.

    A non-finite amplitude aborts with the time of the failed step and of
    the last good state.
    """
    apply_static = _as_apply(h)
    if t_final < state.time:
        raise ValueError("t_final lies before the state's current time")
    eps = 1e-9 * config.dt
    basis = np.empty((config.krylov_dim, state.dim), dtype=complex)
    stats = KrylovStats()

    record = observables is not None
    times: list[float] = []
    records: dict[str, list[complex]] = {name: [] for name in (observables or {})}

    def snapshot(s: CoupledState) -> None:
        times.append(s.time)
        for name, func in (observables or {}).items():
            records[name].append(func(s))

    if record:
        snapshot(state)

    for stop in _record_grid(state.time, t_final, config):
        while stop - state.time > eps:
            tau = stop - state.time
            if terms:
                tau = min(tau, config.dt)
                t_mid = state.time + 0.5 * tau
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
                psi, tau, dim, err = _lanczos_expm(
                    apply, state.amplitudes, tau, config, basis, shorten=not terms
                )
                t_next = stop if stop - (state.time + tau) <= eps else state.time + tau
                state = _checked_state(psi, t_next, config)
            except NonFiniteAmplitudes:
                raise RuntimeError(
                    f"non-finite amplitudes at t = {state.time + tau:.6f}; "
                    f"last good state at t = {state.time:.6f}"
                ) from None
            stats.steps += 1
            stats.matvecs += dim
            stats.max_dim = max(stats.max_dim, dim)
            stats.max_error = max(stats.max_error, err)
        if record:
            snapshot(state)

    if not record:
        return state
    return PropagationResult(
        final=state,
        times=np.asarray(times, dtype=float),
        records={name: np.asarray(vals) for name, vals in records.items()},
        krylov=stats,
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
