"""Chebyshev propagation of the coupled Schroedinger equation.

When [c - R, c + R] contains the spectrum of H (Tal-Ezer & Kosloff, J. Chem.
Phys. 81, 3967 (1984); Leforestier et al., J. Comput. Phys. 94, 59 (1991)),

    exp(-i H tau) = exp(-i c tau) sum_k a_k (-i)^k J_k(R tau) T_k((H - c) / R),

with a_0 = 1 and a_k = 2 otherwise.  The vectors phi_k = (-i)^k T_k psi
follow the three-term recurrence

    phi_{k+1} = phi_{k-1} - 2 i ((H - c) / R) phi_k,

one application of H each and without reorthogonalization, and the series
sum_k a_k J_k(R tau) phi_k has real coefficients.  Every |T_k| <= 1 on the
interval, so 2 sum_{k>K} |J_k(R tau)| bounds the error of stopping at order
K; the series stops at the first K whose tail is below
krylov_tol * TAIL_MARGIN.  The interval must be rigorous, or the series
diverges: spectral_bounds gives the Gershgorin interval of a sparse
symmetric matrix.

H is real symmetric (the hamiltonian module builds it so), and the state is
complex.  Each phi_k is kept as two contiguous float rows, its real part x
and its imaginary part y, and H is applied to each row on its own:
-i (H - c)(x + i y) = (H - c) y - i (H - c) x.  A real CSR times a real
vector reads 12 bytes per stored entry where a complex CSR read 24, and
scipy would upcast a real matrix to complex on every product with a complex
vector, so two real products beat one complex product once H outgrows the
cache.  One application of H to the state is two products, whether h is a
matrix or a callable, so a counting wrapper sees every product.  propagate
and ground_state refuse a complex matrix (ValueError), and propagate refuses
a callable h that returns complex values.

propagate walks the record grid (every record_stride dt, plus the end).  An
undriven run takes one expansion per record interval.  A driven run steps
by dt with each drive coefficient frozen at the step midpoint (second order
in dt), on an interval widened by sum_k |c_k(t_mid)| ||op_k||_inf, which by
Weyl's inequality contains the spectrum of H + sum_k c_k op_k.  propagate
returns the final state, the record times, one record per observable and
the expansion telemetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh
from scipy.special import jv

NORM_TOL = 1e-10
# Norm drift in one step beyond this aborts instead of silently renormalizing.
RENORM_TOL = 1e-8
# The dropped tail of one expansion is bounded by krylov_tol times this.  The
# tails of successive expansions add up: at the default krylov_tol, a margin
# of 1 let a 20-step run drift from a dense expm by 8.7e-10 and a bath run's
# sector propagation from its full one by 3.3e-7 (both gated at 1e-10), and
# 1e-3 left 1.5e-13 of population drift in 50 steps of a diagonal H, where an
# exact step keeps populations to 1e-13.
TAIL_MARGIN = 1e-5
# Complex vectors of the state's length (or pairs of float rows) alive at once
# while an undriven step runs: the state, the expansion's sum, its two
# recurrence vectors, one scratch row with the product H @ row, and the
# result.
WORK_VECTORS = 6


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


@dataclass(frozen=True)
class PropagatorConfig:
    """dt and the expansion tolerance, in effective atomic units of time.

    dt spaces the record grid (a record every record_stride dt).  Driven
    runs also step by dt, with the drive frozen at each step midpoint;
    undriven runs take one expansion per record interval.  krylov_tol
    bounds the dropped Chebyshev tail of each expansion (times TAIL_MARGIN).
    """

    dt: float
    krylov_tol: float = 1e-10
    record_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.krylov_tol <= 0:
            raise ValueError("krylov_tol must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass
class KrylovStats:
    """Work and accuracy of the expansions of one propagation: the largest
    order and dropped-tail bound used, and the interval [lo, hi] of the
    static Hamiltonian."""

    steps: int = 0
    matvecs: int = 0
    max_order: int = 0
    max_error: float = 0.0
    spectral_bounds: tuple[float, float] | None = None


@dataclass
class PropagationResult:
    """Recorded snapshots, the final state and the expansion telemetry."""

    final: CoupledState
    times: np.ndarray
    records: dict[str, np.ndarray] = field(default_factory=dict)
    krylov: KrylovStats = field(default_factory=KrylovStats)


# stored entries per chunk of rows in _abs_row_sums
_ROW_CHUNK = 2**20


def _abs_row_sums(h: sp.spmatrix) -> np.ndarray:
    """sum_j |h[i, j]| per row, over chunks of about _ROW_CHUNK stored entries."""
    h = sp.csr_matrix(h)  # no copy of a CSR input
    ones = np.ones(h.shape[1])
    cuts = np.searchsorted(h.indptr, np.arange(_ROW_CHUNK, h.nnz, _ROW_CHUNK))
    bounds = np.unique(np.concatenate(([0], cuts, [h.shape[0]])))
    sums = np.empty(h.shape[0])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        start, stop = h.indptr[lo], h.indptr[hi]
        rows = sp.csr_matrix(
            (np.abs(h.data[start:stop]), h.indices[start:stop], h.indptr[lo : hi + 1] - start),
            (hi - lo, h.shape[1]),
        )
        sums[lo:hi] = rows @ ones
    return sums


def spectral_bounds(h: sp.spmatrix) -> tuple[float, float]:
    """Gershgorin interval (lo, hi) of the symmetric sparse matrix h: every
    eigenvalue lies in it.  |h| is summed a chunk of rows at a time, so no
    full-size copy of h is made; each row adds the same values in the same
    order as one whole-matrix product would."""
    diag = h.diagonal()
    radius = _abs_row_sums(h) - np.abs(diag)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def _chebyshev_coefficients(z: float, cutoff: float) -> tuple[np.ndarray, float]:
    """(a_k J_k(z) for k = 0..K, tail bound 2 sum_{k>K} |J_k(z)|), with K the
    lowest order whose tail bound is below cutoff."""
    if not math.isfinite(z):
        raise NonFiniteAmplitudes("non-finite spectral interval")
    if z == 0.0:
        return np.ones(1), 0.0

    def beyond(n: int) -> float:
        # 2 sum_{k>n} |J_k(z)| for n >= z, from |J_k(z)| <= (z/2)^k / k!
        return 4.0 * math.exp((n + 1) * math.log(z / 2.0) - math.lgamma(n + 2))

    n = math.ceil(z) + 16
    while beyond(n) > 1e-3 * cutoff:
        n += 16
    bessel = jv(np.arange(n + 1), z)
    magnitude = np.abs(bessel)
    # tail[k] = 2 sum_{m>k} |J_m(z)|, falling with k
    tail = 2.0 * (np.cumsum(magnitude[::-1])[::-1] - magnitude) + beyond(n)
    order = int(np.argmax(tail <= cutoff))
    coeffs = 2.0 * bessel[: order + 1]
    coeffs[0] = bessel[0]
    return coeffs, float(tail[order])


def _chebyshev_expm(
    apply_h: Callable[[np.ndarray], np.ndarray],
    psi: np.ndarray,
    tau: float,
    center: float,
    radius: float,
    cutoff: float,
) -> tuple[np.ndarray, int, float]:
    """(exp(-i H tau) psi, order, tail bound) for the real symmetric H with
    its spectrum in [center - radius, center + radius]; the dropped tail is
    below cutoff times |psi|.  apply_h is applied to one float row at a
    time, twice per order."""
    coeffs, tail = _chebyshev_coefficients(radius * tau, cutoff)
    prev = np.stack((psi.real, psi.imag))  # phi_0: rows (real, imaginary)
    out = coeffs[0] * prev
    scratch = np.empty(psi.size)

    def add_rotated(v: np.ndarray, scale: float, dest: np.ndarray) -> None:
        # dest += scale (-i (H - center) v): the real row gains (H - center)
        # times the imaginary row, the imaginary row loses it times the real one
        for row, src, sign in ((0, 1, scale), (1, 0, -scale)):
            product = apply_h(v[src])
            if np.iscomplexobj(product):
                raise ValueError(
                    "H @ v returned complex values; propagate needs a real symmetric H"
                )
            dest[row] += np.multiply(product, sign, out=scratch)
            dest[row] -= np.multiply(v[src], sign * center, out=scratch)

    def accumulate(v: np.ndarray, c: float) -> None:
        for row in (0, 1):
            out[row] += np.multiply(v[row], c, out=scratch)

    if len(coeffs) > 1:
        cur = np.zeros_like(prev)
        add_rotated(prev, 1.0 / radius, cur)
        accumulate(cur, coeffs[1])
        for c in coeffs[2:]:
            add_rotated(cur, 2.0 / radius, prev)  # prev now holds phi_{k+1}
            prev, cur = cur, prev
            accumulate(cur, c)
    result = np.empty(psi.size, dtype=complex)
    result.real, result.imag = out
    result *= np.exp(-1j * center * tau)
    return result, len(coeffs) - 1, tail


def _checked_state(psi: np.ndarray, time: float) -> CoupledState:
    """The stepped state, renormalized for tiny drift; aborts on larger drift
    and (with NonFiniteAmplitudes) on NaN or Inf amplitudes."""
    if not np.all(np.isfinite(psi.view(float))):
        raise NonFiniteAmplitudes("non-finite amplitudes after a step")
    norm = np.linalg.norm(psi)
    drift = abs(norm - 1.0)
    if drift >= RENORM_TOL:
        raise RuntimeError(
            f"norm drifted by {drift:.3e} in one step (tolerance "
            f"{RENORM_TOL:.1e}); the spectral bounds miss part of the spectrum"
        )
    return CoupledState(psi / norm, time)


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
    bounds: tuple[float, float] | None = None,
) -> PropagationResult:
    """Propagate to t_final through the record grid of `config`.

    `h` is the static real symmetric Hamiltonian as a sparse matrix, or a
    callable that returns `h @ v` for a real vector v; a complex matrix, a
    complex term operator or a callable that returns complex values is
    refused (ValueError).  `bounds` is an interval (lo, hi) containing its
    spectrum; None takes spectral_bounds(h), which a callable h cannot give.
    Undriven runs (no `terms`) take one expansion per record interval.
    `terms` are (op, coeff) pairs added to h with coeff evaluated at each
    step midpoint; driven runs step by dt (one trailing short step if
    needed).  Each of `observables` is recorded at the start and at every
    record time; without observables the records are empty.

    A non-finite amplitude aborts with the time of the failed step and of
    the last good state.
    """
    if t_final < state.time:
        raise ValueError("t_final lies before the state's current time")
    operators = [term[0] for term in terms] if callable(h) else [h, *(term[0] for term in terms)]
    if any(np.iscomplexobj(op) for op in operators):
        raise ValueError("propagate needs a real symmetric H and real drive terms")
    if bounds is None:
        if callable(h):
            raise ValueError("a callable h needs its spectral bounds")
        bounds = spectral_bounds(h)
    apply_static = h if callable(h) else (lambda v: h @ v)
    lo, hi = bounds
    center, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    norms = [float(_abs_row_sums(term[0]).max()) for term in terms]
    cutoff = config.krylov_tol * TAIL_MARGIN
    eps = 1e-9 * config.dt
    stats = KrylovStats(spectral_bounds=(float(lo), float(hi)))

    observables = observables or {}
    times: list[float] = []
    records: dict[str, list[complex]] = {name: [] for name in observables}

    def snapshot(s: CoupledState) -> None:
        times.append(s.time)
        for name, func in observables.items():
            records[name].append(func(s))

    snapshot(state)

    for stop in _record_grid(state.time, t_final, config):
        while stop - state.time > eps:
            tau = stop - state.time
            apply, width = apply_static, radius
            if terms:
                tau = min(tau, config.dt)
                t_mid = state.time + 0.5 * tau
                coeffs = [(term[0], term[1](t_mid)) for term in terms]
                width += sum(abs(c) * norm for (_, c), norm in zip(coeffs, norms))

                def apply(v, _c=coeffs):
                    out = apply_static(v)
                    for op, c in _c:
                        if c != 0.0:
                            out = out + c * (op @ v)
                    return out

            t_next = stop if stop - (state.time + tau) <= eps else state.time + tau
            try:
                psi, order, err = _chebyshev_expm(
                    apply, state.amplitudes, tau, center, width, cutoff
                )
                state = _checked_state(psi, t_next)
            except NonFiniteAmplitudes:
                raise RuntimeError(
                    f"non-finite amplitudes at t = {t_next:.6f}; "
                    f"last good state at t = {state.time:.6f}"
                ) from None
            stats.steps += 1
            stats.matvecs += order
            stats.max_order = max(stats.max_order, order)
            stats.max_error = max(stats.max_error, err)
        snapshot(state)

    return PropagationResult(
        final=state,
        times=np.asarray(times, dtype=float),
        records={name: np.asarray(vals) for name, vals in records.items()},
        krylov=stats,
    )


def ground_state(h) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the real symmetric sparse matrix h by iterative
    solve, residual below 1e-9; the vector comes back complex, its largest
    amplitude positive.  A complex h is refused (ValueError)."""
    if np.iscomplexobj(h):
        raise ValueError("ground_state needs a real symmetric H")
    if h.shape[0] == 1:
        return float(h[0, 0]), np.ones(1, dtype=complex)
    # a fixed random start vector: ARPACK's own draw changes from call to
    # call, and a flat vector can be orthogonal to a symmetric ground state
    v0 = np.random.default_rng(0).standard_normal(h.shape[0])
    try:
        vals, vecs = eigsh(h, k=1, which="SA", v0=v0)
    except Exception as exc:
        raise RuntimeError(f"ground-state solve did not converge: {exc}") from exc
    energy = float(vals[0])
    vec = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    residual = np.linalg.norm(h @ vec - energy * vec)
    if residual >= 1e-9:
        raise RuntimeError(
            f"ground-state residual {residual:.3e} above 1e-9; solver did not converge"
        )
    # fix the sign: largest amplitude positive
    vec *= np.sign(vec[np.argmax(np.abs(vec))])
    return energy, vec.astype(complex)
