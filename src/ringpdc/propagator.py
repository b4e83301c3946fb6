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
K; the series stops at the first K whose tail is below TAIL_TOL.  The
interval must be rigorous, or the series diverges: spectral_bounds gives
the Gershgorin interval of a sparse symmetric matrix.

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

propagate walks the record grid (every record_stride dt, plus the end).  The
vectors phi_k do not depend on tau, so an undriven run evaluates a window of
consecutive record times from one recurrence (Kosloff, Annu. Rev. Phys.
Chem. 45, 145 (1994)): each record j keeps its own sum with its own
coefficients a_k J_k(R tau_j) and its own tail bound, and the recurrence
runs to the highest order any of them needs.  The window size
(_window_size) trades the tail of orders that every expansion pays past
R tau against the records' multiply-adds, and is worked out from the record
times, R and the cutoff alone, so a matrix h and a callable h take the same
windows and give bit-identical records.  Each
record is checked and renormalized, and the next window starts from the
last record of the previous one.  A driven run steps by dt with each drive
coefficient frozen at the step midpoint (second order in dt), on an
interval widened by sum_k |c_k(t_mid)| ||op_k||_inf, which by Weyl's
inequality contains the spectrum of H + sum_k c_k op_k.  propagate returns
the final state, the record times, one record per observable, the time
spent in the observers and the expansion telemetry.

An undriven CSR h of at least SPLIT_ROWS rows that no stored entry crosses
at some row (the builders lay out two inversion sectors that way, one after
the other) is propagated as two row blocks, cut where the stored entries
split most evenly, on a fixed pool of two threads.  Each block runs the
recurrence on its own rows of shared full-length vectors: it reads only its
own columns and writes only its own rows, so the threads meet once per
window, and each row of every record is the same to the last bit as from
one block.  Each record is still checked and renormalized over the whole
vector, its norm summed in the order the caller gives.  A callable h, a
driven run, or an h that is small or has no such cut runs as one block on
the calling thread.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh
from scipy.special import jv

NORM_TOL = 1e-10
# Norm drift in one step beyond this aborts instead of silently renormalizing.
RENORM_TOL = 1e-8
# The dropped tail of one expansion is bounded by this.  The tails of
# successive expansions add up: a bound of 1e-10 let a 20-step run drift from
# a dense expm by 8.7e-10 and a bath run's sector propagation from its full
# one by 3.3e-7 (both gated at 1e-10), and 1e-13 left 1.5e-13 of population
# drift in 50 steps of a diagonal H, where an exact step keeps populations to
# 1e-13.
TAIL_TOL = 1e-15
# Complex vectors of the state's length (or pairs of float rows) alive at once
# while one expansion runs, beside the sums of its window's records: the
# state, its two recurrence vectors, one scratch row with the product H @ row,
# and the result.
WORK_VECTORS = 6
# Records one undriven expansion evaluates at most.  Each holds a sum of two
# float rows of the state's length while the window runs.
WINDOW_CAP = 8
# Time of one application of H to the state (two CSR products and the
# recurrence's row updates) over the time one record's sum takes to gain one
# term (a multiply-add on each of its two rows).  Measured on the propagated
# operators of the shipped presets (2 CPUs, numpy 2.4, scipy 1.17): 39 at
# 11 532 states and 32 entries per row (degenerate), 94 at 21 734 and 86
# (reduced_bath), 11 at 208 537 and 38, beyond the cache (coherent_pump).
# The cost per record is flat near its lowest W, so the smallest ratio serves
# all of them: on degenerate and reduced_bath its windows cost 6 % and 9 %
# more per record than their own best ones, and coherent_pump keeps the two
# records per window that its own ratio gives.
MATVEC_COST = 10.0
# Rows below which propagate keeps an undriven CSR h in one block on the
# calling thread instead of splitting it at a row no entry crosses.
# Measured on the benchmark workloads (2 CPUs, numpy 2.4, scipy 1.17,
# OpenBLAS on its default two threads): the split takes a two-record
# coherent_pump window (208 537 rows, a CSR beyond the cache) from 14.6 to
# 8.2 s, but leaves degenerate's propagation (11 532 rows) at 0.21 s, the
# observer's OpenBLAS products competing with the block threads, and on
# v0_sweep (9 610 rows) it puts two block threads under each of the two
# sweep workers: 1.38 s per sweep split against 1.22 s whole (medians of 5).
# The floor lies between degenerate and coherent_pump.
SPLIT_ROWS = 65_536


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
    """dt, in effective atomic units of time, and the record stride.

    dt spaces the record grid (a record every record_stride dt).  Driven
    runs also step by dt, with the drive frozen at each step midpoint;
    undriven runs take one expansion per window of records.  TAIL_TOL
    bounds the dropped Chebyshev tail of each record.
    """

    dt: float
    record_stride: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")


@dataclass
class KrylovStats:
    """Work and accuracy of the expansions of one propagation: the number
    of expansions (steps) and of applications of H (matvecs), the largest
    order and dropped-tail bound used, the largest norm drift of a record
    before its renormalization, the interval [lo, hi] of the static
    Hamiltonian, and the rows of each block propagated on its own thread
    ([n] when the state ran as one block)."""

    steps: int = 0
    matvecs: int = 0
    max_order: int = 0
    max_error: float = 0.0
    max_renorm_drift: float = 0.0
    spectral_bounds: tuple[float, float] | None = None
    blocks: list[int] = field(default_factory=list)


@dataclass
class PropagationResult:
    """Recorded snapshots, the final state, the expansion telemetry and the
    wall time spent in the observers."""

    final: CoupledState
    times: np.ndarray
    records: dict[str, np.ndarray] = field(default_factory=dict)
    krylov: KrylovStats = field(default_factory=KrylovStats)
    observe_s: float = 0.0


# stored entries per chunk of rows in _abs_row_sums
_ROW_CHUNK = 2**20
# The two threads that run the row blocks of a split undriven propagation.
_POOL = ThreadPoolExecutor(max_workers=2, thread_name_prefix="propagate")


def _row_block(h: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Rows lo..hi of the CSR h, sharing its data and indices.  scipy's
    constructor would copy a slice shorter than half of the array it views."""
    start, stop = h.indptr[lo], h.indptr[hi]
    rows = sp.csr_matrix((hi - lo, h.shape[1]), dtype=h.dtype)
    rows.data, rows.indices = h.data[start:stop], h.indices[start:stop]
    rows.indptr = h.indptr[lo : hi + 1] - start
    return rows


def _abs_row_sums(h: sp.spmatrix) -> np.ndarray:
    """sum_j |h[i, j]| per row, over chunks of about _ROW_CHUNK stored entries."""
    h = sp.csr_matrix(h)  # no copy of a CSR input
    ones = np.ones(h.shape[1])
    cuts = np.searchsorted(h.indptr, np.arange(_ROW_CHUNK, h.nnz, _ROW_CHUNK))
    bounds = np.unique(np.concatenate(([0], cuts, [h.shape[0]])))
    sums = np.empty(h.shape[0])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = _row_block(h, lo, hi)
        rows.data = np.abs(rows.data)
        sums[lo:hi] = rows @ ones
    return sums


def _block_cut(h: sp.csr_matrix) -> int | None:
    """The row r, 0 < r < n, such that no stored entry joins the rows and
    columns below r to those from r on, whose rows below r hold the number
    of stored entries nearest to half of them; None when no row is such."""
    n = h.shape[0]
    filled = np.flatnonzero(np.diff(h.indptr))
    low, high = np.full(n, n), np.full(n, -1)  # column range of each row
    if filled.size:
        low[filled] = np.minimum.reduceat(h.indices, h.indptr[filled])
        high[filled] = np.maximum.reduceat(h.indices, h.indptr[filled])
    rows = np.arange(1, n)
    # no entry of the rows above r reaches column r, none below reaches back
    free = (np.maximum.accumulate(high)[:-1] < rows) & (
        np.minimum.accumulate(low[::-1])[::-1][1:] >= rows
    )
    cuts = rows[free]
    if not cuts.size:
        return None
    return int(cuts[np.argmin(np.abs(2 * h.indptr[cuts].astype(np.int64) - h.nnz))])


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
        try:
            return 4.0 * math.exp((n + 1) * math.log(z / 2.0) - math.lgamma(n + 2))
        except OverflowError:  # z beyond about 2 000: no bound yet
            return math.inf

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


def _chebyshev_window(
    blocks: Sequence[tuple[int, int, Callable[[np.ndarray], np.ndarray]]],
    psi: np.ndarray,
    taus: Sequence[float],
    center: float,
    radius: float,
    cutoff: float,
) -> list[tuple[np.ndarray, int, float]]:
    """(exp(-i H tau) psi, order, tail bound) for each of taus, from one
    recurrence, for the real symmetric H with its spectrum in
    [center - radius, center + radius]; each dropped tail is below cutoff
    times |psi|.

    blocks are (lo, hi, apply) with apply(v) the rows lo..hi of H @ v for a
    float row v of the state's length; no entry of H may join two blocks.
    Each block runs the recurrence on its own rows of shared full-length
    vectors, applying its apply to one float row at a time, twice per order,
    up to the highest order of any tau.  It reads and writes only its own
    rows, so one block runs on the calling thread and two run on _POOL, one
    each, and join once at the end.
    """
    series = [_chebyshev_coefficients(radius * tau, cutoff) for tau in taus]
    phi = np.stack((psi.real, psi.imag))  # phi_0: rows (real, imaginary)
    sums = [coeffs[0] * phi for coeffs, _ in series]
    spare = np.zeros_like(phi)
    scratch = np.empty(psi.size)
    top = max(len(coeffs) for coeffs, _ in series) - 1

    def recur(lo: int, hi: int, apply: Callable[[np.ndarray], np.ndarray]) -> None:
        own = slice(lo, hi)
        tmp = scratch[own]

        def add_rotated(v: np.ndarray, scale: float, dest: np.ndarray) -> None:
            # dest += scale (-i (H - center) v): the real row gains (H - center)
            # times the imaginary row, the imaginary row loses it times the real one
            for row, src, sign in ((0, 1, scale), (1, 0, -scale)):
                product = apply(v[src])
                if np.iscomplexobj(product):
                    raise ValueError(
                        "H @ v returned complex values; propagate needs a real symmetric H"
                    )
                out = dest[row, own]
                out += np.multiply(product, sign, out=tmp)
                out -= np.multiply(v[src, own], sign * center, out=tmp)

        def accumulate(v: np.ndarray, k: int) -> None:
            for (coeffs, _), total in zip(series, sums):
                if k < len(coeffs):
                    for row in (0, 1):
                        out = total[row, own]
                        out += np.multiply(v[row, own], coeffs[k], out=tmp)

        if top > 0:
            prev, cur = phi, spare
            add_rotated(prev, 1.0 / radius, cur)
            accumulate(cur, 1)
            for k in range(2, top + 1):
                add_rotated(cur, 2.0 / radius, prev)  # prev now holds phi_{k+1}
                prev, cur = cur, prev
                accumulate(cur, k)

    if len(blocks) == 1:
        recur(*blocks[0])
    else:
        done, _ = wait([_POOL.submit(recur, *block) for block in blocks])
        for future in done:
            future.result()  # re-raise a block's error
    results = []
    for j, (tau, (coeffs, tail)) in enumerate(zip(taus, series)):
        result = np.empty(psi.size, dtype=complex)
        result.real, result.imag = sums[j]
        sums[j] = None  # one sum freed per result made
        result *= np.exp(-1j * center * tau)
        results.append((result, len(coeffs) - 1, tail))
    return results


def _window_size(z: float, cutoff: float) -> int:
    """Records per undriven window when each record interval spans R tau = z.
    A window of W records costs about K_W + sum_j K_j / MATVEC_COST
    applications of H, with K_j = j z + m and m = K_1 - z the tail of one
    interval's series; per record that is lowest at
    W = sqrt(2 MATVEC_COST m / z), kept within 1 .. WINDOW_CAP."""
    if z == 0.0:
        return WINDOW_CAP
    tail = len(_chebyshev_coefficients(z, cutoff)[0]) - 1 - z
    best = math.floor(math.sqrt(2.0 * MATVEC_COST * max(tail, 0.0) / z))
    return min(WINDOW_CAP, max(1, best))


def _checked_state(
    psi: np.ndarray, time: float, norm_order: np.ndarray | None
) -> tuple[CoupledState, float]:
    """The stepped state, renormalized for tiny drift, and that drift; aborts
    on larger drift and (with NonFiniteAmplitudes) on NaN or Inf amplitudes.
    The norm sums the amplitudes in norm_order when given."""
    if not np.all(np.isfinite(psi.view(float))):
        raise NonFiniteAmplitudes("non-finite amplitudes after a step")
    norm = np.linalg.norm(psi if norm_order is None else psi[norm_order])
    drift = abs(norm - 1.0)
    if drift >= RENORM_TOL:
        raise RuntimeError(
            f"norm drifted by {drift:.3e} in one step (tolerance "
            f"{RENORM_TOL:.1e}); the spectral bounds miss part of the spectrum"
        )
    psi /= norm
    return CoupledState(psi, time), float(drift)


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
    norm_order: np.ndarray | None = None,
) -> PropagationResult:
    """Propagate to t_final through the record grid of `config`.

    `h` is the static real symmetric Hamiltonian as a sparse matrix, or a
    callable that returns `h @ v` for a real vector v; a complex matrix, a
    complex term operator or a callable that returns complex values is
    refused (ValueError).  `bounds` is an interval (lo, hi) containing its
    spectrum; None takes spectral_bounds(h), which a callable h cannot give.
    Undriven runs (no `terms`) take one expansion per window of
    consecutive record times (_window_size), on two threads when h is a CSR
    of at least SPLIT_ROWS rows with a row cut that no entry crosses.
    `terms` are (op, coeff) pairs added to h with coeff evaluated at each
    step midpoint; driven runs step by dt (one trailing short step if
    needed).  Each of `observables` is recorded at the start and at every
    record time; without observables the records are empty.  Each record
    is renormalized by its norm, summed in `norm_order` (indices of the
    state) when given: a state laid out sector-major that passes its whole
    layout's order rounds as it would on the whole layout.

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
    n = state.amplitudes.size
    # an undriven CSR that no entry crosses at some row runs as two blocks
    cut = None
    if not terms and n >= SPLIT_ROWS and getattr(h, "format", None) == "csr":
        cut = _block_cut(h)
    if cut is None:
        static_blocks = [(0, n, apply_static)]
    else:
        static_blocks = [(a, b, _row_block(h, a, b).__matmul__) for a, b in ((0, cut), (cut, n))]
    lo, hi = bounds
    center, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
    norms = [float(_abs_row_sums(term[0]).max()) for term in terms]
    eps = 1e-9 * config.dt
    stats = KrylovStats(
        spectral_bounds=(float(lo), float(hi)), blocks=[b - a for a, b, _ in static_blocks]
    )

    observables = observables or {}
    times: list[float] = []
    records: dict[str, list[complex]] = {name: [] for name in observables}
    observe_s = 0.0

    def snapshot(s: CoupledState) -> None:
        nonlocal observe_s
        started = time.perf_counter()
        times.append(s.time)
        for name, func in observables.items():
            records[name].append(func(s))
        observe_s += time.perf_counter() - started

    snapshot(state)

    grid = _record_grid(state.time, t_final, config)
    done = 0
    while done < len(grid):
        stop = grid[done]
        blocks, width = static_blocks, radius
        if terms:
            # one step of at most dt toward the next record
            tau = min(stop - state.time, config.dt)
            t_mid = state.time + 0.5 * tau
            coeffs = [(term[0], term[1](t_mid)) for term in terms]
            width += sum(abs(c) * norm for (_, c), norm in zip(coeffs, norms))

            def apply(v, _c=coeffs):
                out = apply_static(v)
                for op, c in _c:
                    if c != 0.0:
                        out = out + c * (op @ v)
                return out

            blocks = [(0, n, apply)]

            taus = [tau]
            targets = [stop if stop - (state.time + tau) <= eps else state.time + tau]
        else:
            targets = grid[done : done + _window_size(radius * (stop - state.time), TAIL_TOL)]
            taus = [t - state.time for t in targets]
        t_next = targets[0]
        try:
            results = _chebyshev_window(blocks, state.amplitudes, taus, center, width, TAIL_TOL)
            stats.steps += 1
            stats.matvecs += max(order for _, order, _ in results)
            for t_next, (psi, order, err) in zip(targets, results):
                stats.max_order = max(stats.max_order, order)
                stats.max_error = max(stats.max_error, err)
                state, drift = _checked_state(psi, t_next, norm_order)
                stats.max_renorm_drift = max(stats.max_renorm_drift, drift)
                if state.time == grid[done]:
                    snapshot(state)
                    done += 1
        except NonFiniteAmplitudes:
            raise RuntimeError(
                f"non-finite amplitudes at t = {t_next:.6f}; "
                f"last good state at t = {state.time:.6f}"
            ) from None
        del results  # free the window's states before the next one is summed

    return PropagationResult(
        final=state,
        times=np.asarray(times, dtype=float),
        records={name: np.asarray(vals) for name, vals in records.items()},
        krylov=stats,
        observe_s=observe_s,
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
