"""Photon-statistics measurements on coupled amplitudes.

snapshot_columns is the one photon-statistics kernel: its observer reduces
|psi|^2 over the CoupledBasis shape to one marginal per mode and reads
every column from those: occupations and Fock populations, Mandel Q, cross
correlations from joint two-mode marginals, subsystem purity by
index-sliced contraction (the full density matrix is never materialized),
the photonic energies w (n + 1/2) and, after the columns, the Fock-edge
population of each mode that the truncation-drift report takes its
maximum of.

A series is held only as sample times, column names and one row of values
per sample.  There is no series container; efficiency_eta and
series_extrema read the columns they need by name.

Samples where an occupation sits below OCCUPATION_FLOOR make Q and g2
numerically meaningless; those are reported as NaN gaps, never as zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .hamiltonian import CoupledBasis

OCCUPATION_FLOOR = 1e-6
# the Fock levels whose populations P<k>_<mode> every quantum series records
FOCK_LEVELS = (1, 2, 3)


def _amps(psi) -> np.ndarray:
    return psi.amplitudes if hasattr(psi, "amplitudes") else np.asarray(psi)


def _marginal(probs: np.ndarray, *axes: int) -> np.ndarray:
    """|psi|^2 summed over every tensor axis but `axes` (kept in ascending order)."""
    return probs.sum(axis=tuple(i for i in range(probs.ndim) if i not in axes))


def _mean_n(marg: np.ndarray) -> float:
    return float(np.dot(np.arange(len(marg)), marg))


def _mandel(marg: np.ndarray) -> float:
    n = _mean_n(marg)
    if n < OCCUPATION_FLOOR:
        return float("nan")
    k = np.arange(len(marg))
    nn = float(np.dot(k * (k - 1), marg))
    return (nn - n * n) / n


def _g2(joint: np.ndarray) -> float:
    ka = np.arange(joint.shape[0])
    kb = np.arange(joint.shape[1])
    na = float(ka @ joint.sum(axis=1))
    nb = float(joint.sum(axis=0) @ kb)
    if na < OCCUPATION_FLOOR or nb < OCCUPATION_FLOOR:
        return float("nan")
    return float(ka @ joint @ kb) / (na * nb)


def _purity(tensor: np.ndarray, axis: int) -> float:
    flat = np.moveaxis(tensor, axis, 0).reshape(tensor.shape[axis], -1)
    rho = flat @ flat.conj().T
    return float(np.real(np.sum(np.abs(rho) ** 2)))


def _column_table(
    n_modes: int, fock_levels: Sequence[int], first_mode: int
) -> list[tuple[str, str, int | tuple[int, int]]]:
    """(name, statistic, key) of every series column, in file order.

    Names carry physical mode numbers from first_mode on; keys are the
    0-based physical mode index (a (mode, level) or (mode, mode) pair for
    populations and g2).
    """
    modes = range(first_mode - 1, first_mode - 1 + n_modes)
    return (
        [(f"n{m + 1}", "occupations", m) for m in modes]
        + [(f"P{k}_{m + 1}", "populations", (m, k)) for m in modes for k in fock_levels]
        + [(f"Q{m + 1}", "mandel", m) for m in modes]
        + [(f"g2_{a + 1}{b + 1}", "g2", (a, b)) for a in modes for b in modes if a < b]
        + [(f"gamma{m + 1}", "purities", m) for m in modes]
        + [(f"H{m + 1}", "energies", m) for m in modes]
    )


def snapshot_columns(
    basis: CoupledBasis, omegas: Sequence[float], first_mode: int = 1
) -> tuple[list[str], Callable]:
    """The one propagate() observer of a run: every series column at once.

    Returns (names, observer).  The observer emits one float vector per
    snapshot: one value per (statistic, key) of _column_table in its order,
    then the Fock-edge (highest-level) population of each mode, the
    truncation monitor.  All of them share one |psi|^2 tensor and one
    marginal per mode.
    """
    n_modes = len(basis.mode_dims)
    if len(omegas) != n_modes:
        raise ValueError("one frequency per quantized mode required")
    table = _column_table(n_modes, FOCK_LEVELS, first_mode)
    # table keys are physical mode indices; slot s lies on tensor axis 1 + s
    axis = {m: 1 + s for s, m in enumerate(range(first_mode - 1, first_mode - 1 + n_modes))}
    omega = dict(zip(axis, omegas))

    def observer(state) -> np.ndarray:
        tensor = _amps(state).reshape(basis.shape)
        probs = np.abs(tensor) ** 2
        margs = {m: _marginal(probs, ax) for m, ax in axis.items()}
        occs = {m: _mean_n(p) for m, p in margs.items()}
        value = {
            "occupations": lambda m: occs[m],
            "populations": lambda mk: (
                float(margs[mk[0]][mk[1]]) if mk[1] < len(margs[mk[0]]) else 0.0
            ),
            "mandel": lambda m: _mandel(margs[m]),
            "g2": lambda ab: _g2(_marginal(probs, axis[ab[0]], axis[ab[1]])),
            "purities": lambda m: _purity(tensor, axis[m]),
            "energies": lambda m: omega[m] * (occs[m] + 0.5),
        }
        row = [value[field](key) for _, field, key in table]
        return np.asarray(row + [float(p[-1]) for p in margs.values()])

    return [name for name, _, _ in table], observer


def efficiency_eta(columns: Mapping[str, np.ndarray]) -> float:
    """max_t H_2(t) / H_1(t0): down-converted photon energy over the pump's.

    columns maps series column names to their values over the snapshots.
    """
    if "H1" not in columns or "H2" not in columns:
        raise ValueError("series lacks pump or signal photon energies")
    h1_start = columns["H1"][0]
    if not np.isfinite(h1_start) or h1_start <= 0.0:
        raise ValueError("no pump energy at the start of the series")
    return float(np.nanmax(columns["H2"]) / h1_start)


@dataclass(frozen=True)
class SeriesExtrema:
    n2_max: float
    t_n2_max: float
    q2_min: float
    t_q2_min: float


def series_extrema(times: np.ndarray, columns: Mapping[str, np.ndarray]) -> SeriesExtrema:
    """Signal-mode occupation maximum and Mandel-Q minimum with their times.

    columns maps series column names to their values at `times`; the times
    come back in the unit they are given in.
    """
    if "n2" not in columns:
        raise ValueError("series has no signal mode")
    n2 = columns["n2"]
    i_n = int(np.nanargmax(n2))
    # an unpopulated mode carries no statistics; count those epochs as Q = 0
    # so the minimum of an always-super-Poissonian signal reads 0, not +inf
    q2 = np.where(np.isfinite(columns["Q2"]), columns["Q2"], 0.0)
    i_q = int(np.argmin(q2))
    return SeriesExtrema(
        n2_max=float(n2[i_n]),
        t_n2_max=float(times[i_n]),
        q2_min=float(q2[i_q]),
        t_q2_min=float(times[i_q]),
    )
