"""Propagation tests: the Chebyshev kernel's interval and tail bound,
dense-exponential oracles, analytic oscillator motion, record-to-record
stepping, midpoint handling of drives, drift invariants, ground states."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigvalsh, expm
from scipy.sparse.linalg import expm_multiply

from ringpdc import hamiltonian as ham
from ringpdc import propagator as prop
from ringpdc.matter import transition_matrices
from ringpdc.photon import (
    BathSpec,
    FockMode,
    coherent_state,
    number_op,
    quadratures,
    sample_bath,
)
from ringpdc.propagator import (
    TAIL_TOL,
    CoupledState,
    KrylovStats,
    PropagatorConfig,
    ground_state,
    propagate,
    spectral_bounds,
)
from ringpdc.scenarios import degenerate_polarization_vectors, polarization_vectors
from ringpdc.units import eff_to_ps, energy_to_eff

W1 = energy_to_eff(24.65)
W2 = energy_to_eff(1.36)
W3 = energy_to_eff(23.29)


@pytest.fixture(scope="module")
def matter3(ring200):
    tm_full = transition_matrices(ring200)
    return ham.restrict_levels(ring200, tm_full, [0, 1, 2])


def random_symmetric(dim, seed):
    # propagate takes real symmetric Hamiltonians only
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2.0


class TestCoupledState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            CoupledState(np.array([1.0, 1.0]))

    def test_normalized_constructor(self):
        s = CoupledState(np.array([0.6, 0.8]), time=2.0)
        assert s.amplitudes.dtype == complex and s.amplitudes.shape == (2,)
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-15
        assert s.time == 2.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="norm 0.0 deviates"):
            CoupledState(np.zeros(3))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -0.1},
            {"dt": 0.1, "record_stride": 0},
            {"dt": 0.1, "record_stride": -2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PropagatorConfig(**kwargs)


class TestKrylovStep:
    """Steps of one record interval each against exact exponentials."""

    def test_diagonal_phases_exact(self):
        energies = np.array([0.3, 1.7, -0.5])
        h = sp.diags(energies).tocsr()
        psi0 = np.array([0.6, 0.48, 0.64], dtype=complex)
        state = propagate(h, CoupledState(psi0.copy()), 5.0, PropagatorConfig(dt=0.1)).final
        assert state.time == 5.0
        expect = psi0 * np.exp(-1j * energies * 5.0)
        assert np.abs(state.amplitudes - expect).max() < 1e-12
        assert np.abs(np.abs(state.amplitudes) ** 2 - np.abs(psi0) ** 2).max() < 1e-13

    def test_zero_hamiltonian_identity(self):
        h = sp.csr_matrix((4, 4))
        psi0 = np.full(4, 0.5, dtype=complex)
        res = propagate(h, CoupledState(psi0.copy()), 0.3, PropagatorConfig(dt=0.3))
        assert np.abs(res.final.amplitudes - psi0).max() == 0.0
        assert res.krylov.matvecs == 0

    def test_matches_dense_exponential(self):
        hm = random_symmetric(64, seed=7)
        h = sp.csr_matrix(hm)
        rng = np.random.default_rng(11)
        psi0 = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi0 /= np.linalg.norm(psi0)
        # ten record intervals of R tau = 4.4 in two expansions: a window of
        # WINDOW_CAP = 8 records and one of the last 2
        res = propagate(h, CoupledState(psi0.copy()), 1.0, PropagatorConfig(dt=0.1))
        assert res.krylov.steps == 2
        exact = expm(-1j * hm) @ psi0
        assert np.linalg.norm(res.final.amplitudes - exact) < 1e-10

    def test_coupled_system_against_dense(self, matter3):
        # physics Hamiltonian of dimension 81 vs the dense exponential
        mb, tm = matter3
        evecs = polarization_vectors(math.pi / 2, math.pi / 2)
        modes = [
            FockMode(W1, 2, 0.026, evecs[0]),
            FockMode(W2, 2, 0.026, evecs[1]),
            FockMode(W3, 2, 0.026, evecs[2]),
        ]
        basis = ham.CoupledBasis(3, (3, 3, 3))
        h = ham.assemble_system(basis, mb, tm, modes)
        psi0 = ham.product_state(
            basis,
            np.array([1.0, 0, 0]),
            [np.array([0.0, 1.0, 0.0]), np.array([1.0, 0, 0]), np.array([1.0, 0, 0])],
        )
        final = propagate(h, CoupledState(psi0.copy()), 1.0, PropagatorConfig(dt=0.05)).final
        exact = expm(-1j * h.toarray()) @ psi0
        assert np.linalg.norm(final.amplitudes - exact) < 1e-10


class TestOscillator:
    def test_coherent_mean_position_100_periods(self):
        w = 0.5
        mode = FockMode(w, 30)
        h = (w * (number_op(mode) + 0.5 * sp.identity(mode.dim))).tocsr()
        xi = 1.0 + 0.7j
        psi = coherent_state(xi, mode.n_max)
        q, _ = quadratures(mode)
        q0 = math.sqrt(2 / w) * xi.real
        p0 = math.sqrt(2 * w) * xi.imag
        t_final = 100 * 2 * math.pi / w
        res = propagate(
            h,
            CoupledState(psi),
            t_final,
            PropagatorConfig(dt=0.2, record_stride=25),
            observables={"q": lambda s: np.vdot(s.amplitudes, q @ s.amplitudes)},
        )
        qt = np.real(res.records["q"])
        expect = q0 * np.cos(w * res.times) + (p0 / w) * np.sin(w * res.times)
        assert np.abs(qt - expect).max() < 1e-8


class TestPropagate:
    def test_recording_cadence(self):
        h = sp.diags([1.0, 2.0]).tocsr()
        psi0 = np.array([0.8, 0.6], dtype=complex)
        res = propagate(
            h,
            CoupledState(psi0),
            1.0,
            PropagatorConfig(dt=0.1, record_stride=3),
            observables={"n": lambda s: abs(s.amplitudes[1]) ** 2},
        )
        assert res.times[0] == 0.0
        assert abs(res.times[-1] - 1.0) < 1e-12
        # strides at 0.3, 0.6, 0.9 plus the forced endpoint
        assert np.allclose(res.times, [0.0, 0.3, 0.6, 0.9, 1.0])
        assert np.allclose(res.records["n"], 0.36)

    def test_trailing_partial_step(self):
        h = sp.diags([0.7]).tocsr()
        res = propagate(
            h, CoupledState(np.ones(1, dtype=complex)), 1.05, PropagatorConfig(dt=0.1)
        ).final
        assert abs(res.time - 1.05) < 1e-12
        assert abs(res.amplitudes[0] - np.exp(-1j * 0.7 * 1.05)) < 1e-12

    def test_backwards_target_rejected(self):
        h = sp.diags([0.7]).tocsr()
        with pytest.raises(ValueError, match="before"):
            propagate(h, CoupledState(np.ones(1, dtype=complex), 2.0), 1.0, PropagatorConfig(dt=0.1))

    def test_zero_span_returns_snapshot(self):
        h = sp.diags([0.7]).tocsr()
        res = propagate(
            h,
            CoupledState(np.ones(1, dtype=complex)),
            0.0,
            PropagatorConfig(dt=0.1),
            observables={"one": lambda s: 1.0},
        )
        assert list(res.times) == [0.0]
        assert list(res.records["one"]) == [1.0]
        assert res.krylov == KrylovStats(spectral_bounds=(0.7, 0.7), blocks=[1])

    @pytest.mark.parametrize("drive", [0.0, 0.2])
    def test_trailing_partial_step_lands_on_t_final(self, drive):
        # record grid 0, 0.3, 0.6, 0.9 and the end; undriven and driven alike
        h = sp.diags([1.0, 2.0]).tocsr()
        sx = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        res = propagate(
            h,
            CoupledState(np.array([0.8, 0.6], dtype=complex)),
            1.05,
            PropagatorConfig(dt=0.1, record_stride=3),
            terms=[(sx, lambda t: drive)] if drive else (),
            observables={"t": lambda s: s.time},
        )
        assert list(res.times) == [0.0, 0.1 * 3, 0.1 * 6, 0.1 * 9, 1.05]
        assert res.final.time == 1.05
        exact = expm(-1j * 1.05 * (np.diag([1.0, 2.0]) + drive * sx.toarray())) @ [0.8, 0.6]
        assert np.linalg.norm(res.final.amplitudes - exact) < 1e-12

    def test_midpoint_drive_matches_commuting_oracle(self):
        # H(t) = f(t) sx with linear f: midpoint quadrature is exact, the
        # propagator must reproduce exp(-i sx int f)
        sx = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        f = lambda t: 0.3 + 0.11 * t
        h0 = sp.csr_matrix((2, 2))
        out = propagate(
            h0,
            CoupledState(np.array([1.0, 0.0], dtype=complex)),
            3.0,
            PropagatorConfig(dt=0.01),
            terms=[(sx, f)],
        ).final
        integral = 0.3 * 3.0 + 0.11 * 4.5
        exact = expm(-1j * integral * sx.toarray()) @ np.array([1.0, 0.0])
        assert np.linalg.norm(out.amplitudes - exact) < 1e-10

    def test_nan_aborts_with_last_good_time(self):
        # the drive turns NaN at the midpoint of the step from t = 0.5 to 0.6
        h = sp.diags([1.0, 2.0]).tocsr()
        bad = lambda t: float("nan") if t > 0.5 else 0.0
        pattern = sp.identity(2, format="csr")
        with pytest.raises(
            RuntimeError,
            match=r"non-finite amplitudes at t = 0\.600000; last good state at t = 0\.500000",
        ):
            propagate(
                h,
                CoupledState(np.array([0.8, 0.6], dtype=complex)),
                2.0,
                PropagatorConfig(dt=0.1),
                terms=[(pattern, bad)],
            )


class TestStepControl:
    """Undriven runs take one expansion per window of record intervals."""

    def test_record_interval_expansions_match_dense_exponential(self):
        # each record interval spans R tau of about 44 on this wide spectrum,
        # and one expansion serves all three records
        hm = random_symmetric(64, seed=7)
        rng = np.random.default_rng(11)
        psi0 = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi0 /= np.linalg.norm(psi0)
        res = propagate(
            sp.csr_matrix(hm),
            CoupledState(psi0.copy()),
            3.0,
            PropagatorConfig(dt=0.1, record_stride=10),
            observables={"psi": lambda s: s.amplitudes.copy()},
        )
        assert np.allclose(res.times, [0.0, 1.0, 2.0, 3.0], rtol=0, atol=1e-15)
        assert res.krylov.steps == 1
        for t, psi in zip(res.times, res.records["psi"]):
            assert np.linalg.norm(psi - expm(-1j * t * hm) @ psi0) < 1e-10

    def test_fewer_matvecs_than_fixed_dt_steps(self, coupled_pair):
        _, systems = coupled_pair
        basis, _, h = systems[0.02]
        psi0 = ham.product_state(basis, np.array([0, 1.0, 0]), [np.eye(7)[1]])
        counts = {"fixed": 0, "record": 0}

        def counted(key):
            def apply(v):
                counts[key] += 1
                return h @ v

            return apply

        bounds = spectral_bounds(h)
        fixed = propagate(
            counted("fixed"),
            CoupledState(psi0.copy()),
            10.0,
            PropagatorConfig(dt=0.05),
            bounds=bounds,
        )
        res = propagate(
            counted("record"),
            CoupledState(psi0.copy()),
            10.0,
            PropagatorConfig(dt=0.05, record_stride=20),
            bounds=bounds,
        )
        # R tau is 0.02 and 0.44: windows of WINDOW_CAP = 8 records, so the
        # 200 and 10 record intervals take 25 and 2 expansions
        assert fixed.krylov.steps == 25 and res.krylov.steps == 2
        # each application of H to the state is two real products
        assert 2 * res.krylov.matvecs == counts["record"]
        assert counts["record"] < counts["fixed"] / 2
        exact = expm_multiply(-1j * 10.0 * h, psi0)
        assert np.linalg.norm(res.final.amplitudes - exact) < 1e-9
        assert np.linalg.norm(fixed.final.amplitudes - exact) < 1e-9

    def test_callable_needs_bounds(self):
        h = sp.diags([1.0, 2.0]).tocsr()
        with pytest.raises(ValueError, match="spectral bounds"):
            propagate(
                lambda v: h @ v, CoupledState(np.array([1.0, 0j])), 1.0, PropagatorConfig(dt=0.1)
            )

    def test_complex_operators_refused(self):
        h = sp.diags([1.0, 2.0]).tocsr()
        state = CoupledState(np.array([0.8, 0.6j]))
        cfg = PropagatorConfig(dt=0.1)
        with pytest.raises(ValueError, match="real symmetric H"):
            propagate(h.astype(complex), state, 1.0, cfg)
        with pytest.raises(ValueError, match="real drive terms"):
            propagate(h, state, 1.0, cfg, terms=[(h.astype(complex), lambda t: 0.1)])
        with pytest.raises(ValueError, match="H @ v returned complex values"):
            propagate(lambda v: (h @ v) * (1.0 + 0j), state, 1.0, cfg, bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="real symmetric H"):
            ground_state(h.astype(complex))

    def test_telemetry_fields(self):
        hm = random_symmetric(16, seed=3)
        calls = []

        def counted(v):
            calls.append(1)
            return hm @ v

        cfg = PropagatorConfig(dt=0.1, record_stride=5)
        bounds = spectral_bounds(sp.csr_matrix(hm))
        res = propagate(
            counted,
            CoupledState(np.full(16, 0.25, dtype=complex)),
            1.0,
            cfg,
            observables={},
            bounds=bounds,
        )
        stats = res.krylov
        # both record intervals (R tau = 5.9) in one window
        assert isinstance(stats.steps, int) and stats.steps == 1
        assert isinstance(stats.matvecs, int) and 2 * stats.matvecs == len(calls)
        assert isinstance(stats.max_order, int) and 2 <= stats.max_order <= stats.matvecs
        assert isinstance(stats.max_error, float)
        assert 0.0 < stats.max_error <= TAIL_TOL
        assert stats.spectral_bounds == bounds


class TestRecordWindows:
    """One Chebyshev recurrence evaluates a window of record times."""

    def test_every_record_of_a_window_matches_dense_exponential(self):
        hm = random_symmetric(64, seed=5)
        lo, hi = spectral_bounds(sp.csr_matrix(hm))
        center, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
        rng = np.random.default_rng(4)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi /= np.linalg.norm(psi)
        # uneven times, a short last one as at the end of a run
        taus = [0.1, 0.2, 0.3, 0.45, 0.6, 0.61]
        for cutoff in (1e-6, 1e-12):
            window = prop._chebyshev_window(
                [(0, 64, lambda v: hm @ v)], psi, taus, center, radius, cutoff
            )
            assert len(window) == len(taus)
            for tau, (out, order, tail) in zip(taus, window):
                # each record keeps its own series and tail bound
                coeffs, bound = prop._chebyshev_coefficients(radius * tau, cutoff)
                assert (order, tail) == (len(coeffs) - 1, bound)
                error = np.linalg.norm(out - expm(-1j * tau * hm) @ psi)
                assert tail <= cutoff and error <= tail, (tau, cutoff, order, tail, error)

    def test_windowed_run_matches_one_record_per_expansion(self, monkeypatch):
        hm = random_symmetric(48, seed=9)
        psi0 = np.random.default_rng(1).normal(size=48) + 0j
        psi0 /= np.linalg.norm(psi0)
        cfg = PropagatorConfig(dt=0.05, record_stride=2)
        obs = {"psi": lambda s: s.amplitudes.copy()}

        def run():
            return propagate(sp.csr_matrix(hm), CoupledState(psi0.copy()), 2.03, cfg, observables=obs)

        windowed = run()
        monkeypatch.setattr(prop, "WINDOW_CAP", 1)
        single = run()
        assert len(windowed.times) == len(single.times) == 22
        assert windowed.krylov.steps < single.krylov.steps == 21
        assert windowed.krylov.matvecs < single.krylov.matvecs
        assert np.array_equal(windowed.times, single.times)
        for a, b in zip(windowed.records["psi"], single.records["psi"]):
            assert np.abs(a - b).max() < 1e-12

    def test_matrix_and_callable_give_identical_records(self):
        hm = random_symmetric(40, seed=2)
        h = sp.csr_matrix(hm)
        psi0 = np.full(40, 1 / math.sqrt(40), dtype=complex)
        cfg = PropagatorConfig(dt=0.05, record_stride=3)
        obs = {"psi": lambda s: s.amplitudes.copy()}
        bounds = spectral_bounds(h)
        by_matrix = propagate(h, CoupledState(psi0.copy()), 3.0, cfg, observables=obs)
        by_callable = propagate(
            lambda v: h @ v, CoupledState(psi0.copy()), 3.0, cfg, observables=obs, bounds=bounds
        )
        assert by_matrix.krylov == by_callable.krylov
        assert by_matrix.krylov.steps < len(by_matrix.times) - 1
        assert np.array_equal(by_matrix.times, by_callable.times)
        assert np.array_equal(by_matrix.records["psi"], by_callable.records["psi"])

    def test_window_memory_within_the_estimate(self):
        # scenarios.memory_report counts WORK_VECTORS and WINDOW_CAP sums of
        # the state's size; a full window needs more than the work vectors
        n = 20_000
        rng = np.random.default_rng(0)
        off = np.full(n - 1, 0.3)
        h = sp.diags([rng.normal(size=n), off, off], [0, 1, -1], format="csr")
        state = CoupledState(np.full(n, 1 / math.sqrt(n), dtype=complex))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = propagate(h, state, 1.6, PropagatorConfig(dt=0.1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.krylov.steps == 2  # 16 records in two full windows
        vectors = peak / (16 * n)
        assert prop.WORK_VECTORS < vectors <= prop.WORK_VECTORS + prop.WINDOW_CAP

    def test_window_rule(self):
        # a coherent_pump record interval (R tau about 290, a tail of about 70
        # orders) keeps one or two records per window, a degenerate one (R tau
        # about 20, a tail of about 29) more
        assert 1 <= prop._window_size(290.0, 1e-15) <= 2
        assert 2 < prop._window_size(20.0, 1e-15) <= prop.WINDOW_CAP
        assert prop._window_size(0.0, 1e-15) == prop.WINDOW_CAP
        assert prop._window_size(1e-3, 1e-15) == prop.WINDOW_CAP
        # beyond the z where the tail estimate (z/2)^n / n! overflows a float
        assert prop._window_size(5000.0, 1e-15) == 1


def two_blocks(sizes=(23, 17), seed=3):
    """A real symmetric CSR with no entry between its first sizes[0] rows and
    columns and the rest."""
    parts = [random_symmetric(n, seed + k) for k, n in enumerate(sizes)]
    return sp.block_diag(parts, format="csr")


class TestRowBlocks:
    """An undriven CSR that no entry crosses at some row propagates as two
    row blocks, one per thread of the propagator's pool."""

    def test_no_cut_in_a_coupled_chain(self):
        off = np.ones(9)
        chain = sp.diags([np.arange(10.0), off, off], [0, 1, -1], format="csr")
        assert prop._block_cut(chain) is None
        assert prop._block_cut(sp.csr_matrix(np.ones((1, 1)))) is None

    def test_cut_nearest_half_the_entries(self):
        # dense blocks of 4, 3 and 5 rows: cuts at 4 (16 of 50 entries below)
        # and 7 (25 of 50)
        h = sp.block_diag([np.ones((4, 4)), np.ones((3, 3)), np.ones((5, 5))], format="csr")
        assert prop._block_cut(h) == 7
        assert prop._block_cut(two_blocks()) == 23

    def test_empty_rows(self):
        # empty rows lie on either side of a cut; the first balanced cut wins
        assert prop._block_cut(sp.csr_matrix(np.diag([1.0, 0.0, 0.0, 2.0]))) == 1
        assert prop._block_cut(sp.csr_matrix((3, 3))) == 1
        # the corner entries join the first row to the last across every cut
        corners = np.zeros((4, 4))
        corners[0, 0] = corners[0, 3] = corners[3, 0] = corners[3, 3] = 1.0
        assert prop._block_cut(sp.csr_matrix(corners)) is None

    @pytest.mark.parametrize("lo, hi", [(0, 3), (20, 30), (23, 40)])
    def test_row_block_shares_the_arrays(self, lo, hi):
        # (0, 3) holds under half the entries, where scipy's constructor copies
        h = two_blocks()
        rows = prop._row_block(h, lo, hi)
        assert rows.shape == (hi - lo, 40)
        assert np.shares_memory(rows.data, h.data)
        assert np.shares_memory(rows.indices, h.indices)
        v = np.random.default_rng(0).normal(size=40)
        assert np.array_equal(rows @ v, (h @ v)[lo:hi])

    def test_two_threads_match_one_block_bit_for_bit(self, monkeypatch):
        h = two_blocks()
        psi0 = np.random.default_rng(8).normal(size=40) * (1 + 0.5j)
        psi0 /= np.linalg.norm(psi0)
        cfg = PropagatorConfig(dt=0.05, record_stride=2)
        obs = {"psi": lambda s: s.amplitudes.copy()}
        bounds = spectral_bounds(h)
        pool, submitted = prop._POOL, []

        class Counting:
            def submit(self, fn, lo, hi, apply):
                submitted.append((lo, hi))
                return pool.submit(fn, lo, hi, apply)

        monkeypatch.setattr(prop, "_POOL", Counting())

        def run(op):
            state = CoupledState(psi0.copy())
            return propagate(op, state, 1.3, cfg, observables=obs, bounds=bounds)

        # below the floor, and as a callable, h runs as one block on this thread
        assert run(h).krylov.blocks == [40]
        whole = run(lambda v: h @ v)
        assert whole.krylov.blocks == [40] and not submitted
        monkeypatch.setattr(prop, "SPLIT_ROWS", 0)
        split = run(h)
        assert split.krylov.blocks == [23, 17]
        assert submitted == [(0, 23), (23, 40)] * split.krylov.steps
        # windows of several records each
        assert 1 < split.krylov.steps < len(split.times) - 1
        assert split.krylov == replace(whole.krylov, blocks=[23, 17])
        assert np.array_equal(split.times, whole.times)
        assert np.array_equal(split.records["psi"], whole.records["psi"])
        assert np.array_equal(split.final.amplitudes, whole.final.amplitudes)
        # a driven run stays one block
        term = (sp.identity(40, format="csr"), lambda t: 0.1)
        driven = propagate(h, CoupledState(psi0.copy()), 0.2, cfg, terms=[term])
        assert driven.krylov.blocks == [40] and len(submitted) == 2 * split.krylov.steps

    def test_concurrent_split_runs_share_the_pool(self, monkeypatch):
        # three callers (as sweep rows would be) put six blocks on the pool's
        # two threads, switching threads often: a write outside a block's
        # own rows would show as a record that differs from one block's
        monkeypatch.setattr(prop, "SPLIT_ROWS", 0)
        h = two_blocks(sizes=(300, 200))
        psi0 = np.random.default_rng(5).normal(size=500) * (1 - 0.3j)
        psi0 /= np.linalg.norm(psi0)
        cfg = PropagatorConfig(dt=0.02, record_stride=3)
        obs = {"psi": lambda s: s.amplitudes.copy()}
        bounds = spectral_bounds(h)
        want = propagate(
            lambda v: h @ v, CoupledState(psi0.copy()), 0.5, cfg, observables=obs, bounds=bounds
        )
        results = []

        def run():
            results.append(propagate(h, CoupledState(psi0.copy()), 0.5, cfg, observables=obs))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 3
        for got in results:
            assert got.krylov.blocks == [300, 200]
            assert np.array_equal(got.records["psi"], want.records["psi"])

    def test_sector_major_layout_with_norm_order_is_the_whole_run(self, monkeypatch):
        # an interleaved two-sector H, and the same H laid out sector-major:
        # each row keeps its entries in order, so with the norm summed in the
        # interleaved order every record is the interleaved run's, bit for bit
        monkeypatch.setattr(prop, "SPLIT_ROWS", 0)
        n = 3000
        rng = np.random.default_rng(11)
        parity = rng.choice([1, -1], size=n)
        h = sp.random(n, n, density=0.004, random_state=rng, format="csr")
        h = (h + h.T).multiply(np.equal.outer(parity, parity)).tocsr()
        h.setdiag(rng.normal(size=n))
        h.eliminate_zeros()
        index = np.concatenate([np.flatnonzero(parity == s) for s in (1, -1)])
        psi0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi0 /= np.linalg.norm(psi0)
        cfg = PropagatorConfig(dt=0.05, record_stride=2)
        bounds = spectral_bounds(h)

        def whole_layout(s):
            amplitudes = np.zeros(n, dtype=complex)
            amplitudes[index] = s.amplitudes
            return amplitudes

        whole = propagate(
            h, CoupledState(psi0), 1.0, cfg, observables={"psi": lambda s: s.amplitudes.copy()}
        )
        major = propagate(
            h[index][:, index].tocsr(),
            CoupledState(psi0[index]),
            1.0,
            cfg,
            observables={"psi": whole_layout},
            bounds=bounds,
            norm_order=np.argsort(index),
        )
        assert major.krylov.blocks == [int((parity == 1).sum()), int((parity == -1).sum())]
        assert np.array_equal(major.records["psi"], whole.records["psi"])

    def test_a_block_error_reaches_the_caller(self):
        h = two_blocks()
        lo, hi = spectral_bounds(h)
        psi = np.full(40, 1 / math.sqrt(40), dtype=complex)
        blocks = [
            (0, 23, prop._row_block(h, 0, 23).__matmul__),
            (23, 40, lambda v: 1j * (prop._row_block(h, 23, 40) @ v)),
        ]
        with pytest.raises(ValueError, match="complex"):
            prop._chebyshev_window(blocks, psi, [0.3], 0.5 * (lo + hi), 0.5 * (hi - lo), 1e-12)


def tilted_modes():
    """Three coupled modes whose polarizations leave no reflection symmetry."""
    return [
        FockMode(w, 2, 0.026, e) for w, e in zip((W1, W2, W3), polarization_vectors(1.2, 0.4))
    ]


def kernel_hamiltonians(ring200):
    """{name: dense H} of the tiny three-mode, few-level and bath fixtures."""
    tm_full = transition_matrices(ring200)
    mb, tm = ham.restrict_levels(ring200, tm_full, [0, 1, 2])
    modes = tilted_modes()
    tiny = ham.assemble_system(ham.CoupledBasis(3, (3, 3, 3)), mb, tm, modes)
    few_mb, few_tm = ham.restrict_levels(ring200, tm_full, [0, 3, 4])
    few = ham.assemble_system(ham.CoupledBasis(3, (3, 3, 3)), few_mb, few_tm, modes)
    e1, e2 = degenerate_polarization_vectors(math.pi / 6)
    main = [FockMode(W2, 2, 0.017, e1), FockMode(W2 / 2, 2, 0.017, e2)]
    bath_modes, bath_basis = sample_bath(BathSpec(lam=0.007, windows=((1.0, 2.0, 2),)))
    basis = ham.CoupledBasis(3, (3, 3), bath=bath_basis)
    bath = ham.assemble_system(basis, mb, tm, main, bath_modes=bath_modes)
    return {"tiny": tiny, "few_level": few, "bath": bath}


class TestChebyshevKernel:
    @pytest.mark.parametrize("name", ["tiny", "few_level", "bath"])
    def test_gershgorin_interval_contains_the_spectrum(self, ring200, name):
        h = kernel_hamiltonians(ring200)[name]
        lo, hi = spectral_bounds(h)
        eigs = eigvalsh(h.toarray())
        assert lo <= eigs[0] and eigs[-1] <= hi
        assert lo < hi

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    def test_chunked_row_sums_are_the_whole_product(self, ring200, chunk, monkeypatch):
        # each row adds the same |h| entries in the same order, chunked or not
        h = kernel_hamiltonians(ring200)["bath"]
        whole = sp.csr_matrix((np.abs(h.data), h.indices, h.indptr), h.shape) @ np.ones(h.shape[1])
        bounds = spectral_bounds(h)
        monkeypatch.setattr(prop, "_ROW_CHUNK", chunk)
        assert np.array_equal(prop._abs_row_sums(h), whole)
        assert spectral_bounds(h) == bounds

    @pytest.mark.parametrize("kind", ["current", "field"])
    def test_widened_driven_interval_contains_the_spectrum(self, matter3, kind, monkeypatch):
        # every driven step's interval holds the spectrum of its midpoint H
        mb, tm = matter3
        modes = tilted_modes()
        if kind == "current":
            basis = ham.CoupledBasis(3, (3, 3, 3))
            h = ham.assemble_system(basis, mb, tm, modes)
            drive = ham.DriveSpec(kind="classical_current", j0=40.0, tau=2.0, omega1=W1)
            terms = [ham.drive_term(basis, mb, tm, modes, drive)]
        else:
            basis = ham.CoupledBasis(3, (3, 3))
            h = ham.assemble_system(basis, mb, tm, modes[1:])
            drive = ham.DriveSpec(kind="classical_field", j0=400.0, t0=2.0, tau=0.9, omega1=W1)
            grid = np.linspace(0.0, 5.0, 501)
            terms = [ham.drive_term(basis, mb, tm, modes, drive, grid)]
        seen = []
        kernel = prop._chebyshev_window

        def spy(blocks, psi, taus, center, radius, cutoff):
            ((_, _, apply_h),) = blocks
            seen.append((apply_h, center, radius))
            return kernel(blocks, psi, taus, center, radius, cutoff)

        monkeypatch.setattr(prop, "_chebyshev_window", spy)
        psi0 = np.zeros(basis.dim, dtype=complex)
        psi0[0] = 1.0
        propagate(h, CoupledState(psi0), 4.0, PropagatorConfig(dt=0.2), terms=terms)
        assert len(seen) == 20
        widest = 0.0
        for apply_h, center, radius in seen:
            dense = np.column_stack([apply_h(col) for col in np.eye(basis.dim, dtype=complex)])
            eigs = eigvalsh(dense)
            assert center - radius <= eigs[0] and eigs[-1] <= center + radius
            widest = max(widest, radius)
        # the drive does widen the static interval
        lo, hi = spectral_bounds(h)
        assert widest > 1.01 * 0.5 * (hi - lo)

    def test_tail_bound_covers_the_error(self):
        hm = random_symmetric(64, seed=5)
        lo, hi = spectral_bounds(sp.csr_matrix(hm))
        center, radius = 0.5 * (lo + hi), 0.5 * (hi - lo)
        rng = np.random.default_rng(2)
        psi = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi /= np.linalg.norm(psi)
        for tau in (0.01, 0.1, 1.0):
            for cutoff in (1e-3, 1e-6, 1e-9):
                ((out, order, tail),) = prop._chebyshev_window(
                    [(0, 64, lambda v: hm @ v)], psi, [tau], center, radius, cutoff
                )
                error = np.linalg.norm(out - expm(-1j * tau * hm) @ psi)
                assert tail <= cutoff and error <= tail, (tau, cutoff, order, tail, error)


@pytest.fixture(scope="module")
def coupled_pair(matter3):
    """Small matter + y-polarized mode system at zero and finite coupling."""
    mb, tm = matter3
    out = {}
    for lam in (0.0, 0.02):
        mode = FockMode(W2, 6, lam, (0.0, 1.0))
        basis = ham.CoupledBasis(3, (7,))
        q, _ = quadratures(mode)
        h_el, _, py = ham._real_matter(mb, tm)
        photon = ham.CoupledBasis(1, (7,))
        h = (
            sp.kron(h_el, ham.embed(photon), format="csr")
            + mode.omega
            * ham.embed(
                basis, mode_ops={0: (number_op(mode) + 0.5 * sp.identity(7)).tocsr()}
            )
            - lam * sp.kron(py, ham.embed(photon, mode_ops={0: q.tocsr()}), format="csr")
            + 0.5 * lam**2 * ham.embed(basis, mode_ops={0: (q @ q).tocsr()})
        )
        out[lam] = (basis, mode, h)
    return mb, out


class TestGroundState:
    def test_decoupled_is_factorizable(self, coupled_pair):
        mb, systems = coupled_pair
        basis, mode, h = systems[0.0]
        energy, vec = ground_state(h)
        assert abs(energy - (mb.energies[0] + mode.omega / 2)) < 1e-10
        product = ham.product_state(
            basis, np.array([1.0, 0, 0]), [np.eye(7)[0]]
        )
        assert abs(abs(np.vdot(product, vec)) - 1.0) < 1e-9

    def test_starts_from_the_smallest_diagonal_entry(self, coupled_pair, monkeypatch):
        _, systems = coupled_pair
        _, _, h = systems[0.02]
        starts, eigsh = [], prop.eigsh

        def spy(a, **kwargs):
            starts.append(kwargs["v0"])
            return eigsh(a, **kwargs)

        monkeypatch.setattr(prop, "eigsh", spy)
        energy, _ = ground_state(h)
        (v0,) = starts
        want = np.zeros(h.shape[0])
        want[np.argmin(h.diagonal())] = 1.0
        assert np.array_equal(v0, want)
        assert abs(energy - eigvalsh(h.toarray())[0]) < 1e-12

    def test_residual_contract(self, coupled_pair):
        _, systems = coupled_pair
        _, _, h = systems[0.02]
        energy, vec = ground_state(h)
        assert np.linalg.norm(h @ vec - energy * vec) < 1e-9

    def test_coupled_vacuum_hosts_photons(self, coupled_pair):
        _, systems = coupled_pair
        basis, mode, h = systems[0.02]
        _, vec = ground_state(h)
        n_op = ham.embed(basis, mode_ops={0: number_op(mode).tocsr()})
        n = float(np.real(np.vdot(vec, n_op @ vec)))
        assert n > 1e-5

    @pytest.mark.xfail(
        reason="the coupled ground energy rises with coupling: the quadratic "
        "field self-term adds lam^2/4w while the oscillator-strength sum rule "
        "caps the bilinear lowering strictly below that, so a drop below the "
        "decoupled zero-point sum is not attainable",
        strict=True,
    )
    def test_energy_below_decoupled_sum_literal(self, coupled_pair):
        mb, systems = coupled_pair
        _, mode, h = systems[0.02]
        energy, _ = ground_state(h)
        assert energy < mb.energies[0] + mode.omega / 2

    def test_energy_bracketed_by_variational_bounds(self, coupled_pair):
        mb, systems = coupled_pair
        basis, mode, h = systems[0.02]
        energy, _ = ground_state(h)
        e_dec = mb.energies[0] + mode.omega / 2
        # above the decoupled sum (sum-rule bound), below the lam=0 trial state
        assert e_dec < energy < e_dec + mode.lam**2 / (4 * mode.omega)
        product = ham.product_state(basis, np.array([1.0, 0, 0]), [np.eye(7)[0]])
        e_trial = float(np.real(np.vdot(product, h @ product)))
        assert energy < e_trial


class TestDriftInvariants:
    def test_norm_and_energy_drift(self, coupled_pair):
        _, systems = coupled_pair
        basis, mode, h = systems[0.02]
        psi0 = ham.product_state(
            basis, np.array([0, 1.0, 0]), [np.eye(7)[1]]
        )
        cfg = PropagatorConfig(dt=0.05)
        e0 = np.vdot(psi0, h @ psi0).real
        state = propagate(h, CoupledState(psi0), 1000 * cfg.dt, cfg).final
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10
        elapsed_ps = eff_to_ps(1000 * 0.05)
        e1 = np.vdot(state.amplitudes, h @ state.amplitudes).real
        assert abs(e1 - e0) / abs(e0) < 1e-8 * max(elapsed_ps, 1.0)


class TestStepHalving:
    def test_signal_occupation_converged_in_dt(self, ring200):
        # degenerate-pair scenario at lam = 0.017, coherent pump xi = 2
        tm = transition_matrices(ring200)
        theta1 = math.pi / 3
        e1, e2 = degenerate_polarization_vectors(theta1)
        w1 = energy_to_eff(1.413)
        modes = [FockMode(w1, 20, 0.017, e1), FockMode(w1 / 2, 20, 0.017, e2)]
        basis = ham.CoupledBasis(12, (21, 21))
        h = ham.assemble_system(basis, ring200, tm, modes)
        psi0 = ham.product_state(
            basis,
            np.eye(12)[0],
            [coherent_state(2.0, 20), np.eye(21)[0]],
        )
        n2 = ham.embed(basis, mode_ops={1: number_op(modes[1]).tocsr()})

        def run(dt):
            res = propagate(
                h,
                CoupledState(psi0.copy()),
                5.0,
                PropagatorConfig(dt=dt, record_stride=int(round(0.5 / dt))),
                observables={
                    "n2": lambda s: np.real(np.vdot(s.amplitudes, n2 @ s.amplitudes))
                },
            )
            return res.times, np.real(res.records["n2"])

        t_a, n_a = run(0.05)
        t_b, n_b = run(0.025)
        assert np.allclose(t_a, t_b)
        assert np.abs(n_a - n_b).max() < 1e-6
