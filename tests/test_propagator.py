"""Propagation tests: dense-exponential oracles, analytic oscillator motion,
record-to-record step control, midpoint handling of drives, drift
invariants, ground states."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

from ringpdc import hamiltonian as ham
from ringpdc.matter import transition_matrices
from ringpdc.photon import FockMode, coherent_state, number_op, quadratures
from ringpdc.propagator import (
    CoupledState,
    KrylovStats,
    PropagatorConfig,
    ground_state,
    krylov_step,
    propagate,
)
from ringpdc.scenarios import degenerate_polarization_vectors, polarization_vectors
from ringpdc.units import default_units, energy_to_eff, time_to_fs

U = default_units()
W1 = energy_to_eff(24.65, U)
W2 = energy_to_eff(1.36, U)
W3 = energy_to_eff(23.29, U)


@pytest.fixture(scope="module")
def matter3(ring200):
    tm_full = transition_matrices(ring200)
    return ham.restrict_levels(ring200, tm_full, [0, 1, 2])


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


class TestCoupledState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            CoupledState(np.array([1.0, 1.0]))

    def test_normalized_constructor(self):
        s = CoupledState.normalized(np.array([3.0, 4.0]), time=2.0)
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-15
        assert s.time == 2.0 and s.dim == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            CoupledState.normalized(np.zeros(3))


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": 0.1, "krylov_dim": 1},
            {"dt": 0.1, "krylov_tol": 0.0},
            {"dt": 0.1, "record_stride": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PropagatorConfig(**kwargs)


class TestKrylovStep:
    def test_diagonal_phases_exact(self):
        energies = np.array([0.3, 1.7, -0.5])
        h = sp.diags(energies).tocsr()
        psi0 = np.array([0.6, 0.48, 0.64], dtype=complex)
        state = CoupledState(psi0.copy())
        cfg = PropagatorConfig(dt=0.1)
        for _ in range(50):
            state = krylov_step(h, state, cfg.dt, cfg)
        expect = psi0 * np.exp(-1j * energies * 5.0)
        assert np.abs(state.amplitudes - expect).max() < 1e-12
        assert np.abs(np.abs(state.amplitudes) ** 2 - np.abs(psi0) ** 2).max() < 1e-13

    def test_zero_hamiltonian_identity(self):
        h = sp.csr_matrix((4, 4), dtype=complex)
        psi0 = np.full(4, 0.5, dtype=complex)
        out = krylov_step(h, CoupledState(psi0.copy()), 0.3, PropagatorConfig(dt=0.3))
        assert np.abs(out.amplitudes - psi0).max() == 0.0

    def test_matches_dense_exponential(self):
        hm = random_hermitian(64, seed=7)
        h = sp.csr_matrix(hm)
        rng = np.random.default_rng(11)
        psi0 = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi0 /= np.linalg.norm(psi0)
        cfg = PropagatorConfig(dt=0.1, krylov_dim=40)
        state = CoupledState(psi0.copy())
        for _ in range(10):
            state = krylov_step(h, state, cfg.dt, cfg)
        exact = expm(-1j * hm) @ psi0
        assert np.linalg.norm(state.amplitudes - exact) < 1e-10

    def test_nonconvergence_advises_smaller_dt(self):
        # wide spectrum and a tiny subspace cap cannot meet the tolerance
        hm = np.diag(np.linspace(-50.0, 50.0, 64))
        h = sp.csr_matrix(hm)
        psi0 = np.full(64, 1 / 8.0, dtype=complex)
        cfg = PropagatorConfig(dt=5.0, krylov_dim=4)
        with pytest.raises(RuntimeError, match="reduce dt"):
            krylov_step(h, CoupledState(psi0), cfg.dt, cfg)

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
            PropagatorConfig(dt=0.2, krylov_tol=1e-12, record_stride=25),
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
        assert res.krylov == KrylovStats()

    @pytest.mark.parametrize("drive", [0.0, 0.2])
    def test_trailing_partial_step_lands_on_t_final(self, drive):
        # record grid 0, 0.3, 0.6, 0.9 and the end; undriven and driven alike
        h = sp.diags([1.0, 2.0]).tocsr()
        sx = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
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
        sx = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        f = lambda t: 0.3 + 0.11 * t
        h0 = sp.csr_matrix((2, 2), dtype=complex)
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
        pattern = sp.identity(2, format="csr", dtype=complex)
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
    """Undriven runs step from record time to record time."""

    def test_shortened_steps_match_dense_exponential(self):
        # a 12-vector cap cannot span a whole record interval of this wide
        # spectrum, so steps get shortened; every record still matches expm
        hm = random_hermitian(64, seed=7)
        rng = np.random.default_rng(11)
        psi0 = rng.normal(size=64) + 1j * rng.normal(size=64)
        psi0 /= np.linalg.norm(psi0)
        res = propagate(
            sp.csr_matrix(hm),
            CoupledState(psi0.copy()),
            3.0,
            PropagatorConfig(dt=0.1, krylov_dim=12, record_stride=10),
            observables={"psi": lambda s: s.amplitudes.copy()},
        )
        assert np.allclose(res.times, [0.0, 1.0, 2.0, 3.0], rtol=0, atol=1e-15)
        assert res.krylov.steps > len(res.times) - 1
        assert res.krylov.max_dim == 12
        for t, psi in zip(res.times, res.records["psi"]):
            assert np.linalg.norm(psi - expm(-1j * t * hm) @ psi0) < 1e-10

    def test_cap_that_fails_a_fixed_step_completes(self):
        # the krylov_step cap of test_nonconvergence_advises_smaller_dt
        hm = np.diag(np.linspace(-50.0, 50.0, 64))
        psi0 = np.full(64, 1 / 8.0, dtype=complex)
        cfg = PropagatorConfig(dt=5.0, krylov_dim=4)
        with pytest.raises(RuntimeError, match="reduce dt"):
            krylov_step(sp.csr_matrix(hm), CoupledState(psi0), 0.01, cfg)
        res = propagate(sp.csr_matrix(hm), CoupledState(psi0), 0.01, cfg, observables={})
        assert res.final.time == 0.01
        assert res.krylov.max_error <= cfg.krylov_tol
        exact = np.exp(-1j * 0.01 * np.diag(hm)) * psi0
        assert np.linalg.norm(res.final.amplitudes - exact) < 1e-10

    def test_crawling_steps_fail(self):
        # the same cap over a whole dt would need about 5e5 steps
        hm = np.diag(np.linspace(-50.0, 50.0, 64))
        psi0 = np.full(64, 1 / 8.0, dtype=complex)
        with pytest.raises(RuntimeError, match="raise krylov_dim"):
            propagate(
                sp.csr_matrix(hm), CoupledState(psi0), 5.0, PropagatorConfig(dt=5.0, krylov_dim=4)
            )

    def test_fewer_matvecs_than_fixed_dt_steps(self, coupled_pair):
        _, systems = coupled_pair
        basis, _, h = systems[0.02]
        psi0 = ham.product_state(basis, np.array([0, 1.0, 0]), [np.eye(7)[1]])
        cfg = PropagatorConfig(dt=0.05, record_stride=20)
        counts = {"fixed": 0, "record": 0}

        def counted(key):
            def apply(v):
                counts[key] += 1
                return h @ v

            return apply

        state = CoupledState(psi0.copy())
        for _ in range(200):
            state = krylov_step(counted("fixed"), state, cfg.dt, cfg)
        res = propagate(
            counted("record"), CoupledState(psi0.copy()), 200 * cfg.dt, cfg, observables={}
        )
        assert res.krylov.matvecs == counts["record"]
        assert counts["record"] < counts["fixed"] / 2
        assert np.linalg.norm(res.final.amplitudes - state.amplitudes) < 1e-9

    def test_telemetry_fields(self):
        hm = random_hermitian(16, seed=3)
        calls = []

        def counted(v):
            calls.append(1)
            return hm @ v

        res = propagate(
            counted,
            CoupledState.normalized(np.ones(16, dtype=complex)),
            1.0,
            PropagatorConfig(dt=0.1, record_stride=5),
            observables={},
        )
        stats = res.krylov
        assert isinstance(stats.steps, int) and stats.steps >= 2
        assert isinstance(stats.matvecs, int) and stats.matvecs == len(calls)
        assert isinstance(stats.max_dim, int) and 2 <= stats.max_dim <= 20
        assert isinstance(stats.max_error, float) and 0.0 <= stats.max_error < 1e-10


@pytest.fixture(scope="module")
def coupled_pair(matter3):
    """Small matter + y-polarized mode system at zero and finite coupling."""
    mb, tm = matter3
    out = {}
    for lam in (0.0, 0.02):
        mode = FockMode(W2, 6, lam, (0.0, 1.0))
        basis = ham.CoupledBasis(3, (7,))
        q, _ = quadratures(mode)
        h = (
            ham.embed(basis, matter_op=mb.h_matrix())
            + mode.omega
            * ham.embed(
                basis, mode_ops={0: (number_op(mode) + 0.5 * sp.identity(7)).tocsr()}
            )
            - lam * ham.embed(basis, matter_op=tm.py, mode_ops={0: q.tocsr()})
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
        state = CoupledState(psi0)
        cfg = PropagatorConfig(dt=0.05)
        e0 = np.vdot(state.amplitudes, h @ state.amplitudes).real
        for _ in range(1000):
            state = krylov_step(h, state, cfg.dt, cfg)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-10
        elapsed_ps = time_to_fs(1000 * 0.05, U) / 1000.0
        e1 = np.vdot(state.amplitudes, h @ state.amplitudes).real
        assert abs(e1 - e0) / abs(e0) < 1e-8 * max(elapsed_ps, 1.0)


class TestStepHalving:
    def test_signal_occupation_converged_in_dt(self, ring200):
        # degenerate-pair scenario at lam = 0.017, coherent pump xi = 2
        tm = transition_matrices(ring200)
        theta1 = math.pi / 3
        e1, e2 = degenerate_polarization_vectors(theta1)
        w1 = energy_to_eff(1.413, U)
        modes = [FockMode(w1, 20, 0.017, e1), FockMode(w1 / 2, 20, 0.017, e2)]
        basis = ham.CoupledBasis(12, (21, 21))
        h = ham.assemble_degenerate(basis, ring200, tm, modes)
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
