"""Photon-statistics measurements: the one snapshot observer, eta and extrema.

Every statistic is read by column name from the row of
observables.snapshot_columns and checked against a dense numpy oracle
written here: einsum marginals of |psi|^2 and partial traces of the full
density matrix |psi><psi|.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringpdc.hamiltonian import CoupledBasis, embed, product_state
from ringpdc.observables import (
    SeriesExtrema,
    efficiency_eta,
    series_extrema,
    snapshot_columns,
)
from ringpdc.photon import FockMode, coherent_state, enumerate_bath_basis, number_op
from ringpdc.propagator import CoupledState, PropagatorConfig, propagate


def fock_vec(k: int, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return vec


def random_state(basis: CoupledBasis, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    return vec / np.linalg.norm(vec)


def bell_pair() -> tuple[CoupledBasis, np.ndarray]:
    """(|0,0> + |1,1>)/sqrt(2) on two two-level modes, trivial matter factor."""
    basis = CoupledBasis(1, (2, 2))
    tensor = np.zeros(basis.shape, dtype=complex)
    tensor[0, 0, 0] = 1.0 / math.sqrt(2.0)
    tensor[0, 1, 1] = 1.0 / math.sqrt(2.0)
    return basis, tensor.ravel()


def observe(psi, basis: CoupledBasis, omegas=None, first_mode: int = 1) -> dict[str, float]:
    """The observer's series row for psi, by column name."""
    omegas = omegas if omegas is not None else (1.0,) * len(basis.mode_dims)
    names, observer = snapshot_columns(basis, omegas, first_mode=first_mode)
    return dict(zip(names, observer(psi)))


# dense oracles: tensor axis 0 is matter, mode slot s is axis 1 + s


def marginal(psi, basis: CoupledBasis, *axes: int) -> np.ndarray:
    """|psi|^2 summed over every tensor axis but `axes`, in the order given."""
    probs = np.abs(np.reshape(psi, basis.shape)) ** 2
    return np.einsum(probs, list(range(probs.ndim)), list(axes))


def reduced_purity(psi, basis: CoupledBasis, axis: int) -> float:
    """Tr(rho^2) of the partial trace of |psi><psi| onto one tensor axis."""
    n = len(basis.shape)
    rho = np.outer(psi, np.conj(psi)).reshape(basis.shape * 2)
    bra = [n + axis if i == axis else i for i in range(n)]
    reduced = np.einsum(rho, list(range(n)) + bra, [axis, n + axis])
    return float(np.real(np.trace(reduced @ reduced)))


def mean_n(p: np.ndarray) -> float:
    return float(np.arange(len(p)) @ p)


def mandel_oracle(p: np.ndarray) -> float:
    """(<n^2> - <n>^2 - <n>) / <n> from a Fock distribution."""
    k = np.arange(len(p))
    n = mean_n(p)
    return (float(k**2 @ p) - n * n - n) / n


def g2_oracle(joint: np.ndarray) -> float:
    ka, kb = np.arange(joint.shape[0]), np.arange(joint.shape[1])
    return float(ka @ joint @ kb) / (mean_n(joint.sum(axis=1)) * mean_n(joint.sum(axis=0)))


class TestMarginals:
    def test_product_state_marginal_matches_factor(self):
        basis = CoupledBasis(2, (4, 3))
        m = np.array([0.6, 0.8j])
        f0 = np.array([0.8, 0.4j, 0.2, 0.4], dtype=complex)
        f0 /= np.linalg.norm(f0)
        f1 = np.array([0.0, 1.0, 0.0], dtype=complex)
        psi = product_state(basis, m, [f0, f1])
        names, observer = snapshot_columns(basis, (1.0, 1.0))
        values = observer(psi)
        row = dict(zip(names, values))
        for k in (1, 2, 3):
            assert row[f"P{k}_1"] == pytest.approx(abs(f0[k]) ** 2, abs=1e-14)
        assert [row["P1_2"], row["P2_2"], row["P3_2"]] == [pytest.approx(1.0, abs=1e-14), 0.0, 0.0]
        # after the columns: the population of each mode's highest Fock level
        assert np.allclose(values[len(names) :], [abs(f0[3]) ** 2, 0.0], atol=1e-14)

    def test_marginal_normalized(self):
        basis = CoupledBasis(3, (4, 5))
        psi = random_state(basis, 7)
        row = observe(psi, basis)
        for slot in (0, 1):
            p = marginal(psi, basis, 1 + slot)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            for k in (1, 2, 3):
                assert row[f"P{k}_{slot + 1}"] == pytest.approx(p[k], abs=1e-14)

    def test_joint_marginal_orientation(self):
        basis, psi = bell_pair()
        joint = marginal(psi, basis, 1, 2)
        assert joint[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert joint[1, 1] == pytest.approx(0.5, abs=1e-14)
        assert joint[0, 1] == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(marginal(psi, basis, 2, 1), joint.T, atol=1e-15)
        assert observe(psi, basis)["g2_12"] == pytest.approx(g2_oracle(joint), abs=1e-14)

    def test_joint_needs_distinct_modes(self):
        # cross correlations pair distinct modes only: no g2 of a mode with itself
        basis = CoupledBasis(1, (2, 2, 2))
        names, _ = snapshot_columns(basis, (1.0, 1.0, 1.0))
        assert [n for n in names if n.startswith("g2")] == ["g2_12", "g2_13", "g2_23"]

    def test_bad_mode_slot(self):
        # a frequency for a third mode slot the two-mode basis lacks
        basis, _ = bell_pair()
        with pytest.raises(ValueError, match="frequency"):
            snapshot_columns(basis, (1.0, 1.0, 1.0))

    def test_accepts_coupled_state(self):
        basis, psi = bell_pair()
        _, observer = snapshot_columns(basis, (1.0, 1.0))
        state = CoupledState(psi.copy())
        assert np.array_equal(observer(state), observer(psi))
        assert observe(state, basis)["n1"] == pytest.approx(0.5, abs=1e-14)


class TestOccupation:
    def test_single_photon_product(self):
        basis = CoupledBasis(1, (3, 3))
        psi = product_state(basis, [1.0], [fock_vec(1, 3), fock_vec(0, 3)])
        row = observe(psi, basis)
        assert row["n1"] == pytest.approx(1.0, abs=1e-14)
        assert row["n2"] == pytest.approx(0.0, abs=1e-14)

    def test_coherent_occupation(self):
        basis = CoupledBasis(1, (31,))
        psi = product_state(basis, [1.0], [coherent_state(2.0, 30)])
        assert observe(psi, basis)["n1"] == pytest.approx(4.0, abs=1e-6)

    def test_vacuum(self):
        basis = CoupledBasis(2, (4,))
        psi = product_state(basis, [0.0, 1.0], [fock_vec(0, 4)])
        assert observe(psi, basis)["n1"] == 0.0


class TestFockPopulation:
    def test_poisson_populations(self):
        basis = CoupledBasis(1, (31,))
        psi = product_state(basis, [1.0], [coherent_state(2.0, 30)])
        row = observe(psi, basis)
        assert marginal(psi, basis, 1)[0] == pytest.approx(math.exp(-4.0), abs=1e-8)
        for k in (1, 2, 3):
            expected = math.exp(-4.0) * 4.0**k / math.factorial(k)
            assert row[f"P{k}_1"] == pytest.approx(expected, abs=1e-8)

    def test_vacuum_populations(self):
        basis = CoupledBasis(1, (5,))
        psi = product_state(basis, [1.0], [fock_vec(0, 5)])
        assert marginal(psi, basis, 1)[0] == pytest.approx(1.0, abs=1e-14)
        assert observe(psi, basis)["P3_1"] == 0.0

    def test_level_beyond_truncation(self):
        # n_max = 2: level 2 is the Fock edge, level 3 lies beyond the truncation
        basis = CoupledBasis(1, (3,))
        vec = (fock_vec(0, 3) + fock_vec(2, 3)) / math.sqrt(2.0)
        psi = product_state(basis, [1.0], [vec])
        names, observer = snapshot_columns(basis, (1.0,))
        values = observer(psi)
        row = dict(zip(names, values))
        assert row["P3_1"] == 0.0
        assert values[len(names) :].tolist() == [row["P2_1"]]
        assert row["P2_1"] == pytest.approx(0.5, abs=1e-14)

    def test_occupation_is_population_weighted_sum(self):
        basis = CoupledBasis(2, (6, 5))
        psi = random_state(basis, 21)
        row = observe(psi, basis)
        for slot in (0, 1):
            p = marginal(psi, basis, 1 + slot)
            assert row[f"n{slot + 1}"] == pytest.approx(mean_n(p), abs=1e-12)
            assert p.sum() <= 1.0 + 1e-10
            for k in (1, 2, 3):
                assert row[f"P{k}_{slot + 1}"] == pytest.approx(p[k], abs=1e-14)


class TestMandelQ:
    def test_coherent_poissonian(self):
        basis = CoupledBasis(1, (31,))
        psi = product_state(basis, [1.0], [coherent_state(2.0, 30)])
        assert abs(observe(psi, basis)["Q1"]) < 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fock_states_exactly_minus_one(self, k):
        basis = CoupledBasis(1, (5,))
        psi = product_state(basis, [1.0], [fock_vec(k, 5)])
        assert observe(psi, basis)["Q1"] == -1.0

    def test_vacuum_is_undefined(self):
        basis = CoupledBasis(1, (4,))
        psi = product_state(basis, [1.0], [fock_vec(0, 4)])
        assert math.isnan(observe(psi, basis)["Q1"])

    def test_zero_two_superposition(self):
        # (|0> + |2>)/sqrt(2): <n> = 1, <a^dag a^dag a a> = (1/2)(2*1) = 1,
        # so Q = (1 - 1)/1 = 0.
        basis = CoupledBasis(1, (3,))
        vec = (fock_vec(0, 3) + fock_vec(2, 3)) / math.sqrt(2.0)
        psi = product_state(basis, [1.0], [vec])
        assert observe(psi, basis)["Q1"] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.xfail(
        reason="the quoted value 1 uses the pair-annihilation moment of the pure "
        "two-photon state in place of the superposition average; the defined "
        "formula gives 0 for this state",
        strict=True,
    )
    def test_zero_two_superposition_literal(self):
        basis = CoupledBasis(1, (3,))
        vec = (fock_vec(0, 3) + fock_vec(2, 3)) / math.sqrt(2.0)
        psi = product_state(basis, [1.0], [vec])
        assert observe(psi, basis)["Q1"] == pytest.approx(1.0, abs=1e-12)

    def test_floor_threshold(self):
        # occupation just above the floor stays defined
        basis = CoupledBasis(1, (3,))
        amp = math.sqrt(2e-6)
        vec = np.array([math.sqrt(1 - 2e-6), amp, 0.0], dtype=complex)
        psi = product_state(basis, [1.0], [vec])
        assert math.isfinite(observe(psi, basis)["Q1"])


class TestG2Cross:
    def test_product_of_coherent_states(self):
        basis = CoupledBasis(1, (13, 13))
        psi = product_state(
            basis, [1.0], [coherent_state(1.2, 12), coherent_state(0.8j, 12)]
        )
        row = observe(psi, basis)
        assert row["g2_12"] == pytest.approx(1.0, abs=1e-6)
        assert abs(row["Q1"]) < 1e-6
        assert abs(row["Q2"]) < 1e-6

    def test_fock_product_uncorrelated(self):
        basis = CoupledBasis(1, (3, 3))
        psi = product_state(basis, [1.0], [fock_vec(1, 3), fock_vec(1, 3)])
        assert observe(psi, basis)["g2_12"] == pytest.approx(1.0, abs=1e-14)

    def test_pair_state_correlated(self):
        basis, psi = bell_pair()
        assert observe(psi, basis)["g2_12"] == pytest.approx(2.0, abs=1e-14)

    def test_symmetry(self):
        # the same state with its two modes swapped has the same g2
        basis = CoupledBasis(2, (5, 4))
        psi = random_state(basis, 3)
        swapped = CoupledBasis(2, (4, 5))
        psi_swapped = np.transpose(psi.reshape(basis.shape), (0, 2, 1)).ravel()
        fwd = observe(psi, basis)["g2_12"]
        assert observe(psi_swapped, swapped)["g2_12"] == pytest.approx(fwd, abs=1e-12)

    def test_floored_when_one_mode_dark(self):
        basis = CoupledBasis(1, (3, 3))
        psi = product_state(basis, [1.0], [fock_vec(1, 3), fock_vec(0, 3)])
        assert math.isnan(observe(psi, basis)["g2_12"])


class TestPurity:
    def test_product_state_pure_everywhere(self):
        basis = CoupledBasis(3, (4, 3))
        m = np.array([0.5, 0.5, np.sqrt(0.5) * 1j])
        f0 = np.array([0.6, 0.3, 0.5j, 0.2], dtype=complex)
        f0 /= np.linalg.norm(f0)
        psi = product_state(basis, m, [f0, fock_vec(2, 3)])
        row = observe(psi, basis)
        assert reduced_purity(psi, basis, 0) == pytest.approx(1.0, abs=1e-12)
        assert row["gamma1"] == pytest.approx(1.0, abs=1e-12)
        assert row["gamma2"] == pytest.approx(1.0, abs=1e-12)

    def test_pair_state_half(self):
        basis, psi = bell_pair()
        row = observe(psi, basis)
        assert row["gamma1"] == pytest.approx(0.5, abs=1e-14)
        assert row["gamma2"] == pytest.approx(0.5, abs=1e-14)
        assert reduced_purity(psi, basis, 0) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bounds(self, seed):
        basis = CoupledBasis(2, (3, 4))
        psi = random_state(basis, seed)
        row = observe(psi, basis)
        assert 0.5 - 1e-12 <= reduced_purity(psi, basis, 0) <= 1.0 + 1e-12
        for slot, d in ((0, 3), (1, 4)):
            gamma = row[f"gamma{slot + 1}"]
            assert gamma == pytest.approx(reduced_purity(psi, basis, 1 + slot), abs=1e-12)
            assert 1.0 / d - 1e-12 <= gamma <= 1.0 + 1e-12

    def test_bath_sector_traced_out(self):
        # a bath sector is one more tensor axis: the mode statistics trace it out
        basis = CoupledBasis(2, (3,), bath=enumerate_bath_basis(2, 2))
        psi = random_state(basis, 5)
        row = observe(psi, basis)
        assert basis.shape == (2, 3, 6)
        assert row["n1"] == pytest.approx(mean_n(marginal(psi, basis, 1)), abs=1e-12)
        assert row["gamma1"] == pytest.approx(reduced_purity(psi, basis, 1), abs=1e-12)


class TestPhotonEnergy:
    def test_vacuum_zero_point(self):
        basis = CoupledBasis(1, (4,))
        psi = product_state(basis, [1.0], [fock_vec(0, 4)])
        assert observe(psi, basis, (0.25,))["H1"] == pytest.approx(0.125, abs=1e-14)

    def test_coherent_energy(self):
        basis = CoupledBasis(1, (31,))
        psi = product_state(basis, [1.0], [coherent_state(2.0, 30)])
        omega = 0.4
        assert observe(psi, basis, (omega,))["H1"] == pytest.approx(4.5 * omega, abs=1e-5)

    def test_energy_occupation_consistency(self):
        basis = CoupledBasis(2, (5, 6))
        psi = random_state(basis, 11)
        omega = 0.37
        h = observe(psi, basis, (1.0, omega))["H2"]
        assert h / omega - 0.5 == pytest.approx(mean_n(marginal(psi, basis, 2)), abs=1e-12)


def hand_columns(n2, q2, h1, h2) -> dict[str, np.ndarray]:
    """Named two-mode series columns with a constant unit pump occupation."""
    ones = np.ones(len(n2))
    return {
        "n1": ones,
        "n2": np.asarray(n2, dtype=float),
        "Q1": 0.0 * ones,
        "Q2": np.asarray(q2, dtype=float),
        "gamma1": ones,
        "gamma2": ones,
        "H1": np.asarray(h1, dtype=float),
        "H2": np.asarray(h2, dtype=float),
    }


class TestEfficiency:
    def test_flat_signal_equals_one(self):
        s = hand_columns([0, 0, 0], [0, 0, 0], [2.0, 2.0, 2.0], [2.0, 2.0, 2.0])
        assert efficiency_eta(s) == pytest.approx(1.0, abs=1e-14)

    def test_max_over_times(self):
        s = hand_columns([0, 0, 0], [0, 0, 0], [2.0, 1.9, 1.8], [0.5, 1.5, 1.0])
        assert efficiency_eta(s) == pytest.approx(0.75, abs=1e-14)

    def test_linearity_in_signal_energy(self):
        h2 = [0.5, 1.5, 1.0]
        s1 = hand_columns([0] * 3, [0] * 3, [2.0] * 3, h2)
        s2 = hand_columns([0] * 3, [0] * 3, [2.0] * 3, [2 * v for v in h2])
        assert efficiency_eta(s2) == pytest.approx(2 * efficiency_eta(s1), abs=1e-14)

    def test_no_pump_energy_rejected(self):
        s = hand_columns([0, 0], [0, 0], [0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="pump energy"):
            efficiency_eta(s)

    def test_missing_mode_rejected(self):
        s = hand_columns([0, 0], [0, 0], [1.0, 1.0], [0.5, 0.5])
        del s["H2"]
        with pytest.raises(ValueError, match="photon energies"):
            efficiency_eta(s)


class TestSeriesExtrema:
    def test_basic_extrema(self):
        s = hand_columns(
            [0.0, 0.05, 0.02, 0.04], [math.nan, -0.01, -0.04, -0.02], [1.0] * 4, [0.0] * 4
        )
        ex = series_extrema(np.array([0.0, 1.0, 2.0, 3.0]), s)
        assert ex == SeriesExtrema(n2_max=0.05, t_n2_max=1.0, q2_min=-0.04, t_q2_min=2.0)

    def test_constant_series_reports_window_start(self):
        s = hand_columns([0.3] * 3, [0.1] * 3, [1.0] * 3, [0.0] * 3)
        ex = series_extrema(np.array([0.0, 1.0, 2.0]), s)
        assert ex.n2_max == 0.3 and ex.t_n2_max == 0.0
        assert ex.q2_min == 0.1 and ex.t_q2_min == 0.0

    def test_unpopulated_mode_counts_as_poissonian(self):
        # no statistics while the mode is empty: those samples enter as Q = 0
        s = hand_columns([0.0, 0.0], [math.nan, math.nan], [1.0] * 2, [0.0] * 2)
        ex = series_extrema(np.array([0.0, 1.0]), s)
        assert ex.q2_min == 0.0 and ex.t_q2_min == 0.0

    def test_positive_mandel_minimum_is_the_empty_epoch(self):
        s = hand_columns([0.0, 0.01, 0.02], [math.nan, 0.4, 0.9], [1.0] * 3, [0.0] * 3)
        ex = series_extrema(np.array([0.0, 1.0, 2.0]), s)
        assert ex.q2_min == 0.0 and ex.t_q2_min == 0.0

    def test_missing_signal_rejected(self):
        s = hand_columns([0.1], [0.0], [1.0], [0.0])
        del s["n2"]
        with pytest.raises(ValueError, match="no signal mode"):
            series_extrema(np.array([0.0]), s)


class TestSnapshotColumns:
    def test_row_matches_scalar_ops(self):
        # each column against its scalar formula on the dense oracles
        basis = CoupledBasis(2, (4, 3))
        omegas = (0.9, 0.45)
        psi = random_state(basis, 17)
        row = observe(psi, basis, omegas)
        for slot, w in enumerate(omegas):
            m = slot + 1
            p = marginal(psi, basis, 1 + slot)
            assert row[f"n{m}"] == pytest.approx(mean_n(p), abs=1e-12)
            assert row[f"Q{m}"] == pytest.approx(mandel_oracle(p), abs=1e-12)
            gamma = reduced_purity(psi, basis, 1 + slot)
            assert row[f"gamma{m}"] == pytest.approx(gamma, abs=1e-12)
            assert row[f"H{m}"] == pytest.approx(w * (mean_n(p) + 0.5), abs=1e-12)
            for k in (1, 2):
                assert row[f"P{k}_{m}"] == pytest.approx(p[k], abs=1e-12)
        assert row["g2_12"] == pytest.approx(g2_oracle(marginal(psi, basis, 1, 2)), abs=1e-12)

    @pytest.mark.parametrize("first_mode", [1, 2])
    def test_every_column_by_name(self, first_mode):
        # three modes, one truncated below the third Fock level; every column
        # is checked under its own name against the dense oracles
        basis = CoupledBasis(2, (4, 3, 5))
        omegas = (0.9, 0.45, 0.3)
        names, observer = snapshot_columns(basis, omegas, first_mode=first_mode)
        psi = random_state(basis, 29)
        expect = {}
        for s, w in enumerate(omegas):
            m = first_mode + s
            marg = marginal(psi, basis, 1 + s)
            expect[f"n{m}"] = mean_n(marg)
            for k in (1, 2, 3):
                expect[f"P{k}_{m}"] = marg[k] if k < len(marg) else 0.0
            expect[f"Q{m}"] = mandel_oracle(marg)
            expect[f"gamma{m}"] = reduced_purity(psi, basis, 1 + s)
            expect[f"H{m}"] = w * (mean_n(marg) + 0.5)
            for t in range(s + 1, len(omegas)):
                expect[f"g2_{m}{first_mode + t}"] = g2_oracle(marginal(psi, basis, 1 + s, 1 + t))
        row = observer(psi)
        assert sorted(names) == sorted(expect) and len(row) == len(names) + len(omegas)
        for name, value in zip(names, row):
            assert value == pytest.approx(expect[name], abs=1e-12), name

    def test_edge_populations_follow_the_columns(self):
        # the truncation monitor: each mode's highest-level population, in slot order
        basis = CoupledBasis(2, (4, 3, 5))
        names, observer = snapshot_columns(basis, (0.9, 0.45, 0.3))
        psi = random_state(basis, 31)
        edges = observer(psi)[len(names) :]
        expect = [marginal(psi, basis, 1 + s)[-1] for s in range(3)]
        assert np.allclose(edges, expect, rtol=0.0, atol=1e-14)

    def test_level_beyond_truncation_is_exact_zero(self):
        # a two-level mode holds no 3-photon component, so P_3 is identically 0
        basis = CoupledBasis(1, (2, 4))
        names, observer = snapshot_columns(basis, (1.0, 1.0))
        psi = random_state(basis, 23)
        row = dict(zip(names, observer(psi)))
        assert row["P3_1"] == 0.0

    def test_frequency_count_validated(self):
        basis = CoupledBasis(1, (3, 3))
        with pytest.raises(ValueError, match="frequency"):
            snapshot_columns(basis, (1.0,))

    def test_series_assembly_and_invariants(self):
        # n_max = 3: the recorded P1..P3 and the vacuum hold every photon
        basis = CoupledBasis(2, (4, 4))
        omegas = (1.1, 0.55)
        names, observer = snapshot_columns(basis, omegas)
        states = [random_state(basis, s) for s in (1, 2, 3)]
        rows = np.asarray([observer(p) for p in states])
        assert names == [
            "n1", "n2", "P1_1", "P2_1", "P3_1", "P1_2", "P2_2", "P3_2",
            "Q1", "Q2", "g2_12", "gamma1", "gamma2", "H1", "H2",
        ]
        cols = dict(zip(names, rows.T))
        for m in (0, 1):
            pops = {k: cols[f"P{k}_{m + 1}"] for k in (1, 2, 3)}
            n, energy = cols[f"n{m + 1}"], cols[f"H{m + 1}"]
            for i in range(3):
                vacuum = marginal(states[i], basis, 1 + m)[0]
                assert sum(p[i] for p in pops.values()) + vacuum == pytest.approx(1.0, abs=1e-12)
                assert n[i] == pytest.approx(sum(k * p[i] for k, p in pops.items()), abs=1e-12)
                assert energy[i] == pytest.approx(omegas[m] * (n[i] + 0.5), abs=1e-12)

    def test_field_driven_numbering_keeps_physical_keys(self):
        # a field-driven run quantizes modes 2 and 3 only: the names carry the
        # physical numbers, so the signal mode stays n2 and the missing pump
        # (no H1 column) has no eta
        basis = CoupledBasis(2, (4, 3))
        omegas = (0.45, 0.5)
        times = [0.0, 1.0, 2.0]
        names, observer = snapshot_columns(basis, omegas, first_mode=2)
        assert names == [
            "n2", "n3", "P1_2", "P2_2", "P3_2", "P1_3", "P2_3", "P3_3",
            "Q2", "Q3", "g2_23", "gamma2", "gamma3", "H2", "H3",
        ]
        states = [random_state(basis, s) for s in (4, 5, 6)]
        rows = np.asarray([observer(p) for p in states])
        cols = dict(zip(names, rows.T))
        for slot, m in ((0, 2), (1, 3)):
            margs = [marginal(p, basis, 1 + slot) for p in states]
            occ = np.array([mean_n(p) for p in margs])
            assert np.allclose(cols[f"n{m}"], occ, atol=1e-12)
            assert np.allclose(cols[f"H{m}"], omegas[slot] * (occ + 0.5), atol=1e-12)
            assert np.allclose(cols[f"Q{m}"], [mandel_oracle(p) for p in margs], atol=1e-12)
        ex = series_extrema(np.asarray(times), cols)
        signal = cols["n2"]
        assert ex.n2_max == signal.max()
        assert ex.t_n2_max == times[int(np.argmax(signal))]
        with pytest.raises(ValueError, match="pump"):
            efficiency_eta(cols)

    def test_propagation_of_decoupled_modes_keeps_purity(self):
        # uncoupled evolution generates no entanglement: gamma stays 1, n stays
        # put, the Fock mode keeps Q = -1 and the coherent mode keeps Q = 0
        basis = CoupledBasis(1, (13, 3))
        m1 = FockMode(omega=1.0, n_max=12)
        m2 = FockMode(omega=0.5, n_max=2)
        h = embed(basis, mode_ops={0: 1.0 * number_op(m1)}) + embed(
            basis, mode_ops={1: 0.5 * number_op(m2)}
        )
        psi0 = product_state(basis, [1.0], [coherent_state(1.0, 12), fock_vec(1, 3)])
        names, observer = snapshot_columns(basis, (1.0, 0.5))
        result = propagate(
            h,
            CoupledState(psi0),
            t_final=3.0,
            config=PropagatorConfig(dt=0.25),
            observables={"row": observer},
        )
        cols = dict(zip(names, np.real(result.records["row"]).T))
        assert np.allclose(cols["gamma1"], 1.0, atol=1e-10)
        assert np.allclose(cols["gamma2"], 1.0, atol=1e-10)
        assert np.allclose(cols["n1"], 1.0, atol=1e-9)
        assert np.allclose(cols["Q2"], -1.0, atol=1e-10)
        assert np.all(np.abs(cols["Q1"]) < 1e-6)
        assert np.allclose(cols["g2_12"], 1.0, atol=1e-9)
