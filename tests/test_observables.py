"""Photon-statistics measurements: marginals, Q, g2, purity, energies, series."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringpdc.hamiltonian import CoupledBasis, embed, product_state
from ringpdc.observables import (
    SeriesExtrema,
    column_names,
    efficiency_eta,
    fock_population,
    g2_cross,
    joint_marginal,
    mandel_q,
    mode_marginal,
    mode_occupation,
    photon_energy,
    purity,
    series_extrema,
    snapshot_columns,
)
from ringpdc.photon import FockMode, coherent_state, number_op
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


class TestMarginals:
    def test_product_state_marginal_matches_factor(self):
        basis = CoupledBasis(2, (4, 3))
        m = np.array([0.6, 0.8j])
        f0 = np.array([0.8, 0.4j, 0.2, 0.4], dtype=complex)
        f0 /= np.linalg.norm(f0)
        f1 = np.array([0.0, 1.0, 0.0], dtype=complex)
        psi = product_state(basis, m, [f0, f1])
        assert np.allclose(mode_marginal(psi, basis, 0), np.abs(f0) ** 2, atol=1e-14)
        assert np.allclose(mode_marginal(psi, basis, 1), np.abs(f1) ** 2, atol=1e-14)

    def test_marginal_normalized(self):
        basis = CoupledBasis(3, (4, 5))
        psi = random_state(basis, 7)
        for mode in (0, 1):
            assert mode_marginal(psi, basis, mode).sum() == pytest.approx(1.0, abs=1e-12)

    def test_joint_marginal_orientation(self):
        basis, psi = bell_pair()
        joint = joint_marginal(psi, basis, 0, 1)
        assert joint[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert joint[1, 1] == pytest.approx(0.5, abs=1e-14)
        assert joint[0, 1] == pytest.approx(0.0, abs=1e-14)
        swapped = joint_marginal(psi, basis, 1, 0)
        assert np.allclose(swapped, joint.T, atol=1e-15)

    def test_joint_needs_distinct_modes(self):
        basis, psi = bell_pair()
        with pytest.raises(ValueError, match="distinct"):
            joint_marginal(psi, basis, 1, 1)

    def test_bad_mode_slot(self):
        basis, psi = bell_pair()
        with pytest.raises(ValueError, match="mode slot"):
            mode_marginal(psi, basis, 2)

    def test_accepts_coupled_state(self):
        basis, psi = bell_pair()
        state = CoupledState(psi.copy())
        assert mode_occupation(state, basis, 0) == pytest.approx(0.5, abs=1e-14)


class TestOccupation:
    def test_single_photon_product(self):
        basis = CoupledBasis(1, (3, 3))
        psi = product_state(basis, [1.0], [fock_vec(1, 3), fock_vec(0, 3)])
        assert mode_occupation(psi, basis, 0) == pytest.approx(1.0, abs=1e-14)
        assert mode_occupation(psi, basis, 1) == pytest.approx(0.0, abs=1e-14)

    def test_coherent_occupation(self):
        basis = CoupledBasis(1, (31,))
        psi = product_state(basis, [1.0], [coherent_state(2.0, 30)])
        assert mode_occupation(psi, basis, 0) == pytest.approx(4.0, abs=1e-6)

    def test_vacuum(self):
        basis = CoupledBasis(2, (4,))
        psi = product_state(basis, [0.0, 1.0], [fock_vec(0, 4)])
        assert mode_occupation(psi, basis, 0) == 0.0


class TestFockPopulation:
    def test_poisson_populations(self):
        basis = CoupledBasis(1, (31,))
        psi = product_state(basis, [1.0], [coherent_state(2.0, 30)])
        for k in range(4):
            expected = math.exp(-4.0) * 4.0**k / math.factorial(k)
            assert fock_population(psi, basis, 0, k) == pytest.approx(expected, abs=1e-8)

    def test_vacuum_populations(self):
        basis = CoupledBasis(1, (5,))
        psi = product_state(basis, [1.0], [fock_vec(0, 5)])
        assert fock_population(psi, basis, 0, 0) == pytest.approx(1.0, abs=1e-14)
        assert fock_population(psi, basis, 0, 3) == 0.0

    def test_level_beyond_truncation(self):
        basis = CoupledBasis(1, (3,))
        psi = product_state(basis, [1.0], [fock_vec(0, 3)])
        with pytest.raises(ValueError, match="truncation"):
            fock_population(psi, basis, 0, 3)

    def test_occupation_is_population_weighted_sum(self):
        basis = CoupledBasis(2, (6, 5))
        psi = random_state(basis, 21)
        for mode, dim in ((0, 6), (1, 5)):
            total = sum(k * fock_population(psi, basis, mode, k) for k in range(dim))
            assert mode_occupation(psi, basis, mode) == pytest.approx(total, abs=1e-8)
            mass = sum(fock_population(psi, basis, mode, k) for k in range(dim))
            assert mass <= 1.0 + 1e-10


class TestMandelQ:
    def test_coherent_poissonian(self):
        basis = CoupledBasis(1, (31,))
        psi = product_state(basis, [1.0], [coherent_state(2.0, 30)])
        assert abs(mandel_q(psi, basis, 0)) < 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fock_states_exactly_minus_one(self, k):
        basis = CoupledBasis(1, (5,))
        psi = product_state(basis, [1.0], [fock_vec(k, 5)])
        assert mandel_q(psi, basis, 0) == -1.0

    def test_vacuum_is_undefined(self):
        basis = CoupledBasis(1, (4,))
        psi = product_state(basis, [1.0], [fock_vec(0, 4)])
        assert math.isnan(mandel_q(psi, basis, 0))

    def test_zero_two_superposition(self):
        # (|0> + |2>)/sqrt(2): <n> = 1, <a^dag a^dag a a> = (1/2)(2*1) = 1,
        # so Q = (1 - 1)/1 = 0.
        basis = CoupledBasis(1, (3,))
        vec = (fock_vec(0, 3) + fock_vec(2, 3)) / math.sqrt(2.0)
        psi = product_state(basis, [1.0], [vec])
        assert mandel_q(psi, basis, 0) == pytest.approx(0.0, abs=1e-14)

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
        assert mandel_q(psi, basis, 0) == pytest.approx(1.0, abs=1e-12)

    def test_floor_threshold(self):
        # occupation just above the floor stays defined
        basis = CoupledBasis(1, (3,))
        amp = math.sqrt(2e-6)
        vec = np.array([math.sqrt(1 - 2e-6), amp, 0.0], dtype=complex)
        psi = product_state(basis, [1.0], [vec])
        assert math.isfinite(mandel_q(psi, basis, 0))


class TestG2Cross:
    def test_product_of_coherent_states(self):
        basis = CoupledBasis(1, (13, 13))
        psi = product_state(
            basis, [1.0], [coherent_state(1.2, 12), coherent_state(0.8j, 12)]
        )
        assert g2_cross(psi, basis, 0, 1) == pytest.approx(1.0, abs=1e-6)
        assert abs(mandel_q(psi, basis, 0)) < 1e-6
        assert abs(mandel_q(psi, basis, 1)) < 1e-6

    def test_fock_product_uncorrelated(self):
        basis = CoupledBasis(1, (3, 3))
        psi = product_state(basis, [1.0], [fock_vec(1, 3), fock_vec(1, 3)])
        assert g2_cross(psi, basis, 0, 1) == pytest.approx(1.0, abs=1e-14)

    def test_pair_state_correlated(self):
        basis, psi = bell_pair()
        assert g2_cross(psi, basis, 0, 1) == pytest.approx(2.0, abs=1e-14)

    def test_symmetry(self):
        basis = CoupledBasis(2, (5, 4))
        psi = random_state(basis, 3)
        fwd = g2_cross(psi, basis, 0, 1)
        rev = g2_cross(psi, basis, 1, 0)
        assert fwd == pytest.approx(rev, abs=1e-12)

    def test_floored_when_one_mode_dark(self):
        basis = CoupledBasis(1, (3, 3))
        psi = product_state(basis, [1.0], [fock_vec(1, 3), fock_vec(0, 3)])
        assert math.isnan(g2_cross(psi, basis, 0, 1))


class TestPurity:
    def test_product_state_pure_everywhere(self):
        basis = CoupledBasis(3, (4, 3))
        m = np.array([0.5, 0.5, np.sqrt(0.5) * 1j])
        f0 = np.array([0.6, 0.3, 0.5j, 0.2], dtype=complex)
        f0 /= np.linalg.norm(f0)
        psi = product_state(basis, m, [f0, fock_vec(2, 3)])
        assert purity(psi, basis, "matter") == pytest.approx(1.0, abs=1e-12)
        assert purity(psi, basis, 0) == pytest.approx(1.0, abs=1e-12)
        assert purity(psi, basis, 1) == pytest.approx(1.0, abs=1e-12)

    def test_pair_state_half(self):
        basis, psi = bell_pair()
        assert purity(psi, basis, 0) == pytest.approx(0.5, abs=1e-14)
        assert purity(psi, basis, 1) == pytest.approx(0.5, abs=1e-14)
        assert purity(psi, basis, "matter") == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_bounds(self, seed):
        basis = CoupledBasis(2, (3, 4))
        psi = random_state(basis, seed)
        for label, d in (("matter", 2), (0, 3), (1, 4)):
            gamma = purity(psi, basis, label)
            assert 1.0 / d - 1e-12 <= gamma <= 1.0 + 1e-12

    def test_bath_requires_bath_sector(self):
        basis = CoupledBasis(2, (3,))
        psi = random_state(basis, 5)
        with pytest.raises(ValueError, match="bath"):
            purity(psi, basis, "bath")


class TestPhotonEnergy:
    def test_vacuum_zero_point(self):
        basis = CoupledBasis(1, (4,))
        psi = product_state(basis, [1.0], [fock_vec(0, 4)])
        assert photon_energy(psi, basis, 0, omega=0.25) == pytest.approx(0.125, abs=1e-14)

    def test_coherent_energy(self):
        basis = CoupledBasis(1, (31,))
        psi = product_state(basis, [1.0], [coherent_state(2.0, 30)])
        omega = 0.4
        assert photon_energy(psi, basis, 0, omega) == pytest.approx(4.5 * omega, abs=1e-5)

    def test_energy_occupation_consistency(self):
        basis = CoupledBasis(2, (5, 6))
        psi = random_state(basis, 11)
        omega = 0.37
        h = photon_energy(psi, basis, 1, omega)
        assert h / omega - 0.5 == pytest.approx(mode_occupation(psi, basis, 1), abs=1e-12)


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
        basis = CoupledBasis(2, (4, 3))
        omegas = (0.9, 0.45)
        names, observer = snapshot_columns(basis, omegas)
        psi = random_state(basis, 17)
        row = dict(zip(names, observer(psi)))
        for m, w in enumerate(omegas):
            assert row[f"n{m + 1}"] == pytest.approx(mode_occupation(psi, basis, m), abs=1e-12)
            assert row[f"Q{m + 1}"] == pytest.approx(mandel_q(psi, basis, m), abs=1e-12)
            assert row[f"gamma{m + 1}"] == pytest.approx(purity(psi, basis, m), abs=1e-12)
            assert row[f"H{m + 1}"] == pytest.approx(photon_energy(psi, basis, m, w), abs=1e-12)
            for k in (1, 2):
                assert row[f"P{k}_{m + 1}"] == pytest.approx(
                    fock_population(psi, basis, m, k), abs=1e-12
                )
        assert row["g2_12"] == pytest.approx(g2_cross(psi, basis, 0, 1), abs=1e-12)

    @pytest.mark.parametrize("first_mode", [1, 2])
    def test_every_column_by_name(self, first_mode):
        # three modes, one truncated below the third Fock level; every column
        # is checked under its own name against the standalone statistic
        basis = CoupledBasis(2, (4, 3, 5))
        omegas = (0.9, 0.45, 0.3)
        names, observer = snapshot_columns(basis, omegas, first_mode=first_mode)
        psi = random_state(basis, 29)
        expect = {}
        for s, w in enumerate(omegas):
            m = first_mode + s
            marg = mode_marginal(psi, basis, s)
            expect[f"n{m}"] = mode_occupation(psi, basis, s)
            for k in (1, 2, 3):
                expect[f"P{k}_{m}"] = marg[k] if k < len(marg) else 0.0
            expect[f"Q{m}"] = mandel_q(psi, basis, s)
            expect[f"gamma{m}"] = purity(psi, basis, s)
            expect[f"H{m}"] = photon_energy(psi, basis, s, w)
            for t in range(s + 1, len(omegas)):
                expect[f"g2_{m}{first_mode + t}"] = g2_cross(psi, basis, s, t)
        row = observer(psi)
        assert sorted(names) == sorted(expect) and len(row) == len(names)
        for name, value in zip(names, row):
            assert value == pytest.approx(expect[name], abs=1e-12), name

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
        basis = CoupledBasis(2, (5, 4))
        omegas = (1.1, 0.55)
        levels = tuple(range(1, 5))
        names, observer = snapshot_columns(basis, omegas, fock_levels=levels)
        states = [random_state(basis, s) for s in (1, 2, 3)]
        rows = np.asarray([observer(p) for p in states])
        assert names == column_names(2, fock_levels=levels)
        cols = dict(zip(names, rows.T))
        for m, dim in ((0, 5), (1, 4)):
            pops = {k: cols[f"P{k}_{m + 1}"] for k in levels if k < dim}
            n, energy = cols[f"n{m + 1}"], cols[f"H{m + 1}"]
            for i in range(3):
                mass = sum(p[i] for p in pops.values()) + fock_population(states[i], basis, m, 0)
                assert mass <= 1.0 + 1e-10
                assert n[i] == pytest.approx(sum(k * p[i] for k, p in pops.items()), abs=1e-8)
                assert energy[i] == pytest.approx(omegas[m] * (n[i] + 0.5), abs=1e-12)

    def test_field_driven_numbering_keeps_physical_keys(self):
        # a field-driven run quantizes modes 2 and 3 only: the names carry the
        # physical numbers, so the signal mode stays n2 and the missing pump
        # (no H1 column) has no eta
        basis = CoupledBasis(2, (4, 3))
        omegas = (0.45, 0.5)
        times = [0.0, 1.0, 2.0]
        names, observer = snapshot_columns(basis, omegas, first_mode=2)
        assert names == column_names(2, first_mode=2)
        assert names[:2] == ["n2", "n3"] and "P3_3" in names and "g2_23" in names
        states = [random_state(basis, s) for s in (4, 5, 6)]
        rows = np.asarray([observer(p) for p in states])
        cols = dict(zip(names, rows.T))
        assert [n for n in names if n.startswith("P")] == [
            f"P{k}_{m}" for m in (2, 3) for k in (1, 2, 3)
        ]
        assert [n for n in names if n.startswith("g2")] == ["g2_23"]
        for slot, m in ((0, 2), (1, 3)):
            occ = np.array([mode_occupation(p, basis, slot) for p in states])
            assert np.allclose(cols[f"n{m}"], occ, atol=1e-12)
            assert np.allclose(cols[f"H{m}"], omegas[slot] * (occ + 0.5), atol=1e-12)
            assert np.allclose(
                cols[f"Q{m}"], [mandel_q(p, basis, slot) for p in states], atol=1e-12
            )
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
