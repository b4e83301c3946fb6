"""Assembly tests: tensor bookkeeping, geometry factors, restricted-bath
algebra against a dense projected oracle, pump schemes, and calibration."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ringpdc import hamiltonian as ham
from ringpdc.matter import inversion_parities, reflection_even, transition_matrices
from ringpdc.photon import (
    BathSpec,
    FockMode,
    bath_ladder,
    number_op,
    quadratures,
    sample_bath,
)
from ringpdc import scenarios as sc
from ringpdc.scenarios import degenerate_polarization_vectors, polarization_vectors
from ringpdc.units import energy_to_eff, ps_to_eff, time_to_eff

W1 = energy_to_eff(24.65)
W2 = energy_to_eff(1.36)
W3 = energy_to_eff(23.29)


@pytest.fixture(scope="module")
def matter3(ring200):
    tm_full = transition_matrices(ring200)
    return ham.restrict_levels(ring200, tm_full, [0, 1, 2])


@pytest.fixture(scope="module")
def tm_full(ring200):
    return transition_matrices(ring200)


def default_modes(n_max=4, lam=0.02):
    e1, e2, e3 = polarization_vectors(math.pi / 2, math.pi / 2)
    return [
        FockMode(W1, n_max, lam, e1),
        FockMode(W2, n_max, lam, e2),
        FockMode(W3, n_max, lam, e3),
    ]


def few_level(levels, matter, tm, modes, **kwargs):
    """assemble_system on the selected levels, in their order, and its basis."""
    sub, sub_tm = ham.restrict_levels(matter, tm, levels)
    basis = ham.CoupledBasis(sub.n_states, tuple(m.dim for m in modes))
    return ham.assemble_system(basis, sub, sub_tm, modes, **kwargs), basis


def bath_terms(basis, matter, tm, main, bath_modes):
    """The bath pairs alone, the part of assemble_system(..., bath_modes=...)
    that the bath adds to the system pairs."""
    _, px, py = ham._real_matter(matter, tm)
    return ham._kron_sum(basis, ham._bath_pairs(basis, px, py, main, bath_modes))


class TestCoupledBasis:
    def test_shape_and_dim(self):
        basis = ham.CoupledBasis(3, (5, 4))
        assert basis.shape == (3, 5, 4)
        assert basis.dim == 60

    def test_bath_extends_shape(self):
        from ringpdc.photon import enumerate_bath_basis

        bath = enumerate_bath_basis(2, 2)
        basis = ham.CoupledBasis(3, (4,), bath=bath)
        assert basis.shape == (3, 4, 6)
        assert basis.dim == 72

    def test_validation(self):
        with pytest.raises(ValueError):
            ham.CoupledBasis(0, (4,))
        with pytest.raises(ValueError):
            ham.CoupledBasis(3, (1,))

    @given(
        idx=st.tuples(
            st.integers(0, 2), st.integers(0, 4), st.integers(0, 3)
        )
    )
    def test_flatten_unflatten_bijection(self, idx):
        # the product of basis vectors (matter i, n1, n2) sits at the
        # row-major index of its labels, and that index gives the labels back
        basis = ham.CoupledBasis(3, (5, 4))
        unit = [np.eye(d)[k] for d, k in zip(basis.shape, idx)]
        psi = ham.product_state(basis, unit[0], unit[1:])
        flat = int(np.flatnonzero(psi)[0])
        assert flat == np.ravel_multi_index(idx, basis.shape)
        assert tuple(int(i) for i in np.unravel_index(flat, basis.shape)) == idx

    def test_row_major_order(self):
        # matter slowest, last mode fastest
        basis = ham.CoupledBasis(2, (3, 4))
        for labels, flat in (((0, 0, 1), 1), ((0, 1, 0), 4), ((1, 0, 0), 12)):
            unit = [np.eye(d)[k] for d, k in zip(basis.shape, labels)]
            psi = ham.product_state(basis, unit[0], unit[1:])
            assert np.flatnonzero(psi).tolist() == [flat]


class TestGeometry:
    def test_three_mode_vectors_at_ninety(self):
        e1, e2, e3 = polarization_vectors(math.pi / 2, math.pi / 2)
        assert e1 == (1.0, 0.0)
        assert abs(e2[0] + 1.0) < 1e-15 and abs(e2[1]) < 1e-15
        assert abs(e3[0] - 1.0) < 1e-15 and abs(e3[1]) < 1e-15

    def test_three_mode_vectors_at_zero(self):
        _, e2, e3 = polarization_vectors(0.0, 0.0)
        assert e2 == (0.0, 1.0)
        assert e3 == (0.0, 1.0)

    def test_degenerate_vectors(self):
        e1, e2 = degenerate_polarization_vectors(0.0)
        assert e1 == (1.0, 0.0) and e2 == (0.0, 1.0)
        e1, _ = degenerate_polarization_vectors(math.pi / 2)
        assert abs(e1[0]) < 1e-15 and abs(e1[1] - 1.0) < 1e-15

    def test_nan_polarization_rejected(self):
        with pytest.raises(ValueError, match="unit vector"):
            FockMode(W1, 2, 0.02, (math.nan, 1.0))


class TestEmbed:
    def test_identity_embedding(self):
        basis = ham.CoupledBasis(2, (3,))
        eye = ham.embed(basis)
        assert abs(eye - sp.identity(6)).max() == 0.0

    def test_mode_slot_placement(self):
        basis = ham.CoupledBasis(1, (2, 3))
        n1 = ham.embed(basis, mode_ops={1: sp.diags(np.arange(3.0)).tocsr()})
        # occupation of the second mode read off a basis state
        k = np.ravel_multi_index((0, 1, 2), basis.shape)
        assert n1[k, k] == 2.0

    def test_bath_op_without_bath(self):
        basis = ham.CoupledBasis(2, (3,))
        with pytest.raises(ValueError, match="bath"):
            ham.embed(basis, bath_op=sp.identity(4))

    def test_accepts_hermitian_factors(self):
        from ringpdc.photon import enumerate_bath_basis

        basis = ham.CoupledBasis(2, (2,), bath=enumerate_bath_basis(1, 1))
        herm = sp.csr_matrix(np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 3.0]]))
        out = ham.embed(basis, mode_ops={0: herm}, bath_op=herm)
        assert out.shape == (8, 8)

    @pytest.mark.parametrize("slot", ["mode", "bath"])
    def test_rejects_non_hermitian_factor(self, slot):
        from ringpdc.photon import enumerate_bath_basis

        basis = ham.CoupledBasis(2, (2,), bath=enumerate_bath_basis(1, 1))
        bad = sp.csr_matrix(np.array([[1.0, 2.0], [2.0 + 1e-6, 3.0]]))
        factor = {
            "mode": {"mode_ops": {0: bad}},
            "bath": {"bath_op": bad},
        }[slot]
        with pytest.raises(ValueError, match="Hermiticity defect"):
            ham.embed(basis, **factor)


class TestFactorPairChecks:
    """_kron_sum is where matter factors enter H: it refuses the ones H cannot take."""

    def test_factors_must_tile_the_basis(self):
        basis = ham.CoupledBasis(2, (3,))
        with pytest.raises(ValueError, match="do not tile"):
            ham._kron_sum(basis, [(np.eye(3), sp.identity(3, format="csr"))])

    def test_rejects_non_symmetric_matter_factor(self):
        basis = ham.CoupledBasis(2, (2,))
        bad = np.array([[1.0, 2.0], [2.0 + 1e-6, 3.0]])
        with pytest.raises(ValueError, match="Hermiticity defect"):
            ham._kron_sum(basis, [(bad, sp.identity(2, format="csr"))])

    @pytest.mark.parametrize("side", ["matter", "photon"])
    def test_rejects_complex_factor_pair(self, side):
        basis = ham.CoupledBasis(2, (2,))
        herm = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 3.0]])
        pair = {
            "matter": (herm, sp.identity(2, format="csr")),
            "photon": (np.eye(2), sp.csr_matrix(herm)),
        }[side]
        with pytest.raises(ValueError, match="complex factor pair"):
            ham._kron_sum(basis, [pair])


class TestProductState:
    def test_normalized_product(self):
        basis = ham.CoupledBasis(2, (3,))
        psi = ham.product_state(basis, np.array([1.0, 0.0]), [np.array([0.0, 1.0, 0.0])])
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
        assert psi[np.ravel_multi_index((0, 1), basis.shape)] == 1.0

    def test_dimension_mismatch(self):
        basis = ham.CoupledBasis(2, (3,))
        with pytest.raises(ValueError):
            ham.product_state(basis, np.ones(3), [np.ones(3)])
        with pytest.raises(ValueError):
            ham.product_state(basis, np.ones(2), [np.ones(4)])

    def test_bath_defaults_to_vacuum(self):
        from ringpdc.photon import enumerate_bath_basis

        bath = enumerate_bath_basis(2, 2)
        basis = ham.CoupledBasis(1, (2,), bath=bath)
        psi = ham.product_state(basis, np.ones(1), [np.array([1.0, 0.0])])
        assert psi[np.ravel_multi_index((0, 0, bath.index_of(())), basis.shape)] == 1.0


class TestDecoupledSpectrum:
    def test_lambda_zero_energies_additive(self, matter3):
        mb, tm = matter3
        modes = [
            FockMode(W1, 2, 0.0, (1.0, 0.0)),
            FockMode(W2, 2, 0.0, (-1.0, 0.0)),
            FockMode(W3, 2, 0.0, (1.0, 0.0)),
        ]
        # polarization is irrelevant at lambda = 0
        h, basis = few_level([0, 1, 2], mb, tm, modes)
        vals = np.linalg.eigvalsh(h.toarray())
        expect = sorted(
            mb.energies[i]
            + (n1 + 0.5) * W1
            + (n2 + 0.5) * W2
            + (n3 + 0.5) * W3
            for i in range(3)
            for n1 in range(3)
            for n2 in range(3)
            for n3 in range(3)
        )
        assert np.abs(vals - np.array(expect)).max() < 1e-12


class TestFewLevel:
    def test_all_levels_equals_full_assembly(self, ring200, tm_full):
        modes = default_modes(n_max=2)
        basis = ham.CoupledBasis(12, (3, 3, 3))
        full = ham.assemble_system(basis, ring200, tm_full, modes)
        sliced, _ = few_level(range(12), ring200, tm_full, modes)
        diff = abs(full - sliced)
        assert (diff.max() if diff.nnz else 0.0) < 1e-10

    def test_incomplete_pair_rejected(self, ring200, tm_full):
        with pytest.raises(ValueError, match="partner"):
            ham.restrict_levels(ring200, tm_full, [0, 1])

    def test_partial_harmonic_shell_rejected(self, ring0):
        # at V0 = 0 the levels 3, 4 and 5 form the j = 3 oscillator shell; its
        # |l| labels mix within the shell, so completeness goes by energy cluster
        tm = transition_matrices(ring0)
        assert ring0.j_labels[3:6].tolist() == [3, 3, 3]
        for levels in ([0, 5], [0, 3, 4]):
            with pytest.raises(ValueError, match="partner"):
                ham.restrict_levels(ring0, tm, levels)
        mb, _ = ham.restrict_levels(ring0, tm, [0, 3, 4, 5])
        assert mb.n_states == 4

    def test_duplicate_levels_rejected(self, ring200, tm_full):
        with pytest.raises(ValueError, match="duplicate"):
            ham.restrict_levels(ring200, tm_full, [0, 1, 1, 2])

    def test_out_of_range_rejected(self, ring200, tm_full):
        with pytest.raises(ValueError, match="outside"):
            ham.restrict_levels(ring200, tm_full, [0, 1, 2, 40])

    def test_restrict_levels_slices_consistently(self, ring200, tm_full):
        mb, tm = ham.restrict_levels(ring200, tm_full, [0, 1, 2, 3, 4])
        assert mb.n_states == 5
        assert np.allclose(mb.energies, ring200.energies[:5])
        assert np.allclose(tm.px, tm_full.px[:5, :5])
        assert list(mb.l_labels) == list(ring200.l_labels[:5])


class TestGeometryFactors:
    def test_ninety_degrees_couples_px_only(self, matter3):
        # at theta2 = theta3 = 90 deg all bilinears lie along x: zeroing py
        # must not change the Hamiltonian
        mb, tm = matter3
        from ringpdc.matter import TransitionMatrices

        tm_no_py = TransitionMatrices(
            x_dip=tm.x_dip, y_dip=tm.y_dip, px=tm.px, py=np.zeros_like(tm.py)
        )
        modes = default_modes(n_max=3)
        basis = ham.CoupledBasis(3, (4, 4, 4))
        h_a = ham.assemble_system(basis, mb, tm, modes)
        h_b = ham.assemble_system(basis, mb, tm_no_py, modes)
        diff = abs(h_a - h_b)
        assert (diff.max() if diff.nnz else 0.0) < 1e-12

    def test_pump_signal_ladder_element(self, matter3):
        # the mode-1/mode-2 diamagnetic term carries e1.e2 = -sin(theta2)
        mb, tm = matter3
        modes = default_modes(n_max=3)
        basis = ham.CoupledBasis(3, (4, 4, 4))
        h = ham.assemble_system(basis, mb, tm, modes)
        bra = np.ravel_multi_index((0, 1, 1, 0), basis.shape)
        ket = np.ravel_multi_index((0, 0, 0, 0), basis.shape)
        lam = 0.02
        expect = lam * lam * (-1.0) / (2.0 * math.sqrt(W1 * W2))
        assert abs(h[bra, ket] - expect) < 1e-12

    def test_pump_idler_ladder_element_sign(self, matter3):
        # e1.e3 = +sin(theta3): opposite sign to the mode-1/mode-2 term
        mb, tm = matter3
        modes = default_modes(n_max=3)
        basis = ham.CoupledBasis(3, (4, 4, 4))
        h = ham.assemble_system(basis, mb, tm, modes)
        bra = np.ravel_multi_index((0, 1, 0, 1), basis.shape)
        ket = np.ravel_multi_index((0, 0, 0, 0), basis.shape)
        lam = 0.02
        expect = lam * lam * (+1.0) / (2.0 * math.sqrt(W1 * W3))
        assert abs(h[bra, ket] - expect) < 1e-12

    def test_signal_idler_ladder_element(self, matter3):
        # e2.e3 = cos(theta2 + theta3) = -1 at the default angles
        mb, tm = matter3
        modes = default_modes(n_max=3)
        basis = ham.CoupledBasis(3, (4, 4, 4))
        h = ham.assemble_system(basis, mb, tm, modes)
        bra = np.ravel_multi_index((0, 0, 1, 1), basis.shape)
        ket = np.ravel_multi_index((0, 0, 0, 0), basis.shape)
        lam = 0.02
        expect = lam * lam * (-1.0) / (2.0 * math.sqrt(W2 * W3))
        assert abs(h[bra, ket] - expect) < 1e-12

    def test_degenerate_orthogonal_pump_has_no_cross_term(self, matter3):
        mb, tm = matter3
        for theta1, expect_zero in ((0.0, True), (math.pi / 3, False)):
            e1, e2 = degenerate_polarization_vectors(theta1)
            modes = [FockMode(W2, 3, 0.017, e1), FockMode(W2 / 2, 3, 0.017, e2)]
            basis = ham.CoupledBasis(3, (4, 4))
            h = ham.assemble_system(basis, mb, tm, modes)
            bra = np.ravel_multi_index((0, 1, 1), basis.shape)
            ket = np.ravel_multi_index((0, 0, 0), basis.shape)
            element = abs(h[bra, ket])
            if expect_zero:
                assert element < 1e-15
            else:
                assert element > 1e-7

    def test_mode_count_validation(self, matter3):
        # one quantized mode per basis slot, whatever the scenario kind
        mb, tm = matter3
        modes = default_modes(n_max=2)
        with pytest.raises(ValueError, match="mode count"):
            ham.assemble_system(ham.CoupledBasis(3, (3, 3, 3)), mb, tm, modes[:2])
        with pytest.raises(ValueError, match="mode count"):
            ham.assemble_system(ham.CoupledBasis(3, (3, 3)), mb, tm, modes)


def dense_reference(matter_h, px, py, mode_specs, dims):
    """Independent dense construction: H_el + sum w(n+1/2) - A.p + A^2/2
    with per-factor numpy kron products (no shared code with embed)."""

    def ladder(n):
        return np.diag(np.sqrt(np.arange(1.0, n)), 1)

    def lift(op, slot):
        mats = [np.eye(d) for d in dims]
        mats[slot] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    h = lift(matter_h, 0)
    ax = np.zeros((int(np.prod(dims)),) * 2)
    ay = np.zeros_like(ax)
    for slot, (w, lam, pol) in enumerate(mode_specs, start=1):
        n = dims[slot]
        a = ladder(n)
        h = h + lift(w * (np.diag(np.arange(n, dtype=float)) + 0.5 * np.eye(n)), slot)
        q = (a + a.T) / math.sqrt(2.0 * w)
        ax = ax + lam * pol[0] * lift(q, slot)
        ay = ay + lam * pol[1] * lift(q, slot)
    h = h - (ax @ lift(px, 0) + ay @ lift(py, 0)) + 0.5 * (ax @ ax + ay @ ay)
    return h


def real_gauge(matter):
    """The diagonal phase i^(odd) that takes the stored levels to the real
    levels assemble_system uses: i on each inversion-odd level."""
    return np.diag(np.where(inversion_parities(matter) < 0, 1j, 1.0))


def in_real_gauge(ref, matter):
    """A dense H on (stored levels) x (the rest), moved onto the real levels
    assemble_system uses (matter slowest)."""
    lift = np.kron(real_gauge(matter), np.eye(ref.shape[0] // matter.n_states))
    return lift.conj().T @ ref @ lift


class TestDenseOracle:
    def test_degenerate_assembly_matches_dense(self, matter3):
        mb, tm = matter3
        theta1 = math.pi / 6
        e1, e2 = degenerate_polarization_vectors(theta1)
        modes = [FockMode(W2, 2, 0.017, e1), FockMode(W2 / 2, 2, 0.017, e2)]
        basis = ham.CoupledBasis(3, (3, 3))
        h = ham.assemble_system(basis, mb, tm, modes)
        ref = dense_reference(
            mb.h_matrix(),
            tm.px,
            tm.py,
            [(m.omega, m.lam, m.polarization) for m in modes],
            [3, 3, 3],
        )
        assert np.abs(h.toarray() - in_real_gauge(ref, mb)).max() < 1e-13

    def test_three_mode_assembly_matches_dense(self, matter3):
        mb, tm = matter3
        evecs = polarization_vectors(math.pi / 3, math.pi / 5)
        modes = [
            FockMode(W1, 2, 0.014, evecs[0]),
            FockMode(W2, 2, 0.020, evecs[1]),
            FockMode(W3, 2, 0.026, evecs[2]),
        ]
        basis = ham.CoupledBasis(3, (3, 3, 3))
        h = ham.assemble_system(basis, mb, tm, modes)
        ref = dense_reference(
            mb.h_matrix(),
            tm.px,
            tm.py,
            [(m.omega, m.lam, m.polarization) for m in modes],
            [3, 3, 3, 3],
        )
        assert np.abs(h.toarray() - in_real_gauge(ref, mb)).max() < 1e-13


@pytest.fixture(scope="module")
def bath_setup(matter3):
    mb, tm = matter3
    theta1 = math.pi / 6
    e1, e2 = degenerate_polarization_vectors(theta1)
    main = [FockMode(W2, 2, 0.017, e1), FockMode(W2 / 2, 2, 0.017, e2)]
    spec = BathSpec(lam=0.007, windows=((1.0, 2.0, 2),))
    bath_modes, bath_basis = sample_bath(spec)
    basis = ham.CoupledBasis(3, (3, 3), bath=bath_basis)
    h_main = ham.assemble_system(basis, mb, tm, main)
    h_bath = bath_terms(basis, mb, tm, main, bath_modes)
    return mb, tm, main, bath_modes, bath_basis, basis, h_main, h_bath


class TestBathAssembly:
    def test_total_matches_projected_dense_oracle(self, bath_setup):
        # roomy per-mode truncation + projection onto total bath occupation
        # <= 2 is the exact restricted-sector Hamiltonian
        mb, tm, main, bath_modes, bath_basis, basis, h_main, h_bath = bath_setup
        nb = 5
        dims = [3, 3, 3, nb, nb]
        specs = [(m.omega, m.lam, m.polarization) for m in main + list(bath_modes)]
        ref = dense_reference(mb.h_matrix(), tm.px, tm.py, specs, dims)
        rows = []
        for mi in range(3):
            for n1 in range(3):
                for n2 in range(3):
                    for cfg_idx in range(bath_basis.size):
                        occ = [0, 0]
                        for m in bath_basis.configs[cfg_idx]:
                            occ[m] += 1
                        flat = (((mi * 3 + n1) * 3 + n2) * nb + occ[0]) * nb + occ[1]
                        rows.append(flat)
        proj = np.zeros((len(rows), int(np.prod(dims))))
        for r, c in enumerate(rows):
            proj[r, c] = 1.0
        oracle = in_real_gauge(proj @ ref @ proj.T, mb)
        total = (h_main + h_bath).toarray()
        assert np.abs(total - oracle).max() < 1e-13

    def test_one_builder_call_is_the_sum_of_the_two(self, bath_setup):
        mb, tm, main, bath_modes, _, basis, h_main, h_bath = bath_setup
        h = ham.assemble_system(basis, mb, tm, main, bath_modes=bath_modes)
        total = h_main + h_bath
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(h, part), getattr(total, part)), part

    def test_zero_bath_coupling_is_block_diagonal(self, matter3):
        mb, tm = matter3
        theta1 = math.pi / 6
        e1, e2 = degenerate_polarization_vectors(theta1)
        main = [FockMode(W2, 2, 0.017, e1), FockMode(W2 / 2, 2, 0.017, e2)]
        spec = BathSpec(lam=0.0, windows=((1.0, 2.0, 3),))
        bath_modes, bath_basis = sample_bath(spec)
        basis = ham.CoupledBasis(3, (3, 3), bath=bath_basis)
        h_bath = bath_terms(basis, mb, tm, main, bath_modes)
        # only the diagonal bath energy survives
        diag = h_bath.diagonal()
        off = h_bath - sp.diags(diag)
        assert (abs(off).max() if off.nnz else 0.0) == 0.0

    def test_bath_mode_count_mismatch(self, bath_setup):
        mb, tm, main, bath_modes, bath_basis, basis, _, _ = bath_setup
        with pytest.raises(ValueError, match="bath mode list"):
            ham.assemble_system(basis, mb, tm, main, bath_modes=bath_modes[:1])

    def test_mixed_bath_polarizations_rejected(self, bath_setup):
        mb, tm, main, bath_modes, bath_basis, basis, _, _ = bath_setup
        tilted = [bath_modes[0], replace(bath_modes[1], polarization=(0.0, 1.0))]
        with pytest.raises(ValueError, match="one polarization"):
            ham.assemble_system(basis, mb, tm, main, bath_modes=tilted)

    def test_basis_without_bath_rejected(self, bath_setup):
        mb, tm, main, bath_modes, _, _, _, _ = bath_setup
        basis = ham.CoupledBasis(3, (3, 3))
        with pytest.raises(ValueError, match="no bath"):
            ham.assemble_system(basis, mb, tm, main, bath_modes=bath_modes)


def degenerate_modes(theta1=math.pi / 6):
    e1, e2 = degenerate_polarization_vectors(theta1)
    return [FockMode(W2, 2, 0.017, e1), FockMode(W2 / 2, 2, 0.017, e2)]


def signal_modes():
    _, e2, e3 = polarization_vectors(math.pi / 2, math.pi / 2)
    return [FockMode(W2, 2, 0.020, e2), FockMode(W3, 2, 0.026, e3)]


def drive_patterns(mb, tm, kind):
    if kind == "current":
        basis = ham.CoupledBasis(3, (3, 3, 3))
        drive = ham.DriveSpec(kind="classical_current", j0=1.5, tau=2.0, omega1=W1)
        return [ham.drive_term(basis, mb, tm, default_modes(n_max=2), drive).op]
    basis = ham.CoupledBasis(3, (3, 3))
    drive = ham.DriveSpec(kind="classical_field", j0=0.4, t0=2.0, tau=0.9, omega1=W1)
    modes = [default_modes()[0], *signal_modes()]
    return [ham.drive_term(basis, mb, tm, modes, drive, np.linspace(0.0, 12.0, 401)).op]


# each build returns the sparse matrices it assembles
HERMITIAN_BUILDS = {
    "system": lambda mb, tm, bath: [
        ham.assemble_system(ham.CoupledBasis(3, (3, 3, 3)), mb, tm, default_modes(n_max=2))
    ],
    "degenerate": lambda mb, tm, bath: [
        ham.assemble_system(ham.CoupledBasis(3, (3, 3)), mb, tm, degenerate_modes())
    ],
    "signal_pair": lambda mb, tm, bath: [
        ham.assemble_system(ham.CoupledBasis(3, (3, 3)), mb, tm, signal_modes())
    ],
    "few_level": lambda mb, tm, bath: [
        few_level([0, 1, 2], mb, tm, default_modes(n_max=2))[0]
    ],
    # h_main + h_bath of the bath_setup fixture
    "system_plus_bath": lambda mb, tm, bath: [bath[-2] + bath[-1]],
    "current_drive": lambda mb, tm, bath: drive_patterns(mb, tm, "current"),
    "field_drive": lambda mb, tm, bath: drive_patterns(mb, tm, "field"),
}


class TestHermitianByConstruction:
    @pytest.mark.parametrize("build", sorted(HERMITIAN_BUILDS))
    def test_exactly_hermitian(self, build, matter3, bath_setup):
        # real coefficients times products of real symmetric factors: the sum
        # is a float64 matrix, symmetric to the last bit with no whole-matrix check
        mb, tm = matter3
        for h in HERMITIAN_BUILDS[build](mb, tm, bath_setup):
            assert h.dtype == np.float64
            defect = (h - h.T).tocsr()
            defect.eliminate_zeros()
            assert defect.nnz == 0


def lifted(basis, matter_op, **photon_ops):
    """matter_op (x) the embed product of the photon-space factors."""
    photon = ham.CoupledBasis(1, basis.mode_dims, basis.bath)
    return sp.kron(matter_op, ham.embed(photon, **photon_ops), format="csr")


def running_sum(basis, matter, tm, modes):
    """H as a running sum of Kronecker products, one term at a time: the
    reference for the factor-pair builder, on the same real matter factors."""
    h_el, px, py = ham._real_matter(matter, tm)
    total = lifted(basis, h_el)
    quads = [quadratures(mode)[0] for mode in modes]
    for slot, mode in enumerate(modes):
        h_ph = mode.omega * (number_op(mode) + 0.5 * sp.identity(mode.dim))
        total = total + ham.embed(basis, mode_ops={slot: h_ph.tocsr()})
    for slot, mode in enumerate(modes):
        if mode.lam == 0.0:
            continue
        q = quads[slot]
        proj = ham._dot(mode.polarization, px, py)
        total = total - mode.lam * lifted(basis, proj, mode_ops={slot: q})
        total = total + 0.5 * mode.lam**2 * ham.embed(basis, mode_ops={slot: (q @ q).tocsr()})
    for a in range(len(modes)):
        for b in range(a + 1, len(modes)):
            ea, eb = modes[a].polarization, modes[b].polarization
            coeff = modes[a].lam * modes[b].lam * (ea[0] * eb[0] + ea[1] * eb[1])
            if coeff != 0.0:
                total = total + coeff * ham.embed(basis, mode_ops={a: quads[a], b: quads[b]})
    return total


def running_bath_sum(basis, matter, tm, main_modes, bath_modes):
    """bath_terms as a running sum of Kronecker products."""
    bath = basis.bath
    eye = sp.identity(bath.size, format="csr")
    (pol,) = {mode.polarization for mode in bath_modes}
    lowering = [bath_ladder(bath, k) for k in range(bath.n_modes)]
    n_total = sum((low.T @ low) * mode.omega for low, mode in zip(lowering, bath_modes))
    zero_point = 0.5 * sum(mode.omega for mode in bath_modes)
    total = ham.embed(basis, bath_op=n_total + zero_point * eye)
    weights = [mode.lam / math.sqrt(2.0 * mode.omega) for mode in bath_modes]
    disp = sum(c * (low + low.T) for c, low in zip(weights, lowering))
    _, px, py = ham._real_matter(matter, tm)
    proj = ham._dot(pol, px, py)
    total = total - lifted(basis, proj, bath_op=disp)
    for slot, mode in enumerate(main_modes):
        dot = mode.polarization[0] * pol[0] + mode.polarization[1] * pol[1]
        if mode.lam != 0.0 and dot != 0.0:
            q = quadratures(mode)[0]
            total = total + mode.lam * dot * ham.embed(basis, mode_ops={slot: q}, bath_op=disp)
    coll = sum(c * low for c, low in zip(weights, lowering))
    prod = coll @ coll + 2 * (coll.T @ coll) + coll.T @ coll.T
    prod = prod + sum(c * c for c in weights) * eye
    return total + ham.embed(basis, bath_op=0.5 * (pol[0] ** 2 + pol[1] ** 2) * prod)


def few_level_pair(mb, tm):
    # level 0 last: the builder must follow the configured order
    modes = default_modes(n_max=2)
    h, basis = few_level([1, 2, 0], mb, tm, modes)
    sub, sub_tm = ham.restrict_levels(mb, tm, [1, 2, 0])
    return h, running_sum(basis, sub, sub_tm, modes)


def bath_pair(mb, tm, bath):
    _, _, main, bath_modes, _, basis, h_main, h_bath = bath
    ref = running_sum(basis, mb, tm, main)
    return h_main + h_bath, ref + running_bath_sum(basis, mb, tm, main, bath_modes)


def system_pair(basis, modes, build):
    return lambda mb, tm, bath: (
        build(basis, mb, tm, modes),
        running_sum(basis, mb, tm, modes),
    )


# (factor-pair build, running-sum reference) on the tiny fixtures
BUILDER_CASES = {
    "system": system_pair(
        ham.CoupledBasis(3, (3, 3, 3)), default_modes(n_max=2), ham.assemble_system
    ),
    "degenerate": system_pair(
        ham.CoupledBasis(3, (3, 3)), degenerate_modes(), ham.assemble_system
    ),
    "signal_pair": system_pair(
        ham.CoupledBasis(3, (3, 3)), signal_modes(), ham.assemble_system
    ),
    "few_level": lambda mb, tm, bath: few_level_pair(mb, tm),
    "system_plus_bath": lambda mb, tm, bath: bath_pair(mb, tm, bath),
}


def sector_oracle(h, parity, sector):
    """h on the indices where parity == sector, in their order: the reference
    for a builder given that sector."""
    index = np.flatnonzero(parity == sector)
    return h[index][:, index]


def sector_system(basis, modes, build):
    def case(mb, tm, bath):
        def sector_build(sector):
            return build(basis, mb, tm, modes, sectors=(sector,))

        return build(basis, mb, tm, modes), sector_build, ham.inversion_parity(basis, mb)

    return case


def sector_few_level(mb, tm, bath):
    # level 0 last, as in few_level_pair
    levels, modes = [1, 2, 0], default_modes(n_max=2)
    h, basis = few_level(levels, mb, tm, modes)
    sub, _ = ham.restrict_levels(mb, tm, levels)

    def sector_build(sector):
        return few_level(levels, mb, tm, modes, sectors=(sector,))[0]

    return h, sector_build, ham.inversion_parity(basis, sub)


def sector_bath(mb, tm, bath):
    _, _, main, bath_modes, _, basis, h_main, h_bath = bath

    def sector_build(sector):
        return ham.assemble_system(basis, mb, tm, main, bath_modes=bath_modes, sectors=(sector,))

    return h_main + h_bath, sector_build, ham.inversion_parity(basis, mb)


# (full build, build of one inversion sector, parity of the full layout)
SECTOR_CASES = {
    "system": sector_system(
        ham.CoupledBasis(3, (3, 3, 3)), default_modes(n_max=2), ham.assemble_system
    ),
    "degenerate": sector_system(
        ham.CoupledBasis(3, (3, 3)), degenerate_modes(), ham.assemble_system
    ),
    "few_level": sector_few_level,
    "system_plus_bath": sector_bath,
}


# a few values, so that sums of products cancel exactly, and non-dyadic ones,
# so that a sum added in another order rounds differently
FACTOR_VALUES = st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0, 0.1, -0.3])


@st.composite
def factor_pairs(draw):
    """(basis, pairs, sides, dense sum_k kron(M_k, P_k) added in k order).

    Matter factors are symmetric with zero entries; photon factors are
    symmetric and sparse, with stored zeros on part of their pattern; a drawn
    term may repeat an earlier photon factor with the negated matter factor.
    When inversion sectors are drawn (one, or both in either order), every
    pair keeps or flips both the level parity and the photon parity, `sides`
    holds each sector times the level parities, and the dense sum is sliced
    to the sectors, one after the other.
    """
    m = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=2)))
    basis = ham.CoupledBasis(m, dims)
    n = basis.dim // m
    photon_parity = np.ones(1, dtype=int)
    for d in dims:
        photon_parity = np.kron(photon_parity, (-1) ** np.arange(d))
    levels = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=m, max_size=m)))
    sectors = draw(st.sampled_from([(), (1,), (-1,), (1, -1), (-1, 1)]))

    def symmetric(size, draws):
        entries = draw(st.lists(draws, min_size=size**2, max_size=size**2))
        upper = np.triu(np.reshape(entries, (size, size)))
        return upper + np.triu(upper, 1).T

    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        flip = draw(st.sampled_from([1, -1]))
        keeps_m = np.multiply.outer(levels, levels) == flip
        keeps_p = np.multiply.outer(photon_parity, photon_parity) == flip
        if not sectors:
            keeps_m = keeps_p = True
        mk = symmetric(m, FACTOR_VALUES) * keeps_m
        stored = symmetric(n, st.booleans()).astype(bool) & keeps_p
        values = symmetric(n, FACTOR_VALUES)
        pk = sp.csr_matrix((values[stored], np.nonzero(stored)), shape=(n, n))
        pairs.append((mk, pk))
        if draw(st.booleans()):
            earlier = pairs[draw(st.integers(0, len(pairs) - 1))]
            pairs.append((-earlier[0], earlier[1]))
    dense = sum(np.kron(mk, pk.toarray()) for mk, pk in pairs)
    parity = np.kron(levels, photon_parity)
    if not sectors:
        return basis, pairs, [], dense
    index = np.concatenate([np.flatnonzero(parity == s) for s in sectors])
    return basis, pairs, [s * levels for s in sectors], dense[np.ix_(index, index)]


class TestFactorPairBuilder:
    """The Kronecker-sum builder against the running sum of Kronecker products."""

    @pytest.mark.parametrize("case", sorted(BUILDER_CASES))
    def test_matches_the_running_sum(self, case, matter3, bath_setup):
        mb, tm = matter3
        h, ref = BUILDER_CASES[case](mb, tm, bath_setup)
        assert isinstance(h, sp.csr_matrix)
        # canonical: sorted, no duplicates, no stored zeros, 32-bit indices
        assert h.has_canonical_format and np.all(h.data != 0)
        assert h.indices.dtype == h.indptr.dtype == np.int32
        ref = ref.tocsr()
        ref.sum_duplicates()
        assert h.nnz == ref.nnz
        assert np.array_equal(h.indptr, ref.indptr) and np.array_equal(h.indices, ref.indices)
        assert abs(h - ref).max() <= 1e-14 * abs(ref).max()

    def test_exact_cancellations_leave_no_stored_zeros(self):
        # matter block (0, 0) sums D - D = 0 exactly; block (1, 1) holds 2 D
        basis = ham.CoupledBasis(2, (3,))
        d = sp.diags([1.0, 2.0, 3.0], format="csr")
        pairs = [(np.eye(2), d), (np.diag([-1.0, 1.0]), d)]
        h = ham._kron_sum(basis, pairs)
        assert h.nnz == 3 and h.has_canonical_format and np.all(h.data != 0)
        dense = sum(np.kron(mk, pk.toarray()) for mk, pk in pairs)
        assert np.array_equal(h.toarray(), dense)

    @settings(max_examples=200, deadline=None)
    @given(case=factor_pairs())
    def test_is_the_dense_sum_to_the_last_bit(self, case):
        basis, pairs, sides, dense = case
        h = ham._kron_sum(basis, pairs, sides)
        assert h.dtype == np.float64 and h.indices.dtype == h.indptr.dtype == np.int32
        assert h.has_canonical_format and np.all(h.data != 0)
        assert np.array_equal(h.toarray(), dense)

    def test_peak_memory_stays_near_the_result(self, ring200, tm_full):
        # 12 levels x 7^3 photon states: the running sum held about two full
        # matrices at once; the builder holds the result plus one block
        modes = default_modes(n_max=6)
        basis = ham.CoupledBasis(12, tuple(m.dim for m in modes))
        tracemalloc.start()
        try:
            h = ham.assemble_system(basis, ring200, tm_full, modes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
        assert peak < 1.5 * size, (peak, size)

    def test_peak_memory_of_a_bath_sector_stays_near_the_result(self, ring200, tm_full):
        # 12 levels x 5^3 photon states x a 28-state bath: the system and bath
        # pairs go to one builder, which writes only the sector's rows
        modes = default_modes(n_max=4)
        bath_modes, bath_basis = sample_bath(BathSpec(lam=0.007, windows=((1.0, 2.0, 6),)))
        basis = ham.CoupledBasis(12, tuple(m.dim for m in modes), bath=bath_basis)
        tracemalloc.start()
        try:
            h = ham.assemble_system(
                basis, ring200, tm_full, modes, bath_modes=bath_modes, sectors=(-1,)
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2 * h.shape[0] == basis.dim
        size = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
        assert peak < 1.5 * size, (peak, size)


class TestSectorBuild:
    """Builders given an inversion sector against the full build sliced to it."""

    @pytest.mark.parametrize("sector", [1, -1])
    @pytest.mark.parametrize("case", sorted(SECTOR_CASES))
    def test_is_the_full_build_sliced(self, case, sector, matter3, bath_setup):
        mb, tm = matter3
        full, build, parity = SECTOR_CASES[case](mb, tm, bath_setup)
        h, ref = build(sector), sector_oracle(full, parity, sector)
        assert isinstance(h, sp.csr_matrix) and h.has_canonical_format
        assert h.indices.dtype == h.indptr.dtype == np.int32
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(h, part), getattr(ref, part)), part

    def test_planted_cross_sector_entry_refused(self):
        # photon parities (+, -, +); level 0 keeps photons 0 and 2, level 1 photon 1
        basis = ham.CoupledBasis(2, (3,))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        ladder = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]))
        diagonal = sp.diags([1.0, 2.0, 3.0], format="csr")

        def build(energy, coupling):
            return ham._kron_sum(basis, [(np.eye(2), energy), (swap, coupling)], [[1, -1]])

        h = ham._kron_sum(basis, [(np.eye(2), diagonal), (swap, ladder)])
        parity = np.kron([1, -1], [1, -1, 1])
        oracle = sector_oracle(h, parity, 1)
        assert np.array_equal(build(diagonal, ladder).toarray(), oracle.toarray())
        refused = "photon factor {} joins kept photon index {} to dropped index {}"
        planted = diagonal.tolil()
        planted[0, 1] = planted[1, 0] = 0.5
        with pytest.raises(ValueError, match=refused.format(0, 1, 0)):
            build(planted.tocsr(), ladder)
        planted = ladder.tolil()
        planted[0, 2] = planted[2, 0] = 0.5
        with pytest.raises(ValueError, match=refused.format(1, 0, 2)):
            build(diagonal, planted.tocsr())

    def test_two_sectors_refuse_a_planted_cross_sector_entry(self):
        # as above, with both sectors built one after the other
        basis = ham.CoupledBasis(2, (3,))
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        ladder = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]]))
        diagonal = sp.diags([1.0, 2.0, 3.0], format="csr")

        def build(energy, coupling):
            pairs = [(np.eye(2), energy), (swap, coupling)]
            return ham._kron_sum(basis, pairs, [[1, -1], [-1, 1]])

        h = ham._kron_sum(basis, [(np.eye(2), diagonal), (swap, ladder)])
        parity = np.kron([1, -1], [1, -1, 1])
        index = np.concatenate([np.flatnonzero(parity == s) for s in (1, -1)])
        assert np.array_equal(build(diagonal, ladder).toarray(), h.toarray()[np.ix_(index, index)])
        refused = "photon factor {} joins kept photon index {} to dropped index {}"
        planted = diagonal.tolil()
        planted[0, 1] = planted[1, 0] = 0.5
        with pytest.raises(ValueError, match=refused.format(0, 1, 0)):
            build(planted.tocsr(), ladder)
        planted = ladder.tolil()
        planted[0, 2] = planted[2, 0] = 0.5
        with pytest.raises(ValueError, match=refused.format(1, 0, 2)):
            build(diagonal, planted.tocsr())


class TestInversionParity:
    """Inversion times photon-number parity on the coupled layout."""

    def test_matter_factor_is_minus_one_to_the_l(self, ring200):
        parity = ham.inversion_parity(ham.CoupledBasis(12, ()), ring200)
        assert parity.dtype == np.int8
        assert np.array_equal(parity, (-1) ** np.abs(ring200.l_labels))

    def test_mixed_parity_level_gives_none(self, ring200):
        # level 1 has l = +-1 (odd), level 0 is even: their sum has no parity
        mixed = replace(
            ring200,
            states=np.array([ring200.states[0], ring200.states[0] + ring200.states[1]])
            / np.sqrt([[1.0], [2.0]]),
            energies=ring200.energies[:2],
        )
        assert ham.inversion_parity(ham.CoupledBasis(2, (3,)), mixed) is None

    def test_photon_and_bath_numbers_count(self, bath_setup):
        mb, _, _, _, bath_basis, basis, _, _ = bath_setup
        parity = ham.inversion_parity(basis, mb).reshape(basis.shape)
        assert parity[0, 0, 0, bath_basis.index_of(())] == 1
        assert parity[0, 1, 0, bath_basis.index_of(())] == -1
        assert parity[0, 1, 0, bath_basis.index_of((0,))] == 1
        assert parity[0, 1, 1, bath_basis.index_of((0, 1))] == 1
        assert parity[1, 0, 0, bath_basis.index_of(())] == (-1) ** abs(mb.l_labels[1])

    @pytest.mark.parametrize("build", ["system", "degenerate", "few_level", "system_plus_bath"])
    def test_commutes_with_undriven_hamiltonians(self, matter3, bath_setup, build):
        mb, tm = matter3
        (h,) = HERMITIAN_BUILDS[build](mb, tm, bath_setup)
        if build == "system_plus_bath":
            basis = bath_setup[5]
        else:
            basis = ham.CoupledBasis(3, (3, 3, 3) if build in ("system", "few_level") else (3, 3))
        parity = ham.inversion_parity(basis, mb)
        flip = sp.diags(parity.astype(float))
        assert abs(flip @ h @ flip - h).max() <= 1e-12 * abs(h).max()
        # the two sector blocks hold every entry of h
        blocks = [sector_oracle(h, parity, sector) for sector in (1, -1)]
        assert sum(block.nnz for block in blocks) == h.nnz
        assert sum(block.shape[0] for block in blocks) == h.shape[0]

    @pytest.mark.parametrize("build", ["system", "degenerate", "few_level", "system_plus_bath"])
    def test_no_entry_between_the_sectors(self, matter3, bath_setup, build):
        # the e . p entries that inversion forbids are dropped, not stored as roundoff
        mb, tm = matter3
        (h,) = HERMITIAN_BUILDS[build](mb, tm, bath_setup)
        basis = bath_setup[5] if build == "system_plus_bath" else None
        if basis is None:
            basis = ham.CoupledBasis(3, (3, 3, 3) if build in ("system", "few_level") else (3, 3))
        parity = ham.inversion_parity(basis, mb)
        assert h[parity == 1][:, parity == -1].nnz == 0

    def test_planted_equal_parity_coupling_refused(self, matter3):
        # levels 1 and 2 are the l = +-1 pair, both odd under inversion
        mb, tm = matter3
        basis, modes = ham.CoupledBasis(3, (3, 3, 3)), default_modes(n_max=2)
        h = ham.assemble_system(basis, mb, tm, modes)

        def planted(value):
            px = tm.px.copy()
            px[1, 2] += value
            px[2, 1] += value
            return replace(tm, px=px)

        roundoff = ham.assemble_system(basis, mb, planted(1e-16), modes)
        assert abs(roundoff - h).max() == 0.0
        with pytest.raises(ValueError, match="p_x entry 1.000e-06 breaks the inversion parity"):
            ham.assemble_system(basis, mb, planted(1e-6), modes)

    @pytest.mark.parametrize("kind", ["current", "field"])
    def test_drive_terms_break_it(self, matter3, kind):
        mb, tm = matter3
        op = drive_patterns(mb, tm, kind)[0]
        dims = (3, 3, 3) if kind == "current" else (3, 3)
        flip = sp.diags(ham.inversion_parity(ham.CoupledBasis(3, dims), mb).astype(float))
        assert abs(flip @ op @ flip - op).max() > 0.0


class TestRealGauge:
    """The real levels behind every build: the solved standing waves, i on
    the inversion-odd levels."""

    @pytest.mark.parametrize("levels", [[0, 1, 2], [1, 2, 0], list(range(12))])
    def test_unitary_real_and_ground_level_kept(self, ring200, tm_full, levels):
        mb, tm = ham.restrict_levels(ring200, tm_full, levels)
        u = real_gauge(mb)
        assert np.array_equal(u.conj().T @ u, np.eye(len(levels)))
        ground = levels.index(0)
        assert u[ground, ground] == 1.0
        # on the grid each level is real, and assemble_system's factors are the
        # stored matrices moved by the phase
        assert mb.states.dtype == np.float64
        h_el, px, py = ham._real_matter(mb, tm)
        assert np.array_equal(h_el, np.diag(mb.energies))
        for got, stored in ((px, tm.px), (py, tm.py)):
            assert got.dtype == np.float64 and np.array_equal(got, got.T)
            assert np.abs(got - u.conj().T @ stored @ u).max() <= 1e-12 * np.abs(stored).max()

    def test_h_el_is_exactly_diagonal(self, ring200, tm_full):
        # the solved levels diagonalize H_el: no roundoff entry is stored
        h_el, _, _ = ham._real_matter(ring200, tm_full)
        assert np.count_nonzero(h_el - np.diag(np.diag(h_el))) == 0
        assert np.array_equal(np.diag(h_el), ring200.energies)

    def test_planted_imaginary_h_el_entry_refused(self, ring200, tm_full):
        # levels 1 and 2 are the l = +-2 pair, even like the ground level
        mb, tm = ham.restrict_levels(ring200, tm_full, [0, 3, 4])
        modes = default_modes(n_max=2)
        basis = ham.CoupledBasis(3, (3, 3, 3))
        h = ham.assemble_system(basis, mb, tm, modes)

        def planted(value):
            h_el = mb.h_matrix().copy()
            h_el[0, 1] += 1j * value
            h_el[1, 0] -= 1j * value
            return replace(mb, h_el=h_el)

        roundoff = ham.assemble_system(basis, planted(1e-16), tm, modes)
        assert abs(roundoff - h).max() <= 1e-15
        with pytest.raises(ValueError, match="H_el entry 1.000e-06 lies off the diagonal"):
            ham.assemble_system(basis, planted(1e-6), tm, modes)

    def test_x_reflection_even_basis_is_real(self, ring200, tm_full):
        # the x -> -x even sector holds the sin(l phi)-like standing waves of
        # the odd-l pairs: p_y between them and the singlets is made real by i
        mb, tm = reflection_even(ring200, tm_full, "x")
        modes = [FockMode(W2, 2, 0.017, (0.0, 1.0)), FockMode(W2 / 2, 2, 0.017, (0.0, -1.0))]
        basis = ham.CoupledBasis(mb.n_states, (3, 3))
        h = ham.assemble_system(basis, mb, tm, modes)
        assert h.dtype == np.float64
        defect = (h - h.T).tocsr()
        defect.eliminate_zeros()
        assert defect.nnz == 0
        ref = dense_reference(
            mb.h_matrix(),
            tm.px,
            tm.py,
            [(m.omega, m.lam, m.polarization) for m in modes],
            [mb.n_states, 3, 3],
        )
        assert np.abs(h.toarray() - in_real_gauge(ref, mb)).max() < 1e-13


class TestSignalPair:
    def test_matches_dense_reference(self, matter3):
        mb, tm = matter3
        _, e2, e3 = polarization_vectors(math.pi / 2, math.pi / 2)
        modes = [FockMode(W2, 2, 0.020, e2), FockMode(W3, 2, 0.020, e3)]
        basis = ham.CoupledBasis(3, (3, 3))
        h = ham.assemble_system(basis, mb, tm, modes)
        ref = dense_reference(
            mb.h_matrix(),
            tm.px,
            tm.py,
            [(m.omega, m.lam, m.polarization) for m in modes],
            [3, 3, 3],
        )
        assert np.abs(h.toarray() - in_real_gauge(ref, mb)).max() < 1e-13


class TestDriveSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            ham.DriveSpec(kind="nonsense")
        with pytest.raises(ValueError, match="tau"):
            ham.DriveSpec(kind="classical_current", tau=0.0, omega1=1.0)
        with pytest.raises(ValueError, match="omega1"):
            ham.DriveSpec(kind="classical_current", tau=1.0, omega1=0.0)

    def test_current_shape(self):
        d = ham.DriveSpec(kind="classical_current", j0=2.0, t0=1.0, tau=0.5, omega1=3.0)
        t = 1.2
        expect = 2.0 * math.exp(-((t - 1.0) ** 2) / 0.25) * math.sin(3.0 * t)
        assert abs(d.current(t) - expect) < 1e-15


class TestCurrentDrive:
    def test_pattern_is_pump_quadrature(self, matter3):
        mb, tm = matter3
        mode1 = FockMode(W1, 3, 0.02, (1.0, 0.0))
        basis = ham.CoupledBasis(3, (4,))
        drive = ham.DriveSpec(kind="classical_current", j0=1.5, tau=2.0, omega1=W1)
        term = ham.drive_term(basis, mb, tm, [mode1], drive)
        q, _ = quadratures(mode1)
        expect = 0.02 * ham.embed(basis, mode_ops={0: q.tocsr()})
        # the lifted quadrature to the last bit, in the same CSR layout
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(term.op, part), getattr(expect, part)), part
        t = 0.9
        assert abs(term.coeff(t) * term.op - drive.current(t) * expect).max() < 1e-14

    def test_is_the_dense_kronecker_sum(self, matter3):
        # (1, lam1 q1) on a 3-level x (4, 3)-photon basis, mode 1 in slot 0
        mb, tm = matter3
        modes = [FockMode(W1, 3, 0.02, (1.0, 0.0)), FockMode(W2, 2, 0.03, (0.0, 1.0))]
        basis = ham.CoupledBasis(3, (4, 3))
        drive = ham.DriveSpec(kind="classical_current", j0=1.5, tau=2.0, omega1=W1)
        q1 = quadratures(modes[0])[0].toarray()
        dense = np.kron(np.eye(3), np.kron(0.02 * q1, np.eye(3)))
        op = ham.drive_term(basis, mb, tm, modes, drive).op
        assert op.dtype == np.float64 and op.has_canonical_format
        assert np.array_equal(op.toarray(), dense)

    def test_kind_checked(self, matter3):
        # the kind picks the pattern: a field drive on the current drive's
        # basis, where mode 1 is still quantized, is refused
        mb, tm = matter3
        mode1 = FockMode(W1, 3, 0.02, (1.0, 0.0))
        basis = ham.CoupledBasis(3, (4,))
        drive = ham.DriveSpec(kind="classical_field", tau=1.0, omega1=W1)
        with pytest.raises(ValueError, match="mode 1 removed"):
            ham.drive_term(basis, mb, tm, [mode1], drive, np.linspace(0, 1, 10))


class TestClassicalPumpField:
    def test_quiet_drive_stays_zero(self):
        mode1 = FockMode(W1, 2, 0.02, (1.0, 0.0))
        d = ham.DriveSpec(kind="classical_field", j0=0.0, tau=5.0, omega1=W1)
        t = np.linspace(0.0, 10.0, 101)
        assert np.abs(ham.classical_pump_field(d, mode1, t)).max() == 0.0

    def test_resonant_growth_matches_analytic(self):
        # constant envelope: q(t) = -(lam j0 / 2 w^2)(sin wt - wt cos wt)
        mode1 = FockMode(W1, 2, 0.02, (1.0, 0.0))
        j0 = 0.3
        d = ham.DriveSpec(kind="classical_field", j0=j0, tau=1e8, omega1=W1)
        t = np.linspace(0.0, 40.0, 20001)
        q = ham.classical_pump_field(d, mode1, t)
        analytic = (
            -(mode1.lam * j0 / W1)
            * (np.sin(W1 * t) - W1 * t * np.cos(W1 * t))
            / (2 * W1)
        )
        assert np.abs(q - analytic).max() < 1e-7

    @pytest.mark.parametrize("grid", ["run", "non_uniform"])
    def test_is_scipy_cumulative_trapezoid_to_the_bit(self, grid):
        from scipy.integrate import cumulative_trapezoid

        mode1 = FockMode(W1, 2, 0.02, (1.0, 0.0))
        d = ham.DriveSpec(kind="classical_field", j0=0.4, t0=2.0, tau=0.9, omega1=W1)
        if grid == "run":  # the tiny field-driven run's: 0.3 ps in 4 fs steps
            dt = time_to_eff(4.0)
            t = np.arange(0.0, ps_to_eff(0.3) + 2.0 * dt, dt)
        else:
            t = np.sort(np.random.default_rng(0).uniform(0.0, 6.0, 500))
        w = mode1.omega
        j = np.array([d.current(tk) for tk in t])
        cos_int = cumulative_trapezoid(np.cos(w * t) * j, t, initial=0.0)
        sin_int = cumulative_trapezoid(np.sin(w * t) * j, t, initial=0.0)
        want = -(mode1.lam / w) * (np.sin(w * t) * cos_int - np.cos(w * t) * sin_int)
        assert np.array_equal(ham.classical_pump_field(d, mode1, t), want)

    def test_kind_and_grid_validation(self):
        mode1 = FockMode(W1, 2, 0.02, (1.0, 0.0))
        with pytest.raises(ValueError, match="classical_field"):
            ham.classical_pump_field(
                ham.DriveSpec(kind="classical_current", tau=1.0, omega1=W1),
                mode1,
                np.linspace(0, 1, 10),
            )
        d = ham.DriveSpec(kind="classical_field", tau=1.0, omega1=W1)
        with pytest.raises(ValueError, match="t_grid"):
            ham.classical_pump_field(d, mode1, np.array([0.0]))


class TestFieldDrive:
    def test_requires_mode_one_removed(self, matter3):
        mb, tm = matter3
        modes = default_modes(n_max=2)
        basis = ham.CoupledBasis(3, (3, 3, 3))
        d = ham.DriveSpec(kind="classical_field", j0=1.0, tau=1.0, omega1=W1)
        with pytest.raises(ValueError, match="mode 1 removed"):
            ham.drive_term(basis, mb, tm, modes, d, np.linspace(0, 1, 10))

    def test_terms_reproduce_manual_expansion(self, matter3):
        mb, tm = matter3
        _, e2, e3 = polarization_vectors(math.pi / 2, math.pi / 2)
        signal = [FockMode(W2, 2, 0.020, e2), FockMode(W3, 2, 0.026, e3)]
        mode1 = FockMode(W1, 2, 0.014, (1.0, 0.0))
        basis = ham.CoupledBasis(3, (3, 3))
        t_grid = np.linspace(0.0, 12.0, 4001)
        d = ham.DriveSpec(kind="classical_field", j0=0.4, t0=2.0, tau=0.9, omega1=W1)
        term = ham.drive_term(basis, mb, tm, [mode1, *signal], d, t_grid)
        q1 = ham.classical_pump_field(d, mode1, t_grid)
        # p_x between the real levels assemble_system uses
        u = real_gauge(mb)
        px = u.conj().T @ tm.px @ u
        for t_probe in (3.0, 7.5):
            a1 = mode1.lam * float(np.interp(t_probe, t_grid, q1))
            q2 = quadratures(signal[0])[0]
            q3 = quadratures(signal[1])[0]
            # the c-number (1/2) a1^2 is left out: it only shifts the global phase
            manual = (
                -a1 * lifted(basis, px)
                + a1 * signal[0].lam * (e2[0] * 1.0) * ham.embed(basis, mode_ops={0: q2.tocsr()})
                + a1 * signal[1].lam * (e3[0] * 1.0) * ham.embed(basis, mode_ops={1: q3.tocsr()})
            )
            assert abs(term.coeff(t_probe) * term.op - manual).max() < 1e-12

    def test_is_the_dense_kronecker_sum(self, matter3):
        # (-e1.p, 1) + (1, sum_a lam_a (e1.e_a) q_a), with e1 tilted so that
        # both signal modes and both momentum components enter
        mb, tm = matter3
        mode1 = FockMode(W1, 2, 0.014, (math.cos(0.3), math.sin(0.3)))
        _, e2, e3 = polarization_vectors(math.pi / 3, math.pi / 5)
        signal = [FockMode(W2, 2, 0.020, e2), FockMode(W3, 3, 0.026, e3)]
        basis = ham.CoupledBasis(3, (3, 4))
        d = ham.DriveSpec(kind="classical_field", j0=0.4, t0=2.0, tau=0.9, omega1=W1)
        op = ham.drive_term(basis, mb, tm, [mode1, *signal], d, np.linspace(0, 5, 51)).op
        _, px, py = ham._real_matter(mb, tm)
        e1 = mode1.polarization
        q2, q3 = (quadratures(m)[0].toarray() for m in signal)
        dots = [e1[0] * m.polarization[0] + e1[1] * m.polarization[1] for m in signal]
        field = (signal[0].lam * dots[0]) * np.kron(q2, np.eye(4)) + (
            signal[1].lam * dots[1]
        ) * np.kron(np.eye(3), q3)
        dense = np.kron(-(e1[0] * px + e1[1] * py), np.eye(12)) + np.kron(np.eye(3), field)
        assert op.dtype == np.float64 and op.has_canonical_format
        assert min(abs(x) for x in dots) > 0.1
        assert np.array_equal(op.toarray(), dense)


class TestCalibration:
    def test_bisection_hits_target(self, matter3):
        mb, tm = matter3
        mode1 = FockMode(W1, 6, 0.02, (1.0, 0.0))
        drive = ham.DriveSpec(
            kind="classical_current", j0=1.0, t0=1.0, tau=0.4, omega1=W1
        )
        target, tol, t_check = 0.5, 0.02, 2.0
        calibrated = sc.calibrate_current_drive(
            mb, tm, mode1, drive, t_check, target=target, tol=tol
        )
        # verify independently: hand-built pump-only Hamiltonian, fresh run
        from ringpdc.propagator import CoupledState, PropagatorConfig, ground_state, propagate

        basis = ham.CoupledBasis(3, (7,))
        q, _ = quadratures(mode1)
        h_el, px, _ = ham._real_matter(mb, tm)
        h = (
            lifted(basis, h_el)
            + mode1.omega
            * ham.embed(basis, mode_ops={0: (number_op(mode1) + 0.5 * sp.identity(7)).tocsr()})
            - mode1.lam * lifted(basis, px, mode_ops={0: q.tocsr()})
            + 0.5 * mode1.lam**2 * ham.embed(basis, mode_ops={0: (q @ q).tocsr()})
        )
        _, psi0 = ground_state(h)
        terms = [ham.drive_term(basis, mb, tm, [mode1], calibrated)]
        final = propagate(
            h, CoupledState(psi0, 0.0), t_check, PropagatorConfig(dt=0.02), terms=terms
        ).final
        n_op = ham.embed(basis, mode_ops={0: number_op(mode1).tocsr()})
        n1 = float(np.real(np.vdot(final.amplitudes, n_op @ final.amplitudes)))
        assert abs(n1 - target) <= tol + 1e-6

    def test_unreachable_target_reports_bracket_failure(self, matter3, monkeypatch):
        mb, tm = matter3
        mode1 = FockMode(W1, 3, 0.02, (1.0, 0.0))
        drive = ham.DriveSpec(
            kind="classical_current", j0=1.0, t0=1.0, tau=0.4, omega1=W1
        )
        monkeypatch.setattr(sc, "CALIBRATION_MAX_DOUBLINGS", 3)
        with pytest.raises(RuntimeError, match="bracket"):
            sc.calibrate_current_drive(mb, tm, mode1, drive, 2.0, target=50.0, tol=0.1)

    def test_kind_checked(self, matter3):
        mb, tm = matter3
        mode1 = FockMode(W1, 3, 0.02, (1.0, 0.0))
        with pytest.raises(ValueError, match="classical_current"):
            sc.calibrate_current_drive(
                mb, tm, mode1, ham.DriveSpec(kind="classical_field", tau=1.0, omega1=W1), 1.0
            )
