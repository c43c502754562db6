"""Unit tests for the one- and two-qubit linear-algebra core."""

import math

import numpy as np
import pytest

from b92sim.errors import ConsistencyError, ParameterError
from b92sim.quantum import (
    DensityMatrix,
    KrausChannel,
    Povm,
    StateVector,
    apply_channel_on_B,
    b92_povm,
    b92_povm_elements,
    check_pair_basis,
    depolarize,
    depolarizing_channel,
    dual_state,
    error_povm_element,
    filter_op,
    identity_channel,
    ket_x,
    ket_z,
    measure_sample,
    nonmax_entangled_state,
    projector,
    signal_state,
)
from oracles import random_density_matrix

ALPHAS = np.linspace(0.01, 0.705, 50)


def overlap(a: StateVector, b: StateVector) -> complex:
    return complex(np.vdot(a.amplitudes, b.amplitudes))


class TestSignalAndDualStates:
    def test_small_alpha_limit_approaches_0x(self):
        s = signal_state(0, 1e-8)
        assert abs(overlap(s, StateVector(ket_x(0), "X"))) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_signal_overlap_is_one_minus_two_alpha_sq(self, alpha):
        s0 = signal_state(0, alpha)
        s1 = signal_state(1, alpha)
        assert overlap(s0, s1).real == pytest.approx(1.0 - 2.0 * alpha**2, abs=1e-12)

    def test_signal_overlap_at_alpha_sq_point_two(self):
        a = math.sqrt(0.2)
        assert overlap(signal_state(0, a), signal_state(1, a)).real == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("j", [0, 1])
    @pytest.mark.parametrize("alpha", [0.1, math.sqrt(0.2), 0.6])
    def test_dual_orthogonal_to_signal(self, j, alpha):
        assert abs(overlap(dual_state(j, alpha), signal_state(j, alpha))) < 1e-14

    def test_dual_state_amplitudes_in_x_basis(self):
        d = dual_state(0, math.sqrt(0.2))
        x_coords = np.array([np.vdot(ket_x(0), d.amplitudes), np.vdot(ket_x(1), d.amplitudes)])
        np.testing.assert_allclose(x_coords.real, [math.sqrt(0.2), -math.sqrt(0.8)], atol=1e-12)
        np.testing.assert_allclose(x_coords.imag, 0.0, atol=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0 / math.sqrt(2.0), 0.9])
    def test_alpha_range_enforced(self, bad):
        with pytest.raises(ParameterError):
            signal_state(0, bad)
        with pytest.raises(ParameterError):
            dual_state(1, bad)


class TestB92Povm:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_elements_sum_to_identity(self, alpha):
        pv = b92_povm(alpha)
        total = sum(pv.elements)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_elements_psd(self, alpha):
        for e in b92_povm(alpha).elements:
            assert np.min(np.linalg.eigvalsh(e)) > -1e-10

    @pytest.mark.parametrize("alpha", [0.1, math.sqrt(0.2), 0.55])
    def test_wrong_outcome_never_fires_on_clean_signal(self, alpha):
        pv = b92_povm(alpha)
        s1 = signal_state(1, alpha).amplitudes
        assert abs(np.vdot(s1, pv.elements[0] @ s1)) < 1e-14

    @pytest.mark.parametrize("alpha", [*ALPHAS, 1e-6, 1 / math.sqrt(2) - 1e-12])
    def test_unvalidated_builder_is_bit_identical(self, alpha):
        elements = b92_povm_elements(alpha)
        assert elements.shape == (3, 2, 2)
        for built, checked in zip(elements, b92_povm(alpha).elements, strict=True):
            assert built.tobytes() == checked.tobytes()

    def test_conclusive_probability_on_signal(self):
        alpha = math.sqrt(0.2)
        pv = b92_povm(alpha)
        s0 = signal_state(0, alpha).amplitudes
        assert np.vdot(s0, pv.elements[0] @ s0).real == pytest.approx(0.32, abs=1e-12)


class TestFilter:
    def test_x_states_are_eigenvectors(self):
        alpha = 0.3
        f = filter_op(alpha)
        np.testing.assert_allclose(f.matrix @ ket_x(0), alpha * ket_x(0), atol=1e-14)
        np.testing.assert_allclose(f.matrix @ ket_x(1), f.beta * ket_x(1), atol=1e-14)

    def test_squared_filter_x_diagonal(self):
        alpha = math.sqrt(0.2)
        sq = filter_op(alpha).squared()
        assert np.vdot(ket_x(0), sq @ ket_x(0)).real == pytest.approx(0.2, abs=1e-13)
        assert np.vdot(ket_x(1), sq @ ket_x(1)).real == pytest.approx(0.8, abs=1e-13)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_filter_then_z_projection_equals_povm_element(self, alpha):
        # sandwiching a Z projector between filters reproduces the conclusive
        # POVM elements entrywise
        f = filter_op(alpha).matrix
        pv = b92_povm(alpha)
        for j in (0, 1):
            lhs = f @ projector(ket_z(j)) @ f
            np.testing.assert_allclose(lhs, pv.elements[j], atol=1e-12)


class TestCheckPairBasis:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_orthonormal(self, alpha):
        basis = check_pair_basis(alpha)
        mat = np.stack([s.amplitudes for s in basis])
        np.testing.assert_allclose(mat @ mat.conj().T, np.eye(4), atol=1e-12)

    def test_source_state_is_index_00(self):
        alpha = 0.35
        basis = check_pair_basis(alpha)
        psi = nonmax_entangled_state(alpha)
        assert abs(overlap(basis[0], psi)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha", [0.2, math.sqrt(0.2), 0.6])
    @pytest.mark.parametrize("j", [0, 1])
    def test_z_times_dual_decomposition(self, alpha, j):
        # |j_z>|dual_j> = (|g_11> - (-1)^j |g_01>)/sqrt(2), with the 1/sqrt(2)
        # making both sides unit vectors
        _, g01, _, g11 = check_pair_basis(alpha)
        lhs = np.kron(ket_z(j), dual_state(j, alpha).amplitudes)
        rhs = (g11.amplitudes - (-1) ** j * g01.amplitudes) / math.sqrt(2.0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestErrorPovmElement:
    def test_vanishes_on_source_state(self):
        alpha = 0.4
        pi = error_povm_element(alpha)
        psi = nonmax_entangled_state(alpha).amplitudes
        assert abs(np.vdot(psi, pi @ psi)) < 1e-14

    def test_unit_trace(self):
        assert np.trace(error_povm_element(0.27)).real == pytest.approx(1.0, abs=1e-13)

    def test_equals_local_measurement_weight_on_random_states(self):
        # Tr[rho Pi_err] must match the summed weight of the local
        # (Z on A) x (wrong-bit POVM on B) error events
        alpha = math.sqrt(0.2)
        pi = error_povm_element(alpha)
        pv = b92_povm(alpha)
        local = sum(
            np.kron(projector(ket_z(j)), pv.elements[1 - j]) for j in (0, 1)
        )
        rng = np.random.default_rng(7)
        for _ in range(100):
            rho = random_density_matrix(4, rng)
            lhs = np.trace(rho @ pi).real
            rhs = np.trace(rho @ local).real
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestNonmaxEntangledState:
    @pytest.mark.parametrize("alpha", [0.1, math.sqrt(0.2), 0.5])
    def test_reduced_state_of_A(self, alpha):
        psi = nonmax_entangled_state(alpha)
        rho = projector(psi.amplitudes).reshape(2, 2, 2, 2)
        rho_a = np.einsum("ikjk->ij", rho)
        expected = (1 - alpha**2) * projector(ket_x(0)) + alpha**2 * projector(ket_x(1))
        np.testing.assert_allclose(rho_a, expected, atol=1e-12)

    def test_maximally_entangled_boundary_allowed(self):
        psi = nonmax_entangled_state(1.0 / math.sqrt(2.0))
        rho = projector(psi.amplitudes).reshape(2, 2, 2, 2)
        rho_a = np.einsum("ikjk->ij", rho)
        np.testing.assert_allclose(rho_a, np.eye(2) / 2.0, atol=1e-12)

    def test_noiseless_filtering_yields_epr(self):
        alpha = 0.3
        beta = math.sqrt(1 - alpha**2)
        psi = nonmax_entangled_state(alpha).amplitudes
        filtered = np.kron(np.eye(2), filter_op(alpha).matrix) @ psi
        assert np.vdot(filtered, filtered).real == pytest.approx(2 * alpha**2 * beta**2, abs=1e-12)
        epr = (np.kron(ket_x(0), ket_x(0)) + np.kron(ket_x(1), ket_x(1))) / math.sqrt(2)
        fidelity = abs(np.vdot(epr, filtered)) ** 2 / np.vdot(filtered, filtered).real
        assert fidelity == pytest.approx(1.0, abs=1e-12)


class TestDepolarize:
    def test_p_zero_is_identity(self):
        rho = DensityMatrix(projector(signal_state(0, 0.3).amplitudes))
        out = depolarize(rho, 0.0)
        np.testing.assert_allclose(out.entries, rho.entries, atol=1e-15)

    def test_fully_depolarizing_point(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = DensityMatrix(random_density_matrix(2, rng))
            out = depolarize(rho, 0.75)
            np.testing.assert_allclose(out.entries, np.eye(2) / 2.0, atol=1e-12)

    def test_x_diagonal_contraction(self):
        rho = DensityMatrix(projector(ket_x(0)))
        out = depolarize(rho, 0.03)
        d0 = np.vdot(ket_x(0), out.entries @ ket_x(0)).real
        d1 = np.vdot(ket_x(1), out.entries @ ket_x(1)).real
        assert d0 == pytest.approx(0.98, abs=1e-12)
        assert d1 == pytest.approx(0.02, abs=1e-12)

    def test_preserves_trace_hermiticity_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rho = DensityMatrix(random_density_matrix(2, rng))
            out = depolarize(rho, rng.random())
            assert abs(np.trace(out.entries) - 1.0) < 1e-12
            np.testing.assert_allclose(out.entries, out.entries.conj().T, atol=1e-12)
            assert np.min(np.linalg.eigvalsh(out.entries)) > -1e-12

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_p_range(self, bad):
        with pytest.raises(ParameterError):
            depolarizing_channel(bad)


class TestApplyChannelOnB:
    def test_identity_channel_is_projector(self):
        psi = nonmax_entangled_state(0.4)
        out = apply_channel_on_B(psi, identity_channel())
        np.testing.assert_allclose(out.entries, projector(psi.amplitudes), atol=1e-14)

    def test_fully_depolarizing_gives_product_with_maximally_mixed(self):
        alpha = 0.35
        psi = nonmax_entangled_state(alpha)
        out = apply_channel_on_B(psi, depolarizing_channel(0.75))
        rho_a = (1 - alpha**2) * projector(ket_x(0)) + alpha**2 * projector(ket_x(1))
        np.testing.assert_allclose(out.entries, np.kron(rho_a, np.eye(2) / 2.0), atol=1e-12)

    def test_filter_pass_rate_at_benchmark_point(self):
        alpha = math.sqrt(0.2)
        out = apply_channel_on_B(nonmax_entangled_state(alpha), depolarizing_channel(0.03))
        passes = np.trace(out.entries @ np.kron(np.eye(2), filter_op(alpha).squared())).real
        assert passes == pytest.approx(0.3272, abs=1e-12)

    def test_commutes_with_operators_on_A(self):
        from b92sim.quantum import PAULI_X

        alpha = 0.3
        psi = nonmax_entangled_state(alpha)
        ch = depolarizing_channel(0.2)
        xa = np.kron(PAULI_X, np.eye(2))
        rotated = StateVector(xa @ psi.amplitudes, basis_label="X")
        path1 = apply_channel_on_B(rotated, ch).entries
        path2 = xa @ apply_channel_on_B(psi, ch).entries @ xa.conj().T
        np.testing.assert_allclose(path1, path2, atol=1e-12)


class TestMeasureSample:
    def test_deterministic_on_projective_eigenstate(self):
        pv = Povm((projector(ket_z(0)), projector(ket_z(1))))
        rho = DensityMatrix(projector(ket_z(1)))
        rng = np.random.default_rng(0)
        assert all(measure_sample(rho, pv, rng) == 1 for _ in range(50))

    def test_maximally_mixed_with_b92_povm(self):
        alpha = math.sqrt(0.2)
        pv = b92_povm(alpha)
        probs = pv.outcome_probabilities(np.eye(2) / 2.0)
        np.testing.assert_allclose(probs, [0.25, 0.25, 0.5], atol=1e-13)

    def test_empirical_frequency_matches_born_rule(self):
        alpha = math.sqrt(0.2)
        pv = b92_povm(alpha)
        rho = DensityMatrix(np.eye(2) / 2.0)
        rng = np.random.default_rng(42)
        n = 1_000_000
        outcomes = np.array([measure_sample(rho, pv, rng) for _ in range(n)])
        for idx, q in enumerate([0.25, 0.25, 0.5]):
            freq = np.mean(outcomes == idx)
            sigma = math.sqrt(q * (1 - q) / n)
            assert abs(freq - q) < 4 * sigma

    def test_inconsistent_probabilities_rejected(self):
        bad = Povm.__new__(Povm)
        object.__setattr__(bad, "elements", (projector(ket_z(0)) * 0.5,))
        rho = DensityMatrix(projector(ket_z(0)))
        with pytest.raises(ConsistencyError):
            measure_sample(rho, bad, np.random.default_rng(0))


class TestTypeValidation:
    def test_state_vector_norm_enforced(self):
        with pytest.raises(ParameterError):
            StateVector(np.array([1.0, 1.0]))

    def test_density_matrix_trace_enforced(self):
        with pytest.raises(ParameterError):
            DensityMatrix(2.0 * np.eye(2))

    def test_density_matrix_hermiticity_enforced(self):
        m = np.array([[0.5, 0.5j], [0.5j, 0.5]])
        with pytest.raises(ParameterError):
            DensityMatrix(m)

    def test_povm_completeness_enforced(self):
        with pytest.raises(ParameterError):
            Povm((projector(ket_z(0)),))

    def test_kraus_completeness_enforced(self):
        with pytest.raises(ParameterError):
            KrausChannel((0.5 * np.eye(2),))
