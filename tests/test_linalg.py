import numpy as np
import pytest

from qitp.errors import NonFiniteFunctionValue, NonHermitianInput
from qitp.linalg import (
    HermitianOperator,
    PAULI_X,
    PAULI_Z,
    eigh,
    matrix_function,
    max_abs,
)

from helpers import random_hermitian


class TestEigh:
    def test_diagonal_input(self):
        w, v = eigh(np.diag([2.0, -1.0]))
        assert np.allclose(w, [-1.0, 2.0])
        # eigenvectors are a permutation of identity columns
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        w, v = eigh(PAULI_X)
        assert np.allclose(w, [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(minus.conj() @ v[:, 0]) > 1 - 1e-12  # |0> - |1> up to phase
        assert abs(plus.conj() @ v[:, 1]) > 1 - 1e-12  # |0> + |1> up to phase

    def test_random_dim8_reconstruction(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(8, rng)
        w, v = eigh(m)
        assert max_abs((v * w) @ v.conj().T - m) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(NonHermitianInput):
            eigh(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_deterministic_on_degenerate_spectrum(self):
        m = np.eye(3, dtype=complex)
        w1, v1 = eigh(m)
        w2, v2 = eigh(m)
        assert np.array_equal(v1, v2)
        assert max_abs(v1.conj().T @ v1 - np.eye(3)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_unitarity_and_reconstruction_sweep(self, dim):
        rng = np.random.default_rng(100 + dim)
        for _ in range(20):
            m = random_hermitian(dim, rng, scale=rng.uniform(0.1, 10))
            w, v = eigh(m)
            assert np.all(np.diff(w) >= -1e-12)
            assert max_abs(v.conj().T @ v - np.eye(dim)) < 1e-12
            assert max_abs((v * w) @ v.conj().T - m) < 1e-10


class TestHermitianOperator:
    def test_from_matrix_caches_spectrum(self):
        op = HermitianOperator.from_matrix(PAULI_Z, units="dimensionless")
        assert op.dim == 2
        assert np.allclose(op.eigenvalues, [-1.0, 1.0])
        assert op.ground_energy == -1.0
        assert abs(abs(op.ground_state[1]) - 1.0) < 1e-12

    def test_units_validation(self):
        with pytest.raises(ValueError):
            HermitianOperator.from_matrix(PAULI_Z, units="joule")

    def test_matrices_read_only(self):
        op = HermitianOperator.from_matrix(PAULI_Z)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0


class TestMatrixFunction:
    def test_exp_of_zero_is_identity(self):
        op = HermitianOperator.from_matrix(np.zeros((3, 3)))
        assert max_abs(matrix_function(op, np.exp) - np.eye(3)) < 1e-14

    def test_identity_function_returns_matrix(self):
        rng = np.random.default_rng(5)
        op = HermitianOperator.from_matrix(random_hermitian(6, rng))
        assert max_abs(matrix_function(op, lambda x: x) - op.matrix) < 1e-12

    def test_exp_pauli_x_against_series_oracle(self):
        op = HermitianOperator.from_matrix(PAULI_X)
        got = matrix_function(op, np.exp)
        # truncated power series of exp(X), converged well below 1e-12
        series = np.zeros((2, 2), dtype=complex)
        term = np.eye(2, dtype=complex)
        for k in range(1, 40):
            series += term
            term = term @ PAULI_X / k
        assert max_abs(got - series) < 1e-12
        want = np.cosh(1.0) * np.eye(2) + np.sinh(1.0) * PAULI_X
        assert max_abs(got - want) < 1e-12

    def test_hermitian_for_real_function(self):
        rng = np.random.default_rng(17)
        op = HermitianOperator.from_matrix(random_hermitian(5, rng))
        out = matrix_function(op, lambda e: np.exp(-0.3 * e))
        assert max_abs(out - out.conj().T) < 1e-12

    def test_composition_on_prediagonalized_copy(self):
        rng = np.random.default_rng(23)
        op = HermitianOperator.from_matrix(random_hermitian(6, rng))
        f = lambda e: 1.0 / (1.0 + e * e)
        direct = matrix_function(op, f)
        diag = HermitianOperator.from_matrix(np.diag(op.eigenvalues))
        entrywise = (
            op.eigenvectors @ matrix_function(diag, f) @ op.eigenvectors.conj().T
        )
        assert max_abs(direct - entrywise) < 1e-12

    def test_non_finite_function_value(self):
        op = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
        with pytest.raises(NonFiniteFunctionValue):
            matrix_function(op, lambda e: 1.0 / e if e != 0 else np.inf)

