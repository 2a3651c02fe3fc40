import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qitp.errors import DimensionError, NonFiniteFunctionValue, NonHermitianInput
from qitp.linalg import (
    HermitianOperator,
    PAULI_X,
    PAULI_Z,
    _fix_eigenvector_phases,
    _ground_cluster_end,
    _integer,
    _is_finite_real,
    _is_real,
    _real_array,
    eigh,
    matrix_function,
    max_abs,
)

from helpers import haar_unitary, random_hermitian


def fix_phases_loop(vectors):
    """Phase pinning one column at a time: the reference for the vectorized
    form, which does the same arithmetic per entry."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        mags = np.abs(col)
        pivot = int(np.nonzero(mags >= mags.max() - 1e-12)[0][0])
        out[:, k] = col * np.conj(col[pivot] / abs(col[pivot]))
    return out


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

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 64])
    def test_phase_pinning_matches_loop(self, dim):
        rng = np.random.default_rng(200 + dim)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
        cases = [
            np.linalg.eigh(random_hermitian(dim, rng))[1],
            np.linalg.qr(random_hermitian(dim, rng))[0][:, : max(1, dim // 2)],
            np.eye(dim)[:, ::-1] * phases,  # one nonzero entry per column
            np.full((dim, dim), dim**-0.5) * phases,  # all entries tie on magnitude
        ]
        for v in cases:
            got, want = _fix_eigenvector_phases(v), fix_phases_loop(v)
            # same formula per entry; numpy's kernels may round the product
            # differently by an ulp
            assert max_abs(got - want) <= 2 * np.finfo(float).eps

    def test_subnormal_matrices_reconstruct(self):
        # entries near 2**-1050 keep about 24 bits; the solver sees them scaled
        # into [0.5, 1), exactly as it sees the same matrix scaled up by 2**1050
        rng = np.random.default_rng(1050)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            m = np.ldexp(random_hermitian(dim, rng).view(float), -1050).view(complex)
            w, v = eigh(m)
            w_up, v_up = eigh(np.ldexp(m.view(float), 1050).view(complex))
            assert np.array_equal(v, v_up) and np.array_equal(w, np.ldexp(w_up, -1050))
            assert max_abs(v.conj().T @ v - np.eye(dim)) < 1e-12
            # sums of subnormals are exact: each product rounds by half a step
            assert max_abs((v * w) @ v.conj().T - m) <= 4 * dim * 2.0**-1074

    def test_extreme_spectra(self):
        # a span beyond the float range is still ascending; a spectrum beyond it is rejected
        w, v = eigh(np.diag([1.7e308, -1.7e308]))
        assert np.array_equal(w, [-1.7e308, 1.7e308])
        assert np.array_equal(np.abs(v), [[0.0, 1.0], [1.0, 0.0]])
        assert _ground_cluster_end(w, 1.7e308) == 1
        with pytest.raises(NonFiniteFunctionValue, match="spectrum exceeds the float range"):
            eigh(np.array([[1.7e308, 1e308], [1e308, -1.7e308]]))

    @pytest.mark.parametrize("split", [5e-10, 9e-11])
    def test_eigenvectors_stay_with_their_eigenvalues(self, split):
        # two levels closer than the degeneracy tolerance, but not equal
        w, v = eigh(np.diag([split, 0.0, 1.0]))
        assert np.array_equal(w, [0.0, split, 1.0])
        assert np.array_equal(v, np.eye(3)[:, [1, 0, 2]])

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 16),
        log_scale=st.floats(-6, 6),
        log_split=st.floats(-14, -8),
        size=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_near_degenerate_spectra(self, n, log_scale, log_split, size, seed, data):
        # Q diag(w) Q^dag with one pair or triple of levels split by 10**log_split
        # of the scale: closer than the degeneracy tolerance or just outside it
        size = min(size, n)
        start = data.draw(st.integers(0, n - size))
        rng = np.random.default_rng(seed)
        levels = rng.uniform(-1.0, 1.0, n)
        levels[start:start + size] = levels[start] + 10.0**log_split * np.arange(size)
        q = haar_unitary(n, rng)
        h = (q * (10.0**log_scale * levels)) @ q.conj().T
        h = (h + h.conj().T) / 2
        w, v = eigh(h)
        assert np.all(np.diff(w) >= 0.0)
        assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-12
        assert max_abs(h @ v - v * w) <= 1e-12 * max_abs(h)
        w2, v2 = eigh(h)
        assert np.array_equal(w, w2) and np.array_equal(v, v2)
        mags = np.abs(v)
        pivots = np.argmax(mags >= mags.max(axis=0) - 1e-12, axis=0)
        pinned = v[pivots, np.arange(n)]
        assert np.all(pinned.real > 0.0)
        assert np.all(np.abs(pinned.imag) <= 4 * np.finfo(float).eps * pinned.real)


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

    def test_from_matrix_keeps_a_private_copy(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        view = a[:]
        op = HermitianOperator.from_matrix(a)
        assert a.flags.writeable
        a[0, 0] = 7.0
        view[1, 1] = 50.0
        assert np.array_equal(op.matrix, np.diag([1.0, 2.0]))
        assert np.array_equal(op.eigenvalues, [1.0, 2.0])
        assert np.array_equal(op.eigenvectors, np.eye(2))

    def test_from_matrix_checks_shape_dimension_and_finiteness(self):
        for bad in (np.eye(65), np.zeros((0, 0)), np.ones((2, 3))):
            with pytest.raises(DimensionError):
                HermitianOperator.from_matrix(bad)
        # the shape is checked before the entries
        with pytest.raises(DimensionError):
            HermitianOperator.from_matrix(np.full((65, 65), np.nan))
        with pytest.raises(NonHermitianInput):
            HermitianOperator.from_matrix(np.diag([1.0, np.nan]))
        assert HermitianOperator.from_matrix(np.eye(64)).dim == 64


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
        # 1/e with inf at e = 0, without a divide-by-zero warning
        inverse = lambda e: np.divide(1.0, e, out=np.full_like(e, np.inf), where=e != 0)
        with pytest.raises(NonFiniteFunctionValue):
            matrix_function(op, inverse)

    def test_wrong_shape_result_raises_value_error(self):
        op = HermitianOperator.from_matrix(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError):
            matrix_function(op, lambda e: np.ones(3))
        with pytest.raises(ValueError):
            matrix_function(op, lambda e: np.ones((2, 2)))
        # a scalar broadcasts to every eigenvalue
        assert max_abs(matrix_function(op, lambda e: 2.0) - 2.0 * np.eye(2)) < 1e-15



# Scalars on both sides of the input rules: bools, text, None, Python and
# numpy complex (which math.isfinite would cut to the real part), integers past
# 2**64 and past the float range, a Fraction, NaN and the infinities, and
# Python and numpy ints and floats.
RULE_SCALARS = st.one_of(
    st.sampled_from([True, False, np.True_, np.False_, "1", "0.5", "nan", None, 1j, 1 + 0j,
                     np.complex128(1j), np.complex64(1), np.clongdouble(1),
                     2**64, 10**400, -(10**400), Fraction(1, 2), math.nan, math.inf, -math.inf]),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
)


def is_real_by_type(x) -> bool:
    """The real-scalar rule written out by type: a Python or numpy int or
    float, or a Fraction, that is not a bool; an int within the float range."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating, Fraction)):
        return False
    return not isinstance(x, int) or abs(x) <= sys.float_info.max


def accepts(f, *args) -> bool:
    try:
        f(*args)
    except ValueError:
        return False
    return True


class TestInputRules:
    @settings(max_examples=300, deadline=None)
    @given(RULE_SCALARS)
    def test_one_rule_for_integers_scalars_and_arrays(self, x):
        real = is_real_by_type(x)
        assert _is_real(x) == real
        assert accepts(_real_array, [x], "x") == real
        if real:
            assert _real_array([x], "x").tobytes() == np.float64(float(x)).tobytes()
        assert _is_finite_real(x) == (real and math.isfinite(x))
        integral = isinstance(x, (int, np.integer)) and not isinstance(x, bool)
        assert accepts(_integer, x, "x") == integral
        if integral:
            assert type(_integer(x, "x")) is int and _integer(x, "x") == x
