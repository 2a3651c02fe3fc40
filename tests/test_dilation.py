import numpy as np
import pytest

from qitp.dilation import (
    DilationUnitary,
    ItpParams,
    build_dilation,
    classical_itp,
    filter_profile,
    itp_filter,
)
from qitp.errors import DimensionMismatch, ZeroVector
from qitp.linalg import HermitianOperator, max_abs

from helpers import random_hermitian, random_state

# frozen from a 40-digit mpmath evaluation of 1/sqrt(1 + e^40)
H_AT_1_TAU20 = 2.0611536224385578e-9
INV_SQRT2 = 2.0**-0.5


def op_from(m, units="dimensionless"):
    return HermitianOperator.from_matrix(m, units)


class TestItpParams:
    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            ItpParams(tau=-1.0)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            ItpParams(tau=1.0, trial_mode="guess")

    def test_rejects_nonpositive_fraction(self):
        with pytest.raises(ValueError):
            ItpParams(tau=1.0, trial_mode="fraction_of_ground", fraction=0.0)

    def test_trial_energy_resolution(self):
        op = op_from(np.diag([-2.0, 3.0]))
        assert ItpParams(1.0, trial_energy=0.7).resolve_trial_energy(op) == 0.7
        assert (
            ItpParams(1.0, trial_mode="ground_state_exact").resolve_trial_energy(op)
            == -2.0
        )
        assert (
            ItpParams(1.0, trial_mode="fraction_of_ground", fraction=0.5).resolve_trial_energy(op)
            == -1.0
        )


class TestFilterOperator:
    def test_tau_zero_gives_uniform_half_power(self):
        rng = np.random.default_rng(0)
        op = op_from(random_hermitian(4, rng))
        q = itp_filter(op, ItpParams(tau=0.0, trial_energy=0.3))
        assert max_abs(q - INV_SQRT2 * np.eye(4)) < 1e-14

    def test_shift_equal_to_spectrum_gives_half_power(self):
        op = op_from(0.7 * np.eye(3))
        q = itp_filter(op, ItpParams(tau=11.0, trial_energy=0.7))
        assert max_abs(q - INV_SQRT2 * np.eye(3)) < 1e-14

    def test_two_level_large_tau_values(self):
        op = op_from(np.diag([0.0, 1.0]))
        q = itp_filter(op, ItpParams(tau=20.0, trial_energy=0.0))
        assert abs(q[0, 0] - INV_SQRT2) < 1e-14
        assert abs(q[1, 1] - H_AT_1_TAU20) < 1e-22
        assert abs(q[0, 1]) < 1e-15

    def test_profile_is_strictly_decreasing_in_range(self):
        energies = np.linspace(-5, 5, 201)
        h = filter_profile(energies, 3.0, 0.1)
        assert np.all(h > 0.0) and np.all(h < 1.0)
        assert np.all(np.diff(h) < 0)

    def test_profile_overflow_safe_extremes(self):
        energies = np.array([-1e6, 1e6])
        h = filter_profile(energies, 1e4, 0.0)
        r = filter_profile(-energies, 1e4, -0.0)
        assert np.all(np.isfinite(h)) and np.all(np.isfinite(r))
        assert h[0] == 1.0 and h[1] == 0.0
        assert r[0] == 0.0 and r[1] == 1.0

    def test_profiles_square_to_one(self):
        energies = np.linspace(-400, 400, 101)
        h = filter_profile(energies, 2.0, 0.0)
        r = filter_profile(-energies, 2.0, -0.0)
        assert np.max(np.abs(h**2 + r**2 - 1.0)) < 1e-12


class TestBuildDilation:
    def test_scalar_system_gives_hadamard(self):
        op = op_from(np.array([[0.4]]))
        u = build_dilation(op, ItpParams(tau=7.0, trial_energy=0.4))
        hadamard = INV_SQRT2 * np.array([[1, 1], [1, -1]])
        assert max_abs(u.matrix - hadamard) < 1e-14

    def test_tau_zero_is_hadamard_kron_identity(self):
        rng = np.random.default_rng(1)
        op = op_from(random_hermitian(3, rng))
        u = build_dilation(op, ItpParams(tau=0.0))
        want = np.kron(INV_SQRT2 * np.array([[1, 1], [1, -1]]), np.eye(3))
        assert max_abs(u.matrix - want) < 1e-14

    def test_random_dim4_unitary(self):
        rng = np.random.default_rng(2)
        op = op_from(random_hermitian(4, rng))
        u = build_dilation(op, ItpParams(tau=5.0, trial_mode="ground_state_exact"))
        assert max_abs(u.matrix.conj().T @ u.matrix - np.eye(8)) < 1e-12

    def test_block_layout(self):
        rng = np.random.default_rng(3)
        op = op_from(random_hermitian(3, rng))
        u = build_dilation(op, ItpParams(tau=1.5, trial_energy=0.2))
        n = op.dim
        assert max_abs(u.matrix[:n, :n] - u.q_block) == 0.0
        assert max_abs(u.matrix[:n, n:] - u.r_block) == 0.0
        assert max_abs(u.matrix[n:, :n] - u.r_block) == 0.0
        assert max_abs(u.matrix[n:, n:] + u.q_block) == 0.0

    @pytest.mark.parametrize("tau", [0.01, 1.0, 100.0])
    def test_unitarity_sweep(self, tau):
        rng = np.random.default_rng(int(tau * 1000) + 11)
        for dim in (2, 4, 8):
            for _ in range(12):
                op = op_from(random_hermitian(dim, rng, scale=rng.uniform(0.2, 5)))
                u = build_dilation(op, ItpParams(tau=tau, trial_mode="ground_state_exact"))
                assert max_abs(u.matrix.conj().T @ u.matrix - np.eye(2 * dim)) < 1e-12

    def test_block_identity_q2_plus_r2(self):
        rng = np.random.default_rng(4)
        for dim in (2, 4, 8):
            op = op_from(random_hermitian(dim, rng))
            u = build_dilation(op, ItpParams(tau=2.0, trial_mode="ground_state_exact"))
            assert max_abs(u.q_block @ u.q_block + u.r_block @ u.r_block - np.eye(dim)) < 1e-12


class TestLimits:
    def test_small_tau_quadratic_residual(self):
        # || Q(tau) - 2^-1/2 exp(-(H - E_T) tau / 2) ||_max = O(tau^2):
        # halving tau shrinks the residual by ~4.
        rng = np.random.default_rng(5)
        for _ in range(10):
            op = op_from(random_hermitian(5, rng))
            et = op.ground_energy
            norm = float(np.max(np.abs(op.eigenvalues - et)))
            taus = [1e-2 / norm, 5e-3 / norm, 2.5e-3 / norm]
            residuals = []
            for tau in taus:
                q = itp_filter(op, ItpParams(tau=tau, trial_energy=et))
                ref = INV_SQRT2 * op.function(lambda e: np.exp(-(e - et) * tau / 2.0))
                residuals.append(max_abs(q - ref))
            for a, b in zip(residuals, residuals[1:]):
                assert 3.5 <= a / b <= 4.5

    def test_large_tau_projects_to_ground_state(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            op = op_from(random_hermitian(4, rng))
            gap = op.eigenvalues[1] - op.eigenvalues[0]
            tau = 40.0 / gap
            psi = random_state(4, rng)
            c0 = op.ground_state.conj() @ psi
            q = itp_filter(op, ItpParams(tau=tau, trial_mode="ground_state_exact"))
            target = (c0 / np.sqrt(2.0)) * op.ground_state
            assert np.linalg.norm(q @ psi - target) < 1e-8

    def test_filter_monotone_on_spectrum(self):
        rng = np.random.default_rng(7)
        op = op_from(random_hermitian(6, rng))
        params = ItpParams(tau=1.7, trial_mode="ground_state_exact")
        h = filter_profile(op.eigenvalues, 1.7, op.ground_energy)
        for i in range(len(h)):
            for j in range(len(h)):
                if op.eigenvalues[i] < op.eigenvalues[j] - 1e-12:
                    assert h[i] > h[j]


class TestClassicalItp:
    def test_ground_eigenvector_with_matching_shift_is_fixed(self):
        rng = np.random.default_rng(8)
        op = op_from(random_hermitian(4, rng))
        psi = op.ground_state
        params = ItpParams(tau=3.0, trial_mode="ground_state_exact")
        unnorm, norm = classical_itp(op, params, psi)
        assert np.linalg.norm(unnorm - psi) < 1e-12
        assert np.linalg.norm(norm - psi) < 1e-12

    def test_excited_eigenvector_with_matching_shift_is_fixed(self):
        # residual weight ~1e-16 on lower levels is amplified by e^{+gap*tau},
        # so the tolerance scales with the amplification factor
        rng = np.random.default_rng(8)
        op = op_from(random_hermitian(4, rng))
        k = 2
        psi = op.eigenvectors[:, k]
        tau = 3.0
        params = ItpParams(tau=tau, trial_energy=float(op.eigenvalues[k]))
        unnorm, norm = classical_itp(op, params, psi)
        amp = np.exp((op.eigenvalues[k] - op.eigenvalues[0]) * tau)
        assert np.linalg.norm(unnorm - psi) < 1e-14 * amp
        assert np.linalg.norm(norm - psi) < 1e-14 * amp

    def test_tau_zero_identity(self):
        rng = np.random.default_rng(9)
        op = op_from(random_hermitian(3, rng))
        psi = random_state(3, rng)
        unnorm, norm = classical_itp(op, ItpParams(tau=0.0), psi)
        assert np.linalg.norm(unnorm - psi) < 1e-14
        assert np.linalg.norm(norm - psi) < 1e-14

    def test_two_level_hand_computation(self):
        op = op_from(np.diag([0.0, 1.0]))
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        unnorm, norm = classical_itp(op, ItpParams(tau=np.log(2.0)), psi)
        want_unnorm = np.array([1.0 / np.sqrt(2.0), 1.0 / (2.0 * np.sqrt(2.0))])
        want_norm = np.array([2.0, 1.0]) / np.sqrt(5.0)
        assert np.linalg.norm(unnorm - want_unnorm) < 1e-14
        assert np.linalg.norm(norm - want_norm) < 1e-14

    def test_zero_vector_on_underflow(self):
        op = op_from(np.diag([0.0, 1.0]))
        psi = np.array([1.0, 0.0])
        # E_T far above the populated level: amplitude e^(-800) underflows
        with pytest.raises(ZeroVector):
            classical_itp(op, ItpParams(tau=800.0, trial_energy=-1.0), psi)

    def test_dim_mismatch(self):
        op = op_from(np.diag([0.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            classical_itp(op, ItpParams(tau=1.0), np.ones(3) / np.sqrt(3))

    def test_dilation_branch_is_filtered_state(self):
        # the kept dilation branch applies the spectral filter h(H), which is
        # the classical propagator times the normalizer block
        rng = np.random.default_rng(10)
        op = op_from(random_hermitian(5, rng))
        psi = random_state(5, rng)
        params = ItpParams(tau=2.0, trial_mode="ground_state_exact")
        u = build_dilation(op, params)
        kept = (u.matrix @ np.concatenate([psi, np.zeros(5)]))[:5]
        coeffs = op.eigenvectors.conj().T @ psi
        h = filter_profile(op.eigenvalues, 2.0, op.ground_energy)
        want = op.eigenvectors @ (h * coeffs)
        assert np.linalg.norm(kept - want) < 1e-12

    def test_agrees_with_dilation_branch_at_large_tau(self):
        # deep in the filter both the classical propagation and the kept
        # branch collapse onto the ground state
        rng = np.random.default_rng(10)
        op = op_from(random_hermitian(5, rng))
        psi = random_state(5, rng)
        gap = op.eigenvalues[1] - op.eigenvalues[0]
        params = ItpParams(tau=50.0 / gap, trial_mode="ground_state_exact")
        _, norm = classical_itp(op, params, psi)
        u = build_dilation(op, params)
        kept = (u.matrix @ np.concatenate([psi, np.zeros(5)]))[:5]
        kept = kept / np.linalg.norm(kept)
        assert np.linalg.norm(kept - norm) < 1e-10
