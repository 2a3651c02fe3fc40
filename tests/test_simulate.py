import functools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qitp
from qitp import simulate
from qitp.dilation import TRIAL_MODES, ItpParams, build_dilation, filter_profile, log_filter_squared
from qitp.errors import (
    DimensionError,
    DimensionMismatch,
    InvalidDistribution,
    NonFiniteFunctionValue,
    NonHermitianInput,
    NonRealExpectation,
    NotUnitary,
    ParseError,
    PostselectionImpossible,
    SingularOverlap,
    UnitarityCheckFailed,
)
from qitp.hamiltonians import SpinCouplings, hydrogen_sto2g, two_neutron_sd
from qitp.linalg import HermitianOperator, PAULI_Z, _ground_cluster_end, _power_of_two_scaled, max_abs
from qitp.simulate import (
    POSTSELECT_FLOOR,
    NoiseParams,
    apply_channel,
    apply_step,
    basis_labels,
    energy_expectation,
    extend_with_ancilla,
    normalized_state,
    postselect_ancilla0,
    readout_confusion,
    run_itp,
    sample_shots,
    spectral_run,
    state_fidelity,
)

from helpers import random_hermitian, random_state, spectral_loop

# Reference occupation probabilities for the hydrogen run at tau = 60/Hartree
# with E_T = E0 and a uniform initial state, indexed ancilla-major
# (|00>, |01>, |10>, |11>, reservoir digit first).
HYDROGEN_EXTENDED = np.array([0.00357, 0.17678, 0.53561, 0.28403])
HYDROGEN_NORMALIZED = np.array([0.020, 0.980])


def op_from(m, units="dimensionless"):
    return HermitianOperator.from_matrix(m, units)


def kraus_oracle(noise):
    """Amplitude damping followed by dephasing: the four composed Kraus terms."""
    g, lam = noise.amplitude_damping, noise.dephasing
    damp = [
        np.array([[1, 0], [0, np.sqrt(1 - g)]], dtype=complex),
        np.array([[0, np.sqrt(g)], [0, 0]], dtype=complex),
    ]
    deph = [np.sqrt(1 - lam) * np.eye(2, dtype=complex), np.sqrt(lam) * PAULI_Z]
    return [d @ k for d in deph for k in damp]


def channel_oracle(rho, noise):
    """The channel as a sum of kron(I, K, I) sandwiches on the padded register."""
    dim = rho.shape[0]
    k = max(1, int(np.ceil(np.log2(dim))))
    want = np.zeros((2**k, 2**k), dtype=complex)
    want[:dim, :dim] = rho
    for q in range(k):
        left, right = np.eye(2**q), np.eye(2 ** (k - q - 1))
        ops = [np.kron(np.kron(left, kq), right) for kq in kraus_oracle(noise)]
        want = sum(op @ want @ op.conj().T for op in ops)
    return want[:dim, :dim]


def readout_oracle(p, flip):
    """Flips on every bit of a power-of-two register: one Kronecker product."""
    conf = np.ones((1, 1))
    for _ in range(p.size.bit_length() - 1):
        conf = np.kron(conf, np.array([[1 - flip, flip], [flip, 1 - flip]]))
    return conf @ p


def splitmix64_uniforms(count, seed):
    """``count`` doubles in [0, 1) from the splitmix64 counter stream."""
    if count == 0:
        return np.zeros(0)
    mask = np.uint64(0xFFFFFFFFFFFFFFFF)
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * np.uint64(0x9E3779B97F4A7C15)) & mask
    z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & mask
    z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & mask
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def inverse_cdf_oracle(probs, shots, seed):
    """Float inverse-CDF counts on one unchunked stream: the sampler's reference."""
    cdf = np.cumsum(np.clip(np.asarray(probs, dtype=float), 0.0, None))
    cdf[-1] = 1.0
    u = splitmix64_uniforms(shots, seed)
    return np.bincount(np.searchsorted(cdf, u, side="right"), minlength=cdf.size)


def hydrogen_setup():
    op, _, _ = hydrogen_sto2g()
    params = ItpParams(tau=60.0, trial_mode="ground_state_exact")
    psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
    return op, params, psi0


class TestStatePlumbing:
    def test_extend_basis_state(self):
        assert np.array_equal(extend_with_ancilla([1, 0]), [1, 0, 0, 0])

    def test_extend_uniform(self):
        s = 1 / np.sqrt(2)
        assert np.allclose(extend_with_ancilla([s, s]), [s, s, 0, 0])

    def test_extend_preserves_norm(self):
        rng = np.random.default_rng(0)
        psi = random_state(5, rng)
        assert abs(np.linalg.norm(extend_with_ancilla(psi)) - 1.0) < 1e-12

    def test_apply_step_identity_like(self):
        op = op_from(np.array([[0.3]]))
        u = build_dilation(op, ItpParams(tau=4.0, trial_energy=0.3))
        out = apply_step(np.array([1.0, 0.0]), u)
        assert np.allclose(out, [2**-0.5, 2**-0.5])

    def test_apply_step_dim_mismatch(self):
        op = op_from(np.diag([0.0, 1.0]))
        u = build_dilation(op, ItpParams(tau=1.0))
        with pytest.raises(DimensionMismatch):
            apply_step(np.ones(3), u)

    def test_apply_step_norm_preserved(self):
        rng = np.random.default_rng(1)
        op = op_from(random_hermitian(4, rng))
        u = build_dilation(op, ItpParams(tau=2.0, trial_mode="ground_state_exact"))
        out = apply_step(extend_with_ancilla(random_state(4, rng)), u)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12


class TestNormalizedState:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.floats(-300.0, 300.0))
    def test_scale_invariant(self, seed, dim, log_s):
        # s v keeps every entry finite, but its squares overflow above about
        # 1e154 and lose digits to underflow below about 1e-154
        v = random_state(dim, np.random.default_rng(seed))
        assert max_abs(normalized_state(10.0**log_s * v) - normalized_state(v)) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 64), st.booleans(), st.booleans(),
        st.integers(-1000, 1000),
    )
    def test_power_of_two_multiples_give_the_same_bytes(self, seed, dim, real, zero, k):
        rng = np.random.default_rng(seed)
        v = random_state(dim, rng)
        if real:
            v = v.real.astype(complex)
        if zero:
            v[rng.integers(dim)] = 0.0
        parts = v.view(float)
        nonzero = parts != 0.0
        assume(nonzero.any())
        # |parts| <= 1, so 2**k parts stays finite; every entry stays normal
        assume(np.abs(parts[nonzero]).min() * 2.0 ** min(k, 0) >= np.finfo(float).tiny)
        scaled = np.ldexp(parts, k).view(complex)
        assert normalized_state(scaled).tobytes() == normalized_state(v).tobytes()

    def test_extreme_and_tiny_states(self):
        assert np.array_equal(normalized_state([1e308, 1e308]), normalized_state([1.0, 1.0]))
        assert max_abs(normalized_state(1e-13 * np.array([0.6, 0.8])) - [0.6, 0.8]) <= 1e-15
        assert np.array_equal(normalized_state([5e-324, 0.0]), [1.0, 0.0])
        for zero in ([0.0, 0.0], [], [0j]):
            with pytest.raises(InvalidDistribution):
                normalized_state(zero)


class TestPostselection:
    def test_all_weight_on_ancilla0(self):
        system, p0 = postselect_ancilla0([1, 0, 0, 0])
        assert p0 == 1.0
        assert np.allclose(system, [1, 0])

    def test_all_weight_on_ancilla1_raises(self):
        with pytest.raises(PostselectionImpossible):
            postselect_ancilla0([0, 0, 1, 0])

    def test_large_tau_success_probability(self):
        # in the deep-filter limit p0 -> |c0|^2 / 2
        rng = np.random.default_rng(2)
        for _ in range(10):
            op = op_from(random_hermitian(4, rng))
            gap = op.eigenvalues[1] - op.eigenvalues[0]
            u = build_dilation(
                op, ItpParams(tau=40.0 / gap, trial_mode="ground_state_exact")
            )
            psi = random_state(4, rng)
            c0 = op.ground_state.conj() @ psi
            _, p0 = postselect_ancilla0(apply_step(extend_with_ancilla(psi), u))
            assert abs(p0 - abs(c0) ** 2 / 2.0) < 1e-8

    def test_probability_identity_vs_filter_block(self):
        rng = np.random.default_rng(3)
        op = op_from(random_hermitian(5, rng))
        u = build_dilation(op, ItpParams(tau=1.3, trial_mode="ground_state_exact"))
        psi = random_state(5, rng)
        _, p0 = postselect_ancilla0(apply_step(extend_with_ancilla(psi), u))
        q = u.q_block
        want = float(np.real(psi.conj() @ (q.conj().T @ q @ psi)))
        assert abs(p0 - want) < 1e-12


class TestEnergyExpectation:
    def test_eigenstate_gives_eigenvalue(self):
        rng = np.random.default_rng(4)
        op = op_from(random_hermitian(5, rng))
        for k in (0, 2, 4):
            e = energy_expectation(op.eigenvectors[:, k], op)
            assert abs(e - op.eigenvalues[k]) < 1e-10

    def test_pauli_z_balanced_state(self):
        op = op_from(PAULI_Z)
        assert abs(energy_expectation(np.array([1, 1]) / np.sqrt(2), op)) < 1e-14

    def test_matches_spectral_sum(self):
        rng = np.random.default_rng(5)
        op = op_from(random_hermitian(6, rng))
        psi = random_state(6, rng)
        coeffs = op.eigenvectors.conj().T @ psi
        want = float(np.sum(np.abs(coeffs) ** 2 * op.eigenvalues))
        assert abs(energy_expectation(psi, op) - want) < 1e-10

    def test_rejects_wrong_dim(self):
        op = op_from(PAULI_Z)
        with pytest.raises(DimensionMismatch):
            energy_expectation(np.ones(3), op)

    def test_zero_matrix_gives_zero(self):
        assert energy_expectation([0.6, 0.8j], op_from(np.zeros((2, 2)))) == 0.0

    def test_subnormal_hamiltonian_is_a_power_of_two_multiple(self):
        # at 2**-1050 the bound 1e-8 * max_abs(H) * ||psi||^2 underflowed to 0,
        # so rounding in the imaginary part raised NonRealExpectation
        rng = np.random.default_rng(36)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            small = np.ldexp(random_hermitian(dim, rng).view(float), -1050).view(complex)
            exact = np.ldexp(small.view(float), 1050).view(complex)  # exact: small is the rounded one
            psi = random_state(dim, rng)
            want = math.ldexp(energy_expectation(psi, op_from(exact)), -1050)
            assert energy_expectation(psi, op_from(small)) == want

    def test_expectation_beyond_the_float_range(self):
        op = op_from(np.diag([1e300, -1e300]))
        assert abs(energy_expectation([1e4, 0.0], op) - 1e308) <= 1e293
        with pytest.raises(NonFiniteFunctionValue, match="exceeds the float range"):
            energy_expectation([1e5, 0.0], op)


class TestSampling:
    def test_deterministic_stream(self):
        assert np.array_equal(splitmix64_uniforms(100, 7), splitmix64_uniforms(100, 7))
        assert not np.array_equal(
            splitmix64_uniforms(100, 7), splitmix64_uniforms(100, 8)
        )

    def test_stream_in_unit_interval(self):
        u = splitmix64_uniforms(10_000, 123)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.02

    def test_certain_outcome(self):
        counts = sample_shots([1.0, 0.0], 8192, seed=1)
        assert np.array_equal(counts, [8192, 0])

    def test_zero_shots(self):
        counts = sample_shots([0.25, 0.75], 0, seed=1)
        assert np.array_equal(counts, [0, 0])

    def test_fair_coin_within_three_sigma(self):
        counts = sample_shots([0.5, 0.5], 8192, seed=42)
        sigma = np.sqrt(8192 * 0.25)
        assert abs(counts[0] - 4096) <= 3 * sigma
        assert counts.sum() == 8192

    def test_seed_reproducibility(self):
        a = sample_shots([0.1, 0.2, 0.3, 0.4], 5000, seed=9)
        b = sample_shots([0.1, 0.2, 0.3, 0.4], 5000, seed=9)
        assert np.array_equal(a, b)

    def test_chunked_counts_equal_unchunked(self, monkeypatch):
        p = np.array([0.1, 0.25, 0.05, 0.6])
        shots = 2 * simulate._SHOT_CHUNK + 3  # three chunks at the module's size
        assert np.array_equal(sample_shots(p, shots, 5), inverse_cdf_oracle(p, shots, 5))
        for chunk in (1, 7):
            monkeypatch.setattr(simulate, "_SHOT_CHUNK", chunk)
            for shots, seed in ((0, 3), (1, 3), (7, 3), (50, 11), (503, 2**64 - 5)):
                want = inverse_cdf_oracle(p, shots, seed)
                assert np.array_equal(sample_shots(p, shots, seed), want)

    @settings(deadline=None)
    @given(data=st.data())
    def test_counts_match_inverse_cdf_oracle(self, data):
        chunk = data.draw(st.sampled_from([1, 7, simulate._SHOT_CHUNK]))
        shots = data.draw(st.integers(0, 3 * chunk))
        seed = data.draw(st.integers(-(2**66), 2**66))
        k = data.draw(st.integers(1, 128))
        w = data.draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=k, max_size=k))
        w = np.array(w)
        if k > 1 and data.draw(st.booleans()):
            w[-1] = 0.0
        assume(w.sum() > 0.0)
        p = w / w.sum() * (1.0 + data.draw(st.floats(-1e-9, 1e-9)))
        if shots and k > 1 and data.draw(st.booleans()):
            # Pin the first CDF point on a draw u, or half a 2**-53 step above
            # it: a rounded-down or strict threshold bins that draw wrongly.
            u = splitmix64_uniforms(shots, seed)[data.draw(st.integers(0, shots - 1))]
            c = u + 2.0**-54 if u < 0.5 and data.draw(st.booleans()) else u
            rest = p[1:].sum()
            assume(rest > 0.0 and c <= p.sum())
            # p[1:] / rest lies in [0, 1]: a subnormal rest cannot overflow
            p = np.concatenate([[c], p[1:] / rest * (p.sum() - c)])
        assume(abs(p.sum() - 1.0) <= 1e-9)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_SHOT_CHUNK", chunk)
            counts = sample_shots(p, shots, seed)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, inverse_cdf_oracle(p, shots, seed))

    def test_float_view_threshold_edges(self):
        """Thresholds where the viewed exponent steps (2**52), at 2**53, past
        it, and on a draw itself bin every draw as the oracle does."""
        shots, seed = 5000, 3
        cases = [[c, 1.0 - c] for c in (0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53)]
        at, past = [0.5, 0.5, 0.0, 0.0], [0.5, 0.5 + 9e-10, 0.0]
        assert np.ceil(np.cumsum(at)[1:-1] * 2.0**53).tolist() == [2.0**53, 2.0**53]
        assert np.ceil(np.cumsum(past)[1] * 2.0**53) > 2.0**53
        cases += [at, past]
        # pin the last draw u (< 0.5): a threshold equal to u bins it in the
        # upper bin; a threshold half or one 2**-53 step above u, in the lower
        last = np.flatnonzero(splitmix64_uniforms(shots, seed) < 0.5)[-1] + 1
        u = splitmix64_uniforms(last, seed)[-1]
        for c, bin_ in ((u, [0, 1]), (u + 2.0**-54, [1, 0]), (u + 2.0**-53, [1, 0])):
            p = [c, 1.0 - c]
            step = sample_shots(p, last, seed) - sample_shots(p, last - 1, seed)
            assert step.tolist() == bin_
            cases.append(p)
        for p in cases:
            assert np.array_equal(sample_shots(p, shots, seed), inverse_cdf_oracle(p, shots, seed))

    def test_numpy_integer_seeds(self):
        p = [0.1, 0.25, 0.05, 0.6]
        shots = 70_000
        assert shots > simulate._SHOT_CHUNK
        for seed, typed in ((5, np.int64(5)), (5, np.uint64(5)), (-5, np.int64(-5))):
            assert np.array_equal(sample_shots(p, shots, typed), sample_shots(p, shots, seed))
        op, params, psi0 = hydrogen_setup()
        rec = run_itp(op, params, psi0, shots=10, seed=np.int64(5))
        want = run_itp(op, params, psi0, shots=10, seed=5).shot_counts
        assert np.array_equal(rec.shot_counts, want)

    def test_invalid_distribution(self):
        with pytest.raises(InvalidDistribution):
            sample_shots([0.5, 0.6], 10, seed=0)
        with pytest.raises(InvalidDistribution):
            sample_shots([1.5, -0.5], 10, seed=0)
        with pytest.raises(InvalidDistribution):
            sample_shots([0.5, 0.5], -1, seed=0)
        for shots in (2.5, 3.0, True, "3"):
            with pytest.raises(InvalidDistribution):
                sample_shots([0.5, 0.5], shots, seed=0)
        for shots in (3, np.int64(3), np.uint8(3)):
            assert sample_shots([0.5, 0.5], shots, seed=0).sum() == 3
        for seed in (True, 2.0, "3"):
            with pytest.raises(InvalidDistribution):
                sample_shots([0.5, 0.5], 10, seed=seed)


class TestChannels:
    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(6)
        psi = random_state(4, rng)
        rho = np.outer(psi, psi.conj())
        out = apply_channel(rho, NoiseParams(0.0, 0.0, 0.0))
        assert max_abs(out - rho) < 1e-14

    def test_full_damping_single_qubit(self):
        rng = np.random.default_rng(7)
        psi = random_state(2, rng)
        rho = np.outer(psi, psi.conj())
        out = apply_channel(rho, NoiseParams(amplitude_damping=1.0))
        want = np.zeros((2, 2), dtype=complex)
        want[0, 0] = 1.0
        assert max_abs(out - want) < 1e-12

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(8)
        for dim in (2, 4, 8, 6):  # 6 exercises the padded embedding
            psi = random_state(dim, rng)
            rho = np.outer(psi, psi.conj())
            noise = NoiseParams(rng.uniform(0, 1), rng.uniform(0, 1), 0.0)
            out = apply_channel(rho, noise)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert max_abs(out - out.conj().T) < 1e-12
            evals = np.linalg.eigvalsh(out)
            assert evals.min() > -1e-10

    def test_kraus_completeness(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            noise = NoiseParams(rng.uniform(0, 1), rng.uniform(0, 1), 0.0)
            ks = kraus_oracle(noise)
            total = sum(k.conj().T @ k for k in ks)
            assert max_abs(total - np.eye(2)) < 1e-12

    def test_readout_confusion_mixes_bits(self):
        p = readout_confusion([1.0, 0.0, 0.0, 0.0], 0.1)
        want = [0.81, 0.09, 0.09, 0.01]
        assert np.allclose(p, want, atol=1e-12)

    def test_readout_confusion_at_flip_zero_renormalizes(self):
        # flip 0 takes the same path as every other flip: a renormalized copy
        got = readout_confusion([0.25, 0.25, 0.0, 0.0], 0.0)
        assert np.array_equal(got, [0.5, 0.5, 0.0, 0.0])
        with pytest.raises(InvalidDistribution, match="no weight"):
            readout_confusion([0.0, 0.0], 0.0)

    def test_channel_matches_kronecker_oracle(self):
        rng = np.random.default_rng(20)
        for dim in range(1, 9):  # 1, 3, 5, 6 and 7 are padded into the register
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            rho = a @ a.conj().T / np.trace(a @ a.conj().T)
            noise = NoiseParams(rng.uniform(0, 1), rng.uniform(0, 1), 0.0)
            assert max_abs(apply_channel(rho, noise) - channel_oracle(rho, noise)) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.one_of(st.integers(1, 16), st.sampled_from([48, 64])),
        seed=st.integers(0, 2**32 - 1),
        g=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        lam=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        data=st.data(),
    )
    def test_channel_properties(self, dim, seed, g, lam, data):
        rng = np.random.default_rng(seed)
        rank = data.draw(st.integers(1, dim))  # low ranks put eigenvalues at 0
        a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = a @ a.conj().T / np.trace(a @ a.conj().T)
        noise = NoiseParams(g, lam, 0.0)
        before = rho.copy()
        out = apply_channel(rho, noise)
        assert np.array_equal(rho, before)
        rho.setflags(write=False)
        assert np.array_equal(apply_channel(rho, noise), out)
        assert max_abs(out - channel_oracle(rho, noise)) < 1e-14
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert max_abs(out - out.conj().T) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-10

    def test_readout_confusion_matches_kronecker_oracle(self):
        # the register layout: reservoir bit (x) the system padded to 2**m levels
        rng = np.random.default_rng(21)
        for dim in range(1, 9):  # 3, 5, 6 and 7 are padded into the register
            levels = 2 ** (dim - 1).bit_length()
            p = rng.uniform(size=2 * dim)
            p /= p.sum()
            flip = rng.uniform(0, 0.5)
            work = np.zeros((2, levels))
            work[:, :dim] = p.reshape(2, dim)
            want = readout_oracle(work.ravel(), flip).reshape(2, levels)[:, :dim].ravel()
            got = readout_confusion(p, flip)
            assert max_abs(got - want / want.sum()) < 1e-14


class TestRunItp:
    def test_hydrogen_reference_run(self):
        op, params, psi0 = hydrogen_setup()
        rec = run_itp(op, params, psi0)
        assert np.allclose(rec.extended_probs, HYDROGEN_EXTENDED, atol=5e-3)
        assert np.allclose(rec.normalized_probs, HYDROGEN_NORMALIZED, atol=2e-3)
        assert abs(rec.energy - op.ground_energy) < 1e-9
        assert basis_labels(rec.system_dim) == ["00", "01", "10", "11"]

    def test_hydrogen_oracle_equivalence(self):
        # simulator output equals the spectral closed form to working precision
        op, params, psi0 = hydrogen_setup()
        rec = run_itp(op, params, psi0)
        u = build_dilation(op, params)
        ext = u.matrix @ np.concatenate([psi0, np.zeros(2)])
        assert max_abs(rec.extended_probs - np.abs(ext) ** 2) < 1e-12

    def test_ground_state_is_fixed_point(self):
        rng = np.random.default_rng(10)
        op = op_from(random_hermitian(4, rng))
        rec = run_itp(op, ItpParams(tau=3.0, trial_mode="ground_state_exact"), op.ground_state)
        assert abs(rec.postselect_prob - 0.5) < 1e-12
        assert abs(rec.energy - op.ground_energy) < 1e-10
        want = np.abs(op.ground_state) ** 2
        assert np.allclose(rec.normalized_probs, want, atol=1e-12)

    def test_shot_determinism(self):
        op, params, psi0 = hydrogen_setup()
        a = run_itp(op, params, psi0, shots=8192, seed=77)
        b = run_itp(op, params, psi0, shots=8192, seed=77)
        assert np.array_equal(a.shot_counts, b.shot_counts)
        assert a.shot_counts.sum() == 8192

    def test_record_consistency_invariants(self):
        rng = np.random.default_rng(11)
        op = op_from(random_hermitian(5, rng))
        rec = run_itp(
            op,
            ItpParams(tau=1.2, trial_mode="ground_state_exact"),
            random_state(5, rng),
            repetitions=3,
            shots=1000,
            seed=5,
        )
        assert abs(rec.extended_probs.sum() - 1.0) < 1e-10
        assert abs(rec.normalized_probs.sum() - 1.0) < 1e-10
        kept = rec.extended_probs[: op.dim]
        assert abs(rec.postselect_prob - kept.sum()) < 1e-12
        assert max_abs(rec.normalized_probs * rec.postselect_prob - kept) < 1e-12
        assert rec.shot_counts.sum() == 1000

    def test_postselection_failure_reports_repetition(self):
        op = op_from(np.diag([0.0, 1.0]))
        params = ItpParams(tau=400.0, trial_energy=-0.5)  # E_T below the spectrum
        with pytest.raises(PostselectionImpossible) as err:
            run_itp(op, params, np.array([1.0, 0.0]), repetitions=2)
        assert err.value.repetition == 1

    def test_energy_monotonic_over_repetitions(self):
        rng = np.random.default_rng(12)
        op = op_from(random_hermitian(6, rng))
        psi = random_state(6, rng)
        params = ItpParams(tau=0.5, trial_mode="ground_state_exact")
        energies = [energy_expectation(psi, op)]
        for reps in (1, 2, 3, 4):
            energies.append(run_itp(op, params, psi, repetitions=reps).energy)
        assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))

    def test_fidelity_nondecreasing_over_repetitions(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            op = op_from(random_hermitian(4, rng))
            psi = random_state(4, rng)
            params = ItpParams(tau=rng.uniform(0.1, 2.0), trial_mode="ground_state_exact")
            u = build_dilation(op, params)
            fids = [state_fidelity(psi, op.ground_state)]
            state = psi
            for _ in range(4):
                state, _ = postselect_ancilla0(apply_step(extend_with_ancilla(state), u))
                fids.append(state_fidelity(state, op.ground_state))
            assert all(b >= a - 1e-10 for a, b in zip(fids, fids[1:]))


def dense_loop(op, params, psi, repetitions):
    """The repetition loop on the 2N x 2N dilation, the oracle for run_itp.

    Returns ``(failed_repetition, p0s, extended, energy)``; after a failure
    only the first two are set.
    """
    u = build_dilation(op, params)
    state, p0s = psi, []
    for rep in range(1, repetitions + 1):
        ext = apply_step(extend_with_ancilla(state), u)
        p0s.append(float(np.sum(np.abs(ext[: op.dim]) ** 2)))
        try:
            state, _ = postselect_ancilla0(ext)
        except PostselectionImpossible:
            return rep, p0s, None, None
    return None, p0s, np.abs(ext) ** 2, energy_expectation(state, op)


@st.composite
def itp_cases(draw, dims=st.integers(1, 8), max_repetitions=4):
    dim = draw(dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = op_from(random_hermitian(dim, rng))
    mode = draw(st.sampled_from(TRIAL_MODES + ("fraction",)))
    extra = {}
    if mode == "absolute":
        # inside the spectrum of a dim-64 draw, around all of a dim-8 one
        extra["trial_energy"] = draw(st.floats(-10.0, 10.0))
    elif mode == "fraction":
        # E_T = f E0, the sweep protocol; f above 1 puts E_T below a negative E0
        mode, extra["trial_energy"] = "absolute", draw(st.floats(0.05, 3.0)) * op.ground_energy
    params = ItpParams(tau=draw(st.floats(0.0, 1e3)), trial_mode=mode, **extra)
    repetitions = draw(st.integers(1, max_repetitions))
    return op, params, random_state(dim, rng), repetitions


class TestSpectralCoreMatchesDenseLoop:
    @settings(max_examples=300, deadline=None)
    @given(itp_cases())
    def test_run_itp_equals_dilation_loop(self, case):
        op, params, psi, repetitions = case
        failed, p0s, extended, energy = dense_loop(op, params, psi, repetitions)
        # a probability on the floor itself may round to either side of it
        assume(all(abs(p / POSTSELECT_FLOOR - 1.0) > 1e-6 for p in p0s))
        if failed is not None:
            with pytest.raises(PostselectionImpossible) as err:
                run_itp(op, params, psi, repetitions=repetitions)
            assert err.value.repetition == failed
            return
        rec = run_itp(op, params, psi, repetitions=repetitions)
        assert max_abs(rec.extended_probs - extended) < 1e-10
        assert abs(rec.postselect_prob - p0s[-1]) < 1e-10
        scale = 1.0 + max_abs(op.eigenvalues)
        assert abs(rec.energy - energy) < 1e-10 * scale

    def test_ground_weight_is_ground_eigenspace_projection(self):
        # spectrum [-1, -1 + 1e-12, 2, 3]: the first two levels are one
        # degenerate cluster, as eigh groups them
        rng = np.random.default_rng(14)
        basis = np.linalg.qr(random_hermitian(4, rng))[0]
        op = op_from((basis * [-1.0, -1.0 + 1e-12, 2.0, 3.0]) @ basis.conj().T)
        psi = random_state(4, rng)
        params = ItpParams(tau=0.7, trial_mode="ground_state_exact")
        rows = spectral_run(op, params.tau, params.resolve_trial_energy(op), psi, 2)
        ground_weight = rows.ground_weight[0]
        u = build_dilation(op, params)
        state = psi
        for _ in range(2):
            state, _ = postselect_ancilla0(apply_step(extend_with_ancilla(state), u))
        projected = basis[:, :2].conj().T @ state
        assert abs(ground_weight - np.sum(np.abs(projected) ** 2)) < 1e-12
        assert ground_weight > state_fidelity(state, op.ground_state) + 1e-3

    def test_rejects_bad_repetitions_and_dimension(self):
        op = op_from(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError):
            spectral_run(op, 1.0, 0.0, np.array([1.0, 0.0]), 0)
        with pytest.raises(DimensionMismatch):
            spectral_run(op, 1.0, 0.0, np.ones(3), 1)
        for tau in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau must be finite and >= 0"):
                spectral_run(op, [1.0, tau], 0.0, np.array([1.0, 0.0]), 1)
        with pytest.raises(ValueError, match="trial_energy must be finite"):
            spectral_run(op, 1.0, [0.0, -np.inf], np.array([1.0, 0.0]), 1)


@st.composite
def grid_cases(draw):
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # repeated integer levels give a degenerate spectrum
        levels = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        basis = np.linalg.qr(random_hermitian(dim, rng))[0]
        op = op_from((basis * np.array(levels, dtype=float)) @ basis.conj().T)
    else:
        op = op_from(random_hermitian(dim, rng))
    psi = random_state(dim, rng)
    if draw(st.booleans()):
        # no weight in the ground eigenspace
        stop = _ground_cluster_end(op.eigenvalues, max_abs(op.matrix))
        ground = op.eigenvectors[:, :stop]
        psi = psi - ground @ (ground.conj().T @ psi)
        assume(np.linalg.norm(psi) > 1e-6)
        psi = psi / np.linalg.norm(psi)
    tau = st.one_of(st.just(0.0), st.floats(0.0, 1e3))
    points = draw(st.lists(st.tuples(tau, st.floats(0.05, 3.0)), max_size=12))
    return op, psi, points, draw(st.integers(1, 4))


class TestSpectralGrid:
    @settings(max_examples=200, deadline=None)
    @given(grid_cases())
    def test_rows_equal_single_point_calls(self, case):
        # each row against a G = 1 call, the path run_itp takes and the one
        # TestSpectralCoreMatchesDenseLoop pins to the dilation loop
        op, psi, points, repetitions = case
        taus = np.array([tau for tau, _ in points])
        ets = np.array([fraction * op.ground_energy for _, fraction in points])
        singles = [
            [spectral_run(op, tau, et, psi, reps, extended=True)
             for reps in range(1, repetitions + 1)]
            for tau, et in zip(taus, ets)
        ]
        # a probability on the floor itself may round to either side of it
        p0s = [run.p0[0] for runs in singles for run in runs]
        assume(all(abs(p / POSTSELECT_FLOOR - 1.0) > 1e-6 for p in p0s))
        rows = spectral_run(op, taus, ets, psi, repetitions, extended=True)
        assert rows.failed.shape == rows.p0.shape == (len(points),)
        assert rows.extended.shape == (len(points), 2 * op.dim)
        scale = 1.0 + max_abs(op.eigenvalues)
        for g, runs in enumerate(singles):
            one = runs[-1]
            assert rows.failed[g] == one.failed[0]
            assert abs(rows.p0[g] - one.p0[0]) <= 1e-12 * one.p0[0]
            if one.failed[0]:
                assert one.p0[0] == runs[one.failed[0] - 1].p0[0]
                assert np.isnan(rows.energy[g]) and np.isnan(rows.ground_weight[g])
                assert np.all(np.isnan(rows.extended[g]))
                continue
            assert abs(rows.energy[g] - one.energy[0]) <= 1e-12 * scale
            assert abs(rows.ground_weight[g] - one.ground_weight[0]) <= 1e-12
            assert max_abs(rows.extended[g] - one.extended[0]) <= 1e-12

    def test_extended_only_on_request(self):
        op, params, psi0 = hydrogen_setup()
        rows = spectral_run(op, [5.0, 60.0], op.ground_energy, psi0, 2)
        assert rows.extended is None
        assert np.array_equal(rows.failed, [0, 0])

    def test_failed_row_keeps_its_repetition_and_p0(self):
        # E_T below the spectrum: p0 ~ 5e-21 at tau = 23, exactly 0 at tau = 400
        op = op_from(np.diag([0.0, 1.0]))
        rows = spectral_run(op, [1.0, 23.0, 400.0], [0.5, -1.0, -1.0], np.ones(2), 3)
        assert np.array_equal(rows.failed, [0, 1, 1])
        want = 0.5 * np.sum(filter_profile(op.eigenvalues, 23.0, -1.0) ** 2)
        assert abs(rows.p0[1] - want) <= 1e-12 * want
        assert rows.p0[2] == 0.0
        assert not np.isnan(rows.energy[0]) and np.all(np.isnan(rows.energy[1:]))


@st.composite
def closed_form_cases(draw):
    """A dim 1 to 16 Hamiltonian (random, degenerate integer levels, or
    diagonal), a state (random, without ground-eigenspace weight, or with
    exactly zero eigen-coefficients), up to 6 (tau, E_T) rows with E_T
    possibly below the spectrum and tau up to 1e308, where 2 (E - E_T) tau
    overflows and log h^2 is -inf, and 1 to 60 repetitions."""
    dim = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "degenerate", "diagonal"]))
    if kind == "random":
        op = op_from(random_hermitian(dim, rng))
    else:
        levels = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)), float)
        basis = np.eye(dim) if kind == "diagonal" else np.linalg.qr(random_hermitian(dim, rng))[0]
        op = op_from((basis * levels) @ basis.conj().T)
    psi = random_state(dim, rng)
    if kind == "diagonal":
        psi[rng.random(dim) < 0.5] = 0.0  # the eigenbasis is exact: zero coefficients
        assume(np.any(psi))
    elif draw(st.booleans()):
        stop = _ground_cluster_end(op.eigenvalues, max_abs(op.matrix))
        ground = op.eigenvectors[:, :stop]
        psi = psi - ground @ (ground.conj().T @ psi)
        assume(np.linalg.norm(psi) > 1e-6)
    spread = 1.0 + np.ptp(op.eigenvalues)
    tau = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.just(1e308))
    offset = st.floats(-1.0, 2.0).map(lambda f: op.ground_energy + f * spread)
    points = draw(st.lists(st.tuples(tau, offset), min_size=1, max_size=6))
    return op, psi, points, draw(st.integers(1, 60))


class TestClosedFormMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(closed_form_cases())
    def test_closed_form_equals_renormalizing_loop(self, case):
        op, psi, points, repetitions = case
        taus, ets = np.array(points).T
        want, history = spectral_loop(op, taus, ets, psi, repetitions)
        # a probability on the floor itself may round to either side of it
        reached = [history[: f or repetitions, g] for g, f in enumerate(want.failed)]
        assume(all(abs(p / POSTSELECT_FLOOR - 1.0) > 1e-6 for p in np.concatenate(reached)))
        done = want.failed == 0
        # Cauchy-Schwarz: p0 never decreases, so only repetition 1 can fail
        assert np.all(history[1:, done] >= history[:-1, done] * (1.0 - 1e-13))
        got = spectral_run(op, taus, ets, psi, repetitions, extended=True)
        assert np.array_equal(got.failed, want.failed)
        # below the smallest normal double a float has fewer than 53 bits
        assert np.all(np.abs(got.p0 - want.p0) <= np.maximum(1e-12 * want.p0, np.finfo(float).tiny))
        scale = 1.0 + max_abs(op.eigenvalues)
        assert np.all(np.abs(got.energy - want.energy)[done] <= 1e-12 * scale)
        assert np.all(np.abs(got.ground_weight - want.ground_weight)[done] <= 1e-12)
        assert max_abs(got.extended[done] - want.extended[done]) <= 1e-12
        for field in (got.energy, got.ground_weight, got.extended):
            assert np.all(np.isnan(field[~done]))

    def test_a_million_repetitions_reach_the_ground_projection(self):
        rng = np.random.default_rng(17)
        basis = np.linalg.qr(random_hermitian(4, rng))[0]
        op = op_from((basis * [-1.0, 0.0, 0.5, 2.0]) @ basis.conj().T)
        rows = spectral_run(op, 1.0, op.ground_energy, random_state(4, rng), 10**6, extended=True)
        # the state entering the last repetition is the ground state, and
        # h(E_T)^2 = r(E_T)^2 = 1/2
        assert rows.failed[0] == 0
        assert abs(rows.p0[0] - 0.5) <= 1e-12
        assert abs(rows.energy[0] + 1.0) <= 1e-12
        assert abs(rows.ground_weight[0] - 1.0) <= 1e-12
        ground = np.abs(op.ground_state) ** 2 / 2
        assert max_abs(rows.extended[0] - np.concatenate([ground, ground])) <= 1e-12


@st.composite
def covariance_cases(draw):
    """A real or complex Hermitian H (dim 2 to 8), a state, tau, the offset of
    E_T above E0 (up to max_abs(H)) and 1 to 3 repetitions."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.integers(2, 8))
    h = random_hermitian(dim, rng)
    if draw(st.booleans()):
        h = h.real
    offset = draw(st.floats(0.0, 1.0)) * max_abs(h)
    return h, random_state(dim, rng), draw(st.floats(0.1, 2.0)), offset, draw(st.integers(1, 3))


class TestScaleAndShiftCovariance:
    """The filter depends on (E - E_T) tau alone: (s H, tau / s, s E_T) and
    (H + c I, tau, E_T + c) keep p0 and the ground weight of (H, tau, E_T),
    with the energy scaled by s or shifted by c, at any scale."""

    @staticmethod
    def rows(h, psi, tau, offset, reps):
        op = op_from(h)
        return spectral_run(op, tau, op.ground_energy + offset, psi, reps)

    @settings(max_examples=150, deadline=None)
    @given(covariance_cases(), st.floats(-12.0, 12.0))
    def test_scale(self, case, log_s):
        h, psi, tau, offset, reps = case
        s = 10.0**log_s
        want = self.rows(h, psi, tau, offset, reps)
        got = self.rows(s * h, psi, tau / s, s * offset, reps)
        assert abs(got.p0[0] - want.p0[0]) <= 1e-9 * want.p0[0]
        assert abs(got.ground_weight[0] - want.ground_weight[0]) <= 1e-9
        assert abs(got.energy[0] / s - want.energy[0]) <= 1e-9 * max_abs(h)

    @staticmethod
    def outputs(h, tau, et, psi):
        """The energies of spectral_run rows and of pure and noisy run_itp
        records (3 repetitions each), and the bytes of every other field."""
        op = op_from(h)
        rows = spectral_run(op, tau, [op.ground_energy, et], psi, 3, extended=True)
        energies = list(rows.energy)
        fields = [a.tobytes() for a in (rows.p0, rows.ground_weight, rows.failed, rows.extended)]
        for noise in (None, NoiseParams(0.1, 0.05, 0.02)):
            try:
                r = run_itp(op, ItpParams(tau, et), psi, 3, shots=64, seed=5, noise=noise)
            except PostselectionImpossible as exc:
                fields.append((exc.repetition, exc.probability))
                continue
            energies.append(r.energy)
            fields.append(r.postselect_prob)
            fields += [a.tobytes() for a in (r.extended_probs, r.normalized_probs, r.shot_counts)]
        return np.array(energies), fields

    @settings(max_examples=100, deadline=None)
    @given(covariance_cases(), st.data())
    def test_power_of_two_scale_gives_the_same_bytes(self, case, data):
        # (2**k H, 2**-k tau, 2**k E_T) for every k that keeps each entry,
        # eigenvalue, E_T (halved too) and reported energy normal, tau / 2**k
        # normal, and N max_abs(H) 2**k, which bounds the noisy energy's
        # partial sums, finite: the energies scale by 2**k, the rest is equal
        h, psi, tau, offset, _ = case
        op = op_from(h)
        et = op.ground_energy + offset
        energies, fields = self.outputs(h, tau, et, psi)
        mags = np.abs(np.concatenate([h.view(float).ravel(), op.eigenvalues, [et], energies]))
        mags = mags[mags > 0]  # NaN, the energy of a failed row, is not > 0
        f_tau = math.frexp(tau)[1]
        lo = max(-1020 - math.frexp(mags.min())[1], f_tau - 1023)
        hi = min(1023 - math.frexp(mags.max())[1] - (len(h) - 1).bit_length(), f_tau + 1021)
        k = data.draw(st.integers(lo, hi), label="k")
        scaled = np.ldexp(h.view(float), k).view(h.dtype)
        got_energies, got = self.outputs(scaled, math.ldexp(tau, -k), math.ldexp(et, k), psi)
        assert got == fields
        assert np.ldexp(got_energies, -k).tobytes() == energies.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(covariance_cases(), st.floats(-1e6, 1e6))
    def test_shift(self, case, c):
        h, psi, tau, offset, reps = case
        want = self.rows(h, psi, tau, offset, reps)
        got = self.rows(h + c * np.eye(len(h)), psi, tau, offset, reps)
        assert abs(got.p0[0] - want.p0[0]) <= 1e-6 * want.p0[0]
        assert abs(got.ground_weight[0] - want.ground_weight[0]) <= 1e-6
        assert abs(got.energy[0] - c - want.energy[0]) <= 1e-9 * (max_abs(h) + abs(c))

    @settings(max_examples=150, deadline=None)
    @given(covariance_cases(), st.floats(-12.0, 12.0), st.floats(-3.0, 3.0))
    def test_energy_expectation_scale(self, case, log_s, log_t):
        # rounding in <psi|s H|psi> is of order 1e-16 s ||psi||^2: at s = 1e10
        # it passed an absolute 1e-8 bound on the imaginary part
        h, psi, *_ = case
        s, t = 10.0**log_s, 10.0**log_t
        want = energy_expectation(psi, op_from(h))
        got = energy_expectation(t * psi, op_from(s * h)) / (s * t * t)
        assert abs(got - want) <= 1e-9 * max_abs(h)

    @given(st.floats(-12.0, 12.0))
    def test_non_real_expectation_rejected_at_every_scale(self, log_s):
        # an operator built around from_matrix's check: <psi|A|psi> = 0.5j
        a = 10.0**log_s * np.array([[0.0, 1.0], [0.0, 0.0]])
        op = HermitianOperator(a, np.zeros(2), np.eye(2))
        with pytest.raises(NonRealExpectation):
            energy_expectation(np.array([1.0, 1.0j]) / np.sqrt(2.0), op)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.floats(-12.0, 12.0),
           st.floats(-1e6, 1e6))
    def test_non_hermitian_rejected_at_every_scale(self, seed, dim, log_s, c):
        rng = np.random.default_rng(seed)
        a = random_hermitian(dim, rng) + 0.1 * rng.standard_normal((dim, dim))
        for m in (10.0**log_s * a, a + c * np.eye(dim)):
            with pytest.raises(NonHermitianInput):
                op_from(m)


class TestEnergyMonotonicity:
    def test_single_step_never_raises_energy(self):
        rng = np.random.default_rng(14)
        strict_checked = 0
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            op = op_from(random_hermitian(dim, rng))
            psi = random_state(dim, rng)
            tau = float(rng.uniform(0.1, 10.0))
            params = ItpParams(tau=tau, trial_mode="ground_state_exact")
            before = energy_expectation(psi, op)
            rec = run_itp(op, params, psi)
            assert rec.energy <= before + 1e-10
            weights = np.abs(op.eigenvectors.conj().T @ psi) ** 2
            distinct = weights[weights >= 1e-3]
            if len(distinct) >= 2:
                strict_checked += 1
                assert rec.energy <= before - 1e-6
        assert strict_checked > 150


class TestNoisePath:
    def test_noiseless_density_matches_pure(self):
        rng = np.random.default_rng(15)
        params = ItpParams(tau=1.1, trial_mode="ground_state_exact")
        for dim in (4, 3, 5, 6):
            op = op_from(random_hermitian(dim, rng))
            psi = random_state(dim, rng)
            pure = run_itp(op, params, psi, repetitions=2)
            dm = run_itp(op, params, psi, repetitions=2, noise=NoiseParams(0.0, 0.0, 0.0))
            assert max_abs(pure.extended_probs - dm.extended_probs) < 1e-10
            assert abs(pure.energy - dm.energy) < 1e-10

    def test_relaxation_inflates_ground_reservoir_bin(self):
        op, params, psi0 = hydrogen_setup()
        clean = run_itp(op, params, psi0)
        noisy = run_itp(op, params, psi0, noise=NoiseParams(0.05, 0.1, 0.02))
        assert noisy.extended_probs[0] > clean.extended_probs[0]

    def test_readout_only_affects_reported_distribution(self):
        op, params, psi0 = hydrogen_setup()
        flip = run_itp(op, params, psi0, noise=NoiseParams(0.0, 0.0, 0.2))
        clean = run_itp(op, params, psi0, noise=NoiseParams(0.0, 0.0, 0.0))
        assert abs(flip.energy - clean.energy) < 1e-10
        assert max_abs(flip.extended_probs - clean.extended_probs) > 1e-3


def dense_density_oracle(op, params, psi0, repetitions, noise):
    """The noisy loop on the whole 2N-level register, the oracle for run_itp.

    Each repetition forms ``B rho B^dag`` with B the reservoir-0 columns of the
    2N x 2N dilation, applies the channel to every qubit of the ancilla-major
    index a*N + beta and keeps the reservoir-0 block. That index is the noisy
    register (reservoir leading, system on 2**m levels) only for N a power of
    two. Returns ``(failed_repetition, p0s, extended, energy)`` with the final
    repetition's extended populations before readout flips; after a failure
    only the first two are set.
    """
    n = op.dim
    b = build_dilation(op, params).matrix[:, :n]
    state = normalized_state(psi0)
    rho, p0s = np.outer(state, state.conj()), []
    for rep in range(1, repetitions + 1):
        ext = apply_channel(b @ rho @ b.conj().T, noise)
        block = ext[:n, :n]
        p0s.append(float(np.real(np.trace(block))))
        if p0s[-1] < POSTSELECT_FLOOR:
            return rep, p0s, None, None
        rho = block / p0s[-1]
    extended = np.real(np.diag(ext)).clip(min=0.0)
    return None, p0s, extended, float(np.real(np.trace(rho @ op.matrix)))


@st.composite
def noisy_cases(draw):
    case = draw(itp_cases(dims=st.sampled_from([1, 2, 4, 8, 16, 64]), max_repetitions=10))
    strength = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    flip = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    noise = NoiseParams(draw(strength), draw(strength), flip)
    return case + (noise, draw(st.integers(0, 2000)), draw(st.integers(0, 2**64 - 1)))


class TestReducedDensityLoop:
    @settings(max_examples=100, deadline=None)
    @given(noisy_cases())
    def test_matches_dense_register_loop(self, case):
        op, params, psi, repetitions, noise, shots, seed = case
        failed, p0s, extended, energy = dense_density_oracle(op, params, psi, repetitions, noise)
        # a probability on the floor itself may round to either side of it
        assume(all(abs(p / POSTSELECT_FLOOR - 1.0) > 1e-6 for p in p0s))
        if failed is not None:
            with pytest.raises(PostselectionImpossible) as err:
                run_itp(op, params, psi, repetitions, shots, seed, noise)
            assert err.value.repetition == failed
            return
        rec = run_itp(op, params, psi, repetitions, shots, seed, noise)
        if noise.readout_flip > 0.0:
            extended = readout_confusion(extended, noise.readout_flip)
        extended = extended / extended.sum()
        # 1e-12 relative, over an absolute floor: a small population is a sum
        # of O(1) terms that cancel, so either loop rounds it to about 1e-15
        assert np.all(np.abs(rec.extended_probs - extended) <= 1e-12 * extended + 1e-14)
        assert abs(rec.energy - energy) < 1e-12
        assert np.array_equal(rec.shot_counts, sample_shots(extended, shots, seed))


def padded_register_loop(op, params, psi0, repetitions, noise):
    """The noisy loop built on the register itself, by Kronecker/Kraus products.

    The register is the reservoir qubit (leading) (x) the system padded to
    P = 2**m levels, index a*P + beta. Returns the final repetition's padded
    2P x 2P density matrix after the channel, and the post-selected system
    state.
    """
    n, levels = op.dim, 2 ** (op.dim - 1).bit_length()
    u = build_dilation(op, params)
    b = np.zeros((2 * levels, levels), dtype=complex)
    b[:n, :n], b[levels:levels + n, :n] = u.q_block, u.r_block
    state = normalized_state(psi0)
    rho = np.zeros((levels, levels), dtype=complex)
    rho[:n, :n] = np.outer(state, state.conj())
    for _ in range(repetitions):
        ext = channel_oracle(b @ rho @ b.conj().T, noise)
        rho = ext[:levels, :levels] / np.trace(ext[:levels, :levels]).real
    return ext, rho[:n, :n]


class TestNoisyRegisterLayout:
    """N not a power of two: the reservoir is a qubit of its own."""

    @pytest.mark.parametrize("dim, repetitions", [(3, 4), (5, 3), (48, 2)])
    def test_run_itp_matches_padded_register(self, dim, repetitions):
        rng = np.random.default_rng(dim)
        op = op_from(random_hermitian(dim, rng))
        psi = random_state(dim, rng)
        params = ItpParams(tau=0.9, trial_energy=0.8 * op.ground_energy)
        g, lam = rng.uniform(0.05, 0.4, size=2)
        levels = 2 ** (dim - 1).bit_length()
        ext, rho = padded_register_loop(op, params, psi, repetitions, NoiseParams(g, lam))
        blocks = ext.reshape(2, levels, 2, levels)
        # the padding levels stay empty
        assert not np.any(blocks[:, dim:]) and not np.any(blocks[:, :, :, dim:])
        for flip in (0.0, 0.07):
            rec = run_itp(op, params, psi, repetitions, noise=NoiseParams(g, lam, flip))
            populations = np.real(np.diag(ext))
            if flip > 0.0:
                populations = readout_oracle(populations, flip)
            want = populations.reshape(2, levels)[:, :dim].ravel()
            assert max_abs(rec.extended_probs - want / want.sum()) < 1e-12
            assert abs(rec.energy - np.real(np.trace(rho @ op.matrix))) < 1e-12

    @pytest.mark.parametrize("dim", [3, 5, 48])
    def test_reservoir_damping_keeps_the_system_label(self, dim):
        # the weight that leaves |1, beta> for reservoir 0 is g / (1 - g) times
        # what stays in reservoir 1, label by label: it arrives at |0, beta'>
        # exactly where the system channel leaves |1, beta'>
        levels = 2 ** (dim - 1).bit_length()
        g = 0.3
        for beta in sorted({*range(0, dim, 1 + dim // 8), dim - 1}):
            rho = np.zeros((2 * levels, 2 * levels), dtype=complex)
            rho[levels + beta, levels + beta] = 1.0
            out = np.real(np.diag(channel_oracle(rho, NoiseParams(g, 0.2)))).reshape(2, levels)
            assert max_abs(out[0] * (1 - g) - out[1] * g) < 1e-15
            assert not np.any(out[:, dim:])
            assert out[0, beta] > 0.0 and np.all(out[0, beta + 1:] == 0.0)


def loop_without_detection(op, params, psi0, repetitions, noise, entering=None):
    """The noisy loop as it stood before its work buffers and cycle jump: a
    fresh zero-filled channel buffer per call, every repetition computed,
    ``kept / p0`` by complex division, the final reservoir-1 populations
    from the full channel. Appends the bytes of the state entering each
    repetition to ``entering`` when given. Returns ``(extended, energy)``."""
    u = build_dilation(op, params)
    q, r, g, dim = u.q_block, u.r_block, noise.amplitude_damping, op.dim
    k = (dim - 1).bit_length()
    c = np.sqrt(1 - g) * (1 - 2 * noise.dephasing)
    m, weight = np.array([[1.0, c], [c, 1.0 - g]]), np.ones((1, 1))
    for _ in range(k):
        weight = (weight[:, None, :, None] * m[:, None]).reshape(2 * len(weight), -1)
    weight = weight[:dim, :dim]

    def channel(rho):
        out = np.zeros((2**k, 2**k), dtype=complex)
        out[:dim, :dim] = rho
        for bit in range(k):
            t = out.reshape(2**bit, 2, 2 ** (k - 1), 2, 2 ** (k - bit - 1))
            t[:, 0, :, 0] += g * t[:, 1, :, 1]
        return out[:dim, :dim] * weight

    state = normalized_state(psi0)
    rho = np.outer(state, state.conj())
    for rep in range(1, repetitions + 1):
        if entering is not None:
            entering.append(rho.tobytes())
        lost = r @ rho @ r
        kept = channel(q @ rho @ q + g * lost)
        p0 = float(np.real(np.trace(kept)))
        if p0 < POSTSELECT_FLOOR:
            raise PostselectionImpossible("below the floor", probability=p0, repetition=rep)
        rho = kept / p0
    dropped = (1 - g) * np.diag(channel(lost))
    extended = np.real(np.concatenate([np.diag(kept), dropped])).clip(min=0.0)
    h, e = _power_of_two_scaled(op.matrix)
    return extended, float(np.ldexp(np.real(np.sum(rho * h.T)), e))


def outcome(loop, *args):
    """A loop's result as bytes, or its post-selection failure."""
    try:
        extended, energy = loop(*args)
    except PostselectionImpossible as exc:
        return "failed", exc.repetition, exc.probability
    return extended.tobytes(), np.float64(energy).tobytes()


@st.composite
def density_loop_cases(draw):
    dim = draw(st.one_of(st.integers(1, 8), st.sampled_from([48, 64])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_hermitian(dim, rng)
    if draw(st.booleans()):
        h = h.real
    op = op_from(h)
    psi = random_state(dim, rng)
    if draw(st.booleans()):  # a basis state leaves exact zeros, signed ones included
        psi = np.zeros(dim)
        psi[draw(st.integers(0, dim - 1))] = 1.0
    tau = draw(st.one_of(st.sampled_from([0.0, 60.0]), st.floats(0.0, 100.0)))
    params = ItpParams(tau=tau, trial_energy=draw(st.floats(-1.5, 1.5)) * abs(op.ground_energy))
    strength = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    noise = NoiseParams(draw(strength), draw(strength))
    return op, params, psi, draw(st.integers(1, 40)), noise


class TestNoisyLoopBytes:
    """The loop's work buffers, one-pass channel, final populations and
    reciprocal renormalization reproduce the plain loop bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(density_loop_cases())
    def test_matches_the_loop_without_buffers_bytes(self, case):
        want = outcome(loop_without_detection, *case)
        assert outcome(simulate._run_density, *case) == want

    @pytest.mark.parametrize("dim", [1, 3, 4, 48])
    def test_map_output_never_aliases_its_buffer(self, dim):
        rng = np.random.default_rng(dim)
        a, b = random_hermitian(dim, rng), random_hermitian(dim, rng)
        noise = NoiseParams(0.3, 0.1)
        channel = simulate._channel(noise, dim)
        first = channel(a)
        kept = first.copy()
        second = channel(b)
        assert np.array_equal(first, kept) and not np.shares_memory(first, second)
        # out= may be the input itself, with the same bytes as a new array
        inplace = b.astype(complex)
        assert channel(inplace, out=inplace) is inplace
        assert inplace.tobytes() == second.tobytes()
        assert channel(a).tobytes() == apply_channel(a, noise).tobytes() == kept.tobytes()

    @pytest.mark.parametrize("dim", [1, 3, 4, 64])
    def test_dilation_matrix_is_formed_read_only_and_unread_by_the_loop(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        op = HermitianOperator.from_matrix(random_hermitian(dim, rng))
        params = ItpParams(1.0, trial_mode="ground_state_exact")
        u = build_dilation(op, params)
        q, r = u.q_block, u.r_block
        want = np.empty((2 * dim, 2 * dim), dtype=complex)  # the eager assembly
        want[:dim, :dim], want[:dim, dim:], want[dim:, :dim], want[dim:, dim:] = q, r, r, -q
        got = u.matrix
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable and u.matrix is not got
        with pytest.raises(ValueError):
            got[0, 0] = 0.0

        def unread(self):
            raise AssertionError("the noisy loop read the 2N x 2N dilation")

        monkeypatch.setattr(qitp.DilationUnitary, "matrix", property(unread))
        psi, noise = random_state(dim, rng), NoiseParams(0.1, 0.05)
        want = outcome(loop_without_detection, op, params, psi, 3, noise)
        assert outcome(simulate._run_density, op, params, psi, 3, noise) == want

    @pytest.mark.parametrize("dim", [1, 3, 4, 48])
    def test_apply_channel_never_writes_its_input(self, dim):
        rng = np.random.default_rng(dim)
        rho = random_hermitian(dim, rng) + 0j
        before = rho.copy()
        out = apply_channel(rho, NoiseParams(0.4, 0.2))
        assert np.array_equal(rho, before) and not np.shares_memory(out, rho)
        rho.setflags(write=False)
        assert apply_channel(rho, NoiseParams(0.4, 0.2)).tobytes() == out.tobytes()


def cycle_settings():
    """(name, op, E_T, tau, init, noise) where the noisy state repeats: hydrogen
    from the uniform state and the two-neutron system from basis:1, with
    periods 1 to 5 under OpenBLAS's SkylakeX kernel (fewer under Prescott)."""
    hydrogen = hydrogen_sto2g()[0]
    neutrons = two_neutron_sd(SpinCouplings(a1=1.0, a2=np.zeros((3, 3))))  # the CLI preset
    uniform, basis1 = np.ones(2) / np.sqrt(2.0), np.eye(4)[1]
    noises = [(0.01, 0.01), (0.1, 0.05), (0.3, 0.2)]
    out = []
    for tau in (0.1, 1.0, 5.0, 60.0):
        for g, lam in noises:
            out.append((f"hydrogen-tau{tau:g}-g{g:g}", hydrogen, hydrogen.ground_energy, tau,
                        uniform, NoiseParams(g, lam)))
    for tau in (0.1, 1.0, 5.0):
        for g, lam in noises:
            out.append((f"two-neutron-tau{tau:g}-g{g:g}", neutrons, neutrons.ground_energy, tau,
                        basis1, NoiseParams(g, lam)))
    e0 = neutrons.ground_energy
    out += [  # periods 3, 4 and 5 under that kernel
        ("two-neutron-period3", neutrons, 0.5 * e0, 5.0, basis1, NoiseParams(0.01, 0.01)),
        ("two-neutron-period4", neutrons, 0.5 * e0, 1.0, basis1, NoiseParams(0.1, 0.05)),
        ("two-neutron-period5", neutrons, e0, 5.0, basis1, NoiseParams(0.0, 0.1)),
    ]
    return out


CYCLES = cycle_settings()


@functools.cache
def repeat_point(index):
    """(mu, period) of CYCLES[index]: the state entering repetition mu + 1 is
    the first to recur, period repetitions later, in the loop without detection."""
    _, op, et, tau, psi, noise = CYCLES[index]
    for horizon in (500, 5000):
        entering, first = [], {}
        loop_without_detection(op, ItpParams(tau, trial_energy=et), psi, horizon, noise, entering)
        for i, state in enumerate(entering):
            if state in first:
                return first[state], i - first[state]
            first[state] = i
    raise AssertionError("no repeat within 5000 repetitions")


class TestCycleJump:
    """The noisy loop skips whole periods once its state repeats (Brent's
    cycle detection), with the records of the loop that computes them all."""

    def test_every_setting_repeats_some_with_longer_periods(self):
        # which periods occur depends on the BLAS kernel's rounding
        assert max(repeat_point(i)[1] for i in range(len(CYCLES))) >= 3

    @pytest.mark.parametrize("index", range(len(CYCLES)), ids=[c[0] for c in CYCLES])
    def test_channel_calls_bounded_by_the_repeat_point(self, index, monkeypatch):
        _, op, et, tau, psi, noise = CYCLES[index]
        params = ItpParams(tau, trial_energy=et)
        mu, period = repeat_point(index)
        real, calls = simulate._channel, []

        def counting(noise, dim):
            channel = real(noise, dim)

            def counted(*args, **kwargs):
                calls.append(None)
                return channel(*args, **kwargs)

            return counted

        monkeypatch.setattr(simulate, "_channel", counting)
        for repetitions in (10**6, 10**9, 10**9 + 1):
            calls.clear()
            simulate._run_density(op, params, psi, repetitions, noise)
            assert len(calls) <= 2 * (mu + 2) + 3 * period, (repetitions, len(calls), mu, period)

    @pytest.mark.parametrize("index", range(len(CYCLES)), ids=[c[0] for c in CYCLES])
    def test_records_equal_the_loop_without_detection(self, index):
        _, op, et, tau, psi, noise = CYCLES[index]
        params = ItpParams(tau, trial_energy=et)
        mu, period = repeat_point(index)
        # around the repeat point, and past where the detection must have fired
        for base in (mu, 4 * (mu + 2) + 2 * period):
            for offset in sorted({0, 1, period - 1, period}):
                args = (op, params, psi, base + offset, noise)
                want = outcome(loop_without_detection, *args)
                assert outcome(simulate._run_density, *args) == want, (base, offset)


def _hydrogen_op():
    op, _, _ = hydrogen_sto2g()
    return op


# Holds the Hamiltonian files that ERROR_CASES rows load.
_FILES = tempfile.TemporaryDirectory()


def _ham_file(text: str) -> str:
    path = os.path.join(_FILES.name, "h.json")
    with open(path, "w") as f:
        f.write(text)
    return path


_BIG_ENTRY = '{"dim": 1, "units": "dimensionless", "matrix": [[[1%s, 0]]]}'
_PURE = dict(params=ItpParams(tau=1.0), psi0=np.array([1.0, 1.0]))
_NOISY = dict(_PURE, noise=NoiseParams())

# (case, documented error class, call on the hydrogen operator)
ERROR_CASES = [
    ("run_itp pure, state of wrong dim", DimensionMismatch,
     lambda op: run_itp(op, ItpParams(tau=1.0), np.ones(3))),
    ("run_itp noisy, state of wrong dim", DimensionMismatch,
     lambda op: run_itp(op, ItpParams(tau=1.0), np.ones(3), noise=NoiseParams())),
    ("state_fidelity, dims differ", DimensionMismatch,
     lambda op: state_fidelity(np.ones(2), np.ones(3))),
    ("run_itp pure, repetitions=True", ValueError, lambda op: run_itp(op, repetitions=True, **_PURE)),
    ("run_itp pure, repetitions=1.5", ValueError, lambda op: run_itp(op, repetitions=1.5, **_PURE)),
    ("run_itp noisy, repetitions=True", ValueError, lambda op: run_itp(op, repetitions=True, **_NOISY)),
    ("run_itp noisy, repetitions=1.5", ValueError, lambda op: run_itp(op, repetitions=1.5, **_NOISY)),
    ("run_itp, repetitions=0", ValueError, lambda op: run_itp(op, repetitions=0, **_PURE)),
    ("spectral_run, repetitions=True", ValueError,
     lambda op: spectral_run(op, 1.0, 0.0, np.ones(2), True)),
    ("spectral_run, repetitions=1.5", ValueError,
     lambda op: spectral_run(op, 1.0, 0.0, np.ones(2), 1.5)),
    ("spectral_run, repetitions=10**400", ValueError,
     lambda op: spectral_run(op, 1.0, 0.0, np.ones(2), 10**400)),
    ("run_itp pure, repetitions=10**400", ValueError,
     lambda op: run_itp(op, repetitions=10**400, **_PURE)),
    ("readout_confusion, flip 0.7", ValueError,
     lambda op: readout_confusion([0.5, 0.5], 0.7)),
    ("readout_confusion, flip -0.1", ValueError,
     lambda op: readout_confusion([0.5, 0.5], -0.1)),
    ("readout_confusion, flip nan", ValueError,
     lambda op: readout_confusion([0.5, 0.5], np.nan)),
    ("readout_confusion, text flip", ValueError,
     lambda op: readout_confusion([0.5, 0.5], "0.1")),
    ("readout_confusion, None flip", ValueError,
     lambda op: readout_confusion([0.5, 0.5], None)),
    ("filter_profile, NaN energy", ValueError, lambda op: filter_profile([np.nan, 0.0], 1.0, 0.0)),
    ("filter_profile, NaN trial energy", ValueError,
     lambda op: filter_profile([1.0, 0.0], 1.0, np.nan)),
    ("filter_profile, inf tau at E = E_T", ValueError,
     lambda op: filter_profile([1.0, 0.0], np.inf, 0.0)),
    ("filter_profile, inf energy and trial energy", ValueError,
     lambda op: filter_profile([np.inf, 0.0], 1.0, np.inf)),
    ("apply_channel, NaN rho", InvalidDistribution,
     lambda op: apply_channel(np.diag([np.nan, 1.0]), NoiseParams(0.1, 0.1))),
    ("apply_channel, inf rho", InvalidDistribution,
     lambda op: apply_channel(np.full((2, 2), np.inf), NoiseParams())),
    ("apply_channel, not square", DimensionError,
     lambda op: apply_channel(np.ones((2, 3)), NoiseParams())),
    ("readout_confusion, NaN probability", InvalidDistribution,
     lambda op: readout_confusion([np.nan, 1.0], 0.1)),
    ("readout_confusion, NaN probability, no flip", InvalidDistribution,
     lambda op: readout_confusion([np.nan, 1.0], 0.0)),
    ("readout_confusion, inf probability", InvalidDistribution,
     lambda op: readout_confusion([np.inf, 1.0], 0.1)),
    ("readout_confusion, negative probability", InvalidDistribution,
     lambda op: readout_confusion([-0.1, 1.1], 0.1)),
    ("readout_confusion, wrong length, no flip", DimensionMismatch,
     lambda op: readout_confusion(np.ones(3), 0.0)),
    ("readout_confusion, all zero", InvalidDistribution,
     lambda op: readout_confusion([0.0, 0.0], 0.1)),
    ("readout_confusion, empty", InvalidDistribution,
     lambda op: readout_confusion([], 0.1)),
    ("NoiseParams, NaN damping", ValueError, lambda op: NoiseParams(np.nan)),
    ("NoiseParams, dephasing 1.5", ValueError, lambda op: NoiseParams(dephasing=1.5)),
    ("NoiseParams, readout flip 0.6", ValueError, lambda op: NoiseParams(readout_flip=0.6)),
    ("NoiseParams, text damping", ValueError, lambda op: NoiseParams("0.1")),
    ("NoiseParams, bool damping", ValueError, lambda op: NoiseParams(True)),
    ("sample_shots, negative shots", InvalidDistribution, lambda op: sample_shots([1.0], -1, 0)),
    ("sample_shots, NaN probability", InvalidDistribution,
     lambda op: sample_shots([np.nan, 1.0], 1, 0)),
    ("sample_shots, complex probabilities", InvalidDistribution,
     lambda op: sample_shots(np.array([0.5 + 0.3j, 0.5]), 10, 1)),
    ("sample_shots, complex probability list", InvalidDistribution,
     lambda op: sample_shots([0.5 + 0.3j, 0.5], 10, 1)),
    ("sample_shots, bool probabilities", InvalidDistribution,
     lambda op: sample_shots(np.array([True, False]), 10, 1)),
    ("readout_confusion, complex probabilities", InvalidDistribution,
     lambda op: readout_confusion(np.array([0.5 + 0.3j, 0.5]), 0.1)),
    ("readout_confusion, bool probabilities", InvalidDistribution,
     lambda op: readout_confusion([True, False], 0.1)),
    ("spectral_run, complex tau", ValueError,
     lambda op: spectral_run(op, np.array([1.0 + 1j]), 0.0, np.ones(2), 1)),
    ("spectral_run, bool tau", ValueError,
     lambda op: spectral_run(op, np.array([True]), 0.0, np.ones(2), 1)),
    ("spectral_run, complex E_T", ValueError,
     lambda op: spectral_run(op, 1.0, [0.1j], np.ones(2), 1)),
    ("spectral_run, bool E_T", ValueError, lambda op: spectral_run(op, 1.0, True, np.ones(2), 1)),
    ("filter_profile, complex energies", ValueError,
     lambda op: filter_profile(np.array([1.0 + 1j]), 1.0, 0.0)),
    ("filter_profile, bool energies", ValueError, lambda op: filter_profile(np.array([True]), 1.0, 0.0)),
    ("filter_profile, complex tau", ValueError, lambda op: filter_profile([1.0], 1j, 0.0)),
    ("filter_profile, bool tau", ValueError, lambda op: filter_profile([1.0], True, 0.0)),
    ("filter_profile, complex E_T", ValueError, lambda op: filter_profile([1.0], 1.0, 1j)),
    ("filter_profile, bool E_T", ValueError, lambda op: filter_profile([1.0], 1.0, False)),
    ("log_filter_squared, complex energy list", ValueError,
     lambda op: log_filter_squared([1j], 1.0, 0.0)),
    ("extend_with_ancilla, NaN amplitude", InvalidDistribution,
     lambda op: extend_with_ancilla([np.nan, 0.0])),
    ("extend_with_ancilla, inf amplitude", InvalidDistribution,
     lambda op: extend_with_ancilla([np.inf, 0.0])),
    ("apply_step, NaN amplitude", InvalidDistribution,
     lambda op: apply_step([np.nan, 0.0, 0.0, 0.0], build_dilation(op, ItpParams(1.0)))),
    ("apply_step, DilationUnitary of another dim", DimensionMismatch,
     lambda op: apply_step(np.ones(3), qitp.DilationUnitary(2, np.eye(2), np.zeros((2, 2))))),
    ("postselect_ancilla0, NaN amplitude", InvalidDistribution,
     lambda op: postselect_ancilla0([np.nan, 0.0, 0.0, 0.0])),
    ("postselect_ancilla0, odd size", DimensionMismatch, lambda op: postselect_ancilla0([1, 0, 0])),
    ("energy_expectation, NaN amplitude", InvalidDistribution,
     lambda op: energy_expectation([np.nan, 0.0], op)),
    ("energy_expectation, inf amplitude", InvalidDistribution,
     lambda op: energy_expectation([np.inf, 1.0], op)),
    ("basis_labels, -1", ValueError, lambda op: basis_labels(-1)),
    ("basis_labels, True", ValueError, lambda op: basis_labels(True)),
    ("basis_labels, 2.0", ValueError, lambda op: basis_labels(2.0)),
    ("basis_labels, record system_dim 0", ValueError,
     lambda op: basis_labels(qitp.ExperimentRecord(0, *[None] * 5).system_dim)),
    ("ItpParams, negative tau", ValueError, lambda op: ItpParams(tau=-1.0)),
    ("ItpParams, text tau", ValueError, lambda op: ItpParams("1")),
    ("ItpParams, None tau", ValueError, lambda op: ItpParams(None)),
    ("ItpParams, bool tau", ValueError, lambda op: ItpParams(True)),
    ("ItpParams, text trial energy", ValueError, lambda op: ItpParams(1.0, trial_energy="x")),
    ("itp_filter, NaN trial energy", ValueError,
     lambda op: qitp.itp_filter(op, ItpParams(1.0, trial_energy=np.nan))),
    ("build_dilation, inf tau", ValueError, lambda op: build_dilation(op, ItpParams(np.inf))),
    ("build_dilation, eigenvectors not unitary", UnitarityCheckFailed,
     lambda op: build_dilation(HermitianOperator(op.matrix, op.eigenvalues, 2 * op.eigenvectors), ItpParams(1.0))),
    ("HermitianOperator, not Hermitian", NonHermitianInput,
     lambda op: qitp.HermitianOperator.from_matrix([[0.0, 1.0], [0.0, 0.0]])),
    ("eigh, NaN entry", NonHermitianInput, lambda op: qitp.eigh(np.diag([np.nan, 1.0]))),
    ("eigh, not square", DimensionError, lambda op: qitp.eigh(np.ones((2, 3)))),
    ("matrix_function, inf values", NonFiniteFunctionValue,
     lambda op: qitp.matrix_function(op, lambda e: np.full_like(e, np.inf))),
    ("gaussian_overlap, NaN exponent", ValueError, lambda op: qitp.gaussian_overlap(np.nan, 1.0)),
    ("gaussian_overlap, inf exponent", ValueError, lambda op: qitp.gaussian_overlap(1.0, np.inf)),
    ("gaussian_overlap, text exponent", ValueError, lambda op: qitp.gaussian_overlap("1", 2.0)),
    ("gaussian_kinetic, NaN exponent", ValueError, lambda op: qitp.gaussian_kinetic(np.nan, 1.0)),
    ("gaussian_kinetic, inf exponent", ValueError, lambda op: qitp.gaussian_kinetic(np.inf, 1.0)),
    ("gaussian_kinetic, exponents summing to 0", ValueError,
     lambda op: qitp.gaussian_kinetic(-1.0, 1.0)),
    ("gaussian_nuclear, NaN exponent", ValueError, lambda op: qitp.gaussian_nuclear(np.nan, 1.0)),
    ("hydrogen_sto2g, NaN exponent", ValueError, lambda op: hydrogen_sto2g((np.nan, 1.0))),
    ("hydrogen_sto2g, NaN slater_zeta", ValueError, lambda op: hydrogen_sto2g((1.0, 1.0), np.nan)),
    ("hydrogen_sto2g, three exponents", ValueError, lambda op: hydrogen_sto2g((1.0, 1.0, 1.0))),
    ("hydrogen_sto2g, None exponents", ValueError, lambda op: hydrogen_sto2g(None)),
    ("hydrogen_sto2g, one bare exponent", ValueError, lambda op: hydrogen_sto2g(0.5)),
    ("hydrogen_sto2g, text exponent", ValueError, lambda op: hydrogen_sto2g(("1", 2.0))),
    ("hydrogen_sto2g, zero slater_zeta", ValueError, lambda op: hydrogen_sto2g(slater_zeta=0.0)),
    ("hydrogen_sto2g, negative slater_zeta", ValueError, lambda op: hydrogen_sto2g(slater_zeta=-1.0)),
    ("hydrogen_sto2g, unknown orthogonalization", ValueError,
     lambda op: hydrogen_sto2g(orthogonalization="qr")),
    ("orthonormalize, singular overlap", SingularOverlap,
     lambda op: qitp.orthonormalize(np.eye(2), np.ones((2, 2)))),
    ("SpinCouplings, NaN a1", ValueError, lambda op: qitp.SpinCouplings(np.nan, np.zeros((3, 3)))),
    ("SpinCouplings, text a1", ValueError, lambda op: qitp.SpinCouplings("1", np.zeros((3, 3)))),
    ("SpinCouplings, complex a2", ValueError, lambda op: qitp.SpinCouplings(1.0, np.eye(3) * (1 + 1j))),
    ("SpinCouplings, complex a2 list", ValueError,
     lambda op: qitp.SpinCouplings(1.0, [[1j, 0, 0], [0, 0, 0], [0, 0, 0]])),
    ("SpinCouplings, bool a2", ValueError, lambda op: qitp.SpinCouplings(1.0, np.eye(3, dtype=bool))),
    ("two_neutron_sd, asymmetric a2", ValueError,
     lambda op: qitp.two_neutron_sd(qitp.SpinCouplings(1.0, np.triu(np.ones((3, 3)))))),
    ("load_hamiltonian, empty file", ParseError, lambda op: qitp.load_hamiltonian(os.devnull)),
    ("load_hamiltonian, integer entry beyond the float range", ParseError,
     lambda op: qitp.load_hamiltonian(_ham_file(_BIG_ENTRY % ("0" * 400)))),
    ("load_hamiltonian, integer entry over the digit limit", ParseError,
     lambda op: qitp.load_hamiltonian(_ham_file(_BIG_ENTRY % ("0" * 4999)))),
    ("save_hamiltonian, path is a directory", OSError, lambda op: qitp.save_hamiltonian(op, os.curdir)),
    ("Circuit, float qubit count", ValueError, lambda op: qitp.Circuit(1.5)),
    ("Circuit, text global phase", ValueError, lambda op: qitp.Circuit(2, [], "0.1")),
    ("Circuit, bool global phase", ValueError, lambda op: qitp.Circuit(2, [], True)),
    ("Circuit, gates not iterable", ValueError, lambda op: qitp.Circuit(2, 5)),
    ("Gate, NaN angle", ValueError, lambda op: qitp.Gate("rx", (0,), np.nan)),
    ("Gate, text angle", ValueError, lambda op: qitp.Gate("rx", (0,), "0.1")),
    ("Gate, bool angle", ValueError, lambda op: qitp.Gate("rx", (0,), True)),
    ("Gate, angle beyond the float range", ValueError, lambda op: qitp.Gate("rz", (0,), 10**400)),
    ("Gate, bool qubit", ValueError, lambda op: qitp.Gate("rx", (True,), 0.1)),
    ("Gate, bool cz qubit", ValueError, lambda op: qitp.Gate("cz", (0, True))),
    ("circuit_unitary, 11 qubits", DimensionError, lambda op: qitp.circuit_unitary(qitp.Circuit(11))),
    ("emit_circuit_text, gate off the register", ValueError,
     lambda op: qitp.emit_circuit_text(qitp.Circuit(1, [qitp.Gate("rz", (1,), 0.5)]))),
    ("parse_circuit_text, no header", ParseError, lambda op: qitp.parse_circuit_text("qreg q[1];")),
    ("decompose_1q, not unitary", NotUnitary, lambda op: qitp.decompose_1q(2.0 * np.eye(2))),
    ("kak_coefficients, NaN entries", NotUnitary,
     lambda op: qitp.kak_coefficients(np.full((4, 4), np.nan))),
    ("kak_decompose, 2x2 input", NotUnitary, lambda op: qitp.kak_decompose(np.eye(2))),
    ("process_fidelity, shapes differ", DimensionMismatch,
     lambda op: qitp.process_fidelity(np.eye(2), np.eye(4))),
    ("process_fidelity, not square", DimensionMismatch,
     lambda op: qitp.process_fidelity(np.ones((2, 3)), np.ones((2, 3)))),
    ("process_fidelity, 0x0", DimensionMismatch,
     lambda op: qitp.process_fidelity(np.zeros((0, 0)), np.zeros((0, 0)))),
    ("process_fidelity, NaN entry", NotUnitary,
     lambda op: qitp.process_fidelity(np.full((2, 2), np.nan), np.eye(2))),
    ("process_fidelity, infinite entry", NotUnitary,
     lambda op: qitp.process_fidelity(np.eye(2), np.diag([1.0, np.inf]))),
]


def test_every_public_callable_has_a_row():
    """Each callable of qitp.__all__, plus readout_confusion and spectral_run,
    is named by at least one ERROR_CASES call."""
    named = set()
    for _, _, call in ERROR_CASES:
        named.update(call.__code__.co_names)
    public = {name for name in qitp.__all__ if callable(getattr(qitp, name))}
    assert public | {"readout_confusion", "spectral_run"} <= named


@pytest.mark.parametrize("error, call", [c[1:] for c in ERROR_CASES], ids=[c[0] for c in ERROR_CASES])
def test_bad_input_raises_documented_class(error, call):
    with pytest.raises(error):
        call(_hydrogen_op())


class TestBasisLabels:
    def test_single_system_qubit_uses_bitstrings(self):
        assert basis_labels(2) == ["00", "01", "10", "11"]

    def test_larger_systems_use_fock_indices(self):
        assert basis_labels(4) == [str(i) for i in range(8)]
