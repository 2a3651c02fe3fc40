import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qitp import simulate
from qitp.dilation import TRIAL_MODES, ItpParams, build_dilation
from qitp.errors import (
    DimensionMismatch,
    InvalidDistribution,
    NonRealExpectation,
    PostselectionImpossible,
)
from qitp.hamiltonians import hydrogen_sto2g
from qitp.linalg import HermitianOperator, PAULI_Z, max_abs
from qitp.simulate import (
    POSTSELECT_FLOOR,
    NoiseParams,
    apply_channel,
    apply_step,
    basis_labels,
    energy_expectation,
    extend_with_ancilla,
    postselect_ancilla0,
    readout_confusion,
    run_itp,
    sample_shots,
    spectral_run,
    state_fidelity,
)

from helpers import random_hermitian, random_state

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
            p = np.concatenate([[c], p[1:] * ((p.sum() - c) / rest)])
        assume(abs(p.sum() - 1.0) <= 1e-9)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_SHOT_CHUNK", chunk)
            counts = sample_shots(p, shots, seed)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, inverse_cdf_oracle(p, shots, seed))

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
        rng = np.random.default_rng(21)
        for dim in range(1, 9):
            k = max(1, int(np.ceil(np.log2(dim))))
            p = rng.uniform(size=dim)
            p /= p.sum()
            flip = rng.uniform(0, 0.5)
            m = np.array([[1 - flip, flip], [flip, 1 - flip]])
            conf = np.ones((1, 1))
            for _ in range(k):
                conf = np.kron(conf, m)
            work = np.zeros(2**k)
            work[:dim] = p
            want = (conf @ work)[:dim]
            assert max_abs(readout_confusion(p, flip) - want / want.sum()) < 1e-14


class TestRunItp:
    def test_hydrogen_reference_run(self):
        op, params, psi0 = hydrogen_setup()
        rec = run_itp(op, params, psi0)
        assert np.allclose(rec.extended_probs, HYDROGEN_EXTENDED, atol=5e-3)
        assert np.allclose(rec.normalized_probs, HYDROGEN_NORMALIZED, atol=2e-3)
        assert abs(rec.energy - op.ground_energy) < 1e-9
        assert rec.basis_labels() == ["00", "01", "10", "11"]

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
        assert rec.repetitions_completed == 3

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
def itp_cases(draw):
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = op_from(random_hermitian(dim, rng))
    mode = draw(st.sampled_from(TRIAL_MODES))
    extra = {}
    if mode == "absolute":
        # the spectrum of a dim-8 draw stays well inside [-10, 10]
        extra["trial_energy"] = draw(st.floats(-10.0, 10.0))
    elif mode == "fraction_of_ground":
        # a fraction above 1 puts E_T below a negative ground energy
        extra["fraction"] = draw(st.floats(0.05, 3.0))
    params = ItpParams(tau=draw(st.floats(0.0, 1e3)), trial_mode=mode, **extra)
    repetitions = draw(st.integers(1, 4))
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
        _, _, _, ground_weight = spectral_run(op, params, psi, 2)
        u = build_dilation(op, params)
        state = psi
        for _ in range(2):
            state, _ = postselect_ancilla0(apply_step(extend_with_ancilla(state), u))
        projected = basis[:, :2].conj().T @ state
        assert abs(ground_weight - np.sum(np.abs(projected) ** 2)) < 1e-12
        assert ground_weight > state_fidelity(state, op.ground_state) + 1e-3

    def test_rejects_bad_repetitions_and_dimension(self):
        op = op_from(np.diag([0.0, 1.0]))
        params = ItpParams(tau=1.0)
        with pytest.raises(ValueError):
            spectral_run(op, params, np.array([1.0, 0.0]), 0)
        with pytest.raises(DimensionMismatch):
            spectral_run(op, params, np.ones(3), 1)


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


class TestBasisLabels:
    def test_single_system_qubit_uses_bitstrings(self):
        assert basis_labels(2) == ["00", "01", "10", "11"]

    def test_larger_systems_use_fock_indices(self):
        assert basis_labels(4) == [str(i) for i in range(8)]
