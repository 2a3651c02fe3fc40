"""State preparation, dilation steps, post-selection, shots, and noise.

Pure-state path: extend with the reservoir qubit, apply the dilation,
condition on the reservoir reading 0, repeat. Both dilation blocks are
functions of H, so this loop runs in the eigenbasis of H
(:func:`spectral_run`) without forming the dilation. Post-selection is exact
probability bookkeeping, not rejection sampling; shot histograms are drawn
from the final extended distribution so both the extended and the
normalized occupancies stay recoverable.

Noisy path: same loop on a density matrix, with single-qubit amplitude
damping and dephasing applied once after each (noiseless) unitary step and
an optional classical readout-flip confusion applied to the reported
distribution. Both act qubit by qubit, never as a Kronecker product with
identities: the channel updates each qubit's 2x2 density blocks in closed
form, and the flips apply a 2x2 map to one bit of the register index
(``_apply_1q``). This is a qualitative stand-in for hardware relaxation.

Shots are counted against integer CDF thresholds on a splitmix64 counter
stream (an exact inverse-CDF multinomial draw), so counts are bit-reproducible
across platforms for a given seed. The stream is drawn in fixed chunks, so
memory is O(chunk + N) at any shot count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dilation import DilationUnitary, ItpParams, build_dilation, filter_profile
from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidFactorization,
    NonRealExpectation,
    PostselectionImpossible,
)
from .linalg import DEGENERACY_TOL, HermitianOperator, _apply_1q, _degenerate_clusters

POSTSELECT_FLOOR = 1e-14

_SM64_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)

# Shots drawn per pass of sample_shots, bounding its memory at any count.
_SHOT_CHUNK = 1 << 16


def normalized_state(psi) -> np.ndarray:
    """Validate and return a unit-norm copy of a state vector."""
    v = np.asarray(psi, dtype=complex).ravel()
    if v.size == 0 or not np.all(np.isfinite(v)):
        raise InvalidDistribution("state vector must be finite and non-empty")
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise InvalidDistribution("state vector has zero norm")
    return v / norm


def extend_with_ancilla(psi) -> np.ndarray:
    """|0>_reservoir (x) |psi>: system amplitudes first, zero block second."""
    v = np.asarray(psi, dtype=complex).ravel()
    return np.concatenate([v, np.zeros_like(v)])


def apply_step(state, u: DilationUnitary) -> np.ndarray:
    """Apply the dilation unitary to an extended state vector."""
    v = np.asarray(state, dtype=complex).ravel()
    if v.size != u.dim:
        raise DimensionMismatch(f"state dim {v.size} != dilation dim {u.dim}")
    return u.matrix @ v


def postselect_ancilla0(state) -> tuple[np.ndarray, float]:
    """Condition on the reservoir qubit measuring 0.

    Returns the renormalized system block and the success probability p0.
    Raises PostselectionImpossible when p0 < 1e-14 (the failure mode of a
    trial energy below the true ground energy: the kept branch dies out).
    """
    v = np.asarray(state, dtype=complex).ravel()
    if v.size % 2:
        raise DimensionMismatch("extended state must have even dimension")
    n = v.size // 2
    kept = v[:n]
    p0 = float(np.real(kept.conj() @ kept))
    if p0 < POSTSELECT_FLOOR:
        raise PostselectionImpossible(
            f"reservoir-0 probability {p0:.3e} below {POSTSELECT_FLOOR:g}",
            probability=p0,
        )
    return kept / np.sqrt(p0), p0


def energy_expectation(psi, op: HermitianOperator) -> float:
    """Real expectation <psi|H|psi>; rejects states with large imaginary part."""
    v = np.asarray(psi, dtype=complex).ravel()
    if v.size != op.dim:
        raise DimensionMismatch(f"state dim {v.size} != operator dim {op.dim}")
    val = complex(v.conj() @ (op.matrix @ v))
    if abs(val.imag) >= 1e-8:
        raise NonRealExpectation(f"imaginary part {val.imag:.3e} too large")
    return val.real


def sample_shots(probs, shots: int, seed: int) -> np.ndarray:
    """Multinomial histogram over ``probs`` by exact integer CDF thresholds.

    Draw i is ``k_i = z_i >> 11`` for the splitmix64 output z_i of counter
    ``seed + i * 0x9E3779B97F4A7C15`` (mod 2**64). Scaling by 2**-53 is exact,
    so ``k_i * 2**-53 >= c`` holds exactly when ``k_i >= ceil(c * 2**53)``, and
    counting draws against these thresholds gives bit for bit the counts of the
    inverse-CDF draw ``searchsorted(cdf, k * 2**-53, side="right")``. Counts sum
    to ``shots``; chunk ``start`` of the stream begins at counter ``start``, so
    memory is O(chunk + N) and the counts do not depend on the chunk size.
    """
    p = np.asarray(probs, dtype=float).ravel()
    for name, value in (("shots", shots), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InvalidDistribution(f"{name} must be an integer, got {value!r}")
    shots, seed = int(shots), int(seed)
    if shots < 0:
        raise InvalidDistribution("shots must be >= 0")
    if p.size == 0 or not np.all(np.isfinite(p)) or np.any(p < -1e-12):
        raise InvalidDistribution("probabilities must be finite and non-negative")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise InvalidDistribution(f"probabilities sum to {total!r}, expected 1")
    # A threshold past 2**53 - 1 (a CDF sum above 1) is never reached.
    cdf = np.cumsum(np.clip(p, 0.0, None))
    thresholds = np.ceil(cdf[:-1] * 2.0**53).astype(np.uint64)
    reached = np.zeros(thresholds.size, dtype=np.int64)
    z, t = np.empty((2, min(_SHOT_CHUNK, shots)), dtype=np.uint64)
    steps = np.arange(1, z.size + 1, dtype=np.uint64) * _SM64_GOLDEN
    for start in range(0, shots, _SHOT_CHUNK):
        zc, tc = z[: shots - start], t[: shots - start]
        base = (seed + start * int(_SM64_GOLDEN)) & 0xFFFFFFFFFFFFFFFF
        np.add(steps[: zc.size], np.uint64(base), out=zc)
        for shift, mix in ((30, _SM64_MIX1), (27, _SM64_MIX2)):
            zc ^= np.right_shift(zc, shift, out=tc)
            zc *= mix
        zc ^= np.right_shift(zc, 31, out=tc)
        zc >>= 11
        for j, threshold in enumerate(thresholds):
            reached[j] += np.count_nonzero(zc >= threshold)
    return -np.diff(np.concatenate([[shots], reached, [0]]))


@dataclass(frozen=True)
class NoiseParams:
    """Per-step channel strengths: damping, dephasing, readout flip."""

    amplitude_damping: float = 0.0
    dephasing: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.amplitude_damping <= 1.0:
            raise ValueError("amplitude_damping must be in [0, 1]")
        if not 0.0 <= self.dephasing <= 1.0:
            raise ValueError("dephasing must be in [0, 1]")
        if not 0.0 <= self.readout_flip <= 0.5:
            raise ValueError("readout_flip must be in [0, 0.5]")


def _qubit_count_for(dim: int, qubit_count: int | None) -> int:
    if qubit_count is None:
        qubit_count = max(1, int(np.ceil(np.log2(dim))))
    if 2**qubit_count < dim:
        raise InvalidFactorization(
            f"{qubit_count} qubits cannot carry dimension {dim}"
        )
    return qubit_count


def apply_channel(rho, noise: NoiseParams, qubit_count: int | None = None) -> np.ndarray:
    """Apply per-qubit amplitude damping, then dephasing, to a density matrix.

    Each qubit's 2x2 blocks are updated in closed form, with g the damping
    and lam the dephasing strength: ``rho00 += g * rho11``,
    ``rho11 *= 1 - g``, and both coherences ``rho01, rho10`` are scaled by
    ``sqrt(1 - g) * (1 - 2 * lam)``. The input is not modified.

    Dimensions that are not a power of two are padded into the smallest
    qubit register; both channels only move weight toward lower indices, so
    the embedded block is closed and the trace is preserved exactly.
    """
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 1:
        raise InvalidFactorization(f"density matrix must be square, got {r.shape}")
    dim = r.shape[0]
    k = _qubit_count_for(dim, qubit_count)
    out = np.zeros((2**k, 2**k), dtype=complex)
    out[:dim, :dim] = r
    g, lam = noise.amplitude_damping, noise.dephasing
    c = np.sqrt(1 - g) * (1 - 2 * lam)
    for q in range(k):
        # View axes: (row hi, row q, row lo + column hi, column q, column lo).
        t = out.reshape(2**q, 2, 2 ** (k - 1), 2, 2 ** (k - q - 1))
        t[:, 0, :, 0] += g * t[:, 1, :, 1]
        t[:, 1, :, 1] *= 1 - g
        t[:, 0, :, 1] *= c
        t[:, 1, :, 0] *= c
    return out[:dim, :dim]


def readout_confusion(probs, flip: float, qubit_count: int | None = None) -> np.ndarray:
    """Independent per-bit readout flips applied to a probability vector.

    For non-power-of-two lengths the vector is padded into the qubit
    register, flipped, cropped, and renormalized (flips can leak into the
    padding levels).
    """
    p = np.asarray(probs, dtype=float).ravel()
    if flip == 0.0:
        return p.copy()
    dim = p.size
    k = _qubit_count_for(dim, qubit_count)
    full = 2**k
    out = np.zeros(full)
    out[:dim] = p
    m = np.array([[1 - flip, flip], [flip, 1 - flip]])
    for q in range(k):
        out = _apply_1q(m, out, q)
    out = out[:dim]
    return out / out.sum()


@dataclass(frozen=True)
class ExperimentRecord:
    """Everything measured in one imaginary-time run.

    ``extended_probs`` is indexed ancilla-major (index = a*N + beta, the
    reservoir bit first); ``normalized_probs`` are the reservoir-0
    occupancies renormalized to the system; ``energy`` is <H> of the
    post-selected state after the final repetition.
    """

    system_dim: int
    extended_probs: np.ndarray
    postselect_prob: float
    normalized_probs: np.ndarray
    energy: float
    shot_counts: np.ndarray
    shots: int
    seed: int
    repetitions_completed: int

    def basis_labels(self) -> list[str]:
        return basis_labels(self.system_dim)


def basis_labels(system_dim: int) -> list[str]:
    """Labels for the extended basis: bitstrings "ab" for a single system
    qubit (reservoir digit first), Fock indices "0".."2N-1" otherwise."""
    if system_dim == 2:
        return [f"{a}{b}" for a in (0, 1) for b in (0, 1)]
    return [str(i) for i in range(2 * system_dim)]


def spectral_run(op: HermitianOperator, params: ItpParams, psi0, repetitions: int):
    """The noiseless repetition loop in the eigenbasis of H.

    One repetition multiplies each eigencoefficient c_n by h(E_n) and
    renormalizes by the reservoir-0 probability p0 = sum |h c|^2; raises
    PostselectionImpossible with the 1-based repetition index when p0 falls
    below the floor. Returns ``(extended_probs, p0, energy, ground_weight)``
    for the final repetition: the ancilla-major probabilities
    ``[|V h c'|^2, |V r c'|^2]`` (c' the coefficients entering it), its p0,
    <H> of the post-selected state, and that state's weight in the ground
    eigenspace (degenerate levels clustered as in :func:`eigh`).
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    state = normalized_state(psi0)
    if state.size != op.dim:
        raise DimensionMismatch(f"state dim {state.size} != operator dim {op.dim}")
    et = params.resolve_trial_energy(op)
    w, v = op.eigenvalues, op.eigenvectors
    h = filter_profile(w, params.tau, et)
    c = v.conj().T @ state
    for rep in range(1, repetitions + 1):
        entering, c = c, h * c
        p0 = float(np.real(c.conj() @ c))
        if p0 < POSTSELECT_FLOOR:
            raise PostselectionImpossible(
                f"repetition {rep}: reservoir-0 probability {p0:.3e} "
                f"below {POSTSELECT_FLOOR:g}",
                probability=p0,
                repetition=rep,
            )
        c = c / np.sqrt(p0)
    r = filter_profile(-w, params.tau, -et)
    extended = np.abs(np.concatenate([v @ (h * entering), v @ (r * entering)])) ** 2
    weights = np.abs(c) ** 2
    _, ground_end = _degenerate_clusters(w, DEGENERACY_TOL)[0]
    return extended, p0, float(weights @ w), float(weights[:ground_end].sum())


def _run_density(op, params, psi0, repetitions, noise):
    n = op.dim
    # The reservoir enters in |0>, so only the first N columns of U act.
    b = build_dilation(op, params).matrix[:, :n]
    state = normalized_state(psi0)
    rho = np.outer(state, state.conj())
    extended_probs = None
    for rep in range(1, repetitions + 1):
        ext = b @ rho @ b.conj().T
        ext = apply_channel(ext, noise)
        if rep == repetitions:
            extended_probs = np.real(np.diag(ext)).clip(min=0.0)
        block = ext[:n, :n]
        p0 = float(np.real(np.trace(block)))
        if p0 < POSTSELECT_FLOOR:
            raise PostselectionImpossible(
                f"repetition {rep}: reservoir-0 probability {p0:.3e}",
                probability=p0,
                repetition=rep,
            )
        rho = block / p0
    energy = float(np.real(np.trace(rho @ op.matrix)))
    return extended_probs, energy


def run_itp(
    op: HermitianOperator,
    params: ItpParams,
    psi0,
    repetitions: int = 1,
    shots: int = 0,
    seed: int = 42,
    noise: NoiseParams | None = None,
) -> ExperimentRecord:
    """Run the full imaginary-time loop and collect an ExperimentRecord.

    Each repetition extends the system with a fresh reservoir |0>, applies
    the dilation, and conditions on reservoir 0 before the next round
    (without noise this is :func:`spectral_run`). The
    recorded probabilities come from the final repetition; shot counts
    (shots = 0 skips sampling) are drawn from that distribution. Passing a
    NoiseParams (even all-zero) switches to the density-matrix path.

    Pure given (inputs, seed): repeated calls reproduce identical records.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if noise is None:
        extended, _, energy, _ = spectral_run(op, params, psi0, repetitions)
    else:
        extended, energy = _run_density(op, params, psi0, repetitions, noise)
        if noise.readout_flip > 0.0:
            extended = readout_confusion(extended, noise.readout_flip)
    total = extended.sum()
    if abs(total - 1.0) > 1e-9:
        raise InvalidDistribution(f"extended probabilities sum to {total!r}")
    extended = extended / total
    kept = extended[: op.dim]
    normalized = kept / kept.sum()
    counts = sample_shots(extended, shots, seed)
    extended.setflags(write=False)
    normalized.setflags(write=False)
    counts.setflags(write=False)
    return ExperimentRecord(
        system_dim=op.dim,
        extended_probs=extended,
        postselect_prob=float(kept.sum()),
        normalized_probs=normalized,
        energy=energy,
        shot_counts=counts,
        shots=shots,
        seed=seed,
        repetitions_completed=repetitions,
    )


def state_fidelity(a, b) -> float:
    """|<a|b>|^2 for normalized state vectors."""
    va = normalized_state(a)
    vb = normalized_state(b)
    return float(abs(va.conj() @ vb) ** 2)
