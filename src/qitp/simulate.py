"""State preparation, dilation steps, post-selection, shots, and noise.

Pure-state path: extend with the reservoir qubit, apply the dilation,
condition on the reservoir reading 0, repeat. Both dilation blocks are
functions of H, so in its eigenbasis the loop telescopes, and
:func:`spectral_run` evaluates it in closed form over a (tau, E_T) grid.
Post-selection is exact probability bookkeeping, not rejection sampling;
shot histograms are drawn from the final extended distribution so both the
extended and the normalized occupancies stay recoverable.

Noisy path: same loop on a density matrix, with single-qubit amplitude
damping and dephasing applied once after each (noiseless) unitary step and
an optional classical readout-flip confusion applied to the reported
distribution. The register is the reservoir qubit, leading, (x) the system
padded to 2**m >= N levels: index a * 2**m + beta. Channels on distinct
qubits commute and only the reservoir-0 block is kept, so each repetition is
one N x N update ``rho <- E_sys(Q rho Q + g R rho R) / p0`` (g the damping),
never the 2N x 2N register. Neither noise map forms a Kronecker product
with identities: the channel is per-qubit transfers, then one weight built
per run (multiplied entrywise), and the flips apply a 2x2 map to one bit of
the register index (``_apply_1q``). For N not a power of two this layout
differs from padding the extended index a * N + beta itself, where no bit
is the reservoir. This is a qualitative stand-in for hardware relaxation.

Shots are counted against integer CDF thresholds on a splitmix64 counter
stream (an exact inverse-CDF multinomial draw), so counts are bit-reproducible
across platforms for a given seed. The integers are compared through a
float64 view with bit 62 set: each is then a positive normal double, and
those order exactly as their bit patterns do, so the counts are the integer
ones at float64 comparison speed. The stream is drawn in fixed chunks, so
memory is O(chunk + N) at any shot count.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .dilation import DilationUnitary, ItpParams, build_dilation, filter_profile, log_filter_squared
from .errors import (
    DimensionError,
    DimensionMismatch,
    InvalidDistribution,
    NonRealExpectation,
    PostselectionImpossible,
)
from .linalg import HermitianOperator, _apply_1q, _ground_cluster_end, _is_finite_real, max_abs

POSTSELECT_FLOOR = 1e-14

_SM64_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)

# Shots drawn per pass of sample_shots, bounding its memory at any count.
_SHOT_CHUNK = 1 << 16
# Set in each draw and threshold (both below 2**54), it makes their bit
# patterns positive normal doubles, which order as the integers do.
_FLOAT_VIEW_BIT = np.uint64(1 << 62)


def _finite_state(psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).ravel()
    if not np.isfinite(v).all():
        raise InvalidDistribution("state vector has non-finite entries")
    return v


def normalized_state(psi) -> np.ndarray:
    """Validate and return a unit-norm copy of a state vector: any finite one
    with a nonzero entry. Where the squared norm would leave the normal
    float range, the vector is first divided by its largest part."""
    v = _finite_state(psi)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not 1e-150 < norm < 1e150:
        parts = v.view(float)
        scale = np.abs(parts).max(initial=0.0)
        if scale == 0.0:
            raise InvalidDistribution("state vector is empty or zero")
        v = (parts / scale).view(complex)  # a real division: 1 / scale may overflow
        norm = np.linalg.norm(v)
    return v / norm


def extend_with_ancilla(psi) -> np.ndarray:
    """|0>_reservoir (x) |psi>: system amplitudes first, zero block second.
    Raises InvalidDistribution for a NaN or infinite amplitude."""
    v = _finite_state(psi)
    return np.concatenate([v, np.zeros_like(v)])


def apply_step(state, u: DilationUnitary) -> np.ndarray:
    """Apply the dilation unitary to an extended state vector. Raises
    DimensionMismatch for a state of the wrong size and InvalidDistribution
    for a NaN or infinite amplitude."""
    v = _finite_state(state)
    if v.size != u.dim:
        raise DimensionMismatch(f"state dim {v.size} != dilation dim {u.dim}")
    return u.matrix @ v


def postselect_ancilla0(state) -> tuple[np.ndarray, float]:
    """Condition on the reservoir qubit measuring 0.

    Returns the renormalized system block and the success probability p0.
    Raises PostselectionImpossible when p0 < 1e-14 (the kept branch dies out:
    a trial energy below the ground energy, or a state with almost no weight
    at or below it) and InvalidDistribution for a NaN or infinite amplitude.
    """
    v = _finite_state(state)
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
    """Real expectation <psi|H|psi>.

    Raises NonRealExpectation when the imaginary part exceeds
    ``1e-8 * max_abs(H) * ||psi||^2``, InvalidDistribution for a NaN or
    infinite amplitude and DimensionMismatch for a state of the wrong size.
    """
    v = _finite_state(psi)
    if v.size != op.dim:
        raise DimensionMismatch(f"state dim {v.size} != operator dim {op.dim}")
    val = complex(v.conj() @ (op.matrix @ v))
    if abs(val.imag) > 1e-8 * max_abs(op.matrix) * np.vdot(v, v).real:
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

    Draws and thresholds are below 2**54. Each is compared with bit 62 set,
    through a float64 view of its bits: that makes it a positive normal double
    (so a denormals-are-zero mode leaves it alone), and positive finite doubles
    order exactly as their bit patterns do (IEEE 754). Every comparison is
    the integer one, a threshold at or past 2**53 included.
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
    thresholds = (np.ceil(cdf[:-1] * 2.0**53).astype(np.uint64) | _FLOAT_VIEW_BIT).view(np.float64)
    reached = np.zeros(thresholds.size, dtype=np.int64)
    z, t = np.empty((2, min(_SHOT_CHUNK, shots)), dtype=np.uint64)
    hit = np.empty(z.size, dtype=bool)
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
        zc |= _FLOAT_VIEW_BIT
        draws, h = zc.view(np.float64), hit[: zc.size]
        for j, threshold in enumerate(thresholds):
            reached[j] += np.count_nonzero(np.greater_equal(draws, threshold, out=h))
    return -np.diff(np.concatenate([[shots], reached, [0]]))


@dataclass(frozen=True)
class NoiseParams:
    """Noise strengths: amplitude damping and dephasing act after every step,
    the readout flip once, on the reported distribution."""

    amplitude_damping: float = 0.0
    dephasing: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self):
        g, lam, eps = self.amplitude_damping, self.dephasing, self.readout_flip
        if not (_is_finite_real(g) and 0.0 <= g <= 1.0):
            raise ValueError("amplitude_damping must be in [0, 1]")
        if not (_is_finite_real(lam) and 0.0 <= lam <= 1.0):
            raise ValueError("dephasing must be in [0, 1]")
        if not (_is_finite_real(eps) and 0.0 <= eps <= 0.5):
            raise ValueError("readout_flip must be in [0, 0.5]")


def apply_channel(rho, noise: NoiseParams) -> np.ndarray:
    """Apply per-qubit amplitude damping, then dephasing, to a density matrix.

    With g the damping and lam the dephasing, each qubit's 2x2 blocks take
    ``rho00 += g * rho11``, ``rho11 *= 1 - g`` and ``rho01, rho10 *= c``,
    ``c = sqrt(1 - g) * (1 - 2 * lam)``: every transfer ``rho00 += g * rho11``
    first (exact, as other qubits scale its source and target alike), then
    one entrywise product with ``[[1, c], [c, 1 - g]]`` (x) ... (x) itself.
    The input is not modified.

    Dimensions that are not a power of two are padded into the smallest
    qubit register; both channels only move weight toward lower indices, so
    the embedded block is closed and the trace is preserved exactly. Raises
    DimensionError for a matrix that is not square and
    InvalidDistribution for a NaN or infinite entry.
    """
    r = np.asarray(rho, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.shape[0] < 1:
        raise DimensionError(f"density matrix must be square, got {r.shape}")
    if not np.isfinite(r).all():
        raise InvalidDistribution("density matrix has non-finite entries")
    return _channel(noise, r.shape[0])(r)


def _channel(noise: NoiseParams, dim: int):
    """The unchecked map of :func:`apply_channel` on dim x dim input, its weight built once."""
    k = (dim - 1).bit_length()
    g = noise.amplitude_damping
    c = np.sqrt(1 - g) * (1 - 2 * noise.dephasing)
    m, weight = np.array([[1.0, c], [c, 1.0 - g]]), np.ones((1, 1))
    for _ in range(k):  # weight <- weight (x) m, by broadcasting
        weight = (weight[:, None, :, None] * m[:, None]).reshape(2 * len(weight), -1)
    weight = weight[:dim, :dim]

    def channel(rho: np.ndarray) -> np.ndarray:
        out = np.zeros((2**k, 2**k), dtype=complex)
        out[:dim, :dim] = rho
        for q in range(k):
            # View axes: (row hi, row q, row lo + column hi, column q, column lo).
            t = out.reshape(2**q, 2, 2 ** (k - 1), 2, 2 ** (k - q - 1))
            t[:, 0, :, 0] += g * t[:, 1, :, 1]
        return out[:dim, :dim] * weight

    return channel


def readout_confusion(probs, flip: float) -> np.ndarray:
    """Independent per-bit readout flips applied to an extended distribution.

    ``probs`` is ancilla-major (index a*N + beta, length 2N, so N is half
    its length), read on the noisy register: the reservoir qubit,
    leading, (x) the system padded to 2**m >= N levels, index a*2**m + beta.
    At every flip, 0 included, it is padded into that register, flipped on
    the reservoir bit and the m system bits, cropped, and renormalized (flips
    can leak into the padding levels), so the reservoir bit is never mixed
    with system padding. Raises ValueError for a flip outside [0, 0.5],
    DimensionMismatch for an odd length, and InvalidDistribution for a NaN,
    infinite or negative probability, or for no weight left to renormalize.
    """
    if not (_is_finite_real(flip) and 0.0 <= flip <= 0.5):
        raise ValueError("readout_flip must be in [0, 0.5]")
    p = np.asarray(probs, dtype=float).ravel()
    if not (np.isfinite(p).all() and (p >= 0.0).all()):
        raise InvalidDistribution("probabilities must be finite and non-negative")
    if p.size % 2:
        raise DimensionMismatch(f"{p.size} probabilities: an extended distribution has even length")
    n = p.size // 2
    levels = 2 ** (n - 1).bit_length()
    out = np.zeros((2, levels))
    out[:, :n] = p.reshape(2, n)
    out = out.ravel()
    m = np.array([[1 - flip, flip], [flip, 1 - flip]])
    for q in range(out.size.bit_length() - 1):
        out = _apply_1q(m, out, q)
    out = out.reshape(2, levels)[:, :n].ravel()
    total = out.sum()
    if not total > 0.0:
        raise InvalidDistribution("probabilities have no weight to renormalize")
    return out / total


@dataclass(frozen=True)
class ExperimentRecord:
    """Everything measured in one imaginary-time run.

    ``extended_probs`` is indexed ancilla-major (index = a*N + beta, the
    reservoir bit first); ``normalized_probs`` are the reservoir-0
    occupancies renormalized to the system; ``energy`` is <H> of the
    post-selected state after the final repetition. On the noisy path the
    channel and readout flips act on the register reservoir qubit (x) system
    padded to 2**m levels (index a*2**m + beta), whose padding levels are
    cropped from ``extended_probs``.
    """

    system_dim: int
    extended_probs: np.ndarray
    postselect_prob: float
    normalized_probs: np.ndarray
    energy: float
    shot_counts: np.ndarray


def basis_labels(system_dim: int) -> list[str]:
    """Labels for the extended basis: bitstrings "ab" for a single system
    qubit (reservoir digit first), Fock indices "0".."2N-1" otherwise.
    Raises ValueError unless ``system_dim`` is an integer >= 1."""
    _check_count("system_dim", system_dim)
    if system_dim == 2:
        return [f"{a}{b}" for a in (0, 1) for b in (0, 1)]
    return [str(i) for i in range(2 * system_dim)]


def _check_count(name: str, value) -> None:
    integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not integral or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


SpectralRows = namedtuple("SpectralRows", "p0 energy ground_weight failed extended")


def spectral_run(
    op: HermitianOperator, taus, trial_energies, psi0, repetitions: int, *, extended: bool = False
) -> SpectralRows:
    """The noiseless repetition loop in the eigenbasis of H, in closed form.

    ``taus`` and the resolved ``trial_energies`` broadcast together and
    flatten into G (tau, E_T) rows that share one ``c = V^dag psi``. A
    repetition scales c_n by h(E_n) and renormalizes by its reservoir-0
    probability, so K of them telescope: the weights entering repetition K
    are the row-wise softmax of ``log |c|^2 + (K - 1) log h^2``. Repetition
    k succeeds with p0_k = S_k / S_(k-1), ``S_k = sum_n |c_n|^2 h_n^(2k)``,
    which by Cauchy-Schwarz never decreases in k. Returns arrays over the
    rows: ``failed``, 1 where repetition 1 fell below the floor, the only one
    that can, else 0; ``p0`` of that repetition, else of the final one;
    ``energy``, <H> of the post-selected state; ``ground_weight``, its weight
    in the ground eigenspace (the lowest cluster of near-equal levels, summed,
    so the basis within it does not matter); and, only when asked for,
    ``extended``, shape (G, 2N), the final repetition's ancilla-major
    ``[|V h c'|^2, |V r c'|^2]`` (c' the coefficients entering it). Failed
    rows read NaN in all but p0. A repetition count beyond the float range
    raises ValueError.
    """
    _check_count("repetitions", repetitions)
    if repetitions > sys.float_info.max:  # (K - 1) log h^2 is taken in floats
        raise ValueError(f"repetitions must be at most {sys.float_info.max:g}")
    taus, ets = np.broadcast_arrays(np.asarray(taus, float), np.asarray(trial_energies, float))
    taus, ets = taus.reshape(-1, 1), ets.reshape(-1, 1)
    bad = ~(np.isfinite(taus) & (taus >= 0))
    if bad.any():
        raise ValueError(f"tau must be finite and >= 0, got {taus[bad][0]}")
    if not np.all(np.isfinite(ets)):
        raise ValueError("trial_energy must be finite")
    state = normalized_state(psi0)
    if state.size != op.dim:
        raise DimensionMismatch(f"state dim {state.size} != operator dim {op.dim}")
    w, v = op.eigenvalues, op.eigenvectors
    log_h2 = log_filter_squared(w, taus, ets)
    h2, c = np.exp(log_h2), v.conj().T @ state
    entering = np.abs(c) ** 2
    p0_1 = h2 @ entering
    failed = (p0_1 < POSTSELECT_FLOOR).astype(np.int64)
    with np.errstate(all="ignore"):  # -inf from log 0 or overflow is exact; failed rows: 0 / 0
        if repetitions > 1:
            # shifted to a row maximum of 0 over the occupied levels, so a huge
            # K leaves one finite term per row; unoccupied levels stay -inf
            shifted = np.where(entering > 0, log_h2, -np.inf)
            shifted -= shifted.max(axis=1, keepdims=True)
            logs = np.log(entering) + (repetitions - 1) * shifted
            entering = np.exp(logs - logs.max(axis=1, keepdims=True))
            entering /= entering.sum(axis=1, keepdims=True)
        kept = entering * h2
        p0 = np.where(failed, p0_1, kept.sum(axis=1))
        weights = np.where(failed[:, None], np.nan, kept / p0[:, None])
    ground_end = _ground_cluster_end(w, max_abs(op.matrix))
    ext = None
    if extended:
        a = np.sqrt(entering) * np.exp(1j * np.angle(c))
        r = filter_profile(-w, taus, -ets)
        ext = np.concatenate([(np.sqrt(h2) * a) @ v.T, (r * a) @ v.T], axis=1)
        ext = np.where(failed[:, None], np.nan, np.abs(ext) ** 2)
    return SpectralRows(p0, weights @ w, weights[:, :ground_end].sum(axis=1), failed, ext)


def _postselection_failed(rep: int, p0: float) -> PostselectionImpossible:
    msg = f"repetition {rep}: reservoir-0 probability {p0:.3e} below {POSTSELECT_FLOOR:g}"
    return PostselectionImpossible(msg, probability=p0, repetition=rep)


def _run_density(op, params, psi0, repetitions, noise):
    """The noisy repetition loop, one N x N density block per repetition.

    On the register of the module docstring the reservoir's damping is
    ``rho00 += g * rho11`` and its dephasing touches only the discarded
    off-diagonal blocks, so a repetition is ``rho <- E_sys(Q rho Q + g R rho R) / p0``
    and the final reservoir-1 populations are ``(1 - g) diag(E_sys(R rho R))``.
    Returns the final ancilla-major extended probabilities and the energy.
    """
    u = build_dilation(op, params)
    q, r, g = u.q_block, u.r_block, noise.amplitude_damping
    state = normalized_state(psi0)
    if state.size != op.dim:
        raise DimensionMismatch(f"state dim {state.size} != operator dim {op.dim}")
    rho = np.outer(state, state.conj())
    channel = _channel(noise, op.dim)
    for rep in range(1, repetitions + 1):
        lost = r @ rho @ r
        kept = channel(q @ rho @ q + g * lost)
        p0 = float(np.real(np.trace(kept)))
        if p0 < POSTSELECT_FLOOR:
            raise _postselection_failed(rep, p0)
        rho = kept / p0
    dropped = (1 - g) * np.diag(channel(lost))
    extended_probs = np.real(np.concatenate([np.diag(kept), dropped])).clip(min=0.0)
    energy = float(np.real(np.sum(rho * op.matrix.T)))
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
    _check_count("repetitions", repetitions)
    if noise is None:
        et = params.resolve_trial_energy(op)
        rows = spectral_run(op, params.tau, et, psi0, repetitions, extended=True)
        if rows.failed[0]:
            raise _postselection_failed(int(rows.failed[0]), float(rows.p0[0]))
        extended, energy = rows.extended[0], float(rows.energy[0])
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
    )


def state_fidelity(a, b) -> float:
    """|<a|b>|^2 for normalized state vectors."""
    va = normalized_state(a)
    vb = normalized_state(b)
    if va.size != vb.size:
        raise DimensionMismatch(f"state dims {va.size} and {vb.size} differ")
    return float(abs(va.conj() @ vb) ** 2)
