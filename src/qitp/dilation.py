"""Imaginary-time filter operator and its unitary dilation.

The non-unitary imaginary-time step is realized as the top-left block of a
unitary acting on the system extended by one reservoir (ancilla) qubit.
With the spectral filter

    h(E) = 1 / sqrt(1 + exp(2 (E - E_T) tau))

the dilation is the block matrix ``[[Q, R], [R, -Q]]`` where ``Q`` applies
``h`` to the spectrum and ``R`` applies ``r = sqrt(1 - h^2)``, which is the
same profile mirrored about E_T: ``r(E) = h(2 E_T - E)``. The ancilla
is the leading tensor factor: extended index = ancilla * N + system.

``h`` is evaluated through ``log h^2 = -logaddexp(0, 2 (E - E_T) tau)``; the
textbook form ``exp(-(H - E_T) tau) (1 + exp(-2 (H - E_T) tau))^(-1/2)``
overflows for spectrum below the trial energy at large tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnitarityCheckFailed
from .linalg import HermitianOperator, matrix_function, max_abs

TRIAL_MODES = ("absolute", "ground_state_exact")


@dataclass(frozen=True)
class ItpParams:
    """Imaginary time step and trial-energy policy.

    ``tau`` is in inverse units of the Hamiltonian (Hartree^-1, MeV^-1, ...).
    ``trial_mode`` selects how the shift E_T is obtained:

    - "absolute": use ``trial_energy`` as given,
    - "ground_state_exact": E_T = E_0 from the spectrum.
    """

    tau: float
    trial_energy: float = 0.0
    trial_mode: str = "absolute"

    def __post_init__(self):
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if self.trial_mode not in TRIAL_MODES:
            raise ValueError(f"trial_mode must be one of {TRIAL_MODES}")
        if not np.isfinite(self.trial_energy):
            raise ValueError("trial_energy must be finite")

    def resolve_trial_energy(self, op: HermitianOperator) -> float:
        if self.trial_mode == "ground_state_exact":
            return op.ground_energy
        return float(self.trial_energy)


def log_filter_squared(energies, tau, trial_energy) -> np.ndarray:
    """log h(E)^2 = -logaddexp(0, 2 (E - E_T) tau); see :func:`filter_profile`."""
    with np.errstate(over="ignore", invalid="ignore"):
        half = np.asarray(energies, dtype=float) / 2 - np.asarray(trial_energy, dtype=float) / 2
        x = half * tau * 4.0
    if np.isnan(x).any():
        raise ValueError("(E - E_T) * tau is undefined: a NaN, inf - inf or 0 * inf")
    return -np.logaddexp(0.0, x)


def filter_profile(energies, tau: float, trial_energy: float) -> np.ndarray:
    """Scalar filter h(E) = 1/sqrt(1 + exp(2 (E - E_T) tau)) = exp(log h^2 / 2).

    Decreasing in E, with values in [0, 1]; h(E_T) = 2**-0.5, as is every
    value at tau = 0. The complementary profile r = sqrt(1 - h^2) of the
    dilation's R block is ``filter_profile(-E, tau, -E_T)``. Any finite E,
    E_T and tau >= 0 are accepted: the halves E/2 - E_T/2 never overflow,
    and an exponent 2 (E - E_T) tau beyond the float range is an infinity
    whose limit logaddexp takes. Infinite input goes to its limit; a NaN
    (E - E_T) tau (NaN input, inf - inf, 0 * inf) raises ValueError.
    """
    return np.exp(log_filter_squared(energies, tau, trial_energy) / 2)


def itp_filter(op: HermitianOperator, params: ItpParams) -> np.ndarray:
    """The imaginary-time filter operator (the dilation's kept block).

    Hermitian, with eigenvalues ``h(E_n)`` in (0, 1); at tau = 0 it reduces
    to ``2**-0.5 * I``.
    """
    et = params.resolve_trial_energy(op)
    return matrix_function(op, lambda e: filter_profile(e, params.tau, et))


@dataclass(frozen=True)
class DilationUnitary:
    """The 2N x 2N unitary embedding of the imaginary-time filter.

    ``matrix`` has block layout [[Q, R], [R, -Q]]; ``q_block`` and
    ``r_block`` are commuting Hermitian functions of the same Hamiltonian
    with Q^2 + R^2 = I.
    """

    system_dim: int
    matrix: np.ndarray
    q_block: np.ndarray
    r_block: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * self.system_dim


def build_dilation(op: HermitianOperator, params: ItpParams) -> DilationUnitary:
    """Construct the dilation unitary for one imaginary-time step.

    Raises UnitarityCheckFailed if ``U^dag U - I``, whose N x N blocks are
    ``Q^dag Q + R^dag R - I`` and ``+-(Q^dag R - R^dag Q)``, reaches 1e-10 in
    max-entry norm or is NaN (numerical breakdown).
    """
    et = params.resolve_trial_energy(op)
    q = itp_filter(op, params)
    r = matrix_function(op, lambda e: filter_profile(-e, params.tau, -et))
    n = op.dim
    u = np.empty((2 * n, 2 * n), dtype=complex)
    u[:n, :n], u[:n, n:], u[n:, :n], u[n:, n:] = q, r, r, -q
    qh, rh = q.conj().T, r.conj().T
    defect = float(np.maximum(max_abs(qh @ q + rh @ r - np.eye(n)), max_abs(qh @ r - rh @ q)))
    if not defect < 1e-10:
        raise UnitarityCheckFailed(f"||U^dag U - I||_max = {defect:.3e}")
    for a in (u, q, r):
        a.setflags(write=False)
    return DilationUnitary(system_dim=op.dim, matrix=u, q_block=q, r_block=r)
