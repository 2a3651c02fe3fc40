"""Imaginary-time filter operator and its unitary dilation.

The non-unitary imaginary-time step is realized as the top-left block of a
unitary acting on the system extended by one reservoir (ancilla) qubit.
With the spectral filter

    h(E) = 1 / sqrt(1 + exp(2 (E - E_T) tau))

the dilation is the block matrix ``[[Q, R], [R, -Q]]`` where ``Q`` applies
``h`` to the spectrum and ``R`` applies ``r = sqrt(1 - h^2)``, which is the
same profile mirrored about E_T: ``r(E) = h(2 E_T - E)``. The ancilla
is the leading tensor factor: extended index = ancilla * N + system.

``h`` is evaluated in an overflow-safe piecewise form; the textbook form
``exp(-(H - E_T) tau) (1 + exp(-2 (H - E_T) tau))^(-1/2)`` overflows for
spectrum below the trial energy at large tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnitarityCheckFailed, ZeroVector
from .linalg import HermitianOperator, matrix_function, max_abs

TRIAL_MODES = ("absolute", "ground_state_exact", "fraction_of_ground")

_EXP_CAP = 700.0  # exp argument beyond which double precision overflows


@dataclass(frozen=True)
class ItpParams:
    """Imaginary time step and trial-energy policy.

    ``tau`` is in inverse units of the Hamiltonian (Hartree^-1, MeV^-1, ...).
    ``trial_mode`` selects how the shift E_T is obtained:

    - "absolute": use ``trial_energy`` as given,
    - "ground_state_exact": E_T = E_0 from the spectrum,
    - "fraction_of_ground": E_T = fraction * E_0 (the sweep protocol).
    """

    tau: float
    trial_energy: float = 0.0
    trial_mode: str = "absolute"
    fraction: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")
        if self.trial_mode not in TRIAL_MODES:
            raise ValueError(f"trial_mode must be one of {TRIAL_MODES}")
        if not np.isfinite(self.trial_energy):
            raise ValueError("trial_energy must be finite")
        if self.trial_mode == "fraction_of_ground" and not self.fraction > 0:
            raise ValueError("fraction must be > 0")

    def resolve_trial_energy(self, op: HermitianOperator) -> float:
        if self.trial_mode == "absolute":
            return float(self.trial_energy)
        if self.trial_mode == "ground_state_exact":
            return op.ground_energy
        return self.fraction * op.ground_energy


def filter_profile(energies, tau: float, trial_energy: float) -> np.ndarray:
    """Scalar filter h(E) = 1/sqrt(1 + exp(2 (E - E_T) tau)), overflow-safe.

    Strictly decreasing in E, with values in (0, 1); h(E_T) = 2**-0.5.
    The complementary profile r = sqrt(1 - h^2) of the dilation's R block
    is ``filter_profile(-E, tau, -E_T)``.
    """
    x = 2.0 * (np.asarray(energies, dtype=float) - trial_energy) * tau
    out = np.empty_like(x)
    hi = x > _EXP_CAP
    lo = x < -_EXP_CAP
    mid = ~(hi | lo)
    out[hi] = np.exp(-x[hi] / 2.0)
    out[lo] = 1.0
    out[mid] = 1.0 / np.sqrt(1.0 + np.exp(x[mid]))
    return out


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
    with Q^2 + R^2 = I. ``trial_energy`` is the resolved E_T.
    """

    system_dim: int
    matrix: np.ndarray
    q_block: np.ndarray
    r_block: np.ndarray
    params: ItpParams
    trial_energy: float

    @property
    def dim(self) -> int:
        return 2 * self.system_dim


def build_dilation(op: HermitianOperator, params: ItpParams) -> DilationUnitary:
    """Construct the dilation unitary for one imaginary-time step.

    Raises UnitarityCheckFailed if the assembled matrix deviates from
    unitarity by more than 1e-10 in max-entry norm (numerical breakdown).
    """
    et = params.resolve_trial_energy(op)
    v = op.eigenvectors
    hw = filter_profile(op.eigenvalues, params.tau, et)
    rw = filter_profile(-op.eigenvalues, params.tau, -et)
    q = (v * hw) @ v.conj().T
    r = (v * rw) @ v.conj().T
    u = np.block([[q, r], [r, -q]])
    defect = max_abs(u.conj().T @ u - np.eye(2 * op.dim))
    if defect >= 1e-10:
        raise UnitarityCheckFailed(f"||U^dag U - I||_max = {defect:.3e}")
    for a in (u, q, r):
        a.setflags(write=False)
    return DilationUnitary(
        system_dim=op.dim,
        matrix=u,
        q_block=q,
        r_block=r,
        params=params,
        trial_energy=et,
    )


def classical_itp(
    op: HermitianOperator, params: ItpParams, psi
) -> tuple[np.ndarray, np.ndarray]:
    """Reference imaginary-time propagation exp(-(H - E_T) tau) |psi>.

    Returns ``(unnormalized, normalized)``. The normalized state is computed
    in log space (stable for any tau); the unnormalized vector is the direct
    matrix-function application and raises ZeroVector when it underflows.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (op.dim,):
        raise DimensionMismatch(
            f"state has shape {psi.shape}, operator dim is {op.dim}"
        )
    et = params.resolve_trial_energy(op)
    exponents = -(op.eigenvalues - et) * params.tau
    v = op.eigenvectors
    coeffs = v.conj().T @ psi

    with np.errstate(over="ignore", under="ignore"):
        unnormalized = v @ (np.exp(exponents) * coeffs)

    # Stable normalized state: factor out the dominant exponent among the
    # populated eigencomponents before exponentiating.
    populated = np.abs(coeffs) > 0
    if not np.any(populated):
        raise ZeroVector("input state has zero norm")
    shift = np.max(exponents[populated])
    scaled = np.zeros_like(coeffs)
    scaled[populated] = np.exp(exponents[populated] - shift) * coeffs[populated]
    norm = np.linalg.norm(scaled)
    if norm == 0.0:
        raise ZeroVector("propagated state underflowed to zero")
    normalized = v @ (scaled / norm)

    if np.linalg.norm(unnormalized) < 1e-300:
        raise ZeroVector("propagated state norm below 1e-300")
    return unnormalized, normalized
