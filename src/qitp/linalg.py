"""Dense complex linear algebra for small Hermitian problems.

Everything here operates on plain ``numpy`` arrays. The one structured type
is :class:`HermitianOperator`, which caches the spectral decomposition of a
validated Hermitian matrix; all operator functions (the dilation's filter
blocks) are built through that spectrum.

Eigendecompositions are the solver's eigenpairs with each eigenvector's
phase pinned, so equal inputs give bitwise-equal outputs. Within a cluster of
near-equal eigenvalues only the invariant subspace is well determined, not
its basis; results meant to be basis-free (matrix functions, the ground
eigenspace weight) depend only on the cluster. Tolerances scale with
``max_abs(H)``: the constants below are their values at ``max_abs(H) = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NoConvergence,
    NonFiniteFunctionValue,
    NonHermitianInput,
)

MAX_DIM = 64

HERMITICITY_TOL = 1e-10
RECONSTRUCTION_TOL = 1e-10
DEGENERACY_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def max_abs(m) -> float:
    """Max-entry norm; 0.0 for empty input."""
    m = np.asarray(m)
    return float(np.max(np.abs(m))) if m.size else 0.0


def _apply_1q(m: np.ndarray, t: np.ndarray, qubit: int) -> np.ndarray:
    """Apply the 2x2 matrix ``m`` to bit ``qubit`` of the first index of ``t``.

    Qubit 0 is the most significant bit; ``t`` has ``2**k`` rows for some
    ``k > qubit`` and any trailing shape. Equals ``kron(I, m, I) @ t``
    without forming the Kronecker product.
    """
    return (m @ t.reshape(2**qubit, 2, -1)).reshape(t.shape)


def _as_square_complex(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[0] > MAX_DIM:
        raise DimensionError(
            f"dimension {m.shape[0]} outside supported range 1..{MAX_DIM}"
        )
    if not np.all(np.isfinite(m)):
        raise NonHermitianInput("matrix has non-finite entries")
    return m


def _fix_eigenvector_phases(vectors: np.ndarray) -> np.ndarray:
    """Pin each column's phase: its largest-magnitude entry becomes real > 0.

    Ties on magnitude (within 1e-12) resolve to the lowest row index, so the
    result is deterministic.
    """
    mags = np.abs(vectors)
    pivots = np.argmax(mags >= mags.max(axis=0) - 1e-12, axis=0)
    # scalar divisions: numpy's array division differs from them in the last bit
    phases = [p / abs(p) for p in vectors[pivots, np.arange(vectors.shape[1])]]
    return vectors * np.conj(phases)


def _ground_cluster_end(eigenvalues: np.ndarray, scale: float) -> int:
    """Index one past the lowest cluster of near-equal values in a spectrum.

    The cluster ends at the first gap in the ascending eigenvalues that
    exceeds ``DEGENERACY_TOL * max(scale, |E|)`` of the value below it,
    ``scale`` being ``max_abs(H)``; a spectrum without such a gap (a zero
    matrix, a single level) is one cluster.
    """
    w = np.asarray(eigenvalues)
    gaps = np.diff(w) > DEGENERACY_TOL * np.maximum(scale, np.abs(w[:-1]))
    # a sentinel gap after the last value ends the cluster there
    return int(np.argmax(np.append(gaps, True))) + 1


def eigh(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the columns of a unitary matrix, ``eigenvectors[:, k]``
    belonging to ``eigenvalues[k]``. Each column's phase is pinned; within a
    cluster of near-equal eigenvalues the basis is the solver's, so only
    sums over the cluster are basis-free.

    Raises NonHermitianInput if the symmetry check fails and NoConvergence
    if the underlying solver breaks down. The Hermiticity and reconstruction
    tolerances are relative to ``max_abs(matrix)``.
    """
    m = _as_square_complex(matrix)
    scale = max_abs(m)
    if max_abs(m - m.conj().T) > HERMITICITY_TOL * scale:
        raise NonHermitianInput(
            f"matrix is not Hermitian within {HERMITICITY_TOL:g} of its largest entry"
        )
    sym = (m + m.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc
    v = _fix_eigenvector_phases(v)
    if max_abs((v * w) @ v.conj().T - sym) > RECONSTRUCTION_TOL * scale:
        raise NoConvergence("spectral reconstruction error exceeds tolerance")
    return w, v


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix with its cached spectral decomposition.

    ``eigenvalues`` are ascending; ``eigenvectors[:, n]`` is the n-th
    eigenstate. ``units`` tags the energy scale ("hartree", "mev", or
    "dimensionless") and is carried through serialization.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    units: str = "dimensionless"

    VALID_UNITS = ("hartree", "mev", "dimensionless")

    @classmethod
    def from_matrix(cls, matrix, units: str = "dimensionless") -> "HermitianOperator":
        if units not in cls.VALID_UNITS:
            raise ValueError(f"units must be one of {cls.VALID_UNITS}, got {units!r}")
        m = np.array(matrix, dtype=complex)  # a copy: never the caller's array
        w, v = eigh(m)
        m.setflags(write=False)
        w.setflags(write=False)
        v.setflags(write=False)
        return cls(matrix=m, eigenvalues=w, eigenvectors=v, units=units)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def ground_state(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


def matrix_function(op: HermitianOperator, f) -> np.ndarray:
    """Apply a scalar map to an operator through its spectrum.

    Returns ``V diag(f(E_n)) V^dagger``. ``f`` receives the eigenvalue array
    and must return values that broadcast to its shape (ValueError
    otherwise), all finite (NonFiniteFunctionValue otherwise).
    """
    w = op.eigenvalues
    fw = np.broadcast_to(np.asarray(f(w), dtype=complex), w.shape)
    if not np.all(np.isfinite(fw)):
        raise NonFiniteFunctionValue("function produced NaN/Inf on the spectrum")
    v = op.eigenvectors
    return (v * fw) @ v.conj().T
