"""Dense complex linear algebra for small Hermitian problems.

Everything here operates on plain ``numpy`` arrays. The one structured type
is :class:`HermitianOperator`, which caches the spectral decomposition of a
validated Hermitian matrix; all operator functions (propagators, filters)
are built through that spectrum.

Eigendecompositions are deterministic: degenerate clusters are
re-orthonormalized in a fixed order and every eigenvector's phase is pinned,
so equal inputs give bitwise-equal outputs.
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
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        mags = np.abs(col)
        top = mags.max()
        pivot = int(np.nonzero(mags >= top - 1e-12)[0][0])
        phase = col[pivot] / abs(col[pivot])
        out[:, k] = col * np.conj(phase)
    return out


def _degenerate_clusters(eigenvalues: np.ndarray, tol: float):
    """Split ascending eigenvalues into clusters of near-equal values.

    A cluster ends where the next gap reaches ``tol * max(1, |E|)`` of the
    value below it. Returns ``(start, stop)`` index pairs.
    """
    w = np.asarray(eigenvalues)
    gaps = np.diff(w) >= tol * np.maximum(1.0, np.abs(w[:-1]))
    edges = [0, *(np.flatnonzero(gaps) + 1).tolist(), w.size]
    return list(zip(edges[:-1], edges[1:]))


def eigh(
    matrix,
    *,
    hermiticity_tol: float = HERMITICITY_TOL,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as the columns of a unitary matrix. Within a degenerate
    cluster the basis is re-orthonormalized (Gram-Schmidt in index order)
    and columns are sorted lexicographically by their rounded entries, so
    the output is deterministic even when the subspace basis is arbitrary.

    Raises NonHermitianInput if the symmetry check fails and NoConvergence
    if the underlying solver breaks down.
    """
    m = _as_square_complex(matrix)
    if max_abs(m - m.conj().T) > hermiticity_tol:
        raise NonHermitianInput(
            f"matrix is not Hermitian within {hermiticity_tol:g}"
        )
    sym = (m + m.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc

    for lo, hi in _degenerate_clusters(w, degeneracy_tol):
        if hi - lo == 1:
            continue
        block = v[:, lo:hi]
        # Gram-Schmidt in index order keeps the subspace but fixes the basis.
        for j in range(block.shape[1]):
            col = block[:, j]
            for i in range(j):
                col = col - block[:, i] * (block[:, i].conj() @ col)
            norm = np.linalg.norm(col)
            if norm < 1e-12:
                raise NoConvergence("degenerate cluster lost rank during re-orthonormalization")
            block[:, j] = col / norm
        block = _fix_eigenvector_phases(block)
        # Deterministic within-cluster order: descending lexicographic on the
        # rounded entries, so an identity-like basis keeps its natural order.
        keys = [
            tuple(np.round(np.column_stack([block[:, j].real, block[:, j].imag]), 9).ravel())
            for j in range(block.shape[1])
        ]
        order = sorted(range(block.shape[1]), key=keys.__getitem__, reverse=True)
        v[:, lo:hi] = block[:, order]

    v = _fix_eigenvector_phases(v)
    if max_abs((v * w) @ v.conj().T - sym) > RECONSTRUCTION_TOL:
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
        m = _as_square_complex(matrix)
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

    def function(self, f) -> np.ndarray:
        """Alias for :func:`matrix_function` on this operator."""
        return matrix_function(self, f)


def matrix_function(op: HermitianOperator, f) -> np.ndarray:
    """Apply a scalar map to an operator through its spectrum.

    Returns ``V diag(f(E_n)) V^dagger``. ``f`` may be a numpy ufunc or any
    scalar callable; it must be finite on the spectrum.
    """
    w = op.eigenvalues
    try:
        fw = np.asarray(f(w), dtype=complex)
        if fw.shape != w.shape:
            raise TypeError
    except (TypeError, ValueError):
        fw = np.array([f(e) for e in w], dtype=complex)
    if not np.all(np.isfinite(fw)):
        raise NonFiniteFunctionValue("function produced NaN/Inf on the spectrum")
    v = op.eigenvectors
    return (v * fw) @ v.conj().T
