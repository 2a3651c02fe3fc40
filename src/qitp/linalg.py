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

:func:`eigh` solves H scaled by the power of two that brings its largest
real or imaginary part into [0.5, 1), as :func:`qitp.simulate.normalized_state`
scales states, and scales the eigenvalues back. Power-of-two scaling is
exact, so the solver never sees a matrix outside its safe range, and
``2**k * H`` gives the same eigenvectors and ``2**k`` times the same
eigenvalues, bit for bit, while every entry and eigenvalue stays normal.

Every module checks its input by three rules, kept here. An integer
(:func:`_integer`) is a Python or numpy integer, not a bool. A real scalar
(:func:`_is_real`) is a value ``math.isfinite`` takes that is not a bool or
complex (numpy's too): not text, None or an int beyond the float range, while
a ``Fraction`` or an int above 2**64 is one. A real array (:func:`_real_array`)
is an integer or float ndarray, or input whose every entry is a real scalar.
"""

from __future__ import annotations

import math
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
    return float(np.abs(m).max()) if m.size else 0.0


def _integer(x, what: str, low: int | None = None, error: type[Exception] = ValueError) -> int:
    """x as an int: a Python or numpy integer other than a bool, at least
    ``low`` when given. Raises ``error``, naming ``what`` but no value, otherwise."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise error(f"{what} must be an integer, got {type(x).__name__}")
    if low is not None and x < low:
        raise error(f"{what} must be >= {low}")
    return int(x)


def _is_real(x) -> bool:
    """Whether x is a real number: a value ``math.isfinite`` takes that is not a
    bool or complex (``math.isfinite`` cuts numpy complex to its real part)."""
    if isinstance(x, (bool, np.bool_, complex, np.complexfloating)):
        return False
    try:
        math.isfinite(x)
    except (TypeError, OverflowError):
        return False
    return True


def _is_finite_real(x) -> bool:
    """Whether x is a finite real number (:func:`_is_real`)."""
    return _is_real(x) and math.isfinite(x)


def _real_array(x, what: str, error: type[Exception] = ValueError) -> np.ndarray:
    """x as a float array. Raises ``error``, naming ``what``, unless every
    entry is a real number (:func:`_is_real`). An integer or float ndarray
    passes unscanned; other input is scanned entry by entry, since numpy
    reads ``[0.5, True]`` as float64 and text as numbers."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iuf":
        return x.astype(float, copy=False)
    a = np.asarray(x, dtype=object)
    for entry in a.flat:
        if not _is_real(entry):
            kind = type(entry).__name__  # not its repr: an int past 4300 digits has none
            raise error(f"{what} must be real numbers in the float range, got {kind}")
    return a.astype(float)


def _power_of_two_scaled(a) -> tuple[np.ndarray, int]:
    """A complex array times ``2**-e`` and e, the frexp exponent of its largest
    real or imaginary part, so that part lands in [0.5, 1); e is 0 for an
    array of zeros. Exact unless a part falls below the normal range."""
    parts = np.ascontiguousarray(a, dtype=complex).view(float)
    e = int(np.frexp(np.abs(parts).max(initial=0.0))[1])
    return np.ldexp(parts, -e).view(complex), e


def _apply_1q(m: np.ndarray, t: np.ndarray, qubit: int) -> np.ndarray:
    """Apply the 2x2 matrix ``m`` to bit ``qubit`` of the first index of ``t``.

    Qubit 0 is the most significant bit; ``t`` has ``2**k`` rows for some
    ``k > qubit`` and any trailing shape. Equals ``kron(I, m, I) @ t``
    without forming the Kronecker product.
    """
    return (m @ t.reshape(2**qubit, 2, -1)).reshape(t.shape)


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
    with np.errstate(over="ignore"):  # a span beyond the float range is an infinite gap
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

    Raises NonHermitianInput if the symmetry check fails, NoConvergence
    if the underlying solver breaks down, and NonFiniteFunctionValue for a
    spectrum beyond the float range. The Hermiticity and reconstruction
    tolerances are relative to ``max_abs(matrix)``; both checks and the
    solver run on the power-of-two scaled matrix (module docstring).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[0] > MAX_DIM:
        raise DimensionError(
            f"dimension {m.shape[0]} outside supported range 1..{MAX_DIM}"
        )
    if not np.all(np.isfinite(m)):
        raise NonHermitianInput("matrix has non-finite entries")
    m, e = _power_of_two_scaled(m)
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
    with np.errstate(over="ignore"):
        w = np.ldexp(w, e)
    if not np.all(np.isfinite(w)):
        raise NonFiniteFunctionValue("spectrum exceeds the float range")
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
