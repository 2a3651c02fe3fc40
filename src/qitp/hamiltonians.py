"""Benchmark Hamiltonians: hydrogen in a two-Gaussian basis, two-neutron spins.

Hydrogen: the radial 1s problem expanded over the two *primitive* scaled
Gaussians of the STO-2G fit. Only the fit's exponents define that space; its
contraction coefficients pick one vector inside it and are not used. All
integrals are closed forms for normalized nucleus-centered 1s Gaussians:

    S(a, b) = (2 sqrt(ab) / (a + b))^(3/2)
    T(a, b) = 3ab / (a + b) * S(a, b)
    V(a, b) = -2 sqrt((a + b) / pi) * S(a, b)     (Z = 1)

The non-orthogonal pair is orthonormalized before use. The default is the
canonical transform X = V_S s^(-1/2) (overlap eigenbasis, ascending), which
is the convention that reproduces the reference occupation tables; the
symmetric variant X = S^(-1/2) is available as well. Either way
X^dag S X = I and the spectrum equals the generalized spectrum of (H, S).

Two neutrons at fixed separation: the spin-dependent interaction
``a1 * sum_k s1_k s2_k + sum_jk s1_j a2[j,k] s2_k`` over Pauli operators,
with a free vector coupling a1 and symmetric tensor coupling a2 (the radial
profiles behind them are inputs, not computed here).

Hamiltonians round-trip through a small JSON schema; see
:func:`save_hamiltonian` / :func:`load_hamiltonian`.
"""

from __future__ import annotations

import gc
import json
import sys
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    DimensionError,
    ParseError,
    SingularOverlap,
)
from .linalg import (
    MAX_DIM,
    HermitianOperator,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _integer,
    _is_finite_real,
    _real_array,
    eigh,
    max_abs,
)

PAULI_VECTOR = (PAULI_X, PAULI_Y, PAULI_Z)
# The STO-2G fit of a 1s Slater orbital at zeta = 1 (Hehre, Stewart & Pople, 1969).
STO2G_EXPONENTS = (0.151623, 0.851819)


def gaussian_overlap(alpha: float, beta: float) -> float:
    """Overlap of two normalized 1s Gaussians; symmetric, in (0, 1]. Raises
    ValueError unless both exponents are positive and finite and their
    product is a normal float (at least ``sys.float_info.min``): below it
    ``sqrt(alpha * beta)`` loses bits, and the integrals with it."""
    if not (_is_finite_real(alpha) and _is_finite_real(beta) and alpha > 0 and beta > 0):
        raise ValueError("Gaussian exponents must be positive and finite")
    if alpha * beta < sys.float_info.min:
        raise ValueError(
            f"Gaussian exponents {alpha!r} and {beta!r}: their product is below the "
            f"smallest normal float {sys.float_info.min!r}"
        )
    return float((2.0 * np.sqrt(alpha * beta) / (alpha + beta)) ** 1.5)


def gaussian_kinetic(alpha: float, beta: float) -> float:
    """Kinetic integral <g_a| -grad^2/2 |g_b> in Hartree; positive. The
    exponents' domain is that of :func:`gaussian_overlap`."""
    s = gaussian_overlap(alpha, beta)  # validates the exponents first
    return 3.0 * alpha * beta / (alpha + beta) * s


def gaussian_nuclear(alpha: float, beta: float) -> float:
    """Nuclear attraction <g_a| -1/r |g_b> in Hartree (Z = 1); negative. The
    exponents' domain is that of :func:`gaussian_overlap`."""
    s = gaussian_overlap(alpha, beta)  # validates the exponents first
    return -2.0 * np.sqrt((alpha + beta) / np.pi) * s


def orthonormalize(h_raw, s, method: str = "canonical") -> tuple[np.ndarray, np.ndarray]:
    """Transform a Hamiltonian out of a non-orthogonal basis.

    Returns ``(h_orth, x)`` with ``x^dag s x = I`` and
    ``h_orth = x^dag h_raw x``; the spectrum of ``h_orth`` equals the
    generalized spectrum of ``(h_raw, s)``. ``method`` picks the transform:

    - "canonical": x = V diag(w^-1/2) over the overlap eigenbasis
      (ascending), each eigenvector phased so its last component is
      non-negative. This pins the computational-basis convention under
      which the reference occupation tables are stated.
    - "lowdin": the symmetric square root x = s^(-1/2).

    Raises SingularOverlap when the overlap matrix is numerically singular.
    """
    if method not in ("canonical", "lowdin"):
        raise ValueError("method must be 'canonical' or 'lowdin'")
    h_raw = np.asarray(h_raw, dtype=complex)
    w, v = eigh(s)
    if w[0] < 1e-10:
        raise SingularOverlap(f"overlap matrix has eigenvalue {w[0]:.3e}")
    v = v.copy()
    for k in range(v.shape[1]):
        if v[-1, k].real < 0:
            v[:, k] = -v[:, k]
    x = v * (w**-0.5)
    if method == "lowdin":
        x = x @ v.conj().T
    h_orth = x.conj().T @ h_raw @ x
    h_orth = (h_orth + h_orth.conj().T) / 2.0
    return h_orth, x


def hydrogen_sto2g(
    exponents=STO2G_EXPONENTS,
    slater_zeta: float = 1.0,
    *,
    orthogonalization: str = "canonical",
) -> tuple[HermitianOperator, np.ndarray, np.ndarray]:
    """Hydrogen Hamiltonian on the orthonormalized primitive pair.

    ``exponents`` are the two primitives' exponents at zeta = 1; each is
    scaled by ``slater_zeta**2``. Returns ``(h_orth, overlap, transform)``
    with ``h_orth`` in Hartree and ``transform^dag overlap transform = I``.
    The default "canonical" orthogonalization is the convention of the
    reference tables; "lowdin" gives the symmetric transform (same spectrum,
    rotated basis). Raises ValueError unless the exponents are a sequence of
    two and they and the zeta are positive and finite, when ``slater_zeta**2``
    or an integral of the scaled exponents exceeds the float range, and when
    the product of two scaled exponents is not a normal float (zeta below
    about 3.1e-77 at the default exponents).
    """
    if np.shape(exponents) != (2,):  # also None, a bare number, a set or a dict
        raise ValueError("basis needs a sequence of exactly two primitives")
    if not all(_is_finite_real(e) and e > 0 for e in exponents):
        raise ValueError("exponents must be positive and finite")
    if not (_is_finite_real(slater_zeta) and slater_zeta > 0):
        raise ValueError("slater_zeta must be positive and finite")
    try:
        a = [slater_zeta**2 * e for e in exponents]
    except OverflowError:
        raise ValueError("slater_zeta**2 exceeds the float range") from None
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite integral is rejected below
        s = np.array([[gaussian_overlap(x, y) for y in a] for x in a])
        h_raw = np.array([[gaussian_kinetic(x, y) + gaussian_nuclear(x, y) for y in a] for x in a])
    if not (np.isfinite(s).all() and np.isfinite(h_raw).all()):
        raise ValueError("scaled exponents too large: an integral exceeds the float range")
    h_orth, x = orthonormalize(h_raw, s, orthogonalization)
    op = HermitianOperator.from_matrix(h_orth, units="hartree")
    return op, s, x


@dataclass(frozen=True)
class SpinCouplings:
    """Vector and tensor couplings of the two-neutron spin interaction (MeV).

    ``a2`` must be real symmetric; it is accepted as a full matrix because
    the radial functional forms behind it are external inputs. An ``a1`` or
    ``a2`` entry that is not a real number (text, complex, a bool) raises ValueError.
    """

    a1: float
    a2: np.ndarray

    def __post_init__(self):
        a2 = _real_array(self.a2, "a2")
        if a2.shape != (3, 3):
            raise ValueError(f"a2 must be 3x3, got {a2.shape}")
        if not _is_finite_real(self.a1) or not np.all(np.isfinite(a2)):
            raise ValueError("couplings must be finite")
        with np.errstate(over="ignore"):  # an infinite difference is still asymmetric
            asymmetry = max_abs(a2 - a2.T)
        if asymmetry > 1e-12:
            raise ValueError("a2 must be symmetric within 1e-12")
        object.__setattr__(self, "a2", a2)


def two_neutron_sd(couplings: SpinCouplings) -> HermitianOperator:
    """Spin-dependent two-neutron interaction on the 4-dim spin space.

    Basis order |dd>, |du>, |ud>, |uu> (first spin major). Traceless and
    Hermitian for any valid couplings; ``a1`` alone gives the
    singlet/triplet split {-3 a1, a1, a1, a1}. Raises ValueError when an
    entry of the sum exceeds the float range.
    """
    v = np.zeros((4, 4), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is rejected below
        for k in range(3):
            v += couplings.a1 * np.kron(PAULI_VECTOR[k], PAULI_VECTOR[k])
        for j in range(3):
            for k in range(3):
                v += couplings.a2[j, k] * np.kron(PAULI_VECTOR[j], PAULI_VECTOR[k])
    if not np.isfinite(v).all():
        raise ValueError("couplings too large: the interaction exceeds the float range")
    return HermitianOperator.from_matrix(v, units="mev")


def save_hamiltonian(op: HermitianOperator, path, provenance: dict | None = None) -> None:
    """Write the Hamiltonian JSON schema (dim, units, matrix as [re, im]
    pairs, optional provenance); OSError if the path cannot be written."""
    doc = {
        "dim": op.dim,
        "units": op.units,
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in op.matrix],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_hamiltonian(path) -> HermitianOperator:
    """Load a Hamiltonian from a JSON file written by :func:`save_hamiltonian`.

    ``path`` is a path, whatever its characters; an unreadable file or
    invalid JSON raises ParseError. Validates the schema, the dimension range
    (1..64) and finite numeric entries (NaN, Infinity, ``true``, ``false`` or
    an integer beyond the float range raise ParseError); :func:`eigh` rejects
    a matrix that is not Hermitian within 1e-10 of its largest entry with
    NonHermitianInput.

    The decode runs with the cyclic garbage collector paused, and the
    caller's setting is restored on every path. Another thread that enables
    or disables ``gc`` during a load can have its setting overwritten.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    # A decoded document has no reference cycle: refcounting frees it all, deferring no work.
    enabled = gc.isenabled()
    gc.disable()
    try:
        units, m = _decode(text)
    finally:
        if enabled:
            gc.enable()
    return HermitianOperator.from_matrix(m, units=units)


def _decode(text: str) -> tuple[str, np.ndarray]:
    """The units and complex matrix of a Hamiltonian document, checked
    against the schema as :func:`load_hamiltonian` describes."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, a huge integer, deep nesting
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("Hamiltonian document must be a JSON object")
    for key in ("dim", "units", "matrix"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    dim = _integer(doc["dim"], "dim", 1, DimensionError)
    if dim > MAX_DIM:
        raise DimensionError(f"dim must be an integer in 1..{MAX_DIM}, got {dim!r}")
    units = doc["units"]
    if units not in HermitianOperator.VALID_UNITS:
        raise ParseError(f"units must be one of {HermitianOperator.VALID_UNITS}")
    rows = doc["matrix"]
    try:
        m = np.array(
            [[complex(re, im) for re, im in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"matrix entries must be [re, im] pairs: {exc}") from exc
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ParseError("matrix entries must be finite") from exc
    # complex() takes true and false as 1 and 0. The key units puts a u in the
    # text, escaped or not, so a true literal needs a second u and a false one
    # an f; only a text with either is scanned.
    entries = chain.from_iterable(chain.from_iterable(rows))
    spells_bool = "f" in text or text.find("u", text.find("u") + 1) >= 0
    if spells_bool and bool in set(map(type, entries)):
        raise ParseError("matrix entries must be numbers, not true or false")
    if not np.all(np.isfinite(m)):
        raise ParseError("matrix entries must be finite")
    if m.shape != (dim, dim):
        raise DimensionError(f"matrix shape {m.shape} does not match dim {dim}")
    return units, m
