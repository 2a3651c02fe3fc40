"""Shared generators for the test suite: seeded Hermitian and Haar samples,
numpy rotation matrices as oracles for the transpiler's scalar forms, and
the Weyl-chamber step tables rebuilt from their Clifford pairs."""

import math

import numpy as np


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (m + m.conj().T) / 2.0


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.diag([complex(math.cos(theta / 2), -math.sin(theta / 2)),
                    complex(math.cos(theta / 2), math.sin(theta / 2))])


# The magic basis and the Paulis, written out here rather than imported, so
# the Weyl-step oracle shares no numbers with the transpiler.
MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / math.sqrt(2)
PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def magic_signed_permutation(a, b):
    """``(perm, flips)`` with M^dag (a (x) b) M = I[:, perm] diag(flips), for a
    Clifford pair whose magic-basis image is a real signed permutation."""
    image = MAGIC.conj().T @ np.kron(a, b) @ MAGIC
    perm = np.argmax(np.abs(image), axis=0)
    flips = image[perm, np.arange(4)]
    assert np.abs(image - np.eye(4)[:, perm] * flips).max() < 1e-15
    assert np.abs(flips - np.round(flips.real)).max() < 1e-15
    return tuple(perm.tolist()), tuple(int(f) for f in np.round(flips.real))


def weyl_step_tables():
    """The Weyl-chamber steps rebuilt from their Cliffords, keyed by the pair
    of axes (j, k) each acts on: the swaps of (0, 1) and (1, 2) by s (x) s
    with s = i(P_j + P_k) / sqrt 2, and the negations of (0, 2) and (1, 2) by
    i P (x) I with P the third Pauli."""
    swaps = {}
    for j, k in ((0, 1), (1, 2)):
        s = 1j * (PAULIS[j] + PAULIS[k]) / math.sqrt(2)
        swaps[j, k] = magic_signed_permutation(s, s)
    negations = {
        (j, k): magic_signed_permutation(1j * PAULIS[3 - j - k], np.eye(2))
        for j, k in ((0, 2), (1, 2))
    }
    return swaps, negations
