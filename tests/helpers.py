"""Shared generators for the test suite: seeded Hermitian and Haar samples,
numpy rotation matrices as oracles for the transpiler's scalar forms, the
classical imaginary-time propagator, and the renormalizing repetition loop
that spectral_run evaluates in closed form."""

import math

import numpy as np

from qitp.dilation import filter_profile
from qitp.linalg import _ground_cluster_end, max_abs
from qitp.simulate import POSTSELECT_FLOOR, SpectralRows, normalized_state


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


def classical_itp(op, params, psi) -> np.ndarray:
    """The normalized state exp(-(H - E_T) tau) |psi> / norm, computed in log
    space: the largest exponent among the populated eigencomponents is
    factored out before exponentiating, so it is stable for any tau."""
    exponents = -(op.eigenvalues - params.resolve_trial_energy(op)) * params.tau
    coeffs = op.eigenvectors.conj().T @ np.asarray(psi, dtype=complex)
    populated = coeffs != 0
    kept = exponents[populated]
    scaled = np.zeros_like(coeffs)
    scaled[populated] = np.exp(kept - kept.max()) * coeffs[populated]
    return op.eigenvectors @ (scaled / np.linalg.norm(scaled))


def spectral_loop(op, taus, trial_energies, psi0, repetitions):
    """The noiseless repetition loop, one renormalization per repetition, as
    the oracle for :func:`qitp.simulate.spectral_run` (with ``extended``).

    A row whose p0 falls below the floor stops there: ``failed`` is the
    1-based repetition it fell at. Returns the SpectralRows and the (K, G)
    array of every repetition's reservoir-0 probability; after a row fails,
    its later entries are those of the unrenormalized vector.
    """
    taus, ets = np.broadcast_arrays(np.asarray(taus, float), np.asarray(trial_energies, float))
    taus, ets = taus.reshape(-1, 1), ets.reshape(-1, 1)
    w, v = op.eigenvalues, op.eigenvectors
    h = filter_profile(w, taus, ets)
    c = np.broadcast_to(v.conj().T @ normalized_state(psi0), h.shape)
    p0, failed, history = np.zeros(len(h)), np.zeros(len(h), dtype=np.int64), []
    for rep in range(1, repetitions + 1):
        entering, c = c, h * c
        p = np.sum(np.abs(c) ** 2, axis=1)
        history.append(p)
        p0 = np.where(failed == 0, p, p0)
        failed[(failed == 0) & (p < POSTSELECT_FLOOR)] = rep
        ok = failed == 0
        c[ok] /= np.sqrt(p[ok])[:, None]
    done = (failed == 0)[:, None]
    weights = np.where(done, np.abs(c) ** 2, np.nan)
    ground_end = _ground_cluster_end(w, max_abs(op.matrix))
    r = filter_profile(-w, taus, -ets)
    ext = np.concatenate([(h * entering) @ v.T, (r * entering) @ v.T], axis=1)
    ext = np.where(done, np.abs(ext) ** 2, np.nan)
    rows = SpectralRows(p0, weights @ w, weights[:, :ground_end].sum(axis=1), failed, ext)
    return rows, np.array(history)
