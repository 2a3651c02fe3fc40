"""Two-qubit synthesis into the {Rx, Rz, CZ} gate set.

Any 4x4 unitary factors (Cartan/KAK) as

    U = g * (A0 (x) A1) * exp(i (x XX + y YY + z ZZ)) * (B0 (x) B1)

with the interaction coefficients canonicalized into the Weyl chamber
``0 <= |z| <= y <= x <= pi/4`` (z >= 0 when x = pi/4) by one sort of
the four magic-basis phases taken mod pi: the chamber is their descending
order with the top pair at most pi above the bottom pair (Kraus & Cirac,
PRA 63, 062309 (2001)). The canonical class fixes the entangling
cost: 0 CZs for local unitaries, 1 for the CZ class, 2 when z = 0, 3
otherwise. Local factors compile to Rz-Rx-Rz Euler triples in closed form,
and a local's trailing Rz moves through the CZ after it.

Qubit 0 is the most significant bit of the state index, so a dilation
unitary transpiles with the reservoir on q[0] and the system on q[1].

Circuits carry an explicit global phase and reproduce their target matrix
including it, not just up to phase: to machine precision, except that a
Weyl coordinate within ``_WEYL_TOL`` of a chamber face is synthesized on
the face (see :func:`kak_decompose`). They serialize to an OpenQASM-2.0
subset with a byte-stable emit/parse round trip.

The interaction comes from one table of local pairs, one CZ between each
two (:func:`_interaction_blocks`). Tolerances are module constants; no
function takes an ``atol``.

Every one-qubit factor from :func:`kak_decompose`'s synthesis table to the
Euler step, and every gate run that ``circuit_unitary`` multiplies before
applying, is a row-major tuple ``(a, b, c, d)`` of Python complex scalars:
at 2x2 a numpy call costs more than the arithmetic it does.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DimensionMismatch, FidelityShortfall, NotUnitary, ParseError
from .linalg import _apply_1q, _is_finite_real, max_abs

GATE_KINDS = ("rx", "rz", "cz")

_WEYL_TOL = 1e-9  # on the Weyl-class coordinates (x, y, z)
_UNITARY_TOL = 1e-10  # on ||U^dag U - I||_max; also the Euler step's zero entry

# Magic (Bell-like) basis: conjugation maps SU(2)xSU(2) onto SO(4) and
# diagonalizes the XX/YY/ZZ interaction family.
_MAGIC = np.array(
    [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]], dtype=complex
) * np.sqrt(0.5)
_MAGIC_DAG = _MAGIC.conj().T

# Maps the four magic-basis phases to (global, x, y, z) coefficients.
_GAMMA = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [-1, 1, -1, 1], [1, -1, -1, 1]], dtype=float
) / 4.0

_TWO_PI, _FOUR_PI = 2 * math.pi, 4 * math.pi

# Row-major scalar 2x2 constants: identity and Hadamard.
_I2 = (1 + 0j, 0j, 0j, 1 + 0j)
_H = tuple(complex(v / math.sqrt(2)) for v in (1, 1, 1, -1))


def _rotation(kind: str, theta: float) -> tuple:
    """rx, ry or rz(theta) as the row-major scalar tuple (a, b, c, d)."""
    half = 0.5 * theta
    c, s = math.cos(half), math.sin(half)
    if kind == "rz":
        return complex(c, -s), 0j, 0j, complex(c, s)
    if kind == "rx":
        diagonal, off = complex(c), complex(0.0, -s)
        return diagonal, off, off, diagonal
    return complex(c), complex(-s), complex(s), complex(c)


def _mul2(p: tuple, q: tuple) -> tuple:
    """The product p @ q of two row-major scalar 2x2 tuples."""
    a, b, c, d = p
    e, f, g, h = q
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def _det2(q) -> complex:
    a, b, c, d = q
    return a * d - b * c


def _overlap2(p, q) -> complex:
    """tr(p^dag q) of two row-major scalar 2x2 tuples."""
    return (p[0].conjugate() * q[0] + p[2].conjugate() * q[2]) + (
        p[1].conjugate() * q[1] + p[3].conjugate() * q[3]
    )


def _unitary_defect2(q) -> float:
    """||q^dag q - I||_max of a row-major scalar 2x2 tuple."""
    a, b, c, d = q
    ac, cc = a.conjugate(), c.conjugate()
    return max(
        abs(ac * a + cc * c - 1.0),
        abs(b.conjugate() * b + d.conjugate() * d - 1.0),
        abs(ac * b + cc * d),
    )


def _normalize_angle(theta: float) -> float:
    """Fold into (-2*pi, 2*pi]; rotations are 4*pi periodic."""
    theta = math.fmod(theta, _FOUR_PI)
    if theta > _TWO_PI:
        theta -= _FOUR_PI
    elif theta <= -_TWO_PI:
        theta += _FOUR_PI
    return theta


@dataclass(frozen=True, init=False)
class Gate:
    """One gate: "rx"/"rz" with an angle on one qubit, or "cz" on a pair.

    Qubits are stored as a tuple of ints and an angle is folded into
    (-2*pi, 2*pi]; a bool qubit or angle is rejected like any other
    malformed value, with ValueError.
    """

    kind: str
    qubits: tuple[int, ...]
    angle: float | None

    def __init__(self, kind: str, qubits, angle: float | None = None):
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        try:
            raw = tuple(qubits)
            qubits = tuple(map(operator.index, raw))
        except TypeError as exc:
            raise ValueError(f"qubits must be a sequence of ints, got {qubits!r}") from exc
        if bool in map(type, raw):
            raise ValueError(f"qubits must be a sequence of ints, got {raw!r}")
        if kind == "cz":
            if len(qubits) != 2 or qubits[0] == qubits[1]:
                raise ValueError("cz needs two distinct qubits")
            if angle is not None:
                raise ValueError("cz takes no angle")
        else:
            if len(qubits) != 1:
                raise ValueError(f"{kind} acts on exactly one qubit")
            if not _is_finite_real(angle):
                raise ValueError(f"{kind} needs a finite angle")
            angle = _normalize_angle(angle)
        _set = object.__setattr__
        _set(self, "kind", kind)
        _set(self, "qubits", qubits)
        _set(self, "angle", angle)


@dataclass(frozen=True)
class Circuit:
    """An immutable gate tuple over ``qubit_count`` qubits plus a global phase.

    ``gates[0]`` acts first. The circuit's matrix is
    ``exp(i global_phase) * G_last ... G_1 G_0``. Any iterable of Gates is
    accepted and stored as a tuple.
    """

    qubit_count: int
    gates: tuple[Gate, ...] = ()
    global_phase: float = 0.0

    def __post_init__(self):
        n = self.qubit_count
        if isinstance(n, bool) or not hasattr(n, "__index__"):
            raise ValueError(f"qubit_count must be an int, got {n!r}")
        n = operator.index(n)
        if n < 1:
            raise ValueError("qubit_count must be >= 1")
        try:
            gates = tuple(self.gates)
        except TypeError as exc:
            raise ValueError(f"gates must be an iterable of Gates, got {self.gates!r}") from exc
        if not _is_finite_real(self.global_phase):
            raise ValueError(f"global_phase must be a finite real, got {self.global_phase!r}")
        for g in gates:
            if not isinstance(g, Gate):
                raise ValueError(f"circuit entries must be Gates, got {g!r}")
            if min(g.qubits) < 0 or max(g.qubits) >= n:
                raise ValueError(f"gate {g} out of range for {n} qubits")
        object.__setattr__(self, "qubit_count", n)
        object.__setattr__(self, "gates", gates)

    def cz_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "cz")


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """The circuit's full matrix including its global phase (n <= 10).

    Each run of one-qubit gates on a qubit, up to the next cz touching it,
    is multiplied into one 2x2 first and applied to the register once.
    """
    n = circuit.qubit_count
    if n > 10:
        raise DimensionError("circuit_unitary supports at most 10 qubits")
    # one axis per qubit (qubit 0 first), then the column index
    u = np.eye(2**n, dtype=complex).reshape((2,) * n + (2**n,))
    runs = {}
    index = [slice(None)] * n  # with entries i, j set to 1: a cz pair's |11> block
    for gate in circuit.gates:
        if gate.kind != "cz":
            (q,) = gate.qubits
            r = _rotation(gate.kind, gate.angle)
            run = runs.get(q)
            runs[q] = r if run is None else _mul2(r, run)
            continue
        i, j = gate.qubits
        for q in (i, j):
            run = runs.pop(q, None)
            if run is not None:
                u = _apply_1q(np.array(run, dtype=complex).reshape(2, 2), u, q)
        index[i] = index[j] = 1
        block = u[tuple(index)]
        np.negative(block, out=block)  # block is a view of u
        index[i] = index[j] = slice(None)
    for q, run in runs.items():
        u = _apply_1q(np.array(run, dtype=complex).reshape(2, 2), u, q)
    return u.reshape(2**n, 2**n) * cmath.exp(1j * circuit.global_phase)


def process_fidelity(u, v) -> float:
    """|tr(U^dag V)| / dim, phase-insensitive closeness of two unitaries.
    Raises NotUnitary for a NaN or infinite entry."""
    u, v = np.asarray(u), np.asarray(v)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape != v.shape or not u.size:
        raise DimensionMismatch(f"shapes {u.shape} and {v.shape} are not one nonempty square shape")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise NotUnitary("matrix has non-finite entries")
    return float(abs(np.trace(u.conj().T @ v))) / u.shape[0]


def _check_unitary(u, dim: int) -> np.ndarray:
    m = np.asarray(u, dtype=complex)
    if m.shape != (dim, dim):
        raise NotUnitary(f"expected a {dim}x{dim} matrix, got {m.shape}")
    if not np.isfinite(m).all():
        raise NotUnitary("matrix has non-finite entries")
    defect = max_abs(m.conj().T @ m - np.eye(dim))
    if defect >= _UNITARY_TOL:
        raise NotUnitary(f"||U^dag U - I||_max = {defect:.3e}")
    return m


def _check_unitary2(q) -> None:
    """:func:`_check_unitary` for a row-major scalar 2x2 tuple."""
    # finiteness first: max() in the defect can pass over a NaN entry
    if not all(map(cmath.isfinite, q)):
        raise NotUnitary("matrix has non-finite entries")
    defect = _unitary_defect2(q)
    if defect >= _UNITARY_TOL:
        raise NotUnitary(f"||U^dag U - I||_max = {defect:.3e}")


def _euler_1q(q: tuple) -> tuple[list[tuple[str, float]], tuple]:
    """Closed-form Euler step: the ``(kind, angle)`` steps of rz(a), rx(b),
    rz(g) in application order, less any within 1e-12 of 0 or +-2*pi (+-I,
    a phase), and their product, which equals the unitary 2x2 ``q`` (a
    row-major scalar tuple) up to global phase. Near-diagonal input takes
    the deterministic b = 0 branch (all rotation in the first rz).
    """
    a, _, c, d = q
    phase = cmath.exp(-0.5j * cmath.phase(_det2(q)))
    su00, su10, su11 = a * phase, c * phase, d * phase
    if abs(su10) < _UNITARY_TOL:
        alpha, beta, gamma = 2.0 * cmath.phase(su11), 0.0, 0.0
    elif abs(su00) < _UNITARY_TOL:
        alpha, beta, gamma = -math.pi - 2.0 * cmath.phase(su10), math.pi, 0.0
    else:
        beta = 2.0 * math.atan2(abs(su10), abs(su00))
        plus = cmath.phase(su11)
        minus = -math.pi / 2.0 - cmath.phase(su10)
        alpha = plus + minus
        gamma = plus - minus
    steps = []
    built = _I2
    for kind, angle in (("rz", alpha), ("rx", beta), ("rz", gamma)):
        angle = _normalize_angle(angle)
        if min(abs(angle), abs(abs(angle) - _TWO_PI)) > 1e-12:
            steps.append((kind, angle))
            built = _mul2(_rotation(kind, angle), built)
    if abs(_overlap2(q, built)) / 2.0 < 1.0 - 1e-10:
        raise FidelityShortfall("single-qubit Euler decomposition missed its target")
    return steps, built


def decompose_1q(u) -> Circuit:
    """Euler decomposition of a 2x2 unitary as Rz(g) Rx(b) Rz(a).

    The returned circuit applies rz(a), rx(b), rz(g) in order, omitting
    rotations by 0 or +-2*pi, and carries the global phase that reproduces
    ``u`` exactly: the closed-form step :func:`kak_decompose` runs on each
    local factor.
    """
    q = tuple(_check_unitary(u, 2).ravel().tolist())
    steps, built = _euler_1q(q)
    gates = [Gate(kind, (0,), angle) for kind, angle in steps]
    return Circuit(1, gates, cmath.phase(_overlap2(built, q)))


def _diagonalize_complex_symmetric_unitary(g: np.ndarray) -> np.ndarray:
    """Real orthogonal P (det +1) with P^T g P diagonal.

    Works because the real and imaginary parts of a symmetric unitary
    commute; a deterministic sweep of mixing angles dodges accidental
    degeneracies of any single combination. A mix is kept once P^T g P is
    off-diagonal below 1e-13 or, if larger, 4x g's unitarity defect: the KAK
    identity's error follows this, and no real P does better on such a g.
    """
    tol = max(1e-13, 4.0 * max_abs(g @ g.conj().T - np.eye(4)))
    for j in range(40):
        t = 0.785398163 + 0.437561 * j
        w, p = np.linalg.eigh(math.cos(t) * g.real + math.sin(t) * g.imag)
        d = p.T @ g @ p
        if max_abs(d - np.diag(np.diag(d))) < tol:
            if np.linalg.det(p) < 0:
                p[:, 0] = -p[:, 0]
            return p
    raise FidelityShortfall("failed to diagonalize the magic-basis Gram matrix")


def _kron_factor(m: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """Split m = g * (f0 (x) f1) with unit-determinant 2x2 factors.

    The realigned r[2i+j, 2k+l] = m[2i+k, 2j+l] is g * vec(f0) vec(f1)^T
    exactly when m is such a product (Van Loan & Pitsianis, 1993), so f0 is
    the column and f1 the row of r through its largest entry. For invertible
    factors both are nonzero multiples of vec(f0) and vec(f1), so a singular
    one rules out such a product as well."""
    r = m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    a, b = divmod(int(np.argmax(np.abs(r))), 4)
    det0, det1 = _det2(r[:, b]), _det2(r[a])
    if abs(det0) < 1e-12 or abs(det1) < 1e-12:
        raise FidelityShortfall("matrix is not a kron product of invertible 2x2 blocks")
    f0, f1 = r[:, b] / cmath.sqrt(det0), r[a] / cmath.sqrt(det1)
    g = r[a, b] / (f0[a] * f1[b])
    if max_abs(r - g * np.outer(f0, f1)) > 1e-9:
        raise FidelityShortfall("matrix is not a kron product of invertible 2x2 blocks")
    return g, f0.reshape(2, 2), f1.reshape(2, 2)


_ROWS = np.arange(4)
_SLOTS = (1, 0, 3, 2)  # delta2[_SLOTS] descends in the Weyl chamber


def _weyl_sort(delta: np.ndarray):
    """Weyl-chamber form of the interaction with magic-basis phases delta.

    For ``(w, x, y, z) = _GAMMA @ delta`` and ``e = delta[[1, 0, 3, 2]]``,
    x - y, y - z and y + z are (e1 - e2) / 2, (e0 - e1) / 2 and (e2 - e3) / 2,
    and 4x = e0 + e1 - e2 - e3. So the chamber 0 <= |z| <= y <= x <= pi/4
    (z >= 0 if x = pi/4) is a descending e whose top pair exceeds its bottom
    pair by at most pi. The phases are ranked mod pi (a near-tie within
    ``_WEYL_TOL`` in index order), and of the two cuts of that circular
    order that add an even number of pi, the one with x <= pi/4 is kept; at
    the x = pi/4 edge, the one with z >= 0.

    Returns ``(delta2, order, signs, flips)``: delta2 is delta[order] plus an
    even number of pi in all, and for any 4x4 p and o2

        p D(delta) o2 = (p[:, order] S) D(delta2) (F o2[order]),

    D = diag(exp(i .)), S = diag(signs), F = diag(flips), with real +-1
    signs and det(I[:, order] S) = det(F I[order]) = +1.
    """
    counts, rests = zip(*(divmod(d, math.pi) for d in delta.tolist()))
    ranked = []
    for k in range(4):  # descending; a near-tie keeps index order
        ranked.insert(sum(rests[j] > rests[k] - _WEYL_TOL for j in ranked), k)

    def cut(lifted):  # the `lifted` lowest phases gain pi and lead
        seq = ranked[4 - lifted:] + ranked[: 4 - lifted]
        e = [rests[i] + math.pi * (n < lifted) for n, i in enumerate(seq)]
        return e[0] + e[1] - e[2] - e[3], e[1] + e[2] - e[0] - e[3], lifted, seq

    parity = int(sum(counts)) % 2
    low, high = sorted((cut(parity), cut(parity + 2)))  # 4x: low <= pi <= high
    _, _, lifted, seq = high if low[0] > math.pi - 4 * _WEYL_TOL and low[1] < 0 else low
    order = [seq[s] for s in _SLOTS]
    shifts = np.array([(s < lifted) - counts[i] for s, i in zip(_SLOTS, order)])
    signs, flips = 1.0 - 2.0 * (shifts % 2), np.ones(4)  # (-1)**shifts
    if sum(a > b for n, a in enumerate(order) for b in order[n + 1:]) % 2:  # an odd order
        signs[2], flips[2] = -signs[2], -1.0  # one sign each side, at the lowest phase
    return delta.take(order) + math.pi * shifts, order, signs, flips


def kak_coefficients(u):
    """Full KAK data for a two-qubit unitary.

    Returns ``(phase, (a0, a1), (x, y, z), (b0, b1))`` with the interaction
    coefficients in the Weyl chamber and

        u = exp(i phase) * kron(a0, a1) @ exp(i(x XX + y YY + z ZZ))
            @ kron(b0, b1).
    """
    m = _check_unitary(u, 4)
    det_phase = float(np.angle(np.linalg.det(m))) / 4.0
    su = m * cmath.exp(-1j * det_phase)
    mb = _MAGIC_DAG @ su @ _MAGIC
    p = _diagonalize_complex_symmetric_unitary(mb @ mb.T)
    q = p.T @ mb
    # each row of q is a phase times a real row: the phase of the row's
    # largest entry, all four rows in one pass
    delta = np.angle(q[_ROWS, np.argmax(np.abs(q), axis=1)])
    real = q * np.exp(-1j * delta)[:, None]
    if max_abs(real.imag) > 1e-8:
        raise FidelityShortfall("magic-basis factor is not phase-times-real")
    o2 = real.real
    if np.linalg.det(o2) < 0:
        o2[0] = -o2[0]
        delta[0] += math.pi
    delta, order, signs, flips = _weyl_sort(delta)
    w, x, y, z = (_GAMMA @ delta).tolist()
    # p[:, order] and o2[order]; take is the cheaper index at 4x4
    g1, a0, a1 = _kron_factor(_MAGIC @ (p.take(order, 1) * signs) @ _MAGIC_DAG)
    g2, b0, b1 = _kron_factor(_MAGIC @ (o2.take(order, 0) * flips[:, None]) @ _MAGIC_DAG)
    total = det_phase + w + cmath.phase(g1 * g2)
    return total, (a0, a1), (x, y, z), (b0, b1)


_H_S_DAG = _mul2(_H, (1 + 0j, 0j, 0j, -1j))  # H S^dag


def _interaction_blocks(x: float, y: float, z: float) -> list[tuple]:
    """Local pairs ``[(l0, l1), ...]``, one CZ between consecutive pairs, whose
    product is exp(i(x XX + y YY + z ZZ)) up to phase. The CZ count is that of
    the Weyl class: 0 at the origin, 1 for (pi/4, 0, 0), 2 when z = 0, else 3
    (Vatan & Williams, PRA 69, 032315 (2004), CNOTs as H-dressed CZs)."""
    if max(abs(x), abs(y), abs(z)) < _WEYL_TOL:
        return [(_I2, _I2)]
    if abs(z) < _WEYL_TOL and y < _WEYL_TOL:
        if abs(x - math.pi / 4) < _WEYL_TOL:
            # exp(i pi/4 XX) = (H S^dag (x) H S^dag) CZ (H (x) H) up to phase
            return [(_H, _H), (_H_S_DAG, _H_S_DAG)]
        return [(_I2, _H), (_rotation("rx", -2.0 * x), _I2), (_I2, _H)]
    if abs(z) < _WEYL_TOL:
        return [
            (_rotation("rx", math.pi / 2), _H),
            (_rotation("rx", -2.0 * x), _mul2(_mul2(_H, _rotation("ry", -2.0 * y)), _H)),
            (_rotation("rx", -math.pi / 2), _H),
        ]
    return [
        (_H, _rotation("rz", -math.pi / 2)),
        (_mul2(_rotation("rz", math.pi / 2 - 2.0 * z), _H),
         _mul2(_H, _rotation("ry", 2.0 * x - math.pi / 2))),
        (_H, _mul2(_rotation("ry", math.pi / 2 - 2.0 * y), _H)),
        (_mul2(_rotation("rz", math.pi / 2), _H), _I2),
    ]


def kak_decompose(u) -> Circuit:
    """Compile a two-qubit unitary into {rx, rz, cz} with at most 3 CZs.

    The CZ count matches the canonical class of the input, the gate list is
    deterministic, and the circuit matrix reproduces the input including
    global phase. A Weyl coordinate within ``_WEYL_TOL`` = 1e-9 of a chamber
    face (the local class, the CZ class, z = 0, y = z = 0) is snapped onto
    it: the circuit has that face's CZ count and misses the input by up to
    about 1e-9 (max entry), not machine precision, while its process
    fidelity reads 1. The snap keeps a one-qubit dilation, whose y and z
    are rounding noise, at 2 CZs or fewer rather than 3. Each local 2x2
    factor compiles in closed form (the Euler step of :func:`decompose_1q`,
    without building a one-qubit circuit) into Gates in the order they act.
    A local followed by a CZ leaves its trailing rz to the next local on
    that qubit (CZ is diagonal, so the rz commutes through it): at most 6,
    11, 16 or 21 gates for 0 to 3 CZs. One ``circuit_unitary`` call per
    decomposition fits the phase. Raises NotUnitary on bad input and
    FidelityShortfall if the synthesized circuit misses (internal
    consistency guard).
    """
    m = np.asarray(u, dtype=complex)
    _, (a0, a1), (x, y, z), (b0, b1) = kak_coefficients(m)  # checks unitarity
    a0, a1, b0, b1 = map(tuple, np.array((a0, a1, b0, b1)).reshape(4, 4).tolist())
    blocks = _interaction_blocks(x, y, z)
    blocks[0] = tuple(map(_mul2, blocks[0], (b0, b1)))
    blocks[-1] = tuple(map(_mul2, (a0, a1), blocks[-1]))

    gates = []
    last = len(blocks) - 1
    moved = [_I2, _I2]  # each qubit's trailing rz, moved through the cz
    for i, pair in enumerate(blocks):
        if i:
            gates.append(Gate("cz", (0, 1)))
        for qubit, q in enumerate(pair):
            q = _mul2(q, moved[qubit])
            _check_unitary2(q)
            steps = _euler_1q(q)[0]
            moved[qubit] = _I2
            # cz is diagonal, so a trailing rz commutes into the next local
            if i < last and steps and steps[-1][0] == "rz":
                moved[qubit] = _rotation(*steps.pop())
            gates.extend(Gate(kind, (qubit,), angle) for kind, angle in steps)
    circuit = Circuit(2, gates)
    overlap = complex(np.vdot(circuit_unitary(circuit), m))  # tr(built^dag m)
    fidelity = abs(overlap) / 4.0
    if fidelity < 1.0 - 1e-8:
        raise FidelityShortfall(f"synthesis fidelity {fidelity!r}")
    object.__setattr__(circuit, "global_phase", cmath.phase(overlap))
    return circuit


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset
# ---------------------------------------------------------------------------

_GATE_RE = re.compile(r"^(rx|rz)\(([^)]+)\) q\[(\d+)\];$|^(cz) q\[(\d+)\],q\[(\d+)\];$")
_PHASE_RE = re.compile(r"^// global_phase: (\S+)$")
_QREG_RE = re.compile(r"^qreg q\[(\d+)\];$")


def emit_circuit_text(circuit: Circuit) -> str:
    """Serialize to the OpenQASM subset; angles keep 17 significant digits."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if circuit.global_phase != 0.0:
        lines.append(f"// global_phase: {format(circuit.global_phase, '.17g')}")
    lines.append(f"qreg q[{circuit.qubit_count}];")
    for gate in circuit.gates:
        if gate.kind == "cz":
            lines.append(f"cz q[{gate.qubits[0]}],q[{gate.qubits[1]}];")
        else:
            lines.append(f"{gate.kind}({format(gate.angle, '.17g')}) q[{gate.qubits[0]}];")
    return "\n".join(lines) + "\n"


def parse_circuit_text(text: str) -> Circuit:
    """Parse the OpenQASM subset produced by :func:`emit_circuit_text`."""
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != "OPENQASM 2.0;" or lines[1] != 'include "qelib1.inc";':
        raise ParseError("missing OPENQASM 2.0 header")
    pos = 2
    phase = 0.0
    m = _PHASE_RE.match(lines[pos])
    if m:
        try:
            phase = float(m.group(1))
        except ValueError as exc:
            raise ParseError(f"bad global phase: {lines[pos]!r}") from exc
        if not math.isfinite(phase):
            raise ParseError(f"non-finite global phase: {lines[pos]!r}")
        pos += 1
    if pos >= len(lines):
        raise ParseError("missing qreg declaration")
    m = _QREG_RE.match(lines[pos])
    if not m:
        raise ParseError(f"bad qreg declaration: {lines[pos]!r}")
    qubit_count = int(m.group(1))
    pos += 1
    gates = []
    for line in lines[pos:]:
        m = _GATE_RE.match(line)
        if m is None:
            if not line.strip():
                continue
            raise ParseError(f"unsupported statement: {line!r}")
        kind, angle, qubit, cz, q0, q1 = m.groups()
        try:
            if cz:
                gates.append(Gate("cz", (int(q0), int(q1))))
            else:
                gates.append(Gate(kind, (int(qubit),), float(angle)))
        except ValueError as exc:
            raise ParseError(f"bad gate {line!r}: {exc}") from exc
    try:
        return Circuit(qubit_count, gates, phase)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
