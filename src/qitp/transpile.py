"""Two-qubit synthesis into the {Rx, Rz, CZ} gate set.

Any 4x4 unitary factors (Cartan/KAK) as

    U = g * (A0 (x) A1) * exp(i (x XX + y YY + z ZZ)) * (B0 (x) B1)

with the interaction coefficients canonicalized into the Weyl chamber
``0 <= |z| <= y <= x <= pi/4`` (z >= 0 when x = pi/4). The canonical class
fixes the entangling cost: 0 CZs for local unitaries, 1 for the CZ class,
2 when z = 0, 3 otherwise. Local factors compile to Rz-Rx-Rz Euler triples
in closed form.

Qubit 0 is the most significant bit of the state index, so a dilation
unitary transpiles with the reservoir on q[0] and the system on q[1].

Circuits carry an explicit global phase and reproduce their target matrix
exactly, not just up to phase. They serialize to an OpenQASM-2.0 subset
with a byte-stable emit/parse round trip.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, FidelityShortfall, NotUnitary, ParseError
from .linalg import PAULI_X, PAULI_Y, PAULI_Z, _apply_1q, max_abs

GATE_KINDS = ("rx", "rz", "cz")

_I2 = np.eye(2, dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S_DAG = np.diag([1.0, -1.0j])

# Magic (Bell-like) basis: conjugation maps SU(2)xSU(2) onto SO(4) and
# diagonalizes the XX/YY/ZZ interaction family.
_MAGIC = (
    np.array(
        [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]],
        dtype=complex,
    )
    * np.sqrt(0.5)
)
_MAGIC_DAG = _MAGIC.conj().T

# Maps the four magic-basis phases to (global, x, y, z) coefficients.
_GAMMA = (
    np.array(
        [[1, 1, 1, 1], [1, 1, -1, -1], [-1, 1, -1, 1], [1, -1, -1, 1]],
        dtype=float,
    )
    / 4.0
)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def _normalize_angle(theta: float) -> float:
    """Fold into (-2*pi, 2*pi]; rotations are 4*pi periodic."""
    theta = math.fmod(theta, 4 * math.pi)
    if theta > 2 * math.pi:
        theta -= 4 * math.pi
    elif theta <= -2 * math.pi:
        theta += 4 * math.pi
    return theta


@dataclass(frozen=True)
class Gate:
    """One gate: "rx"/"rz" with an angle on one qubit, or "cz" on a pair."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == "cz":
            if len(self.qubits) != 2 or self.qubits[0] == self.qubits[1]:
                raise ValueError("cz needs two distinct qubits")
            if self.angle is not None:
                raise ValueError("cz takes no angle")
        else:
            if len(self.qubits) != 1:
                raise ValueError(f"{self.kind} acts on exactly one qubit")
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle")
            object.__setattr__(self, "angle", _normalize_angle(self.angle))

    def matrix(self) -> np.ndarray:
        if self.kind == "rx":
            return rx_matrix(self.angle)
        if self.kind == "rz":
            return rz_matrix(self.angle)
        return np.diag([1, 1, 1, -1]).astype(complex)


@dataclass
class Circuit:
    """An ordered gate list over ``qubit_count`` qubits plus a global phase.

    ``gates[0]`` acts first. The circuit's matrix is
    ``exp(i global_phase) * G_last ... G_1 G_0``.
    """

    qubit_count: int
    gates: list[Gate] = field(default_factory=list)
    global_phase: float = 0.0

    def __post_init__(self):
        if self.qubit_count < 1:
            raise ValueError("qubit_count must be >= 1")
        for g in self.gates:
            if any(q < 0 or q >= self.qubit_count for q in g.qubits):
                raise ValueError(f"gate {g} out of range for {self.qubit_count} qubits")

    def cz_count(self) -> int:
        return sum(1 for g in self.gates if g.kind == "cz")


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """The circuit's full matrix including its global phase (n <= 10)."""
    n = circuit.qubit_count
    if n > 10:
        raise DimensionError("circuit_unitary supports at most 10 qubits")
    u = np.eye(2**n, dtype=complex)
    idx = np.arange(2**n)
    for gate in circuit.gates:
        if gate.kind == "cz":
            i, j = gate.qubits
            rows = ((idx >> (n - 1 - i)) & (idx >> (n - 1 - j)) & 1).astype(bool)
            u[rows] = -u[rows]
        else:
            u = _apply_1q(gate.matrix(), u, gate.qubits[0])
    return u * np.exp(1j * circuit.global_phase)


def process_fidelity(u, v) -> float:
    """|tr(U^dag V)| / dim, phase-insensitive closeness of two unitaries."""
    u = np.asarray(u)
    return float(abs(np.trace(u.conj().T @ np.asarray(v)))) / u.shape[0]


def _check_unitary(u, dim: int, atol: float = 1e-10) -> np.ndarray:
    m = np.asarray(u, dtype=complex)
    if m.shape != (dim, dim):
        raise NotUnitary(f"expected a {dim}x{dim} matrix, got {m.shape}")
    defect = max_abs(m.conj().T @ m - np.eye(dim))
    if defect >= atol:
        raise NotUnitary(f"||U^dag U - I||_max = {defect:.3e}")
    return m


def _phase_for(target: np.ndarray, built: np.ndarray) -> float:
    """Global phase aligning ``built`` with ``target`` (fidelity ~ 1)."""
    return float(np.angle(np.trace(built.conj().T @ target)))


def _euler_1q(m: np.ndarray, atol: float) -> tuple[list[tuple[str, float]], np.ndarray]:
    """Closed-form Euler step: the non-identity ``(kind, angle)`` steps of
    rz(a), rx(b), rz(g) in application order, and their product, which
    equals the unitary 2x2 ``m`` up to global phase. Near-diagonal input
    takes the deterministic b = 0 branch (all rotation in the first rz).
    """
    det = np.linalg.det(m)
    su = m * np.exp(-0.5j * np.angle(det))
    if abs(su[1, 0]) < atol:
        alpha, beta, gamma = 2.0 * float(np.angle(su[1, 1])), 0.0, 0.0
    elif abs(su[0, 0]) < atol:
        alpha, beta, gamma = -math.pi - 2.0 * float(np.angle(su[1, 0])), math.pi, 0.0
    else:
        beta = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
        plus = float(np.angle(su[1, 1]))
        minus = -math.pi / 2.0 - float(np.angle(su[1, 0]))
        alpha = plus + minus
        gamma = plus - minus
    steps = []
    built = _I2
    for kind, angle in (("rz", alpha), ("rx", beta), ("rz", gamma)):
        angle = _normalize_angle(angle)
        if abs(angle) > 1e-14:
            steps.append((kind, angle))
            built = (rx_matrix if kind == "rx" else rz_matrix)(angle) @ built
    if process_fidelity(m, built) < 1.0 - 1e-10:
        raise FidelityShortfall("single-qubit Euler decomposition missed its target")
    return steps, built


def decompose_1q(u, atol: float = 1e-10) -> Circuit:
    """Euler decomposition of a 2x2 unitary as Rz(g) Rx(b) Rz(a).

    The returned circuit applies rz(a), rx(b), rz(g) in order, omitting
    identity rotations, and carries the global phase that reproduces ``u``
    exactly. The angles are the closed-form step that :func:`kak_decompose`
    runs on each local factor.
    """
    m = _check_unitary(u, 2, atol)
    steps, built = _euler_1q(m, atol)
    gates = [Gate(kind, (0,), angle) for kind, angle in steps]
    return Circuit(1, gates, _phase_for(m, built))


def _diagonalize_complex_symmetric_unitary(g: np.ndarray) -> np.ndarray:
    """Real orthogonal P (det +1) with P^T g P diagonal.

    Works because the real and imaginary parts of a symmetric unitary
    commute; a deterministic sweep of mixing angles dodges accidental
    degeneracies of any single combination.
    """
    for j in range(40):
        t = 0.785398163 + 0.437561 * j
        w, p = np.linalg.eigh(math.cos(t) * g.real + math.sin(t) * g.imag)
        d = p.T @ g @ p
        if max_abs(d - np.diag(np.diag(d))) < 1e-11:
            if np.linalg.det(p) < 0:
                p = p.copy()
                p[:, 0] = -p[:, 0]
            return p
    raise FidelityShortfall("failed to diagonalize the magic-basis Gram matrix")


def _kron_factor(m: np.ndarray) -> tuple[complex, np.ndarray, np.ndarray]:
    """Split m = g * (f0 (x) f1) with unit-determinant 2x2 factors."""
    a, b = max(
        ((i, j) for i in range(4) for j in range(4)), key=lambda t: abs(m[t])
    )
    f0 = np.zeros((2, 2), dtype=complex)
    f1 = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            f0[(a >> 1) ^ i, (b >> 1) ^ j] = m[a ^ (i << 1), b ^ (j << 1)]
            f1[(a & 1) ^ i, (b & 1) ^ j] = m[a ^ i, b ^ j]
    det0 = np.linalg.det(f0)
    det1 = np.linalg.det(f1)
    if abs(det0) < 1e-12 or abs(det1) < 1e-12:
        raise FidelityShortfall("kron factor extraction hit a singular block")
    f0 = f0 / np.sqrt(det0)
    f1 = f1 / np.sqrt(det1)
    g = m[a, b] / (f0[a >> 1, b >> 1] * f1[a & 1, b & 1])
    if max_abs(m - g * np.kron(f0, f1)) > 1e-9:
        raise FidelityShortfall("matrix is not a kron product of 2x2 blocks")
    return complex(g), f0, f1


_FLIPPERS = (1j * PAULI_X, 1j * PAULI_Y, 1j * PAULI_Z)
_FLIPPER_POWERS = tuple(tuple(np.linalg.matrix_power(f, p) for p in range(4)) for f in _FLIPPERS)
_SWAPPERS = (
    np.array([[1, -1j], [1j, -1]]) * 1j * np.sqrt(0.5),  # swaps YY and ZZ
    np.array([[1, 1], [1, -1]]) * 1j * np.sqrt(0.5),  # swaps XX and ZZ
    np.array([[0, 1 - 1j], [1 + 1j, 0]]) * 1j * np.sqrt(0.5),  # swaps XX and YY
)


def _canonicalize_interaction(x: float, y: float, z: float, atol: float = 1e-9):
    """Weyl-chamber form of an XX/YY/ZZ interaction.

    Returns ``(phase, after_pair, (x2, y2, z2), before_pair)`` with
    0 <= |z2| <= y2 <= x2 <= pi/4 (z2 >= 0 if x2 = pi/4) such that

        exp(i(x XX + y YY + z ZZ)) =
            phase * kron(*after) @ canonical @ kron(*before).

    Half-pi shifts, pairwise negations, and axis swaps are all realized by
    single-qubit Cliffords, tracked in the local factors.
    """
    phase = [1.0 + 0.0j]
    after = [_I2.copy(), _I2.copy()]
    before = [_I2.copy(), _I2.copy()]
    v = [x, y, z]

    def shift(k, step):
        v[k] += step * math.pi / 2
        phase[0] *= 1j**step
        f = _FLIPPER_POWERS[k][step % 4]
        before[0] = f @ before[0]
        before[1] = f @ before[1]

    def negate(k1, k2):
        v[k1] *= -1
        v[k2] *= -1
        phase[0] *= -1
        s = _FLIPPERS[3 - k1 - k2]
        after[0] = after[0] @ s
        before[0] = s @ before[0]

    def swap_axes(k1, k2):
        v[k1], v[k2] = v[k2], v[k1]
        s = _SWAPPERS[3 - k1 - k2]
        after[0] = after[0] @ s
        after[1] = after[1] @ s
        before[0] = s @ before[0]
        before[1] = s @ before[1]

    def into_range(k):
        while v[k] <= -math.pi / 4:
            shift(k, +1)
        while v[k] > math.pi / 4:
            shift(k, -1)

    for k in range(3):
        into_range(k)
    if abs(v[0]) < abs(v[1]):
        swap_axes(0, 1)
    if abs(v[1]) < abs(v[2]):
        swap_axes(1, 2)
    if abs(v[0]) < abs(v[1]):
        swap_axes(0, 1)
    if v[0] < 0:
        negate(0, 2)
    if v[1] < 0:
        negate(1, 2)
    into_range(2)
    if v[0] > math.pi / 4 - atol and v[2] < 0:
        shift(0, -1)
        negate(0, 2)
    return phase[0], after, tuple(v), before


def kak_coefficients(u, atol: float = 1e-9):
    """Full KAK data for a two-qubit unitary.

    Returns ``(phase, (a0, a1), (x, y, z), (b0, b1))`` with the interaction
    coefficients in the Weyl chamber and

        u = exp(i phase) * kron(a0, a1) @ exp(i(x XX + y YY + z ZZ))
            @ kron(b0, b1).
    """
    m = _check_unitary(u, 4)
    det_phase = float(np.angle(np.linalg.det(m))) / 4.0
    su = m * np.exp(-1j * det_phase)
    mb = _MAGIC_DAG @ su @ _MAGIC
    p = _diagonalize_complex_symmetric_unitary(mb @ mb.T)
    q = p.T @ mb
    delta = np.empty(4)
    o2 = np.empty((4, 4))
    for k in range(4):
        row = q[k]
        pivot = int(np.argmax(np.abs(row)))
        theta = float(np.angle(row[pivot]))
        real_row = row * np.exp(-1j * theta)
        if max_abs(real_row.imag) > 1e-8:
            raise FidelityShortfall("magic-basis factor is not phase-times-real")
        delta[k] = theta
        o2[k] = real_row.real
    if np.linalg.det(o2) < 0:
        o2[0] = -o2[0]
        delta[0] += math.pi
    w, x, y, z = _GAMMA @ delta
    k1 = _MAGIC @ p @ _MAGIC_DAG
    k2 = _MAGIC @ o2 @ _MAGIC_DAG
    g1, a0, a1 = _kron_factor(k1)
    g2, b0, b1 = _kron_factor(k2)
    inner_phase, after, (x2, y2, z2), before = _canonicalize_interaction(x, y, z, atol)
    a0 = a0 @ after[0]
    a1 = a1 @ after[1]
    b0 = before[0] @ b0
    b1 = before[1] @ b1
    total = det_phase + w + float(np.angle(g1 * g2 * inner_phase))
    return total, (a0, a1), (x2, y2, z2), (b0, b1)


# ---------------------------------------------------------------------------
# Interaction synthesis: block sequences [locals, cz, locals, ...] realizing
# exp(i(x XX + y YY + z ZZ)) up to global phase with the minimal CZ count.
# ---------------------------------------------------------------------------


class _BlockSeq:
    """Alternating local pairs and CZ markers, merging adjacent locals."""

    def __init__(self):
        self.items = [(_I2.copy(), _I2.copy())]

    def local(self, m0=None, m1=None):
        l0, l1 = self.items[-1]
        if m0 is not None:
            l0 = m0 @ l0
        if m1 is not None:
            l1 = m1 @ l1
        self.items[-1] = (l0, l1)

    def cz(self):
        self.items.append("cz")
        self.items.append((_I2.copy(), _I2.copy()))


def _append_quarter_turn(seq: _BlockSeq, axis: int):
    """One full CZ realizing exp(i pi/4 PP) for P = X, Y, or Z, up to phase."""
    if axis == 2:  # ZZ
        seq.cz()
        seq.local(_S_DAG, _S_DAG)
        return
    conj = _H if axis == 0 else _S_DAG.conj().T @ _H  # X = H Z H; Y = (SH) Z (SH)^dag
    seq.local(conj.conj().T, conj.conj().T)
    seq.cz()
    seq.local(_S_DAG, _S_DAG)
    seq.local(conj, conj)


def _append_xx(seq: _BlockSeq, x: float):
    """exp(i x XX) with two CZs, up to phase."""
    seq.local(None, _H)
    seq.cz()
    seq.local(rx_matrix(-2.0 * x), None)
    seq.cz()
    seq.local(None, _H)


def _append_xx_yy(seq: _BlockSeq, x: float, y: float):
    """exp(i (x XX + y YY)) with two CZs, up to phase."""
    seq.local(rx_matrix(math.pi / 2), _H)
    seq.cz()
    seq.local(rx_matrix(-2.0 * x), _H @ ry_matrix(-2.0 * y) @ _H)
    seq.cz()
    seq.local(rx_matrix(-math.pi / 2), _H)


def _append_xyz(seq: _BlockSeq, x: float, y: float, z: float):
    """exp(i (x XX + y YY + z ZZ)) with three CZs, up to phase.

    The three-CNOT circuit of Vatan & Williams, PRA 69, 032315 (2004),
    Fig. 6, with each CNOT written as a Hadamard-dressed CZ.
    """
    seq.local(_H, rz_matrix(-math.pi / 2))
    seq.cz()
    seq.local(rz_matrix(math.pi / 2 - 2.0 * z) @ _H, _H @ ry_matrix(2.0 * x - math.pi / 2))
    seq.cz()
    seq.local(_H, ry_matrix(math.pi / 2 - 2.0 * y) @ _H)
    seq.cz()
    seq.local(rz_matrix(math.pi / 2) @ _H, None)


def _is_quarter_or_zero(angle: float, atol: float) -> bool:
    return abs(angle) < atol or abs(abs(angle) - math.pi / 4) < atol


def _merge_rotations(gates: list[Gate]) -> list[Gate]:
    """Fuse adjacent same-axis rotations on the same qubit; drop identities.

    Angles that land on 0 or +-2*pi modulo 4*pi disappear (a 2*pi rotation
    is a pure phase, recovered by the final phase fit).
    """
    out: list[Gate] = []
    for gate in gates:
        if out and out[-1].kind == gate.kind != "cz" and out[-1].qubits == gate.qubits:
            gate = Gate(gate.kind, gate.qubits, out.pop().angle + gate.angle)
        if gate.kind == "cz" or min(abs(gate.angle), abs(abs(gate.angle) - 2 * math.pi)) > 1e-12:
            out.append(gate)
    return out


def kak_decompose(u, atol: float = 1e-9) -> Circuit:
    """Compile a two-qubit unitary into {rx, rz, cz} with at most 3 CZs.

    The CZ count matches the canonical class of the input, the gate list is
    deterministic, and the circuit matrix reproduces the input including
    global phase. Each local 2x2 factor compiles in closed form (the Euler
    step of :func:`decompose_1q`, without building a one-qubit circuit), so
    one ``circuit_unitary`` call per decomposition fits the phase. Raises
    NotUnitary on bad input and FidelityShortfall if the synthesized circuit
    misses (internal consistency guard).
    """
    m = np.asarray(u, dtype=complex)
    _, (a0, a1), (x, y, z), (b0, b1) = kak_coefficients(m, atol)  # checks unitarity
    seq = _BlockSeq()
    if all(_is_quarter_or_zero(c, atol) for c in (x, y, z)):  # all zero: local, no CZ
        for axis, coeff in enumerate((x, y, abs(z))):
            if coeff >= atol:
                _append_quarter_turn(seq, axis)
    elif abs(z) < atol and y < atol:
        _append_xx(seq, x)
    elif abs(z) < atol:
        _append_xx_yy(seq, x, y)
    else:
        _append_xyz(seq, x, y, z)
    first0, first1 = seq.items[0]
    seq.items[0] = (first0 @ b0, first1 @ b1)
    last0, last1 = seq.items[-1]
    seq.items[-1] = (a0 @ last0, a1 @ last1)

    gates: list[Gate] = []
    for item in seq.items:
        if item == "cz":
            gates.append(Gate("cz", (0, 1)))
            continue
        for qubit, local in enumerate(item):
            if max_abs(local - local[0, 0] * _I2) < 1e-14:
                continue  # identity up to phase
            steps, _ = _euler_1q(_check_unitary(local, 2), 1e-10)
            gates.extend(Gate(kind, (qubit,), angle) for kind, angle in steps)
    gates = _merge_rotations(gates)
    circuit = Circuit(2, gates, 0.0)
    built = circuit_unitary(circuit)
    fidelity = process_fidelity(m, built)
    if fidelity < 1.0 - 1e-8:
        raise FidelityShortfall(f"synthesis fidelity {fidelity!r}")
    circuit.global_phase = _phase_for(m, built)
    return circuit


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset
# ---------------------------------------------------------------------------

_QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
_GATE_RE = re.compile(
    r"^(rx|rz)\(([^)]+)\) q\[(\d+)\];$|^(cz) q\[(\d+)\],q\[(\d+)\];$"
)
_PHASE_RE = re.compile(r"^// global_phase: (\S+)$")
_QREG_RE = re.compile(r"^qreg q\[(\d+)\];$")


def emit_circuit_text(circuit: Circuit) -> str:
    """Serialize to the OpenQASM subset; angles keep 17 significant digits."""
    lines = [_QASM_HEADER.rstrip("\n")]
    if circuit.global_phase != 0.0:
        lines.append(f"// global_phase: {format(circuit.global_phase, '.17g')}")
    lines.append(f"qreg q[{circuit.qubit_count}];")
    for gate in circuit.gates:
        if gate.kind == "cz":
            lines.append(f"cz q[{gate.qubits[0]}],q[{gate.qubits[1]}];")
        else:
            lines.append(
                f"{gate.kind}({format(gate.angle, '.17g')}) q[{gate.qubits[0]}];"
            )
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
        if not line.strip():
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise ParseError(f"unsupported statement: {line!r}")
        try:
            if m.group(4) == "cz":
                gates.append(Gate("cz", (int(m.group(5)), int(m.group(6)))))
            else:
                gates.append(Gate(m.group(1), (int(m.group(3)),), float(m.group(2))))
        except ValueError as exc:
            raise ParseError(f"bad gate {line!r}: {exc}") from exc
    try:
        return Circuit(qubit_count, gates, phase)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
