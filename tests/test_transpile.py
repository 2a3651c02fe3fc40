import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from qitp import transpile
from qitp.dilation import ItpParams, build_dilation
from qitp.errors import FidelityShortfall, NotUnitary, ParseError
from qitp.hamiltonians import hydrogen_sto2g
from qitp.linalg import PAULI_X, PAULI_Y, PAULI_Z, max_abs
from qitp.transpile import (
    Circuit,
    Gate,
    circuit_unitary,
    decompose_1q,
    emit_circuit_text,
    kak_coefficients,
    kak_decompose,
    parse_circuit_text,
    process_fidelity,
    rx_matrix,
    rz_matrix,
)

from helpers import haar_unitary

HYDROGEN_EXTENDED = np.array([0.00357, 0.17678, 0.53561, 0.28403])


def hydrogen_dilation():
    op, _, _ = hydrogen_sto2g()
    return build_dilation(op, ItpParams(tau=60.0, trial_mode="ground_state_exact"))


def interaction(x, y, z):
    """exp(i(x XX + y YY + z ZZ)) by the matrix exponential."""
    xx, yy, zz = (np.kron(p, p) for p in (PAULI_X, PAULI_Y, PAULI_Z))
    return expm(1j * (x * xx + y * yy + z * zz))


def chamber_points(rng, count):
    """Weyl-chamber points with either sign of z. Every fifth is random; the
    others lie 1e-8 to 1e-2 from a face: x = pi/4, x = y, y = |z| or z = 0."""
    points = []
    for i in range(count):
        x, y, z = np.sort(rng.uniform(0.0, math.pi / 4, 3))[::-1]
        z *= rng.choice([-1.0, 1.0])
        eps = 10.0 ** rng.uniform(-8, -2)
        face = i % 5
        if face == 1:
            x = math.pi / 4 - eps
        elif face == 2:
            y = x - eps
        elif face == 3:
            z = math.copysign(y - eps, z)
        elif face == 4:
            z = math.copysign(eps, z)
        points.append((float(x), float(y), float(z)))
    return points


def decompose_1q_oracle(u, atol=1e-10):
    """The Euler step the long way: build a one-qubit Circuit, take its
    circuit_unitary and fit the global phase to it.

    The angles come from the closed-form determinant ``a d - b c`` on Python
    scalars, as in the step itself. LAPACK's LU determinant can land on the
    other side of the phase cut at det = -1 (an angle 2 pi away, which the
    global phase absorbs), and numpy's vectorized angle and complex product
    differ from cmath in the last bit, so neither would pin the step's
    angles exactly."""
    m = transpile._check_unitary(u, 2, atol)
    (a, b), (c, d) = m.tolist()
    phase = cmath.exp(-0.5j * cmath.phase(a * d - b * c))
    su00, su10, su11 = a * phase, c * phase, d * phase
    if abs(su10) < atol:
        alpha = 2.0 * cmath.phase(su11)
        beta = 0.0
        gamma = 0.0
    elif abs(su00) < atol:
        beta = math.pi
        alpha = -math.pi - 2.0 * cmath.phase(su10)
        gamma = 0.0
    else:
        beta = 2.0 * math.atan2(abs(su10), abs(su00))
        plus = cmath.phase(su11)
        minus = -math.pi / 2.0 - cmath.phase(su10)
        alpha = plus + minus
        gamma = plus - minus
    gates = [
        Gate("rz", (0,), alpha),
        Gate("rx", (0,), beta),
        Gate("rz", (0,), gamma),
    ]
    gates = [g for g in gates if abs(g.angle) > 1e-14]
    circuit = Circuit(1, gates, 0.0)
    built = circuit_unitary(circuit)
    if process_fidelity(m, built) < 1.0 - 1e-10:
        raise FidelityShortfall("single-qubit Euler decomposition missed its target")
    circuit.global_phase = transpile._phase_for(m, built)
    return circuit


ONE_QUBIT_KINDS = ("haar", "diagonal", "anti-diagonal", "edge-0", "edge-pi", "det-at-cut")


@st.composite
def one_qubit_unitaries(draw, kinds=ONE_QUBIT_KINDS):
    """Haar, diagonal and anti-diagonal 2x2 unitaries, and ones within 1e-11
    of a branch edge (|su[1, 0]| or |su[0, 0]| equal to 1e-10), each times a
    random phase; and i * SU(2) matrices, whose determinant -1 sits on the
    phase cut (no extra phase)."""
    angle = st.floats(-math.pi, math.pi)
    a, b, phi = draw(angle), draw(angle), draw(angle)
    kind = draw(st.sampled_from(kinds))
    if kind == "det-at-cut":
        # off-diagonal magnitude sin(theta) is 0, 1 or at least 1e-6 from
        # both: the branches' 1e-10 edges are the edge kinds' job
        theta = draw(st.one_of(st.sampled_from([0.0, math.pi / 2]),
                               st.floats(1e-6, math.pi / 2 - 1e-6)))
        alpha = math.cos(theta) * cmath.exp(1j * a)
        beta = math.sin(theta) * cmath.exp(1j * b)
        return 1j * np.array([[alpha, -beta.conjugate()], [beta, alpha.conjugate()]])
    if kind == "haar":
        u = haar_unitary(2, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    elif kind == "diagonal":
        u = np.diag(np.exp(1j * np.array([a, b])))
    elif kind == "anti-diagonal":
        u = np.array([[0.0, np.exp(1j * a)], [np.exp(1j * b), 0.0]])
    else:
        s = 1e-10 + draw(st.floats(-1e-11, 1e-11))
        beta = 2.0 * (math.asin(s) if kind == "edge-0" else math.acos(s))
        u = rz_matrix(b) @ rx_matrix(beta) @ rz_matrix(a)
    return np.exp(1j * phi) * u


@st.composite
def weyl_cases(draw):
    """A Weyl-chamber point between two random local pairs. Each coordinate
    sits exactly on a face or at least 1e-4 off every face."""
    part = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))
    x = math.pi / 4 * draw(part)
    y = x * draw(part)
    z = y * draw(part)
    if x < math.pi / 4:
        z *= draw(st.sampled_from([-1.0, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    before = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    after = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return (x, y, z), after @ interaction(x, y, z) @ before


class TestGateAndCircuit:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("ry", (0,), 1.0)
        with pytest.raises(ValueError):
            Gate("cz", (0, 0))
        with pytest.raises(ValueError):
            Gate("rx", (0,), None)
        for qubits in ((0.0,), 0, "0"):
            with pytest.raises(ValueError):
                Gate("rx", qubits, 1.0)

    def test_gate_qubits_normalized_to_int_tuple(self):
        g = Gate("rx", [0], 1.0)
        assert g.qubits == (0,) and type(g.qubits) is tuple
        assert g == Gate("rx", (0,), 1.0)
        assert hash(g) == hash(Gate("rx", (0,), 1.0))
        cz = Gate("cz", np.array([1, 0]))
        assert cz.qubits == (1, 0) and all(type(q) is int for q in cz.qubits)
        merged = transpile._merge_rotations([Gate("rx", [0], 0.5), Gate("rx", (0,), 0.25)])
        assert merged == [Gate("rx", (0,), 0.75)]

    def test_global_phase_must_be_finite(self):
        for phase in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Circuit(1, [], phase)

    def test_angle_normalized_into_range(self):
        g = Gate("rz", (0,), 7.0 * math.pi)
        assert -2 * math.pi < g.angle <= 2 * math.pi
        assert max_abs(g.matrix() - rz_matrix(7.0 * math.pi)) < 1e-12

    def test_empty_circuit_is_identity(self):
        assert max_abs(circuit_unitary(Circuit(2)) - np.eye(4)) == 0.0

    def test_single_cz(self):
        c = Circuit(2, [Gate("cz", (0, 1))])
        assert np.allclose(np.diag(circuit_unitary(c)), [1, 1, 1, -1])

    def test_rz_inverse_pair(self):
        c = Circuit(1, [Gate("rz", (0,), 0.37), Gate("rz", (0,), -0.37)])
        assert max_abs(circuit_unitary(c) - np.eye(2)) < 1e-14

    def test_gate_order_is_application_order(self):
        c = Circuit(1, [Gate("rz", (0,), 1.0), Gate("rx", (0,), 0.5)])
        want = rx_matrix(0.5) @ rz_matrix(1.0)
        assert max_abs(circuit_unitary(c) - want) < 1e-14

    def test_global_phase_applied(self):
        c = Circuit(1, [], global_phase=math.pi / 3)
        assert max_abs(circuit_unitary(c) - np.exp(1j * math.pi / 3) * np.eye(2)) < 1e-14

    def test_matches_kronecker_oracle(self):
        def gate_matrix(gate, n):
            if gate.kind == "cz":
                i, j = gate.qubits
                diag = np.ones(2**n)
                for idx in range(2**n):
                    if (idx >> (n - 1 - i)) & 1 and (idx >> (n - 1 - j)) & 1:
                        diag[idx] = -1.0
                return np.diag(diag)
            (q,) = gate.qubits
            return np.kron(np.kron(np.eye(2**q), gate.matrix()), np.eye(2 ** (n - 1 - q)))

        rng = np.random.default_rng(23)
        circuits = [
            Circuit(2, [Gate("rx", (0,), 0.3), Gate("rx", (1,), 1.2), Gate("cz", (1, 0))]),
            Circuit(3, [
                Gate("rx", (0,), 0.7), Gate("rx", (1,), -1.3), Gate("rx", (2,), 2.1),
                Gate("cz", (0, 2)), Gate("rz", (2,), 0.4), Gate("cz", (2, 1)),
                Gate("rx", (1,), 0.9), Gate("cz", (1, 0)),
            ], global_phase=0.25),
        ]
        for _ in range(200):
            n = int(rng.integers(1, 4))
            gates = []
            for _ in range(int(rng.integers(0, 10))):
                if n > 1 and rng.uniform() < 0.3:
                    i, j = rng.choice(n, 2, replace=False)
                    gates.append(Gate("cz", (int(i), int(j))))
                else:
                    kind = "rx" if rng.uniform() < 0.5 else "rz"
                    gates.append(Gate(kind, (int(rng.integers(n)),), rng.uniform(-7, 7)))
            circuits.append(Circuit(n, gates, rng.uniform(-math.pi, math.pi)))
        for c in circuits:
            want = np.eye(2**c.qubit_count, dtype=complex)
            for gate in c.gates:
                want = gate_matrix(gate, c.qubit_count) @ want
            want *= np.exp(1j * c.global_phase)
            assert max_abs(circuit_unitary(c) - want) < 1e-14


class TestDecompose1q:
    def test_identity(self):
        c = decompose_1q(np.eye(2))
        assert c.gates == []
        assert c.global_phase == 0.0

    def test_rx_fixed_point(self):
        c = decompose_1q(rx_matrix(0.7))
        kinds = [g.kind for g in c.gates]
        assert kinds == ["rx"]
        assert abs(c.gates[0].angle - 0.7) < 1e-14
        assert abs(c.global_phase) < 1e-14

    def test_hadamard_fidelity(self):
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        c = decompose_1q(h)
        assert process_fidelity(h, circuit_unitary(c)) > 1 - 1e-12
        assert max_abs(circuit_unitary(c) - h) < 1e-12

    def test_near_diagonal_takes_beta_zero_branch(self):
        u = np.diag([np.exp(0.3j), np.exp(-0.1j)])
        c = decompose_1q(u)
        assert all(g.kind == "rz" for g in c.gates)
        assert max_abs(circuit_unitary(c) - u) < 1e-12

    def test_random_unitaries_exact(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            u = haar_unitary(2, rng)
            c = decompose_1q(u)
            assert len(c.gates) <= 3
            assert max_abs(circuit_unitary(c) - u) < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            decompose_1q(np.array([[1.0, 0.0], [1.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        for value in (bad, complex(0.0, bad)):
            for entry in range(4):
                q = [1 + 0j, 0j, 0j, 1 + 0j]
                q[entry] = value
                with pytest.raises(NotUnitary):
                    decompose_1q(np.array(q).reshape(2, 2))
                with pytest.raises(NotUnitary):
                    transpile._check_unitary2(tuple(q))
        with pytest.raises(NotUnitary):
            decompose_1q(np.full((2, 2), bad))

    @settings(max_examples=300, deadline=None)
    @given(one_qubit_unitaries(), st.sampled_from([0.0, 1e-12, 1e-6, 1e-2]),
           st.integers(0, 2**32 - 1))
    def test_scalar_checks_match_numpy(self, u, scale, seed):
        rng = np.random.default_rng(seed)
        m = u + scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        v = haar_unitary(2, rng)
        q, w = tuple(m.ravel().tolist()), tuple(v.ravel().tolist())
        defect = max_abs(m.conj().T @ m - np.eye(2))
        assert abs(transpile._unitary_defect2(q) - defect) <= 1e-15
        assert abs(transpile._fidelity2(q, w) - process_fidelity(m, v)) <= 1e-15
        assert abs(transpile._fidelity2(w, q) - process_fidelity(v, m)) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(one_qubit_unitaries(kinds=("haar", "diagonal", "anti-diagonal", "det-at-cut")),
           st.integers(0, 2**32 - 1))
    def test_reproduces_input_with_phase(self, u, seed):
        assert max_abs(circuit_unitary(decompose_1q(u)) - u) < 1e-12
        other = haar_unitary(2, np.random.default_rng(seed))
        cz = np.diag([1.0, 1.0, 1.0, -1.0])
        for target in (np.kron(u, other), np.kron(other, u) @ cz @ np.kron(u, u)):
            assert max_abs(circuit_unitary(kak_decompose(target)) - target) < 1e-12

    @settings(max_examples=500, deadline=None)
    @given(one_qubit_unitaries())
    def test_matches_circuit_oracle(self, u):
        c = decompose_1q(u)
        want = decompose_1q_oracle(u)
        assert [g.kind for g in c.gates] == [g.kind for g in want.gates]
        assert [g.angle for g in c.gates] == [g.angle for g in want.gates]
        assert abs(c.global_phase - want.global_phase) <= 1e-15

    def test_beta_pi_branch(self):
        rng = np.random.default_rng(39)
        cases = [PAULI_X, PAULI_Y]
        for _ in range(50):
            a, b, phi = rng.uniform(-math.pi, math.pi, 3)
            anti = np.array([[0.0, np.exp(1j * a)], [np.exp(1j * b), 0.0]])
            # |u[0, 0]| = sin(eps): below the branch's 1e-10, and small
            # enough that dropping it keeps u within 1e-12
            eps = 10.0 ** rng.uniform(-16, -13)
            near = rz_matrix(b) @ rx_matrix(math.pi - 2.0 * eps) @ rz_matrix(a)
            cases += [np.exp(1j * phi) * anti, np.exp(1j * phi) * near]
        for u in cases:
            c = decompose_1q(u)
            assert [g for g in c.gates if g.kind == "rx"] == [Gate("rx", (0,), math.pi)]
            assert len(c.gates) <= 2
            assert max_abs(circuit_unitary(c) - u) < 1e-12


class TestKakDecompose:
    def test_local_product_needs_no_cz(self):
        rng = np.random.default_rng(31)
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        c = kak_decompose(u)
        assert c.cz_count() == 0
        assert process_fidelity(u, circuit_unitary(c)) > 1 - 1e-10

    def test_cz_class(self):
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        _, _, coeffs, _ = kak_coefficients(cz)
        assert np.allclose(coeffs, [math.pi / 4, 0.0, 0.0], atol=1e-12)
        c = kak_decompose(cz)
        assert c.cz_count() == 1
        assert max_abs(circuit_unitary(c) - cz) < 1e-10

    def test_known_gate_classes(self):
        cnot = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        iswap = np.array(
            [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        for u, czs in ((cnot, 1), (swap, 3), (iswap, 2)):
            c = kak_decompose(u)
            assert c.cz_count() == czs
            assert max_abs(circuit_unitary(c) - u) < 1e-7

    def test_haar_random_sweep(self):
        rng = np.random.default_rng(32)
        for _ in range(150):
            u = haar_unitary(4, rng)
            c = kak_decompose(u)
            assert c.cz_count() <= 3
            assert all(g.kind in ("rx", "rz", "cz") for g in c.gates)
            built = circuit_unitary(c)
            assert process_fidelity(u, built) >= 1 - 1e-8
            assert max_abs(built - u) < 1e-7

    def test_coefficients_stable_under_reextraction(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            u = haar_unitary(4, rng)
            _, _, c1, _ = kak_coefficients(u)
            rebuilt = circuit_unitary(kak_decompose(u))
            _, _, c2, _ = kak_coefficients(rebuilt)
            assert max(abs(a - b) for a, b in zip(c1, c2)) < 1e-8

    def test_weyl_chamber_constraints(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            _, _, (x, y, z), _ = kak_coefficients(haar_unitary(4, rng))
            assert 0 <= abs(z) <= y + 1e-12 <= x + 1e-12 <= math.pi / 4 + 1e-9

    def test_hydrogen_dilation_circuit(self):
        u = hydrogen_dilation()
        c = kak_decompose(u.matrix)
        assert c.cz_count() <= 3
        built = circuit_unitary(c)
        assert process_fidelity(u.matrix, built) >= 1 - 1e-8
        state = built @ np.array([1, 1, 0, 0]) / np.sqrt(2)
        probs = np.abs(state) ** 2
        assert max_abs(probs - HYDROGEN_EXTENDED) < 5e-3

    def test_tau_zero_dilation_is_local(self):
        op, _, _ = hydrogen_sto2g()
        u = build_dilation(op, ItpParams(tau=0.0))
        c = kak_decompose(u.matrix)
        assert c.cz_count() == 0

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            kak_decompose(np.eye(4) * 1.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        one = np.eye(4, dtype=complex)
        one[2, 3] = bad
        for u in (one, np.full((4, 4), bad)):
            with pytest.raises(NotUnitary):
                kak_coefficients(u)
            with pytest.raises(NotUnitary):
                kak_decompose(u)

    def test_three_cz_circuit_matches_expm(self):
        def block_matrix(seq):
            u = np.eye(4, dtype=complex)
            for item in seq.items:
                if item == "cz":
                    u = np.diag([1, 1, 1, -1]) @ u
                else:
                    u = np.kron(item[0], item[1]) @ u
            return u

        rng = np.random.default_rng(36)
        for x, y, z in chamber_points(rng, 300):
            seq = transpile._BlockSeq()
            transpile._append_xyz(seq, x, y, z)
            assert sum(item == "cz" for item in seq.items) == 3
            assert process_fidelity(interaction(x, y, z), block_matrix(seq)) > 1 - 1e-12

    def test_face_near_three_cz_classes(self):
        rng = np.random.default_rng(37)
        for x, y, z in chamber_points(rng, 100):
            before = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            after = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            u = after @ interaction(x, y, z) @ before
            c = kak_decompose(u)
            built = circuit_unitary(c)
            assert c.cz_count() == 3
            assert process_fidelity(u, built) >= 1 - 1e-8
            assert max_abs(built - u) < 1e-7

    @settings(max_examples=200, deadline=None)
    @given(weyl_cases())
    def test_cz_count_by_weyl_class(self, case):
        (x, y, z), u = case
        c = kak_decompose(u)
        built = circuit_unitary(c)
        assert process_fidelity(u, built) >= 1 - 1e-8
        assert max_abs(built - u) < 1e-7
        if (x, y, z) == (0.0, 0.0, 0.0):
            assert c.cz_count() == 0
        elif (x, y, z) == (math.pi / 4, 0.0, 0.0):
            assert c.cz_count() == 1
        else:
            assert c.cz_count() == (2 if z == 0.0 else 3)

    def test_degenerate_first_mixing_angle_falls_back(self):
        # Two eigenphases of the magic-basis Gram matrix summing to 2 * t0
        # make the first mix cos(t0) Re + sin(t0) Im degenerate.
        t0 = 0.785398163
        rng = np.random.default_rng(38)

        def special_orthogonal():
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            return q if np.linalg.det(q) > 0 else q * np.array([-1.0, 1.0, 1.0, 1.0])

        for _ in range(20):
            a, b = rng.uniform(-0.5, 0.5, 2)
            delta = np.array([t0 / 2 + a, t0 / 2 - a, b, -t0 - b])
            mb = special_orthogonal() @ np.diag(np.exp(1j * delta)) @ special_orthogonal()
            u = transpile._MAGIC @ mb @ transpile._MAGIC_DAG
            g = mb @ mb.T
            _, p = np.linalg.eigh(math.cos(t0) * g.real + math.sin(t0) * g.imag)
            d = p.T @ g @ p
            assert max_abs(d - np.diag(np.diag(d))) > 1e-11
            c = kak_decompose(u)
            built = circuit_unitary(c)
            assert c.cz_count() == 3
            assert process_fidelity(u, built) >= 1 - 1e-8
            assert max_abs(built - u) < 1e-7


@st.composite
def random_circuits(draw):
    """1-2 qubit circuits of rx/rz/cz with any finite angles and global phase."""
    qubit_count = draw(st.integers(1, 2))
    angle = st.one_of(st.sampled_from([0.0, -0.0, math.pi, -2 * math.pi, 4 * math.pi]),
                      st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))
    kinds = ("rx", "rz", "cz") if qubit_count == 2 else ("rx", "rz")
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "cz":
            gates.append(Gate("cz", draw(st.sampled_from([(0, 1), (1, 0)]))))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, qubit_count - 1)),), draw(angle)))
    return Circuit(qubit_count, gates, draw(angle))


class TestQasmRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(random_circuits())
    def test_round_trip_property(self, circuit):
        text = emit_circuit_text(circuit)
        parsed = parse_circuit_text(text)
        assert emit_circuit_text(parsed) == text
        assert parsed.qubit_count == circuit.qubit_count
        assert max_abs(circuit_unitary(parsed) - circuit_unitary(circuit)) == 0.0

    def test_empty_circuit_header_only(self):
        text = emit_circuit_text(Circuit(2))
        assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'

    def test_single_cz_line(self):
        text = emit_circuit_text(Circuit(2, [Gate("cz", (0, 1))]))
        assert text.count("cz q[0],q[1];") == 1

    def test_angles_have_17_significant_digits(self):
        text = emit_circuit_text(Circuit(1, [Gate("rx", (0,), math.pi / 3)]))
        assert "rx(1.0471975511965976) q[0];" in text

    def test_round_trip_hydrogen_is_byte_identical(self):
        u = hydrogen_dilation()
        c = kak_decompose(u.matrix)
        text = emit_circuit_text(c)
        parsed = parse_circuit_text(text)
        assert emit_circuit_text(parsed) == text
        assert max_abs(circuit_unitary(parsed) - circuit_unitary(c)) < 1e-14

    def test_round_trip_random_circuits(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            c = kak_decompose(haar_unitary(4, rng))
            text = emit_circuit_text(c)
            assert emit_circuit_text(parse_circuit_text(text)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_circuit_text("hello world\n")
        with pytest.raises(ParseError):
            parse_circuit_text(
                'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\n'
            )
        for body in (
            "qreg q[0];\n",
            "qreg q[2];\nrx(0.5) q[2];\n",
            "qreg q[2];\ncz q[0],q[2];\n",
            "qreg q[2];\ncz q[0],q[0];\n",
            "qreg q[1];\nrx(nan) q[0];\n",
            "qreg q[1];\nrz(inf) q[0];\n",
            "// global_phase: nan\nqreg q[1];\n",
            "// global_phase: inf\nqreg q[1];\n",
        ):
            with pytest.raises(ParseError):
                parse_circuit_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n' + body)

    def test_parse_accepts_phaseless_header(self):
        c = parse_circuit_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nrx(0.5) q[2];\n'
        )
        assert c.qubit_count == 3
        assert c.global_phase == 0.0
        assert c.gates == [Gate("rx", (2,), 0.5)]
