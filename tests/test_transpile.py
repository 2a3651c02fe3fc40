import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from qitp import transpile
from qitp.dilation import ItpParams, build_dilation
from qitp.errors import FidelityShortfall, NotUnitary, ParseError
from qitp.hamiltonians import hydrogen_sto2g
from qitp.linalg import PAULI_X, PAULI_Y, PAULI_Z, HermitianOperator, max_abs
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
)

from helpers import haar_unitary, random_hermitian, rx_matrix, ry_matrix, rz_matrix

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
    m = transpile._check_unitary(u, 2)
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
    gates = [g for g in gates if min(abs(g.angle), abs(abs(g.angle) - 2 * math.pi)) > 1e-12]
    built = circuit_unitary(Circuit(1, gates, 0.0))
    if process_fidelity(m, built) < 1.0 - 1e-10:
        raise FidelityShortfall("single-qubit Euler decomposition missed its target")
    return Circuit(1, gates, cmath.phase(
        transpile._overlap2(tuple(built.ravel().tolist()), tuple(m.ravel().tolist()))
    ))


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


def sbm_cz_count(u, tol=1e-9):
    """CZ count of a two-qubit unitary by Shende, Bullock & Markov, PRA 70,
    012310 (2004). With U scaled into SU(4) and gamma = U (Y(x)Y) U^T (Y(x)Y):
    0 CZs iff gamma = +-I, 1 iff tr gamma = 0 and gamma^2 = -I, 2 iff tr gamma
    is real, 3 otherwise. Plain numpy; shares no code with the Weyl-chamber
    reduction. The fourth root's branch only flips the sign of gamma, which
    none of the four conditions can tell apart."""
    u = np.asarray(u, dtype=complex)
    u = u / np.linalg.det(u) ** 0.25
    y = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(y, y)
    gamma = u @ yy @ u.T @ yy
    eye = np.eye(4)
    trace = np.trace(gamma)
    if min(np.abs(gamma - eye).max(), np.abs(gamma + eye).max()) < tol:
        return 0
    if abs(trace) < tol and np.abs(gamma @ gamma + eye).max() < tol:
        return 1
    return 2 if abs(trace.imag) < tol else 3


@st.composite
def dilation_cases(draw):
    """A random 2x2 Hermitian H at scale 1e-3 to 1e3, tau in [1e-2, 32] and
    an offset of E_T from E0 within three units."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = random_hermitian(2, rng, 10.0 ** draw(st.floats(-3.0, 3.0)))
    return h, draw(st.floats(1e-2, 32.0)), draw(st.floats(-3.0, 3.0))


CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


@st.composite
def synthesis_cases(draw):
    """A Haar draw, or a unitary of one Weyl class between random local pairs
    (a local product, the CZ class, a z = 0 point) times a random phase, or
    the hydrogen dilation at E_T = E0 (`--et auto`) and tau in [0.5, 60].

    Each class sits on its face or clear of the others: a dilation whose
    class lies within _WEYL_TOL of the local one (E_T far from E0 at large
    tau) is synthesized as local and misses by up to that tolerance."""
    kind = draw(st.sampled_from(["haar", "local", "cz", "z0", "hydrogen"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "haar":
        return haar_unitary(4, rng)
    if kind == "hydrogen":
        op, _, _ = hydrogen_sto2g()
        tau = draw(st.floats(0.5, 60.0))
        return build_dilation(op, ItpParams(tau, trial_mode="ground_state_exact")).matrix
    core = {
        "local": np.eye(4),
        "cz": CZ,
        "z0": interaction(rng.uniform(0.15, 0.7), rng.uniform(0.01, 0.15), 0.0),
    }[kind]
    before = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    after = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return np.exp(1j * rng.uniform(-math.pi, math.pi)) * after @ core @ before


@st.composite
def interaction_cases(draw):
    """exp(i(x XX + y YY + z ZZ)) for any (x, y, z), not reduced to the Weyl
    chamber, between two random local pairs and times a random phase. Each
    coordinate is a multiple of pi/4 (a class face after the reduction) or at
    least 1e-3 from every multiple: the triple product sin 2x sin 2y sin 2z
    that separates 2 from 3 CZs then stays above 1e-8, clear of the oracle's
    tolerance. Offsets of 1e-6 alone would not do: with all three
    coordinates near 1e-6 the product is 1e-17."""
    def coordinate():
        offset = draw(st.one_of(st.just(0.0), st.floats(1e-3, math.pi / 4 - 1e-3)))
        return draw(st.integers(-4, 4)) * math.pi / 4 + offset

    x, y, z = coordinate(), coordinate(), coordinate()
    return interaction_case(x, y, z, draw(st.integers(0, 2**32 - 1)))


def interaction_case(x, y, z, seed):
    """One :func:`interaction_cases` draw: the locals and phase come from seed."""
    rng = np.random.default_rng(seed)
    before = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    after = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    phase = np.exp(1j * rng.uniform(-math.pi, math.pi))
    return phase * after @ interaction(x, y, z) @ before


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
        with pytest.raises(ValueError, match="cz takes no angle"):
            Gate("cz", (0, 1), 0.5)
        with pytest.raises(ValueError, match="rx acts on exactly one qubit"):
            Gate("rx", (0, 1), 0.5)

    def test_gate_qubits_normalized_to_int_tuple(self):
        g = Gate("rx", [0], 1.0)
        assert g.qubits == (0,) and type(g.qubits) is tuple
        assert g == Gate("rx", (0,), 1.0)
        assert hash(g) == hash(Gate("rx", (0,), 1.0))
        cz = Gate("cz", np.array([1, 0]))
        assert cz.qubits == (1, 0) and all(type(q) is int for q in cz.qubits)

    def test_global_phase_must_be_finite(self):
        for phase in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Circuit(1, [], phase)
        # the qubit count must be an integer >= 1, and every entry a Gate
        for count in (math.nan, 1.5, 2.0, True, False, "2", None, 0, -1):
            with pytest.raises(ValueError):
                Circuit(count)
        for entry in (("cz", (0, 1)), None, "cz q[0],q[1];"):
            with pytest.raises(ValueError):
                Circuit(2, [Gate("rx", (0,), 0.5), entry])
        c = Circuit(np.int64(2), [Gate("cz", (0, 1))])
        assert c.qubit_count == 2 and type(c.qubit_count) is int

    def test_circuit_is_immutable(self):
        # checks run only at construction, and emit trusts them: a NaN phase
        # or an out-of-range gate would emit QASM that parse rejects
        c = Circuit(1, [Gate("rx", (0,), 0.5)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.global_phase = math.nan
        with pytest.raises(AttributeError):
            c.gates.append(Gate("rx", (3,), 0.1))
        assert c.gates == (Gate("rx", (0,), 0.5),)
        assert parse_circuit_text(emit_circuit_text(c)) == c

    def test_gate_is_frozen_and_replace_checks_again(self):
        g = Gate("rx", (0,), 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.angle = math.nan
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.qubits = (True,)
        assert dataclasses.replace(g, angle=0.25) == Gate("rx", (0,), 0.25)
        assert dataclasses.replace(g, angle=7.0 * math.pi) == Gate("rx", (0,), 7.0 * math.pi)
        for change in ({"angle": math.nan}, {"angle": True}, {"angle": "0.1"},
                       {"qubits": (True,)}, {"qubits": (0, 1)}, {"kind": "cz"}):
            with pytest.raises(ValueError):
                dataclasses.replace(g, **change)
        assert g == Gate("rx", (0,), 0.5)

    def test_angle_normalized_into_range(self):
        g = Gate("rz", (0,), 7.0 * math.pi)
        assert -2 * math.pi < g.angle <= 2 * math.pi
        assert max_abs(circuit_unitary(Circuit(1, [g])) - rz_matrix(7.0 * math.pi)) < 1e-12

    def test_empty_circuit_is_identity(self):
        assert max_abs(circuit_unitary(Circuit(2)) - np.eye(4)) == 0.0

    def test_single_cz(self):
        c = Circuit(2, [Gate("cz", (0, 1))])
        assert np.array_equal(circuit_unitary(c), np.diag([1, 1, 1, -1]))

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
            rotation = {"rx": rx_matrix, "rz": rz_matrix}[gate.kind](gate.angle)
            return np.kron(np.kron(np.eye(2**q), rotation), np.eye(2 ** (n - 1 - q)))

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


class TestScalarKernels:
    """The scalar 2x2 forms against numpy oracles."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-50.0, 50.0), st.integers(0, 2**32 - 1))
    def test_scalar_forms_match_numpy(self, theta, seed):
        for kind, oracle in (("rx", rx_matrix), ("ry", ry_matrix), ("rz", rz_matrix)):
            got = np.reshape(transpile._rotation(kind, theta), (2, 2))
            assert max_abs(got - oracle(theta)) <= 1e-15
        rng = np.random.default_rng(seed)
        p, q = haar_unitary(2, rng), haar_unitary(2, rng)
        product = transpile._mul2(tuple(p.ravel().tolist()), tuple(q.ravel().tolist()))
        assert max_abs(np.reshape(product, (2, 2)) - p @ q) <= 1e-15
        m = np.exp(1j * rng.uniform(-math.pi, math.pi)) * np.kron(p, q)
        g, f0, f1 = transpile._kron_factor(m)
        assert all(type(f) is np.ndarray and f.shape == (2, 2) for f in (f0, f1))
        for f in (f0, f1):
            assert abs(transpile._det2(f.ravel()) - 1.0) <= 1e-15
        rebuilt = g * np.kron(np.reshape(f0, (2, 2)), np.reshape(f1, (2, 2)))
        assert max_abs(rebuilt - m) <= 1e-15

    @pytest.mark.parametrize("m, message", [
        # the singular-block guard: CNOT's column through its top entry is |0><0|
        (CNOT, "not a kron product of invertible 2x2 blocks"),
        (np.zeros((4, 4)), "not a kron product of invertible 2x2 blocks"),
        (CZ, "not a kron product of invertible 2x2 blocks"),  # the product guard
    ], ids=["cnot", "zero", "cz"])
    def test_kron_factor_rejects_non_products(self, m, message):
        with pytest.raises(FidelityShortfall, match=message):
            transpile._kron_factor(m)


class TestDecompose1q:
    def test_identity(self):
        c = decompose_1q(np.eye(2))
        assert c.gates == ()
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
        assert abs(abs(transpile._overlap2(q, w)) / 2 - process_fidelity(m, v)) <= 1e-15
        assert abs(abs(transpile._overlap2(w, q)) / 2 - process_fidelity(v, m)) <= 1e-15

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

    @pytest.mark.parametrize("pauli", [np.eye(2), PAULI_X, PAULI_Y, PAULI_Z], ids="IXYZ")
    @pytest.mark.parametrize("phase", [1, -1, 1j, -1j], ids=["+1", "-1", "+i", "-i"])
    def test_phased_pauli_emits_no_phase_rotation(self, pauli, phase):
        # rx or rz by +-2*pi is -I, a global phase, not a gate
        u = phase * pauli
        c = decompose_1q(u)
        for g in c.gates:
            assert min(abs(g.angle), abs(abs(g.angle) - 2 * math.pi)) > 1e-12, c
        assert max_abs(circuit_unitary(c) - u) < 1e-12

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

    @pytest.mark.parametrize("defect", [1e-12, 5e-11])
    def test_near_unitary_input_compiles(self, defect):
        """An input that is unitary only within ``defect`` (text with 12
        digits, a long product of gates) compiles as any input below
        _UNITARY_TOL must: its Gram matrix diagonalizes only to about that
        defect, and the KAK core accepts that."""
        rng = np.random.default_rng(38)
        for _ in range(30):
            u = haar_unitary(4, rng)
            noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u = u + noise * defect / max_abs(u.conj().T @ noise + noise.conj().T @ u)
            assert 0.5 * defect < max_abs(u.conj().T @ u - np.eye(4)) < 2 * defect
            assert process_fidelity(u, circuit_unitary(kak_decompose(u))) >= 1 - 1e-8

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

    @pytest.mark.parametrize("point, czs", [
        ((5e-10, 0.0, 0.0), 0),  # the local class
        ((math.pi / 4 - 5e-10, 0.0, 0.0), 1),  # the CZ class
        ((0.3, 0.2, 5e-10), 2),  # the z = 0 face
        ((0.3, 5e-10, 0.0), 2),  # the y = z = 0 edge
    ])
    def test_coordinate_near_a_face_snaps_onto_it(self, point, czs):
        """A Weyl coordinate within _WEYL_TOL = 1e-9 of a chamber face is
        synthesized on the face: the face's CZ count, and a circuit that
        misses the input by up to about that distance, not to machine
        precision, while the process fidelity still reads 1."""
        rng = np.random.default_rng(37)
        before = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        after = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        for u in (interaction(*point), after @ interaction(*point) @ before):
            c = kak_decompose(u)
            built = circuit_unitary(c)
            assert c.cz_count() == czs
            assert max_abs(built - u) <= transpile._WEYL_TOL
            assert process_fidelity(u, built) >= 1 - 1e-15

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
        """Every branch of the block table: the origin, the CZ class, (x, 0, 0),
        (x, y, 0), iSWAP, SWAP and generic points, most of them 1e-8 to 1e-2
        from a face. Each block list has the Shende-Bullock-Markov CZ count
        and multiplies out to the interaction."""
        def block_matrix(blocks):
            u = np.eye(4, dtype=complex)
            for i, pair in enumerate(blocks):
                if i:
                    u = np.diag([1, 1, 1, -1]) @ u
                u = np.kron(*(np.reshape(f, (2, 2)) for f in pair)) @ u
            return u

        rng = np.random.default_rng(36)
        quarter = math.pi / 4
        points = [(0.0, 0.0, 0.0), (quarter, 0.0, 0.0), (quarter, quarter, 0.0),
                  (quarter, quarter, quarter)]
        for _ in range(50):
            x = rng.uniform(1e-3, quarter - 1e-3)
            points += [(x, 0.0, 0.0), (x, rng.uniform(1e-3, x), 0.0)]
        points += chamber_points(rng, 300)
        for x, y, z in points:
            blocks = transpile._interaction_blocks(x, y, z)
            target = interaction(x, y, z)
            assert len(blocks) - 1 == sbm_cz_count(target)
            assert process_fidelity(target, block_matrix(blocks)) > 1 - 1e-12

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

    @settings(max_examples=300, deadline=None)
    @given(interaction_cases())
    def test_cz_count_matches_independent_oracle(self, u):
        c = kak_decompose(u)
        assert c.cz_count() == sbm_cz_count(u)
        assert max_abs(circuit_unitary(c) - u) < 1e-7

    @settings(max_examples=200, deadline=None)
    @given(dilation_cases())
    def test_dilation_weyl_class_in_closed_form(self, case):
        # U = Z(x)Q + X(x)R is a reservoir Ry(-2 theta_n) multiplexed on the
        # eigenbasis of H, theta_n = arctan(exp((E_n - E_T) tau)): its Weyl
        # class is (|theta_0 - theta_1| / 2, 0, 0), at most 2 CZs
        h, tau, offset = case
        e = np.linalg.eigvalsh(h)
        et = e[0] + offset
        with np.errstate(over="ignore"):
            theta = np.arctan(np.exp((e - et) * tau))
        x = abs(theta[0] - theta[1]) / 2
        u = build_dilation(HermitianOperator.from_matrix(h), ItpParams(tau=tau, trial_energy=et))
        assert np.abs(np.subtract(kak_coefficients(u.matrix)[2], (x, 0.0, 0.0))).max() <= 1e-8
        czs = kak_decompose(u.matrix).cz_count()
        if x == 0.0:
            assert czs == 0
        elif x == math.pi / 4:
            assert czs == 1
        elif 1e-7 < x < math.pi / 4 - 1e-7:
            assert czs == 2

    @settings(max_examples=200, deadline=None)
    @given(synthesis_cases())
    def test_trailing_rz_moves_through_cz(self, u):
        # a local before a CZ ends in rx or nothing: its trailing rz commutes
        # through the diagonal CZ into the next local, two gates fewer per CZ
        # than an Euler triple per local would take
        c = kak_decompose(u)
        assert len(c.gates) <= {0: 6, 1: 11, 2: 16, 3: 21}[c.cz_count()]
        last = {}
        for g in c.gates:
            if g.kind == "cz":
                assert "rz" not in (last.get(0), last.get(1))
            for q in g.qubits:
                last[q] = g.kind
        assert max_abs(circuit_unitary(c) - u) <= 1e-12

    def test_oracle_on_known_gates(self):
        cnot = np.eye(4)[[0, 1, 3, 2]]
        swap = np.eye(4)[[0, 2, 1, 3]]
        iswap = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])
        local = np.kron(rx_matrix(0.3), rz_matrix(1.1))
        for u, czs in ((np.eye(4), 0), (local, 0), (cnot, 1), (iswap, 2), (swap, 3)):
            assert sbm_cz_count(u) == czs
            assert kak_decompose(u).cz_count() == czs

    def test_one_call_each_to_traced_layers(self, monkeypatch):
        # a benchmark tracer wraps these module attributes; kak_decompose
        # must reach them through the module, once per decomposition
        calls = {}
        for name in ("kak_coefficients", "circuit_unitary", "decompose_1q"):
            def counting(*args, _inner=getattr(transpile, name), _name=name, **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(transpile, name, counting)
        rng = np.random.default_rng(40)
        local = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        for u in (haar_unitary(4, rng), local, np.diag([1.0, 1.0, 1.0, -1.0])):
            calls.update(kak_coefficients=0, circuit_unitary=0, decompose_1q=0)
            transpile.kak_decompose(u)
            assert calls == {"kak_coefficients": 1, "circuit_unitary": 1, "decompose_1q": 0}

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


QUARTER = math.pi / 4
# Interaction coefficients for the Weyl reduction: every order of three
# distinct magnitudes, negative x or y, the x = pi/4 edge with z < 0,
# coordinates several turns out, and three corners of the chamber.
WEYL_STEP_POINTS = [
    (0.1, 0.3, 0.2),  # y > z > x
    (0.2, 0.1, 0.3),  # z > x > y
    (0.05, 0.1, 0.3),  # z > y > x
    (-0.3, 0.2, 0.1),  # x < 0
    (0.3, -0.2, 0.1),  # y < 0
    (-0.3, -0.2, 0.1),  # x, y < 0
    (QUARTER, 0.2, -0.1),  # the edge: mirrored to z > 0
    (4 * math.pi - 0.1, -4 * math.pi + 0.3, 2 * math.pi + 0.05),  # several turns out
    (-4 * math.pi, 3 * math.pi + 0.2, -3.5 * math.pi - 0.1),
    (0.0, 0.0, 0.0),  # the local class: four tied phases
    (QUARTER, QUARTER, QUARTER),  # the SWAP class
    (QUARTER, 0.0, 0.0),  # the CZ class
]


def magic_phases(w, x, y, z):
    """delta with (w, x, y, z) = _GAMMA @ delta (the rows of 4 _GAMMA are orthogonal)."""
    return 4.0 * transpile._GAMMA.T @ np.array([w, x, y, z])


PHASE_ORDERS = np.array(list(itertools.permutations(range(4))))
EVEN_PI_SHIFTS = np.array([s for s in itertools.product(range(-2, 3), repeat=4) if sum(s) % 2 == 0])


def chamber_oracle(delta):
    """Brute-force Weyl-chamber points of the phases delta in [-pi, 2 pi].

    Tries every order of the four phases and every even count of pi added
    (each phase shifted by -2 pi to 2 pi), and keeps each (x, y, z) inside
    the chamber to within _WEYL_TOL. At the x = pi/4 edge a point with
    z < 0 is replaced by its mirror (pi/2 - x, y, -z); with z within
    _WEYL_TOL of 0 both are kept."""
    slack = transpile._WEYL_TOL
    moved = delta[PHASE_ORDERS][:, None, :] + math.pi * EVEN_PI_SHIFTS
    _, x, y, z = np.moveaxis(moved @ transpile._GAMMA.T, -1, 0)
    inside = (x <= QUARTER + slack) & (y <= x + slack) & (np.abs(z) <= y + slack)
    points = []
    for a, b, c in zip(x[inside], y[inside], z[inside]):
        edge = a > QUARTER - slack
        if edge and c < slack:
            points.append((math.pi / 2 - a, b, -c))
        if not edge or c > -slack:
            points.append((a, b, c))
    return np.array(points)


@st.composite
def magic_phase_draws(draw):
    """Four magic-basis phases in [-pi, 2 pi] drawn from a pool of one to
    four values, so exact ties are common. A value is a multiple of pi/2 or
    any float in range. Half the draws then reset one phase so that x lies
    within 1e-10 of pi/4 (modulo pi/2), and shuffle the four."""
    value = st.one_of(
        st.integers(-2, 4).map(lambda k: k * math.pi / 2), st.floats(-math.pi, 2 * math.pi)
    )
    pool = draw(st.lists(value, min_size=1, max_size=4))
    delta = [draw(st.sampled_from(pool)) for _ in range(4)]
    if draw(st.booleans()):
        eps = draw(st.floats(-1e-10, 1e-10))
        last = delta[0] + delta[1] - delta[2] - math.pi - 4.0 * eps
        delta = draw(st.permutations(delta[:3] + [math.remainder(last, 2 * math.pi)]))
    return np.array(delta)


def check_weyl_sort(delta):
    """_weyl_sort's factorization of diag(exp(i delta)) and its chamber point."""
    delta2, order, signs, flips = transpile._weyl_sort(delta)
    p = np.eye(4)[:, order] * signs
    o = flips[:, None] * np.eye(4)[order]
    rebuilt = p @ np.diag(np.exp(1j * delta2)) @ o
    assert max_abs(rebuilt - np.diag(np.exp(1j * delta))) < 1e-12
    assert np.linalg.det(p) == pytest.approx(1.0) and np.linalg.det(o) == pytest.approx(1.0)
    return transpile._GAMMA @ delta2


class TestWeylReduction:
    @pytest.mark.parametrize("point", WEYL_STEP_POINTS)
    def test_reduction_identity_on_phases(self, point):
        """diag(exp(i delta)) = (I[:, order] S) diag(exp(i delta2)) (F I[order])
        with det +1 on each side, w unchanged modulo pi/2, and (x2, y2, z2)
        in the chamber."""
        w = 0.37
        w2, x2, y2, z2 = check_weyl_sort(magic_phases(w, *point))
        assert math.remainder(w2 - w, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert 0 <= abs(z2) <= y2 + 1e-12 <= x2 + 2e-12 <= QUARTER + 3e-12
        assert x2 < QUARTER - transpile._WEYL_TOL or z2 >= -1e-12

    @settings(max_examples=300, deadline=None)
    @given(magic_phase_draws())
    def test_sort_finds_the_brute_force_chamber_point(self, delta):
        """The sorted point is, within 1e-12, one of the chamber points a
        search over all orders and even pi counts finds, and every such
        point lies within a few _WEYL_TOL of it."""
        _, *xyz = check_weyl_sort(delta)
        distances = np.abs(chamber_oracle(delta) - xyz).max(axis=1)
        assert distances.min() < 1e-12
        assert distances.max() < 4 * transpile._WEYL_TOL

    @pytest.mark.parametrize(
        "point", [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.3, 0.2, 0.2), (0.3, 0.3, 0.1)]
    )
    def test_near_tie_order_ignores_rounding(self, point):
        """Phases tied up to rounding (the faces y = z = 0, y = z and x = y)
        rank in index order, so noise far below _WEYL_TOL leaves the order
        and both sign vectors as they are."""
        delta = magic_phases(0.37, *point)
        _, order, signs, flips = transpile._weyl_sort(delta)
        rng = np.random.default_rng(43)
        for _ in range(20):
            noisy = delta + rng.uniform(-1e-13, 1e-13, 4)
            _, order2, signs2, flips2 = transpile._weyl_sort(noisy)
            assert order2 == order
            assert signs2.tolist() == signs.tolist() and flips2.tolist() == flips.tolist()

    @staticmethod
    def check_kak_identity(u):
        phase, (a0, a1), (x, y, z), (b0, b1) = kak_coefficients(u)
        rebuilt = cmath.exp(1j * phase) * np.kron(a0, a1) @ interaction(x, y, z) @ np.kron(b0, b1)
        assert max_abs(rebuilt - u) < 1e-12
        for f in (a0, a1, b0, b1):
            assert abs(np.linalg.det(f) - 1.0) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(interaction_cases())
    # drawn under --hypothesis-seed=7: rebuilt within only 2.0e-12 while the
    # Gram diagonalization accepted an off-diagonal residual up to 1e-11
    @example(interaction_case(0.0, math.pi / 4, 0.39271710352150535, 0))
    def test_kak_identity(self, u):
        self.check_kak_identity(u)

    @pytest.mark.parametrize("point", WEYL_STEP_POINTS)
    def test_kak_identity_at_step_points(self, point):
        rng = np.random.default_rng(42)
        for _ in range(5):
            before = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            after = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            self.check_kak_identity(after @ interaction(*point) @ before)


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
        for body, message in (
            ("// global_phase: 0.5.5\nqreg q[1];\n", "bad global phase"),
            ("// global_phase: 0.5\n", "missing qreg declaration"),
            ("qreg r[1];\n", "bad qreg declaration"),
        ):
            with pytest.raises(ParseError, match=message):
                parse_circuit_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n' + body)

    def test_parse_accepts_phaseless_header(self):
        c = parse_circuit_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nrx(0.5) q[2];\n'
        )
        assert c.qubit_count == 3
        assert c.global_phase == 0.0
        assert c.gates == (Gate("rx", (2,), 0.5),)

    def test_parse_skips_blank_lines(self):
        text = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
            '\nrx(0.5) q[1];\n  \ncz q[0],q[1];\n\n'
        )
        c = parse_circuit_text(text)
        assert c.gates == (Gate("rx", (1,), 0.5), Gate("cz", (0, 1)))
