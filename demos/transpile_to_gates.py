"""Compile the hydrogen imaginary-time unitary into {Rx, Rz, CZ}.

The dilation acts on two qubits: q[0] is the reservoir, q[1] the system.
Any two-qubit unitary needs at most three CZs; the canonical interaction
class decides the exact count. The emitted circuit reproduces the matrix
including its global phase, so simulating the gate list recovers the same
occupation probabilities as the exact operator.
"""

import numpy as np

from qitp import (
    ItpParams,
    build_dilation,
    circuit_unitary,
    emit_circuit_text,
    hydrogen_sto2g,
    kak_coefficients,
    kak_decompose,
    process_fidelity,
)

op, _, _ = hydrogen_sto2g()
# the 4x4 unitary [[Q, R], [R, -Q]], formed from the dilation's two blocks
u = build_dilation(op, ItpParams(tau=60.0, trial_mode="ground_state_exact")).matrix

phase, _, (x, y, z), _ = kak_coefficients(u)
print("canonical interaction class of U(tau = 60 / Hartree):")
print(f"  (x, y, z) = ({x:.6f}, {y:.6f}, {z:.6f})   [units of rad]")
print()

circuit = kak_decompose(u)
built = circuit_unitary(circuit)
print(f"compiled circuit: {len(circuit.gates)} gates, {circuit.cz_count()} CZ")
print(f"  process fidelity : {process_fidelity(u, built):.15f}")
print(f"  max-entry error  : {np.max(np.abs(built - u)):.2e} (phase included)")
print()

print(emit_circuit_text(circuit))

psi0 = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
exact = np.abs(u @ psi0) ** 2
gates = np.abs(built @ psi0) ** 2
print("occupations from the gate circuit vs the exact operator:")
for label, pg, pe in zip(("00", "01", "10", "11"), gates, exact):
    print(f"  |{label}>   gates {pg:.6f}   exact {pe:.6f}")
