"""Find the hydrogen ground state by one deep imaginary-time step.

Builds the two-Gaussian hydrogen Hamiltonian, embeds the imaginary-time
filter into a unitary with one reservoir qubit, applies it to the uniform
superposition, and conditions on the reservoir reading 0. A single step at
tau = 60 / Hartree already lands on the variational ground state.
"""

import numpy as np

from qitp import ItpParams, basis_labels, hydrogen_sto2g, run_itp

op, overlap, transform = hydrogen_sto2g()
print("two-Gaussian hydrogen model (canonical orthonormal basis)")
print(f"  overlap of the primitives : {overlap[0, 1]:.6f}")
print(f"  spectrum (Hartree)        : {np.round(op.eigenvalues, 6)}")
print(f"  variational ground energy : {op.ground_energy:.6f}  (exact H atom: -0.5)")
print(f"  ground-state weights      : {np.round(np.abs(op.ground_state) ** 2, 4)}")
print()

params = ItpParams(tau=60.0, trial_mode="ground_state_exact")
psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
record = run_itp(op, params, psi0, shots=8192, seed=42)

print("one imaginary-time step at tau = 60 / Hartree, E_T = E0")
print("  extended occupations (reservoir digit first):")
for label, prob, count in zip(
    basis_labels(record.system_dim), record.extended_probs, record.shot_counts
):
    print(f"    |{label}>  p = {prob:.5f}   {count:5d} / 8192 shots")
print(f"  reservoir-0 probability  : {record.postselect_prob:.5f}")
print(f"  normalized occupations   : {np.round(record.normalized_probs, 4)}")
print(f"  energy of filtered state : {record.energy:.9f} Hartree")
print(f"  distance from E0         : {abs(record.energy - op.ground_energy):.2e}")
