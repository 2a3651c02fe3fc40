"""How robust is the method to the choice of trial energy?

The filter is steered by the shift E_T. At E_T = E0 the kept branch keeps
exactly half the ground-state weight. Overshooting (E_T > E0) still
converges; undershooting (E_T < E0, fractions > 1 of a negative E0) kills
the kept branch exponentially: the reservoir-0 probability tends to zero
and post-selection eventually becomes impossible.
"""

import itertools

import numpy as np

from qitp import hydrogen_sto2g
from qitp.simulate import spectral_run

op, _, _ = hydrogen_sto2g()
e0 = op.ground_energy
psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
taus = (5.0, 10.0, 20.0, 450.0)
fractions = (0.5, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5)
trial_energies = [fraction * e0 for fraction in fractions]
print(f"hydrogen ground energy E0 = {e0:.6f} Hartree")
print()
print("fraction  E_T        tau    p0          energy       fidelity")
# One call filters the whole (tau, E_T) grid; its rows run tau-major.
rows = spectral_run(op, np.reshape(taus, (-1, 1)), trial_energies, psi0, 1)
grid = itertools.product(taus, zip(fractions, trial_energies))
for (tau, (fraction, et)), p0, energy, fid, failed in zip(grid, *rows[:4]):
    if failed:
        print(f"  {fraction:4.2f}   {et:9.6f}  {tau:5.0f}  {p0:.4e}  (post-selection impossible)")
    else:
        print(f"  {fraction:4.2f}   {et:9.6f}  {tau:5.0f}  {p0:.4e}  {energy:11.6f}  {fid:.6f}")
    if fraction == fractions[-1]:
        print()
