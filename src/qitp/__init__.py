"""qitp: imaginary-time propagation on quantum registers, simulated exactly.

A small numpy library that embeds the non-unitary imaginary-time step into
a unitary on an ancilla-extended space, simulates it with post-selection
and shot noise, builds the hydrogen STO-2G and two-neutron benchmark
Hamiltonians, and compiles the two-qubit dilation into {Rx, Rz, CZ}.
"""

from .dilation import (
    DilationUnitary,
    ItpParams,
    build_dilation,
    classical_itp,
    filter_profile,
    itp_filter,
)
from .hamiltonians import (
    GaussianBasis,
    SpinCouplings,
    contracted_energy,
    default_hydrogen_basis,
    gaussian_kinetic,
    gaussian_nuclear,
    gaussian_overlap,
    hydrogen_sto2g,
    load_hamiltonian,
    orthonormalize,
    save_hamiltonian,
    two_neutron_sd,
)
from .linalg import HermitianOperator, eigh, matrix_function
from .simulate import (
    ExperimentRecord,
    NoiseParams,
    apply_channel,
    apply_step,
    basis_labels,
    energy_expectation,
    extend_with_ancilla,
    postselect_ancilla0,
    run_itp,
    sample_shots,
    state_fidelity,
)
from .transpile import (
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

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "DilationUnitary",
    "ExperimentRecord",
    "Gate",
    "GaussianBasis",
    "HermitianOperator",
    "ItpParams",
    "NoiseParams",
    "SpinCouplings",
    "apply_channel",
    "apply_step",
    "basis_labels",
    "build_dilation",
    "circuit_unitary",
    "classical_itp",
    "contracted_energy",
    "decompose_1q",
    "default_hydrogen_basis",
    "eigh",
    "emit_circuit_text",
    "energy_expectation",
    "extend_with_ancilla",
    "filter_profile",
    "gaussian_kinetic",
    "gaussian_nuclear",
    "gaussian_overlap",
    "hydrogen_sto2g",
    "itp_filter",
    "kak_coefficients",
    "kak_decompose",
    "load_hamiltonian",
    "matrix_function",
    "orthonormalize",
    "parse_circuit_text",
    "postselect_ancilla0",
    "process_fidelity",
    "run_itp",
    "sample_shots",
    "save_hamiltonian",
    "state_fidelity",
    "two_neutron_sd",
    "__version__",
]
