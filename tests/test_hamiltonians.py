import json
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from qitp.errors import (
    DimensionError,
    NonHermitianInput,
    ParseError,
    SingularOverlap,
)
from qitp.hamiltonians import (
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
from qitp.linalg import PAULI_X, PAULI_Z, max_abs

from helpers import random_hermitian


def norm_1s(alpha):
    return (2.0 * alpha / np.pi) ** 0.75


def overlap_quadrature(a, b):
    f = lambda r: norm_1s(a) * norm_1s(b) * np.exp(-(a + b) * r * r) * 4 * np.pi * r * r
    return quad(f, 0, np.inf)[0]


def kinetic_quadrature(a, b):
    # -1/2 laplacian of a 1s Gaussian: (4 b^2 r^2 - 6 b) e^(-b r^2) / (-2)
    f = (
        lambda r: norm_1s(a)
        * np.exp(-a * r * r)
        * (-0.5)
        * (4 * b * b * r * r - 6 * b)
        * norm_1s(b)
        * np.exp(-b * r * r)
        * 4
        * np.pi
        * r
        * r
    )
    return quad(f, 0, np.inf)[0]


def nuclear_quadrature(a, b, z=1.0):
    f = lambda r: -z * norm_1s(a) * norm_1s(b) * np.exp(-(a + b) * r * r) * 4 * np.pi * r
    return quad(f, 0, np.inf)[0]


class TestGaussianIntegrals:
    def test_overlap_normalization_and_symmetry(self):
        for a in (0.1, 1.0, 4.2):
            assert abs(gaussian_overlap(a, a) - 1.0) < 1e-14
        assert gaussian_overlap(1.0, 4.0) == gaussian_overlap(4.0, 1.0)

    def test_overlap_closed_form(self):
        want = (4.0 / 5.0) ** 1.5
        assert abs(gaussian_overlap(1.0, 4.0) - want) < 1e-14
        assert abs(want - 0.71554) < 5e-6

    def test_kinetic_diagonal_value(self):
        for a in (0.3, 1.0, 2.7):
            assert abs(gaussian_kinetic(a, a) - 1.5 * a) < 1e-13

    def test_kinetic_closed_form(self):
        want = (12.0 / 5.0) * (4.0 / 5.0) ** 1.5
        assert abs(gaussian_kinetic(1.0, 4.0) - want) < 1e-13
        assert gaussian_kinetic(1.0, 4.0) == gaussian_kinetic(4.0, 1.0)

    def test_nuclear_plug_in_and_linearity(self):
        assert abs(gaussian_nuclear(np.pi, np.pi) + 2.0 * np.sqrt(2.0)) < 1e-12
        v1 = gaussian_nuclear(0.8, 1.3, charge=1.0)
        v3 = gaussian_nuclear(0.8, 1.3, charge=3.0)
        assert abs(v3 - 3.0 * v1) < 1e-12
        assert v1 < 0

    @pytest.mark.parametrize("a,b", [(0.05, 0.05), (0.1, 1.0), (1.0, 4.0), (3.3, 9.7), (20.0, 0.2)])
    def test_closed_forms_match_radial_quadrature(self, a, b):
        assert abs(gaussian_overlap(a, b) - overlap_quadrature(a, b)) < 1e-8
        assert abs(gaussian_kinetic(a, b) - kinetic_quadrature(a, b)) < 1e-8
        assert abs(gaussian_nuclear(a, b) - nuclear_quadrature(a, b)) < 1e-8

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            gaussian_overlap(-1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_nuclear(1.0, 1.0, charge=0.0)


class TestOrthonormalize:
    def test_identity_overlap_leaves_hamiltonian(self):
        rng = np.random.default_rng(20)
        h = random_hermitian(3, rng)
        for method in ("canonical", "lowdin"):
            h_orth, x = orthonormalize(h, np.eye(3), method)
            assert max_abs(h_orth - h) < 1e-12
            assert max_abs(x - np.eye(3)) < 1e-12

    def test_transform_orthonormalizes_overlap(self):
        rng = np.random.default_rng(21)
        for method in ("canonical", "lowdin"):
            for _ in range(25):
                dim = int(rng.integers(2, 6))
                h = random_hermitian(dim, rng)
                a = rng.standard_normal((dim, dim))
                s = np.eye(dim) + 0.3 * (a + a.T) / 2
                if np.linalg.eigvalsh(s).min() < 0.05:
                    continue
                h_orth, x = orthonormalize(h, s, method)
                assert max_abs(x.conj().T @ s @ x - np.eye(dim)) < 1e-10

    def test_spectrum_matches_generalized_problem(self):
        # oracle: reduce (H, S) by Cholesky and diagonalize
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 50:
            dim = int(rng.integers(2, 6))
            h = random_hermitian(dim, rng)
            a = rng.standard_normal((dim, dim))
            s = np.eye(dim) + 0.4 * (a + a.T) / 2
            if np.linalg.eigvalsh(s).min() < 0.1:
                continue
            checked += 1
            h_orth, _ = orthonormalize(h, s, "canonical")
            got = np.linalg.eigvalsh(h_orth)
            l = np.linalg.cholesky(s)
            linv = np.linalg.inv(l)
            want = np.linalg.eigvalsh(linv @ h @ linv.conj().T)
            assert np.allclose(got, want, atol=1e-10)

    def test_singular_overlap_raises(self):
        s = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularOverlap):
            orthonormalize(np.eye(2), s)


class TestHydrogen:
    def test_default_basis_loads_from_config(self):
        basis = default_hydrogen_basis()
        assert basis.exponents == (0.151623, 0.851819)
        assert basis.coefficients == (0.678914, 0.430129)
        assert basis.slater_zeta == 1.0

    def test_ground_state_weights_match_reference(self):
        op, _, _ = hydrogen_sto2g()
        weights = np.abs(op.ground_state) ** 2
        assert np.allclose(weights, [0.020, 0.980], atol=0.02)

    def test_units_and_dim(self):
        op, s, x = hydrogen_sto2g()
        assert op.units == "hartree"
        assert op.dim == 2
        assert max_abs(x.conj().T @ s @ x - np.eye(2)) < 1e-12

    def test_lowdin_variant_same_spectrum(self):
        op_c, _, _ = hydrogen_sto2g()
        op_l, s, x = hydrogen_sto2g(orthogonalization="lowdin")
        assert np.allclose(op_c.eigenvalues, op_l.eigenvalues, atol=1e-12)
        assert max_abs(x.conj().T @ s @ x - np.eye(2)) < 1e-12
        # symmetric transform: X equals its own transpose
        assert max_abs(x - x.T) < 1e-12

    def test_variational_bound_and_contracted_energy(self):
        op, _, _ = hydrogen_sto2g()
        e_contracted = contracted_energy()
        # the 2-dim variational minimum lies below the fixed contraction,
        # and both sit above the exact hydrogen energy -0.5
        assert op.ground_energy <= e_contracted + 1e-12
        assert -0.5 < op.ground_energy < -0.4

    def test_zeta_scaling(self):
        basis = default_hydrogen_basis()
        scaled = GaussianBasis(basis.exponents, basis.coefficients, slater_zeta=1.2)
        assert np.allclose(
            scaled.scaled_exponents(), [1.44 * e for e in basis.exponents]
        )
        op, _, _ = hydrogen_sto2g(scaled)
        assert op.dim == 2


class TestTwoNeutron:
    def test_pure_vector_coupling_split(self):
        op = two_neutron_sd(SpinCouplings(a1=1.0, a2=np.zeros((3, 3))))
        assert np.allclose(op.eigenvalues, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)
        assert op.units == "mev"

    def test_traceless_for_random_couplings(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.standard_normal((3, 3))
            c = SpinCouplings(a1=rng.standard_normal(), a2=(a + a.T) / 2)
            op = two_neutron_sd(c)
            assert abs(np.trace(op.matrix)) < 1e-12

    def test_zz_tensor_component(self):
        c = 0.7
        op = two_neutron_sd(SpinCouplings(a1=0.0, a2=np.diag([0.0, 0.0, c])))
        want = c * np.kron(PAULI_Z, PAULI_Z)
        assert max_abs(op.matrix - want) < 1e-14
        assert np.allclose(np.linalg.eigvalsh(op.matrix), [-c, -c, c, c])

    def test_axial_tensor_commutes_with_total_sz(self):
        # the physical tensor coupling is axially symmetric (a, a, c); that
        # form conserves total spin-z (a generic diagonal does not)
        rng = np.random.default_rng(24)
        sz_total = np.kron(PAULI_Z, np.eye(2)) + np.kron(np.eye(2), PAULI_Z)
        for _ in range(5):
            a, c_val = rng.standard_normal(2)
            op = two_neutron_sd(
                SpinCouplings(a1=rng.standard_normal(), a2=np.diag([a, a, c_val]))
            )
            comm = op.matrix @ sz_total - sz_total @ op.matrix
            assert max_abs(comm) < 1e-12

    def test_rejects_asymmetric_tensor(self):
        a2 = np.zeros((3, 3))
        a2[0, 1] = 1.0
        with pytest.raises(ValueError):
            SpinCouplings(a1=0.0, a2=a2)


class TestSerialization:
    def test_identity_document(self):
        doc = {
            "dim": 2,
            "units": "dimensionless",
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        op = load_hamiltonian(doc)
        assert np.allclose(op.eigenvalues, [1.0, 1.0])

    def test_non_hermitian_document_rejected(self):
        doc = {
            "dim": 2,
            "units": "dimensionless",
            "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
        }
        with pytest.raises(NonHermitianInput):
            load_hamiltonian(doc)

    def test_round_trip_is_bitwise_exact(self, tmp_path):
        op, _, _ = hydrogen_sto2g()
        path = tmp_path / "h.json"
        save_hamiltonian(op, path, provenance={"builder": "hydrogen-sto2g"})
        reloaded = load_hamiltonian(path)
        assert np.array_equal(reloaded.matrix, op.matrix)
        assert reloaded.units == op.units

    def test_parse_errors(self, tmp_path):
        with pytest.raises(ParseError):
            load_hamiltonian("{not json")
        with pytest.raises(ParseError):
            load_hamiltonian({"dim": 2, "matrix": [[[1, 0]]]})
        with pytest.raises(ParseError):
            load_hamiltonian(
                {"dim": 1, "units": "eV", "matrix": [[[1.0, 0.0]]]}
            )
        missing = tmp_path / "missing.json"
        with pytest.raises(ParseError):
            load_hamiltonian(missing)
        # json.loads accepts these literals; they must fail before the
        # Hermiticity check (which would warn on NaN arithmetic).
        for bad in ("NaN", "Infinity", "-Infinity"):
            text = (
                '{"dim": 2, "units": "mev", "matrix": '
                f'[[[{bad}, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}}'
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParseError):
                    load_hamiltonian(text)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            load_hamiltonian({"dim": 0, "units": "mev", "matrix": []})
        with pytest.raises(DimensionError):
            load_hamiltonian({"dim": True, "units": "mev", "matrix": [[[1.0, 0.0]]]})
        with pytest.raises(DimensionError):
            load_hamiltonian(
                {"dim": 3, "units": "mev", "matrix": [[[1.0, 0.0]]]}
            )

    def test_complex_entries_survive(self, tmp_path):
        m = np.array([[1.0, 0.25j], [-0.25j, 2.0]])
        from qitp.linalg import HermitianOperator

        op = HermitianOperator.from_matrix(m, units="mev")
        path = tmp_path / "c.json"
        save_hamiltonian(op, path)
        reloaded = load_hamiltonian(str(path))
        assert np.array_equal(reloaded.matrix, op.matrix)
