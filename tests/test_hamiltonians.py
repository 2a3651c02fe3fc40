import gc
import json
import sys
import warnings
from pathlib import Path

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
    PAULI_VECTOR,
    STO2G_EXPONENTS,
    SpinCouplings,
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

# The published STO-2G contraction of the two primitives (Hehre, Stewart &
# Pople, J. Chem. Phys. 51, 2657 (1969)).
STO2G_CONTRACTION = (0.678914, 0.430129)


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

    def test_nuclear_plug_in_value(self):
        assert abs(gaussian_nuclear(np.pi, np.pi) + 2.0 * np.sqrt(2.0)) < 1e-12
        assert gaussian_nuclear(0.8, 1.3) < 0

    @pytest.mark.parametrize("a,b", [(0.05, 0.05), (0.1, 1.0), (1.0, 4.0), (3.3, 9.7), (20.0, 0.2)])
    def test_closed_forms_match_radial_quadrature(self, a, b):
        assert abs(gaussian_overlap(a, b) - overlap_quadrature(a, b)) < 1e-8
        assert abs(gaussian_kinetic(a, b) - kinetic_quadrature(a, b)) < 1e-8
        assert abs(gaussian_nuclear(a, b) - nuclear_quadrature(a, b)) < 1e-8

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            gaussian_overlap(-1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_nuclear(1.0, 0.0)


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
    def test_default_is_the_sto2g_fit_at_zeta_1(self):
        assert STO2G_EXPONENTS == (0.151623, 0.851819)
        op, s, x = hydrogen_sto2g()
        op_e, s_e, x_e = hydrogen_sto2g(STO2G_EXPONENTS, 1.0)
        assert np.array_equal(op.matrix, op_e.matrix)
        assert np.array_equal(s, s_e) and np.array_equal(x, x_e)

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
        op, s, _ = hydrogen_sto2g()
        a = STO2G_EXPONENTS
        h = np.array([[gaussian_kinetic(x, y) + gaussian_nuclear(x, y) for y in a] for x in a])
        d = np.asarray(STO2G_CONTRACTION)
        e_contracted = (d @ h @ d) / (d @ s @ d)
        # the 2-dim variational minimum lies below the fixed contraction,
        # and both sit above the exact hydrogen energy -0.5
        assert op.ground_energy <= e_contracted + 1e-12
        assert -0.5 < op.ground_energy < -0.4

    def test_zeta_scaling(self):
        for exponents, zeta in ((STO2G_EXPONENTS, 1.2), ((0.2, 0.9), 1.1), ((3.0, 0.05), 0.7)):
            op, s, x = hydrogen_sto2g(exponents, zeta)
            op_e, s_e, x_e = hydrogen_sto2g([zeta**2 * e for e in exponents], 1.0)
            assert np.array_equal(op.matrix, op_e.matrix)
            assert np.array_equal(s, s_e) and np.array_equal(x, x_e)

    def test_smallest_zeta_keeps_its_bits(self):
        # every scaled exponent product is a normal float at zeta = 1e-60;
        # the literals are the builder's output before the domain check existed
        op = hydrogen_sto2g(slater_zeta=1e-60)[0]
        assert op.matrix.tolist() == [
            [complex(-9.189424951607223e-61), complex(-5.352959966510901e-61)],
            [complex(-5.352959966510901e-61), complex(-1.0785008163586098e-60)],
        ]
        assert op.eigenvalues.tolist() == [-1.539930043071389e-60, -4.575132684479432e-61]

    @pytest.mark.parametrize("exponents, zeta", [
        (STO2G_EXPONENTS, 1e-80),  # the scaled products turn subnormal
        ((1e-160, 1e-160), 1.0),  # the product underflows to 0
        (STO2G_EXPONENTS, 3.13e-77),  # (0.151623 * zeta**2)**2 just below the bound
    ], ids=["zeta-1e-80", "exponents-1e-160", "below-the-edge"])
    def test_subnormal_exponent_products_are_rejected(self, exponents, zeta):
        with pytest.raises(ValueError, match="smallest normal float"):
            hydrogen_sto2g(exponents, zeta)

    def test_energy_per_zeta_holds_down_to_the_edge(self):
        # the nuclear term dominates at small zeta, so E0 / zeta stays put
        for zeta in (1e-60, 3.14e-77):
            ratio = hydrogen_sto2g(slater_zeta=zeta)[0].ground_energy / zeta
            assert abs(ratio + 1.539930043071389) < 1e-15

    def test_overlap_domain_edge(self):
        tiny = np.sqrt(sys.float_info.min)
        assert gaussian_overlap(tiny, tiny) == 1.0
        for integral in (gaussian_overlap, gaussian_kinetic, gaussian_nuclear):
            with pytest.raises(ValueError, match="smallest normal float"):
                integral(tiny, np.nextafter(tiny, 0.0) / 2)


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
        for a2 in (np.zeros((2, 2)), np.zeros(9), np.zeros((3, 3, 1))):
            with pytest.raises(ValueError, match="a2 must be 3x3"):
                SpinCouplings(a1=0.0, a2=a2)

    def test_zero_tensor_terms_leave_the_matrix_bitwise_equal(self):
        # every a2 term is added, zeros too: the sum must equal, sign bits
        # included, the one that skips the zero entries
        rng = np.random.default_rng(4)
        for _ in range(20):
            a2 = rng.standard_normal((3, 3)) * (rng.uniform(size=(3, 3)) < 0.5)
            a2 = np.where(rng.uniform(size=(3, 3)) < 0.5, -a2, a2)  # -0.0 entries too
            a2 = np.where(np.triu(np.ones((3, 3), dtype=bool)), a2, a2.T)
            a1 = rng.standard_normal()
            want = np.zeros((4, 4), dtype=complex)
            for k in range(3):
                want += a1 * np.kron(PAULI_VECTOR[k], PAULI_VECTOR[k])
            for j in range(3):
                for k in range(3):
                    if a2[j, k] != 0.0:
                        want += a2[j, k] * np.kron(PAULI_VECTOR[j], PAULI_VECTOR[k])
            got = two_neutron_sd(SpinCouplings(a1=a1, a2=a2)).matrix
            assert np.array_equal(got.view(float), want.view(float))
            assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


def saved(tmp_path, doc) -> Path:
    """Write a Hamiltonian document (a dict, or raw text) to a file and return its path."""
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


class TestSerialization:
    def test_identity_document(self, tmp_path):
        doc = {
            "dim": 2,
            "units": "dimensionless",
            "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        op = load_hamiltonian(saved(tmp_path, doc))
        assert np.allclose(op.eigenvalues, [1.0, 1.0])

    def test_non_hermitian_document_rejected(self, tmp_path):
        doc = {
            "dim": 2,
            "units": "dimensionless",
            "matrix": [[[0.0, 0.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
        }
        with pytest.raises(NonHermitianInput):
            load_hamiltonian(saved(tmp_path, doc))

    def test_hermiticity_tolerance(self, tmp_path):
        # the eigensolver's 1e-10 check is the only one on this path
        for defect, ok in ((5e-11, True), (2e-10, False)):
            doc = {
                "dim": 2,
                "units": "dimensionless",
                "matrix": [[[0.0, 0.0], [1.0 + defect, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
            }
            if ok:
                assert np.allclose(load_hamiltonian(saved(tmp_path, doc)).eigenvalues, [-1.0, 1.0])
            else:
                with pytest.raises(NonHermitianInput):
                    load_hamiltonian(saved(tmp_path, doc))

    def test_round_trip_is_bitwise_exact(self, tmp_path):
        op, _, _ = hydrogen_sto2g()
        path = tmp_path / "h.json"
        save_hamiltonian(op, path, provenance={"builder": "hydrogen-sto2g"})
        reloaded = load_hamiltonian(path)
        assert np.array_equal(reloaded.matrix, op.matrix)
        assert reloaded.units == op.units

    def test_parse_errors(self, tmp_path):
        with pytest.raises(ParseError):
            load_hamiltonian(saved(tmp_path, "{not json"))
        for doc in ({"dim": 2, "matrix": [[[1, 0]]]}, {"dim": 2, "units": "mev"}):
            with pytest.raises(ParseError, match="missing required key"):
                load_hamiltonian(saved(tmp_path, doc))
        # An entry must be exactly one [re, im] pair; extra or missing
        # elements are not silently dropped.
        for entry in ([1, 0, 5], [1]):
            with pytest.raises(ParseError):
                load_hamiltonian(saved(tmp_path, {"dim": 1, "units": "mev", "matrix": [[entry]]}))
        with pytest.raises(ParseError):
            load_hamiltonian(
                saved(tmp_path, {"dim": 1, "units": "eV", "matrix": [[[1.0, 0.0]]]})
            )
        # a JSON document that is not an object
        with pytest.raises(ParseError, match="must be a JSON object"):
            load_hamiltonian(saved(tmp_path, "[1, 2]"))
        missing = tmp_path / "missing.json"
        with pytest.raises(ParseError):
            load_hamiltonian(missing)
        # complex(True, False) is 1+0j: JSON true and false are not numbers here
        for entry in ([True, 0.0], [0.5, False]):
            doc = {"dim": 1, "units": "mev", "matrix": [[entry]]}
            with pytest.raises(ParseError, match="not true or false"):
                load_hamiltonian(saved(tmp_path, doc))
        # units spelled with an escape holds one u, so a true entry adds the second
        text = '{"dim": 1, "\\u0075nits": "mev", "matrix": [[[true, 0.0]]]}'
        with pytest.raises(ParseError, match="not true or false"):
            load_hamiltonian(saved(tmp_path, text))
        # nesting past the recursion limit is invalid JSON, not a RecursionError
        with pytest.raises(ParseError, match="invalid JSON: maximum recursion depth"):
            load_hamiltonian(saved(tmp_path, "[" * 10_000))
        # the words elsewhere in the document do not reject numeric entries
        doc = {"dim": 1, "units": "mev", "matrix": [[[1, 0]]], "provenance": {"true": False}}
        assert load_hamiltonian(saved(tmp_path, doc)).matrix[0, 0] == 1.0
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
                    load_hamiltonian(saved(tmp_path, text))

    def test_dimension_errors(self, tmp_path):
        with pytest.raises(DimensionError):
            load_hamiltonian(saved(tmp_path, {"dim": 0, "units": "mev", "matrix": []}))
        with pytest.raises(DimensionError):
            load_hamiltonian(
                saved(tmp_path, {"dim": True, "units": "mev", "matrix": [[[1.0, 0.0]]]})
            )
        with pytest.raises(DimensionError):
            load_hamiltonian(
                saved(tmp_path, {"dim": 3, "units": "mev", "matrix": [[[1.0, 0.0]]]})
            )

    def test_path_starting_with_brace_is_a_file(self, tmp_path, monkeypatch):
        # a relative str path whose first character is "{" names a file, not
        # JSON text
        op, _, _ = hydrogen_sto2g()
        monkeypatch.chdir(tmp_path)
        (tmp_path / "{run}").mkdir()
        save_hamiltonian(op, tmp_path / "{run}" / "v.json")
        reloaded = load_hamiltonian("{run}/v.json")
        assert np.array_equal(reloaded.matrix, op.matrix)

    def test_complex_entries_survive(self, tmp_path):
        m = np.array([[1.0, 0.25j], [-0.25j, 2.0]])
        from qitp.linalg import HermitianOperator

        op = HermitianOperator.from_matrix(m, units="mev")
        path = tmp_path / "c.json"
        save_hamiltonian(op, path)
        reloaded = load_hamiltonian(str(path))
        assert np.array_equal(reloaded.matrix, op.matrix)


# (case, document, error the load must raise or None)
COLLECTOR_CASES = [
    ("valid", {"dim": 1, "units": "mev", "matrix": [[[1.0, 0.0]]]}, None),
    ("invalid JSON", "{not json", ParseError),
    ("three-element entry", {"dim": 1, "units": "mev", "matrix": [[[1, 0, 5]]]}, ParseError),
    ("NaN entry", '{"dim": 1, "units": "mev", "matrix": [[[NaN, 0.0]]]}', ParseError),
    ("false entry", '{"dim": 1, "units": "mev", "matrix": [[[1.0, false]]]}', ParseError),
    ("deep nesting", "[" * 10_000, ParseError),
    ("shape mismatch", {"dim": 3, "units": "mev", "matrix": [[[1.0, 0.0]]]}, DimensionError),
]


class TestCollectorPause:
    """The decode runs with the cyclic collector paused and puts back the
    caller's setting; each test restores the setting it found."""

    def test_dim64_loads_set_off_no_collection(self, tmp_path):
        rng = np.random.default_rng(64)
        m = random_hermitian(64, rng)
        # compact, as the benchmark writes its inputs
        path = saved(tmp_path, {"dim": 64, "units": "mev",
                                "matrix": [[[z.real, z.imag] for z in row] for row in m.tolist()]})
        generations = []

        def record(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(record)
        try:
            for _ in range(3):
                load_hamiltonian(path)
        finally:
            gc.callbacks.remove(record)
            if not was_enabled:
                gc.disable()
        assert generations == []

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("doc, error", [c[1:] for c in COLLECTOR_CASES],
                             ids=[c[0] for c in COLLECTOR_CASES])
    def test_setting_is_restored(self, tmp_path, doc, error, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                load_hamiltonian(saved(tmp_path, doc))
            else:
                with pytest.raises(error):
                    load_hamiltonian(saved(tmp_path, doc))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
