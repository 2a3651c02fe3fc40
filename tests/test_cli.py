import json

import numpy as np
import pytest

from qitp.cli import main
from qitp.hamiltonians import load_hamiltonian, two_neutron_sd, SpinCouplings
from qitp.transpile import circuit_unitary, parse_circuit_text

HYDROGEN_EXTENDED = {
    "00": 0.00357,
    "01": 0.17678,
    "10": 0.53561,
    "11": 0.28403,
}


def run_cli(*args):
    return main([str(a) for a in args])


class TestHamCommand:
    def test_hydrogen_builder_schema(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli("ham", "hydrogen-sto2g", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == 2
        assert doc["units"] == "hartree"
        assert doc["provenance"]["builder"] == "hydrogen-sto2g"
        op = load_hamiltonian(out)
        assert -0.5 < op.ground_energy < -0.4

    def test_two_neutron_builder_spectrum(self, tmp_path):
        out = tmp_path / "v.json"
        assert run_cli("ham", "two-neutron", "--a1", 1.0, "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["dim"] == 4 and doc["units"] == "mev"
        op = load_hamiltonian(out)
        assert np.allclose(op.eigenvalues, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_round_trip_identical_operator(self, tmp_path):
        out = tmp_path / "v.json"
        run_cli("ham", "two-neutron", "--a1", 0.5, "--a2", "0.1,0.1,0.4", "--out", out)
        op = load_hamiltonian(out)
        direct = two_neutron_sd(SpinCouplings(a1=0.5, a2=np.diag([0.1, 0.1, 0.4])))
        assert np.array_equal(op.matrix, direct.matrix)

    def test_builder_config_file(self, tmp_path):
        config = tmp_path / "basis.json"
        config.write_text(
            json.dumps(
                {
                    "exponents": [0.151623, 0.851819],
                    "coefficients": [0.678914, 0.430129],
                    "slater_zeta": 1.0,
                }
            )
        )
        from_config = tmp_path / "a.json"
        from_flags = tmp_path / "b.json"
        assert run_cli("ham", "hydrogen-sto2g", "--config", config, "--out", from_config) == 0
        assert run_cli("ham", "hydrogen-sto2g", "--out", from_flags) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

        spin_config = tmp_path / "spin.json"
        spin_config.write_text(json.dumps({"a1": 1.0}))
        out = tmp_path / "s.json"
        assert run_cli("ham", "two-neutron", "--config", spin_config, "--out", out) == 0
        op = load_hamiltonian(out)
        assert np.allclose(op.eigenvalues, [-3.0, 1.0, 1.0, 1.0])

        spin_config.write_text(
            json.dumps({"a1": 0.5, "a2": [[0.1, 0, 0], [0, 0.1, 0], [0, 0, 0.4]]})
        )
        from_config = tmp_path / "c.json"
        from_flags = tmp_path / "d.json"
        assert run_cli("ham", "two-neutron", "--config", spin_config, "--out", from_config) == 0
        assert run_cli(
            "ham", "two-neutron", "--a1", 0.5, "--a2", "0.1,0.1,0.4", "--out", from_flags
        ) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert run_cli("ham", "hydrogen-sto2g", "--config", bad, "--out", out) == 2


class TestRunCommand:
    def test_hydrogen_reference_probabilities(self, tmp_path):
        out = tmp_path / "run.json"
        rc = run_cli("run", "--ham", "hydrogen", "--tau", 60, "--et", "auto", "--out", out)
        assert rc == 0
        doc = json.loads(out.read_text())
        for label, want in HYDROGEN_EXTENDED.items():
            assert abs(doc["extended_probs"][label] - want) < 5e-3
        assert abs(doc["normalized_probs"]["0"] - 0.020) < 2e-3
        assert abs(doc["normalized_probs"]["1"] - 0.980) < 2e-3
        assert doc["config"]["units"] == "hartree"
        assert doc["version"]

    def test_two_neutron_ground_state_distribution(self, tmp_path):
        # couplings with a non-degenerate ground state that overlaps the
        # uniform initial state (the spin-exchange ground branch, not the
        # singlet, which is orthogonal to it)
        out = tmp_path / "nn.json"
        rc = run_cli(
            "run", "--ham", "two-neutron", "--a1=-0.5", "--a2=-1.5,-1.5,1.5",
            "--tau", 10, "--et", "auto", "--out", out,
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        op = two_neutron_sd(SpinCouplings(a1=-0.5, a2=np.diag([-1.5, -1.5, 1.5])))
        want = np.abs(op.ground_state) ** 2
        got = np.array([doc["normalized_probs"][str(i)] for i in range(4)])
        assert np.allclose(got, want, atol=1e-3)
        assert list(doc["extended_probs"].keys()) == [str(i) for i in range(8)]

    def test_byte_identical_reruns_with_shots(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["run", "--ham", "hydrogen", "--tau", 60, "--shots", 8192, "--seed", 11]
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "run.csv"
        rc = run_cli(
            "run", "--ham", "hydrogen", "--tau", 60, "--shots", 100,
            "--format", "csv", "--out", out,
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "label,extended_prob,normalized_prob,shot_count"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 4
        assert sum(int(r.split(",")[3]) for r in rows) == 100

    def test_custom_initial_state_and_noise(self, tmp_path):
        out = tmp_path / "n.json"
        rc = run_cli(
            "run", "--ham", "hydrogen", "--tau", 60, "--noise", "0.05,0.1,0.02",
            "--init", "custom:1,1", "--out", out,
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["extended_probs"]["00"] > HYDROGEN_EXTENDED["00"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run_cli("run", "--ham", "nosuch.json", "--tau", 1, "--out", out) == 2
        assert run_cli("run", "--ham", "hydrogen", "--tau", 1, "--et", "bogus", "--out", out) == 2
        assert run_cli("run", "--ham", "hydrogen", "--tau", 1, "--init", "basis:7", "--out", out) == 2
        assert run_cli("run", "--ham", "hydrogen", "--tau", 1, "--noise", "2,0,0", "--out", out) == 2

    def test_postselection_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc = run_cli(
            "run", "--ham", "hydrogen", "--tau", 800, "--et", "frac:1.5",
            "--init", "basis:1", "--out", out,
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "E_T < E0" in err

    def test_basis_state_init(self, tmp_path):
        out = tmp_path / "b.json"
        rc = run_cli("run", "--ham", "hydrogen", "--tau", 60, "--init", "basis:1", "--out", out)
        assert rc == 0
        doc = json.loads(out.read_text())
        assert abs(sum(doc["extended_probs"].values()) - 1.0) < 1e-9

    def test_large_shot_histogram_tracks_probabilities(self, tmp_path):
        out = tmp_path / "big.json"
        shots = 10**6
        rc = run_cli("run", "--ham", "hydrogen", "--tau", 60, "--shots", shots, "--out", out)
        assert rc == 0
        doc = json.loads(out.read_text())
        for label, p in doc["extended_probs"].items():
            count = doc["shot_counts"][label]
            sigma = np.sqrt(shots * p * (1 - p))
            assert abs(count - shots * p) <= 4 * sigma


class TestSweepCommand:
    def test_optimal_fraction_recovers_ground_energy(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli(
            "sweep-et", "--ham", "hydrogen", "--fractions", "1.0", "--taus", "20",
            "--out", out,
        )
        assert rc == 0
        header, row = out.read_text().splitlines()
        assert header == "tau,et_fraction,et_value,p0,energy,fidelity_to_ground,failed"
        cells = row.split(",")
        from qitp.hamiltonians import hydrogen_sto2g

        e0 = hydrogen_sto2g()[0].ground_energy
        assert abs(float(cells[4]) - e0) < 1e-6
        assert float(cells[5]) > 1 - 1e-9
        assert cells[6] == "0"

    def test_below_ground_trial_energies_flagged(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli(
            "sweep-et", "--ham", "hydrogen", "--fractions", "1.1,1.2,1.5",
            "--taus", "450", "--out", out,
        )
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            cells = row.split(",")
            assert float(cells[3]) < 1e-8  # p0 collapses
            assert cells[6] == "1"  # failure flag
            assert cells[4] == "" and cells[5] == ""

    def test_degenerate_ground_space_weight(self, tmp_path):
        # a1 = -1 gives the spectrum [-1, -1, -1, 3]; |du> is half triplet
        # (ground) and half singlet, so filtering leaves it in the ground space
        ham = tmp_path / "v.json"
        assert run_cli("ham", "two-neutron", "--a1=-1", "--out", ham) == 0
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep-et", "--ham", ham, "--init", "basis:1", "--out", out) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 21
        for row in rows:
            cells = row.split(",")
            assert cells[6] == "0"
            assert abs(float(cells[4]) + 1.0) < 1e-12
            assert abs(float(cells[5]) - 1.0) < 1e-12

    def test_empty_fraction_list_gives_header_only(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep-et", "--ham", "hydrogen", "--fractions", "", "--taus", "5", "--out", out)
        assert rc == 0
        assert out.read_text() == "tau,et_fraction,et_value,p0,energy,fidelity_to_ground,failed\n"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-et", "--ham", "hydrogen", "--fractions", "0.5,0.8,0.9,1.0,1.1,1.2,1.5",
                "--taus", "5,10,20"]
        assert run_cli(*args, "--out", a) == 0
        assert run_cli(*args, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 1 + 21

    def test_energy_bracketed_for_trial_at_or_above_ground(self, tmp_path):
        from qitp.hamiltonians import hydrogen_sto2g
        from qitp.simulate import energy_expectation

        op, _, _ = hydrogen_sto2g()
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        e0 = op.ground_energy
        e_init = energy_expectation(psi0, op)
        out = tmp_path / "mono.csv"
        # fractions <= 1 keep E_T >= E0 (the ground energy is negative)
        rc = run_cli(
            "sweep-et", "--ham", "hydrogen", "--fractions", "0.5,0.8,0.9,1.0",
            "--taus", "5,10,20", "--out", out,
        )
        assert rc == 0
        for row in out.read_text().splitlines()[1:]:
            cells = row.split(",")
            assert cells[6] == "0"
            energy = float(cells[4])
            assert e0 - 1e-9 <= energy <= e_init + 1e-9


class TestTranspileCommand:
    def test_hydrogen_circuit_and_report(self, tmp_path):
        out = tmp_path / "c.qasm"
        rc = run_cli("transpile", "--ham", "hydrogen", "--tau", 60, "--et", "auto", "--out", out)
        assert rc == 0
        report = json.loads((tmp_path / "c.qasm.report.json").read_text())
        assert report["cz_count"] <= 3
        assert report["fidelity"] >= 1 - 1e-8
        circuit = parse_circuit_text(out.read_text())
        state = circuit_unitary(circuit) @ np.array([1, 1, 0, 0]) / np.sqrt(2)
        probs = np.abs(state) ** 2
        want = np.array([0.00357, 0.17678, 0.53561, 0.28403])
        assert np.max(np.abs(probs - want)) < 5e-3

    def test_wrong_dimension_exit_code(self, tmp_path, capsys):
        ham = tmp_path / "one.json"
        ham.write_text(json.dumps({"dim": 1, "units": "hartree", "matrix": [[[0.5, 0.0]]]}))
        rc = run_cli("transpile", "--ham", ham, "--tau", 1, "--out", tmp_path / "c.qasm")
        assert rc == 4
        assert "two-qubit" in capsys.readouterr().err

    def test_tau_zero_local_circuit(self, tmp_path):
        out = tmp_path / "c0.qasm"
        rc = run_cli("transpile", "--ham", "hydrogen", "--tau", 0, "--et", "0.0", "--out", out)
        assert rc == 0
        report = json.loads((tmp_path / "c0.qasm.report.json").read_text())
        assert report["cz_count"] == 0

    def test_deterministic_emission(self, tmp_path):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        for target in (a, b):
            assert run_cli("transpile", "--ham", "hydrogen", "--tau", 60, "--out", target) == 0
        assert a.read_bytes() == b.read_bytes()
