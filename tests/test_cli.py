import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qitp import cli
from qitp.cli import main
from qitp.hamiltonians import (
    SpinCouplings,
    hydrogen_sto2g,
    load_hamiltonian,
    save_hamiltonian,
    two_neutron_sd,
)
from qitp.linalg import HermitianOperator, max_abs
from qitp.transpile import circuit_unitary, parse_circuit_text

from helpers import haar_unitary, random_hermitian, random_state

HYDROGEN_EXTENDED = {
    "00": 0.00357,
    "01": 0.17678,
    "10": 0.53561,
    "11": 0.28403,
}


def run_cli(*args):
    return main([str(a) for a in args])


def cli_process(argv, cwd, *flags, env=None):
    """Run ``python [flags] -m qitp.cli argv`` in a fresh process on this checkout,
    with ``env`` added to the environment."""
    env = dict(os.environ, **(env or {}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, *flags, "-m", "qitp.cli", *map(str, argv)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


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

    def test_nine_value_a2_is_the_row_major_matrix(self, tmp_path, capsys):
        a2 = np.array([[0.1, 0.2, 0.0], [0.2, 0.3, 0.05], [0.0, 0.05, -0.4]])
        out = tmp_path / "v.json"
        values = ",".join(map(repr, a2.ravel().tolist()))
        assert run_cli("ham", "two-neutron", "--a1", 0.5, f"--a2={values}", "--out", out) == 0
        direct = two_neutron_sd(SpinCouplings(a1=0.5, a2=a2))
        assert np.array_equal(load_hamiltonian(out).matrix, direct.matrix)
        bad = tmp_path / "bad.json"
        assert run_cli("ham", "two-neutron", "--a2", "1,2,3,4", "--out", bad) == 2
        assert "--a2 takes 3 (diagonal) or 9 (row-major) numbers" in capsys.readouterr().err
        assert not bad.exists()

    def test_exponents_and_lowdin_flags(self, tmp_path):
        out = tmp_path / "h.json"
        rc = run_cli("ham", "hydrogen-sto2g", "--zeta", 1.1, "--exponents", "0.2,0.9",
                     "--orthogonalization", "lowdin", "--out", out)
        assert rc == 0
        assert json.loads(out.read_text())["provenance"] == {
            "builder": "hydrogen-sto2g",
            "exponents": [0.2, 0.9],
            "slater_zeta": 1.1,
            "orthogonalization": "lowdin",
        }
        direct, _, _ = hydrogen_sto2g((0.2, 0.9), 1.1, orthogonalization="lowdin")
        assert np.array_equal(load_hamiltonian(out).matrix, direct.matrix)


class TestFlagSurface:
    """Each builder parameter has one way in: its own `qitp ham` builder."""

    @pytest.mark.parametrize("argv", [
        ("ham", "hydrogen-sto2g", "--a1", "3"),
        ("ham", "hydrogen-sto2g", "--a2", "1,2,3"),
        ("ham", "two-neutron", "--zeta", "2"),
        ("ham", "two-neutron", "--exponents", "0.2,0.9"),
        ("ham", "two-neutron", "--orthogonalization", "lowdin"),
        ("run", "--ham", "hydrogen", "--tau", "1", "--a1", "7"),
        ("run", "--ham", "two-neutron", "--tau", "1", "--a2", "1,2,3"),
        ("sweep-et", "--ham", "hydrogen", "--a2", "1,2,3"),
        ("sweep-et", "--ham", "two-neutron", "--a1", "7"),
    ])
    def test_flag_outside_its_builder_exits_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "x.out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("ham", "two-neutron", "--a2=1,,2,3"),
        ("ham", "hydrogen-sto2g", "--exponents", ""),
        ("run", "--ham", "hydrogen", "--tau", "1", "--noise", "0.1,,0.2,0.3"),
        ("sweep-et", "--ham", "hydrogen", "--taus", "5,,10"),
        ("sweep-et", "--ham", "hydrogen", "--fractions", "1,"),
    ])
    def test_blank_list_field_exits_2(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", tmp_path / "x.out") == 2
        assert "expected comma-separated numbers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("preset, builder", [
        ("hydrogen", "hydrogen-sto2g"),
        ("two-neutron", "two-neutron"),
    ])
    def test_preset_matches_default_builder_file(self, tmp_path, capsys, preset, builder):
        ham = tmp_path / "ham.json"
        assert run_cli("ham", builder, "--out", ham) == 0
        commands = (
            ("run", "--tau", 2, "--shots", 500, "--noise", "0.1,0.05,0.02", "--out", "run.json"),
            ("run", "--tau", 2, "--shots", 500, "--format", "csv", "--out", "run.csv"),
            ("sweep-et", "--out", "sweep.csv"),
            ("transpile", "--tau", 2, "--out", "c.qasm"),
        )

        def outcome(source, workdir):
            workdir.mkdir()
            codes = [run_cli(command, "--ham", source, *rest, workdir / out)
                     for command, *rest, out in commands]
            files = {path.name: path.read_bytes() for path in workdir.iterdir()}
            return codes, capsys.readouterr().err, files

        got = outcome(preset, tmp_path / "preset")
        want = outcome(ham, tmp_path / "file")
        # the run JSON echoes --ham; nothing else may differ
        echo = json.dumps(str(ham)).encode(), json.dumps(preset).encode()
        want[2]["run.json"] = want[2]["run.json"].replace(*echo)
        assert got == want


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
        ham, out = tmp_path / "v.json", tmp_path / "nn.json"
        assert run_cli("ham", "two-neutron", "--a1=-0.5", "--a2=-1.5,-1.5,1.5", "--out", ham) == 0
        rc = run_cli("run", "--ham", ham, "--tau", 10, "--et", "auto", "--out", out)
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
        assert capsys.readouterr().err.endswith("error: amplitude_damping must be in [0, 1]\n")

    def test_negative_exponent_notation_needs_equals(self, tmp_path, capsys):
        # argparse takes "-1e-3" for a flag unless it is attached with "="
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--ham", "hydrogen", "--tau", "1", "--et", "-1e-3", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --et: expected one argument" in capsys.readouterr().err
        assert run_cli("run", "--ham", "hydrogen", "--tau", 1, "--et=-1e-3", "--out", out) == 0
        assert json.loads(out.read_text())["config"]["trial_energy"] == -0.001

    @pytest.mark.parametrize("flag, value, message", [
        ("--noise", "0.1,0.2", "expected 3 comma-separated numbers, got '0.1,0.2'"),
        ("--et", "frac:x", "bad --et fraction: 'frac:x'"),
        ("--init", "basis:x", "bad --init basis index: 'basis:x'"),
        ("--init", "custom:1,zz", "bad --init amplitudes: 'custom:1,zz'"),
        ("--init", "custom:1", "expected 2 amplitudes, got 1"),
        ("--init", "bogus", "--init must be 'uniform', 'basis:<k>', or 'custom:<amps>'"),
    ])
    def test_bad_flag_text_exits_2(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "x.json"
        assert run_cli("run", "--ham", "hydrogen", "--tau", 1, flag, value, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_ham_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        commands = (
            ("run", "--tau", 1, "--out", tmp_path / "r.json"),
            ("sweep-et", "--out", tmp_path / "s.csv"),
            ("transpile", "--tau", 1, "--out", tmp_path / "c.qasm"),
        )
        for command, *rest in commands:
            assert run_cli(command, "--ham", missing, *rest) == 2
            assert str(missing) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_postselection_failure_exit_code(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc = run_cli(
            "run", "--ham", "hydrogen", "--tau", 800, "--et", "frac:1.5",
            "--init", "basis:1", "--out", out,
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "E_T < E0" in err

    def test_postselection_failure_at_the_ground_energy_names_the_initial_state(
        self, tmp_path, capsys
    ):
        # E_T = E0 = -3 exactly, but the uniform state misses the singlet
        # ground state, so p0 is about 1.9e-174
        out = tmp_path / "p.json"
        assert run_cli("run", "--ham", "two-neutron", "--tau", 50, "--et", "auto", "--out", out) == 3
        err = capsys.readouterr().err
        assert "repetition 1" in err and "below 1e-14" in err
        assert "initial state has almost no weight on the levels at or below E_T" in err
        assert not out.exists()

    def test_postselection_failure_message_on_both_paths(self, tmp_path, capsys):
        errors = []
        for noise in ((), ("--noise", "0,0.01,0")):
            out = tmp_path / "p.json"
            argv = ("run", "--ham", "two-neutron", "--tau", 50, "--et", -100, *noise, "--out", out)
            assert run_cli(*argv) == 3
            errors.append(capsys.readouterr().err)
            assert "repetition 1" in errors[-1] and "below 1e-14" in errors[-1]
            assert not out.exists()
        assert errors[0] == errors[1]

    def test_repetitions_beyond_float_range_exit_code(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("run", "--ham", "hydrogen", "--tau", 1, "--reps", 10**400, "--out", out) == 2
        assert "repetitions" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_repetition_count_projects_onto_ground_state(self, tmp_path):
        # K |log h^2| overflows every level at tau 60; the answer is still
        # the ground projection
        out = tmp_path / "k.json"
        rc = run_cli(
            "run", "--ham", "hydrogen", "--tau", 60, "--et", "frac:1.5", "--reps", 2**1023,
            "--out", out,
        )
        assert rc == 0
        e0 = hydrogen_sto2g()[0].ground_energy
        assert abs(json.loads(out.read_text())["energy"] - e0) <= 1e-12 * abs(e0)

    def test_near_degenerate_two_neutron_couplings(self, tmp_path):
        # a2 splits two levels by 5e-10, closer than the degeneracy tolerance
        ham, out = tmp_path / "v.json", tmp_path / "d.json"
        assert run_cli("ham", "two-neutron", "--a1=1", "--a2=5e-10,0,0", "--out", ham) == 0
        rc = run_cli("run", "--ham", ham, "--tau", 1, "--out", out)
        assert rc == 0
        doc = json.loads(out.read_text())
        assert abs(sum(doc["extended_probs"].values()) - 1.0) < 1e-12
        assert abs(sum(doc["normalized_probs"].values()) - 1.0) < 1e-12

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

    def test_every_row_underflows_to_zero(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli(
            "sweep-et", "--ham", "hydrogen", "--fractions", "3,4", "--taus", "450,1000",
            "--out", out,
        )
        assert rc == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            assert row.split(",")[3:] == ["0.0", "", "", "1"]

    def test_bad_grid_values_exit_2(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        for taus, fractions in (("5,-1", "1"), ("nan", "1"), ("5", "1,0"), ("5", "nan"),
                                ("5", "inf")):
            rc = run_cli("sweep-et", "--ham", "hydrogen", "--taus", taus,
                         "--fractions", fractions, "--out", out)
            assert rc == 2
        assert not out.exists()

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

    def test_basis_change_keeps_every_column(self, tmp_path):
        # (U H U^dag, U psi) has the spectrum and eigen-overlaps of (H, psi),
        # so every row reads the same, failed rows (E_T below E0) included
        rng = np.random.default_rng(23)
        h = random_hermitian(5, rng) - 3.0 * np.eye(5)
        u, psi = haar_unitary(5, rng), random_state(5, rng)
        tables = []
        for m, state in ((h, psi), (u @ h @ u.conj().T, u @ psi)):
            ham, out = tmp_path / "h.json", tmp_path / "sweep.csv"
            save_hamiltonian(HermitianOperator.from_matrix((m + m.conj().T) / 2, "dimensionless"), ham)
            init = "custom:" + ",".join(repr(complex(z)) for z in state)
            rc = run_cli("sweep-et", "--ham", ham, "--init", init, "--fractions", "0.5,1.0,1.3",
                         "--taus", "0.5,3,450", "--out", out)
            assert rc == 0
            tables.append([row.split(",") for row in out.read_text().splitlines()[1:]])
        assert [row[6] for row in tables[0]] == ["0"] * 6 + ["0", "0", "1"]
        for want, got in zip(*tables):
            assert got[6] == want[6]
            for a, b in zip(want[2:6], got[2:6]):
                assert (a == "") == (b == "")
                assert a == "" or abs(float(a) - float(b)) <= 1e-10


class TestScaleAndShift:
    """The filter depends on (E - E_T) tau alone, so through the CLI output
    files (s H, tau / s) with the same fractions, and (H + c I, E_T + c),
    read as (H, tau, E_T), with the energy scaled by s or shifted by c.
    Tolerances as in test_simulate.TestScaleAndShiftCovariance."""

    TAUS = (0.5, 3.0, 20.0)

    @staticmethod
    def hamiltonian():
        # E0 < 0, so fraction 1.3 puts E_T below it: tau 20 fails that row
        return random_hermitian(5, np.random.default_rng(31)) - 3.0 * np.eye(5)

    @staticmethod
    def save(tmp_path, m):
        path = tmp_path / "h.json"
        save_hamiltonian(HermitianOperator.from_matrix(m, "dimensionless"), path)
        return path

    def sweep(self, tmp_path, m, taus, fractions):
        out = tmp_path / "sweep.csv"
        rc = run_cli("sweep-et", "--ham", self.save(tmp_path, m), "--fractions", fractions,
                     "--taus", ",".join(map(repr, taus)), "--out", out)
        assert rc == 0
        return [row.split(",") for row in out.read_text().splitlines()[1:]]

    @pytest.mark.parametrize("s", [1e-12, 1e-3, 1e3, 1e12])
    def test_scale(self, tmp_path, s):
        h = self.hamiltonian()
        want = self.sweep(tmp_path, h, self.TAUS, "0.5,1.0,1.3")
        got = self.sweep(tmp_path, s * h, [t / s for t in self.TAUS], "0.5,1.0,1.3")
        assert [row[6] for row in want] == ["0"] * 8 + ["1"]
        for w, g in zip(want, got):
            assert g[6] == w[6]
            assert abs(float(g[3]) - float(w[3])) <= 1e-9 * float(w[3])
            if w[6] == "0":
                assert abs(float(g[4]) / s - float(w[4])) <= 1e-9 * max_abs(h)
                assert abs(float(g[5]) - float(w[5])) <= 1e-9

    @pytest.mark.parametrize("c", [-1e6, -2.5, 40.0, 1e6])
    def test_shift(self, tmp_path, c):
        h = self.hamiltonian()
        shifted = h + c * np.eye(5)
        scale = max_abs(h) + abs(c)
        et = HermitianOperator.from_matrix(h, "dimensionless").ground_energy + 0.4
        runs = []
        for m, trial in ((h, et), (shifted, et + c)):
            out = tmp_path / "run.json"
            rc = run_cli("run", "--ham", self.save(tmp_path, m), "--tau", 3, "--reps", 2,
                         "--et", repr(trial), "--out", out)
            assert rc == 0
            runs.append(json.loads(out.read_text()))
        want, got = runs
        assert abs(got["postselect_prob"] / want["postselect_prob"] - 1.0) <= 1e-6
        assert abs(got["energy"] - c - want["energy"]) <= 1e-9 * scale
        want = self.sweep(tmp_path, h, self.TAUS, "1")
        got = self.sweep(tmp_path, shifted, self.TAUS, "1")
        for w, g in zip(want, got):
            assert g[6] == w[6] == "0"
            assert abs(float(g[3]) - float(w[3])) <= 1e-6 * float(w[3])
            assert abs(float(g[5]) - float(w[5])) <= 1e-6
            assert abs(float(g[4]) - c - float(w[4])) <= 1e-9 * scale


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


class TestExtremeTrialEnergies:
    # RuntimeWarning is an error in these processes, as in this suite
    def test_infinite_fraction_is_a_config_error(self, tmp_path):
        argv = ("transpile", "--ham", "hydrogen", "--tau", "0", "--et", "frac:inf",
                "--out", "c.qasm")
        result = cli_process(argv, tmp_path, "-W", "error::RuntimeWarning")
        assert result.returncode == 2
        assert result.stderr == "error: fraction must be finite and > 0, got inf\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fraction", ["0", "-1", "nan", "inf"])
    def test_bad_fraction_has_one_message_in_every_command(self, tmp_path, capsys, fraction):
        # every command resolves E_T = x E0 through one check
        commands = (
            ("run", "--tau", 1, "--et", f"frac:{fraction}", "--out", tmp_path / "r.json"),
            ("transpile", "--tau", 1, "--et", f"frac:{fraction}", "--out", tmp_path / "c.qasm"),
            ("sweep-et", "--fractions", fraction, "--out", tmp_path / "s.csv"),
        )
        for command, *flags in commands:
            assert run_cli(command, "--ham", "hydrogen", *flags) == 2
            err = capsys.readouterr().err
            assert err == f"error: fraction must be finite and > 0, got {float(fraction)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_fraction_product_names_the_fraction(self, tmp_path, capsys):
        # a valid fraction whose product with E0 = -3 leaves the float range
        ham = tmp_path / "v.json"
        assert run_cli("ham", "two-neutron", "--a1", 1.0, "--out", ham) == 0
        e0 = load_hamiltonian(ham).ground_energy
        commands = (
            ("run", "--ham", "two-neutron", "--tau", 1, "--et", "frac:1.7e308",
             "--out", tmp_path / "r.json"),
            ("sweep-et", "--ham", ham, "--fractions=1.7e308", "--out", tmp_path / "s.csv"),
        )
        for argv in commands:
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: fraction 1.7e+308 times E0 = {e0} overflows\n"
        assert list(tmp_path.iterdir()) == [ham]

    def test_overflowing_exponent_writes_flagged_row(self, tmp_path):
        argv = ("sweep-et", "--ham", "hydrogen", "--fractions", "1e308", "--taus", "5",
                "--out", "sweep.csv")
        result = cli_process(argv, tmp_path, "-W", "error::RuntimeWarning")
        assert (result.returncode, result.stderr) == (0, "")
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[:2] == ["5.0", "1e+308"]
        assert rows[1].split(",")[3:] == ["0.0", "", "", "1"]


class TestExtremeAmplitudes:
    # a fresh process, default warning filters: a numpy warning would reach stderr
    @pytest.mark.parametrize("scale", ["1e308", "1e-200"])
    def test_custom_amplitudes_at_float_extremes(self, tmp_path, scale):
        common = ("run", "--ham", "hydrogen", "--tau", "1", "--init")
        result = cli_process((*common, f"custom:{scale},{scale}", "--out", "run.json"), tmp_path)
        assert (result.returncode, result.stderr) == (0, "")
        assert run_cli(*common, "custom:1,1", "--out", tmp_path / "unit.json") == 0
        got, want = (json.loads((tmp_path / name).read_text()) for name in ("run.json", "unit.json"))
        assert got["extended_probs"] == want["extended_probs"]


class TestParserReuse:
    # (command line, files it writes)
    COMMANDS = (
        (("run", "--ham", "hydrogen", "--tau", "60", "--shots", "100", "--out", "run_a.json"),
         ["run_a.json"]),
        (("run", "--ham", "hydrogen", "--tau", "1", "--et", "bogus", "--out", "bad.json"), []),
        (("sweep-et", "--ham", "hydrogen", "--out", "sweep.csv"), ["sweep.csv"]),
        (("transpile", "--ham", "hydrogen", "--tau", "60", "--out", "c.qasm"),
         ["c.qasm", "c.qasm.report.json"]),
        (("run", "--ham", "hydrogen", "--tau", "60", "--shots", "100", "--out", "run_b.json"),
         ["run_b.json"]),
    )

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_one_process_matches_fresh_processes(self, tmp_path, capsys, monkeypatch):
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        shared.mkdir()
        monkeypatch.chdir(shared)
        in_process = []
        for argv, _ in self.COMMANDS:
            rc = main(list(argv))
            in_process.append((rc, capsys.readouterr().err))
        assert [rc for rc, _ in in_process] == [0, 2, 0, 0, 0]
        for (argv, outputs), (rc, err) in zip(self.COMMANDS, in_process):
            workdir = fresh / argv[-1]
            workdir.mkdir(parents=True)
            result = cli_process(argv, workdir)
            assert (result.returncode, result.stderr) == (rc, err)
            assert sorted(path.name for path in workdir.iterdir()) == outputs
            for name in outputs:
                assert (workdir / name).read_bytes() == (shared / name).read_bytes()
        assert (shared / "run_a.json").read_bytes() == (shared / "run_b.json").read_bytes()


class TestBlasThreads:
    def test_thread_count_leaves_output_bytes(self, tmp_path):
        # one machine and BLAS kernel: the output bytes do not depend on the thread count
        m = random_hermitian(64, np.random.default_rng(64))
        save_hamiltonian(HermitianOperator.from_matrix(m, "dimensionless"), tmp_path / "h.json")
        for name, flags in (("pure", ("--shots", "100000", "--seed", "5")),
                            ("noisy", ("--noise", "0.02,0.01,0.01", "--reps", "3"))):
            outputs = []
            for threads in ("1", "2"):
                out = f"{name}{threads}.json"
                argv = ("run", "--ham", "h.json", "--tau", "0.5", *flags, "--out", out)
                env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
                result = cli_process(argv, tmp_path, env=env)
                assert (result.returncode, result.stderr) == (0, "")
                outputs.append((tmp_path / out).read_bytes())
            assert outputs[0] == outputs[1], name
