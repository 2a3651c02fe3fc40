"""The four benchmark workloads: seeded inputs, the jobs, independent checks.

Inputs are made here with numpy from the seed alone; qitp only ever sees
the generated files, argv lists and 4x4 matrices. Each workload repeats a
fixed cycle of input kinds, so a new seed changes the draws but not the mix
(and any whole number of cycles carries the same mix).

The checks never call qitp. They recompute what an output must say from
the generated inputs with numpy formulas kept in this file (the filter
h(E), the STO-2G integrals, the two-neutron Pauli sum, rx/rz/cz), so a
defect in qitp cannot cancel in its own check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

WORKLOADS = ("sweep-dim64", "noisy-dim64", "transpile-2q", "preset-sessions")

# Why each workload exists (kept in step with BENCHMARK.json).
WHY = {
    "sweep-dim64": "noiseless spectral path: a ~10x10 sweep-et grid, build_dilation dominates",
    "noisy-dim64": "density-matrix path: run --noise --reps 10, apply_channel dominates",
    "transpile-2q": "KAK synthesis, QASM emit and parse over every CZ-count class",
    "preset-sessions": "paper presets at N = 2 and 4: CLI overhead, builders, 10^6-shot sampling",
}

POSTSELECT_FLOOR = 1e-14  # qitp's documented post-selection floor
SHOTS = 1_000_000
POOL_DIMS = (64, 64, 48)  # 64 is MAX_DIM; 48 is not a power of two
JOBS_PER_POOL_WORKLOAD = 24
TRANSPILE_CYCLE = (
    "haar", "local", "haar", "cz", "haar", "z0",
    "haar", "hydrogen", "haar", "haar", "hydrogen", "haar",
)
TRANSPILE_CYCLES = 120
SESSIONS = 32
# `qitp sweep-et` defaults, used by the preset session's default sweep.
DEFAULT_SWEEP_TAUS = (5.0, 10.0, 20.0)
DEFAULT_SWEEP_FRACTIONS = (0.5, 0.8, 0.9, 1.0, 1.1, 1.2, 1.5)
# |du>: half singlet, half triplet. The uniform state has no singlet (ground)
# weight, so filtering it at E_T near E0 would only ever fail post-selection.
TWO_NEUTRON_INIT = "basis:1"
STO2G_EXPONENTS = (0.151623, 0.851819)  # published STO-2G fit, zeta = 1
EXPECTED_CZ = {"haar": 3, "local": 0, "cz": 1, "z0": 2, "hydrogen": 2}


def _num(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Independent physics and gates
# ---------------------------------------------------------------------------

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


def filter_weights(energies, tau, trial_energy):
    """(h, r) with h^2 = 1/(1 + e^x), r^2 = 1/(1 + e^-x), x = 2 (E - E_T) tau."""
    x = 2.0 * (np.asarray(energies, dtype=float) - trial_energy) * tau
    return np.exp(-0.5 * np.logaddexp(0.0, x)), np.exp(-0.5 * np.logaddexp(0.0, -x))


def dilation_matrix(h, tau, trial_energy):
    """The 2N x 2N dilation [[Q, R], [R, -Q]] of a Hermitian matrix."""
    w, v = np.linalg.eigh(h)
    hw, rw = filter_weights(w, tau, trial_energy)
    q = (v * hw) @ v.conj().T
    r = (v * rw) @ v.conj().T
    return np.block([[q, r], [r, -q]])


def hydrogen_matrix(zeta: float) -> np.ndarray:
    """Hydrogen on the two STO-2G primitives, Loewdin-orthonormalized (Hartree)."""
    a = np.array(STO2G_EXPONENTS) * zeta**2
    ai, aj = np.meshgrid(a, a, indexing="ij")
    s = (2.0 * np.sqrt(ai * aj) / (ai + aj)) ** 1.5
    t = 3.0 * ai * aj / (ai + aj) * s
    v = -2.0 * np.sqrt((ai + aj) / np.pi) * s
    w, u = np.linalg.eigh(s)
    x = (u * w**-0.5) @ u.T
    h = x @ (t + v) @ x
    return (h + h.T) / 2.0


def two_neutron_matrix(a1: float, a2) -> np.ndarray:
    a2 = np.asarray(a2, dtype=float)
    out = np.zeros((4, 4), dtype=complex)
    for j in range(3):
        out += a1 * np.kron(PAULIS[j], PAULIS[j])
        for k in range(3):
            out += a2[j, k] * np.kron(PAULIS[j], PAULIS[k])
    return out


def rx(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def rz(theta):
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


_QASM_GATE = re.compile(r"^(rx|rz)\(([^)]+)\) q\[([01])\];$|^cz q\[0\],q\[1\];$")


def qasm_matrix(text: str) -> tuple[np.ndarray, int]:
    """Matrix and CZ count of a two-qubit QASM text, with its global phase."""
    lines = text.splitlines()
    if lines[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";']:
        raise ValueError("missing OPENQASM 2.0 header")
    phase = 0.0
    u = np.eye(4, dtype=complex)
    czs = 0
    for line in lines[2:]:
        if line.startswith("// global_phase: "):
            phase = float(line.split(": ", 1)[1])
        elif line == "qreg q[2];":
            continue
        else:
            m = _QASM_GATE.match(line)
            if not m:
                raise ValueError(f"unexpected QASM line {line!r}")
            if m.group(1) is None:
                g = CZ
                czs += 1
            else:
                g1 = rx(float(m.group(2))) if m.group(1) == "rx" else rz(float(m.group(2)))
                g = np.kron(g1, np.eye(2)) if m.group(3) == "0" else np.kron(np.eye(2), g1)
            u = g @ u
    return u * np.exp(1j * phase), czs


def qasm_text(qubit_count: int, phase: float, gates) -> str:
    """The documented QASM serialization of a (kind, qubits, angle) gate list."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if phase != 0.0:
        lines.append(f"// global_phase: {format(phase, '.17g')}")
    lines.append(f"qreg q[{qubit_count}];")
    for kind, qubits, angle in gates:
        if kind == "cz":
            lines.append(f"cz q[{qubits[0]}],q[{qubits[1]}];")
        else:
            lines.append(f"{kind}({format(angle, '.17g')}) q[{qubits[0]}];")
    return "\n".join(lines) + "\n"


def fidelity(u, v) -> float:
    return float(abs(np.trace(np.asarray(u).conj().T @ v))) / len(u)


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _matrix_doc(m) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _matrix_from_doc(doc) -> np.ndarray:
    a = np.asarray(doc, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _random_hamiltonian(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / (2.0 * math.sqrt(2.0 * dim))


def _haar(rng, n: int) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _local(rng) -> np.ndarray:
    return np.kron(_haar(rng, 2), _haar(rng, 2))


def _hydrogen_unitary(rng) -> np.ndarray:
    """A hydrogen dilation whose Weyl class stays clear of 0 and CZ (2 CZs)."""
    while True:
        h = hydrogen_matrix(rng.uniform(0.8, 1.25))
        tau = rng.uniform(0.1, 3.0)
        w = np.linalg.eigvalsh(h)
        et = rng.uniform(0.7, 1.3) * w[0]
        hw, rw = filter_weights(w, tau, et)
        # The dilation is a local times a controlled rotation by 2|dtheta|,
        # Weyl class (|dtheta| / 2, 0, 0).
        x = abs(math.atan2(rw[1], hw[1]) - math.atan2(rw[0], hw[0])) / 2.0
        if 0.02 < x < math.pi / 4 - 0.02:
            return dilation_matrix(h, tau, et)


def _two_qubit(rng, kind: str) -> np.ndarray:
    if kind == "haar":
        return _haar(rng, 4)
    if kind == "local":
        return _local(rng) * np.exp(1j * rng.uniform(-math.pi, math.pi))
    if kind == "cz":
        return _local(rng) @ CZ @ _local(rng)
    if kind == "z0":
        x = rng.uniform(0.15, 0.7)
        y = rng.uniform(0.05, x - 0.05)
        xx = np.kron(PAULIS[0], PAULIS[0])
        yy = np.kron(PAULIS[1], PAULIS[1])
        core = (math.cos(x) * np.eye(4) + 1j * math.sin(x) * xx) @ (
            math.cos(y) * np.eye(4) + 1j * math.sin(y) * yy
        )
        return _local(rng) @ core @ _local(rng)
    return _hydrogen_unitary(rng)


def _pool_hamiltonians(rng) -> list:
    return [
        {"file": f"h{i}.json", "dim": d, "matrix": _matrix_doc(_random_hamiltonian(rng, d))}
        for i, d in enumerate(POOL_DIMS * 2)
    ]


def _sweep_inputs(rng) -> dict:
    hams = _pool_hamiltonians(rng)
    jobs = []
    for i in range(JOBS_PER_POOL_WORKLOAD):
        ham = hams[i % len(hams)]
        taus = np.sort(np.exp(rng.uniform(math.log(0.2), math.log(40.0), 10)))
        fractions = np.concatenate(
            [np.sort(rng.uniform(0.3, 0.98, 6)), [1.0], np.sort(rng.uniform(1.05, 1.5, 3))]
        )
        argv = [
            "sweep-et", "--ham", ham["file"],
            "--taus", ",".join(map(_num, taus)),
            "--fractions", ",".join(map(_num, fractions)),
            "--out", "sweep.csv",
        ]
        jobs.append({
            "kind": f"dim{ham['dim']}", "steps": [argv], "outputs": ["sweep.csv"],
            "ham": i % len(hams), "taus": taus.tolist(), "fractions": fractions.tolist(),
        })
    return {"hamiltonians": hams, "jobs": jobs, "cycle": len(POOL_DIMS)}


def _noisy_inputs(rng) -> dict:
    hams = _pool_hamiltonians(rng)
    jobs = []
    for i in range(JOBS_PER_POOL_WORKLOAD):
        ham = hams[i % len(hams)]
        noise = [rng.uniform(0.002, 0.03), rng.uniform(0.002, 0.03), rng.uniform(0.005, 0.03)]
        argv = [
            "run", "--ham", ham["file"],
            "--tau", _num(rng.uniform(0.3, 3.0)),
            "--et", f"frac:{_num(rng.uniform(0.6, 1.0))}",
            "--noise", ",".join(map(_num, noise)),
            "--reps", "10", "--out", "run.json",
        ]
        jobs.append({
            "kind": f"dim{ham['dim']}", "steps": [argv], "outputs": ["run.json"],
            "ham": i % len(hams),
        })
    return {"hamiltonians": hams, "jobs": jobs, "cycle": len(POOL_DIMS)}


def _transpile_inputs(rng) -> dict:
    jobs = [
        {"kind": kind, "matrix": _matrix_doc(_two_qubit(rng, kind)), "cz": EXPECTED_CZ[kind]}
        for _ in range(TRANSPILE_CYCLES)
        for kind in TRANSPILE_CYCLE
    ]
    return {"hamiltonians": [], "jobs": jobs, "cycle": len(TRANSPILE_CYCLE)}


def _session_inputs(rng) -> dict:
    jobs = []
    for _ in range(SESSIONS):
        zeta = rng.uniform(0.9, 1.2)
        tau_h = rng.uniform(20.0, 60.0)
        a1 = rng.uniform(0.5, 2.0)
        a2 = rng.uniform(-0.4, 0.4, (3, 3))
        a2 = (a2 + a2.T) / 2.0
        tau_v = rng.uniform(0.5, 3.0)
        seeds = rng.integers(0, 2**31, 2)
        steps = [
            ["ham", "hydrogen-sto2g", "--zeta", _num(zeta), "--out", "h.json"],
            ["run", "--ham", "h.json", "--tau", _num(tau_h), "--et", "auto",
             "--shots", str(SHOTS), "--seed", str(seeds[0]), "--out", "run_h.json"],
            ["transpile", "--ham", "h.json", "--tau", _num(tau_h), "--et", "auto",
             "--out", "h.qasm"],
            ["ham", "two-neutron", f"--a1={_num(a1)}",
             "--a2=" + ",".join(map(_num, a2.ravel())), "--out", "v.json"],
            ["run", "--ham", "v.json", "--tau", _num(tau_v), "--et", "auto", "--reps", "3",
             "--init", TWO_NEUTRON_INIT, "--shots", str(SHOTS), "--seed", str(seeds[1]),
             "--out", "run_v.json"],
            ["sweep-et", "--ham", "v.json", "--init", TWO_NEUTRON_INIT, "--out", "sweep_v.csv"],
        ]
        jobs.append({
            "kind": "session", "steps": steps,
            "outputs": ["h.json", "run_h.json", "h.qasm", "h.qasm.report.json",
                        "v.json", "run_v.json", "sweep_v.csv"],
            "zeta": zeta, "tau_h": tau_h, "a1": a1, "a2": a2.tolist(),
        })
    return {"hamiltonians": [], "jobs": jobs, "cycle": 1}


_GENERATORS = {
    "sweep-dim64": _sweep_inputs,
    "noisy-dim64": _noisy_inputs,
    "transpile-2q": _transpile_inputs,
    "preset-sessions": _session_inputs,
}


def make_inputs(workload: str, seed: int) -> dict:
    """Every input of one workload run, as plain JSON data, from the seed."""
    inputs = _GENERATORS[workload](_rng(workload, seed))
    inputs.update(workload=workload, seed=seed)
    return inputs


def write_inputs(inputs: dict, workdir) -> None:
    """Hamiltonian JSON files plus inputs.json, into the worker's directory."""
    for ham in inputs["hamiltonians"]:
        doc = {"dim": ham["dim"], "units": "dimensionless", "matrix": ham["matrix"]}
        (workdir / ham["file"]).write_text(json.dumps(doc))
    (workdir / "inputs.json").write_text(json.dumps(inputs))


# ---------------------------------------------------------------------------
# Checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol


class References:
    """Spectra of the generated Hamiltonians, computed once per run."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self._spectra = {}

    def spectrum(self, index: int):
        if index not in self._spectra:
            m = _matrix_from_doc(self.inputs["hamiltonians"][index]["matrix"])
            self._spectra[index] = np.linalg.eigh(m)
        return self._spectra[index]


def check_sweep(text: str, w, v, taus, fractions, psi0=None) -> list:
    """sweep-et CSV against p0 = sum |c_n|^2 h(E_n)^2 and the filtered energy.

    ``psi0`` is the initial state, uniform by default.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["tau", "et_fraction", "et_value", "p0", "energy",
                   "fidelity_to_ground", "failed"]:
        return [f"bad sweep header {rows[0]}"]
    rows = rows[1:]
    if len(rows) != len(taus) * len(fractions):
        return [f"sweep has {len(rows)} rows, expected {len(taus) * len(fractions)}"]
    if psi0 is None:
        psi0 = np.full(len(w), 1.0 / math.sqrt(len(w)))
    c2 = np.abs(v.conj().T @ psi0) ** 2
    scale = 1.0 + float(np.max(np.abs(w)))
    problems = []
    grid = [(t, f) for t in taus for f in fractions]
    for row, (tau, frac) in zip(rows, grid):
        et = frac * w[0]
        h, _ = filter_weights(w, tau, et)
        weights = c2 * h**2
        p0 = float(weights.sum())
        where = f"tau={tau!r} fraction={frac!r}"
        if float(row[0]) != tau or float(row[1]) != frac:
            problems.append(f"row out of order at {where}")
        elif not _close(float(row[2]), et, 1e-12 * scale):
            problems.append(f"E_T {row[2]} != {et!r} at {where}")
        elif row[6] == "1":
            if not et < w[0] or p0 >= POSTSELECT_FLOOR * (1 + 1e-6):
                problems.append(f"unexpected post-selection failure at {where}")
        elif row[6] != "0":
            problems.append(f"bad failed flag {row[6]!r} at {where}")
        elif p0 < POSTSELECT_FLOOR * (1 - 1e-6):
            problems.append(f"row kept although p0 = {p0:.3e} at {where}")
        elif not _close(float(row[3]), p0, 1e-8 * p0):
            problems.append(f"p0 {row[3]} != {p0!r} at {where}")
        elif not _close(float(row[4]), float(weights @ w) / p0, 1e-8 * scale):
            problems.append(f"energy {row[4]} != {float(weights @ w) / p0!r} at {where}")
    return problems


def check_distribution(doc: dict, e_lo: float, e_hi: float, shots: int = 0) -> list:
    """A `run` JSON: non-negative probabilities summing to 1, E0 <= E <= Emax."""
    problems = []
    for key in ("extended_probs", "normalized_probs"):
        p = np.array(list(doc[key].values()), dtype=float)
        if np.any(p < 0) or not _close(p.sum(), 1.0, 1e-9):
            problems.append(f"{key} not a distribution (sum {p.sum()!r})")
    tol = 1e-9 * (1.0 + max(abs(e_lo), abs(e_hi)))
    if not e_lo - tol <= doc["energy"] <= e_hi + tol:
        problems.append(f"energy {doc['energy']!r} outside [{e_lo!r}, {e_hi!r}]")
    counts = list(doc["shot_counts"].values())
    if sum(counts) != shots or min(counts) < 0:
        problems.append(f"shot counts sum to {sum(counts)}, expected {shots}")
    return problems


def check_circuit(qasm: str, target, expected_cz: int) -> list:
    built, czs = qasm_matrix(qasm)
    problems = []
    fid = fidelity(target, built)
    if fid < 1.0 - 1e-8:
        problems.append(f"synthesis fidelity {fid!r}")
    if czs != expected_cz:
        problems.append(f"{czs} CZs, expected {expected_cz}")
    return problems


def check_transpile(job: dict, out: dict) -> list:
    target = _matrix_from_doc(job["matrix"])
    problems = check_circuit(out["qasm"], target, job["cz"])
    if out["cz"] != job["cz"]:
        problems.append(f"circuit reports {out['cz']} CZs, expected {job['cz']}")
    if qasm_text(*out["parsed"]) != out["qasm"]:
        problems.append("QASM round trip is not byte-identical")
    built, _ = qasm_matrix(out["qasm"])
    if np.max(np.abs(out["unitary"] - built)) > 1e-9:
        problems.append("circuit_unitary disagrees with the gate list")
    return problems


def check_session(job: dict, files: dict) -> list:
    problems = []
    h_doc = json.loads(files["h.json"])
    h = _matrix_from_doc(h_doc["matrix"])
    w_h = np.linalg.eigvalsh(h)
    own = np.linalg.eigvalsh(hydrogen_matrix(job["zeta"]))
    if not np.allclose(w_h, own, rtol=0, atol=1e-9):
        problems.append(f"hydrogen spectrum {w_h} != {own}")
    run_h = json.loads(files["run_h.json"])
    problems += check_distribution(run_h, w_h[0], w_h[-1], SHOTS)
    if not _close(run_h["energy"], w_h[0], 1e-9 * (1.0 + abs(w_h[0]))):
        problems.append(f"hydrogen E {run_h['energy']!r} != E0 {w_h[0]!r} at --et auto")
    target = dilation_matrix(h, job["tau_h"], w_h[0])
    problems += check_circuit(files["h.qasm"], target, EXPECTED_CZ["hydrogen"])
    if json.loads(files["h.qasm.report.json"])["cz_count"] != EXPECTED_CZ["hydrogen"]:
        problems.append("transpile report has the wrong CZ count")
    v = _matrix_from_doc(json.loads(files["v.json"])["matrix"])
    if np.max(np.abs(v - two_neutron_matrix(job["a1"], job["a2"]))) > 1e-12:
        problems.append("two-neutron matrix differs from the Pauli sum")
    w_v, vec_v = np.linalg.eigh(v)
    problems += check_distribution(json.loads(files["run_v.json"]), w_v[0], w_v[-1], SHOTS)
    problems += check_sweep(
        files["sweep_v.csv"], w_v, vec_v, DEFAULT_SWEEP_TAUS, DEFAULT_SWEEP_FRACTIONS,
        np.eye(4)[int(TWO_NEUTRON_INIT.split(":")[1])],
    )
    return problems


def check(inputs: dict, refs: References, job: dict, out: dict) -> list:
    """Problems with one job's output; the empty list means it is correct."""
    workload = inputs["workload"]
    if workload == "transpile-2q":
        return check_transpile(job, out)
    if workload == "preset-sessions":
        return check_session(job, out)
    w, v = refs.spectrum(job["ham"])
    if workload == "sweep-dim64":
        return check_sweep(out["sweep.csv"], w, v, job["taus"], job["fractions"])
    return check_distribution(json.loads(out["run.json"]), w[0], w[-1])
