"""The golden output corpus: fixed CLI sessions, how to run them, how to compare.

Each case is a session of ``qitp`` commands run in-process, in order, in one
fresh working directory that holds only the case's input files. Its record
is every file the session leaves there, plus ``_session.json``: each
command's argv, exit code and stderr. ``tests/golden/<case>/`` stores the
record; :func:`compare` checks a fresh record against it:

- exactly: JSON keys and their order, strings (labels, stderr), integers
  (counts, CZ counts, exit codes), CSV layout and every non-float cell, the
  set of files written;
- floats: within ``REL_TOL`` relative, or both below ``TINY`` in magnitude;
- QASM: by qubit count, CZ count and circuit unitary (max entry, global
  phase included, within ``REL_TOL``), never by angle text or gate list,
  since one-ulp changes to a hydrogen dilation rewrite its gate list. A
  transpile report's ``gate_count`` and ``global_phase`` restate that gate
  list, so they are checked against the fresh circuit written beside it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np

from qitp.cli import main
from qitp.transpile import circuit_unitary, parse_circuit_text

GOLDEN = Path(__file__).resolve().parent
SESSION = "_session.json"
REL_TOL = 1e-12
TINY = 1e-300

# A 3x3 Hamiltonian: a system that is not a power of two pads the noisy register.
_H3 = {
    "dim": 3,
    "units": "dimensionless",
    "matrix": [
        [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]],
        [[0.5, 0.0], [-1.0, 0.0], [0.0, 0.2]],
        [[0.0, 0.0], [0.0, -0.2], [0.3, 0.0]],
    ],
}
_BIG = '{"dim": 1, "units": "dimensionless", "matrix": [[[1%s, 0]]]}' % ("0" * 400)
_NOISY = ["run", "--ham", "two-neutron", "--tau", "1", "--et", "frac:0.9",
          "--noise", "0.1,0.05,0.02", "--reps", "3"]

# case name -> (input files, commands)
CASES = {
    "ham-hydrogen": ({}, [["ham", "hydrogen-sto2g", "--out", "h.json"]]),
    "ham-hydrogen-lowdin": ({}, [
        ["ham", "hydrogen-sto2g", "--zeta", "1.2", "--exponents", "0.2,1.3",
         "--orthogonalization", "lowdin", "--out", "hl.json"],
    ]),
    "ham-two-neutron": ({}, [
        ["ham", "two-neutron", "--a1=0.5", "--a2=0.1,0.2,0,0.2,0.3,0.05,0,0.05,-0.4",
         "--out", "v9.json"],
    ]),
    "run-pure-json": ({}, [
        ["run", "--ham", "hydrogen", "--tau", "60", "--et", "auto", "--shots", "8192",
         "--out", "run.json"],
    ]),
    "run-pure-csv": ({}, [
        ["run", "--ham", "hydrogen", "--tau", "5", "--et", "frac:0.9", "--reps", "3",
         "--shots", "1000", "--seed", "7", "--format", "csv", "--out", "run.csv"],
    ]),
    "run-absolute-et": ({}, [
        ["run", "--ham", "hydrogen", "--tau", "2", "--et", "-0.3", "--init", "custom:1,1j",
         "--out", "cj.json"],
    ]),
    "run-file-basis-init": ({}, [
        ["ham", "two-neutron", "--a1=0.5", "--a2=0.1,0.1,0.4", "--out", "v.json"],
        ["run", "--ham", "v.json", "--tau", "1", "--init", "basis:1", "--shots", "100",
         "--out", "vr.json"],
    ]),
    # 8 outcomes over 4 chunks of the shot stream
    "run-shots-multichunk": ({}, [
        ["ham", "two-neutron", "--a1=0.5", "--a2=0.1,0.1,0.4", "--out", "v.json"],
        ["run", "--ham", "v.json", "--tau", "1", "--init", "basis:1", "--reps", "3",
         "--shots", "200000", "--seed", "11", "--out", "vr.json"],
    ]),
    "run-noisy-json": ({}, [_NOISY +["--shots", "500", "--seed", "3", "--out", "n.json"]]),
    "run-noisy-csv": ({}, [_NOISY + ["--format", "csv", "--out", "n.csv"]]),
    "run-noisy-3x3": ({"h3.json": json.dumps(_H3)}, [
        ["run", "--ham", "h3.json", "--tau", "1", "--noise", "0.05,0.02,0.01", "--reps", "5",
         "--shots", "300", "--format", "csv", "--out", "h3.csv"],
    ]),
    "sweep-hydrogen": ({}, [["sweep-et", "--ham", "hydrogen", "--out", "sweep.csv"]]),
    # the uniform state misses the singlet ground state: the deep rows fail
    "sweep-failed-row": ({}, [
        ["ham", "two-neutron", "--out", "v.json"],
        ["sweep-et", "--ham", "v.json", "--fractions", "0.5,1.0,1.5", "--taus", "1,5,20",
         "--out", "s.csv"],
    ]),
    "transpile-hydrogen": ({}, [
        ["transpile", "--ham", "hydrogen", "--tau", "60", "--et", "auto", "--out", "h.qasm"],
    ]),
    "transpile-one-cz": ({}, [
        ["transpile", "--ham", "hydrogen", "--tau", "60", "--et", "frac:0.1", "--out", "c.qasm"],
    ]),
    "transpile-local": ({}, [["transpile", "--ham", "hydrogen", "--tau", "0", "--out", "l.qasm"]]),
    "transpile-file": ({}, [
        ["ham", "hydrogen-sto2g", "--orthogonalization", "lowdin", "--out", "hl.json"],
        ["transpile", "--ham", "hl.json", "--tau", "5", "--et", "frac:0.9", "--out", "t.qasm"],
    ]),
    "transpile-scope-error": ({}, [
        ["transpile", "--ham", "two-neutron", "--tau", "1", "--out", "x.qasm"],
    ]),
    "run-postselection-impossible": ({}, [
        ["run", "--ham", "two-neutron", "--tau", "50", "--et", "auto", "--out", "e3.json"],
    ]),
    "run-missing-file": ({}, [["run", "--ham", "missing.json", "--tau", "1", "--out", "m.json"]]),
    "run-overflowing-fraction": ({}, [
        ["run", "--ham", "two-neutron", "--tau", "1", "--et", "frac:1.7e308", "--out", "o.json"],
    ]),
    # an integer literal beyond the float range is a configuration error
    "run-huge-integer-entry": ({"big.json": _BIG}, [
        ["run", "--ham", "big.json", "--tau", "1", "--out", "o.json"],
    ]),
    "sweep-zero-fraction": ({}, [
        ["sweep-et", "--ham", "hydrogen", "--fractions", "0", "--out", "z.csv"],
    ]),
    "ham-foreign-flag": ({}, [["ham", "hydrogen-sto2g", "--a1", "3", "--out", "x.json"]]),
    # README.md, "## Command line"
    "readme": ({}, [
        ["ham", "hydrogen-sto2g", "--out", "hydrogen.json"],
        ["ham", "two-neutron", "--a1=-0.5", "--a2=-1.5,-1.5,1.5", "--out", "spins.json"],
        ["run", "--ham", "hydrogen", "--tau", "60", "--et", "auto", "--shots", "8192",
         "--seed", "42", "--out", "run.json"],
        ["run", "--ham", "spins.json", "--tau", "1", "--et", "auto", "--init", "uniform",
         "--out", "spins_run.json"],
        ["sweep-et", "--ham", "hydrogen", "--fractions", "0.5,0.8,0.9,1.0,1.1,1.2,1.5",
         "--taus", "5,10,20", "--out", "sweep.csv"],
        ["transpile", "--ham", "hydrogen", "--tau", "60", "--et", "auto", "--out",
         "circuit.qasm"],
    ]),
}


def run_case(name: str, workdir: Path) -> dict[str, str]:
    """Run case ``name`` in the empty directory ``workdir``; return its
    record, file name -> text, ``_session.json`` included."""
    inputs, commands = CASES[name]
    for file, text in inputs.items():
        (workdir / file).write_text(text)
    session, cwd = [], os.getcwd()
    # argparse wraps its usage line to the terminal's width
    with mock.patch.dict(os.environ, COLUMNS="80"):
        os.chdir(workdir)
        try:
            for argv in commands:
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    try:
                        code = main(argv)
                    except SystemExit as exc:  # argparse rejects the command line
                        code = exc.code
                session.append({"argv": argv, "exit": code, "stderr": stderr.getvalue()})
        finally:
            os.chdir(cwd)
    record = {p.name: p.read_text() for p in sorted(workdir.iterdir()) if p.name not in inputs}
    record[SESSION] = json.dumps(session, indent=2) + "\n"
    return record


def stored(name: str) -> dict[str, str]:
    """The committed record of case ``name``; empty if there is none."""
    folder = GOLDEN / name
    if not folder.is_dir():
        return {}
    return {p.name: p.read_text() for p in sorted(folder.iterdir())}


def _close(want: float, got: float) -> bool:
    if want == got or (math.isnan(want) and math.isnan(got)):
        return True
    if abs(want) < TINY and abs(got) < TINY:
        return True
    return abs(want - got) <= REL_TOL * max(abs(want), abs(got))


def _compare_values(want, got, where: str, out: list[str]) -> None:
    if isinstance(want, dict) and isinstance(got, dict):
        if list(want) != list(got):
            out.append(f"{where}: keys {list(want)} -> {list(got)}")
            return
        for key in want:
            _compare_values(want[key], got[key], f"{where}.{key}", out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            out.append(f"{where}: length {len(want)} -> {len(got)}")
            return
        for i, (w, g) in enumerate(zip(want, got)):
            _compare_values(w, g, f"{where}[{i}]", out)
    elif type(want) is float and type(got) is float:
        if not _close(want, got):
            out.append(f"{where}: {want!r} -> {got!r}")
    elif type(want) is not type(got) or want != got:
        out.append(f"{where}: {want!r} -> {got!r}")


_INT = re.compile(r"-?\d+")
_SEPARATORS = re.compile(r"([,= ])")


def _compare_text(want: str, got: str, where: str, out: list[str]) -> None:
    """Line by line and cell by cell, split at ',', '=' and ' ': float cells
    by tolerance, every other cell and every separator exactly."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        out.append(f"{where}: {len(want_lines)} lines -> {len(got_lines)}")
        return
    for n, (wl, gl) in enumerate(zip(want_lines, got_lines), 1):
        wc, gc = _SEPARATORS.split(wl), _SEPARATORS.split(gl)
        if len(wc) != len(gc):
            out.append(f"{where}:{n}: {wl!r} -> {gl!r}")
            continue
        for w, g in zip(wc, gc):
            if w == g:
                continue
            try:
                floats = not (_INT.fullmatch(w) or _INT.fullmatch(g)) and _close(float(w), float(g))
            except ValueError:
                floats = False
            if not floats:
                out.append(f"{where}:{n}: {w!r} -> {g!r}")


def _compare_circuits(want: str, got: str, where: str, out: list[str]) -> None:
    a, b = parse_circuit_text(want), parse_circuit_text(got)
    if (a.qubit_count, a.cz_count()) != (b.qubit_count, b.cz_count()):
        out.append(
            f"{where}: {a.qubit_count} qubits, {a.cz_count()} cz -> "
            f"{b.qubit_count} qubits, {b.cz_count()} cz"
        )
        return
    miss = float(np.max(np.abs(circuit_unitary(a) - circuit_unitary(b))))
    if miss > REL_TOL:
        out.append(f"{where}: circuit unitary moved by {miss:.3e}")


def compare(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """Every difference between two records beyond the module's tolerances,
    one line each; empty when they agree."""
    out = []
    if sorted(want) != sorted(got):
        out.append(f"files {sorted(want)} -> {sorted(got)}")
    for file in sorted(set(want) & set(got)):
        w, g = want[file], got[file]
        if file.endswith(".qasm"):
            _compare_circuits(w, g, file, out)
        elif file.endswith(".json"):
            w, g = json.loads(w), json.loads(g)
            if file.endswith(".qasm.report.json") and file[:-12] in got:
                circuit = parse_circuit_text(got[file[:-12]])
                restated = {"gate_count": len(circuit.gates), "global_phase": circuit.global_phase}
                for key, value in restated.items():
                    if g.get(key) != value:
                        out.append(f"{file}.{key}: {g.get(key)!r}, but the circuit has {value!r}")
                    elif key in w:
                        w[key] = value
            _compare_values(w, g, file, out)
        else:
            _compare_text(w, g, file, out)
    return out
