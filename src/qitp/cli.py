"""Command-line front end: build Hamiltonians, run, sweep, transpile.

Subcommands:

    qitp ham hydrogen-sto2g --zeta 1.2 --orthogonalization lowdin --out h.json
    qitp ham two-neutron --a1 1.0 --a2 0.1,0.1,0.4 --out v.json
    qitp run --ham hydrogen --tau 60 --et auto --shots 8192 --out run.json
    qitp sweep-et --ham v.json --fractions 0.5,0.8,1.0 --taus 5,10,20 --out sweep.csv
    qitp transpile --ham h.json --tau 60 --et auto --out circuit.qasm

``--ham`` takes a Hamiltonian JSON path or a preset equal to its builder's
defaults: ``hydrogen`` (the STO-2G exponents at zeta = 1, canonical
orthogonalization) or ``two-neutron`` (a1 = 1 MeV, a2 = 0). Other builder
parameters reach ``run``, ``sweep-et`` and ``transpile`` only through a file
written by ``qitp ham``.

All outputs are deterministic given (config, seed): running a command twice
produces byte-identical files. Exit codes: 0 success, 2 configuration
error, 3 post-selection impossible (trial energy below the ground energy, or
an initial state with almost no weight at or below the trial energy),
4 transpile scope error (system is not a single qubit).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dilation import ItpParams, build_dilation
from .errors import PostselectionImpossible, QitpError
from .hamiltonians import (
    STO2G_EXPONENTS,
    SpinCouplings,
    hydrogen_sto2g,
    load_hamiltonian,
    save_hamiltonian,
    two_neutron_sd,
)
from .simulate import (
    NoiseParams,
    basis_labels,
    normalized_state,
    run_itp,
    spectral_run,
)
from .transpile import (
    circuit_unitary,
    emit_circuit_text,
    kak_decompose,
    process_fidelity,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_POSTSELECTION = 3
EXIT_TRANSPILE_SCOPE = 4


def _parse_floats(text: str, count: int | None = None) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from exc
    if count is not None and len(values) != count:
        raise ValueError(f"expected {count} comma-separated numbers, got {text!r}")
    return values


def _resolve_hamiltonian(source: str):
    """The --ham flag: a builder preset name or a Hamiltonian JSON path."""
    if source == "hydrogen":
        return hydrogen_sto2g()[0]
    if source == "two-neutron":
        return two_neutron_sd(SpinCouplings(a1=1.0, a2=np.zeros((3, 3))))
    return load_hamiltonian(source)


def _parse_a2(text: str) -> np.ndarray:
    values = _parse_floats(text)
    if len(values) == 3:
        return np.diag(values)
    if len(values) == 9:
        return np.array(values).reshape(3, 3)
    raise ValueError("--a2 takes 3 (diagonal) or 9 (row-major) numbers")


def _fraction_energy(fraction: float, op) -> float:
    """E_T = fraction * E0, the sweep protocol; the fraction must be finite and
    > 0, and the product finite."""
    if not (np.isfinite(fraction) and fraction > 0):
        raise ValueError(f"fraction must be finite and > 0, got {fraction}")
    et = fraction * op.ground_energy
    if not np.isfinite(et):
        raise ValueError(f"fraction {fraction} times E0 = {op.ground_energy} overflows")
    return et


def _trial_energy(text: str, op) -> float:
    """The --et flag: 'auto' (E0), 'frac:<x>' (x * E0), or an absolute E_T."""
    if text == "auto":
        return op.ground_energy
    if text.startswith("frac:"):
        try:
            fraction = float(text[5:])
        except ValueError as exc:
            raise ValueError(f"bad --et fraction: {text!r}") from exc
        return _fraction_energy(fraction, op)
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"--et must be 'auto', 'frac:<x>', or a number") from exc


def _parse_initial_state(text: str, dim: int) -> np.ndarray:
    if text == "uniform":
        return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    if text.startswith("basis:"):
        try:
            k = int(text[6:])
        except ValueError as exc:
            raise ValueError(f"bad --init basis index: {text!r}") from exc
        if not 0 <= k < dim:
            raise ValueError(f"basis index {k} out of range for dim {dim}")
        state = np.zeros(dim, dtype=complex)
        state[k] = 1.0
        return state
    if text.startswith("custom:"):
        try:
            amps = np.array([complex(part) for part in text[7:].split(",")])
        except ValueError as exc:
            raise ValueError(f"bad --init amplitudes: {text!r}") from exc
        if amps.size != dim:
            raise ValueError(f"expected {dim} amplitudes, got {amps.size}")
        return normalized_state(amps)
    raise ValueError("--init must be 'uniform', 'basis:<k>', or 'custom:<amps>'")


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_ham_hydrogen(args) -> int:
    exponents = STO2G_EXPONENTS if args.exponents is None else _parse_floats(args.exponents, 2)
    op, _, _ = hydrogen_sto2g(exponents, args.zeta, orthogonalization=args.orthogonalization)
    provenance = {
        "builder": "hydrogen-sto2g",
        "exponents": list(exponents),
        "slater_zeta": args.zeta,
        "orthogonalization": args.orthogonalization,
    }
    save_hamiltonian(op, args.out, provenance)
    return EXIT_OK


def cmd_ham_two_neutron(args) -> int:
    couplings = SpinCouplings(a1=args.a1, a2=_parse_a2(args.a2))
    provenance = {
        "builder": "two-neutron",
        "a1": couplings.a1,
        "a2": [[float(v) for v in row] for row in couplings.a2],
    }
    save_hamiltonian(two_neutron_sd(couplings), args.out, provenance)
    return EXIT_OK


def _record_to_json(record, config_echo: dict) -> str:
    ext_labels = basis_labels(record.system_dim)
    sys_labels = [str(i) for i in range(record.system_dim)]
    doc = {
        "tool": "qitp",
        "version": __version__,
        "config": config_echo,
        "extended_probs": {
            label: float(p) for label, p in zip(ext_labels, record.extended_probs)
        },
        "postselect_prob": float(record.postselect_prob),
        "normalized_probs": {
            label: float(p) for label, p in zip(sys_labels, record.normalized_probs)
        },
        "energy": float(record.energy),
        "shot_counts": {
            label: int(c) for label, c in zip(ext_labels, record.shot_counts)
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _record_to_csv(record, reps: int) -> str:
    lines = [
        f"# tool=qitp version={__version__}",
        f"# postselect_prob={_fmt(record.postselect_prob)}",
        f"# energy={_fmt(record.energy)}",
        f"# repetitions_completed={reps}",
        "label,extended_prob,normalized_prob,shot_count",
    ]
    labels = basis_labels(record.system_dim)
    n = record.system_dim
    for i, label in enumerate(labels):
        norm = _fmt(record.normalized_probs[i]) if i < n else ""
        lines.append(
            f"{label},{_fmt(record.extended_probs[i])},{norm},{int(record.shot_counts[i])}"
        )
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    op = _resolve_hamiltonian(args.ham)
    et = _trial_energy(args.et, op)
    params = ItpParams(args.tau, trial_energy=et)
    psi0 = _parse_initial_state(args.init, op.dim)
    noise = None if args.noise is None else NoiseParams(*_parse_floats(args.noise, 3))
    record = run_itp(
        op,
        params,
        psi0,
        repetitions=args.reps,
        shots=args.shots,
        seed=args.seed,
        noise=noise,
    )
    config_echo = {
        "ham": args.ham,
        "tau": args.tau,
        "et": args.et,
        "trial_energy": et,
        "init": args.init,
        "reps": args.reps,
        "shots": args.shots,
        "seed": args.seed,
        "noise": args.noise,
        "units": op.units,
    }
    if args.format == "json":
        Path(args.out).write_text(_record_to_json(record, config_echo))
    else:
        Path(args.out).write_text(_record_to_csv(record, args.reps))
    return EXIT_OK


def cmd_sweep_et(args) -> int:
    op = _resolve_hamiltonian(args.ham)
    fractions = _parse_floats(args.fractions) if args.fractions else []
    taus = _parse_floats(args.taus) if args.taus else []
    ets = [_fraction_energy(f, op) for f in fractions]
    psi0 = _parse_initial_state(args.init, op.dim)
    rows = spectral_run(op, np.reshape(taus, (-1, 1)), ets, psi0, 1)
    heads = [f"{_fmt(t)},{_fmt(f)},{_fmt(et)}" for t in taus for f, et in zip(fractions, ets)]
    lines = ["tau,et_fraction,et_value,p0,energy,fidelity_to_ground,failed"]
    for head, p0, energy, weight, failed in zip(heads, *rows[:4]):
        tail = ",,,1" if failed else f",{_fmt(energy)},{_fmt(weight)},0"
        lines.append(f"{head},{_fmt(p0)}{tail}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_transpile(args) -> int:
    op = _resolve_hamiltonian(args.ham)
    if op.dim != 2:
        print(
            f"transpile supports the two-qubit extended space only "
            f"(system dim 2, got {op.dim})",
            file=sys.stderr,
        )
        return EXIT_TRANSPILE_SCOPE
    et = _trial_energy(args.et, op)
    u = build_dilation(op, ItpParams(args.tau, trial_energy=et))
    circuit = kak_decompose(u.matrix)
    fidelity = process_fidelity(u.matrix, circuit_unitary(circuit))
    Path(args.out).write_text(emit_circuit_text(circuit))
    report = {
        "cz_count": circuit.cz_count(),
        "fidelity": fidelity,
        "global_phase": circuit.global_phase,
        "gate_count": len(circuit.gates),
        "tau": args.tau,
        "trial_energy": et,
    }
    report_path = args.report or (args.out + ".report.json")
    Path(report_path).write_text(json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qitp",
        description="Imaginary-time propagation via unitary dilation: "
        "build, run, sweep, transpile.",
    )
    parser.add_argument("--version", action="version", version=f"qitp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ham = sub.add_parser("ham", help="build a Hamiltonian JSON file")
    builders = p_ham.add_subparsers(dest="builder", required=True)
    p_hyd = builders.add_parser("hydrogen-sto2g", help="hydrogen in the STO-2G primitives")
    p_hyd.add_argument("--zeta", type=float, default=1.0)
    p_hyd.add_argument("--exponents", help="two comma-separated Gaussian exponents")
    p_hyd.add_argument(
        "--orthogonalization", choices=["canonical", "lowdin"], default="canonical"
    )
    p_hyd.add_argument("--out", required=True)
    p_hyd.set_defaults(func=cmd_ham_hydrogen)
    p_nn = builders.add_parser("two-neutron", help="two-neutron spin interaction")
    p_nn.add_argument("--a1", type=float, default=1.0, help="vector coupling (MeV)")
    p_nn.add_argument(
        "--a2", default="0,0,0", help="tensor coupling: 3 or 9 comma-separated MeV values"
    )
    p_nn.add_argument("--out", required=True)
    p_nn.set_defaults(func=cmd_ham_two_neutron)

    p_run = sub.add_parser("run", help="run the imaginary-time loop")
    p_run.add_argument("--ham", required=True, help="'hydrogen', 'two-neutron', or a JSON path")
    p_run.add_argument("--tau", type=float, required=True)
    p_run.add_argument("--et", default="auto", help="'auto', 'frac:<x>', or a number")
    p_run.add_argument("--init", default="uniform")
    p_run.add_argument("--reps", type=int, default=1)
    p_run.add_argument("--shots", type=int, default=0)
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument(
        "--noise", help="gamma,lambda,epsilon: damping and dephasing per step, readout flip once"
    )
    p_run.add_argument("--format", choices=["json", "csv"], default="json")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep-et", help="trial-energy robustness sweep")
    p_sweep.add_argument("--ham", required=True)
    p_sweep.add_argument("--fractions", default="0.5,0.8,0.9,1.0,1.1,1.2,1.5")
    p_sweep.add_argument("--taus", default="5,10,20")
    p_sweep.add_argument("--init", default="uniform")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep_et)

    p_trans = sub.add_parser("transpile", help="compile the dilation to {rx, rz, cz}")
    p_trans.add_argument("--ham", required=True)
    p_trans.add_argument("--tau", type=float, required=True)
    p_trans.add_argument("--et", default="auto")
    p_trans.add_argument("--out", required=True)
    p_trans.add_argument("--report", help="report JSON path (default: <out>.report.json)")
    p_trans.set_defaults(func=cmd_transpile)

    return parser


# The argument tree, built on first use and shared by every main call.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PostselectionImpossible as exc:
        print(
            f"error: post-selection impossible ({exc}); the filter suppresses every "
            f"level above the trial energy, so the reservoir-0 probability tends to 0 "
            f"when the trial energy is below the ground energy (E_T < E0) or when the "
            f"initial state has almost no weight on the levels at or below E_T",
            file=sys.stderr,
        )
        return EXIT_POSTSELECTION
    except (QitpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
