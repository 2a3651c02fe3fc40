"""Command-line front end: build Hamiltonians, run, sweep, transpile.

Subcommands:

    qitp ham hydrogen-sto2g --out h.json
    qitp ham two-neutron --a1 1.0 --a2 0,0,0,0,0,0,0,0,0 --out v.json
    qitp run --ham hydrogen --tau 60 --et auto --shots 8192 --out run.json
    qitp sweep-et --ham hydrogen --fractions 0.5,0.8,1.0 --taus 5,10,20 --out sweep.csv
    qitp transpile --ham hydrogen --tau 60 --et auto --out circuit.qasm

All outputs are deterministic given (config, seed): running a command twice
produces byte-identical files. Exit codes: 0 success, 2 configuration
error, 3 post-selection impossible (trial energy below the ground energy),
4 transpile scope error (system is not a single qubit).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dilation import ItpParams, build_dilation
from .errors import PostselectionImpossible, QitpError
from .hamiltonians import (
    GaussianBasis,
    SpinCouplings,
    default_hydrogen_basis,
    hamiltonian_to_dict,
    hydrogen_sto2g,
    load_hamiltonian,
    two_neutron_sd,
)
from .simulate import (
    NoiseParams,
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


class ConfigError(Exception):
    pass


def _parse_floats(text: str, count: int | None = None) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc
    if count is not None and len(values) != count:
        raise ConfigError(f"expected {count} comma-separated numbers, got {text!r}")
    return values


def _resolve_hamiltonian(args):
    """The --ham flag: a builder preset name or a Hamiltonian JSON path."""
    source = args.ham
    if source == "hydrogen":
        op, _, _ = hydrogen_sto2g()
        return op
    if source == "two-neutron":
        a2 = _parse_a2(getattr(args, "a2", None))
        op = two_neutron_sd(SpinCouplings(a1=getattr(args, "a1", 1.0), a2=a2))
        return op
    if not Path(source).exists():
        raise ConfigError(f"Hamiltonian file not found: {source}")
    return load_hamiltonian(Path(source))


def _parse_a2(text: str | None) -> np.ndarray:
    if text is None:
        return np.zeros((3, 3))
    values = _parse_floats(text)
    if len(values) == 3:
        return np.diag(values)
    if len(values) == 9:
        return np.array(values).reshape(3, 3)
    raise ConfigError("--a2 takes 3 (diagonal) or 9 (row-major) numbers")


def _parse_trial(text: str) -> dict:
    if text == "auto":
        return {"trial_mode": "ground_state_exact"}
    if text.startswith("frac:"):
        try:
            fraction = float(text[5:])
        except ValueError as exc:
            raise ConfigError(f"bad --et fraction: {text!r}") from exc
        return {"trial_mode": "fraction_of_ground", "fraction": fraction}
    try:
        return {"trial_mode": "absolute", "trial_energy": float(text)}
    except ValueError as exc:
        raise ConfigError(f"--et must be 'auto', 'frac:<x>', or a number") from exc


def _parse_initial_state(text: str, dim: int) -> np.ndarray:
    if text == "uniform":
        return np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    if text.startswith("basis:"):
        try:
            k = int(text[6:])
        except ValueError as exc:
            raise ConfigError(f"bad --init basis index: {text!r}") from exc
        if not 0 <= k < dim:
            raise ConfigError(f"basis index {k} out of range for dim {dim}")
        state = np.zeros(dim, dtype=complex)
        state[k] = 1.0
        return state
    if text.startswith("custom:"):
        try:
            amps = np.array([complex(part) for part in text[7:].split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad --init amplitudes: {text!r}") from exc
        if amps.size != dim:
            raise ConfigError(f"expected {dim} amplitudes, got {amps.size}")
        return normalized_state(amps)
    raise ConfigError("--init must be 'uniform', 'basis:<k>', or 'custom:<amps>'")


def _parse_noise(text: str | None) -> NoiseParams | None:
    if text is None:
        return None
    g, lam, eps = _parse_floats(text, 3)
    try:
        return NoiseParams(amplitude_damping=g, dephasing=lam, readout_flip=eps)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: str, text: str):
    Path(path).write_text(text)


def _load_builder_config(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read builder config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"builder config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("builder config must be a JSON object")
    return doc


def cmd_ham(args) -> int:
    config = _load_builder_config(args.config) if args.config else None
    if args.builder == "hydrogen-sto2g":
        if config is None:
            default = default_hydrogen_basis()
            basis = GaussianBasis(
                tuple(_parse_floats(args.exponents, 2)) if args.exponents else default.exponents,
                tuple(_parse_floats(args.coefficients, 2))
                if args.coefficients
                else default.coefficients,
                args.zeta,
            )
        else:
            basis = GaussianBasis.from_dict(config)
        op, _, _ = hydrogen_sto2g(basis, orthogonalization=args.orthogonalization)
        provenance = {
            "builder": "hydrogen-sto2g",
            "exponents": list(basis.exponents),
            "coefficients": list(basis.coefficients),
            "slater_zeta": basis.slater_zeta,
            "orthogonalization": args.orthogonalization,
        }
    else:
        if config is None:
            couplings = SpinCouplings(a1=args.a1, a2=_parse_a2(args.a2))
        else:
            couplings = SpinCouplings.from_dict(config)
        op = two_neutron_sd(couplings)
        provenance = {
            "builder": "two-neutron",
            "a1": couplings.a1,
            "a2": [[float(v) for v in row] for row in couplings.a2],
        }
    doc = hamiltonian_to_dict(op, provenance)
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


def _record_to_json(record, config_echo: dict) -> str:
    ext_labels = record.basis_labels()
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
        "repetitions_completed": record.repetitions_completed,
    }
    return json.dumps(doc, indent=2) + "\n"


def _record_to_csv(record, config_echo: dict) -> str:
    lines = [
        f"# tool=qitp version={__version__}",
        f"# postselect_prob={_fmt(record.postselect_prob)}",
        f"# energy={_fmt(record.energy)}",
        f"# repetitions_completed={record.repetitions_completed}",
        "label,extended_prob,normalized_prob,shot_count",
    ]
    labels = record.basis_labels()
    n = record.system_dim
    for i, label in enumerate(labels):
        norm = _fmt(record.normalized_probs[i]) if i < n else ""
        lines.append(
            f"{label},{_fmt(record.extended_probs[i])},{norm},{int(record.shot_counts[i])}"
        )
    return "\n".join(lines) + "\n"


def cmd_run(args) -> int:
    op = _resolve_hamiltonian(args)
    params = ItpParams(tau=args.tau, **_parse_trial(args.et))
    psi0 = _parse_initial_state(args.init, op.dim)
    noise = _parse_noise(args.noise)
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
        "trial_energy": params.resolve_trial_energy(op),
        "init": args.init,
        "reps": args.reps,
        "shots": args.shots,
        "seed": args.seed,
        "noise": args.noise,
        "units": op.units,
    }
    if args.format == "json":
        _write_text(args.out, _record_to_json(record, config_echo))
    else:
        _write_text(args.out, _record_to_csv(record, config_echo))
    return EXIT_OK


def cmd_sweep_et(args) -> int:
    op = _resolve_hamiltonian(args)
    fractions = _parse_floats(args.fractions) if args.fractions else []
    taus = _parse_floats(args.taus) if args.taus else []
    if any(f <= 0 for f in fractions):
        raise ConfigError("fractions must be positive")
    psi0 = _parse_initial_state(args.init, op.dim)
    lines = ["tau,et_fraction,et_value,p0,energy,fidelity_to_ground,failed"]
    for tau in taus:
        for fraction in fractions:
            params = ItpParams(
                tau=tau, trial_mode="fraction_of_ground", fraction=fraction
            )
            head = f"{_fmt(tau)},{_fmt(fraction)},{_fmt(params.resolve_trial_energy(op))}"
            try:
                _, p0, energy, ground_weight = spectral_run(op, params, psi0, 1)
                lines.append(f"{head},{_fmt(p0)},{_fmt(energy)},{_fmt(ground_weight)},0")
            except PostselectionImpossible as exc:
                lines.append(f"{head},{_fmt(exc.probability)},,,1")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_transpile(args) -> int:
    op = _resolve_hamiltonian(args)
    if op.dim != 2:
        print(
            f"transpile supports the two-qubit extended space only "
            f"(system dim 2, got {op.dim})",
            file=sys.stderr,
        )
        return EXIT_TRANSPILE_SCOPE
    params = ItpParams(tau=args.tau, **_parse_trial(args.et))
    u = build_dilation(op, params)
    circuit = kak_decompose(u.matrix)
    fidelity = process_fidelity(u.matrix, circuit_unitary(circuit))
    _write_text(args.out, emit_circuit_text(circuit))
    report = {
        "cz_count": circuit.cz_count(),
        "fidelity": fidelity,
        "global_phase": circuit.global_phase,
        "gate_count": len(circuit.gates),
        "tau": args.tau,
        "trial_energy": params.resolve_trial_energy(op),
    }
    report_path = args.report or (args.out + ".report.json")
    _write_text(report_path, json.dumps(report, indent=2) + "\n")
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
    p_ham.add_argument("builder", choices=["hydrogen-sto2g", "two-neutron"])
    p_ham.add_argument("--zeta", type=float, default=1.0)
    p_ham.add_argument("--exponents", help="two comma-separated Gaussian exponents")
    p_ham.add_argument("--coefficients", help="two comma-separated contraction coefficients")
    p_ham.add_argument(
        "--orthogonalization", choices=["canonical", "lowdin"], default="canonical"
    )
    p_ham.add_argument("--a1", type=float, default=1.0, help="vector coupling (MeV)")
    p_ham.add_argument("--a2", help="tensor coupling: 3 or 9 comma-separated MeV values")
    p_ham.add_argument(
        "--config", help="JSON file with the builder's fields (overrides the flags)"
    )
    p_ham.add_argument("--out", required=True)

    p_run = sub.add_parser("run", help="run the imaginary-time loop")
    p_run.add_argument("--ham", required=True, help="'hydrogen', 'two-neutron', or a JSON path")
    p_run.add_argument("--tau", type=float, required=True)
    p_run.add_argument("--et", default="auto", help="'auto', 'frac:<x>', or a number")
    p_run.add_argument("--init", default="uniform")
    p_run.add_argument("--reps", type=int, default=1)
    p_run.add_argument("--shots", type=int, default=0)
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument("--noise", help="gamma,lambda,epsilon per-step channel strengths")
    p_run.add_argument("--a1", type=float, default=1.0)
    p_run.add_argument("--a2")
    p_run.add_argument("--format", choices=["json", "csv"], default="json")
    p_run.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep-et", help="trial-energy robustness sweep")
    p_sweep.add_argument("--ham", required=True)
    p_sweep.add_argument("--fractions", default="0.5,0.8,0.9,1.0,1.1,1.2,1.5")
    p_sweep.add_argument("--taus", default="5,10,20")
    p_sweep.add_argument("--init", default="uniform")
    p_sweep.add_argument("--a1", type=float, default=1.0)
    p_sweep.add_argument("--a2")
    p_sweep.add_argument("--out", required=True)

    p_trans = sub.add_parser("transpile", help="compile the dilation to {rx, rz, cz}")
    p_trans.add_argument("--ham", required=True)
    p_trans.add_argument("--tau", type=float, required=True)
    p_trans.add_argument("--et", default="auto")
    p_trans.add_argument("--out", required=True)
    p_trans.add_argument("--report", help="report JSON path (default: <out>.report.json)")

    return parser


_COMMANDS = {
    "ham": cmd_ham,
    "run": cmd_run,
    "sweep-et": cmd_sweep_et,
    "transpile": cmd_transpile,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PostselectionImpossible as exc:
        print(
            f"error: post-selection impossible ({exc}); this is the failure mode "
            f"of a trial energy below the ground energy (E_T < E0), where the "
            f"reservoir-0 probability tends to 0",
            file=sys.stderr,
        )
        return EXIT_POSTSELECTION
    except (ConfigError, QitpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
