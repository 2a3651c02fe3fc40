"""Outside-in tracer: spans around calls into qitp's public functions.

Nothing inside qitp is edited. Each traced function is replaced at every
module binding that holds it: its own module's globals (so internal calls
such as kak_decompose -> circuit_unitary are seen), the names `qitp.cli`
and other modules imported, the `qitp` package namespace, and the
`HermitianOperator.from_matrix` classmethod. A span is
[name, start, end, parent, job, error, note]; spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TRACED = (
    "linalg.from_matrix",
    "hamiltonians.load_hamiltonian",
    "hamiltonians.hydrogen_sto2g",
    "hamiltonians.two_neutron_sd",
    "dilation.build_dilation",
    "simulate.run_itp",
    "simulate.apply_step",
    "simulate.postselect_ancilla0",
    "simulate.energy_expectation",
    "simulate.state_fidelity",
    "simulate.apply_channel",
    "simulate.readout_confusion",
    "simulate.sample_shots",
    "transpile.kak_decompose",
    "transpile.kak_coefficients",
    "transpile.decompose_1q",
    "transpile.circuit_unitary",
    "transpile.emit_circuit_text",
    "transpile.parse_circuit_text",
    "cli.main",
)

NAME, START, END, PARENT, JOB, ERROR, NOTE = range(7)


def _shots(args, kwargs, result):
    return args[1] if len(args) > 1 else kwargs["shots"]


def _circuit_size(args, kwargs, result):
    return len(result.gates), result.cz_count()


NOTES = {"simulate.sample_shots": _shots, "transpile.kak_decompose": _circuit_size}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.bindings: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function; self.bindings counts the bindings replaced."""
        from qitp.linalg import HermitianOperator

        modules = [m for n, m in sys.modules.items() if n == "qitp" or n.startswith("qitp.")]
        for name in TRACED:
            if name == "linalg.from_matrix":
                wrapped = self.wrap(name, HermitianOperator.from_matrix.__func__)
                HermitianOperator.from_matrix = classmethod(wrapped)
                self.bindings[name] = 1
                continue
            module, attr = name.split(".")
            original = getattr(sys.modules[f"qitp.{module}"], attr)
            wrapped = self.wrap(name, original, NOTES.get(name))
            self.bindings[name] = 0
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self.bindings[name] += 1

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def summarize(spans, jobs: int, job_seconds: float, kind_of) -> tuple[dict, dict]:
    """Per-layer metrics and a printable breakdown from one traced run.

    ``jobs`` is the number of traced jobs, ``job_seconds`` their summed
    latency and ``kind_of(job)`` the input kind of a job id. Self time is a
    span's duration minus the durations of its direct children (calls are
    nested and sequential, so the children never overlap).
    """
    n = len(spans)
    child = [0.0] * n
    in_kak = [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p >= 0:
            child[p] += s[END] - s[START]
            in_kak[i] = in_kak[p] or spans[p][NAME] == "transpile.kak_decompose"
    calls = dict.fromkeys(TRACED, 0)
    self_s = dict.fromkeys(TRACED, 0.0)
    incl_s = dict.fromkeys(TRACED, 0.0)
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += s[END] - s[START] - child[i]
        incl_s[s[NAME]] += s[END] - s[START]

    def named(name, kak_only=False):
        return [s for i, s in enumerate(spans) if s[NAME] == name and (in_kak[i] or not kak_only)]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls_per_job"] = calls[name] / jobs
        metrics[f"{name}.self_ms_per_job"] = 1000.0 * self_s[name] / jobs
    post = named("simulate.postselect_ancilla0")
    failed = sum(1 for s in post if s[ERROR] == "PostselectionImpossible")
    metrics["simulate.postselect_ancilla0.failed_per_job"] = failed / jobs
    metrics["simulate.postselect_ancilla0.ok_ratio"] = ratio(len(post) - failed, len(post))
    metrics["simulate.sample_shots.shots_per_job"] = (
        sum(s[NOTE] for s in named("simulate.sample_shots")) / jobs
    )
    decomps = [s for s in named("transpile.kak_decompose") if s[NOTE] is not None]
    kak_coeff = named("transpile.kak_coefficients", kak_only=True)
    metrics["transpile.kak_coefficients.calls_per_decompose"] = ratio(len(kak_coeff), len(decomps))
    metrics["transpile.circuit_unitary.calls_per_decompose"] = ratio(
        len(named("transpile.circuit_unitary", kak_only=True)), len(decomps)
    )
    metrics["transpile.gates_per_circuit"] = ratio(sum(s[NOTE][0] for s in decomps), len(decomps))
    metrics["transpile.cz_per_circuit"] = ratio(sum(s[NOTE][1] for s in decomps), len(decomps))

    per_kind = {}
    for s in decomps:
        per_kind.setdefault(kind_of(s[JOB]), [0, 0])[0] += 1
    for s in kak_coeff:
        per_kind.setdefault(kind_of(s[JOB]), [0, 0])[1] += 1
    # Haar inputs alone: the three-CZ sign-pattern search is what repeats the KAK
    haar_decomps, haar_calls = per_kind.get("haar", (0, 0))
    metrics["transpile.kak_coefficients.calls_per_decompose.haar"] = ratio(haar_calls, haar_decomps)
    cu_in_kak = sum(s[END] - s[START] for s in named("transpile.circuit_unitary", kak_only=True))
    breakdown = {
        "self_share_of_job_time": {
            name: ratio(self_s[name], job_seconds) for name in TRACED if calls[name]
        },
        "circuit_unitary_share_of_kak_decompose": ratio(
            cu_in_kak, incl_s["transpile.kak_decompose"]
        ),
        "kak_coefficients_calls_per_decompose_by_kind": {
            kind: ratio(k, d) for kind, (d, k) in sorted(per_kind.items())
        },
        "apply_channel_share_of_run_itp": ratio(
            incl_s["simulate.apply_channel"], incl_s["simulate.run_itp"]
        ),
        "build_dilation_share_of_cli_main": ratio(
            incl_s["dilation.build_dilation"], incl_s["cli.main"]
        ),
        "spans": n,
    }
    return metrics, breakdown
