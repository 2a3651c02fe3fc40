"""One benchmark process: import qitp from the checkout, warm up, run jobs.

Started by run.py in the workload's scratch directory, which holds the
generated inputs. Modes:

    setup   import qitp and run the warm-up jobs; report the time taken
    timed   setup, a closed loop of checked jobs for --seconds, job 0 repeated
    traced  as timed, with the outside-in tracer installed

One client, closed loop: the next job starts when the previous one ends.
Outputs are checked between jobs, outside the job timings. Between jobs,
at most every PROBE_EVERY_S, the loop also times a fixed calibration probe
(no qitp code) so run.py can take the machine's speed swings out of the
job times. The result is one JSON line on stdout.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy is imported: the single-thread baseline
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE_EVERY_S = 0.05  # a calibration probe before any job starting this long after the last

_CAL = np.random.default_rng(0)
_CAL_BLAS = _CAL.normal(size=(128, 128)) + 1j * _CAL.normal(size=(128, 128))
_CAL_HERM = _CAL_BLAS[:48, :48] + _CAL_BLAS[:48, :48].conj().T
_CAL_SMALL = [_CAL_BLAS[k : k + 4, k : k + 4] for k in range(0, 120, 3)]
_CAL_WORDS = np.arange(1 << 16, dtype=np.uint64)
_CAL_QASM = workloads.qasm_text(2, 0.5, [
    ("cz", (0, 1), None) if k % 5 == 4 else (("rz", "rx")[k % 2], (k % 3 % 2,), float(angle))
    for k, angle in enumerate(_CAL.uniform(-3.0, 3.0, 30))
])


def probe(workload: str) -> float:
    """Seconds for a fixed piece of work, no qitp code in it, of the kinds the
    workload does (~4 ms). Small-matrix circuit work slows down by more than
    the rest when the machine is busy, so transpile-2q gets a probe of its
    own: rebuilding a fixed circuit with the checks' gates."""
    t0 = time.perf_counter()
    if workload == "transpile-2q":
        for _ in range(4):
            workloads.qasm_matrix(_CAL_QASM)
        return time.perf_counter() - t0
    _CAL_BLAS @ _CAL_BLAS @ _CAL_BLAS
    np.linalg.eigh(_CAL_HERM)
    for m in _CAL_SMALL:
        np.kron(m[:2, :2], m[2:, 2:]) @ m
    (_CAL_WORDS * np.uint64(0x9E3779B97F4A7C15)) ^ (_CAL_WORDS >> np.uint64(7))
    total = 0
    for k in range(10000):
        total += k
    return time.perf_counter() - t0


def import_qitp():
    """qitp from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import qitp
    import qitp.cli
    import qitp.transpile

    if not Path(qitp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qitp imported from {qitp.__file__}, not from {SRC}")
    return qitp


class Jobs:
    """Runs one workload's jobs through qitp's public entry points."""

    def __init__(self, qitp, inputs: dict):
        self.qitp = qitp
        self.inputs = inputs
        self.jobs = inputs["jobs"]
        self.refs = workloads.References(inputs)

    def execute(self, job):
        """The timed part of a job: only calls into qitp."""
        if "u" in job:
            t = self.qitp.transpile
            circuit = t.kak_decompose(job["u"])
            unitary = t.circuit_unitary(circuit)
            text = t.emit_circuit_text(circuit)
            return circuit, unitary, text, t.parse_circuit_text(text)
        for argv in job["steps"]:
            code = self.qitp.cli.main(list(argv))
            if code != 0:
                raise RuntimeError(f"qitp {argv[0]} exited with code {code}")
        return None

    def collect(self, job, result) -> dict:
        """The job's output, as plain data the checks and comparisons use."""
        if result is None:
            return {name: Path(name).read_text() for name in job["outputs"]}
        circuit, unitary, text, parsed = result
        gates = [(g.kind, g.qubits, g.angle) for g in parsed.gates]
        return {
            "qasm": text,
            "parsed": (parsed.qubit_count, parsed.global_phase, gates),
            "cz": circuit.cz_count(),
            "unitary": unitary,
        }

    def check(self, job, out: dict) -> str | None:
        """What is wrong with a job's output, or None."""
        try:
            found = workloads.check(self.inputs, self.refs, job, out)
        except Exception as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        return "; ".join(found) or None

    def run(self, index: int) -> dict:
        job = self.jobs[index % len(self.jobs)]
        return self.collect(job, self.execute(job))


def _same(a: dict, b: dict) -> bool:
    """Byte-identical outputs (arrays compared by their bytes)."""
    return a.keys() == b.keys() and all(
        a[k].tobytes() == b[k].tobytes() if isinstance(a[k], np.ndarray) else a[k] == b[k]
        for k in a
    )


def load_inputs(path="inputs.json") -> dict:
    """The generated inputs, with transpile matrices decoded (not timed)."""
    inputs = json.loads(Path(path).read_text())
    for job in inputs["jobs"]:
        if "matrix" in job:
            a = np.asarray(job["matrix"], dtype=float)
            job["u"] = a[..., 0] + 1j * a[..., 1]
    return inputs


def setup(inputs: dict, trace: bool):
    """Import qitp and run one cycle of warm-up jobs; returns the pieces and seconds."""
    t0 = time.perf_counter()
    qitp = import_qitp()
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    jobs = Jobs(qitp, inputs)
    for i in range(inputs["cycle"]):
        jobs.run(i)
    return jobs, tracer, time.perf_counter() - t0


def closed_loop(jobs: Jobs, seconds: float, tracer=None) -> dict:
    """Jobs back to back until ``seconds`` have passed (at least one job).

    Each output is checked as soon as its job ends, outside the job's
    timing, and then dropped (all but job 0's), so memory does not grow
    with the number of jobs.
    """
    if tracer is not None:
        tracer.spans.clear()
    starts, ends, probes, problems = [], [], [], {}
    workload = jobs.inputs["workload"]
    first, bytes_out = None, 0
    t_begin = time.perf_counter()
    i = 0
    while True:
        if not probes or time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
            probes.append((time.perf_counter(), probe(workload)))
        job = jobs.jobs[i % len(jobs.jobs)]
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        try:
            result = jobs.execute(job)
        except Exception:
            problems[i] = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.job = None
        starts.append(t0)
        ends.append(t1)
        if i not in problems:
            out = jobs.collect(job, result)
            found = jobs.check(job, out)
            if found:
                problems[i] = found
            if i == 0:
                first = out
            if "steps" in job:  # bytes written by cli.main
                bytes_out += sum(len(text.encode()) for text in out.values())
        i += 1
        if t1 - t_begin >= seconds:
            break
    probes.append((time.perf_counter(), probe(workload)))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "starts": starts, "ends": ends, "probes": probes, "problems": problems,
        "first": first, "bytes_out": bytes_out, "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def verify_repeat(jobs: Jobs, loop: dict) -> dict:
    """Repeat job 0, require byte-identical output, and count the failures."""
    try:
        same = loop["first"] is not None and _same(jobs.run(0), loop["first"])
    except Exception:
        same = False
    problems = dict(loop["problems"])
    if not same:
        problems["repeat"] = "job 0 repeated at the end gave different output"
    return {
        "attempted": len(loop["starts"]) + 1,
        "failed": len(problems),
        "problems": [f"job {k}: {v}" for k, v in list(problems.items())[:5]],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    args = ap.parse_args(argv)
    inputs = load_inputs()
    jobs, tracer, setup_s = setup(inputs, args.mode == "traced")
    probes = [probe(inputs["workload"]) for _ in range(3)]
    report = {"setup_s": setup_s, "setup_probe_s": statistics.median(probes)}
    if args.mode != "setup":
        loop = closed_loop(jobs, args.seconds, tracer)
        if tracer is not None:
            n = len(loop["starts"])
            busy = sum(e - s for s, e in zip(loop["starts"], loop["ends"]))
            kinds = [job["kind"] for job in jobs.jobs]
            report["layers"], report["breakdown"] = tracing.summarize(
                tracer.spans, n, busy, lambda j: kinds[j % len(kinds)]
            )
            report["breakdown"]["bindings"] = tracer.bindings
            if args.spans:
                tracer.write(args.spans)
        report.update(verify_repeat(jobs, loop))
        report.update({k: loop[k] for k in ("starts", "ends", "probes", "bytes_out", "peak_rss_mb")})
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
