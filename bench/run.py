"""The qitp benchmark: one workload, measured end to end and layer by layer.

    python3 bench/run.py --workload sweep-dim64 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; qitp is imported from its src/. The
workloads (see workloads.py and BENCHMARK.json) are closed loops with one
client in one fresh process: the next job starts when the previous one
ends. Every input is generated from --seed.

With --trace 0 the result carries the end-to-end metrics, measured with
tracing off:

    setup_s         median over fresh processes of import qitp + warm-up jobs
    jobs_per_s      median over chunks of whole input cycles of jobs / busy time
    latency_p50_ms  median job latency
    latency_tail_ms the highest percentile with at least 10 jobs beyond it
    peak_rss_mb     peak resident memory of the timed process

Times are scaled to a nominal machine speed. On a small shared machine the
speed of the same code swings by 30% and more for seconds at a time, far
beyond any bound worth having. So the worker also times a fixed
calibration probe that runs no qitp code (worker.probe) every 50 ms, and
each job's latency (and each setup time) is multiplied by PROBE_S over the
mean probe time around it. Code changes cannot move the probe, so they
move the scaled times as they move the real ones. The unscaled values are
printed beside the scaled ones and kept in the result record.

With --trace 1 it also makes a separate traced run and the result carries
the per-layer metrics (see tracer.py; their times are as measured, not
scaled) and trace.overhead_frac, the traced run's slowdown against the
untraced one. Either way every output is
checked with numpy formulas independent of qitp; failed_frac (failed /
attempted) is printed and carried by the result's `failed` and `attempted`.

A human-readable report comes first on stdout; the last line is the JSON
result. BLAS/OpenMP are pinned to one thread. Files go to bench/out/.
"""

from __future__ import annotations

import worker  # first: pins BLAS/OpenMP threads before numpy is imported

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the timed worker included
CHUNKS = 10  # jobs_per_s is the median rate over about this many chunks
TAIL_BEYOND = 10  # latency_tail_ms leaves this many jobs beyond it
PROBE_S = 0.005  # nominal calibration-probe time that job times are scaled to
PROBE_WINDOW_S = 0.5  # probes this close to a job set its speed factor
WORKER_TIMEOUT_S = 60.0  # on top of the run's own --seconds

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms_per_job"):
        return "ms"
    if name.endswith("bytes_out_per_job"):
        return "bytes"
    if name.endswith(("ok_ratio", "overhead_frac")):
        return "ratio"
    return "count"


def per_layer_names() -> list:
    names = [f"{f}.{m}" for f in tracer.TRACED for m in ("calls_per_job", "self_ms_per_job")]
    return names + [
        "simulate.postselect_ancilla0.failed_per_job",
        "simulate.postselect_ancilla0.ok_ratio",
        "simulate.sample_shots.shots_per_job",
        "transpile.kak_coefficients.calls_per_decompose",
        "transpile.kak_coefficients.calls_per_decompose.haar",
        "transpile.circuit_unitary.calls_per_decompose",
        "transpile.gates_per_circuit",
        "transpile.cz_per_circuit",
        "cli.main.bytes_out_per_job",
        "trace.overhead_frac",
    ]


class BenchmarkError(Exception):
    pass


def call_worker(workdir: Path, mode: str, seconds: float = 0.0, spans=None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--mode", mode, "--seconds", repr(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(
            cmd, cwd=workdir, stdout=subprocess.PIPE, text=True,
            timeout=seconds + WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchmarkError(f"{mode} worker printed no result") from exc


def latencies_s(run: dict) -> list:
    """Job latencies scaled to the probe's nominal speed.

    Each job's factor is PROBE_S over the mean probe time within
    PROBE_WINDOW_S of the job; the machine's speed swings last seconds.
    """
    times = [t for t, _ in run["probes"]]
    durations = [d for _, d in run["probes"]]
    out = []
    for start, end in zip(run["starts"], run["ends"]):
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
        out.append((end - start) * PROBE_S / statistics.fmean(durations[lo:hi]))
    return out


def jobs_per_s(lat: list, cycle: int) -> tuple[float, int, int]:
    """Median rate over chunks of whole input cycles: (rate, chunk jobs, chunks)."""
    size = cycle * max(1, len(lat) // (cycle * CHUNKS))
    rates = [size / sum(lat[k : k + size]) for k in range(0, len(lat) - size + 1, size)]
    if not rates:
        return len(lat) / sum(lat), len(lat), 1
    return statistics.median(rates), size, len(rates)


def tail_latency(lat: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND jobs beyond."""
    xs = sorted(lat)
    k = max(0, len(xs) - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / len(xs)


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qitp").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        sha = git.stdout.strip() if git.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown (git unavailable)"
    return {
        "threads": {var: os.environ[var] for var in worker.THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = workloads.make_inputs(workload, seed)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.write_inputs(inputs, workdir)
        setups = [call_worker(workdir, "setup") for _ in range(SETUP_SAMPLES - 1)]
        timed = call_worker(workdir, "timed", seconds)
        setups.append(timed)
        traced = None
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
            traced = call_worker(workdir, "traced", seconds, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cycle = inputs["cycle"]
    lat = latencies_s(timed)
    rate, chunk, chunks = jobs_per_s(lat, cycle)
    tail, pct = tail_latency(lat)
    raw_lat = [e - s for s, e in zip(timed["starts"], timed["ends"])]
    attempted = timed["attempted"] + (traced["attempted"] if traced else 0)
    failed = timed["failed"] + (traced["failed"] if traced else 0)
    e2e = {
        "setup_s": statistics.median(s["setup_s"] * PROBE_S / s["setup_probe_s"] for s in setups),
        "jobs_per_s": rate,
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_tail_ms": 1000.0 * tail,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    unscaled = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "jobs_per_s": len(raw_lat) / (timed["ends"][-1] - timed["starts"][0]),
        "latency_p50_ms": 1000.0 * statistics.median(raw_lat),
        "latency_tail_ms": 1000.0 * tail_latency(raw_lat)[0],
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "jobs_per_s": f"median of {chunks} chunks of {chunk} jobs",
        "latency_p50_ms": f"median of {len(lat)} jobs",
        "latency_tail_ms": f"p{pct:.2f}: {TAIL_BEYOND} of {len(lat)} jobs beyond",
        "peak_rss_mb": "timed worker process",
    }
    result = {
        "workload": workload, "why": workloads.WHY[workload], "seconds": seconds,
        "environment": environment(seed), "end_to_end": e2e, "notes": notes,
        "unscaled": unscaled, "probe_ms": [1000.0 * d for _, d in timed["probes"]],
        "failed_frac": failed / attempted, "attempted": attempted, "failed": failed,
        "problems": timed["problems"] + (traced["problems"] if traced else []),
    }
    if traced:
        traced_rate, _, _ = jobs_per_s(latencies_s(traced), cycle)
        layers = dict(traced["layers"])
        layers["cli.main.bytes_out_per_job"] = traced["bytes_out"] / len(traced["starts"])
        layers["trace.overhead_frac"] = rate / traced_rate - 1.0
        result.update(per_layer=layers, breakdown=traced["breakdown"],
                      traced_jobs=len(traced["starts"]))
    return result


def report(result: dict, trace: bool) -> None:
    print(f"qitp benchmark: workload={result['workload']} seconds={result['seconds']} "
          f"trace={int(trace)}  ({result['why']})")
    print("environment: " + json.dumps(result["environment"]))
    print("end-to-end metrics (tracing off; unscaled = before taking out machine speed):")
    for name, value in result["end_to_end"].items():
        print(f"  {name:<16} {value:>14.6g} {END_TO_END[name]:<4} "
              f"unscaled {result['unscaled'][name]:<10.6g} {result['notes'][name]}")
    print(f"  {'failed_frac':<16} {result['failed_frac']:>14.6g} {'1':<4} "
          f"{result['failed']} of {result['attempted']} attempted jobs failed")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    if not trace:
        return
    print(f"per-layer metrics (traced run, {result['traced_jobs']} jobs):")
    for name in per_layer_names():
        print(f"  {name:<50} {result['per_layer'][name]:>14.6g} {layer_unit(name)}")
    b = result["breakdown"]
    print("self time as a share of traced job time:")
    for name, share in sorted(b["self_share_of_job_time"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:<32} {100.0 * share:6.1f}%")
    print("attribution of the ROADMAP baseline rows (where this workload reaches them):")
    for key in ("circuit_unitary_share_of_kak_decompose", "apply_channel_share_of_run_itp",
                "build_dilation_share_of_cli_main"):
        if b[key]:
            print(f"  {key.replace('_', ' '):<42} {100 * b[key]:.1f}%")
    for kind, calls in b["kak_coefficients_calls_per_decompose_by_kind"].items():
        print(f"  kak_coefficients calls per decompose, {kind:<8} {calls:.3f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qitp benchmark: one workload, one seed.")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qitp" / "__init__.py").is_file():
        print(f"error: no qitp sources under {ROOT / 'src'}; run from a qitp checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    trace = bool(args.trace)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=2) + "\n")
    report(result, trace)
    if trace:
        metrics = {n: {"value": result["per_layer"][n], "unit": layer_unit(n)}
                   for n in per_layer_names()}
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in result["end_to_end"].items()}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
