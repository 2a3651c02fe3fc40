"""The benchmark's own tests: inputs, checks, metric names, exit behaviour.

Not collected by a plain `pytest` run (the file name does not match
test_*.py), so the tier-1 suite runs no workload. Run them with

    python3 -m pytest bench/bench_selftest.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import worker
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in workloads.WORKLOADS:
        a = json.dumps(workloads.make_inputs(name, 7))
        assert a == json.dumps(workloads.make_inputs(name, 7))
        other = workloads.make_inputs(name, 8)
        assert a != json.dumps(other)
        # a new seed changes the draws, not the mix of input kinds
        assert [j["kind"] for j in json.loads(a)["jobs"]] == [j["kind"] for j in other["jobs"]]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One job of each workload, run in-process and checked."""
    qitp = worker.import_qitp()
    runs = {}
    for name in workloads.WORKLOADS:
        workdir = tmp_path_factory.mktemp(name)
        workloads.write_inputs(workloads.make_inputs(name, 5), workdir)
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(workdir)
            jobs = worker.Jobs(qitp, worker.load_inputs())
            loop = worker.closed_loop(jobs, 0.0)
            runs[name] = (workdir, jobs, loop, worker.verify_repeat(jobs, loop))
    return runs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_is_correct(smoke, name):
    _, _, loop, report = smoke[name]
    assert len(loop["starts"]) == 1
    assert report["attempted"] == 2  # the job and its repeat
    assert report["failed"] == 0, report["problems"]


def _corrupt(out: dict, workload: str) -> dict:
    out = copy.deepcopy(out)
    if workload == "sweep-dim64":  # perturbed energy in the first kept row
        lines = out["sweep.csv"].splitlines()
        for i, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            if cells[6] == "0":
                cells[4] = repr(float(cells[4]) + 1e-6)
                lines[i] = ",".join(cells)
                break
        out["sweep.csv"] = "\n".join(lines) + "\n"
    elif workload == "noisy-dim64":  # energy pushed above the top of the spectrum
        doc = json.loads(out["run.json"])
        doc["energy"] += 100.0
        out["run.json"] = json.dumps(doc)
    elif workload == "transpile-2q":  # wrong CZ count
        out["cz"] += 1
    else:  # shifted shot count
        doc = json.loads(out["run_h.json"])
        label = next(iter(doc["shot_counts"]))
        doc["shot_counts"][label] += 1
        out["run_h.json"] = json.dumps(doc)
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_output_counts_as_failed(smoke, name, monkeypatch):
    workdir, jobs, loop, _ = smoke[name]
    assert jobs.check(jobs.jobs[0], _corrupt(loop["first"], name))
    monkeypatch.chdir(workdir)
    collect = jobs.collect
    monkeypatch.setattr(jobs, "collect", lambda job, result: _corrupt(collect(job, result), name))
    report = worker.verify_repeat(jobs, worker.closed_loop(jobs, 0.0))
    assert report["failed"] == 1
    assert report["problems"][0].startswith("job 0:")


def test_qasm_check_catches_a_dropped_cz(smoke):
    _, jobs, loop, _ = smoke["transpile-2q"]
    out = copy.deepcopy(loop["first"])
    out["qasm"] = out["qasm"].replace("cz q[0],q[1];\n", "", 1)
    assert workloads.check_transpile(jobs.jobs[0], out)


def _result(args, cwd) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metrics_are_the_benchmark_json_metrics():
    result = _result(["--workload", "transpile-2q", "--seed", "3", "--seconds", "0.05",
                      "--trace", "1"], BENCH.parent)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_benchmark_json_matches_the_code():
    # --trace 0 prints exactly run.END_TO_END; --trace 1 is run end to end above
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == run.per_layer_names()


def test_fails_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "transpile-2q",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
