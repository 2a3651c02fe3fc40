"""Replay the golden output corpus (tests/golden/) and check its comparator.

Each case re-runs its CLI session in-process and must match the committed
record within corpus.compare's tolerances. After an intended output change,
``PYTHONPATH=src python tests/golden/regen.py`` rewrites the corpus and
prints every field that moved.
"""

import json

import pytest

from golden.corpus import CASES, compare, run_case, stored


@pytest.mark.parametrize("name", list(CASES))
def test_replay_matches_corpus(name, tmp_path):
    want = stored(name)
    assert want, f"no committed record for {name}; run tests/golden/regen.py"
    assert compare(want, run_case(name, tmp_path)) == []


def _replace(old: str, new: str):
    """An edit of a record file that replaces the one occurrence of ``old``."""
    def edit(text: str) -> str:
        assert text.count(old) == 1 and new != old
        return text.replace(old, new)
    return edit


def _scale(old: str, factor: float):
    return _replace(old, repr(float(old) * factor))


_ANGLE = "1.9673135061714984"  # an rx angle of transpile-hydrogen/h.qasm

# (mutation, case, file, edit, whether compare must report it)
MUTATIONS = [
    ("JSON float +2e-12", "readme", "run.json", _scale("0.535613683465857", 1 + 2e-12), True),
    ("JSON float -2e-12", "readme", "run.json", _scale("0.535613683465857", 1 - 2e-12), True),
    ("JSON float +5e-13", "readme", "run.json", _scale("0.535613683465857", 1 + 5e-13), False),
    ("JSON float -5e-13", "readme", "run.json", _scale("0.535613683465857", 1 - 5e-13), False),
    ("CSV cell +2e-12", "readme", "sweep.csv", _scale("0.9972920158238207", 1 + 2e-12), True),
    ("CSV cell +5e-13", "readme", "sweep.csv", _scale("0.9972920158238207", 1 + 5e-13), False),
    ("CSV header float +2e-12", "run-noisy-3x3", "h3.csv",
     _scale("-1.0144295528742275", 1 + 2e-12), True),
    ("CSV empty cell filled", "sweep-failed-row", "s.csv", _replace("-3.0,4.248354255291589e-18,,",
                                                                    "-3.0,4.248354255291589e-18,0.5,"), True),
    ("JSON key renamed", "readme", "run.json", _replace('"postselect_prob"', '"postselection_prob"'), True),
    ("shot count changed", "readme", "run.json", _replace('"01": 1404', '"01": 1405'), True),
    ("exit code changed", "run-missing-file", "_session.json", _replace('"exit": 2', '"exit": 3'), True),
    ("stderr changed", "run-missing-file", "_session.json", _replace("cannot read", "can not read"), True),
    # two more CZs leave the circuit unitary as it was
    ("CZ count changed", "transpile-hydrogen", "h.qasm",
     _replace("cz q[0],q[1];\nrx(0.78", "cz q[0],q[1];\ncz q[0],q[1];\ncz q[0],q[1];\nrx(0.78"), True),
    ("angle +1e-15", "transpile-hydrogen", "h.qasm", _replace(_ANGLE, repr(float(_ANGLE) + 1e-15)), False),
    ("angle +1e-9", "transpile-hydrogen", "h.qasm", _replace(_ANGLE, repr(float(_ANGLE) + 1e-9)), True),
    ("report gate_count off its circuit", "transpile-hydrogen", "h.qasm.report.json",
     _replace('"gate_count": 12', '"gate_count": 13'), True),
    ("report global_phase off its circuit", "transpile-hydrogen", "h.qasm.report.json",
     _replace("1.5707963267948966", repr(1.5707963267948966 + 1e-15)), True),
]


@pytest.mark.parametrize("case, file, edit, reported", [m[1:] for m in MUTATIONS],
                         ids=[m[0] for m in MUTATIONS])
def test_comparator_on_a_mutated_record(case, file, edit, reported):
    want = stored(case)
    got = dict(want, **{file: edit(want[file])})
    assert bool(compare(want, got)) == reported


def test_comparator_values_below_1e_300_agree():
    want = {"a.json": json.dumps({"p": 1e-305})}
    assert compare(want, {"a.json": json.dumps({"p": 2e-301})}) == []
    assert compare(want, {"a.json": json.dumps({"p": 2e-299})})


def test_comparator_file_set_is_exact():
    want = stored("run-postselection-impossible")
    assert compare(want, dict(want, **{"e3.json": "{}\n"}))
    assert compare(want, {k: v for k, v in want.items() if k != "_session.json"})
