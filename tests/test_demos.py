"""Every narrative demo runs to completion and prints its recorded output
(tests/golden/demos/), and README's library quickstart prints the values its
comments quote."""

import re

import numpy as np
import pytest

from golden.corpus import DEMOS, ERROR_BOUND, ROOT, compare_demo, run_demo, stored_demo


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr
    want = stored_demo(demo.stem)
    assert want, f"no committed record for {demo.name}; run tests/golden/regen.py"
    assert compare_demo(demo.stem, want, result.stdout) == []


_GATES = stored_demo("transpile_to_gates")
_ERROR = re.search(r"max-entry error  : (\S+)", _GATES).group(1)
_ANGLE = re.search(r"^rx\(([^)]+)\)", _GATES, re.M).group(1)  # the first rx angle


def _edit(old: str, new: str):
    def edit(text: str) -> str:
        assert text.count(old) == 1 and new != old
        return text.replace(old, new)
    return edit


# (mutation, demo, edit, whether compare_demo must report it)
MUTATIONS = [
    ("one digit", "noise_effects", _edit("0.03990", "0.03991"), True),
    ("a sign", "two_neutron_spins", _edit("[-5.  1.  1.  3.]", "[ 5.  1.  1.  3.]"), True),
    ("a line split", "repetition_convergence", _edit(" 12     -4.995016", " 12\n     -4.995016"), True),
    ("gate count", "transpile_to_gates", _edit("12 gates", "13 gates"), True),
    ("fidelity digit", "transpile_to_gates", _edit("1.000000000000000", "0.999999999999999"), True),
    ("occupation digit", "transpile_to_gates", _edit("gates 0.535614", "gates 0.535615"), True),
    ("error below the bound", "transpile_to_gates", _edit(_ERROR, "9.99e-13"), False),
    ("error at the bound", "transpile_to_gates", _edit(_ERROR, f"{ERROR_BOUND:.2e}"), True),
    ("error line's text", "transpile_to_gates", _edit("(phase included)", "(phase dropped)"), True),
    ("angle +1e-15", "transpile_to_gates", _edit(_ANGLE, repr(float(_ANGLE) + 1e-15)), False),
    ("angle +1e-9", "transpile_to_gates", _edit(_ANGLE, repr(float(_ANGLE) + 1e-9)), True),
    # two more CZs leave the circuit unitary as it was
    ("two more CZs", "transpile_to_gates",
     _edit("qreg q[2];\n", "qreg q[2];\ncz q[0],q[1];\ncz q[0],q[1];\n"), True),
    ("QASM block dropped", "transpile_to_gates", _edit("OPENQASM 2.0;\n", ""), True),
]


@pytest.mark.parametrize("demo, edit, reported", [m[1:] for m in MUTATIONS],
                         ids=[m[0] for m in MUTATIONS])
def test_demo_comparator_on_a_mutated_record(demo, edit, reported):
    want = stored_demo(demo)
    assert bool(compare_demo(demo, want, edit(want))) == reported


def _quickstart_block() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_replays():
    """Runs README's library quickstart; each ``expr  # value`` line must print
    its commented numbers at their written precision."""
    namespace, checked = {}, 0
    for line in _quickstart_block().splitlines():
        code, _, comment = line.partition("#")
        if not comment or not code.strip().startswith("record."):
            exec(line, namespace)
            continue
        quoted = re.findall(r"-?\d+\.\d+", comment.split("==")[0])
        got = np.atleast_1d(eval(code, namespace))
        assert len(quoted) == got.size, line
        for want, value in zip(quoted, got):
            decimals = len(want.split(".")[1])
            assert f"{value:.{decimals}f}" == want, (line, value)
        checked += 1
    assert checked == 3
