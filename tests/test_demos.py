"""Every narrative demo runs to completion against the installed package, and
README's library quickstart prints the values its comments quote."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        # the same warning filter pyproject.toml sets for in-process tests
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


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
