"""The benchmark tracer (bench/tracer.py) looks up each name in its TRACED
list with getattr when it installs, so a qitp function renamed or deleted
without updating that list would crash every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from qitp.linalg import HermitianOperator

ROOT = Path(__file__).resolve().parents[1]


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_traced_names_are_qitp_callables():
    names = traced_names()
    assert names
    for name in names:
        module, attr = name.split(".")
        # the tracer wraps this one on the class, not on its module
        owner = HermitianOperator if name == "linalg.from_matrix" else importlib.import_module(
            f"qitp.{module}"
        )
        assert callable(getattr(owner, attr, None)), name
