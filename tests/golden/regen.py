"""Rewrite the golden corpus and print every field that moved.

    PYTHONPATH=src python tests/golden/regen.py

Runs every case of corpus.CASES, compares each fresh record with the
committed one (corpus.compare), prints each difference, then writes the
fresh record over the case's folder. Each demo's stdout is recorded the
same way (corpus.compare_demo) in tests/golden/demos/. A record that is
byte-identical is left untouched; exit status 0 means no record was
rewritten. A change that regenerates the corpus names each moved
field it prints in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from corpus import (
    CASES,
    DEMO_RECORDS,
    DEMOS,
    GOLDEN,
    compare,
    compare_demo,
    run_case,
    run_demo,
    stored,
    stored_demo,
)


def main() -> int:
    rewritten = 0
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            fresh = run_case(name, Path(tmp))
        old = stored(name)
        if fresh == old:
            continue
        rewritten += 1
        moved = (compare(old, fresh) or ["bytes only; every field within tolerance"]) if old else ["new case"]
        print(f"{name}: rewritten" + "".join(f"\n  {line}" for line in moved))
        folder = GOLDEN / name
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir()
        for file, text in fresh.items():
            (folder / file).write_text(text)
    known = set(CASES) | {DEMO_RECORDS.name, "__pycache__"}
    for folder in sorted(p for p in GOLDEN.iterdir() if p.is_dir() and p.name not in known):
        rewritten += 1
        print(f"{folder.name}: removed, no longer a case")
        shutil.rmtree(folder)
    DEMO_RECORDS.mkdir(exist_ok=True)
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as tmp:
            result = run_demo(demo, Path(tmp))
        if result.returncode:
            print(f"{demo.name}: exit {result.returncode}, not recorded\n{result.stderr}")
            return 2
        old = stored_demo(demo.stem)
        if result.stdout == old:
            continue
        rewritten += 1
        moved = (compare_demo(demo.stem, old, result.stdout) or ["bytes only"]) if old else ["new demo"]
        print(f"demos/{demo.stem}.txt: rewritten" + "".join(f"\n  {line}" for line in moved))
        (DEMO_RECORDS / f"{demo.stem}.txt").write_text(result.stdout)
    names = {f"{demo.stem}.txt" for demo in DEMOS}
    for path in sorted(p for p in DEMO_RECORDS.iterdir() if p.name not in names):
        rewritten += 1
        print(f"demos/{path.name}: removed, no longer a demo")
        path.unlink()
    print(f"{rewritten} of {len(CASES) + len(DEMOS)} records rewritten")
    return 1 if rewritten else 0


if __name__ == "__main__":
    sys.exit(main())
