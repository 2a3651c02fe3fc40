"""Rewrite the golden corpus and print every field that moved.

    PYTHONPATH=src python tests/golden/regen.py

Runs every case of corpus.CASES, compares each fresh record with the
committed one (corpus.compare), prints each difference, then writes the
fresh record over the case's folder. A case whose record agrees within the
tolerances and is byte-identical is left untouched; exit status 0 means no
case was rewritten. A change that regenerates the corpus names each moved
field it prints in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from corpus import CASES, GOLDEN, compare, run_case, stored


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
    known = set(CASES) | {"__pycache__"}
    for folder in sorted(p for p in GOLDEN.iterdir() if p.is_dir() and p.name not in known):
        rewritten += 1
        print(f"{folder.name}: removed, no longer a case")
        shutil.rmtree(folder)
    print(f"{rewritten} of {len(CASES)} cases rewritten")
    return 1 if rewritten else 0


if __name__ == "__main__":
    sys.exit(main())
