"""Committed mutation checks: each catalogued mutant must make its tests fail.

Run from anywhere with ``python tools/mutants.py``.  The catalog,
``tools/mutants.json``, lists mutants; each gives a ``file`` (relative to the
repository root), an ``old`` text that occurs in that file exactly once, the
``new`` text that replaces it, and the pytest ids of the ``tests`` that must
fail once it is in.

The script copies ``src/``, ``tests/``, ``bench/*.py`` (the tests load
``bench/gen.py``), ``instances/`` and ``pyproject.toml`` into a temporary
directory.  It first runs every named test there unmutated, and they must
pass.  Then it applies one mutant at a time, runs only that mutant's tests
(``-x -q``) and restores the file.  A mutant is killed when a test fails
(pytest exit 1) and survives when every test passes.

Exit status: 0 when every mutant is killed; 1 when one survives, its ``old``
text is not found exactly once, the unmutated tests do not pass, or pytest
ends a run any other way (an error in collection, say).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOG = Path(__file__).resolve().with_name("mutants.json")


def copy_tree(dest: Path) -> None:
    """The files the tests read, copied under ``dest``."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in ("src", "tests", "instances"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    (dest / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy2(path, dest / "bench" / path.name)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def pytest(tree: Path, tests: list[str]) -> subprocess.CompletedProcess:
    """Run ``tests`` in ``tree`` against its own ``src``: no bytecode is
    written, so a mutant of the same size and second as its original is
    never read from a stale cache."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)


def last_line(run: subprocess.CompletedProcess) -> str:
    lines = (run.stdout + run.stderr).strip().splitlines()
    return lines[-1] if lines else f"pytest exit {run.returncode}"


def main() -> int:
    catalog = json.loads(CATALOG.read_text(encoding="utf-8"))
    failures = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        every = sorted({test for mutant in catalog for test in mutant["tests"]})
        baseline = pytest(tree, every)
        if baseline.returncode != 0:
            print(f"unmutated tests do not pass: {last_line(baseline)}")
            print(baseline.stdout)
            return 1
        for mutant in catalog:
            name, path = mutant["name"], tree / mutant["file"]
            source = path.read_text(encoding="utf-8")
            found = source.count(mutant["old"])
            if found != 1:
                print(f"ERROR     {name}: old text found {found} times in {mutant['file']}")
                failures += 1
                continue
            path.write_text(source.replace(mutant["old"], mutant["new"]), encoding="utf-8")
            try:
                run = pytest(tree, mutant["tests"])
            finally:
                path.write_text(source, encoding="utf-8")
            if run.returncode == 1:
                print(f"killed    {name}: {last_line(run)}")
            else:
                verdict = "survived" if run.returncode == 0 else "ERROR   "
                print(f"{verdict}  {name}: {last_line(run)}")
                failures += 1
    print(f"{len(catalog) - failures} of {len(catalog)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
