"""Run the tier-1 tests under each Python 3.12 or later that pyenv holds, replay
the README's CLI transcript under each Python 3.10, and print one pass/fail
line per interpreter.

    python tests/other_pythons.py

Run it from the repository root with the interpreter whose pytest, hypothesis
and mpmath the tests use. The interpreters it finds under
~/.pyenv/versions/3.1[2-9]* have no test packages of their own, so each runs
the tier-1 command with this interpreter's site-packages after src/ on
PYTHONPATH; those packages are pure Python. The pytest here imports
exceptiongroup, which 3.10's standard library lacks and its site-packages does
not hold, so a Python 3.10 instead runs each `$ revbayes` line of the README's
CLI block as `python -m revbayes`, keeps the first n lines where the README
pipes it to `head -n`, and compares the output with the README's, byte for
byte. Exits 1 if any run fails.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from readme import ROOT, readme_cli_block

VERSIONS = pathlib.Path.home() / ".pyenv" / "versions"
# the tier-1 command of ROADMAP.md, after the interpreter
TIER_1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def replay_readme(python: pathlib.Path) -> list[str]:
    """The README commands whose exit code is not 0 under python, or whose
    output differs from the README's."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    failed = []
    for argv, head, shown in readme_cli_block():
        proc = subprocess.run([str(python), "-m", "revbayes", *argv], cwd=ROOT, env=env,
                              capture_output=True)
        out = b"".join(proc.stdout.splitlines(keepends=True)[:head])
        if proc.returncode != 0 or out != shown.encode("utf-8"):
            failed.append(" ".join(argv))
    return failed


def main() -> int:
    site_packages = str(pathlib.Path(pytest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), site_packages])}
    failed = 0
    for python in sorted(VERSIONS.glob("3.10*/bin/python")):
        moved = replay_readme(python)
        detail = "".join("; differs: " + argv for argv in moved)
        print(f"{python.parents[1].name}: {'FAIL' if moved else 'pass'} "
              f"(README transcript, {len(readme_cli_block())} commands{detail})")
        failed += bool(moved)
    for python in sorted(VERSIONS.glob("3.1[2-9]*/bin/python")):
        proc = subprocess.run([str(python), *TIER_1], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        summary = (proc.stdout.strip().splitlines() or ["no output"])[-1]
        print(f"{python.parents[1].name}: {'pass' if proc.returncode == 0 else 'FAIL'} "
              f"({summary})")
        failed += proc.returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
