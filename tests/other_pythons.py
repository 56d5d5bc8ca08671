"""Run the tier-1 tests under each Python 3.12 or later that pyenv holds, and
print one pass/fail line per interpreter.

    python tests/other_pythons.py

Run it from the repository root with the interpreter whose pytest, hypothesis
and mpmath the tests use. The interpreters it finds under
~/.pyenv/versions/3.1[2-9]* have no test packages of their own, so each runs
the tier-1 command with this interpreter's site-packages after src/ on
PYTHONPATH; those packages are pure Python. A Python 3.10 there is named as
unverified: the pytest here imports exceptiongroup, which 3.10's standard
library lacks and its site-packages does not hold. Exits 1 if any run fails.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
VERSIONS = pathlib.Path.home() / ".pyenv" / "versions"
# the tier-1 command of ROADMAP.md, after the interpreter
TIER_1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def main() -> int:
    site_packages = str(pathlib.Path(pytest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), site_packages])}
    failed = 0
    for python in sorted(VERSIONS.glob("3.10*/bin/python")):
        print(f"{python.parents[1].name}: unverified (pytest needs exceptiongroup, "
              f"which Python 3.10 lacks)")
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
