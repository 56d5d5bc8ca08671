"""Rewrite tests/pinned_outputs.json from this checkout's outputs, and print
each command whose output moved.

    PYTHONPATH=src python tests/repin.py

It runs the tests that the file names, with their pins handed to a recorder
instead of checked, then writes the digest of every command they ran and
the Python and glibc versions. It leaves the file as it was if one of those
tests fails. To pin another test of test_cli.py, add its name to the file's
"tests" with an empty list and run this.
"""

import json
import sys

import pytest

import pins


def main() -> int:
    old = pins.load()
    recorder = pins.Recorder()
    test_file = pins.PATH.with_name("test_cli.py")
    status = pytest.main(["-q", "-p", "no:cacheprovider",
                          *[f"{test_file}::{name}" for name in old["tests"]]],
                         plugins=[recorder])
    if status != 0:
        print(f"a pinned test failed; {pins.PATH.name} is unchanged", file=sys.stderr)
        return 1
    if change := pins.platform_change(old):
        print(change)
    lines = [f"{name} {line}" for name in old["tests"]
             for line in pins.moved(recorder.runs[name], old["tests"][name])]
    print(*lines, f"{len(lines)} commands moved", sep="\n")
    new = {**pins.here(),
           "tests": {name: [sha for _, sha in recorder.runs[name]] for name in old["tests"]}}
    pins.PATH.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
