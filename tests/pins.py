"""SHA-256 pins of what the CLI prints, held in pinned_outputs.json.

A pinned test is named in that file, with the digest of each command it runs
through `run`, in the order it runs them. A command's digest is taken over
its argv, exit code, stdout and stderr, with the test's temporary directory
written as the token <tmp>. The file also records the Python and glibc
versions that wrote it, since the bytes depend on the interpreter's repr
and on libm. `python tests/repin.py` rewrites it.
"""

import hashlib
import json
import pathlib
import platform

PATH = pathlib.Path(__file__).with_name("pinned_outputs.json")
TMP = "<tmp>"


def here() -> dict:
    """The Python and glibc versions of this interpreter."""
    return {"python": platform.python_version(), "glibc": platform.libc_ver()[1]}


def load() -> dict:
    return json.loads(PATH.read_text(encoding="utf-8"))


def digest(command: str, code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([command, code, out, err]).encode("utf-8")).hexdigest()


def moved(runs: list, pinned: list) -> list[str]:
    """Each run whose digest differs from its pin, as '#index: command', and
    one line for each pin past the last run."""
    lines = [f"#{i}: revbayes {command}" for i, (command, sha) in enumerate(runs)
             if i >= len(pinned) or sha != pinned[i]]
    return lines + [f"#{i}: pinned, but not run" for i in range(len(runs), len(pinned))]


def platform_change(pins: dict) -> str | None:
    """What differs between the versions that wrote `pins` and this one, or None."""
    now = here()
    if {key: pins[key] for key in now} == now:
        return None
    return (f"pinned on Python {pins['python']}, glibc {pins['glibc']}; this is "
            f"Python {now['python']}, glibc {now['glibc']}")


def check(name: str, runs: list, pins: dict) -> str | None:
    """Why `runs`, the (command, digest) pairs of pinned test `name`, fail
    their pins, or None where every digest holds."""
    lines = moved(runs, pins["tests"][name])
    if not lines:
        return None
    head = [f"{len(lines)} of {len(runs)} commands of {name} moved from {PATH.name} "
            f"(rewrite it with python tests/repin.py):"]
    if change := platform_change(pins):
        head.insert(0, change)
    more = [f"... and {len(lines) - 20} more"] if len(lines) > 20 else []
    return "\n".join(head + lines[:20] + more)


class Recorder:
    """A pytest plugin that takes the pinned tests' runs, by test name, in
    place of checking them: repin.py writes them to the file."""

    def __init__(self):
        self.runs: dict[str, list] = {}
