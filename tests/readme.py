"""The README's CLI transcript, parsed with the standard library alone, so
that tests/other_pythons.py replays it under an interpreter without pytest."""

import pathlib
import re
import shlex

ROOT = pathlib.Path(__file__).resolve().parents[1]


def readme_cli_block() -> list[tuple[list[str], int | None, str]]:
    """Each `$ revbayes` line of the README's CLI block: its argv, the n of
    a `| head -n` after it (None without one), and the text shown under it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```console\n", 1)[1].split("```", 1)[0]
    examples = []
    for command, shown in re.findall(r"^\$ revbayes (.*)\n((?:(?!\$ ).*\n)*)", block, re.M):
        command, _, head = command.partition(" | head -")
        examples.append((shlex.split(command, comments=True), int(head) if head else None,
                         shown))
    return examples
