"""The help of the command line, rendered from the table in `options` of arguments.
Only -h and --help import this module, so no other process compiles it."""

from .options import _ARGUMENTS, _COMMANDS, _DESCRIPTION, _HELP, _VERSION, _dest


def help_text(command: str | None) -> str:
    """The help of the top level (None) or of a subcommand, in argparse's
    layout for 80 columns: the usage, the description, then each section's
    arguments with their help from column 24 at most."""
    prog = "revbayes" if command is None else f"revbayes {command}"
    optional, positional, sections = [], [], {"positional arguments:": [], "options:": []}
    for name, (kind, _, required, text) in _ARGUMENTS[command].items():
        metavar = "{" + ",".join(kind) + "}" if type(kind) is tuple else _dest(name).upper()
        if name[0] != "-":
            invocation = metavar if type(kind) is tuple else name
            positional.append(invocation + " ..." if name == "command" else invocation)
            sections["positional arguments:"].append((2, invocation, text))
            if name == "command":
                sections["positional arguments:"] += [(4, sub, line)
                                                      for sub, line in _COMMANDS.items()]
            continue
        if kind is _HELP:
            invocation, part = "-h, --help", "-h"
        elif kind is None or kind is _VERSION:
            invocation = part = name
        else:
            invocation = part = f"{name} {metavar}"
        optional.append(part if required else f"[{part}]")
        sections["options:"].append((2, invocation, text))
    rows = [row for section in sections.values() for row in section]
    column = min(max(indent + len(invocation) for indent, invocation, _ in rows) + 2, 24)
    lines = [*_usage(prog, optional, positional), ""]
    if command is None:
        lines += [_DESCRIPTION, ""]
    for title, section in sections.items():
        if section:
            lines.append(title)
            for indent, invocation, text in section:
                lead = " " * indent + invocation
                if text is None:
                    lines.append(lead)
                elif len(lead) + 2 <= column:
                    lines.append(lead.ljust(column) + text)
                else:
                    lines += [lead, " " * column + text]
            lines.append("")
    return "\n".join(lines)


def _usage(prog: str, optional: list[str], positional: list[str]) -> list[str]:
    """The usage lines, as argparse wraps them at 78 columns: on one line if
    it fits, else the optional parts after the program and the positional
    ones from a new line, each line filled at the indent of the first part."""
    line = " ".join(["usage:", prog, *optional, *positional])
    if len(line) <= 78:
        return [line]
    indent = " " * len(f"usage: {prog}")
    lines = []
    for line, parts in ((f"usage: {prog}", optional), (indent, positional)):
        for k, part in enumerate(parts):
            if len(line) + 1 + len(part) > 78 and (k or line != indent):
                lines.append(line)
                line = indent
            line += " " + part
        if parts:
            lines.append(line)
    return lines
