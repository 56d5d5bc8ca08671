"""The command line: one table of each parser's arguments, parse_args, which
reads argv against it in one walk, and help_text, which renders the help from
the same table."""

import sys
from types import SimpleNamespace

from . import __version__
from .statfn import DEFAULT_LEVEL


class UsageError(Exception):
    pass


# The command line, as one table: each parser's arguments, the top level's
# under None, in the order its help lists them, as name: (kind, default,
# required, help). A name without dashes is a positional argument. The kind
# is float, a tuple of choices, str for a file, None for a flag (its default
# False), or _HELP or _VERSION, which print and exit 0 when given.
_HELP, _VERSION = "help", "version"
_DESCRIPTION = "Reverse-Bayes evidence assessment toolkit"
_SHOW_HELP = ("--help", (_HELP, None, False, "show this help message and exit"))
_COMMANDS = {"meta": "fixed-effect meta-analysis of a study table",
             "ancred": "Analysis of Credibility",
             "bf": "Bayes-factor credibility analysis",
             "fpr": "false positive risk bounds"}
_ARGUMENTS = {
    None: dict([_SHOW_HELP,
                ("--version", (_VERSION, None, False, "show program's version number and exit")),
                ("--level", (float, DEFAULT_LEVEL, False,
                             f"confidence/credibility level (default {DEFAULT_LEVEL})")),
                ("--json", (None, False, False, "emit the deterministic JSON report")),
                ("--scale", (("log", "or"), "log", False,
                             "display scale for meta's effects (default log)")),
                ("command", (tuple(_COMMANDS), None, True, None))]),
    "meta": dict([_SHOW_HELP,
                  ("file", (str, None, True,
                            "CSV with header id,events_t,n_t,events_c,n_c or id,estimate,se"))]),
    "ancred": dict([_SHOW_HELP,
                    ("--estimate", (float, None, False, "log OR point estimate")),
                    ("--se", (float, None, False, "standard error")),
                    ("--lower", (float, None, False, "CI lower limit (log OR)")),
                    ("--upper", (float, None, False, "CI upper limit (log OR)")),
                    ("--rate", (float, None, False, "event rate for the equivalent prior trial"))]),
    "bf": dict([_SHOW_HELP,
                ("--estimate", (float, None, True, None)),
                ("--se", (float, None, True, None)),
                ("--gamma", (float, 1.0 / 10.0, False, "Bayes factor cut-off (default 1/10)")),
                ("--mode", (("sceptical", "advocacy", "ic"), "sceptical", False, None))]),
    "fpr": dict([_SHOW_HELP,
                 ("--p", (float, None, True, "two-sided p-value")),
                 ("--fpr", (float, 0.05, False, "target false positive risk (default 0.05)")),
                 # "all" and CalibrationKind's values, literal so that parsing loads no fpr
                 ("--calibration", (("all", "local_z", "simple_z", "e_p_log_p", "e_q_log_q",
                                     "els_all_priors"), "all", False, None)),
                 ("--fpr-equals-p", (None, False, False, "bound Pr(H0) under the claim FPR = p")),
                 ("--grid", (None, False, False,
                             "also emit plot data over a log-spaced p grid"))]),
}


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The arguments of a command line, read in one walk over argv, with the
    names and values argparse gave them: the global options before the
    subcommand and its own after it, each as --name value, --name=value or a
    unique prefix of its name, the last of a repeated option winning. A
    malformed command raises UsageError with argparse's message; -h or
    --help prints the help and --version the version, and both exit 0."""
    values: dict = {}
    extras: list = []   # unknown options and surplus positionals, in argv order
    start = _walk(argv, 0, None, values, extras)
    _walk(argv, start, values["command"], values, extras)
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _walk(argv: list[str], i: int, command: str | None, values: dict, extras: list) -> int:
    """Read argv from i on as the arguments of `command` (None: the top
    level) into values, under their dest names; an unknown option, and a
    positional past the last, go to extras. The top level stops after its
    positional, the subcommand; the index after it is returned. A `--` ends
    a subcommand's options, and is itself surplus where it takes no
    positional, as in argparse."""
    arguments = _ARGUMENTS[command]
    positionals = [name for name in arguments if name[0] != "-"]
    values.update((_dest(name), default) for name, (kind, default, required, _) in
                  arguments.items() if not required and kind is not _HELP and kind is not _VERSION)
    ended, takes_positional = False, bool(positionals)
    while i < len(argv):
        item = argv[i]
        i += 1
        if item == "--" and command is not None and not ended:
            ended = True
            if not takes_positional:
                extras.append(item)
            continue
        found = None if ended or item == "--" else _option(item, arguments)
        if found is None:   # a positional
            if not positionals:
                extras.append(item)
                continue
            name = positionals.pop(0)
            values[name] = _convert(name, arguments[name][0], item)
            if command is None:
                return i
            continue
        name, value = found
        if not name:
            extras.append(item)
            continue
        kind = arguments[name][0]
        if kind is None or kind is _HELP or kind is _VERSION:   # takes no value
            if value is not None:
                raise UsageError(f"argument {'-h/--help' if kind is _HELP else name}: "
                                 f"ignored explicit argument {value!r}")
            if kind is None:
                values[_dest(name)] = True
                continue
            if kind is _HELP:
                sys.stdout.write(help_text(command))
            else:
                sys.stdout.write(__version__ + "\n")
            raise SystemExit(0)
        if value is None:
            if i == len(argv) or argv[i] == "--" or _option(argv[i], arguments) is not None:
                raise UsageError(f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        values[_dest(name)] = _convert(name, kind, value)
    missing = [name for name, (_, _, required, _) in arguments.items()
               if required and _dest(name) not in values]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    return i


def _option(item: str, arguments: dict) -> tuple[str, str | None] | None:
    """The option an item of argv names and its =value (None without one),
    or None for a positional or a value. An option is named in full or by a
    unique prefix of its long name; an item that starts with "-" and names
    none is an unknown option, named "", unless it is "-", a negative number
    or holds a space."""
    if item[:1] != "-" or item == "-":
        return None
    name, eq, value = item.partition("=")
    if name == "-h":   # the one short option
        name = "--help"
    elif name not in arguments and name[:2] == "--":
        matches = [key for key in arguments if key.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {item} could match {', '.join(matches)}")
        name = matches[0] if matches else ""
    if name in arguments:
        return name, value if eq else None
    return None if _decimal(item[1:]) or " " in item else ("", None)


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _convert(name: str, kind, text: str):
    """text as the value of argument `name`, of kind float, str or a tuple of
    choices. A float is spelled as _is_number takes it."""
    if kind is float:
        if not _is_number(text):
            raise UsageError(f"argument {name}: invalid float value: {text!r}")
        return float(text)
    if kind is not str and text not in kind:
        raise UsageError(f"argument {name}: invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, kind))})")
    return text


def _is_number(text: str) -> bool:
    r"""Whether text is [-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)? or inf, infinity or
    nan after an optional sign, in ASCII and any case: each of these float()
    takes. Its other spellings (underscores, blanks around, non-ASCII digits)
    are refused."""
    body = text[1:] if text[:1] in ("-", "+") else text
    return _decimal(body) or (body.isascii() and body.lower() in ("inf", "infinity", "nan"))


def _decimal(text: str) -> bool:
    r"""Whether text is (\d+\.?\d*|\.\d+)([eE][-+]?\d+)? in ASCII digits; after a
    "-", argparse's pattern of a negative number."""
    mantissa, e, exponent = text.replace("E", "e").partition("e")
    whole, _, fraction = mantissa.partition(".")
    if exponent[:1] in ("-", "+"):
        exponent = exponent[1:]
    return text.isascii() and (whole + fraction).isdigit() and (exponent.isdigit() or not e)


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
