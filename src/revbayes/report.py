"""The machine-readable report of every subcommand: its envelope, the input
digest, the estimate block and the JSON writer with its Table block writers,
so that no runner imports the cli for them."""

import functools
import math
import sys
from itertools import repeat
from operator import add, is_, mul, sub, truediv

try:   # the json package's C encoder, without importing the package and its decoder
    from _json import encode_basestring_ascii
except ImportError:   # an interpreter built without _json
    from json.encoder import encode_basestring_ascii

from .statfn import alpha_for_level, critical_z, exp_or_inf_column, two_sided_p_column


def envelope(args, results: dict, fields: dict | None, warnings: list) -> dict:
    """The report of a run of args.command: its results and warnings, and
    the digest of its input, the study file's where fields is None."""
    return {"command": args.command, "input_digest": _input_digest(args, fields),
            "results": results, "warnings": warnings}


def _input_digest(args, fields: dict | None) -> str | None:
    """sha256 of the study file, or of fields as canonical JSON. Only --json
    prints it, so a text run never computes it. The standard library's own
    module hashes it, _sha2 from Python 3.12 and _sha256 before, as `random`
    takes _sha512, since hashlib would load OpenSSL's libcrypto to hash a few
    bytes."""
    if not args.json:
        return None
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:   # an interpreter built without it
        from hashlib import sha256
    if fields is None:
        with open(args.file, "rb") as fh:
            data = fh.read()
    else:   # json.dumps(fields, sort_keys=True) of the flat dict, NaN and Infinity too
        texts = [encode_basestring_ascii(key) + ": " + (
                     float.__repr__(value).replace("inf", "Infinity").replace("nan", "NaN")
                     if type(value) is float else _JSON_SCALARS[type(value)](value))
                 for key, value in sorted(fields.items())]
        data = ("{" + ", ".join(texts) + "}").encode("utf-8")
    return sha256(data).hexdigest()


def _json_float(x: float) -> str:
    text = float.__repr__(x)
    return text if math.isfinite(x) else f'"{text}"'


_JSON_SCALARS = {str: encode_basestring_ascii, float: _json_float, int: int.__repr__,
                 bool: {True: "true", False: "false"}.__getitem__,
                 type(None): lambda _: "null"}


def render_json(value) -> str:
    """`value` as strict RFC 8259 JSON, with the bytes of
    json.dumps(value, sort_keys=True, indent=2) for every finite value, a
    Table written as the list of its rows.

    json.dumps is not used: given an indent, the standard library drops its
    C encoder for a pure-Python generator chain, which spends most of a
    10 000-study `meta` report. One walker, _texts, lays out the dicts and
    lists of both the value and a Table's row layout. A Table declares
    which slots of its rows share a column, so that is not inferred from the
    rows' key sets, lengths and float identities: the walk over its layout
    gives the literal pieces between its slots, and table_texts writes
    the table _BLOCK rows at a time, each column of a block formatted once,
    however many slots share it. A block is one list of texts, the row layout's
    pieces repeated for each row, into which each slot's column texts go by
    one strided slice assignment, and one join: no tuple or call per row.
    write_json writes each text as the walker yields it. A non-finite float
    becomes the string of its repr ("inf", "-inf" or "nan"), where json.dumps
    would write the non-standard Infinity and NaN tokens; null keeps its
    meaning of "not applicable". Anything but a dict, list, tuple, Table,
    str, int, float, bool or None raises TypeError, as in json.dumps, and so
    does a non-str key.
    """
    return "".join(_texts(value, "\n", _value_texts))


def write_json(value, write) -> None:
    """Pass the text of render_json(value) to `write`, chunk by chunk."""
    for text in _texts(value, "\n", _value_texts):
        write(text)


class Table:
    """Rows of one layout, held as columns. `layout` is one row's dicts and
    lists with a column index at each leaf; row i holds columns[k][i] at each
    leaf k, and there are as many rows as columns[0] has items. It iterates
    as the rows it stands for and compares equal by them."""

    __slots__ = ("layout", "columns")

    def __init__(self, layout, columns: list):
        self.layout, self.columns = layout, columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        return map(functools.partial(_fill, self.layout), zip(*self.columns))

    def __eq__(self, other):
        return list(self) == other


def _fill(layout, row: tuple):
    if type(layout) is dict:
        return {key: _fill(item, row) for key, item in layout.items()}
    if type(layout) is list:
        return [_fill(item, row) for item in layout]
    return row[layout]


def _texts(value, newline: str, leaf):
    """The JSON texts of `value` at the depth of `newline`, in the order and
    layout of json.dumps(sort_keys=True, indent=2): its dicts, lists and
    tuples are laid out here, and each other item is the texts of
    leaf(item, newline)."""
    kind = type(value)
    if kind is not dict and kind is not list and kind is not tuple:
        yield from leaf(value, newline)
    elif not value:
        yield "{}" if kind is dict else "[]"
    else:
        inner = newline + "  "
        if kind is dict:
            pairs = [(encode_basestring_ascii(key) + ": ", item)
                     for key, item in sorted(value.items())]
            sep, closer = "{" + inner, "}"
        else:
            pairs, sep, closer = zip(repeat(""), value), "[" + inner, "]"
        for head, item in pairs:
            yield sep + head
            yield from _texts(item, inner, leaf)
            sep = "," + inner
        yield newline + closer


def _value_texts(value, newline: str):
    """The texts of a scalar, or of a Table as the list of its blocks."""
    kind = type(value)
    if kind is Table:
        return table_texts(value, newline)
    encode = _JSON_SCALARS.get(kind)
    if encode is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return (encode(value),)


# the columns of an estimate block, in the order estimate_columns returns them
LOG_OR, SE, Z, P, LO, HI, OR, OR_LO, OR_HI, LEVEL = range(10)
ESTIMATE = {"log_or": LOG_OR, "se": SE, "z": Z, "p": P, "ci_log": [LO, HI],
            "or": OR, "ci_or": [OR_LO, OR_HI], "level": LEVEL}


def estimate_columns(theta, se, level: float) -> list:
    """The columns of ESTIMATE for the estimates theta with standard errors se."""
    half = list(map(mul, se, repeat(critical_z(alpha_for_level(level)))))
    lo, hi = list(map(sub, theta, half)), list(map(add, theta, half))
    z = list(map(truediv, theta, se))
    return [theta, se, z, two_sided_p_column(z), lo, hi, exp_or_inf_column(theta),
            exp_or_inf_column(lo), exp_or_inf_column(hi), [level] * len(theta)]


def estimate_payload(theta: float, se: float, level: float) -> dict:
    return _fill(ESTIMATE, [column[0] for column in estimate_columns([theta], [se], level)])


# table rows per block: as fast as 256 rows, but in 24 meta-large runs peak RSS
# stayed at 58.7-59.6 MB, where 256 reached ~68 MB in 3 of 20 runs
_BLOCK = 128


def table_texts(table: Table, newline: str):
    """The texts of `table` as the list of its blocks. Its row layout is
    walked once at the blocks' depth with a NUL at each slot, which
    encode_basestring_ascii escapes anywhere else, and split there."""
    slots: list = []   # (column index, newline) of each slot
    text = "".join(_texts(table.layout, newline + "  ",
                          lambda index, depth: slots.append((index, depth)) or "\0"))
    blocks = list(range(0, len(table), _BLOCK))
    return _texts(blocks, newline, functools.partial(_block_texts, table, text.split("\0"), slots))


def _block_texts(table: Table, pieces: list, slots: list, start: int, newline: str):
    """The rows of `table` from `start` on, _BLOCK at most, as one text. Its
    texts are one list, a row of width 2 * len(slots) + 1 after another: the
    pieces of the row layout at the even places, the row led by "," and
    `newline` after the first row, as _texts separates list items at that
    depth, and slot j's column texts at place 2j + 1 of every row, written
    by one slice assignment with the row width as its step."""
    rows, width = min(_BLOCK, len(table) - start), 2 * len(slots) + 1
    row = [""] * width
    row[::2] = pieces
    row[0] = "," + newline + pieces[0]
    out = row * rows
    out[0] = pieces[0]
    formatted: dict = {}   # column index, or (index, newline) for depth-bound texts
    for place, (index, depth) in enumerate(slots):
        texts = formatted.get(index) or formatted.get((index, depth))
        if texts is None:
            texts, nested = _column_texts(table.columns[index][start:start + _BLOCK], depth)
            formatted[(index, depth) if nested else index] = texts
        out[2 * place + 1::width] = texts
    return ("".join(out),)


def _column_texts(items, newline: str) -> tuple[list, bool]:
    """The JSON texts of a block of one column, at the depth of `newline`,
    and whether they depend on that depth. A column of one object is
    formatted once, and a column of strs, or of finite floats, by one map:
    floats whose sum is finite are all finite, and a block whose sum is not,
    as where finite floats overflow it, takes _json_float item by item."""
    head = items[0]
    if head is items[-1] and all(map(is_, items, repeat(head))):
        text = "".join(_texts(head, newline, _value_texts))
        return [text] * len(items), "\n" in text
    encode = encode_basestring_ascii if type(head) is str else float.__repr__
    try:
        texts = list(map(encode, items))   # TypeError for an item of another type
    except TypeError:
        return ["".join(_texts(item, newline, _value_texts)) for item in items], True
    if encode is float.__repr__ and not math.isfinite(sum(items)):
        texts = list(map(_json_float, items))
    return texts, False
