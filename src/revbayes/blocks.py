"""The rows of a report's Table, written from its columns a block at a time, as
report.render_json describes. Only `meta` and `fpr --grid` render a Table, so
report imports this module when it first meets one, and no other run compiles it."""

import functools
import math
from itertools import repeat
from operator import is_

from .report import Table, _json_float, _texts, _value_texts, encode_basestring_ascii

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
