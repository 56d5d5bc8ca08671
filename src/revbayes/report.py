"""The report of every subcommand: its envelope, the input digest, the
estimate block, the JSON writer with its Table block writers, and the text
printer of each subcommand, so that no runner imports the cli for them."""

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


def _num(x: float, spec: str = ".2f") -> str:
    """x in `spec`, or in _cell's g form where that would take 16 characters."""
    return _cell(x, 16, spec).lstrip()


def _fmt_bf(bf: float) -> str:
    # 0 for a bf whose reciprocal overflows (bf <= 2^-1024), as the minimum
    # BFs do at |z| beyond ~37.7
    if bf <= 2.0 ** -1024:
        return "0"
    if bf < 1.0:
        return f"1/{1.0 / bf:.3g}"
    return f"{bf:.3g}"


def _fmt_gamma(gamma: float) -> str:
    # the cut-off is an input, so it is named where _fmt_bf would write 0
    return _fmt_bf(gamma) if gamma > 2.0 ** -1024 else f"{gamma:.3g}"


def print_meta(report: dict, scale: str) -> None:
    res = report["results"]
    pooled = res["pooled"]
    # a summary number is at most 15 characters, so no line is longer than the
    # table's header, which takes at least 86
    key, ci, label = ("or", "ci_or", "OR") if scale == "or" else ("log_or", "ci_log", "log OR")
    lo, hi = pooled[ci]
    print(f"pooled {label} {_num(pooled[key])} [{_num(lo)}, {_num(hi)}]"
          f" at level {pooled['level']:g}")
    print(f"posterior precision {_num(res['pooled_precision'], '.1f')}"
          f" from {res['n_studies']} studies")
    print()
    rows = res["per_study"]   # a Table: each pass builds its rows one at a time
    width = max(16, 1 + max(len(row["id"]) for row in rows))   # an id keeps a blank after it
    print(f"{'study':<{width}}{'logOR':>8}{'low':>8}{'high':>8}{'p':>10}"
          f"{'loo mean':>10}{'loo prec':>10}{'t_box':>8}{'p_box':>8}")
    for row in rows:
        est = row["estimate"]
        loo = row["leave_one_out_prior"] or {}
        print(f"{row['id']:<{width}}{_cell(est['log_or'], 8, '.2f')}"
              f"{_cell(est['ci_log'][0], 8, '.2f')}{_cell(est['ci_log'][1], 8, '.2f')}"
              f"{_cell(est['p'], 10, '.4f')}{_cell(loo.get('mean'), 10, '.2f')}"
              f"{_cell(loo.get('precision'), 10, '.1f')}"
              f"{_cell(row['t_box'], 8, '.2f')}{_cell(row['p_box'], 8, '.2f')}")
    fsn = res["fail_safe_n"]
    print()
    if fsn["significant"]:
        print(f"fail-safe N: {_num(fsn['n_exact'], '.1f')}"
              f" (round up to {_num(fsn['n_integer'], 'd')})")
    else:
        print(f"fail-safe N: 0 ({fsn['reason']})")


def _cell(x: float | None, width: int, spec: str) -> str:
    """x in `spec`, "-" for None, right-aligned to `width` after a blank. Where
    `spec` would fill the column, x is in g form with the most digits, up to
    3, that leave the blank; one always does, as -1e+308 takes 7 characters."""
    text = "-" if x is None else format(x, spec)
    digits = 3
    while len(text) >= width:
        text = format(x, f".{digits}g")
        digits -= 1
    return text.rjust(width)


def print_ancred(report: dict, scale: str) -> None:
    res = report["results"]
    est = res["estimate"]
    print(f"estimate log OR {_num(est['log_or'])} (se {_num(est['se'], '.3f')}, "
          f"p {_num(est['p'], '.4f')})")
    if res["mode"] == "sceptical":
        sc = res["sceptical"]
        lo, hi = sc["critical_interval_or"]
        print(f"sceptical prior: g {_num(sc['g'])}, S {_num(sc['scepticism_limit'])}, "
              f"critical OR interval ({_num(lo)}, {_num(hi)})")
        print(f"credibility ratio {_num(sc['credibility_ratio'])}; intrinsically "
              f"credible (prior) { sc['intrinsically_credible_prior']}, "
              f"(predictive) {sc['intrinsically_credible_predictive']}")
    else:
        adv = res["advocacy"]
        print(f"advocacy prior: m {_num(adv['m'])}, mu {_num(adv['mu'])}, "
              f"tau {_num(adv['tau'])}")
        print(f"advocacy limit {_num(adv['advocacy_limit'])} "
              f"(OR {_num(adv['advocacy_limit_or'])})")
    shared = res[res["mode"]]
    print(f"p_IC {_num(shared['p_intrinsic'], '.4f')}, p_rep {_num(shared['p_rep'], '.3f')}")
    _print_trial(shared["equivalent_trial"])


def _print_trial(payload: dict) -> None:
    if "treatment_arm" in payload:
        t, c = payload["treatment_arm"], payload["control_arm"]
        print(f"equivalent trial: {_num(t['events'], '.0f')} events of "
              f"{_num(t['patients'], '.0f')} patients (treatment) vs "
              f"{_num(c['events'], '.0f')} of {_num(c['patients'], '.0f')} (control)")
    elif "patients_per_arm" in payload:
        print(f"equivalent trial: {_num(payload['events_per_arm'], '.0f')} events of "
              f"{_num(payload['patients_per_arm'], '.0f')} patients per arm")
    else:
        print(f"equivalent trial: {_num(payload['events_per_arm'], '.0f')} events per arm "
              f"(arbitrarily large arms)")


def print_bf(report: dict, scale: str) -> None:
    res = report["results"]
    print(f"z = {_num(res['estimate']['z'], '.3f')}; "
          f"minBF local {_fmt_bf(res['min_bf_local'])}, "
          f"ELS bound {_fmt_bf(res['min_bf_els'])}")
    if res["mode"] == "sceptical":
        sc = res["sceptical"]
        lo, hi = sc["prior_interval_or"]
        print(f"gamma {_fmt_gamma(sc['gamma'])}: g {_num(sc['g_small'])} (sceptical) "
              f"or {sc['g_large']:.3g} (ignorance)")
        print(f"sceptical prior 95% OR interval ({_num(lo)}, {_num(hi)})")
        print(f"BF12 vs optimistic prior {_fmt_bf(sc['bf12_at_g_small'])}")
    elif res["mode"] == "advocacy":
        adv = res["advocacy"]
        lo, hi = adv["prior_interval_or"]
        print(f"gamma {_fmt_gamma(adv['gamma'])}: z(gamma) {_num(adv['z_gamma'])}, "
              f"CV {_num(adv['cv'])}")
        print(f"advocacy m {_num(adv['m_small'])} (tau {_num(adv['tau_small'])}, "
              f"recommended) or m {_num(adv['m_large'])} (tau {_num(adv['tau_large'])})")
        print(f"advocacy prior OR interval ({_num(lo)}, {_num(hi)})")
    else:
        print(f"BF for intrinsic credibility {_fmt_bf(res['bf_intrinsic'])}")


def print_fpr(report: dict, scale: str) -> None:
    res = report["results"]
    label = ("FPR = p" if res["fpr_equals_p"]
             else f"FPR {res['fpr']:g}")
    print(f"p {res['p']:g}, {label}: upper bound on Pr(H0)")
    for kind, bound in res["prior_bound"].items():
        print(f"  {kind:<16} minBF {_fmt_bf(res['min_bf'][kind])}  "
              f"Pr(H0) <= {100.0 * bound:.1f}%")
    if "grid" in res:
        print("x,series,value")
        for p, series, value in res["grid"]:
            print(f"{p:.6g},{series},{value:.10g}")
