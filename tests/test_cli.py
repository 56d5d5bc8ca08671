import ast
import contextlib
import csv
import graphlib
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
import types

import pytest
from hypothesis import given, strategies as st

import oracles
import pins
from readme import readme_cli_block
import revbayes
from revbayes import bundled_dataset_path, cli, meta, options, report
from revbayes.cli import run
from revbayes.report import render_json, write_json
from revbayes.ancred import advocacy_prior, sceptical_analysis
from revbayes.errors import DataError
from revbayes.fpr import CalibrationKind
from revbayes.meta import StudyTable, read_study_table
from revbayes.model import EffectEstimate, Study

DATA = str(bundled_dataset_path())
ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "revbayes"
# the standard library's own sha256 module, which report._input_digest imports
_SHA256 = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
# printable ASCII but the comma and quote, so that an id is one csv field
_ID_CHARS = st.characters(min_codepoint=0x20, max_codepoint=0x7e, blacklist_characters=',"')
# the number spellings a float option takes: decimal, or inf, infinity or nan,
# ASCII only, in any case
_NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|infinity|nan)",
                     re.ASCII | re.IGNORECASE)


def quick_start_block() -> str:
    """The Python block of the README's "Library quick start" section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return section.split("```python", 1)[1].split("```", 1)[0]


def readme_examples() -> list[list[str]]:
    """The argv of each `revbayes` line of the README's CLI block."""
    return [argv for argv, _, _ in readme_cli_block()]


def _module_name(path: pathlib.Path) -> str:
    return "revbayes" if path.stem == "__init__" else f"revbayes.{path.stem}"


def package_imports(path: pathlib.Path) -> set:
    """The package modules that the module at `path` imports, at module level
    or in a function, by their dotted names: `from . import x` imports the
    submodule x where there is one, and else the package."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "revbayes")
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["revbayes" if node.level else None, node.module]))
            if base.split(".")[0] == "revbayes":
                imported.update(f"{base}.{a.name}" if base == "revbayes"
                                and (SRC / f"{a.name}.py").is_file() else base
                                for a in node.names)
    return imported


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_loads(text):
    """json.loads that rejects Infinity, -Infinity and NaN (RFC 8259)."""
    return json.loads(text, parse_constant=_reject_constant)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return strict_loads(out)


def _table_rows(value):
    """json.dumps's default hook: a declared table is the list of its rows."""
    if type(value) is report.Table:
        return list(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@pytest.fixture(autouse=True)
def renders_as_json_dumps(monkeypatch):
    """The equality gate, on every report a test here renders: a finite
    report comes out as json.dumps(report, sort_keys=True, indent=2), a
    declared table as the list of its rows. It wraps report's write_json
    where the cli binds it, as run streams each --json report through it."""
    def checked(report, write):
        chunks = []
        write_json(report, chunks.append)
        text = "".join(chunks)
        try:
            expected = json.dumps(report, sort_keys=True, indent=2, allow_nan=False,
                                  default=_table_rows)
        except ValueError:   # non-finite floats, which json.dumps cannot write strictly
            expected = text
        assert text == expected
        write(text)
    monkeypatch.setattr(cli, "write_json", checked)


_PINS = pins.load()


@pytest.fixture(autouse=True)
def pinned_outputs(request, monkeypatch):
    """The output pins, on each test that pins.PATH names: every command the
    test runs through `run` is hashed as it runs, and after the test the
    digests are checked against the file, or handed to repin.py's recorder."""
    name = request.node.nodeid.split("::", 1)[1]
    if name not in _PINS["tests"]:
        yield
        return
    tmp = str(request.getfixturevalue("tmp_path"))
    runs = []

    def recorded(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        sys.stdout.write(out.getvalue())
        sys.stderr.write(err.getvalue())
        command, *texts = (text.replace(tmp, pins.TMP)
                           for text in (shlex.join(argv), out.getvalue(), err.getvalue()))
        runs.append((command, pins.digest(command, code, *texts)))
        return code

    monkeypatch.setattr(request.module, "run", recorded)
    yield
    recorders = [plugin for plugin in request.config.pluginmanager.get_plugins()
                 if isinstance(plugin, pins.Recorder)]
    if recorders:
        recorders[0].runs[name] = runs
    elif failure := pins.check(name, runs, _PINS):
        pytest.fail(failure, pytrace=False)


class TestReadStudyTable:
    def test_bundled_dataset(self):
        studies = read_study_table(DATA)
        assert len(studies) == 7
        assert studies[2].id == "RECOVERY"
        assert (studies[2].events_treatment, studies[2].n_treatment) == (95, 324)

    def test_estimate_schema(self, tmp_path):
        f = tmp_path / "est.csv"
        f.write_text("id,estimate,se\nA,-0.5,0.2\nB,0.1,0.3\n")
        studies = read_study_table(str(f))
        assert studies[0].estimate == -0.5
        assert studies[1].se == 0.3

    def test_missing_file(self):
        with pytest.raises(DataError, match="cannot read"):
            read_study_table("/nonexistent/path.csv")

    def test_bad_header(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("study,or,weight\nA,0.5,1\n")
        with pytest.raises(DataError, match="unrecognized header"):
            read_study_table(str(f))

    def test_row_diagnostics_carry_line_numbers(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("id,events_t,n_t,events_c,n_c\nA,2,7,2,12\nB,x,10,3,11\n")
        with pytest.raises(DataError, match=r"bad\.csv:3"):
            read_study_table(str(f))

    def test_duplicate_ids(self, tmp_path):
        f = tmp_path / "dup.csv"
        f.write_text("id,estimate,se\nA,-0.5,0.2\n\nB,0.2,0.1\nA,0.1,0.3\nB,0.3,0.2\n")
        with pytest.raises(DataError,
                           match=r"dup\.csv:5: duplicate study id 'A', first on line 2$"):
            read_study_table(str(f))

    def test_blank_rows_skipped(self, tmp_path):
        f = tmp_path / "gaps.csv"
        f.write_text("id,estimate,se\nA,-0.5,0.2\n\n , , \nB,0.1,0.3\n")
        assert len(read_study_table(str(f))) == 2

    @pytest.mark.parametrize("rows, message", [
        # a bad cell on line 2 and a short row on line 4
        ("id,estimate,se\nA,x,0.2\n \t, ,\nB,0.1\n", r"bad\.csv:2: non-numeric value"),
        ("id,estimate,se\nA,0.1,0.2\n  ,,\nB,0.1\nC,y,0.2\n", r"bad\.csv:4: expected 3"),
        # a negative count on line 3 and a non-integer on line 5
        ("id,events_t,n_t,events_c,n_c\nA,2,7,2,12\nB,-1,7,2,12\n , , , , \nC,2.5,7,2,12\n",
         "study 'B': negative event count"),
        # a repeated id on line 3 and a bad cell on line 4
        ("id,estimate,se\nA,-0.5,0.2\nA,0.1,0.3\nB,x,0.2\n",
         r"bad\.csv:3: duplicate study id 'A'"),
        # no header, and a header with no row or only blank ones after it
        ("", r"bad\.csv: empty file \(header row required\)$"),
        ("id,estimate,se\n", r"bad\.csv: no data rows$"),
        ("id,estimate,se\n\n,,\n", r"bad\.csv: no data rows$"),
    ], ids=["cell-before-short-row", "short-row-before-cell", "count-before-non-integer",
            "repeated-id-before-cell", "empty-file", "header-only", "blank-rows-only"])
    def test_first_bad_row_is_named(self, tmp_path, rows, message):
        f = tmp_path / "bad.csv"
        f.write_text(rows)
        with pytest.raises(DataError, match=message):
            read_study_table(str(f))

    @staticmethod
    def outcome(read, path):
        """The columns of the table that read gives, or its DataError's message."""
        try:
            return tuple(map(tuple, read(path).columns))
        except DataError as exc:
            return str(exc)

    @staticmethod
    def row_parser(path):
        """The table that _parse_studies alone reads from the file."""
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                return StudyTable(tuple(zip(*meta._parse_studies(path, reader))))
            except csv.Error as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from exc

    def test_forms_of_one_table(self, tmp_path):
        # LF, CRLF, a byte order mark and no final newline are split at the
        # commas, and a quoted id and whitespace-only rows take the row parser
        lines = ["id,events_t,n_t,events_c,n_c", "A,2,7,2,12", "B b,69,128,76,128",
                 "C,95,324,283,683"]
        forms = {"lf": "\n".join(lines) + "\n", "crlf": "\r\n".join(lines) + "\r\n",
                 "bom": "\ufeff" + "\n".join(lines) + "\n",
                 "quoted-id": "\n".join(lines).replace("B b,", '"B b",') + "\n",
                 "blank-rows": "\n".join([lines[0], "", lines[1], " , , , , ", lines[2], "\t",
                                          "", lines[3]]) + "\n\n",
                 "no-final-newline": "\n".join(lines)}
        tables = {}
        for name, text in forms.items():
            f = tmp_path / f"{name}.csv"
            f.write_bytes(text.encode())
            tables[name] = self.outcome(read_study_table, str(f))
            text = text.removeprefix("\ufeff")
            assert ((meta._read_columns(text) is None)
                    == (name in ("quoted-id", "blank-rows"))), name
        assert tables["lf"][0] == ("A", "B b", "C")
        assert all(table == tables["lf"] for table in tables.values()), tables

    @pytest.mark.parametrize("text, expected", [
        # R's write.csv quotes the header and every id
        ('"id","estimate","se"\n"A",0.1,0.2\n"B,1",0.2,0.3\n', ("A", "B,1")),
        ("id,estimate,se\nA\0,0.1,0.2\nB,0.2,0.3\n", ("A\0", "B")),
        ("id,estimate,se\rA,0.1,0.2\rB,0.2,0.3\r", ("A", "B")),
        ("id,estimate,se\nA,0.1,0.2\nB\rC,0.2,0.3\n", ":3: expected 3 columns, got 1"),
        ("id,estimate,se\nA,0.1,0.2\n" + "B" * 131073 + ",0.1,0.2\n",
         ":3: field larger than field limit (131072)"),
        # the line is past the limit, but none of its fields
        ("id,estimate,se\nA,0.1,0.2\nB,0." + "1" * 70000 + ",0." + "2" * 70000 + "\n",
         ("A", "B")),
        ("id,estimate,se\nA,0.1,0.2\nB,0.2,0.3,\n", ":3: expected 3 columns, got 4"),
        ("id,estimate,se\nA,0.1,0.2\nB,0.2\nC,x,0.3\n", ":3: expected 3 columns, got 2"),
        # one too many and one too few: as many cells as two rows of three
        ("id,estimate,se\nA,0.1,0.2,0.3\n0.2,0.3\n", ":2: expected 3 columns, got 4"),
    ], ids=["quote", "nul", "cr-line-ends", "cr-in-a-row", "field-past-the-limit",
            "line-past-the-limit", "comma-too-many", "comma-too-few", "commas-that-cancel"])
    def test_fallbacks_agree_with_the_row_parser(self, tmp_path, text, expected):
        # text that csv would read otherwise, and a bad row, leave the comma
        # split for the row parser; either way the table or message is the
        # row parser's
        needs_csv = '"' in text or "\0" in text or "\r" in text or len(text) > 131072
        assert (meta._read_columns(text) is None) == (needs_csv or not isinstance(expected, tuple))
        f = tmp_path / "t.csv"
        f.write_bytes(text.encode())
        got = self.outcome(read_study_table, str(f))
        assert got == self.outcome(self.row_parser, str(f))
        if isinstance(expected, tuple):
            assert got[0] == expected
        else:
            assert got == f"{f}{expected}"

    def test_byte_order_mark(self, capsys, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 BOM
        f = tmp_path / "bom.csv"
        f.write_bytes(b"\xef\xbb\xbf" + pathlib.Path(DATA).read_bytes())
        with_bom = run_json(capsys, ["--json", "meta", str(f)])
        plain = run_json(capsys, ["--json", "meta", DATA])
        assert with_bom["results"] == plain["results"]
        assert with_bom["input_digest"] != plain["input_digest"]   # the raw bytes


class TestMetaCommand:
    def test_pooled_values(self, capsys):
        report = run_json(capsys, ["--json", "meta", DATA])
        res = report["results"]
        assert res["pooled"]["or"] == pytest.approx(0.66, abs=5e-3)
        lo, hi = res["pooled"]["ci_or"]
        assert lo == pytest.approx(0.53, abs=5e-3)
        assert hi == pytest.approx(0.82, abs=5e-3)
        assert res["pooled_precision"] == pytest.approx(83.8, abs=0.5)
        assert res["fail_safe_n"]["n_integer"] == 20
        assert len(res["per_study"]) == 7

    def test_box_column(self, capsys):
        report = run_json(capsys, ["--json", "meta", DATA])
        by_id = {row["id"]: row for row in report["results"]["per_study"]}
        assert by_id["RECOVERY"]["p_box"] == pytest.approx(0.22, abs=5e-3)
        assert by_id["COVID STEROID"]["p_box"] == pytest.approx(0.05, abs=5e-3)

    def test_human_output_or_scale(self, capsys):
        assert run(["--scale", "or", "meta", DATA]) == 0
        out = capsys.readouterr().out
        assert "pooled OR 0.66 [0.53, 0.82]" in out
        assert "fail-safe N: 19.5 (round up to 20)" in out

    def test_deterministic_bytes(self, capsys):
        run(["--json", "meta", DATA])
        first = capsys.readouterr().out
        run(["--json", "meta", DATA])
        second = capsys.readouterr().out
        assert first == second

    def test_scale_round_trip(self, capsys):
        report = run_json(capsys, ["--json", "meta", DATA])
        pooled = report["results"]["pooled"]
        assert math.exp(pooled["log_or"]) == pytest.approx(pooled["or"], rel=1e-15)
        for a, b in zip(pooled["ci_log"], pooled["ci_or"]):
            assert math.exp(a) == pytest.approx(b, rel=1e-15)

    def test_input_digest_tracks_file(self, capsys, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("id,estimate,se\nA,-0.5,0.2\nB,-0.4,0.25\n")
        d1 = run_json(capsys, ["--json", "meta", str(f)])["input_digest"]
        f.write_text("id,estimate,se\nA,-0.5,0.2\nB,-0.4,0.26\n")
        d2 = run_json(capsys, ["--json", "meta", str(f)])["input_digest"]
        assert d1 != d2

    def test_zero_cell_reports_study(self, capsys, tmp_path):
        f = tmp_path / "zero.csv"
        f.write_text("id,events_t,n_t,events_c,n_c\nOK,2,7,2,12\nEMPTY,0,10,3,11\n")
        assert run(["meta", str(f)]) == 2
        err = capsys.readouterr().err
        assert "EMPTY" in err

    @pytest.mark.parametrize("rows", [
        f"A,{10 ** 399},{10 ** 400},2,12",   # the odds ratio is 10/18
        f"OK,2,7,2,12\nA,1,{10 ** 400},2,12",
        f"A,1,2,1,{10 ** 400}",
        # b = 2^1024 - 2^970, the smallest int that float() rejects
        f"A,1,{2 ** 1024 - 2 ** 970 + 1},2,12",
        # every count is a float, but ad/bc = (a/b)/(c/d) underflows to 0
        f"A,1,{10 ** 307},{10 ** 307 - 1},{10 ** 307}",
        # or overflows to inf: a/b = 1e300 and c/d = 1e-300
        f"A,{10 ** 300},{10 ** 300 + 1},1,{10 ** 300}",
    ], ids=["events-and-arm", "arm", "control-arm", "first-int-past-float", "odds-ratio",
            "odds-ratio-overflow"])
    def test_counts_past_the_float_range(self, capsys, tmp_path, rows):
        # the log OR comes from the integer products ad and bc, so counts and
        # odds ratios past the float range are answered, to 3 ulp of mpmath
        f = tmp_path / "huge.csv"
        f.write_text(f"id,events_t,n_t,events_c,n_c\n{rows}\n")
        assert run(["meta", str(f)]) == 0
        capsys.readouterr()
        estimate = run_json(capsys, ["--json", "meta", str(f)])["results"]["per_study"][-1][
            "estimate"]
        a, n_t, c, n_c = map(int, rows.rsplit(",", 4)[1:])
        log_or, _ = oracles.log_or_se(a, n_t - a, c, n_c - c)
        assert abs(estimate["log_or"] - log_or) <= 3 * math.ulp(float(log_or))
        if a == 10 ** 399:
            assert estimate["or"] == pytest.approx(10 / 18, rel=1e-15)

    @pytest.mark.parametrize("rows", [
        f"A,{10 ** 400},{2 * 10 ** 400},{10 ** 400},{2 * 10 ** 400}",
        # 1/a + 1/b + 1/c + 1/d is subnormal: se would hold few digits, and 1/se^2 overflow
        f"OK,2,7,2,12\nA,{2 * 10 ** 308},{6 * 10 ** 308},{2 * 10 ** 308},{6 * 10 ** 308}",
    ], ids=["underflow", "subnormal"])
    def test_se_past_the_float_range(self, capsys, tmp_path, rows):
        # se = sqrt(1/a + 1/b + 1/c + 1/d) leaves the float range only when every
        # cell is past about 1e308
        f = tmp_path / "huge.csv"
        f.write_text(f"id,events_t,n_t,events_c,n_c\n{rows}\n")
        for argv in (["meta", str(f)], ["--json", "meta", str(f)]):
            assert run(argv) == 3
            assert capsys.readouterr().err == (
                "nonexistence: study 'A': its counts are outside the floating-point range\n")

    @pytest.mark.parametrize("rows, message", [
        ("A,0.1,0.2\nB,inf,0.2", "estimate and se must be finite"),
        ("A,0.1,0.2\nB,1e308,1e-10", "z = estimate / se overflows: 1e+308 / 1e-10"),
    ], ids=["non-finite", "z-overflow"])
    def test_estimate_errors_name_the_study(self, capsys, tmp_path, rows, message):
        f = tmp_path / "bad.csv"
        f.write_text(f"id,estimate,se\n{rows}\n")
        for argv in (["meta", str(f)], ["--json", "meta", str(f)]):
            assert run(argv) == 2
            assert capsys.readouterr().err == f"data error: study 'B': {message}\n"

    def test_row_line_is_physical_line(self, capsys, tmp_path):
        # the quoted id spans lines 2 and 3, so the bad cell sits on line 4
        f = tmp_path / "ml.csv"
        f.write_text('id,estimate,se\n"A\nA",0.1,0.2\nB,x,0.3\n')
        for argv in (["meta", str(f)], ["--json", "meta", str(f)]):
            assert run(argv) == 2
            assert capsys.readouterr().err == (
                f"data error: {f}:4: non-numeric value: could not convert string to float: 'x'\n")

    @pytest.mark.parametrize("rows, nulls", [
        # B's 1/se^2 underflows to 0: A's leave-one-out prior is flat, B's is not
        ("A,0.1,1\nB,0.2,1e200", [True, False]),
        ("A,0.1,1", [True]),
    ], ids=["two-layouts", "one-study"])
    def test_flat_leave_one_out_priors(self, capsys, tmp_path, rows, nulls):
        f = tmp_path / "flat.csv"
        f.write_text(f"id,estimate,se\n{rows}\n")
        per_study = run_json(capsys, ["--json", "meta", str(f)])["results"]["per_study"]
        assert [row["leave_one_out_prior"] is None for row in per_study] == nulls
        assert [row["t_box"] is None for row in per_study] == nulls
        assert [row["p_box"] is None for row in per_study] == nulls
        assert run(["meta", str(f)]) == 0

    def test_wide_cells_keep_their_columns(self, capsys, tmp_path):
        # B's CI limits are +-1.96e200, 205 characters in fixed point, and
        # C's -12657.25 and -12759.52 take 9 characters of an 8-wide column;
        # -1.3e+04 would fill it, so they keep one digit and a blank
        f = tmp_path / "wide.csv"
        f.write_text("id,estimate,se\nA,0.1,1\nB,0.2,1e200\nC,-12657.25,52.18\n")
        assert run(["meta", str(f)]) == 0
        rows = capsys.readouterr().out.splitlines()[4:7]
        # a cell that fits keeps its fixed point, as A's loo mean does with one blank
        assert rows == [
            "A                   0.10   -1.86    2.06    0.9203 -12657.25       0.0  242.53    0.00",
            "B                   0.20 -2e+200  2e+200    1.0000     -4.55       1.0    0.00    1.00",
            "C                 -1e+04  -1e+04  -1e+04    0.0000      0.10       1.0 -242.53    0.00"]

    @pytest.mark.parametrize("rows, summary", [
        ("A,0.1,1e-150\nB,0.2,1e-150", ["pooled log OR 0.15 [0.15, 0.15] at level 0.95",
                                        "posterior precision 2e+300 from 2 studies",
                                        "fail-safe N: 2.34e+298 (round up to 2.34e+298)"]),
        ("A,1e150,1\nB,-2e149,1", ["pooled log OR 4e+149 [4e+149, 4e+149] at level 0.95",
                                   "posterior precision 2.0 from 2 studies",
                                   "fail-safe N: 1.67e+299 (round up to 1.67e+299)"]),
    ], ids=["precision", "estimate"])
    def test_summary_lines_keep_their_width(self, capsys, tmp_path, rows, summary):
        # in fixed point, the first table's precision and fail-safe N lines took
        # 338 and 628 characters, and the second's pooled line 492
        f = tmp_path / "wide.csv"
        f.write_text(f"id,estimate,se\n{rows}\n")
        assert run(["meta", str(f)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [*lines[:2], lines[-1]] == summary
        assert max(map(len, lines)) == len(lines[3]) == 86

    @given(st.lists(st.tuples(st.text(_ID_CHARS, min_size=1, max_size=40),
                              st.floats(min_value=-1e75, max_value=1e75),
                              st.floats(min_value=1e-75, max_value=1e75)),
                    min_size=1, max_size=8, unique_by=lambda row: row[0].strip()))
    def test_text_cells_are_separated_and_aligned(self, tmp_path_factory, rows):
        # every cell keeps a blank on its left, ids of any length included,
        # and ends where its header label ends; no line is wider than the header
        table = tmp_path_factory.mktemp("cells") / "table.csv"
        table.write_text("id,estimate,se\n" + "".join(
            f"{sid},{estimate!r},{se!r}\n" for sid, estimate, se in rows))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["meta", str(table)]) == 0
        header, *lines = out.getvalue().splitlines()[3:4 + len(rows)]
        assert max(map(len, out.getvalue().splitlines())) == len(header)
        widths = [8, 8, 8, 10, 10, 10, 8, 8]
        id_width = len(header) - sum(widths)
        assert header[:id_width] == "study".ljust(id_width)
        for line, (sid, _, _) in zip(lines, rows):
            assert len(line) == len(header)
            assert line[:id_width] == sid.strip().ljust(id_width) and line[id_width - 1] == " "
            end = id_width
            for width in widths:
                end += width
                for text in (header, line):
                    cell = text[end - width:end]
                    assert cell[0] == " " and cell[-1] != " ", (cell, text)

    def test_meta_builds_no_study(self, monkeypatch, tmp_path):
        # the CLI reads, checks and pools a table as columns; a Study is built
        # only where a library caller indexes the table
        calls = []
        new = Study.__new__
        def counted(cls, *args, **kwargs):
            calls.append(args[0])
            return new(cls, *args, **kwargs)
        monkeypatch.setattr(Study, "__new__", staticmethod(counted))
        monkeypatch.setattr(cli, "write_json", write_json)   # the gate would hold the text
        table = _counts_table(tmp_path, 10_000)
        with open(table, "a") as fh:
            fh.write("\n")   # an empty last line, as many editors leave
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["--json", "meta", table]) == 0
        assert calls == []
        study = read_study_table(table)[-1]   # the counter counts
        assert calls == [study.id]

    def test_cli_binds_the_traced_names(self, capsys, monkeypatch):
        # perfbench/tracing.py times these layers by rebinding them in cli
        assert run(["--json", "meta", DATA]) == 0
        from revbayes import model
        assert (cli.read_study_table, cli.pool, cli.failsafe_n) == (
            meta.read_study_table, meta.pool, meta.failsafe_n)
        # and it wraps this method on model.Study, which model resolves to
        # meta's Study for it; dropping that name would break its --trace 1 runs
        assert model.Study is meta.Study and callable(model.Study.effect_estimate)
        called = []
        for name in ("read_study_table", "pool", "failsafe_n"):
            def traced(*args, original=getattr(cli, name), name=name):
                called.append(name)
                return original(*args)
            monkeypatch.setattr(cli, name, traced)
        first = capsys.readouterr().out
        assert run(["--json", "meta", DATA]) == 0
        assert capsys.readouterr().out == first
        assert called == ["read_study_table", "pool", "failsafe_n"]

    @pytest.mark.parametrize("content, message", [
        # a Latin-1 e-acute, as Excel's plain "CSV" saves it
        (b"id,estimate,se\nA\xe9,0.1,0.2\n",
         ": not UTF-8 text: invalid continuation byte"),
        # a bad row on line 2, read before the decoder reaches the block of the
        # Latin-1 byte on line 1003
        (b"id,estimate,se\nA,x,0.2\n" + b"B,0.1,0.2\n" * 1000 + b"C\xe9,0.1,0.2\n",
         ":2: non-numeric value: could not convert string to float: 'x'"),
        (b"id,estimate,se\nA,0.1,0.2\n" + b"B" * 131073 + b",0.1,0.2\n",
         ":3: field larger than field limit (131072)"),
        (b"", ": empty file (header row required)"),
        (b"id,estimate,se\n", ": no data rows"),
        (b"id,estimate,se\n\n,,\n", ": no data rows"),
    ], ids=["latin-1", "bad-row-before-latin-1", "field-limit", "empty-file", "header-only",
          "blank-rows-only"])
    def test_unreadable_table_is_a_data_error(self, capsys, tmp_path, content, message):
        f = tmp_path / "bad.csv"
        f.write_bytes(content)
        for argv in (["meta", str(f)], ["--json", "meta", str(f)]):
            assert run(argv) == 2
            assert capsys.readouterr().err == f"data error: {f}{message}\n"


class TestAncredCommand:
    def test_sceptical_from_counts_estimate(self, capsys, recovery):
        report = run_json(capsys, [
            "--json", "ancred", "--estimate", str(recovery.theta_hat),
            "--se", str(recovery.se), "--rate", "0.375"])
        sc = report["results"]["sceptical"]
        assert sc["g"] == pytest.approx(0.39, abs=5e-3)
        assert sc["scepticism_limit"] == pytest.approx(0.18, abs=5e-3)
        assert sc["credibility_ratio"] == pytest.approx(3.27, abs=0.02)
        assert sc["intrinsically_credible_prior"] is True
        trial = sc["equivalent_trial"]
        assert round(trial["events_per_arm"]) == 389
        assert round(trial["patients_per_arm"]) == 1038

    def test_advocacy_from_ci(self, capsys, remap_cap):
        lo, hi = remap_cap.ci(0.95)
        report = run_json(capsys, [
            "--json", "ancred", "--lower", str(lo), "--upper", str(hi)])
        adv = report["results"]["advocacy"]
        assert report["results"]["mode"] == "advocacy"
        assert adv["mu"] == pytest.approx(-0.94, abs=0.01)
        assert adv["advocacy_limit_or"] == pytest.approx(0.15, abs=5e-3)

    def test_sceptical_prior_where_r_overflows(self, capsys):
        # (z/z_crit)^2 overflows, and tau^2 = (z_crit se/z)^2 is a normal float
        report = run_json(capsys, ["--json", "ancred", "--estimate", "1e300", "--se", "1e145"])
        assert report["results"]["sceptical"]["tau2"] == pytest.approx(
            3.841458820694127e-20, rel=1e-15, abs=0)   # mpmath

    def test_sceptical_prior_where_se_squared_overflows(self, capsys):
        # and se^2 too, while tau^2 is still a normal float
        report = run_json(capsys, ["--json", "ancred", "--estimate", "1e300", "--se", "1e200"])
        assert report["results"]["sceptical"]["tau2"] == pytest.approx(
            3.841458820694126e200, rel=1e-15, abs=0)   # mpmath

    @pytest.mark.parametrize("argv, mode, tau2", [
        ("--estimate 1e300 --se 1", "sceptical", "0.0"),         # (z_crit/z)^2 underflows
        ("--estimate 3e160 --se 1e160", "sceptical", "inf"),     # se^2 and tau^2 overflow
        ("--estimate 1e-170 --se 1e-160", "advocacy", "0.0"),    # (mu / z_crit)^2 underflows
        ("--estimate 1e300 --se 1e300", "advocacy", "inf"),      # and overflows
    ], ids=["sceptical-0", "sceptical-inf", "advocacy-0", "advocacy-inf"])
    def test_prior_variance_outside_float_range(self, capsys, argv, mode, tau2):
        # finite input whose tau^2 no float holds: nonexistence, not bad input;
        # the analysis functions themselves still return their limits
        for flags in ([], ["--json"]):
            assert run([*flags, "ancred", *argv.split()]) == 3
            assert capsys.readouterr().err == (
                f"nonexistence: the {mode} prior variance tau^2 is outside the "
                f"floating-point range (it computes as {tau2})\n")
        theta, se = map(float, argv.split()[1::2])
        analysis = (sceptical_analysis if mode == "sceptical" else advocacy_prior)(
            EffectEstimate(theta, se))
        assert (analysis.tau2 if mode == "sceptical"
                else analysis.tau * analysis.tau) == float(tau2)

    def test_estimate_and_ci_are_exclusive(self, capsys):
        assert run(["ancred", "--estimate", "-0.5", "--se", "0.2",
                    "--lower", "-1", "--upper", "0"]) == 1
        assert run(["ancred"]) == 1
        capsys.readouterr()
        assert run(["ancred", "--estimate", "-0.5"]) == 1
        assert capsys.readouterr().err == (
            "usage error: --estimate and --se must be given together\n")
        assert run(["ancred", "--lower", "-1"]) == 1
        assert capsys.readouterr().err == (
            "usage error: --lower and --upper must be given together\n")

    def test_human_output(self, capsys):
        assert run(["ancred", "--estimate", "-0.53", "--se", "0.145"]) == 0
        out = capsys.readouterr().out
        assert "sceptical prior" in out
        assert "equivalent trial" in out


class TestBfCommand:
    def test_sceptical_mode(self, capsys, recovery):
        report = run_json(capsys, [
            "--json", "bf", "--estimate", str(recovery.theta_hat),
            "--se", str(recovery.se), "--gamma", "0.1"])
        res = report["results"]
        assert 1.0 / res["min_bf_local"] == pytest.approx(148.9, abs=0.5)
        sc = res["sceptical"]
        assert sc["g_small"] == pytest.approx(0.59, abs=5e-3)
        assert sc["g_large"] == pytest.approx(8190, rel=5e-3)
        assert 1.0 / sc["bf12_at_g_small"] == pytest.approx(64, abs=0.5)

    def test_ic_mode(self, capsys, recovery):
        report = run_json(capsys, [
            "--json", "bf", "--estimate", str(recovery.theta_hat),
            "--se", str(recovery.se), "--mode", "ic"])
        assert 1.0 / report["results"]["bf_intrinsic"] == pytest.approx(25, abs=0.5)

    def test_advocacy_mode(self, capsys, cape_covid):
        report = run_json(capsys, [
            "--json", "bf", "--estimate", str(cape_covid.theta_hat),
            "--se", str(cape_covid.se), "--gamma", str(1.0 / 3.0),
            "--mode", "advocacy"])
        adv = report["results"]["advocacy"]
        assert adv["z_gamma"] == pytest.approx(1.48, abs=5e-3)
        assert adv["m_small"] == pytest.approx(0.37, abs=5e-3)
        assert adv["m_large"] == pytest.approx(1.26, abs=5e-3)

    def test_nonexistence_exit_code(self, capsys):
        assert run(["bf", "--estimate", "-0.1", "--se", "0.2",
                    "--gamma", "0.01"]) == 3
        assert "nonexistence" in capsys.readouterr().err

    def test_human_bf_formatting(self, capsys, recovery):
        assert run(["bf", "--estimate", str(recovery.theta_hat),
                    "--se", str(recovery.se)]) == 0
        out = capsys.readouterr().out
        assert "minBF local 1/149" in out


    @pytest.mark.parametrize("mode", ["sceptical", "advocacy", "ic"])
    def test_extreme_z_reports(self, capsys, mode):
        # z = 40: the minimum BFs underflow to 0 and the large roots to inf
        assert run(["bf", "--estimate", "4", "--se", "0.1", "--mode", mode]) == 0
        assert "minBF local 0," in capsys.readouterr().out
        # z = 38: minBF local ~ 1.7e-312 and the ELS bound ~ 2.8e-314 are
        # nonzero, but their reciprocals overflow
        assert run(["bf", "--estimate", "38", "--se", "1", "--mode", mode]) == 0
        assert "minBF local 0, ELS bound 0" in capsys.readouterr().out
        # z = 1e155, where z * z overflows: the limits of the roots
        run_json(capsys, ["--json", "bf", "--estimate", "1e155", "--se", "1", "--mode", mode])

    @pytest.mark.parametrize("mode", ["sceptical", "advocacy"])
    def test_tiny_gamma_header(self, capsys, mode):
        # the cut-off is an input: at or below 2^-1024, where its reciprocal
        # overflows, it is written as given, and the minimum BFs stay 0
        assert run(["bf", "--estimate", "1", "--se", "2.2e-308", "--gamma", "1e-310",
                    "--mode", mode]) == 0
        first, second = capsys.readouterr().out.splitlines()[:2]
        assert first.endswith("minBF local 0, ELS bound 0")
        assert second.startswith("gamma 1e-310: ")


class TestFprCommand:
    def test_point_values(self, capsys):
        report = run_json(capsys, ["--json", "fpr", "--p", "0.05"])
        bounds = report["results"]["prior_bound"]
        assert bounds["e_p_log_p"] == pytest.approx(0.1145, abs=5e-4)
        assert bounds["local_z"] == pytest.approx(0.1001, abs=5e-4)

    def test_fpr_equals_p(self, capsys):
        report = run_json(capsys, ["--json", "fpr", "--p", "0.05",
                                   "--fpr-equals-p"])
        bounds = report["results"]["prior_bound"]
        assert bounds["simple_z"] == pytest.approx(0.152, abs=1e-3)

    def test_single_calibration(self, capsys):
        report = run_json(capsys, ["--json", "fpr", "--p", "0.05",
                                   "--calibration", "simple_z"])
        assert list(report["results"]["prior_bound"]) == ["simple_z"]

    def test_grid_rows(self, capsys):
        report = run_json(capsys, ["--json", "fpr", "--p", "0.05", "--grid"])
        grid = report["results"]["grid"]
        assert len(grid) == 201 * 4
        ps = sorted({row[0] for row in grid})
        assert ps[0] == pytest.approx(1e-4, rel=1e-9)
        assert ps[-1] == pytest.approx(0.5, rel=1e-9)
        series = {row[1] for row in grid}
        assert series == {"local_z", "simple_z", "e_p_log_p", "e_q_log_q"}

    def test_grid_text_output(self, capsys):
        assert run(["fpr", "--p", "0.05", "--grid"]) == 0
        out = capsys.readouterr().out
        assert "x,series,value" in out

    def test_bad_p_exit_code(self, capsys):
        assert run(["fpr", "--p", "1.5"]) == 2

    def test_smallest_p(self, capsys):
        # p / 2 rounds to 0 at 5e-324, where two_sided_z has its own case
        assert run(["fpr", "--p", "5e-324"]) == 0
        assert capsys.readouterr().err == ""
        report = run_json(capsys, ["--json", "fpr", "--p", "5e-324"])
        assert report["results"]["min_bf"]["els_all_priors"] > 0.0

    def test_subnormal_fpr(self, capsys):
        # (1 - fpr)/fpr overflows below FPR ~5.6e-309; Bayes' theorem solved
        # for the prior does not, so no bound reads 0
        report = run_json(capsys, ["--json", "fpr", "--p", "1e-310", "--fpr-equals-p"])
        bounds = report["results"]["prior_bound"]
        expected = {"local_z": 3.40e-4, "simple_z": 1.05e-2, "e_p_log_p": 5.15e-4,
                    "e_q_log_q": 0.269, "els_all_priors": 2.07e-2}
        assert bounds == pytest.approx(expected, rel=5e-3)

    def test_subnormal_bf_text(self, capsys):
        # at p = 1e-323 the nonzero local-z bound's reciprocal overflows
        assert run(["fpr", "--p", "1e-323"]) == 0
        out = capsys.readouterr().out
        assert "inf" not in out
        assert "local_z          minBF 0 " in out

    def test_bf_of_one_text(self, capsys):
        # at p = 0.9, |z| is below 1 and the local-z bound is 1, printed plainly
        assert run(["fpr", "--p", "0.9"]) == 0
        assert "local_z          minBF 1 " in capsys.readouterr().out


class TestOddsRatioOverflow:
    # valid findings whose odds ratios pass the float range: each site
    # reports the string "inf" instead of raising OverflowError
    @pytest.mark.parametrize("argv, path", [
        ("ancred --estimate -0.53 --se 400", ("estimate", "ci_or", 1)),
        ("ancred --estimate -0.53 --se 400 --rate 0.3", ("estimate", "ci_or", 1)),
        ("meta {table}", ("per_study", 1, "estimate", "ci_or", 1)),
        ("bf --estimate 700 --se 100", ("estimate", "ci_or", 1)),
        ("bf --estimate 1200 --se 400 --mode advocacy --gamma 0.3", ("estimate", "or")),
        ("ancred --estimate 150 --se 75", ("sceptical", "critical_interval_or", 1)),
        ("ancred --estimate 200 --se 400", ("advocacy", "advocacy_limit_or")),
        ("bf --estimate 900 --se 300", ("sceptical", "prior_interval_or", 1)),
        ("bf --estimate 3000 --se 1000 --mode advocacy --gamma 0.3",
         ("advocacy", "prior_interval_or", 1)),
    ], ids=["ancred-ci", "ancred-ci-rate", "meta-study-ci", "bf-ci", "bf-or",
            "critical-interval", "advocacy-limit", "sceptical-prior-interval",
            "advocacy-prior-interval"])
    def test_reports_inf(self, capsys, tmp_path, argv, path):
        table = tmp_path / "wide.csv"
        table.write_text("id,estimate,se\nRECOVERY,-0.53,0.145\nWIDE,0.2,400\n")
        argv = shlex.split(argv.format(table=table))
        assert run(argv) == 0
        capsys.readouterr()
        value = run_json(capsys, ["--json"] + argv)["results"]
        for key in path:
            value = value[key]
        assert value == "inf"


_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_KEYS = st.text() | st.sampled_from(['"', "\\", "\n", "\x00", "\x7f", "\u2028",
                                     "\u00e9", "\U0001f600", ""])
_SCALARS = (st.none() | st.booleans() | st.text()
            | st.integers() | st.sampled_from([2 ** 64, -2 ** 64 - 1, 10 ** 40])
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from(_EDGE_FLOATS))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.just(()) | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=30)
# Row layouts: a strategy that draws the strategy of one row, so that a list
# of its rows holds >= 2 dicts of one key set or lists of one length, the
# rows that the renderer writes column by column. A column holds one scalar
# type, mixed scalars, or rows of a nested layout.
_LAYOUTS = st.recursive(
    st.sampled_from([st.floats(allow_nan=False, allow_infinity=False)
                     | st.sampled_from(_EDGE_FLOATS),
                     st.text(), st.integers(), st.booleans(), st.none(), _SCALARS]),
    lambda inner: (st.lists(inner, max_size=4).map(lambda row: st.tuples(*row).map(list))
                   | st.dictionaries(_KEYS, inner, max_size=4).map(st.fixed_dictionaries)),
    max_leaves=8)
_TABLES = _LAYOUTS.flatmap(lambda row: st.lists(row, min_size=2, max_size=8))


# Declared tables: a row layout with column indices at its leaves, which
# repeat, over columns of floats (non-finite ones too), of any values
# (None, mixed types, dicts and lists), or of one object throughout.
_COLUMNS = st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.integers(1, 6),
    st.recursive(st.integers(0, k - 1),
                 lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(_KEYS, inner, max_size=4), max_leaves=8)))
_ITEMS = (st.floats(), st.one_of(_VALUES, st.floats()), None)


@st.composite
def _declared_tables(draw):
    k, n, layout = draw(_COLUMNS)
    columns = []
    for _ in range(k):
        items = draw(st.sampled_from(_ITEMS))
        columns.append([draw(_VALUES)] * n if items is None
                       else draw(st.lists(items, min_size=n, max_size=n)))
    return report.Table(layout, columns)


def _declare(rows):
    """rows as a declared table. Its layout follows the rows' dicts and lists
    down to where they differ in type, key set or length, and each leaf is a
    column; leaves whose items have the same types and reprs share a column.
    Column 0 holds the rows themselves, so that a layout without leaves
    keeps its rows, and rows of no shared shape are that one column."""
    columns = [rows]
    def layout(column):
        shapes = {(type(item), frozenset(item) if type(item) is dict else len(item))
                  if type(item) in (dict, list) else None for item in column}
        if len(shapes) == 1 and None not in shapes:
            ((kind, keys),) = shapes
            if kind is dict:
                return {key: layout([item[key] for item in column]) for key in column[0]}
            return [layout([item[i] for item in column]) for i in range(keys)]
        typed = [(type(item), repr(item)) for item in column]
        for index, other in enumerate(columns):
            if [(type(item), repr(item)) for item in other] == typed:
                return index
        columns.append(column)
        return len(columns) - 1
    table = report.Table(layout(rows), columns)
    assert list(table) == rows
    return table


def _rows(n):
    return [{"id": f"s{i}", "x": i / 7.0, "row": [str(i), i * 0.5, None]} for i in range(n)]


def _declared_rows(n):
    """A declared table like _rows(n): its id and x columns fill two slots
    each, x holds inf, row[2] is None but in the last row, and level holds
    one object. big's finite floats fill two slots too, and a block of two
    or more rows of them sums past the float range; odd cycles through inf,
    nan, -inf and 0.25; obj holds dicts and None, at two depths."""
    xs = [i / 7.0 for i in range(n)]
    xs[n // 2] = math.inf
    odd = [[math.inf, math.nan, -math.inf, 0.25][i % 4] for i in range(n)]
    return report.Table({"id": 0, "x": 1, "row": [0, 1, 2], "level": 3, "big": 4,
                         "odd": [5, 4], "nested": {"obj": 6}, "obj": 6},
                        [[f"s{i}" for i in range(n)], xs, [None] * (n - 1) + [0.5], [_X] * n,
                         [1e308] * n, odd,
                         [{"m": i / 3.0} if i % 3 else None for i in range(n)]])


def _counts_table(tmp_path, n):
    """A seeded counts-schema table of n studies, arm sizes log-uniform on
    10-1e9, written to a file; its path."""
    rng = random.Random(n)
    lines = ["id,events_t,n_t,events_c,n_c"]
    for i in range(n):
        n_t, n_c = (int(10.0 ** rng.uniform(1, 9)) for _ in range(2))
        lines.append(f"S{i},{rng.randint(1, n_t - 1)},{n_t},{rng.randint(1, n_c - 1)},{n_c}")
    table = tmp_path / f"counts-{n}.csv"
    table.write_text("\n".join(lines) + "\n")
    return str(table)


def _non_finite_as_strings(value):
    """value with each non-finite float replaced by its repr, as render_json
    writes it, and each declared table by its rows."""
    if isinstance(value, report.Table):
        value = list(value)
    if isinstance(value, dict):
        return {key: _non_finite_as_strings(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_non_finite_as_strings(item) for item in value]
    return repr(value) if isinstance(value, float) and not math.isfinite(value) else value


_X, _Y, _Z = 0.1 + 0.2, 2.0 / 3.0, 0.0   # one object each, shared by the rows below


class TestRenderJson:
    @given(_VALUES)
    def test_same_bytes_as_json_dumps(self, value):
        assert render_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @given(_TABLES)
    def test_tables_same_bytes_as_json_dumps(self, value):
        expected = json.dumps(value, sort_keys=True, indent=2)
        assert render_json(value) == expected
        assert render_json(_declare(value)) == expected

    @given(_declared_tables())
    def test_declared_tables(self, table):
        expected = json.dumps(_non_finite_as_strings(table), sort_keys=True, indent=2)
        assert render_json(table) == expected
        assert render_json({"rows": [table]}) == json.dumps(
            _non_finite_as_strings({"rows": [table]}), sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        [{"%": 1.5, "%s": "a", "%%d": 0, '"': None, "\u00e9": [1, 2], "": True,
          "\x00": "%s", "%%": "%%"}] * 3,
        [[1, 2], [1, 2, 3], [], [1]],
        [1.0, 1, "1", None, True, [1.0], {"a": 1}, ()],
        [{"a": 1, "b": 2.5}, {"b": 2.5, "a": 1}, {"b": 0.5, "a": "x"}],
        [{"a": 1}, {"b": 1}, {"a": 1, "b": 2}, {}],
        [{}, {}], [[], []], [(1, "a"), [2, "b"], (3, None)],
        [{"%s": {"%d": i / 3.0, "a%": [i, "%s", {"%%": None}]}} for i in range(3)],
    ], ids=["keys", "ragged", "mixed-types", "key-orders", "key-sets", "empty-dicts",
            "empty-lists", "lists-and-tuples", "nested-keys"])
    def test_column_layouts(self, value):
        # as a declared table too, whose row template marks its slots with a NUL
        expected = json.dumps(value, sort_keys=True, indent=2)
        assert render_json(value) == expected
        assert render_json(_declare(value)) == expected

    @pytest.mark.parametrize("value", [
        # the same float objects under two keys and at a list position
        [{"a": x, "b": x, "c": [i, x]} for i, x in enumerate([_X, _Y, 0.5, -0.0])],
        # equal by == but not identical: 0.0 and -0.0 differ in repr
        [{"a": x, "b": y} for x, y in zip([0.0, 1.5], [-0.0, 1.5])],
        [{"a": x, "b": y} for x, y in zip([_X, 0.0, _Y], [_X, -0.0, _Y])],
        # the same first and last objects, another in the middle
        [{"a": x, "b": y} for x, y in zip([_X, 0.25, _Y], [_X, 0.75, _Y])],
        # one object throughout, equal but distinct objects, and 0.0 around -0.0
        [{"level": _X, "x": float(repr(_Y)), "z": z} for z in (_Z, -0.0, _Z)],
    ], ids=["same-objects", "signed-zeros", "signed-zero-inside", "same-ends",
            "one-object"])
    def test_shared_float_columns(self, value):
        assert render_json(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_shared_non_finite_columns(self):
        floats = [1.0, math.inf, math.nan, -math.inf, -0.0]
        value = [{"a": x, "b": [x, math.nan], "c": x} for x in floats]
        text = render_json(value)
        expected = _non_finite_as_strings(value)
        assert strict_loads(text) == expected
        assert text == json.dumps(expected, sort_keys=True, indent=2)

    @pytest.mark.parametrize("n", [1, report._BLOCK - 1, report._BLOCK, report._BLOCK + 1,
                                   2 * report._BLOCK + 1, 2 * report._BLOCK + 3],
                             ids=["one", "block-1", "block", "block+1", "2block+1", "2block+3"])
    def test_block_boundaries(self, n):
        rows = _rows(n)
        for value in (rows, rows[:-1] + [None], {"per_study": rows}):
            assert render_json(value) == json.dumps(value, sort_keys=True, indent=2)
        table = _declared_rows(n)
        for value in (table, {"per_study": table}, [table, table]):
            expected = json.dumps(_non_finite_as_strings(value), sort_keys=True, indent=2)
            assert render_json(value) == expected

    def test_large_meta_report(self, capsys, tmp_path):
        # about a quarter of a meta-large table, through the equality gate
        table = _counts_table(tmp_path, 2500)
        results = run_json(capsys, ["--json", "meta", table])["results"]
        assert results["n_studies"] == len(results["per_study"]) == 2500

    def test_run_streams_the_report(self, monkeypatch, tmp_path):
        # run writes render_json's text through write_json, a block at a time
        table = _counts_table(tmp_path, 2500)
        argv = ["--json", "meta", table]
        calls, writes = [], []
        def spy(report, write):
            calls.append(report)
            write_json(report, write)
        monkeypatch.setattr(cli, "write_json", spy)
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
        assert run(argv) == 0
        (written,) = calls
        args = cli.parse_args(argv)
        assert written == report.envelope(args, *cli.cmd_meta(args))
        assert "".join(writes) == render_json(written) + "\n"
        assert len(writes) > 2500 // report._BLOCK

    def test_report_memory(self, monkeypatch, tmp_path):
        # A 10 000-study report, less its text in the captured stdout, peaks
        # at 5.21-5.28 MB traced, its per-study rows joined from pool's
        # columns a block at a time (5.27-5.34 MB when each row was a
        # %-format); built as 10 000 nested row dicts, it took 14.0-14.2 MB.
        # The peak is in the rendering, after the study table is freed. The
        # bound leaves a 15 % margin over 5.34 MB. The gate would hold whole
        # texts: the real seam runs.
        monkeypatch.setattr(cli, "write_json", write_json)
        table = _counts_table(tmp_path, 10_000)
        out = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                assert run(["--json", "meta", table]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - len(out.getvalue())) / 1e6 < 6.2

    @pytest.mark.parametrize("value", [{2: "a", 10: "b"}, {1.5: 0, -0.0: 1},
                                       {True: 0, False: 1}, {None: 0},
                                       [{2: "a"}, {2: "b"}], [{"a": 0}, {1: 0}],
                                       [[{None: 0}], [{None: 1}]]])
    def test_scalar_keys_raise(self, value):
        # every report has str keys; json.dumps would write these as strings
        with pytest.raises(TypeError):
            render_json(value)

    def test_non_finite_floats_are_strings(self):
        text = render_json({"g": math.inf, "ci": [-math.inf, math.nan], "p": None})
        assert strict_loads(text) == {"g": "inf", "ci": ["-inf", "nan"], "p": None}
        # float columns: by position, and by key
        columns = {"rows": [[1.0, math.inf], [math.nan, -math.inf]],
                   "dicts": [{"g": 0.5}, {"g": math.inf}]}
        assert strict_loads(render_json(columns)) == {
            "rows": [[1.0, "inf"], ["nan", "-inf"]], "dicts": [{"g": 0.5}, {"g": "inf"}]}

    @pytest.mark.parametrize("value", [{1, 2}, {"a": [frozenset()]}, {(1,): 2},
                                       [{1}, {2}], [[frozenset()], [frozenset()]],
                                       [{"a": {1}}, {"a": {2}}]],
                             ids=["set", "nested", "tuple-key", "set-column",
                                  "nested-column", "dict-column"])
    def test_unsupported_types_raise(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            render_json(value)


def _fuzz_argv(rng):
    """One extreme but finite command: |estimate| up to float max, se down to
    5e-324, p down to 1e-300, --level up to 1 - 1e-12. Numbers go as
    --opt=value."""
    def magnitude(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    def estimate(se):
        if rng.random() < 0.5:   # |z| up to 40 at any scale
            return min(rng.uniform(-40.0, 40.0) * se, sys.float_info.max)
        return rng.choice([-1.0, 1.0]) * magnitude(-3, 308)

    kind = rng.choice(["ancred", "ancred-ci", "sceptical", "advocacy", "ic", "fpr"])
    if kind == "fpr":
        argv = ["fpr", f"--p={magnitude(-300, 0) * 0.999!r}",
                rng.choice([f"--fpr={magnitude(-6, 0) * 0.999!r}", "--fpr-equals-p"])]
    elif kind == "ancred-ci":
        lower = estimate(1.0)
        # nonempty, also where lower + the width rounds to lower
        upper = max(lower + abs(estimate(1.0)), math.nextafter(lower, math.inf))
        argv = ["ancred", f"--lower={lower!r}", f"--upper={upper!r}"]
    else:
        se = 5e-324 if rng.random() < 0.05 else magnitude(-323, 3)
        argv = [f"--estimate={estimate(se)!r}", f"--se={se!r}"]
        if kind == "ancred":
            argv = ["ancred", *argv]
            if rng.random() < 0.5:
                argv.append(f"--rate={rng.uniform(1e-6, 1.0)!r}")
        else:
            argv = ["bf", *argv, f"--mode={kind}", f"--gamma={magnitude(-30, 0) * 0.999!r}"]
    if rng.random() < 0.5:
        level = rng.choice([1.0 - 1e-12, 1.0 - magnitude(-12, 0) * 0.999, rng.uniform(0.01, 0.99)])
        argv = [f"--level={level!r}", *argv]
    return ["--json", *argv] if rng.random() < 0.7 else argv


def _fuzz_table(rng, bits=53.0):
    """The text of one extreme study table: 1-50 rows of either schema, with
    se down to 5e-324, |estimate| up to 1e308 and arm sizes log-uniform up to
    2^bits, and whitespace-only rows between. A table's rows share a scale of se, and
    0, 2 or 20 % of them are bad (a zero cell, a bad count or value, a
    non-finite estimate, a z or precision past the float range, a short row
    or a repeated id), so that about half of the tables pool."""
    counts = rng.random() < 0.5
    bad = rng.choice([0.0, 0.0, 0.02, 0.2])
    scale = rng.uniform(-3.0, 3.0) if rng.random() < 0.5 else rng.uniform(-323.0, 308.0)
    lines = ["id,events_t,n_t,events_c,n_c" if counts else "id,estimate,se"]
    for i in range(rng.randint(1, 50)):
        if rng.random() < 0.05:
            lines.append(rng.choice(["", " ", " , , ", "\t,,"]))
        # 2^x as int(2.0 ** x), shifted on as an int past 2^1000
        n_t, n_c = (int(2.0 ** min(x, 1000.0)) << max(int(x) - 1000, 0)
                    for x in (rng.uniform(1.0, bits) for _ in range(2)))
        se = max(10.0 ** min(scale + rng.uniform(-3.0, 3.0), 308.0), 5e-324)
        if rng.random() < 0.95:
            estimate = min(rng.uniform(-40.0, 40.0) * se, sys.float_info.max)
        else:
            estimate = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 308.0)
        cells = ([rng.randint(1, n_t - 1), n_t, rng.randint(1, n_c - 1), n_c] if counts
                 else [repr(estimate), repr(se)])
        if rng.random() < bad:
            kind = rng.randrange(4)
            if kind == 0:     # a zero cell, or an impossible count
                cells[0] = rng.choice([0, n_t, -1, n_t + 1]) if counts else "inf"
            elif kind == 1:   # not a number of the schema's kind
                cells[-1] = rng.choice(["2.5", "x", "nan", "0", "-1"])
            elif kind == 2:   # z or 1/se^2 past the float range
                cells = ([0, n_t, rng.randint(1, n_c - 1), n_c] if counts
                         else [rng.choice(["1e308", "1e-300", "-2e300"]), "5e-324"])
            else:             # a short row, or the id of the row before
                cells = cells[:-1] if rng.random() < 0.5 else cells
                i = i - 1 if i else i
        lines.append(",".join([f"S{i}", *map(str, cells)]))
    return "\n".join(lines) + "\n"


class TestFuzz:
    def test_exit_codes_and_strict_json(self, capsys):
        # in process, so the renderer's equality gate sees every report too
        rng = random.Random(7001)
        codes = []
        for _ in range(1500):
            argv = _fuzz_argv(rng)
            code = run(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err, argv
            ci = [float(arg[8:]) for arg in argv if arg.startswith(("--lower=", "--upper="))]
            if ci and all(map(math.isfinite, ci)):   # a finite, nonempty interval is no bad input
                assert not err.startswith("data error"), (argv, err)
            if code == 0 and "--json" in argv:
                strict_loads(out)
            elif code == 0 and "fpr" not in argv:
                # an ancred or bf number that would take 16 characters is in g form
                numbers = re.findall(r"[-.\d]+(?:e[-+]\d+)?", out)
                assert max(map(len, numbers), default=0) < 16, (argv, out)
            codes.append(code)
        assert {0, 2, 3} <= set(codes)

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("ci", [
        ["--lower", "5e-324", "--upper", "1e-323"],
        ["--lower", "0", "--upper", "5e-324"],
        ["--lower", "1e-320", "--upper", "2e-320"],
        ["--lower", "-1e-320", "--upper", "1e-320"],
        ["--lower", "1e308", "--upper", "1.7e308"],
        ["--lower", "-1.7976931348623157e308", "--upper", "-1e308"],
        ["--lower", "-1.7e308", "--upper", "1.7e308"],
        ["--lower=1.589268841848286e+32", "--upper=5.709113530450165e+257"],
    ], ids=" ".join)
    def test_ci_edges(self, capsys, ci, json_flag):
        # the edges of EffectEstimate.from_ci that _fuzz_argv never draws: subnormal
        # widths, and a sum or width past the float range; a new draw there
        # would move every later one
        code = run([*json_flag, "ancred", *ci])
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 0 and json_flag:
            strict_loads(out)

    def test_meta_tables(self, capsys, tmp_path):
        rng = random.Random(7101)
        table = tmp_path / "fuzz.csv"
        codes = []
        for i in range(800):
            # then 200 tables whose counts pass 2^53, and 1e308
            table.write_text(_fuzz_table(rng, 53.0 if i < 600 else rng.choice([120.0, 1100.0])))
            argv = ["meta", str(table)]
            if rng.random() < 0.3:
                argv = [f"--level={rng.uniform(0.01, 0.99)!r}", *argv]
            if rng.random() < 0.75:
                argv = ["--json", *argv]
            code = run(argv)
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3), table.read_text()
            assert "Traceback" not in err, table.read_text()
            if code == 2:   # bad input is named: the table and its line, or the study
                assert err.startswith((f"data error: {table}:", "data error: study '")), (
                    err, table.read_text())
            if code == 0 and "--json" in argv:
                strict_loads(out)
            codes.append(code)
        assert {0, 2, 3} <= set(codes)
        assert codes.count(0) >= len(codes) // 4


# the names `revbayes` exports, by the module that defines them
_EXPORTED = {
    "errors": "DataError NonexistenceError",
    "model": "DEFAULT_LEVEL EffectEstimate NormalPrior ci_limits",
    "meta": "FailSafeResult MetaResult PosteriorSummary Study StudyDiagnostics "
            "estimate_from_counts failsafe_n forward_update pool read_study_table "
            "reverse_update",
    "ancred": "AdvocacyAnalysis CredibilityVerdict EquivalentTrial ScepticalAnalysis "
              "advocacy_prior credibility_ratio credibility_ratio_bound "
              "equivalent_trial intrinsic_boundary_p intrinsic_credibility p_intrinsic "
              "p_rep sceptical_analysis sceptical_relative_variance scepticism_limit",
    "bf": "BfAdvocacySolution BfScepticalSolution Branch advocacy_for_gamma "
          "advocacy_prior_interval_or bf01_normal_prior bf01_sceptical "
          "bf12_sceptical_vs_optimistic bf_intrinsic find_root lambert_w_log "
          "sceptical_g_for_gamma z_gamma",
    "fpr": "CalibrationKind min_bf prior_bound_fpr_equals_p prior_prob_for_fpr",
    "statfn": "min_bf_els min_bf_local norm_quantile two_sided_p",
    "__init__": "bundled_dataset_path",
}


# the help of the top level and of each subcommand, as argparse laid it out at
# 80 columns
_HELP = {
    "": """\
usage: revbayes [-h] [--version] [--level LEVEL] [--json] [--scale {log,or}]
                {meta,ancred,bf,fpr} ...

Reverse-Bayes evidence assessment toolkit

positional arguments:
  {meta,ancred,bf,fpr}
    meta                fixed-effect meta-analysis of a study table
    ancred              Analysis of Credibility
    bf                  Bayes-factor credibility analysis
    fpr                 false positive risk bounds

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
  --level LEVEL         confidence/credibility level (default 0.95)
  --json                emit the deterministic JSON report
  --scale {log,or}      display scale for meta's effects (default log)
""",
    "meta": """\
usage: revbayes meta [-h] file

positional arguments:
  file        CSV with header id,events_t,n_t,events_c,n_c or id,estimate,se

options:
  -h, --help  show this help message and exit
""",
    "ancred": """\
usage: revbayes ancred [-h] [--estimate ESTIMATE] [--se SE] [--lower LOWER]
                       [--upper UPPER] [--rate RATE]

options:
  -h, --help           show this help message and exit
  --estimate ESTIMATE  log OR point estimate
  --se SE              standard error
  --lower LOWER        CI lower limit (log OR)
  --upper UPPER        CI upper limit (log OR)
  --rate RATE          event rate for the equivalent prior trial
""",
    "bf": """\
usage: revbayes bf [-h] --estimate ESTIMATE --se SE [--gamma GAMMA]
                   [--mode {sceptical,advocacy,ic}]

options:
  -h, --help            show this help message and exit
  --estimate ESTIMATE
  --se SE
  --gamma GAMMA         Bayes factor cut-off (default 1/10)
  --mode {sceptical,advocacy,ic}
""",
    "fpr": """\
usage: revbayes fpr [-h] --p P [--fpr FPR]
                    [--calibration {all,local_z,simple_z,e_p_log_p,e_q_log_q,els_all_priors}]
                    [--fpr-equals-p] [--grid]

options:
  -h, --help            show this help message and exit
  --p P                 two-sided p-value
  --fpr FPR             target false positive risk (default 0.05)
  --calibration {all,local_z,simple_z,e_p_log_p,e_q_log_q,els_all_priors}
  --fpr-equals-p        bound Pr(H0) under the claim FPR = p
  --grid                also emit plot data over a log-spaced p grid
""",
}


class TestPackage:
    # fresh interpreters, so the checks see what importing the package loads
    @staticmethod
    def env(**changes) -> dict:
        """os.environ with the package on PYTHONPATH and each of changes set,
        or unset where its value is None."""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **changes}
        return {name: value for name, value in env.items() if value is not None}

    def python(self, *args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, cwd=ROOT, env=self.env())

    def test_import_leaves_cli_unloaded(self):
        proc = self.python("-c", "import sys, revbayes; "
                           "print('revbayes.cli' in sys.modules, 'argparse' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_cli_import_skips_dataclasses(self):
        # dataclasses, with inspect behind it, is most of a cold process's import
        proc = self.python("-c", "import sys; from revbayes.cli import main; "
                           "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    def test_cli_import_loads_only_what_it_runs(self):
        # norm_quantile calls _statistics' C AS241, not statistics; the encoder
        # is _json's; model, meta, ancred, bf and fpr load with their
        # subcommands, and csv with a table that needs it; no module of the
        # package imports __future__
        unloaded = ["statistics", "fractions", "decimal", "json", "csv", "revbayes.model",
                    "revbayes.meta", "revbayes.ancred", "revbayes.bf", "revbayes.fpr",
                    "__future__"]
        proc = self.python("-c", "import sys; from revbayes.cli import main; "
                           f"print([m for m in {unloaded!r} if m in sys.modules])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_text_run_skips_hashlib(self):
        # only --json prints input_digest, so a text run loads no hash at all
        proc = self.python("-c", "import sys; from revbayes.cli import run; "
                           "run(['ancred', '--estimate', '-0.5', '--se', '0.2']); "
                           "print([m for m in ('hashlib', '_hashlib', '_sha2', '_sha256') "
                           "if m in sys.modules])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    # the modules each subcommand loads, besides revbayes itself, the cli and
    # what the cli imports for every subcommand
    _LOADS = {"meta": {"revbayes.model", "revbayes.meta"},
              "ancred": {"revbayes.model", "revbayes.ancred"},
              "bf": {"revbayes.model", "revbayes.bf"}, "fpr": {"revbayes.fpr"},
              "fpr --grid": {"revbayes.fpr"}}

    @staticmethod
    def expected(table: dict, argv) -> set:
        """The entry of table for argv: its subcommand's, or fpr --grid's."""
        command = next(arg for arg in argv if arg in table)
        return table[f"{command} --grid" if "--grid" in argv else command]

    def loaded_modules(self, argv) -> tuple[set, set]:
        """The watched modules that a run of argv loads, and those its
        subcommand is expected to load; of the package, only the cli's modules
        and the watched ones may load. _hashlib is OpenSSL's libcrypto, which
        hashlib loads where the interpreter has no _SHA256; no run needs the
        json package or __future__, nor argparse, gettext and locale, which
        the command line's own parser replaced."""
        watched = ["revbayes.model", "revbayes.meta", "revbayes.ancred", "revbayes.bf",
                   "revbayes.fpr", "csv", "json", "json.decoder", "json.scanner",
                   "__future__", "argparse", "gettext", "locale"]
        if importlib.util.find_spec(_SHA256) is not None:
            watched.append("_hashlib")
        proc = self.python("-c", "import sys; from revbayes.cli import run; "
                           "code = run(sys.argv[1:]); "
                           f"print((code, [m for m in {watched!r} if m in sys.modules], "
                           "sorted(m for m in sys.modules if m.startswith('revbayes'))))",
                           *argv)
        assert proc.returncode == 0, proc.stderr
        code, loaded, package = ast.literal_eval(proc.stdout.splitlines()[-1])
        assert code == 0
        expected = self.expected(self._LOADS, argv)
        assert package == sorted(
            {"revbayes", "revbayes.cli", "revbayes.errors", "revbayes.options",
             "revbayes.report", "revbayes.statfn"} | {m for m in set(loaded) if m.startswith("revbayes.")})
        return set(loaded), expected

    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_subcommand_loads_only_its_modules(self, argv):
        # a --json run, as cold-cli starts it, which compiles no text printer
        loaded, expected = self.loaded_modules(["--json", *argv])
        assert loaded == expected

    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_text_run_loads_its_printers(self, argv):
        # the printers are in report, which every run loads, so a text run
        # loads what a --json run of its subcommand does
        loaded, expected = self.loaded_modules(argv)
        assert loaded == expected

    @pytest.mark.parametrize("argv", [[*json, *argv] for argv in readme_examples()
                                      for json in ([], ["--json"])]
                             + [["-h"], ["--help"], ["ancred", "-h"], ["--version"]],
                             ids=" ".join)
    def test_only_its_run_calls_a_table_writer_or_the_help(self, argv, capsys, monkeypatch):
        # only a --json run of a Table (meta's studies, fpr's grid) calls the
        # block writers, as the text printers take its rows one at a time, and
        # only -h or --help renders the help
        watched = {function.__code__ for function in (
            report.table_texts, report._block_texts, report._column_texts, options.help_text)}
        calls = set()
        monkeypatch.chdir(ROOT)
        sys.setprofile(lambda frame, event, _: event == "call" and frame.f_code in watched
                       and calls.add(frame.f_code.co_name))
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.setprofile(None)
        if {"-h", "--help"} & set(argv):
            expected = {"help_text"}
        elif "--json" in argv and ("meta" in argv or "--grid" in argv):
            expected = {"table_texts", "_block_texts", "_column_texts"}
        else:
            expected = set()
        assert (code, calls) == (0, expected)

    # the runners, the counts code, Study, the root finders and the calibrations
    # that a run of each subcommand compiles: cli keeps cmd_meta, only meta
    # compiles Study (has_counts), only bf runs the root finders, and bf takes
    # its minimum Bayes factors from statfn and loads no fpr
    _COMPILES = {"meta": {"cmd_meta", "theta_se", "estimate_from_counts", "has_counts"},
                 "ancred": {"cmd_meta", "cmd_ancred"},
                 "bf": {"cmd_meta", "cmd_bf", "find_root", "lambert_w_log"},
                 "fpr": {"cmd_meta", "cmd_fpr", "prior_prob_for_fpr"},
                 "fpr --grid": {"cmd_meta", "cmd_fpr", "prior_prob_for_fpr"}}

    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_subcommand_compiles_only_its_code(self, argv, tmp_path):
        # the package modules of each compile audit event, in a process with no
        # bytecode to read, as in a benchmark run
        script = ("import sys; compiled = []; sys.addaudithook(lambda event, args: "
                  "event == 'compile' and compiled.append(args[1])); "
                  "from revbayes.cli import run; code = run(sys.argv[1:]); "
                  "print((code, compiled))")
        proc = subprocess.run([sys.executable, "-c", script, "--json", *argv],
                              capture_output=True, text=True, cwd=ROOT,
                              env=self.env(PYTHONPYCACHEPREFIX=str(tmp_path),
                                           PYTHONDONTWRITEBYTECODE="1"))
        assert proc.returncode == 0, proc.stderr
        code, compiled = ast.literal_eval(proc.stdout.splitlines()[-1])
        assert code == 0
        functions = {node.name for path in compiled if pathlib.Path(path).parent == SRC
                     for node in ast.walk(ast.parse(pathlib.Path(path).read_bytes()))
                     if isinstance(node, ast.FunctionDef)}
        watched = set().union(*self._COMPILES.values())
        assert functions & watched == self.expected(self._COMPILES, argv)

    @pytest.mark.parametrize("argv", [[*json, *argv] for argv in readme_examples()
                                      for json in ([], ["--json"])]
                             + [["-h"], ["--version"]], ids=" ".join)
    def test_cold_process_loads_no_typing(self, argv):
        # under -S, as no site has loaded them first: the records are namedtuples,
        # so no process loads typing or the re it imports, and only bf and fpr,
        # whose Branch and CalibrationKind are public enums, load enum
        barred = ("typing", "re") if {"bf", "fpr"} & set(argv) else ("typing", "re", "enum")
        script = ("import atexit, sys; atexit.register(lambda: print("
                  f"[m for m in {barred!r} if m in sys.modules], file=sys.stderr)); "
                  "from revbayes.cli import main; main()")
        proc = subprocess.run([sys.executable, "-S", "-c", script, *argv],
                              capture_output=True, text=True, cwd=ROOT, env=self.env())
        assert (proc.returncode, proc.stderr) == (0, "[]\n")

    def test_quoted_table_loads_csv(self, tmp_path):
        # a table that the column pass cannot read is read by csv's row parser
        f = tmp_path / "quoted.csv"
        f.write_text('id,estimate,se\n"A, the first",0.1,0.2\n')
        loaded, expected = self.loaded_modules(["--json", "meta", str(f)])
        assert "csv" not in expected and loaded == expected | {"csv"}

    @pytest.mark.parametrize("argv, fields, pinned", [
        (["meta", DATA], None,
         "27facb938d8a5c2ccb01d744c7d9bb756dec70713d37144668da3d12ea9c5820"),
        (["bf", "--estimate", "-0.53", "--se", "0.145", "--mode", "ic"],
         {"estimate": -0.53, "se": 0.145, "gamma": 0.1, "mode": "ic"},
         "9f005330524036b04155519ff58fd6fddb7679329acae1211d5b229fd48c415a"),
        # canonical JSON writes the nan as NaN, where the report writes "nan"
        (["fpr", "--p", "0.05", "--fpr", "nan", "--fpr-equals-p"],
         {"p": 0.05, "fpr": math.nan, "calibration": "all", "fpr_equals_p": True,
          "grid": False},
         "a0ab33860b3e6d92fb5e7644a3aefa46016121d973d0437a6c995d3f49e3bc56"),
    ], ids=["meta", "bf", "fpr-nan"])
    @pytest.mark.parametrize("sha256", [_SHA256, "hashlib"])
    def test_input_digest_value(self, capsys, monkeypatch, argv, fields, pinned, sha256):
        # the sha256 of the study file's bytes, or of the inputs as canonical JSON,
        # by either module, and pinned as earlier versions wrote it
        if sha256 == "hashlib":
            monkeypatch.setitem(sys.modules, _SHA256, None)   # its import fails
        data = (pathlib.Path(DATA).read_bytes() if fields is None
                else json.dumps(fields, sort_keys=True).encode("utf-8"))
        digest = run_json(capsys, ["--json", *argv])["input_digest"]
        assert digest == hashlib.sha256(data).hexdigest() == pinned

    @given(st.dictionaries(st.text(), st.one_of(
        st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]),
        st.integers(), st.booleans(), st.none(), st.text())))
    def test_input_digest_is_canonical_json(self, fields):
        # the digest hashes json.dumps(fields, sort_keys=True)'s bytes, written
        # without the json package; st.text() draws non-ASCII and control characters
        data = json.dumps(fields, sort_keys=True).encode("utf-8")
        digest = report._input_digest(types.SimpleNamespace(json=True), fields)
        assert digest == hashlib.sha256(data).hexdigest()

    def test_import_loads_no_submodule(self):
        proc = self.python("-c", "import sys, revbayes; "
                           "print([m for m in sys.modules if m.startswith('revbayes.')])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_lazy_exports(self):
        # each name resolves, on first access, to its home module's object
        exports = {name: module for module, names in _EXPORTED.items()
                   for name in names.split()}
        script = "\n".join([
            "import importlib, revbayes",
            f"exports = {exports!r}",
            "for name, module in exports.items():",
            "    home = (revbayes if module == '__init__'",
            "            else importlib.import_module('revbayes.' + module))",
            "    assert getattr(revbayes, name) is getattr(home, name), name",
            "names = sorted(exports)",
            "assert sorted(revbayes.__all__) == names, revbayes.__all__",
            "assert set(names) <= set(dir(revbayes))",
            "star = {}",
            "exec('from revbayes import *', star)",
            "assert sorted(k for k in star if k != '__builtins__') == names",
            "try:",
            "    revbayes.no_such_name",
            "except AttributeError as exc:",
            "    assert 'no_such_name' in str(exc)",
            "else:",
            "    raise AssertionError('no AttributeError')",
        ])
        proc = self.python("-c", script)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("args", [["-W", "error", "-m", "revbayes.cli"],
                                      ["-m", "revbayes"]],
                             ids=["revbayes.cli", "revbayes"])
    def test_version_entry_points(self, args):
        proc = self.python(*args, "--version")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, revbayes.__version__ + "\n", "")

    @pytest.mark.parametrize("command", list(_HELP), ids=lambda c: c or "top")
    def test_help(self, command):
        proc = self.python("-m", "revbayes", *command.split(), "-h")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, _HELP[command], "")

    @pytest.mark.parametrize("module", sorted(
        p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
    def test_no_stale_imports(self, module):
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == []

    @pytest.mark.parametrize("module", sorted(
        p.name for p in SRC.glob("*.py") if p.name != "__main__.py"))
    def test_no_module_imports_the_cli(self, module):
        # the package imports without the command line, which only __main__ starts
        assert "revbayes.cli" not in package_imports(SRC / module)

    def test_no_import_cycle(self):
        # the package's imports, module-level and function-local, form no
        # cycle, so that none is held apart by laziness alone. One edge is left
        # out: model.__getattr__ resolves model.Study to meta.Study, which
        # perfbench's tracer reads
        graph = {_module_name(path): package_imports(path) for path in SRC.glob("*.py")}
        graph["revbayes.model"].remove("revbayes.meta")
        try:
            graphlib.TopologicalSorter(graph).prepare()
        except graphlib.CycleError as exc:
            pytest.fail("import cycle: " + " -> ".join(exc.args[1]))

    def test_one_oracle_module(self):
        # each mpmath reference is written once, in tests/oracles.py
        importers = [path.name for path in sorted((ROOT / "tests").glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     and "mpmath" in {(getattr(node, "module", "") or "").split(".")[0],
                                      *(a.name.split(".")[0] for a in node.names)}]
        assert importers == ["oracles.py"]

    @pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
    def test_closures_evaluate_no_annotations(self, module):
        # no module defers annotations, so a def inside a function evaluates
        # its annotations on every call unless they are strings
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        evaluated = [f"{module}:{inner.lineno}"
                     for outer in ast.walk(tree) if isinstance(outer, ast.FunctionDef)
                     for inner in ast.walk(outer)
                     if isinstance(inner, ast.FunctionDef) and inner is not outer
                     for node in [inner.returns, *(a.annotation for a in ast.walk(inner.args)
                                                   if isinstance(a, ast.arg))]
                     if node is not None and not isinstance(node, ast.Constant)]
        assert evaluated == []

    def test_errors_typed_where_raised(self):
        # an input check raises DataError, so run catches no bare ValueError:
        # any other exception is a bug, and the fuzz shows its traceback. bf's
        # root finders, the statfn primitives that only bf calls, raise
        # ValueError for a caller's bug, as statfn's own primitives do
        def value_errors(module, node_type, field):
            tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
            return [f"{module}:{node.lineno}" for top in tree.body
                    if getattr(top, "name", None) not in ("lambert_w_log", "find_root")
                    for node in ast.walk(top)
                    if isinstance(node, node_type) and getattr(node, field) is not None
                    and any(isinstance(name, ast.Name) and name.id == "ValueError"
                            for name in ast.walk(getattr(node, field)))]
        assert [line for module in ("model.py", "meta.py", "ancred.py", "bf.py", "fpr.py")
                for line in value_errors(module, ast.Raise, "exc")] == []
        assert value_errors("cli.py", ast.ExceptHandler, "type") == []

    def test_standard_library_only(self):
        # numpy and scipy may be installed, but the package must not need them
        modules = set()
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules.update(a.name.split(".")[0] for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules.add(node.module.split(".")[0])
        assert "math" in modules
        # report._input_digest imports sha256 from _sha2 on Python 3.12 and later and
        # from _sha256 before; each interpreter lists only its own
        assert sorted(modules - sys.stdlib_module_names - {"_sha2", "_sha256"}) == []
        assert _SHA256 in sys.stdlib_module_names

    def test_every_export_has_a_caller(self):
        # a public name stays only while the package, the acceptance tests or
        # the README's quick start use it
        sources = [path.read_text(encoding="utf-8")
                   for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
        sources += [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"),
                    quick_start_block()]
        used = set()
        for text in sources:
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
        assert sorted(set(revbayes.__all__) - used) == []

    def test_one_table_reader(self):
        import revbayes.meta
        assert revbayes.read_study_table is revbayes.meta.read_study_table

    def test_one_level_and_boundary_decision(self):
        # statfn alone turns a level into alpha (alpha_for_level) and decides
        # the side of the critical z (critical_excess): no other module
        # subtracts a level from 1, and critical_ratio does not come back
        subtractions = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
                        if path.name != "statfn.py"
                        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                        and isinstance(node.left, ast.Constant) and node.left.value == 1
                        and "level" in ast.unparse(node.right).lower()]
        assert subtractions == []
        assert [path.name for path in sorted(SRC.glob("*.py"))
                if "critical_ratio" in path.read_text(encoding="utf-8")] == []

    def test_one_csv_route(self):
        # a study table is read by the comma split or by csv's row parser:
        # _read_rows alone imports csv, and no second comma split comes back
        def csv_imports(tree):
            return [node for node in ast.walk(tree)
                    if isinstance(node, ast.Import) and "csv" in [a.name for a in node.names]
                    or isinstance(node, ast.ImportFrom) and node.module == "csv"]

        tree = ast.parse((SRC / "meta.py").read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        assert [f.name for f in functions if csv_imports(f)] == ["_read_rows"]
        assert len(csv_imports(tree)) == 1
        assert "_split_columns" not in [f.name for f in functions]

    def test_one_pooling_routine(self):
        # meta._exact_pool alone pools normal summaries: pool, forward_update and
        # reverse_update each call it, and no other function in src/ forms a
        # weighted mean, (a*b + c*d)/(...) in floats or sum() over map(mul, ...),
        # where a change to the pooling step would miss a copy
        def weighted_mean(function):
            nodes = list(ast.walk(function))
            calls = [node.func.id for node in nodes
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
            products = [node for node in nodes
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "map" and isinstance(node.args[0], ast.Name)
                        and node.args[0].id == "mul"]
            return ("sum" in calls and bool(products)) or any(
                isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Add)
                and all(isinstance(term, ast.BinOp) and isinstance(term.op, ast.Mult)
                        for term in (node.left.left, node.left.right))
                for node in nodes)

        functions = {f"{path.name}:{node.name}": node for path in sorted(SRC.glob("*.py"))
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.FunctionDef)}
        assert [name for name, node in functions.items() if weighted_mean(node)] == [
            "meta.py:_exact_pool"]
        for caller in ("pool", "forward_update", "reverse_update"):
            assert "_exact_pool" in {node.func.id for node in ast.walk(functions[f"meta.py:{caller}"])
                                     if isinstance(node, ast.Call)
                                     and isinstance(node.func, ast.Name)}, caller

    @pytest.mark.parametrize(("json_flag", "unbuffered"),
                             [(["--json"], "1"), ([], "1"), (["--json"], None), ([], None)],
                             ids=["json", "text", "json-buffered", "text-buffered"])
    def test_closed_stdout_ends_quietly(self, tmp_path, json_flag, unbuffered):
        # a 5 000-study report, past a pipe's buffer, whose reader closes after one
        # line: exit 141, as for a process that SIGPIPE ends, and no traceback;
        # with stdout unbuffered and with its default buffer
        table = tmp_path / "large.csv"
        table.write_text("id,estimate,se\n" + "".join(f"S{i},-0.{i % 9 + 1},0.5\n"
                                                      for i in range(5000)))
        proc = subprocess.Popen([sys.executable, "-m", "revbayes", *json_flag, "meta", str(table)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
                                env=self.env(PYTHONUNBUFFERED=unbuffered))
        with proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            try:
                code = proc.wait(timeout=60)
            finally:
                proc.kill()   # a no-op once it has exited
            assert (code, proc.stderr.read()) == (141, b"")

    def closed_stdout(self, script: list[str], env: dict) -> subprocess.CompletedProcess:
        """A child interpreter running `script` whose stdout is a pipe that no
        process reads from: its first write to the pipe fails."""
        read, write = os.pipe()
        os.close(read)
        try:
            return subprocess.run([sys.executable, *script], stdout=write,
                                  stderr=subprocess.PIPE, cwd=ROOT, env=env, timeout=60)
        finally:
            os.close(write)

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--version"], ["ancred", "-h"]],
                             ids=" ".join)
    def test_closed_stdout_after_help_ends_quietly(self, argv):
        # with stdout buffered, -h and --version print into the buffer and end
        # parse_args; the write to the pipe comes after, at main's flush
        proc = self.closed_stdout(["-m", "revbayes", *argv], self.env(PYTHONUNBUFFERED=None))
        assert (proc.returncode, proc.stderr) == (141, b"")

    # an argv for each of main's exits, and its exit code
    _EXITS = {"success": (["--json", "ancred", "--estimate", "-0.5", "--se", "0.2"], 0),
              "usage": (["--level", "2", "ancred", "--estimate", "-0.5", "--se", "0.2"], 1),
              "data": (["ancred", "--estimate", "1.4e154", "--se", "2.6e-162"], 2),
              "nonexistence": (["bf", "--estimate", "-0.1", "--se", "0.2", "--gamma", "0.01"], 3),
              "help": (["-h"], 0), "closed": (["--json", "fpr", "--p", "0.005", "--grid"], 141)}

    @pytest.mark.parametrize("case", list(_EXITS))
    def test_exit_freezes_the_heap(self, case, tmp_path, capsys):
        # an atexit hook registered before main records whether the collector
        # froze more objects by the time the interpreter exits (Python 3.12.1
        # starts with 375 frozen); main's output is run's, in process, byte
        # for byte
        argv, expected = self._EXITS[case]
        flag = tmp_path / "frozen"
        script = ["-c", "import atexit, gc, sys; flag = sys.argv.pop(1); "
                  "before = gc.get_freeze_count(); atexit.register(lambda: "
                  "open(flag, 'w').write(str(gc.get_freeze_count() > before))); "
                  "from revbayes.cli import main; main()", str(flag), *argv]
        if case == "closed":
            proc = self.closed_stdout(script, self.env(PYTHONUNBUFFERED=None))
            assert (proc.returncode, proc.stderr) == (141, b"")
        else:
            try:
                assert run(argv) == expected
            except SystemExit as exc:   # the help
                assert exc.code == expected
            out, err = capsys.readouterr()
            proc = subprocess.run([sys.executable, *script], capture_output=True, text=True,
                                  cwd=ROOT, env=self.env(), timeout=60)
            assert (proc.returncode, proc.stdout, proc.stderr) == (expected, out, err)
        assert flag.read_text() == "True"

    def test_run_leaves_the_collector(self):
        # in-process callers keep their collector, whatever run returns
        argvs = [self._EXITS[case][0] for case in ("success", "usage", "data", "nonexistence")]
        proc = self.python("-c", "import gc; from revbayes.cli import run; "
                           "before = gc.get_freeze_count(); "
                           f"codes = [run(argv) for argv in {argvs!r}]; "
                           "print((codes, gc.get_freeze_count() - before, gc.isenabled()))")
        assert ast.literal_eval(proc.stdout.splitlines()[-1]) == ([0, 1, 2, 3], 0, True)


class TestDriver:
    def test_usage_errors_exit_one(self, capsys):
        assert run([]) == 1
        assert run(["meta"]) == 1
        assert run(["--level", "1.5", "meta", DATA]) == 1
        assert run(["fpr"]) == 1

    @pytest.mark.parametrize("command, argv", [
        ("ancred", ["ancred", "--estimate", "-0.53", "--se", "0.146"]),
        ("bf", ["--json", "bf", "--estimate", "-0.53", "--se", "0.145"]),
        ("fpr", ["fpr", "--p", "0.05"]),
    ], ids=["ancred", "bf", "fpr"])
    def test_scale_or_only_for_meta(self, capsys, command, argv):
        # only meta prints effects on the OR scale; elsewhere --scale or would be ignored
        assert run(["--scale", "or", *argv]) == 1
        assert capsys.readouterr() == (
            "", f"usage error: --scale or applies only to meta, not {command}\n")

    def test_calibration_choices(self, capsys):
        # a literal list, so that the parser loads no fpr; the help keeps its bytes
        with pytest.raises(SystemExit):
            run(["fpr", "-h"])
        choices = ",".join(["all"] + [kind.value for kind in CalibrationKind])
        assert f"--calibration {{{choices}}}" in capsys.readouterr().out

    def test_missing_file_exit_two(self, capsys):
        assert run(["meta", "/nonexistent/file.csv"]) == 2

    @pytest.mark.parametrize("argv", readme_examples(), ids=" ".join)
    def test_text_run_prints_each_warning_once(self, capsys, monkeypatch, argv):
        # run, not the subcommand's printer, prints the report's warnings: each
        # once, after the printer's lines
        monkeypatch.chdir(ROOT)
        assert run(argv) == 0
        plain = capsys.readouterr()
        envelope = cli.envelope
        monkeypatch.setattr(cli, "envelope", lambda args, results, fields, warnings:
                            envelope(args, results, fields, [*warnings, "first", "second"]))
        assert run(argv) == 0
        assert capsys.readouterr() == (plain.out + "warning: first\nwarning: second\n", "")

    @pytest.mark.parametrize("argv, rows, code, named", [
        ("meta {table}", "A,1e155,1\nB,1e155,1", 3, ""),
        ("ancred --estimate 1e155 --se 1", "", 0, ""),
        ("bf --estimate 1e155 --se 1", "", 0, ""),
        # se * se underflows to 0, or 1/(se * se) overflows to inf
        ("meta {table}", "A,0.1,1e-200\nB,0.2,2e-200", 3, "study 'A' has se = 1e-200"),
        ("meta {table}", "A,0.1,1e-160\nB,0.2,2e-160", 3, "study 'A' has se = 1e-160"),
        # each 1/se^2 is 1e308, and their sum overflows
        ("meta {table}", "A,0.1,1e-154\nB,0.2,1e-154", 3, "the pooled precision"),
        # se * se overflows, so each 1/se^2 and their sum underflow to 0
        ("meta {table}", "A,0.1,1e200\nB,0.2,1e200", 3, "the pooled precision"),
    ], ids=["meta", "ancred", "bf", "meta-se-1e-200", "meta-se-1e-160",
            "meta-pooled-precision", "meta-pooled-precision-underflow"])
    def test_z_squared_past_the_float_range(self, capsys, tmp_path, argv, rows, code,
                                            named):
        # z = 1e155: z * z is inf; meta reports an error, ancred its sceptical
        # tau^2 = 3.8e-310 and bf its limits, and none a traceback. A study whose
        # precision 1/se^2 is past the float range is named, and so is a pooled
        # precision that is.
        table = tmp_path / "huge.csv"
        table.write_text(f"id,estimate,se\n{rows}\n")
        assert run(shlex.split(argv.format(table=table))) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err

    @pytest.mark.parametrize("argv, named", [
        ("bf --estimate 0.5 --se 1 --gamma 1e-310 --mode advocacy",
         "the family's minimum is 0.8826"),
        ("ancred --estimate -0.53 --se 0.145 --rate 5e-324", "its patients per arm"),
        ("ancred --estimate -0.53 --se 0.145 --rate 1e-310", "its patients per arm"),
        ("ancred --estimate 1e-17 --se 3.7 --rate 5e-324", "its patients per arm"),
    ], ids=["bf-gamma", "ancred-rate-underflow", "ancred-patients-overflow",
            "ancred-event-count"])
    def test_extreme_cutoffs_and_rates(self, capsys, argv, named):
        # an OverflowError, a ZeroDivisionError, "inf events of inf patients"
        # and an empty min() before
        assert run(shlex.split(argv)) == 3
        err = capsys.readouterr().err
        assert err.startswith("nonexistence: ") and named in err

    def test_overflowing_z_is_named(self, capsys):
        # z = 1.4e154 / 2.6e-162 overflows; the error names it, not the
        # prior variance that would underflow to 0 from it
        assert run(["ancred", "--estimate", "1.4e154", "--se", "2.6e-162"]) == 2
        assert capsys.readouterr().err == (
            "data error: z = estimate / se overflows: 1.4e+154 / 2.6e-162\n")

    def test_runs_share_no_state(self, capsys):
        # one parser serves every run of the process
        assert run(["--json", "fpr", "--p", "0.05"]) == 0
        assert strict_loads(capsys.readouterr().out)["command"] == "fpr"
        assert run(["fpr", "--p", "0.05"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p 0.05, FPR 0.05: upper bound on Pr(H0)\n")
        assert "{" not in out

    @pytest.mark.parametrize("command", ["ancred", "bf"])
    def test_negative_number_in_scientific_notation(self, capsys, command):
        assert run(["--json", command, "--estimate", "-1e-05", "--se", "1e-06"]) == 0
        spaced = capsys.readouterr()
        assert run(["--json", command, "--estimate=-1e-05", "--se", "1e-06"]) == 0
        assert capsys.readouterr() == spaced

    def test_negative_exponent_forms(self, capsys):
        for value in ["-2.5E+1", "-.5e-3", "-5.e2", "-7"]:
            assert run(["--json", "ancred", "--estimate", value, "--se", "100"]) == 0, value
            assert strict_loads(capsys.readouterr().out)["results"]["estimate"][
                "log_or"] == float(value)
        assert run(["ancred", "--estimate", "-e5", "--se", "1"]) == 1
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code, err", [
        (["ancred", "1", "--foo"], 1, "usage error: unrecognized arguments: 1 --foo"),
        (["--jsonx", "fpr", "--p", "0.05", "extra"], 1,
         "usage error: unrecognized arguments: --jsonx extra"),
        (["bf", "x"], 1, "usage error: the following arguments are required: --estimate, --se"),
        (["ancred", "--", "x"], 1, "usage error: unrecognized arguments: -- x"),
        (["fpr", "--p", "0.05", "--", "--grid"], 1,
         "usage error: unrecognized arguments: -- --grid"),
        (["fpr", "--p", "--", "0.05"], 1, "usage error: argument --p: expected one argument"),
        (["--", "fpr"], 1, "usage error: argument command: invalid choice: '--' "
                           "(choose from 'meta', 'ancred', 'bf', 'fpr')"),
        (["meta", "x", "--", "y"], 1, "usage error: unrecognized arguments: y"),
        (["meta", "--", "-x"], 2, "data error: cannot read -x: [Errno 2] No such file or "
                                  "directory: '-x'"),
        (["meta", "-.5"], 2, "data error: cannot read -.5: [Errno 2] No such file or "
                             "directory: '-.5'"),
        (["fpr", "--p=0.05", "--fpr-e=", "--grid"], 1,
         "usage error: argument --fpr-equals-p: ignored explicit argument ''"),
        (["-h=1"], 1, "usage error: argument -h/--help: ignored explicit argument '1'"),
    ], ids=lambda v: shlex.join(v) if type(v) is list else None)
    def test_argparse_corners(self, capsys, argv, code, err):
        # surplus items in argv order, after the required check; a `--` ends
        # a subcommand's options and is surplus where no positional follows
        assert run(argv) == code
        assert capsys.readouterr() == ("", err + "\n")

    @given(st.text() | st.from_regex(_NUMBER, fullmatch=True)
           | st.text(alphabet="+-.0123456789eEinfatyINFATY_ \u0661", max_size=12))
    def test_number_check_is_the_pattern(self, text):
        # the float options' check, written without re, takes what the pattern
        # takes; what it refuses is a usage error, where float() took some
        from revbayes.options import _is_number
        assert _is_number(text) == bool(_NUMBER.fullmatch(text))

    @pytest.mark.parametrize("value", ["1_0", " 1", "1 ", "\u0661", "0x10", "1e", ".", "--1"])
    def test_float_spellings_beyond_the_pattern(self, capsys, value):
        assert run(["fpr", f"--p={value}"]) == 1
        assert capsys.readouterr().err == (
            f"usage error: argument --p: invalid float value: {value!r}\n")

    @pytest.mark.parametrize("level, code", [("1e-17", 2), ("0.9999999999", 0), ("5e-324", 2)])
    def test_extreme_levels(self, capsys, level, code):
        # below about 1.1e-16, 1 - level rounds to 1: a data error, not a traceback
        for argv in (["meta", DATA], ["ancred", "--estimate", "-0.53", "--se", "0.145"],
                     ["ancred", "--lower", "-0.96", "--upper", "0.29"],
                     ["bf", "--estimate", "-0.53", "--se", "0.145"]):
            assert run(["--level", level, *argv]) == code, argv
            assert capsys.readouterr().err == ("" if code == 0 else
                                               "data error: level must be in (0,1), with "
                                               f"1 - level a float below 1, got {level}\n")

    def test_level_flag_changes_interval(self, capsys):
        wide = run_json(capsys, ["--json", "--level", "0.99", "meta", DATA])
        narrow = run_json(capsys, ["--json", "--level", "0.8", "meta", DATA])
        w_lo, w_hi = wide["results"]["pooled"]["ci_log"]
        n_lo, n_hi = narrow["results"]["pooled"]["ci_log"]
        assert w_hi - w_lo > n_hi - n_lo


def _argv_ids(cases) -> list[str]:
    return [shlex.join(argv) or "(none)" for argv, _ in cases]


_USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (["--json"], "the following arguments are required: command"),
    (["foo"], "argument command: invalid choice: 'foo' "
              "(choose from 'meta', 'ancred', 'bf', 'fpr')"),
    (["meta"], "the following arguments are required: file"),
    (["meta", "a.csv", "b.csv"], "unrecognized arguments: b.csv"),
    (["meta", "a.csv", "--json"], "unrecognized arguments: --json"),
    (["--level", "x", "meta", "a.csv"], "argument --level: invalid float value: 'x'"),
    (["--level"], "argument --level: expected one argument"),
    (["--scale", "xx", "meta", "a.csv"],
     "argument --scale: invalid choice: 'xx' (choose from 'log', 'or')"),
    (["--json=1", "fpr", "--p", "0.05"], "argument --json: ignored explicit argument '1'"),
    (["ancred", "--estimate", "--se", "1"], "argument --estimate: expected one argument"),
    (["ancred", "--estimate", "-inf", "--se", "1"],
     "argument --estimate: expected one argument"),
    (["ancred", "--foo", "1"], "unrecognized arguments: --foo 1"),
    (["ancred", "-x"], "unrecognized arguments: -x"),
    (["bf"], "the following arguments are required: --estimate, --se"),
    (["bf", "--estimate", "1", "--se", "1", "--mode", "foo"],
     "argument --mode: invalid choice: 'foo' (choose from 'sceptical', 'advocacy', 'ic')"),
    (["fpr", "--p", "0.05", "--f", "0.1"],
     "ambiguous option: --f could match --fpr, --fpr-equals-p"),
    (["fpr", "--p", "0.05", "--grid=1"], "argument --grid: ignored explicit argument '1'"),
    (["fpr", "--p", "0.05", "extra"], "unrecognized arguments: extra"),
]
# abbreviations, a negative value as its own item, and the last of a repeated
# option, each with the command written in full
_FORMS = [
    (["ancred", "--e", "1", "--se", "1"], ["ancred", "--estimate", "1", "--se", "1"]),
    (["--lev", "0.9", "--j", "fpr", "--p", "0.05"],
     ["--level", "0.9", "--json", "fpr", "--p", "0.05"]),
    (["ancred", "--se", "1", "--estimate", "-.5"], ["ancred", "--estimate=-0.5", "--se=1"]),
    (["fpr", "--p", "0.05", "--fpr", "0.1", "--fpr", "0.2"],
     ["fpr", "--p", "0.05", "--fpr", "0.2"]),
]
# values that parse, and that the data checks then refuse
_DATA_ERRORS = [
    (["ancred", "--estimate=-inf", "--se", "1"], "estimate and se must be finite"),
    (["fpr", "--p", "nan"], "p-value must be in (0,1), got nan"),
]


class TestCommandLine:
    # what the command line parses to, through run alone: the exit code and
    # stderr of each malformed command, as argparse wrote them, and the forms
    # a well-formed command may take
    @pytest.mark.parametrize("argv, message", _USAGE_ERRORS, ids=_argv_ids(_USAGE_ERRORS))
    def test_usage_errors(self, capsys, argv, message):
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")

    @pytest.mark.parametrize("argv, full", _FORMS, ids=_argv_ids(_FORMS))
    def test_forms_of_one_command(self, capsys, argv, full):
        assert run(full) == 0
        written = capsys.readouterr()
        assert run(argv) == 0
        assert capsys.readouterr() == written

    @pytest.mark.parametrize("argv, message", _DATA_ERRORS, ids=_argv_ids(_DATA_ERRORS))
    def test_values_reach_the_data_checks(self, capsys, argv, message):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"data error: {message}\n")

    @given(st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324]))
    def test_float_reprs_parse(self, x):
        # the repr of any float is a value, and parses to that float: the
        # report echoes the FPR target, and the data check names it by repr
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["--json", "fpr", "--p", "0.05", f"--fpr={x!r}"])
        if 0.0 < x < 1.0:
            assert (code, err.getvalue()) == (0, "")
            assert strict_loads(out.getvalue())["results"]["fpr"] == x
        else:
            assert (code, err.getvalue()) == (2, f"data error: FPR must be in (0,1), got {x!r}\n")

    @given(st.from_regex(_NUMBER, fullmatch=True))
    def test_number_spellings_are_floats(self, text):
        # every spelling the pattern takes is one that float() takes
        assert text.isascii()
        x = float(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["fpr", "--p", "0.05", f"--fpr={text}"])
        assert code in (0, 2)
        assert code == 0 or err.getvalue() == f"data error: FPR must be in (0,1), got {x!r}\n"


class TestReadme:
    def test_cli_examples_run(self, capsys, monkeypatch):
        # each prints, byte for byte, what the README shows under it
        examples = readme_cli_block()
        assert len(examples) == 8
        monkeypatch.chdir(ROOT)  # the examples name the bundled table by its path
        for argv, head, shown in examples:
            assert run(argv) == 0, argv
            out = capsys.readouterr().out
            assert ("".join(out.splitlines(keepends=True)[:head]) if head else out) == shown, argv
            run(["--json"] + argv)
            first = capsys.readouterr().out
            run(["--json"] + argv)
            assert capsys.readouterr().out == first, argv

    def test_library_quick_start_runs(self):
        proc = subprocess.run([sys.executable, "-c", quick_start_block()],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
