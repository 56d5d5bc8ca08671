import ast
import json
import math
import os
import pathlib
import random
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import revbayes
from revbayes import bundled_dataset_path, cli
from revbayes.cli import read_study_table, render_json, run
from revbayes.errors import DataError

DATA = str(bundled_dataset_path())
SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "revbayes"


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


@pytest.fixture(autouse=True)
def renders_as_json_dumps(monkeypatch):
    """The equality gate, on every report a test here renders: a finite
    report comes out as json.dumps(report, sort_keys=True, indent=2)."""
    def checked(report):
        text = render_json(report)
        try:
            expected = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
        except ValueError:   # non-finite floats, which json.dumps cannot write strictly
            return text
        assert text == expected
        return text
    monkeypatch.setattr(cli, "render_json", checked)


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
        f.write_text("id,estimate,se\nA,-0.5,0.2\nA,0.1,0.3\n")
        with pytest.raises(DataError, match="duplicate"):
            read_study_table(str(f))

    def test_blank_rows_skipped(self, tmp_path):
        f = tmp_path / "gaps.csv"
        f.write_text("id,estimate,se\nA,-0.5,0.2\n\n , , \nB,0.1,0.3\n")
        assert len(read_study_table(str(f))) == 2


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

    def test_estimate_and_ci_are_exclusive(self, capsys):
        assert run(["ancred", "--estimate", "-0.5", "--se", "0.2",
                    "--lower", "-1", "--upper", "0"]) == 1
        assert run(["ancred"]) == 1
        assert run(["ancred", "--estimate", "-0.5"]) == 1

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


class TestRenderJson:
    @given(_VALUES)
    def test_same_bytes_as_json_dumps(self, value):
        assert render_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [{2: "a", 10: "b"}, {1.5: 0, -0.0: 1},
                                       {True: 0, False: 1}, {None: 0}])
    def test_scalar_keys_as_json_dumps(self, value):
        assert render_json(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_non_finite_floats_are_strings(self):
        text = render_json({"g": math.inf, "ci": [-math.inf, math.nan], "p": None})
        assert strict_loads(text) == {"g": "inf", "ci": ["-inf", "nan"], "p": None}

    @pytest.mark.parametrize("value", [{1, 2}, {"a": [frozenset()]}, {(1,): 2}],
                             ids=["set", "nested", "tuple-key"])
    def test_unsupported_types_raise(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            render_json(value)


def _fuzz_argv(rng):
    """One extreme but finite command: |estimate| up to float max, se down to
    5e-324, p down to 1e-300, --level up to 1 - 1e-12. Numbers go as
    --opt=value, because argparse reads "-1e-05" after a space as an option."""
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
        argv = ["ancred", f"--lower={lower!r}", f"--upper={lower + abs(estimate(1.0))!r}"]
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
            if code == 0 and "--json" in argv:
                strict_loads(out)
            codes.append(code)
        assert {0, 2, 3} <= set(codes)


class TestPackage:
    # fresh interpreters, so the checks see what importing the package loads
    def python(self, *args):
        root = pathlib.Path(__file__).resolve().parents[1]
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True,
                              env={**os.environ, "PYTHONPATH": str(root / "src")})

    def test_import_leaves_cli_unloaded(self):
        proc = self.python("-c", "import sys, revbayes; "
                           "print('revbayes.cli' in sys.modules, 'argparse' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "False"]

    @pytest.mark.parametrize("args", [["-W", "error", "-m", "revbayes.cli"],
                                      ["-m", "revbayes"]],
                             ids=["revbayes.cli", "revbayes"])
    def test_version_entry_points(self, args):
        proc = self.python(*args, "--version")
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, revbayes.__version__ + "\n", "")

    @pytest.mark.parametrize("module", sorted(
        p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
    def test_no_stale_imports(self, module):
        # also: every absolute import is of the standard library
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        imported, modules = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
                modules.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
                if node.level == 0:
                    modules.add(node.module.split(".")[0])
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - used) == []
        assert sorted(modules - sys.stdlib_module_names) == []

    def test_one_table_reader(self):
        import revbayes.cli
        assert revbayes.read_study_table is revbayes.cli.read_study_table


class TestDriver:
    def test_usage_errors_exit_one(self, capsys):
        assert run([]) == 1
        assert run(["meta"]) == 1
        assert run(["--level", "1.5", "meta", DATA]) == 1
        assert run(["fpr"]) == 1

    def test_missing_file_exit_two(self, capsys):
        assert run(["meta", "/nonexistent/file.csv"]) == 2

    @pytest.mark.parametrize("argv", ["meta {table}", "ancred --estimate 1e155 --se 1",
                                      "bf --estimate 1e155 --se 1"],
                             ids=["meta", "ancred", "bf"])
    def test_z_squared_past_the_float_range(self, capsys, tmp_path, argv):
        # z = 1e155: z * z is inf; each command reports an error, not a traceback
        table = tmp_path / "huge.csv"
        table.write_text("id,estimate,se\nA,1e155,1\nB,1e155,1\n")
        assert run(shlex.split(argv.format(table=table))) in (2, 3)

    def test_level_flag_changes_interval(self, capsys):
        wide = run_json(capsys, ["--json", "--level", "0.99", "meta", DATA])
        narrow = run_json(capsys, ["--json", "--level", "0.8", "meta", DATA])
        w_lo, w_hi = wide["results"]["pooled"]["ci_log"]
        n_lo, n_hi = narrow["results"]["pooled"]["ci_log"]
        assert w_hi - w_lo > n_hi - n_lo


class TestReadme:
    def test_cli_examples_run(self, capsys, monkeypatch):
        root = pathlib.Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line, comments=True)[1:]
                    for line in block.splitlines() if line.startswith("revbayes ")]
        assert examples
        monkeypatch.chdir(root)  # the examples name the bundled table by its path
        for argv in examples:
            assert run(argv) == 0, argv
            capsys.readouterr()
            run(["--json"] + argv)
            first = capsys.readouterr().out
            run(["--json"] + argv)
            assert capsys.readouterr().out == first, argv

    def test_library_quick_start_runs(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library quick start", 1)[1]
        block = section.split("```python", 1)[1].split("```", 1)[0]
        proc = subprocess.run([sys.executable, "-c", block], capture_output=True,
                              text=True,
                              env={**os.environ, "PYTHONPATH": str(root / "src")})
        assert proc.returncode == 0, proc.stderr
