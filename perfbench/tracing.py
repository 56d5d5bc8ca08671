"""In-memory spans and counters recorded from outside the package.

Spans are kept in flat typed arrays (about 34 bytes each) and written to a
file only after the traced pass, outside every timed region. The package
itself is never edited: layers are timed by rebinding names in its modules,
and only for the traced phase.
"""

from __future__ import annotations

import gzip
import os
import time
from array import array
from collections import defaultdict

# statfn primitives, wrapped where each analysis module has bound them
STATFN_NAMES = ("find_root", "lambert_w", "norm_quantile")
ANALYSIS_MODULES = ("model", "meta", "ancred", "bf", "fpr", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self._stack: list[int] = []
        self.op_id = 0
        self.counts: dict[str, int] = defaultdict(int)
        self.fails: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def root(self, name: str, op_id: int) -> int:
        """Open the span of one whole operation."""
        self.op_id = op_id
        return self.begin(self.code(name))

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def begin(self, code: int) -> int:
        idx = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, count_evals: bool = False):
        code = self.code(name)
        evals = name + ".evals"

        def traced(*args, **kwargs):
            if count_evals:
                f = args[0]

                def counted(x):
                    self.counts[evals] += 1
                    return f(x)
                args = (counted,) + args[1:]
            idx = self.begin(code)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.fails[name] += 1
                raise
            finally:
                self.finish(idx)
        return traced

    def patch(self, owner, attr: str, name: str, count_evals: bool = False) -> None:
        """Rebind owner.attr to a traced wrapper; a missing name is skipped,
        so a module that stops importing it reads 0."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count_evals))

    def patch_runner(self, cli, command: str, name: str) -> None:
        """Wrap a subcommand's runner in cli.run's dispatch table, which
        holds the function objects bound at import."""
        runners = getattr(cli, "_RUNNERS", None)
        if not isinstance(runners, dict) or command not in runners:
            return
        fn, printer = runners[command]
        self._patches.append((runners, command, runners[command]))
        runners[command] = (self.wrap(fn, name), printer)

    def patch_package(self, pkg) -> None:
        """Trace the statfn primitives as bound in each analysis module and
        the layers cli.run passes through for `meta`."""
        for mod_name in ANALYSIS_MODULES:
            mod = getattr(pkg, mod_name, None)
            for fn in STATFN_NAMES:
                self.patch(mod, fn, "statfn." + fn, count_evals=(fn == "find_root"))
        self.patch(pkg.cli, "read_study_table", "cli.read_study_table")
        self.patch(pkg.cli, "pool", "meta.pool")
        self.patch(pkg.cli, "failsafe_n", "meta.failsafe_n")
        self.patch(pkg.model.Study, "effect_estimate", "model.effect_estimate")
        self.patch_runner(pkg.cli, "meta", "cli.cmd_meta")

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------- summaries

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time (ns), max duration."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            s = out.setdefault(self.names[self.name[i]],
                               {"calls": 0, "total_ns": 0, "self_ns": 0, "max_ns": 0})
            s["calls"] += 1
            s["total_ns"] += dur[i]
            s["self_ns"] += dur[i] - child[i]
            s["max_ns"] = max(s["max_ns"], dur[i])
        return out

    def render_s(self) -> float:
        """Mean seconds a cli.run spends outside cli.cmd_meta, over the
        runs that called it: argument parsing, JSON encoding, printing."""
        meta, run = self._codes.get("cli.cmd_meta"), self._codes.get("cli.run")
        spans = [i for i in range(len(self.start)) if self.name[i] == meta
                 and self.parent[i] >= 0 and self.name[self.parent[i]] == run]
        if meta is None or run is None or not spans:
            return 0.0
        outside = sum((self.end[p] - self.start[p]) - (self.end[i] - self.start[i])
                      for i in spans for p in (self.parent[i],))
        return outside / len(spans) / 1e9

    def reset(self) -> None:
        """Drop spans and counts, keeping names and installed wrappers."""
        for arr in (self.name, self.start, self.end, self.parent, self.op):
            del arr[:]
        self.counts.clear()
        self.fails.clear()

    def write(self, path: str) -> None:
        """One line per span: id, op, parent, name, start_ns, end_ns."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,op,parent,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.op[i]},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.start[i] - t0},{self.end[i] - t0}\n")


# ------------------------------------------------------------ layer metrics

# timed function -> unit of its mean time per call
TIMED = {
    "statfn.find_root": "us", "statfn.lambert_w": "us", "statfn.norm_quantile": "us",
    "bf.bf_intrinsic": "us", "bf.advocacy_for_gamma": "us",
    "bf.sceptical_g_for_gamma": "us",
    "ancred.sceptical_analysis": "us", "ancred.advocacy_prior": "us",
    "ancred.intrinsic_credibility": "us", "ancred.equivalent_trial": "us",
    "fpr.prior_prob_for_fpr": "us",
    "model.effect_estimate": "us", "meta.pool": "s", "meta.failsafe_n": "us",
    "cli.read_study_table": "s", "cli.cmd_meta": "s", "cli.run": "ms",
}
COUNTED = ("statfn.find_root", "statfn.lambert_w", "statfn.norm_quantile")
WITH_SELF = ("bf.bf_intrinsic", "bf.advocacy_for_gamma", "bf.sceptical_g_for_gamma",
             "meta.pool", "cli.cmd_meta")
# measured by the workloads themselves, 0 where a workload has no such layer
EXTRA = {
    "statfn.find_root.evals": "count", "ancred.equivalent_trial.max_ms": "ms",
    "fpr.grid_ms": "ms", "cli.render.s": "s",
    "init.import_ms": "ms", "proc.interpreter_ms": "ms",
    "trace.overhead": "ratio",
}
_SCALE = {"us": 1e3, "ms": 1e6, "s": 1e9}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name, unit in TIMED.items():
        if name in COUNTED:
            units[name + ".calls"] = "count"
        units[f"{name}.{unit}"] = unit
        if name in WITH_SELF:
            units[f"{name}.self_{unit}"] = unit
        units[name + ".fail"] = "count"
    units.update(EXTRA)
    return units


def layer_values(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase of `ops` operations. Counts
    are per operation; times are means per call (0 for a layer not called)."""
    summary = tracer.summary()
    values = dict.fromkeys(layer_units(), 0.0)
    for name, unit in TIMED.items():
        s = summary.get(name)
        if s:
            values[f"{name}.{unit}"] = s["total_ns"] / s["calls"] / _SCALE[unit]
            if name in WITH_SELF:
                values[f"{name}.self_{unit}"] = s["self_ns"] / s["calls"] / _SCALE[unit]
        if name in COUNTED:
            values[name + ".calls"] = (s["calls"] if s else 0) / ops
        values[name + ".fail"] = tracer.fails.get(name, 0) / ops
    values["statfn.find_root.evals"] = tracer.counts.get("statfn.find_root.evals", 0) / ops
    trial = summary.get("ancred.equivalent_trial")
    values["ancred.equivalent_trial.max_ms"] = trial["max_ns"] / 1e6 if trial else 0.0
    values["cli.render.s"] = tracer.render_s()
    return values
