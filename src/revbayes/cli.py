"""Command-line front end: parse, dispatch, write and exit, and the meta
report. The ancred, bf and fpr reports are built by the cmd_ function at the
end of their own modules, so that a process compiles only its own
subcommand's, and `report` wraps them and writes them as JSON or as text. The
command line is parsed in `options`.

Exit codes: 0 success, 1 usage error, 2 data error, 3 mathematical nonexistence
(e.g. sceptical prior undefined), 141 stdout closed. Any other exception is a bug.
"""

import gc
import importlib
import math
import os
import sys

from .errors import DataError, NonexistenceError
from .options import UsageError, parse_args
# model, meta, ancred, bf and fpr load with the subcommands that run them, so a
# cold process loads only what it runs
from .report import (ESTIMATE, HI, LO, LOG_OR, P, Table, envelope, estimate_columns,
                     estimate_payload, print_ancred, print_bf, print_fpr, print_meta,
                     write_json)


# ---------------------------------------------------------------- meta


def cmd_meta(args) -> tuple:
    # bound once, in this module, so that what rebinds cli.read_study_table,
    # cli.pool or cli.failsafe_n (perfbench's tracer) is what later runs call
    global failsafe_n, pool, read_study_table
    if "pool" not in globals():
        from .meta import failsafe_n, pool, read_study_table
    result = pool(read_study_table(args.file))
    fsn = failsafe_n(result, args.level)
    pooled_est = result.pooled.as_estimate()

    columns = estimate_columns(result.theta, result.se, args.level)
    sid, t_box, p_box, loo = range(len(columns), len(columns) + 4)
    columns += [result.ids, _nan_as_none(result.t_box), _nan_as_none(result.p_box)]
    if min(result.loo_precision) > 0.0:
        loo_layout = {"mean": loo, "precision": loo + 1}
        columns += [result.loo_mean, result.loo_precision]
    else:   # a study that stands alone has a flat prior, written as null
        loo_layout = loo
        columns.append([{"mean": mean, "precision": precision} if precision > 0.0 else None
                        for mean, precision in zip(result.loo_mean, result.loo_precision)])
    per_study = Table({"id": sid, "estimate": ESTIMATE, "leave_one_out_prior": loo_layout,
                       "t_box": t_box, "p_box": p_box,
                       "forest_row": [sid, LOG_OR, LO, HI, P, p_box]}, columns)

    results = {"pooled": estimate_payload(*pooled_est, args.level),
               "pooled_precision": result.pooled.precision,
               "n_studies": result.n_studies,
               "fail_safe_n": fsn._asdict(),
               "per_study": per_study}
    return results, None, ([] if result.n_studies > 1 else
                           ["single-study table: fail-safe N refers to n=1"])


def _nan_as_none(column):
    """The column with None for each nan; the column itself where its sum is not nan, as
    then no item is."""
    if not math.isnan(sum(column)):
        return column
    return [None if math.isnan(x) else x for x in column]


# ---------------------------------------------------------------- driver


# each subcommand's runner, or the module whose cmd_<subcommand> runs it, and its
# text printer. A runner returns what report.envelope wraps: its results, the
# fields its digest hashes (None to hash the study file) and its warnings
_RUNNERS = {"meta": (cmd_meta, print_meta), "ancred": ("ancred", print_ancred),
            "bf": ("bf", print_bf), "fpr": ("fpr", print_fpr)}


def run(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if not (0.0 < args.level < 1.0):
            raise UsageError(f"--level must be in (0,1), got {args.level!r}")
        if args.scale == "or" and args.command != "meta":   # only meta prints an OR scale
            raise UsageError(f"--scale or applies only to meta, not {args.command}")
        runner, printer = _RUNNERS[args.command]
        if type(runner) is str:
            runner = getattr(importlib.import_module("." + runner, __package__),
                             "cmd_" + args.command)
        report = envelope(args, *runner(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NonexistenceError as exc:
        print(f"nonexistence: {exc}", file=sys.stderr)
        return 3
    if args.json:
        write_json(report, sys.stdout.write)
        print()
    else:
        printer(report, args.scale)
        for warning in report["warnings"]:
            print(f"warning: {warning}")
    return 0


def main() -> None:
    try:
        try:
            code = run()
        except SystemExit as exc:   # -h, --help and --version, once printed
            code = exc.code
        sys.stdout.flush()   # a closed pipe raises here, not at exit
    except BrokenPipeError:   # as in `revbayes ... | head`; the signal module documents this idiom
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())   # exit's flush then passes
        code = 141   # what the shell reports for a process that SIGPIPE ended
    # At exit the interpreter's finalizer runs full collections over every
    # tracked object, the standard library's too: about 11 800 in a --json
    # ancred process, 3-7 ms on a 2-vCPU VM under Python 3.11, and they free
    # nothing. Frozen objects are not walked.
    # gc.disable() would not do: the finalizer's collections ignore it. Nor
    # would os._exit, which skips the atexit handlers, such as the one in
    # which coverage saves its data.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
