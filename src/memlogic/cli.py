"""Command-line front end.

Usage::

    memlogic [CONFIG] SUBCOMMAND [options]

The optional leading positional is a flat-key config file.  A flag that sets
a setting has its config key for its argparse ``dest`` (``--seed`` sets
``experiment.seed``), and ``config.build_config`` builds the settings once:
the file's keys, then ``MEMLOGIC_OUTPUT_DIR`` as ``experiment.output_dir``,
then each given flag, each over the last.  Each command returns its run's
tables, the lines it prints and its exit code, and ``main`` writes every
table through ``analysis.write_exports`` before it prints a line.  The exit
code is 0 only when the run evaluated at least one trial and saw zero logical
failures and zero experiment errors, so scripts can gate on correctness; a
rejected setting, an unusable output directory or a usage error exits 2 with
a one-line message on stderr and nothing on stdout.  The config file is
checked alone before the arguments are parsed, so a misspelled subcommand is
reported as the file it was taken for, and no flag can rescue a bad file
value.  The argument parser is built once per process, at the first call,
and reused by every later one: argparse keeps no state between
``parse_args`` calls.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .analysis import (
    EXPORT_FORMATS,
    SweepPoint,
    run_1t1r_experiment,
    run_characterization,
    run_scouting_experiment,
    sweep_parameter,
    write_exports,
)
from .config import AppConfig, build_config, parse_config_file
from .device import NotFormedError
from .logic1t1r import (
    CASE_TABLE,
    LIBRARY_COLUMNS,
    InitFailureError,
    default_gate_library,
    load_gate_library,
    truth_table_of,
)

OUTPUT_DIR_ENV = "MEMLOGIC_OUTPUT_DIR"


def _ua(amps: float) -> str:
    return f"{amps * 1e6:.2f} µA"


def _kohm(ohms: float) -> str:
    return f"{ohms / 1e3:.2f} kΩ"


def _common_flags(parser: argparse.ArgumentParser, runs: bool = True,
                  tables: bool = True) -> None:
    if runs:  # only the commands that simulate read a seed and a cycle count
        parser.add_argument("--seed", type=int, dest="experiment.seed", metavar="SEED",
                            help="override the experiment seed")
        parser.add_argument("--cycles", type=int, dest="experiment.cycles", metavar="CYCLES",
                            help="override the cycle count")
    # An empty directory is left out, as an empty MEMLOGIC_OUTPUT_DIR is.
    parser.add_argument("-o", "--output", type=lambda text: text or None,
                        dest="experiment.output_dir", metavar="OUTPUT",
                        help="output directory for exports")
    if tables:
        parser.add_argument("--format", choices=EXPORT_FORMATS, dest="experiment.format",
                            help="export table format")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error: one line, exit 2, from main
        raise ValueError(f"{self.prog}: error: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="memlogic",
        description="Behavioral 1T1R in-memory logic simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", help="cycle cells and summarize both states")
    p.add_argument("--cells", type=int, default=10)
    _common_flags(p)

    p = sub.add_parser("gate", help="run gate experiments and print truth tables")
    p.add_argument("experiment.gates", nargs="+", metavar="names",
                   help="gate names (built-in or from --library)")
    p.add_argument("--library", help="gate library file (name,g,te,be,i rows)")
    _common_flags(p)

    p = sub.add_parser("synthesize", help="synthesize mappings for all 16 truth tables")
    _common_flags(p, runs=False, tables=False)  # the library file is the CSV that --library reads

    p = sub.add_parser("scouting", help="run scouting-logic experiments")
    p.add_argument("experiment.scouting_ops", nargs="*", metavar="ops",
                   help="read / or / and / xor")
    p.add_argument("--n", type=int, dest="experiment.n_inputs", metavar="N",
                   help="number of input cells (default: n_inputs, 2)")
    p.add_argument("--refs", dest="experiment.refs", metavar="REFS",
                   help="'placed' or 'paper-refs', in any case (default: placed)")
    _common_flags(p)

    p = sub.add_parser("sweep", help="sweep one device parameter")
    p.add_argument("parameter", help="a device parameter field name")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--values", help="comma-separated explicit values")
    _common_flags(p)

    p = sub.add_parser("cases", help="print the 16-row input case table")
    _common_flags(p, runs=False)
    return parser


def _exit_code(failures: int, errors: int, trials: int) -> int:
    """0 only for a run that evaluated something and saw nothing go wrong."""
    return 0 if trials > 0 and failures == 0 and errors == 0 else 1


def cmd_characterize(app: AppConfig, args: argparse.Namespace) -> tuple[list, list[str], int]:
    result = run_characterization(app.experiment, cells=args.cells)
    lines = [f"{s.label}: n={s.count} median={_kohm(s.median)} "
             f"p1={_kohm(s.p1)} p99={_kohm(s.p99)}" for s in result.summaries[:2]]
    lines.append(f"mean HRS/LRS ratio: {result.hrs_lrs_ratio:.2f}")
    lines.append(f"log-space spread: lrs={result.lrs_log_spread:.4f} "
                 f"hrs={result.hrs_log_spread:.4f}")
    return result.tables(), lines, 0


def cmd_gate(app: AppConfig, args: argparse.Namespace) -> tuple[list, list[str], int]:
    library = default_gate_library()
    if args.library:
        library.update(load_gate_library(args.library))
    result = run_1t1r_experiment(app.experiment, library=library)
    report, lines = result.report, []
    for bucket in report.buckets:
        gate_name, combo = bucket.label.rsplit("/", 1)
        lines.append(f"{gate_name} p={combo[0]} q={combo[1]} -> {bucket.expected}  "
                     f"failures {bucket.failures}/{bucket.trials} errors {bucket.errors}")
    lines += [f"non-switching case {case.case_id}: n={case.count} "
              f"binary_changes={case.binary_changes} "
              f"log_variation={case.log_variation:.4f}" for case in result.non_switching]
    return result.tables(), lines, _exit_code(report.failures, report.errors, report.trials)


def cmd_synthesize(app: AppConfig, args: argparse.Namespace) -> tuple[list, list[str], int]:
    library = default_gate_library()
    mappings = [library[f"F{n:04b}"] for n in range(16)]
    valid = [truth_table_of(m) == m.name[1:] for m in mappings]
    lines = [f"{m.name}: g={m.g.value} te={m.te.value} be={m.be.value} "
             f"i={m.i.value}  {'ok' if ok else 'INVALID'}" for m, ok in zip(mappings, valid)]
    table = ("gates_synthesized", LIBRARY_COLUMNS,  # the library file ``gate --library`` reads
             [(m.name, *(term.value for term in m.terms())) for m in mappings])
    return [table], lines, _exit_code(valid.count(False), 0, len(mappings))


def cmd_scouting(app: AppConfig, args: argparse.Namespace) -> tuple[list, list[str], int]:
    result = run_scouting_experiment(app.experiment)
    refs, report, lines = result.refs, result.report, []
    if refs is not None:
        lines.append(f"references: read={_ua(refs.i_read)} "
                     f"or={_ua(refs.i_or)} and={_ua(refs.i_and)} "
                     f"({refs.i_read!r}, {refs.i_or!r}, {refs.i_and!r} A)")
        if refs.n > 2:
            levels = ", ".join(_ua(t) for t in refs.levels)
            lines.append(f"popcount thresholds (n={refs.n}): {levels}")
    if result.overlap is not None:
        lines.append(f"overlap: {result.overlap}")
    lines += [f"{bucket.label}: failures {bucket.failures}/{bucket.trials}"
              for bucket in report.buckets]
    lines += [f"gap {m.gap}: [{_ua(m.lower_max_a)}, {_ua(m.upper_min_a)}] "
              f"margin {m.margin:.3f}" for m in result.margins]
    return result.tables(), lines, _exit_code(report.failures, report.errors, report.trials)


def cmd_sweep(app: AppConfig, args: argparse.Namespace) -> tuple[list, list[str], int]:
    span = (args.start, args.stop, args.steps)
    if args.values is not None and span != (None, None, None):
        raise ValueError("sweep takes --values or --start/--stop/--steps, not both")
    if args.values:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    elif None not in span:
        if args.steps < 1:
            raise ValueError("sweep needs --steps >= 1")
        values = np.linspace(args.start, args.stop, args.steps).tolist()  # floats, not np.float64
    else:
        raise ValueError("sweep needs --values or --start/--stop/--steps")
    points = sweep_parameter(app.experiment, args.parameter, values)
    lines = [f"{pt.parameter}={pt.value:.4g}: logic {pt.logic_failures}/"
             f"{pt.logic_trials} scouting {pt.scouting_failures}/"
             f"{pt.scouting_trials} overlap={int(pt.overlap)} "
             f"min_margin={pt.min_margin:.3f}" for pt in points]
    failures = sum(p.logic_failures + p.scouting_failures for p in points)
    errors = sum(p.logic_errors for p in points)
    trials = sum(p.logic_trials + p.scouting_trials for p in points)
    return [("sweep", SweepPoint._fields, points)], lines, _exit_code(failures, errors, trials)


def cmd_cases(app: AppConfig, args: argparse.Namespace) -> tuple[list, list[str], int]:
    columns = ("case_id", "g", "te", "be", "i", "te_minus_be", "process", "possible")
    rows, lines = [], ["case  g te be i  te-be  process  possible"]
    for case in CASE_TABLE:
        process = case.process if case.process else "/"
        possible = "yes" if case.possible else ("no" if case.process else "/")
        lines.append(f"{case.case_id:>4}  {case.g} {case.te}  {case.be} {case.i}  "
                     f"{case.te_minus_be:>5}  {process:<7}  {possible}")
        rows.append((case.case_id, case.g, case.te, case.be, case.i,
                     case.te_minus_be, process, int(case.possible)))
    return [("cases", columns, rows)], lines, 0


_COMMANDS = {
    "characterize": cmd_characterize,
    "gate": cmd_gate,
    "synthesize": cmd_synthesize,
    "scouting": cmd_scouting,
    "sweep": cmd_sweep,
    "cases": cmd_cases,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    config_path = None
    if argv and not argv[0].startswith("-") and argv[0] not in _COMMANDS:
        config_path = argv.pop(0)
    try:
        keys = parse_config_file(config_path) if config_path else {}
        if config_path:  # the file alone, as load_config checks it
            build_config(keys, source=config_path)
        args = _build_parser().parse_args(argv)
        if os.environ.get(OUTPUT_DIR_ENV):
            keys["experiment.output_dir"] = os.environ[OUTPUT_DIR_ENV]
        # A flag left out (None) or an empty op list keeps the key's value.
        keys.update((key, tuple(value) if isinstance(value, list) else value)
                    for key, value in vars(args).items()
                    if "." in key and value not in (None, []))
        app = build_config(keys)
        tables, lines, code = _COMMANDS[args.command](app, args)
        # A command without --format (synthesize) writes the CSV that --library reads.
        paths = write_exports(tables, app.output_dir,
                              app.format if "experiment.format" in vars(args) else "csv")
    except (KeyError, OSError, ValueError, InitFailureError, NotFormedError) as exc:
        # A KeyError's str() quotes its message; an OSError's first arg is its errno.
        print(exc.args[0] if isinstance(exc, KeyError) and exc.args else exc, file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print("wrote:", ", ".join(map(str, paths)))
    return code


if __name__ == "__main__":
    sys.exit(main())
