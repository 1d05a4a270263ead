"""Command line interface.

Subcommands: expand, solve, reference, errors, table, bench, slope.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import OscillodeError
from .expansion import build_expansion, dump_expansion, solve_nonoscillatory_chain
from .freq_algebra import build_index_chain, format_index_table
from .harness import (
    compare_cost,
    cost_report_csv,
    error_report_csv,
    reference_values,
    run_error_study,
    run_slope_study,
    uniform_grid,
)
from .problems import get_problem, load_problem_config, problem_names
from .svg import emit_svg


def _add_common(parser):
    parser.add_argument("--problem", default="linear_example", help="registered problem name")
    parser.add_argument("--config", default=None, help="JSON problem config file")
    parser.add_argument("--t-end", type=float, default=None)
    parser.add_argument("--grid", type=int, default=512, help="uniform grid size")
    parser.add_argument("--out", default=None, help="output file or directory")
    parser.add_argument("--tol-abs", type=float, default=1e-10)
    parser.add_argument("--tol-rel", type=float, default=1e-10)
    parser.add_argument("--delta-min", type=float, default=None,
                        help="small-denominator guard threshold")
    parser.add_argument("--cache-dir", default=None, help="reference cache directory")


def _registered(args):
    if args.config:
        return load_problem_config(args.config)
    return get_problem(args.problem)


def _t_end(args, registered):
    """--t-end, or the problem's horizon, checked before any grid is built on it."""
    t_end = args.t_end if args.t_end is not None else registered.t_end
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end={t_end!r} must be finite and positive")
    return t_end


def _write_or_print(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oscillode",
        description="Asymptotic expansion solver for oscillatory-forced ODEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="build the expansion and print its node table")
    _add_common(p)
    p.add_argument("--order", type=int, default=None)

    p = sub.add_parser("solve", help="evaluate the truncated expansion on a grid")
    _add_common(p)
    p.add_argument("--omega", type=float, action="append", required=True)
    p.add_argument("--order", type=int, default=None, help="truncation level s")

    p = sub.add_parser("reference", help="reference solution on a grid")
    _add_common(p)
    p.add_argument("--omega", type=float, action="append", required=True)

    p = sub.add_parser("errors", help="truncation-error study")
    _add_common(p)
    p.add_argument("--omega", type=float, action="append", default=None)
    p.add_argument("--order", type=int, action="append", default=None,
                   help="truncation level s (repeatable)")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")

    p = sub.add_parser("table", help="index-set table with frequencies and multiplicities")
    _add_common(p)
    p.add_argument("-r", "--level", type=int, default=4)

    p = sub.add_parser("bench", help="expansion vs reference cost comparison")
    _add_common(p)
    p.add_argument("--omega", type=float, action="append", required=True)
    p.add_argument("--order", type=int, default=3, help="truncation level s")

    p = sub.add_parser("slope", help="fit error decay against omega and check the rate")
    _add_common(p)
    p.add_argument("--omega", type=float, action="append", default=None)
    p.add_argument("--order", type=int, action="append", default=None)
    p.add_argument("--slope-tolerance", type=float, default=0.25)

    p = sub.add_parser("problems", help="list registered problems")
    return parser


def _cmd_expand(args):
    registered = _registered(args)
    order = args.order if args.order is not None else registered.default_order
    t_end = _t_end(args, registered)
    expansion = build_expansion(registered.problem, order=order, delta_min=args.delta_min)
    solve_nonoscillatory_chain(expansion, t_end)
    _write_or_print(dump_expansion(expansion), args.out)
    return 0


def _cmd_solve(args):
    registered = _registered(args)
    order = args.order if args.order is not None else registered.default_order
    t_end = _t_end(args, registered)
    grid = uniform_grid(t_end, args.grid)
    expansion = build_expansion(registered.problem, order=order, delta_min=args.delta_min)
    solve_nonoscillatory_chain(expansion, t_end, knots=grid)
    table = expansion.table(grid, order)
    lines = ["t,omega,s,component,y_re,y_im"]
    for omega in args.omega:
        for t, y in zip(grid, table.evaluate(omega, order)):
            for comp, z in enumerate(y, start=1):
                lines.append(
                    "%.17g,%.17g,%d,%d,%.17g,%.17g"
                    % (t, omega, order, comp, z.real, z.imag)
                )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_reference(args):
    registered = _registered(args)
    t_end = _t_end(args, registered)
    grid = uniform_grid(t_end, args.grid)
    lines = ["t,omega,component,y_re,y_im"]
    for omega in args.omega:
        values, kind = reference_values(
            registered, omega, grid, args.tol_abs, args.tol_rel, args.cache_dir
        )
        for i, t in enumerate(grid):
            for comp, z in enumerate(values[i], start=1):
                lines.append(
                    "%.17g,%.17g,%d,%.17g,%.17g" % (t, omega, comp, z.real, z.imag)
                )
    sys.stderr.write(f"reference: {kind}\n")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_errors(args):
    registered = _registered(args)
    report = run_error_study(
        registered,
        omegas=args.omega,
        s_values=sorted(set(args.order)) if args.order else None,
        grid_n=args.grid,
        t_end=_t_end(args, registered),
        tol_abs=args.tol_abs,
        tol_rel=args.tol_rel,
        delta_min=args.delta_min,
        cache_dir=args.cache_dir,
    )
    if args.format == "svg":
        if not args.out:
            raise SystemExit("--format svg needs --out DIRECTORY")
        paths = emit_svg(report, args.out)
        sys.stderr.write(f"wrote {len(paths)} svg files\n")
    else:
        _write_or_print(error_report_csv(report), args.out)
    return 0


def _cmd_table(args):
    registered = _registered(args)
    problem = registered.problem
    chain = build_index_chain(
        problem.basis, problem.kappas, args.level, delta_min=args.delta_min
    )
    _write_or_print(
        format_index_table(chain[args.level], problem.basis, problem.kappas), args.out
    )
    return 0


def _cmd_bench(args):
    registered = _registered(args)
    report = compare_cost(
        registered,
        args.omega,
        args.order,
        grid_n=args.grid,
        t_end=_t_end(args, registered),
        tol_abs=args.tol_abs,
        tol_rel=args.tol_rel,
        cache_dir=args.cache_dir,
    )
    _write_or_print(cost_report_csv(report), args.out)
    return 0


def _cmd_slope(args):
    registered = _registered(args)
    report, slopes, verdicts = run_slope_study(
        registered,
        omegas=args.omega,
        s_values=sorted(set(args.order)) if args.order else None,
        grid_n=args.grid,
        t_end=_t_end(args, registered),
        tolerance=args.slope_tolerance,
        cache_dir=args.cache_dir,
    )
    ok = True
    for s in report.s_values:
        status = "ok" if verdicts[s] else "FAIL"
        ok = ok and verdicts[s]
        sys.stdout.write(
            "s=%d slope=%.3f expected=%.1f+-%.2f %s\n"
            % (s, slopes[s], -(s + 1), args.slope_tolerance, status)
        )
    return 0 if ok else 1


def _cmd_problems(args):
    for name in problem_names():
        sys.stdout.write(name + "\n")
    return 0


_COMMANDS = {
    "expand": _cmd_expand,
    "solve": _cmd_solve,
    "reference": _cmd_reference,
    "errors": _cmd_errors,
    "table": _cmd_table,
    "bench": _cmd_bench,
    "slope": _cmd_slope,
    "problems": _cmd_problems,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OscillodeError) as err:
        sys.stderr.write(f"oscillode: error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
