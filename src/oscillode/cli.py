"""Command line interface.

Subcommands: expand, solve, reference, errors, table, bench, slope.
"""

from __future__ import annotations

import argparse
import sys

from .errors import OscillodeError
from .expansion import build_expansion, dump_expansion, solve_nonoscillatory_chain
from .freq_algebra import build_index_chain, format_index_table
from .harness import (
    REFERENCE_TOL,
    compare_cost,
    cost_report_csv,
    error_report_csv,
    reference_values,
    run_error_study,
    run_slope_study,
    uniform_grid,
)
from .ode_core import _finite_positive
from .problems import get_problem, load_problem_config, problem_names
from .svg import emit_svg


# every flag that several subcommands share, in the order --help lists them
_SHARED_FLAGS = {
    "--problem": dict(default="linear_example", help="registered problem name"),
    "--config": dict(default=None, help="JSON problem config file"),
    "--t-end": dict(type=float, default=None),
    "--grid": dict(type=int, default=512, help="uniform grid size"),
    "--out": dict(default=None, help="output file or directory"),
    "--tol": dict(type=float, default=REFERENCE_TOL, help="reference accuracy"),
    "--delta-min": dict(type=float, default=None, help="small-denominator guard threshold"),
    "--cache-dir": dict(default=None, help="reference cache directory"),
}
_PROBLEM = ("--problem", "--config")
_GRID = ("--t-end", "--grid")
_REFERENCE = ("--tol", "--cache-dir")
_GUARD = ("--delta-min",)
_OUTPUT = ("--out",)


def _subcommand(sub, name, handler, *groups):
    """Subcommand ``name``, run by ``handler`` and described by its docstring,
    with the shared flags of ``groups``: the ones the handler reads, no others."""
    parser = sub.add_parser(name, help=handler.__doc__)
    parser.set_defaults(handler=handler)
    for flag, spec in _SHARED_FLAGS.items():
        if any(flag in group for group in groups):
            parser.add_argument(flag, **spec)
    return parser


def _registered(args):
    if args.config:
        return load_problem_config(args.config)
    if args.problem not in problem_names():
        raise ValueError(f"unknown problem {args.problem!r}; known: {', '.join(problem_names())}")
    return get_problem(args.problem)


def _omegas(args):
    """Every --omega, checked before anything is built or integrated."""
    return [_finite_positive("omega", omega) for omega in args.omega]


def _t_end(args, registered):
    """--t-end, or the problem's horizon."""
    return args.t_end if args.t_end is not None else registered.t_end


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

    p = _subcommand(sub, "expand", _cmd_expand, _PROBLEM, ("--t-end",), _GUARD, _OUTPUT)
    p.add_argument("--order", type=int, default=None)

    p = _subcommand(sub, "solve", _cmd_solve, _PROBLEM, _GRID, _GUARD, _OUTPUT)
    p.add_argument("--omega", type=float, action="append", required=True)
    p.add_argument("--order", type=int, default=None, help="truncation level s")

    p = _subcommand(sub, "reference", _cmd_reference, _PROBLEM, _GRID, _REFERENCE, _OUTPUT)
    p.add_argument("--omega", type=float, action="append", required=True)

    p = _subcommand(sub, "errors", _cmd_errors, _PROBLEM, _GRID, _REFERENCE, _GUARD, _OUTPUT)
    p.add_argument("--omega", type=float, action="append", default=None)
    p.add_argument("--order", type=int, action="append", default=None,
                   help="truncation level s (repeatable)")
    p.add_argument("--format", choices=("csv", "svg"), default="csv")

    p = _subcommand(sub, "table", _cmd_table, _PROBLEM, _GUARD, _OUTPUT)
    p.add_argument("-r", "--level", type=int, default=4)

    p = _subcommand(sub, "bench", _cmd_bench, _PROBLEM, _GRID, _REFERENCE, _OUTPUT)
    p.add_argument("--omega", type=float, action="append", required=True)
    p.add_argument("--order", type=int, default=3, help="truncation level s")

    p = _subcommand(sub, "slope", _cmd_slope, _PROBLEM, _GRID, ("--cache-dir",))
    p.add_argument("--omega", type=float, action="append", default=None)
    p.add_argument("--order", type=int, action="append", default=None)
    p.add_argument("--slope-tolerance", type=float, default=0.25)

    _subcommand(sub, "problems", _cmd_problems)
    return parser


def _cmd_expand(args):
    """build the expansion and print its node table"""
    registered = _registered(args)
    order = args.order if args.order is not None else registered.default_order
    # checked before the build, which at a high order is most of the run
    t_end = _finite_positive("t_end", _t_end(args, registered))
    expansion = build_expansion(registered.problem, order=order, delta_min=args.delta_min)
    solve_nonoscillatory_chain(expansion, t_end)
    _write_or_print(dump_expansion(expansion), args.out)
    return 0


def _cmd_solve(args):
    """evaluate the truncated expansion on a grid"""
    registered = _registered(args)
    omegas = _omegas(args)
    order = args.order if args.order is not None else registered.default_order
    t_end = _t_end(args, registered)
    grid = uniform_grid(t_end, args.grid)
    expansion = build_expansion(registered.problem, order=order, delta_min=args.delta_min)
    solve_nonoscillatory_chain(expansion, t_end)
    table = expansion.table(grid, order)
    lines = ["t,omega,s,component,y_re,y_im"]
    for omega in omegas:
        for t, y in zip(grid, table.evaluate(omega, order)):
            for comp, z in enumerate(y, start=1):
                lines.append(
                    "%.17g,%.17g,%d,%d,%.17g,%.17g"
                    % (t, omega, order, comp, z.real, z.imag)
                )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_reference(args):
    """reference solution on a grid"""
    registered = _registered(args)
    omegas = _omegas(args)
    t_end = _t_end(args, registered)
    grid = uniform_grid(t_end, args.grid)
    lines = ["t,omega,component,y_re,y_im"]
    for omega in omegas:
        values, kind = reference_values(registered, omega, grid, args.tol, args.cache_dir)
        for i, t in enumerate(grid):
            for comp, z in enumerate(values[i], start=1):
                lines.append(
                    "%.17g,%.17g,%d,%.17g,%.17g" % (t, omega, comp, z.real, z.imag)
                )
    sys.stderr.write(f"reference: {kind}\n")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_errors(args):
    """truncation-error study"""
    if args.format == "svg" and not args.out:
        raise ValueError("--format svg needs --out DIRECTORY")
    registered = _registered(args)
    report = run_error_study(
        registered,
        omegas=args.omega,
        s_values=sorted(set(args.order)) if args.order else None,
        grid_n=args.grid,
        t_end=_t_end(args, registered),
        tol=args.tol,
        delta_min=args.delta_min,
        cache_dir=args.cache_dir,
    )
    if args.format == "svg":
        paths = emit_svg(report, args.out)
        sys.stderr.write(f"wrote {len(paths)} svg files\n")
    else:
        _write_or_print(error_report_csv(report), args.out)
    return 0


def _cmd_table(args):
    """index-set table with frequencies and multiplicities"""
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
    """expansion vs reference cost comparison"""
    registered = _registered(args)
    report = compare_cost(
        registered,
        args.omega,
        args.order,
        grid_n=args.grid,
        t_end=_t_end(args, registered),
        tol=args.tol,
        cache_dir=args.cache_dir,
    )
    _write_or_print(cost_report_csv(report), args.out)
    return 0


def _cmd_slope(args):
    """fit error decay against omega and check the rate"""
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
    """list registered problems"""
    for name in problem_names():
        sys.stdout.write(name + "\n")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OscillodeError) as err:
        sys.stderr.write(f"oscillode: error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
