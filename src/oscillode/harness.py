"""Experiment driver: error studies, slope fits, cost comparisons, CSV output.

The truncation error is measured against the best available reference: the
exact closed-form solution for linear problems, otherwise an adaptive
Runge-Kutta run on the full oscillatory system.  A requested reference
tolerance is treated as a global accuracy budget; because an embedded
pair controls local error per step, the integrator runs at an internally
tightened local tolerance so the reference is accurate to its label.
Nonlinear references are cached on disk.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import time
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .expansion import CHAIN_TOL, _check_field_shape, build_expansion, solve_nonoscillatory_chain
from .linear_closed_form import exact_linear_solution
from .ode_core import IvpSpec, _finite_positive, _nonnegative_integer, integrate, sample
from .problems import RegisteredProblem, get_problem

__all__ = [
    "ErrorReport",
    "CostReport",
    "run_error_study",
    "reference_values",
    "fit_slopes",
    "run_slope_study",
    "compare_cost",
    "error_report_csv",
    "cost_report_csv",
    "check_reference_consistency",
    "uniform_grid",
]

# default accuracy of an integrated reference, the one ``tol`` of ``IvpSpec``
REFERENCE_TOL = 1e-10
# local tolerance tightening so the reference's global error honors its label
REFERENCE_SAFETY = 50.0
# bumped whenever what a cached reference holds or how it is computed changes
_CACHE_FORMAT = "reference-v2"
# field probes: fixed offsets from y0, scaled by 1 + |y0|
_PROBE_OFFSETS = (0.0, 0.25, -0.5)
# chain tolerance of a slope study: the level-0 trajectory's numerical
# error is the study's noise floor at large omega
SLOPE_CHAIN_TOL = 3e-15
# largest deviation check_reference_consistency allows
CONSISTENCY_BOUND = 1e-8


def uniform_grid(t_end, grid_n):
    """``grid_n`` evenly spaced times from 0 to ``t_end``, both included;
    ``t_end`` must be finite and positive, else ValueError names it."""
    t_end = _finite_positive("t_end", float(t_end))
    grid_n = _nonnegative_integer("grid_n", grid_n)
    if grid_n < 2:
        raise ValueError(f"a grid needs at least 2 points, at 0 and t_end, not {grid_n}")
    return np.linspace(0.0, t_end, grid_n)


def _resolve(problem) -> RegisteredProblem:
    if isinstance(problem, RegisteredProblem):
        return problem
    return get_problem(problem)


@dataclass
class ErrorReport:
    problem: str
    grid: np.ndarray
    omegas: tuple
    s_values: tuple
    errors: dict  # (s, omega) -> complex array (grid, dimension)
    reference_kind: str

    def sup_norms(self, s, omega):
        """Per-component sup of |error| over the grid."""
        return np.abs(self.errors[(s, omega)]).max(axis=0)


@dataclass
class CostReport:
    problem: str
    s: int
    rows: list = field(default_factory=list)  # dicts: method, omega, seconds, peak_kb, points


def _oscillatory_rhs(problem, omega):
    fld = problem.field
    forcings = problem.forcings
    kappas = [f.kappa.value for f in forcings]

    def rhs(t, y):
        out = fld(y)
        for forcing, kappa in zip(forcings, kappas):
            out = out + forcing.amplitude_derivative(0, t) * np.exp(1j * kappa * omega * t)
        return out

    return rhs


def _cache_path(cache_dir, registered, omega, tol, grid):
    """Cache file of one reference, named by a hash of everything it depends on.

    The key covers the basis, the base frequencies, ``y0``, the grid (and so
    ``t_end``), omega, ``tol`` and ``REFERENCE_SAFETY``.  The field and
    the amplitudes are functions, so they enter through their values: the
    field at ``y0`` and at fixed states around it, each amplitude at fixed
    times across the grid.
    """
    problem = registered.problem
    basis = problem.basis
    h = hashlib.sha256()

    def add(*parts):
        h.update(repr(parts).encode())

    add(_CACHE_FORMAT, float(omega), float(tol), REFERENCE_SAFETY)
    add(basis.basis_reals)
    for m, kappa in enumerate(problem.kappas, start=1):
        add(m, tuple(map(str, kappa.sigma)), float(kappa.value))
    y0 = np.asarray(problem.y0, dtype=complex)
    h.update(y0.tobytes())
    h.update(np.ascontiguousarray(grid, dtype=float).tobytes())
    ramp = np.arange(1.0, y0.size + 1.0)
    for offset in _PROBE_OFFSETS:
        state = y0 + offset * (1.0 + np.abs(y0)) * ramp
        h.update(problem.field(state).tobytes())
    for t in grid[:: max(1, (grid.size - 1) // 4)]:
        for forcing in problem.forcings:
            h.update(np.asarray(forcing.amplitude_derivative(0, float(t)), dtype=complex).tobytes())
    return Path(cache_dir) / f"ref_{registered.name}_{h.hexdigest()[:16]}.npz"


def _read_cached(path, grid):
    """Cached values for ``grid``, or None on a miss or an unreadable file."""
    # imported here: importing logging grows every process by about 0.5 MB,
    # and only cache users log
    import logging

    logger = logging.getLogger("oscillode")
    if not path.exists():
        logger.debug("reference cache miss: %s", path.name)
        return None
    try:
        with np.load(path) as data:
            cached_grid, values = data["grid"], data["values"]
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as err:
        logger.warning("reference cache file %s is unreadable (%s); recomputing", path, err)
        return None
    if not np.array_equal(cached_grid, grid):
        logger.warning("reference cache file %s holds another grid; recomputing", path)
        return None
    logger.debug("reference cache hit: %s", path.name)
    return values


def _write_cached(path, grid, values):
    """Write through a temporary file, so a reader never sees half a file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez_compressed(fh, grid=grid, values=values)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def reference_values(
    registered,
    omega,
    grid,
    tol=REFERENCE_TOL,
    cache_dir=None,
    method="auto",
):
    """Reference solution sampled on the grid, plus a provenance string.

    With ``method="auto"`` linear problems use the exact solution; anything
    else integrates the full oscillatory system with grid points forced as
    step endpoints, at a local tolerance ``REFERENCE_SAFETY`` times tighter
    than ``tol`` so the global error honors the requested accuracy; ``tol``
    is absolute and relative at once, as in ``IvpSpec``.
    ``method="rk"`` forces the integrator, also for a linear problem.  Any
    other ``method``, and an ``omega`` or a ``tol`` that is not finite and
    positive, raise ``ValueError`` first, even where the exact solution
    would not read ``tol``.
    """
    if method not in ("auto", "rk"):
        raise ValueError(f"method={method!r} must be 'auto' or 'rk'")
    omega = _finite_positive("omega", float(omega))
    tol = _finite_positive("tol", float(tol))
    registered = _resolve(registered)
    grid = np.asarray(grid, dtype=float)
    if method == "auto" and registered.linear is not None:
        solution = exact_linear_solution(registered.linear, omega)
        values = np.array([solution(float(t)) for t in grid])
        return values, "exact"

    _check_field_shape(registered.problem)
    provenance = f"rk(tol={tol:g})"
    path = None
    if cache_dir is not None:
        path = _cache_path(cache_dir, registered, omega, tol, grid)
        cached = _read_cached(path, grid)
        if cached is not None:
            return cached, provenance

    values, _ = _rk_reference(registered, omega, grid, tol)
    if path is not None:
        _write_cached(path, grid, values)
    return values, provenance


def _rk_reference(registered, omega, grid, tol):
    """Reference values on the grid, and the knots-only solution behind them."""
    solution = integrate(
        IvpSpec(
            rhs=_oscillatory_rhs(registered.problem, omega),
            y0=registered.problem.y0,
            t_end=float(grid.max()),
            tol=tol / REFERENCE_SAFETY,
            knots=grid,
            dense_refine=False,
        )
    )
    return np.array([sample(solution, float(t)) for t in grid]), solution


def _check_omegas_and_tol(omegas, tol):
    """ValueError naming the first omega, or else ``tol``, that is not finite
    and positive: a study checks them before it builds and solves."""
    for omega in omegas:
        _finite_positive("omega", omega)
    _finite_positive("tol", float(tol))


def _build_solved(registered, order, t_end, chain_tol, delta_min=None):
    expansion = build_expansion(registered.problem, order=order, delta_min=delta_min)
    solve_nonoscillatory_chain(expansion, t_end, tol=chain_tol)
    return expansion


def run_error_study(
    problem,
    omegas=None,
    s_values=None,
    grid_n=512,
    t_end=None,
    order=None,
    tol=REFERENCE_TOL,
    chain_tol=CHAIN_TOL,
    delta_min=None,
    cache_dir=None,
    expansion=None,
):
    """Truncation-error samples for each (s, omega) pair on a uniform grid.

    The reference is integrated at ``tol`` (``reference_values``) and the
    chain of a built expansion is solved at ``chain_tol``
    (``solve_nonoscillatory_chain``); each is one absolute and relative
    tolerance.  A given ``expansion`` sets ``order``; an ``order`` that
    differs from its built order raises ``ValueError``, and so does an
    omega or a ``tol`` that is not finite and positive, before any build.
    """
    registered = _resolve(problem)
    omegas = tuple(float(w) for w in (registered.omegas if omegas is None else omegas))
    _check_omegas_and_tol(omegas, tol)
    if expansion is not None and order not in (None, expansion.order):
        raise ValueError(f"order={order} differs from the expansion's order {expansion.order}")
    if order is None:
        order = registered.default_order if expansion is None else expansion.order
    s_values = tuple(range(order + 1) if s_values is None else s_values)
    for name, values in (("omegas", omegas), ("s_values", s_values)):
        if not values:
            raise ValueError(f"{name} is empty; pass None for the default")
    if max(s_values) > order:
        raise ValueError(f"requested s={max(s_values)} above built order {order}")
    t_end = float(t_end if t_end is not None else registered.t_end)
    grid = uniform_grid(t_end, grid_n)

    if expansion is None:
        expansion = _build_solved(registered, order, t_end, chain_tol, delta_min)

    table = expansion.table(grid, max(s_values))
    errors = {}
    for omega in omegas:
        ref, reference_kind = reference_values(registered, omega, grid, tol, cache_dir)
        for s in s_values:
            errors[(s, omega)] = ref - table.evaluate(omega, s)
    return ErrorReport(
        problem=registered.name,
        grid=grid,
        omegas=omegas,
        s_values=s_values,
        errors=errors,
        reference_kind=reference_kind,
    )


def error_report_csv(report):
    """Deterministic CSV: one row per (t, omega, s, component)."""
    lines = ["t,omega,s,component,err_re,err_im"]
    for omega in report.omegas:
        for s in report.s_values:
            err = report.errors[(s, omega)]
            for i, t in enumerate(report.grid):
                for comp in range(err.shape[1]):
                    z = err[i, comp]
                    lines.append(
                        "%.17g,%.17g,%d,%d,%.17g,%.17g"
                        % (t, omega, s, comp + 1, z.real, z.imag)
                    )
    return "\n".join(lines) + "\n"


def fit_slopes(report):
    """Least-squares slope of log sup-error against log omega, per s."""
    if len(set(report.omegas)) < 2:
        raise ValueError(f"a slope needs two distinct omegas, not {report.omegas}")
    slopes = {}
    for s in report.s_values:
        xs = [math.log(w) for w in report.omegas]
        ys = [math.log(float(report.sup_norms(s, w).max())) for w in report.omegas]
        slopes[s] = float(np.polyfit(xs, ys, 1)[0])
    return slopes


def run_slope_study(
    problem,
    omegas=None,
    s_values=None,
    grid_n=512,
    t_end=None,
    tolerance=0.25,
    cache_dir=None,
):
    """Error study plus slope fit; flags s values off the expected decay rate.

    The expansion is built to the problem's default order, and its chain is
    solved at ``SLOPE_CHAIN_TOL``, much tighter than usual.  By default only
    levels below the built order are fitted: the top level's own error has
    no next level to cancel against and saturates first.  A ``tolerance``
    that is not finite and positive raises ``ValueError`` before the study.
    """
    tolerance = _finite_positive("tolerance", float(tolerance))
    if s_values is None:
        s_values = tuple(range(_resolve(problem).default_order))
    report = run_error_study(
        problem,
        omegas=omegas,
        s_values=s_values,
        grid_n=grid_n,
        t_end=t_end,
        chain_tol=SLOPE_CHAIN_TOL,
        cache_dir=cache_dir,
    )
    slopes = fit_slopes(report)
    verdicts = {
        s: abs(slope + (s + 1)) <= tolerance for s, slope in slopes.items()
    }
    return report, slopes, verdicts


def _timed(call):
    """(seconds, result) of ``call()``."""
    start = time.perf_counter()
    result = call()
    return time.perf_counter() - start, result


def _kb(*arrays):
    return sum(a.nbytes for a in arrays) / 1024.0


def compare_cost(
    problem,
    omegas,
    s,
    grid_n=512,
    t_end=None,
    order=None,
    tol=REFERENCE_TOL,
    cache_dir=None,
):
    """Wall time of expansion build+eval versus the adaptive reference.

    The expansion is built and solved once and reused for every omega, which
    is the expected usage pattern; the reference must rerun per omega, so it
    is always integrated (a cache hit would time a file read) and then
    written to ``cache_dir``.  ``peak_kb`` is the size of the arrays a step
    holds when it ends, read off the arrays in the same pass: the build's
    chain dense output, an evaluation's coefficient table and grid values,
    and a reference's stored grid states plus its grid values.  An omega or
    a ``tol`` that is not finite and positive raises ``ValueError`` first.
    """
    registered = _resolve(problem)
    omegas = tuple(float(w) for w in omegas)
    _check_omegas_and_tol(omegas, tol)
    order = order if order is not None else max(registered.default_order, s)
    t_end = float(t_end if t_end is not None else registered.t_end)
    grid = uniform_grid(t_end, grid_n)

    build_s, expansion = _timed(lambda: _build_solved(registered, order, t_end, CHAIN_TOL))
    chain = expansion.chain_solution
    chain_kb = _kb(chain.ts, chain.ys, *chain.dense)
    rows = [("expansion_build", float("nan"), build_s, chain_kb, 0)]
    # the first evaluation also pays for the table that serves every omega
    table_s, table = _timed(lambda: expansion.table(grid, s))
    for omega in omegas:
        seconds, values = _timed(lambda: table.evaluate(omega, s))
        kb = _kb(table.ts, *table.values, values)
        rows.append(("expansion_eval", omega, seconds + table_s, kb, grid.size))
        table_s = 0.0
    for omega in omegas:
        seconds, (values, solution) = _timed(
            lambda: _rk_reference(registered, omega, grid, tol)
        )
        if cache_dir is not None:
            path = _cache_path(cache_dir, registered, omega, tol, grid)
            _write_cached(path, grid, values)
        kb = _kb(solution.ts, solution.ys, values)
        rows.append(("rk_reference", omega, seconds, kb, grid.size))
    keys = ("method", "omega", "seconds", "peak_kb", "points")
    return CostReport(registered.name, s, [dict(zip(keys, row)) for row in rows])


def cost_report_csv(report):
    lines = ["method,omega,seconds,peak_kb,points"]
    for row in report.rows:
        lines.append(
            "%s,%.17g,%.6f,%.1f,%d"
            % (row["method"], row["omega"], row["seconds"], row["peak_kb"], row["points"])
        )
    return "\n".join(lines) + "\n"


def check_reference_consistency(problem, omega, grid_n=129):
    """Guard against oracle drift: adaptive reference vs exact linear solution,
    over the problem's horizon, within ``CONSISTENCY_BOUND``."""
    registered = _resolve(problem)
    if registered.linear is None:
        raise ValueError("consistency check needs a linear problem")
    grid = uniform_grid(float(registered.t_end), grid_n)
    exact, _ = reference_values(registered, omega, grid)
    # a local tolerance of 1e-12, as the integrator divides by the safety factor
    tol = 1e-12 * REFERENCE_SAFETY
    rk, _ = reference_values(registered, omega, grid, tol, method="rk")
    worst = float(np.max(np.abs(rk - exact)))
    if worst > CONSISTENCY_BOUND:
        raise AssertionError(
            f"adaptive reference deviates from the exact solution by {worst:.3e}"
        )
    return worst
