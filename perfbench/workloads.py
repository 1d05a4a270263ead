"""The benchmark's three workloads, their inputs and their correctness gates.

Each workload drives oscillode from outside through module attributes of
``oscillode.expansion``, ``oscillode.harness`` and ``oscillode.freq_algebra``
(so a tracer's wrappers see every call), in the order the ``errors``,
``solve`` and ``table`` commands use.  Inputs come only from the seed; the
reference cache is never used, because its key ignores problem content and a
hit would time a file read instead of the integrator.

``small=True`` gives the reduced sizes the self-test runs: fewer points and
a lower order, same code path.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import accepted_steps, clock

DIGESTS = Path(__file__).with_name("digests.json")

ORIGIN_TOL = 1e-12  # origin cancellation, measured near 1e-21
# Linear sweep: sup error at s = order must stay below
# max(LINEAR_FLOOR, LINEAR_CONST * omega^-(order+1)); the floor is the chain
# solve's own accuracy (about 1.2e-11 at tolerance 1e-12).
LINEAR_FLOOR = 1e-10
LINEAR_CONST = 100.0
LINEAR_CHECK_STRIDE = 4
# Memristor: the top level's error ratio between the two omegas must be within
# this factor of (w_lo / w_hi)^(order+1), as in acceptance criterion 6.
SCALING_FACTOR = 5.0
# Memristor omegas are drawn log-uniformly within this share of 100 and 1000.
OMEGA_BAND = 0.25


class Ops:
    """Times each benchmark operation; opens a span when a tracer is given.

    ``after_op`` is called with the operation kind once it ends, which is
    where a memory pass takes its RSS checkpoints.
    """

    def __init__(self, tracer=None, after_op=None):
        self.tracer = tracer
        self.after_op = after_op
        self.times = []  # (kind, seconds)

    @contextmanager
    def op(self, kind):
        span = self.tracer.operation("op." + kind) if self.tracer else nullcontext()
        with span:
            t0 = clock()
            yield
            self.times.append((kind, clock() - t0))
        if self.after_op is not None:
            self.after_op(kind)

    def seconds(self, kind):
        return [s for k, s in self.times if k == kind]


@dataclass
class Batch:
    """One evaluation batch: every point at one (omega, s).

    Only a task's first batch is cold: it is the first pass over the point
    set.  Later batches, at another s or omega, are warm.
    """

    omega_index: int
    s: int
    cold: bool
    seconds: np.ndarray  # per evaluate_truncated call
    values: np.ndarray


@dataclass
class Result:
    """Everything one pass of a workload produced."""

    expansions: list = field(default_factory=list)  # (order, Expansion)
    chains: list = field(default_factory=list)  # index chains built by the task
    batches: list = field(default_factory=list)
    references: list = field(default_factory=list)  # reference values per omega
    tables: list = field(default_factory=list)  # index table text
    errors: list = None  # sup errors, filled in by the gates

    def dumps(self, lib):
        return [lib.expansion.dump_expansion(e) for _, e in self.expansions]

    def digest(self, lib):
        """Hash of every output, to compare passes of the same seed."""
        h = hashlib.sha256()
        for batch in self.batches:
            h.update(batch.values.tobytes())
        for values in self.references:
            h.update(np.ascontiguousarray(values).tobytes())
        for text in self.dumps(lib) + self.tables:
            h.update(text.encode())
        return h.hexdigest()


def evaluate_batch(expansion, points, omega, s, dimension):
    values = np.empty((len(points), dimension), dtype=complex)
    seconds = np.empty(len(points))
    evaluate = expansion.evaluate_truncated
    for k, t in enumerate(points):
        t0 = clock()
        values[k] = evaluate(t, omega, s)
        seconds[k] = clock() - t0
    return values, seconds


def chain_counts(expansion):
    """Per-level (accepted, attempted, rhs_evals) of a solved expansion.

    The chain is solved with the default dense-output refinement.
    """
    out = []
    for r in range(expansion.order + 1):
        sol = expansion.nodes[(r, ())].solution
        if sol is None:
            break
        out.append((accepted_steps(sol, True), sol.n_steps, sol.n_rhs_evals))
    return out


def _origin_gate(lib_problem, expansion, omegas, s_values):
    worst = 0.0
    for omega in omegas:
        for s in s_values:
            y = expansion.evaluate_truncated(0.0, omega, s)
            worst = max(worst, float(np.max(np.abs(y - lib_problem.y0))))
    return ("origin_identity", worst <= ORIGIN_TOL, f"max |y(0) - y0| = {worst:.2e}")


class MemristorStudy:
    """Nonlinear use case: chain solve on knots, evaluation, RK reference."""

    name = "memristor_study"

    def __init__(self, lib, seed, small=False):
        self.lib = lib
        self.registered = lib.problems.get_problem("memristor")
        self.order = 2 if small else 3
        self.t_end = 3.0
        self.grid = np.linspace(0.0, self.t_end, 17 if small else 129)
        self.points = self.grid.tolist()
        rng = np.random.default_rng(seed)
        centres = (200.0, 400.0) if small else (100.0, 1000.0)
        self.omegas = tuple(
            float(c * np.exp(rng.uniform(np.log(1 - OMEGA_BAND), np.log(1 + OMEGA_BAND))))
            for c in centres
        )
        self.build_orders = (self.order,)

    def setup(self):
        expansion = self.lib.expansion.build_expansion(self.registered.problem, order=self.order)
        self.lib.expansion.solve_nonoscillatory_chain(expansion, self.t_end, knots=self.grid)
        return [expansion]

    def run(self, ops):
        res = Result()
        with ops.op("setup"):
            (expansion,) = self.setup()
        res.expansions.append((self.order, expansion))
        res.chains.append(expansion.index_sets)
        dim = self.registered.problem.dimension
        for i, omega in enumerate(self.omegas):
            for s in range(self.order + 1):
                with ops.op("eval_batch"):
                    values, secs = evaluate_batch(expansion, self.points, omega, s, dim)
                res.batches.append(Batch(i, s, not res.batches, secs, values))
        for omega in self.omegas:
            with ops.op("reference"):
                values, _ = self.lib.harness.reference_values(
                    self.registered, omega, self.grid, method="rk", cache_dir=None
                )
            res.references.append(values)
        return res

    def sup_errors(self, res):
        """Per-component sup error against the reference, indexed [omega_index][s]."""
        if res.errors is None:
            res.errors = [[None] * (self.order + 1) for _ in self.omegas]
            for batch in res.batches:
                ref = res.references[batch.omega_index]
                res.errors[batch.omega_index][batch.s] = np.abs(ref - batch.values).max(axis=0)
        return res.errors

    def err_sup(self, res):
        return float(self.sup_errors(res)[0][self.order].max())

    def gates(self, res):
        (_, expansion), = res.expansions
        problem = self.registered.problem
        yield lambda: _origin_gate(problem, expansion, self.omegas, range(self.order + 1))
        for i, omega in enumerate(self.omegas):
            def decay(i=i, omega=omega):
                sups = self.sup_errors(res)
                ok = all(np.all(sups[i][s + 1] < sups[i][s]) for s in range(self.order))
                tops = ", ".join(f"{float(x.max()):.2e}" for x in sups[i])
                return (f"error_decay.w{i}", ok, f"omega={omega:.6g} sup by s: {tops}")
            yield decay

        def scaling():
            sups = self.sup_errors(res)
            ratio = float(sups[1][self.order].max() / sups[0][self.order].max())
            expected = (self.omegas[0] / self.omegas[1]) ** (self.order + 1)
            ok = expected / SCALING_FACTOR <= ratio <= expected * SCALING_FACTOR
            return ("omega_scaling", ok, f"ratio {ratio:.3e}, expected {expected:.3e}")
        yield scaling


class LinearSweep:
    """Evaluation-dominated: one build, many omegas over the same off-knot points."""

    name = "linear_sweep"

    def __init__(self, lib, seed, small=False):
        self.lib = lib
        self.registered = lib.problems.get_problem("linear_example")
        self.order = 2 if small else 4
        self.t_end = 5.0
        rng = np.random.default_rng(seed)
        self.points = rng.uniform(0.0, self.t_end, 512 if small else 4096).tolist()
        self.omegas = tuple(250.0 * 2.0**k for k in range(3 if small else 8))
        self.build_orders = (self.order,)

    def setup(self):
        expansion = self.lib.expansion.build_expansion(self.registered.problem, order=self.order)
        self.lib.expansion.solve_nonoscillatory_chain(expansion, self.t_end)
        return [expansion]

    def run(self, ops):
        res = Result()
        with ops.op("setup"):
            (expansion,) = self.setup()
        res.expansions.append((self.order, expansion))
        res.chains.append(expansion.index_sets)
        dim = self.registered.problem.dimension
        for i, omega in enumerate(self.omegas):
            with ops.op("eval_batch"):
                values, secs = evaluate_batch(expansion, self.points, omega, self.order, dim)
            res.batches.append(Batch(i, self.order, not res.batches, secs, values))
        return res

    def sup_errors(self, res):
        """Sup error against the closed-form solution, one per batch (omega).

        Every ``LINEAR_CHECK_STRIDE``-th point is checked: the oracle costs a
        matrix exponential per point, and the points are random already.
        """
        if res.errors is None:
            res.errors = []
            checked = self.points[::LINEAR_CHECK_STRIDE]
            for batch in res.batches:
                exact = self.lib.linear_closed_form.exact_linear_solution(
                    self.registered.linear, self.omegas[batch.omega_index]
                )
                ref = np.array([exact(t) for t in checked])
                approx = batch.values[::LINEAR_CHECK_STRIDE]
                res.errors.append(float(np.abs(ref - approx).max()))
        return res.errors

    def err_sup(self, res):
        return self.sup_errors(res)[0]

    def gates(self, res):
        (_, expansion), = res.expansions
        problem = self.registered.problem
        yield lambda: _origin_gate(problem, expansion, self.omegas, range(self.order + 1))
        for batch in res.batches:
            def exact_gate(batch=batch):
                omega = self.omegas[batch.omega_index]
                err = self.sup_errors(res)[batch.omega_index]
                bound = max(LINEAR_FLOOR, LINEAR_CONST * omega ** -(self.order + 1))
                return (f"exact_error.w{batch.omega_index}", err <= bound,
                        f"omega={omega:g} sup {err:.2e} <= {bound:.2e}")
            yield exact_gate


class WorkedBuild:
    """Combinatorial layer only: three builds and one index table, no seed."""

    name = "worked_build"

    def __init__(self, lib, seed, small=False):
        self.lib = lib
        self.registered = lib.problems.get_problem("worked_example")
        self.build_orders = (3, 4, 5) if small else (5, 6, 7)
        self.level = 5 if small else 8
        self.size = "small" if small else "full"
        self.omegas = ()

    def setup(self):
        problem = self.registered.problem
        return [self.lib.expansion.build_expansion(problem, order=r) for r in self.build_orders]

    def run(self, ops):
        res = Result()
        with ops.op("setup"):
            expansions = self.setup()
        problem = self.registered.problem
        with ops.op("table"):
            chain = self.lib.freq_algebra.build_index_chain(problem.basis, problem.kappas, self.level)
            table = self.lib.freq_algebra.format_index_table(
                chain[self.level], problem.basis, problem.kappas
            )
        for order, expansion in zip(self.build_orders, expansions):
            res.expansions.append((order, expansion))
            res.chains.append(expansion.index_sets)
        res.chains.append(chain)
        res.tables.append(table)
        return res

    def err_sup(self, res):
        return None

    def digests(self, res):
        """SHA-256 of each expansion dump and of the index table."""
        names = [f"dump_r{r}" for r in self.build_orders] + [f"table_r{self.level}"]
        texts = res.dumps(self.lib) + res.tables
        return {n: hashlib.sha256(t.encode()).hexdigest() for n, t in zip(names, texts)}

    def gates(self, res):
        recorded = json.loads(DIGESTS.read_text())[self.size]
        for name, digest in self.digests(res).items():
            yield lambda name=name, digest=digest: (
                f"digest.{name}", recorded.get(name) == digest, digest[:16]
            )


WORKLOADS = {cls.name: cls for cls in (MemristorStudy, LinearSweep, WorkedBuild)}
