"""Construction and evaluation of the oscillatory asymptotic expansion.

The solution is represented as a non-oscillatory trajectory plus, at each
inverse power of the large parameter, one coefficient function per frequency
label.  Coefficients at nonzero frequencies follow algebraic recursions in
which lower-level coefficients and their time derivatives appear divided by
the label frequency; zero-frequency coefficients solve non-oscillatory ODEs
whose initial conditions make all terms at the origin cancel level by level.

A node is named by its key (level, label tuple).  Term assembly visits each
multiset of operand keys whose levels sum to the level once
(``freq_algebra.OperandMultisets``), with weight 1/prod(m_i!), where m_i
counts the repeats of one key.  That is the total weight 1/n! of the
multiset's n!/prod(m_i!) orderings, so the classical multiplicity counts are
built in, and the bookkeeping stays correct even when equal frequencies
appear at different levels.  A multiset's frequency is the sum of its
operands' integer keys, and names its group.  The top level keeps only the
zero group, so it checks the next index set against the sums of each
partition's distinct piece keys and then walks only the multisets of zero
frequency.

A term is its weight and its operands, and its order is their number.  A
node states no neighbour: the forcing of node (1, (m,)) is forcing m, and an
algebraic node subtracts the derivative of (r-1, its label) exactly when
that node exists.

Evaluation runs a plan (``plan.Plan``) compiled from the nodes' terms; the
term-list format, with its derivative rule, belongs to ``plan``.  The chain
solve keeps one plan of every level's coefficients with the chain solution:
it gave the initial values, and ``Expansion.table`` runs it on one sample of
the stacked chain solution per time.  A single coefficient or derivative
compiles a plan of its own, so no evaluation changes the expansion.  No
coefficient depends on omega: the table is a caller-owned
``plan.CoefficientTable``, whose truncated sums at any omega are numpy
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutOfDomain, UnsupportedOrder
from .freq_algebra import (
    OperandMultisets,
    build_index_chain,
    format_label,
)
from .ode_core import (
    DenseSolution,
    IvpSpec,
    _check_finite_y0,
    _nonnegative_integer,
    integrate,
    sample,
)

__all__ = [
    "Problem",
    "Term",
    "CoefficientNode",
    "Expansion",
    "build_expansion",
    "solve_nonoscillatory_chain",
    "dump_expansion",
]


class Problem:
    """An ODE with oscillatory forcing channels at distinct base frequencies.

    Forcing m's base frequency is the one that index m names in every label.
    Each must be made over ``basis``, with one coordinate per basis real and
    the value that ``basis`` gives its coordinates, or ``ValueError`` names
    its position.
    """

    def __init__(self, vector_field, forcings, y0, basis):
        if not forcings:
            raise ValueError("at least one forcing channel required")
        self.field = vector_field
        self.forcings = list(forcings)
        self.y0 = np.asarray(y0, dtype=complex)
        self.basis = basis
        if self.y0.shape != (vector_field.dimension,):
            raise ValueError(
                f"initial state has shape {self.y0.shape}; the field needs "
                f"({vector_field.dimension},)"
            )
        _check_finite_y0(self.y0)
        for pos, forcing in enumerate(self.forcings, start=1):
            shape = np.shape(forcing.derivative(0, 0.0))
            if shape != (vector_field.dimension,):
                raise ValueError(
                    f"forcing {pos} amplitude has shape {shape} at t=0; the field "
                    f"needs ({vector_field.dimension},)"
                )
            kappa = forcing.kappa
            if len(kappa.sigma) != basis.dimension or kappa.value != basis.sigma_float(kappa.sigma):
                raise ValueError(
                    f"base frequency {pos} (value {kappa.value!r}, {len(kappa.sigma)} "
                    f"coordinate(s)) is not made over the problem's basis {basis.basis_reals}"
                )
        sigmas = [f.kappa.sigma for f in self.forcings]
        for i in range(len(sigmas)):
            for j in range(i + 1, len(sigmas)):
                if sigmas[i] == sigmas[j]:
                    raise ValueError(
                        f"base frequencies {i + 1} and {j + 1} coincide; merge "
                        "those forcing channels first"
                    )

    @property
    def dimension(self):
        return self.field.dimension

    @property
    def kappas(self):
        return [f.kappa for f in self.forcings]


def _check_field_shape(problem):
    """ValueError unless the field's value at ``y0`` has the state's shape.

    A chain solve and an RK reference call this where they first use the
    field; ``Problem`` does not, so a build-only process evaluates no field.
    """
    shape = np.shape(problem.field(problem.y0))
    if shape != (problem.dimension,):
        raise ValueError(
            f"field value has shape {shape} at y0; the state needs ({problem.dimension},)"
        )


@dataclass(frozen=True, slots=True)
class Term:
    """One merged right-hand-side contribution w * f_n[p_(l1,k1), ...]; its
    order n is the number of its operands."""

    weight: Fraction
    operands: tuple  # sorted tuple of node keys (level, label tuple)

    def describe(self):
        if not self.operands:
            return f"{self.weight} f[p(0,0)]"
        ops = ", ".join(f"p({lev},{format_label(tup)})" for lev, tup in self.operands)
        return f"{self.weight} f{len(self.operands)}[{ops}]"


@dataclass
class CoefficientNode:
    """One coefficient function of the expansion; its level r and label
    tuple are its key in ``Expansion.nodes``, (r, label tuple), not fields.

    kind 'forcing' nodes, (1, (m,)), are forcing m's amplitude over
    (i kappa_m); 'algebraic' nodes divide their term sum (and minus the
    derivative of node (r-1, label tuple), when that node exists) by
    (i sigma); 'ode' nodes, once the chain is solved, hold the step ends
    and counts of their non-oscillatory equation's solve, without its
    interpolant (``solve_nonoscillatory_chain``).
    """

    label: object
    kind: str
    terms: tuple = ()
    solution: object = None


class Expansion:
    """Node table plus index sets; evaluable once the ODE chain is solved."""

    def __init__(self, problem, order, index_sets, nodes):
        self.problem = problem
        self.order = order
        self.index_sets = index_sets  # levels 0..order+1
        self.nodes = nodes
        # the stacked chain's DenseSolution and the plan of every level's
        # coefficients, both set by solve_nonoscillatory_chain
        self.chain_solution = None
        self._levels_plan = None

    def labels_at(self, r):
        """Level r's labels; level 0 has the zero label alone."""
        return self.index_sets[r].labels if r else [self.nodes[(0, ())].label]

    def coefficient_value(self, r, label, t, order=0):
        """The order-th time derivative of coefficient (r, label) at t.

        The solved chain is sampled at t for every coefficient, a forcing
        one too, so before a solve, or at a t outside the solved span, this
        raises OutOfDomain.
        """
        order = _nonnegative_integer("derivative order", order)
        t = _finite_time(t)
        key = (r, label.canonical_tuple if hasattr(label, "canonical_tuple") else tuple(label))
        if key not in self.nodes:
            if not 0 <= r <= self.order:
                raise ValueError(f"r={r} is outside 0..{self.order}, the built order")
            _nonnegative_integer("r", r)
            present = sorted(tup for lev, tup in self.nodes if lev == r)
            raise ValueError(
                f"label {format_label(key[1])} is not in level {r}'s index set; its labels "
                f"are {', '.join(format_label(tup) for tup in present)}"
            )
        from .plan import Plan

        plan = Plan(self, [[(key, order)]])
        slots = plan.slots(sample(self._solved_chain(), t))
        plan.programs[0](t, slots)
        # a copy: a sum's value may be an array that the field returned
        return slots[plan.targets[0][0]].copy()

    def table(self, ts, s=None):
        """Every coefficient of levels 0..s (default: the built order) at each
        time in ``ts``, one chain sample per time; the table serves every omega."""
        # imported here: a build-only process then never compiles it, and peaks lower
        from .plan import CoefficientTable
        s = self.order if s is None else s
        if not 0 <= s <= self.order:
            raise ValueError(f"s={s} is outside 0..{self.order}, the built order")
        s = _nonnegative_integer("s", s)
        ts = [_finite_time(t) for t in np.ravel(ts)]
        chain, plan = self._solved_chain(), self._levels_plan
        d = self.problem.dimension
        values = [np.empty((len(ts), len(plan.targets[r]), d), dtype=complex) for r in range(s + 1)]
        for i, t in enumerate(ts):
            slots = plan.slots(sample(chain, t))
            for r in range(s + 1):
                plan.programs[r](t, slots)
                for m, slot in enumerate(plan.targets[r]):
                    values[r][i, m] = slots[slot]
        sigmas = [np.array([lab.float_value for lab in self.labels_at(r)]) for r in range(s + 1)]
        return CoefficientTable(np.array(ts), sigmas, values)

    def evaluate_truncated(self, t, omega, s):
        """Partial sum through level s at time t and parameter omega."""
        return self.table([t], s).evaluate(omega, s)[0]

    def _solved_chain(self):
        """The stacked chain solution; before a solve, OutOfDomain."""
        if self.chain_solution is None:
            raise OutOfDomain(
                f"nodes (r=0..{self.order}, m=0) have no solution; "
                "run solve_nonoscillatory_chain first"
            )
        return self.chain_solution


def _finite_time(t):
    """``t`` as a float; at a NaN or infinite time a forcing coefficient is NaN."""
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"t={t!r} must be finite")
    return t


# -- construction ---------------------------------------------------------------


def _check_orders(problem, order):
    """Orders, and declared forcing supports, against what ``order`` levels read."""
    supported = problem.field.max_order
    if supported is not None and supported < max(1, order):
        raise UnsupportedOrder(
            f"building {order} levels needs differentials up to order {order}, "
            f"field supports {supported}"
        )
    for m, forcing in enumerate(problem.forcings, start=1):
        limit = forcing.max_derivative_order
        if limit is not None and limit < order - 1:
            raise UnsupportedOrder(
                f"forcing {m} supports amplitude derivatives up to {limit}, "
                f"need {order - 1}"
            )
        for j in range(order if forcing.support is not None else 0):
            for t in (0.0, 0.318, 0.707, 1.414):
                outside = set(np.flatnonzero(forcing.derivative(j, t))) - set(forcing.support(j))
                if outside:
                    raise ValueError(
                        f"forcing {m}'s amplitude derivative of order {j} is nonzero at "
                        f"t={t} in component {min(outside)}, outside its declared support({j})"
                    )


def build_expansion(problem, order=4, delta_min=None):
    """Assemble the coefficient node table for levels 0..order.

    Level-0 is the unforced ODE from the original initial state; level-1
    oscillatory coefficients are amplitudes over (i kappa); higher levels
    follow the recursions, with one term per operand multiset, weighted as
    described in the module docstring.
    """
    order = _nonnegative_integer("order", order)
    _check_orders(problem, order)
    basis = problem.basis
    kappas = problem.kappas
    chain = build_index_chain(basis, kappas, max(order + 1, 1), delta_min)
    multisets = OperandMultisets(chain, basis, kappas)

    nodes = {}
    zero_label = chain[1].labels[0]
    base_node = CoefficientNode(
        label=zero_label,
        kind="ode",
        terms=(Term(weight=Fraction(1), operands=()),),
    )
    nodes[(0, ())] = base_node

    if order >= 1:
        for label in chain[1].labels[1:]:  # the base frequencies, forcing by forcing
            nodes[(1, label.canonical_tuple)] = CoefficientNode(label=label, kind="forcing")

    for r in range(1, order + 1):
        groups = _level_terms(multisets, r, top=r == order)
        upper = chain[r + 1]

        zero_terms = tuple(groups.get((), ()))
        nodes[(r, ())] = CoefficientNode(label=zero_label, kind="ode", terms=zero_terms)

        if r + 1 <= order:
            for label in upper.labels:
                if label.is_zero:
                    continue
                key = (r + 1, label.canonical_tuple)
                nodes[key] = CoefficientNode(
                    label=label,
                    kind="algebraic",
                    terms=tuple(groups.get(label.canonical_tuple, ())),
                )

    return Expansion(problem, order, chain[: order + 2], nodes)


def _level_terms(multisets, r, top=False):
    """Terms of the level-r equation, grouped by frequency label.

    One term per operand multiset (``OperandMultisets.level``), with weight
    1/prod(m_i!), in the group of the next index set's label with its
    frequency; every group frequency must already be present there.  At the
    top level (``top``) only the zero group, p_R0's terms, is made: a
    nonzero group there would feed a node one level above the build.  So
    the top level walks only the zero-frequency multisets, after checking
    the next set against every frequency that the level's partitions can
    sum to.
    """
    rows = {}
    for operands, target, weight in multisets.level(r, zero_only=top):
        rows.setdefault(target.canonical_tuple, []).append((len(operands), operands, weight))
    groups = {}
    for label, group in rows.items():
        group.sort()  # operands are unique within a group, so no weight is compared
        groups[label] = [
            Term(weight=weight, operands=operands) for _, operands, weight in group
        ]
    return groups


# -- solving ----------------------------------------------------------------------

# the chain's default tolerance: the level-0 trajectory's error is the floor
# of every truncated sum, so it is solved tighter than a reference
CHAIN_TOL = 1e-12


def solve_nonoscillatory_chain(expansion, t_end, tol=CHAIN_TOL, knots=None):
    """Solve the zero-frequency ODE nodes of every level on [0, t_end].

    Each level's initial condition is the negated sum of that level's
    oscillatory coefficients at the origin, so all terms cancel there.  All
    levels are one system on the stacked state [p_00, p_10, ..., p_R0], so
    one step sequence, with error control over the whole state, serves
    every level.  Step sizes are set by ``tol`` alone, which bounds each
    step's error by ``tol + tol * |y|`` componentwise (``IvpSpec``):
    evaluation takes derivatives from the term lists, never from the
    interpolant.

    The stacked solution, with its one interpolant per step, is
    ``expansion.chain_solution``, and it is what ``Expansion.table`` and
    ``coefficient_value`` sample.  Each level's ``CoefficientNode.solution``
    holds only that level's step ends (``ts`` and its slice of ``ys``) and
    the solve's counts; it has no interpolant and is not sampled.
    """
    system = _ChainSystem(expansion)
    try:
        solution = integrate(
            IvpSpec(
                rhs=system,
                y0=np.concatenate(system.initial_values()),
                t_end=float(t_end),
                tol=tol,
                knots=knots,
            )
        )
    except Exception as err:
        if system.level is None:
            err.add_note(f"while solving nodes (r=0..{expansion.order}, m=0)")
        else:
            err.add_note(f"while solving node (r={system.level}, m=0)")
        raise
    expansion.chain_solution, expansion._levels_plan = solution, system.levels_plan
    for r, part in enumerate(system.plan.parts):
        expansion.nodes[(r, ())].solution = DenseSolution(
            ts=solution.ts,
            ys=solution.ys[:, part],
            n_steps=solution.n_steps,
            n_accepted=solution.n_accepted,
            n_rhs_evals=solution.n_rhs_evals,
        )
    return expansion


class _ChainSystem:
    """The zero-frequency nodes of all levels as one ODE on the stacked state.

    A level-r equation reads only lower levels and its own unknown, so a
    call seeds the chain plan's slots with every level's part of the state
    (lower levels enter as exact stage values) and runs the plan's
    programs, one per level in increasing order; each level's derivative
    stays in its slot for the levels above.  The plan is compiled once per
    solve, and next to it ``levels_plan``, whose group r is every level-r
    coefficient, label by label: it gives the initial values, and the solve
    keeps it for the table.  ``level`` is the level being worked on, or None
    outside a call, so an error can name it.
    """

    def __init__(self, expansion):
        self.expansion = expansion
        from .plan import Plan

        levels = range(expansion.order + 1)
        self.plan = Plan(expansion, [[((r, ()), 1)] for r in levels])
        self.levels_plan = Plan(
            expansion,
            [[((r, label.canonical_tuple), 0) for label in expansion.labels_at(r)] for r in levels],
        )
        self.level = None

    def initial_values(self):
        """Each level's value at t = 0, computed from the levels below it.

        A value that is not finite raises ``ValueError`` while ``level``
        still names its level, and so does a field value at ``y0`` of the
        wrong shape, at level 0.
        """
        expansion, y0 = self.expansion, self.expansion.problem.y0
        self.level = 0  # the field's value is level 0's right-hand side
        _check_field_shape(expansion.problem)
        plan = self.levels_plan
        slots = plan.slots()
        for r, (program, targets) in enumerate(zip(plan.programs, plan.targets)):
            self.level = r
            program(0.0, slots)
            ic = np.zeros(plan.dimension, dtype=complex) if r else y0.astype(complex)
            for label, slot in zip(expansion.labels_at(r), targets):
                if not label.is_zero:
                    ic -= slots[slot]
            (bad,) = np.nonzero(~np.isfinite(ic))
            if bad.size:
                raise ValueError(
                    f"the level-{r} initial value is not finite: component {bad[0]} "
                    f"is {complex(ic[bad[0]])!r}"
                )
            slots[r] = ic
        self.level = None
        return slots[: len(plan.programs)]

    def __call__(self, t, y):
        plan = self.plan
        slots = plan.slots(y)
        for self.level, program in enumerate(plan.programs):
            program(t, slots)
        self.level = None
        return np.concatenate([slots[target] for (target,) in plan.targets])


# -- report -------------------------------------------------------------------------


def _format_complex(z):
    return "%.12g%+.12gj" % (z.real, z.imag)


def dump_expansion(expansion):
    """Structured text report of the node table, suitable for golden files."""
    basis = expansion.problem.basis
    lines = [
        f"expansion order={expansion.order} channels={len(expansion.problem.forcings)} "
        f"dimension={expansion.problem.dimension}"
    ]
    for r in range(expansion.order + 1):
        for label in expansion.labels_at(r):
            node = expansion.nodes[(r, label.canonical_tuple)]
            sig = basis.sigma_string(label.sigma)
            lines.append(
                f"node r={r} m={format_label(label.canonical_tuple)} sigma={sig} "
                f"({label.float_value:.12g}) kind={node.kind}"
            )
            if node.kind == "forcing":
                lines.append(f"  value: a_{label.canonical_tuple[0]}(t) / (i*({sig}))")
            else:
                if node.kind == "algebraic":
                    lines.append(f"  prefactor: 1/(i*({sig}))")
                    if (r - 1, label.canonical_tuple) in expansion.nodes:
                        lines.append(
                            f"  deriv: -(d/dt) p({r - 1},{format_label(label.canonical_tuple)})"
                        )
                for term in node.terms:
                    lines.append(f"  term: {term.describe()}")
                if node.kind == "ode":
                    if r == 0:
                        lines.append("  ic: original initial state")
                    else:
                        lines.append("  ic: -(sum of level-%d values at 0)" % r)
                    if node.solution is not None:
                        vals = ", ".join(_format_complex(z) for z in node.solution.ys[0])
                        lines.append(f"  ic value: [{vals}]")
    return "\n".join(lines) + "\n"
