"""Construction and evaluation of the oscillatory asymptotic expansion.

The solution is represented as a non-oscillatory trajectory plus, at each
inverse power of the large parameter, one coefficient function per frequency
label.  Coefficients at nonzero frequencies follow algebraic recursions in
which lower-level coefficients and their time derivatives appear divided by
the label frequency; zero-frequency coefficients solve non-oscillatory ODEs
whose initial conditions make all terms at the origin cancel level by level.

Term assembly enumerates every ordered split of a level into lower levels and
every choice of operand labels, each carrying weight 1/n!, then merges terms
that agree as multisets of (level, label) pairs.  The classical multiplicity
counts arise implicitly from the merge, which keeps the bookkeeping correct
even when equal frequencies appear at different levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction

import numpy as np

from .errors import OutOfDomain, UnsupportedOrder
from .freq_algebra import build_index_chain, format_label
from .ode_core import DenseSolution, IvpSpec, integrate, sample

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
    """An ODE with oscillatory forcing channels at distinct base frequencies."""

    def __init__(self, vector_field, forcings, y0, basis):
        if not forcings:
            raise ValueError("at least one forcing channel required")
        self.field = vector_field
        self.forcings = list(forcings)
        self.y0 = np.asarray(y0, dtype=complex)
        self.basis = basis
        if self.y0.shape != (vector_field.dimension,):
            raise ValueError("initial state dimension mismatch")
        for pos, forcing in enumerate(self.forcings, start=1):
            shape = np.shape(forcing.derivative(0, 0.0))
            if shape != (vector_field.dimension,):
                raise ValueError(
                    f"forcing {pos} amplitude has shape {shape} at t=0; the field "
                    f"needs ({vector_field.dimension},)"
                )
            if forcing.kappa.index != pos:
                raise ValueError(
                    f"forcing at position {pos} carries base-frequency index "
                    f"{forcing.kappa.index}; indices must be 1..M in order"
                )
        sigmas = [f.kappa.sigma for f in self.forcings]
        for i in range(len(sigmas)):
            for j in range(i + 1, len(sigmas)):
                if basis.sigma_equal(sigmas[i], sigmas[j]):
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


@dataclass(frozen=True)
class Term:
    """One merged right-hand-side contribution w * f_n[p_(l1,k1), ...]."""

    weight: Fraction
    n: int
    operands: tuple  # sorted tuple of (level, FrequencyLabel)

    @property
    def levels(self):
        return tuple(lev for lev, _ in self.operands)

    def describe(self):
        if self.n == 0:
            return f"{self.weight} f[p(0,0)]"
        ops = ", ".join(f"p({lev},{format_label(lab.canonical_tuple)})" for lev, lab in self.operands)
        return f"{self.weight} f{self.n}[{ops}]"


@dataclass
class CoefficientNode:
    """One coefficient function of the expansion.

    kind 'forcing' nodes are amplitude over (i kappa); 'algebraic' nodes
    divide their term sum (and minus the derivative of the node one level
    down, when that node exists) by (i sigma); 'ode' nodes hold the dense
    solution of their non-oscillatory equation.
    """

    r: int
    label: object
    kind: str
    terms: tuple = ()
    forcing_index: int = 0
    has_lower_derivative: bool = False
    solution: object = None
    initial_value: object = None
    _expr_cache: dict = dataclass_field(default_factory=dict)

    @property
    def key(self):
        return (self.r, self.label.canonical_tuple)


class _NodeRef:
    """coef times the order-th time derivative of a coefficient node."""

    __slots__ = ("coef", "key", "order")

    def __init__(self, coef, key, order):
        self.coef = coef
        self.key = key
        self.order = order

    def diff(self):
        return [_NodeRef(self.coef, self.key, self.order + 1)]

    def evaluate(self, expansion, values, t, point):
        return self.coef * expansion._value(values, self.key, t, self.order, point)


class _FTerm:
    """coef times f_n at the base trajectory applied to direction expressions."""

    __slots__ = ("coef", "n", "args")

    def __init__(self, coef, n, args):
        self.coef = coef
        self.n = n
        self.args = args

    def diff(self):
        out = [_FTerm(self.coef, self.n + 1, [_NodeRef(1.0, (0, ()), 1)] + self.args)]
        for i, arg in enumerate(self.args):
            for darg in arg.diff():
                out.append(_FTerm(self.coef, self.n, self.args[:i] + [darg] + self.args[i + 1 :]))
        return out

    def evaluate(self, expansion, values, t, point):
        """``point`` is the field at the base trajectory's value at t."""
        dirs = [arg.evaluate(expansion, values, t, point) for arg in self.args]
        return self.coef * expansion.problem.field.apply(self.n, point, dirs)


class Expansion:
    """Node table plus index sets; evaluable once the ODE chain is solved."""

    def __init__(self, problem, order, index_sets, nodes):
        self.problem = problem
        self.order = order
        self.index_sets = index_sets  # levels 0..order+1
        self.nodes = nodes
        self.solved_t_end = None
        # evaluation memo: t -> {(node key, order): value}
        self._memo = {}

    def node(self, r, label_tuple):
        return self.nodes[(r, tuple(label_tuple))]

    def labels_at(self, r):
        return self.index_sets[r].labels

    # -- internal evaluation ---------------------------------------------------

    def _clear_cache(self):
        self._memo.clear()
        for node in self.nodes.values():
            node._expr_cache.clear()

    def _value(self, values, key, t, order, point=None):
        """Value of a node's order-th derivative at t.

        ``values`` maps (node key, order) to the values already known at
        this t; the result is added to it.  ``point``, when given, is the
        field at the base trajectory's value at the same t; every term
        evaluated under this call shares it.
        """
        memo_key = (key, order)
        hit = values.get(memo_key)
        if hit is not None:
            return hit
        value = self._compute(values, key, t, order, point)
        values[memo_key] = value
        return value

    def _compute(self, values, key, t, order, point):
        node = self.nodes[key]
        if node.kind == "forcing":
            forcing = self.problem.forcings[node.forcing_index - 1]
            return forcing.derivative(order, t) / (1j * forcing.kappa.value)
        if node.kind == "ode":
            if order == 0:
                if node.solution is None:
                    raise OutOfDomain(
                        f"node (r={node.r}, m={format_label(key[1])}) has no solution; "
                        "run solve_nonoscillatory_chain first"
                    )
                return sample(node.solution, t)
        return self._eval_exprs(values, self._exprs(node, order), t, point)

    def _eval_exprs(self, values, exprs, t, point):
        if point is None and any(type(expr) is _FTerm for expr in exprs):
            point = self.problem.field.at(self._value(values, (0, ()), t, 0))
        total = np.zeros(self.problem.dimension, dtype=complex)
        for expr in exprs:
            total = total + expr.evaluate(self, values, t, point)
        return total

    def _exprs(self, node, order):
        cache = node._expr_cache
        if order in cache:
            return cache[order]
        if node.kind == "ode":
            # derivative of order j is the (j-1)-th derivative of the RHS
            base_order = 1
            base = [
                _FTerm(complex(term.weight), term.n, self._term_args(term))
                for term in node.terms
            ]
        else:
            base_order = 0
            pref = 1.0 / (1j * node.label.float_value)
            base = [
                _FTerm(pref * complex(term.weight), term.n, self._term_args(term))
                for term in node.terms
            ]
            if node.has_lower_derivative:
                base.insert(0, _NodeRef(-pref, (node.r - 1, node.label.canonical_tuple), 1))
        cache[base_order] = base
        exprs = cache[max(k for k in cache if k <= order)]
        for j in range(max(k for k in cache if k <= order), order):
            exprs = [d for expr in exprs for d in expr.diff()]
            cache[j + 1] = exprs
        return cache[order]

    def _term_args(self, term):
        return [_NodeRef(1.0, (lev, lab.canonical_tuple), 0) for lev, lab in term.operands]

    # -- public evaluation -------------------------------------------------------

    def coefficient_value(self, r, label, t):
        return self.coefficient_derivative(r, label, t, order=0)

    def coefficient_derivative(self, r, label, t, order=1):
        t = float(t)
        values = self._memo.setdefault(t, {})
        return self._value(values, (r, _as_tuple(label)), t, int(order)).copy()

    def evaluate_truncated(self, t, omega, s):
        """Partial sum through level s at time t and parameter omega."""
        if s > self.order:
            raise ValueError(f"s={s} exceeds built order {self.order}")
        t = float(t)
        values = self._memo.setdefault(t, {})
        y = self._value(values, (0, ()), t, 0).copy()
        for r in range(1, s + 1):
            acc = np.zeros(self.problem.dimension, dtype=complex)
            for label in self.labels_at(r):
                value = self._value(values, (r, label.canonical_tuple), t, 0)
                acc = acc + value * np.exp(1j * label.float_value * omega * t)
            y = y + acc / float(omega) ** r
        return y


def _as_tuple(label):
    if hasattr(label, "canonical_tuple"):
        return label.canonical_tuple
    return tuple(label)


# -- construction ---------------------------------------------------------------


def _compositions(total, parts):
    """Ordered tuples of positive integers of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _check_orders(problem, order):
    fld = problem.field
    if fld.max_order < max(1, order):
        raise UnsupportedOrder(
            f"building {order} levels needs differentials up to order {order}, "
            f"field supports {fld.max_order}"
        )
    for m, forcing in enumerate(problem.forcings, start=1):
        limit = forcing.max_derivative_order
        if limit is not None and limit < order - 1:
            raise UnsupportedOrder(
                f"forcing {m} supports amplitude derivatives up to {limit}, "
                f"need {order - 1}"
            )


def build_expansion(problem, order=4, delta_min=None):
    """Assemble the coefficient node table for levels 0..order.

    Level-0 is the unforced ODE from the original initial state; level-1
    oscillatory coefficients are amplitudes over (i kappa); higher levels
    follow the recursions, with term lists produced by exhaustive enumeration
    and merging as described in the module docstring.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    _check_orders(problem, order)
    basis = problem.basis
    kappas = problem.kappas
    chain = build_index_chain(basis, kappas, max(order + 1, 1), delta_min)

    nodes = {}
    zero_label = chain[1].labels[0]
    base_node = CoefficientNode(
        r=0,
        label=zero_label,
        kind="ode",
        terms=(Term(weight=Fraction(1), n=0, operands=()),),
    )
    nodes[(0, ())] = base_node

    if order >= 1:
        for m, forcing in enumerate(problem.forcings, start=1):
            label = chain[1].labels[m]
            nodes[(1, label.canonical_tuple)] = CoefficientNode(
                r=1, label=label, kind="forcing", forcing_index=m
            )

    for r in range(1, order + 1):
        groups = _level_terms(chain, r, basis)
        upper = chain[r + 1]
        current_tuples = {lab.canonical_tuple for lab in chain[r].labels}

        zero_terms = tuple(groups.get((), ()))
        nodes[(r, ())] = CoefficientNode(r=r, label=zero_label, kind="ode", terms=zero_terms)

        if r + 1 <= order:
            for label in upper.labels:
                if label.is_zero:
                    continue
                key = (r + 1, label.canonical_tuple)
                nodes[key] = CoefficientNode(
                    r=r + 1,
                    label=label,
                    kind="algebraic",
                    terms=tuple(groups.get(label.canonical_tuple, ())),
                    has_lower_derivative=label.canonical_tuple in current_tuples,
                )

    return Expansion(problem, order, chain[: order + 2], nodes)


def _level_terms(chain, r, basis):
    """Merged terms of the level-r equation, grouped by frequency label.

    Enumerates ordered level splits and operand choices with weight 1/n!,
    merging contributions that agree as multisets of (level, label) pairs.
    Every group frequency must already be present in the next index set.
    """
    merged = {}
    for n in range(1, r + 1):
        base_weight = Fraction(1, math.factorial(n))
        for levels in _compositions(r, n):
            pools = [chain[lev].labels for lev in levels]
            for combo in _product(pools):
                ops = tuple(sorted(
                    ((lev, lab) for lev, lab in zip(levels, combo)),
                    key=lambda ol: (ol[0], ol[1].canonical_tuple),
                ))
                key = (n, tuple((lev, lab.canonical_tuple) for lev, lab in ops))
                entry = merged.get(key)
                if entry is None:
                    merged[key] = [base_weight, ops]
                else:
                    entry[0] += base_weight

    upper = chain[r + 1]
    groups = {}
    for (n, _), (weight, ops) in merged.items():
        sigma = basis.zero_sigma()
        for _, lab in ops:
            sigma = basis.sigma_add(sigma, lab.sigma)
        target = upper.find(sigma, basis)
        if target is None:
            raise AssertionError(
                f"level-{r} term frequency {basis.sigma_string(sigma)} missing from "
                "the next index set"
            )
        groups.setdefault(target.canonical_tuple, []).append(
            Term(weight=weight, n=n, operands=ops)
        )
    for terms in groups.values():
        terms.sort(key=lambda tm: (tm.n, tuple((lev, lab.canonical_tuple) for lev, lab in tm.operands)))
    return groups


def _product(pools):
    if not pools:
        yield ()
        return
    for head in pools[0]:
        for rest in _product(pools[1:]):
            yield (head,) + rest


# -- solving ----------------------------------------------------------------------


def solve_nonoscillatory_chain(
    expansion,
    t_end,
    abs_tol=1e-12,
    rel_tol=1e-12,
    knots=None,
    dense_refine=True,
    max_steps=10_000_000,
    max_step=None,
):
    """Solve the zero-frequency ODE nodes of every level on [0, t_end].

    Each level's initial condition is the negated sum of that level's
    oscillatory coefficients at the origin, so all terms cancel there.  All
    levels are one system on the stacked state [p_00, p_10, ..., p_R0], so
    one step sequence, with error control over the whole state, serves
    every level.  The step cap keeps the dense-output interpolant's
    derivative accurate, not just its values; by default accepted steps
    stay below t_end / 512.
    """
    expansion._clear_cache()
    if max_step is None:
        max_step = float(t_end) / 512.0
    system = _ChainSystem(expansion)
    try:
        ics = system.initial_values()
        solution = integrate(
            IvpSpec(
                rhs=system,
                y0=np.concatenate(ics),
                t_end=float(t_end),
                abs_tol=abs_tol,
                rel_tol=rel_tol,
                knots=knots,
                dense_refine=dense_refine,
                max_steps=max_steps,
                max_step=max_step,
            )
        )
    except Exception as err:
        if system.level is None:
            err.add_note(f"while solving nodes (r=0..{expansion.order}, m=0)")
        else:
            err.add_note(f"while solving node (r={system.level}, m=0)")
        raise
    for r, (ic, part) in enumerate(zip(ics, system.parts)):
        node = expansion.nodes[(r, ())]
        node.solution = DenseSolution(
            ts=solution.ts,
            ys=solution.ys[:, part],
            fs=solution.fs[:, part],
            n_steps=solution.n_steps,
            n_rhs_evals=solution.n_rhs_evals,
        )
        node.initial_value = ic
    expansion.solved_t_end = float(t_end)
    return expansion


class _ChainSystem:
    """The zero-frequency nodes of all levels as one ODE on the stacked state.

    A level-r equation reads only lower levels and its own unknown, so a
    call evaluates levels in increasing order, with one field point and one
    dict of the values known at its time; lower levels are exact stage
    values.  Terms are planned as (weight, order, operand slots), slot -1
    being the level's own unknown.  ``level`` is the level being worked on,
    or None outside a call, so an error can name it.
    """

    def __init__(self, expansion):
        self.expansion = expansion
        self.field = expansion.problem.field
        self.dimension = d = expansion.problem.dimension
        levels = range(expansion.order + 1)
        self.parts = [slice(r * d, (r + 1) * d) for r in levels]
        self.state_keys = [((r, ()), 0) for r in levels]
        self.derivative_keys = [((r, ()), 1) for r in levels]
        self.plans = [self._plan(expansion.nodes[(r, ())]) for r in levels]
        self.needs_point = any(n for _, plan in self.plans for _, n, _ in plan)
        self.level = None

    @staticmethod
    def _plan(node):
        own = (node.r, ())
        operand_keys = [
            key
            for key in dict.fromkeys(
                (lev, lab.canonical_tuple) for term in node.terms for lev, lab in term.operands
            )
            if key != own
        ]
        slot = {key: i for i, key in enumerate(operand_keys)}
        plan = [
            (
                complex(term.weight),
                term.n,
                [slot.get((lev, lab.canonical_tuple), -1) for lev, lab in term.operands],
            )
            for term in node.terms
        ]
        return operand_keys, plan

    def initial_values(self):
        """Each level's value at t = 0, computed from the levels below it."""
        expansion = self.expansion
        values = {}
        ics = []
        for r, key in enumerate(self.state_keys):
            self.level = r
            if r == 0:
                ic = expansion.problem.y0.astype(complex)
            else:
                ic = np.zeros(self.dimension, dtype=complex)
                for label in expansion.labels_at(r):
                    if label.is_zero:
                        continue
                    ic -= expansion._value(values, (r, label.canonical_tuple), 0.0, 0)
            values[key] = ic
            ics.append(ic)
        self.level = None
        return ics

    def __call__(self, t, y):
        fld = self.field
        value = self.expansion._value
        states = [y[part] for part in self.parts]
        values = dict(zip(self.state_keys, states))
        self.level = 0
        point = fld.at(states[0]) if self.needs_point else None
        out = np.empty_like(y)
        for r, (operand_keys, plan) in enumerate(self.plans):
            self.level = r
            operands = [value(values, key, t, 0, point) for key in operand_keys]
            operands.append(states[r])
            total = np.zeros(self.dimension, dtype=complex)
            for weight, n, slots in plan:
                if n == 0:
                    total = total + weight * fld(states[r])
                    continue
                total = total + weight * fld.apply(n, point, [operands[i] for i in slots])
            values[self.derivative_keys[r]] = total
            out[self.parts[r]] = total
        self.level = None
        return out


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
    for r in range(0, expansion.order + 1):
        labels = expansion.labels_at(r) if r >= 1 else [expansion.index_sets[1].labels[0]]
        for label in labels:
            node = expansion.nodes[(r, label.canonical_tuple)]
            sig = basis.sigma_string(label.sigma)
            lines.append(
                f"node r={r} m={format_label(label.canonical_tuple)} sigma={sig} "
                f"({label.float_value:.12g}) kind={node.kind}"
            )
            if node.kind == "forcing":
                lines.append(f"  value: a_{node.forcing_index}(t) / (i*({sig}))")
            else:
                if node.kind == "algebraic":
                    lines.append(f"  prefactor: 1/(i*({sig}))")
                    if node.has_lower_derivative:
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
                    if node.initial_value is not None:
                        vals = ", ".join(_format_complex(z) for z in node.initial_value)
                        lines.append(f"  ic value: [{vals}]")
    return "\n".join(lines) + "\n"
