"""The evaluation layer: an expansion's term lists compiled into a
straight-line program, and the table of coefficients that programs fill.

This module owns the term-list format.  A node's derivatives are lists of
term tuples (coef, args), each standing for coef * f_n[args] at the base
trajectory, where n = len(args) and each entry of args is a (node key,
order) pair naming a derivative of a coefficient.  ``_terms`` makes them
from a node's ``terms`` and ``_derivative`` differentiates them; an
algebraic node also subtracts the matching derivative of node (r-1, its
label tuple), when that node exists, over (i sigma).  The lists live only
while a plan is compiled, in a dict the compile owns.

The compiling walk leaves out every term that is zero by the problem's
structure.  A field may declare ``reads(n)``, the direction components that
f_n can depend on, and a forcing ``support(j)``, the components in which its
amplitude's j-th derivative can be nonzero; either left as None means every
component.  From these one memoized analysis works out, for each value the
walk needs, the components in which it can be nonzero: a chain value's are
all of them, a forcing value's are its support, and a sum's are the union of
those of its parts that remain.  It drops a term f_n[args] when some
argument is zero on ``reads(n)``, and a lower derivative that is zero in
every component; what only dropped terms read is never computed.  A dropped
term is an exact zero for finite values, so the sums, and with them every
output bit up to the sign of a zero, are those of the full lists.  A wrong
declaration drops terms that are not zero and gives wrong answers;
``validate_field`` checks a field's ``reads``, and a build each forcing's
``support``, at a few times.

Imported on first use, by the first solve or table: a process that only
builds expansions never compiles this module, and peaks lower.
"""

import numpy as np

from .ode_core import _finite_positive, _nonnegative_integer

FORCING, POINT, SUM = range(3)


def _factor(coef):
    """A term's coefficient, or None for exactly 1, which multiplies nothing."""
    return None if coef == 1 else coef


def _terms(nodes, key, order, lists):
    """Terms of node ``key``'s order-th derivative; an ode node's start at
    order 1.  ``lists[key]`` maps the orders made so far to their lists, and
    gains every order up to this one; the caller owns ``lists``."""
    node, made = nodes[key], lists.setdefault(key, {})
    if not made:
        ode = node.kind == "ode"
        pref = 1.0 if ode else 1.0 / (1j * node.label.float_value)
        made[int(ode)] = [
            (pref * complex(term.weight), tuple((op, 0) for op in term.operands))
            for term in node.terms
        ]
    for j in range(max(k for k in made if k <= order), order):
        made[j + 1] = _derivative(made[j])
    return made[order]


def _derivative(terms):
    """The time derivative of a term list.

    (coef * f_n[a_1..a_n])' is coef * f_(n+1)[p_00', a_1..a_n] plus, for
    each i, coef * f_n[.., a_i', ..]; p_00' is the base trajectory's rate.
    """
    out = []
    for coef, args in terms:
        out.append((coef, (((0, ()), 1),) + args))
        for i, (key, order) in enumerate(args):
            out.append((coef, args[:i] + ((key, order + 1),) + args[i + 1 :]))
    return out


class Plan:
    """A straight-line program for the values of (node key, order) pairs at
    one time, compiled from the term lists.

    The compiling walk mirrors the recursion value -> node -> term sum, less
    the terms that are zero by structure (see the module docstring): each
    value needed gets an integer slot, set by one step that comes after the
    steps of the values it reads.  Slot r holds level r's chain value p_r0,
    which the caller fills in (``slots``).  There are three kinds of step:

    - ``(FORCING, out, forcing, j, i kappa)``: the amplitude's j-th
      derivative over (i kappa);
    - ``(POINT, out)``: the field's point at the base state in slot 0;
    - ``(SUM, out, lower, terms)``: c * slot for ``lower`` = (c, slot) if
      not None, plus coef * f_n[arg slots] for each (coef, arg slots) term
      in turn, n being the number of arg slots.  A coefficient that is
      exactly 1 is compiled to None and multiplies nothing.  The sum starts
      from its first part, not from a zero array, and adds each next part
      into a new array: it never writes into an array that the field
      returned.  A sum with no parts left is a fresh zero vector.

    ``segments[g]`` holds the steps that complete the g-th group of targets,
    whose slots are ``targets[g]``; the segments run in order on one slot
    list.  A plan holds nothing that depends on t or on the state.
    """

    def __init__(self, expansion, groups):
        nodes = expansion.nodes
        problem = expansion.problem
        d = problem.dimension
        self.field = problem.field
        self.dimension = d
        self.parts = [slice(r * d, (r + 1) * d) for r in range(expansion.order + 1)]
        slot_of = {((r, ()), 0): r for r in range(len(self.parts))}
        self.size = len(slot_of)
        self.point = None

        every = frozenset(range(d))
        field_reads = self.field.reads
        reads = {}  # n -> the components f_n reads
        # value -> (the components in which it can be nonzero, its sum's lower
        # derivative value or None, its sum's terms), less what is zero by
        # structure; the caller fills in a chain value, which may be nonzero
        # anywhere
        analysis = dict.fromkeys(slot_of, (every, None, ()))
        lists = {}  # the term lists, made for this compile alone (``_terms``)

        def analyse(arg):
            if arg in analysis:
                return analysis[arg]
            key, order = arg
            node = nodes[key]
            lower, terms = None, []
            if node.kind == "forcing":
                declared = problem.forcings[key[1][0] - 1].support
                support = every if declared is None else frozenset(declared(order))
            else:
                below = ((key[0] - 1, key[1]), order + 1)
                if node.kind == "algebraic" and below[0] in nodes and analyse(below)[0]:
                    lower = below
                for term in _terms(nodes, key, order, lists):
                    n = len(term[1])
                    if n not in reads:
                        reads[n] = every if field_reads is None else frozenset(field_reads(n))
                    if all(analyse(a)[0] & reads[n] for a in term[1]):
                        terms.append(term)
                if terms:
                    support = every  # a field value may be nonzero in any component
                else:
                    support = frozenset() if lower is None else analysis[lower][0]
            analysis[arg] = support, lower, terms
            return analysis[arg]

        def walk(arg, steps):
            slot = slot_of.get(arg)
            if slot is not None:
                return slot
            key, order = arg
            node = nodes[key]
            if node.kind == "forcing":
                forcing = problem.forcings[key[1][0] - 1]
                step = (FORCING, forcing, order, 1j * forcing.kappa.value)
            else:
                _, below, terms = analyse(arg)
                lower = None
                if below is not None:
                    lower = (_factor(-(1.0 / (1j * node.label.float_value))), walk(below, steps))
                if terms and self.point is None:
                    self.point = self._new_slot()
                    steps.append((POINT, self.point))
                terms = tuple(
                    (_factor(coef), tuple(walk(a, steps) for a in args)) for coef, args in terms
                )
                step = (SUM, lower, terms)
            slot = slot_of[arg] = self._new_slot()
            steps.append((step[0], slot) + step[1:])
            return slot

        self.segments, self.targets = [], []
        for group in groups:
            steps = []
            self.targets.append([walk(arg, steps) for arg in group])
            self.segments.append(steps)

    def _new_slot(self):
        self.size += 1
        return self.size - 1

    def slots(self, y=None):
        """A fresh slot list; with the stacked chain state y, slot r holds
        level r's part of it."""
        slots = [None] * self.size
        if y is not None:
            for r, part in enumerate(self.parts):
                slots[r] = y[part]
        return slots

    def run(self, segment, t, slots):
        """Carry out the steps of ``segment`` at time t on ``slots``."""
        field, point, d = self.field, self.point, self.dimension
        for step in segment:
            kind = step[0]
            if kind == SUM:
                _, out, lower, terms = step
                # never in place: a value may be an array the field returned
                total = None
                if lower is not None:
                    coef, slot = lower
                    total = slots[slot] if coef is None else coef * slots[slot]
                for coef, args in terms:
                    x = field.apply(len(args), slots[point], [slots[a] for a in args])
                    if coef is not None:
                        x = coef * x
                    total = x if total is None else total + x
                slots[out] = np.zeros(d, dtype=complex) if total is None else total
            elif kind == FORCING:
                _, out, forcing, j, i_kappa = step
                slots[out] = forcing.derivative(j, t) / i_kappa
            else:
                slots[step[1]] = field.at(slots[0])


class CoefficientTable:
    """Coefficients at the times ``ts``: ``values[r]`` is (len(ts), labels, d), one
    column per level-r label of float frequency ``sigmas[r]``; level 0 is p_00 alone."""

    def __init__(self, ts, sigmas, values):
        self.ts = ts
        self.sigmas = sigmas
        self.values = values

    def evaluate(self, omega, s):
        """The truncated sum P00 + sum_{r<=s} omega^-r sum_m P_rm e^(i sigma_m
        omega t) at every time, shape (len(ts), d)."""
        top = len(self.values) - 1
        if not 0 <= s <= top:
            raise ValueError(f"s={s} is outside 0..{top}, the levels of the table")
        s = _nonnegative_integer("s", s)
        omega = _finite_positive("omega", float(omega))
        y = self.values[0][:, 0].copy()
        for r in range(1, s + 1):
            # ((i sigma_m) omega) t: the products in the order of a per-point sum
            phases = np.exp(np.multiply.outer(1j * self.sigmas[r] * omega, self.ts))
            acc = np.zeros_like(y)
            for value, phase in zip(self.values[r].transpose(1, 0, 2), phases):
                acc = acc + value * phase[:, None]
            y = y + acc / omega**r
        return y
