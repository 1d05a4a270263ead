"""The evaluation plan: an expansion's term lists compiled into a
straight-line program.

This module owns the term-list format.  A node's derivatives are lists of
term tuples (coef, n, args), each standing for coef * f_n[args] at the base
trajectory, where each entry of args is a (node key, order) pair naming a
derivative of a coefficient.  ``_terms`` makes them from a node's ``terms``
and ``_derivative`` differentiates them; an algebraic node also subtracts
the matching derivative of the node one level down, over (i sigma).  The
lists live only while a plan is compiled, in a dict the compile owns.

The compiling walk leaves out every term that is zero by the problem's
structure.  A field may declare ``reads(n)``, the direction components that
f_n can depend on, and a forcing ``support(j)``, the components in which its
amplitude's j-th derivative can be nonzero; either left as None means every
component.  From these the walk works out which components of each value it
needs can be nonzero: a chain value's are all of them, a forcing value's are
its support, and a sum's are the union of those of its terms that remain.
It drops a term f_n[args] when some argument is zero on ``reads(n)``, and a
lower derivative that is zero in every component; what only dropped terms
read is never computed.  A dropped term is an exact zero for finite values,
so the sums, and with them every output bit up to the sign of a zero, are
those of the full lists.  A wrong declaration drops terms that are not zero
and gives wrong answers; ``validate_field`` checks a field's ``reads``, and
a build each forcing's ``support``, at a few times.

Imported on first use, as ``coefficient_table`` is: a process that only
builds expansions never compiles this module, and peaks lower.
"""

import numpy as np

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
            (pref * complex(term.weight), term.n, tuple((op, 0) for op in term.operands))
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
    for coef, n, args in terms:
        out.append((coef, n + 1, (((0, ()), 1),) + args))
        for i, (key, order) in enumerate(args):
            out.append((coef, n, args[:i] + ((key, order + 1),) + args[i + 1 :]))
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
      not None, plus coef * f_n[arg slots] for each (coef, n, arg slots)
      term in turn.  A coefficient that is exactly 1 is compiled to None and
      multiplies nothing.  The sum starts from its first part, not from a
      zero array, and adds each next part into a new array: it never writes
      into an array that the field returned.  A sum with no parts left is a
      fresh zero vector.

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
        self.reads_chain = False

        every = frozenset(range(d))
        declared_reads = self.field.reads
        reads = {}  # n -> the components f_n reads
        # value -> the components in which it can be nonzero
        support = dict.fromkeys(slot_of, every)
        live = {}  # sum value -> (its lower-derivative value or None, its terms)
        lists = {}  # the term lists, made for this compile alone (``_terms``)

        def support_of(arg):
            if arg not in support:
                key, order = arg
                node = nodes[key]
                if node.kind == "forcing":
                    declared_support = problem.forcings[node.forcing_index - 1].support
                    support[arg] = (
                        every if declared_support is None else frozenset(declared_support(order))
                    )
                else:
                    # a field value may be nonzero in any component
                    lower, terms = live_parts(arg)
                    if terms:
                        support[arg] = every
                    else:
                        support[arg] = frozenset() if lower is None else support[lower]
            return support[arg]

        def live_parts(arg):
            """The sum's lower derivative and terms, less those zero by structure."""
            if arg not in live:
                key, order = arg
                node = nodes[key]
                lower = None
                if node.has_lower_derivative:
                    lower = ((node.r - 1, key[1]), order + 1)
                    if not support_of(lower):
                        lower = None
                terms = []
                for term in _terms(nodes, key, order, lists):
                    n = term[1]
                    if n not in reads:
                        reads[n] = every if declared_reads is None else frozenset(declared_reads(n))
                    if all(support_of(a) & reads[n] for a in term[2]):
                        terms.append(term)
                live[arg] = lower, terms
            return live[arg]

        def walk(arg, steps):
            slot = slot_of.get(arg)
            if slot is not None:
                self.reads_chain |= slot < len(self.parts)
                return slot
            key, order = arg
            node = nodes[key]
            if node.kind == "forcing":
                forcing = problem.forcings[node.forcing_index - 1]
                step = (FORCING, forcing, order, 1j * forcing.kappa.value)
            else:
                below, terms = live_parts(arg)
                lower = None
                if below is not None:
                    lower = (_factor(-(1.0 / (1j * node.label.float_value))), walk(below, steps))
                if terms and self.point is None:
                    self.reads_chain = True
                    self.point = self._new_slot()
                    steps.append((POINT, self.point))
                terms = tuple(
                    (_factor(coef), n, tuple(walk(a, steps) for a in args))
                    for coef, n, args in terms
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
                for coef, n, args in terms:
                    x = field.apply(n, slots[point], [slots[a] for a in args])
                    if coef is not None:
                        x = coef * x
                    total = x if total is None else total + x
                slots[out] = np.zeros(d, dtype=complex) if total is None else total
            elif kind == FORCING:
                _, out, forcing, j, i_kappa = step
                slots[out] = forcing.derivative(j, t) / i_kappa
            else:
                slots[step[1]] = field.at(slots[0])
