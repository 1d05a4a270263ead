"""The evaluation plan: an expansion's term lists compiled into a
straight-line program.

Imported on first use, as ``coefficient_table`` is: a process that only
builds expansions never compiles this module, and peaks lower.
"""

import numpy as np

FORCING, POINT, SUM = range(3)


class Plan:
    """A straight-line program for the values of (node key, order) pairs at
    one time, compiled from the term lists.

    The compiling walk mirrors the recursion value -> node -> term sum: each
    value needed gets an integer slot, set by one step that comes after the
    steps of the values it reads.  Slot r holds level r's chain value p_r0,
    which the caller fills in (``slots``).  There are three kinds of step:

    - ``(FORCING, out, forcing, j, i kappa)``: the amplitude's j-th
      derivative over (i kappa);
    - ``(POINT, out)``: the field's point at the base state in slot 0;
    - ``(SUM, out, lower, terms)``: zero, plus c * slot for ``lower`` =
      (c, slot) if not None, plus coef * f_n[arg slots] for each (coef, n,
      arg slots) term in turn.

    ``segments[g]`` holds the steps that complete the g-th group of targets,
    whose slots are ``targets[g]``; the segments run in order on one slot
    list.  A plan holds nothing that depends on t or on the state.
    """

    def __init__(self, expansion, groups):
        nodes = expansion.nodes
        d = expansion.problem.dimension
        self.field = expansion.problem.field
        self.dimension = d
        self.parts = [slice(r * d, (r + 1) * d) for r in range(expansion.order + 1)]
        slot_of = {expansion._arg((r, ()), 0): r for r in range(len(self.parts))}
        self.size = len(slot_of)
        self.point = None
        self.reads_chain = False

        def walk(arg, steps):
            slot = slot_of.get(arg)
            if slot is not None:
                self.reads_chain |= slot < len(self.parts)
                return slot
            key, order = arg
            node = nodes[key]
            if node.kind == "forcing":
                forcing = expansion.problem.forcings[node.forcing_index - 1]
                step = (FORCING, forcing, order, 1j * forcing.kappa.value)
            else:
                lower = None
                if node.has_lower_derivative:
                    below = walk(expansion._arg((node.r - 1, key[1]), order + 1), steps)
                    lower = (-(1.0 / (1j * node.label.float_value)), below)
                terms = expansion._terms(node, order)
                if terms and self.point is None:
                    self.reads_chain = True
                    self.point = self._new_slot()
                    steps.append((POINT, self.point))
                terms = tuple(
                    (coef, n, tuple(walk(a, steps) for a in args)) for coef, n, args in terms
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
                # in place: the same sums as total = total + x, one array fewer
                total = np.zeros(d, dtype=complex)
                if lower is not None:
                    total += lower[0] * slots[lower[1]]
                for coef, n, args in terms:
                    total += coef * field.apply(n, slots[point], [slots[a] for a in args])
                slots[out] = total
            elif kind == FORCING:
                _, out, forcing, j, i_kappa = step
                slots[out] = forcing.derivative(j, t) / i_kappa
            else:
                slots[step[1]] = field.at(slots[0])
