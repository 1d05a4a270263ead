"""The evaluation layer: an expansion's term lists compiled into
straight-line Python, and the table of coefficients that the code fills.

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

A plan is generated code (``Plan``): one Python function per group of
targets, with one source line per step.  A value read
only inside its own function is a local there; no interpreter walks the
steps at run time.  The code does the arithmetic of the steps, in their
order, and reaches the field and the forcings only through the field's
call, ``apply``, ``at`` and ``derivative``, so its results, counts and
errors are those of the steps.

Imported on first use, by the first solve or table: a process that only
builds expansions never compiles this module, and peaks lower.
"""

import numpy as np

from .ode_core import _finite_positive, _nonnegative_integer

FORCING, POINT, SUM = range(3)


# parts per expression of a sum's source line: Python's compiler nests a
# chain of + one level per part, and gives up at about a thousand
_SUM_CHUNK = 256


def _sum_source(out, parts):
    """Source for a sum of the expressions ``parts`` into ``out``, left to
    right from the first part; one line, long sums in statements of
    ``_SUM_CHUNK`` parts.  No parts is a fresh zero vector."""
    if not parts:
        return "zeros(d, dtype=complex)"
    chunks = [" + ".join(parts[i : i + _SUM_CHUNK]) for i in range(0, len(parts), _SUM_CHUNK)]
    return chunks[0] + "".join(f"; {out} = {out} + {chunk}" for chunk in chunks[1:])


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
    one time, compiled from the term lists into generated Python.

    The compiling walk mirrors the recursion value -> node -> term sum, less
    the terms that are zero by structure (see the module docstring): each
    value needed gets an integer slot, set by one step that comes after the
    steps of the values it reads.  Slot r holds level r's chain value p_r0,
    which the caller fills in (``slots``).  There are three kinds of step:

    - ``(FORCING, out, forcing, j, i kappa)``: the amplitude's j-th
      derivative over (i kappa);
    - ``(POINT, out)``: the field's point, its jet, at the base state in
      slot 0, made before the first sum with terms;
    - ``(SUM, out, lower, terms)``: c * slot for ``lower`` = (c, slot) if
      not None, plus coef * f_n[arg slots] for each (coef, arg slots) term
      in turn, n being the number of arg slots.  A coefficient that is
      exactly 1 is compiled to None and multiplies nothing.

    ``segments[g]`` holds the steps that complete the g-th group of targets,
    whose slots are ``targets[g]``; ``programs[g]`` carries them out, called
    as ``programs[g](t, slots)``, and the segments run in order on one slot
    list.  The programs are Python functions generated from the steps, one
    source line per step and one ``compile`` per segment (``_sources``).
    A value that only its own segment reads is a local of that function;
    the chain values, the field's point, the targets and each value that a
    later segment reads live in the slot list (``shared``).  The field,
    forcings, coefficients and each (i kappa) are bound by name in the
    functions' namespace, not written into the source.
    The one term with no arguments, level 0's f[p(0,0)], is the field's
    value ``field(s[0])``; every differential goes through ``field.apply``
    on the point that ``field.at`` made, and every forcing value through
    ``ForcingTerm.derivative``, looked up at each call.  A sum starts from
    its first part, not from a zero array, and adds each next part into a
    new array: it never writes into an array that the field returned.  A
    sum with no parts left is a fresh zero vector.  A plan holds nothing
    that depends on t or on the state.
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

        made = {}  # slot -> the segment whose steps set it
        # the slots that the source keeps in the slot list, not in locals: the
        # chain values, the field's point, the targets and each value that a
        # later segment reads
        self.shared = set(slot_of.values())

        def walk(arg, steps):
            slot = slot_of.get(arg)
            if slot is not None:
                if made.get(slot, len(self.segments)) < len(self.segments):
                    self.shared.add(slot)
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
                    self.shared.add(self.point)
                    steps.append((POINT, self.point))
                terms = tuple(
                    (_factor(coef), tuple(walk(a, steps) for a in args)) for coef, args in terms
                )
                step = (SUM, lower, terms)
            slot = slot_of[arg] = self._new_slot()
            made[slot] = len(self.segments)
            steps.append((step[0], slot) + step[1:])
            return slot

        self.segments, self.targets = [], []
        for group in groups:
            steps = []
            self.targets.append([walk(arg, steps) for arg in group])
            self.shared.update(self.targets[-1])
            self.segments.append(steps)
        namespace = {"field": self.field, "zeros": np.zeros, "d": d}
        self.programs = []
        for g, source in enumerate(self._sources(namespace)):
            # one compile per segment: the compiler's transient memory grows
            # with the source, by over a hundred bytes a character
            exec(compile(source, "<oscillode plan>", "exec"), namespace)
            # taken out of its namespace, so a plan makes no reference cycle
            self.programs.append(namespace.pop(f"segment_{g}"))

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

    def _sources(self, namespace):
        """The source of a function ``segment_g(t, s)`` on the slot list
        ``s`` for each segment g; ``namespace`` gains a name for every
        object that the sources read."""

        def ref(slot):
            return f"s[{slot}]" if slot in self.shared else f"v{slot}"

        def bind(value):
            name = f"c{len(namespace)}"
            namespace[name] = value
            return name

        def scaled(coef, value):
            return value if coef is None else f"{bind(coef)} * {value}"

        sources = []
        for g, steps in enumerate(self.segments):
            lines = [f"def segment_{g}(t, s):"]
            for step in steps:
                kind, out = step[:2]
                if kind == POINT:
                    value = "field.at(s[0])"
                elif kind == FORCING:
                    forcing, j, i_kappa = step[2:]
                    value = f"{bind(forcing)}.derivative({j}, t) / {bind(i_kappa)}"
                else:
                    lower, terms = step[2:]
                    parts = [] if lower is None else [scaled(lower[0], ref(lower[1]))]
                    parts += [
                        scaled(coef, f"field.apply({len(args)}, {ref(self.point)}, "
                                     f"[{', '.join(map(ref, args))}])" if args else "field(s[0])")
                        for coef, args in terms
                    ]
                    value = _sum_source(ref(out), parts)
                lines.append(f"    {ref(out)} = {value}")
            lines.append("    return")
            sources.append("\n".join(lines) + "\n")
        return sources


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
