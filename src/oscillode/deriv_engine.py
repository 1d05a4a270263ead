"""Vector fields given by their jets, and forcings by their amplitude derivatives.

The expansion machinery needs the n-th differential of the field,
``f_n(y)[v_1, ..., v_n]``, symmetric and linear in each direction, at a few
base states: the field's Taylor jet at one point.  The caller supplies it
exactly, as ``jet(y)``, and a forcing's amplitude as its time derivatives
``amplitude_derivative(j, t)``, with ``j = 0`` the amplitude itself.  Nested
central differences are provided as a validation oracle only; they lose too
many digits at high order to sit in the production path.

``polynomial_field`` makes the jet of a field given by its monomials.  Each
order's differential is one compiled contraction: a list, made once, of the
ways of sending the n directions to a monomial's variables.  A point weighs
each way once, and a differential sums one product of direction entries per
way.  So its cost follows the number of monomials and never forms a
``d**n`` tensor, and ``f(y)`` is the same contraction at order 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOrder, ValidationFailed
from .ode_core import _nonnegative_integer

__all__ = [
    "VectorField",
    "ForcingTerm",
    "fd_differential",
    "validate_field",
    "linear_field",
    "polynomial_field",
    "constant_amplitude",
    "polynomial_amplitude",
]


@dataclass
class VectorField:
    """Autonomous vector field given by its value and its jet.

    ``jet(y)`` does the work that depends on ``y`` alone once and returns a
    callable ``(n, directions)``: the n-th derivative tensor at y contracted
    with the given direction vectors, for n >= 1.  That callable is the
    field's point at y.  ``max_order`` is the highest n for which it is
    implemented; None, the default, means every order.  A plain
    ``differential(n, y, directions)`` becomes a jet through ``lambda y:
    lambda n, d: differential(n, y, d)``.

    ``reads(n)`` is optional: the direction components that f_n can
    depend on, so that f_n[v_1..v_n] is exactly 0 when some v_i is zero on
    them.  A compiled plan then leaves out the terms it proves zero.  None
    means every component.  A wrong declaration gives wrong answers;
    ``validate_field`` checks it.
    """

    dimension: int
    evaluate: object
    jet: object
    max_order: int | None = None
    reads: object = None

    def __call__(self, y):
        return np.asarray(self.evaluate(y), dtype=complex)

    def at(self, y):
        """The point y, ``jet(y)``, for several ``apply`` calls that share its work."""
        return self.jet(y)

    def apply(self, n, y, directions):
        """f_n at ``y`` applied to the directions, for n >= 1.

        ``y`` is a state vector or a point returned by ``at``.
        """
        if n == 0:
            raise ValueError("f_0 is the field's value: call the field, not apply(0, ...)")
        if self.max_order is not None and n > self.max_order:
            raise UnsupportedOrder(
                f"differential of order {n} requested but the field only "
                f"supports order {self.max_order}"
            )
        if len(directions) != n:
            raise ValueError(f"order {n} differential needs {n} directions")
        point = y if callable(y) else self.at(y)
        return np.asarray(point(n, list(directions)), dtype=complex)


@dataclass
class ForcingTerm:
    """One forcing channel: a base frequency and its amplitude's derivatives.

    ``amplitude_derivative(j, t)`` is the amplitude's j-th time derivative;
    ``j = 0`` is the amplitude itself.  ``max_derivative_order`` of None
    means unlimited.  ``support(j)``, if given, holds the components in
    which the j-th derivative can be nonzero; a compiled plan leaves out the
    terms that this makes zero, so a wrong support gives wrong answers.
    ``build_expansion`` checks it at a few fixed times.
    """

    kappa: object
    amplitude_derivative: object
    max_derivative_order: int | None = None
    support: object = None

    def derivative(self, j, t):
        if self.max_derivative_order is not None and j > self.max_derivative_order:
            raise UnsupportedOrder(
                f"amplitude derivative of order {j} requested but only "
                f"{self.max_derivative_order} supported"
            )
        return np.asarray(self.amplitude_derivative(j, t), dtype=complex)


def fd_differential(fld, n, y, directions, h=1e-4):
    """n-fold nested central difference of the field along the directions.

    O(h^2) for analytic fields; usable up to n = 4 before roundoff dominates.
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    y = np.asarray(y, dtype=complex)
    if n == 0:
        return fld(y)
    v = np.asarray(directions[0], dtype=complex)
    plus = fd_differential(fld, n - 1, y + h * v, directions[1:], h)
    minus = fd_differential(fld, n - 1, y - h * v, directions[1:], h)
    return (plus - minus) / (2.0 * h)


def _richardson_fd(fld, n, y, directions, h):
    """Two-step Richardson pairing of the central difference, O(h^4)."""
    coarse = fd_differential(fld, n, y, directions, 2.0 * h)
    fine = fd_differential(fld, n, y, directions, h)
    return (4.0 * fine - coarse) / 3.0


# validate_field's first-order difference step, and the relative deviation
# from the difference oracle above which a differential fails
VALIDATION_STEP = 1e-3
VALIDATION_THRESHOLD = 1e-5


def validate_field(fld, samples):
    """Check the declared differentials against the finite-difference oracle.

    ``samples`` is a list of (y, directions) pairs; each is tested at every
    order from 1 to its number of directions, and not above a finite
    ``max_order``.  Deviations above ``VALIDATION_THRESHOLD``
    (relative to the larger of the two results and 1) raise
    ValidationFailed.  The step, ``VALIDATION_STEP`` at first order, is
    widened with the order to balance truncation against the eps / h^n
    roundoff amplification of nested differences.  A field that declares
    ``reads`` must also give exactly 0 whenever one direction is zeroed on
    ``reads(n)``.
    """
    failures = []
    misread = set()  # orders at which a zeroed direction gave a nonzero f_n
    report = []
    for y, directions in samples:
        top = len(directions) if fld.max_order is None else min(len(directions), fld.max_order)
        for n in range(1, top + 1):
            dirs = directions[:n]
            for i in range(n if fld.reads is not None else 0):
                zeroed = [np.array(v, dtype=complex) for v in dirs]
                zeroed[i][list(fld.reads(n))] = 0.0
                dev = float(np.max(np.abs(fld.apply(n, y, zeroed))))
                if dev:
                    failures.append((n, y, dev))
                    misread.add(n)
            exact = fld.apply(n, y, dirs)
            approx = _richardson_fd(fld, n, y, dirs, VALIDATION_STEP * 2.0 ** (n - 1))
            scale = max(1.0, float(np.max(np.abs(exact))), float(np.max(np.abs(approx))))
            dev = float(np.max(np.abs(exact - approx))) / scale
            report.append((n, dev))
            if dev > VALIDATION_THRESHOLD:
                failures.append((n, y, dev))
    if failures:
        worst = ", ".join(f"order {n}: dev {dev:.2e}" for n, _, dev in failures[:5])
        if misread:
            worst += f"; f_n reads beyond reads(n) at n = {sorted(misread)}"
        raise ValidationFailed(
            f"{len(failures)} differential checks failed ({worst})", failures=failures
        )
    return report


# -- common field constructors ------------------------------------------------


def linear_field(matrix):
    """Field f(y) = A y; all differentials above the first vanish, so every
    order is exact."""
    a = np.asarray(matrix, dtype=complex)
    d = a.shape[0]

    def differential_at(n, directions):
        if n == 1:
            return a @ np.asarray(directions[0], dtype=complex)
        return np.zeros(d, dtype=complex)

    return VectorField(
        dimension=d,
        evaluate=lambda y: a @ y,
        jet=lambda y: differential_at,
        reads=lambda n: range(d) if n == 1 else (),
    )


def polynomial_field(component_terms):
    """Field whose components are polynomials; differentials are exact at
    every order, and zero above the degree.

    ``component_terms[j]`` maps exponent tuples to coefficients for component
    j, e.g. ``{(0, 1): 1.0}`` for y_2 and ``{(2, 0): -0.5}`` for -0.5 y_1^2.
    The field's dimension is the number of components, and each exponent
    tuple must be that many nonnegative integers (``2.0`` passes), or
    ``ValueError`` names the component and the exponent.  A zero
    coefficient drops its monomial.

    f_n is a sum over the ways of sending the n ordered directions to the
    variables of a monomial, each variable taking at most its exponent.  A
    way made by differentiating ``c y^e`` along the variables ``i_1..i_n``
    holds c times the exponents' falling factorials, the powers left over
    and those variables, and adds c * prod perm(e_i, m_i) * y^(e - m) *
    v_1[i_1] * ... * v_n[i_n] to its component.  The ways of order n are
    listed once, on first use, from those of order n - 1; a point works out
    each way's coefficient times its leftover powers once per order, and
    each differential then gathers one direction entry per way and
    direction.  So an order costs what its ways number, which follows the
    monomials, not the dimension.  ``f(y)`` is the order-0 case, one way per
    monomial, and ``reads(n)`` the variables that order n's ways send
    directions to.
    """
    dimension = len(component_terms)
    # ways[n]: (component, coefficient, falling factorials' product, the
    # variables of the powers left over, one per power, the directions' variables)
    ways = [[
        (j, coef, 1, tuple(i for i, e in enumerate(_exponents(j, expo, dimension))
                           for _ in range(e)), ())
        for j, terms in enumerate(component_terms)
        for expo, coef in terms.items()
        if coef
    ]]
    compiled = {}  # order n -> (components, factors, left-over variables, directions' variables)

    def order(n):
        if n not in compiled:
            while len(ways) <= n:
                # d/dy_i of y^left: its exponent of y_i times y^(left less one y_i)
                ways.append([
                    (j, coef, mult * left.count(i), left[:k] + left[k + 1 :], at + (i,))
                    for j, coef, mult, left, at in ways[-1]
                    for k, i in enumerate(left)
                    if k == left.index(i)
                ])
            listed = ways[n]
            width = max((len(left) for *_, left, _ in listed), default=0)
            compiled[n] = (
                np.array([j for j, *_ in listed], dtype=int),
                np.array([coef * mult for _, coef, mult, _, _ in listed], dtype=complex),
                # padded with ``dimension``, the index of a 1 appended to y
                np.array([left + (dimension,) * (width - len(left)) for *_, left, _ in listed],
                         dtype=int).reshape(len(listed), width),
                tuple(np.array([at[k] for *_, at in listed], dtype=int) for k in range(n)),
            )
        return compiled[n]

    def jet(y):
        padded = np.concatenate((y, [1.0 + 0j]))
        made = {}  # order n -> its ways' components, weights at y and directions' variables

        def differential_at(n, directions):
            if n not in made:
                rows, factors, left, at = order(n)
                # each way's factor times its left-over powers, once per point
                made[n] = rows, factors * padded[left].prod(axis=1), at
            rows, w, at = made[n]
            for v, variables in zip(directions, at):
                w = w * np.asarray(v)[variables]
            out = np.zeros(dimension, dtype=complex)
            np.add.at(out, rows, w)
            return out

        return differential_at

    return VectorField(
        dimension=dimension,
        evaluate=lambda y: jet(y)(0, ()),
        jet=jet,
        reads=lambda n: sorted({int(i) for variables in order(n)[3] for i in variables}),
    )


def _exponents(j, expo, dimension):
    """Component j's exponent tuple ``expo`` as ints, after a ValueError
    naming both unless it is ``dimension`` nonnegative integers."""
    name = f"component {j}'s exponent {expo!r}"
    if not isinstance(expo, tuple) or len(expo) != dimension:
        raise ValueError(f"{name} must be a tuple of {dimension} nonnegative integers")
    return tuple(_nonnegative_integer(f"{name}: entry", e) for e in expo)


# -- amplitude constructors ---------------------------------------------------


def constant_amplitude(kappa, vector):
    vec = np.asarray(vector, dtype=complex)
    zero = np.zeros_like(vec)
    return ForcingTerm(
        kappa=kappa,
        amplitude_derivative=lambda j, t: vec if j == 0 else zero,
        support=lambda j: np.flatnonzero(vec).tolist() if j == 0 else [],
    )


def polynomial_amplitude(kappa, coefficients):
    """Amplitude a(t) = sum_j coefficients[j] t^j with exact derivatives.

    The j-th derivative's coefficients ``coefficients[p] * p!/(p-j)!`` are
    computed once per order j and summed by Horner's rule.
    """
    coeffs = np.asarray(coefficients, dtype=complex)
    if coeffs.ndim != 2:
        raise ValueError("coefficients must have shape (degree + 1, dimension)")
    degree = coeffs.shape[0] - 1
    rows = [
        coeffs[j:] * np.array([math.perm(p, j) for p in range(j, degree + 1)], float)[:, None]
        for j in range(degree + 1)
    ]
    zero = np.zeros(coeffs.shape[1], dtype=complex)

    def derivative(j, t):
        if j > degree:
            return zero
        row = rows[j]
        out = row[-1]
        for c in row[-2::-1]:
            out = out * t + c
        return out

    return ForcingTerm(
        kappa=kappa,
        amplitude_derivative=derivative,
        # row by row: np.any over an axis of a complex array adds 128 KiB to peak RSS
        support=lambda j: sorted({int(c) for row in coeffs[j:] for c in np.flatnonzero(row)}),
    )
