"""Vector fields with multilinear differentials, and forcing amplitudes.

The expansion machinery needs the n-th differential of the field,
``f_n(y)[v_1, ..., v_n]``, symmetric and linear in each direction, supplied
exactly by the caller.  Nested central differences are provided as a
validation oracle only; they lose too many digits at high order to sit in
the production path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedOrder, ValidationFailed

__all__ = [
    "FieldPoint",
    "VectorField",
    "ForcingTerm",
    "fd_differential",
    "validate_field",
    "linear_field",
    "polynomial_field",
    "constant_amplitude",
    "polynomial_amplitude",
]


class FieldPoint:
    """A base state ``y`` with the field's work that depends on y alone done.

    Made by ``VectorField.at``; pass it to ``VectorField.apply`` in place of
    ``y`` to take any number of differentials there.  ``differential(n,
    directions)`` is the contraction at y.
    """

    __slots__ = ("y", "differential")

    def __init__(self, y, differential):
        self.y = y
        self.differential = differential


@dataclass
class VectorField:
    """Autonomous vector field with user-supplied exact differentials.

    ``differential(n, y, directions)`` must return the n-th derivative tensor
    contracted with the given direction vectors; ``max_order`` is the highest
    n for which that is implemented.

    ``jet(y)`` is optional.  It does the work that depends on ``y`` alone
    once and returns a callable ``(n, directions)`` that gives the same
    result as ``differential(n, y, directions)``.  Without it, ``at(y)``
    closes over y and calls ``differential``.
    """

    dimension: int
    evaluate: object
    differential: object
    max_order: int
    jet: object = None

    def __call__(self, y):
        return np.asarray(self.evaluate(y), dtype=complex)

    def at(self, y):
        """The point y, for several ``apply`` calls that share its work."""
        if self.jet is not None:
            return FieldPoint(y, self.jet(y))
        differential = self.differential
        return FieldPoint(y, lambda n, directions: differential(n, y, directions))

    def apply(self, n, y, directions):
        """f_n at ``y`` applied to the directions.

        ``y`` is a state vector or a point returned by ``at``.
        """
        point = y if isinstance(y, FieldPoint) else None
        if n == 0:
            return self(y if point is None else point.y)
        if n > self.max_order:
            raise UnsupportedOrder(
                f"differential of order {n} requested but the field only "
                f"supports order {self.max_order}"
            )
        if len(directions) != n:
            raise ValueError(f"order {n} differential needs {n} directions")
        if point is None:
            point = self.at(y)
        return np.asarray(point.differential(n, list(directions)), dtype=complex)


@dataclass
class ForcingTerm:
    """One forcing channel: a base frequency and its amplitude function.

    ``amplitude_derivative(j, t)`` is the j-th time derivative, with
    ``j = 0`` reproducing the amplitude itself.  ``max_derivative_order`` of
    None means unlimited.
    """

    kappa: object
    amplitude: object
    amplitude_derivative: object
    max_derivative_order: int | None = None

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


def validate_field(fld, samples, h=1e-3, threshold=1e-5):
    """Check the declared differentials against the finite-difference oracle.

    ``samples`` is a list of (y, directions) pairs; each is tested at every
    order up to ``max_order``.  Deviations above ``threshold`` (relative to
    the larger of the two results and 1) raise ValidationFailed.  The step is
    widened with the order to balance truncation against the eps / h^n
    roundoff amplification of nested differences.
    """
    failures = []
    report = []
    for y, directions in samples:
        for n in range(1, fld.max_order + 1):
            dirs = directions[:n]
            if len(dirs) < n:
                continue
            exact = fld.apply(n, y, dirs)
            approx = _richardson_fd(fld, n, y, dirs, h * 2.0 ** (n - 1))
            scale = max(1.0, float(np.max(np.abs(exact))), float(np.max(np.abs(approx))))
            dev = float(np.max(np.abs(exact - approx))) / scale
            report.append((n, dev))
            if dev > threshold:
                failures.append((n, y, dev))
    if failures:
        worst = ", ".join(f"order {n}: dev {dev:.2e}" for n, _, dev in failures[:5])
        raise ValidationFailed(
            f"{len(failures)} differential checks failed ({worst})", failures=failures
        )
    return report


# -- common field constructors ------------------------------------------------


def linear_field(matrix, max_order=6):
    """Field f(y) = A y; all differentials above the first vanish."""
    a = np.asarray(matrix, dtype=complex)
    d = a.shape[0]

    def differential_at(n, directions):
        if n == 1:
            return a @ np.asarray(directions[0], dtype=complex)
        return np.zeros(d, dtype=complex)

    return VectorField(
        dimension=d,
        evaluate=lambda y: a @ y,
        differential=lambda n, y, directions: differential_at(n, directions),
        max_order=max_order,
        jet=lambda y: differential_at,
    )


class _Poly:
    """Multivariate polynomial as {exponent tuple: complex coefficient}."""

    def __init__(self, dimension, terms):
        self.dimension = dimension
        self.terms = dict(terms)

    @property
    def degree(self):
        return max((sum(expo) for expo in self.terms), default=0)

    def partial(self, i):
        """Derivative with respect to variable i."""
        out = {}
        for expo, coef in self.terms.items():
            e = expo[i]
            if e:
                key = tuple(expo[:i]) + (e - 1,) + tuple(expo[i + 1 :])
                out[key] = out.get(key, 0.0) + coef * e
        return _Poly(self.dimension, out)

    def __call__(self, y):
        total = 0.0 + 0.0j
        for expo, coef in self.terms.items():
            val = coef
            for yi, e in zip(y, expo):
                if e:
                    val = val * yi**e
            total += val
        return total


def polynomial_field(dimension, component_terms, max_order=6):
    """Field whose components are polynomials; differentials are exact.

    ``component_terms[j]`` maps exponent tuples to coefficients for component
    j, e.g. ``{(0, 1): 1.0}`` for y_2 and ``{(2, 0): -0.5}`` for -0.5 y_1^2.

    The partial derivatives of each order are derived symbolically once, on
    first use.  A point evaluates those of an order once, as a tensor that
    each differential of that order contracts with its directions.
    """
    polys = [_Poly(dimension, terms) for terms in component_terms]
    degree = max((p.degree for p in polys), default=0)
    # order n -> (derivative polynomials of every component, one list per
    # sorted variable tuple; the list's row for each ordered variable tuple)
    tables = {0: ([polys], np.zeros(1, dtype=int))}

    def order_table(n):
        if n not in tables:
            lower, _ = order_table(n - 1)
            variables = range(dimension)
            lower_row = {
                vs: k for k, vs in enumerate(itertools.combinations_with_replacement(variables, n - 1))
            }
            sorted_tuples = list(itertools.combinations_with_replacement(variables, n))
            derivs = [[q.partial(vs[-1]) for q in lower[lower_row[vs[:-1]]]] for vs in sorted_tuples]
            row = {vs: k for k, vs in enumerate(sorted_tuples)}
            rows = np.array([row[tuple(sorted(vs))] for vs in itertools.product(variables, repeat=n)])
            tables[n] = (derivs, rows)
        return tables[n]

    def evaluate(y):
        return np.array([p(y) for p in polys], dtype=complex)

    def jet(y):
        tensors = {}  # order n -> values, shape (components, dimension**n)

        def differential_at(n, directions):
            if n > degree:
                return np.zeros(len(polys), dtype=complex)
            tensor = tensors.get(n)
            if tensor is None:
                derivs, rows = order_table(n)
                values = np.array([[q(y) for q in qs] for qs in derivs], dtype=complex)
                tensor = tensors[n] = values.T[:, rows]
            out = tensor
            for v in directions:
                out = out.reshape(-1, dimension) @ np.asarray(v, dtype=complex)
            return out

        return differential_at

    return VectorField(
        dimension=dimension,
        evaluate=evaluate,
        differential=lambda n, y, directions: jet(y)(n, directions),
        max_order=max_order,
        jet=jet,
    )


# -- amplitude constructors ---------------------------------------------------


def constant_amplitude(kappa, vector):
    vec = np.asarray(vector, dtype=complex)
    zero = np.zeros_like(vec)
    return ForcingTerm(
        kappa=kappa,
        amplitude=lambda t: vec,
        amplitude_derivative=lambda j, t: vec if j == 0 else zero,
        max_derivative_order=None,
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
        amplitude=lambda t: derivative(0, t),
        amplitude_derivative=derivative,
        max_derivative_order=None,
    )
