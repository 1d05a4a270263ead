"""Closed forms for the linear problem y' = A y + sum_m a_m(t) e^(i kappa_m w t).

For a linear field the expansion coefficients have explicit forms built from
powers of A and derivatives of the amplitudes, and the full solution is
available exactly once the amplitudes are polynomials: each forcing channel
admits a particular solution q_m(t) e^(i kappa_m w t) with q_m polynomial of
the same degree, solvable degree by degree.  This module is the independent
oracle against which the general expansion engine is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularResolvent

__all__ = [
    "LinearProblem",
    "LinearForcing",
    "matrix_exponential",
    "linear_coefficients",
    "exact_linear_solution",
]


@dataclass
class LinearForcing:
    """Polynomial amplitude sum_j coefficients[j] t^j at frequency kappa."""

    kappa: float
    coefficients: np.ndarray  # shape (degree + 1, d)

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.ndim != 2:
            raise ValueError("coefficients must have shape (degree + 1, d)")
        if self.coefficients.shape[0] > 9:
            raise ValueError("polynomial amplitudes supported up to degree 8")

    def derivative(self, ell, t):
        """ell-th time derivative of the amplitude."""
        coeffs = self.coefficients
        out = np.zeros(coeffs.shape[1], dtype=complex)
        for p in range(ell, coeffs.shape[0]):
            fac = math.perm(p, ell)
            out += coeffs[p] * fac * t ** (p - ell)
        return out


@dataclass
class LinearProblem:
    matrix: np.ndarray
    forcings: list
    y0: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.y0 = np.asarray(self.y0, dtype=complex)
        d = self.matrix.shape[0]
        if self.matrix.shape != (d, d):
            raise ValueError("matrix must be square")
        for f in self.forcings:
            if f.coefficients.shape[1] != d:
                raise ValueError("forcing dimension mismatch")
            if f.kappa == 0.0:
                raise ValueError("forcing frequencies must be nonzero")

    @property
    def dimension(self):
        return self.matrix.shape[0]


# -- matrix exponential -------------------------------------------------------

_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152


def matrix_exponential(matrix, t=1.0):
    """exp(t A) by scaling and squaring with the degree-13 Pade approximant."""
    a = np.asarray(matrix, dtype=complex) * t
    d = a.shape[0]
    ident = np.eye(d, dtype=complex)
    norm = float(np.linalg.norm(a, 1)) if d else 0.0
    squarings = max(0, int(math.ceil(math.log2(norm / _PADE13_THETA))) if norm > _PADE13_THETA else 0)
    a = a / (2.0**squarings)

    b = _PADE13_B
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * ident
    )
    result = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        result = result @ result
    return result


# -- expansion coefficients ---------------------------------------------------


class LinearCoefficientTable:
    """Closed-form coefficients of the expansion for a linear problem.

    ``value(r, m, t)`` returns the level-r coefficient for forcing channel m
    (1-based) or for the non-oscillatory channel m = 0.
    """

    def __init__(self, problem, order):
        self.problem = problem
        self.order = order
        a = problem.matrix
        self._powers = [np.eye(problem.dimension, dtype=complex)]
        for _ in range(max(order - 1, 0)):
            self._powers.append(a @ self._powers[-1])

    def _oscillatory(self, r, m, t):
        forcing = self.problem.forcings[m - 1]
        ikr = (1j * forcing.kappa) ** r
        total = np.zeros(self.problem.dimension, dtype=complex)
        for ell in range(r):
            total += (
                (-1.0) ** ell
                * math.comb(r - 1, ell)
                * (self._powers[r - 1 - ell] @ forcing.derivative(ell, t))
            )
        return total / ikr

    def value(self, r, m, t):
        if r == 0:
            if m != 0:
                raise ValueError("level 0 only has the non-oscillatory coefficient")
            return matrix_exponential(self.problem.matrix, t) @ self.problem.y0
        if m == 0:
            total = np.zeros(self.problem.dimension, dtype=complex)
            for mm in range(1, len(self.problem.forcings) + 1):
                total += self._oscillatory(r, mm, 0.0)
            return -(matrix_exponential(self.problem.matrix, t) @ total)
        return self._oscillatory(r, m, t)


def linear_coefficients(problem, order):
    return LinearCoefficientTable(problem, order)


# -- exact solution -----------------------------------------------------------


# the ODE's residual is checked at this many times, drawn from [0, 5) with this seed
SELF_CHECK_POINTS = 20
SELF_CHECK_SEED = 0


class ExactLinearSolution:
    """Exact solution via polynomial particular solutions plus exp(t A).

    Particular ansatz q_m(t) e^(i kappa_m w t) with q_m solving
    q' + (i kappa_m w I - A) q = a_m, solved from the highest degree down.
    """

    def __init__(self, problem, omega):
        self.problem = problem
        self.omega = float(omega)
        d = problem.dimension
        a = problem.matrix
        ident = np.eye(d, dtype=complex)

        self.particulars = []
        for forcing in problem.forcings:
            shift = 1j * forcing.kappa * self.omega * ident - a
            cond = np.linalg.cond(shift)
            if not np.isfinite(cond) or cond > 1e14:
                raise SingularResolvent(
                    f"i*kappa*omega = {1j * forcing.kappa * self.omega:.6g} is too "
                    "close to an eigenvalue of the matrix"
                )
            degree = forcing.coefficients.shape[0] - 1
            q = np.zeros_like(forcing.coefficients)
            for j in range(degree, -1, -1):
                rhs = forcing.coefficients[j].copy()
                if j + 1 <= degree:
                    rhs -= (j + 1) * q[j + 1]
                q[j] = np.linalg.solve(shift, rhs)
            self.particulars.append((forcing.kappa, q))

        q0 = sum(q[0] for _, q in self.particulars)
        self._homog_ic = problem.y0 - q0
        self._self_check()

    def __call__(self, t):
        return self._add_particulars(t, matrix_exponential(self.problem.matrix, t) @ self._homog_ic)

    def _add_particulars(self, t, y):
        """``y`` plus every particular solution at t."""
        for kappa, q in self.particulars:
            poly = np.zeros(self.problem.dimension, dtype=complex)
            for j in range(q.shape[0] - 1, -1, -1):
                poly = poly * t + q[j]
            y = y + poly * np.exp(1j * kappa * self.omega * t)
        return y

    def _residual(self, t):
        """y'(t) - A y(t) - forcing(t); should vanish identically."""
        a = self.problem.matrix
        homogeneous = matrix_exponential(a, t) @ self._homog_ic
        y = self._add_particulars(t, homogeneous)
        dy = a @ homogeneous
        for (kappa, q), forcing in zip(self.particulars, self.problem.forcings):
            poly = np.zeros(self.problem.dimension, dtype=complex)
            dpoly = np.zeros(self.problem.dimension, dtype=complex)
            for j in range(q.shape[0] - 1, 0, -1):
                poly = poly * t + q[j]
                dpoly = dpoly * t + j * q[j]
            poly = poly * t + q[0]
            phase = np.exp(1j * kappa * self.omega * t)
            dy = dy + (dpoly + 1j * kappa * self.omega * poly) * phase
        forcing_total = np.zeros(self.problem.dimension, dtype=complex)
        for forcing in self.problem.forcings:
            forcing_total += forcing.derivative(0, t) * np.exp(
                1j * forcing.kappa * self.omega * t
            )
        return dy - (a @ y) - forcing_total

    def _self_check(self):
        rng = np.random.default_rng(SELF_CHECK_SEED)
        for t in rng.uniform(0.0, 5.0, size=SELF_CHECK_POINTS):
            res = self._residual(float(t))
            bound = 1e-10 * (1.0 + float(np.max(np.abs(self(float(t))))))
            if float(np.max(np.abs(res))) > bound:
                raise SingularResolvent(
                    f"particular solution residual {np.max(np.abs(res)):.3e} at "
                    f"t={t:.4g} exceeds {bound:.3e}"
                )


def exact_linear_solution(problem, omega):
    return ExactLinearSolution(problem, omega)
