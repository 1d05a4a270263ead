"""Embedded Runge-Kutta-Fehlberg 4(5) integrator with dense output.

States are complex vectors.  The classical Fehlberg tableau supplies a 4th
order solution and a 5th order companion; the difference drives the step
controller and the 5th order value is propagated.  Accepted steps store the
state and derivative at both ends, which yields a cubic Hermite interpolant
accurate to fourth order between nodes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import MaxStepsExceeded, NonFiniteRHS, OutOfDomain, StepUnderflow

__all__ = ["IvpSpec", "DenseSolution", "integrate", "sample"]

# Fehlberg 4(5) tableau
_C = np.array([0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2])
_A = [
    [],
    [1 / 4],
    [3 / 32, 9 / 32],
    [1932 / 2197, -7200 / 2197, 7296 / 2197],
    [439 / 216, -8.0, 3680 / 513, -845 / 4104],
    [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40],
]
_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ORDER_EXP = 0.2  # 1/5


@dataclass
class IvpSpec:
    """Initial value problem y' = rhs(t, y) on [0, t_end].

    ``knots`` is an optional increasing array of times the integrator must
    land on exactly, so samples there carry no interpolation error.

    With ``dense_refine`` on, every accepted step also records a midpoint
    node (one extra fourth-order half step), which cuts the Hermite
    interpolation error by a factor of 16.  Turn it off for long runs that
    are only ever sampled at knots.
    """

    rhs: object
    y0: object
    t_end: float
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_steps: int = 10_000_000
    knots: object = None
    dense_refine: bool = True
    max_step: float | None = None

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class DenseSolution:
    """Accepted nodes with derivatives; cubic Hermite between nodes."""

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    n_steps: int = 0
    n_rhs_evals: int = 0

    @property
    def t_end(self):
        return float(self.ts[-1])

    def __call__(self, t):
        return sample(self, t)


def _error_norm(err, y_old, y_new, abs_tol, rel_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y_old), np.abs(y_new))
    return float(np.max(np.abs(err) / scale))


def _initial_step(y0, f0, t_end, abs_tol, rel_tol):
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = float(np.max(np.abs(y0) / scale))
    d1 = float(np.max(np.abs(f0) / scale))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    return min(h0, t_end / 10.0)


def integrate(spec: IvpSpec) -> DenseSolution:
    """Adaptive integration of ``spec`` over [0, t_end].

    The per-step error estimate is kept below ``abs_tol + rel_tol * |y|``
    componentwise; the step controller uses safety factor 0.9, exponent 1/5
    and growth clamped to [0.2, 5].  A NaN or infinite stage value raises
    NonFiniteRHS at the step where it appears.
    """
    rhs = spec.rhs
    y = np.asarray(spec.y0, dtype=complex).copy()
    t = 0.0
    t_end = float(spec.t_end)
    f = np.asarray(rhs(t, y), dtype=complex)
    n_evals = 1

    knots = None
    knot_pos = 0
    if spec.knots is not None:
        knots = np.asarray(spec.knots, dtype=float)
        knots = knots[(knots > 0.0) & (knots < t_end)]

    ts = [0.0]
    ys = [y.copy()]
    fs = [f.copy()]

    h = _initial_step(y, f, t_end, spec.abs_tol, spec.rel_tol)
    k = np.empty((6, y.size), dtype=complex)
    n_steps = 0

    h_cap = spec.max_step if spec.max_step else math.inf

    while t < t_end:
        if n_steps >= spec.max_steps:
            raise MaxStepsExceeded(f"exceeded {spec.max_steps} steps at t={t:.6g}")
        h = min(h, h_cap, t_end - t)
        if knots is not None:
            while knot_pos < knots.size and knots[knot_pos] <= t + 1e-14:
                knot_pos += 1
            if knot_pos < knots.size and t + h > knots[knot_pos] - 1e-14:
                h = knots[knot_pos] - t
        if t + h == t:
            raise StepUnderflow(f"step size underflow at t={t:.6g} (h={h:.3e})")

        k[0] = f
        for i in range(1, 6):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_A[i]))
            k[i] = rhs(t + _C[i] * h, yi)
        n_evals += 5

        y5 = y + h * (_B5 @ k)
        y4 = y + h * (_B4 @ k)
        err = _error_norm(y5 - y4, y, y5, spec.abs_tol, spec.rel_tol)
        if not math.isfinite(err):
            raise NonFiniteRHS(
                f"non-finite right-hand side in the step from t={t:.6g} (h={h:.3e})", t=t
            )

        if err <= 1.0:
            if spec.dense_refine:
                h2 = 0.5 * h
                q2 = rhs(t + 0.5 * h2, y + 0.5 * h2 * k[0])
                q3 = rhs(t + 0.5 * h2, y + 0.5 * h2 * q2)
                q4 = rhs(t + h2, y + h2 * q3)
                y_mid = y + (h2 / 6.0) * (k[0] + 2 * q2 + 2 * q3 + q4)
                f_mid = np.asarray(rhs(t + h2, y_mid), dtype=complex)
                n_evals += 4
                ts.append(t + h2)
                ys.append(np.asarray(y_mid, dtype=complex))
                fs.append(f_mid)
            t = t + h
            y = y5
            f = np.asarray(rhs(t, y), dtype=complex)
            n_evals += 1
            ts.append(t)
            ys.append(y.copy())
            fs.append(f.copy())

        factor = _MAX_FACTOR if err == 0.0 else _SAFETY * err ** (-_ORDER_EXP)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        n_steps += 1

    return DenseSolution(
        ts=np.array(ts),
        ys=np.array(ys),
        fs=np.array(fs),
        n_steps=n_steps,
        n_rhs_evals=n_evals,
    )


def sample(solution: DenseSolution, t: float) -> np.ndarray:
    """Value at ``t`` from the cubic Hermite interpolant (exact at nodes)."""
    ts = solution.ts
    if t < ts[0] - 1e-12 or t > ts[-1] + 1e-12:
        raise OutOfDomain(f"t={t:.6g} outside solved span [{ts[0]:.6g}, {ts[-1]:.6g}]")
    t = min(max(t, float(ts[0])), float(ts[-1]))
    i = bisect.bisect_right(ts, t) - 1
    if i >= ts.size - 1:
        return solution.ys[-1].copy()
    if t == ts[i]:
        return solution.ys[i].copy()
    h = ts[i + 1] - ts[i]
    s = (t - ts[i]) / h
    y0, y1 = solution.ys[i], solution.ys[i + 1]
    f0, f1 = solution.fs[i], solution.fs[i + 1]
    s2, s3 = s * s, s * s * s
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * f1
    )
