"""Closed-form linear oracle: matrix exponential, coefficients, exact solution."""

import math
import tracemalloc

import numpy as np
import pytest

from oscillode.errors import SingularResolvent
from oscillode.linear_closed_form import (
    LinearForcing,
    LinearProblem,
    exact_linear_solution,
    linear_coefficients,
    matrix_exponential,
)

SQRT2 = math.sqrt(2.0)


def reference_linear_problem():
    """Damped oscillator driven by t and t^2 amplitudes in the second row."""
    a = np.array([[0.0, 1.0], [-21.0 / 5.0, -3.0 / 5.0]], dtype=complex)
    forcings = [
        LinearForcing(kappa=SQRT2, coefficients=[[0.0, 0.0], [0.0, 1.0]]),
        LinearForcing(
            kappa=-(1.0 + SQRT2),
            coefficients=[[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]],
        ),
    ]
    return LinearProblem(matrix=a, forcings=forcings, y0=np.array([0.5, 0.5]))


# -- matrix exponential --------------------------------------------------------


def test_expm_zero_is_identity():
    assert np.allclose(matrix_exponential(np.zeros((3, 3))), np.eye(3), atol=1e-15)


def test_expm_diagonal():
    lam = np.array([0.3, -1.2, 2.5j])
    got = matrix_exponential(np.diag(lam), t=0.7)
    assert np.allclose(got, np.diag(np.exp(0.7 * lam)), rtol=1e-13)


def test_expm_nilpotent_matches_series():
    n = np.array([[0.0, 2.0, -1.0], [0.0, 0.0, 3.0], [0.0, 0.0, 0.0]], dtype=complex)
    # nilpotent: the series terminates at the quadratic term
    expect = np.eye(3) + n + 0.5 * (n @ n)
    assert np.allclose(matrix_exponential(n), expect, rtol=1e-14, atol=1e-14)


def test_expm_large_norm_scaling():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a *= 10.0 / np.linalg.norm(a, 1)
    e1 = matrix_exponential(a, 1.0)
    e2 = matrix_exponential(a, 0.5)
    assert np.allclose(e1, e2 @ e2, rtol=1e-12)


# -- coefficient table ----------------------------------------------------------


def test_level_one_coefficient_is_amplitude_over_ik():
    prob = reference_linear_problem()
    table = linear_coefficients(prob, 4)
    for m, forcing in enumerate(prob.forcings, start=1):
        for t in (0.0, 0.7, 3.1):
            expect = forcing.derivative(0, t) / (1j * forcing.kappa)
            assert np.allclose(table.value(1, m, t), expect, atol=1e-14)


def test_zero_matrix_level_two_sign():
    # with A = 0 the level-2 oscillatory coefficient reduces to a'(t) / kappa^2
    prob = LinearProblem(
        matrix=np.zeros((2, 2)),
        forcings=[LinearForcing(kappa=2.0, coefficients=[[1.0, 0.0], [0.0, 3.0]])],
        y0=np.zeros(2),
    )
    table = linear_coefficients(prob, 3)
    t = 1.3
    aprime = prob.forcings[0].derivative(1, t)
    assert np.allclose(table.value(2, 1, t), aprime / 4.0, atol=1e-14)


def test_frequency_lock():
    # each oscillatory coefficient depends only on its own amplitude
    prob = reference_linear_problem()
    table = linear_coefficients(prob, 4)
    zeroed = LinearProblem(
        matrix=prob.matrix,
        forcings=[
            prob.forcings[0],
            LinearForcing(kappa=prob.forcings[1].kappa, coefficients=[[0.0, 0.0]]),
        ],
        y0=prob.y0,
    )
    table_zeroed = linear_coefficients(zeroed, 4)
    for r in range(1, 5):
        for t in (0.0, 2.0):
            assert np.allclose(
                table.value(r, 1, t), table_zeroed.value(r, 1, t), atol=1e-13
            )


def test_nonoscillatory_ic_balances_oscillatory():
    prob = reference_linear_problem()
    table = linear_coefficients(prob, 4)
    for r in range(1, 5):
        total = table.value(r, 0, 0.0).copy()
        for m in range(1, len(prob.forcings) + 1):
            total += table.value(r, m, 0.0)
        assert float(np.max(np.abs(total))) < 1e-13


# -- exact solution --------------------------------------------------------------


def test_scalar_constant_forcing_antiderivative():
    eta = 40.0
    prob = LinearProblem(
        matrix=np.zeros((1, 1)),
        forcings=[LinearForcing(kappa=1.0, coefficients=[[1.0]])],
        y0=np.array([2.0]),
    )
    sol = exact_linear_solution(prob, omega=eta)
    for t in (0.1, 0.9, 2.4):
        expect = 2.0 + (np.exp(1j * eta * t) - 1.0) / (1j * eta)
        assert abs(sol(t)[0] - expect) < 1e-12


def test_particular_polynomial_degree_matches():
    prob = LinearProblem(
        matrix=np.zeros((1, 1)),
        forcings=[LinearForcing(kappa=1.0, coefficients=[[0.0], [0.0], [1.0]])],
        y0=np.array([0.0]),
    )
    sol = exact_linear_solution(prob, omega=100.0)
    _, q = sol.particulars[0]
    assert q.shape[0] == 3  # degree 2
    assert abs(q[2][0]) > 0


def test_exact_solution_matches_reference_integrator():
    from oscillode.ode_core import IvpSpec, integrate, sample

    prob = reference_linear_problem()
    omega = 500.0
    sol = exact_linear_solution(prob, omega)

    def rhs(t, y):
        out = prob.matrix @ y
        for forcing in prob.forcings:
            out = out + forcing.derivative(0, t) * np.exp(1j * forcing.kappa * omega * t)
        return out

    grid = np.linspace(0.0, 5.0, 41)
    ref = integrate(
        IvpSpec(
            rhs=rhs,
            y0=prob.y0,
            t_end=5.0,
            abs_tol=1e-12,
            rel_tol=1e-12,
            knots=grid,
            dense_refine=False,
        )
    )
    worst = max(
        float(np.max(np.abs(sample(ref, float(t)) - sol(float(t))))) for t in grid
    )
    assert worst < 1e-8


def test_singular_resolvent_detected():
    # i * kappa * omega equal to an eigenvalue of A makes the shift singular
    prob = LinearProblem(
        matrix=np.array([[5.0j]]),
        forcings=[LinearForcing(kappa=1.0, coefficients=[[1.0]])],
        y0=np.array([0.0]),
    )
    with pytest.raises(SingularResolvent):
        exact_linear_solution(prob, omega=5.0)


def test_memory_stays_bounded_over_many_times():
    prob = reference_linear_problem()
    solution = exact_linear_solution(prob, omega=100.0)
    table = linear_coefficients(prob, 4)
    ts = np.random.default_rng(4).uniform(0.0, 5.0, 2000).tolist()
    calls = (solution, lambda t: table.value(0, 0, t), lambda t: table.value(2, 0, t))
    for call in calls:
        call(ts[0])
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for t in ts:
                call(t)
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert grown < 256 * 1024
