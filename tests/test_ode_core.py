"""Adaptive integrator: accuracy, dense output, error conditions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oscillode import ode_core
from oscillode.errors import MaxStepsExceeded, NonFiniteRHS, OutOfDomain, StepUnderflow
from oscillode.ode_core import IvpSpec, integrate, sample


def test_exponential_decay():
    sol = integrate(
        IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=1.0, abs_tol=1e-10, rel_tol=1e-10)
    )
    assert abs(sample(sol, 1.0)[0] - math.exp(-1.0)) < 1e-9


def test_complex_rotation():
    sol = integrate(
        IvpSpec(
            rhs=lambda t, y: 1j * y,
            y0=[1.0],
            t_end=math.pi,
            abs_tol=1e-10,
            rel_tol=1e-10,
        )
    )
    assert abs(sample(sol, math.pi)[0] - (-1.0)) < 1e-8


def test_sample_at_nodes_is_exact():
    sol = integrate(IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=2.0))
    for i in range(len(sol.ts)):
        assert sample(sol, float(sol.ts[i]))[0] == sol.ys[i][0]


def test_sample_midpoints_accurate():
    sol = integrate(
        IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=2.0, abs_tol=1e-10, rel_tol=1e-10)
    )
    worst = 0.0
    for i in range(len(sol.ts) - 1):
        tm = 0.5 * (sol.ts[i] + sol.ts[i + 1])
        worst = max(worst, abs(sample(sol, tm)[0] - math.exp(-tm)))
    assert worst < 1e-9


def test_sample_out_of_domain():
    sol = integrate(IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=1.0))
    with pytest.raises(OutOfDomain):
        sample(sol, 1.0 + 1e-6)
    with pytest.raises(OutOfDomain):
        sample(sol, -1e-6)


def test_knots_are_hit_exactly():
    knots = np.linspace(0.0, 2.0, 41)[1:-1]
    sol = integrate(
        IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=2.0, knots=knots)
    )
    for tk in knots:
        assert tk in sol.ts


def test_empirical_convergence_order():
    # the observed order on a tolerance sweep should look like a 5th order pair
    errors = []
    for tol in (1e-6, 1e-8, 1e-10):
        sol = integrate(
            IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=1.0, abs_tol=tol, rel_tol=tol)
        )
        errors.append((abs(sample(sol, 1.0)[0] - math.exp(-1.0)), sol.n_steps))
    (e_hi, n_hi), (e_lo, n_lo) = errors[0], errors[-1]
    e_hi, e_lo = max(e_hi, 1e-16), max(e_lo, 1e-16)
    order = math.log(e_hi / e_lo) / math.log(n_lo / n_hi)
    assert order >= 4.0


def test_complex_matches_real_reformulation():
    # y' = i y as a real 2d system
    sol_c = integrate(
        IvpSpec(rhs=lambda t, y: 1j * y, y0=[1.0], t_end=1.0, abs_tol=1e-12, rel_tol=1e-12)
    )

    def rhs_real(t, y):
        return np.array([-y[1], y[0]], dtype=complex)

    sol_r = integrate(
        IvpSpec(rhs=rhs_real, y0=[1.0, 0.0], t_end=1.0, abs_tol=1e-12, rel_tol=1e-12)
    )
    zc = sample(sol_c, 1.0)[0]
    zr = sample(sol_r, 1.0)
    assert abs(zc.real - zr[0].real) < 1e-12
    assert abs(zc.imag - zr[1].real) < 1e-12


def test_max_steps_exceeded():
    with pytest.raises(MaxStepsExceeded):
        integrate(IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=10.0, max_steps=3))


def test_step_underflow_at_bad_region():
    # every step into t > 0.3 is rejected, so the step size collapses
    def rhs(t, y):
        if t > 0.3:
            return np.full_like(y, np.nan)
        return -y

    with pytest.raises(StepUnderflow):
        integrate(
            IvpSpec(rhs=rhs, y0=[1.0], t_end=1.0, abs_tol=1e-10, rel_tol=1e-10)
        )


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_raises_at_its_step(bad):
    calls = []

    def rhs(t, y):
        calls.append(t)
        if t > 0.3:
            return np.full_like(y, bad)
        return -y

    with pytest.raises(NonFiniteRHS, match=r"step from t=0\.") as info:
        integrate(IvpSpec(rhs=rhs, y0=[1.0], t_end=1.0, abs_tol=1e-10, rel_tol=1e-10))
    # the first step with a stage past t = 0.3 is the one reported; no step
    # shrinking follows, so its five stages are the last calls
    first_bad = next(i for i, t in enumerate(calls) if t > 0.3)
    assert len(calls) - first_bad <= 5
    assert 0.0 < info.value.t <= 0.3


def test_invalid_spec():
    with pytest.raises(ValueError):
        IvpSpec(rhs=lambda t, y: y, y0=[1.0], t_end=-1.0)
    with pytest.raises(ValueError):
        IvpSpec(rhs=lambda t, y: y, y0=[1.0], t_end=1.0, abs_tol=0.0)


def _fraction_tableau():
    """Fehlberg 4(5) with f(t+h, y5) as a seventh stage at c = 1, row B5."""
    F = Fraction
    b5 = [F(16, 135), 0, F(6656, 12825), F(28561, 56430), F(-9, 50), F(2, 55)]
    c = [0, F(1, 4), F(3, 8), F(12, 13), 1, F(1, 2), 1]
    a = [
        [],
        [F(1, 4)],
        [F(3, 32), F(9, 32)],
        [F(1932, 2197), F(-7200, 2197), F(7296, 2197)],
        [F(439, 216), F(-8), F(3680, 513), F(-845, 4104)],
        [F(-8, 27), F(2), F(-3544, 2565), F(1859, 4104), F(-11, 40)],
        b5,
    ]
    a = [row + [0] * (7 - len(row)) for row in a]
    return c, a, b5


MID_WEIGHTS = [
    Fraction(119, 864), 0, Fraction(1016, 2565), Fraction(-2197, 16416),
    Fraction(11, 160), 0, Fraction(1, 32),
]


def test_midpoint_weights_meet_order_four_conditions_exactly():
    c, a, b5 = _fraction_tableau()
    b = MID_WEIGHTS
    theta = Fraction(1, 2)
    stages = range(7)
    ac = [sum(a[i][j] * c[j] for j in stages) for i in stages]
    ac2 = [sum(a[i][j] * c[j] ** 2 for j in stages) for i in stages]
    aac = [sum(a[i][j] * ac[j] for j in stages) for i in stages]

    def weighted(values):
        return sum(b[i] * values[i] for i in stages)

    conditions = [
        (weighted([1] * 7), theta),
        (weighted(c), theta**2 / 2),
        (weighted([x**2 for x in c]), theta**3 / 3),
        (weighted(ac), theta**3 / 6),
        (weighted([x**3 for x in c]), theta**4 / 4),
        (weighted([c[i] * ac[i] for i in stages]), theta**4 / 8),
        (weighted(ac2), theta**4 / 12),
        (weighted(aac), theta**4 / 24),
    ]
    for got, want in conditions:
        assert got == want
    # the integrator's floats are these fractions, over the same tableau
    assert list(ode_core._B_MID) == [float(w) for w in b]
    assert list(ode_core._B5) == [float(w) for w in b5]
    assert list(ode_core._C) == [float(x) for x in c[:6]]
    for row, frac_row in zip(ode_core._A, a):
        assert row == [float(x) for x in frac_row[: len(row)]]


def _lotka_volterra(t, y):
    return np.array([y[0] * (1.0 - y[1]), y[1] * (y[0] - 1.0)], dtype=complex)


def _one_step_interpolation_error(h, t0=0.5):
    # loose tolerances and knots at multiples of h make every step after the
    # first knot exactly h long; the step from t0 is compared with a tight
    # solve from the same start, sampled at its own knots
    knots = h * np.arange(1, round((t0 + h) / h) + 1)
    sol = integrate(
        IvpSpec(rhs=_lotka_volterra, y0=[1.5, 0.7], t_end=t0 + h,
                abs_tol=1e3, rel_tol=1e3, knots=knots)
    )
    i = int(np.argmin(np.abs(sol.ts - t0)))
    assert sol.ts[i] == pytest.approx(t0) and sol.ts[i + 1] - sol.ts[i] == pytest.approx(h)
    thetas = np.linspace(0.0, 1.0, 41)[1:-1]
    ref = integrate(
        IvpSpec(rhs=_lotka_volterra, y0=sol.ys[i], t_end=h,
                abs_tol=1e-15, rel_tol=1e-15, knots=thetas * h)
    )
    return max(
        float(np.max(np.abs(sample(sol, sol.ts[i] + x * h) - sample(ref, x * h))))
        for x in thetas
    )


def test_interpolation_error_is_fifth_order_in_the_step():
    errors = [_one_step_interpolation_error(h) for h in (0.1, 0.05, 0.025)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 24.0


def test_rhs_calls_are_stages_plus_one_per_accepted_step():
    sol = integrate(IvpSpec(rhs=_lotka_volterra, y0=[1.5, 0.7], t_end=3.0))
    accepted = len(sol.ts) - 1
    assert sol.ys_mid.shape == sol.ys[1:].shape
    assert sol.n_rhs_evals == 1 + 5 * sol.n_steps + accepted


def test_without_dense_refine_no_midpoints_are_kept():
    sol = integrate(
        IvpSpec(rhs=_lotka_volterra, y0=[1.5, 0.7], t_end=3.0, dense_refine=False)
    )
    assert sol.ys_mid is None
    # the cubic Hermite alone interpolates, exactly at the nodes
    assert np.array_equal(sample(sol, float(sol.ts[3])), sol.ys[3])
