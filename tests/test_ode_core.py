"""Adaptive integrator: accuracy, dense output, error conditions."""

import math

import numpy as np
import pytest

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
