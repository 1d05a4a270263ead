"""Adaptive integrator: accuracy, dense output, error conditions."""

import math

import numpy as np
import pytest

from oscillode import ode_core
from oscillode.errors import MaxStepsExceeded, NonFiniteRHS, OutOfDomain, StepUnderflow
from oscillode.ode_core import IvpSpec, integrate, sample


def test_exponential_decay():
    sol = integrate(
        IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=1.0, tol=1e-10)
    )
    assert abs(sample(sol, 1.0)[0] - math.exp(-1.0)) < 1e-9


def test_complex_rotation():
    sol = integrate(
        IvpSpec(
            rhs=lambda t, y: 1j * y,
            y0=[1.0],
            t_end=math.pi,
            tol=1e-10,
        )
    )
    assert abs(sample(sol, math.pi)[0] - (-1.0)) < 1e-8


def test_sample_at_nodes_is_exact():
    sol = integrate(IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=2.0))
    for i in range(len(sol.ts)):
        assert sample(sol, float(sol.ts[i]))[0] == sol.ys[i][0]


def test_sample_midpoints_accurate():
    sol = integrate(
        IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=2.0, tol=1e-10)
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
            IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=1.0, tol=tol)
        )
        errors.append((abs(sample(sol, 1.0)[0] - math.exp(-1.0)), sol.n_steps))
    (e_hi, n_hi), (e_lo, n_lo) = errors[0], errors[-1]
    e_hi, e_lo = max(e_hi, 1e-16), max(e_lo, 1e-16)
    order = math.log(e_hi / e_lo) / math.log(n_lo / n_hi)
    assert order >= 4.0


def test_complex_matches_real_reformulation():
    # y' = i y as a real 2d system
    sol_c = integrate(
        IvpSpec(rhs=lambda t, y: 1j * y, y0=[1.0], t_end=1.0, tol=1e-12)
    )

    def rhs_real(t, y):
        return np.array([-y[1], y[0]], dtype=complex)

    sol_r = integrate(
        IvpSpec(rhs=rhs_real, y0=[1.0, 0.0], t_end=1.0, tol=1e-12)
    )
    zc = sample(sol_c, 1.0)[0]
    zr = sample(sol_r, 1.0)
    assert abs(zc.real - zr[0].real) < 1e-12
    assert abs(zc.imag - zr[1].real) < 1e-12


def test_max_steps_exceeded(monkeypatch):
    monkeypatch.setattr(ode_core, "MAX_STEPS", 3)
    with pytest.raises(MaxStepsExceeded):
        integrate(IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=10.0))


def test_step_underflow_at_bad_region():
    # a finite jump at t = 0.3: every step into t > 0.3 is rejected, so the
    # step size collapses until it no longer moves t
    def rhs(t, y):
        if t > 0.3:
            return np.full_like(y, 1e30)
        return -y

    with pytest.raises(StepUnderflow, match=r"step size underflow at t=0\.3 "):
        integrate(
            IvpSpec(rhs=rhs, y0=[1.0], t_end=1.0, tol=1e-10)
        )

    # a NaN there is a blow-up, not an underflow
    def nan_rhs(t, y):
        return np.full_like(y, np.nan) if t > 0.3 else -y

    with pytest.raises(NonFiniteRHS) as info:
        integrate(IvpSpec(rhs=nan_rhs, y0=[1.0], t_end=1.0, tol=1e-10))
    assert not isinstance(info.value, StepUnderflow)


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
        integrate(IvpSpec(rhs=rhs, y0=[1.0], t_end=1.0, tol=1e-10))
    # the first step with a stage past t = 0.3 is the one reported; no step
    # shrinking follows, so its five stages are the last calls
    first_bad = next(i for i, t in enumerate(calls) if t > 0.3)
    assert len(calls) - first_bad <= 5
    assert 0.0 < info.value.t <= 0.3


def test_invalid_spec():
    with pytest.raises(ValueError):
        IvpSpec(rhs=lambda t, y: y, y0=[1.0], t_end=-1.0)
    with pytest.raises(ValueError):
        IvpSpec(rhs=lambda t, y: y, y0=[1.0], t_end=1.0, tol=0.0)


@pytest.mark.parametrize(
    "name, value",
    [("t_end", math.nan), ("t_end", math.inf), ("tol", math.nan), ("tol", math.inf)],
)
def test_a_non_finite_span_or_tolerance_is_rejected(name, value):
    spec = dict(rhs=lambda t, y: -y, y0=[1.0], t_end=1.0)
    spec[name] = value
    with pytest.raises(ValueError, match=rf"{name}={value!r} must be finite and positive"):
        IvpSpec(**spec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_knot_is_rejected(bad):
    with pytest.raises(ValueError, match=rf"knot {bad!r} is not finite"):
        IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=1.0, knots=[0.25, bad, 0.75])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_a_non_finite_initial_state_is_rejected(bad):
    # named as y0's, not reported as a non-finite right-hand side
    calls = []
    with pytest.raises(ValueError, match=r"y0\[1\]=.* is not finite"):
        IvpSpec(rhs=lambda t, y: calls.append(t) or -y, y0=[1.0, bad], t_end=1.0)
    assert calls == []


def test_a_knot_just_past_a_step_end_does_not_shrink_the_steps_after_it():
    plain = integrate(IvpSpec(rhs=_lotka_volterra, y0=[1.5, 0.7], t_end=3.0))
    # the step from ts[3] is cut to a millionth of itself to land on the knot;
    # the step after it starts again from the step the controller had chosen
    knot = plain.ts[3] + 1e-6 * (plain.ts[4] - plain.ts[3])
    cut = integrate(IvpSpec(rhs=_lotka_volterra, y0=[1.5, 0.7], t_end=3.0, knots=[knot]))
    assert knot in cut.ts
    assert cut.ts[5] - cut.ts[4] >= plain.ts[4] - plain.ts[3]
    assert cut.n_accepted <= plain.n_accepted + 2


def _rooted_trees(max_order):
    """Every rooted tree up to ``max_order`` nodes, as (children, order) with
    children a nondecreasing tuple of indices of earlier trees."""
    trees = [((), 1)]
    for n in range(2, max_order + 1):
        smaller = list(trees)

        def forests(total, start):
            if total == 0:
                yield ()
                return
            for idx in range(start, len(smaller)):
                if smaller[idx][1] <= total:
                    for rest in forests(total - smaller[idx][1], idx):
                        yield (idx,) + rest

        trees += [(forest, n) for forest in forests(n - 1, 0)]
    return trees


def _elementary_weights(a, trees):
    """Per tree, the stage vector g with b @ g its elementary weight, and gamma."""
    g, gamma = [], []
    for children, n in trees:
        vec, gam = np.ones(a.shape[0]), n
        for c in children:
            vec, gam = vec * (a @ g[c]), gam * gamma[c]
        g.append(vec)
        gamma.append(gam)
    return g, gamma


def test_tableau_meets_its_order_conditions():
    trees = _rooted_trees(8)
    assert [sum(1 for _, n in trees if n == q) for q in range(1, 9)] == [1, 1, 2, 4, 9, 20, 48, 115]
    assert np.max(np.abs(ode_core._A.sum(axis=1) - ode_core._C)) <= 1e-14
    # the step is of order 8; the error weights (B minus an embedded
    # method's) vanish on every tree up to order 5 and 3
    g, gamma = _elementary_weights(ode_core._A[:12, :12], trees)
    for (_, n), vec, gam in zip(trees, g, gamma):
        assert abs(ode_core._B @ vec - 1 / gam) <= 1e-14
        if n <= 5:
            assert abs(ode_core._E5 @ vec) <= 1e-14
        if n <= 3:
            assert abs(ode_core._E3 @ vec) <= 1e-14
    # the dense output is of order 7 at every theta: read its stage weights
    # off sample() with one coefficient column per stage
    g, gamma = _elementary_weights(ode_core._A, trees)
    b = np.zeros(16)
    b[:12] = ode_core._B
    first, end = np.eye(16)[0], np.eye(16)[12]
    coefficients = np.array([b, first - b, 2 * b - end - first, *ode_core._D])
    unit_step = ode_core.DenseSolution(
        ts=np.array([0.0, 1.0]), ys=np.zeros((2, 16)), dense=[coefficients],
    )
    for theta in (0.1, 0.3, 0.5, 0.77, 0.95):
        weights = sample(unit_step, theta).real
        for (_, n), vec, gam in zip(trees, g, gamma):
            if n <= 7:
                assert abs(weights @ vec - theta**n / gam) <= 1e-14


def _lotka_volterra(t, y):
    return np.array([y[0] * (1.0 - y[1]), y[1] * (y[0] - 1.0)], dtype=complex)


def _one_step_interpolation_error(h, t0=0.4):
    # loose tolerances and knots at multiples of h make every step after the
    # first knot exactly h long; the step from t0 is compared with a tight
    # solve from the same start, sampled at its own knots
    knots = h * np.arange(1, round((t0 + h) / h) + 1)
    sol = integrate(
        IvpSpec(rhs=_lotka_volterra, y0=[1.5, 0.7], t_end=t0 + h,
                tol=1e3, knots=knots)
    )
    i = int(np.argmin(np.abs(sol.ts - t0)))
    assert sol.ts[i] == pytest.approx(t0) and sol.ts[i + 1] - sol.ts[i] == pytest.approx(h)
    thetas = np.linspace(0.0, 1.0, 41)[1:-1]
    ref = integrate(
        IvpSpec(rhs=_lotka_volterra, y0=sol.ys[i], t_end=h,
                tol=1e-15, knots=thetas * h)
    )
    return max(
        float(np.max(np.abs(sample(sol, sol.ts[i] + x * h) - sample(ref, x * h))))
        for x in thetas
    )


def test_interpolation_error_is_eighth_order_in_the_step():
    # at h = 0.05 the error is already at roundoff
    errors = [_one_step_interpolation_error(h) for h in (0.4, 0.2, 0.1)]
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine >= 128.0


def test_rhs_calls_are_stages_per_attempt_plus_four_per_accepted_step():
    sol = integrate(IvpSpec(rhs=_lotka_volterra, y0=[1.5, 0.7], t_end=3.0))
    # with dense output every accepted step is stored
    assert sol.n_accepted == len(sol.ts) - 1
    assert sol.n_accepted < sol.n_steps  # some steps were rejected
    # one interpolant per accepted step, kept as made
    assert len(sol.dense) == sol.n_accepted
    assert all(step.shape == (7, 2) for step in sol.dense)
    # eleven new stages per attempted step; an accepted one adds its end
    # derivative and the three dense-output stages
    assert sol.n_rhs_evals == 1 + 11 * sol.n_steps + 4 * sol.n_accepted


def test_without_dense_output_only_the_knots_are_kept():
    # out of order and with a repeat; knots outside (0, t_end) are dropped
    knots = [2.25, 0.5, -1.0, 1.0, 3.0, 0.5, 1.75, 7.0]
    kept = [0.0, 0.5, 1.0, 1.75, 2.25, 3.0]
    dense = integrate(IvpSpec(rhs=_lotka_volterra, y0=[1.5, 0.7], t_end=3.0, knots=knots))
    sol = integrate(
        IvpSpec(rhs=_lotka_volterra, y0=[1.5, 0.7], t_end=3.0, knots=knots,
                dense_refine=False)
    )
    assert sol.dense is None
    assert sol.ts.tolist() == kept
    # the same steps as with dense output, without its three extra stages
    assert (sol.n_steps, sol.n_accepted) == (dense.n_steps, dense.n_accepted)
    assert len(kept) - 1 < sol.n_accepted < sol.n_steps
    assert sol.n_rhs_evals == 1 + 11 * sol.n_steps + sol.n_accepted
    for i, t in enumerate(kept):
        j = dense.ts.tolist().index(t)
        assert np.array_equal(sol.ys[i], dense.ys[j])
        # sampling at a stored time gives the stored state, bit for bit
        assert np.array_equal(sample(sol, t), sol.ys[i])


def test_without_dense_output_a_time_between_knots_is_out_of_domain():
    sol = integrate(
        IvpSpec(rhs=_lotka_volterra, y0=[1.5, 0.7], t_end=3.0, knots=[1.0],
                dense_refine=False)
    )
    for t in (0.5, 1.0 + 1e-9, 2.999):
        with pytest.raises(OutOfDomain, match="only t = 0, the knots and t_end"):
            sample(sol, t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_sample_at_a_non_finite_time_is_out_of_domain(t):
    sol = integrate(IvpSpec(rhs=lambda t, y: -y, y0=[1.0], t_end=1.0))
    with pytest.raises(OutOfDomain, match="outside solved span"):
        sample(sol, t)
