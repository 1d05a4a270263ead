"""Coefficient evaluation: input checks, the memo, field points, and a property
over random small problems that ties evaluation to the chain solve."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oscillode import expansion as expansion_module
from oscillode.deriv_engine import VectorField, constant_amplitude, polynomial_field
from oscillode.errors import OutOfDomain, SmallDenominatorError
from oscillode.expansion import Problem, build_expansion, solve_nonoscillatory_chain
from oscillode.freq_algebra import BaseFrequency, FrequencyBasis
from oscillode.ode_core import sample
from oscillode.problems import get_problem

SQRT2 = math.sqrt(2.0)


def solved_worked_example(order):
    ex = build_expansion(get_problem("worked_example").problem, order=order)
    solve_nonoscillatory_chain(ex, t_end=1.0)
    return ex


@pytest.fixture
def count_points(monkeypatch):
    """Count ``VectorField.at`` calls; the list grows by one per point."""
    calls = []
    original = VectorField.at

    def at(self, y):
        calls.append(1)
        return original(self, y)

    monkeypatch.setattr(VectorField, "at", at)
    return calls


# -- inputs and the memo --------------------------------------------------------------


def test_coefficient_at_a_level_above_the_built_order_is_rejected():
    ex = solved_worked_example(order=2)
    with pytest.raises(ValueError, match=r"r=5 is outside 0\.\.2, the built order"):
        ex.coefficient_value(5, (1,), 0.5)
    with pytest.raises(ValueError, match=r"r=-1 is outside 0\.\.2"):
        ex.coefficient_derivative(-1, (), 0.5)


def test_coefficient_with_a_label_outside_the_index_set_is_rejected():
    ex = solved_worked_example(order=2)
    with pytest.raises(ValueError, match=r"label 9 is not in level 2's index set") as info:
        ex.coefficient_value(2, (9,), 0.5)
    assert str(info.value).endswith("its labels are 0, 1, 2, 3")
    with pytest.raises(ValueError, match=r"label 1 is not in level 0's index set") as info:
        ex.coefficient_derivative(0, (1,), 0.5)
    assert str(info.value).endswith("its labels are 0")


def test_a_call_that_raises_leaves_no_memo_entry():
    ex = solved_worked_example(order=2)
    with pytest.raises(ValueError):
        ex.coefficient_value(5, (1,), 0.5)
    with pytest.raises(OutOfDomain):
        ex.evaluate_truncated(7.0, 100.0, 1)
    for k in range(20):
        with pytest.raises(OutOfDomain):
            ex.coefficient_value(2, (1,), 2.0 + k)
    assert ex._memo == {}
    ex.evaluate_truncated(0.5, 100.0, 2)
    assert list(ex._memo) == [0.5]


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_a_non_finite_time_is_rejected_before_the_memo(t):
    ex = solved_worked_example(order=2)
    with pytest.raises(ValueError, match="must be finite"):
        ex.coefficient_value(0, (), t)
    with pytest.raises(ValueError, match="must be finite"):
        ex.coefficient_derivative(2, (1,), t)
    for _ in range(3):
        with pytest.raises(ValueError, match="must be finite"):
            ex.evaluate_truncated(t, 100.0, 2)
    assert ex._memo == {}


# -- samples of the chain -----------------------------------------------------------------


@pytest.fixture(scope="module")
def linear_order_four():
    ex = build_expansion(get_problem("linear_example").problem, order=4)
    solve_nonoscillatory_chain(ex, t_end=5.0)
    return ex


def test_one_chain_sample_per_cold_evaluation(linear_order_four, monkeypatch):
    ex = linear_order_four
    calls = []
    original = expansion_module.sample

    def sample(solution, t):
        calls.append(solution)
        return original(solution, t)

    monkeypatch.setattr(expansion_module, "sample", sample)
    ex.evaluate_truncated(1.2345, 1000.0, 4)
    assert len(calls) == 1
    assert calls[0] is ex.chain_solution
    ex.evaluate_truncated(1.2345, 2000.0, 4)
    assert len(calls) == 1


def test_chain_values_equal_each_levels_own_sample(linear_order_four):
    ex = linear_order_four
    knots = ex.nodes[(0, ())].solution.ts
    points = np.random.default_rng(7).uniform(0.0, 5.0, 64).tolist() + knots[:5].tolist()
    for t in points:
        for r in range(ex.order + 1):
            own = sample(ex.nodes[(r, ())].solution, t)
            assert np.array_equal(ex.coefficient_value(r, (), t), own)


# -- field points -----------------------------------------------------------------------


def test_one_field_point_per_cold_evaluation_and_none_when_warm(count_points):
    ex = solved_worked_example(order=3)
    count_points.clear()
    ex.evaluate_truncated(0.37, 300.0, 3)
    assert len(count_points) == 1
    ex.evaluate_truncated(0.37, 900.0, 3)
    ex.coefficient_value(3, (1, 1), 0.37)
    assert len(count_points) == 1
    ex.coefficient_derivative(3, (1, 1), 0.61, order=2)
    assert len(count_points) == 2


def test_one_field_point_per_chain_right_hand_side(count_points):
    ex = build_expansion(get_problem("worked_example").problem, order=3)
    solve_nonoscillatory_chain(ex, t_end=1.0)
    # one per right-hand-side call, plus one for the initial values at t = 0
    assert len(count_points) == ex.nodes[(0, ())].solution.n_rhs_evals + 1


# -- random small problems ----------------------------------------------------------------

_MONOMIALS = {
    d: [e for e in itertools.product(range(4), repeat=d) if sum(e) <= 3] for d in (1, 2)
}
_SMALL = st.integers(min_value=-4, max_value=4).map(lambda k: k / 8.0)


@st.composite
def small_problems(draw):
    """A 1-2 dimensional cubic polynomial field, 2-3 distinct exact base
    frequencies over {1, sqrt(2)} and constant amplitudes, all small."""
    d = draw(st.integers(min_value=1, max_value=2))
    components = [
        draw(st.dictionaries(st.sampled_from(_MONOMIALS[d]), _SMALL, max_size=4)) for _ in range(d)
    ]
    basis = FrequencyBasis([1.0, SQRT2], names=("1", "sqrt(2)"))
    coords = draw(
        st.lists(
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda c: c != (0, 0)),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    kappas = [BaseFrequency(i + 1, basis, coords=c) for i, c in enumerate(coords)]
    vectors = st.lists(_SMALL, min_size=d, max_size=d)
    forcings = [constant_amplitude(kappa, draw(vectors)) for kappa in kappas]
    y0 = draw(vectors)
    return Problem(polynomial_field(d, components), forcings, y0, basis)


@settings(max_examples=30, deadline=None)
@given(small_problems(), st.floats(min_value=1.0, max_value=1e4))
def test_evaluation_repeats_the_chain_and_cancels_at_the_origin(problem, omega):
    try:
        ex = build_expansion(problem, order=2)
    except SmallDenominatorError:
        reject()
    solve_nonoscillatory_chain(ex, t_end=0.5)
    # the chain's right-hand side and evaluation are one evaluator
    for r in range(3):
        sol = ex.nodes[(r, ())].solution
        assert np.array_equal(sol.fs, [ex.coefficient_derivative(r, (), t) for t in sol.ts])
    # every level's terms cancel at the origin
    for s in range(3):
        assert np.max(np.abs(ex.evaluate_truncated(0.0, omega, s) - problem.y0)) <= 1e-12
