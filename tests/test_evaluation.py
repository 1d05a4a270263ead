"""Coefficient evaluation: input checks, what a call leaves behind, coefficient
tables, field points, and a property over random small problems that ties
evaluation to the chain solve."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from oscillode import expansion as expansion_module
from oscillode import plan as plan_module
from oscillode.deriv_engine import VectorField, constant_amplitude, polynomial_field
from oscillode.errors import OutOfDomain, SmallDenominatorError
from oscillode.expansion import Problem, build_expansion, solve_nonoscillatory_chain
from oscillode.freq_algebra import BaseFrequency, FrequencyBasis, build_index_chain
from oscillode.ode_core import sample
from oscillode.problems import get_problem

SQRT2 = math.sqrt(2.0)
GOLDEN = Path(__file__).parent / "golden"


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


# -- inputs and what a call leaves behind ---------------------------------------------


def test_coefficient_at_a_level_above_the_built_order_is_rejected():
    ex = solved_worked_example(order=2)
    with pytest.raises(ValueError, match=r"r=5 is outside 0\.\.2, the built order"):
        ex.coefficient_value(5, (1,), 0.5)
    with pytest.raises(ValueError, match=r"r=-1 is outside 0\.\.2"):
        ex.coefficient_value(-1, (), 0.5, order=1)


def test_coefficient_with_a_label_outside_the_index_set_is_rejected():
    ex = solved_worked_example(order=2)
    with pytest.raises(ValueError, match=r"label 9 is not in level 2's index set") as info:
        ex.coefficient_value(2, (9,), 0.5)
    assert str(info.value).endswith("its labels are 0, 1, 2, 3")
    with pytest.raises(ValueError, match=r"label 1 is not in level 0's index set") as info:
        ex.coefficient_value(0, (1,), 0.5, order=1)
    assert str(info.value).endswith("its labels are 0")


NON_INTEGER_CALLS = {
    "table": (lambda ex: ex.table([0.5], 1.5), "s=1.5"),
    "evaluate_truncated": (lambda ex: ex.evaluate_truncated(0.5, 100.0, 1.5), "s=1.5"),
    "CoefficientTable.evaluate": (lambda ex: ex.table([0.5]).evaluate(100.0, 1.5), "s=1.5"),
    "coefficient_value": (lambda ex: ex.coefficient_value(1.5, (1,), 0.5), "r=1.5"),
    "build_expansion": (lambda ex: build_expansion(ex.problem, order=2.5), "order=2.5"),
    "build_index_chain": (
        lambda ex: build_index_chain(ex.problem.basis, ex.problem.kappas, 2.5),
        "level r_max=2.5",
    ),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_CALLS))
def test_a_non_integer_level_or_order_is_rejected(name):
    call, named = NON_INTEGER_CALLS[name]
    ex = solved_worked_example(order=2)
    with pytest.raises(ValueError) as info:
        call(ex)
    assert str(info.value) == f"{named} must be a nonnegative integer"


def test_a_forcing_coefficient_is_out_of_domain_off_the_solved_chain():
    ex = build_expansion(get_problem("worked_example").problem, order=2)
    for order in (0, 1):
        with pytest.raises(OutOfDomain, match="run solve_nonoscillatory_chain first"):
            ex.coefficient_value(1, (1,), 0.5, order=order)
    solve_nonoscillatory_chain(ex, t_end=1.0)
    for order in (0, 1):
        assert np.all(np.isfinite(ex.coefficient_value(1, (1,), 0.5, order=order)))
        with pytest.raises(OutOfDomain, match="outside solved span"):
            ex.coefficient_value(1, (1,), 7.0, order=order)


def _state(ex):
    """Each attribute of the expansion and of every node, with its identity
    and size: what a call could leave behind."""

    def attributes(obj):
        return {name: (id(v), len(v) if hasattr(v, "__len__") else None) for name, v in vars(obj).items()}

    return attributes(ex), {key: attributes(node) for key, node in ex.nodes.items()}


def test_a_call_that_raises_leaves_no_state():
    ex = solved_worked_example(order=2)
    ex.evaluate_truncated(0.25, 100.0, 2)
    before = _state(ex)
    with pytest.raises(ValueError):
        ex.coefficient_value(5, (1,), 0.5)
    with pytest.raises(OutOfDomain):
        ex.evaluate_truncated(7.0, 100.0, 1)
    for k in range(20):
        with pytest.raises(OutOfDomain):
            ex.coefficient_value(2, (1,), 2.0 + k)
    with pytest.raises(OutOfDomain):
        ex.table([0.5, 7.0])
    assert _state(ex) == before
    ex.evaluate_truncated(0.5, 100.0, 2)
    ex.table([0.1, 0.2]).evaluate(100.0, 2)
    assert _state(ex) == before


def test_no_evaluation_changes_the_expansion():
    ex = solved_worked_example(order=3)
    before = _state(ex)
    raised = 0
    for order in range(5):
        for r, label in ex.nodes:
            ex.coefficient_value(r, label, 0.4, order=order)
            try:  # past the chain's end: raises if the coefficient reads the chain
                ex.coefficient_value(r, label, 7.0, order=order)
            except OutOfDomain:
                raised += 1
        with pytest.raises(ValueError):
            ex.coefficient_value(3, (9,), 0.4, order=order)
    for s in range(ex.order + 1):
        ex.table([0.1, 0.5, 0.9], s).evaluate(100.0, s)
        ex.evaluate_truncated(0.3, 250.0, s)
        with pytest.raises(OutOfDomain):
            ex.table([0.5, 7.0], s)
        with pytest.raises(OutOfDomain):
            ex.evaluate_truncated(7.0, 100.0, s)
    assert raised > 0
    assert _state(ex) == before


def test_a_table_before_the_solve_is_out_of_domain():
    ex = build_expansion(get_problem("worked_example").problem, order=2)
    before = _state(ex)
    for ts in ([0.5], []):
        with pytest.raises(OutOfDomain, match="run solve_nonoscillatory_chain first"):
            ex.table(ts)
    with pytest.raises(OutOfDomain, match="run solve_nonoscillatory_chain first"):
        ex.evaluate_truncated(0.5, 100.0, 2)
    assert _state(ex) == before


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_a_non_finite_time_is_rejected_before_any_sample(t, monkeypatch):
    ex = solved_worked_example(order=2)
    ex.evaluate_truncated(0.25, 100.0, 2)
    before = _state(ex)
    calls = []
    original = expansion_module.sample
    monkeypatch.setattr(expansion_module, "sample", lambda *args: calls.append(1) or original(*args))
    with pytest.raises(ValueError, match="must be finite"):
        ex.coefficient_value(0, (), t)
    with pytest.raises(ValueError, match="must be finite"):
        ex.coefficient_value(2, (1,), t, order=1)
    for _ in range(3):
        with pytest.raises(ValueError, match="must be finite"):
            ex.evaluate_truncated(t, 100.0, 2)
    with pytest.raises(ValueError, match="must be finite"):
        ex.table([0.5, t])
    assert calls == []
    assert _state(ex) == before


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
    # every time of a table is cold; its sums at any omega are warm
    ts = np.linspace(0.1, 4.9, 7)
    table = ex.table(ts)
    assert len(calls) == len(ts)
    assert all(solution is ex.chain_solution for solution in calls)
    for omega in (7.5, 1000.0, 2000.0):
        for s in range(ex.order + 1):
            table.evaluate(omega, s)
    assert len(calls) == len(ts)
    ex.evaluate_truncated(1.2345, 1000.0, 4)
    assert len(calls) == len(ts) + 1


def test_memory_stays_bounded_over_many_evaluation_times(linear_order_four):
    ex = linear_order_four
    ts = np.random.default_rng(3).uniform(0.0, 5.0, 2000).tolist()
    ex.evaluate_truncated(ts[0], 1000.0, 4)  # builds the term lists
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        for t in ts:
            ex.evaluate_truncated(t, 1000.0, 4)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024


def _pointwise_sum(coefficients, labels, t, omega, s):
    """The truncated sum at one time, label by label, from coefficient values."""
    y = coefficients[(0, ())]
    for r in range(1, s + 1):
        acc = np.zeros(y.shape, dtype=complex)
        for label in labels[r]:
            acc = acc + coefficients[(r, label.canonical_tuple)] * np.exp(
                1j * label.float_value * omega * t
            )
        y = y + acc / omega**r
    return y


@pytest.mark.parametrize(
    "name, order, t_end", [("linear_example", 4, 5.0), ("memristor", 3, 3.0)]
)
def test_table_sums_equal_the_pointwise_sum(name, order, t_end):
    ex = build_expansion(get_problem(name).problem, order=order)
    knots = np.linspace(0.0, t_end, 9)
    solve_nonoscillatory_chain(ex, t_end, knots=knots)
    ts = np.concatenate([knots, np.random.default_rng(11).uniform(0.0, t_end, 16)])
    labels = {r: ex.labels_at(r) for r in range(1, order + 1)}
    keys = [(0, ())] + [(r, lab.canonical_tuple) for r in labels for lab in labels[r]]
    coefficients = [{key: ex.coefficient_value(*key, t) for key in keys} for t in ts.tolist()]
    table = ex.table(ts)
    for omega in (120.0, 1000.0, 7777.7):
        for s in range(order + 1):
            want = np.array(
                [_pointwise_sum(c, labels, t, omega, s) for c, t in zip(coefficients, ts.tolist())]
            )
            assert np.array_equal(table.evaluate(omega, s), want)
            assert np.array_equal([ex.evaluate_truncated(t, omega, s) for t in ts], want)
    with pytest.raises(ValueError, match=r"s=2 is outside 0\.\.1, the levels of the table"):
        ex.table(ts, 1).evaluate(100.0, 2)


def test_chain_values_equal_each_levels_own_sample(linear_order_four):
    ex = linear_order_four
    knots = ex.nodes[(0, ())].solution.ts
    points = np.random.default_rng(7).uniform(0.0, 5.0, 64).tolist() + knots[:5].tolist()
    d = ex.problem.dimension
    for t in points:
        stacked = sample(ex.chain_solution, t)
        for r in range(ex.order + 1):
            own = stacked[r * d : (r + 1) * d]
            assert np.array_equal(ex.coefficient_value(r, (), t), own)


# -- field points -----------------------------------------------------------------------


def test_one_field_point_per_cold_evaluation_and_none_when_warm(count_points):
    ex = solved_worked_example(order=3)
    ts = [0.37, 0.5, 0.61]
    count_points.clear()
    table = ex.table(ts)
    assert len(count_points) == len(ts)
    for omega in (300.0, 900.0):
        for s in range(ex.order + 1):
            table.evaluate(omega, s)
    assert len(count_points) == len(ts)
    ex.evaluate_truncated(0.37, 300.0, 3)
    assert len(count_points) == len(ts) + 1
    ex.coefficient_value(3, (1, 1), 0.37)
    assert len(count_points) == len(ts) + 2
    ex.coefficient_value(3, (1, 1), 0.61, order=2)
    assert len(count_points) == len(ts) + 3


def test_one_field_point_per_chain_right_hand_side(count_points):
    ex = build_expansion(get_problem("worked_example").problem, order=3)
    solve_nonoscillatory_chain(ex, t_end=1.0)
    # one per right-hand-side call, plus one for the initial values at t = 0
    assert len(count_points) == ex.nodes[(0, ())].solution.n_rhs_evals + 1


# -- the evaluation plan ----------------------------------------------------------------


@pytest.fixture
def compiled_plans(monkeypatch):
    """Record every plan compiled; the list grows by one per plan."""
    plans = []

    class Plan(plan_module.Plan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(plan_module, "Plan", Plan)
    return plans


@pytest.mark.parametrize(
    "name, order, calls",
    [("memristor", 3, {0: 1, 1: 3, 2: 2, 3: 1}), ("linear_example", 4, {0: 1, 1: 4})],
    ids=["memristor", "linear"],
)
def test_a_chain_right_hand_side_makes_one_apply_per_term(name, order, calls, monkeypatch):
    ex = build_expansion(get_problem(name).problem, order=order)
    solve_nonoscillatory_chain(ex, t_end=1.0)
    rhs = expansion_module._ChainSystem(ex)
    counted = {}
    original = VectorField.apply

    def apply(self, n, y, directions):
        counted[n] = counted.get(n, 0) + 1
        return original(self, n, y, directions)

    monkeypatch.setattr(VectorField, "apply", apply)
    rhs(0.3, ex.chain_solution.ys[2])
    assert counted == calls


def _storing_field(give):
    """A two-state field whose value and differentials are stored arrays,
    handed out through ``give``; the arrays are returned too.  They are
    read-only, so a write into one raises at once."""
    stored = [np.array([0.3 - 0.1j, -0.2 + 0.05j]) * (1.0 + 0.5j) ** n for n in range(5)]
    for array in stored:
        array.flags.writeable = False
    field = VectorField(
        dimension=2,
        evaluate=lambda y: give(stored[0]),
        jet=lambda y: lambda n, directions: give(stored[n]),
        max_order=4,
    )
    return field, stored


def test_a_field_that_hands_out_its_stored_arrays_keeps_them():
    # a sum may keep the array the field returned as its value, so nothing
    # may write into a value in place
    basis = FrequencyBasis([1.0, SQRT2], names=("1", "sqrt(2)"))
    kappas = [BaseFrequency(1, basis, coords=(1, 0)), BaseFrequency(2, basis, coords=(0, 1))]
    results = []
    for give in (lambda a: a, np.copy):
        field, stored = _storing_field(give)
        before = [a.copy() for a in stored]
        forcings = [constant_amplitude(kappa, [0.5, -0.25]) for kappa in kappas]
        ex = build_expansion(Problem(field, forcings, [0.1, 0.2], basis), order=3)
        solve_nonoscillatory_chain(ex, t_end=1.0)
        table = ex.table([0.0, 0.3, 0.7])
        sums = [table.evaluate(omega, s) for omega in (250.0, 900.0) for s in range(4)]
        rate = ex.coefficient_value(1, (), 0.3, order=1)
        result = [ex.chain_solution.ys, *table.values, *sums, rate.copy()]
        rate *= 2.0
        for now, then in zip(stored, before):
            assert np.array_equal(now, then)
        results.append(result)
    for shared, copied in zip(*results):
        assert np.array_equal(shared, copied)


def test_memristor_chain_matches_its_stored_values():
    # the stacked r = 3 chain at the 129 knots, then at 64 times between
    # them, as an earlier version of the solver computed it
    registered = get_problem("memristor")
    grid = np.linspace(0.0, registered.t_end, 129)
    between = np.sort(np.random.default_rng(64).uniform(0.0, registered.t_end, 64))
    ex = build_expansion(registered.problem, order=3)
    solve_nonoscillatory_chain(ex, registered.t_end, knots=grid)
    chain = ex.chain_solution
    assert (chain.n_steps, chain.n_accepted, chain.n_rhs_evals) == (234, 226, 3479)
    values = np.array([sample(chain, t) for t in np.concatenate([grid, between]).tolist()])
    stored = np.load(GOLDEN / "memristor_chain_r3.npy")
    assert values.shape == stored.shape
    assert float(np.max(np.abs(values - stored))) <= 1e-12


def test_a_build_compiles_no_plan(compiled_plans):
    ex = build_expansion(get_problem("memristor").problem, order=3)
    assert compiled_plans == []
    assert ex._levels_plan is None


def test_a_build_only_process_imports_no_evaluation_module():
    # a fresh process, since this one has imported everything: the plan and
    # table code is imported on first use, so builds alone never load it
    script = (
        "import sys, oscillode\n"
        "problem = oscillode.get_problem('worked_example').problem\n"
        "for order in (5, 6, 7):\n"
        "    oscillode.build_expansion(problem, order=order)\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    modules = run.stdout.split()
    assert "oscillode.expansion" in modules
    assert [m for m in modules if m == "oscillode.plan" or "table" in m] == []


def test_a_solve_compiles_its_chain_plan_once(compiled_plans):
    ex = build_expansion(get_problem("memristor").problem, order=3)
    solve_nonoscillatory_chain(ex, t_end=1.0)
    # the chain's plan and the levels' plan, which gave the initial values
    assert len(compiled_plans) == 2
    assert ex.chain_solution.n_rhs_evals > 100
    assert compiled_plans[1] is ex._levels_plan
    # tables reuse the levels' plan
    ex.table([0.2, 0.4])
    ex.evaluate_truncated(0.3, 100.0, 2)
    assert len(compiled_plans) == 2


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
    system = expansion_module._ChainSystem(ex)
    chain = ex.chain_solution
    rates = [system(t, y) for t, y in zip(chain.ts, chain.ys)]
    d = problem.dimension
    for r in range(3):
        assert np.array_equal(
            [rate[r * d : (r + 1) * d] for rate in rates],
            [ex.coefficient_value(r, (), t, order=1) for t in chain.ts],
        )
    # every level's terms cancel at the origin
    for s in range(3):
        assert np.max(np.abs(ex.evaluate_truncated(0.0, omega, s) - problem.y0)) <= 1e-12
