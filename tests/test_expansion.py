"""Expansion engine: node structure, recursions, derivatives, evaluation."""

import hashlib
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillode.deriv_engine import (
    ForcingTerm,
    VectorField,
    constant_amplitude,
    linear_field,
    polynomial_amplitude,
    polynomial_field,
)
from oscillode import expansion as expansion_module
from oscillode import freq_algebra as freq_algebra_module
from oscillode.errors import NonFiniteRHS, OutOfDomain, SmallDenominatorError, UnsupportedOrder
from oscillode.expansion import (
    Problem,
    build_expansion,
    dump_expansion,
    solve_nonoscillatory_chain,
)
from oscillode.freq_algebra import BaseFrequency, FrequencyBasis
from oscillode.linear_closed_form import exact_linear_solution
from oscillode.problems import get_problem

SQRT2 = math.sqrt(2.0)


def term_signature(node):
    """Comparable form of a node's term list: (n, operands, weight)."""
    return {(len(term.operands), term.operands): term.weight for term in node.terms}


def two_frequency_problem():
    """Generic two-channel problem with a cubic polynomial field."""
    basis = FrequencyBasis([1.0, SQRT2], names=("1", "sqrt(2)"))
    kappas = [
        BaseFrequency(1, basis, coords=(1, 0)),
        BaseFrequency(2, basis, coords=(0, 1)),
    ]
    field = polynomial_field(
        2,
        [
            {(0, 1): 1.0, (3, 0): -0.2, (1, 1): 0.1},
            {(1, 0): -1.0, (0, 1): -0.15, (2, 0): 0.2},
        ],
        max_order=8,
    )
    forcings = [
        constant_amplitude(kappas[0], [0.4, 0.1]),
        polynomial_amplitude(kappas[1], [[0.0, 0.3], [0.2, 0.0]]),
    ]
    return Problem(field, forcings, y0=[0.15, -0.1], basis=basis)


# -- structural fixtures --------------------------------------------------------


@pytest.fixture(scope="module")
def two_freq_expansion():
    return build_expansion(two_frequency_problem(), order=4)


@pytest.fixture(scope="module")
def worked_expansion():
    return build_expansion(get_problem("worked_example").problem, order=3)


@pytest.fixture(scope="module")
def memristor_solved():
    reg = get_problem("memristor")
    ex = build_expansion(reg.problem, order=3)
    solve_nonoscillatory_chain(ex, t_end=3.0)
    return ex


class TestTwoFrequencyStructure:
    """Node-by-node term lists for a generic two-frequency problem, r <= 4."""

    @pytest.fixture
    def expansion(self, two_freq_expansion):
        return two_freq_expansion

    def test_level_one_forcing_nodes(self, expansion):
        for m in (1, 2):
            node = expansion.nodes[(1, (m,))]
            assert node.kind == "forcing"
            assert node.label.sigma == expansion.problem.forcings[m - 1].kappa.sigma

    def test_level_two_recursion(self, expansion):
        for m in (1, 2):
            node = expansion.nodes[(2, (m,))]
            assert node.kind == "algebraic"
            assert (1, (m,)) in expansion.nodes
            assert term_signature(node) == {(1, ((1, (m,)),)): Fraction(1)}

    def test_level_three_singletons(self, expansion):
        for m in (1, 2):
            node = expansion.nodes[(3, (m,))]
            assert (2, (m,)) in expansion.nodes
            assert term_signature(node) == {
                (1, ((2, (m,)),)): Fraction(1),
                (2, ((1, ()), (1, (m,)))): Fraction(1),
            }

    def test_level_three_pairs(self, expansion):
        for m in (1, 2):
            node = expansion.nodes[(3, (m, m))]
            assert (2, (m, m)) not in expansion.nodes
            assert term_signature(node) == {(2, ((1, (m,)), (1, (m,)))): Fraction(1, 2)}
            # effective prefactor 1 / (4 i kappa_m)
            kappa = expansion.problem.forcings[m - 1].kappa.value
            assert node.label.float_value == pytest.approx(2.0 * kappa)
        node12 = expansion.nodes[(3, (1, 2))]
        assert term_signature(node12) == {(2, ((1, (1,)), (1, (2,)))): Fraction(1)}

    def test_level_four_singletons(self, expansion):
        for m in (1, 2):
            node = expansion.nodes[(4, (m,))]
            assert (3, (m,)) in expansion.nodes
            assert term_signature(node) == {
                (1, ((3, (m,)),)): Fraction(1),
                (2, ((1, ()), (2, (m,)))): Fraction(1),
                (2, ((1, (m,)), (2, ()))): Fraction(1),
                (3, ((1, ()), (1, ()), (1, (m,)))): Fraction(1, 2),
            }

    def test_level_four_pairs(self, expansion):
        for m in (1, 2):
            node = expansion.nodes[(4, (m, m))]
            assert (3, (m, m)) in expansion.nodes
            assert term_signature(node) == {
                (1, ((3, (m, m)),)): Fraction(1),
                (2, ((1, (m,)), (2, (m,)))): Fraction(1),
                (3, ((1, ()), (1, (m,)), (1, (m,)))): Fraction(1, 2),
            }
        node12 = expansion.nodes[(4, (1, 2))]
        assert term_signature(node12) == {
            (1, ((3, (1, 2)),)): Fraction(1),
            (2, ((1, (1,)), (2, (2,)))): Fraction(1),
            (2, ((1, (2,)), (2, (1,)))): Fraction(1),
            (3, ((1, ()), (1, (1,)), (1, (2,)))): Fraction(1),
        }

    def test_level_four_triples(self, expansion):
        for m in (1, 2):
            node = expansion.nodes[(4, (m, m, m))]
            assert (3, (m, m, m)) not in expansion.nodes
            # weight 1/6 with sigma = 3 kappa_m gives the 1/(18 i kappa_m) factor
            assert term_signature(node) == {
                (3, ((1, (m,)), (1, (m,)), (1, (m,)))): Fraction(1, 6)
            }
        node112 = expansion.nodes[(4, (1, 1, 2))]
        assert term_signature(node112) == {
            (3, ((1, (1,)), (1, (1,)), (1, (2,)))): Fraction(1, 2)
        }

    def test_level_four_zero_node(self, expansion):
        node = expansion.nodes[(4, ())]
        assert node.kind == "ode"
        assert term_signature(node) == {
            (1, ((4, ()),)): Fraction(1),
            (2, ((1, ()), (3, ()))): Fraction(1),
            (2, ((2, ()), (2, ()))): Fraction(1, 2),
            (3, ((1, ()), (1, ()), (2, ()))): Fraction(1, 2),
            (4, ((1, ()), (1, ()), (1, ()), (1, ()))): Fraction(1, 24),
        }

    def test_frequency_closure(self, expansion):
        dimension = expansion.problem.basis.dimension
        for (r, tup), node in expansion.nodes.items():
            for term in node.terms:
                sigmas = [expansion.nodes[key].label.sigma for key in term.operands]
                assert fraction_sum(sigmas, dimension) == node.label.sigma


class TestWorkedExampleStructure:
    """Three frequencies with a vanishing triple sum."""

    @pytest.fixture
    def expansion(self, worked_expansion):
        return worked_expansion

    def test_pair_node_weights(self, expansion):
        node = expansion.nodes[(3, (1, 1))]
        assert term_signature(node) == {(2, ((1, (1,)), (1, (1,)))): Fraction(1, 2)}
        assert node.label.float_value == pytest.approx(2.0)
        node12 = expansion.nodes[(3, (1, 2))]
        assert term_signature(node12) == {(2, ((1, (1,)), (1, (2,)))): Fraction(1)}

    def test_zero_level_three_includes_triple_resonance(self, expansion):
        # kappa_1 + kappa_2 + kappa_3 = 0 feeds the zero node at level 3
        node = expansion.nodes[(3, ())]
        sig = term_signature(node)
        assert sig[(3, ((1, (1,)), (1, (2,)), (1, (3,))))] == Fraction(1)
        assert sig[(3, ((1, ()), (1, ()), (1, ())))] == Fraction(1, 6)
        assert sig[(2, ((1, ()), (2, ())))] == Fraction(1)
        assert sig[(1, ((3, ()),))] == Fraction(1)

    def test_level_three_singletons_structure(self, expansion):
        for m in (1, 2, 3):
            node = expansion.nodes[(3, (m,))]
            assert term_signature(node) == {
                (1, ((2, (m,)),)): Fraction(1),
                (2, ((1, ()), (1, (m,)))): Fraction(1),
            }


class TestMemristorStructure:
    @pytest.fixture
    def solved(self, memristor_solved):
        return memristor_solved

    def test_level_two_zero_node_terms(self, solved):
        sig = term_signature(solved.nodes[(2, ())])
        assert sig[(1, ((2, ()),))] == Fraction(1)
        assert sig[(2, ((1, ()), (1, ())))] == Fraction(1, 2)
        assert sig[(2, ((1, (1,)), (1, (2,))))] == Fraction(1)
        assert sig[(2, ((1, (3,)), (1, (4,))))] == Fraction(1)

    def test_forcing_values(self, solved):
        # fifth entry of p_(1,1) is (1/(i kappa_1)) (A b / (2 i)) = -A b / 2
        got = solved.coefficient_value(1, (1,), 0.7)
        assert np.allclose(got[:4], 0.0)
        assert got[4] == pytest.approx(-0.5, abs=1e-14)

    def test_level_two_singleton_values(self, solved):
        # fourth entry A b / (2 i) / (i kappa)^2, fifth entry -c A b / (2 i) / (i kappa)^2
        drive = 1.0 / 2j
        for m, kappa in ((1, 1.0), (2, -1.0), (3, SQRT2), (4, -SQRT2)):
            sign = 1.0 if m % 2 else -1.0
            got = solved.coefficient_value(2, (m,), 1.1)
            expect4 = sign * drive / (1j * kappa) ** 2
            assert got[3] == pytest.approx(expect4, abs=1e-13)
            assert got[4] == pytest.approx(0.0, abs=1e-13)  # c = 0

    def test_level_one_zero_initial_value(self, solved):
        got = solved.coefficient_value(1, (), 0.0)
        expect5 = 0.5 * (2.0 + SQRT2)  # (A b / 2)(2 + sqrt(2)) with A b = 1
        assert np.allclose(got[:4], 0.0, atol=1e-15)
        assert got[4] == pytest.approx(expect5, abs=1e-13)

    def test_level_two_zero_starts_at_zero(self, solved):
        assert np.allclose(solved.coefficient_value(2, (), 0.0), 0.0, atol=1e-13)

    def test_level_three_zero_initial_value(self, solved):
        got = solved.coefficient_value(3, (), 0.0)
        expect5 = 10.0 * (1.0 + 1.0 / (2.0 * SQRT2))  # A b^2 - c^2 A b, c = 0
        assert got[4] == pytest.approx(expect5, abs=1e-11)
        assert got[0] == pytest.approx(0.0, abs=1e-12)

    def test_initial_condition_identity(self, solved):
        for r in (1, 2, 3):
            total = solved.coefficient_value(r, (), 0.0).copy()
            for lab in solved.labels_at(r):
                if not lab.is_zero:
                    total += solved.coefficient_value(r, lab.canonical_tuple, 0.0)
            assert float(np.max(np.abs(total))) <= 1e-12

    def test_forcing_derivative_is_zero(self, solved):
        assert np.allclose(solved.coefficient_value(1, (1,), 0.9, order=1), 0.0)

    def test_base_derivative_is_field_value(self, solved):
        t = 1.7
        got = solved.coefficient_value(0, (), t, order=1)
        expect = solved.problem.field(solved.coefficient_value(0, (), t))
        assert np.allclose(got, expect, atol=1e-13)


# -- derivatives against finite differences -------------------------------------


def test_coefficient_derivative_matches_fd():
    reg = get_problem("memristor")
    ex = build_expansion(reg.problem, order=3)
    solve_nonoscillatory_chain(ex, t_end=3.0)
    h = 1e-4
    rng = np.random.default_rng(11)
    for r in (1, 2, 3):
        for lab in ex.labels_at(r):
            tup = lab.canonical_tuple
            for t in rng.uniform(0.2, 2.8, size=2):
                t = float(t)
                got = ex.coefficient_value(r, tup, t, order=1)
                fd = (
                    ex.coefficient_value(r, tup, t + h)
                    - ex.coefficient_value(r, tup, t - h)
                ) / (2 * h)
                scale = max(1e-8, float(np.max(np.abs(got))), float(np.max(np.abs(fd))))
                assert float(np.max(np.abs(got - fd))) / scale < 1e-6


def test_linear_coefficient_derivative_matches_fd():
    reg = get_problem("linear_example")
    ex = build_expansion(reg.problem, order=4)
    solve_nonoscillatory_chain(ex, t_end=5.0)
    h = 1e-4
    for r in (1, 2, 3, 4):
        for lab in ex.labels_at(r):
            tup = lab.canonical_tuple
            for t in (0.9, 3.3):
                got = ex.coefficient_value(r, tup, t, order=1)
                fd = (
                    ex.coefficient_value(r, tup, t + h)
                    - ex.coefficient_value(r, tup, t - h)
                ) / (2 * h)
                scale = max(1e-8, float(np.max(np.abs(got))), float(np.max(np.abs(fd))))
                assert float(np.max(np.abs(got - fd))) / scale < 1e-6


# -- brute-force equivalence ------------------------------------------------------


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def fraction_sum(sigmas, dimension):
    """Sum of coordinate tuples, added as plain ``Fraction``s."""
    total = (Fraction(0),) * dimension
    for sigma in sigmas:
        total = tuple(x + y for x, y in zip(total, sigma))
    return total


def _ordered_level_terms(chain, r, basis):
    """Level-r terms by the ordered enumeration: every ordered level split and
    operand choice with weight 1/n!, merged by sorted operands and grouped by
    the label of the next index set with the same frequency."""
    label_of = {lab.sigma: lab.canonical_tuple for lab in chain[r + 1].labels}
    groups = {}
    for n in range(1, r + 1):
        for levels in _compositions(r, n):
            for combo in itertools.product(*(chain[lev].labels for lev in levels)):
                sigma = fraction_sum([lab.sigma for lab in combo], basis.dimension)
                key = (n, tuple(sorted((lev, lab.canonical_tuple) for lev, lab in zip(levels, combo))))
                terms = groups.setdefault(label_of[sigma], {})
                terms[key] = terms.get(key, 0) + Fraction(1, math.factorial(n))
    return groups


@pytest.mark.parametrize("name, order", [("memristor", 4), ("worked_example", 5)])
def test_term_weights_match_ordered_enumeration(name, order):
    """Each multiset term carries exactly the merged weight of its orderings."""
    assert_terms_match_ordered_enumeration(get_problem(name).problem, order)


def fractional_problem(reals, coords):
    """Three constant channels at base frequencies with fractional coordinates."""
    basis = FrequencyBasis(reals)
    kappas = [BaseFrequency(m, basis, coords=c) for m, c in enumerate(coords, start=1)]
    field = polynomial_field(
        2,
        [{(0, 1): 1.0, (3, 0): -0.2, (1, 1): 0.1}, {(1, 0): -1.0, (2, 0): 0.2}],
        max_order=8,
    )
    forcings = [constant_amplitude(k, [0.4, 0.1 * k.index]) for k in kappas]
    return Problem(field, forcings, y0=[0.15, -0.1], basis=basis)


@pytest.mark.parametrize(
    "reals, coords",
    [
        ([1.0, SQRT2], [("1/2", 0), ("1/3", 1), ("-5/6", -1)]),
        ([1.0], [("1/4",), ("1/6",), ("-1",)]),
    ],
)
def test_fractional_coordinates_match_ordered_enumeration(reals, coords):
    """The integer frequency keys group terms as exact rational sums do."""
    assert_terms_match_ordered_enumeration(fractional_problem(reals, coords), 4)


def assert_terms_match_ordered_enumeration(problem, order):
    ex = build_expansion(problem, order=order)
    for r in range(1, order + 1):
        oracle = _ordered_level_terms(ex.index_sets, r, problem.basis)
        assert term_signature(ex.nodes[(r, ())]) == oracle.get((), {})
        if r + 1 > order:
            continue
        for lab in ex.labels_at(r + 1):
            if not lab.is_zero:
                assert term_signature(ex.nodes[(r + 1, lab.canonical_tuple)]) == oracle.get(
                    lab.canonical_tuple, {}
                )


@st.composite
def resonant_problems(draw):
    """2-4 distinct base frequencies with small integer coordinates over a
    basis of 1-2 reals, the first two a resonant pair (kappa, -kappa), and a
    build order of 1-4."""
    dimension = draw(st.integers(min_value=1, max_value=2))
    coordinate = st.tuples(*[st.integers(-3, 3)] * dimension).filter(any)
    first = draw(coordinate)
    pair = [first, tuple(-c for c in first)]
    rest = draw(
        st.lists(
            coordinate.filter(lambda c: c not in pair), min_size=0, max_size=2, unique=True
        )
    )
    basis = FrequencyBasis([1.0, SQRT2][:dimension])
    kappas = [BaseFrequency(m, basis, coords=c) for m, c in enumerate(pair + rest, start=1)]
    field = polynomial_field(2, [{(0, 1): 1.0, (2, 1): 0.1}, {(1, 0): -1.0}], max_order=4)
    forcings = [constant_amplitude(k, [0.3, 0.1 * k.index]) for k in kappas]
    problem = Problem(field, forcings, y0=[0.1, 0.0], basis=basis)
    return problem, draw(st.integers(min_value=1, max_value=4))


@settings(max_examples=40, deadline=None)
@given(resonant_problems())
def test_term_assembly_matches_ordered_enumeration(problem_and_order):
    """Every level's grouped terms, the top level's zero group included,
    equal the ordered enumeration, which sums frequencies as Fractions and
    neither draws operand multisets nor uses an integer key."""
    problem, order = problem_and_order
    assert_terms_match_ordered_enumeration(problem, order)
    if order >= 2:
        # the resonant pair gives the top zero group a term with no zero operand
        top = build_expansion(problem, order=order).nodes[(order, ())].terms
        assert any(all(tup for _, tup in term.operands) for term in top)


# worked_example builds: (Terms made, Fraction frequencies made) per order
WORKED_BUILD_COUNTS = {5: (236, 42), 6: (690, 60), 7: (1954, 81), 8: (5377, 105)}


@pytest.mark.parametrize("order", sorted(WORKED_BUILD_COUNTS))
def test_build_makes_only_the_terms_and_frequencies_it_keeps(order, monkeypatch):
    """Every Term made ends up in a node, and a Fraction frequency is made
    only for a new label: sums and lookups use the integer keys."""
    made = {"terms": 0, "sigmas": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            made[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(expansion_module, "Term", counting("terms", expansion_module.Term))
    key_sigma = counting("sigmas", freq_algebra_module._FrequencyKey.sigma)
    monkeypatch.setattr(freq_algebra_module._FrequencyKey, "sigma", key_sigma)
    ex = build_expansion(get_problem("worked_example").problem, order=order)
    held = sum(len(node.terms) for node in ex.nodes.values())
    assert (made["terms"], made["sigmas"]) == WORKED_BUILD_COUNTS[order]
    assert held == made["terms"]
    # one per label new since level 2, which equals level 1
    assert made["sigmas"] == len(ex.index_sets[-1]) - len(ex.index_sets[2])


def test_frequency_missing_from_the_next_set_is_an_error_at_the_top_too():
    """Term assembly looks every multiset up, also where it keeps only p_R0."""
    problem = get_problem("worked_example").problem
    chain = freq_algebra_module.build_index_chain(problem.basis, problem.kappas, 4)
    stale = chain[:4] + [chain[3]]  # level 3's set where level 4's belongs
    multisets = freq_algebra_module.OperandMultisets(stale, problem.basis, problem.kappas)
    for top in (False, True):
        with pytest.raises(AssertionError, match=r"level-3 term frequency 3 missing from"):
            expansion_module._level_terms(multisets, 3, top=top)


# SHA-256 of dump_expansion for worked_example, built and not solved
WORKED_DUMP_SHA256 = {
    5: "5d25ee7353f4d367fa43f6e4ed4a45239355f00582fcf69d4ddc56539917b062",
    6: "a03fa8bb8762b4c1b92ed744fc4c8819648dc0d16ef73eb4da9089d186f1e016",
    7: "43b1f06fc17caa8078148fe9eda20aead65da8c9960138da3150f78f77915622",
    8: "30c9f1fa52c67dffd05997ad43b2b981eb234d208983a0b700e9debf5be347e6",
}


@pytest.mark.parametrize("order", sorted(WORKED_DUMP_SHA256))
def test_worked_example_dump_is_unchanged(order):
    ex = build_expansion(get_problem("worked_example").problem, order=order)
    assert hashlib.sha256(dump_expansion(ex).encode()).hexdigest() == WORKED_DUMP_SHA256[order]


def test_assembled_rhs_matches_raw_enumeration():
    """Merged term lists reproduce the raw ordered sum with weights 1/n!."""
    problem = two_frequency_problem()
    ex = build_expansion(problem, order=3)
    solve_nonoscillatory_chain(ex, t_end=1.0)
    basis = problem.basis
    field = problem.field
    rng = np.random.default_rng(12)

    for r in (1, 2, 3):
        # raw enumeration, bucketed by exact frequency
        for t in rng.uniform(0.1, 0.9, size=3):
            t = float(t)
            base = ex.coefficient_value(0, (), t)
            raw = {}
            for n in range(1, r + 1):
                w = 1.0 / math.factorial(n)
                for levels in _compositions(r, n):
                    pools = [ex.index_sets[lev].labels for lev in levels]
                    for combo in itertools.product(*pools):
                        sigma = fraction_sum([lab.sigma for lab in combo], basis.dimension)
                        dirs = [
                            ex.coefficient_value(lev, lab.canonical_tuple, t)
                            for lev, lab in zip(levels, combo)
                        ]
                        val = w * field.apply(n, base, dirs)
                        key = basis.sigma_string(sigma)
                        raw[key] = raw.get(key, 0.0) + val
            # assembled: zero node terms at level r and algebraic nodes at r + 1
            assembled = {}
            zero_node = ex.nodes[(r, ())]
            total = np.zeros(problem.dimension, dtype=complex)
            for term in zero_node.terms:
                dirs = [ex.coefficient_value(lev, tup, t) for lev, tup in term.operands]
                total = total + complex(term.weight) * field.apply(len(term.operands), base, dirs)
            assembled["0"] = total
            if r + 1 <= ex.order:
                for lab in ex.labels_at(r + 1):
                    if lab.is_zero:
                        continue
                    node = ex.nodes[(r + 1, lab.canonical_tuple)]
                    total = np.zeros(problem.dimension, dtype=complex)
                    for term in node.terms:
                        dirs = [ex.coefficient_value(lv, tp, t) for lv, tp in term.operands]
                        total = total + complex(term.weight) * field.apply(len(term.operands), base, dirs)
                    assembled[basis.sigma_string(lab.sigma)] = total
            for key, val in assembled.items():
                raw_val = raw.get(key, np.zeros(problem.dimension, dtype=complex))
                scale = max(1.0, float(np.max(np.abs(raw_val))))
                assert float(np.max(np.abs(val - raw_val))) / scale < 1e-12


# -- evaluation -------------------------------------------------------------------


def test_truncation_s_zero_is_base_trajectory():
    reg = get_problem("worked_example")
    ex = build_expansion(reg.problem, order=2)
    solve_nonoscillatory_chain(ex, t_end=2.0)
    t = 1.3
    assert np.allclose(
        ex.evaluate_truncated(t, 500.0, 0), ex.coefficient_value(0, (), t)
    )


def test_truncation_error_scale_linear_example():
    from oscillode.linear_closed_form import exact_linear_solution

    reg = get_problem("linear_example")
    ex = build_expansion(reg.problem, order=4)
    grid = np.linspace(0.0, 5.0, 65)
    solve_nonoscillatory_chain(ex, t_end=5.0, tol=1e-13, knots=grid)
    omega = 500.0
    sol = exact_linear_solution(reg.linear, omega)
    worst = max(
        float(np.max(np.abs(sol(float(t)) - ex.evaluate_truncated(float(t), omega, 4))))
        for t in grid
    )
    # empirical constant ~30 over omega^-5 for this problem; allow 10x headroom
    assert worst < 300.0 * omega**-5
    assert worst > 1e-3 * omega**-5


# -- error handling ----------------------------------------------------------------


def test_small_denominator_propagates():
    basis = FrequencyBasis([1.0, 1.0 - 1e-12], names=("1", "c"))
    kappas = [
        BaseFrequency(1, basis, coords=(1, 0)),
        BaseFrequency(2, basis, coords=(0, -1)),
    ]
    field = polynomial_field(1, [{(2,): 1.0}], max_order=6)
    problem = Problem(
        field,
        [
            constant_amplitude(kappas[0], [1.0]),
            constant_amplitude(kappas[1], [1.0]),
        ],
        y0=[0.1],
        basis=basis,
    )
    with pytest.raises(SmallDenominatorError):
        build_expansion(problem, order=3)


def test_a_zero_base_frequency_is_named_by_the_build():
    """2*b1 - b2 is zero on the basis (1, 2); a level-1 coefficient would
    divide by it."""
    basis = FrequencyBasis([1.0, 2.0])
    kappas = [
        BaseFrequency(1, basis, coords=(2, -1)),
        BaseFrequency(2, basis, coords=(1, 0)),
    ]
    field = polynomial_field(1, [{(2,): 1.0}], max_order=2)
    problem = Problem(
        field, [constant_amplitude(k, [1.0]) for k in kappas], y0=[0.1], basis=basis
    )
    with pytest.raises(SmallDenominatorError, match=r"^base frequency 2\*b1-b2 ~ 0\.000e\+00"):
        build_expansion(problem, order=1)


def test_a_negative_order_is_named():
    with pytest.raises(ValueError, match=r"^order=-1 must be a nonnegative integer$"):
        build_expansion(get_problem("worked_example").problem, order=-1)


def test_unsupported_field_order():
    reg = get_problem("memristor")
    with pytest.raises(UnsupportedOrder):
        build_expansion(reg.problem, order=5)


def test_unsupported_forcing_order():
    basis = FrequencyBasis([1.0], names=("1",))
    kappa = BaseFrequency(1, basis, coords=(1,))
    field = linear_field(np.array([[0.0]]), max_order=8)
    amp = constant_amplitude(kappa, [1.0])
    amp.max_derivative_order = 1
    problem = Problem(field, [amp], y0=[0.0], basis=basis)
    with pytest.raises(UnsupportedOrder):
        build_expansion(problem, order=4)


def test_unsolved_chain_raises():
    reg = get_problem("worked_example")
    ex = build_expansion(reg.problem, order=1)
    with pytest.raises(OutOfDomain):
        ex.coefficient_value(0, (), 0.5)


def test_out_of_domain_after_solve():
    reg = get_problem("worked_example")
    ex = build_expansion(reg.problem, order=1)
    solve_nonoscillatory_chain(ex, t_end=1.0)
    with pytest.raises(OutOfDomain):
        ex.evaluate_truncated(1.5, 100.0, 1)


def test_evaluate_truncated_rejects_negative_level(memristor_solved):
    with pytest.raises(ValueError, match="s=-1"):
        memristor_solved.evaluate_truncated(1.0, 300.0, -1)


@pytest.mark.parametrize("omega", [0.0, -300.0, math.inf, math.nan])
def test_evaluate_truncated_rejects_bad_omega(memristor_solved, omega):
    with pytest.raises(ValueError, match=f"omega={omega!r}"):
        memristor_solved.evaluate_truncated(1.0, omega, 1)


@pytest.mark.parametrize("r, label", [(1, (1,)), (2, (1,))], ids=["forcing", "algebraic"])
def test_coefficient_derivative_rejects_negative_order(memristor_solved, r, label):
    with pytest.raises(ValueError, match="order=-1"):
        memristor_solved.coefficient_value(r, label, 1.0, order=-1)


@pytest.mark.parametrize("order", [0.5, 1.5, math.inf, math.nan])
def test_coefficient_derivative_rejects_a_fractional_order(memristor_solved, order):
    with pytest.raises(ValueError, match=f"order={order!r} must be a nonnegative integer"):
        memristor_solved.coefficient_value(1, (1,), 0.5, order=order)


def test_duplicate_frequencies_rejected():
    basis = FrequencyBasis([1.0], names=("1",))
    k1 = BaseFrequency(1, basis, coords=(1,))
    k2 = BaseFrequency(2, basis, coords=(1,))
    field = linear_field(np.array([[0.0]]))
    with pytest.raises(ValueError):
        Problem(
            field,
            [constant_amplitude(k1, [1.0]), constant_amplitude(k2, [1.0])],
            y0=[0.0],
            basis=basis,
        )


def test_dump_expansion_mentions_key_structure():
    reg = get_problem("worked_example")
    ex = build_expansion(reg.problem, order=3)
    solve_nonoscillatory_chain(ex, t_end=1.0)
    text = dump_expansion(ex)
    assert "node r=3 m=(1, 1) sigma=2" in text
    assert "1/2 f2[p(1,1), p(1,1)]" in text
    assert "prefactor: 1/(i*(2))" in text
    assert "ic value:" in text


def test_every_operand_is_a_node_key():
    ex = build_expansion(get_problem("worked_example").problem, order=5)
    operands = {op for node in ex.nodes.values() for term in node.terms for op in term.operands}
    assert len(operands) > 1
    assert operands <= ex.nodes.keys()


def test_level_zero_is_the_zero_label_alone(memristor_solved):
    ex = memristor_solved
    assert ex.labels_at(0) == [ex.nodes[(0, ())].label]
    table = ex.table([0.0, 0.5])
    assert table.sigmas[0].tolist() == [0.0]
    assert [len(sigmas) for sigmas in table.sigmas] == [
        len(ex.labels_at(r)) for r in range(ex.order + 1)
    ]


def test_a_solve_keeps_its_initial_values_only_in_the_chain_solution():
    ex = build_expansion(get_problem("worked_example").problem, order=3)
    solve_nonoscillatory_chain(ex, t_end=1.0)
    want = []
    for r in range(ex.order + 1):
        node = ex.nodes[(r, ())]
        assert not hasattr(node, "initial_value")
        vals = ", ".join("%.12g%+.12gj" % (z.real, z.imag) for z in node.solution.ys[0])
        want.append(f"  ic value: [{vals}]")
    lines = dump_expansion(ex).splitlines()
    assert [line for line in lines if line.startswith("  ic value: ")] == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, 0.0)])
def test_problem_rejects_a_non_finite_initial_state(bad):
    basis = FrequencyBasis([1.0], names=("1",))
    forcing = constant_amplitude(BaseFrequency(1, basis, coords=(1,)), [1.0, 0.0])
    with pytest.raises(ValueError, match=r"y0\[1\]=.* is not finite"):
        Problem(linear_field(np.eye(2)), [forcing], y0=[0.0, bad], basis=basis)


class _NeedsCode(Exception):
    """An error type whose constructor takes more than a message."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def test_chain_error_keeps_original_exception():
    reg = get_problem("worked_example")
    base = reg.problem.field

    def evaluate(y):
        raise _NeedsCode("field blew up", code=7)

    fld = VectorField(base.dimension, evaluate, base.jet, base.max_order)
    problem = Problem(fld, reg.problem.forcings, reg.problem.y0, reg.problem.basis)
    ex = build_expansion(problem, order=1)
    with pytest.raises(_NeedsCode) as info:
        solve_nonoscillatory_chain(ex, t_end=1.0)
    assert info.value.code == 7
    assert str(info.value) == "field blew up"
    assert info.value.__notes__ == ["while solving node (r=0, m=0)"]


def test_a_chain_error_between_calls_is_named_by_every_level():
    # the field turns NaN once y passes 2; the integrator raises after the
    # right-hand side has returned, when no level is being worked on
    basis = FrequencyBasis([1.0], names=("1",))
    linear = linear_field(np.eye(1), max_order=4)
    fld = VectorField(1, lambda y: np.where(abs(y) > 2.0, np.nan, y), linear.jet, 4)
    forcing = constant_amplitude(BaseFrequency(1, basis, coords=(1,)), [1.0])
    ex = build_expansion(Problem(fld, [forcing], y0=[1.0], basis=basis), order=2)
    with pytest.raises(NonFiniteRHS) as info:
        solve_nonoscillatory_chain(ex, t_end=2.0)
    assert info.value.__notes__ == ["while solving nodes (r=0..2, m=0)"]


@pytest.mark.filterwarnings("default::RuntimeWarning")  # as a user runs it
def test_a_non_finite_chain_initial_value_is_named_by_its_level():
    # the amplitude is infinite at t = 0, so level 1's oscillatory values
    # there, and so level 1's initial value, are not finite
    basis = FrequencyBasis([1.0], names=("1",))

    def amplitude(j, t):
        return np.array([1.0, math.inf if t == 0.0 else 1.0], dtype=complex)

    forcing = ForcingTerm(BaseFrequency(1, basis, coords=(1,)), amplitude)
    problem = Problem(linear_field(-np.eye(2), max_order=4), [forcing], y0=[1.0, 0.5],
                      basis=basis)
    ex = build_expansion(problem, order=2)
    with pytest.raises(ValueError, match=r"^the level-1 initial value is not finite: "
                       r"component 1 is \(nan\+infj\)") as info:
        solve_nonoscillatory_chain(ex, t_end=1.0)
    assert info.value.__notes__ == ["while solving node (r=1, m=0)"]


def _one_channel_inputs(index=1, y0=(0.0, 0.0), forcings=None):
    basis = FrequencyBasis([1.0], names=("1",))
    kappa = BaseFrequency(index, basis, coords=(1,))
    if forcings is None:
        forcings = [constant_amplitude(kappa, [1.0, 0.0])]
    return linear_field(np.eye(2)), forcings, list(y0), basis


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Problem(*_one_channel_inputs(forcings=[])), ValueError,
         "at least one forcing channel required"),
        (lambda: Problem(*_one_channel_inputs(y0=(0.0,))), ValueError,
         "initial state dimension mismatch"),
        (lambda: Problem(*_one_channel_inputs(index=2)), ValueError,
         "forcing at position 1 carries base-frequency index 2; indices must be 1..M in order"),
        (lambda: ForcingTerm(None, lambda j, t: [1.0], max_derivative_order=1).derivative(2, 0.0),
         UnsupportedOrder, "amplitude derivative of order 2 requested but only 1 supported"),
    ],
    ids=["no_forcings", "y0_length", "index_out_of_place", "forcing_derivative_order"],
)
def test_problem_and_forcing_inputs_are_checked(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_problem_rejects_amplitude_dimension_mismatch():
    basis = FrequencyBasis([1.0], names=("1",))
    kappa = BaseFrequency(1, basis, coords=(1,))
    field = linear_field(np.eye(2))
    with pytest.raises(ValueError, match="forcing 1 amplitude has shape"):
        Problem(field, [constant_amplitude(kappa, [1.0, 0.0, 0.0])], y0=[0.0, 0.0], basis=basis)
    with pytest.raises(ValueError, match="forcing 1 amplitude has shape"):
        Problem(field, [polynomial_amplitude(kappa, [[1.0], [2.0]])], y0=[0.0, 0.0], basis=basis)


@pytest.mark.parametrize(
    "name, order", [("memristor", 3), ("linear_example", 4), ("worked_example", 3)]
)
def test_declared_sparsity_gives_the_same_expansion_with_fewer_calls(name, order, monkeypatch):
    # the same field and amplitudes with no reads or support declared: the
    # plans keep every term, and the terms they drop are exact zeros
    reg = get_problem(name)
    base = reg.problem.field
    plain_field = VectorField(base.dimension, base.evaluate, base.jet, base.max_order)
    plain_forcings = [
        ForcingTerm(f.kappa, f.amplitude_derivative, f.max_derivative_order)
        for f in reg.problem.forcings
    ]
    counted = {}
    original = VectorField.apply

    def apply(self, n, y, directions):
        counted[id(self)] = counted.get(id(self), 0) + 1
        return original(self, n, y, directions)

    monkeypatch.setattr(VectorField, "apply", apply)
    built = []
    for fld, forcings in ((base, reg.problem.forcings), (plain_field, plain_forcings)):
        problem = Problem(fld, forcings, reg.problem.y0, reg.problem.basis)
        ex = build_expansion(problem, order=order)
        solve_nonoscillatory_chain(ex, t_end=1.0)
        table = ex.table(np.linspace(0.0, 1.0, 7))
        built.append((ex, [table.evaluate(omega, order) for omega in (150.0, 2000.0)]))
    (declared, declared_sums), (plain, plain_sums) = built
    for attribute in ("ts", "ys", "dense"):
        assert np.array_equal(
            getattr(declared.chain_solution, attribute), getattr(plain.chain_solution, attribute)
        )
    assert np.array_equal(declared_sums, plain_sums)
    assert counted[id(base)] < counted[id(plain_field)]


def test_a_wrong_forcing_support_is_rejected_at_build():
    reg = get_problem("memristor")
    forcings = reg.problem.forcings
    # the amplitudes are nonzero in component 4, but the declaration says nowhere
    undeclared, wrong = (
        [
            ForcingTerm(f.kappa, f.amplitude_derivative, f.max_derivative_order, support)
            for f in forcings
        ]
        for support in (None, lambda j: [])
    )
    dumps = []
    for fcs in (forcings, undeclared):
        problem = Problem(reg.problem.field, fcs, reg.problem.y0, reg.problem.basis)
        dumps.append(dump_expansion(build_expansion(problem, order=3)))
    assert dumps[0] == dumps[1]
    problem = Problem(reg.problem.field, wrong, reg.problem.y0, reg.problem.basis)
    with pytest.raises(
        ValueError, match=r"forcing 1's amplitude derivative of order 0 is nonzero at t=0\.0 in component 4"
    ):
        build_expansion(problem, order=3)
    # a + b t claims a zero first derivative: caught at order 1, which only
    # a build of two or more levels reads
    basis = FrequencyBasis([1.0], names=("1",))
    ramp = polynomial_amplitude(BaseFrequency(1, basis, coords=(1,)), [[1.0, 0.0], [0.0, 2.0]])
    ramp.support = lambda j: [0, 1] if j == 0 else []
    problem = Problem(linear_field(np.eye(2)), [ramp], y0=[0.0, 0.0], basis=basis)
    build_expansion(problem, order=1)
    with pytest.raises(ValueError, match=r"forcing 1's amplitude derivative of order 1 .* in component 1"):
        build_expansion(problem, order=2)


# -- the coupled chain solve ---------------------------------------------------------


@pytest.mark.parametrize(
    "make_problem, order",
    [(lambda: get_problem("memristor").problem, 3), (two_frequency_problem, 3)],
    ids=["memristor", "two_frequency"],
)
def test_chain_levels_share_one_step_sequence_and_match_their_derivatives(make_problem, order):
    ex = build_expansion(make_problem(), order=order)
    attributes = set(vars(ex))
    solve_nonoscillatory_chain(ex, t_end=1.0)
    solutions = [ex.nodes[(r, ())].solution for r in range(order + 1)]
    # one integration for every level, and nothing cached by the solve: it
    # fills in attributes the build already made, and adds none
    assert all(sol.ts is solutions[0].ts for sol in solutions)
    assert set(vars(ex)) == attributes
    # the chain's right-hand side at every stored node is each level's derivative
    system = expansion_module._ChainSystem(ex)
    chain = ex.chain_solution
    rates = np.array([system(t, y) for t, y in zip(chain.ts, chain.ys)])
    for r, sol in enumerate(solutions):
        want = np.array([ex.coefficient_value(r, (), t, order=1) for t in sol.ts])
        scale = max(float(np.max(np.abs(want))), 1e-300)
        got = rates[:, r * ex.problem.dimension : (r + 1) * ex.problem.dimension]
        assert float(np.max(np.abs(got - want))) <= 1e-10 * scale


def test_memristor_chain_on_its_knots_is_not_slowed_by_them():
    # each of the 128 knot cuts used to cap the next step at five times the
    # cut piece: 3776 right-hand-side calls against 3479 now
    ex = build_expansion(get_problem("memristor").problem, order=3)
    solve_nonoscillatory_chain(ex, t_end=3.0, knots=np.linspace(0.0, 3.0, 129))
    assert ex.chain_solution.n_rhs_evals <= 3550


def test_memristor_chain_holds_its_dense_output_once():
    # each step's interpolant is kept as made, so the solve's traced peak
    # stays near the bytes it keeps; a copy of the dense output would double it
    problem = get_problem("memristor").problem
    knots = np.linspace(0.0, 3.0, 129)
    solve_nonoscillatory_chain(build_expansion(problem, order=3), t_end=0.5)  # warm-up
    ex = build_expansion(problem, order=3)
    tracemalloc.start()
    try:
        solve_nonoscillatory_chain(ex, t_end=3.0, knots=knots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chain = ex.chain_solution
    kept = sum(a.nbytes for a in (chain.ts, chain.ys, *chain.dense))
    assert peak < 1.5 * kept, (peak, kept)


def test_chain_error_names_the_level_that_raised():
    reg = get_problem("memristor")
    first = reg.problem.forcings[0]

    def amplitude_derivative(j, t):
        if t > 0.5:
            raise _NeedsCode("amplitude undefined past t=0.5", code=3)
        return first.amplitude_derivative(j, t)

    # no support declared: the plan keeps every amplitude derivative, so the
    # chain reads the one that raises
    forcings = [
        ForcingTerm(first.kappa, amplitude_derivative, first.max_derivative_order),
        *(
            ForcingTerm(f.kappa, f.amplitude_derivative, f.max_derivative_order)
            for f in reg.problem.forcings[1:]
        ),
    ]
    problem = Problem(reg.problem.field, forcings, reg.problem.y0, reg.problem.basis)
    ex = build_expansion(problem, order=2)
    with pytest.raises(_NeedsCode) as info:
        solve_nonoscillatory_chain(ex, t_end=1.0)
    assert info.value.code == 3
    assert info.value.__notes__ == ["while solving node (r=2, m=0)"]


@pytest.fixture(scope="module")
def linear_chain():
    reg = get_problem("linear_example")
    ex = build_expansion(reg.problem, order=4)
    solve_nonoscillatory_chain(ex, t_end=5.0)
    return reg, ex


def test_chain_makes_one_call_per_stage_and_accepted_step(linear_chain):
    _, ex = linear_chain
    sol = ex.chain_solution
    accepted = len(sol.ts) - 1
    assert accepted < sol.n_steps  # some steps were rejected
    # eleven new stages per attempted step; an accepted one adds its end
    # derivative and the three stages of its dense output
    assert sol.n_rhs_evals == 1 + 11 * sol.n_steps + 4 * accepted
    # one interpolant of the stacked state per accepted step
    assert len(sol.dense) == accepted
    assert all(step.shape == (7, sol.ys.shape[1]) for step in sol.dense)
    # a level's view keeps its step ends and counts, and no interpolant
    for r in range(ex.order + 1):
        level = ex.nodes[(r, ())].solution
        assert level.dense is None
        assert level.ts is sol.ts
        assert (level.n_steps, level.n_rhs_evals) == (sol.n_steps, sol.n_rhs_evals)


def test_linear_off_knot_error_against_closed_form(linear_chain):
    reg, ex = linear_chain
    omega, s = 1000.0, 4
    exact = exact_linear_solution(reg.linear, omega)
    points = np.random.default_rng(20240601).uniform(0.0, 5.0, 1024)
    worst = max(
        float(np.max(np.abs(ex.evaluate_truncated(float(t), omega, s) - exact(float(t)))))
        for t in points
    )
    assert worst <= 5e-12


def test_polynomial_amplitude_matches_its_power_sum():
    coeffs = np.array([[0.3, -1.0j], [2.0, 0.5], [-0.7j, 1.5], [0.25, -2.0]])
    amp = polynomial_amplitude(None, coeffs)
    for j in range(6):
        for t in (0.0, 0.37, 2.5, -1.2):
            want = sum(
                coeffs[p] * math.perm(p, j) * t ** (p - j) for p in range(j, coeffs.shape[0])
            ) + np.zeros(2, dtype=complex)
            got = amp.derivative(j, t)
            assert got.shape == (2,)
            assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
            if t == 0.0:
                assert np.array_equal(got, want)
