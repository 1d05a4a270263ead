"""Built-in problems and config-file loading.

Vector fields and their differentials are registered in code; config files
only carry the numeric skeleton of a problem (dimension, frequency basis,
frequency coordinates, initial state, horizon) plus the name of a registered
field bundle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .deriv_engine import (
    VectorField,
    constant_amplitude,
    linear_field,
    polynomial_amplitude,
    polynomial_field,
)
from .expansion import Problem
from .freq_algebra import BaseFrequency, FrequencyBasis
from .linear_closed_form import LinearForcing, LinearProblem
from .ode_core import _nonnegative_integer

__all__ = [
    "RegisteredProblem",
    "memristor_field",
    "get_problem",
    "problem_names",
    "register_field_bundle",
    "load_problem_config",
]

SQRT2 = math.sqrt(2.0)


# -- memristor circuit field ----------------------------------------------------

# Two-memristor circuit: components 1 and 5 are linear, 2 and 4 are a linear
# voltage difference times a rational function of y2, component 3 adds a
# bilinear y3 * (quadratic in y1) piece.  The circuit's constants a..e, and
# the amplitude of the voltage source that drives it:
_A, _B, _C, _D, _E = 8.0, 10.0, 0.0, 2.0, 0.1
_DRIVE = 0.1


def _reciprocal_derivs(x, e):
    """Derivatives through order 4 of 1 / ((1 + e) + 3 e x^2), in plain
    Python complex arithmetic whatever the type of x."""
    x = complex(x)
    den = (1.0 + e) + 3.0 * e * x * x
    d1 = 6.0 * e * x
    d2 = 6.0 * e
    g0 = 1.0 / den
    g1 = -d1 / den**2
    g2 = 2.0 * d1**2 / den**3 - d2 / den**2
    g3 = -6.0 * d1**3 / den**4 + 6.0 * d1 * d2 / den**3
    g4 = 24.0 * d1**4 / den**5 - 36.0 * d1**2 * d2 / den**4 + 6.0 * d2**2 / den**3
    return (g0, g1, g2, g3, g4)


def _window_recip_derivs(x, g):
    """Derivatives through order 4 of (1 + 3 x^2) g(x), given g's derivatives.

    The n-th is 0.0 plus C(n, k) w^(k) g^(n-k) for k = 0, 1, 2 in turn,
    where w = 1 + 3 x^2.
    """
    w0, w1, w2 = 1.0 + 3.0 * x * x, 6.0 * x, 6.0
    g0, g1, g2, g3, g4 = g
    return (
        0.0 + 1 * w0 * g0,
        0.0 + 1 * w0 * g1 + 1 * w1 * g0,
        0.0 + 1 * w0 * g2 + 2 * w1 * g1 + 1 * w2 * g0,
        0.0 + 1 * w0 * g3 + 3 * w1 * g2 + 3 * w2 * g1,
        0.0 + 1 * w0 * g4 + 4 * w1 * g3 + 6 * w2 * g2,
    )


def _direction_products(comps):
    """Product of all the components, and for each i of all but the i-th.

    Each product runs left to right from 1.0; the one without the i-th
    continues the product of the first i.
    """
    prefix = [1.0]
    for v in comps:
        prefix.append(prefix[-1] * v)
    rests = []
    for i in range(len(comps)):
        rest = prefix[i]
        for v in comps[i + 1 :]:
            rest = rest * v
        rests.append(rest)
    return prefix[-1], rests


def memristor_field():
    """The five-state memristor circuit field with differentials to order 4.

    With g = 1 / ((1 + e) + 3 e y2^2) and h = (1 + 3 y2^2) g, the rows are
    y3, (y4 - y3) g, a y3 phi(y1) - a (y3 - y4) h, (y3 - y4) h + y5 and
    -b y4 - c y5, where phi(y1) = d - (1 + 3 y1^2) and a..e are the
    module's circuit constants.  ``evaluate`` and a point unpack y into
    plain Python complex numbers, which cost less per operation than numpy
    scalars; a point also holds the derivatives of g, h and phi at its y2
    and y1, each already multiplied by the linear factor it meets.  Orders
    1 and 2 take closed forms that make the general formula's products and
    sums in its order, so every order gives the same bits as the general
    formula.
    """
    # locals, so the closures below read them as cell variables
    a, b, c, d, e = _A, _B, _C, _D, _E

    def evaluate(y):
        y1, y2, y3, y4, y5 = np.asarray(y).tolist()
        g = 1.0 / ((1.0 + e) + 3.0 * e * y2 * y2)
        h = (1.0 + 3.0 * y2 * y2) * g
        return np.array(
            [
                y3,
                (y4 - y3) * g,
                a * y3 * (d - (1.0 + 3.0 * y1 * y1)) - a * (y3 - y4) * h,
                (y3 - y4) * h + y5,
                -b * y4 - c * y5,
            ],
            dtype=complex,
        )

    def jet(y):
        y1, y2, y3, y4, _ = np.asarray(y).tolist()
        g = _reciprocal_derivs(y2, e)
        h = _window_recip_derivs(y2, g)
        phi = (d - (1.0 + 3.0 * y1 * y1), -6.0 * y1, -6.0, 0.0, 0.0)
        # Rows 2, 3 and 4 are sums of L(y) s(y_k) with L linear.  Their n-th
        # differential is L(y) s^(n) prod_i v_ik plus, for each i,
        # (grad L . v_i) s^(n-1) prod_(j != i) v_jk.  The L(y) s^(n) factors:
        lg = [(y4 - y3) * gn for gn in g]
        lh = [(y3 - y4) * hn for hn in h]  # the (y3 - y4) h part of rows 3 and 4
        lphi = [y3 * pn for pn in phi]

        def differential_at(n, directions):
            if n == 1:
                v1, v2, v3, v4, v5 = np.asarray(directions[0]).tolist()
                prod1, prod2 = 1.0 * v1, 1.0 * v2
                row2 = lg[1] * prod2 + (v4 - v3) * g[0] * 1.0
                window = lh[1] * prod2 + (v3 - v4) * h[0] * 1.0
                cubic = lphi[1] * prod1 + v3 * phi[0] * 1.0
                row5 = -b * v4 - c * v5
                return np.array([v3, row2, a * cubic - a * window, window + v5, row5], dtype=complex)
            if n == 2:
                u1, u2, u3, u4, _ = np.asarray(directions[0]).tolist()
                v1, v2, v3, v4, _ = np.asarray(directions[1]).tolist()
                prod1, prod2 = 1.0 * u1 * v1, 1.0 * u2 * v2
                row2 = lg[2] * prod2 + (u4 - u3) * g[1] * (1.0 * v2) + (v4 - v3) * g[1] * (1.0 * u2)
                window = lh[2] * prod2 + (u3 - u4) * h[1] * (1.0 * v2) + (v3 - v4) * h[1] * (1.0 * u2)
                cubic = lphi[2] * prod1 + u3 * phi[1] * (1.0 * v1) + v3 * phi[1] * (1.0 * u1)
                return np.array([0.0, row2, a * cubic - a * window, window, 0.0], dtype=complex)
            comps = [np.asarray(dirn).tolist() for dirn in directions]
            prod1, rests1 = _direction_products([v[0] for v in comps])
            prod2, rests2 = _direction_products([v[1] for v in comps])
            row2 = lg[n] * prod2
            window = lh[n] * prod2
            cubic = lphi[n] * prod1
            for v, rest1, rest2 in zip(comps, rests1, rests2):
                row2 = row2 + (v[3] - v[2]) * g[n - 1] * rest2
                window = window + (v[2] - v[3]) * h[n - 1] * rest2
                cubic = cubic + v[2] * phi[n - 1] * rest1
            return np.array([0.0, row2, a * cubic - a * window, window, 0.0], dtype=complex)

        return differential_at

    return VectorField(
        dimension=5,
        evaluate=evaluate,
        jet=jet,
        max_order=4,
        reads=lambda n: range(5) if n == 1 else range(4),  # y5 enters linearly
    )


# -- built-in problems -------------------------------------------------------------


@dataclass
class RegisteredProblem:
    name: str
    problem: Problem
    linear: LinearProblem | None
    t_end: float
    omegas: tuple
    default_order: int


def _standard_basis():
    return FrequencyBasis([1.0, SQRT2], names=("1", "sqrt(2)"))


def _linear_example():
    basis = _standard_basis()
    matrix = np.array([[0.0, 1.0], [-21.0 / 5.0, -3.0 / 5.0]], dtype=complex)
    kappas = [
        BaseFrequency(1, basis, coords=(0, 1)),
        BaseFrequency(2, basis, coords=(-1, -1)),
    ]
    amp1 = [[0.0, 0.0], [0.0, 1.0]]  # t in the second component
    amp2 = [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]  # t^2 in the second component
    problem = Problem(
        vector_field=linear_field(matrix, max_order=8),
        forcings=[
            polynomial_amplitude(kappas[0], amp1),
            polynomial_amplitude(kappas[1], amp2),
        ],
        y0=[0.5, 0.5],
        basis=basis,
    )
    linear = LinearProblem(
        matrix=matrix,
        forcings=[
            LinearForcing(kappa=kappas[0].value, coefficients=amp1),
            LinearForcing(kappa=kappas[1].value, coefficients=amp2),
        ],
        y0=np.array([0.5, 0.5]),
    )
    return RegisteredProblem(
        name="linear_example",
        problem=problem,
        linear=linear,
        t_end=5.0,
        omegas=(250.0, 500.0, 1000.0, 2000.0, 4000.0),
        default_order=4,
    )


def _memristor():
    basis = _standard_basis()
    kappas = [
        BaseFrequency(1, basis, coords=(1, 0)),
        BaseFrequency(2, basis, coords=(-1, 0)),
        BaseFrequency(3, basis, coords=(0, 1)),
        BaseFrequency(4, basis, coords=(0, -1)),
    ]
    drive = _DRIVE * _B / 2j
    signs = (1.0, -1.0, 1.0, -1.0)
    forcings = [
        constant_amplitude(kappa, [0.0, 0.0, 0.0, 0.0, sign * drive])
        for kappa, sign in zip(kappas, signs)
    ]
    problem = Problem(
        vector_field=memristor_field(),
        forcings=forcings,
        y0=[-0.8, -0.4, 0.0, 1e-4, 0.0],
        basis=basis,
    )
    return RegisteredProblem(
        name="memristor",
        problem=problem,
        linear=None,
        t_end=3.0,
        omegas=(100.0, 1000.0),
        default_order=3,
    )


def _cubic_demo_field(dimension):
    if dimension != 2:
        raise ValueError("the cubic demo field is two-dimensional")
    return polynomial_field(
        2,
        [
            {(0, 1): 1.0, (3, 0): -0.2},
            {(1, 0): -1.0, (0, 1): -0.1, (2, 0): 0.15},
        ],
        max_order=8,
    )


def _worked_example():
    basis = _standard_basis()
    kappas = [
        BaseFrequency(1, basis, coords=(1, 0)),
        BaseFrequency(2, basis, coords=(0, 1)),
        BaseFrequency(3, basis, coords=(-1, -1)),
    ]
    forcings = [
        constant_amplitude(kappas[0], [0.5, 0.0]),
        polynomial_amplitude(kappas[1], [[0.0, 0.4], [0.0, 0.2]]),
        constant_amplitude(kappas[2], [0.3, -0.2]),
    ]
    problem = Problem(
        vector_field=_cubic_demo_field(2),
        forcings=forcings,
        y0=[0.1, 0.2],
        basis=basis,
    )
    return RegisteredProblem(
        name="worked_example",
        problem=problem,
        linear=None,
        t_end=5.0,
        omegas=(200.0, 400.0),
        default_order=3,
    )


_BUILTIN_FACTORIES = {
    "linear_example": _linear_example,
    "memristor": _memristor,
    "worked_example": _worked_example,
}
_REGISTRY: dict = {}  # the built-ins made so far, each made once


def get_problem(name) -> RegisteredProblem:
    if name not in _REGISTRY:
        factory = _BUILTIN_FACTORIES.get(name)
        if factory is None:
            raise KeyError(f"unknown problem {name!r}; known: {problem_names()}")
        _REGISTRY[name] = factory()
    return _REGISTRY[name]


def problem_names():
    return sorted(_BUILTIN_FACTORIES)


# -- config files --------------------------------------------------------------------


@dataclass
class FieldBundle:
    """In-code part of a config-defined problem: field plus amplitudes."""

    make_field: object  # dimension -> VectorField
    make_amplitudes: object  # (kappas, dimension) -> list of ForcingTerm


def _default_amplitudes(kappas, dimension):
    out = []
    for m, kappa in enumerate(kappas, start=1):
        vec = np.zeros(dimension, dtype=complex)
        vec[(m - 1) % dimension] = 0.5
        out.append(constant_amplitude(kappa, vec))
    return out


_FIELD_BUNDLES = {
    "cubic_demo": FieldBundle(_cubic_demo_field, _default_amplitudes),
    "memristor": FieldBundle(
        lambda dimension: memristor_field(),
        _default_amplitudes,
    ),
}


def register_field_bundle(name, bundle: FieldBundle):
    if name in _FIELD_BUNDLES:
        raise ValueError(f"field bundle {name!r} already registered")
    _FIELD_BUNDLES[name] = bundle


def _parse_number(x):
    if isinstance(x, (list, tuple)):
        re, im = x
        return complex(re, im)
    return complex(x)


def load_problem_config(path, name=None):
    """Problem from a JSON config plus a registered field bundle.

    Keys: ``dimension``, ``basis`` (list of reals, optionally with
    ``basis_names``), ``kappa`` (one rational coordinate vector per channel,
    entries are ints or strings like ``"-1/2"``), ``y0``, ``t_end``,
    ``field`` (bundle name, default ``cubic_demo``) and ``order`` (default
    build order, 3).  ``dimension`` and ``order`` must be nonnegative
    integers, or a ``ValueError`` names the key.  Frequencies are exact: a
    ``mode`` other than ``"exact"`` raises a ``ValueError`` that says how to
    declare unrelated frequencies.
    """
    with open(path) as fh:
        cfg = json.load(fh)
    dimension = _nonnegative_integer("dimension", cfg["dimension"])
    if cfg.get("mode", "exact") != "exact":
        raise ValueError(
            f"mode {cfg['mode']!r} is not supported; frequencies are exact. Give each "
            "frequency with no known rational relation a basis real of its own, with unit "
            'coordinates: "basis": [1.0, 1.4142135623730951], "kappa": [[1, 0], [0, 1]]'
        )
    basis = FrequencyBasis(cfg["basis"], names=cfg.get("basis_names"))
    kappas = [
        BaseFrequency(m, basis, coords=[str(q) for q in coords])
        for m, coords in enumerate(cfg["kappa"], start=1)
    ]
    bundle_name = cfg.get("field", "cubic_demo")
    if bundle_name not in _FIELD_BUNDLES:
        raise KeyError(f"unknown field bundle {bundle_name!r}")
    bundle = _FIELD_BUNDLES[bundle_name]
    problem = Problem(
        vector_field=bundle.make_field(dimension),
        forcings=bundle.make_amplitudes(kappas, dimension),
        y0=[_parse_number(v) for v in cfg["y0"]],
        basis=basis,
    )
    return RegisteredProblem(
        name=name or cfg.get("name", "config_problem"),
        problem=problem,
        linear=None,
        t_end=float(cfg["t_end"]),
        omegas=tuple(float(w) for w in cfg.get("omegas", (500.0,))),
        default_order=_nonnegative_integer("order", cfg.get("order", 3)),
    )
