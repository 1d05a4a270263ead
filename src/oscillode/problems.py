"""Built-in problems and config-file loading.

A problem is made in code with ``Problem(...)``.  A config file carries the
numeric skeleton of one (dimension, frequency basis, frequency coordinates,
initial state, horizon) and names its field: ``cubic_demo`` or
``memristor``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .deriv_engine import (
    constant_amplitude,
    linear_field,
    polynomial_amplitude,
    polynomial_field,
)
from .expansion import Problem
from .freq_algebra import BaseFrequency, FrequencyBasis
from .linear_closed_form import LinearForcing, LinearProblem
from .memristor import _B, _DRIVE, memristor_field
from .ode_core import _nonnegative_integer

__all__ = [
    "RegisteredProblem",
    "memristor_field",
    "get_problem",
    "problem_names",
    "load_problem_config",
]

SQRT2 = math.sqrt(2.0)


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
        BaseFrequency(basis, coords=(0, 1)),
        BaseFrequency(basis, coords=(-1, -1)),
    ]
    amp1 = [[0.0, 0.0], [0.0, 1.0]]  # t in the second component
    amp2 = [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]  # t^2 in the second component
    problem = Problem(
        vector_field=linear_field(matrix),
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
        BaseFrequency(basis, coords=(1, 0)),
        BaseFrequency(basis, coords=(-1, 0)),
        BaseFrequency(basis, coords=(0, 1)),
        BaseFrequency(basis, coords=(0, -1)),
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
        [
            {(0, 1): 1.0, (3, 0): -0.2},
            {(1, 0): -1.0, (0, 1): -0.1, (2, 0): 0.15},
        ]
    )


def _worked_example():
    basis = _standard_basis()
    kappas = [
        BaseFrequency(basis, coords=(1, 0)),
        BaseFrequency(basis, coords=(0, 1)),
        BaseFrequency(basis, coords=(-1, -1)),
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


def _default_amplitudes(kappas, dimension):
    out = []
    for m, kappa in enumerate(kappas, start=1):
        vec = np.zeros(dimension, dtype=complex)
        vec[(m - 1) % dimension] = 0.5
        out.append(constant_amplitude(kappa, vec))
    return out


def _memristor_config_field(dimension):
    if dimension != 5:
        raise ValueError("the memristor field is five-dimensional")
    return memristor_field()


# a config's field, by name: dimension -> VectorField
_NAMED_FIELDS = {"cubic_demo": _cubic_demo_field, "memristor": _memristor_config_field}


def _parse_number(x):
    if isinstance(x, (list, tuple)):
        re, im = x
        return complex(re, im)
    return complex(x)


_REQUIRED_CONFIG_KEYS = ("dimension", "basis", "kappa", "y0", "t_end")
_CONFIG_KEYS = ("dimension", "mode", "basis", "basis_names", "kappa", "field", "y0", "t_end",
                "name", "omegas", "order")
# the JSON type of a config value, and its description in an error
_NUMBER = ((int, float), "a number")
_CONFIG_TYPES = {
    "dimension": _NUMBER,
    "basis": (list, "a list of numbers"),
    "basis_names": (list, "a list of names"),
    "kappa": (list, "a list of coordinate lists"),
    "y0": (list, "a list of numbers or [re, im] pairs"),
    "t_end": _NUMBER,
    "name": (str, "a string"),
    "omegas": (list, "a list of numbers"),
    "order": _NUMBER,
}


class _EntryError(ValueError):
    """A config value's parse error that names the entry at fault."""


def _config_value(cfg, key, parse=None, default=None):
    """``parse`` of config ``key``'s value, or the value itself without
    ``parse``; ``default`` for an optional key that is absent or null.

    A value whose JSON type is not that of ``_CONFIG_TYPES``, or that
    ``parse`` cannot convert, raises ``ValueError`` naming the key, and the
    entry when ``parse`` names it (``_EntryError``).
    """
    value = cfg.get(key)
    if value is None and key not in _REQUIRED_CONFIG_KEYS:
        return default
    types, what = _CONFIG_TYPES[key]
    try:
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError
        return value if parse is None else parse(value)
    except _EntryError as err:
        raise ValueError(f"config key {key!r} {err}") from None
    except (TypeError, ValueError):
        raise ValueError(f"config key {key!r} must be {what}, not {json.dumps(value)}") from None


def _base_frequencies(basis, rows):
    """Config key ``kappa``'s base frequencies over ``basis``, one per
    coordinate list.  A list that makes none raises ``_EntryError`` naming
    its channel."""
    kappas = []
    for m, row in enumerate(rows, start=1):
        if not isinstance(row, list):
            raise TypeError
        try:
            kappas.append(BaseFrequency(basis, [str(q) for q in row]))
        except ValueError as err:
            raise _EntryError(f"channel {m}: {err}") from None
    return kappas


def load_problem_config(path, name=None):
    """Problem from a JSON config and a named field.

    A file that cannot be opened raises a ``ValueError`` that names it.
    Required keys: ``dimension``, ``basis`` (list of reals, optionally with
    ``basis_names``), ``kappa`` (one rational coordinate vector per channel,
    entries are ints or strings like ``"-1/2"``), ``y0`` and ``t_end``; a
    missing one raises a ``ValueError`` that names it.  Optional keys:
    ``field`` (``cubic_demo``, the default, or ``memristor``; another name
    raises a ``ValueError`` that lists these two), ``name``,
    ``omegas`` (default ``[500.0]``), ``order`` (default build order, 3) and
    ``mode``.  Any other key raises a ``ValueError`` that names it.
    ``dimension`` and ``order`` must be nonnegative integers, or a
    ``ValueError`` names the key; so does a value of the wrong JSON type,
    such as a string for a number or a number for a list, and a list entry
    that is not a number where one must be.  Frequencies are exact: a
    ``mode`` other than ``"exact"`` raises a ``ValueError`` that says how to
    declare unrelated frequencies.
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise ValueError(f"cannot read config {str(path)!r}: {err.strerror or err}") from err
    if not isinstance(cfg, dict):
        raise ValueError(f"a problem config is a JSON object, not {type(cfg).__name__}")
    missing = [key for key in _REQUIRED_CONFIG_KEYS if key not in cfg]
    if missing:
        raise ValueError(
            f"config lacks required key(s) {', '.join(map(repr, missing))}; "
            f"required: {', '.join(_REQUIRED_CONFIG_KEYS)}"
        )
    dimension = _nonnegative_integer("dimension", _config_value(cfg, "dimension"))
    if cfg.get("mode", "exact") != "exact":
        raise ValueError(
            f"mode {cfg['mode']!r} is not supported; frequencies are exact. Give each "
            "frequency with no known rational relation a basis real of its own, with unit "
            'coordinates: "basis": [1.0, 1.4142135623730951], "kappa": [[1, 0], [0, 1]]'
        )
    unknown = [key for key in cfg if key not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(
            f"unknown config key(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(_CONFIG_KEYS)}"
        )
    basis = FrequencyBasis(
        _config_value(cfg, "basis", lambda reals: [float(b) for b in reals]),
        names=_config_value(cfg, "basis_names"),
    )
    kappas = _config_value(cfg, "kappa", lambda rows: _base_frequencies(basis, rows))
    field = cfg.get("field", "cubic_demo")
    if not isinstance(field, str) or field not in _NAMED_FIELDS:
        raise ValueError(f"unknown field {field!r}; known: {', '.join(_NAMED_FIELDS)}")
    problem = Problem(
        vector_field=_NAMED_FIELDS[field](dimension),
        forcings=_default_amplitudes(kappas, dimension),
        y0=_config_value(cfg, "y0", lambda values: [_parse_number(v) for v in values]),
        basis=basis,
    )
    return RegisteredProblem(
        name=name or _config_value(cfg, "name", default="config_problem"),
        problem=problem,
        linear=None,
        t_end=_config_value(cfg, "t_end", float),
        omegas=_config_value(cfg, "omegas", lambda ws: tuple(map(float, ws)), (500.0,)),
        default_order=_nonnegative_integer("order", _config_value(cfg, "order", default=3)),
    )
